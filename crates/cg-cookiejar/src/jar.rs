//! The cookie jar proper: storage, matching, and the `document.cookie`
//! string interface.
//!
//! # Storage layout
//!
//! The jar is *domain-sharded*: cookies live in per-eTLD+1 buckets keyed
//! by interned [`DomainId`]s (see [`cg_url::intern()`]). Every lookup —
//! `document.cookie`, `Cookie:` header assembly, deletion, eviction —
//! resolves the request host to its shard id once (memoized process-wide)
//! and then touches only that bucket, never the whole jar. This is sound
//! because RFC 6265 domain-matching can only relate hosts within one
//! registrable domain: a cookie's `Domain` attribute must domain-match
//! the setting host, so cookie and every host it can match share an
//! eTLD+1. (The one historical exception — a cookie whose `Domain` *is*
//! a public suffix, settable only by that suffix itself — stays in the
//! suffix's own shard and no longer leaks to every site under it.)
//!
//! Insertion order is preserved via per-cookie sequence numbers so that
//! iteration, serialization, and eviction tie-breaks behave exactly like
//! the historical flat-`Vec` jar (kept as [`crate::flat::FlatJar`] for
//! equivalence tests and benchmarks).

use crate::changes::{ChangeCause, CookieChange};
use crate::cookie::{default_path, join_pairs, Cookie};
use cg_http::{parse_set_cookie, SetCookie};
use cg_url::intern::{self, DomainId};
use cg_url::{psl, Url};
use serde::{de, Content, DeError, Deserialize, Serialize};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;

/// Per-domain cookie cap, matching Chromium's 180-per-eTLD+1 limit.
/// When exceeded, the oldest cookies for that domain are evicted.
pub(crate) const MAX_COOKIES_PER_DOMAIN: usize = 180;

/// Why a `Set-Cookie` (header or JS write) was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SetCookieError {
    /// The string did not parse as a cookie at all.
    Unparseable,
    /// The `Domain` attribute does not domain-match the setting host.
    DomainMismatch,
    /// The `Domain` attribute is a public suffix (`Domain=com`).
    PublicSuffixDomain,
    /// A script attempted to create an `HttpOnly` cookie (forbidden for
    /// non-HTTP APIs, RFC 6265 §5.3 step 10).
    HttpOnlyFromScript,
    /// A script attempted to overwrite an existing `HttpOnly` cookie
    /// (RFC 6265 §5.3 step 11.2).
    OverwritesHttpOnly,
    /// A `Secure` cookie cannot be set from an insecure context.
    SecureFromInsecure,
    /// A `__Secure-`/`__Host-` prefixed name whose attributes violate
    /// the prefix contract (RFC 6265bis §4.1.3).
    InvalidPrefix,
}

impl fmt::Display for SetCookieError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SetCookieError::Unparseable => "unparseable cookie string",
            SetCookieError::DomainMismatch => "Domain attribute does not match setting host",
            SetCookieError::PublicSuffixDomain => "Domain attribute is a public suffix",
            SetCookieError::HttpOnlyFromScript => "scripts cannot create HttpOnly cookies",
            SetCookieError::OverwritesHttpOnly => "scripts cannot overwrite HttpOnly cookies",
            SetCookieError::SecureFromInsecure => "Secure cookie from insecure context",
            SetCookieError::InvalidPrefix => "cookie name prefix contract violated",
        };
        f.write_str(s)
    }
}

impl std::error::Error for SetCookieError {}

/// A cookie plus the jar-local insertion sequence that keeps iteration
/// and serialization deterministic across the sharded layout.
#[derive(Debug, Clone)]
struct StoredCookie {
    seq: u64,
    cookie: Cookie,
}

/// A host's eTLD+1 shard binding, resolved once and reused across a
/// burst of operations for the same document.
///
/// Every per-operation entry point re-resolves `host → DomainId`
/// through the process-wide memo table (a normalize + lock + hash per
/// call). A burst of cookie operations from one page always targets the
/// same host, so the access layer (`cookieguard_core`'s `GuardedJar`)
/// resolves the pin once per page and calls the `*_pinned` variants.
#[derive(Debug, Clone)]
pub struct ShardPin {
    host: String,
    id: DomainId,
}

impl ShardPin {
    /// Resolves the shard pin for `host` (the document's host).
    pub fn for_host(host: &str) -> ShardPin {
        ShardPin {
            host: host.to_ascii_lowercase(),
            id: intern::shard_id_for_host(host),
        }
    }

    /// The pinned host (normalized to lowercase).
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The shard id this cookie's stored domain lives under: the pinned
    /// id when the domain is the pinned host itself (host-only cookies,
    /// the common case), otherwise resolved fresh. A `Domain` attribute
    /// always shares the host's registrable domain (validation enforces
    /// it), but hosts *without* a registrable domain shard by exact
    /// host, so a differing domain string must be re-resolved.
    fn shard_for_domain(&self, domain: &str) -> DomainId {
        if domain.eq_ignore_ascii_case(&self.host) {
            self.id
        } else {
            intern::shard_id_for_host(domain)
        }
    }
}

/// The browser's cookie store for one profile, sharded by eTLD+1.
#[derive(Debug, Clone, Default)]
pub struct CookieJar {
    shards: HashMap<DomainId, Vec<StoredCookie>>,
    next_seq: u64,
    total: usize,
    changes: Vec<CookieChange>,
}

impl CookieJar {
    /// An empty jar.
    pub fn new() -> CookieJar {
        CookieJar::default()
    }

    /// Number of stored (possibly expired, not yet purged) cookies.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when the jar holds nothing.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of non-empty eTLD+1 shards (capacity planning, tests).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Iterates over all stored cookies in insertion order (tests and
    /// forensics; not a hot path — lookups go through the shard index).
    pub fn iter(&self) -> impl Iterator<Item = &Cookie> {
        let mut all: Vec<&StoredCookie> = self.shards.values().flatten().collect();
        all.sort_by_key(|s| s.seq);
        all.into_iter().map(|s| &s.cookie)
    }

    /// The shard bucket a host's cookies live in, if any.
    fn shard_for_host(&self, host: &str) -> Option<&Vec<StoredCookie>> {
        self.shards.get(&intern::shard_id_for_host(host))
    }

    // ------------------------------------------------------------------
    // Change log (CookieStore `change` event substrate)
    // ------------------------------------------------------------------

    /// Total number of change records so far. Use as a cursor for
    /// [`CookieJar::changes_since`].
    pub fn change_count(&self) -> usize {
        self.changes.len()
    }

    /// All change records.
    pub fn changes(&self) -> &[CookieChange] {
        &self.changes
    }

    /// Change records appended since `cursor` (a previous
    /// [`CookieJar::change_count`] value). Out-of-range cursors yield an
    /// empty slice.
    pub fn changes_since(&self, cursor: usize) -> &[CookieChange] {
        self.changes.get(cursor..).unwrap_or(&[])
    }

    // ------------------------------------------------------------------
    // Storage
    // ------------------------------------------------------------------

    /// Stores a cookie arriving on an HTTP response for `url` (the analog
    /// of processing a `Set-Cookie` header).
    ///
    /// Prefer mediating HTTP cookies through the access layer
    /// (`cookieguard_core::GuardedJar::apply_set_cookie_headers`), which
    /// also handles guard bookkeeping and instrumentation; this raw
    /// entry point remains for fixtures and storage-level tests.
    #[doc(hidden)]
    pub fn set_from_header(
        &mut self,
        sc: &SetCookie,
        url: &Url,
        now_ms: i64,
    ) -> Result<(), SetCookieError> {
        self.store(sc, url, now_ms, true, None, |_| ())
    }

    /// [`CookieJar::set_from_header`] with a pre-resolved [`ShardPin`]
    /// for `url`'s host (the access layer's per-page HTTP path).
    #[doc(hidden)]
    pub fn set_from_header_pinned(
        &mut self,
        pin: &ShardPin,
        sc: &SetCookie,
        url: &Url,
        now_ms: i64,
    ) -> Result<(), SetCookieError> {
        self.store(sc, url, now_ms, true, Some(pin), |_| ())
    }

    /// Stores a cookie written through `document.cookie = "…"` or
    /// `cookieStore.set(…)` on the document at `url`.
    ///
    /// Returns the stored cookie on success so instrumentation can log the
    /// exact stored form.
    ///
    /// This is the *storage* step only: script-facing writes in the
    /// browser must run through `cookieguard_core::GuardedJar`, the one
    /// enforcement point that also consults the guard and emits the
    /// instrument event. Direct use is for jar fixtures and
    /// non-instrumented analytical workloads (e.g. partitioning
    /// baselines).
    pub fn set_document_cookie(
        &mut self,
        raw: &str,
        url: &Url,
        now_ms: i64,
    ) -> Result<Cookie, SetCookieError> {
        self.set_document_cookie_impl(raw, url, now_ms, None)
    }

    /// [`CookieJar::set_document_cookie`] with a pre-resolved
    /// [`ShardPin`] for `url`'s host (burst path; see [`ShardPin`]).
    #[doc(hidden)]
    pub fn set_document_cookie_pinned(
        &mut self,
        pin: &ShardPin,
        raw: &str,
        url: &Url,
        now_ms: i64,
    ) -> Result<Cookie, SetCookieError> {
        self.set_document_cookie_impl(raw, url, now_ms, Some(pin))
    }

    /// [`CookieJar::set_document_cookie_pinned`] for a `Set-Cookie`
    /// string the caller already parsed — the access layer parses once
    /// for write classification and hands the result straight down.
    /// Returns no copy of the stored cookie: the access layer logs the
    /// write from the request, not from the jar.
    #[doc(hidden)]
    pub fn set_parsed_document_cookie_pinned(
        &mut self,
        pin: &ShardPin,
        sc: &SetCookie,
        url: &Url,
        now_ms: i64,
    ) -> Result<(), SetCookieError> {
        self.store(sc, url, now_ms, false, Some(pin), |_| ())
    }

    fn set_document_cookie_impl(
        &mut self,
        raw: &str,
        url: &Url,
        now_ms: i64,
        pin: Option<&ShardPin>,
    ) -> Result<Cookie, SetCookieError> {
        let sc = parse_set_cookie(raw).ok_or(SetCookieError::Unparseable)?;
        self.store(&sc, url, now_ms, false, pin, Cookie::clone)
    }

    /// Validates and stores `sc`, returning `stored` applied to the
    /// cookie as stored — before any eviction the insert triggers.
    fn store<R>(
        &mut self,
        sc: &SetCookie,
        url: &Url,
        now_ms: i64,
        http_api: bool,
        pin: Option<&ShardPin>,
        stored: impl FnOnce(&Cookie) -> R,
    ) -> Result<R, SetCookieError> {
        let host = url.host_str();
        validate_set(sc, url, &host, http_api)?;
        let cookie = Cookie::from_set_cookie(sc, &host, &default_path(&url.path), now_ms);

        // The cookie's domain and the setting host share an eTLD+1 (the
        // Domain checks above guarantee it), so the shard id is computed
        // from the stored domain.
        let shard_id = match pin {
            Some(p) => p.shard_for_domain(&cookie.domain),
            None => intern::shard_id_for_host(&cookie.domain),
        };
        let shard = self.shards.entry(shard_id).or_default();

        // Replace any cookie with the same (name, domain, path) identity.
        if let Some(existing) = shard.iter_mut().find(|s| {
            s.cookie.name == cookie.name
                && s.cookie.domain == cookie.domain
                && s.cookie.path == cookie.path
        }) {
            if existing.cookie.http_only && !http_api {
                return Err(SetCookieError::OverwritesHttpOnly);
            }
            // Creation time is preserved on replacement (RFC 6265 §5.3.11.3).
            let created = existing.cookie.created_at_ms;
            existing.cookie = cookie;
            existing.cookie.created_at_ms = created;
            let c = &existing.cookie;
            self.changes.push(CookieChange {
                name: c.name.clone(),
                value: c.value.clone(),
                cause: ChangeCause::Replaced,
                http_only: c.http_only,
                at_ms: now_ms,
            });
            Ok(stored(c))
        } else {
            self.changes.push(CookieChange {
                name: cookie.name.clone(),
                value: cookie.value.clone(),
                cause: ChangeCause::Created,
                http_only: cookie.http_only,
                at_ms: now_ms,
            });
            let result = stored(&cookie);
            let seq = self.next_seq;
            self.next_seq += 1;
            shard.push(StoredCookie { seq, cookie });
            self.total += 1;
            self.evict_if_needed(shard_id, now_ms);
            Ok(result)
        }
    }

    /// Expires a cookie immediately (what `cookieStore.delete` and the
    /// `expires-in-the-past` JS idiom do). Returns true when a visible
    /// cookie was removed.
    ///
    /// Script-facing deletions in the browser run through
    /// `cookieguard_core::GuardedJar::delete`, which consults the guard
    /// and emits the instrument event; this raw entry point remains for
    /// fixtures and storage-level tests.
    #[doc(hidden)]
    pub fn delete(&mut self, name: &str, url: &Url, now_ms: i64) -> bool {
        let shard_id = intern::shard_id_for_host(&url.host_str());
        self.delete_in_shard(shard_id, name, url, now_ms)
    }

    /// [`CookieJar::delete`] with a pre-resolved [`ShardPin`] for
    /// `url`'s host (burst path; see [`ShardPin`]).
    #[doc(hidden)]
    pub fn delete_pinned(&mut self, pin: &ShardPin, name: &str, url: &Url, now_ms: i64) -> bool {
        self.delete_in_shard(pin.id, name, url, now_ms)
    }

    fn delete_in_shard(&mut self, shard_id: DomainId, name: &str, url: &Url, now_ms: i64) -> bool {
        let host = url.host_str();
        let Some(shard) = self.shards.get_mut(&shard_id) else {
            return false;
        };
        let before = shard.len();
        let changes = &mut self.changes;
        shard.retain(|s| {
            let c = &s.cookie;
            let hit = c.name == name
                && c.domain_matches(&host)
                && c.path_matches(&url.path)
                && !c.is_expired(now_ms);
            if hit {
                changes.push(CookieChange {
                    name: c.name.clone(),
                    value: c.value.clone(),
                    cause: ChangeCause::Deleted,
                    http_only: c.http_only,
                    at_ms: now_ms,
                });
            }
            !hit
        });
        let removed = before - shard.len();
        if shard.is_empty() {
            self.shards.remove(&shard_id);
        }
        self.total -= removed;
        removed > 0
    }

    /// Drops expired cookies.
    pub fn purge_expired(&mut self, now_ms: i64) {
        let changes = &mut self.changes;
        let mut removed = 0usize;
        for shard in self.shards.values_mut() {
            let before = shard.len();
            shard.retain(|s| {
                if s.cookie.is_expired(now_ms) {
                    changes.push(CookieChange {
                        name: s.cookie.name.clone(),
                        value: s.cookie.value.clone(),
                        cause: ChangeCause::Expired,
                        http_only: s.cookie.http_only,
                        at_ms: now_ms,
                    });
                    false
                } else {
                    true
                }
            });
            removed += before - shard.len();
        }
        self.shards.retain(|_, shard| !shard.is_empty());
        self.total -= removed;
    }

    fn evict_if_needed(&mut self, shard_id: DomainId, now_ms: i64) {
        let Some(shard) = self.shards.get_mut(&shard_id) else {
            return;
        };
        // The shard *is* the per-eTLD+1 population, so the cap check is a
        // length read instead of the flat jar's full-scan recount.
        if shard.len() > MAX_COOKIES_PER_DOMAIN {
            // Evict the oldest cookie for this registrable domain
            // (creation time, then insertion order — the flat jar's
            // first-minimal semantics).
            if let Some(idx) = shard
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| (s.cookie.created_at_ms, s.seq))
                .map(|(idx, _)| idx)
            {
                let evicted = shard.remove(idx);
                self.total -= 1;
                self.changes.push(CookieChange {
                    name: evicted.cookie.name,
                    value: evicted.cookie.value,
                    cause: ChangeCause::Evicted,
                    http_only: evicted.cookie.http_only,
                    at_ms: now_ms,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Retrieval
    // ------------------------------------------------------------------

    /// The cookies a script at `url`'s document can observe, borrowed,
    /// in serialization order: domain- and path-matching, unexpired, not
    /// `HttpOnly`, and `Secure` only when the document is https. This is
    /// the raw jar view that `document.cookie` serializes and that
    /// CookieGuard filters. `pin` must be resolved for `url`'s host.
    ///
    /// Only the host's eTLD+1 shard is scanned; the rest of the jar is
    /// never touched.
    pub fn document_view_pinned(&self, pin: &ShardPin, url: &Url, now_ms: i64) -> Vec<&Cookie> {
        sorted(self.document_cookies_pinned(pin, url, now_ms).collect())
    }

    /// [`CookieJar::document_view_pinned`] resolving the shard from
    /// `url`'s host.
    fn document_view(&self, url: &Url, now_ms: i64) -> Vec<&Cookie> {
        let host = url.host_str();
        let view = visible_to_document(self.shard_for_host(&host), &host, url, now_ms);
        sorted(view.collect())
    }

    /// The cookies of [`CookieJar::document_view_pinned`] in storage
    /// (insertion) order, unsorted — for one-pass questions that need no
    /// ordered list: "is a cookie named `n` visible?", or, with
    /// [`serialization_order`] and `min_by` (which keeps the first of
    /// equals, as the stable sort does), "which one does the view list
    /// first?".
    pub fn document_cookies_pinned<'j: 'q, 'q>(
        &'j self,
        pin: &'q ShardPin,
        url: &'q Url,
        now_ms: i64,
    ) -> impl Iterator<Item = &'j Cookie> + 'q {
        visible_to_document(self.shards.get(&pin.id), &pin.host, url, now_ms)
    }

    /// Owned copies of the document view (see
    /// [`CookieJar::document_view_pinned`]), for callers that keep the
    /// cookies past the next jar mutation.
    pub fn cookies_for_document(&self, url: &Url, now_ms: i64) -> Vec<Cookie> {
        self.document_view(url, now_ms)
            .into_iter()
            .cloned()
            .collect()
    }

    /// The `document.cookie` getter: `"a=1; b=2"`.
    pub fn document_cookie(&self, url: &Url, now_ms: i64) -> String {
        join_pairs(&self.document_view(url, now_ms))
    }

    /// The `Cookie:` header value attached to an HTTP request for `url`.
    /// Unlike the document view, `HttpOnly` cookies are included — they
    /// are invisible to scripts, not to the network.
    pub fn cookie_header_for_request(&self, url: &Url, now_ms: i64) -> String {
        let host = url.host_str();
        let matching = self
            .shard_for_host(&host)
            .into_iter()
            .flatten()
            .filter_map(|s| {
                let c = &s.cookie;
                (!c.is_expired(now_ms)
                    && c.domain_matches(&host)
                    && c.path_matches(&url.path)
                    && (!c.secure || url.scheme == "https"))
                    .then_some(c)
            });
        join_pairs(&sorted(matching.collect()))
    }

    /// The `Cookie:` header for a *subresource* request to `url` made
    /// by a page whose top-level site is `top_level_site`, with RFC
    /// 6265bis `SameSite` enforcement:
    ///
    /// * same-site requests (destination's registrable domain equals
    ///   the top-level site) attach everything, like
    ///   [`CookieJar::cookie_header_for_request`];
    /// * cross-site requests attach only `SameSite=None; Secure`
    ///   cookies. Unspecified `SameSite` defaults to `Lax` (the modern
    ///   browser default), and `SameSite=None` without `Secure` is
    ///   treated as `Lax` — both therefore stay home.
    pub fn cookie_header_for_subresource(
        &self,
        url: &Url,
        top_level_site: &str,
        now_ms: i64,
    ) -> String {
        let same_site = url
            .registrable_domain()
            .is_some_and(|d| d.eq_ignore_ascii_case(top_level_site));
        if same_site {
            return self.cookie_header_for_request(url, now_ms);
        }
        let host = url.host_str();
        let matching = self
            .shard_for_host(&host)
            .into_iter()
            .flatten()
            .filter_map(|s| {
                let c = &s.cookie;
                (!c.is_expired(now_ms)
                    && c.domain_matches(&host)
                    && c.path_matches(&url.path)
                    && url.scheme == "https"
                    && c.same_site == Some(cg_http::SameSite::None)
                    && c.secure)
                    .then_some(c)
            });
        join_pairs(&sorted(matching.collect()))
    }
}

/// The script-visible cookies of one shard for a document at `url`
/// (whose host is `host`), in storage order.
fn visible_to_document<'j: 'q, 'q>(
    shard: Option<&'j Vec<StoredCookie>>,
    host: &'q str,
    url: &'q Url,
    now_ms: i64,
) -> impl Iterator<Item = &'j Cookie> + 'q {
    shard.into_iter().flatten().filter_map(move |s| {
        let c = &s.cookie;
        (!c.is_expired(now_ms)
            && !c.http_only
            && c.domain_matches(host)
            && c.path_matches(&url.path)
            && (!c.secure || url.scheme == "https"))
            .then_some(c)
    })
}

fn sorted(mut cookies: Vec<&Cookie>) -> Vec<&Cookie> {
    sort_for_serialization(&mut cookies);
    cookies
}

// ---------------------------------------------------------------------
// Serde: the wire format stays the flat `{cookies, changes}` shape the
// pre-sharding jar used, so persisted jars round-trip across versions.
// ---------------------------------------------------------------------

impl Serialize for CookieJar {
    fn to_content(&self) -> Content {
        let cookies: Vec<&Cookie> = self.iter().collect();
        Content::Map(vec![
            (Content::Str("cookies".to_string()), cookies.to_content()),
            (
                Content::Str("changes".to_string()),
                self.changes.to_content(),
            ),
        ])
    }
}

impl<'de> Deserialize<'de> for CookieJar {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let cookies: Vec<Cookie> = match content.get("cookies") {
            Some(v) => Vec::from_content(v)?,
            None => return Err(de::Error::custom("missing field `cookies`")),
        };
        let changes: Vec<CookieChange> = match content.get("changes") {
            Some(v) => Vec::from_content(v)?,
            None => Vec::new(),
        };
        let mut jar = CookieJar {
            changes,
            ..CookieJar::default()
        };
        for cookie in cookies {
            let shard_id = intern::shard_id_for_host(&cookie.domain);
            let seq = jar.next_seq;
            jar.next_seq += 1;
            jar.shards
                .entry(shard_id)
                .or_default()
                .push(StoredCookie { seq, cookie });
            jar.total += 1;
        }
        Ok(jar)
    }
}

/// RFC 6265 / 6265bis storage validation shared by [`CookieJar`] and
/// [`crate::flat::FlatJar`]: HttpOnly-from-script, Secure-context,
/// `__Secure-`/`__Host-` name-prefix contracts (checked
/// case-insensitively, as modern browsers do), and `Domain`-attribute
/// public-suffix / domain-match rules.
pub(crate) fn validate_set(
    sc: &SetCookie,
    url: &Url,
    host: &str,
    http_api: bool,
) -> Result<(), SetCookieError> {
    if !http_api && sc.http_only {
        return Err(SetCookieError::HttpOnlyFromScript);
    }
    if sc.secure && url.scheme != "https" {
        return Err(SetCookieError::SecureFromInsecure);
    }
    let lower_name = sc.name.to_ascii_lowercase();
    if lower_name.starts_with("__secure-") && !(sc.secure && url.scheme == "https") {
        return Err(SetCookieError::InvalidPrefix);
    }
    if lower_name.starts_with("__host-") {
        let path_ok = sc.path.as_deref() == Some("/");
        if !(sc.secure && url.scheme == "https" && sc.domain.is_none() && path_ok) {
            return Err(SetCookieError::InvalidPrefix);
        }
    }
    if let Some(d) = &sc.domain {
        if psl::is_public_suffix(d) && !host.eq_ignore_ascii_case(d) {
            return Err(SetCookieError::PublicSuffixDomain);
        }
        if !cg_url::host::domain_match(host, d) {
            return Err(SetCookieError::DomainMismatch);
        }
    }
    Ok(())
}

/// The `document.cookie` / `Cookie:` listing order (RFC 6265 §5.4 step
/// 2): longer paths first; among equal-length paths, earlier creation
/// times first; then by name. Cookies equal under it keep storage order.
pub fn serialization_order(a: &Cookie, b: &Cookie) -> Ordering {
    b.path
        .len()
        .cmp(&a.path.len())
        .then(a.created_at_ms.cmp(&b.created_at_ms))
        .then(a.name.cmp(&b.name))
}

/// Stable sort by [`serialization_order`].
pub(crate) fn sort_for_serialization<C: Borrow<Cookie>>(cookies: &mut [C]) {
    cookies.sort_by(|a, b| serialization_order(a.borrow(), b.borrow()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn jar_with(raws: &[&str], at: &str) -> CookieJar {
        let mut jar = CookieJar::new();
        let u = url(at);
        for (i, raw) in raws.iter().enumerate() {
            jar.set_document_cookie(raw, &u, i as i64).unwrap();
        }
        jar
    }

    #[test]
    fn document_cookie_serializes_in_order() {
        let jar = jar_with(&["a=1", "b=2", "c=3"], "https://www.site.com/");
        assert_eq!(
            jar.document_cookie(&url("https://www.site.com/"), 10),
            "a=1; b=2; c=3"
        );
    }

    #[test]
    fn longer_path_sorts_first() {
        let u = url("https://site.com/a/b/page");
        let mut jar = CookieJar::new();
        jar.set_document_cookie("root=1; Path=/", &u, 0).unwrap();
        jar.set_document_cookie("deep=2; Path=/a/b", &u, 1).unwrap();
        assert_eq!(jar.document_cookie(&u, 10), "deep=2; root=1");
    }

    #[test]
    fn http_only_invisible_to_scripts_but_sent_on_requests() {
        let u = url("https://site.com/");
        let mut jar = CookieJar::new();
        let sc = cg_http::parse_set_cookie("sid=secret; HttpOnly").unwrap();
        jar.set_from_header(&sc, &u, 0).unwrap();
        assert_eq!(jar.document_cookie(&u, 1), "");
        assert_eq!(jar.cookie_header_for_request(&u, 1), "sid=secret");
    }

    #[test]
    fn script_cannot_create_or_overwrite_httponly() {
        let u = url("https://site.com/");
        let mut jar = CookieJar::new();
        assert_eq!(
            jar.set_document_cookie("x=1; HttpOnly", &u, 0).unwrap_err(),
            SetCookieError::HttpOnlyFromScript
        );
        let sc = cg_http::parse_set_cookie("sid=secret; HttpOnly").unwrap();
        jar.set_from_header(&sc, &u, 0).unwrap();
        assert_eq!(
            jar.set_document_cookie("sid=stolen", &u, 1).unwrap_err(),
            SetCookieError::OverwritesHttpOnly
        );
        assert_eq!(jar.cookie_header_for_request(&u, 2), "sid=secret");
    }

    #[test]
    fn domain_attribute_validation() {
        let u = url("https://www.site.com/");
        let mut jar = CookieJar::new();
        assert_eq!(
            jar.set_document_cookie("a=1; Domain=other.com", &u, 0)
                .unwrap_err(),
            SetCookieError::DomainMismatch
        );
        assert_eq!(
            jar.set_document_cookie("a=1; Domain=com", &u, 0)
                .unwrap_err(),
            SetCookieError::PublicSuffixDomain
        );
        jar.set_document_cookie("a=1; Domain=site.com", &u, 0)
            .unwrap();
        assert_eq!(jar.document_cookie(&url("https://api.site.com/"), 1), "a=1");
    }

    #[test]
    fn secure_requires_https() {
        let mut jar = CookieJar::new();
        assert_eq!(
            jar.set_document_cookie("a=1; Secure", &url("http://site.com/"), 0)
                .unwrap_err(),
            SetCookieError::SecureFromInsecure
        );
        jar.set_document_cookie("a=1; Secure", &url("https://site.com/"), 0)
            .unwrap();
        assert_eq!(jar.document_cookie(&url("http://site.com/"), 1), "");
        assert_eq!(jar.document_cookie(&url("https://site.com/"), 1), "a=1");
    }

    #[test]
    fn delete_removes_visible_cookie() {
        let u = url("https://site.com/");
        let mut jar = jar_with(&["a=1", "b=2"], "https://site.com/");
        assert!(jar.delete("a", &u, 10));
        assert!(!jar.delete("a", &u, 10));
        assert_eq!(jar.document_cookie(&u, 10), "b=2");
    }

    #[test]
    fn replacement_preserves_creation_time() {
        let u = url("https://site.com/");
        let mut jar = CookieJar::new();
        jar.set_document_cookie("a=1", &u, 5).unwrap();
        jar.set_document_cookie("b=2", &u, 6).unwrap();
        jar.set_document_cookie("a=99", &u, 100).unwrap();
        // "a" keeps its original creation time, so it still sorts first.
        assert_eq!(jar.document_cookie(&u, 200), "a=99; b=2");
    }

    #[test]
    fn eviction_caps_per_domain() {
        let u = url("https://big.com/");
        let mut jar = CookieJar::new();
        for i in 0..(MAX_COOKIES_PER_DOMAIN + 20) {
            jar.set_document_cookie(&format!("c{i}=v"), &u, i as i64)
                .unwrap();
        }
        assert!(jar.len() <= MAX_COOKIES_PER_DOMAIN + 1);
        // The earliest cookies were evicted.
        assert!(!jar.document_cookie(&u, 0).contains("c0=v"));
    }

    #[test]
    fn purge_expired_drops_cookies() {
        let u = url("https://site.com/");
        let mut jar = CookieJar::new();
        jar.set_document_cookie("a=1; Max-Age=1", &u, 0).unwrap();
        jar.set_document_cookie("b=2", &u, 0).unwrap();
        jar.purge_expired(2_000);
        assert_eq!(jar.len(), 1);
    }

    #[test]
    fn subdomain_cannot_read_host_only_cookie_of_parent() {
        let mut jar = CookieJar::new();
        jar.set_document_cookie("ho=1", &url("https://site.com/"), 0)
            .unwrap();
        assert_eq!(jar.document_cookie(&url("https://sub.site.com/"), 1), "");
    }

    // ------------------------------------------------------------------
    // RFC 6265bis: name prefixes and SameSite
    // ------------------------------------------------------------------

    #[test]
    fn secure_prefix_requires_secure_attribute() {
        let u = url("https://site.com/");
        let mut jar = CookieJar::new();
        assert_eq!(
            jar.set_document_cookie("__Secure-id=1", &u, 0).unwrap_err(),
            SetCookieError::InvalidPrefix
        );
        jar.set_document_cookie("__Secure-id=1; Secure", &u, 0)
            .unwrap();
        assert_eq!(jar.document_cookie(&u, 1), "__Secure-id=1");
        // Case-insensitive prefix check, like modern browsers.
        assert_eq!(
            jar.set_document_cookie("__secure-other=1", &u, 0)
                .unwrap_err(),
            SetCookieError::InvalidPrefix
        );
    }

    #[test]
    fn host_prefix_contract() {
        let u = url("https://site.com/");
        let mut jar = CookieJar::new();
        // Missing Secure.
        assert_eq!(
            jar.set_document_cookie("__Host-sid=1; Path=/", &u, 0)
                .unwrap_err(),
            SetCookieError::InvalidPrefix
        );
        // Missing Path=/.
        assert_eq!(
            jar.set_document_cookie("__Host-sid=1; Secure", &u, 0)
                .unwrap_err(),
            SetCookieError::InvalidPrefix
        );
        // Domain attribute forbidden.
        assert_eq!(
            jar.set_document_cookie("__Host-sid=1; Secure; Path=/; Domain=site.com", &u, 0)
                .unwrap_err(),
            SetCookieError::InvalidPrefix
        );
        // The conforming form stores (and is host-only).
        jar.set_document_cookie("__Host-sid=1; Secure; Path=/", &u, 0)
            .unwrap();
        assert_eq!(jar.document_cookie(&u, 1), "__Host-sid=1");
        assert_eq!(jar.document_cookie(&url("https://sub.site.com/"), 1), "");
    }

    #[test]
    fn host_prefix_rejected_on_http() {
        let u = url("http://site.com/");
        let mut jar = CookieJar::new();
        // On http the Secure attribute itself is rejected first; either
        // way the cookie must not store.
        assert!(jar
            .set_document_cookie("__Host-sid=1; Secure; Path=/", &u, 0)
            .is_err());
        assert!(jar.is_empty());
    }

    #[test]
    fn prefixed_rejections_emit_no_change() {
        let u = url("https://site.com/");
        let mut jar = CookieJar::new();
        let _ = jar.set_document_cookie("__Host-x=1", &u, 0);
        let _ = jar.set_document_cookie("__Secure-y=1", &u, 0);
        assert_eq!(jar.change_count(), 0);
    }

    #[test]
    fn same_site_subresource_attachment() {
        let u = url("https://tracker.com/");
        let mut jar = CookieJar::new();
        // Four flavours on the tracker's own domain.
        let hdr = |raw: &str| cg_http::parse_set_cookie(raw).unwrap();
        jar.set_from_header(&hdr("none_ok=1; SameSite=None; Secure"), &u, 0)
            .unwrap();
        jar.set_from_header(&hdr("none_insecure=1; SameSite=None"), &u, 0)
            .unwrap();
        jar.set_from_header(&hdr("lax=1; SameSite=Lax"), &u, 0)
            .unwrap();
        jar.set_from_header(&hdr("unspecified=1"), &u, 0).unwrap();

        // Cross-site: a page on site.com requests tracker.com.
        let cross = jar.cookie_header_for_subresource(&u, "site.com", 1);
        assert_eq!(
            cross, "none_ok=1",
            "only SameSite=None; Secure travels cross-site"
        );

        // Same-site: a tracker.com page requesting tracker.com gets all.
        let same = jar.cookie_header_for_subresource(&u, "tracker.com", 1);
        for name in ["none_ok", "none_insecure", "lax", "unspecified"] {
            assert!(
                same.contains(name),
                "{name} missing from same-site header: {same}"
            );
        }
    }

    #[test]
    fn same_site_strict_never_travels_cross_site() {
        let u = url("https://idp.com/");
        let mut jar = CookieJar::new();
        let sc =
            cg_http::parse_set_cookie("session=tok; SameSite=Strict; Secure; HttpOnly").unwrap();
        jar.set_from_header(&sc, &u, 0).unwrap();
        assert_eq!(jar.cookie_header_for_subresource(&u, "shop.com", 1), "");
        assert_eq!(
            jar.cookie_header_for_subresource(&u, "idp.com", 1),
            "session=tok"
        );
    }

    // ------------------------------------------------------------------
    // Change log
    // ------------------------------------------------------------------

    #[test]
    fn change_log_records_create_replace_delete() {
        use crate::changes::ChangeCause;
        let u = url("https://site.com/");
        let mut jar = CookieJar::new();
        jar.set_document_cookie("a=1", &u, 0).unwrap();
        jar.set_document_cookie("a=2", &u, 1).unwrap();
        jar.delete("a", &u, 2);
        let causes: Vec<ChangeCause> = jar.changes().iter().map(|c| c.cause).collect();
        assert_eq!(
            causes,
            vec![
                ChangeCause::Created,
                ChangeCause::Replaced,
                ChangeCause::Deleted
            ]
        );
        assert_eq!(jar.changes()[1].value, "2");
        assert!(jar.changes()[2].is_removal());
    }

    #[test]
    fn change_cursor_yields_only_new_records() {
        let u = url("https://site.com/");
        let mut jar = CookieJar::new();
        jar.set_document_cookie("a=1", &u, 0).unwrap();
        let cursor = jar.change_count();
        assert!(jar.changes_since(cursor).is_empty());
        jar.set_document_cookie("b=2", &u, 1).unwrap();
        let fresh = jar.changes_since(cursor);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].name, "b");
        // Out-of-range cursors are harmless.
        assert!(jar.changes_since(cursor + 100).is_empty());
    }

    #[test]
    fn failed_sets_emit_no_change() {
        let u = url("https://www.site.com/");
        let mut jar = CookieJar::new();
        assert!(jar
            .set_document_cookie("a=1; Domain=other.com", &u, 0)
            .is_err());
        assert!(jar.set_document_cookie("x=1; HttpOnly", &u, 0).is_err());
        assert_eq!(jar.change_count(), 0);
    }

    #[test]
    fn httponly_changes_are_flagged() {
        let u = url("https://site.com/");
        let mut jar = CookieJar::new();
        let sc = cg_http::parse_set_cookie("sid=secret; HttpOnly").unwrap();
        jar.set_from_header(&sc, &u, 0).unwrap();
        assert_eq!(jar.change_count(), 1);
        assert!(jar.changes()[0].http_only);
    }

    #[test]
    fn expiry_purge_emits_expired_changes() {
        use crate::changes::ChangeCause;
        let u = url("https://site.com/");
        let mut jar = CookieJar::new();
        jar.set_document_cookie("temp=1; Max-Age=1", &u, 0).unwrap();
        jar.purge_expired(5_000);
        let last = jar.changes().last().unwrap();
        assert_eq!(last.cause, ChangeCause::Expired);
        assert_eq!(last.name, "temp");
    }

    #[test]
    fn eviction_emits_evicted_change() {
        use crate::changes::ChangeCause;
        let u = url("https://big.com/");
        let mut jar = CookieJar::new();
        for i in 0..(MAX_COOKIES_PER_DOMAIN + 1) {
            jar.set_document_cookie(&format!("c{i}=v"), &u, i as i64)
                .unwrap();
        }
        assert!(jar
            .changes()
            .iter()
            .any(|c| c.cause == ChangeCause::Evicted && c.name == "c0"));
    }

    // ------------------------------------------------------------------
    // Sharded-index behaviour
    // ------------------------------------------------------------------

    #[test]
    fn shards_group_by_etld_plus_one() {
        let mut jar = CookieJar::new();
        jar.set_document_cookie("a=1", &url("https://www.one.com/"), 0)
            .unwrap();
        jar.set_document_cookie("b=2; Domain=one.com", &url("https://api.one.com/"), 1)
            .unwrap();
        jar.set_document_cookie("c=3", &url("https://two.com/"), 2)
            .unwrap();
        jar.set_document_cookie("d=4", &url("https://shop.example.co.uk/"), 3)
            .unwrap();
        assert_eq!(jar.len(), 4);
        assert_eq!(jar.shard_count(), 3, "one.com hosts must share a shard");
    }

    #[test]
    fn iter_preserves_insertion_order_across_shards() {
        let mut jar = CookieJar::new();
        let hosts = [
            "https://z-last.com/",
            "https://a-first.com/",
            "https://m-mid.net/",
        ];
        for (i, h) in hosts.iter().enumerate() {
            jar.set_document_cookie(&format!("c{i}=v"), &url(h), i as i64)
                .unwrap();
        }
        let names: Vec<&str> = jar.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["c0", "c1", "c2"]);
    }

    #[test]
    fn eviction_is_per_domain_and_ordered() {
        // Fill one domain to the cap, interleaved with cookies of other
        // domains; only the full domain evicts, oldest-first.
        let big = url("https://evict-big.com/");
        let small = url("https://evict-small.com/");
        let mut jar = CookieJar::new();
        jar.set_document_cookie("keep=1", &small, 0).unwrap();
        for i in 0..MAX_COOKIES_PER_DOMAIN {
            jar.set_document_cookie(&format!("c{i}=v"), &big, (i + 1) as i64)
                .unwrap();
        }
        assert_eq!(
            jar.len(),
            MAX_COOKIES_PER_DOMAIN + 1,
            "cap not yet exceeded"
        );

        // The 181st cookie for big.com evicts big.com's oldest (c0), not
        // the other domain's cookie.
        jar.set_document_cookie("straw=1", &big, 9_999).unwrap();
        assert_eq!(jar.len(), MAX_COOKIES_PER_DOMAIN + 1);
        let doc = jar.document_cookie(&big, 0);
        assert!(!doc.contains("c0=v"), "oldest big.com cookie must go first");
        assert!(doc.contains("c1=v"));
        assert_eq!(
            jar.document_cookie(&small, 0),
            "keep=1",
            "other domains untouched"
        );

        // Two more: eviction continues in creation order (c1, then c2).
        jar.set_document_cookie("straw2=1", &big, 10_000).unwrap();
        jar.set_document_cookie("straw3=1", &big, 10_001).unwrap();
        let doc = jar.document_cookie(&big, 0);
        assert!(!doc.contains("c1=v") && !doc.contains("c2=v"));
        assert!(doc.contains("c3=v"));
        let evicted: Vec<&str> = jar
            .changes()
            .iter()
            .filter(|c| c.cause == ChangeCause::Evicted)
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(
            evicted,
            vec!["c0", "c1", "c2"],
            "eviction order is oldest-first"
        );
    }

    #[test]
    fn pinned_ops_match_unpinned() {
        // The shard-pinned burst variants are pure fast paths: identical
        // results and identical jar state, including the Domain-attribute
        // case where the stored domain differs from the document host.
        let u = url("https://www.pin-site.com/a/b");
        let pin = ShardPin::for_host(&u.host_str());
        let mut pinned = CookieJar::new();
        let mut plain = CookieJar::new();
        let raws = [
            "a=1",
            "b=2; Domain=pin-site.com",
            "deep=3; Path=/a",
            "a=9", // replacement
        ];
        for (i, raw) in raws.iter().enumerate() {
            let p = pinned.set_document_cookie_pinned(&pin, raw, &u, i as i64);
            let q = plain.set_document_cookie(raw, &u, i as i64);
            assert_eq!(p, q, "store diverged for {raw}");
        }
        assert_eq!(
            pinned.document_view_pinned(&pin, &u, 10),
            plain.document_view(&u, 10)
        );
        assert_eq!(
            pinned.delete_pinned(&pin, "a", &u, 11),
            plain.delete("a", &u, 11)
        );
        assert_eq!(
            pinned.delete_pinned(&pin, "missing", &u, 11),
            plain.delete("missing", &u, 11)
        );
        assert_eq!(pinned.len(), plain.len());
        assert_eq!(pinned.changes(), plain.changes());
        assert_eq!(
            serde_json::to_string(&pinned).unwrap(),
            serde_json::to_string(&plain).unwrap()
        );
    }

    #[test]
    fn pin_resolves_subdomains_to_one_shard() {
        let www = ShardPin::for_host("www.pin-two.com");
        let mut jar = CookieJar::new();
        let u = url("https://www.pin-two.com/");
        jar.set_document_cookie_pinned(&www, "x=1; Domain=pin-two.com", &u, 0)
            .unwrap();
        // The sibling host reads the same shard through its own pin.
        let api = ShardPin::for_host("api.pin-two.com");
        let au = url("https://api.pin-two.com/");
        assert_eq!(
            jar.document_view_pinned(&api, &au, 1)
                .iter()
                .map(|c| c.pair())
                .collect::<Vec<_>>(),
            vec!["x=1".to_string()]
        );
    }

    #[test]
    fn serde_round_trip_of_populated_jar() {
        let mut jar = CookieJar::new();
        jar.set_document_cookie("plain=1", &url("https://rt-one.com/"), 0)
            .unwrap();
        jar.set_document_cookie(
            "scoped=2; Domain=rt-one.com; Path=/a",
            &url("https://www.rt-one.com/a/b"),
            1,
        )
        .unwrap();
        jar.set_document_cookie("other=3; Max-Age=60", &url("https://rt-two.org/"), 2)
            .unwrap();
        let sc = cg_http::parse_set_cookie("sid=s; HttpOnly; Secure; SameSite=Strict").unwrap();
        jar.set_from_header(&sc, &url("https://rt-two.org/"), 3)
            .unwrap();
        jar.delete("plain", &url("https://rt-one.com/"), 4);

        let json = serde_json::to_string(&jar).expect("serialize jar");
        let back: CookieJar = serde_json::from_str(&json).expect("deserialize jar");

        assert_eq!(back.len(), jar.len());
        assert_eq!(back.shard_count(), jar.shard_count());
        let a: Vec<&Cookie> = jar.iter().collect();
        let b: Vec<&Cookie> = back.iter().collect();
        assert_eq!(a, b, "cookie list must round-trip in order");
        assert_eq!(back.changes(), jar.changes(), "change log must round-trip");

        // The restored jar answers queries identically.
        for u in [
            "https://www.rt-one.com/a/b",
            "https://rt-one.com/",
            "https://rt-two.org/",
        ] {
            let u = url(u);
            assert_eq!(back.document_cookie(&u, 10), jar.document_cookie(&u, 10));
            assert_eq!(
                back.cookie_header_for_request(&u, 10),
                jar.cookie_header_for_request(&u, 10)
            );
        }
    }

    #[test]
    fn wire_format_is_the_flat_cookies_changes_shape() {
        // Compatibility contract: persisted jars are `{cookies: [...],
        // changes: [...]}` with a flat cookie list, like the pre-sharding
        // serialization.
        let mut jar = CookieJar::new();
        jar.set_document_cookie("a=1", &url("https://wire.com/"), 0)
            .unwrap();
        let v: serde_json::Value = serde_json::to_value(&jar).unwrap();
        let cookies = v
            .get("cookies")
            .and_then(|c| c.as_array())
            .expect("flat cookies list");
        assert_eq!(cookies.len(), 1);
        assert_eq!(cookies[0].get("name").and_then(|n| n.as_str()), Some("a"));
        assert!(v.get("changes").is_some());
        assert!(
            v.get("shards").is_none(),
            "shard structure must not leak into the wire format"
        );
    }

    #[test]
    fn sharded_matches_flat_on_adversarial_insert_order() {
        use crate::flat::FlatJar;
        // Interleave many domains, same-name cookies, subdomain-scoped
        // cookies, replacements, path variants, and expiries — in an
        // order chosen so a naive index would mis-sort (domains arrive
        // round-robin, names collide across domains, and a replacement
        // targets the middle of a shard).
        let inserts: Vec<(&str, &str)> = vec![
            ("https://adv-a.com/x/y", "sid=a0"),
            ("https://adv-b.com/x/y", "sid=b0"),
            ("https://adv-c.co.uk/x/y", "sid=c0"),
            ("https://www.adv-a.com/x/y", "shared=a1; Domain=adv-a.com"),
            ("https://www.adv-b.com/x/y", "shared=b1; Domain=adv-b.com"),
            ("https://adv-a.com/x/y", "deep=a2; Path=/x"),
            ("https://adv-b.com/x/y", "deep=b2; Path=/x/y"),
            ("https://adv-c.co.uk/x/y", "deep=c2; Path=/"),
            ("https://adv-a.com/x/y", "sid=a3"), // replacement, keeps creation time
            ("https://api.adv-b.com/x/y", "api=b3"),
            ("https://adv-c.co.uk/x/y", "temp=c3; Max-Age=1"),
            ("https://adv-a.com/x/y", "zz=a4"),
            ("https://adv-b.com/x/y", "aa=b4"),
        ];
        let mut sharded = CookieJar::new();
        let mut flat = FlatJar::new();
        for (i, (at, raw)) in inserts.iter().enumerate() {
            let u = url(at);
            let s = sharded.set_document_cookie(raw, &u, i as i64).map(|_| ());
            let f = flat.set_document_cookie(raw, &u, i as i64);
            assert_eq!(s, f, "store outcome diverged for {raw}");
        }
        assert_eq!(sharded.len(), flat.len());

        let queries = [
            "https://adv-a.com/x/y",
            "https://adv-a.com/",
            "https://www.adv-a.com/x/y",
            "https://adv-b.com/x/y",
            "https://api.adv-b.com/x/y",
            "https://adv-c.co.uk/x/y",
            "https://unrelated.net/",
        ];
        for q in queries {
            let u = url(q);
            for now in [0i64, 1_500, 10_000] {
                assert_eq!(
                    sharded.document_cookie(&u, now),
                    flat.document_cookie(&u, now),
                    "document_cookie diverged at {q} t={now}"
                );
                assert_eq!(
                    sharded.cookie_header_for_request(&u, now),
                    flat.cookie_header_for_request(&u, now),
                    "request header diverged at {q} t={now}"
                );
            }
        }
    }

    #[test]
    fn sharded_matches_flat_under_eviction_pressure() {
        use crate::flat::FlatJar;
        // Three domains round-robin past the per-domain cap: eviction
        // decisions must be identical.
        let hosts = [
            "https://cap-a.com/",
            "https://cap-b.com/",
            "https://cap-c.com/",
        ];
        let mut sharded = CookieJar::new();
        let mut flat = FlatJar::new();
        for i in 0..(3 * (MAX_COOKIES_PER_DOMAIN + 25)) {
            let u = url(hosts[i % 3]);
            let raw = format!("c{}=v", i / 3);
            sharded.set_document_cookie(&raw, &u, i as i64).unwrap();
            flat.set_document_cookie(&raw, &u, i as i64).unwrap();
        }
        assert_eq!(sharded.len(), flat.len());
        for h in hosts {
            let u = url(h);
            assert_eq!(
                sharded.document_cookie(&u, 0),
                flat.document_cookie(&u, 0),
                "diverged at {h}"
            );
        }
    }
}
