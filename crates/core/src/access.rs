//! The cookie access layer: [`GuardedJar`], the **single enforcement
//! point** every first-party cookie operation runs through.
//!
//! CookieGuard's contract (§6) is that *every* access — script read,
//! script write/delete, HTTP `Set-Cookie`, CookieStore call — passes the
//! same per-script-origin policy check. Before this module existed, the
//! browser hand-interleaved three concerns at every interception point:
//! the [`GuardSession`] check, the [`CookieJar`] mutation, and the
//! instrument event — a dance each new workload re-implemented and
//! could silently get wrong. `GuardedJar` owns that dance:
//!
//! ```text
//!   caller (Page, service worker, future workloads)
//!        │  read / get / set / delete / apply_set_cookie_headers
//!        ▼
//!   GuardedJar ── 1. policy   (GuardSession, optional)
//!              ── 2. storage  (CookieJar, shard-pinned)
//!              ── 3. event    (EventSink)
//! ```
//!
//! Callers never consult the guard, mutate the jar, or synthesize
//! `SetEvent`/`ReadEvent`s by hand; a write returns an [`Outcome`] that
//! says what was decided and whether the jar changed, while the events
//! go to the sink and the mutation's record to the jar's change log.
//! Running guard-less (a vanilla measurement crawl) is the same API
//! with `guard = None`.
//!
//! The jar's host → shard resolution is pinned once per `GuardedJar`
//! (the document URL is fixed for its lifetime). Reads and write
//! classification run on the jar's *borrowed* document view
//! ([`CookieJar::document_view_pinned`]): a read clones only the
//! `(name, value)` pairs its event owns and writes the `document.cookie`
//! string straight into one buffer, and a write finds its prior cookie
//! in one pass without building the view at all.

use crate::guard::GuardSession;
use crate::policy::{AccessDecision, Caller};
use cg_cookiejar::{
    join_pairs, serialization_order, Cookie, CookieChange, CookieJar, SetCookieError, ShardPin,
};
use cg_http::parse_set_cookie;
use cg_instrument::{AttrChangeFlags, CookieApi, EventSink, ReadEvent, SetEvent, WriteKind};
use cg_url::{DomainId, Url};
use std::sync::Arc;

/// The identity and timing of one mediated cookie operation.
///
/// Carries *two* identities because policy and measurement can
/// legitimately disagree: `caller` is the policy identity (possibly
/// CNAME-uncloaked or signature-attributed), while `actor` is the
/// identity the instrumentation may observe (the raw stack-trace
/// eTLD+1). The operations of one script share one context.
///
/// Both identities are interned ids, resolved once per script at
/// attribution time, so building and cloning a context per operation is
/// allocation-free (`Caller` and `DomainId` are `Copy`; the script URL
/// is a shared `Arc<str>`). Event emission resolves ids back to names —
/// the instrument wire format never changes.
#[derive(Debug, Clone)]
pub struct AccessContext {
    /// Policy identity: who the guard judges.
    pub caller: Caller,
    /// Measured identity: the interned eTLD+1 recorded on events
    /// (None = inline). Resolved to its name at event-emission time.
    pub actor: Option<DomainId>,
    /// Full script URL recorded on write events, when attributable;
    /// shared, not cloned, across the ops of one script.
    pub actor_url: Option<Arc<str>>,
    /// Absolute wall-clock time (unix ms) for jar expiry/storage.
    pub now_ms: i64,
    /// Visit-relative time recorded on events.
    pub time_ms: u64,
}

impl AccessContext {
    /// The actor's domain name (normalized form), when attributed.
    fn actor_name(&self) -> Option<String> {
        self.actor.map(|id| cg_url::name(id).to_string())
    }
}

/// One write-path request: what the script asked for, before policy.
#[derive(Debug, Clone, Copy)]
pub enum SetRequest<'r> {
    /// `document.cookie = raw` — the legacy string interface, with its
    /// expiry-in-the-past deletion idiom and attribute-change taxonomy.
    DocumentCookie {
        /// The raw cookie string as the script wrote it.
        raw: &'r str,
    },
    /// `cookieStore.set(name, value, expires)` — the structured API
    /// (spec defaults: `Path=/`, host-only domain).
    CookieStore {
        /// Cookie name.
        name: &'r str,
        /// Cookie value.
        value: &'r str,
        /// Absolute expiry (unix ms), None = session cookie.
        expires_abs_ms: Option<i64>,
    },
}

/// The structured result of one mediated mutation: what the policy
/// decided and what the jar did.
///
/// The instrument event goes to the sink and the mutation's record to
/// the jar's change log; `Outcome` copies neither. The access layer is
/// the only place that knows, e.g., that a blocked write still emits a
/// `blocked: true` [`SetEvent`], or that a `document.cookie` delete of
/// an absent cookie logs a delete event but reports `applied: false`.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The guard's ruling; `None` when no guard is attached or the
    /// operation never reached policy (e.g. an unparseable write).
    pub decision: Option<AccessDecision>,
    /// How the operation was classified (create / overwrite / delete).
    pub kind: WriteKind,
    /// Whether the jar was actually mutated (for deletes: whether a
    /// visible cookie was removed).
    pub applied: bool,
    /// The jar's storage-level rejection, if any (validation, prefix
    /// contracts, HttpOnly protection).
    pub error: Option<SetCookieError>,
}

impl Outcome {
    /// True when the guard blocked the operation.
    pub fn blocked(&self) -> bool {
        matches!(&self.decision, Some(d) if !d.is_allow())
    }

    fn unparseable() -> Outcome {
        Outcome {
            decision: None,
            kind: WriteKind::Create,
            applied: false,
            error: Some(SetCookieError::Unparseable),
        }
    }

    fn blocked_by(decision: AccessDecision, kind: WriteKind) -> Outcome {
        Outcome {
            decision: Some(decision),
            kind,
            applied: false,
            error: None,
        }
    }
}

/// The guarded cookie jar: the only sanctioned way to touch cookies.
///
/// Borrows the visit's jar, (optionally) its guard session, and an
/// event sink for the lifetime of one document; see the module docs for
/// the contract.
pub struct GuardedJar<'v> {
    jar: &'v mut CookieJar,
    guard: Option<&'v mut GuardSession>,
    sink: &'v mut dyn EventSink,
    url: Url,
    pin: ShardPin,
}

impl<'v> GuardedJar<'v> {
    /// Binds the access layer to `url`'s document. Resolves the host's
    /// jar shard once; every operation reuses it.
    pub fn new(
        url: Url,
        jar: &'v mut CookieJar,
        guard: Option<&'v mut GuardSession>,
        sink: &'v mut dyn EventSink,
    ) -> GuardedJar<'v> {
        let pin = ShardPin::for_host(&url.host_str());
        GuardedJar {
            jar,
            guard,
            sink,
            url,
            pin,
        }
    }

    /// The bound document URL.
    pub fn url(&self) -> &Url {
        &self.url
    }

    /// Whether a guard session is attached (false = vanilla crawl).
    pub fn is_guarded(&self) -> bool {
        self.guard.is_some()
    }

    /// The event sink, for non-cookie events (requests, DOM, probes,
    /// inclusions) that share the same instrumentation stream.
    pub fn sink(&mut self) -> &mut dyn EventSink {
        self.sink
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// The `document.cookie` getter: the post-guard view serialized as
    /// `"a=1; b=2"`, logged as one `DocumentCookie` read.
    pub fn document_cookie(&mut self, ctx: &AccessContext) -> String {
        self.read(ctx, CookieApi::DocumentCookie, |view| join_pairs(view))
    }

    /// `cookieStore.getAll()`: the post-guard `(name, value)` pairs,
    /// logged as one `CookieStore` read.
    pub fn get_all(&mut self, ctx: &AccessContext) -> Vec<(String, String)> {
        self.read(ctx, CookieApi::CookieStore, owned_pairs)
    }

    /// `cookieStore.get(name)`: the value, if present and visible.
    /// Logged as a CookieStore read of at most one pair.
    pub fn get(&mut self, ctx: &AccessContext, name: &str) -> Option<String> {
        let (view, filtered) = visible(
            self.jar,
            &self.pin,
            &self.url,
            self.guard.as_deref_mut(),
            ctx,
        );
        let found = view
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value.clone());
        // At most one pair and at most one withheld cookie are logged.
        self.sink.cookie_read(ReadEvent {
            actor: ctx.actor_name(),
            api: CookieApi::CookieStore,
            cookies: found
                .iter()
                .map(|v| (name.to_string(), v.clone()))
                .collect(),
            filtered_count: filtered.min(1),
            time_ms: ctx.time_ms,
        });
        found
    }

    /// A full post-guard read on `api`: renders the caller's result from
    /// the borrowed view and logs the read event, whose pairs are the
    /// only cookie data copied.
    fn read<R>(
        &mut self,
        ctx: &AccessContext,
        api: CookieApi,
        render: impl FnOnce(&[&Cookie]) -> R,
    ) -> R {
        let (view, filtered) = visible(
            self.jar,
            &self.pin,
            &self.url,
            self.guard.as_deref_mut(),
            ctx,
        );
        let result = render(&view);
        self.sink.cookie_read(ReadEvent {
            actor: ctx.actor_name(),
            api,
            cookies: owned_pairs(&view),
            filtered_count: filtered,
            time_ms: ctx.time_ms,
        });
        result
    }

    /// Non-mutating visibility check (CookieStore `change`-event
    /// filtering): may `caller` observe cookie `name`? Guard-less jars
    /// answer yes.
    pub fn may_observe(&self, caller: &Caller, name: &str) -> bool {
        match self.guard.as_deref() {
            Some(g) => g.may_observe(caller, name),
            None => true,
        }
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// A script write through either API: classifies it (create /
    /// overwrite / delete-by-expiry), consults the guard, applies it to
    /// the jar, and emits the write event.
    pub fn set(&mut self, ctx: &AccessContext, req: SetRequest<'_>) -> Outcome {
        match req {
            SetRequest::DocumentCookie { raw } => self.set_document_cookie(ctx, raw),
            SetRequest::CookieStore {
                name,
                value,
                expires_abs_ms,
            } => self.set_cookie_store(ctx, name, value, expires_abs_ms),
        }
    }

    fn set_document_cookie(&mut self, ctx: &AccessContext, raw: &str) -> Outcome {
        let Some(sc) = parse_set_cookie(raw) else {
            return Outcome::unparseable();
        };
        let now = ctx.now_ms;

        // Classify the write like the measurement does: a write whose
        // expiry is already in the past is a deletion; a write to an
        // existing name is an overwrite. The prior is the same-name
        // cookie the document view lists first: the first minimum under
        // the view's order (`min_by` keeps the first of equals, as the
        // view's stable sort does), found in one pass without the view.
        let prior = self
            .jar
            .document_cookies_pinned(&self.pin, &self.url, now)
            .filter(|c| c.name == sc.name)
            .min_by(|a, b| serialization_order(a, b));
        let expires_abs = match (sc.max_age_s, sc.expires_ms) {
            (Some(ma), _) => Some(now + ma * 1000),
            (None, Some(e)) => Some(e),
            (None, None) => None,
        };
        let is_delete = matches!(expires_abs, Some(e) if e <= now);
        // The lifetime the write *requested*, relative seconds — what
        // the detection pipeline reads as persistence.
        let max_age_s = expires_abs.map(|e| (e - now) / 1000);
        let kind = if is_delete {
            WriteKind::Delete
        } else if prior.is_some() {
            WriteKind::Overwrite
        } else {
            WriteKind::Create
        };
        // Attribute-change taxonomy (§5.5), overwrites only; logged only
        // if the write is allowed.
        let changes = prior
            .filter(|_| kind == WriteKind::Overwrite)
            .map(|p| AttrChangeFlags {
                value: p.value != sc.value,
                expires: p.expires_ms != expires_abs,
                domain: sc.domain.as_deref().is_some_and(|d| d != p.domain) && !p.host_only
                    || (p.host_only && sc.domain.is_some()),
                path: sc.path.as_deref().is_some_and(|pt| pt != p.path),
            });

        // Policy.
        let mut decision = None;
        if let Some(g) = self.guard.as_deref_mut() {
            let d = if is_delete {
                g.authorize_delete(&ctx.caller, &sc.name)
            } else {
                g.authorize_write(&ctx.caller, &sc.name)
            };
            if !d.is_allow() {
                self.emit_set(
                    ctx,
                    &sc.name,
                    &sc.value,
                    CookieApi::DocumentCookie,
                    kind,
                    max_age_s,
                    None,
                    true,
                );
                return Outcome::blocked_by(d, kind);
            }
            decision = Some(d);
        }

        // Storage.
        let (applied, error) = if is_delete {
            (
                self.jar.delete_pinned(&self.pin, &sc.name, &self.url, now),
                None,
            )
        } else {
            match self
                .jar
                .set_parsed_document_cookie_pinned(&self.pin, &sc, &self.url, now)
            {
                Ok(_) => (true, None),
                Err(e) => (false, Some(e)),
            }
        };

        // Event: deletions are logged even when nothing matched (the
        // script's intent is observable either way).
        if applied || is_delete {
            self.emit_set(
                ctx,
                &sc.name,
                &sc.value,
                CookieApi::DocumentCookie,
                kind,
                max_age_s,
                changes,
                false,
            );
        }

        Outcome {
            decision,
            kind,
            applied,
            error,
        }
    }

    fn set_cookie_store(
        &mut self,
        ctx: &AccessContext,
        name: &str,
        value: &str,
        expires_abs_ms: Option<i64>,
    ) -> Outcome {
        let now = ctx.now_ms;
        let prior_exists = self
            .jar
            .document_cookies_pinned(&self.pin, &self.url, now)
            .any(|c| c.name == name);
        let kind = if prior_exists {
            WriteKind::Overwrite
        } else {
            WriteKind::Create
        };
        let max_age_s = expires_abs_ms.map(|e| (e - now) / 1000);

        let mut decision = None;
        if let Some(g) = self.guard.as_deref_mut() {
            let d = g.authorize_write(&ctx.caller, name);
            if !d.is_allow() {
                self.emit_set(
                    ctx,
                    name,
                    value,
                    CookieApi::CookieStore,
                    kind,
                    max_age_s,
                    None,
                    true,
                );
                return Outcome::blocked_by(d, kind);
            }
            decision = Some(d);
        }

        // CookieStore defaults Path=/ (spec), domain host-only.
        let mut raw = format!("{name}={value}; Path=/");
        if let Some(e) = expires_abs_ms {
            raw.push_str(&format!("; Expires=@{e}"));
        }
        let (applied, error) = match self
            .jar
            .set_document_cookie_pinned(&self.pin, &raw, &self.url, now)
        {
            Ok(_) => (true, None),
            Err(e) => (false, Some(e)),
        };
        if applied {
            self.emit_set(
                ctx,
                name,
                value,
                CookieApi::CookieStore,
                kind,
                max_age_s,
                None,
                false,
            );
        }
        Outcome {
            decision,
            kind,
            applied,
            error,
        }
    }

    /// `cookieStore.delete(name)`: consults the guard, expires the
    /// cookie, and logs the delete.
    pub fn delete(&mut self, ctx: &AccessContext, name: &str) -> Outcome {
        let mut decision = None;
        if let Some(g) = self.guard.as_deref_mut() {
            let d = g.authorize_delete(&ctx.caller, name);
            if !d.is_allow() {
                self.emit_set(
                    ctx,
                    name,
                    "",
                    CookieApi::CookieStore,
                    WriteKind::Delete,
                    None,
                    None,
                    true,
                );
                return Outcome::blocked_by(d, WriteKind::Delete);
            }
            decision = Some(d);
        }
        let applied = self
            .jar
            .delete_pinned(&self.pin, name, &self.url, ctx.now_ms);
        if applied {
            self.emit_set(
                ctx,
                name,
                "",
                CookieApi::CookieStore,
                WriteKind::Delete,
                None,
                None,
                false,
            );
        }
        Outcome {
            decision,
            kind: WriteKind::Delete,
            applied,
            error: None,
        }
    }

    /// Applies a response's `Set-Cookie` headers (the
    /// `webRequest.onHeadersReceived` path). `response_domain` is the
    /// responding server's eTLD+1 — it becomes the cookies' recorded
    /// creator and the event actor. HttpOnly cookies store and are
    /// attributed, but emit no event: the measurement extension cannot
    /// see them (§4.1). Unparseable and rejected headers are skipped.
    pub fn apply_set_cookie_headers(
        &mut self,
        response_domain: &str,
        raw_headers: &[String],
        now_ms: i64,
    ) {
        for sc in raw_headers.iter().filter_map(|raw| parse_set_cookie(raw)) {
            if self
                .jar
                .set_from_header_pinned(&self.pin, &sc, &self.url, now_ms)
                .is_err()
            {
                continue;
            }
            if let Some(g) = self.guard.as_deref_mut() {
                g.record_http_set_cookie(&sc.name, response_domain);
            }
            // The extension only sees non-HttpOnly values (§4.1).
            if !sc.http_only {
                self.sink.cookie_set(SetEvent {
                    name: sc.name,
                    value: sc.value,
                    actor: Some(response_domain.to_string()),
                    actor_url: None,
                    api: CookieApi::HttpHeader,
                    kind: WriteKind::Create,
                    max_age_s: match (sc.max_age_s, sc.expires_ms) {
                        (Some(ma), _) => Some(ma),
                        (None, Some(e)) => Some((e - now_ms) / 1000),
                        (None, None) => None,
                    },
                    changes: None,
                    blocked: false,
                    time_ms: 0,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Non-mediated passthroughs
    // ------------------------------------------------------------------

    /// The `Cookie:` header for a subresource request — the network
    /// channel. CookieGuard mediates *script* access; the browser still
    /// attaches every matching cookie (HttpOnly included, SameSite
    /// permitting) to requests, which is exactly the server-side
    /// collection channel §5.7 measures. Read-only on the jar.
    pub fn cookie_header_for_subresource(
        &self,
        dest: &Url,
        top_level_site: &str,
        now_ms: i64,
    ) -> String {
        self.jar
            .cookie_header_for_subresource(dest, top_level_site, now_ms)
    }

    /// Jar change-log cursor (CookieStore `change` events). Read-only.
    pub fn change_count(&self) -> usize {
        self.jar.change_count()
    }

    /// Jar change records since `cursor`. Read-only.
    pub fn changes_since(&self, cursor: usize) -> &[CookieChange] {
        self.jar.changes_since(cursor)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Builds and emits one write event.
    #[allow(clippy::too_many_arguments)]
    fn emit_set(
        &mut self,
        ctx: &AccessContext,
        name: &str,
        value: &str,
        api: CookieApi,
        kind: WriteKind,
        max_age_s: Option<i64>,
        changes: Option<AttrChangeFlags>,
        blocked: bool,
    ) {
        self.sink.cookie_set(SetEvent {
            name: name.to_string(),
            value: value.to_string(),
            actor: ctx.actor_name(),
            actor_url: ctx.actor_url.as_deref().map(str::to_string),
            api,
            kind,
            max_age_s,
            changes,
            blocked,
            time_ms: ctx.time_ms,
        });
    }
}

/// The post-guard view for `ctx` — borrowed from the jar, in
/// serialization order — and the withheld count. A free function over
/// the `GuardedJar` fields it needs, so the view can stay borrowed from
/// the jar while the sink takes the read event.
fn visible<'j>(
    jar: &'j CookieJar,
    pin: &ShardPin,
    url: &Url,
    guard: Option<&mut GuardSession>,
    ctx: &AccessContext,
) -> (Vec<&'j Cookie>, usize) {
    let view = jar.document_view_pinned(pin, url, ctx.now_ms);
    match guard {
        Some(g) => {
            let before = view.len();
            let view = g.filter_read(&ctx.caller, view);
            let filtered = before - view.len();
            (view, filtered)
        }
        None => (view, 0),
    }
}

/// Owned `(name, value)` copies of a view: a read event's payload.
fn owned_pairs(view: &[&Cookie]) -> Vec<(String, String)> {
    view.iter()
        .map(|c| (c.name.clone(), c.value.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GuardConfig;
    use crate::engine::GuardEngine;
    use cg_cookiejar::ChangeCause;
    use cg_instrument::Recorder;

    fn ctx_for(domain: Option<&str>, now_ms: i64, time_ms: u64) -> AccessContext {
        AccessContext {
            caller: match domain {
                Some(d) => Caller::external(d),
                None => Caller::inline(),
            },
            actor: domain.map(cg_url::intern),
            actor_url: domain.map(|d| Arc::from(format!("https://{d}/s.js").as_str())),
            now_ms,
            time_ms,
        }
    }

    fn url() -> Url {
        Url::parse("https://www.shop.example/").unwrap()
    }

    fn session() -> GuardSession {
        GuardEngine::shared(GuardConfig::strict()).session("shop.example")
    }

    /// The causes on the jar's change log, with the cookie names.
    fn causes(jar: &CookieJar) -> Vec<(&str, ChangeCause)> {
        jar.changes()
            .iter()
            .map(|ch| (ch.name.as_str(), ch.cause))
            .collect()
    }

    #[test]
    fn set_read_delete_round_trip_with_events() {
        let mut jar = CookieJar::new();
        let mut guard = session();
        let mut rec = Recorder::new("shop.example", 1);
        let mut access = GuardedJar::new(url(), &mut jar, Some(&mut guard), &mut rec);

        let t = ctx_for(Some("tracker.io"), 1_000, 10);
        let out = access.set(&t, SetRequest::DocumentCookie { raw: "_tid=abc" });
        assert!(out.applied && !out.blocked());
        assert_eq!(out.kind, WriteKind::Create);
        assert!(out.decision.unwrap().is_allow());

        // The creator reads its cookie back; a stranger sees nothing.
        assert_eq!(access.document_cookie(&t), "_tid=abc");
        let s = ctx_for(Some("other.net"), 2_000, 20);
        assert_eq!(access.get_all(&s), Vec::new());

        // The stranger cannot delete it; the creator can.
        assert!(access.delete(&s, "_tid").blocked());
        let del = access.delete(&t, "_tid");
        assert!(del.applied && !del.blocked());
        assert_eq!(del.kind, WriteKind::Delete);

        let log = rec.finish();
        assert_eq!(log.sets.len(), 3); // create + blocked delete + delete
        assert_eq!(log.sets[0].name, "_tid");
        assert_eq!(log.sets[0].kind, WriteKind::Create);
        assert_eq!(log.reads.len(), 2);
        assert_eq!(log.reads[0].cookies, vec![("_tid".into(), "abc".into())]);
        assert_eq!(log.reads[1].api, CookieApi::CookieStore);
        assert_eq!(log.reads[1].filtered_count, 1);
        assert!(log.sets[1].blocked);
        assert_eq!(guard.stats().deletes_blocked, 1);
        // The blocked delete left no record on the change log.
        assert_eq!(
            causes(&jar),
            vec![
                ("_tid", ChangeCause::Created),
                ("_tid", ChangeCause::Deleted)
            ]
        );
    }

    #[test]
    fn eviction_follows_the_created_record_in_the_change_log() {
        // Fill the domain to its 180-cookie cap; the next create also
        // evicts the oldest cookie. The change log records the written
        // cookie's creation first, then the knock-on eviction.
        let mut jar = CookieJar::new();
        let mut rec = Recorder::new("shop.example", 1);
        let mut access = GuardedJar::new(url(), &mut jar, None, &mut rec);
        let c = ctx_for(Some("shop.example"), 1_000, 1);
        for i in 0..180 {
            let raw = format!("c{i}=v");
            assert!(
                access
                    .set(&c, SetRequest::DocumentCookie { raw: &raw })
                    .applied
            );
        }
        let mark = access.change_count();
        let out = access.set(&c, SetRequest::DocumentCookie { raw: "straw=1" });
        assert!(out.applied);
        let after: Vec<_> = access
            .changes_since(mark)
            .iter()
            .map(|ch| (ch.name.as_str(), ch.cause))
            .collect();
        assert_eq!(
            after,
            vec![
                ("straw", ChangeCause::Created),
                ("c0", ChangeCause::Evicted)
            ]
        );
    }

    #[test]
    fn guard_less_jar_mediates_storage_only() {
        let mut jar = CookieJar::new();
        let mut rec = Recorder::new("shop.example", 1);
        let mut access = GuardedJar::new(url(), &mut jar, None, &mut rec);
        let a = ctx_for(Some("a.com"), 0, 0);
        let b = ctx_for(Some("b.com"), 1, 1);
        assert!(
            access
                .set(&a, SetRequest::DocumentCookie { raw: "x=1" })
                .applied
        );
        // No guard: everyone sees everything, decision is None.
        let out = access.set(&b, SetRequest::DocumentCookie { raw: "x=2" });
        assert!(out.applied && out.decision.is_none());
        assert_eq!(out.kind, WriteKind::Overwrite);
        assert_eq!(access.document_cookie(&b), "x=2");
        assert_eq!(
            causes(&jar),
            vec![("x", ChangeCause::Created), ("x", ChangeCause::Replaced)]
        );
    }

    #[test]
    fn cookie_store_set_is_root_pathed_host_only_and_expiring() {
        // A nested document: `document.cookie` would default to `/a`.
        let page = Url::parse("https://www.shop.example/a/b").unwrap();
        let mut jar = CookieJar::new();
        let mut rec = Recorder::new("shop.example", 1);
        let mut access = GuardedJar::new(page, &mut jar, None, &mut rec);
        let c = ctx_for(Some("shop.example"), 0, 0);
        let req = SetRequest::CookieStore {
            name: "keep_alive",
            value: "tab1:1",
            expires_abs_ms: Some(60_000),
        };
        assert!(access.set(&c, req).applied);
        assert_eq!(access.get(&c, "keep_alive").as_deref(), Some("tab1:1"));
        assert_eq!(access.get(&c, "nope"), None);
        {
            let stored = jar.iter().next().unwrap();
            assert_eq!(stored.path, "/");
            assert!(stored.host_only);
            assert_eq!(stored.expires_ms, Some(60_000));
        }
        let mut access = GuardedJar::new(url(), &mut jar, None, &mut rec);
        assert!(access.delete(&c, "keep_alive").applied);
        assert_eq!(access.get(&c, "keep_alive"), None);
    }

    #[test]
    fn storage_rejections_surface_in_outcome() {
        let mut jar = CookieJar::new();
        let mut rec = Recorder::new("shop.example", 1);
        let mut access = GuardedJar::new(url(), &mut jar, None, &mut rec);
        let c = ctx_for(Some("a.com"), 0, 0);
        let out = access.set(
            &c,
            SetRequest::DocumentCookie {
                raw: "x=1; Domain=unrelated.example",
            },
        );
        assert!(!out.applied);
        assert_eq!(out.error, Some(SetCookieError::DomainMismatch));
        let out = access.set(&c, SetRequest::DocumentCookie { raw: "" });
        assert_eq!(out.error, Some(SetCookieError::Unparseable));
        // Neither write was logged or recorded.
        assert!(rec.finish().sets.is_empty());
        assert_eq!(jar.change_count(), 0);
    }

    #[test]
    fn http_headers_attribute_and_log_like_the_extension() {
        let mut jar = CookieJar::new();
        let mut guard = session();
        let mut rec = Recorder::new("shop.example", 1);
        let mut access = GuardedJar::new(url(), &mut jar, Some(&mut guard), &mut rec);
        access.apply_set_cookie_headers(
            "shop.example",
            &[
                "sid=s3cr3t; Path=/; HttpOnly".to_string(),
                "prefs=dark".to_string(),
                String::new(),
            ],
            0,
        );
        // Both parseable headers store; the empty one is skipped.
        assert_eq!(jar.len(), 2);
        assert_eq!(guard.metadata().creator("sid"), Some("shop.example"));
        assert_eq!(guard.metadata().creator("prefs"), Some("shop.example"));
        // Only the non-HttpOnly cookie is visible to the extension.
        let log = rec.finish();
        assert_eq!(log.sets.len(), 1);
        assert_eq!(log.sets[0].name, "prefs");
        assert_eq!(log.sets[0].api, CookieApi::HttpHeader);
    }

    #[test]
    fn document_cookie_expiry_in_past_is_delete() {
        let mut jar = CookieJar::new();
        let mut guard = session();
        let mut rec = Recorder::new("shop.example", 1);
        let mut access = GuardedJar::new(url(), &mut jar, Some(&mut guard), &mut rec);
        let t = ctx_for(Some("tracker.io"), 100_000, 1);
        access.set(&t, SetRequest::DocumentCookie { raw: "_tid=x" });
        let out = access.set(
            &t,
            SetRequest::DocumentCookie {
                raw: "_tid=; Max-Age=-1",
            },
        );
        assert_eq!(out.kind, WriteKind::Delete);
        assert!(out.applied);
        // Deleting an absent cookie still logs the intent…
        let out = access.set(
            &t,
            SetRequest::DocumentCookie {
                raw: "_tid=; Max-Age=-1",
            },
        );
        assert!(!out.applied, "nothing left to remove");
        let log = rec.finish();
        assert_eq!(log.sets.len(), 3, "…but the event is still emitted");
        assert_eq!(log.sets[2].kind, WriteKind::Delete);
    }
}
