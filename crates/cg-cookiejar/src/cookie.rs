//! A stored cookie: the unit the jar persists.

use cg_http::{SameSite, SetCookie};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// A cookie as stored by the user agent (RFC 6265 §5.3 storage model).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cookie {
    /// Cookie name.
    pub name: String,
    /// Cookie value.
    pub value: String,
    /// The cookie's domain, lowercased, no leading dot. For host-only
    /// cookies this is the exact request host.
    pub domain: String,
    /// True when no `Domain` attribute was supplied: the cookie only
    /// matches the exact host that set it.
    pub host_only: bool,
    /// The cookie's path.
    pub path: String,
    /// Absolute expiry in unix-epoch ms; `None` means a session cookie.
    pub expires_ms: Option<i64>,
    /// `Secure`: only sent/visible on https.
    pub secure: bool,
    /// `HttpOnly`: invisible to `document.cookie` and `CookieStore`.
    pub http_only: bool,
    /// `SameSite` attribute, if any.
    pub same_site: Option<SameSite>,
    /// When the cookie was created (unix ms) — used for serialization
    /// ordering and eviction.
    pub created_at_ms: i64,
}

impl Cookie {
    /// Materializes a stored cookie from a parsed `Set-Cookie`, the
    /// request/document host and default path, at time `now_ms`.
    ///
    /// `Max-Age` takes precedence over `Expires` (RFC 6265 §5.3 step 3).
    pub fn from_set_cookie(sc: &SetCookie, host: &str, default_path: &str, now_ms: i64) -> Cookie {
        let (domain, host_only) = match &sc.domain {
            Some(d) => (d.clone(), false),
            None => (host.to_ascii_lowercase(), true),
        };
        let expires_ms = match (sc.max_age_s, sc.expires_ms) {
            (Some(ma), _) => Some(now_ms.saturating_add(ma.saturating_mul(1000))),
            (None, Some(e)) => Some(e),
            (None, None) => None,
        };
        Cookie {
            name: sc.name.clone(),
            value: sc.value.clone(),
            domain,
            host_only,
            path: sc.path.clone().unwrap_or_else(|| default_path.to_string()),
            expires_ms,
            secure: sc.secure,
            http_only: sc.http_only,
            same_site: sc.same_site,
            created_at_ms: now_ms,
        }
    }

    /// True when the cookie is expired at `now_ms`.
    pub fn is_expired(&self, now_ms: i64) -> bool {
        matches!(self.expires_ms, Some(e) if e <= now_ms)
    }

    /// RFC 6265 path-matching (§5.1.4).
    pub fn path_matches(&self, request_path: &str) -> bool {
        let cp = self.path.as_str();
        if request_path == cp {
            return true;
        }
        if request_path.starts_with(cp) {
            return cp.ends_with('/') || request_path.as_bytes().get(cp.len()) == Some(&b'/');
        }
        false
    }

    /// RFC 6265 domain-matching against a request host (§5.1.3), taking
    /// host-only cookies into account.
    pub fn domain_matches(&self, request_host: &str) -> bool {
        if self.host_only {
            request_host.eq_ignore_ascii_case(&self.domain)
        } else {
            cg_url::host::domain_match(request_host, &self.domain)
        }
    }

    /// The `name=value` form used in `Cookie:` headers and
    /// `document.cookie`.
    pub fn pair(&self) -> String {
        let mut out = String::with_capacity(self.pair_len());
        self.write_pair(&mut out);
        out
    }

    /// Appends the [`Cookie::pair`] form to `out`.
    fn write_pair(&self, out: &mut String) {
        if !self.name.is_empty() {
            out.push_str(&self.name);
            out.push('=');
        }
        out.push_str(&self.value);
    }

    /// Byte length of the [`Cookie::pair`] form.
    fn pair_len(&self) -> usize {
        match self.name.len() {
            0 => self.value.len(),
            n => n + 1 + self.value.len(),
        }
    }
}

/// Serializes cookies, in the given order, as `document.cookie` /
/// `Cookie:` header text (`"a=1; b=2"`), written into one exactly-sized
/// buffer.
pub fn join_pairs<C: Borrow<Cookie>>(cookies: &[C]) -> String {
    let len = cookies
        .iter()
        .map(|c| c.borrow().pair_len() + 2)
        .sum::<usize>()
        .saturating_sub(2);
    let mut out = String::with_capacity(len);
    for (i, c) in cookies.iter().enumerate() {
        if i > 0 {
            out.push_str("; ");
        }
        c.borrow().write_pair(&mut out);
    }
    out
}

/// The default path for a URL per RFC 6265 §5.1.4: the request path up to
/// (but not including) its last `/`, or `/` when that would be empty.
pub fn default_path(url_path: &str) -> String {
    if !url_path.starts_with('/') {
        return "/".to_string();
    }
    match url_path.rfind('/') {
        Some(0) | None => "/".to_string(),
        Some(i) => url_path[..i].to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc(raw: &str) -> SetCookie {
        cg_http::parse_set_cookie(raw).unwrap()
    }

    #[test]
    fn host_only_when_no_domain_attr() {
        let c = Cookie::from_set_cookie(&sc("a=1"), "www.example.com", "/", 0);
        assert!(c.host_only);
        assert!(c.domain_matches("www.example.com"));
        assert!(!c.domain_matches("example.com"));
        assert!(!c.domain_matches("sub.www.example.com"));
    }

    #[test]
    fn domain_cookie_matches_subdomains() {
        let c = Cookie::from_set_cookie(&sc("a=1; Domain=example.com"), "www.example.com", "/", 0);
        assert!(!c.host_only);
        assert!(c.domain_matches("example.com"));
        assert!(c.domain_matches("deep.sub.example.com"));
        assert!(!c.domain_matches("notexample.com"));
    }

    #[test]
    fn max_age_beats_expires() {
        let c = Cookie::from_set_cookie(
            &sc("a=1; Max-Age=60; Expires=@99999999"),
            "h.com",
            "/",
            1000,
        );
        assert_eq!(c.expires_ms, Some(61_000));
    }

    #[test]
    fn expiry_check() {
        let c = Cookie::from_set_cookie(&sc("a=1; Max-Age=10"), "h.com", "/", 0);
        assert!(!c.is_expired(9_999));
        assert!(c.is_expired(10_000));
        let session = Cookie::from_set_cookie(&sc("b=2"), "h.com", "/", 0);
        assert!(!session.is_expired(i64::MAX));
    }

    #[test]
    fn path_matching_rfc6265() {
        let mut c = Cookie::from_set_cookie(&sc("a=1; Path=/docs"), "h.com", "/", 0);
        assert!(c.path_matches("/docs"));
        assert!(c.path_matches("/docs/web"));
        assert!(!c.path_matches("/doc"));
        assert!(!c.path_matches("/docsx"));
        c.path = "/".into();
        assert!(c.path_matches("/anything"));
    }

    #[test]
    fn default_path_rules() {
        assert_eq!(default_path("/a/b/c"), "/a/b");
        assert_eq!(default_path("/a"), "/");
        assert_eq!(default_path("/"), "/");
        assert_eq!(default_path(""), "/");
    }

    #[test]
    fn pair_formats() {
        let c = Cookie::from_set_cookie(&sc("k=v"), "h.com", "/", 0);
        assert_eq!(c.pair(), "k=v");
        let nameless = Cookie::from_set_cookie(&sc("justvalue"), "h.com", "/", 0);
        assert_eq!(nameless.pair(), "justvalue");
    }
}
