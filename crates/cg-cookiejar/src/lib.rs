//! The browser cookie jar: RFC 6265 storage semantics, the
//! `document.cookie` string grammar, and the change log that feeds
//! `CookieStore` `change` events.
//!
//! Scripts never reach the jar directly. Both interfaces the paper
//! instruments — `document.cookie` and the structured `CookieStore`
//! API — go through `cookieguard_core::GuardedJar`, which runs the
//! policy check and emits the instrument event around every jar call.
//! The jar's own mutating methods are storage-level entry points for
//! fixtures, baselines and that access layer.
//!
//! Design notes:
//!
//! * The jar models exactly what a real user agent stores: one cookie per
//!   (domain, path, name), host-only vs domain cookies, expiry, `Secure`,
//!   `HttpOnly`, and `SameSite`. It does **not** track which script created
//!   a cookie — that is precisely the gap the paper identifies (§2.3: the
//!   browser cannot distinguish genuine first-party cookies from
//!   ghost-written ones). Creator attribution lives in the instrumentation
//!   layer (`cg-instrument`) and in CookieGuard's metadata store
//!   (`cookieguard-core`), mirroring the paper's architecture.
//! * Time is injected (`now_ms`) rather than read from a clock, so every
//!   simulation is deterministic and property tests can travel in time.
//!
//! **Layer:** storage. **Invariants:** RFC 6265 semantics; shard by
//! eTLD+1 (every read/delete/evict touches one bucket); iteration
//! order and serde wire format identical to the historical flat jar
//! (`FlatJar` remains as the equivalence oracle). **Entry points:**
//! `CookieJar`, `ShardPin`.

#![warn(missing_docs)]

pub mod changes;
pub mod cookie;
pub mod flat;
pub mod jar;

pub use changes::{ChangeCause, CookieChange};
pub use cookie::{join_pairs, Cookie};
pub use flat::FlatJar;
pub use jar::{serialization_order, CookieJar, SetCookieError, ShardPin};

#[cfg(test)]
mod proptests {
    use super::*;
    use cg_url::Url;
    use proptest::prelude::*;

    fn name_strategy() -> impl Strategy<Value = String> {
        "[a-zA-Z_][a-zA-Z0-9_]{0,14}"
    }

    fn value_strategy() -> impl Strategy<Value = String> {
        "[a-zA-Z0-9._-]{0,24}"
    }

    proptest! {
        /// Setting a cookie via document.cookie then reading the document
        /// cookie string always surfaces the pair (round-trip invariant).
        #[test]
        fn set_then_get_round_trips(name in name_strategy(), value in value_strategy()) {
            let url = Url::parse("https://www.example.com/").unwrap();
            let mut jar = CookieJar::new();
            let pair = format!("{}={}", name, value);
            jar.set_document_cookie(&pair, &url, 0).unwrap();
            let s = jar.document_cookie(&url, 0);
            prop_assert!(s.contains(&pair));
        }

        /// Setting the same name twice keeps exactly one cookie (uniqueness
        /// invariant on (domain, path, name)).
        #[test]
        fn same_name_overwrites(name in name_strategy(), v1 in value_strategy(), v2 in value_strategy()) {
            let url = Url::parse("https://www.example.com/").unwrap();
            let mut jar = CookieJar::new();
            jar.set_document_cookie(&format!("{name}={v1}"), &url, 0).unwrap();
            jar.set_document_cookie(&format!("{name}={v2}"), &url, 1).unwrap();
            let matching = jar.cookies_for_document(&url, 2);
            let count = matching.iter().filter(|c| c.name == name).count();
            prop_assert_eq!(count, 1);
            prop_assert_eq!(&matching.iter().find(|c| c.name == name).unwrap().value, &v2);
        }

        /// The document-cookie serialization grammar always re-parses:
        /// splitting on "; " yields name=value chunks.
        #[test]
        fn serialization_reparses(names in proptest::collection::vec(name_strategy(), 1..6)) {
            let url = Url::parse("https://www.example.com/").unwrap();
            let mut jar = CookieJar::new();
            for (i, n) in names.iter().enumerate() {
                jar.set_document_cookie(&format!("{n}=v{i}"), &url, i as i64).unwrap();
            }
            let s = jar.document_cookie(&url, 100);
            for chunk in s.split("; ").filter(|c| !c.is_empty()) {
                prop_assert!(chunk.contains('='), "chunk {:?} lacks '='", chunk);
            }
        }

        /// Expired cookies never appear, regardless of how the expiry was
        /// expressed (expiry monotonicity invariant).
        #[test]
        fn expired_cookies_invisible(age in 1i64..100_000) {
            let url = Url::parse("https://www.example.com/").unwrap();
            let mut jar = CookieJar::new();
            jar.set_document_cookie(&format!("temp=1; Max-Age={age}"), &url, 0).unwrap();
            prop_assert!(jar.document_cookie(&url, age * 1000 - 1).contains("temp=1"));
            prop_assert!(!jar.document_cookie(&url, age * 1000 + 1).contains("temp=1"));
        }

        /// A cross-site subresource `Cookie:` header only ever carries
        /// `SameSite=None; Secure` cookies, whatever mix was stored
        /// (RFC 6265bis attachment invariant).
        #[test]
        fn cross_site_header_carries_only_samesite_none(
            entries in proptest::collection::vec(
                (name_strategy(), prop::sample::select(vec!["", "; SameSite=Lax", "; SameSite=Strict", "; SameSite=None; Secure", "; SameSite=None"])),
                1..10,
            )
        ) {
            let url = Url::parse("https://thirdparty.example/px").unwrap();
            let mut jar = CookieJar::new();
            for (i, (name, suffix)) in entries.iter().enumerate() {
                let raw = format!("{name}=v{suffix}");
                if let Some(sc) = cg_http::parse_set_cookie(&raw) {
                    let _ = jar.set_from_header(&sc, &url, i as i64);
                }
            }
            let header = jar.cookie_header_for_subresource(&url, "toplevel.example", 1_000);
            for pair in header.split("; ").filter(|c| !c.is_empty()) {
                let name = pair.split('=').next().unwrap();
                let stored = jar.iter().find(|c| c.name == name).unwrap();
                prop_assert_eq!(stored.same_site, Some(cg_http::SameSite::None));
                prop_assert!(stored.secure);
            }
            // Same-site requests attach every stored cookie.
            let same = jar.cookie_header_for_subresource(&url, "thirdparty.example", 1_000);
            let attached = same.split("; ").filter(|c| !c.is_empty()).count();
            prop_assert_eq!(attached, jar.len());
        }

        /// Prefix contract: whatever the attribute mix, a stored
        /// `__Host-` cookie is always Secure, host-only, and rooted at
        /// `/` — invalid combinations are rejected atomically (no
        /// partial state, no change-log entry).
        #[test]
        fn host_prefix_storage_invariant(
            secure in prop::bool::ANY,
            rooted in prop::bool::ANY,
            with_domain in prop::bool::ANY,
        ) {
            let url = Url::parse("https://www.example.com/").unwrap();
            let mut raw = String::from("__Host-id=1");
            if secure { raw.push_str("; Secure"); }
            if rooted { raw.push_str("; Path=/"); }
            if with_domain { raw.push_str("; Domain=example.com"); }
            let mut jar = CookieJar::new();
            let result = jar.set_document_cookie(&raw, &url, 0);
            let should_store = secure && rooted && !with_domain;
            prop_assert_eq!(result.is_ok(), should_store, "{}", raw);
            prop_assert_eq!(jar.len(), usize::from(should_store));
            prop_assert_eq!(jar.change_count(), usize::from(should_store));
            if let Ok(c) = result {
                prop_assert!(c.secure && c.host_only);
                prop_assert_eq!(c.path, "/");
            }
        }

        /// The change log is a complete account of the jar: replaying
        /// creations minus removals reproduces the live cookie count, and
        /// every successful mutation appends exactly one record.
        #[test]
        fn change_log_accounts_for_jar_state(
            ops in proptest::collection::vec((name_strategy(), value_strategy(), prop::bool::ANY), 1..40)
        ) {
            let url = Url::parse("https://www.example.com/").unwrap();
            let mut jar = CookieJar::new();
            for (i, (name, value, delete)) in ops.iter().enumerate() {
                let before = jar.change_count();
                if *delete {
                    let removed = jar.delete(name, &url, i as i64);
                    prop_assert_eq!(jar.change_count() - before, usize::from(removed));
                } else {
                    jar.set_document_cookie(&format!("{name}={value}"), &url, i as i64).unwrap();
                    prop_assert_eq!(jar.change_count() - before, 1);
                }
            }
            let net: i64 = jar
                .changes()
                .iter()
                .map(|c| match c.cause {
                    ChangeCause::Created => 1,
                    ChangeCause::Replaced => 0,
                    _ => -1,
                })
                .sum();
            prop_assert_eq!(net, jar.len() as i64);
        }
    }
}
