//! Golden digests of a small crawl: the byte-level oracle for any change
//! to the crawl's cookie path or record encoding.
//!
//! Every rank of `GenConfig::small(200)` at seed `0xC00C1E` is visited
//! exactly as the crawler visits it (same blueprint, same visit seed),
//! each with a fresh jar, under three configs. The SHA-1s cover the
//! visit logs' JSON, the final jars' JSON (cookies *and* change log),
//! and the guard counters. They were recorded before the borrowed
//! document view replaced the cloning one; a refactor of the jar, the
//! access layer or the recorder must leave all nine unchanged.

use cookieguard_repro::browser::{visit_site_with_jar, VisitConfig};
use cookieguard_repro::cookieguard::GuardConfig;
use cookieguard_repro::cookiejar::CookieJar;
use cookieguard_repro::entity::builtin_entity_map;
use cookieguard_repro::hash::sha1_hex;
use cookieguard_repro::webgen::{GenConfig, WebGenerator};

const SITES: usize = 200;

/// The crawler's per-rank visit seed derivation (`crawl_into`).
const VISIT_SEED_SALT: u64 = 0x51_7e;

struct Digests {
    logs: String,
    jars: String,
    stats: String,
}

fn crawl_digests(cfg: &VisitConfig) -> Digests {
    let gen = WebGenerator::new(GenConfig::small(SITES), 0xC00C1E);
    let (mut logs, mut jars, mut stats) = (String::new(), String::new(), String::new());
    for rank in 1..=SITES {
        let mut jar = CookieJar::new();
        let outcome = visit_site_with_jar(
            &gen.blueprint(rank),
            cfg,
            gen.site_seed(rank) ^ VISIT_SEED_SALT,
            &mut jar,
        );
        logs.push_str(&serde_json::to_string(&outcome.log).unwrap());
        logs.push('\n');
        jars.push_str(&serde_json::to_string(&jar).unwrap());
        jars.push('\n');
        stats.push_str(&serde_json::to_string(&outcome.guard_stats).unwrap());
        stats.push('\n');
    }
    Digests {
        logs: sha1_hex(logs.as_bytes()),
        jars: sha1_hex(jars.as_bytes()),
        stats: sha1_hex(stats.as_bytes()),
    }
}

fn assert_digests(label: &str, cfg: &VisitConfig, want: [&str; 3]) {
    let got = crawl_digests(cfg);
    assert_eq!(
        [got.logs.as_str(), got.jars.as_str(), got.stats.as_str()],
        want,
        "{label}: [logs, jars, guard stats] digests moved"
    );
}

#[test]
fn crawl_outputs_match_pinned_digests() {
    assert_digests(
        "regular",
        &VisitConfig::regular(),
        [
            "79afb47e5a06b7e66719ef252d4e9a25ef1b5831",
            "76e790aeb622c1c6d65cd55a79d26eb5f30e162d",
            "ce29e045150a006d1969d86855d49853b0e740e2",
        ],
    );
    assert_digests(
        "guarded strict",
        &VisitConfig::guarded(GuardConfig::strict()),
        [
            "b52067d5744978fc730bbd889e53f611ce3bb4bc",
            "899eec8e0fd64536ebff436bd44f2fa0155f9d6e",
            "9fa3337d3c70bf6dca708c7fc54ca2d1444191fc",
        ],
    );
    assert_digests(
        "guarded strict + builtin entity map",
        &VisitConfig::guarded(GuardConfig::strict().with_entity_grouping(builtin_entity_map())),
        [
            "d59ace9a01583f6131259323fadcc9ac94810027",
            "007ff739233c8f08cbe2788655f36397b524bb14",
            "4a39e2208a3a29c55da5bb4c835d259c80fbbcf9",
        ],
    );
}
