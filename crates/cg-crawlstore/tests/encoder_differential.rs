//! The direct record encoder against the generic reference: for every
//! input, `encode_visit_log(log)` must emit exactly the bytes of
//! `encode_content(&log.to_content())` — on every record of a real
//! crawl (regular and guarded) and on hand-built logs that reach the
//! encoding's corners (empty and non-ASCII strings, every `Option` both
//! ways, extreme integers).

use cg_browser::{crawl_range, VisitConfig};
use cg_crawlstore::codec::{decode_visit_log, encode_content, encode_visit_log};
use cg_http::RequestKind;
use cg_instrument::{
    AttrChangeFlags, CookieApi, DomEvent, ProbeEvent, ReadEvent, RequestEvent, ScriptInclusion,
    SetEvent, VisitLog, WriteKind,
};
use cg_webgen::{GenConfig, WebGenerator};
use cookieguard_core::GuardConfig;
use serde::Serialize;

fn assert_encodes_like_reference(log: &VisitLog) {
    let mut reference = Vec::new();
    encode_content(&log.to_content(), &mut reference);
    // Appends, like the reference: a non-empty buffer keeps its prefix.
    let mut direct = vec![0xAB];
    encode_visit_log(log, &mut direct);
    assert_eq!(direct[0], 0xAB, "encoder must append, not clear");
    assert!(
        direct[1..] == reference[..],
        "rank {}: direct encoding differs from encode_content(to_content())",
        log.rank
    );
}

#[test]
fn encoder_matches_reference_on_crawl_records() {
    let sites = 60;
    let gen = WebGenerator::new(GenConfig::small(sites), 0xC00C1E);
    let mut records = 0usize;
    for cfg in [
        VisitConfig::regular(),
        VisitConfig::guarded(GuardConfig::strict()),
    ] {
        let (outcomes, _) = crawl_range(&gen, &cfg, 1, sites, 2);
        for outcome in &outcomes {
            assert_encodes_like_reference(&outcome.log);
            records += 1;
        }
        assert!(
            outcomes.iter().any(|o| !o.log.reads.is_empty()),
            "want event-rich records"
        );
    }
    assert_eq!(records, 2 * sites);
}

/// A log in which every optional field is `Some` (`all_some`) or `None`,
/// with empty and non-ASCII strings and extreme integers.
fn edge_log(all_some: bool) -> VisitLog {
    let opt = |s: &str| all_some.then(|| s.to_string());
    let set = |max_age_s: Option<i64>, changes: Option<AttrChangeFlags>| SetEvent {
        name: if all_some {
            "_ga\u{00e9}".into()
        } else {
            String::new()
        },
        value: "\u{1F36A}=\u{00fc}; ;".into(),
        actor: opt("tr\u{00e4}cker.example"),
        actor_url: opt("https://t.example/\u{65e5}.js"),
        api: CookieApi::DocumentCookie,
        kind: WriteKind::Overwrite,
        max_age_s,
        changes,
        blocked: all_some,
        time_ms: u64::MAX,
    };
    let flags = AttrChangeFlags {
        value: true,
        expires: false,
        domain: true,
        path: false,
    };
    VisitLog {
        site_domain: if all_some {
            "s\u{00ef}te.example".into()
        } else {
            String::new()
        },
        rank: usize::MAX,
        complete: all_some,
        sets: vec![
            set(Some(i64::MIN), Some(flags)),
            set(Some(-1), Some(AttrChangeFlags::default())),
            set(Some(i64::MAX), None),
            set(Some(0), None),
            set(all_some.then_some(-31_536_000), None),
            SetEvent {
                api: CookieApi::CookieStore,
                kind: WriteKind::Create,
                ..set(None, None)
            },
            SetEvent {
                api: CookieApi::HttpHeader,
                kind: WriteKind::Delete,
                time_ms: 0,
                ..set(None, None)
            },
        ],
        reads: vec![
            ReadEvent {
                actor: opt("\u{00e5}.example"),
                api: CookieApi::DocumentCookie,
                cookies: vec![
                    (String::new(), String::new()),
                    ("n\u{00f8}".into(), "v\u{2603}".into()),
                ],
                filtered_count: usize::MAX,
                time_ms: u64::MAX,
            },
            ReadEvent {
                actor: None,
                api: CookieApi::CookieStore,
                cookies: Vec::new(),
                filtered_count: 0,
                time_ms: 0,
            },
        ],
        requests: [
            RequestKind::Document,
            RequestKind::Script,
            RequestKind::Image,
            RequestKind::Xhr,
            RequestKind::Beacon,
            RequestKind::Subframe,
            RequestKind::Other,
        ]
        .into_iter()
        .map(|kind| RequestEvent {
            url: "https://px.example/?id=\u{00df}".into(),
            dest_domain: opt("px.example"),
            kind,
            initiator: opt("t.example"),
            initiator_url: opt(""),
            first_party: String::new(),
            cookie_header: opt("a=1; \u{00e9}=2"),
            time_ms: u64::MAX,
        })
        .collect(),
        probes: vec![ProbeEvent {
            feature: "sso".into(),
            cookie: String::new(),
            ok: all_some,
            actor: opt("idp.example"),
        }],
        dom_events: vec![DomEvent {
            actor: opt("\u{00e6}.example"),
            owner: String::new(),
            kind: "Style".into(),
            blocked: !all_some,
        }],
        inclusions: vec![ScriptInclusion {
            url: "<inline>".into(),
            domain: opt(""),
            direct: all_some,
        }],
    }
}

#[test]
fn encoder_matches_reference_on_edge_case_logs() {
    for all_some in [false, true] {
        let log = edge_log(all_some);
        assert_encodes_like_reference(&log);
        // The direct encoding also decodes back to the same log.
        let mut payload = Vec::new();
        encode_visit_log(&log, &mut payload);
        let back = decode_visit_log(&payload).expect("decodes");
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&log).unwrap()
        );
    }
    assert_encodes_like_reference(&VisitLog::default());
}
