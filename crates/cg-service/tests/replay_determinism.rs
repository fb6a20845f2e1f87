//! End-to-end replayer tests against a real crawl store: the
//! deterministic-counters contract across worker counts and sources,
//! swap-under-load, and the zero-dropped-decisions drain proof.

use cg_browser::VisitConfig;
use cg_crawlstore::crawl_to_store;
use cg_service::{replay, GuardService, Pacing, ReplayOptions, ReplaySource, SwapPoint, TenantId};
use cookieguard_core::GuardConfig;
use std::path::PathBuf;

const SITES: usize = 120;

fn build_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cg-service-replay-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gen = cg_webgen::WebGenerator::new(cg_webgen::GenConfig::small(SITES), 0x5E11CE);
    crawl_to_store(&dir, &gen, &VisitConfig::regular(), 1, SITES, 4, |_| {})
        .expect("build replay store");
    dir
}

fn two_tenant_service() -> (GuardService, TenantId, TenantId) {
    let mut svc = GuardService::new();
    let strict = svc.register("strict", GuardConfig::strict());
    let grouped = svc.register(
        "entity-grouped",
        GuardConfig::strict().with_entity_grouping(cg_entity::builtin_entity_map()),
    );
    (svc, strict, grouped)
}

#[test]
fn counters_are_identical_across_worker_counts_and_sources() {
    let dir = build_store("det");
    let mut baseline = None;
    for (workers, source) in [
        (1, ReplaySource::Resident),
        (4, ReplaySource::Resident),
        (1, ReplaySource::Stream),
        (3, ReplaySource::Stream),
    ] {
        let (svc, _, _) = two_tenant_service();
        let report = replay(
            &svc,
            &dir,
            &ReplayOptions {
                workers,
                passes: 2,
                source,
                ..ReplayOptions::default()
            },
        )
        .expect("replay");
        assert_eq!(report.counters.visits, (SITES * 2) as u64);
        assert!(
            report.counters.drained(),
            "dropped decisions at {workers} workers"
        );
        assert_eq!(report.undrained_epochs, 0);
        assert_eq!(report.timing.latency.count, report.counters.decisions);
        match &baseline {
            None => baseline = Some(report.counters),
            Some(first) => assert_eq!(
                &report.counters, first,
                "counters diverged at {workers} workers ({source:?})"
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn swaps_under_load_drop_nothing_and_leave_counters_deterministic() {
    let dir = build_store("swap");
    let (plain_svc, _, _) = two_tenant_service();
    let plain = replay(
        &plain_svc,
        &dir,
        &ReplayOptions {
            workers: 4,
            passes: 2,
            ..ReplayOptions::default()
        },
    )
    .expect("plain replay");

    let (svc, strict, grouped) = two_tenant_service();
    let swapped = replay(
        &svc,
        &dir,
        &ReplayOptions {
            workers: 4,
            passes: 2,
            swaps: vec![
                SwapPoint {
                    after_visits: 40,
                    tenant: strict,
                    config: GuardConfig::strict().with_whitelisted("cdn.probe"),
                },
                SwapPoint {
                    after_visits: 120,
                    tenant: grouped,
                    config: GuardConfig::relaxed(),
                },
            ],
            ..ReplayOptions::default()
        },
    )
    .expect("swapped replay");

    // Both mid-run swaps fired, gaplessly per tenant.
    assert_eq!(swapped.swaps.len(), 2);
    for swap in &swapped.swaps {
        assert_eq!(swap.to_epoch, swap.from_epoch + 1);
    }
    // Op totals are a pure function of the workload — swap timing and
    // the allow/block split may differ, the counters may not.
    assert_eq!(swapped.counters, plain.counters);
    assert!(swapped.counters.drained());
    // Zero dropped in-flight sessions, and every retired engine freed.
    assert_eq!(swapped.undrained_epochs, 0);
    // Sessions really did straddle epochs on the swapped tenants.
    let epochs: u64 = swapped
        .outcomes
        .sessions_by_epoch
        .iter()
        .map(|e| e.sessions)
        .sum();
    assert_eq!(epochs, swapped.counters.sessions_opened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn open_loop_pacing_completes_with_the_same_counters() {
    let dir = build_store("pace");
    let (svc, _, _) = two_tenant_service();
    let closed = replay(&svc, &dir, &ReplayOptions::default()).expect("closed");
    let (svc2, _, _) = two_tenant_service();
    let open = replay(
        &svc2,
        &dir,
        &ReplayOptions {
            workers: 2,
            pacing: Pacing::Open {
                visits_per_sec: 1e6, // fast enough not to slow the test
            },
            ..ReplayOptions::default()
        },
    )
    .expect("open");
    assert_eq!(open.counters, closed.counters);
    assert!(open.counters.drained());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn both_sources_refuse_a_retired_jsonl_store() {
    // A store whose manifest names the retired JSONL segment format.
    let dir = build_store("jsonl");
    let manifest = dir.join(cg_crawlstore::MANIFEST_FILE);
    let text = std::fs::read_to_string(&manifest).unwrap();
    std::fs::write(
        &manifest,
        text.replace("\"format\": \"binary\"", "\"format\": \"jsonl\""),
    )
    .unwrap();
    let (svc, _, _) = two_tenant_service();
    for source in [ReplaySource::Resident, ReplaySource::Stream] {
        let err = replay(
            &svc,
            &dir,
            &ReplayOptions {
                source,
                ..ReplayOptions::default()
            },
        )
        .expect_err("a JSONL store must be refused");
        assert!(
            err.to_string().contains("retired JSONL"),
            "unexpected error: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
