//! Guard as a service, end to end: build a small binary crawl store,
//! stand up a two-tenant [`GuardService`], replay the store through it
//! while hot-swapping both tenants' policies mid-run, and print the
//! serving numbers — sustained decisions/s, session rates, swap cost,
//! and decision-latency tails.
//!
//! Run with:
//! `cargo run --release --example guard_service [SITES] [--workers N]
//! [--passes P]`
//!
//! Watch the `sessions by (tenant, epoch)` block: sessions opened
//! before a swap finished on the old epoch's engine, sessions opened
//! after it on the new one — and the replay still reports zero dropped
//! decisions and every retired engine freed, because in-flight sessions
//! pin their engine until close and nothing on the decision path takes
//! a lock.
//!
//! [`GuardService`]: cookieguard_repro::service::GuardService

use cookieguard_repro::browser::VisitConfig;
use cookieguard_repro::cookieguard::GuardConfig;
use cookieguard_repro::crawlstore::crawl_to_store;
use cookieguard_repro::entity::builtin_entity_map;
use cookieguard_repro::service::{replay, GuardService, ReplayOptions, SwapPoint};
use cookieguard_repro::webgen::{GenConfig, WebGenerator};

const MASTER_SEED: u64 = 0x5EC00C1E;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sites: usize = 2_000;
    let mut workers: usize = 4;
    let mut passes: u32 = 2;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => {
                i += 1;
                workers = args[i].parse().expect("--workers N");
            }
            "--passes" => {
                i += 1;
                passes = args[i].parse().expect("--passes P");
            }
            n => {
                sites = n
                    .parse()
                    .expect("usage: guard_service [SITES] [--workers N] [--passes P]")
            }
        }
        i += 1;
    }

    // 1. A crawl store to draw traffic from.
    let dir = std::env::temp_dir().join(format!("guard-service-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    println!("building {sites}-visit crawl store…");
    let gen = WebGenerator::new(GenConfig::small(sites), MASTER_SEED);
    crawl_to_store(
        &dir,
        &gen,
        &VisitConfig::regular(),
        1,
        sites,
        workers,
        |_| {},
    )
    .expect("build store");

    // 2. Two tenants: the paper's strict policy and the entity-grouped
    //    refinement — one process, two independently evolving policies.
    let mut svc = GuardService::new();
    let strict = svc.register("strict", GuardConfig::strict());
    let grouped = svc.register(
        "entity-grouped",
        GuardConfig::strict().with_entity_grouping(builtin_entity_map()),
    );

    // 3. Replay with two mid-run hot-swaps racing the workers.
    let total = sites as u64 * passes as u64;
    println!("replaying ×{passes} through 2 tenants at {workers} workers, swapping mid-run…");
    let report = replay(
        &svc,
        &dir,
        &ReplayOptions {
            workers,
            passes,
            swaps: vec![
                SwapPoint {
                    after_visits: total / 4,
                    tenant: strict,
                    config: GuardConfig::strict().with_whitelisted("cdn.swap-probe"),
                },
                SwapPoint {
                    after_visits: total / 2,
                    tenant: grouped,
                    config: GuardConfig::relaxed(),
                },
            ],
            ..ReplayOptions::default()
        },
    )
    .expect("replay");
    let _ = std::fs::remove_dir_all(&dir);

    // 4. The serving numbers.
    let c = &report.counters;
    let t = &report.timing;
    println!("\n-- throughput --");
    println!(
        "  {} visits, {} decisions in {} ms",
        c.visits, c.decisions, t.wall_ms
    );
    println!(
        "  {:>9.0} decisions/s   {:>8.0} sessions/s",
        t.decisions_per_sec, t.session_opens_per_sec
    );
    println!(
        "  latency p50 {} ns   p99 {} ns   p999 {} ns   max {} ns",
        t.latency.p50_ns, t.latency.p99_ns, t.latency.p999_ns, t.latency.max_ns
    );

    println!("\n-- hot swaps --");
    for s in &report.swaps {
        println!(
            "  epoch {} → {}: compiled in {:.1} µs, installed in {:.1} µs",
            s.from_epoch,
            s.to_epoch,
            s.compile_ns as f64 / 1e3,
            s.install_ns as f64 / 1e3
        );
    }

    println!("\n-- sessions by (tenant, epoch) --");
    for e in &report.outcomes.sessions_by_epoch {
        let name = if e.tenant == strict.index() as u64 {
            "strict"
        } else {
            "entity-grouped"
        };
        println!(
            "  {:>14} epoch {}: {:>7} sessions",
            name, e.epoch, e.sessions
        );
    }

    println!("\n-- drain proof --");
    assert!(c.drained(), "dropped decisions!");
    assert_eq!(report.undrained_epochs, 0, "retired engines leaked!");
    println!(
        "  sessions opened = closed = {}; decisions issued = executed = {}",
        c.sessions_opened, c.decisions
    );
    println!("  all retired engines freed (weak-ref probe): ok");
}
