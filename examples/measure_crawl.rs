//! A miniature version of the paper's §4–§5 pipeline: generate a small
//! synthetic web, crawl it with the instrumented browser, and print the
//! Table 1-style cross-domain statistics.
//!
//! Run with:
//! `cargo run --release --example measure_crawl [SITES] [--store DIR]
//! [--threads N] [--stream] [--telemetry]`
//!
//! With `--store DIR` the crawl writes through the durable segmented
//! crawl store: kill it mid-run and rerun the same command — it resumes
//! from the checkpoint, finishes only the missing ranks, and the
//! analysis replays the store through zero-copy mmap'd chunk windows
//! instead of holding the crawl in memory. Store runs print write/replay
//! throughput and peak RSS next to the segment/byte stats;
//! `cg-experiments dump DIR` prints the store as JSON lines.
//!
//! `--stream` (requires `--store`) replaces the retained [`Dataset`]
//! analysis with the bounded-memory streaming fold
//! ([`StreamStats`](cookieguard_repro::analysis::StreamStats)): one
//! chunk-granular parallel pass over the segments, peak RSS independent
//! of crawl size. This is the mode that takes a million-visit store —
//! the retained path would hold every `VisitLog` in memory.
//!
//! `--telemetry` prints the runtime telemetry snapshot (JSON and
//! Prometheus text) after the run: visit/store/fold counters from the
//! always-on `cg-telemetry` registry. The snapshot's `workload` section
//! is a pure function of the work; the `runtime` section
//! (fsync batches, shard counts) is marked `deterministic: false`.

use cookieguard_repro::analysis::{
    api_usage, cross_domain_summary, detect_exfiltration, detect_manipulation, prevalence_stats,
    Dataset,
};
use cookieguard_repro::browser::{crawl_range, VisitConfig};
use cookieguard_repro::crawlstore::crawl_to_store;
use cookieguard_repro::webgen::{GenConfig, WebGenerator};

const MASTER_SEED: u64 = 0xC00C1E;

/// Peak RSS from `/proc/self/status` `VmHWM`, in bytes (Linux only).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .strip_prefix("VmHWM:")?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Prints the global telemetry registry both ways a consumer would
/// scrape it: the stable JSON snapshot and the Prometheus text form.
fn print_telemetry() {
    let reg = cookieguard_repro::telemetry::global();
    println!("\n-- telemetry snapshot (JSON) --");
    println!("{}", cookieguard_repro::telemetry::snapshot_json(reg));
    println!("\n-- telemetry snapshot (Prometheus) --");
    print!("{}", cookieguard_repro::telemetry::prometheus_text(reg));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sites: usize = 600;
    let mut store_dir: Option<std::path::PathBuf> = None;
    let mut threads: usize = 4;
    let mut stream = false;
    let mut telemetry = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stream" => stream = true,
            "--telemetry" => telemetry = true,
            "--threads" => {
                i += 1;
                threads = match args.get(i).and_then(|t| t.parse().ok()) {
                    Some(t) => t,
                    None => {
                        eprintln!("--threads requires a number");
                        std::process::exit(2);
                    }
                };
            }
            "--store" => {
                i += 1;
                match args.get(i) {
                    Some(d) => store_dir = Some(d.into()),
                    None => {
                        eprintln!("--store requires a directory");
                        std::process::exit(2);
                    }
                }
            }
            other => match other.parse() {
                Ok(n) => sites = n,
                Err(_) => {
                    eprintln!(
                        "usage: measure_crawl [SITES] [--store DIR] \
                         [--threads N] [--stream] [--telemetry]"
                    );
                    std::process::exit(2);
                }
            },
        }
        i += 1;
    }
    println!("crawling a {sites}-site synthetic web…");

    let gen = WebGenerator::new(GenConfig::small(sites), MASTER_SEED);
    let cfg = VisitConfig::regular();

    if stream && store_dir.is_none() {
        eprintln!("--stream requires --store DIR");
        std::process::exit(2);
    }

    let ds = match &store_dir {
        None => {
            let (outcomes, summary) = crawl_range(&gen, &cfg, 1, sites, threads);
            println!(
                "  visited {} sites, {} with complete data, {} failed",
                summary.visited, summary.complete, summary.failed
            );
            Dataset::from_logs(outcomes.into_iter().map(|o| o.log).collect())
        }
        Some(dir) => {
            let run = crawl_to_store(dir, &gen, &cfg, 1, sites, threads, |store| {
                let resumed = store.done_ranks().len();
                if resumed > 0 {
                    println!("  resuming: {resumed} ranks already durable in the store");
                }
            })
            .unwrap_or_else(|e| {
                eprintln!("crawl store {}: {e}", dir.display());
                std::process::exit(1);
            });
            println!(
                "  visited {} sites this run, {} with complete data, {} failed",
                run.summary.visited, run.summary.complete, run.summary.failed
            );
            println!(
                "  store: {} records across {} segments, {} bytes on disk",
                run.stats.records, run.stats.segments, run.stats.bytes
            );
            if run.summary.visited > 0 {
                println!(
                    "  write throughput: {:.0} visits/s ({})",
                    run.summary.visits_per_sec(),
                    cookieguard_repro::telemetry::render_ms(run.summary.elapsed_ms)
                );
            }
            if stream {
                // Bounded-memory path: chunk-granular parallel streaming
                // folds, nothing retained. The only mode that scales to a
                // million-visit store.
                let watch = cookieguard_repro::telemetry::Stopwatch::start();
                let stats = cookieguard_repro::analysis::StreamStats::from_store(dir, threads)
                    .unwrap_or_else(|e| {
                        eprintln!("streaming fold over the store failed: {e}");
                        std::process::exit(1);
                    });
                let fold_ms = watch.elapsed_ms();
                let s = stats.summary();
                println!(
                    "  streaming fold ({threads} threads): \
                     {:.0} visits/s, {:.1} MB/s ({}); peak RSS {:.1} MB",
                    cookieguard_repro::telemetry::per_sec(s.crawled, fold_ms),
                    cookieguard_repro::telemetry::per_sec(run.stats.bytes, fold_ms) / 1e6,
                    cookieguard_repro::telemetry::render_ms(fold_ms),
                    peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
                );
                // Machine-readable line for CI's fold-speedup anchor
                // (kept above the `-- streaming summary` marker so
                // between-run summary diffs never see wall times).
                println!("  fold_ms={fold_ms} threads={threads} visits={}", s.crawled);
                println!("\n-- streaming summary ({} visits) --", s.crawled);
                println!("  complete visits:         {}", s.complete);
                println!(
                    "  cookie writes:           {} ({} blocked)",
                    s.creates + s.overwrites + s.deletes,
                    s.blocked_sets
                );
                println!("  cookie reads:            {}", s.reads);
                println!("  requests:                {}", s.requests);
                println!("  3p-script sites:         {}", s.third_party_script_sites);
                println!(
                    "  document.cookie sites:   {} (~{} distinct pairs)",
                    s.doc_cookie_sites, s.doc_cookie_pairs
                );
                println!(
                    "  cookieStore sites:       {} (~{} distinct pairs)",
                    s.cookie_store_sites, s.cookie_store_pairs
                );
                println!(
                    "  cross-domain overwrites: {} events on {} sites",
                    s.cross_overwrite_events, s.cross_overwrite_sites
                );
                println!(
                    "  cross-domain deletes:    {} events on {} sites",
                    s.cross_delete_events, s.cross_delete_sites
                );
                if telemetry {
                    print_telemetry();
                }
                return;
            }
            let watch = cookieguard_repro::telemetry::Stopwatch::start();
            let ds = Dataset::from_store(dir, threads).unwrap_or_else(|e| {
                eprintln!("replaying crawl store failed: {e}");
                std::process::exit(1);
            });
            let replay_ms = watch.elapsed_ms();
            println!(
                "  replay throughput: {:.0} visits/s, {:.1} MB/s ({}); peak RSS {:.1} MB",
                cookieguard_repro::telemetry::per_sec(ds.crawled as u64, replay_ms),
                cookieguard_repro::telemetry::per_sec(run.stats.bytes, replay_ms) / 1e6,
                cookieguard_repro::telemetry::render_ms(replay_ms),
                peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
            );
            ds
        }
    };

    let engine = cookieguard_repro::analysis::build_filter_engine(gen.registry());
    let entities = cookieguard_repro::entity::builtin_entity_map();

    let prevalence = prevalence_stats(&ds, &engine);
    println!("\n-- §5.1 prevalence --");
    println!(
        "  sites with ≥1 third-party script: {:.1}%",
        prevalence.sites_with_third_party_pct
    );
    println!(
        "  avg distinct 3p scripts/site:     {:.1}",
        prevalence.avg_third_party_scripts
    );
    println!(
        "  ad/tracking share:                {:.1}%",
        prevalence.ad_tracking_share_pct
    );

    let usage = api_usage(&ds);
    println!("\n-- §5.2 API usage --");
    println!(
        "  document.cookie on {:.1}% of sites ({} unique pairs)",
        usage.doc_cookie_sites_pct, usage.doc_cookie_pairs
    );
    println!(
        "  cookieStore on {:.1}% of sites ({} pairs)",
        usage.cookie_store_sites_pct, usage.cookie_store_pairs
    );

    let exfil = detect_exfiltration(&ds, &entities);
    let manip = detect_manipulation(&ds, &entities);
    let t1 = cross_domain_summary(&ds, &exfil, &manip);
    println!("\n-- Table 1 (document.cookie) --");
    println!(
        "  exfiltration on {:.1}% of sites ({:.1}% of pairs)",
        t1.doc_exfiltration.sites_pct, t1.doc_exfiltration.cookies_pct
    );
    println!(
        "  overwriting  on {:.1}% of sites ({:.1}% of pairs)",
        t1.doc_overwriting.sites_pct, t1.doc_overwriting.cookies_pct
    );
    println!(
        "  deleting     on {:.1}% of sites ({:.1}% of pairs)",
        t1.doc_deleting.sites_pct, t1.doc_deleting.cookies_pct
    );

    println!("\n-- top 5 exfiltrated cookies (Table 2 shape) --");
    for row in exfil.table2(5) {
        println!(
            "  {:<22} set by {:<22} {:>4} exfiltrator entities, {:>4} destination entities",
            row.cookie, row.owner, row.exfiltrator_entities, row.destination_entities
        );
    }

    if telemetry {
        print_telemetry();
    }
}
