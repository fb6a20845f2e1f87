//! CLI entry point: regenerate the paper's tables and figures.
//!
//! ```text
//! cg-experiments --exp all --sites 20000 --threads 8 --seed 12648430
//! cg-experiments --exp table1,fig2
//! cg-experiments --exp table4 --sites 20000 --json out.json
//! cg-experiments dump crawl-dir > visits.jsonl
//! ```

use cg_experiments::{
    print_storebench, run_domguard, run_fig5, run_measurement_experiments, run_rollout, run_sec5_7,
    run_storebench, run_table3, run_table4_and_figs, CrawlContext, ExperimentOptions,
};

const MEASUREMENT_EXPERIMENTS: &[&str] = &[
    "crawl", "sec5_1", "sec5_2", "table1", "table2", "fig2", "sec5_5", "table5", "fig8", "sec5_6",
    "sec8_dom",
];
const EVALUATION_EXPERIMENTS: &[&str] = &[
    "fig5",
    "table3",
    "table4",
    "fig6",
    "fig7",
    "fig9",
    "fig10",
    "ablation",
    "sec5_7",
    "domguard",
    "rollout",
    "baselines",
    "csp",
    "storebench",
];

/// Parses a numeric option value, exiting with a clear message instead
/// of silently falling back to the default (a typo'd `--sites` must not
/// quietly launch a full-size crawl).
fn parse_numeric_arg<T: std::str::FromStr>(value: Option<&String>, flag: &str) -> T {
    match value {
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("{flag} requires a number, got {s:?}; see --help");
            std::process::exit(2);
        }),
        None => {
            eprintln!("{flag} requires a value; see --help");
            std::process::exit(2);
        }
    }
}

/// Parses and runs `cg-experiments scenarios [--seed S] [--threads T]
/// [--json PATH] [--golden PATH]` — the adversarial scenario catalog.
fn run_scenarios_cli(args: &[String]) -> ! {
    let mut opts = cg_experiments::ScenarioOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                opts.seed = parse_numeric_arg(args.get(i), "--seed");
            }
            "--threads" => {
                i += 1;
                opts.threads = parse_numeric_arg(args.get(i), "--threads");
            }
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(p) => opts.json = Some(std::path::PathBuf::from(p)),
                    None => {
                        eprintln!("--json requires a path; see --help");
                        std::process::exit(2);
                    }
                }
            }
            "--golden" => {
                i += 1;
                match args.get(i) {
                    Some(p) => opts.golden = Some(std::path::PathBuf::from(p)),
                    None => {
                        eprintln!("--golden requires a path; see --help");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("unknown scenarios argument {other:?}; see --help");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    match cg_experiments::run_scenarios(&opts) {
        Ok(_) => std::process::exit(0),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

/// Parses and runs `cg-experiments serve [--sites N] [--seed S]
/// [--passes P] [--workers LIST] [--store DIR] [--bench-json PATH]
/// [--telemetry-snapshot PATH] [--telemetry-dump PATH]` — the
/// multi-tenant guard-service benchmark/smoke.
fn run_serve_cli(args: &[String]) -> ! {
    let mut opts = cg_experiments::ServeOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sites" => {
                i += 1;
                opts.sites = parse_numeric_arg(args.get(i), "--sites");
            }
            "--seed" => {
                i += 1;
                opts.seed = parse_numeric_arg(args.get(i), "--seed");
            }
            "--passes" => {
                i += 1;
                opts.passes = parse_numeric_arg(args.get(i), "--passes");
            }
            "--workers" => {
                i += 1;
                opts.worker_counts = match args.get(i) {
                    Some(list) => list
                        .split(',')
                        .map(|w| {
                            w.parse().unwrap_or_else(|_| {
                                eprintln!("--workers takes a comma-separated list, got {list:?}");
                                std::process::exit(2);
                            })
                        })
                        .collect(),
                    None => {
                        eprintln!("--workers requires a list (e.g. 2,8); see --help");
                        std::process::exit(2);
                    }
                };
            }
            "--store" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => opts.store = Some(std::path::PathBuf::from(dir)),
                    None => {
                        eprintln!("--store requires a directory; see --help");
                        std::process::exit(2);
                    }
                }
            }
            "--bench-json" => {
                i += 1;
                match args.get(i) {
                    Some(path) => opts.bench_json = Some(std::path::PathBuf::from(path)),
                    None => {
                        eprintln!("--bench-json requires a path; see --help");
                        std::process::exit(2);
                    }
                }
            }
            "--telemetry-snapshot" => {
                i += 1;
                match args.get(i) {
                    Some(path) => opts.telemetry_snapshot = Some(std::path::PathBuf::from(path)),
                    None => {
                        eprintln!("--telemetry-snapshot requires a path; see --help");
                        std::process::exit(2);
                    }
                }
            }
            "--telemetry-dump" => {
                i += 1;
                match args.get(i) {
                    Some(path) => opts.telemetry_dump = Some(std::path::PathBuf::from(path)),
                    None => {
                        eprintln!("--telemetry-dump requires a path; see --help");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("unknown serve argument {other:?}; see --help");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let report = cg_experiments::run_serve(&opts);
    cg_experiments::print_serve(&report);
    if let Some(path) = &opts.bench_json {
        let json = serde_json::to_string_pretty(&serde_json::to_value(&report).expect("serialize"))
            .expect("serialize");
        match std::fs::write(path, json) {
            Ok(()) => println!("\nbench report written to {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    std::process::exit(0);
}

/// Parses and runs `cg-experiments detect [--sites N] [--seed S]
/// [--threads T] [--store DIR] [--bench-json PATH]
/// [--report-json PATH]` — the tracking-cookie detection smoke.
fn run_detect_cli(args: &[String]) -> ! {
    let mut opts = cg_experiments::DetectOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sites" => {
                i += 1;
                opts.sites = parse_numeric_arg(args.get(i), "--sites");
            }
            "--seed" => {
                i += 1;
                opts.seed = parse_numeric_arg(args.get(i), "--seed");
            }
            "--threads" => {
                i += 1;
                opts.threads = parse_numeric_arg(args.get(i), "--threads");
            }
            "--store" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => opts.store = Some(std::path::PathBuf::from(dir)),
                    None => {
                        eprintln!("--store requires a directory; see --help");
                        std::process::exit(2);
                    }
                }
            }
            "--bench-json" => {
                i += 1;
                match args.get(i) {
                    Some(path) => opts.bench_json = Some(std::path::PathBuf::from(path)),
                    None => {
                        eprintln!("--bench-json requires a path; see --help");
                        std::process::exit(2);
                    }
                }
            }
            "--report-json" => {
                i += 1;
                match args.get(i) {
                    Some(path) => opts.report_json = Some(std::path::PathBuf::from(path)),
                    None => {
                        eprintln!("--report-json requires a path; see --help");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("unknown detect argument {other:?}; see --help");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let report = cg_experiments::run_detect(&opts);
    if let Some(path) = &opts.bench_json {
        let json = serde_json::to_string_pretty(&serde_json::to_value(&report).expect("serialize"))
            .expect("serialize");
        match std::fs::write(path, json) {
            Ok(()) => println!("bench report written to {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    std::process::exit(0);
}

/// Runs `cg-experiments dump DIR`: prints the crawl store at DIR as one
/// compact JSON line per visit, rank-ordered — the readable form of its
/// binary segments (`CrawlReader::raw_lines`).
fn run_dump_cli(args: &[String]) -> ! {
    use std::io::Write;
    let [dir] = args else {
        eprintln!("dump takes one store directory; see --help");
        std::process::exit(2);
    };
    let result = cg_crawlstore::CrawlReader::open(dir)
        .map_err(std::io::Error::from)
        .and_then(|reader| {
            let mut out = std::io::BufWriter::new(std::io::stdout().lock());
            for line in reader.raw_lines() {
                writeln!(out, "{}", line?)?;
            }
            out.flush()
        });
    match result {
        Ok(()) => std::process::exit(0),
        // A closed pipe (`dump DIR | head`) is the reader's choice.
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("dump {dir}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("dump") {
        run_dump_cli(&args[2..]);
    }
    if args.get(1).map(String::as_str) == Some("scenarios") {
        run_scenarios_cli(&args[2..]);
    }
    if args.get(1).map(String::as_str) == Some("serve") {
        run_serve_cli(&args[2..]);
    }
    if args.get(1).map(String::as_str) == Some("detect") {
        run_detect_cli(&args[2..]);
    }
    let mut opts = ExperimentOptions::default();
    let mut exps: Vec<String> = vec!["all".to_string()];
    let mut json_path: Option<String> = None;
    let mut bench_json_path: Option<String> = None;

    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                i += 1;
                exps = args
                    .get(i)
                    .map(|s| s.split(',').map(str::to_string).collect())
                    .unwrap_or_default();
            }
            "--sites" => {
                i += 1;
                opts.sites = parse_numeric_arg(args.get(i), "--sites");
            }
            "--seed" => {
                i += 1;
                opts.seed = parse_numeric_arg(args.get(i), "--seed");
            }
            "--threads" => {
                i += 1;
                opts.threads = parse_numeric_arg(args.get(i), "--threads");
            }
            "--json" => {
                i += 1;
                json_path = args.get(i).cloned();
            }
            "--store" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => opts.store = Some(std::path::PathBuf::from(dir)),
                    None => {
                        eprintln!("--store requires a directory; see --help");
                        std::process::exit(2);
                    }
                }
            }
            "--fold-sites" => {
                i += 1;
                opts.fold_sites = Some(parse_numeric_arg(args.get(i), "--fold-sites"));
            }
            "--bench-json" => {
                i += 1;
                match args.get(i) {
                    Some(path) => bench_json_path = Some(path.clone()),
                    None => {
                        eprintln!("--bench-json requires a path; see --help");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                print_help();
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}; see --help");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let wanted: Vec<&str> = exps.iter().map(String::as_str).collect();
    let all = wanted.contains(&"all");
    let wants_measurement = all || wanted.iter().any(|e| MEASUREMENT_EXPERIMENTS.contains(e));
    let wants = |name: &str| all || wanted.contains(&name);

    for e in &wanted {
        if *e != "all"
            && !MEASUREMENT_EXPERIMENTS.contains(e)
            && !EVALUATION_EXPERIMENTS.contains(e)
        {
            eprintln!("unknown experiment {e:?}; see --help");
            std::process::exit(2);
        }
    }

    println!(
        "CookieGuard reproduction — sites={} seed={:#x} threads={}",
        opts.sites, opts.seed, opts.threads
    );

    let mut json = serde_json::Map::new();

    if wants_measurement {
        eprintln!(
            "[crawl] generating ecosystem and crawling {} sites…",
            opts.sites
        );
        let ctx = CrawlContext::collect(&opts);
        let results = run_measurement_experiments(&ctx, &wanted);
        let mut v = serde_json::to_value(&results).expect("serialize");
        // The per-event intent findings are bulky; store the summary only.
        if let Some(obj) = v.get_mut("intents").and_then(|i| i.as_object_mut()) {
            obj.remove("findings");
        }
        json.insert("measurement".into(), v);
    }

    if wants("fig5") {
        eprintln!("[fig5] paired guarded/unguarded crawl…");
        let r = run_fig5(&opts);
        json.insert("fig5".into(), serde_json::to_value(&r).expect("serialize"));
    }

    if wants("ablation") && !wanted.contains(&"all") {
        // Not part of --exp all (it is 5 extra crawls); run explicitly.
        eprintln!("[ablation] five policy-variant crawls…");
        let rows = cg_experiments::run_ablation(&opts);
        json.insert(
            "ablation".into(),
            serde_json::to_value(&rows).expect("serialize"),
        );
    }

    if wants("sec5_7") {
        eprintln!("[sec5_7] server-side tracking, paired crawl…");
        let r = run_sec5_7(&opts);
        json.insert(
            "sec5_7".into(),
            serde_json::to_value(&r).expect("serialize"),
        );
    }

    if wants("domguard") {
        eprintln!("[domguard] DOM-isolation evaluation, three crawls…");
        let r = run_domguard(&opts);
        json.insert(
            "domguard".into(),
            serde_json::to_value(&r).expect("serialize"),
        );
    }

    if wants("baselines") && !wanted.contains(&"all") {
        // Explicit-only: the matrix performs seven extra crawls.
        eprintln!("[baselines] defense matrix (blocklist, partitioning, ML, guard)…");
        let r = cg_experiments::run_baselines(&opts);
        json.insert(
            "baselines".into(),
            serde_json::to_value(&r).expect("serialize"),
        );
    }

    if wants("csp") && !wanted.contains(&"all") {
        // Explicit-only: four extra crawls.
        eprintln!("[csp] §2.1 CSP-gap experiment…");
        let r = cg_experiments::run_csp_gap_exp(&opts);
        json.insert("csp".into(), serde_json::to_value(&r).expect("serialize"));
    }

    if wants("rollout") && !wanted.contains(&"all") {
        // Not part of --exp all (several extra crawls); run explicitly.
        eprintln!("[rollout] deployment ladder + preset frontier…");
        let r = run_rollout(&opts);
        json.insert(
            "rollout".into(),
            serde_json::to_value(&r).expect("serialize"),
        );
    }

    if wants("table3") {
        eprintln!("[table3] breakage evaluation…");
        let r = run_table3(&opts);
        json.insert(
            "table3".into(),
            serde_json::to_value(&r).expect("serialize"),
        );
    }

    if wants("table4") || wants("fig6") || wants("fig7") || wants("fig9") || wants("fig10") {
        eprintln!("[perf] paired timing measurement…");
        let r = run_table4_and_figs(&opts, &wanted);
        // The raw pair list is large; store the summaries only.
        let mut v = serde_json::to_value(&r).expect("serialize");
        if let Some(obj) = v.get_mut("report").and_then(|r| r.as_object_mut()) {
            obj.remove("pairs");
        }
        json.insert("performance".into(), v);
    }

    if wants("storebench") && !wanted.contains(&"all") {
        // Explicit-only: an extra crawl plus timed replays/folds.
        eprintln!("[storebench] crawl-store throughput…");
        let r = run_storebench(&opts);
        print_storebench(&r);
        if let Some(path) = &bench_json_path {
            std::fs::write(
                path,
                serde_json::to_string_pretty(&serde_json::to_value(&r).expect("serialize"))
                    .expect("serialize"),
            )
            .unwrap_or_else(|e| eprintln!("failed to write {path}: {e}"));
            println!("\nbench report written to {path}");
        }
        json.insert(
            "storebench".into(),
            serde_json::to_value(&r).expect("serialize"),
        );
    }

    if let Some(path) = json_path {
        let out = serde_json::Value::Object(json);
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&out).expect("serialize"),
        )
        .unwrap_or_else(|e| eprintln!("failed to write {path}: {e}"));
        println!("\nresults written to {path}");
    }
}

fn print_help() {
    println!("cg-experiments — regenerate the CookieGuard paper's tables and figures");
    println!();
    println!(
        "USAGE: cg-experiments [--exp LIST] [--sites N] [--seed S] [--threads T] [--json PATH] \
         [--store DIR] [--fold-sites N] [--bench-json PATH]"
    );
    println!(
        "       cg-experiments scenarios [--seed S] [--threads T] [--json PATH] [--golden PATH]"
    );
    println!(
        "       cg-experiments serve [--sites N] [--seed S] [--passes P] [--workers LIST] \
         [--store DIR] [--bench-json PATH] [--telemetry-snapshot PATH] [--telemetry-dump PATH]"
    );
    println!(
        "       cg-experiments detect [--sites N] [--seed S] [--threads T] [--store DIR] \
         [--bench-json PATH] [--report-json PATH]"
    );
    println!("       cg-experiments dump DIR");
    println!();
    println!("The `scenarios` subcommand runs the adversarial scenario catalog");
    println!("(crate cg-scenarios) under vanilla + CookieGuard variants + baseline");
    println!("defenses and emits a deterministic matrix; --golden diffs the JSON");
    println!("against a checked-in file and exits 1 on mismatch.");
    println!();
    println!("The `serve` subcommand benchmarks the multi-tenant guard service");
    println!("(crate cg-service): it replays a binary crawl store through two");
    println!("policy tenants at each worker count in LIST (default 2,8), hot-swaps");
    println!("both tenants' policies mid-run, asserts zero dropped decisions and");
    println!("byte-identical counters across worker counts, and with --bench-json");
    println!("writes the machine-readable report (BENCH_service.json). It also");
    println!("measures the telemetry overhead (on vs off, ≤3% budget);");
    println!("--telemetry-snapshot writes the final registry snapshot as JSON");
    println!("plus a .prom Prometheus rendering, and --telemetry-dump writes");
    println!("the flight-recorder event dump.");
    println!();
    println!("The `detect` subcommand scores the first-party tracking-cookie");
    println!("detector (crate cg-detect) against generator ground truth on a");
    println!("fresh CNAME-resolving crawl written through a crawl store: it");
    println!("asserts streaming/resident reports byte-identical across thread");
    println!("counts and read paths, enforces the precision/recall floors");
    println!("(0.95/0.90, instance-weighted), prints the scoring table and the");
    println!("guard-vs-detector matrix, and with --bench-json writes the");
    println!("machine-readable report (BENCH_detect.json).");
    println!();
    println!("The `dump` subcommand prints the crawl store at DIR as one JSON");
    println!("line per visit, rank-ordered — the readable form of its binary");
    println!("segments.");
    println!();
    println!("Experiments (comma-separated, default 'all'):");
    println!("  measurement: {}", MEASUREMENT_EXPERIMENTS.join(", "));
    println!("  evaluation:  {}", EVALUATION_EXPERIMENTS.join(", "));
    println!();
    println!("--store DIR writes the measurement crawl through a durable,");
    println!("segmented on-disk store (checkpoint/resume: a killed crawl");
    println!("rerun with the same seed/sites finishes only the missing ranks),");
    println!("replayed through zero-copy mmap'd chunk windows.");
    println!();
    println!("--exp storebench benchmarks the store (write throughput, merged");
    println!("and chunked replay throughput, 1-vs-8-thread chunked fold wall");
    println!("time over a ≥10k-visit fold store");
    println!("(--fold-sites overrides), peak RSS) and with --bench-json PATH");
    println!("writes the machine-readable report (BENCH_crawlstore.json).");
}
