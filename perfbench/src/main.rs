//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload crawl|analyze|serve|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root. Each workload derives its inputs
//! from `--seed`, measures for about `--seconds`, checks its outputs,
//! and prints every metric by name and unit. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced run with `--trace 1`. Any output mismatch makes
//! the exit code non-zero. Temporary stores and a full result file (with
//! the host block) go to `perfbench/.work/`.

mod analyze;
mod crawl;
mod host;
mod layers;
mod loadgen;
mod report;
mod serve;
mod stats;
mod store;
mod trace;

use report::{int, obj, render, text, Outcome, Value};
use std::path::PathBuf;

/// What every workload runs with.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Work directory for stores and result files.
    pub work: PathBuf,
}

const WORKLOADS: [&str; 3] = ["crawl", "analyze", "serve"];

const USAGE: &str =
    "usage: perfbench --workload crawl|analyze|serve|all --seed N --seconds S --trace 0|1";

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(parse_u64(&value).ok_or("--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = match workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w => vec![*WORKLOADS
            .iter()
            .find(|&&n| n == w)
            .ok_or_else(|| format!("unknown workload {w}"))?],
    };
    Ok(Args {
        workloads,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn describe(workload: &str) -> Vec<(String, Value)> {
    match workload {
        "crawl" => crawl::describe(),
        "analyze" => analyze::describe(),
        _ => serve::describe(),
    }
}

fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match workload {
        "crawl" => crawl::run(ctx),
        "analyze" => analyze::run(ctx),
        _ => serve::run(ctx),
    }
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: PathBuf::from("perfbench/.work"),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work.display());
        std::process::exit(1);
    }
    let host = host::host_block(
        std::path::Path::new("."),
        args.seed,
        args.workloads
            .iter()
            .map(|w| (w.to_string(), obj(describe(w))))
            .collect(),
    );
    println!("host {}", render(&host));

    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for &workload in &args.workloads {
        eprintln!(
            "perfbench: running {workload} (seed {}, trace {})",
            ctx.seed, ctx.trace
        );
        let outcome = match run(workload, &ctx) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {workload} failed: {e}");
                remove_stores(&ctx.work);
                std::process::exit(1);
            }
        };
        remove_stores(&ctx.work);
        print_outcome(workload, &outcome);
        let file = ctx.work.join(format!(
            "result-{workload}-seed{}-trace{}.json",
            ctx.seed,
            u8::from(ctx.trace)
        ));
        let full = obj([
            ("workload", text(workload)),
            ("host", host.clone()),
            ("correct", Value::Bool(outcome.correct())),
            ("attempted", int(outcome.attempted)),
            ("failed", int(outcome.failed())),
            ("facts", obj(outcome.facts.clone())),
            ("metrics", outcome.metrics_json()),
        ]);
        if let Err(e) = std::fs::write(&file, render(&full) + "\n") {
            eprintln!("perfbench: cannot write {}: {e}", file.display());
        }
        correct &= outcome.correct();
        attempted += outcome.attempted;
        failed += outcome.failed();
        let prefix = if args.workloads.len() > 1 {
            format!("{workload}.")
        } else {
            String::new()
        };
        for m in &outcome.metrics {
            metrics.push((format!("{prefix}{}", m.name), m.json()));
        }
    }
    let result = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", int(attempted)),
        ("failed", int(failed)),
        ("metrics", obj(metrics)),
    ]);
    println!("{}", render(&result));
    if !correct {
        std::process::exit(1);
    }
}

/// Deletes the stores a workload left in `work` (the result files stay).
fn remove_stores(work: &std::path::Path) {
    for entry in std::fs::read_dir(work).into_iter().flatten().flatten() {
        if entry.file_type().is_ok_and(|t| t.is_dir()) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

fn print_outcome(workload: &str, o: &Outcome) {
    println!("== {workload} ==");
    for (k, v) in &o.facts {
        println!("fact {k} = {}", render(v));
    }
    for c in &o.checks {
        if c.ok {
            println!("check ok: {}", c.name);
        } else {
            println!("check MISMATCH: {} ({})", c.name, c.detail);
        }
    }
    println!(
        "failed_op_ratio = {} failed/attempted ({} of {})",
        o.failed() as f64 / o.attempted.max(1) as f64,
        o.failed(),
        o.attempted
    );
    for m in &o.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve --seed 0xC00C1E --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workloads, vec!["serve"]);
        assert_eq!(a.seed, 0xC00C1E);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert_eq!(
            args("--workload all --seed 3").unwrap().workloads,
            WORKLOADS
        );
        assert!(args("--workload nope --seed 3").is_err());
        assert!(args("--workload crawl").is_err());
        assert!(args("--workload crawl --seed 3 --trace 2").is_err());
        assert!(args("--workload crawl --seed 3 --seconds 0").is_err());
    }
}
