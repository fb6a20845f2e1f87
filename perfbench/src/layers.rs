//! The per-layer metrics of a traced run.
//!
//! Every workload reports every metric of [`LAYER_METRICS`]; a layer a
//! workload never calls reads 0, which is itself a finding (the
//! `serve` workload spends nothing in `cg-browser`).

use crate::report::{num, obj, Outcome};
use crate::stats::{median, Dist};
use crate::trace::{self, Trace};
use std::collections::BTreeMap;

/// Name and unit of every per-layer metric, grouped by crate.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    // cg-webgen
    ("webgen.blueprint_us_p50", "us"),
    ("webgen.blueprint_us_p99", "us"),
    ("webgen.blueprint_ms_sum", "ms"),
    // cg-browser (and the crates beneath it)
    ("browser.visit_us_p50", "us"),
    ("browser.visit_us_p99", "us"),
    ("browser.visit_ms_sum", "ms"),
    ("browser.cookie_ops_per_visit", "count"),
    ("browser.complete_ratio", "ratio"),
    // cg-crawlstore, write path
    ("crawlstore.record_us_p50", "us"),
    ("crawlstore.record_us_p99", "us"),
    ("crawlstore.record_ms_sum", "ms"),
    ("crawlstore.finish_ms", "ms"),
    ("crawlstore.bytes_per_visit", "B"),
    // cg-crawlstore, read path
    ("crawlstore.plan_ms", "ms"),
    ("crawlstore.decode_us_p50", "us"),
    ("crawlstore.decode_us_p99", "us"),
    ("crawlstore.decode_ms_sum", "ms"),
    ("crawlstore.decode_mb_per_s", "MB/s"),
    ("crawlstore.chunks", "count"),
    ("crawlstore.worker0_busy_ms", "ms"),
    ("crawlstore.worker0_idle_ms", "ms"),
    ("crawlstore.worker1_busy_ms", "ms"),
    ("crawlstore.worker1_idle_ms", "ms"),
    // cg-analysis
    ("analysis.stream_fold_us_p50", "us"),
    ("analysis.stream_fold_us_p99", "us"),
    ("analysis.dataset_ms", "ms"),
    ("analysis.exfil_ms", "ms"),
    ("analysis.manip_ms", "ms"),
    ("analysis.table1_ms", "ms"),
    // cg-detect
    ("detect.compile_ms", "ms"),
    ("detect.fold_us_p50", "us"),
    ("detect.fold_us_p99", "us"),
    ("detect.report_ms", "ms"),
    // cg-service
    ("service.extract_us_p50", "us"),
    ("service.extract_us_p99", "us"),
    ("service.open_us_p50", "us"),
    ("service.open_us_p99", "us"),
    ("service.close_us_p50", "us"),
    ("service.close_us_p99", "us"),
    ("service.decide_ns_p50", "ns"),
    ("service.decide_ns_p99", "ns"),
    ("service.swap_us", "us"),
    ("service.decisions_per_visit", "count"),
    ("service.undrained_epochs", "count"),
    // core
    ("core.engine_compile_us", "us"),
    // the load generator
    ("loadgen.late_p99_us", "us"),
    ("loadgen.backlog_max", "count"),
    // the whole run
    ("trace.overhead_pct", "%"),
    ("unattributed_pct", "%"),
];

/// Per-visit spans: reported as p50 and p99 in µs, plus a per-round sum
/// in ms when the metric list has one.
const PER_CALL: &[&str] = &[
    "webgen.blueprint",
    "browser.visit",
    "crawlstore.record",
    "crawlstore.decode",
    "analysis.stream_fold",
    "detect.fold",
    "service.extract",
    "service.open",
    "service.close",
];

/// Phase spans: reported as the median duration in ms (µs for the
/// engine compile and the policy swap).
const PER_PHASE: &[(&str, &str, f64)] = &[
    ("crawlstore.finish", "crawlstore.finish_ms", 1e6),
    ("crawlstore.plan", "crawlstore.plan_ms", 1e6),
    ("analysis.dataset", "analysis.dataset_ms", 1e6),
    ("analysis.exfil", "analysis.exfil_ms", 1e6),
    ("analysis.manip", "analysis.manip_ms", 1e6),
    ("analysis.table1", "analysis.table1_ms", 1e6),
    ("detect.compile", "detect.compile_ms", 1e6),
    ("detect.report", "detect.report_ms", 1e6),
    ("service.swap", "service.swap_us", 1e3),
    ("core.engine_compile", "core.engine_compile_us", 1e3),
];

/// Collects per-layer values; [`Layers::emit`] reports them all.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Fills the span-derived metrics from `trace`; sums are divided by
    /// `rounds` so they read per round.
    pub fn add_spans(&mut self, trace: &Trace, rounds: usize) {
        for &span in PER_CALL {
            let durations = trace.durations(span, 1.0);
            if durations.is_empty() {
                continue;
            }
            let d = Dist::of(durations);
            self.put(span, "_us_p50", d.p50 / 1e3);
            self.put(span, "_us_p99", d.p99 / 1e3);
            self.put(span, "_ms_sum", d.sum / 1e6 / rounds.max(1) as f64);
        }
        for &(span, metric, scale) in PER_PHASE {
            let durations = trace.durations(span, scale);
            if !durations.is_empty() {
                self.set(metric, median(&durations));
            }
        }
    }

    /// Sets `prefix + suffix` when that metric exists.
    fn put(&mut self, prefix: &str, suffix: &str, value: f64) {
        let name = format!("{prefix}{suffix}");
        if let Some((n, _)) = LAYER_METRICS.iter().find(|(n, _)| *n == name) {
            self.values.insert(n, value);
        }
    }

    /// Busy and idle time of the (at most two) fold workers under each
    /// `bench.stream` span, as per-round medians: busy is the union of
    /// the worker's `bench.chunk` spans, idle the rest of the stream's
    /// interval.
    pub fn fold_workers(&mut self, trace: &Trace) {
        let mut busy = [Vec::new(), Vec::new()];
        let mut idle = [Vec::new(), Vec::new()];
        for p in trace.named("bench.stream") {
            let chunks: Vec<_> = trace
                .children(p)
                .into_iter()
                .filter(|c| c.name == "bench.chunk")
                .collect();
            let mut threads: Vec<u32> = chunks.iter().map(|c| c.thread).collect();
            threads.sort_unstable();
            threads.dedup();
            for w in 0..2 {
                let b = threads.get(w).map_or(0, |&t| {
                    trace::covered(
                        (p.start, p.end),
                        chunks
                            .iter()
                            .filter(|c| c.thread == t)
                            .map(|c| (c.start, c.end)),
                    )
                });
                busy[w].push(b as f64 / 1e6);
                idle[w].push((p.dur() - b) as f64 / 1e6);
            }
        }
        if busy[0].is_empty() {
            return;
        }
        self.set("crawlstore.worker0_busy_ms", median(&busy[0]));
        self.set("crawlstore.worker0_idle_ms", median(&idle[0]));
        self.set("crawlstore.worker1_busy_ms", median(&busy[1]));
        self.set("crawlstore.worker1_idle_ms", median(&idle[1]));
    }

    /// Reports every per-layer metric, 0 for those never set, and the
    /// self time of every span name as a fact.
    pub fn emit(&self, out: &mut Outcome, trace: &Trace, rounds: usize) {
        let table = trace
            .self_ms(rounds)
            .into_iter()
            .map(|(n, ms)| (n, num(ms)));
        out.fact("self_ms_per_round", obj(table));
        for &(name, unit) in LAYER_METRICS {
            out.metric(name, self.values.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}
