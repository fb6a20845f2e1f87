//! `analyze`: the seed's crawl store turned into every published
//! result, repeated in rounds.
//!
//! Set-up crawls the store (exactly what `crawl` writes) and compiles
//! the detector. Each timed round then runs, over the store:
//! * one streaming pass at two threads over mmap that folds every visit
//!   into `StreamStats` and `DetectStats` (`Stages::Full`);
//! * the resident `Dataset` with `detect_exfiltration`,
//!   `detect_manipulation` and `cross_domain_summary` (Tables 1–2);
//! * `DetectReport::from_stats`.
//!
//! Decode, the analyses and the detector do all the work here; the
//! browser and the service do none.

use crate::host::{peak_rss_mb, reset_peak_rss};
use crate::layers::Layers;
use crate::report::{int, num, obj, text, Outcome, Value};
use crate::stats::{median, percentile, sorted};
use crate::store::{self, SITES, WORKERS};
use crate::trace::{now_ns, Span, SpanLog, Trace, SETUP_LANE};
use crate::Ctx;
use cg_analysis::{
    cross_domain_summary, detect_exfiltration, detect_manipulation, Dataset, StreamStats,
};
use cg_crawlstore::{par_fold_with, plan_chunks, ReadBackend, StoreError};
use cg_detect::{DetectEngine, DetectReport, DetectStats, Stages};
use cg_entity::EntityMap;
use cg_instrument::VisitLog;
use std::path::Path;
use std::sync::Mutex;

/// Times the set-up (crawl the store, compile the detector) is repeated.
const SETUP_REPS: usize = 3;

pub fn describe() -> Vec<(String, Value)> {
    vec![
        ("loop".into(), text("closed, batch")),
        ("clients".into(), int(WORKERS as u64)),
        ("store_sites".into(), int(SITES as u64)),
        (
            "why".into(),
            text("decode, the analyses and the detector do all the work; reads what crawl writes"),
        ),
    ]
}

/// What one round produced, serialized for comparison.
#[derive(PartialEq)]
struct Outputs {
    stream: StreamStats,
    report: String,
    tables: String,
}

impl Outputs {
    /// Which outputs differ from `other`, and where the tables first do.
    fn differences(&self, other: &Outputs) -> String {
        let mut parts = Vec::new();
        if self.stream != other.stream {
            parts.push("stream stats".to_string());
        }
        if self.report != other.report {
            parts.push("detect report".to_string());
        }
        for (i, (a, b)) in self.tables.lines().zip(other.tables.lines()).enumerate() {
            if a != b {
                parts.push(format!("published table {i}"));
            }
        }
        parts.join(", ")
    }
}

struct Round {
    traced: bool,
    wall_ns: u64,
    visit_ns: Vec<u64>,
    spans: Vec<Span>,
    window: (u32, u64, u64),
    chunks: u64,
    outputs: Outputs,
    f1: (f64, f64),
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("analysis results serialize")
}

fn round(
    dir: &Path,
    engine: &DetectEngine,
    entities: &EntityMap,
    traced: bool,
) -> Result<Round, StoreError> {
    let mut log = SpanLog::new(traced, 0, None);
    let start = now_ns();
    let top = log.begin("bench.round");
    let mut chunks = 0;
    if traced {
        chunks = log.time("crawlstore.plan", || plan_chunks(dir))?.len() as u64;
    }
    let fold = log.begin("bench.stream");
    let parent = log.id(fold);
    let worker_spans = Mutex::new(Vec::new());
    let partials = par_fold_with(dir, WORKERS, ReadBackend::Mmap, |mut chunk| {
        let mut clog = SpanLog::new(traced, 0, parent);
        let open = clog.begin("bench.chunk");
        let mut stream = StreamStats::default();
        let mut detect = DetectStats::new(engine, Stages::Full);
        let mut visit_ns = Vec::new();
        loop {
            let t = now_ns();
            let Some(visit) = clog.time("crawlstore.decode", || chunk.next_log())? else {
                break;
            };
            clog.time("analysis.stream_fold", || stream.fold(&visit));
            clog.time("detect.fold", || detect.fold(&visit));
            clog.time("crawlstore.release", || drop(visit));
            visit_ns.push(now_ns() - t);
        }
        clog.end(open);
        worker_spans
            .lock()
            .expect("span buffer lock poisoned")
            .extend(clog.into_spans());
        Ok((stream, detect, visit_ns))
    })?;
    log.end(fold);
    let merge = log.begin("detect.merge");
    let mut stream = StreamStats::default();
    let mut detect = DetectStats::new(engine, Stages::Full);
    let mut visit_ns = Vec::new();
    for (s, d, v) in partials {
        stream = stream.merge(s);
        detect = detect.merge(d);
        visit_ns.extend(v);
    }
    log.end(merge);
    let dataset = log.time("analysis.dataset", || {
        Dataset::from_store_with(dir, WORKERS, ReadBackend::Mmap)
    })?;
    let exfil = log.time("analysis.exfil", || detect_exfiltration(&dataset, entities));
    let manip = log.time("analysis.manip", || detect_manipulation(&dataset, entities));
    // Table 1 and the published top-n tables and figures over it.
    let tables = log.time("analysis.table1", || {
        let t1 = cross_domain_summary(&dataset, &exfil, &manip);
        let pairs = t1.doc_pairs_total;
        format!(
            "{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}",
            json(&t1),
            json(&exfil.table2(20)),
            json(&exfil.fig2(20, pairs)),
            json(&manip.table5(false, 10)),
            json(&manip.table5(true, 10)),
            json(&manip.fig8(false, 20, pairs)),
            json(&manip.fig8(true, 20, pairs)),
            json(&manip.attr_changes),
        )
    });
    log.time("analysis.dataset_free", || drop(dataset));
    let (report, report_json) = log.time("detect.report", || {
        let report = DetectReport::from_stats(&detect);
        let json = report.to_json();
        (report, json)
    });
    log.end(top);
    let end = now_ns();

    // The raw exfil events come out in hash-map order (per-site pairs
    // are a `HashMap`), so they are compared as a sorted multiset.
    let mut events: Vec<String> = exfil.events.iter().map(json).collect();
    events.sort_unstable();
    let tables = format!("{tables}\n[{}]", events.join(","));

    let mut spans = log.into_spans();
    spans.extend(
        worker_spans
            .into_inner()
            .expect("span buffer lock poisoned"),
    );
    Ok(Round {
        traced,
        wall_ns: end - start,
        visit_ns,
        spans,
        window: (0, start, end),
        chunks,
        f1: (report.instance_scores.f1, report.key_scores.f1),
        outputs: Outputs {
            stream,
            report: report_json,
            tables,
        },
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = ctx.work.join("analyze-store");
    let mut setup_log = SpanLog::new(ctx.trace, SETUP_LANE, None);
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let _ = std::fs::remove_dir_all(&dir);
        let t = now_ns();
        let gen = store::generator();
        let ranks = store::sample(ctx.seed, SITES, gen.site_count());
        let crawl = store::crawl(&gen, &dir, &ranks, false).map_err(|e| format!("crawl: {e}"))?;
        let engine = setup_log.time("detect.compile", || store::detect_engine(&gen));
        setup.push((now_ns() - t) as f64 / 1e9);
        built = Some((engine, crawl.store_bytes));
    }
    let (engine, store_bytes) = built.expect("at least one set-up");
    let entities = cg_entity::builtin_entity_map();

    let budget = (ctx.seconds * 1e9) as u64;
    let mut measured = 0u64;
    let mut rounds = Vec::new();
    out.check_rss_reset(reset_peak_rss());
    // A traced run keeps going until it has both kinds of round.
    while measured < budget
        || rounds.is_empty()
        || (ctx.trace && !rounds.last().is_some_and(|r: &Round| r.traced))
    {
        let traced = ctx.trace && !rounds.is_empty() && measured >= budget / 2;
        let r = round(&dir, &engine, &entities, traced).map_err(|e| format!("round: {e}"))?;
        measured += r.wall_ns;
        rounds.push(r);
    }
    let peak_mb = peak_rss_mb().unwrap_or(f64::NAN);

    // Checks: every round agrees with the first, and the first agrees
    // with the single-threaded stream and the resident fold.
    let first = &rounds[0].outputs;
    for (i, r) in rounds.iter().enumerate() {
        out.attempted += SITES as u64;
        if i > 0 {
            out.check(
                &format!("round {i}: outputs identical to round 0"),
                r.outputs == *first,
                r.outputs.differences(first),
                SITES as u64,
            );
        }
    }
    let logs: Vec<VisitLog> = par_fold_with(&dir, 1, ReadBackend::Mmap, |chunk| {
        chunk.collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| format!("drain: {e}"))?
    .into_iter()
    .flatten()
    .collect();
    let resident =
        DetectReport::from_stats(&DetectStats::from_logs(&engine, Stages::Full, logs.iter()))
            .to_json();
    out.check(
        "detect report of the 2-thread stream equals resident DetectStats::from_logs",
        resident == first.report,
        format!("{} vs {} bytes", first.report.len(), resident.len()),
        SITES as u64,
    );
    for threads in [1, WORKERS] {
        let stats =
            DetectStats::from_store_with(&engine, Stages::Full, &dir, threads, ReadBackend::Mmap)
                .map_err(|e| format!("stream x{threads}: {e}"))?;
        out.check(
            &format!("detect report of DetectStats::from_store_with x{threads} equals resident"),
            DetectReport::from_stats(&stats).to_json() == resident,
            "reports differ".into(),
            SITES as u64,
        );
        let stream = StreamStats::from_store_with(&dir, threads, ReadBackend::Mmap)
            .map_err(|e| format!("stream stats x{threads}: {e}"))?;
        out.check(
            &format!("StreamStats::from_store_with x{threads} equals the round's fold"),
            stream == first.stream,
            "stream stats differ".into(),
            SITES as u64,
        );
    }
    let mut resident_stream = StreamStats::default();
    logs.iter().for_each(|l| resident_stream.fold(l));
    out.check(
        "resident StreamStats fold equals the round's fold",
        resident_stream == first.stream,
        "stream stats differ".into(),
        SITES as u64,
    );
    drop(logs);

    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let rate = |rs: &[&Round]| {
        SITES as f64 / (median(&rs.iter().map(|r| r.wall_ns as f64).collect::<Vec<_>>()) / 1e9)
    };
    let visit_us = sorted(
        plain
            .iter()
            .flat_map(|r| r.visit_ns.iter())
            .map(|&ns| ns as f64 / 1e3)
            .collect(),
    );
    out.fact("store_sites", int(SITES as u64));
    out.fact("store_bytes", int(store_bytes));
    out.fact(
        "round_visits_per_s",
        Value::Array(
            rounds
                .iter()
                .map(|r| num(SITES as f64 / (r.wall_ns as f64 / 1e9)))
                .collect(),
        ),
    );
    out.latency_facts(&visit_us);
    let (instance_f1, key_f1) = rounds[0].f1;
    out.fact(
        "detect_f1",
        obj([("instance", num(instance_f1)), ("key", num(key_f1))]),
    );

    if !ctx.trace {
        out.metric("setup_s", median(&setup), "s");
        out.metric("peak_rss_mb", peak_mb, "MB");
        out.metric("visits_per_s", rate(&plain), "1/s");
        out.metric(
            "visit_p50_us",
            percentile(&visit_us, 50.0).unwrap_or(f64::NAN),
            "us",
        );
        out.metric(
            "visit_p90_us",
            percentile(&visit_us, 90.0).unwrap_or(f64::NAN),
            "us",
        );
        out.metric("detect_instance_f1", instance_f1, "ratio");
        out.metric("detect_key_f1", key_f1, "ratio");
        return Ok(out);
    }

    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let mut spans = setup_log.into_spans();
    spans.extend(traced.iter().flat_map(|r| r.spans.iter().copied()));
    let windows: Vec<_> = traced.iter().map(|r| r.window).collect();
    let trace = Trace::new(spans);
    let mut layers = Layers::default();
    layers.add_spans(&trace, traced.len());
    layers.fold_workers(&trace);
    let decode_s: f64 = trace.durations("crawlstore.decode", 1e9).iter().sum();
    layers.set(
        "crawlstore.decode_mb_per_s",
        store_bytes as f64 * traced.len() as f64 / decode_s / 1e6,
    );
    layers.set("crawlstore.chunks", traced[0].chunks as f64);
    layers.set(
        "crawlstore.bytes_per_visit",
        store_bytes as f64 / SITES as f64,
    );
    layers.set(
        "trace.overhead_pct",
        100.0 * (rate(&plain) / rate(&traced) - 1.0),
    );
    layers.set("unattributed_pct", trace.unattributed_pct(&windows));
    layers.emit(&mut out, &trace, traced.len());
    Ok(out)
}
