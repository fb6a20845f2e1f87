//! `serve`: the guard service under an open loop.
//!
//! Set-up crawls the seed's store, extracts every visit's cookie
//! operations (`cg_service::extract_script`) and registers two tenants,
//! `strict` and `strict + builtin entity map`. The timed phase drives
//! `GuardService` directly from two worker threads, each with its own
//! fixed schedule of due times at each rate of a fixed ladder; visits
//! are routed by `GuardService::route`, and two `swap_policy` hot-swaps
//! fire from a worker thread during the nominal-rate step. Latency runs
//! from each visit's due time. `core`'s compiled decisions and the
//! `cg-service` session/epoch layer do all the work; the browser, the
//! store and the analyses do none.

use crate::host::{peak_rss_mb, reset_peak_rss};
use crate::layers::Layers;
use crate::loadgen::{wait_until, windows, DueLog, Schedule, WindowStats, WINDOW};
use crate::report::{int, num, obj, text, Outcome, Value};
use crate::stats::{median, percentile, sorted};
use crate::store::{self, SITES, WORKERS};
use crate::trace::{now_ns, Span, SpanLog, Trace, SETUP_LANE};
use crate::Ctx;
use cg_crawlstore::{par_fold_with, ReadBackend, StoreError};
use cg_service::{
    extract_script, EngineCache, GuardService, ReplayOp, SwapReport, TenantId, VisitScript,
};
use cg_telemetry::LatencyHistogram;
use cookieguard_core::{GuardConfig, GuardStats};
use std::path::Path;
use std::sync::Mutex;

/// Times the set-up is repeated.
const SETUP_REPS: usize = 3;
/// The rate at which latency is reported, visits/s across both workers:
/// a seventh of the capacity the ladder measures, rounded to the
/// nearest thousand. On the 2-core reference host the ladder measured
/// 27,400–32,600 visits/s with both workers (medians of four sets of
/// ten runs), a seventh of which is 3,900–4,700. Each worker is then
/// busy 12–15% of the time, so the latency is mostly the guard's own
/// per-visit cost and little queueing, while arrivals still land during
/// the heaviest visits. The rate stays fixed so that a faster guard
/// shows as lower latency at the same load.
const NOMINAL_RATE: f64 = 4_000.0;
/// The domain the swapped configs add to the whitelist.
const SWAP_PROBE: &str = "cdn.swap-probe";
/// p99 latency a ladder rate must meet to count as sustained. On a
/// 2-core host the p99 at a quarter of capacity is already 0.3–0.8 ms
/// (the heaviest visits present thousands of cookies), so a 1 ms limit
/// falls inside the service tail, where host scheduling noise decides;
/// 5 ms falls on the overload knee.
const LATENCY_LIMIT_US: f64 = 5_000.0;
/// The coarse ladder is `COARSE_BASE · 2^i`; between its last passing
/// and first failing rung, a fine ladder has `FINE_RUNGS` per octave.
const COARSE_BASE: f64 = 1_000.0;
const FINE_RUNGS: i32 = 16;
/// Windows every step lasts at least (see [`WINDOW`]).
const MIN_WINDOWS: usize = 5;

pub fn describe() -> Vec<(String, Value)> {
    vec![
        ("loop".into(), text("open")),
        ("clients".into(), int(WORKERS as u64)),
        ("store_sites".into(), int(SITES as u64)),
        ("nominal_visits_per_s".into(), num(NOMINAL_RATE)),
        ("latency_limit_us".into(), num(LATENCY_LIMIT_US)),
        (
            "why".into(),
            text("page loads arrive whether or not the guard keeps up; decisions and sessions do all the work"),
        ),
    ]
}

/// Operation totals that depend only on which visits were served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counters {
    visits: u64,
    sessions_opened: u64,
    sessions_closed: u64,
    write_ops: u64,
    delete_ops: u64,
    header_sets: u64,
    read_ops: u64,
    cookies_presented: u64,
    decisions: u64,
    tenant_visits: [u64; 2],
    tenant_decisions: [u64; 2],
}

impl Counters {
    fn add(&mut self, o: &Counters) {
        self.visits += o.visits;
        self.sessions_opened += o.sessions_opened;
        self.sessions_closed += o.sessions_closed;
        self.write_ops += o.write_ops;
        self.delete_ops += o.delete_ops;
        self.header_sets += o.header_sets;
        self.read_ops += o.read_ops;
        self.cookies_presented += o.cookies_presented;
        self.decisions += o.decisions;
        for t in 0..2 {
            self.tenant_visits[t] += o.tenant_visits[t];
            self.tenant_decisions[t] += o.tenant_decisions[t];
        }
    }
}

/// The service with its two tenants.
struct Service {
    svc: GuardService,
    strict: TenantId,
    grouped: TenantId,
}

/// The two tenants' configs: `strict` and `strict + builtin entity
/// map`. The `swapped` ones, which the hot-swaps install, keep that
/// shape and add a whitelisted domain.
fn tenant_configs(swapped: bool) -> [GuardConfig; 2] {
    let strict = GuardConfig::strict();
    let grouped = GuardConfig::strict().with_entity_grouping(cg_entity::builtin_entity_map());
    if swapped {
        [
            strict.with_whitelisted(SWAP_PROBE),
            grouped.with_whitelisted(SWAP_PROBE),
        ]
    } else {
        [strict, grouped]
    }
}

fn build_service(log: &mut SpanLog, swapped: bool) -> Service {
    let mut svc = GuardService::new();
    let [strict_cfg, grouped_cfg] = tenant_configs(swapped);
    let strict = log.time("core.engine_compile", || svc.register("strict", strict_cfg));
    let grouped = log.time("core.engine_compile", || {
        svc.register("entity-grouped", grouped_cfg)
    });
    Service {
        svc,
        strict,
        grouped,
    }
}

/// One serving thread: its engine caches, tallies and spans.
struct Worker<'a> {
    service: &'a GuardService,
    caches: Vec<EngineCache>,
    counters: Counters,
    outcomes: GuardStats,
    decide_ns: LatencyHistogram,
    log: SpanLog,
}

impl<'a> Worker<'a> {
    fn new(service: &'a GuardService, traced: bool, lane: u32) -> Worker<'a> {
        Worker {
            service,
            caches: service
                .tenants()
                .map(|(_, t)| EngineCache::new(t.slot()))
                .collect(),
            counters: Counters::default(),
            outcomes: GuardStats::default(),
            decide_ns: LatencyHistogram::new(),
            log: SpanLog::new(traced, lane, None),
        }
    }

    /// Times one decision into the histogram when tracing.
    fn decided(&mut self, since: Option<u64>) {
        if let Some(t) = since {
            self.decide_ns.record(now_ns() - t);
        }
        self.counters.decisions += 1;
    }

    /// The per-visit service path: route, open, decide, close.
    fn serve(&mut self, script: &VisitScript) {
        let traced = self.log.enabled();
        let tenant = self.service.route(script.rank);
        let open = self.log.begin("service.open");
        let mut session = self.service.open_session_cached(
            tenant,
            &mut self.caches[tenant.index()],
            &script.site,
        );
        self.log.end(open);
        let decisions = self.counters.decisions;
        let decide = self.log.begin("service.decide");
        for op in &script.ops {
            let t = traced.then(now_ns);
            match op {
                ReplayOp::Write { caller, name } => {
                    session.authorize_write(caller, name);
                    self.decided(t);
                    self.counters.write_ops += 1;
                }
                ReplayOp::Delete { caller, name } => {
                    session.authorize_delete(caller, name);
                    self.decided(t);
                    self.counters.delete_ops += 1;
                }
                ReplayOp::HeaderSet { name, domain } => {
                    session.record_http_set_cookie(name, domain);
                    self.counters.header_sets += 1;
                }
                ReplayOp::Read { caller, names } => {
                    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                    session.filter_names(caller, &refs);
                    self.decided(t);
                    self.counters.read_ops += 1;
                    self.counters.cookies_presented += refs.len() as u64;
                }
            }
        }
        self.log.end(decide);
        self.outcomes = self.outcomes.merge(&session.stats());
        let close = self.log.begin("service.close");
        drop(session);
        self.log.end(close);
        let c = &mut self.counters;
        c.visits += 1;
        c.sessions_opened += 1;
        c.sessions_closed += 1;
        c.tenant_visits[tenant.index()] += 1;
        c.tenant_decisions[tenant.index()] += c.decisions - decisions;
    }
}

/// Index of the script worker `w` serves as its `k`-th visit.
fn script_index(k: u64, w: usize, scripts: usize) -> usize {
    ((k * WORKERS as u64 + w as u64) % scripts as u64) as usize
}

/// One open-loop step at one rate.
struct Step {
    rate: f64,
    /// Visits each worker was scheduled.
    per_worker: u64,
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    windows: Vec<WindowStats>,
    backlog_max: u64,
    /// Visits served per second, first due time to last completion.
    achieved: f64,
    /// Whether p99 and the final tenth both stay within the limit.
    passed: bool,
    counters: Counters,
    outcomes: GuardStats,
    decide_ns: LatencyHistogram,
    swaps: Vec<SwapReport>,
    spans: Vec<Span>,
    lanes: Vec<(u32, u64, u64)>,
}

impl Step {
    /// Median over the step's windows of their p50 latency, in µs.
    fn p50(&self) -> f64 {
        median(&self.windows.iter().map(|w| w.p50).collect::<Vec<_>>())
    }

    /// Median over the step's windows of their p99 latency, in µs.
    fn p99(&self) -> f64 {
        median(&self.windows.iter().map(|w| w.p99).collect::<Vec<_>>())
    }

    fn summary(&self) -> Value {
        obj([
            ("rate", num(self.rate)),
            ("achieved", num(self.achieved)),
            ("p50_us", num(self.p50())),
            ("p99_us", num(self.p99())),
            ("windows", int(self.windows.len() as u64)),
            (
                "late_p99_us",
                num(percentile(&self.late_us, 99.0).unwrap_or(f64::NAN)),
            ),
            ("backlog_max", int(self.backlog_max)),
            ("passed", Value::Bool(self.passed)),
        ])
    }
}

/// Serves `rate` visits/s for `secs` seconds. With `swap`, worker 0
/// hot-swaps the tenants to their swapped configs, `strict` at a third
/// and `entity-grouped` at two thirds of its schedule.
fn step(
    service: &Service,
    scripts: &[VisitScript],
    rate: f64,
    secs: f64,
    swap: bool,
    traced: bool,
) -> Step {
    let per_worker_rate = rate / WORKERS as f64;
    let min_visits = (MIN_WINDOWS * WINDOW / WORKERS) as u64;
    let per_worker = ((secs * per_worker_rate) as u64).max(min_visits);
    // Leave the workers 2 ms to start; offset them by half a period so
    // the aggregate arrivals are evenly spaced.
    let start = now_ns() + 2_000_000;
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                scope.spawn(move || {
                    let period = 1e9 / per_worker_rate;
                    let offset = (w as f64 * period / WORKERS as f64) as u64;
                    let sched = Schedule::new(start + offset, per_worker_rate, per_worker);
                    let mut worker = Worker::new(&service.svc, traced, w as u32);
                    let mut due = DueLog::default();
                    let mut swaps = Vec::new();
                    for k in 0..sched.count {
                        if swap && w == 0 && (k == per_worker / 3 || k == 2 * per_worker / 3) {
                            let [strict_cfg, grouped_cfg] = tenant_configs(true);
                            let (tenant, cfg) = if k == per_worker / 3 {
                                (service.strict, strict_cfg)
                            } else {
                                (service.grouped, grouped_cfg)
                            };
                            swaps.push(
                                worker
                                    .log
                                    .time("service.swap", || service.svc.swap_policy(tenant, cfg)),
                            );
                        }
                        let due_at = sched.due(k);
                        worker.log.time("loadgen.wait", || wait_until(due_at));
                        let started = now_ns();
                        worker.serve(&scripts[script_index(k, w, scripts.len())]);
                        due.record(&sched, k, started, now_ns());
                    }
                    let window = (w as u32, sched.start, now_ns());
                    (
                        worker.counters,
                        worker.outcomes,
                        worker.decide_ns,
                        worker.log.into_spans(),
                        due,
                        swaps,
                        window,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve worker panicked"))
            .collect()
    });

    let mut out = Step {
        rate,
        per_worker,
        latency_us: Vec::new(),
        late_us: Vec::new(),
        windows: Vec::new(),
        backlog_max: 0,
        achieved: 0.0,
        passed: false,
        counters: Counters::default(),
        outcomes: GuardStats::default(),
        decide_ns: LatencyHistogram::new(),
        swaps: Vec::new(),
        spans: Vec::new(),
        lanes: Vec::new(),
    };
    let mut dues = Vec::new();
    let mut last_end = start;
    for (counters, outcomes, decide_ns, spans, due, swaps, window) in results {
        out.counters.add(&counters);
        out.outcomes = out.outcomes.merge(&outcomes);
        out.decide_ns.merge(&decide_ns);
        out.spans.extend(spans);
        out.swaps.extend(swaps);
        out.lanes.push(window);
        last_end = last_end.max(window.2);
        out.backlog_max = out.backlog_max.max(due.backlog_max);
        out.latency_us
            .extend(due.latency_ns.iter().map(|&l| l as f64 / 1e3));
        out.late_us
            .extend(due.late_ns.iter().map(|&l| l as f64 / 1e3));
        dues.push(due);
    }
    out.windows = windows(&dues);
    out.latency_us = sorted(out.latency_us);
    out.late_us = sorted(out.late_us);
    out.achieved = out.counters.visits as f64 / ((last_end - start) as f64 / 1e9);
    // A backlog that still grows at the end shows as a final window
    // running later than the limit, and later than the first.
    let (first, last) = (out.windows[0], out.windows[out.windows.len() - 1]);
    let growing = last.late_p50 > LATENCY_LIMIT_US && last.late_p50 > first.late_p50;
    out.passed = out.p99() <= LATENCY_LIMIT_US && !growing;
    out
}

/// One search for the highest ladder rung whose step passes: climb the
/// coarse ladder from 16k visits/s (or descend when that fails), then
/// binary-search the fine ladder between the last passing and the first
/// failing rung.
fn ladder(
    service: &Service,
    scripts: &[VisitScript],
    secs: f64,
    steps: &mut Vec<Step>,
) -> Option<usize> {
    let probe = |rate: f64, steps: &mut Vec<Step>| {
        steps.push(step(service, scripts, rate, secs, false, false));
        steps
            .last()
            .expect("just pushed")
            .passed
            .then_some(steps.len() - 1)
    };
    let coarse = |i: i32| COARSE_BASE * 2f64.powi(i);
    let (mut best, mut i) = (None, 4);
    if let Some(s) = probe(coarse(i), steps) {
        best = Some((i, s));
        while i < 10 {
            i += 1;
            match probe(coarse(i), steps) {
                Some(s) => best = Some((i, s)),
                None => break,
            }
        }
    } else {
        while i > -3 && best.is_none() {
            i -= 1;
            best = probe(coarse(i), steps).map(|s| (i, s));
        }
    }
    let (base, mut best_step) = best?;
    let (mut lo, mut hi) = (0, FINE_RUNGS);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let rate = coarse(base) * 2f64.powf(mid as f64 / FINE_RUNGS as f64);
        match probe(rate, steps) {
            Some(s) => {
                lo = mid;
                best_step = s;
            }
            None => hi = mid,
        }
    }
    Some(best_step)
}

/// Decodes the store at two threads and lowers every visit to its
/// operation script, in rank order.
fn extract(dir: &Path, log: &mut SpanLog) -> Result<(Vec<VisitScript>, u64), StoreError> {
    let spans = Mutex::new(Vec::new());
    let traced = log.enabled();
    let partials = par_fold_with(dir, WORKERS, ReadBackend::Mmap, |mut chunk| {
        let mut clog = SpanLog::new(traced, SETUP_LANE, None);
        let mut scripts = Vec::new();
        while let Some(visit) = clog.time("crawlstore.decode", || chunk.next_log())? {
            scripts.push(clog.time("service.extract", || extract_script(&visit)));
        }
        spans
            .lock()
            .expect("span buffer lock poisoned")
            .extend(clog.into_spans());
        Ok(scripts)
    })?;
    let chunks = partials.len() as u64;
    let mut scripts: Vec<VisitScript> = partials.into_iter().flatten().collect();
    scripts.sort_by_key(|s| s.rank);
    log.extend(spans.into_inner().expect("span buffer lock poisoned"));
    Ok((scripts, chunks))
}

/// Serves the visits of a step once, in order, on one thread with no
/// pacing, on a fresh service with the original or the `swapped`
/// configs: the reference for a step's counters and policy outcomes.
fn closed_loop_reference(
    scripts: &[VisitScript],
    per_worker: u64,
    swapped: bool,
) -> (Counters, GuardStats) {
    let service = build_service(&mut SpanLog::new(false, 0, None), swapped);
    let mut worker = Worker::new(&service.svc, false, 0);
    for w in 0..WORKERS {
        for k in 0..per_worker {
            worker.serve(&scripts[script_index(k, w, scripts.len())]);
        }
    }
    (worker.counters, worker.outcomes)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = ctx.work.join("serve-store");
    let mut setup_log = SpanLog::new(ctx.trace, SETUP_LANE, None);
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let _ = std::fs::remove_dir_all(&dir);
        let t = now_ns();
        let gen = store::generator();
        let ranks = store::sample(ctx.seed, SITES, gen.site_count());
        let crawl = store::crawl(&gen, &dir, &ranks, false).map_err(|e| format!("crawl: {e}"))?;
        let (scripts, chunks) =
            extract(&dir, &mut setup_log).map_err(|e| format!("extract: {e}"))?;
        let service = build_service(&mut setup_log, false);
        setup.push((now_ns() - t) as f64 / 1e9);
        built = Some((gen, scripts, chunks, service, crawl.store_bytes));
    }
    let (gen, scripts, chunks, service, store_bytes) = built.expect("at least one set-up");

    // Timed phase. The warm-up step runs before any swap, so its policy
    // outcomes are checked too; a traced run replaces the ladder with a
    // traced nominal step, to compare against the plain one.
    let s = ctx.seconds;
    out.check_rss_reset(reset_peak_rss());
    let warm = step(&service, &scripts, NOMINAL_RATE, 0.025 * s, false, false);
    let nominal = step(&service, &scripts, NOMINAL_RATE, 0.15 * s, true, false);
    let mut ladder_steps = Vec::new();
    let mut searches = Vec::new();
    let (second, traced) = if ctx.trace {
        (
            None,
            Some(step(&service, &scripts, NOMINAL_RATE, 0.15 * s, true, true)),
        )
    } else {
        // Three searches, with the second half of the nominal-rate
        // measurement between the first two, so that one slow stretch
        // of the host spoils no result alone.
        searches.push(ladder(&service, &scripts, 0.03 * s, &mut ladder_steps));
        let second = step(&service, &scripts, NOMINAL_RATE, 0.15 * s, false, false);
        for _ in 0..2 {
            searches.push(ladder(&service, &scripts, 0.03 * s, &mut ladder_steps));
        }
        (Some(second), None)
    };
    let peak_mb = peak_rss_mb().unwrap_or(f64::NAN);
    let undrained = service.svc.undrained().len() as u64;

    // Checks.
    let at_nominal: Vec<&Step> = [&nominal]
        .into_iter()
        .chain(&second)
        .chain(&traced)
        .collect();
    let all_steps: Vec<&Step> = [&warm]
        .into_iter()
        .chain(at_nominal.iter().copied())
        .chain(&ladder_steps)
        .collect();
    for st in &all_steps {
        out.attempted += st.counters.visits;
        let scheduled = st.per_worker * WORKERS as u64;
        out.check(
            &format!("step at {} visits/s served every scheduled visit", st.rate),
            st.counters.visits == scheduled && st.counters.sessions_closed == scheduled,
            format!("{} of {scheduled}", st.counters.visits),
            scheduled.abs_diff(st.counters.visits).max(1),
        );
    }
    // The first nominal-rate step swaps mid-step, so its policy outcomes
    // depend on when each worker saw the swap; every later step runs on
    // the swapped configs throughout.
    let (counters, swapped_outcomes) = closed_loop_reference(&scripts, nominal.per_worker, true);
    for st in &at_nominal {
        out.check(
            "nominal-rate step counters equal a closed-loop single-worker pass",
            st.counters == counters,
            format!("{:?} vs {:?}", st.counters, counters),
            st.counters.visits,
        );
    }
    for st in second.iter().chain(&traced) {
        out.check(
            "post-swap step policy outcomes equal a closed-loop pass on the swapped configs",
            st.outcomes == swapped_outcomes,
            format!("{:?} vs {:?}", st.outcomes, swapped_outcomes),
            st.counters.visits,
        );
    }
    let (_, outcomes) = closed_loop_reference(&scripts, warm.per_worker, false);
    out.check(
        "warm-up step policy outcomes equal a closed-loop single-worker pass",
        warm.outcomes == outcomes,
        format!("{:?} vs {:?}", warm.outcomes, outcomes),
        warm.counters.visits,
    );
    for st in [&nominal].into_iter().chain(&traced) {
        let gapless =
            st.swaps.len() == 2 && st.swaps.iter().all(|s| s.to_epoch == s.from_epoch + 1);
        out.check(
            "two gapless hot-swaps fired during the nominal-rate step",
            gapless,
            format!("{:?}", st.swaps),
            st.counters.visits,
        );
    }
    out.check(
        "undrained_epochs == 0",
        undrained == 0,
        format!("{undrained} retired engines still alive"),
        nominal.counters.visits,
    );
    let best = searches
        .iter()
        .flatten()
        .map(|&i| &ladder_steps[i])
        .max_by(|a, b| a.achieved.total_cmp(&b.achieved));
    if !ctx.trace {
        out.check(
            "some ladder rate meets the latency limit",
            best.is_some(),
            "no rung passed".into(),
            1,
        );
    }
    let engine = store::detect_engine(&gen);
    let report = store::detect_report(&engine, &dir).map_err(|e| format!("detect: {e}"))?;

    out.fact("store_sites", int(SITES as u64));
    out.fact("store_bytes", int(store_bytes));
    out.fact("scripts", int(scripts.len() as u64));
    let ops = sorted(scripts.iter().map(|s| s.ops.len() as f64).collect());
    let presented = sorted(
        scripts
            .iter()
            .map(|s| {
                s.ops
                    .iter()
                    .map(|op| match op {
                        ReplayOp::Read { names, .. } => names.len() as f64,
                        _ => 0.0,
                    })
                    .sum()
            })
            .collect(),
    );
    for (name, v) in [
        ("ops_per_script", &ops),
        ("cookies_presented_per_script", &presented),
    ] {
        out.fact(
            name,
            obj([
                ("p50", num(percentile(v, 50.0).unwrap_or(0.0))),
                ("p99", num(percentile(v, 99.0).unwrap_or(0.0))),
                ("max", num(v.last().copied().unwrap_or(0.0))),
            ]),
        );
    }
    // Latency at the nominal rate: the median over the windows of both
    // untraced nominal-rate steps.
    let plain: Vec<&Step> = [&nominal].into_iter().chain(&second).collect();
    let window_median = |f: fn(&WindowStats) -> f64| {
        median(
            &plain
                .iter()
                .flat_map(|st| st.windows.iter().map(f))
                .collect::<Vec<_>>(),
        )
    };
    let (p50, p90, p99) = (
        window_median(|w| w.p50),
        window_median(|w| w.p90),
        window_median(|w| w.p99),
    );
    out.fact("window_median_p99_us", num(p99));
    let all_us = sorted(
        plain
            .iter()
            .flat_map(|st| st.latency_us.iter().copied())
            .collect(),
    );
    out.latency_facts(&all_us);
    out.fact(
        "nominal",
        Value::Array(plain.iter().map(|st| st.summary()).collect()),
    );
    out.fact(
        "ladder",
        Value::Array(ladder_steps.iter().map(Step::summary).collect()),
    );

    if !ctx.trace {
        out.metric("setup_s", median(&setup), "s");
        out.metric("peak_rss_mb", peak_mb, "MB");
        out.metric("visits_per_s", best.map_or(f64::NAN, |b| b.achieved), "1/s");
        out.metric("visit_p50_us", p50, "us");
        out.metric("visit_p90_us", p90, "us");
        out.metric("detect_instance_f1", report.instance_scores.f1, "ratio");
        out.metric("detect_key_f1", report.key_scores.f1, "ratio");
        return Ok(out);
    }

    let traced = traced.expect("traced step ran");
    let mut spans = setup_log.into_spans();
    spans.extend(traced.spans.iter().copied());
    let trace = Trace::new(spans);
    let mut layers = Layers::default();
    layers.add_spans(&trace, SETUP_REPS);
    let decode_s: f64 = trace.durations("crawlstore.decode", 1e9).iter().sum();
    layers.set(
        "crawlstore.decode_mb_per_s",
        store_bytes as f64 * SETUP_REPS as f64 / decode_s / 1e6,
    );
    layers.set("crawlstore.chunks", chunks as f64);
    layers.set(
        "crawlstore.bytes_per_visit",
        store_bytes as f64 / SITES as f64,
    );
    layers.set(
        "service.decide_ns_p50",
        traced.decide_ns.quantile(0.50) as f64,
    );
    layers.set(
        "service.decide_ns_p99",
        traced.decide_ns.quantile(0.99) as f64,
    );
    layers.set(
        "service.decisions_per_visit",
        traced.counters.decisions as f64 / traced.counters.visits as f64,
    );
    layers.set("service.undrained_epochs", undrained as f64);
    layers.set(
        "loadgen.late_p99_us",
        percentile(&traced.late_us, 99.0).unwrap_or(0.0),
    );
    layers.set("loadgen.backlog_max", traced.backlog_max as f64);
    layers.set(
        "trace.overhead_pct",
        100.0 * (traced.p50() / nominal.p50() - 1.0),
    );
    layers.set("unattributed_pct", trace.unattributed_pct(&traced.lanes));
    layers.emit(&mut out, &trace, SETUP_REPS);
    Ok(out)
}
