//! `crawl`: the measurement crawl, repeated in rounds.
//!
//! Each round crawls one of the seed's samples of the synthetic web
//! with `VisitConfig::regular()` into a fresh binary store, with two
//! workers in a closed loop; the rounds take the samples in turn. Nearly all of it is `cg-webgen`, `cg-browser` and
//! the `cg-crawlstore` write path; the read path, `cg-analysis`,
//! `cg-detect` and `cg-service` only check the result afterwards.

use crate::host::{peak_rss_mb, reset_peak_rss};
use crate::layers::Layers;
use crate::report::{int, num, text, Outcome, Value};
use crate::stats::{median, percentile, sorted};
use crate::store::{self, SITES, WORKERS};
use crate::trace::{now_ns, Trace};
use crate::Ctx;

/// Times the set-up is repeated.
const SETUP_REPS: usize = 5;
/// Sites of the warm-up crawl in each set-up.
const WARMUP_SITES: usize = 200;
/// Disjoint samples the rounds take in turn. Per-visit times spread
/// over two decades and the median falls where they are thin, so the
/// mix of one 2,000-site sample moved the crawl p50 by up to 20% from
/// seed to seed; pooling three samples narrows that. The first sample
/// is the one `analyze` and `serve` build their store from.
const SAMPLES: usize = 3;

/// One timed round and what its store held afterwards.
struct Round {
    traced: bool,
    /// Which of the samples the round crawled.
    sample: usize,
    crawl: store::Crawl,
    contents: store::StoreContents,
}

pub fn describe() -> Vec<(String, Value)> {
    vec![
        ("loop".into(), text("closed")),
        ("clients".into(), int(WORKERS as u64)),
        ("sites_per_round".into(), int(SITES as u64)),
        ("samples".into(), int(SAMPLES as u64)),
        (
            "why".into(),
            text("the measurement crawl is the slowest stage of every experiment"),
        ),
    ]
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up: build the generator, then visit its first ranks once, in
    // memory, so lazily built tables are warm before timing.
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = now_ns();
        let gen = store::generator();
        let samples = store::samples(ctx.seed, SITES, SAMPLES, gen.site_count());
        store::crawl_in_memory(&gen, &samples[0][..WARMUP_SITES]);
        setup.push((now_ns() - t) as f64 / 1e9);
        built = Some((gen, samples));
    }
    let (gen, samples) = built.expect("at least one set-up");

    // Timed phase: rounds until the measured time reaches the budget.
    // A traced run measures its first half untraced, for the overhead.
    let budget = (ctx.seconds * 1e9) as u64;
    let mut measured = 0u64;
    let mut rounds = Vec::new();
    // The peak RSS is the highest over the rounds' crawls: it is reset
    // before each crawl and read before the store is read back.
    let (mut peaks, mut resets) = (Vec::new(), 0);
    // A traced run keeps going until it has both kinds of round.
    while measured < budget
        || rounds.is_empty()
        || (ctx.trace && !rounds.last().is_some_and(|r: &Round| r.traced))
    {
        let traced = ctx.trace && !rounds.is_empty() && measured >= budget / 2;
        let sample = rounds.len() % SAMPLES;
        let dir = ctx.work.join(format!("crawl-{sample}"));
        resets += usize::from(reset_peak_rss());
        let crawl = store::crawl(&gen, &dir, &samples[sample], traced)
            .map_err(|e| format!("crawl: {e}"))?;
        peaks.push(peak_rss_mb());
        measured += crawl.wall_ns;
        let contents = store::contents(&dir).map_err(|e| format!("read back: {e}"))?;
        rounds.push(Round {
            traced,
            sample,
            crawl,
            contents,
        });
    }
    out.check_rss_reset(resets == rounds.len());
    let peak_mb = peaks
        .iter()
        .try_fold(0f64, |max, p| p.map(|p| max.max(p)))
        .unwrap_or(f64::NAN);

    // Reference: the program's own crawl loop over the same ranks, in
    // memory, folded into the same statistics, for each sample crawled.
    let references: Vec<_> = samples
        .iter()
        .take(rounds.len())
        .map(|ranks| store::crawl_in_memory(&gen, ranks))
        .collect();
    for (i, r) in rounds.iter().enumerate() {
        out.attempted += r.crawl.visits();
        let reference = &references[r.sample];
        let bad = store::rank_mismatches(&r.contents.ranks, &samples[r.sample]);
        out.check(
            &format!("round {i}: store holds the {SITES} sampled ranks once each"),
            bad == 0,
            format!("{bad} ranks missing or repeated"),
            bad,
        );
        out.check(
            &format!("round {i}: StreamStats of the store match the in-memory crawl"),
            r.contents.stats == *reference,
            format!(
                "{:?} vs {:?}",
                r.contents.stats.summary(),
                reference.summary()
            ),
            SITES as u64,
        );
    }
    // Detection is scored on the first sample's store, the one
    // `analyze` and `serve` score too.
    let engine = store::detect_engine(&gen);
    let report = store::detect_report(&engine, &ctx.work.join("crawl-0"))
        .map_err(|e| format!("detect: {e}"))?;

    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let rate = |rs: &[&Round]| {
        median(
            &rs.iter()
                .map(|r| r.crawl.visits_per_s())
                .collect::<Vec<_>>(),
        )
    };
    let visit_us = sorted(
        plain
            .iter()
            .flat_map(|r| r.crawl.shares.iter().flat_map(|s| s.visit_ns.iter()))
            .map(|&ns| ns as f64 / 1e3)
            .collect(),
    );
    let store_bytes = rounds[0].crawl.store_bytes;
    out.fact("sites_per_round", int(SITES as u64));
    out.fact(
        "round_visits_per_s",
        Value::Array(rounds.iter().map(|r| num(r.crawl.visits_per_s())).collect()),
    );
    out.fact("store_bytes", int(store_bytes));
    out.latency_facts(&visit_us);

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
        out.metric("detect_instance_f1", report.instance_scores.f1, "ratio");
        out.metric("detect_key_f1", report.key_scores.f1, "ratio");
        return Ok(out);
    }

    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let mut spans = Vec::new();
    let mut windows = Vec::new();
    let (mut visits, mut complete, mut ops) = (0u64, 0u64, 0u64);
    for r in &traced {
        for share in &r.crawl.shares {
            spans.extend(share.spans.iter().copied());
            windows.push(share.window);
            visits += share.visits;
            complete += share.complete;
            ops += share.cookie_ops;
        }
    }
    let trace = Trace::new(spans);
    let mut layers = Layers::default();
    layers.add_spans(&trace, traced.len());
    layers.set("browser.cookie_ops_per_visit", ops as f64 / visits as f64);
    layers.set("browser.complete_ratio", complete as f64 / visits as f64);
    layers.set(
        "crawlstore.bytes_per_visit",
        store_bytes as f64 / SITES as f64,
    );
    // Untraced against traced rounds of the same sample, so that the
    // samples' different costs do not count as overhead; all rounds when
    // no sample was crawled both ways.
    let ratios: Vec<f64> = (0..SAMPLES)
        .filter_map(|k| {
            let p: Vec<&Round> = plain.iter().copied().filter(|r| r.sample == k).collect();
            let t: Vec<&Round> = traced.iter().copied().filter(|r| r.sample == k).collect();
            (!p.is_empty() && !t.is_empty()).then(|| rate(&p) / rate(&t))
        })
        .collect();
    let ratio = if ratios.is_empty() {
        rate(&plain) / rate(&traced)
    } else {
        median(&ratios)
    };
    layers.set("trace.overhead_pct", 100.0 * (ratio - 1.0));
    layers.set("unattributed_pct", trace.unattributed_pct(&windows));
    layers.emit(&mut out, &trace, traced.len());
    Ok(out)
}
