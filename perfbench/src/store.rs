//! What more than one workload needs: the web, the seeded sample of
//! its sites, a durable crawl into a fresh binary store, the store
//! checks, and detection scoring.
//!
//! Every workload draws on one fixed synthetic web: the paper-scale
//! 20,000-site configuration at the repository's canonical seed. The
//! workload seed picks which [`SITES`] of its sites a run crawls,
//! analyzes or serves. A seed therefore changes the inputs the way a
//! different sample of a real crawl list would, while the vendor
//! ecosystem, and with it the detector's ground truth, stays the same.

use crate::trace::{now_ns, Span, SpanLog};
use cg_analysis::StreamStats;
use cg_browser::{crawl_into, visit_site, SinkWorker, VisitConfig, VisitOutcome, VisitSink};
use cg_crawlstore::{
    open_store_with, par_fold_with, CrawlWriter, ReadBackend, SegmentFormat, SegmentWriter,
    StoreError,
};
use cg_detect::{DetectConfig, DetectEngine, DetectReport, DetectStats, Stages};
use cg_webgen::{CookieLabels, GenConfig, WebGenerator};
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Salt `cg_browser::crawl_into` mixes into each site seed to get the
/// visit seed. The traced crawl loop uses it to visit exactly what the
/// program's crawl visits; the crawl check compares both against the
/// program's own crawl, so a change of the salt fails that check.
const VISIT_SEED_SALT: u64 = 0x51_7e;

/// Workers of every crawl, fold and serve loop (the host has two cores).
pub const WORKERS: usize = 2;

/// Seed of the web every sample is drawn from.
pub const WEB_SEED: u64 = 0xC00C1E;

/// Sites per sample: every workload crawls, analyzes or serves the
/// same store.
pub const SITES: usize = 2_000;

/// The paper-scale synthetic web (`GenConfig::default()`: 20,000 sites).
pub fn generator() -> WebGenerator {
    WebGenerator::new(GenConfig::default(), WEB_SEED)
}

/// SplitMix64, as a counter-mode stream.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` distinct ranks of `1..=web`, drawn by `seed`, ascending.
pub fn sample(seed: u64, n: usize, web: usize) -> Vec<usize> {
    samples(seed, n, 1, web).remove(0)
}

/// `count` disjoint samples of `n` ranks of `1..=web`, drawn by `seed`,
/// each ascending. The first is [`sample`]`(seed, n, web)`.
pub fn samples(seed: u64, n: usize, count: usize, web: usize) -> Vec<Vec<usize>> {
    let total = n * count;
    assert!(total <= web, "samples larger than the web");
    let mut pool: Vec<usize> = (1..=web).collect();
    for i in 0..total {
        let r = splitmix64(seed.wrapping_mul(0x100_0000_01b3).wrapping_add(i as u64));
        let j = i + (r % (web - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool[..total]
        .chunks(n)
        .map(|c| {
            let mut c = c.to_vec();
            c.sort_unstable();
            c
        })
        .collect()
}

/// The detector, compiled from the generator's ground truth.
pub fn detect_engine(gen: &WebGenerator) -> DetectEngine {
    DetectEngine::compile(
        &CookieLabels::derive(gen.registry()),
        cg_entity::builtin_entity_map(),
        DetectConfig::default(),
    )
}

/// One crawl worker's share of a crawl.
#[derive(Default)]
pub struct CrawlShare {
    pub visits: u64,
    pub complete: u64,
    pub cookie_ops: u64,
    /// Per visit: from the worker's previous visit being recorded (or
    /// its start) to `SegmentWriter::record` returning.
    pub visit_ns: Vec<u64>,
    /// `(lane, start, end)` of the worker's loop.
    pub window: (u32, u64, u64),
    /// When the worker last recorded a visit, or started.
    last_ns: u64,
    pub spans: Vec<Span>,
}

/// A finished crawl into a fresh store.
pub struct Crawl {
    pub shares: Vec<CrawlShare>,
    /// Store open → every segment finished.
    pub wall_ns: u64,
    pub store_bytes: u64,
}

impl Crawl {
    pub fn visits(&self) -> u64 {
        self.shares.iter().map(|s| s.visits).sum()
    }

    /// Durable visits per second of wall time.
    pub fn visits_per_s(&self) -> f64 {
        self.visits() as f64 / (self.wall_ns as f64 / 1e9)
    }
}

impl CrawlShare {
    fn started(lane: u32) -> CrawlShare {
        let now = now_ns();
        CrawlShare {
            window: (lane, now, 0),
            last_ns: now,
            ..CrawlShare::default()
        }
    }

    /// Counts a visit that has just been recorded.
    fn recorded(&mut self, complete: bool, cookie_ops: usize) {
        let now = now_ns();
        self.visit_ns.push(now - self.last_ns);
        self.last_ns = now;
        self.visits += 1;
        self.complete += u64::from(complete);
        self.cookie_ops += cookie_ops as u64;
    }
}

/// The program's store sink (`CrawlWriter`), restricted to a sample of
/// ranks, timing each visit as it is recorded.
struct SampleWriter<'a> {
    inner: &'a CrawlWriter,
    ranks: HashSet<usize>,
    shares: Mutex<Vec<CrawlShare>>,
}

struct TimedSegment {
    seg: SegmentWriter,
    share: CrawlShare,
}

impl SinkWorker for TimedSegment {
    fn record(&mut self, outcome: VisitOutcome) -> std::io::Result<()> {
        let (complete, cookie_ops) = (outcome.log.complete, outcome.cookie_ops);
        SinkWorker::record(&mut self.seg, outcome)?;
        self.share.recorded(complete, cookie_ops);
        Ok(())
    }
}

impl VisitSink for SampleWriter<'_> {
    type Worker = TimedSegment;

    fn is_done(&self, rank: usize) -> bool {
        !self.ranks.contains(&rank) || self.inner.is_done(rank)
    }

    fn worker(&self, index: usize) -> std::io::Result<TimedSegment> {
        let seg = self.inner.worker(index)?;
        Ok(TimedSegment {
            seg,
            share: CrawlShare::started(index as u32),
        })
    }

    fn merge(&self, worker: TimedSegment) -> std::io::Result<()> {
        let TimedSegment { seg, mut share } = worker;
        self.inner.merge(seg)?;
        share.window.2 = now_ns();
        self.shares.lock().expect("share lock poisoned").push(share);
        Ok(())
    }
}

/// Crawls `ranks` (ascending) of `gen` with `VisitConfig::regular()`
/// into a fresh binary store at `dir`. A closed loop: each of the
/// [`WORKERS`] takes the next rank once `record` has accepted its
/// previous visit, and the crawl ends when every segment is finished
/// (durable).
///
/// Untraced, this is the program's crawl path: `cg_browser::crawl_into`
/// into the store's `CrawlWriter`, through a sink that skips ranks
/// outside the sample and times each visit. Traced, it is the
/// benchmark's own copy of that loop, with a span around each layer's
/// call (`blueprint`, `visit_site`, `record`, `finish`).
pub fn crawl(
    gen: &WebGenerator,
    dir: &Path,
    ranks: &[usize],
    trace: bool,
) -> Result<Crawl, StoreError> {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = VisitConfig::regular();
    let started = now_ns();
    let store = open_store_with(dir, gen, &cfg, 1, gen.site_count(), SegmentFormat::Binary)?;
    let shares = if trace {
        traced_crawl(gen, &store, &cfg, ranks)?
    } else {
        let sink = SampleWriter {
            inner: &store,
            ranks: ranks.iter().copied().collect(),
            shares: Mutex::new(Vec::new()),
        };
        let last = ranks.last().copied().unwrap_or(0);
        crawl_into(gen, &cfg, 1, last, WORKERS, &sink)?;
        sink.shares.into_inner().expect("share lock poisoned")
    };
    let wall_ns = now_ns() - started;
    let store_bytes = store.stats()?.bytes;
    Ok(Crawl {
        shares,
        wall_ns,
        store_bytes,
    })
}

/// The crawl loop of `cg_browser::crawl_into` over `ranks`, with a span
/// around each layer's call.
fn traced_crawl(
    gen: &WebGenerator,
    store: &CrawlWriter,
    cfg: &VisitConfig,
    ranks: &[usize],
) -> Result<Vec<CrawlShare>, StoreError> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let next = &next;
                scope.spawn(move || -> Result<CrawlShare, StoreError> {
                    let lane = w as u32;
                    let mut log = SpanLog::new(true, lane, None);
                    let mut share = CrawlShare::started(lane);
                    let mut seg = store.segment()?;
                    while let Some(&rank) = ranks.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let site = log.time("webgen.blueprint", || gen.blueprint(rank));
                        let seed = gen.site_seed(rank) ^ VISIT_SEED_SALT;
                        let outcome = log.time("browser.visit", || visit_site(&site, cfg, seed));
                        log.time("crawlstore.record", || seg.record(&outcome.log))?;
                        share.recorded(outcome.log.complete, outcome.cookie_ops);
                    }
                    log.time("crawlstore.finish", || seg.finish())?;
                    share.window.2 = now_ns();
                    share.spans = log.into_spans();
                    Ok(share)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("crawl worker panicked"))
            .collect()
    })
}

/// What a store holds: its ranks (sorted) and its `StreamStats`.
pub struct StoreContents {
    pub ranks: Vec<usize>,
    pub stats: StreamStats,
}

/// Reads the whole store back at [`WORKERS`] threads over mmap.
pub fn contents(dir: &Path) -> Result<StoreContents, StoreError> {
    let partials = par_fold_with(dir, WORKERS, ReadBackend::Mmap, |chunk| {
        let mut ranks = Vec::new();
        let mut stats = StreamStats::default();
        for log in chunk {
            let log = log?;
            ranks.push(log.rank);
            stats.fold(&log);
        }
        Ok((ranks, stats))
    })?;
    let mut ranks = Vec::new();
    let mut stats = StreamStats::default();
    for (r, s) in partials {
        ranks.extend(r);
        stats = stats.merge(s);
    }
    ranks.sort_unstable();
    Ok(StoreContents { ranks, stats })
}

/// Ranks of `expected` that `found` misses or holds more than once,
/// plus ranks `found` holds that `expected` lacks (both ascending).
pub fn rank_mismatches(found: &[usize], expected: &[usize]) -> u64 {
    let (mut i, mut j, mut bad) = (0, 0, 0u64);
    while i < found.len() || j < expected.len() {
        match (found.get(i), expected.get(j)) {
            (Some(f), Some(e)) if f == e => {
                i += 1;
                j += 1;
                // Further copies of the same rank are duplicates.
                while found.get(i) == Some(f) {
                    bad += 1;
                    i += 1;
                }
            }
            (Some(f), Some(e)) if f < e => {
                bad += 1;
                i += 1;
            }
            (Some(_), None) => {
                bad += 1;
                i += 1;
            }
            _ => {
                bad += 1;
                j += 1;
            }
        }
    }
    bad
}

/// A crawl sink that visits only `ranks` and folds each visit into
/// `StreamStats`, keeping nothing else.
struct SampleFold<'a> {
    ranks: &'a HashSet<usize>,
    total: Mutex<StreamStats>,
}

struct Folder(StreamStats);

impl SinkWorker for Folder {
    fn record(&mut self, outcome: VisitOutcome) -> std::io::Result<()> {
        self.0.fold(&outcome.log);
        Ok(())
    }
}

impl VisitSink for SampleFold<'_> {
    type Worker = Folder;

    fn is_done(&self, rank: usize) -> bool {
        !self.ranks.contains(&rank)
    }

    fn worker(&self, _index: usize) -> std::io::Result<Folder> {
        Ok(Folder(StreamStats::default()))
    }

    fn merge(&self, worker: Folder) -> std::io::Result<()> {
        let mut total = self.total.lock().expect("stats lock poisoned");
        *total = std::mem::take(&mut *total).merge(worker.0);
        Ok(())
    }
}

/// Visits `ranks` in memory through the program's own crawl loop
/// (`cg_browser::crawl_into`) and folds them into `StreamStats`.
pub fn crawl_in_memory(gen: &WebGenerator, ranks: &[usize]) -> StreamStats {
    let set: HashSet<usize> = ranks.iter().copied().collect();
    let sink = SampleFold {
        ranks: &set,
        total: Mutex::new(StreamStats::default()),
    };
    let last = ranks.last().copied().unwrap_or(0);
    crawl_into(gen, &VisitConfig::regular(), 1, last, WORKERS, &sink)
        .expect("in-memory sink cannot fail");
    sink.total.into_inner().expect("stats lock poisoned")
}

/// Detection scores of the store at `dir` against ground truth.
pub fn detect_report(engine: &DetectEngine, dir: &Path) -> Result<DetectReport, StoreError> {
    let stats =
        DetectStats::from_store_with(engine, Stages::Full, dir, WORKERS, ReadBackend::Mmap)?;
    Ok(DetectReport::from_stats(&stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_check_counts_missing_duplicate_and_stray_ranks() {
        assert_eq!(rank_mismatches(&[1, 5, 9], &[1, 5, 9]), 0);
        assert_eq!(rank_mismatches(&[1, 9], &[1, 5, 9]), 1);
        assert_eq!(rank_mismatches(&[1, 5, 5, 9], &[1, 5, 9]), 1);
        assert_eq!(rank_mismatches(&[0, 1, 5, 9, 12], &[1, 5, 9]), 2);
        assert_eq!(rank_mismatches(&[], &[1, 5]), 2);
    }

    #[test]
    fn sample_is_seeded_distinct_sorted_and_in_range() {
        let a = sample(7, 500, 20_000);
        assert_eq!(a, sample(7, 500, 20_000));
        assert_ne!(a, sample(8, 500, 20_000));
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a[0] >= 1 && a[499] <= 20_000);
        assert_eq!(sample(1, 10, 10), (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn samples_are_disjoint_and_start_with_the_sample() {
        let s = samples(7, 500, 3, 20_000);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0], sample(7, 500, 20_000));
        let all: HashSet<usize> = s.iter().flatten().copied().collect();
        assert_eq!(all.len(), 1_500);
        assert!(s
            .iter()
            .all(|c| c.len() == 500 && c.windows(2).all(|w| w[0] < w[1])));
    }
}
