//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A [`SpanLog`] belongs to one thread and keeps its spans in memory
//! until the run ends. A disabled log reads no clock and stores
//! nothing, so untraced runs record no spans. Span names carry their
//! layer as a prefix (`browser.visit`, `crawlstore.record`); names
//! under `bench.` mark the benchmark's own grouping spans (a round, a
//! phase), which attribute no time to any layer.
//!
//! Each span belongs to a *lane*: one thread that drives the result (a
//! crawl worker, a serve worker, or the analyze main thread). Spans a
//! lane causes on helper threads — the fold workers inside
//! `par_fold_with` — carry the lane of the span that caused them, so
//! a lane's attributed time is the union of its layer spans, wherever
//! they ran.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (shared by every
/// thread, so spans from different threads compare).
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Small dense id of the calling thread.
pub fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub thread: u32,
    pub lane: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Lane of set-up spans, outside every timed window.
pub const SETUP_LANE: u32 = 99;

/// True for spans that attribute time to a program layer.
pub fn is_layer(name: &str) -> bool {
    !name.starts_with("bench.")
}

/// Handle of an open span (inert when the log is disabled).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// A thread's span buffer.
pub struct SpanLog {
    on: bool,
    lane: u32,
    base_parent: Option<u64>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log for spans of `lane`; top-level spans get `parent`.
    pub fn new(on: bool, lane: u32, parent: Option<u64>) -> SpanLog {
        SpanLog {
            on,
            lane,
            base_parent: parent,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        let parent = match self.open.last() {
            Some(&i) => Some(self.spans[i].id),
            None => self.base_parent,
        };
        self.spans.push(Span {
            name,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            thread: thread_id(),
            lane: self.lane,
            start: now_ns(),
            end: 0,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end = now_ns();
            let top = self.open.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Id of an open span, to parent spans recorded on other threads.
    pub fn id(&self, open: Open) -> Option<u64> {
        open.0.map(|i| self.spans[i].id)
    }

    /// Times `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn extend(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "span log dropped with open spans");
        self.spans
    }
}

/// Length of the union of `intervals` clipped to `window`.
pub fn covered(window: (u64, u64), intervals: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(s, e)| (s.max(window.0), e.min(window.1)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// A span's duration minus the part of its interval its children cover.
/// Children may nest, overlap each other (on other threads) or run past
/// the parent's end; each instant is subtracted once.
pub fn self_time(parent: &Span, children: &[Span]) -> u64 {
    parent.dur()
        - covered(
            (parent.start, parent.end),
            children.iter().map(|c| (c.start, c.end)),
        )
}

/// All spans of a run, with lookups for the per-layer metrics.
pub struct Trace {
    spans: Vec<Span>,
    children: HashMap<u64, Vec<usize>>,
}

impl Trace {
    pub fn new(spans: Vec<Span>) -> Trace {
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(i);
            }
        }
        Trace { spans, children }
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations of every span called `name`, in `scale` nanoseconds.
    pub fn durations(&self, name: &str, scale: f64) -> Vec<f64> {
        self.named(name).map(|s| s.dur() as f64 / scale).collect()
    }

    pub fn children(&self, span: &Span) -> Vec<Span> {
        self.children
            .get(&span.id)
            .map(|ids| ids.iter().map(|&i| self.spans[i]).collect())
            .unwrap_or_default()
    }

    /// Self time of every span name (see [`self_time`]), in ms,
    /// divided by `rounds`, largest first.
    pub fn self_ms(&self, rounds: usize) -> Vec<(&'static str, f64)> {
        let mut by_name: HashMap<&'static str, u64> = HashMap::new();
        for s in &self.spans {
            *by_name.entry(s.name).or_default() += self_time(s, &self.children(s));
        }
        let mut out: Vec<_> = by_name
            .into_iter()
            .map(|(name, ns)| (name, ns as f64 / 1e6 / rounds.max(1) as f64))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// Share (in %) of the lane windows that no layer span of the lane
    /// covers. `windows` holds `(lane, start, end)`.
    pub fn unattributed_pct(&self, windows: &[(u32, u64, u64)]) -> f64 {
        let (mut wall, mut open) = (0u64, 0u64);
        for &(lane, start, end) in windows {
            let cov = covered(
                (start, end),
                self.spans
                    .iter()
                    .filter(|s| s.lane == lane && is_layer(s.name))
                    .map(|s| (s.start, s.end)),
            );
            wall += end - start;
            open += (end - start) - cov;
        }
        if wall == 0 {
            0.0
        } else {
            100.0 * open as f64 / wall as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            name: "x",
            id,
            parent,
            thread: 0,
            lane: 0,
            start,
            end,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(covered((0, 100), []), 0);
        assert_eq!(covered((0, 100), [(10, 20), (15, 30), (50, 60)]), 30);
        assert_eq!(covered((0, 100), [(90, 150), (0, 5)]), 15);
        assert_eq!(covered((10, 20), [(0, 100)]), 10);
        // Touching intervals merge without double counting.
        assert_eq!(covered((0, 100), [(10, 20), (20, 30)]), 20);
    }

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        let parent = span(1, None, 0, 100);
        // Two children overlapping each other (as on two fold threads),
        // one disjoint child, and one that runs past the parent's end.
        let children = [
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 60, 70),
            span(5, Some(1), 90, 120),
        ];
        // Covered: [10,50) + [60,70) + [90,100) = 40 + 10 + 10.
        assert_eq!(self_time(&parent, &children), 40);
        // A grandchild nests inside its child: it changes the child's
        // self time, never the parent's.
        let child = children[1];
        let grandchild = span(6, Some(3), 25, 45);
        assert_eq!(self_time(&child, &[grandchild]), 10);
        assert_eq!(self_time(&parent, &children), 40);
        // A child identical to its parent leaves no self time.
        assert_eq!(self_time(&parent, &[span(7, Some(1), 0, 100)]), 0);
    }

    #[test]
    fn trace_links_children_and_counts_unattributed_time() {
        let mut top = span(1, None, 0, 100);
        top.name = "bench.round";
        let mut a = span(2, Some(1), 0, 40);
        a.name = "browser.visit";
        let mut b = span(3, Some(1), 50, 80);
        b.name = "crawlstore.record";
        b.lane = 0;
        let mut other_lane = span(4, None, 0, 100);
        other_lane.name = "browser.visit";
        other_lane.lane = 1;
        let trace = Trace::new(vec![top, a, b, other_lane]);
        assert_eq!(trace.children(&top), vec![a, b]);
        // Lane 0: 100 ns of wall, 70 covered by layer spans (the bench
        // span covers nothing); lane 1 is fully covered.
        assert_eq!(trace.unattributed_pct(&[(0, 0, 100)]), 30.0);
        assert_eq!(trace.unattributed_pct(&[(0, 0, 100), (1, 0, 100)]), 15.0);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, 0, None);
        let open = log.begin("browser.visit");
        log.end(open);
        assert_eq!(log.time("webgen.blueprint", || 7), 7);
        assert!(log.into_spans().is_empty());
    }

    #[test]
    fn enabled_log_nests_spans() {
        let mut log = SpanLog::new(true, 3, Some(99));
        let outer = log.begin("bench.round");
        let outer_id = log.id(outer);
        log.time("browser.visit", || ());
        log.end(outer);
        let spans = log.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(99));
        assert_eq!(spans[1].parent, outer_id);
        assert!(spans.iter().all(|s| s.lane == 3 && s.end >= s.start));
    }
}
