//! The rank-ordered read path: a k-way merge over the store's
//! segments, each pulled chunk by chunk through the chunk plan's window
//! decoder — one open chunk window per segment in memory.

use crate::chunk::{plan_chunks, ChunkPlan, ChunkStream, ReadBackend};
use crate::codec;
use crate::manifest::Fingerprint;
use crate::StoreError;
use cg_instrument::VisitLog;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::path::Path;

/// One segment's place in the merge: its unopened chunks, the open one,
/// and the verified payload of its head frame.
struct SegmentCursor {
    /// Plan indices of the segment's chunks not yet opened.
    chunks: Range<usize>,
    stream: Option<ChunkStream>,
    /// Payload range of the head frame within `stream`'s window.
    head: Range<usize>,
}

/// Streams a store's [`VisitLog`]s back in rank order without
/// materializing the crawl: a k-way merge whose memory footprint is one
/// chunk window per segment, independent of crawl size. Segments hold
/// internally rank-sorted runs that interleave across segments, so the
/// merge orders them; each segment's frames are verified by the same
/// window decoder the parallel folds use.
///
/// ```no_run
/// use cg_crawlstore::CrawlReader;
///
/// let reader = CrawlReader::open("crawl-dir").unwrap();
/// for log in reader {
///     let log = log.unwrap(); // rank-ordered
///     if log.complete {
///         // feed an incremental analysis…
///     }
/// }
/// ```
pub struct CrawlReader {
    plan: ChunkPlan,
    segments: Vec<SegmentCursor>,
    /// `(head rank, segment)` of every segment with frames left.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Set once an error is yielded; the iterator then fuses.
    failed: bool,
}

impl CrawlReader {
    /// Opens the store at `dir` for streaming. Requires a manifest (the
    /// store must have been created by [`CrawlWriter`](crate::CrawlWriter)),
    /// and reads exactly the manifest's durable watermark of every
    /// listed segment: anything short of it is corruption (an error,
    /// never a silently smaller dataset), anything past it — e.g. a
    /// live writer's in-flight batch — is not yet durable and is left
    /// alone. Re-open after the next checkpoint to see more.
    pub fn open(dir: impl AsRef<Path>) -> Result<CrawlReader, StoreError> {
        let plan = plan_chunks(dir)?;
        let mut segments: Vec<SegmentCursor> = (0..plan.segments())
            .map(|_| SegmentCursor {
                chunks: 0..0,
                stream: None,
                head: 0..0,
            })
            .collect();
        // The plan lists chunks in (segment, chunk) order, so each
        // segment's chunks are one contiguous index range.
        for (i, spec) in plan.chunks().iter().enumerate() {
            let chunks = &mut segments[spec.segment].chunks;
            if chunks.end == 0 {
                chunks.start = i;
            }
            chunks.end = i + 1;
        }
        let mut reader = CrawlReader {
            plan,
            segments,
            heap: BinaryHeap::new(),
            failed: false,
        };
        for seg in 0..reader.segments.len() {
            if let Some(rank) = reader.advance(seg)? {
                reader.heap.push(Reverse((rank, seg)));
            }
        }
        Ok(reader)
    }

    /// The crawl this store belongs to.
    pub fn fingerprint(&self) -> &Fingerprint {
        &self.plan.fingerprint
    }

    /// Moves segment `seg` to its next verified frame, opening its next
    /// chunk when the current one is spent; the frame's rank, or `None`
    /// once the segment's durable frames are all out.
    fn advance(&mut self, seg: usize) -> Result<Option<u64>, StoreError> {
        let cur = &mut self.segments[seg];
        loop {
            if let Some(stream) = &mut cur.stream {
                if let Some((rank, payload)) = stream.next_frame()? {
                    cur.head = payload;
                    return Ok(Some(rank));
                }
                cur.stream = None;
            }
            let Some(i) = cur.chunks.next() else {
                return Ok(None);
            };
            cur.stream = Some(self.plan.open_chunk(i, ReadBackend::Mmap)?);
        }
    }

    /// Renders the lowest-rank head with `render`, then refills its
    /// segment. Any error is yielded once, then the merge fuses.
    fn pop<T>(
        &mut self,
        render: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> Option<Result<T, StoreError>> {
        if self.failed {
            return None;
        }
        let Reverse((_, seg)) = self.heap.pop()?;
        let cur = &self.segments[seg];
        let stream = cur
            .stream
            .as_ref()
            .expect("a queued segment has an open chunk");
        let item = stream.decode(cur.head.clone(), render);
        let item = self.advance(seg).and_then(|next| {
            self.heap.extend(next.map(|rank| Reverse((rank, seg))));
            item
        });
        self.failed = item.is_err();
        Some(item)
    }

    /// The rank-ordered stream as compact JSON lines: each frame is
    /// decoded to its content tree and printed through
    /// [`codec::content_to_json_line`], byte-identical to
    /// `serde_json::to_string` of the logged visit. Two stores of the
    /// same crawl are equivalent iff these streams are byte-identical —
    /// the durability tests' oracle, and what `cg-experiments dump`
    /// prints.
    pub fn raw_lines(self) -> RawLines {
        RawLines(self)
    }
}

impl Iterator for CrawlReader {
    type Item = Result<VisitLog, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.pop(codec::decode_visit_log)
    }
}

/// Iterator over a store's merged records as compact JSON lines (see
/// [`CrawlReader::raw_lines`]).
pub struct RawLines(CrawlReader);

impl Iterator for RawLines {
    type Item = Result<String, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.0
            .pop(|payload| codec::decode_content(payload).map(|c| codec::content_to_json_line(&c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::SegmentFormat;
    use crate::manifest::Manifest;
    use crate::writer::CrawlWriter;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cg-reader-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fp() -> Fingerprint {
        Fingerprint {
            master_seed: 1,
            from: 1,
            to: 100,
            visit_config: "cfg".into(),
            generator: "gen".into(),
            format: SegmentFormat::Binary,
        }
    }

    fn log(rank: usize) -> VisitLog {
        VisitLog {
            site_domain: format!("site{rank}.com"),
            rank,
            complete: !rank.is_multiple_of(3),
            ..VisitLog::default()
        }
    }

    fn ranks(dir: &Path) -> Vec<usize> {
        CrawlReader::open(dir)
            .unwrap()
            .map(|l| l.unwrap().rank)
            .collect()
    }

    #[test]
    fn merge_is_rank_ordered_across_segments() {
        let dir = tmp_dir("merge");
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        // Interleave ranks across three segments, none sorted globally,
        // each long enough to span several chunks.
        let mut segs = [
            store.segment().unwrap(),
            store.segment().unwrap(),
            store.segment().unwrap(),
        ];
        for rank in 1..=300usize {
            segs[rank % 3].record(&log(rank)).unwrap();
        }
        for seg in segs {
            seg.finish().unwrap();
        }
        assert!(plan_chunks(&dir).unwrap().len() > 3);
        assert_eq!(ranks(&dir), (1..=300).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn raw_lines_match_reserialized_logs() {
        let dir = tmp_dir("raw");
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        let mut seg = store.segment().unwrap();
        for rank in [5usize, 7, 9] {
            seg.record(&log(rank)).unwrap();
        }
        seg.finish().unwrap();
        let raw: Vec<String> = CrawlReader::open(&dir)
            .unwrap()
            .raw_lines()
            .map(|l| l.unwrap())
            .collect();
        let reser: Vec<String> = [5usize, 7, 9]
            .iter()
            .map(|&r| serde_json::to_string(&log(r)).unwrap())
            .collect();
        assert_eq!(raw, reser);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_backfilled_lower_ranks_merge_in_order() {
        let dir = tmp_dir("backfill");
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        let mut a = store.segment().unwrap();
        for r in [1usize, 3, 5] {
            a.record(&log(r)).unwrap();
        }
        a.finish().unwrap();
        let mut b = store.segment().unwrap();
        for r in [4usize, 6] {
            b.record(&log(r)).unwrap();
        }
        b.finish().unwrap();
        drop(store);
        // Resume back-fills the hole (rank 2, below every segment's max
        // rank) — it lands in a fresh segment, so the merge stays
        // correct instead of burying 2 behind 5.
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        assert!(!store.done_ranks().contains(&2));
        let mut c = store.segment().unwrap();
        c.record(&log(2)).unwrap();
        c.finish().unwrap();
        drop(store);
        assert_eq!(ranks(&dir), vec![1, 2, 3, 4, 5, 6]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsorted_segment_is_refused_not_misordered() {
        let dir = tmp_dir("unsorted");
        std::fs::create_dir_all(&dir).unwrap();
        // A hand-written store (as a foreign writer might leave) whose
        // segment violates the sorted-run invariant but whose manifest
        // claims it durable.
        let mut bytes = Vec::new();
        for rank in [5usize, 2] {
            let mut payload = Vec::new();
            codec::encode_visit_log(&log(rank), &mut payload);
            codec::write_frame(&mut bytes, rank as u64, &payload);
        }
        std::fs::write(dir.join("seg-7.bin"), &bytes).unwrap();
        let mut m = Manifest::new(fp());
        let seg = m.segment_mut("seg-7.bin");
        seg.synced_records = 2;
        seg.max_rank = 5;
        m.store(&dir).unwrap();
        // The reader surfaces the violation instead of emitting records
        // out of rank order…
        let results: Vec<_> = match CrawlReader::open(&dir) {
            Ok(r) => r.collect(),
            Err(e) => vec![Err(e)],
        };
        assert!(
            results.iter().any(|r| matches!(
                r,
                Err(StoreError::Corrupt { detail, .. }) if detail.contains("not rank-sorted")
            )),
            "descending rank must surface as corruption, got {results:?}"
        );
        // …writer recovery refuses to adopt the store at all…
        assert!(matches!(
            CrawlWriter::open(&dir, fp()),
            Err(StoreError::Corrupt { .. })
        ));
        // …and the writer never produces one.
        std::fs::remove_dir_all(&dir).unwrap();
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        let mut seg = store.segment().unwrap();
        seg.record(&log(5)).unwrap();
        assert!(matches!(
            seg.record(&log(2)),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_ignored_when_reading() {
        let dir = tmp_dir("torntail");
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        let mut seg = store.segment().unwrap();
        seg.record(&log(1)).unwrap();
        seg.finish().unwrap();
        drop(store);
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("seg-0.bin"))
            .unwrap();
        f.write_all(b"\x99\x00\x00").unwrap(); // half a frame header
        drop(f);
        assert_eq!(ranks(&dir), vec![1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
