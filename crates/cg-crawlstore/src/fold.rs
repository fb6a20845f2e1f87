//! The parallel fold: N workers claim chunks of the store's segments
//! one at a time, fold each with a caller-supplied closure, and the
//! per-chunk partials come back **in (segment, chunk) order** — so the
//! result is a deterministic function of the store's contents,
//! independent of worker count or scheduling.
//!
//! Why this is sound: segments hold *disjoint* rank sets (the writer
//! hands every worker a fresh file and ranks come from one atomic
//! counter), each segment is internally rank-sorted, the manifest lists
//! segments in a fixed (file-name-sorted) order, and the chunks of one
//! segment hold disjoint, contiguous rank ranges in file order
//! ([`plan_chunks`]). Any fold whose merge is associative over disjoint
//! rank ranges therefore produces byte-identical output at 1 thread and
//! at N — the property the analysis layer's differential tests pin.
//!
//! The store layer stays below analysis: this module knows nothing
//! about statistics. `cg-analysis` and `cg-detect` supply the mergeable
//! partial types (`Dataset` partials, `StreamStats`, `DetectStats`).

use crate::chunk::{plan_chunks, ChunkStream, ReadBackend};
use crate::StoreError;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Folds every chunk of the store at `dir` with `fold_chunk`, using up
/// to `threads` workers, and returns the partials **in (segment,
/// chunk) order** — the fixed reduce order that keeps parallel results
/// byte-identical at any thread count.
///
/// Segments are cut at frame-index stride boundaries (sidecar `.idx`
/// files, rebuilt by a header scan when absent or refused), so even a
/// single-segment store saturates every worker. `backend` is
/// [`ReadBackend::Mmap`] (positioned reads wherever mapping fails).
///
/// Workers pull chunk indices from a shared counter (work stealing, so
/// skewed segments load-balance); memory is bounded by
/// `threads × (one chunk window + one partial)`.
pub fn par_fold_with<T, F>(
    dir: impl AsRef<Path>,
    threads: usize,
    backend: ReadBackend,
    fold_chunk: F,
) -> Result<Vec<T>, StoreError>
where
    T: Send,
    F: Fn(ChunkStream) -> Result<T, StoreError> + Sync,
{
    let plan = plan_chunks(dir)?;
    let count = plan.len();
    let threads = threads.max(1).min(count.max(1));
    let fold_one = |i: usize| -> Result<T, StoreError> {
        crate::telemetry::metrics().fold_shards.incr();
        let _span = cg_telemetry::span!("fold_shard", i);
        fold_chunk(plan.open_chunk(i, backend)?)
    };
    if threads <= 1 {
        return (0..count).map(fold_one).collect();
    }

    let results: Vec<Mutex<Option<Result<T, StoreError>>>> =
        (0..count).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    return;
                }
                *results[i].lock().expect("result slot lock poisoned") = Some(fold_one(i));
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock poisoned")
                .expect("every chunk index was claimed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::SegmentFormat;
    use crate::manifest::Fingerprint;
    use crate::writer::CrawlWriter;
    use cg_instrument::VisitLog;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cg-fold-{tag}-{}", std::process::id()));
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
            complete: true,
            ..VisitLog::default()
        }
    }

    fn fill(dir: &std::path::Path, segments: usize, ranks: usize) {
        let store = CrawlWriter::open(dir, fp()).unwrap();
        let mut segs: Vec<_> = (0..segments).map(|_| store.segment().unwrap()).collect();
        for rank in 1..=ranks {
            segs[rank % segments].record(&log(rank)).unwrap();
        }
        for seg in segs {
            seg.finish().unwrap();
        }
    }

    #[test]
    fn partials_come_back_in_chunk_order_at_any_thread_count() {
        let dir = tmp_dir("order");
        fill(&dir, 4, 300);
        let fold = |chunk: ChunkStream| {
            chunk
                .map(|r| r.map(|l| l.rank))
                .collect::<Result<Vec<_>, _>>()
        };
        let sequential = par_fold_with(&dir, 1, ReadBackend::Mmap, fold).unwrap();
        assert!(sequential.len() > 4, "segments span several chunks");
        for threads in [2, 4, 8] {
            assert_eq!(
                par_fold_with(&dir, threads, ReadBackend::Mmap, fold).unwrap(),
                sequential
            );
        }
        // Partials cover the store exactly.
        let total: usize = sequential.iter().map(Vec::len).sum();
        assert_eq!(total, 300);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_folds_to_no_partials() {
        let dir = tmp_dir("empty");
        drop(CrawlWriter::open(&dir, fp()).unwrap());
        let partials = par_fold_with(&dir, 8, ReadBackend::Mmap, |c| Ok(c.count())).unwrap();
        assert!(partials.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_errors_surface_from_parallel_workers() {
        let dir = tmp_dir("err");
        fill(&dir, 3, 30);
        // Damage one segment mid-file after the store is closed.
        let mut bytes = std::fs::read(dir.join("seg-1.bin")).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(dir.join("seg-1.bin"), &bytes).unwrap();
        let result = par_fold_with(&dir, 4, ReadBackend::Mmap, |c| {
            c.map(|r| r.map(|_| 1usize)).sum::<Result<usize, _>>()
        });
        assert!(matches!(result, Err(StoreError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
