//! Differential suite for the chunked read path: mapped windows and
//! the forced positioned-read fallback must produce byte-identical
//! streams at every thread count, the frame-index sidecar must
//! round-trip and rebuild, a damaged or stale sidecar must cost a
//! rescan — never a wrong result — and a segment shorter than its
//! manifest watermark must be a typed error, never a fault.

use cg_crawlstore::index::{decode_index, scan_index, INDEX_STRIDE};
use cg_crawlstore::{
    par_fold_with, plan_chunks, CrawlReader, CrawlWriter, Fingerprint, ReadBackend, SegmentFormat,
    StoreError,
};
use cg_instrument::VisitLog;
use std::fs::File;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cg-chunked-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fp() -> Fingerprint {
    Fingerprint {
        master_seed: 1,
        from: 1,
        to: 10_000,
        visit_config: "cfg".into(),
        generator: "gen".into(),
        format: SegmentFormat::Binary,
    }
}

fn log(rank: usize) -> VisitLog {
    VisitLog {
        site_domain: format!("site{rank}.com"),
        rank,
        complete: !rank.is_multiple_of(7),
        ..VisitLog::default()
    }
}

/// Writes `ranks` visits striped over `segments` segment files, so
/// every segment holds an ascending (but gapped) rank run long enough
/// to span several index strides.
fn fill(dir: &Path, segments: usize, ranks: usize) {
    let store = CrawlWriter::open(dir, fp()).unwrap();
    let mut segs: Vec<_> = (0..segments).map(|_| store.segment().unwrap()).collect();
    for rank in 1..=ranks {
        segs[rank % segments].record(&log(rank)).unwrap();
    }
    for seg in segs {
        seg.finish().unwrap();
    }
}

/// The mapped path and its positioned-read fallback, forced.
const BACKENDS: [ReadBackend; 2] = [ReadBackend::Mmap, ReadBackend::Pread];

/// The full serialized stream per chunk — rank order AND byte-level
/// `VisitLog` equality in one artifact.
fn drain(dir: &Path, threads: usize, backend: ReadBackend) -> Vec<Vec<String>> {
    par_fold_with(dir, threads, backend, |chunk| {
        chunk
            .map(|r| r.map(|l| serde_json::to_string(&l).expect("serialize")))
            .collect()
    })
    .unwrap()
}

#[test]
fn all_backends_and_thread_counts_agree() {
    let dir = tmp_dir("diff");
    // 3 segments × ~67 frames: several chunks per segment.
    fill(&dir, 3, 200);
    let baseline = drain(&dir, 1, ReadBackend::Pread);
    let total: usize = baseline.iter().map(Vec::len).sum();
    assert_eq!(total, 200);
    let plan = plan_chunks(&dir).unwrap();
    assert!(
        plan.len() > plan.segments(),
        "a {}-frame segment must split into multiple chunks",
        200 / 3
    );
    for backend in BACKENDS {
        for threads in [1, 2, 8] {
            assert_eq!(
                drain(&dir, threads, backend),
                baseline,
                "{backend:?} at {threads} threads diverged"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sidecar_round_trips_and_matches_a_rebuild() {
    let dir = tmp_dir("roundtrip");
    fill(&dir, 1, 100);
    let idx_path = dir.join("seg-0.idx");
    assert!(idx_path.exists(), "writer must emit the sidecar at commit");
    let written = decode_index(&std::fs::read(&idx_path).unwrap()).unwrap();
    assert_eq!(written.stride, INDEX_STRIDE);
    assert_eq!(
        written.entries.len(),
        100usize.div_ceil(INDEX_STRIDE as usize)
    );
    assert_eq!(written.entries[0].offset, 0);
    // The rebuild scan over the bare segment yields the same entries.
    let file = File::open(dir.join("seg-0.bin")).unwrap();
    let (rebuilt, _end) = scan_index(&file, "seg-0.bin", 100, INDEX_STRIDE).unwrap();
    assert_eq!(written, rebuilt);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_or_stale_sidecars_are_refused_not_believed() {
    let dir = tmp_dir("badidx");
    fill(&dir, 1, 120);
    let baseline = drain(&dir, 2, ReadBackend::Mmap);
    let idx_path = dir.join("seg-0.idx");
    let good = std::fs::read(&idx_path).unwrap();

    // No sidecar at all (an index-less store): same chunking, same
    // results from a rescan.
    std::fs::remove_file(&idx_path).unwrap();
    assert_eq!(drain(&dir, 2, ReadBackend::Mmap), baseline);

    // Bit-flip damage anywhere in the sidecar.
    for at in [0usize, 4, 9, 13, good.len() / 2, good.len() - 1] {
        let mut bad = good.clone();
        bad[at] ^= 0x55;
        std::fs::write(&idx_path, &bad).unwrap();
        assert_eq!(drain(&dir, 2, ReadBackend::Mmap), baseline);
    }

    // Truncated sidecar.
    std::fs::write(&idx_path, &good[..good.len() / 2]).unwrap();
    assert_eq!(drain(&dir, 2, ReadBackend::Mmap), baseline);

    // Structurally valid but stale: entries shifted off the real frame
    // boundaries. The header probes must reject it and rescan.
    let mut shifted = decode_index(&good).unwrap();
    for e in shifted.entries.iter_mut().skip(1) {
        e.offset += 3;
    }
    std::fs::write(
        &idx_path,
        cg_crawlstore::index::encode_index(shifted.stride, &shifted.entries),
    )
    .unwrap();
    assert_eq!(drain(&dir, 2, ReadBackend::Mmap), baseline);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn forged_count_sidecar_costs_a_rescan() {
    // The 22-byte sidecar that once aborted the process: valid magic,
    // version and stride, `count = u32::MAX` over a two-byte body, and a
    // forged (non-cryptographic) checksum to match.
    let dir = tmp_dir("forged");
    fill(&dir, 1, 120);
    let baseline = drain(&dir, 2, ReadBackend::Mmap);
    let count = u32::MAX;
    let body = [1u8, 1];
    let mut forged = Vec::new();
    forged.extend_from_slice(b"CGIX");
    forged.extend_from_slice(&1u32.to_le_bytes());
    forged.extend_from_slice(&INDEX_STRIDE.to_le_bytes());
    forged.extend_from_slice(&count.to_le_bytes());
    forged.extend_from_slice(&body);
    let prefix = (u64::from(INDEX_STRIDE) << 32) | u64::from(count);
    forged.extend_from_slice(&cg_hash::fnv1a32w(prefix, &body).to_le_bytes());
    assert_eq!(forged.len(), 22);
    assert!(decode_index(&forged).is_err());
    std::fs::write(dir.join("seg-0.idx"), &forged).unwrap();
    for backend in BACKENDS {
        assert_eq!(drain(&dir, 2, backend), baseline, "{backend:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mid_file_damage_surfaces_from_chunked_decodes() {
    let dir = tmp_dir("damage");
    fill(&dir, 1, 90);
    let path = dir.join("seg-0.bin");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    for backend in BACKENDS {
        let result = par_fold_with(&dir, 4, backend, |chunk| {
            chunk.map(|r| r.map(|_| 1u64)).sum::<Result<u64, _>>()
        });
        assert!(
            matches!(result, Err(StoreError::Corrupt { .. })),
            "{backend:?} streamed past mid-file damage"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Frames of about 40 KB each: a cut of 20,000 bytes lands inside the
/// last frame's payload, pages past the end of the shortened file.
fn fill_large_frames(dir: &Path, frames: usize) {
    let store = CrawlWriter::open(dir, fp()).unwrap();
    let mut seg = store.segment().unwrap();
    for rank in 1..=frames {
        seg.record(&VisitLog {
            site_domain: format!("{rank}.").repeat(20_000),
            ..log(rank)
        })
        .unwrap();
    }
    seg.finish().unwrap();
}

#[test]
fn segment_cut_below_its_watermark_is_an_error_not_a_fault() {
    // The planned chunk end comes from frame headers, which survive the
    // cut; mapping that range would fault on the unbacked pages past
    // EOF. The planner must refuse the store before any window exists.
    let dir = tmp_dir("sigbus");
    fill_large_frames(&dir, 5);
    let path = dir.join("seg-0.bin");
    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.len() > 5 * 40_000);
    std::fs::write(&path, &bytes[..bytes.len() - 20_000]).unwrap();
    let short = |r: Result<Vec<u64>, StoreError>| match r {
        Err(StoreError::Corrupt { detail, .. }) => {
            assert!(
                detail.contains("short of its manifest watermark"),
                "{detail}"
            );
        }
        other => panic!("a store short of its watermark was accepted: {other:?}"),
    };
    for backend in BACKENDS {
        short(par_fold_with(&dir, 1, backend, |chunk| {
            chunk.map(|r| r.map(|_| 1u64)).sum::<Result<u64, _>>()
        }));
    }
    short(CrawlReader::open(&dir).map(|_| Vec::new()));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_store_has_an_empty_plan() {
    let dir = tmp_dir("empty");
    drop(CrawlWriter::open(&dir, fp()).unwrap());
    let plan = plan_chunks(&dir).unwrap();
    assert!(plan.is_empty());
    let partials = par_fold_with(&dir, 8, ReadBackend::Mmap, |c| Ok(c.count())).unwrap();
    assert!(partials.is_empty());
    // Without a manifest there is no store to plan or read.
    std::fs::remove_file(dir.join(cg_crawlstore::MANIFEST_FILE)).unwrap();
    assert!(matches!(plan_chunks(&dir), Err(StoreError::Corrupt { .. })));
    assert!(matches!(
        CrawlReader::open(&dir),
        Err(StoreError::Corrupt { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_keeps_sidecars_consistent_with_recovery() {
    let dir = tmp_dir("resume");
    fill(&dir, 1, 70);
    let baseline = drain(&dir, 1, ReadBackend::Pread);
    // Tear the tail: recovery truncates the last frame AND rewrites the
    // sidecar from its scan.
    let path = dir.join("seg-0.bin");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
    let store = CrawlWriter::open(&dir, fp()).unwrap();
    assert_eq!(store.done_ranks().len(), 69);
    drop(store);
    // The surviving prefix streams identically to before the tear.
    let after: Vec<String> = drain(&dir, 4, ReadBackend::Mmap)
        .into_iter()
        .flatten()
        .collect();
    let before: Vec<String> = baseline.into_iter().flatten().take(69).collect();
    assert_eq!(after.len(), 69);
    assert_eq!(after, before);
    std::fs::remove_dir_all(&dir).unwrap();
}
