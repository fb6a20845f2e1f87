//! The store's readable form and its format contract: the JSON lines a
//! store renders (`CrawlReader::raw_lines`, what `cg-experiments dump`
//! prints) equal the in-memory crawl's serialization, stores in the
//! retired JSONL format are refused without a byte of them changing,
//! and the parallel fold is an invisible substitution for the
//! sequential one.

use cg_analysis::{Dataset, StreamStats};
use cg_browser::{crawl_range, VisitConfig};
use cg_crawlstore::{
    crawl_to_store, open_store, par_fold_with, plan_chunks, CrawlReader, CrawlWriter, Fingerprint,
    ReadBackend, StoreError, MANIFEST_FILE,
};
use cg_webgen::{GenConfig, WebGenerator};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const SEED: u64 = 0xC00C1E;
const SITES: usize = 80;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cg-formats-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn generator() -> WebGenerator {
    WebGenerator::new(GenConfig::small(SITES), SEED)
}

fn crawl(dir: &Path, threads: usize) {
    let gen = generator();
    let cfg = VisitConfig::regular();
    crawl_to_store(dir, &gen, &cfg, 1, SITES, threads, |_| {}).unwrap();
}

/// The store's rank-ordered JSON lines — what `cg-experiments dump`
/// prints.
fn dump(dir: &Path) -> Vec<String> {
    CrawlReader::open(dir)
        .unwrap()
        .raw_lines()
        .map(|l| l.unwrap())
        .collect()
}

/// The dump of a crawled store is the in-memory crawl's serialization,
/// line for line, whatever the crawl's worker count (and so its
/// segment layout).
#[test]
fn dump_equals_in_memory_crawl() {
    let (outcomes, _) = crawl_range(&generator(), &VisitConfig::regular(), 1, SITES, 2);
    let expected: Vec<String> = outcomes
        .iter()
        .map(|o| serde_json::to_string(&o.log).unwrap())
        .collect();
    assert_eq!(expected.len(), SITES);
    for threads in [1, 4] {
        let dir = tmp_dir(&format!("dump-{threads}"));
        crawl(&dir, threads);
        assert_eq!(dump(&dir), expected, "{threads} crawl threads");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Every file under `dir`, name → bytes.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().into_string().unwrap(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect()
}

/// A store in the retired JSONL format — a two-record store as the old
/// writer left it — is refused by every entry point with a typed error
/// that names the format and the remedy, and no refused open changes,
/// adds or removes a file (writer recovery must not "repair" it).
#[test]
fn retired_jsonl_store_is_refused_untouched() {
    let gen = generator();
    let cfg = VisitConfig::regular();
    let dir = tmp_dir("jsonl");
    std::fs::create_dir_all(&dir).unwrap();
    let fp = Fingerprint::new(SEED, 1, SITES, &cfg, gen.config());
    let manifest = format!(
        r#"{{
  "version": 1,
  "fingerprint": {{
    "master_seed": {SEED},
    "from": 1,
    "to": {SITES},
    "visit_config": "{}",
    "generator": "{}",
    "format": "jsonl"
  }},
  "segments": [
    {{
      "file": "seg-0.jsonl",
      "synced_records": 2,
      "max_rank": 2
    }}
  ]
}}
"#,
        fp.visit_config, fp.generator
    );
    std::fs::write(dir.join(MANIFEST_FILE), manifest).unwrap();
    // The second line is torn, as a crash would leave it: exactly what
    // the old recovery scan would have truncated.
    std::fs::write(
        dir.join("seg-0.jsonl"),
        "{\"site_domain\":\"a.example\",\"rank\":1,\"complete\":true}\n\
         {\"site_domain\":\"b.example\",\"rank\":2,\"comp",
    )
    .unwrap();
    let before = snapshot(&dir);

    let refused = |what: &str, result: Result<(), StoreError>| {
        match result {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains("retired JSONL"), "{what}: {detail}");
                assert!(detail.contains("re-crawl"), "{what}: {detail}");
            }
            other => panic!("{what} accepted a JSONL store: {other:?}"),
        }
        assert_eq!(snapshot(&dir), before, "{what} changed the store's files");
    };
    refused("CrawlReader::open", CrawlReader::open(&dir).map(drop));
    refused(
        "open_store",
        open_store(&dir, &gen, &cfg, 1, SITES).map(drop),
    );
    refused("CrawlWriter::open", CrawlWriter::open(&dir, fp).map(drop));
    refused("plan_chunks", plan_chunks(&dir).map(drop));
    refused(
        "par_fold_with",
        par_fold_with(&dir, 2, ReadBackend::Mmap, |c| Ok(c.count())).map(drop),
    );
    refused(
        "StreamStats::from_store",
        StreamStats::from_store(&dir, 1).map(drop),
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Parallel chunked folds are byte-identical to sequential ones at
/// every thread count, through the mapped path and its forced
/// positioned-read fallback, for both the streaming and the retained
/// mode.
#[test]
fn parallel_fold_equals_sequential_fold() {
    let dir = tmp_dir("parfold");
    crawl(&dir, 6); // several segments

    let seq_stats = serde_json::to_string(&StreamStats::from_store(&dir, 1).unwrap()).unwrap();
    let seq_ds = Dataset::from_store(&dir, 1).unwrap();
    let seq_logs = serde_json::to_string(&seq_ds.logs).unwrap();

    // A sequential fold equals a plain reader fold.
    let reader_ds = Dataset::from_reader(CrawlReader::open(&dir).unwrap()).unwrap();
    assert_eq!(seq_logs, serde_json::to_string(&reader_ds.logs).unwrap());
    assert_eq!(seq_ds.crawled, reader_ds.crawled);

    for backend in [ReadBackend::Mmap, ReadBackend::Pread] {
        for threads in [1, 2, 8] {
            let par_stats = serde_json::to_string(
                &StreamStats::from_store_with(&dir, threads, backend).unwrap(),
            )
            .unwrap();
            assert_eq!(
                par_stats, seq_stats,
                "StreamStats via {backend:?} at {threads} threads"
            );
            let par_ds = Dataset::from_store_with(&dir, threads, backend).unwrap();
            assert_eq!(
                serde_json::to_string(&par_ds.logs).unwrap(),
                seq_logs,
                "Dataset via {backend:?} at {threads} threads"
            );
            assert_eq!(par_ds.crawled, seq_ds.crawled);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
