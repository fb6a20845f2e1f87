//! End-to-end durability: the write → kill → resume → analyze loop.
//!
//! The store's contract is that a crawl killed mid-range and resumed
//! converges to *byte-identical* output versus an uninterrupted run —
//! regardless of worker count, batch size, or how the death mangled the
//! tail of a segment — and that streaming analysis over the store
//! equals in-memory analysis over the same crawl.

use cg_analysis::Dataset;
use cg_browser::{crawl_into, crawl_range, VisitConfig};
use cg_crawlstore::{CrawlReader, CrawlWriter, Fingerprint, StoreError};
use cg_webgen::{GenConfig, WebGenerator};
use std::io::Write as _;
use std::path::PathBuf;

const SEED: u64 = 0xC00C1E;
const SITES: usize = 60;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cg-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn generator() -> WebGenerator {
    WebGenerator::new(GenConfig::small(SITES), SEED)
}

fn fingerprint(cfg: &VisitConfig) -> Fingerprint {
    Fingerprint::new(SEED, 1, SITES, cfg, &GenConfig::small(SITES))
}

/// The store's canonical content: merged, rank-ordered JSON lines.
fn merged_stream(dir: &PathBuf) -> String {
    let mut out = String::new();
    for line in CrawlReader::open(dir).expect("open for merge").raw_lines() {
        out.push_str(&line.expect("merge line"));
        out.push('\n');
    }
    out
}

#[test]
fn resumed_store_is_byte_identical_to_uninterrupted() {
    let gen = generator();
    let cfg = VisitConfig::regular();

    // Reference: one uninterrupted crawl.
    let dir_a = tmp_dir("uninterrupted");
    let store_a = CrawlWriter::open(&dir_a, fingerprint(&cfg))
        .unwrap()
        .with_batch(7);
    crawl_into(&gen, &cfg, 1, SITES, 3, &store_a).unwrap();

    // Victim: the same crawl "killed" partway — leaving a HOLE below
    // the store's max rank (ranks 21..29 missing while 30..40 are
    // durable), the shape a real kill -9 produces when one worker's
    // unsynced batch dies while another worker was further ahead…
    let dir_b = tmp_dir("killed");
    let store_b = CrawlWriter::open(&dir_b, fingerprint(&cfg))
        .unwrap()
        .with_batch(4);
    crawl_into(&gen, &cfg, 1, 20, 2, &store_b).unwrap();
    crawl_into(&gen, &cfg, 30, 40, 2, &store_b).unwrap();
    drop(store_b);
    // …with the crash leaving half a frame at the end of a segment: a
    // header promising rank 999 and a payload that never hit the disk.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir_b.join("seg-0.bin"))
        .unwrap();
    f.write_all(b"\x40\x00\x00\x00\xe7\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00half")
        .unwrap();
    drop(f);

    // Resume with a *different* worker count: recovery truncates the
    // torn tail, reports the completed prefix, and the crawl finishes
    // only the missing ranks.
    let store_b = CrawlWriter::open(&dir_b, fingerprint(&cfg)).unwrap();
    let done_before = store_b.done_ranks().len();
    assert!(
        done_before > 0,
        "prefix run must have produced durable ranks"
    );
    assert!(!store_b.done_ranks().contains(&999));
    let summary = crawl_into(&gen, &cfg, 1, SITES, 4, &store_b).unwrap();
    assert_eq!(
        summary.visited,
        SITES - done_before,
        "resume must skip done ranks"
    );

    // The two stores' rank-ordered JSON line streams are byte-identical.
    let a = merged_stream(&dir_a);
    let b = merged_stream(&dir_b);
    assert!(!a.is_empty());
    assert_eq!(a, b, "resumed store diverged from uninterrupted store");

    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

#[test]
fn streaming_analysis_equals_in_memory_analysis() {
    let gen = generator();
    let cfg = VisitConfig::regular();

    // In-memory reference crawl + dataset.
    let (outcomes, summary) = crawl_range(&gen, &cfg, 1, SITES, 4);
    let ds_mem = Dataset::from_logs(outcomes.into_iter().map(|o| o.log).collect());
    assert_eq!(summary.failed, summary.visited - summary.complete);

    // Store-backed crawl + streaming dataset.
    let dir = tmp_dir("analysis");
    let store = CrawlWriter::open(&dir, fingerprint(&cfg)).unwrap();
    crawl_into(&gen, &cfg, 1, SITES, 3, &store).unwrap();
    let ds_store = Dataset::from_reader(CrawlReader::open(&dir).unwrap()).unwrap();

    // Identical population…
    assert_eq!(ds_mem.crawled, ds_store.crawled);
    assert_eq!(ds_mem.site_count(), ds_store.site_count());
    assert_eq!(
        serde_json::to_string(&ds_mem.logs).unwrap(),
        serde_json::to_string(&ds_store.logs).unwrap()
    );

    // …and every analysis stat agrees.
    let engine = cg_analysis::build_filter_engine(gen.registry());
    let entities = cg_entity::builtin_entity_map();
    let stat = |ds: &Dataset| {
        let exfil = cg_analysis::detect_exfiltration(ds, &entities);
        let manip = cg_analysis::detect_manipulation(ds, &entities);
        (
            serde_json::to_string(&cg_analysis::prevalence_stats(ds, &engine)).unwrap(),
            serde_json::to_string(&cg_analysis::api_usage(ds)).unwrap(),
            serde_json::to_string(&cg_analysis::cross_domain_summary(ds, &exfil, &manip)).unwrap(),
        )
    };
    assert_eq!(stat(&ds_mem), stat(&ds_store));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reused_writer_does_not_duplicate_ranks() {
    let gen = generator();
    let cfg = VisitConfig::regular();
    let dir = tmp_dir("reuse");
    let store = CrawlWriter::open(&dir, fingerprint(&cfg)).unwrap();
    // Two crawl_into calls over overlapping ranges on ONE open store:
    // the second must skip everything the first committed.
    let first = crawl_into(&gen, &cfg, 1, 30, 2, &store).unwrap();
    assert_eq!(first.visited, 30);
    let second = crawl_into(&gen, &cfg, 1, SITES, 3, &store).unwrap();
    assert_eq!(second.visited, SITES - 30);
    let ranks: Vec<usize> = CrawlReader::open(&dir)
        .unwrap()
        .map(|l| l.unwrap().rank)
        .collect();
    assert_eq!(ranks, (1..=SITES).collect::<Vec<_>>(), "no duplicates");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn second_live_writer_is_locked_out() {
    let cfg = VisitConfig::regular();
    let dir = tmp_dir("lock");
    let store = CrawlWriter::open(&dir, fingerprint(&cfg)).unwrap();
    let Err(err) = CrawlWriter::open(&dir, fingerprint(&cfg)) else {
        panic!("second writer must be refused while the first lives");
    };
    assert!(matches!(err, StoreError::Locked { .. }));
    // Readers are not excluded…
    assert!(CrawlReader::open(&dir).is_ok());
    // …and dropping the writer releases the lock.
    drop(store);
    assert!(CrawlWriter::open(&dir, fingerprint(&cfg)).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reader_refuses_foreign_fingerprint_via_writer() {
    let cfg = VisitConfig::regular();
    let dir = tmp_dir("foreign");
    let store = CrawlWriter::open(&dir, fingerprint(&cfg)).unwrap();
    drop(store);
    // A crawl with a different visit config may not resume here.
    let other = VisitConfig {
        interact: false,
        ..VisitConfig::regular()
    };
    let Err(err) = CrawlWriter::open(&dir, fingerprint(&other)) else {
        panic!("foreign fingerprint must be refused");
    };
    assert!(matches!(err, StoreError::FingerprintMismatch { .. }));
    // The reader reports whose crawl the store holds.
    let reader = CrawlReader::open(&dir).unwrap();
    assert_eq!(reader.fingerprint().visit_config, cfg.fingerprint());
    std::fs::remove_dir_all(&dir).unwrap();
}
