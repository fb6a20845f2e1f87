//! Crawl-store throughput: appending a 1k-visit crawl across four
//! segments (fsync'd batches + manifest checkpoints) and streaming it
//! back through the rank-ordered k-way merge.

use cg_browser::{crawl_range, VisitConfig};
use cg_crawlstore::{CrawlReader, CrawlWriter, Fingerprint, SegmentWriter};
use cg_instrument::VisitLog;
use cg_webgen::{GenConfig, WebGenerator};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const STORE_VISITS: usize = 1_000;
const SEGMENTS: usize = 4;

/// 1k distinct visit logs with realistic event payloads: a real 250-site
/// crawl tiled four times under fresh ranks.
fn visit_logs() -> Vec<VisitLog> {
    let gen = WebGenerator::new(GenConfig::small(250), 0xBE_AC);
    let (outcomes, _) = crawl_range(&gen, &VisitConfig::regular(), 1, 250, 4);
    let base: Vec<VisitLog> = outcomes.into_iter().map(|o| o.log).collect();
    let mut logs = Vec::with_capacity(STORE_VISITS);
    for tile in 0..STORE_VISITS.div_ceil(base.len()) {
        for log in &base {
            if logs.len() == STORE_VISITS {
                break;
            }
            let mut log = log.clone();
            log.rank += tile * base.len();
            logs.push(log);
        }
    }
    logs
}

fn fingerprint() -> Fingerprint {
    Fingerprint::new(
        0xBE_AC,
        1,
        STORE_VISITS,
        &VisitConfig::regular(),
        &GenConfig::small(250),
    )
}

fn fill(dir: &std::path::Path, logs: &[VisitLog]) {
    let store = CrawlWriter::open(dir, fingerprint()).expect("open store");
    let mut segs: Vec<SegmentWriter> = (0..SEGMENTS)
        .map(|_| store.segment().expect("segment"))
        .collect();
    for (i, log) in logs.iter().enumerate() {
        segs[i % SEGMENTS].record(log).expect("record");
    }
    for seg in segs {
        seg.finish().expect("finish");
    }
}

fn bench_store(c: &mut Criterion) {
    let logs = visit_logs();
    let root = std::env::temp_dir().join(format!("cg-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let mut group = c.benchmark_group("store_roundtrip");
    group.sample_size(10);

    let append_dir = root.join("append");
    group.bench_function("append_1k_binary", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&append_dir);
            fill(&append_dir, &logs);
        })
    });

    let scan_dir = root.join("scan");
    fill(&scan_dir, &logs);
    group.bench_function("merge_scan_1k_binary", |b| {
        b.iter(|| {
            let reader = CrawlReader::open(&scan_dir).expect("open reader");
            let mut records = 0usize;
            let mut last_rank = 0usize;
            for log in reader {
                let log = log.expect("log");
                assert!(log.rank > last_rank, "merge must be rank-ordered");
                last_rank = log.rank;
                records += 1;
            }
            black_box(records)
        })
    });
    group.finish();

    let _ = std::fs::remove_dir_all(&root);
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
