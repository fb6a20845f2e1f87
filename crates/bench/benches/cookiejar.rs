//! Cookie-jar micro-benchmarks: the raw cost of the operations the
//! paper's extension intercepts (`document.cookie` get/set,
//! `cookieStore.getAll`) at realistic jar sizes. `cookieStore.getAll`
//! runs through `GuardedJar::get_all`, the one path scripts reach it by.

use cg_cookiejar::{CookieJar, FlatJar};
use cg_instrument::NullSink;
use cg_url::Url;
use cookieguard_core::{AccessContext, Caller, GuardedJar};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn jar_with(n: usize) -> (CookieJar, Url) {
    let url = Url::parse("https://www.site.com/").unwrap();
    let mut jar = CookieJar::new();
    for i in 0..n {
        jar.set_document_cookie(
            &format!("cookie_{i}=value_{i:08x}; Max-Age=86400"),
            &url,
            i as i64,
        )
        .unwrap();
    }
    (jar, url)
}

fn bench_document_cookie(c: &mut Criterion) {
    let mut group = c.benchmark_group("document_cookie");
    for &n in &[5usize, 20, 60] {
        let (jar, url) = jar_with(n);
        group.bench_with_input(BenchmarkId::new("get", n), &n, |b, _| {
            b.iter(|| black_box(jar.document_cookie(&url, 1_000)));
        });
        group.bench_with_input(BenchmarkId::new("set", n), &n, |b, _| {
            let mut jar = jar.clone();
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                jar.set_document_cookie(&format!("hot={i}"), &url, i as i64)
                    .unwrap();
            });
        });
    }
    group.finish();
}

fn bench_cookie_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("cookie_store");
    for &n in &[5usize, 20, 60] {
        let (mut jar, url) = jar_with(n);
        group.bench_with_input(BenchmarkId::new("get_all", n), &n, |b, _| {
            let mut sink = NullSink;
            let mut access = GuardedJar::new(url.clone(), &mut jar, None, &mut sink);
            let ctx = AccessContext {
                caller: Caller::external("site.com"),
                actor: Some(cg_url::intern("site.com")),
                actor_url: None,
                now_ms: 1_000,
                time_ms: 0,
            };
            b.iter(|| black_box(access.get_all(&ctx)));
        });
    }
    group.finish();
}

fn bench_request_header(c: &mut Criterion) {
    let (jar, url) = jar_with(30);
    c.bench_function("cookie_header_for_request/30", |b| {
        b.iter(|| black_box(jar.cookie_header_for_request(&url, 1_000)));
    });
}

/// Builds matched sharded/flat jars holding `total` cookies spread over
/// `domains` eTLD+1s (a Cookieverse-scale crawl profile), plus one
/// lookup URL per domain.
fn multi_domain_jars(total: usize, domains: usize) -> (CookieJar, FlatJar, Vec<Url>) {
    let urls: Vec<Url> = (0..domains)
        .map(|d| Url::parse(&format!("https://www.crawl-site-{d}.com/")).unwrap())
        .collect();
    let mut sharded = CookieJar::new();
    let mut flat = FlatJar::new();
    for i in 0..total {
        let url = &urls[i % domains];
        let raw = format!("cookie_{}=value_{i:08x}; Max-Age=86400", i / domains);
        sharded.set_document_cookie(&raw, url, i as i64).unwrap();
        flat.set_document_cookie(&raw, url, i as i64).unwrap();
    }
    (sharded, flat, urls)
}

/// The tentpole comparison: jar lookups on a 500-cookie / 50-domain jar.
/// The sharded index touches one ~10-cookie bucket per lookup; the flat
/// jar domain-matches all 500 cookies every time.
fn bench_sharded_vs_flat(c: &mut Criterion) {
    let (sharded, flat, urls) = multi_domain_jars(500, 50);
    let mut group = c.benchmark_group("jar_500c_50d");
    group.bench_function("sharded/document_cookie", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % urls.len();
            black_box(sharded.document_cookie(&urls[i], 1_000))
        });
    });
    group.bench_function("flat/document_cookie", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % urls.len();
            black_box(flat.document_cookie(&urls[i], 1_000))
        });
    });
    group.bench_function("sharded/request_header", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % urls.len();
            black_box(sharded.cookie_header_for_request(&urls[i], 1_000))
        });
    });
    group.bench_function("flat/request_header", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % urls.len();
            black_box(flat.cookie_header_for_request(&urls[i], 1_000))
        });
    });
    // Steady-state write path: the `hot` cookie is pre-seeded on every
    // domain, so each measured write replaces an existing cookie — the
    // identity-lookup scan (one ~10-cookie bucket vs the whole
    // 500-cookie jar).
    let (sharded_warm, flat_warm) = {
        let (mut s, mut f) = (sharded.clone(), flat.clone());
        for (d, url) in urls.iter().enumerate() {
            s.set_document_cookie("hot=0", url, d as i64).unwrap();
            f.set_document_cookie("hot=0", url, d as i64).unwrap();
        }
        (s, f)
    };
    group.bench_function("sharded/set_replace", |b| {
        let mut jar = sharded_warm.clone();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            jar.set_document_cookie(
                &format!("hot={i}"),
                &urls[(i as usize) % urls.len()],
                i as i64,
            )
            .unwrap();
        });
    });
    group.bench_function("flat/set_replace", |b| {
        let mut jar = flat_warm.clone();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            jar.set_document_cookie(
                &format!("hot={i}"),
                &urls[(i as usize) % urls.len()],
                i as i64,
            )
            .unwrap();
        });
    });
    // Eviction pressure: one domain held at the 180-cookie cap, every
    // insert a fresh name, so the cap check + oldest-victim scan runs
    // on each write. The sharded jar reads one bucket's length and
    // scans that bucket; the flat jar recomputes eTLD+1 for every
    // cookie in the jar to recount the domain, then again to pick the
    // victim.
    let full_url = Url::parse("https://www.crawl-site-0.com/").unwrap();
    let (sharded_full, flat_full) = {
        let (mut s, mut f) = (sharded.clone(), flat.clone());
        for i in 0..180usize {
            let raw = format!("fill_{i}=v; Max-Age=86400");
            s.set_document_cookie(&raw, &full_url, i as i64).unwrap();
            f.set_document_cookie(&raw, &full_url, i as i64).unwrap();
        }
        (s, f)
    };
    group.bench_function("sharded/set_evict", |b| {
        let mut jar = sharded_full.clone();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            jar.set_document_cookie(&format!("fresh_{i}=v"), &full_url, 1_000_000 + i as i64)
                .unwrap();
        });
    });
    group.bench_function("flat/set_evict", |b| {
        let mut jar = flat_full.clone();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            jar.set_document_cookie(&format!("fresh_{i}=v"), &full_url, 1_000_000 + i as i64)
                .unwrap();
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_document_cookie, bench_cookie_store, bench_request_header, bench_sharded_vs_flat
}
criterion_main!(benches);
