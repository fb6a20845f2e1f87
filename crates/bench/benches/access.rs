//! Access-layer benchmarks.
//!
//! * `guarded_jar_180c`: `GuardedJar` traffic on a jar at the
//!   180-cookie per-domain cap, driving a mixed read/write burst one
//!   operation at a time.
//! * `visit_23c`: the crawl's own traffic shape — a jar of 23 cookies
//!   (a visit's median), one `document.cookie` get or one classified
//!   `document.cookie` set, unguarded and under the strict guard.

use cg_cookiejar::CookieJar;
use cg_instrument::NullSink;
use cg_url::Url;
use cookieguard_core::{
    AccessContext, Caller, GuardConfig, GuardEngine, GuardSession, GuardedJar, SetRequest,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const JAR_SIZE: usize = 180;

fn url() -> Url {
    Url::parse("https://www.bench-site.example/").unwrap()
}

fn ctx(domain: &str) -> AccessContext {
    AccessContext {
        caller: Caller::external(domain),
        actor: Some(cg_url::intern(domain)),
        actor_url: Some(std::sync::Arc::from(
            format!("https://{domain}/s.js").as_str(),
        )),
        now_ms: 1_000_000,
        time_ms: 500,
    }
}

/// A jar at the per-domain cap with ownership spread over 12 vendors.
fn seeded() -> (CookieJar, GuardSession) {
    let mut jar = CookieJar::new();
    let mut guard = GuardEngine::shared(GuardConfig::strict()).session("bench-site.example");
    let mut sink = NullSink;
    let u = url();
    let mut access = GuardedJar::new(u, &mut jar, Some(&mut guard), &mut sink);
    for i in 0..JAR_SIZE {
        let vendor = format!("vendor{}.example", i % 12);
        let c = ctx(&vendor);
        let raw = format!("cookie_{i}=v{i}");
        access.set(&c, SetRequest::DocumentCookie { raw: &raw });
    }
    (jar, guard)
}

/// One operation of the burst.
enum Op {
    /// A `document.cookie` read.
    Read,
    /// A `cookieStore.get`.
    Get(&'static str),
    /// A write through either API.
    Set(SetRequest<'static>),
    /// A `cookieStore.delete`.
    Delete(&'static str),
}

/// The mixed burst one busy script issues: jar-wide reads, targeted
/// gets, a write, and a delete.
fn burst_ops() -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..4 {
        ops.push(Op::Read);
        ops.push(Op::Get("cookie_3"));
        ops.push(Op::Get("cookie_9"));
    }
    ops.push(Op::Set(SetRequest::CookieStore {
        name: "cookie_3",
        value: "refreshed",
        expires_abs_ms: None,
    }));
    ops.push(Op::Read);
    ops.push(Op::Delete("cookie_3"));
    ops
}

fn bench_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("guarded_jar_180c");
    let ops = burst_ops();

    group.bench_function("per_op", |b| {
        let (mut jar, mut guard) = seeded();
        let mut sink = NullSink;
        let mut access = GuardedJar::new(url(), &mut jar, Some(&mut guard), &mut sink);
        let vendor = "vendor3.example";
        b.iter(|| {
            for op in &ops {
                // The per-op path re-derives the context per call, like a
                // Platform implementation fielding one script op at a time.
                let c = ctx(vendor);
                match op {
                    Op::Read => {
                        black_box(access.document_cookie(&c));
                    }
                    Op::Get(name) => {
                        black_box(access.get(&c, name));
                    }
                    Op::Set(req) => {
                        black_box(access.set(&c, *req));
                    }
                    Op::Delete(name) => {
                        black_box(access.delete(&c, name));
                    }
                }
            }
        });
    });

    group.finish();
}

const VISIT_JAR_SIZE: usize = 23;

/// A visit-sized jar: the site's own cookies plus three each from five
/// vendors, ownership recorded by a strict session (`None` = unguarded).
fn seeded_visit(guarded: bool) -> (CookieJar, Option<GuardSession>) {
    let mut jar = CookieJar::new();
    let mut guard =
        guarded.then(|| GuardEngine::shared(GuardConfig::strict()).session("bench-site.example"));
    let mut sink = NullSink;
    let mut access = GuardedJar::new(url(), &mut jar, guard.as_mut(), &mut sink);
    for i in 0..VISIT_JAR_SIZE {
        let owner = match i % 3 {
            0 if i < 15 => format!("vendor{}.example", i / 3),
            _ => "bench-site.example".to_string(),
        };
        let raw = format!("cookie_{i}=v{i}; Max-Age=86400");
        access.set(&ctx(&owner), SetRequest::DocumentCookie { raw: &raw });
    }
    (jar, guard)
}

fn bench_visit(c: &mut Criterion) {
    let mut group = c.benchmark_group("visit_23c");
    for (label, guarded) in [("unguarded", false), ("strict", true)] {
        // A vendor script reading the jar: under the strict guard it
        // sees its own cookie and the rest are filtered.
        group.bench_function(format!("get/{label}"), |b| {
            let (mut jar, mut guard) = seeded_visit(guarded);
            let mut sink = NullSink;
            let mut access = GuardedJar::new(url(), &mut jar, guard.as_mut(), &mut sink);
            let c = ctx("vendor3.example");
            b.iter(|| black_box(access.document_cookie(&c)));
        });
        // The same vendor refreshing its own cookie: classified as an
        // overwrite against the prior, then stored.
        group.bench_function(format!("set/{label}"), |b| {
            let (mut jar, mut guard) = seeded_visit(guarded);
            let mut sink = NullSink;
            let mut access = GuardedJar::new(url(), &mut jar, guard.as_mut(), &mut sink);
            let c = ctx("vendor3.example");
            let req = SetRequest::DocumentCookie {
                raw: "cookie_9=refreshed; Max-Age=86400",
            };
            b.iter(|| black_box(access.set(&c, req).applied));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(40);
    targets = bench_access, bench_visit
}
criterion_main!(benches);
