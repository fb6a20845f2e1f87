//! Hash/encoding benchmarks: the §4.4 identifier-encoding pipeline
//! (every candidate identifier gets Base64 + MD5 + SHA-1 forms, and each
//! form is substring-matched against outbound URLs).

use cg_hash::{b64encode, b64encode_no_pad, md5_hex, sha1_hex, EncodedForms, ExfilMatcher};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_primitives(c: &mut Criterion) {
    let id = b"868308499845957651";
    c.bench_function("md5_18_bytes", |b| b.iter(|| black_box(md5_hex(id))));
    c.bench_function("sha1_18_bytes", |b| b.iter(|| black_box(sha1_hex(id))));
    c.bench_function("base64_18_bytes", |b| b.iter(|| black_box(b64encode(id))));
    let big = vec![0xA5u8; 4096];
    c.bench_function("md5_4k", |b| b.iter(|| black_box(md5_hex(&big))));
    c.bench_function("sha1_4k", |b| b.iter(|| black_box(sha1_hex(&big))));
}

fn bench_encoded_forms(c: &mut Criterion) {
    c.bench_function("encoded_forms_of_identifier", |b| {
        b.iter(|| black_box(EncodedForms::of("444332364")));
    });
    let forms = EncodedForms::of("444332364");
    let url = "https://px.ads.linkedin.com/attribution_trigger?pid=621340&url=www.optimonk.com&_ga=NDQ0MzMyMzY0LjE3NDY4Mzg4Mjc";
    c.bench_function("forms_match_against_url", |b| {
        b.iter(|| black_box(forms.appears_in(url)));
    });
}

/// One visit's exfil scan at the per-visit means of perfbench's seed-601
/// analyze sample: 48 candidate identifiers against 8 third-party URLs,
/// a few of which carry an encoded identifier. Both variants include
/// building what they scan with, as the analysis does once per visit.
fn bench_exfil_match(c: &mut Criterion) {
    let ids: Vec<String> = (0..48u64)
        .map(|i| match i % 3 {
            0 => format!("{}", 444_332_364 + i * 7_919),
            1 => format!("{:016x}", i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            _ => format!("{}", 868_308_499_845_957_651 + i),
        })
        .collect();
    let urls: Vec<String> = (0..8usize)
        .map(|u| {
            let carried = match u % 4 {
                0 => ids[u * 5].clone(),
                1 => b64encode_no_pad(ids[u * 5].as_bytes()),
                2 => md5_hex(ids[u * 5].as_bytes()),
                _ => "none".to_string(),
            };
            format!(
                "https://px.ads{u}.example.net/collect?v=2&tid=UA-{u}1234-1&dl=https%3A%2F%2Fshop.example%2Fcart&dt=Cart&sr=1920x1080&cid={carried}&z=17468388{u}"
            )
        })
        .collect();
    let forms: Vec<EncodedForms> = ids.iter().map(|id| EncodedForms::of(id)).collect();
    let naive = |forms: &[EncodedForms]| -> usize {
        urls.iter()
            .map(|url| forms.iter().filter(|f| f.appears_in(url)).count())
            .sum()
    };
    let compiled = |forms: &[EncodedForms]| -> usize {
        let matcher = ExfilMatcher::compile(forms);
        let mut hits = Vec::new();
        urls.iter()
            .map(|url| {
                matcher.find_into(url, &mut hits);
                hits.len()
            })
            .sum()
    };
    assert_eq!(naive(&forms), compiled(&forms));
    assert_eq!(naive(&forms), 6);
    let mut group = c.benchmark_group("exfil_match");
    group.bench_function("naive", |b| b.iter(|| black_box(naive(&forms))));
    group.bench_function("compiled", |b| b.iter(|| black_box(compiled(&forms))));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_primitives, bench_encoded_forms, bench_exfil_match
}
criterion_main!(benches);
