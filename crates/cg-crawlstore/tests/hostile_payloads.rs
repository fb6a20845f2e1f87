//! Everything the store reads back is hostile input. Property tests
//! over arbitrary, bit-flipped and truncated bytes pin three promises
//! for the payload decoders (`decode_visit_log`, `decode_content`) and
//! the manifest loader (`Manifest::load`):
//!
//! * every input gives a value or a typed `Err` — never a panic;
//! * a strict prefix of a valid input is always an `Err`;
//! * no decode allocates more than a small multiple of its input's
//!   length, however large the counts the bytes declare.

use cg_browser::{crawl_range, VisitConfig};
use cg_crawlstore::codec::{decode_content, decode_visit_log, encode_visit_log};
use cg_crawlstore::{CrawlWriter, Fingerprint, Manifest, StoreError, MANIFEST_FILE};
use cg_webgen::{GenConfig, WebGenerator};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Forwards to the system allocator, recording per thread the largest
/// single allocation requested.
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LargestRequest = LargestRequest;

/// Runs both payload decoders over `bytes` and asserts their largest
/// allocation stays within a fixed multiple of the input. The multiple
/// covers one owned element per payload byte — the widest event struct
/// is under 256 bytes — plus a constant for error messages.
fn decode_bounded(bytes: &[u8]) -> (bool, bool) {
    LARGEST.with(|l| l.set(0));
    let log_ok = decode_visit_log(bytes).is_ok();
    let content_ok = decode_content(bytes).is_ok();
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= 256 * bytes.len() + 4096,
        "a {}-byte payload allocated {largest} bytes at once",
        bytes.len()
    );
    (log_ok, content_ok)
}

/// Payloads of real crawl records (regular visits, event-rich and not).
fn corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let gen = WebGenerator::new(GenConfig::small(16), 0xC00C1E);
        let (outcomes, _) = crawl_range(&gen, &VisitConfig::regular(), 1, 16, 2);
        outcomes
            .iter()
            .map(|o| {
                let mut payload = Vec::new();
                encode_visit_log(&o.log, &mut payload);
                payload
            })
            .collect()
    })
}

/// A manifest as the writer stores it.
fn manifest_bytes() -> &'static [u8] {
    static MANIFEST: OnceLock<Vec<u8>> = OnceLock::new();
    MANIFEST.get_or_init(|| {
        let dir = tmp_dir("template");
        let gen = WebGenerator::new(GenConfig::small(8), 1);
        let cfg = VisitConfig::regular();
        let fp = Fingerprint::new(1, 1, 8, &cfg, gen.config());
        let store = CrawlWriter::open(&dir, fp).unwrap();
        cg_browser::crawl_into(&gen, &cfg, 1, 8, 2, &store).unwrap();
        drop(store);
        let bytes = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        bytes
    })
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cg-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `Manifest::load` over `bytes` written as a store's manifest.
fn load_manifest(tag: u64, bytes: &[u8]) -> Result<Option<Manifest>, StoreError> {
    let dir = tmp_dir(&format!("m{tag}"));
    std::fs::write(dir.join(MANIFEST_FILE), bytes).unwrap();
    let result = Manifest::load(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    result
}

/// `bytes` with `flips` bits flipped at positions drawn from `seed`.
fn flipped(bytes: &[u8], seed: u64, flips: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let mut x = seed | 1;
    for _ in 0..flips {
        // xorshift64: positions and bits from one seed, no extra state.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let at = (x as usize) % out.len();
        out[at] ^= 1 << ((x >> 32) % 8);
    }
    out
}

#[test]
fn corpus_decodes_cleanly() {
    assert!(corpus().len() == 16);
    for payload in corpus() {
        assert_eq!(decode_bounded(payload), (true, true));
    }
    assert!(matches!(load_manifest(0, manifest_bytes()), Ok(Some(_))));
}

proptest! {
    #[test]
    fn arbitrary_payloads_never_panic(bytes in prop::collection::vec(0u8..=255, 0..4096)) {
        let (log_ok, _) = decode_bounded(&bytes);
        // Random bytes are not a visit log; the positional decoder
        // must say so rather than fabricate one.
        prop_assert!(!log_ok);
    }

    #[test]
    fn bit_flipped_payloads_never_panic(
        pick in 0usize..16,
        seed in any::<u64>(),
        flips in 1usize..16,
    ) {
        let payload = &corpus()[pick];
        decode_bounded(&flipped(payload, seed, flips));
    }

    #[test]
    fn hostile_counts_stay_bounded(pick in 0usize..16, nth in any::<u64>(), count in any::<u64>()) {
        // Splice a huge element count after a sequence or map tag (7 or
        // 8) of a real payload: no decoder may size an allocation by it.
        let payload = &corpus()[pick];
        let tags: Vec<usize> = (0..payload.len()).filter(|&i| matches!(payload[i], 7 | 8)).collect();
        let at = tags[nth as usize % tags.len()];
        let mut hostile = payload[..=at].to_vec();
        let mut v = count | 1 << 20;
        while v >= 0x80 {
            hostile.push(v as u8 | 0x80);
            v >>= 7;
        }
        hostile.push(v as u8);
        hostile.extend_from_slice(&payload[at + 1..]);
        decode_bounded(&hostile);
    }

    #[test]
    fn truncated_payloads_are_errors(pick in 0usize..16, cut in any::<u64>()) {
        let payload = &corpus()[pick];
        let prefix = &payload[..cut as usize % payload.len()];
        prop_assert_eq!(decode_bounded(prefix), (false, false));
    }

    #[test]
    fn arbitrary_manifests_are_typed_errors(
        tag in any::<u64>(),
        bytes in prop::collection::vec(0u8..=255, 0..1024),
    ) {
        prop_assert!(load_manifest(tag, &bytes).is_err());
    }

    #[test]
    fn json_shaped_manifests_are_typed_errors(
        tag in any::<u64>(),
        text in "[\\[\\]{}\",:0-9a-z .eE+\\\\-]{0,400}",
    ) {
        prop_assert!(load_manifest(tag, text.as_bytes()).is_err());
    }

    #[test]
    fn bit_flipped_manifests_never_panic(
        tag in any::<u64>(),
        seed in any::<u64>(),
        flips in 1usize..8,
    ) {
        // A flip inside a number or a name may leave a valid manifest;
        // anything else must be a typed error.
        let _ = load_manifest(tag, &flipped(manifest_bytes(), seed, flips));
    }

    #[test]
    fn truncated_manifests_are_typed_errors(tag in any::<u64>(), cut in any::<u64>()) {
        // Every strict prefix of the JSON text (the trailing newline
        // aside) is unparseable.
        let text = manifest_bytes().trim_ascii_end();
        let result = load_manifest(tag, &text[..cut as usize % text.len()]);
        prop_assert!(result.is_err());
    }
}
