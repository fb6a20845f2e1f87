//! Differential check: `ExfilMatcher` reports a form exactly when
//! `EncodedForms::appears_in` (the reference `contains` semantics) does.
//!
//! Identifiers are drawn so that the matcher's corner cases are common
//! rather than lucky: patterns shorter than the eight-byte index prefix,
//! identifiers that are prefixes of, nested in, or overlap each other,
//! the same identifier compiled twice, and haystacks that splice encoded
//! forms (whole, truncated, or at the very end) into URL text with
//! non-ASCII bytes.

use cg_hash::{EncodedForms, ExfilMatcher};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ALNUM: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
const URL_TEXT: &[&str] = &[
    "https://",
    "px.",
    "ads.",
    "example.com",
    "/",
    "?",
    "&",
    "=",
    "id",
    "uid",
    "%3D",
    "-",
    "_",
    ".",
    "é",
    "中",
    "→",
    "\u{00a0}",
    "a",
    "Z",
    "0",
    "9",
];

fn alnum(rng: &mut StdRng, len: usize) -> String {
    (0..len)
        .map(|_| char::from(ALNUM[rng.gen_range(0..ALNUM.len())]))
        .collect()
}

/// 1–8 identifiers, each fresh or derived from an earlier one.
fn identifiers(rng: &mut StdRng) -> Vec<String> {
    let n = rng.gen_range(1..=8);
    let mut ids: Vec<String> = Vec::with_capacity(n);
    for _ in 0..n {
        let id = match (ids.is_empty(), rng.gen_range(0..6)) {
            (true, _) | (_, 0) | (_, 1) => {
                let len = rng.gen_range(1..=40);
                alnum(rng, len)
            }
            (false, k) => {
                let base = ids[rng.gen_range(0..ids.len())].clone();
                let cut = rng.gen_range(0..=base.len());
                match k {
                    // The same identifier twice.
                    2 => base,
                    // A prefix of an earlier identifier.
                    3 => base[..cut.max(1)].to_string(),
                    // An earlier identifier nested inside a longer one.
                    4 => {
                        let head = rng.gen_range(0..4);
                        let tail = rng.gen_range(0..4);
                        format!("{}{}{}", alnum(rng, head), base, alnum(rng, tail))
                    }
                    // Overlap: an earlier identifier's suffix, extended.
                    _ => {
                        let tail = rng.gen_range(1..12);
                        format!("{}{}", &base[cut.min(base.len() - 1)..], alnum(rng, tail))
                    }
                }
            }
        };
        ids.push(id);
    }
    ids
}

/// One encoded form of `f`, whole or truncated to a near miss.
fn piece(rng: &mut StdRng, f: &EncodedForms) -> String {
    let whole = match rng.gen_range(0..5) {
        0 => &f.plain,
        1 => &f.base64,
        2 => &f.base64_no_pad,
        3 => &f.md5,
        _ => &f.sha1,
    };
    if rng.gen_bool(0.2) && whole.len() > 1 {
        whole[..rng.gen_range(1..whole.len())].to_string()
    } else {
        whole.clone()
    }
}

fn haystack(rng: &mut StdRng, forms: &[EncodedForms]) -> String {
    let mut out = String::new();
    for _ in 0..rng.gen_range(0..12) {
        if rng.gen_bool(0.35) {
            let f = &forms[rng.gen_range(0..forms.len())];
            out.push_str(&piece(rng, f));
        } else {
            out.push_str(URL_TEXT[rng.gen_range(0..URL_TEXT.len())]);
        }
    }
    if rng.gen_bool(0.3) {
        // A match that ends on the haystack's last byte.
        let f = &forms[rng.gen_range(0..forms.len())];
        out.push_str(&piece(rng, f));
    }
    out
}

proptest! {
    #[test]
    fn matcher_agrees_with_appears_in(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let forms: Vec<EncodedForms> = identifiers(&mut rng)
            .iter()
            .map(|id| EncodedForms::of(id))
            .collect();
        let matcher = ExfilMatcher::compile(&forms);
        let mut hits = Vec::new();
        for _ in 0..24 {
            let h = haystack(&mut rng, &forms);
            matcher.find_into(&h, &mut hits);
            let want: Vec<usize> = (0..forms.len())
                .filter(|&i| forms[i].appears_in(&h))
                .collect();
            prop_assert_eq!(&hits, &want, "haystack {:?} forms {:?}", h, forms);
        }
    }
}
