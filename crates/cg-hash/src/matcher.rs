//! Compile-once multi-pattern matcher over a visit's encoded identifiers.
//!
//! The §4.4 exfiltration test asks, for every outbound URL, which
//! identifiers appear in it in any encoded form. Run naively that is
//! `forms × URLs × 4` substring scans. [`ExfilMatcher`] compiles the
//! forms once and answers the same question with one pass per URL:
//!
//! * every pattern of at least eight bytes (in practice all of them:
//!   `split_segments` keeps segments of ≥ 8 characters, and their
//!   Base64 and hex digests are longer still) is indexed by its first
//!   eight bytes in an open-addressing table;
//! * a scan reads the URL's eight-byte window at every offset, probes
//!   the table, and confirms each candidate with a slice compare;
//! * shorter patterns fall back to `str::contains`.
//!
//! A form matches exactly when [`EncodedForms::appears_in`] would say
//! so — the padded Base64 form contains the unpadded one, so the four
//! patterns below cover all five fields. The differential proptest in
//! `tests/matcher_equivalence.rs` pins this for arbitrary input.

use crate::EncodedForms;

/// Length of the indexed pattern prefix, in bytes.
const PREFIX: usize = 8;

const EMPTY: u32 = u32::MAX;

/// One indexed pattern: a form's encoding, chained to the next pattern
/// that shares its eight-byte prefix.
#[derive(Debug, Clone, Copy)]
struct Pattern<'f> {
    bytes: &'f [u8],
    form: u32,
    next: u32,
}

/// One table slot: an eight-byte prefix and the head of its chain.
#[derive(Debug, Clone, Copy)]
struct Slot {
    prefix: u64,
    head: u32,
}

/// A set of [`EncodedForms`] compiled for repeated scanning. Form
/// indices are the positions in the sequence given to
/// [`ExfilMatcher::compile`]; duplicate forms keep distinct indices.
#[derive(Debug, Clone)]
pub struct ExfilMatcher<'f> {
    long: Vec<Pattern<'f>>,
    short: Vec<(&'f str, u32)>,
    slots: Vec<Slot>,
}

impl<'f> ExfilMatcher<'f> {
    /// Compiles `forms` in order. Cost is linear in the number of forms.
    pub fn compile(forms: impl IntoIterator<Item = &'f EncodedForms>) -> ExfilMatcher<'f> {
        let mut long = Vec::new();
        let mut short = Vec::new();
        for (i, f) in forms.into_iter().enumerate() {
            let form = u32::try_from(i).expect("fewer than 2^32 forms");
            for pattern in [&f.plain, &f.base64_no_pad, &f.md5, &f.sha1] {
                if pattern.len() >= PREFIX {
                    long.push(Pattern {
                        bytes: pattern.as_bytes(),
                        form,
                        next: EMPTY,
                    });
                } else {
                    short.push((pattern.as_str(), form));
                }
            }
        }
        let capacity = (2 * long.len()).next_power_of_two().max(2);
        let mut slots = vec![
            Slot {
                prefix: 0,
                head: EMPTY,
            };
            capacity
        ];
        let mask = capacity - 1;
        for (p, pattern) in long.iter_mut().enumerate() {
            let prefix = prefix_of(pattern.bytes);
            let mut s = slot_of(prefix, mask);
            loop {
                let slot = &mut slots[s];
                if slot.head == EMPTY {
                    *slot = Slot {
                        prefix,
                        head: p as u32,
                    };
                    break;
                }
                if slot.prefix == prefix {
                    pattern.next = slot.head;
                    slot.head = p as u32;
                    break;
                }
                s = (s + 1) & mask;
            }
        }
        ExfilMatcher { long, short, slots }
    }

    /// Replaces `hits` with the indices of every form that appears in
    /// `haystack`, ascending and without duplicates.
    pub fn find_into(&self, haystack: &str, hits: &mut Vec<usize>) {
        hits.clear();
        let h = haystack.as_bytes();
        if !self.long.is_empty() && h.len() >= PREFIX {
            let mask = self.slots.len() - 1;
            for (i, window) in h.windows(PREFIX).enumerate() {
                let prefix = prefix_of(window);
                let mut s = slot_of(prefix, mask);
                let head = loop {
                    let slot = self.slots[s];
                    if slot.head == EMPTY || slot.prefix == prefix {
                        break slot.head;
                    }
                    s = (s + 1) & mask;
                };
                let mut p = head;
                while p != EMPTY {
                    let pattern = &self.long[p as usize];
                    if h[i..].starts_with(pattern.bytes) {
                        hits.push(pattern.form as usize);
                    }
                    p = pattern.next;
                }
            }
        }
        for &(pattern, form) in &self.short {
            if haystack.contains(pattern) {
                hits.push(form as usize);
            }
        }
        hits.sort_unstable();
        hits.dedup();
    }
}

fn prefix_of(bytes: &[u8]) -> u64 {
    let mut word = [0u8; PREFIX];
    word.copy_from_slice(&bytes[..PREFIX]);
    u64::from_le_bytes(word)
}

fn slot_of(prefix: u64, mask: usize) -> usize {
    // Fibonacci hashing: the top bits of the product mix every byte.
    (prefix.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{b64encode, md5_hex, sha1_hex};

    fn find(m: &ExfilMatcher<'_>, haystack: &str) -> Vec<usize> {
        let mut hits = vec![usize::MAX]; // find_into must clear it
        m.find_into(haystack, &mut hits);
        hits
    }

    #[test]
    fn finds_every_encoding_in_form_order() {
        let forms = [
            EncodedForms::of("444332364"),
            EncodedForms::of("868308499845957651"),
            EncodedForms::of("deadbeefcafe"),
        ];
        let m = ExfilMatcher::compile(&forms);
        let url = format!(
            "https://x.com/?s={}&b={}&ga=444332364",
            sha1_hex(b"deadbeefcafe"),
            b64encode(b"444332364"),
        );
        assert_eq!(find(&m, &url), vec![0, 2]);
        assert_eq!(
            find(
                &m,
                &format!("https://x.com/{}", md5_hex(b"868308499845957651"))
            ),
            vec![1]
        );
        assert!(find(&m, "https://x.com/?ga=nothing").is_empty());
    }

    #[test]
    fn duplicate_and_short_forms_keep_their_indices() {
        let forms = [
            EncodedForms::of("abcdefgh"),
            EncodedForms::of("abc"),
            EncodedForms::of("abcdefgh"),
        ];
        let m = ExfilMatcher::compile(&forms);
        assert_eq!(find(&m, "?v=abcdefgh"), vec![0, 1, 2]);
        assert_eq!(find(&m, "?v=abc"), vec![1]);
        // A match ending on the last byte of the haystack.
        assert_eq!(find(&m, "abcdefgh"), vec![0, 1, 2]);
    }

    #[test]
    fn empty_matcher_finds_nothing() {
        let m = ExfilMatcher::compile(std::iter::empty());
        assert!(find(&m, "https://x.com/?v=abcdefgh").is_empty());
    }
}
