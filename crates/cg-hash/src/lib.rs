//! From-scratch MD5, SHA-1 and Base64 implementations.
//!
//! The paper's exfiltration-detection pipeline (§4.4) computes three encoded
//! forms of every candidate identifier extracted from a cookie value —
//! Base64, MD5 and SHA-1 — and searches outbound request URLs for any of
//! them. Matching real tracker behaviour requires byte-identical digests, so
//! these are complete implementations of the real algorithms (RFC 1321,
//! RFC 3174, RFC 4648), validated against the official test vectors.
//!
//! The crate also hosts FNV-1a (`fnv1a64`/`fnv1a32`) plus the
//! word-at-a-time `fnv1a32w` variant — the non-cryptographic checksum
//! the binary crawl-store frames use for torn-tail detection (word-wise
//! because frames are tens of KB and checksum verification sits on the
//! replay hot path).
//!
//! **Layer:** foundation (no workspace dependencies). **Invariant:**
//! digests are byte-identical to the reference algorithms (RFC 1321 /
//! 3174 / 4648, checked against official vectors) — the exfiltration
//! detector's encoded-identifier matching depends on it. **Entry
//! points:** `md5_hex`, `sha1_hex`, `b64encode_no_pad`, `fnv1a32`,
//! and [`ExfilMatcher`] — the one compile-once matcher every exfil
//! scan (analysis, detector, baselines) runs through.

pub mod base64;
pub mod fnv;
pub mod matcher;
pub mod md5;
pub mod sha1;

pub use base64::{b64decode, b64encode, b64encode_no_pad};
pub use fnv::{fnv1a32, fnv1a32w, fnv1a64};
pub use matcher::ExfilMatcher;
pub use md5::md5_hex;
pub use sha1::sha1_hex;

/// All encoded forms of an identifier that the detection pipeline matches
/// against outbound URLs: the identifier itself, its Base64 encoding (padded
/// and unpadded, since trackers strip padding in URLs), and its MD5/SHA-1
/// hex digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedForms {
    /// The raw identifier.
    pub plain: String,
    /// Standard Base64 with padding.
    pub base64: String,
    /// Base64 without trailing `=` padding (common in query strings).
    pub base64_no_pad: String,
    /// Lowercase MD5 hex digest.
    pub md5: String,
    /// Lowercase SHA-1 hex digest.
    pub sha1: String,
}

impl EncodedForms {
    /// Computes every encoded form of `identifier`.
    pub fn of(identifier: &str) -> EncodedForms {
        let b = b64encode(identifier.as_bytes());
        EncodedForms {
            plain: identifier.to_string(),
            base64_no_pad: b.trim_end_matches('=').to_string(),
            base64: b,
            md5: md5_hex(identifier.as_bytes()),
            sha1: sha1_hex(identifier.as_bytes()),
        }
    }

    /// True when `haystack` contains any encoded form of the identifier.
    ///
    /// This is the reference semantics of the exfil test. Scans go
    /// through [`ExfilMatcher`], which returns exactly the forms for
    /// which this is true (the padded Base64 form contains the unpadded
    /// one, so it needs no check of its own).
    pub fn appears_in(&self, haystack: &str) -> bool {
        haystack.contains(&self.plain)
            || haystack.contains(&self.base64_no_pad)
            || haystack.contains(&self.md5)
            || haystack.contains(&self.sha1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forms_cover_all_encodings() {
        let f = EncodedForms::of("444332364");
        assert!(f.appears_in("https://x.com/?ga=444332364"));
        assert!(f.appears_in(&format!("https://x.com/?b={}", b64encode(b"444332364"))));
        assert!(f.appears_in(&format!("https://x.com/?m={}", md5_hex(b"444332364"))));
        assert!(f.appears_in(&format!("https://x.com/?s={}", sha1_hex(b"444332364"))));
        assert!(!f.appears_in("https://x.com/?ga=nothing"));
    }

    #[test]
    fn paper_linkedin_example_base64() {
        // §5.4 case study: the _ga segment 444332364 encodes to NDQ0MzMyMzY0.
        assert_eq!(b64encode(b"444332364"), "NDQ0MzMyMzY0");
    }
}
