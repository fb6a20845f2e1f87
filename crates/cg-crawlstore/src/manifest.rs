//! The store manifest: config fingerprint + per-segment durability
//! watermarks, written atomically (temp file + rename) so a crash never
//! leaves a half-written manifest behind.

use crate::codec::SegmentFormat;
use crate::StoreError;
use cg_browser::VisitConfig;
use cg_webgen::GenConfig;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::path::Path;

/// Manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Current on-disk format version.
pub const MANIFEST_VERSION: u32 = 1;

/// Deepest JSON nesting [`Manifest::load`] parses (a manifest has 3).
const MAX_NESTING: usize = 16;

/// The refusal of a store written in the retired JSONL format.
fn retired_jsonl(found: &str) -> StoreError {
    StoreError::Corrupt {
        file: MANIFEST_FILE.to_string(),
        detail: format!(
            "store uses the retired JSONL segment format ({found}); \
             this build reads binary stores only, so re-crawl into a fresh directory"
        ),
    }
}

/// Maximum bracket nesting of JSON `text`, brackets inside strings
/// included — an overestimate no real manifest comes near.
fn nesting_depth(text: &str) -> usize {
    let mut depth = 0usize;
    text.bytes()
        .map(|b| {
            match b {
                b'[' | b'{' => depth += 1,
                b']' | b'}' => depth = depth.saturating_sub(1),
                _ => {}
            }
            depth
        })
        .max()
        .unwrap_or(0)
}

/// The `<n>` of a `seg-<n>.bin` segment file name.
pub(crate) fn segment_number(file_name: &str) -> Option<usize> {
    let n = file_name.strip_prefix("seg-")?.strip_suffix(".bin")?;
    // Digits only: `parse` would also take a sign.
    if n.is_empty() || !n.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    n.parse().ok()
}

/// Identifies the crawl a store belongs to. Two crawls with equal
/// fingerprints produce identical visit logs for every rank, which is
/// what makes resuming into an existing directory sound.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// The web generator's master seed.
    pub master_seed: u64,
    /// First rank of the crawl (inclusive, 1-based).
    pub from: usize,
    /// Last rank of the crawl (inclusive).
    pub to: usize,
    /// Digest of the [`VisitConfig`] (see
    /// [`VisitConfig::fingerprint`]).
    pub visit_config: String,
    /// Digest of the generator's [`GenConfig`]. Visit outcomes are a
    /// function of the *generated web*, not just the seed — two tools
    /// building different `GenConfig`s for the same seed/site-count
    /// (e.g. `GenConfig::small(n)` vs `GenConfig::default()`) must not
    /// resume each other's stores.
    pub generator: String,
    /// On-disk segment format (always `"binary"`). Manifests without
    /// the field, or naming the retired `"jsonl"` format, are refused
    /// by [`Manifest::load`].
    pub format: SegmentFormat,
}

impl Fingerprint {
    /// Builds the fingerprint for a crawl of ranks `[from, to]` under
    /// `cfg` on a generator seeded with `master_seed` and configured by
    /// `gen_cfg`.
    pub fn new(
        master_seed: u64,
        from: usize,
        to: usize,
        cfg: &VisitConfig,
        gen_cfg: &GenConfig,
    ) -> Fingerprint {
        // GenConfig is a plain struct of scalar knobs; its Debug form
        // is canonical (field order is fixed by the definition).
        let generator = cg_hash::sha1_hex(format!("{gen_cfg:?}").as_bytes());
        Fingerprint {
            master_seed,
            from,
            to,
            visit_config: cfg.fingerprint(),
            generator,
            format: SegmentFormat::Binary,
        }
    }
}

/// One segment file's durability watermark.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// File name relative to the store directory (`seg-<n>.bin`).
    pub file: String,
    /// Records known durable (fsync'd) in this segment. The file may
    /// hold *more* complete frames than this (written but not yet
    /// fsync'd when the process died); recovery keeps every complete
    /// frame, since completed visits are deterministic either way.
    pub synced_records: u64,
    /// Highest rank among the synced records (0 when empty).
    pub max_rank: u64,
}

/// The store's checkpoint record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// On-disk format version.
    pub version: u32,
    /// Which crawl this store belongs to.
    pub fingerprint: Fingerprint,
    /// Per-segment watermarks, sorted by file name.
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// A fresh manifest with no segments.
    pub fn new(fingerprint: Fingerprint) -> Manifest {
        Manifest {
            version: MANIFEST_VERSION,
            fingerprint,
            segments: Vec::new(),
        }
    }

    /// Loads the manifest from a store directory. `Ok(None)` when the
    /// directory has no manifest (a brand-new store).
    ///
    /// The manifest is hostile input like every file read back: any
    /// malformed text is a typed [`StoreError::Corrupt`], never a
    /// panic. A store in the retired JSONL segment format (`"format":
    /// "jsonl"`, or a version-1 manifest that predates the field) is
    /// refused here, before any caller touches a segment file.
    pub fn load(dir: &Path) -> Result<Option<Manifest>, StoreError> {
        let path = dir.join(MANIFEST_FILE);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        let corrupt = |detail: String| StoreError::Corrupt {
            file: MANIFEST_FILE.to_string(),
            detail,
        };
        let text = std::str::from_utf8(&bytes).map_err(|e| corrupt(e.to_string()))?;
        // The JSON parser recurses per nesting level; a manifest is three
        // levels deep, so refuse anything deep enough to threaten the
        // stack before parsing it.
        if nesting_depth(text) > MAX_NESTING {
            return Err(corrupt(format!("nested deeper than {MAX_NESTING} levels")));
        }
        let value: serde_json::Value =
            serde_json::from_str(text).map_err(|e| corrupt(e.to_string()))?;
        let format = value.get("fingerprint").map(|f| f.get("format"));
        if let Some(None) = format {
            return Err(retired_jsonl("a manifest without a segment format"));
        }
        if let Some(Some(f)) = format {
            if f.as_str() == Some("jsonl") {
                return Err(retired_jsonl("\"format\": \"jsonl\""));
            }
        }
        let manifest: Manifest =
            serde_json::from_value(value).map_err(|e| corrupt(e.to_string()))?;
        if manifest.version != MANIFEST_VERSION {
            return Err(corrupt(format!(
                "unsupported version {} (expected {MANIFEST_VERSION})",
                manifest.version
            )));
        }
        if let Some(seg) = manifest
            .segments
            .iter()
            .find(|s| segment_number(&s.file).is_none())
        {
            return Err(corrupt(format!(
                "segment entry {:?} is not a seg-<n>.bin file name",
                seg.file
            )));
        }
        Ok(Some(manifest))
    }

    /// Writes the manifest atomically: serialize to `manifest.json.tmp`,
    /// fsync, rename over the live file, fsync the directory.
    pub fn store(&self, dir: &Path) -> Result<(), StoreError> {
        let mut sorted = self.clone();
        sorted.segments.sort_by(|a, b| a.file.cmp(&b.file));
        let text = serde_json::to_string_pretty(&sorted).map_err(|e| StoreError::Corrupt {
            file: MANIFEST_FILE.to_string(),
            detail: e.to_string(),
        })?;
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
        let live = dir.join(MANIFEST_FILE);
        {
            use std::io::Write;
            let mut f = File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &live)?;
        // Make the rename itself durable. Directory fsync is best-effort
        // on platforms where opening a directory fails.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// The watermark entry for `file`, creating it when absent.
    pub fn segment_mut(&mut self, file: &str) -> &mut SegmentMeta {
        if let Some(i) = self.segments.iter().position(|s| s.file == file) {
            return &mut self.segments[i];
        }
        self.segments.push(SegmentMeta {
            file: file.to_string(),
            synced_records: 0,
            max_rank: 0,
        });
        self.segments.last_mut().expect("just pushed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> Fingerprint {
        Fingerprint {
            master_seed: 7,
            from: 1,
            to: 100,
            visit_config: "abc".into(),
            generator: "gen".into(),
            format: SegmentFormat::Binary,
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cg-manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip() {
        let dir = tmp_dir("rt");
        let mut m = Manifest::new(fp());
        m.segment_mut("seg-1.bin").synced_records = 4;
        m.segment_mut("seg-0.bin").max_rank = 9;
        m.store(&dir).unwrap();
        let back = Manifest::load(&dir).unwrap().unwrap();
        assert_eq!(back.fingerprint, fp());
        // Stored sorted by file name.
        assert_eq!(back.segments[0].file, "seg-0.bin");
        assert_eq!(back.segments[1].synced_records, 4);
        let text = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        assert!(text.contains("\"format\": \"binary\""), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retired_jsonl_manifests_are_refused_with_the_remedy() {
        // A `"format": "jsonl"` store, and a version-1 manifest written
        // before the field existed (always a JSONL store).
        let dir = tmp_dir("jsonl");
        for format in [r#", "format": "jsonl""#, ""] {
            let legacy = format!(
                r#"{{
                "version": 1,
                "fingerprint": {{
                    "master_seed": 7, "from": 1, "to": 100,
                    "visit_config": "abc", "generator": "gen"{format}
                }},
                "segments": []
            }}"#
            );
            std::fs::write(dir.join(MANIFEST_FILE), legacy).unwrap();
            match Manifest::load(&dir) {
                Err(StoreError::Corrupt { detail, .. }) => {
                    assert!(detail.contains("retired JSONL"), "{detail}");
                    assert!(detail.contains("re-crawl"), "{detail}");
                }
                other => panic!("a JSONL manifest must be refused, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_none() {
        let dir = tmp_dir("none");
        assert!(Manifest::load(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_manifest_is_corrupt() {
        let dir = tmp_dir("bad");
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        let foreign_name = serde_json::to_string(&Manifest {
            segments: vec![SegmentMeta {
                file: "../seg-0.bin".into(),
                synced_records: 1,
                max_rank: 1,
            }],
            ..Manifest::new(fp())
        })
        .unwrap();
        for bad in [
            &b"{not json"[..],
            &b"\xff\xfe"[..],
            deep.as_bytes(),
            foreign_name.as_bytes(),
        ] {
            std::fs::write(dir.join(MANIFEST_FILE), bad).unwrap();
            assert!(matches!(
                Manifest::load(&dir),
                Err(StoreError::Corrupt { .. })
            ));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_numbers_parse_only_binary_segment_names() {
        assert_eq!(segment_number("seg-0.bin"), Some(0));
        assert_eq!(segment_number("seg-12.bin"), Some(12));
        for bad in [
            "seg-0.jsonl",
            "seg-.bin",
            "seg-+1.bin",
            "seg-0.idx",
            "x-0.bin",
        ] {
            assert_eq!(segment_number(bad), None, "{bad}");
        }
    }
}
