//! Chunked segment reads: split each segment at frame-index boundaries
//! into independently decodable byte ranges, decoded from one
//! in-memory window per chunk.
//!
//! A [`ChunkPlan`] cuts every segment at its sidecar-index stride
//! boundaries (rebuilt by a header scan when the sidecar is missing or
//! refused), producing tens to thousands of [`ChunkSpec`]s that
//! work-stealing folds claim one at a time. Chunk boundaries carry the
//! planned first rank and an inclusive rank bound, so a decode that
//! drifts across a boundary (a stale plan, a damaged file) is an error
//! — never a silently wrong result.
//!
//! Each chunk is decoded from one window — a zero-copy `mmap(2)` view
//! ([`Mmap`]), or one positioned read wherever mapping fails — by the
//! store's only frame decoder, shared by
//! [`par_fold_with`](crate::par_fold_with) and
//! [`CrawlReader`](crate::CrawlReader). It verifies every checksum and
//! the rank-sorted run invariant, and stops at the planned chunk end,
//! which the planner derives from the manifest watermark and checks
//! against the file's length: no window holds bytes past the durable
//! prefix or reaches past the end of its file.
//!
//! **Layer:** persistence (between the segment files and the fold and
//! merge readers). **Invariants:** chunks partition each segment's
//! durable byte range exactly; each chunk's frames are rank-ascending,
//! start at the planned first rank, and stay within the planned bound;
//! the mapped and positioned-read windows yield byte-identical
//! [`VisitLog`] streams or fail. **Entry points:** [`plan_chunks`],
//! [`ChunkPlan::open_chunk`], [`ChunkStream`].

use crate::codec::{self, FRAME_HEADER};
use crate::index::{self, INDEX_STRIDE};
use crate::manifest::{Fingerprint, Manifest};
use crate::mmap::Mmap;
use crate::pread::pread_exact;
use crate::StoreError;
use cg_instrument::VisitLog;
use std::fs::File;
use std::ops::Range;
use std::path::Path;

/// How chunk bytes reach the decoder.
// The hidden variant is a test hook, not a non-exhaustiveness marker.
#[allow(clippy::manual_non_exhaustive)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadBackend {
    /// Zero-copy `mmap(2)` windows; any map failure falls back to one
    /// positioned read for that chunk.
    #[default]
    Mmap,
    /// The positioned-read fallback, forced for every chunk — a test
    /// hook that pins the fallback against the mapped path.
    #[doc(hidden)]
    Pread,
}

/// One independently decodable byte range of one segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkSpec {
    /// Manifest index of the owning segment.
    pub segment: usize,
    /// Segment file name (relative to the store directory).
    pub file: String,
    /// First byte of the chunk (a frame-header offset).
    pub start: u64,
    /// One past the chunk's last byte.
    pub end: u64,
    /// Frames the chunk must decode — exactly.
    pub frames: u64,
    /// Rank of the chunk's first frame (pinned by the index probe).
    pub first_rank: u64,
    /// Inclusive upper bound on ranks in this chunk (the next chunk's
    /// first rank minus one, or the segment's max rank).
    pub rank_bound: u64,
}

/// The chunk decomposition of a store: every segment cut at its index
/// stride boundaries, plus one shared read-only handle per segment.
pub struct ChunkPlan {
    /// The crawl the store belongs to.
    pub(crate) fingerprint: Fingerprint,
    files: Vec<File>,
    chunks: Vec<ChunkSpec>,
}

/// Builds the chunk plan for the store at `dir`, loading each
/// segment's validated sidecar index or rebuilding it with a header
/// scan. A directory without a manifest, a retired-format store (see
/// [`Manifest::load`]) and a segment whose file is shorter than its
/// manifest watermark promises are refused here, before any byte is
/// mapped or any buffer is sized from a header.
pub fn plan_chunks(dir: impl AsRef<Path>) -> Result<ChunkPlan, StoreError> {
    let dir = dir.as_ref();
    let _span = cg_telemetry::span!("chunk_plan");
    let manifest = Manifest::load(dir)?.ok_or_else(|| StoreError::Corrupt {
        file: crate::MANIFEST_FILE.to_string(),
        detail: format!("no manifest in {}", dir.display()),
    })?;
    let mut files = Vec::with_capacity(manifest.segments.len());
    let mut chunks = Vec::new();
    for (si, meta) in manifest.segments.iter().enumerate() {
        let file = File::open(dir.join(&meta.file)).map_err(|e| StoreError::Corrupt {
            file: meta.file.clone(),
            detail: format!("manifest lists segment but it cannot be opened: {e}"),
        })?;
        if meta.synced_records > 0 {
            let (idx, end) = match index::load_index(&file, dir, meta) {
                Some(idx) => {
                    let end = index::durable_end(&file, &meta.file, &idx, meta.synced_records)?;
                    (idx, end)
                }
                // Missing/corrupt/stale sidecar: rebuild from the
                // segment itself — slower, never wrong.
                None => index::scan_index(&file, &meta.file, meta.synced_records, INDEX_STRIDE)?,
            };
            let corrupt = |detail: String| StoreError::Corrupt {
                file: meta.file.clone(),
                detail,
            };
            // Frame headers vouch for where the last frame ends, not for
            // its bytes being there: a window past EOF would fault on
            // first touch. One fstat settles it.
            let len = file.metadata()?.len();
            if end > len {
                return Err(corrupt(format!(
                    "segment ends {} bytes short of its manifest watermark \
                     ({} records end at byte {end}, the file has {len})",
                    end - len,
                    meta.synced_records
                )));
            }
            if idx.entries.windows(2).any(|w| w[1].rank <= w[0].rank) {
                return Err(corrupt(
                    "segment not rank-sorted at a chunk boundary".into(),
                ));
            }
            let stride = u64::from(idx.stride);
            for (ci, entry) in idx.entries.iter().enumerate() {
                let next = idx.entries.get(ci + 1);
                chunks.push(ChunkSpec {
                    segment: si,
                    file: meta.file.clone(),
                    start: entry.offset,
                    end: next.map_or(end, |n| n.offset),
                    frames: next.map_or(meta.synced_records - ci as u64 * stride, |_| stride),
                    first_rank: entry.rank,
                    rank_bound: next.map_or(meta.max_rank, |n| n.rank - 1),
                });
            }
        }
        files.push(file);
    }
    Ok(ChunkPlan {
        fingerprint: manifest.fingerprint,
        files,
        chunks,
    })
}

impl ChunkPlan {
    /// Chunks in (segment, chunk) order — the fixed reduce order.
    pub fn chunks(&self) -> &[ChunkSpec] {
        &self.chunks
    }

    /// Total chunk count.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the store has no durable frames at all.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Segments covered by the plan.
    pub fn segments(&self) -> usize {
        self.files.len()
    }

    /// Opens chunk `i` for decoding through `backend`. Each open claims
    /// the chunk in telemetry; an mmap failure silently downgrades that
    /// chunk to the positioned-read path.
    pub fn open_chunk(&self, i: usize, backend: ReadBackend) -> Result<ChunkStream, StoreError> {
        let spec = &self.chunks[i];
        let tele = crate::telemetry::metrics();
        tele.chunks_claimed.incr();
        let len = (spec.end - spec.start) as usize;
        let file = &self.files[spec.segment];
        let window = match backend {
            ReadBackend::Mmap => {
                let _span = cg_telemetry::span!("chunk_map", len);
                match Mmap::map_range(file, spec.start, len) {
                    Ok(map) => {
                        tele.mmap_bytes.add(len as u64);
                        Window::Mapped(map)
                    }
                    Err(_) => Window::Owned(read_chunk(file, spec, len)?),
                }
            }
            ReadBackend::Pread => Window::Owned(read_chunk(file, spec, len)?),
        };
        Ok(ChunkStream {
            file_name: spec.file.clone(),
            frames: spec.frames,
            first_rank: spec.first_rank,
            rank_bound: spec.rank_bound,
            done: 0,
            pos: 0,
            last_rank: None,
            failed: false,
            _span: cg_telemetry::span!("chunk_decode", spec.frames),
            window,
        })
    }
}

/// One positioned read covering the whole chunk. The planner checked
/// the chunk lies inside the file, so `len` is bounded by the file's
/// size, never by a header alone.
fn read_chunk(file: &File, spec: &ChunkSpec, len: usize) -> Result<Vec<u8>, StoreError> {
    let mut bytes = vec![0u8; len];
    if !pread_exact(file, &mut bytes, spec.start)? {
        return Err(StoreError::Corrupt {
            file: spec.file.clone(),
            detail: "segment ends inside a planned chunk (short of its manifest watermark)"
                .to_string(),
        });
    }
    Ok(bytes)
}

/// The bytes of one chunk.
enum Window {
    /// Zero-copy view of the page cache.
    Mapped(Mmap),
    /// Positioned-read copy (the mmap fallback).
    Owned(Vec<u8>),
}

impl Window {
    fn bytes(&self) -> &[u8] {
        match self {
            Window::Mapped(map) => map.bytes(),
            Window::Owned(bytes) => bytes,
        }
    }
}

/// Decodes one chunk's frames to [`VisitLog`]s, verifying checksums,
/// the rank-sorted run invariant, and the planned chunk boundaries.
/// The first error is yielded once, then the stream fuses.
pub struct ChunkStream {
    file_name: String,
    frames: u64,
    first_rank: u64,
    rank_bound: u64,
    done: u64,
    pos: usize,
    last_rank: Option<u64>,
    failed: bool,
    _span: cg_telemetry::Span,
    window: Window,
}

impl ChunkStream {
    fn corrupt(&self, detail: String) -> StoreError {
        StoreError::Corrupt {
            file: self.file_name.clone(),
            detail,
        }
    }

    /// Boundary checks: ascending ranks, the planned first rank, and the
    /// inclusive rank bound. A violation means the plan and the bytes
    /// disagree — surfaced, never papered over.
    fn check_rank(&mut self, rank: u64) -> Result<(), StoreError> {
        if self.done == 0 && rank != self.first_rank {
            return Err(self.corrupt(format!(
                "chunk starts at rank {rank}, planned {} — segment and index disagree",
                self.first_rank
            )));
        }
        if let Some(prev) = self.last_rank {
            if rank <= prev {
                return Err(self.corrupt(format!(
                    "segment not rank-sorted (rank {rank} after {prev})"
                )));
            }
        }
        if rank > self.rank_bound {
            return Err(self.corrupt(format!(
                "rank {rank} beyond the chunk bound {} — segment and index disagree",
                self.rank_bound
            )));
        }
        self.last_rank = Some(rank);
        Ok(())
    }

    /// Steps over the next frame of the chunk, verifying its checksum
    /// and rank, and returns the rank plus the payload's byte range in
    /// the window ([`ChunkStream::decode`] reads it). `Ok(None)` once
    /// every planned frame is out, after checking the planned byte range
    /// was consumed exactly.
    pub(crate) fn next_frame(&mut self) -> Result<Option<(u64, Range<usize>)>, StoreError> {
        let window = self.window.bytes();
        if self.done == self.frames {
            if self.pos != window.len() {
                return Err(self.corrupt(format!(
                    "chunk decoded {} of {} planned bytes — segment and index disagree",
                    self.pos,
                    window.len()
                )));
            }
            return Ok(None);
        }
        let rest = &window[self.pos..];
        let header = match rest.first_chunk::<FRAME_HEADER>() {
            Some(h) => codec::parse_header(h),
            None => return Err(self.short()),
        };
        let total = FRAME_HEADER + header.len;
        if rest.len() < total {
            return Err(self.short());
        }
        let payload = self.pos + FRAME_HEADER..self.pos + total;
        if codec::frame_check(header.rank, &window[payload.clone()]) != header.check {
            return Err(
                self.corrupt("frame checksum mismatch below the manifest watermark".to_string())
            );
        }
        self.check_rank(header.rank)?;
        self.pos += total;
        self.done += 1;
        let tele = crate::telemetry::metrics();
        tele.records_replayed.incr();
        tele.bytes_replayed.add(total as u64);
        Ok(Some((header.rank, payload)))
    }

    fn short(&self) -> StoreError {
        self.corrupt(format!(
            "chunk ends {} frames short of its planned byte range",
            self.frames - self.done
        ))
    }

    /// Runs `decode` over the payload `range` returned by
    /// [`ChunkStream::next_frame`], naming this chunk's segment in any
    /// error.
    pub(crate) fn decode<T>(
        &self,
        range: Range<usize>,
        decode: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> Result<T, StoreError> {
        decode(&self.window.bytes()[range]).map_err(|e| self.corrupt(e))
    }

    /// Decodes the next frame of the chunk; `Ok(None)` once every
    /// planned frame is out (after verifying the planned byte range was
    /// consumed exactly). The `Iterator` impl wraps this with an error
    /// fuse; callers that want explicit control (e.g. the service
    /// replayer's claim loop) call it directly.
    pub fn next_log(&mut self) -> Result<Option<VisitLog>, StoreError> {
        match self.next_frame()? {
            Some((_, payload)) => self.decode(payload, codec::decode_visit_log).map(Some),
            None => Ok(None),
        }
    }
}

impl Iterator for ChunkStream {
    type Item = Result<VisitLog, StoreError>;

    fn next(&mut self) -> Option<Result<VisitLog, StoreError>> {
        if self.failed {
            return None;
        }
        match self.next_log() {
            Ok(Some(log)) => Some(Ok(log)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}
