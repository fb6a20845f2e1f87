//! Positioned reads: the mmap fallback and the header probes of the
//! frame index.

use crate::StoreError;
use std::fs::File;

/// Reads exactly `buf.len()` bytes at `offset` without touching any
/// shared file cursor (`pread(2)` on Unix; a private `seek + read`
/// elsewhere). `Ok(false)` is a clean or torn EOF (the bytes are not
/// there in full), distinct from real I/O failure.
pub(crate) fn pread_exact(file: &File, buf: &mut [u8], offset: u64) -> Result<bool, StoreError> {
    #[cfg(unix)]
    let read_at = |buf: &mut [u8], at: u64| {
        use std::os::unix::fs::FileExt;
        file.read_at(buf, at)
    };
    #[cfg(not(unix))]
    let read_at = |buf: &mut [u8], at: u64| {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = file;
        f.seek(SeekFrom::Start(at))?;
        f.read(buf)
    };
    let mut done = 0usize;
    while done < buf.len() {
        match read_at(&mut buf[done..], offset + done as u64) {
            Ok(0) => return Ok(false),
            Ok(n) => done += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(StoreError::Io(e)),
        }
    }
    Ok(true)
}
