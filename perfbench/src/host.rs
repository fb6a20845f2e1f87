//! The host block recorded with every result, and per-phase peak RSS.

use crate::report::{int, obj, text, Value};
use std::path::Path;

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so
/// the next [`peak_rss_mb`] covers only what follows. False where the
/// kernel refuses, in which case the peak covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size since the last reset, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn first_line_with(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

/// The commit of a git checkout at `root`, read from `.git` directly
/// (no parent directory is searched). `None` outside a git checkout.
fn commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a over the relative path and bytes of every source file the
/// benchmark builds from, so results from checkouts without git history
/// still name the code they measured.
fn source_digest(root: &Path) -> String {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file);
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain([0]).chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    format!("{h:016x}")
}

/// Source files under `path`, skipping build output and run state.
fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(meta) = std::fs::symlink_metadata(path) else {
        return;
    };
    if meta.is_file() {
        out.push(path.to_path_buf());
    } else if meta.is_dir() {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        if matches!(name.as_deref(), Some("target" | ".work")) {
            return;
        }
        if let Ok(entries) = std::fs::read_dir(path) {
            for entry in entries.flatten() {
                collect(&entry.path(), out);
            }
        }
    }
}

/// The host block: where, with what, and from which source a result
/// was measured.
pub fn host_block(root: &Path, seed: u64, workloads: Vec<(String, Value)>) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    obj([
        ("nproc", int(nproc)),
        (
            "cpu",
            text(first_line_with("/proc/cpuinfo", "model name").unwrap_or_default()),
        ),
        (
            "mem_total",
            text(first_line_with("/proc/meminfo", "MemTotal").unwrap_or_default()),
        ),
        (
            "build_profile",
            text(format!(
                "{} (opt-level {}, debug {})",
                env!("PERFBENCH_PROFILE"),
                env!("PERFBENCH_OPT_LEVEL"),
                env!("PERFBENCH_DEBUG")
            )),
        ),
        ("rustc", text(env!("PERFBENCH_RUSTC"))),
        (
            "commit",
            text(commit(root).unwrap_or_else(|| "none (not a git checkout)".to_string())),
        ),
        ("source_fnv64", text(source_digest(root))),
        ("seed", int(seed)),
        ("workloads", obj(workloads)),
    ])
}
