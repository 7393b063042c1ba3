//! The storage-backend abstraction behind the Damaris persist path.
//!
//! Historically the runtime wrote through [`LocalDirBackend`] directly.
//! Fault-injection (see [`crate::faulty::FaultyBackend`]) and any future
//! remote/striped backends need the persist path to go through a trait
//! object instead, so the dedicated core never knows (or cares) whether a
//! write can fail, stall, or tear.
//!
//! # Crash-consistent commit
//!
//! [`StorageBackend::begin_sdf`] opens the writer on a temporary name
//! (`<name>.tmp`); [`StorageBackend::commit_sdf`] finishes the writer,
//! fsyncs, and atomically renames it to its final name
//! ([`StorageBackend::commit_batch`] does it for several writers at once).
//! A crash (or an injected fault) between the two leaves either a `*.tmp`
//! orphan or nothing — never a half-written `*.sdf` that readers could
//! mistake for output. The recovery scan ([`crate::recovery::recover`]) deletes
//! orphans and quarantines any `*.sdf` whose checksums don't verify.

use crate::clock::{IoClock, WallClock};
use damaris_format::{Result, SdfError, SdfWriter};
use std::path::{Path, PathBuf};

/// Suffix added to in-flight SDF files until they are committed.
pub const TMP_SUFFIX: &str = ".tmp";

/// Abstract storage target for SDF output.
///
/// Object-safe so the runtime can hold an `Arc<dyn StorageBackend>` and
/// tests can swap in decorated (fault-injecting) backends.
pub trait StorageBackend: Send + Sync + std::fmt::Debug {
    /// Opens a writer on the *temporary* name for `name` (parents are
    /// created). The file is invisible to [`StorageBackend::list_sdf_files`]
    /// until [`StorageBackend::commit_sdf`] renames it into place.
    fn begin_sdf(&self, name: &str) -> Result<SdfWriter>;

    /// Finishes + fsyncs `writer` and atomically publishes it under its
    /// final name. Returns total bytes in the file.
    fn commit_sdf(&self, writer: SdfWriter) -> Result<u64>;

    /// Commits the writers `writers` yields, in order, and stops at the
    /// first that fails: returns the bytes of each file committed and the
    /// error that ended the batch, if one did. Writers are *pulled*: one
    /// the call never asked for stays with the caller, untouched; one it
    /// took and did not commit is gone, and its file must be written again.
    ///
    /// The default commits one file at a time. A backend that can share
    /// work across the batch (one directory sync for all of it) overrides
    /// this; what holds either way is that a file is synced before it is
    /// renamed, and that on return every committed file's name is durable.
    fn commit_batch(
        &self,
        writers: &mut dyn ExactSizeIterator<Item = SdfWriter>,
    ) -> (Vec<u64>, Option<SdfError>) {
        let mut stored = Vec::with_capacity(writers.len());
        for writer in writers {
            match self.commit_sdf(writer) {
                Ok(bytes) => stored.push(bytes),
                Err(e) => return (stored, Some(e)),
            }
        }
        (stored, None)
    }

    /// Legacy non-atomic create: writes directly to the final name.
    /// Baselines (file-per-process) and tools that don't need crash
    /// consistency still use this.
    fn create_sdf(&self, name: &str) -> Result<SdfWriter>;

    /// Records that `bytes` were persisted.
    fn account_bytes(&self, bytes: u64);

    /// Number of files created (committed or legacy-created).
    fn files_created(&self) -> u64;

    /// Total bytes accounted via [`StorageBackend::account_bytes`].
    fn bytes_written(&self) -> u64;

    /// Mean throughput since creation (bytes/s).
    fn mean_throughput(&self) -> f64;

    /// Published SDF files (relative paths); excludes `*.tmp`.
    fn list_sdf_files(&self) -> std::io::Result<Vec<PathBuf>>;

    /// The backing directory.
    fn root(&self) -> &Path;

    /// Full path for a name inside the backend.
    fn path_of(&self, name: &str) -> PathBuf;

    /// The time source consumers of this backend should wait on (retry
    /// backoff, injected stalls). Defaults to the wall clock; decorated
    /// test backends override it with a [`crate::clock::VirtualClock`] so
    /// waits advance simulated time instead of blocking the test.
    fn clock(&self) -> &dyn IoClock {
        static WALL: WallClock = WallClock;
        &WALL
    }

    /// Disk-space accounting, when the backend is quota-aware (see
    /// [`crate::sentinel::DiskSentinel`]). `None` (the default) means
    /// unlimited space: the pressure state machine stays dormant.
    fn sentinel(&self) -> Option<&crate::sentinel::DiskSentinel> {
        None
    }
}

/// Maps a final SDF path to its in-flight temporary path.
pub fn tmp_path_of(final_path: &Path) -> PathBuf {
    let mut os = final_path.as_os_str().to_os_string();
    os.push(TMP_SUFFIX);
    PathBuf::from(os)
}

/// Recovers the final path from a temporary path, if it is one.
pub fn final_path_of(tmp_path: &Path) -> Option<PathBuf> {
    let s = tmp_path.to_str()?;
    s.strip_suffix(TMP_SUFFIX).map(PathBuf::from)
}

/// Renames a synced temporary file to its final name. The fsync before is
/// the *caller's* job (via [`SdfWriter::finish_synced`]), and so is the
/// [`sync_dir`] after, which makes the rename itself survive a crash.
pub(crate) fn rename_into_place(tmp: &Path) -> Result<PathBuf> {
    let final_path = final_path_of(tmp).ok_or_else(|| {
        SdfError::Usage(format!(
            "commit_sdf: writer path {} does not end in {TMP_SUFFIX}",
            tmp.display()
        ))
    })?;
    std::fs::rename(tmp, &final_path).map_err(SdfError::Io)?;
    Ok(final_path)
}

/// Best-effort directory fsync: not supported everywhere, and a rename is
/// atomic without it, so failures here are not fatal.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(dir) = std::fs::File::open(dir) {
        let _ = dir.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tmp_final_roundtrip() {
        let f = PathBuf::from("/x/node-0/iter-000001.sdf");
        let t = tmp_path_of(&f);
        assert_eq!(t, PathBuf::from("/x/node-0/iter-000001.sdf.tmp"));
        assert_eq!(final_path_of(&t).unwrap(), f);
        assert_eq!(final_path_of(&f), None);
    }
}
