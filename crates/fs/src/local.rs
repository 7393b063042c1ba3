//! Real storage backend: SDF files in a local directory.
//!
//! Used by the threaded (non-simulated) runtime — the Damaris persistency
//! plugin, the file-per-process baseline, and the examples all store their
//! output through this backend. It also keeps simple counters so examples
//! can report achieved throughput.

use crate::backend::{publish, tmp_path_of, StorageBackend};
use crate::sentinel::{no_space_error, DiskSentinel, PressureLevel};
use damaris_format::{Result, SdfWriter};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// An empty file `commit_sdf` opened for the `begin_sdf` that follows.
type Spare = (PathBuf, File);

const SPARE_PREFIX: &str = ".spare-";
const SPARE_SUFFIX: &str = ".sdf.tmp";

/// True for a path a backend's spare file would have.
pub(crate) fn is_spare(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with(SPARE_PREFIX) && n.ends_with(SPARE_SUFFIX))
}

/// A directory acting as the "file system" plus byte/file accounting.
#[derive(Debug)]
pub struct LocalDirBackend {
    root: PathBuf,
    files_created: AtomicU64,
    bytes_written: AtomicU64,
    created_at: Instant,
    /// Optional quota accounting; commits are refused with a real
    /// `ENOSPC` once the quota is exhausted.
    sentinel: Option<Arc<DiskSentinel>>,
    /// File name of this backend's spare; no other backend uses it, in
    /// this process or another. The recovery scan removes one a crash
    /// left behind.
    spare_name: String,
    /// The next temporary file, opened while the last commit waited for
    /// the disk (see [`LocalDirBackend::commit_sdf`]).
    spare: Mutex<Option<Spare>>,
}

impl LocalDirBackend {
    /// Creates (or reuses) the directory.
    pub fn new(root: impl AsRef<Path>) -> std::io::Result<Self> {
        static BACKENDS: AtomicU64 = AtomicU64::new(0);
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(LocalDirBackend {
            root,
            files_created: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            created_at: Instant::now(),
            sentinel: None,
            spare_name: format!(
                "{SPARE_PREFIX}{}-{}{SPARE_SUFFIX}",
                std::process::id(),
                BACKENDS.fetch_add(1, Ordering::Relaxed)
            ),
            spare: Mutex::new(None),
        })
    }

    fn spare_slot(&self) -> std::sync::MutexGuard<'_, Option<Spare>> {
        // The slot holds no invariant a panic could break.
        self.spare.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Puts `spare` in the slot and deletes the file it displaces, unless
    /// that is the same file opened again.
    fn keep_spare(&self, spare: Option<Spare>) {
        let mut slot = self.spare_slot();
        let displaced = std::mem::replace(&mut *slot, spare);
        if let Some((path, _)) = displaced {
            if slot.as_ref().is_none_or(|(kept, _)| *kept != path) {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    /// Attaches a [`DiskSentinel`]: every commit reserves its bytes
    /// against the quota first and fails with `ENOSPC` (leaving its tmp
    /// file behind, exactly like a real full disk) when it doesn't fit;
    /// [`StorageBackend::begin_sdf`] refuses outright while the quota is
    /// fully exhausted so no payload bytes are wasted on a doomed file.
    pub fn with_sentinel(mut self, sentinel: Arc<DiskSentinel>) -> Self {
        self.sentinel = Some(sentinel);
        self
    }

    /// Creates a unique scratch backend under the system temp dir.
    pub fn scratch(tag: &str) -> std::io::Result<Self> {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "damaris-scratch-{tag}-{}-{n}",
            std::process::id()
        ));
        Self::new(dir)
    }

    /// The backing directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Full path for a file name inside the backend.
    pub fn path_of(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Opens a new SDF file for writing. `name` may contain `/`
    /// subdirectories, which are created.
    pub fn create_sdf(&self, name: &str) -> Result<SdfWriter> {
        let path = self.root.join(name);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(damaris_format::SdfError::Io)?;
        }
        self.files_created.fetch_add(1, Ordering::Relaxed);
        SdfWriter::create(path)
    }

    /// Opens a writer on the temporary name for `name` (crash-consistent
    /// path; pair with [`LocalDirBackend::commit_sdf`]).
    pub fn begin_sdf(&self, name: &str) -> Result<SdfWriter> {
        if let Some(sentinel) = &self.sentinel {
            if sentinel.level() == PressureLevel::Full {
                return Err(damaris_format::SdfError::Io(no_space_error()));
            }
        }
        let final_path = self.root.join(name);
        if let Some(parent) = final_path.parent() {
            std::fs::create_dir_all(parent).map_err(damaris_format::SdfError::Io)?;
        }
        let tmp = tmp_path_of(&final_path);
        let spare = {
            let mut slot = self.spare_slot();
            match &*slot {
                Some((path, _)) if path.parent() == tmp.parent() => slot.take(),
                _ => None,
            }
        };
        match spare {
            // A rename replaces whatever an earlier attempt left at `tmp`,
            // as creating it would; the spare is empty, so the writer
            // starts as it does on a file of its own.
            Some((path, file)) if std::fs::rename(&path, &tmp).is_ok() => {
                SdfWriter::from_file(file, tmp)
            }
            _ => SdfWriter::create(tmp),
        }
    }

    /// Finishes + fsyncs `writer` and atomically renames it into place.
    ///
    /// While the sync waits for the disk, a scoped thread creates the
    /// file the next [`begin_sdf`](Self::begin_sdf) in this directory
    /// will write. Creating a file is the one step here whose cost
    /// depends on what *other* programs did: ext4 without a journal
    /// skips every inode freed in the last 5–35 s one at a time, so
    /// `open(O_CREAT)` takes 20 µs in a quiet directory tree and 550 µs
    /// after a few thousand deletions nearby — a third of an iteration
    /// of 1 MiB, on a thread that otherwise sleeps through the sync.
    pub fn commit_sdf(&self, writer: SdfWriter) -> Result<u64> {
        if let Some(sentinel) = &self.sentinel {
            // Reserve against what has streamed out so far (index/footer
            // add a little more; close enough — the charge below records
            // the exact total). Failing here models fsync hitting ENOSPC:
            // the tmp file stays behind for recovery to sweep.
            if !sentinel.try_reserve(writer.bytes_written()) {
                return Err(damaris_format::SdfError::Io(no_space_error()));
            }
        }
        let tmp = writer.path().to_path_buf();
        let spare_path = tmp.with_file_name(&self.spare_name);
        let (total, spare) = std::thread::scope(|s| {
            let opener = std::thread::Builder::new()
                .spawn_scoped(s, || File::create(&spare_path).map(|f| (spare_path.clone(), f)));
            let total = writer.finish_synced();
            // No thread or no file: the next `begin_sdf` creates its own.
            let spare = opener.ok().and_then(|o| o.join().ok()).and_then(|f| f.ok());
            (total, spare)
        });
        self.keep_spare(spare);
        let total = total?;
        publish(&tmp)?;
        self.files_created.fetch_add(1, Ordering::Relaxed);
        if let Some(sentinel) = &self.sentinel {
            sentinel.charge(total);
        }
        Ok(total)
    }

    /// Deletes a published file and returns its space to the sentinel.
    /// Used by gc paths so reclaimed bytes actually relieve pressure.
    pub fn delete_file(&self, path: &Path) -> std::io::Result<u64> {
        let bytes = std::fs::metadata(path)?.len();
        std::fs::remove_file(path)?;
        if let Some(sentinel) = &self.sentinel {
            sentinel.release(bytes);
        }
        Ok(bytes)
    }

    /// Records that `bytes` were persisted (writers call this on finish).
    pub fn account_bytes(&self, bytes: u64) {
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Number of files created through this backend.
    pub fn files_created(&self) -> u64 {
        self.files_created.load(Ordering::Relaxed)
    }

    /// Total bytes accounted.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Mean throughput since creation (bytes/s).
    pub fn mean_throughput(&self) -> f64 {
        let elapsed = self.created_at.elapsed().as_secs_f64();
        if elapsed <= 0.0 {
            0.0
        } else {
            self.bytes_written() as f64 / elapsed
        }
    }

    /// Lists SDF files (relative paths) currently under the backend.
    pub fn list_sdf_files(&self) -> std::io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root.clone()];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir)? {
                let entry = entry?;
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "sdf") {
                    out.push(
                        path.strip_prefix(&self.root)
                            .expect("under root")
                            .to_path_buf(),
                    );
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Deletes the backing directory and everything in it.
    pub fn destroy(self) -> std::io::Result<()> {
        std::fs::remove_dir_all(&self.root)
    }
}

impl Drop for LocalDirBackend {
    fn drop(&mut self) {
        self.keep_spare(None);
    }
}

impl StorageBackend for LocalDirBackend {
    fn begin_sdf(&self, name: &str) -> Result<SdfWriter> {
        LocalDirBackend::begin_sdf(self, name)
    }

    fn commit_sdf(&self, writer: SdfWriter) -> Result<u64> {
        LocalDirBackend::commit_sdf(self, writer)
    }

    fn create_sdf(&self, name: &str) -> Result<SdfWriter> {
        LocalDirBackend::create_sdf(self, name)
    }

    fn account_bytes(&self, bytes: u64) {
        LocalDirBackend::account_bytes(self, bytes)
    }

    fn files_created(&self) -> u64 {
        LocalDirBackend::files_created(self)
    }

    fn bytes_written(&self) -> u64 {
        LocalDirBackend::bytes_written(self)
    }

    fn mean_throughput(&self) -> f64 {
        LocalDirBackend::mean_throughput(self)
    }

    fn list_sdf_files(&self) -> std::io::Result<Vec<PathBuf>> {
        LocalDirBackend::list_sdf_files(self)
    }

    fn root(&self) -> &Path {
        LocalDirBackend::root(self)
    }

    fn path_of(&self, name: &str) -> PathBuf {
        LocalDirBackend::path_of(self, name)
    }

    fn sentinel(&self) -> Option<&DiskSentinel> {
        self.sentinel.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use damaris_format::{DataType, Layout, SdfReader};

    #[test]
    fn create_list_destroy() {
        let backend = LocalDirBackend::scratch("local-test").unwrap();
        let layout = Layout::new(DataType::F32, &[4]);
        for name in ["a.sdf", "sub/dir/b.sdf"] {
            let mut w = backend.create_sdf(name).unwrap();
            w.write_dataset_f32("/x", &layout, &[1.0, 2.0, 3.0, 4.0])
                .unwrap();
            let total = w.finish().unwrap();
            backend.account_bytes(total);
        }
        assert_eq!(backend.files_created(), 2);
        assert!(backend.bytes_written() > 0);
        let files = backend.list_sdf_files().unwrap();
        assert_eq!(files.len(), 2);
        assert_eq!(files[0], PathBuf::from("a.sdf"));
        assert_eq!(files[1], PathBuf::from("sub/dir/b.sdf"));

        let r = SdfReader::open(backend.path_of("a.sdf")).unwrap();
        assert_eq!(r.read_f32("/x").unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
        backend.destroy().unwrap();
    }

    fn spares_in(dir: &Path) -> Vec<PathBuf> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| is_spare(p))
            .collect()
    }

    #[test]
    fn commit_opens_the_file_the_next_begin_writes() {
        let backend = LocalDirBackend::scratch("spare").unwrap();
        let layout = Layout::new(DataType::F32, &[4]);
        let write = |name: &str, v: f32| {
            let mut w = backend.begin_sdf(name).unwrap();
            w.write_dataset_f32("/x", &layout, &[v; 4]).unwrap();
            backend.commit_sdf(w).unwrap();
        };
        assert!(spares_in(backend.root()).is_empty());
        write("a.sdf", 1.0);
        let spare = spares_in(backend.root());
        assert_eq!(spare.len(), 1, "{spare:?}");
        assert_eq!(std::fs::metadata(&spare[0]).unwrap().len(), 0);

        // The next writer in that directory is the spare under the
        // temporary name; one in another directory leaves it alone.
        use std::os::unix::fs::MetadataExt;
        let ino = std::fs::metadata(&spare[0]).unwrap().ino();
        let other = backend.begin_sdf("sub/c.sdf").unwrap();
        assert_eq!(spares_in(backend.root()), spare);
        drop(other);
        let w = backend.begin_sdf("b.sdf").unwrap();
        assert!(spares_in(backend.root()).is_empty());
        assert_eq!(std::fs::metadata(w.path()).unwrap().ino(), ino);
        drop(w);
        write("b.sdf", 2.0);
        for (name, v) in [("a.sdf", 1.0), ("b.sdf", 2.0)] {
            let r = SdfReader::open(backend.path_of(name)).unwrap();
            r.validate().unwrap();
            assert_eq!(r.read_f32("/x").unwrap(), vec![v; 4]);
        }

        // A scan of the live directory takes the spare without calling
        // the directory dirty, and the backend carries on without it.
        std::fs::remove_file(backend.path_of("sub/c.sdf.tmp")).unwrap();
        assert!(crate::recovery::recover_dir(backend.root()).unwrap().is_clean());
        assert!(spares_in(backend.root()).is_empty());
        write("c.sdf", 3.0);
        assert_eq!(backend.files_created(), 3);

        // Dropping the backend leaves no spare behind.
        let root = backend.root().to_path_buf();
        assert_eq!(spares_in(&root).len(), 1);
        drop(backend);
        assert!(spares_in(&root).is_empty());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn concurrent_file_creation() {
        // The file-per-process pattern: many writers, each its own file.
        let backend = std::sync::Arc::new(LocalDirBackend::scratch("concurrent").unwrap());
        std::thread::scope(|s| {
            for rank in 0..16 {
                let b = std::sync::Arc::clone(&backend);
                s.spawn(move || {
                    let layout = Layout::new(DataType::F32, &[64]);
                    let mut w = b.create_sdf(&format!("rank-{rank}.sdf")).unwrap();
                    let data = vec![rank as f32; 64];
                    w.write_dataset_f32("/v", &layout, &data).unwrap();
                    let total = w.finish().unwrap();
                    b.account_bytes(total);
                });
            }
        });
        assert_eq!(backend.files_created(), 16);
        assert_eq!(backend.list_sdf_files().unwrap().len(), 16);
    }
}
