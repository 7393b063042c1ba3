//! Real storage backend: SDF files in a local directory.
//!
//! Used by the threaded (non-simulated) runtime — the Damaris persistency
//! plugin, the file-per-process baseline, and the examples all store their
//! output through this backend. It also keeps simple counters so examples
//! can report achieved throughput.

use crate::backend::{rename_into_place, sync_dir, tmp_path_of, StorageBackend};
use crate::sentinel::{no_space_error, DiskSentinel, PressureLevel};
use damaris_format::{Result, SdfError, SdfWriter};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// An empty file a commit opened for a `begin_sdf` that follows.
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
    /// What this backend's spares are called, up to the serial number
    /// that tells them apart; no other backend uses it, in this process
    /// or another. The recovery scan removes those a crash left behind.
    spare_stem: String,
    spare_serial: AtomicU64,
    /// The next temporary files, opened while the last commit waited for
    /// the disk (see [`LocalDirBackend::commit_batch`]): as many as that
    /// commit had files, all in its directory.
    spares: Mutex<Vec<Spare>>,
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
            spare_stem: format!(
                "{SPARE_PREFIX}{}-{}",
                std::process::id(),
                BACKENDS.fetch_add(1, Ordering::Relaxed)
            ),
            spare_serial: AtomicU64::new(0),
            spares: Mutex::new(Vec::new()),
        })
    }

    fn spare_pool(&self) -> std::sync::MutexGuard<'_, Vec<Spare>> {
        // The pool holds no invariant a panic could break.
        self.spares.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens what the pool lacks of `want` spares in `dir`. Runs beside a
    /// commit's syncs; a file that cannot be created is one the next
    /// `begin_sdf` creates itself.
    fn open_spares(&self, dir: &Path, want: usize) -> Vec<Spare> {
        let have = self
            .spare_pool()
            .iter()
            .filter(|(path, _)| path.parent() == Some(dir))
            .count();
        (have..want)
            .filter_map(|_| {
                let serial = self.spare_serial.fetch_add(1, Ordering::Relaxed);
                let path = dir.join(format!("{}-{serial}{SPARE_SUFFIX}", self.spare_stem));
                File::create(&path).ok().map(|file| (path, file))
            })
            .collect()
    }

    /// Adds `opened` to the pool and deletes the spares of any directory
    /// but `dir`: the pool serves the directory last committed to.
    fn keep_spares(&self, dir: Option<&Path>, opened: Vec<Spare>) {
        let mut pool = self.spare_pool();
        pool.extend(opened);
        pool.retain(|(path, _)| {
            let keep = dir.is_some() && path.parent() == dir;
            if !keep {
                let _ = std::fs::remove_file(path);
            }
            keep
        });
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
        let dir =
            std::env::temp_dir().join(format!("damaris-scratch-{tag}-{}-{n}", std::process::id()));
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
            let mut pool = self.spare_pool();
            let at = pool
                .iter()
                .position(|(path, _)| path.parent() == tmp.parent());
            at.map(|i| pool.swap_remove(i))
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

    /// Finishes + fsyncs `writer` and atomically renames it into place:
    /// [`commit_batch`](Self::commit_batch) of one.
    pub fn commit_sdf(&self, writer: SdfWriter) -> Result<u64> {
        match self.commit_batch(&mut std::iter::once(writer)) {
            (_, Some(error)) => Err(error),
            (stored, None) => Ok(stored[0]),
        }
    }

    /// Commits a batch of writers as one: every file is finished and
    /// fsynced, then every file renamed into place, then every directory
    /// a rename happened in synced, once — so a crash leaves each file whole
    /// under its final name or under its temporary one, and the batch
    /// pays one directory sync instead of one per file. Stops at the
    /// first failure as [`StorageBackend::commit_batch`] says.
    ///
    /// While the syncs wait for the disk, a scoped thread creates the
    /// files the next [`begin_sdf`](Self::begin_sdf)s in this directory
    /// will write, one per file of this batch. Creating a file is the
    /// one step here whose cost depends on what *other* programs did:
    /// ext4 without a journal skips every inode freed in the last 5–35 s
    /// one at a time, so `open(O_CREAT)` takes 20 µs in a quiet directory
    /// tree and 550 µs after a few thousand deletions nearby — a third of
    /// an iteration of 1 MiB, on a thread that otherwise sleeps through
    /// the sync.
    pub fn commit_batch(
        &self,
        writers: &mut dyn ExactSizeIterator<Item = SdfWriter>,
    ) -> (Vec<u64>, Option<SdfError>) {
        let Some(first) = writers.next() else {
            return (Vec::new(), None);
        };
        let dir = first.path().parent().map(Path::to_path_buf);
        let want = 1 + writers.len();
        let mut failed = None;
        let mut synced: Vec<(PathBuf, u64)> = Vec::with_capacity(want);
        let opened = std::thread::scope(|s| {
            let opener = dir.as_deref().and_then(|dir| {
                std::thread::Builder::new()
                    .spawn_scoped(s, move || self.open_spares(dir, want))
                    .ok()
            });
            // Bytes of this batch the sentinel has not been charged yet.
            let mut uncharged = 0u64;
            for writer in std::iter::once(first).chain(writers) {
                match self.sync_one(writer, uncharged) {
                    Ok((tmp, total)) => {
                        uncharged += total;
                        synced.push((tmp, total));
                    }
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            // No thread: the next `begin_sdf`s create their own files.
            opener.and_then(|o| o.join().ok()).unwrap_or_default()
        });
        self.keep_spares(dir.as_deref(), opened);
        // Every data sync above comes before any rename below; every
        // rename before the sync of the directory it happened in.
        let mut stored = Vec::with_capacity(synced.len());
        let mut parents: Vec<PathBuf> = Vec::new();
        for (tmp, total) in synced {
            match rename_into_place(&tmp) {
                Ok(final_path) => {
                    let parent = final_path.parent().map(Path::to_path_buf);
                    parents.extend(parent.filter(|p| !parents.contains(p)));
                    stored.push(total);
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        for parent in &parents {
            sync_dir(parent);
        }
        self.files_created
            .fetch_add(stored.len() as u64, Ordering::Relaxed);
        if let Some(sentinel) = &self.sentinel {
            sentinel.charge(stored.iter().sum());
        }
        (stored, failed)
    }

    /// Finishes and fsyncs one file of a batch; returns its temporary
    /// path and length.
    fn sync_one(&self, writer: SdfWriter, uncharged: u64) -> Result<(PathBuf, u64)> {
        if let Some(sentinel) = &self.sentinel {
            // Reserve against what has streamed out so far (index/footer
            // add a little more; close enough — the charge after the
            // renames records the exact total). Failing here models fsync
            // hitting ENOSPC: the tmp file stays behind for recovery to
            // sweep.
            if !sentinel.try_reserve(uncharged + writer.bytes_written()) {
                return Err(SdfError::Io(no_space_error()));
            }
        }
        let tmp = writer.path().to_path_buf();
        let total = writer.finish_synced()?;
        Ok((tmp, total))
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
        self.keep_spares(None, Vec::new());
    }
}

impl StorageBackend for LocalDirBackend {
    fn begin_sdf(&self, name: &str) -> Result<SdfWriter> {
        LocalDirBackend::begin_sdf(self, name)
    }

    fn commit_sdf(&self, writer: SdfWriter) -> Result<u64> {
        LocalDirBackend::commit_sdf(self, writer)
    }

    fn commit_batch(
        &self,
        writers: &mut dyn ExactSizeIterator<Item = SdfWriter>,
    ) -> (Vec<u64>, Option<SdfError>) {
        LocalDirBackend::commit_batch(self, writers)
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
        assert!(crate::recovery::recover_dir(backend.root())
            .unwrap()
            .is_clean());
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
    fn a_batch_commits_every_file_and_opens_as_many_spares() {
        let backend = LocalDirBackend::scratch("batch").unwrap();
        let layout = Layout::new(DataType::F32, &[4]);
        let begin = |name: &str, v: f32| {
            let mut w = backend.begin_sdf(name).unwrap();
            w.write_dataset_f32("/x", &layout, &[v; 4]).unwrap();
            w.seal().unwrap();
            w.start_writeback();
            w
        };
        let names = ["n/a.sdf", "n/b.sdf", "n/c.sdf"];
        let dir = backend.path_of("n");
        let mut writers: Vec<_> = names
            .iter()
            .zip([1.0, 2.0, 3.0])
            .map(|(n, v)| begin(n, v))
            .collect();
        let (stored, failed) = backend.commit_batch(&mut writers.drain(..));
        assert!(failed.is_none(), "{failed:?}");
        assert_eq!(stored.len(), 3);
        assert_eq!(backend.files_created(), 3);
        for ((name, v), bytes) in names.iter().zip([1.0, 2.0, 3.0]).zip(&stored) {
            let r = SdfReader::open(backend.path_of(name)).unwrap();
            r.validate().unwrap();
            assert_eq!(r.read_f32("/x").unwrap(), vec![v; 4]);
            assert_eq!(
                std::fs::metadata(backend.path_of(name)).unwrap().len(),
                *bytes
            );
        }
        // A spare per file of the batch, each the file a later writer
        // writes; a smaller batch after finds enough and opens none.
        use std::os::unix::fs::MetadataExt;
        let inodes = |paths: &[PathBuf]| {
            let mut inodes: Vec<u64> = paths
                .iter()
                .map(|p| std::fs::metadata(p).unwrap().ino())
                .collect();
            inodes.sort_unstable();
            inodes
        };
        let spares = inodes(&spares_in(&dir));
        assert_eq!(spares.len(), 3, "{spares:?}");
        let writers = [begin("n/d.sdf", 4.0), begin("n/e.sdf", 5.0)];
        let taken: Vec<PathBuf> = writers.iter().map(|w| w.path().to_path_buf()).collect();
        let left = spares_in(&dir);
        assert_eq!(left.len(), 1);
        let mut recycled = inodes(&taken);
        recycled.extend(inodes(&left));
        recycled.sort_unstable();
        assert_eq!(recycled, spares);
        let (stored, failed) = backend.commit_batch(&mut writers.into_iter());
        assert!(failed.is_none() && stored.len() == 2, "{failed:?}");
        assert_eq!(spares_in(&dir).len(), 2);

        // A writer dropped uncommitted leaves a `.tmp` and nothing else;
        // dropping the backend leaves no spare.
        drop(begin("n/f.sdf", 6.0));
        let root = backend.root().to_path_buf();
        drop(backend);
        assert!(spares_in(&root.join("n")).is_empty());
        let scan = crate::recovery::recover_dir(&root).unwrap();
        assert_eq!(scan.removed_tmp, [PathBuf::from("n/f.sdf.tmp")]);
        assert_eq!(scan.valid.len(), 5);
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
