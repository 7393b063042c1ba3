//! The output manifest: the read tier's snapshot protocol.
//!
//! The EPE appends SDF files with the PR-1 crash-consistency discipline
//! (tmp + fsync + atomic rename), but a reader listing the directory can
//! still race a rename or observe a file the writer is about to replace
//! with a compacted run. The manifest closes that gap: a single
//! `MANIFEST` file at the output root lists every *sealed* file, and is
//! itself replaced atomically (write `MANIFEST.next` + fsync + swap the two
//! names), so the name always points at a complete generation — never a
//! half-written one.
//!
//! Writers (EPE persist hooks, the compactor, recovery) serialize through
//! a kernel `flock` on `MANIFEST.lock`; the kernel releases the lock when
//! the holder's fd closes, so a crashed holder cannot wedge anyone and
//! there is no stale-lock-breaking race. Readers never lock: they read
//! the current `MANIFEST` and check its CRC. The file a publish replaces is
//! emptied and written again by the publish after it (so publishing creates
//! and deletes no file: see [`Manifest::store`]); a reader that opened it
//! just before the swap can therefore read it cut short, fails the CRC and
//! reads the name again; one that opened it a publish earlier can read it
//! whole, refilled with a generation not published yet, and so checks that
//! the name still points at the file it read — an optimistic read,
//! validated and retried.
//!
//! Format (text, CRC-guarded, one entry per line):
//!
//! ```text
//! damaris-manifest v1
//! generation 7
//! iter 0 12 40968 node-0/iter-000012.sdf
//! span 0 0 11 491616 node-0/compact-000000-000011.sdf
//! crc 1a2b3c4d
//! ```

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Manifest file name at the output root.
pub const MANIFEST_NAME: &str = "MANIFEST";
/// The file the next generation is written into; between publishes it is
/// the emptied file of the generation before the current one.
pub const MANIFEST_NEXT: &str = "MANIFEST.next";
/// Lock file guarding manifest writers.
pub const MANIFEST_LOCK: &str = "MANIFEST.lock";
/// Times [`Manifest::load`] reads a manifest that fails its checks before
/// it calls the file corrupt. A read torn by a publish succeeds on the
/// next attempt unless another publish tears that one too.
const LOAD_ATTEMPTS: u32 = 4;
/// First line of every manifest.
const HEADER: &str = "damaris-manifest v1";
/// How long a writer waits for the lock before giving up.
const LOCK_WAIT: Duration = Duration::from_secs(10);

// `flock(2)` operation bits — part of the stable Linux ABI on every
// architecture we target, same discipline as `damaris_shm::backing`.
const FLOCK_EX: i32 = 2;
const FLOCK_NB: i32 = 4;

extern "C" {
    fn flock(fd: i32, operation: i32) -> i32;
}

/// Makes each of two existing names point at the other's file, atomically
/// (`renameat2(RENAME_EXCHANGE)`, Linux 3.15). False when nothing moved:
/// one of the names does not exist, or the file system cannot.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn swap_names(a: &Path, b: &Path) -> bool {
    use std::ffi::CString;
    use std::os::raw::c_char;
    use std::os::unix::ffi::OsStrExt;
    const AT_FDCWD: i32 = -100;
    const RENAME_EXCHANGE: u32 = 2;
    extern "C" {
        fn renameat2(
            olddirfd: i32,
            oldpath: *const c_char,
            newdirfd: i32,
            newpath: *const c_char,
            flags: u32,
        ) -> i32;
    }
    let c_path = |p: &Path| CString::new(p.as_os_str().as_bytes());
    let (Ok(a), Ok(b)) = (c_path(a), c_path(b)) else {
        return false;
    };
    // SAFETY: both pointers come from `CString`s that outlive the call,
    // so each is a NUL-terminated path; the call keeps neither.
    unsafe { renameat2(AT_FDCWD, a.as_ptr(), AT_FDCWD, b.as_ptr(), RENAME_EXCHANGE) == 0 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn swap_names(_: &Path, _: &Path) -> bool {
    false
}

/// Errors from manifest operations.
#[derive(Debug)]
pub enum ManifestError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural or checksum problem in the manifest bytes.
    Corrupt(String),
    /// Could not acquire the writer lock within the deadline.
    Locked(String),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Io(e) => write!(f, "manifest: io error: {e}"),
            ManifestError::Corrupt(m) => write!(f, "manifest: corrupt: {m}"),
            ManifestError::Locked(m) => write!(f, "manifest: lock: {m}"),
        }
    }
}

impl std::error::Error for ManifestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ManifestError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ManifestError {
    fn from(e: io::Error) -> Self {
        ManifestError::Io(e)
    }
}

/// Result alias for manifest operations.
pub type Result<T> = std::result::Result<T, ManifestError>;

/// What a manifest entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// One sealed iteration file (`iter <node> <iteration>`).
    Iteration(u32),
    /// A compacted run covering iterations `lo..=hi` (`span <node> <lo> <hi>`).
    Compacted { lo: u32, hi: u32 },
}

impl EntryKind {
    /// True when this entry covers `iteration`.
    pub fn covers(&self, iteration: u32) -> bool {
        match *self {
            EntryKind::Iteration(it) => it == iteration,
            EntryKind::Compacted { lo, hi } => (lo..=hi).contains(&iteration),
        }
    }

    /// Inclusive iteration range this entry covers.
    pub fn range(&self) -> (u32, u32) {
        match *self {
            EntryKind::Iteration(it) => (it, it),
            EntryKind::Compacted { lo, hi } => (lo, hi),
        }
    }
}

/// One sealed file the manifest references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Path relative to the output root, `/`-separated.
    pub file: String,
    /// Node (dedicated core) that produced the file.
    pub node: u32,
    /// What the file holds.
    pub kind: EntryKind,
    /// File size in bytes at seal time (advisory, 0 = unknown).
    pub bytes: u64,
}

/// A parsed manifest: generation counter + sealed-file entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonic, bumped on every store. Readers use it to cheaply detect
    /// "nothing changed since my last snapshot".
    pub generation: u64,
    /// Sealed files, in publish order.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Loads the manifest at `root`, or an empty generation-0 manifest if
    /// none exists yet. Corrupt bytes fail typed; allocation is bounded
    /// by the actual file size.
    pub fn load(root: &Path) -> Result<Manifest> {
        Self::load_with(&root.join(MANIFEST_NAME), read_named)
    }

    /// [`load`](Self::load) over the function that reads the file (tests
    /// hand it what a reader racing a publish would get): the bytes, and
    /// whether the name still pointed at the file they came from once
    /// they were read.
    fn load_with(
        path: &Path,
        mut read: impl FnMut(&Path) -> io::Result<(Vec<u8>, bool)>,
    ) -> Result<Manifest> {
        let mut attempt = 1;
        loop {
            let parsed = match read(path) {
                // The file this read opened has since been replaced. It
                // is emptied then and *filled again* by the publish after,
                // so its bytes can be a whole generation that is not
                // published yet (and the next load would see an older
                // one): whatever they say, they are not what the name
                // says now.
                Ok((_, false)) => Err(ManifestError::Corrupt("replaced while it was read".into())),
                // A torn read can end inside a character, so the bytes
                // are checked like the rest: by `parse`.
                Ok((bytes, true)) => String::from_utf8(bytes)
                    .map_err(|_| ManifestError::Corrupt("not UTF-8".into()))
                    .and_then(|text| Self::parse(&text)),
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Manifest::default()),
                Err(e) => return Err(e.into()),
            };
            match parsed {
                // The name points at a whole, current file again.
                Err(ManifestError::Corrupt(_)) if attempt < LOAD_ATTEMPTS => attempt += 1,
                done => return done,
            }
        }
    }

    /// Parses manifest text (exposed for corruption tests).
    pub fn parse(text: &str) -> Result<Manifest> {
        let corrupt = |m: String| ManifestError::Corrupt(m);
        let crc_at = text
            .rfind("crc ")
            .ok_or_else(|| corrupt("missing crc line (torn write?)".into()))?;
        // The CRC guards every byte before its own line.
        let (body, crc_line) = text.split_at(crc_at);
        let stored = crc_line
            .trim_end()
            .strip_prefix("crc ")
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| corrupt("malformed crc line".into()))?;
        let actual = damaris_format::crc32(body.as_bytes());
        if stored != actual {
            return Err(corrupt(format!(
                "checksum mismatch (stored {stored:08x}, computed {actual:08x})"
            )));
        }
        let mut lines = body.lines();
        if lines.next() != Some(HEADER) {
            return Err(corrupt("bad header".into()));
        }
        let generation = lines
            .next()
            .and_then(|l| l.strip_prefix("generation "))
            .and_then(|g| g.parse::<u64>().ok())
            .ok_or_else(|| corrupt("malformed generation line".into()))?;
        let mut entries = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split(' ');
            let tag = fields.next().unwrap_or("");
            let mut num = |what: &str| -> Result<u32> {
                fields
                    .next()
                    .and_then(|f| f.parse::<u32>().ok())
                    .ok_or_else(|| ManifestError::Corrupt(format!("malformed {what} in '{line}'")))
            };
            let (node, kind) = match tag {
                "iter" => {
                    let node = num("node")?;
                    let it = num("iteration")?;
                    (node, EntryKind::Iteration(it))
                }
                "span" => {
                    let node = num("node")?;
                    let lo = num("lo")?;
                    let hi = num("hi")?;
                    if lo > hi {
                        return Err(corrupt(format!("inverted span {lo}..{hi}")));
                    }
                    (node, EntryKind::Compacted { lo, hi })
                }
                other => return Err(corrupt(format!("unknown entry tag '{other}'"))),
            };
            let bytes = fields
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .ok_or_else(|| corrupt(format!("malformed byte count in '{line}'")))?;
            let file: String = fields.collect::<Vec<_>>().join(" ");
            if file.is_empty() || file.contains("..") || file.starts_with('/') {
                return Err(corrupt(format!("implausible file path '{file}'")));
            }
            entries.push(ManifestEntry { file, node, kind, bytes });
        }
        Ok(Manifest { generation, entries })
    }

    /// Serializes to the text format.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        // One buffer, sized for the lines it will hold (tag, four numbers
        // and separators fit in 48 bytes beside the file name).
        let lines: usize = self.entries.iter().map(|e| e.file.len() + 48).sum();
        let mut out = String::with_capacity(HEADER.len() + 48 + lines);
        // Writing to a `String` cannot fail.
        let _ = writeln!(out, "{HEADER}\ngeneration {}", self.generation);
        for e in &self.entries {
            let _ = match e.kind {
                EntryKind::Iteration(it) => {
                    writeln!(out, "iter {} {} {} {}", e.node, it, e.bytes, e.file)
                }
                EntryKind::Compacted { lo, hi } => {
                    writeln!(out, "span {} {} {} {} {}", e.node, lo, hi, e.bytes, e.file)
                }
            };
        }
        let crc = damaris_format::crc32(out.as_bytes());
        let _ = writeln!(out, "crc {crc:08x}");
        out
    }

    /// Atomically replaces the manifest at `root`: write `MANIFEST.next`,
    /// fsync, swap it with `MANIFEST`, best-effort sync the directory,
    /// empty the file that was replaced. Callers must hold the
    /// [`ManifestLock`] (readers are lock-free; this serializes writers).
    ///
    /// Swapping instead of renaming over keeps both files, so a publish
    /// per iteration allocates and frees no inode. That matters on ext4
    /// without a journal, where every inode freed in the last 5–35 s is
    /// one more that each file creation in the block group steps over: a
    /// node freeing one per publish, 400 times a second, pays 550 µs
    /// instead of 30 µs for each file it creates, or not, depending on
    /// what else was deleted lately. The first store at a root, and any
    /// store where the swap is not to be had, renames.
    pub fn store(&self, root: &Path) -> Result<()> {
        use std::io::Write;
        let next = root.join(MANIFEST_NEXT);
        let final_path = root.join(MANIFEST_NAME);
        std::fs::create_dir_all(root)?;
        let open_emptied = || {
            std::fs::OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&next)
        };
        {
            let mut f = open_emptied()?;
            f.write_all(self.render().as_bytes())?;
            f.sync_all()?;
        }
        let swapped = swap_names(&next, &final_path);
        if !swapped {
            std::fs::rename(&next, &final_path)?;
        }
        if let Ok(dir) = std::fs::File::open(root) {
            let _ = dir.sync_all();
        }
        if swapped {
            // `next` now names the generation just replaced: emptied, it
            // holds no blocks until the next store fills it. Not before
            // the directory sync — an emptying that reached the disk
            // ahead of the swap would leave `MANIFEST` empty after a crash.
            let _ = open_emptied();
        }
        Ok(())
    }

    /// True when some entry references `file`.
    pub fn references(&self, file: &str) -> bool {
        self.entries.iter().any(|e| e.file == file)
    }

    /// True when `(node, iteration)` is reachable through some entry.
    pub fn covers(&self, node: u32, iteration: u32) -> bool {
        self.entries
            .iter()
            .any(|e| e.node == node && e.kind.covers(iteration))
    }

    /// Highest iteration published for `node`, if any.
    pub fn max_iteration(&self, node: u32) -> Option<u32> {
        self.entries
            .iter()
            .filter(|e| e.node == node)
            .map(|e| e.kind.range().1)
            .max()
    }

    /// Adds or replaces (same `file`) an entry and bumps the generation.
    pub fn upsert(&mut self, entry: ManifestEntry) {
        self.upsert_all(vec![entry]);
    }

    /// [`upsert`](Self::upsert) for each entry of `batch`, in order, the
    /// generation bumped once per entry — in one pass over what is
    /// already listed, whatever the batch's size.
    pub fn upsert_all(&mut self, batch: Vec<ManifestEntry>) {
        self.generation += batch.len() as u64;
        let by_file: HashMap<&str, usize> = batch
            .iter()
            .enumerate()
            .map(|(i, e)| (e.file.as_str(), i))
            .collect();
        let mut listed = vec![false; batch.len()];
        for slot in &mut self.entries {
            if let Some(&i) = by_file.get(slot.file.as_str()) {
                *slot = batch[i].clone();
                listed[i] = true;
            }
        }
        let fresh = batch.into_iter().zip(listed).filter(|(_, listed)| !listed);
        self.entries.extend(fresh.map(|(entry, _)| entry));
    }
}

/// Reads the file `path` names, and tells whether `path` still named that
/// file afterwards (see [`Manifest::load_with`]).
fn read_named(path: &Path) -> io::Result<(Vec<u8>, bool)> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let opened = file.metadata()?;
    let mut bytes = Vec::with_capacity(opened.len() as usize);
    file.read_to_end(&mut bytes)?;
    // A manifest is replaced, never removed: a name that cannot be looked
    // at again is reported like one that cannot be opened.
    let current = same_file(&opened, &std::fs::metadata(path)?);
    Ok((bytes, current))
}

#[cfg(unix)]
fn same_file(a: &std::fs::Metadata, b: &std::fs::Metadata) -> bool {
    use std::os::unix::fs::MetadataExt;
    (a.dev(), a.ino()) == (b.dev(), b.ino())
}

/// Where files have no number to compare, names are not swapped either.
#[cfg(not(unix))]
fn same_file(_: &std::fs::Metadata, _: &std::fs::Metadata) -> bool {
    true
}

/// Exclusive writer lock on a root's manifest: a kernel `flock` on a
/// permanent `MANIFEST.lock` file. The kernel releases the lock when the
/// holding fd closes — on drop *or* on any crash, including `kill -9` —
/// so a dead holder cannot wedge the EPE or the compactor and there is
/// no stale-lock heuristic to race on.
///
/// The lock file is never unlinked: every contender must `flock` the
/// same inode, and an unlink-on-release scheme would let one waiter hold
/// an fd to a deleted inode while another locks a fresh file — two
/// "holders" at once.
#[derive(Debug)]
pub struct ManifestLock {
    /// Keeping the fd open holds the flock; dropping releases it.
    _file: std::fs::File,
}

impl ManifestLock {
    /// Acquires the lock at `root`, waiting up to ~10 s.
    pub fn acquire(root: &Path) -> Result<ManifestLock> {
        Self::acquire_wait(root, LOCK_WAIT)
    }

    /// [`acquire`](Self::acquire) with an explicit patience budget
    /// (tests use a short one to assert exclusion without a 10 s stall).
    fn acquire_wait(root: &Path, wait: Duration) -> Result<ManifestLock> {
        std::fs::create_dir_all(root)?;
        let path = root.join(MANIFEST_LOCK);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let deadline = Instant::now() + wait;
        loop {
            use std::os::fd::AsRawFd;
            // SAFETY: `file` is open for the duration of the call, so the
            // fd is valid; LOCK_EX|LOCK_NB never blocks and only touches
            // kernel lock state for that fd.
            let rc = unsafe { flock(file.as_raw_fd(), FLOCK_EX | FLOCK_NB) };
            if rc == 0 {
                return Ok(ManifestLock { _file: file });
            }
            let err = io::Error::last_os_error();
            match err.kind() {
                io::ErrorKind::Interrupted => continue,
                io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(ManifestError::Locked(format!(
                            "timed out waiting for {}",
                            path.display()
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => return Err(err.into()),
            }
        }
    }
}

/// Publishes one sealed iteration file: [`publish_iterations`] of one.
pub fn publish_iteration(
    root: &Path,
    node: u32,
    iteration: u32,
    file: &str,
    bytes: u64,
) -> Result<u64> {
    publish_iterations(root, node, &[(iteration, file, bytes)])
}

/// Publishes `node`'s sealed iteration files, given as `(iteration, file,
/// bytes)`, in one generation swap: lock, load, upsert each, store once.
/// The EPE calls this after a commit renamed the files into place and
/// synced their directory. Returns the new generation, which counts one
/// per file; publishing the same files again lists nothing twice.
pub fn publish_iterations(root: &Path, node: u32, sealed: &[(u32, &str, u64)]) -> Result<u64> {
    let _lock = ManifestLock::acquire(root)?;
    let mut m = Manifest::load(root)?;
    let entry = |&(iteration, file, bytes): &(u32, &str, u64)| ManifestEntry {
        file: file.to_string(),
        node,
        kind: EntryKind::Iteration(iteration),
        bytes,
    };
    m.upsert_all(sealed.iter().map(entry).collect());
    m.store(root)?;
    Ok(m.generation)
}

/// Atomically swaps `superseded` entries for `replacement` — the
/// compactor's commit point. Idempotent: re-running after a crash (some
/// entries already gone, replacement already present) converges to the
/// same manifest.
pub fn replace_entries(
    root: &Path,
    superseded: &[String],
    replacement: ManifestEntry,
) -> Result<u64> {
    let _lock = ManifestLock::acquire(root)?;
    let mut m = Manifest::load(root)?;
    m.entries.retain(|e| !superseded.contains(&e.file));
    if !m.references(&replacement.file) {
        m.entries.push(replacement);
    }
    m.generation += 1;
    m.store(root)?;
    Ok(m.generation)
}

/// Storage-pressure garbage collection: deletes on-disk files that are
/// *superseded* — iteration files the manifest no longer references and
/// whose iteration a compacted span of the same node covers (a finished
/// merge replaced them; the post-commit cleanup never ran, usually
/// because the compactor was paused or crashed) — plus orphan
/// `compact-*.tmp` merges. Reclaimed bytes are returned to `sentinel`
/// so the pressure actually drops. Returns `(files_deleted,
/// bytes_reclaimed)`.
///
/// Unreferenced files *not* covered by a span are left alone: they may
/// be sealed-but-unpublished iterations recovery's adoption pass will
/// re-publish.
pub fn gc_superseded(
    root: &Path,
    sentinel: Option<&crate::sentinel::DiskSentinel>,
) -> Result<(usize, u64)> {
    let manifest = Manifest::load(root)?;
    let mut deleted = 0usize;
    let mut reclaimed = 0u64;
    let node_dirs = match std::fs::read_dir(root) {
        Ok(rd) => rd,
        Err(_) => return Ok((0, 0)),
    };
    let mut remove = |path: &Path| -> io::Result<()> {
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        std::fs::remove_file(path)?;
        if let Some(s) = sentinel {
            s.release(bytes);
        }
        deleted += 1;
        reclaimed += bytes;
        Ok(())
    };
    for dir_entry in node_dirs.flatten() {
        let dir_name = dir_entry.file_name().to_string_lossy().into_owned();
        let Some(node) = dir_name
            .strip_prefix("node-")
            .and_then(|d| d.parse::<u32>().ok())
        else {
            continue;
        };
        let files = match std::fs::read_dir(dir_entry.path()) {
            Ok(rd) => rd,
            Err(_) => continue,
        };
        for file_entry in files.flatten() {
            let name = file_entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("compact-") && name.ends_with(".tmp") {
                remove(&file_entry.path())?;
                continue;
            }
            let Some(iteration) = name
                .strip_prefix("iter-")
                .and_then(|rest| rest.strip_suffix(".sdf"))
                .and_then(|digits| digits.parse::<u32>().ok())
            else {
                continue;
            };
            let rel = format!("{dir_name}/{name}");
            if manifest.references(&rel) {
                continue;
            }
            let covered = manifest.entries.iter().any(|e| {
                e.node == node
                    && matches!(e.kind, EntryKind::Compacted { .. })
                    && e.kind.covers(iteration)
            });
            if covered {
                remove(&file_entry.path())?;
            }
        }
    }
    Ok((deleted, reclaimed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn temp_root(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "damaris-manifest-{tag}-{}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn sample() -> Manifest {
        Manifest {
            generation: 7,
            entries: vec![
                ManifestEntry {
                    file: "node-0/iter-000012.sdf".into(),
                    node: 0,
                    kind: EntryKind::Iteration(12),
                    bytes: 40968,
                },
                ManifestEntry {
                    file: "node-0/compact-000000-000011.sdf".into(),
                    node: 0,
                    kind: EntryKind::Compacted { lo: 0, hi: 11 },
                    bytes: 491616,
                },
            ],
        }
    }

    #[test]
    fn text_roundtrip() {
        let m = sample();
        assert_eq!(Manifest::parse(&m.render()).unwrap(), m);
    }

    #[test]
    fn store_load_roundtrip() {
        let root = temp_root("roundtrip");
        assert_eq!(Manifest::load(&root).unwrap(), Manifest::default());
        let m = sample();
        m.store(&root).unwrap();
        assert_eq!(Manifest::load(&root).unwrap(), m);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn covers_and_max_iteration() {
        let m = sample();
        assert!(m.covers(0, 5)); // via the span
        assert!(m.covers(0, 12)); // via the iter entry
        assert!(!m.covers(0, 13));
        assert!(!m.covers(1, 5));
        assert_eq!(m.max_iteration(0), Some(12));
        assert_eq!(m.max_iteration(1), None);
    }

    #[test]
    fn publish_and_replace() {
        let root = temp_root("publish");
        publish_iteration(&root, 0, 0, "node-0/iter-000000.sdf", 100).unwrap();
        publish_iteration(&root, 0, 1, "node-0/iter-000001.sdf", 100).unwrap();
        let m = Manifest::load(&root).unwrap();
        assert_eq!(m.entries.len(), 2);
        assert_eq!(m.generation, 2);

        let superseded: Vec<String> = m.entries.iter().map(|e| e.file.clone()).collect();
        replace_entries(
            &root,
            &superseded,
            ManifestEntry {
                file: "node-0/compact-000000-000001.sdf".into(),
                node: 0,
                kind: EntryKind::Compacted { lo: 0, hi: 1 },
                bytes: 200,
            },
        )
        .unwrap();
        let m2 = Manifest::load(&root).unwrap();
        assert_eq!(m2.entries.len(), 1);
        assert!(m2.covers(0, 0) && m2.covers(0, 1));
        // Idempotent re-run (crash between store and cleanup).
        replace_entries(
            &root,
            &superseded,
            ManifestEntry {
                file: "node-0/compact-000000-000001.sdf".into(),
                node: 0,
                kind: EntryKind::Compacted { lo: 0, hi: 1 },
                bytes: 200,
            },
        )
        .unwrap();
        assert_eq!(Manifest::load(&root).unwrap().entries.len(), 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn publishing_creates_no_file_after_the_second() {
        use std::os::unix::fs::MetadataExt;
        let root = temp_root("recycle");
        let ino = |name: &str| std::fs::metadata(root.join(name)).expect(name).ino();
        publish_iteration(&root, 0, 0, "node-0/iter-000000.sdf", 100).unwrap();
        // The first store has nothing to swap with: it renames.
        assert!(!root.join(MANIFEST_NEXT).exists());
        publish_iteration(&root, 0, 1, "node-0/iter-000001.sdf", 100).unwrap();
        let pair = [ino(MANIFEST_NAME), ino(MANIFEST_NEXT)];
        for it in 2..8u32 {
            publish_iteration(&root, 0, it, &format!("node-0/iter-{it:06}.sdf"), 100).unwrap();
            // The same two files, trading names; the one not current holds
            // nothing.
            assert_eq!(ino(MANIFEST_NAME), pair[((it + 1) % 2) as usize]);
            assert_eq!(ino(MANIFEST_NEXT), pair[(it % 2) as usize]);
            assert_eq!(std::fs::metadata(root.join(MANIFEST_NEXT)).unwrap().len(), 0);
            assert_eq!(Manifest::load(&root).unwrap().generation, u64::from(it) + 1);
        }
        // A shorter manifest leaves no tail of the longer one it replaces.
        Manifest::default().store(&root).unwrap();
        assert_eq!(Manifest::load(&root).unwrap(), Manifest::default());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_read_torn_by_a_publish_is_read_again() {
        let whole = sample().render().into_bytes();
        let cut = whole[..whole.len() / 2].to_vec();
        // Emptied, then cut short, then whole: what a reader gets that
        // opened the replaced file twice in a row.
        let mut reads = vec![whole.clone(), cut.clone(), Vec::new()];
        let loaded =
            Manifest::load_with(Path::new("MANIFEST"), |_| Ok((reads.pop().unwrap(), true)));
        assert_eq!(loaded.unwrap(), sample());
        assert!(reads.is_empty());
        // A file that stays bad is corrupt, after a bounded number of reads.
        let mut count = 0;
        let loaded = Manifest::load_with(Path::new("MANIFEST"), |_| {
            count += 1;
            Ok((cut.clone(), true))
        });
        assert!(
            matches!(loaded, Err(ManifestError::Corrupt(_))),
            "{loaded:?}"
        );
        assert_eq!(count, LOAD_ATTEMPTS);
    }

    #[test]
    fn a_generation_read_before_its_swap_is_not_returned() {
        // The reader opened `MANIFEST` at generation 7; a publish replaced
        // that file and the publish after refilled it as `MANIFEST.next`
        // with generation 9, whole and CRC-valid, before swapping it in.
        // Those bytes are not the published manifest (8 is): the reader
        // must read the name again, and gets 8 — never 9 and then 8.
        let at = |generation| {
            Manifest {
                generation,
                ..sample()
            }
            .render()
            .into_bytes()
        };
        let mut reads = vec![(at(8), true), (at(9), false)];
        let loaded = Manifest::load_with(Path::new("MANIFEST"), |_| Ok(reads.pop().unwrap()));
        assert_eq!(loaded.unwrap().generation, 8);
        assert!(reads.is_empty());
        // Replaced under every read: an error, after the same bounded
        // number of reads a torn file gets.
        let mut count = 0;
        let loaded = Manifest::load_with(Path::new("MANIFEST"), |_| {
            count += 1;
            Ok((at(9), false))
        });
        assert!(matches!(loaded, Err(ManifestError::Corrupt(_))), "{loaded:?}");
        assert_eq!(count, LOAD_ATTEMPTS);
    }

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn a_batch_is_one_store_and_counts_every_file() {
        use std::os::unix::fs::MetadataExt;
        let root = temp_root("batch");
        let name = |it: u32| format!("node-0/iter-{it:06}.sdf");
        publish_iteration(&root, 0, 0, &name(0), 100).unwrap();
        publish_iteration(&root, 0, 1, &name(1), 100).unwrap();
        let current = || std::fs::metadata(root.join(MANIFEST_NAME)).unwrap().ino();
        let before = current();
        let names: Vec<String> = (2..5).map(name).collect();
        let sealed: Vec<(u32, &str, u64)> = (2..5)
            .zip(&names)
            .map(|(it, n)| (it, n.as_str(), 200))
            .collect();
        assert_eq!(publish_iterations(&root, 0, &sealed).unwrap(), 5);
        // One swap: the name points at the other file of the pair.
        assert_ne!(current(), before);
        assert_eq!(
            std::fs::metadata(root.join(MANIFEST_NEXT)).unwrap().ino(),
            before
        );
        let m = Manifest::load(&root).unwrap();
        assert_eq!(m.generation, 5);
        let listed: Vec<_> = m.entries.iter().map(|e| (e.kind, e.bytes)).collect();
        let expected: Vec<_> = (0..5)
            .map(|it| (EntryKind::Iteration(it), if it < 2 { 100 } else { 200 }))
            .collect();
        assert_eq!(listed, expected);
        // Publishing them again (a replayed commit) lists nothing twice.
        assert_eq!(publish_iterations(&root, 0, &sealed).unwrap(), 8);
        assert_eq!(Manifest::load(&root).unwrap().entries, m.entries);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn readers_racing_publishes_see_whole_generations() {
        let root = temp_root("race");
        publish_iteration(&root, 0, 0, "node-0/iter-000000.sdf", 100).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let (mut loads, mut last) = (0u64, 0u64);
                while !done.load(Ordering::Acquire) {
                    let m = Manifest::load(&root).expect("a whole manifest");
                    assert_eq!(m.entries.len() as u64, m.generation);
                    assert!(m.generation >= last, "{} after {last}", m.generation);
                    last = m.generation;
                    loads += 1;
                }
                loads
            });
            for it in 1..400u32 {
                publish_iteration(&root, 0, it, &format!("node-0/iter-{it:06}.sdf"), 100).unwrap();
            }
            done.store(true, Ordering::Release);
            assert!(reader.join().expect("reader") > 0);
        });
        assert_eq!(Manifest::load(&root).unwrap().generation, 400);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn lock_excludes_and_releases_on_drop() {
        let root = temp_root("lock");
        let lock = ManifestLock::acquire(&root).unwrap();
        // A second contender cannot enter while the flock is held; use a
        // short patience budget instead of the 10 s default.
        match ManifestLock::acquire_wait(&root, Duration::from_millis(50)) {
            Err(ManifestError::Locked(_)) => {}
            other => panic!("expected Locked while held, got {other:?}"),
        }
        drop(lock);
        // Dropping (or crashing — the kernel closes fds either way)
        // releases the lock: the next acquire is immediate, even though
        // the lock *file* is still on disk.
        assert!(root.join(MANIFEST_LOCK).exists());
        let lock2 = ManifestLock::acquire_wait(&root, Duration::from_millis(50)).unwrap();
        drop(lock2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn lock_waiter_enters_after_release_not_before() {
        // Regression for the stale-break TOCTOU of the O_EXCL scheme: two
        // waiters racing a third holder must serialize strictly — at no
        // point may two threads hold the lock at once.
        let root = temp_root("lock-race");
        let holders = Arc::new(AtomicU64::new(0));
        let mut threads = Vec::new();
        for _ in 0..4 {
            let root = root.clone();
            let holders = Arc::clone(&holders);
            threads.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let _lock = ManifestLock::acquire(&root).unwrap();
                    let inside = holders.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(inside, 0, "two threads inside the lock");
                    std::thread::yield_now();
                    holders.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for t in threads {
            t.join().expect("locker thread");
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn publish_fails_midway_under_enospc_then_recovers() {
        // Satellite: a full disk must not corrupt the manifest protocol.
        // Simulate the write of the next generation failing mid-publish
        // by planting a directory where `MANIFEST.next` goes — opening it
        // fails just like it would on a full file system, after the lock
        // is taken but before anything replaced the published manifest.
        let root = temp_root("publish-enospc");
        publish_iteration(&root, 0, 0, "node-0/iter-000000.sdf", 100).unwrap();
        let before = Manifest::load(&root).unwrap();
        assert_eq!(before.generation, 1);

        let tmp_blocker = root.join(MANIFEST_NEXT);
        std::fs::create_dir(&tmp_blocker).unwrap();
        let err = publish_iteration(&root, 0, 1, "node-0/iter-000001.sdf", 100).unwrap_err();
        assert!(matches!(err, ManifestError::Io(_)), "{err}");

        // The manifest is still readable at the old generation — readers
        // never saw the failed publish.
        assert_eq!(Manifest::load(&root).unwrap(), before);
        // The lock was not leaked by the failed writer: a fresh acquire
        // succeeds immediately.
        drop(ManifestLock::acquire_wait(&root, Duration::from_millis(100)).unwrap());

        // "Space returns": the next publish succeeds and lands exactly
        // one generation later.
        std::fs::remove_dir(&tmp_blocker).unwrap();
        publish_iteration(&root, 0, 1, "node-0/iter-000001.sdf", 100).unwrap();
        let after = Manifest::load(&root).unwrap();
        assert_eq!(after.generation, 2);
        assert_eq!(after.entries.len(), 2);
        assert!(after.covers(0, 1));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn gc_superseded_reclaims_covered_files_only() {
        use crate::sentinel::DiskSentinel;
        let root = temp_root("gc-superseded");
        std::fs::create_dir_all(root.join("node-0")).unwrap();
        // Three on-disk files: one superseded by a span (compaction ran,
        // cleanup didn't), one still referenced, one unpublished (must
        // survive for recovery's adoption pass), plus an orphan merge tmp.
        for name in [
            "iter-000000.sdf",
            "iter-000005.sdf",
            "iter-000009.sdf",
            "compact-000000-000003.sdf.tmp",
        ] {
            std::fs::write(root.join("node-0").join(name), vec![0u8; 64]).unwrap();
        }
        let mut m = Manifest::default();
        m.upsert(ManifestEntry {
            file: "node-0/compact-000000-000003.sdf".into(),
            node: 0,
            kind: EntryKind::Compacted { lo: 0, hi: 3 },
            bytes: 64,
        });
        m.upsert(ManifestEntry {
            file: "node-0/iter-000005.sdf".into(),
            node: 0,
            kind: EntryKind::Iteration(5),
            bytes: 64,
        });
        m.store(&root).unwrap();

        let sentinel = DiskSentinel::with_quota(1000);
        sentinel.charge(500);
        let (deleted, reclaimed) = gc_superseded(&root, Some(&sentinel)).unwrap();
        assert_eq!(deleted, 2, "superseded iter + orphan tmp");
        assert_eq!(reclaimed, 128);
        assert_eq!(sentinel.used(), 500 - 128);
        assert!(!root.join("node-0/iter-000000.sdf").exists());
        assert!(root.join("node-0/iter-000005.sdf").exists());
        assert!(root.join("node-0/iter-000009.sdf").exists(), "unpublished file kept");
        // Idempotent: nothing left to collect.
        assert_eq!(gc_superseded(&root, None).unwrap(), (0, 0));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn truncation_is_typed_corruption() {
        let text = sample().render();
        // Every cut that removes more than the trailing newline must fail
        // typed (losing only the final '\n' is cosmetically fine).
        for cut in 0..text.len() - 1 {
            let t = &text[..cut];
            match Manifest::parse(t) {
                Err(ManifestError::Corrupt(_)) => {}
                other => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // Byte flips must never panic, and anything still accepted must
        // parse to the *same* manifest (CRC32 catches every single-byte
        // change to the guarded body; only cosmetic whitespace after the
        // crc value can differ).
        #[test]
        fn corrupt_manifest_never_panics(
            flip_pos in 0usize..4096,
            flip_mask in 1u8..255,
        ) {
            let text = sample().render();
            let mut bytes = text.clone().into_bytes();
            let pos = flip_pos % bytes.len();
            bytes[pos] ^= flip_mask;
            if let Ok(s) = String::from_utf8(bytes) {
                if let Ok(m) = Manifest::parse(&s) {
                    prop_assert_eq!(m, sample());
                }
            }
        }

        #[test]
        fn random_text_never_panics(
            s in "[ -~]{0,256}",
            breaks in proptest::collection::vec(0usize..256, 0..8),
        ) {
            // The pattern class cannot emit newlines; splice them in so the
            // line-oriented parser sees multi-line garbage too.
            let mut t: Vec<u8> = s.into_bytes();
            for b in breaks {
                if !t.is_empty() {
                    let pos = b % t.len();
                    t[pos] = b'\n';
                }
            }
            let _ = Manifest::parse(std::str::from_utf8(&t).expect("ascii"));
        }
    }
}
