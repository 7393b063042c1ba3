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
//! One parser checks a text: [`ManifestView`], borrowed and
//! allocation-free; [`Manifest::parse`] and [`Manifest::load`] are that
//! check, owned. A reader that polls keeps a [`ManifestReader`], which
//! recognises an unchanged manifest without reading its entries and
//! checks again only the entry lines a publish appended.
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
    /// by twice the actual file size.
    pub fn load(root: &Path) -> Result<Manifest> {
        let (mut text, mut entries) = (Vec::new(), Vec::new());
        let path = root.join(MANIFEST_NAME);
        let checked = read_checked(&path, &mut text, b"", Some(&mut entries), read_named)?;
        Ok(Manifest {
            generation: checked.generation,
            entries,
        })
    }

    /// [`load`](Self::load) over a function that reads the whole file at
    /// once, as tests hand it what a reader racing a publish would get:
    /// the bytes, and whether the name still pointed at the file they
    /// came from once they were read.
    #[cfg(test)]
    fn load_with(
        path: &Path,
        mut read: impl FnMut(&Path) -> io::Result<(Vec<u8>, bool)>,
    ) -> Result<Manifest> {
        let (mut text, mut entries) = (Vec::new(), Vec::new());
        let checked = read_checked(path, &mut text, b"", Some(&mut entries), |path, buf| {
            let (bytes, current) = read(path)?;
            *buf = bytes;
            Ok(current)
        })?;
        Ok(Manifest {
            generation: checked.generation,
            entries,
        })
    }

    /// Parses manifest text (exposed for corruption tests): the
    /// [`ManifestView`] of it, owned — taken in the pass that checks it.
    pub fn parse(text: &str) -> Result<Manifest> {
        let mut entries = Vec::new();
        let checked = check(text.as_bytes(), b"", Some(&mut entries))?;
        Ok(Manifest {
            generation: checked.generation,
            entries,
        })
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

/// One entry of a [`ManifestView`]: a [`ManifestEntry`] whose path is
/// borrowed from the manifest text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRef<'a> {
    /// Path relative to the output root, `/`-separated.
    pub file: &'a str,
    /// Node (dedicated core) that produced the file.
    pub node: u32,
    /// What the file holds.
    pub kind: EntryKind,
    /// File size in bytes at seal time (advisory, 0 = unknown).
    pub bytes: u64,
}

impl EntryRef<'_> {
    /// The entry, owned.
    pub(crate) fn to_entry(self) -> ManifestEntry {
        ManifestEntry {
            file: self.file.to_string(),
            node: self.node,
            kind: self.kind,
            bytes: self.bytes,
        }
    }
}

/// A manifest text that passed every check there is — the CRC line, the
/// header, the generation line, every entry line — borrowed. The one
/// parser: [`Manifest::parse`] and [`Manifest::load`] are this view,
/// owned, and checking a text allocates nothing unless it is corrupt.
#[derive(Debug, Clone, Copy, Eq)]
pub struct ManifestView<'a> {
    generation: u64,
    /// The entry lines: everything between the generation line and the
    /// crc line, checked UTF-8.
    entries: &'a [u8],
}

impl<'a> ManifestView<'a> {
    /// Checks `text` whole.
    pub fn parse(text: &'a str) -> Result<ManifestView<'a>> {
        Ok(check(text.as_bytes(), b"", None)?.view(text.as_bytes()))
    }

    /// The generation counter.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Every entry, in publish order.
    pub fn entries(&self) -> Entries<'a> {
        Entries::of(self.entries)
    }

    /// The entries listed after every line of `earlier` when this view
    /// starts with all of `earlier`'s entry lines, byte for byte — what a
    /// publish of new files makes of a manifest; `None` when it does not
    /// (an entry was replaced, removed or reordered).
    pub fn entries_after(&self, earlier: &ManifestView<'_>) -> Option<Entries<'a>> {
        extends(self.entries, earlier.entries)
            .then(|| Entries::of(&self.entries[earlier.entries.len()..]))
    }
}

/// Equal generations and entry lines; a view compared with itself costs
/// no look at its lines.
impl PartialEq for ManifestView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.generation == other.generation
            && (std::ptr::eq(self.entries, other.entries) || self.entries == other.entries)
    }
}

/// The entries of a [`ManifestView`], parsed as they are taken.
#[derive(Debug, Clone)]
pub struct Entries<'a>(std::str::Lines<'a>);

impl<'a> Entries<'a> {
    fn of(lines: &'a [u8]) -> Entries<'a> {
        // The view's lines were checked UTF-8, and a slice of them starts
        // at a line: an error here is unreachable, and lists nothing.
        Entries(std::str::from_utf8(lines).unwrap_or_default().lines())
    }
}

impl<'a> Iterator for Entries<'a> {
    type Item = EntryRef<'a>;

    fn next(&mut self) -> Option<EntryRef<'a>> {
        // Every line was checked with the view: none fails here.
        self.0
            .by_ref()
            .filter(|l| !l.is_empty())
            .find_map(|l| parse_line(l).ok())
    }
}

/// Where a checked text's view lies in it, apart from the text: what a
/// retried read hands back once its buffer is no longer being filled.
#[derive(Debug, Clone, Default)]
struct Checked {
    generation: u64,
    entries: std::ops::Range<usize>,
}

impl Checked {
    fn view<'a>(&self, text: &'a [u8]) -> ManifestView<'a> {
        ManifestView {
            generation: self.generation,
            entries: text.get(self.entries.clone()).unwrap_or_default(),
        }
    }
}

/// True when `lines` starts with every line of `earlier`.
fn extends(lines: &[u8], earlier: &[u8]) -> bool {
    lines.starts_with(earlier) && (earlier.is_empty() || earlier.ends_with(b"\n"))
}

/// Checks `text` as a manifest. Entry lines it shares with `trusted` —
/// the entry lines of a text checked before, when `text`'s start with all
/// of them — are not parsed again: each line is checked on its own, and
/// these passed. Into `owned`, when given, go the entries it parses,
/// owned, in place of what it held.
fn check(
    text: &[u8],
    trusted: &[u8],
    mut owned: Option<&mut Vec<ManifestEntry>>,
) -> Result<Checked> {
    let corrupt = ManifestError::Corrupt;
    let text = std::str::from_utf8(text).map_err(|_| corrupt("not UTF-8".into()))?;
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
    let (header, rest) = first_line(body);
    if header != Some(HEADER) {
        return Err(corrupt("bad header".into()));
    }
    let (generation, entries) = first_line(rest);
    let generation = generation
        .and_then(|l| l.strip_prefix("generation "))
        .and_then(|g| g.parse::<u64>().ok())
        .ok_or_else(|| corrupt("malformed generation line".into()))?;
    let unchecked = if extends(entries.as_bytes(), trusted) {
        &entries[trusted.len()..]
    } else {
        entries
    };
    if let Some(owned) = owned.as_deref_mut() {
        owned.clear();
    }
    for line in unchecked.lines().filter(|l| !l.is_empty()) {
        let entry = parse_line(line)?;
        if let Some(owned) = owned.as_deref_mut() {
            owned.push(entry.to_entry());
        }
    }
    Ok(Checked {
        generation,
        entries: crc_at - entries.len()..crc_at,
    })
}

/// The first line of `text` as [`str::lines`] yields it, and the text
/// after that line.
fn first_line(text: &str) -> (Option<&str>, &str) {
    if text.is_empty() {
        return (None, text);
    }
    match text.find('\n') {
        Some(end) => {
            let line = &text[..end];
            (
                Some(line.strip_suffix('\r').unwrap_or(line)),
                &text[end + 1..],
            )
        }
        None => (Some(text), ""),
    }
}

/// Parses one non-empty entry line; allocates only to say what is wrong.
fn parse_line(line: &str) -> Result<EntryRef<'_>> {
    let corrupt = ManifestError::Corrupt;
    let tag = line.split(' ').next().unwrap_or("");
    let numbers = match tag {
        "iter" => 2,
        "span" => 3,
        other => return Err(corrupt(format!("unknown entry tag '{other}'"))),
    };
    // The tag, the numbers, the byte count, then the file: the rest of
    // the line, spaces and all.
    let mut fields = line.splitn(numbers + 3, ' ').skip(1);
    let mut num = |what: &str| -> Result<u32> {
        fields
            .next()
            .and_then(|f| f.parse::<u32>().ok())
            .ok_or_else(|| corrupt(format!("malformed {what} in '{line}'")))
    };
    let node = num("node")?;
    let kind = match numbers {
        2 => EntryKind::Iteration(num("iteration")?),
        _ => {
            let lo = num("lo")?;
            let hi = num("hi")?;
            if lo > hi {
                return Err(corrupt(format!("inverted span {lo}..{hi}")));
            }
            EntryKind::Compacted { lo, hi }
        }
    };
    let bytes = fields
        .next()
        .and_then(|f| f.parse::<u64>().ok())
        .ok_or_else(|| corrupt(format!("malformed byte count in '{line}'")))?;
    let file = fields.next().unwrap_or("");
    if file.is_empty() || file.contains("..") || file.starts_with('/') {
        return Err(corrupt(format!("implausible file path '{file}'")));
    }
    Ok(EntryRef {
        file,
        node,
        kind,
        bytes,
    })
}

/// Reads the manifest `path` names into `buf` and checks it (see
/// [`check`]; `trusted` and `owned` as there): the optimistic read every
/// reader makes.
/// A read torn by a publish, or of a file a publish replaced meanwhile,
/// is made again, up to [`LOAD_ATTEMPTS`] reads in all. No manifest at
/// `path` is the empty generation 0.
///
/// `read` fills the buffer from the file `path` names and tells whether
/// `path` still named that file once it was read ([`read_named`]).
fn read_checked(
    path: &Path,
    buf: &mut Vec<u8>,
    trusted: &[u8],
    mut owned: Option<&mut Vec<ManifestEntry>>,
    mut read: impl FnMut(&Path, &mut Vec<u8>) -> io::Result<bool>,
) -> Result<Checked> {
    let mut attempt = 1;
    loop {
        let checked = match read(path, buf) {
            // The file this read opened has since been replaced. It is
            // emptied then and *filled again* by the publish after, so its
            // bytes can be a whole generation that is not published yet
            // (and the next read would see an older one): whatever they
            // say, they are not what the name says now.
            Ok(false) => Err(ManifestError::Corrupt("replaced while it was read".into())),
            // A torn read can end inside a character, so the bytes are
            // checked like the rest: by `check`.
            Ok(true) => check(buf, trusted, owned.as_deref_mut()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                buf.clear();
                if let Some(owned) = owned {
                    owned.clear();
                }
                return Ok(Checked::default());
            }
            Err(e) => return Err(e.into()),
        };
        match checked {
            // The name points at a whole, current file again.
            Err(ManifestError::Corrupt(_)) if attempt < LOAD_ATTEMPTS => attempt += 1,
            done => return done,
        }
    }
}

/// Reads the file `path` names into `buf`, replacing what it held, and
/// tells whether `path` still named that file afterwards. A buffer that
/// is too small grows to twice the file, so a manifest growing a line per
/// publish is not reallocated on every read.
fn read_named(path: &Path, buf: &mut Vec<u8>) -> io::Result<bool> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let opened = file.metadata()?;
    let len = opened.len() as usize;
    buf.clear();
    if buf.capacity() <= len {
        buf.reserve(len.saturating_mul(2));
    }
    file.read_to_end(buf)?;
    // A manifest is replaced, never removed: a name that cannot be looked
    // at again is reported like one that cannot be opened.
    Ok(same_file(&opened, &std::fs::metadata(path)?))
}

/// Reads one root's `MANIFEST` again and again into two buffers it keeps:
/// the text it *accepted* last — the one its caller's state is built
/// from — and the one it read last. What a read costs follows what
/// changed: a manifest that still holds the accepted text is recognised
/// from its length and first and last lines, without reading the rest;
/// any other is read whole, but only the entry lines the accepted text
/// does not already list are checked again; and nothing is allocated once
/// the buffers are the manifest's size.
#[derive(Debug)]
pub struct ManifestReader {
    path: std::path::PathBuf,
    /// The text accepted last (empty when no manifest existed), and where
    /// its view lies in it.
    accepted: (Vec<u8>, Checked),
    /// The buffer the next read fills, and what the last read found.
    latest: (Vec<u8>, Latest),
}

/// What the last [`ManifestReader`] read found.
#[derive(Debug, Clone)]
enum Latest {
    /// Nothing yet, or the read failed.
    Nothing,
    /// The accepted text, still in place.
    Accepted,
    /// Another text, read into the buffer and checked.
    Read(Checked),
}

impl ManifestReader {
    /// A reader of `root`'s manifest; what it has accepted is no manifest:
    /// generation 0, no entries.
    pub fn new(root: &Path) -> ManifestReader {
        ManifestReader {
            path: root.join(MANIFEST_NAME),
            accepted: (Vec::new(), Checked::default()),
            latest: (Vec::new(), Latest::Nothing),
        }
    }

    /// Reads the manifest: finds the accepted text still in place, or
    /// makes the optimistic read [`Manifest::load`] makes. See
    /// [`views`](Self::views) for what it found.
    pub fn read(&mut self) -> Result<()> {
        if holds(&self.path, &self.accepted.0, &self.accepted.1) {
            self.latest.1 = Latest::Accepted;
            return Ok(());
        }
        self.read_with(read_named)
    }

    /// The optimistic read alone, over the function that fills the buffer
    /// from the file the path names and tells whether the path still named
    /// that file once it was read: tests hand it a generation of their
    /// choosing.
    pub fn read_with(
        &mut self,
        read: impl FnMut(&Path, &mut Vec<u8>) -> io::Result<bool>,
    ) -> Result<()> {
        let trusted = self.accepted.1.view(&self.accepted.0).entries;
        let (text, latest) = &mut self.latest;
        *latest = Latest::Nothing;
        *latest = Latest::Read(read_checked(&self.path, text, trusted, None, read)?);
        Ok(())
    }

    /// `(latest, accepted)`: the manifest the last read found — the
    /// accepted one when it found no other — and the accepted one.
    pub fn views(&self) -> (ManifestView<'_>, ManifestView<'_>) {
        let accepted = self.accepted.1.view(&self.accepted.0);
        match &self.latest.1 {
            Latest::Read(checked) => (checked.view(&self.latest.0), accepted),
            Latest::Nothing | Latest::Accepted => (accepted, accepted),
        }
    }

    /// Makes the text the last successful read found the accepted one.
    pub fn accept(&mut self) {
        if let Latest::Read(checked) = std::mem::replace(&mut self.latest.1, Latest::Nothing) {
            std::mem::swap(&mut self.accepted.0, &mut self.latest.0);
            self.accepted.1 = checked;
        }
    }
}

/// True when the file `path` names still holds `text`, a text checked
/// into `checked` (empty: no file) — found without reading its entries:
/// the same length, the same header and generation line, the same crc
/// line, which is a checksum of everything before it, and the name still
/// pointing at the file those were read from. Every other outcome,
/// errors included, is left to the whole read.
///
/// A file named `MANIFEST` when it was opened and holding `text` then is
/// a published generation, so finding it is a read of that generation —
/// even if a publish swapped another in while it was being read, as a
/// whole read finishing just then would have found too. A refill of the
/// file under way cannot pass: its length, its first lines or its last
/// one differ, or a read comes back short.
#[cfg(unix)]
fn holds(path: &Path, text: &[u8], checked: &Checked) -> bool {
    use std::os::unix::fs::FileExt;
    const PROBE: usize = 64;
    let file = match std::fs::File::open(path) {
        Ok(file) => file,
        Err(e) => return e.kind() == io::ErrorKind::NotFound && text.is_empty(),
    };
    let (head, tail) = (&text[..checked.entries.start], &text[checked.entries.end..]);
    let mut probe = [0u8; PROBE];
    let mut matches = |bytes: &[u8], at: usize| {
        let probe = &mut probe[..bytes.len()];
        file.read_exact_at(probe, at as u64).is_ok() && *probe == *bytes
    };
    let Ok(opened) = file.metadata() else {
        return false;
    };
    !text.is_empty()
        && opened.len() == text.len() as u64
        && head.len() <= PROBE
        && tail.len() <= PROBE
        && matches(head, 0)
        && matches(tail, text.len() - tail.len())
        && std::fs::metadata(path).is_ok_and(|now| same_file(&opened, &now))
}

/// Without positional reads the whole read decides.
#[cfg(not(unix))]
fn holds(_: &Path, _: &[u8], _: &Checked) -> bool {
    false
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

        // One parser: a rendered manifest reads back through the view,
        // owned, as it was; and a publish of more files reads as the
        // earlier text's entries followed by exactly the new ones.
        #[test]
        fn render_then_view_then_owned_round_trips(
            m in arb_manifest(),
            more in proptest::collection::vec(arb_entry(), 0..4),
        ) {
            let text = m.render();
            let view = ManifestView::parse(&text).expect("a rendered manifest");
            prop_assert_eq!(view.generation(), m.generation);
            prop_assert_eq!(&owned(&view), &m);
            prop_assert_eq!(Manifest::parse(&text).expect("parse"), m.clone());

            let mut grown = m.clone();
            let fresh: Vec<ManifestEntry> =
                more.into_iter().filter(|e| !m.references(&e.file)).collect();
            grown.upsert_all(fresh.clone());
            let grown_text = grown.render();
            let later = ManifestView::parse(&grown_text).expect("grown");
            let appended: Vec<ManifestEntry> = later
                .entries_after(&view)
                .expect("a publish of new files only appends")
                .map(|e| e.to_entry())
                .collect();
            prop_assert_eq!(appended, fresh);
            // Checked against the earlier text, or whole: the same view.
            let mut buf = Vec::new();
            let checked = read_checked(Path::new("MANIFEST"), &mut buf, view.entries, None, |_, b| {
                b.clear();
                b.extend_from_slice(grown_text.as_bytes());
                Ok(true)
            })
            .expect("checked after the earlier text");
            prop_assert_eq!(checked.view(&buf), later);
        }

        // Any single-byte change is refused by the view and by `parse`
        // alike, with the same variant — or, in the crc line alone (an
        // upper-case hex digit, a trailing blank), read as the same
        // manifest by both. Inside the CRC-guarded body it is refused.
        #[test]
        fn a_changed_byte_fails_the_view_and_parse_alike(
            m in arb_manifest(),
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            let text = m.render();
            let mut bytes = text.clone().into_bytes();
            let pos = at % bytes.len();
            prop_assume!(bytes[pos] != byte);
            bytes[pos] = byte;
            let crc_at = text.rfind("crc ").expect("crc line");
            let checked = check(&bytes, b"", None);
            if pos < crc_at {
                prop_assert!(matches!(checked, Err(ManifestError::Corrupt(_))), "{:?}", checked);
            }
            if let Ok(changed) = std::str::from_utf8(&bytes) {
                let view = ManifestView::parse(changed).map(|v| owned(&v));
                let parsed = Manifest::parse(changed);
                match (&view, &parsed) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(a, &m);
                        prop_assert_eq!(b, &m);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(
                        std::mem::discriminant(a),
                        std::mem::discriminant(b)
                    ),
                    _ => prop_assert!(false, "view {:?} vs parse {:?}", view, parsed),
                }
            } else {
                prop_assert!(matches!(checked, Err(ManifestError::Corrupt(_))));
            }
        }
    }

    /// The manifest `view` shows, owned.
    fn owned(view: &ManifestView<'_>) -> Manifest {
        let entries = view.entries().map(|e| e.to_entry()).collect();
        Manifest {
            generation: view.generation(),
            entries,
        }
    }

    fn arb_entry() -> impl Strategy<Value = ManifestEntry> {
        let kind = prop_oneof![
            any::<u32>().prop_map(EntryKind::Iteration),
            (any::<u32>(), any::<u32>()).prop_map(|(a, b)| EntryKind::Compacted {
                lo: a.min(b),
                hi: a.max(b)
            }),
        ];
        (
            "[a-z0-9_-]{1,8}(/[a-z0-9 _-]{0,12}\\.sdf)?",
            any::<u32>(),
            kind,
            any::<u64>(),
        )
            .prop_map(|(file, node, kind, bytes)| ManifestEntry {
                file,
                node,
                kind,
                bytes,
            })
    }

    fn arb_manifest() -> impl Strategy<Value = Manifest> {
        (any::<u64>(), proptest::collection::vec(arb_entry(), 0..8)).prop_map(
            |(generation, entries)| Manifest {
                generation,
                entries,
            },
        )
    }

    #[test]
    fn only_the_lines_a_text_shares_with_the_trusted_ones_go_unchecked() {
        let earlier = sample().render();
        let trusted = ManifestView::parse(&earlier).unwrap().entries;
        let with_crc =
            |body: &str| format!("{body}crc {:08x}\n", damaris_format::crc32(body.as_bytes()));
        let body = &earlier[..earlier.rfind("crc ").unwrap()];
        // A malformed line appended after the trusted ones, and one in
        // place of the first trusted line: both CRC-valid, both refused.
        let appended = with_crc(&format!("{body}iter 0 x 1 node-0/iter-000013.sdf\n"));
        let replaced = with_crc(&body.replacen("iter 0 12 ", "iter 0 x ", 1));
        for text in [appended, replaced] {
            let checked = check(text.as_bytes(), trusted, None);
            assert!(
                matches!(checked, Err(ManifestError::Corrupt(_))),
                "{text}: {checked:?}"
            );
        }
    }

    #[test]
    fn a_reader_checks_and_returns_only_what_changed() {
        let root = temp_root("reader");
        let mut reader = ManifestReader::new(&root);
        reader.read().unwrap();
        let (latest, accepted) = reader.views();
        assert_eq!(latest, accepted);
        assert_eq!((latest.generation(), latest.entries().count()), (0, 0));
        for it in 0..3 {
            publish_iteration(&root, 0, it, &format!("node-0/iter-{it:06}.sdf"), 100).unwrap();
        }
        reader.read().unwrap();
        let (latest, accepted) = reader.views();
        assert_eq!(latest.generation(), 3);
        assert_eq!(latest.entries_after(&accepted).unwrap().count(), 3);
        reader.accept();
        reader.read().unwrap();
        let (latest, accepted) = reader.views();
        assert_eq!(
            latest, accepted,
            "nothing published: the accepted text again"
        );
        assert!(holds(&reader.path, &reader.accepted.0, &reader.accepted.1));
        publish_iteration(&root, 0, 3, "node-0/iter-000003.sdf", 100).unwrap();
        assert!(!holds(&reader.path, &reader.accepted.0, &reader.accepted.1));
        // The same length, the same first lines, another body: refused by
        // its crc line.
        let real = Manifest::load(&root).unwrap();
        let mut other = real.clone();
        other.entries[0].bytes = 101;
        let (real, other) = (real.render(), other.render());
        assert_eq!(real.len(), other.len());
        let checked = check(real.as_bytes(), b"", None).unwrap();
        std::fs::write(root.join(MANIFEST_NAME), &other).unwrap();
        assert!(!holds(&reader.path, real.as_bytes(), &checked));
        std::fs::write(root.join(MANIFEST_NAME), &real).unwrap();
        assert!(holds(&reader.path, real.as_bytes(), &checked));
        reader.read().unwrap();
        let (latest, accepted) = reader.views();
        let appended: Vec<_> = latest.entries_after(&accepted).unwrap().collect();
        assert_eq!(appended.len(), 1);
        assert_eq!(appended[0].file, "node-0/iter-000003.sdf");
        reader.accept();
        // An entry rewritten in place, or entries swapped for a span: no
        // longer an append.
        publish_iteration(&root, 0, 1, "node-0/iter-000001.sdf", 7).unwrap();
        reader.read().unwrap();
        let (latest, accepted) = reader.views();
        assert!(latest.entries_after(&accepted).is_none());
        assert_eq!(latest.entries().count(), 4);
        reader.accept();
        let superseded: Vec<String> = (0..2)
            .map(|it| format!("node-0/iter-{it:06}.sdf"))
            .collect();
        let span = ManifestEntry {
            file: "node-0/compact-000000-000001.sdf".into(),
            node: 0,
            kind: EntryKind::Compacted { lo: 0, hi: 1 },
            bytes: 200,
        };
        replace_entries(&root, &superseded, span).unwrap();
        reader.read().unwrap();
        let (latest, accepted) = reader.views();
        assert!(latest.entries_after(&accepted).is_none());
        assert_eq!(owned(&latest), Manifest::load(&root).unwrap());
        // A read that fails leaves nothing to accept.
        std::fs::write(root.join(MANIFEST_NAME), b"damaris-manifest v1\n").unwrap();
        assert!(matches!(reader.read(), Err(ManifestError::Corrupt(_))));
        reader.accept();
        std::fs::remove_file(root.join(MANIFEST_NAME)).unwrap();
        reader.read().unwrap();
        let (latest, accepted) = reader.views();
        assert_eq!((latest.generation(), latest.entries().count()), (0, 0));
        assert_eq!(
            accepted.generation(),
            5,
            "the last text accepted, not the failed read"
        );
        std::fs::remove_dir_all(&root).ok();
    }
}
