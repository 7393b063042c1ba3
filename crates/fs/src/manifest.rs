//! The output manifest: the read tier's snapshot protocol.
//!
//! A single `MANIFEST` file at the output root lists every *sealed* SDF
//! file, so a reader never races a rename or follows a file the compactor
//! is about to replace. It is a log: a checkpoint frame (header,
//! generation, every live entry), then one frame per publish or compactor
//! replace, each closed by a `crc` line over its own bytes and synced
//! before the lock is released. Frames are read in order up to the first
//! that is not whole and CRC-valid: a bad last frame is a torn or
//! in-progress append, not published; a bad frame with a whole one after
//! it is corrupt. The file is only ever appended to: a torn tail, a failed
//! append, or a log holding more than twice its live entries is answered
//! with a fresh checkpoint under [`CHECKPOINT_TMP`], synced, renamed in,
//! then the directory synced (DESIGN §13.2).
//!
//! Writers (EPE persist hooks, the compactor, recovery) serialize through
//! a kernel `flock` on `MANIFEST.lock`, released when the holder's fd
//! closes, so a crashed holder cannot wedge anyone. Readers never lock; a
//! polling one keeps a [`ManifestReader`] and reads only what was appended.
//!
//! ```text
//! damaris-manifest v1 features 1 0 0
//! generation 7
//! iter 0 12 40968 node-0/iter-000012.sdf
//! span 0 0 11 491616 node-0/compact-000000-000011.sdf
//! crc 1a2b3c4d 134
//! iter 0 13 40968 node-0/iter-000013.sdf
//! crc 5e6f7a8b 39
//! drop node-0/iter-000012.sdf
//! drop node-0/iter-000013.sdf
//! span 0 12 13 81936 node-0/compact-000012-000013.sdf
//! crc 9c0d1e2f 102
//! ```
//!
//! A `crc` line holds the CRC-32 and the length of the bytes before it in
//! its frame. The header's feature words (incompat, ro-compat, compat)
//! go through [`Features::check`]; a checkpoint from before the log has a
//! bare header and no length.

use damaris_format::header::{Access, Features};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Manifest file name at the output root.
pub const MANIFEST_NAME: &str = "MANIFEST";
/// Lock file guarding manifest writers.
pub const MANIFEST_LOCK: &str = "MANIFEST.lock";
/// The name a checkpoint is written under before it is renamed to
/// [`MANIFEST_NAME`]. A crash can leave it behind; the recovery scan
/// deletes it with the other `*.tmp` files.
pub const CHECKPOINT_TMP: &str = "MANIFEST.tmp";
/// First line of every manifest, before its feature words.
const HEADER: &str = "damaris-manifest v1";
/// Incompat feature bit: frames follow the checkpoint.
const INCOMPAT_LOG: u32 = 1;
/// The feature words this build reads and writes.
const KNOWN: Features = Features {
    compat: 0,
    ro_compat: 0,
    incompat: INCOMPAT_LOG,
};
/// How long a writer waits for the lock before giving up.
const LOCK_WAIT: Duration = Duration::from_secs(10);

// `flock(2)` operation bits — part of the stable Linux ABI on every
// architecture we target, same discipline as `damaris_shm::backing`.
const FLOCK_EX: i32 = 2;
const FLOCK_NB: i32 = 4;

extern "C" {
    fn flock(fd: i32, operation: i32) -> i32;
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

fn corrupt<T>(what: impl Into<String>) -> Result<T> {
    Err(ManifestError::Corrupt(what.into()))
}

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
    /// Monotonic: one per entry published and one per replace. Readers use
    /// it to cheaply detect "nothing changed since my last snapshot".
    pub generation: u64,
    /// Sealed files, in publish order.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Loads the manifest at `root`, or an empty generation-0 manifest if
    /// none exists yet. Corrupt framing fails typed having allocated only
    /// the file's bytes: nothing is sized by a number the file states.
    pub fn load(root: &Path) -> Result<Manifest> {
        Ok(load_log(root)?.0)
    }

    /// Serializes to the text of a checkpoint.
    pub fn render(&self) -> String {
        // One buffer, sized for the lines it will hold (tag, four numbers
        // and separators fit in 48 bytes beside the file name).
        let lines: usize = self.entries.iter().map(|e| e.file.len() + 48).sum();
        let mut out = String::with_capacity(HEADER.len() + 64 + lines);
        // Writing to a `String` cannot fail.
        let _ = writeln!(
            out,
            "{HEADER} features {:x} {:x} {:x}\ngeneration {}",
            KNOWN.incompat, KNOWN.ro_compat, KNOWN.compat, self.generation
        );
        for e in &self.entries {
            write_edit(&mut out, Edit::List(e.into()));
        }
        close_frame(&mut out);
        out
    }

    /// Replaces the manifest at `root` with a checkpoint of this one:
    /// written under [`CHECKPOINT_TMP`], `sync_all`ed, renamed over
    /// `MANIFEST`, then the directory synced. An error in any step is
    /// returned: the frames appended after a checkpoint are only as
    /// durable as its rename. Callers must hold the [`ManifestLock`]
    /// (readers are lock-free; this serializes writers).
    pub fn store(&self, root: &Path) -> Result<()> {
        checkpoint(root, self)
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
}

/// A [`ManifestEntry`] whose path is borrowed from the manifest text.
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

impl<'a> From<&'a ManifestEntry> for EntryRef<'a> {
    fn from(e: &'a ManifestEntry) -> Self {
        EntryRef {
            file: &e.file,
            node: e.node,
            kind: e.kind,
            bytes: e.bytes,
        }
    }
}

/// One line of a frame: an entry listed (added, or replacing the entry
/// of the same file), or a file dropped.
#[derive(Debug, Clone, Copy)]
enum Edit<'a> {
    List(EntryRef<'a>),
    Drop(&'a str),
}

/// The frames of a log applied in order: its live entries, borrowed from
/// the text and the edits. The default is the log of no manifest.
#[derive(Default)]
struct Log<'a> {
    generation: u64,
    /// Every entry listed, in the order it was first listed; `None` once
    /// dropped.
    slots: Vec<Option<EntryRef<'a>>>,
    /// The slot of each live file.
    live: HashMap<&'a str, usize>,
    /// Entry and drop lines in the log, the checkpoint's included.
    lines: usize,
    /// Where the last whole frame ends.
    end: usize,
    /// The header has ro-compat features this build does not know.
    read_only: bool,
}

impl<'a> Log<'a> {
    /// Reads `text` as a log: a checkpoint frame, then the appended frames
    /// up to the first that is not whole and CRC-valid. The framing is
    /// checked before anything is allocated.
    fn parse(text: &'a [u8]) -> Result<Log<'a>> {
        let end = whole_frames(text)?;
        let mut frames = frames(&text[..end]);
        let Some(checkpoint) = frames.next() else {
            return corrupt("no whole checkpoint frame");
        };
        let mut lines = checkpoint.lines();
        let access = header(lines.next())?
            .check(KNOWN, false)
            .map_err(|e| ManifestError::Corrupt(e.to_string()))?;
        let generation = lines
            .next()
            .and_then(|l| l.strip_prefix("generation "))
            .and_then(|g| g.parse::<u64>().ok());
        let Some(generation) = generation else {
            return corrupt("malformed generation line");
        };
        let mut log = Log {
            end,
            read_only: access == Access::ReadOnly,
            // Sized from the bytes read (an entry line takes 13 or more),
            // the map is not grown line by line.
            live: HashMap::with_capacity(end / 64),
            ..Log::default()
        };
        for line in lines.filter(|l| !l.is_empty()) {
            log.apply(Edit::List(parse_line(line)?));
        }
        log.generation = generation;
        for line in frames.flat_map(str::lines).filter(|l| !l.is_empty()) {
            log.apply(parse_edit(line)?);
        }
        Ok(log)
    }

    /// The log's state after `edit`: a listed entry counts one generation.
    fn apply(&mut self, edit: Edit<'a>) {
        self.lines += 1;
        match edit {
            Edit::List(entry) => {
                self.generation += 1;
                match self.live.entry(entry.file) {
                    Entry::Occupied(at) => self.slots[*at.get()] = Some(entry),
                    Entry::Vacant(at) => {
                        at.insert(self.slots.len());
                        self.slots.push(Some(entry));
                    }
                }
            }
            Edit::Drop(file) => {
                if let Some(at) = self.live.remove(file) {
                    self.slots[at] = None;
                }
            }
        }
    }

    fn manifest(&self) -> Manifest {
        Manifest {
            generation: self.generation,
            entries: (self.slots.iter().flatten())
                .map(|e| ManifestEntry {
                    file: e.file.to_string(),
                    node: e.node,
                    kind: e.kind,
                    bytes: e.bytes,
                })
                .collect(),
        }
    }
}

/// The feature words of a checkpoint's header line; none in a checkpoint
/// from before the log.
fn header(line: Option<&str>) -> Result<Features> {
    let words = match line.and_then(|l| l.strip_prefix(HEADER)) {
        Some("") => Some([0; 3]),
        Some(rest) => rest.strip_prefix(" features ").and_then(|rest| {
            let mut words = rest.split(' ').map(|w| u32::from_str_radix(w, 16).ok());
            let three = [words.next()??, words.next()??, words.next()??];
            words.next().is_none().then_some(three)
        }),
        None => None,
    };
    let Some([incompat, ro_compat, compat]) = words else {
        return corrupt("bad header");
    };
    Ok(Features {
        compat,
        ro_compat,
        incompat,
    })
}

/// Where the whole, CRC-valid frames at the start of `text` end. A bad
/// frame ends them when no whole frame follows it (found by the length
/// its `crc` line states): a torn tail. When one does, the log is corrupt.
/// Allocates nothing unless corrupt.
fn whole_frames(text: &[u8]) -> Result<usize> {
    let (mut end, mut torn, mut from) = (0, false, 0);
    while let Some((at, next)) = crc_line(text, from) {
        let begin = frame_crc(&text[at..next], at).and_then(|(crc, len)| {
            let begin = at - len.unwrap_or(at);
            let body = &text[begin..at];
            let whole = damaris_format::crc32(body) == crc && std::str::from_utf8(body).is_ok();
            whole.then_some(begin)
        });
        match begin {
            Some(begin) if begin == end && !torn => end = next,
            Some(begin) if begin >= end => {
                return corrupt(format!("bad frame at byte {end} before a whole one"))
            }
            _ => torn = true,
        }
        from = next;
    }
    Ok(end)
}

/// The first line from `from` on (a line start) that begins with `crc `
/// and ends in a newline: its start and the offset after it.
fn crc_line(text: &[u8], from: usize) -> Option<(usize, usize)> {
    let mut at = from;
    while at < text.len() {
        let next = at + text[at..].iter().position(|&b| b == b'\n')? + 1;
        if text[at..].starts_with(b"crc ") {
            return Some((at, next));
        }
        at = next;
    }
    None
}

/// The CRC and the frame length (absent in a checkpoint from before the
/// log) that a `crc` line at offset `at` states, if it parses: a length
/// reaching back past the start of the text does not.
fn frame_crc(line: &[u8], at: usize) -> Option<(u32, Option<usize>)> {
    let line = std::str::from_utf8(line).ok()?.strip_suffix('\n')?;
    let mut fields = line.strip_prefix("crc ")?.split(' ');
    let crc = u32::from_str_radix(fields.next()?, 16).ok()?;
    let len = match fields.next() {
        Some(len) => Some(len.parse::<usize>().ok().filter(|&len| len <= at)?),
        None => None,
    };
    fields.next().is_none().then_some((crc, len))
}

/// The bodies of the frames `text` holds, all whole (see
/// [`whole_frames`]), without their `crc` lines.
fn frames(text: &[u8]) -> impl Iterator<Item = &str> {
    let mut start = 0;
    std::iter::from_fn(move || {
        let (at, next) = crc_line(text, start)?;
        // Checked UTF-8 with its frame.
        let body = std::str::from_utf8(&text[start..at]).unwrap_or_default();
        start = next;
        Some(body)
    })
}

/// Appends `edit`'s line to `out`.
fn write_edit(out: &mut String, edit: Edit<'_>) {
    // Writing to a `String` cannot fail.
    let _ = match edit {
        Edit::List(e) => match e.kind {
            EntryKind::Iteration(it) => {
                writeln!(out, "iter {} {} {} {}", e.node, it, e.bytes, e.file)
            }
            EntryKind::Compacted { lo, hi } => {
                writeln!(out, "span {} {} {} {} {}", e.node, lo, hi, e.bytes, e.file)
            }
        },
        Edit::Drop(file) => writeln!(out, "drop {file}"),
    };
}

/// Closes the frame `out` holds with its `crc` line.
fn close_frame(out: &mut String) {
    let crc = damaris_format::crc32(out.as_bytes());
    let _ = writeln!(out, "crc {crc:08x} {}", out.len());
}

/// Parses one non-empty line of an appended frame.
fn parse_edit(line: &str) -> Result<Edit<'_>> {
    match line.strip_prefix("drop ") {
        Some(file) => Ok(Edit::Drop(plausible(file)?)),
        None => Ok(Edit::List(parse_line(line)?)),
    }
}

/// Parses one non-empty entry line; allocates only to say what is wrong.
fn parse_line(line: &str) -> Result<EntryRef<'_>> {
    let tag = line.split(' ').next().unwrap_or("");
    let numbers = match tag {
        "iter" => 2,
        "span" => 3,
        other => return corrupt(format!("unknown entry tag '{other}'")),
    };
    // The tag, the numbers, the byte count, then the file: the rest of
    // the line, spaces and all.
    let mut fields = line.splitn(numbers + 3, ' ').skip(1);
    let mut num = |what: &str| -> Result<u32> {
        fields
            .next()
            .and_then(|f| f.parse::<u32>().ok())
            .ok_or_else(|| ManifestError::Corrupt(format!("malformed {what} in '{line}'")))
    };
    let node = num("node")?;
    let kind = match numbers {
        2 => EntryKind::Iteration(num("iteration")?),
        _ => {
            let lo = num("lo")?;
            let hi = num("hi")?;
            if lo > hi {
                return corrupt(format!("inverted span {lo}..{hi}"));
            }
            EntryKind::Compacted { lo, hi }
        }
    };
    let Some(bytes) = fields.next().and_then(|f| f.parse::<u64>().ok()) else {
        return corrupt(format!("malformed byte count in '{line}'"));
    };
    Ok(EntryRef {
        file: plausible(fields.next().unwrap_or(""))?,
        node,
        kind,
        bytes,
    })
}

/// `file` when it is a path under the output root.
fn plausible(file: &str) -> Result<&str> {
    if file.is_empty() || file.contains("..") || file.starts_with('/') {
        return corrupt(format!("implausible file path '{file}'"));
    }
    Ok(file)
}

/// Fills `buf` with `file`'s bytes `from..to`, replacing what it held.
fn read_at(file: &File, from: u64, to: u64, buf: &mut Vec<u8>) -> io::Result<()> {
    buf.clear();
    buf.resize(to.saturating_sub(from) as usize, 0);
    file.read_exact_at(buf, from)
}

/// `file` read whole into `buf`: where its whole frames end, and the
/// manifest they hold.
fn whole(file: File, buf: &mut Vec<u8>) -> Result<(At, Manifest)> {
    let meta = file.metadata()?;
    read_at(&file, 0, meta.len(), buf)?;
    let log = Log::parse(buf)?;
    let at = At {
        file: Some((file, (meta.dev(), meta.ino()))),
        end: log.end as u64,
        generation: log.generation,
        lines: log.lines,
        live: log.live.len(),
        read_only: log.read_only,
    };
    Ok((at, log.manifest()))
}

/// The manifest at `root` (empty when there is none), and whether its
/// log ends in a torn tail.
pub(crate) fn load_log(root: &Path) -> Result<(Manifest, bool)> {
    let file = match File::open(root.join(MANIFEST_NAME)) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Manifest::default(), false)),
        Err(e) => return Err(e.into()),
    };
    let len = file.metadata()?.len();
    let (at, manifest) = whole(file, &mut Vec::new())?;
    Ok((manifest, at.end < len))
}

/// A durability step of the manifest writers, in the order taken: what a
/// crash-state test replays to find what a crash can leave.
#[derive(Debug, Clone, Copy)]
pub enum Step<'a> {
    /// Bytes appended to `MANIFEST`, not yet synced.
    Append(&'a [u8]),
    /// `MANIFEST`'s appended bytes synced.
    SyncData,
    /// A checkpoint written and synced under [`CHECKPOINT_TMP`].
    Checkpoint(&'a [u8]),
    /// The checkpoint renamed to `MANIFEST`.
    Rename,
    /// The output root's directory synced.
    SyncDir,
}

static WATCH: OnceLock<fn(&Path, Step<'_>)> = OnceLock::new();

/// Hands `watch` each durability step this process's manifest writers
/// take from now on, with the root. Set once per process.
pub fn watch(watch: fn(&Path, Step<'_>)) {
    let _ = WATCH.set(watch);
}

fn step(root: &Path, step: Step<'_>) {
    if let Some(watch) = WATCH.get() {
        watch(root, step);
    }
}

fn sync_data(root: &Path, file: &File) -> io::Result<()> {
    file.sync_data()?;
    step(root, Step::SyncData);
    Ok(())
}

fn sync_dir(root: &Path) -> io::Result<()> {
    File::open(root)?.sync_all()?;
    step(root, Step::SyncDir);
    Ok(())
}

/// Writes `m` as `root`'s checkpoint (see [`Manifest::store`]).
fn checkpoint(root: &Path, m: &Manifest) -> Result<()> {
    std::fs::create_dir_all(root)?;
    let tmp = root.join(CHECKPOINT_TMP);
    let text = m.render();
    let mut file = File::create(&tmp)?;
    file.write_all(text.as_bytes())?;
    file.sync_all()?;
    step(root, Step::Checkpoint(text.as_bytes()));
    std::fs::rename(&tmp, root.join(MANIFEST_NAME))?;
    step(root, Step::Rename);
    Ok(sync_dir(root)?)
}

/// The log this process last wrote, as far as it read it: a publish
/// reads only what other writers appended since.
static WRITER: Mutex<Option<ManifestReader>> = Mutex::new(None);

/// Appends one frame of `edits` to `root`'s log under the lock and syncs
/// it once. No log, a torn tail, a log that would hold more than twice its
/// live entries, or a failed append is answered instead with a checkpoint
/// of the whole frames with `edits` applied. Returns the new generation.
fn append(root: &Path, edits: &[Edit<'_>]) -> Result<u64> {
    let _lock = ManifestLock::acquire(root)?;
    let kept = WRITER.lock().unwrap_or_else(PoisonError::into_inner).take();
    let path = root.join(MANIFEST_NAME);
    let mut log = kept
        .filter(|log| log.path == path)
        .unwrap_or_else(|| ManifestReader::new(root));
    log.read()?;
    log.accept();
    let at = &mut log.accepted;
    if at.read_only {
        return corrupt("unknown ro-compat features: this build may read, not write");
    }
    let start = at.end;
    let tail = at
        .file
        .as_ref()
        .map(|(file, _)| file.metadata())
        .transpose()?;
    let whole = tail.is_some_and(|meta| meta.len() == start);
    edits.iter().for_each(|&edit| at.count(edit));
    if whole && at.lines <= 2 * at.live {
        if let Ok(len) = append_frame(root, &path, edits) {
            at.end += len;
            let generation = at.generation;
            *WRITER.lock().unwrap_or_else(PoisonError::into_inner) = Some(log);
            return Ok(generation);
        }
    }
    let mut text = Vec::new();
    let mut log = match start {
        0 => Log::default(),
        _ => {
            read_at(&File::open(&path)?, 0, start, &mut text)?;
            Log::parse(&text)?
        }
    };
    edits.iter().for_each(|&edit| log.apply(edit));
    let m = log.manifest();
    checkpoint(root, &m)?;
    Ok(m.generation)
}

/// Appends one frame of `edits` to `path` and syncs it; returns its length.
fn append_frame(root: &Path, path: &Path, edits: &[Edit<'_>]) -> io::Result<u64> {
    let mut frame = String::new();
    edits.iter().for_each(|&edit| write_edit(&mut frame, edit));
    close_frame(&mut frame);
    let mut file = OpenOptions::new().append(true).open(path)?;
    file.write_all(frame.as_bytes())?;
    step(root, Step::Append(frame.as_bytes()));
    sync_data(root, &file)?;
    Ok(frame.len() as u64)
}

/// Reads one root's `MANIFEST` again and again, each time only what is
/// new. It keeps the file it read and the offset just past the last whole
/// frame its caller accepted; a poll is one `stat` of the name:
///
/// - the same file at the same length: nothing read or allocated;
/// - the same file, longer: only the bytes past the offset are read and
///   checked, and frames that only list entries hand over just those;
/// - a frame that drops an entry, another file (a checkpoint), or no file:
///   the manifest is read whole.
///
/// [`accept`](Self::accept) makes what a read found the state the next
/// read starts from.
#[derive(Debug)]
pub struct ManifestReader {
    path: PathBuf,
    accepted: At,
    latest: Latest,
    /// The bytes the last read took from the file.
    buf: Vec<u8>,
}

/// A place in a log: its file (none: no `MANIFEST`) with device and
/// inode, where its last whole frame ends, and the log up to there.
#[derive(Debug, Default)]
struct At {
    file: Option<(File, (u64, u64))>,
    end: u64,
    generation: u64,
    /// Entry and drop lines, and live entries: exact after a whole read;
    /// past it, every listed line counts as a new file.
    lines: usize,
    live: usize,
    /// The header has ro-compat features this build does not know.
    read_only: bool,
}

impl At {
    fn count(&mut self, edit: Edit<'_>) {
        self.lines += 1;
        match edit {
            Edit::List(_) => (self.generation, self.live) = (self.generation + 1, self.live + 1),
            Edit::Drop(_) => self.live = self.live.saturating_sub(1),
        }
    }
}

#[derive(Debug)]
enum Latest {
    /// Nothing past what was accepted, or the read failed.
    Unchanged,
    /// `buf[..len]`: whole frames appended to the accepted file, listing
    /// `lists` entries and dropping none.
    Appended { len: usize, lists: usize },
    /// The manifest read whole, and where.
    Whole(At, Manifest),
}

/// What a [`ManifestReader`]'s last read found past what was accepted.
#[derive(Debug)]
pub struct Change<'a> {
    /// The generation it reaches.
    pub generation: u64,
    /// True when `entries` is the whole manifest, false when it is what
    /// was appended to the accepted one.
    pub whole: bool,
    /// The entries, in the order the log lists them.
    pub entries: Vec<EntryRef<'a>>,
}

impl ManifestReader {
    /// A reader of `root`'s manifest; what it has accepted is no manifest:
    /// generation 0, no entries.
    pub fn new(root: &Path) -> ManifestReader {
        ManifestReader {
            path: root.join(MANIFEST_NAME),
            accepted: At::default(),
            latest: Latest::Unchanged,
            buf: Vec::new(),
        }
    }

    /// Reads what the manifest holds past what was accepted; see
    /// [`change`](Self::change) for what it found.
    pub fn read(&mut self) -> Result<()> {
        self.latest = Latest::Unchanged;
        let named = match std::fs::metadata(&self.path) {
            Ok(meta) => Some(meta),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        let at = &self.accepted;
        let file = match (&at.file, named) {
            (None, None) => return Ok(()),
            (_, None) => None,
            (Some((file, id)), Some(meta))
                if *id == (meta.dev(), meta.ino()) && meta.len() >= at.end =>
            {
                if meta.len() == at.end {
                    return Ok(());
                }
                read_at(file, at.end, meta.len(), &mut self.buf)?;
                let len = whole_frames(&self.buf)?;
                let (mut lists, mut drops) = (0, false);
                let lines = frames(&self.buf[..len]).flat_map(str::lines);
                for line in lines.filter(|l| !l.is_empty()) {
                    match parse_edit(line)? {
                        Edit::List(_) => lists += 1,
                        Edit::Drop(_) => drops = true,
                    }
                }
                if !drops {
                    if len > 0 {
                        self.latest = Latest::Appended { len, lists };
                    }
                    return Ok(());
                }
                Some(file.try_clone()?)
            }
            (_, Some(_)) => Some(File::open(&self.path)?),
        };
        let (at, manifest) = match file {
            Some(file) => whole(file, &mut self.buf)?,
            None => Default::default(),
        };
        self.latest = Latest::Whole(at, manifest);
        Ok(())
    }

    /// What the last read found past what was accepted; `None` when it
    /// found nothing new (or failed).
    pub fn change(&self) -> Option<Change<'_>> {
        let (generation, whole, entries) = match &self.latest {
            Latest::Unchanged => return None,
            Latest::Appended { len, lists } => {
                // Whole frames: every line checked.
                let lines = frames(&self.buf[..*len]).flat_map(str::lines);
                let lines = lines.filter(|l| !l.is_empty());
                let listed = lines.filter_map(|l| parse_line(l).ok()).collect();
                (self.accepted.generation + *lists as u64, false, listed)
            }
            Latest::Whole(_, m) => (
                m.generation,
                true,
                m.entries.iter().map(EntryRef::from).collect(),
            ),
        };
        Some(Change {
            generation,
            whole,
            entries,
        })
    }

    /// Makes what the last read found the state the next one starts from.
    pub fn accept(&mut self) {
        match std::mem::replace(&mut self.latest, Latest::Unchanged) {
            Latest::Unchanged => {}
            Latest::Appended { len, lists } => {
                let at = &mut self.accepted;
                at.end += len as u64;
                at.generation += lists as u64;
                at.lines += lists;
                at.live += lists;
            }
            Latest::Whole(at, _) => self.accepted = at,
        }
    }
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
/// bytes)`, in one frame. The EPE calls this after a commit renamed the
/// files into place and synced their directory. Returns the new
/// generation, which counts one per file; publishing the same files again
/// lists nothing twice.
pub fn publish_iterations(root: &Path, node: u32, sealed: &[(u32, &str, u64)]) -> Result<u64> {
    let edits: Vec<Edit<'_>> = sealed
        .iter()
        .map(|&(iteration, file, bytes)| {
            Edit::List(EntryRef {
                file,
                node,
                kind: EntryKind::Iteration(iteration),
                bytes,
            })
        })
        .collect();
    append(root, &edits)
}

/// Swaps `superseded` entries for `replacement` in one frame — the
/// compactor's commit point. Idempotent: re-running after a crash (some
/// entries already gone, replacement already present) converges to the
/// same manifest.
pub fn replace_entries(
    root: &Path,
    superseded: &[String],
    replacement: ManifestEntry,
) -> Result<u64> {
    let mut edits: Vec<Edit<'_>> = superseded.iter().map(|f| Edit::Drop(f)).collect();
    edits.push(Edit::List((&replacement).into()));
    append(root, &edits)
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
    gc_superseded_each(root, sentinel, || Ok(()))
}

/// [`gc_superseded`], calling `before` ahead of each deletion: an error it
/// returns ends the pass (the compactor's kill points).
pub fn gc_superseded_each<E: From<ManifestError>>(
    root: &Path,
    sentinel: Option<&crate::sentinel::DiskSentinel>,
    mut before: impl FnMut() -> std::result::Result<(), E>,
) -> std::result::Result<(usize, u64), E> {
    let manifest = Manifest::load(root)?;
    let (mut deleted, mut reclaimed) = (0usize, 0u64);
    let mut remove = |path: &Path| -> std::result::Result<(), E> {
        before()?;
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        std::fs::remove_file(path).map_err(ManifestError::Io)?;
        if let Some(s) = sentinel {
            s.release(bytes);
        }
        deleted += 1;
        reclaimed += bytes;
        Ok(())
    };
    for dir in std::fs::read_dir(root).into_iter().flatten().flatten() {
        let dir_name = dir.file_name().to_string_lossy().into_owned();
        for file in std::fs::read_dir(dir.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            let name = file.file_name().to_string_lossy().into_owned();
            let rel = format!("{dir_name}/{name}");
            let orphan = dir_name.starts_with("node-")
                && name.starts_with("compact-")
                && name.ends_with(".tmp");
            let superseded = !manifest.references(&rel)
                && crate::recovery::parse_iteration_file(&rel).is_some_and(|(node, it)| {
                    manifest.entries.iter().any(|e| {
                        e.node == node
                            && matches!(e.kind, EntryKind::Compacted { .. })
                            && e.kind.covers(it)
                    })
                });
            if orphan || superseded {
                remove(&file.path())?;
            }
        }
    }
    Ok((deleted, reclaimed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn temp_root(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("damaris-manifest-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// A log's text, read as [`Manifest::load`] reads the file.
    fn parse(text: &str) -> Result<Manifest> {
        Ok(Log::parse(text.as_bytes())?.manifest())
    }

    fn entry(file: &str, node: u32, kind: EntryKind, bytes: u64) -> ManifestEntry {
        ManifestEntry {
            file: file.into(),
            node,
            kind,
            bytes,
        }
    }

    fn sample() -> Manifest {
        Manifest {
            generation: 7,
            entries: vec![
                entry("node-0/iter-000012.sdf", 0, EntryKind::Iteration(12), 40968),
                entry(
                    "node-0/compact-000000-000011.sdf",
                    0,
                    EntryKind::Compacted { lo: 0, hi: 11 },
                    491616,
                ),
            ],
        }
    }

    /// One appended frame of `edits`, as a publish or replace writes it.
    fn frame(edits: &[Edit<'_>]) -> String {
        let mut out = String::new();
        edits.iter().for_each(|&edit| write_edit(&mut out, edit));
        close_frame(&mut out);
        out
    }

    fn len_of(root: &Path) -> u64 {
        std::fs::metadata(root.join(MANIFEST_NAME)).unwrap().len()
    }

    fn ino_of(root: &Path) -> u64 {
        std::fs::metadata(root.join(MANIFEST_NAME)).unwrap().ino()
    }

    #[test]
    fn text_roundtrip() {
        let m = sample();
        assert_eq!(parse(&m.render()).unwrap(), m);
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
    fn covers_through_spans_and_iterations() {
        let m = sample();
        assert!(m.covers(0, 5)); // via the span
        assert!(m.covers(0, 12)); // via the iter entry
        assert!(!m.covers(0, 13));
        assert!(!m.covers(1, 5));
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
        let span = entry(
            "node-0/compact-000000-000001.sdf",
            0,
            EntryKind::Compacted { lo: 0, hi: 1 },
            200,
        );
        assert_eq!(
            replace_entries(&root, &superseded, span.clone()).unwrap(),
            3
        );
        let m2 = Manifest::load(&root).unwrap();
        assert_eq!(m2.entries, vec![span.clone()]);
        assert!(m2.covers(0, 0) && m2.covers(0, 1));
        // Idempotent re-run (crash between the replace and the cleanup).
        replace_entries(&root, &superseded, span.clone()).unwrap();
        assert_eq!(Manifest::load(&root).unwrap().entries, vec![span]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn publishing_appends_one_frame_to_the_same_file() {
        let root = temp_root("append");
        let name = |it: u32| format!("node-0/iter-{it:06}.sdf");
        // The first publish has no log to append to: it checkpoints.
        publish_iteration(&root, 0, 0, &name(0), 100).unwrap();
        let ino = ino_of(&root);
        for it in 1..1000u32 {
            let before = len_of(&root);
            assert_eq!(
                publish_iteration(&root, 0, it, &name(it), 100).unwrap(),
                u64::from(it) + 1
            );
            let listed = entry(&name(it), 0, EntryKind::Iteration(it), 100);
            let frame = frame(&[Edit::List((&listed).into())]);
            let text = std::fs::read(root.join(MANIFEST_NAME)).unwrap();
            assert_eq!(&text[before as usize..], frame.as_bytes(), "publish {it}");
            assert_eq!(ino_of(&root), ino, "publish {it} replaced the file");
        }
        let mut names: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, [MANIFEST_NAME, MANIFEST_LOCK]);
        let m = Manifest::load(&root).unwrap();
        assert_eq!((m.generation, m.entries.len()), (1000, 1000));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_batch_is_one_frame_and_counts_every_file() {
        let root = temp_root("batch");
        let name = |it: u32| format!("node-0/iter-{it:06}.sdf");
        publish_iteration(&root, 0, 0, &name(0), 100).unwrap();
        publish_iteration(&root, 0, 1, &name(1), 100).unwrap();
        let names: Vec<String> = (2..5).map(name).collect();
        let sealed: Vec<(u32, &str, u64)> = (2..5)
            .zip(&names)
            .map(|(it, n)| (it, n.as_str(), 200))
            .collect();
        let listed: Vec<ManifestEntry> = (2..5)
            .zip(&names)
            .map(|(it, n)| entry(n, 0, EntryKind::Iteration(it), 200))
            .collect();
        let edits: Vec<Edit<'_>> = listed.iter().map(|e| Edit::List(e.into())).collect();
        let before = len_of(&root);
        assert_eq!(publish_iterations(&root, 0, &sealed).unwrap(), 5);
        // One frame: the batch's lines and one crc line.
        let text = std::fs::read(root.join(MANIFEST_NAME)).unwrap();
        assert_eq!(&text[before as usize..], frame(&edits).as_bytes());
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
    fn a_log_past_twice_its_live_entries_is_checkpointed() {
        let root = temp_root("threshold");
        let name = |it: u32| format!("node-0/iter-{it:06}.sdf");
        for it in 0..4 {
            publish_iteration(&root, 0, it, &name(it), 100).unwrap();
        }
        let ino = ino_of(&root);
        // Re-listing a file is appended: it counts as one more live entry
        // until the log is next read whole.
        publish_iteration(&root, 0, 3, &name(3), 101).unwrap();
        assert_eq!(ino_of(&root), ino);
        // Four entries replaced by one: ten lines for two live entries.
        let superseded: Vec<String> = (0..4).map(name).collect();
        let kind = EntryKind::Compacted { lo: 0, hi: 3 };
        let span = entry("node-0/compact-000000-000003.sdf", 0, kind, 400);
        assert_eq!(
            replace_entries(&root, &superseded, span.clone()).unwrap(),
            6
        );
        assert_ne!(ino_of(&root), ino, "rewritten as a checkpoint");
        let m = Manifest::load(&root).unwrap();
        assert_eq!(
            m,
            Manifest {
                generation: 6,
                entries: vec![span],
            }
        );
        assert_eq!(m.render().len() as u64, len_of(&root));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_torn_tail_is_not_published_and_the_next_publish_checkpoints() {
        let root = temp_root("torn");
        publish_iteration(&root, 0, 0, "node-0/iter-000000.sdf", 100).unwrap();
        publish_iteration(&root, 0, 1, "node-0/iter-000001.sdf", 100).unwrap();
        let before = Manifest::load(&root).unwrap();
        // Half a frame: what a crash during an append leaves.
        let listed = entry("node-0/iter-000002.sdf", 0, EntryKind::Iteration(2), 100);
        let torn = frame(&[Edit::List((&listed).into())]);
        let mut file = OpenOptions::new()
            .append(true)
            .open(root.join(MANIFEST_NAME))
            .unwrap();
        file.write_all(&torn.as_bytes()[..torn.len() / 2]).unwrap();
        assert_eq!(Manifest::load(&root).unwrap(), before);
        assert!(load_log(&root).unwrap().1, "the tail is seen as torn");
        let ino = ino_of(&root);
        assert_eq!(
            publish_iteration(&root, 0, 3, "node-0/iter-000003.sdf", 100).unwrap(),
            3
        );
        assert_ne!(ino_of(&root), ino, "answered with a checkpoint");
        let after = Manifest::load(&root).unwrap();
        assert!(after.covers(0, 3) && !after.covers(0, 2));
        assert!(!load_log(&root).unwrap().1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn readers_racing_publishes_see_whole_generations() {
        let root = temp_root("race");
        publish_iteration(&root, 0, 0, "node-0/iter-000000.sdf", 100).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let loader = s.spawn(|| {
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
            // A polling reader: what it accepts, appended or whole, adds
            // up to every file published so far, and never steps back.
            let poller = s.spawn(|| {
                let mut reader = ManifestReader::new(&root);
                let (mut polls, mut listed, mut last) = (0u64, 0u64, 0u64);
                while !done.load(Ordering::Acquire) {
                    reader.read().expect("a whole manifest");
                    if let Some(change) = reader.change() {
                        let (generation, whole) = (change.generation, change.whole);
                        let n = change.entries.len() as u64;
                        listed = if whole { n } else { listed + n };
                        assert_eq!(listed, generation);
                        assert!(generation >= last, "{generation} after {last}");
                        last = generation;
                    }
                    reader.accept();
                    polls += 1;
                }
                polls
            });
            for it in 1..400u32 {
                publish_iteration(&root, 0, it, &format!("node-0/iter-{it:06}.sdf"), 100).unwrap();
                if it == 200 {
                    // A checkpoint mid-run: the same manifest, another file.
                    let _lock = ManifestLock::acquire(&root).unwrap();
                    Manifest::load(&root).unwrap().store(&root).unwrap();
                }
            }
            done.store(true, Ordering::Release);
            assert!(loader.join().expect("loader") > 0);
            assert!(poller.join().expect("poller") > 0);
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
        // A full disk must not corrupt the manifest protocol. A torn tail
        // makes the next publish write a checkpoint, and a directory
        // planted at the checkpoint's temporary name makes that fail just
        // like a full file system would: after the lock is taken, before
        // anything replaced the published log.
        let root = temp_root("publish-enospc");
        publish_iteration(&root, 0, 0, "node-0/iter-000000.sdf", 100).unwrap();
        let before = Manifest::load(&root).unwrap();
        assert_eq!(before.generation, 1);
        let mut file = OpenOptions::new()
            .append(true)
            .open(root.join(MANIFEST_NAME))
            .unwrap();
        file.write_all(b"iter 0 1 100 node-0/it").unwrap();

        let tmp_blocker = root.join(CHECKPOINT_TMP);
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
        let m = Manifest {
            generation: 2,
            entries: vec![
                entry(
                    "node-0/compact-000000-000003.sdf",
                    0,
                    EntryKind::Compacted { lo: 0, hi: 3 },
                    64,
                ),
                entry("node-0/iter-000005.sdf", 0, EntryKind::Iteration(5), 64),
            ],
        };
        m.store(&root).unwrap();

        let sentinel = DiskSentinel::with_quota(1000);
        sentinel.charge(500);
        let (deleted, reclaimed) = gc_superseded(&root, Some(&sentinel)).unwrap();
        assert_eq!(deleted, 2, "superseded iter + orphan tmp");
        assert_eq!(reclaimed, 128);
        assert_eq!(sentinel.used(), 500 - 128);
        assert!(!root.join("node-0/iter-000000.sdf").exists());
        assert!(root.join("node-0/iter-000005.sdf").exists());
        assert!(
            root.join("node-0/iter-000009.sdf").exists(),
            "unpublished file kept"
        );
        // Idempotent: nothing left to collect.
        assert_eq!(gc_superseded(&root, None).unwrap(), (0, 0));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn truncation_is_typed_corruption() {
        // A checkpoint is written whole before it is renamed in: cut
        // anywhere, it is corrupt, never a tail.
        let text = sample().render();
        for cut in 0..text.len() {
            match parse(&text[..cut]) {
                Err(ManifestError::Corrupt(_)) => {}
                other => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_manifest_from_before_the_log_loads_and_takes_an_append() {
        let root = temp_root("v1");
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/MANIFEST-v1");
        std::fs::copy(&fixture, root.join(MANIFEST_NAME)).unwrap();
        let span = EntryKind::Compacted { lo: 0, hi: 11 };
        let mut expected = Manifest {
            generation: 7,
            entries: vec![
                entry("node-0/compact-000000-000011.sdf", 0, span, 491616),
                entry("node-0/iter-000012.sdf", 0, EntryKind::Iteration(12), 40968),
                entry("node-1/iter-000012.sdf", 1, EntryKind::Iteration(12), 40968),
            ],
        };
        assert_eq!(Manifest::load(&root).unwrap(), expected);
        let (ino, len) = (ino_of(&root), len_of(&root));
        assert_eq!(
            publish_iteration(&root, 0, 13, "node-0/iter-000013.sdf", 40968).unwrap(),
            8
        );
        assert_eq!(ino_of(&root), ino, "appended, not rewritten");
        assert!(len_of(&root) > len);
        expected.generation = 8;
        let iter13 = entry("node-0/iter-000013.sdf", 0, EntryKind::Iteration(13), 40968);
        expected.entries.push(iter13);
        assert_eq!(Manifest::load(&root).unwrap(), expected);
        std::fs::remove_dir_all(&root).ok();
    }

    /// A checkpoint of `sample()` whose header carries `features`.
    fn with_features(features: &str) -> String {
        let text = sample().render();
        let body = text[..text.rfind("crc ").unwrap()].replacen("features 1 0 0", features, 1);
        let crc = damaris_format::crc32(body.as_bytes());
        format!("{body}crc {crc:08x} {}\n", body.len())
    }

    #[test]
    fn unknown_features_refuse_to_be_read_or_written() {
        // An incompat bit this build does not know: the layout moved.
        let err = parse(&with_features("features 3 0 0")).unwrap_err();
        assert!(
            matches!(&err, ManifestError::Corrupt(m) if m.contains("incompat")),
            "{err}"
        );
        // A ro-compat bit: read, but not written.
        let root = temp_root("ro-compat");
        std::fs::write(root.join(MANIFEST_NAME), with_features("features 1 4 0")).unwrap();
        assert_eq!(Manifest::load(&root).unwrap(), sample());
        let err = publish_iteration(&root, 0, 13, "node-0/iter-000013.sdf", 1).unwrap_err();
        assert!(matches!(err, ManifestError::Corrupt(_)), "{err}");
        // A compat bit changes nothing.
        assert_eq!(parse(&with_features("features 1 0 8")).unwrap(), sample());
        std::fs::remove_dir_all(&root).ok();
    }

    /// `m`'s checkpoint followed by one frame per batch of `edits`, and
    /// where each frame starts.
    fn log_of(m: &Manifest, batches: &[Vec<Edit<'_>>]) -> (String, Vec<usize>) {
        let mut text = m.render();
        let mut starts = vec![0];
        for batch in batches {
            starts.push(text.len());
            text.push_str(&frame(batch));
        }
        (text, starts)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // Byte flips must never panic; what is still read is the whole
        // log (a flip CRC-32 cannot see: the case of a hex digit in a crc
        // line) or, for a flip in the last frame, the log without it.
        #[test]
        fn corrupt_manifest_never_panics(
            flip_pos in 0usize..4096,
            flip_mask in 1u8..255,
        ) {
            let listed = entry("node-0/iter-000013.sdf", 0, EntryKind::Iteration(13), 9);
            let (text, starts) = log_of(&sample(), &[vec![Edit::List((&listed).into())]]);
            let mut bytes = text.clone().into_bytes();
            let pos = flip_pos % bytes.len();
            bytes[pos] ^= flip_mask;
            if let Ok(s) = String::from_utf8(bytes) {
                if let Ok(m) = parse(&s) {
                    let whole = parse(&text).unwrap();
                    prop_assert!(m == whole || (pos >= starts[1] && m == sample()), "{:?}", m);
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
            let _ = parse(std::str::from_utf8(&t).expect("ascii"));
        }

        // A log reads as its checkpoint with every frame's edits applied:
        // a listed file added or its entry replaced in place, a dropped
        // one removed, one generation per listed entry.
        #[test]
        fn a_log_reads_as_its_edits_applied(
            m in arb_manifest(),
            batches in proptest::collection::vec(
                proptest::collection::vec((arb_entry(), any::<bool>()), 1..4),
                0..4,
            ),
        ) {
            let mut expected = m.clone();
            let edits: Vec<Vec<Edit<'_>>> = batches
                .iter()
                .map(|batch| {
                    batch
                        .iter()
                        .map(|(e, drop)| match drop {
                            true => Edit::Drop(&e.file),
                            false => Edit::List(e.into()),
                        })
                        .collect()
                })
                .collect();
            for (e, drop) in batches.iter().flatten() {
                match drop {
                    true => expected.entries.retain(|x| x.file != e.file),
                    false => {
                        expected.generation += 1;
                        match expected.entries.iter_mut().find(|x| x.file == e.file) {
                            Some(slot) => *slot = e.clone(),
                            None => expected.entries.push(e.clone()),
                        }
                    }
                }
            }
            let (text, _) = log_of(&m, &edits);
            prop_assert_eq!(parse(&text).expect("a whole log"), expected);
        }

        // A changed byte in any frame but the last is corrupt; in the
        // last, the log reads without that frame. Either way, a change
        // CRC-32 cannot see (a hex digit's case in a crc line) reads as
        // the log unchanged. Nothing panics.
        #[test]
        fn a_changed_byte_is_corrupt_or_a_torn_tail(
            m in arb_manifest(),
            more in proptest::collection::vec(arb_entry(), 1..4),
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            let batches: Vec<Vec<Edit<'_>>> =
                more.iter().map(|e| vec![Edit::List(e.into())]).collect();
            let (text, starts) = log_of(&m, &batches);
            let mut bytes = text.clone().into_bytes();
            let pos = at % bytes.len();
            prop_assume!(bytes[pos] != byte);
            bytes[pos] = byte;
            let whole = Log::parse(text.as_bytes()).expect("a whole log").manifest();
            let last = *starts.last().expect("frames");
            let without_last = Log::parse(&text.as_bytes()[..last]).expect("whole").manifest();
            match Log::parse(&bytes).map(|log| log.manifest()) {
                Ok(read) if read == whole => {}
                Ok(read) => {
                    prop_assert!(pos >= last, "a change at {} read as {:?}", pos, read);
                    prop_assert_eq!(read, without_last);
                }
                Err(ManifestError::Corrupt(_)) => prop_assert!(pos < last, "change at {}", pos),
                Err(e) => prop_assert!(false, "untyped: {}", e),
            }
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

    /// A manifest as one is kept: each file listed once.
    fn arb_manifest() -> impl Strategy<Value = Manifest> {
        (any::<u64>(), proptest::collection::vec(arb_entry(), 0..8)).prop_map(
            |(generation, mut entries)| {
                let mut seen = std::collections::HashSet::new();
                entries.retain(|e| seen.insert(e.file.clone()));
                Manifest {
                    generation: generation >> 8,
                    entries,
                }
            },
        )
    }

    #[test]
    fn a_reader_checks_only_the_bytes_past_its_offset() {
        let root = temp_root("offset");
        publish_iteration(&root, 0, 0, "node-0/iter-000000.sdf", 100).unwrap();
        let mut reader = ManifestReader::new(&root);
        reader.read().unwrap();
        reader.accept();
        let append = |bytes: &[u8]| {
            let path = root.join(MANIFEST_NAME);
            let mut file = OpenOptions::new().append(true).open(path).unwrap();
            file.write_all(bytes).unwrap();
        };
        // A byte of the accepted checkpoint changed in place, then a whole
        // frame appended: the reader reads only the frame; a whole read
        // finds the checkpoint corrupt.
        let mut text = std::fs::read(root.join(MANIFEST_NAME)).unwrap();
        text[HEADER.len() + 2] ^= 1;
        std::fs::write(root.join(MANIFEST_NAME), &text).unwrap();
        let listed = entry("node-0/iter-000001.sdf", 0, EntryKind::Iteration(1), 100);
        append(frame(&[Edit::List((&listed).into())]).as_bytes());
        reader.read().unwrap();
        let change = reader.change().expect("the appended frame");
        assert!(!change.whole);
        assert_eq!(
            change.entries.iter().map(|e| e.file).collect::<Vec<_>>(),
            [listed.file.as_str()]
        );
        reader.accept();
        assert!(matches!(
            Manifest::load(&root),
            Err(ManifestError::Corrupt(_))
        ));
        // A CRC-valid frame with a malformed line, and a bad frame with a
        // whole one after it: both refused, and nothing to accept.
        let malformed = "iter 0 x 1 node-0/iter-000002.sdf\n";
        let crc = damaris_format::crc32(malformed.as_bytes());
        let forged = format!("{malformed}crc {crc:08x} {}\n", malformed.len());
        for bad in [
            forged.clone(),
            format!("{}{forged}", forged.replace("x 1", "9 1")),
        ] {
            let mut reread = ManifestReader::new(&root);
            std::fs::write(root.join(MANIFEST_NAME), sample().render() + &bad).unwrap();
            let checked = reread.read();
            assert!(
                matches!(checked, Err(ManifestError::Corrupt(_))),
                "{bad}: {checked:?}"
            );
            assert!(reread.change().is_none());
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_reader_checks_and_returns_only_what_changed() {
        let root = temp_root("reader");
        let name = |it: u32| format!("node-0/iter-{it:06}.sdf");
        let files = |change: Change<'_>| -> Vec<String> {
            change.entries.iter().map(|e| e.file.to_string()).collect()
        };
        let mut reader = ManifestReader::new(&root);
        reader.read().unwrap();
        assert!(reader.change().is_none(), "no manifest, as accepted");
        for it in 0..3 {
            publish_iteration(&root, 0, it, &name(it), 100).unwrap();
        }
        // A new file: read whole.
        reader.read().unwrap();
        let change = reader.change().unwrap();
        assert_eq!((change.generation, change.whole), (3, true));
        assert_eq!(files(change), [name(0), name(1), name(2)]);
        reader.accept();
        reader.read().unwrap();
        assert!(reader.change().is_none(), "nothing published");
        // An append of a new file: just that entry.
        publish_iteration(&root, 0, 3, &name(3), 100).unwrap();
        reader.read().unwrap();
        let change = reader.change().unwrap();
        assert_eq!((change.generation, change.whole), (4, false));
        assert_eq!(files(change), [name(3)]);
        reader.accept();
        // A torn tail past the offset: nothing new, and read again later.
        let path = root.join(MANIFEST_NAME);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"iter 0 4 100 node-0/iter-0000").unwrap();
        reader.read().unwrap();
        assert!(reader.change().is_none());
        // A replace (here answering the torn tail with a checkpoint): read
        // whole.
        let span = entry(
            "node-0/compact-000000-000001.sdf",
            0,
            EntryKind::Compacted { lo: 0, hi: 1 },
            200,
        );
        replace_entries(&root, &[name(0), name(1)], span.clone()).unwrap();
        reader.read().unwrap();
        let change = reader.change().unwrap();
        assert!(change.whole);
        assert_eq!(files(change), [name(2), name(3), span.file.clone()]);
        assert_eq!(
            reader.change().unwrap().generation,
            Manifest::load(&root).unwrap().generation
        );
        reader.accept();
        // A read that fails leaves nothing to accept; a manifest removed
        // is the empty one.
        std::fs::write(&path, b"damaris-manifest v1\n").unwrap();
        assert!(matches!(reader.read(), Err(ManifestError::Corrupt(_))));
        assert!(reader.change().is_none());
        reader.accept();
        std::fs::remove_file(&path).unwrap();
        reader.read().unwrap();
        let change = reader.change().unwrap();
        assert_eq!((change.generation, change.whole), (0, true));
        assert_eq!(change.entries.len(), 0);
        std::fs::remove_dir_all(&root).ok();
    }
}
