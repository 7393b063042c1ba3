//! Write-ahead journal of a node's client notifications.
//!
//! When the dedicated core dies, the shared buffer and this journal
//! survive it — in [`crate::node::NodeShared`] when the core is a thread,
//! in the mapping and the journal's file when it is a process — but the
//! core's in-flight state — its metadata store, its end-of-iteration
//! counts — dies with its stack. The journal is what lets the next
//! incarnation reconstruct that state:
//!
//! * every client-originated event (`Write`, `User`, `EndIteration`) is
//!   appended here **before** the core hears of it (before the queue push
//!   on the threaded node, before `handle` in the process node's pump),
//!   carrying the assigned sequence number in the event itself;
//! * the server *claims* each sequence number as it pops the event
//!   ([`EventJournal::claim`]), and marks it *applied* once its side
//!   effects are durable (segment released, iteration fired);
//! * a respawned server replays every non-applied record in sequence
//!   order, re-adopting the shared-memory segments the dead server had
//!   resident, and the stale queue copies of replayed events are rejected
//!   when they eventually pop — `claim` is the exactly-once arbiter
//!   closing the race between the replay snapshot and late queue pops.
//!
//! Records carry a CRC over their header (computed with the same
//! `damaris-format` CRC-32 the SDF files use); a corrupted record is
//! skipped at replay rather than poisoning the new epoch.
//!
//! # Invariants
//!
//! * Sequence numbers are assigned by one atomic counter and never reused:
//!   the journal's iteration order *is* the global notification order, and
//!   per client it matches queue order (each client appends, then pushes).
//! * A record moves `Pending → Resident → Applied`, never backwards; only
//!   `claim` performs `Pending → Resident` and it succeeds exactly once.
//! * `Applied` records are dead weight; [`EventJournal::compact`] drops
//!   them (a missing record claims as `Stale`, preserving at-most-once).
//!
//! # The file store
//!
//! A journal made with [`EventJournal::open`] also appends every record
//! to a file, under the same mutex, so that a dedicated core that is a
//! *process* can be `kill -9`'d and its successor rebuild from the file
//! and the mapping alone. One frame per entry, `[u32 len][u32 crc][body]`
//! little-endian, `crc` over the body:
//!
//! ```text
//! a notification:  the bytes of `encode_header` (u64 seq, u8 tag 0..=3, fields)
//! applied marker:  u64 seq, u8 4
//! fence marker:    u64 0,   u8 5, u32 source
//! ```
//!
//! Every frame is followed by `sync_data`. Two states are all a file
//! needs: `Resident` only arbitrates between a replay and a stale queue
//! copy inside one process, and a reopened journal has no queue — what is
//! not applied is pending. There is no third, "released" state either:
//! [`crate::plugin::ActionContext::flush_releases`] marks a record
//! applied *before* it releases the segment, so a kill between the two
//! strands that one range (the client's next FIFO release swallows it as
//! padding) and can never release it twice. A torn tail — a frame cut
//! short, or one whose CRC fails — ends the scan and is truncated away,
//! so appends resume on a frame boundary; a frame with a valid CRC and an
//! unknown tag is version skew and is skipped. A frame that cannot be
//! written is fatal to the process: acting on a notification the journal
//! does not hold is exactly what the journal exists to prevent.
//!
//! # Fast path
//!
//! The overwhelmingly common record — a static-layout `Write` from a
//! low-numbered source — never touches the mutex or the heap on append:
//! it is staged as a fixed-size [`FixedWriteRecord`] in a lock-free slab
//! and folded into the `BTreeMap` by whichever mutex entry point runs
//! next (`claim` on the dedicated core's pop, `fence`, `replay_snapshot`,
//! …). Appends and fences race by design; the slab's publish/recheck
//! protocol (see [`EventJournal::append_write`]) guarantees a fenced
//! source's staged record is either collected by the fence or cancelled
//! by the appender — never silently retained.

use damaris_format::{DataType, Layout};
use damaris_shm::sync::{AtomicU64, CachePadded, Mutex, Ordering, ShmCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// What a journaled notification said, minus the live [`damaris_shm::Segment`]
/// handle (the journal stores the segment's coordinates so a new server
/// can re-adopt it from the allocator).
#[derive(Debug, Clone, PartialEq)]
pub enum JournalPayload {
    /// A write-notification: `offset`/`len` locate the payload in the
    /// shared buffer for re-adoption after a crash; `data_crc` is the
    /// CRC-32 the client computed over its *source* bytes before the
    /// `memcpy`, verified end-to-end by the persist plugin so a torn shm
    /// copy (rank dying mid-`memcpy`) is quarantined instead of persisted.
    Write {
        variable_id: u32,
        iteration: u32,
        source: u32,
        offset: usize,
        len: usize,
        dynamic_layout: Option<Layout>,
        data_crc: u32,
    },
    /// A user-defined event (`df_signal`).
    User {
        name: String,
        iteration: u32,
        source: u32,
    },
    /// A client's end-of-iteration notification.
    EndIteration { iteration: u32, source: u32 },
    /// A client abandoned an allocated-but-never-committed region
    /// (`dc_alloc` handle dropped without `commit`). The owning client may
    /// not release shared memory itself — partition-mode reclamation is
    /// FIFO and single-consumer — so it journals the segment's coordinates
    /// and the dedicated core releases it in order at the iteration's
    /// flush.
    Abandon {
        iteration: u32,
        source: u32,
        offset: usize,
        len: usize,
    },
}

impl JournalPayload {
    /// The client that originated this notification.
    pub fn source(&self) -> u32 {
        match self {
            JournalPayload::Write { source, .. }
            | JournalPayload::User { source, .. }
            | JournalPayload::EndIteration { source, .. }
            | JournalPayload::Abandon { source, .. } => *source,
        }
    }
}

/// [`EventJournal::append`] rejected the record: the source has been
/// fenced by the lease sweeper and may no longer journal notifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fenced {
    pub source: u32,
}

/// Lifecycle of a journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordState {
    /// Appended, not yet claimed by any server epoch (the event is still
    /// in the queue, or was, when the previous server died).
    Pending,
    /// Claimed by a server: a `Write` is resident in the metadata store,
    /// an `EndIteration` is counted, a `User` is about to fire.
    Resident,
    /// Side effects durable; the record is garbage awaiting [`EventJournal::compact`].
    Applied,
}

/// One journaled notification.
#[derive(Debug, Clone)]
pub struct JournalRecord {
    pub seq: u64,
    /// Heartbeat epoch of the *appending* side at append time (0 for
    /// clients started before any respawn). Diagnostic only.
    pub epoch: u32,
    /// CRC-32 over the encoded header; verified at replay.
    pub crc: u32,
    pub payload: JournalPayload,
    pub state: RecordState,
}

/// Outcome of [`EventJournal::claim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// First claim — process the event.
    Fresh,
    /// Already claimed (by a previous epoch's replay or processing) —
    /// drop the event without side effects.
    Stale,
}

/// What a replaying server gets for each surviving record.
#[derive(Debug, Clone)]
pub struct ReplayEntry {
    pub seq: u64,
    pub state: RecordState,
    pub payload: JournalPayload,
}

#[derive(Debug, Default)]
struct JournalInner {
    records: BTreeMap<u64, JournalRecord>,
    /// Sources whose leases were revoked: appends from them are rejected.
    /// Lives under the same lock as the records so fencing and the
    /// collection of a dead client's pending seqnos are one atomic step —
    /// no append can slip in between.
    fenced: BTreeSet<u32>,
    /// The file every record, applied marker and fence is also appended
    /// to; `None` on the threaded node.
    store: Option<File>,
}

/// Slot states, packed into the low 2 bits of the state word; the upper
/// 62 bits carry the staged record's sequence number, which makes every
/// state transition ABA-proof (a recycled slot never matches a stale
/// compare-exchange expectation).
const SLOT_FREE: u64 = 0;
const SLOT_CLAIMED: u64 = 1;
const SLOT_READY: u64 = 2;
const SLOT_DRAINING: u64 = 3;
const STATE_TAG_MASK: u64 = 0b11;

/// Sources `0..FAST_SOURCES` get a fence bit in `fenced_mask` and may use
/// the lock-free append path; higher sources fall back to the mutex.
const FAST_SOURCES: u32 = 64;

/// Staging capacity shared by all fast-path appenders. Exhaustion is not
/// an error — appends overflow to the mutex path — but it only happens
/// when the dedicated core has not popped (and therefore not drained) for
/// a full slab of writes.
const STAGING_SLOTS: usize = 64;

fn pack(tag: u64, seq: u64) -> u64 {
    (seq << 2) | tag
}

/// The fixed-size, heap-free image of a static-layout `Write` record —
/// everything [`JournalPayload::Write`] carries except `dynamic_layout`
/// (dynamic writes take the mutex path; they allocate regardless).
#[repr(C)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixedWriteRecord {
    pub variable_id: u32,
    pub iteration: u32,
    pub source: u32,
    pub data_crc: u32,
    pub offset: u64,
    pub len: u64,
    pub epoch: u32,
    /// Header CRC, computed at append over [`encode_fixed_write_header`].
    pub crc: u32,
}

/// One lock-free staging slot.
struct StagingSlot {
    state: AtomicU64,
    rec: ShmCell<FixedWriteRecord>,
}

/// The write-ahead journal shared by a node's clients and its (current)
/// dedicated-core thread.
///
/// Every word below is on a block of its own, grouped by who writes it:
/// clients bump `next_seq` on every append, the dedicated core takes
/// `inner` on every pop, a staging slot is written by the appender that
/// claims it and the drain that frees it, and `fenced_mask`, which every
/// fast append reads twice, is written only by a fence. Packed together,
/// each side's writes cost the other side a miss per call.
pub struct EventJournal {
    next_seq: CachePadded<AtomicU64>,
    inner: CachePadded<Mutex<JournalInner>>,
    staging: Box<[CachePadded<StagingSlot>]>,
    /// One fence bit per fast-path source; the lock-free counterpart of
    /// `JournalInner::fenced` (which remains authoritative for all
    /// sources). Written only by [`fence`](Self::fence).
    fenced_mask: CachePadded<AtomicU64>,
    /// Whether `inner.store` is set, readable without the lock: a stored
    /// journal has no lock-free path (every record goes to the file).
    stored: bool,
}

impl Default for EventJournal {
    fn default() -> Self {
        let staging: Vec<CachePadded<StagingSlot>> = (0..STAGING_SLOTS)
            .map(|_| {
                CachePadded::new(StagingSlot {
                    state: AtomicU64::new(pack(SLOT_FREE, 0)),
                    rec: ShmCell::new(FixedWriteRecord::default()),
                })
            })
            .collect();
        EventJournal {
            next_seq: CachePadded::default(),
            inner: CachePadded::default(),
            staging: staging.into_boxed_slice(),
            fenced_mask: CachePadded::default(),
            stored: false,
        }
    }
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EventJournal(next_seq={})",
            self.next_seq.load(Ordering::Relaxed)
        )
    }
}

/// Byte-identical to [`encode_header`] for a static-layout `Write`
/// payload (asserted by test): 8 seq + 1 tag + 4 variable_id +
/// 4 iteration + 4 source + 8 offset + 8 len + 4 data_crc.
pub fn encode_fixed_write_header(seq: u64, r: &FixedWriteRecord) -> [u8; 41] {
    // Cursor-style fill: no slice indexing, so the encoder itself stays
    // panic-free on the hot path.
    fn put(buf: &mut [u8; 41], at: usize, bytes: &[u8]) {
        for (d, s) in buf.iter_mut().skip(at).zip(bytes) {
            *d = *s;
        }
    }
    let mut buf = [0u8; 41];
    put(&mut buf, 0, &seq.to_le_bytes());
    put(&mut buf, 8, &[0]); // tag: Write
    put(&mut buf, 9, &r.variable_id.to_le_bytes());
    put(&mut buf, 13, &r.iteration.to_le_bytes());
    put(&mut buf, 17, &r.source.to_le_bytes());
    put(&mut buf, 21, &r.offset.to_le_bytes());
    put(&mut buf, 29, &r.len.to_le_bytes());
    put(&mut buf, 37, &r.data_crc.to_le_bytes());
    buf
}

/// Tags of the two file-store frames that are not notifications (the
/// notifications' own tags, 0..=3, are in [`encode_header`]).
const TAG_APPLIED: u8 = 4;
const TAG_FENCE: u8 = 5;

/// Encodes a record: the bytes its CRC covers, and — with a file store —
/// the body of its frame ([`decode`] is the inverse).
fn encode_header(seq: u64, payload: &JournalPayload) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&seq.to_le_bytes());
    match payload {
        JournalPayload::Write {
            variable_id,
            iteration,
            source,
            offset,
            len,
            dynamic_layout,
            data_crc,
        } => {
            buf.push(0);
            buf.extend_from_slice(&variable_id.to_le_bytes());
            buf.extend_from_slice(&iteration.to_le_bytes());
            buf.extend_from_slice(&source.to_le_bytes());
            buf.extend_from_slice(&(*offset as u64).to_le_bytes());
            buf.extend_from_slice(&(*len as u64).to_le_bytes());
            buf.extend_from_slice(&data_crc.to_le_bytes());
            // A static write ends here (41 bytes, see
            // `encode_fixed_write_header`); a dynamic one carries its shape.
            if let Some(layout) = dynamic_layout {
                buf.push(layout.dtype.tag());
                for dim in &layout.dims {
                    buf.extend_from_slice(&dim.to_le_bytes());
                }
            }
        }
        JournalPayload::User {
            name,
            iteration,
            source,
        } => {
            buf.push(1);
            buf.extend_from_slice(name.as_bytes());
            buf.extend_from_slice(&iteration.to_le_bytes());
            buf.extend_from_slice(&source.to_le_bytes());
        }
        JournalPayload::EndIteration { iteration, source } => {
            buf.push(2);
            buf.extend_from_slice(&iteration.to_le_bytes());
            buf.extend_from_slice(&source.to_le_bytes());
        }
        JournalPayload::Abandon {
            iteration,
            source,
            offset,
            len,
        } => {
            buf.push(3);
            buf.extend_from_slice(&iteration.to_le_bytes());
            buf.extend_from_slice(&source.to_le_bytes());
            buf.extend_from_slice(&(*offset as u64).to_le_bytes());
            buf.extend_from_slice(&(*len as u64).to_le_bytes());
        }
    }
    buf
}

/// What one frame of the file store says.
#[derive(Debug, PartialEq)]
enum Stored {
    Record(u64, JournalPayload),
    Applied(u64),
    Fence(u32),
}

/// A cursor over a frame body; every read is bounds-checked.
struct Fields<'a>(&'a [u8]);

impl<'a> Fields<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)?.try_into().ok().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)?.try_into().ok().map(u64::from_le_bytes)
    }

    fn usize(&mut self) -> Option<usize> {
        self.u64()?.try_into().ok()
    }
}

/// Decodes a frame body; `None` for a tag this version does not know or a
/// body that does not parse to its end.
fn decode(body: &[u8]) -> Option<Stored> {
    let mut r = Fields(body);
    let seq = r.u64()?;
    let stored = match r.u8()? {
        0 => Stored::Record(seq, JournalPayload::Write {
            variable_id: r.u32()?,
            iteration: r.u32()?,
            source: r.u32()?,
            offset: r.usize()?,
            len: r.usize()?,
            data_crc: r.u32()?,
            dynamic_layout: match r.u8() {
                None => None,
                Some(tag) => {
                    let dims = r.0.chunks_exact(8);
                    r.0 = dims.remainder();
                    Some(Layout {
                        dtype: DataType::from_tag(tag)?,
                        dims: dims.map(|d| Fields(d).u64()).collect::<Option<_>>()?,
                    })
                }
            },
        }),
        1 => {
            // The name has no length of its own: it is what precedes the
            // two trailing words.
            let name = r.take(r.0.len().checked_sub(8)?)?;
            Stored::Record(seq, JournalPayload::User {
                name: String::from_utf8(name.to_vec()).ok()?,
                iteration: r.u32()?,
                source: r.u32()?,
            })
        }
        2 => Stored::Record(seq, JournalPayload::EndIteration {
            iteration: r.u32()?,
            source: r.u32()?,
        }),
        3 => Stored::Record(seq, JournalPayload::Abandon {
            iteration: r.u32()?,
            source: r.u32()?,
            offset: r.usize()?,
            len: r.usize()?,
        }),
        TAG_APPLIED => Stored::Applied(seq),
        TAG_FENCE => Stored::Fence(r.u32()?),
        _ => return None,
    };
    r.0.is_empty().then_some(stored)
}

/// Appends one frame to the file store and syncs it. Fail-stop (see the
/// module docs): the caller is about to act on what the frame records.
fn store_frame(file: &mut File, body: &[u8]) {
    let mut frame = Vec::with_capacity(body.len() + 8);
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&damaris_format::crc32(body).to_le_bytes());
    frame.extend_from_slice(body);
    if let Err(e) = file.write_all(&frame).and_then(|()| file.sync_data()) {
        panic!("event journal: cannot append to the file store: {e}");
    }
}

fn marker(seq: u64, tag: u8) -> Vec<u8> {
    let mut body = seq.to_le_bytes().to_vec();
    body.push(tag);
    body
}

impl EventJournal {
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens (creating it if absent) the journal kept in the file at
    /// `path` — the process node's journal, see the module docs — and
    /// returns it with the file's history: every notification ever
    /// journalled there, in sequence order, each `Applied` or `Pending`.
    /// The journal itself retains the pending ones, the fences, and the
    /// next sequence number; a torn tail is truncated away.
    pub fn open(path: &Path) -> io::Result<(EventJournal, Vec<ReplayEntry>)> {
        let mut file = File::options()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut history: BTreeMap<u64, ReplayEntry> = BTreeMap::new();
        let mut fenced = BTreeSet::new();
        let mut next_seq = 0;
        let mut rest = Fields(&bytes);
        let mut intact = 0;
        while let Some((len, crc)) = rest.u32().zip(rest.u32()) {
            let Some(body) = rest.take(len as usize) else {
                break;
            };
            if damaris_format::crc32(body) != crc {
                break;
            }
            intact = bytes.len() - rest.0.len();
            match decode(body) {
                Some(Stored::Record(seq, payload)) => {
                    next_seq = next_seq.max(seq + 1);
                    let state = RecordState::Pending;
                    history.insert(seq, ReplayEntry {
                        seq,
                        state,
                        payload,
                    });
                }
                Some(Stored::Applied(seq)) => {
                    if let Some(entry) = history.get_mut(&seq) {
                        entry.state = RecordState::Applied;
                    }
                }
                Some(Stored::Fence(source)) => {
                    fenced.insert(source);
                }
                // Version skew, not corruption: the CRC held.
                None => {}
            }
        }
        if intact < bytes.len() {
            // Append mode writes at the end, wherever that now is.
            file.set_len(intact as u64)?;
        }

        let records = history
            .values()
            .filter(|entry| entry.state == RecordState::Pending)
            .map(|entry| {
                let crc = damaris_format::crc32(&encode_header(entry.seq, &entry.payload));
                let record = JournalRecord {
                    seq: entry.seq,
                    epoch: 0,
                    crc,
                    payload: entry.payload.clone(),
                    state: RecordState::Pending,
                };
                (entry.seq, record)
            })
            .collect();
        let fenced_mask = fenced
            .iter()
            .filter(|source| **source < FAST_SOURCES)
            .fold(0, |mask, source| mask | 1u64 << source);
        let journal = EventJournal {
            next_seq: CachePadded::new(AtomicU64::new(next_seq)),
            inner: CachePadded::new(Mutex::new(JournalInner {
                records,
                fenced,
                store: Some(file),
            })),
            fenced_mask: CachePadded::new(AtomicU64::new(fenced_mask)),
            stored: true,
            ..EventJournal::default()
        };
        Ok((journal, history.into_values().collect()))
    }

    /// Journals a notification and returns its sequence number. Called by
    /// clients *before* the matching queue push. Fails if the source has
    /// been fenced ([`fence`](Self::fence)) — the caller must abandon the
    /// operation and surface a `ClientFenced` error instead of pushing.
    ///
    /// This is the mutex path, for control-plane record kinds and
    /// dynamic-layout writes; static writes go through
    /// [`append_write`](Self::append_write).
    // ANALYZE: cold — control-plane record kinds (User/EndIteration/Abandon, dynamic Write) take the mutex by design
    pub fn append(&self, epoch: u32, payload: JournalPayload) -> Result<u64, Fenced> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.append_with_seq(seq, epoch, payload)
    }

    fn append_with_seq(&self, seq: u64, epoch: u32, payload: JournalPayload) -> Result<u64, Fenced> {
        let source = payload.source();
        let header = encode_header(seq, &payload);
        let record = JournalRecord {
            seq,
            epoch,
            crc: damaris_format::crc32(&header),
            payload,
            state: RecordState::Pending,
        };
        let mut inner = self.inner.lock();
        self.drain_staged(&mut inner);
        if inner.fenced.contains(&source) {
            return Err(Fenced { source });
        }
        if let Some(file) = &mut inner.store {
            store_frame(file, &header);
        }
        inner.records.insert(seq, record);
        Ok(seq)
    }

    /// Journals a static-layout write **without locking or allocating** —
    /// the jitter-free counterpart of [`append`](Self::append) on the
    /// client `write()` path.
    ///
    /// Protocol (the fence race is the whole game):
    ///
    /// 1. check the fence bit — cheap early out;
    /// 2. claim a `FREE` staging slot by seq-tagged compare-exchange;
    /// 3. fill the record, publish `READY` with a SeqCst store;
    /// 4. re-check the fence bit with a SeqCst load. [`fence`] sets the
    ///    bit (SeqCst RMW) *before* scanning the slab, so in the SeqCst
    ///    total order either our `READY` precedes the scan (the fence
    ///    collects the record and hands it to the sweeper) or the scan
    ///    precedes our re-check (we see the bit). If we see the bit we
    ///    try to cancel `READY → FREE`; losing that race means the fence
    ///    collected it — both outcomes return `Err(Fenced)` and the
    ///    record is cancelled through the claim lattice, exactly like a
    ///    mutex-path append that lost to the fence.
    ///
    /// Slab exhaustion, sources above the fence-bit range and a journal
    /// with a file store fall back to the mutex path — correctness is
    /// identical, only latency differs.
    // ANALYZE: hot
    #[allow(clippy::too_many_arguments)]
    pub fn append_write(
        &self,
        epoch: u32,
        variable_id: u32,
        iteration: u32,
        source: u32,
        offset: usize,
        len: usize,
        data_crc: u32,
    ) -> Result<u64, Fenced> {
        // Relaxed: the counter only hands out unique tickets; record
        // visibility is ordered by the slot state below (or the mutex).
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        if self.stored || source >= FAST_SOURCES {
            return self.append_write_slow(seq, epoch, variable_id, iteration, source, offset, len, data_crc);
        }
        let bit = 1u64 << source;
        // seqcst: fence-vs-append is a store-buffering (Dekker) pattern —
        // this early check only saves work; the re-check after publish is
        // the one the argument rests on, and both must be in the same
        // total order as fence()'s fetch_or + slab scan.
        if self.fenced_mask.load(Ordering::SeqCst) & bit != 0 {
            return Err(Fenced { source });
        }
        let mut rec = FixedWriteRecord {
            variable_id,
            iteration,
            source,
            data_crc,
            offset: offset as u64,
            len: len as u64,
            epoch,
            crc: 0,
        };
        rec.crc = damaris_format::crc32(&encode_fixed_write_header(seq, &rec));
        for slot in self.staging.iter() {
            // Relaxed probe: the claim CAS below re-validates the word.
            let cur = slot.state.load(Ordering::Relaxed);
            if cur & STATE_TAG_MASK != SLOT_FREE {
                continue;
            }
            // Acquire: pairs with the drainer's Release store of FREE so
            // our overwrite of the cell happens-after its copy-out.
            if slot
                .state
                .compare_exchange(cur, pack(SLOT_CLAIMED, seq), Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            // SAFETY: the CAS above made us the slot's unique owner; no
            // other thread touches the cell until we publish READY.
            slot.rec.with_mut(|p| unsafe { *p = rec });
            // seqcst: publish half of the Dekker pattern — must be
            // ordered before the fence-bit re-check below in the global
            // SeqCst order so a racing fence() either sees READY in its
            // scan or its bit is seen by our re-check. Release is not
            // enough: store-buffering allows both sides to miss.
            slot.state.store(pack(SLOT_READY, seq), Ordering::SeqCst);
            // seqcst: re-check half of the Dekker pattern (see above).
            if self.fenced_mask.load(Ordering::SeqCst) & bit != 0 {
                // Cancel if the fence's drain has not collected the slot;
                // if the CAS fails the fence owns the record and will
                // cancel it through the claim lattice. AcqRel success:
                // release our cell write, acquire nothing in particular.
                let _ = slot.state.compare_exchange(
                    pack(SLOT_READY, seq),
                    pack(SLOT_FREE, seq),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
                return Err(Fenced { source });
            }
            return Ok(seq);
        }
        self.append_write_slow(seq, epoch, variable_id, iteration, source, offset, len, data_crc)
    }

    /// Mutex fallback for [`append_write`](Self::append_write): slab full,
    /// source outside the fence-bit range, or a file store to write to.
    // ANALYZE: cold — overflow fallback takes the mutex by design; bounded jitter, correctness identical
    #[cold]
    #[allow(clippy::too_many_arguments)]
    fn append_write_slow(
        &self,
        seq: u64,
        epoch: u32,
        variable_id: u32,
        iteration: u32,
        source: u32,
        offset: usize,
        len: usize,
        data_crc: u32,
    ) -> Result<u64, Fenced> {
        self.append_with_seq(seq, epoch, JournalPayload::Write {
            variable_id,
            iteration,
            source,
            offset,
            len,
            dynamic_layout: None,
            data_crc,
        })
    }

    /// Folds every `READY` staging slot into the record map. Called with
    /// the journal lock held by **every** mutex entry point, so staged
    /// records are visible to any observer that could act on them.
    fn drain_staged(&self, inner: &mut JournalInner) {
        for slot in self.staging.iter() {
            let cur = slot.state.load(Ordering::Relaxed);
            if cur & STATE_TAG_MASK != SLOT_READY {
                continue;
            }
            // Acquire: pairs with the appender's READY publish so the
            // record bytes are visible; the CAS also arbitrates against
            // the appender's own cancel (exactly one of us wins).
            if slot
                .state
                .compare_exchange(
                    cur,
                    (cur & !STATE_TAG_MASK) | SLOT_DRAINING,
                    Ordering::Acquire,
                    Ordering::Relaxed,
                )
                .is_err()
            {
                continue;
            }
            let seq = cur >> 2;
            // SAFETY: DRAINING excludes both slot reuse and the
            // appender's cancel CAS; the cell is ours to read.
            let rec = slot.rec.with(|p| unsafe { *p });
            if inner.fenced.contains(&rec.source) {
                // The source was fenced *before* this drain. fence() sets
                // its bit and scans the slab in one critical section
                // before marking the source fenced here, so any record it
                // could collect, it did; a staged record still visible
                // from an already-fenced source was published by an
                // appender that observed the fence bit at its re-check
                // and returned `Err` — we won its cancel race, so we
                // complete the cancellation by dropping the record
                // instead of inserting a ghost nobody would ever claim.
                slot.state.store(pack(SLOT_FREE, seq), Ordering::Release);
                continue;
            }
            inner.records.insert(seq, JournalRecord {
                seq,
                epoch: rec.epoch,
                crc: rec.crc,
                payload: JournalPayload::Write {
                    variable_id: rec.variable_id,
                    iteration: rec.iteration,
                    source: rec.source,
                    offset: rec.offset as usize,
                    len: rec.len as usize,
                    dynamic_layout: None,
                    data_crc: rec.data_crc,
                },
                state: RecordState::Pending,
            });
            // Release: hands the slot back; pairs with a future
            // appender's Acquire claim CAS.
            slot.state.store(pack(SLOT_FREE, seq), Ordering::Release);
        }
    }

    /// Fences `source` — all further appends from it fail — and returns
    /// the still-`Pending` records of that source, in sequence order, so
    /// the sweeper can cancel them through the [`claim`](Self::claim)
    /// lattice (re-adopting `Write`/`Abandon` segments by their journaled
    /// coordinates). One critical section: no append can land between the
    /// fence and the collection.
    pub fn fence(&self, source: u32) -> Vec<(u64, JournalPayload)> {
        if source < FAST_SOURCES {
            // seqcst: fence half of the Dekker pattern — the bit must be
            // set in the global SeqCst order *before* the slab scan below
            // (inside drain_staged) so a racing append_write either gets
            // its READY collected here or observes the bit at its
            // re-check. See append_write for the full argument.
            self.fenced_mask.fetch_or(1u64 << source, Ordering::SeqCst);
        }
        let mut inner = self.inner.lock();
        self.drain_staged(&mut inner);
        if inner.fenced.insert(source) {
            if let Some(file) = &mut inner.store {
                let mut body = marker(0, TAG_FENCE);
                body.extend_from_slice(&source.to_le_bytes());
                store_frame(file, &body);
            }
        }
        inner
            .records
            .values()
            .filter(|rec| rec.state == RecordState::Pending && rec.payload.source() == source)
            .map(|rec| (rec.seq, rec.payload.clone()))
            .collect()
    }

    /// Whether `source` has been fenced.
    pub fn is_fenced(&self, source: u32) -> bool {
        self.inner.lock().fenced.contains(&source)
    }

    /// Claims a sequence number for processing: `Pending → Resident`,
    /// exactly once. Any other state — including a record already dropped
    /// by [`compact`](Self::compact) — is `Stale`, and the caller must
    /// discard the event without side effects.
    pub fn claim(&self, seq: u64) -> Claim {
        let mut inner = self.inner.lock();
        self.drain_staged(&mut inner);
        match inner.records.get_mut(&seq) {
            Some(rec) if rec.state == RecordState::Pending => {
                rec.state = RecordState::Resident;
                Claim::Fresh
            }
            _ => Claim::Stale,
        }
    }

    /// Marks a record's side effects durable. Idempotent; unknown
    /// sequence numbers (already compacted) are ignored.
    pub fn mark_applied(&self, seq: u64) {
        let mut inner = self.inner.lock();
        self.drain_staged(&mut inner);
        let JournalInner { records, store, .. } = &mut *inner;
        if let Some(rec) = records.get_mut(&seq) {
            if rec.state != RecordState::Applied {
                if let Some(file) = store {
                    store_frame(file, &marker(seq, TAG_APPLIED));
                }
            }
            rec.state = RecordState::Applied;
        }
    }

    /// Snapshot of every non-applied record in sequence order, for a
    /// respawned server to replay. CRC-corrupted records are skipped; the
    /// second element counts them.
    pub fn replay_snapshot(&self) -> (Vec<ReplayEntry>, usize) {
        let mut inner = self.inner.lock();
        self.drain_staged(&mut inner);
        let mut entries = Vec::new();
        let mut corrupt = 0;
        for rec in inner.records.values() {
            if rec.state == RecordState::Applied {
                continue;
            }
            if damaris_format::crc32(&encode_header(rec.seq, &rec.payload)) != rec.crc {
                corrupt += 1;
                continue;
            }
            entries.push(ReplayEntry {
                seq: rec.seq,
                state: rec.state,
                payload: rec.payload.clone(),
            });
        }
        (entries, corrupt)
    }

    /// Drops applied records; returns how many were removed.
    pub fn compact(&self) -> usize {
        let mut inner = self.inner.lock();
        self.drain_staged(&mut inner);
        let before = inner.records.len();
        inner.records.retain(|_, rec| rec.state != RecordState::Applied);
        before - inner.records.len()
    }

    /// Records currently retained (any state), staged ones included.
    pub fn len(&self) -> usize {
        let mut inner = self.inner.lock();
        self.drain_staged(&mut inner);
        inner.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Addresses of `[next_seq, inner]`: the word clients write per append
    /// and the lock the dedicated core takes per event.
    #[cfg(test)]
    pub(crate) fn word_addrs(&self) -> [usize; 2] {
        [
            &*self.next_seq as *const AtomicU64 as usize,
            &*self.inner as *const Mutex<JournalInner> as usize,
        ]
    }

    /// Test hook: flip a record's stored CRC so replay sees corruption.
    #[cfg(test)]
    fn corrupt_for_test(&self, seq: u64) {
        let mut inner = self.inner.lock();
        self.drain_staged(&mut inner);
        if let Some(rec) = inner.records.get_mut(&seq) {
            rec.crc ^= 0xdead_beef;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_payload(source: u32) -> JournalPayload {
        JournalPayload::Write {
            variable_id: 1,
            iteration: 0,
            source,
            offset: 128,
            len: 64,
            dynamic_layout: None,
            data_crc: 0,
        }
    }

    #[test]
    fn seqnos_are_monotonic_and_claims_are_exactly_once() {
        let j = EventJournal::new();
        let a = j.append(0, write_payload(0)).unwrap();
        let b = j
            .append(0, JournalPayload::EndIteration {
                iteration: 0,
                source: 0,
            })
            .unwrap();
        assert!(b > a);
        assert_eq!(j.claim(a), Claim::Fresh);
        assert_eq!(j.claim(a), Claim::Stale);
        assert_eq!(j.claim(b), Claim::Fresh);
        // Unknown (never appended / compacted) seqnos are stale too.
        assert_eq!(j.claim(b + 1000), Claim::Stale);
    }

    #[test]
    fn replay_skips_applied_and_orders_by_seq() {
        let j = EventJournal::new();
        let a = j.append(0, write_payload(0)).unwrap();
        let b = j.append(0, write_payload(1)).unwrap();
        let c = j
            .append(0, JournalPayload::User {
                name: "snap".into(),
                iteration: 0,
                source: 1,
            })
            .unwrap();
        j.claim(a);
        j.mark_applied(a);
        j.claim(b); // resident, not applied: must replay
        let (entries, corrupt) = j.replay_snapshot();
        assert_eq!(corrupt, 0);
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![b, c]);
        assert_eq!(entries[0].state, RecordState::Resident);
        assert_eq!(entries[1].state, RecordState::Pending);
    }

    #[test]
    fn corrupt_records_are_skipped_not_replayed() {
        let j = EventJournal::new();
        let a = j.append(0, write_payload(0)).unwrap();
        let b = j.append(0, write_payload(1)).unwrap();
        j.corrupt_for_test(a);
        let (entries, corrupt) = j.replay_snapshot();
        assert_eq!(corrupt, 1);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].seq, b);
    }

    #[test]
    fn compact_drops_only_applied() {
        let j = EventJournal::new();
        let a = j.append(0, write_payload(0)).unwrap();
        let b = j.append(0, write_payload(1)).unwrap();
        j.claim(a);
        j.mark_applied(a);
        assert_eq!(j.compact(), 1);
        assert_eq!(j.len(), 1);
        // The compacted record stays at-most-once.
        assert_eq!(j.claim(a), Claim::Stale);
        assert_eq!(j.claim(b), Claim::Fresh);
    }

    #[test]
    fn fence_rejects_appends_and_collects_pending() {
        let j = EventJournal::new();
        let a = j.append(0, write_payload(3)).unwrap();
        let b = j.append(0, write_payload(3)).unwrap();
        let other = j.append(0, write_payload(1)).unwrap();
        // One record of the doomed client is already claimed (resident):
        // the fence only hands back the still-pending ones.
        assert_eq!(j.claim(a), Claim::Fresh);
        assert!(!j.is_fenced(3));
        let pending = j.fence(3);
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, b);
        assert!(matches!(pending[0].1, JournalPayload::Write { source: 3, .. }));
        assert!(j.is_fenced(3));
        // Fenced source can no longer journal; others can.
        assert!(matches!(j.append(0, write_payload(3)), Err(Fenced { source: 3 })));
        assert!(j.append(0, write_payload(1)).is_ok());
        // Fencing twice is idempotent (the pending set may have shrunk).
        assert_eq!(j.claim(b), Claim::Fresh);
        assert!(j.fence(3).is_empty());
        // The unrelated client's record is untouched.
        assert_eq!(j.claim(other), Claim::Fresh);
    }

    #[test]
    fn fixed_header_is_byte_identical_to_dynamic_encoding() {
        let rec = FixedWriteRecord {
            variable_id: 7,
            iteration: 3,
            source: 42,
            data_crc: 0xdead_beef,
            offset: 4096,
            len: 1024,
            epoch: 9,
            crc: 0,
        };
        let payload = JournalPayload::Write {
            variable_id: 7,
            iteration: 3,
            source: 42,
            offset: 4096,
            len: 1024,
            dynamic_layout: None,
            data_crc: 0xdead_beef,
        };
        let fixed = encode_fixed_write_header(0x0123_4567_89ab, &rec);
        let dynamic = encode_header(0x0123_4567_89ab, &payload);
        assert_eq!(&fixed[..], &dynamic[..]);
    }

    #[test]
    fn fast_append_is_visible_claimable_and_crc_clean() {
        let j = EventJournal::new();
        let seq = j.append_write(5, 7, 3, 2, 4096, 1024, 0xabcd).unwrap();
        // Any mutex entry point folds the staged record in.
        assert_eq!(j.len(), 1);
        let (entries, corrupt) = j.replay_snapshot();
        assert_eq!(corrupt, 0, "staged record must replay with a valid CRC");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].seq, seq);
        assert!(matches!(
            entries[0].payload,
            JournalPayload::Write {
                variable_id: 7,
                iteration: 3,
                source: 2,
                offset: 4096,
                len: 1024,
                dynamic_layout: None,
                data_crc: 0xabcd,
            }
        ));
        assert_eq!(j.claim(seq), Claim::Fresh);
        assert_eq!(j.claim(seq), Claim::Stale);
    }

    #[test]
    fn fast_append_after_fence_is_rejected_without_leaking() {
        let j = EventJournal::new();
        j.fence(2);
        assert!(matches!(j.append_write(0, 1, 0, 2, 0, 8, 0), Err(Fenced { source: 2 })));
        // No record leaked into the map, and no staging slot is stuck.
        assert!(j.is_empty());
        // Other sources still append lock-free.
        assert!(j.append_write(0, 1, 0, 3, 0, 8, 0).is_ok());
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn high_source_overflow_path_works_and_respects_fence() {
        let j = EventJournal::new();
        let seq = j.append_write(0, 1, 0, 200, 0, 8, 0).unwrap();
        assert_eq!(j.claim(seq), Claim::Fresh);
        j.fence(200);
        assert!(matches!(
            j.append_write(0, 1, 0, 200, 0, 8, 0),
            Err(Fenced { source: 200 })
        ));
    }

    #[test]
    fn slab_exhaustion_overflows_to_the_mutex_without_loss() {
        let j = EventJournal::new();
        // One more append than staging slots, with no intervening drain:
        // the last one must take the mutex path, and none may be lost.
        let seqs: Vec<u64> = (0..65)
            .map(|i| j.append_write(0, 1, 0, i % 8, 0, 8, 0).unwrap())
            .collect();
        assert_eq!(j.len(), 65);
        for seq in seqs {
            assert_eq!(j.claim(seq), Claim::Fresh);
        }
    }

    #[test]
    fn concurrent_fast_appends_and_fences_never_lose_or_leak_records() {
        use std::sync::atomic::{AtomicBool, Ordering as StdOrdering};
        let j = std::sync::Arc::new(EventJournal::new());
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0u32..4)
            .map(|source| {
                let j = std::sync::Arc::clone(&j);
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut ok = Vec::new();
                    while !stop.load(StdOrdering::Relaxed) {
                        match j.append_write(0, 1, 0, source, 0, 8, 0) {
                            Ok(seq) => ok.push(seq),
                            Err(Fenced { .. }) => break,
                        }
                    }
                    ok
                })
            })
            .collect();
        // Let the writers run, then fence two of them mid-flight.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let pending_of_fenced: Vec<(u64, JournalPayload)> =
            [0u32, 1].iter().flat_map(|&s| j.fence(s)).collect();
        std::thread::sleep(std::time::Duration::from_millis(5));
        stop.store(true, StdOrdering::Relaxed);
        let ok_seqs: Vec<Vec<u64>> = writers.into_iter().map(|h| h.join().unwrap()).collect();
        // Every seq whose append returned Ok must be claimable exactly once
        // — a fence may not have eaten an acknowledged record.
        for seq in ok_seqs.iter().flatten() {
            assert_eq!(j.claim(*seq), Claim::Fresh, "acknowledged seq {seq} lost");
        }
        // Conversely, every still-pending record in the journal is either
        // acknowledged or was handed to the fence for cancellation: a
        // cancelled fast append may not linger as a claimable ghost.
        let acknowledged: std::collections::BTreeSet<u64> =
            ok_seqs.iter().flatten().copied().collect();
        let fenced_pending: std::collections::BTreeSet<u64> =
            pending_of_fenced.iter().map(|(s, _)| *s).collect();
        let (entries, corrupt) = j.replay_snapshot();
        assert_eq!(corrupt, 0);
        for e in &entries {
            assert!(
                acknowledged.contains(&e.seq) || fenced_pending.contains(&e.seq),
                "seq {} in journal but neither acknowledged nor fence-collected",
                e.seq
            );
        }
    }

    fn store_path(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("damaris-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn end(iteration: u32, source: u32) -> JournalPayload {
        JournalPayload::EndIteration { iteration, source }
    }

    #[test]
    fn reopen_restores_pending_applied_and_fenced_state_and_the_next_seq() {
        let path = store_path("reopen");
        let (j, history) = EventJournal::open(&path).unwrap();
        assert!(history.is_empty());
        let a = j.append(0, write_payload(0)).unwrap();
        let b = j.append(0, write_payload(1)).unwrap();
        let c = j.append(0, end(0, 2)).unwrap();
        // a: done. b: claimed, which a file does not record. c: untouched.
        j.claim(a);
        j.mark_applied(a);
        j.mark_applied(a); // idempotent: one marker
        j.claim(b);
        j.fence(2);
        drop(j);

        let (j, history) = EventJournal::open(&path).unwrap();
        let states: Vec<_> = history.iter().map(|e| (e.seq, e.state)).collect();
        use RecordState::{Applied, Pending};
        assert_eq!(states, [(a, Applied), (b, Pending), (c, Pending)]);
        assert_eq!(history[2].payload, end(0, 2));
        // The journal holds what is left to do, and claims start over.
        let (entries, corrupt) = j.replay_snapshot();
        assert_eq!(corrupt, 0);
        assert_eq!(entries.iter().map(|e| e.seq).collect::<Vec<_>>(), [b, c]);
        assert_eq!(j.claim(a), Claim::Stale);
        assert_eq!(j.claim(b), Claim::Fresh);
        // The fence holds on both append paths; seqs go on from the file's.
        assert!(j.is_fenced(2) && !j.is_fenced(1));
        assert_eq!(j.append(1, end(1, 2)), Err(Fenced { source: 2 }));
        assert_eq!(j.append_write(1, 1, 0, 2, 0, 8, 0), Err(Fenced { source: 2 }));
        assert_eq!(j.append(1, end(1, 0)), Ok(c + 3));
        j.mark_applied(b);
        drop(j);

        let (_, history) = EventJournal::open(&path).unwrap();
        let states: Vec<_> = history.iter().map(|e| (e.seq, e.state)).collect();
        assert_eq!(
            states,
            [(a, Applied), (b, Applied), (c, Pending), (c + 3, Pending)]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_torn_tail_is_truncated_and_appends_resume_on_a_frame_boundary() {
        let path = store_path("torn");
        let (j, _) = EventJournal::open(&path).unwrap();
        j.append(0, write_payload(0)).unwrap();
        let intact = std::fs::metadata(&path).unwrap().len();
        j.append(0, write_payload(1)).unwrap();
        drop(j);
        // A crash mid-append: the last frame is cut short.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = File::options().write(true).open(&path).unwrap();
        file.set_len(len - 5).unwrap();

        let (j, history) = EventJournal::open(&path).unwrap();
        assert_eq!(history.len(), 1, "the intact prefix survives");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact);
        let c = j.append(0, write_payload(2)).unwrap();
        drop(j);
        let (_, history) = EventJournal::open(&path).unwrap();
        let sources: Vec<_> = history.iter().map(|e| e.payload.source()).collect();
        assert_eq!(sources, [0, 2]);
        assert_eq!(history[1].seq, c);

        // A frame whose CRC fails ends the scan the same way.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[intact as usize + 12] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, history) = EventJournal::open(&path).unwrap();
        assert_eq!(history.len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn an_unknown_frame_kind_with_a_valid_crc_is_skipped_not_fatal() {
        let path = store_path("skew");
        let (j, _) = EventJournal::open(&path).unwrap();
        j.append(0, write_payload(0)).unwrap();
        store_frame(
            j.inner.lock().store.as_mut().unwrap(),
            &marker(77, 200), // a kind some later version writes
        );
        let b = j.append(0, write_payload(1)).unwrap();
        drop(j);
        let (j, history) = EventJournal::open(&path).unwrap();
        assert_eq!(history.len(), 2, "the scan went on past the unknown frame");
        assert_eq!(history[1].seq, b);
        assert_eq!(j.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn decode_inverts_encode_header_for_every_payload_kind() {
        let dynamic = JournalPayload::Write {
            variable_id: 3,
            iteration: 9,
            source: 70,
            offset: 1 << 33,
            len: 24,
            dynamic_layout: Some(Layout::new(DataType::F64, &[3, 1])),
            data_crc: 0xfeed_f00d,
        };
        let scalar = JournalPayload::Write {
            variable_id: 0,
            iteration: 0,
            source: 0,
            offset: 0,
            len: 4,
            dynamic_layout: Some(Layout::scalar(DataType::I32)),
            data_crc: 1,
        };
        let user = JournalPayload::User {
            name: "snapshot".into(),
            iteration: 4,
            source: u32::MAX,
        };
        let abandon = JournalPayload::Abandon {
            iteration: 2,
            source: 1,
            offset: 4096,
            len: 100,
        };
        for payload in [write_payload(5), dynamic, scalar, user, end(7, 3), abandon] {
            let body = encode_header(0x0123_4567_89ab, &payload);
            assert_eq!(
                decode(&body),
                Some(Stored::Record(0x0123_4567_89ab, payload))
            );
        }
        // A fixed-size body cut short or run long is refused whole (the
        // frame's CRC, not the decoder, is what vouches for a name).
        let body = encode_header(1, &end(7, 3));
        assert_eq!(decode(&body[..body.len() - 1]), None);
        assert_eq!(decode(&[&body[..], &[0]].concat()), None);
    }

    #[test]
    fn with_a_store_append_write_takes_the_journalled_path() {
        let path = store_path("append-write");
        let (j, _) = EventJournal::open(&path).unwrap();
        let seq = j.append_write(5, 7, 3, 2, 4096, 1024, 0xabcd).unwrap();
        // Not staged for a later drain: in the file before the call returns.
        assert!(j
            .staging
            .iter()
            .all(|slot| slot.state.load(Ordering::Relaxed) & STATE_TAG_MASK == SLOT_FREE));
        let (_, history) = EventJournal::open(&path).unwrap();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].seq, seq);
        assert_eq!(history[0].payload, JournalPayload::Write {
            variable_id: 7,
            iteration: 3,
            source: 2,
            offset: 4096,
            len: 1024,
            dynamic_layout: None,
            data_crc: 0xabcd,
        });
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn data_crc_is_integrity_protected() {
        // Two Write payloads differing only in data_crc must have
        // different header CRCs — the end-to-end checksum is itself
        // covered by the journal's integrity guard.
        let j = EventJournal::new();
        let a = j
            .append(0, JournalPayload::Write {
                variable_id: 1,
                iteration: 0,
                source: 0,
                offset: 0,
                len: 8,
                dynamic_layout: None,
                data_crc: 0x1111,
            })
            .unwrap();
        let (entries, _) = j.replay_snapshot();
        let rec_crc = |seq: u64| {
            entries
                .iter()
                .find(|e| e.seq == seq)
                .map(|e| damaris_format::crc32(&encode_header(e.seq, &e.payload)))
                .unwrap()
        };
        let crc_a = rec_crc(a);
        // Same seq, same fields, different data_crc → different header CRC.
        let altered = JournalPayload::Write {
            variable_id: 1,
            iteration: 0,
            source: 0,
            offset: 0,
            len: 8,
            dynamic_layout: None,
            data_crc: 0x2222,
        };
        assert_ne!(crc_a, damaris_format::crc32(&encode_header(a, &altered)));
    }
}
