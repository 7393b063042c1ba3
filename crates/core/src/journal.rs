//! Write-ahead journal of a node's client notifications.
//!
//! When the dedicated core dies, the shared buffer and this journal
//! survive it — in [`crate::node::NodeShared`] when the core is a thread,
//! in the mapping and the journal's file when it is a process — but the
//! core's in-flight state — its metadata store, its end-of-iteration
//! counts — dies with its stack. The journal is what lets the next
//! incarnation reconstruct that state:
//!
//! * clients only post; the dedicated core journals each client-originated
//!   event (`Write`, `User`, `EndIteration`, `Abandon`) as it takes it from
//!   its source — the queue's pop, or a client's notice ring in the
//!   process node's mapping —
//!   and *claims* the record at once, before it applies the event
//!   ([`crate::server::DedicatedCore::admit`]); it marks the record
//!   *applied* once the side effects are durable (segment released,
//!   iteration fired);
//! * a respawned core replays every non-applied record in sequence order,
//!   re-adopting the shared-memory segments the dead incarnation had
//!   resident. What the dead core never took is still in the queue, and
//!   is journalled when the successor takes it: an event is popped once.
//!
//! Records carry a CRC over their header (computed with the same
//! `damaris-format` CRC-32 the SDF files use); a corrupted record is
//! skipped at replay rather than poisoning the new epoch.
//!
//! # Invariants
//!
//! * Sequence numbers are assigned by one counter and never reused: the
//!   journal's iteration order *is* the order the core took the events in,
//!   and per client it matches queue order.
//! * A record moves `Pending → Resident → Applied`, never backwards; only
//!   `claim` performs `Pending → Resident` and it succeeds exactly once.
//! * A fenced source journals nothing more: [`EventJournal::append`]
//!   refuses it, and the core drops the event.
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
//! needs: `Resident` only tells a replay what the dead core had claimed
//! inside one process, and a reopened journal has no such core — what is
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

use damaris_format::{DataType, Layout};
use damaris_shm::sync::{CachePadded, Mutex};
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
    /// shared buffer for re-adoption after a crash.
    Write {
        variable_id: u32,
        iteration: u32,
        source: u32,
        offset: usize,
        len: usize,
        dynamic_layout: Option<Layout>,
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
    /// not release shared memory itself — its ring's reclamation is
    /// FIFO and single-consumer — so it posts the segment, and the
    /// dedicated core releases it in order at the iteration's flush.
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

    /// The iteration the notification belongs to.
    pub fn iteration(&self) -> u32 {
        match self {
            JournalPayload::Write { iteration, .. }
            | JournalPayload::User { iteration, .. }
            | JournalPayload::EndIteration { iteration, .. }
            | JournalPayload::Abandon { iteration, .. } => *iteration,
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
    /// Appended, not yet claimed. The core claims what it appends at
    /// once, so only a journal reopened from its file holds pending
    /// records — all it had not applied — until replay claims them.
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
    /// Heartbeat epoch of the core that appended it. Diagnostic only.
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
    /// The sequence number the next append takes.
    next_seq: u64,
    records: BTreeMap<u64, JournalRecord>,
    /// Sources whose leases were revoked: appends from them are rejected.
    fenced: BTreeSet<u32>,
    /// The file every record, applied marker and fence is also appended
    /// to; `None` on the threaded node.
    store: Option<File>,
}

/// The write-ahead journal of a node's events, written by its (current)
/// dedicated core. The lock it takes per event has a block of its own:
/// beside the words clients read per call, it would cost them a miss each.
#[derive(Default)]
pub struct EventJournal {
    inner: CachePadded<Mutex<JournalInner>>,
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EventJournal(next_seq={})", self.inner.lock().next_seq)
    }
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
        } => {
            buf.push(0);
            buf.extend_from_slice(&variable_id.to_le_bytes());
            buf.extend_from_slice(&iteration.to_le_bytes());
            buf.extend_from_slice(&source.to_le_bytes());
            buf.extend_from_slice(&(*offset as u64).to_le_bytes());
            buf.extend_from_slice(&(*len as u64).to_le_bytes());
            // A static write ends here (37 bytes); a dynamic one carries
            // its shape.
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
        let journal = EventJournal {
            inner: CachePadded::new(Mutex::new(JournalInner {
                next_seq,
                records,
                fenced,
                store: Some(file),
            })),
        };
        Ok((journal, history.into_values().collect()))
    }

    /// Journals a notification and returns its sequence number, or fails
    /// if the source has been fenced ([`fence`](Self::fence)): the core
    /// refuses the event instead of applying it.
    pub fn append(&self, epoch: u32, payload: JournalPayload) -> Result<u64, Fenced> {
        let source = payload.source();
        let mut inner = self.inner.lock();
        if inner.fenced.contains(&source) {
            return Err(Fenced { source });
        }
        let seq = inner.next_seq;
        let header = encode_header(seq, &payload);
        if let Some(file) = &mut inner.store {
            store_frame(file, &header);
        }
        inner.next_seq += 1;
        inner.records.insert(seq, JournalRecord {
            seq,
            epoch,
            crc: damaris_format::crc32(&header),
            payload,
            state: RecordState::Pending,
        });
        Ok(seq)
    }

    /// [`append`](Self::append) of a static-layout write, by its fields.
    /// `_data_crc` is unused: a write carries no checksum. It stays until
    /// the benchmark's `core.journal.append_ns` row, which passes one, is
    /// retired.
    #[allow(clippy::too_many_arguments)]
    pub fn append_write(
        &self,
        epoch: u32,
        variable_id: u32,
        iteration: u32,
        source: u32,
        offset: usize,
        len: usize,
        _data_crc: u32,
    ) -> Result<u64, Fenced> {
        self.append(epoch, JournalPayload::Write {
            variable_id,
            iteration,
            source,
            offset,
            len,
            dynamic_layout: None,
        })
    }

    /// Fences `source`: all further appends from it fail. Idempotent.
    pub fn fence(&self, source: u32) {
        let mut inner = self.inner.lock();
        if inner.fenced.insert(source) {
            if let Some(file) = &mut inner.store {
                let mut body = marker(0, TAG_FENCE);
                body.extend_from_slice(&source.to_le_bytes());
                store_frame(file, &body);
            }
        }
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
        let inner = self.inner.lock();
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
        let before = inner.records.len();
        inner.records.retain(|_, rec| rec.state != RecordState::Applied);
        before - inner.records.len()
    }

    /// Records currently retained (any state).
    pub fn len(&self) -> usize {
        self.inner.lock().records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Test hook: flip a record's stored CRC so replay sees corruption.
    #[cfg(test)]
    fn corrupt_for_test(&self, seq: u64) {
        if let Some(rec) = self.inner.lock().records.get_mut(&seq) {
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
    fn fence_rejects_appends_from_that_source_only() {
        let j = EventJournal::new();
        let a = j.append(0, write_payload(3)).unwrap();
        assert_eq!(j.claim(a), Claim::Fresh);
        assert!(!j.is_fenced(3));
        j.fence(3);
        j.fence(3); // idempotent
        assert!(j.is_fenced(3));
        // The fenced source journals nothing more, on either entry point,
        // and a refusal takes no sequence number; others append on.
        assert!(matches!(j.append(0, write_payload(3)), Err(Fenced { source: 3 })));
        assert_eq!(j.append_write(0, 1, 0, 3, 0, 8, 0), Err(Fenced { source: 3 }));
        assert_eq!(j.append(0, write_payload(1)), Ok(a + 1));
        // What it journalled before the fence stays the core's.
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn append_write_is_append_of_a_static_write() {
        let j = EventJournal::new();
        let seq = j.append_write(5, 7, 3, 2, 4096, 1024, 0xabcd).unwrap();
        let (entries, corrupt) = j.replay_snapshot();
        assert_eq!(corrupt, 0);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].seq, seq);
        assert_eq!(entries[0].payload, JournalPayload::Write {
            variable_id: 7,
            iteration: 3,
            source: 2,
            offset: 4096,
            len: 1024,
            dynamic_layout: None,
        });
        assert_eq!(j.claim(seq), Claim::Fresh);
        assert_eq!(j.claim(seq), Claim::Stale);
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
        assert_eq!(j.append(1, end(1, 0)), Ok(c + 1));
        j.mark_applied(b);
        drop(j);

        let (_, history) = EventJournal::open(&path).unwrap();
        let states: Vec<_> = history.iter().map(|e| (e.seq, e.state)).collect();
        assert_eq!(
            states,
            [(a, Applied), (b, Applied), (c, Pending), (c + 1, Pending)]
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
        };
        let scalar = JournalPayload::Write {
            variable_id: 0,
            iteration: 0,
            source: 0,
            offset: 0,
            len: 4,
            dynamic_layout: Some(Layout::scalar(DataType::I32)),
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
    fn with_a_store_append_write_is_in_the_file_when_it_returns() {
        let path = store_path("append-write");
        let (j, _) = EventJournal::open(&path).unwrap();
        let seq = j.append_write(5, 7, 3, 2, 4096, 1024, 0xabcd).unwrap();
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
        });
        std::fs::remove_file(&path).unwrap();
    }
}
