//! The DTRC binary trace format: fixed-size event records with CRC-guarded
//! blocks, written by the observability layer (`damaris-obs`) and read back
//! by `trace-analyze`.
//!
//! Design goals, in order:
//!
//! 1. **Fixed-size records** ([`TraceRecord`], 40 bytes little-endian) so
//!    the in-memory trace ring can copy them with one `memcpy` and the
//!    analyzer can seek/merge without parsing state.
//! 2. **Crash tolerance** — the dedicated core flushes blocks between
//!    iterations; a node that dies mid-flush leaves a truncated tail. The
//!    reader returns every intact block and reports `clean_close = false`
//!    instead of erroring (same philosophy as the SDF recovery scan).
//! 3. **Integrity** — each block carries a CRC32 over its payload; a torn
//!    or bit-flipped block is dropped and counted, never silently decoded.
//!
//! ## On-disk layout
//!
//! ```text
//! [header 16B][block]...[block][trailer]
//! header  = "DTRC" | version u16 | record_size u16 | reserved [u8;8]
//! block   = count u32 (< SENTINEL) | crc32 u32 | count × 40B records
//! trailer = SENTINEL u32 | crc32 u32 | records u64 | dropped u64
//! ```
//!
//! All integers are little-endian. The trailer's `records`/`dropped`
//! totals let the analyzer report ring overflow (records lost to
//! drop-oldest) alongside what survived.

use crate::checksum::crc32;
use crate::SdfError;
use std::io::{Read, Write};

/// File magic (`DTRC` = Damaris TRaCe).
pub const TRACE_MAGIC: &[u8; 4] = b"DTRC";
/// Trailer magic.
pub const TRACE_END_MAGIC: u32 = 0xFFFF_FFFF;
/// Current format version.
pub const TRACE_VERSION: u16 = 1;
/// Encoded record size in bytes.
pub const TRACE_RECORD_SIZE: usize = 40;

/// What a trace record measures — one phase of the I/O path. The
/// discriminants are the on-disk encoding; only append new kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum EventKind {
    /// Server-side iteration span: previous fire completion → this fire
    /// completion (contains queue idle + dispatch + plugins + backend).
    Iteration = 0,
    /// One client `write`/`write_dynamic` call end-to-end.
    WriteCall = 1,
    /// Time a client waited for a shared-memory reservation.
    AllocWait = 2,
    /// The client's `memcpy` into shared memory.
    Memcpy = 3,
    /// One push onto the shared event queue (including any full-queue wait).
    QueuePush = 4,
    /// Dedicated core waiting for the next event (per-event idle).
    QueueIdle = 5,
    /// A journal append. Nothing records it since the notice ring became
    /// the node's only record of an event; kept so that older trace files
    /// still decode.
    JournalAppend = 6,
    /// One EPE dispatch (all plugins bound to one event).
    EpeDispatch = 7,
    /// One plugin invocation inside a dispatch.
    PluginRun = 8,
    /// One storage-backend write-and-commit attempt.
    BackendWrite = 9,
    /// The commit (fsync + rename) portion of a persist.
    BackendFsync = 10,
    /// A persist retry delay after a transient backend failure.
    BackendRetry = 11,
    /// A client diverted by backpressure (drop / sync-fallback / stale).
    Backpressure = 12,
    /// One MPI point-to-point operation (send or recv).
    MpiP2p = 13,
    /// One MPI collective (barrier, broadcast, reduce, gather, …).
    MpiCollective = 14,
    /// A simulated/benchmark phase sample (`fig2_jitter` interchange).
    PhaseSample = 15,
    /// One lease-sweeper pass that revoked a client (fence + cancel +
    /// reclamation on the dedicated core).
    LeaseSweep = 16,
    /// One point lookup in the query tier, end-to-end (bloom + sparse
    /// index + cache, and the block read on a miss).
    QueryLookup = 17,
    /// One block fetched from an SDF file on a query-cache miss.
    BlockRead = 18,
    /// A query served straight from the block cache.
    CacheHit = 19,
    /// A storage-pressure state change on the dedicated core
    /// (Normal → Degraded → ReadOnly and back). `bytes` encodes the new
    /// state's discriminant.
    PressureTransition = 20,
    /// A CRC-32 pass over payload bytes. Nothing records it any more (a
    /// write carries no checksum; the SDF index's CRC is taken inside
    /// `BackendWrite`); the tag stays so older trace files still decode.
    Checksum = 21,
    /// One manifest publish on the dedicated core (lock, one frame
    /// appended and synced, or a checkpoint). `bytes` is the number of
    /// entries it published: 1 when the core keeps up, the size of the
    /// committed batch when it does not.
    ManifestPublish = 22,
}

impl EventKind {
    /// Every kind, in discriminant order (for analyzer iteration).
    pub const ALL: [EventKind; 23] = [
        EventKind::Iteration,
        EventKind::WriteCall,
        EventKind::AllocWait,
        EventKind::Memcpy,
        EventKind::QueuePush,
        EventKind::QueueIdle,
        EventKind::JournalAppend,
        EventKind::EpeDispatch,
        EventKind::PluginRun,
        EventKind::BackendWrite,
        EventKind::BackendFsync,
        EventKind::BackendRetry,
        EventKind::Backpressure,
        EventKind::MpiP2p,
        EventKind::MpiCollective,
        EventKind::PhaseSample,
        EventKind::LeaseSweep,
        EventKind::QueryLookup,
        EventKind::BlockRead,
        EventKind::CacheHit,
        EventKind::PressureTransition,
        EventKind::Checksum,
        EventKind::ManifestPublish,
    ];

    /// Short stable label used in analyzer output.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Iteration => "iteration",
            EventKind::WriteCall => "write_call",
            EventKind::AllocWait => "alloc_wait",
            EventKind::Memcpy => "memcpy",
            EventKind::QueuePush => "queue_push",
            EventKind::QueueIdle => "queue_idle",
            EventKind::JournalAppend => "journal_append",
            EventKind::EpeDispatch => "epe_dispatch",
            EventKind::PluginRun => "plugin_run",
            EventKind::BackendWrite => "backend_write",
            EventKind::BackendFsync => "backend_fsync",
            EventKind::BackendRetry => "backend_retry",
            EventKind::Backpressure => "backpressure",
            EventKind::MpiP2p => "mpi_p2p",
            EventKind::MpiCollective => "mpi_collective",
            EventKind::PhaseSample => "phase_sample",
            EventKind::LeaseSweep => "lease_sweep",
            EventKind::QueryLookup => "query_lookup",
            EventKind::BlockRead => "block_read",
            EventKind::CacheHit => "cache_hit",
            EventKind::PressureTransition => "pressure_transition",
            EventKind::Checksum => "checksum",
            EventKind::ManifestPublish => "manifest_publish",
        }
    }
}

impl TryFrom<u16> for EventKind {
    type Error = u16;
    fn try_from(v: u16) -> Result<Self, u16> {
        EventKind::ALL.get(v as usize).copied().ok_or(v)
    }
}

/// Flag bit: the record was produced by the dedicated core (server side),
/// not a compute-core client.
pub const FLAG_SERVER: u16 = 1 << 0;

/// One fixed-size trace record. `Copy` by design: the lock-free trace
/// ring moves records by value through `ShmCell` slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceRecord {
    /// Event start, nanoseconds past the trace epoch (node start).
    pub t_ns: u64,
    /// Event duration in nanoseconds.
    pub dur_ns: u64,
    /// Payload bytes involved (0 when not applicable).
    pub bytes: u64,
    /// Producing rank (client id; `u32::MAX` for the dedicated core).
    pub rank: u32,
    /// Simulation iteration the event belongs to.
    pub iteration: u32,
    /// [`EventKind`] discriminant.
    pub kind: u16,
    /// Flag bits ([`FLAG_SERVER`], …).
    pub flags: u16,
    /// Reserved, written as zero.
    pub pad: u32,
}

impl TraceRecord {
    /// The record's kind, if the discriminant is known.
    pub fn event_kind(&self) -> Option<EventKind> {
        EventKind::try_from(self.kind).ok()
    }

    /// Encodes into the fixed little-endian wire form.
    pub fn encode(&self) -> [u8; TRACE_RECORD_SIZE] {
        let mut out = [0u8; TRACE_RECORD_SIZE];
        out[0..8].copy_from_slice(&self.t_ns.to_le_bytes());
        out[8..16].copy_from_slice(&self.dur_ns.to_le_bytes());
        out[16..24].copy_from_slice(&self.bytes.to_le_bytes());
        out[24..28].copy_from_slice(&self.rank.to_le_bytes());
        out[28..32].copy_from_slice(&self.iteration.to_le_bytes());
        out[32..34].copy_from_slice(&self.kind.to_le_bytes());
        out[34..36].copy_from_slice(&self.flags.to_le_bytes());
        out[36..40].copy_from_slice(&self.pad.to_le_bytes());
        out
    }

    /// Decodes from the wire form.
    pub fn decode(b: &[u8; TRACE_RECORD_SIZE]) -> TraceRecord {
        let u64_at = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
        let u32_at = |i: usize| u32::from_le_bytes(b[i..i + 4].try_into().expect("4 bytes"));
        let u16_at = |i: usize| u16::from_le_bytes(b[i..i + 2].try_into().expect("2 bytes"));
        TraceRecord {
            t_ns: u64_at(0),
            dur_ns: u64_at(8),
            bytes: u64_at(16),
            rank: u32_at(24),
            iteration: u32_at(28),
            kind: u16_at(32),
            flags: u16_at(34),
            pad: u32_at(36),
        }
    }
}

/// Streaming writer: header on creation, one CRC-guarded block per
/// `write_block`, totals trailer on `finish`.
pub struct TraceWriter<W: Write> {
    out: W,
    records_written: u64,
    records_dropped: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the header and returns the writer.
    pub fn new(mut out: W) -> crate::Result<Self> {
        let mut header = [0u8; 16];
        header[0..4].copy_from_slice(TRACE_MAGIC);
        header[4..6].copy_from_slice(&TRACE_VERSION.to_le_bytes());
        header[6..8].copy_from_slice(&(TRACE_RECORD_SIZE as u16).to_le_bytes());
        out.write_all(&header)?;
        Ok(TraceWriter {
            out,
            records_written: 0,
            records_dropped: 0,
        })
    }

    /// Appends one block of records (no-op for an empty batch).
    pub fn write_block(&mut self, records: &[TraceRecord]) -> crate::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let mut payload = Vec::with_capacity(records.len() * TRACE_RECORD_SIZE);
        for r in records {
            payload.extend_from_slice(&r.encode());
        }
        self.out.write_all(&(records.len() as u32).to_le_bytes())?;
        self.out.write_all(&crc32(&payload).to_le_bytes())?;
        self.out.write_all(&payload)?;
        self.records_written += records.len() as u64;
        Ok(())
    }

    /// Accounts records lost to the ring's drop-oldest policy (reported in
    /// the trailer so analysis can flag incomplete traces).
    pub fn note_dropped(&mut self, n: u64) {
        self.records_dropped += n;
    }

    /// Records written so far.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Writes the trailer and flushes; consumes the writer.
    pub fn finish(mut self) -> crate::Result<()> {
        let mut payload = [0u8; 16];
        payload[0..8].copy_from_slice(&self.records_written.to_le_bytes());
        payload[8..16].copy_from_slice(&self.records_dropped.to_le_bytes());
        self.out.write_all(&TRACE_END_MAGIC.to_le_bytes())?;
        self.out.write_all(&crc32(&payload).to_le_bytes())?;
        self.out.write_all(&payload)?;
        self.out.flush()?;
        Ok(())
    }
}

/// A decoded trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceFile {
    /// Every record from intact blocks, in file order.
    pub records: Vec<TraceRecord>,
    /// Records the producer's ring dropped (from the trailer; 0 if the
    /// file has no trailer).
    pub dropped: u64,
    /// A valid trailer was present: the producer closed the file cleanly.
    pub clean_close: bool,
    /// Blocks discarded for CRC mismatch or truncation.
    pub corrupt_blocks: u64,
}

/// Reads a trace file, tolerating a truncated or torn tail (the crash
/// case): intact leading blocks are returned, damage is counted.
pub fn read_trace<R: Read>(mut input: R) -> crate::Result<TraceFile> {
    let mut data = Vec::new();
    input.read_to_end(&mut data)?;
    read_trace_bytes(&data)
}

/// [`read_trace`] over an in-memory byte slice.
pub fn read_trace_bytes(data: &[u8]) -> crate::Result<TraceFile> {
    if data.len() < 16 || &data[0..4] != TRACE_MAGIC {
        return Err(SdfError::Format("not a DTRC trace file".into()));
    }
    let version = u16::from_le_bytes(data[4..6].try_into().expect("2 bytes"));
    if version != TRACE_VERSION {
        return Err(SdfError::Format(format!(
            "unsupported trace version {version} (expected {TRACE_VERSION})"
        )));
    }
    let record_size = u16::from_le_bytes(data[6..8].try_into().expect("2 bytes")) as usize;
    if record_size != TRACE_RECORD_SIZE {
        return Err(SdfError::Format(format!(
            "unsupported record size {record_size} (expected {TRACE_RECORD_SIZE})"
        )));
    }

    let mut file = TraceFile::default();
    let mut pos = 16usize;
    while pos + 8 <= data.len() {
        let count = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes"));
        pos += 8;
        if count == TRACE_END_MAGIC {
            // Trailer: totals + clean-close marker.
            if pos + 16 > data.len() || crc32(&data[pos..pos + 16]) != crc {
                file.corrupt_blocks += 1;
                break;
            }
            let _written = u64::from_le_bytes(data[pos..pos + 8].try_into().expect("8 bytes"));
            file.dropped = u64::from_le_bytes(data[pos + 8..pos + 16].try_into().expect("8 bytes"));
            file.clean_close = true;
            break;
        }
        let len = count as usize * TRACE_RECORD_SIZE;
        if pos + len > data.len() {
            // Torn tail block — the crash case.
            file.corrupt_blocks += 1;
            break;
        }
        let payload = &data[pos..pos + len];
        if crc32(payload) != crc {
            // Bit rot inside one block: skip it, keep scanning — block
            // boundaries are intact because lengths are trusted only
            // after this point, so stop to avoid desync.
            file.corrupt_blocks += 1;
            break;
        }
        for chunk in payload.chunks_exact(TRACE_RECORD_SIZE) {
            let arr: &[u8; TRACE_RECORD_SIZE] = chunk.try_into().expect("exact chunk");
            file.records.push(TraceRecord::decode(arr));
        }
        pos += len;
    }
    if pos + 8 > data.len() && pos < data.len() {
        // Dangling partial block header.
        file.corrupt_blocks += 1;
    }
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord {
            t_ns: i * 1000,
            dur_ns: i * 10,
            bytes: i,
            rank: (i % 4) as u32,
            iteration: (i / 4) as u32,
            kind: (i % 16) as u16,
            flags: if i.is_multiple_of(2) { FLAG_SERVER } else { 0 },
            pad: 0,
        }
    }

    #[test]
    fn record_roundtrip() {
        for i in [0, 1, 7, 12345] {
            let r = rec(i);
            assert_eq!(TraceRecord::decode(&r.encode()), r);
        }
        assert_eq!(std::mem::size_of::<[u8; TRACE_RECORD_SIZE]>(), 40);
    }

    #[test]
    fn kind_discriminants_stable() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*k as u16, i as u16);
            assert_eq!(EventKind::try_from(i as u16), Ok(*k));
        }
        assert!(EventKind::try_from(999).is_err());
    }

    #[test]
    fn file_roundtrip_with_trailer() {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap();
        let block1: Vec<TraceRecord> = (0..5).map(rec).collect();
        let block2: Vec<TraceRecord> = (5..9).map(rec).collect();
        w.write_block(&block1).unwrap();
        w.write_block(&block2).unwrap();
        w.write_block(&[]).unwrap(); // no-op
        w.note_dropped(3);
        assert_eq!(w.records_written(), 9);
        w.finish().unwrap();

        let f = read_trace_bytes(&buf).unwrap();
        assert!(f.clean_close);
        assert_eq!(f.dropped, 3);
        assert_eq!(f.corrupt_blocks, 0);
        let expect: Vec<TraceRecord> = (0..9).map(rec).collect();
        assert_eq!(f.records, expect);
    }

    #[test]
    fn truncated_tail_tolerated() {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap();
        w.write_block(&(0..4).map(rec).collect::<Vec<_>>()).unwrap();
        w.write_block(&(4..8).map(rec).collect::<Vec<_>>()).unwrap();
        w.finish().unwrap();
        // Chop mid-way through the second block: the first survives.
        let cut = 16 + 8 + 4 * TRACE_RECORD_SIZE + 8 + TRACE_RECORD_SIZE / 2;
        let f = read_trace_bytes(&buf[..cut]).unwrap();
        assert!(!f.clean_close);
        assert_eq!(f.records.len(), 4);
        assert_eq!(f.corrupt_blocks, 1);
    }

    #[test]
    fn corrupt_block_detected() {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap();
        w.write_block(&(0..4).map(rec).collect::<Vec<_>>()).unwrap();
        w.finish().unwrap();
        buf[16 + 8 + 3] ^= 0x40; // flip a payload bit
        let f = read_trace_bytes(&buf).unwrap();
        assert_eq!(f.records.len(), 0);
        assert_eq!(f.corrupt_blocks, 1);
        assert!(!f.clean_close);
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        assert!(read_trace_bytes(b"NOPE").is_err());
        let mut buf = Vec::new();
        TraceWriter::new(&mut buf).unwrap().finish().unwrap();
        buf[4] = 99;
        assert!(read_trace_bytes(&buf).is_err());
    }

    #[test]
    fn missing_trailer_reads_all_blocks() {
        let mut buf = Vec::new();
        {
            let mut w = TraceWriter::new(&mut buf).unwrap();
            w.write_block(&(0..6).map(rec).collect::<Vec<_>>()).unwrap();
            // No finish(): simulates a node that died before closing.
        }
        let f = read_trace_bytes(&buf).unwrap();
        assert_eq!(f.records.len(), 6);
        assert!(!f.clean_close);
        assert_eq!(f.corrupt_blocks, 0);
    }
}
