//! The node layout: one region holding every word the compute cores and
//! the dedicated core must agree on, and the buffer data — the paper's
//! one shared-memory segment (§III). It has two backings, laid out by the
//! same code: zeroed process memory for a threaded node
//! ([`MappedNode::heap`]), and a file every process of a process node maps
//! `MAP_SHARED` (unix: [`MappedNode::create`]/[`MappedNode::open`]), whose
//! words survive any one process being `kill -9`'d.
//!
//! ## Layout (all slots 8-byte, offsets from the region base)
//!
//! ```text
//! 0    magic        "DAMRSHM1" (0x44414D52_53484D31)
//! 8    version      layout version (6)
//! 16   n_clients
//! 24   data_capacity    bytes of buffer data after the header
//! 32   data_offset      where the data starts (from the region base)
//! 40   creator_pid      pid of the EPE incarnation owning the mapping
//! 48   heartbeat        a `HeartbeatWord` (epoch<<32 | beat)
//! 56   beat_at_ns       CLOCK_MONOTONIC stamp of the last beat
//! 64   region_capacity  per-client ring capacity in bytes
//! 72   notice_capacity  per-client notice slots (a power of two)
//! 80   done             non-zero once the EPE that finished the run says so
//! 128  client blocks, one per client, each on 128-byte lines:
//!        +0   the client's line: lease | ring floor | ring head
//!                                | notice head | pid
//!        +128 the core's line:   ring tail (written per release)
//!        +256 the core's line:   notice tail (written per notice taken)
//!                                | applied (per notice done) | ended
//!        +384 notice_capacity notice slots of 64 bytes (see
//!             [`crate::notice`])
//! data_offset  buffer data, n_clients × region_capacity bytes
//! ```
//!
//! A line holds words of one writer only (DESIGN.md §8, "Who writes which
//! line"); both backings start on a 128-byte boundary, so a line of the
//! layout is a block of memory. A mapping lands at a different address in
//! every process, so **nothing in it may be a pointer** — only offsets,
//! counters and protocol words; process-private state lives in mirrors
//! like [`MappedNode`] (`xtask analyze`'s `pointer-in-shm-struct` rule). Every stateful
//! word runs a model-checked facade protocol — [`HeartbeatWord`],
//! [`ClientLease`], [`crate::ring`], [`crate::notice`]: this module adds
//! *placement*, not new concurrency.

#[cfg(unix)]
use crate::backing::MapRegion;
use crate::buffer::SharedBuffer;
use crate::notice::{NoticeRing, SLOT_BYTES, SLOT_WORDS};
use crate::ring::{self, Reach, Ring};
use crate::sync::{Arc, AtomicU64, Ordering};
use crate::{AllocError, ClientLease, HeartbeatWord, Segment};
use std::io;
#[cfg(unix)]
use std::path::Path;

/// "DAMRSHM1" in big-endian bytes — identifies a Damaris node mapping.
pub const MAGIC: u64 = 0x44414D52_53484D31;
/// Bump on any layout change; `open` rejects mismatches. (6: a notice's
/// slot is held until the core-written `applied` passes it, and the
/// core's `ended` word; 5: user-event and dynamic-write notices, 64-byte
/// notice slots freed by a zero first word, the two tails on lines of
/// their own.)
pub const VERSION: u64 = 6;

const OFF_MAGIC: usize = 0;
const OFF_VERSION: usize = 8;
const OFF_N_CLIENTS: usize = 16;
const OFF_DATA_CAPACITY: usize = 24;
const OFF_DATA_OFFSET: usize = 32;
const OFF_CREATOR_PID: usize = 40;
const OFF_HEARTBEAT: usize = 48;
const OFF_BEAT_AT_NS: usize = 56;
const OFF_REGION_CAPACITY: usize = 64;
const OFF_NOTICE_CAPACITY: usize = 72;
const OFF_DONE: usize = 80;
/// First client block; the gap up to here is reserved for growth.
const CLIENT_BASE: usize = 128;
/// The placement unit: one `CachePadded` block.
const LINE: usize = 128;

const SLOT_LEASE: usize = 0;
const SLOT_FLOOR: usize = 8;
const SLOT_HEAD: usize = 16;
const SLOT_NOTICE_HEAD: usize = 24;
const SLOT_PID: usize = 32;
const SLOT_TAIL: usize = LINE;
const SLOT_NOTICE_TAIL: usize = 2 * LINE;
const SLOT_APPLIED: usize = 2 * LINE + 8;
const SLOT_ENDED: usize = 2 * LINE + 16;
const SLOT_NOTICES: usize = 3 * LINE;

/// Size of the header region GC needs to inspect (see [`crate::gc`]).
pub const HEADER_BYTES: usize = CLIENT_BASE;

/// Bytes of one client block with `notice_capacity` slots, if that fits
/// a `usize`.
fn client_block(notice_capacity: usize) -> Option<usize> {
    notice_capacity
        .checked_mul(SLOT_BYTES)?
        .checked_next_multiple_of(LINE)?
        .checked_add(SLOT_NOTICES)
}

/// The geometry words of a layout — what the header stores, and what
/// `open` reads back and checks.
#[derive(Clone, Copy)]
struct Geometry {
    n_clients: usize,
    data_capacity: usize,
    data_offset: usize,
    region_capacity: usize,
    notice_capacity: usize,
}

impl Geometry {
    /// The layout `create` documents.
    fn new(n_clients: usize, data_capacity: usize, queue_capacity: usize) -> io::Result<Geometry> {
        assert!(n_clients > 0, "need at least one client");
        let align = ring::RING_ALIGN as usize;
        let region_capacity = (data_capacity / n_clients) / align * align;
        if region_capacity == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "data capacity too small for the client count",
            ));
        }
        let per_client = (queue_capacity / n_clients).max(2);
        let notice_capacity = 1 << per_client.ilog2();
        let data_offset = client_block(notice_capacity)
            .and_then(|block| n_clients.checked_mul(block)?.checked_add(CLIENT_BASE))
            .filter(|offset| offset.checked_add(data_capacity).is_some())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "mapping size overflows"))?;
        Ok(Geometry {
            n_clients,
            data_capacity,
            data_offset,
            region_capacity,
            notice_capacity,
        })
    }

    /// Whether this geometry fits a region of `len` bytes, every product
    /// and sum checked: `open` reads it from a file.
    fn fits(&self, len: usize) -> bool {
        let consistent = || {
            let block = client_block(self.notice_capacity)?;
            let slots_end = self
                .n_clients
                .checked_mul(block)?
                .checked_add(CLIENT_BASE)?;
            let data_end = self.data_offset.checked_add(self.data_capacity)?;
            let rings = self.n_clients.checked_mul(self.region_capacity)?;
            Some(
                self.n_clients > 0
                    && self.region_capacity > 0
                    && self.notice_capacity.is_power_of_two()
                    && slots_end <= self.data_offset
                    && self.data_offset.is_multiple_of(LINE)
                    && data_end <= len
                    && rings <= self.data_capacity,
            )
        };
        consistent() == Some(true)
    }
}

/// One process's view of a node layout — the per-process mirror: the
/// `Arc`s and cached immutable geometry live here (private to this
/// process); every mutable protocol word lives in the region. A clone is
/// a second handle on the same view.
#[derive(Clone)]
pub struct MappedNode {
    /// The whole region, header included.
    memory: Arc<SharedBuffer>,
    /// Its data window, which the segments of [`reserve`](Self::reserve)
    /// point into.
    data: Arc<SharedBuffer>,
    /// The same window for the segments of [`adopt`](Self::adopt): an
    /// `Arc` of its own, so that the core taking a client's notice never
    /// writes the line the clients' reference count lives on.
    adopted: Arc<SharedBuffer>,
    n_clients: usize,
    region_capacity: usize,
    notice_capacity: usize,
    client_block: usize,
}

impl MappedNode {
    /// The layout in zeroed process memory — the threaded node's —
    /// committed as it is first touched. Geometry as for
    /// [`create`](Self::create).
    pub fn heap(
        n_clients: usize,
        data_capacity: usize,
        queue_capacity: usize,
    ) -> io::Result<MappedNode> {
        let geometry = Geometry::new(n_clients, data_capacity, queue_capacity)?;
        let total = geometry.data_offset + data_capacity;
        Ok(Self::lay_out(SharedBuffer::new(total), geometry, 0))
    }

    /// Creates the mapping file (EPE only — creation is exclusive),
    /// writes the header, and stamps this process as the creator. Each
    /// client gets `data_capacity / n_clients` bytes of ring, rounded down
    /// to the ring alignment, and `queue_capacity / n_clients` notice
    /// slots, rounded down to a power of two, at least 2.
    #[cfg(unix)]
    pub fn create(
        path: &Path,
        n_clients: usize,
        data_capacity: usize,
        queue_capacity: usize,
    ) -> io::Result<MappedNode> {
        let geometry = Geometry::new(n_clients, data_capacity, queue_capacity)?;
        let total = geometry.data_offset + data_capacity;
        let region = Arc::new(MapRegion::create(path, total)?);
        let beat_at_ns = crate::backing::monotonic_now_ns();
        Ok(Self::lay_out(
            SharedBuffer::from_region(region),
            geometry,
            beat_at_ns,
        ))
    }

    /// Writes `geometry`'s header into fresh, zeroed `memory`.
    fn lay_out(memory: Arc<SharedBuffer>, geometry: Geometry, beat_at_ns: u64) -> MappedNode {
        let node = Self::over(memory, geometry);
        // Fresh memory is all zeroes (ftruncate and the allocator
        // guarantee it), so the leases, heartbeat, ring and notice
        // counters, pids and `done` start in their natural initial state;
        // only the geometry needs writing. Relaxed stores: nobody else can
        // see the region yet (create_new is exclusive and the magic is
        // published last).
        let header = [
            (OFF_VERSION, VERSION),
            (OFF_N_CLIENTS, geometry.n_clients as u64),
            (OFF_DATA_CAPACITY, geometry.data_capacity as u64),
            (OFF_DATA_OFFSET, geometry.data_offset as u64),
            (OFF_REGION_CAPACITY, geometry.region_capacity as u64),
            (OFF_NOTICE_CAPACITY, geometry.notice_capacity as u64),
            (OFF_CREATOR_PID, u64::from(std::process::id())),
            (OFF_BEAT_AT_NS, beat_at_ns),
        ];
        for (off, value) in header {
            node.word(off).store(value, Ordering::Relaxed);
        }
        // Release: publishes the geometry above to any `open` that
        // Acquire-loads a valid magic.
        node.word(OFF_MAGIC).store(MAGIC, Ordering::Release);
        node
    }

    /// The view of a layout of `geometry`, which must fit `memory`.
    fn over(memory: Arc<SharedBuffer>, geometry: Geometry) -> MappedNode {
        let data = memory.window(geometry.data_offset, geometry.data_capacity);
        let adopted = memory.window(geometry.data_offset, geometry.data_capacity);
        MappedNode {
            memory,
            data,
            adopted,
            n_clients: geometry.n_clients,
            region_capacity: geometry.region_capacity,
            notice_capacity: geometry.notice_capacity,
            // invariant: `Geometry::new` and `fits` computed it.
            client_block: client_block(geometry.notice_capacity).expect("checked geometry"),
        }
    }

    /// Maps an existing node file (clients; a respawned EPE). Validates
    /// magic + version and reads the geometry, which comes from a file and
    /// is believed only if every product and sum of it fits and lands
    /// inside the mapping: anything else is `InvalidData`.
    #[cfg(unix)]
    pub fn open(path: &Path) -> io::Result<MappedNode> {
        let region = Arc::new(MapRegion::open(path)?);
        if region.len() < CLIENT_BASE {
            return Err(bad_mapping("mapping shorter than the header"));
        }
        let len = region.len();
        let memory = SharedBuffer::from_region(region);
        // Acquire: pairs with the creator's Release store of the magic,
        // ordering our geometry reads after its writes.
        let magic = word_at(&memory, OFF_MAGIC).load(Ordering::Acquire);
        if magic != MAGIC {
            return Err(bad_mapping("bad magic (not a Damaris node mapping)"));
        }
        let version = word_at(&memory, OFF_VERSION).load(Ordering::Relaxed);
        if version != VERSION {
            return Err(bad_mapping("unsupported mapping layout version"));
        }
        let read = |off| usize::try_from(word_at(&memory, off).load(Ordering::Relaxed)).ok();
        let geometry = (|| {
            Some(Geometry {
                n_clients: read(OFF_N_CLIENTS)?,
                data_capacity: read(OFF_DATA_CAPACITY)?,
                data_offset: read(OFF_DATA_OFFSET)?,
                region_capacity: read(OFF_REGION_CAPACITY)?,
                notice_capacity: read(OFF_NOTICE_CAPACITY)?,
            })
        })()
        .filter(|geometry| geometry.fits(len));
        match geometry {
            Some(geometry) => Ok(Self::over(memory, geometry)),
            None => Err(bad_mapping("inconsistent mapping geometry")),
        }
    }

    fn word(&self, off: usize) -> &AtomicU64 {
        word_at(&self.memory, off)
    }

    fn client_word(&self, client: usize, slot: usize) -> &AtomicU64 {
        // ANALYZE: in-bounds(a client id reaching the mapping is below n_clients: a DamarisClient over it checks its rank when built, the core loops over 0..n_clients; the assert is the contract check)
        assert!(client < self.n_clients, "client {client} out of range");
        self.word(CLIENT_BASE + client * self.client_block + slot)
    }

    /// Number of client slots.
    pub fn n_clients(&self) -> usize {
        self.n_clients
    }

    /// Total buffer data bytes past the header.
    pub fn data_capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Per-client ring capacity in bytes.
    pub fn region_capacity(&self) -> usize {
        self.region_capacity
    }

    /// Per-client notice slots.
    pub fn notice_capacity(&self) -> usize {
        self.notice_capacity
    }

    /// Pid of the EPE incarnation owning the mapping.
    pub fn creator_pid(&self) -> u32 {
        // Relaxed: advisory diagnostic/GC value; staleness is handled by
        // the pid-liveness probe, not by ordering.
        self.word(OFF_CREATOR_PID).load(Ordering::Relaxed) as u32
    }

    /// A respawned EPE adopting the mapping stamps itself as the owner
    /// (so GC in *other* runs dates the mapping against the live pid).
    pub fn restamp_creator(&self) {
        self.word(OFF_CREATOR_PID)
            .store(u64::from(std::process::id()), Ordering::Relaxed);
    }

    /// The node heartbeat word — the model-checked [`HeartbeatWord`]
    /// protocol running over the layout's slot.
    pub fn heartbeat(&self) -> &HeartbeatWord {
        HeartbeatWord::from_word(self.word(OFF_HEARTBEAT))
    }

    /// CLOCK_MONOTONIC stamp of the EPE's last beat. The EPE stores it
    /// (Release) right after each `heartbeat().beat()`; the orphan sweep
    /// of another run reads it to date the mapping on the machine-wide
    /// clock, where a process-private `Instant` would mean nothing.
    pub fn beat_at_ns(&self) -> &AtomicU64 {
        self.word(OFF_BEAT_AT_NS)
    }

    /// Says the run is over: the EPE that finished it calls this once,
    /// after its core's `finish`.
    pub fn mark_done(&self) {
        // Release: pairs with the Acquire in `done`; a client that sees
        // the word set sees everything the core did before it.
        self.word(OFF_DONE).store(1, Ordering::Release);
    }

    /// Whether the EPE that finished the run said so.
    pub fn done(&self) -> bool {
        self.word(OFF_DONE).load(Ordering::Acquire) != 0
    }

    /// Registers `pid` as the process that runs `client` — its first act
    /// after mapping the file.
    pub fn register(&self, client: usize, pid: u32) {
        // Release: pairs with the Acquire in `client_pid`.
        self.client_word(client, SLOT_PID)
            .store(u64::from(pid), Ordering::Release);
    }

    /// The pid `client` registered, 0 before it did.
    pub fn client_pid(&self, client: usize) -> u32 {
        self.client_word(client, SLOT_PID).load(Ordering::Acquire) as u32
    }

    /// One client's lease word — the model-checked [`ClientLease`]
    /// renew/revoke arbitration running over the layout's slot.
    pub fn lease(&self, client: usize) -> &ClientLease {
        ClientLease::from_word(self.client_word(client, SLOT_LEASE))
    }

    /// The client's ring: the [`crate::ring`] protocol's words, in the
    /// layout. Panics if `client` is out of range.
    pub fn ring(&self, client: usize) -> Ring<'_> {
        Ring {
            head: self.client_word(client, SLOT_HEAD),
            tail: self.client_word(client, SLOT_TAIL),
            floor: self.client_word(client, SLOT_FLOOR),
            cap: self.region_capacity as u64,
        }
    }

    /// The client's notice ring: the [`crate::notice`] protocol's words,
    /// in the layout. Panics if `client` is out of range.
    pub fn notices(&self, client: usize) -> NoticeRing<'_> {
        let first = self.client_word(client, SLOT_NOTICES);
        let len = self.notice_capacity * SLOT_WORDS;
        // SAFETY: `first` is the first of `len` consecutive 8-aligned
        // words of this client's block, which the geometry puts inside
        // the region; the facade `AtomicU64` is the std atomic in this
        // build (size 8, align 8, any bit pattern valid), and the slice
        // cannot outlive the borrow of `self`, which holds the region.
        let slots = unsafe { std::slice::from_raw_parts(first as *const AtomicU64, len) };
        NoticeRing {
            head: self.client_word(client, SLOT_NOTICE_HEAD),
            tail: self.client_word(client, SLOT_NOTICE_TAIL),
            applied: self.client_word(client, SLOT_APPLIED),
            slots,
        }
    }

    /// The core's count of `client`'s ends of iteration: the highest
    /// iteration it took one of, plus one (0 before the first). In the
    /// layout, so that it outlives the core that wrote it. Core side.
    pub fn ended(&self, client: usize) -> &AtomicU64 {
        self.client_word(client, SLOT_ENDED)
    }

    /// In-ring position of a buffer offset, if it falls in `client`'s ring.
    fn pos(&self, client: usize, offset: usize) -> Option<u64> {
        let base = client.checked_mul(self.region_capacity)?;
        let pos = offset.checked_sub(base)?;
        (pos < self.region_capacity).then_some(pos as u64)
    }

    /// The data window as a [`SharedBuffer`], which the `Segment`s of
    /// [`reserve`](Self::reserve) and [`adopt`](Self::adopt) point into.
    pub fn buffer(&self) -> &Arc<SharedBuffer> {
        &self.data
    }

    /// Reserves `len` bytes in `client`'s ring ([`ring::ring_reserve`]
    /// over the layout's counters). Client-side, single reserver per
    /// client.
    pub fn reserve(&self, client: usize, len: usize) -> Result<Segment, AllocError> {
        if client >= self.n_clients {
            return Err(AllocError::BadClient);
        }
        let at = ring::ring_reserve(&self.ring(client), len as u64)?;
        let offset = client * self.region_capacity + at.start as usize;
        // The client's next reservation starts where this one ends; ask
        // for its lines now, up to what is free there, so that its copy
        // does not wait for the core to give them up.
        let next = offset + ring::ring_rounded(len as u64) as usize;
        self.data.prefetch_copy(next, len.min(at.ahead as usize));
        Ok(self.data.segment_at(offset, len, at.position))
    }

    /// Re-creates the handle of a range still reserved in `client`'s ring
    /// (consumer side: the caller owns `tail`). The coordinates come from
    /// a notice, that is from outside the core:
    /// `None` unless [`ring::ring_locate`] finds them live.
    pub fn adopt(&self, client: usize, offset: usize, len: usize) -> Option<Segment> {
        self.adopt_within(client, offset, len, &mut Reach::default())
    }

    /// [`adopt`](Self::adopt) against the core's `reach` of the ring
    /// ([`ring::ring_locate_within`]).
    pub fn adopt_within(
        &self,
        client: usize,
        offset: usize,
        len: usize,
        reach: &mut Reach,
    ) -> Option<Segment> {
        if client >= self.n_clients {
            return None;
        }
        let pos = self.pos(client, offset)?;
        let position = ring::ring_locate_within(&self.ring(client), reach, pos, len as u64)?;
        Some(self.adopted.segment_at(offset, len, position))
    }

    /// Releases the oldest live reservation of `client` (EPE side, FIFO;
    /// [`ring::ring_release`] over the layout's counters): everything up
    /// to the end of the `len` bytes at `offset` of the data window.
    pub fn release(&self, client: usize, offset: usize, len: usize) {
        let pos = self
            .pos(client, offset)
            // invariant: offsets come from `reserve`, which places them
            // inside the client's ring; a mismatch is caller misuse.
            .expect("segment does not belong to this client's ring");
        ring::ring_release(&self.ring(client), pos, len as u64);
    }

    /// [`release`](Self::release) of the reservation `segment` stands for,
    /// unless its position is behind the ring's `tail` — then it was given
    /// back already, through another handle on the same range (two notices
    /// named it: one was forged), and this returns `false`.
    pub fn release_segment(&self, client: usize, segment: &Segment) -> bool {
        // Relaxed: only the consumer, the caller, writes `tail`.
        if segment.position() < self.ring(client).tail.load(Ordering::Relaxed) {
            return false;
        }
        let (offset, len) = segment.reservation();
        self.release(client, offset, len);
        true
    }

    /// Reclaims everything still reserved in `client`'s ring (the
    /// sweeper's terminal step for a fenced client). Returns bytes
    /// reclaimed including padding.
    pub fn revoke_remaining(&self, client: usize) -> u64 {
        ring::ring_reclaim(&self.ring(client))
    }

    /// Bytes currently reserved in `client`'s ring, from any process.
    pub fn in_use(&self, client: usize) -> u64 {
        ring::ring_in_use(&self.ring(client))
    }

    /// Sum of [`MappedNode::in_use`] over all clients — the leak check
    /// the kill-matrix tests assert drains to 0.
    pub fn total_in_use(&self) -> u64 {
        (0..self.n_clients).map(|c| self.in_use(c)).sum()
    }
}

impl std::fmt::Debug for MappedNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MappedNode({} clients × {} bytes, {} notices, {:?})",
            self.n_clients, self.region_capacity, self.notice_capacity, self.memory
        )
    }
}

fn word_at(memory: &SharedBuffer, off: usize) -> &AtomicU64 {
    debug_assert_eq!(off % 8, 0);
    debug_assert!(off + 8 <= memory.capacity());
    // SAFETY: the facade `AtomicU64` is the std atomic in this (non-check)
    // build — size 8, align 8, valid for any bit pattern — and `off` is an
    // 8-aligned in-bounds slot of the region (its base is 128-aligned on
    // the heap, page-aligned in a mapping), whose lifetime the returned
    // borrow cannot outlive. Both backings are memory written only
    // through atomics and `Segment`s (`UnsafeCell` words on the heap, a
    // `MAP_SHARED` mapping across processes), so concurrent access from
    // other threads or processes is exactly what the atomic type makes
    // defined.
    unsafe { &*(memory.base().add(off) as *const AtomicU64) }
}

#[cfg(unix)]
fn bad_mapping(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::Notice;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("damaris-mapped-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}", crate::backing::this_pid()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn create_then_open_sees_same_geometry() {
        let path = tmp("geometry");
        let created = MappedNode::create(&path, 4, 4096, 100).unwrap();
        assert_eq!(created.n_clients(), 4);
        assert_eq!(created.region_capacity(), 1024);
        assert_eq!(created.notice_capacity(), 16, "100 / 4 rounded down");
        assert_eq!(created.creator_pid(), crate::backing::this_pid());
        let opened = MappedNode::open(&path).unwrap();
        assert_eq!(opened.n_clients(), 4);
        assert_eq!(opened.data_capacity(), 4096);
        assert_eq!(opened.region_capacity(), 1024);
        assert_eq!(opened.notice_capacity(), 16);
        std::fs::remove_file(&path).unwrap();
        // A queue smaller than the client count still gives each two.
        let path = tmp("geometry-small");
        let small = MappedNode::create(&path, 4, 4096, 3).unwrap();
        assert_eq!(small.notice_capacity(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn each_block_keeps_the_clients_words_off_the_cores_line() {
        let path = tmp("lines");
        let node = MappedNode::create(&path, 3, 3072, 6).unwrap();
        let base = node.memory.base() as usize;
        let line = |word: &AtomicU64| (word as *const AtomicU64 as usize - base) / LINE;
        for c in 0..3 {
            let client = [
                line(node.client_word(c, SLOT_LEASE)),
                line(node.ring(c).floor),
                line(node.ring(c).head),
                line(node.notices(c).head),
                line(node.client_word(c, SLOT_PID)),
            ];
            let notices = node.notices(c);
            let core = [line(node.ring(c).tail), line(notices.tail)];
            assert_eq!(line(notices.applied), core[1]);
            assert_eq!(line(node.ended(c)), core[1]);
            assert!(client.iter().all(|&l| l == client[0]), "{client:?}");
            assert_eq!(core, [client[0] + 1, client[0] + 2]);
            let slots = node.notices(c).slots;
            assert_eq!(line(&slots[0]), client[0] + 3);
            assert_eq!(slots.len(), 2 * SLOT_WORDS);
            // A slot to a 64-byte line: the second starts the next one.
            let at = |word: &AtomicU64| word as *const AtomicU64 as usize - base;
            assert_eq!(at(&slots[SLOT_WORDS]) - at(&slots[0]), 64);
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// The heap backing is the same layout: the same header words, every
    /// protocol word at the offset a file puts it, the region on a
    /// 128-byte boundary, and the same protocols over it.
    #[test]
    fn the_heap_backing_lays_out_what_a_file_does() {
        let path = tmp("heap-twin");
        let file = MappedNode::create(&path, 3, 3072, 6).unwrap();
        std::fs::remove_file(&path).unwrap();
        let heap = MappedNode::heap(3, 3072, 6).unwrap();
        let layout = |node: &MappedNode| {
            let base = node.memory.base() as usize;
            let at = |word: &AtomicU64| word as *const AtomicU64 as usize - base;
            let header = [
                OFF_MAGIC,
                OFF_VERSION,
                OFF_N_CLIENTS,
                OFF_DATA_CAPACITY,
                OFF_DATA_OFFSET,
                OFF_REGION_CAPACITY,
                OFF_NOTICE_CAPACITY,
            ];
            let mut words: Vec<_> = header
                .map(|off| node.word(off).load(Ordering::Relaxed) as usize)
                .into();
            words.extend([node.memory.capacity(), node.data.base() as usize - base]);
            for c in 0..3 {
                let (ring, notices) = (node.ring(c), node.notices(c));
                words.extend([at(ring.head), at(ring.tail), at(ring.floor)]);
                words.extend([at(notices.head), at(notices.tail), at(notices.applied)]);
                words.extend([at(&notices.slots[0]), at(node.ended(c))]);
                words.push(at(node.client_word(c, SLOT_LEASE)));
            }
            words
        };
        assert_eq!(layout(&heap), layout(&file));
        assert_eq!(heap.memory.base() as usize % LINE, 0);

        assert!(heap.lease(2).renew());
        assert_eq!(heap.heartbeat().observe(), (0, 0));
        let mut seg = heap.reserve(2, 100).unwrap();
        seg.copy_from_slice(&[0xAB; 100]);
        let write = Notice::Write {
            variable: 0,
            iteration: 0,
            offset: seg.offset() as u64,
            len: 100,
        };
        assert!(heap.notices(2).post(write.encode()));
        assert_eq!(heap.notices(2).peek().and_then(Notice::decode), Some(write));
        let adopted = heap.adopt(2, seg.offset(), 100).unwrap();
        assert_eq!(adopted.as_slice(), &[0xAB; 100]);
        assert_eq!(heap.total_in_use(), 104);
        heap.release(2, adopted.offset(), adopted.len());
        assert_eq!(heap.total_in_use(), 0);
    }

    #[test]
    fn protocol_words_are_shared_between_views() {
        // Two `MappedNode`s over the same file stand in for two
        // processes: every protocol word written through one view must
        // be visible through the other.
        let path = tmp("words");
        let epe = MappedNode::create(&path, 2, 2048, 8).unwrap();
        let client = MappedNode::open(&path).unwrap();

        epe.heartbeat().begin_epoch(3);
        epe.heartbeat().beat();
        assert_eq!(client.heartbeat().observe(), (3, 1));

        assert!(client.lease(1).renew());
        assert_eq!(epe.lease(1).observe(), (0, 1));
        let snap = epe.lease(1).snapshot();
        assert!(epe.lease(1).try_revoke(snap));
        assert!(!client.lease(1).renew());

        assert_eq!(epe.client_pid(1), 0);
        client.register(1, 4242);
        assert_eq!((epe.client_pid(0), epe.client_pid(1)), (0, 4242));

        let end = Notice::EndIteration { iteration: 5 };
        assert!(client.notices(1).post(end.encode()));
        assert_eq!(epe.notices(0).peek(), None, "rank 0's ring is its own");
        assert_eq!(epe.notices(1).peek().and_then(Notice::decode), Some(end));
        let taken = epe.notices(1).advance();
        assert_eq!(client.notices(1).peek(), None);
        // The slot is the core's record until it is applied: a successor
        // core over the mapping reads it back.
        let unapplied = client.notices(1).unapplied();
        assert_eq!(unapplied, [(taken, end.encode())]);
        epe.notices(1).apply(taken);
        assert_eq!(client.notices(1).unapplied().len(), 0);
        epe.ended(1).store(6, Ordering::Relaxed);
        assert_eq!(client.ended(1).load(Ordering::Relaxed), 6);

        assert!(!client.done());
        epe.mark_done();
        assert!(client.done());

        epe.beat_at_ns().store(42, Ordering::Release);
        assert_eq!(client.beat_at_ns().load(Ordering::Acquire), 42);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reserve_copy_release_across_views() {
        let path = tmp("data");
        let epe = MappedNode::create(&path, 2, 2048, 8).unwrap();
        let client = MappedNode::open(&path).unwrap();

        let mut seg = client.reserve(1, 100).unwrap();
        seg.copy_from_slice(&[0xEE; 100]);
        let (off, len) = (seg.offset(), seg.len());
        assert_eq!(off, client.region_capacity()); // client 1's ring base
        drop(seg);

        // The EPE view reads the same bytes through its own mapping.
        let view = epe.buffer().segment(off, len);
        assert!(view.as_slice().iter().all(|&b| b == 0xEE));
        drop(view);
        assert_eq!(epe.in_use(1), 104); // rounded
        epe.release(1, off, len);
        assert_eq!(epe.total_in_use(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn adopt_takes_only_a_live_range_of_that_clients_ring() {
        let path = tmp("adopt");
        let node = MappedNode::create(&path, 2, 2048, 8).unwrap();
        let mut seg = node.reserve(1, 100).unwrap();
        seg.copy_from_slice(&[0xCD; 100]);
        let (off, len) = (seg.offset(), seg.len());
        drop(seg);
        let adopted = node.adopt(1, off, len).expect("range is reserved");
        assert!(adopted.as_slice().iter().all(|&b| b == 0xCD));

        // What a forged or stale record can say, case by case.
        assert!(node.adopt(1, usize::MAX - 1, 2).is_none(), "overflow");
        assert!(node.adopt(0, off, len).is_none(), "another ring");
        assert!(node.adopt(2, off, len).is_none(), "no such client");
        assert!(node.adopt(1, off, 1025).is_none(), "longer than a ring");
        assert!(node.adopt(1, off + 1000, 100).is_none(), "straddles");
        assert!(node.adopt(1, off + 104, 100).is_none(), "beyond head");
        // Two handles on one range (two notices named it): the second
        // release finds it behind the tail and gives nothing back.
        let twin = node.adopt(1, off, len).unwrap();
        assert!(node.release_segment(1, &adopted));
        assert!(!node.release_segment(1, &twin), "given back once");
        assert_eq!(node.in_use(1), 0);
        assert!(node.adopt(1, off, len).is_none(), "released");

        // The ring (1024 bytes) is empty at position 104, so the next
        // reservation rewinds to 0 while the consumer's tail stays at 104
        // until it releases. A segment behind that padding is adopted; a
        // forged record inside the bytes the rewind skipped — between
        // `tail` and `head` as counters go — is not.
        let long = node.reserve(1, 800).unwrap();
        assert_eq!(long.offset(), off);
        assert!(node.adopt(1, off, 800).is_some());
        assert!(node.adopt(1, off + 900, 100).is_none(), "skipped");
        assert!(node.adopt(1, off + 104, 100).is_some(), "in the 800");
        // Wrap padding, the other kind: 100 more at 800, the 800 released,
        // then 200 that no longer fit before the end and start over at 0.
        let short = node.reserve(1, 100).unwrap();
        node.release(1, long.offset(), long.len());
        let wrapped = node.reserve(1, 200).unwrap();
        assert_eq!((short.offset(), wrapped.offset()), (off + 800, off));
        assert!(node.adopt(1, off, 200).is_some());
        assert!(node.adopt(1, off + 200, 8).is_none(), "beyond head");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reclaim_fences_a_dead_clients_ring() {
        let path = tmp("reclaim");
        let node = MappedNode::create(&path, 1, 1024, 2).unwrap();
        let _abandoned = node.reserve(0, 200).unwrap();
        assert_eq!(node.in_use(0), 200);
        assert_eq!(node.revoke_remaining(0), 200);
        assert_eq!(node.total_in_use(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_garbage() {
        let path = tmp("garbage");
        std::fs::write(&path, vec![0u8; 4096]).unwrap();
        assert!(MappedNode::open(&path).is_err());
        std::fs::write(&path, b"short").unwrap();
        assert!(MappedNode::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    /// A header's geometry comes from a file. Whatever its words say —
    /// products and sums that overflow, a notice count that is not a
    /// power of two, a data window past the end — `open` says
    /// `InvalidData`, never panics, and never hands out a view whose
    /// accessors would read past the mapping.
    #[test]
    fn open_refuses_a_forged_geometry() {
        let path = tmp("forged");
        let word = |off: usize, value: u64, bytes: &mut Vec<u8>| {
            bytes[off..off + 8].copy_from_slice(&value.to_ne_bytes());
        };
        let valid = |bytes: &mut Vec<u8>| {
            word(OFF_MAGIC, MAGIC, bytes);
            word(OFF_VERSION, VERSION, bytes);
            word(OFF_N_CLIENTS, 2, bytes);
            word(OFF_DATA_CAPACITY, 1024, bytes);
            word(OFF_DATA_OFFSET, 1536, bytes);
            word(OFF_REGION_CAPACITY, 512, bytes);
            word(OFF_NOTICE_CAPACITY, 4, bytes);
        };
        let mut bytes = vec![0u8; 4096];
        valid(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let node = MappedNode::open(&path).expect("the unforged header opens");
        assert_eq!((node.n_clients(), node.notice_capacity()), (2, 4));
        drop(node);

        let forgeries: [(&str, &[(usize, u64)]); 9] = [
            (
                "client count times block overflows",
                &[(OFF_N_CLIENTS, 1 << 59), (OFF_REGION_CAPACITY, 32)],
            ),
            ("client count is zero", &[(OFF_N_CLIENTS, 0)]),
            (
                "notice count times slot overflows",
                &[(OFF_NOTICE_CAPACITY, 1 << 62)],
            ),
            ("notice count is zero", &[(OFF_NOTICE_CAPACITY, 0)]),
            (
                "notice count is not a power of two",
                &[(OFF_NOTICE_CAPACITY, 3)],
            ),
            (
                "data window end overflows",
                &[(OFF_DATA_OFFSET, u64::MAX - 127)],
            ),
            ("data window past the file", &[(OFF_DATA_CAPACITY, 4096)]),
            (
                "client rings overflow",
                &[(OFF_REGION_CAPACITY, u64::MAX / 2 + 1)],
            ),
            ("blocks run into the data", &[(OFF_NOTICE_CAPACITY, 16)]),
        ];
        for (what, words) in forgeries {
            let mut forged = bytes.clone();
            for &(off, value) in words {
                word(off, value, &mut forged);
            }
            std::fs::write(&path, &forged).unwrap();
            let err = MappedNode::open(&path).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_rejects_tiny_capacity() {
        let path = tmp("tiny");
        assert!(MappedNode::create(&path, 64, 8, 1024).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
