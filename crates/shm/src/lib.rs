//! # damaris-shm
//!
//! The node-local shared-memory substrate of the Damaris architecture
//! (paper §III-B): a large buffer created by the dedicated core at start
//! time, from which compute cores *reserve* segments, copy their data with a
//! single `memcpy`, and notify the dedicated core through a shared event
//! queue.
//!
//! Reservation is the paper's lock-free scheme: "the shared-memory buffer
//! is split in as many parts as clients and each client uses its own
//! region." Each region is a single-producer ring run by the protocol in
//! [`ring`]; reservation is a handful of atomic operations. The rings'
//! words live in [`PartitionAllocator`] on the heap, or in a
//! [`MappedNode`] when the cores are processes. (The paper's other scheme,
//! Boost's mutex-guarded free list, is deliberately not reproduced; see
//! `DESIGN.md` §8.)
//!
//! In the original, the buffer lives in a POSIX shared-memory region mapped
//! by separate MPI processes on the node. This reproduction supports both
//! topologies: "cores" as threads of one process over a heap allocation
//! shared through `Arc` (the default, and what the model checker explores),
//! and — on unix — real separate processes over a file-backed `MAP_SHARED`
//! mapping ([`MapRegion`]/[`MappedNode`]) whose bytes survive any one
//! process being `kill -9`'d. The data path (reserve → memcpy → notify →
//! process → release) and all of its concurrency hazards are identical;
//! only the notification's carrier differs — the [`MpscQueue`] between
//! threads, a per-client [`NoticeRing`] in the mapping between processes.
//!
//! ## Safety model
//!
//! A [`Segment`] is an owned, exclusive view of a byte range: the allocator
//! guarantees live segments never overlap (property-tested), writing goes
//! through `&mut Segment`, and the happens-before edge between the client's
//! writes and the server's reads is provided by the event queue's
//! release/acquire pair when the segment handle is sent.
//!
//! ## Verification
//!
//! All synchronization primitives are imported from the [`sync`] facade.
//! Building with `--features check` swaps them onto the `damaris-check`
//! model checker, and `tests/model.rs` exhaustively explores bounded
//! interleavings of the queue, the ring, and the backpressure
//! protocol — including seeded-bug tests proving the checker rejects
//! weakened orderings. See `DESIGN.md` § "Memory model & verification".

mod alloc_partition;
#[cfg(all(unix, not(feature = "check")))]
pub mod backing;
mod buffer;
#[cfg(all(unix, not(feature = "check")))]
pub mod gc;
mod heartbeat;
mod lease;
#[cfg(all(unix, not(feature = "check")))]
pub mod mapped;
pub mod notice;
mod queue;
pub mod ring;
pub mod sync;

pub use alloc_partition::PartitionAllocator;
#[cfg(all(unix, not(feature = "check")))]
pub use backing::{kill_hard, kill_self_hard, monotonic_now_ns, pid_alive, this_pid, MapRegion};
pub use buffer::{Segment, SharedBuffer};
#[cfg(all(unix, not(feature = "check")))]
pub use gc::{scan_orphans, GcReport};
pub use heartbeat::HeartbeatWord;
pub use lease::{ClientLease, LeaseSnapshot, LeaseTable};
#[cfg(all(unix, not(feature = "check")))]
pub use mapped::MappedNode;
pub use notice::{Notice, NoticeRing};
pub use queue::{MpscQueue, PushError};

use std::fmt;

/// Why a reservation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Not enough contiguous free space right now; retry after the consumer
    /// releases segments (the paper's clients block/spin in this case).
    Full,
    /// The request can never succeed (larger than the region/buffer).
    TooLarge,
    /// Client id out of range.
    BadClient,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::Full => write!(f, "shared buffer is full"),
            AllocError::TooLarge => write!(f, "request exceeds buffer capacity"),
            AllocError::BadClient => write!(f, "client id out of range"),
        }
    }
}

impl std::error::Error for AllocError {}
