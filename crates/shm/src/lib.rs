//! # damaris-shm
//!
//! The node-local shared-memory substrate of the Damaris architecture
//! (paper §III-B): a large buffer created by the dedicated core at start
//! time, from which compute cores *reserve* segments, copy their data with a
//! single `memcpy`, and notify the dedicated core by posting a notice.
//!
//! Reservation is the paper's lock-free scheme: "the shared-memory buffer
//! is split in as many parts as clients and each client uses its own
//! region." Each region is a single-producer ring run by the protocol in
//! [`ring`]; reservation is a handful of atomic operations, and a client
//! notifies through its own single-producer [`NoticeRing`]. (The paper's
//! other scheme, Boost's mutex-guarded free list, is deliberately not
//! reproduced; see `DESIGN.md` §8.)
//!
//! A node has one layout, [`MappedNode`]: a header, a block of words per
//! client, and the data rings. In the original it lives in a POSIX
//! shared-memory region mapped by separate MPI processes on the node. Here
//! it has two backings: zeroed process memory when the node's cores are
//! threads ([`MappedNode::heap`]), and — on unix — a file-backed
//! `MAP_SHARED` mapping ([`MapRegion`]) when they are separate processes,
//! whose bytes survive any one process being `kill -9`'d. The data path
//! (reserve → memcpy → post → process → release) and all of its
//! concurrency hazards are the same over both. [`PartitionAllocator`] and
//! [`MpscQueue`] run the ring and a bounded queue over words of their own;
//! no node uses them.
//!
//! ## Safety model
//!
//! A [`Segment`] is an owned, exclusive view of a byte range: the allocator
//! guarantees live segments never overlap (property-tested), writing goes
//! through `&mut Segment`, and the happens-before edge between the client's
//! writes and the server's reads is provided by the notice ring's
//! release/acquire pair.
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
#[cfg(not(feature = "check"))]
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
pub use lease::{ClientLease, LeaseSnapshot};
#[cfg(not(feature = "check"))]
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
