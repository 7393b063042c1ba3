//! # damaris-mpi
//!
//! A miniature message-passing substrate with MPI-like semantics, standing
//! in for the MPI library the paper's software stack (CM1, pHDF5, ROMIO,
//! Damaris) is built on.
//!
//! Scope — exactly what those consumers need:
//!
//! * a [`World`] of N ranks, each running on its own thread,
//! * typed point-to-point [`Communicator::send`] / [`Communicator::recv`]
//!   with source/tag matching (including `ANY_SOURCE` / `ANY_TAG`),
//! * collectives: `barrier`, `broadcast`, `reduce`/`allreduce`, `gather`,
//!   `alltoallv` — implemented *with messages* (binomial trees,
//!   dissemination barrier), not by cheating through shared memory, so
//!   their synchronization structure matches real implementations,
//! * communicator splitting ([`Communicator::split`]) for node-local
//!   sub-communicators, which is how Damaris groups a node's clients with
//!   its dedicated core,
//! * deterministic fault injection ([`FaultPlan`] +
//!   [`World::run_with_faults`]): message drop/delay/duplication by
//!   per-pair ordinal, and cooperative rank-kill — dead peers surface as
//!   [`RecvError::PeerFailed`] from receives and the `try_*` collectives
//!   within a configurable window, instead of hanging the survivors.
//!
//! ## Example
//!
//! ```
//! use damaris_mpi::World;
//!
//! let sums = World::run(4, |comm| {
//!     let rank = comm.rank() as f64;
//!     comm.allreduce_sum_f64(&[rank])[0]
//! });
//! assert_eq!(sums, vec![6.0, 6.0, 6.0, 6.0]);
//! ```

mod collectives;
mod comm;
mod datatypes;
mod fault;
mod transport;

pub use comm::{Communicator, RecvError, ANY_SOURCE, ANY_TAG};
pub use datatypes::Message;
pub use fault::{ClientKillPhase, FaultPlan, MsgFault};
pub use transport::World;

/// Message payload type, re-exported so callers need no direct `bytes`
/// dependency to build payloads.
pub use bytes::Bytes;
