//! # damaris-fs
//!
//! The storage layer of the real runtime: everything here touches real
//! files. (The simulator's cost model of a parallel file system, with its
//! striping, lives in `damaris-sim`.) This crate provides:
//!
//! * [`local`] — a *real* backend that writes SDF files into a local
//!   directory, used by the threaded (non-simulated) runtime;
//! * [`backend`] — the [`StorageBackend`] trait the runtime writes
//!   through, with a crash-consistent begin/commit protocol (tmp file +
//!   fsync + atomic rename);
//! * [`faulty`] — [`FaultyBackend`], a decorator executing a deterministic
//!   [`FaultPlan`] (transient errors, stalls, torn writes) for chaos tests;
//! * [`clock`] — the [`IoClock`] time source behind retry backoff and
//!   injected stalls ([`WallClock`] in production, [`VirtualClock`] in
//!   tests so waits advance simulated time instead of blocking);
//! * [`manifest`] — the `MANIFEST` snapshot protocol the read tier rides
//!   on: a log to which the EPE appends a frame per publish and the
//!   compactor one per commit point, read without locking;
//! * [`recovery`] — the startup scan that deletes orphan `*.tmp` files and
//!   quarantines torn `*.sdf` files, then reconciles the manifest against
//!   what actually survived.

pub mod backend;
pub mod clock;
pub mod faulty;
pub mod local;
pub mod manifest;
pub mod recovery;
pub mod sentinel;

pub use backend::StorageBackend;
pub use clock::{IoClock, VirtualClock, WallClock};
pub use faulty::{FaultKind, FaultOp, FaultPlan, FaultyBackend};
pub use local::LocalDirBackend;
pub use manifest::{
    EntryKind, EntryRef, Manifest, ManifestEntry, ManifestError, ManifestLock, ManifestReader,
};
pub use recovery::{recover, recover_dir, RecoveryReport};
pub use sentinel::{is_no_space, is_no_space_io, no_space_error, DiskSentinel, PressureLevel};
