//! # damaris-fs
//!
//! Parallel file system substrates for the Damaris reproduction.
//!
//! The paper evaluates on three machines with three different parallel file
//! systems, and attributes distinct bottlenecks to each (§I, §II-B):
//!
//! * **Lustre** (Kraken) — a *single metadata server*: simultaneous file
//!   creations are serialized, so the file-per-process approach suffers a
//!   metadata storm; shared files suffer extent-lock contention on OSTs.
//! * **PVFS** (Grid'5000) — distributed metadata over the I/O servers, no
//!   client-side locking; less sensitive to file counts.
//! * **GPFS** (BluePrint) — byte-range locking through a token manager and
//!   few NSD servers; shared-file writes pay token steals.
//!
//! This crate provides:
//!
//! * [`FsSpec`] — a parameterized cost/structure model of such a file
//!   system (metadata serialization, striping, lock semantics), consumed by
//!   the discrete-event simulator in `damaris-sim`, with calibrated
//!   constructors [`FsSpec::lustre`], [`FsSpec::pvfs`], [`FsSpec::gpfs`];
//! * [`striping`] — deterministic mapping of byte ranges of a file onto
//!   data servers (round-robin stripes, hashed first server), shared by all
//!   three models;
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
pub mod model;
pub mod recovery;
pub mod sentinel;
pub mod striping;

pub use backend::StorageBackend;
pub use clock::{IoClock, VirtualClock, WallClock};
pub use faulty::{FaultKind, FaultOp, FaultPlan, FaultyBackend};
pub use local::LocalDirBackend;
pub use manifest::{
    EntryKind, EntryRef, Manifest, ManifestEntry, ManifestError, ManifestLock, ManifestReader,
};
pub use model::{FsSpec, LockMode};
pub use recovery::{recover, recover_dir, RecoveryReport};
pub use sentinel::{is_no_space, is_no_space_io, no_space_error, DiskSentinel, PressureLevel};
pub use striping::{stripes_for, StripeSlice};
