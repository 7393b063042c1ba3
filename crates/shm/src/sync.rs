//! The synchronization facade — the **only** module in this crate (and in
//! `damaris-core`) allowed to name `std::sync::atomic` or `parking_lot`.
//! Everything else imports primitives from here, so one `--features check`
//! flip swaps the entire substrate onto the `damaris-check` model checker:
//!
//! * default build: zero-cost re-exports of `std`/`parking_lot` types;
//! * `check` build: every atomic access, lock, yield, and unsafe-cell
//!   access becomes a schedule point / happens-before event of the
//!   deterministic explorer (see `crates/check`), and the model tests in
//!   `tests/model.rs` exhaustively verify the queue and allocators.
//!
//! `cargo run -p xtask -- analyze` enforces the import rule; CI runs
//! both builds. [`CachePadded`], the one padding type, lives here too, so
//! every padded word is a facade word in either build.

#[cfg(feature = "check")]
pub use damaris_check::{
    cell::RangeTracker,
    hint::spin_loop,
    sync::{
        atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering},
        Arc, Mutex,
    },
    thread::yield_now,
};

#[cfg(not(feature = "check"))]
pub use std::{
    hint::spin_loop,
    sync::{
        atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering},
        Arc,
    },
    thread::yield_now,
};

#[cfg(not(feature = "check"))]
pub use parking_lot::Mutex;

/// An `UnsafeCell` with the `loom`-style closure API. In the default
/// build `with`/`with_mut` compile to a bare pointer handoff; under
/// `check` every access is declared to the race detector, so conflicting
/// unsynchronized accesses fail the model run instead of being UB.
#[cfg(feature = "check")]
pub type ShmCell<T> = damaris_check::cell::CheckCell<T>;

/// See the `check`-mode documentation above; this is the zero-cost build.
#[cfg(not(feature = "check"))]
#[derive(Default)]
pub struct ShmCell<T>(std::cell::UnsafeCell<T>);

// SAFETY: `ShmCell` is a transparent `UnsafeCell`; the queue and buffer
// that embed it enforce exclusivity by protocol (slot sequence numbers /
// allocator disjointness), which the `check` build verifies. `T: Send`
// is required because values move across threads through the cell.
#[cfg(not(feature = "check"))]
unsafe impl<T: Send> Send for ShmCell<T> {}
// SAFETY: as above — shared access is mediated by the embedding type's
// protocol, model-checked under `--features check`.
#[cfg(not(feature = "check"))]
unsafe impl<T: Send> Sync for ShmCell<T> {}

#[cfg(not(feature = "check"))]
impl<T> ShmCell<T> {
    pub fn new(v: T) -> Self {
        ShmCell(std::cell::UnsafeCell::new(v))
    }

    /// Immutable access to the contents via raw pointer.
    #[inline(always)]
    pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        f(self.0.get())
    }

    /// Mutable access to the contents via raw pointer.
    #[inline(always)]
    pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        f(self.0.get())
    }
}

/// A value on a 128-byte block of its own: aligned to it, and padded to
/// it, so no other value shares a cache line — or the adjacent line
/// Intel's spatial prefetcher fetches in pairs — with it. Wrap a word one
/// side of the client↔core handoff writes often so that the other side's
/// reads of its neighbours stop missing (DESIGN.md §8, "Who writes which
/// line"). The same type in both builds: padding is layout, not protocol.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    pub const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    #[inline(always)]
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Byte-range access declarations for the shared buffer: no-ops in the
/// default build, race-checked under `check` (segment reads/writes must
/// be happens-before ordered unless disjoint).
#[cfg(not(feature = "check"))]
#[derive(Debug, Default)]
pub struct RangeTracker;

#[cfg(not(feature = "check"))]
impl RangeTracker {
    pub fn new() -> Self {
        RangeTracker
    }

    /// Declares a read of `[start, start + len)` (no-op in this build).
    #[inline(always)]
    pub fn read(&self, _start: usize, _len: usize) {}

    /// Declares a write of `[start, start + len)` (no-op in this build).
    #[inline(always)]
    pub fn write(&self, _start: usize, _len: usize) {}
}
