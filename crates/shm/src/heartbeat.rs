//! The dedicated core's liveness word.
//!
//! One shared word, written only by the current dedicated core, packing a
//! 32-bit **epoch** (a new one for each incarnation of the core, published
//! after its replay) and a 32-bit **beat** counter (bumped by the server
//! between events and on every idle poll of its queue). Clients observe
//! the word while they wait on a full buffer: a beat that stops advancing
//! for longer than the configured window means the dedicated core is dead
//! or wedged, and the client degrades per its backpressure policy; an
//! epoch change means a new server took over and waiting clients may
//! retry.
//!
//! ## Memory-ordering argument (verified under `--features check`)
//!
//! The word is single-writer: exactly one incarnation of the dedicated
//! core is alive at a time, and the two writers are ordered. In a thread,
//! the dead incarnation unwinds on the thread its successor then runs on;
//! a successor process starts only after the launcher has reaped its
//! predecessor. [`HeartbeatWord::begin_epoch`] and [`HeartbeatWord::beat`]
//! store with `Release` so that everything the new server set up before
//! announcing its epoch — notice replay, re-adopted segments — is
//! visible to a client whose `Acquire` [`HeartbeatWord::observe`] sees
//! the new epoch. The model test in `tests/model.rs` proves the pair,
//! and its seeded-bug twin proves the checker rejects a `Relaxed` store.

use crate::sync::{AtomicU64, Ordering};

fn pack(epoch: u32, beat: u32) -> u64 {
    (u64::from(epoch) << 32) | u64::from(beat)
}

/// The epoch + liveness word published by the dedicated core.
///
/// `repr(transparent)` over one facade atomic so the word can live
/// *anywhere* an `AtomicU64` fits — a slot of a node's layout (see
/// [`HeartbeatWord::from_word`]), on the heap or in a file mapping, or a
/// model test's own word. Either way the protocol code here is the same,
/// and the same code is what the model tests check.
#[derive(Debug)]
#[repr(transparent)]
pub struct HeartbeatWord {
    word: AtomicU64,
}

impl Default for HeartbeatWord {
    fn default() -> Self {
        Self::new()
    }
}

impl HeartbeatWord {
    /// Starts at epoch 0, beat 0.
    pub fn new() -> Self {
        HeartbeatWord {
            word: AtomicU64::new(0),
        }
    }

    /// Views an existing atomic word — e.g. a slot of a shared mapping —
    /// as a heartbeat word. The caller must uphold the single-writer
    /// contract (exactly one server beats the word at a time) exactly as
    /// for an owned `HeartbeatWord`.
    pub fn from_word(word: &AtomicU64) -> &Self {
        // SAFETY: `HeartbeatWord` is `repr(transparent)` over `AtomicU64`,
        // so the reference cast is layout-sound; the returned borrow
        // keeps the underlying word alive.
        unsafe { &*(word as *const AtomicU64 as *const HeartbeatWord) }
    }

    /// Announces a (re)started server: epoch `epoch`, beat reset to 0.
    /// Single-writer (see module docs): only the current server calls this.
    pub fn begin_epoch(&self, epoch: u32) {
        // Release: publishes the new server's setup (notice replay,
        // re-adopted segments) to clients that Acquire-observe the epoch.
        self.word.store(pack(epoch, 0), Ordering::Release);
    }

    /// Advances the beat counter within the current epoch. Single-writer,
    /// so a plain load+store (no RMW) is race-free. The beat wraps at
    /// 2^32; observers compare for *change*, not magnitude, so the wrap
    /// is harmless (and unreachable in any realistic run).
    pub fn beat(&self) {
        // Relaxed load: we are the only writer, the value cannot move
        // under us. Release store: a client seeing the new beat also sees
        // every event effect published before it.
        let w = self.word.load(Ordering::Relaxed);
        let (epoch, beat) = ((w >> 32) as u32, w as u32);
        self.word
            .store(pack(epoch, beat.wrapping_add(1)), Ordering::Release);
    }

    /// Snapshot of `(epoch, beat)`.
    pub fn observe(&self) -> (u32, u32) {
        // Acquire: pairs with the server's Release stores above.
        let w = self.word.load(Ordering::Acquire);
        ((w >> 32) as u32, w as u32)
    }

    /// Current epoch only.
    pub fn epoch(&self) -> u32 {
        self.observe().0
    }
}

// Plain-build unit tests; the ordering itself is exercised by the model
// tests in `tests/model.rs` under `--features check`.
#[cfg(all(test, not(feature = "check")))]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let hb = HeartbeatWord::new();
        assert_eq!(hb.observe(), (0, 0));
        assert_eq!(hb.epoch(), 0);
    }

    #[test]
    fn beats_advance_within_epoch() {
        let hb = HeartbeatWord::new();
        hb.beat();
        hb.beat();
        assert_eq!(hb.observe(), (0, 2));
    }

    #[test]
    fn epoch_change_resets_beat() {
        let hb = HeartbeatWord::new();
        hb.beat();
        hb.begin_epoch(3);
        assert_eq!(hb.observe(), (3, 0));
        hb.beat();
        assert_eq!(hb.observe(), (3, 1));
    }

    #[test]
    fn beat_wrap_preserves_epoch() {
        let hb = HeartbeatWord::new();
        hb.begin_epoch(7);
        // Force the beat counter to the wrap boundary.
        hb.word.store(super::pack(7, u32::MAX), Ordering::Release);
        hb.beat();
        assert_eq!(hb.observe(), (7, 0));
    }
}
