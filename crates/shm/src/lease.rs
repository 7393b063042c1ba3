//! Per-client liveness leases — the symmetric twin of [`crate::HeartbeatWord`].
//!
//! The heartbeat word lets *clients* detect a dead dedicated core; a
//! [`ClientLease`] lets the *dedicated core* detect a dead client. Each
//! client owns one lease word packing a 31-bit **epoch** (the client
//! generation, set at registration) and a 32-bit **beat** counter, renewed
//! on every API call (`write`, `alloc`, `signal`, `end_iteration`) and
//! from the client's wait loops. An EPE-side sweeper samples the words: a
//! beat that stops advancing for longer than the configured lease window
//! means the client is dead or wedged, and its shared-memory resources can
//! be reclaimed.
//!
//! ## The revoke/renew arbitration
//!
//! Reclamation must never race a client that was merely slow. The lease
//! word itself arbitrates, CHESS-style, through its top bit:
//!
//! * [`ClientLease::renew`] is a compare-exchange from the word the client
//!   last published. It fails — permanently — once the revoked bit is set,
//!   and the client must then stop touching the shared buffer and surface
//!   a *fenced* error to the application.
//! * [`ClientLease::try_revoke`] is a compare-exchange from the sweeper's
//!   *stale snapshot*: it can only succeed while the beat still holds the
//!   value observed a full lease window ago. A client that renewed in
//!   between changes the word and the revoke fails — a false-positive
//!   expiry aborts harmlessly.
//!
//! Exactly one side wins: a successful renew forces the revoke to fail and
//! vice versa. After a successful revoke the client can never again pass
//! `renew`, so it can never again *begin* an operation on its buffer
//! region; an operation already past its entry renew may still store its
//! ring `head` once (the classic lease grace window), which is why
//! reclamation sweeps run repeatedly rather than once — see
//! [`crate::ring::ring_reclaim`]. The revoked bit is also the fence
//! itself: it lives in the node's layout, so a respawned dedicated core
//! reads which clients its predecessor fenced from the lease words.
//!
//! ## Memory-ordering argument (verified under `--features check`)
//!
//! `renew` succeeds with `AcqRel`: the Release half publishes everything
//! the client wrote before renewing (the sweeper's Acquire observation of
//! the new beat sees those writes); the Acquire half of a *failed* renew
//! synchronizes with the sweeper's Release revoke, so a fenced client also
//! observes whatever the sweeper published before revoking (the notices
//! it applied, the segments it released). `try_revoke` uses `AcqRel` for the
//! mirror-image reasons. The model tests in `tests/model.rs` prove the
//! pair and the mutual exclusion, and the seeded-bug twins prove the
//! checker rejects a Relaxed renew and a blind (non-CAS) revoke.

use crate::sync::{AtomicU64, Ordering};

/// Top bit of the lease word: set exactly once, by a successful revoke.
const REVOKED: u64 = 1 << 63;

fn pack(epoch: u32, beat: u32) -> u64 {
    (u64::from(epoch & 0x7FFF_FFFF) << 32) | u64::from(beat)
}

/// An opaque point-in-time observation of a lease word, held by the
/// sweeper across a lease window and passed back to
/// [`ClientLease::try_revoke`] as the compare-exchange expectation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseSnapshot(u64);

impl LeaseSnapshot {
    /// Client generation at observation time.
    pub fn epoch(&self) -> u32 {
        ((self.0 & !REVOKED) >> 32) as u32
    }

    /// Beat counter at observation time.
    pub fn beat(&self) -> u32 {
        self.0 as u32
    }

    /// Whether the lease was already revoked when observed.
    pub fn revoked(&self) -> bool {
        self.0 & REVOKED != 0
    }
}

/// One client's liveness lease word.
///
/// `repr(transparent)` over one facade atomic so the word can live in a
/// slot of a node's layout (via [`ClientLease::from_word`]), on the heap
/// or in a file mapping, while running exactly the model-checked protocol
/// below.
#[derive(Debug)]
#[repr(transparent)]
pub struct ClientLease {
    word: AtomicU64,
}

impl Default for ClientLease {
    fn default() -> Self {
        Self::new()
    }
}

impl ClientLease {
    /// Starts at epoch 0, beat 0, not revoked.
    pub fn new() -> Self {
        ClientLease {
            word: AtomicU64::new(0),
        }
    }

    /// Views an existing atomic word — e.g. a slot of a shared mapping —
    /// as a lease word. The caller must uphold the one-renewer /
    /// one-revoker contract exactly as for an owned `ClientLease`.
    pub fn from_word(word: &AtomicU64) -> &Self {
        // SAFETY: `ClientLease` is `repr(transparent)` over `AtomicU64`,
        // so the reference cast is layout-sound; the returned borrow
        // keeps the underlying word alive.
        unsafe { &*(word as *const AtomicU64 as *const ClientLease) }
    }

    /// Announces a (re)registered client: epoch `epoch`, beat reset, the
    /// revoked bit cleared. Must only be called while no sweeper watches
    /// the lease (at node construction / coordinated re-admission) — it is
    /// a blind store, not an arbitration.
    pub fn begin_epoch(&self, epoch: u32) {
        // Release: publishes the client's registration-time setup to a
        // sweeper that Acquire-observes the new epoch.
        self.word.store(pack(epoch, 0), Ordering::Release);
    }

    /// Renews the lease: advances the beat within the current epoch.
    ///
    /// Returns `false` — permanently — once the lease has been revoked;
    /// the caller is fenced and must stop touching its buffer region.
    /// Called by the owning client only (single renewer per lease).
    pub fn renew(&self) -> bool {
        // Acquire: if this load already sees the revoked bit (early
        // return below), it must synchronize with the sweeper's Release
        // revoke just like the CAS-failure path does, so *every* `false`
        // from renew orders the fenced client after the fencing state.
        let old = self.word.load(Ordering::Acquire);
        if old & REVOKED != 0 {
            return false;
        }
        let (epoch, beat) = (((old >> 32) as u32) & 0x7FFF_FFFF, old as u32);
        let new = pack(epoch, beat.wrapping_add(1));
        // AcqRel on success: the Release half publishes the client's prior
        // writes to the sweeper's Acquire observation; Acquire on failure:
        // synchronizes with the sweeper's Release revoke so the fenced
        // client sees the fencing state published before it.
        match self
            .word
            .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => true,
            // The word changed under us. The client is the only renewer,
            // so the only possible interleaved write is a revoke.
            Err(current) => {
                debug_assert!(current & REVOKED != 0, "lease changed by a non-revoker");
                false
            }
        }
    }

    /// Snapshot for expiry tracking (sweeper side).
    pub fn snapshot(&self) -> LeaseSnapshot {
        // Acquire: pairs with the client's Release renew, ordering the
        // sweeper's reads after the work the beat covers.
        LeaseSnapshot(self.word.load(Ordering::Acquire))
    }

    /// `(epoch, beat)` view, for diagnostics and tests.
    pub fn observe(&self) -> (u32, u32) {
        let s = self.snapshot();
        (s.epoch(), s.beat())
    }

    /// Whether the lease has been revoked.
    pub fn is_revoked(&self) -> bool {
        self.snapshot().revoked()
    }

    /// Attempts to revoke an expired lease. `since` must be a snapshot
    /// taken at least a full lease window earlier; the revoke succeeds
    /// only if the word is *still* exactly that value — i.e. the client
    /// has not renewed since. Returns `false` (and changes nothing) when
    /// the client renewed in between or the lease is already revoked.
    /// Called by the sweeper only (single revoker per lease).
    pub fn try_revoke(&self, since: LeaseSnapshot) -> bool {
        if since.revoked() {
            return false;
        }
        // AcqRel on success: the Release half publishes the fencing state
        // the sweeper set up before revoking (a fenced client's failed
        // renew Acquires it); the Acquire half orders the sweeper's
        // subsequent reclamation reads after the client's last renew.
        self.word
            .compare_exchange(
                since.0,
                since.0 | REVOKED,
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
    }
}

// Plain-build unit tests; the ordering and the renew/revoke arbitration
// are exercised by the model tests in `tests/model.rs` under
// `--features check`.
#[cfg(all(test, not(feature = "check")))]
mod tests {
    use super::*;

    #[test]
    fn renew_advances_beat_within_epoch() {
        let lease = ClientLease::new();
        assert_eq!(lease.observe(), (0, 0));
        assert!(lease.renew());
        assert!(lease.renew());
        assert_eq!(lease.observe(), (0, 2));
        assert!(!lease.is_revoked());
    }

    #[test]
    fn begin_epoch_resets_beat() {
        let lease = ClientLease::new();
        lease.renew();
        lease.begin_epoch(5);
        assert_eq!(lease.observe(), (5, 0));
        assert!(lease.renew());
        assert_eq!(lease.observe(), (5, 1));
    }

    #[test]
    fn revoke_requires_stale_snapshot() {
        let lease = ClientLease::new();
        let snap = lease.snapshot();
        // The client renews after the snapshot: the revoke must fail.
        assert!(lease.renew());
        assert!(!lease.try_revoke(snap));
        assert!(!lease.is_revoked());
        // A fresh snapshot with no renewal in between succeeds.
        let snap = lease.snapshot();
        assert!(lease.try_revoke(snap));
        assert!(lease.is_revoked());
    }

    #[test]
    fn renew_fails_permanently_after_revoke() {
        let lease = ClientLease::new();
        assert!(lease.try_revoke(lease.snapshot()));
        assert!(!lease.renew());
        assert!(!lease.renew());
        // Epoch/beat survive under the revoked bit for diagnostics.
        assert_eq!(lease.observe(), (0, 0));
    }

    #[test]
    fn double_revoke_is_rejected() {
        let lease = ClientLease::new();
        let snap = lease.snapshot();
        assert!(lease.try_revoke(snap));
        // Same stale snapshot: the word now carries the revoked bit.
        assert!(!lease.try_revoke(snap));
        // A snapshot of the revoked word is rejected up front.
        assert!(!lease.try_revoke(lease.snapshot()));
    }

    #[test]
    fn beat_wrap_preserves_epoch() {
        let lease = ClientLease::new();
        lease.begin_epoch(3);
        lease.word.store(pack(3, u32::MAX), Ordering::Release);
        assert!(lease.renew());
        assert_eq!(lease.observe(), (3, 0));
    }
}
