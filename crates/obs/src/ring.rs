//! The lock-free trace ring: a bounded flight recorder for
//! [`TraceRecord`]s sitting between the instrumented hot paths (writers)
//! and the dedicated core's flusher (single consumer).
//!
//! # Requirements (ISSUE: tentpole part 1)
//!
//! * **Never block the hot path.** A full ring *drops the oldest* record
//!   (flight-recorder semantics) and counts the loss exactly; a client
//!   write never waits on the flusher.
//! * **Facade-routed.** Every atomic and cell access goes through
//!   `damaris_shm::sync`, so `--features check` puts the model checker
//!   under the whole protocol (see `tests/model.rs`).
//! * **Relaxed cursors.** The `head`/`tail` position counters are Relaxed
//!   ticket dispensers; all *publication* rides the per-slot `seq` words
//!   (Release store / Acquire load), exactly like the shm event queue.
//!
//! # Protocol
//!
//! Positions are unbounded counters; position `p` maps to slot
//! `p & (cap-1)`. A slot's `seq` word encodes its state for position `p`:
//!
//! ```text
//! seq == p        free: the position-p writer may fill it
//! seq == p + 1    full: written at p, not yet read
//! seq == p + 2    claimed: the flusher is copying it out
//! seq == p + cap  free again, for the position-(p+cap) writer
//! ```
//!
//! Writer at `p`: wait for `seq == p` (or steal a full, unread slot from
//! one lap behind via CAS `p-cap+1 → p`, bumping `dropped` — that is the
//! drop-oldest), write the value, publish with `seq = p+1` (Release).
//!
//! Flusher at cursor `f`: claim a full slot via CAS `f+1 → f+2`
//! (Acquire), copy the value out, release with `seq = f+cap` (Release).
//! When a writer has lapped the cursor, `seq mod cap` tells which state
//! the slot is in and the cursor jumps forward to the oldest position
//! that can still be live (`seq - cap` or `seq - cap + 1`).
//!
//! The claimed state (`p+2`) makes the writer/flusher handoff a real
//! ownership transfer: a drop-oldest CAS *fails* while the flusher is
//! mid-copy, and the writer spins for the duration of one 40-byte copy —
//! the only (bounded) wait on the path.
//!
//! Capacity must be a power of two ≥ 4 so the claimed state `p+2` can
//! never collide with another lap's state (`p+2 ≡ p (mod cap)` requires
//! `cap ≤ 2`).
//!
//! # Accounting invariant
//!
//! `pushed() == flushed + dropped() + still-in-ring`. The model tests and
//! the stress test assert it; `dropped` is exact because only a
//! *successful* steal CAS increments it, and each steal overwrites
//! exactly one unread record.

use damaris_format::trace::TraceRecord;
use damaris_shm::sync::{yield_now, Arc, AtomicU64, AtomicUsize, Ordering, ShmCell};

/// One slot: the state word plus the record cell it guards.
struct Slot {
    seq: AtomicUsize,
    val: ShmCell<TraceRecord>,
}

/// The ring. Writers are the instrumented hot paths (multi-producer: a
/// cloned client handle shares its ring); the flusher is the dedicated
/// core (single consumer).
pub struct TraceRing {
    slots: Box<[Slot]>,
    mask: usize,
    /// Next write position — a Relaxed ticket dispenser; the per-slot
    /// `seq` words do all publication.
    head: AtomicUsize,
    /// Flusher cursor. Relaxed: only the single consumer touches it.
    tail: AtomicUsize,
    /// Records overwritten by drop-oldest. Monotonic and exact.
    dropped: AtomicU64,
}

impl TraceRing {
    /// Creates a ring with `capacity` slots (power of two, ≥ 4).
    pub fn new(capacity: usize) -> Arc<TraceRing> {
        assert!(
            capacity >= 4 && capacity.is_power_of_two(),
            "trace ring capacity must be a power of two >= 4, got {capacity}"
        );
        let slots = (0..capacity)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                val: ShmCell::new(TraceRecord::default()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Arc::new(TraceRing {
            slots,
            mask: capacity - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records pushed so far (including ones later dropped).
    pub fn pushed(&self) -> u64 {
        // Relaxed: diagnostic read; exact once writers are quiescent.
        self.head.load(Ordering::Relaxed) as u64
    }

    /// Records lost to drop-oldest so far.
    pub fn dropped(&self) -> u64 {
        // Relaxed: diagnostic read; exact once writers are quiescent.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends a record, overwriting the oldest unread one if the ring is
    /// full. Never blocks on the flusher beyond the length of one record
    /// copy (the claimed-slot window).
    // ANALYZE: hot
    pub fn push(&self, record: TraceRecord) {
        let cap = self.slots.len();
        // Relaxed ticket claim: position ownership is exclusive by the
        // fetch_add itself; ordering comes from `seq` below.
        let p = self.head.fetch_add(1, Ordering::Relaxed);
        // ANALYZE: in-bounds(slots.len() is a power of two and mask = len - 1)
        let slot = &self.slots[p & self.mask];
        let lap_behind_full = p.wrapping_sub(cap).wrapping_add(1);
        loop {
            // Acquire: seeing `seq == p` (stored Release by the flusher or
            // by slot init) happens-after the flusher's copy-out, so our
            // overwrite below cannot race with its read.
            let s = slot.seq.load(Ordering::Acquire);
            if s == p {
                break;
            }
            if s == lap_behind_full {
                // Full and unread from one lap behind: drop-oldest. The
                // Acquire success ordering pairs with the *writer's own*
                // previous-lap Release publish — no flusher ever touched
                // this record (it would have moved seq to p-cap+2).
                if slot
                    .seq
                    .compare_exchange(s, p, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    // Relaxed: pure counter, read after quiescence.
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                // Lost the CAS to the flusher claiming it: fall through
                // and wait out its (one-copy-long) read.
            }
            // Flusher mid-copy, or an earlier-lap writer still pending:
            // both are one bounded record-copy away from releasing.
            yield_now();
        }
        // SAFETY: the protocol above made us the unique owner of the slot
        // for position `p` (seq == p is only ever observed/installed by
        // one claimant, and the flusher cannot claim until seq == p+1).
        slot.val.with_mut(|ptr| unsafe { *ptr = record });
        // Release: publishes the record bytes to the flusher's Acquire
        // claim CAS.
        slot.seq.store(p.wrapping_add(1), Ordering::Release);
    }

    /// Drains every currently-readable record into `out` (file order =
    /// ring order) and returns how many were appended. Single consumer:
    /// must only be called from one thread at a time (the dedicated core).
    pub fn flush_into(&self, out: &mut Vec<TraceRecord>) -> usize {
        let cap = self.slots.len();
        // Relaxed: the cursor is consumer-private state.
        let mut f = self.tail.load(Ordering::Relaxed);
        let taken = out.len();
        loop {
            let slot = &self.slots[f & self.mask];
            // Acquire: pairs with the writer's Release publish so the
            // record bytes are visible before we copy them.
            let s = slot.seq.load(Ordering::Acquire);
            if s == f {
                // Nothing written at this position yet (a writer may be
                // mid-fill; its record will be caught next flush).
                break;
            } else if s == f.wrapping_add(1) {
                // Full at position f: claim it so a lapping writer's
                // drop-oldest CAS fails while we copy.
                if slot
                    .seq
                    .compare_exchange(s, f.wrapping_add(2), Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    // SAFETY: the claim CAS made us the unique reader; the
                    // writer for position f+cap spins until our Release
                    // store below, so the cell is unaliased while we copy.
                    let rec = slot.val.with(|ptr| unsafe { *ptr });
                    // Release: hands the slot to the next lap's writer,
                    // ordering our read before its overwrite.
                    slot.seq.store(f.wrapping_add(cap), Ordering::Release);
                    out.push(rec);
                    f = f.wrapping_add(1);
                }
                // CAS failure: a writer stole the slot (drop-oldest) —
                // loop; the lapped arm below will jump the cursor.
            } else {
                // A writer lapped the cursor: `s` belongs to a later lap.
                // `s mod cap` tells the slot's state and thus where the
                // oldest possibly-live record now sits.
                let phase = s.wrapping_sub(f) & self.mask;
                if phase == 0 {
                    // Slot free for the position-`s` writer: everything
                    // below `s` in this slot was consumed; the oldest
                    // live record anywhere is at `s - cap + 1`.
                    f = s.wrapping_sub(cap).wrapping_add(1);
                } else if phase == 1 {
                    // Slot full at position `s - 1`: oldest live record
                    // anywhere is at `s - cap`.
                    f = s.wrapping_sub(cap);
                } else {
                    // Claimed state from another lap cannot be observed by
                    // the only flusher; defensively wait it out.
                    yield_now();
                }
            }
        }
        // Relaxed: consumer-private cursor update.
        self.tail.store(f, Ordering::Relaxed);
        out.len() - taken
    }
}

#[cfg(all(test, not(feature = "check")))]
mod tests {
    use super::*;
    use damaris_format::trace::TraceRecord;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord {
            t_ns: i,
            dur_ns: i * 2,
            bytes: i,
            ..TraceRecord::default()
        }
    }

    #[test]
    fn fifo_without_overflow() {
        let ring = TraceRing::new(8);
        for i in 0..5 {
            ring.push(rec(i));
        }
        let mut out = Vec::new();
        assert_eq!(ring.flush_into(&mut out), 5);
        assert_eq!(
            out.iter().map(|r| r.t_ns).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.pushed(), 5);
        assert_eq!(ring.flush_into(&mut out), 0);
    }

    #[test]
    fn overflow_drops_oldest_exactly() {
        let ring = TraceRing::new(4);
        for i in 0..10 {
            ring.push(rec(i));
        }
        let mut out = Vec::new();
        let n = ring.flush_into(&mut out);
        assert_eq!(n, 4, "ring retains exactly its capacity");
        assert_eq!(
            out.iter().map(|r| r.t_ns).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "the newest records survive"
        );
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.pushed(), 10);
        // Invariant: pushed == flushed + dropped (+ 0 still in ring).
        assert_eq!(ring.pushed(), out.len() as u64 + ring.dropped());
    }

    #[test]
    fn interleaved_flushes_keep_accounting() {
        let ring = TraceRing::new(4);
        let mut out = Vec::new();
        for round in 0..50u64 {
            for i in 0..3 {
                ring.push(rec(round * 3 + i));
            }
            ring.flush_into(&mut out);
        }
        assert_eq!(ring.pushed(), out.len() as u64 + ring.dropped());
        // No overflow when flushed every 3 pushes into a 4-ring.
        assert_eq!(ring.dropped(), 0);
        assert_eq!(out.len(), 150);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_tiny_capacity() {
        let _ = TraceRing::new(2);
    }

    #[test]
    fn concurrent_writers_and_flusher_stress() {
        // 4 writer threads × 5k records against a small ring with a
        // concurrent flusher: every record is either flushed or counted
        // dropped, never both, never lost.
        let ring = TraceRing::new(64);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut writers = Vec::new();
        for w in 0..4u64 {
            let ring = Arc::clone(&ring);
            writers.push(std::thread::spawn(move || {
                for i in 0..5000u64 {
                    ring.push(rec(w * 1_000_000 + i));
                }
            }));
        }
        let flusher = {
            let ring = Arc::clone(&ring);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    ring.flush_into(&mut out);
                }
                ring.flush_into(&mut out); // final drain
                out
            })
        };
        for h in writers {
            h.join().expect("writer");
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        let out = flusher.join().expect("flusher");
        assert_eq!(ring.pushed(), 20_000);
        assert_eq!(
            out.len() as u64 + ring.dropped(),
            20_000,
            "flushed + dropped covers every push"
        );
        // Per-writer subsequences arrive in order (drop-oldest removes a
        // prefix of what it removes, never reorders survivors).
        for w in 0..4u64 {
            let seq: Vec<u64> = out
                .iter()
                .filter(|r| r.t_ns / 1_000_000 == w)
                .map(|r| r.t_ns)
                .collect();
            assert!(seq.windows(2).all(|p| p[0] < p[1]), "writer {w} order");
        }
    }
}
