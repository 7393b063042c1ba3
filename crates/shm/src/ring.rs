//! The partition-ring protocol over *bare words* — the one implementation
//! behind [`crate::mapped`] (words in a node's layout — **inside the
//! shared mapping** of a process node, so a client's reservation survives
//! the EPE being `kill -9`'d and vice versa) and
//! [`crate::PartitionAllocator`] (words in a process-private `Vec`). The model tests (`tests/model.rs`, `--features check`) run it
//! over heap-allocated facade [`AtomicU64`]s.
//!
//! A ring is `cap` bytes and three monotonic counters, each with a single
//! writer:
//!
//! * `head` — bytes ever reserved, wrap and rewind padding included;
//!   written by the owning client.
//! * `tail` — bytes ever released; written by the consumer, **in FIFO
//!   order**.
//! * `floor` — the value of `head` at the last *rewind*; written by the
//!   owning client.
//!
//! A reservation sits at `head % cap`. One that would straddle the end of
//! the region skips the remaining bytes (wrap padding), and **one made
//! while the ring is empty starts over at offset 0** (a rewind: `head`
//! skips to the next multiple of `cap`, remembered in `floor`), so a
//! client that drains between bursts keeps writing the same, cache- and
//! TLB-warm bytes instead of walking the whole region. Either padding is
//! recovered at release from the segment's position, which the FIFO
//! discipline makes unambiguous. The bytes a rewind skips are not live —
//! nothing was ever reserved in them — so the live window is
//! `[max(tail, floor), head)`: `Full` stays exact and a rewound ring has
//! its whole capacity.
//!
//! ## Memory-ordering argument (verified under `--features check`)
//!
//! Each owner loads its own counters `Relaxed` (it always sees its own
//! latest value) and the other side's `Acquire` against the owner's
//! `Release` store. The Acquire on `tail` in `ring_reserve` is what makes
//! recycling sound: observing `tail = t` means the consumer finished
//! reading every byte below `t`, so overwriting them cannot race. The same
//! load makes a rewind sound: `tail == head` says every reservation ever
//! made was released, and only the owner can end that state, so emptiness
//! it observes is stable until its own next store. `floor` publishes no
//! data and needs no stronger ordering than `head` has: it is stored,
//! `Release` like `head`, *before* the store of `head` that goes with it,
//! so whoever Acquire-loads a `head` past a rewind then loads that
//! rewind's `floor` or a later one. A later one exceeds the `head` it is
//! read with, which says the ring was empty at that `head`.

use crate::sync::{AtomicU64, CachePadded, Ordering};
use crate::AllocError;

/// Alignment granted to every reservation (shared with the allocators).
pub const RING_ALIGN: u64 = 8;

/// Rounds a byte length up to the ring granularity (min one unit).
pub fn ring_rounded(len: u64) -> u64 {
    len.div_ceil(RING_ALIGN).max(1) * RING_ALIGN
}

/// One ring's words, wherever they live, and its capacity in bytes.
#[derive(Clone, Copy)]
pub struct Ring<'a> {
    pub head: &'a AtomicU64,
    pub tail: &'a AtomicU64,
    pub floor: &'a AtomicU64,
    pub cap: u64,
}

/// The three words as one value, for a ring that is not laid out in a
/// mapping (`PartitionAllocator`'s regions, the tests). `head` and `tail`
/// each have a block of their own: the client writes `head` on every
/// reservation and the consumer `tail` on every release, and with ranks on
/// separate cores neither should cost the other a miss. `floor` changes
/// only on a rewind.
#[derive(Debug, Default)]
pub struct RingWords {
    pub head: CachePadded<AtomicU64>,
    pub tail: CachePadded<AtomicU64>,
    pub floor: AtomicU64,
}

impl RingWords {
    /// These words as a ring of `cap` bytes.
    pub fn ring(&self, cap: u64) -> Ring<'_> {
        Ring {
            head: &self.head,
            tail: &self.tail,
            floor: &self.floor,
            cap,
        }
    }
}

/// Where [`ring_reserve`] put a reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reserved {
    /// Byte offset within the region (the caller adds the region's base
    /// offset).
    pub start: u64,
    /// Where it starts in the ring's monotonic byte count: `head` before
    /// it, plus the padding it skipped; `start` is this modulo `cap`.
    /// Positions order a ring's reservations as they were made — the
    /// order [`ring_release`] must follow.
    pub position: u64,
    /// Free bytes right after it, up to the ring's end: where the next
    /// reservation starts, as far as it can go without waiting for a
    /// release or wrapping.
    pub ahead: u64,
}

/// Reserves `len` bytes. Must only be called by the single owner of
/// `head` and `floor`.
///
/// Lock-free: three loads and one store, two stores on a rewind.
// ANALYZE: hot
pub fn ring_reserve(ring: &Ring<'_>, len: u64) -> Result<Reserved, AllocError> {
    let cap = ring.cap;
    let need = ring_rounded(len);
    if need > cap {
        return Err(AllocError::TooLarge);
    }
    // Relaxed: only the calling client writes `head`. Acquire on `tail`:
    // pairs with the consumer's Release in `ring_release`/`ring_reclaim`,
    // ordering its reads of the freed bytes before our overwrite of them.
    let h = ring.head.load(Ordering::Relaxed);
    let t = ring.tail.load(Ordering::Acquire);
    let pos = h % cap;
    if t == h {
        // Empty, and it stays empty until we store: rewind to offset 0.
        let base = if pos == 0 { h } else { h + cap - pos };
        // Release, `floor` first: whoever Acquire-loads this `head` and
        // then `floor` finds this floor (or a later one) with it.
        ring.floor.store(base, Ordering::Release);
        ring.head.store(base + need, Ordering::Release);
        return Ok(Reserved {
            start: 0,
            position: base,
            ahead: cap - need,
        });
    }
    // Cannot underflow: the consumer only releases what we reserved, and
    // `floor` was a value of `head`, so both are below `h`.
    let used = h - t.max(ring.floor.load(Ordering::Relaxed));
    let (pad, start) = if pos + need <= cap {
        (0, pos)
    } else {
        (cap - pos, 0)
    };
    if used + pad + need > cap {
        return Err(AllocError::Full);
    }
    // Release: publishes the reservation to `ring_in_use` observers and
    // the consumer's checks; the data itself is published by whatever
    // hands the range to the consumer (event queue, `Commit` frame).
    ring.head.store(h + pad + need, Ordering::Release);
    Ok(Reserved {
        start,
        position: h + pad,
        ahead: (cap - used - pad - need).min(cap - start - need),
    })
}

/// Releases the **oldest** live reservation: `seg_pos` is its in-region
/// offset (or its position: the same modulo `cap`), `len` the requested
/// length. Must be called in reservation order (FIFO) and only by the
/// single owner of `tail`. Padding between the current tail and the
/// reservation start — a wrap's or a rewind's — is reclaimed with it.
pub fn ring_release(ring: &Ring<'_>, seg_pos: u64, len: u64) {
    let cap = ring.cap;
    let need = ring_rounded(len);
    // Relaxed: only this (consumer) side writes `tail`.
    let t = ring.tail.load(Ordering::Relaxed);
    let pad = (seg_pos + cap - t % cap) % cap;
    // Acquire: pairs with the client's Release store of `head` so the
    // FIFO debug check below sees the reservation being released.
    let h = ring.head.load(Ordering::Acquire);
    debug_assert!(
        t + pad + need <= h,
        "FIFO release violated: tail {t} pad {pad} need {need} head {h}"
    );
    // Release: hands the freed bytes back to the client — pairs with the
    // Acquire on `tail` in `ring_reserve`, ordering our reads of the
    // segment data before the client's next overwrite.
    ring.tail.store(t + pad + need, Ordering::Release);
}

/// Reclaims everything still reserved by advancing `tail` to `head`;
/// returns the live bytes reclaimed (wrap padding included) — 0 means the
/// ring was already empty. The consumer's terminal sweep for a fenced
/// client: the owner's lease must already be revoked so it cannot *begin*
/// new reservations. One already in flight may still store `head` once
/// after this sweep — safe (no word has two writers, and a fenced client
/// can never commit the bytes) but unreclaimed, so the sweeper re-runs
/// this until it returns 0 with `ring_in_use` agreeing.
pub fn ring_reclaim(ring: &Ring<'_>) -> u64 {
    // Acquire: the bytes below `head` were fully reserved before we read it.
    let h = ring.head.load(Ordering::Acquire);
    // Relaxed: only this (consumer) side writes `tail`.
    let t = ring.tail.load(Ordering::Relaxed);
    if h == t {
        return 0;
    }
    let f = ring.floor.load(Ordering::Acquire);
    // Release: hands the recycled bytes to any future reservation.
    ring.tail.store(h, Ordering::Release);
    h.saturating_sub(t.max(f))
}

/// Bytes currently reserved (wrap padding included, rewind padding not),
/// observable from any thread or process: a consistent instantaneous
/// value in `[0, cap]`.
///
/// Seqlock-style snapshot. `tail` is monotonic, so an unchanged re-read
/// proves it held that value at the instant `head` was loaded; loading
/// the two independently let `tail` overtake a stale `head` (underflow)
/// or a fresh `head` meet a stale `tail` (over-report) — pinned by
/// `in_use_is_always_consistent` in tests/model.rs. `floor` is loaded
/// after `head`, inside the same window, so it is the floor `head` was
/// stored under or a later one; a later one is above `head` and the ring
/// was empty, which is what the saturating subtraction returns. Each
/// retry requires the consumer to have advanced `tail`, so the loop is
/// bounded by the releases in flight.
pub fn ring_in_use(ring: &Ring<'_>) -> u64 {
    // Acquire on all four: pairs with the owners' Release stores, and
    // keeps the loads in program order, which the argument above needs.
    let mut t = ring.tail.load(Ordering::Acquire);
    loop {
        let h = ring.head.load(Ordering::Acquire);
        let f = ring.floor.load(Ordering::Acquire);
        let t_after = ring.tail.load(Ordering::Acquire);
        if t_after == t {
            return h.saturating_sub(t.max(f));
        }
        t = t_after;
    }
}

/// Where `[pos, pos + len)` — an in-region offset and a length from a
/// notice, so nothing about them is assumed — sits if
/// it can be a live reservation: inside the ring without straddling its
/// end, and, rounded and with the padding that leads up to it, within the
/// live window. Returns the reservation's [`Reserved::position`]: the
/// live window spans at most one lap, so the offset names one position in
/// it. Consumer side (the window's lower edge must not move meanwhile).
pub fn ring_locate(ring: &Ring<'_>, pos: u64, len: u64) -> Option<u64> {
    ring_locate_within(ring, &mut Reach::default(), pos, len)
}

/// A ring's `head` and `floor` as the consumer last read them. An older
/// reach accepts no range not live now: both only grow, and a rewind (which
/// moves `floor`) happens on an empty ring, leaving `tail` past any older
/// `head`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reach {
    head: u64,
    floor: u64,
}

/// [`ring_locate`], reading `head` and `floor` again (into `reach`) only
/// for a range not live as of `reach`: a consumer reads the line a client
/// writes every call once for a run of its notices, not once each.
pub fn ring_locate_within(ring: &Ring<'_>, reach: &mut Reach, pos: u64, len: u64) -> Option<u64> {
    let cap = ring.cap;
    if pos >= cap || pos.checked_add(len).is_none_or(|end| end > cap) {
        return None;
    }
    let t = ring.tail.load(Ordering::Acquire);
    let locate = |reach: Reach| {
        let base = t.max(reach.floor);
        let start = (pos + cap - base % cap) % cap;
        let live = reach.head.checked_sub(base)?;
        (start + ring_rounded(len) <= live).then_some(base + start)
    };
    locate(*reach).or_else(|| {
        // Acquire, `head` before `floor`: as in `ring_in_use`.
        let head = ring.head.load(Ordering::Acquire);
        let floor = ring.floor.load(Ordering::Acquire);
        *reach = Reach { head, floor };
        locate(*reach)
    })
}

// Sequential semantics; the concurrent interleavings are explored by the
// model tests in tests/model.rs under `--features check`, random
// sequences against a reference model by tests/rewind.rs.
#[cfg(all(test, not(feature = "check")))]
mod tests {
    use super::*;

    #[test]
    fn reserve_release_drains_to_empty() {
        let words = RingWords::default();
        let ring = words.ring(256);
        for _ in 0..50 {
            let p1 = ring_reserve(&ring, 64).unwrap().start;
            let p2 = ring_reserve(&ring, 64).unwrap().start;
            assert_eq!((p1, p2), (0, 64), "an empty ring starts over at 0");
            ring_release(&ring, p1, 64);
            ring_release(&ring, p2, 64);
            assert_eq!(ring_in_use(&ring), 0);
        }
    }

    #[test]
    fn too_large_vs_full() {
        let words = RingWords::default();
        let ring = words.ring(128);
        assert_eq!(ring_reserve(&ring, 129).unwrap_err(), AllocError::TooLarge);
        let _ = ring_reserve(&ring, 128).unwrap();
        assert_eq!(ring_reserve(&ring, 8).unwrap_err(), AllocError::Full);
    }

    #[test]
    fn wrap_padding_then_rewind() {
        let words = RingWords::default();
        let ring = words.ring(256);
        let r1 = ring_reserve(&ring, 100).unwrap(); // 104 @ 0
        let r2 = ring_reserve(&ring, 100).unwrap(); // 104 @ 104
        assert_eq!((r1.ahead, r2.ahead), (152, 48), "free up to the ring's end");
        let (p1, p2) = (r1.start, r2.start);
        ring_release(&ring, p1, 100); // tail = 104

        // Not empty: 104 bytes do not fit the 48 left, pad 48, wrap to 0.
        let r3 = ring_reserve(&ring, 100).unwrap();
        assert_eq!((r3.start, r3.ahead), (0, 0), "free up to the live r2");
        let p3 = r3.start;
        assert_eq!(ring_in_use(&ring), 104 + 48 + 104, "wrap padding is live");
        ring_release(&ring, p2, 100);
        ring_release(&ring, p3, 100); // pad 48 reclaimed, tail = head = 360
        assert_eq!(ring_in_use(&ring), 0);
        // Empty at position 104: the next reservation rewinds to 0 and has
        // the whole ring, which from 104 it would not have had.
        let r4 = ring_reserve(&ring, 256).unwrap();
        assert_eq!((r4.start, r4.ahead), (0, 0));
        let p4 = r4.start;
        assert_eq!(ring_in_use(&ring), 256, "rewind padding is not live");
        assert_eq!(ring_reserve(&ring, 8).unwrap_err(), AllocError::Full);
        ring_release(&ring, p4, 256); // skips the 152 bytes the rewind did
        assert_eq!(ring_in_use(&ring), 0);
        assert_eq!(words.head.load(Ordering::Relaxed), 512 + 256);
        assert_eq!(words.tail.load(Ordering::Relaxed), 512 + 256);
    }

    #[test]
    fn locate_follows_the_live_window_across_a_rewind() {
        let words = RingWords::default();
        let ring = words.ring(256);
        let p1 = ring_reserve(&ring, 100).unwrap();
        ring_release(&ring, p1.start, 100); // empty at position 104
        let p2 = ring_reserve(&ring, 64).unwrap(); // rewinds; tail stays 104
        let p3 = ring_reserve(&ring, 64).unwrap();
        assert_eq!((p2.start, p3.start), (0, 64));
        assert_eq!((p2.position, p3.position), (256, 320));
        // An in-region offset names the position it was reserved at.
        assert_eq!(ring_locate(&ring, 0, 64), Some(p2.position));
        assert_eq!(ring_locate(&ring, 64, 64), Some(p3.position));
        assert_eq!(ring_locate(&ring, 128, 8), None, "beyond head");
        assert_eq!(
            ring_locate(&ring, 104, 64),
            None,
            "in the bytes the rewind left"
        );
        assert_eq!(ring_locate(&ring, 200, 64), None, "straddles the end");
        assert_eq!(ring_locate(&ring, 256, 0), None);
        assert_eq!(ring_locate(&ring, 8, u64::MAX), None);
        ring_release(&ring, p2.start, 64);
        assert_eq!(ring_locate(&ring, 0, 64), None, "released");
        assert_eq!(ring_locate(&ring, 64, 64), Some(p3.position));
    }

    #[test]
    fn positions_order_reservations_across_a_wrap() {
        let words = RingWords::default();
        let ring = words.ring(256);
        let p1 = ring_reserve(&ring, 100).unwrap(); // 104 @ 0
        let p2 = ring_reserve(&ring, 100).unwrap(); // 104 @ 104
        ring_release(&ring, p1.start, 100);
        // Offset 0 again, but after p2: the wrap pads 48 bytes.
        let p3 = ring_reserve(&ring, 100).unwrap();
        assert_eq!((p1.position, p2.position, p3.position), (0, 104, 256));
        assert_eq!((p2.start, p3.start), (104, 0));
        assert_eq!(ring_locate(&ring, 0, 100), Some(p3.position));
        assert_eq!(ring_locate(&ring, 104, 100), Some(p2.position));
    }

    #[test]
    fn reclaim_swallows_abandoned_reservations() {
        let words = RingWords::default();
        let ring = words.ring(512);
        let p1 = ring_reserve(&ring, 64).unwrap().start;
        let _abandoned = ring_reserve(&ring, 100).unwrap(); // 104
        ring_release(&ring, p1, 64);
        assert_eq!(ring_in_use(&ring), 104);
        assert_eq!(ring_reclaim(&ring), 104);
        assert_eq!(ring_in_use(&ring), 0);
        assert_eq!(ring_reclaim(&ring), 0);
        // Behind a rewind the sweep reports what was live, not the skip.
        let _abandoned = ring_reserve(&ring, 8).unwrap();
        assert_eq!(ring_reclaim(&ring), 8);
        assert_eq!(ring_in_use(&ring), 0);
    }

    #[test]
    fn rounding_is_shared_with_the_allocators() {
        assert_eq!(ring_rounded(0), 8);
        assert_eq!(ring_rounded(1), 8);
        assert_eq!(ring_rounded(8), 8);
        assert_eq!(ring_rounded(9), 16);
        assert_eq!(ring_rounded(100), 104);
    }
}
