//! The paper's lock-free reservation scheme.
//!
//! "When all clients are expected to write the same amount of data, the
//! shared-memory buffer is split in as many parts as clients and each client
//! uses its own region" (§III-B). Each region is a byte ring run by the
//! protocol in [`crate::ring`] — counters, padding, rewind, and the
//! memory-ordering argument are documented (and model-checked) there; this
//! type adds the regions' placement in one [`SharedBuffer`] and the
//! [`Segment`] handles.
//!
//! Reservation is a few atomic loads and one release-store — no locks, no
//! CAS loops — which is exactly why the paper prefers it on the hot path.
//!
//! Contract (checked with `debug_assert`s, property tests, and the model
//! tests in `tests/model.rs`):
//! * at most one thread calls [`PartitionAllocator::allocate`] per client id
//!   at a time;
//! * segments of one client are released in allocation order.

use crate::buffer::{Segment, SharedBuffer};
use crate::ring::{self, Ring, RingWords};
use crate::sync::Arc;
use crate::AllocError;

/// Alignment granted to every segment.
const ALIGN: usize = ring::RING_ALIGN as usize;

#[derive(Debug)]
struct Region {
    offset: usize,
    len: usize,
    words: RingWords,
}

impl Region {
    fn ring(&self) -> Ring<'_> {
        self.words.ring(self.len as u64)
    }

    /// In-region position of a buffer offset, if it falls in this region.
    fn pos(&self, offset: usize) -> Option<u64> {
        let pos = offset.checked_sub(self.offset)?;
        (pos < self.len).then_some(pos as u64)
    }
}

/// Lock-free per-client partitioned allocator.
pub struct PartitionAllocator {
    buffer: Arc<SharedBuffer>,
    regions: Vec<Region>,
}

impl PartitionAllocator {
    /// Splits `buffer` into `clients` equal regions (remainder unused).
    ///
    /// Panics if `clients == 0`.
    pub fn new(buffer: Arc<SharedBuffer>, clients: usize) -> Self {
        assert!(clients > 0, "need at least one client");
        let region_len = (buffer.capacity() / clients) / ALIGN * ALIGN;
        let regions = (0..clients)
            .map(|i| Region {
                offset: i * region_len,
                len: region_len,
                words: RingWords::default(),
            })
            .collect();
        PartitionAllocator { buffer, regions }
    }

    /// Creates the buffer and allocator together.
    pub fn with_capacity(capacity: usize, clients: usize) -> Self {
        Self::new(SharedBuffer::new(capacity), clients)
    }

    /// Number of client regions.
    pub fn clients(&self) -> usize {
        self.regions.len()
    }

    /// Bytes available to each client.
    pub fn region_capacity(&self) -> usize {
        self.regions.first().map_or(0, |r| r.len)
    }

    /// Bytes currently reserved by `client` (including wrap padding).
    ///
    /// Callable from any thread; returns a consistent instantaneous value
    /// in `[0, region_capacity()]` ([`ring::ring_in_use`]).
    pub fn in_use(&self, client: usize) -> usize {
        ring::ring_in_use(&self.regions[client].ring()) as usize
    }

    /// Reserves `len` bytes in `client`'s region ([`ring::ring_reserve`]).
    ///
    /// Lock-free. Must only be called by the single thread owning `client`.
    // ANALYZE: hot
    pub fn allocate(&self, client: usize, len: usize) -> Result<Segment, AllocError> {
        let region = self.regions.get(client).ok_or(AllocError::BadClient)?;
        let at = ring::ring_reserve(&region.ring(), len as u64)?;
        let offset = region.offset + at.start as usize;
        Ok(self.buffer.segment_at(offset, len, at.position))
    }

    /// Releases the **oldest** live segment of `client`.
    ///
    /// Must be called in allocation order (FIFO per client) and only by the
    /// single consumer thread ([`ring::ring_release`]).
    pub fn release(&self, client: usize, segment: Segment) {
        assert!(
            Arc::ptr_eq(segment.buffer(), &self.buffer),
            "segment released to the wrong allocator"
        );
        let region = &self.regions[client];
        let (offset, len) = segment.reservation();
        let pos = region
            .pos(offset)
            // invariant: segments carry the offset the allocator assigned;
            // a mismatch is caller misuse, not a runtime condition.
            .expect("segment does not belong to this client's region");
        drop(segment);
        ring::ring_release(&region.ring(), pos, len as u64);
    }

    /// Reclaims **everything** still reserved in `client`'s region
    /// ([`ring::ring_reclaim`]). Returns the number of bytes reclaimed
    /// (including wrap padding); 0 means the region was already empty.
    ///
    /// This is the sweeper's terminal reclamation step for a client whose
    /// lease has been revoked. Contract:
    ///
    /// * called by the single consumer thread only (it owns `tail`);
    /// * every *known* segment of the client (named by a notice, resident in the
    ///   metadata store, or held for deferred release) must have been
    ///   released in FIFO order first — this call then swallows whatever
    ///   untracked remainder the dead client reserved but never committed;
    /// * the client's lease must already be revoked, and the sweeper calls
    ///   this again on later fires until it returns 0 with `in_use`
    ///   agreeing (the lease grace window; see `ring_reclaim`).
    pub fn revoke_remaining(&self, client: usize) -> usize {
        self.regions
            .get(client)
            .map_or(0, |region| ring::ring_reclaim(&region.ring()) as usize)
    }
}

impl std::fmt::Debug for PartitionAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PartitionAllocator({} clients × {} bytes)",
            self.clients(),
            self.region_capacity()
        )
    }
}

// OS-thread + proptest suites don't run under the model checker; the
// `check` build is exercised by tests/model.rs instead.
#[cfg(all(test, not(feature = "check")))]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rounded(len: usize) -> usize {
        ring::ring_rounded(len as u64) as usize
    }

    #[test]
    fn regions_are_disjoint_and_equal() {
        let a = PartitionAllocator::with_capacity(4096, 4);
        assert_eq!(a.clients(), 4);
        assert_eq!(a.region_capacity(), 1024);
        let s0 = a.allocate(0, 100).unwrap();
        let s1 = a.allocate(1, 100).unwrap();
        let s3 = a.allocate(3, 100).unwrap();
        assert_eq!(s0.offset(), 0);
        assert_eq!(s1.offset(), 1024);
        assert_eq!(s3.offset(), 3072);
    }

    #[test]
    fn bad_client_rejected() {
        let a = PartitionAllocator::with_capacity(1024, 2);
        assert_eq!(a.allocate(2, 8).unwrap_err(), AllocError::BadClient);
    }

    #[test]
    fn too_large_vs_full() {
        let a = PartitionAllocator::with_capacity(256, 2); // 128 per client
        assert_eq!(a.allocate(0, 129).unwrap_err(), AllocError::TooLarge);
        let _s = a.allocate(0, 128).unwrap();
        assert_eq!(a.allocate(0, 8).unwrap_err(), AllocError::Full);
        // Other client is unaffected.
        assert!(a.allocate(1, 128).is_ok());
    }

    #[test]
    fn fifo_release_recycles() {
        let a = PartitionAllocator::with_capacity(256, 1);
        for round in 0..50 {
            let s1 = a.allocate(0, 64).unwrap();
            let s2 = a.allocate(0, 64).unwrap();
            a.release(0, s1);
            a.release(0, s2);
            assert_eq!(a.in_use(0), 0, "round {round}");
        }
    }

    #[test]
    fn wrap_padding_reclaimed_and_an_empty_ring_rewinds() {
        let a = PartitionAllocator::with_capacity(256, 1); // one 256-byte ring
        let s1 = a.allocate(0, 100).unwrap(); // rounds to 104 @ pos 0
        let s2 = a.allocate(0, 100).unwrap(); // 104 @ pos 104
        a.release(0, s1); // tail = 104
                          // pos = 208; 104 doesn't fit in the 48 remaining → pad 48, start 0.
        let s3 = a.allocate(0, 100).unwrap();
        assert_eq!(s3.offset(), 0);
        assert_eq!(a.in_use(0), 104 + 48 + 104, "wrap padding counts as in use");
        a.release(0, s2); // tail = 208
        a.release(0, s3); // pad 48 reclaimed, tail = 360
        assert_eq!(a.in_use(0), 0);
        // The ring is empty at position 104. The rule: the next segment
        // starts at 0 again, and the whole region is reservable at once —
        // from 104 a 256-byte segment would never have fit.
        let s4 = a.allocate(0, 256).unwrap();
        assert_eq!(s4.offset(), 0);
        assert_eq!(a.in_use(0), 256, "the bytes a rewind skips are not in use");
        assert_eq!(a.allocate(0, 8).unwrap_err(), AllocError::Full);
        a.release(0, s4);
        assert_eq!(a.in_use(0), 0);
        // A ring that is not empty does not rewind: it wraps as before.
        let s5 = a.allocate(0, 96).unwrap();
        let s6 = a.allocate(0, 96).unwrap();
        a.release(0, s5);
        let s7 = a.allocate(0, 96).unwrap(); // 192 + 96 > 256 → pad 64
        assert_eq!((s6.offset(), s7.offset()), (96, 0));
        assert_eq!(a.in_use(0), 96 + 64 + 96);
        a.release(0, s6);
        a.release(0, s7);
        assert_eq!(a.in_use(0), 0);
    }

    #[test]
    fn revoke_remaining_reclaims_uncommitted_reservation() {
        let a = PartitionAllocator::with_capacity(512, 2);
        // The dead client reserved twice; the first segment was committed
        // and the consumer releases it FIFO, the second was abandoned
        // mid-write (its handle is gone, the reservation is not).
        let committed = a.allocate(0, 64).unwrap();
        let abandoned = a.allocate(0, 100).unwrap(); // rounds to 104
        drop(abandoned);
        a.release(0, committed);
        assert_eq!(a.in_use(0), 104);
        assert_eq!(a.revoke_remaining(0), 104);
        assert_eq!(a.in_use(0), 0);
        // Idempotent: an empty region reclaims nothing.
        assert_eq!(a.revoke_remaining(0), 0);
        // Other clients unaffected; out-of-range client is a no-op.
        let s = a.allocate(1, 32).unwrap();
        assert_eq!(a.revoke_remaining(7), 0);
        assert_eq!(a.in_use(1), 32);
        a.release(1, s);
    }

    #[test]
    fn revoke_remaining_reclaims_wrap_padding_and_works_across_a_rewind() {
        let a = PartitionAllocator::with_capacity(256, 1);
        let s1 = a.allocate(0, 100).unwrap(); // 104 @ 0
        let _abandoned = a.allocate(0, 100).unwrap(); // 104 @ 104
        a.release(0, s1);
        // pos 208: a 104-byte reservation pads 48 and wraps to 0.
        let _abandoned2 = a.allocate(0, 100).unwrap();
        assert_eq!(a.revoke_remaining(0), 104 + 48 + 104);
        assert_eq!(a.in_use(0), 0);
        // The swept ring is empty, so whoever registers next on this
        // region starts at 0 with all of it.
        let s = a.allocate(0, 250).unwrap();
        assert_eq!(s.offset(), 0);
        // Swept again behind that rewind, with the consumer's tail still
        // before it: what was live is reclaimed, the skipped bytes are not
        // counted, and the region is whole again.
        drop(s);
        assert_eq!(a.in_use(0), 256);
        assert_eq!(a.revoke_remaining(0), 256);
        assert_eq!(a.in_use(0), 0);
        let s = a.allocate(0, 256).unwrap();
        assert_eq!(s.offset(), 0);
        a.release(0, s);
        assert_eq!(a.in_use(0), 0);
    }

    #[test]
    fn concurrent_producer_consumer_per_client() {
        // The intended topology: N client threads allocating in their own
        // regions, one consumer thread releasing in FIFO order.
        let clients = 6;
        let a = Arc::new(PartitionAllocator::with_capacity(clients * 4096, clients));
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Segment)>();
        std::thread::scope(|scope| {
            for c in 0..clients {
                let a = Arc::clone(&a);
                let tx = tx.clone();
                scope.spawn(move || {
                    for i in 0..2000usize {
                        loop {
                            match a.allocate(c, 64 + (i % 5) * 32) {
                                Ok(mut seg) => {
                                    seg.as_mut_slice().fill(c as u8);
                                    tx.send((c, seg)).unwrap();
                                    break;
                                }
                                Err(AllocError::Full) => std::thread::yield_now(),
                                Err(e) => panic!("unexpected {e}"),
                            }
                        }
                    }
                });
            }
            drop(tx);
            let a = Arc::clone(&a);
            scope.spawn(move || {
                while let Ok((c, seg)) = rx.recv() {
                    assert!(
                        seg.as_slice().iter().all(|&b| b == c as u8),
                        "client {c} data corrupted"
                    );
                    a.release(c, seg);
                }
            });
        });
        for c in 0..clients {
            assert_eq!(a.in_use(c), 0, "client {c} leaked");
        }
    }

    #[test]
    fn in_use_counts_only_live_bytes_under_concurrent_observation() {
        // A third thread hammering `in_use` while one client allocates
        // and the consumer releases. At most six 64-byte segments exist at
        // once (four in the channel, one in each hand), so that is all
        // `in_use` may ever report — although the ring empties and rewinds
        // all the time, and across a rewind `head - tail` alone spans up
        // to two regions (and, read in the wrong order, wraps to
        // ~usize::MAX: the observable half of the old underflow bug).
        const LIVE_MAX: usize = 6 * 64;
        let a = Arc::new(PartitionAllocator::with_capacity(1024, 1));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::sync_channel::<Segment>(4);
            let (a, stop) = (&a, &stop);
            scope.spawn(move || {
                for _ in 0..20_000usize {
                    let seg = loop {
                        match a.allocate(0, 64) {
                            Ok(seg) => break seg,
                            Err(_) => std::thread::yield_now(),
                        }
                    };
                    tx.send(seg).unwrap();
                }
            });
            scope.spawn(move || {
                while let Ok(seg) = rx.recv() {
                    a.release(0, seg);
                }
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            });
            scope.spawn(|| {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let used = a.in_use(0);
                    assert!(used <= LIVE_MAX, "in_use reported {used}");
                }
            });
        });
        assert_eq!(a.in_use(0), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Single-client sequence of allocations with FIFO releases: live
        /// segments never overlap and the ring always drains back to empty.
        #[test]
        fn ring_no_overlap(sizes in proptest::collection::vec(1usize..200, 1..64), release_after in 1usize..4) {
            let a = PartitionAllocator::with_capacity(1024, 1);
            let mut live: std::collections::VecDeque<Segment> = Default::default();
            for (i, &size) in sizes.iter().enumerate() {
                match a.allocate(0, size) {
                    Ok(seg) => {
                        for other in &live {
                            let a0 = seg.offset();
                            let a1 = a0 + rounded(seg.len());
                            let b0 = other.offset();
                            let b1 = b0 + rounded(other.len());
                            prop_assert!(a1 <= b0 || b1 <= a0,
                                "overlap [{},{}) vs [{},{})", a0, a1, b0, b1);
                        }
                        live.push_back(seg);
                    }
                    Err(AllocError::Full) => {
                        let seg = live.pop_front().expect("full while empty");
                        a.release(0, seg);
                    }
                    Err(e) => prop_assert!(false, "unexpected {e} for size {size} at op {i}"),
                }
                if i % release_after == 0 {
                    if let Some(seg) = live.pop_front() {
                        a.release(0, seg);
                    }
                }
            }
            while let Some(seg) = live.pop_front() {
                a.release(0, seg);
            }
            prop_assert_eq!(a.in_use(0), 0);
        }
    }
}
