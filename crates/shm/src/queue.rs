//! A bounded multi-producer queue over a ring of slots with per-slot
//! sequence numbers (Dmitry Vyukov's MPMC algorithm). No node uses it —
//! a node's clients post into notice rings of their own
//! ([`crate::notice`]) — and it stays for the benchmark's layer row. The
//! successful `push`/`pop` pair forms a release/acquire edge.
//!
//! ## Memory-ordering argument (verified under `--features check`)
//!
//! Per slot, `seq` is the single synchronization variable. The producer's
//! `Release` store of `seq = pos + 1` publishes the value it wrote into
//! the slot; the consumer's `Acquire` load of `seq` observes it before
//! touching the value, and its own `Release` store of `seq = pos + mask + 1`
//! publishes the now-empty slot back to the producer one lap ahead. The
//! `enqueue_pos`/`dequeue_pos` tickets need no ordering of their own: they
//! only arbitrate *which* thread owns a slot (CAS), and all data movement
//! is ordered through `seq`. The model tests in `tests/model.rs` explore
//! every bounded-preemption schedule of a 2×2 producer/consumer
//! configuration, and the seeded-bug test shows the checker rejects this
//! algorithm if the `seq` publication store is weakened to `Relaxed`.

use crate::sync::{AtomicUsize, CachePadded, Ordering, ShmCell};
use std::mem::MaybeUninit;

/// Error returned by [`MpscQueue::push`] when the ring is full; gives the
/// value back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct PushError<T>(pub T);

struct Slot<T> {
    /// Sequence: `index` when empty and ready for the producer of that
    /// index, `index + 1` once filled and ready for the consumer.
    seq: AtomicUsize,
    value: ShmCell<MaybeUninit<T>>,
}

/// Bounded lock-free multi-producer queue.
///
/// The two tickets sit on blocks of their own: producers write
/// `enqueue_pos` on every push, the consumer writes `dequeue_pos` on every
/// pop, and beside each other each write cost the other side a miss.
pub struct MpscQueue<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    enqueue_pos: CachePadded<AtomicUsize>,
    dequeue_pos: CachePadded<AtomicUsize>,
}

// SAFETY: slots are handed between threads with acquire/release on `seq`
// (see the module-level ordering argument); `T: Send` is required because
// values move across threads through the slots.
unsafe impl<T: Send> Sync for MpscQueue<T> {}
// SAFETY: owning the queue confers no thread affinity; all shared state
// is atomics plus protocol-guarded slots.
unsafe impl<T: Send> Send for MpscQueue<T> {}

impl<T> MpscQueue<T> {
    /// Creates a queue with capacity rounded up to the next power of two
    /// (minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Box<[Slot<T>]> = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: ShmCell::new(MaybeUninit::uninit()),
            })
            .collect();
        MpscQueue {
            slots,
            mask: cap - 1,
            enqueue_pos: CachePadded::new(AtomicUsize::new(0)),
            dequeue_pos: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Approximate number of queued items (racy by nature).
    pub fn len(&self) -> usize {
        // Relaxed: a monitoring estimate; no data is accessed on the
        // strength of these loads.
        let enq = self.enqueue_pos.load(Ordering::Relaxed);
        let deq = self.dequeue_pos.load(Ordering::Relaxed);
        enq.saturating_sub(deq)
    }

    /// Approximate emptiness check (racy by nature).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to enqueue; lock-free, callable from any number of threads.
    // ANALYZE: hot
    pub fn push(&self, value: T) -> Result<(), PushError<T>> {
        // Relaxed: the ticket only picks a slot to try; slot ownership is
        // decided by the CAS and data ordering by `seq`.
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            // ANALYZE: in-bounds(slots.len() is a power of two and mask = len - 1)
            let slot = &self.slots[pos & self.mask];
            // Acquire: pairs with the consumer's Release store when it
            // recycles this slot, so we see the slot truly vacated (and
            // the consumer's read of any previous value completed) before
            // we overwrite it.
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                // Slot free for this ticket: try to claim it.
                // Relaxed success/failure: the CAS only arbitrates slot
                // ownership between producers; it publishes nothing.
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS above made us the unique owner
                        // of this slot until we bump `seq`; no other
                        // thread reads or writes the cell in between.
                        slot.value.with_mut(|p| unsafe { (*p).write(value) });
                        // Release: publishes the value written above to
                        // the consumer whose Acquire load sees `pos + 1`.
                        slot.seq.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(actual) => pos = actual,
                }
            } else if seq < pos {
                // The slot still holds an element a full lap behind: full.
                return Err(PushError(value));
            } else {
                // Another producer claimed this ticket; advance.
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Attempts to dequeue.
    // ANALYZE: hot
    pub fn pop(&self) -> Option<T> {
        // Relaxed: ticket selection only (see `push`).
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            // ANALYZE: in-bounds(slots.len() is a power of two and mask = len - 1)
            let slot = &self.slots[pos & self.mask];
            // Acquire: pairs with the producer's Release store of
            // `pos + 1`, ordering its value write before our read.
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos + 1 {
                // Relaxed CAS: consumer-side ticket arbitration only.
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the producer finished writing (we saw its
                        // release-store of seq); the CAS made us the unique
                        // consumer of this slot, so the value is initialized
                        // and unaliased.
                        let value = slot.value.with(|p| unsafe { (*p).assume_init_read() });
                        // Release: marks the slot free for the producer one
                        // lap ahead, ordering our read of the value before
                        // its overwrite.
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        return Some(value);
                    }
                    Err(actual) => pos = actual,
                }
            } else if seq <= pos {
                // Slot not yet filled: queue empty (for this ticket).
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }
}

impl<T> Drop for MpscQueue<T> {
    fn drop(&mut self) {
        // Drain remaining initialized values so their destructors run.
        while self.pop().is_some() {}
    }
}

impl<T> std::fmt::Debug for MpscQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MpscQueue(capacity={}, len≈{})",
            self.capacity(),
            self.len()
        )
    }
}

// Concurrency tests below use OS threads; under `--features check` the
// facade types only function inside a model run, so the whole module is
// compiled out and `tests/model.rs` takes over.
#[cfg(all(test, not(feature = "check")))]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Pushes, yielding until there is room.
    fn push_wait<T>(q: &MpscQueue<T>, mut value: T) {
        while let Err(PushError(back)) = q.push(value) {
            value = back;
            std::thread::yield_now();
        }
    }

    /// Pops, yielding until there is an item.
    fn pop_wait<T>(q: &MpscQueue<T>) -> T {
        loop {
            if let Some(value) = q.pop() {
                return value;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn fifo_single_thread() {
        let q = MpscQueue::new(8);
        for i in 0..8 {
            q.push(i).unwrap();
        }
        assert_eq!(q.push(99), Err(PushError(99)));
        for i in 0..8 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn capacity_rounds_up() {
        let q = MpscQueue::<u8>::new(5);
        assert_eq!(q.capacity(), 8);
        let q = MpscQueue::<u8>::new(0);
        assert_eq!(q.capacity(), 2);
        let q = MpscQueue::<u8>::new(1);
        assert_eq!(q.capacity(), 2);
    }

    #[test]
    fn wraparound_many_laps() {
        let q = MpscQueue::new(4);
        for lap in 0..1000 {
            q.push(lap).unwrap();
            q.push(lap + 1).unwrap();
            assert_eq!(q.pop(), Some(lap));
            assert_eq!(q.pop(), Some(lap + 1));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn per_producer_fifo_under_contention() {
        // MPSC correctness: each producer's own sequence arrives in order,
        // and nothing is lost or duplicated.
        let producers = 8;
        let per_producer = 5000usize;
        let q = Arc::new(MpscQueue::new(64));
        std::thread::scope(|scope| {
            for p in 0..producers {
                let q = Arc::clone(&q);
                scope.spawn(move || {
                    for i in 0..per_producer {
                        push_wait(&q, (p, i));
                    }
                });
            }
            let q = Arc::clone(&q);
            scope.spawn(move || {
                let mut next = vec![0usize; producers];
                for _ in 0..producers * per_producer {
                    let (p, i) = pop_wait(&q);
                    assert_eq!(i, next[p], "producer {p} out of order");
                    next[p] += 1;
                }
                assert!(q.pop().is_none());
                for (p, &n) in next.iter().enumerate() {
                    assert_eq!(n, per_producer, "producer {p} count");
                }
            });
        });
    }

    #[test]
    fn multiple_consumers_partition_the_stream() {
        // The Vyukov ring is MPMC-safe: §V-A's multi-dedicated-core nodes
        // can share one queue between two server threads. Every item is
        // delivered exactly once across both consumers.
        let producers = 4;
        let per_producer = 3000usize;
        let q = Arc::new(MpscQueue::new(64));
        let seen = Arc::new(std::sync::Mutex::new(std::collections::HashSet::new()));
        std::thread::scope(|scope| {
            for p in 0..producers {
                let q = Arc::clone(&q);
                scope.spawn(move || {
                    for i in 0..per_producer {
                        push_wait(&q, p * per_producer + i);
                    }
                });
            }
            let total = producers * per_producer;
            let consumed = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            for _ in 0..2 {
                let q = Arc::clone(&q);
                let seen = Arc::clone(&seen);
                let consumed = Arc::clone(&consumed);
                scope.spawn(move || loop {
                    if consumed.load(std::sync::atomic::Ordering::Acquire) >= total {
                        break;
                    }
                    if let Some(v) = q.pop() {
                        assert!(seen.lock().unwrap().insert(v), "duplicate {v}");
                        consumed.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
                    } else {
                        std::thread::yield_now();
                    }
                });
            }
        });
        assert_eq!(seen.lock().unwrap().len(), producers * per_producer);
        assert!(q.pop().is_none());
    }

    #[test]
    fn drop_runs_destructors() {
        let counter = Arc::new(());
        let q = MpscQueue::new(8);
        for _ in 0..5 {
            q.push(Arc::clone(&counter)).unwrap();
        }
        assert_eq!(Arc::strong_count(&counter), 6);
        drop(q);
        assert_eq!(Arc::strong_count(&counter), 1);
    }

    #[test]
    fn happens_before_on_handoff() {
        // Data written before push must be visible after pop.
        let q = Arc::new(MpscQueue::new(16));
        let data = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::thread::scope(|scope| {
            let q2 = Arc::clone(&q);
            let d2 = Arc::clone(&data);
            scope.spawn(move || {
                d2.store(42, std::sync::atomic::Ordering::Relaxed);
                push_wait(&q2, ());
            });
            let () = pop_wait(&q);
            assert_eq!(data.load(std::sync::atomic::Ordering::Relaxed), 42);
        });
    }
}
