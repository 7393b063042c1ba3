//! Adversarial stress tests for the shared-memory substrate, aimed at the
//! boundary conditions the model tests explore exhaustively at small
//! scale: full/empty transitions of the ring at its mask edges, the
//! minimal (capacity-2) queue, and allocator accounting under churn.
//!
//! These run with real OS threads and real contention — the complementary
//! regime to `tests/model.rs` (small schedules, explored exhaustively).
//! They are compiled out under `--features check`: the model checker
//! serializes threads, so hammering loops would only waste exploration.

#![cfg(not(feature = "check"))]

use damaris_shm::{MpscQueue, PartitionAllocator};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

/// The smallest ring the queue can build (capacity 2) crossing the
/// full↔empty boundary on practically every operation: 4 producers race
/// to push 2_000 tickets each through 2 slots while 2 consumers drain.
/// Every ticket must come out exactly once.
#[test]
fn capacity_two_queue_full_empty_churn() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 2_000;
    let q = Arc::new(MpscQueue::new(1)); // rounds up to the minimum, 2
    assert_eq!(q.capacity(), 2);

    let mut handles = Vec::new();
    for p in 0..PRODUCERS {
        let q = Arc::clone(&q);
        handles.push(thread::spawn(move || {
            for i in 0..PER_PRODUCER {
                q.push_wait(p * PER_PRODUCER + i);
            }
        }));
    }
    let total = PRODUCERS * PER_PRODUCER;
    let taken = Arc::new(AtomicUsize::new(0));
    let mut consumers = Vec::new();
    for _ in 0..2 {
        let q = Arc::clone(&q);
        let taken = Arc::clone(&taken);
        consumers.push(thread::spawn(move || {
            let mut got = Vec::new();
            while taken.fetch_add(1, Ordering::Relaxed) < total {
                got.push(q.pop_wait());
            }
            // The fetch_add overshot: hand the ticket back.
            taken.fetch_sub(1, Ordering::Relaxed);
            got
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut seen: HashMap<usize, usize> = HashMap::new();
    for c in consumers {
        for v in c.join().unwrap() {
            *seen.entry(v).or_insert(0) += 1;
        }
    }
    assert_eq!(seen.len(), total, "lost items");
    assert!(seen.values().all(|&n| n == 1), "duplicated items");
    assert!(q.pop().is_none(), "queue must end empty");
}

/// Deterministic mask-edge walk: fill to capacity, verify `push` reports
/// full *and returns the rejected value intact*, drain to empty, verify
/// `pop` reports empty — repeated for enough laps that the enqueue and
/// dequeue positions wrap the mask hundreds of times at every offset.
#[test]
fn wraparound_at_mask_edges_single_threaded() {
    for cap in [2usize, 4, 8] {
        let q = MpscQueue::new(cap);
        assert_eq!(q.capacity(), cap);
        let mut next = 0usize;
        // Odd lap length staggers the fill start across every slot offset.
        for lap in 0..(cap * 100 + 1) {
            let fill = 1 + (lap % cap);
            for _ in 0..fill {
                q.push(next).expect("ring below capacity");
                next += 1;
            }
            if fill == cap {
                // Full boundary: the rejected value must come back intact.
                let rejected = q.push(usize::MAX).expect_err("ring is full").0;
                assert_eq!(rejected, usize::MAX);
            }
            for expect in next - fill..next {
                assert_eq!(q.pop(), Some(expect), "FIFO across the mask edge");
            }
            assert!(q.pop().is_none(), "empty boundary");
            assert!(q.is_empty());
        }
    }
}

/// Contended wraparound: a ring much smaller than the item count forces
/// every slot's `seq` through many generations while producers and the
/// consumer fight over the same mask edges.
#[test]
fn mpmc_contended_exactly_once_over_tiny_ring() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 5_000;
    let q = Arc::new(MpscQueue::new(4));
    let mut handles = Vec::new();
    for p in 0..PRODUCERS {
        let q = Arc::clone(&q);
        handles.push(thread::spawn(move || {
            for i in 0..PER_PRODUCER {
                q.push_wait(p * PER_PRODUCER + i);
            }
        }));
    }
    // Single consumer (the substrate's real shape: one dedicated core).
    let mut seen = vec![false; PRODUCERS * PER_PRODUCER];
    for _ in 0..PRODUCERS * PER_PRODUCER {
        let v = q.pop_wait();
        assert!(!seen[v], "item {v} delivered twice");
        seen[v] = true;
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(seen.iter().all(|&s| s), "lost items");
    assert!(q.pop().is_none());
}

/// Partitioned-allocator churn: each client hammers its region with
/// allocate/write/release cycles at varying sizes while an observer
/// continuously checks the `in_use` invariant (never above the region
/// size — the seqlock-style snapshot must hold under real contention,
/// not just under the model's explored schedules).
#[test]
fn partition_allocator_churn_keeps_in_use_sane() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 3_000;
    let alloc = Arc::new(PartitionAllocator::with_capacity(4096, CLIENTS));
    let cap = alloc.region_capacity();
    let stop = Arc::new(AtomicBool::new(false));

    let observer = {
        let alloc = Arc::clone(&alloc);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut snapshots = 0usize;
            while !stop.load(Ordering::Relaxed) {
                for c in 0..CLIENTS {
                    let used = alloc.in_use(c);
                    assert!(used <= cap, "client {c}: in_use {used} > region {cap}");
                    snapshots += 1;
                }
            }
            snapshots
        })
    };

    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let alloc = Arc::clone(&alloc);
        handles.push(thread::spawn(move || {
            let mut live = Vec::new();
            for round in 0..ROUNDS {
                let len = 1 + (round * 7 + c) % 64;
                match alloc.allocate(c, len) {
                    Ok(mut seg) => {
                        seg.as_mut_slice().fill(c as u8);
                        live.push(seg);
                    }
                    Err(_) => {
                        // Region full: drain in FIFO order (ring discipline).
                        for seg in live.drain(..) {
                            assert!(seg.as_slice().iter().all(|&b| b == c as u8));
                            alloc.release(c, seg);
                        }
                    }
                }
            }
            for seg in live.drain(..) {
                alloc.release(c, seg);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let snapshots = observer.join().unwrap();
    assert!(snapshots > 0, "observer never ran");
    for c in 0..CLIENTS {
        assert_eq!(alloc.in_use(c), 0, "client {c} leaked bytes");
    }
}
