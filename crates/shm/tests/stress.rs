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

use damaris_shm::{MpscQueue, PartitionAllocator, PushError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

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
                push_wait(&q, p * PER_PRODUCER + i);
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
                got.push(pop_wait(&q));
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
                push_wait(&q, p * PER_PRODUCER + i);
            }
        }));
    }
    // Single consumer (the substrate's real shape: one dedicated core).
    let mut seen = vec![false; PRODUCERS * PER_PRODUCER];
    for _ in 0..PRODUCERS * PER_PRODUCER {
        let v = pop_wait(&q);
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

/// Streamed copies against the notice that publishes them, over a real
/// mapping: a client reserves 64 KiB segments in a ring of two (every
/// byte rewritten thousands of times), copies a payload that differs from
/// the previous one at every byte, and posts a notice; a consumer thread
/// spinning on the ring takes 10 000 notices and checks every byte of
/// each segment, the last lines first, before releasing it. A 64 KiB
/// payload goes through the non-temporal kernel where the CPU has
/// AVX-512F: without its closing fence the notice's `Release` store can
/// become visible before the last lines, and the consumer reads a
/// previous payload's bytes (with the fence deleted this test failed
/// three runs in ten on a 2-CPU AVX-512 host). Meant for release builds,
/// where nothing slows the client down between its copy and its post.
#[cfg(unix)]
#[test]
fn streamed_payloads_are_whole_when_their_notice_is_taken() {
    use damaris_shm::{MappedNode, Notice};
    const NOTICES: u32 = 10_000;
    const LEN: usize = 64 << 10;
    // Payload `i` starts `i % 251` bytes into the pattern, whose bytes
    // step by 7 or 8: payloads one or two apart — the tenants a ring of
    // two segments alternates — differ at every byte.
    let pattern: Arc<Vec<u8>> = Arc::new((0..LEN + 251).map(|i| (i * 7 + i / 256) as u8).collect());
    let dir = std::env::temp_dir().join("damaris-stress-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("streamed-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let node = MappedNode::create(&path, 1, 2 * LEN, 8).unwrap();
    std::fs::remove_file(&path).unwrap();

    let consumer = {
        let (node, pattern) = (node.clone(), Arc::clone(&pattern));
        thread::spawn(move || {
            let notices = node.notices(0);
            for i in 0..NOTICES {
                let words = loop {
                    match notices.peek() {
                        Some(words) => break words,
                        None => std::hint::spin_loop(),
                    }
                };
                let Some(Notice::Write {
                    iteration,
                    offset,
                    len,
                    ..
                }) = Notice::decode(words)
                else {
                    panic!("notice {i} is not a write: {words:?}");
                };
                assert_eq!((iteration, len), (i, LEN as u64));
                let segment = node.adopt(0, offset as usize, LEN).unwrap();
                let expected = &pattern[i as usize % 251..][..LEN];
                let (got, last) = (segment.as_slice(), LEN - 512..LEN);
                if got[last.clone()] != expected[last] || got != expected {
                    panic!("notice {i}: its segment held stale bytes when it was taken");
                }
                node.release(0, segment.offset(), LEN);
                let taken = notices.advance();
                notices.apply(taken);
            }
        })
    };

    let notices = node.notices(0);
    'post: for i in 0..NOTICES {
        let src = &pattern[i as usize % 251..][..LEN];
        let mut segment = loop {
            match node.reserve(0, LEN) {
                Ok(segment) => break segment,
                // Ring full: the consumer drains, unless it stopped.
                Err(_) if !consumer.is_finished() => thread::yield_now(),
                Err(_) => break 'post,
            }
        };
        segment.copy_from_slice(src);
        let notice = Notice::Write {
            variable: 0,
            iteration: i,
            offset: segment.offset() as u64,
            len: LEN as u64,
        };
        while !notices.post(notice.encode()) {
            thread::yield_now();
        }
    }
    if let Err(panic) = consumer.join() {
        std::panic::resume_unwind(panic);
    }
    assert_eq!(node.total_in_use(), 0);
}
