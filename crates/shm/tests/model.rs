//! Schedule-exploring model tests for the shared-memory substrate.
//!
//! Run with:
//!
//! ```text
//! cargo test -p damaris-shm --features check
//! ```
//!
//! Under `--features check` the `shm::sync` facade resolves to the
//! `damaris-check` mini-loom: every atomic access, lock, yield, and
//! shared-cell access is a schedule point and a happens-before event, and
//! `Builder`/`model` exhaustively explore the bounded-preemption
//! interleavings of each scenario — deterministically and fully offline.
//!
//! Two kinds of tests live here:
//!
//! * **Verification** — the real `MpscQueue` / `PartitionAllocator` /
//!   `NoticeRing` code paths pass every explored schedule;
//! * **Seeded bugs** — replicas of the same protocols with one ordering
//!   deliberately weakened (or the pre-fix `in_use` load order restored)
//!   must make the checker FAIL, proving the tool actually distinguishes
//!   correct orderings from broken ones.

#![cfg(feature = "check")]

use damaris_check::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use damaris_check::{model, thread, Builder, FailureKind};
use damaris_shm::notice::SLOT_WORDS;
use damaris_shm::ring::{ring_in_use, ring_reclaim, ring_release, ring_reserve, RingWords};
use damaris_shm::sync::{Arc, ShmCell};
use damaris_shm::{
    AllocError, ClientLease, HeartbeatWord, MpscQueue, Notice, NoticeRing, PartitionAllocator,
    Segment,
};

// ---------------------------------------------------------------------------
// MPMC queue
// ---------------------------------------------------------------------------

/// The flagship scenario: 2 producers × 2 consumers over a capacity-2
/// ring. Every bounded-preemption interleaving must deliver both items
/// exactly once with no race on the slot cells.
///
/// Runs at the default preemption bound (2). Five virtual threads with
/// retry loops is the largest scenario in this file — tractable only
/// because of the scheduler's *fair yielding*: a consumer that yields in
/// its retry loop stays deprioritized until every other enabled thread
/// has stepped, so the spin loops cannot braid into exponentially many
/// equivalent schedules (see `damaris_check`'s scheduler docs). Expect
/// this one test to dominate the suite's runtime (~tens of seconds in
/// debug builds).
#[test]
fn mpmc_queue_two_by_two() {
    let stats = Builder::new().preemption_bound(2).check(|| {
        let q = Arc::new(MpscQueue::new(2));
        let mut producers = Vec::new();
        for p in 0..2usize {
            let q = Arc::clone(&q);
            producers.push(thread::spawn(move || {
                // Capacity 2 and two producers: push can never see Full.
                q.push(p + 1).expect("ring cannot be full");
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..2usize {
            let q = Arc::clone(&q);
            consumers.push(thread::spawn(move || loop {
                if let Some(v) = q.pop() {
                    return v;
                }
                thread::yield_now();
            }));
        }
        for h in producers {
            h.join();
        }
        let mut got: Vec<usize> = consumers.into_iter().map(|h| h.join()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "each item delivered exactly once");
        assert!(q.pop().is_none());
    });
    // Sanity: this scenario genuinely branches (hundreds of schedules).
    assert!(
        stats.executions > 10,
        "only {} executions",
        stats.executions
    );
}

/// Data written into a shared cell before `push` is visible after `pop` —
/// the queue's release/acquire pair is the only ordering in play, which is
/// exactly the edge the zero-copy segment handoff relies on.
#[test]
fn queue_handoff_is_a_happens_before_edge() {
    model(|| {
        let q = Arc::new(MpscQueue::new(2));
        let data = Arc::new(ShmCell::new(0usize));
        let (q2, d2) = (Arc::clone(&q), Arc::clone(&data));
        let t = thread::spawn(move || {
            // SAFETY: written before push; the queue's Release store of the
            // slot seq publishes it to the popping thread.
            d2.with_mut(|p| unsafe { *p = 0xDA_DA });
            q2.push(()).expect("empty ring");
        });
        loop {
            if q.pop().is_some() {
                break;
            }
            thread::yield_now();
        }
        // SAFETY: ordered after the producer's write via the pop's Acquire
        // load of the slot seq.
        assert_eq!(data.with(|p| unsafe { *p }), 0xDA_DA);
        t.join();
    });
}

/// Seeded bug (the acceptance-criterion demo): a replica of the queue's
/// slot protocol with the producer's `seq` publication store weakened from
/// `Release` to `Relaxed`. The checker must report the data race on the
/// slot value — in ANY schedule, thanks to happens-before tracking.
#[test]
fn seeded_weak_slot_seq_store_is_a_data_race() {
    let failure = Builder::new()
        .check_result(|| {
            // One slot of the Vyukov ring, minus the ring bookkeeping.
            let seq = Arc::new(AtomicUsize::new(0));
            let value = Arc::new(ShmCell::new(0usize));
            let (s2, v2) = (Arc::clone(&seq), Arc::clone(&value));
            let producer = thread::spawn(move || {
                // SAFETY: deliberately unsound replica — the Relaxed store
                // below publishes nothing; the model must object.
                v2.with_mut(|p| unsafe { *p = 7 });
                s2.store(1, Ordering::Relaxed); // seeded bug: was Release
            });
            // Consumer half of `pop`: Acquire on seq, then read the value.
            while seq.load(Ordering::Acquire) != 1 {
                thread::yield_now();
            }
            // SAFETY: intentionally racy — no release pairs with the
            // Acquire above.
            let _ = value.with(|p| unsafe { *p });
            producer.join();
        })
        .expect_err("weakened seq store must be reported");
    assert_eq!(failure.kind, FailureKind::DataRace);
}

// ---------------------------------------------------------------------------
// Partitioned allocator
// ---------------------------------------------------------------------------

/// The full alloc → write → notify → read → release cycle on the lock-free
/// partitioned allocator, two clients against one consumer, including the
/// segment byte-range race check (the `RangeTracker` inside the buffer).
#[test]
fn partition_alloc_commit_release_cycle() {
    model(|| {
        let alloc = Arc::new(PartitionAllocator::with_capacity(64, 2));
        let q = Arc::new(MpscQueue::new(2));
        let mut clients = Vec::new();
        for c in 0..2usize {
            let alloc = Arc::clone(&alloc);
            let q = Arc::clone(&q);
            clients.push(thread::spawn(move || {
                let mut seg = alloc.allocate(c, 8).expect("region is empty");
                seg.as_mut_slice().fill(c as u8 + 1);
                q.push((c, seg)).expect("ring cannot be full");
            }));
        }
        // Consumer (the dedicated core): pop, verify payload, release.
        for _ in 0..2 {
            let (c, seg) = loop {
                if let Some(ev) = q.pop() {
                    break ev;
                }
                thread::yield_now();
            };
            assert!(seg.as_slice().iter().all(|&b| b == c as u8 + 1));
            alloc.release(c, seg);
        }
        for h in clients {
            h.join();
        }
        assert_eq!(alloc.in_use(0), 0);
        assert_eq!(alloc.in_use(1), 0);
    });
}

/// Ring recycling under exploration: one client fills its region, the
/// consumer frees it, and the client reuses the same bytes. The Acquire
/// load of `tail` in `allocate` is what makes the reuse race-free; the
/// `RangeTracker` would flag any schedule where it isn't.
#[test]
fn partition_recycling_is_race_free() {
    model(|| {
        // One client, region of exactly one 8-byte block: the second
        // allocation MUST wait for the release and reuses the same bytes.
        let alloc = Arc::new(PartitionAllocator::with_capacity(8, 1));
        let q = Arc::new(MpscQueue::new(2));
        let (a2, q2) = (Arc::clone(&alloc), Arc::clone(&q));
        let consumer = thread::spawn(move || {
            for _ in 0..2 {
                let seg = loop {
                    if let Some(ev) = q2.pop() {
                        break ev;
                    }
                    thread::yield_now();
                };
                a2.release(0, seg);
            }
        });
        for round in 0..2u8 {
            let mut seg = loop {
                match alloc.allocate(0, 8) {
                    Ok(seg) => break seg,
                    Err(AllocError::Full) => thread::yield_now(),
                    Err(e) => panic!("unexpected {e}"),
                }
            };
            seg.as_mut_slice().fill(round);
            q.push(seg).expect("ring cannot be full");
        }
        consumer.join();
        assert_eq!(alloc.in_use(0), 0);
    });
}

/// Regression for the `in_use` underflow, extended over a rewind: a
/// third-party observer snapshotting `in_use` concurrently with an
/// allocate + release pair must always see a value the region could hold
/// at that instant — 0 or the one 8-byte segment. Before the fix (head
/// loaded before tail, unchecked subtraction) schedules existed where the
/// result wrapped to ~`usize::MAX`; and the pair finds the 16-byte ring
/// empty at position 8 and rewinds, after which `head - tail` alone is 16
/// — `floor`, read after `head` in the same snapshot, keeps it exact.
#[test]
fn in_use_is_always_consistent() {
    model(|| {
        let alloc = Arc::new(PartitionAllocator::with_capacity(16, 1));
        let first = alloc.allocate(0, 8).expect("region is empty");
        alloc.release(0, first);
        let a2 = Arc::clone(&alloc);
        let worker = thread::spawn(move || {
            let seg = a2.allocate(0, 8).expect("region is empty");
            assert_eq!(seg.offset(), 0, "an empty ring starts over at 0");
            a2.release(0, seg);
        });
        let used = alloc.in_use(0);
        assert!(used <= 8, "in_use {used} with at most 8 bytes live");
        worker.join();
        assert_eq!(alloc.in_use(0), 0);
    });
}

/// The rewind racing the release that empties the ring. Whether the
/// client's next `allocate` sees the consumer's `tail` store decides where
/// the segment goes — back at 0 (the ring was empty: rewind) or right
/// behind the previous one — and both are explored. Either way the bytes
/// it reuses were read before the `tail` it Acquire-loaded was stored
/// (the `RangeTracker` flags any schedule where that is not so), FIFO
/// release skips whatever padding the rewind left, and the ring drains.
#[test]
fn rewind_races_the_release_that_empties_the_ring() {
    model(|| {
        let alloc = Arc::new(PartitionAllocator::with_capacity(24, 1));
        let q = Arc::new(MpscQueue::<Segment>::new(4));
        let (a2, q2) = (Arc::clone(&alloc), Arc::clone(&q));
        let consumer = thread::spawn(move || {
            for round in 0..3u8 {
                let seg = loop {
                    if let Some(ev) = q2.pop() {
                        break ev;
                    }
                    thread::yield_now();
                };
                assert!(seg.as_slice().iter().all(|&b| b == round));
                a2.release(0, seg);
            }
        });
        let mut next = 0;
        for round in 0..3u8 {
            // Three 8-byte segments never fill 24 bytes.
            let mut seg = alloc.allocate(0, 8).expect("ring cannot be full");
            assert!(
                seg.offset() == 0 || seg.offset() == next,
                "segment at {} is neither a rewind nor behind the last (next {next})",
                seg.offset()
            );
            next = seg.offset() + 8;
            seg.as_mut_slice().fill(round);
            q.push(seg).expect("queue cannot be full");
        }
        consumer.join();
        assert_eq!(alloc.in_use(0), 0);
        // Drained, so whatever the interleaving was: all of it, from 0.
        let whole = alloc.allocate(0, 24).expect("an empty ring has it all");
        assert_eq!(whole.offset(), 0);
    });
}

/// Seeded bug: the pre-fix `in_use` load order (head before tail, plain
/// subtraction) replicated against the same counter protocol. The checker
/// must find the schedule where `tail` overtakes the stale `head` snapshot
/// and the subtraction underflows.
#[test]
fn seeded_stale_head_snapshot_underflows() {
    let failure = Builder::new()
        .check_result(|| {
            let head = Arc::new(AtomicUsize::new(0));
            let tail = Arc::new(AtomicUsize::new(0));
            let (h2, t2) = (Arc::clone(&head), Arc::clone(&tail));
            let worker = thread::spawn(move || {
                // allocate: head 0 → 8; release: tail 0 → 8.
                h2.store(8, Ordering::Release);
                t2.store(8, Ordering::Release);
            });
            // seeded bug: pre-fix load order — head first, then tail.
            let h = head.load(Ordering::Acquire);
            let t = tail.load(Ordering::Acquire);
            // With h read before the worker runs and t after, h=0 t=8.
            let used = match h.checked_sub(t) {
                Some(u) => u,
                None => panic!("in_use underflow"),
            };
            assert!(used <= 8);
            worker.join();
        })
        .expect_err("stale-head snapshot must be caught");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("underflow"),
        "unexpected message: {}",
        failure.message
    );
}

// ---------------------------------------------------------------------------
// Heartbeat (dedicated-core liveness word)
// ---------------------------------------------------------------------------

/// The crash-recovery publish pair: a respawned server rebuilds state
/// (journal replay, re-adopted segments — modeled by one shared cell) and
/// only then announces its epoch via `begin_epoch`'s Release store. A
/// client whose Acquire `observe` sees the new epoch must see the rebuilt
/// state in every explored schedule.
#[test]
fn heartbeat_epoch_publishes_rebuilt_state() {
    model(|| {
        let hb = Arc::new(HeartbeatWord::new());
        let state = Arc::new(ShmCell::new(0usize));
        let (h2, s2) = (Arc::clone(&hb), Arc::clone(&state));
        let server = thread::spawn(move || {
            // SAFETY: written before begin_epoch; its Release store
            // publishes this to any client that observes epoch 1.
            s2.with_mut(|p| unsafe { *p = 0xEB0C });
            h2.begin_epoch(1);
            h2.beat();
        });
        // Client side of `heartbeat_stale`/`await_heartbeat`: poll for the
        // word to change, then resume against the server's state.
        loop {
            let (epoch, _) = hb.observe();
            if epoch == 1 {
                break;
            }
            thread::yield_now();
        }
        // SAFETY: ordered after the server's write via the Acquire observe
        // of the epoch it Release-published.
        assert_eq!(state.with(|p| unsafe { *p }), 0xEB0C);
        server.join();
    });
}

/// Seeded bug: the same scenario with the epoch publication weakened to a
/// `Relaxed` store (a replica of `begin_epoch`, not the real one). The
/// checker must report the data race on the rebuilt state.
#[test]
fn seeded_relaxed_epoch_store_is_a_data_race() {
    let failure = Builder::new()
        .check_result(|| {
            let word = Arc::new(AtomicU64::new(0));
            let state = Arc::new(ShmCell::new(0usize));
            let (w2, s2) = (Arc::clone(&word), Arc::clone(&state));
            let server = thread::spawn(move || {
                // SAFETY: deliberately unsound replica — the Relaxed store
                // below publishes nothing; the model must object.
                s2.with_mut(|p| unsafe { *p = 0xEB0C });
                w2.store(1 << 32, Ordering::Relaxed); // seeded bug: was Release
            });
            while word.load(Ordering::Acquire) >> 32 != 1 {
                thread::yield_now();
            }
            // SAFETY: intentionally racy — no release pairs with the
            // Acquire above.
            let _ = state.with(|p| unsafe { *p });
            server.join();
        })
        .expect_err("weakened epoch store must be reported");
    assert_eq!(failure.kind, FailureKind::DataRace);
}

// ---------------------------------------------------------------------------
// Client liveness leases (renew/revoke arbitration)
// ---------------------------------------------------------------------------

/// The client-side publish pair: work written before `renew` is visible to
/// a sweeper whose Acquire snapshot observes the advanced beat — the lease
/// twin of `heartbeat_epoch_publishes_rebuilt_state`.
#[test]
fn lease_renew_publishes_client_writes() {
    model(|| {
        let lease = Arc::new(ClientLease::new());
        let data = Arc::new(ShmCell::new(0usize));
        let (l2, d2) = (Arc::clone(&lease), Arc::clone(&data));
        let client = thread::spawn(move || {
            // SAFETY: written before renew; the Release half of renew's
            // CAS publishes it to the sweeper's Acquire observation.
            d2.with_mut(|p| unsafe { *p = 0xC11E });
            assert!(l2.renew(), "nobody revokes in this scenario");
        });
        // Sweeper: poll for the beat to advance, then trust the state it
        // covers.
        loop {
            let (_, beat) = lease.observe();
            if beat == 1 {
                break;
            }
            thread::yield_now();
        }
        // SAFETY: ordered after the client's write via the Acquire
        // snapshot of the beat it Release-published.
        assert_eq!(data.with(|p| unsafe { *p }), 0xC11E);
        client.join();
    });
}

/// Seeded bug: a replica of `renew` with the publication weakened to a
/// `Relaxed` store (no CAS, no Release). The checker must report the data
/// race on the client state the beat is supposed to cover.
#[test]
fn seeded_relaxed_lease_renew_is_a_data_race() {
    let failure = Builder::new()
        .check_result(|| {
            let word = Arc::new(AtomicU64::new(0));
            let data = Arc::new(ShmCell::new(0usize));
            let (w2, d2) = (Arc::clone(&word), Arc::clone(&data));
            let client = thread::spawn(move || {
                // SAFETY: deliberately unsound replica — the Relaxed store
                // below publishes nothing; the model must object.
                d2.with_mut(|p| unsafe { *p = 0xC11E });
                w2.store(1, Ordering::Relaxed); // seeded bug: was AcqRel CAS
            });
            while word.load(Ordering::Acquire) == 0 {
                thread::yield_now();
            }
            // SAFETY: intentionally racy — no release pairs with the
            // Acquire above.
            let _ = data.with(|p| unsafe { *p });
            client.join();
        })
        .expect_err("weakened renew must be reported");
    assert_eq!(failure.kind, FailureKind::DataRace);
}

/// The arbitration itself: a client `renew` racing the sweeper's
/// `try_revoke` from a stale snapshot. In every schedule exactly one side
/// wins, and when the revoke wins the fenced client (failed renew) must
/// see the fencing state the sweeper published before revoking.
#[test]
fn lease_revoke_vs_renew_exactly_one_wins() {
    model(|| {
        let lease = Arc::new(ClientLease::new());
        let fence = Arc::new(ShmCell::new(0usize));
        // The sweeper observed this beat a full lease window ago.
        let stale = lease.snapshot();
        let (l2, f2) = (Arc::clone(&lease), Arc::clone(&fence));
        let client = thread::spawn(move || {
            let renewed = l2.renew();
            if !renewed {
                // SAFETY: a failed renew Acquires the sweeper's Release
                // revoke, ordering this read after the fence write.
                assert_eq!(f2.with(|p| unsafe { *p }), 0xFE);
            }
            renewed
        });
        // Sweeper: set up the fencing state, then try to revoke.
        // SAFETY: written before try_revoke; its Release half publishes
        // this to the fenced client's failed renew.
        fence.with_mut(|p| unsafe { *p = 0xFE });
        let revoked = lease.try_revoke(stale);
        let renewed = client.join();
        assert!(
            renewed != revoked,
            "exactly one of renew/revoke may win (renewed={renewed}, revoked={revoked})"
        );
        assert_eq!(lease.is_revoked(), revoked);
    });
}

/// The fence rule the dedicated core's `admit` follows. A client passed
/// its lease check, then died or stalled; the sweeper revokes the lease
/// and fences the client's source while the client's reserve → write →
/// push is still in flight, and sweeps the region (`revoke_remaining`).
/// The core admits what it pops before the fence — it releases that
/// segment in order — and refuses what it pops after: the segment is
/// dropped unreleased, and a further sweep takes its bytes. Every
/// interleaving drains the region with each byte given back once.
#[test]
fn late_push_after_revoke_is_dropped_unreleased() {
    model(|| {
        let alloc = Arc::new(PartitionAllocator::with_capacity(8, 1));
        let lease = Arc::new(ClientLease::new());
        let queue = Arc::new(MpscQueue::new(2));

        // The client, past its lease check: never renews again.
        let (a2, q2) = (Arc::clone(&alloc), Arc::clone(&queue));
        let client = thread::spawn(move || {
            let mut seg = a2.allocate(0, 8).expect("region is empty");
            seg.as_mut_slice().fill(0xAB);
            q2.push(seg).expect("queue has room");
        });

        // The dedicated core. A pop before the sweep is admitted: the
        // segment is handled and released.
        let mut released = 0;
        if let Some(seg) = queue.pop() {
            assert!(seg.as_slice().iter().all(|&b| b == 0xAB));
            alloc.release(0, seg);
            released += 8;
        }
        // The sweep: revoke, fence, reclaim what nothing admitted holds.
        assert!(lease.try_revoke(lease.snapshot()), "client never renews");
        let mut reclaimed = alloc.revoke_remaining(0);
        client.join();
        // A push that landed after the fence is refused at admit: dropped,
        // not released. The next sweep takes whatever is still reserved.
        while let Some(seg) = queue.pop() {
            drop(seg);
        }
        reclaimed += alloc.revoke_remaining(0);
        assert_eq!(released + reclaimed, 8, "every byte comes back once");
        assert_eq!(alloc.in_use(0), 0);
    });
}

/// Seeded bug: a core that releases a segment popped after the fence, as
/// if it had been admitted. The sweep may already have reclaimed its
/// bytes; the checker must find the schedule where the release then runs
/// behind the ring's tail — a double release.
#[test]
fn seeded_release_after_revoke_double_releases() {
    let failure = Builder::new()
        .check_result(|| {
            let alloc = Arc::new(PartitionAllocator::with_capacity(8, 1));
            let queue = Arc::new(MpscQueue::new(2));
            let (a2, q2) = (Arc::clone(&alloc), Arc::clone(&queue));
            let client = thread::spawn(move || {
                let mut seg = a2.allocate(0, 8).expect("region is empty");
                seg.as_mut_slice().fill(0xAB);
                q2.push(seg).expect("queue has room");
            });
            alloc.revoke_remaining(0);
            client.join();
            // seeded bug: the late segment is released, not dropped.
            while let Some(seg) = queue.pop() {
                alloc.release(0, seg);
            }
        })
        .expect_err("releasing a refused segment must double-release in some schedule");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("FIFO release violated"),
        "unexpected message: {}",
        failure.message
    );
}

// ---------------------------------------------------------------------------
// Backpressure (PR 1 block policy, modeled at the shm level)
// ---------------------------------------------------------------------------

/// The client backpressure *block* policy from PR 1: when the region is
/// full the client spins (bounded, yielding) until the server releases a
/// segment, then proceeds. Modeled without wall-clock timeouts (models
/// must be deterministic): the explored property is that every schedule
/// either finds the region full-then-freed or free immediately — and the
/// blocked client always makes progress once the release lands, with the
/// recycled bytes race-free.
#[test]
fn backpressure_block_policy_unblocks_on_release() {
    model(|| {
        // Region holds exactly one 8-byte block: the second reservation
        // must block until the server releases the first.
        let alloc = Arc::new(PartitionAllocator::with_capacity(8, 1));
        let q = Arc::new(MpscQueue::new(2));

        // Client: two iterations of reserve → write → notify. The second
        // reserve exercises the block policy.
        let (a2, q2) = (Arc::clone(&alloc), Arc::clone(&q));
        let client = thread::spawn(move || {
            let mut blocked = false;
            for i in 0..2u8 {
                let mut seg = loop {
                    match a2.allocate(0, 8) {
                        Ok(seg) => break seg,
                        Err(AllocError::Full) => {
                            blocked = true;
                            thread::yield_now(); // the block policy's wait
                        }
                        Err(e) => panic!("unexpected {e}"),
                    }
                };
                seg.as_mut_slice().fill(i);
                q2.push(seg).expect("ring cannot be full");
            }
            blocked
        });

        // Server: drain both iterations, verifying payloads, releasing.
        for i in 0..2u8 {
            let seg = loop {
                if let Some(ev) = q.pop() {
                    break ev;
                }
                thread::yield_now();
            };
            assert!(seg.as_slice().iter().all(|&b| b == i));
            alloc.release(0, seg);
        }
        // In every schedule the client finished both iterations; whether
        // it ever observed Full depends on the interleaving, and both
        // outcomes are explored.
        let _blocked = client.join();
        assert_eq!(alloc.in_use(0), 0);
    });
}

// ---------------------------------------------------------------------------
// Mapped-ring protocol (crate::ring) — the cross-process partition ring
// ---------------------------------------------------------------------------

/// The bare-word ring protocol that backs the cross-process node
/// (`MappedNode`) and `PartitionAllocator` alike: one client reserving,
/// one consumer releasing FIFO, over plain `AtomicU64` counters — the
/// free functions the mapped node calls on words living in a file
/// mapping, so verifying here verifies those.
#[test]
fn mapped_ring_reserve_release_cycle() {
    model(|| {
        let words = Arc::new(RingWords::default());
        let q = Arc::new(MpscQueue::new(2));
        const CAP: u64 = 16;

        let (w2, q2) = (Arc::clone(&words), Arc::clone(&q));
        let client = thread::spawn(move || {
            // Two 8-byte reservations through a 16-byte ring: the second
            // lands behind the first, or at 0 again if that was released.
            for i in 0..2u64 {
                let pos = ring_reserve(&w2.ring(CAP), 8)
                    .expect("ring cannot be full")
                    .start;
                q2.push((i, pos)).expect("ring cannot be full");
            }
        });

        let ring = words.ring(CAP);
        for want in 0..2u64 {
            let (i, pos) = loop {
                if let Some(ev) = q.pop() {
                    break ev;
                }
                thread::yield_now();
            };
            assert_eq!(i, want, "FIFO order preserved");
            ring_release(&ring, pos, 8);
        }
        client.join();
        assert_eq!(ring_in_use(&ring), 0);
        assert_eq!(
            words.head.load(Ordering::Relaxed),
            words.tail.load(Ordering::Relaxed),
            "FIFO release reclaimed every pad"
        );
    });
}

/// The fenced-client sweep: a reservation already in flight when the
/// sweeper reclaims (the lease grace window) may land its `head` store —
/// and, the ring being empty at position 8, its rewind — after the
/// reclaim. The protocol guarantee is exactly the allocator's: counters
/// never corrupt, `in_use` stays within what is live, one more reclaim
/// pass drains whatever the late store left behind, and whoever registers
/// on the ring next starts at 0 with all of it.
#[test]
fn mapped_ring_reclaim_vs_inflight_reserve() {
    model(|| {
        let words = Arc::new(RingWords::default());
        const CAP: u64 = 32;
        let ring = words.ring(CAP);
        // Committed and released before the client's lease ran out.
        let first = ring_reserve(&ring, 8).expect("ring is empty").start;
        ring_release(&ring, first, 8);

        let w2 = Arc::clone(&words);
        let dying_client = thread::spawn(move || {
            // The client raced past its entry renew before the revoke; its
            // reserve may interleave anywhere around the sweep.
            let _ = ring_reserve(&w2.ring(CAP), 8);
        });

        let _ = ring_reclaim(&ring);
        let used = ring_in_use(&ring);
        assert!(used <= 8, "in_use {used} with at most 8 bytes live");
        dying_client.join();
        // The sweeper's repeated fire: after the client is gone, one more
        // pass always leaves the ring empty for re-registration.
        let _ = ring_reclaim(&ring);
        assert_eq!(ring_in_use(&ring), 0);
        assert_eq!(ring_reserve(&ring, CAP).map(|at| at.start), Ok(0));
        assert_eq!(ring_in_use(&ring), CAP);
    });
}

/// Seeded bug: a replica in which the *consumer* rewinds the ring when its
/// release empties it. Emptiness is stable only for the side that can end
/// it: between the consumer's look at `head` and its stores the client
/// may reserve, and the rewind then happens with that segment live — its
/// bytes fall below `floor`, out of the live window, and the next
/// reservation is placed on top of them. The checker must find it.
#[test]
fn seeded_consumer_side_rewind_overlaps_a_live_segment() {
    let failure = Builder::new()
        .check_result(|| {
            let words = Arc::new(RingWords::default());
            const CAP: u64 = 24;
            let ring = words.ring(CAP);
            let first = ring_reserve(&ring, 8).expect("ring is empty").start;

            let w2 = Arc::clone(&words);
            let consumer = thread::spawn(move || {
                ring_release(&w2.ring(CAP), first, 8);
                // seeded bug: the rewind belongs to the owner of `head`.
                let h = w2.head.load(Ordering::Acquire);
                if w2.tail.load(Ordering::Relaxed) == h {
                    let base = h.next_multiple_of(CAP);
                    w2.floor.store(base, Ordering::Release);
                    w2.head.store(base, Ordering::Release);
                }
            });

            // The client's next write comes after the release (so its
            // own arithmetic never meets a `floor` from the future, which
            // would trip first) and stays live: a whole-ring reservation
            // must not fit beside it.
            while words.tail.load(Ordering::Acquire) != 8 {
                thread::yield_now();
            }
            let kept = ring_reserve(&ring, 8).expect("ring cannot be full").start;
            consumer.join();
            if let Ok(pos) = ring_reserve(&ring, CAP).map(|at| at.start) {
                assert!(
                    pos >= kept + 8 || pos + CAP <= kept,
                    "reservation overlaps a live segment"
                );
            }
        })
        .expect_err("a rewind with a segment live must be caught");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("overlaps a live segment"),
        "unexpected message: {}",
        failure.message
    );
}

// ---------------------------------------------------------------------------
// Notice ring (crate::notice) — the process node's per-client event ring
// ---------------------------------------------------------------------------

/// One notice ring's words on the heap — in a process node they sit in
/// the client's block of the mapping, and `MappedNode::notices` views them
/// the same way.
struct NoticeWords {
    head: AtomicU64,
    tail: AtomicU64,
    applied: AtomicU64,
    slots: Vec<AtomicU64>,
}

impl NoticeWords {
    fn new(capacity: usize) -> NoticeWords {
        NoticeWords {
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            slots: (0..capacity * SLOT_WORDS)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    fn ring(&self) -> NoticeRing<'_> {
        NoticeRing {
            head: &self.head,
            tail: &self.tail,
            applied: &self.applied,
            slots: &self.slots,
        }
    }
}

fn nth_notice(i: u64) -> Notice {
    Notice::Write {
        variable: i as u32,
        iteration: 10 + i as u32,
        offset: 8 * i,
        len: 8,
    }
}

/// One client posting three notices through a ring of two slots — so the
/// third reuses the first's slot — against the dedicated core taking them
/// as the drain pass does: peek, read what the notice points at, advance,
/// apply. In
/// every schedule the core sees each notice's words whole and in order,
/// and the payload byte the client wrote before posting it; the client
/// never overwrites a slot the core is still reading (the words would
/// differ), and the payload read is ordered after its write (the cell
/// would report a race).
#[test]
fn notice_ring_delivers_every_notice_across_a_wrap() {
    let stats = Builder::new().check(|| {
        let words = Arc::new(NoticeWords::new(2));
        let payload = Arc::new([ShmCell::new(0u8), ShmCell::new(0u8), ShmCell::new(0u8)]);
        let (w2, p2) = (Arc::clone(&words), Arc::clone(&payload));
        let client = thread::spawn(move || {
            for i in 0..3u64 {
                // SAFETY: written before the post; its Release store of
                // `head` publishes it to the core's Acquire in `peek`.
                p2[i as usize].with_mut(|p| unsafe { *p = 0xA0 + i as u8 });
                while !w2.ring().post(nth_notice(i).encode()) {
                    thread::yield_now(); // full: wait for the core
                }
            }
        });
        let ring = words.ring();
        for i in 0..3u64 {
            let got = loop {
                if let Some(got) = ring.peek() {
                    break got;
                }
                thread::yield_now();
            };
            assert_eq!(Notice::decode(got), Some(nth_notice(i)), "notice {i}");
            // SAFETY: ordered after the client's write by the Acquire
            // load of `head` in `peek`.
            assert_eq!(payload[i as usize].with(|p| unsafe { *p }), 0xA0 + i as u8);
            let taken = ring.advance();
            ring.apply(taken);
        }
        client.join();
        assert_eq!(ring.peek(), None);
        assert_eq!(words.head.load(Ordering::Relaxed), 3);
    });
    // The full ring, the wrap and the race for each slot all branch.
    assert!(
        stats.executions > 10,
        "only {} executions",
        stats.executions
    );
}

/// Seeded bug: a replica of `NoticeRing::post` that publishes `head`
/// `Relaxed`. The core's Acquire in `peek` then pairs with nothing, and
/// the checker must report its read of the payload as a data race.
#[test]
fn seeded_relaxed_notice_head_is_a_data_race() {
    let failure = Builder::new()
        .check_result(|| {
            let words = Arc::new(NoticeWords::new(2));
            let payload = Arc::new(ShmCell::new(0u8));
            let (w2, p2) = (Arc::clone(&words), Arc::clone(&payload));
            let client = thread::spawn(move || {
                // SAFETY: deliberately unsound replica — the Relaxed store
                // below publishes nothing; the model must object.
                p2.with_mut(|p| unsafe { *p = 0xA0 });
                let h = w2.head.load(Ordering::Relaxed);
                assert!(h - w2.tail.load(Ordering::Acquire) < 2, "room for one");
                for (word, value) in w2.slots.iter().zip(nth_notice(0).encode()) {
                    word.store(value, Ordering::Relaxed);
                }
                w2.head.store(h + 1, Ordering::Relaxed); // seeded bug: was Release
            });
            let ring = words.ring();
            while ring.peek().is_none() {
                thread::yield_now();
            }
            // SAFETY: intentionally racy — no release pairs with the
            // Acquire in `peek`.
            let _ = payload.with(|p| unsafe { *p });
            ring.advance();
            client.join();
        })
        .expect_err("a Relaxed head must be reported");
    assert_eq!(failure.kind, FailureKind::DataRace);
}

// ---------------------------------------------------------------------------
// Respawn replay: the notice ring is the log
// ---------------------------------------------------------------------------

const RANKS: usize = 2;
const POSTS: usize = 3;

/// What `rank` posts at position `p` of its ring: a signal at 1 of rank 0,
/// a write everywhere else. Each carries its position, so whoever reads a
/// slot can tell which post it holds.
fn nth_post(rank: usize, p: usize) -> Notice {
    if (rank, p) == (0, 1) {
        Notice::User {
            action: p as u32,
            iteration: 0,
        }
    } else {
        Notice::Write {
            variable: p as u32,
            iteration: 0,
            offset: 0,
            len: 8,
        }
    }
}

/// What outlives a core, per notice: its write persisted (a file written
/// under its final name: writing it again is the same effect), its action
/// dispatched, and the times a core applied it.
#[derive(Default)]
struct Effects {
    persisted: [[u32; POSTS]; RANKS],
    fired: [[u32; POSTS]; RANKS],
    applied: [[u32; POSTS]; RANKS],
}

/// The seeded bugs of [`respawn_replay`].
#[derive(Clone, Copy, PartialEq)]
enum Bug {
    /// `applied` advances as a notice is taken.
    ApplyAtTake,
    /// The successor skips `NoticeRing::recover`.
    NoRecover,
}

/// A dedicated core reduced to the ring protocol: it takes, handles
/// (a signal is applied before its dispatch; a write stays resident),
/// commits what is resident and then applies it. `budget` counts the
/// schedule points of that protocol it lives through (`None`: all of
/// them), each store inside `NoticeRing::apply` among them.
struct ModelCore<'a> {
    rings: [NoticeRing<'a>; RANKS],
    resident: Vec<(usize, usize)>,
    budget: Option<usize>,
    bug: Option<Bug>,
}

/// Passes one schedule point of a core with `budget` left: `false` once
/// the core is dead.
fn step(budget: &mut Option<usize>) -> bool {
    match budget {
        Some(0) => false,
        Some(left) => {
            *left -= 1;
            true
        }
        None => true,
    }
}

impl ModelCore<'_> {
    fn step(&mut self) -> bool {
        step(&mut self.budget)
    }

    /// Applies the notice at `p` of `rank`'s ring, dying at whichever of
    /// its stores the budget runs out: `false` then. It counts as applied
    /// once its mark is stored, the first of them.
    fn apply(&mut self, fx: &mut Effects, rank: usize, p: u64) -> bool {
        let (budget, mut marked) = (&mut self.budget, None);
        let lived = self.rings[rank].apply_stepwise(p, &mut || {
            let alive = step(budget);
            marked.get_or_insert(alive);
            alive
        });
        if marked == Some(true) {
            fx.applied[rank][p as usize] += 1;
        }
        lived
    }

    /// Handles the notice at `p` of `rank`'s ring, which must be the one
    /// posted there: a slot the client reused before `applied` passed it
    /// would hold a later post.
    fn handle(&mut self, fx: &mut Effects, rank: usize, p: u64, words: [u64; 4]) -> bool {
        let notice = Notice::decode(words);
        assert_eq!(notice, Some(nth_post(rank, p as usize)), "slot {p} reused");
        match notice {
            Some(Notice::User { .. }) => {
                if self.bug != Some(Bug::ApplyAtTake) && !self.apply(fx, rank, p) {
                    return false;
                }
                if !self.step() {
                    return false;
                }
                fx.fired[rank][p as usize] += 1;
            }
            _ => self.resident.push((rank, p as usize)),
        }
        true
    }

    /// A successor's first act: what its predecessor took and did not
    /// finish, ring by ring.
    fn replay(&mut self, fx: &mut Effects) -> bool {
        for rank in 0..RANKS {
            if self.bug != Some(Bug::NoRecover) {
                self.rings[rank].recover();
            }
            for (p, words) in self.rings[rank].unapplied() {
                if !self.step() || !self.handle(fx, rank, p, words) {
                    return false;
                }
            }
        }
        true
    }

    /// Passes over both rings until every post is applied; `false` if the
    /// core died first.
    fn serve(&mut self, fx: &mut Effects) -> bool {
        loop {
            let mut took = false;
            for rank in 0..RANKS {
                let ring = self.rings[rank];
                let Some(words) = ring.peek() else {
                    continue;
                };
                if !self.step() {
                    return false;
                }
                let p = ring.advance();
                took = true;
                if self.bug == Some(Bug::ApplyAtTake) && !self.apply(fx, rank, p) {
                    return false;
                }
                if !self.step() || !self.handle(fx, rank, p, words) {
                    return false;
                }
            }
            while let Some(&(rank, p)) = self.resident.first() {
                if !self.step() {
                    return false;
                }
                fx.persisted[rank][p] = 1;
                if self.bug != Some(Bug::ApplyAtTake) && !self.apply(fx, rank, p as u64) {
                    return false;
                }
                self.resident.remove(0);
            }
            let posts = POSTS as u64;
            if self
                .rings
                .iter()
                .all(|r| r.applied.load(Ordering::Relaxed) == posts)
            {
                return true;
            }
            if !took {
                thread::yield_now();
            }
        }
    }
}

/// Schedule points an undisturbed core passes, six per notice: its take,
/// its handle, a write's commit or a signal's dispatch, and in `apply`
/// its mark and the two stores that free its slot.
const CORE_STEPS: usize = RANKS * POSTS * 6;

/// Two ranks post three notices each through rings of two slots (the
/// third reuses the first's slot only once `applied` passes it) while a
/// core serves them; the core dies after `kill_at` of its schedule points
/// and a successor recovers and replays `[applied, tail)`, then serves
/// on. Fails the model if a write is lost, a notice is applied other than
/// once, a signal fires twice, a slot is read after its reuse, or a ring
/// is left with a slot that is not free.
fn respawn_replay(
    kill_at: usize,
    bug: Option<Bug>,
) -> Result<damaris_check::Stats, damaris_check::Failure> {
    // One preemption: two pass too, in minutes instead of seconds.
    Builder::new().preemption_bound(1).check_result(move || {
        let words = Arc::new([NoticeWords::new(2), NoticeWords::new(2)]);
        // One thread posts for both ranks, each into its own ring: two
        // posters that both wait on a full ring would each wait for the
        // other to step first.
        let w2 = Arc::clone(&words);
        let clients = thread::spawn(move || {
            for p in 0..POSTS {
                for (rank, words) in w2.iter().enumerate() {
                    while !words.ring().post(nth_post(rank, p).encode()) {
                        thread::yield_now(); // full: wait for `applied`
                    }
                }
            }
        });
        let mut fx = Effects::default();
        let core = |budget| ModelCore {
            rings: [words[0].ring(), words[1].ring()],
            resident: Vec::new(),
            budget,
            bug,
        };
        if !core(Some(kill_at)).serve(&mut fx) {
            let mut successor = core(None);
            assert!(successor.replay(&mut fx) && successor.serve(&mut fx));
        }
        clients.join();
        for rank in 0..RANKS {
            for p in 0..POSTS {
                assert_eq!(fx.applied[rank][p], 1, "notice {rank}/{p} applied once");
                if let Notice::User { .. } = nth_post(rank, p) {
                    assert!(fx.fired[rank][p] <= 1, "signal {rank}/{p} fired twice");
                } else {
                    assert_eq!(fx.persisted[rank][p], 1, "write {rank}/{p} lost");
                }
            }
            let mut firsts = words[rank].slots.iter().step_by(SLOT_WORDS);
            let free = firsts.all(|w| w.load(Ordering::Relaxed) == 0);
            assert!(free, "ring {rank} holds a slot after the run");
        }
    })
}

/// The core killed at every schedule point of take → handle → commit →
/// apply, each store of `apply` included, under every explored
/// interleaving with the two clients: every write takes effect exactly
/// once, the signal at most once, no slot is reused before `applied`
/// passes it, and every slot is free at the end.
#[test]
fn respawn_replays_exactly_what_was_taken_and_not_applied() {
    let mut executions = 0;
    for kill_at in 0..=CORE_STEPS {
        executions += respawn_replay(kill_at, None)
            .unwrap_or_else(|failure| panic!("killed at {kill_at}: {failure}"))
            .executions;
    }
    println!(
        "{executions} executions over {} kill points",
        CORE_STEPS + 1
    );
    assert!(executions > 100, "only {executions} executions");
}

/// Seeded bug: a core that advances `applied` as it takes a notice. A
/// core killed between the take and the commit leaves its successor
/// nothing to replay, and the checker must find the write that was lost.
/// (Killed inside that early `apply`, before its mark, the core leaves a
/// write its successor replays and never applies: a livelock.)
#[test]
fn seeded_apply_at_take_loses_a_write() {
    let lost = (0..=CORE_STEPS)
        .filter_map(|kill_at| respawn_replay(kill_at, Some(Bug::ApplyAtTake)).err())
        .find(|failure| failure.kind == FailureKind::Panic);
    let failure = lost.expect("applying at take must lose a write at some kill point");
    assert!(failure.message.contains("lost"), "{}", failure.message);
}

/// Seeded bug: a successor that does not `recover`. A core killed after
/// `applied` passed a slot and before it zeroed it leaves the slot marked,
/// and the checker must find the successor reading the mark as a notice
/// once `tail` comes round to it.
#[test]
fn seeded_replay_without_recover_reads_a_mark() {
    let failure = (0..=CORE_STEPS)
        .find_map(|kill_at| respawn_replay(kill_at, Some(Bug::NoRecover)).err())
        .expect("skipping recover must leave a mark at some kill point");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.message.contains("reused"), "{}", failure.message);
}
