//! Self-tests for the mini-loom: exploration really enumerates
//! interleavings, the happens-before machinery really distinguishes
//! `Release` from `Relaxed`, and deadlocks/livelocks are reported rather
//! than hung on.

use check::cell::{CheckCell, RangeTracker};
use check::sync::atomic::{AtomicUsize, Ordering};
use check::sync::{Arc, Mutex};
use check::{Builder, FailureKind};
use damaris_check as check;

/// Two RMW increments always sum — and exploration visits both orders.
#[test]
fn fetch_add_is_atomic() {
    let stats = check::model(|| {
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        let t = check::thread::spawn(move || {
            n2.fetch_add(1, Ordering::Relaxed);
        });
        n.fetch_add(1, Ordering::Relaxed);
        t.join();
        assert_eq!(n.load(Ordering::Relaxed), 2);
    });
    // At minimum: child-first and parent-first schedules.
    assert!(
        stats.executions >= 2,
        "only {} executions",
        stats.executions
    );
}

/// Seeded bug: a load+store "increment" is not atomic. The checker must
/// find the lost-update interleaving — this proves schedules are really
/// explored, not just replayed once.
#[test]
fn seeded_lost_update_is_found() {
    let failure = Builder::new()
        .check_result(|| {
            let n = Arc::new(AtomicUsize::new(0));
            let n2 = Arc::clone(&n);
            let t = check::thread::spawn(move || {
                let v = n2.load(Ordering::Relaxed);
                n2.store(v + 1, Ordering::Relaxed);
            });
            let v = n.load(Ordering::Relaxed);
            n.store(v + 1, Ordering::Relaxed);
            t.join();
            assert_eq!(n.load(Ordering::Relaxed), 2);
        })
        .expect_err("checker must find the lost update");
    assert_eq!(failure.kind, FailureKind::Panic);
}

/// Message passing with Release/Acquire: no race, payload visible.
#[test]
fn release_acquire_publishes() {
    check::model(|| {
        let flag = Arc::new(AtomicUsize::new(0));
        let data = Arc::new(CheckCell::new(0usize));
        let (f2, d2) = (Arc::clone(&flag), Arc::clone(&data));
        let t = check::thread::spawn(move || {
            // SAFETY: race-checked by the model; the consumer only reads
            // after the Release→Acquire edge on `flag`.
            d2.with_mut(|p| unsafe { *p = 42 });
            f2.store(1, Ordering::Release);
        });
        while flag.load(Ordering::Acquire) == 0 {
            check::thread::yield_now();
        }
        // SAFETY: ordered after the producer's write via Acquire above.
        let v = data.with(|p| unsafe { *p });
        assert_eq!(v, 42);
        t.join();
    });
}

/// Seeded bug: the same pattern with the publication store weakened to
/// `Relaxed` must be reported as a data race — the exact failure mode a
/// weakened queue-slot `seq` store would introduce.
#[test]
fn seeded_relaxed_publication_races() {
    let failure = Builder::new()
        .check_result(|| {
            let flag = Arc::new(AtomicUsize::new(0));
            let data = Arc::new(CheckCell::new(0usize));
            let (f2, d2) = (Arc::clone(&flag), Arc::clone(&data));
            let t = check::thread::spawn(move || {
                // SAFETY: deliberately unsound — the Relaxed store below
                // provides no happens-before; the checker must object.
                d2.with_mut(|p| unsafe { *p = 42 });
                f2.store(1, Ordering::Relaxed); // seeded bug: was Release
            });
            while flag.load(Ordering::Acquire) == 0 {
                check::thread::yield_now();
            }
            // SAFETY: intentionally racy read (see above).
            let _ = data.with(|p| unsafe { *p });
            t.join();
        })
        .expect_err("checker must flag the relaxed publication");
    assert_eq!(failure.kind, FailureKind::DataRace);
    assert!(failure.message.contains("data race"), "{}", failure.message);
}

/// Mutexes order their critical sections: no race on the shared cell.
#[test]
fn mutex_orders_critical_sections() {
    check::model(|| {
        let m = Arc::new(Mutex::new(0usize));
        let m2 = Arc::clone(&m);
        let t = check::thread::spawn(move || {
            *m2.lock() += 1;
        });
        *m.lock() += 1;
        t.join();
        assert_eq!(*m.lock(), 2);
    });
}

/// ABBA lock ordering: the checker reports a deadlock instead of hanging.
#[test]
fn abba_deadlock_detected() {
    let failure = Builder::new()
        .check_result(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = check::thread::spawn(move || {
                let _g1 = b2.lock();
                let _g2 = a2.lock();
            });
            let _g1 = a.lock();
            let _g2 = b.lock();
            drop(_g2);
            drop(_g1);
            t.join();
        })
        .expect_err("checker must find the lock cycle");
    assert_eq!(failure.kind, FailureKind::Deadlock);
}

/// A spin loop that can never be satisfied trips the step budget as a
/// livelock instead of spinning the test harness forever.
#[test]
fn unbounded_spin_reported_as_livelock() {
    let failure = Builder {
        max_steps: 500,
        ..Builder::default()
    }
    .check_result(|| {
        let flag = Arc::new(AtomicUsize::new(0));
        while flag.load(Ordering::Acquire) == 0 {
            check::thread::yield_now();
        }
    })
    .expect_err("spin with no writer must be a livelock");
    assert_eq!(failure.kind, FailureKind::Livelock);
}

/// Exploration is deterministic: same model, same execution count.
#[test]
fn exploration_is_deterministic() {
    let run = || {
        check::model(|| {
            let n = Arc::new(AtomicUsize::new(0));
            let n2 = Arc::clone(&n);
            let t = check::thread::spawn(move || {
                n2.fetch_add(1, Ordering::AcqRel);
                n2.fetch_add(1, Ordering::AcqRel);
            });
            n.fetch_add(1, Ordering::AcqRel);
            t.join();
            assert_eq!(n.load(Ordering::Acquire), 3);
        })
    };
    assert_eq!(run(), run());
}

/// Range tracker: disjoint concurrent writes are fine; overlapping
/// unordered writes are a race.
#[test]
fn range_tracker_disjoint_ok_overlap_races() {
    check::model(|| {
        let t = Arc::new(RangeTracker::new());
        let t2 = Arc::clone(&t);
        let h = check::thread::spawn(move || {
            t2.write(0, 64);
        });
        t.write(64, 64);
        h.join();
        t.read(0, 128); // ordered after both via join
    });

    let failure = Builder::new()
        .check_result(|| {
            let t = Arc::new(RangeTracker::new());
            let t2 = Arc::clone(&t);
            let h = check::thread::spawn(move || {
                t2.write(0, 64);
            });
            t.write(32, 64); // overlaps [0,64) with no ordering
            h.join();
        })
        .expect_err("overlapping unordered writes must race");
    assert_eq!(failure.kind, FailureKind::DataRace);
}

/// Spawn/join edges carry clocks: parent sees child's non-atomic writes
/// after join without any atomics.
#[test]
fn join_is_a_happens_before_edge() {
    check::model(|| {
        let cell = Arc::new(CheckCell::new(0u64));
        let c2 = Arc::clone(&cell);
        let t = check::thread::spawn(move || {
            // SAFETY: only the child writes before the join edge.
            c2.with_mut(|p| unsafe { *p = 7 });
        });
        t.join();
        // SAFETY: ordered after the child via join.
        assert_eq!(cell.with(|p| unsafe { *p }), 7);
    });
}

/// The preemption bound caps exploration: bound 0 is non-preemptive
/// (threads run to completion unless they block/yield), so the lost
/// update from `seeded_lost_update_is_found` is NOT found — documenting
/// that the bound is real and why the default is 2.
#[test]
fn preemption_bound_zero_misses_the_bug() {
    let r = Builder::new().preemption_bound(0).check_result(|| {
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        let t = check::thread::spawn(move || {
            let v = n2.load(Ordering::Relaxed);
            n2.store(v + 1, Ordering::Relaxed);
        });
        let v = n.load(Ordering::Relaxed);
        n.store(v + 1, Ordering::Relaxed);
        t.join();
        assert_eq!(n.load(Ordering::Relaxed), 2);
    });
    assert!(r.is_ok(), "bound 0 cannot interleave mid-increment");
}
