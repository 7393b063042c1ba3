//! Regression tests for scheduler and harness bugs found while building
//! the shm model suite. Each test pins a failure mode that once hung the
//! explorer or corrupted a failure report.

use damaris_check::sync::atomic::{AtomicUsize, Ordering};
use damaris_check::sync::Arc;
use damaris_check::{thread, Builder, FailureKind};

/// Two threads spinning on the same not-yet-set flag used to hand the
/// baton back and forth: every fruitless yield was a fresh branch point,
/// and the DFS tree grew as ~3^(spin length) — each execution finished,
/// but the schedule space never exhausted. Fair yielding (a yielded
/// thread stays deprioritized until every other enabled thread has taken
/// a real step) forces the producers to run in every branch, collapsing
/// the spin loops to a polynomial number of schedules.
#[test]
fn competing_spinners_terminate() {
    let stats = Builder::new().preemption_bound(1).check(|| {
        let n = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let n2 = Arc::clone(&n);
            handles.push(thread::spawn(move || {
                n2.fetch_add(1, Ordering::AcqRel);
            }));
        }
        for _ in 0..2 {
            let n2 = Arc::clone(&n);
            handles.push(thread::spawn(move || {
                while n2.load(Ordering::Acquire) == 0 {
                    thread::yield_now();
                }
            }));
        }
        for h in handles {
            h.join();
        }
        assert_eq!(n.load(Ordering::Acquire), 2);
    });
    assert!(stats.executions > 0);
}

/// A root panic while a spawned thread had not yet taken its first step
/// used to hang the controller: the entry gate (`wait_for_turn`) sat
/// outside the spawned thread's `catch_unwind`, so the abort unwound past
/// the bookkeeping and `all_done` never became true. Also pins the
/// failure *message*: passing `&Box<dyn Any>` to the payload formatter
/// unsize-coerced to `&dyn Any` of the Box itself, so the `&str` downcast
/// always failed and every panic read "non-string payload".
#[test]
fn panic_before_child_first_step_reports_and_terminates() {
    let failure = Builder::new()
        .check_result(|| {
            let t = thread::spawn(|| {});
            if true {
                panic!("boom literal");
            }
            t.join();
        })
        .expect_err("the panic must be reported");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("boom literal"),
        "payload lost: {}",
        failure.message
    );
}

/// Formatted (`String`-payload) panics must round-trip too.
#[test]
fn formatted_panic_message_is_preserved() {
    let failure = Builder::new()
        .check_result(|| {
            let v = 41;
            assert_eq!(v, 42, "off by {}", 42 - v);
        })
        .expect_err("the assert must be reported");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("off by 1"),
        "payload lost: {}",
        failure.message
    );
}

/// When only yielded threads whose fairness debt is unpaid remain, the
/// forced switch used to offer the thread that had just yielded as its
/// first option, so the DFS's first branch re-picked it forever and the
/// check failed as `Livelock` — here after 45 executions, although a
/// taker or a poster can always move. One taker and two posters of two
/// items each spin-yield over a slot that holds one item.
#[test]
fn mutual_yielders_are_not_a_livelock() {
    let stats = Builder::new().preemption_bound(2).check(|| {
        let slot = Arc::new(AtomicUsize::new(0));
        let posters: Vec<_> = (0..2)
            .map(|_| {
                let slot = Arc::clone(&slot);
                thread::spawn(move || {
                    for _ in 0..2 {
                        while slot
                            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                            .is_err()
                        {
                            thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let mut taken = 0;
        while taken < 4 {
            if slot
                .compare_exchange(1, 0, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                taken += 1;
            } else {
                thread::yield_now();
            }
        }
        for p in posters {
            p.join();
        }
    });
    println!("mutual yielders: {} executions", stats.executions);
}
