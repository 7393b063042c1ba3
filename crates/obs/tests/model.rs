//! Schedule-exploring model tests for the observability trace ring.
//!
//! Run with:
//!
//! ```text
//! cargo test -p damaris-obs --features check
//! ```
//!
//! The ring routes every cursor and slot-state access through the
//! `damaris_shm::sync` facade, so under `--features check` the whole
//! drop-oldest protocol — ticket claim, per-slot seq handoff, flusher
//! claim CAS, lap-jump — runs inside the `damaris-check` mini-loom.
//!
//! Structure mirrors `crates/shm/tests/model.rs`: verification tests run
//! the real [`TraceRing`] code, and *seeded-bug* replicas weaken exactly
//! one ordering the real code relies on and assert the checker objects.

#![cfg(feature = "check")]

use damaris_check::sync::atomic::{AtomicUsize, Ordering};
use damaris_check::{model, thread, Builder, FailureKind};
use damaris_format::trace::TraceRecord;
use damaris_obs::TraceRing;
use damaris_shm::sync::{Arc, ShmCell};

fn rec(i: u64) -> TraceRecord {
    TraceRecord {
        t_ns: i,
        dur_ns: 10 * i,
        ..TraceRecord::default()
    }
}

/// Writer-vs-flusher handoff: the record bytes written before the slot's
/// Release publish must be visible to the flusher's Acquire claim in
/// every explored schedule (this is the edge the seeded test below
/// breaks).
#[test]
fn ring_handoff_publishes_record() {
    model(|| {
        let ring = TraceRing::new(4);
        let r2 = Arc::clone(&ring);
        let writer = thread::spawn(move || {
            r2.push(rec(0xDADA));
        });
        let mut out = Vec::new();
        while out.is_empty() {
            ring.flush_into(&mut out);
            thread::yield_now();
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].t_ns, 0xDADA);
        assert_eq!(out[0].dur_ns, 10 * 0xDADA);
        writer.join();
        assert_eq!(ring.pushed(), 1);
        assert_eq!(ring.dropped(), 0);
    });
}

/// Wraparound at capacity with a concurrent flusher: a writer pushes one
/// more record than the ring holds, so depending on the schedule the
/// flusher either drains fast enough (no drop) or the writer steals the
/// oldest slot (one drop). Every schedule must satisfy the accounting
/// invariant and keep the survivor sequence in order.
#[test]
fn ring_wraparound_drop_oldest() {
    let stats = Builder::new().preemption_bound(2).check(|| {
        let ring = TraceRing::new(4);
        let r2 = Arc::clone(&ring);
        let writer = thread::spawn(move || {
            for i in 0..5u64 {
                r2.push(rec(i));
            }
        });
        let mut out = Vec::new();
        // A couple of concurrent drains racing the writer...
        for _ in 0..2 {
            ring.flush_into(&mut out);
            thread::yield_now();
        }
        writer.join();
        // ...then the final drain once the writer is quiescent.
        ring.flush_into(&mut out);
        assert_eq!(ring.pushed(), 5);
        assert_eq!(
            out.len() as u64 + ring.dropped(),
            5,
            "pushed == flushed + dropped once drained"
        );
        // Drop-oldest never reorders survivors.
        assert!(
            out.windows(2).all(|p| p[0].t_ns < p[1].t_ns),
            "survivors out of order: {:?}",
            out.iter().map(|r| r.t_ns).collect::<Vec<_>>()
        );
        // The final record cannot be dropped: nothing laps it.
        assert_eq!(out.last().expect("non-empty").t_ns, 4);
    });
    assert!(
        stats.executions > 10,
        "only {} executions",
        stats.executions
    );
}

/// Dropped-record accounting with two concurrent writers (the MPSC case:
/// cloned client handles share one ring). Exactly `pushed - flushed`
/// drops are counted — never double-counted, never missed — and the
/// ticket dispenser hands every position to exactly one writer.
#[test]
fn ring_mpsc_accounting_is_exact() {
    let stats = Builder::new().preemption_bound(2).check(|| {
        let ring = TraceRing::new(4);
        let mut writers = Vec::new();
        for w in 0..2u64 {
            let ring = Arc::clone(&ring);
            writers.push(thread::spawn(move || {
                for i in 0..3 {
                    ring.push(rec(100 * (w + 1) + i));
                }
            }));
        }
        for h in writers {
            h.join();
        }
        let mut out = Vec::new();
        ring.flush_into(&mut out);
        assert_eq!(ring.pushed(), 6);
        assert_eq!(out.len() as u64 + ring.dropped(), 6);
        // 6 pushes into 4 slots: at least 2 drops, and the ring retains at
        // most its capacity.
        assert!(out.len() <= 4);
        assert!(ring.dropped() >= 2);
        // Each writer's surviving records keep their program order.
        for w in 0..2u64 {
            let seq: Vec<u64> = out
                .iter()
                .map(|r| r.t_ns)
                .filter(|t| t / 100 == w + 1)
                .collect();
            assert!(seq.windows(2).all(|p| p[0] < p[1]), "writer {w}: {seq:?}");
        }
    });
    assert!(
        stats.executions > 10,
        "only {} executions",
        stats.executions
    );
}

/// Seeded bug: the writer's slot publication (`seq.store(p + 1)`)
/// weakened from `Release` to `Relaxed`, replicated on a single slot.
/// The record bytes are then unordered with the flusher's claim, and the
/// checker must report the data race on the cell.
#[test]
fn seeded_weak_publish_store_is_a_data_race() {
    let failure = Builder::new()
        .check_result(|| {
            // One ring slot at position 0: seq 0 free → 1 full → 2 claimed.
            let seq = Arc::new(AtomicUsize::new(0));
            let val = Arc::new(ShmCell::new(TraceRecord::default()));
            let (s2, v2) = (Arc::clone(&seq), Arc::clone(&val));
            let writer = thread::spawn(move || {
                // SAFETY: deliberately unsound replica — the Relaxed store
                // below publishes nothing; the model must object.
                v2.with_mut(|p| unsafe { *p = rec(7) });
                s2.store(1, Ordering::Relaxed); // seeded bug: was Release
            });
            // Flusher half: Acquire claim of the full slot, then read.
            while seq.load(Ordering::Acquire) != 1 {
                thread::yield_now();
            }
            seq.compare_exchange(1, 2, Ordering::Acquire, Ordering::Relaxed)
                .expect("sole flusher");
            // SAFETY: intentionally racy — no release pairs with the
            // Acquire claim above.
            let _ = val.with(|p| unsafe { *p });
            writer.join();
        })
        .expect_err("weakened publish store must be reported");
    assert_eq!(failure.kind, FailureKind::DataRace);
}

/// Seeded bug: the flusher's slot release (`seq.store(f + cap)`)
/// weakened from `Release` to `Relaxed`. The next lap's writer then
/// overwrites the cell unordered with the flusher's copy-out, and the
/// checker must report the race.
#[test]
fn seeded_weak_flusher_release_is_a_data_race() {
    let failure = Builder::new()
        .check_result(|| {
            // One slot of a capacity-4 ring, already full at position 0
            // (seq == 1); the flusher hands it to the position-4 writer.
            let seq = Arc::new(AtomicUsize::new(1));
            let val = Arc::new(ShmCell::new(rec(1)));
            let (s2, v2) = (Arc::clone(&seq), Arc::clone(&val));
            let writer = thread::spawn(move || {
                // Writer for position 4 waits for its lap.
                while s2.load(Ordering::Acquire) != 4 {
                    thread::yield_now();
                }
                // SAFETY: intentionally racy — the flusher's Relaxed
                // release below does not order its read before this write.
                v2.with_mut(|p| unsafe { *p = rec(2) });
            });
            seq.compare_exchange(1, 2, Ordering::Acquire, Ordering::Relaxed)
                .expect("sole flusher");
            // SAFETY: deliberately unsound replica — see writer above.
            let _ = val.with(|p| unsafe { *p });
            seq.store(4, Ordering::Relaxed); // seeded bug: was Release
            writer.join();
        })
        .expect_err("weakened flusher release must be reported");
    assert_eq!(failure.kind, FailureKind::DataRace);
}
