//! Non-atomic data under race detection.
//!
//! [`CheckCell`] wraps a single value the way `loom::cell::UnsafeCell`
//! does: every access declares itself a read or a write, and the checker
//! verifies that conflicting accesses are ordered by happens-before
//! (vector clocks). Crucially this does **not** require the racy
//! interleaving to be scheduled — any execution in which both accesses
//! occur without an intervening synchronization edge reports the race,
//! which is why a handful of explored schedules suffice.
//!
//! [`RangeTracker`] is the same idea for a byte buffer: segment reads and
//! writes are recorded as ranges, and overlapping unordered conflicts are
//! races. The shm `SharedBuffer` uses it (under `damaris_check`) to prove
//! that allocator disjointness plus queue handoff really do make raw
//!-pointer segment access race-free.

use crate::rt::ctx;
use crate::sched::FailureKind;
use std::cell::UnsafeCell;
use std::sync::Mutex as StdMutex;

#[derive(Clone, Copy, Debug)]
struct Access {
    tid: usize,
    epoch: u64,
}

#[derive(Default)]
struct CellState {
    write: Option<Access>,
    reads: Vec<Access>,
}

/// An `UnsafeCell` whose accesses are race-checked inside a model run.
///
/// The `with`/`with_mut` closures receive the raw pointer; dereferencing
/// it remains the caller's obligation (as with `loom`), but the checker
/// guarantees no conflicting access is concurrent.
pub struct CheckCell<T> {
    data: UnsafeCell<T>,
    st: StdMutex<CellState>,
}

// SAFETY: access is serialized by the model scheduler's baton (only one
// virtual thread runs at a time) and race-checked besides; outside a
// model the caller inherits exactly `UnsafeCell`'s obligations, which is
// the documented contract of this type.
unsafe impl<T: Send> Send for CheckCell<T> {}
// SAFETY: as above — the race detector rejects any unsynchronized
// conflicting access instead of exhibiting UB.
unsafe impl<T: Send> Sync for CheckCell<T> {}

impl<T> CheckCell<T> {
    pub fn new(v: T) -> Self {
        CheckCell {
            data: UnsafeCell::new(v),
            st: StdMutex::new(CellState::default()),
        }
    }

    fn record_read(&self) {
        if let Some(c) = ctx() {
            let clock = c.sched.clock_of(c.tid);
            let mut st = self.st.lock().unwrap();
            if let Some(w) = st.write {
                if w.tid != c.tid && clock.get(w.tid) < w.epoch {
                    drop(st);
                    c.sched.fail(
                        FailureKind::DataRace,
                        format!(
                            "data race on CheckCell: read by thread {} not ordered after \
                             write by thread {} (epoch {})",
                            c.tid, w.tid, w.epoch
                        ),
                    );
                }
            }
            let epoch = clock.get(c.tid);
            if let Some(r) = st.reads.iter_mut().find(|r| r.tid == c.tid) {
                r.epoch = epoch;
            } else {
                st.reads.push(Access { tid: c.tid, epoch });
            }
        }
    }

    fn record_write(&self) {
        if let Some(c) = ctx() {
            let clock = c.sched.clock_of(c.tid);
            let mut st = self.st.lock().unwrap();
            let conflict = st
                .write
                .iter()
                .chain(st.reads.iter())
                .find(|a| a.tid != c.tid && clock.get(a.tid) < a.epoch)
                .copied();
            if let Some(a) = conflict {
                drop(st);
                c.sched.fail(
                    FailureKind::DataRace,
                    format!(
                        "data race on CheckCell: write by thread {} not ordered after \
                         access by thread {} (epoch {})",
                        c.tid, a.tid, a.epoch
                    ),
                );
            }
            st.reads.clear();
            st.write = Some(Access {
                tid: c.tid,
                epoch: clock.get(c.tid),
            });
            drop(st);
            c.sched.bump_clock(c.tid);
        }
    }

    /// Immutable access: declared as a read.
    pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        self.record_read();
        f(self.data.get())
    }

    /// Mutable access: declared as a write.
    pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        self.record_write();
        f(self.data.get())
    }
}

impl<T: Default> Default for CheckCell<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> std::fmt::Debug for CheckCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CheckCell(..)")
    }
}

#[derive(Clone, Copy, Debug)]
struct RangeAccess {
    start: usize,
    end: usize,
    write: bool,
    tid: usize,
    epoch: u64,
}

/// Byte-range race detector for a shared buffer.
///
/// Zero-sized no-op outside a model run; inside one, every recorded
/// access is checked for happens-before against all previously recorded
/// overlapping conflicting accesses.
#[derive(Default)]
pub struct RangeTracker {
    log: StdMutex<Vec<RangeAccess>>,
}

impl RangeTracker {
    pub fn new() -> Self {
        RangeTracker::default()
    }

    fn record(&self, start: usize, len: usize, write: bool) {
        let Some(c) = ctx() else { return };
        if len == 0 {
            return;
        }
        let end = start + len;
        let clock = c.sched.clock_of(c.tid);
        let mut log = self.log.lock().unwrap();
        let conflict = log
            .iter()
            .find(|a| {
                a.tid != c.tid
                    && (a.write || write)
                    && a.start < end
                    && start < a.end
                    && clock.get(a.tid) < a.epoch
            })
            .copied();
        if let Some(a) = conflict {
            drop(log);
            c.sched.fail(
                FailureKind::DataRace,
                format!(
                    "data race on shared buffer: {} of [{start}, {end}) by thread {} \
                     overlaps unordered {} of [{}, {}) by thread {}",
                    if write { "write" } else { "read" },
                    c.tid,
                    if a.write { "write" } else { "read" },
                    a.start,
                    a.end,
                    a.tid
                ),
            );
        }
        // Coalesce: a same-thread same-kind access covering the same range
        // just refreshes its epoch, keeping the log small in loops.
        if let Some(prev) = log
            .iter_mut()
            .find(|a| a.tid == c.tid && a.write == write && a.start == start && a.end == end)
        {
            prev.epoch = clock.get(c.tid);
        } else {
            log.push(RangeAccess {
                start,
                end,
                write,
                tid: c.tid,
                epoch: clock.get(c.tid),
            });
        }
        drop(log);
        if write {
            c.sched.bump_clock(c.tid);
        }
    }

    /// Declares a read of `[start, start + len)`.
    pub fn read(&self, start: usize, len: usize) {
        self.record(start, len, false);
    }

    /// Declares a write of `[start, start + len)`.
    pub fn write(&self, start: usize, len: usize) {
        self.record(start, len, true);
    }
}

impl std::fmt::Debug for RangeTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RangeTracker({} accesses)",
            self.log.lock().unwrap().len()
        )
    }
}
