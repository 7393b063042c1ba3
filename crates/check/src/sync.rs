//! Shim `sync` types: atomics with modeled ordering semantics and a
//! schedule-point-aware mutex.
//!
//! Value semantics are sequentially consistent (a load always observes
//! the latest store — the checker does not simulate store buffers), but
//! *happens-before* is modeled faithfully per ordering:
//!
//! * a `Release`-class store snapshots the writer's vector clock into the
//!   location; an `Acquire`-class load joins that snapshot into the
//!   reader. A `Relaxed` store *clears* the snapshot, so a reader that
//!   "synchronizes" through a relaxed store gains no edge — and any
//!   non-atomic data published through it is flagged as a data race.
//! * read-modify-writes preserve an existing release snapshot even when
//!   relaxed (C11 release sequences), join it when acquiring, and extend
//!   it when releasing.
//!
//! This is the same compromise ThreadSanitizer makes, and it is exactly
//! what catches the bug class this crate exists for: a store downgraded
//! from `Release` to `Relaxed` on a publication path.

use crate::clock::VClock;
use crate::rt::ctx;
use std::cell::UnsafeCell;
use std::sync::Mutex as StdMutex;

pub use std::sync::Arc;

/// Atomic memory orderings, mirroring `std::sync::atomic::Ordering`.
pub mod atomic {
    use super::*;

    /// Modeled orderings (same variants as std).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Ordering {
        Relaxed,
        Release,
        Acquire,
        AcqRel,
        SeqCst,
    }

    impl Ordering {
        fn acquires(self) -> bool {
            matches!(
                self,
                Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
            )
        }
        fn releases(self) -> bool {
            matches!(
                self,
                Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
            )
        }
    }

    struct Loc<T> {
        val: T,
        /// Clock snapshot of the last `Release`-class store (None after a
        /// plain `Relaxed` store: the release chain is broken).
        rel: Option<VClock>,
    }

    macro_rules! atomic_int {
        ($name:ident, $ty:ty) => {
            /// Model atomic integer. All operations are schedule points.
            pub struct $name {
                loc: StdMutex<Loc<$ty>>,
            }

            impl $name {
                pub fn new(v: $ty) -> Self {
                    $name {
                        loc: StdMutex::new(Loc { val: v, rel: None }),
                    }
                }

                pub fn load(&self, order: Ordering) -> $ty {
                    match ctx() {
                        Some(c) => {
                            c.sched.schedule(c.tid);
                            let loc = self.loc.lock().unwrap();
                            let v = loc.val;
                            if order.acquires() {
                                if let Some(rel) = loc.rel.clone() {
                                    drop(loc);
                                    c.sched.join_clock(c.tid, &rel);
                                }
                            }
                            v
                        }
                        None => self.loc.lock().unwrap().val,
                    }
                }

                pub fn store(&self, v: $ty, order: Ordering) {
                    match ctx() {
                        Some(c) => {
                            c.sched.schedule(c.tid);
                            let snapshot = if order.releases() {
                                Some(c.sched.clock_of(c.tid))
                            } else {
                                None
                            };
                            let mut loc = self.loc.lock().unwrap();
                            loc.val = v;
                            // A relaxed store breaks the release chain: a
                            // later acquire-load gains no happens-before.
                            loc.rel = snapshot;
                            drop(loc);
                            c.sched.bump_clock(c.tid);
                        }
                        None => self.loc.lock().unwrap().val = v,
                    }
                }

                pub fn fetch_add(&self, d: $ty, order: Ordering) -> $ty {
                    self.rmw(order, |v| v.wrapping_add(d))
                }

                pub fn fetch_sub(&self, d: $ty, order: Ordering) -> $ty {
                    self.rmw(order, |v| v.wrapping_sub(d))
                }

                fn rmw(&self, order: Ordering, f: impl FnOnce($ty) -> $ty) -> $ty {
                    match ctx() {
                        Some(c) => {
                            c.sched.schedule(c.tid);
                            let my = c.sched.clock_of(c.tid);
                            let mut loc = self.loc.lock().unwrap();
                            let old = loc.val;
                            loc.val = f(old);
                            let acq = if order.acquires() {
                                loc.rel.clone()
                            } else {
                                None
                            };
                            if order.releases() {
                                // Extend (or start) the release sequence.
                                let mut rel = loc.rel.take().unwrap_or_default();
                                rel.join(&my);
                                loc.rel = Some(rel);
                            }
                            // A relaxed RMW leaves `rel` in place: it
                            // continues the release sequence (C11 §5.1.2.4).
                            drop(loc);
                            if let Some(rel) = acq {
                                c.sched.join_clock(c.tid, &rel);
                            }
                            c.sched.bump_clock(c.tid);
                            old
                        }
                        None => {
                            let mut loc = self.loc.lock().unwrap();
                            let old = loc.val;
                            loc.val = f(old);
                            old
                        }
                    }
                }

                pub fn compare_exchange(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    match ctx() {
                        Some(c) => {
                            c.sched.schedule(c.tid);
                            let my = c.sched.clock_of(c.tid);
                            let mut loc = self.loc.lock().unwrap();
                            let old = loc.val;
                            if old == current {
                                loc.val = new;
                                let acq = if success.acquires() {
                                    loc.rel.clone()
                                } else {
                                    None
                                };
                                if success.releases() {
                                    let mut rel = loc.rel.take().unwrap_or_default();
                                    rel.join(&my);
                                    loc.rel = Some(rel);
                                }
                                drop(loc);
                                if let Some(rel) = acq {
                                    c.sched.join_clock(c.tid, &rel);
                                }
                                c.sched.bump_clock(c.tid);
                                Ok(old)
                            } else {
                                let acq = if failure.acquires() {
                                    loc.rel.clone()
                                } else {
                                    None
                                };
                                drop(loc);
                                if let Some(rel) = acq {
                                    c.sched.join_clock(c.tid, &rel);
                                }
                                Err(old)
                            }
                        }
                        None => {
                            let mut loc = self.loc.lock().unwrap();
                            if loc.val == current {
                                let old = loc.val;
                                loc.val = new;
                                Ok(old)
                            } else {
                                Err(loc.val)
                            }
                        }
                    }
                }

                /// The model never fails spuriously: weak CAS behaves like
                /// strong CAS. (Spurious failures only add retry schedules
                /// around an already-explored loop.)
                pub fn compare_exchange_weak(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    self.compare_exchange(current, new, success, failure)
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(0)
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    write!(f, "{}({})", stringify!($name), self.loc.lock().unwrap().val)
                }
            }
        };
    }

    atomic_int!(AtomicUsize, usize);
    atomic_int!(AtomicU64, u64);
    atomic_int!(AtomicU32, u32);
    atomic_int!(AtomicU8, u8);

    /// Model atomic bool, layered on [`AtomicU8`] (`false` = 0, `true` = 1)
    /// so it inherits the modeled ordering semantics.
    pub struct AtomicBool(AtomicU8);

    impl AtomicBool {
        pub fn new(v: bool) -> Self {
            AtomicBool(AtomicU8::new(v as u8))
        }

        pub fn load(&self, order: Ordering) -> bool {
            self.0.load(order) != 0
        }

        pub fn store(&self, v: bool, order: Ordering) {
            self.0.store(v as u8, order)
        }

        pub fn swap(&self, v: bool, order: Ordering) -> bool {
            // A CAS loop rather than a primitive RMW: the model's CAS only
            // fails when the value changed underneath, so the loop is
            // bounded by the explorer's interleavings of the two values.
            loop {
                let cur = self.0.load(Ordering::Relaxed);
                if let Ok(prev) = self
                    .0
                    .compare_exchange(cur, v as u8, order, Ordering::Relaxed)
                {
                    return prev != 0;
                }
            }
        }
    }

    impl Default for AtomicBool {
        fn default() -> Self {
            AtomicBool::new(false)
        }
    }

    impl std::fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "AtomicBool({})", self.load(Ordering::Relaxed))
        }
    }
}

/// Model mutex: `lock` is a schedule point; contention parks the virtual
/// thread in the scheduler (making lock cycles visible as deadlocks);
/// unlock → lock transfers the holder's clock (release/acquire edge).
pub struct Mutex<T> {
    id: u64,
    data: UnsafeCell<T>,
    st: StdMutex<MState>,
}

struct MState {
    locked: bool,
    clock: VClock,
}

// SAFETY: the scheduler baton serializes model threads, and the `locked`
// flag (checked under `st`) guarantees at most one live guard; outside a
// model, `st` itself serializes access. `T: Send` moves values across
// threads.
unsafe impl<T: Send> Send for Mutex<T> {}
// SAFETY: as above — `&Mutex<T>` only yields `&T`/`&mut T` through a
// guard whose uniqueness `locked` enforces.
unsafe impl<T: Send> Sync for Mutex<T> {}

static MUTEX_IDS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl<T> Mutex<T> {
    pub fn new(v: T) -> Self {
        Mutex {
            id: MUTEX_IDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            data: UnsafeCell::new(v),
            st: StdMutex::new(MState {
                locked: false,
                clock: VClock::new(),
            }),
        }
    }

    /// Acquires the lock (non-poisoning, like `parking_lot`).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match ctx() {
            Some(c) => loop {
                c.sched.schedule(c.tid);
                {
                    let mut st = self.st.lock().unwrap();
                    if !st.locked {
                        st.locked = true;
                        let clock = st.clock.clone();
                        drop(st);
                        c.sched.join_clock(c.tid, &clock);
                        return MutexGuard { mutex: self };
                    }
                }
                c.sched.block_on_mutex(c.tid, self.id);
            },
            None => {
                // Plain mode: spin on the flag (uncontended in practice —
                // the checker's own bookkeeping, not a production path).
                loop {
                    let mut st = self.st.lock().unwrap();
                    if !st.locked {
                        st.locked = true;
                        return MutexGuard { mutex: self };
                    }
                    drop(st);
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// RAII guard; unlocking publishes the holder's clock.
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard's existence proves exclusive ownership of the
        // mutex, so no other reference to `data` is live.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref` — exclusive ownership via the guard.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        let c = ctx();
        {
            let mut st = self.mutex.st.lock().unwrap();
            st.locked = false;
            if let Some(c) = &c {
                let clock = c.sched.clock_of(c.tid);
                st.clock.join(&clock);
            }
        }
        if let Some(c) = &c {
            c.sched.bump_clock(c.tid);
            c.sched.unblock_mutex(self.mutex.id);
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "check::Mutex(id={})", self.id)
    }
}
