//! Time source abstraction for the storage path.
//!
//! The persist retry loop and injected stalls both need "wait a while" —
//! but wall-clock sleeps make chaos tests slow and flaky, and put real
//! `thread::sleep` calls on the dedicated core's fast path. [`IoClock`]
//! factors the time source out: production backends run on [`WallClock`]
//! (the default for every [`crate::StorageBackend`]), while tests inject a
//! [`VirtualClock`] whose `sleep` advances simulated time instantly — an
//! injected 10-second stall costs nanoseconds of test wall time and stays
//! fully deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A monotonic time source with a blocking wait.
///
/// `now()` is relative to an arbitrary per-process epoch; only differences
/// are meaningful. Implementations must be monotonic: `now()` never goes
/// backwards, and `sleep(d)` advances it by at least `d`.
pub trait IoClock: Send + Sync + std::fmt::Debug {
    /// Time elapsed since this clock's epoch.
    fn now(&self) -> Duration;

    /// Blocks (really or virtually) for `d`.
    fn sleep(&self, d: Duration);
}

/// Process-wide anchor so every [`WallClock`] agrees on the epoch.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// The real time source: `std::time::Instant` + `std::thread::sleep`.
#[derive(Debug, Clone, Copy, Default)]
pub struct WallClock;

impl IoClock for WallClock {
    fn now(&self) -> Duration {
        anchor().elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A deterministic clock for tests: `sleep` advances simulated time
/// without blocking, and records how much sleep was requested so a test
/// can assert on the *virtual* cost of stalls and retry backoff.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_ns: AtomicU64,
    slept_ns: AtomicU64,
}

impl VirtualClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves time forward without counting it as sleep (an external event).
    pub fn advance(&self, d: Duration) {
        self.now_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Total time spent in [`IoClock::sleep`] on this clock.
    pub fn slept(&self) -> Duration {
        Duration::from_nanos(self.slept_ns.load(Ordering::Relaxed))
    }
}

impl IoClock for VirtualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.now_ns.load(Ordering::Relaxed))
    }

    fn sleep(&self, d: Duration) {
        let ns = d.as_nanos() as u64;
        self.now_ns.fetch_add(ns, Ordering::Relaxed);
        self.slept_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic_and_sleeps() {
        let c = WallClock;
        let t0 = c.now();
        c.sleep(Duration::from_millis(5));
        assert!(c.now() - t0 >= Duration::from_millis(5));
    }

    #[test]
    fn virtual_clock_advances_instantly() {
        let c = VirtualClock::new();
        let wall = Instant::now();
        c.sleep(Duration::from_secs(3600));
        c.advance(Duration::from_secs(60));
        assert_eq!(c.now(), Duration::from_secs(3660));
        assert_eq!(c.slept(), Duration::from_secs(3600));
        // The whole hour of virtual sleep cost (almost) no wall time.
        assert!(wall.elapsed() < Duration::from_secs(1));
    }
}
