//! The metrics registry: named [`Counter`]s and log-bucketed
//! [`Histogram`]s replacing the ad-hoc field-per-counter pattern that
//! `NodeReport` grew (ISSUE: tentpole part 2).
//!
//! Registration takes a facade `Mutex` once per name and hands back a
//! clonable handle; every subsequent `inc`/`observe` is lock-free atomics
//! on the shared cells. `NodeReport` stays the stable snapshot view —
//! the dedicated core builds it from [`Registry::snapshot`]-style reads
//! of the same handles, so existing supervision and chaos tests keep
//! passing unchanged.

use damaris_shm::sync::{Arc, AtomicU64, Mutex, Ordering};
use std::collections::BTreeMap;

/// Number of log2 buckets: bucket `i` counts values `v` with
/// `64 - v.leading_zeros() == i`, i.e. bucket 0 is `v == 0`, bucket 1 is
/// `v == 1`, bucket 11 covers `1024..2048`, … up to `u64::MAX`.
pub const HIST_BUCKETS: usize = 65;

/// A named monotonic counter. Clone freely: all clones share the cell.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    fn new() -> Counter {
        Counter {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // Relaxed: pure event count — no other memory is published under
        // it; readers only need eventual exactness (quiescent snapshot).
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // Relaxed: see `add`.
        self.cell.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

struct HistCells {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A log2-bucketed HDR-style histogram. `observe` is a handful of Relaxed
/// atomics; quantiles are estimated at snapshot time from the bucket
/// counts (each bucket reports its upper bound, so estimates err high by
/// at most 2×, the bucket width).
#[derive(Clone)]
pub struct Histogram {
    cells: Arc<HistCells>,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            cells: Arc::new(HistCells {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Bucket index for a value.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i` (what quantile estimates report).
    fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 0,
            65.. => u64::MAX,
            _ => (1u64 << (i - 1)).saturating_mul(2).saturating_sub(1),
        }
    }

    /// Records one value.
    pub fn observe(&self, v: u64) {
        let c = &self.cells;
        // Relaxed throughout: statistics cells publish nothing else;
        // snapshots read them quiescently (or tolerate slight skew).
        c.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        // CAS loops instead of fetch_min/fetch_max: the model-checker
        // facade's AtomicU64 intentionally exposes only load/store/CAS/rmw
        // basics, and these are cold compared to the adds above.
        let mut cur = c.min.load(Ordering::Relaxed);
        while v < cur {
            match c
                .min
                .compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        let mut cur = c.max.load(Ordering::Relaxed);
        while v > cur {
            match c
                .max
                .compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.cells.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.cells;
        let buckets: Vec<u64> = c
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = c.count.load(Ordering::Relaxed);
        let min = c.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets,
            count,
            sum: c.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: c.max.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram(count={}, sum={})", self.count(), self.sum())
    }
}

/// Frozen histogram state with quantile estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (`HIST_BUCKETS` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean of observed values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate for `num/den` (e.g. 95/100): the
    /// upper bound of the bucket containing the rank-th observation,
    /// clamped to the observed `max`. Errs high by at most one bucket
    /// width (2×).
    pub fn quantile(&self, num: u64, den: u64) -> u64 {
        assert!(den > 0 && num <= den, "quantile {num}/{den} out of range");
        if self.count == 0 {
            return 0;
        }
        // Nearest rank: ceil(q * n) computed in integers.
        let rank = (num * self.count).div_ceil(den).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Histogram::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

/// The process-wide (per-node, in this codebase) metric namespace.
/// Registration is idempotent by name; handles outlive the lock.
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            inner: Mutex::new(RegistryInner::default()),
        }
    }

    /// Returns the counter named `name`, creating it on first use. Two
    /// calls with one name return handles to the same cell.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock();
        inner
            .counters
            .entry(name.to_string())
            .or_insert_with(Counter::new)
            .clone()
    }

    /// Returns the histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock();
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(Histogram::new)
            .clone()
    }

    /// Point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        write!(
            f,
            "Registry({} counters, {} histograms)",
            inner.counters.len(),
            inner.histograms.len()
        )
    }
}

/// Frozen view of a [`Registry`] (sorted by name for stable output).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → frozen state.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value (0 when absent — absent and never-bumped are the
    /// same thing for monotonic counters).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Renders a plain-text report (one metric per line).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter   {name} = {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {name} count={} mean={:.1} min={} p50={} p95={} p99={} max={}",
                h.count,
                h.mean(),
                h.min,
                h.quantile(50, 100),
                h.quantile(95, 100),
                h.quantile(99, 100),
                h.max,
            );
        }
        out
    }
}

#[cfg(all(test, not(feature = "check")))]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_one_cell() {
        let reg = Registry::new();
        let a = reg.counter("node.retries");
        let b = reg.counter("node.retries");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.snapshot().counter("node.retries"), 5);
        assert_eq!(reg.snapshot().counter("absent"), 0);
    }

    #[test]
    fn histogram_buckets_and_extrema() {
        let reg = Registry::new();
        let h = reg.histogram("write.ns");
        for v in [0u64, 1, 3, 1000, 1500, 1_000_000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1_002_504);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.buckets[0], 1); // v == 0
        assert_eq!(s.buckets[1], 1); // v == 1
        assert_eq!(s.buckets[2], 1); // v in 2..4
        assert_eq!(s.buckets[10], 1); // v in 512..1024 (the 1000)
        assert_eq!(s.buckets[11], 1); // v in 1024..2048 (the 1500)
    }

    #[test]
    fn quantiles_err_high_by_at_most_one_bucket() {
        let reg = Registry::new();
        let h = reg.histogram("q");
        for v in 1..=100u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        // True p50 = 50; bucket containing rank 50 is 32..64 → upper 63.
        assert_eq!(s.quantile(50, 100), 63);
        // True p99 = 99; bucket 64..128 → upper 127, clamped to max 100.
        assert_eq!(s.quantile(99, 100), 100);
        assert_eq!(s.quantile(100, 100), 100);
        // Estimates never fall below the true quantile.
        assert!(s.quantile(95, 100) >= 95);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let reg = Registry::new();
        let h = reg.histogram("empty");
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.quantile(99, 100), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn concurrent_observations_are_all_counted() {
        let reg = Arc::new(Registry::new());
        let c = reg.counter("hits");
        let h = reg.histogram("lat");
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = c.clone();
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    c.inc();
                    h.observe(t * 1000 + i);
                }
            }));
        }
        for hnd in handles {
            hnd.join().expect("observer");
        }
        assert_eq!(c.get(), 4000);
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 3999);
    }

    #[test]
    fn render_is_stable_and_sorted() {
        let reg = Registry::new();
        reg.counter("b.second").add(2);
        reg.counter("a.first").inc();
        reg.histogram("lat.ns").observe(7);
        let text = reg.snapshot().render();
        let a = text.find("a.first").expect("a.first rendered");
        let b = text.find("b.second").expect("b.second rendered");
        assert!(a < b, "sorted by name");
        assert!(text.contains("histogram lat.ns count=1"));
    }
}
