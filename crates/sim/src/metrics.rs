//! Summary statistics and paper-style derived metrics.

/// Summary of a sample set (write times, durations, …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    pub count: usize,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub stddev: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
}

/// Nearest-rank quantile of an ascending-sorted non-empty slice, with the
/// rank `⌈q·n⌉` computed in integers (`num`/`den`, e.g. 95/100) — the
/// float-rounded `(n·0.95).ceil()` form is one ulp away from selecting
/// the wrong element at some sizes.
fn nearest_rank(sorted: &[f64], num: usize, den: usize) -> f64 {
    let rank = (sorted.len() * num).div_ceil(den).max(1);
    sorted[rank - 1]
}

impl Stats {
    /// Computes stats; returns all-zero stats for an empty slice.
    pub fn from(samples: &[f64]) -> Stats {
        if samples.is_empty() {
            return Stats {
                count: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                stddev: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Stats {
            count: samples.len(),
            mean,
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            stddev: var.sqrt(),
            p50: nearest_rank(&sorted, 50, 100),
            p95: nearest_rank(&sorted, 95, 100),
            p99: nearest_rank(&sorted, 99, 100),
        }
    }

    /// Max − min: the paper's "unpredictability" of a write phase.
    pub fn spread(&self) -> f64 {
        self.max - self.min
    }
}

/// The paper's scalability factor (§IV-C2): `S = N · C576 / T_N`, where
/// `C576` is the baseline time (50 iterations, no I/O, no dedicated core on
/// the baseline core count) and `T_N` the measured time on `N` cores.
/// Perfect scaling gives `S = N`.
pub fn scalability_factor(n_cores: usize, baseline_time: f64, measured_time: f64) -> f64 {
    n_cores as f64 * baseline_time / measured_time
}

/// Aggregate throughput in bytes/s.
pub fn throughput(bytes: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        0.0
    } else {
        bytes as f64 / seconds
    }
}

/// Formats a byte rate the way the paper quotes them (MB/s or GB/s).
pub fn format_rate(bytes_per_sec: f64) -> String {
    if bytes_per_sec >= 1.0e9 {
        format!("{:.2} GB/s", bytes_per_sec / 1.0e9)
    } else {
        format!("{:.0} MB/s", bytes_per_sec / 1.0e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basic() {
        let s = Stats::from(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.spread(), 3.0);
        assert!((s.stddev - 1.118).abs() < 1e-3);
    }

    #[test]
    fn stats_empty_and_single() {
        let e = Stats::from(&[]);
        assert_eq!(e.count, 0);
        assert_eq!(e.mean, 0.0);
        let s = Stats::from(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.p95, 7.0);
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    fn p95_tail() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Stats::from(&samples);
        assert_eq!(s.p95, 95.0);
    }

    #[test]
    fn quantiles_pinned_nearest_rank() {
        // Nearest-rank over 1..=n is ⌈q·n⌉ exactly — pin every boundary
        // the float formulation used to get wrong at unlucky sizes.
        for n in [1usize, 2, 3, 5, 19, 20, 21, 99, 100, 101, 1000] {
            let samples: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let s = Stats::from(&samples);
            assert_eq!(
                s.p50,
                (n * 50).div_ceil(100).max(1) as f64,
                "p50 of 1..={n}"
            );
            assert_eq!(
                s.p95,
                (n * 95).div_ceil(100).max(1) as f64,
                "p95 of 1..={n}"
            );
            assert_eq!(
                s.p99,
                (n * 99).div_ceil(100).max(1) as f64,
                "p99 of 1..={n}"
            );
        }
        // Small sets: quantiles degrade to the extremes, never panic.
        let s = Stats::from(&[3.0, 9.0]);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p95, 9.0);
        assert_eq!(s.p99, 9.0);
    }

    #[test]
    fn scalability_math() {
        // Perfect scaling: time stays at baseline.
        assert_eq!(scalability_factor(9216, 200.0, 200.0), 9216.0);
        // Half efficiency: S = N/2.
        assert_eq!(scalability_factor(1000, 100.0, 200.0), 500.0);
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(format_rate(695.0e6), "695 MB/s");
        assert_eq!(format_rate(4.32e9), "4.32 GB/s");
    }

    #[test]
    fn throughput_guards_zero() {
        assert_eq!(throughput(100, 0.0), 0.0);
        assert_eq!(throughput(100, 2.0), 50.0);
    }
}
