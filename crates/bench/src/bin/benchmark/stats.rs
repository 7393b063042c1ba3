//! Order statistics the benchmark reports: nearest-rank percentiles, the
//! "ten samples beyond" rule that decides which tail percentile a sample
//! count supports, and the burst median `saturate` uses for throughput.

/// Nearest-rank percentile of an ascending slice: the `ceil(p·n)`-th
/// smallest value (never an interpolation, so every reported value is one
/// that was measured). Panics on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps a product such as 0.99 × 1000 from landing a hair
    // above its exact value and being rounded up one rank.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples support reporting percentile `p`: at least ten
/// samples must lie beyond it, or the "percentile" is a handful of
/// outliers. p99 therefore needs 1000 samples, p99.9 needs 10 000.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= 10
}

/// The highest of p90/p99/p99.9 that `n` samples support, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9].into_iter().find(|&p| supports(n, p))
}

/// Nearest-rank median of a few values (the lower middle of an even
/// count, like every percentile here); 0 when there are none.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => sorted[rank(n, 0.5) - 1],
    }
}

/// Percentile `p` inside each series, then the median across the series.
/// A run measures each workload on several node instances, one series per
/// instance: an instance is fast or slow as a whole (where its buffers
/// landed), and the host changes speed for seconds at a time, so the median
/// instance is what repeats. Empty series are skipped; nanoseconds in and
/// out.
pub fn across(series: &[&[u64]], p: f64) -> f64 {
    let values: Vec<f64> = series
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| {
            let mut sorted = s.to_vec();
            sorted.sort_unstable();
            percentile(&sorted, p) as f64
        })
        .collect();
    median(&values)
}

/// Sorts and summarises one timing series (nanoseconds).
#[derive(Debug, Clone)]
pub struct Series {
    sorted: Vec<u64>,
}

impl Series {
    pub fn new(samples: &[u64]) -> Series {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        Series { sorted }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Percentile in nanoseconds; 0 when the series is empty (an empty
    /// series is also counted as failed operations by the caller).
    pub fn ns(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            percentile(&self.sorted, p) as f64
        }
    }

    pub fn us(&self, p: f64) -> f64 {
        self.ns(p) / 1e3
    }

    /// Share of samples above `factor` × the median.
    pub fn share_above(&self, factor: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let limit = self.ns(0.5) * factor;
        let above = self.sorted.iter().filter(|&&v| v as f64 > limit).count();
        above as f64 / self.sorted.len() as f64
    }
}

/// Median throughput over independent bursts: each burst moved
/// `bytes_per_burst` in its own `burst_ns`; the median of the per-burst
/// MB/s survives a host that slows down for a second, which a whole-run
/// quotient does not. MB = 10^6 bytes.
pub fn burst_median_mb_s(bytes_per_burst: u64, burst_ns: &[u64]) -> f64 {
    if burst_ns.is_empty() {
        return 0.0;
    }
    // Throughput falls as time rises, so the median throughput is the
    // throughput of the nearest-rank median time.
    let mut sorted = burst_ns.to_vec();
    sorted.sort_unstable();
    let ns = percentile(&sorted, 0.5).max(1);
    bytes_per_burst as f64 / 1e6 / (ns as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_measured_values() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.5), 5);
        assert_eq!(percentile(&v, 0.9), 9);
        assert_eq!(percentile(&v, 0.91), 10);
        assert_eq!(percentile(&v, 1.0), 10);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        // Odd count: the middle element, not a mean.
        assert_eq!(percentile(&[1, 2, 100], 0.5), 2);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(10_000, 0.999));
        assert!(!supports(9_999, 0.999));
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(!supports(0, 0.5));
        assert_eq!(highest_supported(16_000), Some(0.999));
        assert_eq!(highest_supported(4_000), Some(0.99));
        assert_eq!(highest_supported(160), Some(0.9));
        assert_eq!(highest_supported(40), None);
    }

    #[test]
    fn median_across_instances_shrugs_off_a_slow_one() {
        // Five instances of 100 samples at 100 ns; one of them ten times
        // slower throughout, another with a tail in it.
        let fast = vec![100u64; 100];
        let slow = vec![1000u64; 100];
        let mut tailed = vec![100u64; 100];
        tailed[7] = 900;
        tailed[42] = 900;
        let series: Vec<&[u64]> = vec![&fast, &slow, &fast, &tailed, &fast];
        assert_eq!(across(&series, 0.5), 100.0);
        assert_eq!(across(&series, 0.99), 100.0);
        // The percentile is taken inside each instance: a tail present in
        // most of them is reported.
        let series: Vec<&[u64]> = vec![&tailed, &slow, &tailed, &tailed, &fast];
        assert_eq!(across(&series, 0.99), 900.0);
        assert_eq!(across(&series, 0.5), 100.0);
        // Empty series are skipped, not counted as zero.
        let empty: Vec<u64> = Vec::new();
        assert_eq!(across(&[&empty, &slow], 0.5), 1000.0);
        assert_eq!(across(&[], 0.5), 0.0);
        // Even count: the lower middle.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn series_units_and_blocked_share() {
        let s = Series::new(&[4_000, 1_000, 2_000, 3_000, 100_000]);
        assert_eq!(s.len(), 5);
        assert_eq!(s.ns(0.5), 3_000.0);
        assert_eq!(s.us(0.5), 3.0);
        assert_eq!(s.share_above(10.0), 0.2);
        assert_eq!(Series::new(&[]).ns(0.5), 0.0);
    }

    #[test]
    fn burst_median_ignores_a_slow_burst() {
        // 32 MiB bursts at 0.4 s each, one at 4 s.
        let bytes = 32u64 << 20;
        let mut times = vec![400_000_000u64; 9];
        times.push(4_000_000_000);
        let got = burst_median_mb_s(bytes, &times);
        let want = bytes as f64 / 1e6 / 0.4;
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        // Even count: nearest rank takes the lower middle time.
        assert_eq!(
            burst_median_mb_s(1_000_000, &[1_000_000_000, 2_000_000_000]),
            1.0
        );
        assert_eq!(burst_median_mb_s(bytes, &[]), 0.0);
    }
}
