//! Post-hoc trace analysis: merge per-rank DTRC files into one timeline,
//! compute per-phase duration histograms (p50/p95/p99/max), and attribute
//! iteration-duration *variance* to phases — the jitter-attribution
//! report (ISSUE: tentpole part 4).
//!
//! ## Attribution model
//!
//! For every server [`EventKind::Iteration`] record we know the iteration
//! duration `D_i`; for every phase kind `k` we sum that iteration's phase
//! durations into `P_{k,i}`. The attribution share is the OLS slope-like
//! ratio
//!
//! ```text
//! share_k = Cov(P_k, D) / Var(D)
//! ```
//!
//! i.e. "how much of the iteration-to-iteration variance does phase `k`'s
//! variation explain". Shares of phases that move one-for-one with the
//! spike (an injected backend stall) approach 1.0; constant phases get
//! ~0. Shares are not forced to sum to 1 — overlapping instrumentation
//! (a `PluginRun` *contains* its `BackendWrite`) legitimately double
//! reports, which is why coverage below uses only a disjoint set.
//!
//! ## Coverage
//!
//! The server-side iteration span decomposes into the *disjoint* pair
//! {`QueueIdle`, `EpeDispatch`} (waiting for events vs. processing them).
//! `coverage = Σ(idle + dispatch) / Σ(iteration)` should be close to 1;
//! a large gap means the instrumentation is missing a phase.

use damaris_format::trace::{read_trace, EventKind, TraceFile, TraceRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Exact nearest-rank quantile of a **sorted** slice: the smallest value
/// with at least `ceil(num/den · n)` observations at or below it.
/// Integer math throughout — no FP rounding hazards (the `sim::metrics`
/// p95 bug this PR also fixes).
pub fn nearest_rank(sorted: &[u64], num: u64, den: u64) -> u64 {
    assert!(den > 0 && num <= den, "quantile {num}/{den} out of range");
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (num * n).div_ceil(den).max(1);
    sorted[(rank - 1) as usize]
}

/// Exact duration statistics for one phase (event kind).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStats {
    /// The phase.
    pub kind: EventKind,
    /// Records seen.
    pub count: u64,
    /// Total duration, ns.
    pub sum_ns: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Median duration, ns (nearest rank).
    pub p50_ns: u64,
    /// 95th percentile duration, ns.
    pub p95_ns: u64,
    /// 99th percentile duration, ns.
    pub p99_ns: u64,
    /// Largest duration, ns.
    pub max_ns: u64,
}

impl PhaseStats {
    fn from_durations(kind: EventKind, mut durs: Vec<u64>, bytes: u64) -> PhaseStats {
        durs.sort_unstable();
        PhaseStats {
            kind,
            count: durs.len() as u64,
            sum_ns: durs.iter().sum(),
            bytes,
            p50_ns: nearest_rank(&durs, 50, 100),
            p95_ns: nearest_rank(&durs, 95, 100),
            p99_ns: nearest_rank(&durs, 99, 100),
            max_ns: durs.last().copied().unwrap_or(0),
        }
    }

    /// Mean duration, ns.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// Variance share of one phase (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct Attribution {
    /// The phase.
    pub kind: EventKind,
    /// `Cov(phase, iteration) / Var(iteration)`.
    pub share: f64,
}

/// The full analysis of a merged record set.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Records analyzed.
    pub total_records: u64,
    /// Ring-dropped records reported by the producers' trailers.
    pub dropped: u64,
    /// Per-phase stats, present only for kinds that occurred.
    pub phases: BTreeMap<u16, PhaseStats>,
    /// Iteration durations (`Iteration` records), by iteration number.
    pub iterations: BTreeMap<u32, u64>,
    /// Phases ranked by variance share, descending (empty when fewer than
    /// two iterations — variance needs a spread).
    pub attribution: Vec<Attribution>,
    /// Σ(QueueIdle + EpeDispatch) / Σ(Iteration); `None` without
    /// iteration records.
    pub coverage: Option<f64>,
}

impl Analysis {
    /// Stats for one kind, if any records of it were seen.
    pub fn phase(&self, kind: EventKind) -> Option<&PhaseStats> {
        self.phases.get(&(kind as u16))
    }

    /// The phase with the largest variance share, if attribution ran.
    pub fn dominant_phase(&self) -> Option<&Attribution> {
        self.attribution.first()
    }

    /// Renders the human-readable report (what `trace-analyze` prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} records analyzed, {} dropped by ring overflow",
            self.total_records, self.dropped
        );
        let _ = writeln!(
            out,
            "\n{:<15} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "phase", "count", "mean", "p50", "p95", "p99", "max"
        );
        for stats in self.phases.values() {
            let _ = writeln!(
                out,
                "{:<15} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
                stats.kind.label(),
                stats.count,
                fmt_ns(stats.mean_ns() as u64),
                fmt_ns(stats.p50_ns),
                fmt_ns(stats.p95_ns),
                fmt_ns(stats.p99_ns),
                fmt_ns(stats.max_ns),
            );
        }
        if !self.iterations.is_empty() {
            let mut durs: Vec<u64> = self.iterations.values().copied().collect();
            durs.sort_unstable();
            let _ = writeln!(
                out,
                "\niterations: {} observed, p50 {} / p99 {} / max {}",
                durs.len(),
                fmt_ns(nearest_rank(&durs, 50, 100)),
                fmt_ns(nearest_rank(&durs, 99, 100)),
                // invariant: `durs` mirrors `self.iterations`, guarded
                // non-empty by the branch above.
                fmt_ns(*durs.last().expect("non-empty")),
            );
        }
        if let Some(cov) = self.coverage {
            let _ = writeln!(
                out,
                "coverage: {:.1}% of iteration time decomposed into idle + dispatch",
                cov * 100.0
            );
        }
        if self.attribution.is_empty() {
            let _ = writeln!(
                out,
                "\njitter attribution: needs >= 2 iterations with variance"
            );
        } else {
            let _ = writeln!(
                out,
                "\njitter attribution (variance share of iteration duration):"
            );
            for a in &self.attribution {
                let _ = writeln!(out, "  {:<15} {:>6.1}%", a.kind.label(), a.share * 100.0);
            }
        }
        out
    }
}

/// Formats nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Analyzes a merged set of records (see [`Analysis`]).
pub fn analyze(records: &[TraceRecord], dropped: u64) -> Analysis {
    let mut durs: BTreeMap<u16, Vec<u64>> = BTreeMap::new();
    let mut bytes: BTreeMap<u16, u64> = BTreeMap::new();
    let mut iterations: BTreeMap<u32, u64> = BTreeMap::new();
    // per-kind, per-iteration duration totals for attribution
    let mut per_iter: BTreeMap<u16, BTreeMap<u32, u64>> = BTreeMap::new();

    for r in records {
        let Some(kind) = r.event_kind() else { continue };
        durs.entry(r.kind).or_default().push(r.dur_ns);
        *bytes.entry(r.kind).or_insert(0) += r.bytes;
        if kind == EventKind::Iteration {
            // Several server respawns could re-report an iteration; keep
            // the longest observation.
            let e = iterations.entry(r.iteration).or_insert(0);
            *e = (*e).max(r.dur_ns);
        } else {
            *per_iter
                .entry(r.kind)
                .or_default()
                .entry(r.iteration)
                .or_insert(0) += r.dur_ns;
        }
    }

    let phases: BTreeMap<u16, PhaseStats> = durs
        .into_iter()
        .map(|(k, d)| {
            // invariant: `durs` keys come from records whose
            // `event_kind()` decoded, so `k` round-trips.
            let kind = EventKind::try_from(k).expect("filtered above");
            let b = bytes.get(&k).copied().unwrap_or(0);
            (k, PhaseStats::from_durations(kind, d, b))
        })
        .collect();

    // Attribution: Cov(P_k, D) / Var(D) over the iterations we saw.
    let mut attribution = Vec::new();
    if iterations.len() >= 2 {
        let iters: Vec<u32> = iterations.keys().copied().collect();
        let d: Vec<f64> = iters.iter().map(|i| iterations[i] as f64).collect();
        let n = d.len() as f64;
        let d_mean = d.iter().sum::<f64>() / n;
        let var = d.iter().map(|x| (x - d_mean).powi(2)).sum::<f64>() / n;
        if var > 0.0 {
            for (&k, by_iter) in &per_iter {
                // invariant: `per_iter` keys come from records whose
                // `event_kind()` decoded, so `k` round-trips.
                let kind = EventKind::try_from(k).expect("filtered above");
                if kind == EventKind::PhaseSample {
                    continue; // interchange records, not a pipeline phase
                }
                let p: Vec<f64> = iters
                    .iter()
                    .map(|i| by_iter.get(i).copied().unwrap_or(0) as f64)
                    .collect();
                let p_mean = p.iter().sum::<f64>() / n;
                let cov = p
                    .iter()
                    .zip(&d)
                    .map(|(pi, di)| (pi - p_mean) * (di - d_mean))
                    .sum::<f64>()
                    / n;
                attribution.push(Attribution {
                    kind,
                    share: cov / var,
                });
            }
            attribution.sort_by(|a, b| b.share.total_cmp(&a.share));
        }
    }

    // Coverage over the disjoint top-level server decomposition.
    let iter_sum: u64 = iterations.values().sum();
    let coverage = if iter_sum > 0 {
        let accounted: u64 = [EventKind::QueueIdle, EventKind::EpeDispatch]
            .iter()
            .filter_map(|k| phases.get(&(*k as u16)))
            .map(|s| s.sum_ns)
            .sum();
        Some(accounted as f64 / iter_sum as f64)
    } else {
        None
    };

    Analysis {
        total_records: records.len() as u64,
        dropped,
        phases,
        iterations,
        attribution,
        coverage,
    }
}

/// Exact group summary of [`EventKind::PhaseSample`] records, keyed by
/// `(rank, bytes)` — the interchange `fig2_jitter` uses (`rank` carries
/// the strategy index, `bytes` the core count, `iteration` the phase).
/// All integer math, so summarizing in-memory records and records
/// round-tripped through a DTRC file yields byte-for-byte equal results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSummary {
    /// Group key: the record `rank` field.
    pub rank: u32,
    /// Group key: the record `bytes` field.
    pub bytes: u64,
    /// Samples in the group.
    pub count: u64,
    /// Σ duration, ns.
    pub sum_ns: u64,
    /// Min duration, ns.
    pub min_ns: u64,
    /// Max duration, ns.
    pub max_ns: u64,
}

impl GroupSummary {
    /// Mean duration in seconds.
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64 / 1e9
        }
    }
}

/// Groups `PhaseSample` records by `(rank, bytes)`, sorted by key.
pub fn summarize_phase_samples(records: &[TraceRecord]) -> Vec<GroupSummary> {
    let mut groups: BTreeMap<(u32, u64), GroupSummary> = BTreeMap::new();
    for r in records {
        if r.event_kind() != Some(EventKind::PhaseSample) {
            continue;
        }
        let g = groups.entry((r.rank, r.bytes)).or_insert(GroupSummary {
            rank: r.rank,
            bytes: r.bytes,
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        });
        g.count += 1;
        g.sum_ns += r.dur_ns;
        g.min_ns = g.min_ns.min(r.dur_ns);
        g.max_ns = g.max_ns.max(r.dur_ns);
    }
    groups.into_values().collect()
}

/// A merged set of trace files.
#[derive(Debug, Default)]
pub struct MergedTrace {
    /// All records, merged and sorted by `(t_ns, rank)` into one timeline.
    pub records: Vec<TraceRecord>,
    /// Σ producer-side ring drops.
    pub dropped: u64,
    /// Per-file issues worth surfacing (unclean close, corrupt blocks).
    pub warnings: Vec<String>,
    /// Files read.
    pub files: usize,
}

/// Loads and merges DTRC files. A directory argument means "every
/// `*.dtrc` file inside, sorted by name".
pub fn load_traces<P: AsRef<Path>>(paths: &[P]) -> damaris_format::Result<MergedTrace> {
    let mut expanded: Vec<PathBuf> = Vec::new();
    for p in paths {
        let p = p.as_ref();
        if p.is_dir() {
            let mut inner: Vec<PathBuf> = std::fs::read_dir(p)
                .map_err(damaris_format::SdfError::Io)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "dtrc"))
                .collect();
            inner.sort();
            expanded.extend(inner);
        } else {
            expanded.push(p.to_path_buf());
        }
    }
    let mut merged = MergedTrace::default();
    for path in &expanded {
        let f = std::fs::File::open(path).map_err(damaris_format::SdfError::Io)?;
        let t: TraceFile = read_trace(std::io::BufReader::new(f))?;
        if !t.clean_close {
            merged.warnings.push(format!(
                "{}: no clean trailer (producer died?)",
                path.display()
            ));
        }
        if t.corrupt_blocks > 0 {
            merged.warnings.push(format!(
                "{}: {} corrupt/truncated block(s) skipped",
                path.display(),
                t.corrupt_blocks
            ));
        }
        merged.dropped += t.dropped;
        merged.records.extend(t.records);
        merged.files += 1;
    }
    merged.records.sort_by_key(|r| (r.t_ns, r.rank));
    Ok(merged)
}

#[cfg(all(test, not(feature = "check")))]
mod tests {
    use super::*;

    fn rec(kind: EventKind, iteration: u32, dur_ns: u64) -> TraceRecord {
        TraceRecord {
            t_ns: iteration as u64 * 1_000_000,
            dur_ns,
            bytes: 0,
            rank: 0,
            iteration,
            kind: kind as u16,
            flags: 0,
            pad: 0,
        }
    }

    #[test]
    fn nearest_rank_pinned() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50, 100), 50);
        assert_eq!(nearest_rank(&v, 95, 100), 95);
        assert_eq!(nearest_rank(&v, 99, 100), 99);
        assert_eq!(nearest_rank(&v, 100, 100), 100);
        // Small samples: nearest rank of p95 over 4 items is item 4.
        assert_eq!(nearest_rank(&[10, 20, 30, 40], 95, 100), 40);
        assert_eq!(nearest_rank(&[10, 20, 30, 40], 50, 100), 20);
        assert_eq!(nearest_rank(&[7], 99, 100), 7);
        assert_eq!(nearest_rank(&[], 99, 100), 0);
    }

    #[test]
    fn attribution_blames_the_varying_phase() {
        // 10 iterations; backend is constant 100 except iteration 7 where
        // it stalls 1000; memcpy is always 50. Iteration = backend + 100.
        let mut records = Vec::new();
        for it in 0..10u32 {
            let backend = if it == 7 { 1000 } else { 100 };
            records.push(rec(EventKind::BackendWrite, it, backend));
            records.push(rec(EventKind::Memcpy, it, 50));
            records.push(rec(EventKind::Iteration, it, backend + 100));
        }
        let a = analyze(&records, 0);
        let top = a.dominant_phase().expect("attribution ran");
        assert_eq!(top.kind, EventKind::BackendWrite);
        assert!((top.share - 1.0).abs() < 1e-9, "share {}", top.share);
        let memcpy_share = a
            .attribution
            .iter()
            .find(|x| x.kind == EventKind::Memcpy)
            .expect("memcpy attributed");
        assert!(memcpy_share.share.abs() < 1e-9);
    }

    #[test]
    fn coverage_ratio() {
        let records = vec![
            rec(EventKind::Iteration, 0, 1000),
            rec(EventKind::QueueIdle, 0, 600),
            rec(EventKind::EpeDispatch, 0, 300),
            rec(EventKind::PluginRun, 0, 250), // nested: not in coverage
        ];
        let a = analyze(&records, 0);
        let cov = a.coverage.expect("has iterations");
        assert!((cov - 0.9).abs() < 1e-9, "coverage {cov}");
    }

    #[test]
    fn phase_stats_quantiles_exact() {
        let mut records: Vec<TraceRecord> =
            (1..=100).map(|i| rec(EventKind::WriteCall, 0, i)).collect();
        records.push(rec(EventKind::Iteration, 0, 5000));
        let a = analyze(&records, 2);
        let w = a.phase(EventKind::WriteCall).expect("writes present");
        assert_eq!(w.count, 100);
        assert_eq!(w.p50_ns, 50);
        assert_eq!(w.p95_ns, 95);
        assert_eq!(w.p99_ns, 99);
        assert_eq!(w.max_ns, 100);
        assert_eq!(a.dropped, 2);
        assert!(a.attribution.is_empty(), "one iteration, no variance");
        let text = a.render();
        assert!(text.contains("write_call"));
        assert!(text.contains("2 dropped"));
    }

    #[test]
    fn phase_sample_grouping_is_exact() {
        let mut records = Vec::new();
        for (rank, bytes, durs) in [(0u32, 576u64, [10u64, 30, 20]), (1, 576, [5, 5, 5])] {
            for (i, d) in durs.iter().enumerate() {
                records.push(TraceRecord {
                    t_ns: i as u64,
                    dur_ns: *d,
                    bytes,
                    rank,
                    iteration: i as u32,
                    kind: EventKind::PhaseSample as u16,
                    flags: 0,
                    pad: 0,
                });
            }
        }
        let groups = summarize_phase_samples(&records);
        assert_eq!(groups.len(), 2);
        assert_eq!(
            groups[0],
            GroupSummary {
                rank: 0,
                bytes: 576,
                count: 3,
                sum_ns: 60,
                min_ns: 10,
                max_ns: 30
            }
        );
        assert_eq!(groups[1].sum_ns, 15);
        assert!((groups[0].mean_s() - 20e-9).abs() < 1e-18);
    }

    #[test]
    fn merge_files_from_dir() {
        use damaris_format::trace::TraceWriter;
        let dir = std::env::temp_dir().join(format!("obs-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for rank in 0..2u32 {
            let f = std::fs::File::create(dir.join(format!("rank-{rank}.dtrc"))).unwrap();
            let mut w = TraceWriter::new(std::io::BufWriter::new(f)).unwrap();
            let mut r = rec(EventKind::WriteCall, 0, 10 + rank as u64);
            r.rank = rank;
            r.t_ns = 100 - rank as u64; // rank 1 earlier: merge must sort
            w.write_block(&[r]).unwrap();
            w.note_dropped(rank as u64);
            w.finish().unwrap();
        }
        let merged = load_traces(&[&dir]).unwrap();
        assert_eq!(merged.files, 2);
        assert_eq!(merged.records.len(), 2);
        assert_eq!(merged.dropped, 1);
        assert!(merged.warnings.is_empty());
        assert_eq!(merged.records[0].rank, 1, "sorted by timestamp");
        std::fs::remove_dir_all(&dir).ok();
    }
}
