//! # damaris-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation section (§IV), plus criterion micro-benchmarks over the real
//! (non-simulated) components.
//!
//! | binary                | reproduces |
//! |-----------------------|------------|
//! | `fig2_jitter`         | Fig. 2 — write-phase duration (avg/max) on Kraken |
//! | `fig3_datasize`       | Fig. 3 — write time vs output size on BluePrint |
//! | `fig4_scalability`    | Fig. 4a/4b — scalability factor and run time |
//! | `fig5_sparetime`      | Fig. 5a/5b — dedicated-core write vs spare time |
//! | `fig6_throughput`     | Fig. 6 — aggregate throughput on Kraken |
//! | `table1_grid5000`     | Table I + §IV-C1 text — Grid'5000 throughput and jitter |
//! | `fig7_sparetime_usage`| Fig. 7 — compression & scheduling in the dedicated cores |
//! | `compression_ratios`  | §IV-D — real codec ratios on mini-CM1 data |
//! | `analysis_breakeven`  | §V-A — the 100/(N−1) break-even model |
//! | `ablation_dedicated_ratio` | §VI — optimal I/O-core : compute-core ratio |
//! | `ablation_jitter_sources`  | §II-A — which jitter cause drives which strategy |
//! | `ablation_output_frequency`| §IV-C2 — cost of writing more often |
//! | `all_figures`         | runs everything, writes results under `target/figures/` |
//!
//! Each binary prints a human-readable table and appends a JSON record to
//! `target/figures/<name>.json` so `EXPERIMENTS.md` can cite exact values.

use damaris_sim::metrics::format_rate;
use damaris_sim::{experiment, platform, PlatformSpec, Strategy, WorkloadSpec};
use serde_json::json;
use std::io::Write as _;
use std::path::PathBuf;

/// Kraken core counts used across the figures (the paper scales 576→9216).
pub const KRAKEN_SCALES: [usize; 5] = [576, 1152, 2304, 4608, 9216];

/// Write phases sampled per configuration (avg/max across phases).
pub const PHASES: u64 = 5;

/// Base seed; figure binaries offset it per configuration.
pub const SEED: u64 = 20120924; // CLUSTER 2012, Beijing

/// Where JSON records land.
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
    std::fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

/// Writes a JSON record for EXPERIMENTS.md.
pub fn save_json(name: &str, value: &serde_json::Value) {
    let path = figures_dir().join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path).expect("create json");
    f.write_all(
        serde_json::to_string_pretty(value)
            .expect("serialize")
            .as_bytes(),
    )
    .expect("write json");
    eprintln!("(saved {})", path.display());
}

/// Per-(strategy, scale) summary over several simulated write phases.
///
/// `avg_s`/`max_s`/`min_s` follow the paper's Fig. 2/3 semantics: the
/// statistics of the barrier-to-barrier *phase duration* across phases.
#[derive(Debug, Clone)]
pub struct PhaseSummary {
    pub strategy: String,
    pub ncores: usize,
    /// Mean phase duration over the sampled phases.
    pub avg_s: f64,
    /// Worst phase duration.
    pub max_s: f64,
    /// Best phase duration.
    pub min_s: f64,
    /// Fastest single process observed in any phase (§IV-C1's "fastest
    /// processes terminate their I/O in less than 1 sec").
    pub fastest_proc_s: f64,
    /// Mean aggregate throughput (bytes/s).
    pub throughput: f64,
    /// Mean of per-phase mean dedicated-core write time (Damaris only).
    pub dedicated_avg_s: f64,
    /// Max dedicated-core write time (Damaris only).
    pub dedicated_max_s: f64,
}

/// Runs `PHASES` simulated write phases and summarizes.
pub fn summarize_phases(
    platform: &PlatformSpec,
    workload: &WorkloadSpec,
    strategy: &Strategy,
    ncores: usize,
    seed: u64,
) -> PhaseSummary {
    let mut avg = 0.0;
    let mut max = f64::MIN;
    let mut min = f64::MAX;
    let mut fastest = f64::MAX;
    let mut thr = 0.0;
    let mut ded_avg = 0.0;
    let mut ded_max: f64 = 0.0;
    for phase in 0..PHASES {
        let report = experiment::run_io_phase(
            platform,
            workload,
            strategy.clone(),
            ncores,
            seed.wrapping_add(phase * 7919),
        );
        avg += report.phase_duration;
        max = max.max(report.phase_duration);
        min = min.min(report.phase_duration);
        fastest = fastest.min(report.client_stats.min);
        thr += report.aggregate_throughput;
        ded_avg += report.dedicated_stats.mean;
        ded_max = ded_max.max(report.dedicated_stats.max);
    }
    let n = PHASES as f64;
    PhaseSummary {
        strategy: strategy.label().to_string(),
        ncores,
        avg_s: avg / n,
        max_s: max,
        min_s: min,
        fastest_proc_s: fastest,
        throughput: thr / n,
        dedicated_avg_s: ded_avg / n,
        dedicated_max_s: ded_max,
    }
}

impl PhaseSummary {
    /// JSON record for saving.
    pub fn to_json(&self) -> serde_json::Value {
        json!({
            "strategy": self.strategy,
            "ncores": self.ncores,
            "avg_s": self.avg_s,
            "max_s": self.max_s,
            "min_s": self.min_s,
            "fastest_proc_s": self.fastest_proc_s,
            "throughput_bytes_per_s": self.throughput,
            "dedicated_avg_s": self.dedicated_avg_s,
            "dedicated_max_s": self.dedicated_max_s,
        })
    }
}

/// Per-phase write durations for one (strategy, scale) cell: the raw
/// samples [`summarize_phases`] aggregates, exposed so figure binaries
/// can also emit them as `PhaseSample` trace records. Same seeds, so the
/// simulation reproduces the summary's numbers exactly.
pub fn phase_durations(
    platform: &PlatformSpec,
    workload: &WorkloadSpec,
    strategy: &Strategy,
    ncores: usize,
    seed: u64,
) -> Vec<f64> {
    (0..PHASES)
        .map(|phase| {
            experiment::run_io_phase(
                platform,
                workload,
                strategy.clone(),
                ncores,
                seed.wrapping_add(phase * 7919),
            )
            .phase_duration
        })
        .collect()
}

/// The three compared strategies with paper-default options.
pub fn standard_strategies() -> Vec<Strategy> {
    vec![
        Strategy::FilePerProcess,
        Strategy::CollectiveIo,
        Strategy::damaris(),
    ]
}

/// The Kraken platform + workload pair most figures use.
pub fn kraken_setup() -> (PlatformSpec, WorkloadSpec) {
    (platform::kraken(), WorkloadSpec::cm1_kraken())
}

/// Prints a header + rows as a fixed-width table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats seconds compactly.
pub fn fmt_s(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0} s")
    } else if v >= 1.0 {
        format!("{v:.1} s")
    } else {
        format!("{:.2} s", v)
    }
}

/// Formats a throughput.
pub fn fmt_rate(v: f64) -> String {
    format_rate(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_are_deterministic() {
        let (p, w) = kraken_setup();
        let a = summarize_phases(&p, &w, &Strategy::damaris(), 576, 1);
        let b = summarize_phases(&p, &w, &Strategy::damaris(), 576, 1);
        assert_eq!(a.avg_s, b.avg_s);
        assert_eq!(a.throughput, b.throughput);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_s(481.2), "481 s");
        assert_eq!(fmt_s(17.26), "17.3 s");
        assert_eq!(fmt_s(0.207), "0.21 s");
    }
}
