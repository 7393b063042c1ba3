//! Experiment drivers: single write phases, multi-phase runs, and the
//! 50-iterations-plus-one-write runs behind Figs. 2–7 and Table I.

use crate::metrics::{scalability_factor, throughput, Stats};
use crate::noise::SimRng;
use crate::platform::PlatformSpec;
use crate::strategies::{run_phase, PhaseOutcome, Strategy};
use crate::workload::WorkloadSpec;

/// Results of one simulated write phase (plus derived metrics).
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Strategy label.
    pub strategy: String,
    /// Total cores.
    pub ncores: usize,
    /// Per-process write time as the simulation experiences it.
    pub client_stats: Stats,
    /// Raw per-process write times.
    pub client_write_times: Vec<f64>,
    /// Barrier-to-barrier phase duration.
    pub phase_duration: f64,
    /// Dedicated-core write-time stats (Damaris only; zero stats otherwise).
    pub dedicated_stats: Stats,
    /// Logical bytes produced by the application.
    pub bytes_logical: u64,
    /// Bytes that reached the file system (post-compression).
    pub bytes_to_fs: u64,
    /// Aggregate throughput: logical bytes over the time they took to land.
    pub aggregate_throughput: f64,
    /// Time from phase start until the last byte was stored.
    pub io_makespan: f64,
}

impl PhaseReport {
    fn from_outcome(strategy: &Strategy, ncores: usize, out: PhaseOutcome) -> Self {
        PhaseReport {
            strategy: strategy.label().to_string(),
            ncores,
            client_stats: Stats::from(&out.client_write_times),
            phase_duration: out.phase_duration,
            dedicated_stats: Stats::from(&out.dedicated_write_times),
            bytes_logical: out.bytes_logical,
            bytes_to_fs: out.bytes_to_fs,
            aggregate_throughput: throughput(out.bytes_logical, out.io_makespan),
            io_makespan: out.io_makespan,
            client_write_times: out.client_write_times,
        }
    }
}

/// Simulates one write phase.
pub fn run_io_phase(
    platform: &PlatformSpec,
    workload: &WorkloadSpec,
    strategy: Strategy,
    ncores: usize,
    seed: u64,
) -> PhaseReport {
    let out = run_phase(platform, workload, &strategy, ncores, seed);
    PhaseReport::from_outcome(&strategy, ncores, out)
}

/// A full simulated run: `iterations` compute iterations with a write
/// phase every `workload.iterations_per_write`.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub strategy: String,
    pub ncores: usize,
    /// Total run time (s).
    pub total_time: f64,
    /// Time spent in compute (s).
    pub compute_time: f64,
    /// Time the application observed as I/O (s).
    pub io_time: f64,
    /// Per-phase durations.
    pub phase_durations: Vec<f64>,
    /// Average write-phase duration.
    pub phase_mean: f64,
    /// Worst write-phase duration.
    pub phase_max: f64,
    /// Best write-phase duration.
    pub phase_min: f64,
    /// Dedicated-core spare-time fraction over the run (Damaris; else 0).
    pub spare_fraction: f64,
    /// Mean dedicated-core write time per phase (Damaris; else 0).
    pub dedicated_write_mean: f64,
}

/// Per-iteration compute time: the slowest node sets the pace (the
/// application synchronizes every iteration through halo exchanges).
fn iteration_time(
    platform: &PlatformSpec,
    strategy: &Strategy,
    workload: &WorkloadSpec,
    nodes: usize,
    rng: &mut SimRng,
) -> f64 {
    let active = strategy.compute_cores(platform.cores_per_node);
    let points = match strategy {
        Strategy::Damaris(o) => {
            workload.points_per_client(platform.cores_per_node, o.dedicated_per_node)
        }
        _ => workload.points_per_core_n(),
    };
    let base = platform.iteration_time(active, points);
    // Max of per-node OS noise factors; sample a subset for large runs
    // (the max over k i.i.d. lognormals grows like exp(σ√(2 ln k))).
    let samples = nodes.min(512);
    let mut worst: f64 = 0.0;
    for _ in 0..samples {
        worst = worst.max(platform.os_noise.factor(rng));
    }
    base * worst
}

/// Simulates `iterations` compute iterations plus periodic write phases.
pub fn run_simulation(
    platform: &PlatformSpec,
    workload: &WorkloadSpec,
    strategy: Strategy,
    ncores: usize,
    iterations: u32,
    seed: u64,
) -> RunReport {
    let nodes = platform.nodes_for(ncores);
    let mut rng = SimRng::new(seed, 0xC0FFEE);
    let mut compute_time = 0.0;
    let mut io_time = 0.0;
    let mut phase_durations = Vec::new();
    let mut dedicated_write_means = Vec::new();
    let mut spare_times = Vec::new();
    let mut window_since_write = 0.0;

    for iter in 1..=iterations {
        let it = iteration_time(platform, &strategy, workload, nodes, &mut rng);
        compute_time += it;
        window_since_write += it;
        if iter % workload.iterations_per_write == 0 {
            let phase_seed = seed.wrapping_mul(31).wrapping_add(u64::from(iter));
            let out = run_phase(platform, workload, &strategy, ncores, phase_seed);
            phase_durations.push(out.phase_duration);
            io_time += out.phase_duration;
            if !out.dedicated_write_times.is_empty() {
                let mean = out.dedicated_write_times.iter().sum::<f64>()
                    / out.dedicated_write_times.len() as f64;
                dedicated_write_means.push(mean);
                spare_times.push((window_since_write - mean).max(0.0));
            }
            window_since_write = 0.0;
        }
    }

    let phase_stats = Stats::from(&phase_durations);
    let spare_fraction = if spare_times.is_empty() {
        0.0
    } else {
        let total_window =
            compute_time / phase_durations.len().max(1) as f64 * phase_durations.len() as f64;
        (spare_times.iter().sum::<f64>() / total_window).clamp(0.0, 1.0)
    };
    RunReport {
        strategy: strategy.label().to_string(),
        ncores,
        total_time: compute_time + io_time,
        compute_time,
        io_time,
        phase_mean: phase_stats.mean,
        phase_max: phase_stats.max,
        phase_min: phase_stats.min,
        phase_durations,
        spare_fraction,
        dedicated_write_mean: if dedicated_write_means.is_empty() {
            0.0
        } else {
            dedicated_write_means.iter().sum::<f64>() / dedicated_write_means.len() as f64
        },
    }
}

/// A scripted rank failure for [`run_simulation_with_failure`]: `rank`
/// dies at the start of iteration `at_iteration`; the survivors learn of
/// it only when a synchronization times out `detection_timeout` seconds
/// later (mirroring the typed `PeerFailed` surfaced by the threaded MPI
/// substrate's receive timeouts).
#[derive(Debug, Clone, Copy)]
pub struct FailureSpec {
    /// The rank that dies (only used for labeling; the model is symmetric).
    pub rank: usize,
    /// 1-based iteration at whose start the rank dies.
    pub at_iteration: u32,
    /// How long survivors block before the failure surfaces (s).
    pub detection_timeout: f64,
}

/// [`RunReport`] plus the failure's measured impact.
#[derive(Debug, Clone)]
pub struct FailureRunReport {
    pub run: RunReport,
    /// The failed rank, echoed from the spec.
    pub failed_rank: usize,
    /// Wall time of the iteration in which the failure was detected.
    pub failure_iteration_time: f64,
    /// Median iteration time across the run (jitter baseline).
    pub median_iteration_time: f64,
    /// `failure_iteration_time / median_iteration_time` — how hard the
    /// failure spiked the iteration cadence.
    pub jitter_factor: f64,
    /// Duration of the write phase disrupted by the failure, if the
    /// strategy couples ranks at I/O time (collective I/O blocks the whole
    /// phase on the dead rank; file-per-process does not).
    pub disrupted_phase: Option<f64>,
}

/// [`run_simulation`] with one scripted rank failure.
///
/// The application synchronizes every iteration (halo exchanges), so every
/// survivor stalls for `detection_timeout` at iteration `at_iteration` —
/// the sim's analogue of a blocked `recv` returning `PeerFailed`. Under
/// collective I/O the next write phase is *also* held up by the timeout
/// (shared-file collectives cannot complete without every rank); under
/// file-per-process the phase runs undisturbed. The run then continues
/// with the survivors, as a restart-from-checkpoint harness would.
pub fn run_simulation_with_failure(
    platform: &PlatformSpec,
    workload: &WorkloadSpec,
    strategy: Strategy,
    ncores: usize,
    iterations: u32,
    seed: u64,
    failure: FailureSpec,
) -> FailureRunReport {
    let nodes = platform.nodes_for(ncores);
    let mut rng = SimRng::new(seed, 0xC0FFEE);
    let mut compute_time = 0.0;
    let mut io_time = 0.0;
    let mut phase_durations = Vec::new();
    let mut iteration_times = Vec::new();
    let mut failure_iteration_time = 0.0;
    let mut disrupted_phase = None;
    let mut failure_pending_for_io = false;

    for iter in 1..=iterations {
        let mut it = iteration_time(platform, &strategy, workload, nodes, &mut rng);
        if iter == failure.at_iteration {
            // Survivors block in the halo exchange until the timeout fires.
            it += failure.detection_timeout;
            failure_iteration_time = it;
            failure_pending_for_io = true;
        }
        iteration_times.push(it);
        compute_time += it;
        if iter % workload.iterations_per_write == 0 {
            let phase_seed = seed.wrapping_mul(31).wrapping_add(u64::from(iter));
            let out = run_phase(platform, workload, &strategy, ncores, phase_seed);
            let mut duration = out.phase_duration;
            if failure_pending_for_io {
                // Strategies that couple ranks at I/O time pay the timeout
                // again inside the phase: a shared-file collective cannot
                // complete without the dead rank's contribution.
                if matches!(strategy, Strategy::CollectiveIo) {
                    duration += failure.detection_timeout;
                    disrupted_phase = Some(duration);
                }
                failure_pending_for_io = false;
            }
            phase_durations.push(duration);
            io_time += duration;
        }
    }

    let mut sorted = iteration_times.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("iteration times are finite"));
    let median_iteration_time = sorted[sorted.len() / 2];
    let phase_stats = Stats::from(&phase_durations);
    let run = RunReport {
        strategy: strategy.label().to_string(),
        ncores,
        total_time: compute_time + io_time,
        compute_time,
        io_time,
        phase_mean: phase_stats.mean,
        phase_max: phase_stats.max,
        phase_min: phase_stats.min,
        phase_durations,
        spare_fraction: 0.0,
        dedicated_write_mean: 0.0,
    };
    FailureRunReport {
        run,
        failed_rank: failure.rank,
        failure_iteration_time,
        median_iteration_time,
        jitter_factor: failure_iteration_time / median_iteration_time.max(f64::MIN_POSITIVE),
        disrupted_phase,
    }
}

/// Baseline `C_N`: compute-only time for `iterations` iterations on the
/// standard decomposition, used by the scalability factor (§IV-C2).
pub fn baseline_compute_time(
    platform: &PlatformSpec,
    workload: &WorkloadSpec,
    ncores: usize,
    iterations: u32,
    seed: u64,
) -> f64 {
    let nodes = platform.nodes_for(ncores);
    let mut rng = SimRng::new(seed, 0xBA5E);
    let mut total = 0.0;
    for _ in 0..iterations {
        total += iteration_time(
            platform,
            &Strategy::FilePerProcess, // standard decomposition, no I/O
            workload,
            nodes,
            &mut rng,
        );
    }
    total
}

/// Scalability-factor helper for Fig. 4a.
pub fn scalability_of_run(report: &RunReport, baseline_576: f64) -> f64 {
    scalability_factor(report.ncores, baseline_576, report.total_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform;

    #[test]
    fn run_includes_phases() {
        let p = platform::kraken();
        let w = WorkloadSpec::cm1_kraken();
        let r = run_simulation(&p, &w, Strategy::FilePerProcess, 576, 100, 1);
        assert_eq!(r.phase_durations.len(), 2); // every 50 iterations
        assert!(r.total_time > r.compute_time);
        assert!((r.total_time - r.compute_time - r.io_time).abs() < 1e-9);
    }

    #[test]
    fn damaris_io_time_negligible() {
        let p = platform::kraken();
        let w = WorkloadSpec::cm1_kraken();
        let r = run_simulation(&p, &w, Strategy::damaris(), 1152, 50, 2);
        assert!(
            r.io_time < 0.01 * r.total_time,
            "io {} total {}",
            r.io_time,
            r.total_time
        );
        assert!(r.spare_fraction > 0.5, "spare {}", r.spare_fraction);
        assert!(r.dedicated_write_mean > 0.0);
    }

    #[test]
    fn damaris_scales_better_than_fpp() {
        let p = platform::kraken();
        let w = WorkloadSpec::cm1_kraken();
        let base = baseline_compute_time(&p, &w, 576, 50, 1);
        let fpp = run_simulation(&p, &w, Strategy::FilePerProcess, 4608, 50, 1);
        let dam = run_simulation(&p, &w, Strategy::damaris(), 4608, 50, 1);
        let s_fpp = scalability_of_run(&fpp, base);
        let s_dam = scalability_of_run(&dam, base);
        assert!(
            s_dam > s_fpp,
            "damaris S={s_dam:.0} should beat fpp S={s_fpp:.0}"
        );
        // Damaris within 10% of perfect.
        assert!(s_dam > 0.90 * 4608.0, "S={s_dam:.0} of 4608");
    }

    #[test]
    fn baseline_is_deterministic() {
        let p = platform::kraken();
        let w = WorkloadSpec::cm1_kraken();
        let a = baseline_compute_time(&p, &w, 576, 50, 9);
        let b = baseline_compute_time(&p, &w, 576, 50, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn rank_failure_spikes_jitter_and_collective_phase() {
        let p = platform::kraken();
        let w = WorkloadSpec::cm1_kraken();
        let spec = FailureSpec {
            rank: 17,
            at_iteration: 25,
            detection_timeout: 5.0,
        };
        let fpp = run_simulation_with_failure(&p, &w, Strategy::FilePerProcess, 576, 50, 3, spec);
        let cio = run_simulation_with_failure(&p, &w, Strategy::CollectiveIo, 576, 50, 3, spec);

        // The detection stall dominates an ordinary iteration: the failure
        // iteration is a visible jitter spike for every strategy.
        for r in [&fpp, &cio] {
            // The 5 s stall dominates (ordinary iterations have well under
            // 1 s of spread around the median).
            assert!(
                r.failure_iteration_time > r.median_iteration_time + 4.0,
                "failure iter {} vs median {}",
                r.failure_iteration_time,
                r.median_iteration_time
            );
            assert!(r.jitter_factor > 1.5, "jitter factor {}", r.jitter_factor);
            assert_eq!(r.failed_rank, 17);
        }
        // Only the rank-coupled strategy loses the write phase too.
        assert!(fpp.disrupted_phase.is_none());
        let disrupted = cio.disrupted_phase.expect("collective phase disrupted");
        assert!(disrupted >= 5.0);
        // Same seed, same spec → byte-identical accounting (determinism).
        let again = run_simulation_with_failure(&p, &w, Strategy::CollectiveIo, 576, 50, 3, spec);
        assert_eq!(again.run.total_time, cio.run.total_time);
    }

    #[test]
    fn phase_report_derivations() {
        let p = platform::kraken();
        let w = WorkloadSpec::cm1_kraken();
        let r = run_io_phase(&p, &w, Strategy::FilePerProcess, 576, 11);
        assert_eq!(r.client_stats.count, 576);
        assert!(r.aggregate_throughput > 0.0);
        assert!(r.client_stats.max <= r.phase_duration + 1e-9);
        assert_eq!(r.bytes_logical, w.total_bytes(576));
    }
}
