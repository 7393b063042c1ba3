//! Ablation (paper §VI, future work): "quantify the optimal ratio between
//! I/O cores and computation cores within a node".
//!
//! Sweeps the number of dedicated cores per node on each platform and
//! reports total run time (50 iterations + write phases) plus the
//! dedicated-core write/spare balance. More dedicated cores cost compute
//! throughput once the memory bus is no longer saturated, but shorten the
//! per-core write burst — the optimum is workload-dependent.

use damaris_bench::*;
use damaris_sim::experiment::run_simulation;
use damaris_sim::strategies::DamarisOptions;
use damaris_sim::{platform, Strategy, WorkloadSpec};
use serde_json::json;

fn main() {
    let mut records = Vec::new();
    let cases = [
        (
            "kraken",
            platform::kraken(),
            WorkloadSpec::cm1_kraken(),
            2304usize,
        ),
        (
            "grid5000",
            platform::grid5000_parapluie(),
            WorkloadSpec::cm1_grid5000(),
            672,
        ),
        (
            "blueprint",
            platform::blueprint(),
            WorkloadSpec::cm1_blueprint(64.0),
            1024,
        ),
    ];

    for (name, platform, workload, ncores) in cases {
        let mut rows = Vec::new();
        // Baseline: no dedication (file-per-process).
        let fpp = run_simulation(
            &platform,
            &workload,
            Strategy::FilePerProcess,
            ncores,
            50,
            SEED,
        );
        rows.push(vec![
            "0 (fpp)".to_string(),
            fmt_s(fpp.total_time),
            fmt_s(fpp.io_time),
            "-".into(),
            "-".into(),
        ]);
        let mut best: Option<(usize, f64)> = None;
        for dedicated in 1..=4usize {
            if dedicated >= platform.cores_per_node {
                break;
            }
            let strategy = Strategy::Damaris(DamarisOptions {
                dedicated_per_node: dedicated,
                ..Default::default()
            });
            let run = run_simulation(&platform, &workload, strategy, ncores, 50, SEED);
            rows.push(vec![
                dedicated.to_string(),
                fmt_s(run.total_time),
                fmt_s(run.io_time),
                fmt_s(run.dedicated_write_mean),
                format!("{:.1}%", 100.0 * run.spare_fraction),
            ]);
            records.push(json!({
                "platform": name,
                "ncores": ncores,
                "dedicated": dedicated,
                "total_time_s": run.total_time,
                "dedicated_write_s": run.dedicated_write_mean,
                "spare_fraction": run.spare_fraction,
            }));
            if best.is_none_or(|(_, t)| run.total_time < t) {
                best = Some((dedicated, run.total_time));
            }
        }
        print_table(
            &format!("Dedicated-core ratio sweep — {name}, {ncores} cores"),
            &[
                "dedicated/node",
                "run time",
                "io time",
                "ded. write",
                "spare %",
            ],
            &rows,
        );
        if let Some((d, t)) = best {
            println!(
                "optimum on {name}: {d} dedicated core(s)/node at {}",
                fmt_s(t)
            );
        }
    }
    println!(
        "\nPaper (§V-A): one dedicated core per node 'turned out to be an optimal choice' on \
         these workloads — additional cores only pay once compute is no longer bus-bound."
    );
    save_json("ablation_dedicated_ratio", &json!({ "rows": records }));
}
