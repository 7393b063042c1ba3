//! Jitter lab: drive the cluster simulator from the command line and
//! compare the three I/O strategies on any platform/scale — a miniature
//! version of the paper's Figures 2–6 in one command.
//!
//! ```text
//! cargo run --release --example jitter_lab [kraken|grid5000|blueprint] [ncores]
//! ```

use damaris_repro::sim::experiment::{baseline_compute_time, run_simulation, scalability_of_run};
use damaris_repro::sim::{platform, run_io_phase, Strategy, WorkloadSpec};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let platform_name = args.get(1).map(String::as_str).unwrap_or("kraken");
    let (platform, workload, default_cores) = match platform_name {
        "kraken" => (platform::kraken(), WorkloadSpec::cm1_kraken(), 2304),
        "grid5000" => (
            platform::grid5000_parapluie(),
            WorkloadSpec::cm1_grid5000(),
            672,
        ),
        "blueprint" => (
            platform::blueprint(),
            WorkloadSpec::cm1_blueprint(64.0),
            1024,
        ),
        other => {
            eprintln!("unknown platform '{other}' (use kraken|grid5000|blueprint)");
            std::process::exit(2);
        }
    };
    let ncores: usize = args
        .get(2)
        .map(|s| s.parse().expect("ncores must be an integer"))
        .unwrap_or(default_cores);

    println!(
        "platform {} — {} cores ({} nodes × {} cores), {} data servers ({}), \
         {:.1} MB per process per write phase\n",
        platform.name,
        ncores,
        platform.nodes_for(ncores),
        platform.cores_per_node,
        platform.fs.data_servers,
        platform.fs.name,
        workload.bytes_per_core() as f64 / 1e6
    );

    let baseline = baseline_compute_time(&platform, &workload, ncores, 50, 1);
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>12} {:>8}",
        "strategy", "phase avg", "phase max", "run time", "throughput", "S/N"
    );
    for strategy in [
        Strategy::FilePerProcess,
        Strategy::CollectiveIo,
        Strategy::damaris(),
    ] {
        // A few independent write phases for avg/max…
        let mut avg = 0.0;
        let mut max: f64 = 0.0;
        let mut thr = 0.0;
        let phases = 5;
        for seed in 0..phases {
            let r = run_io_phase(&platform, &workload, strategy.clone(), ncores, 42 + seed);
            avg += r.phase_duration / phases as f64;
            max = max.max(r.phase_duration);
            thr += r.aggregate_throughput / phases as f64;
        }
        // …and one full 50-iteration run for the scalability factor.
        let run = run_simulation(&platform, &workload, strategy.clone(), ncores, 50, 42);
        let s = scalability_of_run(&run, baseline);
        println!(
            "{:<18} {:>9.2}s {:>9.2}s {:>9.1}s {:>9.2} GB/s {:>7.0}%",
            strategy.label(),
            avg,
            max,
            run.total_time,
            thr / 1e9,
            100.0 * s / ncores as f64,
        );
    }
    println!(
        "\n(phase = what the simulation observes between the barriers of one write phase;\n\
         S/N = scalability factor relative to perfect scaling on this core count)"
    );
}
