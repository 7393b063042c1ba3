//! Mini-CM1 warm-bubble run comparing the three I/O strategies end to end
//! on real threads and a real file system (a temp directory).
//!
//! This is the paper's experimental setup at laptop scale: the same
//! simulation writes through file-per-process, collective-I/O, and Damaris
//! dedicated cores; we report what the *simulation* observed per write
//! phase — the paper's headline is that the Damaris number is a fraction
//! of the others and independent of data size.
//!
//! Run with: `cargo run --release --example cm1_storm`

use damaris_repro::cm1::io::{CollectiveBackend, DamarisBackend, DamarisDeployment, FppBackend};
use damaris_repro::cm1::{run_rank, Cm1Config};
use damaris_repro::mpi::World;
use std::time::Duration;

const RANKS: usize = 8;
const CLIENTS_PER_NODE: usize = 4; // 2 "SMP nodes"

fn report(label: &str, all_stats: Vec<Vec<Duration>>, checksum: f64) {
    let mut per_phase_max = Vec::new();
    let phases = all_stats[0].len();
    for p in 0..phases {
        let max = all_stats.iter().map(|s| s[p]).max().expect("ranks");
        per_phase_max.push(max);
    }
    let total: Duration = per_phase_max.iter().sum();
    println!(
        "{label:<18} write phases: {:?}  total {total:?}  (theta checksum {checksum:.3})",
        per_phase_max
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = Cm1Config::small_test(RANKS);
    config.global = (96, 96, 40);
    config.iterations = 6;
    config.write_every = 2;
    config.n_variables = 6;
    let tmp = std::env::temp_dir().join(format!("cm1-storm-{}", std::process::id()));
    println!(
        "mini-CM1: {}x{}x{} global domain, {} ranks, {} variables, write every {} iterations\n",
        config.global.0,
        config.global.1,
        config.global.2,
        RANKS,
        config.n_variables,
        config.write_every
    );

    // --- file-per-process
    let dir = tmp.join("fpp");
    let cfg = config.clone();
    let results = World::run(RANKS, |comm| {
        let mut io = FppBackend::new(&dir).unwrap();
        run_rank(comm, &cfg, &mut io).unwrap()
    });
    report(
        "file-per-process",
        results
            .iter()
            .map(|r| r.write_stats.iter().map(|s| s.elapsed).collect())
            .collect(),
        results[0].theta_checksum,
    );

    // --- collective I/O
    let dir = tmp.join("cio");
    let cfg = config.clone();
    let results = World::run(RANKS, |comm| {
        let mut io = CollectiveBackend::new(&dir).unwrap();
        run_rank(comm, &cfg, &mut io).unwrap()
    });
    report(
        "collective-io",
        results
            .iter()
            .map(|r| r.write_stats.iter().map(|s| s.elapsed).collect())
            .collect(),
        results[0].theta_checksum,
    );

    // --- Damaris: 2 nodes × (4 clients + 1 dedicated core)
    let dir = tmp.join("damaris");
    let decomp = damaris_repro::cm1::Decomp2d::auto(
        RANKS,
        config.global.0,
        config.global.1,
        config.global.2,
    )?;
    let deployment = DamarisDeployment::start(
        RANKS,
        CLIENTS_PER_NODE,
        decomp.local_extent(),
        config.n_variables,
        &dir,
    )?;
    let cfg = config.clone();
    let results = World::run(RANKS, |comm| {
        let mut io: DamarisBackend = deployment.backend_for(comm.rank());
        run_rank(comm, &cfg, &mut io).unwrap()
    });
    let checksum = results[0].theta_checksum;
    let stats = results
        .iter()
        .map(|r| r.write_stats.iter().map(|s| s.elapsed).collect())
        .collect();
    let reports = deployment.finish()?;
    report("damaris", stats, checksum);
    let stored: u64 = reports.iter().map(|r| r.bytes_stored).sum();
    println!(
        "                   dedicated cores persisted {} iterations/node, {} MB total",
        reports[0].iterations_persisted,
        stored / 1_000_000
    );

    println!(
        "\nNote: identical theta checksums across backends — the I/O strategy must not\n\
         perturb the physics. Damaris write-phase times are shared-memory copies; the\n\
         real storage I/O happened asynchronously on the dedicated cores."
    );
    std::fs::remove_dir_all(&tmp).ok();
    Ok(())
}
