//! Checkpoint/restart equivalence: a run interrupted at iteration K and
//! resumed from its checkpoint must produce *bit-identical* physics and
//! output to an uninterrupted run — across multiple ranks and together
//! with a Damaris I/O backend.

use damaris_repro::cm1::io::{FppBackend, NullBackend};
use damaris_repro::cm1::{run_rank, run_rank_with, CheckpointPolicy, Cm1Config};
use damaris_repro::format::SdfReader;
use damaris_repro::mpi::World;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("damaris-ckpt-{tag}-{}-{n}", std::process::id()))
}

fn config() -> Cm1Config {
    Cm1Config {
        global: (24, 24, 6),
        iterations: 8,
        write_every: 4,
        n_variables: 4,
        physics: Default::default(),
        bubble_amplitude: 5.0,
    }
}

#[test]
fn restart_reproduces_uninterrupted_run() {
    let nprocs = 4;
    let config = config();

    // Uninterrupted reference run.
    let reference = World::run(nprocs, |comm| {
        let mut io = NullBackend;
        run_rank(comm, &config, &mut io).unwrap().theta_checksum
    });

    // Interrupted run: checkpoint every 4 iterations, stop after 4.
    let ckpt_dir = scratch("interrupt");
    let policy = CheckpointPolicy::new(&ckpt_dir, 4);
    let mut first_half = config.clone();
    first_half.iterations = 4;
    World::run(nprocs, |comm| {
        let mut io = NullBackend;
        run_rank_with(comm, &first_half, &mut io, Some(&policy), None).unwrap();
    });
    // Every rank left a checkpoint at iteration 4.
    for rank in 0..nprocs {
        assert!(policy.file(rank, 4).exists(), "rank {rank} checkpoint");
    }

    // Resume from iteration 4 and run to 8.
    let resumed = World::run(nprocs, |comm| {
        let mut io = NullBackend;
        run_rank_with(comm, &config, &mut io, Some(&policy), Some(4))
            .unwrap()
            .theta_checksum
    });
    assert_eq!(reference[0], resumed[0], "restart must be bit-exact");
    std::fs::remove_dir_all(&ckpt_dir).ok();
}

#[test]
fn restart_writes_identical_output_files() {
    // The second half's write phases after a restart must persist the same
    // bytes an uninterrupted run persists.
    let nprocs = 2;
    let config = config();

    let dir_ref = scratch("out-ref");
    World::run(nprocs, |comm| {
        let mut io = FppBackend::new(&dir_ref).unwrap();
        run_rank(comm, &config, &mut io).unwrap();
    });

    let ckpt_dir = scratch("out-ckpt");
    let policy = CheckpointPolicy::new(&ckpt_dir, 4);
    let mut first_half = config.clone();
    first_half.iterations = 4;
    World::run(nprocs, |comm| {
        let mut io = NullBackend;
        run_rank_with(comm, &first_half, &mut io, Some(&policy), None).unwrap();
    });
    let dir_res = scratch("out-res");
    World::run(nprocs, |comm| {
        let mut io = FppBackend::new(&dir_res).unwrap();
        run_rank_with(comm, &config, &mut io, Some(&policy), Some(4)).unwrap();
    });

    for rank in 0..nprocs {
        let a = SdfReader::open(dir_ref.join(format!("rank-{rank}/iter-000008.sdf"))).unwrap();
        let b = SdfReader::open(dir_res.join(format!("rank-{rank}/iter-000008.sdf"))).unwrap();
        for var in ["theta", "u", "v", "w"] {
            let path = format!("/iter-8/rank-{rank}/{var}");
            assert_eq!(
                a.read_f32(&path).unwrap(),
                b.read_f32(&path).unwrap(),
                "{path}"
            );
        }
    }
    for d in [dir_ref, ckpt_dir, dir_res] {
        std::fs::remove_dir_all(&d).ok();
    }
}

#[test]
fn restart_without_policy_errors() {
    let config = config();
    World::run(1, |comm| {
        let mut io = NullBackend;
        let err = run_rank_with(comm, &config, &mut io, None, Some(4)).unwrap_err();
        assert!(err.to_string().contains("checkpoint policy"), "{err}");
    });
}

#[test]
fn restart_from_missing_checkpoint_errors() {
    let config = config();
    let dir = scratch("missing");
    let policy = CheckpointPolicy::new(&dir, 4);
    World::run(1, |comm| {
        let mut io = NullBackend;
        assert!(run_rank_with(comm, &config, &mut io, Some(&policy), Some(4)).is_err());
    });
}
