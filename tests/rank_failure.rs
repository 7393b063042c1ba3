//! Rank-failure acceptance: when fault injection kills a rank at
//! iteration K, the surviving ranks observe a typed
//! [`RecvError::PeerFailed`] within the configured detection window —
//! they do not hang — and the failure's blast radius differs by I/O
//! strategy exactly as the Damaris paper's jitter analysis predicts:
//! file-per-process writers keep writing, collective writers stall.

use damaris_core::DamarisError;
use damaris_format::{DataType, DatasetOptions, Layout, SdfWriter};
use damaris_mpi::{Bytes, FaultPlan, RecvError, World};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const RANKS: usize = 4;
const KILLED: usize = 2;
const KILL_AT: u32 = 3;
const ITERATIONS: u32 = 6;
const DETECTION_WINDOW: Duration = Duration::from_millis(500);

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("damaris-rankfail-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[derive(Debug, PartialEq)]
enum Outcome {
    /// The injected victim returned early at its fail point.
    Died { at: u32 },
    /// A survivor saw a typed peer failure at this iteration.
    PeerFailed {
        at: u32,
        peer: usize,
        waited: Duration,
    },
    /// The rank completed every iteration without incident.
    Completed,
}

/// The compute-loop skeleton every variant shares: halo-exchange stand-in
/// (an allreduce) each iteration, with the fail point polled first.
fn run_iterations(
    comm: &damaris_mpi::Communicator,
    mut io_phase: impl FnMut(u32) -> Result<(), RecvError>,
) -> Outcome {
    comm.set_recv_timeout(DETECTION_WINDOW);
    for iter in 0..ITERATIONS {
        if comm.fail_point(iter) {
            return Outcome::Died { at: iter };
        }
        let t0 = Instant::now();
        let halo =
            comm.try_allreduce_f64(&[f64::from(iter) + comm.rank() as f64 + 1.0], |a, b| a + b);
        let halo = match halo {
            Ok(v) => v,
            Err(RecvError::PeerFailed { rank }) => {
                return Outcome::PeerFailed {
                    at: iter,
                    peer: rank,
                    waited: t0.elapsed(),
                }
            }
            Err(RecvError::Timeout) => panic!("timeout before peer-death detection"),
        };
        assert!(halo[0] > 0.0);
        match io_phase(iter) {
            Ok(()) => {}
            Err(RecvError::PeerFailed { rank }) => {
                return Outcome::PeerFailed {
                    at: iter,
                    peer: rank,
                    waited: t0.elapsed(),
                }
            }
            Err(RecvError::Timeout) => panic!("timeout in I/O phase before detection"),
        }
    }
    Outcome::Completed
}

/// Survivors of a killed rank get `PeerFailed { rank }` — not a hang, not
/// a bare timeout — within the detection window, and the typed error maps
/// into [`DamarisError::PeerFailed`] for the layers above the substrate.
#[test]
fn killed_rank_surfaces_as_typed_peer_failure_within_window() {
    let plan = FaultPlan::new().kill_rank(KILLED, KILL_AT);
    let outcomes = World::run_with_faults(RANKS, plan, |comm| run_iterations(comm, |_| Ok(())));

    assert_eq!(outcomes[KILLED], Outcome::Died { at: KILL_AT });
    for (rank, outcome) in outcomes.iter().enumerate() {
        if rank == KILLED {
            continue;
        }
        match outcome {
            Outcome::PeerFailed { at, peer, waited } => {
                assert_eq!(*peer, KILLED, "rank {rank} blamed the wrong peer");
                // Detection happens at the kill iteration: the victim never
                // contributes to that allreduce.
                assert_eq!(*at, KILL_AT);
                // …and within the detection window (plus scheduling slack),
                // not after an unbounded stall.
                assert!(
                    *waited < DETECTION_WINDOW + Duration::from_millis(500),
                    "rank {rank} waited {waited:?}"
                );
            }
            other => panic!("rank {rank}: expected PeerFailed, got {other:?}"),
        }
    }

    // The substrate error converts losslessly into the core error type.
    let err: DamarisError = RecvError::PeerFailed { rank: KILLED }.into();
    assert!(matches!(err, DamarisError::PeerFailed { rank } if rank == KILLED));
    let err: DamarisError = RecvError::Timeout.into();
    assert!(matches!(err, DamarisError::CollectiveTimeout));
}

/// File-per-process: I/O is embarrassingly independent, so the survivors'
/// *writes* are untouched by the dead rank — every survivor persists every
/// iteration it reaches, and the failure only surfaces through the
/// compute-phase collective.
#[test]
fn file_per_process_survivors_keep_writing_after_kill() {
    let dir = scratch("fpp");
    let dir_ref = &dir;
    let plan = FaultPlan::new().kill_rank(KILLED, KILL_AT);
    let outcomes = World::run_with_faults(RANKS, plan, |comm| {
        let rank = comm.rank();
        run_iterations(comm, |iter| {
            let path = dir_ref.join(format!("rank-{rank}-iter-{iter:02}.sdf"));
            let mut writer = SdfWriter::create(&path).unwrap();
            writer
                .write_dataset_f32(
                    &format!("/iter-{iter}/rank-{rank}/u"),
                    &Layout::new(DataType::F32, &[16]),
                    &[rank as f32; 16],
                )
                .unwrap();
            writer.finish().unwrap();
            Ok(())
        })
    });

    // Every rank that reached an iteration wrote its file for it: the dead
    // rank through iteration K-1, the survivors through the iteration where
    // the collective exposed the death. No survivor write was *blocked* by
    // the dead peer — the hallmark of the file-per-process strategy.
    assert_eq!(outcomes[KILLED], Outcome::Died { at: KILL_AT });
    for iter in 0..KILL_AT {
        for rank in 0..RANKS {
            assert!(
                dir.join(format!("rank-{rank}-iter-{iter:02}.sdf")).exists(),
                "missing rank {rank} iter {iter}"
            );
        }
    }
    for rank in (0..RANKS).filter(|r| *r != KILLED) {
        assert!(matches!(
            outcomes[rank],
            Outcome::PeerFailed { peer: KILLED, .. }
        ));
    }
    // The victim wrote nothing at or after its kill iteration.
    for iter in KILL_AT..ITERATIONS {
        assert!(!dir
            .join(format!("rank-{KILLED}-iter-{iter:02}.sdf"))
            .exists());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Collective I/O: the aggregation step needs *every* rank, so the same
/// kill stops the shared file stream at iteration K — survivors detect the
/// death inside the gather itself (typed, within the window), and no
/// aggregate file exists for K or beyond.
#[test]
fn collective_io_halts_aggregation_at_kill_iteration() {
    let dir = scratch("collective");
    let dir_ref = &dir;
    let plan = FaultPlan::new().kill_rank(KILLED, KILL_AT);
    let outcomes = World::run_with_faults(RANKS, plan, |comm| {
        let rank = comm.rank();
        run_iterations(comm, |iter| {
            // Two-phase collective write: gather everyone's block to rank
            // 0, which persists one shared file per iteration.
            let block = Bytes::from(vec![rank as u8; 8]);
            let gathered = comm.try_gather(0, block)?;
            if let Some(blocks) = gathered {
                let path = dir_ref.join(format!("shared-iter-{iter:02}.sdf"));
                let mut writer = SdfWriter::create(&path).unwrap();
                for (src, b) in blocks.iter().enumerate() {
                    writer
                        .write_dataset_bytes(
                            &format!("/iter-{iter}/rank-{src}/u"),
                            &Layout::new(DataType::U8, &[b.len() as u64]),
                            b,
                            &DatasetOptions::plain(),
                        )
                        .unwrap();
                }
                writer.finish().unwrap();
            }
            // Everyone leaves the write phase together — so non-root
            // survivors also learn about the death *in the I/O phase*
            // when the kill lands there, not one iteration later.
            comm.try_barrier()?;
            Ok(())
        })
    });

    assert_eq!(outcomes[KILLED], Outcome::Died { at: KILL_AT });
    for rank in (0..RANKS).filter(|r| *r != KILLED) {
        match &outcomes[rank] {
            Outcome::PeerFailed { at, peer, .. } => {
                assert_eq!((*at, *peer), (KILL_AT, KILLED), "rank {rank}");
            }
            other => panic!("rank {rank}: expected PeerFailed, got {other:?}"),
        }
    }
    // Aggregate files exist exactly up to the kill iteration…
    for iter in 0..KILL_AT {
        assert!(dir.join(format!("shared-iter-{iter:02}.sdf")).exists());
    }
    // …and never after: the strategy's write path is all-or-nothing.
    for iter in KILL_AT..ITERATIONS {
        assert!(!dir.join(format!("shared-iter-{iter:02}.sdf")).exists());
    }
    std::fs::remove_dir_all(&dir).ok();
}
