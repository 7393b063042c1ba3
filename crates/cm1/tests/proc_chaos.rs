//! The kill matrix, run for real: CM1 as 4+ OS processes over a
//! file-backed shared mapping, with `kill -9` delivered at every
//! interesting protocol phase.
//!
//! Every test drives [`damaris_core::proc::launch`] with the
//! `cm1_proc` binary as the child executable, then asserts the three
//! acceptance properties of the cross-process design:
//!
//! 1. **Containment** — the dead party is fenced (client) or
//!    respawned-and-replayed (EPE) within the lease window.
//! 2. **Zero leaks** — after every process has exited, the mapping's
//!    rings hold 0 reserved bytes.
//! 3. **Output integrity** — persisted SDF files validate, contain
//!    exactly the data the policy promises, and never contain a
//!    CRC-invalid segment.

#![cfg(unix)]

use damaris_core::config::OnClientFailure;
use damaris_core::proc::{payload_for, ClientKillSpec, LaunchPlan, LaunchReport};
use damaris_format::SdfReader;
use damaris_mpi::ClientKillPhase;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("damaris-proc-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn plan(name: &str) -> LaunchPlan {
    LaunchPlan::new(
        PathBuf::from(env!("CARGO_BIN_EXE_cm1_proc")),
        tmpdir(name),
        4,
    )
}

/// Checks every `/iter-<it>/rank-<r>/var<v>` dataset in `file` against
/// the deterministic payload the client generated — end-to-end: what the
/// client memcpy'd into shared memory is byte-identical to what the EPE
/// persisted, across process boundaries, kills, and respawns.
fn assert_sdf_contents(file: &Path, it: u32, present: &[u32], absent: &[u32], p: &LaunchPlan) {
    let reader = SdfReader::open(file).unwrap();
    reader.validate().unwrap();
    let names = reader.dataset_names();
    for &rank in present {
        for var in 0..p.variables {
            let path = format!("/iter-{it}/rank-{rank}/var{var}");
            let bytes = reader.read_bytes(&path).unwrap();
            assert_eq!(
                bytes,
                payload_for(rank, it, var, p.payload_len),
                "{path} in {file:?} does not match the client payload"
            );
        }
    }
    for &rank in absent {
        assert!(
            !names
                .iter()
                .any(|n| n.starts_with(&format!("/iter-{it}/rank-{rank}/"))),
            "fenced rank {rank} leaked data into {file:?}"
        );
    }
}

fn assert_core_invariants(report: &LaunchReport) {
    assert!(report.epe_ok, "EPE did not finish cleanly: {report:?}");
    assert_eq!(report.leaked_bytes, 0, "ring bytes leaked: {report:?}");
    assert!(
        report.failed_ranks.is_empty(),
        "ranks failed (not killed), saying {:?}: {report:?}",
        report.client_errors
    );
}

/// The recovery scan over the run's output: it finds nothing to repair
/// and leaves nothing temporary behind. Returns the presence bitmap of
/// every file that claims to be partial, by path relative to `out/`.
fn partial_files(p: &LaunchPlan) -> BTreeMap<PathBuf, u64> {
    let out = p.dir.join("out");
    let scan = damaris_fs::recover_dir(&out).unwrap();
    assert!(scan.is_clean(), "recovery had work to do: {scan:?}");
    let left: Vec<_> = std::fs::read_dir(out.join("node-0"))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(left.is_empty(), "temporary files left behind: {left:?}");
    scan.partial.into_iter().collect()
}

#[test]
fn clean_run_four_processes_persist_every_iteration() {
    let p = plan("clean");
    let report = damaris_core::proc::launch(&p).unwrap();

    assert_core_invariants(&report);
    assert_eq!(report.epe_respawns, 0);
    assert!(report.killed_ranks.is_empty());
    assert_eq!(report.total(|r| r.iterations_persisted), 3);
    assert_eq!(report.total(|r| r.partial_iterations), 0);
    assert_eq!(report.sdf_files.len(), 3);
    for (it, file) in report.sdf_files.iter().enumerate() {
        assert_sdf_contents(file, it as u32, &[0, 1, 2, 3], &[], &p);
    }
    // A full iteration carries no presence bitmap.
    assert!(partial_files(&p).is_empty());
    let _ = std::fs::remove_dir_all(&p.dir);
}

#[test]
fn killed_client_is_fenced_at_every_phase() {
    for phase in [
        ClientKillPhase::Alloc,
        ClientKillPhase::Memcpy,
        ClientKillPhase::PostCommit,
    ] {
        let mut p = plan(&format!("client-kill-{}", phase.as_str()));
        p.policy = OnClientFailure::Partial;
        p.client_kill = Some(ClientKillSpec {
            rank: 1,
            phase,
            iteration: 1,
        });
        let report = damaris_core::proc::launch(&p).unwrap();

        assert_core_invariants(&report);
        assert_eq!(report.killed_ranks, vec![1], "phase {phase:?}");
        assert!(
            report.total(|r| r.client_leases_expired) >= 1,
            "rank 1 was not fenced at phase {phase:?}: {report:?}"
        );
        // Partial policy: every iteration still persists; the ones the
        // victim missed carry a presence bitmap instead of its data.
        assert_eq!(report.total(|r| r.iterations_persisted), 3);
        assert_eq!(report.total(|r| r.partial_iterations), 2);
        assert_eq!(report.total(|r| r.crc_quarantined), 0);
        assert_eq!(report.sdf_files.len(), 3);
        assert_sdf_contents(&report.sdf_files[0], 0, &[0, 1, 2, 3], &[], &p);
        let partial = partial_files(&p);
        for it in [1u32, 2] {
            let file = &report.sdf_files[it as usize];
            // The one commit a post-commit victim got out before it died
            // is whole, posted data: it persists with its iteration,
            // as on the threaded node. Nothing else of the victim does.
            let committed = phase == ClientKillPhase::PostCommit && it == 1;
            assert_sdf_contents(file, it, &[0, 2, 3], if committed { &[] } else { &[1] }, &p);
            let names = SdfReader::open(file).unwrap().dataset_names();
            let of_victim = names.iter().filter(|n| n.contains("/rank-1/")).count();
            assert_eq!(of_victim, usize::from(committed), "{names:?}");
            let name = PathBuf::from(format!("node-0/iter-{it:06}.sdf"));
            assert_eq!(partial.get(&name), Some(&0b1101), "presence bitmap at {it}");
        }
        assert_eq!(partial.len(), 2);
        let _ = std::fs::remove_dir_all(&p.dir);
    }
}

/// What the EPE killed after taking `writes` writes leaves its successor:
/// it handled all but the last (no iteration had every rank's two writes
/// and end), and its successor replays every notice it took — those
/// writes, and the ends it took among them, at most one per two writes —
/// and reads none of them twice, so nothing is stale.
fn assert_replayed_what_was_taken(report: &LaunchReport, writes: u64) {
    let (dead, second) = (&report.epe_reports[0].node, &report.epe_reports[1].node);
    assert_eq!(dead.variables_received, writes - 1, "{report:?}");
    assert_eq!(dead.iterations_persisted, 0, "{report:?}");
    let replayed = second.events_replayed;
    assert!(
        (writes..=writes + writes / 2).contains(&replayed),
        "{report:?}"
    );
    assert_eq!(second.stale_events_rejected, 0, "{report:?}");
}

#[test]
fn killed_epe_respawns_replays_the_rings_and_finishes() {
    let mut p = plan("epe-kill");
    // Die right after taking the 5th write and before handling it —
    // mid-drain, with taken-but-unapplied notices to recover.
    p.epe_kill_after = Some(5);
    let report = damaris_core::proc::launch(&p).unwrap();

    assert_core_invariants(&report);
    assert_eq!(report.epe_respawns, 1);
    assert!(report.killed_ranks.is_empty());
    assert_eq!(report.epe_reports.len(), 2, "one report per incarnation");
    assert_replayed_what_was_taken(&report, 5);
    // No client died, so after recovery nothing may be partial and
    // every byte of every rank must come out intact.
    assert_eq!(report.total(|r| r.iterations_persisted), 3);
    assert_eq!(report.total(|r| r.partial_iterations), 0);
    assert_eq!(report.total(|r| r.crc_quarantined), 0);
    assert_eq!(report.sdf_files.len(), 3);
    for (it, file) in report.sdf_files.iter().enumerate() {
        assert_sdf_contents(file, it as u32, &[0, 1, 2, 3], &[], &p);
    }
    assert!(partial_files(&p).is_empty());
    let _ = std::fs::remove_dir_all(&p.dir);
}

/// The EPE dies while the ranks are blocked on a full data ring: the
/// buffer holds about one iteration, so every rank waits in `reserve` —
/// renewing its lease, watching the mapped heartbeat — across the kill,
/// and the respawned EPE must free the rings for them. The invariants are
/// the EPE-kill cell's.
#[test]
fn killed_epe_while_ranks_block_on_a_full_ring_loses_nothing() {
    let mut p = plan("epe-kill-full-ring");
    p.data_capacity = p.n_clients * p.variables as usize * p.payload_len;
    p.epe_kill_after = Some(3);
    let report = damaris_core::proc::launch(&p).unwrap();

    assert_core_invariants(&report);
    assert_eq!(report.epe_respawns, 1);
    assert!(report.killed_ranks.is_empty());
    assert_eq!(report.epe_reports.len(), 2, "one report per incarnation");
    assert_replayed_what_was_taken(&report, 3);
    assert_eq!(report.total(|r| r.iterations_persisted), 3);
    assert_eq!(report.total(|r| r.partial_iterations), 0);
    assert_eq!(report.total(|r| r.crc_quarantined), 0);
    assert_eq!(report.sdf_files.len(), 3);
    for (it, file) in report.sdf_files.iter().enumerate() {
        assert_sdf_contents(file, it as u32, &[0, 1, 2, 3], &[], &p);
    }
    assert!(partial_files(&p).is_empty());
    let _ = std::fs::remove_dir_all(&p.dir);
}

#[test]
fn drop_iteration_policy_discards_the_whole_iteration() {
    let mut p = plan("drop-iter");
    p.policy = OnClientFailure::DropIteration;
    p.client_kill = Some(ClientKillSpec {
        rank: 2,
        phase: ClientKillPhase::Alloc,
        iteration: 1,
    });
    let report = damaris_core::proc::launch(&p).unwrap();

    assert_core_invariants(&report);
    assert_eq!(report.killed_ranks, vec![2]);
    assert_eq!(report.total(|r| r.iterations_persisted), 1);
    assert_eq!(report.total(|r| r.iterations_degraded), 2);
    // Only the pre-kill iteration reached disk, and it is complete.
    assert_eq!(report.sdf_files.len(), 1);
    assert_sdf_contents(&report.sdf_files[0], 0, &[0, 1, 2, 3], &[], &p);
    assert!(partial_files(&p).is_empty());
    let _ = std::fs::remove_dir_all(&p.dir);
}

/// `wait` is the paper's contract and the threaded node's: no failure
/// detector. Nobody fences the dead rank, the iterations it never ended
/// stall, the survivors run to their end without it, and when everyone is
/// accounted for — the survivors finished, the victim's process gone and
/// its lease still — `Terminate` flushes what never completed,
/// unmarked.
#[test]
fn wait_policy_stalls_on_the_dead_rank_and_flushes_at_terminate() {
    let mut p = plan("wait");
    p.policy = OnClientFailure::Wait;
    p.client_kill = Some(ClientKillSpec {
        rank: 0,
        phase: ClientKillPhase::PostCommit,
        iteration: 1,
    });
    let report = damaris_core::proc::launch(&p).unwrap();

    // Zero leaked bytes holds for this kill phase: the victim's one
    // reservation was committed, so the flush releases it. (A reservation
    // it had died holding, no notice naming it, would stay leaked: the documented
    // cost of `wait`.)
    assert_core_invariants(&report);
    assert_eq!(report.killed_ranks, vec![0]);
    assert_eq!(report.total(|r| r.client_leases_expired), 0);
    assert_eq!(report.total(|r| r.iterations_persisted), 3);
    assert_eq!(report.total(|r| r.partial_iterations), 0);
    assert_eq!(report.total(|r| r.iterations_degraded), 0);
    assert_eq!(report.sdf_files.len(), 3);
    assert_sdf_contents(&report.sdf_files[0], 0, &[0, 1, 2, 3], &[], &p);
    // Iteration 1 holds the survivors' data and the one variable the
    // victim committed; iteration 2 the survivors' alone.
    assert_sdf_contents(&report.sdf_files[1], 1, &[1, 2, 3], &[], &p);
    let it1 = SdfReader::open(&report.sdf_files[1]).unwrap();
    assert_eq!(
        it1.read_bytes("/iter-1/rank-0/var0").unwrap(),
        payload_for(0, 1, 0, p.payload_len)
    );
    assert!(it1.read_bytes("/iter-1/rank-0/var1").is_err());
    assert_sdf_contents(&report.sdf_files[2], 2, &[1, 2, 3], &[0], &p);
    // No file claims partiality.
    assert!(partial_files(&p).is_empty());
    let _ = std::fs::remove_dir_all(&p.dir);
}

#[test]
fn orphaned_mappings_are_swept_and_counted_at_startup() {
    let p = plan("orphan-gc");

    // A leftover mapping from a "previous run" whose creator is dead:
    // a valid header stamped with a pid beyond Linux's pid_max.
    let stale = p.dir.join("damaris-node-stale.shm");
    {
        let node = damaris_shm::MappedNode::create(&stale, 2, 4096, 4).unwrap();
        drop(node);
        let mut bytes = std::fs::read(&stale).unwrap();
        bytes[40..48].copy_from_slice(&(i32::MAX as u64).to_ne_bytes());
        std::fs::write(&stale, bytes).unwrap();
    }
    // And something wearing the prefix that is not a mapping at all.
    let junk = p.dir.join("damaris-node-junk.shm");
    std::fs::write(&junk, vec![0xA5u8; 4096]).unwrap();

    let report = damaris_core::proc::launch(&p).unwrap();

    assert_core_invariants(&report);
    assert_eq!(report.total(|r| r.shm_orphans_removed), 1, "{report:?}");
    assert_eq!(report.total(|r| r.shm_orphans_quarantined), 1, "{report:?}");
    assert!(!stale.exists(), "dead-pid orphan was not unlinked");
    assert!(
        p.dir.join("damaris-node-junk.shm.quarantine").exists(),
        "unrecognizable file was not quarantined"
    );
    // The sweep never touches the run that is starting: output intact.
    assert_eq!(report.total(|r| r.iterations_persisted), 3);
    let _ = std::fs::remove_dir_all(&p.dir);
}

/// One parser for a kill phase: a misspelt one is refused on the command
/// line, and a malformed kill variable fails the rank that reads it,
/// naming the variable, instead of running without its kill.
#[test]
fn a_misspelt_kill_phase_is_refused_wherever_it_is_given() {
    let exe = env!("CARGO_BIN_EXE_cm1_proc");
    let dir = tmpdir("misspelt-phase");
    let launched = std::process::Command::new(exe)
        .arg("--dir")
        .arg(&dir)
        .args(["--kill-rank", "1", "--kill-phase", "memcopy"])
        .output()
        .unwrap();
    assert_eq!(launched.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&launched.stderr);
    assert!(stderr.starts_with("usage: cm1_proc"), "{stderr}");

    let rank = std::process::Command::new(exe)
        .env("DAMARIS_PROC_ROLE", "client")
        .env("DAMARIS_PROC_DIR", &dir)
        .env("DAMARIS_PROC_RANK", "0")
        .env("DAMARIS_KILL_RANK", "0")
        .env("DAMARIS_KILL_PHASE", "memcopy")
        .env("DAMARIS_KILL_ITER", "1")
        .output()
        .unwrap();
    assert_eq!(rank.status.code(), Some(1));
    let said = std::fs::read_to_string(dir.join("client-error-0.txt")).unwrap();
    assert_eq!(said, "DAMARIS_KILL_PHASE malformed");
    let _ = std::fs::remove_dir_all(&dir);
}
