//! Multi-process CM1: the proxy model running the way the original
//! Damaris deployed — compute cores and the dedicated I/O core as
//! **separate OS processes** over a file-backed shared mapping, which
//! carries the notifications too: the processes share nothing else.
//!
//! One binary, three roles, selected by `DAMARIS_PROC_ROLE`:
//!
//! * unset — **launcher**: spawns the EPE and the clients as children of
//!   this binary, optionally delivers the `kill -9` matrix, and prints
//!   the run report.
//! * `epe` — the dedicated-core process ([`damaris_core::proc::run_epe`]).
//! * `client` — one compute-core process: a [`DamarisClient`] over the
//!   mapping ([`DamarisClient::over_mapping`]), driven through the public
//!   API as a threaded rank drives its own. Per iteration it writes `var0`
//!   zero-copy (`alloc`, fill, `commit`) and every other variable with
//!   `write`, then ends the iteration; at the end it waits, renewing its
//!   lease, for the EPE to mark the run done. A configured kill fires
//!   through the same calls: after `alloc` (`alloc`), halfway through
//!   filling the region (`memcpy`), or after its commit (`postcommit`).
//!
//! ```text
//! cm1_proc --dir /tmp/cm1-run --clients 4
//! cm1_proc --dir /tmp/cm1-run --clients 4 --kill-rank 1 --kill-phase memcpy --kill-iter 1
//! cm1_proc --dir /tmp/cm1-run --clients 4 --kill-epe-after 3
//! ```

use damaris_core::proc::{
    env_parse, launch, node_config, payload_for, run_epe, ClientKillSpec, EpeOptions, LaunchPlan,
    ENV_CAPACITY, ENV_DIR, ENV_ITERS, ENV_LEASE_MS, ENV_PAYLOAD, ENV_POLICY, ENV_RANK, ENV_VARS,
    MAPPING_FILE, OUT_DIR,
};
use damaris_core::DamarisClient;
use damaris_mpi::ClientKillPhase;
use damaris_shm::{kill_self_hard, MappedNode};
use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    eprintln!(
        "usage: cm1_proc --dir DIR [--clients N] [--iterations N] \
         [--policy wait|partial|drop-iteration] \
         [--kill-rank R --kill-phase alloc|memcpy|postcommit --kill-iter I] \
         [--kill-epe-after N]"
    );
    ExitCode::FAILURE
}

fn run_launcher() -> ExitCode {
    let mut dir: Option<PathBuf> = None;
    let mut n_clients = 4usize;
    let mut iterations = 3u32;
    let mut policy = None;
    let mut kill_rank: Option<u32> = None;
    let mut kill_phase: Option<ClientKillPhase> = None;
    let mut kill_iter = 0u32;
    let mut kill_epe_after: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = || args.next().ok_or(());
        let parsed = match arg.as_str() {
            "--dir" => val().map(|v| dir = Some(PathBuf::from(v))),
            "--clients" => val().and_then(|v| v.parse().map(|n| n_clients = n).map_err(|_| ())),
            "--iterations" => val().and_then(|v| v.parse().map(|n| iterations = n).map_err(|_| ())),
            "--policy" => val().and_then(|v| v.parse().map(|p| policy = Some(p)).map_err(|_| ())),
            "--kill-rank" => {
                val().and_then(|v| v.parse().map(|n| kill_rank = Some(n)).map_err(|_| ()))
            }
            "--kill-phase" => {
                val().and_then(|v| v.parse().map(|p| kill_phase = Some(p)).map_err(|_| ()))
            }
            "--kill-iter" => val().and_then(|v| v.parse().map(|n| kill_iter = n).map_err(|_| ())),
            "--kill-epe-after" => {
                val().and_then(|v| v.parse().map(|n| kill_epe_after = Some(n)).map_err(|_| ()))
            }
            _ => Err(()),
        };
        if parsed.is_err() {
            return usage();
        }
    }
    let Some(dir) = dir else {
        return usage();
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cm1_proc: cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut plan = LaunchPlan::new(exe, dir, n_clients);
    plan.iterations = iterations;
    // The plan's own default is `partial`: one dead rank cannot stall output.
    plan.policy = policy.unwrap_or(plan.policy);
    plan.client_kill = match (kill_rank, kill_phase) {
        (Some(rank), Some(phase)) => Some(ClientKillSpec {
            rank,
            phase,
            iteration: kill_iter,
        }),
        (None, None) => None,
        _ => return usage(),
    };
    plan.epe_kill_after = kill_epe_after;

    match launch(&plan) {
        Ok(report) => {
            println!("epe_ok={}", report.epe_ok);
            println!("epe_respawns={}", report.epe_respawns);
            println!("leaked_bytes={}", report.leaked_bytes);
            println!(
                "killed_ranks={:?} failed_ranks={:?}",
                report.killed_ranks, report.failed_ranks
            );
            println!(
                "iterations_persisted={} partial_iterations={} iterations_degraded={}",
                report.total(|r| r.iterations_persisted),
                report.total(|r| r.partial_iterations),
                report.total(|r| r.iterations_degraded),
            );
            println!("sdf_files={}", report.sdf_files.len());
            if report.epe_ok && report.leaked_bytes == 0 && report.failed_ranks.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("cm1_proc: launch failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One compute-core process, rank `rank` of the run in `dir`.
fn run_rank(dir: &Path, rank: u32) -> Result<(), Box<dyn Error>> {
    let kill = ClientKillSpec::from_env()?.filter(|k| k.rank == rank);
    let (iterations, variables): (u32, u32) = (env_parse(ENV_ITERS)?, env_parse(ENV_VARS)?);
    let (capacity, policy) = (env_parse(ENV_CAPACITY)?, env_parse(ENV_POLICY)?);
    let lease_timeout = Duration::from_millis(env_parse(ENV_LEASE_MS)?);
    let payload_len: usize = env_parse(ENV_PAYLOAD)?;
    let config = node_config(variables, payload_len, capacity, policy, lease_timeout);

    // The EPE creates the mapping; wait for a valid header to appear.
    let attach_by = Instant::now() + Duration::from_secs(20);
    let node = loop {
        match MappedNode::open(&dir.join(MAPPING_FILE)) {
            Ok(node) => break node,
            Err(_) if Instant::now() < attach_by => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => return Err(e.into()),
        }
    };
    let client = DamarisClient::over_mapping(config, node.clone(), rank, dir.join(OUT_DIR))?;

    for it in 0..iterations {
        // A kill strikes this iteration's `var0`.
        let dies = kill.filter(|k| k.iteration == it).map(|k| k.phase);
        for var in 0..variables {
            let name = format!("var{var}");
            let payload = payload_for(rank, it, var, payload_len);
            if var > 0 {
                client.write(&name, it, &payload)?;
                continue;
            }
            let mut region = client.alloc(&name, it)?;
            if dies == Some(ClientKillPhase::Alloc) {
                kill_self_hard();
            }
            let (first, second) = payload.split_at(payload_len / 2);
            region.as_mut_slice()[..first.len()].copy_from_slice(first);
            if dies == Some(ClientKillPhase::Memcpy) {
                kill_self_hard();
            }
            region.as_mut_slice()[first.len()..].copy_from_slice(second);
            region.commit()?;
            if dies == Some(ClientKillPhase::PostCommit) {
                kill_self_hard();
            }
        }
        client.end_iteration(it)?;
    }

    // The one wait: for the EPE that finishes the run — after however
    // many respawns and replays — to say so. Until then this rank
    // is alive, not done.
    let done_by = Instant::now() + Duration::from_secs(60);
    while !node.done() {
        client.renew_lease()?;
        if Instant::now() > done_by {
            return Err("the dedicated core never finished the run".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

fn main() -> ExitCode {
    match std::env::var(damaris_core::proc::ENV_ROLE).as_deref() {
        Ok("epe") => match EpeOptions::from_env().and_then(|opts| run_epe(&opts)) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("cm1_proc[epe]: {e}");
                ExitCode::FAILURE
            }
        },
        Ok("client") => {
            let (dir, rank) = match (env_parse::<PathBuf>(ENV_DIR), env_parse::<u32>(ENV_RANK)) {
                (Ok(dir), Ok(rank)) => (dir, rank),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("cm1_proc[client]: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match run_rank(&dir, rank) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("cm1_proc[client {rank}]: {e}");
                    // Stderr is inherited and interleaves with the
                    // launcher's; the file is what `launch` collects.
                    let path = dir.join(format!("client-error-{rank}.txt"));
                    let _ = std::fs::write(path, e.to_string());
                    ExitCode::FAILURE
                }
            }
        }
        Ok(other) => {
            eprintln!("cm1_proc: unknown role {other:?}");
            ExitCode::FAILURE
        }
        Err(_) => run_launcher(),
    }
}
