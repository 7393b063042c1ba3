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
//! * `client` — one compute-core process ([`damaris_core::proc::run_client`]).
//!
//! ```text
//! cm1_proc --dir /tmp/cm1-run --clients 4
//! cm1_proc --dir /tmp/cm1-run --clients 4 --kill-rank 1 --kill-phase memcpy --kill-iter 1
//! cm1_proc --dir /tmp/cm1-run --clients 4 --kill-epe-after 3
//! ```

use damaris_core::proc::{
    launch, run_client, run_epe, ClientKillSpec, ClientOptions, EpeOptions, LaunchPlan,
};
use damaris_mpi::ClientKillPhase;
use std::path::PathBuf;
use std::process::ExitCode;

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
            "--iterations" => {
                val().and_then(|v| v.parse().map(|n| iterations = n).map_err(|_| ()))
            }
            "--policy" => val().and_then(|v| v.parse().map(|p| policy = Some(p)).map_err(|_| ())),
            "--kill-rank" => {
                val().and_then(|v| v.parse().map(|n| kill_rank = Some(n)).map_err(|_| ()))
            }
            "--kill-phase" => val().and_then(|v| {
                let phase = match v.as_str() {
                    "alloc" => ClientKillPhase::Alloc,
                    "memcpy" => ClientKillPhase::Memcpy,
                    "postcommit" => ClientKillPhase::PostCommit,
                    _ => return Err(()),
                };
                kill_phase = Some(phase);
                Ok(())
            }),
            "--kill-iter" => {
                val().and_then(|v| v.parse().map(|n| kill_iter = n).map_err(|_| ()))
            }
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

fn main() -> ExitCode {
    match std::env::var(damaris_core::proc::ENV_ROLE).as_deref() {
        Ok("epe") => {
            let opts = match EpeOptions::from_env() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("cm1_proc[epe]: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match run_epe(&opts) {
                Ok(_) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("cm1_proc[epe]: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Ok("client") => {
            let opts = match ClientOptions::from_env() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("cm1_proc[client]: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match run_client(&opts) {
                Ok(_) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("cm1_proc[client {}]: {e}", opts.rank);
                    // Stderr is inherited and interleaves with the
                    // launcher's; the file is what `launch` collects.
                    let path = opts.dir.join(format!("client-error-{}.txt", opts.rank));
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
