//! The process supervisor: spawns the EPE and the clients as children of
//! one launcher binary, delivers the kill matrix, respawns a dead EPE,
//! and audits the mapping for leaked bytes after the run.
//!
//! The launcher re-execs *its own binary* with `DAMARIS_PROC_ROLE` set —
//! the same single-executable trick MPI launchers use — so one artifact
//! carries all three roles. Chaos is delivered by environment: the
//! victim process reads its kill spec and raises `SIGKILL` on itself at
//! the exact protocol phase under test (see [`super::ClientKillSpec`]),
//! which is a real, uncatchable `kill -9` placed deterministically.
//!
//! When the EPE exits on a signal, the supervisor respawns it with a
//! bumped epoch (and without the kill environment, so one configured
//! kill fires once). The respawned process re-opens the mapping, replays
//! what the dead one took from the clients' notice rings and did not
//! apply, drains them from where it stopped, and finishes the run. The clients never notice.
//!
//! After every child has exited the launcher opens the mapping one last
//! time and sums the per-client rings: **zero bytes still reserved** is
//! the leak-freedom acceptance criterion the kill matrix asserts.

use super::epe::EpeReport;
use super::ClientKillSpec;
use crate::config::{Config, OnClientFailure};
use crate::node::NodeReport;
use damaris_shm::MappedNode;
use std::io;
use std::os::unix::process::ExitStatusExt;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

/// Everything a supervised run needs.
#[derive(Debug, Clone)]
pub struct LaunchPlan {
    /// The role-dispatching binary to re-exec (usually
    /// `std::env::current_exe()`).
    pub exe: PathBuf,
    /// Run directory (mapping, reports, `out/`).
    pub dir: PathBuf,
    /// Client process count (total processes = this + 1 EPE).
    pub n_clients: usize,
    /// Iterations to run.
    pub iterations: u32,
    /// Variables per iteration per client.
    pub variables: u32,
    /// Payload bytes per variable.
    pub payload_len: usize,
    /// Mapping data-window bytes.
    pub data_capacity: usize,
    /// Client-failure policy the EPE applies.
    pub policy: OnClientFailure,
    /// Lease staleness bound.
    pub lease_timeout: Duration,
    /// Chaos: client kill spec (rank/phase/iteration).
    pub client_kill: Option<ClientKillSpec>,
    /// Chaos: kill the first EPE incarnation after N drained commits.
    pub epe_kill_after: Option<u64>,
    /// EPE respawn budget.
    pub max_epe_respawns: u32,
    /// Whole-run watchdog; on expiry every child is killed.
    pub timeout: Duration,
}

impl LaunchPlan {
    /// A plan with test-friendly defaults for `n_clients` over `exe`.
    pub fn new(exe: PathBuf, dir: PathBuf, n_clients: usize) -> LaunchPlan {
        LaunchPlan {
            exe,
            dir,
            n_clients,
            iterations: 3,
            variables: 2,
            payload_len: 512,
            data_capacity: 1 << 16,
            policy: OnClientFailure::Partial,
            lease_timeout: Duration::from_millis(800),
            client_kill: None,
            epe_kill_after: None,
            max_epe_respawns: 1,
            timeout: Duration::from_secs(90),
        }
    }

    /// The configuration the run's dedicated core is built from (see
    /// [`super::node_config`]).
    pub fn config(&self) -> Config {
        super::node_config(
            self.variables,
            self.payload_len,
            self.data_capacity,
            self.policy,
            self.lease_timeout,
        )
    }
}

/// What the supervised run produced.
#[derive(Debug, Clone, Default)]
pub struct LaunchReport {
    /// EPE incarnations started beyond the first.
    pub epe_respawns: u32,
    /// Ring bytes still reserved in the mapping after every child exited
    /// — the kill matrix asserts this is 0.
    pub leaked_bytes: u64,
    /// Ranks that exited on a signal (the kill matrix victims).
    pub killed_ranks: Vec<u32>,
    /// Ranks that exited nonzero without a signal (real failures).
    pub failed_ranks: Vec<u32>,
    /// What each failed rank said went wrong (`client-error-<rank>.txt`
    /// in the run directory), as `(rank, message)`.
    pub client_errors: Vec<(u32, String)>,
    /// Whether the final EPE incarnation exited cleanly.
    pub epe_ok: bool,
    /// Per-incarnation EPE reports, in epoch order.
    pub epe_reports: Vec<EpeReport>,
    /// Published SDF files under `out/node-0/`, sorted.
    pub sdf_files: Vec<PathBuf>,
}

impl LaunchReport {
    /// Sum of a counter across incarnations.
    pub fn total(&self, f: impl Fn(&NodeReport) -> u64) -> u64 {
        self.epe_reports.iter().map(|r| f(&r.node)).sum()
    }
}

fn base_cmd(plan: &LaunchPlan, role: &str) -> Command {
    let mut cmd = Command::new(&plan.exe);
    cmd.env(super::ENV_ROLE, role)
        .env(super::ENV_DIR, &plan.dir)
        .env(super::ENV_CLIENTS, plan.n_clients.to_string())
        .env(super::ENV_ITERS, plan.iterations.to_string())
        .env(super::ENV_VARS, plan.variables.to_string())
        .env(super::ENV_PAYLOAD, plan.payload_len.to_string())
        .env(super::ENV_CAPACITY, plan.data_capacity.to_string())
        .env(super::ENV_POLICY, plan.policy.as_str())
        .env(
            super::ENV_LEASE_MS,
            plan.lease_timeout.as_millis().to_string(),
        );
    cmd
}

fn spawn_epe(plan: &LaunchPlan, epoch: u32) -> io::Result<Child> {
    let mut cmd = base_cmd(plan, "epe");
    cmd.env(super::ENV_EPOCH, epoch.to_string());
    // The mid-drain kill arms only the first incarnation: one configured
    // kill fires once, then the respawn must finish the run.
    if epoch == 0 {
        if let Some(n) = plan.epe_kill_after {
            cmd.env(super::ENV_KILL_EPE_AFTER, n.to_string());
        }
    }
    cmd.spawn()
}

fn spawn_client(plan: &LaunchPlan, rank: u32) -> io::Result<Child> {
    let mut cmd = base_cmd(plan, "client");
    cmd.env(super::ENV_RANK, rank.to_string());
    if let Some(kill) = plan.client_kill {
        cmd.env(super::ENV_KILL_RANK, kill.rank.to_string())
            .env(super::ENV_KILL_PHASE, kill.phase.as_str())
            .env(super::ENV_KILL_ITER, kill.iteration.to_string());
    }
    cmd.spawn()
}

/// Supervises one full run: spawn, chaos, respawn, audit.
pub fn launch(plan: &LaunchPlan) -> io::Result<LaunchReport> {
    std::fs::create_dir_all(&plan.dir)?;
    let mut report = LaunchReport::default();

    let mut epoch = 0u32;
    let mut epe = Some(spawn_epe(plan, epoch)?);
    let mut clients: Vec<(u32, Option<Child>)> = (0..plan.n_clients as u32)
        .map(|rank| spawn_client(plan, rank).map(|c| (rank, Some(c))))
        .collect::<io::Result<_>>()?;

    let start = Instant::now();
    let outcome = loop {
        if start.elapsed() > plan.timeout {
            break Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "supervised run exceeded its watchdog",
            ));
        }

        if let Some(child) = epe.as_mut() {
            if let Some(status) = child.try_wait()? {
                if status.success() {
                    report.epe_ok = true;
                    epe = None;
                } else if status.signal().is_some() && report.epe_respawns < plan.max_epe_respawns {
                    // The dedicated core died hard. Its memory is gone;
                    // the mapping, its rings and leases are not. Respawn.
                    report.epe_respawns += 1;
                    epoch += 1;
                    epe = Some(spawn_epe(plan, epoch)?);
                } else {
                    report.epe_ok = false;
                    epe = None;
                }
            }
        }

        for (rank, slot) in clients.iter_mut() {
            if let Some(child) = slot.as_mut() {
                if let Some(status) = child.try_wait()? {
                    if status.signal().is_some() {
                        report.killed_ranks.push(*rank);
                    } else if !status.success() {
                        report.failed_ranks.push(*rank);
                    }
                    *slot = None;
                }
            }
        }

        if epe.is_none() && clients.iter().all(|(_, c)| c.is_none()) {
            break Ok(());
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    if outcome.is_err() {
        // Watchdog: tear everything down before reporting.
        if let Some(mut child) = epe.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        for (_, slot) in clients.iter_mut() {
            if let Some(mut child) = slot.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }

    // Leak audit: with every process dead, whatever the rings still hold
    // was leaked. The mapping outlives all of its users by design.
    let mapping_path = plan.dir.join(super::MAPPING_FILE);
    if let Ok(node) = MappedNode::open(&mapping_path) {
        report.leaked_bytes = node.total_in_use();
    }

    for e in 0..=epoch {
        let path = plan.dir.join(format!("epe-report-{e}.txt"));
        if let Ok(r) = EpeReport::read_from(&path) {
            report.epe_reports.push(r);
        }
    }

    for &rank in &report.failed_ranks {
        let path = plan.dir.join(format!("client-error-{rank}.txt"));
        let reason = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| format!("no {}: {e}", path.display()));
        report.client_errors.push((rank, reason));
    }

    let out = plan.dir.join(super::OUT_DIR).join("node-0");
    if let Ok(entries) = std::fs::read_dir(&out) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "sdf") {
                report.sdf_files.push(path);
            }
        }
        report.sdf_files.sort();
    }

    // The mapping is a per-run artifact; the reports and SDF
    // output stay for inspection.
    let _ = std::fs::remove_file(&mapping_path);

    outcome.map(|()| report)
}
