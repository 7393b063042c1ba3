//! The cross-process Damaris node: real OS processes over a file-backed
//! shared mapping.
//!
//! The threaded node ([`crate::NodeRuntime`]) runs the paper's dedicated
//! core as a thread; this module runs **the same core** the way the
//! original Damaris did — as a separate process sharing POSIX shared
//! memory with the compute processes. There is one dedicated core
//! ([`crate::server`]) and two event sources: the in-process queue, and
//! the pump in [`epe`] over the mapping's per-client notice rings. The
//! processes share the mapping and nothing else: no socket, no pipe.
//!
//! * [`run_epe`] — the dedicated-core process: creates (or, respawned,
//!   re-adopts) the `/dev/shm` mapping, sweeps orphans, opens the
//!   journal's file, and feeds the notices its clients post to a
//!   [`crate::server`] core built over the mapping.
//! * [`run_client`] — a compute-core process: maps the file, registers
//!   its pid, reserves ring segments, memcpys, and posts a notice per
//!   write and per iteration into its own ring — which outlives an EPE
//!   death, so a client has nothing to say again to the next incarnation.
//! * [`launcher`] — the supervisor: spawns both as children of one
//!   launcher binary, delivers `kill -9` chaos at configured phases,
//!   respawns a dead EPE with a bumped epoch, and audits the mapping for
//!   leaked bytes after the run.
//!
//! The kill matrix is configured through environment variables so the
//! *victim process itself* raises `SIGKILL` at the exact protocol phase
//! under test (after reserve, mid-memcpy, after commit) — a real
//! uncatchable kill, placed deterministically. `DAMARIS_KILL_RANK`,
//! `DAMARIS_KILL_PHASE` (`alloc|memcpy|postcommit`), `DAMARIS_KILL_ITER`
//! select the client kill; `DAMARIS_KILL_EPE_AFTER` kills the EPE after
//! draining that many commits (mid-drain).

pub mod client;
pub mod epe;
pub mod launcher;

pub use client::{run_client, ClientOptions};
pub use epe::{run_epe, EpeOptions, EpeReport};
pub use launcher::{launch, LaunchPlan, LaunchReport};

use crate::config::{Config, OnClientFailure};
use damaris_mpi::ClientKillPhase;
use std::io;
use std::time::Duration;

/// Environment variable selecting a process role when the launcher
/// re-execs itself (`epe` or `client`).
pub const ENV_ROLE: &str = "DAMARIS_PROC_ROLE";
/// Client rank (role `client`).
pub const ENV_RANK: &str = "DAMARIS_PROC_RANK";
/// Rank to `kill -9` (client kill matrix).
pub const ENV_KILL_RANK: &str = "DAMARIS_KILL_RANK";
/// Phase at which the victim rank kills itself.
pub const ENV_KILL_PHASE: &str = "DAMARIS_KILL_PHASE";
/// Iteration at which the victim rank kills itself.
pub const ENV_KILL_ITER: &str = "DAMARIS_KILL_ITER";
/// Commits the EPE drains before killing itself mid-drain.
pub const ENV_KILL_EPE_AFTER: &str = "DAMARIS_KILL_EPE_AFTER";
/// Run directory shared by every process of a supervised run.
pub const ENV_DIR: &str = "DAMARIS_PROC_DIR";
/// Client process count.
pub const ENV_CLIENTS: &str = "DAMARIS_PROC_CLIENTS";
/// Iterations to run.
pub const ENV_ITERS: &str = "DAMARIS_PROC_ITERS";
/// Variables per iteration per client.
pub const ENV_VARS: &str = "DAMARIS_PROC_VARS";
/// Payload bytes per variable.
pub const ENV_PAYLOAD: &str = "DAMARIS_PROC_PAYLOAD";
/// Mapping data-window bytes.
pub const ENV_CAPACITY: &str = "DAMARIS_PROC_CAPACITY";
/// Client-failure policy (`wait|partial|drop-iteration`).
pub const ENV_POLICY: &str = "DAMARIS_PROC_POLICY";
/// Lease staleness bound in milliseconds.
pub const ENV_LEASE_MS: &str = "DAMARIS_PROC_LEASE_MS";
/// EPE incarnation number (0 = first boot, >0 = respawn).
pub const ENV_EPOCH: &str = "DAMARIS_PROC_EPOCH";

fn env_parse<T: std::str::FromStr>(key: &str) -> io::Result<T> {
    std::env::var(key)
        .map_err(|_| io::Error::other(format!("{key} not set")))?
        .parse()
        .map_err(|_| io::Error::other(format!("{key} malformed")))
}

/// A client-side hard-kill instruction: `rank` raises `SIGKILL` on
/// itself at `phase` of `iteration`. Parsed from the environment the
/// launcher set up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientKillSpec {
    /// The victim rank.
    pub rank: u32,
    /// Protocol phase at which to die.
    pub phase: ClientKillPhase,
    /// Iteration at which to die.
    pub iteration: u32,
}

impl ClientKillSpec {
    /// Reads the kill spec from the environment; `None` when no kill is
    /// configured (or the spec is malformed — chaos config errors must
    /// not take down a production client).
    pub fn from_env() -> Option<ClientKillSpec> {
        let rank: u32 = std::env::var(ENV_KILL_RANK).ok()?.parse().ok()?;
        let phase = match std::env::var(ENV_KILL_PHASE).ok()?.as_str() {
            "alloc" => ClientKillPhase::Alloc,
            "memcpy" => ClientKillPhase::Memcpy,
            "postcommit" => ClientKillPhase::PostCommit,
            _ => return None,
        };
        let iteration: u32 = std::env::var(ENV_KILL_ITER).ok()?.parse().ok()?;
        Some(ClientKillSpec {
            rank,
            phase,
            iteration,
        })
    }

    /// True when this process (`rank`) should die at `phase` of
    /// `iteration`.
    pub fn fires(&self, rank: u32, iteration: u32, phase: ClientKillPhase) -> bool {
        self.rank == rank && self.iteration == iteration && self.phase == phase
    }

    /// The `DAMARIS_KILL_PHASE` value for `phase` (launcher side).
    pub fn phase_str(phase: ClientKillPhase) -> &'static str {
        match phase {
            ClientKillPhase::Alloc => "alloc",
            ClientKillPhase::Memcpy => "memcpy",
            ClientKillPhase::PostCommit => "postcommit",
        }
    }
}

/// Reads the EPE mid-drain kill counter from the environment.
pub fn epe_kill_after_from_env() -> Option<u64> {
    std::env::var(ENV_KILL_EPE_AFTER).ok()?.parse().ok()
}

/// Name of the node's mapping file inside the run directory. The GC
/// sweep matches on the `damaris-node` prefix.
pub const MAPPING_FILE: &str = "damaris-node.shm";
/// Name of the event journal's file inside the run directory.
pub const JOURNAL_FILE: &str = "epe.journal";
/// Subdirectory the node's output (`MANIFEST`, `node-0/iter-*.sdf`)
/// lands in.
pub const OUT_DIR: &str = "out";

/// The configuration a process node of this shape runs under — what
/// [`run_epe`] builds its dedicated core from, and what a threaded node
/// must be given to produce the same files: `variables` byte arrays
/// `var0..` of `payload_len` each, persisted at every end of iteration.
pub fn node_config(
    variables: u32,
    payload_len: usize,
    data_capacity: usize,
    policy: OnClientFailure,
    lease_timeout: Duration,
) -> Config {
    let declared: String = (0..variables)
        .map(|v| format!(r#"<variable name="var{v}" layout="payload"/>"#))
        .collect();
    let xml = format!(
        r#"<damaris>
             <buffer size="{data_capacity}" allocator="partition"/>
             <layout name="payload" type="byte" dimensions="{payload_len}"/>
             {declared}
             <resilience on_client_failure="{}" client_lease_timeout_ms="{}"/>
           </damaris>"#,
        policy.as_str(),
        lease_timeout.as_millis().max(1),
    );
    // invariant: every attribute above is generated from a typed value.
    Config::from_xml(&xml).expect("generated configuration parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_spec_fires_only_on_exact_match() {
        let spec = ClientKillSpec {
            rank: 1,
            phase: ClientKillPhase::Memcpy,
            iteration: 2,
        };
        assert!(spec.fires(1, 2, ClientKillPhase::Memcpy));
        assert!(!spec.fires(0, 2, ClientKillPhase::Memcpy));
        assert!(!spec.fires(1, 1, ClientKillPhase::Memcpy));
        assert!(!spec.fires(1, 2, ClientKillPhase::Alloc));
    }

    #[test]
    fn phase_strings_cover_every_phase() {
        for (phase, s) in [
            (ClientKillPhase::Alloc, "alloc"),
            (ClientKillPhase::Memcpy, "memcpy"),
            (ClientKillPhase::PostCommit, "postcommit"),
        ] {
            assert_eq!(ClientKillSpec::phase_str(phase), s);
        }
    }
}
