//! The cross-process Damaris node: real OS processes over a file-backed
//! shared mapping.
//!
//! The threaded node ([`crate::NodeRuntime`]) runs the paper's dedicated
//! core as a thread; this module runs **the same core**, over the same
//! layout, the way the original Damaris did — as a separate process
//! sharing POSIX shared memory with the compute processes, and nothing
//! else: no socket, no pipe.
//!
//! * [`run_epe`] — the dedicated-core process: creates (or, respawned,
//!   re-adopts) the `/dev/shm` mapping, sweeps orphans, opens the
//!   journal's file, and runs a [`crate::server`] core over the mapping.
//! * A compute-core process holds the one client API,
//!   [`crate::DamarisClient::over_mapping`], whose notices sit in its own
//!   ring — which outlives an EPE death, so nothing is said again to the
//!   next incarnation. The rank's program is the embedder's (`cm1_proc`'s
//!   `client` role is one).
//! * [`launcher`] — the supervisor: spawns both as children of one
//!   launcher binary, delivers `kill -9` chaos at configured phases,
//!   respawns a dead EPE with a bumped epoch, and audits the mapping for
//!   leaked bytes after the run.
//!
//! The kill matrix is configured through environment variables so the
//! *victim process itself* raises `SIGKILL` at the exact protocol phase
//! under test (after `alloc`, halfway through filling the region, after a
//! commit) — a real uncatchable kill, placed deterministically.
//! `DAMARIS_KILL_RANK`, `DAMARIS_KILL_PHASE` (`alloc|memcpy|postcommit`),
//! `DAMARIS_KILL_ITER` select the client kill; `DAMARIS_KILL_EPE_AFTER`
//! kills the EPE after draining that many commits (mid-drain). A kill
//! variable that is set but malformed fails the process that reads it.

pub mod epe;
pub mod launcher;

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

/// Reads `key` from the environment a launcher set up: an error naming
/// the variable if it is unset or does not parse.
pub fn env_parse<T: std::str::FromStr>(key: &str) -> io::Result<T> {
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
    /// Reads the kill spec from the environment; `None` when no kill
    /// variable is set. Once one is, a missing or malformed one is an error
    /// naming it: a chaos run without its kill would pass for a clean one.
    pub fn from_env() -> io::Result<Option<ClientKillSpec>> {
        let keys = [ENV_KILL_RANK, ENV_KILL_PHASE, ENV_KILL_ITER];
        if keys.iter().all(|key| std::env::var_os(key).is_none()) {
            return Ok(None);
        }
        Ok(Some(ClientKillSpec {
            rank: env_parse(ENV_KILL_RANK)?,
            phase: env_parse(ENV_KILL_PHASE)?,
            iteration: env_parse(ENV_KILL_ITER)?,
        }))
    }
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
/// `var0..` of `payload_len` each, persisted at every end of iteration;
/// then `swarm`, a byte array of dynamic shape, and the user event
/// `snapshot`, bound to `log`.
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
             <layout name="shape" type="byte" dimensions="?"/>
             {declared}
             <variable name="swarm" layout="shape"/>
             <event name="snapshot" action="log"/>
             <resilience on_client_failure="{}" client_lease_timeout_ms="{}"/>
           </damaris>"#,
        policy.as_str(),
        lease_timeout.as_millis().max(1),
    );
    // invariant: every attribute above is generated from a typed value.
    Config::from_xml(&xml).expect("generated configuration parses")
}

/// The bytes `rank` writes to variable `variable` at `iteration` in a run
/// of this shape — deterministic, so the tests reading a node's output
/// check it byte for byte without a side channel.
pub fn payload_for(rank: u32, iteration: u32, variable: u32, len: usize) -> Vec<u8> {
    let seed = rank
        .wrapping_mul(31)
        .wrapping_add(iteration.wrapping_mul(7))
        .wrapping_add(variable.wrapping_mul(131)) as u8;
    (0..len).map(|i| seed.wrapping_add(i as u8)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_deterministic_and_distinct() {
        let a = payload_for(0, 1, 2, 64);
        let b = payload_for(0, 1, 2, 64);
        assert_eq!(a, b);
        assert_ne!(a, payload_for(1, 1, 2, 64));
        assert_ne!(a, payload_for(0, 2, 2, 64));
        assert_ne!(a, payload_for(0, 1, 3, 64));
    }
}
