//! A compute-core process: the paper's client API run against the
//! file-backed mapping and the UDS control plane.
//!
//! Per iteration the client reserves a ring segment per variable (the
//! lock-free partitioned scheme — a handful of atomics on mapped words),
//! memcpys its data, stamps a CRC, sends `Commit` (shm coordinates only:
//! the data plane never touches the socket), fences the iteration with
//! `EndIteration` — and goes on to the next one. It never waits for the
//! dedicated core's disk: its only backpressure is a full ring, as for
//! [`crate::DamarisClient`]. The one wait is at the end, after its last
//! `EndIteration`, for the acknowledgements still outstanding.
//!
//! ## Surviving the EPE
//!
//! The EPE can be `kill -9`'d at any moment. The client notices through
//! two signals — the socket erroring and the mapped heartbeat's
//! `beat_at_ns` going stale on the machine-wide monotonic clock — then
//! reconnects to the respawned incarnation (same socket path, bumped
//! epoch in the `Welcome`), renewing its lease while it tries, and
//! re-sends every frame not yet acknowledged, oldest first: an `Ack
//! { iteration }` says that iteration is durable and its memory released,
//! and is what prunes the list. The dedicated core rejects what its
//! journal already holds, so re-sends are safe.
//!
//! ## Dying itself
//!
//! The kill matrix runs *in* the victim: [`super::ClientKillSpec`] makes
//! this process raise `SIGKILL` on itself right after a reserve
//! (`alloc`), halfway through the memcpy (`memcpy`), or right after the
//! commit frame is written (`postcommit`) — a real uncatchable death at
//! a deterministic protocol point, whose cleanup burden falls entirely
//! on the dedicated core.

use super::ClientKillSpec;
use damaris_mpi::{connect_client, ClientKillPhase, CtrlMsg, FaultPlan, UdsConn};
use damaris_shm::sync::Ordering;
use damaris_shm::{monotonic_now_ns, AllocError, MappedNode};
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Everything one client process needs to run.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Run directory (mapping + socket live here).
    pub dir: PathBuf,
    /// This client's rank.
    pub rank: u32,
    /// Total client count (the EPE's control-plane rank is `n_clients`).
    pub n_clients: usize,
    /// Iterations to run.
    pub iterations: u32,
    /// Variables written per iteration.
    pub variables: u32,
    /// Payload bytes per variable.
    pub payload_len: usize,
    /// Lease/heartbeat staleness bound (same value the EPE sweeps with).
    pub lease_timeout: Duration,
    /// Chaos: die at a configured phase (only fires on the matching rank).
    pub kill: Option<ClientKillSpec>,
}

impl ClientOptions {
    /// Rebuilds the options a launcher exported into the environment.
    pub fn from_env() -> io::Result<ClientOptions> {
        let dir = std::env::var_os(super::ENV_DIR)
            .ok_or_else(|| io::Error::other("DAMARIS_PROC_DIR not set"))?;
        Ok(ClientOptions {
            dir: PathBuf::from(dir),
            rank: super::env_parse(super::ENV_RANK)?,
            n_clients: super::env_parse(super::ENV_CLIENTS)?,
            iterations: super::env_parse(super::ENV_ITERS)?,
            variables: super::env_parse(super::ENV_VARS)?,
            payload_len: super::env_parse(super::ENV_PAYLOAD)?,
            lease_timeout: Duration::from_millis(super::env_parse(super::ENV_LEASE_MS)?),
            kill: ClientKillSpec::from_env(),
        })
    }
}

/// What the client process accomplished (written to its exit status and
/// useful in in-process tests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientReport {
    /// Iterations acknowledged by the EPE.
    pub iterations_acked: u64,
    /// Commits re-sent after an EPE respawn.
    pub commits_resent: u64,
    /// EPE epochs this client talked to (≥2 means it survived a respawn).
    pub epochs_seen: Vec<u32>,
}

/// Deterministic payload so the EPE side (and tests reading the SDF
/// output) can verify bytes end-to-end without a side channel.
pub fn payload_for(rank: u32, iteration: u32, variable: u32, len: usize) -> Vec<u8> {
    let seed = rank
        .wrapping_mul(31)
        .wrapping_add(iteration.wrapping_mul(7))
        .wrapping_add(variable.wrapping_mul(131)) as u8;
    (0..len).map(|i| seed.wrapping_add(i as u8)).collect()
}

/// The client's end of the control plane, with what it would have to
/// say again to a respawned EPE.
struct Ctl<'a> {
    opts: &'a ClientOptions,
    node: &'a MappedNode,
    conn: UdsConn,
    epoch: u32,
    /// Every `Commit` and `EndIteration` of an iteration not yet
    /// acknowledged, oldest first.
    unacked: Vec<CtrlMsg>,
    /// The EPE said `Shutdown`: nothing further will be acknowledged.
    shut_down: bool,
    report: ClientReport,
}

fn iteration_of(msg: &CtrlMsg) -> Option<u32> {
    match msg {
        CtrlMsg::Commit { iteration, .. } | CtrlMsg::EndIteration { iteration, .. } => {
            Some(*iteration)
        }
        _ => None,
    }
}

/// Joins the control plane, for up to 20 s: generous, because after an
/// EPE death the supervisor has to notice and respawn, and the new EPE
/// replays its journal first. A rank waiting for the core is not a dead
/// rank, so the lease is renewed between attempts.
fn connect(opts: &ClientOptions, node: &MappedNode) -> io::Result<(UdsConn, u32)> {
    let start = Instant::now();
    loop {
        renew(opts, node)?;
        let joined = connect_client(
            &opts.dir.join(super::SOCKET_FILE),
            opts.rank as usize,
            damaris_shm::this_pid(),
            opts.n_clients,
            &FaultPlan::new(),
            Duration::from_millis(100),
        );
        match joined {
            Ok((conn, epoch)) => {
                // Acks are picked up in passing, never waited for.
                conn.set_nonblocking(true)?;
                return Ok((conn, epoch));
            }
            Err(e) if start.elapsed() > Duration::from_secs(20) => return Err(e),
            Err(_) => {}
        }
    }
}

/// True when the EPE's heartbeat stamp is stale on the machine-wide
/// clock — the cross-process liveness check (no process-private anchor).
fn heartbeat_stale(node: &MappedNode, timeout: Duration) -> bool {
    // Acquire pairs with the EPE's Release stamp after each beat.
    let beat_at = node.beat_at_ns().load(Ordering::Acquire);
    monotonic_now_ns().saturating_sub(beat_at) > timeout.as_nanos() as u64
}

impl Ctl<'_> {
    /// Sends `msg` and keeps it for re-sending until its iteration is
    /// acknowledged. A send that fails is made good by the reconnect,
    /// which says everything kept — `msg` included — again.
    fn send(&mut self, msg: CtrlMsg) -> io::Result<()> {
        let sent = self.conn.send(&msg);
        self.unacked.push(msg);
        match sent {
            Ok(()) => Ok(()),
            Err(_) => self.reconnect(),
        }
    }

    /// Reconnects after an EPE death and re-sends everything
    /// unacknowledged, in order (the journal dedups on the other side).
    fn reconnect(&mut self) -> io::Result<()> {
        let (mut conn, epoch) = connect(self.opts, self.node)?;
        if epoch != self.epoch {
            self.report.epochs_seen.push(epoch);
        }
        for msg in &self.unacked {
            conn.send(msg)?;
            if matches!(msg, CtrlMsg::Commit { .. }) {
                self.report.commits_resent += 1;
            }
        }
        (self.conn, self.epoch) = (conn, epoch);
        Ok(())
    }

    /// Takes in what the EPE has said so far, without waiting for more,
    /// and reconnects if it turns out to be gone (the socket says so, or
    /// the heartbeat went stale).
    fn poll(&mut self) -> io::Result<()> {
        loop {
            match self.conn.recv() {
                Ok(CtrlMsg::Ack { iteration }) => {
                    let before = self.unacked.len();
                    self.unacked.retain(|msg| iteration_of(msg) != Some(iteration));
                    if self.unacked.len() < before {
                        self.report.iterations_acked += 1;
                    }
                }
                Ok(CtrlMsg::Shutdown) => self.shut_down = true,
                // Epoch announcements, anything else: not ours to act on.
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // After a `Shutdown` the EPE closes its end: not a death.
                Err(_) if self.shut_down => return Ok(()),
                Err(_) => return self.reconnect(),
            }
        }
        if !self.shut_down && heartbeat_stale(self.node, self.opts.lease_timeout) {
            // The EPE looks dead: this blocks until the supervisor has
            // respawned it.
            self.reconnect()?;
        }
        Ok(())
    }
}

/// Runs one client process to completion.
pub fn run_client(opts: &ClientOptions) -> io::Result<ClientReport> {
    let mapping_path = opts.dir.join(super::MAPPING_FILE);

    // The EPE creates the mapping; wait for a valid header to appear.
    let start = Instant::now();
    let node = loop {
        match MappedNode::open(&mapping_path) {
            Ok(n) => break n,
            Err(_) if start.elapsed() < Duration::from_secs(20) => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    };
    let buffer = node.buffer();
    let rank = opts.rank as usize;
    let (conn, epoch) = connect(opts, &node)?;
    let mut ctl = Ctl {
        opts,
        node: &node,
        conn,
        epoch,
        unacked: Vec::new(),
        shut_down: false,
        report: ClientReport {
            epochs_seen: vec![epoch],
            ..ClientReport::default()
        },
    };

    for it in 0..opts.iterations {
        ctl.poll()?;
        for var in 0..opts.variables {
            renew(opts, &node)?;
            let payload = payload_for(opts.rank, it, var, opts.payload_len);

            // Reserve, spinning on Full like the paper's clients block on
            // a full buffer. The EPE frees space as it persists — a
            // respawned one only once it has heard again what the dead
            // one took with it, hence the poll.
            let reserve_start = Instant::now();
            let mut seg = loop {
                match node.reserve(&buffer, rank, payload.len()) {
                    Ok(seg) => break seg,
                    Err(AllocError::Full) => {
                        renew(opts, &node)?;
                        ctl.poll()?;
                        if ctl.shut_down || reserve_start.elapsed() > Duration::from_secs(60) {
                            return Err(io::Error::other("buffer full and nobody draining it"));
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(io::Error::other(format!("reserve: {e}"))),
                }
            };

            let kill = opts
                .kill
                .filter(|k| var == 0 && k.fires(opts.rank, it, k.phase));
            if kill.is_some_and(|k| k.phase == ClientKillPhase::Alloc) {
                // Die owning a reservation nobody will ever commit: the
                // lease sweep must reclaim it.
                damaris_shm::kill_self_hard();
            }

            if kill.is_some_and(|k| k.phase == ClientKillPhase::Memcpy) {
                // Die mid-copy: the ring holds a half-written segment.
                seg.as_mut_slice()[..payload.len() / 2]
                    .copy_from_slice(&payload[..payload.len() / 2]);
                damaris_shm::kill_self_hard();
            }
            seg.copy_from_slice(&payload);
            ctl.send(CtrlMsg::Commit {
                rank: opts.rank,
                iteration: it,
                variable: var,
                offset: seg.offset() as u64,
                len: seg.len() as u64,
                crc: damaris_format::crc32(&payload),
            })?;
            // The client-side mirror of the segment can go now — ring
            // accounting lives in the mapping and is released by the EPE.
            drop(seg);

            if kill.is_some_and(|k| k.phase == ClientKillPhase::PostCommit) {
                // Die with the commit on the wire (or in the dead EPE's
                // socket buffer): journal + lease must sort it out.
                damaris_shm::kill_self_hard();
            }
        }
        ctl.send(CtrlMsg::EndIteration {
            rank: opts.rank,
            iteration: it,
        })?;
    }

    // The one wait: for what is still unacknowledged, riding out EPE
    // deaths. A `Shutdown` ends it too — the EPE has flushed what it had
    // and will acknowledge nothing further (e.g. under `wait`, iterations
    // a dead rank never completed).
    let start = Instant::now();
    while !ctl.unacked.is_empty() && !ctl.shut_down {
        renew(opts, &node)?;
        ctl.poll()?;
        if start.elapsed() > Duration::from_secs(60) {
            let oldest = ctl.unacked.first().and_then(iteration_of);
            return Err(io::Error::other(format!("no ack for iteration {oldest:?}")));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(ctl.report)
}

/// Lease renew: every client API touchpoint and every wait loop renews;
/// the dedicated core's sweeper watches the word for movement.
fn renew(opts: &ClientOptions, node: &MappedNode) -> io::Result<()> {
    if !node.lease(opts.rank as usize).renew() {
        // Revoked: the sweeper fenced us (a false positive on a very
        // slow rank). Per protocol we must stop touching the buffer.
        return Err(io::Error::other("lease revoked: this rank is fenced"));
    }
    Ok(())
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
