//! A compute-core process: the paper's client API run against the
//! file-backed mapping, and nothing else.
//!
//! The client maps the file and registers its pid in its block. Per
//! iteration it reserves a ring segment per variable (the lock-free
//! partitioned scheme — a handful of atomics on mapped words), memcpys its
//! data, stamps a CRC, posts a write notice (shm coordinates only) into
//! its own notice ring, fences the iteration with an end-of-iteration
//! notice — and goes on to the next one, without a system call. It never
//! waits for the dedicated core's disk: its only backpressure is a full
//! ring, data or notice, as for [`crate::DamarisClient`]. The one wait is
//! at the end, for the EPE to say the run is done.
//!
//! ## Surviving the EPE
//!
//! The EPE can be `kill -9`'d at any moment, and the client does not need
//! to know. What it posted stays in its ring, in the mapping, and the
//! respawned incarnation takes it from where the dead one stopped; the
//! one notice the dead one had journalled but not yet taken off the ring
//! is refused by the next as already seen. A client blocked on a full
//! ring meanwhile renews its lease and waits, as for a slow core.
//!
//! ## Dying itself
//!
//! The kill matrix runs *in* the victim: [`super::ClientKillSpec`] makes
//! this process raise `SIGKILL` on itself right after a reserve
//! (`alloc`), halfway through the memcpy (`memcpy`), or right after the
//! write notice is posted (`postcommit`) — a real uncatchable death at a
//! deterministic protocol point, whose cleanup burden falls entirely on
//! the dedicated core.

use super::ClientKillSpec;
use damaris_mpi::ClientKillPhase;
use damaris_shm::{AllocError, MappedNode, Notice};
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How long a client waits on a ring nobody drains, or for the end of the
/// run, before it gives up: long enough for the supervisor to respawn a
/// dead EPE and for the new one to replay its journal.
const STALL_LIMIT: Duration = Duration::from_secs(60);

/// Everything one client process needs to run.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Run directory (the mapping lives here).
    pub dir: PathBuf,
    /// This client's rank.
    pub rank: u32,
    /// Iterations to run.
    pub iterations: u32,
    /// Variables written per iteration.
    pub variables: u32,
    /// Payload bytes per variable.
    pub payload_len: usize,
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
            iterations: super::env_parse(super::ENV_ITERS)?,
            variables: super::env_parse(super::ENV_VARS)?,
            payload_len: super::env_parse(super::ENV_PAYLOAD)?,
            kill: ClientKillSpec::from_env(),
        })
    }
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

/// Runs one client process to completion.
pub fn run_client(opts: &ClientOptions) -> io::Result<()> {
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
    let rank = opts.rank as usize;
    node.register(rank, damaris_shm::this_pid());
    let buffer = node.buffer();

    for it in 0..opts.iterations {
        for var in 0..opts.variables {
            renew(opts, &node)?;
            let payload = payload_for(opts.rank, it, var, opts.payload_len);

            // Reserve, spinning on Full like the paper's clients block on
            // a full buffer. The EPE frees space as it persists.
            let since = Instant::now();
            let mut seg = loop {
                match node.reserve(&buffer, rank, payload.len()) {
                    Ok(seg) => break seg,
                    Err(AllocError::Full) => stall(opts, &node, since)?,
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
            post(
                opts,
                &node,
                Notice::Write {
                    variable: var,
                    iteration: it,
                    offset: seg.offset() as u64,
                    len: seg.len() as u64,
                    crc: damaris_format::crc32(&payload),
                },
            )?;
            // The client-side mirror of the segment can go now — ring
            // accounting lives in the mapping and is released by the EPE.
            drop(seg);

            if kill.is_some_and(|k| k.phase == ClientKillPhase::PostCommit) {
                // Die with the notice in the ring: journal + lease must
                // sort it out.
                damaris_shm::kill_self_hard();
            }
        }
        post(opts, &node, Notice::EndIteration { iteration: it })?;
    }

    // The one wait: for the EPE that finishes the run — after however
    // many respawns — to say so. Until then this rank is alive, not done.
    let since = Instant::now();
    while !node.done() {
        renew(opts, &node)?;
        if since.elapsed() > STALL_LIMIT {
            return Err(io::Error::other(
                "the dedicated core never finished the run",
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// Posts `notice` into this rank's ring, waiting while it is full.
fn post(opts: &ClientOptions, node: &MappedNode, notice: Notice) -> io::Result<()> {
    let ring = node.notices(opts.rank as usize);
    let since = Instant::now();
    while !ring.post(notice.encode()) {
        stall(opts, node, since)?;
    }
    Ok(())
}

/// One wait on a full ring, data or notice, full since `since`: renew the
/// lease, then sleep — unless the run is over or the wait has lasted
/// [`STALL_LIMIT`], when nobody is draining it.
fn stall(opts: &ClientOptions, node: &MappedNode, since: Instant) -> io::Result<()> {
    renew(opts, node)?;
    if node.done() || since.elapsed() > STALL_LIMIT {
        return Err(io::Error::other("buffer full and nobody draining it"));
    }
    std::thread::sleep(Duration::from_millis(1));
    Ok(())
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
