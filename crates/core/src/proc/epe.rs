//! The dedicated-core process: Damaris's event processing engine running
//! as its own OS process over the file-backed mapping.
//!
//! Lifecycle of one incarnation:
//!
//! 1. Sweep the run directory for orphaned mappings from dead prior runs
//!    ([`damaris_shm::scan_orphans`]).
//! 2. Create the mapping (first incarnation) or re-adopt it (respawn):
//!    re-stamp the creator pid, bump the heartbeat epoch, and restart
//!    every live lease's staleness clock so clients are not fenced for
//!    *our* downtime.
//! 3. Replay the WAL: applied-but-unreleased records get their ring
//!    bytes returned; pending records are re-adopted into their
//!    iteration as if the commit just arrived.
//! 4. Serve: drain `Commit`/`EndIteration` frames, WAL-append each
//!    commit pending *before* acting on it, resolve iterations in order
//!    (full, partial with a presence bitmap, or dropped, per the
//!    configured [`OnClientFailure`] policy), verify each segment's
//!    end-to-end CRC at persist time, release ring bytes, acknowledge.
//! 5. Sweep leases on the machine-wide monotonic clock: a rank whose
//!    `renewed_at_ns` stalls past the lease timeout is revoked (the
//!    model-checked CAS arbitration — a concurrent renew wins), its
//!    unpersisted commits discarded, and its whole ring reclaimed.
//!
//! The mid-drain kill (`DAMARIS_KILL_EPE_AFTER`) raises `SIGKILL` right
//! after a commit's pending record is durable and before anything is
//! applied — the worst spot: the next incarnation must recover the
//! commit from the WAL + mapping alone.

use crate::config::OnClientFailure;
use crate::proc::wal::{ProcWal, WalRecord, WalState};
use damaris_format::{crc32, DataType, DatasetOptions, Layout};
use damaris_fs::LocalDirBackend;
use damaris_mpi::{CtrlMsg, FaultPlan, UdsConn, UdsHub};
use damaris_shm::sync::Ordering;
use damaris_shm::{monotonic_now_ns, scan_orphans, MappedNode};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Everything one EPE incarnation needs to run.
#[derive(Debug, Clone)]
pub struct EpeOptions {
    /// Run directory: mapping, socket, WAL, reports, and `out/` live here.
    pub dir: PathBuf,
    /// Number of client ranks.
    pub n_clients: usize,
    /// Iterations the run executes.
    pub iterations: u32,
    /// Data-window bytes of the mapping (split into per-client rings).
    pub data_capacity: usize,
    /// Incarnation number: 0 creates the mapping, >0 re-adopts it.
    pub epoch: u32,
    /// What to do when a client dies mid-iteration.
    pub policy: OnClientFailure,
    /// Lease staleness bound on the machine-wide monotonic clock.
    pub lease_timeout: Duration,
    /// Chaos: raise `SIGKILL` on ourselves after draining this many
    /// commits (mid-drain, pending record durable, nothing applied).
    pub kill_after_commits: Option<u64>,
}

impl EpeOptions {
    /// Rebuilds the options a launcher exported into the environment.
    pub fn from_env() -> io::Result<EpeOptions> {
        let dir = std::env::var_os(super::ENV_DIR)
            .ok_or_else(|| io::Error::other("DAMARIS_PROC_DIR not set"))?;
        Ok(EpeOptions {
            dir: PathBuf::from(dir),
            n_clients: super::env_parse(super::ENV_CLIENTS)?,
            iterations: super::env_parse(super::ENV_ITERS)?,
            data_capacity: super::env_parse(super::ENV_CAPACITY)?,
            epoch: super::env_parse(super::ENV_EPOCH)?,
            policy: super::launcher::policy_from_str(
                &std::env::var(super::ENV_POLICY).unwrap_or_default(),
            ),
            lease_timeout: Duration::from_millis(super::env_parse(super::ENV_LEASE_MS)?),
            kill_after_commits: super::epe_kill_after_from_env(),
        })
    }
}

/// One incarnation's accounting, also written to
/// `epe-report-<epoch>.txt` as `key=value` lines for the launcher.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpeReport {
    /// Incarnation number this report belongs to.
    pub epoch: u32,
    /// Iterations persisted (full or partial).
    pub iterations_persisted: u64,
    /// Iterations persisted with a presence bitmap (some ranks fenced).
    pub partial_iterations: u64,
    /// Iterations discarded whole under the `drop-iteration` policy.
    pub iterations_dropped: u64,
    /// Iterations abandoned unresolved at shutdown (`wait` policy).
    pub iterations_degraded: u64,
    /// Commit frames accepted and WAL-journalled.
    pub commits_drained: u64,
    /// Segments excluded from persist because the mapping bytes no
    /// longer matched the client's CRC.
    pub crc_rejected: u64,
    /// Client leases revoked by the sweeper.
    pub leases_revoked: u64,
    /// Ring bytes reclaimed from fenced clients (incl. padding).
    pub bytes_reclaimed: u64,
    /// WAL records recovered by this incarnation (replayed or released).
    pub events_replayed: u64,
    /// Re-sent commits deduplicated against the WAL history.
    pub stale_commits_rejected: u64,
    /// Orphaned mapping files unlinked by the startup sweep.
    pub orphans_removed: u64,
    /// Unrecognizable mapping files quarantined by the startup sweep.
    pub orphans_quarantined: u64,
}

impl EpeReport {
    fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("epoch", u64::from(self.epoch)),
            ("iterations_persisted", self.iterations_persisted),
            ("partial_iterations", self.partial_iterations),
            ("iterations_dropped", self.iterations_dropped),
            ("iterations_degraded", self.iterations_degraded),
            ("commits_drained", self.commits_drained),
            ("crc_rejected", self.crc_rejected),
            ("leases_revoked", self.leases_revoked),
            ("bytes_reclaimed", self.bytes_reclaimed),
            ("events_replayed", self.events_replayed),
            ("stale_commits_rejected", self.stale_commits_rejected),
            ("orphans_removed", self.orphans_removed),
            ("orphans_quarantined", self.orphans_quarantined),
        ]
    }

    /// Writes the report as `key=value` lines.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (k, v) in self.fields() {
            out.push_str(&format!("{k}={v}\n"));
        }
        std::fs::write(path, out)
    }

    /// Parses a report written by [`EpeReport::write_to`].
    pub fn read_from(path: &Path) -> io::Result<EpeReport> {
        let text = std::fs::read_to_string(path)?;
        let mut map = BTreeMap::new();
        for line in text.lines() {
            if let Some((k, v)) = line.split_once('=') {
                if let Ok(n) = v.trim().parse::<u64>() {
                    map.insert(k.trim().to_string(), n);
                }
            }
        }
        let get = |k: &str| map.get(k).copied().unwrap_or(0);
        Ok(EpeReport {
            epoch: get("epoch") as u32,
            iterations_persisted: get("iterations_persisted"),
            partial_iterations: get("partial_iterations"),
            iterations_dropped: get("iterations_dropped"),
            iterations_degraded: get("iterations_degraded"),
            commits_drained: get("commits_drained"),
            crc_rejected: get("crc_rejected"),
            leases_revoked: get("leases_revoked"),
            bytes_reclaimed: get("bytes_reclaimed"),
            events_replayed: get("events_replayed"),
            stale_commits_rejected: get("stale_commits_rejected"),
            orphans_removed: get("orphans_removed"),
            orphans_quarantined: get("orphans_quarantined"),
        })
    }
}

/// Per-iteration accumulation: commits keyed `(rank, variable)` (sorted,
/// so SDF dataset order is deterministic) plus the set of ranks that
/// fenced the iteration with `EndIteration`.
#[derive(Debug, Default)]
struct IterState {
    commits: BTreeMap<(u32, u32), WalRecord>,
    ended: BTreeSet<u32>,
}

/// The EPE's in-memory mirror of the run — rebuilt from the WAL on every
/// incarnation; nothing here is load-bearing across a crash.
#[derive(Debug, Default)]
struct RunState {
    iters: BTreeMap<u32, IterState>,
    /// Every commit key ever journalled — dedups client re-sends.
    seen: HashSet<(u32, u32, u32)>,
    /// Iterations fully resolved (persisted/partial/dropped).
    done: BTreeSet<u32>,
    /// Ranks fenced (lease revoked, ring reclaimed).
    fenced: BTreeSet<usize>,
    /// Ranks that sent `EndIteration` for the final iteration.
    complete: BTreeSet<usize>,
}

impl RunState {
    fn adopt(&mut self, rec: WalRecord) {
        self.seen.insert((rec.rank, rec.iteration, rec.variable));
        self.iters
            .entry(rec.iteration)
            .or_default()
            .commits
            .insert((rec.rank, rec.variable), rec);
    }

    /// Removes and returns every unresolved commit of `rank`.
    fn remove_rank_commits(&mut self, rank: u32) -> Vec<WalRecord> {
        let mut out = Vec::new();
        for iter in self.iters.values_mut() {
            let keys: Vec<(u32, u32)> = iter
                .commits
                .keys()
                .filter(|(r, _)| *r == rank)
                .copied()
                .collect();
            for k in keys {
                if let Some(rec) = iter.commits.remove(&k) {
                    out.push(rec);
                }
            }
        }
        out
    }
}

fn beat(node: &MappedNode) {
    node.heartbeat().beat();
    // Release: dates the beat on the shared clock; clients Acquire-load
    // it to compute staleness without a process-private anchor.
    node.beat_at_ns()
        .store(monotonic_now_ns(), Ordering::Release);
}

/// Runs one EPE incarnation to completion. Returns the incarnation's
/// report (also written to `epe-report-<epoch>.txt` in the run dir).
pub fn run_epe(opts: &EpeOptions) -> io::Result<EpeReport> {
    let mut report = EpeReport {
        epoch: opts.epoch,
        ..EpeReport::default()
    };
    std::fs::create_dir_all(&opts.dir)?;
    let mapping_path = opts.dir.join(super::MAPPING_FILE);

    // 1. Orphan sweep. A mapping is stale once its heartbeat stamp is
    // several lease windows old; our own file (respawn) is kept.
    let stale_ns = (opts.lease_timeout.as_nanos() as u64).saturating_mul(4);
    let keep = (opts.epoch > 0).then_some(mapping_path.as_path());
    let gc = scan_orphans(&opts.dir, "damaris-node", keep, Some(stale_ns))?;
    report.orphans_removed = gc.removed as u64;
    report.orphans_quarantined = gc.quarantined as u64;

    // 2. Create or re-adopt the mapping.
    let node = if opts.epoch == 0 {
        MappedNode::create(&mapping_path, opts.n_clients, opts.data_capacity)?
    } else {
        match MappedNode::open(&mapping_path) {
            Ok(n) => {
                n.restamp_creator();
                n
            }
            // The mapping vanished with the machine state (tmpfs cleared
            // under us): start fresh; WAL replay will quarantine.
            Err(_) => MappedNode::create(&mapping_path, opts.n_clients, opts.data_capacity)?,
        }
    };
    let buffer = node.buffer();

    // Heartbeat epoch = incarnation + 1 so even the first incarnation is
    // distinguishable from an all-zero fresh mapping.
    node.heartbeat().begin_epoch(opts.epoch + 1);
    beat(&node);

    // Takeover grace: every live lease's staleness clock restarts now.
    let now = monotonic_now_ns();
    let mut state = RunState::default();
    for c in 0..opts.n_clients {
        if node.lease(c).is_revoked() {
            // Fenced by a previous incarnation; keep it fenced and make
            // sure nothing lingers in its ring (reclaim is idempotent).
            report.bytes_reclaimed += node.revoke_remaining(c);
            state.fenced.insert(c);
        } else {
            node.renewed_at_ns(c).store(now, Ordering::Release);
        }
    }

    // 3. WAL replay.
    let (mut wal, replay) = ProcWal::open(&opts.dir.join(super::WAL_FILE))?;
    for it in &replay.done_iterations {
        state.done.insert(*it);
    }
    for key in &replay.seen_commits {
        state.seen.insert(*key);
    }
    for (rec, wal_state) in replay.records {
        report.events_replayed += 1;
        match wal_state {
            // Persisted by the previous incarnation; only the ring
            // release is outstanding (seq order = per-client FIFO).
            WalState::Applied => {
                node.release(rec.rank as usize, rec.offset as usize, rec.len as usize);
                wal.mark_released(rec.seq)?;
            }
            // Still owns its segment: re-adopt as if it just arrived.
            // (Fenced ranks' records are discarded just below.)
            WalState::Pending => state.adopt(rec),
        }
    }
    // Records of already-fenced ranks were reclaimed wholesale.
    let fenced_now: Vec<usize> = state.fenced.iter().copied().collect();
    for rank in fenced_now {
        for rec in state.remove_rank_commits(rank as u32) {
            wal.mark_applied(rec.seq)?;
            wal.mark_released(rec.seq)?;
        }
    }

    // 4. Control plane.
    let hub = UdsHub::bind(&opts.dir.join(super::SOCKET_FILE))?;
    let plan = FaultPlan::new();
    let epe_rank = opts.n_clients;
    let mut conns: Vec<Option<UdsConn>> = if opts.epoch == 0 {
        hub.accept_clients(
            opts.n_clients,
            opts.epoch + 1,
            epe_rank,
            &plan,
            Duration::from_secs(20),
        )?
        .into_iter()
        .map(Some)
        .collect()
    } else {
        let expected: Vec<usize> = (0..opts.n_clients)
            .filter(|c| !state.fenced.contains(c))
            .collect();
        hub.accept_available(
            opts.n_clients,
            &expected,
            opts.epoch + 1,
            epe_rank,
            &plan,
            opts.lease_timeout.max(Duration::from_millis(500)),
        )?
    };
    for conn in conns.iter().flatten() {
        let _ = conn.set_recv_timeout(Some(Duration::from_millis(2)));
    }

    let lease_ns = opts.lease_timeout.as_nanos() as u64;
    let last_iter = opts.iterations.saturating_sub(1);
    let mut drained_this_incarnation = 0u64;

    // 5. Serve.
    loop {
        beat(&node);

        // Drain frames from every live connection.
        for (rank, slot) in conns.iter_mut().enumerate() {
            let Some(conn) = slot.as_mut() else {
                continue;
            };
            let mut conn_died = false;
            loop {
                match conn.recv() {
                    Ok(CtrlMsg::Commit {
                        rank: r,
                        iteration,
                        variable,
                        offset,
                        len,
                        crc,
                    }) => {
                        let key = (r, iteration, variable);
                        let ring_base = (rank * node.region_capacity()) as u64;
                        let ring_ok = r as usize == rank
                            && offset >= ring_base
                            && len <= node.region_capacity() as u64
                            && offset + len <= ring_base + node.region_capacity() as u64;
                        if state.done.contains(&iteration) || state.seen.contains(&key) || !ring_ok
                        {
                            // A re-send of something the WAL already
                            // knows (or a frame that fails validation):
                            // the journal seq layer's dedup.
                            report.stale_commits_rejected += 1;
                            continue;
                        }
                        let mut rec = WalRecord {
                            seq: 0,
                            rank: r,
                            iteration,
                            variable,
                            offset,
                            len,
                            data_crc: crc,
                        };
                        rec.seq = wal.append_pending(rec)?;
                        state.adopt(rec);
                        report.commits_drained += 1;
                        drained_this_incarnation += 1;
                        if Some(drained_this_incarnation) == opts.kill_after_commits {
                            // Chaos: die mid-drain. The pending record is
                            // durable; nothing was applied or released.
                            let _ = report
                                .write_to(&opts.dir.join(format!("epe-report-{}.txt", opts.epoch)));
                            damaris_shm::kill_self_hard();
                        }
                    }
                    Ok(CtrlMsg::EndIteration { rank: r, iteration }) => {
                        if state.done.contains(&iteration) {
                            // Resolved by a previous incarnation whose Ack
                            // the client never saw: re-acknowledge.
                            let _ = conn.send(&CtrlMsg::Ack { iteration });
                        } else if r as usize == rank {
                            state.iters.entry(iteration).or_default().ended.insert(r);
                            if iteration == last_iter {
                                state.complete.insert(rank);
                            }
                        }
                    }
                    // User events and barriers are not part of the proxy
                    // app's protocol; ignore anything else well-formed.
                    Ok(_) => {}
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        break;
                    }
                    Err(_) => {
                        // Closed or corrupt stream. A complete rank just
                        // exited; anything else is for the lease sweep.
                        conn_died = true;
                        break;
                    }
                }
            }
            if conn_died {
                *slot = None;
            }
        }

        // Lease sweep on the shared monotonic clock.
        let now = monotonic_now_ns();
        for (rank, slot) in conns.iter_mut().enumerate() {
            if state.fenced.contains(&rank) || state.complete.contains(&rank) {
                continue;
            }
            // Acquire pairs with the client's Release renew stamp.
            let renewed = node.renewed_at_ns(rank).load(Ordering::Acquire);
            if now.saturating_sub(renewed) <= lease_ns {
                continue;
            }
            let lease = node.lease(rank);
            let snap = lease.snapshot();
            // Model-checked arbitration: a concurrent renew beats the
            // revoke and the rank survives until the next sweep.
            if !lease.try_revoke(snap) {
                continue;
            }
            report.leases_revoked += 1;
            for rec in state.remove_rank_commits(rank as u32) {
                wal.mark_applied(rec.seq)?;
                wal.mark_released(rec.seq)?;
            }
            report.bytes_reclaimed += node.revoke_remaining(rank);
            state.fenced.insert(rank);
            *slot = None;
        }

        // Resolve iterations in order.
        loop {
            let next = (0..opts.iterations).find(|it| !state.done.contains(it));
            let Some(it) = next else {
                break;
            };
            let live: Vec<u32> = (0..opts.n_clients as u32)
                .filter(|r| !state.fenced.contains(&(*r as usize)))
                .collect();
            let iter = state.iters.entry(it).or_default();
            if live.is_empty() && iter.commits.is_empty() {
                // Nobody left and nothing buffered: nothing to resolve.
                break;
            }
            if !live.iter().all(|r| iter.ended.contains(r)) {
                break; // still in flight
            }
            let missing: Vec<u32> = (0..opts.n_clients as u32)
                .filter(|r| !iter.ended.contains(r))
                .collect();
            let commits: Vec<WalRecord> = {
                // invariant: `it` was just found in or inserted into the map.
                let iter = state.iters.get(&it).expect("iteration state exists");
                iter.commits.values().copied().collect()
            };
            // `wait` stalls while a silent rank might still come back (the
            // all-live-ranks-ended gate above); a rank in `missing` here is
            // provably fenced and never will. `wait` still refuses to
            // publish partial data, so the iteration degrades — commits
            // discarded, segments released, survivors acknowledged.
            let drop_whole = !missing.is_empty()
                && matches!(
                    opts.policy,
                    OnClientFailure::DropIteration | OnClientFailure::Wait
                );
            if drop_whole {
                if opts.policy == OnClientFailure::Wait {
                    report.iterations_degraded += 1;
                } else {
                    report.iterations_dropped += 1;
                }
            } else {
                persist_iteration(&opts.dir, &node, &buffer, it, &commits, &missing, &mut report)?;
                report.iterations_persisted += 1;
                if !missing.is_empty() {
                    report.partial_iterations += 1;
                }
            }
            // Applied (persisted or policy-dropped) → release → released,
            // in per-client FIFO (= seq) order.
            let mut by_seq = commits;
            by_seq.sort_by_key(|r| r.seq);
            for rec in &by_seq {
                wal.mark_applied(rec.seq)?;
                node.release(rec.rank as usize, rec.offset as usize, rec.len as usize);
                wal.mark_released(rec.seq)?;
            }
            wal.mark_iteration_done(it)?;
            state.done.insert(it);
            state.iters.remove(&it);
            for slot in conns.iter_mut() {
                let died = slot
                    .as_mut()
                    .is_some_and(|conn| conn.send(&CtrlMsg::Ack { iteration: it }).is_err());
                if died {
                    *slot = None;
                }
            }
        }

        // Termination: every iteration resolved, or every rank finished
        // or fenced with nothing left to wait for.
        let all_done = (0..opts.iterations).all(|it| state.done.contains(&it));
        let everyone_settled = (0..opts.n_clients)
            .all(|r| state.complete.contains(&r) || state.fenced.contains(&r));
        if all_done || everyone_settled {
            if all_done {
                break;
            }
            // `wait`-policy shutdown drain: abandon unresolved iterations,
            // releasing their segments so nothing leaks.
            let leftovers: Vec<u32> = state.iters.keys().copied().collect();
            for it in leftovers {
                // invariant: key came from the map we are iterating.
                let iter = state.iters.remove(&it).expect("iteration state exists");
                if !iter.commits.is_empty() || !iter.ended.is_empty() {
                    report.iterations_degraded += 1;
                }
                let mut by_seq: Vec<WalRecord> = iter.commits.into_values().collect();
                by_seq.sort_by_key(|r| r.seq);
                for rec in by_seq {
                    wal.mark_applied(rec.seq)?;
                    node.release(rec.rank as usize, rec.offset as usize, rec.len as usize);
                    wal.mark_released(rec.seq)?;
                }
            }
            break;
        }
    }

    // Coordinated shutdown; send errors just mean the rank already left.
    for conn in conns.iter_mut().flatten() {
        let _ = conn.send(&CtrlMsg::Shutdown);
    }
    beat(&node);
    report.write_to(&opts.dir.join(format!("epe-report-{}.txt", opts.epoch)))?;
    Ok(report)
}

/// Persists one iteration to `out/iter-<it>.sdf` through the
/// crash-consistent begin/commit path: datasets `/rank<r>/var<v>` for
/// every CRC-valid commit, plus a `/presence` bitmap when ranks are
/// missing (the `partial` policy's marker for downstream readers).
fn persist_iteration(
    dir: &Path,
    node: &MappedNode,
    buffer: &damaris_shm::sync::Arc<damaris_shm::SharedBuffer>,
    it: u32,
    commits: &[WalRecord],
    missing: &[u32],
    report: &mut EpeReport,
) -> io::Result<()> {
    let backend = LocalDirBackend::new(dir.join(super::OUT_DIR))?;
    let mut writer = backend
        .begin_sdf(&format!("iter-{it:05}.sdf"))
        .map_err(sdf_err)?;
    for rec in commits {
        let view = buffer.adopt_segment(rec.offset as usize, rec.len as usize);
        // Checksum and write straight from the mapping: the segment stays
        // reserved until the WAL marks the record released, after commit.
        let bytes = view.as_slice();
        if crc32(bytes) != rec.data_crc {
            // End-to-end CRC failure: the mapping bytes are not what the
            // client stamped. Quarantine (exclude), never persist.
            report.crc_rejected += 1;
            continue;
        }
        writer
            .write_dataset_bytes(
                &format!("/rank{}/var{}", rec.rank, rec.variable),
                &Layout::new(DataType::U8, &[rec.len]),
                bytes,
                &DatasetOptions::plain(),
            )
            .map_err(sdf_err)?;
    }
    if !missing.is_empty() {
        let presence: Vec<u8> = (0..node.n_clients() as u32)
            .map(|r| u8::from(!missing.contains(&r)))
            .collect();
        writer
            .write_dataset_bytes(
                "/presence",
                &Layout::new(DataType::U8, &[presence.len() as u64]),
                &presence,
                &DatasetOptions::plain(),
            )
            .map_err(sdf_err)?;
    }
    backend.commit_sdf(writer).map_err(sdf_err)?;
    Ok(())
}

fn sdf_err(e: damaris_format::SdfError) -> io::Error {
    io::Error::other(format!("sdf: {e}"))
}
