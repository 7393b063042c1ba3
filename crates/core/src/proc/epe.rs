//! The dedicated-core process: the node's one dedicated core
//! ([`crate::server`]) fed from the UDS control plane instead of the
//! in-process queue.
//!
//! [`run_epe`] is bootstrap, a pump, and a report:
//!
//! 1. **Bootstrap.** Sweep the run directory for orphaned mappings of
//!    dead prior runs ([`damaris_shm::scan_orphans`]); create the mapping
//!    (first incarnation) or re-adopt it (respawn); publish the heartbeat
//!    epoch; open the journal's file ([`EventJournal::open`]) and fence in
//!    it every rank whose lease reads revoked; build the node's shared
//!    state over the mapping; bind the socket (first boot: wait for every
//!    rank to register); build the core over the shared state; replay
//!    (respawn).
//! 2. **The pump.** Each pass beats and stamps the mapped heartbeat,
//!    accepts whoever registered, drains `Commit`/`EndIteration` frames —
//!    validate by *adopting* the range from the sender's ring, `admit`,
//!    `handle` — runs the core's `idle` pass, and on a pass that read no
//!    frame its `quiet` pass (the rule [`crate::server::run`] follows on
//!    an empty pop), after which what retired is acknowledged.
//! 3. `Terminate`, `finish`, and the report file the launcher reads.
//!
//! Everything a payload byte meets between a client's `Commit` and the
//! disk — iteration completion, the lease sweep, failure policies, CRC
//! verification, persist retry, group commit, `MANIFEST` publish, the
//! plugin pipeline, spans — is the core's and is not repeated here. What
//! the pump owns is what is transport:
//!
//! * **Validation.** A frame's coordinates come from another process;
//!   [`Pump::commit`] says what it takes for one to be believed.
//! * **Acknowledgement.** `Ack { iteration }` means durable and
//!   released: it goes out after the `quiet` pass that committed the
//!   iteration. Clients never wait for it between iterations; it only
//!   prunes what they would re-send.
//! * **Re-sends.** A reconnecting client re-sends everything
//!   unacknowledged; what the journal's history (or this incarnation)
//!   already holds is rejected *before* it is journalled, because the same
//!   range adopted twice would be released twice.
//! * **Termination.** There is no `Terminate` on the wire: the pump
//!   decides ([`Pump::settled`]).
//!
//! The mid-drain kill (`DAMARIS_KILL_EPE_AFTER`) raises `SIGKILL` right
//! after the core admitted a commit — its record durable — and before it
//! handles it: the worst spot, the next incarnation must recover the
//! commit from the journal file and the mapping alone.

use crate::config::OnClientFailure;
use crate::epe::EventProcessingEngine;
use crate::error::DamarisError;
use crate::event::Event;
use crate::journal::{EventJournal, JournalPayload, RecordState, ReplayEntry};
use crate::node::{FaultStats, NodeReport, NodeShared};
use crate::server::DedicatedCore;
use damaris_fs::LocalDirBackend;
use damaris_mpi::{CtrlMsg, FaultPlan, UdsConn, UdsHub};
use damaris_shm::sync::{Arc, Ordering};
use damaris_shm::{monotonic_now_ns, scan_orphans, LeaseSnapshot, MappedNode};
use std::collections::{BTreeSet, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Everything one EPE incarnation needs to run.
#[derive(Debug, Clone)]
pub struct EpeOptions {
    /// Run directory: mapping, socket, journal, reports, and `out/` live here.
    pub dir: PathBuf,
    /// Number of client ranks.
    pub n_clients: usize,
    /// Iterations the run executes.
    pub iterations: u32,
    /// Variables each client writes per iteration.
    pub variables: u32,
    /// Payload bytes per variable.
    pub payload_len: usize,
    /// Data-window bytes of the mapping (split into per-client rings).
    pub data_capacity: usize,
    /// Incarnation number: 0 creates the mapping, >0 re-adopts it.
    pub epoch: u32,
    /// What to do when a client dies mid-iteration.
    pub policy: OnClientFailure,
    /// Lease staleness bound.
    pub lease_timeout: Duration,
    /// Chaos: raise `SIGKILL` on ourselves after draining this many
    /// commits (mid-drain, record durable, nothing applied).
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
            variables: super::env_parse(super::ENV_VARS)?,
            payload_len: super::env_parse(super::ENV_PAYLOAD)?,
            data_capacity: super::env_parse(super::ENV_CAPACITY)?,
            epoch: super::env_parse(super::ENV_EPOCH)?,
            policy: super::policy_from_str(&std::env::var(super::ENV_POLICY).unwrap_or_default()),
            lease_timeout: Duration::from_millis(super::env_parse(super::ENV_LEASE_MS)?),
            kill_after_commits: super::epe_kill_after_from_env(),
        })
    }

    fn report_path(&self) -> PathBuf {
        self.dir.join(format!("epe-report-{}.txt", self.epoch))
    }
}

/// One incarnation's accounting: which one, and the report its dedicated
/// core returned. Written to `epe-report-<epoch>.txt` as `key=value`
/// lines for the launcher.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpeReport {
    /// Incarnation number this report belongs to.
    pub epoch: u32,
    /// The core's report, as [`crate::NodeRuntime::finish`] returns it.
    pub node: NodeReport,
}

impl EpeReport {
    /// Writes the report as `key=value` lines.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let text = format!("epoch={}\n{}", self.epoch, self.node.to_key_values());
        std::fs::write(path, text)
    }

    /// Parses a report written by [`EpeReport::write_to`].
    pub fn read_from(path: &Path) -> io::Result<EpeReport> {
        let text = std::fs::read_to_string(path)?;
        let epoch = text
            .lines()
            .find_map(|l| l.strip_prefix("epoch=")?.parse().ok());
        Ok(EpeReport {
            epoch: epoch.unwrap_or(0),
            node: NodeReport::from_key_values(&text),
        })
    }
}

fn beat(node: &MappedNode) {
    node.heartbeat().beat();
    // Release: dates the beat on the shared clock; clients Acquire-load
    // it to compute staleness without a process-private anchor.
    node.beat_at_ns()
        .store(monotonic_now_ns(), Ordering::Release);
}

fn core_err(e: DamarisError) -> io::Error {
    io::Error::other(format!("dedicated core: {e}"))
}

/// Runs one EPE incarnation to completion. Returns the incarnation's
/// report (also written to `epe-report-<epoch>.txt` in the run dir).
pub fn run_epe(opts: &EpeOptions) -> io::Result<EpeReport> {
    std::fs::create_dir_all(&opts.dir)?;
    let mapping_path = opts.dir.join(super::MAPPING_FILE);
    let journal_path = opts.dir.join(super::JOURNAL_FILE);

    // Orphan sweep. A mapping is stale once its heartbeat stamp is
    // several lease windows old; our own file (respawn) is kept.
    let stale_ns = (opts.lease_timeout.as_nanos() as u64).saturating_mul(4);
    let keep = (opts.epoch > 0).then_some(mapping_path.as_path());
    let gc = scan_orphans(&opts.dir, "damaris-node", keep, Some(stale_ns))?;

    // Create or re-adopt the mapping.
    let adopted = (opts.epoch > 0).then(|| MappedNode::open(&mapping_path).ok());
    let node = match adopted.flatten() {
        Some(node) => {
            node.restamp_creator();
            node
        }
        // First boot — or the mapping vanished with the machine state
        // (tmpfs cleared under us). A fresh mapping has nothing a journal
        // could describe: the two begin together.
        None => {
            match std::fs::remove_file(&journal_path) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
            MappedNode::create(&mapping_path, opts.n_clients, opts.data_capacity)?
        }
    };
    // Heartbeat epoch = incarnation + 1 so even the first incarnation is
    // distinguishable from an all-zero fresh mapping.
    node.heartbeat().begin_epoch(opts.epoch + 1);
    beat(&node);

    // Fences survive the core: a predecessor killed between revoking a
    // lease and fencing its source left a rank the sweeper can neither
    // renew nor revoke. Fenced here, replay cancels what it journalled.
    let (journal, history) = EventJournal::open(&journal_path)?;
    for rank in (0..opts.n_clients).filter(|&c| node.lease(c).is_revoked()) {
        journal.fence(rank as u32);
    }

    let backend = Arc::new(LocalDirBackend::new(opts.dir.join(super::OUT_DIR))?);
    let config = super::node_config(
        opts.variables,
        opts.payload_len,
        opts.data_capacity,
        opts.policy,
        opts.lease_timeout,
    );
    let engine = EventProcessingEngine::build(&config, &[]).map_err(core_err)?;
    let shared = NodeShared::over_mapping(config, node.clone(), backend, 0, journal);
    let shared = Arc::new(shared);
    // What the dead incarnation left half-written goes before anything
    // new is written beside it (as `NodeRuntime` does at start).
    let scan = damaris_fs::recover(shared.backend.as_ref())?;
    shared.stats.recovery_actions.add(scan.actions());
    shared.stats.shm_orphans_removed.add(gc.removed as u64);
    shared
        .stats
        .shm_orphans_quarantined
        .add(gc.quarantined as u64);

    let hub = UdsHub::bind(&opts.dir.join(super::SOCKET_FILE))?;
    let mut pump = Pump::new(opts, &shared, &node, hub, &history);
    if opts.epoch == 0 {
        // The run begins when every rank has joined: a process still being
        // exec'd is not a dead rank, and the core's lease deadlines start
        // when it is built. (A respawn has the lease words to go by.)
        let joined_by = Instant::now() + Duration::from_secs(20);
        while pump.conns.iter().any(Option::is_none) && Instant::now() < joined_by {
            beat(&node);
            pump.accept()?;
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let mut core = DedicatedCore::new(Arc::clone(&shared), engine, opts.epoch);
    if opts.epoch > 0 {
        core.replay().map_err(core_err)?;
    }

    loop {
        beat(&node);
        pump.accept()?;
        let read_any = pump.drain(&mut core)?;
        core.idle().map_err(core_err)?;
        if read_any {
            continue;
        }
        pump.acknowledge(core.quiet().map_err(core_err)?);
        if pump.done() {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    // The wire has no `Terminate`; the core needs one to flush what never
    // completed and let its plugins finish.
    let _ = core.handle(0, Event::Terminate).map_err(core_err)?;
    let report = EpeReport {
        epoch: opts.epoch,
        node: core.finish(),
    };
    // Coordinated shutdown; send errors just mean the rank already left.
    for conn in pump.conns.iter_mut().flatten() {
        let _ = conn.send(&CtrlMsg::Shutdown);
    }
    beat(&node);
    report.write_to(&opts.report_path())?;
    Ok(report)
}

/// The transport half of the process node: connections, and what has to
/// be remembered about the frames that came over them.
struct Pump<'a> {
    opts: &'a EpeOptions,
    shared: &'a NodeShared,
    node: &'a MappedNode,
    hub: UdsHub,
    conns: Vec<Option<UdsConn>>,
    /// Every `(rank, iteration, variable)` ever journalled — a re-sent
    /// commit adopted again would release its range twice.
    commits_seen: HashSet<(u32, u32, u32)>,
    /// Every `(rank, iteration)` whose `EndIteration` was journalled — a
    /// re-sent one counted again would make the iteration look partial.
    ends_seen: HashSet<(u32, u32)>,
    /// Iterations retired and acknowledged, by a predecessor or by us.
    retired: BTreeSet<u32>,
    /// Ranks that sent their last `EndIteration`.
    finished: Vec<bool>,
    /// Per rank, the lease word as last seen to move and when: without a
    /// sweeper, stillness is how a rank whose connection closed is told
    /// from one that is on its way back.
    lease_seen: Vec<(LeaseSnapshot, Instant)>,
    /// Commits accepted by this incarnation (the chaos kill counts them).
    commits: u64,
}

impl<'a> Pump<'a> {
    fn new(
        opts: &'a EpeOptions,
        shared: &'a NodeShared,
        node: &'a MappedNode,
        hub: UdsHub,
        history: &[ReplayEntry],
    ) -> Pump<'a> {
        let now = Instant::now();
        let mut pump = Pump {
            opts,
            shared,
            node,
            hub,
            conns: (0..opts.n_clients).map(|_| None).collect(),
            commits_seen: HashSet::new(),
            ends_seen: HashSet::new(),
            retired: BTreeSet::new(),
            finished: vec![false; opts.n_clients],
            lease_seen: (0..opts.n_clients)
                .map(|c| (node.lease(c).snapshot(), now))
                .collect(),
            commits: 0,
        };
        for entry in history {
            match entry.payload {
                JournalPayload::Write {
                    variable_id,
                    iteration,
                    source,
                    ..
                } => {
                    pump.commits_seen.insert((source, iteration, variable_id));
                }
                JournalPayload::EndIteration { iteration, source } => {
                    pump.note_end(source, iteration);
                    // The core retires an iteration by applying the
                    // end-notifications it counted, first of all; a fenced
                    // rank's are also applied when they are cancelled.
                    if entry.state == RecordState::Applied && !shared.journal.is_fenced(source) {
                        pump.retired.insert(iteration);
                    }
                }
                JournalPayload::User { .. } | JournalPayload::Abandon { .. } => {}
            }
        }
        pump
    }

    fn note_end(&mut self, rank: u32, iteration: u32) {
        if iteration + 1 == self.opts.iterations {
            self.finished[rank as usize] = true;
        }
        self.ends_seen.insert((rank, iteration));
    }

    /// Whether the run has nothing more to expect of `rank`: it sent its
    /// last `EndIteration`, or it is fenced, or — only when no sweeper
    /// runs to fence it — its connection is closed and its lease word,
    /// which a rank renews even while it reconnects, has been still for
    /// one lease timeout (a word that never moved is a rank not started).
    fn settled(&self, rank: usize) -> bool {
        let lease = self.node.lease(rank);
        let (seen, since) = self.lease_seen[rank];
        self.finished[rank]
            || lease.is_revoked()
            || (self.opts.policy == OnClientFailure::Wait
                && self.conns[rank].is_none()
                && seen.beat() > 0
                && since.elapsed() >= self.opts.lease_timeout)
    }

    /// All `iterations` retired and acknowledged, or every rank settled.
    fn done(&self) -> bool {
        (0..self.opts.iterations).all(|it| self.retired.contains(&it))
            || (0..self.opts.n_clients).all(|rank| self.settled(rank))
    }

    /// Notes which lease words moved since the last pass (what `settled`
    /// goes by), then takes in whoever registered, for as long as a rank
    /// is neither settled nor connected: at first boot that is everyone,
    /// after a respawn whoever survived, whenever they get here.
    fn accept(&mut self) -> io::Result<()> {
        let now = Instant::now();
        for (rank, seen) in self.lease_seen.iter_mut().enumerate() {
            let snapshot = self.node.lease(rank).snapshot();
            if snapshot != seen.0 {
                *seen = (snapshot, now);
            }
        }
        let expected = |rank: usize| self.conns[rank].is_none() && !self.settled(rank);
        if !(0..self.opts.n_clients).any(expected) {
            return Ok(());
        }
        let n = self.opts.n_clients;
        for conn in self
            .hub
            .poll_accept(n, self.opts.epoch + 1, n, &FaultPlan::new())?
        {
            conn.set_nonblocking(true)?;
            let rank = conn.peer();
            // A rank registering again has given up on its old stream.
            self.conns[rank] = Some(conn);
        }
        Ok(())
    }

    /// Reads every frame waiting on every connection and hands what is
    /// believed to the core; true if there was any frame at all.
    fn drain(&mut self, core: &mut DedicatedCore) -> io::Result<bool> {
        let mut read_any = false;
        for rank in 0..self.conns.len() {
            while let Some(conn) = self.conns[rank].as_mut() {
                let msg = match conn.recv() {
                    Ok(msg) => msg,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    // Closed or corrupt stream: the rank reconnects, or
                    // it is the sweeper's (`settled`'s) to deal with.
                    Err(_) => {
                        self.conns[rank] = None;
                        break;
                    }
                };
                read_any = true;
                let event = match msg {
                    CtrlMsg::Commit {
                        rank: r,
                        iteration,
                        variable,
                        offset,
                        len,
                        crc,
                    } if r as usize == rank => {
                        self.commit(r, iteration, variable, offset, len, crc, core)
                    }
                    CtrlMsg::EndIteration { rank: r, iteration } if r as usize == rank => {
                        self.end_iteration(r, iteration, core)
                    }
                    // A frame that names another rank is forged.
                    CtrlMsg::Commit { .. } | CtrlMsg::EndIteration { .. } => None,
                    // User events and barriers are not part of the proxy
                    // app's protocol; ignore anything else well-formed.
                    _ => continue,
                };
                match event {
                    Some((seq, event)) => {
                        let _ = core.handle(seq, event).map_err(core_err)?;
                    }
                    None => FaultStats::bump(&self.shared.stats.stale_events_rejected),
                }
            }
        }
        Ok(read_any)
    }

    /// A `Commit` frame of `rank`'s own connection becomes a `Write` the
    /// core admits only if it is news (not of a retired iteration, not
    /// seen before), names a configured variable with that variable's
    /// size, and [`crate::node::BufferManager::adopt`] finds the range
    /// live in that rank's ring. `None`: rejected, nothing journalled.
    #[allow(clippy::too_many_arguments)]
    fn commit(
        &mut self,
        rank: u32,
        iteration: u32,
        variable: u32,
        offset: u64,
        len: u64,
        crc: u32,
        core: &DedicatedCore,
    ) -> Option<(u64, Event)> {
        let shared = self.shared;
        let key = (rank, iteration, variable);
        if self.retired.contains(&iteration) || self.commits_seen.contains(&key) {
            return None;
        }
        let config = &shared.config;
        let declared = config.variable(variable).map(|def| config.layout_of(def));
        if declared.map(|layout| layout.byte_size()) != Some(len) {
            return None;
        }
        let (offset, len) = (usize::try_from(offset).ok()?, usize::try_from(len).ok()?);
        let event = Event::Write {
            variable_id: variable,
            iteration,
            source: rank,
            segment: shared.buffer.adopt(rank, offset, len)?,
            dynamic_layout: None,
            data_crc: crc,
        };
        // A zombie — fenced, still sending — is refused here.
        let seq = core.admit(&event)?;
        self.commits_seen.insert(key);
        self.commits += 1;
        if Some(self.commits) == self.opts.kill_after_commits {
            // Chaos: die mid-drain. The record is durable; the core has
            // not heard of it. The report is what it would have returned.
            let dying = EpeReport {
                epoch: self.opts.epoch,
                node: core.report(),
            };
            let _ = dying.write_to(&self.opts.report_path());
            damaris_shm::kill_self_hard();
        }
        Some((seq, event))
    }

    /// An `EndIteration` frame: answered with its `Ack` again if the
    /// iteration is retired (the client never saw the first), `None` if it
    /// was counted before, admitted otherwise.
    fn end_iteration(
        &mut self,
        rank: u32,
        iteration: u32,
        core: &DedicatedCore,
    ) -> Option<(u64, Event)> {
        if self.retired.contains(&iteration) {
            if let Some(conn) = self.conns[rank as usize].as_mut() {
                let _ = conn.send(&CtrlMsg::Ack { iteration });
            }
            return None;
        }
        if self.ends_seen.contains(&(rank, iteration)) {
            return None;
        }
        let event = Event::EndIteration {
            iteration,
            source: rank,
        };
        let seq = core.admit(&event)?;
        self.note_end(rank, iteration);
        Some((seq, event))
    }

    /// Called with what a `quiet` pass returned, when nothing the core
    /// retired is still parked: every one of those iterations — fired or
    /// dropped alike — is acknowledged to every rank that is connected.
    fn acknowledge(&mut self, retired: Vec<u32>) {
        for iteration in retired {
            self.retired.insert(iteration);
            for slot in self.conns.iter_mut() {
                let lost = slot
                    .as_mut()
                    .is_some_and(|conn| conn.send(&CtrlMsg::Ack { iteration }).is_err());
                if lost {
                    *slot = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::client::payload_for;
    use damaris_mpi::connect_client;

    /// One rank as the test plays it: its view of the mapping, its
    /// connection, and the `Commit` of a payload it really wrote.
    fn join(dir: &Path, rank: u32) -> (MappedNode, UdsConn, CtrlMsg) {
        let joined_by = Instant::now() + Duration::from_secs(20);
        let node = loop {
            match MappedNode::open(&dir.join(crate::proc::MAPPING_FILE)) {
                Ok(node) => break node,
                Err(e) if Instant::now() > joined_by => panic!("no mapping: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        assert!(node.lease(rank as usize).renew());
        let socket = dir.join(crate::proc::SOCKET_FILE);
        let wait = Duration::from_secs(20);
        let (conn, epoch) =
            connect_client(&socket, rank as usize, 1, 2, &FaultPlan::new(), wait).unwrap();
        assert_eq!(epoch, 1);
        let payload = payload_for(rank, 0, 0, 64);
        let mut segment = node.reserve(&node.buffer(), rank as usize, 64).unwrap();
        segment.copy_from_slice(&payload);
        let commit = CtrlMsg::Commit {
            rank,
            iteration: 0,
            variable: 0,
            offset: segment.offset() as u64,
            len: 64,
            crc: damaris_format::crc32(&payload),
        };
        (node, conn, commit)
    }

    #[test]
    fn forged_commits_are_rejected_counted_and_never_journalled() {
        let dir = std::env::temp_dir().join(format!("damaris-pump-forged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = EpeOptions {
            dir: dir.clone(),
            n_clients: 2,
            iterations: 1,
            variables: 1,
            payload_len: 64,
            data_capacity: 4096,
            epoch: 0,
            policy: OnClientFailure::Wait,
            lease_timeout: Duration::from_millis(800),
            kill_after_commits: None,
        };
        let epe = std::thread::spawn(move || run_epe(&opts));
        let (node, mut conn0, commit0) = join(&dir, 0);
        let (_, mut conn1, commit1) = join(&dir, 1);
        let CtrlMsg::Commit { offset: mine, .. } = commit0 else {
            unreachable!()
        };
        let CtrlMsg::Commit { offset: theirs, .. } = commit1 else {
            unreachable!()
        };

        // Rank 0 lies about where its data is, every way a frame can.
        let forged = |rank, offset, len| CtrlMsg::Commit {
            rank,
            iteration: 0,
            variable: 0,
            offset,
            len,
            crc: 0,
        };
        let ring = node.region_capacity() as u64;
        let lies = [
            forged(0, u64::MAX - 1, 2),  // the sum overflows
            forged(0, u64::MAX - 1, 64), // and with the right length
            forged(0, theirs, 64),       // rank 1's ring, and live there
            forged(0, mine, ring + 8),   // longer than a ring
            forged(0, mine + 64, 64),    // beyond what rank 0 reserved
            forged(1, theirs, 64),       // rank 1's frame, not its connection
        ];
        for lie in &lies {
            conn0.send(lie).unwrap();
        }
        // The pump keeps serving: the truth, behind the lies on the same
        // connection, is taken, and the iteration completes.
        conn0.send(&commit0).unwrap();
        conn1.send(&commit1).unwrap();
        for (rank, conn) in [&mut conn0, &mut conn1].into_iter().enumerate() {
            let end = CtrlMsg::EndIteration {
                rank: rank as u32,
                iteration: 0,
            };
            conn.send(&end).unwrap();
        }
        for conn in [&mut conn0, &mut conn1] {
            assert_eq!(conn.recv().unwrap(), CtrlMsg::Ack { iteration: 0 });
            assert_eq!(conn.recv().unwrap(), CtrlMsg::Shutdown);
        }

        let report = epe.join().unwrap().unwrap().node;
        assert_eq!(report.stale_events_rejected, lies.len() as u64);
        assert_eq!(report.variables_received, 2);
        assert_eq!(report.iterations_persisted, 1);
        assert_eq!(node.total_in_use(), 0);
        // Nothing of the lies reached the journal.
        let (_, history) = EventJournal::open(&dir.join(crate::proc::JOURNAL_FILE)).unwrap();
        let writes = history.iter().filter_map(|entry| match entry.payload {
            JournalPayload::Write { source, offset, .. } => Some((source, offset as u64)),
            _ => None,
        });
        assert_eq!(
            writes.collect::<BTreeSet<_>>(),
            BTreeSet::from([(0, mine), (1, theirs)])
        );
        assert_eq!(history.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
