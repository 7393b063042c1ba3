//! The dedicated-core process: the node's one dedicated core
//! ([`crate::server`]) fed from its clients' notice rings in the mapping
//! instead of the in-process queue.
//!
//! [`run_epe`] is bootstrap, a pump, and a report:
//!
//! 1. **Bootstrap.** Sweep the run directory for orphaned mappings of
//!    dead prior runs ([`damaris_shm::scan_orphans`]); build the node's
//!    configuration; create the mapping (first incarnation, a notice ring
//!    per client sized from the configuration's event queue) or re-adopt
//!    it (respawn); publish the heartbeat epoch; open the journal's file
//!    ([`EventJournal::open`]) and fence in it every rank whose lease reads
//!    revoked; build the node's shared state over the mapping (first
//!    boot: wait for every rank to register its pid); build the core over
//!    the shared state; replay (respawn).
//! 2. **The pump.** Each pass beats and stamps the mapped heartbeat,
//!    drains every client's notice ring, runs the core's `idle` pass, and
//!    on a pass that read no notice its `quiet` pass (the rule
//!    [`crate::server::run`] follows on an empty pop).
//! 3. `Terminate`, `finish`, the `done` word the clients wait for, and the
//!    report file the launcher reads.
//!
//! Everything a payload byte meets between a client's notice and the
//! disk — iteration completion, the lease sweep, failure policies, CRC
//! verification, persist retry, group commit, `MANIFEST` publish, the
//! plugin pipeline, spans — is the core's and is not repeated here. What
//! the pump owns is what is transport:
//!
//! * **Order.** Each notice is validated, admitted (its journal record
//!   durable), taken off its ring, then handled. No notice leaves a ring
//!   before its record is durable, so a kill loses none; the one a kill
//!   catches between the two is read again by the next incarnation and
//!   refused as already seen, because the same range adopted twice would
//!   be released twice.
//! * **Validation.** A notice's words come from another process;
//!   [`Pump::commit`] says what it takes for one to be believed. The ring
//!   it sits in names its rank.
//! * **Termination.** There is no `Terminate` notice: the pump decides
//!   ([`Pump::settled`]).
//!
//! The mid-drain kill (`DAMARIS_KILL_EPE_AFTER`) raises `SIGKILL` right
//! after the core admitted a write — its record durable — and before the
//! notice leaves its ring and the core handles it: the worst spot, the
//! next incarnation must recover the write from the journal file and the
//! mapping alone.

use crate::config::OnClientFailure;
use crate::epe::EventProcessingEngine;
use crate::error::DamarisError;
use crate::event::Event;
use crate::journal::{EventJournal, JournalPayload, RecordState, ReplayEntry};
use crate::node::{FaultStats, NodeReport, NodeShared};
use crate::server::DedicatedCore;
use damaris_fs::LocalDirBackend;
use damaris_shm::sync::{Arc, Ordering};
use damaris_shm::{monotonic_now_ns, pid_alive, scan_orphans, LeaseSnapshot, MappedNode, Notice};
use std::collections::{BTreeSet, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Everything one EPE incarnation needs to run.
#[derive(Debug, Clone)]
pub struct EpeOptions {
    /// Run directory: mapping, journal, reports, and `out/` live here.
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
            policy: super::env_parse(super::ENV_POLICY)?,
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
    // Release: dates the beat on the shared clock, which the orphan sweep
    // of another run Acquire-loads to tell a live mapping from a dead one.
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

    let config = super::node_config(
        opts.variables,
        opts.payload_len,
        opts.data_capacity,
        opts.policy,
        opts.lease_timeout,
    );
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
            let (clients, queue) = (opts.n_clients, config.queue_capacity);
            MappedNode::create(&mapping_path, clients, opts.data_capacity, queue)?
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

    let mut pump = Pump::new(opts, &shared, &node, &history);
    if opts.epoch == 0 {
        // The run begins when every rank has registered: a process still
        // being exec'd is not a dead rank, and the core's lease deadlines
        // start when it is built. (A respawn has the lease words to go by.)
        let joined_by = Instant::now() + Duration::from_secs(20);
        while (0..opts.n_clients).any(|c| node.client_pid(c) == 0) && Instant::now() < joined_by {
            beat(&node);
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let mut core = DedicatedCore::new(Arc::clone(&shared), engine, opts.epoch);
    if opts.epoch > 0 {
        core.replay().map_err(core_err)?;
    }

    loop {
        beat(&node);
        let read_any = pump.drain(&mut core)?;
        core.idle().map_err(core_err)?;
        if read_any {
            continue;
        }
        pump.retired.extend(core.quiet().map_err(core_err)?);
        if pump.done() {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    // No notice says `Terminate`; the core needs one to flush what never
    // completed and let its plugins finish.
    let _ = core.handle(0, Event::Terminate).map_err(core_err)?;
    let report = EpeReport {
        epoch: opts.epoch,
        node: core.finish(),
    };
    node.mark_done();
    beat(&node);
    report.write_to(&opts.report_path())?;
    Ok(report)
}

/// The transport half of the process node: what has to be remembered
/// about the notices taken off the rings, by this incarnation or — through
/// the journal's history — by the ones before it.
struct Pump<'a> {
    opts: &'a EpeOptions,
    shared: &'a NodeShared,
    node: &'a MappedNode,
    /// Every `(rank, iteration, variable)` ever journalled — a write
    /// notice read again after a kill would release its range twice.
    commits_seen: HashSet<(u32, u32, u32)>,
    /// Every `(rank, iteration)` whose end was journalled — read again, it
    /// would make the iteration look partial.
    ends_seen: HashSet<(u32, u32)>,
    /// Iterations retired, by a predecessor or by us.
    retired: BTreeSet<u32>,
    /// Ranks whose last end of iteration was taken.
    finished: Vec<bool>,
    /// Per rank, the lease word as last seen to move and when: without a
    /// sweeper, a rank whose process is gone is settled only once its word
    /// has been still for a lease timeout, as a sweeper would require.
    lease_seen: Vec<(LeaseSnapshot, Instant)>,
    /// Commits accepted by this incarnation (the chaos kill counts them).
    commits: u64,
}

impl<'a> Pump<'a> {
    fn new(
        opts: &'a EpeOptions,
        shared: &'a NodeShared,
        node: &'a MappedNode,
        history: &[ReplayEntry],
    ) -> Pump<'a> {
        let now = Instant::now();
        let mut pump = Pump {
            opts,
            shared,
            node,
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

    /// Whether the run has nothing more to expect of `rank`: its last end
    /// of iteration was taken, or it is fenced, or — only when no sweeper
    /// runs to fence it — its process is gone and its lease word has been
    /// still for one lease timeout (a word that never moved is a rank not
    /// started).
    fn settled(&self, rank: usize) -> bool {
        let (seen, since) = self.lease_seen[rank];
        self.finished[rank]
            || self.node.lease(rank).is_revoked()
            || (self.opts.policy == OnClientFailure::Wait
                && !pid_alive(self.node.client_pid(rank))
                && seen.beat() > 0
                && since.elapsed() >= self.opts.lease_timeout)
    }

    /// Notes which lease words moved since the last look (what `settled`
    /// goes by); then, whether all `iterations` are retired, or every rank
    /// is settled.
    fn done(&mut self) -> bool {
        let now = Instant::now();
        for (rank, seen) in self.lease_seen.iter_mut().enumerate() {
            let snapshot = self.node.lease(rank).snapshot();
            if snapshot != seen.0 {
                *seen = (snapshot, now);
            }
        }
        (0..self.opts.iterations).all(|it| self.retired.contains(&it))
            || (0..self.opts.n_clients).all(|rank| self.settled(rank))
    }

    /// Takes every notice waiting in every ring and hands what is believed
    /// to the core; true if there was any notice at all.
    fn drain(&mut self, core: &mut DedicatedCore) -> io::Result<bool> {
        let node = self.node;
        let mut read_any = false;
        for rank in 0..self.opts.n_clients {
            let ring = node.notices(rank);
            while let Some(words) = ring.peek() {
                read_any = true;
                let rank = rank as u32;
                let admitted = match Notice::decode(words) {
                    Some(Notice::Write {
                        variable,
                        iteration,
                        offset,
                        len,
                        crc,
                    }) => self.commit(rank, iteration, variable, offset, len, crc, core),
                    Some(Notice::EndIteration { iteration }) => {
                        self.end_iteration(rank, iteration, core)
                    }
                    // A kind no client posts is forged.
                    None => None,
                };
                // Journalled or refused: the slot is the client's again.
                ring.advance();
                match admitted {
                    Some((seq, event)) => {
                        let _ = core.handle(seq, event).map_err(core_err)?;
                    }
                    None => FaultStats::bump(&self.shared.stats.stale_events_rejected),
                }
            }
        }
        Ok(read_any)
    }

    /// A write notice from `rank`'s ring becomes a `Write` the core admits
    /// only if it is news (not of a retired iteration, not seen before),
    /// names a configured variable with that variable's size, and
    /// [`crate::node::BufferManager::adopt`] finds the range live in that
    /// rank's ring. `None`: rejected, nothing journalled.
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
        // A zombie — fenced, still posting — is refused here.
        let seq = core.admit(&event)?;
        self.commits_seen.insert(key);
        self.commits += 1;
        if Some(self.commits) == self.opts.kill_after_commits {
            // Chaos: die mid-drain. The record is durable; the notice is
            // still on its ring; the core has not heard of it. The report
            // is what it would have returned.
            let dying = EpeReport {
                epoch: self.opts.epoch,
                node: core.report(),
            };
            let _ = dying.write_to(&self.opts.report_path());
            damaris_shm::kill_self_hard();
        }
        Some((seq, event))
    }

    /// An end-of-iteration notice: `None` if its iteration is retired or
    /// it was counted before, admitted otherwise.
    fn end_iteration(
        &mut self,
        rank: u32,
        iteration: u32,
        core: &DedicatedCore,
    ) -> Option<(u64, Event)> {
        if self.retired.contains(&iteration) || self.ends_seen.contains(&(rank, iteration)) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::client::payload_for;

    /// One rank as the test plays it: its view of the mapping, registered,
    /// and the write notice of a payload it really wrote.
    fn join(dir: &Path, rank: u32) -> (MappedNode, Notice) {
        let joined_by = Instant::now() + Duration::from_secs(20);
        let node = loop {
            match MappedNode::open(&dir.join(crate::proc::MAPPING_FILE)) {
                Ok(node) => break node,
                Err(e) if Instant::now() > joined_by => panic!("no mapping: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        node.register(rank as usize, damaris_shm::this_pid());
        assert!(node.lease(rank as usize).renew());
        let payload = payload_for(rank, 0, 0, 64);
        let mut segment = node.reserve(&node.buffer(), rank as usize, 64).unwrap();
        segment.copy_from_slice(&payload);
        let write = Notice::Write {
            variable: 0,
            iteration: 0,
            offset: segment.offset() as u64,
            len: 64,
            crc: damaris_format::crc32(&payload),
        };
        (node, write)
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
        let (node, write0) = join(&dir, 0);
        let (_, write1) = join(&dir, 1);
        let Notice::Write { offset: mine, .. } = write0 else {
            unreachable!()
        };
        let Notice::Write { offset: theirs, .. } = write1 else {
            unreachable!()
        };

        // Rank 0 lies about where its data is, every way a notice can.
        // What it cannot do is speak for rank 1: the ring a notice sits in
        // names its rank, and a notice carries no rank of its own to forge.
        let forged = |offset, len| {
            let (variable, iteration, crc) = (0, 0, 0);
            Notice::Write {
                variable,
                iteration,
                offset,
                len,
                crc,
            }
            .encode()
        };
        let ring = node.region_capacity() as u64;
        let lies = [
            forged(u64::MAX - 1, 2),  // the sum overflows
            forged(u64::MAX - 1, 64), // and with the right length
            forged(theirs, 64),       // rank 1's ring, and live there
            forged(mine, ring + 8),   // longer than a ring
            forged(mine + 64, 64),    // beyond what rank 0 reserved
            [7, 0, 0, 0],             // a kind no notice has
        ];
        let rank0 = node.notices(0);
        for lie in lies {
            assert!(rank0.post(lie));
        }
        // The pump keeps serving: the truth, behind the lies in the same
        // ring, is taken, and the iteration completes.
        assert!(rank0.post(write0.encode()));
        assert!(node.notices(1).post(write1.encode()));
        for rank in 0..2 {
            let end = Notice::EndIteration { iteration: 0 };
            assert!(node.notices(rank).post(end.encode()));
        }

        let report = epe.join().unwrap().unwrap().node;
        assert!(node.done(), "the finished EPE says so");
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
