//! The dedicated-core process: the node's one dedicated core
//! ([`crate::server`]) over the node's layout in a file mapping, which its
//! clients map too.
//!
//! [`run_epe`] is what belongs to a process around [`server::run`], the
//! incarnation both nodes run:
//!
//! 1. **Boot.** Sweep the run directory for orphaned mappings of dead
//!    prior runs ([`damaris_shm::scan_orphans`]); build the node's
//!    configuration and engine; create the mapping (first incarnation, a
//!    notice ring per client sized from the configuration's event queue)
//!    or re-adopt it (respawn); build the node's shared state over it and
//!    run the recovery scan; at first boot, wait for every rank to
//!    register its pid.
//! 2. **The core.** `server::run` replays (respawn), publishes the epoch
//!    and drains until its `done` holds. Asked before each pass, `done`
//!    stamps the mapped heartbeat for the orphan sweeps of other runs and
//!    asks [`Pump::done`]: there is no `Terminate` notice. Its `admitted`
//!    hook is the chaos kill.
//! 3. **The end.** The `done` word the clients wait for, and the report
//!    file the launcher reads.
//!
//! Everything a payload byte meets between a client's notice and the
//! disk — validation, iteration completion, the lease sweep,
//! failure policies, persist retry, group commit, `MANIFEST` publish, the
//! plugin pipeline, spans — is the core's and is not repeated here.
//!
//! The mid-drain kill (`DAMARIS_KILL_EPE_AFTER`) raises `SIGKILL` right
//! after the core took a write — its ring's `tail` past it — and before
//! the core handles it: the worst spot, the next incarnation must recover
//! the write from the mapping alone, as the notice in `[applied, tail)`
//! that it names.

use crate::config::OnClientFailure;
use crate::epe::EventProcessingEngine;
use crate::error::DamarisError;
use crate::event::Event;
use crate::node::{NodeReport, NodeShared};
use crate::server::{self, DedicatedCore};
use damaris_fs::LocalDirBackend;
use damaris_shm::sync::{Arc, Ordering};
use damaris_shm::{monotonic_now_ns, pid_alive, scan_orphans, LeaseSnapshot, MappedNode};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Everything one EPE incarnation needs to run.
#[derive(Debug, Clone)]
pub struct EpeOptions {
    /// Run directory: mapping, reports, and `out/` live here.
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
    /// Chaos: raise `SIGKILL` on ourselves after taking this many writes
    /// (mid-drain, the last one taken and not handled).
    pub kill_after_commits: Option<u64>,
}

impl EpeOptions {
    /// Rebuilds the options a launcher exported into the environment.
    pub fn from_env() -> io::Result<EpeOptions> {
        Ok(EpeOptions {
            dir: super::env_parse(super::ENV_DIR)?,
            n_clients: super::env_parse(super::ENV_CLIENTS)?,
            iterations: super::env_parse(super::ENV_ITERS)?,
            variables: super::env_parse(super::ENV_VARS)?,
            payload_len: super::env_parse(super::ENV_PAYLOAD)?,
            data_capacity: super::env_parse(super::ENV_CAPACITY)?,
            epoch: super::env_parse(super::ENV_EPOCH)?,
            policy: super::env_parse(super::ENV_POLICY)?,
            lease_timeout: Duration::from_millis(super::env_parse(super::ENV_LEASE_MS)?),
            kill_after_commits: match std::env::var_os(super::ENV_KILL_EPE_AFTER) {
                None => None,
                Some(_) => Some(super::env_parse(super::ENV_KILL_EPE_AFTER)?),
            },
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
    config.check_notice_ring(opts.n_clients).map_err(core_err)?;
    let engine = EventProcessingEngine::build(&config, &[]).map_err(core_err)?;
    // Create or re-adopt the mapping.
    let adopted = (opts.epoch > 0).then(|| MappedNode::open(&mapping_path).ok());
    let node = match adopted.flatten() {
        Some(node) => {
            node.restamp_creator();
            node
        }
        // First boot — or the mapping vanished with the machine state
        // (tmpfs cleared under us), and with it all there was to replay.
        None => {
            let (clients, queue) = (opts.n_clients, config.queue_capacity);
            MappedNode::create(&mapping_path, clients, opts.data_capacity, queue)?
        }
    };
    let backend = Arc::new(LocalDirBackend::new(opts.dir.join(super::OUT_DIR))?);
    let shared = Arc::new(NodeShared::new(config, node.clone(), backend, 0));
    shared.recover().map_err(core_err)?;
    shared.stats.shm_orphans_removed.add(gc.removed as u64);
    shared
        .stats
        .shm_orphans_quarantined
        .add(gc.quarantined as u64);

    let mut pump = Pump::new(opts, &node);
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
    let mut commits = 0;
    let done = || {
        beat(&node);
        pump.done()
    };
    let admitted = |core: &DedicatedCore, event: &Event| {
        if let Event::Write { .. } = event {
            commits += 1;
            if Some(commits) == opts.kill_after_commits {
                // Chaos: die mid-drain. The notice is taken and not
                // applied: its slot still holds it; the core has not acted
                // on it. The report is what it would have returned.
                let dying = EpeReport {
                    epoch: opts.epoch,
                    node: core.report(),
                };
                let _ = dying.write_to(&opts.report_path());
                damaris_shm::kill_self_hard();
            }
        }
    };
    let report = EpeReport {
        epoch: opts.epoch,
        node: server::run(shared, engine, opts.epoch, done, admitted).map_err(core_err)?,
    };
    node.mark_done();
    beat(&node);
    report.write_to(&opts.report_path())?;
    Ok(report)
}

/// When the process node's run is over: it has no [`crate::NodeRuntime::finish`]
/// to ask, so the core's `done` looks at the ranks.
struct Pump<'a> {
    opts: &'a EpeOptions,
    node: &'a MappedNode,
    /// Per rank, the lease word as last seen to move and when: without a
    /// sweeper, a rank whose process is gone is settled only once its word
    /// has been still for a lease timeout, as a sweeper would require.
    lease_seen: Vec<(LeaseSnapshot, Instant)>,
}

impl<'a> Pump<'a> {
    fn new(opts: &'a EpeOptions, node: &'a MappedNode) -> Pump<'a> {
        let now = Instant::now();
        Pump {
            opts,
            node,
            lease_seen: (0..opts.n_clients)
                .map(|c| (node.lease(c).snapshot(), now))
                .collect(),
        }
    }

    /// Whether the run has nothing more to expect of `rank`: a core took
    /// its end of the last iteration (the mapped `ended` word, which
    /// outlives the core), or it is fenced, or — only when no sweeper runs
    /// to fence it — its process is gone and its lease word has been still
    /// for one lease timeout (a word that never moved is a rank not
    /// started).
    fn settled(&self, rank: usize) -> bool {
        let (seen, since) = self.lease_seen[rank];
        // Relaxed: a count that publishes nothing.
        self.node.ended(rank).load(Ordering::Relaxed) >= u64::from(self.opts.iterations)
            || self.node.lease(rank).is_revoked()
            || (self.opts.policy == OnClientFailure::Wait
                && !pid_alive(self.node.client_pid(rank))
                && seen.beat() > 0
                && since.elapsed() >= self.opts.lease_timeout)
    }

    /// Notes which lease words moved since the last look (what `settled`
    /// goes by); then, whether every rank is settled. The core retires an
    /// iteration only once every rank ended it or is fenced.
    fn done(&mut self) -> bool {
        let now = Instant::now();
        for (rank, seen) in self.lease_seen.iter_mut().enumerate() {
            let snapshot = self.node.lease(rank).snapshot();
            if snapshot != seen.0 {
                *seen = (snapshot, now);
            }
        }
        (0..self.opts.n_clients).all(|rank| self.settled(rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::{node_config, payload_for};
    use crate::DamarisClient;
    use damaris_shm::Notice;

    /// The options of a one-iteration run of one 64-byte variable by two
    /// ranks in `dir`, under `wait`.
    fn small_run(dir: &Path) -> EpeOptions {
        let _ = std::fs::remove_dir_all(dir);
        EpeOptions {
            dir: dir.to_path_buf(),
            n_clients: 2,
            iterations: 1,
            variables: 1,
            payload_len: 64,
            data_capacity: 4096,
            epoch: 0,
            policy: OnClientFailure::Wait,
            lease_timeout: Duration::from_millis(800),
            kill_after_commits: None,
        }
    }

    /// The mapping the EPE in `dir` creates, once it has.
    fn attach(dir: &Path) -> MappedNode {
        let joined_by = Instant::now() + Duration::from_secs(20);
        loop {
            match MappedNode::open(&dir.join(crate::proc::MAPPING_FILE)) {
                Ok(node) => return node,
                Err(e) if Instant::now() > joined_by => panic!("no mapping: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// One rank as the test plays it: its view of the mapping, registered,
    /// and the write notice of a payload it really wrote.
    fn join(dir: &Path, rank: u32) -> (MappedNode, Notice) {
        let node = attach(dir);
        node.register(rank as usize, damaris_shm::this_pid());
        assert!(node.lease(rank as usize).renew());
        let payload = payload_for(rank, 0, 0, 64);
        let mut segment = node.reserve(rank as usize, 64).unwrap();
        segment.copy_from_slice(&payload);
        let write = Notice::Write {
            variable: 0,
            iteration: 0,
            offset: segment.offset() as u64,
            len: 64,
        };
        (node, write)
    }

    /// A dynamic write's notice over `len` bytes of rank 0's ring whose
    /// shape header holds `header`: the header rank 0 would write for
    /// `ndims` dimensions, if it told the truth.
    fn forged_shape(node: &MappedNode, ndims: u32, header: &[u64], len: usize) -> [u64; 4] {
        let mut segment = node.reserve(0, len).unwrap();
        let words = header.iter().flat_map(|word| word.to_ne_bytes());
        for (byte, word) in segment.as_mut_slice().iter_mut().zip(words) {
            *byte = word;
        }
        let swarm = 1;
        Notice::WriteDynamic {
            variable: swarm,
            ndims,
            iteration: 0,
            offset: segment.offset() as u64,
            len: len as u64,
        }
        .encode()
    }

    #[test]
    fn forged_notices_are_refused_counted_and_applied_at_once() {
        let dir = std::env::temp_dir().join(format!("damaris-pump-forged-{}", std::process::id()));
        let opts = small_run(&dir);
        let epe = std::thread::spawn(move || run_epe(&opts));
        // Ranges rank 0 really reserved, whose shape headers lie — ahead of
        // its real write in its ring, so releasing that one frees them.
        let node = attach(&dir);
        let shapes = [
            // The header's rank is not the one its notice declares.
            forged_shape(&node, 1, &[2, 16], 32),
            // Its dims' product overflows.
            forged_shape(&node, 2, &[2, u64::MAX, 2], 40),
            // Header and payload are not the segment.
            forged_shape(&node, 1, &[1, 16], 40),
            // The header is longer than its segment.
            forged_shape(&node, 8, &[8], 32),
        ];
        let (_, write0) = join(&dir, 0);
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
        let forged = |variable, offset, len| {
            let iteration = 0;
            Notice::Write {
                variable,
                iteration,
                offset,
                len,
            }
            .encode()
        };
        let ring = node.region_capacity() as u64;
        let user = |action| Notice::User {
            action,
            iteration: 0,
        };
        let (var0, swarm) = (0, 1);
        let lies = [
            forged(var0, u64::MAX - 1, 2),  // the sum overflows
            forged(var0, u64::MAX - 1, 64), // and with the right length
            forged(var0, theirs, 64),       // rank 1's ring, and live there
            forged(var0, mine, ring + 8),   // longer than a ring
            forged(var0, mine + 64, 64),    // beyond what rank 0 reserved
            forged(swarm, mine, 1),         // a dynamic variable, as static
            [7, 0, 0, 0],                   // a kind no notice has
            user(1).encode(),               // past the one configured event
            user(u32::MAX).encode(),
        ];
        let rank0 = node.notices(0);
        for lie in lies.into_iter().chain(shapes) {
            assert!(rank0.post(lie));
        }
        // The core keeps serving: the truth, behind the lies in the same
        // ring, is taken, and the iteration completes.
        assert!(rank0.post(write0.encode()));
        assert!(node.notices(1).post(write1.encode()));
        for rank in 0..2 {
            let end = Notice::EndIteration { iteration: 0 };
            assert!(node.notices(rank).post(end.encode()));
        }

        let report = epe.join().unwrap().unwrap().node;
        assert!(node.done(), "the finished EPE says so");
        let refused = (lies.len() + shapes.len()) as u64;
        assert_eq!(report.stale_events_rejected, refused);
        assert_eq!(report.variables_received, 2);
        assert_eq!(report.user_events, 0);
        assert_eq!(report.iterations_persisted, 1);
        assert_eq!(node.total_in_use(), 0);
        // Every notice, lie or truth, was applied: nothing is left for a
        // successor to replay, and every slot is free again.
        for rank in 0..2 {
            let ring = node.notices(rank);
            assert_eq!(ring.unapplied().len(), 0);
            assert_eq!(ring.applied.load(Ordering::Relaxed), ring.posted());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A respawned EPE publishes its epoch only once it has replayed: a
    /// rank that sees the new epoch sees the `ended` word of the end the
    /// dead EPE took and never handled.
    #[test]
    fn a_respawned_epe_publishes_its_epoch_after_its_replay() {
        let dir = std::env::temp_dir().join(format!("damaris-pump-epoch-{}", std::process::id()));
        let mut opts = small_run(&dir);
        let config = node_config(1, 64, opts.data_capacity, opts.policy, opts.lease_timeout);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(crate::proc::MAPPING_FILE);
        let queue = config.queue_capacity;
        let node = MappedNode::create(&path, 2, opts.data_capacity, queue).unwrap();
        // Incarnation 0 published its epoch, took rank 0's end, and died
        // before it handled it. Rank 1's end is news.
        node.heartbeat().begin_epoch(1);
        let end = Notice::EndIteration { iteration: 0 }.encode();
        for rank in 0..2 {
            assert!(node.notices(rank).post(end));
        }
        node.notices(0).advance();
        opts.epoch = 1;
        let epe = std::thread::spawn(move || run_epe(&opts));
        let published_by = Instant::now() + Duration::from_secs(20);
        while node.heartbeat().epoch() == 1 {
            assert!(Instant::now() < published_by, "no new epoch");
            std::hint::spin_loop();
        }
        // Relaxed: the Acquire read of the epoch orders it.
        let ended = node.ended(0).load(Ordering::Relaxed);
        assert_eq!(ended, 1, "epoch 2 is out, the end it replays is not");
        let report = epe.join().unwrap().unwrap();
        assert_eq!(report.node.events_replayed, 1);
        assert_eq!(node.heartbeat().epoch(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Ranks that are `DamarisClient`s: a rewrite of a variable in its
    /// iteration is a new range, so news, and the later bytes persist; a
    /// dropped region is released in ring order; an abandon of a range
    /// nobody reserved, or of one already written, is refused and counted.
    #[test]
    fn rewrites_and_dropped_regions_are_news_and_a_forged_abandon_is_not() {
        let dir = std::env::temp_dir().join(format!("damaris-pump-rewrite-{}", std::process::id()));
        let opts = small_run(&dir);
        let config = node_config(1, 64, opts.data_capacity, opts.policy, opts.lease_timeout);
        let epe = std::thread::spawn(move || run_epe(&opts));
        let node = attach(&dir);
        let out = dir.join(crate::proc::OUT_DIR);
        let rank = |r| DamarisClient::over_mapping(config.clone(), node.clone(), r, &out).unwrap();
        let (rank0, rank1) = (rank(0), rank(1));

        let (first, second) = (payload_for(0, 0, 0, 64), payload_for(0, 1, 0, 64));
        rank0.write("var0", 0, &first).unwrap();
        drop(rank0.alloc("var0", 0).unwrap());
        rank0.write("var0", 0, &second).unwrap();
        // Rank 0's ring starts the data window: its three 64-byte ranges
        // are at 0, 64 and 128. One forged abandon is past them, one names
        // the first write's range, which would then be released twice.
        for offset in [512, 0] {
            let len = 64;
            let forged = Notice::Abandon {
                iteration: 0,
                offset,
                len,
            };
            assert!(node.notices(0).post(forged.encode()));
        }
        rank1.write("var0", 0, &payload_for(1, 0, 0, 64)).unwrap();
        rank0.end_iteration(0).unwrap();
        rank1.end_iteration(0).unwrap();

        let report = epe.join().unwrap().unwrap().node;
        assert_eq!(report.stale_events_rejected, 2, "the forged abandons");
        assert_eq!(report.variables_received, 3, "the rewrite is not refused");
        assert_eq!(report.iterations_persisted, 1);
        assert_eq!(node.total_in_use(), 0);
        let file = out.join("node-0").join("iter-000000.sdf");
        let reader = damaris_format::SdfReader::open(file).unwrap();
        assert_eq!(reader.read_bytes("/iter-0/rank-0/var0").unwrap(), second);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
