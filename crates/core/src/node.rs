//! Node runtime: wires one dedicated-core thread to K client handles over
//! the node's layout — its rings, notice rings and words in one region of
//! process memory ([`MappedNode::heap`]) — one SMP node of the Damaris
//! deployment (paper Fig. 1).
//!
//! # Respawn
//!
//! The thread runs [`server::run`], the incarnation both nodes run. With
//! `<resilience epe_respawn="N">` an incarnation that dies (error or
//! panic) is respawned in place, on the same thread, up to N times: each
//! replays what the dead one took from the notice rings and did not
//! finish, re-adopting the shared-memory segments it held, then publishes
//! a new heartbeat epoch and resumes draining the same rings. With the
//! default `epe_respawn="0"` the death surfaces at [`NodeRuntime::finish`].

use crate::client::DamarisClient;
use crate::config::Config;
use crate::epe::EventProcessingEngine;
use crate::error::DamarisError;
use crate::event::Event;
use crate::names::NameIndex;
use crate::plugin::PluginFactory;
use crate::server;
use damaris_fs::{LocalDirBackend, StorageBackend};
use damaris_obs::{Counter, MetricsSnapshot, Recorder, Registry, TraceRing, FLAG_SERVER};
use damaris_shm::ring::Reach;
use damaris_shm::sync::{Arc, AtomicBool, CachePadded, Mutex, Ordering};
use damaris_shm::{ClientLease, HeartbeatWord, MappedNode, Notice};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Failure/degradation counters shared across the node (and the persist
/// path's two batch counters): clients bump the backpressure ones, the
/// dedicated core bumps the persist/plugin ones, and the final
/// [`NodeReport`] copies them out.
///
/// The fields are named handles into the node's metrics [`Registry`] (one
/// `node.*` counter each) rather than raw atomics, so the same totals are
/// visible through [`NodeRuntime::metrics_snapshot`] — `NodeReport` stays
/// the stable end-of-run snapshot view. A `Counter` bump is one Relaxed
/// `fetch_add`: nothing is published under these counters, and `get` runs
/// after the dedicated-core join orders every bump (same reasoning that
/// previously justified Relaxed on the raw `AtomicU64`s).
#[derive(Debug)]
pub(crate) struct FaultStats {
    pub persist_retries: Counter,
    pub iterations_degraded: Counter,
    pub writes_dropped: Counter,
    pub sync_fallback_writes: Counter,
    pub plugin_failures: Counter,
    pub plugins_quarantined: Counter,
    pub recovery_actions: Counter,
    pub epe_respawns: Counter,
    pub events_replayed: Counter,
    pub stale_events_rejected: Counter,
    pub heartbeat_stale_observed: Counter,
    pub client_leases_expired: Counter,
    pub segments_reclaimed: Counter,
    pub partial_iterations: Counter,
    pub shm_orphans_removed: Counter,
    pub shm_orphans_quarantined: Counter,
    pub storage_pressure_degraded: Counter,
    pub storage_pressure_readonly: Counter,
    pub storage_pressure_recovered: Counter,
    pub storage_pressure_sheds: Counter,
    pub storage_pressure_gc_bytes: Counter,
    pub commit_batches: Counter,
    pub manifest_publishes: Counter,
}

impl FaultStats {
    pub(crate) fn new(metrics: &Registry) -> FaultStats {
        FaultStats {
            persist_retries: metrics.counter("node.persist_retries"),
            iterations_degraded: metrics.counter("node.iterations_degraded"),
            writes_dropped: metrics.counter("node.writes_dropped"),
            sync_fallback_writes: metrics.counter("node.sync_fallback_writes"),
            plugin_failures: metrics.counter("node.plugin_failures"),
            plugins_quarantined: metrics.counter("node.plugins_quarantined"),
            recovery_actions: metrics.counter("node.recovery_actions"),
            epe_respawns: metrics.counter("node.epe_respawns"),
            events_replayed: metrics.counter("node.events_replayed"),
            stale_events_rejected: metrics.counter("node.stale_events_rejected"),
            heartbeat_stale_observed: metrics.counter("node.heartbeat_stale_observed"),
            client_leases_expired: metrics.counter("node.client_leases_expired"),
            segments_reclaimed: metrics.counter("node.segments_reclaimed"),
            partial_iterations: metrics.counter("node.partial_iterations"),
            shm_orphans_removed: metrics.counter("node.shm_orphans_removed"),
            shm_orphans_quarantined: metrics.counter("node.shm_orphans_quarantined"),
            storage_pressure_degraded: metrics.counter("node.storage_pressure_degraded"),
            storage_pressure_readonly: metrics.counter("node.storage_pressure_readonly"),
            storage_pressure_recovered: metrics.counter("node.storage_pressure_recovered"),
            storage_pressure_sheds: metrics.counter("node.storage_pressure_sheds"),
            storage_pressure_gc_bytes: metrics.counter("node.storage_pressure_gc_bytes"),
            commit_batches: metrics.counter("node.commit_batches"),
            manifest_publishes: metrics.counter("node.manifest_publishes"),
        }
    }

    pub(crate) fn bump(counter: &Counter) {
        counter.inc();
    }

    pub(crate) fn get(counter: &Counter) -> u64 {
        counter.get()
    }
}

/// Per-node observability state: one trace ring per client rank plus one
/// for the dedicated core, all timed against a single anchor so the
/// merged trace is one timeline. Empty (every recorder disabled) when the
/// configuration turns tracing off.
pub(crate) struct NodeObs {
    /// Per-client rings, indexed by client id.
    pub client_rings: Vec<Arc<TraceRing>>,
    /// The dedicated core's own ring.
    pub server_ring: Option<Arc<TraceRing>>,
    /// Shared monotonic epoch for every recorder of this node.
    pub anchor: Instant,
    /// Where the dedicated core flushes `node-<id>.dtrc`, if configured.
    pub trace_dir: Option<PathBuf>,
}

impl NodeObs {
    fn new(cfg: &crate::config::ObservabilityConfig, n_clients: usize) -> NodeObs {
        let anchor = Instant::now();
        if !cfg.enabled {
            return NodeObs {
                client_rings: Vec::new(),
                server_ring: None,
                anchor,
                trace_dir: None,
            };
        }
        NodeObs {
            client_rings: (0..n_clients)
                .map(|_| TraceRing::new(cfg.ring_capacity))
                .collect(),
            server_ring: Some(TraceRing::new(cfg.ring_capacity)),
            anchor,
            trace_dir: cfg.trace_dir.as_ref().map(PathBuf::from),
        }
    }

    /// Recorder for one client rank (disabled when tracing is off).
    pub(crate) fn client_recorder(&self, id: u32) -> Recorder {
        match self.client_rings.get(id as usize) {
            Some(ring) => Recorder::new(Arc::clone(ring), self.anchor, id, 0),
            None => Recorder::disabled(),
        }
    }

    /// Recorder for the dedicated core.
    pub(crate) fn server_recorder(&self) -> Recorder {
        match &self.server_ring {
            Some(ring) => Recorder::new(
                Arc::clone(ring),
                self.anchor,
                crate::server::SERVER_SOURCE,
                FLAG_SERVER,
            ),
            None => Recorder::disabled(),
        }
    }

    /// Every ring of the node, for the dedicated core's between-iteration
    /// flush (the single consumer of all of them).
    pub(crate) fn rings(&self) -> impl Iterator<Item = &Arc<TraceRing>> {
        self.client_rings.iter().chain(self.server_ring.iter())
    }
}

/// A user event from no client ([`NodeRuntime::inject_event`]), with each
/// notice ring's [`posted`](damaris_shm::NoticeRing::posted) mark then.
pub(crate) type Injected = (Event, Vec<u64>);

/// State shared between the clients and the server of one node.
///
/// Mostly read-mostly words. The ones written per call or per event live
/// in the node's layout, each writer's on lines of its own (DESIGN.md §8,
/// "Who writes which line").
pub(crate) struct NodeShared {
    pub config: Config,
    /// `config`'s variables by name, built once at start: what a by-name
    /// client call resolves its variable through.
    pub names: NameIndex,
    /// The node's layout: per client a data ring, a notice ring and a
    /// lease; the heartbeat; and the data window the segments point into.
    /// On the heap for a threaded node, in the shared mapping for a
    /// process node (whose geometry then overrides `config`'s buffer
    /// element).
    pub node: MappedNode,
    pub clients: usize,
    pub node_id: u32,
    /// Storage target; a trait object so tests can decorate it with
    /// fault injection ([`damaris_fs::FaultyBackend`]).
    pub backend: Arc<dyn StorageBackend>,
    pub stats: FaultStats,
    /// Named-metric namespace the [`FaultStats`] counters live in (and
    /// anything else — e.g. the per-phase histograms the server feeds
    /// from flushed trace records).
    pub metrics: Arc<Registry>,
    /// Trace rings + recorder plumbing (see [`NodeObs`]).
    pub obs: NodeObs,
    /// User events from no client, which the core takes once per pass
    /// (none on a process node); it locks this every pass, so it has a
    /// block of its own.
    pub control: CachePadded<Mutex<Vec<Injected>>>,
    /// Set once by [`NodeRuntime::finish`]: the threaded node's core ends
    /// after its next pass that reads nothing.
    pub finishing: AtomicBool,
    /// The storage-pressure state machine (dormant unless the backend has
    /// a [`damaris_fs::DiskSentinel`]); polled by the dedicated core,
    /// observed by embedders via [`NodeRuntime::pressure_state`].
    pub pressure: crate::pressure::PressureMachine,
}

impl NodeShared {
    /// A node's shared state over `node`, with nothing running on it yet.
    /// Everything a dedicated core built over it needs to survive its own
    /// death is in `node`: over a mapping, outside the process.
    pub(crate) fn new(
        config: Config,
        node: MappedNode,
        backend: Arc<dyn StorageBackend>,
        node_id: u32,
    ) -> NodeShared {
        let metrics = Arc::new(Registry::new());
        let clients = node.n_clients();
        NodeShared {
            names: NameIndex::new(&config),
            node,
            clients,
            node_id,
            backend,
            stats: FaultStats::new(&metrics),
            metrics,
            obs: NodeObs::new(&config.observability, clients),
            control: CachePadded::new(Mutex::new(Vec::new())),
            finishing: AtomicBool::new(false),
            pressure: crate::pressure::PressureMachine::new(),
            config,
        }
    }

    /// The dedicated core's liveness word.
    pub(crate) fn heartbeat(&self) -> &HeartbeatWord {
        self.node.heartbeat()
    }

    /// The liveness lease of one client, if the id is in range.
    pub(crate) fn lease(&self, client: usize) -> Option<&ClientLease> {
        (client < self.clients).then(|| self.node.lease(client))
    }

    /// Bytes currently reserved across the whole buffer (leak detector:
    /// zero once every segment of a finished run was released).
    pub(crate) fn in_use(&self) -> usize {
        self.node.total_in_use() as usize
    }

    /// The recovery scan each node runs at boot, before its core serves:
    /// what a previous run, or a dead incarnation, left half-written is
    /// removed or quarantined, so nothing new is written beside it.
    pub(crate) fn recover(&self) -> Result<(), DamarisError> {
        let scan = damaris_fs::recover(self.backend.as_ref())
            .map_err(|e| DamarisError::Storage(damaris_format::SdfError::Io(e)))?;
        if !scan.is_clean() {
            eprintln!(
                "[damaris node {}] recovery: removed {} orphan tmp file(s), \
                 quarantined {} torn file(s)",
                self.node_id,
                scan.removed_tmp.len(),
                scan.quarantined.len()
            );
        }
        self.stats.recovery_actions.add(scan.actions());
        Ok(())
    }

    /// Posts `notice` into `client`'s own notice ring, calling `on_full`
    /// each time the ring refuses it, to wait before the next try or give
    /// up.
    // ANALYZE: hot
    pub(crate) fn notify(
        &self,
        client: u32,
        notice: Notice,
        mut on_full: impl FnMut() -> Result<(), DamarisError>,
    ) -> Result<(), DamarisError> {
        let words = notice.encode();
        let ring = self.node.notices(client as usize);
        while !ring.post(words) {
            on_full()?;
        }
        Ok(())
    }

    /// The event a notice from `client`'s ring stands for, if it is
    /// believable: a write names a variable of the layout kind its notice
    /// says, and its size or a shape its segment carries ([`shape_of`]); a
    /// user event an entry of the event list; a range is live in `client`'s
    /// ring ([`MappedNode::adopt_within`]). Checked arithmetic throughout.
    pub(crate) fn event_of(&self, client: u32, notice: Notice, reach: &mut Reach) -> Option<Event> {
        let mut adopt = |offset: u64, len: u64| {
            let (offset, len) = (usize::try_from(offset).ok()?, usize::try_from(len).ok()?);
            self.node.adopt_within(client as usize, offset, len, reach)
        };
        let layout = |variable: u32, dynamic: bool| {
            let layout = self.config.layout_of(self.config.variable(variable)?);
            (layout.dynamic == dynamic).then_some(layout)
        };
        Some(match notice {
            Notice::Write {
                variable,
                iteration,
                offset,
                len,
            } => {
                if layout(variable, false)?.byte_size() != len {
                    return None;
                }
                Event::Write {
                    variable_id: variable,
                    iteration,
                    source: client,
                    segment: adopt(offset, len)?,
                    dynamic_layout: None,
                }
            }
            Notice::WriteDynamic {
                variable,
                ndims,
                iteration,
                offset,
                len,
            } => {
                let dtype = layout(variable, true)?.dtype;
                let mut segment = adopt(offset, len)?;
                let (header, dims) = shape_of(segment.as_slice(), ndims)?;
                let bytes = dims
                    .iter()
                    .try_fold(dtype.size() as u64, |n, &d| n.checked_mul(d))?;
                if (header as u64).checked_add(bytes)? != len {
                    return None;
                }
                // The stored view is the payload, but what it releases and
                // names is the whole reservation: an empty payload ends
                // where the reservation does, maybe at the ring's end.
                segment.skip(header);
                Event::Write {
                    variable_id: variable,
                    iteration,
                    source: client,
                    segment,
                    dynamic_layout: Some(damaris_format::Layout::new(dtype, &dims)),
                }
            }
            Notice::EndIteration { iteration } => Event::EndIteration {
                iteration,
                source: client,
            },
            Notice::Abandon {
                iteration,
                offset,
                len,
            } => Event::Abandon {
                iteration,
                source: client,
                segment: adopt(offset, len)?,
            },
            Notice::User { action, iteration } => Event::User {
                name: self.config.actions.get(action as usize)?.event.clone(),
                iteration,
                source: client,
            },
        })
    }
}

/// Reads the shape a dynamic write's notice says has `ndims` dimensions
/// off the front of its segment `bytes` — the rank, then the dims, one
/// native-endian word each: the header's length and the dims, if it fits
/// the segment and its rank word says `ndims`.
fn shape_of(bytes: &[u8], ndims: u32) -> Option<(usize, Vec<u64>)> {
    let len = shape_len(usize::try_from(ndims).ok()?)?;
    let mut words = bytes.get(..len)?.chunks_exact(8).map(|word| {
        let mut bytes = [0; 8];
        bytes.copy_from_slice(word);
        u64::from_ne_bytes(bytes)
    });
    (words.next()? == u64::from(ndims)).then(|| (len, words.collect()))
}

/// The length of the shape header in front of a dynamic write's payload
/// of `ndims` dimensions: the rank's word and one per dimension.
pub(crate) fn shape_len(ndims: usize) -> Option<usize> {
    ndims.checked_add(1)?.checked_mul(8)
}

/// Final accounting returned by [`NodeRuntime::finish`].
///
/// This is a *snapshot view*: every field is either copied from a named
/// registry counter (its `metric:` tag names it — the same total is live
/// under [`NodeRuntime::metrics_snapshot`]) or computed by the server
/// loop / backend at shutdown (`metric: report-only`). New counters go in
/// the registry, not here as bare fields — `xtask analyze` enforces the tag.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeReport {
    /// Iterations whose data was persisted.
    /// metric: report-only (server-loop accumulator)
    pub iterations_persisted: u64,
    /// Write notifications received.
    /// metric: report-only (server-loop accumulator)
    pub variables_received: u64,
    /// Payload bytes moved through shared memory.
    /// metric: report-only (server-loop accumulator)
    pub bytes_received: u64,
    /// User events dispatched.
    /// metric: report-only (server-loop accumulator)
    pub user_events: u64,
    /// SDF files created by this node's backend.
    /// metric: report-only (backend accounting)
    pub files_created: u64,
    /// Bytes written to storage (post-filter).
    /// metric: report-only (backend accounting)
    pub bytes_stored: u64,
    /// Peak shared-memory bytes resident in the metadata store — how much
    /// of the buffer the node actually needed (buffer-sizing guidance).
    /// metric: report-only (server-loop accumulator)
    pub peak_resident_bytes: u64,
    /// Persist attempts retried after a transient storage failure.
    /// metric: node.persist_retries
    pub persist_retries: u64,
    /// Iterations whose data was dropped because persist exhausted its
    /// retry budget/deadline (the run continued — graceful degradation).
    /// metric: node.iterations_degraded
    pub iterations_degraded: u64,
    /// Client writes dropped under the `drop` backpressure policy.
    /// metric: node.writes_dropped
    pub writes_dropped: u64,
    /// Client writes that bypassed shared memory under the `sync-fallback`
    /// backpressure policy (written synchronously by the compute core).
    /// metric: node.sync_fallback_writes
    pub sync_fallback_writes: u64,
    /// Plugin invocations that failed (error return or caught panic).
    /// metric: node.plugin_failures
    pub plugin_failures: u64,
    /// Plugins disabled after `plugin_quarantine` consecutive failures.
    /// metric: node.plugins_quarantined
    pub plugins_quarantined: u64,
    /// Startup recovery actions (orphan `*.tmp` deletions + torn-file
    /// quarantines) taken before serving.
    /// metric: node.recovery_actions
    pub recovery_actions: u64,
    /// Dedicated-core deaths recovered by a respawn.
    /// metric: node.epe_respawns
    pub epe_respawns: u64,
    /// Notices a respawned dedicated core read again from its clients'
    /// rings — taken by a dead incarnation and not finished — and applied.
    /// metric: node.events_replayed
    pub events_replayed: u64,
    /// Notices refused: not believable, from a fenced client, a write or
    /// end of an iteration its client already ended, or naming a range
    /// another notice had named.
    /// metric: node.stale_events_rejected
    pub stale_events_rejected: u64,
    /// Times a client observed the heartbeat stale and degraded.
    /// metric: node.heartbeat_stale_observed
    pub heartbeat_stale_observed: u64,
    /// Client liveness leases revoked by the dedicated core's sweeper.
    /// metric: node.client_leases_expired
    pub client_leases_expired: u64,
    /// Shared-memory bytes reclaimed from fenced clients.
    /// metric: node.segments_reclaimed
    pub segments_reclaimed: u64,
    /// Always 0: a write carries no client checksum to check a segment
    /// against, and a rank killed mid-copy never posts its notice. Kept
    /// while the benchmark's `core.crc_quarantined` row reads it.
    pub crc_quarantined: u64,
    /// Iterations persisted with a partial presence bitmap (some clients
    /// fenced before contributing) under the `partial` policy.
    /// metric: node.partial_iterations
    pub partial_iterations: u64,
    /// Orphaned `/dev/shm` mapping files from dead prior runs unlinked by
    /// the startup sweep (file-backed topology only).
    /// metric: node.shm_orphans_removed
    pub shm_orphans_removed: u64,
    /// Mapping files with an unrecognizable header quarantined (renamed,
    /// never silently deleted) by the startup sweep.
    /// metric: node.shm_orphans_quarantined
    pub shm_orphans_quarantined: u64,
    /// Storage-pressure transitions into `Degraded` (high watermark
    /// crossed or a permanent persist error seen; compactor paused,
    /// superseded files gc'd).
    /// metric: node.storage_pressure_degraded
    pub storage_pressure_degraded: u64,
    /// Storage-pressure transitions into `ReadOnly` (quota exhausted; new
    /// iterations shed per `on_disk_full`).
    /// metric: node.storage_pressure_readonly
    pub storage_pressure_readonly: u64,
    /// Storage-pressure recoveries back to `Normal` (usage fell below the
    /// low watermark; compactor resumed).
    /// metric: node.storage_pressure_recovered
    pub storage_pressure_recovered: u64,
    /// Iterations lost to disk exhaustion: dropped whole while read-only
    /// under `on_disk_full="drop-iteration"`, or degraded at persist time
    /// by a permanent out-of-space error. Each is also counted in
    /// `iterations_degraded`.
    /// metric: node.storage_pressure_sheds
    pub storage_pressure_sheds: u64,
    /// Bytes reclaimed by the aggressive gc of superseded files run on
    /// entry into `Degraded`.
    /// metric: node.storage_pressure_gc_bytes
    pub storage_pressure_gc_bytes: u64,
    /// Commit batches the persist path ran: each syncs and renames the
    /// files of every iteration parked since the rings last went quiet
    /// (retries of a failed file count too).
    /// metric: node.commit_batches
    pub commit_batches: u64,
    /// Manifest publishes, one per batch that committed anything: equal
    /// to the iterations persisted while the dedicated core keeps up,
    /// fewer when it committed backlogs.
    /// metric: node.manifest_publishes
    pub manifest_publishes: u64,
}

impl NodeReport {
    /// Every counter by name — the one table behind the copy out of the
    /// registry and the text form below.
    fn fields(&mut self) -> [(&'static str, &mut u64); 31] {
        [
            ("iterations_persisted", &mut self.iterations_persisted),
            ("variables_received", &mut self.variables_received),
            ("bytes_received", &mut self.bytes_received),
            ("user_events", &mut self.user_events),
            ("files_created", &mut self.files_created),
            ("bytes_stored", &mut self.bytes_stored),
            ("peak_resident_bytes", &mut self.peak_resident_bytes),
            ("persist_retries", &mut self.persist_retries),
            ("iterations_degraded", &mut self.iterations_degraded),
            ("writes_dropped", &mut self.writes_dropped),
            ("sync_fallback_writes", &mut self.sync_fallback_writes),
            ("plugin_failures", &mut self.plugin_failures),
            ("plugins_quarantined", &mut self.plugins_quarantined),
            ("recovery_actions", &mut self.recovery_actions),
            ("epe_respawns", &mut self.epe_respawns),
            ("events_replayed", &mut self.events_replayed),
            ("stale_events_rejected", &mut self.stale_events_rejected),
            (
                "heartbeat_stale_observed",
                &mut self.heartbeat_stale_observed,
            ),
            ("client_leases_expired", &mut self.client_leases_expired),
            ("segments_reclaimed", &mut self.segments_reclaimed),
            ("crc_quarantined", &mut self.crc_quarantined),
            ("partial_iterations", &mut self.partial_iterations),
            ("shm_orphans_removed", &mut self.shm_orphans_removed),
            ("shm_orphans_quarantined", &mut self.shm_orphans_quarantined),
            (
                "storage_pressure_degraded",
                &mut self.storage_pressure_degraded,
            ),
            (
                "storage_pressure_readonly",
                &mut self.storage_pressure_readonly,
            ),
            (
                "storage_pressure_recovered",
                &mut self.storage_pressure_recovered,
            ),
            ("storage_pressure_sheds", &mut self.storage_pressure_sheds),
            (
                "storage_pressure_gc_bytes",
                &mut self.storage_pressure_gc_bytes,
            ),
            ("commit_batches", &mut self.commit_batches),
            ("manifest_publishes", &mut self.manifest_publishes),
        ]
    }

    /// Copies every `node.<field>` counter of `metrics` into the field of
    /// that name (the `metric:` tags above name the pairing); a field
    /// without a counter is report-only and stays as it is.
    pub(crate) fn copy_counters(&mut self, metrics: &Registry) {
        let snapshot = metrics.snapshot();
        for (name, slot) in self.fields() {
            if let Some(value) = snapshot.counters.get(&format!("node.{name}")) {
                *slot = *value;
            }
        }
    }

    /// The report as `key=value` lines — how a dedicated core that is a
    /// process hands its accounting to whoever launched it.
    pub fn to_key_values(&self) -> String {
        let mut copy = self.clone();
        let lines = copy.fields().map(|(key, value)| format!("{key}={value}\n"));
        lines.concat()
    }

    /// Reads [`to_key_values`](Self::to_key_values) back; a key that is
    /// missing or does not parse leaves its counter at 0, unknown keys are
    /// skipped.
    pub fn from_key_values(text: &str) -> NodeReport {
        let mut report = NodeReport::default();
        for (key, slot) in report.fields() {
            let line = text
                .lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix('='));
            *slot = line.and_then(|v| v.trim().parse().ok()).unwrap_or(0);
        }
        report
    }
}

/// One running Damaris node: a dedicated-core thread plus client handles
/// for the compute cores.
pub struct NodeRuntime {
    shared: Arc<NodeShared>,
    clients: Option<Vec<DamarisClient>>,
    core: Option<std::thread::JoinHandle<Result<NodeReport, DamarisError>>>,
}

impl NodeRuntime {
    /// Starts a node with `n_clients` compute cores, persisting into
    /// `output_dir`. Uses the built-in plugin registry.
    pub fn start(
        config: Config,
        n_clients: usize,
        output_dir: impl AsRef<Path>,
    ) -> Result<NodeRuntime, DamarisError> {
        Self::start_with(config, n_clients, output_dir, 0, Vec::new())
    }

    /// Starts a node with a node id (for multi-node deployments) and extra
    /// plugin factories (action name → factory), which take precedence
    /// over the built-ins.
    pub fn start_with(
        config: Config,
        n_clients: usize,
        output_dir: impl AsRef<Path>,
        node_id: u32,
        extra_plugins: Vec<(String, PluginFactory)>,
    ) -> Result<NodeRuntime, DamarisError> {
        let mut backend = LocalDirBackend::new(output_dir)
            .map_err(|e| DamarisError::Storage(damaris_format::SdfError::Io(e)))?;
        if let Some(quota) = config.resilience.disk_quota {
            // `<resilience disk_quota_bytes=…>`: attach the quota sentinel
            // so the pressure state machine has a signal to run on.
            let r = &config.resilience;
            let sentinel = damaris_fs::DiskSentinel::with_quota(quota)
                .with_watermarks(u64::from(r.disk_high_pct), u64::from(r.disk_low_pct));
            backend = backend.with_sentinel(Arc::new(sentinel));
        }
        Self::start_with_backend(config, n_clients, Arc::new(backend), node_id, extra_plugins)
    }

    /// Starts a node persisting through an explicit [`StorageBackend`] —
    /// how chaos tests slide a [`damaris_fs::FaultyBackend`] under the
    /// whole I/O path, and how alternative backends plug in.
    pub fn start_with_backend(
        config: Config,
        n_clients: usize,
        backend: Arc<dyn StorageBackend>,
        node_id: u32,
        extra_plugins: Vec<(String, PluginFactory)>,
    ) -> Result<NodeRuntime, DamarisError> {
        if n_clients == 0 {
            return Err(DamarisError::Config("need at least one client".into()));
        }
        // Built synchronously so configuration errors surface at start, not
        // from inside the dedicated core.
        config.check_notice_ring(n_clients)?;
        let epe = EventProcessingEngine::build(&config, &extra_plugins)?;
        let node = MappedNode::heap(n_clients, config.buffer_size, config.queue_capacity)
            .map_err(|e| DamarisError::Config(format!("<buffer>: {e}")))?;
        let shared = Arc::new(NodeShared::new(config, node, backend, node_id));
        shared.recover()?;

        let clients = (0..n_clients as u32)
            .map(|id| DamarisClient::new(id, Arc::clone(&shared)))
            .collect();

        // Spawned here, before `start` returns: the thread inherits the
        // caller's CPU affinity, which is how an embedder pins the core.
        let core_shared = Arc::clone(&shared);
        let core = std::thread::Builder::new()
            .name(format!("damaris-ded-{node_id}"))
            .spawn(move || dedicated_core(core_shared, epe, extra_plugins))
            // invariant: thread spawn only fails on resource exhaustion at
            // process scale; a node that cannot start its dedicated core
            // cannot run at all.
            .expect("spawn dedicated-core thread");

        Ok(NodeRuntime {
            shared,
            clients: Some(clients),
            core: Some(core),
        })
    }

    /// Hands out the client handles (once). Clients are `Send`: move each
    /// to its compute thread.
    pub fn clients(&self) -> Vec<DamarisClient> {
        self.clients
            .as_ref()
            // invariant: documented API contract — `clients`/`take_clients`
            // may only be called before the handles are taken.
            .expect("clients already taken")
            .clone()
    }

    /// Takes ownership of the client handles.
    pub fn take_clients(&mut self) -> Vec<DamarisClient> {
        // invariant: documented API contract — handles are taken once.
        self.clients.take().expect("clients already taken")
    }

    /// The storage backend (for inspecting produced files).
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.shared.backend
    }

    /// Bytes currently reserved in the shared buffer. Zero after `finish`
    /// on a leak-free run — including runs that crashed and replayed.
    pub fn buffer_in_use(&self) -> usize {
        self.shared.in_use()
    }

    /// The node's current storage-pressure state (always `Normal` when
    /// the backend has no [`damaris_fs::DiskSentinel`]).
    pub fn pressure_state(&self) -> crate::pressure::PressureState {
        self.shared.pressure.state()
    }

    /// Registers a pause flag the pressure machine raises while degraded
    /// and clears on recovery. Embedders running a `damaris-query`
    /// compactor against this node's output pass `Compactor::pause_flag()`
    /// here, so disk pressure stops space-amplifying compaction without a
    /// core → query dependency.
    pub fn register_compactor_pause(&self, flag: Arc<damaris_shm::sync::AtomicBool>) {
        self.shared.pressure.register_pause_flag(flag);
    }

    /// Live snapshot of the node's metrics registry: every `node.*`
    /// counter backing [`NodeReport`] plus the per-phase `phase.*_ns`
    /// histograms the dedicated core feeds from flushed trace records.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Times clients have observed the heartbeat stale so far — a live
    /// counter (the final total also lands in [`NodeReport`]).
    pub fn heartbeat_stale_observed(&self) -> u64 {
        FaultStats::get(&self.shared.stats.heartbeat_stale_observed)
    }

    /// Injects a user event from *outside* the simulation — the paper's
    /// "events sent either by the simulation **or by external tools**"
    /// (§III-A): a steering console or monitoring agent can trigger
    /// configured actions without holding a client.
    ///
    /// Returns [`DamarisError::UnknownEvent`] when no action is bound.
    pub fn inject_event(&self, event: &str, iteration: u32) -> Result<(), DamarisError> {
        if self.shared.config.bindings_for(event).is_empty() {
            return Err(DamarisError::UnknownEvent(event.to_string()));
        }
        let shared = &self.shared;
        let marks = (0..shared.clients).map(|c| shared.node.notices(c).posted());
        let event = Event::User {
            name: event.to_string(),
            iteration,
            source: crate::server::SERVER_SOURCE,
        };
        shared.control.lock().push((event, marks.collect()));
        Ok(())
    }

    /// Asks the dedicated core to finish and joins its thread. Call after
    /// all client activity is done.
    pub fn finish(mut self) -> Result<NodeReport, DamarisError> {
        // invariant: `finish` consumes `self`, so the handle is present.
        let handle = self.core.take().expect("finish called once");
        // Release: what the clients posted before this call is visible to
        // the core that Acquire-loads the flag.
        self.shared.finishing.store(true, Ordering::Release);
        match handle.join() {
            Ok(report) => report,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

/// The dedicated core's thread: runs [`server::run`] until it ends the
/// run, and respawns a dead incarnation (error or panic) in place, up to
/// `epe_respawn` times, each with fresh plugin instances — the dead one's
/// plugin state is unrecoverable mid-panic anyway. Past the budget the
/// error is returned, or the panic resumed for [`NodeRuntime::finish`].
fn dedicated_core(
    shared: Arc<NodeShared>,
    mut epe: EventProcessingEngine,
    factories: Vec<(String, PluginFactory)>,
) -> Result<NodeReport, DamarisError> {
    let budget = shared.config.resilience.epe_respawn;
    let mut incarnation = 0;
    loop {
        // Acquire: pairs with `finish`'s Release store.
        let done = || shared.finishing.load(Ordering::Acquire);
        let run = || server::run(Arc::clone(&shared), epe, incarnation, done, |_, _| {});
        let death = match std::panic::catch_unwind(AssertUnwindSafe(run)) {
            Ok(Ok(report)) => return Ok(report),
            Ok(Err(error)) if incarnation >= budget => return Err(error),
            Err(panic) if incarnation >= budget => std::panic::resume_unwind(panic),
            Ok(Err(error)) => format!("died: {error}"),
            Err(_) => "panicked".to_string(),
        };
        eprintln!(
            "[damaris node {}] dedicated core (incarnation {incarnation}) {death}; respawning",
            shared.node_id
        );
        incarnation += 1;
        FaultStats::bump(&shared.stats.epe_respawns);
        epe = EventProcessingEngine::build(&shared.config, &factories)?;
    }
}

impl Drop for NodeRuntime {
    fn drop(&mut self) {
        if let Some(handle) = self.core.take() {
            self.shared.finishing.store(true, Ordering::Release);
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn a_report_survives_its_text_form_counter_by_counter() {
        let mut report = NodeReport::default();
        for (n, (_, slot)) in report.fields().into_iter().enumerate() {
            *slot = n as u64 + 1;
        }
        // A counter the table forgot would still read 0 here.
        assert!(!format!("{report:?}").contains(": 0"), "{report:?}");
        let text = report.to_key_values();
        assert_eq!(text.lines().count(), 31);
        assert_eq!(NodeReport::from_key_values(&text), report);
        let sparse =
            NodeReport::from_key_values("bytes_stored=7\nnot_a_counter=1\ncommit_batches=x\n");
        let expected = NodeReport {
            bytes_stored: 7,
            ..NodeReport::default()
        };
        assert_eq!(sparse, expected);
    }

    const CLIENTS: usize = 4;

    /// Both fixtures' configuration: a static and a dynamic variable, a
    /// user event bound to a `mark` action; a full ring is waited on for a
    /// second, a heartbeat still for 20 ms is stale.
    fn config() -> Config {
        Config::from_xml(
            r#"<damaris>
                 <buffer size="65536" allocator="partition"/>
                 <layout name="cell" type="double" dimensions="32"/>
                 <layout name="particles" type="real" dimensions="?"/>
                 <variable name="theta" layout="cell"/>
                 <variable name="swarm" layout="particles"/>
                 <event name="snapshot" action="mark"/>
                 <resilience timeout_ms="1000" heartbeat_timeout_ms="20"/>
               </damaris>"#,
        )
        .unwrap()
    }

    /// A threaded node's shared state, nothing running on it.
    fn threaded(tag: &str) -> (Arc<NodeShared>, PathBuf) {
        let dir = std::env::temp_dir().join(format!("damaris-node-{tag}-{}", std::process::id()));
        let backend = Arc::new(LocalDirBackend::new(&dir).unwrap());
        let node = MappedNode::heap(CLIENTS, 65536, 1024).unwrap();
        let shared = NodeShared::new(config(), node, backend, 0);
        (Arc::new(shared), dir)
    }

    /// A fresh mapping of two clients, 1 KiB of data ring and four notice
    /// slots each, at a path of its own.
    fn mapping(tag: &str) -> (MappedNode, PathBuf) {
        let path = std::env::temp_dir().join(format!("damaris-node-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        (MappedNode::create(&path, 2, 2048, 8).unwrap(), path)
    }

    /// A process node's shared state over [`mapping`], as a rank process
    /// builds it, and the client of rank 1.
    fn rank_over_mapping(tag: &str) -> (Arc<NodeShared>, DamarisClient, MappedNode, PathBuf) {
        let (node, path) = mapping(tag);
        let backend = Arc::new(LocalDirBackend::new(path.with_extension("out")).unwrap());
        let shared = NodeShared::new(config(), node.clone(), backend, 0);
        let shared = Arc::new(shared);
        let client = DamarisClient::new(1, Arc::clone(&shared));
        (shared, client, node, path)
    }

    fn remove_mapping(path: &Path) {
        std::fs::remove_file(path).unwrap();
        std::fs::remove_dir_all(path.with_extension("out")).ok();
    }

    #[test]
    fn no_word_a_client_writes_per_call_shares_a_block_with_one_the_core_writes_per_event() {
        let (shared, dir) = threaded("lines");
        fn addr<T>(word: &T) -> usize {
            word as *const T as usize
        }
        // (word, writer): every client word has one writer.
        let mut client = Vec::new();
        let mut core = vec![("heartbeat", addr(shared.heartbeat()))];
        for c in 0..CLIENTS {
            let (ring, notices) = (shared.node.ring(c), shared.node.notices(c));
            client.push(("lease", c, addr(shared.lease(c).unwrap())));
            client.push(("ring head", c, addr(ring.head)));
            client.push(("ring floor", c, addr(ring.floor)));
            client.push(("notice head", c, addr(notices.head)));
            core.push(("ring tail", addr(ring.tail)));
            core.push(("notice tail", addr(notices.tail)));
            core.push(("applied", addr(notices.applied)));
            core.push(("ended", addr(shared.node.ended(c))));
        }
        let block = |addr: usize| addr / 128;
        for &(word, writer, at) in &client {
            for &(other, at_other) in &core {
                assert_ne!(
                    block(at),
                    block(at_other),
                    "client-written {word} ({writer}) shares a block with core-written {other}"
                );
            }
            // And one rank's words are not another's neighbours either.
            for &(other, other_writer, at_other) in &client {
                if writer != other_writer {
                    assert_ne!(
                        block(at),
                        block(at_other),
                        "{word} {writer} beside {other} {other_writer}"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn by_name_calls_resolve_through_the_index_and_fail_typed() {
        let (shared, dir) = threaded("names");
        let client = DamarisClient::new(0, Arc::clone(&shared));
        client.write_f64("theta", 0, &[1.0; 32]).unwrap();
        assert!(matches!(
            client.write("thet", 0, &[0; 256]),
            Err(DamarisError::UnknownVariable(name)) if name == "thet"
        ));
        let wrong_kind = client.write("swarm", 0, &[0; 8]).unwrap_err();
        let wrong_kind = wrong_kind.to_string();
        assert!(
            wrong_kind.contains("dynamic layout; use write_dynamic"),
            "{wrong_kind}"
        );
        let swarm = client.write_dynamic_f32("swarm", 0, &[2], &[1.0, 2.0]);
        assert!(swarm.is_ok(), "{swarm:?}");
        let static_kind = client.write_dynamic("theta", 0, &[32], &[0; 256]);
        let static_kind = static_kind.unwrap_err().to_string();
        assert!(
            static_kind.contains("static layout; use write"),
            "{static_kind}"
        );
        let unknown = client.alloc("nope", 0).map(|_| ());
        assert!(matches!(unknown, Err(DamarisError::UnknownVariable(_))));
        let unknown = client.die_during_alloc("nope");
        assert!(matches!(unknown, Err(DamarisError::UnknownVariable(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_client_over_a_mapping_posts_exactly_the_notice_of_each_call() {
        let (shared, client, node, path) = rank_over_mapping("notices");
        let ring = node.notices(1);
        let take = || {
            let words = ring.peek()?;
            ring.apply(ring.advance());
            Notice::decode(words)
        };
        // Where a notice says the bytes are, they are.
        let bytes_at = |offset: u64, len: u64| {
            let segment = shared.node.adopt(1, offset as usize, len as usize);
            segment.map(|segment| segment.as_slice().to_vec())
        };

        let written = [7u8; 256];
        client.write("theta", 0, &written).unwrap();
        let Some(Notice::Write {
            variable: 0,
            iteration: 0,
            offset,
            len: 256,
        }) = take()
        else {
            panic!("write posts a Write");
        };
        assert_eq!(bytes_at(offset, 256).as_deref(), Some(&written[..]));

        let mut region = client.alloc("theta", 0).unwrap();
        region.as_mut_slice().fill(9);
        let held = client.end_iteration(0);
        assert!(matches!(
            held,
            Err(DamarisError::RegionHeld { client: 1, held: 1 })
        ));
        region.commit().unwrap();
        let Some(Notice::Write {
            variable: 0,
            iteration: 0,
            offset,
            len: 256,
        }) = take()
        else {
            panic!("commit posts a Write");
        };
        assert_eq!(bytes_at(offset, 256).as_deref(), Some(&[9; 256][..]));

        drop(client.alloc("theta", 0).unwrap());
        let Some(Notice::Abandon {
            iteration: 0,
            offset,
            len: 256,
        }) = take()
        else {
            panic!("a dropped region posts an Abandon");
        };
        assert!(bytes_at(offset, 256).is_some(), "reserved, for the core");

        // A signal names its event by its place in the event list.
        client.signal("snapshot", 0).unwrap();
        assert_eq!(
            take(),
            Some(Notice::User {
                action: 0,
                iteration: 0
            })
        );
        // A dynamic write's shape rides in front of its payload.
        client
            .write_dynamic_f32("swarm", 0, &[2], &[1.0, 2.0])
            .unwrap();
        let Some(Notice::WriteDynamic {
            variable: 1,
            ndims: 1,
            iteration: 0,
            offset,
            len: 24,
        }) = take()
        else {
            panic!("write_dynamic posts a WriteDynamic");
        };
        let mut expected = [1u64, 2].map(u64::to_ne_bytes).concat();
        expected.extend([1.0f32, 2.0].map(f32::to_le_bytes).concat());
        assert_eq!(bytes_at(offset, 24), Some(expected));
        assert_eq!(shared.in_use(), 3 * 256 + 24);

        client.end_iteration(0).unwrap();
        assert_eq!(take(), Some(Notice::EndIteration { iteration: 0 }));
        assert_eq!(take(), None, "one notice per call");
        remove_mapping(&path);
    }

    /// A `mark` action counting the times it fires.
    fn mark(fired: &Arc<damaris_shm::sync::AtomicU64>) -> (String, PluginFactory) {
        struct Mark(Arc<damaris_shm::sync::AtomicU64>);
        impl crate::plugin::Plugin for Mark {
            fn name(&self) -> &str {
                "mark"
            }
            fn handle(
                &mut self,
                _: &mut crate::plugin::ActionContext<'_>,
                _: &crate::plugin::EventInfo,
            ) -> Result<(), DamarisError> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }
        let fired = Arc::clone(fired);
        let factory: PluginFactory = Box::new(move |_| Ok(Box::new(Mark(Arc::clone(&fired)))));
        ("mark".to_string(), factory)
    }

    /// A `mark` action noting how many variables of its iteration are
    /// resident each time it fires.
    fn look(resident: &Arc<Mutex<Vec<usize>>>) -> (String, PluginFactory) {
        struct Look(Arc<Mutex<Vec<usize>>>);
        impl crate::plugin::Plugin for Look {
            fn name(&self) -> &str {
                "mark"
            }
            fn handle(
                &mut self,
                ctx: &mut crate::plugin::ActionContext<'_>,
                event: &crate::plugin::EventInfo,
            ) -> Result<(), DamarisError> {
                let n = ctx.store.iteration_entries(event.iteration).count();
                self.0.lock().push(n);
                Ok(())
            }
        }
        let resident = Arc::clone(resident);
        let factory: PluginFactory = Box::new(move |_| Ok(Box::new(Look(Arc::clone(&resident)))));
        ("mark".to_string(), factory)
    }

    /// A signal goes after what was posted before the core saw it and
    /// before what was posted after: rank 0 ends iteration 0 and signals
    /// it, and rank 1 ends it once the core has seen the signal. The
    /// action runs with both ranks' data resident, and the iteration
    /// fires on the next pass.
    #[test]
    fn a_signal_runs_before_an_end_posted_after_the_core_saw_it() {
        let (shared, dir) = threaded("signal-order");
        let ranks: Vec<_> = (0..CLIENTS as u32)
            .map(|id| DamarisClient::new(id, Arc::clone(&shared)))
            .collect();
        ranks[0].write("theta", 0, &[0; 256]).unwrap();
        ranks[0].end_iteration(0).unwrap();
        ranks[0].signal("snapshot", 0).unwrap();
        ranks[1].write("theta", 0, &[1; 256]).unwrap();
        for rank in &ranks[2..] {
            rank.end_iteration(0).unwrap();
        }
        let resident = Arc::new(Mutex::new(Vec::new()));
        let epe = EventProcessingEngine::build(&shared.config, &[look(&resident)]).unwrap();
        let mut core = server::DedicatedCore::new(Arc::clone(&shared), epe, 0);
        // Rank 1 ends the iteration as the core takes its write, after
        // the core read rank 0's ring and the signal on it.
        let mut rank1_ends = |_: &server::DedicatedCore, event: &Event| {
            if matches!(event, Event::Write { source: 1, .. }) {
                ranks[1].end_iteration(0).unwrap();
            }
        };
        assert!(core.drain(&[], &mut rank1_ends).unwrap());
        assert_eq!(*resident.lock(), [2]);
        assert_eq!(core.report().iterations_persisted, 0);

        while core.drain(&[], &mut |_, _| {}).unwrap() {}
        core.quiet().unwrap();
        assert_eq!(core.report().iterations_persisted, 1);
        assert_eq!(shared.in_use(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The two calls with a notice kind of their own, end to end over a
    /// file mapping: the core over the same file fires the signalled
    /// action once and stores the dynamic write with the shape it carried.
    #[test]
    fn a_rank_over_a_mapping_signals_and_writes_a_dynamic_shape() {
        let (shared, client, node, path) = rank_over_mapping("dynamic");
        let rank0 = DamarisClient::new(0, Arc::clone(&shared));
        client.signal("snapshot", 0).unwrap();
        let particles = [1.5f32, 2.5, 3.5, 4.5, 5.5, 6.5];
        client
            .write_dynamic_f32("swarm", 0, &[2, 3], &particles)
            .unwrap();
        rank0.end_iteration(0).unwrap();
        client.end_iteration(0).unwrap();

        let out = path.with_extension("out");
        let backend = Arc::new(LocalDirBackend::new(&out).unwrap());
        let core_shared = Arc::new(NodeShared::new(config(), node.clone(), backend, 0));
        let fired = Arc::new(damaris_shm::sync::AtomicU64::new(0));
        let epe = EventProcessingEngine::build(&core_shared.config, &[mark(&fired)]).unwrap();
        let mut core = server::DedicatedCore::new(core_shared, epe, 0);
        while core.drain(&[], &mut |_, _| {}).unwrap() {}
        core.quiet().unwrap();

        assert_eq!(fired.load(Ordering::Relaxed), 1);
        let report = core.report();
        assert_eq!((report.user_events, report.variables_received), (1, 1));
        assert_eq!(report.stale_events_rejected, 0);
        assert_eq!(node.total_in_use(), 0);
        let file = out.join("node-0").join("iter-000000.sdf");
        let reader = damaris_format::SdfReader::open(file).unwrap();
        let swarm = "/iter-0/rank-1/swarm";
        assert_eq!(reader.info(swarm).unwrap().layout.dims, [2, 3]);
        assert_eq!(reader.read_f32(swarm).unwrap(), particles);
        remove_mapping(&path);
    }

    /// A full notice ring is a full buffer to the client: it waits, parks
    /// on a stale mapped heartbeat until a new epoch, goes on once the core
    /// takes a notice — and gives up, typed, when no core ever comes back.
    #[test]
    fn a_full_notice_ring_is_waited_out_like_a_full_buffer() {
        let (shared, client, node, path) = rank_over_mapping("full-ring");
        for it in 0..4 {
            client.end_iteration(it).unwrap();
        }
        let core = node.clone();
        let respawn = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            let ring = core.notices(1);
            ring.apply(ring.advance());
            core.heartbeat().begin_epoch(1);
        });
        client.end_iteration(4).unwrap();
        respawn.join().unwrap();
        let stale = FaultStats::get(&shared.stats.heartbeat_stale_observed);
        assert_eq!(stale, 1, "parked once, across the respawn");
        let ring = node.notices(1);
        let end = |iteration| Some(Notice::EndIteration { iteration }.encode());
        assert_eq!(ring.peek(), end(1));

        let gone = client.end_iteration(5);
        assert!(matches!(
            gone,
            Err(DamarisError::EpeUnavailable { epoch: 1, .. })
        ));
        assert!(node.lease(1).renew(), "the wait kept the lease");
        remove_mapping(&path);
    }
}
