//! The dedicated core.
//!
//! Runs on the node's dedicated core — a thread of the threaded node, a
//! process of its own in the process node: takes the node's events one at
//! a time, maintains the metadata store, tracks per-iteration completion
//! across the node's clients, and hands events to the EPE. Actual I/O
//! happens inside plugins — asynchronously with respect to the compute
//! cores, which is the whole point (§III).
//!
//! The core is one value, [`DedicatedCore`], with six entry points:
//! [`replay`](DedicatedCore::replay) rebuilds a dead predecessor's state
//! from the journal, [`admit`](DedicatedCore::admit) journals one event
//! as it is taken from its source, [`handle`](DedicatedCore::handle)
//! applies it, [`idle`](DedicatedCore::idle) is the pressure → sweep →
//! fire → reclaim → beat pass that runs after every event and whenever
//! the queue is quiet, [`quiet`](DedicatedCore::quiet) commits what the
//! fired iterations parked (the event source calls it when a poll comes
//! back empty, before it blocks), and [`finish`](DedicatedCore::finish)
//! closes the books. It has
//! no notion of where events come from: [`run`] is the event source that
//! feeds it from the in-process queue, and whoever else builds one over a
//! [`NodeShared`] and calls the same six is another.
//!
//! # Crash recovery
//!
//! [`run`] runs under the node supervisor (see [`crate::node`]): each
//! incarnation gets a heartbeat *epoch*. Epoch 0 starts clean; a respawned
//! epoch first **replays** the write-ahead journal — re-adopting the
//! shared-memory segments the dead incarnation had resident, re-counting
//! end-of-iteration notifications, firing still-pending user events — and
//! only then publishes its epoch on the heartbeat word, so clients parked
//! on a stale heartbeat resume against a consistent allocator and store.
//!
//! Exactly-once processing needs no arbitration: a queue entry is popped
//! once. `admit` journals and claims an event before `handle` applies it,
//! so replay covers what a dead incarnation took and had not applied, and
//! what it never took is still in the queue for its successor.

use crate::config::{OnClientFailure, OnDiskFull};
use crate::epe::{EventProcessingEngine, END_OF_ITERATION};
use crate::error::DamarisError;
use crate::event::Event;
use crate::journal::{JournalPayload, RecordState, ReplayEntry};
use crate::metadata::{MetadataStore, StoredVariable, VariableKey};
use crate::node::{FaultStats, NodeReport, NodeShared};
use crate::plugin::{ActionContext, EventInfo, Parked};
use damaris_obs::{EventKind, Histogram, Recorder, TraceRecord, TraceWriter};
use damaris_shm::{LeaseSnapshot, Segment};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io::BufWriter;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Duration;

/// Marker source id for server-originated events.
pub const SERVER_SOURCE: u32 = u32::MAX;

/// True when every client of the node is accounted for on an iteration:
/// either its end-of-iteration notification was counted, or the lease
/// sweeper fenced it (a dead rank will never send one).
fn iteration_complete(counted: &[(u32, u64)], fenced: &BTreeSet<u32>, clients: usize) -> bool {
    (0..clients as u32).all(|c| fenced.contains(&c) || counted.iter().any(|(s, _)| *s == c))
}

/// Presence bitmap for a partial fire: bit `r` is set iff client `r` ended
/// the iteration. Only representable for nodes with ≤ 64 clients; larger
/// nodes fire partially without the annotation.
fn presence_bits(counted: &[(u32, u64)], clients: usize) -> Option<u64> {
    if clients > 64 {
        return None;
    }
    Some(counted.iter().fold(0u64, |bits, (s, _)| bits | (1u64 << s)))
}

/// The dedicated-core event loop; returns the node's accounting when a
/// `Terminate` event arrives. `epoch` is this incarnation's heartbeat
/// epoch — nonzero means a predecessor crashed and the journal replays.
pub(crate) fn run(
    shared: Arc<NodeShared>,
    epe: EventProcessingEngine,
    epoch: u32,
) -> Result<NodeReport, DamarisError> {
    let mut core = DedicatedCore::new(Arc::clone(&shared), epe, epoch);
    if epoch > 0 {
        core.replay()?;
    }
    // Publish this epoch only after replay: clients parked on a stale
    // heartbeat resume against fully-rebuilt state (the Release store
    // makes everything above visible to their Acquire observe).
    shared.heartbeat().begin_epoch(epoch);
    core.poll_pressure();
    core.serve()?;
    Ok(core.finish())
}

/// A segment the core must release without handing it to a plugin, as
/// `(source, seq, segment)`: `seq` is the record to mark applied.
type Held = (u32, u64, Segment);

/// How an iteration leaves the core (see [`DedicatedCore::retire`]).
enum Outcome {
    /// `end_of_iteration` fires. `presence` is set when it fires without
    /// every client: the persisted datasets are stamped with the bitmap
    /// for the recovery scan.
    Fire { presence: Option<u64> },
    /// The iteration is discarded whole: nothing persists.
    Drop { cause: DropCause },
}

/// Why an iteration was discarded.
enum DropCause {
    /// A fenced client is missing under `on_client_failure="drop-iteration"`.
    ClientFenced,
    /// The node is read-only under `on_disk_full="drop-iteration"`.
    DiskFull,
}

/// One incarnation of the dedicated core: everything the server knows
/// that dies with it (the journal, queue and buffer in [`NodeShared`]
/// outlive it and let the next incarnation [`replay`](Self::replay)).
pub(crate) struct DedicatedCore {
    shared: Arc<NodeShared>,
    epe: EventProcessingEngine,
    epoch: u32,
    store: MetadataStore,
    /// End-notifications counted per iteration, as `(source, seq)` pairs:
    /// the sources decide completion against the fenced set, and the seqnos
    /// are marked applied when the iteration retires.
    end_counts: HashMap<u32, Vec<(u32, u64)>>,
    /// Fencing survives server crashes via the journal: a respawned epoch
    /// starts from its predecessor's fenced set.
    fenced: BTreeSet<u32>,
    /// Per-client `(last observation, expiry deadline)` on the backend's
    /// clock (virtual under test). The deadline refreshes whenever the
    /// observation changes; an unchanged lease past its deadline is swept.
    lease_track: Vec<(LeaseSnapshot, Duration)>,
    /// Segments that release without persisting — displaced by a
    /// same-(iteration, variable, source) rewrite, abandoned by their
    /// client, or cancelled by a fence — held until their iteration
    /// retires. Releasing them on the spot is NOT safe: the partitioned
    /// allocator requires per-client FIFO release, and a client that ran
    /// ahead still has retained segments from *earlier* iterations that
    /// were allocated first. Deferring lets `flush_releases`'s
    /// (source, position) sort restore allocation order. (Found by the
    /// obs-overhead gate: the out-of-order release corrupted a region's
    /// tail counter and wedged the client on `Full`.)
    held: BTreeMap<u32, Vec<Held>>,
    pending_release: Vec<Held>,
    /// Fired iterations whose files are written but not committed, oldest
    /// first (see [`Parked`]); [`quiet`](Self::quiet) empties it. Their
    /// segments are live handles of their clients, and while any is here
    /// nothing in `pending_release` is flushed: what waits there was
    /// allocated after them.
    parked: VecDeque<Parked>,
    rec: Recorder,
    obs_flush: ObsFlush,
    /// Iteration spans run from where the previous one ended; the first
    /// starts at `new`.
    last_fire_end: u64,
    last_fired: u32,
    /// The fired iteration whose span is still open, with the time its
    /// fire ended: it parked work, so its span ends with the quiet pass
    /// that commits it — or at that fire's end, if another iteration
    /// fires first and the commit is that one's to account for.
    open_span: Option<(u32, u64)>,
    /// The pressure machine only has a signal to run on when the backend
    /// reports disk usage; without a sentinel it stays dormant.
    pressure_on: bool,
    disk_policy: OnDiskFull,
    policy: OnClientFailure,
    /// Under the default `wait` policy the sweeper never runs: a silent
    /// client stalls its iterations forever (the original Damaris contract).
    sweeper_on: bool,
    lease_timeout: Duration,
    /// Iterations taken out of the core, fired or dropped, in the order
    /// they left, since the last [`quiet`](Self::quiet) handed them out.
    retired: Vec<u32>,
    report: NodeReport,
}

impl DedicatedCore {
    pub(crate) fn new(
        shared: Arc<NodeShared>,
        epe: EventProcessingEngine,
        epoch: u32,
    ) -> DedicatedCore {
        let resilience = &shared.config.resilience;
        let policy = resilience.on_client_failure;
        let lease_timeout = resilience.client_lease_timeout;
        let deadline = shared.backend.clock().now() + lease_timeout;
        let rec = shared.obs.server_recorder();
        DedicatedCore {
            epoch,
            store: MetadataStore::new(),
            end_counts: HashMap::new(),
            fenced: (0..shared.clients as u32)
                .filter(|c| shared.journal.is_fenced(*c))
                .collect(),
            lease_track: (0..shared.clients)
                .filter_map(|c| shared.lease(c))
                .map(|lease| (lease.snapshot(), deadline))
                .collect(),
            held: BTreeMap::new(),
            pending_release: Vec::new(),
            parked: VecDeque::new(),
            open_span: None,
            obs_flush: ObsFlush::new(&shared, epoch),
            last_fire_end: rec.begin(),
            last_fired: 0,
            rec,
            pressure_on: shared.backend.sentinel().is_some(),
            disk_policy: resilience.on_disk_full,
            policy,
            sweeper_on: policy != OnClientFailure::Wait && shared.clients > 0,
            lease_timeout,
            retired: Vec::new(),
            report: NodeReport::default(),
            epe,
            shared,
        }
    }

    /// Journal replay: rebuilds the dead incarnation's state, then fires
    /// the iterations the replayed notifications (or pre-crash fencing)
    /// completed. Runs before the new epoch is published.
    pub(crate) fn replay(&mut self) -> Result<(), DamarisError> {
        let node_id = self.shared.node_id;
        let (entries, corrupt) = self.shared.journal.replay_snapshot();
        if corrupt > 0 {
            eprintln!(
                "[damaris node {node_id}] replay (epoch {}): skipped {corrupt} \
                 CRC-corrupt journal record(s)",
                self.epoch
            );
        }
        for ReplayEntry {
            seq,
            state,
            payload,
        } in entries
        {
            // A reopened journal's records are all pending: claim them,
            // as `admit` claims what it journals.
            let pending = state == RecordState::Pending;
            if pending {
                let _ = self.shared.journal.claim(seq);
            }
            // The dead epoch's sweeper fenced this client but may have
            // crashed mid-cancel: finish the job. (An `Abandon` is already
            // a cancellation and replays the same either way.)
            if !matches!(payload, JournalPayload::Abandon { .. })
                && self.fenced.contains(&payload.source())
            {
                self.cancel_fenced(seq, &payload);
                continue;
            }
            match payload {
                JournalPayload::Write {
                    variable_id,
                    iteration,
                    source,
                    offset,
                    len,
                    dynamic_layout,
                } => {
                    if self.shared.config.variable(variable_id).is_none() {
                        self.shared.journal.mark_applied(seq);
                        eprintln!(
                            "[damaris node {node_id}] replay: unknown variable id \
                             {variable_id} (seq {seq}); skipped"
                        );
                        continue;
                    }
                    let Some(segment) = self.shared.buffer.adopt(source, offset, len) else {
                        // Not adoptable: the dead server released it
                        // between persisting and marking the record
                        // applied. The data is already safe (or was
                        // deliberately degraded) — retire the record.
                        self.shared.journal.mark_applied(seq);
                        eprintln!(
                            "[damaris node {node_id}] replay: write seq {seq} \
                             (src {source}, {len}B@{offset}) not adoptable; skipped"
                        );
                        continue;
                    };
                    FaultStats::bump(&self.shared.stats.events_replayed);
                    let key = VariableKey {
                        iteration,
                        variable_id,
                        source,
                    };
                    self.ingest_write(key, segment, dynamic_layout, seq)?;
                }
                JournalPayload::EndIteration { iteration, source } => {
                    FaultStats::bump(&self.shared.stats.events_replayed);
                    self.end_counts
                        .entry(iteration)
                        .or_default()
                        .push((source, seq));
                }
                JournalPayload::Abandon {
                    iteration,
                    source,
                    offset,
                    len,
                } => {
                    FaultStats::bump(&self.shared.stats.events_replayed);
                    self.hold_journaled(iteration, source, seq, offset, len);
                }
                JournalPayload::User {
                    name,
                    iteration,
                    source,
                } => {
                    self.shared.journal.mark_applied(seq);
                    if !pending {
                        // The dead epoch claimed it and may have run its
                        // plugins: at-most-once forbids re-firing.
                        continue;
                    }
                    FaultStats::bump(&self.shared.stats.events_replayed);
                    self.report.user_events += 1;
                    self.dispatch(name, iteration, source)?;
                }
            }
        }
        self.fire_ready()?;
        self.shared.journal.compact();
        Ok(())
    }

    /// Journals one event as the core takes it from its source and claims
    /// the record: the sequence number to [`handle`](Self::handle) it
    /// under. `None` refuses it — the journal says its source is fenced —
    /// and the caller drops it and counts it in `stale_events_rejected`: a
    /// refused `Write` or `Abandon` leaves its segment unreleased, for
    /// `reclaim_fenced`'s `revoke_remaining`. `Terminate` is not
    /// journalled; `handle` ignores the 0 it gets.
    pub(crate) fn admit(&self, event: &Event) -> Option<u64> {
        let Some(record) = event.record() else {
            return Some(0);
        };
        let t = self.rec.begin();
        let iteration = record.iteration();
        let journal = &self.shared.journal;
        let seq = journal
            .append(self.shared.heartbeat().epoch(), record)
            .ok()?;
        // Nobody else sees it pending: a fence between the two is this
        // core's own sweep, which runs between events.
        let _ = journal.claim(seq);
        self.rec.end(EventKind::JournalAppend, iteration, 0, t);
        Some(seq)
    }

    /// Applies one event [`admit`](Self::admit) journalled as `seq`.
    /// `Break` means `Terminate` was handled and only
    /// [`finish`](Self::finish) remains.
    pub(crate) fn handle(
        &mut self,
        seq: u64,
        event: Event,
    ) -> Result<ControlFlow<()>, DamarisError> {
        match event {
            Event::Write {
                variable_id,
                iteration,
                source,
                segment,
                dynamic_layout,
            } => {
                let key = VariableKey {
                    iteration,
                    variable_id,
                    source,
                };
                self.ingest_write(key, segment, dynamic_layout, seq)?;
            }
            Event::User {
                name,
                iteration,
                source,
            } => {
                // At-most-once: retire the record before firing, so a
                // crash mid-plugin does not re-fire it on replay.
                self.shared.journal.mark_applied(seq);
                self.report.user_events += 1;
                let t_epe = self.rec.begin();
                self.dispatch(name, iteration, source)?;
                self.rec.end(EventKind::EpeDispatch, iteration, 0, t_epe);
            }
            Event::EndIteration { iteration, source } => {
                // The fire itself happens in `idle`'s `fire_ready` pass,
                // which also covers iterations completed by fencing.
                self.end_counts
                    .entry(iteration)
                    .or_default()
                    .push((source, seq));
            }
            Event::Abandon {
                iteration,
                source,
                segment,
            } => {
                // A client handed back an uncommitted region. It may not
                // release the segment itself (per-client FIFO, single
                // consumer) — hold it until the iteration retires.
                self.hold(iteration, (source, seq, segment));
            }
            Event::Terminate => {
                self.shutdown()?;
                return Ok(ControlFlow::Break(()));
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    /// The threaded node's event source: pops the shared queue until a
    /// `Terminate` event has been handled.
    fn serve(&mut self) -> Result<(), DamarisError> {
        let shared = Arc::clone(&self.shared);
        loop {
            let ready = shared.queue.pop();
            if ready.is_none() {
                // The queue went quiet — the moment the core would idle, and
                // under backpressure the moment clients are blocked on memory
                // the parked iterations hold: commit them before blocking.
                self.quiet()?;
            }
            let t_idle = self.rec.begin();
            let event = match ready {
                Some(event) => event,
                // Manual poll instead of `pop_wait_with`: the sweeper must run
                // precisely when the queue goes quiet — a dead client stops
                // producing events, which is exactly what starves a blocking
                // pop. The pressure machine polls here for the same reason: a
                // quota lift (space returning) produces no event, yet held
                // iterations must fire and the node must re-ascend to Normal.
                None if self.sweeper_on || self.pressure_on => loop {
                    if let Some(event) = shared.queue.pop() {
                        break event;
                    }
                    self.idle()?;
                    // `idle` may have fired an iteration nobody will follow.
                    self.quiet()?;
                    std::thread::sleep(Duration::from_micros(100));
                },
                None => shared.queue.pop_wait_with(|| shared.heartbeat().beat()),
            };
            // Tagged with the iteration we are presumably waiting to complete.
            let waiting_for = self.last_fired.wrapping_add(1);
            self.rec.end(EventKind::QueueIdle, waiting_for, 0, t_idle);
            let Some(seq) = self.admit(&event) else {
                FaultStats::bump(&shared.stats.stale_events_rejected);
                continue;
            };
            if self.handle(seq, event)?.is_break() {
                return Ok(());
            }
            self.idle()?;
        }
    }

    /// The between-events pass, in one order everywhere it runs: advance
    /// the pressure machine, sweep leases, retire whatever became ready,
    /// reclaim fenced clients' memory, beat the heartbeat.
    pub(crate) fn idle(&mut self) -> Result<(), DamarisError> {
        self.poll_pressure();
        self.sweep_leases();
        self.fire_ready()?;
        self.reclaim_fenced();
        self.shared.heartbeat().beat();
        Ok(())
    }

    /// The queue went quiet: commits what the fired iterations parked, as
    /// one batch, and releases their memory. Nothing parked, nothing done —
    /// the event source calls this on every empty poll. Returns, oldest
    /// first, the iterations retired since the last call, for an event
    /// source that ends the run once every iteration has: with this pass
    /// they are durable and their memory is released. Handing the list out empties
    /// it, so it is as long as a backlog, not as the run — and the journal
    /// drops what the pass applied, so its record map is as long as what
    /// is still parked or unfired.
    pub(crate) fn quiet(&mut self) -> Result<Vec<u32>, DamarisError> {
        if !self.parked.is_empty() {
            let last = self.last_fired;
            let t_epe = self.rec.begin();
            self.with_plugins(Vec::new(), |epe, ctx| epe.quiet_all(ctx, last))?;
            self.shared.journal.compact();
            self.rec.end(EventKind::EpeDispatch, last, 0, t_epe);
            self.close_open_span();
            self.obs_flush.drain(&self.shared);
        }
        Ok(std::mem::take(&mut self.retired))
    }

    /// Ends the span left open by the last fire, if one is, here and now.
    fn close_open_span(&mut self) {
        if let Some((iteration, _)) = self.open_span.take() {
            let now = self.rec.begin();
            self.close_span(iteration, now);
        }
    }

    /// Records `iteration`'s span as ending at `end`: everything since the
    /// previous span ended (idle + dispatch), so per-phase sums can be
    /// checked against it for coverage.
    fn close_span(&mut self, iteration: u32, end: u64) {
        let since = end.saturating_sub(self.last_fire_end);
        self.rec.event(EventKind::Iteration, iteration, 0, since);
        self.last_fire_end = end;
    }

    /// Closes the books after `Terminate`: compacts the journal, drains
    /// the trace rings one last time (so records from the tail of the run
    /// and the shutdown pass reach the histograms and the trace file) and
    /// returns the node's accounting.
    pub(crate) fn finish(mut self) -> NodeReport {
        self.shared.journal.compact();
        self.obs_flush.drain(&self.shared);
        self.obs_flush.finish(self.shared.node_id);
        self.report()
    }

    /// The node's accounting as it stands.
    pub(crate) fn report(&self) -> NodeReport {
        let mut report = self.report.clone();
        report.files_created = self.shared.backend.files_created();
        report.bytes_stored = self.shared.backend.bytes_written();
        report.copy_counters(&self.shared.metrics);
        report
    }

    /// Records a received variable, live or replayed. A duplicate tuple
    /// displaces the earlier entry, whose segment is held (see `held`).
    fn ingest_write(
        &mut self,
        key: VariableKey,
        segment: Segment,
        dynamic_layout: Option<damaris_format::Layout>,
        seq: u64,
    ) -> Result<(), DamarisError> {
        let config = &self.shared.config;
        let def = config
            .variable(key.variable_id)
            .ok_or_else(|| DamarisError::UnknownVariable(format!("id {}", key.variable_id)))?;
        let var = StoredVariable {
            key,
            name: def.name.clone(),
            layout: match dynamic_layout {
                Some(layout) => layout,
                None => config.layout_of(def).storage_layout(),
            },
            segment,
            seq,
        };
        let len = var.segment.len() as u64;
        self.report.variables_received += 1;
        self.report.bytes_received += len;
        self.report.peak_resident_bytes = self
            .report
            .peak_resident_bytes
            .max(self.store.bytes_resident() as u64 + len);
        if let Some(replaced) = self.store.insert(var) {
            self.hold(key.iteration, (key.source, replaced.seq, replaced.segment));
        }
        Ok(())
    }

    fn hold(&mut self, iteration: u32, segment: Held) {
        self.held.entry(iteration).or_default().push(segment);
    }

    /// Holds a segment known only by its journaled coordinates. A range
    /// that is no longer a live allocation was already released before the
    /// crash (or the fence): its record just retires.
    fn hold_journaled(&mut self, iteration: u32, source: u32, seq: u64, offset: usize, len: usize) {
        match self.shared.buffer.adopt(source, offset, len) {
            Some(segment) => self.hold(iteration, (source, seq, segment)),
            None => self.shared.journal.mark_applied(seq),
        }
    }

    /// Cancels one claimed notification of a fenced client. Its data never
    /// persists, but a segment must still release in seq order when its
    /// iteration retires; a signal or end-notification just retires
    /// (completion comes from the fenced set, not the count).
    fn cancel_fenced(&mut self, seq: u64, payload: &JournalPayload) {
        match *payload {
            JournalPayload::Write {
                iteration,
                source,
                offset,
                len,
                ..
            }
            | JournalPayload::Abandon {
                iteration,
                source,
                offset,
                len,
            } => self.hold_journaled(iteration, source, seq, offset, len),
            JournalPayload::User { .. } | JournalPayload::EndIteration { .. } => {
                self.shared.journal.mark_applied(seq);
            }
        }
    }

    /// Runs `f` over the engine and a plugin context, then releases — in
    /// one (source, position)-sorted flush, which is what keeps release
    /// FIFO per client — the `held` segments and whatever `f` consumed.
    /// Borrows are split by field so the engine stays usable beside the
    /// context.
    fn with_plugins(
        &mut self,
        held: Vec<Held>,
        f: impl FnOnce(&mut EventProcessingEngine, &mut ActionContext<'_>) -> Result<(), DamarisError>,
    ) -> Result<(), DamarisError> {
        let shared = &*self.shared;
        self.pending_release.extend(held);
        let mut ctx = ActionContext {
            node_id: shared.node_id,
            config: &shared.config,
            store: &mut self.store,
            backend: shared.backend.as_ref(),
            buffer: &shared.buffer,
            stats: &shared.stats,
            metrics: &shared.metrics,
            journal: &shared.journal,
            pressure: &shared.pressure,
            pending_release: &mut self.pending_release,
            parked: &mut self.parked,
            rec: self.rec.clone(),
            presence: None,
        };
        f(&mut self.epe, &mut ctx)?;
        // Release stays FIFO per client: a parked iteration's segments
        // were allocated before anything a later event put in
        // `pending_release` (its displaced or abandoned `held` segments, a
        // dropped iteration's data), so nothing goes back until the
        // commit has moved them there too — then all of it in one flush.
        if ctx.parked.is_empty() {
            ctx.flush_releases();
        }
        Ok(())
    }

    /// Fires one user event's bound actions.
    fn dispatch(&mut self, name: String, iteration: u32, source: u32) -> Result<(), DamarisError> {
        let info = EventInfo {
            name,
            iteration,
            source,
        };
        self.with_plugins(Vec::new(), |epe, ctx| epe.fire(ctx, &info))
    }

    /// Takes one iteration out of the core. The counted end-notification
    /// records are retired *before* anything else: plugin side effects are
    /// at-most-once across crashes (a crash mid-fire does not re-fire the
    /// iteration on replay — its data is still flushed at `Terminate`).
    /// Either way every resident and held segment of the iteration
    /// releases in one flush; the outcomes differ in whether the plugins
    /// see the data first, and in what is counted.
    fn retire(
        &mut self,
        iteration: u32,
        counted: Vec<(u32, u64)>,
        outcome: Outcome,
    ) -> Result<(), DamarisError> {
        for (_, seq) in counted {
            self.shared.journal.mark_applied(seq);
        }
        self.retired.push(iteration);
        let held = self.held.remove(&iteration).unwrap_or_default();
        match outcome {
            Outcome::Fire { presence } => {
                let t_epe = self.rec.begin();
                if presence.is_some() {
                    FaultStats::bump(&self.shared.stats.partial_iterations);
                }
                let info = EventInfo {
                    name: END_OF_ITERATION.to_string(),
                    iteration,
                    source: SERVER_SOURCE,
                };
                self.with_plugins(held, |epe, ctx| {
                    ctx.presence = presence;
                    epe.fire(ctx, &info)
                })?;
                self.rec.end(EventKind::EpeDispatch, iteration, 0, t_epe);
                let now = self.rec.begin();
                if let Some((earlier, fire_end)) = self.open_span.take() {
                    self.close_span(earlier, fire_end);
                }
                if self.parked.is_empty() {
                    self.close_span(iteration, now);
                } else {
                    self.open_span = Some((iteration, now));
                }
                self.last_fired = iteration;
                self.report.iterations_persisted += 1;
                // Between-iteration drain: telemetry I/O rides the
                // dedicated core, never the compute ranks.
                self.obs_flush.drain(&self.shared);
            }
            Outcome::Drop { cause } => {
                self.with_plugins(held, |_, ctx| {
                    let drained = ctx.store.drain_iteration(iteration);
                    ctx.release_all(drained);
                    Ok(())
                })?;
                let stats = &self.shared.stats;
                FaultStats::bump(&stats.iterations_degraded);
                let why = match cause {
                    DropCause::ClientFenced => "dropped: client(s) fenced under on_client_failure",
                    DropCause::DiskFull => {
                        FaultStats::bump(&stats.storage_pressure_sheds);
                        "shed: storage read-only under on_disk_full"
                    }
                };
                eprintln!(
                    "[damaris node {}] iteration {iteration} {why}=\"drop-iteration\"",
                    self.shared.node_id
                );
            }
        }
        Ok(())
    }

    /// Retires every iteration whose clients are all counted or fenced, in
    /// ascending order. Complete iterations fire; incomplete ones only
    /// become eligible through fencing, and the policy decides between a
    /// partial fire (presence-stamped) and a drop. While the pressure
    /// machine is read-only, `on_disk_full` decides instead: `block` keeps
    /// ready iterations pending (data resident, notifications counted)
    /// until space returns, `drop-iteration` discards them, `partial`
    /// falls through and lets persist fail fast.
    fn fire_ready(&mut self) -> Result<(), DamarisError> {
        let read_only = self.pressure_on && self.shared.pressure.is_read_only();
        if read_only && self.disk_policy == OnDiskFull::Block {
            return Ok(());
        }
        let clients = self.shared.clients;
        let mut ready: Vec<u32> = self
            .end_counts
            .iter()
            .filter(|(_, counted)| iteration_complete(counted, &self.fenced, clients))
            .map(|(it, _)| *it)
            .collect();
        ready.sort_unstable();
        for iteration in ready {
            let counted = self.end_counts.remove(&iteration).unwrap_or_default();
            let outcome = if read_only && self.disk_policy == OnDiskFull::DropIteration {
                Outcome::Drop {
                    cause: DropCause::DiskFull,
                }
            } else if counted.len() == clients {
                Outcome::Fire { presence: None }
            } else if self.policy == OnClientFailure::DropIteration {
                Outcome::Drop {
                    cause: DropCause::ClientFenced,
                }
            } else {
                Outcome::Fire {
                    presence: presence_bits(&counted, clients),
                }
            };
            self.retire(iteration, counted, outcome)?;
        }
        Ok(())
    }

    /// `Terminate`: flushes what never completed, lets stateful plugins
    /// write their residuals, and leaves no segment behind.
    fn shutdown(&mut self) -> Result<(), DamarisError> {
        // Iterations that never completed (e.g. a client crashed between
        // write and end_iteration): persist what we have rather than lose
        // it. Incomplete flushes get the presence stamp under the
        // `partial` policy so recovery can tell which ranks made it.
        let clients = self.shared.clients;
        for iteration in self.store.pending_iterations() {
            let counted = self.end_counts.remove(&iteration).unwrap_or_default();
            let presence = if counted.len() == clients || self.policy != OnClientFailure::Partial {
                None
            } else {
                presence_bits(&counted, clients)
            };
            self.retire(iteration, counted, Outcome::Fire { presence })?;
        }
        // End-notifications for iterations with no resident data have no
        // further effect; retire their records.
        for (_, seq) in self.end_counts.drain().flat_map(|(_, counted)| counted) {
            self.shared.journal.mark_applied(seq);
        }
        // Belt and braces: every held segment belongs to an iteration the
        // flush-out above retired, so the map should be empty — but never
        // leak a segment on the way out.
        let held = std::mem::take(&mut self.held).into_values().flatten();
        // `finalize` also commits whatever the flush-out above parked.
        self.with_plugins(held.collect(), |epe, ctx| epe.finalize_all(ctx))?;
        self.close_open_span();
        // Last zombie reclamation: nothing of the fenced clients' is held
        // any more, so their partitions drain completely.
        self.reclaim_fenced();
        Ok(())
    }

    /// Advances the storage-pressure machine against the backend's
    /// sentinel. Part of every pass so transitions — including the
    /// re-ascent to Normal when a chaos scenario lifts the quota — are
    /// observed even when no events flow.
    fn poll_pressure(&self) {
        if self.pressure_on {
            let shared = &self.shared;
            shared.pressure.poll(
                shared.node_id,
                shared.backend.as_ref(),
                &shared.stats,
                &self.rec,
                self.last_fired,
            );
        }
    }

    /// One sweeper pass: revoke-or-refresh every live client's lease. A
    /// lease unchanged past its deadline is revoked via compare-exchange
    /// against our stale observation — the CAS is the arbiter of the
    /// revoke-vs-late-renew race, so exactly one side wins. A successful
    /// revoke fences the client's journal source: what it journalled
    /// before stays the core's, what it posts after is refused by
    /// [`admit`](Self::admit).
    fn sweep_leases(&mut self) {
        if !self.sweeper_on {
            return;
        }
        // Own handle on the node: the loop cancels through `&mut self`.
        let shared = Arc::clone(&self.shared);
        let now = shared.backend.clock().now();
        for c in 0..shared.clients {
            let Some(lease) = shared.lease(c) else {
                continue;
            };
            let cu = c as u32;
            if self.fenced.contains(&cu) {
                continue;
            }
            let snap = lease.snapshot();
            if snap != self.lease_track[c].0 {
                // The client renewed since we last looked: refresh.
                self.lease_track[c] = (snap, now + self.lease_timeout);
                continue;
            }
            if now < self.lease_track[c].1 {
                continue;
            }
            if !lease.try_revoke(snap) {
                // A renew won the race — the client is alive.
                self.lease_track[c] = (lease.snapshot(), now + self.lease_timeout);
                continue;
            }
            let t_sweep = self.rec.begin();
            FaultStats::bump(&shared.stats.client_leases_expired);
            self.fenced.insert(cu);
            shared.journal.fence(cu);
            eprintln!(
                "[damaris node {}] client {cu} lease expired after {:?}; fenced",
                shared.node_id, self.lease_timeout
            );
            self.rec
                .end(EventKind::LeaseSweep, self.last_fired, 0, t_sweep);
        }
    }

    /// Reclaims fenced clients' outstanding shared memory once no live
    /// handle of theirs remains on the server (store, held segments,
    /// parked iterations, pending releases): `revoke_remaining` swallows
    /// *everything* the
    /// client has outstanding, so a held handle released afterwards would
    /// double-free. Re-run on every pass — a zombie (fenced but still
    /// scheduled) client can keep allocating until it observes its
    /// revoked lease.
    fn reclaim_fenced(&self) {
        for &cu in &self.fenced {
            if self.store.has_source(cu)
                || self.held.values().flatten().any(|(s, _, _)| *s == cu)
                || self
                    .parked
                    .iter()
                    .any(|it| it.variables.iter().any(|v| v.key.source == cu))
                || self.pending_release.iter().any(|(s, _, _)| *s == cu)
            {
                continue;
            }
            let reclaimed = self.shared.buffer.revoke_remaining(cu);
            if reclaimed > 0 {
                self.shared.stats.segments_reclaimed.add(reclaimed as u64);
                eprintln!(
                    "[damaris node {}] reclaimed {reclaimed}B of abandoned \
                     shared memory from fenced client {cu}",
                    self.shared.node_id
                );
            }
        }
    }
}

/// The dedicated core's between-iteration trace drain: the single
/// consumer of every ring on the node. Flushed records always feed the
/// per-phase `phase.<kind>_ns` histograms in the node registry; when a
/// trace directory is configured they are additionally appended to a
/// CRC-guarded `node-<id>.dtrc` file (one file per server incarnation, so
/// a respawn never clobbers the predecessor's records).
struct ObsFlush {
    scratch: Vec<TraceRecord>,
    /// Per-kind histograms, indexed by `EventKind as usize`.
    hists: Vec<Histogram>,
    writer: Option<TraceWriter<BufWriter<std::fs::File>>>,
    /// Ring-drop total already forwarded to the writer.
    dropped_seen: u64,
}

impl ObsFlush {
    fn new(shared: &NodeShared, epoch: u32) -> ObsFlush {
        let node_id = shared.node_id;
        let hists = EventKind::ALL
            .iter()
            .map(|k| shared.metrics.histogram(&format!("phase.{}_ns", k.label())))
            .collect();
        let writer = shared.obs.trace_dir.as_ref().and_then(|dir| {
            let name = if epoch == 0 {
                format!("node-{node_id}.dtrc")
            } else {
                format!("node-{node_id}-e{epoch}.dtrc")
            };
            let path = dir.join(name);
            let open = std::fs::create_dir_all(dir)
                .map_err(damaris_format::SdfError::from)
                .and_then(|()| {
                    let file = std::fs::File::create(&path)?;
                    TraceWriter::new(BufWriter::new(file))
                });
            match open {
                Ok(w) => Some(w),
                Err(e) => {
                    // Telemetry must never take down the data path: run on
                    // without a trace file.
                    eprintln!(
                        "[damaris node {node_id}] trace file {} disabled: {e}",
                        path.display()
                    );
                    None
                }
            }
        });
        ObsFlush {
            scratch: Vec::new(),
            hists,
            writer,
            dropped_seen: 0,
        }
    }

    fn drain(&mut self, shared: &NodeShared) {
        self.scratch.clear();
        let mut dropped = 0;
        for ring in shared.obs.rings() {
            ring.flush_into(&mut self.scratch);
            dropped += ring.dropped();
        }
        for r in &self.scratch {
            if let Some(kind) = r.event_kind() {
                self.hists[kind as usize].observe(r.dur_ns);
            }
        }
        if let Some(w) = &mut self.writer {
            if dropped > self.dropped_seen {
                w.note_dropped(dropped - self.dropped_seen);
            }
            if !self.scratch.is_empty() {
                if let Err(e) = w.write_block(&self.scratch) {
                    eprintln!(
                        "[damaris node {}] trace write failed, disabling: {e}",
                        shared.node_id
                    );
                    self.writer = None;
                }
            }
        }
        self.dropped_seen = dropped;
    }

    fn finish(&mut self, node_id: u32) {
        if let Some(w) = self.writer.take() {
            if let Err(e) = w.finish() {
                eprintln!("[damaris node {node_id}] trace file close failed: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The core driven directly on the test thread: the test plays every
    //! client (a `DamarisClient` call queues, or posts a notice, without
    //! needing a server) and feeds what it made to `admit` and `handle` the
    //! way the node's event source does.

    use super::*;
    use crate::client::DamarisClient;
    use crate::config::Config;
    use crate::journal::EventJournal;
    use damaris_fs::LocalDirBackend;

    const XML: &str = r#"<damaris>
        <buffer size="65536" allocator="partition"/>
        <layout name="v" type="real" dimensions="16"/>
        <variable name="a" layout="v"/>
        <variable name="b" layout="v"/>
    </damaris>"#;
    const CLIENTS: usize = 2;

    /// Where the node's shared state lives: on the heap, as in the
    /// threaded node, or — the process node's — in a mapping and a journal
    /// file, from which [`reopen`] builds a successor that shares no
    /// memory with its predecessor. The core cannot tell them apart, and
    /// every test here runs over both.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fixture {
        Heap,
        Mapped,
    }
    const FIXTURES: [Fixture; 2] = [Fixture::Heap, Fixture::Mapped];

    fn dir(tag: &str, fixture: Fixture) -> std::path::PathBuf {
        let name = format!("damaris-core-{tag}-{fixture:?}-{}", std::process::id());
        std::env::temp_dir().join(name)
    }

    fn node(tag: &str, fixture: Fixture) -> (Arc<NodeShared>, Vec<DamarisClient>) {
        let dir = dir(tag, fixture);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        if fixture == Fixture::Mapped {
            damaris_shm::MappedNode::create(&dir.join("node.shm"), CLIENTS, 65536, 1024).unwrap();
        }
        reopen(tag, fixture)
    }

    /// The node over what `tag`'s directory holds.
    fn reopen(tag: &str, fixture: Fixture) -> (Arc<NodeShared>, Vec<DamarisClient>) {
        let dir = dir(tag, fixture);
        let backend = Arc::new(LocalDirBackend::new(&dir).unwrap());
        let config = Config::from_xml(XML).unwrap();
        let shared = Arc::new(match fixture {
            Fixture::Heap => NodeShared::new(config, CLIENTS, backend, 0),
            Fixture::Mapped => {
                let mapping = damaris_shm::MappedNode::open(&dir.join("node.shm")).unwrap();
                let (journal, _) = EventJournal::open(&dir.join("journal")).unwrap();
                NodeShared::over_mapping(config, mapping, backend, 0, journal)
            }
        });
        let clients = (0..CLIENTS as u32)
            .map(|id| DamarisClient::new(id, Arc::clone(&shared)))
            .collect();
        (shared, clients)
    }

    fn core(shared: &Arc<NodeShared>, epoch: u32) -> DedicatedCore {
        let epe = EventProcessingEngine::build(&shared.config, &[]).unwrap();
        DedicatedCore::new(Arc::clone(shared), epe, epoch)
    }

    /// The oldest event a client made and no core took: off the queue on
    /// the heap; over a mapping, the oldest notice of the first client's
    /// ring that holds one, taken as the process pump takes it.
    fn take(shared: &NodeShared) -> Option<Event> {
        let crate::node::BufferManager::Mapped(node, _) = &shared.buffer else {
            return shared.queue.pop();
        };
        (0..shared.clients).find_map(|client| {
            let ring = node.notices(client);
            let notice = damaris_shm::Notice::decode(ring.peek()?).unwrap();
            ring.advance();
            Some(shared.event_of(client as u32, notice).unwrap())
        })
    }

    /// Admits and handles up to `limit` client events, as the node's event
    /// source would.
    fn pump(shared: &NodeShared, core: &mut DedicatedCore, limit: usize) {
        for _ in 0..limit {
            let Some(event) = take(shared) else {
                return;
            };
            let seq = core.admit(&event).expect("no client is fenced");
            assert!(core.handle(seq, event).unwrap().is_continue());
        }
    }

    /// Everything a replay has to rebuild, in comparable form: resident
    /// variables, held segments, counted end-notifications, accumulators.
    fn state(core: &DedicatedCore) -> impl PartialEq + std::fmt::Debug {
        let resident: Vec<_> = core
            .store
            .pending_iterations()
            .into_iter()
            .flat_map(|it| core.store.iteration_entries(it))
            .map(|v| (v.key, v.seq, v.segment.offset(), v.data().to_vec()))
            .collect();
        let held: Vec<_> = core
            .held
            .iter()
            .flat_map(|(it, segments)| segments.iter().map(move |s| (*it, s)))
            .map(|(it, (source, seq, segment))| {
                (it, *source, *seq, segment.offset(), segment.len())
            })
            .collect();
        let mut ends: Vec<_> = core.end_counts.clone().into_iter().collect();
        ends.sort();
        let r = &core.report;
        let totals = (
            r.variables_received,
            r.bytes_received,
            r.peak_resident_bytes,
        );
        (resident, held, ends, totals)
    }

    fn files(shared: &NodeShared) -> Vec<(std::path::PathBuf, Vec<u8>)> {
        let names = shared.backend.list_sdf_files().unwrap();
        names
            .into_iter()
            .map(|name| {
                let bytes = std::fs::read(shared.backend.root().join(&name)).unwrap();
                (name, bytes)
            })
            .collect()
    }

    /// Three writes, a same-tuple rewrite, an `Abandon` and two
    /// `EndIteration`s — seven notifications that leave both iterations
    /// one client short, so a replay retires nothing by itself and the
    /// rebuilt state can be looked at.
    fn prefix(clients: &[DamarisClient]) {
        let (c0, c1) = (&clients[0], &clients[1]);
        c0.write("a", 0, &[1; 64]).unwrap();
        c1.write("a", 0, &[2; 64]).unwrap();
        c0.write("a", 0, &[3; 64]).unwrap();
        drop(c1.alloc("b", 0).unwrap());
        c0.end_iteration(0).unwrap();
        c0.write("b", 1, &[4; 64]).unwrap();
        c0.end_iteration(1).unwrap();
    }

    #[test]
    fn replay_rebuilds_what_live_handling_built() {
        FIXTURES.into_iter().for_each(replay_rebuilds);
    }

    fn replay_rebuilds(fixture: Fixture) {
        let (live_shared, live_clients) = node("replay-live", fixture);
        prefix(&live_clients);
        let mut live = core(&live_shared, 0);
        pump(&live_shared, &mut live, usize::MAX);

        // The same notifications, but epoch 0 dies after handling three of
        // them (those records are Resident; the rest were never journalled
        // and are still queued) and epoch 1 rebuilds from the journal alone
        // — over the mapping, from the journal's file in a node built anew,
        // as a process that shares nothing with the dead one would. What
        // the dead core never took is the successor's to take: over the
        // mapping, the clients' notice rings still hold it.
        let (mut shared, mut clients) = node("replay-respawned", fixture);
        prefix(&clients);
        let mut dead = core(&shared, 0);
        pump(&shared, &mut dead, 3);
        drop(dead);
        if fixture == Fixture::Mapped {
            (shared, clients) = reopen("replay-respawned", fixture);
        }
        let mut replayed = core(&shared, 1);
        replayed.replay().unwrap();
        assert_eq!(FaultStats::get(&shared.stats.events_replayed), 3);
        pump(&shared, &mut replayed, usize::MAX);

        assert_eq!(state(&replayed), state(&live));
        assert_eq!((replayed.store.len(), replayed.held[&0].len()), (3, 2));

        // Both carry on alike: the missing client ends both iterations.
        for (shared, clients, core) in [
            (&live_shared, &live_clients, &mut live),
            (&shared, &clients, &mut replayed),
        ] {
            clients[1].end_iteration(0).unwrap();
            clients[1].end_iteration(1).unwrap();
            pump(shared, core, usize::MAX);
            core.idle().unwrap();
            core.quiet().unwrap();
            assert_eq!(core.report.iterations_persisted, 2);
            assert!(core.store.is_empty() && core.held.is_empty());
            assert_eq!(shared.buffer.in_use(CLIENTS), 0);
        }
        let written = files(&shared);
        assert_eq!(written.len(), 2);
        assert_eq!(written, files(&live_shared));
    }

    #[test]
    fn fired_iterations_commit_as_one_batch_when_the_queue_goes_quiet() {
        FIXTURES.into_iter().for_each(batch_commits);
    }

    fn batch_commits(fixture: Fixture) {
        let (shared, clients) = node("group-commit", fixture);
        for it in 0..3u32 {
            for (client, fill) in clients.iter().zip([1u8, 2]) {
                client.write("a", it, &[fill; 64]).unwrap();
                client.end_iteration(it).unwrap();
            }
        }
        let mut core = core(&shared, 0);
        pump(&shared, &mut core, usize::MAX);
        core.idle().unwrap();

        // All three fired; nothing is committed, published or released.
        let root = shared.backend.root();
        assert_eq!(core.report.iterations_persisted, 3);
        assert_eq!(core.parked.len(), 3);
        assert!(files(&shared).is_empty());
        assert_eq!(damaris_fs::Manifest::load(root).unwrap().generation, 0);
        assert_eq!(shared.buffer.in_use(CLIENTS), 3 * 2 * 64);
        shared.journal.compact();
        assert_eq!(shared.journal.len(), 6, "the write records, still resident");

        core.quiet().unwrap();
        assert!(core.parked.is_empty() && core.pending_release.is_empty());
        assert_eq!(files(&shared).len(), 3);
        let manifest = damaris_fs::Manifest::load(root).unwrap();
        assert_eq!((manifest.generation, manifest.entries.len()), (3, 3));
        let stats = &shared.stats;
        assert_eq!(FaultStats::get(&stats.commit_batches), 1);
        assert_eq!(FaultStats::get(&stats.manifest_publishes), 1);
        assert_eq!(shared.buffer.in_use(CLIENTS), 0);
        shared.journal.compact();
        assert_eq!(shared.journal.len(), 0);
        // A second quiet call finds nothing to do.
        core.quiet().unwrap();
        assert_eq!(FaultStats::get(&stats.commit_batches), 1);
    }

    #[test]
    fn a_later_iterations_held_segments_release_after_the_parked_one() {
        FIXTURES.into_iter().for_each(held_after_parked);
    }

    fn held_after_parked(fixture: Fixture) {
        let (shared, clients) = node("parked-fifo", fixture);
        let (c0, c1) = (&clients[0], &clients[1]);
        // Client 0's ring, in allocation order: iteration 0's segment
        // (parked once it fires), then a segment of iteration 1 that its
        // rewrite displaces (held), then the rewrite. Firing iteration 1
        // hands the held segment to the release queue while iteration 0
        // is still parked: flushed there and then it would go back ahead
        // of iteration 0's — the partition allocator asserts FIFO release
        // in debug builds, and in release builds the tail counter breaks.
        c0.write("a", 0, &[1; 64]).unwrap();
        c0.write("a", 1, &[2; 64]).unwrap();
        c0.write("a", 1, &[3; 64]).unwrap();
        c1.write("a", 0, &[4; 64]).unwrap();
        let mut core = core(&shared, 0);
        for it in 0..2u32 {
            c0.end_iteration(it).unwrap();
            c1.end_iteration(it).unwrap();
            pump(&shared, &mut core, usize::MAX);
            core.idle().unwrap();
            assert_eq!(core.parked.len() as u32, it + 1);
            assert_eq!(
                shared.buffer.in_use(CLIENTS),
                4 * 64,
                "nothing released yet"
            );
        }
        assert_eq!(core.pending_release.len(), 1, "the displaced segment waits");
        core.quiet().unwrap();
        assert_eq!(shared.buffer.in_use(CLIENTS), 0);
        assert_eq!(files(&shared).len(), 2);
        // The ring is intact: client 0 can fill its whole partition again.
        for _ in 0..(65536 / CLIENTS / 64) {
            c0.write("b", 2, &[5; 64]).unwrap();
        }
    }

    /// A client may commit or drop its zero-copy regions in another order
    /// than it allocated them. The core gives the ring back in allocation
    /// order regardless: released in notification order, B before A, the
    /// ring's tail ran past its head (a FIFO assertion in debug builds, a
    /// ring wedged on `Full` in release builds).
    #[test]
    fn regions_given_back_out_of_order_release_in_allocation_order() {
        FIXTURES.into_iter().for_each(out_of_order_regions);
    }

    fn out_of_order_regions(fixture: Fixture) {
        for drop_a in [false, true] {
            let (shared, clients) = node(&format!("out-of-order-{drop_a}"), fixture);
            let (c0, c1) = (&clients[0], &clients[1]);
            let mut core = core(&shared, 0);
            for it in 0..3u32 {
                let mut a = c0.alloc("a", it).unwrap();
                a.as_mut_slice().fill(1);
                let mut b = c0.alloc("b", it).unwrap();
                b.as_mut_slice().fill(2);
                b.commit().unwrap();
                if drop_a {
                    drop(a);
                } else {
                    a.commit().unwrap();
                }
                c0.end_iteration(it).unwrap();
                c1.end_iteration(it).unwrap();
                pump(&shared, &mut core, usize::MAX);
                core.idle().unwrap();
                core.quiet().unwrap();
                assert_eq!(shared.buffer.in_use(CLIENTS), 0, "drop_a={drop_a}");
            }
            assert_eq!(core.report.iterations_persisted, 3);
            // The ring is intact: client 0 can fill all of it again.
            for _ in 0..(65536 / CLIENTS / 64) {
                c0.write("b", 3, &[5; 64]).unwrap();
            }
        }
    }

    #[test]
    fn retire_outcomes_release_alike_and_count_apart() {
        FIXTURES.into_iter().for_each(retire_outcomes);
    }

    fn retire_outcomes(fixture: Fixture) {
        use DropCause::{ClientFenced, DiskFull};
        let presence = Some(0b01);
        // (tag, outcome, does client 1 end the iteration,
        //  [persisted, partial, degraded, sheds])
        let table = [
            ("fire", Outcome::Fire { presence: None }, true, [1, 0, 0, 0]),
            ("partial", Outcome::Fire { presence }, false, [1, 1, 0, 0]),
            (
                "dropped",
                Outcome::Drop {
                    cause: ClientFenced,
                },
                false,
                [0, 0, 1, 0],
            ),
            (
                "shed",
                Outcome::Drop { cause: DiskFull },
                true,
                [0, 0, 1, 1],
            ),
        ];
        let mut left_behind = Vec::new();
        for (tag, outcome, everyone_ends, expect) in table {
            let (shared, clients) = node(&format!("retire-{tag}"), fixture);
            let (c0, c1) = (&clients[0], &clients[1]);
            // Client 0's ring holds, in allocation order: a displaced
            // segment (held), its replacement (resident) and one of the
            // next iteration (stays). The partition allocator asserts FIFO
            // release in debug builds, so retiring iteration 0 only gets
            // through if held and resident segments merge back in order.
            c0.write("a", 0, &[1; 64]).unwrap();
            c1.write("a", 0, &[2; 64]).unwrap();
            c0.write("a", 0, &[3; 64]).unwrap();
            c0.write("b", 1, &[4; 64]).unwrap();
            c0.end_iteration(0).unwrap();
            if everyone_ends {
                c1.end_iteration(0).unwrap();
            }
            let mut core = core(&shared, 0);
            pump(&shared, &mut core, usize::MAX);
            let counted = core.end_counts.remove(&0).unwrap();
            core.retire(0, counted, outcome).unwrap();
            core.quiet().unwrap();

            assert_eq!(core.store.pending_iterations(), [1], "{tag}");
            assert!(
                core.held.is_empty() && core.pending_release.is_empty(),
                "{tag}"
            );
            shared.journal.compact();
            left_behind.push((shared.buffer.in_use(CLIENTS), shared.journal.len()));
            let stats = &shared.stats;
            let counts = [
                core.report.iterations_persisted,
                FaultStats::get(&stats.partial_iterations),
                FaultStats::get(&stats.iterations_degraded),
                FaultStats::get(&stats.storage_pressure_sheds),
            ];
            assert_eq!(counts, expect, "{tag}");
            assert_eq!(files(&shared).len() as u64, expect[0], "{tag}");
        }
        // One segment and one journal record (iteration 1's) survive,
        // whichever way iteration 0 left.
        assert_eq!(left_behind, [(64, 1); 4]);
    }

    /// The list of retired iterations exists for an event source that
    /// counts them; the threaded one does not, and must not keep it
    /// either: `quiet` hands it out, so after 1 000 iterations through
    /// `serve` — the loop `run` runs — nothing of it is left. (It used to
    /// grow by four bytes an iteration for the life of the incarnation.)
    #[test]
    fn retired_list_does_not_outlive_the_quiet_that_hands_it_out() {
        const ITERATIONS: u32 = 1000;
        let (shared, clients) = node("retired-drains", Fixture::Heap);
        let mut core = core(&shared, 0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for it in 0..ITERATIONS {
                    for client in &clients {
                        client.write("a", it, &[it as u8; 64]).unwrap();
                        client.end_iteration(it).unwrap();
                    }
                }
                // The last release is the last thing a `quiet` pass does
                // before it hands the list out, and the core pops its next
                // event only after that.
                while shared.buffer.in_use(CLIENTS) != 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                assert!(shared.queue.push(Event::Terminate).is_ok());
            });
            core.serve().unwrap();
        });
        assert_eq!(core.report.iterations_persisted, u64::from(ITERATIONS));
        assert!(core.retired.is_empty(), "{} kept", core.retired.len());
    }

    /// The same harness, paced: each iteration is written, ended and
    /// committed before the next starts. After each committing pass the
    /// journal holds at most that iteration's records — applied, and gone
    /// the moment the pass compacts — not one per event of the run.
    #[test]
    fn the_journal_holds_what_is_not_committed_not_the_whole_run() {
        const ITERATIONS: u32 = 200;
        // One write and one end-notification per client.
        const PER_ITERATION: usize = 2 * CLIENTS;
        let (shared, clients) = node("journal-bound", Fixture::Heap);
        let mut core = core(&shared, 0);
        // The most records seen after a pass, and the iteration it was.
        let most = std::thread::scope(|scope| {
            let ranks = scope.spawn(|| {
                let mut most = (0, 0);
                for it in 0..ITERATIONS {
                    for client in &clients {
                        client.write("a", it, &[it as u8; 64]).unwrap();
                        client.end_iteration(it).unwrap();
                    }
                    // Released means committed: the pass that did it has
                    // applied every record of the iteration.
                    while shared.buffer.in_use(CLIENTS) != 0 {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                    most = most.max((shared.journal.len(), it));
                }
                assert!(shared.queue.push(Event::Terminate).is_ok());
                most
            });
            core.serve().unwrap();
            ranks.join().unwrap()
        });
        let (kept, after) = most;
        assert!(
            kept <= PER_ITERATION,
            "{kept} records after iteration {after}"
        );
        assert_eq!(core.report.iterations_persisted, u64::from(ITERATIONS));
        assert_eq!(shared.journal.len(), 0);
    }
}
