//! The dedicated core.
//!
//! Runs on the node's dedicated core — a thread of the threaded node, a
//! process of its own in the process node: takes its clients' notices,
//! maintains the metadata store, tracks per-iteration completion across
//! the node's clients, and hands events to the EPE. Actual I/O happens
//! inside plugins — asynchronously with respect to the compute cores,
//! which is the whole point (§III).
//!
//! The core is one value, [`DedicatedCore`]: [`replay`](DedicatedCore::replay)
//! rebuilds a dead predecessor's state from the notice rings,
//! [`drain`](DedicatedCore::drain) is one pass over every client's notice
//! ring (peek → validate → admit → advance → handle), [`idle`](DedicatedCore::idle)
//! the pressure → sweep → fire → reclaim → beat pass after an end of
//! iteration and every pass,
//! [`quiet`](DedicatedCore::quiet) commits what fired iterations parked
//! once a pass reads nothing, and [`shutdown`](DedicatedCore::shutdown)
//! and [`finish`](DedicatedCore::finish) close the books. [`run`] is one
//! incarnation of it, from boot to report, on both nodes: a thread of
//! [`crate::NodeRuntime`], or [`crate::proc::run_epe`]'s process, over
//! the same rings in the same layout, on the heap or in a mapping.
//!
//! # Crash recovery
//!
//! Each incarnation gets a heartbeat *epoch*. The notice ring is the log
//! ([`damaris_shm::notice`]): taking a notice advances the ring's `tail`,
//! and its slot stays the core's until the core *applies* it — a write or
//! an abandoned region once its segment is released after commit, an end
//! once its iteration retires (before the fire), a signal before its
//! dispatch, a refused notice at once. A respawned incarnation first
//! **replays** what the dead one took and did not apply, `[applied,
//! tail)` of every ring — re-adopting the segments it had resident,
//! re-counting end-of-iteration notifications, firing signals it never
//! dispatched — and only then publishes its epoch, so clients parked on a
//! stale heartbeat resume against rebuilt state. What is at or past
//! `tail` is news. A fence is the lease word's revoked bit.

use crate::config::{OnClientFailure, OnDiskFull};
use crate::epe::{EventProcessingEngine, END_OF_ITERATION};
use crate::error::DamarisError;
use crate::event::Event;
use crate::metadata::{MetadataStore, StoredVariable, VariableKey};
use crate::node::{FaultStats, NodeReport, NodeShared};
use crate::plugin::{ActionContext, EventInfo, Parked};
use damaris_obs::{EventKind, Histogram, Recorder, TraceRecord, TraceWriter};
use damaris_shm::ring::Reach;
use damaris_shm::sync::{spin_loop, yield_now, Ordering};
use damaris_shm::{LeaseSnapshot, Notice, Segment};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io::BufWriter;
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

/// One incarnation of the dedicated core, on either node: replays what a
/// dead predecessor left (`incarnation > 0`), and only then publishes
/// epoch `incarnation + 1` (a fresh layout's zero word is no epoch), so a
/// client that sees it sees the rebuilt state; drains until `done` holds
/// before a pass that reads nothing; closes the books. `admitted` is
/// [`DedicatedCore::drain`]'s hook. An injected event
/// ([`NodeShared::control`]) goes after what every client posted before
/// it was injected. Between passes that read nothing the core spins, then
/// yields, beating — or, while the sweeper or the pressure machine must
/// run, sleeps 100 µs: a dead client posts nothing, nor does a quota
/// lift, yet both must move the node on.
pub(crate) fn run(
    shared: Arc<NodeShared>,
    epe: EventProcessingEngine,
    incarnation: u32,
    mut done: impl FnMut() -> bool,
    mut admitted: impl FnMut(&DedicatedCore, &Event),
) -> Result<NodeReport, DamarisError> {
    let mut core = DedicatedCore::new(Arc::clone(&shared), epe, incarnation);
    if incarnation > 0 {
        core.replay()?;
    }
    shared.heartbeat().begin_epoch(incarnation + 1);
    let sleeps = core.sweeper_on || core.pressure_on;
    let (mut spins, mut injected) = (0u32, VecDeque::new());
    loop {
        // Asked before the pass, so a pass that reads nothing after it
        // has taken every notice posted before `done` held.
        let finishing = done();
        injected.extend(std::mem::take(&mut *shared.control.lock()));
        if let Some((event, marks)) = injected.pop_front() {
            let behind = |rank| shared.node.notices(rank).untaken_before(marks[rank]) > 0;
            while (0..shared.clients).any(behind) {
                core.drain(&marks, &mut admitted)?;
            }
            core.take(0, event)?;
        } else if !core.drain(&[], &mut admitted)? {
            // Quiet: under backpressure clients wait on the memory
            // parked iterations hold — commit them before waiting.
            core.quiet()?;
            if finishing {
                break;
            }
            if core.idle_from.is_none() {
                core.idle_from = Some(core.rec.begin());
            }
            if sleeps {
                core.idle()?;
                core.quiet()?;
                std::thread::sleep(Duration::from_micros(100));
            } else {
                shared.heartbeat().beat();
                spins += 1;
                if spins < 64 {
                    spin_loop();
                } else {
                    yield_now();
                }
            }
            continue;
        }
        spins = 0;
    }
    core.shutdown()?;
    Ok(core.finish())
}

/// A segment the core must release without handing it to a plugin, as
/// `(source, notice, segment)`: `notice` is the position, in `source`'s
/// notice ring, of the notice to apply when it is released.
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
/// that dies with it (the node's layout in [`NodeShared`] outlives it and
/// lets the next incarnation [`replay`](Self::replay)).
pub(crate) struct DedicatedCore {
    shared: Arc<NodeShared>,
    epe: EventProcessingEngine,
    store: MetadataStore,
    /// End-notifications counted per iteration, as `(source, notice)`
    /// pairs: the sources decide completion against the fenced set, and
    /// the notices are applied when the iteration retires.
    end_counts: HashMap<u32, Vec<(u32, u64)>>,
    /// Clients whose lease was revoked. The lease words outlive the core:
    /// a respawned epoch starts from its predecessor's fenced set.
    fenced: BTreeSet<u32>,
    /// Per-client `(last observation, expiry deadline)` on the backend's
    /// clock (virtual under test). The deadline refreshes whenever the
    /// observation changes; an unchanged lease past its deadline is swept.
    lease_track: Vec<(LeaseSnapshot, Duration)>,
    /// Segments that release without persisting — displaced by a
    /// same-(iteration, variable, source) rewrite, abandoned by their
    /// client, or cancelled by a fence — held until their iteration
    /// retires. Releasing them on the spot is NOT safe: each client's data
    /// ring releases in FIFO order, and a client that ran
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
    /// Per client, its ring's words as this core last read them.
    reach: Vec<Reach>,
    /// Where the span of the wait for the next event starts.
    idle_from: Option<u64>,
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
            store: MetadataStore::new(),
            end_counts: HashMap::new(),
            fenced: (0..shared.clients)
                .filter(|&c| shared.node.lease(c).is_revoked())
                .map(|c| c as u32)
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
            reach: vec![Reach::default(); shared.clients],
            idle_from: None,
            report: NodeReport::default(),
            epe,
            shared,
        }
    }

    /// Replay: finishes a free the dead incarnation was killed in
    /// (`NoticeRing::recover`), rebuilds its state from what it took and
    /// did not apply, `[applied, tail)` of each ring, then fires the
    /// iterations the replayed ends (or pre-crash fencing) completed. Runs
    /// before the new epoch is published, and before anything at or past
    /// `tail` is taken. A replayed signal goes after every other replayed
    /// notice: the dead core took them first.
    pub(crate) fn replay(&mut self) -> Result<(), DamarisError> {
        let shared = Arc::clone(&self.shared);
        let mut signals = Vec::new();
        for rank in 0..shared.clients {
            let ring = shared.node.notices(rank);
            ring.recover();
            for (notice, words) in ring.unapplied() {
                let reach = &mut self.reach[rank];
                let event =
                    Notice::decode(words).and_then(|n| shared.event_of(rank as u32, n, reach));
                let Some(event) = event else {
                    // Believed once; only a mapping changed under it says
                    // otherwise now.
                    ring.apply(notice);
                    FaultStats::bump(&shared.stats.stale_events_rejected);
                    continue;
                };
                if self.fenced.contains(&(rank as u32)) {
                    // The dead epoch's sweeper fenced this client but may
                    // have died mid-cancel: finish the job.
                    self.cancel_fenced(notice, event);
                    continue;
                }
                FaultStats::bump(&shared.stats.events_replayed);
                match event {
                    Event::User { .. } => signals.push((notice, event)),
                    event => self.handle(notice, event)?,
                }
            }
        }
        for (notice, event) in signals {
            self.handle(notice, event)?;
        }
        self.fire_ready()
    }

    /// Applies the notice at position `notice` of `source`'s ring; a no-op
    /// for an event from no ring.
    fn apply(&self, source: u32, notice: u64) {
        if (source as usize) < self.shared.clients {
            self.shared.node.notices(source as usize).apply(notice);
        }
    }

    /// Whether the core takes an event of `source` it is about to handle:
    /// not if `source` is fenced — the caller then applies its notice and
    /// counts it in `stale_events_rejected`; a refused `Write` or
    /// `Abandon` leaves its segment unreleased, for `reclaim_fenced`'s
    /// `revoke_remaining`.
    pub(crate) fn admit(&mut self, source: u32) -> bool {
        if let Some(t) = self.idle_from.take() {
            // Tagged with the iteration we are presumably waiting for.
            let waiting_for = self.last_fired.wrapping_add(1);
            self.rec.end(EventKind::QueueIdle, waiting_for, 0, t);
        }
        !self.fenced.contains(&source)
    }

    /// Whether `event` writes or ends an iteration whose end its client
    /// posted before it (the `ended` word is past it): taken, it would
    /// fire that iteration again or count its end twice. Checked as a
    /// notice is taken, never at replay — the end may have been taken
    /// after the write, and a refused notice is never replayed
    /// (`NoticeRing::refuse`).
    fn late(&self, event: &Event) -> bool {
        let (Event::Write {
            iteration, source, ..
        }
        | Event::EndIteration { iteration, source }) = *event
        else {
            return false;
        };
        // Relaxed: only this core writes the word.
        self.shared
            .node
            .ended(source as usize)
            .load(Ordering::Relaxed)
            > u64::from(iteration)
    }

    /// Applies one event, taken as the notice at position `notice` of its
    /// source's ring (any position for an injected event).
    pub(crate) fn handle(&mut self, notice: u64, event: Event) -> Result<(), DamarisError> {
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
                self.ingest_write(key, segment, dynamic_layout, notice)?;
            }
            Event::User {
                name,
                iteration,
                source,
            } => {
                // At-most-once: apply the notice before firing, so a crash
                // mid-plugin does not re-fire it on replay.
                self.apply(source, notice);
                self.report.user_events += 1;
                let t_epe = self.rec.begin();
                self.dispatch(name, iteration, source)?;
                self.rec.end(EventKind::EpeDispatch, iteration, 0, t_epe);
            }
            Event::EndIteration { iteration, source } => {
                // The fire itself happens in `idle`'s `fire_ready` pass,
                // which also covers iterations completed by fencing. A
                // second end of an iteration was refused as `late`.
                let counted = self.end_counts.entry(iteration).or_default();
                counted.push((source, notice));
                let ended = self.shared.node.ended(source as usize);
                let next = u64::from(iteration) + 1;
                // Relaxed: a count that publishes nothing, written by the
                // core alone.
                if ended.load(Ordering::Relaxed) < next {
                    ended.store(next, Ordering::Relaxed);
                }
            }
            Event::Abandon {
                iteration,
                source,
                segment,
            } => {
                // A client handed back an uncommitted region. It may not
                // release the segment itself (per-client FIFO, single
                // consumer) — hold it until the iteration retires.
                self.hold(iteration, (source, notice, segment));
            }
        }
        Ok(())
    }

    /// One pass over every client's notice ring: at most a ring's worth of
    /// each, and only what was posted before `marks[rank]` if given. A
    /// notice [`NodeShared::event_of`] believes, and that is not a
    /// [`late`](Self::late) write or end, is admitted, taken off its
    /// ring (`admitted` sees it then, before it is handled) and handled, an
    /// end of iteration followed by [`idle`](Self::idle); any other is
    /// taken off, applied and counted stale. The pass ends with `idle`.
    /// True if there was any notice.
    ///
    /// A user event ends its rank's visit and goes at the end of the pass.
    /// From the first one the core sees, the pass takes from each ring only
    /// what was posted before it saw that one, and a second visit to every
    /// other ring takes the rest of that: a signal goes after what was
    /// posted before the core read it, and before what was posted after —
    /// an end that would complete its iteration included.
    pub(crate) fn drain(
        &mut self,
        marks: &[u64],
        admitted: &mut impl FnMut(&DedicatedCore, &Event),
    ) -> Result<bool, DamarisError> {
        let shared = Arc::clone(&self.shared);
        // Each ring's posted count as the first signal was seen: empty,
        // and no bound, until then.
        let mut cut = Vec::new();
        let mark = |cut: &[u64], rank: usize| {
            let given = marks.get(rank).copied().unwrap_or(u64::MAX);
            given.min(cut.get(rank).copied().unwrap_or(u64::MAX))
        };
        let mut read_any = false;
        let mut signals = Vec::new();
        for rank in 0..shared.clients {
            let (read, signal) = self.drain_ring(&shared, rank, mark(&cut, rank), admitted)?;
            read_any |= read;
            if let Some(signal) = signal {
                if signals.is_empty() {
                    let posted = |rank| shared.node.notices(rank).posted();
                    cut = (0..shared.clients).map(posted).collect();
                }
                signals.push((rank, signal));
            }
        }
        self.idle()?;
        if signals.is_empty() {
            return Ok(read_any);
        }
        // One more visit to every other ring takes what was posted before
        // the cut. A signal it meets stays on its ring for the next pass.
        for rank in 0..shared.clients {
            if signals.iter().all(|(signalled, _)| *signalled != rank) {
                self.drain_ring(&shared, rank, mark(&cut, rank), admitted)?;
            }
        }
        for (rank, event) in signals {
            let notice = shared.node.notices(rank).advance();
            self.take(notice, event)?;
        }
        Ok(read_any)
    }

    /// [`drain`](Self::drain)'s visit to `rank`'s ring: whether it read a
    /// notice, and the user event it stopped at, still on the ring.
    fn drain_ring(
        &mut self,
        shared: &NodeShared,
        rank: usize,
        mark: u64,
        admitted: &mut impl FnMut(&DedicatedCore, &Event),
    ) -> Result<(bool, Option<Event>), DamarisError> {
        let ring = shared.node.notices(rank);
        let most = ring
            .untaken_before(mark)
            .min(shared.node.notice_capacity() as u64);
        let mut read_any = false;
        for _ in 0..most {
            let Some(words) = ring.peek() else {
                break;
            };
            read_any = true;
            let reach = &mut self.reach[rank];
            let event = Notice::decode(words).and_then(|n| shared.event_of(rank as u32, n, reach));
            let event = match event {
                Some(event @ Event::User { .. }) => return Ok((true, Some(event))),
                Some(event) if self.admit(rank as u32) && !self.late(&event) => event,
                _ => {
                    ring.refuse();
                    FaultStats::bump(&shared.stats.stale_events_rejected);
                    continue;
                }
            };
            let notice = ring.advance();
            admitted(self, &event);
            // Only an end of iteration can complete one: fire it at once.
            let ends = matches!(event, Event::EndIteration { .. });
            self.handle(notice, event)?;
            if ends {
                self.idle()?;
            }
            self.idle_from = Some(self.rec.begin());
        }
        Ok((read_any, None))
    }

    /// Admits, handles and follows with an [`idle`](Self::idle) pass one
    /// event taken as `notice` of its source's ring, or from no ring; a
    /// refused one is applied and counted.
    fn take(&mut self, notice: u64, event: Event) -> Result<(), DamarisError> {
        let source = event.source();
        if !self.admit(source) {
            self.apply(source, notice);
            FaultStats::bump(&self.shared.stats.stale_events_rejected);
            return Ok(());
        }
        self.handle(notice, event)?;
        self.idle()?;
        self.idle_from = Some(self.rec.begin());
        Ok(())
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

    /// The rings went quiet: commits what the fired iterations parked, as
    /// one batch, and releases their memory. Nothing parked, nothing done —
    /// a loop calls this after every pass that read nothing. The commit
    /// releases what it persisted, and applies the notices that named it.
    pub(crate) fn quiet(&mut self) -> Result<(), DamarisError> {
        if !self.parked.is_empty() {
            let last = self.last_fired;
            let t_epe = self.rec.begin();
            self.with_plugins(Vec::new(), |epe, ctx| epe.quiet_all(ctx, last))?;
            self.rec.end(EventKind::EpeDispatch, last, 0, t_epe);
            self.close_open_span();
            self.obs_flush.drain(&self.shared);
            if self.idle_from.is_some() {
                self.idle_from = Some(self.rec.begin());
            }
        }
        Ok(())
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

    /// Closes the books after [`shutdown`](Self::shutdown): drains the
    /// trace rings one last time (so records from the tail of the run
    /// and the shutdown pass reach the histograms and the trace file) and
    /// returns the node's accounting.
    pub(crate) fn finish(mut self) -> NodeReport {
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
        notice: u64,
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
            notice,
        };
        let len = var.segment.len() as u64;
        self.report.variables_received += 1;
        self.report.bytes_received += len;
        self.report.peak_resident_bytes = self
            .report
            .peak_resident_bytes
            .max(self.store.bytes_resident() as u64 + len);
        if let Some(replaced) = self.store.insert(var) {
            self.hold(
                key.iteration,
                (key.source, replaced.notice, replaced.segment),
            );
        }
        Ok(())
    }

    fn hold(&mut self, iteration: u32, segment: Held) {
        self.held.entry(iteration).or_default().push(segment);
    }

    /// Cancels one replayed notice of a fenced client. Its data never
    /// persists, but a segment must still release in ring order when its
    /// iteration retires; a signal or end-notification is just applied
    /// (completion comes from the fenced set, not the count).
    fn cancel_fenced(&mut self, notice: u64, event: Event) {
        match event {
            Event::Write {
                iteration,
                source,
                segment,
                ..
            }
            | Event::Abandon {
                iteration,
                source,
                segment,
            } => self.hold(iteration, (source, notice, segment)),
            Event::User { source, .. } | Event::EndIteration { source, .. } => {
                self.apply(source, notice);
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
            node: &shared.node,
            stats: &shared.stats,
            metrics: &shared.metrics,
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

    /// Takes one iteration out of the core. The counted end-notifications
    /// are applied *before* anything else: plugin side effects are
    /// at-most-once across crashes (a crash mid-fire does not re-fire the
    /// iteration on replay — its data is still flushed at shutdown).
    /// Either way every resident and held segment of the iteration
    /// releases in one flush; the outcomes differ in whether the plugins
    /// see the data first, and in what is counted.
    fn retire(
        &mut self,
        iteration: u32,
        counted: Vec<(u32, u64)>,
        outcome: Outcome,
    ) -> Result<(), DamarisError> {
        for (source, notice) in counted {
            self.apply(source, notice);
        }
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

    /// The end of the run: flushes what never completed, lets stateful
    /// plugins write their residuals, and leaves no segment behind. Only
    /// [`finish`](Self::finish) follows.
    pub(crate) fn shutdown(&mut self) -> Result<(), DamarisError> {
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
        // further effect; apply them.
        let counted: Vec<_> = self.end_counts.drain().flat_map(|(_, c)| c).collect();
        for (source, notice) in counted {
            self.apply(source, notice);
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
    /// revoke fences the client: what the core took of it before stays the
    /// core's, what it posts after is refused by [`admit`](Self::admit).
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
            let reclaimed = self.shared.node.revoke_remaining(cu as usize);
            if reclaimed > 0 {
                self.shared.stats.segments_reclaimed.add(reclaimed);
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
    //! client (a `DamarisClient` call posts a notice without needing a
    //! server), takes each notice off its ring and feeds it to `handle`
    //! the way the drain pass does.

    use super::*;
    use crate::client::DamarisClient;
    use crate::config::Config;
    use damaris_fs::LocalDirBackend;
    use damaris_shm::sync::Mutex;
    use damaris_shm::MappedNode;

    const XML: &str = r#"<damaris>
        <buffer size="65536" allocator="partition"/>
        <layout name="v" type="real" dimensions="16"/>
        <variable name="a" layout="v"/>
        <variable name="b" layout="v"/>
        <layout name="bytes" type="byte" dimensions="?"/>
        <variable name="p" layout="bytes"/>
        <event name="look" action="log"/>
    </damaris>"#;
    const CLIENTS: usize = 2;

    /// The two backings of the node's layout: the heap, as in the threaded
    /// node, or — the process node's — a file mapping, from which
    /// [`reopen`] builds a successor that shares no memory with its
    /// predecessor. The core cannot tell them apart, and every test here
    /// runs over both.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fixture {
        Heap,
        File,
    }
    const FIXTURES: [Fixture; 2] = [Fixture::Heap, Fixture::File];

    fn dir(tag: &str, fixture: Fixture) -> std::path::PathBuf {
        let name = format!("damaris-core-{tag}-{fixture:?}-{}", std::process::id());
        std::env::temp_dir().join(name)
    }

    fn node(tag: &str, fixture: Fixture) -> (Arc<NodeShared>, Vec<DamarisClient>) {
        let dir = dir(tag, fixture);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        if fixture == Fixture::File {
            MappedNode::create(&dir.join("node.shm"), CLIENTS, 65536, 1024).unwrap();
        }
        reopen(tag, fixture)
    }

    /// The node over what `tag`'s directory holds.
    fn reopen(tag: &str, fixture: Fixture) -> (Arc<NodeShared>, Vec<DamarisClient>) {
        let dir = dir(tag, fixture);
        let backend = Arc::new(LocalDirBackend::new(&dir).unwrap());
        let config = Config::from_xml(XML).unwrap();
        let node = match fixture {
            Fixture::Heap => MappedNode::heap(CLIENTS, 65536, 1024),
            Fixture::File => MappedNode::open(&dir.join("node.shm")),
        };
        let shared = Arc::new(NodeShared::new(config, node.unwrap(), backend, 0));
        let clients = (0..CLIENTS as u32)
            .map(|id| DamarisClient::new(id, Arc::clone(&shared)))
            .collect();
        (shared, clients)
    }

    fn core(shared: &Arc<NodeShared>, epoch: u32) -> DedicatedCore {
        let epe = EventProcessingEngine::build(&shared.config, &[]).unwrap();
        DedicatedCore::new(Arc::clone(shared), epe, epoch)
    }

    /// The oldest notice of the first client's ring that holds one, taken
    /// off and read as the drain pass reads it, with its position.
    fn take(shared: &NodeShared) -> Option<(u64, Event)> {
        (0..shared.clients).find_map(|client| {
            let ring = shared.node.notices(client);
            let notice = damaris_shm::Notice::decode(ring.peek()?).unwrap();
            let reach = &mut Reach::default();
            let event = shared.event_of(client as u32, notice, reach).unwrap();
            Some((ring.advance(), event))
        })
    }

    /// Takes and handles up to `limit` client events, a client's in the
    /// order it posted them, as the drain pass would.
    fn pump(shared: &NodeShared, core: &mut DedicatedCore, limit: usize) {
        for _ in 0..limit {
            let Some((notice, event)) = take(shared) else {
                return;
            };
            assert!(core.admit(event.source()), "no client is fenced");
            core.handle(notice, event).unwrap();
        }
    }

    /// Notices taken and not yet applied, over every ring: what a
    /// successor would replay.
    fn unapplied(shared: &NodeShared) -> usize {
        let rings = (0..shared.clients).map(|c| shared.node.notices(c));
        rings.map(|ring| ring.unapplied().len()).sum()
    }

    /// Slots the core holds, taken or not, over every ring: what a client
    /// cannot post into.
    fn held_slots(shared: &NodeShared) -> u64 {
        let ring = |c| shared.node.notices(c);
        let held = |c| ring(c).posted() - ring(c).applied.load(Ordering::Relaxed);
        (0..shared.clients).map(held).sum()
    }

    /// Everything a replay has to rebuild, in comparable form: resident
    /// variables, held segments, counted end-notifications, accumulators.
    fn state(core: &DedicatedCore) -> impl PartialEq + std::fmt::Debug {
        let resident: Vec<_> = core
            .store
            .pending_iterations()
            .into_iter()
            .flat_map(|it| core.store.iteration_entries(it))
            .map(|v| (v.key, v.notice, v.segment.offset(), v.data().to_vec()))
            .collect();
        let held: Vec<_> = core
            .held
            .iter()
            .flat_map(|(it, segments)| segments.iter().map(move |s| (*it, s)))
            .map(|(it, (source, notice, segment))| {
                (it, *source, *notice, segment.offset(), segment.len())
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
        // them (taken, not applied; the rest were never taken) and epoch 1
        // rebuilds from the notice rings alone — over the mapping, in a
        // node built anew, as a process that shares nothing with the dead
        // one would. What the dead core never took is news to the
        // successor.
        let (mut shared, mut clients) = node("replay-respawned", fixture);
        prefix(&clients);
        let mut dead = core(&shared, 0);
        pump(&shared, &mut dead, 3);
        drop(dead);
        if fixture == Fixture::File {
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
            assert_eq!(shared.in_use(), 0);
        }
        let written = files(&shared);
        assert_eq!(written.len(), 2);
        assert_eq!(written, files(&live_shared));
    }

    /// An empty dynamic write reserves its shape header alone. The core
    /// stores an empty payload and releases the whole reservation — live
    /// or replayed, one at the start of its ring with a write behind it,
    /// and one that ends at its ring's end.
    #[test]
    fn an_empty_dynamic_write_releases_its_whole_reservation() {
        FIXTURES.into_iter().for_each(empty_dynamic);
    }

    fn empty_dynamic(fixture: Fixture) {
        let (mut shared, mut clients) = node("empty-dynamic", fixture);
        // A one-dimension shape header is 16 bytes: client 0 fills its
        // ring up to the last 16, which the empty write then takes.
        let cap = shared.node.region_capacity();
        let fill = vec![7; cap - 2 * 16];
        let c0 = &clients[0];
        c0.write_dynamic("p", 0, &[fill.len() as u64], &fill)
            .unwrap();
        c0.write_dynamic("p", 1, &[0], &[]).unwrap();
        clients[1].write_dynamic("p", 0, &[0], &[]).unwrap();
        clients[1].write("a", 0, &[1; 64]).unwrap();
        let mut dead = core(&shared, 0);
        pump(&shared, &mut dead, usize::MAX);
        let empty = dead.store.iteration_entries(1).next().unwrap();
        assert_eq!(empty.data(), []);
        assert_eq!(empty.segment.reservation(), (cap - 16, 16));
        let before = state(&dead);
        drop(dead);

        if fixture == Fixture::File {
            (shared, clients) = reopen("empty-dynamic", fixture);
        }
        let mut replayed = core(&shared, 1);
        replayed.replay().unwrap();
        assert_eq!(FaultStats::get(&shared.stats.events_replayed), 4);
        assert_eq!(state(&replayed), before);
        for client in &clients {
            client.end_iteration(0).unwrap();
            client.end_iteration(1).unwrap();
        }
        pump(&shared, &mut replayed, usize::MAX);
        replayed.idle().unwrap();
        replayed.quiet().unwrap();
        assert_eq!(replayed.report.iterations_persisted, 2);
        assert_eq!(shared.in_use(), 0);
        let file = shared.backend.root().join("node-0/iter-000001.sdf");
        let reader = damaris_format::SdfReader::open(file).unwrap();
        let empty = reader.info("/iter-1/rank-0/p").unwrap();
        assert_eq!(empty.layout.dims, [0]);
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
        assert_eq!(shared.in_use(), 3 * 2 * 64);
        // The ends were applied as their iterations retired; the writes
        // hold the front of each ring until they are released.
        assert_eq!(unapplied(&shared), 6, "the writes, still resident");
        assert_eq!(held_slots(&shared), 12);

        core.quiet().unwrap();
        assert!(core.parked.is_empty() && core.pending_release.is_empty());
        assert_eq!(files(&shared).len(), 3);
        let manifest = damaris_fs::Manifest::load(root).unwrap();
        assert_eq!((manifest.generation, manifest.entries.len()), (3, 3));
        let stats = &shared.stats;
        assert_eq!(FaultStats::get(&stats.commit_batches), 1);
        assert_eq!(FaultStats::get(&stats.manifest_publishes), 1);
        assert_eq!(shared.in_use(), 0);
        assert_eq!(held_slots(&shared), 0);
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
            assert_eq!(shared.in_use(), 4 * 64, "nothing released yet");
        }
        assert_eq!(core.pending_release.len(), 1, "the displaced segment waits");
        core.quiet().unwrap();
        assert_eq!(shared.in_use(), 0);
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
                assert_eq!(shared.in_use(), 0, "drop_a={drop_a}");
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
            left_behind.push((shared.in_use(), unapplied(&shared)));
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
        // One segment and its notice (iteration 1's) survive, whichever
        // way iteration 0 left.
        assert_eq!(left_behind, [(64, 1); 4]);
    }

    /// What a `look` action notes each time it fires.
    type Note<T> = fn(&ActionContext<'_>, &EventInfo) -> T;

    /// A `look` action noting, each time it fires, what `note` reads.
    fn look<T: Send + 'static>(
        seen: &Arc<Mutex<Vec<T>>>,
        note: Note<T>,
    ) -> (String, crate::PluginFactory) {
        struct Look<T>(Arc<Mutex<Vec<T>>>, Note<T>);
        impl<T: Send> crate::Plugin for Look<T> {
            fn name(&self) -> &str {
                "look"
            }
            fn handle(
                &mut self,
                ctx: &mut ActionContext<'_>,
                event: &EventInfo,
            ) -> Result<(), DamarisError> {
                let noted = (self.1)(ctx, event);
                self.0.lock().push(noted);
                Ok(())
            }
        }
        let seen = Arc::clone(seen);
        let factory: crate::PluginFactory =
            Box::new(move |_| Ok(Box::new(Look(Arc::clone(&seen), note))));
        ("log".to_string(), factory)
    }

    /// The order a respawned core keeps: every replayed notice — taken by
    /// the dead core, not applied — is handled before any news, a replayed
    /// signal's action sees the writes posted before it and none posted
    /// after, and an iteration the dead core retired does not fire again.
    #[test]
    fn a_respawned_core_replays_before_it_takes_news() {
        FIXTURES.into_iter().for_each(replay_order);
    }

    fn replay_order(fixture: Fixture) {
        let (mut shared, mut clients) = node("replay-order", fixture);
        let seen = Arc::new(Mutex::new(Vec::new()));
        // Each fire's iteration, and how many variables of it are resident.
        let resident: Note<_> = |ctx, event| {
            let entries = ctx.store.iteration_entries(event.iteration);
            (event.iteration, entries.count())
        };
        let build = |shared: &Arc<NodeShared>, epoch| {
            let epe = EventProcessingEngine::build(&shared.config, &[look(&seen, resident)]);
            DedicatedCore::new(Arc::clone(shared), epe.unwrap(), epoch)
        };
        // Iteration 0 goes all the way: fired, committed, applied.
        let mut dead = build(&shared, 0);
        for client in &clients {
            client.write("a", 0, &[1; 64]).unwrap();
            client.end_iteration(0).unwrap();
        }
        while dead.drain(&[], &mut |_, _| {}).unwrap() {}
        dead.quiet().unwrap();
        assert_eq!(held_slots(&shared), 0);
        // Of iteration 1 the dead core handles both writes and takes the
        // signal between them, and dies before it handles the signal.
        let (c0, c1) = (&clients[0], &clients[1]);
        c0.write("a", 1, &[2; 64]).unwrap();
        c0.signal("look", 1).unwrap();
        c1.write("a", 1, &[3; 64]).unwrap();
        pump(&shared, &mut dead, 1);
        let (signal, _) = take(&shared).unwrap();
        pump(&shared, &mut dead, 1);
        drop(dead);
        assert_eq!(unapplied(&shared), 3);
        // What is posted now is news to the successor.
        c1.write("b", 1, &[4; 64]).unwrap();
        c0.end_iteration(1).unwrap();
        c1.end_iteration(1).unwrap();

        if fixture == Fixture::File {
            (shared, clients) = reopen("replay-order", fixture);
        }
        let mut successor = build(&shared, 1);
        successor.replay().unwrap();
        // Replayed: both writes and the signal, whose action saw the two
        // writes taken before it and not the one posted after.
        assert_eq!(FaultStats::get(&shared.stats.events_replayed), 3);
        assert_eq!(*seen.lock(), [(1, 2)]);
        assert_eq!(unapplied(&shared), 2, "the writes, resident again");
        let ring0 = shared.node.notices(0);
        assert!(ring0.applied.load(Ordering::Relaxed) <= signal);
        let mut news = Vec::new();
        while successor
            .drain(&[], &mut |_, event| news.push(event.source()))
            .unwrap()
        {}
        successor.quiet().unwrap();
        assert_eq!(news, [0, 1, 1], "the ends and b: nothing replayed twice");
        assert_eq!(
            successor.report().iterations_persisted,
            1,
            "iteration 1 only"
        );
        assert_eq!(seen.lock().len(), 1, "the signal fired once");
        assert_eq!((shared.in_use(), held_slots(&shared)), (0, 0));
        let written = files(&shared);
        assert_eq!(written.len(), 2);
        let reader =
            damaris_format::SdfReader::open(shared.backend.root().join(&written[1].0)).unwrap();
        assert_eq!(reader.read_bytes("/iter-1/rank-1/b").unwrap(), [4; 64]);
        drop(clients);
    }

    /// A respawned core publishes its epoch only once it has replayed: the
    /// action of a signal the dead core took runs under the dead core's
    /// epoch, so a client that sees the new one sees what it did.
    #[test]
    fn a_respawned_core_publishes_its_epoch_after_its_replay() {
        FIXTURES.into_iter().for_each(epoch_after_replay);
    }

    fn epoch_after_replay(fixture: Fixture) {
        let (mut shared, mut clients) = node("epoch-order", fixture);
        // Incarnation 0 published its epoch, took the signal, and died
        // before it handled it.
        shared.heartbeat().begin_epoch(1);
        clients[0].signal("look", 0).unwrap();
        take(&shared).unwrap();
        if fixture == Fixture::File {
            (shared, clients) = reopen("epoch-order", fixture);
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let epoch: Note<_> = |ctx, _| ctx.node.heartbeat().epoch();
        let epe = EventProcessingEngine::build(&shared.config, &[look(&seen, epoch)]).unwrap();
        let report = run(Arc::clone(&shared), epe, 1, || true, |_, _| {}).unwrap();
        assert_eq!(report.events_replayed, 1);
        assert_eq!(*seen.lock(), [1], "the replayed action ran under epoch 1");
        assert_eq!(shared.heartbeat().epoch(), 2);
        drop(clients);
    }

    /// A notice's slot is free once applied, not once taken: a client
    /// whose ring is full of taken, uncommitted notices waits, and goes on
    /// once the commit applies them. Nothing a core took stays in a ring
    /// past the commit.
    #[test]
    fn slots_come_back_at_commit_not_at_take() {
        FIXTURES.into_iter().for_each(slots_at_commit);
    }

    fn slots_at_commit(fixture: Fixture) {
        let (shared, clients) = node("slots-at-commit", fixture);
        let slots = shared.node.notice_capacity() as u32;
        let mut core = core(&shared, 0);
        // Client 0 fills its ring: writes of iteration 0, then its end.
        for v in 0..slots - 1 {
            clients[0].write("a", v, &[v as u8; 64]).unwrap();
        }
        clients[0].end_iteration(0).unwrap();
        while core.drain(&[], &mut |_, _| {}).unwrap() {}
        assert_eq!(held_slots(&shared), u64::from(slots));
        let ring = shared.node.notices(0);
        let full = damaris_shm::Notice::EndIteration { iteration: 1 };
        assert!(!ring.post(full.encode()), "taken is not free");
        clients[1].end_iteration(0).unwrap();
        while core.drain(&[], &mut |_, _| {}).unwrap() {}
        core.quiet().unwrap();
        // Iteration 0 committed and its notices applied; the other
        // iterations' writes still hold their slots, and the end behind
        // them too.
        assert_eq!(held_slots(&shared), u64::from(slots - 1));
        assert!(ring.post(full.encode()));
        assert_eq!(FaultStats::get(&shared.stats.stale_events_rejected), 0);
    }

    /// [`run`] until `shared.finishing` is set, as the threaded node runs
    /// its first incarnation.
    fn run_until_finishing(shared: &Arc<NodeShared>) -> NodeReport {
        let epe = EventProcessingEngine::build(&shared.config, &[]).unwrap();
        let done = || shared.finishing.load(Ordering::Acquire);
        run(Arc::clone(shared), epe, 0, done, |_, _| {}).unwrap()
    }

    /// Through the core's loop — `run`'s — 1 000 iterations go through
    /// rings of 512 slots: every slot is applied and reused, and none is
    /// held at the end.
    #[test]
    fn a_threaded_run_applies_every_notice_it_takes() {
        const ITERATIONS: u32 = 1000;
        let (shared, clients) = node("applied-drains", Fixture::Heap);
        let report = std::thread::scope(|scope| {
            scope.spawn(|| {
                for it in 0..ITERATIONS {
                    for client in &clients {
                        client.write("a", it, &[it as u8; 64]).unwrap();
                        client.end_iteration(it).unwrap();
                    }
                }
                shared.finishing.store(true, Ordering::Release);
            });
            run_until_finishing(&shared)
        });
        assert_eq!(report.iterations_persisted, u64::from(ITERATIONS));
        assert_eq!(held_slots(&shared), 0);
        let posted = shared.node.notices(0).posted();
        assert!(posted > 2 * shared.node.notice_capacity() as u64);
    }

    /// The same harness, paced: each iteration is written, ended and
    /// committed before the next starts. After each committing pass the
    /// rings hold nothing the core took — not one slot per event of the
    /// run.
    #[test]
    fn the_rings_hold_what_is_not_committed_not_the_whole_run() {
        const ITERATIONS: u32 = 200;
        let (shared, clients) = node("rings-bound", Fixture::Heap);
        // The most slots held after a commit, and the iteration it was.
        let (most, report) = std::thread::scope(|scope| {
            let ranks = scope.spawn(|| {
                let mut most = (0, 0);
                for it in 0..ITERATIONS {
                    for client in &clients {
                        client.write("a", it, &[it as u8; 64]).unwrap();
                        client.end_iteration(it).unwrap();
                    }
                    // Released means committed: the pass that did it has
                    // applied every notice of the iteration.
                    while shared.in_use() != 0 {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                    most = most.max((held_slots(&shared), it));
                }
                shared.finishing.store(true, Ordering::Release);
                most
            });
            let report = run_until_finishing(&shared);
            (ranks.join().unwrap(), report)
        });
        assert_eq!(
            most.0, 0,
            "{} slots held after iteration {}",
            most.0, most.1
        );
        assert_eq!(report.iterations_persisted, u64::from(ITERATIONS));
    }

    /// A write to an iteration its client already ended — after every rank
    /// did and the iteration was persisted — is refused: stored, it would
    /// fire the iteration again and write its file over with itself alone.
    /// So is an end its client posted before, retired or not: counted, it
    /// could fire the iteration again.
    #[test]
    fn a_write_after_its_clients_end_is_refused() {
        FIXTURES.into_iter().for_each(late_write);
    }

    fn late_write(fixture: Fixture) {
        let (shared, clients) = node("late-write", fixture);
        let mut core = core(&shared, 0);
        for client in &clients {
            client.write("a", 0, &[1; 64]).unwrap();
            client.end_iteration(0).unwrap();
        }
        while core.drain(&[], &mut |_, _| {}).unwrap() {}
        core.quiet().unwrap();
        let persisted = files(&shared);
        // Iteration 0 retired: a write to it and its end again are late.
        clients[0].write("b", 0, &[9; 64]).unwrap();
        clients[0].end_iteration(0).unwrap();
        // So is a second end of an iteration that has not retired.
        clients[0].write("b", 1, &[2; 64]).unwrap();
        clients[0].end_iteration(1).unwrap();
        clients[0].end_iteration(1).unwrap();
        while core.drain(&[], &mut |_, _| {}).unwrap() {}
        assert_eq!(core.report.iterations_persisted, 1, "1 waits for rank 1");
        clients[1].end_iteration(1).unwrap();
        while core.drain(&[], &mut |_, _| {}).unwrap() {}
        core.shutdown().unwrap();
        assert_eq!(FaultStats::get(&shared.stats.stale_events_rejected), 3);
        assert_eq!(core.report.iterations_persisted, 2, "0 once, and 1");
        let written = files(&shared);
        assert_eq!(written[0], persisted[0], "iteration 0's file is untouched");
        assert_eq!((written.len(), held_slots(&shared)), (2, 0));
    }
}
