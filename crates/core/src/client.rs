//! The client-side API (paper §III-D).
//!
//! Mirrors the paper's C interface:
//!
//! | paper                          | here                                |
//! |--------------------------------|-------------------------------------|
//! | `df_initialize`/`df_finalize`  | [`crate::NodeRuntime`] lifecycle    |
//! | `df_write(var, step, data)`    | [`DamarisClient::write`]            |
//! | `df_signal(event, step)`       | [`DamarisClient::signal`]           |
//! | `dc_alloc`/`dc_commit`         | [`DamarisClient::alloc`]/[`AllocatedRegion::commit`] |
//!
//! A `write` is one shared-memory reservation, one `memcpy`, one
//! notification — nothing else; the client returns to computation
//! immediately. The notice is the only record of the event: its slot
//! stays the dedicated core's until the core is done with it, and the one
//! checksum a payload gets is the one the SDF index stores, taken by the
//! core as it writes the dataset. A rank killed mid-copy never posts its notice, so
//! the core never reads a torn segment: what the rank leaves is a
//! reservation no notice names, as after a kill at `alloc`.
//!
//! Every call that tells the dedicated core something posts one notice
//! into the client's own ring in the node's layout — a threaded rank's on
//! the heap, a process rank's ([`DamarisClient::over_mapping`]) in the
//! shared mapping — and a full ring makes it wait like a full buffer. A
//! dynamic write carries its shape in front of its payload, in the same
//! reservation; a signal names its event by its place in the
//! configuration's event list.
//!
//! # Dedicated-core failure
//!
//! While waiting on a full buffer, clients watch the server's heartbeat
//! word. If it stays unchanged for `<resilience heartbeat_timeout_ms=…>`
//! the dedicated core is presumed dead and the backpressure policy
//! degrades accordingly: the lossy policies divert immediately (`drop`
//! counts the loss, `sync-fallback` writes through to storage), while
//! `block` parks until a new heartbeat epoch appears — a respawned
//! core — and fails with
//! [`DamarisError::EpeUnavailable`] if none does within its timeout.

use crate::config::BackpressurePolicy;
use crate::error::DamarisError;
use crate::names::Resolved;
use crate::node::{FaultStats, NodeShared};
use crate::retry::Backoff;
use damaris_obs::{EventKind, Recorder};
use damaris_shm::sync::{Arc, AtomicU64, CachePadded, Ordering};
use damaris_shm::{AllocError, Notice, Segment};
use std::time::{Duration, Instant};
#[cfg(unix)]
use {crate::config::Config, damaris_shm::MappedNode};

/// How long the lossy policies (`drop`, `sync-fallback`) still wait for
/// space before giving up on shared memory — long enough to ride out a
/// momentary collision with the allocator, short enough that the client
/// never visibly stalls.
const LOSSY_GRACE: Duration = Duration::from_millis(2);

/// Why a wait on a full ring stopped short of space.
enum Stop {
    /// Deadline passed while the server was (still) heartbeating.
    TimedOut,
    /// The heartbeat word went stale: the dedicated core is presumed dead.
    Stale,
}

/// A wait on a full ring — the data ring or, over a mapping, the notice
/// ring — from its first refusal on.
struct FullWait {
    deadline: Instant,
    spins: u32,
    backoff: Backoff,
}

impl FullWait {
    fn until(deadline: Instant) -> FullWait {
        FullWait {
            deadline,
            spins: 0,
            backoff: Backoff::new(Duration::from_micros(20), Duration::from_millis(2)),
        }
    }
}

/// Handle held by one compute core.
pub struct DamarisClient {
    id: u32,
    shared: Arc<NodeShared>,
    /// Trace recorder for this rank (clones share the rank's MPSC ring;
    /// one branch per call when observability is disabled).
    rec: Recorder,
    /// Anchor for the monotonic nanosecond readings below (immutable).
    hb_anchor: Instant,
    /// Last heartbeat word observed, packed `(epoch << 32) | beat`, and
    /// when it last *changed* (nanoseconds past `hb_anchor`) — carried
    /// across calls so staleness accrues wall-clock time even though each
    /// individual wait is short.
    hb_word: AtomicU64,
    hb_changed_ns: AtomicU64,
    /// Regions from [`alloc`](Self::alloc) this rank has neither
    /// committed nor dropped, one count for every clone of the handle:
    /// [`end_iteration`](Self::end_iteration) refuses while it is nonzero.
    /// Relaxed throughout: a rank's own calls are ordered by its thread,
    /// and a region moved to another thread by whatever moved it.
    held: Arc<CachePadded<AtomicU64>>,
}

impl Clone for DamarisClient {
    fn clone(&self) -> Self {
        DamarisClient {
            id: self.id,
            shared: Arc::clone(&self.shared),
            rec: self.rec.clone(),
            hb_anchor: self.hb_anchor,
            hb_word: AtomicU64::new(self.hb_word.load(Ordering::Relaxed)),
            hb_changed_ns: AtomicU64::new(self.hb_changed_ns.load(Ordering::Relaxed)),
            held: Arc::clone(&self.held),
        }
    }
}

/// Packs an `(epoch, beat)` observation into one comparable word.
fn pack_word((epoch, beat): (u32, u32)) -> u64 {
    (u64::from(epoch) << 32) | u64::from(beat)
}

impl DamarisClient {
    pub(crate) fn new(id: u32, shared: Arc<NodeShared>) -> Self {
        let hb_word = AtomicU64::new(pack_word(shared.heartbeat().observe()));
        let rec = shared.obs.client_recorder(id);
        DamarisClient {
            id,
            shared,
            rec,
            hb_anchor: Instant::now(),
            hb_word,
            hb_changed_ns: AtomicU64::new(0),
            held: Arc::default(),
        }
    }

    /// The client of process rank `rank` on a process node ([`crate::proc`]),
    /// over the mapping `node`; it first registers this process's pid
    /// there. `config` is the one the dedicated core runs under, and
    /// `output_dir` the node's output, where `sync-fallback` writes go.
    #[cfg(unix)]
    pub fn over_mapping(
        config: Config,
        node: MappedNode,
        rank: u32,
        output_dir: impl AsRef<std::path::Path>,
    ) -> Result<DamarisClient, DamarisError> {
        if rank as usize >= node.n_clients() {
            return Err(DamarisError::Config(format!(
                "rank {rank} is not one of the mapping's {} clients",
                node.n_clients()
            )));
        }
        let backend = damaris_fs::LocalDirBackend::new(output_dir)
            .map_err(|e| DamarisError::Storage(damaris_format::SdfError::Io(e)))?;
        node.register(rank as usize, damaris_shm::this_pid());
        let shared = NodeShared::new(config, node, Arc::new(backend), 0);
        Ok(DamarisClient::new(rank, Arc::new(shared)))
    }

    /// This client's id within its node (the `source` of its tuples).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Renews this client's liveness lease. Every API entry point and
    /// every backpressure wait renews automatically; call this directly
    /// from compute phases that go a long time between Damaris calls, so a
    /// busy rank is not mistaken for a dead one.
    ///
    /// Fails with [`DamarisError::ClientFenced`] once the dedicated core's
    /// lease sweeper has revoked the lease — the rank was declared dead,
    /// its resources were reclaimed, and it must stop using the node.
    pub fn renew_lease(&self) -> Result<(), DamarisError> {
        match self.shared.lease(self.id as usize) {
            Some(lease) if lease.renew() => Ok(()),
            _ => Err(self.fenced_err()),
        }
    }

    fn fenced_err(&self) -> DamarisError {
        DamarisError::ClientFenced {
            client: self.id,
            node_id: self.shared.node_id,
        }
    }

    /// Bytes currently reserved in the node's shared buffer — a leak
    /// detector that stays usable after the runtime handle is consumed
    /// (zero at the end of a leak-free run, crashed-and-replayed or not).
    pub fn buffer_in_use(&self) -> usize {
        self.shared.in_use()
    }

    /// A static variable's id and byte size, through the node's name
    /// index (one hash, one name compare).
    fn lookup(&self, variable: &str) -> Result<(u32, u64), DamarisError> {
        match self.shared.names.get(variable) {
            Some(Resolved {
                id,
                bytes: Some(bytes),
            }) => Ok((id, bytes)),
            Some(_) => Err(DamarisError::wrong_layout_kind(variable, true)),
            None => Err(DamarisError::unknown_variable(variable)),
        }
    }

    /// Any variable's id and layout definition — for the paths that need
    /// more of the layout than its size (a dynamic shape's element type,
    /// a write-through's storage layout).
    fn lookup_def(&self, variable: &str) -> Result<(u32, &crate::LayoutDef), DamarisError> {
        let config = &self.shared.config;
        let found = self.shared.names.get(variable).and_then(|var| {
            let def = config.variable(var.id)?;
            Some((var.id, config.layout_of(def)))
        });
        found.ok_or_else(|| DamarisError::unknown_variable(variable))
    }

    /// Samples the heartbeat word; true once it has been unchanged for the
    /// configured window. A live-but-busy server (long plugin action)
    /// resumes beating and resets the clock before most windows elapse —
    /// the configuration must keep `heartbeat_timeout` above the longest
    /// expected action.
    fn heartbeat_stale(&self) -> bool {
        let word = pack_word(self.shared.heartbeat().observe());
        let elapsed_ns = self.hb_anchor.elapsed().as_nanos() as u64;
        if word != self.hb_word.load(Ordering::Relaxed) {
            self.hb_word.store(word, Ordering::Relaxed);
            self.hb_changed_ns.store(elapsed_ns, Ordering::Relaxed);
            return false;
        }
        let since_change = elapsed_ns.saturating_sub(self.hb_changed_ns.load(Ordering::Relaxed));
        Duration::from_nanos(since_change) >= self.shared.config.resilience.heartbeat_timeout
    }

    /// Resets staleness tracking (after observing recovery).
    fn reset_heartbeat_tracking(&self) {
        let word = pack_word(self.shared.heartbeat().observe());
        self.hb_word.store(word, Ordering::Relaxed);
        self.hb_changed_ns.store(
            self.hb_anchor.elapsed().as_nanos() as u64,
            Ordering::Relaxed,
        );
    }

    /// Parks until the heartbeat moves again — a new epoch (a respawned
    /// core) or a resumed beat (false alarm: the old
    /// server was busy, not dead). Fails with `EpeUnavailable` at
    /// `deadline`.
    // ANALYZE: cold — parked waiting out a server respawn; the stall is the failure mode, not jitter
    #[cold]
    fn await_heartbeat(&self, deadline: Instant) -> Result<(), DamarisError> {
        FaultStats::bump(&self.shared.stats.heartbeat_stale_observed);
        let word = self.shared.heartbeat().observe();
        loop {
            // Keep the lease warm while parked: waiting out a respawn must
            // not get this rank declared dead in its own right.
            self.renew_lease()?;
            if self.shared.heartbeat().observe() != word {
                self.reset_heartbeat_tracking();
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(DamarisError::EpeUnavailable {
                    node_id: self.shared.node_id,
                    epoch: self.shared.heartbeat().epoch(),
                });
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// One step of a wait on a full ring, data or notice. A rank stuck
    /// behind backpressure is alive: renew so the sweeper distinguishes
    /// "waiting" from "dead", and stop waiting the moment we learn we were
    /// fenced. Then yield or back off — unless the heartbeat went stale or
    /// the deadline passed, which is the caller's to act on.
    fn wait_full(&self, wait: &mut FullWait) -> Result<Option<Stop>, DamarisError> {
        self.renew_lease()?;
        if self.heartbeat_stale() {
            return Ok(Some(Stop::Stale));
        }
        let now = Instant::now();
        if now >= wait.deadline {
            return Ok(Some(Stop::TimedOut));
        }
        if wait.spins < 64 {
            // The common case: the dedicated core is mid-drain and space
            // appears within microseconds.
            wait.spins += 1;
            std::thread::yield_now();
        } else {
            self.backpressure_pause(&mut wait.backoff, wait.deadline - now);
        }
        Ok(None)
    }

    /// One bounded backoff sleep while the buffer is full. Out-of-line:
    /// a client that reaches this is already stalled on backpressure, so
    /// the sleep is accounted to the wait, not to the write fast path.
    // ANALYZE: cold — backpressure wait; the client is already stalled on a full buffer
    #[cold]
    fn backpressure_pause(&self, backoff: &mut Backoff, remaining: Duration) {
        std::thread::sleep(backoff.delay().min(remaining));
    }

    /// Blocking reservation under the `block` policy: timeout surfaces as
    /// [`DamarisError::Buffer`] with [`AllocError::Full`]; a stale
    /// heartbeat parks for a respawn and surfaces
    /// [`DamarisError::EpeUnavailable`] if none arrives in time.
    ///
    /// Deadlock note: the server reclaims an iteration's segments once
    /// *every* client of the node has ended that iteration. Clients must
    /// therefore stay loosely synchronized (as halo-exchanging simulations
    /// naturally are) or the buffer must be sized for the maximum
    /// iteration skew — the same constraint the original Damaris has. The
    /// deadline turns that failure mode from a silent hang into an error.
    fn reserve(&self, len: usize) -> Result<Segment, DamarisError> {
        let mut wait = None;
        loop {
            match self.shared.node.reserve(self.id as usize, len) {
                Ok(seg) => return Ok(seg),
                Err(AllocError::Full) => self.await_room(&mut wait)?,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Posts `notice` to the dedicated core ([`NodeShared::notify`]),
    /// waiting out a full notice ring as [`reserve`](Self::reserve) waits
    /// out a full data ring.
    fn notify(&self, notice: Notice) -> Result<(), DamarisError> {
        let mut wait = None;
        self.shared
            .notify(self.id, notice, || self.await_room(&mut wait))
    }

    /// One blocking wait on a full ring, data or notice: the `block`
    /// policy's timeout from the first refusal (the zero-copy path and a
    /// notice have no payload to drop or divert, so lossy policies block
    /// too), parking for a new epoch on a stale heartbeat.
    // ANALYZE: cold — backpressure wait; the client is already stalled on a full ring
    #[cold]
    fn await_room(&self, wait: &mut Option<FullWait>) -> Result<(), DamarisError> {
        let wait = wait.get_or_insert_with(|| {
            let timeout = match self.shared.config.resilience.backpressure {
                BackpressurePolicy::Block { timeout } => timeout,
                _ => Duration::from_secs(30),
            };
            FullWait::until(Instant::now() + timeout)
        });
        match self.wait_full(wait)? {
            None => Ok(()),
            Some(Stop::TimedOut) => Err(DamarisError::Buffer(AllocError::Full)),
            Some(Stop::Stale) => self.await_heartbeat(wait.deadline),
        }
    }

    /// Policy-aware reservation for the write paths. `Ok(None)` means the
    /// payload was consumed by the policy (dropped or written through) and
    /// the write is complete. `layout` is only needed for dynamic-shape
    /// writes (whose shape exists per write); static writes pass `None`
    /// and [`write_through`](Self::write_through) re-derives the layout
    /// off the fast path in the rare case it diverts. The reservation is
    /// `header` bytes longer than `data`: room for a dynamic shape.
    fn reserve_or_divert(
        &self,
        variable: &str,
        iteration: u32,
        layout: Option<&damaris_format::Layout>,
        data: &[u8],
        header: usize,
    ) -> Result<Option<Segment>, DamarisError> {
        let len = header + data.len();
        match self.shared.config.resilience.backpressure {
            BackpressurePolicy::Block { .. } => self.reserve(len).map(Some),
            policy => {
                let mut wait = FullWait::until(Instant::now() + LOSSY_GRACE);
                let stop = loop {
                    match self.shared.node.reserve(self.id as usize, len) {
                        Ok(seg) => return Ok(Some(seg)),
                        Err(AllocError::Full) => {
                            if let Some(stop) = self.wait_full(&mut wait)? {
                                break stop;
                            }
                        }
                        Err(e) => return Err(e.into()),
                    }
                };
                let stats = &self.shared.stats;
                if matches!(stop, Stop::Stale) {
                    // Dead server: divert immediately, and separately
                    // count that the loss was liveness-driven.
                    FaultStats::bump(&stats.heartbeat_stale_observed);
                }
                if policy == BackpressurePolicy::SyncFallback {
                    self.write_through(variable, iteration, layout, data)?;
                    FaultStats::bump(&stats.sync_fallback_writes);
                } else {
                    FaultStats::bump(&stats.writes_dropped);
                }
                Ok(None)
            }
        }
    }

    /// The `sync-fallback` escape hatch: the compute core writes the
    /// payload to storage itself, through the crash-consistent path. This
    /// pays the I/O jitter Damaris exists to hide — but loses no data and
    /// needs no shared-memory space. `layout: None` (static write)
    /// re-derives the storage layout from the configuration here, off the
    /// fast path.
    // ANALYZE: cold — the sync-fallback escape hatch pays I/O jitter by design
    #[cold]
    fn write_through(
        &self,
        variable: &str,
        iteration: u32,
        layout: Option<&damaris_format::Layout>,
        data: &[u8],
    ) -> Result<(), DamarisError> {
        let derived;
        let layout = match layout {
            Some(l) => l,
            None => {
                derived = self.lookup_def(variable)?.1.storage_layout();
                &derived
            }
        };
        let name = format!(
            "sync-fallback/rank-{}/iter-{:06}-{variable}.sdf",
            self.id, iteration
        );
        let backend = &self.shared.backend;
        let mut writer = backend.begin_sdf(&name)?;
        let path = format!("/iter-{iteration}/rank-{}/{variable}", self.id);
        writer.write_dataset_bytes(
            &path,
            layout,
            data,
            &damaris_format::DatasetOptions::plain()
                .with_coords(iteration, self.id)
                .with_attr("sync_fallback", 1i64),
        )?;
        let total = backend.commit_sdf(writer)?;
        backend.account_bytes(total);
        Ok(())
    }

    /// Tail of the write paths — memcpy of `data` into `segment`, the
    /// `notice` — each under its trace span. The spans chain: `t` is the
    /// previous span's end timestamp, and the return value is the last
    /// span's end, so the tail costs two clock reads instead of four.
    // ANALYZE: hot
    fn copy_and_notify(
        &self,
        mut segment: Segment,
        data: &[u8],
        notice: Notice,
        iteration: u32,
        t: u64,
    ) -> Result<u64, DamarisError> {
        segment.copy_from_slice(data);
        let t = self
            .rec
            .end(EventKind::Memcpy, iteration, data.len() as u64, t);
        self.notify(notice)?;
        Ok(self.rec.end(EventKind::QueuePush, iteration, 0, t))
    }

    /// `df_write`: copies `data` into shared memory and notifies the
    /// dedicated core. The byte length must match the variable's layout.
    ///
    /// When the buffer is full, the configured backpressure policy decides
    /// between blocking (bounded, the default), dropping the payload, or
    /// writing it through to storage synchronously — see
    /// [`crate::config::BackpressurePolicy`].
    // ANALYZE: hot(strict)
    pub fn write(&self, variable: &str, iteration: u32, data: &[u8]) -> Result<(), DamarisError> {
        self.renew_lease()?;
        // One timestamp opens both the WriteCall and AllocWait spans (the
        // nanoscale name lookup rides inside AllocWait); the inner spans
        // chain end-to-start from here, so a fully traced write costs four
        // clock reads, not eight.
        let t_call = self.rec.begin();
        let (variable_id, expected) = self.lookup(variable)?;
        if data.len() as u64 != expected {
            return Err(DamarisError::layout_mismatch(
                variable,
                expected,
                data.len() as u64,
            ));
        }
        let segment = match self.reserve_or_divert(variable, iteration, None, data, 0)? {
            Some(segment) => segment,
            None => {
                // Policy consumed the payload (dropped or written through):
                // the wait shows up as backpressure, not alloc time.
                self.rec.end(
                    EventKind::Backpressure,
                    iteration,
                    data.len() as u64,
                    t_call,
                );
                return Ok(());
            }
        };
        let t = self
            .rec
            .end(EventKind::AllocWait, iteration, data.len() as u64, t_call);
        let notice = Notice::Write {
            variable: variable_id,
            iteration,
            offset: segment.offset() as u64,
            len: expected,
        };
        let t_end = self.copy_and_notify(segment, data, notice, iteration, t)?;
        self.rec.span_at(
            EventKind::WriteCall,
            iteration,
            data.len() as u64,
            t_call,
            t_end,
        );
        Ok(())
    }

    /// Writes a *dynamic-shape* variable (declared with `dimensions="?"`):
    /// the shape travels with the write, in front of the payload in the
    /// same reservation — the paper's API for arrays without a static
    /// shape, e.g. per-rank particle sets (§III-D).
    pub fn write_dynamic(
        &self,
        variable: &str,
        iteration: u32,
        dims: &[u64],
        data: &[u8],
    ) -> Result<(), DamarisError> {
        self.renew_lease()?;
        let (variable_id, layout_def) = self.lookup_def(variable)?;
        if !layout_def.dynamic {
            return Err(DamarisError::wrong_layout_kind(variable, false));
        }
        let layout = damaris_format::Layout::new(layout_def.dtype, dims);
        if data.len() as u64 != layout.byte_size() {
            return Err(DamarisError::layout_mismatch(
                variable,
                layout.byte_size(),
                data.len() as u64,
            ));
        }
        let t_call = self.rec.begin();
        // The shape goes in front: the rank, then the dims, a word each.
        let header = 8 * (dims.len() + 1);
        let reserved = self.reserve_or_divert(variable, iteration, Some(&layout), data, header)?;
        let mut segment = match reserved {
            Some(segment) => segment,
            None => {
                // Policy consumed the payload (dropped or written through).
                self.rec.end(
                    EventKind::Backpressure,
                    iteration,
                    data.len() as u64,
                    t_call,
                );
                return Ok(());
            }
        };
        let t = self
            .rec
            .end(EventKind::AllocWait, iteration, data.len() as u64, t_call);
        let payload = segment.split_off(header);
        let shape = std::iter::once(dims.len() as u64).chain(dims.iter().copied());
        for (word, value) in segment.as_mut_slice().chunks_exact_mut(8).zip(shape) {
            word.copy_from_slice(&value.to_ne_bytes());
        }
        let notice = Notice::WriteDynamic {
            variable: variable_id,
            ndims: dims.len() as u32,
            iteration,
            offset: segment.offset() as u64,
            len: (header + data.len()) as u64,
        };
        let t_end = self.copy_and_notify(payload, data, notice, iteration, t)?;
        self.rec.span_at(
            EventKind::WriteCall,
            iteration,
            data.len() as u64,
            t_call,
            t_end,
        );
        Ok(())
    }

    /// Typed wrapper over [`DamarisClient::write_dynamic`] for f32 data.
    pub fn write_dynamic_f32(
        &self,
        variable: &str,
        iteration: u32,
        dims: &[u64],
        data: &[f32],
    ) -> Result<(), DamarisError> {
        self.write_dynamic(variable, iteration, dims, &le_bytes(data))
    }

    /// Typed convenience wrapper over [`DamarisClient::write`] for `f32`
    /// variables.
    pub fn write_f32(
        &self,
        variable: &str,
        iteration: u32,
        data: &[f32],
    ) -> Result<(), DamarisError> {
        self.write(variable, iteration, &le_bytes(data))
    }

    /// Typed convenience wrapper for `f64` variables.
    pub fn write_f64(
        &self,
        variable: &str,
        iteration: u32,
        data: &[f64],
    ) -> Result<(), DamarisError> {
        self.write(variable, iteration, &le_bytes(data))
    }

    /// `dc_alloc`: reserves the variable's segment for in-place production
    /// — the zero-copy path (§III-C). Write into
    /// [`AllocatedRegion::as_mut_slice`], then [`AllocatedRegion::commit`].
    pub fn alloc(&self, variable: &str, iteration: u32) -> Result<AllocatedRegion, DamarisError> {
        self.renew_lease()?;
        let (variable_id, bytes) = self.lookup(variable)?;
        let t_alloc = self.rec.begin();
        let segment = self.reserve(bytes as usize)?;
        self.rec
            .end(EventKind::AllocWait, iteration, bytes, t_alloc);
        self.held.fetch_add(1, Ordering::Relaxed);
        Ok(AllocatedRegion {
            client: self.clone(),
            variable_id,
            iteration,
            segment: Some(segment),
        })
    }

    /// `df_signal`: sends a user-defined event; the dedicated core runs the
    /// actions bound to it in the configuration.
    pub fn signal(&self, event: &str, iteration: u32) -> Result<(), DamarisError> {
        self.renew_lease()?;
        let actions = &self.shared.config.actions;
        let Some(action) = actions.iter().position(|a| a.event == event) else {
            return Err(DamarisError::UnknownEvent(event.to_string()));
        };
        self.notify(Notice::User {
            action: action as u32,
            iteration,
        })
    }

    /// Declares this client done with `iteration`. When every client of
    /// the node has done so, iteration-scoped actions (persistence by
    /// default) fire on the dedicated core.
    ///
    /// Fails with [`DamarisError::RegionHeld`] while this rank holds a
    /// region from [`alloc`](Self::alloc) it has neither committed nor
    /// dropped: the iteration's flush releases the rank's segments in ring
    /// order, and releasing later ones past a held region would hand the
    /// region's bytes to the next reservation.
    pub fn end_iteration(&self, iteration: u32) -> Result<(), DamarisError> {
        self.renew_lease()?;
        let held = self.held.load(Ordering::Relaxed);
        if held != 0 {
            return Err(DamarisError::RegionHeld {
                client: self.id,
                held,
            });
        }
        self.notify(Notice::EndIteration { iteration })
    }

    /// Chaos hook: models this rank dying right after `dc_alloc` — the
    /// reservation is abandoned without a notification, exactly what a
    /// kill between the reserve and the notification leaves behind. The
    /// bytes stay reserved until the lease sweeper fences the rank and
    /// reclaims its partition. Returns the number of bytes leaked, for
    /// tests to assert against `segments_reclaimed`.
    pub fn die_during_alloc(&self, variable: &str) -> Result<usize, DamarisError> {
        let (_variable_id, bytes) = self.lookup(variable)?;
        let segment = self.reserve(bytes as usize)?;
        let leaked = segment.len();
        // A dead process runs no cleanup: dropping the bare handle without
        // releasing models that (Segment's drop is a no-op by design).
        drop(segment);
        Ok(leaked)
    }
}

/// The element types of the typed writes: floats, which have no padding
/// and no invalid bit patterns.
trait Float: Copy {}
impl Float for f32 {}
impl Float for f64 {}

/// `data` as the little-endian bytes a write stores: on a little-endian
/// target the slice's own memory, borrowed — no allocation, no pass over
/// the data; elsewhere a copy with each element's bytes reversed.
fn le_bytes<T: Float>(data: &[T]) -> std::borrow::Cow<'_, [u8]> {
    // SAFETY: `T` is `f32` or `f64` (the private `Float`): no padding,
    // every byte initialized, and any byte is a valid `u8` at alignment
    // 1; the length is exactly the slice's memory, borrowed for the
    // slice's lifetime.
    let bytes = unsafe {
        std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data))
    };
    if cfg!(target_endian = "little") {
        std::borrow::Cow::Borrowed(bytes)
    } else {
        let elements = bytes.chunks(std::mem::size_of::<T>());
        std::borrow::Cow::Owned(elements.flat_map(|e| e.iter().rev()).copied().collect())
    }
}

impl std::fmt::Debug for DamarisClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DamarisClient(id={})", self.id)
    }
}

/// A zero-copy reservation: the simulation computes directly in shared
/// memory, then commits. Dropping without committing returns the segment.
pub struct AllocatedRegion {
    client: DamarisClient,
    variable_id: u32,
    iteration: u32,
    segment: Option<Segment>,
}

impl AllocatedRegion {
    /// The writable shared-memory window.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        self.segment
            .as_mut()
            // invariant: only `commit` (which consumes self) takes the
            // segment; a live `&mut self` implies it is still here.
            .expect("region still owned")
            .as_mut_slice()
    }

    /// Typed f32 view (the common case for CM1-style variables).
    pub fn as_mut_f32(&mut self) -> &mut [f32] {
        let bytes = self.as_mut_slice();
        assert_eq!(bytes.len() % 4, 0, "layout is not f32-sized");
        // SAFETY: alignment is guaranteed by the allocators' 8-byte
        // alignment; length checked above; f32 has no invalid bit patterns.
        unsafe { std::slice::from_raw_parts_mut(bytes.as_mut_ptr() as *mut f32, bytes.len() / 4) }
    }

    /// `dc_commit`: informs the dedicated core that the data is ready.
    ///
    /// Fails with [`DamarisError::ClientFenced`] if the lease sweeper
    /// fenced this client while it was producing; the segment is then
    /// abandoned for the sweeper to reclaim. Over a mapping it fails as a
    /// `write` does if the notice ring stays full.
    pub fn commit(mut self) -> Result<(), DamarisError> {
        // invariant: `commit` consumes self, so the segment is present.
        let segment = self.take_segment().expect("commit called once");
        // Fenced: may neither notify nor release — dropping the handle
        // leaves the bytes to the sweeper's `revoke_remaining`.
        self.client.renew_lease()?;
        let rec = &self.client.rec;
        let t = rec.begin();
        self.client.notify(Notice::Write {
            variable: self.variable_id,
            iteration: self.iteration,
            offset: segment.offset() as u64,
            len: segment.len() as u64,
        })?;
        rec.end(EventKind::QueuePush, self.iteration, 0, t);
        Ok(())
    }

    /// Takes the segment out: from here on the client no longer holds the
    /// region ([`DamarisClient::end_iteration`]).
    fn take_segment(&mut self) -> Option<Segment> {
        let segment = self.segment.take()?;
        self.client.held.fetch_sub(1, Ordering::Relaxed);
        Some(segment)
    }
}

impl Drop for AllocatedRegion {
    fn drop(&mut self) {
        let Some(segment) = self.take_segment() else {
            return;
        };
        // Not committed. The client must NOT release the segment itself:
        // its ring's reclamation is FIFO in allocation order and owned by
        // the dedicated core, and an earlier write of this client may
        // still be server-resident — releasing out of order from this
        // thread would corrupt the ring. Ship the segment to the server,
        // which releases it in allocation order at this iteration's flush.
        // Fenced while holding the region: drop the handle and let the
        // sweeper's `revoke_remaining` reclaim the bytes.
        let client = &self.client;
        if client.renew_lease().is_ok() {
            // A notice that cannot get out (its ring full past the block
            // timeout) strands the bytes as a dead rank's would be.
            let _ = client.notify(Notice::Abandon {
                iteration: self.iteration,
                offset: segment.offset() as u64,
                len: segment.len() as u64,
            });
        }
    }
}
