//! The EPE's storage-pressure state machine.
//!
//! A node writing into a quota-limited backend (see
//! [`damaris_fs::DiskSentinel`]) degrades in stages instead of spinning on
//! `ENOSPC`:
//!
//! ```text
//!             used >= high watermark,            used >= quota
//!             or a permanent persist error
//!   Normal  ────────────────────────────▶  Degraded  ───────▶  ReadOnly
//!     ▲                                      │  ▲                 │
//!     └──────────────────────────────────────┘  └─────────────────┘
//!        used < low watermark (hysteresis)        used < quota
//! ```
//!
//! * **Degraded** — space is running out. Work that *amplifies* disk usage
//!   stops: every registered compactor pause flag is raised, and
//!   [`damaris_fs::manifest::gc_superseded`] aggressively reclaims iteration
//!   files already covered by compacted spans (plus orphan compactor tmps).
//!   Persisting continues — persist errors are now classified, so a
//!   permanent `ENOSPC` degrades the iteration immediately instead of
//!   burning the retry deadline.
//! * **ReadOnly** — the quota is exhausted. New iterations are *shed*
//!   according to `<resilience on_disk_full=…>` (`block` holds them
//!   resident, `drop-iteration` discards them, `partial` lets persist fail
//!   fast); leases, heartbeats, the journal, and the query tier keep
//!   serving throughout.
//! * The descent is mirrored by a re-ascent: when space returns (files
//!   gc'd, quota raised by an operator or a chaos scenario), the node steps
//!   back to Degraded and — once usage falls below the *low* watermark —
//!   all the way to Normal, unpausing the compactor.
//!
//! The machine is polled by the dedicated-core loop on every pass (and
//! while idle), so transitions are observed even when no events flow. All
//! state is atomic; [`PressureMachine::poll`] is only ever called from the
//! server thread, but `state()` may be read from anywhere.

use crate::node::FaultStats;
use damaris_fs::{PressureLevel, StorageBackend};
use damaris_obs::{EventKind, Recorder};
use damaris_shm::sync::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// The node's storage-pressure state. Discriminants are stable: they are
/// what the `PressureTransition` trace record carries in its `bytes` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PressureState {
    /// Space is fine; everything runs.
    Normal = 0,
    /// High watermark crossed (or a permanent persist error seen):
    /// compaction paused, superseded files gc'd, persist fails fast on
    /// `ENOSPC`.
    Degraded = 1,
    /// Quota exhausted: new iterations are shed per `on_disk_full`.
    ReadOnly = 2,
}

impl PressureState {
    fn from_u8(v: u8) -> PressureState {
        match v {
            1 => PressureState::Degraded,
            2 => PressureState::ReadOnly,
            _ => PressureState::Normal,
        }
    }

    /// Stable lowercase label (log lines, chaos transcripts).
    pub fn label(self) -> &'static str {
        match self {
            PressureState::Normal => "normal",
            PressureState::Degraded => "degraded",
            PressureState::ReadOnly => "read-only",
        }
    }
}

/// See the module docs. One per node, owned by `NodeShared`.
#[derive(Debug)]
pub struct PressureMachine {
    state: AtomicU8,
    /// Set by the persist path when it classifies an error as permanent
    /// (`ENOSPC`/`EDQUOT`/`EROFS`); consumed by the next poll so the
    /// machine degrades even if the sentinel's watermark math would not
    /// have tripped yet (e.g. the real disk filled, not the quota).
    no_space_hint: AtomicBool,
    /// Compactor pause flags raised while degraded. Registered by the
    /// embedder (the compactor lives in `damaris-query`, which *depends
    /// on* this crate — the flags keep the dependency one-way).
    pause_flags: Mutex<Vec<Arc<AtomicBool>>>,
}

impl PressureMachine {
    pub fn new() -> PressureMachine {
        PressureMachine {
            state: AtomicU8::new(PressureState::Normal as u8),
            no_space_hint: AtomicBool::new(false),
            pause_flags: Mutex::new(Vec::new()),
        }
    }

    /// The current state.
    pub fn state(&self) -> PressureState {
        PressureState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Whether new iterations must be shed right now.
    pub fn is_read_only(&self) -> bool {
        self.state() == PressureState::ReadOnly
    }

    /// Registers a pause flag the machine raises while not `Normal` and
    /// clears on recovery (typically `Compactor::pause_flag()`). A flag
    /// registered mid-incident is raised immediately.
    pub fn register_pause_flag(&self, flag: Arc<AtomicBool>) {
        // invariant: the registry mutex is only held briefly here and in
        // set_paused; neither path can re-enter.
        let mut flags = self
            .pause_flags
            .lock()
            .expect("pause flag registry poisoned");
        // Relaxed: the flag is a control bit, not a publication — nothing
        // is transferred through it. The compactor may observe a raise a
        // beat late; its safety against concurrent gc comes from the
        // manifest lock and idempotent commits, not from this ordering.
        flag.store(self.state() != PressureState::Normal, Ordering::Relaxed);
        flags.push(flag);
    }

    /// Flags a permanent (out-of-space class) persist error; the next
    /// poll escalates at least to `Degraded`.
    pub fn note_no_space(&self) {
        self.no_space_hint.store(true, Ordering::Release);
    }

    fn set_paused(&self, paused: bool) {
        // invariant: see register_pause_flag.
        let flags = self
            .pause_flags
            .lock()
            .expect("pause flag registry poisoned");
        for flag in flags.iter() {
            // Relaxed: see register_pause_flag — a control bit, not a
            // publication.
            flag.store(paused, Ordering::Relaxed);
        }
    }

    /// One transition with its side effects: counters, the trace event,
    /// pause flags, and — on every entry into `Degraded` — the aggressive
    /// gc of superseded files so descent actually frees space.
    #[allow(clippy::too_many_arguments)]
    fn transition(
        &self,
        node_id: u32,
        from: PressureState,
        to: PressureState,
        backend: &dyn StorageBackend,
        stats: &FaultStats,
        rec: &Recorder,
        iteration: u32,
    ) {
        self.state.store(to as u8, Ordering::Release);
        rec.event(EventKind::PressureTransition, iteration, to as u64, 0);
        match to {
            PressureState::Degraded => {
                FaultStats::bump(&stats.storage_pressure_degraded);
                self.set_paused(true);
                match damaris_fs::manifest::gc_superseded(backend.root(), backend.sentinel()) {
                    Ok((files, bytes)) => {
                        stats.storage_pressure_gc_bytes.add(bytes);
                        eprintln!(
                            "[damaris node {node_id}] storage pressure: {} -> degraded \
                             (compactor paused; gc reclaimed {files} file(s), {bytes}B)",
                            from.label()
                        );
                    }
                    Err(e) => eprintln!(
                        "[damaris node {node_id}] storage pressure: {} -> degraded \
                         (compactor paused; gc failed: {e})",
                        from.label()
                    ),
                }
            }
            PressureState::ReadOnly => {
                FaultStats::bump(&stats.storage_pressure_readonly);
                eprintln!(
                    "[damaris node {node_id}] storage pressure: {} -> read-only \
                     (quota exhausted; shedding new iterations)",
                    from.label()
                );
            }
            PressureState::Normal => {
                FaultStats::bump(&stats.storage_pressure_recovered);
                self.set_paused(false);
                eprintln!(
                    "[damaris node {node_id}] storage pressure: {} -> normal \
                     (space recovered; compactor resumed)",
                    from.label()
                );
            }
        }
    }

    /// Advances the machine against the backend's sentinel, applying every
    /// transition the current level implies (a quota squeezed straight to
    /// zero steps Normal → Degraded → ReadOnly in one poll, each counted).
    /// Dormant (`Normal`, no side effects) when the backend has no
    /// sentinel. Returns the settled state.
    pub(crate) fn poll(
        &self,
        node_id: u32,
        backend: &dyn StorageBackend,
        stats: &FaultStats,
        rec: &Recorder,
        iteration: u32,
    ) -> PressureState {
        let Some(sentinel) = backend.sentinel() else {
            return self.state();
        };
        let level = sentinel.level();
        let hint = self.no_space_hint.swap(false, Ordering::AcqRel);
        let mut cur = self.state();
        loop {
            let next = match cur {
                PressureState::Normal if level != PressureLevel::Normal || hint => {
                    PressureState::Degraded
                }
                PressureState::Degraded if level == PressureLevel::Full => PressureState::ReadOnly,
                PressureState::Degraded if !hint && sentinel.below_low() => PressureState::Normal,
                PressureState::ReadOnly if level != PressureLevel::Full => PressureState::Degraded,
                _ => break,
            };
            self.transition(node_id, cur, next, backend, stats, rec, iteration);
            cur = next;
            // Termination: within one poll `level` is fixed, and each arm
            // above is mutually exclusive under a fixed level (Full settles
            // in ReadOnly, High in Degraded, below-low in Normal, the
            // hysteresis band holds Degraded), so the chain is <= 2 steps.
        }
        cur
    }
}

impl Default for PressureMachine {
    fn default() -> Self {
        PressureMachine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::FaultStats;
    use damaris_fs::{DiskSentinel, LocalDirBackend};
    use damaris_obs::{Recorder, Registry};

    fn harness(quota: u64) -> (LocalDirBackend, Arc<DiskSentinel>, FaultStats, Recorder) {
        let sentinel = Arc::new(DiskSentinel::with_quota(quota).with_watermarks(85, 70));
        let backend = LocalDirBackend::scratch("pressure-machine")
            .unwrap()
            .with_sentinel(Arc::clone(&sentinel));
        let registry = Registry::new();
        (
            backend,
            sentinel,
            FaultStats::new(&registry),
            Recorder::disabled(),
        )
    }

    #[test]
    fn dormant_without_sentinel() {
        let backend = LocalDirBackend::scratch("pressure-dormant").unwrap();
        let registry = Registry::new();
        let stats = FaultStats::new(&registry);
        let m = PressureMachine::new();
        m.note_no_space();
        let state = m.poll(0, &backend, &stats, &Recorder::disabled(), 0);
        assert_eq!(state, PressureState::Normal);
        assert_eq!(FaultStats::get(&stats.storage_pressure_degraded), 0);
    }

    #[test]
    fn full_descent_and_reascent() {
        let (backend, sentinel, stats, rec) = harness(1000);
        let m = PressureMachine::new();
        let pause = Arc::new(AtomicBool::new(false));
        m.register_pause_flag(Arc::clone(&pause));

        assert_eq!(m.poll(0, &backend, &stats, &rec, 0), PressureState::Normal);

        sentinel.charge(900); // past the high watermark
        assert_eq!(
            m.poll(0, &backend, &stats, &rec, 1),
            PressureState::Degraded
        );
        assert!(pause.load(Ordering::Acquire));

        sentinel.charge(100); // full
        assert_eq!(
            m.poll(0, &backend, &stats, &rec, 2),
            PressureState::ReadOnly
        );
        assert!(m.is_read_only());

        sentinel.release(200); // 800: under quota but above low watermark
        assert_eq!(
            m.poll(0, &backend, &stats, &rec, 3),
            PressureState::Degraded
        );
        assert!(pause.load(Ordering::Acquire), "hysteresis keeps the pause");

        sentinel.release(200); // 600: below the low watermark
        assert_eq!(m.poll(0, &backend, &stats, &rec, 4), PressureState::Normal);
        assert!(!pause.load(Ordering::Acquire));

        assert_eq!(FaultStats::get(&stats.storage_pressure_degraded), 2);
        assert_eq!(FaultStats::get(&stats.storage_pressure_readonly), 1);
        assert_eq!(FaultStats::get(&stats.storage_pressure_recovered), 1);
    }

    #[test]
    fn squeeze_to_zero_chains_both_transitions() {
        let (backend, sentinel, stats, rec) = harness(u64::MAX);
        let m = PressureMachine::new();
        sentinel.charge(500);
        sentinel.set_quota(400); // chaos squeeze below current usage
        assert_eq!(
            m.poll(0, &backend, &stats, &rec, 0),
            PressureState::ReadOnly
        );
        assert_eq!(FaultStats::get(&stats.storage_pressure_degraded), 1);
        assert_eq!(FaultStats::get(&stats.storage_pressure_readonly), 1);
        sentinel.set_quota(u64::MAX); // lift: chains all the way back
        assert_eq!(m.poll(0, &backend, &stats, &rec, 1), PressureState::Normal);
        assert_eq!(FaultStats::get(&stats.storage_pressure_recovered), 1);
    }

    #[test]
    fn permanent_error_hint_degrades_below_watermark() {
        let (backend, _sentinel, stats, rec) = harness(1_000_000);
        let m = PressureMachine::new();
        m.note_no_space();
        assert_eq!(
            m.poll(0, &backend, &stats, &rec, 0),
            PressureState::Degraded
        );
        // Hint consumed; usage is far below low watermark, so the next
        // poll re-ascends.
        assert_eq!(m.poll(0, &backend, &stats, &rec, 1), PressureState::Normal);
    }

    #[test]
    fn late_flag_registration_sees_current_state() {
        let (backend, sentinel, stats, rec) = harness(100);
        let m = PressureMachine::new();
        sentinel.charge(100);
        m.poll(0, &backend, &stats, &rec, 0);
        let pause = Arc::new(AtomicBool::new(false));
        m.register_pause_flag(Arc::clone(&pause));
        assert!(pause.load(Ordering::Acquire));
    }
}
