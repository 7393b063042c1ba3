//! Deterministic fault injection for the storage path.
//!
//! [`FaultyBackend`] decorates any [`StorageBackend`] with a scripted
//! [`FaultPlan`]: rules keyed by *operation* (begin/write/commit) and *call
//! ordinal* fire exactly once each, so a chaos test can say "the 2nd commit
//! returns a transient error, the 4th commit tears" and then assert the
//! runtime's counters match the plan to the digit. No randomness is
//! involved — reproducibility is the whole point of the harness.
//!
//! Two fault kinds are *sustained* rather than one-shot: once their rule
//! fires they stay in force until explicitly lifted —
//! [`FaultKind::NoSpace`] squeezes the inner backend's [`DiskSentinel`]
//! quota (every commit past the allowance fails `ENOSPC`, like a filling
//! disk), and [`FaultKind::Brownout`] multiplies every commit's latency
//! (a degraded storage tier that still completes writes). Chaos scenarios
//! lift them with [`FaultyBackend::lift_no_space`] /
//! [`FaultyBackend::lift_brownout`] to verify the node re-ascends.

use crate::backend::StorageBackend;
use crate::clock::{IoClock, WallClock};
use crate::sentinel::DiskSentinel;
use damaris_format::{Result, SdfError, SdfWriter, WriteFault};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Which backend operation a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// [`StorageBackend::begin_sdf`] (file creation).
    Begin,
    /// An individual dataset write on a writer handed out by
    /// [`StorageBackend::begin_sdf`] — faults here fire *mid-payload*,
    /// between datasets of one file. Ordinals count dataset writes
    /// globally across all writers of this backend.
    Write,
    /// [`StorageBackend::commit_sdf`] (finish + fsync + rename).
    Commit,
}

/// What happens when a rule fires.
#[derive(Debug, Clone)]
pub enum FaultKind {
    /// The operation fails with an I/O error; retrying may succeed.
    TransientError,
    /// The operation succeeds, but only after sleeping this long — models
    /// the I/O jitter the paper sets out to hide from compute cores.
    Stall(Duration),
    /// Commit only: the file is published *torn* — truncated to `keep_num /
    /// keep_den` of its length, bypassing the atomic protocol, as if the
    /// node died after the rename but before data hit the platters. The
    /// call still reports success; only a later recovery scan can tell.
    TornWrite { keep_num: u64, keep_den: u64 },
    /// Write only: the dataset's payload bytes are corrupted on disk while
    /// the index keeps the intended checksum — a torn copy injected from
    /// the storage side. Readers hit a CRC mismatch; recovery quarantines.
    CorruptPayload,
    /// Sustained (until [`FaultyBackend::lift_no_space`]): the disk "fills"
    /// — the inner backend's [`DiskSentinel`] quota drops to current usage
    /// plus `after_bytes`, so commits keep succeeding for that allowance
    /// and then fail with a real `ENOSPC`. Requires a sentinel-backed
    /// inner backend.
    NoSpace { after_bytes: u64 },
    /// Sustained (until [`FaultyBackend::lift_brownout`]): every commit
    /// becomes `factor`× slower — the extra latency is slept on the
    /// backend clock, so a virtual clock absorbs it without wall time.
    Brownout { factor: u32 },
}

/// One scripted fault: fires on the `nth` call (0-based) of `op`.
#[derive(Debug, Clone)]
pub struct FaultRule {
    pub op: FaultOp,
    pub nth: u64,
    pub kind: FaultKind,
}

/// An ordered script of faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    pub fn new() -> Self {
        Self::default()
    }

    /// The `nth` call of `op` fails with a transient I/O error.
    pub fn fail_nth(mut self, op: FaultOp, nth: u64) -> Self {
        self.rules.push(FaultRule {
            op,
            nth,
            kind: FaultKind::TransientError,
        });
        self
    }

    /// The first `n` calls of `op` fail, later ones succeed (the classic
    /// "fail N then succeed" shape retry logic must survive).
    pub fn fail_first(mut self, op: FaultOp, n: u64) -> Self {
        for nth in 0..n {
            self.rules.push(FaultRule {
                op,
                nth,
                kind: FaultKind::TransientError,
            });
        }
        self
    }

    /// The `nth` call of `op` stalls for `d` before succeeding.
    pub fn stall_nth(mut self, op: FaultOp, nth: u64, d: Duration) -> Self {
        self.rules.push(FaultRule {
            op,
            nth,
            kind: FaultKind::Stall(d),
        });
        self
    }

    /// The `nth` commit publishes a torn file keeping `keep_num/keep_den`
    /// of its bytes.
    pub fn tear_nth_commit(mut self, nth: u64, keep_num: u64, keep_den: u64) -> Self {
        assert!(keep_den > 0 && keep_num < keep_den, "tear must drop bytes");
        self.rules.push(FaultRule {
            op: FaultOp::Commit,
            nth,
            kind: FaultKind::TornWrite { keep_num, keep_den },
        });
        self
    }

    /// The `nth` dataset write stores corrupted payload bytes under the
    /// intended checksum (storage-side torn copy).
    pub fn corrupt_nth_write(mut self, nth: u64) -> Self {
        self.rules.push(FaultRule {
            op: FaultOp::Write,
            nth,
            kind: FaultKind::CorruptPayload,
        });
        self
    }

    /// At the `nth` commit the disk starts filling: `after_bytes` more
    /// bytes fit, then every commit fails `ENOSPC` until lifted.
    pub fn no_space_after_commit(mut self, nth: u64, after_bytes: u64) -> Self {
        self.rules.push(FaultRule {
            op: FaultOp::Commit,
            nth,
            kind: FaultKind::NoSpace { after_bytes },
        });
        self
    }

    /// From the `nth` commit on, commits run `factor`× slower until
    /// lifted.
    pub fn brownout_from_commit(mut self, nth: u64, factor: u32) -> Self {
        assert!(factor >= 2, "a brownout factor below 2 changes nothing");
        self.rules.push(FaultRule {
            op: FaultOp::Commit,
            nth,
            kind: FaultKind::Brownout { factor },
        });
        self
    }

    fn take_matching(&mut self, op: FaultOp, nth: u64) -> Option<FaultKind> {
        let i = self.rules.iter().position(|r| r.op == op && r.nth == nth)?;
        Some(self.rules.remove(i).kind)
    }
}

/// Counts of faults actually injected, for test assertions.
#[derive(Debug, Default)]
pub struct InjectedCounts {
    pub transient_errors: AtomicU64,
    pub stalls: AtomicU64,
    pub torn_writes: AtomicU64,
    pub corrupt_payloads: AtomicU64,
    /// `ENOSPC` squeezes activated (rule firings, not failed commits —
    /// the failures surface in the runtime's own counters).
    pub no_space_activations: AtomicU64,
    /// Brownout activations (rule firings).
    pub brownout_activations: AtomicU64,
    /// Commits slowed while a brownout was in force.
    pub brownout_commits: AtomicU64,
}

/// A [`StorageBackend`] decorator that executes a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultyBackend<B> {
    inner: B,
    plan: Arc<Mutex<FaultPlan>>,
    begin_calls: AtomicU64,
    write_calls: Arc<AtomicU64>,
    commit_calls: AtomicU64,
    injected: Arc<InjectedCounts>,
    clock: Arc<dyn IoClock>,
    /// Active brownout factor; 0 = none.
    brownout: AtomicU32,
    /// The sentinel quota as it was before a `NoSpace` squeeze, so
    /// [`FaultyBackend::lift_no_space`] can restore it.
    quota_before_squeeze: Mutex<Option<u64>>,
}

impl<B: StorageBackend> FaultyBackend<B> {
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        FaultyBackend {
            inner,
            plan: Arc::new(Mutex::new(plan)),
            begin_calls: AtomicU64::new(0),
            write_calls: Arc::new(AtomicU64::new(0)),
            commit_calls: AtomicU64::new(0),
            injected: Arc::new(InjectedCounts::default()),
            clock: Arc::new(WallClock),
            brownout: AtomicU32::new(0),
            quota_before_squeeze: Mutex::new(None),
        }
    }

    /// Replaces the time source: injected stalls sleep on `clock`, and
    /// [`StorageBackend::clock`] hands it to retry loops upstream. With a
    /// [`crate::clock::VirtualClock`] an injected 10 s stall costs the test
    /// no wall time at all.
    pub fn with_clock(mut self, clock: Arc<dyn IoClock>) -> Self {
        self.clock = clock;
        self
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Counts of faults injected so far.
    pub fn injected(&self) -> &InjectedCounts {
        &self.injected
    }

    /// Squeezes the inner sentinel's quota to current usage plus
    /// `after_bytes` — what a [`FaultKind::NoSpace`] rule does, callable
    /// directly by orchestrators. Idempotent while a squeeze is active
    /// (the pre-squeeze quota is remembered once).
    pub fn squeeze_no_space(&self, after_bytes: u64) {
        let sentinel = self
            .inner
            .sentinel()
            .expect("NoSpace fault requires a sentinel-backed inner backend");
        let mut saved = self
            .quota_before_squeeze
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if saved.is_none() {
            *saved = Some(sentinel.quota());
        }
        sentinel.set_quota(sentinel.used().saturating_add(after_bytes));
        self.injected
            .no_space_activations
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Lifts an active `NoSpace` squeeze, restoring the pre-squeeze quota.
    /// No-op if none is active.
    pub fn lift_no_space(&self) {
        let mut saved = self
            .quota_before_squeeze
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if let (Some(quota), Some(sentinel)) = (saved.take(), self.inner.sentinel()) {
            sentinel.set_quota(quota);
        }
    }

    /// Starts a sustained brownout (callable directly by orchestrators).
    pub fn start_brownout(&self, factor: u32) {
        self.brownout.store(factor, Ordering::Relaxed);
        self.injected
            .brownout_activations
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Ends an active brownout. No-op if none is active.
    pub fn lift_brownout(&self) {
        self.brownout.store(0, Ordering::Relaxed);
    }

    fn next_fault(&self, op: FaultOp, counter: &AtomicU64) -> Option<FaultKind> {
        // Relaxed: the RMW's atomicity alone guarantees unique tickets;
        // no other memory is published under this counter.
        let nth = counter.fetch_add(1, Ordering::Relaxed);
        self.plan
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take_matching(op, nth)
    }

    /// Runs the inner commit, stretched by the active brownout factor:
    /// the commit's own duration is measured and `(factor - 1)×` more is
    /// slept on the backend clock.
    fn commit_with_brownout(&self, writer: SdfWriter) -> Result<u64> {
        let factor = self.brownout.load(Ordering::Relaxed);
        if factor < 2 {
            return self.inner.commit_sdf(writer);
        }
        self.injected
            .brownout_commits
            .fetch_add(1, Ordering::Relaxed);
        let t = std::time::Instant::now();
        let out = self.inner.commit_sdf(writer);
        self.clock.sleep(t.elapsed().saturating_mul(factor - 1));
        out
    }
}

impl<B: StorageBackend> StorageBackend for FaultyBackend<B> {
    fn begin_sdf(&self, name: &str) -> Result<SdfWriter> {
        let mut writer = match self.next_fault(FaultOp::Begin, &self.begin_calls) {
            Some(FaultKind::TransientError) => {
                // Relaxed (here and below): pure test-assertion counters,
                // read after the exercised threads are joined.
                self.injected
                    .transient_errors
                    .fetch_add(1, Ordering::Relaxed);
                return Err(injected_io_error("begin_sdf", name));
            }
            Some(FaultKind::Stall(d)) => {
                self.injected.stalls.fetch_add(1, Ordering::Relaxed);
                self.clock.sleep(d);
                self.inner.begin_sdf(name)?
            }
            Some(FaultKind::NoSpace { after_bytes }) => {
                self.squeeze_no_space(after_bytes);
                self.inner.begin_sdf(name)?
            }
            Some(FaultKind::Brownout { factor }) => {
                self.start_brownout(factor);
                self.inner.begin_sdf(name)?
            }
            Some(kind @ (FaultKind::TornWrite { .. } | FaultKind::CorruptPayload)) => {
                // Tearing/corruption happen at commit/write time; a Begin
                // attachment is a plan bug.
                panic!("FaultPlan: {kind:?} rule attached to Begin")
            }
            None => self.inner.begin_sdf(name)?,
        };
        // Every writer carries the Write-op hook so mid-payload rules can
        // fire; the ordinal counter is shared across writers.
        let plan = Arc::clone(&self.plan);
        let counter = Arc::clone(&self.write_calls);
        let injected = Arc::clone(&self.injected);
        let clock = Arc::clone(&self.clock);
        writer.set_fault_hook(Box::new(move || {
            let nth = counter.fetch_add(1, Ordering::Relaxed);
            let kind = plan
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take_matching(FaultOp::Write, nth)?;
            match kind {
                FaultKind::TransientError => {
                    injected.transient_errors.fetch_add(1, Ordering::Relaxed);
                    Some(WriteFault::Fail(injected_io_error(
                        "write_dataset",
                        "mid-payload",
                    )))
                }
                FaultKind::Stall(d) => {
                    injected.stalls.fetch_add(1, Ordering::Relaxed);
                    clock.sleep(d);
                    None
                }
                FaultKind::CorruptPayload => {
                    injected.corrupt_payloads.fetch_add(1, Ordering::Relaxed);
                    Some(WriteFault::Corrupt)
                }
                other => panic!("FaultPlan: {other:?} rule attached to Write"),
            }
        }));
        Ok(writer)
    }

    fn commit_sdf(&self, writer: SdfWriter) -> Result<u64> {
        match self.next_fault(FaultOp::Commit, &self.commit_calls) {
            Some(FaultKind::TransientError) => {
                self.injected
                    .transient_errors
                    .fetch_add(1, Ordering::Relaxed);
                // The tmp file stays behind, exactly like a failed commit:
                // recovery (or a retry writing the same name) deals with it.
                Err(injected_io_error(
                    "commit_sdf",
                    &writer.path().display().to_string(),
                ))
            }
            Some(FaultKind::Stall(d)) => {
                self.injected.stalls.fetch_add(1, Ordering::Relaxed);
                self.clock.sleep(d);
                self.commit_with_brownout(writer)
            }
            Some(FaultKind::TornWrite { keep_num, keep_den }) => {
                self.injected.torn_writes.fetch_add(1, Ordering::Relaxed);
                let tmp = writer.path().to_path_buf();
                let total = self.commit_with_brownout(writer)?;
                // The commit published the file; now tear it behind the
                // runtime's back, as a dying node would.
                let final_path = crate::backend::final_path_of(&tmp)
                    .expect("commit succeeded, so the path was a tmp path");
                let keep = total * keep_num / keep_den;
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&final_path)
                    .map_err(SdfError::Io)?;
                f.set_len(keep).map_err(SdfError::Io)?;
                Ok(total)
            }
            Some(FaultKind::NoSpace { after_bytes }) => {
                self.squeeze_no_space(after_bytes);
                self.commit_with_brownout(writer)
            }
            Some(FaultKind::Brownout { factor }) => {
                self.start_brownout(factor);
                self.commit_with_brownout(writer)
            }
            Some(FaultKind::CorruptPayload) => {
                panic!("FaultPlan: CorruptPayload rule attached to Commit")
            }
            None => self.commit_with_brownout(writer),
        }
    }

    fn create_sdf(&self, name: &str) -> Result<SdfWriter> {
        self.inner.create_sdf(name)
    }

    fn account_bytes(&self, bytes: u64) {
        self.inner.account_bytes(bytes)
    }

    fn files_created(&self) -> u64 {
        self.inner.files_created()
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn mean_throughput(&self) -> f64 {
        self.inner.mean_throughput()
    }

    fn list_sdf_files(&self) -> std::io::Result<Vec<PathBuf>> {
        self.inner.list_sdf_files()
    }

    fn root(&self) -> &Path {
        self.inner.root()
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.inner.path_of(name)
    }

    fn clock(&self) -> &dyn IoClock {
        self.clock.as_ref()
    }

    fn sentinel(&self) -> Option<&DiskSentinel> {
        self.inner.sentinel()
    }
}

fn injected_io_error(op: &str, target: &str) -> SdfError {
    SdfError::Io(std::io::Error::other(format!(
        "injected transient fault: {op}({target})"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sentinel::{is_no_space, PressureLevel};
    use crate::LocalDirBackend;
    use damaris_format::{DataType, Layout, SdfReader};

    fn write_one(backend: &dyn StorageBackend, name: &str) -> Result<u64> {
        let mut w = backend.begin_sdf(name)?;
        let layout = Layout::new(DataType::F32, &[16]);
        w.write_dataset_f32("/v", &layout, &[1.5; 16])?;
        backend.commit_sdf(w)
    }

    #[test]
    fn plan_fires_on_exact_ordinals() {
        let inner = LocalDirBackend::scratch("faulty-ordinal").unwrap();
        let plan = FaultPlan::new().fail_nth(FaultOp::Commit, 1);
        let b = FaultyBackend::new(inner, plan);
        assert!(write_one(&b, "a.sdf").is_ok());
        assert!(write_one(&b, "b.sdf").is_err()); // 2nd commit injected
        assert!(write_one(&b, "c.sdf").is_ok());
        assert_eq!(b.injected().transient_errors.load(Ordering::SeqCst), 1);
        // The failed commit left its tmp file behind; only 2 published.
        assert_eq!(b.list_sdf_files().unwrap().len(), 2);
        assert!(b.path_of("b.sdf.tmp").exists());
    }

    #[test]
    fn a_batch_takes_one_commit_ordinal_per_file_and_stops_at_a_failure() {
        let inner = LocalDirBackend::scratch("faulty-batch").unwrap();
        let plan = FaultPlan::new().fail_nth(FaultOp::Commit, 1);
        let b = FaultyBackend::new(inner, plan);
        let layout = Layout::new(DataType::F32, &[16]);
        let mut writers = ["a.sdf", "b.sdf", "c.sdf"].map(|name| {
            let mut w = b.begin_sdf(name).unwrap();
            w.write_dataset_f32("/v", &layout, &[1.5; 16]).unwrap();
            Some(w)
        });
        // Ordinal 0 commits `a`, ordinal 1 fails `b`; `c` is never asked
        // for and stays with the caller, who commits it with ordinal 2.
        let mut pulled = writers.iter_mut().map(|w| w.take().unwrap());
        let (stored, failed) = b.commit_batch(&mut pulled);
        assert_eq!(stored.len(), 1);
        assert!(failed.is_some());
        assert!(writers[1].is_none() && writers[2].is_some());
        assert_eq!(b.list_sdf_files().unwrap(), [PathBuf::from("a.sdf")]);
        let (stored, failed) = b.commit_batch(&mut writers[2].take().into_iter());
        assert!(stored.len() == 1 && failed.is_none(), "{failed:?}");
        assert_eq!(b.injected().transient_errors.load(Ordering::SeqCst), 1);
        assert_eq!(
            b.list_sdf_files().unwrap(),
            [PathBuf::from("a.sdf"), PathBuf::from("c.sdf")]
        );
    }

    #[test]
    fn fail_first_then_succeed() {
        let inner = LocalDirBackend::scratch("faulty-failfirst").unwrap();
        let plan = FaultPlan::new().fail_first(FaultOp::Begin, 2);
        let b = FaultyBackend::new(inner, plan);
        assert!(b.begin_sdf("x.sdf").is_err());
        assert!(b.begin_sdf("x.sdf").is_err());
        assert!(b.begin_sdf("x.sdf").is_ok());
    }

    #[test]
    fn torn_write_publishes_corrupt_file() {
        let inner = LocalDirBackend::scratch("faulty-torn").unwrap();
        let plan = FaultPlan::new().tear_nth_commit(0, 1, 2);
        let b = FaultyBackend::new(inner, plan);
        let total = write_one(&b, "torn.sdf").unwrap();
        let on_disk = std::fs::metadata(b.path_of("torn.sdf")).unwrap().len();
        assert_eq!(on_disk, total / 2);
        assert!(SdfReader::open(b.path_of("torn.sdf")).is_err());
        assert_eq!(b.injected().torn_writes.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stall_delays_but_succeeds() {
        let inner = LocalDirBackend::scratch("faulty-stall").unwrap();
        let plan = FaultPlan::new().stall_nth(FaultOp::Commit, 0, Duration::from_millis(30));
        let b = FaultyBackend::new(inner, plan);
        let t0 = std::time::Instant::now();
        write_one(&b, "slow.sdf").unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert!(SdfReader::open(b.path_of("slow.sdf")).is_ok());
    }

    #[test]
    fn virtual_clock_absorbs_stalls_without_wall_time() {
        use crate::clock::VirtualClock;
        let inner = LocalDirBackend::scratch("faulty-vclock").unwrap();
        // A stall that would make a wall-clock test unbearable.
        let plan = FaultPlan::new().stall_nth(FaultOp::Commit, 0, Duration::from_secs(30));
        let clock = std::sync::Arc::new(VirtualClock::new());
        let b = FaultyBackend::new(inner, plan).with_clock(clock.clone());
        let t0 = std::time::Instant::now();
        write_one(&b, "virtslow.sdf").unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "stall hit the wall clock"
        );
        assert_eq!(clock.slept(), Duration::from_secs(30));
        assert_eq!(b.injected().stalls.load(Ordering::SeqCst), 1);
        // The trait surface hands the same clock to upstream retry loops.
        assert_eq!(b.clock().now(), Duration::from_secs(30));
        assert!(SdfReader::open(b.path_of("virtslow.sdf")).is_ok());
    }

    #[test]
    fn write_fault_fires_mid_payload() {
        let inner = LocalDirBackend::scratch("faulty-midwrite").unwrap();
        // The 3rd dataset write overall fails: first file carries two
        // datasets cleanly, the second file dies on its first dataset.
        let plan = FaultPlan::new().fail_nth(FaultOp::Write, 2);
        let b = FaultyBackend::new(inner, plan);
        let layout = Layout::new(DataType::F32, &[4]);
        let mut w = b.begin_sdf("ok.sdf").unwrap();
        w.write_dataset_f32("/a", &layout, &[1.0; 4]).unwrap();
        w.write_dataset_f32("/b", &layout, &[2.0; 4]).unwrap();
        b.commit_sdf(w).unwrap();
        let mut w = b.begin_sdf("dead.sdf").unwrap();
        let err = w.write_dataset_f32("/a", &layout, &[3.0; 4]).unwrap_err();
        assert!(!is_no_space(&err), "injected write fault is transient");
        assert_eq!(b.injected().transient_errors.load(Ordering::SeqCst), 1);
        // The partial file never reached its final name.
        drop(w);
        assert_eq!(b.list_sdf_files().unwrap().len(), 1);
    }

    #[test]
    fn corrupt_payload_keeps_commit_green_but_fails_read() {
        let inner = LocalDirBackend::scratch("faulty-corrupt").unwrap();
        let plan = FaultPlan::new().corrupt_nth_write(0);
        let b = FaultyBackend::new(inner, plan);
        // Begin, write (corrupted behind our back), commit — all "succeed".
        write_one(&b, "lying.sdf").unwrap();
        assert_eq!(b.injected().corrupt_payloads.load(Ordering::SeqCst), 1);
        // The file opens (index is intact) but the payload CRC is wrong.
        let r = SdfReader::open(b.path_of("lying.sdf")).unwrap();
        let err = r.read_f32("/v").unwrap_err();
        assert!(matches!(err, SdfError::Corrupt(_)), "{err}");
    }

    #[test]
    fn no_space_squeezes_then_lifts() {
        let sentinel = Arc::new(DiskSentinel::unlimited());
        let inner = LocalDirBackend::scratch("faulty-nospace")
            .unwrap()
            .with_sentinel(Arc::clone(&sentinel));
        // The second commit squeezes the quota down to current usage:
        // it (and everything after) fails ENOSPC until lifted.
        let plan = FaultPlan::new().no_space_after_commit(1, 0);
        let b = FaultyBackend::new(inner, plan);
        write_one(&b, "a.sdf").unwrap();
        let err = write_one(&b, "b.sdf").unwrap_err();
        assert!(is_no_space(&err), "expected ENOSPC, got: {err}");
        assert_eq!(b.sentinel().unwrap().level(), PressureLevel::Full);
        assert_eq!(b.injected().no_space_activations.load(Ordering::SeqCst), 1);
        b.lift_no_space();
        write_one(&b, "c.sdf").unwrap();
        assert_eq!(b.list_sdf_files().unwrap().len(), 2);
    }

    #[test]
    fn brownout_slows_commits_until_lifted() {
        use crate::clock::VirtualClock;
        let inner = LocalDirBackend::scratch("faulty-brownout").unwrap();
        let plan = FaultPlan::new().brownout_from_commit(0, 50);
        let clock = Arc::new(VirtualClock::new());
        let b = FaultyBackend::new(inner, plan).with_clock(clock.clone());
        write_one(&b, "slow1.sdf").unwrap();
        write_one(&b, "slow2.sdf").unwrap();
        assert_eq!(b.injected().brownout_commits.load(Ordering::SeqCst), 2);
        assert!(clock.slept() > Duration::ZERO, "brownout slept nothing");
        b.lift_brownout();
        write_one(&b, "fast.sdf").unwrap();
        assert_eq!(b.injected().brownout_commits.load(Ordering::SeqCst), 2);
    }
}
