//! Fault-injection (chaos) tests: a CM1-style workload driven through
//! [`FaultyBackend`] with a deterministic fault plan, exercising every
//! degradation policy end to end — persist retries, torn-write recovery,
//! plugin quarantine, and the client backpressure policies.

use damaris_core::{
    ActionContext, Config, DamarisError, EventInfo, NodeRuntime, Plugin, PluginFactory,
};
use damaris_format::SdfReader;
use damaris_fs::{recover_dir, FaultOp, FaultPlan, FaultyBackend, LocalDirBackend};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("damaris-chaos-{tag}-{}-{n}", std::process::id()))
}

/// A plugin that panics on every invocation — the misbehaving user action
/// the quarantine exists for.
struct PanickyPlugin;

impl Plugin for PanickyPlugin {
    fn name(&self) -> &str {
        "panicky"
    }
    fn handle(
        &mut self,
        _ctx: &mut ActionContext<'_>,
        event: &EventInfo,
    ) -> Result<(), DamarisError> {
        panic!("synthetic plugin panic at iteration {}", event.iteration);
    }
}

/// The acceptance scenario: a multi-iteration CM1-style workload survives
/// transient storage errors, one torn write, and a panicking plugin; the
/// surviving files CRC-validate, the torn file is quarantined by the
/// recovery scan, and the report's counters match the fault plan exactly.
#[test]
fn cm1_workload_survives_fault_plan() {
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="4194304" allocator="partition" queue="64"/>
             <layout name="grid" type="real" dimensions="512"/>
             <variable name="theta" layout="grid" unit="K"/>
             <variable name="wind" layout="grid" unit="m/s"/>
             <event name="chaos_panic" action="panicky"/>
             <resilience persist_retries="3" retry_base_ms="1"
                         persist_deadline_ms="2000" plugin_quarantine="2"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("cm1");

    // Deterministic script (single client → one persist per iteration, in
    // order; begin/commit ordinals are 0-based per operation):
    //   iter 0: begin 0, commit 0                    — clean
    //   iter 1: commit 1 fails   → retry: begin 2, commit 2 — 1 retry
    //   iter 2: commit 3 tears   → published corrupt, "succeeds"
    //   iter 3: begin 4 fails    → retry: begin 5, commit 4 — 1 retry
    //   iter 4/5: clean
    let plan = FaultPlan::new()
        .fail_nth(FaultOp::Commit, 1)
        .tear_nth_commit(3, 1, 3)
        .fail_nth(FaultOp::Begin, 4);
    let backend = Arc::new(FaultyBackend::new(
        LocalDirBackend::new(&dir).unwrap(),
        plan,
    ));

    let panicky: PluginFactory = Box::new(|_| Ok(Box::new(PanickyPlugin) as Box<dyn Plugin>));
    let runtime = NodeRuntime::start_with_backend(
        cfg,
        1,
        Arc::clone(&backend) as Arc<dyn damaris_fs::StorageBackend>,
        0,
        vec![("panicky".to_string(), panicky)],
    )
    .unwrap();

    let client = &runtime.clients()[0];
    let iterations = 6u32;
    for it in 0..iterations {
        let theta: Vec<f32> = (0..512).map(|i| (it * 1000 + i) as f32).collect();
        let wind: Vec<f32> = theta.iter().map(|v| -v).collect();
        client.write_f32("theta", it, &theta).unwrap();
        client.write_f32("wind", it, &wind).unwrap();
        // Two panics quarantine the plugin; the third signal is absorbed
        // by the (now disabled) binding without counting a failure.
        if (1..=3).contains(&it) {
            client.signal("chaos_panic", it).unwrap();
        }
        client.end_iteration(it).unwrap();
    }
    let report = runtime
        .finish()
        .expect("run completes despite the fault plan");

    // Counters match the injected plan to the digit.
    assert_eq!(report.iterations_persisted, 6);
    assert_eq!(report.persist_retries, 2);
    assert_eq!(report.iterations_degraded, 0);
    assert_eq!(report.plugin_failures, 2);
    assert_eq!(report.plugins_quarantined, 1);
    assert_eq!(report.user_events, 3);
    assert_eq!(report.recovery_actions, 0); // started from a clean dir
    assert_eq!(report.files_created, 6); // every commit eventually landed
    let injected = backend.injected();
    assert_eq!(injected.transient_errors.load(Ordering::SeqCst), 2);
    assert_eq!(injected.torn_writes.load(Ordering::SeqCst), 1);

    // Surviving iterations CRC-validate and hold the right data; the torn
    // iteration is detectably corrupt.
    for it in [0u32, 1, 3, 4, 5] {
        let path = dir.join(format!("node-0/iter-{it:06}.sdf"));
        let reader = SdfReader::open(&path).unwrap();
        reader.validate().unwrap();
        let theta = reader
            .read_f32(&format!("/iter-{it}/rank-0/theta"))
            .unwrap();
        assert_eq!(theta[7], (it * 1000 + 7) as f32, "iteration {it}");
    }
    assert!(SdfReader::open(dir.join("node-0/iter-000002.sdf"))
        .and_then(|r| r.validate())
        .is_err());

    // The recovery scan (what the next startup runs) quarantines exactly
    // the torn file and leaves the five good ones.
    let scan = recover_dir(&dir).unwrap();
    assert_eq!(
        scan.quarantined,
        vec![PathBuf::from("node-0/iter-000002.sdf")]
    );
    assert_eq!(scan.valid.len(), 5);
    assert!(dir.join("node-0/iter-000002.sdf.quarantined").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// Persist exhausting its retry budget degrades the iteration — data is
/// dropped, shared memory is released, and later iterations still persist.
#[test]
fn exhausted_retries_degrade_not_abort() {
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="65536"/>
             <layout name="grid" type="real" dimensions="64"/>
             <variable name="v" layout="grid"/>
             <resilience persist_retries="2" retry_base_ms="1"
                         persist_deadline_ms="5000"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("degraded");
    // First 6 commits fail: iteration 0 burns attempts 0..=2 and degrades,
    // iteration 1 burns 3..=5 and degrades, iteration 2 commits cleanly.
    let backend = Arc::new(FaultyBackend::new(
        LocalDirBackend::new(&dir).unwrap(),
        FaultPlan::new().fail_first(FaultOp::Commit, 6),
    ));
    let runtime = NodeRuntime::start_with_backend(
        cfg,
        1,
        backend as Arc<dyn damaris_fs::StorageBackend>,
        0,
        Vec::new(),
    )
    .unwrap();
    let client = &runtime.clients()[0];
    for it in 0..3u32 {
        client.write_f32("v", it, &[it as f32; 64]).unwrap();
        client.end_iteration(it).unwrap();
    }
    let report = runtime.finish().unwrap();
    assert_eq!(report.iterations_degraded, 2);
    assert_eq!(report.persist_retries, 4);
    assert_eq!(report.iterations_persisted, 3); // events all fired
    assert_eq!(report.files_created, 1); // only iteration 2 landed
    let reader = SdfReader::open(dir.join("node-0/iter-000002.sdf")).unwrap();
    assert_eq!(reader.read_f32("/iter-2/rank-0/v").unwrap(), [2.0; 64]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Holds the dedicated core until the test lets go (and succeeds):
/// everything the client pushes meanwhile is in the queue when it returns,
/// so the core fires those iterations back to back and commits them as
/// one batch.
struct HoldPlugin {
    gate: Arc<std::sync::Barrier>,
}

impl Plugin for HoldPlugin {
    fn name(&self) -> &str {
        "hold"
    }
    fn handle(
        &mut self,
        _ctx: &mut ActionContext<'_>,
        _event: &EventInfo,
    ) -> Result<(), DamarisError> {
        self.gate.wait();
        Ok(())
    }
}

/// A transient failure at the head of a batch: the failed iteration is
/// written and committed again in place, the iterations parked behind it
/// commit after it, in order, and every segment goes back in allocation
/// order (the partition allocator asserts that in debug builds).
#[test]
fn commit_failure_at_the_head_of_a_batch_is_retried_in_place() {
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="262144" allocator="partition" queue="64"/>
             <layout name="grid" type="real" dimensions="64"/>
             <variable name="v" layout="grid"/>
             <event name="hold" action="hold"/>
             <resilience persist_retries="2" retry_base_ms="1"
                         persist_deadline_ms="5000"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("batch-retry");
    // Three iterations fire while the core is held: begins 0, 1, 2. The
    // batch's first commit (ordinal 0, iteration 0) fails and stops it;
    // iteration 0 is written again (begin 3) and committed alone (commit
    // 1); iterations 1 and 2 follow as a batch of two (commits 2 and 3,
    // the second of which tears its file, to show which file it was).
    let plan = FaultPlan::new()
        .fail_nth(FaultOp::Commit, 0)
        .tear_nth_commit(3, 1, 2);
    let backend = Arc::new(FaultyBackend::new(
        LocalDirBackend::new(&dir).unwrap(),
        plan,
    ));
    let gate = Arc::new(std::sync::Barrier::new(2));
    let held = Arc::clone(&gate);
    let hold: PluginFactory = Box::new(move |_| {
        Ok(Box::new(HoldPlugin {
            gate: Arc::clone(&held),
        }) as Box<dyn Plugin>)
    });
    let runtime = NodeRuntime::start_with_backend(
        cfg,
        1,
        Arc::clone(&backend) as Arc<dyn damaris_fs::StorageBackend>,
        0,
        vec![("hold".to_string(), hold)],
    )
    .unwrap();
    let client = &runtime.clients()[0];
    client.signal("hold", 0).unwrap();
    for it in 0..3u32 {
        client.write_f32("v", it, &[it as f32; 64]).unwrap();
        client.end_iteration(it).unwrap();
    }
    gate.wait();
    let report = runtime.finish().unwrap();

    assert_eq!(report.iterations_persisted, 3);
    assert_eq!(report.persist_retries, 1);
    assert_eq!(report.iterations_degraded, 0);
    assert_eq!(report.files_created, 3);
    // The batch that failed, iteration 0 alone, then the other two; the
    // first published nothing.
    assert_eq!(report.commit_batches, 3);
    assert_eq!(report.manifest_publishes, 2);
    assert_eq!(
        backend.injected().transient_errors.load(Ordering::SeqCst),
        1
    );
    assert_eq!(client.buffer_in_use(), 0);
    for it in 0..2u32 {
        let reader = SdfReader::open(dir.join(format!("node-0/iter-{it:06}.sdf"))).unwrap();
        reader.validate().unwrap();
        assert_eq!(
            reader.read_f32(&format!("/iter-{it}/rank-0/v")).unwrap(),
            [it as f32; 64]
        );
    }
    // Commit ordinal 3 was iteration 2's: commits kept their order.
    assert!(SdfReader::open(dir.join("node-0/iter-000002.sdf"))
        .and_then(|r| r.validate())
        .is_err());
    let manifest = damaris_fs::Manifest::load(&dir).unwrap();
    let listed: Vec<_> = manifest.entries.iter().map(|e| e.kind.range().0).collect();
    assert_eq!(listed, [0, 1, 2]);
    std::fs::remove_dir_all(&dir).ok();
}

/// The `block` policy's hard timeout: a write that can never be satisfied
/// (the iteration holding the space is never ended) surfaces as
/// [`DamarisError::Buffer`] instead of hanging forever.
#[test]
fn block_policy_times_out_with_buffer_error() {
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="4096"/>
             <layout name="big" type="real" dimensions="768"/>
             <variable name="a" layout="big"/>
             <variable name="b" layout="big"/>
             <resilience backpressure="block" timeout_ms="150"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("block-timeout");
    let runtime = NodeRuntime::start(cfg, 1, &dir).unwrap();
    let client = &runtime.clients()[0];
    client.write_f32("a", 0, &[1.0; 768]).unwrap();
    // 3072 of 4096 bytes are resident and the iteration never ends, so
    // this reservation can never succeed.
    let t0 = std::time::Instant::now();
    let err = client.write_f32("b", 0, &[2.0; 768]).unwrap_err();
    assert!(matches!(err, DamarisError::Buffer(_)), "{err}");
    assert!(t0.elapsed() >= std::time::Duration::from_millis(150));
    drop(runtime); // terminate flushes the half-finished iteration
    std::fs::remove_dir_all(&dir).ok();
}

/// The `drop` policy: a write hitting a full buffer is counted and
/// discarded; the client and the rest of the iteration continue.
#[test]
fn drop_policy_sheds_writes_under_pressure() {
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="4096"/>
             <layout name="big" type="real" dimensions="768"/>
             <variable name="a" layout="big"/>
             <variable name="b" layout="big"/>
             <resilience backpressure="drop"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("drop");
    let runtime = NodeRuntime::start(cfg, 1, &dir).unwrap();
    let client = &runtime.clients()[0];
    client.write_f32("a", 0, &[1.0; 768]).unwrap();
    client.write_f32("b", 0, &[2.0; 768]).unwrap(); // dropped, still Ok
    client.end_iteration(0).unwrap();
    let report = runtime.finish().unwrap();
    assert_eq!(report.writes_dropped, 1);
    assert_eq!(report.variables_received, 1);
    let reader = SdfReader::open(dir.join("node-0/iter-000000.sdf")).unwrap();
    assert!(reader.read_f32("/iter-0/rank-0/a").is_ok());
    assert!(reader.read_f32("/iter-0/rank-0/b").is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// The `sync-fallback` policy: the payload bypasses shared memory and is
/// written (crash-consistently) by the compute core itself.
#[test]
fn sync_fallback_writes_through_to_storage() {
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="4096"/>
             <layout name="big" type="real" dimensions="768"/>
             <variable name="a" layout="big"/>
             <variable name="b" layout="big"/>
             <resilience backpressure="sync-fallback"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("sync-fallback");
    let runtime = NodeRuntime::start(cfg, 1, &dir).unwrap();
    let client = &runtime.clients()[0];
    client.write_f32("a", 0, &[1.0; 768]).unwrap();
    let data: Vec<f32> = (0..768).map(|i| i as f32).collect();
    client.write_f32("b", 0, &data).unwrap(); // diverted to storage
    client.end_iteration(0).unwrap();
    let report = runtime.finish().unwrap();
    assert_eq!(report.sync_fallback_writes, 1);
    assert_eq!(report.variables_received, 1);

    let fallback = dir.join("sync-fallback/rank-0/iter-000000-b.sdf");
    let reader = SdfReader::open(&fallback).unwrap();
    reader.validate().unwrap();
    assert_eq!(reader.read_f32("/iter-0/rank-0/b").unwrap(), data);
    let info = reader.info("/iter-0/rank-0/b").unwrap();
    assert_eq!(info.attr("sync_fallback").unwrap().as_i64(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

/// Startup recovery: a directory left dirty by a "crashed" run is cleaned
/// (orphan tmp removed, torn file quarantined) before serving, and the
/// actions are reported.
#[test]
fn startup_recovery_cleans_dirty_directory() {
    let dir = scratch("startup-recovery");
    {
        let b = LocalDirBackend::new(&dir).unwrap();
        let layout = damaris_format::Layout::new(damaris_format::DataType::F32, &[32]);
        // A committed-then-torn file…
        let mut w = b.begin_sdf("node-0/iter-000099.sdf").unwrap();
        w.write_dataset_f32("/v", &layout, &[1.0; 32]).unwrap();
        b.commit_sdf(w).unwrap();
        let path = b.path_of("node-0/iter-000099.sdf");
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len / 2)
            .unwrap();
        // …and an orphan tmp from an interrupted commit.
        let mut w = b.begin_sdf("node-0/iter-000100.sdf").unwrap();
        w.write_dataset_f32("/v", &layout, &[2.0; 32]).unwrap();
        drop(w);
    }

    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="65536"/>
             <layout name="grid" type="real" dimensions="32"/>
             <variable name="v" layout="grid"/>
           </damaris>"#,
    )
    .unwrap();
    let runtime = NodeRuntime::start(cfg, 1, &dir).unwrap();
    let client = &runtime.clients()[0];
    client.write_f32("v", 0, &[3.0; 32]).unwrap();
    client.end_iteration(0).unwrap();
    let report = runtime.finish().unwrap();
    assert_eq!(report.recovery_actions, 2);
    assert!(dir.join("node-0/iter-000099.sdf.quarantined").exists());
    assert!(!dir.join("node-0/iter-000100.sdf.tmp").exists());
    // The new run's output is fine.
    SdfReader::open(dir.join("node-0/iter-000000.sdf"))
        .unwrap()
        .validate()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// With `plugin_quarantine="0"` (the default), a failing plugin still
/// fails the run — but a *panicking* plugin now surfaces as a plugin
/// error instead of poisoning the dedicated-core thread.
#[test]
fn fail_fast_default_converts_panic_to_error() {
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="65536"/>
             <event name="boom" action="panicky"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("fail-fast-panic");
    let panicky: PluginFactory = Box::new(|_| Ok(Box::new(PanickyPlugin) as Box<dyn Plugin>));
    let runtime = NodeRuntime::start_with_backend(
        cfg,
        1,
        Arc::new(LocalDirBackend::new(&dir).unwrap()),
        0,
        vec![("panicky".to_string(), panicky)],
    )
    .unwrap();
    runtime.clients()[0].signal("boom", 0).unwrap();
    let err = runtime.finish().unwrap_err();
    assert!(err.to_string().contains("synthetic plugin panic"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
