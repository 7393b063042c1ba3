//! Storage-pressure degradation, end to end: a live node driven to
//! `ENOSPC` by squeezing its [`DiskSentinel`] quota mid-run (the same
//! lever the chaos harness uses), verified through every `on_disk_full`
//! policy — and back to `Normal` once the quota lifts.

use damaris_core::{Config, NodeRuntime, PressureState};
use damaris_fs::{DiskSentinel, LocalDirBackend, StorageBackend};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("damaris-pressure-{tag}-{}-{n}", std::process::id()))
}

/// Polls `cond` until it holds or the 10s deadline passes.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn config(on_disk_full: &str, extra_resilience: &str) -> Config {
    Config::from_xml(&format!(
        r#"<damaris>
             <buffer size="4194304" allocator="partition" queue="64"/>
             <layout name="grid" type="real" dimensions="256"/>
             <variable name="theta" layout="grid"/>
             <resilience on_disk_full="{on_disk_full}" {extra_resilience}/>
           </damaris>"#
    ))
    .unwrap()
}

fn quota_backend(tag: &str) -> (Arc<LocalDirBackend>, Arc<DiskSentinel>, PathBuf) {
    let sentinel = Arc::new(DiskSentinel::unlimited());
    let dir = scratch(tag);
    let backend = Arc::new(
        LocalDirBackend::new(&dir)
            .unwrap()
            .with_sentinel(Arc::clone(&sentinel)),
    );
    (backend, sentinel, dir)
}

/// `drop-iteration`: iterations becoming ready while read-only are shed
/// whole (memory released, nothing persisted, counted to the digit), and
/// the node re-ascends to Normal when the quota lifts.
#[test]
fn squeeze_sheds_then_reascends_under_drop_policy() {
    let (backend, sentinel, dir) = quota_backend("drop");
    let runtime = NodeRuntime::start_with_backend(
        config("drop-iteration", ""),
        4,
        Arc::clone(&backend) as Arc<dyn StorageBackend>,
        0,
        Vec::new(),
    )
    .unwrap();
    let clients = runtime.clients();
    let write_iteration = |it: u32| {
        for (i, c) in clients.iter().enumerate() {
            c.write_f32("theta", it, &vec![i as f32; 256]).unwrap();
            c.end_iteration(it).unwrap();
        }
    };

    // Phase 1: two clean iterations land on disk.
    write_iteration(0);
    write_iteration(1);
    wait_for("phase-1 files", || {
        backend.list_sdf_files().unwrap().len() == 2
    });
    assert_eq!(runtime.pressure_state(), PressureState::Normal);

    // Phase 2: squeeze the quota to exactly what's used — the disk is
    // now full. The idle poll takes the node Normal → Degraded →
    // ReadOnly, and the next two iterations are shed.
    sentinel.set_quota(sentinel.used());
    wait_for("read-only", || {
        runtime.pressure_state() == PressureState::ReadOnly
    });
    write_iteration(2);
    write_iteration(3);
    wait_for("sheds", || {
        runtime
            .metrics_snapshot()
            .counter("node.storage_pressure_sheds")
            == 2
    });
    assert_eq!(backend.list_sdf_files().unwrap().len(), 2);

    // Phase 3: lift the quota; the node steps back to Normal and the next
    // iteration persists again.
    sentinel.set_quota(u64::MAX);
    wait_for("recovery", || {
        runtime.pressure_state() == PressureState::Normal
    });
    write_iteration(4);
    wait_for("phase-3 file", || {
        backend.list_sdf_files().unwrap().len() == 3
    });

    wait_for("shm drained", || runtime.buffer_in_use() == 0);
    let report = runtime.finish().unwrap();
    assert_eq!(report.iterations_persisted, 3);
    assert_eq!(report.storage_pressure_sheds, 2);
    assert_eq!(report.iterations_degraded, 2);
    // Squeeze: Normal → Degraded → ReadOnly. Lift: ReadOnly → Degraded →
    // Normal. Exactly one read-only episode, two Degraded entries.
    assert_eq!(report.storage_pressure_degraded, 2);
    assert_eq!(report.storage_pressure_readonly, 1);
    assert_eq!(report.storage_pressure_recovered, 1);
    assert_eq!(report.persist_retries, 0, "no retry spinning on ENOSPC");
    std::fs::remove_dir_all(&dir).ok();
}

/// `block` (the default): ready iterations are held resident while
/// read-only — nothing is lost — and fire as soon as space returns.
#[test]
fn block_policy_holds_iterations_until_space_returns() {
    let (backend, sentinel, dir) = quota_backend("block");
    let runtime = NodeRuntime::start_with_backend(
        config("block", ""),
        1,
        Arc::clone(&backend) as Arc<dyn StorageBackend>,
        0,
        Vec::new(),
    )
    .unwrap();
    let client = &runtime.clients()[0];

    client.write_f32("theta", 0, &[1.0; 256]).unwrap();
    client.end_iteration(0).unwrap();
    wait_for("iteration 0", || {
        backend.list_sdf_files().unwrap().len() == 1
    });

    sentinel.set_quota(sentinel.used());
    wait_for("read-only", || {
        runtime.pressure_state() == PressureState::ReadOnly
    });
    client.write_f32("theta", 1, &[2.0; 256]).unwrap();
    client.end_iteration(1).unwrap();
    // The iteration is complete but held: resident in shared memory, not
    // on disk, not dropped.
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(backend.list_sdf_files().unwrap().len(), 1);
    assert!(runtime.buffer_in_use() > 0, "held iteration stays resident");
    assert_eq!(runtime.pressure_state(), PressureState::ReadOnly);

    // Space returns → the held iteration fires without any new event.
    sentinel.set_quota(u64::MAX);
    wait_for("held iteration fires", || {
        backend.list_sdf_files().unwrap().len() == 2
    });
    wait_for("shm drained", || runtime.buffer_in_use() == 0);

    let report = runtime.finish().unwrap();
    assert_eq!(report.iterations_persisted, 2);
    assert_eq!(report.iterations_degraded, 0);
    assert_eq!(report.storage_pressure_sheds, 0);
    assert_eq!(report.storage_pressure_recovered, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// `partial`: iterations fire while read-only and persist fails *fast* —
/// the permanent `ENOSPC` skips the whole retry/backoff budget (the
/// deadline below is 60s: if classification regressed to treating ENOSPC
/// as transient, this test would hang it out).
#[test]
fn partial_policy_fails_fast_without_retry_spin() {
    let (backend, sentinel, dir) = quota_backend("partial");
    let runtime = NodeRuntime::start_with_backend(
        config(
            "partial",
            r#"persist_retries="100" retry_base_ms="100" persist_deadline_ms="60000""#,
        ),
        1,
        Arc::clone(&backend) as Arc<dyn StorageBackend>,
        0,
        Vec::new(),
    )
    .unwrap();
    let client = &runtime.clients()[0];

    client.write_f32("theta", 0, &[1.0; 256]).unwrap();
    client.end_iteration(0).unwrap();
    wait_for("iteration 0", || {
        backend.list_sdf_files().unwrap().len() == 1
    });

    sentinel.set_quota(sentinel.used());
    wait_for("read-only", || {
        runtime.pressure_state() == PressureState::ReadOnly
    });
    let start = Instant::now();
    client.write_f32("theta", 1, &[2.0; 256]).unwrap();
    client.end_iteration(1).unwrap();
    wait_for("fast degrade", || {
        runtime
            .metrics_snapshot()
            .counter("node.iterations_degraded")
            == 1
    });
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "ENOSPC must short-circuit the 60s retry deadline"
    );
    wait_for("shm drained", || runtime.buffer_in_use() == 0);

    let report = runtime.finish().unwrap();
    // Iteration 1 *fired* (so it counts as processed, like any persist
    // exhaustion) but its data never reached disk.
    assert_eq!(report.iterations_persisted, 2);
    assert_eq!(backend.list_sdf_files().unwrap().len(), 1);
    assert_eq!(report.iterations_degraded, 1);
    assert_eq!(report.storage_pressure_sheds, 1);
    assert_eq!(
        report.persist_retries, 0,
        "permanent errors are not retried"
    );
    std::fs::remove_dir_all(&dir).ok();
}
