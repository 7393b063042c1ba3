//! End-to-end trace attribution: a 4-client node runs with tracing on and
//! a trace directory configured, an injected [`FaultyBackend`] stall hits
//! one commit, and the flushed DTRC file must tell the whole story —
//! parse cleanly, decompose iteration time into phases (within
//! tolerance), and blame the stall on the backend phase, not the compute
//! ranks. This is the acceptance scenario from the observability issue:
//! the trace file is the evidence, not the process that produced it.

use damaris_core::{Config, NodeRuntime};
use damaris_fs::{FaultOp, FaultPlan, FaultyBackend, LocalDirBackend, StorageBackend};
use damaris_obs::{analyze, load_traces, EventKind, FLAG_SERVER};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("damaris-obs-e2e-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(xml: &str) -> Config {
    Config::from_xml(xml).expect("valid config")
}

/// Drives `clients` through `iterations`, `writes` calls per iteration of
/// `len` doubles each, from one thread per client; each calls `ended`
/// after it ended an iteration, before it starts the next.
fn drive(
    clients: Vec<damaris_core::DamarisClient>,
    iterations: u32,
    writes: u32,
    len: usize,
    ended: impl Fn(u32) + Sync,
) {
    std::thread::scope(|s| {
        for client in clients {
            let ended = &ended;
            s.spawn(move || {
                let data = vec![1.5f64; len];
                for it in 0..iterations {
                    for _ in 0..writes {
                        client.write_f64("field", it, &data).expect("write");
                    }
                    client.end_iteration(it).expect("end iteration");
                    ended(it);
                }
            });
        }
    });
}

const CLIENTS: usize = 4;
const ITERATIONS: u32 = 12;
const WRITES_PER_ITER: u32 = 2;
const ELEMS: usize = 2048; // 16 KiB per write
const STALL_ITER: u32 = 6;
// Far above any scheduler preemption a loaded single-core CI host can
// inject into another iteration: the stall must be the slowest thing in
// the timeline by construction, not by luck.
const STALL: Duration = Duration::from_millis(150);

/// The full acceptance scenario: run, stall, analyze the trace file.
#[test]
fn injected_stall_is_attributed_to_the_backend_phase() {
    let out = scratch("stall-out");
    let traces = scratch("stall-traces");
    let cfg = config(&format!(
        r#"<damaris>
             <buffer size="33554432" allocator="partition" queue="1024"/>
             <observability enabled="true" ring_capacity="4096"
                            trace_dir="{}"/>
             <layout name="block" type="double" dimensions="{ELEMS}"/>
             <variable name="field" layout="block"/>
           </damaris>"#,
        traces.display()
    ));
    // Commits happen once per fired iteration, in order, so the nth-commit
    // ordinal *is* the iteration number the stall lands in.
    let plan = FaultPlan::new().stall_nth(FaultOp::Commit, u64::from(STALL_ITER), STALL);
    let faulty = Arc::new(FaultyBackend::new(
        LocalDirBackend::new(&out).unwrap(),
        plan,
    ));
    let runtime = NodeRuntime::start_with_backend(
        cfg,
        CLIENTS,
        Arc::clone(&faulty) as Arc<dyn StorageBackend>,
        0,
        Vec::new(),
    )
    .expect("start node");

    // A paced simulation: nobody starts an iteration before the last one
    // is on disk, so the dedicated core commits iterations one at a time
    // and "the nth commit" below is "iteration n". (Clients that run ahead
    // get their backlog committed as one batch — one fsync span and one
    // iteration span for all of it, however many that turns out to be.)
    let persisted = |it: u32| {
        let file = out.join(format!("node-0/iter-{it:06}.sdf"));
        let deadline = Instant::now() + Duration::from_secs(30);
        while !file.exists() {
            assert!(Instant::now() < deadline, "iteration {it} never persisted");
            std::thread::sleep(Duration::from_micros(200));
        }
    };
    drive(
        runtime.clients(),
        ITERATIONS,
        WRITES_PER_ITER,
        ELEMS,
        persisted,
    );

    // The dedicated core feeds the phase histograms from the same flushed
    // records that land in the trace file; wait until it has digested
    // every iteration so the registry view can be cross-checked too.
    let deadline = Instant::now() + Duration::from_secs(30);
    let snap = loop {
        let snap = runtime.metrics_snapshot();
        let fsyncs = snap
            .histograms
            .get("phase.backend_fsync_ns")
            .map_or(0, |h| h.count);
        if fsyncs >= u64::from(ITERATIONS) {
            break snap;
        }
        assert!(
            Instant::now() < deadline,
            "server never persisted all iterations"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let report = runtime.finish().expect("clean shutdown");
    assert_eq!(report.iterations_persisted, u64::from(ITERATIONS));
    assert_eq!(faulty.injected().stalls.load(Ordering::Relaxed), 1);

    // The trace file parses cleanly: one file for the single incarnation,
    // a clean trailer, no corrupt blocks, and nothing dropped (the rings
    // were sized for the workload).
    let merged = load_traces(&[&traces]).expect("trace dir readable");
    assert_eq!(merged.files, 1, "one node, one incarnation, one file");
    assert!(
        merged.warnings.is_empty(),
        "warnings: {:?}",
        merged.warnings
    );
    assert_eq!(merged.dropped, 0);

    let a = analyze(&merged.records, merged.dropped);

    // Client-path instrumentation is complete and exact: every write is a
    // WriteCall span with its inner phases, byte counts included.
    let expected_writes = CLIENTS as u64 * u64::from(ITERATIONS) * u64::from(WRITES_PER_ITER);
    let writes = a.phase(EventKind::WriteCall).expect("write_call traced");
    assert_eq!(writes.count, expected_writes);
    assert_eq!(writes.bytes, expected_writes * (ELEMS as u64 * 8));
    for kind in [
        EventKind::AllocWait,
        EventKind::Memcpy,
        EventKind::JournalAppend,
        EventKind::QueuePush,
    ] {
        let p = a.phase(kind).unwrap_or_else(|| panic!("{kind:?} missing"));
        assert!(p.count >= expected_writes, "{kind:?}: {} spans", p.count);
    }

    // Server-path instrumentation too: an Iteration span per fire, plus
    // the idle/dispatch decomposition and the backend sub-phases.
    assert_eq!(a.iterations.len(), ITERATIONS as usize);
    let fsync = a.phase(EventKind::BackendFsync).expect("fsync traced");
    assert!(fsync.count >= u64::from(ITERATIONS));
    for kind in [
        EventKind::QueueIdle,
        EventKind::EpeDispatch,
        EventKind::BackendWrite,
    ] {
        assert!(a.phase(kind).is_some(), "{kind:?} missing from trace");
    }

    // Decomposition: the disjoint {idle, dispatch} pair accounts for the
    // observed iteration time within tolerance (the gap is loop overhead
    // and bookkeeping between spans; scheduler noise on a loaded host can
    // push it either way).
    let cov = a.coverage.expect("iterations present");
    assert!(
        (0.60..=1.40).contains(&cov),
        "idle+dispatch explain {:.1}% of iteration time",
        cov * 100.0
    );

    // The stalled iteration sticks out of the timeline by the full stall,
    // and the stall shows up inside the fsync phase where it was injected.
    let stall_ns = STALL.as_nanos() as u64;
    let stalled = a.iterations[&STALL_ITER];
    assert!(
        stalled >= stall_ns,
        "iteration {STALL_ITER} took {stalled} ns"
    );
    assert_eq!(
        a.iterations.values().max().copied(),
        Some(stalled),
        "the stalled iteration is the slowest"
    );
    assert!(fsync.max_ns >= stall_ns, "fsync max {} ns", fsync.max_ns);

    // Attribution: the jitter is blamed on the backend path. Every span
    // *containing* the stall (dispatch ⊇ plugin ⊇ fsync) legitimately
    // moves one-for-one with it, so the dominant phase is one of those —
    // and the fsync phase itself explains essentially all the variance,
    // while the compute-rank memcpy explains none of it.
    let dominant = a.dominant_phase().expect(">= 2 iterations with variance");
    assert!(
        matches!(
            dominant.kind,
            EventKind::EpeDispatch | EventKind::PluginRun | EventKind::BackendFsync
        ),
        "dominant phase {:?} is not on the backend path",
        dominant.kind
    );
    let share = |kind: EventKind| {
        a.attribution
            .iter()
            .find(|x| x.kind == kind)
            .map_or(0.0, |x| x.share)
    };
    assert!(
        share(EventKind::BackendFsync) > 0.85,
        "fsync share {:.3}",
        share(EventKind::BackendFsync)
    );
    assert!(
        share(EventKind::Memcpy).abs() < 0.30,
        "memcpy share {:.3}",
        share(EventKind::Memcpy)
    );

    // The registry saw the same story: per-phase histograms fed from the
    // flushed records, with the stall in the fsync histogram's max.
    let fsync_hist = &snap.histograms["phase.backend_fsync_ns"];
    assert!(fsync_hist.max >= stall_ns);
    assert!(snap.histograms["phase.write_call_ns"].count >= expected_writes);

    // The data actually persisted (the trace is telemetry, not the I/O).
    for it in 0..ITERATIONS {
        assert!(out.join(format!("node-0/iter-{it:06}.sdf")).exists());
    }

    std::fs::remove_dir_all(&out).ok();
    std::fs::remove_dir_all(&traces).ok();
}

/// Ring overflow is counted, not silent: with a deliberately tiny ring
/// and a bursty workload, records drop — and the trailer's drop count
/// balances the books against the exact number of records the clients
/// pushed (5 per successful write; `end_iteration` pushes none).
#[test]
fn ring_overflow_is_accounted_in_the_trailer() {
    const DROP_CLIENTS: usize = 2;
    const DROP_ITERS: u32 = 6;
    const DROP_WRITES: u32 = 40;

    let out = scratch("drop-out");
    let traces = scratch("drop-traces");
    let cfg = config(&format!(
        r#"<damaris>
             <buffer size="8388608" allocator="partition" queue="4096"/>
             <observability enabled="true" ring_capacity="64"
                            trace_dir="{}"/>
             <layout name="block" type="double" dimensions="32"/>
             <variable name="field" layout="block"/>
           </damaris>"#,
        traces.display()
    ));
    let runtime = NodeRuntime::start(cfg, DROP_CLIENTS, &out).expect("start node");
    drive(runtime.clients(), DROP_ITERS, DROP_WRITES, 32, |_| {});
    let report = runtime.finish().expect("clean shutdown");
    assert_eq!(report.iterations_persisted, u64::from(DROP_ITERS));

    let merged = load_traces(&[&traces]).expect("trace dir readable");
    assert!(
        merged.warnings.is_empty(),
        "warnings: {:?}",
        merged.warnings
    );
    assert!(
        merged.dropped > 0,
        "64-slot ring must overflow under 200 writes"
    );

    // Conservation: every client push either reached the file or was
    // counted dropped. The trailer total also covers the server ring, so
    // the client-side deficit can't exceed it.
    let pushed_by_clients =
        DROP_CLIENTS as u64 * u64::from(DROP_ITERS) * u64::from(DROP_WRITES) * 5;
    let flushed_by_clients = merged
        .records
        .iter()
        .filter(|r| r.flags & FLAG_SERVER == 0)
        .count() as u64;
    assert!(
        flushed_by_clients <= pushed_by_clients,
        "{flushed_by_clients} client records flushed, only {pushed_by_clients} pushed"
    );
    let client_deficit = pushed_by_clients - flushed_by_clients;
    assert!(
        client_deficit <= merged.dropped,
        "{client_deficit} client records missing but only {} counted dropped",
        merged.dropped
    );

    // And the analyzer carries the count through to the report.
    let a = analyze(&merged.records, merged.dropped);
    assert_eq!(a.dropped, merged.dropped);
    assert!(a.render().contains("dropped by ring overflow"));

    std::fs::remove_dir_all(&out).ok();
    std::fs::remove_dir_all(&traces).ok();
}

/// Tracing disabled is genuinely off: no trace file appears even with a
/// trace directory configured, and the run is otherwise unaffected.
#[test]
fn disabled_observability_writes_no_trace_file() {
    let out = scratch("off-out");
    let traces = scratch("off-traces");
    let cfg = config(&format!(
        r#"<damaris>
             <buffer size="4194304" allocator="partition" queue="256"/>
             <observability enabled="false" ring_capacity="1024"
                            trace_dir="{}"/>
             <layout name="block" type="double" dimensions="64"/>
             <variable name="field" layout="block"/>
           </damaris>"#,
        traces.display()
    ));
    let runtime = NodeRuntime::start(cfg, 2, &out).expect("start node");
    drive(runtime.clients(), 3, 2, 64, |_| {});
    let report = runtime.finish().expect("clean shutdown");
    assert_eq!(report.iterations_persisted, 3);

    let merged = load_traces(&[&traces]).expect("empty dir is fine");
    assert_eq!(merged.files, 0, "disabled tracing must not create files");

    std::fs::remove_dir_all(&out).ok();
    std::fs::remove_dir_all(&traces).ok();
}
