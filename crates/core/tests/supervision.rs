//! Dedicated-core crash recovery acceptance tests: the supervisor respawns
//! a dead event-processing engine, the write-ahead journal replays
//! unprocessed events exactly once, re-adopted shared memory balances to
//! zero, and clients watching the heartbeat degrade per their
//! backpressure policy when no respawn arrives.

use damaris_core::{
    ActionContext, Config, DamarisError, EventInfo, NodeRuntime, Plugin, PluginFactory,
};
use damaris_fs::LocalDirBackend;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("damaris-sup-{tag}-{}-{n}", std::process::id()))
}

/// Kills the server on its first invocation (error return), succeeds on
/// later ones — the "EPE crash" trigger for respawn tests.
struct KillOnce {
    fired: Arc<AtomicU64>,
}

impl Plugin for KillOnce {
    fn name(&self) -> &str {
        "kill-once"
    }
    fn handle(
        &mut self,
        _ctx: &mut ActionContext<'_>,
        _event: &EventInfo,
    ) -> Result<(), DamarisError> {
        if self.fired.fetch_add(1, Ordering::SeqCst) == 0 {
            // Let the (fast, non-blocking) client pushes queued behind this
            // event land in the queue before the crash, so the successor
            // finds the full backlog and the counter assertions are exact.
            std::thread::sleep(std::time::Duration::from_millis(200));
            return Err(DamarisError::Plugin {
                plugin: "kill-once".into(),
                message: "synthetic dedicated-core crash".into(),
            });
        }
        Ok(())
    }
}

/// Panics (instead of erroring) on first invocation — exercises the
/// supervisor's catch-the-poisoned-thread respawn path.
struct PanicOnce {
    fired: Arc<AtomicU64>,
}

impl Plugin for PanicOnce {
    fn name(&self) -> &str {
        "panic-once"
    }
    fn handle(
        &mut self,
        _ctx: &mut ActionContext<'_>,
        _event: &EventInfo,
    ) -> Result<(), DamarisError> {
        if self.fired.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("synthetic dedicated-core panic");
        }
        Ok(())
    }
}

fn kill_once_factory(counter: &Arc<AtomicU64>) -> PluginFactory {
    let fired = Arc::clone(counter);
    Box::new(move |_| {
        Ok(Box::new(KillOnce {
            fired: Arc::clone(&fired),
        }) as Box<dyn Plugin>)
    })
}

/// Holds the dedicated core in two rendezvous on `gate`: the first tells
/// the test the core is inside, and everything the clients post until the
/// second is in their rings when the core goes on — so it takes all of it
/// in one pass, without the rings going quiet in between, whatever the
/// two threads' timing.
struct Hold {
    gate: Arc<std::sync::Barrier>,
}

impl Plugin for Hold {
    fn name(&self) -> &str {
        "hold"
    }
    fn handle(
        &mut self,
        _ctx: &mut ActionContext<'_>,
        _event: &EventInfo,
    ) -> Result<(), DamarisError> {
        self.gate.wait();
        self.gate.wait();
        Ok(())
    }
}

fn hold_factory(gate: &Arc<std::sync::Barrier>) -> PluginFactory {
    let gate = Arc::clone(gate);
    Box::new(move |_| {
        Ok(Box::new(Hold {
            gate: Arc::clone(&gate),
        }) as Box<dyn Plugin>)
    })
}

const SUP_XML: &str = r#"<damaris>
     <buffer size="1048576" allocator="partition" queue="64"/>
     <layout name="grid" type="real" dimensions="256"/>
     <variable name="theta" layout="grid" unit="K"/>
     <event name="hold" action="hold"/>
     <event name="kill" action="kill-once"/>
     <resilience epe_respawn="1"/>
   </damaris>"#;

/// The tentpole acceptance test: 4 clients on one node, the dedicated core
/// is killed mid-queue by a poisoned event, the supervisor respawns it
/// with a bumped epoch, and the journal replay re-adopts every resident
/// segment and replays every unprocessed notification exactly once — the
/// persisted SDF file is byte-identical to an uninterrupted run's, and the
/// allocator accounting balances back to zero.
#[test]
fn epe_kill_replays_exactly_once_and_output_is_byte_identical() {
    // --- Interrupted run -------------------------------------------------
    let dir = scratch("kill");
    let cfg = Config::from_xml(SUP_XML).unwrap();
    let fired = Arc::new(AtomicU64::new(0));
    let gate = Arc::new(std::sync::Barrier::new(2));
    let runtime = NodeRuntime::start_with_backend(
        cfg,
        4,
        Arc::new(LocalDirBackend::new(&dir).unwrap()),
        0,
        vec![
            ("hold".to_string(), hold_factory(&gate)),
            ("kill-once".to_string(), kill_once_factory(&fired)),
        ],
    )
    .unwrap();
    let clients = runtime.clients();
    // Ring order, all taken in one pass once the core is let go: rank 0's
    // ring holds w0, K, e0 — the core takes w0 and stops at K, which goes
    // at the end of the pass — and ranks 1-3 hold w, e each. So the
    // server dies at K with the four writes and three ends taken.
    clients[0].signal("hold", 0).unwrap();
    gate.wait();
    for client in &clients {
        let data: Vec<f32> = (0..256).map(|i| (client.id() * 1000 + i) as f32).collect();
        client.write_f32("theta", 0, &data).unwrap();
    }
    clients[0].signal("kill", 0).unwrap();
    for client in &clients {
        client.end_iteration(0).unwrap();
    }
    gate.wait();
    let report = runtime
        .finish()
        .expect("respawned server completes the run");

    // The poisoned event fired exactly once: it was journaled Applied
    // *before* dispatch, so the respawn did not re-fire it (at-most-once
    // for side-effecting user events).
    assert_eq!(fired.load(Ordering::SeqCst), 1);
    assert_eq!(report.epe_respawns, 1);
    // Replay re-adopted the four resident writes and recounted the three
    // ends. What the dead incarnation never took (e0) was never journalled
    // either — the core journals what it takes — so it arrives by its
    // ring, and nothing is stale.
    assert_eq!(report.events_replayed, 7);
    assert_eq!(report.stale_events_rejected, 0);
    assert_eq!(report.variables_received, 4);
    assert_eq!(report.iterations_persisted, 1);
    assert_eq!(report.bytes_received, 4 * 256 * 4);
    // No shared-memory leaks: every segment the dead incarnation held was
    // re-adopted and eventually released.
    assert_eq!(clients[0].buffer_in_use(), 0);

    // --- Uninterrupted control run ---------------------------------------
    let control_dir = scratch("control");
    let cfg = Config::from_xml(SUP_XML).unwrap();
    let fired_control = Arc::new(AtomicU64::new(0));
    let unused = Arc::new(std::sync::Barrier::new(2));
    let control = NodeRuntime::start_with_backend(
        cfg,
        4,
        Arc::new(LocalDirBackend::new(&control_dir).unwrap()),
        0,
        vec![
            ("hold".to_string(), hold_factory(&unused)),
            ("kill-once".to_string(), kill_once_factory(&fired_control)),
        ],
    )
    .unwrap();
    let control_clients = control.clients();
    for client in &control_clients {
        let data: Vec<f32> = (0..256).map(|i| (client.id() * 1000 + i) as f32).collect();
        client.write_f32("theta", 0, &data).unwrap();
    }
    for client in &control_clients {
        client.end_iteration(0).unwrap();
    }
    let control_report = control.finish().unwrap();
    assert_eq!(control_report.epe_respawns, 0);
    assert_eq!(control_report.iterations_persisted, 1);

    // Crash, respawn, replay — and the persisted file is bit-for-bit what
    // an undisturbed dedicated core would have produced.
    let interrupted = std::fs::read(dir.join("node-0/iter-000000.sdf")).unwrap();
    let uninterrupted = std::fs::read(control_dir.join("node-0/iter-000000.sdf")).unwrap();
    assert_eq!(interrupted, uninterrupted);

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&control_dir).ok();
}

/// The dedicated core dies with two iterations *parked*: fired, their
/// files written under temporary names, nothing committed, published or
/// released. All that is left of them is two `.tmp` files, the journal's
/// write records and the segments — the respawned core re-adopts those,
/// persists both iterations again at shutdown (same names, over the stale
/// temporaries) and leaks nothing.
#[test]
fn epe_killed_with_iterations_parked_replays_and_persists_them_again() {
    let dir = scratch("parked-kill");
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="1048576" allocator="partition" queue="64"/>
             <layout name="grid" type="real" dimensions="256"/>
             <variable name="theta" layout="grid" unit="K"/>
             <event name="hold" action="hold"/>
             <event name="kill" action="kill-once"/>
             <resilience epe_respawn="1"/>
           </damaris>"#,
    )
    .unwrap();
    let fired = Arc::new(AtomicU64::new(0));
    let gate = Arc::new(std::sync::Barrier::new(2));
    let runtime = NodeRuntime::start_with_backend(
        cfg,
        4,
        Arc::new(LocalDirBackend::new(&dir).unwrap()),
        0,
        vec![
            ("hold".to_string(), hold_factory(&gate)),
            ("kill-once".to_string(), kill_once_factory(&fired)),
        ],
    )
    .unwrap();
    let clients = runtime.clients();
    let payload = |it: u32, rank: u32| -> Vec<f32> {
        (0..256)
            .map(|i| (it * 10_000 + rank * 1000 + i) as f32)
            .collect()
    };
    // Ring order, all taken in one pass once the core is let go: both
    // iterations whole in every ring, then K in rank 0's — a user event,
    // handled at the end of the pass — with no quiet pass between, so the
    // core dies with iterations 0 and 1 parked.
    clients[0].signal("hold", 0).unwrap();
    gate.wait();
    for it in 0..2u32 {
        for client in &clients {
            client
                .write_f32("theta", it, &payload(it, client.id()))
                .unwrap();
        }
        for client in &clients {
            client.end_iteration(it).unwrap();
        }
    }
    clients[0].signal("kill", 1).unwrap();
    gate.wait();
    let report = runtime
        .finish()
        .expect("respawned server completes the run");

    assert_eq!(fired.load(Ordering::SeqCst), 1);
    assert_eq!(report.epe_respawns, 1);
    // The eight writes were resident when the core died and are adopted
    // again; every end-of-iteration had been counted and retired (a fired
    // iteration does not fire again on replay — `Terminate` flushes it).
    assert_eq!(report.events_replayed, 8);
    assert_eq!(report.stale_events_rejected, 0);
    // The dead core committed nothing: the only batch, and the only
    // manifest publish, is the respawned core's — of both iterations.
    assert_eq!(report.commit_batches, 1);
    assert_eq!(report.manifest_publishes, 1);
    assert_eq!(report.iterations_degraded, 0);
    assert_eq!(clients[0].buffer_in_use(), 0, "leaked shared memory");

    for it in 0..2u32 {
        let reader =
            damaris_format::SdfReader::open(dir.join(format!("node-0/iter-{it:06}.sdf"))).unwrap();
        reader.validate().unwrap();
        for rank in 0..4u32 {
            let path = format!("/iter-{it}/rank-{rank}/theta");
            assert_eq!(reader.read_f32(&path).unwrap(), payload(it, rank));
        }
    }
    let manifest = damaris_fs::Manifest::load(&dir).unwrap();
    assert_eq!((manifest.generation, manifest.entries.len()), (2, 2));
    let scan = damaris_fs::recover_dir(&dir).unwrap();
    assert_eq!(scan.valid.len(), 2);
    assert!(scan.quarantined.is_empty(), "{scan:?}");
    let left: Vec<_> = std::fs::read_dir(dir.join("node-0"))
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .filter(|n| n.to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(left.is_empty(), "temporary files left behind: {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Heartbeat staleness under the `block` policy: when the dedicated core
/// dies and no respawn budget remains, a blocked client surfaces
/// [`DamarisError::EpeUnavailable`] with the node and last epoch attached
/// instead of hanging until the block timeout lies to it.
#[test]
fn stale_heartbeat_block_policy_reports_epe_unavailable() {
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="4096"/>
             <layout name="big" type="real" dimensions="768"/>
             <variable name="a" layout="big"/>
             <variable name="b" layout="big"/>
             <event name="boom" action="kill-once"/>
             <resilience backpressure="block" timeout_ms="900"
                         heartbeat_timeout_ms="200"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("stale-block");
    let fired = Arc::new(AtomicU64::new(0));
    let runtime = NodeRuntime::start_with_backend(
        cfg,
        1,
        Arc::new(LocalDirBackend::new(&dir).unwrap()),
        0,
        vec![("kill-once".to_string(), kill_once_factory(&fired))],
    )
    .unwrap();
    let client = runtime.clients().remove(0);
    // Kill the server (epe_respawn defaults to 0: no successor will come).
    client.signal("boom", 0).unwrap();
    // Space for this one lands fine — allocation never needs the server.
    client.write_f32("a", 0, &[1.0; 768]).unwrap();
    // This one can never be satisfied; the heartbeat goes stale ~200ms in
    // and the block policy parks for a new epoch that never arrives.
    let t0 = std::time::Instant::now();
    let err = client.write_f32("b", 0, &[2.0; 768]).unwrap_err();
    match err {
        DamarisError::EpeUnavailable { node_id, epoch } => {
            assert_eq!(node_id, 0);
            assert_eq!(epoch, 0);
        }
        other => panic!("expected EpeUnavailable, got {other}"),
    }
    // It waited out the full block budget hoping for a respawn…
    assert!(t0.elapsed() >= std::time::Duration::from_millis(700));
    // …and the failed run still reports the crash, not a clean exit.
    let run_err = runtime.finish().unwrap_err();
    assert!(run_err.to_string().contains("synthetic"), "{run_err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Heartbeat staleness under `sync-fallback`: writes divert to storage
/// immediately once the dedicated core is presumed dead, and the liveness
/// trigger is counted separately from ordinary buffer-full fallbacks.
#[test]
fn stale_heartbeat_sync_fallback_diverts_and_counts() {
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="4096"/>
             <layout name="big" type="real" dimensions="768"/>
             <variable name="a" layout="big"/>
             <variable name="b" layout="big"/>
             <event name="boom" action="kill-once"/>
             <resilience backpressure="sync-fallback" heartbeat_timeout_ms="150"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("stale-sync");
    let fired = Arc::new(AtomicU64::new(0));
    let runtime = NodeRuntime::start_with_backend(
        cfg,
        1,
        Arc::new(LocalDirBackend::new(&dir).unwrap()),
        0,
        vec![("kill-once".to_string(), kill_once_factory(&fired))],
    )
    .unwrap();
    let client = runtime.clients().remove(0);
    client.signal("boom", 0).unwrap(); // server dies, heartbeat freezes
    client.write_f32("a", 0, &[1.0; 768]).unwrap(); // fills the buffer

    // How each write was diverted, as (written through, of those because
    // the heartbeat was stale). The second number moves only on the arm a
    // failed reservation takes when it finds the heartbeat flat past the
    // window — which it looks at before it looks at the grace deadline.
    let diverted = || {
        let snap = runtime.metrics_snapshot();
        (
            snap.counter("node.sync_fallback_writes"),
            snap.counter("node.heartbeat_stale_observed"),
        )
    };
    // First diversion: ordinary buffer-full fallback (grace expires before
    // the liveness window does); it also primes the staleness tracker.
    client.write_f32("b", 0, &[2.0; 768]).unwrap();
    assert_eq!(diverted(), (1, 0), "waited out the grace, not yet stale");
    std::thread::sleep(std::time::Duration::from_millis(250));
    // Second diversion: the heartbeat has now been flat past the window —
    // the client sheds to storage on the *first* failed reservation, not
    // after the grace: the stale arm, not the timed-out one. (A bound on
    // the call's wall time said the same until the write-through's fsync
    // met a busy disk.)
    client.write_f32("b", 1, &[3.0; 768]).unwrap();
    assert_eq!(diverted(), (2, 1), "diverted by the stale heartbeat");

    // Both payloads reached storage through the write-through path, fully
    // readable (the run itself ends in the synthetic crash error).
    for (iter, val) in [(0u32, 2.0f32), (1, 3.0)] {
        let path = dir.join(format!("sync-fallback/rank-0/iter-{iter:06}-b.sdf"));
        let reader = damaris_format::SdfReader::open(&path).unwrap();
        reader.validate().unwrap();
        assert_eq!(
            reader.read_f32(&format!("/iter-{iter}/rank-0/b")).unwrap(),
            [val; 768]
        );
    }
    let run_err = runtime.finish().unwrap_err();
    assert!(run_err.to_string().contains("synthetic"), "{run_err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A *panicking* (not erroring) dedicated core is also respawned, and the
/// run completes: the supervisor's poisoned-thread path works too.
#[test]
fn panicked_epe_is_respawned_within_budget() {
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="262144"/>
             <layout name="grid" type="real" dimensions="64"/>
             <variable name="v" layout="grid"/>
             <event name="panic" action="panic-once"/>
             <resilience epe_respawn="2" plugin_quarantine="0"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("panic-respawn");
    let fired = Arc::new(AtomicU64::new(0));
    let fired2 = Arc::clone(&fired);
    let factory: PluginFactory = Box::new(move |_| {
        Ok(Box::new(PanicOnce {
            fired: Arc::clone(&fired2),
        }) as Box<dyn Plugin>)
    });
    let runtime = NodeRuntime::start_with_backend(
        cfg,
        1,
        Arc::new(LocalDirBackend::new(&dir).unwrap()),
        0,
        vec![("panic-once".to_string(), factory)],
    )
    .unwrap();
    let client = runtime.clients().remove(0);
    client.write_f32("v", 0, &[5.0; 64]).unwrap();
    client.signal("panic", 0).unwrap(); // thread dies by panic
    client.end_iteration(0).unwrap();
    let report = runtime.finish().expect("respawn absorbs the panic");
    assert_eq!(report.epe_respawns, 1);
    assert_eq!(report.iterations_persisted, 1);
    let reader = damaris_format::SdfReader::open(dir.join("node-0/iter-000000.sdf")).unwrap();
    assert_eq!(reader.read_f32("/iter-0/rank-0/v").unwrap(), [5.0; 64]);
    std::fs::remove_dir_all(&dir).ok();
}
