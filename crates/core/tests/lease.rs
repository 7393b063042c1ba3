//! Client-rank failure containment (liveness leases): a rank that stops
//! renewing its lease is fenced by the dedicated core's sweeper, its
//! shared-memory partition is reclaimed — a segment torn by a kill
//! mid-copy included, which no notice ever names — and the surviving
//! ranks keep flowing under the configured `on_client_failure` policy.
//!
//! The sweeper's deadlines run on the backend's [`IoClock`], so these
//! tests drive a [`VirtualClock`]: lease expiry costs no wall time and the
//! kill points are deterministic.

use damaris_core::{Config, DamarisClient, DamarisError, NodeRuntime};
use damaris_format::SdfReader;
use damaris_fs::{recover_dir, FaultPlan, FaultyBackend, IoClock, LocalDirBackend, VirtualClock};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("damaris-lease-{tag}-{}-{n}", std::process::id()))
}

fn resilient_config(policy: &str) -> Config {
    Config::from_xml(&format!(
        r#"<damaris>
             <buffer size="4194304" allocator="partition" queue="64"/>
             <layout name="grid" type="real" dimensions="512"/>
             <variable name="theta" layout="grid"/>
             <resilience on_client_failure="{policy}" client_lease_timeout_ms="500"/>
           </damaris>"#
    ))
    .unwrap()
}

/// Per-(iteration, rank) payload — varying the bytes matters: a torn
/// `memcpy` into a recycled partition slot could otherwise leave exactly
/// the previous iteration's identical bytes behind, and a torn segment
/// that reached storage would read back as valid.
fn payload(iteration: u32, rank: u32) -> Vec<f32> {
    (0..512)
        .map(|i| (iteration * 100_000 + rank * 1000 + i) as f32)
        .collect()
}

/// Leaves shared memory as a rank killed mid-copy of `theta` does: the
/// segment reserved, the first half of the payload in it, and no notice
/// — the copy comes before the post, so the post never happens. A dead
/// process runs no destructor, so the region is forgotten, not dropped
/// (a drop would post an `Abandon`). Returns the bytes reserved.
fn die_mid_copy(client: &DamarisClient, iteration: u32) -> usize {
    let bytes: Vec<u8> = payload(iteration, client.id())
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let mut region = client.alloc("theta", iteration).unwrap();
    let torn = region.as_mut_slice();
    let half = torn.len() / 2;
    torn[..half].copy_from_slice(&bytes[..half]);
    let reserved = torn.len();
    std::mem::forget(region);
    reserved
}

fn start_virtual(
    policy: &str,
    n_clients: usize,
    dir: &PathBuf,
) -> (NodeRuntime, Arc<VirtualClock>) {
    let clock = Arc::new(VirtualClock::new());
    let backend = Arc::new(
        FaultyBackend::new(LocalDirBackend::new(dir).unwrap(), FaultPlan::new())
            .with_clock(Arc::clone(&clock) as Arc<dyn IoClock>),
    );
    let runtime =
        NodeRuntime::start_with_backend(resilient_config(policy), n_clients, backend, 0, vec![])
            .unwrap();
    (runtime, clock)
}

/// Advances virtual time until the sweeper has fenced a rank (observed
/// through the live `node.client_leases_expired` counter — calling the
/// dead rank's API would *renew* its lease and keep it alive). The
/// `survivors` keep renewing, as live ranks naturally do on every API
/// call — otherwise the sweeper would see *their* snapshots frozen past
/// the deadline and fence them too.
fn wait_for_fence(
    runtime: &NodeRuntime,
    clock: &VirtualClock,
    survivors: &[&damaris_core::DamarisClient],
) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while runtime
        .metrics_snapshot()
        .counter("node.client_leases_expired")
        == 0
    {
        for c in survivors {
            c.renew_lease().unwrap();
        }
        clock.advance(Duration::from_millis(50));
        assert!(
            std::time::Instant::now() < deadline,
            "sweeper never fenced the dead rank"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// S1 regression: a client dropping an uncommitted [`AllocatedRegion`]
/// must NOT release the segment from the compute core. An older write of
/// the same rank is still resident on the server, so a client-side release
/// is out of FIFO order — the old `Drop` impl panicked the partitioned
/// allocator here. The fix posts an `Abandon` and ships the segment to
/// the dedicated core, which releases it with the iteration's flush.
#[test]
fn abandoned_region_defers_release_to_the_dedicated_core() {
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="1048576" allocator="partition" queue="16"/>
             <layout name="grid" type="real" dimensions="512"/>
             <variable name="theta" layout="grid"/>
             <variable name="wind" layout="grid"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("abandon");
    let runtime = NodeRuntime::start(cfg, 1, &dir).unwrap();
    let clients = runtime.clients();
    let client = &clients[0];

    let theta = payload(0, 0);
    client.write_f32("theta", 0, &theta).unwrap();
    // The write above is still resident server-side, so this later
    // allocation sits *behind* it in the partition FIFO.
    let region = client.alloc("wind", 0).unwrap();
    drop(region);
    client.end_iteration(0).unwrap();

    let report = runtime.finish().unwrap();
    assert_eq!(report.iterations_persisted, 1);
    // Both the written and the abandoned segment came back, in order.
    assert_eq!(client.buffer_in_use(), 0);
    // The abandoned region was never committed: only theta persisted.
    let reader = SdfReader::open(dir.join("node-0/iter-000000.sdf")).unwrap();
    assert_eq!(reader.read_f32("/iter-0/rank-0/theta").unwrap(), theta);
    assert!(reader.read_f32("/iter-0/rank-0/wind").is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// The tentpole E2E under `on_client_failure="partial"`: rank 1 of four
/// dies mid-`memcpy` (torn segment, no notification) and leaks a
/// reservation no notice names. The sweeper fences it within the lease
/// window, reclaims its partition — the torn segment with it — the
/// affected iterations persist partially with a presence bitmap the
/// recovery scan reads back, and the survivors run a further full
/// iteration without ever blocking on a full buffer.
#[test]
fn dead_client_is_fenced_reclaimed_and_survivors_keep_flowing() {
    let dir = scratch("partial");
    let (runtime, clock) = start_virtual("partial", 4, &dir);
    let clients = runtime.clients();
    let survivors = [&clients[0], &clients[2], &clients[3]];

    // Iteration 0: everyone completes.
    for c in &clients {
        c.write_f32("theta", 0, &payload(0, c.id())).unwrap();
        c.end_iteration(0).unwrap();
    }

    // Iteration 1: rank 1 tears its write, leaks a reservation, and goes
    // silent; the other three complete normally.
    let torn = die_mid_copy(&clients[1], 1);
    let leaked = clients[1].die_during_alloc("theta").unwrap();
    assert!(leaked > 0);
    for c in survivors {
        c.write_f32("theta", 1, &payload(1, c.id())).unwrap();
        c.end_iteration(1).unwrap();
    }

    wait_for_fence(&runtime, &clock, &survivors);

    // Every API call of the fenced rank now fails fast with its identity.
    assert!(clients[1].renew_lease().is_err());
    match clients[1].write_f32("theta", 2, &payload(2, 1)) {
        Err(DamarisError::ClientFenced { client: 1, .. }) => {}
        other => panic!("expected ClientFenced for rank 1, got {other:?}"),
    }

    // Survivors run a whole further iteration after the death.
    for c in survivors {
        c.write_f32("theta", 2, &payload(2, c.id())).unwrap();
        c.end_iteration(2).unwrap();
    }

    let report = runtime.finish().unwrap();
    assert_eq!(report.iterations_persisted, 3);
    assert_eq!(report.client_leases_expired, 1);
    assert!(
        report.partial_iterations >= 2,
        "iterations 1 and 2 fired without rank 1: {report:?}"
    );
    assert!(
        report.segments_reclaimed as usize >= torn + leaked,
        "reclaim ({}) must cover at least the torn segment ({torn}) and the \
         leaked reservation ({leaked})",
        report.segments_reclaimed
    );
    // Zero leaked bytes: the whole buffer is back, including the dead
    // rank's torn segment, its abandoned reservation, and its partition.
    assert_eq!(clients[0].buffer_in_use(), 0);

    // Iteration 0 holds all four ranks; iteration 1 lost rank 1's data to
    // the kill but kept the survivors'.
    let it0 = SdfReader::open(dir.join("node-0/iter-000000.sdf")).unwrap();
    assert_eq!(it0.read_f32("/iter-0/rank-1/theta").unwrap(), payload(0, 1));
    let it1 = SdfReader::open(dir.join("node-0/iter-000001.sdf")).unwrap();
    assert!(it1.read_f32("/iter-1/rank-1/theta").is_err());
    assert_eq!(it1.read_f32("/iter-1/rank-0/theta").unwrap(), payload(1, 0));

    // The presence bitmap (ranks 0, 2, 3 = 0b1101) round-trips through
    // the recovery scan on both partial files.
    let scan = recover_dir(&dir).unwrap();
    assert!(scan.is_clean());
    let partial: std::collections::BTreeMap<PathBuf, u64> = scan.partial.into_iter().collect();
    assert_eq!(
        partial.get(&PathBuf::from("node-0/iter-000001.sdf")),
        Some(&0b1101)
    );
    assert_eq!(
        partial.get(&PathBuf::from("node-0/iter-000002.sdf")),
        Some(&0b1101)
    );
    assert!(!partial.contains_key(&PathBuf::from("node-0/iter-000000.sdf")));
    std::fs::remove_dir_all(&dir).ok();
}

/// Under `on_client_failure="drop-iteration"` an iteration missing a
/// fenced rank is dropped whole — the operator chose "only complete files"
/// over partial ones. The survivors' resident data for the dropped
/// iteration is still released (no leak), and earlier complete iterations
/// are untouched.
#[test]
fn drop_iteration_policy_discards_incomplete_iterations() {
    let dir = scratch("drop");
    let (runtime, clock) = start_virtual("drop-iteration", 2, &dir);
    let clients = runtime.clients();

    for c in &clients {
        c.write_f32("theta", 0, &payload(0, c.id())).unwrap();
        c.end_iteration(0).unwrap();
    }
    // Iteration 1: rank 1 dies without a trace (no write, no end).
    clients[0].write_f32("theta", 1, &payload(1, 0)).unwrap();
    clients[0].end_iteration(1).unwrap();

    wait_for_fence(&runtime, &clock, &[&clients[0]]);

    let report = runtime.finish().unwrap();
    assert_eq!(report.iterations_persisted, 1);
    assert_eq!(report.client_leases_expired, 1);
    assert!(report.iterations_degraded >= 1, "{report:?}");
    assert_eq!(
        report.partial_iterations, 0,
        "drop policy never fires partially"
    );
    assert_eq!(clients[0].buffer_in_use(), 0);

    assert!(dir.join("node-0/iter-000000.sdf").exists());
    assert!(!dir.join("node-0/iter-000001.sdf").exists());
    assert!(recover_dir(&dir).unwrap().partial.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// Everything that reached storage must be bit-exact — a torn segment
/// never lands, whichever policy handled the death.
fn assert_persisted_bit_exact(dir: &Path, valid: &[PathBuf]) {
    for rel in valid {
        let reader = SdfReader::open(dir.join(rel)).unwrap();
        for name in reader.dataset_names() {
            let got = reader.read_f32(&name).unwrap();
            let rank = if name.contains("rank-1") { 1 } else { 0 };
            let it: u32 = name
                .trim_start_matches("/iter-")
                .split('/')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert_eq!(got, payload(it, rank), "{rel:?} {name}");
        }
    }
}

/// One cell of the CI client-kill matrix (kill phase × failure policy):
/// rank 1 of two dies at iteration 1 of three in the given phase; the
/// survivor completes all three. Asserts the per-policy containment
/// contract — and, for every combination, that nothing torn was persisted
/// and no bytes leak beyond what the policy documents. A kill mid-copy
/// leaves what a kill after `alloc` leaves, a reservation no notice
/// names, so the two phases share their expectations.
fn client_kill_case(policy: &str, phase: usize) {
    let dir = scratch(&format!("matrix-{policy}-{phase}"));
    let (runtime, clock) = start_virtual(policy, 2, &dir);
    let clients = runtime.clients();

    let mut leaked = 0usize;
    for it in 0..3u32 {
        clients[0].write_f32("theta", it, &payload(it, 0)).unwrap();
        clients[0].end_iteration(it).unwrap();
        if it == 0 {
            clients[1].write_f32("theta", it, &payload(it, 1)).unwrap();
            clients[1].end_iteration(it).unwrap();
        } else if it == 1 {
            match phase {
                0 => leaked = clients[1].die_during_alloc("theta").unwrap(),
                1 => leaked = die_mid_copy(&clients[1], it),
                _ => clients[1].write_f32("theta", it, &payload(it, 1)).unwrap(),
            }
        }
    }

    // `wait` keeps no sweeper — the other policies fence the dead rank.
    let sweeping = policy != "wait";
    if sweeping {
        wait_for_fence(&runtime, &clock, &[&clients[0]]);
    }
    let report = runtime.finish().unwrap();
    assert_eq!(report.client_leases_expired, u64::from(sweeping));
    // The wait policy's documented cost: a reservation no notice names, of a
    // dead rank stays leaked (nothing ever fences it). Every other
    // combination returns the full buffer.
    let expected_leak = if !sweeping && phase <= 1 { leaked } else { 0 };
    assert_eq!(
        clients[0].buffer_in_use(),
        expected_leak,
        "policy {policy} phase {phase}"
    );

    let scan = recover_dir(&dir).unwrap();
    assert!(scan.is_clean());
    if policy == "drop-iteration" {
        // Complete iterations persist; the ones the death touched do not.
        assert!(dir.join("node-0/iter-000000.sdf").exists());
        assert!(!dir.join("node-0/iter-000001.sdf").exists());
        assert!(!dir.join("node-0/iter-000002.sdf").exists());
        assert!(report.iterations_degraded >= 2, "{report:?}");
        assert!(scan.partial.is_empty());
    } else {
        assert_eq!(report.iterations_persisted, 3);
        if policy == "partial" {
            let partial: std::collections::BTreeMap<PathBuf, u64> =
                scan.partial.iter().cloned().collect();
            assert_eq!(
                partial.get(&PathBuf::from("node-0/iter-000002.sdf")),
                Some(&0b01),
                "survivor-only bitmap on the post-death iteration"
            );
        } else {
            // wait: iterations only fire complete (here: at shutdown,
            // with the dead rank's taken notices resolved) — no file
            // claims partiality.
            assert!(scan.partial.is_empty());
        }
    }
    assert_persisted_bit_exact(&dir, &scan.valid);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_alloc_under_wait() {
    client_kill_case("wait", 0);
}
#[test]
fn kill_memcpy_under_wait() {
    client_kill_case("wait", 1);
}
#[test]
fn kill_post_commit_under_wait() {
    client_kill_case("wait", 2);
}
#[test]
fn kill_alloc_under_partial() {
    client_kill_case("partial", 0);
}
#[test]
fn kill_memcpy_under_partial() {
    client_kill_case("partial", 1);
}
#[test]
fn kill_post_commit_under_partial() {
    client_kill_case("partial", 2);
}
#[test]
fn kill_alloc_under_drop() {
    client_kill_case("drop-iteration", 0);
}
#[test]
fn kill_memcpy_under_drop() {
    client_kill_case("drop-iteration", 1);
}
#[test]
fn kill_post_commit_under_drop() {
    client_kill_case("drop-iteration", 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// S3: whatever the kill point — during `alloc` (leaked, no notice
    /// naming the reservation), during `memcpy` (torn segment, no notification), or
    /// post-commit (valid data, rank dies before `end_iteration`) — and
    /// whichever iteration it lands on, the node finishes with zero leaked
    /// shared-memory bytes and never persists a torn segment.
    #[test]
    fn random_kill_points_never_leak_or_persist_torn_data(
        phase in 0usize..3,
        kill_at in 0u32..3,
    ) {
        let dir = scratch("prop");
        let (runtime, clock) = start_virtual("partial", 2, &dir);
        let clients = runtime.clients();

        for it in 0..3u32 {
            clients[0].write_f32("theta", it, &payload(it, 0)).unwrap();
            clients[0].end_iteration(it).unwrap();
            if it < kill_at {
                clients[1].write_f32("theta", it, &payload(it, 1)).unwrap();
                clients[1].end_iteration(it).unwrap();
            } else if it == kill_at {
                match phase {
                    0 => {
                        clients[1].die_during_alloc("theta").unwrap();
                    }
                    1 => {
                        die_mid_copy(&clients[1], it);
                    }
                    _ => {
                        // Post-commit kill: the write is whole and valid,
                        // the rank just never ends the iteration.
                        clients[1].write_f32("theta", it, &payload(it, 1)).unwrap();
                    }
                }
            }
        }

        wait_for_fence(&runtime, &clock, &[&clients[0]]);

        let report = runtime.finish().unwrap();
        prop_assert_eq!(report.client_leases_expired, 1);
        prop_assert_eq!(clients[0].buffer_in_use(), 0);

        // Everything that reached storage is bit-exact — a torn segment
        // never lands, whichever path it took.
        let scan = recover_dir(&dir).unwrap();
        prop_assert!(scan.is_clean());
        for rel in &scan.valid {
            let reader = SdfReader::open(dir.join(rel)).unwrap();
            for name in reader.dataset_names() {
                let got = reader.read_f32(&name).unwrap();
                let rank = if name.contains("rank-1") { 1 } else { 0 };
                let it: u32 = name
                    .trim_start_matches("/iter-")
                    .split('/')
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap();
                prop_assert_eq!(got, payload(it, rank));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
