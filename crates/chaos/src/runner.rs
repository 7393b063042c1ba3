//! Executes a [`Scenario`] against a **live** multi-client node and
//! checks the global invariants after it, producing a deterministic
//! [`Transcript`] — the artifact two runs of the same seed must agree on
//! byte for byte.
//!
//! Determinism despite real threads: the runner is *phase-synchronous*.
//! Every injection settles before the next iteration is driven (a squeeze
//! waits for the read-only state, a lift for the recovery, a kill for the
//! fence, an iteration for its modeled fate to be observable in the live
//! counters). The EPE's scheduling freedom is thereby confined to within
//! one phase, where the model already knows the outcome.
//!
//! Global invariants checked at the end of every scenario:
//!
//! 1. **Zero leaked shared memory** — `buffer_in_use() == 0`.
//! 2. **Convergence** — the pressure state is `Normal` once faults lift.
//! 3. **Counters match the model to the digit** — every `NodeReport`
//!    counter the scenario touches equals the generated [`Expectation`],
//!    as do the injector's own fault counts.
//! 4. **The manifest is readable** and every file it references opens
//!    and validates.
//! 5. **No acknowledged write is lost** — every modeled-persisted
//!    iteration's payload reads back byte-identical for every rank that
//!    was alive; every shed iteration left no file behind.
//! 6. **The query tier answered throughout** — a point lookup served
//!    after every iteration, including while the node was read-only.

use crate::scenario::{ActionKind, IterationOutcome, Scenario};
use damaris_core::{NodeRuntime, PressureState};
use damaris_format::SdfReader;
use damaris_fs::{
    DiskSentinel, FaultOp, FaultPlan, FaultyBackend, IoClock, LocalDirBackend, Manifest,
    StorageBackend, VirtualClock,
};
use damaris_query::{QueryConfig, QueryEngine};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a single settle phase may take in wall time before the run
/// is declared hung. Generous: every phase normally settles in
/// milliseconds.
const PHASE_DEADLINE: Duration = Duration::from_secs(30);

/// The deterministic record of one scenario run: one line per observed
/// phase (injections, state transitions, iteration fates, query probes)
/// plus the final counter tally. Contains no timings, pointers, or paths
/// — only model-determined values — so it is stable across runs and
/// machines for a given seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transcript {
    pub lines: Vec<String>,
}

impl Transcript {
    pub fn text(&self) -> String {
        self.lines.join("\n")
    }
}

/// Runs `scenario` end to end. `Ok` carries the transcript; `Err` is a
/// newline-separated list of every violated invariant (the whole check
/// suite runs before reporting, so one failure does not mask the rest).
pub fn run_scenario(scenario: &Scenario) -> Result<Transcript, String> {
    let dir = scratch_dir(scenario.seed);
    let result = run_in(scenario, &dir);
    std::fs::remove_dir_all(&dir).ok();
    result
}

fn scratch_dir(seed: u64) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "damaris-chaos-{seed:016x}-{}-{n}",
        std::process::id()
    ))
}

/// The deterministic payload rank `rank` writes at `iteration` — what
/// invariant 5 reads back from disk.
pub fn payload(iteration: u32, rank: u32) -> Vec<f32> {
    (0..256)
        .map(|i| (iteration * 100_000 + rank * 1_000 + i) as f32)
        .collect()
}

fn payload_bytes(iteration: u32, rank: u32) -> Vec<u8> {
    payload(iteration, rank)
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect()
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + PHASE_DEADLINE;
    while !cond() {
        if Instant::now() >= deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

fn run_in(scenario: &Scenario, dir: &PathBuf) -> Result<Transcript, String> {
    let sentinel = Arc::new(DiskSentinel::unlimited());
    let clock = Arc::new(VirtualClock::new());
    // Scripted commit faults ride the existing FaultPlan, keyed by the
    // commit ordinals the model computed at generation time; sustained
    // faults (squeeze/brownout) are driven directly at their phase.
    let mut plan = FaultPlan::new();
    for action in &scenario.actions {
        match action.kind {
            ActionKind::TransientCommit { commit_ordinal } => {
                plan = plan.fail_nth(FaultOp::Commit, commit_ordinal);
            }
            ActionKind::StallCommit { commit_ordinal, ms } => {
                plan = plan.stall_nth(FaultOp::Commit, commit_ordinal, Duration::from_millis(ms));
            }
            _ => {}
        }
    }
    let inner = LocalDirBackend::new(dir)
        .map_err(|e| format!("backend: {e}"))?
        .with_sentinel(Arc::clone(&sentinel));
    let backend = Arc::new(
        FaultyBackend::new(inner, plan).with_clock(Arc::clone(&clock) as Arc<dyn IoClock>),
    );

    let config = damaris_core::Config::from_xml(&format!(
        r#"<damaris>
             <buffer size="8388608" allocator="partition" queue="128"/>
             <layout name="grid" type="real" dimensions="256"/>
             <variable name="theta" layout="grid"/>
             <resilience on_disk_full="{policy}" on_client_failure="partial"
                         client_lease_timeout_ms="500" heartbeat_timeout_ms="60000"
                         persist_retries="3" retry_base_ms="1"
                         persist_deadline_ms="60000"/>
           </damaris>"#,
        policy = scenario.policy.as_xml(),
    ))
    .map_err(|e| format!("config: {e}"))?;

    let runtime = NodeRuntime::start_with_backend(
        config,
        scenario.clients as usize,
        Arc::clone(&backend) as Arc<dyn StorageBackend>,
        0,
        Vec::new(),
    )
    .map_err(|e| format!("start: {e}"))?;
    let clients = runtime.clients();

    let mut t = Transcript { lines: Vec::new() };
    t.lines.push(format!(
        "scenario seed={} clients={} iterations={} policy={}",
        scenario.seed,
        scenario.clients,
        scenario.iterations,
        scenario.policy.as_xml()
    ));

    let mut dead: Vec<u32> = Vec::new();
    let mut files_expected = 0u64;
    let mut degraded_expected = 0u64;
    let mut held_iterations: Vec<u32> = Vec::new();
    let mut query: Option<QueryEngine> = None;

    let counter = |name: &str| runtime.metrics_snapshot().counter(name);
    let files_on_disk = || {
        backend
            .list_sdf_files()
            .map(|f| f.len() as u64)
            .unwrap_or(u64::MAX)
    };
    // Commit (rename) and manifest publish are two separate steps; the
    // query probe needs the second, so a persisted iteration settles only
    // once the manifest covers it.
    let published = |iteration: u32| {
        Manifest::load(dir)
            .map(|m| m.covers(0, iteration))
            .unwrap_or(false)
    };

    for iteration in 0..scenario.iterations {
        // Apply (and settle) every injection scheduled before this
        // iteration, in timeline order.
        for action in scenario.actions.iter().filter(|a| a.iteration == iteration) {
            match &action.kind {
                ActionKind::SqueezeQuota => {
                    backend.squeeze_no_space(0);
                    wait_for("read-only after squeeze", || {
                        runtime.pressure_state() == PressureState::ReadOnly
                    })?;
                    t.lines.push(format!("squeeze@{iteration} state=read-only"));
                }
                ActionKind::LiftQuota => {
                    backend.lift_no_space();
                    wait_for("recovery after lift", || {
                        runtime.pressure_state() == PressureState::Normal
                    })?;
                    // Block-policy iterations held during the outage fire
                    // now, without any new client event.
                    files_expected += held_iterations.len() as u64;
                    let flushed = std::mem::take(&mut held_iterations);
                    wait_for("held iterations to flush", || {
                        files_on_disk() == files_expected && flushed.iter().all(|&it| published(it))
                    })?;
                    t.lines.push(format!(
                        "lift@{iteration} state=normal files={files_expected}"
                    ));
                }
                ActionKind::StartBrownout { factor } => {
                    backend.start_brownout(*factor);
                    t.lines
                        .push(format!("brownout@{iteration} factor={factor}"));
                }
                ActionKind::LiftBrownout => {
                    backend.lift_brownout();
                    t.lines.push(format!("lift-brownout@{iteration}"));
                }
                ActionKind::TransientCommit { commit_ordinal } => {
                    t.lines.push(format!(
                        "transient-commit@{iteration} ordinal={commit_ordinal}"
                    ));
                }
                ActionKind::StallCommit { commit_ordinal, ms } => {
                    t.lines.push(format!(
                        "stall-commit@{iteration} ordinal={commit_ordinal} ms={ms}"
                    ));
                }
                ActionKind::KillClient { rank } => {
                    dead.push(*rank);
                    let fences = dead.len() as u64;
                    // The dead rank goes silent; survivors keep renewing
                    // (as live ranks do on every API call) while virtual
                    // time advances past the lease window.
                    let deadline = Instant::now() + PHASE_DEADLINE;
                    while counter("node.client_leases_expired") < fences {
                        if Instant::now() >= deadline {
                            return Err(format!("rank {rank} was never fenced"));
                        }
                        for c in &clients {
                            if !dead.contains(&c.id()) {
                                c.renew_lease().map_err(|e| format!("renew: {e}"))?;
                            }
                        }
                        clock.advance(Duration::from_millis(50));
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    t.lines.push(format!("kill rank={rank}@{iteration} fenced"));
                }
            }
        }

        // Drive the iteration: every live rank writes its payload.
        for c in &clients {
            if dead.contains(&c.id()) {
                continue;
            }
            c.write_f32("theta", iteration, &payload(iteration, c.id()))
                .map_err(|e| format!("write iter {iteration} rank {}: {e}", c.id()))?;
            c.end_iteration(iteration)
                .map_err(|e| format!("end iter {iteration} rank {}: {e}", c.id()))?;
        }

        // Settle to the modeled fate.
        match scenario.outcomes[iteration as usize] {
            IterationOutcome::Persisted => {
                files_expected += 1;
                wait_for("iteration to persist", || {
                    files_on_disk() == files_expected && published(iteration)
                })?;
                t.lines.push(format!("iter {iteration}: persisted"));
            }
            IterationOutcome::Shed => {
                degraded_expected += 1;
                wait_for("iteration to shed", || {
                    counter("node.iterations_degraded") == degraded_expected
                })?;
                t.lines.push(format!("iter {iteration}: shed"));
            }
            IterationOutcome::FailFast => {
                degraded_expected += 1;
                wait_for("iteration to fail fast", || {
                    counter("node.iterations_degraded") == degraded_expected
                })?;
                t.lines.push(format!("iter {iteration}: degraded"));
            }
            IterationOutcome::HeldUntilLift => {
                held_iterations.push(iteration);
                t.lines.push(format!("iter {iteration}: held"));
            }
        }

        // Invariant 6, continuously: the read tier answers a known key
        // after every iteration — squeezed, browned out, or fenced.
        if query.is_none() && files_expected > 0 {
            query = Some(
                QueryEngine::open(dir, QueryConfig::default())
                    .map_err(|e| format!("query open: {e}"))?,
            );
        }
        if let Some(engine) = &query {
            let snap = engine
                .refresh()
                .map_err(|e| format!("query refresh at iter {iteration}: {e}"))?;
            let block = engine
                .lookup(&snap, "theta", 0, 0)
                .map_err(|e| format!("query lookup at iter {iteration}: {e}"))?
                .ok_or_else(|| format!("query at iter {iteration}: key vanished"))?;
            if block[..] != payload_bytes(0, 0)[..] {
                return Err(format!("query at iter {iteration}: stale or corrupt bytes"));
            }
            t.lines.push(format!(
                "query@{iteration} ok state={}",
                match runtime.pressure_state() {
                    PressureState::Normal => "normal",
                    PressureState::Degraded => "degraded",
                    PressureState::ReadOnly => "read-only",
                }
            ));
        }
    }

    // ---- end-of-run invariants --------------------------------------
    let mut violations: Vec<String> = Vec::new();

    // 1. Zero leaked shared memory.
    if let Err(e) = wait_for("shared memory to drain", || runtime.buffer_in_use() == 0) {
        violations.push(format!(
            "leaked shm: {e} ({} bytes)",
            runtime.buffer_in_use()
        ));
    }
    // 2. Convergence.
    if runtime.pressure_state() != PressureState::Normal {
        violations.push(format!(
            "not converged: final state {:?}",
            runtime.pressure_state()
        ));
    }

    // 3. Counters match the model to the digit.
    let injected = backend.injected();
    let report = runtime.finish().map_err(|e| format!("finish: {e}"))?;
    let e = &scenario.expect;
    let mut check = |name: &str, got: u64, want: u64| {
        if got != want {
            violations.push(format!("{name}: got {got}, expected {want}"));
        }
    };
    check("iterations_persisted", report.iterations_persisted, e.fired);
    check("files_created", report.files_created, e.files);
    check(
        "iterations_degraded",
        report.iterations_degraded,
        e.degraded,
    );
    check(
        "storage_pressure_sheds",
        report.storage_pressure_sheds,
        e.sheds,
    );
    check("persist_retries", report.persist_retries, e.persist_retries);
    check(
        "storage_pressure_degraded",
        report.storage_pressure_degraded,
        e.pressure_degraded,
    );
    check(
        "storage_pressure_readonly",
        report.storage_pressure_readonly,
        e.pressure_readonly,
    );
    check(
        "storage_pressure_recovered",
        report.storage_pressure_recovered,
        e.pressure_recovered,
    );
    check(
        "client_leases_expired",
        report.client_leases_expired,
        e.leases_expired,
    );
    check(
        "partial_iterations",
        report.partial_iterations,
        e.partial_iterations,
    );
    check(
        "injected.transient_errors",
        injected.transient_errors.load(Ordering::Relaxed),
        e.transient_errors,
    );
    check(
        "injected.stalls",
        injected.stalls.load(Ordering::Relaxed),
        e.stalls,
    );
    check(
        "injected.no_space_activations",
        injected.no_space_activations.load(Ordering::Relaxed),
        e.squeezes,
    );
    check(
        "injected.brownout_activations",
        injected.brownout_activations.load(Ordering::Relaxed),
        e.brownouts,
    );

    // 4. The manifest is readable and everything it references validates.
    match Manifest::load(dir) {
        Ok(manifest) => {
            for entry in &manifest.entries {
                let path = dir.join(&entry.file);
                match SdfReader::open(&path).and_then(|r| r.validate().map(|_| r)) {
                    Ok(_) => {}
                    Err(err) => violations.push(format!(
                        "manifest references unreadable file {}: {err}",
                        entry.file
                    )),
                }
            }
        }
        Err(err) => violations.push(format!("manifest unreadable: {err}")),
    }

    // 5. Acknowledged writes are byte-identical on disk; shed iterations
    // left nothing behind.
    for (i, outcome) in scenario.outcomes.iter().enumerate() {
        let iteration = i as u32;
        let path = dir.join(format!("node-0/iter-{iteration:06}.sdf"));
        let lands = matches!(
            outcome,
            IterationOutcome::Persisted | IterationOutcome::HeldUntilLift
        );
        if !lands {
            if path.exists() {
                violations.push(format!("iteration {iteration} was shed but left a file"));
            }
            continue;
        }
        for rank in 0..scenario.clients {
            if scenario
                .kill
                .is_some_and(|(r, at)| r == rank && iteration >= at)
            {
                continue;
            }
            let read = SdfReader::open(&path)
                .and_then(|r| r.read_f32(&format!("/iter-{iteration}/rank-{rank}/theta")));
            match read {
                Ok(data) if data == payload(iteration, rank) => {}
                Ok(_) => violations.push(format!(
                    "iteration {iteration} rank {rank}: bytes differ from what was acknowledged"
                )),
                Err(err) => violations.push(format!(
                    "iteration {iteration} rank {rank}: unreadable: {err}"
                )),
            }
        }
    }

    t.lines.push(format!(
        "final fired={} files={} degraded={} sheds={} retries={} pressure={}/{}/{} leases={} partial={}",
        report.iterations_persisted,
        report.files_created,
        report.iterations_degraded,
        report.storage_pressure_sheds,
        report.persist_retries,
        report.storage_pressure_degraded,
        report.storage_pressure_readonly,
        report.storage_pressure_recovered,
        report.client_leases_expired,
        report.partial_iterations,
    ));

    if violations.is_empty() {
        Ok(t)
    } else {
        Err(format!(
            "scenario seed={} violated {} invariant(s):\n{}\ntranscript so far:\n{}",
            scenario.seed,
            violations.len(),
            violations.join("\n"),
            t.text()
        ))
    }
}
