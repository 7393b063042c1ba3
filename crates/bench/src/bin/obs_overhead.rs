//! Observability overhead gate: what the always-on trace ring adds to a
//! client write call, against a budget stated two ways — **100 ns per
//! span** and **5 % of the call** (the same budget on the reference host,
//! where a call is ≈ 11.5 µs and records five spans).
//!
//! Runs the same 4-client single-node write workload with tracing enabled
//! and disabled (`<observability enabled="false"/>` — the runtime branch,
//! which is what production toggles; the `noop` cargo feature compiles
//! the recorder away entirely and can only be cheaper).
//!
//! Measurement design, tuned so the verdict reflects the hot path and not
//! the host's scheduler or clock state (CI runners can be single-core; the
//! reference host's clock drifts by −9 … +16 % between attempts):
//!
//! * The queue and buffer are sized so a client **never blocks on the
//!   dedicated core** — otherwise "write time" silently measures server
//!   throughput, not the client path the budget is about — and each
//!   iteration is followed by a short compute phase, in which the core
//!   drains, so a client's ring is empty at the next iteration and starts
//!   over in warm memory (without it every 64 KiB write faulted in fresh
//!   buffer pages, and a call was ≈ 32 µs of page faults).
//! * Every call is sampled individually and each round is summarized by
//!   its **median** call time: a timed call that absorbs a scheduler
//!   preemption (milliseconds on a busy core) would dominate a
//!   microsecond-scale mean, while the median tracks the typical call —
//!   which the always-on instrumentation shifts wholesale, so the cost
//!   under test is fully visible in it.
//! * Rounds come in **pairs**, off and on back to back (the order
//!   alternating from pair to pair), and the overhead is the **median of
//!   the per-pair differences**: a slow minute inflates both rounds of a
//!   pair and cancels in their difference, where comparing the best round
//!   of each side compared two different minutes of the host.
//! * The budget is per span first: tracing costs a fixed amount per
//!   recorded span, so making the write cheaper must not fail the gate
//!   when no span got slower, as a per-cent budget alone would. A
//!   measurement fails only when it is over **both** budgets, and then is
//!   retried once from scratch before the gate fails.
//!
//! Prints the comparison always; exits nonzero on a failed gate only when
//! `OBS_GATE=1` is set (the CI `obs` job sets it), so local figure
//! regeneration never fails on a loaded laptop.

use damaris_core::{Config, NodeRuntime};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const CLIENTS: usize = 4;
const ITERATIONS: u32 = 60;
const WRITES_PER_ITER: u32 = 4;
const COMPUTE_PHASE: Duration = Duration::from_millis(2);
const PAIRS: usize = 15;
/// Spans one traced `write` records: `AllocWait`, `Checksum`, `Memcpy`,
/// `QueuePush` and the enclosing `WriteCall` (the journal append is the
/// dedicated core's, recorded on its own timeline).
const SPANS_PER_WRITE: f64 = 5.0;
const BUDGET_NS_PER_SPAN: f64 = 100.0;
const BUDGET_SHARE: f64 = 0.05;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("damaris-obs-overhead-{tag}-{}", std::process::id()))
}

/// One full workload; returns every client write-call time in ns.
fn run_once(enabled: bool, dir: &Path) -> Vec<u64> {
    // Sized so clients never wait on the server: the queue holds every
    // event of the run (4 clients x 60 x (4 writes + 1 end) = 1200) and
    // each client's buffer region (128 MiB / 4) holds every payload it
    // writes (60 x 4 x 64 KiB = 15 MiB), even if the server never drains.
    let cfg = Config::from_xml(&format!(
        r#"<damaris>
             <buffer size="134217728" allocator="partition" queue="2048"/>
             <observability enabled="{enabled}" ring_capacity="8192"/>
             <layout name="block" type="double" dimensions="8192"/>
             <variable name="field" layout="block"/>
           </damaris>"#
    ))
    .expect("valid config");
    let runtime = NodeRuntime::start(cfg, CLIENTS, dir).expect("start node");
    let clients = runtime.clients();
    let data = vec![1.0f64; 8192]; // 64 KiB per write: memcpy-dominated
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for client in clients {
            let samples = &samples;
            let data = &data;
            s.spawn(move || {
                let mut local = Vec::with_capacity((ITERATIONS * WRITES_PER_ITER) as usize);
                for it in 0..ITERATIONS {
                    for _ in 0..WRITES_PER_ITER {
                        let t = Instant::now();
                        client.write_f64("field", it, data).expect("write");
                        local.push(t.elapsed().as_nanos() as u64);
                    }
                    client.end_iteration(it).expect("end iteration");
                    std::thread::sleep(COMPUTE_PHASE);
                }
                samples.lock().expect("samples lock").append(&mut local);
            });
        }
    });
    runtime.finish().expect("clean shutdown");
    std::fs::remove_dir_all(dir).ok();
    samples.into_inner().expect("samples lock")
}

/// Median call time of one round — immune to the scheduler-preemption
/// tail that would dominate a microsecond-scale mean.
fn round_median(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    values[values.len() / 2]
}

/// What tracing added to the median write call.
struct Overhead {
    /// Median of the per-pair differences, ns per call.
    ns_per_call: f64,
    /// Median disabled-round call time, ns: the share's denominator.
    off_ns: f64,
}

impl Overhead {
    fn ns_per_span(&self) -> f64 {
        self.ns_per_call / SPANS_PER_WRITE
    }

    fn share(&self) -> f64 {
        self.ns_per_call / self.off_ns
    }

    fn within_budget(&self) -> bool {
        self.ns_per_span() <= BUDGET_NS_PER_SPAN || self.share() <= BUDGET_SHARE
    }

    fn describe(&self) -> String {
        format!(
            "{:.1} ns per span (budget {BUDGET_NS_PER_SPAN:.0}), {:+.2}% of a {:.0} ns call \
             (budget {:.0}%)",
            self.ns_per_span(),
            self.share() * 100.0,
            self.off_ns,
            BUDGET_SHARE * 100.0
        )
    }
}

/// One full measurement: `PAIRS` off/on pairs, the median difference.
fn measure(attempt: usize) -> Overhead {
    let mut diffs = Vec::with_capacity(PAIRS);
    let mut offs = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        let round = |enabled: bool| {
            let tag = format!("{}-{attempt}-{pair}", if enabled { "on" } else { "off" });
            round_median(&mut run_once(enabled, &scratch(&tag)))
        };
        let (off, on) = if pair % 2 == 0 {
            let off = round(false);
            (off, round(true))
        } else {
            let on = round(true);
            (round(false), on)
        };
        diffs.push(on - off);
        offs.push(off);
    }
    let overhead = Overhead {
        ns_per_call: median(&mut diffs),
        off_ns: median(&mut offs),
    };
    println!(
        "obs overhead: {} — median of {PAIRS} paired off/on rounds, {CLIENTS} clients x \
         {ITERATIONS} iterations x {WRITES_PER_ITER} writes, per-round median call",
        overhead.describe()
    );
    overhead
}

fn main() {
    // Warmup pair: page in the binary, the allocator, and the temp dir.
    run_once(false, &scratch("warm-off"));
    run_once(true, &scratch("warm-on"));

    let mut overhead = measure(0);
    if !overhead.within_budget() {
        eprintln!("note: over both budgets; re-measuring once to rule out a contended run");
        let again = measure(1);
        if again.ns_per_call < overhead.ns_per_call {
            overhead = again;
        }
    }
    if !overhead.within_budget() {
        let gate = std::env::var("OBS_GATE").is_ok_and(|v| v == "1");
        if gate {
            eprintln!(
                "FAIL: tracing overhead {} is over both budgets",
                overhead.describe()
            );
            std::process::exit(1);
        }
        eprintln!(
            "note: tracing overhead {} is over both budgets but OBS_GATE is unset; not failing",
            overhead.describe()
        );
    }
}
