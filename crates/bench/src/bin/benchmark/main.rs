//! The repo's benchmark: four workloads against the threaded Damaris node
//! (`NodeRuntime` + `DamarisClient` + `QueryEngine`), driven from outside
//! through public functions only. See `README.md` beside this file for
//! every metric and workload, and the root `BENCHMARK.json` for the
//! contract (command, bounds) a change is judged by.
//!
//! ```text
//! benchmark                                   all four workloads, untraced
//! benchmark --workload steady                 one workload
//! benchmark --workload steady --trace 1       its traced pass (per-layer numbers)
//! benchmark --selfcheck                       every workload twice, A/A differences vs bounds
//! options: --seed N (default 1)  --seconds S (default 20)
//! ```
//!
//! With `--workload`, the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! non-zero when any read-back mismatched, any wait timed out, or the
//! node reported a degraded, dropped or quarantined operation.

mod contract;
mod gen;
mod host;
mod layers;
mod run;
mod selfcheck;
mod stats;
mod trace;
mod workload;

use host::{Pinning, Probes};
use run::{PassResult, PassSpec};
use stats::Series;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Pacing, Workload, WORKLOADS};

/// Default `--seconds`; equals `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u32 = 20;
/// Node instances an untraced run spreads a workload's iterations over,
/// one after the other. Every end-to-end timing is the median over the
/// instances, and `setup_s` the median of their set-ups.
const INSTANCES: u32 = 8;
/// The traced pass runs this fraction of the workload's iterations on one
/// node, and an untraced pass of the same length gives it a baseline.
const TRACED_FRACTION: u32 = 4;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile, when it is one.
    pub samples: Option<usize>,
}

impl Metric {
    /// The unit comes from the contract, which must know the name.
    pub fn new(name: &str, value: f64, samples: Option<usize>) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: contract::unit_of(name),
            samples,
        }
    }

    fn render(&self) -> String {
        let samples = self.samples.map_or(String::new(), |n| format!(" n={n}"));
        format!("metric {} {} {}{samples}", self.name, self.value, self.unit)
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    pub selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selfcheck: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Removes the pass's output directory when the workload ends, however
/// it ends.
struct OutputDir(PathBuf);

impl OutputDir {
    /// `target/benchmark/<workload>-<pid>` under the working directory.
    fn create(workload: &str) -> Result<OutputDir, String> {
        let dir = Path::new("target")
            .join("benchmark")
            .join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(OutputDir(dir))
    }
}

impl Drop for OutputDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Selects one timing series of a pass.
type Pick = fn(&run::Samples) -> &Vec<u64>;

/// Median of one timing series: inside each node instance, then over the
/// instances.
fn timing_p50(name: &str, passes: &[PassResult], pick: Pick, per_unit: f64) -> Metric {
    let series: Vec<&[u64]> = passes.iter().map(|r| pick(&r.samples).as_slice()).collect();
    let samples = series.iter().map(|s| s.len()).sum();
    Metric::new(name, stats::across(&series, 0.5) / per_unit, Some(samples))
}

/// The two delays a user sees that are per-layer metrics all the same:
/// their run-to-run spread is beyond any bound the benchmark contract
/// allows (README.md, "Measured spread"). Every untraced run prints them.
pub fn unbounded_delays(passes: &[PassResult]) -> [Metric; 2] {
    [
        timing_p50(
            "time_to_queryable_p50_ms",
            passes,
            |s| &s.time_to_queryable,
            1e6,
        ),
        timing_p50("query_history_p50_us", passes, |s| &s.query_history, 1e3),
    ]
}

/// The seven end-to-end metrics of one untraced run.
fn end_to_end(w: &Workload, passes: &[PassResult]) -> Vec<Metric> {
    let timing = |name: &str, pick: Pick, per_unit: f64| timing_p50(name, passes, pick, per_unit);
    let per_instance = |value: &dyn Fn(&PassResult) -> f64| -> f64 {
        stats::median(&passes.iter().map(value).collect::<Vec<f64>>())
    };
    let durable = per_instance(&|r| match w.pacing {
        Pacing::Period(_) => {
            r.measured_user_bytes as f64 / 1e6 / (r.measured_wall_ns.max(1) as f64 / 1e9)
        }
        Pacing::Bursts { iterations } => stats::burst_median_mb_s(
            u64::from(iterations) * w.iteration_bytes(),
            &r.samples.burst,
        ),
    });
    let stored: u64 = passes.iter().map(|r| r.stored_bytes).sum();
    let user: u64 = passes.iter().map(|r| r.total_user_bytes).sum();
    vec![
        Metric::new(
            "setup_s",
            per_instance(&|r| r.setup_ns as f64 / 1e9),
            Some(passes.len()),
        ),
        timing("write_call_p50_us", |s| &s.write, 1e3),
        timing("io_phase_p50_ms", |s| &s.io_phase, 1e6),
        Metric::new("durable_mb_s", durable, Some(passes.len())),
        timing("query_point_p50_us", |s| &s.query_point, 1e3),
        Metric::new(
            "stored_bytes_per_user_byte",
            stored as f64 / user.max(1) as f64,
            None,
        ),
        Metric::new("peak_rss_mb", host::peak_rss_mb(), None),
    ]
}

/// Tail lines beside the medians: the highest percentile each series,
/// pooled over the instances, supports under the ten-samples-beyond rule.
fn print_tails(passes: &[PassResult]) {
    let picks: [(&str, Pick); 5] = [
        ("write_call", |s| &s.write),
        ("io_phase", |s| &s.io_phase),
        ("time_to_queryable", |s| &s.time_to_queryable),
        ("query_point", |s| &s.query_point),
        ("query_history", |s| &s.query_history),
    ];
    for (name, pick) in picks {
        let pooled: Vec<u64> = passes
            .iter()
            .flat_map(|r| pick(&r.samples).iter().copied())
            .collect();
        let series = Series::new(&pooled);
        match stats::highest_supported(series.len()) {
            Some(p) => println!(
                "tail {name} p{} {} us n={}",
                p * 100.0,
                series.us(p),
                series.len()
            ),
            None => println!(
                "tail {name} none (n={} supports no tail percentile)",
                series.len()
            ),
        }
    }
}

/// Per span name: how many, their total time, and their total self time
/// (span minus the interval its children cover).
fn print_span_table(spans: &[trace::Span]) {
    let mut rows: std::collections::BTreeMap<&str, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(trace::self_times(spans)) {
        let row = rows.entry(span.name).or_default();
        row.0 += 1;
        row.1 += span.end_ns - span.start_ns;
        row.2 += self_ns;
    }
    for (name, (count, total_ns, self_ns)) in rows {
        println!(
            "span {name} count={count} total_ms={:.3} self_ms={:.3}",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
}

fn print_probes(when: &str, p: &Probes) {
    println!(
        "probe {when} host.fsync_probe_p50_us={} host.crc_probe_mb_s={}",
        p.fsync_p50_us, p.crc_mb_s
    );
}

/// The contract's result line.
fn result_json(correct: bool, ops: run::Ops, metrics: &[Metric]) -> String {
    use serde_json::{Map, Value};
    let mut by_name = Map::new();
    for m in metrics {
        let mut entry = Map::new();
        entry.insert("value".into(), Value::from(m.value));
        entry.insert("unit".into(), Value::from(m.unit));
        by_name.insert(m.name.clone(), Value::Object(entry));
    }
    let mut root = Map::new();
    root.insert("correct".into(), Value::from(correct));
    root.insert("attempted".into(), Value::from(ops.attempted));
    root.insert("failed".into(), Value::from(ops.failed));
    root.insert("metrics".into(), Value::Object(by_name));
    Value::Object(root).to_string()
}

/// Runs one workload in this process. Returns whether the run was healthy.
fn run_workload(w: &Workload, args: &Args) -> Result<bool, String> {
    println!(
        "benchmark workload={} seed={} seconds={} trace={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("why {}", w.why);
    let out = OutputDir::create(w.name)?;
    let mut pinning = Pinning::plan();
    let before = Probes::run(&out.0).map_err(|e| format!("probe: {e}"))?;
    print_probes("before", &before);

    // Every pass gets the same share of the run, in whole bursts, rounded
    // to the nearest and at least one.
    let unit = match w.pacing {
        Pacing::Period(_) => 1,
        Pacing::Bursts { iterations } => iterations,
    };
    let split = if args.trace {
        TRACED_FRACTION
    } else {
        INSTANCES
    };
    let units = w.measured_iterations(args.seconds) / unit;
    let measured = ((units + split / 2) / split).max(1) * unit;
    // The reader keeps one descriptor per iteration file.
    let descriptors = u64::from(measured + workload::WARMUP_ITERATIONS) + 64;
    if let Some(limit) = host::open_files_limit().filter(|&limit| limit < descriptors) {
        return Err(format!(
            "open-file limit {limit} is below the {descriptors} this run needs; raise `ulimit -n`"
        ));
    }
    let mut pass = |traced: bool, instance: u32, dir: &Path| {
        run::run_pass(
            &PassSpec {
                workload: w,
                // Every instance writes blocks of its own.
                seed: args.seed.wrapping_add(u64::from(instance) << 32),
                measured_iterations: measured,
                traced,
                out_dir: dir,
            },
            &mut pinning,
        )
    };
    let remove = |dir: &Path| {
        std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))
    };

    let (passes, metrics) = if args.trace {
        let baseline_dir = out.0.join("baseline");
        let baseline = pass(false, 0, &baseline_dir)?;
        remove(&baseline_dir)?;
        let traced_dir = out.0.join("traced");
        let traced = pass(true, 1, &traced_dir)?;
        let trace_file = Path::new("target")
            .join("benchmark")
            .join(format!("trace-{}.json", w.name));
        traced
            .tracer
            .write_json(&trace_file)
            .map_err(|e| format!("write {}: {e}", trace_file.display()))?;
        println!(
            "spans {} written to {}",
            traced.tracer.spans().len(),
            trace_file.display()
        );
        print_span_table(traced.tracer.spans());
        let after = Probes::run(&out.0).map_err(|e| format!("probe: {e}"))?;
        print_probes("after", &after);
        let replay = layers::Replay {
            workload: w,
            seed: args.seed,
            traced: &traced,
            traced_dir: &traced_dir,
            baseline: &baseline,
            probes: (before, after),
            scratch: &out.0.join("replay"),
        };
        let metrics = replay.measure()?;
        (vec![baseline, traced], metrics)
    } else {
        let mut passes = Vec::new();
        for instance in 0..INSTANCES {
            let dir = out.0.join(format!("node-run-{instance}"));
            passes.push(pass(false, instance, &dir)?);
            remove(&dir)?;
        }
        let metrics = end_to_end(w, &passes);
        for m in unbounded_delays(&passes) {
            println!("{}", m.render());
        }
        print_tails(&passes);
        // Exact counts `--selfcheck` holds identical between runs.
        let files: u64 = passes.iter().map(|r| r.report.files_created).sum();
        let bytes: u64 = passes.iter().map(|r| r.report.bytes_stored).sum();
        println!("count fs.files_created {files}");
        println!("count fs.bytes_stored {bytes}");
        let after = Probes::run(&out.0).map_err(|e| format!("probe: {e}"))?;
        print_probes("after", &after);
        (passes, metrics)
    };
    let ops = run::Ops {
        attempted: passes.iter().map(|r| r.ops.attempted).sum(),
        failed: passes.iter().map(|r| r.ops.failed).sum(),
    };
    let correct = passes.iter().all(|r| r.clean);
    println!(
        "mismatches {}",
        passes.iter().map(|r| r.mismatches).sum::<u64>()
    );

    println!("{}", host::describe(&out.0, &pinning));
    for m in &metrics {
        println!("{}", m.render());
        if m.name.starts_with("coverage.") && !(0.8..=1.2).contains(&m.value) {
            println!(
                "warning {} = {:.2} is outside 0.8-1.2: a layer nobody has timed",
                m.name, m.value
            );
        }
    }
    println!("ops_attempted {} ops_failed {}", ops.attempted, ops.failed);
    let healthy = correct && ops.failed == 0;
    println!("{}", result_json(healthy, ops, &metrics));
    Ok(healthy)
}

/// This binary again, for one workload, with `args`' seed, length and
/// tracing: a workload gets a process of its own so `peak_rss_mb` is its.
pub fn child(workload: &str, args: &Args) -> Result<std::process::Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    Ok(command)
}

/// Runs every workload, one process after the other.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut healthy = true;
    for w in &WORKLOADS {
        let status = child(w.name, args)?
            .status()
            .map_err(|e| format!("run {}: {e}", w.name))?;
        healthy &= status.success();
        println!();
    }
    Ok(healthy)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.selfcheck {
            selfcheck::run(&args)
        } else if let Some(name) = &args.workload {
            let w = workload::by_name(name).ok_or_else(|| {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name}; known: {}", known.join(", "))
            })?;
            run_workload(w, &args)
        } else {
            run_all(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
