//! `--selfcheck`: an A/A test of the benchmark itself. Each workload runs
//! six times (same code, same seed, a process each) as two interleaved sets
//! of three, A B A B A B; for every end-to-end metric the relative
//! difference of the two sets' medians is printed beside its bound, and the
//! exact counts must be identical in all six runs. The bounds themselves
//! come from series of ten runs with ten seeds (README.md, "Measured
//! spread"), the procedure the benchmark contract prescribes; this is the
//! quick check that the host still behaves as it did then.

use crate::contract::END_TO_END;
use crate::stats;
use crate::workload::WORKLOADS;
use crate::Args;
use std::collections::BTreeMap;

/// Runs in each of the two sets.
const RUNS_PER_SET: usize = 3;

/// One run's output as `name → value`.
type Output = BTreeMap<String, String>;

/// Lines whose values must repeat exactly between two runs of one seed.
const EXACT: [&str; 4] = [
    "stored_bytes_per_user_byte",
    "fs.files_created",
    "fs.bytes_stored",
    "ops_attempted",
];

/// `name → value` from the `metric`, `count` and `ops_attempted` lines of
/// one run's output.
fn parse_output(text: &str) -> Output {
    let mut values = BTreeMap::new();
    for line in text.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["metric" | "count", name, value, ..] => {
                values.insert((*name).to_string(), (*value).to_string());
            }
            ["ops_attempted", attempted, "ops_failed", failed] => {
                values.insert("ops_attempted".into(), (*attempted).to_string());
                values.insert("ops_failed".into(), (*failed).to_string());
            }
            _ => {}
        }
    }
    values
}

/// How much worse `b` is than `a`, as a share of `a`, in the direction
/// that counts as worse for the metric; negative when `b` is better.
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    let change = (b - a) / a;
    if better == "higher" {
        -change
    } else {
        change
    }
}

fn run_once(workload: &str, args: &Args) -> Result<Output, String> {
    let output = crate::child(workload, args)?
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("run {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    Ok(parse_output(&String::from_utf8_lossy(&output.stdout)))
}

/// Median of `name` over the runs of one set.
fn set_median(set: &[Output], workload: &str, name: &str) -> Result<f64, String> {
    let values = set
        .iter()
        .map(|run| {
            let v = run
                .get(name)
                .ok_or_else(|| format!("{workload} did not report {name}"))?;
            v.parse::<f64>().map_err(|e| format!("{name} {v}: {e}"))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(stats::median(&values))
}

/// Returns whether every metric stayed within its bound and every exact
/// count repeated.
pub fn run(args: &Args) -> Result<bool, String> {
    // The untraced pass is the one the bounds are about.
    let args = &Args {
        trace: false,
        ..args.clone()
    };
    let mut ok = true;
    for w in &WORKLOADS {
        let mut sets: [Vec<Output>; 2] = [Vec::new(), Vec::new()];
        for _ in 0..RUNS_PER_SET {
            for set in &mut sets {
                set.push(run_once(w.name, args)?);
            }
        }
        println!("selfcheck {} (medians of {RUNS_PER_SET} runs)", w.name);
        for m in &END_TO_END {
            let a = set_median(&sets[0], w.name, m.name)?;
            let b = set_median(&sets[1], w.name, m.name)?;
            // Either set may be the slow one: an A/A breach is symmetric. A
            // metric that read 0 gives NaN or infinity, a breach as well.
            let diff = worsening(a, b, m.better).abs();
            let breach = diff.is_nan() || diff > m.bound;
            ok &= !breach;
            println!(
                "  {:<28} {:>14.6} {:>14.6} {:<5} diff {:>6.2}%  bound {:>5.1}%{}",
                m.name,
                a,
                b,
                m.unit,
                diff * 100.0,
                m.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
        for name in EXACT {
            let first = sets[0][0].get(name);
            let same = first.is_some() && sets.iter().flatten().all(|run| run.get(name) == first);
            ok &= same;
            println!(
                "  {:<28} {:>14} {}",
                name,
                first.map_or("missing", String::as_str),
                if same {
                    "identical in every run"
                } else {
                    "DIFFERENT between runs"
                }
            );
        }
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_metric_count_and_ops_lines() {
        let text = "benchmark workload=steady seed=1\n\
                    metric setup_s 0.125 s n=5\n\
                    metric durable_mb_s 52.4 MB/s\n\
                    count fs.files_created 1032\n\
                    ops_attempted 21000 ops_failed 0\n\
                    {\"correct\":true}\n";
        let v = parse_output(text);
        assert_eq!(v["setup_s"], "0.125");
        assert_eq!(v["durable_mb_s"], "52.4");
        assert_eq!(v["fs.files_created"], "1032");
        assert_eq!(v["ops_attempted"], "21000");
        assert_eq!(v["ops_failed"], "0");
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn set_median_is_the_middle_run_and_names_what_is_missing() {
        let run = |v: &str| Output::from([("setup_s".to_string(), v.to_string())]);
        let set = [run("0.5"), run("0.1"), run("0.3")];
        assert_eq!(set_median(&set, "steady", "setup_s"), Ok(0.3));
        assert!(set_median(&set, "steady", "durable_mb_s")
            .unwrap_err()
            .contains("steady did not report durable_mb_s"));
        // A metric that read 0 in both sets is not "no difference".
        assert!(worsening(0.0, 0.0, "lower").is_nan());
        assert!(worsening(0.0, 1.0, "lower").is_infinite());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "lower") + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
    }
}
