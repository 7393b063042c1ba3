//! Nightly wide sweep: run many seeded scenarios and archive every
//! failure as a reproducible artifact.
//!
//! ```text
//! cargo run -p damaris-chaos --bin chaos_sweep            # fresh seeds
//! CHAOS_SEED=7 cargo run -p damaris-chaos --bin chaos_sweep
//! CHAOS_SWEEP_COUNT=200 CHAOS_SWEEP_OUT=artifacts cargo run -p damaris-chaos --bin chaos_sweep
//! ```
//!
//! `CHAOS_SEED` fixes the *base* seed (the sweep runs `base..base+count`,
//! so CI can pin a reproducible nightly range); otherwise the base is
//! time-derived and printed. Every failing seed writes
//! `<out>/chaos-seed-<seed>.json` holding the generated scenario, the
//! violated invariants, and the reproduction command. Exit status is the
//! number of failing seeds (capped at 101), so CI fails loudly.

use damaris_chaos::{run_scenario, seed_from_env, Scenario};
use std::path::PathBuf;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(default)
}

fn main() {
    let base = seed_from_env();
    let count = env_u64("CHAOS_SWEEP_COUNT", 20).max(1);
    let out_dir = PathBuf::from(
        std::env::var("CHAOS_SWEEP_OUT").unwrap_or_else(|_| "chaos-failures".to_string()),
    );
    println!(
        "chaos sweep: seeds {base}..{} (CHAOS_SEED={base})",
        base + count
    );

    let mut failures = 0u64;
    for seed in base..base + count {
        let scenario = Scenario::generate(seed);
        match run_scenario(&scenario) {
            Ok(_) => println!(
                "seed {seed}: ok ({} iterations, policy {}, {} actions)",
                scenario.iterations,
                scenario.policy.as_xml(),
                scenario.actions.len()
            ),
            Err(error) => {
                failures += 1;
                eprintln!("seed {seed}: FAILED\n{error}");
                let artifact = serde_json::json!({
                    "seed": seed,
                    "reproduce": format!("CHAOS_SEED={seed} cargo test -p damaris-chaos"),
                    "scenario": scenario.describe(),
                    "error": error,
                });
                if std::fs::create_dir_all(&out_dir).is_ok() {
                    let path = out_dir.join(format!("chaos-seed-{seed}.json"));
                    let body = serde_json::to_string_pretty(&artifact)
                        .unwrap_or_else(|_| format!("{artifact:?}"));
                    match std::fs::write(&path, body) {
                        Ok(()) => eprintln!("  archived {}", path.display()),
                        Err(e) => eprintln!("  could not archive artifact: {e}"),
                    }
                }
            }
        }
    }

    if failures == 0 {
        println!("chaos sweep: all {count} seeds passed");
    } else {
        eprintln!(
            "chaos sweep: {failures}/{count} seeds FAILED (artifacts in {})",
            out_dir.display()
        );
    }
    std::process::exit(failures.min(101) as i32);
}
