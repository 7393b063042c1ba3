//! §V-A — "Are all cores really needed for computation?": the closed-form
//! break-even model `p = 100/(N−1)` plus a simulated validation.
//!
//! Paper reference points: with 24 cores per node, p = 4.35 % — under the
//! commonly accepted 5 % I/O share — so dedicating a core wins on ≥24-core
//! nodes even under worst-case assumptions; memory-bus saturation widens
//! the win in practice.

use damaris_bench::*;
use damaris_sim::analysis::{breakeven_io_percent, dedication_wins_model};
use damaris_sim::experiment::run_simulation;
use damaris_sim::Strategy;
use serde_json::json;

fn main() {
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for n in [4, 8, 12, 16, 24, 32, 48, 64] {
        let p = breakeven_io_percent(n);
        rows.push(vec![
            n.to_string(),
            format!("{p:.2}%"),
            if dedication_wins_model(n, 0.05) {
                "yes"
            } else {
                "no"
            }
            .to_string(),
        ]);
        records.push(json!({ "cores_per_node": n, "breakeven_percent": p }));
    }
    print_table(
        "§V-A — break-even I/O share p = 100/(N−1) and the 5%-I/O verdict",
        &["cores/node", "break-even p", "wins at 5% I/O"],
        &rows,
    );
    println!("Paper: p = 4.35% at 24 cores, already below the accepted 5%.");

    // Simulated validation on Kraken at 2304 cores: the model's worst case
    // assumes W_ded = N·W_std, but the measured dedicated write time is far
    // smaller — the practical reason Damaris wins even on 12-core nodes.
    let (platform, workload) = kraken_setup();
    let fpp = run_simulation(
        &platform,
        &workload,
        Strategy::FilePerProcess,
        2304,
        50,
        SEED,
    );
    let dam = run_simulation(&platform, &workload, Strategy::damaris(), 2304, 50, SEED);
    let w_std = fpp.io_time;
    let w_ded = dam.dedicated_write_mean;
    println!(
        "\nSimulated Kraken @2304: W_std = {}, measured W_ded = {} — {:.1}× smaller than the \
         model's worst case N·W_std = {} (§IV-C3 'shown not to be true').",
        fmt_s(w_std),
        fmt_s(w_ded),
        (12.0 * w_std) / w_ded,
        fmt_s(12.0 * w_std),
    );
    println!(
        "Damaris total {} vs file-per-process {} — dedication wins on 12-core nodes in practice.",
        fmt_s(dam.total_time),
        fmt_s(fpp.total_time)
    );
    save_json(
        "analysis_breakeven",
        &json!({
            "rows": records,
            "kraken_2304": {
                "w_std_s": w_std,
                "w_ded_s": w_ded,
                "fpp_total_s": fpp.total_time,
                "damaris_total_s": dam.total_time,
            }
        }),
    );
}
