//! Figure 7 — write time in the dedicated cores when enabling the
//! compression feature and the data-transfer scheduling strategy, on
//! Kraken (2304 cores) and Grid'5000 (912 cores).
//!
//! Paper reference points: scheduling reduces the dedicated-core write
//! time on both platforms (Kraken aggregate throughput 9.7 → 13.1 GB/s);
//! compression adds overhead on Kraken (CPU-bound) — a storage-vs-time
//! trade-off.

#[allow(unused_imports)]
use damaris_bench::fmt_rate as _keep;
use damaris_bench::*;
use damaris_sim::strategies::DamarisOptions;
use damaris_sim::workload::CompressionModel;
use damaris_sim::{platform, PlatformSpec, Strategy, WorkloadSpec};
use serde_json::json;

fn variants(window: f64) -> Vec<Strategy> {
    // Compression model: the paper's gzip ratio (~1.9×) at the ~60 MB/s a
    // single 2012-era core sustains with zlib. (The `compression_ratios`
    // binary measures this reproduction's own codecs on real data.)
    let comp = CompressionModel {
        ratio: 1.87,
        rate: 60.0e6,
    };
    let mk = |scheduled: bool, compression: Option<CompressionModel>| {
        Strategy::Damaris(DamarisOptions {
            dedicated_per_node: 1,
            scheduled,
            estimated_window: window,
            compression,
        })
    };
    vec![
        mk(false, None),
        mk(true, None),
        mk(false, Some(comp)),
        mk(true, Some(comp)),
    ]
}

fn section(
    title: &str,
    platform: &PlatformSpec,
    workload: &WorkloadSpec,
    ncores: usize,
    window: f64,
    records: &mut Vec<serde_json::Value>,
) {
    let mut rows = Vec::new();
    let mut base_write = 0.0;
    for strategy in variants(window) {
        let s = summarize_phases(platform, workload, &strategy, ncores, SEED);
        if s.strategy == "damaris" {
            base_write = s.dedicated_avg_s;
        }
        let speedup = if base_write > 0.0 {
            format!("{:.2}x", base_write / s.dedicated_avg_s)
        } else {
            "-".to_string()
        };
        rows.push(vec![
            s.strategy.clone(),
            fmt_s(s.dedicated_avg_s),
            fmt_s(s.dedicated_max_s),
            speedup,
        ]);
        records.push(json!({
            "platform": platform.name,
            "ncores": ncores,
            "summary": s.to_json(),
        }));
    }
    print_table(
        title,
        &[
            "variant",
            "ded. write avg",
            "ded. write max",
            "write speedup",
        ],
        &rows,
    );
}

fn main() {
    let mut records = Vec::new();

    let (kraken, kraken_wl) = kraken_setup();
    section(
        "Fig. 7 — dedicated-core write time with compression/scheduling (Kraken, 2304 cores)",
        &kraken,
        &kraken_wl,
        2304,
        210.0, // estimated 50-iteration window (~230 s in the paper)
        &mut records,
    );

    let g5k = platform::grid5000_parapluie();
    let g5k_wl = WorkloadSpec::cm1_grid5000();
    section(
        "Fig. 7 — dedicated-core write time with compression/scheduling (Grid'5000, 912 cores)",
        &g5k,
        &g5k_wl,
        912,
        560.0, // ~20 iterations of ~28 s
        &mut records,
    );

    println!(
        "\nPaper: scheduling cuts the dedicated-core write time on both platforms \
         (Kraken 9.7 → 13.1 GB/s aggregate); compression trades dedicated-core time \
         for a ~1.9× storage reduction (overhead visible on Kraken, hidden from the \
         application either way)."
    );
    save_json("fig7_sparetime_usage", &json!({ "rows": records }));
}
