//! Figure 2 — duration of a write phase on Kraken (average and maximum)
//! for file-per-process, collective-I/O and Damaris, 576 → 9216 cores.
//!
//! Paper reference points: collective I/O reaches ~481 s average / ~800 s
//! max at 9216 cores (~70 % of run time); FPP shows ±17 s spread; Damaris
//! is a flat ~0.2 s with ~0.1 s variability. A misconfigured 32 MB Lustre
//! stripe size doubles the collective time (~1600 s).
//!
//! The per-phase samples are round-tripped through the binary trace
//! format (`target/figures/fig2_jitter.dtrc`), and the table below is
//! printed from the *decoded* file — so `trace-analyze` on that file
//! reproduces these numbers byte-for-byte.

use damaris_bench::*;
use damaris_obs::{read_trace, summarize_phase_samples, EventKind, TraceRecord, TraceWriter};
use damaris_sim::Strategy;
use serde_json::json;

/// One write-phase duration as a `PhaseSample` interchange record:
/// `rank` carries the strategy index, `bytes` the core count,
/// `iteration` the phase. The duration is quantized to integer
/// nanoseconds exactly once, here — every downstream consumer sees the
/// same u64.
fn phase_sample(rank: u32, iteration: u32, bytes: u64, t_ns: u64, dur_s: f64) -> TraceRecord {
    TraceRecord {
        t_ns,
        dur_ns: (dur_s * 1e9).round() as u64,
        bytes,
        rank,
        iteration,
        kind: EventKind::PhaseSample as u16,
        flags: 0,
        pad: 0,
    }
}

fn main() {
    let (platform, workload) = kraken_setup();
    let strategies = standard_strategies();
    let mut records = Vec::new();
    let mut samples: Vec<TraceRecord> = Vec::new();

    for (si, strategy) in strategies.iter().enumerate() {
        for &ncores in &KRAKEN_SCALES {
            let s = summarize_phases(&platform, &workload, strategy, ncores, SEED);
            records.push(s.to_json());
            for (phase, &d) in phase_durations(&platform, &workload, strategy, ncores, SEED)
                .iter()
                .enumerate()
            {
                // Deterministic timeline position: the emission index.
                let t = samples.len() as u64;
                samples.push(phase_sample(si as u32, phase as u32, ncores as u64, t, d));
            }
        }
    }

    let trace_path = figures_dir().join("fig2_jitter.dtrc");
    {
        let file = std::fs::File::create(&trace_path).expect("create trace file");
        let mut w = TraceWriter::new(file).expect("trace header");
        w.write_block(&samples).expect("trace block");
        w.finish().expect("trace trailer");
    }
    let decoded =
        read_trace(std::fs::File::open(&trace_path).expect("open trace")).expect("decode trace");
    assert!(decoded.clean_close, "trace trailer missing");
    let from_file = summarize_phase_samples(&decoded.records);
    assert_eq!(
        from_file,
        summarize_phase_samples(&samples),
        "decoded trace must reproduce the in-memory summary exactly"
    );

    let rows: Vec<Vec<String>> = from_file
        .iter()
        .map(|g| {
            vec![
                strategies[g.rank as usize].label().to_string(),
                g.bytes.to_string(),
                fmt_s(g.mean_s()),
                fmt_s(g.max_ns as f64 / 1e9),
                fmt_s(g.min_ns as f64 / 1e9),
                fmt_s((g.max_ns - g.min_ns) as f64 / 1e9),
            ]
        })
        .collect();
    print_table(
        "Fig. 2 — write-phase duration on Kraken (from the decoded trace)",
        &["strategy", "cores", "avg", "max", "min", "spread"],
        &rows,
    );
    println!(
        "\ntrace: {} ({} phase samples; `trace-analyze` groups them identically)",
        trace_path.display(),
        decoded.records.len()
    );

    // The 32 MB stripe-size misconfiguration (§IV-C1).
    let mut bad = platform.clone();
    bad.fs = bad.fs.with_stripe_size(32 << 20);
    let s_good = summarize_phases(&platform, &workload, &Strategy::CollectiveIo, 9216, SEED);
    let s_bad = summarize_phases(&bad, &workload, &Strategy::CollectiveIo, 9216, SEED);
    println!(
        "\nLustre stripe misconfiguration at 9216 cores: collective-I/O avg {} (1 MB stripes) → {} (32 MB stripes), ×{:.1}",
        fmt_s(s_good.avg_s),
        fmt_s(s_bad.avg_s),
        s_bad.avg_s / s_good.avg_s
    );
    println!(
        "Paper: ~481 s avg / 800 s max at 1 MB; ~1600 s at 32 MB; Damaris flat 0.2 s ± 0.1 s."
    );

    save_json(
        "fig2_jitter",
        &json!({
            "rows": records,
            "stripe_32mb_avg_s": s_bad.avg_s,
            "stripe_1mb_avg_s": s_good.avg_s,
        }),
    );
}
