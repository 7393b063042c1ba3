//! In-situ query demo: run a small CM1-style simulation through the
//! threaded node, then (and concurrently) interrogate its output with
//! the `damaris-query` read tier — the "connect analysis tools to the
//! dedicated cores" direction from the paper's conclusion.
//!
//! ```text
//! cm1_query [--dir DIR] [--iterations N] [--clients N]
//! ```
//!
//! The binary writes `N` iterations of a `theta` field through the
//! client→shm→EPE→persist path while a reader thread follows the
//! manifest with a `QueryEngine`: it prints the newest iteration's
//! per-rank means as soon as each iteration is published (a live
//! probe), and finishes with a range query over the last few
//! iterations plus the cache/pruning counters.

use damaris_core::{Config, NodeRuntime};
use damaris_query::{QueryConfig, QueryEngine, RangeQuery};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const POINTS: usize = 512;

fn usage() -> ExitCode {
    eprintln!("usage: cm1_query [--dir DIR] [--iterations N] [--clients N]");
    ExitCode::FAILURE
}

fn mean(bytes: &[u8]) -> f64 {
    let values: Vec<f64> = bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

fn main() -> ExitCode {
    let mut dir = std::env::temp_dir().join(format!("cm1-query-{}", std::process::id()));
    let mut iterations: u32 = 20;
    let mut clients: usize = 4;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match (args[i].as_str(), args.get(i + 1)) {
            ("--dir", Some(v)) => dir = v.into(),
            ("--iterations", Some(v)) => match v.parse() {
                Ok(n) => iterations = n,
                Err(_) => return usage(),
            },
            ("--clients", Some(v)) => match v.parse() {
                Ok(n) => clients = n,
                Err(_) => return usage(),
            },
            _ => return usage(),
        }
        i += 2;
    }

    let cfg = Config::from_xml(&format!(
        r#"<damaris>
             <buffer size="16777216" allocator="partition" queue="256"/>
             <layout name="slab" type="double" dimensions="{POINTS}"/>
             <variable name="theta" layout="slab" unit="K"/>
           </damaris>"#
    ))
    .expect("embedded config is valid");
    let runtime = match NodeRuntime::start(cfg, clients, &dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cm1_query: start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let engine = match QueryEngine::open(&dir, QueryConfig::default()) {
        Ok(e) => Arc::new(e),
        Err(e) => {
            eprintln!("cm1_query: engine: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The live probe: follow the manifest and report each iteration's
    // per-rank mean as soon as the EPE publishes it.
    let stop = Arc::new(AtomicBool::new(false));
    let probe = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let clients = clients as u32;
        std::thread::spawn(move || {
            let mut reported: Option<u32> = None;
            while !stop.load(Ordering::Acquire) {
                let Ok(snap) = engine.refresh() else {
                    continue;
                };
                let Some(max) = snap.max_iteration() else {
                    std::thread::yield_now();
                    continue;
                };
                if reported == Some(max) {
                    std::thread::yield_now();
                    continue;
                }
                let mut means = Vec::new();
                for rank in 0..clients {
                    if let Ok(Some(block)) = engine.lookup(&snap, "theta", max, rank) {
                        means.push(format!("r{rank}={:.1}", mean(&block)));
                    }
                }
                if !means.is_empty() {
                    println!("[live] iteration {max}: {}", means.join(" "));
                    reported = Some(max);
                }
            }
        })
    };

    // The simulation: a drifting temperature field per rank.
    let handles = runtime.clients();
    for it in 0..iterations {
        for (rank, client) in handles.iter().enumerate() {
            let field: Vec<f64> = (0..POINTS)
                .map(|p| 300.0 + f64::from(it) + rank as f64 * 0.5 + (p as f64).sin())
                .collect();
            if let Err(e) = client.write_f64("theta", it, &field) {
                eprintln!("cm1_query: write: {e}");
                return ExitCode::FAILURE;
            }
        }
        for client in &handles {
            if let Err(e) = client.end_iteration(it) {
                eprintln!("cm1_query: end_iteration: {e}");
                return ExitCode::FAILURE;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    if let Err(e) = runtime.finish() {
        eprintln!("cm1_query: finish: {e}");
        return ExitCode::FAILURE;
    }
    stop.store(true, Ordering::Release);
    probe.join().expect("probe thread");

    // Post-hoc: a window query over the last three iterations.
    let snap = engine.refresh().expect("final refresh");
    let last = snap.max_iteration().unwrap_or(0);
    let window = (last.saturating_sub(2), last);
    match engine.range(
        &snap,
        &RangeQuery {
            variable: "theta",
            iterations: window,
            sources: None,
            rows: None,
        },
    ) {
        Ok(hits) => {
            println!(
                "[window] iterations {}..={}: {} blocks",
                window.0,
                window.1,
                hits.len()
            );
            for hit in hits {
                println!(
                    "  it {} rank {}: mean {:.2} ({} B)",
                    hit.iteration,
                    hit.source,
                    mean(&hit.data),
                    hit.data.len()
                );
            }
        }
        Err(e) => {
            eprintln!("cm1_query: range: {e}");
            return ExitCode::FAILURE;
        }
    }
    let stats = engine.cache_stats();
    println!(
        "[cache] hits {} misses {} declined {} evictions {} resident {} B",
        stats.hits, stats.misses, stats.declined, stats.evictions, stats.resident_bytes
    );
    std::fs::remove_dir_all(&dir).ok();
    ExitCode::SUCCESS
}
