//! Read-while-append chaos test: a real node runtime appends iterations
//! through the EPE while many reader threads run point and range queries
//! against the same directory through the manifest snapshot protocol.
//!
//! The acceptance property (ISSUE 9): every block any reader observed,
//! at any moment during the run, is byte-identical to what a post-hoc
//! full `SdfReader` pass over the sealed files returns. Readers may lag
//! (see fewer iterations than the writer has sealed) but never see torn,
//! partial, or stale-mixed data.

use damaris_core::{Config, NodeRuntime};
use damaris_format::SdfReader;
use damaris_query::{QueryConfig, QueryEngine, RangeQuery};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const ITERS: u32 = 30;
const CLIENTS: u32 = 4;
const READERS: usize = 8;
const POINTS: usize = 64;

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("damaris-query-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Deterministic per-(iteration, rank) payload.
fn payload(iteration: u32, rank: u32) -> Vec<f64> {
    (0..POINTS)
        .map(|i| f64::from(iteration) * 10_000.0 + f64::from(rank) * 100.0 + i as f64)
        .collect()
}

/// One observation a reader made mid-append.
struct Seen {
    iteration: u32,
    source: u32,
    bytes: Vec<u8>,
}

#[test]
fn readers_see_byte_identical_blocks_while_epe_appends() {
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="1048576" allocator="partition" queue="64"/>
             <layout name="grid" type="double" dimensions="64"/>
             <variable name="field" layout="grid"/>
           </damaris>"#,
    )
    .expect("config");
    let dir = scratch("rwa");
    let runtime = NodeRuntime::start(cfg, CLIENTS as usize, &dir).expect("runtime");

    let engine = Arc::new(
        QueryEngine::open(
            &dir,
            QueryConfig {
                cache_bytes: 4 << 20,
            },
        )
        .expect("engine"),
    );
    let stop = Arc::new(AtomicBool::new(false));

    let mut readers = Vec::new();
    for reader_id in 0..READERS {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut seen: Vec<Seen> = Vec::new();
            let mut round = 0u32;
            // Keep querying until the writer is done AND we have seen
            // data, so every reader contributes at least one check.
            while !stop.load(Ordering::Acquire) || seen.is_empty() {
                round += 1;
                let snap = match engine.refresh() {
                    Ok(s) => s,
                    Err(e) => panic!("refresh must stay clean mid-append: {e}"),
                };
                let Some(max) = snap.max_iteration() else {
                    std::thread::yield_now();
                    continue;
                };
                // Point probe at a rotating coordinate.
                let it = (round + reader_id as u32) % (max + 1);
                let src = (round + reader_id as u32 / 2) % CLIENTS;
                if let Some(block) = engine.lookup(&snap, "field", it, src).expect("lookup") {
                    seen.push(Seen {
                        iteration: it,
                        source: src,
                        bytes: block.to_vec(),
                    });
                }
                // Range probe over a small trailing window, all sources.
                let lo = max.saturating_sub(2);
                let hits = engine
                    .range(
                        &snap,
                        &RangeQuery {
                            variable: "field",
                            iterations: (lo, max),
                            sources: None,
                            rows: None,
                        },
                    )
                    .expect("range");
                for hit in hits {
                    seen.push(Seen {
                        iteration: hit.iteration,
                        source: hit.source,
                        bytes: hit.data.to_vec(),
                    });
                }
            }
            seen
        }));
    }

    // The writer: CLIENTS ranks appending ITERS iterations through the
    // real client→shm→EPE→persist path, with a small gap so readers
    // observe many intermediate manifest generations.
    {
        let clients = runtime.clients();
        for it in 0..ITERS {
            for (rank, client) in clients.iter().enumerate() {
                client
                    .write_f64("field", it, &payload(it, rank as u32))
                    .expect("write");
            }
            for client in &clients {
                client.end_iteration(it).expect("end iteration");
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    let report = runtime.finish().expect("finish");
    assert_eq!(report.iterations_degraded, 0, "no degraded iterations");
    stop.store(true, Ordering::Release);

    let mut observed = 0usize;
    let mut per_reader = Vec::new();
    let mut all: Vec<Seen> = Vec::new();
    for handle in readers {
        let seen = handle.join().expect("reader thread");
        per_reader.push(seen.len());
        observed += seen.len();
        all.extend(seen);
    }
    assert!(
        per_reader.iter().all(|&n| n > 0),
        "every reader observed data: {per_reader:?}"
    );
    assert!(observed > READERS, "readers observed {observed} blocks");

    // Post-hoc ground truth: a full, independent SdfReader pass over
    // each sealed file. Every mid-append observation must match its
    // bytes exactly (and, transitively, the deterministic payload).
    for seen in &all {
        let path = dir.join(format!("node-0/iter-{:06}.sdf", seen.iteration));
        let reader = SdfReader::open(&path).expect("post-hoc open");
        let truth = reader
            .read_bytes(&format!(
                "/iter-{}/rank-{}/field",
                seen.iteration, seen.source
            ))
            .expect("post-hoc read");
        assert_eq!(
            seen.bytes, truth,
            "iteration {} source {} diverged from post-hoc read",
            seen.iteration, seen.source
        );
        let expected: Vec<u8> = payload(seen.iteration, seen.source)
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        assert_eq!(seen.bytes, expected, "payload content");
    }

    // The final snapshot covers everything the writer sealed.
    let snap = engine.refresh().expect("final refresh");
    assert_eq!(snap.max_iteration(), Some(ITERS - 1));
    std::fs::remove_dir_all(&dir).ok();
}
