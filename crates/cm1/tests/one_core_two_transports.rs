//! One dedicated core, two event sources, one oracle: the same writes
//! through the process node (OS processes, a `/dev/shm`-style mapping
//! carrying data and notice rings) and through the threaded node
//! (`NodeRuntime`, in-process queue) must leave the same files, byte for
//! byte, and the same counts —
//! and what the process node leaves is the read tier's to query.

#![cfg(unix)]

use damaris_core::proc::{launch, payload_for, LaunchPlan};
use damaris_core::NodeRuntime;
use damaris_fs::Manifest;
use damaris_query::{QueryConfig, QueryEngine};
use std::path::{Path, PathBuf};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "damaris-two-transports-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `out/node-0/iter-*.sdf` under `out`, by name, with their bytes.
fn iteration_files(out: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(out.join("node-0"))
        .unwrap()
        .map(|entry| entry.unwrap())
        .filter(|entry| entry.path().extension().is_some_and(|e| e == "sdf"))
        .map(|entry| {
            let name = entry.file_name().into_string().unwrap();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn the_process_node_and_the_threaded_node_write_the_same_bytes() {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_cm1_proc"));
    let plan = LaunchPlan::new(exe, tmpdir("proc"), 4);
    let launched = launch(&plan).unwrap();
    assert!(
        launched.epe_ok && launched.failed_ranks.is_empty(),
        "{launched:?}"
    );
    assert_eq!(launched.leaked_bytes, 0);
    assert_eq!(launched.epe_reports.len(), 1);
    let process = &launched.epe_reports[0].node;

    // The same writes, in rank order on one thread: what a file holds does
    // not depend on who got there first.
    let threaded_out = tmpdir("threaded");
    let runtime = NodeRuntime::start(plan.config(), plan.n_clients, &threaded_out).unwrap();
    let clients = runtime.clients();
    for it in 0..plan.iterations {
        for client in &clients {
            for var in 0..plan.variables {
                let payload = payload_for(client.id(), it, var, plan.payload_len);
                client.write(&format!("var{var}"), it, &payload).unwrap();
            }
            client.end_iteration(it).unwrap();
        }
    }
    let threaded = runtime.finish().unwrap();

    let process_out = plan.dir.join("out");
    let written = iteration_files(&process_out);
    assert_eq!(written.len(), plan.iterations as usize);
    assert!(
        written == iteration_files(&threaded_out),
        "the two nodes' files differ"
    );
    let counts = |r: &damaris_core::NodeReport| {
        [
            r.iterations_persisted,
            r.variables_received,
            r.bytes_received,
            r.crc_quarantined,
            r.partial_iterations,
        ]
    };
    assert_eq!(counts(process), counts(&threaded));
    assert_eq!(counts(process), [3, 24, 24 * 512, 0, 0]);

    // And a process node's output is queryable like any other.
    let manifest = Manifest::load(&process_out).unwrap();
    assert_eq!(manifest.entries.len(), 3);
    let engine = QueryEngine::open(&process_out, QueryConfig::default()).unwrap();
    let block = engine.lookup(&engine.snapshot(), "var0", 2, 1).unwrap();
    assert_eq!(
        block.as_deref(),
        Some(&payload_for(1, 2, 0, plan.payload_len))
    );

    let _ = std::fs::remove_dir_all(&plan.dir);
    let _ = std::fs::remove_dir_all(&threaded_out);
}
