//! Compactor crash-safety sweep: abort the compactor at *every*
//! side-effecting step index in turn and prove that, at each kill point,
//! the manifest stays readable, every block stays reachable with correct
//! bytes, and a rerun converges to the fully compacted state.

use damaris_format::{DataType, DatasetOptions, Layout, SdfWriter};
use damaris_fs::manifest::publish_iteration;
use damaris_fs::{EntryKind, Manifest};
use damaris_query::{Compactor, CompactorConfig, QueryConfig, QueryEngine, QueryError};
use std::path::{Path, PathBuf};

const ITERS: u32 = 10;
const SOURCES: u32 = 2;
const POINTS: usize = 512;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("damaris-query-kill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn payload(iteration: u32, source: u32) -> Vec<f64> {
    (0..POINTS)
        .map(|i| f64::from(iteration) * 1e6 + f64::from(source) * 1e3 + i as f64)
        .collect()
}

/// Seeds `root` with ITERS published iteration files for node 0.
fn build_output(root: &Path) {
    for iteration in 0..ITERS {
        let rel = format!("node-0/iter-{iteration:06}.sdf");
        let path = root.join(&rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("node dir");
        let mut writer = SdfWriter::create(&path).expect("create");
        for source in 0..SOURCES {
            writer
                .write_dataset_f64_opts(
                    &format!("/iter-{iteration}/rank-{source}/field"),
                    &Layout::new(DataType::F64, &[POINTS as u64]),
                    &payload(iteration, source),
                    &DatasetOptions::plain().with_coords(iteration, source),
                )
                .expect("write");
        }
        let bytes = writer.finish_synced().expect("finish");
        publish_iteration(root, 0, iteration, &rel, bytes).expect("publish");
    }
}

fn config() -> CompactorConfig {
    CompactorConfig {
        min_batch: 4,
        hot_tail: 2,
        chunk_rows: 64,
    }
}

/// Asserts every written block is reachable and byte-correct through a
/// fresh engine over `root`.
fn assert_all_reachable(root: &Path, context: &str) {
    let engine = QueryEngine::open(root, QueryConfig::default())
        .unwrap_or_else(|e| panic!("{context}: engine must open: {e}"));
    let snap = engine.snapshot();
    for iteration in 0..ITERS {
        for source in 0..SOURCES {
            let block = engine
                .lookup(&snap, "field", iteration, source)
                .unwrap_or_else(|e| panic!("{context}: lookup it {iteration} src {source}: {e}"))
                .unwrap_or_else(|| panic!("{context}: it {iteration} src {source} unreachable"));
            let expected: Vec<u8> = payload(iteration, source)
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            assert_eq!(
                *block, expected,
                "{context}: it {iteration} src {source} bytes"
            );
        }
    }
}

#[test]
fn killing_the_compactor_at_any_step_loses_nothing() {
    // Reference run: count the steps a clean compaction takes.
    let reference = scratch("ref");
    build_output(&reference);
    let compactor = Compactor::new(&reference, config());
    let report = compactor.run_once().expect("clean run");
    assert_eq!(report.batches, vec![(0, 0, 6)], "iterations 0..=6 merged");
    assert!(report.deleted >= 7, "superseded inputs deleted");
    assert_all_reachable(&reference, "reference after compaction");
    let total_steps = compactor.steps_taken();
    assert!(total_steps > 10, "sweep is meaningful: {total_steps} steps");
    std::fs::remove_dir_all(&reference).ok();

    // The sweep: kill at every step index, check invariants, rerun.
    for kill_at in 0..total_steps {
        let root = scratch(&format!("k{kill_at}"));
        build_output(&root);
        let compactor = Compactor::new(&root, config());
        compactor.abort_after(kill_at);
        let err = compactor.run_once().expect_err("armed run must abort");
        assert!(
            matches!(err, QueryError::Injected(_)),
            "kill {kill_at}: unexpected error {err}"
        );
        // Invariant 1: the manifest is readable at every kill point.
        let manifest =
            Manifest::load(&root).unwrap_or_else(|e| panic!("kill {kill_at}: manifest: {e}"));
        assert!(
            !manifest.entries.is_empty(),
            "kill {kill_at}: manifest not empty"
        );
        // Invariant 2: every block is still reachable, byte-correct.
        assert_all_reachable(&root, &format!("kill {kill_at}"));
        // Invariant 3: a rerun converges to the compacted state.
        compactor.clear_fault();
        compactor
            .run_once()
            .unwrap_or_else(|e| panic!("kill {kill_at}: rerun: {e}"));
        assert_all_reachable(&root, &format!("kill {kill_at} after rerun"));
        let healed = Manifest::load(&root).expect("healed manifest");
        assert!(
            healed
                .entries
                .iter()
                .any(|e| matches!(e.kind, EntryKind::Compacted { lo: 0, hi: 6 })),
            "kill {kill_at}: compacted span committed after rerun"
        );
        // The superseded inputs are gone once some run finished cleanly.
        for iteration in 0..=6u32 {
            let rel = format!("node-0/iter-{iteration:06}.sdf");
            assert!(
                !root.join(&rel).exists(),
                "kill {kill_at}: superseded {rel} still on disk after rerun"
            );
            assert!(
                !healed.references(&rel),
                "kill {kill_at}: {rel} still referenced"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }
}

/// Regression: a publish gap (a sealed iteration file whose
/// `publish_iteration` never ran — the EPE persist path swallows that
/// failure) must *split* the compaction batch. A span bridging the gap
/// would claim coverage of an iteration it never merged; gc would then
/// delete the sealed-but-unpublished file (unreferenced + covered) and
/// recovery's adoption pass would skip it (covered) — losing durable
/// data permanently.
#[test]
fn publish_gap_splits_batches_and_preserves_the_unpublished_file() {
    let root = scratch("gap");
    const GAP: u32 = 4;
    for iteration in 0..ITERS {
        let rel = format!("node-0/iter-{iteration:06}.sdf");
        let path = root.join(&rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("node dir");
        let mut writer = SdfWriter::create(&path).expect("create");
        for source in 0..SOURCES {
            writer
                .write_dataset_f64_opts(
                    &format!("/iter-{iteration}/rank-{source}/field"),
                    &Layout::new(DataType::F64, &[POINTS as u64]),
                    &payload(iteration, source),
                    &DatasetOptions::plain().with_coords(iteration, source),
                )
                .expect("write");
        }
        let bytes = writer.finish_synced().expect("finish");
        if iteration != GAP {
            publish_iteration(&root, 0, iteration, &rel, bytes).expect("publish");
        }
    }

    let compactor = Compactor::new(
        &root,
        CompactorConfig {
            min_batch: 2,
            hot_tail: 2,
            chunk_rows: 64,
        },
    );
    let report = compactor.run_once().expect("run");
    // cutoff = 9 - 2 = 7; eligible published iterations {0,1,2,3,5,6}
    // split at the gap into two contiguous spans.
    assert_eq!(
        report.batches,
        vec![(0, 0, GAP - 1), (0, GAP + 1, 6)],
        "batches must split at the unpublished iteration"
    );
    let manifest = Manifest::load(&root).expect("manifest");
    assert!(
        !manifest.covers(0, GAP),
        "no span may claim the unpublished iteration"
    );
    let gap_rel = format!("node-0/iter-{GAP:06}.sdf");
    assert!(
        root.join(&gap_rel).exists(),
        "gc must not delete the sealed-but-unpublished file"
    );

    // Recovery adopts the orphan, after which everything is reachable.
    let recovered = damaris_fs::recover_dir(&root).expect("recover");
    assert!(
        recovered
            .manifest_adopted
            .iter()
            .any(|p| p == Path::new(&gap_rel)),
        "recovery must adopt the unpublished file: {recovered:?}"
    );
    assert_all_reachable(&root, "gap after recovery");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn paused_compactor_is_a_no_op() {
    let root = scratch("paused");
    build_output(&root);
    let compactor = Compactor::new(&root, config());
    compactor.set_paused(true);
    let report = compactor.run_once().expect("paused run");
    assert!(report.paused && report.batches.is_empty() && report.deleted == 0);
    let manifest = Manifest::load(&root).expect("manifest");
    assert_eq!(manifest.entries.len(), ITERS as usize, "nothing touched");
    // The shared flag resumes it.
    compactor
        .pause_flag()
        .store(false, std::sync::atomic::Ordering::Release);
    let report = compactor.run_once().expect("resumed run");
    assert_eq!(report.batches.len(), 1);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn hot_tail_and_min_batch_gate_compaction() {
    let root = scratch("gates");
    // Only 4 iterations with hot_tail 2: eligible set {0, 1} is smaller
    // than min_batch 4 — nothing must happen.
    for iteration in 0..4 {
        let rel = format!("node-0/iter-{iteration:06}.sdf");
        let path = root.join(&rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("node dir");
        let mut writer = SdfWriter::create(&path).expect("create");
        writer
            .write_dataset_f64_opts(
                &format!("/iter-{iteration}/rank-0/field"),
                &Layout::new(DataType::F64, &[8]),
                &payload(iteration, 0)[..8],
                &DatasetOptions::plain().with_coords(iteration, 0),
            )
            .expect("write");
        let bytes = writer.finish_synced().expect("finish");
        publish_iteration(&root, 0, iteration, &rel, bytes).expect("publish");
    }
    let compactor = Compactor::new(&root, config());
    let report = compactor.run_once().expect("run");
    assert!(report.batches.is_empty(), "below min_batch: {report:?}");
    std::fs::remove_dir_all(&root).ok();
}
