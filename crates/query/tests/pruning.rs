//! Index effectiveness: probes for keys that are *not* in the output
//! must be answered (as `None`) without reading payload blocks — the
//! bloom filter plus sparse index prune them. ISSUE 9 acceptance: ≥90 %
//! of non-matching probes cause no block read.

use damaris_format::{DataType, DatasetOptions, Layout, SdfWriter};
use damaris_fs::manifest::publish_iteration;
use damaris_query::{QueryConfig, QueryEngine};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("damaris-query-prune-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn absent_key_probes_prune_at_least_ninety_percent_of_block_reads() {
    let root = scratch("bloom");
    // 6 iterations × 8 sources × 2 variables per file — a populated
    // index for the bloom filter to defend.
    for iteration in 0..6u32 {
        let rel = format!("node-0/iter-{iteration:06}.sdf");
        let path = root.join(&rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("node dir");
        let mut writer = SdfWriter::create(&path).expect("create");
        for source in 0..8u32 {
            for variable in ["theta", "wind"] {
                let data: Vec<f64> = (0..32)
                    .map(|i| f64::from(iteration + source) + i as f64)
                    .collect();
                writer
                    .write_dataset_f64_opts(
                        &format!("/iter-{iteration}/rank-{source}/{variable}"),
                        &Layout::new(DataType::F64, &[32]),
                        &data,
                        &DatasetOptions::plain().with_coords(iteration, source),
                    )
                    .expect("write");
            }
        }
        let bytes = writer.finish_synced().expect("finish");
        publish_iteration(&root, 0, iteration, &rel, bytes).expect("publish");
    }

    let engine = QueryEngine::open(&root, QueryConfig::default()).expect("engine");
    let snap = engine.snapshot();
    let block_reads = engine.registry().counter("query.block_reads");

    // Absent probes against *covered* iterations, so candidate files are
    // consulted and only the index/bloom stands between the probe and a
    // payload read: unknown variables and out-of-range sources.
    let before = block_reads.get();
    let mut probes = 0u64;
    for round in 0..250u32 {
        for iteration in 0..6u32 {
            let ghost = format!("ghost-{round}");
            assert!(
                engine
                    .lookup(&snap, &ghost, iteration, round % 8)
                    .expect("lookup")
                    .is_none(),
                "ghost variable must be absent"
            );
            assert!(
                engine
                    .lookup(&snap, "theta", iteration, 100 + round)
                    .expect("lookup")
                    .is_none(),
                "out-of-range source must be absent"
            );
            probes += 2;
        }
    }
    let wasted = block_reads.get() - before;
    assert!(probes >= 1000, "meaningful probe count: {probes}");
    assert!(
        wasted * 10 <= probes,
        "bloom+index pruned too little: {wasted} block reads for {probes} absent probes"
    );

    // Present keys still resolve (the filter has no false negatives).
    for iteration in 0..6u32 {
        for source in 0..8u32 {
            assert!(
                engine
                    .lookup(&snap, "wind", iteration, source)
                    .expect("lookup")
                    .is_some(),
                "present key it {iteration} src {source}"
            );
        }
    }
    std::fs::remove_dir_all(&root).ok();
}
