//! What the block cache admits, over real SDF files: 64 published
//! iterations of 17 variables of 64 KiB (LZSS-filtered, so the files stay
//! small; the cache holds decoded blocks). A block is cached on its
//! second miss, so
//!
//! - 1 000 point lookups of blocks nobody reads again leave no block
//!   resident, whatever the budget;
//! - a 16-iteration `range` window sliding one iteration at a time reads
//!   each block it covers twice — as it enters the window and on the next
//!   scan — and then serves it from the cache.
//!
//! Run with `--nocapture` to see the counts.

use damaris_format::{DataType, DatasetOptions, Layout, SdfWriter};
use damaris_fs::manifest::publish_iteration;
use damaris_query::{QueryConfig, QueryEngine, RangeQuery};
use std::path::PathBuf;

const ITERATIONS: u32 = 64;
const POINT_VARIABLES: u32 = 16;
const BLOCK_BYTES: usize = 64 << 10;
const WINDOW: u32 = 16;

fn payload(iteration: u32, variable: u32) -> Vec<u8> {
    (0..BLOCK_BYTES)
        .map(|b| ((b / 64) as u32 + iteration * 7 + variable) as u8)
        .collect()
}

/// Publishes `ITERATIONS` files, each with the window's variable `w` and
/// `POINT_VARIABLES` point-lookup variables `p00`…, one source.
fn publish() -> PathBuf {
    let root = std::env::temp_dir().join(format!("damaris-query-admission-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let layout = Layout::new(DataType::F64, &[(BLOCK_BYTES / 8) as u64]);
    for iteration in 0..ITERATIONS {
        let rel = format!("node-0/iter-{iteration:06}.sdf");
        let path = root.join(&rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("node dir");
        let mut writer = SdfWriter::create(&path).expect("create");
        for variable in 0..=POINT_VARIABLES {
            let name = match variable {
                0 => "w".to_string(),
                v => format!("p{:02}", v - 1),
            };
            let opts = DatasetOptions::plain()
                .with_coords(iteration, 0)
                .with_filter("lzss");
            writer
                .write_dataset_bytes(
                    &format!("/iter-{iteration}/rank-0/{name}"),
                    &layout,
                    &payload(iteration, variable),
                    &opts,
                )
                .expect("write");
        }
        let bytes = writer.finish().expect("finish");
        publish_iteration(&root, 0, iteration, &rel, bytes).expect("publish");
    }
    root
}

#[test]
fn the_cache_holds_only_what_is_read_again() {
    let root = publish();
    let engine = QueryEngine::open(&root, QueryConfig::default()).expect("open");
    let snap = engine.snapshot();
    let reads = engine.registry().counter("query.block_reads");

    // 1 000 distinct blocks, each looked up once.
    let mut lookups = 0u64;
    'points: for iteration in 0..ITERATIONS {
        for v in 0..POINT_VARIABLES {
            if lookups == 1000 {
                break 'points;
            }
            let got = engine
                .lookup(&snap, &format!("p{v:02}"), iteration, 0)
                .expect("lookup")
                .expect("published");
            assert_eq!(*got, payload(iteration, v + 1));
            lookups += 1;
        }
    }
    let stats = engine.cache_stats();
    println!(
        "admission read-once: {lookups} lookups of 64 KiB, {} block reads, {} declined, \
         {} B resident",
        reads.get(),
        stats.declined,
        stats.resident_bytes
    );
    assert_eq!(lookups, 1000);
    assert_eq!(reads.get(), 1000);
    assert_eq!(stats.declined, 1000);
    assert_eq!(stats.resident_bytes, 0, "no block read once is cached");

    // The window slides over every iteration: the first scan reads its
    // 16 blocks once; the second reads 15 of them again, admitting them,
    // and its newest block; every later scan reads its newest block for
    // the first time and the one before it for the second.
    let before = reads.get();
    let mut per_scan = Vec::new();
    for hi in WINDOW - 1..ITERATIONS {
        let lo = hi + 1 - WINDOW;
        let scan_start = reads.get();
        let hits = engine
            .range(
                &snap,
                &RangeQuery {
                    variable: "w",
                    iterations: (lo, hi),
                    sources: None,
                    rows: None,
                },
            )
            .expect("range");
        assert_eq!(hits.len() as u32, WINDOW);
        for hit in &hits {
            assert_eq!(*hit.data, payload(hit.iteration, 0));
        }
        per_scan.push(reads.get() - scan_start);
    }
    let window_reads = reads.get() - before;
    let stats = engine.cache_stats();
    // Blocks 0 and 63 are each covered by a single scan; the other 62
    // are covered by two or more.
    let reread = u64::from(ITERATIONS) - 2;
    println!(
        "admission window: {} scans of {WINDOW} over {ITERATIONS} blocks, {window_reads} block reads \
         ({reread} blocks read twice, 2 once), {} B resident",
        per_scan.len(),
        stats.resident_bytes
    );
    assert_eq!(per_scan[..2], [u64::from(WINDOW); 2]);
    assert!(per_scan[2..].iter().all(|&n| n == 2), "{per_scan:?}");
    assert_eq!(window_reads, 2 * reread + 2);
    // Exactly the blocks read twice are resident.
    let per_block = stats.resident_bytes / reread;
    assert_eq!(stats.resident_bytes, per_block * reread);
    assert!((BLOCK_BYTES as u64..BLOCK_BYTES as u64 + 128).contains(&per_block));
    drop(engine);
    std::fs::remove_dir_all(&root).ok();
}
