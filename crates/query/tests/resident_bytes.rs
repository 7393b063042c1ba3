//! What an open file costs a reader: a `QueryEngine` opened over 64
//! published files of 256 datasets each — the `smallvars` benchmark
//! shape, 64 variables × 4 ranks of 256 B with the persist plugin's
//! coordinate fields — must hold at most 160 bytes per dataset and have made at
//! most 32 allocations per file. Bytes are counted as malloc hands them
//! out (request + 8, rounded up to 16, at least 32), so a thousand small
//! objects cost what they cost in the resident set, not what they asked
//! for. The `steady` and `insitu` shapes (16 datasets a file) are printed
//! beside it. (One `#[test]`: the counter is process-wide.)
//!
//! Run with `--nocapture` to see the figures.

use damaris_format::{DataType, DatasetOptions, Layout, SdfWriter};
use damaris_fs::manifest::publish_iteration;
use damaris_query::{QueryConfig, QueryEngine};
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static REQUESTED: AtomicUsize = AtomicUsize::new(0);
static CHUNKED: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// The block glibc's malloc gives a request of `size` bytes.
fn chunk(size: usize) -> usize {
    ((size + 8 + 15) & !15).max(32)
}

struct Counting;

// SAFETY: every request goes to `System` unchanged; the counters beside it
// are statistics and touch no memory the allocator hands out. `realloc`
// keeps its default, which goes through these two.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `GlobalAlloc::alloc`'s contract, unchanged.
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc`, passed on as it came.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
            CHUNKED.fetch_add(chunk(layout.size()), Ordering::Relaxed);
            LIVE.fetch_add(1, Ordering::Relaxed);
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    // SAFETY: `GlobalAlloc::dealloc`'s contract, unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        // SAFETY: `ptr` came from `alloc` above, so from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) };
        REQUESTED.fetch_sub(layout.size(), Ordering::Relaxed);
        CHUNKED.fetch_sub(chunk(layout.size()), Ordering::Relaxed);
        LIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(requested, chunked, live allocations, allocation calls)` so far.
fn counters() -> [usize; 4] {
    [&REQUESTED, &CHUNKED, &LIVE, &CALLS].map(|c| c.load(Ordering::Relaxed))
}

/// One benchmark workload's file: `variables` × 4 ranks of `block_bytes`.
struct Shape {
    name: &'static str,
    variables: u32,
    dtype: DataType,
    block_bytes: usize,
    filter: Option<&'static str>,
    files: u32,
}

const RANKS: u32 = 4;

/// Writes and publishes `shape.files` iteration files under a fresh root,
/// the way the persist plugin writes them.
fn publish(shape: &Shape) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "damaris-query-resident-{}-{}",
        shape.name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let elems = shape.block_bytes / shape.dtype.size();
    let layout = Layout::new(shape.dtype, &[elems as u64]);
    for i in 0..shape.files {
        let iteration = 1000 + i;
        let rel = format!("node-0/iter-{iteration:06}.sdf");
        let path = root.join(&rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("node dir");
        let mut writer = SdfWriter::create(&path).expect("create");
        for v in 0..shape.variables {
            for rank in 0..RANKS {
                // A smooth ramp: what an LZSS filter has something to find in.
                let data: Vec<u8> = (0..shape.block_bytes)
                    .map(|b| ((b / 64) as u32 + v + rank) as u8)
                    .collect();
                let mut opts = DatasetOptions::plain().with_coords(iteration, rank);
                if let Some(filter) = shape.filter {
                    opts = opts.with_filter(filter);
                }
                writer
                    .write_dataset_bytes(
                        &format!("/iter-{iteration}/rank-{rank}/v{v:02}"),
                        &layout,
                        &data,
                        &opts,
                    )
                    .expect("write");
            }
        }
        let bytes = writer.finish().expect("finish");
        publish_iteration(&root, 0, iteration, &rel, bytes).expect("publish");
    }
    root
}

/// Opens an engine over `root` and returns what it holds and what it
/// took to open: `(bytes requested, bytes chunked, live allocations,
/// allocation calls)`, with the engine still open.
fn open_cost(root: &Path) -> (QueryEngine, [usize; 4]) {
    let before = counters();
    let engine = QueryEngine::open(root, QueryConfig::default()).expect("open");
    let after = counters();
    (engine, [0, 1, 2, 3].map(|i| after[i] - before[i]))
}

#[test]
fn an_open_file_costs_bytes_per_dataset_not_objects() {
    let shapes = [
        Shape {
            name: "smallvars",
            variables: 64,
            dtype: DataType::F64,
            block_bytes: 256,
            filter: None,
            files: 64,
        },
        Shape {
            name: "steady",
            variables: 4,
            dtype: DataType::F64,
            block_bytes: 64 << 10,
            filter: None,
            files: 16,
        },
        Shape {
            name: "insitu",
            variables: 4,
            dtype: DataType::F32,
            block_bytes: 16 << 10,
            filter: Some("lzss"),
            files: 16,
        },
    ];
    let mut smallvars = None;
    for shape in &shapes {
        let root = publish(shape);
        let (engine, [requested, chunked, live, calls]) = open_cost(&root);
        let files = shape.files as usize;
        let datasets = files * (shape.variables * RANKS) as usize;
        assert_eq!(engine.snapshot().files().len(), files);
        println!(
            "resident {:<9} {files} files × {} datasets: {:.1} B requested, {:.1} B malloc-chunked, \
             {:.3} live allocations per dataset; {:.1} allocations per file to open",
            shape.name,
            datasets / files,
            requested as f64 / datasets as f64,
            chunked as f64 / datasets as f64,
            live as f64 / datasets as f64,
            calls as f64 / files as f64,
        );
        if shape.name == "smallvars" {
            smallvars = Some((chunked / datasets, calls / files));
        }
        drop(engine);
        std::fs::remove_dir_all(&root).ok();
    }
    let (per_dataset, per_file) = smallvars.expect("smallvars measured");
    assert!(
        per_dataset <= 160,
        "{per_dataset} B resident per dataset, budget 160"
    );
    assert!(per_file <= 32, "{per_file} allocations per file, budget 32");
}
