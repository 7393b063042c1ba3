//! What a reader's poll allocates: a `QueryEngine` over N = 64 and
//! N = 1 024 published files of 4 datasets must refresh with no
//! allocation at all when nothing changed — with a `MANIFEST` and without
//! one — and with at most 32 after a publish of one more file, the same
//! bound at both N: a poll costs what changed, not what is listed.
//! (One `#[test]`: the counter is process-wide.)
//!
//! Run with `--nocapture` to see the counts.

use damaris_format::{DataType, DatasetOptions, Layout, SdfWriter};
use damaris_fs::manifest::publish_iteration;
use damaris_fs::{EntryKind, Manifest, ManifestEntry};
use damaris_query::{QueryConfig, QueryEngine};
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every request goes to `System` unchanged; the counter beside it
// is a statistic and touches no memory the allocator hands out. `realloc`
// keeps its default, which goes through these two.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `GlobalAlloc::alloc`'s contract, unchanged.
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc`, passed on as it came.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    // SAFETY: `GlobalAlloc::dealloc`'s contract, unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        // SAFETY: `ptr` came from `alloc` above, so from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) };
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls `engine.refresh()` made.
fn refresh_allocations(engine: &QueryEngine) -> usize {
    let before = CALLS.load(Ordering::Relaxed);
    engine.refresh().expect("refresh");
    CALLS.load(Ordering::Relaxed) - before
}

const RANKS: u32 = 4;

/// Writes `node-0/iter-<iteration>.sdf`: one 64-element `f64` field per
/// rank. Returns its manifest path and size.
fn write_file(root: &Path, iteration: u32) -> (String, u64) {
    let rel = format!("node-0/iter-{iteration:06}.sdf");
    let path = root.join(&rel);
    std::fs::create_dir_all(path.parent().expect("parent")).expect("node dir");
    let mut writer = SdfWriter::create(&path).expect("create");
    let data: Vec<f64> = (0..64).map(f64::from).collect();
    for rank in 0..RANKS {
        let opts = DatasetOptions::plain().with_coords(iteration, rank);
        writer
            .write_dataset_f64_opts(
                &format!("/iter-{iteration}/rank-{rank}/field"),
                &Layout::new(DataType::F64, &[64]),
                &data,
                &opts,
            )
            .expect("write");
    }
    (rel, writer.finish().expect("finish"))
}

/// A fresh root holding `n` files and no `MANIFEST` yet.
fn files(n: u32) -> (PathBuf, Manifest) {
    let root = std::env::temp_dir().join(format!(
        "damaris-query-refresh-allocs-{n}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let entries = (0..n)
        .map(|iteration| {
            let (file, bytes) = write_file(&root, iteration);
            ManifestEntry {
                file,
                node: 0,
                kind: EntryKind::Iteration(iteration),
                bytes,
            }
        })
        .collect();
    (
        root,
        Manifest {
            generation: u64::from(n),
            entries,
        },
    )
}

#[test]
fn a_poll_allocates_what_changed() {
    for n in [64u32, 1024] {
        let (root, manifest) = files(n);
        let engine = QueryEngine::open(&root, QueryConfig::default()).expect("open");
        refresh_allocations(&engine);
        let bare = refresh_allocations(&engine);
        assert_eq!(engine.snapshot().generation(), 0);

        manifest.store(&root).expect("store");
        refresh_allocations(&engine);
        assert_eq!(engine.snapshot().files().len(), n as usize);
        // The first poll of an unchanged manifest fills the buffer the
        // next read goes into; this one is what every later poll costs.
        refresh_allocations(&engine);
        let noop = refresh_allocations(&engine);

        let (rel, bytes) = write_file(&root, n);
        publish_iteration(&root, 0, n, &rel, bytes).expect("publish");
        let published = refresh_allocations(&engine);
        assert_eq!(engine.snapshot().files().len(), n as usize + 1);
        assert!(!engine.snapshot().files_for(n).is_empty());
        let noop_after = refresh_allocations(&engine);

        println!(
            "refresh allocations, {n} files: no-op without MANIFEST {bare}, no-op {noop}, \
             one-entry publish {published}, no-op after it {noop_after}"
        );
        assert_eq!(
            bare, 0,
            "{n} files: a poll of a root with no MANIFEST allocated"
        );
        assert_eq!(
            noop, 0,
            "{n} files: a poll of an unchanged manifest allocated"
        );
        assert_eq!(
            noop_after, 0,
            "{n} files: the poll after a publish allocated"
        );
        assert!(
            published <= 32,
            "{n} files: {published} allocations for a one-entry publish"
        );
        drop(engine);
        std::fs::remove_dir_all(&root).ok();
    }
}
