//! A forged `MANIFEST` must not be able to demand memory: a log whose
//! frames are not what their `crc` lines say fails typed, having grown
//! the heap by no more than twice the file's size — measured with a
//! counting allocator, for `Manifest::load` and a polling
//! `ManifestReader` alike. (One `#[test]`: the counter is process-wide.)

use damaris_format::crc32;
use damaris_fs::{EntryKind, Manifest, ManifestEntry, ManifestError, ManifestReader};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every request goes to `System` unchanged; the counters beside it
// are statistics and touch no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `GlobalAlloc::alloc`'s contract, unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc`, passed on as it came.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    // SAFETY: `GlobalAlloc::dealloc`'s contract, unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, so from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most `f` had allocated at once, beyond what was live when it began.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = f();
    (result, PEAK.load(Ordering::Relaxed) - before)
}

/// An appended frame listing `iteration`, its `crc` line stating `len`
/// (its true length when `None`).
fn frame(iteration: u32, len: Option<usize>) -> String {
    let body = format!("iter 0 {iteration} 4096 node-0/iter-{iteration:06}.sdf\n");
    let len = len.unwrap_or(body.len());
    format!("{body}crc {:08x} {len}\n", crc32(body.as_bytes()))
}

#[test]
fn forged_logs_fail_typed_within_twice_their_size() {
    let root = std::env::temp_dir().join(format!("damaris-forged-manifest-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("root");
    let checkpoint = Manifest {
        generation: 32,
        entries: (0..32)
            .map(|it| ManifestEntry {
                file: format!("node-0/iter-{it:06}.sdf"),
                node: 0,
                kind: EntryKind::Iteration(it),
                bytes: 4096,
            })
            .collect(),
    }
    .render();
    let body = &checkpoint[..checkpoint.rfind("crc ").expect("crc line")];
    let whole = frame(33, None);
    let flipped = frame(32, None).replacen("4096", "4097", 1);
    let cases = [
        (
            "a checkpoint whose crc line claims more bytes than the file holds",
            format!(
                "{body}crc {:08x} {}\n",
                crc32(body.as_bytes()),
                u64::MAX / 2
            ),
        ),
        (
            "a checkpoint whose lines run past the end of the file",
            body.to_string(),
        ),
        (
            "a frame whose lines run past the file, before a whole frame",
            format!("{checkpoint}{}{whole}", frame(32, Some(1 << 40))),
        ),
        (
            "a bad CRC in the middle of the log, before a whole frame",
            format!("{checkpoint}{flipped}{whole}"),
        ),
    ];
    for (what, text) in cases {
        std::fs::write(root.join("MANIFEST"), &text).expect("write");
        let (loaded, growth) = peak_growth(|| Manifest::load(&root));
        assert!(
            matches!(loaded, Err(ManifestError::Corrupt(_))),
            "{what}: {loaded:?}"
        );
        assert!(
            growth <= 2 * text.len(),
            "{what}: load grew {growth} bytes for a {}-byte file",
            text.len()
        );
        let mut reader = ManifestReader::new(&root);
        let (read, growth) = peak_growth(|| reader.read());
        assert!(
            matches!(read, Err(ManifestError::Corrupt(_))),
            "{what}: {read:?}"
        );
        assert!(
            growth <= 2 * text.len(),
            "{what}: a poll grew {growth} bytes for a {}-byte file",
            text.len()
        );
        println!("{what}: refused, growth {growth} B for {} B", text.len());
    }
    std::fs::remove_dir_all(&root).ok();
}
