//! The shared byte buffer and exclusive segment views.
//!
//! `SharedBuffer` owns one contiguous allocation. `Segment`s are
//! non-overlapping exclusive windows handed out by an allocator; writes go
//! through `&mut Segment`, reads through `&Segment`. Because the allocators
//! never hand out overlapping live ranges (see the property tests in the
//! allocator modules), data races are impossible despite the raw-pointer
//! plumbing underneath.
//!
//! That disjointness argument is *verified*, not just asserted: the buffer
//! carries a [`crate::sync::RangeTracker`], and every slice access declares
//! its byte range to it. In the default build the declarations compile to
//! nothing; under `--features check` the model checker cross-checks every
//! pair of overlapping accesses for a happens-before edge and fails the
//! run on any unordered conflict (see `tests/model.rs`).
//!
//! The backing store stays a raw `UnsafeCell` array rather than per-word
//! [`crate::sync::ShmCell`]s: segments are byte-granular and word cells
//! would force 8-byte access granularity. Byte-range tracking is the
//! facade treatment for this type.

use crate::sync::{Arc, RangeTracker};
use std::cell::UnsafeCell;

/// Where a [`SharedBuffer`]'s bytes live.
///
/// * `Heap` — one process-private allocation shared through `Arc`, the
///   threads-as-cores topology every existing test uses.
/// * `Mapped` — a window of a file-backed `MAP_SHARED` region
///   ([`crate::MapRegion`]), the cross-process topology of the original
///   Damaris: separate OS processes map the same file, and the bytes
///   survive any one process being `kill -9`'d.
enum Backing {
    /// Backing store in 8-byte units so that segments handed out by the
    /// (8-byte-aligning) allocators can be viewed as f32/f64 slices.
    Heap(Box<[UnsafeCell<u64>]>),
    /// `data_offset` is where the buffer's byte 0 sits inside the region
    /// (past the mapping header) — an offset, never a pointer, per the
    /// offset-only invariant.
    #[cfg(all(unix, not(feature = "check")))]
    Mapped {
        region: Arc<crate::backing::MapRegion>,
        data_offset: usize,
    },
}

/// A fixed-size byte buffer shared by all cores of one simulated SMP node.
///
/// Created once by the dedicated core with a user-chosen size ("the user has
/// full control over the resources allocated to Damaris", §III-B).
pub struct SharedBuffer {
    backing: Backing,
    capacity: usize,
    /// Race detector for segment accesses; no-op unless `check`.
    tracker: RangeTracker,
}

// SAFETY: access to ranges of `data` is mediated by `Segment`s, which the
// allocators guarantee to be disjoint while live (model-checked under
// `--features check` via `tracker`). Cross-thread visibility is provided by
// the release/acquire pair of whatever channel transfers the segment (the
// event queue).
unsafe impl Sync for SharedBuffer {}
// SAFETY: no thread affinity; see `Sync` argument above.
unsafe impl Send for SharedBuffer {}

impl SharedBuffer {
    /// Allocates a zero-initialized heap buffer of `capacity` bytes. The
    /// zeroes come from the allocator (`vec![0; n]` is `alloc_zeroed`, for
    /// a large buffer fresh pages from the OS) and are never written here,
    /// so capacity is committed on first touch, not at start.
    pub fn new(capacity: usize) -> Arc<Self> {
        let zeroed: Box<[u64]> = vec![0u64; capacity.div_ceil(8)].into_boxed_slice();
        // SAFETY: `UnsafeCell<u64>` is `repr(transparent)` over `u64` —
        // same size, alignment and validity — so the allocation keeps its
        // layout under the new type and the box frees it as it was made.
        let data = unsafe { Box::from_raw(Box::into_raw(zeroed) as *mut [UnsafeCell<u64>]) };
        Arc::new(SharedBuffer {
            backing: Backing::Heap(data),
            capacity,
            tracker: RangeTracker::new(),
        })
    }

    /// Views `capacity` bytes of a file-backed mapping, starting at
    /// `data_offset`, as a shared buffer. `data_offset` must be 8-byte
    /// aligned (the allocators hand out f64-viewable segments) and the
    /// window must fit inside the region.
    #[cfg(all(unix, not(feature = "check")))]
    pub fn from_region(
        region: Arc<crate::backing::MapRegion>,
        data_offset: usize,
        capacity: usize,
    ) -> Arc<Self> {
        assert_eq!(data_offset % 8, 0, "data_offset must be 8-byte aligned");
        assert!(
            data_offset
                .checked_add(capacity)
                .is_some_and(|end| end <= region.len()),
            "buffer window [{data_offset}, {data_offset}+{capacity}) exceeds region of {} bytes",
            region.len()
        );
        Arc::new(SharedBuffer {
            backing: Backing::Mapped { region, data_offset },
            capacity,
            tracker: RangeTracker::new(),
        })
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn base(&self) -> *mut u8 {
        match &self.backing {
            Backing::Heap(data) => data.as_ptr() as *mut u8,
            #[cfg(all(unix, not(feature = "check")))]
            Backing::Mapped { region, data_offset } => {
                // SAFETY: `from_region` checked data_offset + capacity fits
                // inside the mapping, so the offset stays in bounds.
                unsafe { region.base().add(*data_offset) }
            }
        }
    }

    /// A segment view with no ring position (it is its offset), for tests
    /// that look at the bytes without an allocator.
    #[cfg(all(test, not(feature = "check")))]
    pub(crate) fn segment(self: &Arc<Self>, offset: usize, len: usize) -> Segment {
        self.segment_at(offset, len, offset as u64)
    }

    /// Builds the segment view of a ring's reservation made at `position`
    /// ([`crate::ring::ring_reserve`]). Callers must come through an
    /// allocator that guarantees disjointness; hence the crate-private
    /// visibility.
    pub(crate) fn segment_at(self: &Arc<Self>, offset: usize, len: usize, position: u64) -> Segment {
        // ANALYZE: in-bounds(callers are allocators handing out ranges inside their region, which sits inside capacity; the assert is the contract check)
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.capacity),
            "segment [{offset}, {offset}+{len}) out of bounds for capacity {}",
            self.capacity
        );
        Segment {
            buffer: Arc::clone(self),
            offset,
            len,
            position,
        }
    }
}

impl std::fmt::Debug for SharedBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.backing {
            Backing::Heap(_) => write!(f, "SharedBuffer({} bytes, heap)", self.capacity),
            #[cfg(all(unix, not(feature = "check")))]
            Backing::Mapped { region, .. } => write!(
                f,
                "SharedBuffer({} bytes, mapped at {})",
                self.capacity,
                region.path().display()
            ),
        }
    }
}

/// An exclusive view of a byte range of a [`SharedBuffer`].
///
/// The segment does **not** free itself on drop: release is an explicit
/// allocator operation, because in Damaris the *server* frees a segment only
/// after it has persisted the data, possibly long after the client's handle
/// is gone. Allocators provide `release`; the higher layers (damaris-core)
/// wire drop-based reclamation where appropriate.
pub struct Segment {
    buffer: Arc<SharedBuffer>,
    offset: usize,
    len: usize,
    position: u64,
}

impl Segment {
    /// Offset of this segment within the buffer.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Where the reservation stands in its client's allocation order: the
    /// ring position [`crate::ring::ring_reserve`] returned — releasing one
    /// client's segments by ascending position is releasing them FIFO.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for zero-length segments.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The shared buffer this segment belongs to.
    pub fn buffer(&self) -> &Arc<SharedBuffer> {
        &self.buffer
    }

    /// Copies `src` into the segment — the paper's single `memcpy` from the
    /// simulation's local array into shared memory.
    ///
    /// Panics if `src.len() != self.len()`; reserve exactly what you write.
    pub fn copy_from_slice(&mut self, src: &[u8]) {
        // ANALYZE: in-bounds(the write path reserves exactly data.len() bytes, so src.len() == self.len by construction)
        assert_eq!(
            src.len(),
            self.len,
            "source length {} does not match segment length {}",
            src.len(),
            self.len
        );
        // Declare the write to the race detector (no-op unless `check`).
        self.buffer.tracker.write(self.offset, self.len);
        // SAFETY: `&mut self` gives exclusive access to this segment, and the
        // allocator guarantees no other live segment overlaps this range.
        unsafe {
            let dst = self.buffer.base().add(self.offset);
            std::ptr::copy_nonoverlapping(src.as_ptr(), dst, src.len());
        }
    }

    /// Mutable view for in-place production (the `dc_alloc`/`dc_commit`
    /// zero-copy path: the simulation computes directly in shared memory).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // Declare the write to the race detector (no-op unless `check`).
        self.buffer.tracker.write(self.offset, self.len);
        // SAFETY: exclusive borrow of the segment + allocator disjointness.
        unsafe {
            std::slice::from_raw_parts_mut(self.buffer.base().add(self.offset), self.len)
        }
    }

    /// Shared read view (used by the server after the handle arrives through
    /// the event queue, which provides the happens-before edge).
    pub fn as_slice(&self) -> &[u8] {
        // Declare the read to the race detector (no-op unless `check`).
        self.buffer.tracker.read(self.offset, self.len);
        // SAFETY: `&self` prevents concurrent mutation through this handle;
        // no other handle aliases the range.
        unsafe {
            std::slice::from_raw_parts(self.buffer.base().add(self.offset), self.len)
        }
    }

    /// Splits off the tail, leaving `self` with the first `at` bytes.
    /// Useful when a client reserves one block for several variables.
    pub fn split_off(&mut self, at: usize) -> Segment {
        assert!(at <= self.len, "split at {at} beyond length {}", self.len);
        let tail = Segment {
            buffer: Arc::clone(&self.buffer),
            offset: self.offset + at,
            len: self.len - at,
            position: self.position + at as u64,
        };
        self.len = at;
        tail
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Segment[{}..{}]", self.offset, self.offset + self.len)
    }
}

// Plain functional tests; segment race semantics under concurrency are
// model-checked in tests/model.rs with `--features check`.
#[cfg(all(test, not(feature = "check")))]
mod tests {
    use super::*;

    #[test]
    fn write_then_read() {
        let buf = SharedBuffer::new(64);
        let mut seg = buf.segment(8, 4);
        seg.copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(seg.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(seg.offset(), 8);
        assert_eq!(seg.len(), 4);
    }

    #[test]
    fn zero_copy_in_place() {
        let buf = SharedBuffer::new(16);
        let mut seg = buf.segment(0, 16);
        for (i, b) in seg.as_mut_slice().iter_mut().enumerate() {
            *b = i as u8;
        }
        assert_eq!(seg.as_slice()[15], 15);
    }

    #[test]
    fn disjoint_segments_are_independent() {
        let buf = SharedBuffer::new(32);
        let mut a = buf.segment(0, 16);
        let mut b = buf.segment(16, 16);
        a.copy_from_slice(&[0xAA; 16]);
        b.copy_from_slice(&[0xBB; 16]);
        assert!(a.as_slice().iter().all(|&x| x == 0xAA));
        assert!(b.as_slice().iter().all(|&x| x == 0xBB));
    }

    #[test]
    fn split_off() {
        let buf = SharedBuffer::new(32);
        let mut seg = buf.segment(4, 12);
        let tail = seg.split_off(8);
        assert_eq!(seg.offset(), 4);
        assert_eq!(seg.len(), 8);
        assert_eq!(tail.offset(), 12);
        assert_eq!(tail.len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_segment_panics() {
        let buf = SharedBuffer::new(8);
        let _ = buf.segment(4, 8);
    }

    #[test]
    #[should_panic(expected = "does not match segment length")]
    fn wrong_copy_length_panics() {
        let buf = SharedBuffer::new(8);
        let mut seg = buf.segment(0, 4);
        seg.copy_from_slice(&[0; 5]);
    }

    #[cfg(unix)]
    #[test]
    fn mapped_backing_round_trips_through_the_file() {
        let dir = std::env::temp_dir().join("damaris-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("mapped-{}", crate::backing::this_pid()));
        let _ = std::fs::remove_file(&path);
        {
            let region = Arc::new(crate::backing::MapRegion::create(&path, 4096).unwrap());
            let buf = SharedBuffer::from_region(Arc::clone(&region), 64, 1024);
            assert_eq!(buf.capacity(), 1024);
            let mut seg = buf.segment(8, 4);
            seg.copy_from_slice(&[9, 8, 7, 6]);
            assert_eq!(seg.as_slice(), &[9, 8, 7, 6]);
        }
        // The write landed in the file at data_offset + segment offset and
        // survived the unmap — the property kill -9 recovery relies on.
        let region = Arc::new(crate::backing::MapRegion::open(&path).unwrap());
        let buf = SharedBuffer::from_region(region, 64, 1024);
        let seg = buf.segment(8, 4);
        assert_eq!(seg.as_slice(), &[9, 8, 7, 6]);
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    #[should_panic(expected = "exceeds region")]
    fn mapped_backing_window_must_fit() {
        let dir = std::env::temp_dir().join("damaris-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("overflow-{}", crate::backing::this_pid()));
        let _ = std::fs::remove_file(&path);
        let region = Arc::new(crate::backing::MapRegion::create(&path, 1024).unwrap());
        let _ = std::fs::remove_file(&path);
        let _ = SharedBuffer::from_region(region, 512, 1024);
    }

    #[test]
    fn cross_thread_transfer() {
        let buf = SharedBuffer::new(1024);
        let mut seg = buf.segment(0, 1024);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            seg.as_mut_slice().fill(42);
            tx.send(seg).unwrap();
        });
        let seg = rx.recv().unwrap();
        assert!(seg.as_slice().iter().all(|&b| b == 42));
    }
}
