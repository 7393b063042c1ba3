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

/// What keeps a [`SharedBuffer`]'s bytes alive.
///
/// * `Heap` — one process-private allocation shared through `Arc`.
/// * `Mapped` — a file-backed `MAP_SHARED` region ([`crate::MapRegion`]):
///   separate OS processes map the same file, and the bytes survive any
///   one process being `kill -9`'d.
/// * `Window` — a range of another buffer: a node layout's data, past its
///   header and client blocks ([`crate::MappedNode`]).
enum Backing {
    /// Backing store in 8-byte units so that segments handed out by the
    /// (8-byte-aligning) allocators can be viewed as f32/f64 slices.
    Heap { _words: Box<[UnsafeCell<u64>]> },
    #[cfg(all(unix, not(feature = "check")))]
    Mapped(Arc<crate::backing::MapRegion>),
    #[cfg(not(feature = "check"))]
    Window(Arc<SharedBuffer>),
}

/// A heap buffer's first byte is on a block boundary, as a mapping's is.
const HEAP_ALIGN: usize = 128;

/// A fixed-size byte buffer shared by all cores of one simulated SMP node.
///
/// Created once by the dedicated core with a user-chosen size ("the user has
/// full control over the resources allocated to Damaris", §III-B).
pub struct SharedBuffer {
    backing: Backing,
    /// Byte 0 of the buffer in this process — never stored in shared
    /// memory (the offset-only invariant).
    base: *mut u8,
    capacity: usize,
    /// Race detector for segment accesses; no-op unless `check`.
    tracker: RangeTracker,
}

// SAFETY: access to ranges of `data` is mediated by `Segment`s, which the
// allocators guarantee to be disjoint while live (model-checked under
// `--features check` via `tracker`). Cross-thread visibility is provided by
// the release/acquire pair of whatever channel transfers the segment (the
// notice ring). `base` points into memory `backing` keeps alive.
unsafe impl Sync for SharedBuffer {}
// SAFETY: no thread affinity; see `Sync` argument above.
unsafe impl Send for SharedBuffer {}

impl SharedBuffer {
    /// Allocates a zero-initialized heap buffer of `capacity` bytes, its
    /// first byte on a 128-byte boundary. The zeroes come from the
    /// allocator (`vec![0; n]` is `alloc_zeroed`, for a large buffer fresh
    /// pages from the OS) and are never written here, so capacity is
    /// committed on first touch, not at start.
    pub fn new(capacity: usize) -> Arc<Self> {
        let words = (capacity + HEAP_ALIGN).div_ceil(8);
        let zeroed: Box<[u64]> = vec![0u64; words].into_boxed_slice();
        // SAFETY: `UnsafeCell<u64>` is `repr(transparent)` over `u64` —
        // same size, alignment and validity — so the allocation keeps its
        // layout under the new type and the box frees it as it was made.
        let data = unsafe { Box::from_raw(Box::into_raw(zeroed) as *mut [UnsafeCell<u64>]) };
        let start = data.as_ptr() as *mut u8;
        // SAFETY: the allocation is `capacity + HEAP_ALIGN` bytes or more,
        // so skipping fewer than `HEAP_ALIGN` leaves `capacity` in bounds.
        let base = unsafe { start.add(start.align_offset(HEAP_ALIGN)) };
        Arc::new(SharedBuffer {
            backing: Backing::Heap { _words: data },
            base,
            capacity,
            tracker: RangeTracker::new(),
        })
    }

    /// Views a whole file-backed mapping as a shared buffer
    /// ([`window`](Self::window) for a part of it).
    #[cfg(all(unix, not(feature = "check")))]
    pub fn from_region(region: Arc<crate::backing::MapRegion>) -> Arc<Self> {
        Arc::new(SharedBuffer {
            base: region.base(),
            capacity: region.len(),
            backing: Backing::Mapped(region),
            tracker: RangeTracker::new(),
        })
    }

    /// The `capacity` bytes of this buffer from `offset` on, as a buffer
    /// of their own (which keeps this one alive). `offset` must be 8-byte
    /// aligned and the window must fit.
    #[cfg(not(feature = "check"))]
    pub(crate) fn window(self: &Arc<Self>, offset: usize, capacity: usize) -> Arc<Self> {
        assert_eq!(offset % 8, 0, "window offset must be 8-byte aligned");
        assert!(
            offset
                .checked_add(capacity)
                .is_some_and(|end| end <= self.capacity),
            "buffer window [{offset}, {offset}+{capacity}) exceeds buffer of {} bytes",
            self.capacity
        );
        Arc::new(SharedBuffer {
            backing: Backing::Window(Arc::clone(self)),
            // SAFETY: the window fits inside this buffer, checked above.
            base: unsafe { self.base.add(offset) },
            capacity,
            tracker: RangeTracker::new(),
        })
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Byte 0 of the buffer in this process.
    pub(crate) fn base(&self) -> *mut u8 {
        self.base
    }

    /// [`prefetch_write`]s the first lines, at most eight, of a copy of
    /// `len` bytes to `offset` still to come, if it goes through the cache
    /// (below [`Segment::copy_from_slice`]'s streaming threshold): a cached
    /// store into a line the core read last waits for the core to give it
    /// up, and a small write's later stores queue behind it. Asked for
    /// early, the wait overlaps the client's other work.
    // ANALYZE: hot
    #[cfg(not(feature = "check"))]
    pub(crate) fn prefetch_copy(&self, offset: usize, len: usize) {
        #[cfg(target_arch = "x86_64")]
        if len < stream::MIN_LEN {
            let end = offset.saturating_add(len.min(512)).min(self.capacity);
            let mut at = offset.saturating_sub((self.base as usize).wrapping_add(offset) % 64);
            while at < end {
                prefetch_write(self.base.wrapping_add(at));
                at += 64;
            }
        }
        let _ = (offset, len);
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
    pub(crate) fn segment_at(
        self: &Arc<Self>,
        offset: usize,
        len: usize,
        position: u64,
    ) -> Segment {
        // ANALYZE: in-bounds(callers are allocators handing out ranges inside their region, which sits inside capacity; the assert is the contract check)
        assert!(
            offset
                .checked_add(len)
                .is_some_and(|end| end <= self.capacity),
            "segment [{offset}, {offset}+{len}) out of bounds for capacity {}",
            self.capacity
        );
        Segment {
            buffer: Arc::clone(self),
            offset,
            len,
            position,
            lead: 0,
        }
    }
}

impl std::fmt::Debug for SharedBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedBuffer({} bytes, ", self.capacity)?;
        match &self.backing {
            Backing::Heap { .. } => write!(f, "heap)"),
            #[cfg(all(unix, not(feature = "check")))]
            Backing::Mapped(region) => write!(f, "mapped at {})", region.path().display()),
            #[cfg(not(feature = "check"))]
            Backing::Window(whole) => write!(f, "in {whole:?})"),
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
    /// Bytes of the same reservation in front of `offset` that
    /// [`skip`](Segment::skip) passed over.
    lead: usize,
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
    /// simulation's local array into shared memory: streamed (`stream`)
    /// from 4 KiB on where the CPU has AVX-512F, else (and in `--features
    /// check` builds) `copy_nonoverlapping`.
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
        let dst = self.as_mut_slice();
        #[cfg(all(target_arch = "x86_64", not(feature = "check")))]
        if src.len() >= stream::MIN_LEN && stream::available() {
            // SAFETY: AVX-512F, the one target feature `stream::copy`
            // enables, was detected just above.
            return unsafe { stream::copy(dst, src) };
        }
        dst.copy_from_slice(src);
    }

    /// Mutable view for in-place production (the `dc_alloc`/`dc_commit`
    /// zero-copy path: the simulation computes directly in shared memory).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // Declare the write to the race detector (no-op unless `check`).
        self.buffer.tracker.write(self.offset, self.len);
        // SAFETY: exclusive borrow of the segment + allocator disjointness.
        unsafe { std::slice::from_raw_parts_mut(self.buffer.base().add(self.offset), self.len) }
    }

    /// Shared read view (used by the server after the handle arrives through
    /// the event queue, which provides the happens-before edge).
    pub fn as_slice(&self) -> &[u8] {
        // Declare the read to the race detector (no-op unless `check`).
        self.buffer.tracker.read(self.offset, self.len);
        // SAFETY: `&self` prevents concurrent mutation through this handle;
        // no other handle aliases the range.
        unsafe { std::slice::from_raw_parts(self.buffer.base().add(self.offset), self.len) }
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
            lead: 0,
        };
        self.len = at;
        tail
    }

    /// Narrows the view past its first `n` bytes, which stay part of its
    /// [`reservation`](Self::reservation): releasing the view frees them
    /// too. How the dedicated core keeps a dynamic write's payload without
    /// its shape header, whatever the payload's length.
    pub fn skip(&mut self, n: usize) {
        assert!(n <= self.len, "skip {n} beyond length {}", self.len);
        self.offset += n;
        self.len -= n;
        self.lead += n;
    }

    /// The offset and length of the reservation the segment stands for,
    /// the bytes [`skip`](Self::skip) passed over included: what a release
    /// or a notice names.
    pub fn reservation(&self) -> (usize, usize) {
        (self.offset - self.lead, self.lead + self.len)
    }
}

/// Asks the CPU for the cache line holding `at`, to write (`prefetchw`).
/// A hint: no byte changes and no address faults; a no-op on a CPU
/// without the instruction and in `check` builds.
// ANALYZE: hot
#[inline(always)]
pub(crate) fn prefetch_write<T>(at: *const T) {
    #[cfg(all(target_arch = "x86_64", not(feature = "check")))]
    if *PREFETCHW {
        // SAFETY: `prefetchw` moves a cache line and nothing else: it
        // touches no memory the program sees and faults on no address. The
        // CPU has it (`PREFETCHW`).
        unsafe { std::arch::asm!("prefetchw [{0}]", in(reg) at, options(nostack, readonly)) };
    }
    let _ = at;
}

/// CPUID 8000_0001h, ECX bit 8: a CPU without `prefetchw` may fault on it.
#[cfg(all(target_arch = "x86_64", not(feature = "check")))]
static PREFETCHW: std::sync::LazyLock<bool> = std::sync::LazyLock::new(|| {
    use std::arch::x86_64::__cpuid;
    __cpuid(0x8000_0000).eax >= 0x8000_0001 && __cpuid(0x8000_0001).ecx & (1 << 8) != 0
});

/// The streamed copy: a plain head copy up to the destination's next
/// 64-byte boundary, four whole lines per step with unaligned 512-bit
/// loads and non-temporal 512-bit stores, a plain tail copy, and an
/// `sfence`. Streaming stores are weakly ordered — later stores may pass
/// them — so the fence is what keeps the `Release` store that publishes
/// the segment (the queue's `seq`, the notice ring's `head`) behind the
/// data.
#[cfg(all(target_arch = "x86_64", not(feature = "check")))]
mod stream {
    use std::arch::x86_64::{__m512i, _mm512_loadu_si512, _mm512_stream_si512, _mm_sfence};

    /// Payloads from this many bytes on are streamed. A cached store
    /// first reads its destination line for ownership, and a ring line was
    /// last read by the dedicated core; a streaming store writes the whole
    /// line without reading it. Below this the head and tail copies and
    /// the fence cost more than the reads saved. `write` p50 on a 2-CPU
    /// AVX-512 host:
    ///
    /// | payload | `copy_nonoverlapping` | streamed |
    /// |---|---|---|
    /// | 1 KiB | 1.08–1.09 µs | 1.15–1.23 µs |
    /// | 4 KiB | 1.87–1.90 µs | 1.48–1.57 µs |
    /// | 16 KiB | 3.59–3.72 µs | 3.05–3.31 µs |
    /// | 64 KiB | 11.7–12.7 µs | 8.9–9.8 µs |
    ///
    /// 16-byte SSE2 streaming stores measured no better than the plain
    /// copy (64 KiB copy phase 8.6–8.7 µs against 5.8–6.7 µs streamed), so
    /// a CPU without AVX-512F copies plainly at every length.
    pub(super) const MIN_LEN: usize = 4096;

    /// Bytes per streamed step: four 64-byte lines.
    const STEP: usize = 256;

    /// Whether this CPU has AVX-512F (`is_x86_feature_detected!` caches
    /// the answer: one load per call).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f")
    }

    /// Copies the first `min(dst.len(), src.len())` bytes of `src` into
    /// `dst`.
    #[target_feature(enable = "avx512f")]
    pub(super) fn copy(dst: &mut [u8], src: &[u8]) {
        let len = src.len().min(dst.len());
        let dst = dst.as_mut_ptr();
        let head = dst.align_offset(64).min(len);
        let lines = (len - head) / STEP * STEP;
        // SAFETY: every pointer below stays inside the first `len` bytes
        // of `src` or of `dst`, which are two slices and so do not
        // overlap: `head + lines <= len`, and each step reads and writes
        // `STEP` bytes at an offset below `head + lines`. The stores are
        // 64-byte aligned: `dst + head` is.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), dst, head);
            let (mut from, mut to) = (src.as_ptr().add(head), dst.add(head));
            let end = to.add(lines);
            while to < end {
                let a = _mm512_loadu_si512(from as *const __m512i);
                let b = _mm512_loadu_si512(from.add(64) as *const __m512i);
                let c = _mm512_loadu_si512(from.add(128) as *const __m512i);
                let d = _mm512_loadu_si512(from.add(192) as *const __m512i);
                _mm512_stream_si512(to as *mut __m512i, a);
                _mm512_stream_si512(to.add(64) as *mut __m512i, b);
                _mm512_stream_si512(to.add(128) as *mut __m512i, c);
                _mm512_stream_si512(to.add(192) as *mut __m512i, d);
                from = from.add(STEP);
                to = to.add(STEP);
            }
            std::ptr::copy_nonoverlapping(from, to, len - head - lines);
            _mm_sfence();
        }
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

    /// A prefetch is a hint: at and past the buffer's end, and over a
    /// window whose first byte is not on a line boundary, it changes no
    /// byte and does not panic.
    #[test]
    fn a_prefetch_changes_no_byte() {
        let buf = SharedBuffer::new(1024);
        buf.segment(0, 1024).copy_from_slice(&[7; 1024]);
        let window = buf.window(8, 1000);
        for (offset, len) in [(0, 300), (990, 4000), (1000, 8), (usize::MAX - 4, 100)] {
            window.prefetch_copy(offset, len);
        }
        assert!(buf.segment(0, 1024).as_slice().iter().all(|&b| b == 7));
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
    fn skip_keeps_the_reservation() {
        let buf = SharedBuffer::new(32);
        let mut seg = buf.segment(8, 16);
        seg.skip(16);
        assert_eq!((seg.offset(), seg.len()), (24, 0));
        assert_eq!(seg.reservation(), (8, 16));
        assert_eq!(seg.position(), 8);
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
            let buf = SharedBuffer::from_region(Arc::clone(&region)).window(64, 1024);
            assert_eq!(buf.capacity(), 1024);
            let mut seg = buf.segment(8, 4);
            seg.copy_from_slice(&[9, 8, 7, 6]);
            assert_eq!(seg.as_slice(), &[9, 8, 7, 6]);
        }
        // The write landed in the file at data_offset + segment offset and
        // survived the unmap — the property kill -9 recovery relies on.
        let region = Arc::new(crate::backing::MapRegion::open(&path).unwrap());
        let buf = SharedBuffer::from_region(region).window(64, 1024);
        let seg = buf.segment(8, 4);
        assert_eq!(seg.as_slice(), &[9, 8, 7, 6]);
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    #[should_panic(expected = "exceeds buffer")]
    fn mapped_backing_window_must_fit() {
        let dir = std::env::temp_dir().join("damaris-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("overflow-{}", crate::backing::this_pid()));
        let _ = std::fs::remove_file(&path);
        let region = Arc::new(crate::backing::MapRegion::create(&path, 1024).unwrap());
        let _ = std::fs::remove_file(&path);
        let _ = SharedBuffer::from_region(region).window(512, 1024);
    }

    /// The guard byte around every copy's window.
    const GUARD: u8 = 0xA5;

    /// Copies every length `0..=9_000` to every destination alignment
    /// `0..64` from source offsets 0, 1 and 7 with `copy`, into a window of
    /// `buf` fenced by 64 guard bytes on each side, and checks the window
    /// holds exactly what `copy_nonoverlapping` leaves: the source bytes,
    /// guards untouched.
    fn check_copies(buf: &Arc<SharedBuffer>, copy: impl Fn(&mut Segment, &[u8])) {
        const MAX: usize = 9_000;
        let src: Vec<u8> = (0..MAX + 8).map(|i| (i * 131 + i / 255) as u8).collect();
        let base = buf.base() as usize;
        for dst_align in 0..64 {
            // The segment starts 64 bytes or more into the buffer, at
            // `dst_align` past a 64-byte boundary.
            let offset = 64 + (dst_align + 64 - base % 64) % 64;
            assert_eq!((base + offset) % 64, dst_align);
            for src_offset in [0, 1, 7] {
                for len in 0..=MAX {
                    let mut window = buf.segment(offset - 64, len + 128);
                    window.as_mut_slice().fill(GUARD);
                    let src = &src[src_offset..src_offset + len];
                    copy(&mut buf.segment(offset, len), src);
                    let (before, rest) = window.as_slice().split_at(64);
                    let (copied, after) = rest.split_at(len);
                    assert!(
                        copied == src && before == [GUARD; 64] && after == [GUARD; 64],
                        "len {len}, destination at {dst_align} mod 64, source at +{src_offset}"
                    );
                }
            }
        }
    }

    /// A buffer with room for [`check_copies`]' largest window at every
    /// alignment.
    const CHECK_CAPACITY: usize = 9_000 + 256;

    /// The streaming kernel itself, at every length (below the threshold
    /// too), when this CPU has it.
    #[test]
    fn byte_identical_streamed_kernel() {
        #[cfg(target_arch = "x86_64")]
        let streams = stream::available();
        #[cfg(not(target_arch = "x86_64"))]
        let streams = false;
        println!(
            "shm copy: avx512f={streams}; from 4096 B a write copies with {}",
            if streams {
                "the streamed kernel (64-byte non-temporal stores)"
            } else {
                "copy_nonoverlapping; streamed kernel not covered"
            }
        );
        #[cfg(target_arch = "x86_64")]
        if streams {
            check_copies(&SharedBuffer::new(CHECK_CAPACITY), |seg, src| {
                // SAFETY: AVX-512F, the kernel's target feature, was
                // detected above.
                unsafe { stream::copy(seg.as_mut_slice(), src) }
            });
        }
    }

    /// What a write runs — the dispatch — over the heap.
    #[test]
    fn byte_identical_segment_copy_on_the_heap() {
        check_copies(&SharedBuffer::new(CHECK_CAPACITY), Segment::copy_from_slice);
    }

    /// What a write runs over a file mapping.
    #[cfg(unix)]
    #[test]
    fn byte_identical_segment_copy_over_a_mapping() {
        let dir = std::env::temp_dir().join("damaris-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("streamed-{}", crate::backing::this_pid()));
        let region = crate::backing::MapRegion::create(&path, CHECK_CAPACITY + 64).unwrap();
        std::fs::remove_file(&path).unwrap();
        let buf = SharedBuffer::from_region(Arc::new(region)).window(64, CHECK_CAPACITY);
        check_copies(&buf, Segment::copy_from_slice);
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
