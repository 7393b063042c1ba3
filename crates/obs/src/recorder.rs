//! The [`Recorder`]: the handle the instrumented hot paths hold.
//!
//! A recorder is either *disabled* (a `None` inner — every call is a
//! branch-and-return) or *enabled*, in which case it stamps
//! [`TraceRecord`]s against a shared monotonic anchor and appends them to
//! a [`TraceRing`]. With the `noop` cargo feature the whole body compiles
//! away, giving the zero-cost floor the `<5%` overhead budget is measured
//! against (see `obs_overhead` in `crates/bench`).
//!
//! Span convention: `let t = rec.begin();` before the work,
//! `rec.end(kind, iteration, bytes, t);` after. `begin()` on a disabled
//! recorder returns 0 and `end` ignores it, so the hot path pays one
//! branch, not a clock read.

use crate::ring::TraceRing;
use damaris_format::trace::{EventKind, TraceRecord};
use damaris_shm::sync::Arc;
use std::time::Instant;

struct RecInner {
    ring: Arc<TraceRing>,
    /// All timestamps are nanoseconds since this anchor, so records from
    /// every rank on the node share one timeline.
    anchor: Instant,
    rank: u32,
    /// OR-ed into every record's flags (e.g. `FLAG_SERVER`).
    flags: u16,
}

/// Cheap-to-clone recording handle. See module docs for the span idiom.
#[derive(Clone)]
pub struct Recorder {
    inner: Option<Arc<RecInner>>,
}

impl Recorder {
    /// A recorder that drops everything (observability disabled).
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A recorder appending to `ring`, stamping `rank` and `flags` into
    /// every record and timing against `anchor`.
    pub fn new(ring: Arc<TraceRing>, anchor: Instant, rank: u32, flags: u16) -> Recorder {
        if cfg!(feature = "noop") {
            return Recorder::disabled();
        }
        Recorder {
            inner: Some(Arc::new(RecInner {
                ring,
                anchor,
                rank,
                flags,
            })),
        }
    }

    /// A clone of this recorder with a different rank stamp (used when one
    /// node-level config fans out to per-client recorders).
    pub fn with_rank(&self, rank: u32) -> Recorder {
        Recorder {
            inner: self.inner.as_ref().map(|i| {
                Arc::new(RecInner {
                    ring: Arc::clone(&i.ring),
                    anchor: i.anchor,
                    rank,
                    flags: i.flags,
                })
            }),
        }
    }

    /// True when recording is active (false when disabled or `noop`).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The ring this recorder appends to, if enabled (the flusher side
    /// needs it).
    pub fn ring(&self) -> Option<&Arc<TraceRing>> {
        self.inner.as_ref().map(|i| &i.ring)
    }

    /// Nanoseconds since the shared anchor; 0 when disabled.
    // ANALYZE: hot
    #[inline]
    pub fn begin(&self) -> u64 {
        match &self.inner {
            Some(i) => i.anchor.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Closes a span opened with [`begin`](Self::begin): records an event
    /// whose duration is now minus `start_ns`. Returns the end timestamp
    /// (0 when disabled) so back-to-back spans can chain — the next span's
    /// start — halving the clock reads on instrumented hot paths.
    // ANALYZE: hot
    #[inline]
    pub fn end(&self, kind: EventKind, iteration: u32, bytes: u64, start_ns: u64) -> u64 {
        match &self.inner {
            Some(i) => {
                let now = i.anchor.elapsed().as_nanos() as u64;
                i.ring.push(TraceRecord {
                    t_ns: start_ns,
                    dur_ns: now.saturating_sub(start_ns),
                    bytes,
                    rank: i.rank,
                    iteration,
                    kind: kind as u16,
                    flags: i.flags,
                    pad: 0,
                });
                now
            }
            None => 0,
        }
    }

    /// Records a span from explicit start and end timestamps — no clock
    /// read. For enclosing spans whose boundaries were already stamped by
    /// inner chained spans (e.g. a write call wrapping alloc/copy/push).
    // ANALYZE: hot
    #[inline]
    pub fn span_at(&self, kind: EventKind, iteration: u32, bytes: u64, start_ns: u64, end_ns: u64) {
        if let Some(i) = &self.inner {
            i.ring.push(TraceRecord {
                t_ns: start_ns,
                dur_ns: end_ns.saturating_sub(start_ns),
                bytes,
                rank: i.rank,
                iteration,
                kind: kind as u16,
                flags: i.flags,
                pad: 0,
            });
        }
    }

    /// Records an event with an externally-measured duration, stamped at
    /// the current time minus that duration.
    // ANALYZE: hot
    #[inline]
    pub fn event(&self, kind: EventKind, iteration: u32, bytes: u64, dur_ns: u64) {
        if let Some(i) = &self.inner {
            let now = i.anchor.elapsed().as_nanos() as u64;
            i.ring.push(TraceRecord {
                t_ns: now.saturating_sub(dur_ns),
                dur_ns,
                bytes,
                rank: i.rank,
                iteration,
                kind: kind as u16,
                flags: i.flags,
                pad: 0,
            });
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(i) => write!(f, "Recorder(rank={}, flags={:#x})", i.rank, i.flags),
            None => write!(f, "Recorder(disabled)"),
        }
    }
}

#[cfg(all(test, not(feature = "check"), not(feature = "noop")))]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        assert_eq!(rec.begin(), 0);
        rec.end(EventKind::WriteCall, 1, 64, 0);
        rec.event(EventKind::Backpressure, 1, 0, 5);
        assert!(rec.ring().is_none());
    }

    #[test]
    fn span_and_event_land_in_ring() {
        let ring = TraceRing::new(16);
        let rec = Recorder::new(Arc::clone(&ring), Instant::now(), 3, 0x1);
        let t = rec.begin();
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.end(EventKind::Memcpy, 7, 4096, t);
        rec.event(EventKind::QueuePush, 7, 0, 1234);
        let mut out = Vec::new();
        assert_eq!(ring.flush_into(&mut out), 2);
        assert_eq!(out[0].event_kind(), Some(EventKind::Memcpy));
        assert_eq!(out[0].rank, 3);
        assert_eq!(out[0].iteration, 7);
        assert_eq!(out[0].bytes, 4096);
        assert_eq!(out[0].flags, 0x1);
        assert!(
            out[0].dur_ns >= 1_000_000,
            "slept 2ms, recorded {}",
            out[0].dur_ns
        );
        assert_eq!(out[1].event_kind(), Some(EventKind::QueuePush));
        assert_eq!(out[1].dur_ns, 1234);
    }

    #[test]
    fn with_rank_rebrands() {
        let ring = TraceRing::new(8);
        let rec = Recorder::new(Arc::clone(&ring), Instant::now(), 0, 0);
        let r5 = rec.with_rank(5);
        let t = r5.begin();
        r5.end(EventKind::AllocWait, 0, 0, t);
        let mut out = Vec::new();
        ring.flush_into(&mut out);
        assert_eq!(out[0].rank, 5);
    }
}
