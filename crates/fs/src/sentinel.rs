//! Disk-space accounting for storage-pressure degradation.
//!
//! A [`DiskSentinel`] tracks bytes written through a backend against a
//! configurable quota, and reports a [`PressureLevel`] derived from two
//! watermarks. The EPE's pressure state machine (`crates/core`) polls the
//! level to decide when to degrade (pause the compactor, gc superseded
//! files) and when to stop accepting iterations entirely; chaos tests
//! drive the quota down mid-run to simulate a filling disk and raise it
//! again to verify the node re-ascends.
//!
//! The sentinel is *accounting*, not enforcement policy: backends call
//! [`DiskSentinel::try_reserve`] before committing and fail the commit
//! with a real `ENOSPC` (`io::Error::from_raw_os_error(28)`) when the
//! reservation would exceed the quota — exactly the error a full file
//! system hands back — so every consumer above the backend exercises its
//! genuine no-space path.

use std::sync::atomic::{AtomicU64, Ordering};

/// `ENOSPC` — the errno a full disk produces on Linux.
pub const ENOSPC: i32 = 28;
/// `EDQUOT` — the errno a blown user/group quota produces on Linux.
pub const EDQUOT: i32 = 122;
/// `EROFS` — read-only file system (storage remounted after errors).
pub const EROFS: i32 = 30;

/// How full the quota is, with hysteresis boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PressureLevel {
    /// Below the high watermark: business as usual.
    Normal,
    /// At or above the high watermark but below the quota: space is
    /// running out; amplifying work (compaction) should stop and
    /// reclaimable files should be collected.
    High,
    /// At or above the quota: new writes will fail with `ENOSPC`.
    Full,
}

/// Tracks bytes used against a quota with high/low watermarks.
///
/// All methods are lock-free; the sentinel is shared (`Arc`) between the
/// backend that charges it, the EPE loop that polls it, and the chaos
/// harness that squeezes it.
#[derive(Debug)]
pub struct DiskSentinel {
    /// Byte quota; `u64::MAX` means unlimited.
    quota: AtomicU64,
    /// Bytes currently charged (written minus released).
    used: AtomicU64,
    /// Percent of quota at which [`PressureLevel::High`] begins.
    high_pct: u64,
    /// Percent of quota below which pressure is considered relieved
    /// (hysteresis for the state machine's descent back to normal).
    low_pct: u64,
}

impl DiskSentinel {
    /// Default high watermark (percent of quota).
    pub const DEFAULT_HIGH_PCT: u64 = 85;
    /// Default low watermark (percent of quota).
    pub const DEFAULT_LOW_PCT: u64 = 70;

    /// No quota: never reports pressure, reservations always succeed.
    pub fn unlimited() -> Self {
        Self::with_quota(u64::MAX)
    }

    /// A quota of `quota` bytes with default watermarks.
    pub fn with_quota(quota: u64) -> Self {
        DiskSentinel {
            quota: AtomicU64::new(quota),
            used: AtomicU64::new(0),
            high_pct: Self::DEFAULT_HIGH_PCT,
            low_pct: Self::DEFAULT_LOW_PCT,
        }
    }

    /// Overrides the watermarks (percent of quota, `low < high <= 100`).
    pub fn with_watermarks(mut self, high_pct: u64, low_pct: u64) -> Self {
        assert!(
            low_pct < high_pct && high_pct <= 100,
            "watermarks must satisfy low < high <= 100"
        );
        self.high_pct = high_pct;
        self.low_pct = low_pct;
        self
    }

    /// Current quota in bytes (`u64::MAX` = unlimited).
    pub fn quota(&self) -> u64 {
        self.quota.load(Ordering::Relaxed)
    }

    /// Replaces the quota. Chaos scenarios squeeze (and later restore)
    /// space this way; `u64::MAX` lifts the quota entirely.
    pub fn set_quota(&self, quota: u64) {
        self.quota.store(quota, Ordering::Relaxed);
    }

    /// Bytes currently charged.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Charges `bytes` unconditionally (post-write accounting).
    pub fn charge(&self, bytes: u64) {
        self.used.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Returns `bytes` to the pool (a file was deleted). Saturates at
    /// zero so double-releases under races stay harmless.
    pub fn release(&self, bytes: u64) {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self
                .used
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Whether `bytes` more would still fit under the quota. Does *not*
    /// charge — the backend charges the actual total after the write.
    pub fn try_reserve(&self, bytes: u64) -> bool {
        let quota = self.quota();
        if quota == u64::MAX {
            return true;
        }
        self.used().saturating_add(bytes) <= quota
    }

    /// The current pressure level against the watermarks.
    pub fn level(&self) -> PressureLevel {
        let quota = self.quota();
        if quota == u64::MAX {
            return PressureLevel::Normal;
        }
        let used = self.used();
        if used >= quota {
            PressureLevel::Full
        } else if used.saturating_mul(100) >= quota.saturating_mul(self.high_pct) {
            PressureLevel::High
        } else {
            PressureLevel::Normal
        }
    }

    /// Whether usage has dropped below the *low* watermark — the
    /// hysteresis gate the pressure state machine uses before declaring
    /// the incident over (so usage hovering around the high watermark
    /// does not flap the node between states).
    pub fn below_low(&self) -> bool {
        let quota = self.quota();
        if quota == u64::MAX {
            return true;
        }
        self.used().saturating_mul(100) < quota.saturating_mul(self.low_pct)
    }
}

/// A real `ENOSPC` I/O error, as a full file system would produce.
pub fn no_space_error() -> std::io::Error {
    std::io::Error::from_raw_os_error(ENOSPC)
}

/// Classifies an I/O error as *storage exhaustion* — the permanent class
/// (`ENOSPC`/`EDQUOT`/`EROFS`) that retrying with backoff cannot fix and
/// that must escalate to the pressure state machine instead.
pub fn is_no_space_io(err: &std::io::Error) -> bool {
    matches!(err.raw_os_error(), Some(ENOSPC | EDQUOT | EROFS))
}

/// [`is_no_space_io`] over the SDF error type the backend trait returns.
pub fn is_no_space(err: &damaris_format::SdfError) -> bool {
    match err {
        damaris_format::SdfError::Io(io) => is_no_space_io(io),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_pressured() {
        let s = DiskSentinel::unlimited();
        s.charge(u64::MAX / 2);
        assert_eq!(s.level(), PressureLevel::Normal);
        assert!(s.try_reserve(u64::MAX / 2));
        assert!(s.below_low());
    }

    #[test]
    fn levels_follow_watermarks() {
        let s = DiskSentinel::with_quota(1000).with_watermarks(85, 70);
        assert_eq!(s.level(), PressureLevel::Normal);
        s.charge(699);
        assert_eq!(s.level(), PressureLevel::Normal);
        assert!(s.below_low());
        s.charge(1); // 700: at low watermark, no longer "below"
        assert!(!s.below_low());
        s.charge(149); // 849
        assert_eq!(s.level(), PressureLevel::Normal);
        s.charge(1); // 850: high watermark
        assert_eq!(s.level(), PressureLevel::High);
        s.charge(150); // 1000: full
        assert_eq!(s.level(), PressureLevel::Full);
        s.release(301); // 699
        assert_eq!(s.level(), PressureLevel::Normal);
        assert!(s.below_low());
    }

    #[test]
    fn reserve_checks_without_charging() {
        let s = DiskSentinel::with_quota(100);
        assert!(s.try_reserve(100));
        assert_eq!(s.used(), 0);
        s.charge(60);
        assert!(s.try_reserve(40));
        assert!(!s.try_reserve(41));
    }

    #[test]
    fn release_saturates() {
        let s = DiskSentinel::with_quota(100);
        s.charge(10);
        s.release(50);
        assert_eq!(s.used(), 0);
    }

    #[test]
    fn quota_squeeze_and_lift() {
        let s = DiskSentinel::with_quota(u64::MAX);
        s.charge(500);
        assert_eq!(s.level(), PressureLevel::Normal);
        s.set_quota(400); // chaos squeezes below current usage
        assert_eq!(s.level(), PressureLevel::Full);
        assert!(!s.try_reserve(1));
        s.set_quota(u64::MAX); // lift
        assert_eq!(s.level(), PressureLevel::Normal);
    }

    #[test]
    fn enospc_classification() {
        assert!(is_no_space_io(&no_space_error()));
        assert!(is_no_space_io(&std::io::Error::from_raw_os_error(EDQUOT)));
        assert!(is_no_space_io(&std::io::Error::from_raw_os_error(EROFS)));
        assert!(!is_no_space_io(&std::io::Error::other("transient")));
        assert!(is_no_space(&damaris_format::SdfError::Io(no_space_error())));
        assert!(!is_no_space(&damaris_format::SdfError::Usage("x".into())));
    }
}
