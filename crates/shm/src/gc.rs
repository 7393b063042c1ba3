//! Startup GC for orphaned node mappings.
//!
//! A `kill -9` leaves the backing file behind by design ([`crate::backing`]):
//! the *same run's* supervisor wants it for respawn-and-replay. But a file
//! whose whole run died — launcher included — is an orphan squatting in
//! `/dev/shm` forever. Every EPE start therefore sweeps its mapping
//! directory before creating its own file:
//!
//! * a file with a valid header whose `creator_pid` no longer exists is a
//!   dead run's leftover → **unlinked** (counted as removed);
//! * a valid header whose creator pid is *alive* but whose last heartbeat
//!   stamp is older than the staleness window is a recycled-pid false
//!   positive or a wedged run → also an orphan → unlinked. (The window
//!   must be generous — pass `None` to disable and trust the pid probe.)
//! * a file matching the prefix but with a bad magic/short header is not
//!   ours to judge → **quarantined** (renamed `<name>.quarantine`) so a
//!   human can inspect it; never silently deleted;
//! * anything else (live creator, fresh beat, or the caller's own file)
//!   is kept.
//!
//! The counts surface in `NodeReport` as `shm_orphans_removed` /
//! `shm_orphans_quarantined`.

use crate::backing::{monotonic_now_ns, pid_alive};
use crate::mapped::{HEADER_BYTES, MAGIC, VERSION};
use std::io::{self, Read};
use std::path::{Path, PathBuf};

/// Outcome of one GC sweep.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct GcReport {
    /// Orphan mappings unlinked (dead creator pid or expired heartbeat).
    pub removed: usize,
    /// Unrecognizable prefix-matching files set aside for inspection.
    pub quarantined: usize,
    /// Valid mappings left alone (live creator).
    pub kept: usize,
    /// Paths of the removed orphans, for the log line.
    pub removed_paths: Vec<PathBuf>,
}

/// Header fields GC needs, decoded from the first [`HEADER_BYTES`] of a
/// candidate file without mapping it.
struct GcHeader {
    magic: u64,
    version: u64,
    creator_pid: u32,
    beat_at_ns: u64,
}

fn read_header(path: &Path) -> io::Result<Option<GcHeader>> {
    let mut file = std::fs::File::open(path)?;
    let mut buf = [0u8; HEADER_BYTES];
    let mut filled = 0;
    while filled < buf.len() {
        match file.read(&mut buf[filled..])? {
            0 => return Ok(None), // shorter than a header: not a mapping
            n => filled += n,
        }
    }
    let word = |off: usize| {
        // invariant: off comes from the fixed header layout, always
        // within the HEADER_BYTES buffer read above.
        u64::from_ne_bytes(buf[off..off + 8].try_into().expect("8-byte slice"))
    };
    Ok(Some(GcHeader {
        magic: word(0),
        version: word(8),
        creator_pid: word(40) as u32,
        beat_at_ns: word(56),
    }))
}

/// Sweeps `dir` for orphaned node mappings named `<prefix>*`. `keep` is
/// the caller's own mapping file (skipped). `stale_after_ns` enables the
/// expired-heartbeat check for live-pid candidates; `None` trusts the
/// pid probe alone.
pub fn scan_orphans(
    dir: &Path,
    prefix: &str,
    keep: Option<&Path>,
    stale_after_ns: Option<u64>,
) -> io::Result<GcReport> {
    let mut report = GcReport::default();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        // A missing directory has no orphans.
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(report),
        Err(e) => return Err(e),
    };
    let now = monotonic_now_ns();
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !name.starts_with(prefix) || name.ends_with(".quarantine") {
            continue;
        }
        if keep.is_some_and(|k| k == path) {
            continue;
        }
        if !entry.file_type()?.is_file() {
            continue;
        }
        match read_header(&path) {
            Ok(Some(h)) if h.magic == MAGIC && h.version == VERSION => {
                let dead = !pid_alive(h.creator_pid);
                // CLOCK_MONOTONIC restarts at boot, so a stamp from a
                // previous boot reads as "in the future"; treat that as
                // expired too (saturating_sub would call it fresh).
                let expired = stale_after_ns
                    .is_some_and(|window| h.beat_at_ns > now || now - h.beat_at_ns > window);
                if dead || expired {
                    std::fs::remove_file(&path)?;
                    report.removed += 1;
                    report.removed_paths.push(path);
                } else {
                    report.kept += 1;
                }
            }
            // Prefix-matching but not a mapping we understand: set it
            // aside rather than guessing.
            Ok(_) => {
                let mut quarantine = path.clone().into_os_string();
                quarantine.push(".quarantine");
                std::fs::rename(&path, &quarantine)?;
                report.quarantined += 1;
            }
            // Raced with a concurrent unlink: fine, it is gone.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::this_pid;
    use crate::mapped::MappedNode;
    use crate::sync::Ordering;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("damaris-gc-{name}-{}", this_pid()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Rewrites a mapping's creator pid to a guaranteed-dead one
    /// (`i32::MAX` is beyond pid_max on any Linux config).
    fn poison_pid(path: &Path) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[40..48].copy_from_slice(&(i32::MAX as u64).to_ne_bytes());
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn dead_pid_mapping_is_removed_live_kept() {
        let dir = tmpdir("deadpid");
        let live = dir.join("node-live");
        let dead = dir.join("node-dead");
        let _live_node = MappedNode::create(&live, 2, 1024, 4).unwrap();
        MappedNode::create(&dead, 2, 1024, 4).unwrap();
        poison_pid(&dead);
        let report = scan_orphans(&dir, "node-", None, None).unwrap();
        assert_eq!(report.removed, 1);
        assert_eq!(report.kept, 1);
        assert_eq!(report.removed_paths, vec![dead.clone()]);
        assert!(!dead.exists());
        assert!(live.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn own_mapping_is_skipped_even_if_dead() {
        let dir = tmpdir("keep");
        let own = dir.join("node-own");
        MappedNode::create(&own, 1, 512, 2).unwrap();
        poison_pid(&own);
        let report = scan_orphans(&dir, "node-", Some(&own), None).unwrap();
        assert_eq!(report.removed, 0);
        assert!(own.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_is_quarantined_not_deleted() {
        let dir = tmpdir("garbage");
        std::fs::write(dir.join("node-junk"), vec![0xFFu8; 4096]).unwrap();
        std::fs::write(dir.join("node-short"), b"tiny").unwrap();
        std::fs::write(dir.join("unrelated"), b"left alone").unwrap();
        let report = scan_orphans(&dir, "node-", None, None).unwrap();
        assert_eq!(report.quarantined, 2);
        assert_eq!(report.removed, 0);
        assert!(dir.join("node-junk.quarantine").exists());
        assert!(dir.join("node-short.quarantine").exists());
        assert!(dir.join("unrelated").exists());
        // A second sweep leaves quarantined files alone.
        let report = scan_orphans(&dir, "node-", None, None).unwrap();
        assert_eq!(report.quarantined, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn expired_heartbeat_with_live_pid_is_removed() {
        // Recycled-pid scenario: the creator pid exists (it is us!) but
        // the heartbeat stamp is ancient.
        let dir = tmpdir("expired");
        let path = dir.join("node-stale");
        let node = MappedNode::create(&path, 1, 512, 2).unwrap();
        node.beat_at_ns().store(1, Ordering::Relaxed); // ~boot time
        drop(node);
        // Pid probe alone keeps it...
        let report = scan_orphans(&dir, "node-", None, None).unwrap();
        assert_eq!((report.removed, report.kept), (0, 1));
        // ...the staleness window removes it.
        let report = scan_orphans(&dir, "node-", None, Some(1_000_000)).unwrap();
        assert_eq!(report.removed, 1);
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_empty_report() {
        let report =
            scan_orphans(Path::new("/nonexistent-damaris-gc"), "node-", None, None).unwrap();
        assert_eq!(report, GcReport::default());
    }
}
