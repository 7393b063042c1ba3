//! Startup recovery scan for a storage directory.
//!
//! After a crash (or under fault injection) a backend directory can hold:
//!
//! * `*.sdf.tmp` orphans — commits that never finished. The atomic rename
//!   protocol guarantees no reader ever saw them; they are deleted.
//! * torn `*.sdf` files — published files whose payload or index checksums
//!   no longer verify (e.g. the node died before data reached the
//!   platters). These are *quarantined*: renamed to `*.sdf.quarantined` so
//!   they drop out of [`StorageBackend::list_sdf_files`] listings and
//!   downstream consumers, but remain on disk for post-mortem.
//! * valid `*.sdf` files — counted and left alone.
//!
//! The scan is cheap (per-payload CRC pass, no decompression) and is run
//! by the node runtime before serving, mirroring how journal replay works
//! in real storage systems.

use crate::backend::{StorageBackend, TMP_SUFFIX};
use damaris_format::SdfReader;
use std::path::{Path, PathBuf};

/// Suffix given to quarantined (corrupt) SDF files.
pub const QUARANTINE_SUFFIX: &str = ".quarantined";

/// What a recovery scan found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `*.sdf` files whose checksums verified.
    pub valid: Vec<PathBuf>,
    /// Corrupt `*.sdf` files renamed to `*.sdf.quarantined` (original
    /// relative paths).
    pub quarantined: Vec<PathBuf>,
    /// Orphan `*.tmp` files deleted (relative paths).
    pub removed_tmp: Vec<PathBuf>,
    /// Valid `*.sdf` files persisted as *partial iterations* — some ranks
    /// were fenced (client failure) before contributing, and the persist
    /// plugin stamped the surviving datasets with a `presence_bitmap`
    /// attribute (bit `r` set = rank `r` completed the iteration). The
    /// files are sound and stay in place; the bitmap tells downstream
    /// consumers which ranks' data to expect. Each entry is
    /// `(relative path, bitmap)`.
    pub partial: Vec<(PathBuf, u64)>,
    /// Files the scan could not handle (relative path, reason) — e.g. a
    /// corrupt file whose quarantine rename failed because the directory is
    /// read-only. The scan keeps going; callers decide whether partial
    /// recovery is acceptable.
    pub failed: Vec<(PathBuf, String)>,
    /// Manifest entries dropped because the file they referenced is gone
    /// or was quarantined this pass (the reader tier must not be pointed
    /// at data that no longer verifies).
    pub manifest_pruned: Vec<PathBuf>,
    /// Valid `node-*/iter-*.sdf` files adopted *into* the manifest: the
    /// EPE crashed in the window between the commit rename and the
    /// manifest publish, so the file was sealed but unpublished.
    pub manifest_adopted: Vec<PathBuf>,
}

impl RecoveryReport {
    /// True when the directory was already clean and nothing went wrong.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.removed_tmp.is_empty() && self.failed.is_empty()
    }

    /// Total recovery actions taken (deletions + quarantines).
    pub fn actions(&self) -> u64 {
        (self.quarantined.len() + self.removed_tmp.len()) as u64
    }
}

/// Scans `root` recursively; deletes `*.tmp` orphans and quarantines
/// corrupt `*.sdf` files. Returns what it did.
///
/// Degrades rather than aborts: a missing `root` (first run — the backend
/// has written nothing yet) reports clean, and a file that cannot be
/// removed or renamed (read-only directory, name collision) lands in
/// [`RecoveryReport::failed`] while the scan continues with the rest.
pub fn recover_dir(root: &Path) -> std::io::Result<RecoveryReport> {
    let mut report = RecoveryReport::default();
    let mut stack = vec![root.to_path_buf()];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && dir == root => {
                return Ok(report); // nothing persisted yet — clean by definition
            }
            Err(e) => return Err(e),
        };
        for entry in entries {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let name = path.to_string_lossy();
        if crate::local::is_spare(&path) {
            // An empty file no commit ever named (see
            // `LocalDirBackend::commit_sdf`): nothing to report, and an
            // owner still alive creates its next file itself.
            let _ = std::fs::remove_file(&path);
        } else if name.ends_with(TMP_SUFFIX) {
            match std::fs::remove_file(&path) {
                Ok(()) => report.removed_tmp.push(rel),
                Err(e) => report.failed.push((rel, format!("remove tmp: {e}"))),
            }
        } else if name.ends_with(".sdf") {
            match SdfReader::open(&path).and_then(|r| r.validate().map(|()| r)) {
                Ok(reader) => {
                    if let Some(bitmap) = presence_bitmap(&reader) {
                        report.partial.push((rel.clone(), bitmap));
                    }
                    report.valid.push(rel);
                }
                Err(_) => {
                    let mut q = path.as_os_str().to_os_string();
                    q.push(QUARANTINE_SUFFIX);
                    match std::fs::rename(&path, PathBuf::from(q)) {
                        Ok(()) => report.quarantined.push(rel),
                        Err(e) => report.failed.push((rel, format!("quarantine: {e}"))),
                    }
                }
            }
        }
    }
    reconcile_manifest(root, &mut report);
    Ok(report)
}

/// Brings the manifest (if one exists) back in line with what the scan
/// found on disk: entries whose file vanished or was quarantined are
/// dropped, and sealed-but-unpublished iteration files (crash between the
/// commit rename and the manifest publish) are adopted. A corrupt
/// manifest is quarantined like a torn SDF file — readers then start from
/// an empty manifest and adoption repopulates it.
fn reconcile_manifest(root: &Path, report: &mut RecoveryReport) {
    use crate::manifest::{self, EntryKind, Manifest, ManifestEntry, ManifestError};

    let manifest_path = root.join(manifest::MANIFEST_NAME);
    let had_manifest = manifest_path.exists();
    if !had_manifest {
        return; // directory never used the read tier; nothing to reconcile
    }
    // Serialize against concurrent recoveries / publishers sharing the root.
    let _lock = match manifest::ManifestLock::acquire(root) {
        Ok(l) => l,
        Err(e) => {
            report
                .failed
                .push((PathBuf::from(manifest::MANIFEST_NAME), format!("lock: {e}")));
            return;
        }
    };
    // A torn tail is rewritten as a checkpoint, not quarantined.
    let (mut m, mut changed) = match manifest::load_log(root) {
        Ok(loaded) => loaded,
        Err(ManifestError::Corrupt(_)) => {
            let mut q = manifest_path.as_os_str().to_os_string();
            q.push(QUARANTINE_SUFFIX);
            match std::fs::rename(&manifest_path, PathBuf::from(q)) {
                Ok(()) => report
                    .quarantined
                    .push(PathBuf::from(manifest::MANIFEST_NAME)),
                Err(e) => report.failed.push((
                    PathBuf::from(manifest::MANIFEST_NAME),
                    format!("quarantine: {e}"),
                )),
            }
            (Manifest::default(), false)
        }
        Err(e) => {
            report
                .failed
                .push((PathBuf::from(manifest::MANIFEST_NAME), format!("load: {e}")));
            return;
        }
    };

    // Drop entries pointing at files that no longer verify.
    let valid: std::collections::HashSet<&Path> =
        report.valid.iter().map(PathBuf::as_path).collect();
    m.entries.retain(|e| {
        let keep = valid.contains(Path::new(&e.file));
        if !keep {
            report.manifest_pruned.push(PathBuf::from(&e.file));
            changed = true;
        }
        keep
    });
    // Adopt sealed-but-unpublished iteration files (the reconcile only
    // runs when a manifest already exists, so directories that never used
    // the read tier don't sprout one from a recovery scan).
    for rel in &report.valid {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if m.references(&rel_str) {
            continue;
        }
        let Some((node, iteration)) = parse_iteration_file(&rel_str) else {
            continue;
        };
        if m.covers(node, iteration) {
            continue; // already reachable through a compacted span
        }
        let bytes = std::fs::metadata(root.join(rel))
            .map(|md| md.len())
            .unwrap_or(0);
        m.entries.push(ManifestEntry {
            file: rel_str,
            node,
            kind: EntryKind::Iteration(iteration),
            bytes,
        });
        report.manifest_adopted.push(rel.clone());
        changed = true;
    }
    if changed {
        // One generation for the reconcile: never a step back.
        m.generation += 1;
        if let Err(e) = m.store(root) {
            report.failed.push((
                PathBuf::from(manifest::MANIFEST_NAME),
                format!("store: {e}"),
            ));
        }
    }
}

/// Parses `node-<n>/iter-<k>.sdf` (the persist plugin's naming scheme)
/// into `(node, iteration)`.
pub(crate) fn parse_iteration_file(rel: &str) -> Option<(u32, u32)> {
    let (dir, file) = rel.split_once('/')?;
    let node = dir.strip_prefix("node-")?.parse::<u32>().ok()?;
    let iteration = file
        .strip_prefix("iter-")?
        .strip_suffix(".sdf")?
        .parse::<u32>()
        .ok()?;
    Some((node, iteration))
}

/// The file's presence bitmap, if any dataset was stamped with one (the
/// persist plugin stamps every dataset of a partial iteration, so the
/// first hit is authoritative).
fn presence_bitmap(reader: &SdfReader) -> Option<u64> {
    reader
        .dataset_names()
        .iter()
        .filter_map(|name| reader.info(name))
        .find_map(|info| info.attr("presence_bitmap").and_then(|v| v.as_i64()))
        .map(|v| v as u64)
}

/// [`recover_dir`] over a backend's root.
pub fn recover(backend: &dyn StorageBackend) -> std::io::Result<RecoveryReport> {
    recover_dir(backend.root())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalDirBackend;
    use damaris_format::{DataType, Layout};

    fn write_valid(b: &LocalDirBackend, name: &str) {
        let mut w = b.begin_sdf(name).unwrap();
        let layout = Layout::new(DataType::F32, &[8]);
        w.write_dataset_f32("/v", &layout, &[2.0; 8]).unwrap();
        b.commit_sdf(w).unwrap();
    }

    #[test]
    fn clean_directory_reports_clean() {
        let b = LocalDirBackend::scratch("recover-clean").unwrap();
        write_valid(&b, "a.sdf");
        write_valid(&b, "sub/b.sdf");
        let report = recover(&b).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.valid.len(), 2);
        assert_eq!(report.actions(), 0);
    }

    #[test]
    fn orphan_tmp_removed_and_torn_quarantined() {
        let b = LocalDirBackend::scratch("recover-dirty").unwrap();
        write_valid(&b, "good.sdf");

        // Orphan tmp: a begin that never committed.
        let mut w = b.begin_sdf("orphan.sdf").unwrap();
        let layout = Layout::new(DataType::F32, &[8]);
        w.write_dataset_f32("/v", &layout, &[3.0; 8]).unwrap();
        drop(w);

        // Torn file: published, then truncated behind the protocol's back.
        write_valid(&b, "torn.sdf");
        let torn = b.path_of("torn.sdf");
        let len = std::fs::metadata(&torn).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&torn)
            .unwrap()
            .set_len(len / 3)
            .unwrap();

        let report = recover(&b).unwrap();
        assert_eq!(report.valid, vec![PathBuf::from("good.sdf")]);
        assert_eq!(report.quarantined, vec![PathBuf::from("torn.sdf")]);
        assert_eq!(report.removed_tmp, vec![PathBuf::from("orphan.sdf.tmp")]);
        assert_eq!(report.actions(), 2);

        // The quarantined file is out of listings but still on disk.
        assert_eq!(b.list_sdf_files().unwrap(), vec![PathBuf::from("good.sdf")]);
        assert!(b.path_of("torn.sdf.quarantined").exists());
        assert!(!b.path_of("orphan.sdf.tmp").exists());

        // A second scan finds nothing left to do.
        assert!(recover(&b).unwrap().is_clean());
    }

    #[test]
    fn partial_iteration_bitmap_round_trips_through_the_scan() {
        let b = LocalDirBackend::scratch("recover-partial").unwrap();
        write_valid(&b, "complete.sdf");

        // A partial iteration as the persist plugin writes it: every
        // dataset stamped with the presence bitmap (ranks 0, 1 and 3
        // completed; rank 2 was fenced).
        let bitmap: u64 = 0b1011;
        let mut w = b.begin_sdf("node-0/iter-000004.sdf").unwrap();
        let layout = Layout::new(DataType::F32, &[8]);
        for rank in [0u32, 1, 3] {
            w.write_dataset_bytes(
                &format!("/iter-4/rank-{rank}/theta"),
                &layout,
                &[0u8; 32],
                &damaris_format::DatasetOptions::plain()
                    .with_attr("partial", 1i64)
                    .with_attr("presence_bitmap", bitmap as i64),
            )
            .unwrap();
        }
        b.commit_sdf(w).unwrap();

        let report = recover(&b).unwrap();
        // Partial files are valid data — clean, listed, not quarantined.
        assert!(report.is_clean());
        assert_eq!(report.valid.len(), 2);
        assert_eq!(
            report.partial,
            vec![(PathBuf::from("node-0/iter-000004.sdf"), bitmap)]
        );
    }

    #[test]
    fn missing_root_is_clean_first_run() {
        // A backend that never wrote anything has no directory yet; the
        // startup scan must treat that as clean, not as an error.
        let root = std::env::temp_dir().join(format!(
            "damaris-recover-missing-{}-{}",
            std::process::id(),
            line!()
        ));
        assert!(!root.exists());
        let report = recover_dir(&root).unwrap();
        assert!(report.is_clean());
        assert!(report.valid.is_empty());
    }

    #[test]
    fn blocked_quarantine_is_reported_not_fatal() {
        // The quarantine target name is occupied by a directory, so the
        // rename deterministically fails — the scan must record the failure
        // and still handle everything else.
        let b = LocalDirBackend::scratch("recover-blocked").unwrap();
        write_valid(&b, "good.sdf");
        write_valid(&b, "torn.sdf");
        let torn = b.path_of("torn.sdf");
        let len = std::fs::metadata(&torn).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&torn)
            .unwrap()
            .set_len(len / 3)
            .unwrap();
        std::fs::create_dir(b.path_of("torn.sdf.quarantined")).unwrap();

        let report = recover(&b).unwrap();
        assert_eq!(report.valid, vec![PathBuf::from("good.sdf")]);
        assert!(report.quarantined.is_empty());
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].0, PathBuf::from("torn.sdf"));
        assert!(report.failed[0].1.starts_with("quarantine:"));
        assert!(!report.is_clean());
        // Nothing was lost: the corrupt file is still there for a retry
        // once the obstruction is cleared.
        assert!(b.path_of("torn.sdf").exists());
    }

    #[cfg(unix)]
    #[test]
    fn read_only_directory_degrades_to_failed_entries() {
        use std::os::unix::fs::PermissionsExt;
        let b = LocalDirBackend::scratch("recover-readonly").unwrap();
        write_valid(&b, "sub/good.sdf");
        // Leave an orphan tmp in the soon-to-be read-only subdirectory.
        let mut w = b.begin_sdf("sub/orphan.sdf").unwrap();
        let layout = Layout::new(DataType::F32, &[8]);
        w.write_dataset_f32("/v", &layout, &[4.0; 8]).unwrap();
        drop(w);

        let sub = b.path_of("sub");
        std::fs::set_permissions(&sub, std::fs::Permissions::from_mode(0o555)).unwrap();
        // Root (as in CI containers) bypasses permission bits; only run the
        // assertions when the chmod actually bites.
        let chmod_effective = std::fs::File::create(sub.join(".probe")).is_err();
        if chmod_effective {
            let report = recover(&b).unwrap();
            assert_eq!(report.valid, vec![PathBuf::from("sub/good.sdf")]);
            assert_eq!(report.failed.len(), 1);
            assert_eq!(report.failed[0].0, PathBuf::from("sub/orphan.sdf.tmp"));
            assert!(report.failed[0].1.starts_with("remove tmp:"));
        }
        // Restore so scratch cleanup can delete the tree.
        std::fs::set_permissions(&sub, std::fs::Permissions::from_mode(0o755)).unwrap();
        std::fs::remove_file(sub.join(".probe")).ok();
        if !chmod_effective {
            // Still exercise the happy path under privileged runners.
            let report = recover(&b).unwrap();
            assert_eq!(
                report.removed_tmp,
                vec![PathBuf::from("sub/orphan.sdf.tmp")]
            );
        }
    }

    #[test]
    fn corrupt_payload_with_valid_index_is_quarantined() {
        // A bit flip in a payload leaves open() happy (index is fine) but
        // must still fail validate()'s CRC pass.
        let b = LocalDirBackend::scratch("recover-bitflip").unwrap();
        write_valid(&b, "flip.sdf");
        let path = b.path_of("flip.sdf");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0x80; // inside the first payload, after the superblock
        std::fs::write(&path, &bytes).unwrap();
        let report = recover(&b).unwrap();
        assert_eq!(report.quarantined, vec![PathBuf::from("flip.sdf")]);
    }

    #[test]
    fn manifest_entries_for_lost_files_are_pruned() {
        let b = LocalDirBackend::scratch("recover-manifest-prune").unwrap();
        write_valid(&b, "node-0/iter-000000.sdf");
        write_valid(&b, "node-0/iter-000001.sdf");
        crate::manifest::publish_iteration(b.root(), 0, 0, "node-0/iter-000000.sdf", 1).unwrap();
        crate::manifest::publish_iteration(b.root(), 0, 1, "node-0/iter-000001.sdf", 1).unwrap();
        // Tear the second file behind the protocol's back.
        let torn = b.path_of("node-0/iter-000001.sdf");
        let len = std::fs::metadata(&torn).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&torn)
            .unwrap()
            .set_len(len / 3)
            .unwrap();
        let report = recover(&b).unwrap();
        assert_eq!(
            report.manifest_pruned,
            vec![PathBuf::from("node-0/iter-000001.sdf")]
        );
        let m = crate::manifest::Manifest::load(b.root()).unwrap();
        assert!(m.references("node-0/iter-000000.sdf"));
        assert!(!m.references("node-0/iter-000001.sdf"));
    }

    #[test]
    fn sealed_but_unpublished_files_are_adopted() {
        // Crash window: commit_sdf renamed the file into place but the
        // EPE died before publish_iteration ran.
        let b = LocalDirBackend::scratch("recover-manifest-adopt").unwrap();
        write_valid(&b, "node-0/iter-000000.sdf");
        crate::manifest::publish_iteration(b.root(), 0, 0, "node-0/iter-000000.sdf", 1).unwrap();
        write_valid(&b, "node-0/iter-000001.sdf"); // sealed, never published
        let report = recover(&b).unwrap();
        assert_eq!(
            report.manifest_adopted,
            vec![PathBuf::from("node-0/iter-000001.sdf")]
        );
        let m = crate::manifest::Manifest::load(b.root()).unwrap();
        assert!(m.covers(0, 0) && m.covers(0, 1));
        // Idempotent: a second scan adopts nothing.
        assert!(recover(&b).unwrap().manifest_adopted.is_empty());
    }

    #[test]
    fn directories_without_manifest_stay_manifest_free() {
        let b = LocalDirBackend::scratch("recover-no-manifest").unwrap();
        write_valid(&b, "node-0/iter-000000.sdf");
        let report = recover(&b).unwrap();
        assert!(report.manifest_adopted.is_empty());
        assert!(!b.root().join(crate::manifest::MANIFEST_NAME).exists());
    }

    #[test]
    fn a_torn_manifest_tail_is_checkpointed_not_quarantined() {
        use std::io::Write;
        let b = LocalDirBackend::scratch("recover-manifest-torn").unwrap();
        write_valid(&b, "node-0/iter-000000.sdf");
        crate::manifest::publish_iteration(b.root(), 0, 0, "node-0/iter-000000.sdf", 1).unwrap();
        let mpath = b.root().join(crate::manifest::MANIFEST_NAME);
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&mpath)
            .unwrap();
        file.write_all(b"iter 0 1 1 node-0/iter-0").unwrap();
        let report = recover(&b).unwrap();
        assert!(
            report.quarantined.is_empty() && report.failed.is_empty(),
            "{report:?}"
        );
        // Rewritten whole: the same entries, one generation on, no tail.
        let (m, torn) = crate::manifest::load_log(b.root()).unwrap();
        assert!(!torn);
        assert_eq!((m.generation, m.entries.len()), (2, 1));
        assert_eq!(
            m.render().len() as u64,
            std::fs::metadata(&mpath).unwrap().len()
        );
    }

    #[test]
    fn corrupt_manifest_is_quarantined_and_rebuilt() {
        let b = LocalDirBackend::scratch("recover-manifest-corrupt").unwrap();
        write_valid(&b, "node-0/iter-000000.sdf");
        crate::manifest::publish_iteration(b.root(), 0, 0, "node-0/iter-000000.sdf", 1).unwrap();
        // Scribble over the manifest.
        let mpath = b.root().join(crate::manifest::MANIFEST_NAME);
        std::fs::write(&mpath, "not a manifest").unwrap();
        let report = recover(&b).unwrap();
        assert!(report
            .quarantined
            .contains(&PathBuf::from(crate::manifest::MANIFEST_NAME)));
        // Adoption rebuilt it from the surviving sealed files.
        let m = crate::manifest::Manifest::load(b.root()).unwrap();
        assert!(m.covers(0, 0));
    }
}
