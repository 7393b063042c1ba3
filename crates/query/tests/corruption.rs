//! Proptest corruption suite for the read tier (ISSUE 9 satellite):
//! arbitrarily corrupted or truncated manifests and SDF files must
//! surface as *typed* errors from the engine — bounded allocations,
//! never a panic, and never silently wrong data.
//!
//! (The byte-level decoder suites live next to the decoders:
//! `damaris-format` fuzzes the query section, `damaris-fs` fuzzes the
//! manifest log and whole SDF files. This suite drives the same
//! corruptions through the *engine*'s public API.)

use damaris_format::{DataType, DatasetOptions, Layout, SdfWriter};
use damaris_fs::manifest::publish_iteration;
use damaris_query::{QueryConfig, QueryEngine, QueryError};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "damaris-query-corrupt-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A tiny valid output: 2 iterations, 2 sources, published manifest.
fn build_output(root: &Path) {
    for iteration in 0..2u32 {
        let rel = format!("node-0/iter-{iteration:06}.sdf");
        let path = root.join(&rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("node dir");
        let mut writer = SdfWriter::create(&path).expect("create");
        for source in 0..2u32 {
            let data: Vec<f64> = (0..16).map(|i| f64::from(iteration) + i as f64).collect();
            writer
                .write_dataset_f64_opts(
                    &format!("/iter-{iteration}/rank-{source}/field"),
                    &Layout::new(DataType::F64, &[16]),
                    &data,
                    &DatasetOptions::plain().with_coords(iteration, source),
                )
                .expect("write");
        }
        let bytes = writer.finish_synced().expect("finish");
        publish_iteration(root, 0, iteration, &rel, bytes).expect("publish");
    }
}

/// Where the checkpoint frame of a `MANIFEST` ends: just past its first
/// `crc` line.
fn checkpoint_len(manifest: &[u8]) -> usize {
    let crc = manifest.windows(5).position(|w| w == b"\ncrc ");
    let crc = crc.expect("crc line") + 1;
    let newline = manifest[crc..].iter().position(|&b| b == b'\n');
    crc + newline.expect("newline") + 1
}

/// Opening the engine and probing every key over a possibly-corrupt
/// directory: must return, never panic; failures must be typed.
fn exercise(root: &Path) {
    match QueryEngine::open(root, QueryConfig::default()) {
        Ok(engine) => {
            let snap = engine.snapshot();
            for iteration in 0..3u32 {
                for source in 0..3u32 {
                    match engine.lookup(&snap, "field", iteration, source) {
                        Ok(_) => {}
                        Err(QueryError::Format(_))
                        | Err(QueryError::Manifest(_))
                        | Err(QueryError::Io(_)) => {}
                        Err(other) => panic!("untyped failure: {other}"),
                    }
                }
            }
        }
        Err(QueryError::Format(_)) | Err(QueryError::Manifest(_)) | Err(QueryError::Io(_)) => {}
        Err(other) => panic!("untyped failure: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single-byte change to the MANIFEST's checkpoint is caught (its
    /// crc line covers it): the engine reports a typed manifest error
    /// instead of acting on a tampered file list. A change to the frame
    /// appended after it is a torn tail: that publish is not seen.
    #[test]
    fn flipped_manifest_byte_is_typed_error(position in 0usize..512, flip in 1u8..255) {
        let root = scratch("mflip");
        build_output(&root);
        let manifest_path = root.join("MANIFEST");
        let mut bytes = std::fs::read(&manifest_path).expect("read manifest");
        let appended = checkpoint_len(&bytes);
        let position = position % bytes.len();
        bytes[position] ^= flip;
        std::fs::write(&manifest_path, &bytes).expect("write manifest");
        match QueryEngine::open(&root, QueryConfig::default()) {
            // A flip that only changes case inside a CRC's hex may still
            // parse — then the file list must be untouched.
            Ok(engine) => {
                let files = engine.snapshot().files().len();
                prop_assert!(files == 2 || (position >= appended && files == 1), "{}", files);
            }
            Err(QueryError::Manifest(_)) => prop_assert!(position < appended),
            Err(other) => prop_assert!(false, "untyped failure at {}: {}", position, other),
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// Any truncation of the MANIFEST's checkpoint is a typed error, and
    /// the engine never panics on it; one inside the frame appended after
    /// it leaves a torn tail, and that publish unseen.
    #[test]
    fn truncated_manifest_is_typed_error(cut_fraction in 0.0f64..1.0) {
        let root = scratch("mcut");
        build_output(&root);
        let manifest_path = root.join("MANIFEST");
        let bytes = std::fs::read(&manifest_path).expect("read manifest");
        let cut = ((bytes.len() - 1) as f64 * cut_fraction) as usize;
        std::fs::write(&manifest_path, &bytes[..cut]).expect("truncate");
        match QueryEngine::open(&root, QueryConfig::default()) {
            Err(QueryError::Manifest(_)) => prop_assert!(cut < checkpoint_len(&bytes)),
            Ok(engine) => {
                prop_assert!(cut >= checkpoint_len(&bytes), "cut to {} bytes read", cut);
                prop_assert_eq!(engine.snapshot().files().len(), 1);
            }
            Err(other) => prop_assert!(false, "cut to {}: untyped failure {}", cut, other),
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// A flipped byte anywhere in a published SDF file — header, record,
    /// index, bloom, sparse entries, footer — either fails typed at open
    /// or fails typed at read; probing never panics.
    #[test]
    fn flipped_sdf_byte_never_panics(position in 0usize..1 << 16, flip in 1u8..255) {
        let root = scratch("sflip");
        build_output(&root);
        let file = root.join("node-0/iter-000001.sdf");
        let mut bytes = std::fs::read(&file).expect("read sdf");
        let position = position % bytes.len();
        bytes[position] ^= flip;
        std::fs::write(&file, &bytes).expect("write sdf");
        exercise(&root);
        std::fs::remove_dir_all(&root).ok();
    }

    /// A truncated SDF file (torn mid-publish or torn media) likewise.
    #[test]
    fn truncated_sdf_never_panics(cut_fraction in 0.0f64..1.0) {
        let root = scratch("scut");
        build_output(&root);
        let file = root.join("node-0/iter-000000.sdf");
        let bytes = std::fs::read(&file).expect("read sdf");
        let cut = (bytes.len() as f64 * cut_fraction) as usize;
        std::fs::write(&file, &bytes[..cut]).expect("truncate");
        exercise(&root);
        std::fs::remove_dir_all(&root).ok();
    }

    /// Random garbage in place of the manifest: typed error or (for the
    /// vanishingly unlikely valid parse) a clean open — never a panic.
    #[test]
    fn garbage_manifest_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..512)) {
        let root = scratch("mgarbage");
        build_output(&root);
        std::fs::write(root.join("MANIFEST"), &garbage).expect("write garbage");
        exercise(&root);
        std::fs::remove_dir_all(&root).ok();
    }
}
