//! The reader answers as the object-per-dataset reader before it did: on
//! four files — the golden image, a chunked + `lzss` file, and the same
//! datasets as the format wrote them before the name table
//! (`tests/fixtures/coords.sdf`) and before coordinate fields
//! (`tests/fixtures/legacy.sdf`, with its stored query section) —
//! every public read (`read_bytes_at`, `read_bytes`, `info_at`, `info`,
//! `infos_under`, `dataset_names`, `read_rows_bytes`, `validate`) is
//! written to a transcript, errors included, and compared with the one
//! that reader wrote, pinned under `tests/reader_transcripts/`. On a
//! mismatch the new transcript is left in the temp dir to diff against.

use damaris_format::{crc32, DataType, DatasetOptions, Layout, SdfReader, SdfWriter};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("damaris-format-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("differential-{name}-{}.sdf", std::process::id()))
}

/// The golden image of `golden.rs`: plain, `lzss`-filtered and chunked.
fn write_golden(path: &Path) {
    let plain: Vec<u8> = (0..96u32).map(|i| (i * 37 + 11) as u8).collect();
    let field: Vec<f32> = (0..48).map(|i| 280.0 + (i / 8) as f32 * 0.5).collect();
    let grid: Vec<u8> = (0..8 * 12u32).map(|i| (i * i + 3) as u8).collect();
    let mut w = SdfWriter::create(path).unwrap();
    w.write_dataset_bytes(
        "/iter-7/rank-0/plain",
        &Layout::new(DataType::U8, &[96]),
        &plain,
        &DatasetOptions::plain().with_attr("iteration", 7i64),
    )
    .unwrap();
    w.write_dataset_f32_opts(
        "/iter-7/rank-0/theta",
        &Layout::new(DataType::F32, &[6, 8]),
        &field,
        &DatasetOptions::plain()
            .with_filter("lzss")
            .with_attr("unit", "K"),
    )
    .unwrap();
    w.write_dataset_bytes(
        "/iter-7/rank-1/grid",
        &Layout::new(DataType::U8, &[8, 12]),
        &grid,
        &DatasetOptions::plain().with_chunk_dim0(3).with_coords(7, 1),
    )
    .unwrap();
    w.finish().unwrap();
}

/// Chunked `lzss` fields of several shapes, every attribute kind, and a
/// scalar.
fn write_chunked_lzss(path: &Path) {
    let mut w = SdfWriter::create(path).unwrap();
    for rank in 0..3u32 {
        let rows = 10 + u64::from(rank);
        let layout = Layout::new(DataType::F64, &[rows, 6]);
        let data: Vec<f64> = (0..rows * 6)
            .map(|i| 300.0 + (i / 6) as f64 * 0.25 + f64::from(rank))
            .collect();
        let opts = DatasetOptions::plain()
            .with_filter("lzss")
            .with_chunk_dim0(4)
            .with_attr("iteration", 12i64)
            .with_attr("source", i64::from(rank))
            .with_attr("dx", 500.0f64)
            .with_attr("unit", "m/s");
        w.write_dataset_f64_opts(&format!("/iter-12/rank-{rank}/wind"), &layout, &data, &opts)
            .unwrap();
    }
    let cube: Vec<f32> = (0..4 * 3 * 2).map(|i| i as f32 * 1.5).collect();
    w.write_dataset_f32_opts(
        "/iter-12/rank-0/cube",
        &Layout::new(DataType::F32, &[4, 3, 2]),
        &cube,
        &DatasetOptions::plain()
            .with_filter("lzss")
            .with_chunk_dim0(1),
    )
    .unwrap();
    w.write_dataset_f64("/iter-12/time", &Layout::scalar(DataType::F64), &[3.75])
        .unwrap();
    w.finish().unwrap();
}

fn bytes<E: std::fmt::Display>(r: Result<Vec<u8>, E>) -> String {
    match r {
        Ok(b) => format!("{} bytes, crc32 {:08x}", b.len(), crc32(&b)),
        Err(e) => format!("error: {e}"),
    }
}

/// Every public read of the reader over `path`, one line each.
fn transcript(path: &Path) -> String {
    let r = SdfReader::open(path).unwrap();
    let mut t = String::new();
    let names = r.dataset_names();
    writeln!(t, "len {}", r.len()).unwrap();
    writeln!(t, "dataset_names {names:?}").unwrap();
    writeln!(t, "validate {:?}", r.validate().map_err(|e| e.to_string())).unwrap();
    for ordinal in 0..=r.len() {
        writeln!(t, "info_at({ordinal}) {:?}", r.info_at(ordinal)).unwrap();
        writeln!(
            t,
            "read_bytes_at({ordinal}) {}",
            bytes(r.read_bytes_at(ordinal))
        )
        .unwrap();
    }
    let missing = "/iter-7/nope".to_string();
    for name in names.iter().chain([&missing]) {
        writeln!(t, "info({name}) {:?}", r.info(name)).unwrap();
        writeln!(t, "read_bytes({name}) {}", bytes(r.read_bytes(name))).unwrap();
        for (first, count) in [(0, 1), (1, 4), (3, 0), (5, 9), (u64::MAX, 2)] {
            writeln!(
                t,
                "read_rows_bytes({name}, {first}, {count}) {}",
                bytes(r.read_rows_bytes(name, first, count))
            )
            .unwrap();
        }
    }
    for prefix in ["", "/iter-7/rank-0/", "/iter-12/rank-1", "/zzz"] {
        writeln!(t, "infos_under({prefix:?}) {:?}", r.infos_under(prefix)).unwrap();
    }
    t
}

/// The files whose transcripts moved from the pinned ones; each new
/// transcript is left in the temp dir.
fn moved(name: &str, pinned: &str, path: &Path) -> Option<PathBuf> {
    let actual = transcript(path);
    std::fs::remove_file(path).ok();
    if actual == pinned {
        return None;
    }
    let out = std::env::temp_dir().join(format!("reader-transcript-{name}.txt"));
    std::fs::write(&out, &actual).unwrap();
    Some(out)
}

#[test]
fn reads_answer_as_the_object_per_dataset_reader_did() {
    let golden = temp("golden");
    write_golden(&golden);
    let chunked = temp("chunked-lzss");
    write_chunked_lzss(&chunked);
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let (coords, legacy) = (temp("coords"), temp("legacy"));
    std::fs::copy(fixtures.join("coords.sdf"), &coords).unwrap();
    std::fs::copy(fixtures.join("legacy.sdf"), &legacy).unwrap();
    let moved: Vec<PathBuf> = [
        moved(
            "golden",
            include_str!("reader_transcripts/golden.txt"),
            &golden,
        ),
        moved(
            "chunked_lzss",
            include_str!("reader_transcripts/chunked_lzss.txt"),
            &chunked,
        ),
        // No read depends on the format's age: the same answers as the golden file.
        moved(
            "coords",
            include_str!("reader_transcripts/golden.txt"),
            &coords,
        ),
        moved(
            "legacy",
            include_str!("reader_transcripts/golden.txt"),
            &legacy,
        ),
    ]
    .into_iter()
    .flatten()
    .collect();
    assert!(
        moved.is_empty(),
        "the reader's answers moved; this run's transcripts: {moved:?}"
    );
}
