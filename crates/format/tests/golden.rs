//! The on-disk format does not move unnoticed: a fixed three-dataset SDF
//! file — plain, `lzss`-filtered and chunked — must come out byte for byte
//! as pinned here. Payload and index CRCs, the superblock's feature bits,
//! the name table (the chunked dataset is stored by name), the coordinate
//! fields, the chunk table and the footer are all inside the image. The
//! same datasets as the format wrote them before must still read and
//! answer alike: before the name table (`tests/fixtures/coords.sdf`:
//! flags word 1, every path stored, offsets stored) and before coordinate
//! fields (`tests/fixtures/legacy.sdf`: flags word 0, coordinates in
//! attributes, a stored query section before the footer).

use damaris_format::{crc32, DataType, DatasetOptions, Layout, SdfReader, SdfWriter};
use std::path::Path;

/// The file's full byte image.
const GOLDEN_HEX: &str = concat!(
    "53444631010003000b30557a9fc4e90e33587da2c7ec11365b80a5caef14395e",
    "83a8cdf2173c6186abd0f51a3f6489aed3f81d42678cb1d6fb20456a8fb4d9fe",
    "23486d92b7dc01264b7095badf04294e7398bde2072c51769bc0e50a2f54799e",
    "c3e80d32577ca1c60800008c433b0402403f0402803f0402c03f0404008d3d04",
    "02403d04032424180304070c131c27344354677c93acc7e40324476c93bce714",
    "4374a7dc134c87c4034487cc135ca7f44394e73c93ec47a40364c72c93fc67d4",
    "43b4279c138c07840384078c139c27b443d467fc932cc76403a447ec933ce794",
    "43f4a75c13cc874401046772696403282f697465722d372f72616e6b2d302f70",
    "6c61696e000160609b70d4f8000000000109697465726174696f6e0007000000",
    "00000000282f697465722d372f72616e6b2d302f7468657461030206081cefa9",
    "bac9046c7a73730000000104756e697402014b010002080c640f39da23000308",
    "0200e8000000000000007a00000000000000dfef23ef53444631",
);

fn payloads() -> (Vec<u8>, Vec<f32>, Vec<u8>) {
    // 96 bytes: long enough for the carry-less-multiply kernel.
    let plain: Vec<u8> = (0..96u32).map(|i| (i * 37 + 11) as u8).collect();
    let field: Vec<f32> = (0..48).map(|i| 280.0 + (i / 8) as f32 * 0.5).collect();
    let grid: Vec<u8> = (0..8 * 12u32).map(|i| (i * i + 3) as u8).collect();
    (plain, field, grid)
}

fn write_fixture(path: &std::path::Path) {
    let (plain, field, grid) = payloads();
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

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Every read of the three datasets, checked against their payloads.
fn reads_back(path: &Path) -> SdfReader {
    let (plain, field, grid) = payloads();
    let r = SdfReader::open(path).unwrap();
    r.validate().unwrap();
    assert_eq!(r.read_bytes("/iter-7/rank-0/plain").unwrap(), plain);
    assert_eq!(r.read_f32("/iter-7/rank-0/theta").unwrap(), field);
    assert_eq!(r.read_bytes("/iter-7/rank-1/grid").unwrap(), grid);
    assert_eq!(
        r.read_rows_bytes("/iter-7/rank-1/grid", 2, 3).unwrap(),
        grid[24..60]
    );
    r
}

fn temp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("damaris-golden-{tag}-{}.sdf", std::process::id()))
}

#[test]
fn three_dataset_file_is_byte_identical_to_the_pinned_image() {
    let path = temp("image");
    write_fixture(&path);
    let image = std::fs::read(&path).unwrap();

    // The image still reads back, so a format change that happened to
    // keep these bytes would have to keep their meaning too.
    reads_back(&path);
    std::fs::remove_file(&path).ok();

    assert_eq!(
        hex(&image),
        GOLDEN_HEX,
        "SDF byte image moved ({} bytes, crc32 {:08x})",
        image.len(),
        crc32(&image)
    );
}

/// A section's keys, in order, each with its variable's name (the slots
/// of the names are the file's own).
type Answers = Vec<(u64, u32, u32, u32, String)>;

fn answers(r: &SdfReader) -> Answers {
    let Ok(section) = r.query_section();
    section
        .keys
        .iter()
        .map(|k| {
            let name = section.variable(k).to_string();
            (k.key_hash, k.ordinal, k.iteration, k.source, name)
        })
        .collect()
}

#[test]
fn the_legacy_image_answers_as_the_new_one() {
    let path = temp("twin");
    write_fixture(&path);
    let new = reads_back(&path);
    std::fs::remove_file(&path).ok();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for fixture in ["coords.sdf", "legacy.sdf"] {
        let old = reads_back(&dir.join(fixture));
        // Keys from attributes, fields, names and paths: the same keys,
        // so every lookup and range finds the same blocks.
        assert_eq!(answers(&old), answers(&new), "{fixture}");
        let (Ok(a), Ok(b)) = (old.query_section(), new.query_section());
        assert_eq!(a.bloom, b.bloom, "{fixture}");
        assert_eq!(old.dataset_names(), new.dataset_names(), "{fixture}");
        assert_eq!(old.infos().unwrap().len(), 3);
        for ordinal in 0..3 {
            assert_eq!(
                old.read_bytes_at(ordinal).unwrap(),
                new.read_bytes_at(ordinal).unwrap()
            );
        }
    }
}
