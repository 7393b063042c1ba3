//! The on-disk format did not move: a fixed three-dataset SDF file —
//! plain, `lzss`-filtered and chunked — must come out byte for byte as it
//! did before the checksum kernels and the borrowing writer replaced the
//! table loop and the payload copies. Payload, index and query-section
//! CRCs, the chunk table and the footer are all inside the image.

use damaris_format::{crc32, DataType, DatasetOptions, Layout, SdfReader, SdfWriter};

/// The file's full byte image, captured at the commit before this test
/// existed (PR 14, `006c10e`) by running this same test there.
const GOLDEN_HEX: &str = concat!(
    "53444631010000000b30557a9fc4e90e33587da2c7ec11365b80a5caef14395e",
    "83a8cdf2173c6186abd0f51a3f6489aed3f81d42678cb1d6fb20456a8fb4d9fe",
    "23486d92b7dc01264b7095badf04294e7398bde2072c51769bc0e50a2f54799e",
    "c3e80d32577ca1c60800008c433b0402403f0402803f0402c03f0404008d3d04",
    "02403d04032424180304070c131c27344354677c93acc7e40324476c93bce714",
    "4374a7dc134c87c4034487cc135ca7f44394e73c93ec47a40364c72c93fc67d4",
    "43b4279c138c07840384078c139c27b443d467fc932cc76403a447ec933ce794",
    "43f4a75c13cc874403142f697465722d372f72616e6b2d302f706c61696e0001",
    "6008609b70d4f800000109697465726174696f6e000700000000000000142f69",
    "7465722d372f72616e6b2d302f746865746103020608681cefa9bac9046c7a73",
    "73000104756e697402014b132f697465722d372f72616e6b2d312f6772696400",
    "02080c8401640f39da2300030053445131010000006800000000000000400000",
    "000000000007000000e88f41300022480204057468657461046c7a7373046772",
    "696405706c61696e03cb1f8988bf25b81300070001681c0302060802001ccd68",
    "3b9dadd423020701028401640002080c00034f9fd875cdf4ed2d030700000860",
    "00016000009e148200e8000000000000008500000000000000f9808aaa534446",
    "31",
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
        &DatasetOptions::plain().with_chunk_dim0(3),
    )
    .unwrap();
    w.finish().unwrap();
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn three_dataset_file_is_byte_identical_to_the_parent_commit() {
    let path = std::env::temp_dir().join(format!("damaris-golden-{}.sdf", std::process::id()));
    write_fixture(&path);
    let image = std::fs::read(&path).unwrap();

    // The image still reads back, so a format change that happened to
    // keep these bytes would have to keep their meaning too.
    let (plain, field, grid) = payloads();
    let r = SdfReader::open(&path).unwrap();
    r.validate().unwrap();
    assert_eq!(r.read_bytes("/iter-7/rank-0/plain").unwrap(), plain);
    assert_eq!(r.read_f32("/iter-7/rank-0/theta").unwrap(), field);
    assert_eq!(r.read_bytes("/iter-7/rank-1/grid").unwrap(), grid);
    assert_eq!(
        r.read_rows_bytes("/iter-7/rank-1/grid", 2, 3).unwrap(),
        grid[24..60]
    );
    std::fs::remove_file(&path).ok();

    assert_eq!(
        hex(&image),
        GOLDEN_HEX,
        "SDF byte image moved ({} bytes, crc32 {:08x})",
        image.len(),
        crc32(&image)
    );
}
