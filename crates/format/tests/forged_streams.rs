//! A few stored bytes must not be able to demand unbounded memory: for
//! each codec, a dataset whose index entry is CRC-valid but whose filtered
//! payload decodes to far more than its layout says. The reader must come
//! back with a typed error having allocated no more than the layout's
//! bytes for the output — measured, with a counting allocator, not assumed.
//! The same holds for the counts in the index: `open` must refuse one its
//! bytes cannot hold before anything is sized by it, and so for a feature
//! bit it does not know, a coordinate field past `u32`, bytes between
//! the index and the footer of a file whose entries carry coordinate
//! fields (a file from before them may hold its stored query section
//! there), a name table that is malformed or referenced past its end, and
//! stored lengths that do not end where the index starts. And a file cut
//! short after `open` must fail a block read typed, never hand back bytes
//! the read did not write. A DTRC trace forged the same ways must come
//! back as a typed error or a counted corrupt block, within its own
//! bytes. (One `#[test]`: the counter is process-wide.)

use damaris_compress::varint;
use damaris_format::header::{self, Entry, PathField};
use damaris_format::trace::{read_trace_bytes, TraceRecord, TraceWriter, TRACE_RECORD_SIZE};
use damaris_format::{
    crc32, DataType, DatasetOptions, Layout, SdfError, SdfReader, SdfWriter, NO_COORD,
};
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every request goes to `System` unchanged; the counters beside it
// are statistics and touch no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `GlobalAlloc::alloc`'s contract, unchanged.
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc`, passed on as it came.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    // SAFETY: `GlobalAlloc::dealloc`'s contract, unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        // SAFETY: `ptr` came from `alloc` above, so from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most `f` had allocated at once, beyond what was live when it began.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = f();
    (result, PEAK.load(Ordering::Relaxed) - before)
}

/// One dataset `/v` with a correct checksum over whatever `payload` is.
fn forge(tag: &str, payload: &[u8], layout: Layout, filter: &str, chunk_dim0: u64) -> SdfReader {
    let mut bytes = Vec::new();
    header::write_superblock(&mut bytes);
    let entry = Entry {
        path: PathField::Free("/v"),
        layout: &layout,
        stored_len: payload.len() as u64,
        crc: crc32(payload),
        filter,
        chunk_dim0,
        iteration: NO_COORD,
        source: NO_COORD,
        attrs: &[],
    };
    bytes.extend_from_slice(payload);
    let index_offset = bytes.len() as u64;
    // No names, one entry.
    let mut index = vec![0, 1];
    entry.encode(&mut index);
    bytes.extend_from_slice(&index);
    header::write_footer(index_offset, index.len() as u64, crc32(&index), &mut bytes);
    let dir = std::env::temp_dir().join("damaris-format-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("forged-{tag}-{}.sdf", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    SdfReader::open(&path).unwrap()
}

/// 8 KB of LZSS asking for 131 MB: one literal, then 64 KiB matches.
fn lzss_storm() -> Vec<u8> {
    let mut stream = vec![1 << 1, b'x'];
    for _ in 0..2000 {
        varint::write_u64((65_536 << 1) | 1, &mut stream);
        varint::write_u64(1, &mut stream);
    }
    stream
}

/// A four-byte run packet for half a terabyte.
fn rle_storm() -> Vec<u8> {
    let mut stream = Vec::new();
    varint::write_u64((1 << 39 << 1) | 1, &mut stream);
    stream.push(0);
    stream
}

/// A Huffman stream declaring 2⁶² symbols of a one-bit code.
fn huff_storm() -> Vec<u8> {
    let mut stream = Vec::new();
    varint::write_u64(1 << 62, &mut stream);
    let mut lengths = [0u8; 256];
    lengths[0] = 1;
    stream.extend_from_slice(&lengths);
    stream.extend_from_slice(&[0; 64]);
    stream
}

#[test]
fn forged_streams_fail_typed_within_the_layouts_bytes() {
    const LOGICAL: usize = 4096;
    let bytes = Layout::new(DataType::U8, &[LOGICAL as u64]);
    let floats = Layout::new(DataType::F32, &[LOGICAL as u64 / 4]);
    let rows = Layout::new(DataType::U8, &[64, 64]);
    let mut chunked = Vec::new();
    varint::write_u64(1, &mut chunked);
    varint::write_u64(lzss_storm().len() as u64, &mut chunked);
    chunked.extend_from_slice(&lzss_storm());

    let cases: Vec<(&str, Vec<u8>, &Layout, &str, u64)> = vec![
        ("lzss", lzss_storm(), &bytes, "lzss", 0),
        ("rle", rle_storm(), &bytes, "rle", 0),
        ("huff", huff_storm(), &bytes, "huff", 0),
        // Behind other stages: the storm is what the last decoder sees.
        ("p16-lzss", lzss_storm(), &floats, "precision16|lzss", 0),
        ("rle-then-huff", huff_storm(), &bytes, "rle|huff", 0),
        // A chunk is held to its share of the layout: 8 rows of 64.
        ("chunked", chunked, &rows, "lzss", 8),
    ];
    for (tag, payload, layout, filter, chunk_dim0) in cases {
        let reader = forge(tag, &payload, layout.clone(), filter, chunk_dim0);
        let (result, grown) = peak_growth(|| reader.read_bytes("/v"));
        let err = result.expect_err(tag);
        assert!(
            matches!(err, SdfError::Filter(_) | SdfError::Corrupt(_)),
            "{tag}: {err}"
        );
        // The stored bytes are read whole, then the output may take up to
        // the layout's size; the rest is error text and bookkeeping.
        let allowance = payload.len() + LOGICAL + 1024;
        assert!(
            grown <= allowance,
            "{tag}: allocated {grown} bytes for a {LOGICAL}-byte layout"
        );
        if chunk_dim0 > 0 {
            let (result, grown) = peak_growth(|| reader.read_rows_bytes("/v", 0, 8));
            assert!(matches!(result, Err(SdfError::Filter(_))), "{tag} rows");
            assert!(grown <= allowance, "{tag} rows: allocated {grown}");
        }
        std::fs::remove_file(reader.path()).unwrap();
    }

    // A forged row range: one unfiltered 4 KiB chunk, under a layout and a
    // `chunk_dim0` of 2^40 rows. Asking for all of them passes the
    // chunk-count check (one chunk covers them); the output must grow with
    // the bytes that chunk holds, not be sized for the 64 TiB the layout
    // claims, and the shortfall is corruption.
    let rows = 1u64 << 40;
    let mut one_chunk = Vec::new();
    varint::write_u64(1, &mut one_chunk);
    varint::write_u64(LOGICAL as u64, &mut one_chunk);
    one_chunk.extend_from_slice(&[7; LOGICAL]);
    let claimed = Layout::new(DataType::U8, &[rows, 64]);
    let reader = forge("rows", &one_chunk, claimed, "", rows);
    let (result, grown) = peak_growth(|| reader.read_rows_bytes("/v", 0, rows).map(|v| v.len()));
    assert!(matches!(result, Err(SdfError::Corrupt(_))), "{result:?}");
    let allowance = one_chunk.len() + LOGICAL + 1024;
    assert!(
        grown <= allowance,
        "rows: allocated {grown} bytes for a {LOGICAL}-byte chunk"
    );
    // A range whose end does not fit a u64 is the caller's mistake.
    let result = reader.read_rows_bytes("/v", u64::MAX, 2).map(|v| v.len());
    assert!(matches!(result, Err(SdfError::Usage(_))), "{result:?}");
    std::fs::remove_file(reader.path()).unwrap();

    // Counts in the index itself, believed before the bytes behind them
    // were checked: a 58-byte file whose index claims 2²⁰ entries once
    // made `open` reserve 142 MB before failing, and an entry claiming
    // 4 096 attributes 229 KB. `open` must fail typed having allocated no
    // more than the file's size and some error text. So must the other
    // header and index fields it checks.
    let names = |names: &[&str]| {
        let mut index = Vec::new();
        varint::write_u64(names.len() as u64, &mut index);
        for name in names {
            varint::write_u64(name.len() as u64, &mut index);
            index.extend_from_slice(name.as_bytes());
        }
        index
    };
    let mut count = names(&[]);
    varint::write_u64(1 << 20, &mut count);
    count.resize(26, 0);
    let mut name_count = Vec::new();
    varint::write_u64(1 << 20, &mut name_count);
    name_count.resize(26, 0);
    let layout = Layout::new(DataType::U8, &[1]);
    let entry = Entry {
        path: PathField::Free("/v"),
        layout: &layout,
        stored_len: 1,
        crc: 0,
        filter: "",
        chunk_dim0: 0,
        iteration: 0,
        source: NO_COORD,
        attrs: &[],
    };
    // `table`, then one entry.
    let index = |table: &[&str], entry: Entry<'_>| {
        let mut index = names(table);
        index.push(1);
        entry.encode(&mut index);
        index
    };
    let one = index(&[], entry);
    // The entry ends with its iteration field (1: iteration 0), its source
    // field (0: absent) and its attribute count (0).
    assert_eq!(one[one.len() - 3..], [1, 0, 0]);
    let mut attrs = one.clone();
    attrs.pop();
    varint::write_u64(4096, &mut attrs);
    let mut coord = one[..one.len() - 3].to_vec();
    varint::write_u64(u64::from(u32::MAX) + 1, &mut coord);
    coord.extend_from_slice(&[0, 0]);
    let named = Entry {
        path: PathField::Name(1),
        source: 0,
        ..entry
    };
    let past = index(&["v"], named);
    let empty_name = index(&["", "v"], named);
    let slash = index(&["v", "a/b"], named);
    let twice = index(&["v", "v"], named);
    // Sixteen payload bytes; lengths that sum to one byte short, or over.
    let payload = [7u8; 16];
    let short = index(
        &[],
        Entry {
            stored_len: 15,
            ..entry
        },
    );
    let over = index(
        &[],
        Entry {
            stored_len: 17,
            ..entry
        },
    );
    let empty = [0u8];
    let flags = header::INCOMPAT_COORDS | header::INCOMPAT_NAMES;
    // What the error says; flags; payload, index and gap bytes.
    type Case<'a> = (&'a str, u16, &'a [u8], &'a [u8], &'a [u8]);
    let cases: [Case<'_>; 13] = [
        ("index count", flags, &[], &count, &[]),
        ("name count", flags, &[], &name_count, &[]),
        ("attr count", flags, &[], &attrs, &[]),
        ("exceeds u32", flags, &[], &coord, &[]),
        ("past the table's 1 names", flags, &[], &past, &[]),
        ("empty or holds", flags, &[], &empty_name, &[]),
        ("empty or holds", flags, &[], &slash, &[]),
        ("twice in the name table", flags, &[], &twice, &[]),
        ("sum to offset 23", flags, &payload, &short, &[]),
        ("sum to offset 25", flags, &payload, &over, &[]),
        ("unknown incompat", flags | 1 << 2, &[], &empty, &[]),
        (
            "without coordinate fields",
            header::INCOMPAT_NAMES,
            &[],
            &empty,
            &[],
        ),
        ("between the index and the footer", flags, &[], &empty, &[0]),
    ];
    for (tag, flags, payload, index, gap) in cases {
        let mut bytes = Vec::new();
        header::write_superblock(&mut bytes);
        bytes[6..8].copy_from_slice(&flags.to_le_bytes());
        bytes.extend_from_slice(payload);
        let index_offset = bytes.len() as u64;
        bytes.extend_from_slice(index);
        bytes.extend_from_slice(gap);
        header::write_footer(index_offset, index.len() as u64, crc32(index), &mut bytes);
        let path = std::env::temp_dir()
            .join("damaris-format-tests")
            .join(format!(
                "forged-{}-{}.sdf",
                tag.replace(' ', "-"),
                std::process::id()
            ));
        std::fs::write(&path, &bytes).unwrap();
        let (result, grown) = peak_growth(|| SdfReader::open(&path).map(|r| r.len()));
        assert!(
            matches!(&result, Err(SdfError::Format(m)) if m.contains(tag)),
            "{tag}: {result:?}"
        );
        assert!(
            grown <= bytes.len() + 1024,
            "{tag}: open allocated {grown} bytes for a {}-byte file",
            bytes.len()
        );
        std::fs::remove_file(&path).unwrap();
    }
    // The well-formed twins of the last two open: a file from before the
    // coordinate fields with its stored section, and one from before the
    // name table.
    let legacy = SdfReader::open(fixture("legacy.sdf")).expect("a stored section is ignored");
    assert_eq!(legacy.len(), 3);
    let coords = SdfReader::open(fixture("coords.sdf")).expect("stored offsets are read");
    assert_eq!(coords.len(), 3);

    forged_traces_stay_within_their_bytes();
    truncated_after_open_fails_typed();
}

/// DTRC, the last format the bounded-allocation audit covers: a block
/// count near `u32::MAX` is a counted torn block, a header it does not
/// know a typed error, a trailer whose CRC fails a counted corrupt block
/// with the blocks before it kept — each within the input's own bytes.
fn forged_traces_stay_within_their_bytes() {
    let record = |i: u64| TraceRecord {
        t_ns: i,
        dur_ns: 1,
        ..TraceRecord::default()
    };
    let mut clean = Vec::new();
    let mut w = TraceWriter::new(&mut clean).unwrap();
    w.write_block(&[record(1), record(2)]).unwrap();
    w.finish().unwrap();
    let trailer = 16 + 8 + 2 * TRACE_RECORD_SIZE;

    let mut huge = clean[..16].to_vec();
    huge.extend_from_slice(&(u32::MAX - 1).to_le_bytes());
    huge.extend_from_slice(&[0; 4 + TRACE_RECORD_SIZE]);
    let mut version = clean.clone();
    version[4] = 2;
    let mut record_size = clean.clone();
    record_size[6] = 41;
    let mut bad_trailer = clean.clone();
    bad_trailer[trailer + 4] ^= 1;
    for (tag, bytes) in [
        ("huge count", &huge),
        ("version", &version),
        ("record size", &record_size),
        ("trailer crc", &bad_trailer),
    ] {
        let (result, grown) = peak_growth(|| read_trace_bytes(bytes));
        match (tag, result) {
            ("huge count", Ok(f)) => {
                assert_eq!((f.records.len(), f.corrupt_blocks), (0, 1), "{tag}");
                assert!(!f.clean_close, "{tag}");
            }
            ("version" | "record size", Err(SdfError::Format(m))) => {
                assert!(m.contains(tag), "{tag}: {m}")
            }
            ("trailer crc", Ok(f)) => {
                assert_eq!(f.records, [record(1), record(2)], "{tag}");
                assert_eq!(f.corrupt_blocks, 1, "{tag}");
                assert!(!f.clean_close, "{tag}");
            }
            (tag, other) => panic!("{tag}: {other:?}"),
        }
        assert!(
            grown <= bytes.len() + 1024,
            "{tag}: allocated {grown} bytes for a {}-byte trace",
            bytes.len()
        );
    }
}

fn fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// A file cut short after `open` checked it: a block read past the cut
/// must fail with a typed I/O error and return no bytes, having allocated
/// no more than the stored length the index gives (the read buffer is not
/// zeroed first, so nothing of it may leak out of a short read).
fn truncated_after_open_fails_typed() {
    const BLOCK: usize = 64 << 10;
    let path = std::env::temp_dir()
        .join("damaris-format-tests")
        .join(format!("truncated-{}.sdf", std::process::id()));
    let mut writer = SdfWriter::create(&path).unwrap();
    let layout = Layout::new(DataType::U8, &[BLOCK as u64]);
    for (v, fill) in [("/a", 1u8), ("/b", 2u8)] {
        writer
            .write_dataset_bytes(v, &layout, &vec![fill; BLOCK], &DatasetOptions::plain())
            .unwrap();
    }
    writer.finish().unwrap();
    let reader = SdfReader::open(&path).unwrap();
    // Cut inside `/b`'s payload: `/a` lies whole before the cut.
    let cut = header::SUPERBLOCK_LEN + (BLOCK + BLOCK / 2) as u64;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(cut)
        .unwrap();
    assert_eq!(reader.read_bytes_at(0).unwrap(), vec![1u8; BLOCK]);
    let (result, grown) = peak_growth(|| reader.read_bytes_at(1));
    match result {
        Err(SdfError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}"),
        other => panic!("a read past the cut: {:?}", other.map(|b| b.len())),
    }
    assert!(
        grown <= BLOCK + 1024,
        "allocated {grown} bytes for a {BLOCK}-byte block"
    );
    let (result, grown) = peak_growth(|| reader.validate());
    assert!(
        matches!(&result, Err(SdfError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof),
        "validate: {result:?}"
    );
    assert!(grown <= BLOCK + 1024, "validate allocated {grown} bytes");
    // Cut to nothing: no block is readable.
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(0)
        .unwrap();
    for ordinal in 0..2 {
        let result = reader.read_bytes_at(ordinal).map(|b| b.len());
        assert!(
            matches!(result, Err(SdfError::Io(_))),
            "{ordinal}: {result:?}"
        );
    }
    std::fs::remove_file(&path).unwrap();
}
