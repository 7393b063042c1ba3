//! SDF reader: validates the superblock, loads the index eagerly, reads
//! dataset payloads lazily, verifies checksums and reverses filter
//! pipelines.

use crate::checksum::crc32;
use crate::header::{self, IndexEntry, FOOTER_LEN, SUPERBLOCK_LEN};
use crate::query::QuerySection;
use crate::types::{AttrValue, DataType, Layout};
use crate::{Result, SdfError};
use damaris_compress::{varint, CodecError, Pipeline};
use std::borrow::Cow;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Public, read-only view of a dataset's index entry.
#[derive(Debug, Clone)]
pub struct DatasetInfo {
    pub path: String,
    pub layout: Layout,
    pub stored_len: u64,
    pub filter: String,
    pub chunk_dim0: u64,
    pub attrs: Vec<(String, AttrValue)>,
}

impl DatasetInfo {
    /// Logical (uncompressed) size in bytes.
    pub fn logical_len(&self) -> u64 {
        self.layout.byte_size()
    }

    /// Looks up an attribute by name.
    pub fn attr(&self, name: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// Reader over a finished SDF file.
///
/// `Sync`: every read is positional (`pread`), so many query threads share
/// one reader — and one file handle — without taking turns.
#[derive(Debug)]
pub struct SdfReader {
    file: File,
    path: PathBuf,
    entries: Vec<IndexEntry>,
    /// Each distinct filter spec of the index, parsed once at open. A spec
    /// this build cannot parse fails the datasets that carry it, when they
    /// are read, not the file.
    pipelines: Vec<(String, std::result::Result<Pipeline, CodecError>)>,
    /// Start of the index — the exclusive upper bound of the data region
    /// every payload read is clamped against.
    index_offset: u64,
    /// Byte range of the query section, `[start, end)`; empty for files
    /// written before the section existed.
    query_range: (u64, u64),
}

impl SdfReader {
    /// Opens and validates `path`, loading the full index.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        if file_len < SUPERBLOCK_LEN + FOOTER_LEN {
            return Err(SdfError::Format(format!(
                "file is {file_len} bytes; too short to be an SDF file"
            )));
        }

        let mut sb = vec![0u8; SUPERBLOCK_LEN as usize];
        file.read_exact_at(&mut sb, 0)?;
        header::check_superblock(&sb)?;

        let mut footer = vec![0u8; FOOTER_LEN as usize];
        file.read_exact_at(&mut footer, file_len - FOOTER_LEN)?;
        let (index_offset, index_len, index_crc) = header::read_footer(&footer)?;
        if index_offset
            .checked_add(index_len)
            .map(|end| end > file_len - FOOTER_LEN)
            .unwrap_or(true)
        {
            return Err(SdfError::Format("index range out of bounds".into()));
        }

        let mut index_bytes = vec![0u8; index_len as usize];
        file.read_exact_at(&mut index_bytes, index_offset)?;
        if crc32(&index_bytes) != index_crc {
            return Err(SdfError::Corrupt("index checksum mismatch".into()));
        }

        let mut off = 0usize;
        let count = varint::read_u64(&index_bytes, &mut off)
            .ok_or_else(|| SdfError::Format("truncated index count".into()))?
            as usize;
        let mut entries = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            entries.push(IndexEntry::decode(&index_bytes, &mut off)?);
        }
        if off != index_bytes.len() {
            return Err(SdfError::Format("trailing garbage in index".into()));
        }

        let mut pipelines: Vec<(String, _)> = Vec::new();
        for entry in entries.iter().filter(|e| !e.filter.is_empty()) {
            if !pipelines.iter().any(|(spec, _)| *spec == entry.filter) {
                pipelines.push((entry.filter.clone(), Pipeline::from_spec(&entry.filter)));
            }
        }

        Ok(SdfReader {
            file,
            path,
            entries,
            pipelines,
            index_offset,
            query_range: (index_offset + index_len, file_len - FOOTER_LEN),
        })
    }

    /// Parses the query section (sparse block index + bloom filter), if
    /// the file carries one. `Ok(None)` for files written before the
    /// section existed; a typed error if the section bytes are corrupt
    /// (the datasets themselves stay readable through the scan path).
    pub fn query_section(&self) -> Result<Option<QuerySection>> {
        let (start, end) = self.query_range;
        if start >= end {
            return Ok(None);
        }
        let len = (end - start) as usize;
        let mut bytes = vec![0u8; len];
        self.file.read_exact_at(&mut bytes, start)?;
        QuerySection::decode(&bytes).map(Some)
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of datasets in the file.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the file holds no datasets.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All dataset paths, in write order.
    pub fn dataset_names(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.path.clone()).collect()
    }

    /// Metadata for one dataset.
    pub fn info(&self, path: &str) -> Option<DatasetInfo> {
        self.entries.iter().find(|e| e.path == path).map(|e| DatasetInfo {
            path: e.path.clone(),
            layout: e.layout.clone(),
            stored_len: e.stored_len,
            filter: e.filter.clone(),
            chunk_dim0: e.chunk_dim0,
            attrs: e.attrs.clone(),
        })
    }

    /// Metadata for every dataset whose path starts with `prefix`.
    pub fn infos_under(&self, prefix: &str) -> Vec<DatasetInfo> {
        self.entries
            .iter()
            .filter(|e| e.path.starts_with(prefix))
            .map(|e| DatasetInfo {
                path: e.path.clone(),
                layout: e.layout.clone(),
                stored_len: e.stored_len,
                filter: e.filter.clone(),
                chunk_dim0: e.chunk_dim0,
                attrs: e.attrs.clone(),
            })
            .collect()
    }

    fn entry(&self, path: &str) -> Result<&IndexEntry> {
        self.entries
            .iter()
            .find(|e| e.path == path)
            .ok_or_else(|| SdfError::Usage(format!("no dataset at '{path}'")))
    }

    fn read_stored(&self, entry: &IndexEntry) -> Result<Vec<u8>> {
        // The index is CRC-guarded but still untrusted input: clamp the
        // payload range against the data region before sizing the buffer,
        // so a corrupt stored_len cannot demand an unbounded allocation.
        let in_bounds = entry.offset >= SUPERBLOCK_LEN
            && entry
                .offset
                .checked_add(entry.stored_len)
                .is_some_and(|end| end <= self.index_offset);
        if !in_bounds {
            return Err(SdfError::Corrupt(format!(
                "payload range [{}, +{}) for '{}' escapes the data region",
                entry.offset, entry.stored_len, entry.path
            )));
        }
        // One `pread`: no lock, no seek, and the zeroed buffer is a `calloc`.
        let mut stored = vec![0u8; entry.stored_len as usize];
        self.file.read_exact_at(&mut stored, entry.offset)?;
        if crc32(&stored) != entry.crc {
            return Err(SdfError::Corrupt(format!(
                "payload checksum mismatch for '{}'",
                entry.path
            )));
        }
        Ok(stored)
    }

    /// The parsed pipeline of `entry`'s filter; `None` when it has none.
    fn pipeline(&self, entry: &IndexEntry) -> Result<Option<&Pipeline>> {
        if entry.filter.is_empty() {
            return Ok(None);
        }
        let (_, parsed) = self
            .pipelines
            .iter()
            .find(|(spec, _)| *spec == entry.filter)
            // invariant: `open` parsed every distinct spec of the index.
            .expect("filter spec parsed at open");
        match parsed {
            Ok(pipeline) => Ok(Some(pipeline)),
            Err(e) => Err(SdfError::Filter(e.to_string())),
        }
    }

    /// Reverses chunking and filters. Takes the stored bytes by value so an
    /// unfiltered contiguous dataset is handed back in the buffer
    /// `read_stored` filled, not copied out of it. Every decode is bounded
    /// by the layout — the dataset's size, a chunk's share of it — so the
    /// output is allocated once at that size and a forged stream cannot ask
    /// for more.
    fn decode_payload(&self, entry: &IndexEntry, stored: Vec<u8>) -> Result<Vec<u8>> {
        let pipeline = self.pipeline(entry)?;
        let expected = logical_len(entry)?;
        let logical = if entry.chunk_dim0 > 0 {
            let mut off = 0usize;
            let n_chunks = read_chunk_count(&stored, &mut off)?;
            let mut lens = Vec::with_capacity(n_chunks);
            for _ in 0..n_chunks {
                lens.push(
                    varint::read_u64(&stored, &mut off)
                        .ok_or_else(|| SdfError::Format("truncated chunk table".into()))?
                        as usize,
                );
            }
            let chunk_bytes = chunk_len(entry, expected);
            let mut logical = Vec::new();
            for len in lens {
                let end = off
                    .checked_add(len)
                    .filter(|&e| e <= stored.len())
                    .ok_or_else(|| SdfError::Format("chunk out of bounds".into()))?;
                let chunk = &stored[off..end];
                match pipeline {
                    Some(p) => {
                        let limit = chunk_bytes.min(expected.saturating_sub(logical.len()));
                        let decoded = p
                            .decode_bounded(chunk, limit)
                            .map_err(|e| SdfError::Filter(e.to_string()))?;
                        logical.extend_from_slice(&decoded);
                    }
                    None => logical.extend_from_slice(chunk),
                }
                off = end;
            }
            if off != stored.len() {
                return Err(SdfError::Format("trailing bytes after chunks".into()));
            }
            logical
        } else {
            match pipeline {
                Some(p) => p
                    .decode_bounded(&stored, expected)
                    .map_err(|e| SdfError::Filter(e.to_string()))?,
                None => stored,
            }
        };
        if logical.len() != expected {
            return Err(SdfError::Corrupt(format!(
                "decoded '{}' to {} bytes, layout expects {expected}",
                entry.path,
                logical.len(),
            )));
        }
        Ok(logical)
    }

    /// Verifies the stored checksum of *every* dataset payload (the index
    /// and footer were already verified at open) and of the query section
    /// if one is present. Decoding/filters are not exercised — this is
    /// the cheap integrity pass a recovery scan runs over files found
    /// after a crash.
    pub fn validate(&self) -> Result<()> {
        for entry in &self.entries {
            self.read_stored(entry)?;
        }
        self.query_section()?;
        Ok(())
    }

    /// Reads and decodes the full payload of a dataset as raw bytes.
    pub fn read_bytes(&self, path: &str) -> Result<Vec<u8>> {
        let entry = self.entry(path)?;
        let stored = self.read_stored(entry)?;
        self.decode_payload(entry, stored)
    }

    /// Reads and decodes the dataset at position `ordinal` in the index —
    /// the block-read path the query tier takes after a sparse-index hit,
    /// skipping the by-path lookup.
    pub fn read_bytes_at(&self, ordinal: usize) -> Result<Vec<u8>> {
        let entry = self.entries.get(ordinal).ok_or_else(|| {
            SdfError::Usage(format!("ordinal {ordinal} out of range"))
        })?;
        let stored = self.read_stored(entry)?;
        self.decode_payload(entry, stored)
    }

    /// Metadata for the dataset at position `ordinal` in the index.
    pub fn info_at(&self, ordinal: usize) -> Option<DatasetInfo> {
        self.entries.get(ordinal).map(|e| DatasetInfo {
            path: e.path.clone(),
            layout: e.layout.clone(),
            stored_len: e.stored_len,
            filter: e.filter.clone(),
            chunk_dim0: e.chunk_dim0,
            attrs: e.attrs.clone(),
        })
    }

    /// Reads rows `[first, first + count)` along dimension 0 of a *chunked*
    /// dataset, decompressing only the chunks that overlap the range — the
    /// partial-read path a visualization consumer uses on large outputs.
    ///
    /// Contiguous datasets (`chunk_dim0 == 0`) are rejected with a usage
    /// error: read them whole (no I/O is saved by slicing them).
    pub fn read_rows_bytes(&self, path: &str, first: u64, count: u64) -> Result<Vec<u8>> {
        let entry = self.entry(path)?;
        if entry.chunk_dim0 == 0 {
            return Err(SdfError::Usage(format!(
                "dataset '{path}' is contiguous; use read_bytes"
            )));
        }
        let dim0 = *entry.layout.dims.first().ok_or_else(|| {
            SdfError::Usage(format!("dataset '{path}' is scalar; has no rows"))
        })?;
        let end_row = first.checked_add(count).ok_or_else(|| {
            SdfError::Usage(format!("rows [{first}, +{count}) overflow a row index"))
        })?;
        if end_row > dim0 {
            return Err(SdfError::Usage(format!(
                "rows [{first}, {end_row}) out of range for dimension 0 = {dim0}"
            )));
        }
        if count == 0 {
            return Ok(Vec::new());
        }
        let row_bytes = (entry.layout.byte_size() / dim0) as usize;
        let chunk_rows = entry.chunk_dim0;
        // What the rows should come to. The layout and `chunk_dim0` are
        // CRC-valid but untrusted, so this only checks the result: the
        // output grows with the chunks actually decoded or borrowed.
        let expected = usize::try_from(count)
            .ok()
            .and_then(|rows| rows.checked_mul(row_bytes))
            .ok_or_else(|| {
                SdfError::Corrupt(format!(
                    "dataset '{path}': {count} rows are not addressable"
                ))
            })?;

        // Parse the chunk table without decoding anything.
        let stored = self.read_stored(entry)?;
        let mut off = 0usize;
        let n_chunks = read_chunk_count(&stored, &mut off)?;
        let mut lens = Vec::with_capacity(n_chunks);
        for _ in 0..n_chunks {
            lens.push(
                varint::read_u64(&stored, &mut off)
                    .ok_or_else(|| SdfError::Format("truncated chunk table".into()))?
                    as usize,
            );
        }
        let pipeline = self.pipeline(entry)?;
        let chunk_limit = chunk_len(entry, logical_len(entry)?);

        let first_chunk = (first / chunk_rows) as usize;
        let last_chunk = ((end_row - 1) / chunk_rows) as usize;
        if last_chunk >= n_chunks {
            return Err(SdfError::Corrupt(format!(
                "dataset '{path}': chunk table has {n_chunks} chunks, need {}",
                last_chunk + 1
            )));
        }
        let mut out = Vec::new();
        let mut data_off = lens[..first_chunk]
            .iter()
            .try_fold(off, |at, &len| at.checked_add(len))
            .ok_or_else(|| SdfError::Format("chunk out of bounds".into()))?;
        for (ci, &len) in lens.iter().enumerate().take(last_chunk + 1).skip(first_chunk) {
            let end = data_off
                .checked_add(len)
                .filter(|&e| e <= stored.len())
                .ok_or_else(|| SdfError::Format("chunk out of bounds".into()))?;
            let chunk_bytes = &stored[data_off..end];
            let logical = match pipeline {
                Some(p) => Cow::Owned(
                    p.decode_bounded(chunk_bytes, chunk_limit)
                        .map_err(|e| SdfError::Filter(e.to_string()))?,
                ),
                None => Cow::Borrowed(chunk_bytes),
            };
            // Slice the requested rows out of this chunk.
            let chunk_first_row = ci as u64 * chunk_rows;
            let lo = first.max(chunk_first_row) - chunk_first_row;
            let hi = end_row.min(chunk_first_row.saturating_add(chunk_rows)) - chunk_first_row;
            let lo_b = (lo as usize).saturating_mul(row_bytes);
            let hi_b = (hi as usize).saturating_mul(row_bytes).min(logical.len());
            if lo_b > hi_b {
                return Err(SdfError::Corrupt(format!(
                    "dataset '{path}': chunk {ci} shorter than expected"
                )));
            }
            out.extend_from_slice(&logical[lo_b..hi_b]);
            data_off = end;
        }
        if out.len() != expected {
            return Err(SdfError::Corrupt(format!(
                "dataset '{path}': rows [{first}, {end_row}) decoded to {} bytes, layout expects {expected}",
                out.len()
            )));
        }
        Ok(out)
    }

    /// Typed wrapper over [`SdfReader::read_rows_bytes`] for f32 datasets.
    pub fn read_rows_f32(&self, path: &str, first: u64, count: u64) -> Result<Vec<f32>> {
        let entry = self.entry(path)?;
        if entry.layout.dtype != DataType::F32 {
            return Err(SdfError::Usage(format!(
                "dataset '{path}' has dtype {:?}, not F32",
                entry.layout.dtype
            )));
        }
        let bytes = self.read_rows_bytes(path, first, count)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Reads an `f32` dataset.
    pub fn read_f32(&self, path: &str) -> Result<Vec<f32>> {
        let entry = self.entry(path)?;
        if entry.layout.dtype != DataType::F32 {
            return Err(SdfError::Usage(format!(
                "dataset '{path}' has dtype {:?}, not F32",
                entry.layout.dtype
            )));
        }
        let bytes = self.read_bytes(path)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Reads an `f64` dataset.
    pub fn read_f64(&self, path: &str) -> Result<Vec<f64>> {
        let entry = self.entry(path)?;
        if entry.layout.dtype != DataType::F64 {
            return Err(SdfError::Usage(format!(
                "dataset '{path}' has dtype {:?}, not F64",
                entry.layout.dtype
            )));
        }
        let bytes = self.read_bytes(path)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }
}

/// The layout's size in bytes: what a dataset decodes to, and the limit
/// every decode of it is given.
fn logical_len(entry: &IndexEntry) -> Result<usize> {
    usize::try_from(entry.layout.byte_size()).map_err(|_| {
        SdfError::Corrupt(format!(
            "layout of '{}' is larger than this platform can address",
            entry.path
        ))
    })
}

/// What one chunk of a chunked dataset of `total` bytes decodes to at most:
/// `chunk_dim0` rows (the last chunk may hold fewer).
fn chunk_len(entry: &IndexEntry, total: usize) -> usize {
    match entry.layout.dims.first() {
        Some(&dim0) if dim0 > 0 => (total as u64 / dim0)
            .saturating_mul(entry.chunk_dim0)
            .min(total as u64) as usize,
        _ => total,
    }
}

/// Reads and clamps a chunk-table count: each chunk length takes at least
/// one varint byte, so a count exceeding the remaining payload bytes is
/// corruption — reject it before `Vec::with_capacity` can amplify it.
fn read_chunk_count(stored: &[u8], off: &mut usize) -> Result<usize> {
    let n_chunks = varint::read_u64(stored, off)
        .ok_or_else(|| SdfError::Format("truncated chunk count".into()))?;
    let floor = stored.len().saturating_sub(*off) as u64;
    if n_chunks > floor {
        return Err(SdfError::Corrupt(format!(
            "chunk count {n_chunks} exceeds {floor} remaining payload bytes"
        )));
    }
    Ok(n_chunks as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{DatasetOptions, SdfWriter};
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join("damaris-format-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(format!("rd-{tag}-{}-{n}.sdf", std::process::id()))
    }

    fn write_sample(path: &Path, filter: Option<&str>, chunk: u64) -> Vec<f32> {
        let mut w = SdfWriter::create(path).unwrap();
        let layout = Layout::new(DataType::F32, &[16, 8]);
        let data: Vec<f32> = (0..128).map(|i| (i % 7) as f32).collect();
        let mut opts = DatasetOptions::plain()
            .with_attr("iteration", 3i64)
            .with_attr("unit", "K")
            .with_chunk_dim0(chunk);
        if let Some(f) = filter {
            opts = opts.with_filter(f);
        }
        w.write_dataset_f32_opts("/iter-3/theta", &layout, &data, &opts)
            .unwrap();
        w.write_dataset_f64("/iter-3/time", &Layout::scalar(DataType::F64), &[12.5])
            .unwrap();
        w.finish().unwrap();
        data
    }

    #[test]
    fn roundtrip_plain() {
        let path = temp_path("plain");
        let data = write_sample(&path, None, 0);
        let r = SdfReader::open(&path).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.read_f32("/iter-3/theta").unwrap(), data);
        assert_eq!(r.read_f64("/iter-3/time").unwrap(), vec![12.5]);
        let info = r.info("/iter-3/theta").unwrap();
        assert_eq!(info.attr("iteration").unwrap().as_i64(), Some(3));
        assert_eq!(info.attr("unit").unwrap().as_str(), Some("K"));
        assert_eq!(info.logical_len(), 512);
    }

    #[test]
    fn roundtrip_filtered() {
        for filter in ["rle", "lzss", "lzss|rle"] {
            let path = temp_path("filt");
            let data = write_sample(&path, Some(filter), 0);
            let r = SdfReader::open(&path).unwrap();
            assert_eq!(r.read_f32("/iter-3/theta").unwrap(), data, "filter {filter}");
            let info = r.info("/iter-3/theta").unwrap();
            assert_eq!(info.filter, filter);
        }
    }

    #[test]
    fn roundtrip_chunked() {
        for (filter, chunk) in [(None, 4u64), (Some("lzss"), 4), (Some("rle"), 16), (None, 100)] {
            let path = temp_path("chunk");
            let data = write_sample(&path, filter, chunk);
            let r = SdfReader::open(&path).unwrap();
            assert_eq!(
                r.read_f32("/iter-3/theta").unwrap(),
                data,
                "filter {filter:?} chunk {chunk}"
            );
        }
    }

    #[test]
    fn lossy_filter_roundtrips_within_tolerance() {
        let path = temp_path("lossy");
        let mut w = SdfWriter::create(&path).unwrap();
        let layout = Layout::new(DataType::F32, &[64]);
        let data: Vec<f32> = (0..64).map(|i| 300.0 + i as f32 * 0.25).collect();
        let opts = DatasetOptions::plain().with_filter("precision16|lzss");
        w.write_dataset_f32_opts("/v", &layout, &data, &opts).unwrap();
        w.finish().unwrap();
        let r = SdfReader::open(&path).unwrap();
        let back = r.read_f32("/v").unwrap();
        for (o, b) in data.iter().zip(&back) {
            assert!(((o - b) / o).abs() < 1e-3, "{o} vs {b}");
        }
    }

    #[test]
    fn missing_dataset_is_usage_error() {
        let path = temp_path("missing");
        write_sample(&path, None, 0);
        let r = SdfReader::open(&path).unwrap();
        assert!(matches!(r.read_f32("/nope").unwrap_err(), SdfError::Usage(_)));
    }

    #[test]
    fn wrong_dtype_is_usage_error() {
        let path = temp_path("dtype");
        write_sample(&path, None, 0);
        let r = SdfReader::open(&path).unwrap();
        assert!(matches!(
            r.read_f64("/iter-3/theta").unwrap_err(),
            SdfError::Usage(_)
        ));
    }

    #[test]
    fn corrupt_payload_detected() {
        let path = temp_path("corrupt");
        write_sample(&path, None, 0);
        // Flip one byte inside the first dataset payload (offset 8 is the
        // first payload byte, right after the superblock).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0xff;
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(&bytes).unwrap();
        let r = SdfReader::open(&path).unwrap();
        assert!(matches!(
            r.read_f32("/iter-3/theta").unwrap_err(),
            SdfError::Corrupt(_)
        ));
    }

    #[test]
    fn corrupt_index_detected_at_open() {
        let path = temp_path("corruptindex");
        write_sample(&path, None, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        let (index_offset, _, _) =
            header::read_footer(&bytes[n - FOOTER_LEN as usize..]).unwrap();
        bytes[index_offset as usize + 10] ^= 0xff; // inside the index region
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SdfReader::open(&path).unwrap_err(),
            SdfError::Corrupt(_) | SdfError::Format(_)
        ));
    }

    #[test]
    fn truncated_file_detected() {
        let path = temp_path("trunc");
        write_sample(&path, None, 0);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(SdfReader::open(&path).is_err());
        std::fs::write(&path, &bytes[..4]).unwrap();
        assert!(SdfReader::open(&path).is_err());
    }

    #[test]
    fn not_an_sdf_file() {
        let path = temp_path("notsdf");
        std::fs::write(&path, vec![0u8; 64]).unwrap();
        assert!(matches!(
            SdfReader::open(&path).unwrap_err(),
            SdfError::Format(_)
        ));
    }

    #[test]
    fn infos_under_prefix() {
        let path = temp_path("prefix");
        write_sample(&path, None, 0);
        let r = SdfReader::open(&path).unwrap();
        assert_eq!(r.infos_under("/iter-3/").len(), 2);
        assert_eq!(r.infos_under("/iter-4/").len(), 0);
    }

    #[test]
    fn partial_reads_match_full_reads() {
        for filter in [None, Some("lzss"), Some("lzss|huff")] {
            let path = temp_path("rows");
            let data = write_sample(&path, filter, 4); // 16 rows, chunks of 4
            let r = SdfReader::open(&path).unwrap();
            let full = r.read_f32("/iter-3/theta").unwrap();
            assert_eq!(full, data);
            let row = 8; // elements per row (16×8 layout)
            for (first, count) in [(0u64, 1u64), (0, 16), (3, 5), (4, 4), (15, 1), (7, 9)] {
                let rows = r.read_rows_f32("/iter-3/theta", first, count).unwrap();
                let expect =
                    &full[(first as usize * row)..((first + count) as usize * row)];
                assert_eq!(rows, expect, "filter {filter:?} rows [{first}, +{count})");
            }
            // Empty range is fine; out-of-range is not.
            assert!(r.read_rows_f32("/iter-3/theta", 2, 0).unwrap().is_empty());
            assert!(r.read_rows_f32("/iter-3/theta", 10, 7).is_err());
        }
    }

    #[test]
    fn partial_read_requires_chunked_dataset() {
        let path = temp_path("rows-contig");
        write_sample(&path, None, 0);
        let r = SdfReader::open(&path).unwrap();
        assert!(matches!(
            r.read_rows_f32("/iter-3/theta", 0, 2).unwrap_err(),
            SdfError::Usage(_)
        ));
    }

    #[test]
    fn empty_file_roundtrip() {
        let path = temp_path("empty");
        let w = SdfWriter::create(&path).unwrap();
        w.finish().unwrap();
        let r = SdfReader::open(&path).unwrap();
        assert!(r.is_empty());
        assert!(r.dataset_names().is_empty());
    }

    /// Builds a raw SDF file from hand-forged index entries (bypassing
    /// the writer's invariants) so corrupt-but-CRC-consistent indexes can
    /// be exercised.
    fn forge_file(path: &Path, payload: &[u8], mut entry: IndexEntry) -> u64 {
        let mut bytes = Vec::new();
        header::write_superblock(&mut bytes);
        entry.offset = bytes.len() as u64;
        bytes.extend_from_slice(payload);
        let index_offset = bytes.len() as u64;
        let mut index_bytes = Vec::new();
        varint::write_u64(1, &mut index_bytes);
        entry.encode(&mut index_bytes);
        let crc = crc32(&index_bytes);
        bytes.extend_from_slice(&index_bytes);
        header::write_footer(index_offset, index_bytes.len() as u64, crc, &mut bytes);
        std::fs::write(path, &bytes).unwrap();
        index_offset
    }

    fn forged_entry(stored: &[u8]) -> IndexEntry {
        IndexEntry {
            path: "/v".into(),
            layout: Layout::new(DataType::U8, &[stored.len() as u64]),
            offset: 0,
            stored_len: stored.len() as u64,
            crc: crc32(stored),
            filter: String::new(),
            chunk_dim0: 0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn forged_stored_len_is_bounded_corruption_error() {
        // A CRC-consistent index whose entry claims a payload far larger
        // than the file: the reader must fail typed *before* allocating.
        let path = temp_path("hugelen");
        let payload = [7u8; 16];
        let mut entry = forged_entry(&payload);
        entry.stored_len = u64::MAX / 2;
        forge_file(&path, &payload, entry);
        let r = SdfReader::open(&path).unwrap();
        assert!(matches!(r.read_bytes("/v").unwrap_err(), SdfError::Corrupt(_)));

        // Same for an offset pointing past the data region.
        let path2 = temp_path("hugeoff");
        let mut entry2 = forged_entry(&payload);
        entry2.offset = u64::MAX - 8;
        let mut bytes = Vec::new();
        header::write_superblock(&mut bytes);
        bytes.extend_from_slice(&payload);
        let index_offset = bytes.len() as u64;
        let mut index_bytes = Vec::new();
        varint::write_u64(1, &mut index_bytes);
        entry2.encode(&mut index_bytes);
        let crc = crc32(&index_bytes);
        bytes.extend_from_slice(&index_bytes);
        header::write_footer(index_offset, index_bytes.len() as u64, crc, &mut bytes);
        std::fs::write(&path2, &bytes).unwrap();
        let r2 = SdfReader::open(&path2).unwrap();
        assert!(matches!(r2.read_bytes("/v").unwrap_err(), SdfError::Corrupt(_)));
    }

    #[test]
    fn forged_chunk_count_is_bounded_corruption_error() {
        // Payload is just a varint claiming ~2^40 chunks, with a matching
        // CRC: both chunked read paths must clamp the count against the
        // payload size instead of reserving a table for it.
        let path = temp_path("hugechunks");
        let mut payload = Vec::new();
        varint::write_u64(1 << 40, &mut payload);
        let mut entry = forged_entry(&payload);
        entry.layout = Layout::new(DataType::U8, &[64]);
        entry.chunk_dim0 = 4;
        forge_file(&path, &payload, entry);
        let r = SdfReader::open(&path).unwrap();
        assert!(matches!(r.read_bytes("/v").unwrap_err(), SdfError::Corrupt(_)));
        assert!(matches!(
            r.read_rows_bytes("/v", 0, 2).unwrap_err(),
            SdfError::Corrupt(_)
        ));
    }

    #[test]
    fn unknown_filter_fails_the_dataset_not_the_file() {
        // Specs are parsed once, at open; one this build does not know must
        // still surface where it always did — reading that dataset.
        let path = temp_path("badspec");
        let payload = [7u8; 16];
        let mut entry = forged_entry(&payload);
        entry.filter = "lzss|nope".into();
        forge_file(&path, &payload, entry);
        let r = SdfReader::open(&path).unwrap();
        assert_eq!(r.info("/v").unwrap().filter, "lzss|nope");
        assert!(r.validate().is_ok(), "checksums do not need the filter");
        let err = r.read_bytes("/v").unwrap_err();
        assert!(matches!(&err, SdfError::Filter(m) if m.contains("nope")), "{err}");
    }

    #[test]
    fn query_section_roundtrips_through_file() {
        let path = temp_path("qsec");
        write_sample(&path, Some("lzss"), 4);
        let r = SdfReader::open(&path).unwrap();
        let section = r.query_section().unwrap().expect("new files carry a section");
        assert_eq!(section.entries.len(), r.len());
        let h = crate::query::key_hash("theta", 3, crate::query::NO_COORD);
        assert!(section.bloom.contains(h));
        let cands = section.candidates(h);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].variable, "theta");
        assert_eq!(cands[0].iteration, 3);
        // The ordinal round-trips to the same bytes as the by-path read.
        let via_ordinal = r.read_bytes_at(cands[0].ordinal as usize).unwrap();
        assert_eq!(via_ordinal, r.read_bytes("/iter-3/theta").unwrap());
    }

    #[test]
    fn file_without_query_section_reads_fine() {
        // Emulate an old-format file: rewrite a fresh file with the query
        // region dropped (index moved flush against the footer).
        let path = temp_path("noqsec");
        let data = write_sample(&path, None, 0);
        let bytes = std::fs::read(&path).unwrap();
        let flen = bytes.len() as u64;
        let (index_offset, index_len, index_crc) =
            header::read_footer(&bytes[(flen - FOOTER_LEN) as usize..]).unwrap();
        let mut old = bytes[..(index_offset + index_len) as usize].to_vec();
        header::write_footer(index_offset, index_len, index_crc, &mut old);
        std::fs::write(&path, &old).unwrap();
        let r = SdfReader::open(&path).unwrap();
        assert_eq!(r.read_f32("/iter-3/theta").unwrap(), data);
        assert!(r.query_section().unwrap().is_none());
    }

    #[test]
    fn corrupt_query_section_is_typed_and_leaves_data_readable() {
        let path = temp_path("badqsec");
        let data = write_sample(&path, None, 0);
        let bytes = std::fs::read(&path).unwrap();
        let flen = bytes.len() as u64;
        let (index_offset, index_len, _) =
            header::read_footer(&bytes[(flen - FOOTER_LEN) as usize..]).unwrap();
        let qstart = (index_offset + index_len) as usize;
        let mut bad = bytes.clone();
        bad[qstart + 20] ^= 0xff; // inside the section payload
        std::fs::write(&path, &bad).unwrap();
        let r = SdfReader::open(&path).unwrap();
        assert!(r.query_section().is_err());
        // Datasets stay readable through the scan path.
        assert_eq!(r.read_f32("/iter-3/theta").unwrap(), data);
    }

    #[test]
    fn readers_are_shareable_across_threads() {
        let path = temp_path("sync");
        let data = write_sample(&path, Some("lzss"), 4);
        let r = SdfReader::open(&path).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = &r;
                let data = &data;
                s.spawn(move || {
                    for _ in 0..16 {
                        assert_eq!(&r.read_f32("/iter-3/theta").unwrap(), data);
                    }
                });
            }
        });
    }
}
