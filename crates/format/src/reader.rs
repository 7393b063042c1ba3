//! SDF reader: validates the superblock, checks the index at open and
//! keeps it as one flat table, reads dataset payloads lazily, verifies
//! checksums and reverses filter pipelines.
//!
//! # What an open file holds
//!
//! One fixed-size, `Copy` [`Record`] per dataset — what a block read
//! needs: payload offset, stored length, CRC, chunk extent, dtype, filter
//! slot, where its extents and path lie, and where its index entry lies
//! with the CRC of that entry's bytes — beside per-file arenas for the
//! extents, the free-form paths and the parsed filter pipelines. A path
//! stored as a reference to the file's name table is rendered when asked
//! for, from its name and coordinates in the query section, which holds
//! the table. Open checks the whole index (its CRC, the table, then every
//! entry, and that the stored lengths end at the index) and keeps nothing
//! else of it.
//! Attributes and filter specs are needed only by the cold APIs (`info`,
//! `info_at`, `infos_under`, `infos`): they re-read the entries from the
//! file and hold them to the CRCs taken at open — one entry for
//! `info_at`, so a caller walking the index by ordinal pays per entry,
//! not per index. So a reader costs a few allocations per file and about
//! 50 bytes per dataset (and a free-form path's bytes), where an object
//! per dataset cost seven allocations and 570 bytes. The same pass builds the file's
//! [`QuerySection`] from each entry's name or path and coordinates.

use crate::checksum::crc32;
use crate::header::{
    self, EntryRef, PathField, Shape, Superblock, FOOTER_LEN, MIN_ENTRY_LEN, SUPERBLOCK_LEN,
};
use crate::query::{key_hash, QueryKey, QuerySection, SectionBuilder};
use crate::types::{AttrValue, DataType, Layout};
use crate::{Result, SdfError};
use damaris_compress::{varint, CodecError, Pipeline};
use std::borrow::Cow;
use std::convert::Infallible;
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

/// One dataset as an open reader keeps it: what a block read needs,
/// fixed-size and `Copy` (48 bytes).
#[derive(Debug, Clone, Copy)]
struct Record {
    offset: u64,
    stored_len: u64,
    chunk_dim0: u64,
    crc: u32,
    /// Where the dataset's entry starts in the index.
    entry_at: u32,
    /// CRC of the entry's bytes, taken at open from the checked index: a
    /// cold read of the entry is held to it.
    entry_crc: u32,
    /// Where its path comes from: `key << 1 | 1` for a dataset stored by
    /// name (the path renders from the section's key at `key`), `at << 1`
    /// for a free-form path, length-prefixed at `at` in the paths arena.
    path: u32,
    /// Where its `rank` extents start in the extents arena.
    dims_at: u32,
    rank: u8,
    dtype: DataType,
    /// 1 + the slot of its filter spec in `pipelines`; 0 when unfiltered.
    filter: u16,
}

/// A filter spec of the index and what parsing it gave.
type ParsedFilter = (Box<str>, std::result::Result<Pipeline, CodecError>);

/// Reader over a finished SDF file.
///
/// `Sync`: every read is positional (`pread`), so many query threads share
/// one reader — and one file handle — without taking turns.
#[derive(Debug)]
pub struct SdfReader {
    file: File,
    path: PathBuf,
    /// One record per dataset, in index order.
    records: Box<[Record]>,
    /// Every free-form path, length-prefixed, end to end.
    paths: Box<[u8]>,
    /// Every record's extents. Consecutive datasets of one shape share
    /// theirs.
    dims: Box<[u64]>,
    /// Each distinct filter spec of the index, parsed once at open. A spec
    /// this build cannot parse fails the datasets that carry it, when they
    /// are read, not the file.
    pipelines: Vec<ParsedFilter>,
    /// Start of the index — the exclusive upper bound of the data region
    /// every payload read is clamped against.
    index_offset: u64,
    /// Its length.
    index_len: u32,
    /// CRC of the whole index, checked at open; a cold re-read of all of
    /// it is held to it again.
    index_crc: u32,
    /// How the entries are laid out (the superblock says).
    shape: Shape,
    /// Built at open from the index; its first names are the file's name
    /// table.
    section: QuerySection,
}

impl SdfReader {
    /// Opens and validates `path`: the superblock and its feature bits, the
    /// footer, the index's CRC, its name table and every entry of it,
    /// building the query section on the way.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        if file_len < SUPERBLOCK_LEN + FOOTER_LEN {
            return Err(SdfError::Format(format!(
                "file is {file_len} bytes; too short to be an SDF file"
            )));
        }

        let mut sb = [0u8; SUPERBLOCK_LEN as usize];
        file.read_exact_at(&mut sb, 0)?;
        let sb = Superblock::validate(&sb)?;
        sb.check_features(false)?;
        let shape = sb.shape();

        let mut footer = [0u8; FOOTER_LEN as usize];
        file.read_exact_at(&mut footer, file_len - FOOTER_LEN)?;
        let (index_offset, index_len, index_crc) = header::read_footer(&footer)?;
        if index_offset
            .checked_add(index_len)
            .map(|end| end > file_len - FOOTER_LEN)
            .unwrap_or(true)
        {
            return Err(SdfError::Format("index range out of bounds".into()));
        }
        // Records address the index with 32-bit offsets.
        if index_len > u64::from(u32::MAX) {
            return Err(SdfError::Format(format!(
                "index of {index_len} bytes exceeds the 4 GiB a reader addresses"
            )));
        }
        // A file from before the coordinate fields may hold a stored query
        // section there, ignored; a newer one holds nothing.
        let gap = file_len - FOOTER_LEN - (index_offset + index_len);
        if shape != Shape::Attrs && gap != 0 {
            return Err(SdfError::Format(format!(
                "{gap} bytes between the index and the footer"
            )));
        }

        let mut index = vec![0u8; index_len as usize];
        file.read_exact_at(&mut index, index_offset)?;
        if crc32(&index) != index_crc {
            return Err(SdfError::Corrupt("index checksum mismatch".into()));
        }

        let mut off = 0usize;
        let table = match shape {
            Shape::Names => header::read_names(&index, &mut off)?,
            Shape::Attrs | Shape::Fields => Vec::new(),
        };
        let count = varint::read_u64(&index, &mut off)
            .ok_or_else(|| SdfError::Format("truncated index count".into()))?;
        let left = index.len() - off;
        if count > (left / MIN_ENTRY_LEN) as u64 {
            return Err(SdfError::Format(format!(
                "index count {count} exceeds what its {left} bytes can hold"
            )));
        }
        let mut records: Vec<Record> = Vec::with_capacity(count as usize);
        let mut section = SectionBuilder::new(count as usize, table)?;
        let mut dims = Vec::new();
        let mut paths = Vec::new();
        let mut pipelines = Vec::new();
        // Where the next payload starts, where offsets are derived.
        let mut next = SUPERBLOCK_LEN;
        for _ in 0..count {
            let entry_at = off;
            let first = dims.len();
            let e = EntryRef::skim(&index, &mut off, shape, &mut dims)?;
            section.push(&e)?;
            let offset = match e.offset {
                Some(offset) => offset,
                None => {
                    let offset = next;
                    next = next.checked_add(e.stored_len).ok_or_else(|| {
                        SdfError::Format("stored lengths overflow a file offset".into())
                    })?;
                    offset
                }
            };
            let path = match e.path {
                // The key's position is known once the section is sorted.
                PathField::Name(_) => 1,
                PathField::Free(path) => {
                    let at = u32::try_from(paths.len())
                        .ok()
                        .filter(|&at| at < 1 << 31)
                        .ok_or_else(|| SdfError::Format("paths exceed 2 GiB".into()))?;
                    varint::write_u64(path.len() as u64, &mut paths);
                    paths.extend_from_slice(path.as_bytes());
                    at << 1
                }
            };
            let rank = dims.len() - first;
            let dims_at = match records.last() {
                // Consecutive datasets mostly share one shape: keep it once.
                Some(prev)
                    if usize::from(prev.rank) == rank
                        && dims[prev.dims_at as usize..][..rank] == dims[first..] =>
                {
                    dims.truncate(first);
                    prev.dims_at
                }
                _ => first as u32,
            };
            records.push(Record {
                offset,
                stored_len: e.stored_len,
                chunk_dim0: e.chunk_dim0,
                crc: e.crc,
                entry_at: entry_at as u32,
                entry_crc: crc32(&index[entry_at..off]),
                path,
                dims_at,
                rank: rank as u8,
                dtype: e.dtype,
                filter: filter_slot(&mut pipelines, e.filter)?,
            });
        }
        if off != index.len() {
            return Err(SdfError::Format("trailing garbage in index".into()));
        }
        if shape == Shape::Names && next != index_offset {
            return Err(SdfError::Format(format!(
                "stored lengths sum to offset {next}, the index starts at {index_offset}"
            )));
        }
        let section = section.finish();
        for (at, key) in section.keys.iter().enumerate() {
            let record = &mut records[key.ordinal as usize];
            if record.path & 1 == 1 {
                record.path = (at as u32) << 1 | 1;
            }
        }

        Ok(SdfReader {
            file,
            path,
            records: records.into_boxed_slice(),
            paths: paths.into_boxed_slice(),
            dims: dims.into_boxed_slice(),
            pipelines,
            index_offset,
            index_len: index_len as u32,
            index_crc,
            shape,
            section,
        })
    }

    /// The query section (bloom filter + sorted keys) `open` built from
    /// the index. It cannot fail: the error type is [`Infallible`].
    pub fn query_section(&self) -> std::result::Result<&QuerySection, Infallible> {
        Ok(&self.section)
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of datasets in the file.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the file holds no datasets.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All dataset paths, in write order.
    pub fn dataset_names(&self) -> Vec<String> {
        self.records
            .iter()
            .map(|r| self.path_of(r).into_owned())
            .collect()
    }

    /// Metadata for one dataset. `None` too if its index entry can no
    /// longer be read back as it was at open.
    pub fn info(&self, path: &str) -> Option<DatasetInfo> {
        self.info_at(self.position(path).ok()?)
    }

    /// Metadata for every dataset whose path starts with `prefix` (none if
    /// the index can no longer be read back as it was at open).
    pub fn infos_under(&self, prefix: &str) -> Vec<DatasetInfo> {
        if !self
            .records
            .iter()
            .any(|r| self.path_of(r).starts_with(prefix))
        {
            return Vec::new();
        }
        let Ok(all) = self.infos() else {
            return Vec::new();
        };
        all.into_iter()
            .filter(|i| i.path.starts_with(prefix))
            .collect()
    }

    /// Metadata for every dataset, in index order, from one re-read of
    /// the index held to the CRC open checked.
    pub fn infos(&self) -> Result<Vec<DatasetInfo>> {
        let index = self.reread_index(0, self.index_len(), self.index_crc)?;
        self.records
            .iter()
            .map(|r| self.decode_info(&index, r.entry_at as usize))
            .collect()
    }

    /// Metadata for the dataset at position `ordinal` in the index. `None`
    /// too if its entry can no longer be read back as it was at open.
    pub fn info_at(&self, ordinal: usize) -> Option<DatasetInfo> {
        let record = self.records.get(ordinal)?;
        let end = match self.records.get(ordinal + 1) {
            Some(next) => next.entry_at as usize,
            None => self.index_len(),
        };
        let bytes = self
            .reread_index(record.entry_at as usize, end, record.entry_crc)
            .ok()?;
        self.decode_info(&bytes, 0).ok()
    }

    /// Layout of the dataset at position `ordinal`, without reading its
    /// path or attributes.
    pub fn layout_at(&self, ordinal: usize) -> Option<Layout> {
        self.records
            .get(ordinal)
            .map(|r| Layout::new(r.dtype, self.dims_of(r)))
    }

    /// `[at, end)` of the index, read from the file again and held to
    /// `crc`, the checksum open took of the same bytes.
    fn reread_index(&self, at: usize, end: usize, crc: u32) -> Result<Vec<u8>> {
        let mut bytes = vec![0u8; end - at];
        self.file
            .read_exact_at(&mut bytes, self.index_offset + at as u64)?;
        if crc32(&bytes) != crc {
            return Err(SdfError::Corrupt(format!(
                "index bytes [{at}, {end}) changed since the file was opened"
            )));
        }
        Ok(bytes)
    }

    /// The entry at `at` of `bytes`, re-read from the index, as metadata.
    fn decode_info(&self, bytes: &[u8], mut at: usize) -> Result<DatasetInfo> {
        let (mut dims, mut attrs) = (Vec::new(), Vec::new());
        let e = EntryRef::parse(bytes, &mut at, self.shape, &mut dims, |name, value| {
            attrs.push((name.to_string(), value.owned()))
        })?;
        let (iteration, source) = e.coords();
        Ok(DatasetInfo {
            path: match e.path {
                PathField::Free(path) => path.to_string(),
                PathField::Name(id) => {
                    header::canonical_path(self.section.name(id), iteration, source)
                }
            },
            layout: Layout {
                dtype: e.dtype,
                dims,
            },
            stored_len: e.stored_len,
            filter: e.filter.to_string(),
            chunk_dim0: e.chunk_dim0,
            attrs,
        })
    }

    fn index_len(&self) -> usize {
        self.index_len as usize
    }

    /// The section's key of `record` when it is stored by name.
    fn named_key(&self, record: &Record) -> Option<&QueryKey> {
        (record.path & 1 == 1).then(|| &self.section.keys[(record.path >> 1) as usize])
    }

    /// The free-form path of `record`; `None` when it is stored by name.
    fn free_path(&self, record: &Record) -> Option<&str> {
        if record.path & 1 == 1 {
            return None;
        }
        let raw = header::read_raw(&self.paths, &mut ((record.path >> 1) as usize))
            .ok()
            .and_then(|raw| std::str::from_utf8(raw).ok())
            // invariant: `open` copied each path here from the checked
            // index, whole and UTF-8, and the arena does not change.
            .expect("path checked at open");
        Some(raw)
    }

    /// The path of `record`, rendered if it is stored by name.
    fn path_of(&self, record: &Record) -> Cow<'_, str> {
        match self.named_key(record) {
            Some(key) => Cow::Owned(header::canonical_path(
                self.section.variable(key),
                key.iteration,
                key.source,
            )),
            None => Cow::Borrowed(self.free_path(record).unwrap_or_default()),
        }
    }

    /// The position of the dataset at `path`: the first in the index, of
    /// the one stored by name that renders to it (found through the
    /// section) and the free-form ones.
    fn position(&self, path: &str) -> Result<usize> {
        let named = header::parse_canonical(path).and_then(|(name, iteration, source)| {
            self.section
                .candidates(key_hash(name, iteration, source))
                .iter()
                .filter(|k| {
                    (k.iteration, k.source) == (iteration, source)
                        && self.section.variable(k) == name
                        && self.records[k.ordinal as usize].path & 1 == 1
                })
                .map(|k| k.ordinal as usize)
                .min()
        });
        let before = named.unwrap_or(self.records.len());
        self.records[..before]
            .iter()
            .position(|r| self.free_path(r) == Some(path))
            .or(named)
            .ok_or_else(|| SdfError::Usage(format!("no dataset at '{path}'")))
    }

    /// The record of the dataset at `path`.
    fn find(&self, path: &str) -> Result<&Record> {
        Ok(&self.records[self.position(path)?])
    }

    fn dims_of(&self, record: &Record) -> &[u64] {
        &self.dims[record.dims_at as usize..][..usize::from(record.rank)]
    }

    /// The layout's size in bytes: what a dataset decodes to, and the
    /// limit every decode of it is given.
    fn logical_len(&self, record: &Record) -> Result<usize> {
        let bytes = self.dims_of(record).iter().product::<u64>() * record.dtype.size() as u64;
        usize::try_from(bytes).map_err(|_| {
            SdfError::Corrupt(format!(
                "layout of '{}' is larger than this platform can address",
                self.path_of(record)
            ))
        })
    }

    /// What one chunk of a chunked dataset of `total` bytes decodes to at
    /// most: `chunk_dim0` rows (the last chunk may hold fewer).
    fn chunk_len(&self, record: &Record, total: usize) -> usize {
        match self.dims_of(record).first() {
            Some(&dim0) if dim0 > 0 => (total as u64 / dim0)
                .saturating_mul(record.chunk_dim0)
                .min(total as u64) as usize,
            _ => total,
        }
    }

    fn read_stored(&self, record: &Record) -> Result<Vec<u8>> {
        // The index is CRC-guarded but still untrusted input: clamp the
        // payload range against the data region before sizing the buffer,
        // so a corrupt stored_len cannot demand an unbounded allocation.
        let in_bounds = record.offset >= SUPERBLOCK_LEN
            && record
                .offset
                .checked_add(record.stored_len)
                .is_some_and(|end| end <= self.index_offset);
        if !in_bounds {
            return Err(SdfError::Corrupt(format!(
                "payload range [{}, +{}) for '{}' escapes the data region",
                record.offset,
                record.stored_len,
                self.path_of(record)
            )));
        }
        // Positional reads: no lock, no seek, and no zeroing of bytes the
        // read writes anyway.
        let stored = read_at(&self.file, record.stored_len as usize, record.offset)?;
        if crc32(&stored) != record.crc {
            return Err(SdfError::Corrupt(format!(
                "payload checksum mismatch for '{}'",
                self.path_of(record)
            )));
        }
        Ok(stored)
    }

    /// The parsed pipeline of `record`'s filter; `None` when it has none.
    fn pipeline(&self, record: &Record) -> Result<Option<&Pipeline>> {
        let Some(slot) = usize::from(record.filter).checked_sub(1) else {
            return Ok(None);
        };
        // invariant: `open` gave every filtered record the slot it parsed.
        let (_, parsed) = self
            .pipelines
            .get(slot)
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
    fn decode_payload(&self, record: &Record, stored: Vec<u8>) -> Result<Vec<u8>> {
        let pipeline = self.pipeline(record)?;
        let expected = self.logical_len(record)?;
        let logical = if record.chunk_dim0 > 0 {
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
            let chunk_bytes = self.chunk_len(record, expected);
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
                self.path_of(record),
                logical.len(),
            )));
        }
        Ok(logical)
    }

    /// Verifies the stored checksum of *every* dataset payload (the index
    /// and footer were already verified at open). Decoding/filters are not
    /// exercised — this is the cheap integrity pass a recovery scan runs
    /// over files found after a crash.
    pub fn validate(&self) -> Result<()> {
        for record in self.records.iter() {
            self.read_stored(record)?;
        }
        Ok(())
    }

    /// Reads and decodes the full payload of a dataset as raw bytes.
    pub fn read_bytes(&self, path: &str) -> Result<Vec<u8>> {
        let record = self.find(path)?;
        let stored = self.read_stored(record)?;
        self.decode_payload(record, stored)
    }

    /// Reads and decodes the dataset at position `ordinal` in the index —
    /// the block-read path the query tier takes after a sparse-index hit,
    /// skipping the by-path lookup.
    pub fn read_bytes_at(&self, ordinal: usize) -> Result<Vec<u8>> {
        let record = self
            .records
            .get(ordinal)
            .ok_or_else(|| SdfError::Usage(format!("ordinal {ordinal} out of range")))?;
        let stored = self.read_stored(record)?;
        self.decode_payload(record, stored)
    }

    /// Reads rows `[first, first + count)` along dimension 0 of a *chunked*
    /// dataset, decompressing only the chunks that overlap the range — the
    /// partial-read path a visualization consumer uses on large outputs.
    ///
    /// Contiguous datasets (`chunk_dim0 == 0`) are rejected with a usage
    /// error: read them whole (no I/O is saved by slicing them).
    pub fn read_rows_bytes(&self, path: &str, first: u64, count: u64) -> Result<Vec<u8>> {
        let record = self.find(path)?;
        if record.chunk_dim0 == 0 {
            return Err(SdfError::Usage(format!(
                "dataset '{path}' is contiguous; use read_bytes"
            )));
        }
        let dims = self.dims_of(record);
        let dim0 = *dims
            .first()
            .ok_or_else(|| SdfError::Usage(format!("dataset '{path}' is scalar; has no rows")))?;
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
        let byte_size = dims.iter().product::<u64>() * record.dtype.size() as u64;
        let row_bytes = (byte_size / dim0) as usize;
        let chunk_rows = record.chunk_dim0;
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
        let stored = self.read_stored(record)?;
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
        let pipeline = self.pipeline(record)?;
        let chunk_limit = self.chunk_len(record, self.logical_len(record)?);

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
        for (ci, &len) in lens
            .iter()
            .enumerate()
            .take(last_chunk + 1)
            .skip(first_chunk)
        {
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

    /// Fails with a usage error unless the dataset at `path` holds `want`.
    fn check_dtype(&self, path: &str, want: DataType) -> Result<()> {
        let dtype = self.find(path)?.dtype;
        if dtype != want {
            return Err(SdfError::Usage(format!(
                "dataset '{path}' has dtype {dtype:?}, not {want:?}"
            )));
        }
        Ok(())
    }

    /// Typed wrapper over [`SdfReader::read_rows_bytes`] for f32 datasets.
    pub fn read_rows_f32(&self, path: &str, first: u64, count: u64) -> Result<Vec<f32>> {
        self.check_dtype(path, DataType::F32)?;
        let bytes = self.read_rows_bytes(path, first, count)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Reads an `f32` dataset.
    pub fn read_f32(&self, path: &str) -> Result<Vec<f32>> {
        self.check_dtype(path, DataType::F32)?;
        let bytes = self.read_bytes(path)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Reads an `f64` dataset.
    pub fn read_f64(&self, path: &str) -> Result<Vec<f64>> {
        self.check_dtype(path, DataType::F64)?;
        let bytes = self.read_bytes(path)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }
}

/// The slot of `spec` in `pipelines` plus one, parsing it on first sight;
/// 0 for no filter.
fn filter_slot(pipelines: &mut Vec<ParsedFilter>, spec: &str) -> Result<u16> {
    if spec.is_empty() {
        return Ok(0);
    }
    let slot = match pipelines.iter().position(|(s, _)| **s == *spec) {
        Some(slot) => slot,
        None => {
            pipelines.push((spec.into(), Pipeline::from_spec(spec)));
            pipelines.len() - 1
        }
    };
    u16::try_from(slot + 1)
        .map_err(|_| SdfError::Format("index holds more than 65 535 distinct filter specs".into()))
}

/// `len` bytes of `file` from `offset`, read into a buffer that is never
/// zeroed first: `pread` writes into the vector's spare capacity, and the
/// length grows by what each call wrote. A file that ends before
/// `offset + len` is an `UnexpectedEof` error, and no bytes.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn read_at(file: &File, len: usize, offset: u64) -> std::io::Result<Vec<u8>> {
    use std::io::{Error, ErrorKind};
    use std::os::fd::AsRawFd;
    extern "C" {
        fn pread(fd: i32, buf: *mut u8, count: usize, offset: i64) -> isize;
    }
    let mut buf = Vec::with_capacity(len);
    while buf.len() < len {
        let at = offset + buf.len() as u64;
        let want = len - buf.len();
        let spare = buf.spare_capacity_mut().as_mut_ptr();
        // SAFETY: `spare` points at the vector's capacity past its length,
        // at least `want` bytes it owns, so the kernel writes inside memory
        // nothing else refers to; `file` is open for the call. `pread`
        // returns how many of those bytes it wrote, never more than
        // `want`: only those join the length.
        let n = unsafe {
            let n = pread(file.as_raw_fd(), spare.cast(), want, at as i64);
            if n > 0 {
                buf.set_len(buf.len() + n as usize);
            }
            n
        };
        match n {
            0 => {
                return Err(Error::new(
                    ErrorKind::UnexpectedEof,
                    "file ends inside the range read",
                ))
            }
            n if n < 0 => {
                let e = Error::last_os_error();
                if e.kind() != ErrorKind::Interrupted {
                    return Err(e);
                }
            }
            _ => {}
        }
    }
    Ok(buf)
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn read_at(file: &File, len: usize, offset: u64) -> std::io::Result<Vec<u8>> {
    let mut buf = vec![0u8; len];
    file.read_exact_at(&mut buf, offset)?;
    Ok(buf)
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
    use crate::header::Entry;
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
        assert_eq!(r.layout_at(0), Some(Layout::new(DataType::F32, &[16, 8])));
        assert_eq!(r.layout_at(1), Some(Layout::scalar(DataType::F64)));
        assert_eq!(r.layout_at(2), None);
    }

    #[test]
    fn shared_shapes_are_kept_once() {
        let path = temp_path("shapes");
        let mut w = SdfWriter::create(&path).unwrap();
        let shapes: [&[u64]; 5] = [&[4], &[4], &[2, 2], &[], &[2, 2]];
        for (i, dims) in shapes.iter().enumerate() {
            let layout = Layout::new(DataType::U8, dims);
            let data = vec![i as u8; layout.byte_size() as usize];
            w.write_dataset_bytes(&format!("/d{i}"), &layout, &data, &DatasetOptions::plain())
                .unwrap();
        }
        w.finish().unwrap();
        let r = SdfReader::open(&path).unwrap();
        assert_eq!(&r.dims[..], [4, 2, 2, 2, 2]);
        for (i, dims) in shapes.iter().enumerate() {
            assert_eq!(r.layout_at(i).unwrap().dims, *dims);
            let len = r.read_bytes(&format!("/d{i}")).unwrap().len() as u64;
            assert_eq!(len, dims.iter().product::<u64>());
        }
    }

    #[test]
    fn roundtrip_filtered() {
        for filter in ["rle", "lzss", "lzss|rle"] {
            let path = temp_path("filt");
            let data = write_sample(&path, Some(filter), 0);
            let r = SdfReader::open(&path).unwrap();
            assert_eq!(
                r.read_f32("/iter-3/theta").unwrap(),
                data,
                "filter {filter}"
            );
            let info = r.info("/iter-3/theta").unwrap();
            assert_eq!(info.filter, filter);
        }
    }

    #[test]
    fn roundtrip_chunked() {
        for (filter, chunk) in [
            (None, 4u64),
            (Some("lzss"), 4),
            (Some("rle"), 16),
            (None, 100),
        ] {
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
        w.write_dataset_f32_opts("/v", &layout, &data, &opts)
            .unwrap();
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
        assert!(matches!(
            r.read_f32("/nope").unwrap_err(),
            SdfError::Usage(_)
        ));
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
        let (index_offset, _, _) = header::read_footer(&bytes[n - FOOTER_LEN as usize..]).unwrap();
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
                let expect = &full[(first as usize * row)..((first + count) as usize * row)];
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

    /// Builds a raw SDF file of one hand-forged entry (bypassing the
    /// writer's invariants) so corrupt-but-CRC-consistent indexes can be
    /// exercised: laid out as files are now, or, given a stored `offset`,
    /// as a file with coordinate fields and no name table.
    fn forge_file(path: &Path, payload: &[u8], entry: Entry<'_>, offset: Option<u64>) {
        let mut bytes = Vec::new();
        header::write_superblock(&mut bytes);
        bytes.extend_from_slice(payload);
        let index_offset = bytes.len() as u64;
        let mut index = Vec::new();
        match offset {
            None => {
                index.extend_from_slice(&[0, 1]);
                entry.encode(&mut index);
            }
            Some(offset) => {
                bytes[6..8].copy_from_slice(&header::INCOMPAT_COORDS.to_le_bytes());
                index.push(1);
                index.extend(header::tests::old_bytes(&entry, offset, Shape::Fields));
            }
        }
        let crc = crc32(&index);
        bytes.extend_from_slice(&index);
        header::write_footer(index_offset, index.len() as u64, crc, &mut bytes);
        std::fs::write(path, &bytes).unwrap();
    }

    fn forged_entry<'a>(stored: &[u8], layout: &'a Layout) -> Entry<'a> {
        Entry {
            path: PathField::Free("/v"),
            layout,
            stored_len: stored.len() as u64,
            crc: crc32(stored),
            filter: "",
            chunk_dim0: 0,
            iteration: crate::NO_COORD,
            source: crate::NO_COORD,
            attrs: &[],
        }
    }

    #[test]
    fn forged_stored_len_is_bounded_corruption_error() {
        // A CRC-consistent index whose entry claims a payload far larger
        // than the file: a file that derives its offsets refuses it at
        // open, as its lengths no longer end at the index.
        let path = temp_path("hugelen");
        let payload = [7u8; 16];
        let layout = Layout::new(DataType::U8, &[16]);
        let huge = Entry {
            stored_len: u64::MAX / 2,
            ..forged_entry(&payload, &layout)
        };
        forge_file(&path, &payload, huge, None);
        let err = SdfReader::open(&path).unwrap_err();
        assert!(
            matches!(&err, SdfError::Format(m) if m.contains("sum to")),
            "{err}"
        );

        // A file that stores its offsets opens, and the read must fail
        // typed *before* allocating; so for an offset past the data region.
        for (tag, entry, offset) in [
            ("hugelen-stored", huge, header::SUPERBLOCK_LEN),
            ("hugeoff", forged_entry(&payload, &layout), u64::MAX - 8),
        ] {
            let path = temp_path(tag);
            forge_file(&path, &payload, entry, Some(offset));
            let r = SdfReader::open(&path).unwrap();
            assert!(matches!(
                r.read_bytes("/v").unwrap_err(),
                SdfError::Corrupt(_)
            ));
        }
    }

    #[test]
    fn forged_chunk_count_is_bounded_corruption_error() {
        // Payload is just a varint claiming ~2^40 chunks, with a matching
        // CRC: both chunked read paths must clamp the count against the
        // payload size instead of reserving a table for it.
        let path = temp_path("hugechunks");
        let mut payload = Vec::new();
        varint::write_u64(1 << 40, &mut payload);
        let layout = Layout::new(DataType::U8, &[64]);
        let entry = Entry {
            chunk_dim0: 4,
            ..forged_entry(&payload, &layout)
        };
        forge_file(&path, &payload, entry, None);
        let r = SdfReader::open(&path).unwrap();
        assert!(matches!(
            r.read_bytes("/v").unwrap_err(),
            SdfError::Corrupt(_)
        ));
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
        let layout = Layout::new(DataType::U8, &[16]);
        let entry = Entry {
            filter: "lzss|nope",
            ..forged_entry(&payload, &layout)
        };
        forge_file(&path, &payload, entry, None);
        let r = SdfReader::open(&path).unwrap();
        assert_eq!(r.info("/v").unwrap().filter, "lzss|nope");
        assert!(r.validate().is_ok(), "checksums do not need the filter");
        let err = r.read_bytes("/v").unwrap_err();
        assert!(
            matches!(&err, SdfError::Filter(m) if m.contains("nope")),
            "{err}"
        );
    }

    #[test]
    fn query_section_is_built_at_open() {
        let path = temp_path("qsec");
        let mut w = SdfWriter::create(&path).unwrap();
        let layout = Layout::new(DataType::U8, &[4]);
        let coords = DatasetOptions::plain().with_coords(3, 1);
        w.write_dataset_bytes("/a/theta", &layout, &[1; 4], &coords)
            .unwrap();
        // An `iteration` attribute is a plain attribute: the path answers.
        let attr = DatasetOptions::plain().with_attr("iteration", 9i64);
        w.write_dataset_bytes("/iter-4/theta", &layout, &[2; 4], &attr)
            .unwrap();
        w.finish().unwrap();
        let r = SdfReader::open(&path).unwrap();
        let Ok(section) = r.query_section();
        assert_eq!(section.keys.len(), r.len());
        for (ordinal, iteration, source) in [(0, 3, 1), (1, 4, crate::NO_COORD)] {
            let h = crate::query::key_hash("theta", iteration, source);
            assert!(section.bloom.contains(h));
            let cands = section.candidates(h);
            assert_eq!(cands.len(), 1);
            assert_eq!(section.variable(&cands[0]), "theta");
            assert_eq!(
                (cands[0].ordinal, cands[0].iteration, cands[0].source),
                (ordinal, iteration, source)
            );
            let via_ordinal = r.read_bytes_at(ordinal as usize).unwrap();
            assert_eq!(via_ordinal, [ordinal as u8 + 1; 4]);
        }
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
