//! Sequential SDF writer.
//!
//! Datasets stream to disk as they are written (append-only, no seeking);
//! each one's index entry is encoded into one buffer as it is written, and
//! [`SdfWriter::finish`] flushes that buffer behind the name table. This
//! append-only discipline is what lets a Damaris dedicated core interleave
//! writes from many clients into one large file without coordination — the
//! paper's "gathering data into large files" (§III).

use crate::checksum::crc32_update;
use crate::header::{self, Entry, IndexBuf, PathField};
use crate::query::NO_COORD;
use crate::types::{AttrValue, DataType, Layout};
use crate::{Result, SdfError};
use damaris_compress::Pipeline;
use std::borrow::Cow;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Per-dataset write options.
#[derive(Debug, Clone, Default)]
pub struct DatasetOptions {
    /// Filter pipeline spec (e.g. `"lzss"`, `"precision16|lzss"`). Empty
    /// string or `None` stores raw bytes.
    pub filter: Option<String>,
    /// Chunk extent along dimension 0, in elements. `0` (default) stores the
    /// dataset contiguously. Chunking splits the payload into independently
    /// filtered chunks so partial reads don't decompress everything.
    pub chunk_dim0: u64,
    /// The dataset's `(iteration, source)` coordinates, recorded as index
    /// fields; either may be [`NO_COORD`]. `None` records neither.
    pub coords: Option<(u32, u32)>,
    /// Attributes recorded in the index.
    pub attrs: Vec<(String, AttrValue)>,
}

impl DatasetOptions {
    /// Contiguous, unfiltered, no attributes.
    pub fn plain() -> Self {
        Self::default()
    }

    /// Sets the filter pipeline spec.
    pub fn with_filter(mut self, spec: impl Into<String>) -> Self {
        self.filter = Some(spec.into());
        self
    }

    /// Adds an attribute.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        self.attrs.push((name.into(), value.into()));
        self
    }

    /// Sets the iteration and source coordinates the query section keys
    /// the dataset by; either may be [`NO_COORD`].
    pub fn with_coords(mut self, iteration: u32, source: u32) -> Self {
        self.coords = Some((iteration, source));
        self
    }

    /// Sets the chunk extent along dimension 0.
    pub fn with_chunk_dim0(mut self, chunk: u64) -> Self {
        self.chunk_dim0 = chunk;
        self
    }
}

/// What an injected dataset-write fault does. Installed by storage-side
/// fault harnesses (see `damaris-fs`' `FaultyBackend`) via
/// [`SdfWriter::set_fault_hook`] so faults can fire *mid-payload*, between
/// datasets of one file, not just at begin/commit boundaries.
#[derive(Debug)]
pub enum WriteFault {
    /// The dataset write fails with this error; the file is left partial
    /// on its temporary name (recovery or a retry deals with it).
    Fail(SdfError),
    /// The dataset write "succeeds" but the payload bytes on disk are
    /// corrupted while the index records the checksum of the *intended*
    /// bytes — the storage-side analogue of a torn copy. Readers see a
    /// CRC mismatch and the recovery scan quarantines the file.
    Corrupt,
}

/// Per-dataset-write fault callback: called once per
/// [`SdfWriter::write_dataset_bytes`], returns what (if anything) to
/// inject. May sleep internally to model a stall.
pub type WriteFaultHook = Box<dyn FnMut() -> Option<WriteFault> + Send>;

/// Runs `bytes` through the dataset's filter pipeline, adding the time it
/// took to `spent_ns`; without one the stored form *is* the caller's bytes,
/// borrowed, and no clock is read.
fn encode<'a>(
    pipeline: Option<&Pipeline>,
    bytes: &'a [u8],
    spent_ns: &mut u64,
) -> Result<Cow<'a, [u8]>> {
    let Some(pipeline) = pipeline else {
        return Ok(Cow::Borrowed(bytes));
    };
    let started = Instant::now();
    let encoded = pipeline.encode(bytes);
    *spent_ns += started.elapsed().as_nanos() as u64;
    match encoded {
        Ok((encoded, _)) => Ok(Cow::Owned(encoded)),
        Err(e) => Err(SdfError::Filter(e.to_string())),
    }
}

/// What a dataset is written under.
#[derive(Clone, Copy)]
enum Target<'a> {
    /// A path, stored as it is.
    Path(&'a str),
    /// A variable name at the dataset's coordinates.
    Name(&'a str),
}

/// Streaming writer for a new SDF file.
pub struct SdfWriter {
    file: BufWriter<File>,
    path: PathBuf,
    offset: u64,
    index: IndexBuf,
    finished: bool,
    writeback_started: bool,
    fault_hook: Option<WriteFaultHook>,
    /// The filter spec last written with, parsed: a file's datasets nearly
    /// always share one.
    filter: Option<(String, Pipeline)>,
    filter_encode_ns: u64,
}

impl SdfWriter {
    /// Creates (truncating) `path` and writes the superblock.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Self::from_file(file, path)
    }

    /// Starts a file on `file`, which is empty, open for writing and
    /// lives at `path` — for a caller that opened it ahead of time.
    pub fn from_file(file: File, path: PathBuf) -> Result<Self> {
        let mut w = SdfWriter {
            file: BufWriter::new(file),
            path,
            offset: 0,
            index: IndexBuf::default(),
            finished: false,
            writeback_started: false,
            fault_hook: None,
            filter: None,
            filter_encode_ns: 0,
        };
        let mut sb = Vec::new();
        header::write_superblock(&mut sb);
        w.raw_write(&sb)?;
        Ok(w)
    }

    /// Installs a per-dataset-write fault hook (test harnesses only).
    pub fn set_fault_hook(&mut self, hook: WriteFaultHook) {
        self.fault_hook = Some(hook);
    }

    fn raw_write(&mut self, bytes: &[u8]) -> Result<()> {
        self.file.write_all(bytes)?;
        self.offset += bytes.len() as u64;
        Ok(())
    }

    /// Writes a dataset from raw little-endian bytes matching `layout`.
    /// A path that is exactly `/iter-{i}/rank-{s}/{name}` of the
    /// coordinates in `options` is stored as [`write_variable_bytes`]
    /// stores it.
    ///
    /// [`write_variable_bytes`]: Self::write_variable_bytes
    pub fn write_dataset_bytes(
        &mut self,
        path: &str,
        layout: &Layout,
        data: &[u8],
        options: &DatasetOptions,
    ) -> Result<()> {
        let target = match header::parse_canonical(path) {
            Some((name, iteration, source)) if options.coords == Some((iteration, source)) => {
                Target::Name(name)
            }
            _ => Target::Path(path),
        };
        self.write(target, layout, data, options)
    }

    /// Writes a dataset of variable `name` at the coordinates
    /// `options` gives (both required): its path is
    /// `/iter-{iteration}/rank-{source}/{name}`, and the file stores the
    /// name once, in its table, and a reference to it per dataset (one
    /// byte for the table's first 64 names). `name` must be non-empty and
    /// hold no `/`.
    pub fn write_variable_bytes(
        &mut self,
        name: &str,
        layout: &Layout,
        data: &[u8],
        options: &DatasetOptions,
    ) -> Result<()> {
        self.write(Target::Name(name), layout, data, options)
    }

    fn write(
        &mut self,
        target: Target<'_>,
        layout: &Layout,
        data: &[u8],
        options: &DatasetOptions,
    ) -> Result<()> {
        if self.finished {
            return Err(SdfError::Usage("writer already finished".into()));
        }
        let fault = self.fault_hook.as_mut().and_then(|hook| hook());
        if let Some(WriteFault::Fail(err)) = fault {
            return Err(err);
        }
        let corrupt = matches!(fault, Some(WriteFault::Corrupt));
        layout.check_bytes(data.len())?;
        let (iteration, source) = options.coords.unwrap_or((NO_COORD, NO_COORD));
        let path = match target {
            Target::Name(name) => PathField::Name(self.index.claim_name(name, iteration, source)?),
            Target::Path(path) => {
                if !path.starts_with('/') || path.ends_with('/') || path.contains("//") {
                    return Err(SdfError::Usage(format!(
                        "dataset path '{path}' must be absolute, non-empty and normalized"
                    )));
                }
                self.index.claim_path(path)?;
                PathField::Free(path)
            }
        };

        let filter = options.filter.as_deref().unwrap_or("");
        let pipeline = if filter.is_empty() {
            None
        } else {
            if self.filter.as_ref().is_none_or(|(spec, _)| spec != filter) {
                let parsed =
                    Pipeline::from_spec(filter).map_err(|e| SdfError::Filter(e.to_string()))?;
                self.filter = Some((filter.to_string(), parsed));
            }
            self.filter.as_ref().map(|(_, parsed)| parsed)
        };
        let spent_ns = &mut self.filter_encode_ns;

        // What goes to disk, in order, as borrowed or encoded parts: an
        // unfiltered payload is written (and checksummed) where it lies.
        // Chunked datasets carry a small per-chunk length table first so
        // each chunk can be located and decoded independently.
        let chunk_rows = options.chunk_dim0;
        let mut parts: Vec<Cow<'_, [u8]>> = Vec::new();
        if chunk_rows > 0 && layout.rank() > 0 && layout.dims[0] > 0 {
            let row_bytes = (layout.byte_size() / layout.dims[0]) as usize;
            let chunk_bytes = row_bytes
                .checked_mul(chunk_rows as usize)
                .ok_or_else(|| SdfError::Usage("chunk size overflow".into()))?;
            if chunk_bytes == 0 {
                return Err(SdfError::Usage("chunk size must be positive".into()));
            }
            let chunks = data
                .chunks(chunk_bytes)
                .map(|chunk| encode(pipeline, chunk, spent_ns))
                .collect::<Result<Vec<_>>>()?;
            let mut table = Vec::new();
            damaris_compress::varint::write_u64(chunks.len() as u64, &mut table);
            for c in &chunks {
                damaris_compress::varint::write_u64(c.len() as u64, &mut table);
            }
            parts.push(Cow::Owned(table));
            parts.extend(chunks);
        } else {
            parts.push(encode(pipeline, data, spent_ns)?);
        }

        let crc_state = parts
            .iter()
            .fold(0xFFFF_FFFF, |state, part| crc32_update(state, part));
        let entry = Entry {
            path,
            layout,
            stored_len: parts.iter().map(|p| p.len() as u64).sum(),
            crc: crc_state ^ 0xFFFF_FFFF,
            filter,
            chunk_dim0: chunk_rows,
            iteration,
            source,
            attrs: &options.attrs,
        };
        if corrupt {
            // Torn-copy injection: the index keeps the checksum of the
            // intended bytes while the stored payload differs, so readers
            // hit a CRC mismatch exactly as after a real torn write. The
            // one place an unfiltered payload is copied.
            if let Some(first) = parts.iter_mut().find(|p| !p.is_empty()) {
                first.to_mut()[0] ^= 0xFF;
            }
        }
        for part in &parts {
            self.raw_write(part)?;
        }
        self.index.push(&entry);
        Ok(())
    }

    /// Writes an `f32` dataset with default options.
    pub fn write_dataset_f32(&mut self, path: &str, layout: &Layout, data: &[f32]) -> Result<()> {
        self.write_dataset_f32_opts(path, layout, data, &DatasetOptions::plain())
    }

    /// Writes an `f32` dataset with options.
    pub fn write_dataset_f32_opts(
        &mut self,
        path: &str,
        layout: &Layout,
        data: &[f32],
        options: &DatasetOptions,
    ) -> Result<()> {
        if layout.dtype != DataType::F32 {
            return Err(SdfError::Usage(format!(
                "layout dtype {:?} does not match f32 data",
                layout.dtype
            )));
        }
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.write_dataset_bytes(path, layout, &bytes, options)
    }

    /// Writes an `f64` dataset with default options.
    pub fn write_dataset_f64(&mut self, path: &str, layout: &Layout, data: &[f64]) -> Result<()> {
        self.write_dataset_f64_opts(path, layout, data, &DatasetOptions::plain())
    }

    /// Writes an `f64` dataset with options.
    pub fn write_dataset_f64_opts(
        &mut self,
        path: &str,
        layout: &Layout,
        data: &[f64],
        options: &DatasetOptions,
    ) -> Result<()> {
        if layout.dtype != DataType::F64 {
            return Err(SdfError::Usage(format!(
                "layout dtype {:?} does not match f64 data",
                layout.dtype
            )));
        }
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.write_dataset_bytes(path, layout, &bytes, options)
    }

    /// Bytes written so far (including the superblock).
    pub fn bytes_written(&self) -> u64 {
        self.offset
    }

    /// Nanoseconds spent so far inside the filter pipeline's `encode` — the
    /// codec's share of writing this file; 0 while no dataset had a filter.
    pub fn filter_encode_ns(&self) -> u64 {
        self.filter_encode_ns
    }

    /// Number of datasets recorded.
    pub fn dataset_count(&self) -> usize {
        self.index.len()
    }

    /// Path this writer is writing to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Writes the index and footer, flushes, and consumes the writer.
    pub fn finish(mut self) -> Result<u64> {
        self.seal()
    }

    /// Like [`SdfWriter::finish`], but also fsyncs the file to disk before
    /// returning. Crash-consistent commit protocols (write to a temporary
    /// name, sync, rename into place) need the sync to happen *before* the
    /// rename publishes the file.
    pub fn finish_synced(mut self) -> Result<u64> {
        let total = self.seal()?;
        self.file.get_ref().sync_all()?;
        Ok(total)
    }

    /// Asks the kernel to start writing a [`seal`](Self::seal)ed file's
    /// pages to the device, without waiting for them (once; repeating the
    /// call does nothing). A caller that keeps the writer and calls
    /// [`finish_synced`](Self::finish_synced) later finds most of that
    /// sync's work already done. Only a hint: durability still rests on
    /// the `sync_all` in `finish_synced`, and where the hint is not to be
    /// had nothing happens here.
    pub fn start_writeback(&mut self) {
        if self.finished && !self.writeback_started {
            start_writeback(self.file.get_ref());
            self.writeback_started = true;
        }
    }

    /// Completes the file — index and footer written, every
    /// byte handed to the kernel — without consuming the writer, which
    /// takes no more datasets; [`finish`](Self::finish) and
    /// [`finish_synced`](Self::finish_synced) then have only the sync left
    /// to do. Does nothing the second time. Returns the file's length.
    /// (After an error the writer is good for nothing but dropping, as
    /// after a failed dataset write.)
    pub fn seal(&mut self) -> Result<u64> {
        if self.finished {
            return Ok(self.offset);
        }
        let index_offset = self.offset;
        let mut crc = 0xFFFF_FFFF;
        self.index.write(|part| {
            crc = crc32_update(crc, part);
            self.file.write_all(part)?;
            self.offset += part.len() as u64;
            Ok(())
        })?;
        let (index_len, index_crc) = (self.offset - index_offset, crc ^ 0xFFFF_FFFF);
        let mut footer = Vec::new();
        header::write_footer(index_offset, index_len, index_crc, &mut footer);
        self.raw_write(&footer)?;
        self.file.flush()?;
        self.finished = true;
        Ok(self.offset)
    }
}

/// `sync_file_range(fd, 0, 0, SYNC_FILE_RANGE_WRITE)`: queue every dirty
/// page of the file for writing and return. The result is ignored — a
/// file system that cannot take the hint loses nothing but the head start.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn start_writeback(file: &File) {
    use std::os::fd::AsRawFd;
    const SYNC_FILE_RANGE_WRITE: u32 = 2;
    extern "C" {
        fn sync_file_range(fd: i32, offset: i64, nbytes: i64, flags: u32) -> i32;
    }
    // SAFETY: `file` is open for the duration of the call, so the fd is
    // valid; the call takes no pointer and touches only the kernel's
    // page-cache state for that file (offset 0, length 0 = to the end).
    let _ = unsafe { sync_file_range(file.as_raw_fd(), 0, 0, SYNC_FILE_RANGE_WRITE) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn start_writeback(_: &File) {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(crate) fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join("damaris-format-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(format!("{tag}-{}-{n}.sdf", std::process::id()))
    }

    #[test]
    fn create_write_finish() {
        let path = temp_path("basic");
        let mut w = SdfWriter::create(&path).unwrap();
        let layout = Layout::new(DataType::F32, &[8]);
        w.write_dataset_f32("/a", &layout, &[0.0; 8]).unwrap();
        assert_eq!(w.dataset_count(), 1);
        let total = w.finish().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), total);
    }

    #[test]
    fn sealing_early_changes_no_byte() {
        let layout = Layout::new(DataType::F32, &[8]);
        let (plain, early) = (temp_path("seal-plain"), temp_path("seal-early"));
        let mut w = SdfWriter::create(&plain).unwrap();
        w.write_dataset_f32("/a", &layout, &[1.0; 8]).unwrap();
        let total = w.finish_synced().unwrap();

        let mut w = SdfWriter::create(&early).unwrap();
        w.write_dataset_f32("/a", &layout, &[1.0; 8]).unwrap();
        assert_eq!(w.seal().unwrap(), total);
        // The file is whole from here on and takes nothing more.
        assert_eq!(
            std::fs::read(&early).unwrap(),
            std::fs::read(&plain).unwrap()
        );
        let err = w.write_dataset_f32("/b", &layout, &[2.0; 8]).unwrap_err();
        assert!(matches!(err, SdfError::Usage(_)), "{err}");
        w.start_writeback();
        w.start_writeback();
        assert_eq!(w.seal().unwrap(), total);
        assert_eq!(w.finish_synced().unwrap(), total);
        assert_eq!(
            std::fs::read(&early).unwrap(),
            std::fs::read(&plain).unwrap()
        );
    }

    #[test]
    fn duplicate_path_rejected() {
        let path = temp_path("dup");
        let mut w = SdfWriter::create(&path).unwrap();
        let layout = Layout::new(DataType::F32, &[1]);
        w.write_dataset_f32("/a", &layout, &[1.0]).unwrap();
        let err = w.write_dataset_f32("/a", &layout, &[2.0]).unwrap_err();
        assert!(matches!(err, SdfError::Usage(_)), "{err}");
    }

    #[test]
    fn bad_paths_rejected() {
        let path = temp_path("badpath");
        let mut w = SdfWriter::create(&path).unwrap();
        let layout = Layout::new(DataType::F32, &[1]);
        for bad in ["a", "/a/", "//a", ""] {
            assert!(
                w.write_dataset_f32(bad, &layout, &[1.0]).is_err(),
                "path '{bad}' should be rejected"
            );
        }
    }

    #[test]
    fn size_mismatch_rejected() {
        let path = temp_path("mismatch");
        let mut w = SdfWriter::create(&path).unwrap();
        let layout = Layout::new(DataType::F32, &[4]);
        assert!(w.write_dataset_f32("/a", &layout, &[1.0; 3]).is_err());
        let f64_layout = Layout::new(DataType::F64, &[2]);
        assert!(w.write_dataset_f32("/b", &f64_layout, &[1.0; 2]).is_err());
    }

    #[test]
    fn encode_time_is_counted_only_under_a_filter() {
        let path = temp_path("encode-ns");
        let mut w = SdfWriter::create(&path).unwrap();
        let layout = Layout::new(DataType::U8, &[4096]);
        let data = vec![3u8; 4096];
        w.write_dataset_bytes("/plain", &layout, &data, &DatasetOptions::plain())
            .unwrap();
        assert_eq!(w.filter_encode_ns(), 0);
        let filtered = DatasetOptions::plain().with_filter("lzss");
        w.write_dataset_bytes("/a", &layout, &data, &filtered)
            .unwrap();
        let one = w.filter_encode_ns();
        assert!(one > 0);
        w.write_dataset_bytes("/b", &layout, &data, &filtered.with_chunk_dim0(1024))
            .unwrap();
        assert!(w.filter_encode_ns() > one, "accumulates, chunks included");
    }

    #[test]
    fn unknown_filter_rejected() {
        let path = temp_path("badfilter");
        let mut w = SdfWriter::create(&path).unwrap();
        let layout = Layout::new(DataType::U8, &[4]);
        let opts = DatasetOptions::plain().with_filter("bogus");
        let err = w
            .write_dataset_bytes("/a", &layout, &[0; 4], &opts)
            .unwrap_err();
        assert!(matches!(err, SdfError::Filter(_)), "{err}");
    }
}
