//! # damaris-format — the SDF scientific data format
//!
//! A self-describing, hierarchical scientific data format standing in for
//! HDF5/pHDF5 in this reproduction of the Damaris paper. Simulations do not
//! write raw bytes: they write *enriched datasets* — named, typed,
//! multi-dimensional arrays with attributes — exactly the property the
//! paper's dedicated cores exploit to perform "smart actions" on data.
//!
//! ## Capabilities
//!
//! * **Groups** — `/`-separated hierarchical paths (`/iter-12/rank-3/theta`).
//! * **Datasets** — typed N-dimensional arrays ([`Layout`]) stored
//!   contiguously or in fixed-size chunks.
//! * **Attributes** — small typed key/values on any dataset.
//! * **Filter pipelines** — per-dataset compression using the
//!   `damaris-compress` codecs (`"lzss"`, `"rle"`, `"precision16|lzss"`, …),
//!   the analogue of HDF5's gzip filter that the file-per-process approach
//!   enables and pHDF5 cannot (paper §II-B).
//! * **Integrity** — CRC32 on every dataset payload and on the index.
//! * **Shared-file mode** ([`shared`]) — multiple writers, pre-reserved byte
//!   ranges, one index: the collective-I/O analogue.
//! * **Query section** ([`query`]) — a bloom filter + sorted key table over
//!   ⟨variable, iteration, source⟩ keys, built by the reader at open from
//!   the index, so the read tier (`damaris-query`) can answer point probes
//!   without scanning.
//!
//! ## On-disk layout
//!
//! ```text
//! [superblock][payload][payload]…[index][footer]
//!  └ "SDF1" version flags         └ the variable names, once each; then
//!                                   per dataset: path or name reference,
//!                                   layout, stored length, crc, filter,
//!                                   chunk extent, iteration, source,
//!                                   attributes
//! ```
//!
//! Payloads are appended as datasets are written (streaming friendly — no
//! seeks during data writes), end to end, so no entry stores an offset:
//! each is the sum of the stored lengths before it. `finish()` appends the
//! index and a fixed-size footer pointing back at it. Readers locate the
//! footer at `len-24`, then read the index; individual dataset payloads
//! are read lazily. A dataset whose path is
//! `/iter-{iteration}/rank-{source}/{name}` of its own coordinates stores
//! a reference to its name instead ([`header`] gives the bytes). The
//! superblock's flags word holds feature bits ([`header::Features`]):
//! [`header::INCOMPAT_COORDS`] and [`header::INCOMPAT_NAMES`], both set in
//! every file written now. A file with only the first stores each path
//! and offset; one with neither — from before coordinate fields — keys
//! its datasets by their `iteration`/`source` attributes, and may hold a
//! stored query section before its footer, which is ignored.
//!
//! ## Example
//!
//! ```
//! use damaris_format::{Layout, DataType, SdfWriter, SdfReader};
//! let dir = std::env::temp_dir().join("sdf-doc-example");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("out.sdf");
//!
//! let mut w = SdfWriter::create(&path).unwrap();
//! let layout = Layout::new(DataType::F32, &[4, 3]);
//! let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
//! w.write_dataset_f32("/iter-0/theta", &layout, &data).unwrap();
//! w.finish().unwrap();
//!
//! let r = SdfReader::open(&path).unwrap();
//! assert_eq!(r.dataset_names(), vec!["/iter-0/theta"]);
//! assert_eq!(r.read_f32("/iter-0/theta").unwrap(), data);
//! ```

mod checksum;
pub mod header;
pub mod query;
mod reader;
pub mod shared;
pub mod trace;
mod types;
mod writer;

pub use checksum::{crc32, crc32_update, Crc32Kernel};
pub use header::{FOOTER_LEN, MAGIC, SUPERBLOCK_LEN, VERSION};
pub use query::{key_hash, BloomFilter, QueryKey, QuerySection, NO_COORD};
pub use reader::{DatasetInfo, SdfReader};
pub use types::{AttrValue, DataType, Layout};
pub use writer::{DatasetOptions, SdfWriter, WriteFault, WriteFaultHook};

use std::fmt;
use std::io;

/// Errors from reading or writing SDF files.
#[derive(Debug)]
pub enum SdfError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem in the file (bad magic, truncated index, …).
    Format(String),
    /// Payload or index checksum mismatch.
    Corrupt(String),
    /// Codec failure while applying or reversing a filter pipeline.
    Filter(String),
    /// Caller error: unknown dataset, layout/data size mismatch, duplicate
    /// path, …
    Usage(String),
}

impl fmt::Display for SdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdfError::Io(e) => write!(f, "sdf: io error: {e}"),
            SdfError::Format(m) => write!(f, "sdf: malformed file: {m}"),
            SdfError::Corrupt(m) => write!(f, "sdf: corrupt data: {m}"),
            SdfError::Filter(m) => write!(f, "sdf: filter error: {m}"),
            SdfError::Usage(m) => write!(f, "sdf: usage error: {m}"),
        }
    }
}

impl std::error::Error for SdfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SdfError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SdfError {
    fn from(e: io::Error) -> Self {
        SdfError::Io(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SdfError>;
