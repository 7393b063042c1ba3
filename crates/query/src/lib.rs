//! # damaris-query
//!
//! The read tier of the Damaris reproduction: an indexed, cache-backed
//! query engine that serves point and range queries over the EPE's SDF
//! output **while the EPE is still writing** — the "connecting
//! visualization and analysis tools to the dedicated cores" direction the
//! paper sketches in its conclusion (§VI).
//!
//! Three pieces:
//!
//! * [`QueryEngine`] — loads the output directory's `MANIFEST` (a log the
//!   EPE appends a frame to per publish, see `damaris_fs::manifest`) into
//!   an immutable [`Snapshot`], then answers
//!   ⟨variable, iteration, source⟩ point lookups and
//!   subdomain × iteration-window [`range`](QueryEngine::range) queries
//!   from any number of threads. Lookups ride the per-file sorted keys +
//!   bloom filter (`damaris_format::QuerySection`) each reader builds from
//!   its file's index at open (`SdfReader::query_section`), so a probe for
//!   a key that is not in a file touches no payload bytes at all.
//!
//! A [`Snapshot`] is three flat arrays, whatever the number of files: the
//! open files sorted by (node, iteration range, path), and one slot per
//! (iteration, file covering it) — the file, and in a parallel array the
//! iteration — sorted by (iteration, node, range, path), so
//! [`Snapshot::files_for`] is a binary search that returns a slice.
//! [`QueryEngine::refresh`] keeps its place in the `MANIFEST` log
//! (`damaris_fs::ManifestReader`): a poll that finds nothing appended
//! returns the current snapshot and allocates nothing, frames publishing
//! new files open only those and merge them into a copy of the arrays,
//! and anything else rebuilds from every entry, reusing the open files.
//!
//! An open file costs the engine its reader's flat table and its section:
//! one 40-byte record and one 24-byte key per dataset, the CRC-checked
//! index bytes (paths and attributes, decoded only by the cold APIs), and
//! a handful of per-file arenas — about 140 bytes and well under one
//! allocation per dataset (`tests/resident_bytes.rs`).
//! * [`BlockCache`] — a sharded cache over decoded blocks with a
//!   configurable byte budget that admits a block on its second miss: a
//!   block read once leaves only its id behind, so readers that never
//!   read a block again cost no block memory; blocks read again live in
//!   a per-shard LRU. The hit path takes a `try_lock` on one shard and
//!   clones an `Arc` — no allocation, no blocking — and is verified by
//!   `cargo run -p xtask -- analyze` (`// ANALYZE: hot`).
//! * [`Compactor`] — a background pass that merges per-iteration SDF
//!   files into read-optimized, chunked `compact-<lo>-<hi>.sdf` datasets
//!   and commits them to the manifest in one appended frame
//!   ([`damaris_fs::manifest::replace_entries`]). It can be paused under
//!   write pressure and survives being killed at *any* step: the manifest
//!   stays readable and no data becomes unreachable (the kill-sweep test
//!   proves this for every step index).
//!
//! Readers never take the manifest lock: they read the whole frames of
//! the `MANIFEST` log. Writers (EPE publish, compactor commit) serialize
//! on `MANIFEST.lock`.

mod cache;
mod compact;
mod engine;

pub use cache::{Block, BlockCache, BlockId, CacheStats};
pub use compact::{CompactReport, Compactor, CompactorConfig};
pub use engine::{QueryConfig, QueryEngine, RangeHit, RangeQuery, Snapshot};

use damaris_format::SdfError;
use damaris_fs::ManifestError;

/// Typed failure surface of the read tier. Corruption anywhere below
/// (file payloads, query sections, the manifest) arrives here as a typed
/// error, never a panic — the proptest corruption suite enforces this.
#[derive(Debug)]
pub enum QueryError {
    /// An SDF file failed to open, validate, or decode.
    Format(SdfError),
    /// The `MANIFEST` failed to load, parse, or lock.
    Manifest(ManifestError),
    /// An I/O error outside the two layers above (compactor file ops).
    Io(std::io::Error),
    /// Injected fault from the compactor's kill-sweep test hook.
    Injected(u64),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Format(e) => write!(f, "format: {e}"),
            QueryError::Manifest(e) => write!(f, "manifest: {e}"),
            QueryError::Io(e) => write!(f, "io: {e}"),
            QueryError::Injected(step) => write!(f, "injected fault at step {step}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<SdfError> for QueryError {
    fn from(e: SdfError) -> Self {
        QueryError::Format(e)
    }
}

impl From<ManifestError> for QueryError {
    fn from(e: ManifestError) -> Self {
        QueryError::Manifest(e)
    }
}

impl From<std::io::Error> for QueryError {
    fn from(e: std::io::Error) -> Self {
        QueryError::Io(e)
    }
}
