//! The background compactor: merges per-iteration SDF files into
//! read-optimized, chunked `compact-<lo>-<hi>.sdf` datasets.
//!
//! The EPE's write pattern (one file per node per iteration) is ideal
//! for jitter-free writing but makes window queries open many small
//! files. The compactor trades that back: it takes every sealed
//! iteration older than a configurable *hot tail*, rewrites the datasets
//! into one file per node — chunked along dimension 0 so row-range reads
//! decode only what they need — and swaps the batch into the manifest at
//! a single atomic commit point ([`replace_entries`]).
//!
//! # Crash safety
//!
//! Every side-effecting step goes through a step counter with an
//! injectable abort, and the kill-sweep test aborts at *every* step
//! index in turn. The invariants that hold at any kill point:
//!
//! * the merged file is written to `*.tmp` and renamed only after fsync —
//!   a torn merge is invisible (recovery deletes the orphan tmp);
//! * the manifest commit is one `replace_entries` frame — readers see
//!   the old batch or the new file, never a mix;
//! * superseded inputs are deleted only *after* the commit, and
//!   [`replace_entries`] is idempotent, so re-running after a crash
//!   converges. Data is reachable through the manifest at every point.
//!
//! # Write pressure
//!
//! The compactor holds the manifest lock only inside the commit call, so
//! it never stalls the EPE's publish for longer than one appended frame
//! (or, when one is due, a checkpoint). Still, the merge itself competes
//! for disk bandwidth, so the EPE (or bench harness) can share the
//! [`Compactor::pause_flag`] and raise it during write bursts; a paused
//! [`run_once`](Compactor::run_once) is a no-op.

use crate::QueryError;
use damaris_format::{DatasetOptions, SdfReader, SdfWriter, NO_COORD};
use damaris_fs::manifest::{gc_superseded_each, replace_entries};
use damaris_fs::{DiskSentinel, EntryKind, Manifest, ManifestEntry};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Tuning knobs for the compactor.
#[derive(Debug, Clone)]
pub struct CompactorConfig {
    /// Merge only when a node has at least this many eligible iteration
    /// files (merging two tiny files buys nothing).
    pub min_batch: usize,
    /// Leave the newest `hot_tail` iterations per node uncompacted: the
    /// EPE may still be appending around them and point lookups on fresh
    /// data are already fast.
    pub hot_tail: u32,
    /// Chunk extent along dimension 0 for merged datasets (0 keeps them
    /// contiguous). Chunking lets row-range queries decode one chunk
    /// instead of a whole variable.
    pub chunk_rows: u64,
}

impl Default for CompactorConfig {
    fn default() -> Self {
        CompactorConfig {
            min_batch: 4,
            hot_tail: 2,
            chunk_rows: 256,
        }
    }
}

/// What one [`Compactor::run_once`] did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CompactReport {
    /// `(node, lo, hi)` for each merged batch committed this run.
    pub batches: Vec<(u32, u32, u32)>,
    /// Superseded input files deleted (post-commit GC).
    pub deleted: usize,
    /// `true` when the run was skipped because the pause flag was up.
    pub paused: bool,
}

/// The background compactor. One instance per output directory; safe to
/// drive from its own thread.
pub struct Compactor {
    root: PathBuf,
    config: CompactorConfig,
    paused: Arc<AtomicBool>,
    /// Test hook: abort with [`QueryError::Injected`] once the step
    /// counter reaches this value (`u64::MAX` = never).
    abort_at: AtomicU64,
    steps: AtomicU64,
    /// Optional disk-space accounting shared with the writing backend:
    /// merges charge it, gc deletions release it, so compaction's
    /// transient space amplification is visible to the pressure machine.
    sentinel: Option<Arc<DiskSentinel>>,
}

impl Compactor {
    /// A compactor over `root` (the EPE's output directory).
    pub fn new(root: impl AsRef<Path>, config: CompactorConfig) -> Compactor {
        Compactor {
            root: root.as_ref().to_path_buf(),
            config,
            paused: Arc::new(AtomicBool::new(false)),
            abort_at: AtomicU64::new(u64::MAX),
            steps: AtomicU64::new(0),
            sentinel: None,
        }
    }

    /// Shares the backend's [`DiskSentinel`] so merged files count
    /// against (and reclaimed inputs return to) the same quota.
    pub fn with_sentinel(mut self, sentinel: Arc<DiskSentinel>) -> Compactor {
        self.sentinel = Some(sentinel);
        self
    }

    /// The shared pause flag: raise it during write bursts and the next
    /// [`run_once`](Compactor::run_once) becomes a no-op until lowered.
    pub fn pause_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.paused)
    }

    /// Pauses or resumes compaction.
    pub fn set_paused(&self, paused: bool) {
        self.paused.store(paused, Ordering::Release);
    }

    /// Arms the kill-sweep fault: the `n`-th side-effecting step aborts
    /// the run with [`QueryError::Injected`]. Steps already taken count.
    pub fn abort_after(&self, n: u64) {
        self.abort_at.store(
            self.steps.load(Ordering::Relaxed).saturating_add(n),
            Ordering::Relaxed,
        );
    }

    /// Disarms the fault hook.
    pub fn clear_fault(&self) {
        self.abort_at.store(u64::MAX, Ordering::Relaxed);
    }

    /// Side-effecting steps taken so far (for sizing kill sweeps).
    pub fn steps_taken(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Counts one side-effecting step, aborting if the fault is armed.
    /// Called *before* the effect, so an abort at step `n` means the
    /// first `n` effects happened and nothing after.
    fn step(&self) -> Result<(), QueryError> {
        let taken = self.steps.fetch_add(1, Ordering::Relaxed);
        if taken >= self.abort_at.load(Ordering::Relaxed) {
            return Err(QueryError::Injected(taken));
        }
        Ok(())
    }

    /// One compaction pass: merge every eligible batch, commit each to
    /// the manifest, then garbage-collect superseded inputs. Idempotent —
    /// re-running after a crash at any point converges to the same state.
    pub fn run_once(&self) -> Result<CompactReport, QueryError> {
        let mut report = CompactReport::default();
        if self.paused.load(Ordering::Acquire) {
            report.paused = true;
            return Ok(report);
        }
        // Plain read, no lock: a concurrent publish just means this run
        // sees slightly stale entries — the commit re-reads under lock.
        let manifest = Manifest::load(&self.root)?;
        for (node, batch) in eligible_batches(&manifest, &self.config) {
            let (lo, hi) = (
                batch.first().map(|e| e.0).unwrap_or(0),
                batch.last().map(|e| e.0).unwrap_or(0),
            );
            let superseded: Vec<String> = batch.iter().map(|(_, f)| f.clone()).collect();
            let rel = format!("node-{node}/compact-{lo:06}-{hi:06}.sdf");
            let bytes = self.merge(&superseded, &rel)?;
            self.step()?;
            replace_entries(
                &self.root,
                &superseded,
                ManifestEntry {
                    file: rel,
                    node,
                    kind: EntryKind::Compacted { lo, hi },
                    bytes,
                },
            )?;
            report.batches.push((node, lo, hi));
        }
        report.deleted = self.gc()?;
        Ok(report)
    }

    /// Writes the merged file for one batch: every dataset of every
    /// input, re-chunked, same paths and attributes, and as coordinate
    /// fields the coordinates its input's section keyed it by — whether
    /// they came from fields, attributes or the path — so it is found by
    /// the same key. Returns stored bytes. Crash-safe via tmp + fsync +
    /// rename.
    fn merge(&self, inputs: &[String], rel: &str) -> Result<u64, QueryError> {
        let final_path = self.root.join(rel);
        let tmp_path = final_path.with_extension("sdf.tmp");
        if let Some(parent) = final_path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        self.step()?;
        let mut writer = SdfWriter::create(&tmp_path)?;
        for input in inputs {
            let reader = SdfReader::open(self.root.join(input))?;
            let Ok(section) = reader.query_section();
            let mut coords = vec![(NO_COORD, NO_COORD); reader.len()];
            for key in &section.keys {
                if let Some(slot) = coords.get_mut(key.ordinal as usize) {
                    *slot = (key.iteration, key.source);
                }
            }
            // Paths and attributes from one read of the index; a dataset
            // whose entry cannot be read back fails the merge rather than
            // dropping out of it.
            for ((ordinal, info), (iteration, source)) in
                reader.infos()?.into_iter().enumerate().zip(coords)
            {
                let data = reader.read_bytes_at(ordinal)?;
                let mut opts = DatasetOptions::plain().with_coords(iteration, source);
                for (name, value) in info.attrs {
                    opts = opts.with_attr(name, value);
                }
                // Chunk along dim 0 when the variable is big enough for
                // a row-range read to skip at least one chunk.
                let dim0 = info.layout.dims.first().copied().unwrap_or(0);
                if self.config.chunk_rows > 0 && dim0 > self.config.chunk_rows {
                    opts = opts.with_chunk_dim0(self.config.chunk_rows);
                }
                self.step()?;
                writer.write_dataset_bytes(&info.path, &info.layout, &data, &opts)?;
            }
        }
        self.step()?;
        let bytes = writer.finish_synced()?;
        self.step()?;
        std::fs::rename(&tmp_path, &final_path)?;
        sync_dir(final_path.parent().unwrap_or(&self.root))?;
        if let Some(sentinel) = &self.sentinel {
            sentinel.charge(bytes);
        }
        Ok(bytes)
    }

    /// Deletes the inputs a finished merge superseded, possibly in a
    /// crashed earlier run, and orphan merges
    /// ([`gc_superseded`](damaris_fs::manifest::gc_superseded)), one kill
    /// point before each deletion.
    fn gc(&self) -> Result<usize, QueryError> {
        let sentinel = self.sentinel.as_deref();
        Ok(gc_superseded_each(&self.root, sentinel, || self.step())?.0)
    }
}

/// Per-node batches of iteration files eligible for merging: everything
/// older than the hot tail, split into **contiguous** iteration runs of
/// at least `min_batch` files. Returned sorted by node, batches sorted
/// by iteration.
///
/// Contiguity is a safety invariant, not an optimization: a compacted
/// span claims coverage of *every* iteration in `[lo, hi]`, and both
/// [`Compactor::gc`] (delete unreferenced-but-covered files) and
/// recovery's adoption pass (skip covered files) trust that claim. A
/// publish gap — `publish_iteration` failures are swallowed on the EPE's
/// persist path, leaving a sealed file the manifest never saw — must
/// therefore *split* the batch: a span bridging the gap would cover an
/// iteration whose data was never merged, gc would delete its file, and
/// adoption would skip it — permanently losing durable data.
fn eligible_batches(
    manifest: &Manifest,
    config: &CompactorConfig,
) -> Vec<(u32, Vec<(u32, String)>)> {
    let mut per_node: BTreeMap<u32, Vec<(u32, String)>> = BTreeMap::new();
    for entry in &manifest.entries {
        if let EntryKind::Iteration(iteration) = entry.kind {
            per_node
                .entry(entry.node)
                .or_default()
                .push((iteration, entry.file.clone()));
        }
    }
    let mut batches = Vec::new();
    for (node, mut files) in per_node {
        files.sort();
        let Some(max_iter) = files.last().map(|f| f.0) else {
            continue;
        };
        let cutoff = max_iter.saturating_sub(config.hot_tail);
        let mut run: Vec<(u32, String)> = Vec::new();
        for (it, file) in files.into_iter().filter(|&(it, _)| it < cutoff) {
            let gap = run
                .last()
                .is_some_and(|&(prev, _)| it > prev.saturating_add(1));
            if gap {
                if run.len() >= config.min_batch {
                    batches.push((node, std::mem::take(&mut run)));
                } else {
                    run.clear();
                }
            }
            run.push((it, file));
        }
        if run.len() >= config.min_batch {
            batches.push((node, run));
        }
    }
    batches
}

/// Fsyncs a directory so a rename inside it is durable.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}
