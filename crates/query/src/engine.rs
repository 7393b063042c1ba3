//! The query engine: manifest snapshots, indexed point lookups, range
//! queries.
//!
//! # Snapshot protocol
//!
//! The EPE publishes each sealed iteration file by appending a frame to
//! the `MANIFEST` log ([`damaris_fs::manifest::publish_iteration`]); the
//! compactor commits its batches the same way. [`QueryEngine::refresh`] reads
//! what the log gained (never taking the writers' lock), opens any files
//! it has not seen, and freezes the result into an immutable [`Snapshot`]. A
//! reader holds its `Arc<Snapshot>` for as long as it likes: files are
//! immutable once published, so every answer computed against a snapshot
//! stays byte-exact even while the EPE keeps appending and the compactor
//! keeps merging behind it.
//!
//! # Lookup path
//!
//! [`QueryEngine::lookup`] is the hot path (`// ANALYZE: hot`, verified
//! by `cargo run -p xtask -- analyze`): hash the ⟨variable, iteration,
//! source⟩ key, consult each candidate file's bloom filter, binary-search
//! its sparse index, and probe the [`BlockCache`]. On a cache hit nothing
//! allocates and nothing blocks. Misses and every error constructor live
//! behind `#[cold]`.
//!
//! Every file is searched that one way: its section is built from its
//! index when the file is opened ([`SdfReader::query_section`]), from the
//! coordinate fields or, in a file from before them, the coordinate
//! attributes, so a file of either age answers every lookup and range
//! query alike.

use crate::cache::{Block, BlockCache, BlockId};
use crate::QueryError;
use damaris_format::{key_hash, Layout, SdfError, SdfReader};
use damaris_fs::{EntryRef, ManifestReader};
use damaris_obs::{Counter, EventKind, Recorder, Registry};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Tuning knobs for [`QueryEngine::open`].
#[derive(Debug, Clone)]
pub struct QueryConfig {
    /// Total byte budget of the block cache: a ceiling on the blocks it
    /// holds plus the ids it remembers of blocks read once (a block is
    /// cached on its second miss; see [`BlockCache`]).
    pub cache_bytes: u64,
}

impl Default for QueryConfig {
    fn default() -> Self {
        // 64 MiB: a few hundred typical blocks; the chaos and bench
        // workloads fit comfortably, big runs should size explicitly.
        QueryConfig {
            cache_bytes: 64 << 20,
        }
    }
}

/// One open, immutable SDF file: its reader (which holds its query
/// section) and the iteration range the manifest says it covers.
pub struct FileHandle {
    /// Engine-assigned id, stable per relative path — the cache key.
    id: u64,
    /// Path relative to the output root (manifest spelling).
    rel: String,
    /// Owning node.
    node: u32,
    /// Inclusive iteration range covered (single iteration ⇒ lo == hi).
    range: (u32, u32),
    reader: SdfReader,
}

impl FileHandle {
    /// Path relative to the output root.
    pub fn rel(&self) -> &str {
        &self.rel
    }

    /// Owning node id.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Inclusive iteration range the manifest attributes to this file.
    pub fn range(&self) -> (u32, u32) {
        self.range
    }

    /// Where the file sorts in a snapshot: by node, then by covered
    /// range, then by path.
    fn order(&self) -> (u32, (u32, u32), &str) {
        (self.node, self.range, &self.rel)
    }
}

/// An open file, found in a set by its relative path — so the set needs
/// no copy of the path.
struct ByRel(Arc<FileHandle>);

impl Borrow<str> for ByRel {
    fn borrow(&self) -> &str {
        &self.0.rel
    }
}

impl Hash for ByRel {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.rel.hash(state);
    }
}

impl PartialEq for ByRel {
    fn eq(&self, other: &Self) -> bool {
        self.0.rel == other.0.rel
    }
}

impl Eq for ByRel {}

/// An immutable view of the output at one manifest generation.
///
/// Three flat arrays, whatever the number of files: every file, and for
/// each iteration a file covers the file and, in a parallel array, the
/// iteration — both sorted by (iteration, node, range, path), so the files
/// of one iteration are one slice.
pub struct Snapshot {
    generation: u64,
    /// Every file, by (node, range, path).
    files: Vec<Arc<FileHandle>>,
    /// One slot per (iteration, file covering it).
    by_iter: Vec<Arc<FileHandle>>,
    /// The iteration of each `by_iter` slot.
    iters: Vec<u32>,
}

impl Snapshot {
    /// The snapshot of no files at generation 0. Allocates nothing.
    fn empty() -> Snapshot {
        Snapshot {
            generation: 0,
            files: Vec::new(),
            by_iter: Vec::new(),
            iters: Vec::new(),
        }
    }

    /// This snapshot with `added` files too, at `generation`: the arrays
    /// are copied once and each added file is merged in where it sorts,
    /// so adding k files to N costs O(N + k log N) and a constant number
    /// of allocations.
    fn extend(&self, generation: u64, mut added: Vec<Arc<FileHandle>>) -> Snapshot {
        added.sort_unstable_by(|a, b| a.order().cmp(&b.order()));
        let mut files = Vec::with_capacity(self.files.len() + added.len());
        let mut rest = &self.files[..];
        for handle in &added {
            let before = rest.partition_point(|h| h.order() <= handle.order());
            let (head, tail) = rest.split_at(before);
            files.extend_from_slice(head);
            files.push(Arc::clone(handle));
            rest = tail;
        }
        files.extend_from_slice(rest);

        // The added files' slots, by (iteration, file): `added` is sorted
        // by file, so its positions order the files of one iteration.
        let mut slots: Vec<(u32, usize)> = added
            .iter()
            .enumerate()
            .flat_map(|(at, h)| (h.range.0..=h.range.1).map(move |iteration| (iteration, at)))
            .collect();
        slots.sort_unstable();
        let mut by_iter = Vec::with_capacity(self.by_iter.len() + slots.len());
        let mut iters = Vec::with_capacity(by_iter.capacity());
        let (mut rest_iters, mut rest_files) = (&self.iters[..], &self.by_iter[..]);
        for (iteration, at) in slots {
            let handle = &added[at];
            let earlier = rest_iters.partition_point(|&it| it < iteration);
            let same = rest_iters[earlier..].partition_point(|&it| it == iteration);
            let before = earlier
                + rest_files[earlier..earlier + same]
                    .partition_point(|h| h.order() <= handle.order());
            iters.extend_from_slice(&rest_iters[..before]);
            by_iter.extend_from_slice(&rest_files[..before]);
            iters.push(iteration);
            by_iter.push(Arc::clone(handle));
            rest_iters = &rest_iters[before..];
            rest_files = &rest_files[before..];
        }
        iters.extend_from_slice(rest_iters);
        by_iter.extend_from_slice(rest_files);
        Snapshot {
            generation,
            files,
            by_iter,
            iters,
        }
    }

    /// Manifest generation this snapshot was built from.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Every file in the snapshot.
    pub fn files(&self) -> &[Arc<FileHandle>] {
        &self.files
    }

    /// Files whose manifest range covers `iteration`.
    // ANALYZE: hot
    pub fn files_for(&self, iteration: u32) -> &[Arc<FileHandle>] {
        let start = self.iters.partition_point(|&it| it < iteration);
        let end = self.iters.partition_point(|&it| it <= iteration);
        match self.by_iter.get(start..end) {
            Some(files) => files,
            None => &[],
        }
    }

    /// Highest iteration any file covers, if any data exists.
    pub fn max_iteration(&self) -> Option<u32> {
        self.iters.last().copied()
    }

    /// Iterations with at least one covering file, ascending.
    pub fn iterations(&self) -> Vec<u32> {
        let mut iterations = self.iters.clone();
        iterations.dedup();
        iterations
    }
}

/// A subdomain × iteration-window query: one variable, an inclusive
/// iteration window, optionally restricted to specific sources and to a
/// row range along dimension 0.
#[derive(Debug, Clone)]
pub struct RangeQuery<'a> {
    /// Variable name (the dataset path's last segment).
    pub variable: &'a str,
    /// Inclusive iteration window `[lo, hi]`.
    pub iterations: (u32, u32),
    /// Restrict to these sources (client ranks); `None` = all.
    pub sources: Option<&'a [u32]>,
    /// Restrict to rows `[first, first + count)` along dimension 0;
    /// `None` = whole blocks.
    pub rows: Option<(u64, u64)>,
}

/// One block matched by a [`RangeQuery`].
#[derive(Debug, Clone)]
pub struct RangeHit {
    pub iteration: u32,
    pub source: u32,
    /// Layout of `data` (row-sliced queries shrink dimension 0).
    pub layout: Layout,
    /// Decoded payload bytes.
    pub data: Block,
}

/// Mutable engine state behind one mutex: the manifest reader, the
/// open-file table and the current snapshot. Lookups never touch this —
/// they work off an `Arc<Snapshot>` the caller already holds.
struct EngineState {
    snapshot: Arc<Snapshot>,
    /// `MANIFEST`, read up to where `snapshot` was built from.
    manifest: ManifestReader,
    /// Open files by relative path, reused across refreshes.
    handles: HashSet<ByRel>,
    next_id: u64,
}

/// The read tier's front door. Shareable across threads.
pub struct QueryEngine {
    root: PathBuf,
    cache: BlockCache,
    registry: Arc<Registry>,
    rec: Recorder,
    state: Mutex<EngineState>,
    lookups: Counter,
    block_reads: Counter,
}

/// Recovers a poisoned state lock: the state is a table of `Arc`s and is
/// structurally valid after any panic point.
fn lock_state(m: &Mutex<EngineState>) -> MutexGuard<'_, EngineState> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl QueryEngine {
    /// Opens the engine over `root` (the EPE's output directory) and
    /// loads the current manifest. A directory with no `MANIFEST` yet is
    /// an empty — not an erroneous — snapshot.
    pub fn open(root: impl AsRef<Path>, config: QueryConfig) -> Result<QueryEngine, QueryError> {
        let registry = Arc::new(Registry::new());
        Self::open_with(root, config, registry, Recorder::disabled())
    }

    /// [`open`](QueryEngine::open) with a caller-supplied metric registry
    /// and trace recorder (the bench harness shares one registry between
    /// the engine and its own phase counters).
    pub fn open_with(
        root: impl AsRef<Path>,
        config: QueryConfig,
        registry: Arc<Registry>,
        rec: Recorder,
    ) -> Result<QueryEngine, QueryError> {
        let root = root.as_ref().to_path_buf();
        let engine = QueryEngine {
            cache: BlockCache::new(config.cache_bytes, &registry),
            lookups: registry.counter("query.lookups"),
            block_reads: registry.counter("query.block_reads"),
            registry,
            rec,
            state: Mutex::new(EngineState {
                snapshot: Arc::new(Snapshot::empty()),
                manifest: ManifestReader::new(&root),
                handles: HashSet::new(),
                next_id: 1,
            }),
            root,
        };
        engine.refresh()?;
        Ok(engine)
    }

    /// Output root this engine reads.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The metric registry (cache + lookup counters).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Cache effectiveness numbers.
    pub fn cache_stats(&self) -> crate::CacheStats {
        self.cache.stats()
    }

    /// The current snapshot without touching storage.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&lock_state(&self.state).snapshot)
    }

    /// Re-reads the manifest and returns a snapshot of it, opening newly
    /// published files and dropping handles for files the compactor
    /// superseded. What it costs follows what changed (DESIGN §13.2): an
    /// unchanged manifest allocates nothing, a publish of new files opens
    /// and merges in only those. Readers call this at their own cadence;
    /// they never block the EPE or compactor (the manifest lock is a
    /// writer-writer lock only).
    pub fn refresh(&self) -> Result<Arc<Snapshot>, QueryError> {
        self.refresh_with(ManifestReader::read)
    }

    /// [`refresh`](Self::refresh) over the function that reads `MANIFEST`
    /// ([`ManifestReader::read`]; tests run a compaction between the read
    /// and the opens). Three cases, one path:
    ///
    /// - nothing past what the snapshot was built from: the snapshot;
    /// - frames listing files not listed yet: those files are opened and
    ///   merged into a copy of the snapshot;
    /// - anything else (a compaction, an entry listed again, a checkpoint,
    ///   a recovery): every entry, the open handles reused.
    ///
    /// Opening a listed file can race the compactor: between our manifest
    /// read and the `open`, a commit can supersede the file and the
    /// post-commit gc delete it. A `NotFound` there is not an error —
    /// it is a stale manifest. We read it again and build against the
    /// newer generation (bounded), and only surface the error if the
    /// manifest has not moved since.
    fn refresh_with(
        &self,
        mut read: impl FnMut(&mut ManifestReader) -> damaris_fs::manifest::Result<()>,
    ) -> Result<Arc<Snapshot>, QueryError> {
        let mut guard = lock_state(&self.state);
        let state = &mut *guard;
        // Each retry requires the manifest generation to have actually
        // moved, so the bound only guards against a pathological storm of
        // concurrent compactions.
        let mut reloads = 8u32;
        // The generation that listed a file found missing, and the error
        // opening it gave.
        let mut missing: Option<(u64, SdfError)> = None;
        'read: loop {
            read(&mut state.manifest)?;
            let change = state.manifest.change();
            if let Some((generation, e)) = missing.take() {
                if change.as_ref().is_none_or(|c| c.generation == generation) {
                    // Still listed: genuinely missing data.
                    return Err(e.into());
                }
            }
            let Some(change) = change else {
                return Ok(Arc::clone(&state.snapshot));
            };
            let (generation, mut whole) = (change.generation, change.whole);
            // A file an appended frame lists again replaces its entry.
            let mut relisted = false;
            let mut added = Vec::new();
            for entry in change.entries {
                relisted |= !whole && state.handles.contains(entry.file);
                match self.handle(&mut state.handles, &mut state.next_id, entry) {
                    Ok(handle) => added.push(handle),
                    Err(e) if is_not_found(&e) && reloads > 0 => {
                        reloads -= 1;
                        missing = Some((generation, e));
                        continue 'read;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            if relisted {
                // The open handles are the files listed, each in its
                // latest entry.
                added = state.handles.iter().map(|h| Arc::clone(&h.0)).collect();
                whole = true;
            }
            state.manifest.accept();
            let snapshot = if whole {
                let snapshot = Snapshot::empty().extend(generation, added);
                // Drop the handles of files no longer listed, and what the
                // cache holds of them.
                let listed: HashSet<u64> = snapshot.files.iter().map(|h| h.id).collect();
                let dropped: HashSet<u64> = state
                    .snapshot
                    .files
                    .iter()
                    .map(|h| h.id)
                    .filter(|id| !listed.contains(id))
                    .collect();
                self.cache.forget_files(&dropped);
                state.handles = snapshot
                    .files
                    .iter()
                    .map(|h| ByRel(Arc::clone(h)))
                    .collect();
                snapshot
            } else {
                state.snapshot.extend(generation, added)
            };
            state.snapshot = Arc::new(snapshot);
            return Ok(Arc::clone(&state.snapshot));
        }
    }

    /// The open file `entry` lists: the handle already open for it when it
    /// was opened for the same node and range (published files are
    /// immutable), else the file opened now and its handle kept.
    fn handle(
        &self,
        handles: &mut HashSet<ByRel>,
        next_id: &mut u64,
        entry: EntryRef<'_>,
    ) -> Result<Arc<FileHandle>, SdfError> {
        let range = entry.kind.range();
        if let Some(ByRel(open)) = handles.get(entry.file) {
            if (open.node, open.range) == (entry.node, range) {
                return Ok(Arc::clone(open));
            }
        }
        let reader = SdfReader::open(self.root.join(entry.file))?;
        let handle = Arc::new(FileHandle {
            id: *next_id,
            rel: entry.file.to_string(),
            node: entry.node,
            range,
            reader,
        });
        *next_id += 1;
        handles.replace(ByRel(Arc::clone(&handle)));
        Ok(handle)
    }

    /// Point lookup: the decoded payload of ⟨`variable`, `iteration`,
    /// `source`⟩ in `snap`, or `None` if no published block matches.
    ///
    /// Fast path (bloom reject, or sparse-index hit + cache hit): no
    /// allocation, no blocking lock, no panic path — verified by the
    /// hot-path analyzer. A probe for an absent key typically costs two
    /// hash probes per candidate file and never touches payload bytes.
    // ANALYZE: hot
    pub fn lookup(
        &self,
        snap: &Snapshot,
        variable: &str,
        iteration: u32,
        source: u32,
    ) -> Result<Option<Block>, QueryError> {
        let t = self.rec.begin();
        let hash = key_hash(variable, iteration, source);
        let mut found = Ok(None);
        'files: for handle in snap.files_for(iteration) {
            let Ok(section) = handle.reader.query_section();
            if !section.bloom.contains(hash) {
                continue;
            }
            for key in section.candidates(hash) {
                if key.iteration == iteration
                    && key.source == source
                    && section.variable(key) == variable
                {
                    found = self.fetch(handle, key.ordinal, iteration);
                    break 'files;
                }
            }
        }
        self.lookups.inc();
        self.rec.end(EventKind::QueryLookup, iteration, 0, t);
        found
    }

    /// Cache-or-read for one located block. Stays on the hot closure —
    /// the miss branch immediately enters the `#[cold]` reader.
    fn fetch(
        &self,
        handle: &FileHandle,
        ordinal: u32,
        iteration: u32,
    ) -> Result<Option<Block>, QueryError> {
        let id = BlockId {
            file: handle.id,
            ordinal,
        };
        if let Some(block) = self.cache.get(id) {
            self.rec
                .event(EventKind::CacheHit, iteration, block.len() as u64, 0);
            return Ok(Some(block));
        }
        match self.read_block(handle, ordinal, iteration) {
            Ok(block) => Ok(Some(block)),
            Err(e) => Err(e),
        }
    }

    /// The miss path: decode the block from the file and offer it to the
    /// cache (which admits it if this is its second miss).
    #[cold]
    fn read_block(
        &self,
        handle: &FileHandle,
        ordinal: u32,
        iteration: u32,
    ) -> Result<Block, QueryError> {
        let t = self.rec.begin();
        let bytes = handle.reader.read_bytes_at(ordinal as usize)?;
        let block: Block = Arc::new(bytes);
        self.block_reads.inc();
        self.cache.insert(
            BlockId {
                file: handle.id,
                ordinal,
            },
            Arc::clone(&block),
        );
        self.rec
            .end(EventKind::BlockRead, iteration, block.len() as u64, t);
        Ok(block)
    }

    /// Range query: every block of `variable` within the iteration
    /// window (optionally restricted to sources / a row range), in
    /// deterministic ⟨iteration, source⟩ order. Blocks come from the
    /// same cache the point path uses; row slicing happens on the cached
    /// decoded bytes. A block is cached on its second miss, so repeated
    /// window scans over hot data do no I/O from the third scan on.
    pub fn range(
        &self,
        snap: &Snapshot,
        query: &RangeQuery<'_>,
    ) -> Result<Vec<RangeHit>, QueryError> {
        let (lo, hi) = query.iterations;
        if hi < lo {
            // An inverted window matches nothing; rewriting it to a
            // single-iteration window would fabricate results.
            return Ok(Vec::new());
        }
        let mut hits = Vec::new();
        let mut seen: HashMap<(u32, u32), ()> = HashMap::new();
        for iteration in lo..=hi {
            for handle in snap.files_for(iteration) {
                let Ok(section) = handle.reader.query_section();
                for key in &section.keys {
                    if key.iteration != iteration || section.variable(key) != query.variable {
                        continue;
                    }
                    if !source_selected(query.sources, key.source) {
                        continue;
                    }
                    if seen.insert((iteration, key.source), ()).is_some() {
                        continue;
                    }
                    let Some(block) = self.fetch(handle, key.ordinal, iteration)? else {
                        continue;
                    };
                    // The block was read, so the ordinal names a dataset.
                    if let Some(layout) = handle.reader.layout_at(key.ordinal as usize) {
                        hits.push(
                            self.shape_hit(iteration, key.source, &layout, block, query.rows)?,
                        );
                    }
                }
            }
        }
        hits.sort_by_key(|h| (h.iteration, h.source));
        Ok(hits)
    }

    /// Applies the optional row restriction to one decoded block.
    fn shape_hit(
        &self,
        iteration: u32,
        source: u32,
        layout: &Layout,
        block: Block,
        rows: Option<(u64, u64)>,
    ) -> Result<RangeHit, QueryError> {
        let Some((first, count)) = rows else {
            return Ok(RangeHit {
                iteration,
                source,
                layout: layout.clone(),
                data: block,
            });
        };
        let dim0 = layout.dims.first().copied().unwrap_or(1).max(1);
        let row_bytes = (layout.byte_size() / dim0) as usize;
        // Clamp to the rows the block actually holds: if the payload is
        // shorter than the layout advertises, the returned layout must
        // describe the data slice, not the claim.
        let present = match block.len().checked_div(row_bytes) {
            None => dim0,
            Some(rows) => dim0.min(rows as u64),
        };
        let first = first.min(present);
        let count = count.min(present - first);
        let start = first as usize * row_bytes;
        let end = start + count as usize * row_bytes;
        let slice = block.get(start..end).unwrap_or(&[]);
        let mut dims = layout.dims.clone();
        if let Some(d0) = dims.first_mut() {
            *d0 = count;
        }
        Ok(RangeHit {
            iteration,
            source,
            layout: Layout {
                dtype: layout.dtype,
                dims,
            },
            data: Arc::new(slice.to_vec()),
        })
    }
}

/// `true` when the open failed because the file is gone — the signature
/// of the compactor's post-commit gc racing a stale manifest load.
fn is_not_found(e: &damaris_format::SdfError) -> bool {
    matches!(e, damaris_format::SdfError::Io(io) if io.kind() == std::io::ErrorKind::NotFound)
}

/// `true` when `source` passes the query's source restriction.
fn source_selected(sources: Option<&[u32]>, source: u32) -> bool {
    match sources {
        None => true,
        Some(list) => list.contains(&source),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use damaris_format::{DataType, DatasetOptions, SdfWriter};
    use damaris_fs::manifest::publish_iteration;
    use damaris_fs::Manifest;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("damaris-query-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn field(iteration: u32, source: u32, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| f64::from(iteration) * 1000.0 + f64::from(source) * 10.0 + i as f64)
            .collect()
    }

    /// Writes `node-<node>/iter-<it>.sdf` with one `field` dataset per
    /// source and publishes it in the manifest.
    fn publish_file(root: &Path, node: u32, iteration: u32, sources: u32, n: usize) {
        let (rel, bytes) = write_file(root, node, iteration, sources, n);
        publish_iteration(root, node, iteration, &rel, bytes).expect("publish");
    }

    /// [`publish_file`]'s file, not published: its manifest path and size.
    fn write_file(root: &Path, node: u32, iteration: u32, sources: u32, n: usize) -> (String, u64) {
        let rel = format!("node-{node}/iter-{iteration:06}.sdf");
        let path = root.join(&rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("node dir");
        let mut writer = SdfWriter::create(&path).expect("create");
        for source in 0..sources {
            let data = field(iteration, source, n);
            let opts = DatasetOptions::plain().with_coords(iteration, source);
            writer
                .write_dataset_f64_opts(
                    &format!("/iter-{iteration}/rank-{source}/field"),
                    &Layout::new(DataType::F64, &[n as u64]),
                    &data,
                    &opts,
                )
                .expect("write");
        }
        let bytes = writer.finish_synced().expect("finish");
        (rel, bytes)
    }

    fn f64s(bytes: &[u8]) -> Vec<f64> {
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect()
    }

    #[test]
    fn point_lookup_round_trips() {
        let root = scratch("point");
        for it in 0..3 {
            publish_file(&root, 0, it, 2, 16);
        }
        let engine = QueryEngine::open(&root, QueryConfig::default()).expect("open");
        let snap = engine.snapshot();
        assert_eq!(snap.max_iteration(), Some(2));
        for it in 0..3 {
            for src in 0..2 {
                let block = engine
                    .lookup(&snap, "field", it, src)
                    .expect("lookup")
                    .expect("present");
                assert_eq!(f64s(&block), field(it, src, 16));
            }
        }
        assert!(engine
            .lookup(&snap, "nope", 0, 0)
            .expect("lookup")
            .is_none());
        assert!(engine
            .lookup(&snap, "field", 7, 0)
            .expect("lookup")
            .is_none());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn second_read_admits_third_lookup_hits_cache_without_block_read() {
        let root = scratch("cache");
        publish_file(&root, 0, 0, 1, 32);
        let engine = QueryEngine::open(&root, QueryConfig::default()).expect("open");
        let snap = engine.snapshot();
        let reads = engine.registry().counter("query.block_reads");
        let first = engine
            .lookup(&snap, "field", 0, 0)
            .expect("first")
            .expect("hit");
        assert_eq!(
            engine.cache_stats().resident_bytes,
            0,
            "read once: not cached"
        );
        let a = engine
            .lookup(&snap, "field", 0, 0)
            .expect("a")
            .expect("hit");
        assert_eq!(reads.get(), 2, "the second lookup reads the block again");
        let reads_after_first = reads.get();
        let b = engine
            .lookup(&snap, "field", 0, 0)
            .expect("b")
            .expect("hit");
        assert_eq!(a, b);
        assert_eq!(first, b);
        assert_eq!(
            engine.registry().counter("query.block_reads").get(),
            reads_after_first,
            "third lookup must be served from cache"
        );
        assert!(engine.cache_stats().hits >= 1);
        assert_eq!(engine.cache_stats().declined, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    /// A compaction supersedes files; the refresh that stops listing them
    /// drops their blocks, and keeps those of the files still listed.
    #[test]
    fn refresh_drops_the_cached_blocks_of_superseded_files() {
        let root = scratch("cache-compacted");
        for it in 0..6 {
            publish_file(&root, 0, it, 1, 16);
        }
        let engine = QueryEngine::open(&root, QueryConfig::default()).expect("open");
        let snap = engine.snapshot();
        let read_twice = |it: u32| {
            for _ in 0..2 {
                engine
                    .lookup(&snap, "field", it, 0)
                    .expect("lookup")
                    .expect("hit");
            }
        };
        // One block alone, then every file's one block.
        read_twice(5);
        let block = engine.cache_stats().resident_bytes;
        assert!(block > 0);
        (0..5).for_each(read_twice);
        assert_eq!(engine.cache_stats().resident_bytes, 6 * block);
        let compactor = crate::Compactor::new(
            &root,
            crate::CompactorConfig {
                min_batch: 2,
                hot_tail: 1,
                chunk_rows: 0,
            },
        );
        let report = compactor.run_once().expect("compact");
        assert!(!report.batches.is_empty(), "{report:?}");
        let fresh = engine.refresh().expect("refresh");
        let still_listed = snap
            .files()
            .iter()
            .filter(|old| fresh.files().iter().any(|h| Arc::ptr_eq(h, old)))
            .count();
        assert!(still_listed < snap.files().len());
        assert_eq!(
            engine.cache_stats().resident_bytes,
            still_listed as u64 * block,
            "no block of a superseded file stays cached"
        );
        for it in 0..6 {
            let got = engine
                .lookup(&fresh, "field", it, 0)
                .expect("lookup")
                .expect("hit");
            assert_eq!(f64s(&got), field(it, 0, 16));
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn refresh_sees_new_iterations_and_reuses_handles() {
        let root = scratch("refresh");
        publish_file(&root, 0, 0, 1, 8);
        let engine = QueryEngine::open(&root, QueryConfig::default()).expect("open");
        let first = engine.snapshot();
        assert_eq!(first.max_iteration(), Some(0));
        // No manifest movement: refresh returns the same snapshot.
        let same = engine.refresh().expect("refresh");
        assert!(Arc::ptr_eq(&first, &same));
        publish_file(&root, 0, 1, 1, 8);
        let second = engine.refresh().expect("refresh");
        assert_eq!(second.max_iteration(), Some(1));
        // The old snapshot still answers for its own files.
        assert!(engine.lookup(&first, "field", 0, 0).expect("old").is_some());
        assert!(engine.lookup(&first, "field", 1, 0).expect("old").is_none());
        assert!(engine
            .lookup(&second, "field", 1, 0)
            .expect("new")
            .is_some());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn range_query_windows_and_slices() {
        let root = scratch("range");
        for it in 0..4 {
            publish_file(&root, 0, it, 3, 10);
        }
        let engine = QueryEngine::open(&root, QueryConfig::default()).expect("open");
        let snap = engine.snapshot();
        let hits = engine
            .range(
                &snap,
                &RangeQuery {
                    variable: "field",
                    iterations: (1, 2),
                    sources: Some(&[0, 2]),
                    rows: None,
                },
            )
            .expect("range");
        assert_eq!(hits.len(), 4, "2 iterations × 2 sources");
        assert_eq!(
            hits.iter()
                .map(|h| (h.iteration, h.source))
                .collect::<Vec<_>>(),
            vec![(1, 0), (1, 2), (2, 0), (2, 2)]
        );
        for hit in &hits {
            assert_eq!(f64s(&hit.data), field(hit.iteration, hit.source, 10));
        }
        // Row-sliced: rows [2, 2+3) of each block.
        let sliced = engine
            .range(
                &snap,
                &RangeQuery {
                    variable: "field",
                    iterations: (3, 3),
                    sources: Some(&[1]),
                    rows: Some((2, 3)),
                },
            )
            .expect("range");
        assert_eq!(sliced.len(), 1);
        assert_eq!(sliced[0].layout.dims, vec![3]);
        assert_eq!(f64s(&sliced[0].data), field(3, 1, 10)[2..5].to_vec());
        std::fs::remove_dir_all(&root).ok();
    }

    /// Publishes, as iteration 7, the format tests' legacy fixture: the
    /// golden image's datasets as the format wrote them before coordinate
    /// fields — `/iter-7/rank-0/plain` (with an `iteration` attribute),
    /// `/iter-7/rank-0/theta` (f32, 6 × 8) and `/iter-7/rank-1/grid`.
    fn publish_legacy(root: &Path) {
        let rel = "node-0/iter-000007.sdf";
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("node dir");
        let fixture =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../format/tests/fixtures/legacy.sdf");
        let bytes = std::fs::copy(fixture, &path).expect("copy fixture");
        publish_iteration(root, 0, 7, rel, bytes).expect("publish");
    }

    #[test]
    fn legacy_files_are_found_by_their_attributes_and_paths() {
        let root = scratch("legacy");
        publish_legacy(&root);
        let engine = QueryEngine::open(&root, QueryConfig::default()).expect("open");
        let snap = engine.snapshot();
        for (variable, source, len) in [("plain", 0, 96), ("theta", 0, 192), ("grid", 1, 96)] {
            let block = engine.lookup(&snap, variable, 7, source).expect("lookup");
            assert_eq!(block.map(|b| b.len()), Some(len), "{variable}");
        }
        assert!(engine
            .lookup(&snap, "grid", 7, 0)
            .expect("lookup")
            .is_none());
        let query = RangeQuery {
            variable: "theta",
            iterations: (0, 7),
            sources: None,
            rows: Some((1, 2)),
        };
        let hits = engine.range(&snap, &query).expect("range");
        assert_eq!(hits.len(), 1);
        assert_eq!(
            (hits[0].iteration, hits[0].source, hits[0].data.len()),
            (7, 0, 64)
        );
        std::fs::remove_dir_all(&root).ok();
    }

    /// Publishes iteration 3 as today's writers write it: `/iter-3/theta`
    /// with a plain `iteration` attribute, `/iter-3/time` keyed by its path
    /// alone, and `/iter-x/iter-3/v`, whose fields say ⟨3, 0⟩ where its
    /// path reads no iteration.
    fn publish_twin(root: &Path) {
        let rel = "node-0/iter-000003.sdf";
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("node dir");
        let mut w = SdfWriter::create(&path).expect("create");
        let theta: Vec<f32> = (0..128).map(|i| (i % 7) as f32).collect();
        let opts = DatasetOptions::plain()
            .with_attr("iteration", 3i64)
            .with_attr("unit", "K");
        w.write_dataset_f32_opts(
            "/iter-3/theta",
            &Layout::new(DataType::F32, &[16, 8]),
            &theta,
            &opts,
        )
        .expect("theta");
        w.write_dataset_f64("/iter-3/time", &Layout::scalar(DataType::F64), &[12.5])
            .expect("time");
        let v = DatasetOptions::plain().with_coords(3, 0);
        w.write_dataset_bytes(
            "/iter-x/iter-3/v",
            &Layout::new(DataType::U8, &[4]),
            &[1, 2, 3, 4],
            &v,
        )
        .expect("v");
        let bytes = w.finish_synced().expect("finish");
        publish_iteration(root, 0, 3, rel, bytes).expect("publish");
    }

    /// Every lookup and range over the variables of [`publish_file`],
    /// [`publish_twin`] and [`publish_legacy`], as plain values.
    type Hits = Vec<(u32, u32, Layout, Block)>;

    fn every_answer(engine: &QueryEngine) -> (usize, Vec<Option<Block>>, Vec<Hits>) {
        let snap = engine.refresh().expect("refresh");
        let variables = ["field", "theta", "time", "v", "plain", "grid", "nope"];
        let iterations = (0..9).chain([damaris_format::NO_COORD]);
        let mut blocks = Vec::new();
        for variable in variables {
            for iteration in iterations.clone() {
                for source in [0, 1, damaris_format::NO_COORD] {
                    blocks.push(
                        engine
                            .lookup(&snap, variable, iteration, source)
                            .expect("lookup"),
                    );
                }
            }
        }
        let mut ranges = Vec::new();
        for variable in variables {
            for rows in [None, Some((1, 2))] {
                let query = RangeQuery {
                    variable,
                    iterations: (0, 8),
                    sources: None,
                    rows,
                };
                let hits = engine.range(&snap, &query).expect("range");
                ranges.push(
                    hits.into_iter()
                        .map(|h| (h.iteration, h.source, h.layout, h.data))
                        .collect(),
                );
            }
        }
        (snap.files().len(), blocks, ranges)
    }

    #[test]
    fn compaction_keeps_every_key() {
        let root = scratch("compact-keys");
        for iteration in [0, 1, 2, 4, 5, 6, 8] {
            publish_file(&root, 0, iteration, 2, 8);
        }
        publish_twin(&root);
        publish_legacy(&root);
        let engine = QueryEngine::open(&root, QueryConfig::default()).expect("open");
        let (files, blocks, ranges) = every_answer(&engine);
        assert_eq!(files, 9);
        // 7 × 2 fields, theta/time/v at 3, plain/theta/grid at 7.
        assert_eq!(blocks.iter().flatten().count(), 20);
        let config = crate::CompactorConfig {
            min_batch: 2,
            hot_tail: 0,
            chunk_rows: 4,
        };
        let report = crate::Compactor::new(&root, config)
            .run_once()
            .expect("compact");
        assert_eq!(report.batches, [(0, 0, 7)]);
        let (files, after, after_ranges) = every_answer(&engine);
        assert_eq!(files, 2, "the merged file and iteration 8");
        assert_eq!(after, blocks);
        assert_eq!(after_ranges, ranges);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn inverted_window_is_empty_not_rewritten() {
        let root = scratch("inverted");
        publish_file(&root, 0, 0, 1, 8);
        publish_file(&root, 0, 1, 1, 8);
        let engine = QueryEngine::open(&root, QueryConfig::default()).expect("open");
        let snap = engine.snapshot();
        let hits = engine
            .range(
                &snap,
                &RangeQuery {
                    variable: "field",
                    iterations: (1, 0),
                    sources: None,
                    rows: None,
                },
            )
            .expect("range");
        assert!(
            hits.is_empty(),
            "hi < lo matches nothing, got {}",
            hits.len()
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn shape_hit_clamps_layout_to_short_blocks() {
        let root = scratch("shortblock");
        let engine = QueryEngine::open(&root, QueryConfig::default()).expect("open");
        // Layout claims 10 f64 rows; the block only holds 5.
        let layout = Layout::new(DataType::F64, &[10]);
        let block: Block = Arc::new(
            field(0, 0, 5)
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect(),
        );
        let hit = engine
            .shape_hit(0, 0, &layout, Arc::clone(&block), Some((2, 6)))
            .expect("shape");
        // Rows 2..8 requested, but only rows 2..5 exist: the layout must
        // describe exactly the bytes returned.
        assert_eq!(hit.layout.dims, vec![3]);
        assert_eq!(hit.data.len() as u64, hit.layout.byte_size());
        assert_eq!(f64s(&hit.data), field(0, 0, 5)[2..5].to_vec());
        // A window entirely past the real data is empty, not fabricated.
        let past = engine
            .shape_hit(0, 0, &layout, block, Some((7, 2)))
            .expect("shape");
        assert_eq!(past.layout.dims, vec![0]);
        assert!(past.data.is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    /// The refresh/gc race, driven deterministically: a reader reads
    /// frames listing files it has not opened yet, the compactor commits
    /// and deletes those inputs, and only then does the reader open files.
    /// The stale build must fall through to the newer manifest instead of
    /// surfacing `NotFound`.
    #[test]
    fn refresh_retries_when_gc_deletes_a_stale_manifest_entry() {
        let root = scratch("gc-race");
        for it in 0..3 {
            publish_file(&root, 0, it, 1, 16);
        }
        let engine = QueryEngine::open(&root, QueryConfig::default()).expect("open");
        for it in 3..6 {
            publish_file(&root, 0, it, 1, 16);
        }
        let snap = engine
            .refresh_with(race_compaction(&root, false))
            .expect("stale refresh must retry");
        assert_eq!(
            snap.generation(),
            Manifest::load(&root).expect("current").generation
        );
        for it in 0..6 {
            assert!(
                engine
                    .lookup(&snap, "field", it, 0)
                    .expect("lookup")
                    .is_some(),
                "iteration {it} reachable after retry"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// A manifest read that lets a compaction (and, with `gc`, a gc pass)
    /// commit between itself and the opens of what it found — once.
    fn race_compaction(
        root: &Path,
        gc: bool,
    ) -> impl FnMut(&mut ManifestReader) -> damaris_fs::manifest::Result<()> + '_ {
        let mut raced = false;
        move |reader| {
            let read = reader.read();
            if !std::mem::replace(&mut raced, true) {
                let config = crate::CompactorConfig {
                    min_batch: 2,
                    hot_tail: 1,
                    chunk_rows: 0,
                };
                let report = crate::Compactor::new(root, config)
                    .run_once()
                    .expect("compact");
                assert!(
                    !report.batches.is_empty() && report.deleted > 0,
                    "{report:?}"
                );
                if gc {
                    damaris_fs::manifest::gc_superseded(root, None).expect("gc");
                }
            }
            read
        }
    }

    /// Everything a reader can ask of a snapshot, as plain values.
    type Answers = (
        u64,
        Vec<(String, u32, (u32, u32))>,
        Vec<(u32, Vec<String>)>,
        Vec<Option<Block>>,
        Vec<(u32, u32, Layout, Block)>,
    );

    fn answers(engine: &QueryEngine, snap: &Snapshot) -> Answers {
        let listed = |files: &[Arc<FileHandle>]| -> Vec<String> {
            files.iter().map(|h| h.rel().to_string()).collect()
        };
        let files = snap
            .files()
            .iter()
            .map(|h| (h.rel().to_string(), h.node(), h.range()))
            .collect();
        let last = snap.max_iteration().map_or(0, |it| it + 1);
        let by_iter = (0..=last)
            .map(|it| (it, listed(snap.files_for(it))))
            .collect();
        let mut blocks = Vec::new();
        for iteration in 0..=last {
            for source in 0..3 {
                for variable in ["field", "nope"] {
                    blocks.push(
                        engine
                            .lookup(snap, variable, iteration, source)
                            .expect("lookup"),
                    );
                }
            }
        }
        let query = RangeQuery {
            variable: "field",
            iterations: (0, last),
            sources: None,
            rows: None,
        };
        let hits = engine
            .range(snap, &query)
            .expect("range")
            .into_iter()
            .map(|h| (h.iteration, h.source, h.layout, h.data))
            .collect();
        assert_eq!(
            snap.iterations(),
            (0..=last)
                .filter(|&it| !snap.files_for(it).is_empty())
                .collect::<Vec<_>>()
        );
        (snap.generation(), files, by_iter, blocks, hits)
    }

    /// The snapshot one long-lived engine keeps up to date, poll after
    /// poll, answers exactly as one a fresh engine builds whole — after
    /// single and batched publishes (the append case), an entry listed
    /// again, a second node, a compaction and its gc racing a read of
    /// frames whose files they delete, and a checkpoint (the rebuild
    /// cases).
    #[test]
    fn an_engine_kept_up_to_date_answers_as_a_fresh_one() {
        let root = scratch("differential");
        let engine = QueryEngine::open(&root, QueryConfig::default()).expect("open");
        let agree = |step: &str| {
            let kept = engine.refresh().expect("refresh");
            let fresh = QueryEngine::open(&root, QueryConfig::default()).expect("fresh");
            assert_eq!(
                answers(&engine, &kept),
                answers(&fresh, &fresh.snapshot()),
                "after {step}"
            );
            kept
        };
        agree("nothing");
        for it in 0..3 {
            publish_file(&root, 0, it, 2, 8);
            agree("a publish");
        }
        // A batch: three files in one frame.
        let sealed: Vec<(u32, (String, u64))> = (3..6)
            .map(|it| (it, write_file(&root, 0, it, 2, 8)))
            .collect();
        let batch: Vec<(u32, &str, u64)> = sealed
            .iter()
            .map(|(it, (rel, bytes))| (*it, rel.as_str(), *bytes))
            .collect();
        damaris_fs::manifest::publish_iterations(&root, 0, &batch).expect("batch");
        let before = agree("a batch");
        // The same file listed again with another size.
        publish_iteration(&root, 0, 1, "node-0/iter-000001.sdf", 1).expect("upsert");
        let after = agree("an in-place upsert");
        assert!(
            Arc::ptr_eq(&before.files()[1], &after.files()[1]),
            "the open handle is reused"
        );
        for it in 0..2 {
            publish_file(&root, 1, it, 3, 8);
            agree("a second node");
        }
        // Files the engine has not opened yet, compacted and deleted
        // between its read of their frames and its opens.
        for it in 2..6 {
            publish_file(&root, 1, it, 3, 8);
        }
        engine
            .refresh_with(race_compaction(&root, true))
            .expect("stale refresh must retry");
        agree("a compaction, gc and a stale read");
        publish_file(&root, 0, 6, 2, 8);
        agree("a publish after the compaction");
        // A checkpoint: the same manifest in another file.
        let current = Manifest::load(&root).expect("load");
        let lock = damaris_fs::ManifestLock::acquire(&root).expect("lock");
        current.store(&root).expect("checkpoint");
        drop(lock);
        agree("a checkpoint");
        publish_file(&root, 1, 6, 3, 8);
        agree("a publish after the checkpoint");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn refresh_fails_typed_when_a_referenced_file_is_truly_missing() {
        let root = scratch("truly-missing");
        publish_file(&root, 0, 0, 1, 8);
        std::fs::remove_file(root.join("node-0/iter-000000.sdf")).expect("delete");
        // The manifest still references the file and no newer generation
        // exists: the engine must surface the error, not spin or panic.
        match QueryEngine::open(&root, QueryConfig::default()) {
            Err(QueryError::Format(_)) => {}
            Ok(_) => panic!("open must fail for missing referenced file"),
            Err(e) => panic!("expected Format(NotFound), got {e}"),
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn empty_directory_is_an_empty_snapshot() {
        let root = scratch("empty");
        let engine = QueryEngine::open(&root, QueryConfig::default()).expect("open");
        let snap = engine.snapshot();
        assert_eq!(snap.max_iteration(), None);
        assert!(engine
            .lookup(&snap, "field", 0, 0)
            .expect("lookup")
            .is_none());
        std::fs::remove_dir_all(&root).ok();
    }
}
