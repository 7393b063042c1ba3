//! Per-layer numbers of the traced pass. Each comes from outside the
//! program: harness spans around the calls into it, a *layer replay* that
//! times direct calls to each layer's public functions on the workload's
//! own payloads, the registries the program already exposes
//! (`NodeRuntime::metrics_snapshot`, `QueryEngine::registry`,
//! `cache_stats`, `NodeReport`) and `/proc/self/io`.
//!
//! Layers are the crates on the node's data path: `xml`, `core`, `shm`,
//! `format`, `compress`, `fs`, `query`, `obs`.

use crate::gen::{Generator, Rng};
use crate::host::Probes;
use crate::run::{open_reader, PassResult};
use crate::stats::Series;
use crate::trace::{self, Tracer, NO_PARENT};
use crate::workload::{Pacing, Workload, RANKS, WARMUP_ITERATIONS};
use crate::Metric;
use damaris_core::{Config, EventJournal};
use damaris_format::{DatasetOptions, Layout, SdfReader, SdfWriter};
use damaris_fs::manifest::publish_iteration;
use damaris_fs::{EntryKind, LocalDirBackend, Manifest, ManifestEntry, ManifestLock};
use damaris_query::{Compactor, CompactorConfig, QueryEngine, RangeQuery};
use damaris_shm::{MpscQueue, PartitionAllocator};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Times `f` `reps` times, sleeping `pause` (untimed) before each, after
/// one unmeasured call; nanoseconds each.
fn time_paused(reps: usize, pause: Duration, mut f: impl FnMut()) -> Series {
    f();
    let samples: Vec<u64> = (0..reps)
        .map(|_| {
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    Series::new(&samples)
}

fn time_reps(reps: usize, f: impl FnMut()) -> Series {
    time_paused(reps, Duration::ZERO, f)
}

/// Median nanoseconds of one call when a single call is too short for
/// the clock: `batches` batches of `per_batch` calls each.
fn time_batched(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let batch = time_reps(batches, || {
        for _ in 0..per_batch {
            f();
        }
    });
    batch.ns(0.5) / per_batch as f64
}

fn sum_ns(result: &PassResult, phase: &str) -> f64 {
    result
        .node_metrics
        .histograms
        .get(&format!("phase.{phase}_ns"))
        .map_or(0.0, |h| h.sum as f64)
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The client path, layer by layer: median nanoseconds of one call each.
#[derive(Debug, Clone, Copy)]
pub struct ClientReplay {
    crc_ns: f64,
    copy_ns: f64,
    alloc_release_ns: f64,
    queue_ns: f64,
    journal_ns: f64,
}

impl ClientReplay {
    /// Replays one iteration's `blocks`. The two layers that touch every
    /// byte — checksum and copy — run under the workload's own duty cycle:
    /// after a compute phase spent asleep the CPU is cold, and a checksum
    /// that manages 520 MB/s in a tight loop manages 400 MB/s there. The
    /// copy walks a client's region of the shared buffer as writes do, so
    /// its destination is as cold as theirs. The per-call layers, tens of
    /// nanoseconds each, are timed in batches.
    pub fn run(w: &Workload, blocks: &[Vec<u8>]) -> ClientReplay {
        let pause = match w.pacing {
            Pacing::Period(period) => period,
            Pacing::Bursts { .. } => Duration::ZERO,
        };
        let per_block = |group: Series| group.ns(0.5) / blocks.len() as f64;

        let crc_ns = per_block(time_paused(12, pause, || {
            for block in blocks {
                black_box(damaris_format::crc32(black_box(block)));
            }
        }));

        let alloc = PartitionAllocator::with_capacity(w.buffer_bytes, RANKS as usize);
        let reserve = || {
            alloc
                .allocate(0, w.block_bytes)
                .expect("region holds one block")
        };
        let alloc_release_ns = time_batched(50, 1000, || alloc.release(0, black_box(reserve())));
        let copy_ns = per_block(time_paused(12, pause, || {
            for block in blocks {
                let mut segment = reserve();
                segment.copy_from_slice(black_box(block));
                alloc.release(0, segment);
            }
        })) - alloc_release_ns;

        let queue: MpscQueue<u64> = MpscQueue::new(4096);
        let queue_ns = time_batched(50, 1000, || {
            queue.push(7).expect("queue has room");
            black_box(queue.pop());
        });

        // Applied records are dropped between batches (untimed), as the
        // server's own compaction does, so the journal stays the size it
        // has in a run.
        let journal = EventJournal::new();
        let batches: Vec<u64> = (0..50)
            .map(|_| {
                let t = Instant::now();
                for i in 0..1000u32 {
                    let seq = journal
                        .append_write(0, i % 64, i, i % RANKS, 4096, w.block_bytes, 0xC0FFEE)
                        .expect("no source is fenced");
                    journal.mark_applied(seq);
                }
                let ns = t.elapsed().as_nanos() as u64;
                journal.compact();
                ns
            })
            .collect();

        ClientReplay {
            crc_ns,
            copy_ns: copy_ns.max(0.0),
            alloc_release_ns,
            queue_ns,
            journal_ns: Series::new(&batches).ns(0.5) / 1000.0,
        }
    }

    /// The replayed rows of one `write` call, summed.
    fn total_ns(&self) -> f64 {
        self.crc_ns + self.alloc_release_ns + self.copy_ns + self.journal_ns + self.queue_ns
    }
}

/// One iteration of the workload as the dedicated core sees it: the blocks
/// of every rank and variable, and how the persist plugin stores them.
struct IterationReplay<'a> {
    w: &'a Workload,
    layout: Layout,
    /// `[variable * RANKS + rank]`, as the load thread generates them.
    blocks: Vec<Vec<u8>>,
}

impl<'a> IterationReplay<'a> {
    fn new(w: &'a Workload, seed: u64, iteration: u32) -> IterationReplay<'a> {
        let gen = Generator::new(seed, w.name, w.field);
        let blocks = (0..w.variables * RANKS)
            .map(|i| {
                let mut block = vec![0u8; w.block_bytes];
                gen.fill(iteration, i % RANKS, i / RANKS, &mut block);
                block
            })
            .collect();
        let config = Config::from_xml(&w.config_xml(false)).expect("workload config parses");
        let layout = config.layout_of(&config.variables[0]).storage_layout();
        IterationReplay { w, layout, blocks }
    }

    /// Writes the datasets with the persist plugin's paths, attributes and
    /// filter.
    fn write_into(&self, writer: &mut SdfWriter, iteration: u32) -> Result<(), String> {
        for v in 0..self.w.variables {
            for r in 0..RANKS {
                let path = format!("/iter-{iteration}/rank-{r}/{}", self.w.variable_name(v));
                let mut opts = DatasetOptions::plain()
                    .with_attr("iteration", i64::from(iteration))
                    .with_attr("source", i64::from(r));
                if let Some(filter) = self.w.filter {
                    opts = opts.with_filter(filter);
                }
                let block = &self.blocks[(v * RANKS + r) as usize];
                writer
                    .write_dataset_bytes(&path, &self.layout, block, &opts)
                    .map_err(|e| format!("replay write_dataset_bytes: {e}"))?;
            }
        }
        Ok(())
    }

    /// `format`: `SdfWriter::create` + the datasets + unsynced `finish`,
    /// twelve times over. Returns the whole sequence, the `finish` alone,
    /// and the file's bytes per dataset beyond the stored payloads.
    fn sdf_write(&self, scratch: &Path) -> Result<(Series, Series, f64), String> {
        let path = scratch.join("replay.sdf");
        let mut whole_ns = Vec::new();
        let mut finish_ns = Vec::new();
        for rep in 0..12 {
            let t = Instant::now();
            let mut writer = SdfWriter::create(&path).map_err(|e| format!("replay create: {e}"))?;
            self.write_into(&mut writer, rep)?;
            let t_written = Instant::now();
            writer.finish().map_err(|e| format!("replay finish: {e}"))?;
            finish_ns.push(t_written.elapsed().as_nanos() as u64);
            whole_ns.push(t.elapsed().as_nanos() as u64);
        }
        let reader = SdfReader::open(&path).map_err(|e| format!("replay open: {e}"))?;
        let payload_bytes: u64 = (0..reader.len())
            .filter_map(|i| reader.info_at(i))
            .map(|info| info.stored_len)
            .sum();
        let file_bytes = std::fs::metadata(&path)
            .map_err(io_err("replay file"))?
            .len();
        let overhead = (file_bytes - payload_bytes) as f64 / reader.len() as f64;
        Ok((Series::new(&whole_ns), Series::new(&finish_ns), overhead))
    }

    /// `fs`: `LocalDirBackend::begin_sdf` and `commit_sdf` (finish + fsync
    /// + rename) around the same datasets, twelve times over.
    fn commit(&self, scratch: &Path) -> Result<(Series, Series), String> {
        let backend = LocalDirBackend::new(scratch.join("fs")).map_err(io_err("replay backend"))?;
        let mut begin_ns = Vec::new();
        let mut commit_ns = Vec::new();
        for rep in 0..12 {
            let t = Instant::now();
            let mut writer = backend
                .begin_sdf(&format!("node-0/iter-{rep:06}.sdf"))
                .map_err(|e| format!("replay begin_sdf: {e}"))?;
            begin_ns.push(t.elapsed().as_nanos() as u64);
            self.write_into(&mut writer, rep)?;
            let t = Instant::now();
            backend
                .commit_sdf(writer)
                .map_err(|e| format!("replay commit_sdf: {e}"))?;
            commit_ns.push(t.elapsed().as_nanos() as u64);
        }
        Ok((Series::new(&begin_ns), Series::new(&commit_ns)))
    }
}

/// `format` read side: `SdfReader::open` + `query_section`, then one
/// `read_bytes_at`, on 48 of the pass's own iteration files.
fn replay_reader(dir: &Path, iterations: u32, picks: &mut Rng) -> Result<(Series, Series), String> {
    let mut open_ns = Vec::new();
    let mut block_ns = Vec::new();
    for _ in 0..48 {
        let it = picks.below(u64::from(iterations));
        let path = dir.join(format!("node-0/iter-{it:06}.sdf"));
        let t = Instant::now();
        let reader = SdfReader::open(&path).map_err(|e| format!("open {}: {e}", path.display()))?;
        let section = reader.query_section();
        open_ns.push(t.elapsed().as_nanos() as u64);
        black_box(section.map_err(|e| format!("query section: {e}"))?);
        let ordinal = picks.below(reader.len() as u64) as usize;
        let t = Instant::now();
        let block = reader.read_bytes_at(ordinal);
        block_ns.push(t.elapsed().as_nanos() as u64);
        black_box(block.map_err(|e| format!("read block: {e}"))?);
    }
    Ok((Series::new(&open_ns), Series::new(&block_ns)))
}

/// Median microseconds of `publish_iteration` onto a manifest of `n`
/// entries, built in `scratch/manifest-<n>`.
fn manifest_publish_us(scratch: &Path, n: u32) -> Result<f64, String> {
    let dir = scratch.join(format!("manifest-{n}"));
    let file_of = |it: u32| format!("node-0/iter-{it:06}.sdf");
    let manifest = Manifest {
        generation: u64::from(n),
        entries: (0..n)
            .map(|it| ManifestEntry {
                file: file_of(it),
                node: 0,
                kind: EntryKind::Iteration(it),
                bytes: 1 << 20,
            })
            .collect(),
    };
    {
        let _lock = ManifestLock::acquire(&dir).map_err(|e| format!("manifest lock: {e}"))?;
        manifest
            .store(&dir)
            .map_err(|e| format!("manifest store: {e}"))?;
    }
    let mut samples = Vec::new();
    for it in n..n + 15 {
        let t = Instant::now();
        let published = publish_iteration(&dir, 0, it, &file_of(it), 1 << 20);
        samples.push(t.elapsed().as_nanos() as u64);
        published.map_err(|e| format!("publish: {e}"))?;
    }
    Ok(Series::new(&samples).us(0.5))
}

/// `query` lookup paths on a fresh engine over the pass's output: the
/// first lookup of a block (µs), a repeat lookup (ns), and a lookup of a
/// variable that does not exist (ns).
fn replay_lookups(
    w: &Workload,
    dir: &Path,
    iterations: u32,
    picks: &mut Rng,
) -> Result<(f64, f64, f64), String> {
    let engine = open_reader(w, dir)?;
    let snap = engine.snapshot();
    let names = w.variable_names();
    let block_reads = engine.registry().counter("query.block_reads");
    let mut keys = Vec::new();
    let mut miss_ns = Vec::new();
    for _ in 0..200 {
        let key = (
            picks.below(u64::from(w.variables)) as usize,
            picks.below(u64::from(iterations)) as u32,
            picks.below(u64::from(RANKS)) as u32,
        );
        let reads_before = block_reads.get();
        let t = Instant::now();
        let got = engine.lookup(&snap, &names[key.0], key.1, key.2);
        let ns = t.elapsed().as_nanos() as u64;
        if !matches!(got, Ok(Some(_))) {
            return Err(format!("replay lookup of {key:?} found nothing"));
        }
        // A key drawn twice is a hit the second time; keep misses only.
        if block_reads.get() > reads_before {
            miss_ns.push(ns);
        }
        keys.push(key);
    }
    // The newest keys are still cached, whatever the cache size.
    let hot = &keys[keys.len() - 16..];
    let mut next = 0;
    let hit_ns = time_batched(50, 160, || {
        let (variable, iteration, rank) = hot[next % hot.len()];
        next += 1;
        black_box(engine.lookup(&snap, &names[variable], iteration, rank)).expect("lookup");
    });
    let mut probe = 0;
    let absent_ns = time_batched(50, 200, || {
        probe = (probe + 1) % iterations;
        black_box(engine.lookup(&snap, "ghost", probe, 0)).expect("lookup");
    });
    Ok((Series::new(&miss_ns).us(0.5), hit_ns, absent_ns))
}

/// Compacts a copy of 18 of the pass's iterations (one batch of 16 with
/// the default hot tail of 2) and range-reads the merged file cold.
/// Returns (ms per batch, µs per compacted range query).
fn replay_compaction(w: &Workload, out_dir: &Path, scratch: &Path) -> Result<(f64, f64), String> {
    let root = scratch.join("compact");
    std::fs::create_dir_all(root.join("node-0")).map_err(io_err("compaction root"))?;
    for it in 0..18 {
        let rel = format!("node-0/iter-{it:06}.sdf");
        let bytes = std::fs::copy(out_dir.join(&rel), root.join(&rel))
            .map_err(io_err("copy iteration file"))?;
        publish_iteration(&root, 0, it, &rel, bytes).map_err(|e| format!("publish: {e}"))?;
    }
    let compactor = Compactor::new(&root, CompactorConfig::default());
    let t = Instant::now();
    let report = compactor
        .run_once()
        .map_err(|e| format!("compaction: {e}"))?;
    let ms_per_batch = t.elapsed().as_secs_f64() * 1e3 / report.batches.len().max(1) as f64;

    let engine: QueryEngine = open_reader(w, &root)?;
    let snap = engine.snapshot();
    let name = w.variable_name(0);
    let mut samples = Vec::new();
    for source in 0..RANKS {
        let sources = [source];
        let query = RangeQuery {
            variable: &name,
            iterations: (0, 15),
            sources: Some(&sources),
            rows: None,
        };
        let t = Instant::now();
        let hits = engine.range(&snap, &query);
        samples.push(t.elapsed().as_nanos() as u64);
        let hits = hits.map_err(|e| format!("compacted range: {e}"))?;
        if hits.len() != 16 {
            return Err(format!(
                "compacted range returned {} of 16 blocks",
                hits.len()
            ));
        }
    }
    Ok((ms_per_batch, Series::new(&samples).us(0.5)))
}

/// Cost of recording one harness span (two clock reads and a push).
fn harness_span_ns() -> f64 {
    let mut tracer = Tracer::new(true);
    let t = Instant::now();
    const N: u32 = 100_000;
    for i in 0..N {
        let a = tracer.now();
        let b = tracer.now();
        tracer.leaf("probe", a, b, NO_PARENT, i);
    }
    black_box(tracer.spans().len());
    t.elapsed().as_nanos() as f64 / f64::from(N)
}

/// What the per-layer metrics of one workload are built from: its traced
/// pass and that pass's output directory, a short untraced pass of the
/// same length, the bracketing probes, and a directory the replay may fill
/// (the caller removes it).
pub struct Replay<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub traced: &'a PassResult,
    pub traced_dir: &'a Path,
    pub baseline: &'a PassResult,
    pub probes: (Probes, Probes),
    pub scratch: &'a Path,
}

impl Replay<'_> {
    /// Runs the layer replay and returns every per-layer metric.
    pub fn measure(&self) -> Result<Vec<Metric>, String> {
        let Replay {
            workload: w,
            seed,
            traced,
            traced_dir,
            baseline,
            probes,
            scratch,
        } = *self;
        let mut out: Vec<Metric> = Vec::new();
        let mut push = |name: &str, value: f64| out.push(Metric::new(name, value, None));
        std::fs::create_dir_all(scratch).map_err(io_err("replay scratch"))?;
        let iterations = f64::from(traced.total_iterations);
        let measured_iterations = f64::from(traced.total_iterations - WARMUP_ITERATIONS);
        let spans = traced.tracer.spans();
        let report = &traced.report;
        let samples = &traced.samples;
        let block_mb = w.block_bytes as f64 / 1e6;
        let mut picks = Rng::new(seed ^ 0x001A_7E55);

        // --- set-up: xml, core.node ------------------------------------------
        let xml = w.config_xml(true);
        let parse = time_reps(50, || {
            black_box(Config::from_xml(black_box(&xml)).expect("workload config parses"));
        });
        push("xml.config_parse_us", parse.us(0.5));
        let mean_ms = |a: u64, b: u64| (a + b) as f64 / 2e6;
        push(
            "core.node.start_ms",
            mean_ms(traced.node_start_ns, baseline.node_start_ns),
        );
        push(
            "core.node.finish_ms",
            mean_ms(traced.node_finish_ns, baseline.node_finish_ns),
        );

        // --- the client path: format.crc32, shm, core.journal, core.client ----
        let client = traced
            .client_replay
            .ok_or("the traced pass carries no client replay")?;
        push("format.crc32_mb_s", block_mb / (client.crc_ns / 1e9));
        push("shm.copy_gb_s", w.block_bytes as f64 / client.copy_ns);
        push("shm.alloc_release_ns", client.alloc_release_ns);
        push("shm.queue_push_pop_ns", client.queue_ns);
        push("core.journal.append_ns", client.journal_ns);
        let write = Series::new(&trace::durations(spans, "write"));
        let end_iteration = Series::new(&trace::durations(spans, "end_iteration"));
        push("core.client.write_span_us", write.us(0.5));
        push("core.client.write_p99_us", write.us(0.99));
        push(
            "core.client.write_self_us",
            (write.ns(0.5) - client.total_ns()) / 1e3,
        );
        push("core.client.end_iteration_us", end_iteration.us(0.5));
        push("core.client.blocked_share", write.share_above(10.0));
        push("shm.buffer_peak_bytes", report.peak_resident_bytes as f64);

        // --- the delays of the untraced pass that no bound can hold ------------
        for m in crate::unbounded_delays(std::slice::from_ref(baseline)) {
            push(&m.name, m.value);
        }

        // --- the dedicated core, from the node's own registry ------------------
        let per_iter_ms = |phase: &str| sum_ns(traced, phase) / 1e6 / iterations;
        push(
            "core.server.idle_share",
            sum_ns(traced, "queue_idle") / traced.node_life_ns as f64,
        );
        push(
            "core.server.dispatch_ms_per_iter",
            per_iter_ms("epe_dispatch"),
        );
        push(
            "core.persist.write_ms_per_iter",
            per_iter_ms("backend_write"),
        );
        push(
            "core.persist.commit_ms_per_iter",
            per_iter_ms("backend_fsync"),
        );
        push(
            "core.iterations_persisted",
            report.iterations_persisted as f64,
        );
        push(
            "core.iterations_degraded",
            report.iterations_degraded as f64,
        );
        push("core.writes_dropped", report.writes_dropped as f64);
        push("core.crc_quarantined", report.crc_quarantined as f64);
        push("core.persist_retries", report.persist_retries as f64);

        // --- format: SDF write and read ----------------------------------------
        let iteration = IterationReplay::new(w, seed, traced.total_iterations);
        let (sdf_write, sdf_finish, overhead) = iteration.sdf_write(scratch)?;
        push("format.sdf_write_us_per_iter", sdf_write.us(0.5));
        push("format.sdf_overhead_bytes_per_dataset", overhead);
        let (reader_open, reader_block) =
            replay_reader(traced_dir, traced.total_iterations, &mut picks)?;
        push("format.reader_open_us", reader_open.us(0.5));
        push("format.reader_block_us", reader_block.us(0.5));

        // --- compress: the workload's filter (LZSS where it has none) ----------
        let block = &iteration.blocks[0];
        let pipeline = damaris_compress::Pipeline::from_spec(w.filter.unwrap_or("lzss"))
            .map_err(|e| format!("filter spec: {e}"))?;
        let (encoded, _) = pipeline.encode(block).map_err(|e| format!("encode: {e}"))?;
        let encode = time_reps(20, || {
            black_box(pipeline.encode(black_box(block))).expect("encode");
        });
        let decode = time_reps(20, || {
            black_box(pipeline.decode(black_box(&encoded))).expect("decode");
        });
        push("compress.encode_mb_s", block_mb / (encode.ns(0.5) / 1e9));
        push("compress.decode_mb_s", block_mb / (decode.ns(0.5) / 1e9));
        push("compress.ratio", encoded.len() as f64 / block.len() as f64);

        // --- fs: crash-consistent commit and the manifest ----------------------
        let (begin, commit) = iteration.commit(scratch)?;
        push("fs.begin_us", begin.us(0.5));
        push("fs.commit_us", commit.us(0.5));
        let sync_ns = (commit.ns(0.5) - sdf_finish.ns(0.5)).max(0.0);
        push("fs.fsync_share", sync_ns / commit.ns(0.5));
        let publish_100 = manifest_publish_us(scratch, 100)?;
        let publish_1000 = manifest_publish_us(scratch, 1000)?;
        push("fs.manifest_publish_us.n100", publish_100);
        push("fs.manifest_publish_us.n1000", publish_1000);
        let manifest_dir = scratch.join("manifest-1000");
        let load = time_reps(30, || {
            black_box(Manifest::load(&manifest_dir)).expect("manifest loads");
        });
        push("fs.manifest_load_us.n1000", load.us(0.5));
        push("fs.files_created", report.files_created as f64);
        push("fs.bytes_stored", report.bytes_stored as f64);
        push(
            "fs.dev.write_syscalls_per_iter",
            traced.io.syscw as f64 / measured_iterations,
        );
        push(
            "fs.dev.write_bytes_per_user_byte",
            traced.io.wchar as f64 / traced.measured_user_bytes as f64,
        );

        // --- query: refresh, lookup paths, range, cache, compaction --------------
        let refresh_new = Series::new(&samples.refresh_new);
        push("query.refresh_us", refresh_new.us(0.5));
        push(
            "query.refresh_noop_us",
            Series::new(&samples.refresh_noop).us(0.5),
        );
        let (miss_us, hit_ns, absent_ns) =
            replay_lookups(w, traced_dir, traced.total_iterations, &mut picks)?;
        push("query.lookup_miss_us", miss_us);
        push("query.lookup_hit_ns", hit_ns);
        push("query.lookup_absent_ns", absent_ns);
        let history_ns: u64 = samples.query_history.iter().sum();
        push(
            "query.range_us_per_hit",
            history_ns as f64 / 1e3 / traced.history_hits.max(1) as f64,
        );
        let lookups = (traced.cache.hits + traced.cache.misses).max(1);
        push(
            "query.cache_hit_rate",
            traced.cache.hits as f64 / lookups as f64,
        );
        push("query.cache_evictions", traced.cache.evictions as f64);
        push("query.block_reads", traced.block_reads as f64);
        let (compact_ms, compacted_range_us) = replay_compaction(w, traced_dir, scratch)?;
        push("query.compact_ms_per_batch", compact_ms);
        push("query.range_us_compacted", compacted_range_us);

        // --- obs: what tracing costs -------------------------------------------
        let untraced_write = Series::new(&baseline.samples.write).ns(0.5);
        push(
            "obs.trace_overhead_pct",
            (write.ns(0.5) - untraced_write) / untraced_write * 100.0,
        );
        push("obs.harness_span_ns", harness_span_ns());

        // --- closure: do the timed layers add up to what the user sees? --------
        // Client side: the replayed rows against the traced write call.
        push("coverage.client", client.total_ns() / write.ns(0.5));
        // Dedicated core: what happens between the last `end_iteration` and
        // the iteration showing in a refresh — the segment re-verify CRC, the
        // SDF write, begin + commit's sync and rename, the manifest publish at
        // the manifest's mean size in this pass, and the reader's refresh.
        let mean_entries = f64::from(WARMUP_ITERATIONS) + measured_iterations / 2.0;
        let publish_us =
            publish_100 + (publish_1000 - publish_100) * (mean_entries - 100.0) / 900.0;
        let epe_ns = client.crc_ns * f64::from(w.variables * RANKS)
            + sdf_write.ns(0.5)
            + begin.ns(0.5)
            + sync_ns
            + publish_us.max(0.0) * 1e3
            + refresh_new.ns(0.5);
        // With no compute phase the wait after a burst is a backlog of several
        // iterations; the dedicated core's time per iteration is the burst's.
        let per_iteration_ns = match w.pacing {
            Pacing::Period(_) => Series::new(&samples.time_to_queryable).ns(0.5),
            Pacing::Bursts { iterations } => {
                Series::new(&samples.burst).ns(0.5) / f64::from(iterations)
            }
        };
        push("coverage.epe", epe_ns / per_iteration_ns);

        // --- host: was the machine the same before and after? ------------------
        push(
            "host.fsync_probe_p50_us",
            (probes.0.fsync_p50_us + probes.1.fsync_p50_us) / 2.0,
        );
        push(
            "host.crc_probe_mb_s",
            (probes.0.crc_mb_s + probes.1.crc_mb_s) / 2.0,
        );
        Ok(out)
    }
}
