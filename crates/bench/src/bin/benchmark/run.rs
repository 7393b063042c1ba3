//! One pass over one workload on one node instance: set the node up,
//! drive the measured iterations from a single load thread, read
//! everything back, shut the node down, and hand the raw samples to the
//! caller. A run is several passes, each on a node of its own (see
//! `main.rs`): how fast one node instance runs depends on where its buffers
//! happened to land, and that luck differs from node to node.
//!
//! The pass talks to the program through public functions only:
//! `Config::from_xml`, `NodeRuntime::{start, metrics_snapshot, finish}`,
//! `DamarisClient::{write, end_iteration}`, `QueryEngine::{open, refresh,
//! lookup, range}`, `Manifest::load`. Every wait has a deadline; a wait
//! that runs out is a failed operation and ends the pass, it never hangs.

use crate::gen::{Generator, Rng};
use crate::host::{Pinning, ProcIo};
use crate::layers::ClientReplay;
use crate::trace::{SpanId, Tracer, NO_PARENT};
use crate::workload::{Pacing, Workload, RANKS, WARMUP_ITERATIONS};
use damaris_core::{Config, DamarisClient, NodeReport, NodeRuntime};
use damaris_obs::MetricsSnapshot;
use damaris_query::{CacheStats, QueryConfig, QueryEngine, RangeQuery, Snapshot};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Longest the harness waits for one iteration to become queryable. The
/// node's own persist deadline is 2 s; well past that, the iteration is
/// never coming.
const WAIT_DEADLINE: Duration = Duration::from_secs(10);
/// Pause between two `refresh` polls while waiting.
const POLL_PAUSE: Duration = Duration::from_micros(100);
/// Blocks read back through a fresh engine when the pass ends.
const READBACK_BLOCKS: u32 = 64;

/// Operations attempted and failed: writes, `end_iteration`s, iterations
/// expected durable, queries. A refused, dropped, degraded, timed-out or
/// byte-mismatching operation is failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

pub struct PassSpec<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    /// Measured iterations (a multiple of the burst length for `Bursts`).
    pub measured_iterations: u32,
    /// Harness spans on, `<observability enabled="true"/>` in the node.
    pub traced: bool,
    /// The node's output directory; it stays behind for the caller to
    /// inspect and remove.
    pub out_dir: &'a Path,
}

/// Raw timing series of the measured phase, nanoseconds.
#[derive(Debug, Default)]
pub struct Samples {
    pub write: Vec<u64>,
    pub end_iteration: Vec<u64>,
    pub io_phase: Vec<u64>,
    pub time_to_queryable: Vec<u64>,
    /// First write of a burst → its last iteration queryable (`Bursts`).
    pub burst: Vec<u64>,
    pub query_point: Vec<u64>,
    pub query_history: Vec<u64>,
    /// `refresh` calls that found a new manifest generation / none.
    pub refresh_new: Vec<u64>,
    pub refresh_noop: Vec<u64>,
}

pub struct PassResult {
    pub ops: Ops,
    /// Blocks whose bytes differed from the generator's.
    pub mismatches: u64,
    /// The manifest covers every iteration, the node reports nothing
    /// degraded, dropped or quarantined, and no wait timed out.
    pub clean: bool,
    pub samples: Samples,
    /// Config parse → first measured iteration, and its `NodeRuntime::start`.
    pub setup_ns: u64,
    pub node_start_ns: u64,
    pub node_finish_ns: u64,
    /// Blocks the history queries returned.
    pub history_hits: u64,
    /// First measured write → last measured iteration queryable.
    pub measured_wall_ns: u64,
    /// User payload bytes of the measured iterations / of every iteration
    /// in `out_dir` (warm-up included).
    pub measured_user_bytes: u64,
    pub total_user_bytes: u64,
    /// Bytes of every file under the output directory after `finish`.
    pub stored_bytes: u64,
    pub total_iterations: u32,
    pub report: NodeReport,
    /// Node registry right before `finish`, and the node's age then.
    pub node_metrics: MetricsSnapshot,
    pub node_life_ns: u64,
    pub cache: CacheStats,
    pub block_reads: u64,
    /// `/proc/self/io` over the measured phase.
    pub io: ProcIo,
    pub tracer: Tracer,
    /// Traced passes only.
    pub client_replay: Option<ClientReplay>,
}

/// One running node with its reader.
struct Node {
    runtime: NodeRuntime,
    clients: Vec<DamarisClient>,
    engine: QueryEngine,
}

/// The load thread's state.
struct Driver<'a> {
    w: &'a Workload,
    gen: Generator,
    names: Vec<String>,
    /// This iteration's blocks, `[variable * RANKS + rank]`.
    payloads: Vec<Vec<u8>>,
    /// Scratch for the block a query result is compared against.
    expected: Vec<u8>,
    /// Seeded choices of what to query.
    picks: Rng,
    tracer: Tracer,
    /// Off during warm-up: nothing is sampled or counted.
    measuring: bool,
    samples: Samples,
    ops: Ops,
    mismatches: u64,
    history_hits: u64,
    /// When the newest iteration was first seen queryable.
    last_queryable_ns: u64,
    timed_out: bool,
}

impl<'a> Driver<'a> {
    fn new(spec: &PassSpec<'a>) -> Driver<'a> {
        let w = spec.workload;
        Driver {
            w,
            gen: Generator::new(spec.seed, w.name, w.field),
            names: w.variable_names(),
            payloads: vec![vec![0u8; w.block_bytes]; (w.variables * RANKS) as usize],
            expected: vec![0u8; w.block_bytes],
            picks: Rng::new(spec.seed ^ 0x5EED_0FA1_1C0D),
            tracer: Tracer::new(false),
            measuring: false,
            samples: Samples::default(),
            ops: Ops::default(),
            mismatches: 0,
            history_hits: 0,
            last_queryable_ns: 0,
            timed_out: false,
        }
    }

    fn count(&mut self, ok: bool) {
        if self.measuring {
            self.ops.record(ok);
        }
    }

    /// Generates the iteration's blocks, then runs its I/O phase: every
    /// variable to every rank handle round-robin, then every
    /// `end_iteration`. Returns when the last `end_iteration` returned.
    fn io_phase(&mut self, node: &Node, iteration: u32, parent: SpanId) -> u64 {
        let t_gen = self.tracer.now();
        for v in 0..self.w.variables {
            for r in 0..RANKS {
                let block = &mut self.payloads[(v * RANKS + r) as usize];
                self.gen.fill(iteration, r, v, block);
            }
        }
        let t0 = self.tracer.now();
        self.tracer.leaf("generate", t_gen, t0, parent, iteration);
        let span = self.tracer.open("io_phase", t0, parent, iteration);
        let mut t = t0;
        for v in 0..self.w.variables {
            for r in 0..RANKS {
                let block = &self.payloads[(v * RANKS + r) as usize];
                let outcome =
                    node.clients[r as usize].write(&self.names[v as usize], iteration, block);
                let t_end = self.tracer.now();
                self.tracer.leaf("write", t, t_end, span, iteration);
                if self.measuring {
                    self.samples.write.push(t_end - t);
                }
                if let Err(e) = &outcome {
                    eprintln!(
                        "write {} rank {r} iteration {iteration}: {e}",
                        self.names[v as usize]
                    );
                }
                self.count(outcome.is_ok());
                t = t_end;
            }
        }
        for client in &node.clients {
            let outcome = client.end_iteration(iteration);
            let t_end = self.tracer.now();
            self.tracer.leaf("end_iteration", t, t_end, span, iteration);
            if self.measuring {
                self.samples.end_iteration.push(t_end - t);
            }
            if let Err(e) = &outcome {
                eprintln!(
                    "end_iteration rank {} iteration {iteration}: {e}",
                    client.id()
                );
            }
            self.count(outcome.is_ok());
            t = t_end;
        }
        self.tracer.close(span, t);
        if self.measuring {
            self.samples.io_phase.push(t - t0);
        }
        t
    }

    /// Polls `refresh` until the snapshot shows `iteration`, measuring
    /// from `since_ns` (when the last `end_iteration` returned).
    fn wait_queryable(
        &mut self,
        node: &Node,
        iteration: u32,
        since_ns: u64,
        parent: SpanId,
    ) -> Option<Arc<Snapshot>> {
        let span = self
            .tracer
            .open("wait_queryable", since_ns, parent, iteration);
        let deadline = since_ns + WAIT_DEADLINE.as_nanos() as u64;
        let mut generation = node.engine.snapshot().generation();
        let found = loop {
            let t = self.tracer.now();
            let refreshed = node.engine.refresh();
            let t_end = self.tracer.now();
            self.tracer.leaf("refresh", t, t_end, span, iteration);
            match refreshed {
                Ok(snap) => {
                    if self.measuring {
                        if snap.generation() != generation {
                            self.samples.refresh_new.push(t_end - t);
                        } else {
                            self.samples.refresh_noop.push(t_end - t);
                        }
                    }
                    generation = snap.generation();
                    if !snap.files_for(iteration).is_empty() {
                        if self.measuring {
                            self.samples.time_to_queryable.push(t_end - since_ns);
                        }
                        self.last_queryable_ns = t_end;
                        break Some(snap);
                    }
                }
                Err(e) => eprintln!("refresh while waiting for iteration {iteration}: {e}"),
            }
            if t_end > deadline {
                eprintln!(
                    "iteration {iteration} not queryable after {WAIT_DEADLINE:?}: giving up on the pass"
                );
                self.timed_out = true;
                break None;
            }
            std::thread::sleep(POLL_PAUSE);
        };
        let t_end = self.tracer.now();
        self.tracer.close(span, t_end);
        self.count(found.is_some());
        found
    }

    /// Compares `data` with the generator's block; a difference is a
    /// failed query and makes the run incorrect.
    fn matches(&mut self, iteration: u32, rank: u32, variable: u32, data: &[u8]) -> bool {
        self.gen.fill(iteration, rank, variable, &mut self.expected);
        let same = data == self.expected.as_slice();
        if !same {
            self.mismatches += 1;
            eprintln!("read-back mismatch: iteration {iteration} rank {rank} variable {variable}");
        }
        same
    }

    /// One point lookup, timed, then verified against the generator.
    /// Returns the lookup's duration and whether the block was right.
    fn lookup_checked(
        &mut self,
        engine: &QueryEngine,
        snap: &Snapshot,
        (iteration, rank, variable): (u32, u32, u32),
        parent: SpanId,
    ) -> (u64, bool) {
        let t = self.tracer.now();
        let got = engine.lookup(snap, &self.names[variable as usize], iteration, rank);
        let t_end = self.tracer.now();
        self.tracer.leaf("query_point", t, t_end, parent, iteration);
        let ok = match got {
            Ok(Some(block)) => self.matches(iteration, rank, variable, &block),
            Ok(None) => {
                eprintln!("lookup: iteration {iteration} rank {rank} variable {variable} absent");
                false
            }
            Err(e) => {
                eprintln!("lookup: {e}");
                false
            }
        };
        (t_end - t, ok)
    }

    /// One history query: variable 0 of one source over the trailing
    /// window ending at `iteration`; every block returned is verified.
    fn query_history(
        &mut self,
        node: &Node,
        snap: &Snapshot,
        iteration: u32,
        source: u32,
        parent: SpanId,
    ) {
        let lo = iteration.saturating_sub(self.w.history_window - 1);
        let sources = [source];
        let query = RangeQuery {
            variable: &self.names[0],
            iterations: (lo, iteration),
            sources: Some(&sources),
            rows: None,
        };
        let t = self.tracer.now();
        let got = node.engine.range(snap, &query);
        let t_end = self.tracer.now();
        self.tracer
            .leaf("query_history", t, t_end, parent, iteration);
        if self.measuring {
            self.samples.query_history.push(t_end - t);
        }
        let ok = match got {
            Ok(hits) => {
                if self.measuring {
                    self.history_hits += hits.len() as u64;
                }
                let mut ok = hits.len() as u32 == iteration - lo + 1;
                for hit in &hits {
                    ok &= self.matches(hit.iteration, hit.source, 0, &hit.data);
                }
                ok
            }
            Err(e) => {
                eprintln!("range: {e}");
                false
            }
        };
        self.count(ok);
    }

    /// The reads of one compute phase (or of one finished burst):
    /// `fresh` is the range of iterations written since the last reads.
    fn reads(&mut self, node: &Node, snap: &Snapshot, fresh: (u32, u32), parent: SpanId) {
        let (first, last) = fresh;
        for _ in 0..self.w.point_queries {
            let iteration = if self.w.point_on_fresh {
                first + self.picks.below(u64::from(last - first + 1)) as u32
            } else {
                self.picks.below(u64::from(last) + 1) as u32
            };
            // Variable 0 belongs to the history queries, so a point lookup
            // of a fresh block is one nobody has read.
            let variable = 1 + self.picks.below(u64::from(self.w.variables - 1)) as u32;
            let rank = self.picks.below(u64::from(RANKS)) as u32;
            let (ns, ok) =
                self.lookup_checked(&node.engine, snap, (iteration, rank, variable), parent);
            if self.measuring {
                self.samples.query_point.push(ns);
            }
            self.count(ok);
        }
        for q in 0..self.w.history_queries {
            self.query_history(node, snap, last, q % RANKS, parent);
        }
    }

    /// One synchronous iteration: I/O phase, wait until queryable, reads.
    /// Returns false when the wait timed out.
    fn iteration(&mut self, node: &Node, iteration: u32) -> bool {
        let t0 = self.tracer.now();
        let span = self.tracer.open("iteration", t0, NO_PARENT, iteration);
        let t1 = self.io_phase(node, iteration, span);
        let snap = self.wait_queryable(node, iteration, t1, span);
        if let Some(snap) = &snap {
            self.reads(node, snap, (iteration, iteration), span);
        }
        let t_end = self.tracer.now();
        self.tracer.close(span, t_end);
        snap.is_some()
    }

    /// One burst: `count` back-to-back I/O phases, then wait for the last
    /// iteration, then the reads over the burst.
    fn burst(&mut self, node: &Node, first: u32, count: u32) -> bool {
        let t0 = self.tracer.now();
        let span = self.tracer.open("burst", t0, NO_PARENT, first);
        let mut t1 = t0;
        for iteration in first..first + count {
            t1 = self.io_phase(node, iteration, span);
        }
        let last = first + count - 1;
        let snap = self.wait_queryable(node, last, t1, span);
        if self.measuring {
            self.samples.burst.push(self.tracer.now() - t0);
        }
        if let Some(snap) = &snap {
            self.reads(node, snap, (first, last), span);
        }
        let t_end = self.tracer.now();
        self.tracer.close(span, t_end);
        snap.is_some()
    }
}

/// A reader over `dir` with the workload's block cache.
pub fn open_reader(w: &Workload, dir: &Path) -> Result<QueryEngine, String> {
    let config = QueryConfig {
        cache_bytes: w.cache_bytes,
    };
    QueryEngine::open(dir, config)
        .map_err(|e| format!("query engine open on {}: {e}", dir.display()))
}

fn elapsed(tracer: &Tracer, since: u64) -> u64 {
    tracer.now() - since
}

/// Bytes of every regular file under `dir`.
fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Runs one pass on a fresh node. `Err` is a harness-level failure (the
/// node would not start, the output directory is unusable, a warm-up
/// iteration never appeared); failed operations of a node that ran are in
/// `PassResult::ops`.
pub fn run_pass(spec: &PassSpec<'_>, pinning: &mut Pinning) -> Result<PassResult, String> {
    let w = spec.workload;
    let xml = w.config_xml(spec.traced);
    let mut d = Driver::new(spec);

    // Set-up: parse, start the node on the dedicated CPU, open the reader,
    // run the warm-up iterations.
    let out_dir = spec.out_dir;
    let t_setup = d.tracer.now();
    let config = Config::from_xml(&xml).map_err(|e| format!("config: {e}"))?;
    let t_node_start = d.tracer.now();
    pinning.enter_dedicated();
    let started = NodeRuntime::start(config, RANKS as usize, out_dir);
    pinning.enter_load();
    let runtime = started.map_err(|e| format!("node start: {e}"))?;
    let node_start_ns = elapsed(&d.tracer, t_node_start);
    let engine = open_reader(w, out_dir)?;
    let node = Node {
        clients: runtime.clients(),
        runtime,
        engine,
    };
    for iteration in 0..WARMUP_ITERATIONS {
        if !d.iteration(&node, iteration) {
            return Err(format!(
                "warm-up iteration {iteration} never became queryable"
            ));
        }
    }
    let setup_ns = elapsed(&d.tracer, t_setup);

    // The measured phase; spans are kept for it alone. The largest series
    // is sized up front so no write is timed across a reallocation.
    d.samples
        .write
        .reserve((spec.measured_iterations * w.variables * RANKS) as usize);
    d.measuring = true;
    d.tracer.set_enabled(spec.traced);
    let io_before = ProcIo::read();
    let first = WARMUP_ITERATIONS;
    let end = first + spec.measured_iterations;
    let t_measured = d.tracer.now();
    match w.pacing {
        Pacing::Period(period) => {
            // Iterations start on a fixed schedule, so a sleep that ran
            // long shortens the next one. Closed loop: an iteration that
            // overran its period starts the next at once, and the
            // schedule restarts from there instead of catching up.
            let period_ns = period.as_nanos() as u64;
            let mut due = t_measured;
            for iteration in first..end {
                let now = d.tracer.now();
                if now < due {
                    std::thread::sleep(Duration::from_nanos(due - now));
                } else {
                    due = now;
                }
                if !d.iteration(&node, iteration) {
                    break;
                }
                due += period_ns;
            }
        }
        Pacing::Bursts { iterations } => {
            let mut burst_first = first;
            while burst_first < end {
                if !d.burst(&node, burst_first, iterations.min(end - burst_first)) {
                    break;
                }
                burst_first += iterations;
            }
        }
    }
    let measured_wall_ns = d.last_queryable_ns.saturating_sub(t_measured);
    let io_after = ProcIo::read();
    d.measuring = false;
    d.tracer.set_enabled(false);
    // The client path layer by layer, while the dedicated core is alive
    // and polling its queue beside the load thread, as it is during a write.
    let client_replay = spec.traced.then(|| ClientReplay::run(w, &d.payloads));

    // End-of-pass checks: manifest coverage, the node's own report, and a
    // seeded read-back through a fresh engine.
    let mut clean = !d.timed_out;
    match damaris_fs::Manifest::load(out_dir) {
        Ok(manifest) => {
            let missing = (0..end).filter(|&it| !manifest.covers(0, it)).count();
            if missing > 0 {
                eprintln!("manifest misses {missing} of {end} iterations");
                clean = false;
            }
        }
        Err(e) => {
            eprintln!("manifest load: {e}");
            clean = false;
        }
    }
    let node_metrics = node.runtime.metrics_snapshot();
    let node_life_ns = elapsed(&d.tracer, t_node_start);
    let cache = node.engine.cache_stats();
    let block_reads = node.engine.registry().counter("query.block_reads").get();
    let Node {
        runtime,
        clients,
        engine,
    } = node;
    drop(clients);
    drop(engine);
    let t_finish = d.tracer.now();
    let report = runtime.finish().map_err(|e| format!("node finish: {e}"))?;
    let node_finish_ns = elapsed(&d.tracer, t_finish);
    if report.iterations_persisted != u64::from(end)
        || report.iterations_degraded != 0
        || report.writes_dropped != 0
        || report.crc_quarantined != 0
        || report.sync_fallback_writes != 0
    {
        eprintln!(
            "node report not clean: persisted {} of {end}, degraded {}, dropped {}, quarantined {}, \
             sync-fallback {}",
            report.iterations_persisted,
            report.iterations_degraded,
            report.writes_dropped,
            report.crc_quarantined,
            report.sync_fallback_writes
        );
        clean = false;
    }
    let stored_bytes =
        dir_bytes(out_dir).map_err(|e| format!("sizing {}: {e}", out_dir.display()))?;

    let fresh = open_reader(w, out_dir)?;
    let snap = fresh.snapshot();
    for _ in 0..READBACK_BLOCKS {
        let key = (
            d.picks.below(u64::from(end)) as u32,
            d.picks.below(u64::from(RANKS)) as u32,
            d.picks.below(u64::from(w.variables)) as u32,
        );
        // Counted as queries, but not sampled: a check, not the live system.
        let (_, ok) = d.lookup_checked(&fresh, &snap, key, NO_PARENT);
        d.ops.record(ok);
    }

    Ok(PassResult {
        ops: d.ops,
        mismatches: d.mismatches,
        clean: clean && d.mismatches == 0,
        samples: d.samples,
        setup_ns,
        node_start_ns,
        node_finish_ns,
        history_hits: d.history_hits,
        measured_wall_ns,
        measured_user_bytes: u64::from(spec.measured_iterations) * w.iteration_bytes(),
        total_user_bytes: u64::from(end) * w.iteration_bytes(),
        stored_bytes,
        total_iterations: end,
        report,
        node_metrics,
        node_life_ns,
        cache,
        block_reads,
        io: ProcIo {
            syscw: io_after.syscw - io_before.syscw,
            wchar: io_after.wchar - io_before.wchar,
        },
        tracer: d.tracer,
        client_replay,
    })
}
