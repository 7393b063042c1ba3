//! Every state a crash can leave the `MANIFEST` log in, checked. A run of
//! single and batched publishes, a compactor replace appended as a frame,
//! a second compaction answered with a checkpoint rewrite, and publishes
//! appended to that checkpoint is recorded step by step through
//! `manifest::watch`. At each step a crash leaves the bytes synced so far,
//! plus any prefix of the bytes appended since the last sync, or all of
//! them with one 512-byte sector zeroed; and a checkpoint renamed in but
//! not yet made durable by a directory sync may be found renamed or not.
//! On each such state `Manifest::load`, `recover_dir` and a
//! `QueryEngine` must list every publish and replace acknowledged before
//! the crash, and no entry whose file is not whole.
//!
//! Run with `--nocapture` to see how many states were checked.

use damaris_format::{DataType, DatasetOptions, Layout, SdfReader, SdfWriter};
use damaris_fs::manifest::{self, Step, MANIFEST_NAME};
use damaris_fs::{recover_dir, Manifest};
use damaris_query::{Compactor, CompactorConfig, QueryConfig, QueryEngine};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// A writer's durability step, owned.
#[derive(Debug, Clone)]
enum Op {
    Append(Vec<u8>),
    SyncData,
    Checkpoint(Vec<u8>),
    Rename,
    SyncDir,
}

/// What must survive a crash once it was acknowledged.
#[derive(Debug, Clone)]
enum Acked {
    /// `(node, iteration)` reachable.
    Published(u32, u32),
    /// The compacted file listed.
    Replaced(String),
}

#[derive(Debug, Clone)]
enum Event {
    Op(Op),
    Acked(Acked),
    /// The SDF files in the tree from here on.
    Files(BTreeSet<String>),
}

static ROOT: OnceLock<PathBuf> = OnceLock::new();
static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());

fn push(event: Event) {
    EVENTS.lock().expect("events").push(event);
}

fn record(root: &Path, step: Step<'_>) {
    if ROOT.get().map(PathBuf::as_path) != Some(root) {
        return;
    }
    // What the compactor wrote before its replace is in the tree by now.
    push(Event::Files(files(root, &root.with_file_name("pool"))));
    push(Event::Op(match step {
        Step::Append(bytes) => Op::Append(bytes.to_vec()),
        Step::SyncData => Op::SyncData,
        Step::Checkpoint(bytes) => Op::Checkpoint(bytes.to_vec()),
        Step::Rename => Op::Rename,
        Step::SyncDir => Op::SyncDir,
    }));
}

fn rel(iteration: u32) -> String {
    format!("node-0/iter-{iteration:06}.sdf")
}

/// Writes and syncs iteration `iteration`'s file, and keeps a link to it
/// in `pool`, out of the compactor's reach.
fn write_file(root: &Path, pool: &Path, iteration: u32) -> u64 {
    let path = root.join(rel(iteration));
    std::fs::create_dir_all(path.parent().expect("parent")).expect("node dir");
    let mut writer = SdfWriter::create(&path).expect("create");
    let data: Vec<f64> = (0..16)
        .map(|i| f64::from(iteration) + f64::from(i))
        .collect();
    writer
        .write_dataset_f64_opts(
            &format!("/iter-{iteration}/rank-0/field"),
            &Layout::new(DataType::F64, &[16]),
            &data,
            &DatasetOptions::plain().with_coords(iteration, 0),
        )
        .expect("write");
    let bytes = writer.finish_synced().expect("finish");
    link(&path, &pool.join(rel(iteration)));
    bytes
}

fn link(from: &Path, to: &Path) {
    std::fs::create_dir_all(to.parent().expect("parent")).expect("dir");
    std::fs::hard_link(from, to).expect("link");
}

/// The `*.sdf` files under `root`, relative, linked into `pool`.
fn files(root: &Path, pool: &Path) -> BTreeSet<String> {
    let mut files = BTreeSet::new();
    for entry in std::fs::read_dir(root.join("node-0")).expect("node dir") {
        let name = entry
            .expect("entry")
            .file_name()
            .into_string()
            .expect("utf-8");
        if name.ends_with(".sdf") {
            let rel = format!("node-0/{name}");
            if !pool.join(&rel).exists() {
                link(&root.join(&rel), &pool.join(&rel));
            }
            files.insert(rel);
        }
    }
    files
}

fn publish(root: &Path, pool: &Path, iterations: &[u32]) {
    let sealed: Vec<(u32, String, u64)> = iterations
        .iter()
        .map(|&it| (it, rel(it), write_file(root, pool, it)))
        .collect();
    push(Event::Files(files(root, pool)));
    let batch: Vec<(u32, &str, u64)> = sealed
        .iter()
        .map(|(it, f, b)| (*it, f.as_str(), *b))
        .collect();
    manifest::publish_iterations(root, 0, &batch).expect("publish");
    for &it in iterations {
        push(Event::Acked(Acked::Published(0, it)));
    }
}

fn compact(root: &Path, pool: &Path, hot_tail: u32) {
    let config = CompactorConfig {
        min_batch: 2,
        hot_tail,
        chunk_rows: 0,
    };
    let report = Compactor::new(root, config).run_once().expect("compact");
    assert_eq!(report.batches.len(), 1, "{report:?}");
    let (node, lo, hi) = report.batches[0];
    push(Event::Files(files(root, pool)));
    let span = format!("node-{node}/compact-{lo:06}-{hi:06}.sdf");
    push(Event::Acked(Acked::Replaced(span)));
}

/// The run, recorded: what the writers did, what was acknowledged, and
/// which files existed when.
fn run(root: &Path, pool: &Path) -> Vec<Event> {
    publish(root, pool, &[0]);
    publish(root, pool, &[1]);
    publish(root, pool, &[2, 3, 4]);
    for it in 5..10 {
        publish(root, pool, &[it]);
    }
    // Iterations 0 and 1 merged: a replace frame appended.
    compact(root, pool, 7);
    publish(root, pool, &[10, 11]);
    // Iterations 2 to 8 merged: the log would hold more than twice its
    // live entries, so the replace is a checkpoint.
    compact(root, pool, 3);
    publish(root, pool, &[12]);
    publish(root, pool, &[13, 14]);
    let events = EVENTS.lock().expect("events").clone();
    let ops = |f: fn(&Op) -> bool| {
        events
            .iter()
            .filter(|e| matches!(e, Event::Op(op) if f(op)))
            .count()
    };
    assert!(ops(|op| matches!(op, Op::Append(_))) >= 10, "appends");
    assert_eq!(ops(|op| matches!(op, Op::Rename)), 2, "two checkpoints");
    events
}

/// A `MANIFEST` file in the model: its bytes and how many are synced.
struct Log {
    bytes: Vec<u8>,
    synced: usize,
}

/// The file system after the events so far: every `MANIFEST` file, the
/// one the name points at, and the one it points at durably.
#[derive(Default)]
struct Model {
    logs: Vec<Log>,
    named: Option<usize>,
    durable: Option<usize>,
}

impl Model {
    fn apply(&mut self, op: &Op) {
        match op {
            Op::Append(bytes) => {
                let at = self.named.expect("append to a named log");
                self.logs[at].bytes.extend_from_slice(bytes);
            }
            Op::SyncData => {
                let log = &mut self.logs[self.named.expect("sync a named log")];
                log.synced = log.bytes.len();
            }
            Op::Checkpoint(bytes) => self.logs.push(Log {
                bytes: bytes.clone(),
                synced: bytes.len(),
            }),
            Op::Rename => self.named = Some(self.logs.len() - 1),
            Op::SyncDir => self.durable = self.named,
        }
    }

    /// Every `MANIFEST` a crash now can leave: the named log or, while its
    /// rename is not durable, the one named before; its synced bytes with
    /// each prefix of the rest, or with all of the rest and one sector
    /// zeroed.
    fn crash_states(&self) -> Vec<Option<Vec<u8>>> {
        let mut states = Vec::new();
        let mut names = vec![self.named];
        if self.durable != self.named {
            names.push(self.durable);
        }
        for name in names {
            let Some(at) = name else {
                states.push(None);
                continue;
            };
            let Log { bytes, synced } = &self.logs[at];
            for end in *synced..=bytes.len() {
                states.push(Some(bytes[..end].to_vec()));
            }
            let mut sector = synced / 512 * 512;
            while sector < bytes.len() {
                let mut torn = bytes.clone();
                let zeroed = sector.max(*synced)..(sector + 512).min(bytes.len());
                torn[zeroed].fill(0);
                states.push(Some(torn));
                sector += 512;
            }
        }
        states
    }
}

/// Checks one crash state; `Err` says what it broke.
fn check(state: &Path, acked: &[Acked]) -> Result<(), String> {
    let listed = |m: &Manifest| -> Result<(), String> {
        for acked in acked {
            let found = match acked {
                Acked::Published(node, it) => m.covers(*node, *it),
                Acked::Replaced(span) => m.references(span),
            };
            if !found {
                return Err(format!("{acked:?} not listed"));
            }
        }
        for entry in &m.entries {
            SdfReader::open(state.join(&entry.file))
                .and_then(|r| r.validate())
                .map_err(|e| format!("{} listed but not whole: {e}", entry.file))?;
        }
        Ok(())
    };
    let loaded = Manifest::load(state).map_err(|e| format!("load: {e}"))?;
    listed(&loaded)?;
    let report = recover_dir(state).map_err(|e| format!("recover: {e}"))?;
    if report.quarantined.contains(&PathBuf::from(MANIFEST_NAME)) || !report.failed.is_empty() {
        return Err(format!("recovery: {report:?}"));
    }
    let recovered = Manifest::load(state).map_err(|e| format!("load after recovery: {e}"))?;
    listed(&recovered)?;
    let engine =
        QueryEngine::open(state, QueryConfig::default()).map_err(|e| format!("engine: {e}"))?;
    let snap = engine.snapshot();
    for acked in acked {
        if let Acked::Published(_, it) = acked {
            if engine
                .lookup(&snap, "field", *it, 0)
                .map_err(|e| e.to_string())?
                .is_none()
            {
                return Err(format!("iteration {it} not found by the engine"));
            }
        }
    }
    Ok(())
}

#[test]
fn every_crash_state_lists_what_was_acknowledged() {
    let base = std::env::temp_dir().join(format!("damaris-manifest-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (root, pool, state) = (base.join("run"), base.join("pool"), base.join("state"));
    std::fs::create_dir_all(&root).expect("root");
    ROOT.set(root.clone()).expect("one run");
    manifest::watch(record);
    let events = run(&root, &pool);

    let (mut model, mut acked, mut files) = (Model::default(), Vec::new(), BTreeSet::new());
    let mut checked = 0usize;
    for event in &events {
        match event {
            Event::Op(op) => model.apply(op),
            Event::Acked(a) => acked.push(a.clone()),
            Event::Files(now) => files = now.clone(),
        }
        for manifest in model.crash_states() {
            let _ = std::fs::remove_dir_all(&state);
            for file in &files {
                link(&pool.join(file), &state.join(file));
            }
            if let Some(bytes) = &manifest {
                std::fs::write(state.join(MANIFEST_NAME), bytes).expect("manifest");
            }
            if let Err(broken) = check(&state, &acked) {
                let text = manifest.map(|b| String::from_utf8_lossy(&b).into_owned());
                panic!("after {event:?}: {broken}\nMANIFEST: {text:?}");
            }
            checked += 1;
        }
    }
    println!(
        "manifest crash states checked: {checked} over {} steps",
        events.len()
    );
    std::fs::remove_dir_all(&base).ok();
}
