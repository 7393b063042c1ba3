//! Multiple dedicated cores per node (paper §V-A).
//!
//! "Damaris can be deployed on several cores per node. Two different
//! interaction semantics are then available:
//!
//! * **symmetric** — dedicated cores have a symmetrical role but are
//!   attached to different clients of the node (e.g. they all perform I/O
//!   on behalf of different groups of client cores);
//! * **asymmetric** — one dedicated core receives data from clients and
//!   writes it to files, while another one performs visualization or
//!   data-analysis."
//!
//! [`SmpNode`] implements both. Symmetric mode partitions the clients into
//! groups, each with its own shared buffer, notice rings and server thread.
//! Asymmetric mode runs one I/O core exactly like [`crate::NodeRuntime`]
//! plus an *analysis core*: at each end-of-iteration the I/O core forwards
//! the iteration's datasets to the analysis thread (which runs the
//! `analysis`-bound plugins) before persisting and releasing the shared
//! memory.

use crate::client::DamarisClient;
use crate::config::Config;
use crate::error::DamarisError;
use crate::node::{NodeReport, NodeRuntime};
use crate::plugin::PluginFactory;
use crate::plugins::stats::summarize;
use damaris_format::{DataType, DatasetOptions, Layout};
use damaris_fs::LocalDirBackend;
use std::path::{Path, PathBuf};

/// Which §V-A semantics a multi-dedicated-core node uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// `dedicated` symmetric groups, clients split evenly between them.
    Symmetric { dedicated: usize },
    /// One I/O core plus one analysis core.
    Asymmetric,
}

/// One dataset snapshot forwarded from the I/O core to the analysis core.
pub struct AnalysisItem {
    pub iteration: u32,
    pub source: u32,
    pub name: String,
    pub layout: Layout,
    /// Owned copy of the data (the shared-memory segment is released by
    /// the I/O core right after persisting).
    pub data: Vec<u8>,
}

/// Report of an asymmetric node's analysis core.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    pub iterations_analyzed: u64,
    pub datasets_analyzed: u64,
    pub files_created: u64,
}

enum Backendish {
    Symmetric(Vec<NodeRuntime>),
    Asymmetric {
        runtime: NodeRuntime,
        analysis: Option<std::thread::JoinHandle<AnalysisReport>>,
    },
}

/// A node with more than one dedicated core.
pub struct SmpNode {
    clients: Vec<DamarisClient>,
    inner: Backendish,
}

/// Combined accounting from all of a node's dedicated cores.
#[derive(Debug, Clone, Default)]
pub struct SmpNodeReport {
    /// One report per I/O server (symmetric: one per group).
    pub io: Vec<NodeReport>,
    /// Analysis-core report (asymmetric only).
    pub analysis: Option<AnalysisReport>,
}

impl SmpNode {
    /// Starts a node with `n_clients` compute cores under the given
    /// topology, writing into `output_dir`.
    pub fn start(
        config: Config,
        n_clients: usize,
        topology: Topology,
        output_dir: impl AsRef<Path>,
    ) -> Result<SmpNode, DamarisError> {
        match topology {
            Topology::Symmetric { dedicated } => {
                if dedicated == 0 {
                    return Err(DamarisError::Config(
                        "symmetric topology needs at least one dedicated core".into(),
                    ));
                }
                if !n_clients.is_multiple_of(dedicated) {
                    return Err(DamarisError::Config(format!(
                        "{n_clients} clients do not split evenly over {dedicated} dedicated cores"
                    )));
                }
                let per_group = n_clients / dedicated;
                let mut runtimes = Vec::with_capacity(dedicated);
                let mut clients = Vec::with_capacity(n_clients);
                for group in 0..dedicated {
                    // Each group gets its own buffer sized like the paper:
                    // the user-configured size divided among groups.
                    let mut cfg = config.clone();
                    cfg.buffer_size = (config.buffer_size / dedicated).max(1 << 16);
                    let mut rt = NodeRuntime::start_with(
                        cfg,
                        per_group,
                        output_dir.as_ref(),
                        group as u32,
                        Vec::new(),
                    )?;
                    clients.extend(rt.take_clients());
                    runtimes.push(rt);
                }
                Ok(SmpNode {
                    clients,
                    inner: Backendish::Symmetric(runtimes),
                })
            }
            Topology::Asymmetric => {
                let (tx, rx) = crossbeam::channel::unbounded::<AnalysisMsg>();
                let analysis_dir: PathBuf = output_dir.as_ref().join("analysis");
                let analysis = std::thread::Builder::new()
                    .name("damaris-analysis".into())
                    .spawn(move || analysis_core(rx, &analysis_dir))
                    // invariant: spawn fails only on process-scale resource
                    // exhaustion; asymmetric mode cannot run without it.
                    .expect("spawn analysis core");

                let forwarder: PluginFactory = Box::new(move |_binding| {
                    Ok(Box::new(ForwardPlugin { tx: tx.clone() }) as Box<dyn crate::Plugin>)
                });
                // Bind the forwarder *before* the default persist so data is
                // captured while still resident.
                let mut cfg = config;
                cfg.actions.insert(
                    0,
                    crate::config::ActionBinding {
                        event: crate::epe::END_OF_ITERATION.to_string(),
                        action: "forward_to_analysis".to_string(),
                        using: None,
                        scope: "local".to_string(),
                    },
                );
                if !cfg.actions.iter().any(|a| {
                    a.event == crate::epe::END_OF_ITERATION && a.action != "forward_to_analysis"
                }) {
                    cfg.actions.push(crate::config::ActionBinding {
                        event: crate::epe::END_OF_ITERATION.to_string(),
                        action: "persist".to_string(),
                        using: None,
                        scope: "local".to_string(),
                    });
                }
                let mut runtime = NodeRuntime::start_with(
                    cfg,
                    n_clients,
                    output_dir.as_ref(),
                    0,
                    vec![("forward_to_analysis".to_string(), forwarder)],
                )?;
                let clients = runtime.take_clients();
                Ok(SmpNode {
                    clients,
                    inner: Backendish::Asymmetric {
                        runtime,
                        analysis: Some(analysis),
                    },
                })
            }
        }
    }

    /// All client handles (grouped client-major for symmetric mode:
    /// clients `[g·K/D, (g+1)·K/D)` belong to dedicated core `g`).
    pub fn clients(&self) -> Vec<DamarisClient> {
        self.clients.clone()
    }

    /// Shuts down every dedicated core.
    pub fn finish(self) -> Result<SmpNodeReport, DamarisError> {
        match self.inner {
            Backendish::Symmetric(runtimes) => {
                let mut io = Vec::new();
                for rt in runtimes {
                    io.push(rt.finish()?);
                }
                Ok(SmpNodeReport { io, analysis: None })
            }
            Backendish::Asymmetric {
                runtime,
                mut analysis,
            } => {
                let io = runtime.finish()?; // drops the forwarder → channel closes
                let report = analysis
                    .take()
                    // invariant: only `finish` (which consumes self) takes
                    // the handle.
                    .expect("analysis thread")
                    .join()
                    // invariant: the analysis core catches plugin panics;
                    // one escaping is a harness bug worth aborting on.
                    .expect("analysis core panicked");
                Ok(SmpNodeReport {
                    io: vec![io],
                    analysis: Some(report),
                })
            }
        }
    }
}

enum AnalysisMsg {
    Iteration(u32, Vec<AnalysisItem>),
}

/// Plugin running on the I/O core: snapshots the iteration's resident
/// datasets and forwards them to the analysis core.
struct ForwardPlugin {
    tx: crossbeam::channel::Sender<AnalysisMsg>,
}

impl crate::Plugin for ForwardPlugin {
    fn name(&self) -> &str {
        "forward_to_analysis"
    }

    fn handle(
        &mut self,
        ctx: &mut crate::ActionContext<'_>,
        event: &crate::EventInfo,
    ) -> Result<(), DamarisError> {
        let items: Vec<AnalysisItem> = ctx
            .store
            .iteration_entries(event.iteration)
            .map(|v| AnalysisItem {
                iteration: v.key.iteration,
                source: v.key.source,
                name: v.name.clone(),
                layout: v.layout.clone(),
                data: v.data().to_vec(),
            })
            .collect();
        if !items.is_empty() {
            // A closed channel means the analysis core is gone — treat as a
            // plugin failure so the run surfaces it.
            self.tx
                .send(AnalysisMsg::Iteration(event.iteration, items))
                .map_err(|_| DamarisError::Plugin {
                    plugin: "forward_to_analysis".into(),
                    message: "analysis core terminated early".into(),
                })?;
        }
        Ok(())
    }
}

/// The analysis core: consumes forwarded iterations, computes per-dataset
/// statistics, and stores them in its own SDF files — data analysis fully
/// off the I/O path, the paper's asymmetric use case.
fn analysis_core(rx: crossbeam::channel::Receiver<AnalysisMsg>, dir: &Path) -> AnalysisReport {
    // invariant: the analysis dir was created by `start`; failure here
    // means the filesystem vanished, which no report can survive.
    let backend = LocalDirBackend::new(dir).expect("analysis output dir");
    let mut report = AnalysisReport::default();
    while let Ok(AnalysisMsg::Iteration(iteration, items)) = rx.recv() {
        let mut writer = backend
            .create_sdf(&format!("analysis-iter-{iteration:06}.sdf"))
            // invariant: analysis output is best-effort local scratch; an
            // I/O failure here has no graceful continuation.
            .expect("create analysis file");
        let layout = Layout::new(DataType::F64, &[3]);
        for item in &items {
            if let Some(stats) = summarize(item.layout.dtype, &item.data) {
                let path = format!(
                    "/iter-{}/rank-{}/{}.stats",
                    iteration, item.source, item.name
                );
                let bytes: Vec<u8> = stats.iter().flat_map(|v| v.to_le_bytes()).collect();
                writer
                    .write_dataset_bytes(&path, &layout, &bytes, &DatasetOptions::plain())
                    // invariant: see `create_sdf` above.
                    .expect("write stats");
                report.datasets_analyzed += 1;
            }
        }
        // invariant: see `create_sdf` above.
        writer.finish().expect("finish analysis file");
        report.iterations_analyzed += 1;
        report.files_created += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use damaris_format::SdfReader;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("damaris-smp-{tag}-{}-{n}", std::process::id()))
    }

    fn config() -> Config {
        Config::from_xml(
            r#"<damaris>
                 <buffer size="4194304" allocator="partition"/>
                 <layout name="grid" type="real" dimensions="64"/>
                 <variable name="theta" layout="grid"/>
               </damaris>"#,
        )
        .unwrap()
    }

    #[test]
    fn symmetric_groups_partition_clients() {
        let dir = scratch("sym");
        let node = SmpNode::start(config(), 6, Topology::Symmetric { dedicated: 2 }, &dir).unwrap();
        let clients = node.clients();
        assert_eq!(clients.len(), 6);
        std::thread::scope(|s| {
            for client in clients {
                s.spawn(move || {
                    client.write_f32("theta", 0, &vec![1.0; 64]).unwrap();
                    client.end_iteration(0).unwrap();
                });
            }
        });
        let report = node.finish().unwrap();
        assert_eq!(report.io.len(), 2);
        for (g, r) in report.io.iter().enumerate() {
            assert_eq!(r.iterations_persisted, 1, "group {g}");
            assert_eq!(r.variables_received, 3);
        }
        // Each group wrote its own node file.
        for g in 0..2 {
            let reader = SdfReader::open(dir.join(format!("node-{g}/iter-000000.sdf"))).unwrap();
            assert_eq!(reader.len(), 3);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn symmetric_requires_even_split() {
        let dir = scratch("sym-bad");
        assert!(matches!(
            SmpNode::start(config(), 5, Topology::Symmetric { dedicated: 2 }, &dir),
            Err(DamarisError::Config(_))
        ));
        assert!(matches!(
            SmpNode::start(config(), 4, Topology::Symmetric { dedicated: 0 }, &dir),
            Err(DamarisError::Config(_))
        ));
    }

    #[test]
    fn asymmetric_analysis_core_gets_every_iteration() {
        let dir = scratch("asym");
        let node = SmpNode::start(config(), 2, Topology::Asymmetric, &dir).unwrap();
        let clients = node.clients();
        std::thread::scope(|s| {
            for client in clients {
                s.spawn(move || {
                    for it in 0..3u32 {
                        let data: Vec<f32> =
                            (0..64).map(|i| (client.id() * 100 + i) as f32).collect();
                        client.write_f32("theta", it, &data).unwrap();
                        client.end_iteration(it).unwrap();
                    }
                });
            }
        });
        let report = node.finish().unwrap();
        assert_eq!(report.io[0].iterations_persisted, 3);
        let analysis = report.analysis.unwrap();
        assert_eq!(analysis.iterations_analyzed, 3);
        assert_eq!(analysis.datasets_analyzed, 6); // 2 clients × 3 iterations

        // The I/O core persisted the data…
        let data_file = SdfReader::open(dir.join("node-0/iter-000001.sdf")).unwrap();
        assert_eq!(data_file.len(), 2);
        // …and the analysis core produced stats off the I/O path.
        let stats = SdfReader::open(dir.join("analysis/analysis-iter-000001.sdf")).unwrap();
        let row = stats.read_f64("/iter-1/rank-1/theta.stats").unwrap();
        assert_eq!(row[0], 100.0); // min of rank 1's data
        assert_eq!(row[1], 163.0); // max
        std::fs::remove_dir_all(&dir).ok();
    }
}
