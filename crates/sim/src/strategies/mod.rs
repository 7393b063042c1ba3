//! The three I/O strategies the paper compares, executed as job flows
//! through the simulated cluster's resources.
//!
//! * [`Strategy::FilePerProcess`] — every process creates its own file
//!   (metadata storm on Lustre's single MDS) and streams its subdomain;
//!   thousands of interleaved small streams thrash the data servers.
//! * [`Strategy::CollectiveIo`] — two-phase I/O: per-round data exchange to
//!   one aggregator per node, lock acquisition, synchronized rounds. The
//!   all-to-all synchronization is the scalability killer (§II-B).
//! * [`Strategy::Damaris`] — clients memcpy into shared memory (the entire
//!   I/O phase from the simulation's point of view); one dedicated core per
//!   node asynchronously writes one large node file, optionally slot-
//!   scheduled and/or compressing in spare time (§III, §IV-D).

mod collective;
mod damaris;
mod fpp;

pub use damaris::DamarisOptions;

use crate::noise::SimRng;
use crate::platform::PlatformSpec;
use crate::resources::{DataServer, Nic, ServerPool};
use crate::workload::{CompressionModel, WorkloadSpec};

/// Which I/O approach a simulated run uses.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// One file per process (HDF5-style), §II-B-a.
    FilePerProcess,
    /// Collective I/O into one shared file (pHDF5/ROMIO-style), §II-B-b.
    CollectiveIo,
    /// Dedicated I/O cores with shared memory (the paper's contribution).
    Damaris(DamarisOptions),
}

impl Strategy {
    /// Damaris with defaults: 1 dedicated core/node, no scheduling, no
    /// compression.
    pub fn damaris() -> Self {
        Strategy::Damaris(DamarisOptions::default())
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::FilePerProcess => "file-per-process",
            Strategy::CollectiveIo => "collective-io",
            Strategy::Damaris(o) => {
                if o.scheduled && o.compression.is_some() {
                    "damaris+sched+comp"
                } else if o.scheduled {
                    "damaris+sched"
                } else if o.compression.is_some() {
                    "damaris+comp"
                } else {
                    "damaris"
                }
            }
        }
    }

    /// Compute cores per node under this strategy.
    pub fn compute_cores(&self, cores_per_node: usize) -> usize {
        match self {
            Strategy::Damaris(o) => cores_per_node - o.dedicated_per_node,
            _ => cores_per_node,
        }
    }
}

/// What one simulated write phase produced.
#[derive(Debug, Clone)]
pub struct PhaseOutcome {
    /// Per-process write time *as seen by the simulation* (time the process
    /// spends inside the I/O phase before returning to compute).
    pub client_write_times: Vec<f64>,
    /// Barrier-to-barrier duration of the phase for the application.
    pub phase_duration: f64,
    /// Per-node dedicated-core write durations (Damaris only).
    pub dedicated_write_times: Vec<f64>,
    /// Time from phase start until the last byte reached the file system.
    pub io_makespan: f64,
    /// Bytes that reached the file system (after any compression).
    pub bytes_to_fs: u64,
    /// Logical bytes the application produced.
    pub bytes_logical: u64,
}

/// Shared simulation state for one I/O phase.
pub(crate) struct IoSim<'a> {
    pub platform: &'a PlatformSpec,
    pub workload: &'a WorkloadSpec,
    pub ncores: usize,
    pub nodes: usize,
    pub nics: Vec<Nic>,
    pub mds: ServerPool,
    pub data: Vec<DataServer>,
    pub rng: SimRng,
}

impl<'a> IoSim<'a> {
    pub fn new(
        platform: &'a PlatformSpec,
        workload: &'a WorkloadSpec,
        ncores: usize,
        seed: u64,
    ) -> Self {
        let nodes = platform.nodes_for(ncores);
        let fs = &platform.fs;
        let mut rng = SimRng::new(seed, 0xD10);
        // This phase's cross-application background load (slowly-varying
        // contention from other jobs sharing the file system).
        let load = platform.interference.phase_factor(&mut rng);
        IoSim {
            platform,
            workload,
            ncores,
            nodes,
            nics: (0..nodes)
                .map(|_| Nic::new(platform.nic_bandwidth, platform.nic_latency))
                .collect(),
            mds: ServerPool::new(fs.metadata_servers),
            data: (0..fs.data_servers)
                .map(|_| {
                    DataServer::new(
                        fs.server_bandwidth / load,
                        fs.request_latency,
                        fs.stream_switch_cost * load,
                        fs.cache_bytes,
                        fs.context_streams,
                    )
                })
                .collect(),
            rng,
        }
    }

    /// Small post-barrier arrival skew for process `p`.
    pub fn arrival_skew(&mut self) -> f64 {
        self.rng.unit() * 5.0e-3
    }

    /// Interference extra for one data-server request.
    pub fn interference(&mut self) -> f64 {
        self.platform.interference.sample(&mut self.rng)
    }

    /// Splits a write of `bytes` of `file_id` starting at `offset` into
    /// per-server byte totals (one request per server per chunk).
    pub fn server_bytes(&self, file_id: u64, offset: u64, bytes: u64) -> Vec<(usize, u64)> {
        let mut per_server: std::collections::BTreeMap<usize, u64> = Default::default();
        for slice in crate::striping::stripes_for(&self.platform.fs, file_id, offset, bytes) {
            *per_server.entry(slice.server).or_default() += slice.bytes;
        }
        per_server.into_iter().collect()
    }

    /// Latest completion time across all data servers.
    pub fn data_last_free(&self) -> f64 {
        self.data.iter().map(|d| d.free_at()).fold(0.0, f64::max)
    }
}

/// Runs one write phase under `strategy`.
pub fn run_phase(
    platform: &PlatformSpec,
    workload: &WorkloadSpec,
    strategy: &Strategy,
    ncores: usize,
    seed: u64,
) -> PhaseOutcome {
    let mut sim = IoSim::new(platform, workload, ncores, seed);
    match strategy {
        Strategy::FilePerProcess => fpp::run(&mut sim),
        Strategy::CollectiveIo => collective::run(&mut sim),
        Strategy::Damaris(opts) => damaris::run(&mut sim, opts),
    }
}

/// Client-side compression cost (used by FPP on BluePrint): returns
/// (cpu_seconds, bytes_after).
pub(crate) fn apply_compression(model: &CompressionModel, bytes: u64, noise: f64) -> (f64, u64) {
    let cpu = bytes as f64 / model.rate * noise;
    let out = (bytes as f64 / model.ratio) as u64;
    (cpu, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform;
    use crate::workload::WorkloadSpec;

    #[test]
    fn labels() {
        assert_eq!(Strategy::FilePerProcess.label(), "file-per-process");
        assert_eq!(Strategy::damaris().label(), "damaris");
        let o = DamarisOptions {
            scheduled: true,
            ..Default::default()
        };
        assert_eq!(Strategy::Damaris(o).label(), "damaris+sched");
    }

    #[test]
    fn compute_cores_account_for_dedication() {
        assert_eq!(Strategy::FilePerProcess.compute_cores(12), 12);
        assert_eq!(Strategy::damaris().compute_cores(12), 11);
    }

    #[test]
    fn deterministic_under_seed() {
        let p = platform::kraken();
        let w = WorkloadSpec::cm1_kraken();
        let a = run_phase(&p, &w, &Strategy::FilePerProcess, 576, 7);
        let b = run_phase(&p, &w, &Strategy::FilePerProcess, 576, 7);
        assert_eq!(a.phase_duration, b.phase_duration);
        assert_eq!(a.client_write_times, b.client_write_times);
        let c = run_phase(&p, &w, &Strategy::FilePerProcess, 576, 8);
        assert_ne!(a.phase_duration, c.phase_duration);
    }

    #[test]
    fn all_strategies_move_all_bytes() {
        let p = platform::kraken();
        let w = WorkloadSpec::cm1_kraken();
        let expected = w.total_bytes(576);
        for s in [
            Strategy::FilePerProcess,
            Strategy::CollectiveIo,
            Strategy::damaris(),
        ] {
            let out = run_phase(&p, &w, &s, 576, 3);
            assert_eq!(out.bytes_logical, expected, "{}", s.label());
            assert!(out.bytes_to_fs > 0);
            assert!(out.io_makespan > 0.0);
            assert!(out.phase_duration > 0.0);
        }
    }
}
