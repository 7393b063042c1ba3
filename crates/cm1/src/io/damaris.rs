//! Damaris backend: the simulation's "write" is a copy into node-local
//! shared memory; the dedicated core does the real I/O asynchronously
//! (paper §III).
//!
//! Deployment helper: [`DamarisDeployment`] groups the World's ranks into
//! SMP nodes of `clients_per_node` and starts one [`NodeRuntime`] per node
//! (each runtime's server thread is that node's dedicated core). Each rank
//! then drives its own [`DamarisBackend`] exactly like any other backend.

use super::{IoBackend, IoError, WritePhase, WriteStats};
use damaris_core::{Config, DamarisClient, NodeReport, NodeRuntime};
use damaris_mpi::{ClientKillPhase, Communicator};
use std::path::Path;
use std::time::Instant;

/// Per-rank Damaris I/O: writes go to the node's dedicated core.
pub struct DamarisBackend {
    client: DamarisClient,
}

impl DamarisBackend {
    /// Wraps a client handle obtained from a [`DamarisDeployment`] (or a
    /// manually-started [`NodeRuntime`]).
    pub fn new(client: DamarisClient) -> Self {
        DamarisBackend { client }
    }

    /// Executes a scheduled client kill: leave shared memory exactly as a
    /// rank dying at that point would (leaked reservation, torn segment
    /// no notice names, or committed-but-unended iteration), then fail the
    /// write so the rank stops driving the solver. From here on the rank
    /// is silent — its lease expires and the node's dedicated core fences
    /// it.
    fn die(&mut self, kill: ClientKillPhase, phase: &WritePhase) -> Result<WriteStats, IoError> {
        match (kill, phase.variables.first()) {
            (ClientKillPhase::Alloc, Some((var, _))) => {
                self.client.die_during_alloc(var)?;
            }
            (ClientKillPhase::Memcpy, Some((var, data))) => {
                // Half the payload lands and the notice, which follows the
                // copy, is never posted. A dead process runs no
                // destructor: the region is forgotten, not dropped (a drop
                // would post an `Abandon`).
                let mut region = self.client.alloc(var, phase.iteration)?;
                let half = &data[..data.len() / 2];
                region.as_mut_f32()[..half.len()].copy_from_slice(half);
                std::mem::forget(region);
            }
            (ClientKillPhase::PostCommit, _) => {
                // Every write lands whole — the rank dies between its last
                // commit and `end_iteration`.
                for (var, data) in &phase.variables {
                    self.client.write_f32(var, phase.iteration, data)?;
                }
            }
            _ => {}
        }
        Err(IoError(format!(
            "rank {} killed at iteration {} ({kill:?} phase)",
            phase.rank, phase.iteration
        )))
    }
}

impl IoBackend for DamarisBackend {
    fn write_phase(
        &mut self,
        comm: &Communicator,
        phase: &WritePhase,
    ) -> Result<WriteStats, IoError> {
        // Chaos hook: a fault plan may schedule this rank to die inside
        // this write phase (`FaultPlan::kill_client_at`).
        if let Some(kill) = comm.client_fail_point(phase.iteration) {
            return self.die(kill, phase);
        }
        let t0 = Instant::now();
        for (var, data) in &phase.variables {
            // df_write: one memcpy into shared memory per variable.
            self.client.write_f32(var, phase.iteration, data)?;
        }
        self.client.end_iteration(phase.iteration)?;
        Ok(WriteStats {
            elapsed: t0.elapsed(),
            bytes: phase.bytes(),
        })
    }
}

/// Multi-node Damaris deployment for an in-process World: ranks
/// `[k·c, (k+1)·c)` form node `k` with `c = clients_per_node` compute
/// cores plus one dedicated core (the runtime's server thread — which is
/// exactly how the paper accounts cores: a 12-core node runs 11 clients).
pub struct DamarisDeployment {
    runtimes: Vec<NodeRuntime>,
    clients: Vec<DamarisClient>,
    clients_per_node: usize,
}

impl DamarisDeployment {
    /// Starts `nprocs / clients_per_node` node runtimes writing under
    /// `dir/node-K`. `nprocs` must divide evenly.
    pub fn start(
        nprocs: usize,
        clients_per_node: usize,
        subdomain: (usize, usize, usize),
        n_variables: usize,
        dir: impl AsRef<Path>,
    ) -> Result<Self, IoError> {
        Self::start_with_events(nprocs, clients_per_node, subdomain, n_variables, dir, "")
    }

    /// [`DamarisDeployment::start`] with extra `<event …/>` bindings in
    /// every node's configuration (for [`Self::broadcast_signal`]).
    pub fn start_with_events(
        nprocs: usize,
        clients_per_node: usize,
        subdomain: (usize, usize, usize),
        n_variables: usize,
        dir: impl AsRef<Path>,
        events_xml: &str,
    ) -> Result<Self, IoError> {
        Self::start_full(
            nprocs,
            clients_per_node,
            subdomain,
            n_variables,
            dir,
            events_xml,
            "",
        )
    }

    /// [`DamarisDeployment::start`] with a `<resilience …/>` element in
    /// every node's configuration — e.g.
    /// `on_client_failure="partial" client_lease_timeout_ms="250"` turns
    /// on the lease sweeper so a dead rank is fenced and its shared
    /// memory reclaimed instead of stalling the node forever.
    pub fn start_resilient(
        nprocs: usize,
        clients_per_node: usize,
        subdomain: (usize, usize, usize),
        n_variables: usize,
        dir: impl AsRef<Path>,
        resilience_xml: &str,
    ) -> Result<Self, IoError> {
        Self::start_full(
            nprocs,
            clients_per_node,
            subdomain,
            n_variables,
            dir,
            "",
            resilience_xml,
        )
    }

    /// The fully general constructor: event bindings and resilience policy.
    pub fn start_full(
        nprocs: usize,
        clients_per_node: usize,
        subdomain: (usize, usize, usize),
        n_variables: usize,
        dir: impl AsRef<Path>,
        events_xml: &str,
        resilience_xml: &str,
    ) -> Result<Self, IoError> {
        if !nprocs.is_multiple_of(clients_per_node) {
            return Err(IoError(format!(
                "{nprocs} ranks do not form whole nodes of {clients_per_node} clients"
            )));
        }
        let nodes = nprocs / clients_per_node;
        let (nx, ny, nz) = subdomain;
        // Buffer sized for two in-flight iterations of all clients.
        let bytes_per_iter = nx * ny * nz * 4 * n_variables * clients_per_node;
        let buffer = (bytes_per_iter * 2 + (1 << 20)).next_power_of_two();
        let xml = crate::variables::damaris_config_xml_full(
            nx,
            ny,
            nz,
            n_variables,
            buffer,
            events_xml,
            resilience_xml,
        );
        let config = Config::from_xml(&xml)?;

        let mut runtimes = Vec::with_capacity(nodes);
        let mut clients = Vec::with_capacity(nprocs);
        for node in 0..nodes {
            let mut runtime = NodeRuntime::start_with(
                config.clone(),
                clients_per_node,
                dir.as_ref(),
                node as u32,
                Vec::new(),
            )?;
            clients.extend(runtime.take_clients());
            runtimes.push(runtime);
        }
        Ok(DamarisDeployment {
            runtimes,
            clients,
            clients_per_node,
        })
    }

    /// The backend for a given rank (call once per rank).
    pub fn backend_for(&self, rank: usize) -> DamarisBackend {
        DamarisBackend::new(self.clients[rank].clone())
    }

    /// Number of nodes in the deployment.
    pub fn nodes(&self) -> usize {
        self.runtimes.len()
    }

    /// Clients per node.
    pub fn clients_per_node(&self) -> usize {
        self.clients_per_node
    }

    /// One node's runtime — tests poll its live metrics (e.g.
    /// `node.client_leases_expired`) to observe the lease sweeper without
    /// touching the dead rank's client handle.
    pub fn node_runtime(&self, node: usize) -> &NodeRuntime {
        &self.runtimes[node]
    }

    /// Broadcasts a user event to every node's dedicated core — the
    /// paper's `scope="global"` events (one `df_signal` per node suffices;
    /// the configuration binds the reaction).
    pub fn broadcast_signal(&self, event: &str, iteration: u32) -> Result<(), IoError> {
        for node in 0..self.nodes() {
            self.clients[node * self.clients_per_node].signal(event, iteration)?;
        }
        Ok(())
    }

    /// Shuts down all dedicated cores and collects their reports.
    pub fn finish(self) -> Result<Vec<NodeReport>, IoError> {
        drop(self.clients);
        self.runtimes
            .into_iter()
            .map(|r| r.finish().map_err(IoError::from))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{run_rank, Cm1Config};
    use damaris_format::SdfReader;
    use damaris_mpi::World;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("cm1-dam-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn damaris_run_produces_node_files() {
        let dir = scratch("nodes");
        let config = Cm1Config::small_test(4);
        let decomp =
            crate::decomp::Decomp2d::auto(4, config.global.0, config.global.1, config.global.2)
                .unwrap();
        let deployment = DamarisDeployment::start(
            4,
            2, // 2 nodes of 2 clients each
            decomp.local_extent(),
            config.n_variables,
            &dir,
        )
        .unwrap();
        assert_eq!(deployment.nodes(), 2);

        World::run(4, |comm| {
            let mut io = deployment.backend_for(comm.rank());
            run_rank(comm, &config, &mut io).unwrap();
        });
        let reports = deployment.finish().unwrap();
        assert_eq!(reports.len(), 2);
        for (node, report) in reports.iter().enumerate() {
            assert_eq!(report.iterations_persisted, 2, "node {node}");
            assert_eq!(report.variables_received, 2 * 2 * config.n_variables as u64);
        }

        // One file per node per write phase, holding both clients' data.
        for node in 0..2 {
            for iter in [2u32, 4] {
                let path = dir.join(format!("node-{node}/iter-{iter:06}.sdf"));
                let reader = SdfReader::open(&path).expect("node file");
                assert_eq!(reader.len(), 2 * config.n_variables);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaris_preserves_physics_and_data() {
        // The same run through FPP and Damaris: identical checksums and
        // identical persisted datasets (modulo file organization).
        let dir_fpp = scratch("cmp-fpp");
        let dir_dam = scratch("cmp-dam");
        let config = Cm1Config::small_test(2);
        let decomp =
            crate::decomp::Decomp2d::auto(2, config.global.0, config.global.1, config.global.2)
                .unwrap();

        let fpp_sums = World::run(2, |comm| {
            let mut io = super::super::FppBackend::new(&dir_fpp).unwrap();
            run_rank(comm, &config, &mut io).unwrap().theta_checksum
        });

        let deployment =
            DamarisDeployment::start(2, 2, decomp.local_extent(), config.n_variables, &dir_dam)
                .unwrap();
        let dam_sums = World::run(2, |comm| {
            let mut io = deployment.backend_for(comm.rank());
            run_rank(comm, &config, &mut io).unwrap().theta_checksum
        });
        deployment.finish().unwrap();

        assert_eq!(fpp_sums[0], dam_sums[0]);

        // Compare one dataset bit-for-bit.
        let fpp = SdfReader::open(dir_fpp.join("rank-1/iter-000004.sdf")).unwrap();
        let dam = SdfReader::open(dir_dam.join("node-0/iter-000004.sdf")).unwrap();
        assert_eq!(
            fpp.read_f32("/iter-4/rank-1/theta").unwrap(),
            dam.read_f32("/iter-4/rank-1/theta").unwrap()
        );
        std::fs::remove_dir_all(&dir_fpp).ok();
        std::fs::remove_dir_all(&dir_dam).ok();
    }

    /// The acceptance scenario for client-failure containment: a 4-client
    /// node under `on_client_failure="partial"`, with the fault plan
    /// killing rank 1 mid-`memcpy` at iteration 1, which leaves a torn
    /// segment and no notice. The dedicated core fences the dead rank
    /// within its lease window, reclaims its segments (the torn one
    /// included: no byte of it is ever read), persists the affected
    /// iterations partially with a presence bitmap the recovery scan reads
    /// back, and the three survivors complete the whole run without ever
    /// blocking on a full buffer.
    /// The world runs under `run_with_faults` and the closure does no
    /// collectives — a dead rank would break any barrier.
    #[test]
    fn rank_killed_mid_memcpy_is_contained() {
        use damaris_fs::recover_dir;
        use damaris_mpi::{ClientKillPhase, FaultPlan};
        use std::time::{Duration, Instant};

        let dir = scratch("kill");
        let deployment = DamarisDeployment::start_resilient(
            4,
            4,
            (8, 8, 4),
            1,
            &dir,
            r#"<resilience on_client_failure="partial" client_lease_timeout_ms="250"/>"#,
        )
        .unwrap();
        // Iteration- and rank-distinct payloads: a torn copy into a
        // recycled slot must not reproduce the previous bytes.
        let payload = |it: u32, rank: usize| -> Vec<f32> {
            (0..256)
                .map(|i| (it * 10_000 + rank as u32 * 1000 + i) as f32)
                .collect()
        };

        let plan = FaultPlan::new().kill_client_at(1, 1, ClientKillPhase::Memcpy);
        let iterations = 4u32;
        World::run_with_faults(4, plan, |comm| {
            let rank = comm.rank();
            let mut io = deployment.backend_for(rank);
            for it in 0..iterations {
                let phase = super::super::WritePhase {
                    iteration: it,
                    rank,
                    nprocs: 4,
                    extent: (8, 8, 4),
                    variables: vec![("theta", payload(it, rank))],
                };
                match io.write_phase(comm, &phase) {
                    Ok(_) => {}
                    // The scheduled kill: this rank goes silent for good.
                    Err(_) if rank == 1 && it == 1 => return,
                    Err(e) => panic!("survivor rank {rank} failed at iteration {it}: {e}"),
                }
            }
            // Survivors stay up (renewing, as live ranks do on every API
            // call) until the sweeper has fenced the dead rank — exiting
            // earlier would freeze their own leases too.
            let me = &deployment.clients[rank];
            let deadline = Instant::now() + Duration::from_secs(30);
            while deployment
                .node_runtime(0)
                .metrics_snapshot()
                .counter("node.client_leases_expired")
                == 0
            {
                me.renew_lease().unwrap();
                assert!(Instant::now() < deadline, "sweeper never fenced rank 1");
                std::thread::sleep(Duration::from_millis(5));
            }
        });

        // Zero leaked bytes once the node drains: the torn segment and the
        // dead rank's partition are all back in the allocator.
        let probe = deployment.clients[0].clone();
        let reports = deployment.finish().unwrap();
        assert_eq!(
            probe.buffer_in_use(),
            0,
            "shared memory leaked past the lease sweep"
        );
        let report = &reports[0];
        assert_eq!(report.client_leases_expired, 1);
        assert_eq!(report.iterations_persisted, u64::from(iterations));
        assert!(report.partial_iterations >= 3, "{report:?}");

        // Iteration 0 is complete; iterations 1.. persisted partially
        // without rank 1's data, stamped with presence bitmap 0b1101.
        let it0 = SdfReader::open(dir.join("node-0/iter-000000.sdf")).unwrap();
        assert_eq!(it0.read_f32("/iter-0/rank-1/theta").unwrap(), payload(0, 1));
        let it1 = SdfReader::open(dir.join("node-0/iter-000001.sdf")).unwrap();
        assert!(it1.read_f32("/iter-1/rank-1/theta").is_err());
        assert_eq!(it1.read_f32("/iter-1/rank-2/theta").unwrap(), payload(1, 2));

        let scan = recover_dir(&dir).unwrap();
        assert!(scan.is_clean());
        let partial: std::collections::BTreeMap<_, _> = scan.partial.into_iter().collect();
        assert!(!partial.contains_key(std::path::Path::new("node-0/iter-000000.sdf")));
        for it in 1..iterations {
            assert_eq!(
                partial.get(std::path::Path::new(&format!("node-0/iter-{it:06}.sdf"))),
                Some(&0b1101),
                "iteration {it}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn broadcast_signal_reaches_every_node() {
        let dir = scratch("bcast");
        let deployment = DamarisDeployment::start_with_events(
            4,
            2,
            (4, 4, 2),
            1,
            &dir,
            r#"<event name="snapshot" action="stats" scope="global"/>"#,
        )
        .unwrap();
        // Each client writes, then one global signal triggers the stats
        // action on both dedicated cores.
        for rank in 0..4 {
            deployment.clients[rank]
                .write_f32("theta", 0, &[rank as f32; 32])
                .unwrap();
        }
        deployment.broadcast_signal("snapshot", 0).unwrap();
        for rank in 0..4 {
            deployment.clients[rank].end_iteration(0).unwrap();
        }
        let reports = deployment.finish().unwrap();
        assert!(reports.iter().all(|r| r.user_events == 1));
        for node in 0..2 {
            let stats = SdfReader::open(dir.join(format!("node-{node}/stats-iter-000000.sdf")))
                .expect("stats file per node");
            assert_eq!(stats.len(), 2); // two clients' theta stats
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
