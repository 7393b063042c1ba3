//! The simulated CM1 workload: per-core subdomains, output volume, output
//! cadence (paper §IV-A/§IV-B).

/// Cost model of client-side (or server-side) compression: achieved ratio
/// and processing rate. Values for the real codecs are measured by
//  `damaris-bench` and fed in here when a figure needs them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionModel {
    /// original/compressed (1.87 = the paper's gzip ratio on CM1 data).
    pub ratio: f64,
    /// Compression throughput, input bytes/s.
    pub rate: f64,
}

/// The simulated CM1 configuration.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Per-core subdomain (x, y, z) with the *standard* approach.
    pub points_per_core: (u64, u64, u64),
    /// Per-core subdomain when one core per node is dedicated; sized so the
    /// per-node total matches the standard run (paper §IV-B).
    pub points_per_core_dedicated: (u64, u64, u64),
    /// Output bytes per grid point per write phase (all enabled variables).
    pub bytes_per_point: f64,
    /// Iterations between write phases.
    pub iterations_per_write: u32,
    /// Client-side compression before writing (the BluePrint FPP runs
    /// enable HDF5 gzip; §IV-B).
    pub client_compression: Option<CompressionModel>,
}

impl WorkloadSpec {
    /// Kraken configuration: 44×44×200 per core (48×44×200 with a
    /// dedicated core), ~16 f32 variables ≈ 64 B/point.
    pub fn cm1_kraken() -> Self {
        WorkloadSpec {
            points_per_core: (44, 44, 200),
            points_per_core_dedicated: (48, 44, 200),
            bytes_per_point: 64.0,
            iterations_per_write: 50,
            client_compression: None,
        }
    }

    /// Grid'5000 configuration: 1104×1120×200 total over 672 cores →
    /// 46×40×200 per core, 15.8 GB per write phase → ~64 B/point.
    pub fn cm1_grid5000() -> Self {
        WorkloadSpec {
            points_per_core: (46, 40, 200),
            points_per_core_dedicated: (48, 40, 200),
            bytes_per_point: 64.0,
            iterations_per_write: 20,
            client_compression: None,
        }
    }

    /// BluePrint configuration: 960×960×300 over 1024 cores → 30×30×300
    /// per core; output size varied by enabling/disabling variables
    /// (`bytes_per_point`), HDF5 compression enabled on FPP runs.
    pub fn cm1_blueprint(bytes_per_point: f64) -> Self {
        WorkloadSpec {
            points_per_core: (30, 30, 300),
            points_per_core_dedicated: (24, 40, 300),
            bytes_per_point,
            iterations_per_write: 50,
            client_compression: Some(CompressionModel {
                ratio: 1.87,
                rate: 120.0e6,
            }),
        }
    }

    /// Grid points per core (standard decomposition).
    pub fn points_per_core_n(&self) -> u64 {
        let (x, y, z) = self.points_per_core;
        x * y * z
    }

    /// Grid points per core (dedicated-core decomposition).
    pub fn points_per_core_dedicated_n(&self) -> u64 {
        let (x, y, z) = self.points_per_core_dedicated;
        x * y * z
    }

    /// Output bytes per core per write phase (standard decomposition).
    pub fn bytes_per_core(&self) -> u64 {
        (self.points_per_core_n() as f64 * self.bytes_per_point) as u64
    }

    /// Grid points per client core when `dedicated` of the node's
    /// `cores_per_node` cores are dedicated: the per-node total is
    /// preserved (§IV-B "making the total problem size equivalent").
    pub fn points_per_client(&self, cores_per_node: usize, dedicated: usize) -> u64 {
        assert!(dedicated < cores_per_node);
        let node_total = self.points_per_core_n() * cores_per_node as u64;
        node_total.div_ceil((cores_per_node - dedicated) as u64)
    }

    /// Output bytes per client core for an arbitrary dedication count.
    pub fn bytes_per_client(&self, cores_per_node: usize, dedicated: usize) -> u64 {
        (self.points_per_client(cores_per_node, dedicated) as f64 * self.bytes_per_point) as u64
    }

    /// Total output bytes for a run on `ncores` cores (standard).
    pub fn total_bytes(&self, ncores: usize) -> u64 {
        self.bytes_per_core() * ncores as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kraken_subdomain_totals_match() {
        let w = WorkloadSpec::cm1_kraken();
        // Per-node totals: 12×(44×44×200) == 11×(48×44×200).
        assert_eq!(
            12 * w.points_per_core_n(),
            11 * w.points_per_core_dedicated_n()
        );
    }

    #[test]
    fn grid5000_volume_matches_paper() {
        let w = WorkloadSpec::cm1_grid5000();
        // 672 cores → ~15.8 GB per phase, ~24 MB per process (§IV-C1).
        let total = w.total_bytes(672) as f64 / 1e9;
        assert!((total - 15.8).abs() < 0.5, "total {total} GB");
        let per_proc = w.bytes_per_core() as f64 / 1e6;
        assert!((per_proc - 23.6).abs() < 1.5, "{per_proc} MB/proc");
    }

    #[test]
    fn blueprint_variable_output() {
        let small = WorkloadSpec::cm1_blueprint(16.0);
        let large = WorkloadSpec::cm1_blueprint(64.0);
        assert_eq!(large.total_bytes(1024), 4 * small.total_bytes(1024));
        assert!(small.client_compression.is_some());
    }
}
