//! Calibrated platform descriptions for the paper's three testbeds.
//!
//! Calibration philosophy: the paper's *shapes* (orderings, rough factors,
//! crossovers) come from structure — single vs distributed metadata, lock
//! disciplines, NIC sharing, memory-bus saturation. The constants below are
//! chosen so the simulated baselines land in the same regimes the paper
//! reports (see EXPERIMENTS.md for paper-vs-measured); none of them encode
//! the *results*, only machine-level properties.

use crate::fs_model::FsSpec;
use crate::noise::{Interference, OsNoise};

/// One cluster: node shape, interconnect, file system, jitter environment.
#[derive(Debug, Clone)]
pub struct PlatformSpec {
    /// Platform name for reports.
    pub name: &'static str,
    /// Cores per SMP node.
    pub cores_per_node: usize,
    /// Per-core compute rate (grid points/s) below memory-bus saturation.
    pub core_points_rate: f64,
    /// Node memory-bus ceiling (grid points/s). Atmospheric codes are
    /// memory-bound, so a node saturates before all cores are busy — the
    /// physical reason one core can be dedicated for ≈free (§V-A).
    pub node_points_rate: f64,
    /// Node NIC bandwidth (bytes/s).
    pub nic_bandwidth: f64,
    /// NIC per-message latency (s).
    pub nic_latency: f64,
    /// Aggregate intra-node shared-memory copy bandwidth (bytes/s),
    /// shared by the node's concurrently-copying clients.
    pub memcpy_bandwidth: f64,
    /// The parallel file system.
    pub fs: FsSpec,
    /// OS noise on compute phases.
    pub os_noise: OsNoise,
    /// Cross-application interference on file-system servers.
    pub interference: Interference,
    /// Largest node count the experiments use (sanity checks only).
    pub max_nodes: usize,
}

impl PlatformSpec {
    /// Per-node compute throughput with `active` busy cores (points/s).
    pub fn node_rate(&self, active: usize) -> f64 {
        (active as f64 * self.core_points_rate).min(self.node_points_rate)
    }

    /// Compute time of one iteration on a node where `active` cores each
    /// handle `points_per_core` grid points.
    pub fn iteration_time(&self, active: usize, points_per_core: u64) -> f64 {
        let total = active as f64 * points_per_core as f64;
        total / self.node_rate(active)
    }

    /// Number of nodes used when running on `ncores` cores.
    pub fn nodes_for(&self, ncores: usize) -> usize {
        assert!(
            ncores.is_multiple_of(self.cores_per_node),
            "{ncores} cores is not a whole number of {}-core nodes",
            self.cores_per_node
        );
        ncores / self.cores_per_node
    }
}

/// Kraken: Cray XT5, 12-core nodes, SeaStar2+ interconnect, Lustre with a
/// single metadata server (the paper's primary scaling platform, §IV-B).
pub fn kraken() -> PlatformSpec {
    PlatformSpec {
        name: "kraken",
        cores_per_node: 12,
        // 44×44×200 points/core at ~4.2 s/iteration; the bus saturates
        // near 10.5 busy cores, so 11 or 12 active cores perform alike
        // (dedicating ONE core is free; a second starts to cost compute).
        core_points_rate: 1.06e5,
        node_points_rate: 1.11e6,
        nic_bandwidth: 2.0e9,
        nic_latency: 5.0e-6,
        memcpy_bandwidth: 1.5e9,
        fs: FsSpec::lustre(96),
        os_noise: OsNoise { sigma: 0.012 },
        interference: Interference {
            hit_probability: 0.004,
            mean_delay: 0.5,
            phase_sigma: 0.12,
        },
        max_nodes: 9408,
    }
}

/// Grid'5000 parapluie: 2×12-core AMD nodes, 20G InfiniBand, PVFS on 15
/// combined I/O+metadata servers (§IV-B).
pub fn grid5000_parapluie() -> PlatformSpec {
    PlatformSpec {
        name: "grid5000",
        cores_per_node: 24,
        // 46×40×200 points/core, 1.7 GHz AMD: ~28 s/iteration; bus
        // saturates near 22.5 cores.
        core_points_rate: 1.40e4,
        node_points_rate: 3.16e5,
        nic_bandwidth: 2.5e9,
        nic_latency: 2.0e-6,
        memcpy_bandwidth: 1.8e9,
        fs: FsSpec::pvfs(15),
        os_noise: OsNoise { sigma: 0.010 },
        interference: Interference {
            hit_probability: 0.005,
            mean_delay: 0.4,
            phase_sigma: 0.15,
        },
        max_nodes: 40,
    }
}

/// BluePrint: Power5, 16-core nodes, GPFS served by 2 nodes (§IV-B).
pub fn blueprint() -> PlatformSpec {
    PlatformSpec {
        name: "blueprint",
        cores_per_node: 16,
        // 30×30×300 points/core; bus saturates near 14.5 cores.
        core_points_rate: 2.35e4,
        node_points_rate: 3.4e5,
        nic_bandwidth: 1.5e9,
        nic_latency: 4.0e-6,
        memcpy_bandwidth: 1.2e9,
        fs: FsSpec::gpfs(2),
        os_noise: OsNoise { sigma: 0.012 },
        interference: Interference {
            hit_probability: 0.01,
            mean_delay: 0.5,
            phase_sigma: 0.2,
        },
        max_nodes: 120,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kraken_bus_saturation_makes_dedication_free() {
        let k = kraken();
        // 11 active cores with a proportionally larger subdomain take the
        // same time as 12 cores with the standard subdomain: equal node
        // totals, both above saturation.
        let std_iter = k.iteration_time(12, 387_200); // 44×44×200
        let ded_iter = k.iteration_time(11, 422_400); // 48×44×200
        let rel = (std_iter - ded_iter).abs() / std_iter;
        assert!(rel < 0.01, "std {std_iter} vs dedicated {ded_iter}");
        // And the absolute scale is the paper's ~4 s/iteration regime.
        assert!(std_iter > 3.0 && std_iter < 6.0, "{std_iter}");
    }

    #[test]
    fn below_saturation_scales_linearly() {
        let k = kraken();
        let t4 = k.iteration_time(4, 387_200);
        let t8 = k.iteration_time(8, 387_200);
        // Same per-core load → same time while unsaturated.
        assert!((t4 - t8).abs() / t4 < 1e-9);
        assert!((k.node_rate(4) - 4.0 * k.core_points_rate).abs() < 1.0);
    }

    #[test]
    fn nodes_for_checks_divisibility() {
        let k = kraken();
        assert_eq!(k.nodes_for(9216), 768);
        assert_eq!(k.nodes_for(576), 48);
    }

    #[test]
    #[should_panic(expected = "not a whole number")]
    fn nodes_for_rejects_partial_nodes() {
        kraken().nodes_for(100);
    }

    #[test]
    fn grid5000_iteration_scale() {
        let g = grid5000_parapluie();
        let iter = g.iteration_time(24, 368_000); // 46×40×200
        assert!(iter > 20.0 && iter < 40.0, "{iter}");
        // Dedicated-core variant stays within 2%.
        let ded = g.iteration_time(23, 384_000); // 48×40×200
        assert!((iter - ded).abs() / iter < 0.02, "{iter} vs {ded}");
    }

    #[test]
    fn blueprint_has_two_gpfs_servers() {
        let b = blueprint();
        assert_eq!(b.fs.data_servers, 2);
        assert_eq!(b.cores_per_node, 16);
    }
}
