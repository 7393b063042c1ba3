//! Parameterized parallel-file-system model.
//!
//! The model captures the *structure* that produces the paper's contention
//! effects, not any vendor's implementation details:
//!
//! * how many metadata servers absorb creates/opens, and how long one
//!   operation holds a server;
//! * how many data servers absorb writes, at what per-server bandwidth and
//!   per-request latency;
//! * how files are striped over data servers;
//! * what locking discipline shared-file writes must follow.
//!
//! Calibration targets the *ratios* observed in the paper (who wins, by
//! roughly what factor), not absolute hardware numbers; see
//! `EXPERIMENTS.md`.

/// Locking discipline applied to writes into a *shared* file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LockMode {
    /// No client-visible locking (PVFS: "no client locking").
    None,
    /// Extent locks per (file, server) object, as in Lustre OSTs: two
    /// writers touching stripes on the same OST serialize for the lock.
    ExtentPerServer {
        /// Time to acquire/release one extent lock when uncontended (s).
        acquire: f64,
    },
    /// Centralized byte-range token manager, as in GPFS: first acquisition
    /// is cheap, stealing a range token from another writer costs more.
    TokenManager {
        /// Uncontended token acquisition (s).
        acquire: f64,
        /// Cost of revoking/stealing a token held by another writer (s).
        steal: f64,
    },
}

/// A parallel file system's structural and cost parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FsSpec {
    /// Human-readable name ("lustre", "pvfs", "gpfs").
    pub name: &'static str,
    /// Number of metadata servers (Lustre: 1).
    pub metadata_servers: usize,
    /// Number of data servers (OSTs / I/O servers / NSDs).
    pub data_servers: usize,
    /// Sustained write bandwidth of one data server (bytes/s).
    pub server_bandwidth: f64,
    /// Service time of one metadata operation (create/open) on one
    /// metadata server (s).
    pub metadata_op_time: f64,
    /// Fixed per-request overhead at a data server (s).
    pub request_latency: f64,
    /// Stripe size in bytes for striped files.
    pub stripe_size: u64,
    /// Number of data servers a single file is striped across.
    pub stripe_count: usize,
    /// Locking discipline for shared files.
    pub lock: LockMode,
    /// Extra service time when a data server switches between streams
    /// (files/regions): disk seek plus cache refill. This is what makes
    /// thousands of interleaved small files slow while a few large
    /// sequential streams stay fast.
    pub stream_switch_cost: f64,
    /// Per-server write-back cache: the first bytes of a burst are
    /// absorbed at memory speed, which is why a few lucky processes
    /// finish their I/O almost instantly while the rest queue (§II-A).
    pub cache_bytes: u64,
    /// Number of stream contexts a server keeps hot (LRU): requests from
    /// that many concurrently-active files avoid the switch cost.
    pub context_streams: usize,
}

impl FsSpec {
    /// Lustre-like: single MDS, many OSTs, extent locks. Parameters shaped
    /// after Kraken's Lustre scratch (the paper notes a 1 MB default stripe
    /// size, which it contrasts with a pathological 32 MB setting).
    pub fn lustre(data_servers: usize) -> Self {
        FsSpec {
            name: "lustre",
            metadata_servers: 1,
            data_servers,
            server_bandwidth: 150.0e6,
            metadata_op_time: 1.0e-3,
            request_latency: 0.5e-3,
            stripe_size: 1 << 20,
            stripe_count: 4,
            lock: LockMode::ExtentPerServer { acquire: 0.4e-3 },
            stream_switch_cost: 18.0e-3,
            cache_bytes: 512 << 20,
            context_streams: 6,
        }
    }

    /// PVFS-like: metadata distributed over the same servers as data, no
    /// client locking. The paper's Grid'5000 deployment used 15 nodes as
    /// combined I/O and metadata servers.
    pub fn pvfs(data_servers: usize) -> Self {
        FsSpec {
            name: "pvfs",
            metadata_servers: data_servers,
            data_servers,
            server_bandwidth: 420.0e6,
            metadata_op_time: 0.6e-3,
            request_latency: 0.4e-3,
            stripe_size: 64 << 10,
            stripe_count: data_servers.min(8),
            lock: LockMode::None,
            stream_switch_cost: 2.0e-3,
            cache_bytes: 256 << 20,
            context_streams: 16,
        }
    }

    /// GPFS-like: few NSD servers, distributed token manager. BluePrint ran
    /// GPFS on 2 separate nodes.
    pub fn gpfs(data_servers: usize) -> Self {
        FsSpec {
            name: "gpfs",
            metadata_servers: data_servers.max(1),
            data_servers,
            server_bandwidth: 500.0e6,
            metadata_op_time: 0.8e-3,
            request_latency: 0.6e-3,
            stripe_size: 256 << 10,
            stripe_count: data_servers.max(1),
            lock: LockMode::TokenManager {
                acquire: 0.3e-3,
                steal: 5.0e-3,
            },
            stream_switch_cost: 2.0e-3,
            cache_bytes: 1 << 30,
            context_streams: 4,
        }
    }

    /// Overrides the stripe size (the paper's 1 MB → 32 MB Lustre
    /// misconfiguration experiment).
    pub fn with_stripe_size(mut self, bytes: u64) -> Self {
        self.stripe_size = bytes;
        self
    }

    /// Overrides the stripe count.
    pub fn with_stripe_count(mut self, count: usize) -> Self {
        self.stripe_count = count;
        self
    }

    /// Aggregate peak bandwidth across all data servers (bytes/s) — the
    /// hard ceiling any I/O strategy can achieve.
    pub fn peak_bandwidth(&self) -> f64 {
        self.server_bandwidth * self.data_servers as f64
    }

    /// Which metadata server handles operations on `file_id`.
    pub fn metadata_server_for(&self, file_id: u64) -> usize {
        (mix(file_id) % self.metadata_servers as u64) as usize
    }

    /// First data server of `file_id`'s stripe set.
    pub fn first_server_for(&self, file_id: u64) -> usize {
        (mix(file_id.wrapping_add(0x9E37)) % self.data_servers as u64) as usize
    }

    /// Lock-acquisition cost for a writer touching `conflicting_holders`
    /// ranges currently held by other writers (0 = uncontended).
    pub fn lock_cost(&self, conflicting_holders: usize) -> f64 {
        match self.lock {
            LockMode::None => 0.0,
            LockMode::ExtentPerServer { acquire } => acquire * (1 + conflicting_holders) as f64,
            LockMode::TokenManager { acquire, steal } => {
                acquire + steal * conflicting_holders as f64
            }
        }
    }
}

/// 64-bit finalizer (splitmix64 tail) for deterministic server selection.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lustre_has_single_mds() {
        let fs = FsSpec::lustre(336);
        assert_eq!(fs.metadata_servers, 1);
        assert_eq!(fs.metadata_server_for(7), 0);
        assert_eq!(fs.metadata_server_for(123456), 0);
    }

    #[test]
    fn pvfs_distributes_metadata() {
        let fs = FsSpec::pvfs(15);
        assert_eq!(fs.metadata_servers, 15);
        let servers: std::collections::HashSet<_> =
            (0..500u64).map(|f| fs.metadata_server_for(f)).collect();
        assert!(servers.len() > 10, "metadata should spread: {servers:?}");
    }

    #[test]
    fn peak_bandwidth_scales_with_servers() {
        let fs = FsSpec::lustre(100);
        assert!((fs.peak_bandwidth() - 100.0 * fs.server_bandwidth).abs() < 1.0);
    }

    #[test]
    fn first_server_spreads_files() {
        let fs = FsSpec::lustre(336);
        let servers: std::collections::HashSet<_> =
            (0..2000u64).map(|f| fs.first_server_for(f)).collect();
        assert!(servers.len() > 300, "files should spread over OSTs");
    }

    #[test]
    fn lock_costs() {
        let lustre = FsSpec::lustre(4);
        assert!(lustre.lock_cost(0) > 0.0);
        assert!(lustre.lock_cost(3) > lustre.lock_cost(0));
        let pvfs = FsSpec::pvfs(4);
        assert_eq!(pvfs.lock_cost(10), 0.0);
        let gpfs = FsSpec::gpfs(2);
        assert!(gpfs.lock_cost(1) > gpfs.lock_cost(0) + 4.0e-3);
    }

    #[test]
    fn stripe_size_override() {
        let fs = FsSpec::lustre(4).with_stripe_size(32 << 20);
        assert_eq!(fs.stripe_size, 32 << 20);
    }

    #[test]
    fn selection_is_deterministic() {
        let fs = FsSpec::gpfs(7);
        for f in 0..100u64 {
            assert_eq!(fs.first_server_for(f), fs.first_server_for(f));
            assert_eq!(fs.metadata_server_for(f), fs.metadata_server_for(f));
        }
    }
}
