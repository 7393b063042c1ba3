//! FCFS queueing resources: NICs, metadata servers, data servers.
//!
//! Each resource tracks when it becomes free; serving a request that
//! arrives at `arrival` starts at `max(arrival, free_at)` and occupies the
//! resource for the service time. Arrivals must be fed in nondecreasing
//! order, which the event loop guarantees by processing hops in time order.

use crate::engine::SimTime;

/// A single FCFS server.
#[derive(Debug, Clone, Default)]
pub struct FcfsServer {
    free_at: SimTime,
    busy_time: f64,
    requests: u64,
}

impl FcfsServer {
    /// New idle server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serves a request; returns its completion time.
    pub fn serve(&mut self, arrival: SimTime, service: f64) -> SimTime {
        debug_assert!(service >= 0.0, "negative service time");
        let start = self.free_at.max(arrival);
        self.free_at = start + service;
        self.busy_time += service;
        self.requests += 1;
        self.free_at
    }

    /// When the server next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total busy time accumulated.
    pub fn busy_time(&self) -> f64 {
        self.busy_time
    }

    /// Requests served.
    pub fn requests(&self) -> u64 {
        self.requests
    }
}

/// A pool of identical FCFS servers; each request goes to the
/// earliest-free one (central queue, like an MDS pool).
#[derive(Debug, Clone)]
pub struct ServerPool {
    servers: Vec<FcfsServer>,
}

impl ServerPool {
    /// `n` idle servers (at least 1).
    pub fn new(n: usize) -> Self {
        ServerPool {
            servers: vec![FcfsServer::new(); n.max(1)],
        }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Always false (pools have ≥1 server).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Serves on the earliest-free server; returns completion time.
    pub fn serve_any(&mut self, arrival: SimTime, service: f64) -> SimTime {
        let idx = self
            .servers
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.free_at().total_cmp(&b.free_at()))
            .map(|(i, _)| i)
            .expect("pool non-empty");
        self.servers[idx].serve(arrival, service)
    }

    /// Serves on a specific server (e.g. the stripe-selected data server).
    pub fn serve_on(&mut self, server: usize, arrival: SimTime, service: f64) -> SimTime {
        self.servers[server].serve(arrival, service)
    }
}

/// A data server with a per-file write-back cache and stream-context
/// tracking.
///
/// * **Cache**: the first files a server sees get a cache quota; their
///   writes are absorbed at memory speed *without entering the disk
///   queue*. This is the mechanism behind the paper's observation that
///   some processes "exploit a large fraction of the available bandwidth
///   and quickly terminate their I/O, then remain idle … waiting for
///   slower processes" (§I).
/// * **Stream contexts**: the server keeps `context_streams` file contexts
///   hot (LRU); a disk request for a file outside that set pays
///   `switch_cost` (seek + cache refill). Thousands of interleaved small
///   files (FPP) miss constantly; a handful of large sequential node
///   files (Damaris) never miss.
#[derive(Debug, Clone)]
pub struct DataServer {
    server: FcfsServer,
    /// Fixed per-request overhead (network/RPC).
    pub request_latency: f64,
    /// Bytes per second of sequential streaming.
    pub bandwidth: f64,
    /// Extra cost when the served file is outside the hot context set.
    pub switch_cost: f64,
    /// LRU capacity of hot stream contexts.
    pub context_streams: usize,
    cache_remaining: u64,
    /// Per-file cache quota granted at first touch.
    file_quota: u64,
    /// Remaining quota per cached file.
    cached_files: std::collections::HashMap<u64, u64>,
    recent: std::collections::VecDeque<u64>,
    switches: u64,
}

/// Fraction of the cache one file may claim (16 files fill the cache).
const CACHE_FILES: u64 = 16;

impl DataServer {
    /// New idle data server.
    pub fn new(
        bandwidth: f64,
        request_latency: f64,
        switch_cost: f64,
        cache_bytes: u64,
        context_streams: usize,
    ) -> Self {
        DataServer {
            server: FcfsServer::new(),
            request_latency,
            bandwidth,
            switch_cost,
            context_streams: context_streams.max(1),
            cache_remaining: cache_bytes,
            file_quota: cache_bytes / CACHE_FILES,
            cached_files: std::collections::HashMap::new(),
            recent: std::collections::VecDeque::new(),
            switches: 0,
        }
    }

    /// Serves a write of `bytes` belonging to `file_id`, plus `extra` time
    /// (lock or interference); returns completion.
    pub fn serve_write(
        &mut self,
        arrival: SimTime,
        file_id: u64,
        bytes: u64,
        extra: f64,
    ) -> SimTime {
        // First touch: grant the file a cache quota if any cache is left.
        let quota = match self.cached_files.get_mut(&file_id) {
            Some(q) => q,
            None => {
                let grant = self.file_quota.min(self.cache_remaining);
                self.cache_remaining -= grant;
                self.cached_files.entry(file_id).or_insert(grant)
            }
        };
        let absorbed = bytes.min(*quota);
        *quota -= absorbed;
        let disk_bytes = bytes - absorbed;
        if disk_bytes == 0 {
            // Fully absorbed: a memory operation — bypasses the disk queue.
            return arrival + self.request_latency;
        }
        let mut service = self.request_latency + disk_bytes as f64 / self.bandwidth + extra;
        if let Some(pos) = self.recent.iter().position(|&f| f == file_id) {
            self.recent.remove(pos);
        } else {
            service += self.switch_cost;
            self.switches += 1;
        }
        self.recent.push_front(file_id);
        self.recent.truncate(self.context_streams);
        self.server.serve(arrival, service)
    }

    /// When this server next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.server.free_at()
    }

    /// Total busy time.
    pub fn busy_time(&self) -> f64 {
        self.server.busy_time()
    }

    /// Stream switches observed.
    pub fn switches(&self) -> u64 {
        self.switches
    }
}

/// A shared link (node NIC) modeled as an FCFS byte server with per-message
/// latency — all cores of a node contend here first (§II-B).
#[derive(Debug, Clone)]
pub struct Nic {
    server: FcfsServer,
    /// Link bandwidth (bytes/s).
    pub bandwidth: f64,
    /// Per-message latency (s).
    pub latency: f64,
}

impl Nic {
    /// New idle NIC.
    pub fn new(bandwidth: f64, latency: f64) -> Self {
        Nic {
            server: FcfsServer::new(),
            bandwidth,
            latency,
        }
    }

    /// Sends `bytes`; returns completion time.
    pub fn send(&mut self, arrival: SimTime, bytes: u64) -> SimTime {
        self.server
            .serve(arrival, self.latency + bytes as f64 / self.bandwidth)
    }

    /// Total busy time.
    pub fn busy_time(&self) -> f64 {
        self.server.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_serializes() {
        let mut s = FcfsServer::new();
        assert_eq!(s.serve(0.0, 1.0), 1.0);
        assert_eq!(s.serve(0.0, 1.0), 2.0); // queued behind the first
        assert_eq!(s.serve(5.0, 1.0), 6.0); // idle gap
        assert_eq!(s.requests(), 3);
        assert!((s.busy_time() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pool_balances() {
        let mut p = ServerPool::new(2);
        assert_eq!(p.serve_any(0.0, 1.0), 1.0);
        assert_eq!(p.serve_any(0.0, 1.0), 1.0); // second server
        assert_eq!(p.serve_any(0.0, 1.0), 2.0); // back to first
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn data_server_charges_switches() {
        let mut d = DataServer::new(100.0, 0.0, 1.0, 0, 1);
        // Same file twice: one switch.
        let t1 = d.serve_write(0.0, 1, 100, 0.0);
        assert!((t1 - 2.0).abs() < 1e-12); // 1.0 switch + 1.0 transfer
        let t2 = d.serve_write(0.0, 1, 100, 0.0);
        assert!((t2 - 3.0).abs() < 1e-12); // no switch
                                           // Different file: switch again.
        let t3 = d.serve_write(0.0, 2, 100, 0.0);
        assert!((t3 - 5.0).abs() < 1e-12);
        assert_eq!(d.switches(), 2);
    }

    #[test]
    fn interleaved_files_thrash_beyond_context_capacity() {
        // More interleaved streams than contexts → a switch on every
        // request; few streams → switches only at first touch. This
        // asymmetry drives the FPP/Damaris gap.
        let mut thrash = DataServer::new(1e6, 0.0, 0.010, 0, 4);
        let mut stream = DataServer::new(1e6, 0.0, 0.010, 0, 4);
        for i in 0..100u64 {
            thrash.serve_write(0.0, i % 8, 1000, 0.0); // 8 streams, 4 contexts
            stream.serve_write(0.0, i % 3, 1000, 0.0); // 3 streams fit
        }
        assert_eq!(stream.switches(), 3);
        assert_eq!(thrash.switches(), 100);
        assert!(thrash.free_at() > 2.0 * stream.free_at());
    }

    #[test]
    fn cached_file_bypasses_disk_queue() {
        let mut d = DataServer::new(100.0, 0.001, 1.0, 1600, 4);
        // File 1 gets a 100-byte quota (1600/16). While cached, its writes
        // complete at arrival+latency even if the disk is busy.
        let slow = d.serve_write(0.0, 99, 1000, 0.0); // uncached: occupies disk
        assert!(slow > 10.0);
        let fast = d.serve_write(0.5, 1, 100, 0.0);
        assert!((fast - 0.501).abs() < 1e-12, "{fast}");
        // Quota exhausted: file 1 now queues behind the slow write.
        let queued = d.serve_write(0.6, 1, 100, 0.0);
        assert!(queued > slow, "{queued} vs {slow}");
    }

    #[test]
    fn cache_quota_is_per_file_first_come() {
        let mut d = DataServer::new(100.0, 0.0, 0.0, 160, 16); // quota 10/file
                                                               // 16 files exhaust the cache; the 17th gets nothing.
        for f in 0..16u64 {
            let t = d.serve_write(0.0, f, 10, 0.0);
            assert_eq!(t, 0.0, "file {f} should be absorbed");
        }
        let t = d.serve_write(0.0, 100, 10, 0.0);
        assert!(t > 0.05, "uncached file must hit the disk: {t}");
    }

    #[test]
    fn nic_contention() {
        let mut nic = Nic::new(1e9, 1e-6);
        // 12 cores sending 1 MB each share the link serially.
        let mut last = 0.0;
        for _ in 0..12 {
            last = nic.send(0.0, 1 << 20);
        }
        assert!(last > 12.0 * (1 << 20) as f64 / 1e9);
    }
}
