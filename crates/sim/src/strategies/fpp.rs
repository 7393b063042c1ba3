//! File-per-process strategy (paper §II-B-a).
//!
//! Every process: (1) creates its own file — an operation serialized on the
//! metadata server(s), the Lustre single-MDS storm; (2) streams its
//! subdomain in I/O-request-sized chunks through its node's NIC to the
//! striped data servers. Thousands of files interleaving at each server pay
//! the stream-switch cost on almost every request.

use super::{apply_compression, IoSim, PhaseOutcome};
use crate::engine::EventQueue;

/// HDF5-style file-per-process output writes one variable at a time; a
/// request is therefore one variable's subdomain (≈1.5 MB f32 on Kraken).
fn request_bytes(sim: &IoSim<'_>) -> u64 {
    (sim.workload.points_per_core_n() * 4).max(64 << 10)
}

enum Hop {
    /// Process wants to create its file (arrival time = event time).
    Create(usize),
    /// Process is ready to push its next chunk into the NIC.
    ChunkStart(usize),
    /// A chunk has traversed the NIC and arrives at the data servers.
    ChunkAtServers(usize, u64),
}

struct Writer {
    node: usize,
    file_id: u64,
    bytes_left: u64,
    offset: u64,
    done_at: f64,
}

pub(super) fn run(sim: &mut IoSim<'_>) -> PhaseOutcome {
    let procs = sim.ncores;
    let cores_per_node = sim.platform.cores_per_node;
    let bytes_per_proc_logical = sim.workload.bytes_per_core();
    let md_time = sim.platform.fs.metadata_op_time;

    let mut writers: Vec<Writer> = (0..procs)
        .map(|p| Writer {
            node: p / cores_per_node,
            file_id: p as u64,
            bytes_left: 0, // set below (after compression decision)
            offset: 0,
            done_at: 0.0,
        })
        .collect();

    let mut queue: EventQueue<Hop> = EventQueue::new();
    let mut compression_cpu = vec![0.0f64; procs];
    for p in 0..procs {
        // Client-side compression (BluePrint FPP runs) costs CPU before any
        // I/O and shrinks the payload; its jitter is *visible* to the
        // simulation, unlike Damaris' hidden server-side compression.
        let (cpu, bytes) = match &sim.workload.client_compression {
            Some(model) => {
                let noise = 0.7 + 0.6 * sim.rng.unit();
                apply_compression(model, bytes_per_proc_logical, noise)
            }
            None => (0.0, bytes_per_proc_logical),
        };
        compression_cpu[p] = cpu;
        writers[p].bytes_left = bytes;
        let arrival = sim.arrival_skew() + cpu;
        queue.schedule(arrival, Hop::Create(p));
    }

    let req_bytes = request_bytes(sim);
    let mut bytes_to_fs = 0u64;
    while let Some((t, hop)) = queue.pop() {
        match hop {
            Hop::Create(p) => {
                let server = sim.platform.fs.metadata_server_for(writers[p].file_id);
                let done = sim.mds.serve_on(server, t, md_time);
                queue.schedule(done, Hop::ChunkStart(p));
            }
            Hop::ChunkStart(p) => {
                let w = &mut writers[p];
                if w.bytes_left == 0 {
                    w.done_at = t;
                    continue;
                }
                let chunk = w.bytes_left.min(req_bytes);
                w.bytes_left -= chunk;
                let nic_done = sim.nics[w.node].send(t, chunk);
                queue.schedule(nic_done, Hop::ChunkAtServers(p, chunk));
            }
            Hop::ChunkAtServers(p, chunk) => {
                let (file_id, offset) = (writers[p].file_id, writers[p].offset);
                let mut last = t;
                for (server, bytes) in sim.server_bytes(file_id, offset, chunk) {
                    let extra = sim.interference();
                    let done = sim.data[server].serve_write(t, file_id, bytes, extra);
                    last = last.max(done);
                }
                writers[p].offset += chunk;
                bytes_to_fs += chunk;
                queue.schedule(last, Hop::ChunkStart(p));
            }
        }
    }

    let client_write_times: Vec<f64> = writers
        .iter()
        .zip(&compression_cpu)
        .map(|(w, _cpu)| w.done_at)
        .collect();
    let phase_duration = client_write_times.iter().fold(0.0f64, |a, &b| a.max(b));
    let io_makespan = sim.data_last_free().max(phase_duration);

    PhaseOutcome {
        client_write_times,
        phase_duration,
        dedicated_write_times: Vec::new(),
        io_makespan,
        bytes_to_fs,
        bytes_logical: bytes_per_proc_logical * procs as u64,
    }
}

#[cfg(test)]
mod tests {
    use crate::platform;
    use crate::strategies::{run_phase, Strategy};
    use crate::workload::WorkloadSpec;

    #[test]
    fn scale_hurts_fpp_on_lustre() {
        // More processes → more creates on the single MDS and more
        // interleaved streams per server → the mean write time grows
        // even though per-process data volume is constant (weak scaling).
        let p = platform::kraken();
        let w = WorkloadSpec::cm1_kraken();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let small = run_phase(&p, &w, &Strategy::FilePerProcess, 576, 1);
        let large = run_phase(&p, &w, &Strategy::FilePerProcess, 2304, 1);
        assert!(
            mean(&large.client_write_times) > 1.5 * mean(&small.client_write_times),
            "small {:.1}s, large {:.1}s",
            mean(&small.client_write_times),
            mean(&large.client_write_times)
        );
    }

    #[test]
    fn write_times_are_variable() {
        // The paper: "fastest processes terminate in <1 s, slowest >25 s"
        // (G5K). Assert substantial spread, not exact values.
        let p = platform::grid5000_parapluie();
        let w = WorkloadSpec::cm1_grid5000();
        let out = run_phase(&p, &w, &Strategy::FilePerProcess, 672, 5);
        let min = out
            .client_write_times
            .iter()
            .cloned()
            .fold(f64::MAX, f64::min);
        let max = out
            .client_write_times
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        assert!(max > 4.0 * min, "min {min:.2} max {max:.2}: no jitter?");
    }

    #[test]
    fn compression_shrinks_fs_bytes() {
        let p = platform::blueprint();
        let w = WorkloadSpec::cm1_blueprint(64.0);
        let out = run_phase(&p, &w, &Strategy::FilePerProcess, 1024, 2);
        assert!(out.bytes_to_fs < out.bytes_logical);
        let ratio = out.bytes_logical as f64 / out.bytes_to_fs as f64;
        assert!((ratio - 1.87).abs() < 0.05, "ratio {ratio}");
    }
}
