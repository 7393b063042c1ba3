//! The Damaris strategy (paper §III): dedicated I/O cores + shared memory.
//!
//! From the simulation's point of view, the entire I/O phase is a series of
//! copies into the node-local shared buffer — a few hundred megabytes at
//! memory bandwidth, ~0.2 s, independent of scale. The dedicated core then
//! asynchronously writes one large file per node, overlapping the next
//! compute phase. Spare-time features from §IV-D:
//!
//! * **data-transfer scheduling** — each dedicated core waits for its slot
//!   (the estimated compute window divided by the number of dedicated
//!   cores) before writing, de-clustering file-system access;
//! * **compression** — the dedicated core compresses before writing,
//!   trading CPU (hidden from the application) for bytes.

use super::{IoSim, PhaseOutcome};
use crate::engine::EventQueue;
use crate::workload::CompressionModel;

/// I/O request size for the dedicated cores' large sequential node files.
const REQUEST_BYTES: u64 = 32 << 20;

/// Damaris deployment options.
#[derive(Debug, Clone, PartialEq)]
pub struct DamarisOptions {
    /// Dedicated cores per node (the paper uses 1; §V-A discusses more).
    pub dedicated_per_node: usize,
    /// Slot-schedule the dedicated-core writes (§IV-D).
    pub scheduled: bool,
    /// Estimated compute window between write phases (s), used by the
    /// scheduler; the paper's dedicated cores estimate it from the first
    /// iteration (≈230 s on Kraken).
    pub estimated_window: f64,
    /// Compress in the dedicated core before writing (§IV-D).
    pub compression: Option<CompressionModel>,
}

impl Default for DamarisOptions {
    fn default() -> Self {
        DamarisOptions {
            dedicated_per_node: 1,
            scheduled: false,
            estimated_window: 230.0,
            compression: None,
        }
    }
}

enum Hop {
    /// Dedicated core (writer) `w` ready to push its next chunk into the NIC.
    ChunkStart(usize),
    /// Chunk of writer `w` arrived at the data servers.
    ChunkAtServers(usize, u64),
}

struct NodeWriter {
    bytes_left: u64,
    offset: u64,
    started_at: f64,
    done_at: f64,
}

pub(super) fn run(sim: &mut IoSim<'_>, opts: &DamarisOptions) -> PhaseOutcome {
    let nodes = sim.nodes;
    let cores_per_node = sim.platform.cores_per_node;
    assert!(
        opts.dedicated_per_node >= 1 && opts.dedicated_per_node < cores_per_node,
        "need at least one dedicated and one compute core per node"
    );
    let clients_per_node = cores_per_node - opts.dedicated_per_node;
    let bytes_per_client = sim
        .workload
        .bytes_per_client(cores_per_node, opts.dedicated_per_node);
    let node_bytes = bytes_per_client * clients_per_node as u64;
    let total_logical = node_bytes * nodes as u64;

    // --- Client side: the visible "write" is a memcpy into shared memory.
    // The node's concurrent clients share the memory bus.
    let effective_bw = sim.platform.memcpy_bandwidth / clients_per_node as f64;
    let mut client_write_times = Vec::with_capacity(nodes * clients_per_node);
    let mut node_copy_done = vec![0.0f64; nodes];
    for copy_done in node_copy_done.iter_mut() {
        for _ in 0..clients_per_node {
            let noise = 1.0 + 0.05 * sim.rng.unit();
            let t = sim.arrival_skew() + bytes_per_client as f64 / effective_bw * noise;
            client_write_times.push(t);
            *copy_done = copy_done.max(t);
        }
    }
    let phase_duration = client_write_times.iter().fold(0.0f64, |a, &b| a.max(b));

    // --- Dedicated-core side: asynchronous writes, one file per dedicated
    // core (D files per node when several cores are dedicated, §V-A's
    // symmetric semantics — each serves a group of clients).
    let ded = opts.dedicated_per_node;
    let n_writers = nodes * ded;
    let mut writers: Vec<NodeWriter> = Vec::with_capacity(n_writers);
    let mut queue: EventQueue<Hop> = EventQueue::new();
    let slot_len = if opts.scheduled {
        opts.estimated_window / n_writers as f64
    } else {
        0.0
    };
    for writer_id in 0..n_writers {
        let node = writer_id / ded;
        let group_bytes = node_bytes.div_ceil(ded as u64);
        // Compression runs first in the dedicated core; its cost is hidden
        // from the application but extends the dedicated core's busy time.
        let (comp_cpu, to_write) = match &opts.compression {
            Some(model) => super::apply_compression(model, group_bytes, 1.0 + 0.1 * sim.rng.unit()),
            None => (0.0, group_bytes),
        };
        let slot_wait = slot_len * writer_id as f64;
        let start = node_copy_done[node] + comp_cpu + slot_wait;
        writers.push(NodeWriter {
            bytes_left: to_write,
            offset: 0,
            started_at: node_copy_done[node],
            done_at: start,
        });
        // File creation through the MDS (one per dedicated core — far
        // fewer than FPP, §III: "reduces the overhead on metadata servers").
        let md = sim.platform.fs.metadata_op_time;
        let server = sim.platform.fs.metadata_server_for(writer_id as u64);
        let created = sim.mds.serve_on(server, start, md);
        queue.schedule(created, Hop::ChunkStart(writer_id));
    }

    let mut bytes_to_fs = 0u64;
    while let Some((t, hop)) = queue.pop() {
        match hop {
            Hop::ChunkStart(writer_id) => {
                let w = &mut writers[writer_id];
                if w.bytes_left == 0 {
                    w.done_at = t;
                    continue;
                }
                let chunk = w.bytes_left.min(REQUEST_BYTES);
                w.bytes_left -= chunk;
                let nic_done = sim.nics[writer_id / ded].send(t, chunk);
                queue.schedule(nic_done, Hop::ChunkAtServers(writer_id, chunk));
            }
            Hop::ChunkAtServers(writer_id, chunk) => {
                let file_id = 1_000_000 + writer_id as u64;
                let offset = writers[writer_id].offset;
                let mut last = t;
                for (server, bytes) in sim.server_bytes(file_id, offset, chunk) {
                    let extra = sim.interference();
                    let done = sim.data[server].serve_write(t, file_id, bytes, extra);
                    last = last.max(done);
                }
                writers[writer_id].offset += chunk;
                bytes_to_fs += chunk;
                queue.schedule(last, Hop::ChunkStart(writer_id));
            }
        }
    }

    // Per-node dedicated write time: from data-ready to last byte stored
    // (what Fig. 5 plots), excluding any scheduling slot wait.
    let dedicated_write_times: Vec<f64> = writers
        .iter()
        .enumerate()
        .map(|(writer_id, w)| {
            let slot_wait = slot_len * writer_id as f64;
            (w.done_at - w.started_at - slot_wait).max(0.0)
        })
        .collect();
    let io_makespan = writers
        .iter()
        .map(|w| w.done_at)
        .fold(phase_duration, f64::max);

    PhaseOutcome {
        client_write_times,
        phase_duration,
        dedicated_write_times,
        io_makespan,
        bytes_to_fs,
        bytes_logical: total_logical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform;
    use crate::strategies::{run_phase, Strategy};
    use crate::workload::WorkloadSpec;

    fn damaris_with(f: impl FnOnce(&mut DamarisOptions)) -> Strategy {
        let mut o = DamarisOptions::default();
        f(&mut o);
        Strategy::Damaris(o)
    }

    #[test]
    fn client_view_is_sub_second_and_scale_free() {
        // The paper's headline: write time ≈0.2 s, independent of scale.
        let p = platform::kraken();
        let w = WorkloadSpec::cm1_kraken();
        for ncores in [576, 2304, 9216] {
            let out = run_phase(&p, &w, &Strategy::damaris(), ncores, 1);
            assert!(
                out.phase_duration > 0.05 && out.phase_duration < 0.5,
                "{ncores} cores: client phase {}",
                out.phase_duration
            );
        }
    }

    #[test]
    fn client_jitter_is_tiny() {
        let p = platform::kraken();
        let w = WorkloadSpec::cm1_kraken();
        let out = run_phase(&p, &w, &Strategy::damaris(), 2304, 2);
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
        assert!(max - min < 0.15, "jitter {} too large", max - min);
    }

    #[test]
    fn dedicated_cores_do_the_real_io() {
        let p = platform::kraken();
        let w = WorkloadSpec::cm1_kraken();
        let out = run_phase(&p, &w, &Strategy::damaris(), 1152, 3);
        assert_eq!(out.dedicated_write_times.len(), 96);
        let max_ded = out
            .dedicated_write_times
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        assert!(
            max_ded > out.phase_duration,
            "async write longer than memcpy"
        );
        assert_eq!(out.bytes_to_fs, out.bytes_logical);
    }

    #[test]
    fn scheduling_reduces_dedicated_write_time() {
        // Fig. 7 / §IV-D: slot scheduling avoids access contention.
        let p = platform::kraken();
        let w = WorkloadSpec::cm1_kraken();
        let base = run_phase(&p, &w, &Strategy::damaris(), 2304, 4);
        let sched = run_phase(&p, &w, &damaris_with(|o| o.scheduled = true), 2304, 4);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&sched.dedicated_write_times) < 0.8 * mean(&base.dedicated_write_times),
            "scheduled {:.2}s vs base {:.2}s",
            mean(&sched.dedicated_write_times),
            mean(&base.dedicated_write_times)
        );
    }

    #[test]
    fn compression_shrinks_bytes_but_costs_dedicated_time() {
        let p = platform::kraken();
        let w = WorkloadSpec::cm1_kraken();
        let comp = damaris_with(|o| {
            o.compression = Some(crate::workload::CompressionModel {
                ratio: 1.87,
                rate: 150.0e6,
            })
        });
        let base = run_phase(&p, &w, &Strategy::damaris(), 1152, 5);
        let with = run_phase(&p, &w, &comp, 1152, 5);
        let ratio = base.bytes_to_fs as f64 / with.bytes_to_fs as f64;
        assert!((ratio - 1.87).abs() < 0.05, "ratio {ratio}");
        // Client view unchanged: compression is hidden.
        assert!((with.phase_duration - base.phase_duration).abs() < 0.05);
    }

    #[test]
    fn more_dedicated_cores_allowed() {
        let p = platform::grid5000_parapluie();
        let w = WorkloadSpec::cm1_grid5000();
        let two = damaris_with(|o| o.dedicated_per_node = 2);
        let out = run_phase(&p, &w, &two, 672, 6);
        assert!(out.phase_duration > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one dedicated")]
    fn zero_dedicated_rejected() {
        let p = platform::kraken();
        let w = WorkloadSpec::cm1_kraken();
        let bad = damaris_with(|o| o.dedicated_per_node = 0);
        run_phase(&p, &w, &bad, 576, 1);
    }
}
