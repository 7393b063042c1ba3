//! Collective (two-phase) I/O strategy (paper §II-B-b).
//!
//! ROMIO-style: one aggregator per node owns a contiguous file domain of
//! the *single shared file*. The phase proceeds in globally synchronized
//! rounds; in each round every aggregator
//!
//! 1. receives one collective-buffer's worth of data from the processes
//!    whose subdomains map into its file domain (the all-to-all exchange),
//! 2. acquires the byte-range/extent locks covering its write region —
//!    operations serialized through the lock/metadata service, with
//!    conflict penalties proportional to the number of other writers
//!    holding ranges on the same servers,
//! 3. writes to the striped shared file.
//!
//! Three structural facts produce the paper's observations:
//!
//! * a shared file is striped over only `stripe_count` servers, capping its
//!   aggregate bandwidth far below the machine's peak;
//! * lock traffic scales with aggregator count and is serialized by the
//!   lock service (one server on Lustre);
//! * the round barrier couples everyone to the slowest aggregator, so
//!   interference tails translate into phase-to-phase variability.
//!
//! When the stripe size exceeds the collective buffer (the paper's 32 MB
//! misconfiguration), neighbouring aggregators false-share lock extents:
//! each write forces whole-stripe flush/refill, modeled as write
//! amplification — reproducing the 800 s → 1600 s blow-up (§IV-C1).

use super::{IoSim, PhaseOutcome};
use crate::fs_model::LockMode;

/// Collective buffer size per aggregator per round (ROMIO `cb_buffer_size`).
const CB_BYTES: u64 = 16 << 20;

/// Per-conflicting-holder addition to extent-lock service time (s).
const CONFLICT_PENALTY: f64 = 1.5e-6;

pub(super) fn run(sim: &mut IoSim<'_>) -> PhaseOutcome {
    let procs = sim.ncores;
    let nodes = sim.nodes;
    let cores_per_node = sim.platform.cores_per_node;
    let bytes_per_proc = sim.workload.bytes_per_core();
    let total_bytes = bytes_per_proc * procs as u64;
    let domain_per_agg = total_bytes.div_ceil(nodes as u64);
    let rounds = domain_per_agg.div_ceil(CB_BYTES);
    let shared_file: u64 = 0x5AFE;

    // The collective open: one metadata op plus a synchronizing broadcast.
    let open_done =
        sim.mds.serve_any(0.0, sim.platform.fs.metadata_op_time) + (procs as f64).log2() * 25.0e-6;

    let (base_lock, steal, extent_locking) = match sim.platform.fs.lock {
        LockMode::None => (0.0, 0.0, false),
        LockMode::ExtentPerServer { acquire } => (acquire, CONFLICT_PENALTY, true),
        LockMode::TokenManager { acquire, steal } => (acquire, steal, false),
    };

    // Stripe-size / collective-buffer mismatch → false sharing: every
    // write flushes the whole falsely-shared lock extent (×r) and the
    // lock ping-pong re-dirties neighbours' extents (×r again), so writes
    // are amplified by r² with r = stripe/cb (extent locking only).
    let amplification = if extent_locking {
        let r = (sim.platform.fs.stripe_size as f64 / CB_BYTES as f64).max(1.0);
        r * r
    } else {
        1.0
    };

    let mut round_start = open_done;
    let mut bytes_to_fs = 0u64;
    let mut consumed: Vec<u64> = vec![0; nodes];

    for round in 0..rounds {
        let mut round_end = round_start;
        for (agg, agg_consumed) in consumed.iter_mut().enumerate() {
            let cb = (domain_per_agg - *agg_consumed).min(CB_BYTES);
            if cb == 0 {
                continue;
            }
            let offset = agg as u64 * domain_per_agg + *agg_consumed;
            *agg_consumed += cb;

            // (1) Exchange: the aggregator's NIC absorbs the buffer, with a
            // per-sender message cost. Senders ≈ the node's own cores plus
            // remote contributors (grows with scale: the all-to-all).
            let senders = cores_per_node + (procs as f64).log2() as usize;
            let msg_overhead = senders as f64 * (sim.platform.nic_latency + 15.0e-6);
            let noise = 1.0 + 0.2 * sim.rng.unit();
            let exchange_done = sim.nics[agg].send(round_start, cb) + msg_overhead * noise;

            // (2) Locks: one op per touched server, serialized through the
            // lock service. Every aggregator holds ranges on the same small
            // stripe-server set, so conflicts ≈ all other aggregators
            // (extent locks are revoked by each round's writes; GPFS tokens
            // are cached after the first acquisition).
            let touched = sim.server_bytes(shared_file, offset, cb);
            let mut lock_done = exchange_done;
            if base_lock > 0.0 {
                let conflicts = if extent_locking || round == 0 {
                    (nodes - 1) as f64 * amplification
                } else {
                    0.0
                };
                let service = base_lock + steal * conflicts;
                for _ in 0..touched.len() {
                    lock_done = sim.mds.serve_any(exchange_done, service);
                }
            }

            // (3) Write the locked region (amplified under false sharing).
            // Pieces from many aggregators interleave in arrival order at
            // each server, defeating stream sequentiality: every
            // stripe-unit piece pays the per-request latency (felt hardest
            // on PVFS's 64 KiB units). The stream identity is the shared
            // file itself: lock-ordered round writes arrive as one stream.
            let mut write_done = lock_done;
            let stripe = sim.platform.fs.stripe_size.max(1);
            for (server, bytes) in touched {
                let pieces = bytes.div_ceil(stripe).saturating_sub(1);
                let extra = sim.interference() + pieces as f64 * sim.platform.fs.request_latency;
                let served = (bytes as f64 * amplification) as u64;
                let done = sim.data[server].serve_write(lock_done, shared_file, served, extra);
                write_done = write_done.max(done);
            }
            bytes_to_fs += cb;
            round_end = round_end.max(write_done);
        }
        // Round barrier: everyone waits for the slowest aggregator.
        round_start = round_end + (procs as f64).log2() * 20.0e-6;
    }

    let phase_duration = round_start;
    // Every process is held inside the collective for the whole phase;
    // within-phase variability is tiny (barrier skew only) — exactly the
    // paper's observation about synchronized approaches.
    let client_write_times: Vec<f64> = (0..procs)
        .map(|_| phase_duration * (1.0 - 1.0e-4 * sim.rng.unit()))
        .collect();

    PhaseOutcome {
        client_write_times,
        phase_duration,
        dedicated_write_times: Vec::new(),
        io_makespan: sim.data_last_free().max(phase_duration),
        bytes_to_fs,
        bytes_logical: total_bytes,
    }
}

#[cfg(test)]
mod tests {
    use crate::platform;
    use crate::strategies::{run_phase, Strategy};
    use crate::workload::WorkloadSpec;

    #[test]
    fn collective_degrades_superlinearly_on_lustre() {
        let p = platform::kraken();
        let w = WorkloadSpec::cm1_kraken();
        let t2304 = run_phase(&p, &w, &Strategy::CollectiveIo, 2304, 1).phase_duration;
        let t9216 = run_phase(&p, &w, &Strategy::CollectiveIo, 9216, 1).phase_duration;
        // 4× the cores (and 4× the data over the same stripe-count-limited
        // server set) → at least ~4× the phase time, landing in the
        // paper's several-hundred-second regime (Fig. 2: ~480 s avg).
        assert!(
            t9216 > 3.5 * t2304,
            "no degradation: {t2304:.1}s → {t9216:.1}s"
        );
        assert!(
            (200.0..1000.0).contains(&t9216),
            "9216-core collective phase {t9216:.1}s outside the paper's regime"
        );
    }

    #[test]
    fn within_phase_variability_is_small() {
        let p = platform::kraken();
        let w = WorkloadSpec::cm1_kraken();
        let out = run_phase(&p, &w, &Strategy::CollectiveIo, 1152, 3);
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
        assert!((max - min) / max < 0.01, "CIO should synchronize clients");
    }

    #[test]
    fn bigger_stripes_make_it_worse() {
        // The paper: setting the Lustre stripe size to 32 MB roughly
        // doubled the collective write time (§IV-C1).
        let mut p = platform::kraken();
        let w = WorkloadSpec::cm1_kraken();
        let t_1mb = run_phase(&p, &w, &Strategy::CollectiveIo, 2304, 1).phase_duration;
        p.fs = p.fs.with_stripe_size(32 << 20);
        let t_32mb = run_phase(&p, &w, &Strategy::CollectiveIo, 2304, 1).phase_duration;
        assert!(
            t_32mb > 1.5 * t_1mb && t_32mb < 8.0 * t_1mb,
            "32 MB stripes should hurt ~2×: {t_1mb:.1}s → {t_32mb:.1}s"
        );
    }

    #[test]
    fn shared_file_bandwidth_capped_by_stripe_count() {
        // A shared file lives on stripe_count servers only; aggregate
        // throughput must stay below that cap.
        let p = platform::kraken();
        let w = WorkloadSpec::cm1_kraken();
        let out = run_phase(&p, &w, &Strategy::CollectiveIo, 4608, 5);
        let throughput = out.bytes_to_fs as f64 / out.phase_duration;
        let cap = p.fs.stripe_count as f64 * p.fs.server_bandwidth;
        assert!(throughput < cap, "{throughput:.2e} vs cap {cap:.2e}");
    }
}
