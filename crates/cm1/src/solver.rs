//! The iteration driver: compute phases, halo exchanges, periodic write
//! phases through a pluggable I/O backend — CM1's "typical behavior of
//! scientific simulations which alternate computation phases and I/O
//! phases" (§IV-A).

use crate::checkpoint::{CheckpointPolicy, ProgState};
use crate::decomp::Decomp2d;
use crate::grid::{Field3, Side};
use crate::io::{IoBackend, IoError, WritePhase, WriteStats};
use crate::physics::{self, PhysicsParams};
use crate::variables::variable_names;
use bytes::Bytes;
use damaris_mpi::Communicator;
use std::collections::HashMap;

/// Run configuration for the proxy CM1.
#[derive(Debug, Clone)]
pub struct Cm1Config {
    /// Global domain (x, y, z) in grid points.
    pub global: (usize, usize, usize),
    /// Total iterations.
    pub iterations: u32,
    /// Iterations between write phases.
    pub write_every: u32,
    /// Enabled output variables (out of [`crate::variables::ALL_VARIABLES`]).
    pub n_variables: usize,
    /// Physics parameters.
    pub physics: PhysicsParams,
    /// Warm-bubble amplitude (K).
    pub bubble_amplitude: f32,
}

impl Cm1Config {
    /// A quick configuration for tests and examples: small domain, a few
    /// iterations, two write phases.
    pub fn small_test(nprocs: usize) -> Self {
        // A domain every reasonable process count divides.
        let side = 24 * nprocs.div_ceil(4).max(1);
        Cm1Config {
            global: (side, side, 8),
            iterations: 4,
            write_every: 2,
            n_variables: 5,
            physics: PhysicsParams {
                dt: 1.0,
                dx: 500.0,
                ..Default::default()
            },
            bubble_amplitude: 5.0,
        }
    }
}

/// Per-rank result of a run.
#[derive(Debug, Clone)]
pub struct RankResult {
    /// Iterations executed.
    pub iterations: u32,
    /// Write phases performed.
    pub write_phases: u32,
    /// Stats of each write phase, as the simulation saw it.
    pub write_stats: Vec<WriteStats>,
    /// Global sum of `theta` at the end — identical on every rank, and
    /// identical across I/O backends (I/O must not perturb physics).
    pub theta_checksum: f64,
}

/// Exchanges one field's halos with the four neighbours.
fn halo_exchange(comm: &Communicator, decomp: &Decomp2d, field: &mut Field3, tag_base: u32) {
    // Post all sends first (transport is buffered, so this cannot block),
    // then receive. Tag encodes the side the data was extracted from.
    for (s, side) in Side::ALL.iter().enumerate() {
        let plane = field.extract_plane(*side);
        let bytes: Vec<u8> = plane.iter().flat_map(|v| v.to_le_bytes()).collect();
        comm.send(
            decomp.neighbor(comm.rank(), *side),
            tag_base + s as u32,
            Bytes::from(bytes),
        );
    }
    for (s, side) in Side::ALL.iter().enumerate() {
        let from = decomp.neighbor(comm.rank(), side.opposite());
        let msg = comm.recv_expect(from, tag_base + s as u32);
        let plane: Vec<f32> = msg
            .data
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        field.install_ghost(side.opposite(), &plane);
    }
}

/// Runs the proxy CM1 on this rank. All ranks of the communicator must
/// call it with the same configuration.
pub fn run_rank(
    comm: &Communicator,
    config: &Cm1Config,
    io: &mut dyn IoBackend,
) -> Result<RankResult, IoError> {
    run_rank_with(comm, config, io, None, None)
}

/// [`run_rank`] with checkpoint/restart: writes a checkpoint every
/// `ckpt.every` iterations, and — when `restart_from` names an iteration —
/// loads that checkpoint and resumes *bit-exactly* from the following
/// iteration (verified by the equivalence tests).
pub fn run_rank_with(
    comm: &Communicator,
    config: &Cm1Config,
    io: &mut dyn IoBackend,
    ckpt: Option<&CheckpointPolicy>,
    restart_from: Option<u32>,
) -> Result<RankResult, IoError> {
    let (gx, gy, gz) = config.global;
    let decomp = Decomp2d::auto(comm.size(), gx, gy, gz).map_err(IoError::msg)?;
    let (nx, ny, nz) = decomp.local_extent();
    let origin = decomp.local_origin(comm.rank());
    let p = &config.physics;
    assert!(p.cfl() < 1.0, "unstable configuration: CFL {}", p.cfl());
    assert!(
        p.diffusion_number() < 0.25,
        "unstable diffusion number {}",
        p.diffusion_number()
    );

    // Prognostic fields.
    let mut theta = Field3::new(nx, ny, nz, 1);
    physics::init_warm_bubble(
        &mut theta,
        origin,
        config.global,
        p.theta0,
        config.bubble_amplitude,
    );
    let mut qv = Field3::filled(nx, ny, nz, 1, 0.012);
    physics::init_warm_bubble(&mut qv, origin, config.global, 0.012, 0.004);
    // Diagnostics and background wind.
    let mut fields: HashMap<&'static str, Field3> = HashMap::new();
    fields.insert("u", Field3::filled(nx, ny, nz, 1, p.u0));
    fields.insert("v", Field3::filled(nx, ny, nz, 1, p.v0));
    fields.insert("w", Field3::new(nx, ny, nz, 1));
    fields.insert("prs", Field3::new(nx, ny, nz, 1));
    fields.insert("dbz", Field3::new(nx, ny, nz, 1));
    fields.insert("tke", Field3::new(nx, ny, nz, 1));

    // Restart: replace the prognostic state with the checkpointed one.
    let first_iteration = match restart_from {
        Some(iteration) => {
            let policy =
                ckpt.ok_or_else(|| IoError("restart_from requires a checkpoint policy".into()))?;
            let (t, q, w) = crate::checkpoint::read_checkpoint(
                policy,
                comm.rank(),
                iteration,
                (nx, ny, nz),
                1,
            )?;
            theta = t;
            qv = q;
            fields.insert("w", w);
            iteration + 1
        }
        None => 1,
    };

    let mut write_stats = Vec::new();
    let mut write_phases = 0u32;

    for iteration in first_iteration..=config.iterations {
        // Compute phase: exchange halos, advance prognostics, update
        // diagnostics.
        halo_exchange(comm, &decomp, &mut theta, 100);
        halo_exchange(comm, &decomp, &mut qv, 200);
        theta = physics::advect_diffuse(&theta, p);
        qv = physics::advect_diffuse(&qv, p);
        {
            let [w, prs, dbz, tke] = fields
                .get_disjoint_mut(["w", "prs", "dbz", "tke"])
                .map(|f| f.expect("field exists"));
            physics::update_diagnostics(&theta, w, prs, dbz, tke, p);
        }

        // I/O phase.
        if iteration % config.write_every == 0 {
            comm.barrier(); // the explicit barrier that makes I/O bursts
            let mut outputs: Vec<(&'static str, Vec<f32>)> = Vec::new();
            for name in variable_names(config.n_variables) {
                let data = match *name {
                    "theta" => theta.interior(),
                    "qv" => qv.interior(),
                    other => fields[other].interior(),
                };
                outputs.push((name, data));
            }
            let phase = WritePhase {
                iteration,
                rank: comm.rank(),
                nprocs: comm.size(),
                extent: (nx, ny, nz),
                variables: outputs,
            };
            let t0 = std::time::Instant::now();
            let stats = io.write_phase(comm, &phase)?;
            let _ = t0; // backends report their own timing inside stats
            write_stats.push(stats);
            write_phases += 1;
            comm.barrier();
        }

        // Defensive checkpoint (SCR-style periodic snapshots, §V-B).
        if let Some(policy) = ckpt {
            if iteration % policy.every == 0 {
                crate::checkpoint::write_checkpoint(
                    policy,
                    comm.rank(),
                    iteration,
                    ProgState {
                        theta: &theta,
                        qv: &qv,
                        w: &fields["w"],
                    },
                )?;
            }
        }
    }

    io.finalize(comm)?;
    let theta_checksum = comm.allreduce_sum_f64(&[theta.interior_sum()])[0];
    Ok(RankResult {
        iterations: config.iterations,
        write_phases,
        write_stats,
        theta_checksum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::NullBackend;
    use damaris_mpi::World;

    #[test]
    fn physics_is_identical_across_rank_counts() {
        // The same global problem on 1, 2 and 4 ranks must give the same
        // final checksum (deterministic parallelization).
        let mut sums = Vec::new();
        for nprocs in [1, 2, 4] {
            let config = Cm1Config {
                global: (16, 16, 4),
                iterations: 6,
                write_every: 3,
                n_variables: 4,
                physics: PhysicsParams::default(),
                bubble_amplitude: 5.0,
            };
            let results = World::run(nprocs, |comm| {
                let mut io = NullBackend;
                run_rank(comm, &config, &mut io).unwrap().theta_checksum
            });
            // All ranks agree.
            for r in &results {
                assert!((r - results[0]).abs() < 1e-9);
            }
            sums.push(results[0]);
        }
        assert!(
            (sums[0] - sums[1]).abs() < 1e-6 && (sums[1] - sums[2]).abs() < 1e-6,
            "{sums:?}"
        );
    }

    #[test]
    fn write_phases_follow_cadence() {
        let config = Cm1Config {
            global: (8, 8, 2),
            iterations: 10,
            write_every: 4,
            n_variables: 2,
            physics: PhysicsParams::default(),
            bubble_amplitude: 2.0,
        };
        let results = World::run(2, |comm| {
            let mut io = NullBackend;
            run_rank(comm, &config, &mut io).unwrap()
        });
        assert!(results.iter().all(|r| r.write_phases == 2));
        assert!(results.iter().all(|r| r.write_stats.len() == 2));
    }

    #[test]
    fn mass_conserved_across_ranks() {
        let config = Cm1Config {
            global: (24, 24, 4),
            iterations: 8,
            write_every: 100, // no I/O
            n_variables: 1,
            physics: PhysicsParams::default(),
            bubble_amplitude: 5.0,
        };
        let initial_mass: f64 = {
            // theta0 everywhere + bubble: compute by initializing once.
            let mut f = Field3::new(24, 24, 4, 1);
            physics::init_warm_bubble(&mut f, (0, 0), (24, 24, 4), 300.0, 5.0);
            f.interior_sum()
        };
        let results = World::run(4, |comm| {
            let mut io = NullBackend;
            run_rank(comm, &config, &mut io).unwrap().theta_checksum
        });
        let rel = ((results[0] - initial_mass) / initial_mass).abs();
        assert!(rel < 1e-5, "mass drift {rel}");
    }
}
