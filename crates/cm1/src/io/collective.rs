//! Collective-I/O backend (paper §II-B-b): "all processes synchronize
//! together to open a shared file, and each process writes particular
//! regions of this file."
//!
//! One shared SDF file per write phase. Rank 0 creates the file and builds
//! the reservation plan; every rank computes its byte ranges
//! deterministically (same formula, no data exchange needed — the
//! synchronization cost is in the barriers that bracket open, write and
//! seal, exactly where pHDF5 pays it). Like pHDF5, **no compression is
//! possible**: byte ranges must be known before the data is written.

use super::{IoBackend, IoError, WritePhase, WriteStats};
use damaris_format::shared::{ReservedDataset, SharedFilePlan, SharedFileWriter};
use damaris_format::{DataType, Layout};
use damaris_mpi::Communicator;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Shared-file collective writes into a directory.
pub struct CollectiveBackend {
    dir: PathBuf,
    /// Only rank 0 holds the plan between create and seal.
    plan: Option<SharedFilePlan>,
}

impl CollectiveBackend {
    /// Collective output into `dir`.
    pub fn new(dir: impl AsRef<Path>) -> Result<Self, IoError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(IoError::msg)?;
        Ok(CollectiveBackend { dir, plan: None })
    }

    fn file_path(&self, iteration: u32) -> PathBuf {
        self.dir.join(format!("iter-{iteration:06}.sdf"))
    }
}

impl IoBackend for CollectiveBackend {
    fn write_phase(
        &mut self,
        comm: &Communicator,
        phase: &WritePhase,
    ) -> Result<WriteStats, IoError> {
        let t0 = Instant::now();
        let (nx, ny, nz) = phase.extent;
        let layout = Layout::new(DataType::F32, &[nx as u64, ny as u64, nz as u64]);
        let var_bytes = layout.byte_size();
        let path = self.file_path(phase.iteration);
        let nvars = phase.variables.len();

        // --- Collective open: rank 0 creates the file and the full plan
        // (its reserve() calls assign offsets in exactly the deterministic
        // order below); everyone else just computes its own ranges.
        if comm.rank() == 0 {
            let mut plan = SharedFilePlan::create(&path)?;
            for rank in 0..phase.nprocs {
                for (var, _) in &phase.variables {
                    plan.reserve(
                        &WritePhase::dataset_path(phase.iteration, rank, var),
                        &layout,
                    )?;
                }
            }
            self.plan = Some(plan);
        }
        comm.barrier(); // file exists with superblock; offsets agreed

        let superblock = damaris_format::SUPERBLOCK_LEN;
        let writer = SharedFileWriter::open(&path)?;
        for (vi, (var, data)) in phase.variables.iter().enumerate() {
            let offset = superblock + (phase.rank * nvars + vi) as u64 * var_bytes;
            let reservation = ReservedDataset {
                path: WritePhase::dataset_path(phase.iteration, phase.rank, var),
                layout: layout.clone(),
                offset,
            };
            let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
            writer.write_reserved(&reservation, &bytes)?;
        }

        // --- Collective close: everyone waits, rank 0 seals the index.
        comm.barrier();
        if comm.rank() == 0 {
            let plan = self.plan.take().expect("plan created this phase");
            plan.seal()?;
        }
        comm.barrier();

        Ok(WriteStats {
            elapsed: t0.elapsed(),
            bytes: phase.bytes(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{run_rank, Cm1Config};
    use damaris_format::SdfReader;
    use damaris_mpi::World;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("cm1-cio-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn one_shared_file_holds_all_ranks() {
        let dir = scratch("shared");
        let config = Cm1Config::small_test(4);
        World::run(4, |comm| {
            let mut io = CollectiveBackend::new(&dir).unwrap();
            run_rank(comm, &config, &mut io).unwrap();
        });
        for iter in [2u32, 4] {
            let reader = SdfReader::open(dir.join(format!("iter-{iter:06}.sdf"))).unwrap();
            // 4 ranks × n_variables datasets in ONE file.
            assert_eq!(reader.len(), 4 * config.n_variables);
            for rank in 0..4 {
                let theta = reader
                    .read_f32(&format!("/iter-{iter}/rank-{rank}/theta"))
                    .unwrap();
                assert!(theta.iter().all(|&v| (295.0..310.0).contains(&v)));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn collective_and_fpp_store_identical_data() {
        // The two baselines must persist bit-identical datasets — only the
        // file organization differs.
        let dir_cio = scratch("match-cio");
        let dir_fpp = scratch("match-fpp");
        let config = Cm1Config::small_test(2);
        World::run(2, |comm| {
            let mut io = CollectiveBackend::new(&dir_cio).unwrap();
            run_rank(comm, &config, &mut io).unwrap();
        });
        World::run(2, |comm| {
            let mut io = super::super::FppBackend::new(&dir_fpp).unwrap();
            run_rank(comm, &config, &mut io).unwrap();
        });
        let cio = SdfReader::open(dir_cio.join("iter-000004.sdf")).unwrap();
        for rank in 0..2 {
            let fpp =
                SdfReader::open(dir_fpp.join(format!("rank-{rank}/iter-000004.sdf"))).unwrap();
            for var in ["theta", "u", "v", "w", "prs"] {
                let path = format!("/iter-4/rank-{rank}/{var}");
                assert_eq!(
                    cio.read_f32(&path).unwrap(),
                    fpp.read_f32(&path).unwrap(),
                    "{path}"
                );
            }
        }
        std::fs::remove_dir_all(&dir_cio).ok();
        std::fs::remove_dir_all(&dir_fpp).ok();
    }
}
