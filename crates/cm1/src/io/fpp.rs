//! File-per-process backend (paper §II-B-a): each rank writes its own SDF
//! file per write phase. No synchronization between processes — and, as
//! the paper notes, the only standard approach that can compress (HDF5
//! gzip); enable it with [`FppBackend::with_filter`].

use super::{IoBackend, IoError, WritePhase, WriteStats};
use damaris_format::{DataType, DatasetOptions, Layout};
use damaris_fs::LocalDirBackend;
use damaris_mpi::Communicator;
use std::path::Path;
use std::time::Instant;

/// Writes `rank-R/iter-N.sdf` files under a directory.
pub struct FppBackend {
    backend: LocalDirBackend,
    filter: Option<String>,
}

impl FppBackend {
    /// Plain (uncompressed) file-per-process output into `dir`.
    pub fn new(dir: impl AsRef<Path>) -> Result<Self, IoError> {
        Ok(FppBackend {
            backend: LocalDirBackend::new(dir).map_err(IoError::msg)?,
            filter: None,
        })
    }

    /// Enables a compression filter (codec spec, e.g. `"lzss"`).
    pub fn with_filter(mut self, spec: impl Into<String>) -> Self {
        self.filter = Some(spec.into());
        self
    }

    /// Accounting backend (files/bytes written by this rank).
    pub fn storage(&self) -> &LocalDirBackend {
        &self.backend
    }
}

impl IoBackend for FppBackend {
    fn write_phase(
        &mut self,
        _comm: &Communicator,
        phase: &WritePhase,
    ) -> Result<WriteStats, IoError> {
        let t0 = Instant::now();
        let (nx, ny, nz) = phase.extent;
        let layout = Layout::new(DataType::F32, &[nx as u64, ny as u64, nz as u64]);
        let name = format!("rank-{}/iter-{:06}.sdf", phase.rank, phase.iteration);
        let mut writer = self.backend.create_sdf(&name)?;
        for (var, data) in &phase.variables {
            let mut opts = DatasetOptions::plain().with_coords(phase.iteration, phase.rank as u32);
            if let Some(f) = &self.filter {
                opts = opts.with_filter(f.clone());
            }
            writer.write_dataset_f32_opts(
                &WritePhase::dataset_path(phase.iteration, phase.rank, var),
                &layout,
                data,
                &opts,
            )?;
        }
        let total = writer.finish()?;
        self.backend.account_bytes(total);
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

    fn scratch(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("cm1-fpp-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn produces_one_file_per_rank_per_phase() {
        let dir = scratch("files");
        let config = Cm1Config::small_test(4);
        World::run(4, |comm| {
            let mut io = FppBackend::new(&dir).unwrap();
            run_rank(comm, &config, &mut io).unwrap();
        });
        // 4 ranks × 2 write phases.
        let mut count = 0;
        for rank in 0..4 {
            for iter in [2, 4] {
                let path = dir.join(format!("rank-{rank}/iter-{iter:06}.sdf"));
                let reader = SdfReader::open(&path).expect("file exists");
                assert_eq!(reader.len(), config.n_variables);
                count += 1;
            }
        }
        assert_eq!(count, 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compressed_output_reads_back() {
        let dir = scratch("gzip");
        let config = Cm1Config::small_test(1);
        World::run(1, |comm| {
            let mut io = FppBackend::new(&dir).unwrap().with_filter("lzss");
            run_rank(comm, &config, &mut io).unwrap();
        });
        let reader = SdfReader::open(dir.join("rank-0/iter-000002.sdf")).unwrap();
        let theta = reader.read_f32("/iter-2/rank-0/theta").unwrap();
        assert!(theta.iter().all(|&v| v > 290.0 && v < 310.0));
        let info = reader.info("/iter-2/rank-0/theta").unwrap();
        assert_eq!(info.filter, "lzss");
        assert!(info.stored_len < info.logical_len());
        std::fs::remove_dir_all(&dir).ok();
    }
}
