//! Checkpoint/restart for the mini-CM1 solver.
//!
//! The paper positions Damaris next to node-local checkpointing systems
//! (§V-B cites SCR): periodic defensive output is the other I/O pattern
//! HPC applications burst on. This module gives the proxy application that
//! pattern — each rank snapshots its prognostic state (`theta`, `qv`, `w`)
//! into an SDF file and can resume a run bit-exactly from any checkpoint.

use crate::grid::Field3;
use crate::io::IoError;
use damaris_format::{DataType, DatasetOptions, Layout, SdfReader, SdfWriter};
use std::path::{Path, PathBuf};

/// When and where to write checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory for `ckpt-rank-R-iter-N.sdf` files.
    pub dir: PathBuf,
    /// Checkpoint every this many iterations.
    pub every: u32,
}

impl CheckpointPolicy {
    /// New policy (creates the directory on first write).
    pub fn new(dir: impl AsRef<Path>, every: u32) -> Self {
        CheckpointPolicy {
            dir: dir.as_ref().to_path_buf(),
            every: every.max(1),
        }
    }

    /// Path of one rank's checkpoint at one iteration.
    pub fn file(&self, rank: usize, iteration: u32) -> PathBuf {
        self.dir
            .join(format!("ckpt-rank-{rank}-iter-{iteration:06}.sdf"))
    }
}

/// The prognostic state a restart needs. (`u`, `v` are constant background;
/// `prs`/`dbz`/`tke` are pure functions of `theta` and `w`.)
pub struct ProgState<'a> {
    pub theta: &'a Field3,
    pub qv: &'a Field3,
    pub w: &'a Field3,
}

fn layout_of(f: &Field3) -> Layout {
    Layout::new(DataType::F32, &[f.nx as u64, f.ny as u64, f.nz as u64])
}

/// Writes one rank's checkpoint. Uses the lossless gzip-analogue filter:
/// checkpoints must restore bit-exactly.
pub fn write_checkpoint(
    policy: &CheckpointPolicy,
    rank: usize,
    iteration: u32,
    state: ProgState<'_>,
) -> Result<(), IoError> {
    std::fs::create_dir_all(&policy.dir).map_err(IoError::msg)?;
    let mut w = SdfWriter::create(policy.file(rank, iteration))?;
    let opts = DatasetOptions::plain()
        .with_filter("lzss|huff")
        .with_attr("iteration", i64::from(iteration))
        .with_attr("rank", rank as i64);
    for (name, field) in [("theta", state.theta), ("qv", state.qv), ("w", state.w)] {
        w.write_dataset_f32_opts(
            &format!("/{name}"),
            &layout_of(field),
            &field.interior(),
            &opts,
        )?;
    }
    w.finish()?;
    Ok(())
}

/// Loads one rank's checkpoint into freshly-shaped fields.
/// Returns `(theta, qv, w)`.
pub fn read_checkpoint(
    policy: &CheckpointPolicy,
    rank: usize,
    iteration: u32,
    extent: (usize, usize, usize),
    halo: usize,
) -> Result<(Field3, Field3, Field3), IoError> {
    let path = policy.file(rank, iteration);
    let reader = SdfReader::open(&path)
        .map_err(|e| IoError(format!("checkpoint {}: {e}", path.display())))?;
    let (nx, ny, nz) = extent;
    let load = |name: &str| -> Result<Field3, IoError> {
        let info = reader
            .info(&format!("/{name}"))
            .ok_or_else(|| IoError(format!("checkpoint missing /{name}")))?;
        if info.layout.dims != vec![nx as u64, ny as u64, nz as u64] {
            return Err(IoError(format!(
                "checkpoint /{name} has shape {:?}, expected {:?}",
                info.layout.dims,
                (nx, ny, nz)
            )));
        }
        if info.attr("iteration").and_then(|a| a.as_i64()) != Some(i64::from(iteration)) {
            return Err(IoError(format!(
                "checkpoint /{name} labeled with a different iteration"
            )));
        }
        let mut field = Field3::new(nx, ny, nz, halo);
        field.set_interior(&reader.read_f32(&format!("/{name}"))?);
        Ok(field)
    };
    Ok((load("theta")?, load("qv")?, load("w")?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("cm1-ckpt-{tag}-{}-{n}", std::process::id()))
    }

    fn bubble(nx: usize, ny: usize, nz: usize, seed: f32) -> Field3 {
        let mut f = Field3::new(nx, ny, nz, 1);
        crate::physics::init_warm_bubble(&mut f, (0, 0), (nx, ny, nz), 300.0 + seed, 4.0);
        f
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_exact() {
        let dir = scratch("roundtrip");
        let policy = CheckpointPolicy::new(&dir, 5);
        let (theta, qv, w) = (
            bubble(8, 6, 4, 0.0),
            bubble(8, 6, 4, 1.0),
            bubble(8, 6, 4, 2.0),
        );
        write_checkpoint(
            &policy,
            3,
            10,
            ProgState {
                theta: &theta,
                qv: &qv,
                w: &w,
            },
        )
        .unwrap();
        let (t2, q2, w2) = read_checkpoint(&policy, 3, 10, (8, 6, 4), 1).unwrap();
        assert_eq!(t2.interior(), theta.interior());
        assert_eq!(q2.interior(), qv.interior());
        assert_eq!(w2.interior(), w.interior());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_shape_or_iteration_rejected() {
        let dir = scratch("mismatch");
        let policy = CheckpointPolicy::new(&dir, 5);
        let f = bubble(8, 6, 4, 0.0);
        write_checkpoint(
            &policy,
            0,
            10,
            ProgState {
                theta: &f,
                qv: &f,
                w: &f,
            },
        )
        .unwrap();
        assert!(read_checkpoint(&policy, 0, 10, (8, 6, 5), 1).is_err());
        assert!(read_checkpoint(&policy, 0, 11, (8, 6, 4), 1).is_err());
        assert!(read_checkpoint(&policy, 1, 10, (8, 6, 4), 1).is_err()); // no such rank
        std::fs::remove_dir_all(&dir).ok();
    }
}
