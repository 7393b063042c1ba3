//! Post-processing: reassemble the global field from whatever files a run
//! left behind.
//!
//! The paper's motivation for gathering data into large files is exactly
//! this consumer: "reading such a huge number of files for post-processing
//! and visualization becomes intractable" with file-per-process (§II-B).
//! This module reads any of the three organizations back into one global
//! `gnx × gny × gnz` array:
//!
//! * [`Organization::FilePerProcess`] — `rank-R/iter-N.sdf`, one file per
//!   rank (N·files opened);
//! * [`Organization::Collective`] — `iter-N.sdf`, one shared file;
//! * [`Organization::Damaris`] — `node-K/iter-N.sdf`, one file per node
//!   (the gathered organization Damaris produces).

use crate::decomp::Decomp2d;
use crate::io::IoError;
use damaris_format::SdfReader;
use std::path::Path;

/// How a run's output directory is organized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Organization {
    FilePerProcess,
    Collective,
    /// Damaris node files with `clients_per_node` ranks per node.
    Damaris {
        clients_per_node: usize,
    },
}

/// Reads one rank's dataset for `variable` at `iteration`.
fn read_rank(
    dir: &Path,
    organization: Organization,
    rank: usize,
    iteration: u32,
    variable: &str,
) -> Result<Vec<f32>, IoError> {
    let (file, dataset) = match organization {
        Organization::FilePerProcess => (
            dir.join(format!("rank-{rank}/iter-{iteration:06}.sdf")),
            format!("/iter-{iteration}/rank-{rank}/{variable}"),
        ),
        Organization::Collective => (
            dir.join(format!("iter-{iteration:06}.sdf")),
            format!("/iter-{iteration}/rank-{rank}/{variable}"),
        ),
        Organization::Damaris { clients_per_node } => (
            dir.join(format!(
                "node-{}/iter-{iteration:06}.sdf",
                rank / clients_per_node
            )),
            // Damaris sources are node-local client ids.
            format!(
                "/iter-{iteration}/rank-{}/{variable}",
                rank % clients_per_node
            ),
        ),
    };
    let reader = SdfReader::open(&file).map_err(|e| IoError(format!("{}: {e}", file.display())))?;
    reader.read_f32(&dataset).map_err(IoError::from)
}

/// Reassembles the global field of `variable` at `iteration`. Returns a
/// row-major `(x, y, z)` array of `gnx·gny·gnz` values.
pub fn read_global(
    dir: &Path,
    organization: Organization,
    decomp: &Decomp2d,
    iteration: u32,
    variable: &str,
) -> Result<Vec<f32>, IoError> {
    let (lnx, lny, lnz) = decomp.local_extent();
    let mut global = vec![0.0f32; decomp.gnx * decomp.gny * decomp.gnz];
    for rank in 0..decomp.nprocs() {
        let local = read_rank(dir, organization, rank, iteration, variable)?;
        if local.len() != lnx * lny * lnz {
            return Err(IoError(format!(
                "rank {rank}: dataset has {} values, subdomain needs {}",
                local.len(),
                lnx * lny * lnz
            )));
        }
        let (ox, oy) = decomp.local_origin(rank);
        for i in 0..lnx {
            for j in 0..lny {
                let src = (i * lny + j) * lnz;
                let gx = ox + i;
                let gy = oy + j;
                let dst = (gx * decomp.gny + gy) * decomp.gnz;
                global[dst..dst + lnz].copy_from_slice(&local[src..src + lnz]);
            }
        }
    }
    Ok(global)
}

/// Number of files a consumer must open per iteration for each
/// organization — the paper's metadata-pressure argument in one function.
pub fn files_per_iteration(organization: Organization, nprocs: usize) -> usize {
    match organization {
        Organization::FilePerProcess => nprocs,
        Organization::Collective => 1,
        Organization::Damaris { clients_per_node } => nprocs.div_ceil(clients_per_node),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{CollectiveBackend, DamarisDeployment, FppBackend};
    use crate::solver::{run_rank, Cm1Config};
    use damaris_mpi::World;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("cm1-post-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn all_organizations_reassemble_identically() {
        let nprocs = 4;
        let config = Cm1Config {
            global: (16, 16, 4),
            iterations: 2,
            write_every: 2,
            n_variables: 2,
            physics: Default::default(),
            bubble_amplitude: 5.0,
        };
        let decomp = Decomp2d::auto(nprocs, 16, 16, 4).unwrap();

        let dir_fpp = scratch("fpp");
        World::run(nprocs, |comm| {
            let mut io = FppBackend::new(&dir_fpp).unwrap();
            run_rank(comm, &config, &mut io).unwrap();
        });
        let dir_cio = scratch("cio");
        World::run(nprocs, |comm| {
            let mut io = CollectiveBackend::new(&dir_cio).unwrap();
            run_rank(comm, &config, &mut io).unwrap();
        });
        let dir_dam = scratch("dam");
        let deployment =
            DamarisDeployment::start(nprocs, 2, decomp.local_extent(), 2, &dir_dam).unwrap();
        World::run(nprocs, |comm| {
            let mut io = deployment.backend_for(comm.rank());
            run_rank(comm, &config, &mut io).unwrap();
        });
        deployment.finish().unwrap();

        let a = read_global(&dir_fpp, Organization::FilePerProcess, &decomp, 2, "theta").unwrap();
        let b = read_global(&dir_cio, Organization::Collective, &decomp, 2, "theta").unwrap();
        let c = read_global(
            &dir_dam,
            Organization::Damaris {
                clients_per_node: 2,
            },
            &decomp,
            2,
            "theta",
        )
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.len(), 16 * 16 * 4);
        // The bubble is warm in the middle.
        let mid = (8 * 16 + 8) * 4 + 1;
        assert!(a[mid] > 300.5, "center {}", a[mid]);
        for d in [dir_fpp, dir_cio, dir_dam] {
            std::fs::remove_dir_all(&d).ok();
        }
    }

    #[test]
    fn reassembly_is_globally_continuous() {
        // The reassembled field must not have seams at subdomain borders:
        // compare a 1-rank run against a 4-rank run of the same problem.
        let config = Cm1Config {
            global: (16, 16, 4),
            iterations: 2,
            write_every: 2,
            n_variables: 1,
            physics: Default::default(),
            bubble_amplitude: 5.0,
        };
        let dir1 = scratch("serial");
        World::run(1, |comm| {
            let mut io = FppBackend::new(&dir1).unwrap();
            run_rank(comm, &config, &mut io).unwrap();
        });
        let dir4 = scratch("par");
        World::run(4, |comm| {
            let mut io = FppBackend::new(&dir4).unwrap();
            run_rank(comm, &config, &mut io).unwrap();
        });
        let d1 = Decomp2d::auto(1, 16, 16, 4).unwrap();
        let d4 = Decomp2d::auto(4, 16, 16, 4).unwrap();
        let serial = read_global(&dir1, Organization::FilePerProcess, &d1, 2, "theta").unwrap();
        let parallel = read_global(&dir4, Organization::FilePerProcess, &d4, 2, "theta").unwrap();
        assert_eq!(serial, parallel);
        std::fs::remove_dir_all(&dir1).ok();
        std::fs::remove_dir_all(&dir4).ok();
    }

    #[test]
    fn file_counts_match_the_papers_argument() {
        assert_eq!(
            files_per_iteration(Organization::FilePerProcess, 9216),
            9216
        );
        assert_eq!(files_per_iteration(Organization::Collective, 9216), 1);
        assert_eq!(
            files_per_iteration(
                Organization::Damaris {
                    clients_per_node: 11
                },
                9216
            ),
            838
        );
    }

    #[test]
    fn missing_files_reported_with_path() {
        let decomp = Decomp2d::auto(2, 8, 8, 2).unwrap();
        let err = read_global(
            Path::new("/nonexistent"),
            Organization::FilePerProcess,
            &decomp,
            0,
            "theta",
        )
        .unwrap_err();
        assert!(err.to_string().contains("rank-0"), "{err}");
    }
}
