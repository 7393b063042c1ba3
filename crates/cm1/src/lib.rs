//! # damaris-cm1
//!
//! A miniature CM1: a proxy for the atmospheric model the paper evaluates
//! with (§IV-A). Like the original, it
//!
//! * simulates a fixed 3D box of atmosphere holding several named
//!   variables per grid point (potential temperature, wind components,
//!   pressure perturbation, moisture),
//! * parallelizes by splitting the domain along a 2D grid of equally-sized
//!   subdomains, one per MPI process, exchanging halos every iteration,
//! * alternates computation phases with periodic write phases that dump
//!   every variable,
//! * supports three interchangeable I/O backends: file-per-process,
//!   collective I/O into one shared file, and Damaris dedicated cores —
//!   the three strategies the paper compares.
//!
//! The physics is a warm-bubble advection–diffusion–buoyancy scheme: not
//! CM1's dynamics, but the same *computational shape* (stencil sweeps over
//! a 3D box between communications), which is all the I/O study needs.
//!
//! ## Example
//!
//! ```
//! use damaris_cm1::{Cm1Config, run_rank, io::FppBackend};
//! use damaris_mpi::World;
//! use std::sync::Arc;
//!
//! let config = Cm1Config::small_test(4); // 2×2 process grid
//! let dir = std::env::temp_dir().join(format!("cm1-doc-{}", std::process::id()));
//! let results = World::run(4, |comm| {
//!     let mut io = FppBackend::new(&dir).unwrap();
//!     run_rank(comm, &config, &mut io).unwrap()
//! });
//! assert!(results.iter().all(|r| r.iterations == config.iterations));
//! std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod checkpoint;
pub mod decomp;
pub mod grid;
pub mod io;
pub mod physics;
pub mod postprocess;
pub mod solver;
pub mod variables;

pub use checkpoint::CheckpointPolicy;
pub use decomp::Decomp2d;
pub use grid::Field3;
pub use solver::{run_rank, run_rank_with, Cm1Config, RankResult};
pub use variables::{damaris_config_xml, variable_names};
