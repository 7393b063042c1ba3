//! # damaris-sim
//!
//! A discrete-event simulator of a multicore HPC cluster, built to
//! reproduce the Damaris paper's large-scale experiments (576–9216 cores on
//! Kraken, 672/912 cores on Grid'5000, 1024 cores on BluePrint) on a
//! laptop.
//!
//! ## What is simulated
//!
//! * **SMP nodes** — N cores sharing a memory bus (saturating per-node
//!   compute throughput: the physical reason dedicating 1 of 12 cores
//!   costs ≈nothing, §V-A) and one NIC (the paper's "first level of
//!   contention", §II-B).
//! * **Parallel file system** — metadata server queue(s), data server
//!   queues with per-request latency and stream-switch (seek) costs,
//!   striping ([`striping`]) and lock disciplines ([`fs_model::FsSpec`],
//!   calibrated as Lustre, PVFS and GPFS).
//! * **Jitter sources** (§II-A): OS noise on compute phases (cause 3),
//!   cross-application interference as random extra busy time on shared
//!   servers (cause 4); contention among the application's own
//!   processes (causes 1–2) emerges from the queueing itself.
//! * **I/O strategies** — file-per-process, collective (two-phase) I/O,
//!   and Damaris dedicated cores, as job flows through the same resources.
//!
//! The simulation is seeded and fully deterministic: the same
//! configuration and seed produce bit-identical reports.
//!
//! ## Entry point
//!
//! ```
//! use damaris_sim::{platform, workload::WorkloadSpec, strategies::Strategy, experiment};
//!
//! let platform = platform::kraken();
//! let workload = WorkloadSpec::cm1_kraken();
//! let report = experiment::run_io_phase(&platform, &workload, Strategy::FilePerProcess, 576, 42);
//! assert!(report.phase_duration > 0.0);
//! ```

pub mod analysis;
pub mod engine;
pub mod experiment;
pub mod fs_model;
pub mod metrics;
pub mod noise;
pub mod platform;
pub mod resources;
pub mod strategies;
pub mod striping;
pub mod workload;

pub use experiment::{
    run_io_phase, run_simulation, run_simulation_with_failure, FailureRunReport, FailureSpec,
    PhaseReport, RunReport,
};
pub use metrics::Stats;
pub use platform::PlatformSpec;
pub use strategies::Strategy;
pub use workload::WorkloadSpec;
