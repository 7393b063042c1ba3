//! # damaris-core
//!
//! The paper's contribution: **D**edicated **A**daptable **M**iddleware for
//! **A**pplication **R**esources **I**nline **S**teering (CLUSTER 2012).
//!
//! On every multicore SMP node, one core (or more) is dedicated to I/O and
//! data processing. Compute cores interact with it only through node-local
//! shared memory:
//!
//! * [`DamarisClient::write`] — one `memcpy` into a reserved shared-memory
//!   segment plus a write notice in the client's own ring; the
//!   client returns to computation immediately.
//! * [`DamarisClient::alloc`] / [`commit`](AllocatedRegion::commit) — the
//!   zero-copy path: the simulation computes directly inside the shared
//!   buffer (§III-C "Minimum-copy overhead").
//! * [`DamarisClient::signal`] — user-defined events that trigger
//!   configured actions on the dedicated core (§III-B "Event queue").
//!
//! The dedicated core runs an event processing engine ([`epe`]) that keeps
//! a metadata registry of incoming variables (`⟨name, iteration, source,
//! layout⟩`, §III-B), and dispatches *plugins* ([`plugin`]) in response to
//! events: persistence to SDF files (the HDF5-analogue format), inline
//! compression, statistics, and slot-scheduled data movement (§IV-D).
//!
//! Everything is configured from an external XML file with the paper's
//! schema ([`config`]): `<layout>`, `<variable>`, `<event>` plus buffer
//! sizing — "the user has full control over the resources allocated to
//! Damaris".
//!
//! ## Quick start
//!
//! ```
//! use damaris_core::{Config, NodeRuntime};
//!
//! let xml = r#"
//! <damaris>
//!   <buffer size="1048576"/>
//!   <layout name="grid" type="real" dimensions="16,4"/>
//!   <variable name="temperature" layout="grid"/>
//! </damaris>"#;
//! let config = Config::from_xml(xml).unwrap();
//! let dir = std::env::temp_dir().join(format!("damaris-doc-{}", std::process::id()));
//! let runtime = NodeRuntime::start(config, 2, &dir).unwrap();
//! let clients = runtime.clients();
//! for (i, client) in clients.iter().enumerate() {
//!     let data = vec![300.0_f32 + i as f32; 64];
//!     client.write_f32("temperature", 0, &data).unwrap();
//!     client.end_iteration(0).unwrap();
//! }
//! let report = runtime.finish().unwrap();
//! assert_eq!(report.iterations_persisted, 1);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod client;
pub mod config;
pub mod epe;
pub mod error;
pub mod event;
pub mod journal;
pub mod layout;
pub mod metadata;
pub mod multinode;
pub(crate) mod names;
pub mod node;
pub mod plugin;
pub mod plugins;
pub mod pressure;
#[cfg(unix)]
pub mod proc;
pub(crate) mod retry;
pub mod server;

pub use client::{AllocatedRegion, DamarisClient};
pub use config::{
    ActionBinding, BackpressurePolicy, Config, ObservabilityConfig, OnClientFailure, OnDiskFull,
    ResilienceConfig, VariableDef,
};
pub use error::DamarisError;
pub use event::Event;
pub use journal::{Claim, EventJournal, JournalPayload, RecordState};
pub use layout::LayoutDef;
pub use metadata::{MetadataStore, StoredVariable, VariableKey};
pub use multinode::{AnalysisReport, SmpNode, SmpNodeReport, Topology};
pub use node::{NodeReport, NodeRuntime};
pub use plugin::{ActionContext, EventInfo, Plugin, PluginFactory};
pub use pressure::{PressureMachine, PressureState};
