//! The plugin system (paper §III-C "Behavior management and user-defined
//! actions").
//!
//! "A plugin is a function … that the EPE will load and call in response to
//! events sent by the application. The matching between events and expected
//! reactions is provided by the external configuration file."
//!
//! The original loads shared objects or Python; this reproduction uses
//! trait objects registered by name — the EPE→configuration→action
//! matching logic is identical.

use crate::config::{ActionBinding, Config};
use crate::error::DamarisError;
use crate::journal::EventJournal;
use crate::metadata::MetadataStore;
use crate::metadata::StoredVariable;
use crate::node::FaultStats;
use crate::retry::Backoff;
use damaris_format::SdfWriter;
use damaris_fs::StorageBackend;
use damaris_obs::Recorder;
use damaris_shm::{MappedNode, Segment};
use std::collections::VecDeque;
use std::time::Duration;

/// The event being dispatched, as plugins see it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventInfo {
    /// Event name (`"end_of_iteration"` for the implicit iteration event).
    pub name: String,
    pub iteration: u32,
    /// Client that sent it; `u32::MAX` for server-originated events.
    pub source: u32,
}

/// An iteration whose file is written under its temporary name but not
/// yet committed: the open writer, and the variables it was written from.
/// Their segments and journal records are held until the rename is
/// durable — a core that dies with iterations parked leaves only `.tmp`
/// files behind, and its successor re-adopts the segments and persists
/// them again. Dropping one releases nothing and publishes nothing.
pub(crate) struct Parked {
    pub iteration: u32,
    /// Final name, relative to the backend's root.
    pub file_name: String,
    /// `None` once a commit took it: after a failure the file is written
    /// again (see `plugins::persist`).
    pub writer: Option<SdfWriter>,
    pub variables: Vec<StoredVariable>,
    /// What the file is written with, kept for writing it again.
    pub presence: Option<u64>,
    pub filter: Option<String>,
    /// The iteration's retry budget, counted from when it fired.
    pub attempt: u32,
    pub backoff: Backoff,
    pub deadline: Duration,
}

/// What a plugin may touch while handling an event: the node's metadata
/// store (resident shared-memory data), the storage backend, and segment
/// release.
pub struct ActionContext<'a> {
    /// Which node this dedicated core serves.
    pub node_id: u32,
    /// The static configuration.
    pub config: &'a Config,
    /// Resident variables; actions typically drain an iteration.
    pub store: &'a mut MetadataStore,
    /// Storage behind the [`StorageBackend`] trait — usually a local
    /// directory, possibly decorated with fault injection under test.
    pub backend: &'a dyn StorageBackend,
    /// The node's layout, whose rings the segments release into.
    pub(crate) node: &'a MappedNode,
    /// Failure counters (persist retries, degraded iterations, …).
    pub(crate) stats: &'a FaultStats,
    /// The node's metrics registry, for what a plugin measures itself
    /// rather than through a trace span (`phase.filter_encode_ns`).
    pub(crate) metrics: &'a damaris_obs::Registry,
    /// Write-ahead journal; releases retire the matching records.
    pub(crate) journal: &'a EventJournal,
    /// The node's storage-pressure machine: persisting plugins flag
    /// permanent out-of-space errors here so the next loop pass escalates
    /// instead of the retry loop spinning on `ENOSPC`.
    pub(crate) pressure: &'a crate::pressure::PressureMachine,
    /// Segments to release, as `(source, seq, segment)`; flushed by the
    /// server after the action completes, in allocation order per source
    /// (each source's ring releases FIFO).
    pub(crate) pending_release: &'a mut Vec<(u32, u64, Segment)>,
    /// Iterations written but not committed, in fire order; the persist
    /// plugin parks them here and commits them when the rings go quiet
    /// ([`Plugin::quiet`]). The core owns the queue because it owns the
    /// order of release: nothing is flushed while anything is parked.
    pub(crate) parked: &'a mut VecDeque<Parked>,
    /// The dedicated core's trace recorder — plugins time their backend
    /// phases (write / fsync / retry backoff) on the server's timeline.
    pub(crate) rec: Recorder,
    /// Set when the iteration fired *partially* (some clients fenced under
    /// `on_client_failure="partial"`): bit `r` is set iff client `r`
    /// completed the iteration. Persisting plugins stamp it on their
    /// datasets so the recovery scan can tell a partial file from a full
    /// one. `None` for complete iterations.
    pub presence: Option<u64>,
}

impl ActionContext<'_> {
    /// Releases everything a drained iteration produced.
    pub fn release_all(&mut self, drained: Vec<crate::metadata::StoredVariable>) {
        for v in drained {
            self.pending_release.push((v.key.source, v.seq, v.segment));
        }
    }

    pub(crate) fn flush_releases(&mut self) {
        // FIFO per source: sort by (source, ring position) then release in
        // order. Not by seq — that is notification order, and a client
        // may commit or drop its zero-copy regions in another order than
        // it allocated them. The journal record is marked applied *before*
        // the segment goes back to the allocator: a crash between the two
        // strands one segment's bytes (bounded loss), while the reverse
        // order would let a replay re-adopt a segment the allocator
        // already reissued.
        self.pending_release
            .sort_by_key(|(src, _, segment)| (*src, segment.position()));
        for (source, seq, segment) in self.pending_release.drain(..) {
            self.journal.mark_applied(seq);
            let (offset, len) = segment.reservation();
            self.node.release(source as usize, offset, len);
        }
    }
}

/// A user-defined action run by the EPE on the dedicated core.
pub trait Plugin: Send {
    /// Name for error messages.
    fn name(&self) -> &str;

    /// Handles one event occurrence.
    fn handle(
        &mut self,
        ctx: &mut ActionContext<'_>,
        event: &EventInfo,
    ) -> Result<(), DamarisError>;

    /// Called when the notice rings went quiet with work parked: the
    /// dedicated core would otherwise idle, and under backpressure the
    /// clients are blocked on exactly the memory that work holds. Plugins
    /// that defer part of an event's handling finish it here.
    fn quiet(&mut self, _ctx: &mut ActionContext<'_>) -> Result<(), DamarisError> {
        Ok(())
    }

    /// Called once at runtime shutdown, after all pending iterations have
    /// fired their events: stateful plugins (e.g. multi-iteration
    /// archiving) flush whatever they still hold.
    fn finalize(&mut self, _ctx: &mut ActionContext<'_>) -> Result<(), DamarisError> {
        Ok(())
    }
}

/// Builds a plugin instance from its configuration binding.
pub type PluginFactory =
    Box<dyn Fn(&ActionBinding) -> Result<Box<dyn Plugin>, DamarisError> + Send>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_info_equality() {
        let a = EventInfo {
            name: "snapshot".into(),
            iteration: 2,
            source: 1,
        };
        assert_eq!(a.clone(), a);
    }
}
