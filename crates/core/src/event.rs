//! What the dedicated core handles (paper §III-B): a client's notice as
//! [`crate::node::NodeShared::event_of`] reads it, or a user event from no
//! client ([`crate::NodeRuntime::inject_event`]).
//!
//! A write-notification carries the shared-memory [`Segment`] its notice
//! names: the notice ring's release/acquire handoff is what makes the
//! zero-copy transfer sound (the client's writes happen-before the
//! server's reads).
//!
//! The dedicated core journals each event as it takes it
//! ([`crate::server::DedicatedCore::admit`], which journals the event's
//! [`record`](Event::record)), so a restarted core can replay what the
//! dead one took and never finished.

use crate::journal::JournalPayload;
use damaris_shm::Segment;

/// One message to the dedicated core.
pub enum Event {
    /// A variable instance was written to shared memory.
    Write {
        /// Declaration-order id of the variable (name lives in the config,
        /// "only data is sent together with the minimal descriptor").
        variable_id: u32,
        /// Simulation step.
        iteration: u32,
        /// Client id within the node (the paper's `source`).
        source: u32,
        /// The reserved segment containing the payload.
        segment: Segment,
        /// Per-write shape for dynamic variables (particle arrays, §III-D);
        /// `None` for statically-declared layouts.
        dynamic_layout: Option<damaris_format::Layout>,
    },
    /// A user-defined event (`df_signal`).
    User {
        /// Event name (a notice names it by its place in the
        /// configuration's event list).
        name: String,
        iteration: u32,
        source: u32,
    },
    /// The client finished an iteration; when every client of the node has
    /// sent this, iteration-scoped actions fire.
    EndIteration { iteration: u32, source: u32 },
    /// A client abandoned an allocated-but-never-committed region: the
    /// segment travels to the dedicated core, which releases it in FIFO
    /// order at the owning iteration's flush (clients must never release
    /// shared memory themselves — partition reclamation is single-consumer).
    Abandon {
        iteration: u32,
        source: u32,
        segment: Segment,
    },
}

impl Event {
    /// The journal record of this event — its segment by the coordinates
    /// of its reservation ([`Segment::reservation`]).
    pub(crate) fn record(&self) -> JournalPayload {
        match self {
            Event::Write {
                variable_id,
                iteration,
                source,
                segment,
                dynamic_layout,
            } => {
                let (offset, len) = segment.reservation();
                JournalPayload::Write {
                    variable_id: *variable_id,
                    iteration: *iteration,
                    source: *source,
                    offset,
                    len,
                    dynamic_layout: dynamic_layout.clone(),
                }
            }
            Event::User {
                name,
                iteration,
                source,
            } => JournalPayload::User {
                name: name.clone(),
                iteration: *iteration,
                source: *source,
            },
            &Event::EndIteration { iteration, source } => {
                JournalPayload::EndIteration { iteration, source }
            }
            Event::Abandon {
                iteration,
                source,
                segment,
            } => {
                let (offset, len) = segment.reservation();
                JournalPayload::Abandon {
                    iteration: *iteration,
                    source: *source,
                    offset,
                    len,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records() {
        let e = Event::EndIteration {
            iteration: 4,
            source: 2,
        };
        assert_eq!(
            e.record(),
            JournalPayload::EndIteration {
                iteration: 4,
                source: 2
            }
        );
    }
}
