//! What the dedicated core handles (paper §III-B): a client's notice as
//! [`crate::node::NodeShared::event_of`] reads it, or a user event from no
//! client ([`crate::NodeRuntime::inject_event`]).
//!
//! A write-notification carries the shared-memory [`Segment`] its notice
//! names: the notice ring's release/acquire handoff is what makes the
//! zero-copy transfer sound (the client's writes happen-before the
//! server's reads).
//!
//! A client's notice stays in its slot until the dedicated core is done
//! with it, so a restarted core reads again what the dead one took and
//! never finished ([`crate::server::DedicatedCore::replay`]).

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
    /// The client that sent it ([`crate::server::SERVER_SOURCE`] for an
    /// injected event).
    pub fn source(&self) -> u32 {
        match *self {
            Event::Write { source, .. }
            | Event::User { source, .. }
            | Event::EndIteration { source, .. }
            | Event::Abandon { source, .. } => source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_names_its_source() {
        let end = Event::EndIteration {
            iteration: 4,
            source: 2,
        };
        let user = Event::User {
            name: "snap".into(),
            iteration: 0,
            source: u32::MAX,
        };
        assert_eq!((end.source(), user.source()), (2, u32::MAX));
    }
}
