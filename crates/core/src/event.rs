//! Events flowing through the node's shared queue (paper §III-B).
//!
//! A write-notification carries the shared-memory [`Segment`] itself: the
//! queue's release/acquire handoff is exactly what makes the zero-copy
//! transfer sound (the client's writes happen-before the server's reads).
//!
//! A client only posts its event. The dedicated core journals it as it
//! takes it ([`crate::server::DedicatedCore::admit`], which journals the
//! event's [`record`](Event::record)), so a restarted core can replay what
//! the dead one took and never finished.

use crate::journal::JournalPayload;
use damaris_shm::Segment;

/// One message from a client to the dedicated core.
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
        /// CRC-32 the client computed over its source bytes before the
        /// `memcpy`; the persist plugin re-computes it over the segment to
        /// quarantine torn shm writes end-to-end.
        data_crc: u32,
    },
    /// A user-defined event (`df_signal`).
    User {
        /// Event name — small and infrequent, so sending the name itself
        /// keeps the API simple (the configuration holds the bindings).
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
    /// The runtime is shutting down; the server drains and exits.
    Terminate,
}

impl Event {
    /// The journal record of this event — its segment by coordinates;
    /// `None` for `Terminate`, which is not journalled.
    pub(crate) fn record(&self) -> Option<JournalPayload> {
        Some(match self {
            Event::Write {
                variable_id,
                iteration,
                source,
                segment,
                dynamic_layout,
                data_crc,
            } => JournalPayload::Write {
                variable_id: *variable_id,
                iteration: *iteration,
                source: *source,
                offset: segment.offset(),
                len: segment.len(),
                dynamic_layout: dynamic_layout.clone(),
                data_crc: *data_crc,
            },
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
            } => JournalPayload::Abandon {
                iteration: *iteration,
                source: *source,
                offset: segment.offset(),
                len: segment.len(),
            },
            Event::Terminate => return None,
        })
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Event::Write {
                variable_id,
                iteration,
                source,
                segment,
                ..
            } => write!(
                f,
                "Write{{var={variable_id}, it={iteration}, src={source}, {segment:?}}}"
            ),
            Event::User {
                name,
                iteration,
                source,
            } => write!(f, "User{{'{name}', it={iteration}, src={source}}}"),
            Event::EndIteration { iteration, source } => {
                write!(f, "EndIteration{{it={iteration}, src={source}}}")
            }
            Event::Abandon {
                iteration,
                source,
                segment,
            } => write!(f, "Abandon{{it={iteration}, src={source}, {segment:?}}}"),
            Event::Terminate => write!(f, "Terminate"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use damaris_shm::PartitionAllocator;

    #[test]
    fn events_traverse_the_shared_queue() {
        let alloc = PartitionAllocator::with_capacity(1024, 1);
        let queue = damaris_shm::MpscQueue::<Event>::new(8);
        let mut seg = alloc.allocate(0, 16).unwrap();
        seg.copy_from_slice(&[7u8; 16]);
        queue
            .push(Event::Write {
                variable_id: 3,
                iteration: 1,
                source: 0,
                segment: seg,
                dynamic_layout: None,
                data_crc: damaris_format::crc32(&[7u8; 16]),
            })
            .ok()
            .unwrap();
        queue
            .push(Event::User {
                name: "snapshot".into(),
                iteration: 1,
                source: 0,
            })
            .ok()
            .unwrap();
        match queue.pop().unwrap() {
            Event::Write {
                variable_id,
                segment,
                ..
            } => {
                assert_eq!(variable_id, 3);
                assert_eq!(segment.as_slice(), &[7u8; 16]);
                alloc.release(0, segment);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(queue.pop().unwrap(), Event::User { .. }));
    }

    #[test]
    fn debug_formatting_and_records() {
        let e = Event::EndIteration {
            iteration: 4,
            source: 2,
        };
        assert_eq!(format!("{e:?}"), "EndIteration{it=4, src=2}");
        assert_eq!(format!("{:?}", Event::Terminate), "Terminate");
        assert_eq!(
            e.record(),
            Some(JournalPayload::EndIteration {
                iteration: 4,
                source: 2
            })
        );
        assert_eq!(Event::Terminate.record(), None);
    }
}
