//! `EventJournal`: an in-memory record map that no node uses.
//!
//! A node keeps its client notices in their notice rings and nowhere else
//! (see [`crate::server`], "Crash recovery"). This type survives only
//! because the pinned benchmark's `core.journal.append_ns` row still times
//! [`EventJournal::append_write`], [`EventJournal::mark_applied`] and
//! [`EventJournal::compact`]: ROADMAP item 14(c) retires that row, and item
//! 16 deletes the type.

use damaris_shm::sync::Mutex;
use std::collections::BTreeMap;
use std::convert::Infallible;

/// Sequence-numbered write records, each applied or not.
#[derive(Debug, Default)]
pub struct EventJournal {
    /// The next sequence number, and whether each retained record is
    /// applied.
    records: Mutex<(u64, BTreeMap<u64, bool>)>,
}

impl EventJournal {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a write and returns its sequence number. The fields are
    /// the benchmark's and are not kept.
    #[allow(clippy::too_many_arguments)]
    pub fn append_write(
        &self,
        _epoch: u32,
        _variable_id: u32,
        _iteration: u32,
        _source: u32,
        _offset: usize,
        _len: usize,
        _data_crc: u32,
    ) -> Result<u64, Infallible> {
        let mut records = self.records.lock();
        let seq = records.0;
        records.0 += 1;
        records.1.insert(seq, false);
        Ok(seq)
    }

    /// Marks a record applied; an unknown sequence number is ignored.
    pub fn mark_applied(&self, seq: u64) {
        if let Some(applied) = self.records.lock().1.get_mut(&seq) {
            *applied = true;
        }
    }

    /// Drops applied records; returns how many were removed.
    pub fn compact(&self) -> usize {
        let mut records = self.records.lock();
        let before = records.1.len();
        records.1.retain(|_, applied| !*applied);
        before - records.1.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_drops_only_applied_records() {
        let j = EventJournal::new();
        let a = j.append_write(0, 1, 0, 0, 128, 64, 0).unwrap();
        let b = j.append_write(0, 1, 0, 1, 256, 64, 0).unwrap();
        assert!(b > a);
        j.mark_applied(a);
        j.mark_applied(b + 1000);
        assert_eq!(j.compact(), 1);
        assert_eq!(j.compact(), 0);
        j.mark_applied(b);
        assert_eq!(j.compact(), 1);
    }
}
