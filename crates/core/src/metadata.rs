//! Server-side metadata management (paper §III-B).
//!
//! "All variables written by the clients are characterized by a tuple
//! ⟨name, iteration, source, layout⟩. … Upon reception of a
//! write-notification, the EPE will add an entry in a metadata structure
//! associating the tuple with the received data. The data stay in shared
//! memory until actions are performed on them."

use damaris_format::Layout;
use damaris_shm::Segment;
use std::collections::BTreeMap;

/// The identifying tuple (name is resolved through the variable id; layout
/// hangs off the stored entry since it is static per variable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VariableKey {
    pub iteration: u32,
    pub variable_id: u32,
    pub source: u32,
}

/// One received variable instance, still resident in shared memory.
pub struct StoredVariable {
    pub key: VariableKey,
    pub name: String,
    pub layout: Layout,
    pub segment: Segment,
    /// The position of the write's notice in its client's notice ring:
    /// the notice to apply when the segment is released. (Release order is
    /// the segment's ring position, not this: a zero-copy region may be
    /// committed out of allocation order.)
    pub notice: u64,
}

impl StoredVariable {
    /// Payload bytes (valid until the segment is released).
    pub fn data(&self) -> &[u8] {
        self.segment.as_slice()
    }
}

impl std::fmt::Debug for StoredVariable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "StoredVariable{{{} it={} src={} {} bytes}}",
            self.name,
            self.key.iteration,
            self.key.source,
            self.segment.len()
        )
    }
}

/// The EPE's metadata structure: ordered by (iteration, variable, source)
/// so per-iteration extraction is a range drain.
#[derive(Default)]
pub struct MetadataStore {
    entries: BTreeMap<VariableKey, StoredVariable>,
    bytes_resident: usize,
}

impl MetadataStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a received variable. A duplicate tuple replaces the earlier
    /// entry and returns it (caller releases its segment and applies its
    /// notice).
    pub fn insert(&mut self, var: StoredVariable) -> Option<StoredVariable> {
        self.bytes_resident += var.segment.len();
        let prev = self.entries.insert(var.key, var);
        prev.inspect(|p| {
            self.bytes_resident -= p.segment.len();
        })
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no data is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes of shared memory currently held by resident data.
    pub fn bytes_resident(&self) -> usize {
        self.bytes_resident
    }

    /// Entries of one iteration, in (variable, source) order.
    pub fn iteration_entries(&self, iteration: u32) -> impl Iterator<Item = &StoredVariable> {
        let lo = VariableKey {
            iteration,
            variable_id: 0,
            source: 0,
        };
        let hi = VariableKey {
            iteration,
            variable_id: u32::MAX,
            source: u32::MAX,
        };
        self.entries.range(lo..=hi).map(|(_, v)| v)
    }

    /// Removes and returns all entries of one iteration (the persistency
    /// action consumes them; their segments are then released).
    pub fn drain_iteration(&mut self, iteration: u32) -> Vec<StoredVariable> {
        let keys: Vec<VariableKey> = self.iteration_entries(iteration).map(|v| v.key).collect();
        keys.iter()
            .map(|k| {
                // invariant: `k` was collected from `entries` above and
                // nothing removes between the two passes.
                let v = self.entries.remove(k).expect("key just listed");
                self.bytes_resident -= v.segment.len();
                v
            })
            .collect()
    }

    /// Whether any resident entry came from `source` — the lease sweeper
    /// must not reclaim a fenced client's partition while its segments are
    /// still resident here.
    pub fn has_source(&self, source: u32) -> bool {
        self.entries.keys().any(|k| k.source == source)
    }

    /// Iterations that currently have resident data, ascending.
    pub fn pending_iterations(&self) -> Vec<u32> {
        let mut its: Vec<u32> = self.entries.keys().map(|k| k.iteration).collect();
        its.dedup();
        its
    }
}

impl std::fmt::Debug for MetadataStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MetadataStore({} entries, {} bytes resident)",
            self.entries.len(),
            self.bytes_resident
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use damaris_format::DataType;
    use damaris_shm::PartitionAllocator;

    /// One ring stands in for every source: releases follow allocation.
    fn stored(alloc: &PartitionAllocator, it: u32, var: u32, src: u32, fill: u8) -> StoredVariable {
        let mut seg = alloc.allocate(0, 8).unwrap();
        seg.copy_from_slice(&[fill; 8]);
        StoredVariable {
            key: VariableKey {
                iteration: it,
                variable_id: var,
                source: src,
            },
            name: format!("var-{var}"),
            layout: Layout::new(DataType::F64, &[1]),
            segment: seg,
            notice: u64::from(it) * 100 + u64::from(src),
        }
    }

    #[test]
    fn insert_and_drain_by_iteration() {
        let alloc = PartitionAllocator::with_capacity(4096, 1);
        let mut store = MetadataStore::new();
        for it in 0..3 {
            for src in 0..2 {
                assert!(store.insert(stored(&alloc, it, 0, src, it as u8)).is_none());
            }
        }
        assert_eq!(store.len(), 6);
        assert_eq!(store.bytes_resident(), 48);
        assert_eq!(store.pending_iterations(), vec![0, 1, 2]);

        let drained = store.drain_iteration(1);
        assert_eq!(drained.len(), 2);
        assert!(drained.iter().all(|v| v.key.iteration == 1));
        assert!(drained.iter().all(|v| v.data() == [1u8; 8]));
        assert_eq!(store.len(), 4);
        assert_eq!(store.pending_iterations(), vec![0, 2]);
        // In allocation order: iteration 0's segments went in first.
        for v in store.drain_iteration(0).into_iter().chain(drained) {
            alloc.release(0, v.segment);
        }
        assert_eq!(alloc.in_use(0), 2 * 8);
    }

    #[test]
    fn duplicate_tuple_replaces() {
        let alloc = PartitionAllocator::with_capacity(4096, 1);
        let mut store = MetadataStore::new();
        assert!(store.insert(stored(&alloc, 5, 1, 0, 0xAA)).is_none());
        let old = store
            .insert(stored(&alloc, 5, 1, 0, 0xBB))
            .expect("replaced");
        assert_eq!(old.data(), [0xAA; 8]);
        alloc.release(0, old.segment);
        assert_eq!(store.len(), 1);
        let v = store.iteration_entries(5).next().unwrap();
        assert_eq!(v.data(), [0xBB; 8]);
        assert_eq!(store.bytes_resident(), 8);
    }

    #[test]
    fn entries_ordered_by_variable_then_source() {
        let alloc = PartitionAllocator::with_capacity(4096, 1);
        let mut store = MetadataStore::new();
        store.insert(stored(&alloc, 0, 1, 1, 0));
        store.insert(stored(&alloc, 0, 0, 1, 0));
        store.insert(stored(&alloc, 0, 1, 0, 0));
        store.insert(stored(&alloc, 0, 0, 0, 0));
        let keys: Vec<(u32, u32)> = store
            .iteration_entries(0)
            .map(|v| (v.key.variable_id, v.key.source))
            .collect();
        assert_eq!(keys, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn empty_iteration_drains_nothing() {
        let mut store = MetadataStore::new();
        assert!(store.drain_iteration(9).is_empty());
        assert!(store.is_empty());
    }
}
