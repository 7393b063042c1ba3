//! The query section: a per-file bloom filter and a sorted key table
//! over `⟨variable, iteration, source⟩`, so a point probe is a bloom test
//! and a binary search instead of a scan of every dataset.
//!
//! Nothing of it is stored. [`SdfReader::open`](crate::SdfReader::open)
//! builds it in the pass that checks the index, from each entry's name or
//! path and coordinates, so it can never disagree with the index it
//! describes. A file written before sections were dropped still holds one
//! between its index and its footer; the reader ignores those bytes.
//!
//! In memory a section is the bloom filter, one fixed-size [`QueryKey`]
//! per dataset sorted by `(key_hash, ordinal)`, and the distinct variable
//! names end to end in one buffer: the file's name table first, each name
//! in the slot of its id, then the last segments of free-form paths.

use crate::header::{variable_of, EntryRef, PathField};
use crate::{Result, SdfError};
use std::collections::HashMap;

/// Sentinel for "this dataset has no iteration/source coordinate".
pub const NO_COORD: u32 = u32::MAX;

/// Bloom filter size cap: 2^27 bits = 16 MiB of words. A file indexes at
/// most a few thousand keys; anything near the cap is corruption.
const MAX_BLOOM_BITS: u64 = 1 << 27;

/// The lookup key's hash: FNV-1a over the variable name, the two
/// coordinates folded in as one word, then murmur3's 64-bit finalizer, so
/// every bit of the result depends on every bit of the key — the bloom
/// probes and the key table's buckets both take the top bits. Nothing
/// stores it. Allocation-free: the hot cache path calls this on every
/// probe.
// ANALYZE: hot
#[inline]
pub fn key_hash(variable: &str, iteration: u32, source: u32) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in variable.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h ^= u64::from(iteration) | u64::from(source) << 32;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A fixed-size bloom filter over 64-bit key hashes, using double
/// hashing (Kirsch–Mitzenmacher) with 7 probes.
#[derive(Debug, Clone, PartialEq)]
pub struct BloomFilter {
    n_bits: u64,
    words: Vec<u64>,
}

impl BloomFilter {
    /// Probes per key: ≈ ln2 · 10 bits per key.
    const K: u64 = 7;

    /// Sized for `n_keys` at ~10 bits/key, which puts the false-positive
    /// rate under 1%.
    pub fn with_capacity(n_keys: usize) -> Self {
        let n_bits = ((n_keys as u64).saturating_mul(10))
            .next_multiple_of(64)
            .max(64);
        let n_bits = n_bits.min(MAX_BLOOM_BITS);
        BloomFilter {
            n_bits,
            words: vec![0u64; (n_bits / 64) as usize],
        }
    }

    /// Number of bits in the filter.
    pub fn n_bits(&self) -> u64 {
        self.n_bits
    }

    /// Probe `i`'s bit for `hash`: `h1 + i·h2`, where `h1` is the hash
    /// and `h2` the hash rotated and forced odd, scaled onto `[0, n_bits)`
    /// by a multiply, not a division.
    #[inline]
    fn bit(&self, hash: u64, i: u64) -> u64 {
        let x = hash.wrapping_add(i.wrapping_mul(hash.rotate_left(32) | 1));
        ((u128::from(x) * u128::from(self.n_bits)) >> 64) as u64
    }

    /// Inserts a key hash.
    pub fn insert(&mut self, hash: u64) {
        for i in 0..Self::K {
            let bit = self.bit(hash, i);
            if let Some(w) = self.words.get_mut((bit / 64) as usize) {
                *w |= 1u64 << (bit % 64);
            }
        }
    }

    /// True when the key hash *may* be present (false positives possible,
    /// false negatives not). Allocation-free.
    // ANALYZE: hot
    #[inline]
    pub fn contains(&self, hash: u64) -> bool {
        let mut i = 0u64;
        while i < Self::K {
            let bit = self.bit(hash, i);
            let word = match self.words.get((bit / 64) as usize) {
                Some(w) => *w,
                None => return false,
            };
            if word & (1u64 << (bit % 64)) == 0 {
                return false;
            }
            i += 1;
        }
        true
    }
}

/// One row of the sorted key table: a dataset's lookup key and its
/// position in the main index. Fixed-size and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryKey {
    /// [`key_hash`] of `⟨variable, iteration, source⟩`.
    pub key_hash: u64,
    /// Position of the dataset in the main index (and in write order).
    pub ordinal: u32,
    /// Iteration coordinate ([`NO_COORD`] when absent).
    pub iteration: u32,
    /// Source (client rank) coordinate ([`NO_COORD`] when absent).
    pub source: u32,
    /// Slot of the variable name in the section's name table
    /// ([`QuerySection::variable`] reads it).
    pub variable: u32,
}

/// Short strings end to end in one buffer: two allocations however many
/// strings there are.
#[derive(Debug, Clone, Default, PartialEq)]
struct Strings {
    text: String,
    /// End of each string in `text`.
    ends: Vec<u32>,
}

impl Strings {
    fn push(&mut self, s: &str) {
        self.text.push_str(s);
        self.ends.push(self.text.len() as u32);
    }

    /// The string in `slot`; `""` past the end. Allocation-free.
    // ANALYZE: hot
    fn get(&self, slot: u32) -> &str {
        let slot = slot as usize;
        let end = match self.ends.get(slot) {
            Some(&end) => end as usize,
            None => return "",
        };
        let start = match slot.checked_sub(1).and_then(|prev| self.ends.get(prev)) {
            Some(&start) => start as usize,
            None => 0,
        };
        self.text.get(start..end).unwrap_or("")
    }
}

/// A file's query section: bloom + sorted key table + variable names.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySection {
    /// Bloom filter over every entry's key hash.
    pub bloom: BloomFilter,
    /// One key per dataset, sorted by `(key_hash, ordinal)`.
    pub keys: Vec<QueryKey>,
    /// The distinct variable names, in index order.
    strings: Strings,
}

impl QuerySection {
    /// All keys whose hash equals `hash` (usually 0 or 1; more on a 64-bit
    /// collision). Allocation-free: returns a sub-slice.
    // ANALYZE: hot
    pub fn candidates(&self, hash: u64) -> &[QueryKey] {
        let start = self.keys.partition_point(|k| k.key_hash < hash);
        let end = self.keys.partition_point(|k| k.key_hash <= hash);
        match self.keys.get(start..end) {
            Some(s) => s,
            None => &[],
        }
    }

    /// The variable name of `key`. Allocation-free.
    // ANALYZE: hot
    pub fn variable(&self, key: &QueryKey) -> &str {
        self.strings.get(key.variable)
    }

    /// The name in `slot`: the name of id `slot` of the file's table.
    pub(crate) fn name(&self, slot: u32) -> &str {
        self.strings.get(slot)
    }
}

/// Builds a file's section one index entry at a time, as
/// [`SdfReader::open`](crate::SdfReader::open) checks them: no pass of
/// its own, and no allocation per entry.
pub(crate) struct SectionBuilder<'a> {
    bloom: BloomFilter,
    keys: Vec<QueryKey>,
    /// Each distinct variable name, by slot: the name table's first.
    names: Vec<&'a str>,
    /// How many of `names` the file's table holds.
    table: u32,
    /// The slot of each name in `names`.
    slots: HashMap<&'a str, u32>,
    /// The last entry's slot.
    last: u32,
}

impl<'a> SectionBuilder<'a> {
    /// A builder for an index of `count` entries whose name table is
    /// `table` (empty without one). A name the table holds twice is
    /// refused.
    pub(crate) fn new(count: usize, table: Vec<&'a str>) -> Result<Self> {
        let mut slots = HashMap::with_capacity(count.max(table.len()));
        for (id, &name) in table.iter().enumerate() {
            if slots.insert(name, id as u32).is_some() {
                return Err(SdfError::Format(format!(
                    "name {name:?} twice in the name table"
                )));
            }
        }
        Ok(SectionBuilder {
            bloom: BloomFilter::with_capacity(count),
            keys: Vec::with_capacity(count),
            table: table.len() as u32,
            names: table,
            slots,
            last: 0,
        })
    }

    /// Adds `entry`, the index's next one. A reference past the name
    /// table is refused.
    pub(crate) fn push(&mut self, entry: &EntryRef<'a>) -> Result<()> {
        self.last = match entry.path {
            PathField::Name(id) if id < self.table => id,
            PathField::Name(id) => {
                return Err(SdfError::Format(format!(
                    "name reference {id} past the table's {} names",
                    self.table
                )))
            }
            PathField::Free(path) => self.slot(variable_of(path)),
        };
        let (iteration, source) = entry.coords();
        let hash = key_hash(self.names[self.last as usize], iteration, source);
        self.bloom.insert(hash);
        self.keys.push(QueryKey {
            key_hash: hash,
            ordinal: self.keys.len() as u32,
            iteration,
            source,
            variable: self.last,
        });
        Ok(())
    }

    /// The slot of `variable`, a new one if it is new. Writers repeat
    /// their variables in order — per source, or several sources per
    /// variable — so the slot after the last entry's, and that one, are
    /// tried before the map.
    fn slot(&mut self, variable: &'a str) -> u32 {
        let next = if self.last as usize + 1 < self.names.len() {
            self.last + 1
        } else {
            0
        };
        for guess in [next, self.last] {
            if self.names.get(guess as usize) == Some(&variable) {
                return guess;
            }
        }
        let names = &mut self.names;
        *self.slots.entry(variable).or_insert_with(|| {
            names.push(variable);
            names.len() as u32 - 1
        })
    }

    /// The section of every entry pushed, its keys in `(key_hash,
    /// ordinal)` order: one counting pass on the hash's top bits, about
    /// one bucket per key, then a sort of each bucket's few keys. (A
    /// comparison sort of random hashes cost most of the build in
    /// mispredicted branches.)
    pub(crate) fn finish(self) -> QuerySection {
        let bits = (usize::BITS - self.keys.len().leading_zeros()).clamp(1, 16);
        let bucket = |k: &QueryKey| (k.key_hash >> (64 - bits)) as usize;
        // Per bucket its end, then — keys placed from the back — its start.
        let mut at = vec![0u32; (1 << bits) + 1];
        for key in &self.keys {
            at[bucket(key)] += 1;
        }
        let mut sum = 0;
        for end in &mut at {
            sum += *end;
            *end = sum;
        }
        let mut keys = self.keys.clone();
        for key in self.keys.iter().rev() {
            let start = &mut at[bucket(key)];
            *start -= 1;
            keys[*start as usize] = *key;
        }
        for bounds in at.windows(2) {
            // (key_hash, ordinal) is unique, so the unstable sort is the order.
            keys[bounds[0] as usize..bounds[1] as usize]
                .sort_unstable_by_key(|k| (k.key_hash, k.ordinal));
        }
        let mut strings = Strings {
            text: String::with_capacity(self.names.iter().map(|n| n.len()).sum()),
            ends: Vec::with_capacity(self.names.len()),
        };
        for name in &self.names {
            strings.push(name);
        }
        QuerySection {
            bloom: self.bloom,
            keys,
            strings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{Entry, Shape};
    use crate::types::{DataType, Layout};

    /// Six datasets over two sources and three iterations, half of them
    /// filtered, with coordinate fields: the first of each source by free
    /// path, the rest by reference to the table's one name.
    fn sample_index() -> Vec<u8> {
        let mut bytes = Vec::new();
        let layout = Layout::new(DataType::F32, &[16, 8]);
        for i in 0..6u32 {
            let path = format!("/iter-{}/rank-{}/theta", i / 2, i % 2);
            Entry {
                path: if i < 2 {
                    PathField::Free(&path)
                } else {
                    PathField::Name(0)
                },
                layout: &layout,
                stored_len: 512,
                crc: 0x1234_5678 ^ i,
                filter: if i % 2 == 0 { "" } else { "lzss" },
                chunk_dim0: 0,
                iteration: i / 2,
                source: i % 2,
                attrs: &[],
            }
            .encode(&mut bytes);
        }
        bytes
    }

    /// The section of the entries end to end in `index`, under a table of
    /// `table`.
    fn build(index: &[u8], count: usize, table: &[&str]) -> QuerySection {
        let mut builder = SectionBuilder::new(count, table.to_vec()).unwrap();
        let mut off = 0;
        for _ in 0..count {
            let entry = EntryRef::skim(index, &mut off, Shape::Names, &mut Vec::new()).unwrap();
            builder.push(&entry).unwrap();
        }
        assert_eq!(off, index.len());
        builder.finish()
    }

    #[test]
    fn keys_are_sorted_and_names_kept_once() {
        let section = build(&sample_index(), 6, &["theta"]);
        assert!(section
            .keys
            .windows(2)
            .all(|w| (w[0].key_hash, w[0].ordinal) < (w[1].key_hash, w[1].ordinal)));
        assert_eq!(
            section.strings.ends.len(),
            1,
            "one variable, filter specs not kept"
        );
        assert!(section.keys.iter().all(|k| section.variable(k) == "theta"));
        assert_eq!(
            section.strings.get(9),
            "",
            "a slot past the table reads as empty"
        );
    }

    #[test]
    fn many_keys_sort_by_hash_then_ordinal() {
        // 600 entries, each key twice (under `/a/` and `/b/`): enough for
        // the bucket pass to have several keys in some buckets.
        let mut index = Vec::new();
        let layout = Layout::new(DataType::U8, &[1]);
        for i in 0..600u32 {
            let key = i % 300;
            let path = format!("/{}/v{}", if i < 300 { "a" } else { "b" }, key % 7);
            Entry {
                path: PathField::Free(&path),
                layout: &layout,
                stored_len: 1,
                crc: 0,
                filter: "",
                chunk_dim0: 0,
                iteration: key / 7,
                source: 0,
                attrs: &[],
            }
            .encode(&mut index);
        }
        let section = build(&index, 600, &[]);
        let order: Vec<(u64, u32)> = section
            .keys
            .iter()
            .map(|k| (k.key_hash, k.ordinal))
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]));
        for key in 0..300u32 {
            let cands = section.candidates(key_hash(&format!("v{}", key % 7), key / 7, 0));
            let ordinals: Vec<u32> = cands.iter().map(|k| k.ordinal).collect();
            assert_eq!(ordinals, [key, key + 300]);
        }
    }

    #[test]
    fn lookup_finds_every_key() {
        let section = build(&sample_index(), 6, &["theta"]);
        for it in 0..3u32 {
            for src in 0..2u32 {
                let h = key_hash("theta", it, src);
                assert!(section.bloom.contains(h));
                let cands = section.candidates(h);
                assert!(
                    cands.iter().any(|k| section.variable(k) == "theta"
                        && k.iteration == it
                        && k.source == src
                        && k.ordinal == it * 2 + src),
                    "missing ⟨theta, {it}, {src}⟩"
                );
            }
        }
    }

    #[test]
    fn bloom_prunes_absent_keys() {
        let section = build(&sample_index(), 6, &["theta"]);
        let mut hits = 0u32;
        let probes = 10_000u32;
        for i in 0..probes {
            if section.bloom.contains(key_hash("nope", i, i)) {
                hits += 1;
            }
        }
        // 6 keys at 10 bits/key: false-positive rate ≈ 1%; allow 5%.
        assert!(
            hits < probes / 20,
            "bloom passed {hits}/{probes} absent keys"
        );
    }

    #[test]
    fn the_table_is_held_to_its_names() {
        let twice = SectionBuilder::new(1, vec!["v", "w", "v"]).err().unwrap();
        assert!(twice.to_string().contains("twice"), "{twice}");
        let mut index = Vec::new();
        Entry {
            path: PathField::Name(2),
            layout: &Layout::new(DataType::U8, &[1]),
            stored_len: 1,
            crc: 0,
            filter: "",
            chunk_dim0: 0,
            iteration: 0,
            source: 0,
            attrs: &[],
        }
        .encode(&mut index);
        let mut builder = SectionBuilder::new(1, vec!["v", "w"]).unwrap();
        let entry = EntryRef::skim(&index, &mut 0, Shape::Names, &mut Vec::new()).unwrap();
        let past = builder.push(&entry).unwrap_err();
        assert!(past.to_string().contains("past the table"), "{past}");
    }

    #[test]
    fn empty_section() {
        let section = build(&[], 0, &[]);
        assert!(section.keys.is_empty());
        // Probing an empty filter must not panic; the verdict itself is
        // unspecified (blooms may false-positive).
        let _ = section.bloom.contains(key_hash("x", 0, 0));
    }
}
