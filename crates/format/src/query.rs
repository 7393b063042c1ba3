//! The query section: a versioned, CRC-guarded sparse block index plus a
//! per-file bloom filter, keyed on `⟨variable, iteration, source⟩`.
//!
//! Written by [`SdfWriter`](crate::SdfWriter) at seal time between the
//! main index and the footer; the footer does not reference it. An old
//! reader's bounds check (`index_offset + index_len <= file_len - 24`)
//! tolerates the extra bytes, and a new reader derives the section range
//! as `[index end, footer start)` — an empty range means an old file, for
//! which [`SdfReader::lookup_section`](crate::SdfReader::lookup_section)
//! builds the same section in memory from the main index.
//!
//! ```text
//! [superblock][records…][index][query section][footer]
//!                                └ "SDQ1" ver flags payload_len payload crc32
//! ```
//!
//! The payload holds, in order: the bloom filter over key hashes, a
//! string table (variable names and filter specs, deduplicated), and the
//! sparse entries sorted by `(key_hash, ordinal)` so a point lookup is a
//! binary search touching O(1) blocks instead of scanning every dataset.
//! Every length field is clamped against the bytes actually present
//! before any allocation, so a corrupt section costs bounded memory and
//! fails with a typed error.
//!
//! In memory a section is the bloom filter, one fixed-size [`QueryKey`]
//! per dataset and the string table end to end in one buffer. A stored
//! entry also repeats its dataset's offset, length, layout, filter and
//! chunk extent; those are checked at decode and left to the main index,
//! which the reader keeps anyway.

use crate::checksum::crc32;
use crate::header::IndexEntry;
use crate::types::DataType;
use crate::{Result, SdfError};
use damaris_compress::varint;

/// Query-section magic, distinct from the file magic.
pub const QUERY_MAGIC: &[u8; 4] = b"SDQ1";
/// Query-section format version.
pub const QUERY_VERSION: u16 = 1;
/// Sentinel for "this dataset has no iteration/source coordinate".
pub const NO_COORD: u32 = u32::MAX;

/// Fixed part of the section: magic (4) + version (2) + flags (2) +
/// payload_len (8).
const SECTION_HEADER_LEN: usize = 16;
/// Bloom filter size cap: 2^27 bits = 16 MiB of words. A file indexes at
/// most a few thousand keys; anything near the cap is corruption.
const MAX_BLOOM_BITS: u64 = 1 << 27;
/// String table caps.
const MAX_STRINGS: u64 = 1 << 16;
const MAX_STRING_LEN: u64 = 4096;
/// Entry count cap (also clamped against remaining payload bytes).
const MAX_ENTRIES: u64 = 1 << 22;
/// Rank cap, matching the main index.
const MAX_RANK: u64 = 32;

/// FNV-1a over the lookup key. Allocation-free: the hot cache path calls
/// this on every probe.
// ANALYZE: hot
#[inline]
pub fn key_hash(variable: &str, iteration: u32, source: u32) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in variable.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h = (h ^ 0xff).wrapping_mul(PRIME);
    for b in iteration.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    for b in source.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// A fixed-size bloom filter over 64-bit key hashes, using double
/// hashing (Kirsch–Mitzenmacher) with `k` probes.
#[derive(Debug, Clone, PartialEq)]
pub struct BloomFilter {
    n_bits: u64,
    k: u32,
    words: Vec<u64>,
}

impl BloomFilter {
    /// Sized for `n_keys` at ~10 bits/key (k = 7 ≈ ln2 · 10), which puts
    /// the false-positive rate under 1%.
    pub fn with_capacity(n_keys: usize) -> Self {
        let n_bits = ((n_keys as u64).saturating_mul(10)).next_multiple_of(64).max(64);
        let n_bits = n_bits.min(MAX_BLOOM_BITS);
        BloomFilter {
            n_bits,
            k: 7,
            words: vec![0u64; (n_bits / 64) as usize],
        }
    }

    /// Number of bits in the filter.
    pub fn n_bits(&self) -> u64 {
        self.n_bits
    }

    fn probes(&self, hash: u64) -> (u64, u64) {
        // h2 forced odd so the probe sequence cycles through all bits.
        (hash, hash.rotate_left(32) | 1)
    }

    /// Inserts a key hash.
    pub fn insert(&mut self, hash: u64) {
        let (h1, h2) = self.probes(hash);
        for i in 0..u64::from(self.k) {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.n_bits;
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
        let (h1, h2) = self.probes(hash);
        let mut i = 0u64;
        while i < u64::from(self.k) {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.n_bits;
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

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.n_bits.to_le_bytes());
        out.extend_from_slice(&self.k.to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    fn decode(bytes: &[u8], off: &mut usize) -> Result<Self> {
        let n_bits = read_u64_le(bytes, off, "bloom n_bits")?;
        let k = read_u32_le(bytes, off, "bloom k")?;
        if n_bits == 0 || n_bits % 64 != 0 || n_bits > MAX_BLOOM_BITS {
            return Err(SdfError::Format(format!("implausible bloom size {n_bits} bits")));
        }
        if k == 0 || k > 64 {
            return Err(SdfError::Format(format!("implausible bloom k {k}")));
        }
        let n_words = (n_bits / 64) as usize;
        // Bound the allocation by the bytes actually present.
        if bytes.len().saturating_sub(*off) < n_words * 8 {
            return Err(SdfError::Format("truncated bloom words".into()));
        }
        let mut words = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            words.push(read_u64_le(bytes, off, "bloom word")?);
        }
        Ok(BloomFilter { n_bits, k, words })
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
    /// Slot of the variable name in the section's string table
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
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn push(&mut self, s: &str) {
        self.text.push_str(s);
        self.ends.push(self.text.len() as u32);
    }

    /// The first slot holding `s`.
    fn position(&self, s: &str) -> Option<u32> {
        (0..self.len() as u32).find(|&slot| self.get(slot) == s)
    }

    /// The slot of `s`, appended if new. A file has a handful of distinct
    /// names, so a linear scan interns.
    fn intern(&mut self, s: &str) -> u32 {
        self.position(s).unwrap_or_else(|| {
            self.push(s);
            self.len() as u32 - 1
        })
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

/// Parsed query section: bloom + sorted key table + string table.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySection {
    /// Bloom filter over every entry's key hash.
    pub bloom: BloomFilter,
    /// One key per dataset, sorted by `(key_hash, ordinal)`.
    pub keys: Vec<QueryKey>,
    /// Variable names and filter specs, in stored order.
    strings: Strings,
}

/// Derives the lookup key for a main-index entry: the variable is the
/// last path segment; iteration and source come from the `iteration` /
/// `source` attributes (stamped by the persist plugin), falling back to
/// `iter-N` / `rank-N` path components, then [`NO_COORD`].
pub fn derive_key(entry: &IndexEntry) -> (&str, u32, u32) {
    let variable = entry
        .path
        .rsplit('/')
        .next()
        .filter(|s| !s.is_empty())
        .unwrap_or(entry.path.as_str());
    let from_attr = |name: &str| {
        entry
            .attrs
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_i64())
            .and_then(|v| u32::try_from(v).ok())
    };
    let from_path = |prefix: &str| {
        entry
            .path
            .split('/')
            .find_map(|seg| seg.strip_prefix(prefix))
            .and_then(|n| n.parse::<u32>().ok())
    };
    let iteration = from_attr("iteration")
        .or_else(|| from_path("iter-"))
        .unwrap_or(NO_COORD);
    let source = from_attr("source")
        .or_else(|| from_path("rank-"))
        .unwrap_or(NO_COORD);
    (variable, iteration, source)
}

impl QuerySection {
    /// Builds the section for a finished file's main index.
    pub fn build(index: &[IndexEntry]) -> QuerySection {
        let mut bloom = BloomFilter::with_capacity(index.len());
        let mut keys: Vec<QueryKey> = index
            .iter()
            .enumerate()
            .map(|(ordinal, e)| {
                let (variable, iteration, source) = derive_key(e);
                let hash = key_hash(variable, iteration, source);
                bloom.insert(hash);
                QueryKey {
                    key_hash: hash,
                    ordinal: ordinal as u32,
                    iteration,
                    source,
                    variable: 0,
                }
            })
            .collect();
        // (key_hash, ordinal) is unique, so the unstable sort is the order.
        keys.sort_unstable_by_key(|k| (k.key_hash, k.ordinal));
        // Intern in the order the stored table lists them: per key, its
        // variable, then its filter spec.
        let mut strings = Strings::default();
        for key in &mut keys {
            let entry = &index[key.ordinal as usize];
            key.variable = strings.intern(derive_key(entry).0);
            if !entry.filter.is_empty() {
                strings.intern(&entry.filter);
            }
        }
        QuerySection { bloom, keys, strings }
    }

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

    /// Serializes the whole section (header + payload + CRC). `index` is
    /// the main index the section was built from: each stored entry
    /// repeats its dataset's offset, length, layout, filter and chunk
    /// extent from there.
    pub fn encode(&self, index: &[IndexEntry]) -> Vec<u8> {
        let mut body = Vec::new();
        self.bloom.encode(&mut body);
        varint::write_u64(self.strings.len() as u64, &mut body);
        for slot in 0..self.strings.len() as u32 {
            let s = self.strings.get(slot);
            varint::write_u64(s.len() as u64, &mut body);
            body.extend_from_slice(s.as_bytes());
        }
        varint::write_u64(self.keys.len() as u64, &mut body);
        for key in &self.keys {
            let e = &index[key.ordinal as usize];
            body.extend_from_slice(&key.key_hash.to_le_bytes());
            varint::write_u64(u64::from(key.variable), &mut body);
            varint::write_u64(u64::from(key.iteration), &mut body);
            varint::write_u64(u64::from(key.source), &mut body);
            varint::write_u64(u64::from(key.ordinal), &mut body);
            varint::write_u64(e.offset, &mut body);
            varint::write_u64(e.stored_len, &mut body);
            body.push(e.layout.dtype.tag());
            varint::write_u64(e.layout.dims.len() as u64, &mut body);
            for &d in &e.layout.dims {
                varint::write_u64(d, &mut body);
            }
            let filter_id = match e.filter.as_str() {
                "" => 0,
                // invariant: `build` interned every filter spec of `index`.
                f => u64::from(self.strings.position(f).expect("filter spec interned")) + 1,
            };
            varint::write_u64(filter_id, &mut body);
            varint::write_u64(e.chunk_dim0, &mut body);
        }

        let mut out = Vec::with_capacity(SECTION_HEADER_LEN + body.len() + 4);
        out.extend_from_slice(QUERY_MAGIC);
        out.extend_from_slice(&QUERY_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // flags, reserved
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out
    }

    /// Parses a section from its full byte range. Every length is clamped
    /// against the bytes present before allocating, so corrupt input
    /// costs bounded memory and a typed error, never a panic.
    pub fn decode(bytes: &[u8]) -> Result<QuerySection> {
        if bytes.len() < SECTION_HEADER_LEN + 4 {
            return Err(SdfError::Format("query section shorter than header".into()));
        }
        if &bytes[0..4] != QUERY_MAGIC {
            return Err(SdfError::Format("bad query section magic".into()));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != QUERY_VERSION {
            return Err(SdfError::Format(format!(
                "unsupported query section version {version}"
            )));
        }
        let flags = u16::from_le_bytes([bytes[6], bytes[7]]);
        if flags != 0 {
            return Err(SdfError::Format(format!(
                "unknown query section flags {flags:#06x}"
            )));
        }
        let payload_len =
            u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
        let avail = bytes.len() - SECTION_HEADER_LEN - 4;
        if payload_len != avail {
            return Err(SdfError::Format(format!(
                "query section payload length {payload_len} does not match region ({avail})"
            )));
        }
        let body = &bytes[SECTION_HEADER_LEN..SECTION_HEADER_LEN + payload_len];
        let crc_bytes = &bytes[SECTION_HEADER_LEN + payload_len..];
        let stored_crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32(body) != stored_crc {
            return Err(SdfError::Corrupt("query section checksum mismatch".into()));
        }

        let mut off = 0usize;
        let bloom = BloomFilter::decode(body, &mut off)?;

        let n_strings = read_varint(body, &mut off, "string count")?;
        if n_strings > MAX_STRINGS {
            return Err(SdfError::Format(format!("implausible string count {n_strings}")));
        }
        // Check the table through once, then copy it into buffers sized
        // to it.
        let table_at = off;
        let mut text_len = 0usize;
        for _ in 0..n_strings {
            text_len += read_string(body, &mut off)?.len();
        }
        let mut strings = Strings {
            text: String::with_capacity(text_len),
            ends: Vec::with_capacity(n_strings as usize),
        };
        let mut at = table_at;
        for _ in 0..n_strings {
            strings.push(read_string(body, &mut at)?);
        }

        let n_entries = read_varint(body, &mut off, "entry count")?;
        // Each entry occupies at least key_hash (8) + 7 varint bytes.
        let floor = (body.len().saturating_sub(off) / 8) as u64;
        if n_entries > MAX_ENTRIES || n_entries > floor {
            return Err(SdfError::Format(format!(
                "implausible entry count {n_entries} for {} payload bytes",
                body.len().saturating_sub(off)
            )));
        }
        let mut keys = Vec::with_capacity(n_entries as usize);
        let mut prev: Option<(u64, u32)> = None;
        for _ in 0..n_entries {
            if off + 8 > body.len() {
                return Err(SdfError::Format("truncated key hash".into()));
            }
            let hash = u64::from_le_bytes(body[off..off + 8].try_into().expect("8 bytes"));
            off += 8;
            let name_id = read_varint(body, &mut off, "name id")?;
            if name_id >= strings.len() as u64 {
                return Err(SdfError::Format(format!("name id {name_id} out of table")));
            }
            let iteration = read_coord(body, &mut off, "iteration")?;
            let source = read_coord(body, &mut off, "source")?;
            let ordinal = read_coord(body, &mut off, "ordinal")?;
            // Offset, length, layout, filter and chunk extent: checked,
            // and left to the main index.
            read_varint(body, &mut off, "offset")?;
            read_varint(body, &mut off, "stored_len")?;
            let dtype_tag = *body
                .get(off)
                .ok_or_else(|| SdfError::Format("truncated dtype".into()))?;
            off += 1;
            DataType::from_tag(dtype_tag)
                .ok_or_else(|| SdfError::Format(format!("unknown dtype tag {dtype_tag}")))?;
            let rank = read_varint(body, &mut off, "rank")?;
            if rank > MAX_RANK {
                return Err(SdfError::Format(format!("implausible rank {rank}")));
            }
            for _ in 0..rank {
                read_varint(body, &mut off, "dims")?;
            }
            let filter_id = read_varint(body, &mut off, "filter id")?;
            if filter_id > strings.len() as u64 {
                return Err(SdfError::Format(format!("filter id {filter_id} out of table")));
            }
            read_varint(body, &mut off, "chunk info")?;
            // Sorted order is load-bearing for the binary search.
            if let Some(p) = prev {
                if p > (hash, ordinal) {
                    return Err(SdfError::Format("query entries out of order".into()));
                }
            }
            prev = Some((hash, ordinal));
            keys.push(QueryKey {
                key_hash: hash,
                ordinal,
                iteration,
                source,
                variable: name_id as u32,
            });
        }
        if off != body.len() {
            return Err(SdfError::Format("trailing garbage in query section".into()));
        }
        Ok(QuerySection {
            bloom,
            keys,
            strings,
        })
    }
}

fn read_varint(bytes: &[u8], off: &mut usize, what: &str) -> Result<u64> {
    varint::read_u64(bytes, off)
        .ok_or_else(|| SdfError::Format(format!("truncated {what}")))
}

fn read_coord(bytes: &[u8], off: &mut usize, what: &str) -> Result<u32> {
    let v = read_varint(bytes, off, what)?;
    u32::try_from(v).map_err(|_| SdfError::Format(format!("{what} {v} exceeds u32")))
}

/// One string of the table, length-capped and UTF-8-checked.
fn read_string<'a>(bytes: &'a [u8], off: &mut usize) -> Result<&'a str> {
    let len = read_varint(bytes, off, "string length")?;
    if len > MAX_STRING_LEN {
        return Err(SdfError::Format(format!("implausible string length {len}")));
    }
    let end = off
        .checked_add(len as usize)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| SdfError::Format("truncated string body".into()))?;
    let s = std::str::from_utf8(&bytes[*off..end])
        .map_err(|_| SdfError::Format("invalid UTF-8 in string table".into()))?;
    *off = end;
    Ok(s)
}

fn read_u64_le(bytes: &[u8], off: &mut usize, what: &str) -> Result<u64> {
    let end = off
        .checked_add(8)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| SdfError::Format(format!("truncated {what}")))?;
    let v = u64::from_le_bytes(bytes[*off..end].try_into().expect("8 bytes"));
    *off = end;
    Ok(v)
}

fn read_u32_le(bytes: &[u8], off: &mut usize, what: &str) -> Result<u32> {
    let end = off
        .checked_add(4)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| SdfError::Format(format!("truncated {what}")))?;
    let v = u32::from_le_bytes(bytes[*off..end].try_into().expect("4 bytes"));
    *off = end;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AttrValue, Layout};
    use proptest::prelude::*;

    fn sample_index() -> Vec<IndexEntry> {
        (0..6u32)
            .map(|i| IndexEntry {
                path: format!("/iter-{}/rank-{}/theta", i / 2, i % 2),
                layout: Layout::new(DataType::F32, &[16, 8]),
                offset: 8 + u64::from(i) * 512,
                stored_len: 512,
                crc: 0x1234_5678 ^ i,
                filter: if i % 2 == 0 { String::new() } else { "lzss".into() },
                chunk_dim0: 0,
                attrs: vec![
                    ("iteration".into(), AttrValue::I64(i64::from(i / 2))),
                    ("source".into(), AttrValue::I64(i64::from(i % 2))),
                ],
            })
            .collect()
    }

    #[test]
    fn section_roundtrip() {
        let index = sample_index();
        let section = QuerySection::build(&index);
        let bytes = section.encode(&index);
        let back = QuerySection::decode(&bytes).unwrap();
        assert_eq!(back, section);
    }

    #[test]
    fn string_table_keeps_stored_order_and_slots() {
        // A variable named like a filter spec shares its slot, as the
        // stored table always had it.
        let mut index = sample_index();
        index[0].path = "/iter-0/rank-0/lzss".into();
        let section = QuerySection::build(&index);
        let back = QuerySection::decode(&section.encode(&index)).unwrap();
        assert_eq!(back, section);
        let slots: Vec<&str> = (0..back.strings.len() as u32).map(|s| back.strings.get(s)).collect();
        assert_eq!(slots.len(), 2, "{slots:?}");
        assert!(slots.contains(&"lzss") && slots.contains(&"theta"), "{slots:?}");
        assert_eq!(back.strings.get(9), "", "a slot past the table reads as empty");
    }

    #[test]
    fn lookup_finds_every_key() {
        let index = sample_index();
        let section = QuerySection::build(&index);
        for it in 0..3u32 {
            for src in 0..2u32 {
                let h = key_hash("theta", it, src);
                assert!(section.bloom.contains(h));
                let cands = section.candidates(h);
                assert!(
                    cands.iter().any(|k| section.variable(k) == "theta"
                        && k.iteration == it
                        && k.source == src),
                    "missing ⟨theta, {it}, {src}⟩"
                );
            }
        }
    }

    #[test]
    fn bloom_prunes_absent_keys() {
        let index = sample_index();
        let section = QuerySection::build(&index);
        let mut hits = 0u32;
        let probes = 10_000u32;
        for i in 0..probes {
            if section.bloom.contains(key_hash("nope", i, i)) {
                hits += 1;
            }
        }
        // 6 keys at 10 bits/key: false-positive rate ≈ 1%; allow 5%.
        assert!(hits < probes / 20, "bloom passed {hits}/{probes} absent keys");
    }

    #[test]
    fn derive_key_prefers_attrs_over_path() {
        let mut e = sample_index().remove(0);
        e.attrs = vec![
            ("iteration".into(), AttrValue::I64(42)),
            ("source".into(), AttrValue::I64(7)),
        ];
        assert_eq!(derive_key(&e), ("theta", 42, 7));
        e.attrs.clear();
        // Falls back to the /iter-0/rank-0/ path components.
        assert_eq!(derive_key(&e), ("theta", 0, 0));
        e.path = "/just/a/name".into();
        assert_eq!(derive_key(&e), ("name", NO_COORD, NO_COORD));
    }

    #[test]
    fn flipped_byte_is_typed_error() {
        let index = sample_index();
        let good = QuerySection::build(&index).encode(&index);
        for pos in 0..good.len() {
            let mut bad = good.clone();
            bad[pos] ^= 0xff;
            if bad == good {
                continue;
            }
            assert!(
                QuerySection::decode(&bad).is_err(),
                "flip at {pos} accepted"
            );
        }
    }

    #[test]
    fn empty_section_roundtrip() {
        let section = QuerySection::build(&[]);
        let back = QuerySection::decode(&section.encode(&[])).unwrap();
        assert!(back.keys.is_empty());
        // Probing an empty filter must not panic; the verdict itself is
        // unspecified (blooms may false-positive).
        let _ = back.bloom.contains(key_hash("x", 0, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // Truncations and random byte flips must fail typed, never panic,
        // and never allocate unboundedly (caps are asserted by running at
        // all — an unbounded Vec::with_capacity would abort the test).
        #[test]
        fn corrupt_section_never_panics(
            cut in 0usize..512,
            flip_pos in 0usize..512,
            flip_mask in 1u8..255,
        ) {
            let index = sample_index();
            let good = QuerySection::build(&index).encode(&index);
            let cut = cut.min(good.len());
            let _ = QuerySection::decode(&good[..cut]);
            let mut flipped = good.clone();
            let pos = flip_pos % flipped.len();
            flipped[pos] ^= flip_mask;
            if flipped != good {
                prop_assert!(QuerySection::decode(&flipped).is_err());
            }
        }

        #[test]
        fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = QuerySection::decode(&bytes);
        }
    }
}
