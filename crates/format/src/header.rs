//! On-disk encoding: superblock, footer, and the index entry wire format.
//!
//! All integers are little-endian. Variable-length integers use the shared
//! varint from `damaris-compress`. Strings are varint-length-prefixed UTF-8.

use crate::query::NO_COORD;
use crate::types::{AttrValue, DataType, Layout};
use crate::{Result, SdfError};
use damaris_compress::varint;

/// File magic, first 4 bytes of every SDF file.
pub const MAGIC: &[u8; 4] = b"SDF1";
/// Format version written to the superblock. Layout changes since are
/// feature bits in the flags word, not versions.
pub const VERSION: u16 = 1;
/// Fixed footer size: index offset (8) + index length (8) + index crc (4) +
/// magic (4).
pub const FOOTER_LEN: u64 = 24;
/// Superblock size: magic (4) + version (2) + flags (2).
pub const SUPERBLOCK_LEN: u64 = 8;
/// Incompat feature bit of the superblock's flags word: every index entry
/// carries its iteration and source as fields after its chunk extent, and
/// nothing lies between the index and the footer. Every file written now
/// sets it, so a reader that predates it refuses the file instead of
/// misparsing its entries.
pub const INCOMPAT_COORDS: u16 = 1;
/// What this build reads of the superblock's flags word. The word holds
/// incompat bits in its low byte, ro-compat bits in the next four and
/// compat bits in the top four.
const SDF_KNOWN: Features = Features {
    compat: 0,
    ro_compat: 0,
    incompat: INCOMPAT_COORDS as u32,
};
/// The fewest bytes an encoded index entry takes: one each for the path
/// length, dtype, rank, offset, stored length, filter length, chunk extent
/// and attribute count, and four for the CRC (an entry of a file without
/// coordinate fields; one with them takes two more). An index count the
/// bytes behind it cannot hold at this size is refused before anything is
/// sized by it.
pub(crate) const MIN_ENTRY_LEN: usize = 12;
/// The fewest bytes an encoded attribute takes: name length, tag, and a
/// one-byte value (an empty string).
const MIN_ATTR_LEN: usize = 3;

/// The feature words of a persisted header, under the ext4 superblock's
/// discipline: a reader first validates the header (magic, version,
/// sizes), then checks these words against the ones it knows. An unknown
/// *incompat* bit means the layout moved in a way this build cannot read:
/// refuse. An unknown *ro-compat* bit means it can read but must not
/// write: open read-only. An unknown *compat* bit changes nothing it
/// reads: ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Features {
    pub compat: u32,
    pub ro_compat: u32,
    pub incompat: u32,
}

/// What [`Features::check`] allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    ReadWrite,
    ReadOnly,
}

impl Features {
    /// Checks the words a header carries against `known`, the words this
    /// build understands, for an open that wants to write when `writable`.
    pub fn check(self, known: Features, writable: bool) -> Result<Access> {
        let incompat = self.incompat & !known.incompat;
        if incompat != 0 {
            return Err(SdfError::Format(format!(
                "unknown incompat feature bits {incompat:#x}: this build cannot read the layout"
            )));
        }
        let ro_compat = self.ro_compat & !known.ro_compat;
        match (ro_compat, writable) {
            (0, _) => Ok(Access::ReadWrite),
            (bits, true) => Err(SdfError::Format(format!(
                "unknown ro-compat feature bits {bits:#x}: this build may read, not write"
            ))),
            (_, false) => Ok(Access::ReadOnly),
        }
    }
}

/// Encodes the superblock every file is written with.
pub fn write_superblock(out: &mut Vec<u8>) {
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&INCOMPAT_COORDS.to_le_bytes());
}

/// A validated SDF superblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// The flags word: the file's feature bits.
    pub flags: u16,
}

impl Superblock {
    /// Decodes a superblock slice, checking its size, magic and version.
    pub fn validate(bytes: &[u8]) -> Result<Superblock> {
        if bytes.len() < SUPERBLOCK_LEN as usize {
            return Err(SdfError::Format("file shorter than superblock".into()));
        }
        if &bytes[0..4] != MAGIC {
            return Err(SdfError::Format("bad magic; not an SDF file".into()));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(SdfError::Format(format!(
                "unsupported SDF version {version} (expected {VERSION})"
            )));
        }
        Ok(Superblock {
            flags: u16::from_le_bytes([bytes[6], bytes[7]]),
        })
    }

    /// Checks the flags word's feature bits against what this build reads.
    pub fn check_features(self, writable: bool) -> Result<Access> {
        let flags = u32::from(self.flags);
        Features {
            compat: flags >> 12,
            ro_compat: (flags >> 8) & 0xf,
            incompat: flags & 0xff,
        }
        .check(SDF_KNOWN, writable)
    }

    /// True when the file's index entries carry coordinate fields.
    pub fn coords(self) -> bool {
        self.flags & INCOMPAT_COORDS != 0
    }
}

/// Encodes the footer.
pub fn write_footer(index_offset: u64, index_len: u64, index_crc: u32, out: &mut Vec<u8>) {
    out.extend_from_slice(&index_offset.to_le_bytes());
    out.extend_from_slice(&index_len.to_le_bytes());
    out.extend_from_slice(&index_crc.to_le_bytes());
    out.extend_from_slice(MAGIC);
}

/// Decodes a footer slice into `(index_offset, index_len, index_crc)`.
pub fn read_footer(bytes: &[u8]) -> Result<(u64, u64, u32)> {
    if bytes.len() != FOOTER_LEN as usize {
        return Err(SdfError::Format("footer has wrong size".into()));
    }
    if &bytes[20..24] != MAGIC {
        return Err(SdfError::Format("bad footer magic; truncated file?".into()));
    }
    let offset = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    Ok((offset, len, crc))
}

/// One index entry describing a stored dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexEntry {
    /// Full `/`-separated path.
    pub path: String,
    /// Logical layout of the (uncompressed) data.
    pub layout: Layout,
    /// Byte offset of the payload within the file.
    pub offset: u64,
    /// Stored (possibly compressed) payload length in bytes.
    pub stored_len: u64,
    /// CRC32 of the stored payload bytes.
    pub crc: u32,
    /// Filter pipeline spec applied at write time (`""` = none).
    pub filter: String,
    /// Chunk size in elements along dimension 0 (0 = contiguous).
    pub chunk_dim0: u64,
    /// Iteration coordinate ([`NO_COORD`] when absent).
    pub iteration: u32,
    /// Source (client rank) coordinate ([`NO_COORD`] when absent).
    pub source: u32,
    /// Attributes.
    pub attrs: Vec<(String, AttrValue)>,
}

fn write_str(s: &str, out: &mut Vec<u8>) {
    varint::write_u64(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

/// A length-prefixed byte string, borrowed from `bytes`.
pub(crate) fn read_raw<'a>(bytes: &'a [u8], off: &mut usize) -> Result<&'a [u8]> {
    let len = varint::read_u64(bytes, off)
        .ok_or_else(|| SdfError::Format("truncated string length".into()))?;
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| off.checked_add(len))
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| SdfError::Format("truncated string body".into()))?;
    let raw = &bytes[*off..end];
    *off = end;
    Ok(raw)
}

/// A length-prefixed UTF-8 string, borrowed from `bytes`.
fn read_str<'a>(bytes: &'a [u8], off: &mut usize) -> Result<&'a str> {
    std::str::from_utf8(read_raw(bytes, off)?)
        .map_err(|_| SdfError::Format("invalid UTF-8 in string".into()))
}

fn read_le8(bytes: &[u8], off: &mut usize, what: &str) -> Result<[u8; 8]> {
    let end = off
        .checked_add(8)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| SdfError::Format(format!("truncated {what}")))?;
    let v = bytes[*off..end].try_into().expect("8 bytes");
    *off = end;
    Ok(v)
}

/// An attribute value as it lies in the index bytes.
enum RawAttr<'a> {
    I64(i64),
    F64(f64),
    Str(&'a str),
}

/// A coordinate field: the coordinate + 1, 0 when absent.
fn write_coord(coord: u32, out: &mut Vec<u8>) {
    let stored = if coord == NO_COORD {
        0
    } else {
        u64::from(coord) + 1
    };
    varint::write_u64(stored, out);
}

/// A coordinate field; `None` when absent. A value past `u32` is refused.
fn read_coord(bytes: &[u8], off: &mut usize, what: &str) -> Result<Option<u32>> {
    let stored = varint::read_u64(bytes, off)
        .ok_or_else(|| SdfError::Format(format!("truncated {what}")))?;
    match stored.checked_sub(1) {
        None => Ok(None),
        Some(coord) if coord < u64::from(NO_COORD) => Ok(Some(coord as u32)),
        Some(_) => Err(SdfError::Format(format!(
            "{what} field {stored} exceeds u32"
        ))),
    }
}

/// An index entry as it lies in the index bytes, every field checked as
/// [`IndexEntry::decode`] checks it. Nothing is copied but the extents,
/// which go to the caller's arena, so skimming an index allocates nothing
/// per entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EntryRef<'a> {
    pub path: &'a str,
    pub dtype: DataType,
    pub offset: u64,
    pub stored_len: u64,
    pub crc: u32,
    pub filter: &'a str,
    pub chunk_dim0: u64,
    /// The iteration field or, in a file without coordinate fields, the
    /// `iteration` attribute; `None` when the entry has neither.
    pub iteration: Option<u32>,
    /// The same for the source: field, or `source` attribute.
    pub source: Option<u32>,
}

impl<'a> EntryRef<'a> {
    /// Checks the entry at `off` and advances past it, appending its
    /// extents to `dims`. `coords` says the file's entries carry
    /// coordinate fields; where they do not, the `iteration` and `source`
    /// attributes stand in for them, and every attribute is checked and
    /// skipped.
    pub(crate) fn skim(
        bytes: &'a [u8],
        off: &mut usize,
        coords: bool,
        dims: &mut Vec<u64>,
    ) -> Result<Self> {
        let (mut iteration, mut source) = (None, None);
        let mut e = Self::parse(bytes, off, coords, dims, |name, value| {
            let slot = match name {
                "iteration" if !coords => &mut iteration,
                "source" if !coords => &mut source,
                _ => return,
            };
            if let RawAttr::I64(v) = value {
                *slot = slot.or(u32::try_from(v).ok());
            }
        })?;
        e.iteration = e.iteration.or(iteration);
        e.source = e.source.or(source);
        Ok(e)
    }

    /// The lookup key `⟨variable, iteration, source⟩`: the variable is the
    /// last path segment; each coordinate is the entry's own (field, or
    /// attribute in a file without fields), else the first `iter-N` /
    /// `rank-N` path segment, else [`NO_COORD`].
    pub(crate) fn key(&self) -> (&'a str, u32, u32) {
        let path = self.path;
        let variable = path
            .rsplit('/')
            .next()
            .filter(|s| !s.is_empty())
            .unwrap_or(path);
        let from_path = |prefix: &str| {
            path.split('/')
                .find_map(|seg| seg.strip_prefix(prefix))
                .and_then(|n| n.parse::<u32>().ok())
        };
        let iteration = self
            .iteration
            .or_else(|| from_path("iter-"))
            .unwrap_or(NO_COORD);
        let source = self
            .source
            .or_else(|| from_path("rank-"))
            .unwrap_or(NO_COORD);
        (variable, iteration, source)
    }

    /// Parses the entry at `off`, advancing past it: appends its extents
    /// to `dims`, reads the coordinate fields when `coords`, hands each
    /// attribute to `attr`, and returns the rest.
    fn parse(
        bytes: &'a [u8],
        off: &mut usize,
        coords: bool,
        dims: &mut Vec<u64>,
        mut attr: impl FnMut(&'a str, RawAttr<'a>),
    ) -> Result<Self> {
        let path = read_str(bytes, off)?;
        let dtype_tag = *bytes
            .get(*off)
            .ok_or_else(|| SdfError::Format("truncated dtype".into()))?;
        *off += 1;
        let dtype = DataType::from_tag(dtype_tag)
            .ok_or_else(|| SdfError::Format(format!("unknown dtype tag {dtype_tag}")))?;
        let rank = varint::read_u64(bytes, off)
            .ok_or_else(|| SdfError::Format("truncated rank".into()))?;
        if rank > 32 {
            return Err(SdfError::Format(format!("implausible rank {rank}")));
        }
        for _ in 0..rank {
            dims.push(
                varint::read_u64(bytes, off)
                    .ok_or_else(|| SdfError::Format("truncated dims".into()))?,
            );
        }
        let offset = varint::read_u64(bytes, off)
            .ok_or_else(|| SdfError::Format("truncated offset".into()))?;
        let stored_len = varint::read_u64(bytes, off)
            .ok_or_else(|| SdfError::Format("truncated stored_len".into()))?;
        let crc_end = off
            .checked_add(4)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| SdfError::Format("truncated crc".into()))?;
        let crc = u32::from_le_bytes(bytes[*off..crc_end].try_into().expect("4 bytes"));
        *off = crc_end;
        let filter = read_str(bytes, off)?;
        let chunk_dim0 = varint::read_u64(bytes, off)
            .ok_or_else(|| SdfError::Format("truncated chunk info".into()))?;
        let (iteration, source) = if coords {
            (
                read_coord(bytes, off, "iteration")?,
                read_coord(bytes, off, "source")?,
            )
        } else {
            (None, None)
        };
        let n_attrs = varint::read_u64(bytes, off)
            .ok_or_else(|| SdfError::Format("truncated attr count".into()))?;
        let left = bytes.len() - *off;
        if n_attrs > 4096 || n_attrs > (left / MIN_ATTR_LEN) as u64 {
            return Err(SdfError::Format(format!(
                "implausible attr count {n_attrs} for {left} index bytes left"
            )));
        }
        for _ in 0..n_attrs {
            let name = read_str(bytes, off)?;
            let tag = *bytes
                .get(*off)
                .ok_or_else(|| SdfError::Format("truncated attr tag".into()))?;
            *off += 1;
            let value = match tag {
                0 => RawAttr::I64(i64::from_le_bytes(read_le8(bytes, off, "i64 attr")?)),
                1 => RawAttr::F64(f64::from_le_bytes(read_le8(bytes, off, "f64 attr")?)),
                2 => RawAttr::Str(read_str(bytes, off)?),
                _ => return Err(SdfError::Format(format!("unknown attr tag {tag}"))),
            };
            attr(name, value);
        }
        Ok(EntryRef {
            path,
            dtype,
            offset,
            stored_len,
            crc,
            filter,
            chunk_dim0,
            iteration,
            source,
        })
    }
}

impl IndexEntry {
    /// Serializes this entry.
    pub fn encode(&self, out: &mut Vec<u8>) {
        write_str(&self.path, out);
        out.push(self.layout.dtype.tag());
        varint::write_u64(self.layout.dims.len() as u64, out);
        for &d in &self.layout.dims {
            varint::write_u64(d, out);
        }
        varint::write_u64(self.offset, out);
        varint::write_u64(self.stored_len, out);
        out.extend_from_slice(&self.crc.to_le_bytes());
        write_str(&self.filter, out);
        varint::write_u64(self.chunk_dim0, out);
        write_coord(self.iteration, out);
        write_coord(self.source, out);
        varint::write_u64(self.attrs.len() as u64, out);
        for (name, value) in &self.attrs {
            write_str(name, out);
            out.push(value.tag());
            match value {
                AttrValue::I64(v) => out.extend_from_slice(&v.to_le_bytes()),
                AttrValue::F64(v) => out.extend_from_slice(&v.to_le_bytes()),
                AttrValue::Str(s) => write_str(s, out),
            }
        }
    }

    /// Deserializes one entry, advancing `off`. `coords` says the entry
    /// carries coordinate fields (its file's superblock sets
    /// [`INCOMPAT_COORDS`]); an entry without them decodes with both
    /// coordinates [`NO_COORD`].
    pub fn decode(bytes: &[u8], off: &mut usize, coords: bool) -> Result<Self> {
        let mut dims = Vec::new();
        let mut attrs = Vec::new();
        let e = EntryRef::parse(bytes, off, coords, &mut dims, |name, value| {
            let value = match value {
                RawAttr::I64(v) => AttrValue::I64(v),
                RawAttr::F64(v) => AttrValue::F64(v),
                RawAttr::Str(s) => AttrValue::Str(s.to_string()),
            };
            attrs.push((name.to_string(), value));
        })?;
        Ok(IndexEntry {
            path: e.path.to_string(),
            layout: Layout {
                dtype: e.dtype,
                dims,
            },
            offset: e.offset,
            stored_len: e.stored_len,
            crc: e.crc,
            filter: e.filter.to_string(),
            chunk_dim0: e.chunk_dim0,
            iteration: e.iteration.unwrap_or(NO_COORD),
            source: e.source.unwrap_or(NO_COORD),
            attrs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_entry() -> IndexEntry {
        IndexEntry {
            path: "/iter-3/rank-7/theta".into(),
            layout: Layout::new(DataType::F32, &[44, 44, 200]),
            offset: 12345,
            stored_len: 6789,
            crc: 0xDEADBEEF,
            filter: "precision16|lzss".into(),
            chunk_dim0: 0,
            iteration: 3,
            source: NO_COORD,
            attrs: vec![
                ("iteration".into(), AttrValue::I64(3)),
                ("unit".into(), AttrValue::Str("K".into())),
                ("dx".into(), AttrValue::F64(500.0)),
            ],
        }
    }

    #[test]
    fn entry_roundtrip() {
        let e = sample_entry();
        let mut buf = Vec::new();
        e.encode(&mut buf);
        let mut off = 0;
        let back = IndexEntry::decode(&buf, &mut off, true).unwrap();
        assert_eq!(back, e);
        assert_eq!(off, buf.len());
    }

    /// `e` as a file without coordinate fields stores it: both absent
    /// fields (a zero byte each, just before the attribute count) cut out.
    fn legacy_bytes(e: &IndexEntry) -> Vec<u8> {
        let bare = IndexEntry {
            iteration: NO_COORD,
            source: NO_COORD,
            attrs: Vec::new(),
            ..e.clone()
        };
        let mut head = Vec::new();
        bare.encode(&mut head);
        let at = head.len() - 3;
        assert_eq!(head[at..], [0, 0, 0]);
        let mut full = Vec::new();
        IndexEntry {
            iteration: NO_COORD,
            source: NO_COORD,
            ..e.clone()
        }
        .encode(&mut full);
        full.drain(at..at + 2);
        full
    }

    #[test]
    fn coordinates_come_from_the_field_then_the_attribute_then_the_path() {
        let mut e = sample_entry();
        e.attrs.push(("source".into(), AttrValue::I64(9)));
        let mut buf = Vec::new();
        e.encode(&mut buf);
        // With fields the attributes are plain: source falls to the path.
        let r = EntryRef::skim(&buf, &mut 0, true, &mut Vec::new()).unwrap();
        assert_eq!(r.key(), ("theta", 3, 7));
        // Without fields the attributes stand in, then the path.
        let old = legacy_bytes(&e);
        let r = EntryRef::skim(&old, &mut 0, false, &mut Vec::new()).unwrap();
        assert_eq!(r.key(), ("theta", 3, 9));
        // The owned decode keeps fields and attributes apart.
        let back = IndexEntry::decode(&old, &mut 0, false).unwrap();
        assert_eq!((back.iteration, back.source), (NO_COORD, NO_COORD));
        assert_eq!(back.attrs, e.attrs);
        e.attrs.clear();
        let bare = legacy_bytes(&e);
        let r = EntryRef::skim(&bare, &mut 0, false, &mut Vec::new()).unwrap();
        assert_eq!(r.key(), ("theta", 3, 7));
        // Neither field nor path segment: no coordinate.
        e.path = "/iter-x/v".into();
        e.iteration = NO_COORD;
        let mut buf = Vec::new();
        e.encode(&mut buf);
        let r = EntryRef::skim(&buf, &mut 0, true, &mut Vec::new()).unwrap();
        assert_eq!(r.key(), ("v", NO_COORD, NO_COORD));
    }

    #[test]
    fn a_coordinate_field_holds_a_u32_below_the_sentinel() {
        let mut buf = Vec::new();
        for coord in [0, 1, NO_COORD - 1, NO_COORD] {
            buf.clear();
            write_coord(coord, &mut buf);
            let back = read_coord(&buf, &mut 0, "iteration").unwrap();
            assert_eq!(back.unwrap_or(NO_COORD), coord);
        }
        buf.clear();
        varint::write_u64(u64::from(u32::MAX) + 1, &mut buf);
        let err = read_coord(&buf, &mut 0, "iteration").unwrap_err();
        assert!(err.to_string().contains("exceeds u32"), "{err}");
    }

    #[test]
    fn skim_reads_what_decode_reads() {
        let e = sample_entry();
        let mut buf = Vec::new();
        e.encode(&mut buf);
        let mut off = 0;
        let mut dims = vec![9];
        let r = EntryRef::skim(&buf, &mut off, true, &mut dims).unwrap();
        assert_eq!(off, buf.len());
        assert_eq!(dims, [9, 44, 44, 200]);
        assert_eq!((r.path, r.filter), (e.path.as_str(), e.filter.as_str()));
        assert_eq!(
            (r.dtype, r.offset, r.stored_len, r.crc, r.chunk_dim0),
            (e.layout.dtype, e.offset, e.stored_len, e.crc, e.chunk_dim0)
        );
        assert_eq!((r.iteration, r.source), (Some(3), None));
    }

    #[test]
    fn attr_count_is_held_to_the_bytes_left() {
        // Three attributes claimed, room for one of the smallest.
        let mut e = sample_entry();
        e.attrs.clear();
        let mut buf = Vec::new();
        e.encode(&mut buf);
        buf.pop();
        buf.extend_from_slice(&[3, 0, 2, 0, 0, 2]);
        let err = IndexEntry::decode(&buf, &mut 0, true).unwrap_err();
        assert!(
            err.to_string().contains("implausible attr count 3"),
            "{err}"
        );
    }

    #[test]
    fn superblock_roundtrip() {
        let mut buf = Vec::new();
        write_superblock(&mut buf);
        assert_eq!(buf.len() as u64, SUPERBLOCK_LEN);
        let sb = Superblock::validate(&buf).unwrap();
        assert!(sb.coords());
        assert_eq!(sb.check_features(true).unwrap(), Access::ReadWrite);
        buf[0] = b'X';
        assert!(Superblock::validate(&buf).is_err());
    }

    #[test]
    fn feature_bits_refuse_restrict_or_pass_by_class() {
        let with = |flags: u16| Superblock { flags };
        // A file from before the coordinate fields: no bit set.
        assert!(!with(0).coords());
        assert_eq!(with(0).check_features(false).unwrap(), Access::ReadWrite);
        for bit in 1..8 {
            let err = with(INCOMPAT_COORDS | 1 << bit)
                .check_features(false)
                .unwrap_err();
            assert!(
                err.to_string().contains("unknown incompat"),
                "bit {bit}: {err}"
            );
        }
        for bit in 8..12 {
            let sb = with(1 << bit);
            assert_eq!(
                sb.check_features(false).unwrap(),
                Access::ReadOnly,
                "bit {bit}"
            );
            let err = sb.check_features(true).unwrap_err();
            assert!(err.to_string().contains("ro-compat"), "bit {bit}: {err}");
        }
        for bit in 12..16 {
            assert_eq!(
                with(1 << bit).check_features(true).unwrap(),
                Access::ReadWrite,
                "bit {bit}"
            );
        }
    }

    #[test]
    fn footer_roundtrip() {
        let mut buf = Vec::new();
        write_footer(100, 42, 0xABCD, &mut buf);
        assert_eq!(buf.len() as u64, FOOTER_LEN);
        assert_eq!(read_footer(&buf).unwrap(), (100, 42, 0xABCD));
        buf[23] = 0;
        assert!(read_footer(&buf).is_err());
    }

    #[test]
    fn truncated_entries_error() {
        let e = sample_entry();
        let mut buf = Vec::new();
        e.encode(&mut buf);
        for cut in [1, 5, buf.len() / 2, buf.len() - 1] {
            let mut off = 0;
            assert!(
                IndexEntry::decode(&buf[..cut], &mut off, true).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn arbitrary_entry_roundtrip(
            path in "[a-z/]{1,32}",
            dims in proptest::collection::vec(0u64..1000, 0..5),
            offset in any::<u64>(),
            stored_len in any::<u64>(),
            crc in any::<u32>(),
            iteration in any::<u32>(),
            source in any::<u32>(),
            attr_i in any::<i64>(),
            attr_s in "[ -~]{0,16}",
        ) {
            let e = IndexEntry {
                path,
                layout: Layout::new(DataType::F64, &dims),
                offset,
                stored_len,
                crc,
                filter: String::new(),
                chunk_dim0: 0,
                iteration,
                source,
                attrs: vec![("i".into(), AttrValue::I64(attr_i)), ("s".into(), AttrValue::Str(attr_s))],
            };
            let mut buf = Vec::new();
            e.encode(&mut buf);
            let mut off = 0;
            prop_assert_eq!(IndexEntry::decode(&buf, &mut off, true).unwrap(), e);
        }
    }
}
