//! On-disk encoding: superblock, footer, and the index entry wire format.
//!
//! All integers are little-endian. Variable-length integers use the shared
//! varint from `damaris-compress`. Strings are varint-length-prefixed UTF-8.

use crate::types::{AttrValue, DataType, Layout};
use crate::{SdfError, Result};
use damaris_compress::varint;

/// File magic, first 4 bytes of every SDF file.
pub const MAGIC: &[u8; 4] = b"SDF1";
/// Format version written to the superblock.
pub const VERSION: u16 = 1;
/// Fixed footer size: index offset (8) + index length (8) + index crc (4) +
/// magic (4).
pub const FOOTER_LEN: u64 = 24;
/// Superblock size: magic (4) + version (2) + flags (2).
pub const SUPERBLOCK_LEN: u64 = 8;
/// The fewest bytes an encoded index entry takes: one each for the path
/// length, dtype, rank, offset, stored length, filter length, chunk extent
/// and attribute count, and four for the CRC. An index count the bytes
/// behind it cannot hold at this size is refused before anything is sized
/// by it.
pub(crate) const MIN_ENTRY_LEN: usize = 12;
/// The fewest bytes an encoded attribute takes: name length, tag, and a
/// one-byte value (an empty string).
const MIN_ATTR_LEN: usize = 3;

/// Encodes the superblock.
pub fn write_superblock(out: &mut Vec<u8>) {
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags, reserved
}

/// Validates a superblock slice.
pub fn check_superblock(bytes: &[u8]) -> Result<()> {
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
    let flags = u16::from_le_bytes([bytes[6], bytes[7]]);
    if flags != 0 {
        return Err(SdfError::Format(format!(
            "unknown superblock flags {flags:#06x} (all flag bits are reserved)"
        )));
    }
    Ok(())
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
}

impl<'a> EntryRef<'a> {
    /// Checks the entry at `off` and advances past it, appending its
    /// extents to `dims`; the attributes are checked and skipped.
    pub(crate) fn skim(bytes: &'a [u8], off: &mut usize, dims: &mut Vec<u64>) -> Result<Self> {
        Self::parse(bytes, off, dims, |_, _| {})
    }

    /// Parses the entry at `off`, advancing past it: appends its extents
    /// to `dims`, hands each attribute to `attr`, and returns the rest.
    fn parse(
        bytes: &'a [u8],
        off: &mut usize,
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

    /// Deserializes one entry, advancing `off`.
    pub fn decode(bytes: &[u8], off: &mut usize) -> Result<Self> {
        let mut dims = Vec::new();
        let mut attrs = Vec::new();
        let e = EntryRef::parse(bytes, off, &mut dims, |name, value| {
            let value = match value {
                RawAttr::I64(v) => AttrValue::I64(v),
                RawAttr::F64(v) => AttrValue::F64(v),
                RawAttr::Str(s) => AttrValue::Str(s.to_string()),
            };
            attrs.push((name.to_string(), value));
        })?;
        Ok(IndexEntry {
            path: e.path.to_string(),
            layout: Layout { dtype: e.dtype, dims },
            offset: e.offset,
            stored_len: e.stored_len,
            crc: e.crc,
            filter: e.filter.to_string(),
            chunk_dim0: e.chunk_dim0,
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
        let back = IndexEntry::decode(&buf, &mut off).unwrap();
        assert_eq!(back, e);
        assert_eq!(off, buf.len());
    }

    #[test]
    fn skim_reads_what_decode_reads() {
        let e = sample_entry();
        let mut buf = Vec::new();
        e.encode(&mut buf);
        let mut off = 0;
        let mut dims = vec![9];
        let r = EntryRef::skim(&buf, &mut off, &mut dims).unwrap();
        assert_eq!(off, buf.len());
        assert_eq!(dims, [9, 44, 44, 200]);
        assert_eq!((r.path, r.filter), (e.path.as_str(), e.filter.as_str()));
        assert_eq!(
            (r.dtype, r.offset, r.stored_len, r.crc, r.chunk_dim0),
            (e.layout.dtype, e.offset, e.stored_len, e.crc, e.chunk_dim0)
        );
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
        let err = IndexEntry::decode(&buf, &mut 0).unwrap_err();
        assert!(err.to_string().contains("implausible attr count 3"), "{err}");
    }

    #[test]
    fn superblock_roundtrip() {
        let mut buf = Vec::new();
        write_superblock(&mut buf);
        assert_eq!(buf.len() as u64, SUPERBLOCK_LEN);
        assert!(check_superblock(&buf).is_ok());
        buf[0] = b'X';
        assert!(check_superblock(&buf).is_err());
    }

    #[test]
    fn reserved_flag_bits_rejected() {
        let mut buf = Vec::new();
        write_superblock(&mut buf);
        for bit in 0..16 {
            let mut flipped = buf.clone();
            let flags = 1u16 << bit;
            flipped[6..8].copy_from_slice(&flags.to_le_bytes());
            assert!(check_superblock(&flipped).is_err(), "flag bit {bit} accepted");
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
                IndexEntry::decode(&buf[..cut], &mut off).is_err(),
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
                attrs: vec![("i".into(), AttrValue::I64(attr_i)), ("s".into(), AttrValue::Str(attr_s))],
            };
            let mut buf = Vec::new();
            e.encode(&mut buf);
            let mut off = 0;
            prop_assert_eq!(IndexEntry::decode(&buf, &mut off).unwrap(), e);
        }
    }
}
