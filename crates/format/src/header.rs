//! On-disk encoding: superblock, footer, and the index's wire format.
//!
//! All integers are little-endian. Variable-length integers use the shared
//! varint from `damaris-compress`. Strings are varint-length-prefixed UTF-8.
//!
//! The index of a file written now ([`INCOMPAT_COORDS`] and
//! [`INCOMPAT_NAMES`] set) is
//!
//! ```text
//! [name count][name]…[entry count][entry]…
//! entry = path field, dtype, rank, dims…, stored length, crc, filter,
//!         chunk extent, iteration, source, attribute count, attributes…
//! ```
//!
//! A name is a variable name, once per file: non-empty, without `/`. An
//! entry whose path is `/iter-{iteration}/rank-{source}/{name}` of its own
//! coordinate fields stores a reference to its name, `id << 1 | 1`, in
//! its path field; any other path is `len << 1` and the bytes. No entry
//! stores an offset: payloads lie end to end from the superblock in entry
//! order, so each offset is the sum of the stored lengths before it, and
//! the sum of all of them ends exactly where the index starts.

use crate::query::NO_COORD;
use crate::types::{AttrValue, DataType, Layout};
use crate::{Result, SdfError};
use damaris_compress::varint;
use std::collections::{HashMap, HashSet};

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
/// Incompat feature bit: the index opens with the file's name table, an
/// entry's path may be a reference into it, and no entry stores an
/// offset (the module docs give the layout). Set in every file written
/// now, always beside [`INCOMPAT_COORDS`].
pub const INCOMPAT_NAMES: u16 = 2;
/// What this build reads of the superblock's flags word. The word holds
/// incompat bits in its low byte, ro-compat bits in the next four and
/// compat bits in the top four.
const SDF_KNOWN: Features = Features {
    compat: 0,
    ro_compat: 0,
    incompat: (INCOMPAT_COORDS | INCOMPAT_NAMES) as u32,
};
/// The fewest bytes an encoded index entry takes: one each for the path
/// field, dtype, rank, stored length, filter length, chunk extent and
/// attribute count, four for the CRC, and one for the offset or the two
/// coordinate fields' one more. An index count the bytes behind it cannot
/// hold at this size is refused before anything is sized by it.
pub(crate) const MIN_ENTRY_LEN: usize = 12;
/// The fewest bytes an encoded attribute takes: name length, tag, and a
/// one-byte value (an empty string).
const MIN_ATTR_LEN: usize = 3;
/// The fewest bytes a name of the table takes: its length and one byte.
const MIN_NAME_LEN: usize = 2;

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
    out.extend_from_slice(&(INCOMPAT_COORDS | INCOMPAT_NAMES).to_le_bytes());
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
        let access = Features {
            compat: flags >> 12,
            ro_compat: (flags >> 8) & 0xf,
            incompat: flags & 0xff,
        }
        .check(SDF_KNOWN, writable)?;
        if self.names() && !self.coords() {
            return Err(SdfError::Format(
                "a name table without coordinate fields".into(),
            ));
        }
        Ok(access)
    }

    /// True when the file's index entries carry coordinate fields.
    pub fn coords(self) -> bool {
        self.flags & INCOMPAT_COORDS != 0
    }

    /// True when the file's index opens with a name table and derives its
    /// offsets.
    pub fn names(self) -> bool {
        self.flags & INCOMPAT_NAMES != 0
    }

    /// How the index's entries are laid out.
    pub(crate) fn shape(self) -> Shape {
        match (self.coords(), self.names()) {
            (_, true) => Shape::Names,
            (true, false) => Shape::Fields,
            (false, false) => Shape::Attrs,
        }
    }
}

/// How a file's index entries are laid out, by its superblock's bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    /// Neither bit (a file from before the coordinate fields): offsets
    /// stored, coordinates in `iteration`/`source` attributes.
    Attrs,
    /// [`INCOMPAT_COORDS`]: offsets stored, coordinates as fields.
    Fields,
    /// Both bits: a name table, coordinate fields, offsets derived.
    Names,
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

/// What an entry's path field holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathField<'a> {
    /// A free-form path.
    Free(&'a str),
    /// The id of a name in the file's table: the path is
    /// `/iter-{iteration}/rank-{source}/{name}` of the entry's fields.
    Name(u32),
}

/// One index entry, borrowed from what the writer holds: the one encoder
/// of an entry.
#[derive(Debug, Clone, Copy)]
pub struct Entry<'a> {
    /// Its path, or its name's id.
    pub path: PathField<'a>,
    /// Logical layout of the (uncompressed) data.
    pub layout: &'a Layout,
    /// Stored (possibly compressed) payload length in bytes.
    pub stored_len: u64,
    /// CRC32 of the stored payload bytes.
    pub crc: u32,
    /// Filter pipeline spec applied at write time (`""` = none).
    pub filter: &'a str,
    /// Chunk size in elements along dimension 0 (0 = contiguous).
    pub chunk_dim0: u64,
    /// Iteration coordinate ([`NO_COORD`] when absent).
    pub iteration: u32,
    /// Source (client rank) coordinate ([`NO_COORD`] when absent).
    pub source: u32,
    /// Attributes.
    pub attrs: &'a [(String, AttrValue)],
}

impl Entry<'_> {
    /// Serializes this entry as a file written now lays it out.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self.path {
            PathField::Free(path) => {
                varint::write_u64((path.len() as u64) << 1, out);
                out.extend_from_slice(path.as_bytes());
            }
            PathField::Name(id) => {
                varint::write_u64(u64::from(id) << 1 | 1, out);
            }
        }
        out.push(self.layout.dtype.tag());
        varint::write_u64(self.layout.dims.len() as u64, out);
        for &d in &self.layout.dims {
            varint::write_u64(d, out);
        }
        varint::write_u64(self.stored_len, out);
        out.extend_from_slice(&self.crc.to_le_bytes());
        write_str(self.filter, out);
        varint::write_u64(self.chunk_dim0, out);
        write_coord(self.iteration, out);
        write_coord(self.source, out);
        varint::write_u64(self.attrs.len() as u64, out);
        for (name, value) in self.attrs {
            write_str(name, out);
            out.push(value.tag());
            match value {
                AttrValue::I64(v) => out.extend_from_slice(&v.to_le_bytes()),
                AttrValue::F64(v) => out.extend_from_slice(&v.to_le_bytes()),
                AttrValue::Str(s) => write_str(s, out),
            }
        }
    }
}

/// True for a name the table may hold: non-empty, without `/`.
pub(crate) fn valid_name(name: &str) -> bool {
    !name.is_empty() && !name.contains('/')
}

/// The path of variable `name` at `(iteration, source)`.
pub(crate) fn canonical_path(name: &str, iteration: u32, source: u32) -> String {
    format!("/iter-{iteration}/rank-{source}/{name}")
}

/// `(name, iteration, source)` when `path` is exactly what
/// [`canonical_path`] renders of them, with both coordinates present.
pub(crate) fn parse_canonical(path: &str) -> Option<(&str, u32, u32)> {
    fn coord(digits: &str) -> Option<u32> {
        let canonical = digits.bytes().all(|b| b.is_ascii_digit())
            && (digits == "0" || !digits.starts_with('0'));
        digits.parse().ok().filter(|&c| canonical && c != NO_COORD)
    }
    let (iteration, rest) = path.strip_prefix("/iter-")?.split_once('/')?;
    let (source, name) = rest.strip_prefix("rank-")?.split_once('/')?;
    valid_name(name).then_some((name, coord(iteration)?, coord(source)?))
}

/// The last segment of `path`: the variable a query keys it by.
pub(crate) fn variable_of(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .filter(|s| !s.is_empty())
        .unwrap_or(path)
}

fn write_str(s: &str, out: &mut Vec<u8>) {
    varint::write_u64(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

/// The next `len` bytes of `bytes`, borrowed.
fn take<'a>(bytes: &'a [u8], off: &mut usize, len: u64) -> Result<&'a [u8]> {
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| off.checked_add(len))
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| SdfError::Format("truncated string body".into()))?;
    let raw = &bytes[*off..end];
    *off = end;
    Ok(raw)
}

/// A length-prefixed byte string, borrowed from `bytes`.
pub(crate) fn read_raw<'a>(bytes: &'a [u8], off: &mut usize) -> Result<&'a [u8]> {
    let len = varint::read_u64(bytes, off)
        .ok_or_else(|| SdfError::Format("truncated string length".into()))?;
    take(bytes, off, len)
}

fn utf8(raw: &[u8]) -> Result<&str> {
    std::str::from_utf8(raw).map_err(|_| SdfError::Format("invalid UTF-8 in string".into()))
}

/// A length-prefixed UTF-8 string, borrowed from `bytes`.
fn read_str<'a>(bytes: &'a [u8], off: &mut usize) -> Result<&'a str> {
    utf8(read_raw(bytes, off)?)
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

/// The name table that opens an index under [`INCOMPAT_NAMES`], each name
/// checked (non-empty, without `/`; [`SectionBuilder`] refuses a name
/// twice). A count its bytes cannot hold is refused before anything is
/// sized by it.
///
/// [`SectionBuilder`]: crate::query::SectionBuilder
pub(crate) fn read_names<'a>(bytes: &'a [u8], off: &mut usize) -> Result<Vec<&'a str>> {
    let count = varint::read_u64(bytes, off)
        .ok_or_else(|| SdfError::Format("truncated name count".into()))?;
    let left = bytes.len() - *off;
    if count > (left / MIN_NAME_LEN) as u64 {
        return Err(SdfError::Format(format!(
            "name count {count} exceeds what its {left} bytes can hold"
        )));
    }
    let mut names = Vec::new();
    for _ in 0..count {
        let name = read_str(bytes, off)?;
        if !valid_name(name) {
            return Err(SdfError::Format(format!(
                "name {name:?} of the table is empty or holds '/'"
            )));
        }
        names.push(name);
    }
    Ok(names)
}

/// An attribute value as it lies in the index bytes.
pub(crate) enum RawAttr<'a> {
    I64(i64),
    F64(f64),
    Str(&'a str),
}

impl RawAttr<'_> {
    pub(crate) fn owned(self) -> AttrValue {
        match self {
            RawAttr::I64(v) => AttrValue::I64(v),
            RawAttr::F64(v) => AttrValue::F64(v),
            RawAttr::Str(s) => AttrValue::Str(s.to_string()),
        }
    }
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

/// An index entry as it lies in the index bytes, every field checked.
/// Nothing is copied but the extents, which go to the caller's arena, so
/// skimming an index allocates nothing per entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EntryRef<'a> {
    pub path: PathField<'a>,
    pub dtype: DataType,
    /// The stored offset; `None` where offsets are derived.
    pub offset: Option<u64>,
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
    /// extents to `dims`. Where the entries carry no coordinate fields
    /// (`Shape::Attrs`), the `iteration` and `source` attributes stand
    /// in for them, and every attribute is checked and skipped.
    pub(crate) fn skim(
        bytes: &'a [u8],
        off: &mut usize,
        shape: Shape,
        dims: &mut Vec<u64>,
    ) -> Result<Self> {
        let fields = shape != Shape::Attrs;
        let (mut iteration, mut source) = (None, None);
        let mut e = Self::parse(bytes, off, shape, dims, |name, value| {
            let slot = match name {
                "iteration" if !fields => &mut iteration,
                "source" if !fields => &mut source,
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

    /// The coordinates the lookup key takes: the entry's own (field, or
    /// attribute in a file without fields), else the first `iter-N` /
    /// `rank-N` segment of a free-form path, else [`NO_COORD`]. (A
    /// reference to a name always has both fields.)
    pub(crate) fn coords(&self) -> (u32, u32) {
        let from_path = |prefix: &str| match self.path {
            PathField::Free(path) => path
                .split('/')
                .find_map(|seg| seg.strip_prefix(prefix))
                .and_then(|n| n.parse::<u32>().ok()),
            PathField::Name(_) => None,
        };
        let iteration = self.iteration.or_else(|| from_path("iter-"));
        let source = self.source.or_else(|| from_path("rank-"));
        (iteration.unwrap_or(NO_COORD), source.unwrap_or(NO_COORD))
    }

    /// Parses the entry at `off` as `shape` lays it out, advancing past
    /// it: appends its extents to `dims`, hands each attribute to `attr`,
    /// and returns the rest.
    pub(crate) fn parse(
        bytes: &'a [u8],
        off: &mut usize,
        shape: Shape,
        dims: &mut Vec<u64>,
        mut attr: impl FnMut(&'a str, RawAttr<'a>),
    ) -> Result<Self> {
        let path = if shape == Shape::Names {
            let field = varint::read_u64(bytes, off)
                .ok_or_else(|| SdfError::Format("truncated path field".into()))?;
            match (field & 1, u32::try_from(field >> 1)) {
                (0, _) => PathField::Free(utf8(take(bytes, off, field >> 1)?)?),
                (_, Ok(id)) => PathField::Name(id),
                (_, Err(_)) => {
                    return Err(SdfError::Format(format!(
                        "name reference {} exceeds u32",
                        field >> 1
                    )))
                }
            }
        } else {
            PathField::Free(read_str(bytes, off)?)
        };
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
        let offset = match shape {
            Shape::Names => None,
            Shape::Attrs | Shape::Fields => Some(
                varint::read_u64(bytes, off)
                    .ok_or_else(|| SdfError::Format("truncated offset".into()))?,
            ),
        };
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
        let (iteration, source) = if shape == Shape::Attrs {
            (None, None)
        } else {
            (
                read_coord(bytes, off, "iteration")?,
                read_coord(bytes, off, "source")?,
            )
        };
        if let (PathField::Name(id), None, _) | (PathField::Name(id), _, None) =
            (path, iteration, source)
        {
            return Err(SdfError::Format(format!(
                "name reference {id} without both coordinate fields"
            )));
        }
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

/// An index as a writer builds it, one dataset at a time: the name table
/// and the entries, each encoded as its dataset is written, and what
/// keeps two datasets from one path.
#[derive(Debug, Default)]
pub(crate) struct IndexBuf {
    /// The name table's names, encoded end to end.
    names: Vec<u8>,
    /// Each name's id.
    ids: HashMap<Box<str>, u32>,
    /// `(name id, iteration, source)` of each dataset stored by name.
    named: HashSet<(u32, u32, u32)>,
    /// Each free-form path.
    free: HashSet<Box<str>>,
    /// The entries, encoded end to end.
    entries: Vec<u8>,
    count: usize,
}

impl IndexBuf {
    /// Claims `/iter-{iteration}/rank-{source}/{name}` for a dataset
    /// stored by name, and returns the name's id.
    pub(crate) fn claim_name(&mut self, name: &str, iteration: u32, source: u32) -> Result<u32> {
        if !valid_name(name) {
            return Err(SdfError::Usage(format!(
                "variable name {name:?} must be non-empty and hold no '/'"
            )));
        }
        if iteration == NO_COORD || source == NO_COORD {
            return Err(SdfError::Usage(format!(
                "a dataset of '{name}' stored by name needs both coordinates"
            )));
        }
        let duplicate = || {
            let path = canonical_path(name, iteration, source);
            SdfError::Usage(format!("duplicate dataset path '{path}'"))
        };
        // A free-form path can spell the same path: rendered only in the
        // rare file that holds both kinds.
        if !self.free.is_empty()
            && self
                .free
                .contains(canonical_path(name, iteration, source).as_str())
        {
            return Err(duplicate());
        }
        let id = match self.ids.get(name) {
            Some(&id) => id,
            None => {
                let id = self.ids.len() as u32;
                write_str(name, &mut self.names);
                self.ids.insert(name.into(), id);
                id
            }
        };
        if !self.named.insert((id, iteration, source)) {
            return Err(duplicate());
        }
        Ok(id)
    }

    /// Claims the free-form `path`.
    pub(crate) fn claim_path(&mut self, path: &str) -> Result<()> {
        let named = parse_canonical(path)
            .and_then(|(name, iteration, source)| Some((*self.ids.get(name)?, iteration, source)));
        if named.is_some_and(|key| self.named.contains(&key)) || !self.free.insert(path.into()) {
            return Err(SdfError::Usage(format!("duplicate dataset path '{path}'")));
        }
        Ok(())
    }

    /// Appends the entry of a dataset whose path was claimed.
    pub(crate) fn push(&mut self, entry: &Entry<'_>) {
        entry.encode(&mut self.entries);
        self.count += 1;
    }

    /// Entries pushed so far.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Hands the index's bytes to `sink`, in order, in parts.
    pub(crate) fn write(&self, mut sink: impl FnMut(&[u8]) -> Result<()>) -> Result<()> {
        let mut count = Vec::new();
        varint::write_u64(self.ids.len() as u64, &mut count);
        sink(&count)?;
        sink(&self.names)?;
        count.clear();
        varint::write_u64(self.count as u64, &mut count);
        sink(&count)?;
        sink(&self.entries)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn layout() -> Layout {
        Layout::new(DataType::F32, &[44, 44, 200])
    }

    fn attrs() -> Attrs {
        vec![
            ("iteration".into(), AttrValue::I64(3)),
            ("unit".into(), AttrValue::Str("K".into())),
            ("dx".into(), AttrValue::F64(500.0)),
        ]
    }

    fn sample<'a>(layout: &'a Layout, attrs: &'a [(String, AttrValue)]) -> Entry<'a> {
        Entry {
            path: PathField::Free("/iter-3/rank-7/theta"),
            layout,
            stored_len: 6789,
            crc: 0xDEADBEEF,
            filter: "precision16|lzss",
            chunk_dim0: 0,
            iteration: 3,
            source: NO_COORD,
            attrs,
        }
    }

    type Attrs = Vec<(String, AttrValue)>;

    /// `e` parsed back: the entry, its extents and its attributes.
    fn decode(bytes: &[u8], shape: Shape) -> Result<(EntryRef<'_>, Vec<u64>, Attrs)> {
        let (mut dims, mut attrs) = (Vec::new(), Vec::new());
        let mut off = 0;
        let e = EntryRef::parse(bytes, &mut off, shape, &mut dims, |n, v| {
            attrs.push((n.to_string(), v.owned()))
        })?;
        assert_eq!(off, bytes.len(), "the whole entry is read");
        Ok((e, dims, attrs))
    }

    /// `e` as a file of `shape` (`Attrs` or `Fields`) stores it: a plain
    /// path, the offset after the extents, fields only under `Fields`.
    pub(crate) fn old_bytes(e: &Entry<'_>, offset: u64, shape: Shape) -> Vec<u8> {
        let PathField::Free(path) = e.path else {
            panic!("old shapes store paths")
        };
        let mut out = Vec::new();
        write_str(path, &mut out);
        out.push(e.layout.dtype.tag());
        varint::write_u64(e.layout.dims.len() as u64, &mut out);
        for &d in &e.layout.dims {
            varint::write_u64(d, &mut out);
        }
        varint::write_u64(offset, &mut out);
        varint::write_u64(e.stored_len, &mut out);
        out.extend_from_slice(&e.crc.to_le_bytes());
        write_str(e.filter, &mut out);
        varint::write_u64(e.chunk_dim0, &mut out);
        if shape == Shape::Fields {
            write_coord(e.iteration, &mut out);
            write_coord(e.source, &mut out);
        }
        // The attributes end the entry in every shape.
        let (mut with, mut without) = (Vec::new(), Vec::new());
        e.encode(&mut with);
        Entry { attrs: &[], ..*e }.encode(&mut without);
        out.extend_from_slice(&with[without.len() - 1..]);
        out
    }

    #[test]
    fn entry_roundtrip() {
        let (layout, attrs) = (layout(), attrs());
        let e = sample(&layout, &attrs);
        for path in [PathField::Free("/iter-3/rank-7/theta"), PathField::Name(5)] {
            let e = Entry {
                path,
                source: 7,
                ..e
            };
            let mut buf = Vec::new();
            e.encode(&mut buf);
            let (r, dims, back) = decode(&buf, Shape::Names).unwrap();
            assert_eq!(r.path, path);
            assert_eq!(dims, layout.dims);
            assert_eq!(back, attrs);
            assert_eq!(
                (r.dtype, r.offset, r.stored_len, r.crc, r.filter),
                (DataType::F32, None, 6789, 0xDEADBEEF, "precision16|lzss")
            );
            assert_eq!((r.iteration, r.source), (Some(3), Some(7)));
        }
        // A reference to a name costs one byte where the path cost 21.
        let lens: Vec<usize> = [PathField::Free("/iter-3/rank-7/theta"), PathField::Name(5)]
            .map(|path| {
                let mut buf = Vec::new();
                Entry { path, ..e }.encode(&mut buf);
                buf.len()
            })
            .to_vec();
        assert_eq!(lens[0] - lens[1], 20);
    }

    #[test]
    fn a_name_reference_needs_both_coordinate_fields() {
        let layout = layout();
        let e = Entry {
            path: PathField::Name(0),
            ..sample(&layout, &[])
        };
        let mut buf = Vec::new();
        e.encode(&mut buf);
        let err = decode(&buf, Shape::Names).unwrap_err();
        assert!(err.to_string().contains("without both"), "{err}");
    }

    #[test]
    fn coordinates_come_from_the_field_then_the_attribute_then_the_path() {
        let layout = layout();
        let mut attrs = attrs();
        attrs.push(("source".into(), AttrValue::I64(9)));
        let e = sample(&layout, &attrs);
        fn skim(bytes: &[u8], shape: Shape) -> (&str, (u32, u32)) {
            let r = EntryRef::skim(bytes, &mut 0, shape, &mut Vec::new()).unwrap();
            let PathField::Free(path) = r.path else {
                panic!("a free path")
            };
            (variable_of(path), r.coords())
        }
        // With fields the attributes are plain: source falls to the path.
        let mut buf = Vec::new();
        e.encode(&mut buf);
        assert_eq!(skim(&buf, Shape::Names), ("theta", (3, 7)));
        assert_eq!(
            skim(&old_bytes(&e, 8, Shape::Fields), Shape::Fields),
            ("theta", (3, 7))
        );
        // Without fields the attributes stand in, then the path.
        let no_fields = Entry {
            iteration: NO_COORD,
            ..e
        };
        let old = old_bytes(&no_fields, 8, Shape::Attrs);
        assert_eq!(skim(&old, Shape::Attrs), ("theta", (3, 9)));
        // The owned decode keeps fields and attributes apart.
        let (r, _, back) = decode(&old, Shape::Attrs).unwrap();
        assert_eq!((r.iteration, r.source, r.offset), (None, None, Some(8)));
        assert_eq!(back, attrs);
        let bare = old_bytes(
            &Entry {
                attrs: &[],
                ..no_fields
            },
            8,
            Shape::Attrs,
        );
        assert_eq!(skim(&bare, Shape::Attrs), ("theta", (3, 7)));
        // Neither field nor path segment: no coordinate.
        let odd = Entry {
            path: PathField::Free("/iter-x/v"),
            iteration: NO_COORD,
            ..e
        };
        buf.clear();
        odd.encode(&mut buf);
        assert_eq!(skim(&buf, Shape::Names), ("v", (NO_COORD, NO_COORD)));
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
    fn only_the_exact_rendering_is_canonical() {
        for (name, it, src) in [("theta", 0, 0), ("v07", 12, 3), ("a.b", NO_COORD - 1, 9)] {
            let path = canonical_path(name, it, src);
            assert_eq!(parse_canonical(&path), Some((name, it, src)), "{path}");
        }
        for odd in [
            "/iter-01/rank-0/v",
            "/iter-+1/rank-0/v",
            "/iter-1/rank-0/",
            "/iter-1/rank-0/a/b",
            "/iter-1/rank-/v",
            "/iter-4294967295/rank-0/v",
            "/iter-4294967296/rank-0/v",
            "/x/iter-1/rank-0/v",
            "/iter-1/v",
        ] {
            assert_eq!(parse_canonical(odd), None, "{odd}");
        }
    }

    #[test]
    fn attr_count_is_held_to_the_bytes_left() {
        // Three attributes claimed, room for one of the smallest.
        let layout = layout();
        let mut buf = Vec::new();
        sample(&layout, &[]).encode(&mut buf);
        buf.pop();
        buf.extend_from_slice(&[3, 0, 2, 0, 0, 2]);
        let err = decode(&buf, Shape::Names).unwrap_err();
        assert!(
            err.to_string().contains("implausible attr count 3"),
            "{err}"
        );
    }

    #[test]
    fn the_name_table_is_checked_and_held_to_its_bytes() {
        let table = |count: u64, names: &[&str]| {
            let mut buf = Vec::new();
            varint::write_u64(count, &mut buf);
            for n in names {
                write_str(n, &mut buf);
            }
            buf
        };
        let ok = table(2, &["theta", "v00"]);
        let mut off = 0;
        assert_eq!(read_names(&ok, &mut off).unwrap(), ["theta", "v00"]);
        assert_eq!(off, ok.len());
        for (bytes, what) in [
            (table(9, &["theta"]), "name count 9"),
            (table(2, &["", "abc"]), "empty or holds"),
            (table(1, &["a/b"]), "empty or holds"),
            (table(2, &["theta"]), "truncated"),
        ] {
            let err = read_names(&bytes, &mut 0).unwrap_err();
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
    }

    #[test]
    fn the_index_buffer_claims_each_path_once() {
        let mut index = IndexBuf::default();
        assert_eq!(index.claim_name("v", 1, 2).unwrap(), 0);
        assert_eq!(index.claim_name("w", 1, 2).unwrap(), 1);
        assert_eq!(index.claim_name("v", 1, 3).unwrap(), 0);
        for err in [
            index.claim_name("v", 1, 2).unwrap_err(),
            index.claim_path("/iter-1/rank-2/v").unwrap_err(),
            index.claim_name("", 1, 2).unwrap_err(),
            index.claim_name("a/b", 1, 2).unwrap_err(),
            index.claim_name("x", NO_COORD, 2).unwrap_err(),
        ] {
            assert!(matches!(err, SdfError::Usage(_)), "{err}");
        }
        index.claim_path("/iter-9/rank-2/v").unwrap();
        index.claim_path("/free").unwrap();
        assert!(index.claim_path("/free").is_err());
        let err = index.claim_name("v", 9, 2).unwrap_err();
        assert!(err.to_string().contains("'/iter-9/rank-2/v'"), "{err}");
        let mut bytes = Vec::new();
        index
            .write(|part| {
                bytes.extend_from_slice(part);
                Ok(())
            })
            .unwrap();
        // Two names, then no entries: none was pushed.
        assert_eq!(bytes, [2, 1, b'v', 1, b'w', 0]);
    }

    #[test]
    fn superblock_roundtrip() {
        let mut buf = Vec::new();
        write_superblock(&mut buf);
        assert_eq!(buf.len() as u64, SUPERBLOCK_LEN);
        let sb = Superblock::validate(&buf).unwrap();
        assert!(sb.coords() && sb.names());
        assert_eq!(sb.shape(), Shape::Names);
        assert_eq!(sb.check_features(true).unwrap(), Access::ReadWrite);
        buf[0] = b'X';
        assert!(Superblock::validate(&buf).is_err());
    }

    #[test]
    fn feature_bits_refuse_restrict_or_pass_by_class() {
        let with = |flags: u16| Superblock { flags };
        // Files from before the coordinate fields, and before the names.
        assert_eq!(with(0).shape(), Shape::Attrs);
        assert_eq!(with(INCOMPAT_COORDS).shape(), Shape::Fields);
        assert_eq!(with(0).check_features(false).unwrap(), Access::ReadWrite);
        let err = with(INCOMPAT_NAMES).check_features(false).unwrap_err();
        assert!(err.to_string().contains("without coordinate"), "{err}");
        let known = INCOMPAT_COORDS | INCOMPAT_NAMES;
        for bit in 2..8 {
            let err = with(known | 1 << bit).check_features(false).unwrap_err();
            assert!(
                err.to_string().contains("unknown incompat"),
                "bit {bit}: {err}"
            );
        }
        // A build that knows only the coordinate fields refuses a file
        // with a name table.
        let coords_only = Features {
            compat: 0,
            ro_compat: 0,
            incompat: u32::from(INCOMPAT_COORDS),
        };
        let err = Features {
            incompat: u32::from(known),
            ..coords_only
        }
        .check(coords_only, false)
        .unwrap_err();
        assert!(err.to_string().contains("0x2"), "{err}");
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
        let (layout, attrs) = (layout(), attrs());
        let mut buf = Vec::new();
        sample(&layout, &attrs).encode(&mut buf);
        for cut in [1, 5, buf.len() / 2, buf.len() - 1] {
            assert!(
                EntryRef::parse(
                    &buf[..cut],
                    &mut 0,
                    Shape::Names,
                    &mut Vec::new(),
                    |_, _| {}
                )
                .is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn arbitrary_entry_roundtrip(
            path in "[a-z/]{1,32}",
            name in proptest::option::of(0u32..1 << 20),
            dims in proptest::collection::vec(0u64..1000, 0..5),
            stored_len in any::<u64>(),
            crc in any::<u32>(),
            iteration in 0..NO_COORD,
            source in 0..NO_COORD,
            attr_i in any::<i64>(),
            attr_s in "[ -~]{0,16}",
        ) {
            let layout = Layout::new(DataType::F64, &dims);
            let attrs = vec![("i".into(), AttrValue::I64(attr_i)), ("s".into(), AttrValue::Str(attr_s))];
            let path = name.map_or(PathField::Free(&path), PathField::Name);
            let e = Entry {
                path,
                layout: &layout,
                stored_len,
                crc,
                filter: "",
                chunk_dim0: 0,
                iteration,
                source,
                attrs: &attrs,
            };
            let mut buf = Vec::new();
            e.encode(&mut buf);
            let (r, back_dims, back_attrs) = decode(&buf, Shape::Names).unwrap();
            prop_assert_eq!(r.path, path);
            prop_assert_eq!(back_dims, dims);
            prop_assert_eq!((r.stored_len, r.crc), (stored_len, crc));
            prop_assert_eq!((r.iteration, r.source), (Some(iteration), Some(source)));
            prop_assert_eq!(back_attrs, attrs);
        }
    }
}
