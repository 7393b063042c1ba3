//! LZ77/LZSS with a hash-chain match finder — the "gzip-like" codec.
//!
//! ## Stream format
//!
//! A sequence of tokens, each introduced by a varint header `h`:
//!
//! * `h = (len << 1) | 0` — *literal block*: `len` verbatim bytes follow.
//! * `h = (len << 1) | 1` — *match*: copy `len` bytes starting `dist` bytes
//!   back in the already-decoded output, where `dist` is the varint that
//!   follows the header. `dist` may be smaller than `len` (overlapping copy,
//!   the classic RLE-via-LZ trick).
//!
//! ## Match finder
//!
//! Greedy parse with one-step lazy matching, like gzip's levels 4–6: a hash
//! of the next `HASH_LEN` bytes indexes chains of previous positions;
//! chains are capped at `max_chain` probes. The window is capped at
//! [`Lzss::window`] (32 KiB by default, same as deflate).
//!
//! ## Kernels
//!
//! The parse above *is* the format as far as stored files go: a different
//! parse is a different stream. `reference.rs` (test-only) holds the
//! byte-at-a-time kernels that define it; the ones here produce the same
//! bytes faster, shaped by what a quantised f32 field turns into — about
//! 3 200 tokens per 16 KiB block, two thirds of them matches of 4–7 bytes at
//! distances of 128 and more, the rest literals of one or two bytes:
//!
//! * the encoder's hash and chain tables outlive the call (`Scratch`), a
//!   position is hashed once for its search and its insertion, and a
//!   candidate is measured eight bytes a step — one `xor` for a match that
//!   ends inside the first word;
//! * the decoder writes through a cursor into a buffer sized once, and moves
//!   a token of at most eight bytes as one word.

#[cfg(test)]
mod reference;
#[cfg(test)]
mod tests;

use crate::varint;
use crate::{Codec, CodecError};
use std::cell::RefCell;

/// Bytes hashed to index the chain table.
const HASH_LEN: usize = 4;
/// Number of hash buckets (power of two).
const HASH_SIZE: usize = 1 << 15;
/// Minimum match length worth a token.
const MIN_MATCH: usize = 4;
/// Maximum match length (keeps headers to ≤3 varint bytes).
const MAX_MATCH: usize = 1 << 16;
/// The widest a token of the shape real fields produce gets: moved as one
/// word where the buffers have the room.
const WORD: usize = 8;

/// LZSS codec with tunable search effort.
#[derive(Debug, Clone)]
pub struct Lzss {
    /// Sliding-window size in bytes; matches never reach further back. A
    /// power of two, at most 2³⁰.
    pub window: usize,
    /// Maximum hash-chain probes per position (search effort / speed knob).
    pub max_chain: usize,
}

impl Default for Lzss {
    fn default() -> Self {
        Lzss {
            window: 32 * 1024,
            max_chain: 64,
        }
    }
}

impl Lzss {
    /// A faster, weaker configuration (shorter chains).
    pub fn fast() -> Self {
        Lzss {
            window: 32 * 1024,
            max_chain: 8,
        }
    }

    /// A slower, stronger configuration.
    pub fn best() -> Self {
        Lzss {
            window: 64 * 1024,
            max_chain: 512,
        }
    }
}

/// The first [`HASH_LEN`] bytes of `bytes` as one integer: what is hashed,
/// and what a candidate must share to be a match at all.
fn first_word(bytes: &[u8]) -> u32 {
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

fn hash(word: u32) -> usize {
    (word.wrapping_mul(0x9E37_79B1) >> (32 - 15)) as usize & (HASH_SIZE - 1)
}

/// Index of the first byte in which two little-endian words differ, given
/// their (non-zero) `xor`: the lowest set bit is in that byte.
fn first_difference(diff: u64) -> usize {
    (diff.trailing_zeros() / 8) as usize
}

/// Longest common prefix of `a` and `b`, at most `max` (which neither is
/// shorter than), eight bytes a step.
fn common_prefix(a: &[u8], b: &[u8], max: usize) -> usize {
    let (a, b) = (&a[..max], &b[..max]);
    let (a_words, a_rest) = a.as_chunks::<WORD>();
    let (b_words, b_rest) = b.as_chunks::<WORD>();
    let mut n = 0;
    for (x, y) in a_words.iter().zip(b_words) {
        let diff = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        if diff != 0 {
            return n + first_difference(diff);
        }
        n += WORD;
    }
    n + a_rest
        .iter()
        .zip(b_rest)
        .take_while(|(x, y)| x == y)
        .count()
}

/// The match finder's tables, kept from one `encode` to the next on the
/// thread that runs it (256 KiB at the default window) instead of being
/// allocated and filled for every block.
///
/// `head[h]` is the most recent position with hash `h`, `prev[p & mask]` the
/// position before `p` in its chain. A position is stored as a *stamp*:
/// stamps grow by one per input byte across calls and never repeat, so what
/// an earlier call left behind reads as further back than the current input
/// reaches — "none", the same as the `0` the tables start with — and nothing
/// is cleared between calls. Before stamps would pass `u32::MAX`,
/// [`Finder::restamp`] rewrites the tables around the current position.
struct Scratch {
    head: Vec<u32>,
    prev: Vec<u32>,
    /// Stamp of the next call's position 0: above every stamp in the tables,
    /// and at least 1.
    next: u32,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            head: Vec::new(),
            prev: Vec::new(),
            next: 1,
        })
    };
}

/// Stamps stay below this at the start of every token; one token inserts at
/// most `MAX_MATCH + 1` positions, so none reaches `u32::MAX`.
const STAMP_LIMIT: usize = u32::MAX as usize - 2 * MAX_MATCH;

/// One `encode` call's view of the tables.
struct Finder<'a> {
    input: &'a [u8],
    head: &'a mut [u32],
    prev: &'a mut [u32],
    window: usize,
    max_chain: usize,
    /// Position `p` has stamp `p + delta` (kept wrapped: `delta` is
    /// "negative" after a restamp far into a huge input).
    delta: usize,
}

impl Finder<'_> {
    fn wide_stamp(&self, pos: usize) -> usize {
        pos.wrapping_add(self.delta)
    }

    fn stamp(&self, pos: usize) -> u32 {
        self.wide_stamp(pos) as u32
    }

    /// How far back a match at `pos` may start: the window, or less near
    /// the start of the input.
    fn reach(&self, pos: usize) -> u32 {
        pos.min(self.window) as u32
    }

    /// Where `pos` goes in the tables — its hash and the head of that
    /// chain — or `None` within `HASH_LEN` of the end, where nothing is
    /// hashed and no match can start.
    fn bucket(&self, pos: usize) -> Option<(usize, u32)> {
        let h = hash(first_word(self.input.get(pos..pos + HASH_LEN)?));
        Some((h, self.head[h]))
    }

    /// Makes `pos` the head of chain `h`, in front of `entry`, its head so
    /// far.
    fn link(&mut self, pos: usize, h: usize, entry: u32) {
        self.prev[pos & (self.window - 1)] = entry;
        self.head[h] = self.stamp(pos);
    }

    fn insert(&mut self, pos: usize) {
        if let Some((h, entry)) = self.bucket(pos) {
            self.link(pos, h, entry);
        }
    }

    /// The best match at `pos` that is longer than `beat` bytes, as
    /// `(distance, len)`, walking the chain from `entry`: the longest among
    /// its first `max_chain` positions, the nearest of those on a tie.
    ///
    /// The best only ever moves to a *strictly* longer candidate, which is
    /// what lets the lazy probe start from `beat = len + 1` instead of
    /// `MIN_MATCH - 1` (it would ignore anything shorter anyway) and lets a
    /// walk stop once a match runs to the end of the input.
    #[inline(always)]
    fn walk(&self, pos: usize, mut entry: u32, beat: usize) -> Option<(usize, usize)> {
        let tail = &self.input[pos..];
        let max = tail.len().min(MAX_MATCH);
        if beat >= max {
            return None;
        }
        let (now, reach) = (self.stamp(pos), self.reach(pos));
        let (mut best_len, mut best_dist) = (beat, 0u32);
        let tail_word = tail.first_chunk::<WORD>().map(|w| u64::from_le_bytes(*w));
        for _ in 0..self.max_chain {
            let dist = now.wrapping_sub(entry);
            if dist.wrapping_sub(1) >= reach {
                // Never written, left by an earlier call, or out of the
                // window — and everything further down the chain is older.
                break;
            }
            let at = pos - dist as usize;
            let candidate = &self.input[at..];
            // The matches of real fields end inside the first word: one
            // `xor` measures them.
            let len = match (candidate.first_chunk::<WORD>(), tail_word) {
                (Some(word), Some(tail_word)) => match u64::from_le_bytes(*word) ^ tail_word {
                    0 => WORD + common_prefix(&candidate[WORD..], &tail[WORD..], max - WORD),
                    diff => first_difference(diff),
                },
                _ => common_prefix(candidate, tail, max),
            };
            if len > best_len {
                (best_len, best_dist) = (len, dist);
                if len == max {
                    break;
                }
            }
            entry = self.prev[at & (self.window - 1)];
        }
        (best_dist != 0).then_some((best_dist as usize, best_len))
    }

    /// Rewrites every entry relative to `pos` so stamps start low again:
    /// what a match at `pos` could still reach keeps its distance, the rest
    /// becomes 0. No search can tell the difference — it stops at the first
    /// entry out of reach either way.
    fn restamp(&mut self, pos: usize) {
        let (now, reach) = (self.stamp(pos), self.reach(pos));
        for entry in self.head.iter_mut().chain(self.prev.iter_mut()) {
            let dist = now.wrapping_sub(*entry);
            *entry = if dist.wrapping_sub(1) < reach {
                reach + 1 - dist
            } else {
                0
            };
        }
        self.delta = (reach as usize + 1).wrapping_sub(pos);
    }
}

fn flush_literals(out: &mut Vec<u8>, lits: &[u8]) {
    if lits.is_empty() {
        return;
    }
    varint::write_u64((lits.len() as u64) << 1, out);
    out.extend_from_slice(lits);
}

impl Scratch {
    fn encode(&mut self, codec: &Lzss, input: &[u8], out: &mut Vec<u8>) {
        if self.head.is_empty() {
            self.head = vec![0; HASH_SIZE];
        }
        if self.prev.len() < codec.window {
            self.prev.resize(codec.window, 0);
        }
        let mut finder = Finder {
            input,
            head: &mut self.head,
            prev: &mut self.prev,
            window: codec.window,
            max_chain: codec.max_chain,
            delta: self.next as usize,
        };
        let mut lit_start = 0usize;
        let mut pos = 0usize;
        while pos < input.len() {
            if finder.wide_stamp(pos) > STAMP_LIMIT {
                finder.restamp(pos);
            }
            // Within `HASH_LEN` of the end nothing matches or is inserted.
            let Some((h, entry)) = finder.bucket(pos) else {
                break;
            };
            let found = finder.walk(pos, entry, MIN_MATCH - 1);
            finder.link(pos, h, entry);
            let Some((mut dist, mut len)) = found else {
                pos += 1;
                continue;
            };
            // One-step lazy matching: if the next position has a match more
            // than one byte longer, this byte goes out as a literal. (That
            // next position is then the one place a match starts without
            // being inserted — part of the parse, so kept.)
            let next = finder.bucket(pos + 1);
            if let Some(better) = next.and_then(|(_, entry)| finder.walk(pos + 1, entry, len + 1)) {
                pos += 1;
                (dist, len) = better;
            }
            flush_literals(out, &input[lit_start..pos]);
            varint::write_u64(((len as u64) << 1) | 1, out);
            varint::write_u64(dist as u64, out);
            for p in pos + 1..pos + len {
                finder.insert(p);
            }
            pos += len;
            lit_start = pos;
        }
        flush_literals(out, &input[lit_start..]);
        self.next = finder.stamp(input.len());
    }
}

/// Makes `out` at least `need` bytes longer than the cursor `w`, never
/// longer than `end` (where the caller's limit puts the end of `out`):
/// doubling, so a stream that expands a thousandfold costs a handful of
/// reallocations, and exact, so the limit bounds the allocation too.
fn grow(out: &mut Vec<u8>, w: usize, need: usize, end: usize) -> Result<(), CodecError> {
    if need > end - w {
        return Err(CodecError::over_limit("lzss"));
    }
    let len = (w + need).max(out.len().saturating_mul(2)).min(end);
    out.reserve_exact(len - out.len());
    out.resize(len, 0);
    Ok(())
}

/// A token of the shape real fields are made of, moved as one word: a
/// one-byte header for at most [`WORD`] bytes — literals, or a match from at
/// least a word back at a distance of one or two varint bytes — with a
/// word's room after the cursor on both sides, so neither copy needs to know
/// the exact length. Returns the cursors past it, or `None` for
/// [`decode_tokens`] to take the token the general way (which is also where
/// every error is found: nothing here fails, it only declines).
///
/// The bytes a word copy moves beyond `len` are the next token's, or stale
/// output; they land past the cursor, where the next token overwrites them.
fn short_token(
    input: &[u8],
    off: usize,
    out: &mut [u8],
    w: usize,
    start: usize,
) -> Option<(usize, usize)> {
    let next: &[u8; 1 + WORD] = input.get(off..off + 1 + WORD)?.try_into().ok()?;
    let len = usize::from(next[0] >> 1);
    if len > WORD || w + WORD > out.len() {
        return None;
    }
    if next[0] & 1 == 0 {
        out[w..w + WORD].copy_from_slice(&next[1..]);
        return Some((off + 1 + len, w + len));
    }
    let (dist, used) = match (next[1], next[2]) {
        (a, _) if a < 0x80 => (usize::from(a), 2),
        (a, b) if b < 0x80 => (usize::from(a & 0x7f) | usize::from(b) << 7, 3),
        _ => return None,
    };
    if dist < WORD || dist > w - start {
        return None;
    }
    out.copy_within(w - dist..w - dist + WORD, w);
    Some((off + used, w + len))
}

/// Decodes `input` into `out[start..]`, writing through a cursor (what lies
/// beyond it is scratch); returns the cursor, the end of what was decoded.
fn decode_tokens(
    input: &[u8],
    out: &mut Vec<u8>,
    start: usize,
    end: usize,
) -> Result<usize, CodecError> {
    let mut w = start;
    let mut off = 0usize;
    while off < input.len() {
        if let Some(past) = short_token(input, off, out, w, start) {
            (off, w) = past;
            continue;
        }
        let header = varint::read_u64(input, &mut off)
            .ok_or_else(|| CodecError::new("lzss", "truncated token header"))?;
        let len = (header >> 1) as usize;
        if header & 1 == 0 {
            let stop = off
                .checked_add(len)
                .ok_or_else(|| CodecError::new("lzss", "length overflow"))?;
            if stop > input.len() {
                return Err(CodecError::new("lzss", "truncated literal block"));
            }
            if len > out.len() - w {
                grow(out, w, len, end)?;
            }
            out[w..w + len].copy_from_slice(&input[off..stop]);
            w += len;
            off = stop;
        } else {
            let dist = varint::read_u64(input, &mut off)
                .ok_or_else(|| CodecError::new("lzss", "truncated match distance"))?
                as usize;
            let produced = w - start;
            if dist == 0 || dist > produced {
                return Err(CodecError::new(
                    "lzss",
                    format!("match distance {dist} out of range (produced {produced})"),
                ));
            }
            if len > MAX_MATCH {
                return Err(CodecError::new("lzss", format!("match too long: {len}")));
            }
            if len > out.len() - w {
                grow(out, w, len, end)?;
            }
            // `out[src..w]` repeats with period `dist`; each pass copies all
            // there is of it, doubling it, so an overlapping match
            // (`dist < len`) takes log₂ passes and any other takes one.
            let src = w - dist;
            let mut copied = 0;
            while copied < len {
                let n = (dist + copied).min(len - copied);
                out.copy_within(src..src + n, w + copied);
                copied += n;
            }
            w += len;
        }
    }
    Ok(w)
}

impl Codec for Lzss {
    fn name(&self) -> &'static str {
        "lzss"
    }

    fn encode(&self, input: &[u8], out: &mut Vec<u8>) -> usize {
        assert!(
            self.window.is_power_of_two() && self.window <= 1 << 30,
            "window must be a power of two, at most 2^30"
        );
        let start_len = out.len();
        SCRATCH.with_borrow_mut(|scratch| scratch.encode(self, input, out));
        out.len() - start_len
    }

    fn decode_into(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
        limit: usize,
    ) -> Result<usize, CodecError> {
        let start = out.len();
        let end = start.saturating_add(limit);
        // Sized once, exactly, when the caller's limit is the length it
        // expects; without one, twice the input is the guess to double from.
        let guess = input.len().saturating_mul(2).max(64);
        grow(out, start, guess.min(end - start), end)?;
        let decoded = decode_tokens(input, out, start, end);
        // Drop the scratch beyond the cursor — or, on an error, everything
        // this call wrote.
        out.truncate(decoded.as_ref().map_or(start, |&w| w));
        decoded.map(|w| w - start)
    }
}
