//! The LZSS kernels as they stood before the word-moving rewrite, kept
//! verbatim as the definition of "the same stream": `tests.rs` requires the
//! shipping encoder to produce these bytes and the shipping decoder to accept
//! and reject what this one does. Byte-at-a-time, two fresh `i64` tables per
//! call — slow and obviously right. Test-only; nothing ships from here.

use crate::varint;
use crate::CodecError;

/// Bytes hashed to index the chain table.
const HASH_LEN: usize = 4;
/// Number of hash buckets (power of two).
const HASH_SIZE: usize = 1 << 15;
/// Minimum match length worth a token.
const MIN_MATCH: usize = 4;
/// Maximum match length (keeps headers to ≤3 varint bytes).
const MAX_MATCH: usize = 1 << 16;

/// The reference codec: the same two knobs as [`super::Lzss`].
pub(super) struct Reference {
    window: usize,
    max_chain: usize,
}

impl Reference {
    pub(super) fn of(codec: &super::Lzss) -> Self {
        Reference {
            window: codec.window,
            max_chain: codec.max_chain,
        }
    }

    fn hash(window: &[u8]) -> usize {
        debug_assert!(window.len() >= HASH_LEN);
        let v = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
        (v.wrapping_mul(0x9E37_79B1) >> (32 - 15)) as usize & (HASH_SIZE - 1)
    }

    /// Longest common prefix of `input[a..]` and `input[b..]`, capped.
    fn match_len(input: &[u8], a: usize, b: usize, cap: usize) -> usize {
        let max = cap.min(input.len() - b);
        let mut n = 0;
        while n < max && input[a + n] == input[b + n] {
            n += 1;
        }
        n
    }

    /// Finds the best match for position `pos`, returning `(distance, len)`.
    fn find_match(
        &self,
        input: &[u8],
        pos: usize,
        head: &[i64],
        prev: &[i64],
    ) -> Option<(usize, usize)> {
        if pos + MIN_MATCH > input.len() {
            return None;
        }
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut cand = head[Self::hash(&input[pos..])];
        let mut probes = self.max_chain;
        let window_floor = pos.saturating_sub(self.window);
        while cand >= 0 && probes > 0 {
            let c = cand as usize;
            if c < window_floor {
                break;
            }
            let len = Self::match_len(input, c, pos, MAX_MATCH);
            if len > best_len {
                best_len = len;
                best_dist = pos - c;
                if len >= MAX_MATCH {
                    break;
                }
            }
            cand = prev[c & (self.window - 1)];
            probes -= 1;
        }
        (best_len >= MIN_MATCH).then_some((best_dist, best_len))
    }
}

fn flush_literals(out: &mut Vec<u8>, lits: &[u8]) {
    if lits.is_empty() {
        return;
    }
    varint::write_u64((lits.len() as u64) << 1, out);
    out.extend_from_slice(lits);
}

impl Reference {
    pub(super) fn encode(&self, input: &[u8], out: &mut Vec<u8>) -> usize {
        assert!(
            self.window.is_power_of_two(),
            "window must be a power of two"
        );
        let start_len = out.len();
        // head[h] = most recent position with hash h; prev[pos & mask] = the
        // position before it in the chain. Both store -1 for "none".
        let mut head = vec![-1i64; HASH_SIZE];
        let mut prev = vec![-1i64; self.window];

        let insert = |head: &mut Vec<i64>, prev: &mut Vec<i64>, input: &[u8], p: usize| {
            if p + HASH_LEN <= input.len() {
                let h = Self::hash(&input[p..]);
                prev[p & (self.window - 1)] = head[h];
                head[h] = p as i64;
            }
        };

        let mut lit_start = 0usize;
        let mut pos = 0usize;
        while pos < input.len() {
            match self.find_match(input, pos, &head, &prev) {
                Some((dist, mut len)) => {
                    // One-step lazy matching: if the next position has a
                    // strictly longer match, emit this byte as a literal.
                    if pos + 1 < input.len() {
                        insert(&mut head, &mut prev, input, pos);
                        if let Some((d2, l2)) = self.find_match(input, pos + 1, &head, &prev) {
                            if l2 > len + 1 {
                                pos += 1;
                                // Re-enter loop at pos with the better match.
                                let (dist, len) = (d2, l2);
                                flush_literals(out, &input[lit_start..pos]);
                                varint::write_u64(((len as u64) << 1) | 1, out);
                                varint::write_u64(dist as u64, out);
                                for p in pos + 1..(pos + len).min(input.len()) {
                                    insert(&mut head, &mut prev, input, p);
                                }
                                pos += len;
                                lit_start = pos;
                                continue;
                            }
                        }
                        // The position was already inserted above; account for it.
                        len = len.min(input.len() - pos);
                        flush_literals(out, &input[lit_start..pos]);
                        varint::write_u64(((len as u64) << 1) | 1, out);
                        varint::write_u64(dist as u64, out);
                        for p in pos + 1..(pos + len).min(input.len()) {
                            insert(&mut head, &mut prev, input, p);
                        }
                        pos += len;
                        lit_start = pos;
                    } else {
                        flush_literals(out, &input[lit_start..pos]);
                        varint::write_u64(((len as u64) << 1) | 1, out);
                        varint::write_u64(dist as u64, out);
                        pos += len;
                        lit_start = pos;
                    }
                }
                None => {
                    insert(&mut head, &mut prev, input, pos);
                    pos += 1;
                }
            }
        }
        flush_literals(out, &input[lit_start..]);
        out.len() - start_len
    }

    pub(super) fn decode(&self, input: &[u8], out: &mut Vec<u8>) -> Result<usize, CodecError> {
        let start_len = out.len();
        let mut off = 0usize;
        while off < input.len() {
            let header = varint::read_u64(input, &mut off)
                .ok_or_else(|| CodecError::new("lzss", "truncated token header"))?;
            let len = (header >> 1) as usize;
            if header & 1 == 0 {
                let end = off
                    .checked_add(len)
                    .ok_or_else(|| CodecError::new("lzss", "length overflow"))?;
                if end > input.len() {
                    return Err(CodecError::new("lzss", "truncated literal block"));
                }
                out.extend_from_slice(&input[off..end]);
                off = end;
            } else {
                let dist = varint::read_u64(input, &mut off)
                    .ok_or_else(|| CodecError::new("lzss", "truncated match distance"))?
                    as usize;
                let produced = out.len() - start_len;
                if dist == 0 || dist > produced {
                    return Err(CodecError::new(
                        "lzss",
                        format!("match distance {dist} out of range (produced {produced})"),
                    ));
                }
                if len > MAX_MATCH {
                    return Err(CodecError::new("lzss", format!("match too long: {len}")));
                }
                // Overlapping copy must be byte-by-byte.
                let first = out.len() - dist;
                out.reserve(len);
                for src in first..first + len {
                    let b = out[src];
                    out.push(b);
                }
            }
        }
        Ok(out.len() - start_len)
    }
}
