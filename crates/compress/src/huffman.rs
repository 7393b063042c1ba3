//! Canonical order-0 Huffman coding.
//!
//! The entropy-coding stage that makes the LZSS chain "gzip-like": LZ77
//! finds repeats, Huffman squeezes the biased byte distribution that
//! remains. On floating-point field data — where low mantissa bytes are
//! near-random but exponents and high mantissa bytes are heavily skewed —
//! most of gzip's gain comes from this stage, which is why the paper's
//! 187 % ratio is unreachable with LZ alone.
//!
//! ## Stream format
//!
//! ```text
//! varint(input_len) | 256 × u8 code lengths | packed MSB-first codewords
//! ```
//!
//! Codes are *canonical*: both sides derive identical codewords from the
//! length table alone.

use crate::varint;
use crate::{Codec, CodecError};

/// Maximum codeword length. Counts are scaled down until the Huffman tree
/// fits, so the decoder can rely on this bound.
const MAX_BITS: usize = 15;

/// The canonical Huffman codec (stateless).
#[derive(Debug, Clone, Copy, Default)]
pub struct Huffman;

/// Computes Huffman code lengths from symbol frequencies (heap algorithm).
fn code_lengths(freqs: &[u64; 256]) -> [u8; 256] {
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        index: usize, // < 256: leaf; ≥ 256: internal
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Min-heap via reversal; tie-break on index for determinism.
            other
                .weight
                .cmp(&self.weight)
                .then(other.index.cmp(&self.index))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut lengths = [0u8; 256];
    let mut scale = 0u32;
    loop {
        let mut heap = std::collections::BinaryHeap::new();
        let mut parents: Vec<usize> = Vec::new(); // internal nodes' parents
        let mut leaf_parent = [usize::MAX; 256];
        let mut internal = 0usize;
        for (sym, &f) in freqs.iter().enumerate() {
            let f = (f >> scale) + u64::from(f > 0 && (f >> scale) == 0);
            if f > 0 {
                heap.push(Node {
                    weight: f,
                    index: sym,
                });
            }
        }
        let n_symbols = heap.len();
        if n_symbols == 0 {
            return lengths;
        }
        if n_symbols == 1 {
            let only = heap.pop().expect("one symbol").index;
            lengths[only] = 1;
            return lengths;
        }
        while heap.len() > 1 {
            let a = heap.pop().expect("≥2");
            let b = heap.pop().expect("≥2");
            let parent = 256 + internal;
            internal += 1;
            parents.push(usize::MAX); // filled when this node gets a parent
            for child in [&a, &b] {
                if child.index < 256 {
                    leaf_parent[child.index] = parent;
                } else {
                    parents[child.index - 256] = parent;
                }
            }
            heap.push(Node {
                weight: a.weight + b.weight,
                index: parent,
            });
        }
        // Depth of each leaf = chain length to the root.
        let mut too_deep = false;
        for sym in 0..256 {
            if leaf_parent[sym] == usize::MAX {
                lengths[sym] = 0;
                continue;
            }
            let mut depth = 1u8;
            let mut p = leaf_parent[sym];
            while parents[p - 256] != usize::MAX {
                p = parents[p - 256];
                depth += 1;
            }
            lengths[sym] = depth;
            if depth as usize > MAX_BITS {
                too_deep = true;
            }
        }
        if !too_deep {
            return lengths;
        }
        // Flatten the distribution and retry (rare: needs extreme skew).
        scale += 1;
    }
}

/// Canonical codewords from lengths: `(code, len)` per symbol.
fn canonical_codes(lengths: &[u8; 256]) -> [(u16, u8); 256] {
    let mut codes = [(0u16, 0u8); 256];
    let mut pairs: Vec<(u8, usize)> = lengths
        .iter()
        .enumerate()
        .filter(|(_, &l)| l > 0)
        .map(|(s, &l)| (l, s))
        .collect();
    pairs.sort();
    let mut code = 0u16;
    let mut prev_len = 0u8;
    for (len, sym) in pairs {
        code <<= len - prev_len;
        codes[sym] = (code, len);
        code += 1;
        prev_len = len;
    }
    codes
}

impl Codec for Huffman {
    fn name(&self) -> &'static str {
        "huff"
    }

    fn encode(&self, input: &[u8], out: &mut Vec<u8>) -> usize {
        let start_len = out.len();
        varint::write_u64(input.len() as u64, out);
        let mut freqs = [0u64; 256];
        for &b in input {
            freqs[b as usize] += 1;
        }
        let lengths = code_lengths(&freqs);
        out.extend_from_slice(&lengths);
        let codes = canonical_codes(&lengths);

        let mut acc: u64 = 0;
        let mut bits: u32 = 0;
        for &b in input {
            let (code, len) = codes[b as usize];
            debug_assert!(len > 0, "symbol without code");
            acc = (acc << len) | u64::from(code);
            bits += u32::from(len);
            while bits >= 8 {
                bits -= 8;
                out.push((acc >> bits) as u8);
            }
        }
        if bits > 0 {
            out.push((acc << (8 - bits)) as u8);
        }
        out.len() - start_len
    }

    fn decode_into(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
        limit: usize,
    ) -> Result<usize, CodecError> {
        let start_len = out.len();
        let mut off = 0usize;
        let n = varint::read_u64(input, &mut off)
            .ok_or_else(|| CodecError::new("huff", "truncated length"))?;
        if off + 256 > input.len() {
            return Err(CodecError::new("huff", "truncated length table"));
        }
        // The declared length sizes the output, so it is checked against
        // the caller's limit and against what the bitstream can hold (a
        // symbol takes at least one bit) before anything is reserved.
        let n = usize::try_from(n)
            .ok()
            .filter(|&n| n <= limit)
            .ok_or_else(|| CodecError::over_limit("huff"))?;
        if n > (input.len() - off - 256).saturating_mul(8) {
            return Err(CodecError::new("huff", "truncated bitstream"));
        }
        let mut lengths = [0u8; 256];
        lengths.copy_from_slice(&input[off..off + 256]);
        off += 256;
        if lengths.iter().any(|&l| l as usize > MAX_BITS) {
            return Err(CodecError::new("huff", "code length exceeds limit"));
        }
        if n == 0 {
            return Ok(0);
        }
        let codes = canonical_codes(&lengths);
        // first_code[len] / first_index[len] / counts[len] tables for
        // canonical decode (computed once; the bit loop is table lookups).
        let mut pairs: Vec<(u8, usize)> = lengths
            .iter()
            .enumerate()
            .filter(|(_, &l)| l > 0)
            .map(|(s, &l)| (l, s))
            .collect();
        pairs.sort();
        if pairs.is_empty() {
            return Err(CodecError::new("huff", "no symbols but nonzero length"));
        }
        let symbols: Vec<u8> = pairs.iter().map(|&(_, s)| s as u8).collect();

        let mut first_code = [0u32; MAX_BITS + 2];
        let mut first_index = [0usize; MAX_BITS + 2];
        let mut counts = [0usize; MAX_BITS + 2];
        for &(l, _) in &pairs {
            counts[l as usize] += 1;
        }
        {
            let mut idx = 0usize;
            let mut code = 0u32;
            for len in 1..=MAX_BITS {
                first_code[len] = code;
                first_index[len] = idx;
                idx += counts[len];
                code = (code + counts[len] as u32) << 1;
            }
            let _ = codes;
        }

        out.reserve(n);
        let mut produced = 0usize;
        let mut code = 0u32;
        let mut len = 0usize;
        for &byte in &input[off..] {
            for bit in (0..8).rev() {
                code = (code << 1) | u32::from((byte >> bit) & 1);
                len += 1;
                if len > MAX_BITS {
                    return Err(CodecError::new("huff", "invalid codeword"));
                }
                let idx_in_len = code.wrapping_sub(first_code[len]) as usize;
                if idx_in_len < counts[len] {
                    out.push(symbols[first_index[len] + idx_in_len]);
                    produced += 1;
                    if produced == n {
                        return Ok(out.len() - start_len);
                    }
                    code = 0;
                    len = 0;
                }
            }
        }
        Err(CodecError::new("huff", "truncated bitstream"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let c = Huffman;
        c.decode_vec(&c.encode_vec(data)).expect("decode ok")
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(roundtrip(&[]), Vec::<u8>::new());
        assert_eq!(roundtrip(&[42]), vec![42]);
        assert_eq!(roundtrip(&[7; 1000]), vec![7; 1000]);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 90% zeros, 10% mixed: entropy ≈ 0.6 bits/byte ≪ 8.
        let mut data = vec![0u8; 9000];
        data.extend((0..1000).map(|i| (i % 7 + 1) as u8));
        let enc = Huffman.encode_vec(&data);
        assert!(
            enc.len() < data.len() / 3,
            "{} vs {}",
            enc.len(),
            data.len()
        );
        assert_eq!(Huffman.decode_vec(&enc).unwrap(), data);
    }

    #[test]
    fn uniform_random_overhead_is_small() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        let data: Vec<u8> = (0..50_000).map(|_| rand::Rng::gen(&mut rng)).collect();
        let enc = Huffman.encode_vec(&data);
        // 8-bit symbols stay ~8 bits + 257-byte header.
        assert!(enc.len() < data.len() + 400);
        assert_eq!(Huffman.decode_vec(&enc).unwrap(), data);
    }

    #[test]
    fn float_bytes_gain_from_entropy_coding() {
        // f32 field data: constant exponents, noisy low mantissa — the
        // distribution gzip exploits. LZSS finds nothing; Huffman does.
        let mut h = 0x12345u32;
        let mut data = Vec::new();
        for i in 0..20_000 {
            h = h.wrapping_mul(0x01000193) ^ h.rotate_left(13);
            let v = 300.0f32 + (i as f32 * 0.01).sin() + 1e-4 * (h as f32 / u32::MAX as f32);
            data.extend_from_slice(&v.to_le_bytes());
        }
        let huff = Huffman.encode_vec(&data);
        let ratio = crate::paper_ratio_percent(data.len(), huff.len());
        assert!(ratio > 130.0, "huffman ratio only {ratio:.0}%");
        assert_eq!(Huffman.decode_vec(&huff).unwrap(), data);
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let enc = Huffman.encode_vec(b"hello world hello world");
        // Truncated bitstream.
        assert!(Huffman.decode_vec(&enc[..enc.len() - 1]).is_err());
        // Truncated table.
        assert!(Huffman.decode_vec(&enc[..100]).is_err());
        // Bad code length.
        let mut bad = enc.clone();
        bad[1] = 99; // lengths start after the varint(1 byte here)
        assert!(Huffman.decode_vec(&bad).is_err());
    }

    #[test]
    fn a_declared_length_is_checked_before_it_is_reserved() {
        // 2^62 symbols of a one-bit code, 64 bytes of bitstream.
        let mut forged = Vec::new();
        varint::write_u64(1 << 62, &mut forged);
        let mut lengths = [0u8; 256];
        lengths[0] = 1;
        forged.extend_from_slice(&lengths);
        forged.extend_from_slice(&[0; 64]);
        let mut out = Vec::new();
        let err = Huffman.decode_into(&forged, &mut out, 1 << 20).unwrap_err();
        assert_eq!(err, CodecError::over_limit("huff"));
        // Without a limit the bitstream itself is one: 512 bits, 512 symbols.
        assert!(Huffman.decode_into(&forged, &mut out, usize::MAX).is_err());
        assert_eq!(out.capacity(), 0);
        let enc = Huffman.encode_vec(b"hello world");
        assert_eq!(Huffman.decode_into(&enc, &mut out, 11), Ok(11));
        assert!(Huffman.decode_into(&enc, &mut Vec::new(), 10).is_err());
    }

    #[test]
    fn two_symbols_one_bit_each() {
        let data: Vec<u8> = (0..1024)
            .map(|i| if i % 3 == 0 { b'a' } else { b'b' })
            .collect();
        let enc = Huffman.encode_vec(&data);
        // ~1 bit/symbol + header.
        assert!(enc.len() < 1024 / 8 + 300, "{}", enc.len());
        assert_eq!(Huffman.decode_vec(&enc).unwrap(), data);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn roundtrip_random(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            prop_assert_eq!(roundtrip(&data), data);
        }

        #[test]
        fn roundtrip_skewed(data in proptest::collection::vec(
            prop_oneof![9 => Just(0u8), 3 => Just(128u8), 1 => any::<u8>()], 0..4096)) {
            prop_assert_eq!(roundtrip(&data), data);
        }
    }
}
