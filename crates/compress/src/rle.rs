//! Byte-oriented run-length encoding.
//!
//! Format: a sequence of packets. Each packet starts with a varint header
//! `h`; the low bit selects the packet kind:
//!
//! * `h = (len << 1) | 1` — a *run*: the next byte repeats `len` times.
//! * `h = (len << 1) | 0` — a *literal block*: the next `len` bytes are
//!   copied verbatim.
//!
//! Runs shorter than [`MIN_RUN`] are not worth a packet boundary and are
//! folded into literals. This codec shines on ghost zones and constant
//! fields and is nearly free: both directions are single linear passes.

use crate::varint;
use crate::{Codec, CodecError};

/// Minimum run length that is encoded as a run packet.
pub const MIN_RUN: usize = 4;

/// The run-length codec (stateless).
#[derive(Debug, Clone, Copy, Default)]
pub struct Rle;

fn push_literals(out: &mut Vec<u8>, lits: &[u8]) {
    if lits.is_empty() {
        return;
    }
    varint::write_u64((lits.len() as u64) << 1, out);
    out.extend_from_slice(lits);
}

impl Codec for Rle {
    fn name(&self) -> &'static str {
        "rle"
    }

    fn encode(&self, input: &[u8], out: &mut Vec<u8>) -> usize {
        let start_len = out.len();
        let mut i = 0;
        let mut lit_start = 0;
        while i < input.len() {
            let b = input[i];
            let mut j = i + 1;
            while j < input.len() && input[j] == b {
                j += 1;
            }
            let run = j - i;
            if run >= MIN_RUN {
                push_literals(out, &input[lit_start..i]);
                varint::write_u64(((run as u64) << 1) | 1, out);
                out.push(b);
                lit_start = j;
            }
            i = j;
        }
        push_literals(out, &input[lit_start..]);
        out.len() - start_len
    }

    fn decode_into(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
        limit: usize,
    ) -> Result<usize, CodecError> {
        let start_len = out.len();
        let mut off = 0;
        while off < input.len() {
            let header = varint::read_u64(input, &mut off)
                .ok_or_else(|| CodecError::new("rle", "truncated packet header"))?;
            let len = (header >> 1) as usize;
            // Checked before either packet kind allocates: a run is four
            // bytes on the wire whatever length it claims.
            if len > limit - (out.len() - start_len) {
                return Err(CodecError::over_limit("rle"));
            }
            if header & 1 == 1 {
                let byte = *input
                    .get(off)
                    .ok_or_else(|| CodecError::new("rle", "truncated run byte"))?;
                off += 1;
                out.resize(out.len() + len, byte);
            } else {
                let end = off
                    .checked_add(len)
                    .ok_or_else(|| CodecError::new("rle", "length overflow"))?;
                if end > input.len() {
                    return Err(CodecError::new("rle", "truncated literal block"));
                }
                out.extend_from_slice(&input[off..end]);
                off = end;
            }
        }
        Ok(out.len() - start_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let c = Rle;
        let enc = c.encode_vec(data);
        c.decode_vec(&enc).expect("decode ok")
    }

    #[test]
    fn empty() {
        assert_eq!(roundtrip(&[]), Vec::<u8>::new());
        assert!(Rle.encode_vec(&[]).is_empty());
    }

    #[test]
    fn all_same_compresses_hard() {
        let data = vec![7u8; 100_000];
        let enc = Rle.encode_vec(&data);
        assert!(
            enc.len() < 8,
            "expected a single run packet, got {}",
            enc.len()
        );
        assert_eq!(Rle.decode_vec(&enc).unwrap(), data);
    }

    #[test]
    fn short_runs_become_literals() {
        let data = b"aabbccdd"; // runs of 2 — below MIN_RUN
        let enc = Rle.encode_vec(data);
        // One literal packet: 1 header byte + 8 literal bytes.
        assert_eq!(enc.len(), 9);
        assert_eq!(Rle.decode_vec(&enc).unwrap(), data);
    }

    #[test]
    fn mixed_runs_and_literals() {
        let mut data = Vec::new();
        data.extend_from_slice(b"prefix");
        data.extend_from_slice(&[0u8; 500]);
        data.extend_from_slice(b"suffix");
        assert_eq!(roundtrip(&data), data);
        assert!(Rle.encode_vec(&data).len() < 30);
    }

    #[test]
    fn incompressible_overhead_is_bounded() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let enc = Rle.encode_vec(&data);
        // Worst case: one literal packet covering everything.
        assert!(
            enc.len() <= data.len() + 3,
            "{} vs {}",
            enc.len(),
            data.len()
        );
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        // Run packet claiming bytes that are not there.
        assert!(Rle.decode_vec(&[0x03]).is_err()); // run of 1, missing byte
        assert!(Rle.decode_vec(&[0x08, b'a']).is_err()); // literal of 4, 1 present
                                                         // Truncated varint.
        assert!(Rle.decode_vec(&[0x80]).is_err());
    }

    #[test]
    fn a_run_past_the_limit_is_refused_before_it_is_allocated() {
        // Four bytes on the wire, half a terabyte claimed.
        let mut forged = Vec::new();
        varint::write_u64((1 << 39 << 1) | 1, &mut forged);
        forged.push(0);
        let mut out = Vec::new();
        let err = Rle.decode_into(&forged, &mut out, 1 << 20).unwrap_err();
        assert_eq!(err, CodecError::over_limit("rle"));
        assert_eq!(out.capacity(), 0);
        // The limit is on what this call appends, and exact.
        let enc = Rle.encode_vec(&[5u8; 1000]);
        let mut out = b"kept".to_vec();
        assert_eq!(Rle.decode_into(&enc, &mut out, 1000), Ok(1000));
        assert_eq!(out.len(), 1004);
        assert!(Rle.decode_into(&enc, &mut Vec::new(), 999).is_err());
        let literals = Rle.encode_vec(b"abcdefgh");
        assert!(Rle.decode_into(&literals, &mut Vec::new(), 7).is_err());
    }

    #[test]
    fn run_exactly_min_run_encoded_as_run() {
        let data = vec![9u8; MIN_RUN];
        let enc = Rle.encode_vec(&data);
        assert_eq!(enc.len(), 2); // header + byte
        assert_eq!(Rle.decode_vec(&enc).unwrap(), data);
    }

    proptest! {
        #[test]
        fn roundtrip_random(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            prop_assert_eq!(roundtrip(&data), data);
        }

        #[test]
        fn roundtrip_runny(
            segs in proptest::collection::vec((any::<u8>(), 1usize..64), 0..64),
        ) {
            let mut data = Vec::new();
            for (b, n) in segs {
                data.extend(std::iter::repeat_n(b, n));
            }
            prop_assert_eq!(roundtrip(&data), data);
        }
    }
}
