//! # damaris-compress
//!
//! From-scratch lossless codecs and floating-point precision reduction, the
//! data-reduction toolkit Damaris' dedicated cores run "for free" in their
//! spare time (paper §IV-D: gzip compression at a 187% ratio, and 16-bit
//! precision reduction bringing the combined ratio near 600%).
//!
//! The paper links zlib; this reproduction implements its own codecs so the
//! entire pipeline is auditable Rust:
//!
//! * [`rle`] — byte-oriented run-length encoding. Cheap, effective on
//!   constant regions (ghost zones, zero-filled fields).
//! * [`lzss`] — LZ77/LZSS with a hash-chain match finder and varint-coded
//!   back-references.
//! * [`huffman`] — canonical order-0 Huffman coding; `lzss|huff` is the
//!   full "gzip-like" chain (LZ77 + entropy coding).
//! * [`precision`] — f32 → f16 (IEEE 754 binary16) reduction with
//!   round-to-nearest-even, the paper's "reduce floating point precision to
//!   16 bits for offline visualization".
//! * [`pipeline`] — composable codec chains with ratio accounting.
//!
//! Codecs implement the [`Codec`] trait and register by name so the Damaris
//! XML configuration can select them (`action="compress" using="lzss"`).

pub mod huffman;
pub mod lzss;
pub mod pipeline;
pub mod precision;
pub mod rle;
pub mod varint;

pub use pipeline::{CompressionStats, Pipeline, Stage};

use std::fmt;

/// Error raised while encoding or (more commonly) decoding a byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    pub codec: &'static str,
    pub message: String,
}

impl CodecError {
    pub fn new(codec: &'static str, message: impl Into<String>) -> Self {
        CodecError {
            codec,
            message: message.into(),
        }
    }

    /// The error every bounded decode returns the moment its output would
    /// pass the caller's limit.
    pub fn over_limit(codec: &'static str) -> Self {
        CodecError::new(codec, "decoded output exceeds the caller's limit")
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} codec error: {}", self.codec, self.message)
    }
}

impl std::error::Error for CodecError {}

/// A symmetric byte-stream codec.
///
/// Implementations must satisfy `decode(encode(x)) == x` for every input —
/// the property tests in each module enforce this.
pub trait Codec: Send + Sync {
    /// Stable identifier used in configuration files and format filter
    /// pipelines.
    fn name(&self) -> &'static str;

    /// Compresses `input`, appending to `out`. Returns the number of bytes
    /// appended.
    fn encode(&self, input: &[u8], out: &mut Vec<u8>) -> usize;

    /// Decompresses `input`, appending at most `limit` bytes to `out`, and
    /// returns how many. The stream is untrusted: a decoder fails the moment
    /// its output would pass `limit`, before allocating for it, so a few
    /// forged bytes cannot demand more memory than the caller offered.
    /// Callers that know the decoded length pass exactly that; `usize::MAX`
    /// leaves only what the stream itself can justify.
    fn decode_into(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
        limit: usize,
    ) -> Result<usize, CodecError>;

    /// The most `encode` appends for `input_len` bytes — what lets a
    /// [`Pipeline`] turn a limit on its output into one on the stream
    /// between two stages. The default, twice the input and a table, holds
    /// for every codec here (a literal block never doubles, a match or run
    /// never grows, a Huffman code is at most 15 bits); a codec that can
    /// expand more overrides it.
    fn max_encoded_len(&self, input_len: usize) -> usize {
        input_len.saturating_mul(2).saturating_add(512)
    }

    /// Convenience wrapper returning a fresh buffer.
    fn encode_vec(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        self.encode(input, &mut out);
        out
    }

    /// Convenience wrapper returning a fresh buffer, for input the caller
    /// trusts: no limit but the stream's own.
    fn decode_vec(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.decode_into(input, &mut out, usize::MAX)?;
        Ok(out)
    }
}

/// Looks up a codec implementation by its configuration name.
///
/// Known names: `"rle"`, `"lzss"`, `"huff"`, and `"identity"`.
pub fn codec_by_name(name: &str) -> Option<Box<dyn Codec>> {
    match name {
        "rle" => Some(Box::new(rle::Rle)),
        "huff" => Some(Box::new(huffman::Huffman)),
        "lzss" => Some(Box::new(lzss::Lzss::default())),
        "identity" => Some(Box::new(Identity)),
        _ => None,
    }
}

/// The do-nothing codec; useful as a pipeline baseline and in tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl Codec for Identity {
    fn name(&self) -> &'static str {
        "identity"
    }

    fn encode(&self, input: &[u8], out: &mut Vec<u8>) -> usize {
        out.extend_from_slice(input);
        input.len()
    }

    fn decode_into(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
        limit: usize,
    ) -> Result<usize, CodecError> {
        if input.len() > limit {
            return Err(CodecError::over_limit("identity"));
        }
        out.extend_from_slice(input);
        Ok(input.len())
    }
}

/// Compression ratio expressed the way the paper does: original size as a
/// percentage of the compressed size. A ratio of 187% means the original is
/// 1.87× the size of the compressed stream; 600% means 6×.
pub fn paper_ratio_percent(original: usize, compressed: usize) -> f64 {
    if compressed == 0 {
        return f64::INFINITY;
    }
    original as f64 / compressed as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let data = b"damaris".to_vec();
        let c = Identity;
        assert_eq!(c.decode_vec(&c.encode_vec(&data)).unwrap(), data);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(codec_by_name("rle").unwrap().name(), "rle");
        assert_eq!(codec_by_name("lzss").unwrap().name(), "lzss");
        assert_eq!(codec_by_name("huff").unwrap().name(), "huff");
        assert_eq!(codec_by_name("identity").unwrap().name(), "identity");
        assert!(codec_by_name("gzip").is_none());
    }

    #[test]
    fn paper_ratio_math() {
        assert_eq!(paper_ratio_percent(187, 100), 187.0);
        assert_eq!(paper_ratio_percent(600, 100), 600.0);
        assert!(paper_ratio_percent(1, 0).is_infinite());
    }
}
