//! Composable codec pipelines.
//!
//! A [`Pipeline`] is an ordered list of [`Stage`]s applied left-to-right on
//! encode and right-to-left on decode. The stage list mirrors what Damaris'
//! dedicated cores do in spare time (paper §IV-D): optionally halve floats
//! to 16 bits, then run a general-purpose compressor.
//!
//! The precision stage is *lossy* in value space but, once applied, the
//! remaining byte stream round-trips exactly; `decode` therefore returns the
//! 16-bit representation's bytes re-expanded to f32, matching what an
//! offline visualization consumer of the paper's output would read.

use crate::precision;
use crate::{codec_by_name, Codec, CodecError};
use std::borrow::Cow;

/// One stage of a pipeline.
pub enum Stage {
    /// A lossless byte codec.
    Codec(Box<dyn Codec>),
    /// f32 → binary16 size reduction. Input length must be a multiple of 4
    /// on encode and of 2 on decode.
    Precision16,
}

impl Stage {
    /// Stage name as used in configuration strings.
    pub fn name(&self) -> &str {
        match self {
            Stage::Codec(c) => c.name(),
            Stage::Precision16 => "precision16",
        }
    }
}

impl std::fmt::Debug for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Stage({})", self.name())
    }
}

/// Per-run accounting of what the pipeline achieved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionStats {
    pub input_bytes: usize,
    pub output_bytes: usize,
}

impl CompressionStats {
    /// Paper-style ratio: original as % of compressed (187% = 1.87×).
    pub fn ratio_percent(&self) -> f64 {
        crate::paper_ratio_percent(self.input_bytes, self.output_bytes)
    }

    /// Plain fraction saved, in `[0, 1)` for effective compression.
    pub fn space_saving(&self) -> f64 {
        if self.input_bytes == 0 {
            0.0
        } else {
            1.0 - self.output_bytes as f64 / self.input_bytes as f64
        }
    }
}

/// An ordered codec chain.
pub struct Pipeline {
    stages: Vec<Stage>,
}

impl Pipeline {
    /// Empty pipeline (identity).
    pub fn new() -> Self {
        Pipeline { stages: Vec::new() }
    }

    /// Parses a pipe-separated spec such as `"precision16|lzss"` or `"rle"`.
    ///
    /// Stage names: any codec name known to [`codec_by_name`], plus
    /// `precision16`.
    pub fn from_spec(spec: &str) -> Result<Self, CodecError> {
        let mut stages = Vec::new();
        for part in spec.split('|') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if part == "precision16" {
                stages.push(Stage::Precision16);
            } else if let Some(c) = codec_by_name(part) {
                stages.push(Stage::Codec(c));
            } else {
                return Err(CodecError::new(
                    "pipeline",
                    format!("unknown stage '{part}' in spec '{spec}'"),
                ));
            }
        }
        Ok(Pipeline { stages })
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True when the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Whether any stage is lossy (i.e. `Precision16` present).
    pub fn is_lossy(&self) -> bool {
        self.stages.iter().any(|s| matches!(s, Stage::Precision16))
    }

    /// Spec string that [`Pipeline::from_spec`] would parse back.
    pub fn spec(&self) -> String {
        self.stages
            .iter()
            .map(Stage::name)
            .collect::<Vec<_>>()
            .join("|")
    }

    /// Runs all stages forward. Returns the encoded bytes and stats.
    pub fn encode(&self, input: &[u8]) -> Result<(Vec<u8>, CompressionStats), CodecError> {
        // The first stage reads the caller's bytes where they lie.
        let mut current = Cow::Borrowed(input);
        for stage in &self.stages {
            current = Cow::Owned(match stage {
                Stage::Codec(c) => c.encode_vec(&current),
                Stage::Precision16 => precision::reduce_f32_bytes(&current).ok_or_else(|| {
                    CodecError::new(
                        "precision16",
                        format!("input length {} is not a multiple of 4", current.len()),
                    )
                })?,
            });
        }
        let stats = CompressionStats {
            input_bytes: input.len(),
            output_bytes: current.len(),
        };
        Ok((current.into_owned(), stats))
    }

    /// Runs all stages backward, for input the caller trusts. For lossy
    /// pipelines the result is the re-expanded (precision-reduced) data,
    /// not the original bytes.
    pub fn decode(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        self.decode_bounded(input, usize::MAX)
    }

    /// [`decode`](Self::decode) for input that is not trusted: fails the
    /// moment the result would be longer than `limit` — the length the
    /// caller expects — having allocated no more than that for it. The
    /// stream between two stages is held to what the later one could have
    /// been given: half the limit under `precision16`, and under a codec
    /// its [`Codec::max_encoded_len`] of the limit.
    pub fn decode_bounded(&self, input: &[u8], limit: usize) -> Result<Vec<u8>, CodecError> {
        // limits[i]: the most stage i can have been given to encode.
        let mut limits = Vec::with_capacity(self.stages.len());
        let mut bound = limit;
        for stage in &self.stages {
            limits.push(bound);
            bound = match stage {
                Stage::Codec(c) => c.max_encoded_len(bound),
                Stage::Precision16 => bound / 2,
            };
        }
        let mut current = Cow::Borrowed(input);
        for (stage, &limit) in self.stages.iter().zip(&limits).rev() {
            current = Cow::Owned(match stage {
                Stage::Codec(c) => {
                    let mut decoded = Vec::new();
                    c.decode_into(&current, &mut decoded, limit)?;
                    decoded
                }
                Stage::Precision16 => {
                    if current.len() > limit / 2 {
                        return Err(CodecError::over_limit("precision16"));
                    }
                    precision::expand_f32_bytes(&current).ok_or_else(|| {
                        CodecError::new(
                            "precision16",
                            format!("encoded length {} is not a multiple of 2", current.len()),
                        )
                    })?
                }
            });
        }
        if current.len() > limit {
            // Only a pipeline without stages gets here: its input is its output.
            return Err(CodecError::over_limit("pipeline"));
        }
        Ok(current.into_owned())
    }
}

/// Shown as its spec, e.g. `Pipeline(precision16|lzss)`.
impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Pipeline({})", self.spec())
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn field_bytes(n: usize) -> Vec<u8> {
        // Smooth synthetic field, the paper's compressible payload.
        let mut bytes = Vec::with_capacity(n * 4);
        for i in 0..n {
            let x = i as f32 / n as f32;
            let v = 300.0 + 4.0 * (x * 20.0).sin();
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let p = Pipeline::new();
        let data = b"abc".to_vec();
        let (enc, stats) = p.encode(&data).unwrap();
        assert_eq!(enc, data);
        assert_eq!(stats.ratio_percent(), 100.0);
        assert_eq!(p.decode(&enc).unwrap(), data);
    }

    #[test]
    fn spec_roundtrip() {
        let p = Pipeline::from_spec("precision16|lzss").unwrap();
        assert_eq!(p.spec(), "precision16|lzss");
        assert!(p.is_lossy());
        let q = Pipeline::from_spec("rle").unwrap();
        assert!(!q.is_lossy());
        assert!(Pipeline::from_spec("nope").is_err());
        assert!(Pipeline::from_spec("").unwrap().is_empty());
    }

    #[test]
    fn lossless_chain_roundtrips_exactly() {
        let p = Pipeline::from_spec("lzss|rle").unwrap();
        let data = field_bytes(4096);
        let (enc, _) = p.encode(&data).unwrap();
        assert_eq!(p.decode(&enc).unwrap(), data);
    }

    #[test]
    fn precision_chain_halves_then_compresses() {
        let p = Pipeline::from_spec("precision16|lzss").unwrap();
        let data = field_bytes(16_384);
        let (enc, stats) = p.encode(&data).unwrap();
        // 2× from precision alone; LZSS should add more on a smooth field.
        assert!(
            stats.ratio_percent() > 200.0,
            "ratio only {:.0}%",
            stats.ratio_percent()
        );
        let back = p.decode(&enc).unwrap();
        assert_eq!(back.len(), data.len());
        // Values must be within the binary16 relative error bound.
        for (o, b) in data.chunks_exact(4).zip(back.chunks_exact(4)) {
            let ov = f32::from_le_bytes([o[0], o[1], o[2], o[3]]);
            let bv = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            assert!(((ov - bv) / ov).abs() <= crate::precision::MAX_RELATIVE_ERROR);
        }
    }

    #[test]
    fn precision_rejects_bad_lengths() {
        let p = Pipeline::from_spec("precision16").unwrap();
        assert!(p.encode(&[1, 2, 3]).is_err());
        assert!(p.decode(&[1]).is_err());
    }

    #[test]
    fn bounded_decode_takes_the_expected_length_and_nothing_less() {
        let data = field_bytes(2048);
        for spec in [
            "lzss",
            "rle",
            "huff",
            "lzss|huff",
            "rle|lzss",
            "precision16|lzss|huff",
            "",
        ] {
            let p = Pipeline::from_spec(spec).unwrap();
            let (enc, _) = p.encode(&data).unwrap();
            let back = p.decode_bounded(&enc, data.len()).unwrap();
            assert_eq!(back, p.decode(&enc).unwrap(), "spec '{spec}'");
            assert_eq!(back.len(), data.len());
            assert!(
                p.decode_bounded(&enc, data.len() - 1).is_err(),
                "spec '{spec}'"
            );
        }
    }

    #[test]
    fn no_codec_expands_past_its_declared_bound() {
        // What each codec does worst on: nothing repeats (literals only,
        // flat histogram); a four-byte match three varint bytes back after
        // every literal; runs of MIN_RUN between single literals.
        let mut far_matches = Vec::new();
        for i in 0..6000u32 {
            far_matches.extend_from_slice(&i.wrapping_mul(2_654_435_761).to_le_bytes());
        }
        let again = far_matches.clone();
        for (i, word) in again.chunks_exact(4).enumerate() {
            far_matches.extend_from_slice(word);
            far_matches.push(i as u8 ^ 0x5a);
        }
        let short_runs: Vec<u8> = (0..4000u32)
            .flat_map(|i| [i as u8; 4].into_iter().chain([!(i as u8)]))
            .collect();
        let inputs = [
            (0..=255u8).cycle().take(5000).collect::<Vec<u8>>(),
            far_matches,
            short_runs,
            vec![9u8; 3],
            Vec::new(),
        ];
        for name in ["identity", "rle", "lzss", "huff"] {
            let codec = codec_by_name(name).unwrap();
            for input in &inputs {
                let encoded = codec.encode_vec(input).len();
                let bound = codec.max_encoded_len(input.len());
                assert!(
                    encoded <= bound,
                    "{name}: {} -> {encoded} > {bound}",
                    input.len()
                );
            }
        }
    }

    #[test]
    fn stats_space_saving() {
        let s = CompressionStats {
            input_bytes: 100,
            output_bytes: 25,
        };
        assert_eq!(s.ratio_percent(), 400.0);
        assert!((s.space_saving() - 0.75).abs() < 1e-12);
        let zero = CompressionStats {
            input_bytes: 0,
            output_bytes: 0,
        };
        assert_eq!(zero.space_saving(), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn lossless_specs_roundtrip(
            data in proptest::collection::vec(any::<u8>(), 0..1024),
            spec in proptest::sample::select(vec!["rle", "lzss", "lzss|rle", "rle|lzss", "identity|rle"]),
        ) {
            let p = Pipeline::from_spec(spec).unwrap();
            let (enc, _) = p.encode(&data).unwrap();
            prop_assert_eq!(p.decode(&enc).unwrap(), data);
        }

        #[test]
        fn lossy_pipeline_is_idempotent(values in proptest::collection::vec(-1000.0f32..1000.0, 0..256)) {
            // Applying encode∘decode twice must give the same bytes as once:
            // the second precision reduction is exact on already-reduced data.
            let p = Pipeline::from_spec("precision16|lzss").unwrap();
            let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            let (enc1, _) = p.encode(&bytes).unwrap();
            let once = p.decode(&enc1).unwrap();
            let (enc2, _) = p.encode(&once).unwrap();
            let twice = p.decode(&enc2).unwrap();
            prop_assert_eq!(once, twice);
        }
    }
}
