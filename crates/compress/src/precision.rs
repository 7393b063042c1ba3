//! IEEE 754 binary16 (half-precision) conversion.
//!
//! The paper reduces floating-point precision to 16 bits before compression
//! when data is destined for offline visualization, pushing the combined
//! compression ratio towards 600%. This module implements f32⇄f16 with
//! round-to-nearest-even, handling subnormals, infinities and NaN.

/// Converts an `f32` to its binary16 bit pattern (round-to-nearest-even).
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf or NaN. Preserve NaN-ness (quiet bit set), signal payload top bits.
        return if mant == 0 {
            sign | 0x7c00
        } else {
            sign | 0x7e00 | ((mant >> 13) as u16 & 0x01ff)
        };
    }

    // Unbiased exponent, then re-biased for binary16 (bias 15).
    let unbiased = exp - 127;
    let half_exp = unbiased + 15;

    if half_exp >= 0x1f {
        // Overflow → infinity.
        return sign | 0x7c00;
    }

    if half_exp <= 0 {
        // Subnormal or zero in binary16.
        if half_exp < -10 {
            // Too small: flush to signed zero.
            return sign;
        }
        // Add the implicit leading 1, then shift right with rounding.
        let full_mant = mant | 0x0080_0000;
        let shift = (14 - half_exp) as u32; // 14..=24
        let half_mant = full_mant >> shift;
        let round_bit = 1u32 << (shift - 1);
        let remainder = full_mant & ((round_bit << 1) - 1);
        let mut h = half_mant as u16;
        if remainder > round_bit || (remainder == round_bit && h & 1 == 1) {
            h += 1; // may carry into the exponent — that is correct behaviour
        }
        return sign | h;
    }

    // Normal case: keep the top 10 mantissa bits with round-to-nearest-even.
    let mut half = ((half_exp as u32) << 10) | (mant >> 13);
    let remainder = mant & 0x1fff;
    if remainder > 0x1000 || (remainder == 0x1000 && half & 1 == 1) {
        half += 1; // may carry into exponent/infinity — still correct
    }
    sign | half as u16
}

/// Converts a binary16 bit pattern back to `f32` (exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = (h >> 10) & 0x1f;
    let mant = u32::from(h & 0x03ff);

    let bits = match exp {
        0 => {
            if mant == 0 {
                sign // signed zero
            } else {
                // Subnormal: value = mant · 2⁻²⁴ with the top bit of `mant`
                // at position p. Normalize so the implicit bit lands at 23.
                let p = 31 - mant.leading_zeros(); // 0..=9
                let exp32 = p + 103; // (p − 24) + 127
                let mant32 = (mant << (23 - p)) & 0x007f_ffff;
                sign | (exp32 << 23) | mant32
            }
        }
        0x1f => {
            if mant == 0 {
                sign | 0x7f80_0000 // infinity
            } else {
                sign | 0x7fc0_0000 | (mant << 13) // NaN
            }
        }
        _ => {
            let exp32 = u32::from(exp) + 112; // − 15 + 127, kept unsigned
            sign | (exp32 << 23) | (mant << 13)
        }
    };
    f32::from_bits(bits)
}

/// Packs a slice of `f32` into little-endian binary16 bytes (2 bytes each).
pub fn reduce_f32_slice(values: &[f32], out: &mut Vec<u8>) {
    out.reserve(values.len() * 2);
    for &v in values {
        out.extend_from_slice(&f32_to_f16_bits(v).to_le_bytes());
    }
}

/// Expands little-endian binary16 bytes back into `f32` values.
///
/// Returns `None` if the byte length is odd.
pub fn expand_to_f32(bytes: &[u8]) -> Option<Vec<f32>> {
    if !bytes.len().is_multiple_of(2) {
        return None;
    }
    Some(
        bytes
            .chunks_exact(2)
            .map(|c| f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]])))
            .collect(),
    )
}

/// Reinterprets an f32 byte buffer (little-endian) as halves, halving its
/// size. Returns `None` if the length is not a multiple of 4.
pub fn reduce_f32_bytes(bytes: &[u8]) -> Option<Vec<u8>> {
    if !bytes.len().is_multiple_of(4) {
        return None;
    }
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for c in bytes.chunks_exact(4) {
        let v = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        out.extend_from_slice(&f32_to_f16_bits(v).to_le_bytes());
    }
    Some(out)
}

/// The inverse of [`reduce_f32_bytes`]: little-endian binary16 bytes
/// re-expanded to f32 bytes, doubling the size. Returns `None` if the length
/// is odd.
pub fn expand_f32_bytes(bytes: &[u8]) -> Option<Vec<u8>> {
    if !bytes.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(bytes.len() * 2);
    for c in bytes.chunks_exact(2) {
        let v = f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]]));
        out.extend_from_slice(&v.to_le_bytes());
    }
    Some(out)
}

/// Maximum relative error introduced by one f32→f16→f32 round trip for
/// normal binary16 values: half the spacing at 10 mantissa bits.
pub const MAX_RELATIVE_ERROR: f32 = 1.0 / 2048.0;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(v: f32) -> f32 {
        f16_bits_to_f32(f32_to_f16_bits(v))
    }

    #[test]
    fn exact_small_integers() {
        for i in -2048..=2048 {
            let v = i as f32;
            assert_eq!(roundtrip(v), v, "{v}");
        }
    }

    #[test]
    fn signed_zero_preserved() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert!(roundtrip(-0.0).is_sign_negative());
    }

    #[test]
    fn infinities_and_nan() {
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xfc00);
        assert!(roundtrip(f32::NAN).is_nan());
        assert_eq!(roundtrip(f32::INFINITY), f32::INFINITY);
        assert_eq!(roundtrip(f32::NEG_INFINITY), f32::NEG_INFINITY);
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(roundtrip(70000.0), f32::INFINITY);
        assert_eq!(roundtrip(-70000.0), f32::NEG_INFINITY);
        // 65504 is the largest finite binary16 value.
        assert_eq!(roundtrip(65504.0), 65504.0);
        // 65520 rounds up to infinity (tie rounds to even = infinity here).
        assert_eq!(roundtrip(65520.0), f32::INFINITY);
    }

    #[test]
    fn underflow_to_zero() {
        assert_eq!(roundtrip(1e-9), 0.0);
        assert!(roundtrip(-1e-9).is_sign_negative());
    }

    #[test]
    fn subnormal_roundtrip() {
        // Smallest positive binary16 subnormal: 2^-24.
        let tiny = 2f32.powi(-24);
        assert_eq!(roundtrip(tiny), tiny);
        // A mid-range subnormal.
        let v = 3.0 * 2f32.powi(-24);
        assert_eq!(roundtrip(v), v);
        // Largest subnormal.
        let v = 1023.0 * 2f32.powi(-24);
        assert_eq!(roundtrip(v), v);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10; ties to even → 1.0.
        let v = 1.0 + 2f32.powi(-11);
        assert_eq!(roundtrip(v), 1.0);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; ties to even → 1+2^-9.
        let v = 1.0 + 3.0 * 2f32.powi(-11);
        assert_eq!(roundtrip(v), 1.0 + 2.0 * 2f32.powi(-10));
    }

    #[test]
    fn slice_roundtrip_and_halving() {
        let values = vec![300.25f32, -17.5, 0.0, 1.0e4, 2f32.powi(-20)];
        let mut packed = Vec::new();
        reduce_f32_slice(&values, &mut packed);
        assert_eq!(packed.len(), values.len() * 2);
        let back = expand_to_f32(&packed).unwrap();
        for (orig, b) in values.iter().zip(&back) {
            if *orig != 0.0 && orig.abs() > 1e-4 {
                let rel = ((orig - b) / orig).abs();
                assert!(rel <= MAX_RELATIVE_ERROR, "{orig} → {b}");
            }
        }
    }

    #[test]
    fn reduce_f32_bytes_validates_length() {
        assert!(reduce_f32_bytes(&[0, 0, 0]).is_none());
        assert!(expand_to_f32(&[0]).is_none());
        let bytes: Vec<u8> = [1.0f32, 2.0].iter().flat_map(|v| v.to_le_bytes()).collect();
        let halves = reduce_f32_bytes(&bytes).unwrap();
        assert_eq!(halves.len(), 4);
        assert_eq!(expand_to_f32(&halves).unwrap(), vec![1.0, 2.0]);
        assert_eq!(expand_f32_bytes(&halves).unwrap(), bytes);
        assert!(expand_f32_bytes(&[0]).is_none());
    }

    proptest! {
        #[test]
        fn normal_range_relative_error_bounded(v in -60000.0f32..60000.0) {
            let back = roundtrip(v);
            if v.abs() >= 6.2e-5 {
                // Normal binary16 range: relative error ≤ 2^-11.
                let rel = ((v - back) / v).abs();
                prop_assert!(rel <= MAX_RELATIVE_ERROR, "{} -> {} rel {}", v, back, rel);
            } else {
                // Subnormal range: absolute error ≤ 2^-25 (half an ulp).
                prop_assert!((v - back).abs() <= 2f32.powi(-25));
            }
        }

        #[test]
        fn f16_to_f32_to_f16_is_identity(bits in any::<u16>()) {
            // Every binary16 value is exactly representable in f32, so the
            // reverse round trip must be bit-exact (modulo NaN payload).
            let f = f16_bits_to_f32(bits);
            let back = f32_to_f16_bits(f);
            if f.is_nan() {
                prop_assert!(f16_bits_to_f32(back).is_nan());
            } else {
                prop_assert_eq!(back, bits);
            }
        }

        #[test]
        fn conversion_is_monotone(a in -60000.0f32..60000.0, b in -60000.0f32..60000.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(roundtrip(lo) <= roundtrip(hi));
        }
    }
}
