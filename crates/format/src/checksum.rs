//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), written from
//! scratch on `std` only. It is the `crc32` of gzip/PNG/zlib, so every
//! checksum in an SDF, DTRC, journal, WAL or MANIFEST file stays checkable
//! with outside tools.
//!
//! Three kernels ([`Crc32Kernel`]) compute the same function:
//!
//! * **wide carry-less multiply** (x86_64 with `avx2` and `vpclmulqdq`,
//!   inputs of at least 128 bytes): four 256-bit accumulators — eight
//!   128-bit lanes — are folded 128 bytes at a time, then folded into one
//!   128-bit lane, which the next kernel's 16-byte loop and reduction
//!   finish;
//! * **carry-less multiply** (x86_64 with `pclmulqdq`, inputs of at least
//!   64 bytes): four 128-bit lanes are folded 64 bytes at a
//!   time, the lanes are folded into one, and a Barrett reduction brings
//!   the 128-bit remainder down to 32 bits;
//! * **portable slice-by-16** everywhere else — other architectures, CPUs
//!   without the instruction, short inputs (the 41-byte journal header)
//!   and the sub-16-byte tail the other two leave.
//!
//! [`crc32_update`] picks between them from what it can observe: the CPU
//! (`is_x86_feature_detected!`, one cached load per feature) and the input
//! length ([`Crc32Kernel::for_len`]).
//! Tables and fold constants are evaluated at compile time from the
//! polynomial; the bit-at-a-time definition they are built from is also
//! what the tests compare every kernel against.

/// The generator polynomial, reflected (bit 31 = coefficient of x^0).
const POLY: u32 = 0xEDB8_8320;

/// Multiplies a reflected residue by x, modulo the polynomial — one step
/// of the bit-at-a-time definition.
const fn times_x(v: u32) -> u32 {
    if v & 1 != 0 {
        (v >> 1) ^ POLY
    } else {
        v >> 1
    }
}

/// `TABLES[k][b]` is the state reached from `b` after `8 * (k + 1)` zero
/// bits, so sixteen lookups advance the state over sixteen input bytes.
static TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 {
            c = times_x(c);
            bit += 1;
        }
        t[0][b] = c;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

#[inline(always)]
fn lut(table: &[u32; 256], index: u32) -> u32 {
    // ANALYZE: in-bounds(the index is masked to 0..=255 and the table has 256 entries)
    table[(index & 0xff) as usize]
}

/// The portable kernel: slice-by-16 over whole 16-byte blocks, one table
/// lookup per byte for what is left.
fn update_portable(state: u32, data: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &TABLES;
    let (blocks, tail) = data.as_chunks::<16>();
    let mut c = state;
    for block in blocks {
        let w = u128::from_le_bytes(*block);
        let one = w as u32 ^ c;
        let two = (w >> 32) as u32;
        let three = (w >> 64) as u32;
        let four = (w >> 96) as u32;
        c = lut(t15, one)
            ^ lut(t14, one >> 8)
            ^ lut(t13, one >> 16)
            ^ lut(t12, one >> 24)
            ^ lut(t11, two)
            ^ lut(t10, two >> 8)
            ^ lut(t9, two >> 16)
            ^ lut(t8, two >> 24)
            ^ lut(t7, three)
            ^ lut(t6, three >> 8)
            ^ lut(t5, three >> 16)
            ^ lut(t4, three >> 24)
            ^ lut(t3, four)
            ^ lut(t2, four >> 8)
            ^ lut(t1, four >> 16)
            ^ lut(t0, four >> 24);
    }
    for &byte in tail {
        c = lut(t0, c ^ u32::from(byte)) ^ (c >> 8);
    }
    c
}

/// Shortest input worth handing to the carry-less-multiply kernel: one
/// 64-byte round of its four lanes.
const CLMUL_MIN: usize = 64;

/// Shortest input worth handing to the wide kernel: one 128-byte round of
/// its four accumulators. From there up the `crc32` group of
/// `crates/bench/benches/microbench.rs` has it ahead of the 128-bit
/// kernel; below, it has nothing to fold (DESIGN §3 has the table).
const WIDE_MIN: usize = 128;

#[cfg(target_arch = "x86_64")]
mod clmul {
    //! The PCLMULQDQ kernel, after Gopal et al., "Fast CRC Computation for
    //! Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in
    //! its bit-reflected form, and its VPCLMULQDQ widening.
    //!
    //! A 128-bit lane `x` that sits `d` bits ahead of the data it is
    //! folded into is congruent to `x.lo · (x^(d+32) mod P) ^ x.hi ·
    //! (x^(d-32) mod P)`: two carry-less multiplies by constants. In the
    //! reflected domain a product of two reflected operands comes out one
    //! bit low, which the constants absorb by being stored shifted left by
    //! one. `VPCLMULQDQ` does the same multiply in both 128-bit halves of a
    //! 256-bit register, so the wide kernel is this fold two lanes at a
    //! time, with the constant pair repeated in both halves.

    use super::{times_x, POLY};
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_castsi256_si128, _mm256_clmulepi64_epi128,
        _mm256_extracti128_si256, _mm256_set_epi64x, _mm256_set_m128i, _mm256_xor_si256,
        _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// `x^n mod P`, reflected and shifted left by one (see module docs).
    pub(super) const fn fold_constant(n: u32) -> i64 {
        let mut v = 0x8000_0000u32; // the polynomial 1
        let mut i = 0;
        while i < n {
            v = times_x(v);
            i += 1;
        }
        (v as i64) << 1
    }

    /// `floor(x^64 / P)`, the Barrett quotient estimate, reflected over its
    /// 33 bits.
    pub(super) const fn barrett_mu() -> i64 {
        let p = ((POLY.reverse_bits() as u64) | 1 << 32) as u128; // 0x1_04C1_1DB7
        let mut rem: u128 = 0;
        let mut quotient: u64 = 0;
        let mut bit = 65;
        while bit > 0 {
            bit -= 1;
            rem = (rem << 1) | (bit == 64) as u128;
            quotient <<= 1;
            if rem >> 32 & 1 != 0 {
                rem ^= p;
                quotient |= 1;
            }
        }
        (quotient.reverse_bits() >> (64 - 33)) as i64
    }

    /// Fold distance 4 lanes (the 64-byte main loop): lo · K1 ^ hi · K2.
    pub(super) const K1: i64 = fold_constant(4 * 128 + 32);
    pub(super) const K2: i64 = fold_constant(4 * 128 - 32);
    /// Fold distance 1 lane (4 → 1, 2 → 1 and the 16-byte loop):
    /// lo · K3 ^ hi · K4.
    pub(super) const K3: i64 = fold_constant(128 + 32);
    pub(super) const K4: i64 = fold_constant(128 - 32);
    /// 96 → 64 bits.
    pub(super) const K5: i64 = fold_constant(64);
    /// The polynomial with its x^32 term, reflected over 33 bits.
    pub(super) const P_X: i64 = ((POLY as i64) << 1) | 1;
    pub(super) const MU: i64 = barrett_mu();
    /// Fold distance 8 lanes (the wide kernel's 128-byte main loop):
    /// lo · K6 ^ hi · K7.
    pub(super) const K6: i64 = fold_constant(8 * 128 + 32);
    pub(super) const K7: i64 = fold_constant(8 * 128 - 32);
    /// Fold distance 2 lanes (one 256-bit accumulator onto the next):
    /// lo · K8 ^ hi · K9.
    pub(super) const K8: i64 = fold_constant(2 * 128 + 32);
    pub(super) const K9: i64 = fold_constant(2 * 128 - 32);

    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn load(block: &[u8; 16]) -> __m128i {
        let w = u128::from_le_bytes(*block);
        _mm_set_epi64x((w >> 64) as i64, w as i64)
    }

    /// Folds lane `x` forward over the distance `k` encodes and adds the
    /// data (or lane) it lands on.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(x: __m128i, k: __m128i, onto: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), onto)
    }

    /// Advances `state` over the 16-byte blocks of `data` and returns the
    /// new state with the unconsumed tail (fewer than 16 bytes). With
    /// fewer than 64 bytes it consumes nothing: the caller's portable
    /// kernel then takes the whole input.
    ///
    /// Safe to define, unsafe to call from code compiled without the
    /// feature: the CPU must support `pclmulqdq`. Every load goes through
    /// a slice, so the input length is not a safety condition.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(state: u32, data: &[u8]) -> (u32, &[u8]) {
        let (blocks, tail) = data.as_chunks::<16>();
        let (quads, singles) = blocks.as_chunks::<4>();
        let Some(([a, b, c, d], quads)) = quads.split_first() else {
            return (state, data);
        };
        let mut x0 = _mm_xor_si128(load(a), _mm_cvtsi32_si128(state as i32));
        let mut x1 = load(b);
        let mut x2 = load(c);
        let mut x3 = load(d);
        let k1k2 = _mm_set_epi64x(K2, K1);
        for [a, b, c, d] in quads {
            x0 = fold(x0, k1k2, load(a));
            x1 = fold(x1, k1k2, load(b));
            x2 = fold(x2, k1k2, load(c));
            x3 = fold(x3, k1k2, load(d));
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x0, k3k4, x1);
        x = fold(x, k3k4, x2);
        x = fold(x, k3k4, x3);
        (finish(x, singles), tail)
    }

    /// Folds the 16-byte `blocks` that follow lane `x` into it, one at a
    /// time, and reduces the lane to the 32-bit state. Both widths end
    /// here.
    #[target_feature(enable = "pclmulqdq")]
    fn finish(mut x: __m128i, blocks: &[[u8; 16]]) -> u32 {
        let k3k4 = _mm_set_epi64x(K4, K3);
        for block in blocks {
            x = fold(x, k3k4, load(block));
        }

        // 128 → 96 → 64 bits: fold the low qword over the high one, then
        // the low dword over what is left.
        let low32 = _mm_set_epi32(0, -1, 0, -1);
        let x = _mm_xor_si128(
            _mm_srli_si128::<8>(x),
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
        );
        let x = _mm_xor_si128(
            _mm_srli_si128::<4>(x),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
        );
        // Barrett: q = low32(x) · mu, then x ^ low32(q) · P leaves the
        // remainder in bits 32..64.
        let p_mu = _mm_set_epi64x(MU, P_X);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu);
        let x = _mm_xor_si128(
            x,
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), p_mu),
        );
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(x)) as u32
    }

    /// Two consecutive 16-byte blocks as one 256-bit value, the first in
    /// the low half.
    #[inline]
    #[target_feature(enable = "avx2,vpclmulqdq")]
    fn load256(first: &[u8; 16], second: &[u8; 16]) -> __m256i {
        _mm256_set_m128i(load(second), load(first))
    }

    /// [`fold`] in both halves at once.
    #[inline]
    #[target_feature(enable = "avx2,vpclmulqdq")]
    fn fold256(y: __m256i, k: __m256i, onto: __m256i) -> __m256i {
        let lo = _mm256_clmulepi64_epi128::<0x00>(y, k);
        let hi = _mm256_clmulepi64_epi128::<0x11>(y, k);
        _mm256_xor_si256(_mm256_xor_si256(lo, hi), onto)
    }

    /// [`update`] at twice the width: four 256-bit accumulators fold 128
    /// bytes a round, are folded into one, whose two lanes are folded
    /// into one for [`finish`]. With fewer than 128 bytes it consumes
    /// nothing.
    ///
    /// Safe to define, unsafe to call from code compiled without the
    /// features: the CPU must support `avx2` and `vpclmulqdq` (which
    /// implies `pclmulqdq`). Loads go through slices, as in [`update`].
    #[target_feature(enable = "avx2,vpclmulqdq")]
    pub(super) fn update_256(state: u32, data: &[u8]) -> (u32, &[u8]) {
        let (blocks, tail) = data.as_chunks::<16>();
        let (rounds, singles) = blocks.as_chunks::<8>();
        let Some(([a0, a1, b0, b1, c0, c1, d0, d1], rounds)) = rounds.split_first() else {
            return (state, data);
        };
        let mut y0 = _mm256_xor_si256(load256(a0, a1), _mm256_set_epi64x(0, 0, 0, state.into()));
        let mut y1 = load256(b0, b1);
        let mut y2 = load256(c0, c1);
        let mut y3 = load256(d0, d1);
        let k6k7 = _mm256_set_epi64x(K7, K6, K7, K6);
        for [a0, a1, b0, b1, c0, c1, d0, d1] in rounds {
            y0 = fold256(y0, k6k7, load256(a0, a1));
            y1 = fold256(y1, k6k7, load256(b0, b1));
            y2 = fold256(y2, k6k7, load256(c0, c1));
            y3 = fold256(y3, k6k7, load256(d0, d1));
        }
        let k8k9 = _mm256_set_epi64x(K9, K8, K9, K8);
        let mut y = fold256(y0, k8k9, y1);
        y = fold256(y, k8k9, y2);
        y = fold256(y, k8k9, y3);
        let x = fold(
            _mm256_castsi256_si128(y),
            _mm_set_epi64x(K4, K3),
            _mm256_extracti128_si256::<1>(y),
        );
        (finish(x, singles), tail)
    }
}

/// Whether this CPU runs the carry-less-multiply kernel.
fn has_clmul() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("pclmulqdq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this CPU runs the wide kernel.
fn has_wide() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("vpclmulqdq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The carry-less-multiply kernel, finished by the portable one over the
/// tail it leaves; `None` where the CPU (or the architecture) lacks it.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn update_clmul(state: u32, data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if has_clmul() {
        // SAFETY: `pclmulqdq`, the one target feature `clmul::update`
        // enables, was detected on this CPU just above. The input length
        // is a matter of speed only: the kernel reads through slices and
        // hands back whatever it did not consume.
        let (state, tail) = unsafe { clmul::update(state, data) };
        return Some(update_portable(state, tail));
    }
    None
}

/// The wide kernel, finished by the portable one over the tail it leaves;
/// `None` where the CPU (or the architecture) lacks it.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn update_wide(state: u32, data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if has_wide() {
        // SAFETY: `avx2` and `vpclmulqdq`, the target features
        // `clmul::update_256` enables, were detected on this CPU just
        // above. As with `update_clmul`, the length is not a condition.
        let (state, tail) = unsafe { clmul::update_256(state, data) };
        return Some(update_portable(state, tail));
    }
    None
}

/// One of the three kernels. [`crc32_update`] picks one per call with
/// [`Crc32Kernel::for_len`]; tests and benchmarks run each alone with
/// [`Crc32Kernel::update`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Crc32Kernel {
    /// 256-bit `VPCLMULQDQ` (x86_64 with `avx2` and `vpclmulqdq`).
    Wide,
    /// 128-bit `PCLMULQDQ` (x86_64 with `pclmulqdq`).
    Clmul,
    /// Slice-by-16 tables, on every CPU.
    Portable,
}

impl Crc32Kernel {
    /// Every kernel, widest first.
    pub const ALL: [Crc32Kernel; 3] = [Self::Wide, Self::Clmul, Self::Portable];

    /// The kernel's name in test output and benchmark rows.
    pub fn name(self) -> &'static str {
        match self {
            Self::Wide => "wide",
            Self::Clmul => "clmul",
            Self::Portable => "portable",
        }
    }

    /// Whether this CPU runs the kernel.
    pub fn is_available(self) -> bool {
        match self {
            Self::Wide => has_wide(),
            Self::Clmul => has_clmul(),
            Self::Portable => true,
        }
    }

    /// The kernel [`crc32_update`] runs over `len` bytes on this CPU: the
    /// widest one it has whose shortest input `len` reaches.
    pub fn for_len(len: usize) -> Crc32Kernel {
        if len >= WIDE_MIN && has_wide() {
            Self::Wide
        } else if len >= CLMUL_MIN && has_clmul() {
            Self::Clmul
        } else {
            Self::Portable
        }
    }

    /// Advances `state` over `data` with this kernel, whatever the length
    /// (the portable kernel takes the last < 16 bytes, and all of an input
    /// shorter than one round); `None` where this CPU lacks the kernel.
    pub fn update(self, state: u32, data: &[u8]) -> Option<u32> {
        match self {
            Self::Wide => update_wide(state, data),
            Self::Clmul => update_clmul(state, data),
            Self::Portable => Some(update_portable(state, data)),
        }
    }
}

/// Computes the CRC32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming update: feed `state = 0xFFFF_FFFF`, fold in chunks, then XOR
/// with `0xFFFF_FFFF` at the end.
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    let vector = match Crc32Kernel::for_len(data.len()) {
        Crc32Kernel::Wide => update_wide(state, data),
        Crc32Kernel::Clmul => update_clmul(state, data),
        Crc32Kernel::Portable => None,
    };
    vector.unwrap_or_else(|| update_portable(state, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    /// The definition: one bit at a time.
    fn reference_update(state: u32, data: &[u8]) -> u32 {
        let mut c = state;
        for &byte in data {
            c ^= u32::from(byte);
            for _ in 0..8 {
                c = times_x(c);
            }
        }
        c
    }

    /// What CPUID itself reports — `(pclmulqdq, avx2, vpclmulqdq)` from
    /// leaf 1 ECX bit 1, leaf 7 EBX bit 5 and leaf 7 ECX bit 10 — read
    /// without `is_x86_feature_detected!`, so a misspelt or wrong feature
    /// name in the dispatch cannot agree with itself here. (It takes the
    /// OS's saving of the YMM registers for granted, as every x86_64
    /// Linux, macOS and Windows does.)
    fn cpuid_reports() -> (bool, bool, bool) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{__cpuid_count, __get_cpuid_max};
            let bit = |word: u32, n: u32| word >> n & 1 == 1;
            let leaf1 = __cpuid_count(1, 0);
            let leaf7 = (__get_cpuid_max(0).0 >= 7).then(|| __cpuid_count(7, 0));
            (
                bit(leaf1.ecx, 1),
                leaf7.is_some_and(|l| bit(l.ebx, 5)),
                leaf7.is_some_and(|l| bit(l.ecx, 10)),
            )
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            (false, false, false)
        }
    }

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // Long enough for a carry-less-multiply kernel (zlib: crc32 of
        // 256 bytes 0x00..=0xFF).
        let ramp: Vec<u8> = (0..=255u8).collect();
        assert_eq!(crc32(&ramp), 0x2905_8C73);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_are_the_published_ones() {
        // Intel's white paper (and zlib's crc32_simd.c) list these for the
        // reflected IEEE polynomial; here they fall out of `x^n mod P`.
        assert_eq!(clmul::K1, 0x1_5444_2bd4);
        assert_eq!(clmul::K2, 0x1_c6e4_1596);
        assert_eq!(clmul::K3, 0x1_7519_97d0);
        assert_eq!(clmul::K4, 0x0_ccaa_009e);
        assert_eq!(clmul::K5, 0x1_63cd_6124);
        assert_eq!(clmul::P_X, 0x1_db71_0641);
        assert_eq!(clmul::MU, 0x1_f701_1641);
    }

    #[test]
    fn kernels_match_the_bitwise_reference() {
        // Each kernel called directly, not through the dispatch: every
        // length up to past the wide threshold (every 16-, 64- and
        // 128-byte round boundary on the way), then 64 KiB plus every
        // tail, at 32 start offsets (unaligned loads), from a random
        // initial state. The reference runs incrementally over each
        // prefix.
        let (pclmulqdq, avx2, vpclmulqdq) = cpuid_reports();
        let covered: Vec<Crc32Kernel> = Crc32Kernel::ALL
            .into_iter()
            .filter(|k| k.is_available())
            .collect();
        let names: Vec<&str> = covered.iter().map(|k| k.name()).collect();
        println!(
            "crc32: cpu pclmulqdq={pclmulqdq} avx2={avx2} vpclmulqdq={vpclmulqdq}; \
             kernels covered: {}{}",
            names.join(", "),
            if covered.contains(&Crc32Kernel::Wide) {
                ""
            } else {
                "; wide kernel not covered"
            }
        );

        let mut rng = StdRng::seed_from_u64(0xDA4A_2155);
        let long = 64 << 10;
        let mut buf = vec![0u8; long + 16 + 32];
        rng.fill_bytes(&mut buf);
        let lengths = (0..=2100).chain(long..long + 16);
        for offset in 0..32 {
            let state = rng.next_u32();
            let data = &buf[offset..];
            let (mut want, mut done) = (state, 0);
            for len in lengths.clone() {
                want = reference_update(want, &data[done..len]);
                done = len;
                let data = &data[..len];
                for &kernel in &covered {
                    assert_eq!(
                        kernel.update(state, data),
                        Some(want),
                        "{}, len {len} offset {offset}",
                        kernel.name()
                    );
                }
                assert_eq!(
                    crc32_update(state, data),
                    want,
                    "dispatch, len {len} offset {offset}"
                );
            }
        }
    }

    #[test]
    fn the_dispatch_takes_the_widest_kernel_the_cpu_reports() {
        let (pclmulqdq, avx2, vpclmulqdq) = cpuid_reports();
        let (clmul, wide) = (pclmulqdq, avx2 && vpclmulqdq);
        assert_eq!(Crc32Kernel::Clmul.is_available(), clmul);
        assert_eq!(Crc32Kernel::Wide.is_available(), wide);
        let or_portable = |has: bool, kernel| if has { kernel } else { Crc32Kernel::Portable };
        let below_wide = or_portable(clmul, Crc32Kernel::Clmul);
        let from_wide = if wide { Crc32Kernel::Wide } else { below_wide };
        for (len, want) in [
            (0, Crc32Kernel::Portable),
            (41, Crc32Kernel::Portable),
            (CLMUL_MIN - 1, Crc32Kernel::Portable),
            (CLMUL_MIN, below_wide),
            (WIDE_MIN - 1, below_wide),
            (WIDE_MIN, from_wide),
            (256, from_wide),
            (64 << 10, from_wide),
        ] {
            assert_eq!(Crc32Kernel::for_len(len), want, "len {len}");
        }
    }

    #[test]
    fn split_invariance_at_every_split() {
        // Both halves cross the 16-, 64- and 128-byte rounds and the wide
        // threshold.
        let mut data = vec![0u8; 2 * WIDE_MIN + 300];
        StdRng::seed_from_u64(300).fill_bytes(&mut data);
        let whole = crc32(&data);
        assert_eq!(whole, reference_update(0xFFFF_FFFF, &data) ^ 0xFFFF_FFFF);
        for split in 0..=data.len() {
            let state = crc32_update(0xFFFF_FFFF, &data[..split]);
            let state = crc32_update(state, &data[split..]);
            assert_eq!(state ^ 0xFFFF_FFFF, whole, "split at {split}");
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"damaris dedicated cores";
        let oneshot = crc32(data);
        let mut state = 0xFFFF_FFFFu32;
        for chunk in data.chunks(5) {
            state = crc32_update(state, chunk);
        }
        assert_eq!(state ^ 0xFFFF_FFFF, oneshot);
    }

    proptest! {
        #[test]
        fn detects_single_bit_flips(data in proptest::collection::vec(any::<u8>(), 1..4096), bit in 0usize..8, idx_seed in any::<usize>()) {
            let idx = idx_seed % data.len();
            let mut corrupted = data.clone();
            corrupted[idx] ^= 1 << bit;
            prop_assert_ne!(crc32(&data), crc32(&corrupted));
        }

        #[test]
        fn split_invariance(data in proptest::collection::vec(any::<u8>(), 0..4096), split_seed in any::<usize>()) {
            let split = if data.is_empty() { 0 } else { split_seed % (data.len() + 1) };
            let whole = crc32(&data);
            let mut state = 0xFFFF_FFFFu32;
            state = crc32_update(state, &data[..split]);
            state = crc32_update(state, &data[split..]);
            prop_assert_eq!(state ^ 0xFFFF_FFFF, whole);
        }
    }
}
