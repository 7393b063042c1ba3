//! Payload generator: every block is a pure function of
//! (`--seed`, workload, iteration, rank, variable), so the harness can
//! regenerate any block it reads back and compare byte for byte, and two
//! runs with one seed write identical bytes.

/// What a workload's variables hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// `f64` values uniform in [0, 1): incompressible, like the low bits of
    /// a real prognostic variable. The length must be a multiple of 8.
    Noise,
    /// `f32` samples of a smooth field — a few sinusoids plus noise —
    /// quantised to a grid, so values recur and LZSS stores about 0.8 of
    /// the bytes. Length a multiple of 4.
    Smooth,
}

/// Quantisation grid of [`Field::Smooth`] (steps per unit; coarser
/// compresses better) and the amplitude of the noise added before
/// quantising. Swept on the repo's LZSS: 1024 and 0.5 store 0.808 of the
/// bytes, and the ratio moves by less than 0.001 between seeds.
const SMOOTH_LEVELS: f32 = 1024.0;
const SMOOTH_NOISE: f32 = 0.5;

/// splitmix64: the stream behind every block.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The generator of one workload under one seed.
#[derive(Debug, Clone)]
pub struct Generator {
    base: u64,
    field: Field,
}

impl Generator {
    pub fn new(seed: u64, workload: &str, field: Field) -> Generator {
        // FNV-1a over the name, so workloads under one seed differ.
        let tag = workload.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        });
        Generator {
            base: Rng::new(seed ^ tag).next_u64(),
            field,
        }
    }

    /// A stream private to `(iteration, rank, variable)`.
    fn stream(&self, iteration: u32, rank: u32, variable: u32) -> Rng {
        let key = (u64::from(iteration) << 32) | (u64::from(variable) << 8) | u64::from(rank);
        Rng::new(self.base ^ Rng::new(key).next_u64())
    }

    /// Fills `out` with the block of `(iteration, rank, variable)`.
    pub fn fill(&self, iteration: u32, rank: u32, variable: u32, out: &mut [u8]) {
        let mut rng = self.stream(iteration, rank, variable);
        match self.field {
            Field::Noise => {
                for word in out.chunks_exact_mut(8) {
                    word.copy_from_slice(&rng.unit().to_le_bytes());
                }
            }
            Field::Smooth => {
                let n = (out.len() / 4) as f32;
                // Three waves with block-private phase and wavelength.
                let waves: Vec<(f32, f32, f32)> = [1.0f32, 0.5, 0.25]
                    .into_iter()
                    .map(|amp| {
                        let cycles = 2.0 + 14.0 * rng.unit() as f32;
                        let phase = std::f32::consts::TAU * rng.unit() as f32;
                        (amp, std::f32::consts::TAU * cycles / n, phase)
                    })
                    .collect();
                for (i, word) in out.chunks_exact_mut(4).enumerate() {
                    let x = i as f32;
                    let smooth: f32 = waves.iter().map(|(a, k, p)| a * (k * x + p).sin()).sum();
                    let noisy = smooth + SMOOTH_NOISE * (rng.unit() as f32 - 0.5);
                    let value = 300.0 + (noisy * SMOOTH_LEVELS).round() / SMOOTH_LEVELS;
                    word.copy_from_slice(&value.to_le_bytes());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(g: &Generator, it: u32, rank: u32, var: u32, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        g.fill(it, rank, var, &mut out);
        out
    }

    #[test]
    fn same_key_same_bytes() {
        for field in [Field::Noise, Field::Smooth] {
            let a = Generator::new(7, "steady", field);
            let b = Generator::new(7, "steady", field);
            assert_eq!(block(&a, 3, 1, 2, 4096), block(&b, 3, 1, 2, 4096));
        }
    }

    #[test]
    fn every_key_component_changes_the_block() {
        let g = Generator::new(7, "steady", Field::Noise);
        let reference = block(&g, 3, 1, 2, 256);
        assert_ne!(reference, block(&g, 4, 1, 2, 256), "iteration");
        assert_ne!(reference, block(&g, 3, 0, 2, 256), "rank");
        assert_ne!(reference, block(&g, 3, 1, 3, 256), "variable");
        let other_seed = Generator::new(8, "steady", Field::Noise);
        assert_ne!(reference, block(&other_seed, 3, 1, 2, 256), "seed");
        let other_workload = Generator::new(7, "insitu", Field::Noise);
        assert_ne!(reference, block(&other_workload, 3, 1, 2, 256), "workload");
    }

    #[test]
    fn noise_is_f64_in_unit_interval() {
        let g = Generator::new(1, "steady", Field::Noise);
        for word in block(&g, 0, 0, 0, 8192).chunks_exact(8) {
            let v = f64::from_le_bytes(word.try_into().unwrap());
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn smooth_field_compresses_to_about_four_fifths() {
        let pipeline = damaris_compress::Pipeline::from_spec("lzss").unwrap();
        let mut stored = 0usize;
        let mut logical = 0usize;
        for seed in 0..4u64 {
            let g = Generator::new(seed, "insitu", Field::Smooth);
            for it in 0..8 {
                let data = block(&g, it, it % 4, it % 3, 16 << 10);
                stored += pipeline.encode(&data).unwrap().0.len();
                logical += data.len();
            }
        }
        let ratio = stored as f64 / logical as f64;
        assert!((0.7..0.9).contains(&ratio), "lzss ratio {ratio}");
    }
}
