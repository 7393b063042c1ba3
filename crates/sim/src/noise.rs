//! Jitter sources (paper §II-A).
//!
//! * [`OsNoise`] — kernel scheduling / OS daemon interference (cause 3):
//!   a small multiplicative perturbation on every compute phase, sampled
//!   from a right-skewed (lognormal-like) distribution so rare stragglers
//!   exist, which is what global synchronization amplifies.
//! * [`Interference`] — cross-application contention (cause 4): random
//!   extra busy time on shared file-system servers, since "HPC resources
//!   are typically used by many concurrent I/O intensive jobs".
//!
//! All sampling is deterministic from the experiment seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG wrapper used everywhere in the simulator.
#[derive(Debug)]
pub struct SimRng(StdRng);

impl SimRng {
    /// RNG derived from the experiment seed and a stream label, so each
    /// subsystem gets an independent, reproducible stream.
    pub fn new(seed: u64, stream: u64) -> Self {
        SimRng(StdRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03)),
        ))
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.0.gen::<f64>()
    }

    /// Exponential with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u: f64 = self.0.gen::<f64>().max(1e-15);
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1: f64 = self.0.gen::<f64>().max(1e-15);
        let u2: f64 = self.0.gen::<f64>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Lognormal with parameters of the underlying normal.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }
}

/// OS noise on compute phases.
#[derive(Debug, Clone, Copy)]
pub struct OsNoise {
    /// Standard deviation of the lognormal's underlying normal; ~0.01
    /// yields the paper's "usually stable, small jitter" compute phases.
    pub sigma: f64,
}

impl OsNoise {
    /// Multiplicative factor ≥ ~1: mean-one lognormal, right-skewed.
    pub fn factor(&self, rng: &mut SimRng) -> f64 {
        // mu = -sigma²/2 gives mean exactly 1.
        rng.lognormal(-self.sigma * self.sigma / 2.0, self.sigma)
    }
}

/// Cross-application interference on shared servers.
#[derive(Debug, Clone, Copy)]
pub struct Interference {
    /// Probability that a given request hits a busy period.
    pub hit_probability: f64,
    /// Mean extra delay when hit (s); exponential, so heavy tails exist.
    pub mean_delay: f64,
    /// Phase-scale background load: σ of a lognormal factor (mean 1)
    /// applied to all server service times for a whole write phase.
    /// Cross-application contention varies slowly, so consecutive phases
    /// see different effective file-system speeds — the paper's
    /// "variability from one I/O phase to another" (§I).
    pub phase_sigma: f64,
}

impl Interference {
    /// Extra busy time to add to one request's service.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        if self.hit_probability <= 0.0 || rng.unit() >= self.hit_probability {
            0.0
        } else {
            rng.exponential(self.mean_delay)
        }
    }

    /// Per-phase slowdown factor (mean-one lognormal).
    pub fn phase_factor(&self, rng: &mut SimRng) -> f64 {
        if self.phase_sigma <= 0.0 {
            1.0
        } else {
            rng.lognormal(-self.phase_sigma * self.phase_sigma / 2.0, self.phase_sigma)
        }
    }

    /// No interference at all (for ablations).
    pub fn none() -> Self {
        Interference {
            hit_probability: 0.0,
            mean_delay: 0.0,
            phase_sigma: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_stream() {
        let mut a = SimRng::new(42, 1);
        let mut b = SimRng::new(42, 1);
        let mut c = SimRng::new(42, 2);
        let xs: Vec<f64> = (0..10).map(|_| a.unit()).collect();
        let ys: Vec<f64> = (0..10).map(|_| b.unit()).collect();
        let zs: Vec<f64> = (0..10).map(|_| c.unit()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn os_noise_is_mean_one_and_skewed() {
        let noise = OsNoise { sigma: 0.05 };
        let mut rng = SimRng::new(7, 0);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| noise.factor(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        let max = samples.iter().cloned().fold(0.0, f64::max);
        let min = samples.iter().cloned().fold(f64::MAX, f64::min);
        // Right-skew: the max deviates further above 1 than the min below.
        assert!(max - 1.0 > 1.0 - min);
        assert!(samples.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn interference_respects_probability() {
        let interf = Interference {
            hit_probability: 0.25,
            mean_delay: 0.010,
            phase_sigma: 0.0,
        };
        let mut rng = SimRng::new(9, 3);
        let n = 40_000;
        let hits = (0..n).filter(|_| interf.sample(&mut rng) > 0.0).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "hit rate {rate}");
        assert_eq!(Interference::none().sample(&mut rng), 0.0);
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::new(11, 0);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.06, "mean {mean}");
    }
}
