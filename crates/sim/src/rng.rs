//! Deterministic randomness for simulations.
//!
//! Every stochastic element of the testbed (software-step jitter, noise
//! spikes, workload payload contents) draws from a [`SimRng`] derived from
//! the experiment seed, so a run is exactly reproducible from `(seed,
//! configuration)`. Independent subsystems derive independent streams with
//! [`SimRng::derive`], which keeps their draws uncorrelated even when the
//! order of events between them changes (e.g. when a configuration change
//! reorders link transactions).
//!
//! The distribution samplers needed by the noise model (normal, lognormal,
//! exponential, Pareto) are implemented here directly — `rand` 0.8 ships
//! only uniform distributions in the core crate, and the handful of
//! samplers we need is small enough that pulling in `rand_distr` is not
//! justified (see DESIGN.md §4).

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// SplitMix64 step — used to expand a `u64` seed into independent stream
/// seeds. This is the standard seed-sequencing construction (Steele et al.,
/// "Fast Splittable Pseudorandom Number Generators", OOPSLA'14).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic RNG stream for one subsystem of one simulation run.
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: SmallRng,
    /// The root seed this stream was ultimately derived from (for reports).
    root_seed: u64,
}

impl SimRng {
    /// Root stream for an experiment seed.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        // Two splitmix outputs give a full 16-byte SmallRng seed with good
        // avalanche even for adjacent experiment seeds (0, 1, 2, ...).
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&a.to_le_bytes());
        bytes[8..16].copy_from_slice(&b.to_le_bytes());
        bytes[16..24].copy_from_slice(&a.rotate_left(17).to_le_bytes());
        bytes[24..].copy_from_slice(&b.rotate_left(31).to_le_bytes());
        SimRng {
            inner: SmallRng::from_seed(bytes),
            root_seed: seed,
        }
    }

    /// Derive an independent child stream identified by `tag`. Streams with
    /// distinct tags are statistically independent; the same `(seed, tag)`
    /// always yields the same stream.
    pub fn derive(&self, tag: u64) -> SimRng {
        let mut s = self
            .root_seed
            .wrapping_mul(0xA24B_AED4_963E_E407)
            .wrapping_add(tag);
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&a.to_le_bytes());
        bytes[8..16].copy_from_slice(&b.to_le_bytes());
        bytes[16..24].copy_from_slice(&splitmix64(&mut s).to_le_bytes());
        bytes[24..].copy_from_slice(&splitmix64(&mut s).to_le_bytes());
        SimRng {
            inner: SmallRng::from_seed(bytes),
            root_seed: self.root_seed,
        }
    }

    /// The experiment seed this stream derives from.
    pub fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[0, n)`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.uniform() < p
    }

    /// Standard normal via Box–Muller. One value per call; the twin value is
    /// discarded. This is on the hot path: every host cost-model step
    /// draws noise through it, and a faster sampler changes every stream.
    pub fn standard_normal(&mut self) -> f64 {
        // Avoid ln(0) by sampling u1 from (0, 1].
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Lognormal parameterized by its **median** and log-space sigma:
    /// `median * exp(sigma * N(0,1))`. This parameterization is used
    /// throughout the noise model because medians are what the calibration
    /// targets specify.
    #[inline]
    pub fn lognormal_median(&mut self, median: f64, sigma: f64) -> f64 {
        median * (sigma * self.standard_normal()).exp()
    }

    /// Exponential with the given mean (inverse-CDF method).
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.uniform()).ln()
    }

    /// Pareto (type I) with scale `x_min` and shape `alpha` — heavy-tailed;
    /// used for the rare large OS spikes behind the 99.9th percentiles.
    #[inline]
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        debug_assert!(alpha > 0.0 && x_min > 0.0);
        x_min / (1.0 - self.uniform()).powf(1.0 / alpha)
    }

    /// Fill a byte buffer (workload payload generation).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        self.inner.fill_bytes(buf);
    }

    /// A random u64 (for MAC addresses, cookie values, ...).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derived_streams_are_independent_and_stable() {
        let root = SimRng::new(42);
        let mut s1 = root.derive(1);
        let mut s1_again = root.derive(1);
        let mut s2 = root.derive(2);
        let v1: Vec<u64> = (0..32).map(|_| s1.next_u64()).collect();
        let v1b: Vec<u64> = (0..32).map(|_| s1_again.next_u64()).collect();
        let v2: Vec<u64> = (0..32).map(|_| s2.next_u64()).collect();
        assert_eq!(v1, v1b);
        assert_ne!(v1, v2);
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = SimRng::new(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(4);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean = {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.05, "std = {}", var.sqrt());
    }

    #[test]
    fn lognormal_median_is_parameter() {
        let mut rng = SimRng::new(5);
        let n = 100_001;
        let mut samples: Vec<f64> = (0..n).map(|_| rng.lognormal_median(2.5, 0.8)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!((median - 2.5).abs() < 0.08, "median = {median}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::new(6);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(7.0)).sum::<f64>() / n as f64;
        assert!((mean - 7.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn pareto_respects_minimum() {
        let mut rng = SimRng::new(7);
        for _ in 0..10_000 {
            assert!(rng.pareto(3.0, 2.0) >= 3.0);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(8);
        assert!(!rng.chance(0.0));
        assert!((0..100).all(|_| rng.chance(1.0 + 1e-12)));
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SimRng::new(9);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
        }
    }
}
