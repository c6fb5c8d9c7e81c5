//! Latency statistics.
//!
//! The paper reports average round-trip latency with standard-deviation
//! error bars (Figs. 4–5), full latency distributions (Fig. 3), and exact
//! tail percentiles at 95/99/99.9% over 50 000 samples per configuration
//! (Table I). This module provides the corresponding tooling:
//!
//! * [`SampleSet`] — stores every sample (50 000 × 8 bytes per
//!   configuration is trivial) so percentiles are **exact**, like the
//!   paper's, not sketch approximations;
//! * [`Summary`] — the five-number summary plus mean/std/p95/p99/p999 that
//!   every experiment row is built from;
//! * [`Welford`] — streaming mean/variance for hardware counters that run
//!   for millions of events;
//! * [`Histogram`] — fixed-bin histogram for rendering Fig. 3-style
//!   distribution plots in text.

use serde::{Deserialize, Serialize};

use crate::time::Time;

/// A collection of latency samples (stored in microseconds, the paper's
/// reporting unit).
#[derive(Clone, Debug, Default)]
pub struct SampleSet {
    samples: Vec<f64>,
    /// Sorted copy of `samples`, rebuilt lazily for percentile queries.
    /// `samples` itself always stays in insertion order so [`Self::raw`]
    /// can return the time series.
    sorted: Vec<f64>,
    sorted_valid: bool,
}

impl SampleSet {
    /// Empty set with capacity for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        SampleSet {
            samples: Vec::with_capacity(n),
            sorted: Vec::new(),
            sorted_valid: true,
        }
    }

    /// Build directly from microsecond values.
    pub fn from_us(values: Vec<f64>) -> Self {
        SampleSet {
            samples: values,
            sorted: Vec::new(),
            sorted_valid: false,
        }
    }

    /// Record one latency sample.
    pub fn push(&mut self, t: Time) {
        self.samples.push(t.as_us_f64());
        self.sorted_valid = false;
    }

    /// Record one sample already in microseconds.
    pub fn push_us(&mut self, us: f64) {
        debug_assert!(us.is_finite() && us >= 0.0);
        self.samples.push(us);
        self.sorted_valid = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples, always in insertion order — percentile queries
    /// sort a private copy, never the series itself.
    pub fn raw(&self) -> &[f64] {
        &self.samples
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted_valid {
            self.sorted.clear();
            self.sorted.extend_from_slice(&self.samples);
            self.sorted
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN latency sample"));
            self.sorted_valid = true;
        }
    }

    /// Exact percentile `p` in `[0, 100]` using the nearest-rank method
    /// (the conventional definition for reported tail latencies).
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!(!self.samples.is_empty(), "percentile of empty sample set");
        assert!((0.0..=100.0).contains(&p));
        self.ensure_sorted();
        if p == 0.0 {
            return self.sorted[0];
        }
        let exact = p / 100.0 * self.sorted.len() as f64;
        // Guard against float noise pushing an integral rank (e.g.
        // 0.999 × 1000) up to the next sample.
        let rank = if (exact - exact.round()).abs() < 1e-6 {
            exact.round() as usize
        } else {
            exact.ceil() as usize
        };
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        assert!(!self.samples.is_empty());
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Sample standard deviation (n−1 denominator).
    pub fn std_dev(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let ss: f64 = self.samples.iter().map(|x| (x - mean).powi(2)).sum();
        (ss / (n - 1) as f64).sqrt()
    }

    /// Full summary of this sample set.
    pub fn summary(&mut self) -> Summary {
        assert!(!self.samples.is_empty());
        self.ensure_sorted();
        Summary {
            n: self.samples.len(),
            mean_us: self.mean(),
            std_us: self.std_dev(),
            min_us: self.sorted[0],
            p25_us: self.percentile(25.0),
            median_us: self.percentile(50.0),
            p75_us: self.percentile(75.0),
            p95_us: self.percentile(95.0),
            p99_us: self.percentile(99.0),
            p999_us: self.percentile(99.9),
            max_us: *self.sorted.last().unwrap(),
        }
    }

    /// Histogram of the samples over `[lo, hi)` with `bins` equal bins.
    /// Out-of-range samples clamp to the edge bins so counts always total
    /// `len()`.
    pub fn histogram(&self, lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(bins > 0 && hi > lo);
        let mut counts = vec![0u64; bins];
        let width = (hi - lo) / bins as f64;
        for &s in &self.samples {
            let idx = ((s - lo) / width).floor();
            let idx = (idx.max(0.0) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        Histogram { lo, hi, counts }
    }
}

/// Summary statistics of one latency distribution, in microseconds.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Mean.
    pub mean_us: f64,
    /// Sample standard deviation.
    pub std_us: f64,
    /// Minimum.
    pub min_us: f64,
    /// First quartile.
    pub p25_us: f64,
    /// Median.
    pub median_us: f64,
    /// Third quartile.
    pub p75_us: f64,
    /// 95th percentile (Table I, first column group).
    pub p95_us: f64,
    /// 99th percentile (Table I, second column group).
    pub p99_us: f64,
    /// 99.9th percentile (Table I, third column group).
    pub p999_us: f64,
    /// Maximum.
    pub max_us: f64,
}

impl Summary {
    /// Interquartile range, the box height in a Fig. 3-style box plot.
    pub fn iqr_us(&self) -> f64 {
        self.p75_us - self.p25_us
    }

    /// Coefficient of variation (σ/µ), the scale-free variance measure used
    /// when comparing the two drivers' spread across payload sizes.
    pub fn cv(&self) -> f64 {
        if self.mean_us == 0.0 {
            0.0
        } else {
            self.std_us / self.mean_us
        }
    }
}

/// Streaming mean/variance (Welford's online algorithm) for counters that
/// observe too many events to store individually.
#[derive(Clone, Copy, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Fold in a duration, in microseconds.
    pub fn add_time(&mut self, t: Time) {
        self.add(t.as_us_f64());
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (0 with fewer than two observations).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest observation (0 if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Fixed-bin histogram over `[lo, hi)`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Histogram {
    /// Lower edge of the first bin.
    pub lo: f64,
    /// Upper edge of the last bin.
    pub hi: f64,
    /// Per-bin sample counts.
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Total samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Render as a compact ASCII sparkline, useful in harness output.
    pub fn sparkline(&self) -> String {
        const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = self.counts.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return " ".repeat(self.counts.len());
        }
        self.counts
            .iter()
            .map(|&c| {
                if c == 0 {
                    ' '
                } else {
                    // Scale in u128: `c * 8` overflows u64 for bin counts
                    // above u64::MAX / 8.
                    let idx = ((c as u128 * 8) / max as u128).clamp(1, 8) as usize - 1;
                    BLOCKS[idx]
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(values: &[f64]) -> SampleSet {
        SampleSet::from_us(values.to_vec())
    }

    #[test]
    fn percentile_nearest_rank() {
        // Classic nearest-rank example.
        let mut s = set_of(&[15.0, 20.0, 35.0, 40.0, 50.0]);
        assert_eq!(s.percentile(30.0), 20.0);
        assert_eq!(s.percentile(40.0), 20.0);
        assert_eq!(s.percentile(50.0), 35.0);
        assert_eq!(s.percentile(100.0), 50.0);
        assert_eq!(s.percentile(0.0), 15.0);
    }

    #[test]
    fn percentile_of_uniform_ramp() {
        let mut s = SampleSet::with_capacity(1000);
        // Insert in shuffled-ish order to exercise the sort.
        for i in (0..1000).rev() {
            s.push(Time::from_us(i + 1));
        }
        assert_eq!(s.percentile(95.0), 950.0);
        assert_eq!(s.percentile(99.0), 990.0);
        assert_eq!(s.percentile(99.9), 999.0);
    }

    #[test]
    fn summary_fields_consistent() {
        let mut s = SampleSet::with_capacity(10_000);
        for i in 0..10_000u64 {
            s.push(Time::from_ns(1000 + (i % 100) * 10));
        }
        let sum = s.summary();
        assert_eq!(sum.n, 10_000);
        assert!(sum.min_us <= sum.p25_us);
        assert!(sum.p25_us <= sum.median_us);
        assert!(sum.median_us <= sum.p75_us);
        assert!(sum.p75_us <= sum.p95_us);
        assert!(sum.p95_us <= sum.p99_us);
        assert!(sum.p99_us <= sum.p999_us);
        assert!(sum.p999_us <= sum.max_us);
        assert!(sum.iqr_us() >= 0.0);
    }

    #[test]
    fn welford_matches_batch() {
        let values: Vec<f64> = (0..5000)
            .map(|i| (i as f64 * 0.37).sin() * 10.0 + 50.0)
            .collect();
        let mut w = Welford::new();
        for &v in &values {
            w.add(v);
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var =
            values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-9);
        assert!((w.std_dev() - var.sqrt()).abs() < 1e-9);
        assert_eq!(w.count(), 5000);
        assert!(w.min() <= mean && w.max() >= mean);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.std_dev(), 0.0);
        w.add(42.0);
        assert_eq!(w.mean(), 42.0);
        assert_eq!(w.std_dev(), 0.0);
    }

    #[test]
    fn histogram_conserves_samples() {
        let s = set_of(&[-5.0, 0.0, 1.0, 2.5, 9.99, 10.0, 100.0]);
        let h = s.histogram(0.0, 10.0, 10);
        assert_eq!(h.total(), 7); // clamped samples still counted
        assert_eq!(h.counts[0], 2); // -5.0 clamps in, 0.0 lands in bin 0
        assert_eq!(h.counts[9], 3); // 9.99 plus clamped 10.0 and 100.0
        assert!((h.bin_width() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_sparkline_shape() {
        let s = set_of(&[1.0, 1.1, 1.2, 5.0]);
        let h = s.histogram(0.0, 10.0, 10);
        let line = h.sparkline();
        assert_eq!(line.chars().count(), 10);
        // Bin 1 (three samples) must render taller than bin 5 (one sample).
        let chars: Vec<char> = line.chars().collect();
        assert!(chars[1] > chars[5]);
    }

    #[test]
    fn raw_preserves_insertion_order_across_percentile_queries() {
        // Regression: `percentile`/`summary` used to sort the sample
        // vector in place, so `raw()` afterwards returned a monotone
        // ramp instead of the recorded time series.
        let mut s = SampleSet::with_capacity(8);
        s.push_us(30.0);
        s.push_us(10.0);
        assert_eq!(s.percentile(50.0), 10.0);
        assert_eq!(s.raw(), &[30.0, 10.0], "percentile must not reorder raw");
        s.push_us(20.0);
        let sum = s.summary();
        assert_eq!(sum.min_us, 10.0);
        assert_eq!(sum.max_us, 30.0);
        assert_eq!(s.raw(), &[30.0, 10.0, 20.0], "summary must not reorder raw");
        // Percentiles keep seeing new pushes.
        assert_eq!(s.percentile(100.0), 30.0);
        assert_eq!(s.percentile(0.0), 10.0);
    }

    #[test]
    fn sparkline_survives_huge_bin_counts() {
        // Regression: the scaling `c * 8 / max` was done in u64 and
        // overflowed for counts above u64::MAX / 8.
        let h = Histogram {
            lo: 0.0,
            hi: 2.0,
            counts: vec![u64::MAX, u64::MAX / 2 + 1, 1, 0],
        };
        let line: Vec<char> = h.sparkline().chars().collect();
        assert_eq!(line[0], '█', "max bin renders full height");
        assert_eq!(line[1], '▄', "half-max bin renders mid height");
        assert_eq!(line[2], '▁', "tiny bin still visible");
        assert_eq!(line[3], ' ');
    }

    #[test]
    fn cv_scale_free() {
        let mut a = set_of(&[10.0, 12.0, 14.0]);
        let mut b = set_of(&[100.0, 120.0, 140.0]);
        let (sa, sb) = (a.summary(), b.summary());
        assert!((sa.cv() - sb.cv()).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn percentile_empty_panics() {
        let mut s = SampleSet::default();
        let _ = s.percentile(50.0);
    }
}
