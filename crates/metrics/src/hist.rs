//! Log-linear histogram: power-of-two octaves, 16 linear sub-buckets
//! each, exact below 16.
//!
//! The scheme is the usual HDR-style compromise: relative error is
//! bounded at ~6% (1/16) at any magnitude, the bucket index is a few
//! bit operations, and the bucket count for the full `u64` range tops
//! out below a thousand — small enough to keep per-instrument without
//! thinking about it. Values 0–15 get exact unit buckets, so the small
//! counts that dominate queue-depth style distributions lose nothing.

/// Sub-buckets per octave (and the exact range: values `< LINEAR`).
const LINEAR: u64 = 16;

/// One non-empty bucket in a finished histogram report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistBucket {
    /// Inclusive lower bound of the bucket's value range.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
    /// Recorded values falling in `[lo, hi]`.
    pub count: u64,
}

/// A log-linear histogram over `u64` values.
#[derive(Debug, Clone, Default)]
pub struct LogLinearHist {
    /// Bucket counts, grown lazily to the highest touched bucket.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Bucket index for value `v`.
#[inline]
fn bucket(v: u64) -> usize {
    if v < LINEAR {
        v as usize
    } else {
        // msb >= 4; the four bits below it pick the linear sub-bucket.
        let msb = 63 - v.leading_zeros() as u64;
        let sub = (v >> (msb - 4)) & (LINEAR - 1);
        (LINEAR * (msb - 3) + sub) as usize
    }
}

/// Inclusive `[lo, hi]` value range of bucket `b` (inverse of
/// [`bucket`]).
fn bounds(b: usize) -> (u64, u64) {
    let b = b as u64;
    if b < LINEAR {
        (b, b)
    } else {
        let msb = b / LINEAR + 3;
        let sub = b % LINEAR;
        let width = 1u64 << (msb - 4);
        let lo = (1u64 << msb) + sub * width;
        // `lo + width` overflows for the top bucket (hi == u64::MAX).
        (lo, lo + (width - 1))
    }
}

impl LogLinearHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` copies of one value: the same histogram as `n` calls
    /// of [`record`](Self::record), in one bucket update.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let b = bucket(v);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += n;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += n;
        // Saturates exactly where `n` saturating adds of `v` would.
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
    }

    /// Total values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values, saturating at `u64::MAX`.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate inclusive upper bound of the bucket holding quantile
    /// `q` (`0.0..=1.0`). Exact for values below 16; within the ~6%
    /// bucket width above.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bounds(b).1.min(self.max);
            }
        }
        self.max
    }

    /// The non-empty buckets in value order.
    pub fn buckets(&self) -> Vec<HistBucket> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| {
                let (lo, hi) = bounds(b);
                HistBucket { lo, hi, count: c }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogLinearHist::new();
        for v in 0..16u64 {
            h.record(v);
        }
        let buckets = h.buckets();
        assert_eq!(buckets.len(), 16);
        for (v, b) in buckets.iter().enumerate() {
            assert_eq!((b.lo, b.hi, b.count), (v as u64, v as u64, 1));
        }
        assert_eq!(h.quantile(0.5), 7);
    }

    #[test]
    fn bounds_invert_bucket_everywhere() {
        // Every probe value must land in a bucket whose range contains it,
        // and bucket ranges must tile without gaps.
        let probes = [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            63,
            64,
            1000,
            4095,
            4096,
            u32::MAX as u64,
            u64::MAX / 2,
            u64::MAX,
        ];
        for &v in &probes {
            let (lo, hi) = bounds(bucket(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
        for b in 0..bucket(u64::MAX) {
            let (_, hi) = bounds(b);
            let (lo_next, _) = bounds(b + 1);
            assert_eq!(hi + 1, lo_next, "gap between buckets {b} and {}", b + 1);
        }
    }

    #[test]
    fn moments_and_quantiles_track_inputs() {
        let mut h = LogLinearHist::new();
        for v in [100u64, 200, 300, 400, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 400.0).abs() < 1e-9);
        // p99 bucket must contain the max; bucket width at 1000 is 64.
        let p99 = h.quantile(0.99);
        assert!((1000..1064).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn record_n_equals_n_records() {
        let cases: [&[(u64, u64)]; 4] = [
            &[(5, 3), (5, 1), (0, 2)],
            &[(148, 800), (24, 1), (20, 799)],
            &[(1000, 0), (17, 4)],
            // Near the top: the sum saturates partway through.
            &[(u64::MAX / 3, 2), (u64::MAX - 1, 3), (1, 1)],
        ];
        for runs in cases {
            let mut one_by_one = LogLinearHist::new();
            let mut batched = LogLinearHist::new();
            for &(v, n) in runs {
                for _ in 0..n {
                    one_by_one.record(v);
                }
                batched.record_n(v, n);
            }
            assert_eq!(batched.count(), one_by_one.count(), "{runs:?}");
            assert_eq!(batched.sum(), one_by_one.sum(), "{runs:?}");
            assert_eq!(batched.min(), one_by_one.min(), "{runs:?}");
            assert_eq!(batched.max(), one_by_one.max(), "{runs:?}");
            assert_eq!(batched.buckets(), one_by_one.buckets(), "{runs:?}");
        }
        let mut top = LogLinearHist::new();
        top.record_n(u64::MAX - 1, 3);
        assert_eq!(top.sum(), u64::MAX);
        let mut exact = LogLinearHist::new();
        exact.record_n(u64::MAX / 4, 3);
        assert_eq!(exact.sum(), u64::MAX / 4 * 3);
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in (16u64..100_000).step_by(97) {
            let (lo, hi) = bounds(bucket(v));
            // Bucket width is 1/16th of the octave base.
            assert!(
                (hi - lo + 1) as f64 <= lo as f64 / 8.0 + 1.0,
                "{v}: [{lo},{hi}]"
            );
        }
    }
}
