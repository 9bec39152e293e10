//! The log2-bucketed histogram shared by guest metrics (simulated
//! latencies in `wwt-sim`'s trace sink) and host metrics (per-experiment
//! wall time in this registry), so both report percentiles by one rule.

use std::fmt;

/// Number of log2 buckets: bucket 0 holds zero, bucket `i` (1..=64) holds
/// values whose bit length is `i`, i.e. `2^(i-1) <= v < 2^i`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// The bucket index a value falls into.
    pub fn bucket_index(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// The half-open value range `[lo, hi)` of bucket `i`.
    ///
    /// Bucket 0 is `[0, 1)`; bucket 64's upper bound saturates at
    /// `u64::MAX`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HISTOGRAM_BUCKETS, "bucket index out of range");
        if i == 0 {
            (0, 1)
        } else {
            (1 << (i - 1), 1u64.checked_shl(i as u32).unwrap_or(u64::MAX))
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[Self::bucket_index(v)] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-th percentile (`0.0..=1.0`), estimated by linear
    /// interpolation within the log2 bucket the target rank lands in and
    /// clamped to the observed `[min, max]`. Exact when a bucket holds a
    /// single distinct value; 0.0 when the histogram is empty.
    ///
    /// Total on its domain: `q` outside `0.0..=1.0` clamps to the nearest
    /// end, a NaN `q` reads as `0.0`, `percentile(0.0)` is exactly
    /// [`Histogram::min`] and `percentile(1.0)` exactly
    /// [`Histogram::max`] — so exported metrics never carry NaN and never
    /// understate the tail when the top bucket holds a single sample.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        if q <= 0.0 {
            return self.min as f64;
        }
        if q >= 1.0 {
            return self.max as f64;
        }
        // Rank of the target sample, 1-based: q of the way through the
        // ordered samples (nearest-rank with interpolation inside the
        // bucket's value range).
        let rank = q * (self.count as f64 - 1.0) + 1.0;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lo_rank = seen as f64 + 1.0;
            let hi_rank = (seen + c) as f64;
            if rank <= hi_rank {
                let (lo, hi) = Self::bucket_bounds(i);
                let frac = if c > 1 {
                    ((rank - lo_rank) / (hi_rank - lo_rank)).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let v = lo as f64 + frac * (hi.saturating_sub(1).saturating_sub(lo)) as f64;
                return v.clamp(self.min as f64, self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Iterates over non-empty buckets as `(lo, hi, count)`.
    pub fn nonempty_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, c)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bit_length() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(255), 8);
        assert_eq!(Histogram::bucket_index(256), 9);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_are_half_open_and_contiguous() {
        assert_eq!(Histogram::bucket_bounds(0), (0, 1));
        assert_eq!(Histogram::bucket_bounds(1), (1, 2));
        assert_eq!(Histogram::bucket_bounds(2), (2, 4));
        assert_eq!(Histogram::bucket_bounds(10), (512, 1024));
        assert_eq!(Histogram::bucket_bounds(64), (1 << 63, u64::MAX));
        // Every bucket's lower bound is the previous bucket's upper bound.
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(
                Histogram::bucket_bounds(i).1,
                Histogram::bucket_bounds(i + 1).0
            );
        }
        // And each boundary value lands in the bucket whose range opens
        // with it.
        for i in 1..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_index(lo), i);
            if hi < u64::MAX {
                assert_eq!(Histogram::bucket_index(hi - 1), i);
            }
        }
    }

    #[test]
    fn histogram_summary_statistics() {
        let mut h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        for v in [10, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 60);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 30);
        assert!((h.mean() - 20.0).abs() < 1e-12);
        // 10 -> bucket 4 [8,16), 20 and 30 -> bucket 5 [16,32).
        let got: Vec<_> = h.nonempty_buckets().collect();
        assert_eq!(got, vec![(8, 16, 1), (16, 32, 2)]);
    }

    #[test]
    fn percentiles_interpolate_within_buckets_and_clamp_to_observed() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0.0);

        // A single sample answers every percentile with itself.
        let mut h = Histogram::new();
        h.record(100);
        assert_eq!(h.percentile(0.0), 100.0);
        assert_eq!(h.percentile(0.5), 100.0);
        assert_eq!(h.percentile(1.0), 100.0);

        // Uniform 1..=100: percentile estimates stay within one bucket
        // width of the exact order statistic and are monotone.
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.50);
        let p90 = h.percentile(0.90);
        let p99 = h.percentile(0.99);
        assert!((32.0..=64.0).contains(&p50), "p50={p50}");
        assert!((64.0..=100.0).contains(&p90), "p90={p90}");
        assert!(p99 >= p90 && p90 >= p50, "p50={p50} p90={p90} p99={p99}");
        assert!(p99 <= 100.0, "p99={p99} exceeds observed max");
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(1.0), 100.0);

        // A heavy outlier moves the tail but not the median.
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        let p50 = h.percentile(0.50);
        assert!(p50 < 16.0, "median stays in the outlier-free bucket: {p50}");
        assert!(h.percentile(0.999) > 16.0);
    }

    #[test]
    fn percentile_is_total_on_degenerate_inputs() {
        // Empty histogram: every percentile (even a NaN or out-of-range
        // rank) is 0.0, never NaN and never a panic.
        let h = Histogram::new();
        for q in [f64::NAN, -1.0, 0.0, 0.5, 1.0, 2.0, f64::INFINITY] {
            let p = h.percentile(q);
            assert_eq!(p, 0.0, "empty histogram, q={q}: {p}");
        }

        // Two samples whose top bucket holds a single value: p100 must be
        // the observed max, not the top bucket's lower bound.
        let mut h = Histogram::new();
        h.record(3);
        h.record(100); // bucket [64, 128)
        assert_eq!(h.percentile(0.0), 3.0);
        assert_eq!(h.percentile(1.0), 100.0);

        // Out-of-range and NaN ranks clamp instead of poisoning the
        // exported JSON.
        assert_eq!(h.percentile(-0.5), 3.0);
        assert_eq!(h.percentile(1.5), 100.0);
        assert!(!h.percentile(f64::NAN).is_nan());

        // All samples in one bucket: every percentile stays inside the
        // observed range whatever q is.
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(70); // all in [64, 128)
        }
        for q in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let p = h.percentile(q);
            assert_eq!(p, 70.0, "single-valued histogram, q={q}: {p}");
        }
    }

    #[test]
    fn zero_samples_land_in_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }
}
