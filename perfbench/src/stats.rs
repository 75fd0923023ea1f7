//! Latency histograms, percentiles with their sample counts, and the
//! quartile spread the steadiness check uses.

/// Sub-buckets per power of two: bucket width is at most 1/64 of its
/// lower bound (≤1.6%), and percentiles interpolate within a bucket.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const HALF: u64 = SUB / 2;
/// Enough buckets for any `u64` nanosecond value.
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * HALF) as usize;

/// A log-linear histogram of nanosecond durations with fixed memory, so
/// recording costs the same on every run however long it measures.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb + 1 - SUB_BITS;
    let mantissa = v >> shift; // in [HALF, SUB)
    (SUB + u64::from(shift - 1) * HALF + (mantissa - HALF)) as usize
}

/// `(lower bound, width)` of bucket `b`.
fn bucket_range(b: usize) -> (f64, f64) {
    let b = b as u64;
    if b < SUB {
        return (b as f64, 1.0);
    }
    let shift = (b - SUB) / HALF + 1;
    let mantissa = (b - SUB) % HALF + HALF;
    ((mantissa << shift) as f64, (1u64 << shift) as f64)
}

impl Hist {
    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.n += 1;
        self.sum += ns;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    /// The exact mean in nanoseconds; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum as f64 / self.n as f64)
    }

    /// The `q`-quantile (0 < q ≤ 1) in nanoseconds: the sample of rank
    /// ⌈q·n⌉, placed within its bucket by linear interpolation. `None`
    /// when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if below + c >= rank {
                let (lo, width) = bucket_range(b);
                let within = (rank - below) as f64 - 0.5;
                return Some(lo + width * within / c as f64);
            }
            below += c;
        }
        unreachable!("rank is at most the sample count")
    }
}

/// Whether `n` samples support the `q`-quantile: at least ten samples lie
/// beyond it, so one outlier cannot set it.
pub fn supports(n: u64, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= 10.0 - 1e-9
}

/// The highest of p50, p90, p99, p99.9 and p99.99 that `n` samples
/// support, or `None` when not even the median has ten samples beyond it.
pub fn deepest_supported(n: u64) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| supports(n, q))
}

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed here match the
/// ones computed from the JSON lines. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_bounded() {
        let mut last = 0;
        for v in (0..1_000_000u64).chain([1 << 40, (1 << 50) + 12_345]) {
            let b = bucket(v);
            assert!(b < BUCKETS);
            assert!(b >= last || v > 1_000_000, "bucket order broke at {v}");
            last = b;
            let (lo, width) = bucket_range(b);
            assert!(
                lo <= v as f64 && (v as f64) < lo + width,
                "{v} outside {lo}+{width}"
            );
            assert!(width <= (lo / 64.0).max(1.0), "bucket of {v} too wide");
        }
    }

    #[test]
    fn percentiles_and_sample_counts() {
        let mut h = Hist::default();
        assert_eq!(h.quantile(0.5), None);
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.mean(), Some(500_050.0));
        for (q, want) in [(0.5, 500_000.0), (0.9, 900_000.0), (0.99, 990_000.0)] {
            let got = h.quantile(q).unwrap();
            assert!((got / want - 1.0).abs() < 0.01, "p{q}: {got} vs {want}");
        }
        assert_eq!(
            h.quantile(1.0).map(|v| v <= 1_000_000.0 * 1.016),
            Some(true)
        );
        let mut twice = h.clone();
        twice.merge(&h);
        assert_eq!(twice.count(), 20_000);
        let (a, b) = (twice.quantile(0.5).unwrap(), h.quantile(0.5).unwrap());
        assert!((a / b - 1.0).abs() < 1e-3, "{a} vs {b}");
        assert!(bucket(u64::MAX) < BUCKETS);

        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert_eq!(deepest_supported(10_000), Some(0.999));
        assert_eq!(deepest_supported(100), Some(0.9));
        assert_eq!(deepest_supported(19), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), Some(5.5));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(spread(&[3.0, 1.0, 2.0]), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
