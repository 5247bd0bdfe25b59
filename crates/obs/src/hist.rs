//! Power-of-two latency histograms.
//!
//! Fixed 64-bucket layout: bucket `i` holds values `v` with
//! `floor(log2(v)) == i` (bucket 0 additionally takes `v == 0`), so the
//! bucket for a value is a pure function of the value — no dynamic
//! resizing, no configuration to disagree on. Merging is bucket-wise
//! addition: commutative and associative, so folding per-worker
//! histograms in any order yields bit-identical totals — the property
//! the `--jobs 1` vs `--jobs 4` guards compare.
//!
//! Values are recorded in whatever integer unit the call site chooses
//! (microseconds of sim time, hop counts); the unit is part of the
//! histogram's documented meaning, not its state.

/// Number of buckets: one per possible `floor(log2(u64))`.
pub const BUCKETS: usize = 64;

/// A fixed-bucket power-of-two histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for PowHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the bucket for `v`: `floor(log2(v))`, with 0 mapping to
/// bucket 0.
#[inline]
fn bucket_of(v: u64) -> usize {
    (63 - v.max(1).leading_zeros()) as usize
}

impl PowHistogram {
    /// An empty histogram.
    pub const fn new() -> PowHistogram {
        PowHistogram { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records `n` samples of value `v`: the same state as `n` calls to
    /// [`record`](Self::record), in one add per field. `n = 0` is a no-op.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self` by bucket-wise addition. Order-free:
    /// any merge tree over the same set of histograms produces identical
    /// state.
    pub fn merge(&mut self, other: &PowHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample value, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Upper bound of the `q`-quantile sample (`0.0 ..= 1.0`), or `None`
    /// when empty: the bound (`2^(i+1) - 1`) of the bucket holding it,
    /// clamped to the largest sample seen — no quantile exceeds the max.
    /// A bound rather than an interpolated value, so it is exact,
    /// deterministic, and merge-stable.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let bound = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return Some(bound.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Non-empty buckets as `(lower_bound, upper_bound, count)` triples,
    /// ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let lo = if i == 0 { 0 } else { 1u64 << i };
                let hi = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                (lo, hi, n)
            })
            .collect()
    }

    /// One-line JSON object (stable key order) — entirely deterministic,
    /// safe on a `grid` row.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"count\": ");
        s.push_str(&self.count.to_string());
        s.push_str(", \"sum\": ");
        s.push_str(&self.sum.to_string());
        s.push_str(", \"min\": ");
        s.push_str(&self.min().unwrap_or(0).to_string());
        s.push_str(", \"max\": ");
        s.push_str(&self.max().unwrap_or(0).to_string());
        s.push_str(", \"buckets\": [");
        let mut first = true;
        for (lo, _hi, n) in self.nonzero_buckets() {
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&format!("[{lo}, {n}]"));
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_of_is_floor_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn record_tracks_count_sum_min_max() {
        let mut h = PowHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        for v in [5u64, 17, 3, 900] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 925);
        assert_eq!(h.min(), Some(3));
        assert_eq!(h.max(), Some(900));
        assert_eq!(h.mean(), Some(925.0 / 4.0));
    }

    #[test]
    fn merge_is_order_free() {
        let samples: Vec<u64> = (0..100).map(|i| (i * 37) % 1000).collect();
        // One histogram recording everything, vs 4 shards merged in two
        // different orders.
        let mut whole = PowHistogram::new();
        for &v in &samples {
            whole.record(v);
        }
        let mut shards: Vec<PowHistogram> = (0..4).map(|_| PowHistogram::new()).collect();
        for (i, &v) in samples.iter().enumerate() {
            shards[i % 4].record(v);
        }
        let mut fwd = PowHistogram::new();
        for s in &shards {
            fwd.merge(s);
        }
        let mut rev = PowHistogram::new();
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(fwd, whole);
        assert_eq!(rev, whole);
        assert_eq!(fwd.to_json(), whole.to_json());
    }

    #[test]
    fn quantile_bound_is_a_bucket_upper_bound() {
        let mut h = PowHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // Median of 1..=100 is ~50 → bucket [32, 63].
        assert_eq!(h.quantile_bound(0.5), Some(63));
        // The top bucket is [64, 127], but nothing above 100 was seen.
        assert_eq!(h.quantile_bound(1.0), Some(100));
        assert_eq!(h.quantile_bound(0.0), Some(1));
        assert_eq!(PowHistogram::new().quantile_bound(0.5), None);
    }

    #[test]
    fn quantile_bound_never_exceeds_the_max() {
        let mut h = PowHistogram::new();
        for _ in 0..100 {
            h.record(16);
        }
        // 16 sits in bucket [16, 31]; the bound is the observed max.
        assert_eq!(h.quantile_bound(0.99), Some(16));
        assert_eq!(h.quantile_bound(0.5), Some(16));
    }

    #[test]
    fn json_is_stable_and_compact() {
        let mut h = PowHistogram::new();
        h.record(0);
        h.record(5);
        assert_eq!(
            h.to_json(),
            "{\"count\": 2, \"sum\": 5, \"min\": 0, \"max\": 5, \"buckets\": [[0, 1], [4, 1]]}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `record_n(v, n)` is `n` calls to `record(v)`, for any run of
        /// `(v, n)` pairs: zero counts, and values large enough that the
        /// sum saturates, included.
        #[test]
        fn record_n_equals_the_expanded_record_loop(
            runs in prop::collection::vec(
                (0u64..6, 0u64..1_000, 0u64..40).prop_map(|(kind, small, n)| match kind {
                    0 => (small, 0),
                    1 => (u64::MAX - small, n),
                    2 => (u64::MAX / 4 + small, n),
                    _ => (small, n),
                }),
                0..24,
            ),
        ) {
            let (mut batched, mut expanded) = (PowHistogram::new(), PowHistogram::new());
            for &(v, n) in &runs {
                batched.record_n(v, n);
                for _ in 0..n {
                    expanded.record(v);
                }
            }
            prop_assert_eq!(&batched, &expanded);
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                prop_assert_eq!(batched.quantile_bound(q), expanded.quantile_bound(q));
            }
            prop_assert_eq!(batched.nonzero_buckets(), expanded.nonzero_buckets());
        }
    }
}
