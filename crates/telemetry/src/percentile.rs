//! Mergeable histogram snapshots and quantile estimation.
//!
//! A [`HistogramSnapshot`] is a plain-value copy of a [`Histogram`]'s bucket
//! counts. Snapshots from different histograms (or different processes, once
//! deserialized) can be [`merge`](HistogramSnapshot::merge)d, and two
//! snapshots of the *same* histogram can be
//! [`diff`](HistogramSnapshot::diff)ed to isolate the observations of one
//! workload window. Quantiles are estimated Prometheus-style: linear
//! interpolation inside the bucket that crosses the target rank, clamped to
//! the tracked maximum so a single observation reports itself exactly.

use crate::registry::Histogram;
use std::time::Duration;

/// A point-in-time, mergeable copy of one histogram's distribution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Non-cumulative per-bucket counts; one slot per shared bound plus the
    /// trailing `+Inf` bucket (see [`Histogram::bucket_bounds`]).
    pub buckets: Vec<u64>,
    /// Sum of all observations, in nanoseconds.
    pub sum_nanos: u64,
    /// Total number of observations.
    pub count: u64,
    /// Largest single observation, in nanoseconds. For a
    /// [`diff`](Self::diff) this is the *lifetime* maximum of the later
    /// snapshot — an upper bound on the window's maximum, not necessarily an
    /// observation inside the window.
    pub max_nanos: u64,
}

impl HistogramSnapshot {
    /// A zero-valued snapshot with the standard bucket layout.
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; Histogram::bucket_bounds().len() + 1],
            ..HistogramSnapshot::default()
        }
    }

    /// Combines two snapshots (e.g. the RBM and BWM series, or per-shard
    /// histograms) into one distribution.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let len = self.buckets.len().max(other.buckets.len());
        let bucket = |s: &HistogramSnapshot, i: usize| s.buckets.get(i).copied().unwrap_or(0);
        HistogramSnapshot {
            buckets: (0..len)
                .map(|i| bucket(self, i).saturating_add(bucket(other, i)))
                .collect(),
            sum_nanos: self.sum_nanos.saturating_add(other.sum_nanos),
            count: self.count.saturating_add(other.count),
            max_nanos: self.max_nanos.max(other.max_nanos),
        }
    }

    /// The observations recorded between `earlier` and `self` (both taken
    /// from the same histogram). Per-bucket subtraction saturates at zero;
    /// `max_nanos` keeps the later snapshot's lifetime maximum.
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let bucket = |s: &HistogramSnapshot, i: usize| s.buckets.get(i).copied().unwrap_or(0);
        HistogramSnapshot {
            buckets: (0..self.buckets.len())
                .map(|i| bucket(self, i).saturating_sub(bucket(earlier, i)))
                .collect(),
            sum_nanos: self.sum_nanos.saturating_sub(earlier.sum_nanos),
            count: self.count.saturating_sub(earlier.count),
            max_nanos: self.max_nanos,
        }
    }

    /// Mean observation, or `None` when the snapshot is empty.
    pub fn mean(&self) -> Option<Duration> {
        if self.count == 0 {
            return None;
        }
        Some(Duration::from_nanos(self.sum_nanos / self.count))
    }

    /// Largest observation (see [`max_nanos`](Self::max_nanos) for the diff
    /// caveat).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos)
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// within the bucket containing the target rank, clamped to the tracked
    /// maximum. Returns `None` when the snapshot holds no observations.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let bounds = Histogram::bucket_bounds();
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            let below = cumulative;
            cumulative = cumulative.saturating_add(n);
            if n == 0 || cumulative < target {
                continue;
            }
            let upper = bounds.get(i).copied().unwrap_or(f64::INFINITY);
            let est_secs = if upper.is_finite() {
                let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
                let frac = (target - below) as f64 / n as f64;
                lower + (upper - lower) * frac
            } else {
                // +Inf bucket: the tracked maximum is the best estimate.
                self.max_nanos as f64 / 1e9
            };
            let mut est_nanos = (est_secs * 1e9).round() as u64;
            if self.max_nanos > 0 {
                est_nanos = est_nanos.min(self.max_nanos);
            }
            return Some(Duration::from_nanos(est_nanos));
        }
        // count > 0 guarantees some bucket crosses the target rank.
        None
    }

    /// Median estimate (`quantile(0.50)`).
    pub fn p50(&self) -> Option<Duration> {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> Option<Duration> {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<Duration> {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observe_all(h: &Histogram, durations: &[Duration]) -> HistogramSnapshot {
        for &d in durations {
            h.observe(d);
        }
        h.snapshot()
    }

    #[test]
    fn zero_samples_has_no_quantiles() {
        let snap = Histogram::default().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(snap.mean(), None);
        assert_eq!(snap.max(), Duration::ZERO);
        let empty = HistogramSnapshot::empty();
        assert_eq!(empty.quantile(0.99), None);
    }

    #[test]
    fn single_sample_reports_itself_exactly() {
        let h = Histogram::default();
        let snap = observe_all(&h, &[Duration::from_micros(30)]);
        // Interpolation lands on the bucket's upper bound (50µs) but the
        // max clamp pulls every quantile back to the one real observation.
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), Some(Duration::from_micros(30)), "q={q}");
        }
        assert_eq!(snap.mean(), Some(Duration::from_micros(30)));
    }

    #[test]
    fn bucket_boundary_values_stay_in_their_bucket() {
        let h = Histogram::default();
        // 1µs is exactly the first bound: `secs <= bound` keeps it in
        // bucket 0, so the p50 interpolates within (0, 1µs] and clamps to
        // the 1µs max.
        let snap = observe_all(&h, &[Duration::from_micros(1)]);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.p50(), Some(Duration::from_micros(1)));
        // 1ms is a mid-array bound (index 9); confirm no spill into the
        // next bucket.
        let h2 = Histogram::default();
        let snap2 = observe_all(&h2, &[Duration::from_millis(1)]);
        let bound_idx = Histogram::bucket_bounds()
            .iter()
            .position(|&b| (b - 1e-3).abs() < f64::EPSILON)
            .unwrap();
        assert_eq!(snap2.buckets[bound_idx], 1);
        assert_eq!(snap2.p99(), Some(Duration::from_millis(1)));
    }

    #[test]
    fn merge_of_disjoint_snapshots() {
        let fast = Histogram::default();
        let fast_snap = observe_all(
            &fast,
            &[
                Duration::from_micros(1),
                Duration::from_micros(1),
                Duration::from_micros(1),
            ],
        );
        let slow = Histogram::default();
        let slow_snap = observe_all(&slow, &[Duration::from_secs(1)]);
        let merged = fast_snap.merge(&slow_snap);
        assert_eq!(merged.count, 4);
        assert_eq!(merged.max(), Duration::from_secs(1));
        // Median interpolates within the fast mode's bucket (0, 1µs]; the
        // tail sees the slow outlier.
        let p50 = merged.p50().unwrap();
        assert!(
            p50 > Duration::ZERO && p50 <= Duration::from_micros(1),
            "p50 was {p50:?}"
        );
        let p99 = merged.p99().unwrap();
        assert!(p99 >= Duration::from_millis(100), "p99 was {p99:?}");
        assert!(p99 <= Duration::from_secs(1));
        // Merge is commutative.
        assert_eq!(merged, slow_snap.merge(&fast_snap));
    }

    #[test]
    fn diff_isolates_a_window() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(3));
        let before = h.snapshot();
        h.observe(Duration::from_micros(40));
        h.observe(Duration::from_micros(45));
        let window = h.snapshot().diff(&before);
        assert_eq!(window.count, 2);
        assert_eq!(
            window.mean(),
            Some(Duration::from_nanos((40_000 + 45_000) / 2))
        );
        let p50 = window.p50().unwrap();
        assert!(p50 > Duration::from_micros(20), "p50 was {p50:?}");
        assert!(p50 <= Duration::from_micros(50));
    }

    #[test]
    fn plus_inf_bucket_uses_tracked_max() {
        let h = Histogram::default();
        let snap = observe_all(&h, &[Duration::from_secs(30)]);
        assert_eq!(*snap.buckets.last().unwrap(), 1);
        assert_eq!(snap.p99(), Some(Duration::from_secs(30)));
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let h = Histogram::default();
        let durations: Vec<Duration> = (1..=200).map(Duration::from_micros).collect();
        let snap = observe_all(&h, &durations);
        let mut last = Duration::ZERO;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = snap.quantile(q).unwrap();
            assert!(v >= last, "quantile({q}) = {v:?} < {last:?}");
            last = v;
        }
        assert!(last <= Duration::from_micros(200));
    }
}
