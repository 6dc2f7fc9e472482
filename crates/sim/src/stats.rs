//! Small statistics helpers for experiment harnesses: streaming summaries
//! and log-bucketed histograms of durations.

use crate::time::Dur;

/// Streaming summary (count / max / mean) over durations.
#[derive(Clone, Debug, Default)]
pub struct DurSummary {
    count: u64,
    total_ps: u128,
    max: Option<Dur>,
}

impl DurSummary {
    /// An empty summary.
    pub fn new() -> DurSummary {
        DurSummary::default()
    }

    /// Adds one observation.
    pub(crate) fn record(&mut self, d: Dur) {
        self.count += 1;
        self.total_ps += u128::from(d.as_ps());
        self.max = Some(self.max.map_or(d, |m| m.max(d)));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest observation.
    pub(crate) fn max(&self) -> Option<Dur> {
        self.max
    }

    /// Arithmetic mean (None when empty).
    pub fn mean(&self) -> Option<Dur> {
        if self.count == 0 {
            None
        } else {
            Some(Dur::from_ps(
                (self.total_ps / u128::from(self.count)) as u64,
            ))
        }
    }

    /// Sum of all observations.
    pub fn total(&self) -> Dur {
        Dur::from_ps(u64::try_from(self.total_ps).expect("total overflow"))
    }
}

/// A power-of-two-bucketed histogram of durations (microsecond base
/// resolution), good enough for percentile reporting in experiment output
/// without storing every sample.
#[derive(Clone, Debug)]
pub struct DurHistogram {
    /// bucket k counts observations in `[2^k, 2^(k+1))` microseconds;
    /// bucket 0 also holds sub-microsecond observations.
    buckets: Vec<u64>,
    /// Largest observation (in ps) seen per bucket, to tighten quantile
    /// bounds: an exact power of two must report itself, not the bucket's
    /// open upper edge one full bucket higher.
    bucket_max_ps: Vec<u64>,
    summary: DurSummary,
}

impl Default for DurHistogram {
    fn default() -> Self {
        DurHistogram::new()
    }
}

impl DurHistogram {
    /// An empty histogram covering 1 µs .. ~36 minutes.
    pub fn new() -> DurHistogram {
        DurHistogram {
            buckets: vec![0; 32],
            bucket_max_ps: vec![0; 32],
            summary: DurSummary::new(),
        }
    }

    fn bucket_of(d: Dur) -> usize {
        let us = d.as_micros();
        if us == 0 {
            0
        } else {
            (63 - us.leading_zeros() as usize).min(31)
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, d: Dur) {
        let b = Self::bucket_of(d);
        self.buckets[b] += 1;
        self.bucket_max_ps[b] = self.bucket_max_ps[b].max(d.as_ps());
        self.summary.record(d);
    }

    /// The streaming summary over the same observations.
    pub(crate) fn summary(&self) -> &DurSummary {
        &self.summary
    }

    /// Upper bound of the bucket containing quantile `q` (0..=1): a
    /// conservative percentile estimate.
    pub fn quantile(&self, q: f64) -> Option<Dur> {
        assert!((0.0..=1.0).contains(&q));
        let n = self.summary.count();
        if n == 0 {
            return None;
        }
        let target = ((n as f64 * q).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // The target observation lies in bucket k, so both the
                // bucket's open upper edge and the largest value actually
                // recorded in it bound the quantile; the latter is tighter,
                // and keeps exact-power-of-two data from reporting a bound
                // one full bucket high.
                let edge_ps = Dur::from_micros(1u64 << (k + 1)).as_ps();
                return Some(Dur::from_ps(edge_ps.min(self.bucket_max_ps[k])));
            }
        }
        self.summary.max()
    }

    /// Renders a compact one-line report:
    /// `n=.. mean=.. p50<=.. p95<=.. p99<=.. max=..`.
    pub fn report(&self) -> String {
        match self.summary.count() {
            0 => "n=0".to_string(),
            n => format!(
                "n={} mean={} p50<={} p95<={} p99<={} max={}",
                n,
                self.summary.mean().unwrap(),
                self.quantile(0.5).unwrap(),
                self.quantile(0.95).unwrap(),
                self.quantile(0.99).unwrap(),
                self.summary.max().unwrap(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_tracks_max_mean_total() {
        let mut s = DurSummary::new();
        assert!(s.mean().is_none());
        for us in [10u64, 20, 30] {
            s.record(Dur::from_micros(us));
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.max(), Some(Dur::from_micros(30)));
        assert_eq!(s.mean(), Some(Dur::from_micros(20)));
        assert_eq!(s.total(), Dur::from_micros(60));
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        assert_eq!(DurHistogram::bucket_of(Dur::from_nanos(500)), 0);
        assert_eq!(DurHistogram::bucket_of(Dur::from_micros(1)), 0);
        assert_eq!(DurHistogram::bucket_of(Dur::from_micros(2)), 1);
        assert_eq!(DurHistogram::bucket_of(Dur::from_micros(3)), 1);
        assert_eq!(DurHistogram::bucket_of(Dur::from_micros(1024)), 10);
    }

    #[test]
    fn quantiles_bound_the_data() {
        let mut h = DurHistogram::new();
        for us in 1..=1000u64 {
            h.record(Dur::from_micros(us));
        }
        let p50 = h.quantile(0.5).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        // Conservative upper bounds: at least the true percentile, at most 2x.
        assert!(p50 >= Dur::from_micros(500) && p50 <= Dur::from_micros(1024));
        assert!(p95 >= Dur::from_micros(950) && p95 <= Dur::from_micros(2048));
        assert!(h.quantile(1.0).unwrap() >= h.summary().max().unwrap());
    }

    #[test]
    fn quantile_exact_power_of_two_is_not_inflated() {
        // 1024 µs lands in bucket 10 ([1024, 2048)); the pre-fix quantile
        // reported the bucket's open edge, 2048 µs — one full bucket high.
        let mut h = DurHistogram::new();
        for _ in 0..100 {
            h.record(Dur::from_micros(1024));
        }
        assert_eq!(h.quantile(0.5), Some(Dur::from_micros(1024)));
        assert_eq!(h.quantile(0.99), Some(Dur::from_micros(1024)));
        assert_eq!(h.quantile(1.0), Some(Dur::from_micros(1024)));
    }

    #[test]
    fn quantile_bound_is_tightest_recorded_value_in_bucket() {
        let mut h = DurHistogram::new();
        // Bucket 1 is [2, 4) µs; its largest recorded value is 3 µs, so no
        // quantile landing there may exceed 3 µs.
        h.record(Dur::from_micros(2));
        h.record(Dur::from_micros(3));
        assert_eq!(h.quantile(0.5), Some(Dur::from_micros(3)));
        assert_eq!(h.quantile(1.0), Some(Dur::from_micros(3)));
        // A later, larger observation in a higher bucket must not loosen
        // the low bucket's bound.
        h.record(Dur::from_micros(100));
        assert_eq!(h.quantile(0.5), Some(Dur::from_micros(3)));
    }

    #[test]
    fn quantile_of_empty_is_none() {
        let h = DurHistogram::new();
        assert!(h.quantile(0.5).is_none());
        assert_eq!(h.report(), "n=0");
    }

    #[test]
    fn report_is_readable() {
        let mut h = DurHistogram::new();
        h.record(Dur::from_millis(5));
        let r = h.report();
        assert!(r.contains("n=1"), "{r}");
        assert!(r.contains("mean=5.000ms"), "{r}");
    }
}
