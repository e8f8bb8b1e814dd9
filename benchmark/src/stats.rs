//! Percentiles over collected samples, and the rule for which tail a
//! sample count supports.

/// The `p`-th percentile (0 < p <= 100) of an ascending slice by the
/// nearest-rank rule: the smallest sample with at least `p` % of the
/// samples at or below it. Always an observed value, never an
/// interpolation. `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least ten beyond the `p`-th percentile —
/// the condition for reporting that percentile at all (a p90 over 42
/// samples rests on 4 values and is not reported as a gated number).
pub fn tail_supported(n: usize, p: f64) -> bool {
    let at_or_below = (p / 100.0 * n as f64).ceil() as usize;
    n.saturating_sub(at_or_below) >= 10
}

/// An unordered bag of measurements in one unit.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Samples {
        Samples(Vec::new())
    }

    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn p(&self, p: f64) -> f64 {
        percentile(&self.sorted(), p)
    }

    pub fn median(&self) -> f64 {
        self.p(50.0)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Samples {
        Samples(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_hand_computed_vectors() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&[7.5], 50.0), 7.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn samples_sort_before_ranking() {
        let s: Samples = [9.0, 1.0, 5.0, 3.0, 7.0].into_iter().collect();
        assert_eq!(s.median(), 5.0);
        assert_eq!(s.p(90.0), 9.0);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p50 needs 20 samples, p90 needs 100, p99 needs 1000.
        assert!(!tail_supported(19, 50.0));
        assert!(tail_supported(20, 50.0));
        assert!(!tail_supported(99, 90.0));
        assert!(tail_supported(100, 90.0));
        assert!(!tail_supported(999, 99.0));
        assert!(tail_supported(1000, 99.0));
        // The churn windows: 42 timed epochs support a median, not a p90.
        assert!(tail_supported(42, 50.0));
        assert!(!tail_supported(42, 90.0));
    }
}
