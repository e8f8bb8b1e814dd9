//! Rank binning.
//!
//! "For better visibility, we do not present results per domain but apply
//! a binning of 10k domains in all graphs, after experimenting with
//! different bin sizes." Every figure is a [`BinnedSeries`]: the mean of
//! a per-domain quantity over consecutive rank bins. Domains for which
//! the quantity is undefined (e.g. no resolvable pairs) are skipped, not
//! counted as zero — matching the paper's per-domain probabilities.

use serde::{Deserialize, Serialize};

/// The paper's bin width.
pub const PAPER_BIN: usize = 10_000;

/// A per-bin mean series over the ranking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinnedSeries {
    /// Width of each bin in ranks.
    pub bin_size: usize,
    /// Mean per bin (NaN-free: empty bins yield `None`).
    pub means: Vec<Option<f64>>,
    /// How many defined samples each bin aggregated.
    pub counts: Vec<usize>,
}

impl BinnedSeries {
    /// Aggregate `(rank, value)` samples into bins of `bin_size`.
    ///
    /// `total` fixes the number of bins (`ceil(total / bin_size)`) so
    /// series over the same ranking always align.
    pub fn from_samples<I>(samples: I, total: usize, bin_size: usize) -> BinnedSeries
    where
        I: IntoIterator<Item = (usize, Option<f64>)>,
    {
        let mut bins = BinAccumulator::new(total, bin_size);
        samples
            .into_iter()
            .for_each(|(rank, value)| bins.add(rank, value));
        bins.finish()
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.means.len()
    }

    /// Whether there are no bins.
    pub fn is_empty(&self) -> bool {
        self.means.is_empty()
    }

    /// Mean over all defined samples (weighted by sample count).
    pub fn overall_mean(&self) -> Option<f64> {
        self.range_mean(0, self.len() * self.bin_size)
    }

    /// Mean over the bins covering ranks `[from, to)` (e.g. the paper's
    /// "first 100k domains").
    pub fn range_mean(&self, from: usize, to: usize) -> Option<f64> {
        let lo = from / self.bin_size;
        let hi = to.div_ceil(self.bin_size).min(self.len());
        let mut sum = 0.0;
        let mut n = 0usize;
        for i in lo..hi {
            if let Some(v) = self.means[i] {
                sum += v * self.counts[i] as f64;
                n += self.counts[i];
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Render as `bin_start,value` CSV lines (empty bins skipped).
    pub fn to_csv(&self, header: &str) -> String {
        let mut out = format!("rank_bin_start,{header}\n");
        for (i, m) in self.means.iter().enumerate() {
            if let Some(v) = m {
                out.push_str(&format!("{},{v:.6}\n", i * self.bin_size));
            }
        }
        out
    }
}

/// Per-bin sums and counts, fed one sample at a time, so one pass over
/// the rows can build several series. Each bin sums its samples in the
/// order they are added.
#[derive(Debug)]
pub(crate) struct BinAccumulator {
    bin_size: usize,
    sums: Vec<f64>,
    counts: Vec<usize>,
}

impl BinAccumulator {
    /// Empty bins, as [`BinnedSeries::from_samples`] lays them out.
    pub(crate) fn new(total: usize, bin_size: usize) -> BinAccumulator {
        assert!(bin_size > 0, "bin size must be positive");
        let n_bins = total.div_ceil(bin_size).max(1);
        BinAccumulator {
            bin_size,
            sums: vec![0.0; n_bins],
            counts: vec![0; n_bins],
        }
    }

    /// Add one sample; an undefined (`None`) value is skipped.
    pub(crate) fn add(&mut self, rank: usize, value: Option<f64>) {
        let Some(v) = value else { return };
        let bin = (rank / self.bin_size).min(self.sums.len() - 1);
        self.sums[bin] += v;
        self.counts[bin] += 1;
    }

    /// The per-bin means.
    pub(crate) fn finish(self) -> BinnedSeries {
        let means = self
            .sums
            .iter()
            .zip(&self.counts)
            .map(|(s, &c)| (c > 0).then(|| s / c as f64))
            .collect();
        BinnedSeries {
            bin_size: self.bin_size,
            means,
            counts: self.counts,
        }
    }
}

/// Ordinary least squares slope of a binned series against bin index —
/// the cheap trend test the figure assertions use ("valid share *rises*
/// with rank").
pub fn trend_slope(series: &BinnedSeries) -> Option<f64> {
    let pts: Vec<(f64, f64)> = series
        .means
        .iter()
        .enumerate()
        .filter_map(|(i, m)| m.map(|v| (i as f64, v)))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|(x, _)| x).sum();
    let sy: f64 = pts.iter().map(|(_, y)| y).sum();
    let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_means_and_counts() {
        let samples = (0..100).map(|r| (r, Some(if r < 50 { 1.0 } else { 0.0 })));
        let s = BinnedSeries::from_samples(samples, 100, 25);
        assert_eq!(s.len(), 4);
        assert_eq!(s.means, vec![Some(1.0), Some(1.0), Some(0.0), Some(0.0)]);
        assert_eq!(s.counts, vec![25; 4]);
        assert_eq!(s.overall_mean(), Some(0.5));
    }

    #[test]
    fn undefined_samples_are_skipped_not_zero() {
        let samples = vec![(0, Some(1.0)), (1, None), (2, Some(0.0))];
        let s = BinnedSeries::from_samples(samples, 3, 3);
        assert_eq!(s.means, vec![Some(0.5)]);
        assert_eq!(s.counts, vec![2]);
    }

    #[test]
    fn empty_bins_are_none() {
        let samples = vec![(0, Some(1.0))];
        let s = BinnedSeries::from_samples(samples, 30, 10);
        assert_eq!(s.means, vec![Some(1.0), None, None]);
        assert_eq!(s.overall_mean(), Some(1.0));
    }

    #[test]
    fn total_not_divisible_by_bin() {
        let samples = (0..25).map(|r| (r, Some(1.0)));
        let s = BinnedSeries::from_samples(samples, 25, 10);
        assert_eq!(s.len(), 3);
        assert_eq!(s.counts, vec![10, 10, 5]);
    }

    #[test]
    fn out_of_range_rank_clamps_to_last_bin() {
        let samples = vec![(99, Some(1.0)), (150, Some(3.0))];
        let s = BinnedSeries::from_samples(samples, 100, 50);
        assert_eq!(s.len(), 2);
        assert_eq!(s.means[1], Some(2.0));
    }

    #[test]
    fn range_mean_weighted() {
        let samples = (0..100).map(|r| (r, Some(r as f64)));
        let s = BinnedSeries::from_samples(samples, 100, 10);
        let first_half = s.range_mean(0, 50).unwrap();
        assert!((first_half - 24.5).abs() < 1e-9);
        let all = s.range_mean(0, 100).unwrap();
        assert!((all - 49.5).abs() < 1e-9);
        assert_eq!(s.range_mean(0, 0), None);
    }

    #[test]
    fn trend_detection() {
        let rising =
            BinnedSeries::from_samples((0..100).map(|r| (r, Some(r as f64 / 100.0))), 100, 10);
        assert!(trend_slope(&rising).unwrap() > 0.0);
        let falling = BinnedSeries::from_samples(
            (0..100).map(|r| (r, Some(1.0 - r as f64 / 100.0))),
            100,
            10,
        );
        assert!(trend_slope(&falling).unwrap() < 0.0);
        let flat = BinnedSeries::from_samples((0..100).map(|r| (r, Some(0.5))), 100, 10);
        assert!(trend_slope(&flat).unwrap().abs() < 1e-12);
        let single = BinnedSeries::from_samples(vec![(0, Some(1.0))], 10, 10);
        assert_eq!(trend_slope(&single), None);
    }

    #[test]
    fn csv_rendering() {
        let s = BinnedSeries::from_samples(vec![(0, Some(0.5)), (10, None)], 20, 10);
        let csv = s.to_csv("valid");
        assert!(csv.starts_with("rank_bin_start,valid\n"));
        assert!(csv.contains("0,0.500000"));
        // Empty bin omitted.
        assert_eq!(csv.lines().count(), 2);
    }
}
