//! Fixed-width binned histogram for latency/throughput distributions.

use std::fmt;

/// Fixed-width histogram over `[low, high)` with overflow/underflow buckets.
///
/// # Examples
///
/// ```
/// use dcm_sim::stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
/// h.record(0.5);
/// h.record(9.5);
/// h.record(42.0); // overflow
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.bin_count(0), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    low: f64,
    high: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    sum: f64,
}

/// Error constructing a [`Histogram`] with invalid bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidHistogramBounds;

impl fmt::Display for InvalidHistogramBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "histogram bounds must be finite, low < high, bins > 0")
    }
}

impl std::error::Error for InvalidHistogramBounds {}

/// Error merging two [`Histogram`]s with different binning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinningMismatch;

impl fmt::Display for BinningMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "histograms must share bounds and bin count to merge")
    }
}

impl std::error::Error for BinningMismatch {}

impl Histogram {
    /// Creates a histogram with `bins` equal-width buckets spanning
    /// `[low, high)`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidHistogramBounds`] if bounds are non-finite,
    /// `low >= high`, or `bins == 0`.
    pub fn new(low: f64, high: f64, bins: usize) -> Result<Self, InvalidHistogramBounds> {
        if !low.is_finite() || !high.is_finite() || low >= high || bins == 0 {
            return Err(InvalidHistogramBounds);
        }
        Ok(Histogram {
            low,
            high,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
        })
    }

    /// Records one observation (NaN is ignored).
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count += 1;
        self.sum += x;
        if x < self.low {
            self.underflow += 1;
        } else if x >= self.high {
            self.overflow += 1;
        } else {
            let width = (self.high - self.low) / self.bins.len() as f64;
            let idx = ((x - self.low) / width) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total observations, including under/overflow.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all observations (including out-of-range values).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Observations below `low`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above `high`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Number of in-range buckets.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Count in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_bins()`.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// The `[start, end)` range of bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_bins()`.
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        assert!(i < self.bins.len(), "bin index out of range");
        let width = (self.high - self.low) / self.bins.len() as f64;
        (
            self.low + i as f64 * width,
            self.low + (i + 1) as f64 * width,
        )
    }

    /// Iterator over `(bin_midpoint, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        (0..self.bins.len()).map(move |i| {
            let (a, b) = self.bin_range(i);
            ((a + b) / 2.0, self.bins[i])
        })
    }

    /// Approximate `q`-quantile from bin midpoints (in-range mass only);
    /// `None` if no in-range observations.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        let in_range: u64 = self.bins.iter().sum();
        if in_range == 0 {
            return None;
        }
        let target = (q * in_range as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        for i in 0..self.bins.len() {
            cum += self.bins[i];
            if cum >= target {
                let (a, b) = self.bin_range(i);
                return Some((a + b) / 2.0);
            }
        }
        let (a, b) = self.bin_range(self.bins.len() - 1);
        Some((a + b) / 2.0)
    }

    /// Folds `other`'s counts into `self` — the result is exactly the
    /// histogram that would have recorded both observation streams (bucket
    /// counts are integers, so merging is associative and commutative).
    ///
    /// # Errors
    ///
    /// Returns [`BinningMismatch`] unless both histograms share `low`,
    /// `high`, and the bin count; nothing is modified on error.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), BinningMismatch> {
        if self.low != other.low || self.high != other.high || self.bins.len() != other.bins.len() {
            return Err(BinningMismatch);
        }
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            *mine += theirs;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        Ok(())
    }

    /// Resets all counts while keeping the binning.
    pub fn clear(&mut self) {
        self.bins.iter_mut().for_each(|b| *b = 0);
        self.underflow = 0;
        self.overflow = 0;
        self.count = 0;
        self.sum = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_bounds() {
        assert!(Histogram::new(1.0, 1.0, 4).is_err());
        assert!(Histogram::new(0.0, f64::INFINITY, 4).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
    }

    #[test]
    fn bins_partition_the_range() {
        let mut h = Histogram::new(0.0, 100.0, 10).unwrap();
        for i in 0..100 {
            h.record(i as f64);
        }
        for b in 0..10 {
            assert_eq!(h.bin_count(b), 10, "bin {b}");
        }
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.mean(), 49.5);
    }

    #[test]
    fn out_of_range_goes_to_flows() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.record(-0.5);
        h.record(1.0); // boundary belongs to overflow (range is half-open)
        h.record(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn quantile_from_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        for i in 0..100 {
            h.record((i % 10) as f64 + 0.5);
        }
        let q50 = h.quantile(0.5).unwrap();
        assert!((q50 - 4.5).abs() <= 1.0, "median {q50}");
        assert_eq!(h.quantile(0.0).unwrap(), 0.5);
    }

    #[test]
    fn quantile_empty_is_none() {
        let h = Histogram::new(0.0, 1.0, 4).unwrap();
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn bin_range_and_iter_are_consistent() {
        let h = Histogram::new(0.0, 4.0, 4).unwrap();
        assert_eq!(h.bin_range(0), (0.0, 1.0));
        assert_eq!(h.bin_range(3), (3.0, 4.0));
        let mids: Vec<f64> = h.iter().map(|(m, _)| m).collect();
        assert_eq!(mids, vec![0.5, 1.5, 2.5, 3.5]);
    }

    #[test]
    fn clear_resets_counts_only() {
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        h.record(3.0);
        h.record(20.0);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.num_bins(), 5);
    }
}
