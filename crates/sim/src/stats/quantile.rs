//! Exact quantile estimation over a sorted sample buffer.

/// Exact quantiles over a retained sample buffer.
///
/// Retains every observation, so use for bounded experiment windows (the
/// per-run response-time distributions in the reproduction are at most
/// about a million points).
///
/// # Examples
///
/// ```
/// use dcm_sim::stats::SampleQuantiles;
///
/// let mut q = SampleQuantiles::new();
/// for x in 1..=100 {
///     q.record(x as f64);
/// }
/// assert_eq!(q.quantile(0.5), Some(50.5));
/// assert_eq!(q.quantile(1.0), Some(100.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleQuantiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl SampleQuantiles {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty buffer with room for `capacity` observations, so a
    /// caller that knows its sample count allocates once.
    pub fn with_capacity(capacity: usize) -> Self {
        SampleQuantiles {
            samples: Vec::with_capacity(capacity),
            sorted: true,
        }
    }

    /// Records one observation. NaN values are ignored.
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of retained observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of retained observations at most `x`.
    pub fn count_at_most(&self, x: f64) -> usize {
        self.samples.iter().filter(|&&s| s <= x).count()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) with linear interpolation between order
    /// statistics; `None` when empty.
    ///
    /// The first call sorts the buffer in place, without a scratch buffer.
    /// The sort is unstable, so `-0.0` and `0.0`, which compare equal, may
    /// land in either order and a quantile between them may carry either
    /// sign; every other result is exact and independent of recording
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN filtered at record"));
            self.sorted = true;
        }
        let n = self.samples.len();
        let rank = q * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// Convenience accessor for the median.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Drops all observations.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.sorted = true;
    }

    /// Absorbs `other`'s retained samples — quantiles of the result are
    /// exactly the quantiles of the concatenated observation streams, in
    /// any merge order or grouping.
    pub fn merge(&mut self, other: &SampleQuantiles) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = self.samples.is_empty();
    }
}

impl Extend<f64> for SampleQuantiles {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

impl FromIterator<f64> for SampleQuantiles {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut q = SampleQuantiles::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantiles_interpolate() {
        let mut q: SampleQuantiles = (1..=4).map(|x| x as f64).collect();
        assert_eq!(q.quantile(0.0), Some(1.0));
        assert_eq!(q.quantile(1.0), Some(4.0));
        assert_eq!(q.median(), Some(2.5));
        assert_eq!(q.quantile(1.0 / 3.0), Some(2.0));
    }

    #[test]
    fn exact_quantiles_empty_and_nan() {
        let mut q = SampleQuantiles::new();
        assert_eq!(q.quantile(0.5), None);
        q.record(f64::NAN);
        assert!(q.is_empty());
        q.record(7.0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.quantile(0.99), Some(7.0));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn exact_quantile_rejects_out_of_range() {
        let mut q: SampleQuantiles = [1.0].into_iter().collect();
        let _ = q.quantile(1.5);
    }
}
