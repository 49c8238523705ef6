//! Quantile estimation: exact (sorted buffer) and streaming (P² algorithm).

/// Exact quantiles over a retained sample buffer.
///
/// Retains every observation, so use for bounded experiment windows (the
/// per-run response-time distributions in the reproduction are at most
/// about a million points). For unbounded streams use [`P2Quantile`].
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

/// Streaming quantile estimate via the P² algorithm (Jain & Chlamtac 1985):
/// O(1) memory, no retained samples.
///
/// # Examples
///
/// ```
/// use dcm_sim::stats::P2Quantile;
///
/// let mut p95 = P2Quantile::new(0.95);
/// for i in 0..10_000 {
///     p95.record((i % 100) as f64);
/// }
/// let est = p95.estimate().unwrap();
/// assert!((est - 94.0).abs() < 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    q: f64,
    // Marker heights, positions, and desired positions (5 markers).
    heights: [f64; 5],
    positions: [f64; 5],
    desired: [f64; 5],
    increments: [f64; 5],
    count: usize,
    initial: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for the `q`-quantile.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1)`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "P2 quantile must be in (0,1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            initial: Vec::with_capacity(5),
        }
    }

    /// The tracked quantile parameter.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Number of observations recorded.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Records one observation. NaN values are ignored.
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count += 1;
        if self.initial.len() < 5 {
            self.initial.push(x);
            if self.initial.len() == 5 {
                self.initial
                    .sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered"));
                for (h, &v) in self.heights.iter_mut().zip(self.initial.iter()) {
                    *h = v;
                }
            }
            return;
        }

        // Find the cell k such that heights[k] <= x < heights[k+1].
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if x >= self.heights[i] && x < self.heights[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments.iter()) {
            *d += inc;
        }

        // Adjust interior markers with parabolic (fall back to linear) moves.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let q = &self.heights;
        let n = &self.positions;
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let q = &self.heights;
        let n = &self.positions;
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        q[i] + d * (q[j] - q[i]) / (n[j] - n[i])
    }

    /// Current estimate; `None` with fewer than one observation. With fewer
    /// than five observations the estimate is the exact sample quantile.
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.initial.len() < 5 {
            let mut v = self.initial.clone();
            v.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered"));
            let rank = (self.q * (v.len() - 1) as f64).round() as usize;
            return Some(v[rank]);
        }
        Some(self.heights[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

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

    #[test]
    fn p2_tracks_uniform_quantiles() {
        let mut rng = SimRng::seed_from(42);
        let mut p50 = P2Quantile::new(0.5);
        let mut p95 = P2Quantile::new(0.95);
        for _ in 0..100_000 {
            let x = rng.next_f64() * 100.0;
            p50.record(x);
            p95.record(x);
        }
        assert!((p50.estimate().unwrap() - 50.0).abs() < 1.5);
        assert!((p95.estimate().unwrap() - 95.0).abs() < 1.5);
    }

    #[test]
    fn p2_tracks_exponential_tail() {
        // P99 of Exp(1) is ln(100) ≈ 4.605.
        let mut rng = SimRng::seed_from(7);
        let mut p99 = P2Quantile::new(0.99);
        for _ in 0..200_000 {
            p99.record(-(1.0 - rng.next_f64()).ln());
        }
        let est = p99.estimate().unwrap();
        assert!((est - 4.605).abs() < 0.35, "p99 {est}");
    }

    #[test]
    fn p2_small_sample_behaviour() {
        let mut p = P2Quantile::new(0.5);
        assert_eq!(p.estimate(), None);
        p.record(3.0);
        assert_eq!(p.estimate(), Some(3.0));
        p.record(1.0);
        p.record(2.0);
        let est = p.estimate().unwrap();
        assert!((1.0..=3.0).contains(&est));
        assert_eq!(p.count(), 3);
        assert_eq!(p.q(), 0.5);
    }

    #[test]
    #[should_panic(expected = "P2 quantile must be in (0,1)")]
    fn p2_rejects_degenerate_quantile() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    fn p2_agrees_with_exact_on_bimodal_data() {
        let mut rng = SimRng::seed_from(99);
        let mut p2 = P2Quantile::new(0.9);
        let mut exact = SampleQuantiles::new();
        for _ in 0..50_000 {
            let x = if rng.next_f64() < 0.8 {
                rng.next_f64() * 10.0
            } else {
                90.0 + rng.next_f64() * 10.0
            };
            p2.record(x);
            exact.record(x);
        }
        let e = exact.quantile(0.9).unwrap();
        let p = p2.estimate().unwrap();
        assert!((p - e).abs() < 6.0, "p2 {p} vs exact {e}");
    }
}
