//! Residual-bootstrap uncertainty for the fitted concurrency model.
//!
//! The controller acts on `N*`; if the training data barely constrain it
//! (the dome's peak is flat), the operator should know. The residual
//! bootstrap refits the model on `B` resampled datasets — original
//! predictions plus residuals drawn with replacement — and reports a
//! percentile interval for `N*`.

use dcm_sim::rng::SimRng;

use crate::concurrency::{fit_throughput_curve, ConcurrencyModel, FitOptions};
use crate::lsq::FitError;

/// Bootstrap summary for one fitted model.
#[derive(Debug, Clone, PartialEq)]
pub struct BootstrapReport {
    /// The point-estimate model the bootstrap was seeded with.
    pub model: ConcurrencyModel,
    /// Bootstrap replicates of `N*`, sorted ascending.
    pub n_star_samples: Vec<f64>,
    /// Resamples that failed to fit (excluded from the samples).
    pub failed: usize,
}

impl BootstrapReport {
    /// Percentile interval `[lo, hi]` for `N*` (e.g. `0.95` → 2.5th/97.5th
    /// percentiles); `None` if no replicate converged.
    pub fn n_star_interval(&self, confidence: f64) -> Option<(f64, f64)> {
        percentile_interval(&self.n_star_samples, confidence)
    }
}

fn percentile_interval(sorted: &[f64], confidence: f64) -> Option<(f64, f64)> {
    assert!(
        (0.0..1.0).contains(&confidence),
        "confidence must be in [0,1)"
    );
    if sorted.is_empty() {
        return None;
    }
    let tail = (1.0 - confidence) / 2.0;
    let n = sorted.len();
    let lo_idx = ((tail * n as f64) as usize).min(n - 1);
    let hi_idx = (((1.0 - tail) * n as f64) as usize).min(n - 1);
    Some((sorted[lo_idx], sorted[hi_idx]))
}

/// Runs a residual bootstrap of `fit_throughput_curve` with `replicates`
/// resamples.
///
/// # Errors
///
/// Returns the initial fit's [`FitError`] if even the point estimate fails.
pub fn bootstrap_fit(
    data: &[(f64, f64)],
    servers: u32,
    replicates: usize,
    seed: u64,
) -> Result<BootstrapReport, FitError> {
    let point = fit_throughput_curve(data, servers, FitOptions::default())?;
    let residuals: Vec<f64> = data
        .iter()
        .map(|&(n, x)| x - point.model.predict_throughput(n))
        .collect();
    let mut rng = SimRng::seed_from(seed);
    let mut n_star_samples = Vec::with_capacity(replicates);
    let mut failed = 0;
    for _ in 0..replicates {
        let resampled: Vec<(f64, f64)> = data
            .iter()
            .map(|&(n, _)| {
                let idx = (rng.next_f64() * residuals.len() as f64) as usize % residuals.len();
                let y = point.model.predict_throughput(n) + residuals[idx];
                (n, y.max(1e-9))
            })
            .collect();
        match fit_throughput_curve(&resampled, servers, FitOptions::default()) {
            Ok(report) => {
                n_star_samples.push(f64::from(report.model.optimal_concurrency().min(1_000_000)));
            }
            Err(_) => failed += 1,
        }
    }
    n_star_samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Ok(BootstrapReport {
        model: point.model,
        n_star_samples,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_dome(noise: f64) -> Vec<(f64, f64)> {
        let truth = ConcurrencyModel::new(0.03, 0.008, 5.5e-5, 1.0, 1);
        (1..=80)
            .map(|n| {
                let n = f64::from(n);
                let wiggle = 1.0 + noise * (n * 2.13).sin();
                (n, truth.predict_throughput(n) * wiggle)
            })
            .collect()
    }

    #[test]
    fn noiseless_data_gives_tight_intervals() {
        let report = bootstrap_fit(&noisy_dome(0.0), 1, 60, 7).expect("fits");
        let (lo, hi) = report.n_star_interval(0.95).unwrap();
        assert!(
            hi - lo < 2.0,
            "noiseless N* interval should be tight: [{lo}, {hi}]"
        );
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn noisy_data_widens_intervals() {
        let tight = bootstrap_fit(&noisy_dome(0.01), 1, 60, 7).expect("fits");
        let loose = bootstrap_fit(&noisy_dome(0.10), 1, 60, 7).expect("fits");
        let w = |r: &BootstrapReport| {
            let (lo, hi) = r.n_star_interval(0.95).unwrap();
            hi - lo
        };
        assert!(
            w(&loose) > w(&tight),
            "more noise → wider N* interval ({} vs {})",
            w(&loose),
            w(&tight)
        );
    }

    #[test]
    fn interval_contains_the_point_estimate() {
        let report = bootstrap_fit(&noisy_dome(0.05), 1, 80, 11).expect("fits");
        let n_star = f64::from(report.model.optimal_concurrency());
        let (lo, hi) = report.n_star_interval(0.90).unwrap();
        assert!(
            lo <= n_star && n_star <= hi,
            "N* {n_star} outside [{lo}, {hi}]"
        );
    }

    #[test]
    fn percentile_interval_edges() {
        assert_eq!(percentile_interval(&[], 0.95), None);
        assert_eq!(percentile_interval(&[3.0], 0.95), Some((3.0, 3.0)));
    }
}
