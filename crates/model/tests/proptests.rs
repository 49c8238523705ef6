//! Property-based tests for the model crate: solver correctness, fit
//! recovery of planted models, and invariances of the throughput model.

use proptest::prelude::*;

use dcm_model::concurrency::{fit_throughput_curve, ConcurrencyModel, FitOptions};
use dcm_model::linalg::solve;
use dcm_model::lsq::{linear_regression, r_squared};

proptest! {
    /// `solve` produces x with A·x ≈ b for diagonally dominant systems.
    #[test]
    fn solver_roundtrips(
        n in 2usize..6,
        seed_vals in prop::collection::vec(-5.0f64..5.0, 36 + 6),
    ) {
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                a[i * n + j] = seed_vals[i * 6 + j];
            }
            // Diagonal dominance guarantees solvability.
            a[i * n + i] += 20.0;
        }
        let b: Vec<f64> = seed_vals[36..36 + n].to_vec();
        let x = solve(&a, &b).expect("diagonally dominant");
        for i in 0..n {
            let dot: f64 = (0..n).map(|j| a[i * n + j] * x[j]).sum();
            prop_assert!((dot - b[i]).abs() < 1e-8, "row {i}");
        }
    }

    /// Linear regression exactly recovers planted lines.
    #[test]
    fn regression_recovers_lines(a in -100.0f64..100.0, b in -100.0f64..100.0) {
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| a + b * x).collect();
        let (ae, be) = linear_regression(&xs, &ys);
        prop_assert!((ae - a).abs() < 1e-6);
        prop_assert!((be - b).abs() < 1e-6);
        let predicted: Vec<f64> = xs.iter().map(|x| ae + be * x).collect();
        prop_assert!(r_squared(&ys, &predicted) > 1.0 - 1e-9 || b == 0.0);
    }

    /// The fitted model reproduces the planted curve's predictions (the
    /// parametrization is scale-degenerate, so compare predictions and the
    /// knee, not raw coefficients).
    #[test]
    fn fit_recovers_planted_curves(
        s0 in 0.005f64..0.08,
        alpha_frac in 0.05f64..0.7,
        knee in 8.0f64..60.0,
        gamma in 0.5f64..3.0,
    ) {
        let alpha = s0 * alpha_frac;
        let beta = (s0 - alpha) / (knee * knee);
        let truth = ConcurrencyModel::new(s0, alpha, beta, gamma, 1);
        let top = (knee * 3.0) as u32;
        let data: Vec<(f64, f64)> = (1..=top)
            .map(|n| (f64::from(n), truth.predict_throughput(f64::from(n))))
            .collect();
        let report = fit_throughput_curve(&data, 1, FitOptions::default()).expect("fits");
        prop_assert!(report.r_squared > 0.999, "r2 {}", report.r_squared);
        // Predictions agree everywhere on the training range.
        for n in [1u32, knee as u32, top] {
            let n = f64::from(n.max(1));
            let want = truth.predict_throughput(n);
            let got = report.model.predict_throughput(n);
            prop_assert!((got - want).abs() / want < 0.02, "X({n}): {got} vs {want}");
        }
        // Knee within ±20% (flat domes make it fuzzy at the extremes).
        let fitted = f64::from(report.model.optimal_concurrency());
        prop_assert!(
            (fitted - knee).abs() / knee < 0.2,
            "knee {fitted} vs planted {knee}"
        );
    }

    /// Model predictions are invariant under the (s0, α, β, γ) scale gauge.
    #[test]
    fn model_scale_gauge_invariance(scale in 0.1f64..10.0) {
        let m1 = ConcurrencyModel::new(0.03, 0.01, 5e-5, 1.0, 1);
        let m2 = ConcurrencyModel::new(
            0.03 * scale,
            0.01 * scale,
            5e-5 * scale,
            scale,
            1,
        );
        prop_assert_eq!(m1.optimal_concurrency(), m2.optimal_concurrency());
        for n in [1.0, 10.0, 20.0, 100.0] {
            let a = m1.predict_throughput(n);
            let b = m2.predict_throughput(n);
            prop_assert!((a - b).abs() / a < 1e-9);
        }
    }
}
