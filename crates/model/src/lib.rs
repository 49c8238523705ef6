//! # dcm-model — the concurrency-aware performance model
//!
//! The analytical core of the DCM reproduction (paper §III):
//!
//! * [`concurrency`] — the multi-threading throughput model
//!   `X(N) = γKN/(S⁰+α(N−1)+βN(N−1))` (Eq. 5–8), its optimal-concurrency
//!   prediction `N* = √((S⁰−α)/β)`, and online least-squares fitting from
//!   `⟨concurrency, throughput⟩` measurements — the Table I training
//!   procedure.
//! * [`mva`] — exact load-dependent Mean Value Analysis for closed
//!   product-form networks (multi-server stations, think-time terminal)
//!   plus asymptotic operational bounds, among them the bottleneck bound
//!   `min_m K_m/D_m` of the paper's Eq. 1–4: the analytic oracle the DES
//!   is validated against.
//! * [`lsq`] — Levenberg–Marquardt nonlinear least squares, `R²`, linear
//!   regression.
//! * [`linalg`] — the dense solver backing the fitter.
//!
//! ## Example: train a model, read off the optimal pool size
//!
//! ```
//! use dcm_model::concurrency::{fit_throughput_curve, ConcurrencyModel, FitOptions};
//!
//! // Measurements from a concurrency sweep of the bottleneck tier.
//! let truth = ConcurrencyModel::new(0.0284, 0.00987, 4.54e-5, 1.0, 1);
//! let samples: Vec<(f64, f64)> = (1..=100)
//!     .map(|n| (n as f64, truth.predict_throughput(n as f64)))
//!     .collect();
//!
//! let report = fit_throughput_curve(&samples, 1, FitOptions::default())?;
//! assert_eq!(report.model.optimal_concurrency(), 20); // the paper's N*
//! # Ok::<(), dcm_model::lsq::FitError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod allocation;
pub mod bootstrap;
pub mod concurrency;
pub mod linalg;
pub mod lsq;
pub mod mva;

pub use allocation::{optimal_soft_allocation, SoftAllocation};
pub use bootstrap::{bootstrap_fit, BootstrapReport};
pub use concurrency::{fit_throughput_curve, ConcurrencyModel, FitOptions, FitReport};
pub use lsq::{levenberg_marquardt, linear_regression, r_squared, FitError, LmOptions};
pub use mva::{law_rate_table, AsymptoticBounds, ClosedNetwork, MvaSolution, Station};
