//! # dcm-bench — the reproduction's benchmark harness
//!
//! One experiment module per table/figure of the paper's evaluation, each
//! producing structured data, an aligned text table, and a `findings()`
//! self-check of the paper's qualitative claims:
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`experiments::fig2`] | Fig. 2(a) MySQL concurrency dome, Fig. 2(b) scale-out crossover |
//! | [`experiments::table1`] | Table I model training (parameters, `R²`, `N*`, `X_max`) |
//! | [`experiments::fig4`] | Fig. 4(a)/(b) validation of the optimal allocations |
//! | [`experiments::fig5`] | Fig. 5 DCM vs EC2-AutoScale under the Large-Variation trace |
//! | [`experiments::ablation`] | actuation ablation + `N*` sensitivity (ours, beyond the paper) |
//!
//! The `repro` binary drives them (`cargo run -p dcm-bench --release --bin
//! repro -- all`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod format;
pub mod perfjson;

pub use experiments::Fidelity;
