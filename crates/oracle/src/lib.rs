//! # dcm-oracle — analytic oracle & DES conformance harness
//!
//! Proves the simulator right (or catches it drifting): every conformance
//! scenario builds the *same* system twice — once as a DES topology
//! ([`dcm_ntier::topology::MeshBuilder`] + a think-time client
//! population) and once as a closed product-form queueing network solved
//! exactly by load-dependent MVA ([`dcm_model::mva`]), one station per
//! server — then compares steady-state throughput and per-node residence.
//!
//! The mapping rests on how the simulated server actually works (see
//! [`dcm_ntier::cpu`]): all bursts progress at speed `1/f(n)`, so
//!
//! * a **frictionless** (`α = β = 0`) server with an ample thread pool is
//!   an infinite-server (delay) station — insensitive to the demand
//!   distribution, so constant demands are exact;
//! * a frictionless server behind a **finite thread pool** of `c` threads
//!   serves like `M/M/c` (rate `min(n,c)/S`) — exact when per-visit demand
//!   is exponential;
//! * a **lawful** (`α, β > 0`) server behind `c` threads is a
//!   load-dependent station with rate `min(n,c)·S⁰/S*(min(n,c))` per mean
//!   demand — the ground-truth `S*(N)` from [`dcm_ntier::law`] feeds the
//!   oracle via [`dcm_model::mva::law_rate_table`].
//!
//! Every scenario run also carries a [`dcm_ntier::audit::ConservationAuditor`]
//! across its measurement window, so a conformance sweep doubles as a
//! conservation sweep.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod conformance;
pub mod planner;

pub use conformance::{
    default_grid, run_scenario, CacheSpec, ConformancePoint, EmptyWindow, NodeSpec, Scenario,
    ScenarioKind, TierComparison,
};
pub use planner::{predict, throughput_bound, PlannedTier, Prediction};
