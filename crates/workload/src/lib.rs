//! # dcm-workload — workload generation for the n-tier simulator
//!
//! Reproduces the paper's three workload tools over `dcm-ntier`:
//!
//! | Paper tool | Here | Role |
//! |---|---|---|
//! | Jmeter, zero think time | [`steady::SteadyRun`] with `think: None` | model training: offered concurrency = user count |
//! | original RUBBoS client (3 s think) | [`steady::SteadyRun`] with an exponential think time | model validation under realistic static load |
//! | revised RUBBoS emulator + trace file | [`cohort::CohortPopulation::start_trace_driven`] | bursty Fig. 5 evaluation |
//!
//! A [`steady::SteadyRun`] is one fixed-world measurement: world, users,
//! warm-up, window and audit as plain data, run by one function.
//!
//! Plus the RUBBoS browse-only servlet mix ([`servlets`]), trace synthesis
//! and parsing ([`traces`] — including the reconstructed "Large Variation"
//! trace), and result summarization ([`report`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod cohort;
pub mod generator;
pub mod profile;
pub mod report;
pub mod servlets;
pub mod steady;
pub mod traces;

pub use cache::CacheDynamics;
pub use cohort::{CohortPopulation, CohortStats};
pub use generator::{RetryPolicy, UserPopulation};
pub use profile::{CacheEdge, NodeDemand, ProfileFactory};
pub use report::{class_breakdown, shared_log, ClassStats, LoadReport, WindowedSeries};
pub use servlets::{Servlet, ServletMix};
pub use steady::{SteadyRun, SteadyWindow};
pub use traces::{TraceError, WorkloadTrace};
