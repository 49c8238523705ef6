//! Online statistics for simulation measurement.
//!
//! Everything here is allocation-light and incremental so monitors can run
//! inside the event loop: [`OnlineStats`] (Welford mean/variance),
//! [`SampleQuantiles`] (exact percentiles), [`Histogram`] (binned
//! distributions), [`Replications`] (confidence intervals across
//! replications), and the time-indexed recorders [`TimeSeries`] and
//! [`StepGauge`].

mod histogram;
mod quantile;
mod replication;
mod timeseries;
mod welford;

pub use histogram::{BinningMismatch, Histogram, InvalidHistogramBounds};
pub use quantile::SampleQuantiles;
pub use replication::{t_critical_95, Replications};
pub use timeseries::{StepGauge, TimeSeries};
pub use welford::OnlineStats;
