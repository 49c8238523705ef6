//! # dcm-core — Dynamic Concurrency Management
//!
//! The paper's contribution, assembled from the substrate crates: a
//! two-level autoscaling framework for n-tier applications that scales
//! **hardware** (VMs per tier) and **soft resources** (thread pools, DB
//! connection pools) together.
//!
//! The architecture mirrors the paper's Fig. 3:
//!
//! * [`monitor`] — the Fine-Grained Resource Monitor: per-second server
//!   samples published to a Kafka-style broker ([`dcm_bus`]).
//! * [`aggregate`] — turning raw samples into per-tier control inputs.
//! * [`control`] — the control core every controller runs on: the shared
//!   observe step (with the silent- and dead-tier rules) and execute step
//!   (agents, capacity memory, journal), leaving each controller its plan.
//! * [`controller`] — the Optimization Controller ([`controller::Dcm`]) and
//!   the hardware-only baseline ([`controller::Ec2AutoScale`]); both share
//!   the quick-start/slow-stop threshold policy ([`policy`]).
//! * [`mpc`] — the model-predictive controller: exact-MVA planning over
//!   candidate topologies and pool sizes via [`dcm_oracle::planner`].
//! * [`zoo`] — league baselines: M/M/c-style staffing ([`zoo::ThresholdMmc`])
//!   and Holt-trend predictive staffing ([`zoo::HoltWinters`]).
//! * [`agents`] — the two actuators: VM-agent (boot/drain VMs) and
//!   APP-agent (runtime pool resizing).
//! * [`training`] — the offline §V-A pipeline that fits the
//!   concurrency-aware model from closed-loop sweeps (Table I).
//! * [`experiment`] — the §V-B harness: every trace-driven run is one
//!   [`Experiment`] (world nodes, requests, trace, faults, client
//!   behaviour, clock, audit, obs) scaled by one [`ControllerSpec`],
//!   checked in one place ([`Experiment::check`], a [`ConfigError`] naming
//!   the field) and producing every series of Fig. 5.
//!
//! ## Example: a miniature Fig. 5 run
//!
//! ```
//! use dcm_core::experiment::{ControllerSpec, Experiment};
//! use dcm_sim::time::SimTime;
//! use dcm_workload::traces;
//!
//! let mut experiment = Experiment::figure5(traces::step(20, 150, 20.0));
//! experiment.horizon = SimTime::from_secs(60); // keep the doctest quick
//! let result = experiment.run(&ControllerSpec::ec2()).expect("a valid description");
//! assert_eq!(result.counters.in_flight(), 0);
//!
//! experiment.horizon = SimTime::from_secs_f64(-5.0); // becomes 0
//! let err = experiment.run(&ControllerSpec::ec2()).expect_err("nothing to run");
//! assert_eq!(err.field, "horizon");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agents;
pub mod aggregate;
pub mod control;
pub mod controller;
pub mod experiment;
pub mod monitor;
pub mod mpc;
pub mod policy;
pub mod predictor;
pub mod training;
pub mod zoo;

pub use agents::{Action, ActionRecord, AppAgent, VmAgent};
pub use aggregate::{aggregate_by_tier, TierWindow};
pub use controller::{Controller, Dcm, DcmConfig, DcmModels, Ec2AutoScale};
pub use experiment::{
    run_trace_experiment, steady_state_throughput, think_time_run, Audit, ConfigError,
    ControllerSpec, Experiment, ObsArtifacts, ObsConfig, SteadyStateReport, TraceExperimentConfig,
    TraceRunResult, WorkloadShape,
};
pub use monitor::{
    install_monitor, new_metrics_bus, schedule_every, MetricsBus, MonitorConfig, METRICS_TOPIC,
};
pub use mpc::{ModelPredictive, MpcConfig};
pub use policy::{ScaleDecision, ScalingConfig, ThresholdPolicy};
pub use predictor::{HoltConfig, HoltTrend};
pub use training::{train_app_model, train_db_model, SweepOptions, SweepPoint, TrainingRun};
pub use zoo::{HoltWinters, StaffingConfig, ThresholdMmc};
