//! # dcm-ntier — n-tier web application simulator
//!
//! The substrate on which the DCM reproduction runs its experiments: a
//! discrete-event model of a multi-tier web deployment (the paper's
//! Apache → Tomcat → MySQL RUBBoS stack) with the properties the paper's
//! argument hinges on:
//!
//! * **Soft resources are first-class.** Every server has a thread
//!   [`pool::Pool`]; application servers additionally hold a downstream
//!   connection pool. Both are resizable *at runtime without disruption*
//!   (shrinks drain, grows admit waiters) — the APP-agent's actuation
//!   surface.
//! * **Concurrency hurts past a knee.** Server CPUs follow the paper's
//!   multi-threading law ([`law::ServiceLaw`], Eq. 5–7): throughput rises
//!   with concurrency, peaks at `N* = √((S⁰−α)/β)`, then falls. This is the
//!   mechanism behind Fig. 2(a)'s dome and everything DCM exploits.
//! * **Hardware scaling is VM-shaped.** Servers boot with a preparation
//!   delay, drain on decommission, and accrue VM-seconds for the
//!   resource-efficiency comparison ([`flow::provision_server`],
//!   [`flow::decommission_one`]).
//! * **Requests flow like RUBBoS interactions.** One HTTP request holds an
//!   Apache thread, triggers a Tomcat call which holds a thread across
//!   `V_db` sequential MySQL queries, each holding a DB connection
//!   ([`request::RequestProfile`]).
//!
//! ## Quick start
//!
//! ```
//! use dcm_ntier::flow;
//! use dcm_ntier::request::{RequestProfile, StageDemand};
//! use dcm_ntier::topology::ThreeTierBuilder;
//! use dcm_sim::time::SimTime;
//!
//! let (mut world, mut engine) = ThreeTierBuilder::new().build();
//!
//! let profile = RequestProfile::new(
//!     vec![
//!         StageDemand::pre_only(0.0006),  // Apache
//!         StageDemand::split(0.0284),     // Tomcat, split around DB calls
//!         StageDemand::pre_only(0.00719), // MySQL, per query
//!     ],
//!     vec![1, 1, 2], // one AJP call, two SQL queries
//!     0,
//! );
//! // No deadline; the callback is a plain function with a `u64` payload.
//! flow::submit(&mut world, &mut engine, profile, None, |_w, _e, done, _| {
//!     assert!(done.is_success());
//! }, 0);
//! engine.run_until(&mut world, SimTime::from_secs(10));
//! assert_eq!(world.system.counters().completed, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod balancer;
pub mod cpu;
pub mod faults;
pub mod flow;
pub mod graph;
pub mod ids;
pub mod law;
pub mod metrics;
pub mod pool;
pub mod request;
pub mod server;
pub mod spans;
pub mod system;
pub mod topology;
pub mod world;

pub use audit::{AuditReport, ConservationAuditor, Violation};
pub use balancer::{Balancer, BalancerPolicy};
pub use graph::{GraphEdge, TopologyGraph};
pub use ids::{RequestId, ServerId, TierId, VmId};
pub use law::ServiceLaw;
pub use metrics::ServerSample;
pub use pool::Pool;
pub use request::{Completion, Outcome, RequestProfile, StageDemand};
pub use server::{Server, ServerSpec, ServerState, VmType};
pub use spans::{ServerEvent, ServerEventKind, Span, SpanStatus};
pub use system::{
    FlowLedger, InterTierRetry, System, SystemCounters, TierSpec, VmPolicy, VmSelection,
};
pub use topology::{MeshBuilder, MeshNode, SoftConfig, ThreeTierBuilder};
pub use world::{SimEngine, World};
