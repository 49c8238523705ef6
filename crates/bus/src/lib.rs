//! # dcm-bus — in-memory Kafka-style message broker
//!
//! The DCM paper decouples its monitoring agents from the optimization
//! controller with Kafka: agents publish fine-grained metrics once per
//! second, the controller consumes them at its own (15-second) control
//! period. This crate reproduces the semantics that matter for that role:
//!
//! * **Topics** split into **partitions**, each an append-only,
//!   offset-addressed log ([`log::PartitionLog`]).
//! * **Keyed routing** (a server's metrics always land in the same
//!   partition, preserving per-server ordering) or round-robin.
//! * **Consumer groups** with committed offsets, so a controller restart
//!   resumes where it left off ([`GroupConsumer`]).
//! * **Retention** by entry count or age, with consumers that tolerate
//!   head-trim gaps.
//!
//! The broker is generic over the payload type, trading Kafka's byte-blob
//! interface for compile-time type safety — serialization is orthogonal to
//! the rate-decoupling semantics the DCM pipeline needs.
//!
//! ## Example
//!
//! ```
//! use dcm_bus::{Broker, GroupConsumer, Retention};
//!
//! #[derive(Clone, Debug, PartialEq)]
//! struct Metric { server: String, cpu: f64 }
//!
//! let mut broker: Broker<Metric> = Broker::new();
//! broker.create_topic("metrics", 4, Retention::by_entries(10_000))?;
//!
//! // A monitor agent publishes, keyed by server so ordering is preserved.
//! broker.produce("metrics", 1_000, Some("tomcat-1".into()),
//!                Metric { server: "tomcat-1".into(), cpu: 0.93 })?;
//!
//! // The controller consumes as a group and commits its progress.
//! let mut consumer = GroupConsumer::new("controller", "metrics", &broker)?;
//! let batch = consumer.poll(&broker, 100)?;
//! assert_eq!(batch.len(), 1);
//! consumer.commit(&mut broker)?;
//! # Ok::<(), dcm_bus::BusError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod broker;
pub mod consumer;
pub mod error;
pub mod log;

pub use broker::{Broker, Retention};
pub use consumer::GroupConsumer;
pub use error::BusError;
pub use log::Entry;
