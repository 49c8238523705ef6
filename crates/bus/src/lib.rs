//! # dcm-bus — in-memory metrics log
//!
//! The DCM paper decouples its monitoring agents from the optimization
//! controller with Kafka: agents publish fine-grained metrics once per
//! second, the controller consumes them at its own (15-second) control
//! period. This crate keeps the part of Kafka that role uses. Each
//! **topic** is one append-only, offset-addressed log ([`Broker`]).
//! **Consumer groups** read it in offset order and commit their position
//! ([`GroupConsumer`]). A commit drops every record that all groups which
//! have committed on the topic have read, so the log holds only what its
//! slowest committed reader has yet to see; a group that never commits
//! holds nothing back.
//!
//! The broker is generic over the payload type, trading Kafka's byte-blob
//! interface for compile-time type safety.
//!
//! ## Example
//!
//! ```
//! use dcm_bus::{Broker, GroupConsumer};
//!
//! let mut broker: Broker<f64> = Broker::new();
//! broker.create_topic("metrics")?;
//! let mut controller = GroupConsumer::new("controller", "metrics", &broker)?;
//! controller.commit(&mut broker)?; // keep what the controller has not read
//! broker.produce("metrics", 1_000, 0.93)?;
//! assert_eq!(controller.poll(&broker, 100)?.len(), 1);
//! controller.commit(&mut broker)?; // every committed group has read it
//! let mut late = GroupConsumer::new("late", "metrics", &broker)?;
//! assert!(late.poll(&broker, 100)?.is_empty()); // so it was dropped
//! # Ok::<(), dcm_bus::BusError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod broker;
pub mod consumer;
pub mod error;

pub use broker::{Broker, Entry};
pub use consumer::GroupConsumer;
pub use error::BusError;
