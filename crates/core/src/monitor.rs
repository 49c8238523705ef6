//! The Fine-Grained Resource Monitor (paper §IV, first component).
//!
//! A monitoring agent runs "in each VM" — here, one recurring simulation
//! event samples every live server once per second and publishes the
//! samples to a Kafka-style broker. Every reader — the controllers, the
//! per-second recorder and the obs capture — consumes them at its own pace
//! through a `MetricsFeed`; the broker decouples the rates exactly as
//! Kafka does in the paper's deployment, and drops each sample once every
//! feed has read it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dcm_bus::{Broker, GroupConsumer};
use dcm_ntier::metrics::ServerSample;
use dcm_ntier::world::{SimEngine, World};
use dcm_sim::time::{SimDuration, SimTime};

use crate::aggregate::{aggregate_by_tier, TierWindow};

/// The metrics transport shared by monitor, controller, and recorders.
pub type MetricsBus = Rc<RefCell<Broker<ServerSample>>>;

/// Topic the monitor publishes to.
pub const METRICS_TOPIC: &str = "dcm.metrics";

/// Creates a metrics bus with the standard topic.
pub fn new_metrics_bus() -> MetricsBus {
    let mut broker = Broker::new();
    broker
        .create_topic(METRICS_TOPIC)
        .expect("fresh broker accepts topic");
    Rc::new(RefCell::new(broker))
}

/// One consumer group's reading of the metrics topic, reduced per tier.
///
/// The feed commits its start position when it is created, so the topic
/// keeps every sample until this group has read it.
#[derive(Debug)]
pub(crate) struct MetricsFeed {
    bus: MetricsBus,
    consumer: GroupConsumer,
}

impl MetricsFeed {
    pub(crate) fn new(bus: MetricsBus, group: &str) -> Self {
        let consumer = {
            let mut broker = bus.borrow_mut();
            let consumer = GroupConsumer::new(group, METRICS_TOPIC, &broker)
                .expect("metrics topic exists on the bus");
            consumer.commit(&mut broker).expect("metrics topic exists");
            consumer
        };
        MetricsFeed { bus, consumer }
    }

    /// Reads every sample published since the last call, commits, and
    /// summarizes the batch per tier.
    pub(crate) fn poll_windows(&mut self) -> BTreeMap<usize, TierWindow> {
        let mut broker = self.bus.borrow_mut();
        let records = self
            .consumer
            .poll(&broker, usize::MAX)
            .expect("metrics topic exists");
        self.consumer
            .commit(&mut broker)
            .expect("metrics topic exists");
        aggregate_by_tier(&records)
    }
}

/// Runs `tick` every `period` from now until `stop_at`, each occurrence
/// scheduling the next after it ran: the clock of the monitor, the
/// controller, the per-second recorder and the obs capture.
pub fn schedule_every<F>(engine: &mut SimEngine, period: SimDuration, stop_at: SimTime, mut tick: F)
where
    F: FnMut(&mut World, &mut SimEngine) + 'static,
{
    let next = engine.now() + period;
    if next > stop_at {
        return;
    }
    engine.schedule_at(next, move |world: &mut World, engine: &mut SimEngine| {
        tick(world, engine);
        schedule_every(engine, period, stop_at, tick);
    });
}

/// Configuration for the monitoring agents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Sampling interval (the paper's agents report every second).
    pub interval: SimDuration,
    /// Stop sampling at this time.
    pub stop_at: SimTime,
}

impl MonitorConfig {
    /// One-second sampling until `stop_at`.
    pub fn every_second_until(stop_at: SimTime) -> Self {
        MonitorConfig {
            interval: SimDuration::from_secs(1),
            stop_at,
        }
    }
}

/// Installs the recurring sampling event. Samples are produced to
/// [`METRICS_TOPIC`], timestamped with the window end (millisecond virtual
/// time).
pub fn install_monitor(engine: &mut SimEngine, bus: MetricsBus, config: MonitorConfig) {
    schedule_every(
        engine,
        config.interval,
        config.stop_at,
        move |world, engine| {
            let now = engine.now();
            let ts_ms = now.as_nanos() / 1_000_000;
            let mut broker = bus.borrow_mut();
            for sample in world.system.sample_all(now) {
                broker
                    .produce(METRICS_TOPIC, ts_ms, sample)
                    .expect("metrics topic exists");
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcm_ntier::topology::ThreeTierBuilder;

    #[test]
    fn monitor_publishes_one_sample_per_server_per_second() {
        let (mut world, mut engine) = ThreeTierBuilder::new().counts(1, 2, 1).build();
        let bus = new_metrics_bus();
        install_monitor(
            &mut engine,
            Rc::clone(&bus),
            MonitorConfig::every_second_until(SimTime::from_secs(10)),
        );
        engine.run(&mut world);

        let broker = bus.borrow();
        let mut consumer = GroupConsumer::new("test", METRICS_TOPIC, &broker).unwrap();
        let records = consumer.poll(&broker, 10_000).unwrap();
        // 10 ticks × 4 servers.
        assert_eq!(records.len(), 40);
        // Each server's records arrive in timestamp order.
        let app1_ts: Vec<u64> = records
            .iter()
            .filter(|r| r.value.server == "app-1")
            .map(|r| r.timestamp_ms)
            .collect();
        assert_eq!(app1_ts.len(), 10);
        assert!(app1_ts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn monitor_stops_at_deadline() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        install_monitor(
            &mut engine,
            Rc::clone(&bus),
            MonitorConfig::every_second_until(SimTime::from_secs(3)),
        );
        engine.run(&mut world);
        assert_eq!(engine.now(), SimTime::from_secs(3));
        let broker = bus.borrow();
        // 3 ticks × 3 servers.
        assert_eq!(broker.high_watermark(METRICS_TOPIC, 0).unwrap(), 9);
    }
}
