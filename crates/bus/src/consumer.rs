//! Position-tracking consumer over a [`Broker`]: `poll` advances the
//! position, `commit` stores it as the group's, so a restarted consumer
//! resumes where its group left off.

use crate::broker::{Broker, Entry};
use crate::error::BusError;

/// A consumer bound to one group and one topic.
///
/// # Examples
///
/// ```
/// use dcm_bus::{Broker, GroupConsumer};
///
/// let mut broker: Broker<&'static str> = Broker::new();
/// broker.create_topic("metrics")?;
/// let mut consumer = GroupConsumer::new("controller", "metrics", &broker)?;
/// consumer.commit(&mut broker)?;
/// broker.produce("metrics", 0, "a")?;
/// broker.produce("metrics", 1, "b")?;
///
/// let batch = consumer.poll(&broker, 10)?;
/// let values: Vec<&str> = batch.iter().map(|e| e.value).collect();
/// assert_eq!(values, ["a", "b"]);
/// consumer.commit(&mut broker)?;
/// # Ok::<(), dcm_bus::BusError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GroupConsumer {
    group: String,
    topic: String,
    // Next offset to read.
    position: u64,
}

impl GroupConsumer {
    /// Creates a consumer at its group's committed position, or at the
    /// first record still held if that is later (a group that never
    /// committed holds nothing back).
    ///
    /// # Errors
    ///
    /// [`BusError::UnknownTopic`] if the topic does not exist.
    pub fn new<T>(group: &str, topic: &str, broker: &Broker<T>) -> Result<Self, BusError> {
        let (start, _) = broker.held(topic)?;
        Ok(GroupConsumer {
            group: group.to_owned(),
            topic: topic.to_owned(),
            position: broker.committed(group, topic).max(start),
        })
    }

    /// The consumer group name.
    pub fn group(&self) -> &str {
        &self.group
    }

    /// The subscribed topic.
    pub fn topic(&self) -> &str {
        &self.topic
    }

    /// The next offset this consumer will read.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Reads up to `max` new records in offset order and advances the
    /// in-memory position (not yet committed).
    ///
    /// If records this consumer had not read were dropped (its group never
    /// committed them), the read starts at the first record still held.
    ///
    /// # Errors
    ///
    /// [`BusError::UnknownTopic`] if the topic vanished.
    pub fn poll<T: Clone>(
        &mut self,
        broker: &Broker<T>,
        max: usize,
    ) -> Result<Vec<Entry<T>>, BusError> {
        let (start, records) = broker.held(&self.topic)?;
        let skip = (self.position.saturating_sub(start) as usize).min(records.len());
        let batch: Vec<Entry<T>> = records.range(skip..).take(max).cloned().collect();
        self.position = self.position.max(start) + batch.len() as u64;
        Ok(batch)
    }

    /// Commits the current position as the group's, dropping every record
    /// all committed groups have read.
    ///
    /// # Errors
    ///
    /// [`BusError::UnknownTopic`] if the topic vanished.
    pub fn commit<T>(&self, broker: &mut Broker<T>) -> Result<(), BusError> {
        broker.commit(&self.group, &self.topic, self.position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Broker<u32>, GroupConsumer) {
        let mut b: Broker<u32> = Broker::new();
        b.create_topic("t").unwrap();
        let c = GroupConsumer::new("g", "t", &b).unwrap();
        (b, c)
    }

    fn values(batch: &[Entry<u32>]) -> Vec<u32> {
        batch.iter().map(|e| e.value).collect()
    }

    #[test]
    fn commit_and_resume() {
        let (mut b, mut c) = setup();
        for i in 0..4 {
            b.produce("t", i, i as u32).unwrap();
        }
        let first = c.poll(&b, 2).unwrap();
        assert_eq!(values(&first), vec![0, 1]);
        c.commit(&mut b).unwrap();
        // A new consumer in the same group resumes after the commit.
        let mut resumed = GroupConsumer::new("g", "t", &b).unwrap();
        assert_eq!(values(&resumed.poll(&b, 10).unwrap()), vec![2, 3]);
        // A different group starts at the first record still held: `g`,
        // the only committed group, had read 0 and 1, so they are gone.
        let mut fresh = GroupConsumer::new("other", "t", &b).unwrap();
        assert_eq!(fresh.position(), 2);
        assert_eq!(values(&fresh.poll(&b, 10).unwrap()), vec![2, 3]);
    }

    #[test]
    fn position_snaps_forward_after_retention_loss() {
        let (mut b, mut c) = setup();
        // `lazy` polls but never commits, so it holds nothing back.
        let mut lazy = GroupConsumer::new("lazy", "t", &b).unwrap();
        for i in 0..10 {
            b.produce("t", i, i as u32).unwrap();
        }
        assert_eq!(values(&lazy.poll(&b, 3).unwrap()), vec![0, 1, 2]);
        c.poll(&b, 8).unwrap();
        c.commit(&mut b).unwrap();
        // Offsets 3..8 were dropped before `lazy` read them.
        assert_eq!(values(&lazy.poll(&b, 10).unwrap()), vec![8, 9]);
        assert_eq!(lazy.position(), 10);
    }

    #[test]
    fn unknown_topic_is_an_error() {
        let b: Broker<u32> = Broker::new();
        assert!(matches!(
            GroupConsumer::new("g", "missing", &b),
            Err(BusError::UnknownTopic { .. })
        ));
    }

    #[test]
    fn accessors() {
        let (_b, c) = setup();
        assert_eq!(c.group(), "g");
        assert_eq!(c.topic(), "t");
        assert_eq!(c.position(), 0);
    }
}
