//! The broker: named topics, each one log with its groups' committed
//! positions.

use std::collections::{BTreeMap, VecDeque};

use crate::error::BusError;

/// One record on a topic.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry<T> {
    /// Assigned at append time: dense per topic from 0, never reused.
    pub offset: u64,
    /// Producer-supplied timestamp in milliseconds (the broker orders by
    /// offset, never by time).
    pub timestamp_ms: u64,
    /// The payload.
    pub value: T,
}

/// One topic: the records still held, in offset order (the first has
/// offset `start`), and the position (next offset to read) each group last
/// committed.
#[derive(Debug, Clone)]
struct Topic<T> {
    records: VecDeque<Entry<T>>,
    start: u64,
    committed: BTreeMap<String, u64>,
}

/// An in-memory, Kafka-style message broker, generic over the payload type
/// `T` (type-safe producers and consumers, no serialization layer). Each
/// topic is one log; a record is dropped once every group that has
/// committed on the topic has read it.
///
/// # Examples
///
/// ```
/// let mut broker: dcm_bus::Broker<&str> = dcm_bus::Broker::new();
/// broker.create_topic("metrics")?;
/// assert_eq!(broker.produce("metrics", 0, "cpu=0.93")?, 0);
/// assert_eq!(broker.produce("metrics", 1, "cpu=0.88")?, 1);
/// assert_eq!(broker.high_watermark("metrics", 0)?, 2);
/// # Ok::<(), dcm_bus::BusError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Broker<T> {
    topics: BTreeMap<String, Topic<T>>,
}

impl<T> Default for Broker<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Broker<T> {
    /// Creates a broker with no topics.
    pub fn new() -> Self {
        Broker {
            topics: BTreeMap::new(),
        }
    }

    /// Creates an empty topic.
    ///
    /// # Errors
    ///
    /// [`BusError::TopicExists`] if the name is taken.
    pub fn create_topic(&mut self, name: &str) -> Result<(), BusError> {
        if self.topics.contains_key(name) {
            return Err(BusError::TopicExists { topic: name.into() });
        }
        let topic = Topic {
            records: VecDeque::new(),
            start: 0,
            committed: BTreeMap::new(),
        };
        self.topics.insert(name.to_owned(), topic);
        Ok(())
    }

    fn topic_mut(&mut self, name: &str) -> Result<&mut Topic<T>, BusError> {
        self.topics
            .get_mut(name)
            .ok_or_else(|| BusError::UnknownTopic { topic: name.into() })
    }

    /// The offset of the first record still held on `topic`, and the held
    /// records in offset order.
    pub(crate) fn held(&self, topic: &str) -> Result<(u64, &VecDeque<Entry<T>>), BusError> {
        match self.topics.get(topic) {
            Some(t) => Ok((t.start, &t.records)),
            None => Err(BusError::UnknownTopic {
                topic: topic.into(),
            }),
        }
    }

    /// Number of partitions in a topic: always 1.
    ///
    /// # Errors
    ///
    /// [`BusError::UnknownTopic`] if the topic does not exist.
    pub fn partition_count(&self, topic: &str) -> Result<u32, BusError> {
        self.held(topic).map(|_| 1)
    }

    /// Appends a record and returns its offset.
    ///
    /// # Errors
    ///
    /// [`BusError::UnknownTopic`] if the topic does not exist.
    pub fn produce(&mut self, topic: &str, timestamp_ms: u64, value: T) -> Result<u64, BusError> {
        let t = self.topic_mut(topic)?;
        let offset = t.start + t.records.len() as u64;
        t.records.push_back(Entry {
            offset,
            timestamp_ms,
            value,
        });
        Ok(offset)
    }

    /// The offset the next record appended to `topic` gets: the number of
    /// records ever produced to it. `partition` must be 0.
    ///
    /// # Errors
    ///
    /// [`BusError::UnknownTopic`] / [`BusError::UnknownPartition`].
    pub fn high_watermark(&self, topic: &str, partition: u32) -> Result<u64, BusError> {
        let (start, records) = self.held(topic)?;
        if partition != 0 {
            let topic = topic.into();
            return Err(BusError::UnknownPartition { topic, partition });
        }
        Ok(start + records.len() as u64)
    }

    /// Commits `group`'s position on `topic`, then drops every record below
    /// the slowest committed position.
    pub(crate) fn commit(&mut self, group: &str, topic: &str, at: u64) -> Result<(), BusError> {
        let t = self.topic_mut(topic)?;
        t.committed.insert(group.to_owned(), at);
        let slowest = t.committed.values().copied().min().unwrap_or(at);
        let dropped = slowest.saturating_sub(t.start).min(t.records.len() as u64);
        t.records.drain(..dropped as usize);
        t.start += dropped;
        Ok(())
    }

    /// The position `group` last committed on `topic` (0 when never).
    pub(crate) fn committed(&self, group: &str, topic: &str) -> u64 {
        let at = self.topics.get(topic).and_then(|t| t.committed.get(group));
        at.map_or(0, |&at| at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn broker() -> Broker<u32> {
        let mut b = Broker::new();
        b.create_topic("t").unwrap();
        b
    }

    fn held(b: &Broker<u32>) -> Vec<u32> {
        b.held("t").unwrap().1.iter().map(|e| e.value).collect()
    }

    #[test]
    fn create_topic_validation() {
        let mut b: Broker<u32> = Broker::new();
        b.create_topic("x").unwrap();
        assert_eq!(
            b.create_topic("x"),
            Err(BusError::TopicExists { topic: "x".into() })
        );
        assert_eq!(b.partition_count("x").unwrap(), 1);
        assert_eq!(b.high_watermark("x", 0).unwrap(), 0);
        assert_eq!(b.held("x").unwrap().0, 0);
    }

    #[test]
    fn produce_assigns_dense_offsets() {
        let mut b = broker();
        for i in 0..4 {
            assert_eq!(b.produce("t", 10 * i, i as u32).unwrap(), i);
        }
        let offsets: Vec<u64> = b.held("t").unwrap().1.iter().map(|e| e.offset).collect();
        assert_eq!(offsets, vec![0, 1, 2, 3]);
        assert_eq!(b.high_watermark("t", 0).unwrap(), 4);
    }

    #[test]
    fn fetch_caught_up_consumer_gets_empty() {
        let mut b = broker();
        let mut c = crate::GroupConsumer::new("g", "t", &b).unwrap();
        b.produce("t", 0, 1).unwrap();
        assert_eq!(c.poll(&b, 10).unwrap().len(), 1);
        assert!(c.poll(&b, 10).unwrap().is_empty());
        assert_eq!(c.position(), b.high_watermark("t", 0).unwrap());
    }

    #[test]
    fn unknown_topic_paths() {
        let mut b = broker();
        let unknown = Err(BusError::UnknownTopic {
            topic: "nope".into(),
        });
        assert_eq!(b.produce("nope", 0, 1), unknown.clone().map(|()| 0));
        assert_eq!(b.high_watermark("nope", 0), unknown.clone().map(|()| 0));
        assert_eq!(b.partition_count("nope"), unknown.clone().map(|()| 0));
        assert_eq!(b.commit("g", "nope", 0), unknown);
        assert_eq!(
            b.high_watermark("t", 1),
            Err(BusError::UnknownPartition {
                topic: "t".into(),
                partition: 1
            })
        );
    }

    #[test]
    fn consumer_group_offsets_roundtrip() {
        let mut b = broker();
        for i in 0..5 {
            b.produce("t", i, i as u32).unwrap();
        }
        assert_eq!(b.committed("g", "t"), 0);
        b.commit("g", "t", 3).unwrap();
        assert_eq!(b.committed("g", "t"), 3);
        // A different group is independent.
        assert_eq!(b.committed("h", "t"), 0);
        // `g` is the only committed group: what it has read is dropped.
        assert_eq!(b.held("t").unwrap().0, 3);
        assert_eq!(held(&b), vec![3, 4]);
    }

    #[test]
    fn commit_drops_only_what_every_committed_group_has_read() {
        let mut b = broker();
        for i in 0..6 {
            b.produce("t", i, i as u32).unwrap();
        }
        b.commit("slow", "t", 1).unwrap();
        b.commit("fast", "t", 5).unwrap();
        assert_eq!(held(&b), vec![1, 2, 3, 4, 5], "the slow group holds");
        b.commit("slow", "t", 4).unwrap();
        assert_eq!(held(&b), vec![4, 5]);
        b.commit("slow", "t", 6).unwrap();
        assert_eq!(held(&b), vec![5], "now the fast group holds");
        // Appending continues at the high watermark.
        assert_eq!(b.produce("t", 6, 6).unwrap(), 6);
        assert_eq!(b.held("t").unwrap().0, 5);
    }
}
