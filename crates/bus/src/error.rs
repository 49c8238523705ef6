//! Error types for broker operations.

use std::fmt;

/// Error returned by broker operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusError {
    /// The named topic does not exist.
    UnknownTopic {
        /// The topic that was requested.
        topic: String,
    },
    /// The topic exists but has no such partition (every topic is one
    /// log, partition 0).
    UnknownPartition {
        /// The topic that was requested.
        topic: String,
        /// The partition index other than 0.
        partition: u32,
    },
    /// A topic with this name already exists.
    TopicExists {
        /// The conflicting topic name.
        topic: String,
    },
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::UnknownTopic { topic } => write!(f, "unknown topic `{topic}`"),
            BusError::UnknownPartition { topic, partition } => {
                write!(f, "topic `{topic}` has no partition {partition}")
            }
            BusError::TopicExists { topic } => write!(f, "topic `{topic}` already exists"),
        }
    }
}

impl std::error::Error for BusError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = BusError::UnknownTopic {
            topic: "metrics".into(),
        };
        assert_eq!(e.to_string(), "unknown topic `metrics`");
        let e = BusError::UnknownPartition {
            topic: "metrics".into(),
            partition: 3,
        };
        assert_eq!(e.to_string(), "topic `metrics` has no partition 3");
        let e = BusError::TopicExists {
            topic: "metrics".into(),
        };
        assert_eq!(e.to_string(), "topic `metrics` already exists");
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BusError>();
    }
}
