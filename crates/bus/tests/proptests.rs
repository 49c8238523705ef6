//! Property-based tests for the broker: every committed group reads every
//! record once, in order, and the log holds exactly what its slowest
//! committed group has yet to read, under arbitrary operation sequences.

use proptest::prelude::*;

use dcm_bus::{Broker, GroupConsumer};

#[derive(Debug, Clone)]
enum Op {
    Produce { value: u32 },
    Poll { group: usize, max: usize },
    Commit { group: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u32>().prop_map(|value| Op::Produce { value }),
        (0usize..3, 1usize..20).prop_map(|(group, max)| Op::Poll { group, max }),
        (0usize..3).prop_map(|group| Op::Commit { group }),
    ]
}

/// A broker with topic `t` and `groups` consumers that have each committed
/// their start, as every metrics reader does.
fn committed_groups(groups: usize) -> (Broker<u32>, Vec<GroupConsumer>) {
    let mut broker = Broker::new();
    broker.create_topic("t").unwrap();
    let consumers = (0..groups)
        .map(|g| {
            let consumer = GroupConsumer::new(&format!("g{g}"), "t", &broker).unwrap();
            consumer.commit(&mut broker).unwrap();
            consumer
        })
        .collect();
    (broker, consumers)
}

/// Everything a fresh, never-committing group can read: the records the
/// log still holds.
fn held(broker: &Broker<u32>) -> Vec<u32> {
    let mut probe = GroupConsumer::new("probe", "t", broker).unwrap();
    probe
        .poll(broker, usize::MAX)
        .unwrap()
        .iter()
        .map(|e| e.value)
        .collect()
}

proptest! {
    /// Each of 1–3 committed groups sees every produced record exactly
    /// once, in production order, with dense offsets from 0, across
    /// arbitrary produce/poll/commit interleavings.
    #[test]
    fn consumer_sees_everything_exactly_once(
        groups in 1usize..4,
        ops in prop::collection::vec(op_strategy(), 1..200),
    ) {
        let (mut broker, mut consumers) = committed_groups(groups);
        let mut produced: Vec<u32> = Vec::new();
        let mut consumed: Vec<Vec<(u64, u32)>> = vec![Vec::new(); groups];
        for op in &ops {
            match *op {
                Op::Produce { value } => {
                    let offset = broker.produce("t", produced.len() as u64, value).unwrap();
                    prop_assert_eq!(offset, produced.len() as u64);
                    produced.push(value);
                }
                Op::Poll { group, max } => {
                    let g = group % groups;
                    let batch = consumers[g].poll(&broker, max).unwrap();
                    prop_assert!(batch.len() <= max);
                    consumed[g].extend(batch.iter().map(|e| (e.offset, e.value)));
                }
                Op::Commit { group } => consumers[group % groups].commit(&mut broker).unwrap(),
            }
        }
        let expected: Vec<(u64, u32)> = (0..).zip(produced.iter().copied()).collect();
        for (consumer, seen) in consumers.iter_mut().zip(consumed.iter_mut()) {
            let rest = consumer.poll(&broker, usize::MAX).unwrap();
            seen.extend(rest.iter().map(|e| (e.offset, e.value)));
            prop_assert_eq!(&*seen, &expected);
            prop_assert!(consumer.poll(&broker, usize::MAX).unwrap().is_empty());
        }
        prop_assert_eq!(broker.high_watermark("t", 0).unwrap(), produced.len() as u64);
    }

    /// Offsets are dense: each produced record gets the prior high
    /// watermark as its offset, and commits that drop records from the head
    /// never renumber or reuse an offset.
    #[test]
    fn offsets_are_dense(ops in prop::collection::vec(op_strategy(), 1..150)) {
        let (mut broker, mut consumers) = committed_groups(1);
        let mut produced = 0u64;
        for op in &ops {
            match *op {
                Op::Produce { value } => {
                    let before = broker.high_watermark("t", 0).unwrap();
                    let offset = broker.produce("t", produced, value).unwrap();
                    prop_assert_eq!(offset, before);
                    prop_assert_eq!(offset, produced);
                    produced += 1;
                    prop_assert_eq!(broker.high_watermark("t", 0).unwrap(), produced);
                }
                Op::Poll { max, .. } => {
                    consumers[0].poll(&broker, max).unwrap();
                }
                Op::Commit { .. } => {
                    consumers[0].commit(&mut broker).unwrap();
                    prop_assert_eq!(broker.high_watermark("t", 0).unwrap(), produced);
                }
            }
        }
        prop_assert_eq!(broker.high_watermark("t", 0).unwrap(), produced);
    }

    /// After every commit the log holds exactly the records from the
    /// slowest committed position onward: nothing a committed group has
    /// yet to read is lost, and nothing every committed group has read is
    /// kept.
    #[test]
    fn retention_keeps_newest(
        groups in 1usize..4,
        ops in prop::collection::vec(op_strategy(), 1..200),
    ) {
        let (mut broker, mut consumers) = committed_groups(groups);
        let mut produced: Vec<u32> = Vec::new();
        let mut committed = vec![0u64; groups];
        for op in &ops {
            match *op {
                Op::Produce { value } => {
                    broker.produce("t", produced.len() as u64, value).unwrap();
                    produced.push(value);
                }
                Op::Poll { group, max } => {
                    consumers[group % groups].poll(&broker, max).unwrap();
                }
                Op::Commit { group } => {
                    let g = group % groups;
                    consumers[g].commit(&mut broker).unwrap();
                    committed[g] = consumers[g].position();
                    let slowest = *committed.iter().min().expect("at least one group");
                    prop_assert_eq!(held(&broker), produced[slowest as usize..].to_vec());
                }
            }
        }
    }

    /// A group created after records were dropped starts at the first
    /// record still held and then reads every later record once.
    #[test]
    fn consumer_survives_retention_gaps(
        produce_before in 1usize..80,
        read_before in 0usize..80,
        produce_after in 0usize..80,
    ) {
        let (mut broker, mut consumers) = committed_groups(1);
        for i in 0..produce_before {
            broker.produce("t", i as u64, i as u32).unwrap();
        }
        let read = consumers[0].poll(&broker, read_before).unwrap().len();
        consumers[0].commit(&mut broker).unwrap();

        let mut late = GroupConsumer::new("late", "t", &broker).unwrap();
        prop_assert_eq!(late.position(), read as u64);
        let total = produce_before + produce_after;
        for i in produce_before..total {
            broker.produce("t", i as u64, i as u32).unwrap();
        }
        let mut seen: Vec<u32> = Vec::new();
        for _ in 0..3 {
            let batch = late.poll(&broker, 50).unwrap();
            seen.extend(batch.iter().map(|e| e.value));
        }
        seen.extend(late.poll(&broker, usize::MAX).unwrap().iter().map(|e| e.value));
        let expected: Vec<u32> = (read as u32..total as u32).collect();
        prop_assert_eq!(seen, expected);
    }
}
