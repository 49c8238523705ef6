//! Property-based tests for the simulation substrate.

use proptest::prelude::*;

use dcm_sim::dist::{AliasTable, Dist, Sample};
use dcm_sim::engine::Engine;
use dcm_sim::rng::SimRng;
use dcm_sim::stats::{Histogram, OnlineStats, SampleQuantiles, StepGauge};
use dcm_sim::time::SimTime;

fn key_half() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..4, any::<u64>(), Just(u64::MAX)]
}

proptest! {
    /// `SimTime::key` orders `(time, seq)` pairs exactly as the tuple does,
    /// up to `SimTime::MAX`, and gives the time back.
    #[test]
    fn sim_time_key_orders_like_the_tuple(
        pairs in prop::collection::vec((key_half(), key_half()), 2..40),
    ) {
        for &(t1, s1) in &pairs {
            let a = SimTime::from_nanos(t1);
            prop_assert_eq!(SimTime::from_key(a.key(s1)), a);
            for &(t2, s2) in &pairs {
                let b = SimTime::from_nanos(t2);
                prop_assert_eq!(a.key(s1).cmp(&b.key(s2)), (a, s1).cmp(&(b, s2)));
                prop_assert_eq!(a.key(s1).cmp(&a.key(s2)), s1.cmp(&s2));
            }
        }
    }

    /// Events always fire in non-decreasing time order, with ties in
    /// schedule order, regardless of insertion order.
    #[test]
    fn engine_fires_in_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut engine: Engine<Vec<(u64, usize)>> = Engine::new();
        let mut fired = Vec::new();
        for (seq, &t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::from_nanos(t), move |w: &mut Vec<(u64, usize)>, _| {
                w.push((t, seq));
            });
        }
        engine.run(&mut fired);
        prop_assert_eq!(fired.len(), times.len());
        for pair in fired.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "time order violated");
            if pair[0].0 == pair[1].0 {
                prop_assert!(pair[0].1 < pair[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// Cancelling an arbitrary subset suppresses exactly that subset.
    #[test]
    fn engine_cancellation_is_exact(
        times in prop::collection::vec(0u64..10_000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut engine: Engine<Vec<usize>> = Engine::new();
        let mut fired = Vec::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                engine.schedule_at(SimTime::from_nanos(t), move |w: &mut Vec<usize>, _| w.push(i))
            })
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                engine.cancel(*id);
            } else {
                expected.push(i);
            }
        }
        engine.run(&mut fired);
        fired.sort_unstable();
        prop_assert_eq!(fired, expected);
    }

    /// Merging two Welford summaries equals one summary over the
    /// concatenation.
    #[test]
    fn stats_merge_is_concatenation(
        a in prop::collection::vec(-1e6f64..1e6, 0..200),
        b in prop::collection::vec(-1e6f64..1e6, 0..200),
    ) {
        let mut left: OnlineStats = a.iter().copied().collect();
        let right: OnlineStats = b.iter().copied().collect();
        left.merge(&right);
        let full: OnlineStats = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(left.count(), full.count());
        if full.count() > 0 {
            prop_assert!((left.mean() - full.mean()).abs() < 1e-6);
            prop_assert!((left.sample_variance() - full.sample_variance()).abs()
                / full.sample_variance().max(1.0) < 1e-6);
        }
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_are_monotone(values in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut q: SampleQuantiles = values.iter().copied().collect();
        let lo = q.quantile(0.0).unwrap();
        let med = q.quantile(0.5).unwrap();
        let hi = q.quantile(1.0).unwrap();
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lo <= med && med <= hi);
        prop_assert_eq!(lo, min);
        prop_assert_eq!(hi, max);
    }

    /// The step gauge's time-weighted mean lies within the value range.
    #[test]
    fn gauge_mean_is_bounded(steps in prop::collection::vec((0u64..1000, 0.0f64..100.0), 1..50)) {
        let mut sorted = steps.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut gauge = StepGauge::new(SimTime::ZERO, 0.0);
        for &(t, v) in &sorted {
            gauge.set(SimTime::from_nanos(t), v);
        }
        let mean = gauge.time_weighted_mean(SimTime::ZERO, SimTime::from_nanos(2000));
        prop_assert!((0.0..=100.0).contains(&mean), "mean {mean}");
    }

    /// Samples from every distribution are non-negative and finite.
    #[test]
    fn distributions_sample_valid_values(seed in any::<u64>(), which in 0usize..5) {
        let dist = match which {
            0 => Dist::constant(1.5),
            1 => Dist::uniform(0.5, 2.0),
            2 => Dist::exponential(3.0),
            3 => Dist::log_normal(-1.0, 0.8),
            _ => Dist::erlang(3, 10.0),
        };
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..100 {
            let x = dist.sample(&mut rng);
            prop_assert!(x.is_finite() && x >= 0.0, "{x} from {dist}");
        }
    }

    /// The alias table only ever returns valid indices, and hits every
    /// positive-weight category eventually.
    #[test]
    fn alias_table_indices_valid(weights in prop::collection::vec(0.0f64..10.0, 1..30), seed in any::<u64>()) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let table = AliasTable::new(&weights).unwrap();
        let mut rng = SimRng::seed_from(seed);
        let mut seen = vec![false; weights.len()];
        for _ in 0..2000 {
            let idx = table.sample(&mut rng);
            prop_assert!(idx < weights.len());
            prop_assert!(weights[idx] > 0.0, "zero-weight category sampled");
            seen[idx] = true;
        }
        // Categories holding at least 5% of the mass must appear in 2000
        // draws (probability of missing ≈ 1e-45).
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            if w / total >= 0.05 {
                prop_assert!(seen[i], "category {i} with mass {} never sampled", w / total);
            }
        }
    }

    /// Merging histograms equals histogramming the concatenated stream:
    /// every bucket (including under/overflow) and the total count match
    /// exactly, and the mean to float tolerance.
    #[test]
    fn histogram_merge_is_concatenation(
        a in prop::collection::vec(-50.0f64..150.0, 0..200),
        b in prop::collection::vec(-50.0f64..150.0, 0..200),
    ) {
        let record_all = |xs: &[f64]| {
            let mut h = Histogram::new(0.0, 100.0, 16).unwrap();
            xs.iter().for_each(|&x| h.record(x));
            h
        };
        let mut merged = record_all(&a);
        merged.merge(&record_all(&b)).unwrap();
        let full = record_all(&a.iter().chain(b.iter()).copied().collect::<Vec<_>>());
        prop_assert_eq!(merged.count(), full.count());
        prop_assert_eq!(merged.underflow(), full.underflow());
        prop_assert_eq!(merged.overflow(), full.overflow());
        for i in 0..merged.num_bins() {
            prop_assert_eq!(merged.bin_count(i), full.bin_count(i), "bin {}", i);
        }
        prop_assert!((merged.mean() - full.mean()).abs() <= 1e-9 * full.mean().abs() + 1e-12);
    }

    /// Histogram merge is commutative and associative: bucket counts are
    /// integers, so any merge order yields the identical histogram (sums
    /// compared to float tolerance via the mean).
    #[test]
    fn histogram_merge_is_commutative_and_associative(
        a in prop::collection::vec(-50.0f64..150.0, 0..120),
        b in prop::collection::vec(-50.0f64..150.0, 0..120),
        c in prop::collection::vec(-50.0f64..150.0, 0..120),
    ) {
        let record_all = |xs: &[f64]| {
            let mut h = Histogram::new(0.0, 100.0, 8).unwrap();
            xs.iter().for_each(|&x| h.record(x));
            h
        };
        let (ha, hb, hc) = (record_all(&a), record_all(&b), record_all(&c));
        // Commutativity: a+b vs b+a.
        let mut ab = ha.clone();
        ab.merge(&hb).unwrap();
        let mut ba = hb.clone();
        ba.merge(&ha).unwrap();
        prop_assert_eq!(&ab, &ba);
        // Associativity: (a+b)+c vs a+(b+c).
        let mut left = ab;
        left.merge(&hc).unwrap();
        let mut bc = hb.clone();
        bc.merge(&hc).unwrap();
        let mut right = ha.clone();
        right.merge(&bc).unwrap();
        prop_assert_eq!(left.count(), right.count());
        for i in 0..left.num_bins() {
            prop_assert_eq!(left.bin_count(i), right.bin_count(i), "bin {}", i);
        }
        prop_assert!((left.mean() - right.mean()).abs() <= 1e-9 * right.mean().abs() + 1e-12);
    }

    /// Histogram binning mismatches are rejected without touching the
    /// receiver.
    #[test]
    fn histogram_merge_rejects_mismatched_binning(xs in prop::collection::vec(0.0f64..10.0, 1..50)) {
        let mut h = Histogram::new(0.0, 10.0, 8).unwrap();
        xs.iter().for_each(|&x| h.record(x));
        let before = h.clone();
        prop_assert!(h.merge(&Histogram::new(0.0, 10.0, 9).unwrap()).is_err());
        prop_assert!(h.merge(&Histogram::new(0.0, 12.0, 8).unwrap()).is_err());
        prop_assert_eq!(&h, &before);
    }

    /// Histogram quantiles are monotone in q.
    #[test]
    fn histogram_quantiles_are_monotone(
        xs in prop::collection::vec(0.0f64..100.0, 1..300),
        qs in prop::collection::vec(0.0f64..=1.0, 2..20),
    ) {
        let mut h = Histogram::new(0.0, 100.0, 20).unwrap();
        xs.iter().for_each(|&x| h.record(x));
        let mut sorted_q = qs.clone();
        sorted_q.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let values: Vec<f64> = sorted_q.iter().map(|&q| h.quantile(q).unwrap()).collect();
        for pair in values.windows(2) {
            prop_assert!(pair[0] <= pair[1], "quantile not monotone: {:?}", values);
        }
    }

    /// Merging sample buffers conserves the observation count and yields
    /// exactly the quantiles of the concatenated stream, regardless of how
    /// the observations were grouped or ordered across buffers.
    #[test]
    fn sample_quantile_merge_is_concatenation(
        a in prop::collection::vec(-1e6f64..1e6, 0..200),
        b in prop::collection::vec(-1e6f64..1e6, 0..200),
        c in prop::collection::vec(-1e6f64..1e6, 1..200),
        q in 0.0f64..=1.0,
    ) {
        let collect = |xs: &[f64]| xs.iter().copied().collect::<SampleQuantiles>();
        let (qa, qb, qc) = (collect(&a), collect(&b), collect(&c));
        // (a+b)+c in merge order vs c+(b+a) vs one buffer over everything.
        let mut left = qa.clone();
        left.merge(&qb);
        left.merge(&qc);
        let mut right = qc.clone();
        let mut ba = qb;
        ba.merge(&qa);
        right.merge(&ba);
        let mut full = collect(&a);
        full.extend(b.iter().copied());
        full.extend(c.iter().copied());
        prop_assert_eq!(left.len(), a.len() + b.len() + c.len());
        prop_assert_eq!(right.len(), left.len());
        prop_assert_eq!(full.len(), left.len());
        // Quantiles over a sorted multiset: identical for every grouping.
        prop_assert_eq!(left.quantile(q), right.quantile(q));
        prop_assert_eq!(left.quantile(q), full.quantile(q));
    }

    /// run_until never executes events beyond the deadline and leaves the
    /// clock exactly at it.
    #[test]
    fn run_until_respects_deadline(
        times in prop::collection::vec(0u64..2000, 1..100),
        deadline in 0u64..2000,
    ) {
        let mut engine: Engine<Vec<u64>> = Engine::new();
        let mut fired: Vec<u64> = Vec::new();
        for &t in &times {
            engine.schedule_at(SimTime::from_nanos(t), move |w: &mut Vec<u64>, _| w.push(t));
        }
        engine.run_until(&mut fired, SimTime::from_nanos(deadline));
        prop_assert!(fired.iter().all(|&t| t <= deadline));
        let expected = times.iter().filter(|&&t| t <= deadline).count();
        prop_assert_eq!(fired.len(), expected);
        prop_assert_eq!(engine.now(), SimTime::from_nanos(deadline));
    }
}
