//! Property tests for the MPC planner API: over randomized topologies and
//! demands, predicted throughput must be monotone non-decreasing in every
//! tier's server count and concurrency at fixed load, must never exceed
//! the asymptotic operational bound `X ≤ min(N/(Z+ΣD), min_m c_m/D_m)`,
//! and must not move beyond rounding when a tier too wide to queue is
//! planned as a delay station.

use proptest::prelude::*;

use dcm_model::mva::{ClosedNetwork, Station};
use dcm_oracle::planner::{predict, throughput_bound, PlannedTier};

/// Strategy for one random tier: 1–4 VMs, 1–64 per-VM concurrency,
/// per-visit demands spanning microservice to heavy-query scales.
fn tier() -> impl Strategy<Value = PlannedTier> {
    (1u32..=4, 1u32..=64, 0.001f64..0.1, 0.25f64..3.0).prop_map(
        |(servers, concurrency, demand, visits)| PlannedTier {
            servers,
            concurrency,
            demand,
            visits,
        },
    )
}

fn topology() -> impl Strategy<Value = Vec<PlannedTier>> {
    prop::collection::vec(tier(), 1..=4)
}

proptest! {
    /// Predicted X never exceeds the asymptotic bound, at any population.
    #[test]
    fn throughput_respects_asymptotic_bounds(
        tiers in topology(),
        think in 0.0f64..3.0,
        population in 1u32..200,
    ) {
        let p = predict(&tiers, think, population);
        let bound = throughput_bound(&tiers, think, population);
        prop_assert!(
            p.throughput <= bound * (1.0 + 1e-9),
            "X {} exceeds bound {bound} at N={population}",
            p.throughput
        );
        // The bound's two arms, spelled out: the light-load limit and the
        // bottleneck channel capacity.
        let d_total: f64 = tiers.iter().map(|t| t.total_demand()).sum();
        prop_assert!(p.throughput <= f64::from(population) / (think + d_total) + 1e-9);
        let cap = tiers
            .iter()
            .filter(|t| t.visits > 0.0)
            .map(|t| {
                f64::from(t.servers * t.concurrency) / (t.demand * t.visits)
            })
            .fold(f64::INFINITY, f64::min);
        prop_assert!(p.throughput <= cap * (1.0 + 1e-9));
    }

    /// At fixed load, adding a VM to any tier never lowers predicted X.
    #[test]
    fn monotone_in_servers_per_tier(
        tiers in topology(),
        think in 0.0f64..3.0,
        population in 1u32..150,
        which in 0usize..4,
    ) {
        let base = predict(&tiers, think, population);
        let mut grown = tiers.clone();
        let idx = which % grown.len();
        grown[idx].servers += 1;
        let more = predict(&grown, think, population);
        prop_assert!(
            more.throughput >= base.throughput * (1.0 - 1e-9),
            "tier {idx}: {} VMs -> {} VMs dropped X {} -> {}",
            tiers[idx].servers, grown[idx].servers, base.throughput, more.throughput
        );
        // Response time can only improve too (pure capacity add).
        prop_assert!(more.response_time <= base.response_time * (1.0 + 1e-9));
    }

    /// At fixed load, raising any tier's concurrency cap never lowers
    /// predicted X (demands are fixed inputs; contention is the caller's
    /// adjustment, not the planner's).
    #[test]
    fn monotone_in_concurrency_per_tier(
        tiers in topology(),
        think in 0.0f64..3.0,
        population in 1u32..150,
        which in 0usize..4,
        step in 1u32..16,
    ) {
        let base = predict(&tiers, think, population);
        let mut deeper = tiers.clone();
        let idx = which % deeper.len();
        deeper[idx].concurrency += step;
        let more = predict(&deeper, think, population);
        prop_assert!(
            more.throughput >= base.throughput * (1.0 - 1e-9),
            "tier {idx}: N {} -> {} dropped X {} -> {}",
            tiers[idx].concurrency, deeper[idx].concurrency,
            base.throughput, more.throughput
        );
    }

    /// X is monotone non-decreasing in population (fixed deployment), and
    /// the interactive response-time law holds at every point.
    #[test]
    fn monotone_in_population_and_little_consistent(
        tiers in topology(),
        think in 0.1f64..3.0,
    ) {
        let mut last = 0.0;
        for n in [1u32, 2, 5, 13, 34, 89] {
            let p = predict(&tiers, think, n);
            prop_assert!(p.throughput >= last - 1e-9, "X not monotone at N={n}");
            // Interactive law: N = X·(R+Z) exactly, for the exact solver.
            let implied = p.throughput * (p.response_time + think);
            prop_assert!(
                (implied - f64::from(n)).abs() < 1e-6,
                "interactive law broke at N={n}: {implied}"
            );
            prop_assert!((p.residence.iter().sum::<f64>() - p.response_time).abs() < 1e-9);
            last = p.throughput;
        }
    }

    /// A tier with at least as many channels as the population is planned
    /// as a delay station. The fold is exact, so the prediction matches
    /// the solve with every tier a queueing station to within rounding,
    /// and utilization stays the fraction of each tier's peak `c/S`.
    #[test]
    fn ample_tiers_fold_exactly(
        tiers in topology(),
        think in 0.0f64..3.0,
        population in 1u32..200,
        which in 0usize..4,
        slack in 0u32..3,
    ) {
        let mut tiers = tiers;
        let idx = which % tiers.len();
        tiers[idx].concurrency = population.div_ceil(tiers[idx].servers) + slack;
        let p = predict(&tiers, think, population);
        let stations = tiers
            .iter()
            .map(|t| Station::Queueing {
                visit_ratio: t.visits,
                service_time: t.demand,
                servers: t.servers * t.concurrency,
            })
            .collect();
        let q = ClosedNetwork::new(stations, think).solve(population);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
        prop_assert!(close(p.throughput, q.throughput), "X {} vs {}", p.throughput, q.throughput);
        prop_assert!(
            close(p.response_time, q.response_time),
            "R {} vs {}", p.response_time, q.response_time
        );
        for (m, (&r, &u)) in p.residence.iter().zip(&p.utilization).enumerate() {
            let (r_q, u_q) = (q.station_residence[m], q.station_utilization[m]);
            prop_assert!(close(r, r_q), "tier {m} residence {r} vs {r_q}");
            prop_assert!(close(u, u_q), "tier {m} utilization {u} vs {u_q}");
        }
    }
}
