//! Bit-identity of the trimmed, cache-sharing convolution solver against
//! the full prefix/suffix scheme it replaced.
//!
//! `reference_solve` is that scheme verbatim: every prefix, every suffix
//! (the unused first one and the identity convolution included), each
//! station complement through the identity, and the whole `G` vector.
//! `ClosedNetwork::solve` skips the convolutions that cannot change a bit,
//! and `solve_with` shares partial convolutions across solves through a
//! `ConvCache`; both must reproduce the reference on the bits of every
//! `MvaSolution` field.

use dcm_model::mva::{ClosedNetwork, ConvCache, MvaSolution, Station};
use proptest::prelude::*;

fn reference_rate_at(s: &Station, n: u32) -> Option<f64> {
    if n == 0 {
        return Some(0.0);
    }
    match s {
        Station::Delay { .. } => None,
        Station::Queueing {
            service_time,
            servers,
            ..
        } => Some(f64::from(n.min((*servers).max(1))) / service_time),
        Station::LoadDependent {
            service_time, rate, ..
        } => {
            let idx = (n as usize).min(rate.len()) - 1;
            Some(rate[idx] / service_time)
        }
    }
}

fn reference_is_delay(s: &Station) -> bool {
    matches!(s, Station::Delay { .. })
}

fn reference_solve(net: &ClosedNetwork, n: u32) -> MvaSolution {
    let m = net.stations.len();
    if n == 0 {
        return MvaSolution {
            population: 0,
            throughput: 0.0,
            response_time: 0.0,
            station_residence: vec![0.0; m],
            station_queue: vec![0.0; m],
            station_utilization: vec![0.0; m],
        };
    }
    let cap = n as usize;
    let bounded: Vec<usize> = (0..m)
        .filter(|&i| !reference_is_delay(&net.stations[i]))
        .collect();
    let z_total: f64 = net.think_time
        + net
            .stations
            .iter()
            .filter(|s| reference_is_delay(s))
            .map(|s| s.demand())
            .sum::<f64>();
    let is_factor: Vec<f64> = {
        let mut lf = vec![0.0f64; cap + 1];
        for j in 1..=cap {
            lf[j] = if z_total > 0.0 {
                lf[j - 1] + z_total.ln() - (j as f64).ln()
            } else {
                f64::NEG_INFINITY
            };
        }
        lf
    };
    let factors: Vec<Vec<f64>> = bounded
        .iter()
        .map(|&i| {
            let s = &net.stations[i];
            let v = s.visit_ratio();
            let mut lf = vec![0.0f64; cap + 1];
            for j in 1..=cap {
                let mu = reference_rate_at(s, j as u32).expect("non-delay station has a rate");
                lf[j] = if v > 0.0 {
                    lf[j - 1] + (v / mu).ln()
                } else {
                    f64::NEG_INFINITY
                };
            }
            lf
        })
        .collect();

    let k = bounded.len();
    let mut prefix: Vec<Vec<f64>> = Vec::with_capacity(k + 1);
    prefix.push(is_factor.clone());
    for f in &factors {
        let g = reference_log_convolve(prefix.last().expect("non-empty"), f);
        prefix.push(g);
    }
    let g_full = prefix.last().expect("non-empty").clone();
    let mut suffix: Vec<Vec<f64>> = vec![Vec::new(); k + 1];
    let mut acc = reference_log_delta(cap);
    suffix[k] = acc.clone();
    for i in (0..k).rev() {
        acc = reference_log_convolve(&factors[i], &acc);
        suffix[i] = acc.clone();
    }

    let throughput = (g_full[cap - 1] - g_full[cap]).exp();

    let mut station_queue = vec![0.0; m];
    for (bi, &i) in bounded.iter().enumerate() {
        let mut compl = prefix[bi].clone();
        if bi < k {
            compl = reference_log_convolve(&compl, &suffix[bi + 1]);
        }
        let lq: Vec<f64> = (0..=cap).map(|j| factors[bi][j] + compl[cap - j]).collect();
        let mx = lq.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut mass = 0.0;
        let mut weighted = 0.0;
        if mx > f64::NEG_INFINITY {
            for (j, &l) in lq.iter().enumerate() {
                let q = (l - mx).exp();
                mass += q;
                weighted += j as f64 * q;
            }
        }
        station_queue[i] = if mass > 0.0 { weighted / mass } else { 0.0 };
    }
    let station_residence: Vec<f64> = net
        .stations
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if reference_is_delay(s) {
                s.demand()
            } else {
                station_queue[i] / throughput
            }
        })
        .collect();
    for (i, s) in net.stations.iter().enumerate() {
        if reference_is_delay(s) {
            station_queue[i] = throughput * s.demand();
        }
    }
    let station_utilization: Vec<f64> = net
        .stations
        .iter()
        .map(|s| match s.max_rate() {
            Some(peak) => throughput * s.visit_ratio() / peak,
            None => throughput * s.demand(),
        })
        .collect();
    let response_time = station_residence.iter().sum();
    MvaSolution {
        population: n,
        throughput,
        response_time,
        station_residence,
        station_queue,
        station_utilization,
    }
}

fn reference_log_convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    let len = a.len();
    let mut out = vec![f64::NEG_INFINITY; len];
    for (n, slot) in out.iter_mut().enumerate() {
        let mx = (0..=n)
            .map(|j| a[j] + b[n - j])
            .fold(f64::NEG_INFINITY, f64::max);
        if mx > f64::NEG_INFINITY {
            let sum: f64 = (0..=n).map(|j| (a[j] + b[n - j] - mx).exp()).sum();
            *slot = mx + sum.ln();
        }
    }
    out
}

fn reference_log_delta(cap: usize) -> Vec<f64> {
    let mut v = vec![f64::NEG_INFINITY; cap + 1];
    v[0] = 0.0;
    v
}

/// The population and the bits of every float field, in a fixed order.
fn bits(sol: &MvaSolution) -> (u32, Vec<u64>) {
    let fields = [sol.throughput, sol.response_time]
        .into_iter()
        .chain(sol.station_residence.iter().copied())
        .chain(sol.station_queue.iter().copied())
        .chain(sol.station_utilization.iter().copied());
    (sol.population, fields.map(f64::to_bits).collect())
}

/// Raw draws for one station: a visit-ratio selector (0 means never
/// visited), the visit ratio, the service time, the server count, and a
/// load-dependent rate table.
type StationDraw = (u32, f64, f64, u32, Vec<f64>);

fn station_draw() -> impl Strategy<Value = StationDraw> {
    (
        0u32..5,
        0.05f64..3.0,
        0.001f64..0.4,
        1u32..48,
        prop::collection::vec(0.3f64..9.0, 1..10),
    )
}

fn delay_station(d: &StationDraw) -> Station {
    let visit_ratio = if d.0 == 0 { 0.0 } else { d.1 };
    Station::Delay {
        visit_ratio,
        service_time: d.2,
    }
}

/// A queueing station on odd selectors, a load-dependent one on even ones.
fn bounded_station(d: &StationDraw) -> Station {
    let visit_ratio = if d.0 == 0 { 0.0 } else { d.1 };
    if d.0 % 2 == 1 {
        Station::Queueing {
            visit_ratio,
            service_time: d.2,
            servers: d.3,
        }
    } else {
        Station::LoadDependent {
            visit_ratio,
            service_time: d.2,
            rate: d.4.clone(),
        }
    }
}

/// The `bounded` stations in order, with each of `delays` inserted at a
/// position taken from the bits of `order`.
fn network(
    bounded: &[&StationDraw],
    delays: &[StationDraw],
    order: u64,
    think: f64,
) -> ClosedNetwork {
    let mut stations: Vec<Station> = bounded.iter().map(|d| bounded_station(d)).collect();
    for (i, d) in delays.iter().enumerate() {
        let at = (order >> (8 * i)) as usize % (stations.len() + 1);
        stations.insert(at, delay_station(d));
    }
    ClosedNetwork::new(stations, think)
}

/// A think time, zero one time in four.
fn think_time() -> impl Strategy<Value = f64> {
    (0u32..4, 0.01f64..5.0).prop_map(|(zero, z)| if zero == 0 { 0.0 } else { z })
}

/// A population in 0..700, skewed small so that the debug-build suite
/// stays quick while large populations are still drawn.
fn population() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), 1u32..8, 8u32..120, 120u32..700]
}

proptest! {
    /// The trimmed solver reproduces the full scheme bit for bit on
    /// networks with 0 to 4 bounded stations and 0 to 2 delay stations.
    #[test]
    fn solve_matches_reference_bits(
        shape in (0usize..5, 0usize..3, any::<u64>()),
        think in think_time(),
        draws in prop::collection::vec(station_draw(), 6),
        n in population(),
    ) {
        let (bounded, delays, order) = shape;
        let (b, d) = draws.split_at(4);
        let bounded: Vec<&StationDraw> = b.iter().take(bounded).collect();
        // A network needs at least one station.
        let delays = &d[..delays.max(usize::from(bounded.is_empty()))];
        let net = network(&bounded, delays, order, think);
        prop_assert_eq!(bits(&net.solve(n)), bits(&reference_solve(&net, n)));
    }

    /// One cache shared by a group of networks whose bounded stations are
    /// drawn from a pool of three, so stations recur at the same and at
    /// different positions, under two think times and two populations:
    /// every hit must return exactly what the uncached reference
    /// computes. The third pool station has the first one's kind, visit
    /// ratio and service time but the second one's servers and rate table.
    #[test]
    fn shared_cache_matches_reference_bits(
        shape in (0usize..5, 0usize..3, any::<u64>()),
        draws in (station_draw(), station_draw()),
        delays in prop::collection::vec(station_draw(), 2),
        thinks in (think_time(), think_time()),
        populations in (population(), 1u32..60),
        picks in prop::collection::vec(any::<u64>(), 8),
    ) {
        let (bounded, n_delays, order) = shape;
        let (a, b) = draws;
        let twin = (a.0, a.1, a.2, b.3, b.4.clone());
        let pool = [a, b, twin];
        let delays = &delays[..n_delays.max(usize::from(bounded == 0))];
        let mut cache = ConvCache::default();
        for pick in picks {
            let stations: Vec<&StationDraw> = (0..bounded)
                .map(|b| &pool[((pick >> (2 * b)) % 3) as usize])
                .collect();
            let think = if (pick >> 16) & 1 == 0 { thinks.0 } else { thinks.1 };
            let n = if (pick >> 17) & 1 == 0 { populations.0 } else { populations.1 };
            let net = network(&stations, delays, order, think);
            prop_assert_eq!(
                bits(&net.solve_with(n, &mut cache)),
                bits(&reference_solve(&net, n))
            );
        }
    }
}

/// The edge cases of the identity skips, pinned rather than sampled: 0, 1,
/// 2 and 3 bounded stations, with and without delay stations and think
/// time, in one cache.
#[test]
fn identity_skip_edge_cases_match_reference_bits() {
    let q = |v: f64, s: f64, c: u32| Station::Queueing {
        visit_ratio: v,
        service_time: s,
        servers: c,
    };
    let ld = Station::LoadDependent {
        visit_ratio: 2.0,
        service_time: 0.03,
        rate: vec![1.0, 1.8, 2.4, 2.7],
    };
    let delay = Station::Delay {
        visit_ratio: 1.0,
        service_time: 0.2,
    };
    let nets = [
        ClosedNetwork::new(vec![delay.clone()], 1.0),
        ClosedNetwork::new(vec![delay.clone()], 0.0),
        ClosedNetwork::new(vec![q(1.0, 0.05, 4)], 0.0),
        ClosedNetwork::new(vec![delay.clone(), q(1.0, 0.05, 4)], 0.5),
        ClosedNetwork::new(vec![q(1.0, 0.05, 4), ld.clone()], 0.0),
        ClosedNetwork::new(vec![q(0.0, 0.05, 4), delay.clone(), ld.clone()], 3.0),
        ClosedNetwork::new(vec![q(1.0, 0.005, 1024), q(1.0, 0.02, 26), ld], 3.0),
        ClosedNetwork::new(
            vec![q(1.0, 0.005, 1024), q(1.0, 0.02, 26), q(2.0, 0.01, 72)],
            3.0,
        ),
    ];
    let mut cache = ConvCache::default();
    for n in [0u32, 1, 2, 240, 1, 240] {
        for net in &nets {
            let want = bits(&reference_solve(net, n));
            assert_eq!(bits(&net.solve(n)), want, "solve, n={n}, {net:?}");
            assert_eq!(
                bits(&net.solve_with(n, &mut cache)),
                want,
                "solve_with, n={n}, {net:?}"
            );
        }
    }
}
