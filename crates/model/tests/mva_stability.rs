//! Numerical-stability regression for the closed-network solver.
//!
//! The original Reiser–Lavenberg marginal-distribution recursion lost
//! probability mass to catastrophic cancellation for wide multi-server
//! stations near saturation (worst case observed: c = 28, N = 120 gave
//! X = 15.0 against a true 92.9 — an 84 % error) — exactly the regime the
//! MPC planner enumerates. The convolution solver must agree with a
//! direct birth–death steady-state solution to float precision across
//! the whole (c, N) sweep.

use dcm_model::mva::{ClosedNetwork, Station};

/// Direct birth–death steady state for one station + terminal: states
/// `j = 0..=n` jobs at the station, birth `λ(j) = (n-j)/Z`, death `μ(j)`.
fn birth_death_throughput(n: u32, z: f64, mu: impl Fn(u32) -> f64) -> f64 {
    // Log-space to survive the large populations this test sweeps.
    let n = n as usize;
    let mut lpi = vec![0.0f64; n + 1];
    for j in 1..=n {
        let lam = (n - (j - 1)) as f64 / z;
        lpi[j] = lpi[j - 1] + lam.ln() - mu(j as u32).ln();
    }
    let mx = lpi.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let pi: Vec<f64> = lpi.iter().map(|&l| (l - mx).exp()).collect();
    let total: f64 = pi.iter().sum();
    (1..=n).map(|j| pi[j] / total * mu(j as u32)).sum()
}

#[test]
fn wide_multi_server_stations_stay_exact_at_saturation() {
    let s = 0.2713;
    for c in [1u32, 4, 14, 28, 57, 171, 512] {
        for n in [1u32, 20, 60, 89, 120, 250] {
            let net = ClosedNetwork::new(
                vec![Station::Queueing {
                    visit_ratio: 1.0,
                    service_time: s,
                    servers: c,
                }],
                1.0,
            );
            let x = net.solve(n).throughput;
            let truth = birth_death_throughput(n, 1.0, |j| f64::from(j.min(c)) / s);
            assert!(
                (x - truth).abs() / truth < 1e-9,
                "c={c} n={n}: solver {x} vs birth-death {truth}"
            );
        }
    }
}

#[test]
fn load_dependent_stations_stay_exact_at_saturation() {
    // A concurrency-law station pushed deep past its knee.
    let (s0, alpha, beta) = (0.02, 0.002, 4.0e-4);
    let s_star = |m: u32| {
        let m = f64::from(m.max(1));
        s0 + alpha * (m - 1.0) + beta * m * (m - 1.0)
    };
    let threads = 48u32;
    let rate = dcm_model::mva::law_rate_table(s0, threads, s_star);
    let net = ClosedNetwork::new(
        vec![Station::LoadDependent {
            visit_ratio: 1.0,
            service_time: s0,
            rate,
        }],
        0.5,
    );
    for n in [5u32, 40, 120, 300] {
        let x = net.solve(n).throughput;
        let truth = birth_death_throughput(n, 0.5, |j| {
            let m = j.min(threads);
            f64::from(m) / s_star(m)
        });
        assert!(
            (x - truth).abs() / truth < 1e-9,
            "n={n}: solver {x} vs birth-death {truth}"
        );
    }
}

#[test]
fn queue_lengths_conserve_population_in_wide_networks() {
    let net = ClosedNetwork::new(
        vec![
            Station::Delay {
                visit_ratio: 1.0,
                service_time: 0.01,
            },
            Station::Queueing {
                visit_ratio: 1.0,
                service_time: 0.05,
                servers: 32,
            },
            Station::Queueing {
                visit_ratio: 2.0,
                service_time: 0.03,
                servers: 96,
            },
        ],
        0.7,
    );
    for n in [1u32, 64, 256, 800] {
        let sol = net.solve(n);
        let at_stations: f64 = sol.station_queue.iter().sum();
        let thinking = sol.throughput * 0.7;
        assert!(
            (at_stations + thinking - f64::from(n)).abs() / f64::from(n) < 1e-9,
            "n={n}: {at_stations} + {thinking}"
        );
    }
}
