//! Exact Mean Value Analysis for closed product-form networks.
//!
//! The oracle behind the DES conformance harness: a closed single-class
//! network of a think-time terminal (the machine-repairman client model)
//! plus an arbitrary mix of stations —
//!
//! * **delay** (infinite-server) stations: a frictionless simulated server
//!   whose thread pool never queues is exactly this (every burst progresses
//!   at full speed regardless of co-residents);
//! * **multi-server queueing** stations: a finite thread pool of `c`
//!   threads in front of a frictionless CPU serves like `M/M/c` (rate
//!   `min(n,c)/S`);
//! * **load-dependent** stations with an arbitrary completion-rate
//!   multiplier `r(n)` (rate `r(n)/S`), which is how the paper's
//!   concurrency law `S*(N)` enters: `n` busy threads on a lawful CPU
//!   complete at rate `min(n,c)·S⁰/S*(min(n,c))` per mean demand.
//!
//! The solver is the exact convolution algorithm (Buzen) with
//! load-dependent service factors: every quantity comes out of
//! normalization-constant ratios `G(N-1)/G(N)` and exact marginal
//! queue-length distributions `p_m(j | N) = f_m(j)·G^(m)(N-j)/G(N)` — no
//! Schweitzer/AMVA approximation anywhere. Convolution sums are
//! all-positive, so (unlike the Reiser–Lavenberg marginal-distribution
//! recursion, which loses mass to cancellation for wide multi-server
//! stations near saturation) the algorithm is numerically stable; each
//! working vector is max-normalized against overflow, and the scales
//! cancel in every reported ratio.
//!
//! Cost: with `k` bounded (non-delay) stations a solve at population `N`
//! runs `3k − 4` full `O(N²)` convolutions for `k ≥ 2` and none for
//! `k ≤ 1` — `k − 1` prefixes, `k − 2` suffixes and `k − 1` station
//! complements — plus `O(k·N)` for the factors and marginals. The
//! textbook prefix/suffix scheme's other convolutions are skipped because
//! they cannot change a bit. Convolving with the identity
//! `[0, −∞, −∞, …]` leaves output slot `n` at most one finite term,
//! `a[n] + 0 − a[n] = 0`, whose `exp` sums to exactly 1 with logarithm 0,
//! so the slot returns `a[n]` unchanged; that covers the innermost suffix
//! and the last station's complement. (This holds while no log factor is
//! `+∞`, which would take a `V/μ` or `Z` beyond the f64 range.) Slot `n`
//! of a convolution reads only the first `n + 1` entries of each operand,
//! so the full network's `G` is evaluated at just the two slots
//! `X(N) = G(N−1)/G(N)` needs. Batches of solves that share stations
//! share the partial convolutions themselves through a [`ConvCache`].
//!
//! [`ClosedNetwork::asymptotic_bounds`] provides the classic operational
//! bounds `X(N) ≤ min(N/(Z+ΣD), min_m μ_m^max/V_m)` that any measurement
//! must respect regardless of distributional assumptions.

use std::collections::BTreeMap;
use std::rc::Rc;

/// One service station of a closed network.
#[derive(Debug, Clone, PartialEq)]
pub enum Station {
    /// Infinite-server (pure delay) station: residence per visit is always
    /// `service_time`, no queueing ever.
    Delay {
        /// Visit ratio `V_m` per client request.
        visit_ratio: f64,
        /// Mean per-visit service time `S_m` (seconds).
        service_time: f64,
    },
    /// Multi-server FCFS/PS queueing station: completion rate `min(n,c)/S`
    /// with `n` jobs present.
    Queueing {
        /// Visit ratio `V_m` per client request.
        visit_ratio: f64,
        /// Mean per-visit service time `S_m` (seconds).
        service_time: f64,
        /// Parallel servers (threads) `c`.
        servers: u32,
    },
    /// General load-dependent station: completion rate `r(n)/S` with `n`
    /// jobs present, where `r(n) = rate[min(n, rate.len()) - 1]`.
    LoadDependent {
        /// Visit ratio `V_m` per client request.
        visit_ratio: f64,
        /// Mean per-visit service time `S_m` (seconds).
        service_time: f64,
        /// Rate multipliers `r(1), r(2), …`; the last entry extends to all
        /// larger populations.
        rate: Vec<f64>,
    },
}

impl Station {
    /// A multi-server queueing station for a server whose VM capacity
    /// multiplier rescales its CPU speed: a burst of `S` work-seconds on a
    /// capacity-`c` machine finishes in `S/c` wall seconds, so the station
    /// serves at effective time `service_time / capacity`. This is how
    /// heterogeneous VM types enter the oracle.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive and finite.
    pub fn queueing_with_capacity(
        visit_ratio: f64,
        service_time: f64,
        servers: u32,
        capacity: f64,
    ) -> Station {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        Station::Queueing {
            visit_ratio,
            service_time: service_time / capacity,
            servers,
        }
    }

    /// The station's visit ratio `V_m`.
    pub fn visit_ratio(&self) -> f64 {
        match self {
            Station::Delay { visit_ratio, .. }
            | Station::Queueing { visit_ratio, .. }
            | Station::LoadDependent { visit_ratio, .. } => *visit_ratio,
        }
    }

    /// The station's mean per-visit service time `S_m`.
    pub fn service_time(&self) -> f64 {
        match self {
            Station::Delay { service_time, .. }
            | Station::Queueing { service_time, .. }
            | Station::LoadDependent { service_time, .. } => *service_time,
        }
    }

    /// Service demand `D_m = V_m·S_m` per client request.
    pub fn demand(&self) -> f64 {
        self.visit_ratio() * self.service_time()
    }

    /// Completion rate (jobs/sec) with `n` jobs present; `None` for delay
    /// stations (whose "rate" is unbounded).
    fn rate_at(&self, n: u32) -> Option<f64> {
        if n == 0 {
            return Some(0.0);
        }
        match self {
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

    /// The station's maximum sustainable completion rate, `sup_n μ(n)`;
    /// `None` (unbounded) for delay stations.
    pub fn max_rate(&self) -> Option<f64> {
        match self {
            Station::Delay { .. } => None,
            Station::Queueing {
                service_time,
                servers,
                ..
            } => Some(f64::from((*servers).max(1)) / service_time),
            Station::LoadDependent {
                service_time, rate, ..
            } => rate
                .iter()
                .copied()
                .fold(None, |acc: Option<f64>, r| {
                    Some(acc.map_or(r, |a| a.max(r)))
                })
                .map(|r| r / service_time),
        }
    }

    fn is_delay(&self) -> bool {
        matches!(self, Station::Delay { .. })
    }

    /// Appends the exact bits the station's service factor depends on, in
    /// a self-delimiting encoding so that station sequences concatenate
    /// into unambiguous [`ConvCache`] keys.
    fn push_key_bits(&self, key: &mut Vec<u64>) {
        key.extend([self.visit_ratio().to_bits(), self.service_time().to_bits()]);
        match self {
            Station::Delay { .. } => key.push(0),
            Station::Queueing { servers, .. } => key.extend([1, u64::from(*servers)]),
            Station::LoadDependent { rate, .. } => {
                key.extend([2, rate.len() as u64]);
                key.extend(rate.iter().map(|r| r.to_bits()));
            }
        }
    }

    fn validate(&self) {
        let v = self.visit_ratio();
        let s = self.service_time();
        assert!(v.is_finite() && v >= 0.0, "visit ratio must be >= 0");
        assert!(s.is_finite() && s > 0.0, "service time must be positive");
        if let Station::LoadDependent { rate, .. } = self {
            assert!(!rate.is_empty(), "load-dependent rate table is empty");
            assert!(
                rate.iter().all(|r| r.is_finite() && *r > 0.0),
                "rate multipliers must be positive"
            );
        }
    }
}

/// A closed single-class network: a think-time terminal plus stations.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedNetwork {
    /// The service stations.
    pub stations: Vec<Station>,
    /// Mean think time `Z` at the terminal (seconds, `>= 0`).
    pub think_time: f64,
}

impl ClosedNetwork {
    /// Creates a network.
    ///
    /// # Panics
    ///
    /// Panics on an empty station list, a non-finite/negative think time,
    /// or any invalid station parameter.
    pub fn new(stations: Vec<Station>, think_time: f64) -> Self {
        assert!(!stations.is_empty(), "network needs at least one station");
        assert!(
            think_time.is_finite() && think_time >= 0.0,
            "think time must be >= 0"
        );
        for s in &stations {
            s.validate();
        }
        ClosedNetwork {
            stations,
            think_time,
        }
    }

    /// Total service demand `ΣD_m` per client request.
    pub fn total_demand(&self) -> f64 {
        self.stations.iter().map(Station::demand).sum()
    }

    /// Solves the network exactly for population `n` via the convolution
    /// algorithm. `n = 0` yields the degenerate all-zero solution.
    pub fn solve(&self, n: u32) -> MvaSolution {
        self.solve_with(n, &mut ConvCache::default())
    }

    /// [`ClosedNetwork::solve`], reusing the partial convolutions earlier
    /// solves left in `cache` and adding this solve's own. The result is
    /// bit-identical to an uncached solve.
    pub fn solve_with(&self, n: u32, cache: &mut ConvCache) -> MvaSolution {
        let m = self.stations.len();
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

        // Everything runs in log space: within one factor or G vector the
        // dynamic range can span thousands of orders of magnitude, far
        // beyond f64. Sums stay all-positive (log-sum-exp), so there is no
        // cancellation anywhere.
        //
        // Service factors log f_m(j) = Σ_{i=1..j} ln(V_m/μ_m(i)) for every
        // bounded station; delay stations and the terminal fold into one
        // infinite-server factor log f_0(j) = j·ln(Z + Σ_delay D) − ln j!.
        let bounded: Vec<usize> = (0..m).filter(|&i| !self.stations[i].is_delay()).collect();
        let z_total: f64 = self.think_time
            + self
                .stations
                .iter()
                .filter(|s| s.is_delay())
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
        let stations: Vec<&Station> = bounded.iter().map(|&i| &self.stations[i]).collect();
        let factors: Vec<Rc<[f64]>> = stations
            .iter()
            .map(|s| {
                let v = s.visit_ratio();
                let mut lf = vec![0.0f64; cap + 1];
                for j in 1..=cap {
                    let mu = s.rate_at(j as u32).expect("non-delay station has a rate");
                    lf[j] = if v > 0.0 {
                        lf[j - 1] + (v / mu).ln()
                    } else {
                        f64::NEG_INFINITY
                    };
                }
                lf.into()
            })
            .collect();

        // Prefix convolutions prefix[i] = ((IS ⊛ f_0) ⊛ …) ⊛ f_{i-1} for
        // i < k, so each station's complement network G^(m) is one
        // prefix ⊛ suffix convolution.
        let k = bounded.len();
        let mut prefix: Vec<Rc<[f64]>> = Vec::with_capacity(k.max(1));
        prefix.push(is_factor.into());
        for (i, f) in factors.iter().enumerate().take(k.saturating_sub(1)) {
            let key = conv_key(n, Some(z_total), &stations[..=i], &[]);
            let g = cache.get_or_insert_with(key, || log_convolve(&prefix[i], f));
            prefix.push(g);
        }
        let last = prefix.last().expect("prefix starts with the IS factor");

        // X(N) = G(N-1)/G(N), with G = prefix[k-1] ⊛ f_{k-1}.
        let (g_before, g_at) = match factors.last() {
            Some(f) => (
                log_convolve_at(last, f, cap - 1),
                log_convolve_at(last, f, cap),
            ),
            None => (last[cap - 1], last[cap]),
        };
        let throughput = (g_before - g_at).exp();

        // Stations last to first, carrying the suffix f_{bi+1} ⊛ (… ⊛
        // f_{k-1}) of the stations after bi; the innermost suffix is
        // f_{k-1} itself and the last station's complement is prefix[k-1].
        let mut station_queue = vec![0.0; m];
        let mut suffix: Option<Rc<[f64]>> = None;
        for (bi, &i) in bounded.iter().enumerate().rev() {
            // Complement of station i: IS ⊛ the other bounded stations.
            let compl = match &suffix {
                None => Rc::clone(&prefix[bi]),
                Some(after) => {
                    let (before, from) = stations.split_at(bi);
                    let key = conv_key(n, Some(z_total), before, &from[1..]);
                    cache.get_or_insert_with(key, || log_convolve(&prefix[bi], after))
                }
            };
            if bi > 0 {
                suffix = Some(match &suffix {
                    None => Rc::clone(&factors[bi]),
                    Some(after) => {
                        let key = conv_key(n, None, &[], &stations[bi..]);
                        cache.get_or_insert_with(key, || log_convolve(&factors[bi], after))
                    }
                });
            }
            // Exact marginal p(j|N) ∝ f_i(j)·G^(i)(N-j); normalizing over
            // j removes the shared scale at once.
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
        let station_residence: Vec<f64> = self
            .stations
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if s.is_delay() {
                    s.demand()
                } else {
                    station_queue[i] / throughput
                }
            })
            .collect();
        for (i, s) in self.stations.iter().enumerate() {
            if s.is_delay() {
                station_queue[i] = throughput * s.demand();
            }
        }
        let station_utilization: Vec<f64> = self
            .stations
            .iter()
            .map(|s| match s.max_rate() {
                // Fraction of the station's peak completion rate in use.
                Some(peak) => throughput * s.visit_ratio() / peak,
                // Delay station: mean busy servers (unbounded capacity).
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

    /// Classic asymptotic operational bounds for population `n`.
    pub fn asymptotic_bounds(&self, n: u32) -> AsymptoticBounds {
        let d_total = self.total_demand();
        let light = f64::from(n) / (self.think_time + d_total);
        let cap = self
            .stations
            .iter()
            .filter_map(|s| {
                let peak = s.max_rate()?;
                let v = s.visit_ratio();
                (v > 0.0).then(|| peak / v)
            })
            .fold(f64::INFINITY, f64::min);
        let x_upper = light.min(cap);
        AsymptoticBounds {
            population: n,
            throughput_upper: x_upper,
            response_lower: d_total.max(f64::from(n) / cap - self.think_time),
        }
    }
}

/// Convolves two population-indexed log-space factor vectors (same
/// length) via log-sum-exp: `out[n] = ln Σ_j exp(a[j] + b[n-j])`. The
/// summands are all positive in linear space, so the operation is free of
/// cancellation; staying in logs makes it immune to overflow/underflow at
/// any population.
fn log_convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    (0..a.len()).map(|n| log_convolve_at(a, b, n)).collect()
}

/// Slot `n` of [`log_convolve`]; reads only `a[..=n]` and `b[..=n]`.
fn log_convolve_at(a: &[f64], b: &[f64], n: usize) -> f64 {
    let mx = (0..=n)
        .map(|j| a[j] + b[n - j])
        .fold(f64::NEG_INFINITY, f64::max);
    if mx > f64::NEG_INFINITY {
        let sum: f64 = (0..=n).map(|j| (a[j] + b[n - j] - mx).exp()).sum();
        mx + sum.ln()
    } else {
        f64::NEG_INFINITY
    }
}

/// A memo of the partial convolutions [`ClosedNetwork::solve_with`]
/// builds, shared by a batch of solves whose networks have stations in
/// common (a planner scoring candidate deployments that differ in one
/// tier at a time).
///
/// Each entry is keyed by the exact bits its vector depends on: the
/// population, the think time plus delay demands `Z + Σ_delay D` when the
/// infinite-server factor is part of it, and each convolved bounded
/// station's kind, visit ratio, service time, and servers or rate table,
/// in convolution order. Equal keys mean bit-identical vectors, so a hit
/// changes no result. Entries live as long as the cache; drop it with the
/// batch.
#[derive(Debug, Default)]
pub struct ConvCache {
    entries: BTreeMap<Vec<u64>, Rc<[f64]>>,
}

impl ConvCache {
    /// Distinct partial convolutions held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The vector stored under `key`, computed by `make` on a miss.
    fn get_or_insert_with(&mut self, key: Vec<u64>, make: impl FnOnce() -> Vec<f64>) -> Rc<[f64]> {
        Rc::clone(self.entries.entry(key).or_insert_with(|| make().into()))
    }
}

/// The [`ConvCache`] key of `(((IS ⊛ l_0) ⊛ l_1) ⊛ …) ⊛ (r_0 ⊛ (r_1 ⊛ …))`
/// at population `n`, where `IS` is the infinite-server factor of
/// `z_total`. Without `z_total` the IS factor is absent and `left` must be
/// empty. The counts and the stations' self-delimiting encodings make the
/// key determine the operands and their convolution order.
fn conv_key(n: u32, z_total: Option<f64>, left: &[&Station], right: &[&Station]) -> Vec<u64> {
    let mut key = vec![
        u64::from(n),
        u64::from(z_total.is_some()),
        z_total.map_or(0, f64::to_bits),
        left.len() as u64,
    ];
    for s in left.iter().chain(right) {
        s.push_key_bits(&mut key);
    }
    key
}

/// The exact MVA solution at one population.
#[derive(Debug, Clone, PartialEq)]
pub struct MvaSolution {
    /// Client population `N`.
    pub population: u32,
    /// System throughput `X(N)` (requests/sec).
    pub throughput: f64,
    /// End-to-end response time `R(N) = Σ V_m·R_m` (seconds, excl. think).
    pub response_time: f64,
    /// Per-station residence per client request, `V_m·R_m` (seconds).
    pub station_residence: Vec<f64>,
    /// Per-station mean population `Q_m = X·V_m·R_m`.
    pub station_queue: Vec<f64>,
    /// Per-station utilization (fraction of peak rate; mean busy servers
    /// for delay stations).
    pub station_utilization: Vec<f64>,
}

/// Operational asymptotic bounds at one population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsymptoticBounds {
    /// Client population `N`.
    pub population: u32,
    /// `X(N) ≤ min(N/(Z+ΣD), min_m μ_m^max/V_m)`.
    pub throughput_upper: f64,
    /// `R(N) ≥ max(ΣD, N·V_b/μ_b^max − Z)`.
    pub response_lower: f64,
}

/// Builds the load-dependent rate table for a simulated server whose CPU
/// follows the paper's concurrency law: `n` jobs at the station occupy
/// `min(n, threads)` pool threads, each progressing at `S⁰/S*(min(n,threads))`
/// work-seconds per second, so the completion-rate multiplier is
/// `min(n,c) · S⁰ / S*(min(n,c))` (per mean demand `S⁰`-shaped work).
///
/// `s_star(m)` must return the adjusted service time `S*(m)` for `m ≥ 1`
/// concurrent threads (pass `ServiceLaw::adjusted_service_time`); `s0` is
/// the single-thread service time the per-visit demand is expressed in.
/// The table has `threads` entries: past the pool size the multiplier stays
/// at its last entry, which [`Station::LoadDependent`] applies to every
/// larger population.
///
/// # Panics
///
/// Panics if `threads == 0` or the law returns a non-positive adjusted
/// time.
pub fn law_rate_table(s0: f64, threads: u32, s_star: impl Fn(u32) -> f64) -> Vec<f64> {
    assert!(threads > 0, "threads must be positive");
    assert!(s0.is_finite() && s0 > 0.0, "s0 must be positive");
    (1..=threads)
        .map(|m| {
            let adj = s_star(m);
            assert!(adj.is_finite() && adj > 0.0, "S*({m}) must be positive");
            f64::from(m) * s0 / adj
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct birth–death steady state for a single station + terminal:
    /// states `j = 0..=n` jobs at the station, birth `λ(j) = (n-j)/Z`,
    /// death `μ(j)`. Returns (X, Q, R_station).
    fn birth_death(n: u32, z: f64, mu: impl Fn(u32) -> f64) -> (f64, f64, f64) {
        let n = n as usize;
        let mut pi = vec![1.0f64; n + 1];
        for j in 1..=n {
            let lam = (n - (j - 1)) as f64 / z;
            pi[j] = pi[j - 1] * lam / mu(j as u32);
        }
        let total: f64 = pi.iter().sum();
        for p in &mut pi {
            *p /= total;
        }
        let x: f64 = (1..=n).map(|j| pi[j] * mu(j as u32)).sum();
        let q: f64 = (1..=n).map(|j| pi[j] * j as f64).sum();
        (x, q, q / x)
    }

    #[test]
    fn population_one_sees_bare_demands() {
        let net = ClosedNetwork::new(
            vec![
                Station::Delay {
                    visit_ratio: 1.0,
                    service_time: 0.01,
                },
                Station::Queueing {
                    visit_ratio: 2.0,
                    service_time: 0.03,
                    servers: 4,
                },
            ],
            1.0,
        );
        let sol = net.solve(1);
        let d = 0.01 + 2.0 * 0.03;
        assert!((sol.response_time - d).abs() < 1e-12);
        assert!((sol.throughput - 1.0 / (1.0 + d)).abs() < 1e-12);
    }

    #[test]
    fn delay_only_network_is_linear_in_population() {
        let net = ClosedNetwork::new(
            vec![Station::Delay {
                visit_ratio: 3.0,
                service_time: 0.2,
            }],
            2.0,
        );
        for n in [1u32, 5, 40, 200] {
            let sol = net.solve(n);
            let expect = f64::from(n) / (2.0 + 0.6);
            assert!(
                (sol.throughput - expect).abs() / expect < 1e-12,
                "n={n}: {} vs {expect}",
                sol.throughput
            );
            assert!((sol.response_time - 0.6).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_birth_death_for_mm1_station() {
        let (s, z) = (0.05, 1.0);
        let net = ClosedNetwork::new(
            vec![Station::Queueing {
                visit_ratio: 1.0,
                service_time: s,
                servers: 1,
            }],
            z,
        );
        for n in [1u32, 4, 16, 50] {
            let sol = net.solve(n);
            let (x, q, r) = birth_death(n, z, |_| 1.0 / s);
            assert!(
                (sol.throughput - x).abs() / x < 1e-10,
                "n={n}: X {} vs {x}",
                sol.throughput
            );
            assert!((sol.station_queue[0] - q).abs() / q.max(1e-9) < 1e-9);
            assert!((sol.station_residence[0] - r).abs() / r < 1e-9);
        }
    }

    #[test]
    fn matches_birth_death_for_mmc_station() {
        let (s, z, c) = (0.08, 0.5, 4u32);
        let net = ClosedNetwork::new(
            vec![Station::Queueing {
                visit_ratio: 1.0,
                service_time: s,
                servers: c,
            }],
            z,
        );
        for n in [2u32, 8, 30] {
            let sol = net.solve(n);
            let (x, _, r) = birth_death(n, z, |j| f64::from(j.min(c)) / s);
            assert!(
                (sol.throughput - x).abs() / x < 1e-10,
                "n={n}: X {} vs {x}",
                sol.throughput
            );
            assert!((sol.station_residence[0] - r).abs() / r < 1e-9);
        }
    }

    #[test]
    fn matches_birth_death_for_law_rate_station() {
        // A concurrency-law station: S*(m) = s0 + α(m−1) + βm(m−1).
        let (s0, alpha, beta) = (0.03, 0.004, 2.0e-5);
        let s_star = |m: u32| {
            let m = f64::from(m.max(1));
            s0 + alpha * (m - 1.0) + beta * m * (m - 1.0)
        };
        let threads = 8;
        let rate = law_rate_table(s0, threads, s_star);
        let z = 0.4;
        let net = ClosedNetwork::new(
            vec![Station::LoadDependent {
                visit_ratio: 1.0,
                service_time: s0,
                rate: rate.clone(),
            }],
            z,
        );
        for n in [3u32, 10, 24] {
            let sol = net.solve(n);
            let (x, _, _) = birth_death(n, z, |j| {
                let m = j.min(threads);
                f64::from(m) / s_star(m)
            });
            assert!(
                (sol.throughput - x).abs() / x < 1e-10,
                "n={n}: X {} vs {x}",
                sol.throughput
            );
        }
    }

    #[test]
    fn multi_station_queues_sum_to_population_minus_terminal() {
        let net = ClosedNetwork::new(
            vec![
                Station::Delay {
                    visit_ratio: 1.0,
                    service_time: 0.02,
                },
                Station::Queueing {
                    visit_ratio: 1.0,
                    service_time: 0.05,
                    servers: 2,
                },
                Station::Queueing {
                    visit_ratio: 2.0,
                    service_time: 0.03,
                    servers: 1,
                },
            ],
            0.7,
        );
        for n in [1u32, 6, 20, 60] {
            let sol = net.solve(n);
            let at_stations: f64 = sol.station_queue.iter().sum();
            let thinking = sol.throughput * 0.7;
            assert!(
                (at_stations + thinking - f64::from(n)).abs() < 1e-6,
                "n={n}: {at_stations} + {thinking}"
            );
        }
    }

    #[test]
    fn throughput_monotone_and_bounded() {
        let net = ClosedNetwork::new(
            vec![
                Station::Delay {
                    visit_ratio: 1.0,
                    service_time: 0.01,
                },
                Station::Queueing {
                    visit_ratio: 1.0,
                    service_time: 0.04,
                    servers: 1,
                },
            ],
            1.0,
        );
        let mut last = 0.0;
        for n in 1..=120u32 {
            let sol = net.solve(n);
            let b = net.asymptotic_bounds(n);
            // Relative tolerance: log-space round trips leave ~1e-13
            // relative jitter on a saturated X (the price of being stable
            // at any station width — see tests/mva_stability.rs).
            assert!(
                sol.throughput >= last * (1.0 - 1e-10),
                "X must be monotone: {} after {last}",
                sol.throughput
            );
            assert!(
                sol.throughput <= b.throughput_upper + 1e-9,
                "n={n}: X {} exceeds bound {}",
                sol.throughput,
                b.throughput_upper
            );
            assert!(sol.response_time >= b.response_lower - 1e-9);
            last = sol.throughput;
        }
        // Saturated: the M/M/1 station caps X at 1/S = 25.
        assert!((net.solve(120).throughput - 25.0).abs() / 25.0 < 1e-3);
    }

    #[test]
    fn bounds_cap_is_min_over_stations() {
        let net = ClosedNetwork::new(
            vec![
                Station::Queueing {
                    visit_ratio: 1.0,
                    service_time: 0.02,
                    servers: 2, // cap 100/s
                },
                Station::Queueing {
                    visit_ratio: 2.0,
                    service_time: 0.03,
                    servers: 1, // cap 1/(2·0.03) ≈ 16.7/s
                },
            ],
            0.5,
        );
        let b = net.asymptotic_bounds(1000);
        assert!((b.throughput_upper - 1.0 / 0.06).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "service time must be positive")]
    fn rejects_zero_service_time() {
        let _ = ClosedNetwork::new(
            vec![Station::Delay {
                visit_ratio: 1.0,
                service_time: 0.0,
            }],
            1.0,
        );
    }

    #[test]
    fn capacity_rescaled_station_matches_faster_service() {
        // A capacity-2 M/M/1 is exactly an M/M/1 at half the service time.
        let fast = Station::queueing_with_capacity(1.0, 0.08, 1, 2.0);
        assert_eq!(
            fast,
            Station::Queueing {
                visit_ratio: 1.0,
                service_time: 0.04,
                servers: 1,
            }
        );
        let net = ClosedNetwork::new(vec![fast], 0.5);
        for n in [1u32, 6, 20] {
            let sol = net.solve(n);
            let (x, _, _) = birth_death(n, 0.5, |_| 1.0 / 0.04);
            assert!((sol.throughput - x).abs() / x < 1e-10, "n={n}");
        }
    }

    #[test]
    fn per_server_delay_stations_are_exact() {
        // A delay tier of k servers behind a random balancer is k delay
        // stations of visit V/k. Their demands fold into the one
        // infinite-server factor, so beside an M/M/c station the split
        // leaves X and the tier's summed residence where one station of
        // visit V puts them.
        let mmc = Station::Queueing {
            visit_ratio: 2.0,
            service_time: 0.04,
            servers: 3,
        };
        let network = |k: u32| {
            let mut stations: Vec<Station> = (0..k)
                .map(|_| Station::Delay {
                    visit_ratio: 1.0 / f64::from(k),
                    service_time: 0.008,
                })
                .collect();
            stations.push(mmc.clone());
            ClosedNetwork::new(stations, 0.8)
        };
        let whole = network(1);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
        for k in 1..=4u32 {
            let split = network(k);
            for n in 1..=50 {
                let (a, b) = (whole.solve(n), split.solve(n));
                let tier: f64 = b.station_residence[..k as usize].iter().sum();
                assert!(close(b.throughput, a.throughput), "k={k} n={n}");
                assert!(close(tier, a.station_residence[0]), "k={k} n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Station::queueing_with_capacity(1.0, 0.08, 1, 0.0);
    }

    #[test]
    fn law_rate_table_frictionless_is_mmc() {
        let rate = law_rate_table(0.05, 3, |_| 0.05);
        assert_eq!(rate.len(), 3);
        assert!((rate[0] - 1.0).abs() < 1e-12);
        assert!((rate[1] - 2.0).abs() < 1e-12);
        assert!((rate[2] - 3.0).abs() < 1e-12);
        let station = Station::LoadDependent {
            visit_ratio: 1.0,
            service_time: 0.05,
            rate,
        };
        let mmc = Station::Queueing {
            visit_ratio: 1.0,
            service_time: 0.05,
            servers: 3,
        };
        for n in 1..=10 {
            let (law, mmc) = (station.rate_at(n).unwrap(), mmc.rate_at(n).unwrap());
            assert!((law - mmc).abs() < 1e-9, "n={n}: caps at the pool size");
        }
    }
}
