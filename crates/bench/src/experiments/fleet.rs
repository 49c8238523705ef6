//! Fleet-scale DES: thousand-server tiers driven by cohort-aggregated
//! closed-loop users.
//!
//! The paper's experiments top out at a handful of servers per tier; this
//! experiment exercises the simulator itself at cloud-fleet scale — up to
//! 1,000 servers *per tier* (3,000 total) and 1,000,000 closed-loop users —
//! to demonstrate that the event queue, the request slab, and the cohort
//! user aggregation keep the event rate and the memory footprint flat as
//! the modelled system grows.
//!
//! Every size is an independent job fanned out through
//! [`dcm_sim::runner::run_ordered`], so `results/fleet.json` and
//! `results/fleet.csv` are byte-identical for every `--jobs` value. The
//! artifacts carry **only** virtual-time quantities (event counts,
//! completions, simulated throughput, response times, slab counters);
//! wall-clock rates and peak RSS go to `results/perf.json`, which is
//! machine-dependent by nature.
//!
//! Load shape: each size `K` runs `K` servers in each of the three tiers
//! behind round-robin balancers (the O(1) balancer fast path) with
//! `1,000 · K` users at an exponential 30 s think time — about 60 %
//! utilisation of the app tier, a stable operating point where throughput
//! scales linearly with the fleet (`X ≈ N/(Z+R)`). Users start staggered
//! (first submission after one think time) so `t = 0` is not a synchronized
//! thundering herd, and they are multiplexed onto cohorts of 256: the
//! pending-event footprint of the generator is `K·1000/256` timers instead
//! of `K·1000`.

use dcm_ntier::balancer::BalancerPolicy;
use dcm_ntier::topology::{SoftConfig, ThreeTierBuilder};
use dcm_sim::dist::Dist;
use dcm_sim::rng::derive_seed;
use dcm_sim::time::{SimDuration, SimTime};
use dcm_workload::cohort::CohortPopulation;
use dcm_workload::profile::ProfileFactory;

use crate::format::{num, TextTable};

use super::Fidelity;

/// Base seed for the fleet sweep (per-size seeds derive from it).
const SEED: u64 = 20260807;

/// Users multiplexed onto one shared cohort timer.
const COHORT_SIZE: u32 = 256;

/// Mean exponential think time (seconds) — the closed-loop pacing.
const THINK_MEAN_SECS: f64 = 30.0;

/// Servers per tier at each fidelity.
fn sizes(fidelity: Fidelity) -> Vec<u32> {
    match fidelity {
        Fidelity::Quick => vec![2, 4],
        Fidelity::Full => vec![125, 250, 500, 1000],
    }
}

/// Closed-loop users per server (per tier triple).
fn users_per_server(fidelity: Fidelity) -> u32 {
    match fidelity {
        Fidelity::Quick => 100,
        Fidelity::Full => 1000,
    }
}

/// Simulated horizon.
fn horizon(fidelity: Fidelity) -> SimDuration {
    match fidelity {
        Fidelity::Quick => SimDuration::from_secs(20),
        Fidelity::Full => SimDuration::from_secs(300),
    }
}

/// One fleet size's measurement. Every field is a virtual-time quantity:
/// bit-identical across `--jobs` values and host machines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPoint {
    /// Servers in each of the three tiers.
    pub servers_per_tier: u32,
    /// Closed-loop users driving the system.
    pub users: u32,
    /// Engine events executed over the horizon.
    pub events: u64,
    /// Requests completed (any outcome).
    pub completions: u64,
    /// Requests completed successfully.
    pub succeeded: u64,
    /// Simulated horizon (seconds).
    pub sim_secs: f64,
    /// Completions per simulated second.
    pub throughput: f64,
    /// Mean response time over all completions (seconds).
    pub mean_rt: f64,
    /// Largest single response time (seconds).
    pub max_rt: f64,
    /// Request-slab slots created fresh.
    pub slab_allocated: u64,
    /// Request-slab slots recycled from retired requests.
    pub slab_reused: u64,
    /// Live pending events at the horizon (generator timers + in-flight
    /// work) — the memory-footprint witness for cohort aggregation.
    pub pending_at_end: usize,
}

impl FleetPoint {
    /// Slab hit rate: fraction of request slots served by recycling.
    pub fn slab_hit_rate(&self) -> f64 {
        let total = self.slab_allocated + self.slab_reused;
        if total == 0 {
            0.0
        } else {
            self.slab_reused as f64 / total as f64
        }
    }
}

/// The fleet-scale sweep results.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// One point per fleet size, smallest first.
    pub points: Vec<FleetPoint>,
    /// Cohort size used for every point.
    pub cohort_size: u32,
}

fn measure(size: u32, fidelity: Fidelity) -> FleetPoint {
    let users = size * users_per_server(fidelity);
    let horizon = horizon(fidelity);
    let end = SimTime::ZERO + horizon;
    let (mut world, mut engine) = ThreeTierBuilder::new()
        .counts(size, size, size)
        .soft(SoftConfig::new(2000, 22, 18))
        .balancer(BalancerPolicy::RoundRobin)
        .seed(derive_seed(SEED, u64::from(size)))
        .build();
    let population = CohortPopulation::start_staggered(
        &mut world,
        &mut engine,
        ProfileFactory::rubbos(),
        users,
        COHORT_SIZE,
        Dist::exponential_mean(THINK_MEAN_SECS),
        end,
    );
    population.disable_log();
    engine.run_until(&mut world, end);
    let stats = population.stats();
    let (slab_allocated, slab_reused) = world.system.request_slab_stats();
    let sim_secs = horizon.as_secs_f64();
    FleetPoint {
        servers_per_tier: size,
        users,
        events: engine.executed(),
        completions: stats.completed,
        succeeded: stats.succeeded,
        sim_secs,
        throughput: stats.completed as f64 / sim_secs,
        mean_rt: stats.response_mean(),
        max_rt: stats.response_max,
        slab_allocated,
        slab_reused,
        pending_at_end: engine.pending(),
    }
}

/// Runs the sweep: each fleet size is one independent deterministic job.
pub fn run_fleet(fidelity: Fidelity) -> Fleet {
    let points = dcm_sim::runner::run_ordered(sizes(fidelity), |size| measure(size, fidelity));
    Fleet {
        points,
        cohort_size: COHORT_SIZE,
    }
}

impl Fleet {
    /// Engine events across all sizes.
    pub fn total_events(&self) -> u64 {
        self.points.iter().map(|p| p.events).sum()
    }

    /// Request-slab counters summed across all sizes.
    pub fn total_slab(&self) -> (u64, u64) {
        self.points.iter().fold((0, 0), |(a, r), p| {
            (a + p.slab_allocated, r + p.slab_reused)
        })
    }

    /// The per-size scaling table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new([
            "servers/tier",
            "users",
            "events",
            "completions",
            "x(req/s)",
            "x/server",
            "mean_rt(s)",
            "max_rt(s)",
            "slab hit%",
            "pending@end",
        ]);
        for p in &self.points {
            t.row([
                p.servers_per_tier.to_string(),
                p.users.to_string(),
                p.events.to_string(),
                p.completions.to_string(),
                num(p.throughput, 1),
                num(p.throughput / f64::from(p.servers_per_tier), 3),
                num(p.mean_rt, 4),
                num(p.max_rt, 3),
                num(100.0 * p.slab_hit_rate(), 1),
                p.pending_at_end.to_string(),
            ]);
        }
        t
    }

    /// Stable JSON for `results/fleet.json`. Virtual-time quantities only
    /// — the file must be byte-identical across `--jobs` values, so no
    /// wall-clock rates and no RSS figures (those live in
    /// `results/perf.json`).
    pub fn to_json(&self) -> String {
        let mut json = String::from("{\n");
        json.push_str(&format!("  \"cohort_size\": {},\n", self.cohort_size));
        json.push_str(&format!("  \"think_mean_secs\": {THINK_MEAN_SECS:.1},\n"));
        json.push_str(&format!("  \"total_events\": {},\n", self.total_events()));
        json.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"servers_per_tier\": {}, \"users\": {}, \"events\": {}, \
                 \"completions\": {}, \"succeeded\": {}, \"sim_secs\": {:.1}, \
                 \"throughput\": {:.6}, \"throughput_per_server\": {:.6}, \
                 \"mean_rt\": {:.6}, \"max_rt\": {:.6}, \
                 \"slab_allocated\": {}, \"slab_reused\": {}, \
                 \"slab_hit_rate\": {:.6}, \"pending_at_end\": {}}}{}\n",
                p.servers_per_tier,
                p.users,
                p.events,
                p.completions,
                p.succeeded,
                p.sim_secs,
                p.throughput,
                p.throughput / f64::from(p.servers_per_tier),
                p.mean_rt,
                p.max_rt,
                p.slab_allocated,
                p.slab_reused,
                p.slab_hit_rate(),
                p.pending_at_end,
                if i + 1 < self.points.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        json
    }

    /// Self-checks against the scaling claims.
    pub fn findings(&self) -> Vec<String> {
        let mut out = Vec::new();
        let (first, last) = match (self.points.first(), self.points.last()) {
            (Some(f), Some(l)) => (f, l),
            _ => return out,
        };
        out.push(format!(
            "fleet sweep: {} sizes up to {} servers/tier ({} users), \
             {} engine events total",
            self.points.len(),
            last.servers_per_tier,
            last.users,
            self.total_events()
        ));
        let x_first = first.throughput / f64::from(first.servers_per_tier);
        let x_last = last.throughput / f64::from(last.servers_per_tier);
        if x_first > 0.0 {
            out.push(format!(
                "throughput scales linearly with the fleet: {:.3} req/s per \
                 server at K={} vs {:.3} at K={} ({:.1} % of linear)",
                x_first,
                first.servers_per_tier,
                x_last,
                last.servers_per_tier,
                100.0 * x_last / x_first
            ));
        }
        let cohorts = last.users.div_ceil(self.cohort_size);
        out.push(format!(
            "cohort aggregation keeps the generator footprint at {} shared \
             timers for {} users (pending events at horizon: {}, vs ~{} \
             with per-user timers)",
            cohorts, last.users, last.pending_at_end, last.users
        ));
        let (allocated, reused) = self.total_slab();
        if allocated + reused > 0 {
            out.push(format!(
                "request slab: {:.1} % of {} request slots recycled a \
                 retired slot ({} fresh allocations across the whole sweep)",
                100.0 * reused as f64 / (allocated + reused) as f64,
                allocated + reused,
                allocated
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fleet_scales_and_serializes() {
        let fleet = run_fleet(Fidelity::Quick);
        assert_eq!(fleet.points.len(), 2);
        let first = &fleet.points[0];
        let last = &fleet.points[1];
        assert!(
            first.completions > 0,
            "no completions\n{}",
            fleet.table().render()
        );
        // Throughput per server must stay within 20% across a 2x fleet
        // growth at this (unsaturated) operating point.
        let x0 = first.throughput / f64::from(first.servers_per_tier);
        let x1 = last.throughput / f64::from(last.servers_per_tier);
        assert!(
            (x1 / x0 - 1.0).abs() < 0.2,
            "per-server throughput not flat: {x0} vs {x1}\n{}",
            fleet.table().render()
        );
        // The generator footprint is bounded by cohorts + in-flight work,
        // far below one pending event per user.
        assert!(
            last.pending_at_end < last.users as usize / 2,
            "pending {} vs users {}",
            last.pending_at_end,
            last.users
        );
        let json = fleet.to_json();
        assert!(json.contains("\"servers_per_tier\": 4"));
        assert!(json.ends_with("}\n"));
        assert_eq!(fleet.findings().len(), 4);
        assert_eq!(fleet.table().len(), 2);
    }

    /// Guard for the CI `--jobs` byte-identity cmp: `results/fleet.json`
    /// and `results/fleet.csv` must carry virtual-time quantities only. A
    /// field addition that smuggles in wall-clock rates, RSS, or any other
    /// host-dependent figure would silently invalidate the cmp (the files
    /// would still be written, just no longer reproducible), so every key
    /// and column is checked against an explicit allowlist here.
    #[test]
    fn fleet_artifacts_carry_no_host_dependent_fields() {
        let fleet = Fleet {
            cohort_size: 16,
            points: vec![FleetPoint {
                servers_per_tier: 4,
                users: 1_000,
                events: 50_000,
                completions: 9_000,
                succeeded: 9_000,
                sim_secs: 20.0,
                throughput: 450.0,
                mean_rt: 0.125,
                max_rt: 1.75,
                slab_allocated: 100,
                slab_reused: 8_900,
                pending_at_end: 70,
            }],
        };

        let allowed_keys = [
            "cohort_size",
            "think_mean_secs",
            "total_events",
            "points",
            "servers_per_tier",
            "users",
            "events",
            "completions",
            "succeeded",
            "sim_secs",
            "throughput",
            "throughput_per_server",
            "mean_rt",
            "max_rt",
            "slab_allocated",
            "slab_reused",
            "slab_hit_rate",
            "pending_at_end",
        ];
        let json = fleet.to_json();
        let mut rest = json.as_str();
        while let Some(open) = rest.find('"') {
            let tail = &rest[open + 1..];
            let close = tail.find('"').expect("unterminated string in JSON");
            let key = &tail[..close];
            assert!(
                allowed_keys.contains(&key),
                "fleet.json grew an unvetted key {key:?} — if it is a \
                 virtual-time quantity add it to the allowlist; if it is \
                 wall-clock/RSS/host data it belongs in results/perf.json"
            );
            rest = &tail[close + 1..];
        }

        // The CSV is the rendered table; its columns come from table().
        let banned = ["wall", "rss", "peak", "host", "cpu", "mem", "rate_hz"];
        for artifact in [json.to_lowercase(), fleet.table().to_csv().to_lowercase()] {
            for term in banned {
                assert!(
                    !artifact.contains(term),
                    "host-dependent term {term:?} leaked into a fleet artifact"
                );
            }
        }
    }

    #[test]
    fn fleet_is_deterministic_across_runs() {
        let a = run_fleet(Fidelity::Quick);
        let b = run_fleet(Fidelity::Quick);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.points, b.points);
    }
}
