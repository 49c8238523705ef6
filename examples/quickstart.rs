//! Quickstart: build the paper's three-tier RUBBoS deployment, drive it
//! with think-time clients, then fix its soft-resource allocation at
//! runtime and watch throughput improve.
//!
//! ```text
//! cargo run -p dcm-bench --release --example quickstart
//! ```

use dcm_ntier::flow;
use dcm_ntier::topology::{SoftConfig, ThreeTierBuilder};
use dcm_sim::dist::Dist;
use dcm_sim::time::SimTime;
use dcm_workload::cohort::CohortPopulation;
use dcm_workload::profile::ProfileFactory;
use dcm_workload::report::LoadReport;

fn main() {
    // The paper's 1/1/1 hardware with the *default* soft allocation
    // 1000-100-80: 1000 Apache threads, 100 Tomcat threads, 80 DB
    // connections.
    let (mut world, mut engine) = ThreeTierBuilder::new()
        .counts(1, 1, 1)
        .soft(SoftConfig::DEFAULT)
        .seed(7)
        .build();

    // 300 virtual users browsing with ~3 s think time (the RUBBoS client).
    let horizon = SimTime::from_secs(240);
    let population = CohortPopulation::start_with_think_dist(
        &mut world,
        &mut engine,
        ProfileFactory::rubbos(),
        300,
        1,
        Some(Dist::exponential_mean(3.0)),
        horizon,
    );

    // Phase 1: one minute under the default allocation.
    engine.run_until(&mut world, SimTime::from_secs(120));
    let phase1 = population.with_completions(|log| {
        LoadReport::from_completions(log, SimTime::from_secs(30), SimTime::from_secs(120))
    });

    // Runtime re-allocation, no restart: shrink the Tomcat pool to the
    // model's optimal concurrency (the APP-agent's actuation).
    println!("resizing Tomcat thread pools 100 -> 20 at t=120s (no restart) ...");
    flow::set_tier_thread_pools(&mut world, &mut engine, 1, 20).expect("app tier exists");

    // Phase 2: another minute at the optimal allocation.
    engine.run_until(&mut world, horizon);
    let phase2 = population.with_completions(|log| {
        LoadReport::from_completions(log, SimTime::from_secs(150), SimTime::from_secs(240))
    });

    println!(
        "default  1000/100/80: {:6.1} req/s, mean RT {:5.1} ms",
        phase1.throughput(),
        phase1.mean_response_time() * 1e3
    );
    println!(
        "optimal  1000/20/80 : {:6.1} req/s, mean RT {:5.1} ms",
        phase2.throughput(),
        phase2.mean_response_time() * 1e3
    );
    println!(
        "improvement: {:+.0} % throughput (paper Fig. 4(a): ≈ +30 %)",
        100.0 * (phase2.throughput() - phase1.throughput()) / phase1.throughput()
    );

    let counters = world.system.counters();
    assert_eq!(counters.in_flight(), 0, "all requests drained");
}
