//! Request tracing: follow individual requests through the tiers and see
//! exactly where time goes when a soft resource is undersized — the
//! fine-grained visibility the paper's monitoring layer is built for.
//!
//! ```text
//! cargo run -p dcm-bench --release --example request_tracing
//! ```

use dcm_ntier::flow;
use dcm_ntier::spans::{tier_breakdown, waterfall};
use dcm_ntier::topology::{SoftConfig, ThreeTierBuilder};
use dcm_sim::dist::Dist;
use dcm_sim::time::SimTime;
use dcm_workload::cohort::CohortPopulation;
use dcm_workload::profile::ProfileFactory;

const TIER_NAMES: [&str; 3] = ["web", "app", "db "];

fn trace_under(soft: SoftConfig, label: &str) {
    let (mut world, mut engine) = ThreeTierBuilder::new().soft(soft).seed(3).build();
    world.system.enable_tracing();

    // Background load plus one traced probe request at t = 5 s.
    CohortPopulation::start_with_think_dist(
        &mut world,
        &mut engine,
        ProfileFactory::rubbos(),
        250,
        1,
        Some(Dist::exponential_mean(3.0)),
        SimTime::from_secs(10),
    );
    let probe = std::rc::Rc::new(std::cell::Cell::new(None));
    {
        let probe = std::rc::Rc::clone(&probe);
        engine.schedule_at(SimTime::from_secs(5), move |w, e| {
            let factory = ProfileFactory::rubbos_deterministic();
            let profile = factory.sample(&mut w.rng);
            let rid = flow::submit(w, e, profile, None, |_, _, _, _| {}, 0);
            probe.set(Some(rid));
        });
    }
    engine.run(&mut world);

    let spans = world.system.take_spans();
    println!("── {label} ──");
    let rid = probe.get().expect("probe submitted");
    let t0 = waterfall(&spans, rid)
        .first()
        .map(|s| s.arrived_at)
        .expect("probe traced");
    println!("probe request {rid} waterfall (ms relative to arrival):");
    for s in waterfall(&spans, rid) {
        let rel = |t: SimTime| t.saturating_since(t0).as_millis_f64();
        println!(
            "  {}  [{:>8.1} … {:>8.1}]  queued {:>7.1} ms, served {:>7.1} ms",
            TIER_NAMES[s.tier.min(2)],
            rel(s.started_at),
            rel(s.finished_at),
            s.queue_time().as_millis_f64(),
            s.service_time().as_millis_f64(),
        );
    }
    println!("per-tier means over all {} spans:", spans.len());
    for (tier, timing) in tier_breakdown(&spans) {
        println!(
            "  {}  visits {:>6}  queue {:>7.1} ms  service {:>7.1} ms",
            TIER_NAMES[tier.min(2)],
            timing.visits,
            timing.mean_queue * 1e3,
            timing.mean_service * 1e3,
        );
    }
    println!();
}

fn main() {
    println!("250 users; where does a request's time go?\n");
    trace_under(
        SoftConfig::new(1000, 22, 40),
        "well-sized pools (1000/22/40)",
    );
    trace_under(
        SoftConfig::new(1000, 200, 40),
        "oversized app pool (1000/200/40): app-tier contention",
    );
    trace_under(
        SoftConfig::new(1000, 22, 2),
        "starved conn pool (1000/22/2): waits surface in the app span",
    );
}
