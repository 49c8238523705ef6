//! Metamorphic properties of the DES: known transformations of a
//! configuration must transform the steady state in a known way, with no
//! oracle in the loop (the simulator is checked against itself).

use dcm_ntier::graph::TopologyGraph;
use dcm_ntier::law::{reference, ServiceLaw};
use dcm_ntier::server::VmType;
use dcm_ntier::system::VmPolicy;
use dcm_ntier::topology::{MeshBuilder, MeshNode};
use dcm_oracle::{run_scenario, Scenario};
use dcm_sim::dist::Dist;
use dcm_sim::time::SimTime;
use dcm_workload::cohort::CohortPopulation;
use dcm_workload::profile::{NodeDemand, ProfileFactory};

/// Doubling every tier's server count AND the client population in a
/// zero-overhead configuration leaves per-server utilization and mean
/// per-request residence invariant, and doubles throughput — the scaled
/// system behaves like two copies of the original. (The equivalence is
/// exact only away from the saturation knee: random routing couples the
/// copies, a finite-population effect, so the test runs at moderate
/// utilization where the residual is well under the tolerance.)
#[test]
fn doubling_servers_and_load_preserves_per_server_state() {
    let scenario = |name, servers| Scenario {
        warmup: 50.0,
        measure: 1500.0,
        ..Scenario::chain(
            name,
            (servers, servers, servers),
            (0.002, 0.008),
            ServiceLaw::frictionless(0.08),
            2,
            1,
            0.8,
        )
    };
    let one = run_scenario(&scenario("meta-base", 1), 10, 9001, 1).expect("base window");
    let two = run_scenario(&scenario("meta-doubled", 2), 20, 9002, 1).expect("doubled window");
    assert_eq!(one.audit_violations, 0);
    assert_eq!(two.audit_violations, 0);

    // Throughput doubles (per-server utilization X·S/d invariant follows
    // directly: 2X over 2d servers with the same demands).
    let x_ratio = two.throughput.des / one.throughput.des;
    assert!(
        (x_ratio - 2.0).abs() < 0.04,
        "throughput must double: {x_ratio:.4} ({} vs {})",
        one.throughput.des,
        two.throughput.des
    );
    // Mean per-request residence at each tier is invariant.
    for ((tier, a), (_, b)) in one.residence.iter().zip(&two.residence) {
        let rel = (a.des - b.des).abs() / a.des;
        assert!(
            rel < 0.05,
            "{tier} residence must be invariant: {:.6} vs {:.6} ({:.2}%)",
            a.des,
            b.des,
            100.0 * rel
        );
    }
}

/// A heterogeneous VM policy whose catalog holds only the small flavor is
/// the degenerate fleet: it must be bit-identical to the homogeneous
/// default — same completions, same per-tier VM-seconds and dollars.
#[test]
fn single_flavor_vm_policy_is_bit_identical_to_homogeneous_default() {
    let horizon = SimTime::from_secs(120);
    let run = |explicit: bool| {
        let graph = TopologyGraph::from_edges(3, &[(0, 1, 1), (1, 2, 2)]);
        let node = |name: &str, law, threads: u32| {
            let n = MeshNode::new(name, law, threads);
            if explicit {
                n.vm_policy(VmPolicy::fixed(VmType::SMALL))
            } else {
                n
            }
        };
        let (mut world, mut engine) = MeshBuilder::new()
            .node(node("web", reference::apache(), 1000))
            .node(node("app", reference::tomcat(), 100).conns(40).count(2))
            .node(node("db", reference::mysql(), 800))
            .seed(6060)
            .build();
        let factory = ProfileFactory::new(
            graph,
            vec![
                NodeDemand::split(Dist::constant(0.002)),
                NodeDemand::split(Dist::constant(0.008)),
                NodeDemand::leaf(Dist::exponential_mean(0.02)).iid_visits(),
            ],
        );
        let think = Some(Dist::exponential_mean(1.0));
        let pop = CohortPopulation::start_with_think_dist(
            &mut world,
            &mut engine,
            factory,
            30,
            1,
            think,
            horizon,
        );
        engine.run(&mut world);
        let counters = world.system.counters();
        let finishes =
            pop.with_completions(|log| log.iter().map(|c| c.finished).collect::<Vec<_>>());
        let now = engine.now();
        let accounting: Vec<(u64, u64)> = (0..world.system.tier_count())
            .map(|m| {
                (
                    world.system.vm_seconds(m, now).to_bits(),
                    world.system.vm_cost(m, now).to_bits(),
                )
            })
            .collect();
        (counters, finishes, accounting)
    };
    let (counters_default, finishes_default, accounting_default) = run(false);
    let (counters_explicit, finishes_explicit, accounting_explicit) = run(true);
    assert_eq!(counters_default, counters_explicit);
    assert!(counters_default.completed > 500, "sanity: the run did work");
    assert_eq!(finishes_default, finishes_explicit);
    assert_eq!(
        accounting_default, accounting_explicit,
        "single-small catalog must price exactly like the default fleet"
    );
}
