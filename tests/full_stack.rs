//! Cross-crate integration tests: the full monitoring → broker →
//! controller → actuator pipeline over the simulated n-tier system, plus
//! system-level conservation and determinism properties.

use dcm_core::controller::{Controller, Dcm, DcmConfig, DcmModels, Ec2AutoScale};
use dcm_core::experiment::{
    run_trace_experiment, steady_state_throughput, think_time_run, TraceExperimentConfig,
};
use dcm_core::policy::ScalingConfig;
use dcm_ntier::topology::SoftConfig;
use dcm_sim::time::{SimDuration, SimTime};
use dcm_workload::steady::SteadyRun;
use dcm_workload::traces;

fn quick_config(trace: traces::WorkloadTrace, horizon: u64, seed: u64) -> TraceExperimentConfig {
    let mut config = TraceExperimentConfig::figure5(trace);
    config.horizon = SimTime::from_secs(horizon);
    config.seed = seed;
    config
}

#[test]
fn trace_runs_conserve_requests_and_resources() {
    for seed in [1, 77] {
        let config = quick_config(traces::large_variation(), 150, seed);
        let run = run_trace_experiment(&config, |bus| {
            Dcm::new(bus, DcmConfig::default(), DcmModels::reference())
        });
        let c = run.counters;
        assert_eq!(
            c.submitted,
            c.completed + c.rejected,
            "conservation failed at seed {seed}"
        );
        assert_eq!(c.rejected, 0, "no rejections expected in this scenario");
        assert_eq!(run.completions.len() as u64, c.completed);
    }
}

#[test]
fn identical_seeds_give_identical_runs() {
    let run = |seed| {
        let config = quick_config(traces::large_variation(), 120, seed);
        run_trace_experiment(&config, |bus| {
            Ec2AutoScale::new(bus, ScalingConfig::default())
        })
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.completions.len(), b.completions.len());
    assert_eq!(a.actions.len(), b.actions.len());
    // Response times identical request-by-request.
    for (x, y) in a.completions.iter().zip(b.completions.iter()) {
        assert_eq!(x.finished, y.finished);
    }
    let c = run(43);
    assert_ne!(
        a.completions.len(),
        0,
        "sanity: the run actually did something"
    );
    assert!(
        a.completions.len() != c.completions.len()
            || a.completions
                .iter()
                .zip(c.completions.iter())
                .any(|(x, y)| x.finished != y.finished),
        "different seeds should differ"
    );
}

#[test]
fn dcm_actuates_soft_resources_and_ec2_does_not() {
    let config = quick_config(traces::step(50, 400, 30.0), 150, 5);
    let dcm_run = run_trace_experiment(&config, |bus| {
        Dcm::new(bus, DcmConfig::default(), DcmModels::reference())
    });
    let ec2_run = run_trace_experiment(&config, |bus| {
        Ec2AutoScale::new(bus, ScalingConfig::default())
    });
    use dcm_core::agents::Action;
    let soft = |actions: &[dcm_core::agents::ActionRecord]| {
        actions
            .iter()
            .filter(|a| {
                matches!(
                    a.action,
                    Action::SetThreadPools { .. } | Action::SetConnPools { .. }
                )
            })
            .count()
    };
    assert!(soft(&dcm_run.actions) >= 2, "DCM adjusts pools");
    assert_eq!(
        soft(&ec2_run.actions),
        0,
        "the baseline never touches pools"
    );
    assert!(
        ec2_run
            .actions
            .iter()
            .any(|a| matches!(a.action, Action::ScaleOut { .. })),
        "the baseline still scales VMs"
    );
}

#[test]
fn dcm_beats_hardware_only_scaling_under_burst() {
    let config = quick_config(traces::flash_crowd(100, 550, 40.0, 70.0), 200, 9);
    let dcm_run = run_trace_experiment(&config, |bus| {
        Dcm::new(bus, DcmConfig::default(), DcmModels::reference())
    });
    let ec2_run = run_trace_experiment(&config, |bus| {
        Ec2AutoScale::new(bus, ScalingConfig::default())
    });
    let mut dcm_report = dcm_run.overall();
    let mut ec2_report = ec2_run.overall();
    assert!(
        dcm_report.throughput() >= ec2_report.throughput(),
        "DCM {:.1} req/s vs EC2 {:.1} req/s",
        dcm_report.throughput(),
        ec2_report.throughput()
    );
    let dcm_p95 = dcm_report.response_time_quantile(0.95).unwrap_or(0.0);
    let ec2_p95 = ec2_report.response_time_quantile(0.95).unwrap_or(0.0);
    assert!(
        dcm_p95 <= ec2_p95,
        "DCM p95 {dcm_p95:.2}s vs EC2 p95 {ec2_p95:.2}s"
    );
}

#[test]
fn scale_out_crossover_reproduces_fig2b() {
    // The motivating phenomenon end-to-end: 1/2/1 with the default soft
    // allocation does WORSE than 1/1/1 at high load.
    let measure = |counts, soft| {
        let (warmup, window) = (SimDuration::from_secs(10), SimDuration::from_secs(30));
        steady_state_throughput(&SteadyRun {
            audit: true,
            ..think_time_run(counts, soft, 400, 3, warmup, window)
        })
    };
    let soft = SoftConfig::DEFAULT;
    let baseline = measure((1, 1, 1), soft);
    let scaled = measure((1, 2, 1), soft);
    assert!(
        scaled.throughput < baseline.throughput,
        "scaled-out {:.1} should underperform baseline {:.1} at 400 users",
        scaled.throughput,
        baseline.throughput
    );
    // And fixing the soft allocation (paper's remedy: split the optimal 36
    // connections across the two app servers) recovers the scaling win.
    let fixed = measure((1, 2, 1), SoftConfig::new(1000, 100, 18));
    assert!(
        fixed.throughput > baseline.throughput * 1.2,
        "reallocated 1/2/1 {:.1} should clearly beat 1/1/1 {:.1}",
        fixed.throughput,
        baseline.throughput
    );
}

#[test]
fn online_refit_controller_still_functions() {
    let config = quick_config(traces::large_variation(), 150, 21);
    let run = run_trace_experiment(&config, |bus| {
        Dcm::new(bus, DcmConfig::default(), DcmModels::reference()).with_online_refit(12, 4)
    });
    assert!(run.counters.completed > 1000);
    assert_eq!(run.counters.in_flight(), 0);
}

#[test]
fn vm_second_accounting_matches_action_log() {
    let config = quick_config(traces::step(50, 450, 30.0), 150, 13);
    let run = run_trace_experiment(&config, |bus| {
        Ec2AutoScale::new(bus, ScalingConfig::default())
    });
    // Web tier never scales: exactly horizon VM-seconds.
    assert!((run.vm_seconds[0] - 150.0).abs() < 1e-6);
    // Scalable tiers: at least the base server for the whole horizon, plus
    // something for every scale-out that happened.
    use dcm_core::agents::Action;
    for tier in [1usize, 2] {
        let outs = run
            .actions
            .iter()
            .filter(|a| matches!(a.action, Action::ScaleOut { tier: t } if t == tier))
            .count();
        assert!(
            run.vm_seconds[tier] >= 150.0 - 1e-6,
            "tier {tier} below baseline"
        );
        if outs > 0 {
            assert!(
                run.vm_seconds[tier] > 150.0 + 10.0,
                "tier {tier} scaled out but accrued no extra VM-seconds"
            );
        }
    }
}

#[test]
fn controller_trait_objects_compose() {
    // The Controller trait is usable as a trait object (for heterogeneous
    // controller registries).
    let bus = dcm_core::monitor::new_metrics_bus();
    let mut controllers: Vec<Box<dyn Controller>> = vec![
        Box::new(Ec2AutoScale::new(
            std::rc::Rc::clone(&bus),
            ScalingConfig::default(),
        )),
        Box::new(Dcm::new(bus, DcmConfig::default(), DcmModels::reference())),
    ];
    let (mut world, mut engine) = dcm_ntier::topology::ThreeTierBuilder::new().build();
    for c in controllers.iter_mut() {
        c.on_tick(&mut world, &mut engine);
        let _ = c.name();
    }
}

#[test]
fn monitor_outage_leaves_controller_holding() {
    // A controller consuming an empty/stale bus must hold rather than act:
    // run a system where the monitor stops at t=30s but the controller
    // keeps ticking to t=120s under rising load.
    use dcm_core::monitor::{install_monitor, new_metrics_bus, schedule_every, MonitorConfig};
    use dcm_ntier::topology::ThreeTierBuilder;
    use dcm_workload::cohort::CohortPopulation;
    use dcm_workload::profile::ProfileFactory;

    let (mut world, mut engine) = ThreeTierBuilder::new().seed(31).build();
    let bus = new_metrics_bus();
    install_monitor(
        &mut engine,
        std::rc::Rc::clone(&bus),
        MonitorConfig::every_second_until(SimTime::from_secs(30)),
    );
    let controller = std::rc::Rc::new(std::cell::RefCell::new(Ec2AutoScale::new(
        std::rc::Rc::clone(&bus),
        ScalingConfig::default(),
    )));
    let ticking = std::rc::Rc::clone(&controller);
    let (period, stop) = (SimDuration::from_secs(15), SimTime::from_secs(120));
    schedule_every(&mut engine, period, stop, move |w, e| {
        ticking.borrow_mut().on_tick(w, e)
    });
    // Load that would normally trigger scale-out arrives AFTER the outage.
    CohortPopulation::start_trace_driven(
        &mut world,
        &mut engine,
        ProfileFactory::rubbos(),
        &traces::step(50, 500, 40.0),
        3.0,
        SimTime::from_secs(120),
    );
    engine.run(&mut world);
    // No metrics after 30 s → no scale decisions for the burst; the system
    // stays at 1/1/1 and keeps serving (degraded but alive).
    let actions = controller.borrow().actions();
    assert!(
        actions.is_empty(),
        "controller acted on stale/no data: {actions:?}"
    );
    assert_eq!(world.system.running_count(1), 1);
    assert_eq!(world.system.counters().in_flight(), 0);
}

#[test]
fn least_connections_balances_heterogeneous_backends_better() {
    // With highly variable per-request demands, least-connections spreads
    // in-flight work more evenly than round-robin.
    use dcm_ntier::balancer::BalancerPolicy;
    use dcm_ntier::topology::{SoftConfig, ThreeTierBuilder};
    use dcm_sim::dist::Dist;
    use dcm_workload::cohort::CohortPopulation;
    use dcm_workload::profile::ProfileFactory;

    let run = |policy: BalancerPolicy| {
        let (mut world, mut engine) = ThreeTierBuilder::new()
            .counts(1, 3, 1)
            .soft(SoftConfig::new(1000, 60, 20))
            .balancer(policy)
            .seed(77)
            .build();
        // Heavy-tailed app demand makes imbalance expensive.
        let factory = ProfileFactory::rubbos().with_bases(
            Dist::constant(6.0e-4),
            Dist::log_normal((0.0284f64).ln() - 0.72, 1.2),
            Dist::exponential_mean(0.0296),
        );
        let pop = CohortPopulation::start_with_think_dist(
            &mut world,
            &mut engine,
            factory,
            250,
            1,
            Some(Dist::exponential_mean(3.0)),
            SimTime::from_secs(120),
        );
        engine.run(&mut world);
        pop.with_completions(|log| {
            let mut r = dcm_workload::report::LoadReport::from_completions(
                log,
                SimTime::from_secs(20),
                SimTime::from_secs(120),
            );
            r.response_time_quantile(0.95).unwrap_or(f64::INFINITY)
        })
    };
    let rr = run(BalancerPolicy::RoundRobin);
    let lc = run(BalancerPolicy::LeastConnections);
    assert!(
        lc <= rr * 1.1,
        "least-connections p95 {lc:.3}s should not lose badly to round-robin {rr:.3}s"
    );
}

#[test]
fn four_tier_deployment_matches_three_tier() {
    // The DB load-balancer tier is a transparent pass-through: the
    // four-tier deployment's steady-state throughput must match the
    // three-tier one within a few percent.
    use dcm_ntier::topology::ThreeTierBuilder;
    use dcm_sim::dist::Dist;
    use dcm_workload::cohort::CohortPopulation;
    use dcm_workload::profile::ProfileFactory;
    use dcm_workload::report::LoadReport;

    let run = |four_tier: bool| {
        let mut builder = ThreeTierBuilder::new()
            .counts(1, 2, 1)
            .soft(SoftConfig::new(1000, 30, 18))
            .seed(13);
        if four_tier {
            builder = builder.with_db_load_balancer();
        }
        let (mut world, mut engine) = builder.build();
        let factory = if four_tier {
            ProfileFactory::rubbos_four_tier()
        } else {
            ProfileFactory::rubbos()
        };
        let pop = CohortPopulation::start_with_think_dist(
            &mut world,
            &mut engine,
            factory,
            250,
            1,
            Some(Dist::exponential_mean(3.0)),
            SimTime::from_secs(120),
        );
        engine.run(&mut world);
        assert_eq!(world.system.counters().in_flight(), 0);
        pop.with_completions(|log| {
            LoadReport::from_completions(log, SimTime::from_secs(20), SimTime::from_secs(120))
                .throughput()
        })
    };
    let three = run(false);
    let four = run(true);
    assert!(
        (three - four).abs() / three < 0.05,
        "lb tier should be transparent: 3-tier {three:.1} vs 4-tier {four:.1}"
    );
}

#[test]
fn dcm_controls_the_four_tier_deployment() {
    // DCM's tier indices are configurable: on the four-tier deployment the
    // database sits at index 3 (behind the LB tier at 2).
    use dcm_core::monitor::{install_monitor, new_metrics_bus, schedule_every, MonitorConfig};
    use dcm_ntier::topology::{SoftConfig, ThreeTierBuilder};
    use dcm_workload::cohort::CohortPopulation;
    use dcm_workload::profile::ProfileFactory;

    let (mut world, mut engine) = ThreeTierBuilder::new()
        .soft(SoftConfig::new(1000, 200, 40))
        .with_db_load_balancer()
        .seed(19)
        .build();
    let horizon = SimTime::from_secs(150);
    let bus = new_metrics_bus();
    install_monitor(
        &mut engine,
        std::rc::Rc::clone(&bus),
        MonitorConfig::every_second_until(horizon),
    );
    let config = DcmConfig {
        app_tier: 1,
        db_tier: 3,
        scaling: ScalingConfig {
            scalable_tiers: vec![1, 3],
            ..ScalingConfig::default()
        },
        ..DcmConfig::default()
    };
    let controller = std::rc::Rc::new(std::cell::RefCell::new(Dcm::new(
        bus,
        config,
        DcmModels::reference(),
    )));
    let ticking = std::rc::Rc::clone(&controller);
    schedule_every(
        &mut engine,
        SimDuration::from_secs(15),
        horizon,
        move |w, e| ticking.borrow_mut().on_tick(w, e),
    );
    CohortPopulation::start_trace_driven(
        &mut world,
        &mut engine,
        ProfileFactory::rubbos_four_tier(),
        &traces::step(80, 450, 30.0),
        3.0,
        horizon,
    );
    engine.run(&mut world);

    use dcm_core::agents::Action;
    let actions = controller.borrow().actions();
    assert!(
        actions
            .iter()
            .any(|a| matches!(a.action, Action::SetThreadPools { tier: 1, .. })),
        "app pools actuated: {actions:?}"
    );
    assert!(
        actions
            .iter()
            .any(|a| matches!(a.action, Action::ScaleOut { tier: 1 })),
        "app tier scaled under the step: {actions:?}"
    );
    assert_eq!(world.system.counters().in_flight(), 0);
    // The LB tier was never scaled (not in scalable_tiers).
    assert_eq!(world.system.running_count(2), 1);
}

#[test]
fn chaos_run_passes_conservation_audit() {
    // The full chaos schedule — VM crash, straggler episode, transient
    // failures, client retries, deadlines, inter-tier retries — under the
    // conservation auditor. The run panics on any violated conservation
    // law when the audit is enforced, so completing is the assertion.
    let (mut experiment, _) =
        dcm_bench::experiments::chaos::chaos_config(dcm_bench::experiments::Fidelity::Quick);
    experiment.audit = dcm_core::experiment::Audit::Enforce;
    let run = experiment
        .run(&dcm_core::experiment::ControllerSpec::ec2())
        .expect("the chaos preset is valid");
    assert!(run.counters.failed > 0, "chaos must strike in-flight work");
    assert_eq!(run.counters.in_flight(), 0);
}

#[test]
fn spans_reconcile_with_request_outcomes_under_faults() {
    // Span-conservation regression: with tracing on through a faulted run
    // (crash + transient failures, so Outcome::Failed occurs), every span
    // is time-ordered and the span log reconciles with the per-request
    // outcome counters.
    use dcm_ntier::faults::install_fault_plan;
    use dcm_ntier::topology::ThreeTierBuilder;
    use dcm_sim::faults::FaultPlan;
    use dcm_workload::cohort::CohortPopulation;
    use dcm_workload::profile::ProfileFactory;
    use std::collections::BTreeMap;

    let (mut world, mut engine) = ThreeTierBuilder::new()
        .counts(1, 2, 1)
        .soft(SoftConfig::new(1000, 200, 40))
        .seed(47)
        .build();
    world.system.enable_tracing();
    let plan = FaultPlan::none()
        .with_crash(60.0, 1, 1)
        .with_transient_failures(0.01);
    install_fault_plan(&mut world, &mut engine, &plan);
    CohortPopulation::start_trace_driven(
        &mut world,
        &mut engine,
        ProfileFactory::rubbos(),
        &traces::step(60, 200, 30.0),
        1.0,
        SimTime::from_secs(120),
    );
    engine.run(&mut world);

    let spans = world.system.take_spans();
    let counters = world.system.counters();
    assert_eq!(counters.in_flight(), 0);
    assert!(counters.failed > 0, "faults must produce Outcome::Failed");
    assert!(
        dcm_ntier::audit::check_span_ordering(&spans).is_empty(),
        "every span must satisfy arrived <= started <= finished"
    );
    assert!(
        dcm_ntier::audit::check_span_statuses(&spans).is_empty(),
        "terminal span statuses must be consistent per request"
    );

    // Exactly one completed entry-tier span per completed request, none
    // for requests that failed; failures leave incomplete spans behind.
    let mut entry_completions: BTreeMap<dcm_ntier::ids::RequestId, u64> = BTreeMap::new();
    for s in &spans {
        if s.tier == 0 && s.is_completed() {
            *entry_completions.entry(s.request).or_insert(0) += 1;
        }
    }
    assert!(
        entry_completions.values().all(|&n| n == 1),
        "a request must complete its entry tier at most once"
    );
    assert_eq!(
        entry_completions.len() as u64,
        counters.completed,
        "completed entry-tier spans must match the completion counter"
    );
    assert!(
        spans.iter().any(|s| !s.is_completed()),
        "failed requests must leave incomplete spans"
    );
    assert!(
        spans
            .iter()
            .any(|s| s.status == dcm_ntier::spans::SpanStatus::Crashed),
        "the injected crash must stamp Crashed spans"
    );
}

#[test]
fn long_soak_under_oscillating_load_stays_clean() {
    // 2000 s of diurnal-like oscillation: DCM repeatedly scales out and in;
    // nothing may leak, counters must conserve, VM counts stay bounded.
    let mut config = quick_config(traces::sine(80, 520, 300.0, 2000.0, 10.0), 2000, 23);
    config.initial_soft = SoftConfig::new(1000, 200, 40);
    let run = run_trace_experiment(&config, |bus| {
        Dcm::new(bus, DcmConfig::default(), DcmModels::reference())
    });
    assert_eq!(run.counters.in_flight(), 0);
    assert_eq!(run.counters.rejected, 0);
    // Multiple scale-out AND scale-in cycles happened.
    use dcm_core::agents::Action;
    let outs = run
        .actions
        .iter()
        .filter(|a| matches!(a.action, Action::ScaleOut { .. }))
        .count();
    let ins = run
        .actions
        .iter()
        .filter(|a| matches!(a.action, Action::ScaleIn { .. }))
        .count();
    assert!(outs >= 3, "expected repeated scale-outs, saw {outs}");
    assert!(ins >= 3, "expected repeated scale-ins, saw {ins}");
    // VM counts stayed within the policy cap.
    for tier in [1usize, 2] {
        let max_vms = run.tier_vm_counts[tier].max().unwrap_or(0.0);
        assert!(
            max_vms <= 8.0,
            "tier {tier} exceeded max_servers: {max_vms}"
        );
    }
    // The oscillation is served: overall throughput in a sane band.
    let overall = run.overall();
    assert!(overall.throughput() > 40.0, "X {}", overall.throughput());
    assert!(
        overall.sla_attainment(1.0) > 0.7,
        "SLA {}",
        overall.sla_attainment(1.0)
    );
}
