//! Burstiness injection: turn a calm think-time workload into a bursty one
//! with a two-state MMPP (the methodology of the paper's reference [23]),
//! measure the index of dispersion, and watch DCM absorb the bursts.
//!
//! ```text
//! cargo run -p dcm-bench --release --example bursty_workload
//! ```

use dcm_core::controller::{Controller, Dcm, DcmConfig, DcmModels};
use dcm_core::monitor::{install_monitor, new_metrics_bus, schedule_every, MonitorConfig};
use dcm_ntier::topology::{SoftConfig, ThreeTierBuilder};
use dcm_sim::time::{SimDuration, SimTime};
use dcm_workload::burstiness::{index_of_dispersion, MmppConfig, MmppModulator};
use dcm_workload::cohort::CohortPopulation;
use dcm_workload::profile::ProfileFactory;
use dcm_workload::report::LoadReport;

fn run(mmpp: Option<MmppConfig>, label: &str) {
    let horizon = SimTime::from_secs(400);
    let (mut world, mut engine) = ThreeTierBuilder::new()
        .soft(SoftConfig::new(1000, 200, 40))
        .seed(17)
        .build();

    // Full DCM stack so the controller reacts to the bursts.
    let bus = new_metrics_bus();
    install_monitor(
        &mut engine,
        std::rc::Rc::clone(&bus),
        MonitorConfig::every_second_until(horizon),
    );
    let mut controller = Dcm::new(bus, DcmConfig::default(), DcmModels::reference());
    schedule_every(
        &mut engine,
        SimDuration::from_secs(15),
        horizon,
        move |w, e| controller.on_tick(w, e),
    );

    let modulator = mmpp.map(|config| MmppModulator::install(&mut engine, config, horizon));
    let population = CohortPopulation::start_think_time_modulated(
        &mut world,
        &mut engine,
        ProfileFactory::rubbos(),
        150,
        3.0,
        modulator.as_ref().map(MmppModulator::multiplier_cell),
        horizon,
    );
    engine.run(&mut world);

    let (dispersion, mut report) = population.with_completions(|log| {
        let finishes: Vec<SimTime> = log.iter().map(|c| c.finished).collect();
        let dispersion = index_of_dispersion(
            &finishes,
            SimTime::from_secs(20),
            horizon,
            SimDuration::from_secs(5),
        )
        .unwrap_or(0.0);
        (
            dispersion,
            LoadReport::from_completions(log, SimTime::from_secs(20), horizon),
        )
    });
    println!(
        "{label:<22} I = {dispersion:5.1}   X = {:5.1} req/s   mean RT = {:6.0} ms   p95 = {:6.0} ms",
        report.throughput(),
        report.mean_response_time() * 1e3,
        report.response_time_quantile(0.95).unwrap_or(0.0) * 1e3,
    );
}

fn main() {
    println!("150 users, mean think 3 s, 400 s horizon, DCM managing the system\n");
    println!(
        "{:<22} {:>9}   {:>13}   {:>16}   {:>12}",
        "workload", "dispersion", "throughput", "mean RT", "p95 RT"
    );
    run(None, "Poisson-like (calm)");
    run(Some(MmppConfig::with_intensity(4.0)), "MMPP intensity 4");
    run(Some(MmppConfig::with_intensity(8.0)), "MMPP intensity 8");
    println!(
        "\nindex of dispersion I ≈ 1 means Poisson-like arrivals; production-like\n\
         bursty traffic has I in the tens (Mi et al., ICAC 2009)."
    );
}
