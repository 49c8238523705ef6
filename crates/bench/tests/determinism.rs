//! Regression tests for the parallel runner's core guarantee: running the
//! experiment fan-out on N workers produces bit-identical results to the
//! serial path, because every run derives its own seed and results are
//! reassembled in input order.

use std::sync::Mutex;

use dcm_bench::experiments::{chaos, fig2, Fidelity};
use dcm_core::controller::DcmModels;
use dcm_core::training::{db_stress_sweep, SweepOptions};
use dcm_ntier::law::reference;
use dcm_ntier::topology::{SoftConfig, ThreeTierBuilder};
use dcm_sim::runner::{run_ordered_with, set_jobs};
use dcm_sim::time::{SimDuration, SimTime};
use dcm_workload::cohort::CohortPopulation;
use dcm_workload::profile::ProfileFactory;

/// Serializes tests that mutate the process-wide jobs setting.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

fn quick_sweep_options() -> SweepOptions {
    SweepOptions {
        warmup: SimDuration::from_secs(5),
        measure: SimDuration::from_secs(15),
        seed: 1234,
        deterministic: false,
    }
}

#[test]
fn run_ordered_serial_and_parallel_sweeps_are_bit_identical() {
    // Drive the real simulation workload through the runner at both worker
    // counts; SweepPoint's PartialEq compares the f64 fields exactly, so
    // equality here is bit-for-bit on every measured value.
    let options = quick_sweep_options();
    let levels: Vec<u32> = vec![4, 9, 16, 25, 36, 49, 64, 81];
    let serial = run_ordered_with(1, levels.clone(), |c| {
        dcm_core::training::db_stress_point(reference::mysql(), c, &options)
    });
    let parallel = run_ordered_with(4, levels, |c| {
        dcm_core::training::db_stress_point(reference::mysql(), c, &options)
    });
    assert_eq!(serial, parallel);
}

#[test]
fn fig2_tables_are_byte_identical_across_jobs() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_jobs(1);
    let serial_a = fig2::run_fig2a(Fidelity::Quick).table().to_csv();
    let serial_b = fig2::run_fig2b(Fidelity::Quick).table().to_csv();
    set_jobs(4);
    let parallel_a = fig2::run_fig2a(Fidelity::Quick).table().to_csv();
    let parallel_b = fig2::run_fig2b(Fidelity::Quick).table().to_csv();
    set_jobs(0);
    assert_eq!(serial_a, parallel_a, "fig2a CSV must not depend on --jobs");
    assert_eq!(serial_b, parallel_b, "fig2b CSV must not depend on --jobs");
}

#[test]
fn chaos_outputs_are_byte_identical_across_jobs() {
    // Fault injection, retries, and timeouts all draw from derived RNG
    // streams, so the chaos experiment must stay bit-deterministic under
    // the parallel runner exactly like the steady-state figures.
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_jobs(1);
    let serial = chaos::run_chaos(Fidelity::Quick, DcmModels::reference());
    set_jobs(4);
    let parallel = chaos::run_chaos(Fidelity::Quick, DcmModels::reference());
    set_jobs(0);
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "chaos JSON must not depend on --jobs"
    );
    assert_eq!(
        serial.table().to_csv(),
        parallel.table().to_csv(),
        "chaos CSV must not depend on --jobs"
    );
}

#[test]
fn training_sweep_respects_global_jobs_setting() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let options = quick_sweep_options();
    let levels = [2u32, 8, 20, 36, 60];
    set_jobs(1);
    let serial = db_stress_sweep(reference::mysql(), &levels, &options);
    set_jobs(4);
    let parallel = db_stress_sweep(reference::mysql(), &levels, &options);
    set_jobs(0);
    assert_eq!(serial, parallel);
}

#[test]
fn identical_runs_execute_identical_event_counts() {
    // Two engines built from the same seed must execute exactly the same
    // number of events — the strictest cheap proxy for "the same run".
    let run = || {
        let (mut world, mut engine) = ThreeTierBuilder::new()
            .counts(1, 1, 1)
            .soft(SoftConfig::DEFAULT)
            .seed(dcm_sim::rng::derive_seed(777, 3))
            .build();
        let horizon = SimTime::from_secs(20);
        let _population = CohortPopulation::start_with_think_dist(
            &mut world,
            &mut engine,
            ProfileFactory::rubbos(),
            25,
            1,
            None,
            horizon,
        );
        engine.run_until(&mut world, horizon);
        engine.executed()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second);
    assert!(first > 0, "run must simulate something");
}
