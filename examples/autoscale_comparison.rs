//! Autoscaler comparison on a flash crowd: DCM (hardware + soft-resource
//! scaling) versus the EC2-AutoScale-style hardware-only baseline, on the
//! identical workload and with identical VM policies — the paper's Fig. 5
//! methodology on a compact trace.
//!
//! ```text
//! cargo run -p dcm-bench --release --example autoscale_comparison
//! ```

use dcm_core::controller::DcmModels;
use dcm_core::experiment::{ControllerSpec, Experiment};
use dcm_core::training::{train_app_model, train_db_model, SweepOptions};
use dcm_sim::time::{SimDuration, SimTime};
use dcm_workload::traces;

fn main() {
    // Offline training (paper §V-A): fit both tier models from sweeps.
    println!("training concurrency-aware models (offline sweeps) ...");
    let sweep = SweepOptions {
        warmup: SimDuration::from_secs(5),
        measure: SimDuration::from_secs(20),
        seed: 11,
        deterministic: false,
    };
    let app = train_app_model(&sweep).expect("app fit converges").report;
    let db = train_db_model(&sweep).expect("db fit converges").report;
    println!(
        "  app model: N* = {} (R² {:.3});  db model: N* = {} (R² {:.3})\n",
        app.model.optimal_concurrency(),
        app.r_squared,
        db.model.optimal_concurrency(),
        db.r_squared
    );
    let models = DcmModels {
        app: app.model,
        db: db.model,
    };

    // A flash crowd: 120 users, spiking to 600 for 90 seconds.
    let mut experiment = Experiment::figure5(traces::flash_crowd(120, 600, 60.0, 90.0));
    experiment.horizon = SimTime::from_secs(300);

    let ec2 = experiment.run(&ControllerSpec::ec2()).expect("valid");
    let dcm = experiment.run(&ControllerSpec::dcm(models)).expect("valid");

    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>12}",
        "controller", "req/s", "meanRT(s)", "p95RT(s)", "VM-seconds"
    );
    for run in [&dcm, &ec2] {
        let mut overall = run.overall();
        println!(
            "{:<16} {:>10.1} {:>10.3} {:>10.3} {:>12.0}",
            run.controller,
            overall.throughput(),
            overall.mean_response_time(),
            overall.response_time_quantile(0.95).unwrap_or(0.0),
            run.total_vm_seconds(),
        );
    }

    println!("\nscaling actions:");
    for run in [&dcm, &ec2] {
        println!("  {}:", run.controller);
        for a in &run.actions {
            println!("    {:>6.1}s  {:?}", a.at.as_secs_f64(), a.action);
        }
    }
}
