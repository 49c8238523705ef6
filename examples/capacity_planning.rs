//! Capacity planning with operational laws: predict the bottleneck tier
//! and the servers needed for a target load from the fitted models
//! (paper §III, Eq. 1–4), then validate the prediction by simulation.
//!
//! ```text
//! cargo run -p dcm-bench --release --example capacity_planning
//! ```

use dcm_core::experiment::{steady_state_throughput, think_time_run};
use dcm_model::laws::{analyze_bottleneck, TierDemand};
use dcm_ntier::topology::SoftConfig;
use dcm_sim::time::SimDuration;

fn main() {
    // Per-tier service demands at the optimal operating point, measured
    // from the reference deployment (effective service time S*(N*)/N* per
    // visit, visit ratios V = [1, 1, 2]).
    let app_law = dcm_ntier::law::reference::tomcat();
    let db_law = dcm_ntier::law::reference::mysql();
    let app_s = app_law.effective_service_time(app_law.optimal_concurrency());
    let db_s = db_law.effective_service_time(db_law.optimal_concurrency());

    println!("per-visit effective service times at each tier's knee:");
    println!(
        "  web ≈ negligible, app = {:.2} ms, db = {:.2} ms/query\n",
        app_s * 1e3,
        db_s * 1e3
    );

    let target_load = 250.0; // requests/second the site must sustain
    println!("target: {target_load} req/s of browse-only traffic\n");

    // Size each scalable tier: K_m = ceil(X · V_m · S_m), then check the
    // bottleneck analysis agrees.
    let mut app_servers = (target_load * 1.0 * app_s).ceil() as u32;
    let mut db_servers = (target_load * 2.0 * db_s).ceil() as u32;
    app_servers = app_servers.max(1);
    db_servers = db_servers.max(1);
    println!("operational-law sizing: {app_servers} app server(s), {db_servers} db server(s)");

    let tiers = [
        TierDemand {
            visit_ratio: 1.0,
            service_time: 6.0e-4,
            servers: 1,
        },
        TierDemand {
            visit_ratio: 1.0,
            service_time: app_s,
            servers: app_servers,
        },
        TierDemand {
            visit_ratio: 2.0,
            service_time: db_s,
            servers: db_servers,
        },
    ];
    let analysis = analyze_bottleneck(&tiers, 1.0);
    println!(
        "predicted ceiling {:.0} req/s, bottleneck tier {} (utilizations {:?})\n",
        analysis.max_throughput,
        analysis.bottleneck,
        analysis
            .utilizations
            .iter()
            .map(|u| format!("{u:.2}"))
            .collect::<Vec<_>>(),
    );

    // Validate by simulation: drive the sized system with enough users to
    // demand the target load (X = U/(RT+Z) → U ≈ X·(Z+RT)).
    let users = (target_load * 3.4).ceil() as u32;
    // Soft resources at each tier's optimum: app pools at N*_app, conn
    // pools sharing N*_db per db server across app servers.
    let n_app = app_law.optimal_concurrency();
    let n_db = db_law.optimal_concurrency();
    let conns = (n_db * db_servers).div_ceil(app_servers).max(1);
    let soft = SoftConfig::new(1000, n_app, conns);
    println!(
        "validating with {} users on 1/{}/{} at soft 1000/{}/{} ...",
        users, app_servers, db_servers, n_app, conns
    );
    let (warmup, window) = (SimDuration::from_secs(20), SimDuration::from_secs(60));
    let run = think_time_run((1, app_servers, db_servers), soft, users, 5, warmup, window);
    let measured = steady_state_throughput(&run);
    println!(
        "measured: {:.1} req/s at mean RT {:.0} ms (target {target_load} req/s)",
        measured.throughput,
        measured.mean_rt * 1e3
    );
    let attainment = measured.throughput / target_load;
    println!("attainment: {:.0} %", attainment * 100.0);
}
