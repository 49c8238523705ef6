//! Capacity planning with the exact MVA: size the tiers for a target load
//! from the reference laws (paper §III), predict the sized deployment's
//! throughput and per-tier utilization by solving its closed queueing
//! network (the solver `repro validate` checks the simulator against),
//! then validate the prediction by simulation.
//!
//! ```text
//! cargo run -p dcm-bench --release --example capacity_planning
//! ```

use dcm_core::experiment::{steady_state_throughput, think_time_run};
use dcm_model::mva::{law_rate_table, ClosedNetwork, Station};
use dcm_ntier::law::ServiceLaw;
use dcm_ntier::topology::SoftConfig;
use dcm_sim::time::SimDuration;

/// One load-dependent station per server of a tier: each serves under
/// `law` with `threads` threads and takes an equal share of `visits`.
fn tier(law: ServiceLaw, servers: u32, threads: u32, visits: f64) -> Vec<Station> {
    let rate = law_rate_table(law.s0(), threads, |m| law.adjusted_service_time(m));
    (0..servers)
        .map(|_| Station::LoadDependent {
            visit_ratio: visits / f64::from(servers),
            service_time: law.s0(),
            rate: rate.clone(),
        })
        .collect()
}

fn main() {
    // Per-visit effective service times at each tier's knee, S*(N*)/N*,
    // with visit ratios V = [1, 1, 2].
    let web_law = dcm_ntier::law::reference::apache();
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

    // Size each scalable tier by the Utilization Law: K_m = ceil(X · V_m · S_m).
    let app_servers = ((target_load * 1.0 * app_s).ceil() as u32).max(1);
    let db_servers = ((target_load * 2.0 * db_s).ceil() as u32).max(1);
    println!("utilization-law sizing: {app_servers} app server(s), {db_servers} db server(s)");

    // Enough users to demand the target load (X = U/(RT+Z) → U ≈ X·(Z+RT)),
    // each thinking 3 s between requests. Soft resources at each tier's
    // optimum: app pools at N*_app, conn pools sharing N*_db per db server
    // across app servers.
    let users = (target_load * 3.4).ceil() as u32;
    let think = 3.0;
    let n_app = app_law.optimal_concurrency();
    let n_db = db_law.optimal_concurrency();

    // The sized deployment as a closed network: the web tier a delay
    // station, every app and db server a load-dependent station under its
    // law behind its pool.
    let web = Station::Delay {
        visit_ratio: 1.0,
        service_time: web_law.s0(),
    };
    let app = tier(app_law, app_servers, n_app, 1.0);
    let db = tier(db_law, db_servers, n_db, 2.0);
    let stations: Vec<Station> = std::iter::once(web).chain(app).chain(db).collect();
    let solution = ClosedNetwork::new(stations, think).solve(users);
    let utilization = &solution.station_utilization;
    let (app_util, db_util) = utilization[1..].split_at(app_servers as usize);
    let busiest = |u: &[f64]| u.iter().copied().fold(0.0, f64::max);
    let (app_util, db_util) = (busiest(app_util), busiest(db_util));
    println!(
        "MVA prediction at {users} users: {:.1} req/s at mean RT {:.0} ms",
        solution.throughput,
        solution.response_time * 1e3,
    );
    println!(
        "  busiest app server at {:.0} %, busiest db server at {:.0} % of its peak rate: \
         the {} tier is the bottleneck\n",
        app_util * 100.0,
        db_util * 100.0,
        if app_util >= db_util { "app" } else { "db" },
    );

    // Validate by simulation.
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
        "measured: {:.1} req/s at mean RT {:.0} ms (MVA {:.1} req/s, target {target_load} req/s)",
        measured.throughput,
        measured.mean_rt * 1e3,
        solution.throughput,
    );
    let attainment = measured.throughput / target_load;
    println!("attainment: {:.0} %", attainment * 100.0);
}
