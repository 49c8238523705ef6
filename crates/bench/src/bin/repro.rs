//! `repro` — regenerate every table and figure of the DCM paper.
//!
//! ```text
//! cargo run -p dcm-bench --release --bin repro -- all
//! cargo run -p dcm-bench --release --bin repro -- fig5 --quick
//! cargo run -p dcm-bench --release --bin repro -- table1 --csv results/
//! ```

use std::cell::RefCell;
use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use dcm_bench::experiments::{
    ablation, chaos, fig2, fig4, fig5, fleet, gamma, hunt, league, mesh, queuebench, table1,
    trace_export, validate, Fidelity,
};
use dcm_bench::format::TextTable;
use dcm_obs::PerfLog;

struct Cli {
    command: String,
    experiment: Option<String>,
    fidelity: Fidelity,
    csv_dir: Option<PathBuf>,
    trace: Option<PathBuf>,
    obs_dir: PathBuf,
    seeds: usize,
    jobs: usize,
    audit: bool,
    paths: Vec<PathBuf>,
    max_drop: f64,
    budget: u64,
}

fn parse_args() -> Result<Cli, String> {
    let mut args = env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut experiment = None;
    let mut fidelity = Fidelity::Full;
    let mut csv_dir = None;
    let mut trace = None;
    let mut obs_dir = PathBuf::from("results/obs");
    let mut seeds = 1usize;
    let mut jobs = 0usize; // 0 = auto (available parallelism)
    let mut audit = false;
    let mut paths = Vec::new();
    let mut max_drop = 0.15;
    let mut budget = 200u64;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => fidelity = Fidelity::Quick,
            "--audit" => audit = true,
            "--csv" => {
                let dir = args.next().ok_or("--csv needs a directory")?;
                csv_dir = Some(PathBuf::from(dir));
            }
            "--trace" => {
                let file = args.next().ok_or("--trace needs a CSV file")?;
                trace = Some(PathBuf::from(file));
            }
            "--obs" => {
                let dir = args.next().ok_or("--obs needs a directory")?;
                obs_dir = PathBuf::from(dir);
            }
            "--seeds" => {
                let n = args.next().ok_or("--seeds needs a count")?;
                seeds = n.parse().map_err(|_| format!("bad seed count `{n}`"))?;
            }
            "--jobs" => {
                let n = args.next().ok_or("--jobs needs a worker count")?;
                jobs = n.parse().map_err(|_| format!("bad job count `{n}`"))?;
            }
            "--max-drop" => {
                let pct = args.next().ok_or("--max-drop needs a percentage")?;
                let pct: f64 = pct.parse().map_err(|_| format!("bad percentage `{pct}`"))?;
                max_drop = pct / 100.0;
            }
            "--budget" => {
                let n = args.next().ok_or("--budget needs a scenario count")?;
                budget = n.parse().map_err(|_| format!("bad budget `{n}`"))?;
            }
            other => {
                // `trace` / `explain` take the experiment as a positional;
                // `perfgate` takes two perf-log paths.
                let takes_experiment = command == "trace" || command == "explain";
                if takes_experiment && experiment.is_none() && !other.starts_with('-') {
                    experiment = Some(other.to_string());
                } else if command == "perfgate" && !other.starts_with('-') {
                    paths.push(PathBuf::from(other));
                } else {
                    return Err(format!("unknown flag `{other}`\n{}", usage()));
                }
            }
        }
    }
    Ok(Cli {
        command,
        experiment,
        fidelity,
        csv_dir,
        trace,
        obs_dir,
        seeds,
        jobs,
        audit,
        paths,
        max_drop,
        budget,
    })
}

fn usage() -> String {
    "usage: repro <command> [--quick] [--csv DIR]\n\
     commands:\n\
     \x20 fig2a       MySQL throughput vs request-processing concurrency\n\
     \x20 fig2b       1/1/1 vs 1/2/1 under the default soft allocation\n\
     \x20 table1      model training parameters and prediction results\n\
     \x20 fig4a       Tomcat thread-pool validation (1/1/1)\n\
     \x20 fig4b       DB connection-pool validation (1/2/1)\n\
     \x20 fig5        DCM vs EC2-AutoScale under the Large-Variation trace\n\
     \x20 ablation    DCM actuation ablation (threads/conns/both/neither)\n\
     \x20 sensitivity DCM robustness to mis-estimated N*\n\
     \x20 extensions  reactive vs predictive vs online-refit DCM\n\
     \x20 gamma       bottleneck-tier scaling efficiency (Eq. 4)\n\
     \x20 export-trace write the built-in Large-Variation trace as CSV\n\
     \x20 faults      behaviour under VM boot failures\n\
     \x20 chaos       crash/straggler injection + retry resilience (writes\n\
     \x20             chaos.json and chaos.csv)\n\
     \x20 validate    DES vs exact queueing theory (MVA oracle; writes\n\
     \x20             validate.json and validate.csv, exits non-zero on\n\
     \x20             any tolerance breach; every point is also re-run\n\
     \x20             with cohort-aggregated users and held to the same\n\
     \x20             gates)\n\
     \x20 fleet       fleet-scale DES: up to 1,000 servers per tier and 1M\n\
     \x20             cohort-aggregated users (writes fleet.json and\n\
     \x20             fleet.csv — virtual-time quantities only, byte-\n\
     \x20             identical for every --jobs value)\n\
     \x20 queuebench  event-queue microbenchmarks: the engine's indexed heap\n\
     \x20             under hold / cancel-heavy / timeout-churn / 16-byte\n\
     \x20             captured payloads, also as fn events / successors\n\
     \x20             scheduled from the popped event's handler (wall-clock\n\
     \x20             rates feed the perf log; runs only when named, and\n\
     \x20             under perf)\n\
     \x20 perf        the performance baseline: training + trace +\n\
     \x20             queuebench + fleet in one run, accumulated into\n\
     \x20             results/perf.json (the file CI gates against; every\n\
     \x20             other command writes its wall-clock log to the\n\
     \x20             gitignored results/perf_<command>.json instead; the\n\
     \x20             perf logs stay under results/ whatever --csv says)\n\
     \x20 league      controller league: DCM, EC2-AutoScale, MPC,\n\
     \x20             MMC-Threshold, and Holt-Winters on the step, flash,\n\
     \x20             sine, and chaos traces, ranked by SLO-violation\n\
     \x20             seconds then VM-hours then decision latency (writes\n\
     \x20             league.json, league.csv, and the MPC plan journal\n\
     \x20             league_mpc.journal.json — byte-identical for every\n\
     \x20             --jobs value; `repro explain league` renders the\n\
     \x20             ranking + journal)\n\
     \x20 mesh        controllers off the chain: DCM, MPC, and\n\
     \x20             EC2-AutoScale on a fan-out microservice mesh with a\n\
     \x20             warming cache (bottleneck migrates mid-run) and a\n\
     \x20             mixed small/large VM fleet ranked on dollars (writes\n\
     \x20             mesh.json and mesh.csv — byte-identical for every\n\
     \x20             --jobs value)\n\
     \x20 hunt        adversarial scenario fuzzing: a seed-deterministic\n\
     \x20             campaign of random topologies, traces, fault\n\
     \x20             schedules, and controller configs checked against\n\
     \x20             conservation/replay/cohort/doubling/MVA oracles;\n\
     \x20             shrinks violations and pins them under\n\
     \x20             tests/regressions/ (writes hunt.json and hunt.csv —\n\
     \x20             byte-identical for every --jobs value; exits\n\
     \x20             non-zero on any violation)\n\
     \x20 perfgate <baseline.json> <current.json>\n\
     \x20             events/s regression gate: exits non-zero when any\n\
     \x20             baseline experiment lost more than --max-drop (15 %)\n\
     \x20             of its rate or disappeared\n\
     \x20 trace <exp>   run fig5 with the dcm-obs pipeline on and export a\n\
     \x20             Perfetto-loadable Chrome trace, the span CSV, the\n\
     \x20             controller decision journal (JSON + text), and the\n\
     \x20             per-period metrics series (byte-identical for every\n\
     \x20             --jobs value; see --obs)\n\
     \x20 explain <exp> print the controller decision journal as text:\n\
     \x20             every scaling and soft-allocation action with the\n\
     \x20             measurements, fitted model, and reason behind it\n\
     \x20 all         every experiment above from fig2a to fleet except\n\
     \x20             export-trace, in order\n\
     \x20 lint        dcm-lint determinism static analysis over the whole\n\
     \x20             workspace: cross-file taint, hot-path allocation,\n\
     \x20             panic-safety, and atomics-ordering rule families\n\
     \x20             (writes results/lint.json + results/lint.sarif,\n\
     \x20             exits non-zero on any violation)\n\
     flags:\n\
     \x20 --quick       short windows / coarse sweeps\n\
     \x20 --audit       run every experiment under the conservation auditor\n\
     \x20               (panics on any violated conservation law)\n\
     \x20 --csv DIR     also write every table as CSV into DIR, and write\n\
     \x20               the artifacts named above (and export-trace's CSV)\n\
     \x20               there instead of results/\n\
     \x20 --trace FILE  drive fig5 with an external `seconds,users` CSV trace\n\
     \x20 --obs DIR     output directory for `trace` artifacts\n\
     \x20               (default results/obs)\n\
     \x20 --max-drop P  perfgate: allowed events/s drop in percent,\n\
     \x20               at least 0 and below 100 (default 15)\n\
     \x20 --budget N    hunt: scenarios per campaign (default 200)\n\
     \x20 --seeds N     replicate fig5 across N seeds, report mean ± 95% CI\n\
     \x20 --jobs N      worker threads for independent runs (0 = all cores);\n\
     \x20               results are bit-identical for every N"
        .to_string()
}

/// Per-experiment wall-clock and simulated-event accounting, written at
/// the end of the run to `results/perf.json` (for `repro perf`, the
/// committed CI baseline) or `results/perf_<command>.json` (everything
/// else). The measurements live in a
/// [`dcm_obs::PerfLog`] (backed by the obs metrics registry); only the
/// wall-clock `Instant`s stay here — dcm-obs itself is wall-clock-free
/// under the Strict lint policy.
struct Perf {
    log: PerfLog,
    started: Instant,
}

impl Perf {
    fn new() -> Self {
        Perf {
            log: PerfLog::new(),
            started: Instant::now(),
        }
    }

    /// Runs one experiment, printing elapsed wall-clock and simulated
    /// events/second (events are counted engine-side across all workers).
    fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        dcm_sim::engine::reset_total_executed();
        let start = Instant::now();
        let result = f();
        let wall_secs = start.elapsed().as_secs_f64();
        let events = dcm_sim::engine::reset_total_executed();
        println!(
            "  [{name}: {wall_secs:.2} s wall, {events} simulated events, {:.0} events/s]",
            rate(events, wall_secs)
        );
        self.log.record(name, wall_secs, events);
        result
    }

    /// Records a measurement taken outside [`Perf::time`] (the queue
    /// microbenchmarks time their own loops; their "events" are queue
    /// operations).
    fn record_raw(&mut self, name: &str, wall_secs: f64, events: u64) {
        self.log.record(name, wall_secs, events);
    }

    /// Attaches the request-slab counters to the named entry.
    fn record_slab(&mut self, name: &str, allocated: u64, reused: u64) {
        self.log.record_slab(name, allocated, reused);
    }

    /// Attaches the process peak RSS (from `/proc/self/status`, if
    /// available) to the named entry.
    fn record_peak_rss(&mut self, name: &str) {
        if let Some(bytes) = peak_rss_bytes() {
            self.log.record_peak_rss(name, bytes);
        }
    }

    fn write(&self, out: &Output, command: &str, fidelity: Fidelity, jobs: usize) {
        if self.log.is_empty() {
            return;
        }
        let dir = PathBuf::from("results");
        // Only `repro perf` may write the committed CI baseline; every
        // other command gets its own per-experiment log (gitignored) so a
        // local `repro hunt` / `league` / `validate` cannot clobber the
        // file perfgate compares against.
        let path = if command == "perf" {
            dir.join("perf.json")
        } else {
            dir.join(format!("perf_{command}.json"))
        };
        let fidelity = if fidelity == Fidelity::Quick {
            "quick"
        } else {
            "full"
        };
        let json = self.log.to_json(
            command,
            fidelity,
            jobs,
            self.started.elapsed().as_secs_f64(),
        );
        out.artifacts(&[(path, json)]);
    }
}

/// `repro lint` — run the dcm-lint determinism pass over the workspace,
/// write `results/lint.json` and `results/lint.sarif`, and fail on any
/// violation. Equivalent to `cargo run -p dcm-lint -- --format json`.
fn run_lint() -> ExitCode {
    let root = dcm_lint::default_root();
    let report = match dcm_lint::lint_workspace(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("lint: cannot scan {}: {err}", root.display());
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render_text());
    let path = root.join("results/lint.json");
    let sarif_path = root.join("results/lint.sarif");
    let write = fs::create_dir_all(root.join("results"))
        .and_then(|()| fs::write(&path, report.to_json()))
        .and_then(|()| fs::write(&sarif_path, report.to_sarif()));
    let write_failed = match write {
        Ok(()) => {
            println!("\nwrote {} and {}", path.display(), sarif_path.display());
            false
        }
        Err(err) => {
            eprintln!(
                "error: could not write {} and {}: {err}",
                path.display(),
                sarif_path.display()
            );
            true
        }
    };
    if report.errors() > 0 || write_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The process's peak resident-set size in bytes (Linux `VmHWM`), if the
/// procfs entry is readable.
fn peak_rss_bytes() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// `repro perfgate <baseline.json> <current.json>` — the CI events/s
/// regression gate: every experiment in the baseline must keep at least
/// `1 - max_drop` of its rate in the current log.
fn run_perfgate(paths: &[PathBuf], max_drop: f64) -> ExitCode {
    let [baseline_path, current_path] = paths else {
        eprintln!("perfgate needs exactly two paths: <baseline.json> <current.json>");
        return ExitCode::FAILURE;
    };
    let read = |p: &PathBuf| {
        fs::read_to_string(p).map_err(|err| format!("cannot read {}: {err}", p.display()))
    };
    let (baseline, current) = match (read(baseline_path), read(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(err), _) | (_, Err(err)) => {
            eprintln!("perfgate: {err}");
            return ExitCode::FAILURE;
        }
    };
    let report = dcm_bench::perfjson::gate(&baseline, &current, max_drop);
    println!(
        "perfgate: {} vs {} (allowed drop {:.0} %)",
        current_path.display(),
        baseline_path.display(),
        100.0 * max_drop
    );
    for line in &report.lines {
        println!("  {line}");
    }
    for name in &report.missing {
        println!("  {name}: MISSING from current log");
    }
    for err in &report.errors {
        println!("  error: {err}");
    }
    if report.passed() {
        println!("perfgate: ok");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfgate: FAILED ({} regressed, {} missing, {} errors)",
            report.failures.len(),
            report.missing.len(),
            report.errors.len()
        );
        ExitCode::FAILURE
    }
}

fn rate(events: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        events as f64 / secs
    } else {
        0.0
    }
}

struct Output {
    /// Where artifacts go: the `--csv` directory, or `results/` without it.
    dir: PathBuf,
    /// Whether every table is also written there as CSV (`--csv`).
    csv: bool,
    /// Artifacts that could not be written; any makes the run exit 1 once
    /// its output is printed.
    failed_writes: RefCell<Vec<PathBuf>>,
}

impl Output {
    fn section(&self, title: &str) {
        println!("\n=== {title} ===\n");
    }

    fn table(&self, name: &str, table: &TextTable) {
        print!("{}", table.render());
        if self.csv {
            self.write(&self.dir.join(format!("{name}.csv")), &table.to_csv());
        }
    }

    /// Writes `contents` to `path`, creating its directory; false, with
    /// the failure reported and recorded, if that fails.
    fn write(&self, path: &Path, contents: &str) -> bool {
        let dir = path.parent().unwrap_or(Path::new("."));
        match fs::create_dir_all(dir).and_then(|()| fs::write(path, contents)) {
            Ok(()) => true,
            Err(err) => {
                self.write_failed(path, &err);
                false
            }
        }
    }

    fn write_failed(&self, path: &Path, err: &dyn std::fmt::Display) {
        eprintln!("error: could not write {}: {err}", path.display());
        self.failed_writes.borrow_mut().push(path.to_path_buf());
    }

    /// Writes a command's artifact files and lists those written.
    fn artifacts(&self, files: &[(PathBuf, String)]) {
        let wrote: Vec<String> = files
            .iter()
            .filter(|(path, contents)| self.write(path, contents))
            .map(|(path, _)| path.display().to_string())
            .collect();
        match wrote.split_last() {
            Some((last, [])) => println!("\nwrote {last}"),
            Some((last, rest)) => println!("\nwrote {} and {last}", rest.join(", ")),
            None => {}
        }
    }

    fn findings(&self, findings: &[String]) {
        for f in findings {
            println!("  * {f}");
        }
    }
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(err) => {
            eprintln!("{err}");
            return ExitCode::FAILURE;
        }
    };
    if cli.command == "lint" {
        return run_lint();
    }
    if cli.command == "perfgate" {
        return run_perfgate(&cli.paths, cli.max_drop);
    }
    let out = Output {
        csv: cli.csv_dir.is_some(),
        dir: cli.csv_dir.unwrap_or_else(|| PathBuf::from("results")),
        failed_writes: RefCell::new(Vec::new()),
    };
    dcm_sim::runner::set_jobs(cli.jobs);
    dcm_core::experiment::set_global_audit(cli.audit);
    let jobs = dcm_sim::runner::jobs();
    let mut perf = Perf::new();
    let f = cli.fidelity;
    let run_all = cli.command == "all";
    // `perf` is the committed performance baseline: the model-training and
    // trace runs (the long-standing reference numbers) plus the queue
    // microbenchmarks and the fleet sweep, accumulated into one perf.json.
    let run_perf = cli.command == "perf";
    let wants = |name: &str| run_all || cli.command == name || (run_perf && name == "fleet");
    let mut matched = false;
    println!(
        "(running with {jobs} worker thread{})",
        if jobs == 1 { "" } else { "s" }
    );

    // Table I first when needed: fig4/fig5/ablation reuse the trained
    // models.
    let needs_models = [
        "table1",
        "fig4a",
        "fig4b",
        "fig5",
        "ablation",
        "sensitivity",
        "extensions",
        "faults",
        "chaos",
        "league",
        "mesh",
        "trace",
        "explain",
    ]
    .iter()
    .any(|&c| wants(c))
        || run_perf;
    let trained = if needs_models {
        match perf.time("training", || table1::run_table1(f)) {
            Ok(t) => Some(t),
            Err(err) => {
                eprintln!("model training failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    if wants("fig2a") {
        matched = true;
        out.section("Fig. 2(a): MySQL throughput vs request-processing concurrency");
        let result = perf.time("fig2a", || fig2::run_fig2a(f));
        out.table("fig2a", &result.table());
        out.findings(&result.findings());
    }
    if wants("fig2b") {
        matched = true;
        out.section("Fig. 2(b): scaling out 1/1/1 -> 1/2/1 with default soft resources");
        let result = perf.time("fig2b", || fig2::run_fig2b(f));
        out.table("fig2b", &result.table());
        out.findings(&result.findings());
    }
    if wants("table1") {
        matched = true;
        let t1 = trained.as_ref().expect("trained above");
        out.section("Table I: model training parameters and prediction results");
        out.table("table1", &t1.table());
        out.findings(&t1.findings());
    }
    if wants("fig4a") {
        matched = true;
        let t1 = trained.as_ref().expect("trained above");
        let n_star = t1.app.report.model.optimal_concurrency();
        out.section("Fig. 4(a): Tomcat thread-pool validation (1/1/1)");
        let result = perf.time("fig4a", || fig4::run_fig4a(f, n_star));
        out.table("fig4a", &result.table());
        out.findings(&result.findings());
    }
    if wants("fig4b") {
        matched = true;
        let t1 = trained.as_ref().expect("trained above");
        let per_server = (t1.db.report.model.optimal_concurrency() / 2).max(1);
        out.section("Fig. 4(b): DB connection-pool validation (1/2/1)");
        let result = perf.time("fig4b", || fig4::run_fig4b(f, per_server));
        out.table("fig4b", &result.table());
        out.findings(&result.findings());
    }

    let models = trained.as_ref().map(|t1| dcm_core::controller::DcmModels {
        app: t1.app.report.model,
        db: t1.db.report.model,
    });

    if wants("fig5") {
        matched = true;
        let models = models.expect("trained above");
        out.section("Fig. 5: DCM vs EC2-AutoScale under the Large-Variation trace");
        let external = match &cli.trace {
            Some(path) => match fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| {
                    dcm_workload::traces::WorkloadTrace::from_csv(&text).map_err(|e| e.to_string())
                }) {
                Ok(trace) => {
                    println!("(driving with external trace {})\n", path.display());
                    Some(trace)
                }
                Err(err) => {
                    eprintln!("could not load trace {}: {err}", path.display());
                    return ExitCode::FAILURE;
                }
            },
            None => None,
        };
        if cli.seeds > 1 {
            let seeds: Vec<u64> = (0..cli.seeds as u64).map(|i| 42 + i * 1000).collect();
            let replicated = perf.time("fig5_replicated", || {
                fig5::run_fig5_replicated(f, models, &seeds)
            });
            out.table("fig5_replicated", &replicated.table());
            println!("({} seeds: {:?})", cli.seeds, replicated.seeds);
        }
        let result = perf.time("fig5", || match external {
            Some(trace) => fig5::run_fig5_on_trace(f, models, trace),
            None => fig5::run_fig5(f, models),
        });
        out.table("fig5_summary", &result.summary_table());
        println!("\n-- DCM timeline (30 s windows) --");
        out.table("fig5_dcm_timeline", &result.timeline_table(&result.dcm, 30));
        println!("\n-- EC2-AutoScale timeline (30 s windows) --");
        out.table("fig5_ec2_timeline", &result.timeline_table(&result.ec2, 30));
        out.findings(&result.findings());
    }
    if cli.command == "trace" || cli.command == "explain" || run_perf {
        matched = true;
        let models = models.expect("trained above");
        let experiment = cli.experiment.as_deref().unwrap_or("fig5");
        if cli.command == "explain" && experiment == "league" {
            out.section("Explain: the controller league ranking and the MPC plan journal");
            let result = perf.time("league", || league::run_league(f, models));
            out.table("league_standings", &result.standings_table());
            out.findings(&result.findings());
            println!("\n-- MPC decision journal (step trace) --\n");
            print!("{}", result.mpc_journal_explain);
        } else if experiment != "fig5" {
            eprintln!(
                "unknown experiment `{experiment}` for {} (only `fig5` has an obs \
                 pipeline; `explain` also accepts `league`)",
                cli.command
            );
            return ExitCode::FAILURE;
        } else if run_perf {
            // Timing reference only: same workload as `trace`, but the obs
            // artifacts stay untouched (they are regenerated by `repro
            // trace`, not by the perf baseline).
            out.section("Trace: Fig. 5 with the dcm-obs pipeline enabled (timing only)");
            let export = perf.time("trace", || trace_export::run_trace_export(f, models));
            out.table("trace_stats", &export.table());
        } else if cli.command == "explain" {
            out.section("Explain: every controller decision, with its inputs and reason");
            let export = perf.time("trace", || trace_export::run_trace_export(f, models));
            for run in [&export.dcm, &export.ec2] {
                let name = if run.label == "dcm" {
                    "DCM"
                } else {
                    "EC2-AutoScale"
                };
                println!("-- {name} decision journal --\n");
                print!("{}", run.obs.journal.render_explain(false));
            }
        } else {
            out.section("Trace: Fig. 5 with the dcm-obs pipeline enabled");
            let export = perf.time("trace", || trace_export::run_trace_export(f, models));
            out.table("trace_stats", &export.table());
            match export.write_artifacts(&cli.obs_dir) {
                Ok(paths) => {
                    println!();
                    for p in paths {
                        println!("wrote {}", p.display());
                    }
                }
                Err(err) => out.write_failed(&cli.obs_dir, &err),
            }
        }
    }
    if wants("ablation") {
        matched = true;
        let models = models.expect("trained above");
        out.section("Ablation: which actuation carries DCM's benefit");
        let result = perf.time("ablation", || ablation::run_actuation_ablation(f, models));
        out.table("ablation", &result.table());
    }
    if wants("sensitivity") {
        matched = true;
        let models = models.expect("trained above");
        out.section("Sensitivity: DCM with mis-estimated N*");
        let result = perf.time("sensitivity", || {
            ablation::run_sensitivity(f, models, &[0.5, 0.75, 1.0, 1.5, 2.0, 4.0])
        });
        out.table("sensitivity", &result.table());
    }
    if cli.command == "export-trace" {
        matched = true;
        let dir = &out.dir;
        let trace = dcm_workload::traces::large_variation();
        match fs::create_dir_all(dir)
            .and_then(|()| fs::write(dir.join("large_variation.csv"), trace.to_csv()))
        {
            Ok(()) => println!(
                "wrote {} ({} change points, peak {} users)",
                dir.join("large_variation.csv").display(),
                trace.points().len(),
                trace.peak_users()
            ),
            Err(err) => {
                eprintln!("could not write trace: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    if wants("gamma") {
        matched = true;
        out.section("Scaling efficiency of the bottleneck tier (the Eq. 4 gamma)");
        let result = perf.time("gamma", || gamma::run_gamma_sweep(f, 4));
        out.table("gamma", &result.table());
        out.findings(&result.findings());
    }
    if wants("faults") {
        matched = true;
        let models = models.expect("trained above");
        out.section("Fault injection: VM boot failures");
        let result = perf.time("faults", || {
            ablation::run_fault_injection(f, models, &[0.0, 0.2, 0.5])
        });
        out.table("faults", &result.table());
    }
    if wants("extensions") {
        matched = true;
        let models = models.expect("trained above");
        out.section("Extensions: reactive vs predictive vs online-refit DCM");
        let result = perf.time("extensions", || ablation::run_extensions(f, models));
        out.table("extensions", &result.table());
    }
    if wants("chaos") {
        matched = true;
        let models = models.expect("trained above");
        out.section("Chaos: VM crash + straggler injection with retry resilience");
        let result = perf.time("chaos", || chaos::run_chaos(f, models));
        out.table("chaos", &result.table());
        out.findings(&result.findings());
        let dir = &out.dir;
        out.artifacts(&[
            (dir.join("chaos.json"), result.to_json()),
            (dir.join("chaos.csv"), result.table().to_csv()),
        ]);
    }

    // `league` runs the full controller × trace matrix; like `hunt` it is
    // not part of `all`, and it shares a CI job with `mesh`.
    if cli.command == "league" {
        matched = true;
        let models = models.expect("trained above");
        out.section("League: every controller on every trace, ranked");
        let result = perf.time("league", || league::run_league(f, models));
        out.table("league_standings", &result.standings_table());
        println!();
        out.table("league", &result.table());
        out.findings(&result.findings());
        let dir = &out.dir;
        out.artifacts(&[
            (dir.join("league.json"), result.to_json()),
            (dir.join("league.csv"), result.to_csv()),
            (
                dir.join("league_mpc.journal.json"),
                result.mpc_journal_json.clone(),
            ),
        ]);
    }

    // `mesh` takes the controllers off the three-tier chain: a fan-out
    // microservice DAG with a warming cache and a mixed VM fleet, run by
    // the league's matrix harness. Like `league` it is not part of `all`.
    if cli.command == "mesh" {
        matched = true;
        let models = models.expect("trained above");
        out.section("Mesh: DCM vs MPC vs EC2 on a fan-out DAG with warming cache");
        let result = perf.time("mesh", || mesh::run_mesh(f, models));
        out.table("mesh", &result.table());
        out.findings(&result.findings());
        let dir = &out.dir;
        out.artifacts(&[
            (dir.join("mesh.json"), result.to_json()),
            (dir.join("mesh.csv"), result.to_csv()),
        ]);
    }

    // Wall-clock microbenchmarks: like `league`, not part of `all`.
    if cli.command == "queuebench" || run_perf {
        matched = true;
        out.section("Queue microbenchmarks: the engine under seeded operation streams");
        let result = queuebench::run_queuebench(f);
        out.table("queuebench", &result.table());
        out.findings(&result.findings());
        for p in &result.points {
            perf.record_raw(
                &format!("queue_{}_{}", p.profile, p.backend),
                p.wall_secs,
                p.ops,
            );
        }
    }
    if wants("fleet") {
        matched = true;
        out.section("Fleet-scale DES: thousand-server tiers, cohort-aggregated users");
        let result = perf.time("fleet", || fleet::run_fleet(f));
        out.table("fleet", &result.table());
        out.findings(&result.findings());
        let (allocated, reused) = result.total_slab();
        perf.record_slab("fleet", allocated, reused);
        perf.record_peak_rss("fleet");
        let dir = &out.dir;
        out.artifacts(&[
            (dir.join("fleet.json"), result.to_json()),
            (dir.join("fleet.csv"), result.table().to_csv()),
        ]);
    }

    let mut gate_failed = false;
    if wants("validate") {
        matched = true;
        out.section("Validate: DES vs exact queueing theory (MVA oracle)");
        let result = perf.time("validate", || validate::run_validate(f));
        out.table("validate", &result.table());
        out.findings(&result.findings());
        let dir = &out.dir;
        out.artifacts(&[
            (dir.join("validate.json"), result.to_json()),
            (dir.join("validate.csv"), result.table().to_csv()),
        ]);
        if !result.passed() {
            eprintln!(
                "validate: conformance gate FAILED (per-user worst {:.3}% / {:.3}% \
                 zero-overhead / load-dependent vs gates {:.0}% / {:.0}%; cohort \
                 worst {:.3}% / {:.3}% under the same gates)",
                100.0 * result.max_rel_err(dcm_oracle::ScenarioKind::ZeroOverhead),
                100.0 * result.max_rel_err(dcm_oracle::ScenarioKind::LoadDependent),
                100.0 * result.tol_zero,
                100.0 * result.tol_law,
                100.0 * result.cohort_max_rel_err(dcm_oracle::ScenarioKind::ZeroOverhead),
                100.0 * result.cohort_max_rel_err(dcm_oracle::ScenarioKind::LoadDependent),
            );
            gate_failed = true;
        }
    }

    // `hunt` is deliberately not part of `all`: it is an adversarial
    // campaign with its own budget and exit semantics, run by the CI
    // `hunt` job and by hand when hunting for breaking workloads.
    if cli.command == "hunt" {
        matched = true;
        out.section("Hunt: adversarial scenario fuzzing against invariant oracles");
        let result = perf.time("hunt", || hunt::run_hunt(cli.budget, hunt::SEED));
        out.table("hunt", &result.table());
        out.findings(&result.findings());
        let dir = &out.dir;
        out.artifacts(&[
            (dir.join("hunt.json"), result.to_json()),
            (dir.join("hunt.csv"), result.table().to_csv()),
        ]);
        if !result.passed() {
            eprint!("{}", result.log.render_text());
            let pins = PathBuf::from("tests/regressions");
            match result.write_regressions(&pins) {
                Ok(paths) => {
                    for p in paths {
                        eprintln!("pinned minimized regression case at {}", p.display());
                    }
                }
                Err(err) => out.write_failed(&pins, &err),
            }
            eprintln!(
                "hunt: campaign FAILED ({} of {} scenarios violated an oracle)",
                result.violations.len(),
                result.budget
            );
            gate_failed = true;
        }
    }

    if !matched {
        eprintln!("unknown command `{}`\n{}", cli.command, usage());
        return ExitCode::FAILURE;
    }
    perf.write(&out, &cli.command, f, jobs);
    let failed_writes = out.failed_writes.into_inner();
    if !failed_writes.is_empty() {
        eprintln!("repro: {} artifact write(s) failed", failed_writes.len());
        return ExitCode::FAILURE;
    }
    if gate_failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
