//! Controller league: every controller in the repo — DCM, the
//! EC2-AutoScale baseline, the MVA-predictive MPC planner, and the
//! baseline zoo (M/M/c threshold staffing, Holt-Winters predictive
//! staffing) — runs the same trace library (step, flash crowd, sine, and
//! a chaos trace with an app-VM crash, a DB straggler, and transient
//! faults) and is ranked on the numbers that matter operationally:
//!
//! * **SLO-violation seconds** — 5-second windows whose mean response
//!   time exceeds the 1 s SLO, times the window length.
//! * **VM-hours** — the resource bill.
//! * **decision latency** — candidate-plan evaluations the controller
//!   performed ([`dcm_core::controller::Controller::planner_evals`]), a
//!   deterministic proxy (wall clocks are banned in Strict crates).
//! * **retry amplification** — tier-entry attempts per logical request
//!   (only the chaos trace arms client retries).
//!
//! Every cell builds its own world from the same seed, so the matrix is
//! bit-identical for every `--jobs` value. The MPC step-trace run also
//! captures its decision journal (plan provenance: candidates evaluated,
//! predicted throughput/response, chosen plan, rolling prediction error),
//! exported as `results/league_mpc.journal.json`. The mesh bench runs its
//! matrix through the same harness (`run_matrix`).

use dcm_core::controller::DcmModels;
use dcm_core::experiment::{ControllerSpec, Experiment, ObsArtifacts, ObsConfig, TraceRunResult};
use dcm_core::predictor::HoltConfig;
use dcm_core::zoo::StaffingConfig;
use dcm_sim::time::{SimDuration, SimTime};
use dcm_workload::traces;

use crate::format::{num, TextTable};

use super::{chaos, Fidelity};

/// Response-time windows used for SLO accounting, in seconds.
pub(crate) const WINDOW_SECS: f64 = 5.0;
/// The response-time SLO every controller is judged against.
pub(crate) const SLO_SECS: f64 = 1.0;

/// The league's contestants, in ranking-table order: DCM, EC2-AutoScale,
/// MPC, M/M/c threshold staffing and Holt-Winters staffing.
pub fn contestants(models: DcmModels) -> [ControllerSpec; 5] {
    [
        ControllerSpec::dcm(models),
        ControllerSpec::ec2(),
        ControllerSpec::mpc(models),
        ControllerSpec::Mmc(StaffingConfig::default()),
        ControllerSpec::HoltWinters {
            staffing: StaffingConfig::default(),
            holt: HoltConfig::default(),
        },
    ]
}

/// The trace library every contestant faces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Fig. 5-style ramp to a plateau.
    Step,
    /// Flash crowd: sudden spike, then back to base load.
    Flash,
    /// Slow sinusoidal swing (tests scale-in as much as scale-out).
    Sine,
    /// The step trace plus the chaos fault schedule (crash, straggler,
    /// transient failures) with client retries and deadlines armed.
    Chaos,
}

impl TraceKind {
    /// All traces, in matrix order.
    pub const ALL: [TraceKind; 4] = [
        TraceKind::Step,
        TraceKind::Flash,
        TraceKind::Sine,
        TraceKind::Chaos,
    ];

    /// Short artifact name.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Step => "step",
            TraceKind::Flash => "flash",
            TraceKind::Sine => "sine",
            TraceKind::Chaos => "chaos",
        }
    }
}

/// The experiment one league cell runs. Identical for every controller
/// facing the same trace (same seed, same horizon), so the matrix compares
/// controllers and nothing else. The chaos trace is
/// [`chaos::chaos_config`]'s experiment.
pub fn league_trace_config(kind: TraceKind, fidelity: Fidelity) -> Experiment {
    let horizon_secs = fidelity.trace_horizon_secs();
    let trace = match kind {
        TraceKind::Step => traces::step(60, 240, 30.0),
        TraceKind::Flash => traces::flash_crowd(60, 280, horizon_secs * 0.35, horizon_secs * 0.25),
        TraceKind::Sine => traces::sine(60, 220, horizon_secs / 2.0, horizon_secs, 10.0),
        TraceKind::Chaos => return chaos::chaos_config(fidelity).0,
    };
    Experiment {
        horizon: SimTime::from_secs_f64(horizon_secs),
        seed: 4242,
        ..Experiment::figure5(trace)
    }
}

/// One (controller, trace) cell of a controller matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct LeagueCell {
    /// Controller display name.
    pub controller: &'static str,
    /// Trace name.
    pub trace: &'static str,
    /// Successful completions over the run.
    pub completed: u64,
    /// Completions per second over the run.
    pub goodput: f64,
    /// Fraction of requests meeting the 1 s SLO.
    pub slo_attainment_1s: f64,
    /// Seconds spent in 5 s windows whose mean RT exceeded the SLO.
    pub slo_violation_secs: f64,
    /// Total VM-seconds across tiers, in hours.
    pub vm_hours: f64,
    /// Total dollars across tiers — the metric that separates VM flavors
    /// VM-hours cannot.
    pub vm_dollars: f64,
    /// Candidate-plan evaluations (deterministic decision-latency proxy).
    pub planner_evals: u64,
    /// Tier-entry attempts per logical client request.
    pub retry_amplification: f64,
    /// Scaling actions the controller actually applied.
    pub actions: usize,
}

/// Reduces one run to its matrix metrics.
pub fn summarize_cell(trace: TraceKind, run: &TraceRunResult) -> LeagueCell {
    let overall = run.overall();
    let series = run.series(SimDuration::from_secs_f64(WINDOW_SECS));
    let violated = series.mean_rt.iter().filter(|&(_, v)| v > SLO_SECS).count();
    let logical = run.completions.len().max(1) as u64;
    LeagueCell {
        controller: run.controller,
        trace: trace.name(),
        completed: run.counters.completed,
        goodput: overall.throughput(),
        slo_attainment_1s: overall.sla_attainment(SLO_SECS),
        slo_violation_secs: violated as f64 * WINDOW_SECS,
        vm_hours: run.total_vm_seconds() / 3600.0,
        vm_dollars: run.total_vm_cost(),
        planner_evals: run.planner_evals,
        retry_amplification: run.counters.submitted as f64 / logical as f64,
        actions: run.actions.len(),
    }
}

/// Runs every (controller, trace) cell of a matrix, controller-major, in
/// parallel when jobs > 1: each cell builds its own world from
/// `experiment`, so the result is bit-identical for every `--jobs` value.
/// Returns each cell's summary with the obs artifacts its experiment
/// captured, if it asked for them.
pub(crate) fn run_matrix<F>(
    controllers: &[ControllerSpec],
    traces: &[TraceKind],
    experiment: F,
) -> Vec<(LeagueCell, Option<ObsArtifacts>)>
where
    F: Fn(&ControllerSpec, TraceKind) -> Experiment + Sync,
{
    let cells: Vec<(ControllerSpec, TraceKind)> = controllers
        .iter()
        .flat_map(|c| traces.iter().map(move |&t| (c.clone(), t)))
        .collect();
    dcm_sim::runner::run_ordered(cells, |(controller, trace)| {
        let mut run = experiment(&controller, trace)
            .run(&controller)
            .expect("a valid preset");
        (summarize_cell(trace, &run), run.obs.take())
    })
}

/// One controller's aggregate across the whole trace library, ranked.
#[derive(Debug, Clone, PartialEq)]
pub struct LeagueStanding {
    /// 1-based rank (1 = winner).
    pub rank: usize,
    /// Controller display name.
    pub controller: &'static str,
    /// SLO-violation seconds summed across traces.
    pub slo_violation_secs: f64,
    /// VM-hours summed across traces.
    pub vm_hours: f64,
    /// Plan evaluations summed across traces.
    pub planner_evals: u64,
    /// Mean retry amplification across traces.
    pub retry_amplification: f64,
}

/// The full league result: the raw matrix, the ranking, and the MPC
/// decision journal captured from the step-trace run.
#[derive(Debug, Clone)]
pub struct League {
    /// All cells, controller-major in [`contestants`] order, traces in
    /// [`TraceKind::ALL`] order.
    pub cells: Vec<LeagueCell>,
    /// Controllers ranked by (SLO-violation seconds, VM-hours, plan
    /// evaluations) ascending.
    pub standings: Vec<LeagueStanding>,
    /// Run length per cell in seconds.
    pub horizon_secs: f64,
    /// Stable JSON of the MPC step-trace decision journal (plan
    /// provenance: candidates, predictions, chosen plan, prediction
    /// error). Written to `results/league_mpc.journal.json`.
    pub mpc_journal_json: String,
    /// Human-readable journal (for `repro explain league`).
    pub mpc_journal_explain: String,
}

/// Runs the full matrix and ranks the contestants.
pub fn run_league(fidelity: Fidelity, models: DcmModels) -> League {
    let controllers = contestants(models);
    let runs = run_matrix(&controllers, &TraceKind::ALL, |controller, trace| {
        let mut experiment = league_trace_config(trace, fidelity);
        if matches!(controller, ControllerSpec::Mpc { .. }) && trace == TraceKind::Step {
            // Capture plan provenance once, on the clean ramp.
            experiment.obs = Some(ObsConfig::default());
        }
        experiment
    });

    let (cells, obs): (Vec<LeagueCell>, Vec<Option<ObsArtifacts>>) = runs.into_iter().unzip();
    let journal = obs
        .into_iter()
        .flatten()
        .next()
        .expect("the MPC step cell runs with obs")
        .journal;
    let standings = standings_of(&controllers, &cells);
    League {
        cells,
        standings,
        horizon_secs: league_trace_config(TraceKind::Step, fidelity)
            .horizon
            .as_secs_f64(),
        mpc_journal_json: journal.to_json(),
        mpc_journal_explain: journal.render_explain(false),
    }
}

fn standings_of(controllers: &[ControllerSpec], cells: &[LeagueCell]) -> Vec<LeagueStanding> {
    let mut standings: Vec<LeagueStanding> = controllers
        .iter()
        .map(|c| {
            let mine: Vec<&LeagueCell> = cells
                .iter()
                .filter(|cell| cell.controller == c.name())
                .collect();
            let n = mine.len().max(1) as f64;
            LeagueStanding {
                rank: 0,
                controller: c.name(),
                slo_violation_secs: mine.iter().map(|c| c.slo_violation_secs).sum(),
                vm_hours: mine.iter().map(|c| c.vm_hours).sum(),
                planner_evals: mine.iter().map(|c| c.planner_evals).sum(),
                retry_amplification: mine.iter().map(|c| c.retry_amplification).sum::<f64>() / n,
            }
        })
        .collect();
    standings.sort_by(|a, b| {
        a.slo_violation_secs
            .total_cmp(&b.slo_violation_secs)
            .then(a.vm_hours.total_cmp(&b.vm_hours))
            .then(a.planner_evals.cmp(&b.planner_evals))
            .then(a.controller.cmp(b.controller))
    });
    for (i, s) in standings.iter_mut().enumerate() {
        s.rank = i + 1;
    }
    standings
}

/// The cell of `controller` (a display name) on `trace`.
pub(crate) fn find_cell<'a>(
    cells: &'a [LeagueCell],
    controller: &str,
    trace: TraceKind,
) -> &'a LeagueCell {
    cells
        .iter()
        .find(|c| c.controller == controller && c.trace == trace.name())
        .expect("every (controller, trace) pair ran")
}

/// The columns of a matrix artifact: JSON/CSV key and table header. The
/// league writes all but `vm_dollars`, the mesh bench all but
/// `retry_amplification`.
const COLUMNS: [(&str, &str); 11] = [
    ("controller", "controller"),
    ("trace", "trace"),
    ("completed", "completed"),
    ("goodput", "goodput"),
    ("slo_attainment_1s", "SLO att."),
    ("slo_violation_secs", "SLO-viol (s)"),
    ("vm_hours", "VM-hours"),
    ("vm_dollars", "dollars"),
    ("planner_evals", "plan evals"),
    ("retry_amplification", "retry amp"),
    ("actions", "actions"),
];

/// `cell`'s columns other than `skip`, as `(key, JSON/CSV value, table
/// value)`: full precision for the files, rounded for the table.
fn row(cell: &LeagueCell, skip: &str) -> Vec<(&'static str, String, String)> {
    let both = |s: String| (s.clone(), s);
    let real = |v: f64, shown: usize| (format!("{v:.6}"), num(v, shown));
    let values = [
        both(cell.controller.to_string()),
        both(cell.trace.to_string()),
        both(cell.completed.to_string()),
        real(cell.goodput, 1),
        real(cell.slo_attainment_1s, 3),
        real(cell.slo_violation_secs, 0),
        real(cell.vm_hours, 3),
        real(cell.vm_dollars, 4),
        both(cell.planner_evals.to_string()),
        real(cell.retry_amplification, 3),
        both(cell.actions.to_string()),
    ];
    COLUMNS
        .iter()
        .zip(values)
        .filter(|((key, _), _)| *key != skip)
        .map(|((key, _), (raw, shown))| (*key, raw, shown))
        .collect()
}

/// The table of `cells` without the `skip` column, one row per cell.
pub(crate) fn cells_table(cells: &[LeagueCell], skip: &str) -> TextTable {
    let headers = COLUMNS.iter().filter(|(key, _)| *key != skip);
    let mut t = TextTable::new(headers.map(|(_, header)| *header));
    for cell in cells {
        t.row(row(cell, skip).into_iter().map(|(_, _, shown)| shown));
    }
    t
}

/// The CSV of `cells` without the `skip` column.
pub(crate) fn cells_csv(cells: &[LeagueCell], skip: &str) -> String {
    let keys: Vec<&str> = COLUMNS
        .iter()
        .map(|(key, _)| *key)
        .filter(|key| *key != skip)
        .collect();
    let mut out = keys.join(",") + "\n";
    for cell in cells {
        let values: Vec<String> = row(cell, skip).into_iter().map(|(_, raw, _)| raw).collect();
        out.push_str(&values.join(","));
        out.push('\n');
    }
    out
}

/// The `"cells"` member of a matrix's JSON: one object per cell without
/// the `skip` column, in a fixed key order.
pub(crate) fn cells_json(cells: &[LeagueCell], skip: &str) -> String {
    let mut out = String::from("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        let fields: Vec<String> = row(cell, skip)
            .into_iter()
            .map(|(key, raw, _)| match key {
                "controller" | "trace" => format!("\"{key}\": \"{raw}\""),
                _ => format!("\"{key}\": {raw}"),
            })
            .collect();
        let sep = if i + 1 < cells.len() { "," } else { "" };
        out.push_str(&format!("    {{{}}}{sep}\n", fields.join(", ")));
    }
    out.push_str("  ]\n");
    out
}

impl League {
    /// A cell by controller display name and trace kind.
    pub fn cell(&self, controller: &str, trace: TraceKind) -> &LeagueCell {
        find_cell(&self.cells, controller, trace)
    }

    /// The ranking table (the headline of `repro explain league`).
    pub fn standings_table(&self) -> TextTable {
        let mut t = TextTable::new([
            "rank",
            "controller",
            "SLO-violation (s)",
            "VM-hours",
            "plan evals",
            "retry amp",
        ]);
        for s in &self.standings {
            t.row([
                s.rank.to_string(),
                s.controller.to_string(),
                num(s.slo_violation_secs, 0),
                num(s.vm_hours, 3),
                s.planner_evals.to_string(),
                num(s.retry_amplification, 3),
            ]);
        }
        t
    }

    /// The full matrix table, one row per cell.
    pub fn table(&self) -> TextTable {
        cells_table(&self.cells, "vm_dollars")
    }

    /// Stable JSON for `results/league.json` (hand-rolled; keys and shapes
    /// are fixed for downstream tooling and the determinism check).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"horizon_secs\": {:.6},\n  \"standings\": [\n",
            self.horizon_secs
        );
        for (i, s) in self.standings.iter().enumerate() {
            let sep = if i + 1 < self.standings.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!(
                "    {{\"rank\": {}, \"controller\": \"{}\", \
                 \"slo_violation_secs\": {:.6}, \"vm_hours\": {:.6}, \
                 \"planner_evals\": {}, \"retry_amplification\": {:.6}}}{sep}\n",
                s.rank,
                s.controller,
                s.slo_violation_secs,
                s.vm_hours,
                s.planner_evals,
                s.retry_amplification,
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&cells_json(&self.cells, "vm_dollars"));
        out.push_str("}\n");
        out
    }

    /// CSV of the raw matrix for `results/league.csv`.
    pub fn to_csv(&self) -> String {
        cells_csv(&self.cells, "vm_dollars")
    }

    /// Self-checks against the league's qualitative claims.
    pub fn findings(&self) -> Vec<String> {
        let mut out = Vec::new();
        let winner = &self.standings[0];
        out.push(format!(
            "ranking: {} wins the league ({} SLO-violation seconds, {:.3} \
             VM-hours across {} traces)",
            winner.controller,
            num(winner.slo_violation_secs, 0),
            winner.vm_hours,
            TraceKind::ALL.len()
        ));
        for trace in [TraceKind::Step, TraceKind::Flash] {
            let mpc = self.cell("MPC", trace);
            let dcm = self.cell("DCM", trace);
            out.push(format!(
                "{}: MPC SLO attainment {:.3} at {:.3} VM-hours vs DCM {:.3} \
                 at {:.3} VM-hours (the planner buys the SLO no dearer than \
                 the reactive controller)",
                trace.name(),
                mpc.slo_attainment_1s,
                mpc.vm_hours,
                dcm.slo_attainment_1s,
                dcm.vm_hours,
            ));
        }
        let chaos_mpc = self.cell("MPC", TraceKind::Chaos);
        out.push(format!(
            "chaos: MPC keeps retry amplification at {:.3} with {} \
             SLO-violation seconds under crash + straggler + transient faults",
            chaos_mpc.retry_amplification,
            num(chaos_mpc.slo_violation_secs, 0),
        ));
        out.push(format!(
            "decision latency: MPC paid {} plan evaluations; every model-free \
             baseline paid 0",
            self.cell("MPC", TraceKind::Step).planner_evals
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn league_ranks_all_controllers_on_all_traces() {
        let league = run_league(Fidelity::Quick, DcmModels::reference());
        assert_eq!(
            league.cells.len(),
            contestants(DcmModels::reference()).len() * TraceKind::ALL.len()
        );
        assert_eq!(
            league.standings.len(),
            contestants(DcmModels::reference()).len()
        );
        // Ranks are a permutation 1..=n and the sort keys are respected.
        for (i, s) in league.standings.iter().enumerate() {
            assert_eq!(s.rank, i + 1);
        }
        for pair in league.standings.windows(2) {
            assert!(
                pair[0].slo_violation_secs <= pair[1].slo_violation_secs
                    || (pair[0].slo_violation_secs == pair[1].slo_violation_secs
                        && pair[0].vm_hours <= pair[1].vm_hours)
            );
        }
        // Every cell did real work.
        for cell in &league.cells {
            assert!(cell.completed > 0, "{cell:?}");
            assert!(cell.vm_hours > 0.0, "{cell:?}");
        }
        // Only MPC plans; every baseline is model-free per the proxy.
        for trace in TraceKind::ALL {
            assert!(league.cell("MPC", trace).planner_evals > 0);
            for kind in ["DCM", "EC2-AutoScale", "MMC-Threshold", "Holt-Winters"] {
                assert_eq!(league.cell(kind, trace).planner_evals, 0);
            }
        }
        // Chaos is the only trace that arms client retries.
        assert!(league.cell("DCM", TraceKind::Chaos).retry_amplification >= 1.0);
        // Artifacts are well-formed.
        assert!(league.to_json().ends_with("}\n"));
        assert_eq!(league.to_csv().lines().count(), 1 + league.cells.len());
        assert!(league.findings().len() >= 4);
        assert!(league.mpc_journal_json.contains("\"plan\""));
        assert!(!league.mpc_journal_explain.is_empty());
    }

    #[test]
    fn mpc_meets_slo_no_dearer_than_dcm_on_step_and_flash() {
        // The acceptance claim, at quick fidelity: on the step and flash
        // traces MPC holds the SLO as well as DCM (within one accounting
        // window — the shared ramp transient dominates a 240 s run) while
        // spending no more than DCM plus a 5 % tolerance. At full
        // fidelity (the committed artifact) MPC is strictly cheaper than
        // DCM on both traces; the quick bounds here are the regression
        // guard that keeps that result from silently rotting.
        let league = run_league(Fidelity::Quick, DcmModels::reference());
        for trace in [TraceKind::Step, TraceKind::Flash] {
            let mpc = league.cell("MPC", trace);
            let dcm = league.cell("DCM", trace);
            assert!(
                mpc.slo_violation_secs <= dcm.slo_violation_secs + WINDOW_SECS,
                "MPC must hold the SLO as well as DCM on {}: MPC {} s vs DCM {} s violated",
                trace.name(),
                mpc.slo_violation_secs,
                dcm.slo_violation_secs
            );
            assert!(
                mpc.vm_hours <= dcm.vm_hours * 1.05,
                "MPC must not out-spend DCM on {}: MPC {:.4} vs DCM {:.4} VM-hours",
                trace.name(),
                mpc.vm_hours,
                dcm.vm_hours
            );
        }
        // On the flash crowd the planner's pre-provisioning pays off
        // outright: strictly better attainment than the reactive DCM.
        let mpc = league.cell("MPC", TraceKind::Flash);
        let dcm = league.cell("DCM", TraceKind::Flash);
        assert!(
            mpc.slo_attainment_1s > dcm.slo_attainment_1s,
            "MPC must beat DCM's attainment on flash: {:.3} vs {:.3}",
            mpc.slo_attainment_1s,
            dcm.slo_attainment_1s
        );
    }

    #[test]
    fn mpc_journal_records_prediction_error() {
        // Satellite: the full-stack half of predicted-vs-realized
        // conformance. The MPC journal from the clean step ramp must carry
        // plan provenance with a rolling prediction error, and once the
        // plateau settles the planner's throughput prediction must track
        // the realized rate to within 15 %.
        let league = run_league(Fidelity::Quick, DcmModels::reference());
        let json = &league.mpc_journal_json;
        for field in [
            "\"candidates\"",
            "\"predicted_throughput\"",
            "\"predicted_response\"",
            "\"chosen\"",
            "\"reason\"",
            "\"prediction_error\"",
        ] {
            assert!(json.contains(field), "journal missing {field}");
        }
        let errors: Vec<f64> = json
            .lines()
            .filter_map(|line| {
                let idx = line.find("\"prediction_error\": ")?;
                let rest = &line[idx + "\"prediction_error\": ".len()..];
                let end = rest.find(['}', ','])?;
                rest[..end].trim().parse::<f64>().ok()
            })
            .collect();
        assert!(
            !errors.is_empty(),
            "at least one tick must realize a prior prediction"
        );
        let tail = &errors[errors.len() - errors.len().min(10)..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            mean < 0.15,
            "late-run prediction error must settle under 15 %: mean {mean:.3} of {tail:?}"
        );
    }

    #[test]
    fn league_is_identical_across_worker_counts() {
        // The determinism contract behind `--jobs`: re-running the matrix
        // must reproduce the artifacts byte for byte.
        dcm_sim::runner::set_jobs(1);
        let serial = run_league(Fidelity::Quick, DcmModels::reference());
        dcm_sim::runner::set_jobs(4);
        let parallel = run_league(Fidelity::Quick, DcmModels::reference());
        dcm_sim::runner::set_jobs(0);
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(serial.mpc_journal_json, parallel.mpc_journal_json);
    }
}
