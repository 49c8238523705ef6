//! Validate: the DES against exact queueing theory.
//!
//! Sweeps the [`dcm_oracle`] conformance grid — topologies whose analytic
//! steady state is known exactly (product-form networks solved by
//! load-dependent MVA) — and reports the relative error of the simulator's
//! throughput and per-node residence at every `(scenario, population)`
//! point. Zero-overhead points must land within 2 %, load-dependent points
//! within 5 %, the asymptotic bounds must never be violated, and every
//! point's conservation audit must be clean.

use dcm_oracle::{default_grid, run_scenario, ConformancePoint, ScenarioKind};
use dcm_sim::rng::derive_seed;

use crate::format::{num, TextTable};

use super::Fidelity;

/// Base seed for the conformance sweep (point seeds derive from it).
const SEED: u64 = 20170607;

/// Seed-index offsets of the grid's two families, the chain and the mesh:
/// point `j` of scenario `i` draws `derive_seed(SEED, offset | i << 8 | j)`.
const STREAMS: [u64; 2] = [0, 0x4D << 16];

/// Cohort size for the aggregated-generator column: every grid point is
/// re-run with users multiplexed into cohorts of this size, and gated
/// against the same oracle.
const COHORT_SIZE: u32 = 16;

/// Tolerances for (zero-overhead, load-dependent) points at each fidelity.
/// Quick shrinks the measurement windows 10×, so the Monte-Carlo noise
/// floor rises by ~√10 and the gates widen accordingly.
fn tolerances(fidelity: Fidelity) -> (f64, f64) {
    match fidelity {
        Fidelity::Quick => (0.10, 0.12),
        Fidelity::Full => (0.02, 0.05),
    }
}

/// One grid point measured twice: once with the per-user generator, once
/// with the cohort-aggregated generator (same seed, same oracle).
#[derive(Debug, Clone)]
pub struct ValidatePoint {
    /// The per-user DES measurement.
    pub per_user: ConformancePoint,
    /// The cohort-aggregated DES measurement.
    pub cohort: ConformancePoint,
}

/// The conformance sweep results.
#[derive(Debug, Clone)]
pub struct Validate {
    /// Every measured grid point, chain then mesh, in grid order.
    pub points: Vec<ValidatePoint>,
    /// The zero-overhead tolerance applied.
    pub tol_zero: f64,
    /// The load-dependent tolerance applied.
    pub tol_law: f64,
    /// Cohort size used for the aggregated column.
    pub cohort_size: u32,
}

/// Runs the whole conformance grid (points fan out across workers;
/// each builds its own world, so results are bit-identical for every
/// `--jobs` value).
pub fn run_validate(fidelity: Fidelity) -> Validate {
    let (tol_zero, tol_law) = tolerances(fidelity);
    let scale = match fidelity {
        Fidelity::Quick => 0.1,
        Fidelity::Full => 1.0,
    };
    let mut jobs = Vec::new();
    for (family, stream) in default_grid().into_iter().zip(STREAMS) {
        for (i, scenario) in family.into_iter().enumerate() {
            for (j, &population) in scenario.populations.iter().enumerate() {
                let mut s = scenario.clone();
                s.warmup *= scale;
                s.measure *= scale;
                let seed = derive_seed(SEED, stream | (i as u64) << 8 | j as u64);
                jobs.push((s, population, seed));
            }
        }
    }
    let points = dcm_sim::runner::run_ordered(jobs, |(scenario, population, seed)| {
        let point = |cohort_size| {
            run_scenario(&scenario, population, seed, cohort_size)
                .expect("every grid window sees completions")
        };
        ValidatePoint {
            per_user: point(1),
            cohort: point(COHORT_SIZE),
        }
    });
    Validate {
        points,
        tol_zero,
        tol_law,
        cohort_size: COHORT_SIZE,
    }
}

impl Validate {
    /// Whether one measurement satisfies its gate: errors within the
    /// tolerance of its oracle kind, bound respected, audit clean.
    pub fn point_ok(&self, p: &ConformancePoint) -> bool {
        let tolerance = match p.kind {
            ScenarioKind::ZeroOverhead => self.tol_zero,
            ScenarioKind::LoadDependent => self.tol_law,
        };
        p.max_rel_err() <= tolerance && p.bound_ok && p.audit_violations == 0
    }

    /// Whether every point passed, per-user and cohort alike.
    pub fn passed(&self) -> bool {
        self.points
            .iter()
            .all(|p| self.point_ok(&p.per_user) && self.point_ok(&p.cohort))
    }

    /// The largest relative error across the chosen measurement of the
    /// points of the given kind.
    fn worst(&self, kind: ScenarioKind, pick: fn(&ValidatePoint) -> &ConformancePoint) -> f64 {
        self.points
            .iter()
            .map(pick)
            .filter(|p| p.kind == kind)
            .map(ConformancePoint::max_rel_err)
            .fold(0.0, f64::max)
    }

    /// The largest per-user relative error across points of the given kind.
    pub fn max_rel_err(&self, kind: ScenarioKind) -> f64 {
        self.worst(kind, |p| &p.per_user)
    }

    /// The largest cohort-aggregated relative error across points of the
    /// given kind.
    pub fn cohort_max_rel_err(&self, kind: ScenarioKind) -> f64 {
        self.worst(kind, |p| &p.cohort)
    }

    /// The per-point conformance table. The residence columns are the web
    /// and app nodes and the worst node past them (the DB on the chain).
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new([
            "scenario",
            "kind",
            "N",
            "X des",
            "X mva",
            "X err%",
            "R_web err%",
            "R_app err%",
            "R_rest err%",
            "bound ok",
            "audits",
            "pass",
            "coh X err%",
            "coh max err%",
            "coh pass",
        ]);
        let yes = |ok: bool| if ok { "yes" } else { "NO" }.to_string();
        for pair in &self.points {
            let p = &pair.per_user;
            let c = &pair.cohort;
            let err = |m: usize| p.residence.get(m).map_or(0.0, |(_, t)| t.rel_err);
            let rest = p
                .residence
                .iter()
                .skip(2)
                .map(|(_, t)| t.rel_err)
                .fold(0.0, f64::max);
            t.row([
                p.scenario.to_string(),
                kind_label(p.kind).to_string(),
                p.population.to_string(),
                num(p.throughput.des, 3),
                num(p.throughput.mva, 3),
                num(100.0 * p.throughput.rel_err, 3),
                num(100.0 * err(0), 3),
                num(100.0 * err(1), 3),
                num(100.0 * rest, 3),
                yes(p.bound_ok),
                p.audit_violations.to_string(),
                yes(self.point_ok(p)),
                num(100.0 * c.throughput.rel_err, 3),
                num(100.0 * c.max_rel_err(), 3),
                yes(self.point_ok(c)),
            ]);
        }
        t
    }

    /// Stable JSON for `results/validate.json` (hand-rolled; keys and
    /// shapes are fixed for downstream tooling and the CI tolerance gate).
    pub fn to_json(&self) -> String {
        let mut json = String::from("{\n");
        let mut field = |key: &str, value: String| {
            json.push_str(&format!("  \"{key}\": {value},\n"));
        };
        let six = |v: f64| format!("{v:.6}");
        let (zero, law) = (ScenarioKind::ZeroOverhead, ScenarioKind::LoadDependent);
        field("tolerance_zero_overhead", six(self.tol_zero));
        field("tolerance_load_dependent", six(self.tol_law));
        field("max_rel_err_zero_overhead", six(self.max_rel_err(zero)));
        field("max_rel_err_load_dependent", six(self.max_rel_err(law)));
        field("cohort_size", self.cohort_size.to_string());
        let cohort_zero = six(self.cohort_max_rel_err(zero));
        field("cohort_max_rel_err_zero_overhead", cohort_zero);
        field(
            "cohort_max_rel_err_load_dependent",
            six(self.cohort_max_rel_err(law)),
        );
        field("passed", self.passed().to_string());
        json.push_str("  \"points\": [\n");
        for (i, pair) in self.points.iter().enumerate() {
            let p = &pair.per_user;
            let c = &pair.cohort;
            let nodes: Vec<String> = p
                .residence
                .iter()
                .map(|(name, r)| format!("{{\"node\": \"{name}\", \"rel_err\": {:.6}}}", r.rel_err))
                .collect();
            json.push_str(&format!(
                "    {{\"scenario\": \"{}\", \"kind\": \"{}\", \"population\": {}, \
                 \"completions\": {}, \
                 \"throughput_des\": {:.6}, \"throughput_mva\": {:.6}, \
                 \"throughput_rel_err\": {:.6}, \
                 \"residence\": [{}], \
                 \"throughput_bound\": {:.6}, \"bound_ok\": {}, \
                 \"audit_violations\": {}, \"pass\": {}, \
                 \"cohort_throughput_rel_err\": {:.6}, \
                 \"cohort_max_rel_err\": {:.6}, \"cohort_pass\": {}}}{}\n",
                p.scenario,
                kind_label(p.kind),
                p.population,
                p.completions,
                p.throughput.des,
                p.throughput.mva,
                p.throughput.rel_err,
                nodes.join(", "),
                p.throughput_bound,
                p.bound_ok,
                p.audit_violations,
                self.point_ok(p),
                c.throughput.rel_err,
                c.max_rel_err(),
                self.point_ok(c),
                if i + 1 < self.points.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        json
    }

    /// Self-checks against the conformance claims.
    pub fn findings(&self) -> Vec<String> {
        let zero = self.max_rel_err(ScenarioKind::ZeroOverhead);
        let law = self.max_rel_err(ScenarioKind::LoadDependent);
        let zero_points = self
            .points
            .iter()
            .filter(|p| p.per_user.kind == ScenarioKind::ZeroOverhead)
            .count();
        let law_points = self.points.len() - zero_points;
        let audits: usize = self
            .points
            .iter()
            .map(|p| p.per_user.audit_violations + p.cohort.audit_violations)
            .sum();
        vec![
            format!(
                "zero-overhead conformance: {zero_points} points, worst error \
                 {:.3}% (gate {:.0}%) — delay + M/M/c stations match exact MVA \
                 on the chain, a fan-out DAG, a steady-state cache (Bernoulli \
                 routing) and a heterogeneous DB fleet (capacity-rescaled \
                 stations)",
                100.0 * zero,
                100.0 * self.tol_zero
            ),
            format!(
                "load-dependent conformance: {law_points} points, worst error \
                 {:.3}% (gate {:.0}%) — lawful DB matches MVA driven by the \
                 ground-truth S*(N)",
                100.0 * law,
                100.0 * self.tol_law
            ),
            format!(
                "cohort aggregation (size {}): worst error {:.3}% zero-overhead / \
                 {:.3}% load-dependent under the same gates — batching users \
                 onto shared timers leaves the stationary distribution intact",
                self.cohort_size,
                100.0 * self.cohort_max_rel_err(ScenarioKind::ZeroOverhead),
                100.0 * self.cohort_max_rel_err(ScenarioKind::LoadDependent)
            ),
            format!(
                "asymptotic bounds: {} of {} points under X <= min(N/(Z+D), 1/D_max); \
                 conservation audits: {audits} violations across all windows",
                self.points
                    .iter()
                    .filter(|p| p.per_user.bound_ok && p.cohort.bound_ok)
                    .count(),
                self.points.len()
            ),
        ]
    }
}

fn kind_label(kind: ScenarioKind) -> &'static str {
    match kind {
        ScenarioKind::ZeroOverhead => "zero-overhead",
        ScenarioKind::LoadDependent => "load-dependent",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_validate_passes_and_serializes() {
        let result = run_validate(Fidelity::Quick);
        assert!(result.points.len() >= 29, "grid too small");
        assert!(
            result.passed(),
            "conformance gate failed:\n{}",
            result.table().render()
        );
        let json = result.to_json();
        assert!(json.contains("\"passed\": true"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"cohort_max_rel_err\""));
        assert!(json.contains("{\"node\": \"svc\", \"rel_err\": "));
        assert_eq!(result.findings().len(), 4);
        assert_eq!(result.table().len(), result.points.len());
    }
}
