//! Validate: the DES against exact queueing theory.
//!
//! Sweeps the [`dcm_oracle`] conformance grid — topologies whose analytic
//! steady state is known exactly (product-form networks solved by
//! load-dependent MVA) — and reports the relative error of the simulator's
//! throughput, per-tier residence, and DB queue length at every
//! `(scenario, population)` point. Zero-overhead points must land within
//! 2 %, load-dependent points within 5 %, the asymptotic bounds must never
//! be violated, and every point's conservation audit must be clean.

use dcm_oracle::{
    default_grid, default_mesh_grid, run_mesh_scenario, run_scenario, ConformancePoint, MeshPoint,
    ScenarioKind,
};
use dcm_sim::rng::derive_seed;

use crate::format::{num, TextTable};

use super::Fidelity;

/// Base seed for the conformance sweep (point seeds derive from it).
const SEED: u64 = 20170607;

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
    /// Every measured grid point, in grid order.
    pub points: Vec<ValidatePoint>,
    /// Every mesh grid point (fan-out DAG, steady-state cache,
    /// heterogeneous VM capacity), in grid order. All mesh scenarios are
    /// frictionless, so the zero-overhead tolerance gates them.
    pub mesh_points: Vec<MeshPoint>,
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
    let mut jobs = Vec::new();
    for (i, scenario) in default_grid().into_iter().enumerate() {
        let scale = match fidelity {
            Fidelity::Quick => 0.1,
            Fidelity::Full => 1.0,
        };
        for (j, &population) in scenario.populations.iter().enumerate() {
            let mut s = scenario.clone();
            s.warmup *= scale;
            s.measure *= scale;
            let seed = derive_seed(SEED, (i as u64) << 8 | j as u64);
            jobs.push((s, population, seed));
        }
    }
    let points = dcm_sim::runner::run_ordered(jobs, |(scenario, population, seed)| ValidatePoint {
        per_user: run_scenario(&scenario, population, seed, 1),
        cohort: run_scenario(&scenario, population, seed, COHORT_SIZE),
    });
    let mut mesh_jobs = Vec::new();
    for (i, scenario) in default_mesh_grid().into_iter().enumerate() {
        let scale = match fidelity {
            Fidelity::Quick => 0.1,
            Fidelity::Full => 1.0,
        };
        for (j, &population) in scenario.populations.iter().enumerate() {
            let mut s = scenario.clone();
            s.warmup *= scale;
            s.measure *= scale;
            // Distinct index space from the chain grid's `(i << 8) | j`.
            let seed = derive_seed(SEED, (0x4D << 16) | (i as u64) << 8 | j as u64);
            mesh_jobs.push((s, population, seed));
        }
    }
    let mesh_points = dcm_sim::runner::run_ordered(mesh_jobs, |(scenario, population, seed)| {
        run_mesh_scenario(&scenario, population, seed)
    });
    Validate {
        points,
        mesh_points,
        tol_zero,
        tol_law,
        cohort_size: COHORT_SIZE,
    }
}

impl Validate {
    /// The tolerance gating one point, by its oracle kind.
    fn tolerance(&self, kind: ScenarioKind) -> f64 {
        match kind {
            ScenarioKind::ZeroOverhead => self.tol_zero,
            ScenarioKind::LoadDependent => self.tol_law,
        }
    }

    /// Whether one measurement satisfies its gate: errors within
    /// tolerance, bound respected, audit clean.
    pub fn point_ok(&self, p: &ConformancePoint) -> bool {
        p.max_rel_err() <= self.tolerance(p.kind) && p.bound_ok && p.audit_violations == 0
    }

    /// Whether one mesh measurement satisfies its gate. Mesh scenarios are
    /// all frictionless, so the zero-overhead tolerance applies.
    pub fn mesh_point_ok(&self, p: &MeshPoint) -> bool {
        p.max_rel_err() <= self.tol_zero && p.bound_ok && p.audit_violations == 0
    }

    /// Whether every point passed — per-user, cohort, and mesh alike.
    pub fn passed(&self) -> bool {
        self.points
            .iter()
            .all(|p| self.point_ok(&p.per_user) && self.point_ok(&p.cohort))
            && self.mesh_points.iter().all(|p| self.mesh_point_ok(p))
    }

    /// The largest relative error across the mesh grid.
    pub fn mesh_max_rel_err(&self) -> f64 {
        self.mesh_points
            .iter()
            .map(MeshPoint::max_rel_err)
            .fold(0.0, f64::max)
    }

    /// The largest per-user relative error across points of the given kind.
    pub fn max_rel_err(&self, kind: ScenarioKind) -> f64 {
        self.points
            .iter()
            .map(|p| &p.per_user)
            .filter(|p| p.kind == kind)
            .map(ConformancePoint::max_rel_err)
            .fold(0.0, f64::max)
    }

    /// The largest cohort-aggregated relative error across points of the
    /// given kind.
    pub fn cohort_max_rel_err(&self, kind: ScenarioKind) -> f64 {
        self.points
            .iter()
            .map(|p| &p.cohort)
            .filter(|p| p.kind == kind)
            .map(ConformancePoint::max_rel_err)
            .fold(0.0, f64::max)
    }

    /// The per-point conformance table.
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
            "R_db err%",
            "Q_db err%",
            "bound ok",
            "audits",
            "pass",
            "coh X err%",
            "coh max err%",
            "coh pass",
        ]);
        for pair in &self.points {
            let p = &pair.per_user;
            let c = &pair.cohort;
            t.row([
                p.scenario.to_string(),
                kind_label(p.kind).to_string(),
                p.population.to_string(),
                num(p.throughput.des, 3),
                num(p.throughput.mva, 3),
                num(100.0 * p.throughput.rel_err, 3),
                num(100.0 * p.residence[0].rel_err, 3),
                num(100.0 * p.residence[1].rel_err, 3),
                num(100.0 * p.residence[2].rel_err, 3),
                num(100.0 * p.db_queue.rel_err, 3),
                if p.bound_ok { "yes" } else { "NO" }.to_string(),
                p.audit_violations.to_string(),
                if self.point_ok(p) { "yes" } else { "NO" }.to_string(),
                num(100.0 * c.throughput.rel_err, 3),
                num(100.0 * c.max_rel_err(), 3),
                if self.point_ok(c) { "yes" } else { "NO" }.to_string(),
            ]);
        }
        for p in &self.mesh_points {
            // Mesh rows reuse the chain columns: the first two residence
            // slots are nodes 0 and 1, the third is the worst remaining
            // node; cohort columns do not apply.
            let r0 = p.residence.first().map_or(0.0, |t| t.rel_err);
            let r1 = p.residence.get(1).map_or(0.0, |t| t.rel_err);
            let rest = p
                .residence
                .iter()
                .skip(2)
                .map(|t| t.rel_err)
                .fold(0.0, f64::max);
            t.row([
                p.scenario.to_string(),
                "mesh".to_string(),
                p.population.to_string(),
                num(p.throughput.des, 3),
                num(p.throughput.mva, 3),
                num(100.0 * p.throughput.rel_err, 3),
                num(100.0 * r0, 3),
                num(100.0 * r1, 3),
                num(100.0 * rest, 3),
                "-".to_string(),
                if p.bound_ok { "yes" } else { "NO" }.to_string(),
                p.audit_violations.to_string(),
                if self.mesh_point_ok(p) { "yes" } else { "NO" }.to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]);
        }
        t
    }

    /// Stable JSON for `results/validate.json` (hand-rolled; keys and
    /// shapes are fixed for downstream tooling and the CI tolerance gate).
    pub fn to_json(&self) -> String {
        let mut json = String::from("{\n");
        json.push_str(&format!(
            "  \"tolerance_zero_overhead\": {:.6},\n",
            self.tol_zero
        ));
        json.push_str(&format!(
            "  \"tolerance_load_dependent\": {:.6},\n",
            self.tol_law
        ));
        json.push_str(&format!(
            "  \"max_rel_err_zero_overhead\": {:.6},\n",
            self.max_rel_err(ScenarioKind::ZeroOverhead)
        ));
        json.push_str(&format!(
            "  \"max_rel_err_load_dependent\": {:.6},\n",
            self.max_rel_err(ScenarioKind::LoadDependent)
        ));
        json.push_str(&format!("  \"cohort_size\": {},\n", self.cohort_size));
        json.push_str(&format!(
            "  \"cohort_max_rel_err_zero_overhead\": {:.6},\n",
            self.cohort_max_rel_err(ScenarioKind::ZeroOverhead)
        ));
        json.push_str(&format!(
            "  \"cohort_max_rel_err_load_dependent\": {:.6},\n",
            self.cohort_max_rel_err(ScenarioKind::LoadDependent)
        ));
        json.push_str(&format!(
            "  \"max_rel_err_mesh\": {:.6},\n",
            self.mesh_max_rel_err()
        ));
        json.push_str(&format!("  \"passed\": {},\n", self.passed()));
        json.push_str("  \"points\": [\n");
        for (i, pair) in self.points.iter().enumerate() {
            let p = &pair.per_user;
            let c = &pair.cohort;
            json.push_str(&format!(
                "    {{\"scenario\": \"{}\", \"kind\": \"{}\", \"population\": {}, \
                 \"completions\": {}, \
                 \"throughput_des\": {:.6}, \"throughput_mva\": {:.6}, \
                 \"throughput_rel_err\": {:.6}, \
                 \"residence_rel_err\": [{:.6}, {:.6}, {:.6}], \
                 \"db_queue_rel_err\": {:.6}, \
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
                p.residence[0].rel_err,
                p.residence[1].rel_err,
                p.residence[2].rel_err,
                p.db_queue.rel_err,
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
        json.push_str("  ],\n");
        json.push_str("  \"mesh_points\": [\n");
        for (i, p) in self.mesh_points.iter().enumerate() {
            let nodes: Vec<String> = p
                .node_names
                .iter()
                .zip(&p.residence)
                .map(|(name, r)| format!("{{\"node\": \"{name}\", \"rel_err\": {:.6}}}", r.rel_err))
                .collect();
            json.push_str(&format!(
                "    {{\"scenario\": \"{}\", \"population\": {}, \
                 \"completions\": {}, \
                 \"throughput_des\": {:.6}, \"throughput_mva\": {:.6}, \
                 \"throughput_rel_err\": {:.6}, \
                 \"residence\": [{}], \
                 \"throughput_bound\": {:.6}, \"bound_ok\": {}, \
                 \"audit_violations\": {}, \"pass\": {}}}{}\n",
                p.scenario,
                p.population,
                p.completions,
                p.throughput.des,
                p.throughput.mva,
                p.throughput.rel_err,
                nodes.join(", "),
                p.throughput_bound,
                p.bound_ok,
                p.audit_violations,
                self.mesh_point_ok(p),
                if i + 1 < self.mesh_points.len() {
                    ","
                } else {
                    ""
                }
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
                 {:.3}% (gate {:.0}%) — delay tiers + M/M/c DB match exact MVA",
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
            format!(
                "mesh conformance: {} points (fan-out DAG, steady-state cache, \
                 heterogeneous VM capacity), worst error {:.3}% (gate {:.0}%) — \
                 DAG visit ratios, Bernoulli cache routing, and capacity-rescaled \
                 stations stay exact product-form",
                self.mesh_points.len(),
                100.0 * self.mesh_max_rel_err(),
                100.0 * self.tol_zero
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
        assert!(result.points.len() >= 18, "grid too small");
        assert!(result.mesh_points.len() >= 9, "mesh grid too small");
        assert!(
            result.passed(),
            "conformance gate failed:\n{}",
            result.table().render()
        );
        let json = result.to_json();
        assert!(json.contains("\"passed\": true"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"cohort_max_rel_err\""));
        assert!(json.contains("\"mesh_points\""));
        assert!(json.contains("\"max_rel_err_mesh\""));
        assert_eq!(result.findings().len(), 5);
        assert_eq!(
            result.table().len(),
            result.points.len() + result.mesh_points.len()
        );
    }
}
