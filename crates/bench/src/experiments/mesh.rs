//! Mesh bench: the controllers leave the chain.
//!
//! Every prior controller experiment ran the paper's fixed three-tier
//! chain. This one runs the generalized topology the `dcm-ntier` DAG
//! dispatch supports — a fan-out microservice mesh with a **warming cache**
//! and a **mixed-flavor VM fleet** — and asks whether the controllers'
//! rankings survive the move:
//!
//! * **Topology.** `web → app → {db×2, svc}`: the app tier calls the DB
//!   twice and a side service once per request (tree-shaped call graph,
//!   per-request [`dcm_ntier::graph::TopologyGraph`]).
//! * **Cache.** The app tier caches DB responses; the hit ratio warms from
//!   0 toward its steady-state maximum over served requests
//!   ([`dcm_workload::CacheDynamics`]), so the bottleneck *migrates* from
//!   the DB toward the app/service tiers mid-run — a regime change no
//!   static-threshold controller was tuned for.
//! * **VM types.** The DB tier launches alternating small/large flavors
//!   ([`VmPolicy::cycle`]) and the app tier buys the cheapest capacity per
//!   dollar from a large/xlarge catalog, so the cost metric is **dollars**
//!   ([`TraceRunResult::vm_cost`](dcm_core::experiment::TraceRunResult::vm_cost)),
//!   not VM-hours.
//!
//! DCM, MPC, and EC2-AutoScale each face the step and flash-crowd traces.
//! Every cell builds its own world from the same seed, so the matrix is
//! bit-identical for every `--jobs` value.

use dcm_core::controller::DcmModels;
use dcm_core::experiment::{ControllerSpec, Experiment, WorkloadShape};
use dcm_ntier::graph::TopologyGraph;
use dcm_ntier::law::reference;
use dcm_ntier::server::VmType;
use dcm_ntier::system::{VmPolicy, VmSelection};
use dcm_ntier::topology::MeshNode;
use dcm_sim::dist::Dist;
use dcm_workload::cache::CacheDynamics;
use dcm_workload::profile::{CacheEdge, NodeDemand};

use crate::format::TextTable;

use super::league::{
    cells_csv, cells_json, cells_table, find_cell, league_trace_config, run_matrix, LeagueCell,
    TraceKind,
};
use super::Fidelity;

/// The traces every contestant faces on the mesh: a ramp to a plateau
/// (the cache warms through the ramp) and a flash crowd arriving before
/// the cache has warmed.
pub const TRACES: [TraceKind; 2] = [TraceKind::Step, TraceKind::Flash];

/// Steady-state cache hit ratio the app→db edge warms toward.
pub const CACHE_MAX_HIT: f64 = 0.6;
/// Requests over which the cache warms to `1 − 1/e` of its maximum.
pub const CACHE_WARMUP_REQUESTS: f64 = 3000.0;

/// The mesh bench's contestants, in matrix order: DCM, MPC and
/// EC2-AutoScale.
pub fn contestants(models: DcmModels) -> [ControllerSpec; 3] {
    [
        ControllerSpec::dcm(models),
        ControllerSpec::mpc(models),
        ControllerSpec::ec2(),
    ]
}

/// Per-node demands of the mesh's web, app, db and svc tiers (the fuzzer's
/// mesh-active scenarios use them too).
pub(crate) fn demands() -> Vec<NodeDemand> {
    vec![
        NodeDemand::split(Dist::constant(0.002)),
        NodeDemand::split(Dist::constant(0.008)),
        NodeDemand::leaf(Dist::exponential_mean(0.02)).iid_visits(),
        NodeDemand::leaf(Dist::exponential_mean(0.012)).iid_visits(),
    ]
}

/// The mesh every cell runs — topology, demands, cache, VM policies —
/// under the league's experiment for `trace` (same trace, seed, horizon
/// and control period).
pub fn mesh_experiment_config(trace: TraceKind, fidelity: Fidelity) -> Experiment {
    // web(0) → app(1) → db(2) ×2 calls, app(1) → svc(3) ×1 call. The DB
    // keeps tier index 2, so DcmConfig/MpcConfig defaults (app tier 1, DB
    // tier 2) target the same tiers they do on the chain.
    Experiment {
        nodes: vec![
            MeshNode::new("web", reference::apache(), 1000),
            MeshNode::new("app", reference::tomcat(), 200)
                .conns(40)
                .vm_policy(VmPolicy {
                    types: vec![VmType::LARGE, VmType::XLARGE],
                    selection: VmSelection::CheapestPerCapacity,
                }),
            MeshNode::new("db", reference::mysql(), 800)
                .vm_policy(VmPolicy::cycle(vec![VmType::SMALL, VmType::LARGE])),
            MeshNode::new("svc", reference::tomcat(), 50).count(2),
        ],
        workload: WorkloadShape::Dag {
            graph: TopologyGraph::from_edges(4, &[(0, 1, 1), (1, 2, 2), (1, 3, 1)]),
            demands: demands(),
            cache: Some(CacheEdge {
                from: 1,
                to: 2,
                dynamics: CacheDynamics::new(CACHE_MAX_HIT, CACHE_WARMUP_REQUESTS),
            }),
        },
        ..league_trace_config(trace, fidelity)
    }
}

/// The full mesh bench result.
#[derive(Debug, Clone)]
pub struct MeshBench {
    /// All cells, controller-major in [`contestants`] order, traces in
    /// [`TRACES`] order.
    pub cells: Vec<LeagueCell>,
    /// Run length per cell in seconds.
    pub horizon_secs: f64,
}

/// Runs the full mesh matrix through the league's harness.
pub fn run_mesh(fidelity: Fidelity, models: DcmModels) -> MeshBench {
    let cells = run_matrix(&contestants(models), &TRACES, |_, trace| {
        mesh_experiment_config(trace, fidelity)
    });
    MeshBench {
        cells: cells.into_iter().map(|(cell, _)| cell).collect(),
        horizon_secs: mesh_experiment_config(TraceKind::Step, fidelity)
            .horizon
            .as_secs_f64(),
    }
}

impl MeshBench {
    /// A cell by controller display name and trace kind.
    pub fn cell(&self, controller: &str, trace: TraceKind) -> &LeagueCell {
        find_cell(&self.cells, controller, trace)
    }

    /// The matrix table, one row per cell.
    pub fn table(&self) -> TextTable {
        cells_table(&self.cells, "retry_amplification")
    }

    /// Stable JSON for `results/mesh.json` (hand-rolled; keys and shapes
    /// are fixed for downstream tooling and the determinism check).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"horizon_secs\": {:.6},\n  \"cache_max_hit\": {:.6},\n  \
             \"cache_warmup_requests\": {:.6},\n{}}}\n",
            self.horizon_secs,
            CACHE_MAX_HIT,
            CACHE_WARMUP_REQUESTS,
            cells_json(&self.cells, "retry_amplification")
        )
    }

    /// CSV of the matrix for `results/mesh.csv`.
    pub fn to_csv(&self) -> String {
        cells_csv(&self.cells, "retry_amplification")
    }

    /// Self-checks against the mesh bench's qualitative claims.
    pub fn findings(&self) -> Vec<String> {
        let mut out = Vec::new();
        out.push(format!(
            "topology: web → app → {{db×2, svc}} with a cache on the app→db \
             edge warming to {:.0}% hits over ~{:.0} requests — the DB \
             bottleneck softens mid-run as V_db falls toward {:.1}",
            100.0 * CACHE_MAX_HIT,
            CACHE_WARMUP_REQUESTS,
            2.0 * (1.0 - CACHE_MAX_HIT),
        ));
        for trace in TRACES {
            let dcm = self.cell("DCM", trace);
            let ec2 = self.cell("EC2-AutoScale", trace);
            out.push(format!(
                "{}: DCM attains {:.3} of the 1 s SLO for ${:.4} vs \
                 EC2-AutoScale {:.3} for ${:.4} (mixed small/large DB fleet, \
                 cheapest-per-capacity app fleet — costs are dollars, not \
                 VM-hours)",
                trace.name(),
                dcm.slo_attainment_1s,
                dcm.vm_dollars,
                ec2.slo_attainment_1s,
                ec2.vm_dollars,
            ));
        }
        let mpc = self.cell("MPC", TraceKind::Step);
        out.push(format!(
            "decision latency: MPC paid {} plan evaluations on the mesh; \
             DCM and EC2-AutoScale paid 0",
            mpc.planner_evals
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_matrix_runs_every_cell_with_real_work() {
        let bench = run_mesh(Fidelity::Quick, DcmModels::reference());
        assert_eq!(
            bench.cells.len(),
            contestants(DcmModels::reference()).len() * TRACES.len()
        );
        for cell in &bench.cells {
            assert!(cell.completed > 0, "{cell:?}");
            assert!(cell.vm_hours > 0.0, "{cell:?}");
            assert!(cell.vm_dollars > 0.0, "{cell:?}");
        }
        // The mixed fleet separates the dollar metric from VM-hours: with
        // everything priced at the small flavor's rate, hours × price would
        // equal dollars; the large DB / large app flavors must push real
        // spend strictly above that floor.
        for cell in &bench.cells {
            let small_floor = cell.vm_hours * VmType::SMALL.price_per_hour;
            assert!(
                cell.vm_dollars > small_floor * 1.05,
                "mixed fleet must out-price the all-small floor: {cell:?}"
            );
        }
        // Only MPC plans.
        for trace in TRACES {
            assert!(bench.cell("MPC", trace).planner_evals > 0);
            assert_eq!(bench.cell("DCM", trace).planner_evals, 0);
            assert_eq!(bench.cell("EC2-AutoScale", trace).planner_evals, 0);
        }
        // Artifacts are well-formed.
        assert!(bench.to_json().ends_with("}\n"));
        assert_eq!(bench.to_csv().lines().count(), 1 + bench.cells.len());
        assert!(bench.findings().len() >= 4);
    }

    #[test]
    fn mesh_is_identical_across_worker_counts() {
        // The determinism contract behind `--jobs`: re-running the matrix
        // must reproduce the artifacts byte for byte.
        dcm_sim::runner::set_jobs(1);
        let serial = run_mesh(Fidelity::Quick, DcmModels::reference());
        dcm_sim::runner::set_jobs(4);
        let parallel = run_mesh(Fidelity::Quick, DcmModels::reference());
        dcm_sim::runner::set_jobs(0);
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(serial.to_csv(), parallel.to_csv());
    }
}
