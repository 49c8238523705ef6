//! Fig. 4: model validation under realistic (think-time) workload.
//!
//! * (a) `1/1/1`, five Tomcat thread allocations including the model's
//!   optimum — the optimum should dominate, ≈ +30 % over the default 100.
//! * (b) `1/2/1`, five DB connection allocations including the optimum
//!   split (paper: 18 per Tomcat ≈ 36/2) — the optimum should dominate,
//!   with the default 80 (→ 160 at MySQL) far behind.

use dcm_core::experiment::{steady_state_throughput, think_time_run, SteadyStateReport};
use dcm_ntier::topology::SoftConfig;

use crate::format::{num, TextTable};

use super::Fidelity;

/// One allocation's throughput-vs-users curve.
#[derive(Debug, Clone)]
pub struct AllocationCurve {
    /// Label, e.g. `1000/20/80`.
    pub label: String,
    /// The varied pool size.
    pub size: u32,
    /// One point per user level.
    pub points: Vec<SteadyStateReport>,
}

/// A Fig. 4 panel: several allocations swept over user counts.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Panel name (`fig4a` / `fig4b`).
    pub name: &'static str,
    /// The pool being varied.
    pub varied: &'static str,
    /// The model-predicted optimal size.
    pub optimal: u32,
    /// All measured curves.
    pub curves: Vec<AllocationCurve>,
}

fn user_levels(fidelity: Fidelity) -> Vec<u32> {
    match fidelity {
        Fidelity::Quick => vec![100, 250, 400],
        Fidelity::Full => vec![50, 100, 150, 200, 250, 300, 350, 400],
    }
}

/// Runs Fig. 4(a): Tomcat thread-pool validation on `1/1/1`.
///
/// `optimal` is the trained model's `N*` (pass 20 to mirror the paper
/// exactly).
pub fn run_fig4a(fidelity: Fidelity, optimal: u32) -> Fig4 {
    let mut sizes = vec![5, 20, optimal, 100, 200];
    sizes.sort_unstable();
    sizes.dedup();
    let users = user_levels(fidelity);
    let curves = sweep_allocations(&sizes, &users, fidelity, 20170603, |threads| {
        (
            format!("1000/{threads}/80"),
            (1, 1, 1),
            SoftConfig::new(1000, threads, 80),
        )
    });
    Fig4 {
        name: "fig4a",
        varied: "tomcat threads",
        optimal,
        curves,
    }
}

/// Measures every `(allocation, user level)` combination in one parallel
/// batch of think-time runs seeded from `seed`, and regroups the in-order
/// results into per-allocation curves — identical to nested serial loops
/// over `sizes` then `users`.
fn sweep_allocations(
    sizes: &[u32],
    users: &[u32],
    fidelity: Fidelity,
    seed: u64,
    configure: impl Fn(u32) -> (String, (u32, u32, u32), SoftConfig),
) -> Vec<AllocationCurve> {
    let descriptors: Vec<((u32, u32, u32), SoftConfig, u32)> = sizes
        .iter()
        .flat_map(|&size| {
            let (_, counts, soft) = configure(size);
            users.iter().map(move |&u| (counts, soft, u))
        })
        .collect();
    let (warmup, window) = (fidelity.warmup(), fidelity.measure());
    let mut points = dcm_sim::runner::run_ordered(descriptors, |(counts, soft, u)| {
        steady_state_throughput(&think_time_run(counts, soft, u, seed, warmup, window))
    })
    .into_iter();
    sizes
        .iter()
        .map(|&size| {
            let (label, _, _) = configure(size);
            AllocationCurve {
                label,
                size,
                points: points.by_ref().take(users.len()).collect(),
            }
        })
        .collect()
}

/// Runs Fig. 4(b): DB connection-pool validation on `1/2/1`.
///
/// `optimal_per_server` is the trained db `N*` split across the two app
/// servers (pass 18 to mirror the paper exactly).
pub fn run_fig4b(fidelity: Fidelity, optimal_per_server: u32) -> Fig4 {
    let mut sizes = vec![4, 9, 18, optimal_per_server, 40, 80];
    sizes.sort_unstable();
    sizes.dedup();
    let users = user_levels(fidelity);
    let curves = sweep_allocations(&sizes, &users, fidelity, 20170604, |conns| {
        (
            format!("1000/100/{conns}"),
            (1, 2, 1),
            SoftConfig::new(1000, 100, conns),
        )
    });
    Fig4 {
        name: "fig4b",
        varied: "db conns per app server",
        optimal: optimal_per_server,
        curves,
    }
}

impl Fig4 {
    /// Throughput table: one row per user level, one column per allocation.
    pub fn table(&self) -> TextTable {
        let mut headers = vec!["users".to_string()];
        headers.extend(self.curves.iter().map(|c| c.label.clone()));
        let mut t = TextTable::new(headers);
        let levels = self.curves.first().map_or(0, |c| c.points.len());
        for i in 0..levels {
            let mut row = vec![self.curves[0].points[i].users.to_string()];
            row.extend(self.curves.iter().map(|c| num(c.points[i].throughput, 1)));
            t.row(row);
        }
        t
    }

    /// Throughput of the allocation `size` at the highest user level.
    pub fn saturated_throughput(&self, size: u32) -> Option<f64> {
        self.curves
            .iter()
            .find(|c| c.size == size)
            .and_then(|c| c.points.last())
            .map(|p| p.throughput)
    }

    /// The best allocation at the highest user level.
    pub fn best_at_saturation(&self) -> Option<(u32, f64)> {
        self.curves
            .iter()
            .filter_map(|c| c.points.last().map(|p| (c.size, p.throughput)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite throughput"))
    }

    /// Self-checks against the paper's qualitative claims.
    pub fn findings(&self) -> Vec<String> {
        let mut out = Vec::new();
        let Some((best_size, best_x)) = self.best_at_saturation() else {
            return out;
        };
        out.push(format!(
            "{}: best saturated allocation is {} = {} at {:.1} req/s \
             (model optimum {})",
            self.name, self.varied, best_size, best_x, self.optimal
        ));
        let default_size = if self.name == "fig4a" { 100 } else { 80 };
        if let (Some(opt), Some(default)) = (
            self.saturated_throughput(self.optimal).or(Some(best_x)),
            self.saturated_throughput(default_size),
        ) {
            out.push(format!(
                "optimal vs default ({}): {:+.0} % (paper: ≈ +30 % for fig4a; \
                 optimum dominates for fig4b)",
                default_size,
                100.0 * (opt - default) / default
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4a_optimum_beats_default_and_extremes() {
        let result = run_fig4a(Fidelity::Quick, 20);
        let best = result.best_at_saturation().expect("curves measured");
        assert!(
            (18..=30).contains(&best.0),
            "best allocation should be near the knee, got {} \n{}",
            best.0,
            result.table().render()
        );
        let opt = result.saturated_throughput(20).unwrap();
        let default = result.saturated_throughput(100).unwrap();
        let tiny = result.saturated_throughput(5).unwrap();
        assert!(opt > default * 1.1, "optimal {opt} vs default {default}");
        assert!(opt > tiny * 1.2, "optimal {opt} vs tiny pool {tiny}");
    }

    #[test]
    fn fig4b_optimum_beats_flooding_default() {
        let result = run_fig4b(Fidelity::Quick, 18);
        let opt = result.saturated_throughput(18).unwrap();
        let default = result.saturated_throughput(80).unwrap();
        assert!(
            opt > default * 1.2,
            "optimal {opt} vs flooded default {default}\n{}",
            result.table().render()
        );
    }
}
