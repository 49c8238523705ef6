//! Fig. 2(a): the MySQL concurrency dome under direct stress.
//! Fig. 2(b): throughput vs users for `1/1/1` and `1/2/1`, both with the
//! default soft allocation — the scale-out-made-it-worse crossover.

use dcm_core::experiment::{steady_state_throughput, think_time_run, SteadyStateReport};
use dcm_core::training::{db_stress_sweep, SweepOptions, SweepPoint};
use dcm_ntier::law::reference;
use dcm_ntier::topology::SoftConfig;

use crate::format::{num, TextTable};

use super::Fidelity;

/// Fig. 2(a) result: the measured MySQL dome.
#[derive(Debug, Clone)]
pub struct Fig2a {
    /// `(controlled concurrency, measured concurrency, queries/s)` points.
    pub points: Vec<SweepPoint>,
}

/// Runs the Fig. 2(a) direct-stress sweep (concurrency 5 → 600).
pub fn run_fig2a(fidelity: Fidelity) -> Fig2a {
    let levels: Vec<u32> = match fidelity {
        Fidelity::Quick => vec![5, 20, 36, 80, 160, 400],
        Fidelity::Full => vec![
            1, 5, 10, 15, 20, 25, 30, 36, 42, 50, 60, 70, 80, 100, 120, 160, 200, 300, 400, 600,
        ],
    };
    let options = SweepOptions {
        warmup: fidelity.warmup(),
        measure: fidelity.measure(),
        seed: 20170605,
        deterministic: false,
    };
    Fig2a {
        points: db_stress_sweep(reference::mysql(), &levels, &options),
    }
}

impl Fig2a {
    /// The figure's data series.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(["concurrency", "measured_n", "queries_per_sec"]);
        for p in &self.points {
            t.row([
                p.offered.to_string(),
                num(p.concurrency, 1),
                num(p.throughput, 1),
            ]);
        }
        t
    }

    /// Peak throughput across the sweep.
    pub fn peak(&self) -> (u32, f64) {
        self.points
            .iter()
            .map(|p| (p.offered, p.throughput))
            .fold((0, 0.0), |acc, p| if p.1 > acc.1 { p } else { acc })
    }

    /// Self-checks against the paper's qualitative claims.
    pub fn findings(&self) -> Vec<String> {
        let mut out = Vec::new();
        let (peak_n, peak_x) = self.peak();
        out.push(format!(
            "peak {:.1} q/s at concurrency {} (paper: knee ≈ 36–40)",
            peak_x, peak_n
        ));
        let at = |n: u32| {
            self.points
                .iter()
                .find(|p| p.offered == n)
                .map(|p| p.throughput)
        };
        if let (Some(lo), Some(hi)) = (at(5), at(600).or_else(|| at(400))) {
            out.push(format!(
                "low-concurrency (5) at {:.0} % of peak; deep saturation at {:.0} % \
                 (paper: both flanks fall off, 'reasonable between 20 and 80')",
                100.0 * lo / peak_x,
                100.0 * hi / peak_x
            ));
        }
        out
    }
}

/// Fig. 2(b) result: throughput-vs-users curves for the two hardware
/// configurations under the default soft allocation.
#[derive(Debug, Clone)]
pub struct Fig2b {
    /// `1/1/1` curve.
    pub baseline: Vec<SteadyStateReport>,
    /// `1/2/1` curve (scaled out, soft resources untouched).
    pub scaled_out: Vec<SteadyStateReport>,
}

/// Runs the Fig. 2(b) comparison.
pub fn run_fig2b(fidelity: Fidelity) -> Fig2b {
    let users: Vec<u32> = match fidelity {
        Fidelity::Quick => vec![100, 250, 400],
        Fidelity::Full => vec![50, 100, 150, 200, 250, 300, 350, 400, 450, 500],
    };
    let soft = SoftConfig::DEFAULT; // 1000-100-80
                                    // Both curves' runs fan out together; results come back in input order,
                                    // so the split below reproduces the serial curves exactly.
    let configs = [(1u32, 1u32, 1u32), (1, 2, 1)];
    let descriptors: Vec<((u32, u32, u32), u32)> = configs
        .iter()
        .flat_map(|&counts| users.iter().map(move |&u| (counts, u)))
        .collect();
    let (warmup, window) = (fidelity.warmup(), fidelity.measure());
    let mut reports = dcm_sim::runner::run_ordered(descriptors, |(counts, u)| {
        steady_state_throughput(&think_time_run(counts, soft, u, 20170602, warmup, window))
    });
    let scaled_out = reports.split_off(users.len());
    Fig2b {
        baseline: reports,
        scaled_out,
    }
}

impl Fig2b {
    /// The figure's data series.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(["users", "x_1/1/1", "x_1/2/1", "rt_1/1/1", "rt_1/2/1"]);
        for (a, b) in self.baseline.iter().zip(self.scaled_out.iter()) {
            t.row([
                a.users.to_string(),
                num(a.throughput, 1),
                num(b.throughput, 1),
                num(a.mean_rt, 3),
                num(b.mean_rt, 3),
            ]);
        }
        t
    }

    /// The lowest user level at which the scaled-out system performs worse
    /// than the baseline (the paper's headline crossover), if any.
    pub fn crossover(&self) -> Option<u32> {
        self.baseline
            .iter()
            .zip(self.scaled_out.iter())
            .find(|(a, b)| b.throughput < a.throughput * 0.97)
            .map(|(a, _)| a.users)
    }

    /// Self-checks against the paper's qualitative claims.
    pub fn findings(&self) -> Vec<String> {
        let mut out = Vec::new();
        match self.crossover() {
            Some(users) => out.push(format!(
                "scaled-out 1/2/1 falls below 1/1/1 from {users} users \
                 (paper: 'system throughput significantly decreased under high workload after scaling-out')"
            )),
            None => out.push("no crossover observed (paper expects one)".into()),
        }
        if let (Some(a), Some(b)) = (self.baseline.last(), self.scaled_out.last()) {
            out.push(format!(
                "at {} users: 1/1/1 {:.1} req/s vs 1/2/1 {:.1} req/s ({:+.0} %)",
                a.users,
                a.throughput,
                b.throughput,
                100.0 * (b.throughput - a.throughput) / a.throughput
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2a_quick_shows_dome() {
        let result = run_fig2a(Fidelity::Quick);
        let (peak_n, peak_x) = result.peak();
        assert!((20..=80).contains(&peak_n), "peak at {peak_n}");
        let at_400 = result
            .points
            .iter()
            .find(|p| p.offered == 400)
            .unwrap()
            .throughput;
        assert!(at_400 < 0.3 * peak_x, "deep saturation collapses");
        assert!(!result.table().is_empty());
        assert_eq!(result.findings().len(), 2);
    }

    #[test]
    fn fig2b_quick_shows_crossover() {
        let result = run_fig2b(Fidelity::Quick);
        assert!(
            result.crossover().is_some(),
            "expected the scale-out crossover: {:?}",
            result.table().render()
        );
    }
}
