//! Table I: model training parameters and prediction results, compared
//! against the paper's fitted values.

use dcm_core::training::{train_app_model, train_db_model, SweepOptions, TrainingRun};
use dcm_model::bootstrap::bootstrap_fit;
use dcm_model::lsq::FitError;

use crate::format::{num, TextTable};

use super::Fidelity;

/// Paper Table I, for side-by-side comparison.
#[derive(Debug, Clone, Copy)]
pub struct PaperColumn {
    /// Single-thread service time.
    pub s0: f64,
    /// Linear coefficient.
    pub alpha: f64,
    /// Quadratic coefficient.
    pub beta: f64,
    /// Scale correction.
    pub gamma: f64,
    /// Reported fit quality.
    pub r_squared: f64,
    /// Predicted optimal concurrency.
    pub n_star: u32,
    /// Predicted maximum throughput.
    pub x_max: f64,
}

/// The paper's Tomcat column.
pub const PAPER_TOMCAT: PaperColumn = PaperColumn {
    s0: 2.84e-2,
    alpha: 9.87e-3,
    beta: 4.54e-5,
    gamma: 11.03,
    r_squared: 0.96,
    n_star: 20,
    x_max: 946.0,
};

/// The paper's MySQL column.
pub const PAPER_MYSQL: PaperColumn = PaperColumn {
    s0: 7.19e-3,
    alpha: 5.04e-3,
    beta: 1.65e-6,
    gamma: 4.45,
    r_squared: 0.97,
    n_star: 36,
    x_max: 865.0,
};

/// Table I result: both trained models.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// App-tier (Tomcat) training run.
    pub app: TrainingRun,
    /// DB-tier (MySQL) training run.
    pub db: TrainingRun,
}

/// Trains both models at the requested fidelity.
///
/// # Errors
///
/// Propagates [`FitError`] if either fit fails to converge.
pub fn run_table1(fidelity: Fidelity) -> Result<Table1, FitError> {
    let options = SweepOptions {
        warmup: fidelity.warmup(),
        measure: fidelity.measure(),
        seed: 20170601,
        deterministic: false,
    };
    Ok(Table1 {
        app: train_app_model(&options)?,
        db: train_db_model(&options)?,
    })
}

impl Table1 {
    /// The comparison table (paper vs measured, per model).
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new([
            "parameter",
            "tomcat(paper)",
            "tomcat(ours)",
            "mysql(paper)",
            "mysql(ours)",
        ]);
        let a = &self.app.report;
        let d = &self.db.report;
        let rows: [(&str, f64, f64, f64, f64, usize); 7] = [
            (
                "S0",
                PAPER_TOMCAT.s0,
                a.model.s0,
                PAPER_MYSQL.s0,
                d.model.s0,
                4,
            ),
            (
                "alpha",
                PAPER_TOMCAT.alpha,
                a.model.alpha,
                PAPER_MYSQL.alpha,
                d.model.alpha,
                5,
            ),
            (
                "beta",
                PAPER_TOMCAT.beta,
                a.model.beta,
                PAPER_MYSQL.beta,
                d.model.beta,
                7,
            ),
            (
                "gamma",
                PAPER_TOMCAT.gamma,
                a.model.gamma,
                PAPER_MYSQL.gamma,
                d.model.gamma,
                3,
            ),
            (
                "R^2",
                PAPER_TOMCAT.r_squared,
                a.r_squared,
                PAPER_MYSQL.r_squared,
                d.r_squared,
                3,
            ),
            (
                "N*",
                f64::from(PAPER_TOMCAT.n_star),
                f64::from(a.model.optimal_concurrency()),
                f64::from(PAPER_MYSQL.n_star),
                f64::from(d.model.optimal_concurrency()),
                0,
            ),
            (
                "Xmax",
                PAPER_TOMCAT.x_max,
                a.model.predicted_max_throughput(),
                PAPER_MYSQL.x_max,
                d.model.predicted_max_throughput(),
                1,
            ),
        ];
        for (name, tp, to, mp, mo, decimals) in rows {
            t.row([
                name.to_string(),
                num(tp, decimals),
                num(to, decimals),
                num(mp, decimals),
                num(mo, decimals),
            ]);
        }
        t
    }

    /// Self-checks against the paper's qualitative claims, including
    /// bootstrap uncertainty for the knees (the dome's peak region is
    /// flat, so `N*` is only identified to a band).
    pub fn findings(&self) -> Vec<String> {
        let a = &self.app.report;
        let d = &self.db.report;
        let interval = |run: &TrainingRun| -> String {
            let data: Vec<(f64, f64)> = run
                .points
                .iter()
                .map(|p| (p.concurrency, p.throughput))
                .collect();
            match bootstrap_fit(&data, 1, 60, 99)
                .ok()
                .and_then(|b| b.n_star_interval(0.95))
            {
                Some((lo, hi)) => format!("95 % bootstrap N* interval [{lo:.0}, {hi:.0}]"),
                None => "bootstrap unavailable".to_string(),
            }
        };
        vec![
            format!(
                "app model: N* = {} (paper 20), R² = {:.3} (paper 0.96), {} — absolute \
                 coefficients differ (our substrate is a simulator; what transfers is the knee and fit quality)",
                a.model.optimal_concurrency(),
                a.r_squared,
                interval(&self.app)
            ),
            format!(
                "db model: N* = {} (paper 36), R² = {:.3} (paper 0.97), {}",
                d.model.optimal_concurrency(),
                d.r_squared,
                interval(&self.db)
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use dcm_ntier::law::ServiceLaw;

    #[test]
    fn paper_table1_optima() {
        // The literal Table I laws put their knees at the paper's N*.
        let knee = |p: PaperColumn| ServiceLaw::new(p.s0, p.alpha, p.beta).optimal_concurrency();
        assert_eq!(knee(PAPER_TOMCAT), 20);
        assert_eq!(knee(PAPER_MYSQL), 36);
        assert_eq!((PAPER_TOMCAT.n_star, PAPER_MYSQL.n_star), (20, 36));
    }

    #[test]
    fn quick_table1_trains_both_models() {
        let result = run_table1(Fidelity::Quick).expect("fits converge");
        assert!(result.app.report.r_squared > 0.9);
        assert!(result.db.report.r_squared > 0.85);
        let table = result.table();
        assert_eq!(table.len(), 7);
        let text = table.render();
        assert!(text.contains("N*"));
        assert!(text.contains("gamma"));
        assert_eq!(result.findings().len(), 2);
    }
}
