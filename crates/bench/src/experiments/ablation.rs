//! Ablations beyond the paper: which half of DCM's soft-resource actuation
//! carries the benefit, and how sensitive DCM is to mis-estimated optima.

use dcm_core::controller::{DcmConfig, DcmModels};
use dcm_core::experiment::{ControllerSpec, Experiment};
use dcm_core::policy::ScalingConfig;

use crate::format::{num, TextTable};

use super::fig5::{fig5_config, summarize, RunSummary};
use super::Fidelity;

/// Runs every `(label, experiment, controller)` variant in parallel (each
/// builds its own world) and collects summaries in the given presentation
/// order.
fn run_variants(variants: Vec<(String, Experiment, ControllerSpec)>) -> Ablation {
    let variants = dcm_sim::runner::run_ordered(variants, |(label, experiment, controller)| {
        let run = experiment.run(&controller).expect("a valid preset");
        Variant {
            label,
            summary: summarize(&run),
        }
    });
    Ablation { variants }
}

/// DCM under `config` with the given models and no online refit.
fn dcm(config: DcmConfig, models: DcmModels) -> ControllerSpec {
    ControllerSpec::Dcm {
        config,
        models,
        refit: None,
    }
}

/// One ablation variant's outcome.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Variant label.
    pub label: String,
    /// Its run summary.
    pub summary: RunSummary,
}

/// Ablation result set.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// All variants, in presentation order.
    pub variants: Vec<Variant>,
}

/// Runs the actuation ablation: full DCM, threads-only, conns-only, and
/// the hardware-only baseline, all on the same trace and models.
pub fn run_actuation_ablation(fidelity: Fidelity, models: DcmModels) -> Ablation {
    let experiment = fig5_config(fidelity);
    let dcm_variant = |label: &str, adapt_threads: bool, adapt_conns: bool| {
        let config = DcmConfig {
            adapt_threads,
            adapt_conns,
            ..DcmConfig::default()
        };
        (label.to_string(), experiment.clone(), dcm(config, models))
    };
    run_variants(vec![
        dcm_variant("DCM (both)", true, true),
        dcm_variant("DCM threads-only", true, false),
        dcm_variant("DCM conns-only", false, true),
        (
            "EC2-AutoScale (neither)".into(),
            experiment.clone(),
            ControllerSpec::ec2(),
        ),
    ])
}

/// Runs the controller-extension comparison: plain reactive DCM vs the
/// predictive variant (Holt trend forecast one boot-delay ahead) vs online
/// model refitting.
pub fn run_extensions(fidelity: Fidelity, models: DcmModels) -> Ablation {
    let experiment = fig5_config(fidelity);
    let variant = |label: &str, controller: ControllerSpec| {
        (label.to_string(), experiment.clone(), controller)
    };
    run_variants(vec![
        variant("DCM reactive", ControllerSpec::dcm(models)),
        variant(
            "DCM predictive",
            dcm(
                DcmConfig {
                    predictive: Some(dcm_core::predictor::HoltConfig::default()),
                    ..DcmConfig::default()
                },
                models,
            ),
        ),
        variant(
            "DCM online-refit",
            ControllerSpec::Dcm {
                config: DcmConfig::default(),
                models,
                refit: Some((16, 4)),
            },
        ),
        variant(
            "DCM dwell-SLA trigger",
            dcm(
                DcmConfig {
                    scaling: ScalingConfig {
                        trigger: dcm_core::policy::TriggerSignal::DwellPressure { sla_secs: 0.5 },
                        ..ScalingConfig::default()
                    },
                    ..DcmConfig::default()
                },
                models,
            ),
        ),
    ])
}

/// Runs the fault-injection comparison: DCM vs EC2-AutoScale when a
/// fraction of VM boots fail (a failure mode absent from the paper's
/// evaluation but routine in real clouds). Controllers that suppress
/// repeat scale-outs while a boot is pending must retry after the failure
/// surfaces.
pub fn run_fault_injection(
    fidelity: Fidelity,
    models: DcmModels,
    failure_probs: &[f64],
) -> Ablation {
    let variants = failure_probs
        .iter()
        .flat_map(|&p| {
            let experiment = Experiment {
                boot_failure_prob: p,
                ..fig5_config(fidelity)
            };
            [
                (
                    format!("DCM, {:.0}% boot failures", p * 100.0),
                    experiment.clone(),
                    ControllerSpec::dcm(models),
                ),
                (
                    format!("EC2, {:.0}% boot failures", p * 100.0),
                    experiment,
                    ControllerSpec::ec2(),
                ),
            ]
        })
        .collect();
    run_variants(variants)
}

/// Runs the N*-sensitivity sweep: DCM with the pool targets scaled by each
/// factor (a mis-trained model over/under-shooting the true optimum).
pub fn run_sensitivity(fidelity: Fidelity, models: DcmModels, factors: &[f64]) -> Ablation {
    let experiment = fig5_config(fidelity);
    let variants = factors
        .iter()
        .map(|&factor| {
            let config = DcmConfig {
                headroom: 1.1 * factor,
                ..DcmConfig::default()
            };
            (
                format!("N* x {factor:.2}"),
                experiment.clone(),
                dcm(config, models),
            )
        })
        .collect();
    run_variants(variants)
}

impl Ablation {
    /// The comparison table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new([
            "variant",
            "x(req/s)",
            "mean_rt(s)",
            "p95_rt(s)",
            "worst_win(s)",
            "wins>1s",
            "req/vm-s",
        ]);
        for v in &self.variants {
            let s = v.summary;
            t.row([
                v.label.clone(),
                num(s.throughput, 1),
                num(s.mean_rt, 3),
                num(s.p95_rt, 2),
                num(s.worst_window_rt, 2),
                s.windows_over_1s.to_string(),
                num(s.efficiency, 2),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actuation_ablation_orders_variants() {
        let result = run_actuation_ablation(Fidelity::Quick, DcmModels::reference());
        assert_eq!(result.variants.len(), 4);
        let full = &result.variants[0].summary;
        let none = &result.variants[3].summary;
        assert!(
            full.throughput >= none.throughput * 0.95,
            "full DCM {:.1} vs baseline {:.1}\n{}",
            full.throughput,
            none.throughput,
            result.table().render()
        );
    }

    #[test]
    fn extensions_all_function() {
        let result = run_extensions(Fidelity::Quick, DcmModels::reference());
        assert_eq!(result.variants.len(), 4);
        for v in &result.variants {
            assert!(v.summary.completed > 0, "{} produced nothing", v.label);
        }
    }

    #[test]
    fn fault_injection_degrades_gracefully() {
        let result = run_fault_injection(Fidelity::Quick, DcmModels::reference(), &[0.0, 0.5]);
        assert_eq!(result.variants.len(), 4);
        let healthy = &result.variants[0].summary;
        let faulty = &result.variants[2].summary;
        // Both complete work; failures cost some throughput but never wedge
        // the controller.
        assert!(faulty.completed > 0);
        assert!(
            faulty.throughput > healthy.throughput * 0.5,
            "50% boot failures should degrade, not collapse: {:.1} vs {:.1}",
            faulty.throughput,
            healthy.throughput
        );
    }

    #[test]
    fn sensitivity_covers_factors() {
        let result = run_sensitivity(Fidelity::Quick, DcmModels::reference(), &[0.5, 1.0]);
        assert_eq!(result.variants.len(), 2);
    }
}
