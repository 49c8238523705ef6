//! `repro trace` / `repro explain` — the Fig. 5 comparison re-run with the
//! dcm-obs pipeline enabled, exporting per-controller observability
//! artifacts: a Perfetto-loadable Chrome trace, the flat span CSV, the
//! decision journal (JSON + rendered explanation), and the per-control-
//! period metrics time-series.
//!
//! Every artifact is byte-deterministic: re-running with any `--jobs`
//! value produces identical files (CI diffs `--jobs 1` against
//! `--jobs 4`).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use dcm_core::controller::DcmModels;
use dcm_core::experiment::{ObsArtifacts, ObsConfig, TraceRunResult};
use dcm_obs::trace::{chrome_trace_json, spans_csv};

use crate::format::{num, TextTable};

use super::{fig5, Fidelity};

/// One controller's run with observability attached.
#[derive(Debug, Clone)]
pub struct ControllerExport {
    /// Artifact file stem suffix (`dcm`, `ec2`).
    pub label: &'static str,
    /// The recorded trace, journal, and metrics series.
    pub obs: ObsArtifacts,
    /// The usual Fig. 5 run summary, for the side table.
    pub summary: fig5::RunSummary,
}

/// Both Fig. 5 controllers with their observability artifacts.
#[derive(Debug, Clone)]
pub struct TraceExport {
    /// The DCM run.
    pub dcm: ControllerExport,
    /// The EC2-AutoScale baseline run.
    pub ec2: ControllerExport,
}

/// The sampling configuration per fidelity. Full runs sample 2 % of
/// requests (the committed artifacts stay small); quick runs sample 10 %
/// so short horizons still yield a readable trace. The ring capacity caps
/// the artifact size either way — evictions are counted, never silent.
pub fn obs_config(fidelity: Fidelity) -> ObsConfig {
    match fidelity {
        Fidelity::Quick => ObsConfig {
            sample_rate: 0.10,
            span_capacity: 4096,
        },
        Fidelity::Full => ObsConfig {
            sample_rate: 0.02,
            span_capacity: 4096,
        },
    }
}

/// Runs both Fig. 5 controllers with observability enabled. The two runs
/// are independent and execute concurrently when `--jobs > 1`; the
/// artifacts are nevertheless byte-identical for every jobs value.
pub fn run_trace_export(fidelity: Fidelity, models: DcmModels) -> TraceExport {
    let mut experiment = fig5::fig5_config(fidelity);
    experiment.obs = Some(obs_config(fidelity));
    let (ec2, dcm) = fig5::run_ec2_and_dcm(experiment, models);
    let export = |label: &'static str, run: TraceRunResult| {
        let summary = fig5::summarize(&run);
        ControllerExport {
            label,
            obs: run.obs.expect("obs enabled for this run"),
            summary,
        }
    };
    TraceExport {
        dcm: export("dcm", dcm),
        ec2: export("ec2", ec2),
    }
}

impl TraceExport {
    /// Recorder/journal/series accounting for both runs — the `repro
    /// trace` console table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(["artifact", "DCM", "EC2-AutoScale"]);
        type StatFn = fn(&ControllerExport) -> String;
        let stat = |f: StatFn| [f(&self.dcm), f(&self.ec2)];
        let rows: [(&str, StatFn); 8] = [
            ("spans seen", |c| c.obs.trace.stats.seen.to_string()),
            ("spans recorded", |c| c.obs.trace.stats.recorded.to_string()),
            ("spans unsampled", |c| {
                c.obs.trace.stats.unsampled.to_string()
            }),
            ("spans evicted (ring)", |c| {
                c.obs.trace.stats.evicted.to_string()
            }),
            ("server events", |c| c.obs.trace.events.len().to_string()),
            ("control ticks", |c| c.obs.trace.ticks.len().to_string()),
            ("journal entries", |c| c.obs.journal.len().to_string()),
            ("metric series rows", |c| c.obs.series.len().to_string()),
        ];
        for (name, f) in rows {
            let [d, e] = stat(f);
            t.row([name.to_string(), d, e]);
        }
        let [d, e] = stat(|c| num(c.summary.throughput, 1));
        t.row(["throughput (req/s)".to_string(), d, e]);
        t
    }

    /// Writes the ten artifacts (`fig5_{dcm,ec2}.{trace.json, spans.csv,
    /// journal.json, explain.txt, metrics.csv}`) into `dir`, creating it
    /// if needed. Returns the paths written, in a fixed order.
    ///
    /// # Errors
    ///
    /// Propagates any filesystem error.
    pub fn write_artifacts(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for run in [&self.dcm, &self.ec2] {
            let base = format!("fig5_{}", run.label);
            let files = [
                (
                    format!("{base}.trace.json"),
                    chrome_trace_json(&run.obs.trace),
                ),
                (format!("{base}.spans.csv"), spans_csv(&run.obs.trace)),
                (format!("{base}.journal.json"), run.obs.journal.to_json()),
                (
                    format!("{base}.explain.txt"),
                    run.obs.journal.render_explain(false),
                ),
                (format!("{base}.metrics.csv"), run.obs.series.to_csv()),
            ];
            for (name, content) in files {
                let path = dir.join(name);
                fs::write(&path, content)?;
                written.push(path);
            }
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_trace_export_produces_all_artifacts() {
        let export = run_trace_export(Fidelity::Quick, DcmModels::reference());
        for run in [&export.dcm, &export.ec2] {
            assert!(run.obs.trace.stats.seen > 0, "{}: no spans seen", run.label);
            assert!(!run.obs.trace.spans.is_empty());
            assert!(!run.obs.journal.is_empty());
            assert!(!run.obs.series.is_empty());
            assert_eq!(run.obs.journal.len(), run.obs.series.len());
        }
        // DCM journals model fits; the baseline has none.
        assert_eq!(export.dcm.obs.journal.entries()[0].fits.len(), 2);
        assert!(export.ec2.obs.journal.entries()[0].fits.is_empty());
        let table = export.table();
        assert_eq!(table.len(), 9);
    }

    #[test]
    fn repeated_export_is_byte_identical() {
        let a = run_trace_export(Fidelity::Quick, DcmModels::reference());
        let b = run_trace_export(Fidelity::Quick, DcmModels::reference());
        for (x, y) in [(&a.dcm, &b.dcm), (&a.ec2, &b.ec2)] {
            assert_eq!(
                chrome_trace_json(&x.obs.trace),
                chrome_trace_json(&y.obs.trace)
            );
            assert_eq!(x.obs.journal.to_json(), y.obs.journal.to_json());
            assert_eq!(x.obs.series.to_csv(), y.obs.series.to_csv());
            assert_eq!(spans_csv(&x.obs.trace), spans_csv(&y.obs.trace));
        }
    }
}
