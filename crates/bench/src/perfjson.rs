//! Minimal reader and regression gate for `results/perf.json`.
//!
//! The workspace carries no JSON parser dependency, and the perf log's
//! shape is fixed (written by [`dcm_obs::PerfLog::to_json`]): a top-level
//! object with an `"experiments"` array whose entries each carry a
//! `"name"` string and an `"events_per_sec"` number. This module scans
//! exactly that shape — enough for the CI events/s regression gate — and
//! nothing more.

/// One experiment entry extracted from a perf log.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfEntry {
    /// The experiment name (`training`, `trace`, `fleet`, `queue_*`, ...).
    pub name: String,
    /// Simulated events (or queue operations) per wall-clock second.
    pub events_per_sec: f64,
}

/// Extracts the `(name, events_per_sec)` pairs from a perf-log JSON
/// document. Unknown fields are ignored; entries missing either field are
/// skipped.
pub fn parse_entries(json: &str) -> Vec<PerfEntry> {
    let mut entries = Vec::new();
    let Some(start) = json.find("\"experiments\"") else {
        return entries;
    };
    let mut rest = &json[start..];
    while let Some(pos) = rest.find("\"name\":") {
        rest = &rest[pos + "\"name\":".len()..];
        let Some(name) = read_string(rest) else {
            continue;
        };
        let Some(eps_pos) = rest.find("\"events_per_sec\":") else {
            break;
        };
        // The rate must belong to this entry: stop at the next name if the
        // rate field is missing from the current one.
        if let Some(next_name) = rest.find("\"name\":") {
            if next_name < eps_pos {
                continue;
            }
        }
        let after = &rest[eps_pos + "\"events_per_sec\":".len()..];
        if let Some(rate) = read_number(after) {
            entries.push(PerfEntry {
                name,
                events_per_sec: rate,
            });
        }
        rest = after;
    }
    entries
}

fn read_string(s: &str) -> Option<String> {
    let open = s.find('"')?;
    let rest = &s[open + 1..];
    let close = rest.find('"')?;
    Some(rest[..close].to_string())
}

fn read_number(s: &str) -> Option<f64> {
    let trimmed = s.trim_start();
    let end = trimmed
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(trimmed.len());
    trimmed[..end].parse().ok()
}

/// The outcome of comparing a fresh perf log against a committed baseline.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// One line per compared experiment.
    pub lines: Vec<String>,
    /// Experiments whose rate dropped below the allowed fraction.
    pub failures: Vec<String>,
    /// Baseline entries with no counterpart in the current log.
    pub missing: Vec<String>,
    /// Structural problems that make the comparison meaningless: a
    /// tolerance outside `[0, 1)`, an empty/unparseable baseline, or a
    /// baseline rate of zero (a ratio against it would be NaN or infinite,
    /// silently passing the gate).
    pub errors: Vec<String>,
}

impl GateReport {
    /// True when the inputs were comparable, no compared experiment
    /// regressed, and none disappeared.
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.missing.is_empty() && self.errors.is_empty()
    }
}

/// Compares `current` against `baseline`: every baseline experiment must
/// still exist and keep at least `1 - max_drop` of its events/s (e.g.
/// `max_drop = 0.15` fails on a >15 % slowdown). Speedups always pass.
/// A `max_drop` that is not a finite fraction in `[0, 1)` (NaN, or a drop
/// of 100 % or more, which no rate could fail), a baseline that parses to
/// no entries, or a baseline entry whose rate is zero or non-finite,
/// fails the gate with an explicit error rather than producing a NaN/Inf
/// ratio verdict.
pub fn gate(baseline: &str, current: &str, max_drop: f64) -> GateReport {
    let base = parse_entries(baseline);
    let cur = parse_entries(current);
    let mut report = GateReport {
        lines: Vec::new(),
        failures: Vec::new(),
        missing: Vec::new(),
        errors: Vec::new(),
    };
    if !(0.0..1.0).contains(&max_drop) {
        report.errors.push(format!(
            "allowed drop {max_drop} is not a fraction in [0, 1) (--max-drop \
             takes a percentage below 100)"
        ));
        return report;
    }
    if base.is_empty() {
        report
            .errors
            .push("baseline has no experiment entries (empty or malformed perf.json?)".to_string());
        return report;
    }
    for b in &base {
        let Some(c) = cur.iter().find(|c| c.name == b.name) else {
            report.missing.push(b.name.clone());
            continue;
        };
        if !(b.events_per_sec > 0.0 && b.events_per_sec.is_finite()) {
            report.errors.push(format!(
                "{}: baseline rate {} events/s is not a positive finite number; \
                 cannot compute a regression ratio",
                b.name, b.events_per_sec
            ));
            continue;
        }
        let ratio = c.events_per_sec / b.events_per_sec;
        // One comparison gives the line its verdict and the gate its
        // failure, so a NaN ratio fails both.
        let ok = ratio >= 1.0 - max_drop;
        report.lines.push(format!(
            "{}: {:.0} -> {:.0} events/s ({:+.1} %) {}",
            b.name,
            b.events_per_sec,
            c.events_per_sec,
            100.0 * (ratio - 1.0),
            if ok { "ok" } else { "FAIL" }
        ));
        if !ok {
            report.failures.push(b.name.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "command": "perf",
  "fidelity": "full",
  "jobs": 4,
  "total_wall_secs": 1.5,
  "total_events": 300,
  "experiments": [
    {"name": "training", "wall_secs": 0.5, "events": 100, "events_per_sec": 200.0},
    {"name": "trace", "wall_secs": 1.0, "events": 200, "events_per_sec": 200.0, "peak_rss_mb": 12.5}
  ]
}
"#;

    #[test]
    fn parses_the_perflog_shape() {
        let entries = parse_entries(SAMPLE);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "training");
        assert_eq!(entries[0].events_per_sec, 200.0);
        assert_eq!(entries[1].name, "trace");
    }

    #[test]
    fn parses_real_perflog_output() {
        let mut log = dcm_obs::PerfLog::new();
        log.record("training", 0.5, 1_000_000);
        log.record("fleet", 2.0, 50_000_000);
        log.record_peak_rss("fleet", 512 * 1024 * 1024);
        log.record_slab("fleet", 10, 90);
        let json = log.to_json("perf", "full", 1, 2.5);
        let entries = parse_entries(&json);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].events_per_sec, 2_000_000.0);
        assert_eq!(entries[1].name, "fleet");
        assert_eq!(entries[1].events_per_sec, 25_000_000.0);
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let current = SAMPLE.replace("\"events_per_sec\": 200.0}", "\"events_per_sec\": 180.0}");
        let report = gate(SAMPLE, &current, 0.15);
        assert!(report.passed(), "10% drop within 15% gate: {report:?}");
        let slow = SAMPLE.replace("\"events_per_sec\": 200.0}", "\"events_per_sec\": 160.0}");
        let report = gate(SAMPLE, &slow, 0.15);
        assert!(!report.passed());
        assert_eq!(report.failures, vec!["training".to_string()]);
    }

    #[test]
    fn gate_rejects_an_allowed_drop_outside_0_to_1() {
        // Every rate collapsed to 1 event/s: no tolerance may let that
        // through, a NaN or a drop of 100 % or more included.
        let collapsed = SAMPLE.replace("\"events_per_sec\": 200.0", "\"events_per_sec\": 1.0");
        for max_drop in [f64::NAN, 2.5, 1.0, -0.1, f64::INFINITY] {
            let report = gate(SAMPLE, &collapsed, max_drop);
            assert!(!report.passed(), "tolerance {max_drop} passed: {report:?}");
            assert_eq!(report.errors.len(), 1);
            assert!(report.errors[0].contains("[0, 1)"), "{}", report.errors[0]);
        }
        // Tolerances in range still judge the rates.
        assert!(!gate(SAMPLE, &collapsed, 0.99).passed());
        assert!(gate(SAMPLE, SAMPLE, 0.0).passed());
    }

    #[test]
    fn gate_rejects_empty_and_malformed_baselines() {
        for baseline in ["", "{}", "not json at all", "{\"experiments\": []}"] {
            let report = gate(baseline, SAMPLE, 0.15);
            assert!(!report.passed(), "baseline {baseline:?} must not pass");
            assert_eq!(report.errors.len(), 1);
            assert!(
                report.errors[0].contains("no experiment entries"),
                "unclear message: {}",
                report.errors[0]
            );
        }
    }

    #[test]
    fn gate_rejects_zero_rate_baseline_entries() {
        let zeroed = SAMPLE.replace(
            "\"name\": \"training\", \"wall_secs\": 0.5, \"events\": 100, \"events_per_sec\": 200.0",
            "\"name\": \"training\", \"wall_secs\": 0.5, \"events\": 0, \"events_per_sec\": 0",
        );
        let report = gate(&zeroed, SAMPLE, 0.15);
        assert!(!report.passed(), "zero-rate baseline must not pass");
        assert_eq!(report.errors.len(), 1);
        assert!(
            report.errors[0].contains("training") && report.errors[0].contains("positive finite"),
            "unclear message: {}",
            report.errors[0]
        );
        // The healthy entry is still compared.
        assert_eq!(report.lines.len(), 1);
        assert!(report.failures.is_empty());
    }

    #[test]
    fn gate_flags_missing_experiments() {
        let current = r#""experiments": [
    {"name": "training", "wall_secs": 0.5, "events": 100, "events_per_sec": 500.0}
  ]"#;
        let report = gate(SAMPLE, current, 0.15);
        assert!(!report.passed());
        assert_eq!(report.missing, vec!["trace".to_string()]);
    }
}
