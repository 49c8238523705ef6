//! Typed metrics registry and columnar time-series.
//!
//! The registry holds three metric kinds under stable string names:
//! monotone **counters** (`u64`), instantaneous **gauges** (`f64`), and
//! **histograms** ([`dcm_sim::stats::Histogram`]). Once per control period
//! the experiment harness snapshots the registry into a [`SeriesTable`] —
//! a columnar time-series with one row per snapshot and one column per
//! metric — which renders to a stable CSV.
//!
//! The registry is also the single home for the `repro` binary's
//! wall-clock/events-per-second bookkeeping ([`PerfLog`]), which used to be
//! ad-hoc structs inside the binary; the JSON it renders keeps the exact
//! `results/perf.json` shape CI compares against.
//!
//! Everything iterates `BTreeMap`s, so output order is deterministic.

use std::collections::BTreeMap;

use dcm_sim::stats::Histogram;

use crate::json::escape;

/// Typed counter/gauge/histogram store keyed by metric name.
#[derive(Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `delta` to the named counter (created at zero on first use).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Current value of a counter (zero when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records into the named histogram, creating it with the given bounds
    /// on first use. Out-of-range bounds on first use are a programming
    /// error and panic (matching `Histogram::new`'s contract).
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` or `bins == 0` when the histogram is created.
    pub fn histogram_record(&mut self, name: &str, low: f64, high: f64, bins: usize, value: f64) {
        self.histogram_entry(name, low, high, bins).record(value);
    }

    /// The named histogram, created with the given bounds on first access.
    fn histogram_entry(&mut self, name: &str, low: f64, high: f64, bins: usize) -> &mut Histogram {
        self.histograms.entry(name.to_string()).or_insert_with(|| {
            match Histogram::new(low, high, bins) {
                Ok(h) => h,
                Err(e) => panic!("invalid histogram bounds for {name}: {e:?}"),
            }
        })
    }

    /// The named histograms, in the order of `names`, each created with the
    /// given bounds on first access. Hot paths that record many values per
    /// period fetch their histograms once through this method, all at
    /// once, instead of paying a name lookup per
    /// [`Registry::histogram_record`] call.
    ///
    /// # Panics
    ///
    /// Panics if a name repeats, or if a histogram is created with
    /// `low >= high` or `bins == 0`.
    pub fn histogram_entries(
        &mut self,
        names: &[String],
        low: f64,
        high: f64,
        bins: usize,
    ) -> Vec<&mut Histogram> {
        for name in names {
            self.histogram_entry(name, low, high, bins);
        }
        let mut entries: Vec<Option<&mut Histogram>> = names.iter().map(|_| None).collect();
        for (name, h) in &mut self.histograms {
            if let Some(i) = names.iter().position(|n| n == name) {
                entries[i] = Some(h);
            }
        }
        entries
            .into_iter()
            .map(|h| h.expect("histogram names are distinct"))
            .collect()
    }

    /// The named histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All metric names, sorted, with a kind prefix column view:
    /// counters, then gauges, then histograms.
    pub fn names(&self) -> Vec<String> {
        self.counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .cloned()
            .collect()
    }
}

/// Columnar time-series: one row per snapshot, one column per metric.
///
/// Columns appearing after the first snapshot are backfilled with zeros so
/// the table stays rectangular; counters snapshot as their cumulative value
/// and histograms contribute `<name>.count` / `<name>.mean` / `<name>.p95`
/// columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesTable {
    times: Vec<f64>,
    columns: BTreeMap<String, Vec<f64>>,
}

impl SeriesTable {
    /// An empty table.
    pub fn new() -> SeriesTable {
        SeriesTable::default()
    }

    /// Number of snapshot rows.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no snapshot has been taken.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// A column by name.
    pub fn column(&self, name: &str) -> Option<&[f64]> {
        self.columns.get(name).map(Vec::as_slice)
    }

    /// Snapshot times (seconds).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Captures one row from the registry at time `t` (seconds).
    pub fn snapshot(&mut self, t: f64, registry: &Registry) {
        let row = self.times.len();
        self.times.push(t);
        let set = |columns: &mut BTreeMap<String, Vec<f64>>, name: &str, value: f64| {
            let col = columns
                .entry(name.to_string())
                .or_insert_with(|| vec![0.0; row]);
            col.push(value);
        };
        for (name, &v) in &registry.counters {
            set(&mut self.columns, name, v as f64);
        }
        for (name, &v) in &registry.gauges {
            set(&mut self.columns, name, v);
        }
        for (name, h) in &registry.histograms {
            set(
                &mut self.columns,
                &format!("{name}.count"),
                h.count() as f64,
            );
            set(&mut self.columns, &format!("{name}.mean"), h.mean());
            set(
                &mut self.columns,
                &format!("{name}.p95"),
                h.quantile(0.95).unwrap_or(0.0),
            );
        }
        // Columns missing from this snapshot (metric deleted — shouldn't
        // happen, but keep the table rectangular regardless).
        for col in self.columns.values_mut() {
            if col.len() == row {
                col.push(0.0);
            }
        }
    }

    /// Renders the table as CSV: `t` then one column per metric, sorted by
    /// name. Byte-deterministic.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t");
        for name in self.columns.keys() {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for (row, t) in self.times.iter().enumerate() {
            out.push_str(&format!("{t:.3}"));
            for col in self.columns.values() {
                out.push_str(&format!(",{:.6}", col[row]));
            }
            out.push('\n');
        }
        out
    }
}

/// Wall-clock performance bookkeeping for the `repro` binary, backed by the
/// registry (gauge `perf.<name>.wall_secs`, counter `perf.<name>.events`).
///
/// The timing itself (an `Instant` pair) stays in the binary — this crate
/// is wall-clock-free under the Strict lint policy; it only stores and
/// renders the measured numbers.
#[derive(Debug, Default)]
pub struct PerfLog {
    registry: Registry,
    order: Vec<String>,
}

impl PerfLog {
    /// An empty log.
    pub fn new() -> PerfLog {
        PerfLog::default()
    }

    /// Records one experiment's wall time and engine event count.
    pub fn record(&mut self, name: &str, wall_secs: f64, events: u64) {
        self.order.push(name.to_string());
        self.registry
            .gauge_set(&format!("perf.{name}.wall_secs"), wall_secs);
        self.registry
            .counter_add(&format!("perf.{name}.events"), events);
    }

    /// Attaches the process peak RSS (bytes) observed at the end of the
    /// named experiment. Rendered as `"peak_rss_mb"` in the JSON entry;
    /// entries without a recorded peak keep the historical shape.
    pub fn record_peak_rss(&mut self, name: &str, peak_rss_bytes: u64) {
        self.registry.gauge_set(
            &format!("perf.{name}.peak_rss_mb"),
            peak_rss_bytes as f64 / (1024.0 * 1024.0),
        );
    }

    /// Attaches request-slab allocation counters to the named experiment:
    /// `allocated` entries were created fresh, `reused` entries recycled a
    /// retired slot (the slab hit rate is `reused / (allocated + reused)`).
    pub fn record_slab(&mut self, name: &str, allocated: u64, reused: u64) {
        self.registry
            .counter_add(&format!("perf.{name}.slab_allocated"), allocated);
        self.registry
            .counter_add(&format!("perf.{name}.slab_reused"), reused);
    }

    /// Number of experiments recorded.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Total engine events across recorded experiments.
    pub fn total_events(&self) -> u64 {
        self.order
            .iter()
            .map(|name| self.registry.counter(&format!("perf.{name}.events")))
            .sum()
    }

    /// The backing registry (read access for tests / other exporters).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Renders the historical `results/perf.json` shape (field order and
    /// formatting unchanged from the pre-registry implementation).
    pub fn to_json(
        &self,
        command: &str,
        fidelity: &str,
        jobs: usize,
        total_wall_secs: f64,
    ) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"command\": \"{}\",\n", escape(command)));
        out.push_str(&format!("  \"fidelity\": \"{}\",\n", escape(fidelity)));
        out.push_str(&format!("  \"jobs\": {jobs},\n"));
        out.push_str(&format!("  \"total_wall_secs\": {total_wall_secs:.6},\n"));
        out.push_str(&format!("  \"total_events\": {},\n", self.total_events()));
        out.push_str("  \"experiments\": [\n");
        for (i, name) in self.order.iter().enumerate() {
            let wall = self
                .registry
                .gauge(&format!("perf.{name}.wall_secs"))
                .unwrap_or(0.0);
            let events = self.registry.counter(&format!("perf.{name}.events"));
            let rate = if wall > 0.0 {
                events as f64 / wall
            } else {
                0.0
            };
            let mut extras = String::new();
            if let Some(rss) = self.registry.gauge(&format!("perf.{name}.peak_rss_mb")) {
                extras.push_str(&format!(", \"peak_rss_mb\": {rss:.1}"));
            }
            let allocated = self
                .registry
                .counter(&format!("perf.{name}.slab_allocated"));
            let reused = self.registry.counter(&format!("perf.{name}.slab_reused"));
            if allocated + reused > 0 {
                extras.push_str(&format!(
                    ", \"slab_allocated\": {allocated}, \"slab_reused\": {reused}"
                ));
            }
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_secs\": {:.6}, \"events\": {}, \
                 \"events_per_sec\": {:.1}{}}}{}\n",
                escape(name),
                wall,
                events,
                rate,
                extras,
                if i + 1 < self.order.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counter_gauge_histogram_roundtrip() {
        let mut r = Registry::new();
        r.counter_add("requests", 3);
        r.counter_add("requests", 2);
        assert_eq!(r.counter("requests"), 5);
        assert_eq!(r.counter("never"), 0);
        r.gauge_set("util", 0.75);
        assert_eq!(r.gauge("util"), Some(0.75));
        r.histogram_record("dwell", 0.0, 10.0, 100, 1.0);
        r.histogram_record("dwell", 0.0, 10.0, 100, 3.0);
        let h = r.histogram("dwell").expect("created on first record");
        assert_eq!(h.count(), 2);
        assert_eq!(r.names().len(), 3);
    }

    #[test]
    fn histogram_entries_come_in_name_order() {
        let mut r = Registry::new();
        r.histogram_record("b", 0.0, 10.0, 10, 1.0);
        let names = ["b".to_string(), "a".to_string()];
        let mut entries = r.histogram_entries(&names, 0.0, 10.0, 10);
        entries[1].record(2.0);
        entries[1].record(4.0);
        assert_eq!(r.histogram("b").map(Histogram::count), Some(1));
        assert_eq!(r.histogram("a").map(Histogram::mean), Some(3.0));
    }

    #[test]
    fn series_table_stays_rectangular_with_late_columns() {
        let mut r = Registry::new();
        let mut table = SeriesTable::new();
        r.gauge_set("a", 1.0);
        table.snapshot(0.0, &r);
        r.gauge_set("b", 2.0); // New column after the first row.
        table.snapshot(1.0, &r);
        assert_eq!(table.len(), 2);
        assert_eq!(table.column("a"), Some(&[1.0, 1.0][..]));
        assert_eq!(table.column("b"), Some(&[0.0, 2.0][..]));
        let csv = table.to_csv();
        assert!(csv.starts_with("t,a,b\n"));
        assert!(csv.contains("0.000,1.000000,0.000000"));
        assert!(csv.contains("1.000,1.000000,2.000000"));
    }

    #[test]
    fn perf_log_keeps_the_historical_json_shape() {
        let mut perf = PerfLog::new();
        perf.record("fig2a", 0.5, 1000);
        perf.record("fig5", 1.5, 6000);
        assert_eq!(perf.total_events(), 7000);
        let json = perf.to_json("all", "full", 4, 2.125);
        assert!(json.contains("\"command\": \"all\""));
        assert!(json.contains("\"fidelity\": \"full\""));
        assert!(json.contains("\"jobs\": 4"));
        assert!(json.contains("\"total_wall_secs\": 2.125000"));
        assert!(json.contains("\"total_events\": 7000"));
        assert!(json.contains(
            "{\"name\": \"fig2a\", \"wall_secs\": 0.500000, \"events\": 1000, \
             \"events_per_sec\": 2000.0},"
        ));
        assert!(json.contains(
            "{\"name\": \"fig5\", \"wall_secs\": 1.500000, \"events\": 6000, \
             \"events_per_sec\": 4000.0}\n"
        ));
    }

    #[test]
    fn perf_log_memory_and_slab_extras_extend_entries() {
        let mut perf = PerfLog::new();
        perf.record("fleet", 2.0, 1000);
        perf.record_peak_rss("fleet", 512 * 1024 * 1024);
        perf.record_slab("fleet", 100, 900);
        perf.record("plain", 1.0, 500);
        let json = perf.to_json("fleet", "full", 1, 3.0);
        assert!(json.contains(
            "{\"name\": \"fleet\", \"wall_secs\": 2.000000, \"events\": 1000, \
             \"events_per_sec\": 500.0, \"peak_rss_mb\": 512.0, \
             \"slab_allocated\": 100, \"slab_reused\": 900},"
        ));
        // Entries without extras keep the historical shape exactly.
        assert!(json.contains(
            "{\"name\": \"plain\", \"wall_secs\": 1.000000, \"events\": 500, \
             \"events_per_sec\": 500.0}\n"
        ));
    }
}
