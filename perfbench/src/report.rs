//! Named metrics, output checks, and the two output forms: readable
//! lines and the final JSON line.

use std::fmt::Write as _;

/// Metrics every workload reports on an untraced run — the ones
/// `BENCHMARK.json` bounds: `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 3] = [
    ("setup_s", "s", "lower"),
    ("events_per_s", "1/s", "higher"),
    ("peak_mem_mb", "MB", "lower"),
];

/// Per-layer metrics of a traced run, each reported by every workload
/// (0 where the workload does not run the layer): `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 27] = [
    ("metro.schedule_ns_per_wake", "ns", "lower"),
    ("metro.reorder_skew_p999_ms", "ms", "lower"),
    ("metro.serve_wake_ns_per_wake", "ns", "lower"),
    ("metro.record_wakes_pct", "%", "higher"),
    ("des.events_per_wake", "count", "lower"),
    ("des.peak_pending", "count", "lower"),
    ("escalation.observe_ns_per_record", "ns", "lower"),
    ("wire.encode_ns_per_frame", "ns", "lower"),
    ("wire.decode_ns_per_frame", "ns", "lower"),
    ("wire.crc16_ns_per_byte", "ns", "lower"),
    ("wire.frames_per_wake", "count", "lower"),
    ("wire.polls_per_wake", "count", "lower"),
    ("client.on_bytes_ns_per_flush", "ns", "lower"),
    ("server.self_ns_per_wake", "ns", "lower"),
    ("server.busy_pct", "%", "lower"),
    ("setup.ctx_s", "s", "lower"),
    ("setup.first_wake_s", "s", "lower"),
    ("checkpoint.encode_mb_per_s", "MB/s", "higher"),
    ("checkpoint.decode_mb_per_s", "MB/s", "higher"),
    ("checkpoint.delta_diff_s", "s", "lower"),
    ("checkpoint.compact_s", "s", "lower"),
    ("checkpoint.delta_pct_of_full", "%", "lower"),
    ("wal.encode_mb_per_s", "MB/s", "higher"),
    ("wal.decode_mb_per_s", "MB/s", "higher"),
    ("wal.bytes_per_record", "B", "lower"),
    ("recovery.replay_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// One measured figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// The value.
    pub value: f64,
    /// Samples behind it (passes, prompts, wakes...).
    pub n: usize,
}

/// A workload run's results.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Lines describing the run (sizes, findings, flags).
    pub notes: Vec<String>,
    /// Every metric measured, in print order.
    pub metrics: Vec<Metric>,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// The checks that failed.
    pub mismatches: Vec<String>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            ..Report::default()
        }
    }

    /// Records a metric.
    pub fn put(
        &mut self,
        name: &str,
        unit: &'static str,
        better: &'static str,
        value: f64,
        n: usize,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            better,
            value,
            n,
        });
    }

    /// Records a metric named in [`END_TO_END`] or [`PER_LAYER`].
    pub fn put_known(&mut self, name: &str, value: f64, n: usize) {
        let &(_, unit, better) = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(known, ..)| *known == name)
            .expect("metric is declared in the tables");
        self.put(name, unit, better, value, n);
    }

    /// Counts one output check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches.push(what.to_string());
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// A free-form note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Failed over attempted, in percent.
    pub fn error_pct(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let pct = self.failed as f64 * 100.0 / self.attempted.max(1) as f64;
        pct
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The value of metric `name`, if measured.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Readable lines: notes, then one line per metric.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for line in &self.notes {
            let _ = writeln!(s, "# {}: {line}", self.workload);
        }
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "{:<11} {:<34} {:>16} {:<6} {:<6} n={}",
                self.workload,
                m.name,
                format_value(m.value),
                m.unit,
                m.better,
                m.n
            );
        }
        let _ = writeln!(
            s,
            "{:<11} {:<34} {:>16} {:<6} {:<6} n={}",
            self.workload,
            "error_pct",
            format_value(self.error_pct()),
            "%",
            "lower",
            self.attempted
        );
        for what in &self.mismatches {
            let _ = writeln!(s, "# {}: CHECK FAILED: {what}", self.workload);
        }
        s
    }
}

fn format_value(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// The final JSON line: `correct`, `attempted`, `failed`, and the named
/// metrics (`names`) with their units, keyed `workload.name` when
/// `prefix` (several workloads in one line). A metric not measured, or
/// not finite, reads 0; the caller fails such a run.
pub fn json_line(reports: &[Report], names: &[(&str, &str, &str)], prefix: bool) -> String {
    let correct = reports.iter().all(Report::correct);
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let mut metrics = String::new();
    for r in reports {
        for &(name, unit, _) in names {
            let value = r.value(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let key = if prefix {
                format!("{}.{name}", r.workload)
            } else {
                name.to_string()
            };
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{key}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        attempted.max(1)
    )
}
