//! The run report: host facts, metrics with units and bases, and the final
//! JSON line.

use std::fmt::Write as _;

use crate::stats::{median, percentile, ratio};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// What the value was computed over: sample counts, the base of a ratio.
    pub base: String,
}

#[derive(Debug, Default)]
pub struct Report {
    facts: Vec<(String, String)>,
    metrics: Vec<Metric>,
    /// Extra figures printed for people, not part of the JSON line.
    notes: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Every oracle check that ran outside the timed phase passed.
    pub checks_passed: bool,
}

impl Report {
    pub fn new() -> Self {
        let mut r = Report { checks_passed: true, ..Default::default() };
        r.fact("available_parallelism", crate::host::parallelism());
        r.fact("git_commit", crate::host::git_commit());
        r.fact("rustc", env!("SEEDBENCH_RUSTC"));
        r
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// A metric that goes into the JSON line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, base: impl Into<String>) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name: name.to_string(), value, unit, base: base.into() });
    }

    /// A figure printed for people only.
    pub fn note(&mut self, name: &str, value: f64, unit: &'static str, base: impl Into<String>) {
        self.notes.push(Metric { name: name.to_string(), value, unit, base: base.into() });
    }

    /// Records a failed oracle check.
    pub fn check(&mut self, ok: bool, what: impl AsRef<str>) {
        if !ok {
            self.checks_passed = false;
            eprintln!("oracle: {}", what.as_ref());
        }
    }

    pub fn correct(&self) -> bool {
        self.checks_passed && self.failed == 0 && self.attempted > 0
    }

    /// The last line of the output.
    pub fn json_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// Everything, for people and for the report file.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.facts {
            let _ = writeln!(out, "# {k}: {v}");
        }
        let _ = writeln!(
            out,
            "# attempted: {}, failed: {}, oracle checks passed: {}",
            self.attempted, self.failed, self.checks_passed
        );
        for m in self.metrics.iter().chain(&self.notes) {
            let _ = writeln!(out, "{:<36} {:>14.4} {:<12} {}", m.name, m.value, m.unit, m.base);
        }
        out
    }
}

/// Timings of a measured phase made of whole passes over a fixed input mix.
#[derive(Debug, Default)]
pub struct Timed {
    /// Latency of every op, in ms.
    pub op_ms: Vec<f64>,
    /// Ops per second of op time, one value per pass.
    pub pass_rates: Vec<f64>,
    /// Each pass's own p50 and p90 latency, in ms.
    pub pass_p50: Vec<f64>,
    pub pass_p90: Vec<f64>,
    pub ops: u64,
    pub op_seconds: f64,
}

impl Timed {
    /// Adds one whole pass: the latencies it reports (ms), the units of
    /// work it completed, and the time its ops kept the system busy (ms).
    pub fn pass(&mut self, latency_ms: &[f64], units: u64, busy_ms: f64) {
        self.op_ms.extend_from_slice(latency_ms);
        self.ops += units;
        self.op_seconds += busy_ms / 1e3;
        if busy_ms > 0.0 {
            self.pass_rates.push(units as f64 / (busy_ms / 1e3));
        }
        if !latency_ms.is_empty() {
            self.pass_p50.push(percentile(latency_ms, 0.5).value);
            self.pass_p90.push(percentile(latency_ms, 0.9).value);
        }
    }

    /// Adds one whole pass whose ops are its units of work.
    pub fn ops_pass(&mut self, op_ms: &[f64]) {
        self.pass(op_ms, op_ms.len() as u64, op_ms.iter().sum());
    }

    pub fn passes(&self) -> usize {
        self.pass_rates.len()
    }

    /// Units of work per second of op time in the median pass: passes are
    /// the same mix of work, so a pass the host slowed down does not move it.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.pass_rates)
    }
}

/// Adds the end-to-end metrics every workload reports.
pub fn end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    timed: &Timed,
    op: &str,
    unit: &str,
    rss_mb: f64,
) {
    report.metric(
        "setup_s",
        median(setup_s),
        "s",
        format!("median of {} set-ups: {:?}", setup_s.len(), setup_s),
    );
    report.metric(
        "ops_per_s",
        timed.ops_per_s(),
        "op/s",
        format!(
            "{unit}s per second of op time in the median of {} whole passes ({} {unit}s in {:.2} s overall)",
            timed.passes(),
            timed.ops,
            timed.op_seconds
        ),
    );
    // Like throughput, each latency percentile is read per pass and the
    // median pass reported, so a stretch the host slowed down does not move
    // it; the pooled percentile is printed beside it.
    let per_pass = timed.op_ms.len() / timed.pass_p50.len().max(1);
    for (tag, q, passes) in [("p50", 0.5, &timed.pass_p50), ("p90", 0.9, &timed.pass_p90)] {
        let pooled = percentile(&timed.op_ms, q);
        report.metric(
            &format!("latency_{tag}_ms"),
            median(passes),
            "ms",
            format!(
                "per {op}, median of {} passes' {tag} (about {per_pass} samples each); \
                 pooled {:.4} over {} samples, {} beyond",
                passes.len(),
                pooled.value,
                pooled.samples,
                pooled.beyond
            ),
        );
    }
    let q = |p| percentile(&timed.pass_rates, p).value;
    report.note(
        "pass_rates",
        ratio(timed.ops as f64, timed.op_seconds),
        "op/s",
        format!(
            "all passes together; per pass min {:.1}, q1 {:.1}, q3 {:.1}, max {:.1}",
            q(0.0),
            q(0.25),
            q(0.75),
            q(1.0)
        ),
    );
    report.metric("peak_rss_mb", rss_mb, "MiB", "VmHWM after the measured phase");
}

/// Notes `<prefix>_p50_ms` and `<prefix>_p90_ms` with their sample counts.
pub fn latency_notes(report: &mut Report, prefix: &str, op_ms: &[f64], what: &str) {
    for (q, tag) in [(0.5, "p50"), (0.9, "p90")] {
        let t = percentile(op_ms, q);
        let base = format!("{what}: {} samples, {} beyond", t.samples, t.beyond);
        report.note(&format!("{prefix}_{tag}_ms"), t.value, "ms", base);
    }
}
