//! The per-layer metrics a traced run reports. Every traced run reports all
//! of them; a layer a workload does not reach reads 0.

use std::collections::BTreeMap;

use seed_sqlengine::ExecStats;

use crate::report::Report;
use crate::stats::ratio;
use crate::trace::{LayerTotals, Trace};

/// Name and unit of every per-layer metric, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.build_ms", "ms"),
    ("seed_core.generate_ms", "ms"),
    ("seed_core.share", "ratio"),
    ("seed_core.probes_per_call", "probes/call"),
    ("seed_core.grounded_per_probe", "ratio"),
    ("seed_core.llm_calls_per_call", "calls/call"),
    ("seed_core.prompt_tokens_per_call", "tokens/call"),
    ("seed_core.context_overflows", "count"),
    ("seed_core.allocs_per_call", "allocs/call"),
    ("text2sql.generate_ms", "ms"),
    ("text2sql.share", "ratio"),
    ("text2sql.llm_calls_per_call", "calls/call"),
    ("text2sql.prompt_tokens_per_call", "tokens/call"),
    ("text2sql.allocs_per_call", "allocs/call"),
    ("eval.self_ms_per_cell", "ms"),
    ("eval.plan_cache_hit_ratio", "ratio"),
    ("eval.allocs_per_cell", "allocs/cell"),
    ("sqlengine.rows_scanned_per_stmt", "rows/stmt"),
    ("sqlengine.hash_probes_per_stmt", "probes/stmt"),
    ("sqlengine.evaluations_per_stmt", "evals/stmt"),
    ("sqlengine.cost_per_stmt", "cost/stmt"),
    ("sqlengine.batches_per_stmt", "batches/stmt"),
    ("sqlengine.columnar_fallbacks", "count"),
    ("sqlengine.columnar_partial", "count"),
    ("sqlengine.subquery_cache_hit_ratio", "ratio"),
    ("sqlengine.errors_per_op", "errors/op"),
    ("serve.read_ms", "ms"),
    ("serve.commit_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.result_cache_hit_ratio", "ratio"),
    ("serve.result_cache_evictions", "count"),
    ("serve.dedup_waits", "count"),
    ("serve.dedup_wait_ms", "ms"),
    ("serve.worker_utilization", "ratio"),
    ("serve.commits", "count"),
    ("serve.rows_written", "count"),
    ("serve.snapshot_version", "count"),
    ("serve.prepared_statements", "count"),
    ("serve.allocs_per_request", "allocs/req"),
    ("llm_calls_per_op", "calls/op"),
    ("llm_prompt_tokens_per_op", "tokens/op"),
    ("commit_p50_ms", "ms"),
    ("commit_p90_ms", "ms"),
    ("trace.ops_per_s_untraced", "op/s"),
    ("trace.ops_per_s_traced", "op/s"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_share", "ratio"),
];

/// Per-layer values gathered by one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, (f64, String)>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64, base: impl Into<String>) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.values.insert(name, (value, base.into()));
    }

    /// Sets `name` to `num / den`, printing both.
    pub fn per(&mut self, name: &'static str, num: f64, den: f64, what: &str) {
        self.set(name, ratio(num, den), format!("{num} / {den} {what}"));
    }

    /// Mean inclusive time of a span, in ms.
    pub fn span_ms(&mut self, name: &'static str, t: &LayerTotals, span: &str) {
        self.set(
            name,
            ratio(t.total_ns as f64 / 1e6, t.calls as f64),
            format!("mean of {} {span} spans", t.calls),
        );
    }

    /// Adds every per-layer metric to the report, in [`PER_LAYER`] order.
    pub fn emit(mut self, report: &mut Report) {
        for &(name, unit) in PER_LAYER {
            let (value, base) = self
                .values
                .remove(name)
                .unwrap_or_else(|| (0.0, "not on this workload's path".into()));
            report.metric(name, value, unit, base);
        }
    }
}

/// Totals of a named span, zero when the trace has none.
pub fn totals(layers: &BTreeMap<&'static str, LayerTotals>, name: &str) -> LayerTotals {
    layers.get(name).copied().unwrap_or_default()
}

/// The trace-quality figures: traced against untraced throughput, and the
/// share of op wall time that named layer spans account for by self time.
pub fn trace_quality(
    out: &mut Layers,
    untraced_ops_per_s: f64,
    traced_ops_per_s: f64,
    trace: &Trace,
    op_wall_ms: f64,
    root: &str,
) {
    out.set(
        "trace.ops_per_s_untraced",
        untraced_ops_per_s,
        "median pass, first half of the run, tracing off",
    );
    out.set(
        "trace.ops_per_s_traced",
        traced_ops_per_s,
        "median pass, second half of the run, tracing on",
    );
    out.set(
        "trace.overhead_pct",
        (ratio(untraced_ops_per_s, traced_ops_per_s) - 1.0) * 100.0,
        "untraced over traced ops/s, minus one",
    );
    let layer_self_ns: u64 = trace
        .spans
        .iter()
        .zip(trace.self_figures())
        .filter(|(s, _)| s.op > 0 && s.name != root)
        .map(|(_, (self_ns, _))| self_ns)
        .sum();
    out.per(
        "trace.attributed_share",
        layer_self_ns as f64 / 1e6,
        op_wall_ms,
        "ms of layer self time / ms of op wall time",
    );
}

/// The engine's work counters per executed statement.
pub fn engine_stats(out: &mut Layers, st: &ExecStats, statements: f64, what: &str) {
    out.per("sqlengine.rows_scanned_per_stmt", st.rows_scanned as f64, statements, what);
    out.per("sqlengine.hash_probes_per_stmt", st.hash_probes as f64, statements, what);
    out.per("sqlengine.evaluations_per_stmt", st.evaluations as f64, statements, what);
    out.per("sqlengine.cost_per_stmt", st.cost(), statements, what);
    out.per("sqlengine.batches_per_stmt", st.batches_built as f64, statements, what);
    out.set("sqlengine.columnar_fallbacks", st.columnar_fallbacks as f64, what.to_string());
    out.set("sqlengine.columnar_partial", st.columnar_partial as f64, what.to_string());
    out.per(
        "sqlengine.subquery_cache_hit_ratio",
        st.subquery_result_hits as f64,
        (st.subquery_result_hits + st.subquery_result_misses) as f64,
        "uncorrelated subquery lookups",
    );
}
