//! Per-operator wall-clock profiling, kept strictly outside the
//! deterministic cost model.
//!
//! [`ExecStats`](crate::result::ExecStats) is the deterministic cost proxy
//! the VES metric compares, so wall-clock measurements must never flow into
//! it. This module holds the *other* half of observability: a
//! `Profiler` that the executor optionally carries, accumulating
//! per-operator invocation counts, output rows, batch counts, and monotonic
//! nanoseconds keyed by operator identity (the address of the `PlanNode` —
//! or, in nested-loop mode, of the AST node — being executed). The finished
//! [`QueryProfile`] is returned *next to* the result and stats, never inside
//! them, which is what lets `EXPLAIN ANALYZE` and the serve slow-query log
//! stay always-on without perturbing determinism suites.
//!
//! Timings are inclusive: an operator's nanos include the time spent in its
//! children, mirroring how the plan tree is rendered (a parent line
//! subsumes the subtree below it).

use std::collections::HashMap;
use std::time::Instant;

/// Accumulated measurements for one operator in one statement execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// Rendered operator label (same format as the `EXPLAIN` plan tree).
    pub label: String,
    /// How many times the operator ran (legacy-mode operators run once per
    /// statement; subquery-plan operators run once per evaluation).
    pub invocations: u64,
    /// Total rows the operator produced across all invocations.
    pub rows_out: u64,
    /// Total columnar batches produced (0 in the nested-loop oracle).
    pub batches: u64,
    /// Inclusive monotonic nanoseconds across all invocations.
    pub nanos: u64,
}

impl OpProfile {
    /// One-line rendering of the measured columns, used as the
    /// `EXPLAIN ANALYZE` annotation suffix.
    pub fn annotation(&self) -> String {
        let mut s = format!("(invocations={} rows={}", self.invocations, self.rows_out);
        if self.batches > 0 {
            s.push_str(&format!(" batches={}", self.batches));
        }
        s.push_str(&format!(" time={})", format_nanos(self.nanos)));
        s
    }
}

/// The wall-clock profile of one statement execution: total elapsed time
/// plus per-operator measurements in first-touch order.
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    /// Monotonic nanoseconds from executor construction to profile finish.
    pub total_nanos: u64,
    ops: Vec<OpProfile>,
    index: HashMap<usize, usize>,
}

impl QueryProfile {
    /// Per-operator measurements in the order operators were first
    /// executed.
    pub fn ops(&self) -> &[OpProfile] {
        &self.ops
    }

    /// Looks up the profile entry recorded under an operator key (the
    /// address of the plan/AST node it executed).
    pub(crate) fn op_for_key(&self, key: usize) -> Option<&OpProfile> {
        self.index.get(&key).map(|&i| &self.ops[i])
    }

    /// Position of an operator key in [`Self::ops`], if recorded.
    pub(crate) fn op_position(&self, key: usize) -> Option<usize> {
        self.index.get(&key).copied()
    }

    /// Multi-line human-readable rendering (one operator per line), used by
    /// the serve slow-query log.
    pub fn render(&self) -> String {
        let mut out = format!("total time: {}", format_nanos(self.total_nanos));
        for op in &self.ops {
            out.push('\n');
            out.push_str(&op.label);
            out.push(' ');
            out.push_str(&op.annotation());
        }
        out
    }
}

/// Formats nanoseconds with an adaptive unit (`ns`, `us`, `ms`, `s`).
pub fn format_nanos(nanos: u64) -> String {
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}us", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.1}ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", nanos as f64 / 1_000_000_000.0)
    }
}

/// Mutable profile accumulator the executor carries while profiling is
/// enabled. `record` is keyed by operator address so repeated invocations
/// of the same operator (per outer row, per batch round) accumulate into
/// one entry; the label closure only runs on first touch.
#[derive(Debug)]
pub(crate) struct Profiler {
    started: Instant,
    ops: Vec<OpProfile>,
    index: HashMap<usize, usize>,
}

impl Profiler {
    pub(crate) fn new() -> Self {
        Profiler { started: Instant::now(), ops: Vec::new(), index: HashMap::new() }
    }

    pub(crate) fn record(
        &mut self,
        key: usize,
        label: impl FnOnce() -> String,
        rows_out: u64,
        batches: u64,
        nanos: u64,
    ) {
        let slot = match self.index.get(&key) {
            Some(&i) => i,
            None => {
                let i = self.ops.len();
                self.ops.push(OpProfile {
                    label: label(),
                    invocations: 0,
                    rows_out: 0,
                    batches: 0,
                    nanos: 0,
                });
                self.index.insert(key, i);
                i
            }
        };
        let op = &mut self.ops[slot];
        op.invocations += 1;
        op.rows_out += rows_out;
        op.batches += batches;
        op.nanos += nanos;
    }

    pub(crate) fn finish(self) -> QueryProfile {
        QueryProfile {
            total_nanos: self.started.elapsed().as_nanos() as u64,
            ops: self.ops,
            index: self.index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_by_key_in_first_touch_order() {
        let mut p = Profiler::new();
        p.record(10, || "SeqScan a".into(), 5, 0, 100);
        p.record(20, || "HashJoin".into(), 3, 1, 50);
        p.record(10, || panic!("label closure must not re-run"), 7, 0, 25);
        let profile = p.finish();
        assert_eq!(profile.ops().len(), 2);
        let scan = profile.op_for_key(10).unwrap();
        assert_eq!(scan.label, "SeqScan a");
        assert_eq!(scan.invocations, 2);
        assert_eq!(scan.rows_out, 12);
        assert_eq!(scan.nanos, 125);
        assert_eq!(profile.op_position(20), Some(1));
        assert!(profile.op_for_key(99).is_none());
    }

    #[test]
    fn format_nanos_tiers() {
        assert_eq!(format_nanos(999), "999ns");
        assert_eq!(format_nanos(1_500), "1.5us");
        assert_eq!(format_nanos(2_500_000), "2.5ms");
        assert_eq!(format_nanos(3_000_000_000), "3.00s");
    }

    #[test]
    fn annotation_includes_batches_only_when_present() {
        let row =
            OpProfile { label: "x".into(), invocations: 1, rows_out: 2, batches: 0, nanos: 10 };
        assert_eq!(row.annotation(), "(invocations=1 rows=2 time=10ns)");
        let col = OpProfile { batches: 3, ..row.clone() };
        assert_eq!(col.annotation(), "(invocations=1 rows=2 batches=3 time=10ns)");
    }
}
