//! Query results and the result-comparison semantics used by execution accuracy.

use crate::value::Value;

/// A query result: column names plus rows.
#[derive(Debug, Clone, Default)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    pub fn new(columns: Vec<String>) -> Self {
        ResultSet { columns, rows: Vec::new() }
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single scalar of a 1x1 result, if that is what this is.
    pub fn scalar(&self) -> Option<&Value> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Some(&self.rows[0][0])
        } else {
            None
        }
    }

    /// Canonical multiset fingerprint of the rows: each row rendered, rows
    /// sorted. Column names are ignored, mirroring how the BIRD/Spider
    /// execution-accuracy metric compares result *contents* only.
    pub fn fingerprint(&self) -> Vec<String> {
        let mut rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| r.iter().map(render_for_comparison).collect::<Vec<_>>().join("\u{1}"))
            .collect();
        rows.sort();
        rows
    }

    /// Execution-accuracy equivalence: same multiset of rows (order-insensitive,
    /// column-name-insensitive). Numeric values are compared with a small
    /// tolerance so `2` and `2.0` and float round-off agree.
    pub fn result_eq(&self, other: &ResultSet) -> bool {
        self.fingerprint() == other.fingerprint()
    }

    /// Pretty-prints the first `max_rows` rows as an aligned text table, the
    /// way sample-SQL results are embedded in SEED prompts.
    pub fn render_table(&self, max_rows: usize) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(" | "));
        out.push('\n');
        for row in self.rows.iter().take(max_rows) {
            let cells: Vec<String> = row.iter().map(|v| v.render()).collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        if self.rows.len() > max_rows {
            out.push_str(&format!("... ({} more rows)\n", self.rows.len() - max_rows));
        }
        out
    }
}

/// Renders a value for execution-accuracy comparison: numbers are normalized
/// so that integer/real representations of the same quantity compare equal.
fn render_for_comparison(v: &Value) -> String {
    match v {
        Value::Null => "<null>".to_string(),
        Value::Integer(i) => format!("{:.6}", *i as f64),
        Value::Real(r) => format!("{:.6}", r),
        Value::Text(s) => format!("t:{s}"),
    }
}

/// Execution statistics used by the valid-efficiency-score (VES) metric.
///
/// The paper measures wall-clock execution time on SQLite; a synthetic engine
/// measures deterministic work instead (rows scanned, comparisons made, and
/// index/hash operations), which preserves the "reward cheaper queries"
/// behaviour without timing noise.
///
/// Per-unit weights mirror relative hardware cost: a full-scan row visit is
/// the unit, an expression evaluation is cheap, a hash-table insert or probe
/// is cheaper than re-scanning, and a primary-key index lookup costs a small
/// constant regardless of table size. VES compares costs as ratios per
/// question, so the absolute scale is irrelevant — only determinism and
/// monotonicity ("less work ⇒ lower cost") matter.
///
/// A statement replayed from a [`crate::ResultMemo`] reports
/// [`ExecStats::replayed`]: the stored execution's counters with
/// `plan_cache_misses` folded into `plan_cache_hits`, which is what a
/// re-execution through a warm plan cache reports. Every work counter, and
/// so [`ExecStats::cost`], is the execution's own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows visited across all scans and join loops.
    pub rows_scanned: u64,
    /// Predicate/expression evaluations performed.
    pub evaluations: u64,
    /// Primary-key index point lookups.
    pub index_lookups: u64,
    /// Rows inserted into join hash tables.
    pub hash_build_rows: u64,
    /// Join hash-table probe operations.
    pub hash_probes: u64,
    /// Physical plans served from the per-statement plan cache. Correlated
    /// subqueries re-execute per outer row; every re-execution after the
    /// first is a cache hit instead of a fresh planning pass.
    pub plan_cache_hits: u64,
    /// Physical plans actually computed (cache misses).
    pub plan_cache_misses: u64,
    /// Uncorrelated scalar/`IN`/`EXISTS` subquery evaluations answered from
    /// the per-statement result cache instead of re-executing the subquery.
    pub subquery_result_hits: u64,
    /// Uncorrelated subqueries actually executed (result-cache misses); a
    /// correlated subquery is never cacheable and counts in neither bucket.
    pub subquery_result_misses: u64,
    /// Correlated subqueries rewritten into hash semi/anti/group joins whose
    /// build side was materialized (once per enclosing statement execution).
    /// The work the build does is counted in the ordinary scan/hash units;
    /// this counter proves the rewrite *engaged*.
    pub decorrelated_subqueries: u64,
    /// Per-outer-row evaluations of a decorrelated subquery answered by a
    /// hash probe of the build side instead of a re-execution.
    pub decorrelated_probes: u64,
    /// Group-join (correlated scalar aggregate) probes answered from the
    /// per-distinct-outer-key memo without re-aggregating the matched rows.
    pub decorrelated_memo_hits: u64,
    /// `DataChunk` batches materialized by columnar operators
    /// ([`PlanMode::Columnar`](crate::plan::PlanMode::Columnar) only).
    /// Observability, not cost: the work batches carry is already counted
    /// in the ordinary scan/eval/hash units.
    pub batches_built: u64,
    /// Total rows carried by those batches.
    pub batch_rows: u64,
    /// *Operators* (predicates, join re-checks, group keys, aggregate
    /// arguments, HAVING, projections, ORDER BY keys) the columnar executor
    /// bridged to the row-at-a-time expression machinery because the
    /// expression was not batch-evaluable (subqueries, outer references,
    /// ambiguous columns) — counted once per operator per statement, not
    /// once per statement: a single opaque predicate no longer forfeits
    /// columnar execution for everything around it. Deterministic per
    /// query; proves how much of a workload is actually vectorized.
    pub columnar_fallbacks: u64,
    /// Statements that *mixed* modes: executed columnar but bridged at
    /// least one operator to the row machinery (`columnar_fallbacks > 0`
    /// during that statement's execution, nested subqueries included — a
    /// nested fallback marks every enclosing statement partial too).
    pub columnar_partial: u64,
}

impl ExecStats {
    /// Per-probe weight relative to a scanned row.
    pub const HASH_PROBE_WEIGHT: f64 = 0.3;
    /// Per-build-row weight relative to a scanned row.
    pub const HASH_BUILD_WEIGHT: f64 = 0.5;
    /// Flat cost of one PK index lookup.
    pub const INDEX_LOOKUP_WEIGHT: f64 = 2.0;

    /// Scalar cost used as the VES time proxy (never zero).
    pub fn cost(&self) -> f64 {
        1.0 + self.rows_scanned as f64
            + 0.1 * self.evaluations as f64
            + Self::INDEX_LOOKUP_WEIGHT * self.index_lookups as f64
            + Self::HASH_BUILD_WEIGHT * self.hash_build_rows as f64
            + Self::HASH_PROBE_WEIGHT * self.hash_probes as f64
    }

    /// The stats a replay of this execution reports: every counter as it
    /// is, except that each plan the execution computed counts as a plan
    /// served from the cache.
    pub fn replayed(&self) -> ExecStats {
        ExecStats {
            plan_cache_hits: self.plan_cache_hits + self.plan_cache_misses,
            plan_cache_misses: 0,
            ..*self
        }
    }

    /// Accumulates another stats block into this one, field by field.
    ///
    /// This is the *single* accumulation path: every place that sums stats
    /// blocks (per-worker totals in the parallel runners, batch totals in
    /// `seed-serve`, report aggregation) goes through `merge`, so adding a
    /// counter here is sufficient to make it flow everywhere without
    /// double-counting.
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.evaluations += other.evaluations;
        self.index_lookups += other.index_lookups;
        self.hash_build_rows += other.hash_build_rows;
        self.hash_probes += other.hash_probes;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
        self.subquery_result_hits += other.subquery_result_hits;
        self.subquery_result_misses += other.subquery_result_misses;
        self.decorrelated_subqueries += other.decorrelated_subqueries;
        self.decorrelated_probes += other.decorrelated_probes;
        self.decorrelated_memo_hits += other.decorrelated_memo_hits;
        self.batches_built += other.batches_built;
        self.batch_rows += other.batch_rows;
        self.columnar_fallbacks += other.columnar_fallbacks;
        self.columnar_partial += other.columnar_partial;
    }

    /// Every counter as a `(name, value)` pair, in struct declaration
    /// order. The single enumeration point behind [`ExecStats`]'s `Display`
    /// and the eval/serve reporting tables, so a newly added counter only
    /// needs listing here to appear everywhere.
    pub fn counters(&self) -> [(&'static str, u64); 16] {
        [
            ("rows_scanned", self.rows_scanned),
            ("evaluations", self.evaluations),
            ("index_lookups", self.index_lookups),
            ("hash_build_rows", self.hash_build_rows),
            ("hash_probes", self.hash_probes),
            ("plan_cache_hits", self.plan_cache_hits),
            ("plan_cache_misses", self.plan_cache_misses),
            ("subquery_result_hits", self.subquery_result_hits),
            ("subquery_result_misses", self.subquery_result_misses),
            ("decorrelated_subqueries", self.decorrelated_subqueries),
            ("decorrelated_probes", self.decorrelated_probes),
            ("decorrelated_memo_hits", self.decorrelated_memo_hits),
            ("batches_built", self.batches_built),
            ("batch_rows", self.batch_rows),
            ("columnar_fallbacks", self.columnar_fallbacks),
            ("columnar_partial", self.columnar_partial),
        ]
    }
}

impl std::fmt::Display for ExecStats {
    /// Human-readable summary table: one aligned `name  value` line per
    /// counter (zero counters included, so diffs line up), then the derived
    /// VES cost. Used by `eval::report`, `EXPLAIN ANALYZE`, and the serve
    /// slow-query log.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let counters = self.counters();
        let width = counters.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, value) in counters {
            writeln!(f, "{name:width$}  {value}")?;
        }
        write!(f, "{:width$}  {:.1}", "cost", self.cost())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(cols: &[&str], rows: Vec<Vec<Value>>) -> ResultSet {
        ResultSet { columns: cols.iter().map(|s| s.to_string()).collect(), rows }
    }

    #[test]
    fn result_eq_ignores_row_order_and_column_names() {
        let a = rs(&["a"], vec![vec![1.into()], vec![2.into()]]);
        let b = rs(&["other_name"], vec![vec![2.into()], vec![1.into()]]);
        assert!(a.result_eq(&b));
    }

    #[test]
    fn result_eq_respects_multiset_semantics() {
        let a = rs(&["a"], vec![vec![1.into()], vec![1.into()]]);
        let b = rs(&["a"], vec![vec![1.into()]]);
        assert!(!a.result_eq(&b));
    }

    #[test]
    fn result_eq_numeric_tolerance() {
        let a = rs(&["a"], vec![vec![Value::Integer(2)]]);
        let b = rs(&["a"], vec![vec![Value::Real(2.0)]]);
        assert!(a.result_eq(&b));
    }

    #[test]
    fn result_eq_distinguishes_text_from_number() {
        let a = rs(&["a"], vec![vec![Value::text("2")]]);
        let b = rs(&["a"], vec![vec![Value::Integer(2)]]);
        assert!(!a.result_eq(&b));
    }

    #[test]
    fn scalar_only_for_one_by_one() {
        let a = rs(&["a"], vec![vec![5.into()]]);
        assert_eq!(a.scalar(), Some(&Value::Integer(5)));
        let b = rs(&["a"], vec![vec![5.into()], vec![6.into()]]);
        assert!(b.scalar().is_none());
    }

    #[test]
    fn render_table_truncates() {
        let a = rs(&["x"], (0..10).map(|i| vec![Value::Integer(i)]).collect());
        let s = a.render_table(3);
        assert!(s.contains("7 more rows"));
    }

    #[test]
    fn exec_stats_cost_monotone() {
        let cheap = ExecStats { rows_scanned: 10, evaluations: 5, ..Default::default() };
        let pricey = ExecStats { rows_scanned: 10_000, evaluations: 5_000, ..Default::default() };
        assert!(pricey.cost() > cheap.cost());
        let mut total = cheap;
        total.merge(&pricey);
        assert_eq!(total.rows_scanned, 10_010);
    }

    #[test]
    fn exec_stats_hash_and_index_units_are_cheaper_than_scans() {
        // A hash probe or build row must undercut a scanned row, and all
        // new units must contribute to cost and merge.
        let scan = ExecStats { rows_scanned: 100, ..Default::default() };
        let hashed = ExecStats { hash_build_rows: 50, hash_probes: 50, ..Default::default() };
        assert!(hashed.cost() < scan.cost());
        let lookup = ExecStats { index_lookups: 1, rows_scanned: 1, ..Default::default() };
        assert!(lookup.cost() < scan.cost());
        let mut total = hashed;
        total.merge(&lookup);
        assert_eq!(total.index_lookups, 1);
        assert_eq!(total.hash_build_rows, 50);
        assert_eq!(total.hash_probes, 50);
    }

    #[test]
    fn exec_stats_cache_counters_merge_without_affecting_cost() {
        let mut a = ExecStats {
            plan_cache_hits: 3,
            plan_cache_misses: 1,
            subquery_result_hits: 4,
            subquery_result_misses: 1,
            ..Default::default()
        };
        let b = ExecStats {
            plan_cache_hits: 2,
            plan_cache_misses: 2,
            subquery_result_hits: 1,
            subquery_result_misses: 2,
            ..Default::default()
        };
        // Cache counters are observability, not part of the VES cost proxy:
        // a cached plan does the same execution work as a fresh one, and a
        // cached subquery result already reflects its (single) execution's
        // work in the ordinary counters.
        assert_eq!(a.cost(), ExecStats::default().cost());
        a.merge(&b);
        assert_eq!(a.plan_cache_hits, 5);
        assert_eq!(a.plan_cache_misses, 3);
        assert_eq!(a.subquery_result_hits, 5);
        assert_eq!(a.subquery_result_misses, 3);
    }

    #[test]
    fn exec_stats_batch_counters_merge_without_affecting_cost() {
        // Batch counters are columnar observability; the rows inside each
        // batch are already costed through the ordinary scan/eval/hash
        // units, so counting batches in cost() would double-charge the
        // columnar mode and break cross-mode cost comparisons (e.g. the
        // hash-join-cheaper-than-nested-loop invariant).
        let mut a = ExecStats {
            batches_built: 4,
            batch_rows: 4096,
            columnar_fallbacks: 1,
            columnar_partial: 1,
            ..Default::default()
        };
        assert_eq!(a.cost(), ExecStats::default().cost());
        let b = ExecStats {
            batches_built: 2,
            batch_rows: 100,
            columnar_fallbacks: 2,
            columnar_partial: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.batches_built, 6);
        assert_eq!(a.batch_rows, 4196);
        assert_eq!(a.columnar_fallbacks, 3);
        assert_eq!(a.columnar_partial, 2);
    }

    #[test]
    fn exec_stats_display_lists_every_counter_and_cost() {
        let stats = ExecStats { rows_scanned: 42, hash_probes: 7, ..Default::default() };
        let rendered = stats.to_string();
        for (name, value) in stats.counters() {
            assert!(
                rendered.contains(name) && rendered.contains(&value.to_string()),
                "Display missing {name}={value}:\n{rendered}"
            );
        }
        assert_eq!(stats.counters().len(), 16);
        assert!(rendered.contains("cost"));
        assert!(rendered.contains(&format!("{:.1}", stats.cost())));
        assert!(!rendered.ends_with('\n'));
    }

    #[test]
    fn exec_stats_decorrelation_counters_merge_without_affecting_cost() {
        // Decorrelation counters are engagement observability; the build's
        // and probes' actual work is already in the scan/hash units.
        let mut a = ExecStats {
            decorrelated_subqueries: 1,
            decorrelated_probes: 10,
            decorrelated_memo_hits: 4,
            ..Default::default()
        };
        assert_eq!(a.cost(), ExecStats::default().cost());
        let b = ExecStats {
            decorrelated_subqueries: 2,
            decorrelated_probes: 5,
            decorrelated_memo_hits: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.decorrelated_subqueries, 3);
        assert_eq!(a.decorrelated_probes, 15);
        assert_eq!(a.decorrelated_memo_hits, 5);
    }
}
