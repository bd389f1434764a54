//! Query execution: the entry points behind every statement, and the row
//! machinery both executors share.
//!
//! An executor runs one top-level statement against a borrowed
//! [`Database`] snapshot. [`PlanMode::Columnar`], the production executor,
//! runs the physical plan (hash equi-joins, PK point lookups, predicate
//! pushdown — see [`crate::plan`]) over column batches in
//! [`crate::columnar`]. [`PlanMode::NestedLoop`] runs the legacy
//! cross-product path here, kept verbatim as the semantic reference the
//! conformance suites compare against. This module also holds what the
//! columnar pipeline bridges to per operator: expression evaluation,
//! aggregates, the nested-loop join, and the row tail (projection,
//! [`GroupKeyMap`]-hashed grouping, `HAVING`, `DISTINCT`, `ORDER BY`,
//! `LIMIT`/`OFFSET`) that the oracle runs for every statement.
//!
//! ## Subquery strategy
//!
//! Expression-position subqueries (scalar, `IN`, `EXISTS`) pick the
//! cheapest sound strategy, in order:
//!
//! 1. **Uncorrelated** ([`is_uncorrelated`]): execute once per statement,
//!    replay the result for every outer row (`subquery_result_*` counters).
//! 2. **Correlated but decorrelatable** ([`mod@crate::decorrelate`]): rewrite
//!    into a hash semi/anti/group join — the uncorrelated build side
//!    executes once, an [`EqKeyMap`] is built over the correlation keys,
//!    and every outer row becomes an O(1) probe (`decorrelated_*`
//!    counters). Correlated scalar aggregates additionally memoize one
//!    result per distinct outer key.
//! 3. **Correlated, not rewritable**: re-execute per outer row, re-planning
//!    avoided by the per-statement [`PlanCache`] (`plan_cache_*` counters).
//!
//! The nested-loop mode uses none of these (it re-executes every subquery
//! per outer row unconditionally), so a defect in any cache or rewrite
//! shows up as a mode divergence instead of bending both sides equally.
//!
//! All work is tallied in [`ExecStats`], the deterministic cost proxy the
//! VES metric uses in place of wall-clock time.

use std::collections::HashMap;
use std::rc::Rc;

use crate::ast::*;
use crate::decorrelate::{
    synthetic_agg_name, DecorrelatedKind, DecorrelatedSubquery, SubqueryPosition,
};
use crate::error::{SqlError, SqlResult};
use crate::functions::eval_scalar_function;
use crate::plan::{expand_projections, is_uncorrelated, PlanCache, PlanMode};
use crate::profile::{Profiler, QueryProfile};
use crate::result::{ExecStats, ResultSet};
use crate::schema::DataType;
use crate::storage::{Database, EqKeyMap, GroupKeyMap};
use crate::value::{like_match, Truth, Value};

/// Executes a SQL string against a database under the production
/// executor, returning the result rows.
pub fn execute(db: &Database, sql: &str) -> SqlResult<ResultSet> {
    execute_with_stats_mode(db, sql, PlanMode::default()).map(|(rs, _)| rs)
}

/// Executes a SQL string under an explicit plan mode and also reports
/// deterministic execution statistics (the cost proxy used by the VES
/// metric). `EXPLAIN [ANALYZE]` is accepted here too (it is read-only, like
/// SELECT): the rendering comes back as the result set and the reported
/// stats stay at their default — explaining a statement must never perturb
/// cost accounting.
pub fn execute_with_stats_mode(
    db: &Database,
    sql: &str,
    mode: PlanMode,
) -> SqlResult<(ResultSet, ExecStats)> {
    execute_parsed(db, &crate::parser::parse_statement(sql)?, mode)
}

/// [`execute_with_stats_mode`] after the parse: the part
/// [`crate::ResultMemo`] runs on a miss, so memoized and direct executions
/// cannot drift apart.
pub(crate) fn execute_parsed(
    db: &Database,
    stmt: &Statement,
    mode: PlanMode,
) -> SqlResult<(ResultSet, ExecStats)> {
    match stmt {
        Statement::Explain(ex) => {
            Ok((crate::explain::explain_statement(db, ex, mode)?, ExecStats::default()))
        }
        Statement::Select(stmt) => {
            execute_select_with_plan_cache(db, stmt, mode, &PlanCache::new(stmt.query_count()))
        }
        other => Err(SqlError::Parse(format!("expected SELECT, parsed {other:?}"))),
    }
}

/// Executes an already-parsed SELECT through a plan cache built for it
/// ([`PlanCache::new`] with the statement's [`SelectStatement::query_count`]),
/// filling whatever slots this execution plans.
///
/// This is the building block for *sharing* plans across executions: every
/// later execution of the same statement (or a clone of it) through the
/// same cache skips planning entirely, on any thread.
/// [`crate::prepared::SharedPlanCache`] pairs each statement with its cache
/// and is what `seed-serve` uses.
pub fn execute_select_with_plan_cache(
    db: &Database,
    stmt: &SelectStatement,
    mode: PlanMode,
    plans: &PlanCache,
) -> SqlResult<(ResultSet, ExecStats)> {
    let mut exec = Executor::new(db, mode, plans);
    let rs = exec.run_select(stmt, None)?;
    Ok((rs, exec.stats))
}

/// Like [`execute_select_with_plan_cache`], but additionally records a
/// per-operator wall-clock [`QueryProfile`].
///
/// The profile travels *next to* the deterministic `ExecStats`, never
/// inside it: stats, result rows, and [`ExecStats::cost`] are bit-identical
/// to an unprofiled run of the same statement (the determinism guard in
/// `tests/explain_golden.rs` pins this). This is what `EXPLAIN ANALYZE` and
/// the serve layer's always-on profiling run through.
pub fn execute_select_profiled(
    db: &Database,
    stmt: &SelectStatement,
    mode: PlanMode,
    plans: &PlanCache,
) -> SqlResult<(ResultSet, ExecStats, QueryProfile)> {
    let mut exec = Executor::new(db, mode, plans);
    exec.profiler = Some(Profiler::new());
    let rs = exec.run_select(stmt, None);
    let profile = exec.profiler.take().map(Profiler::finish).unwrap_or_default();
    Ok((rs?, exec.stats, profile))
}

/// Executes any supported statement, applying DDL/DML to the database.
///
/// Writes go through the commit planner ([`crate::mutate::plan_mutation`])
/// and are applied to `db` in place, copying a table only when another
/// snapshot shares it. A statement changes `db` only when it succeeds as a
/// whole: a failing row (arity, evaluation error, key collision) leaves
/// `db` as it was.
pub fn execute_statement(db: &mut Database, sql: &str) -> SqlResult<ResultSet> {
    let stmt = crate::parser::parse_statement(sql)?;
    match stmt {
        Statement::Select(s) => {
            let plans = PlanCache::new(s.query_count());
            Ok(execute_select_with_plan_cache(db, &s, PlanMode::default(), &plans)?.0)
        }
        Statement::Explain(ex) => crate::explain::explain_statement(db, &ex, PlanMode::default()),
        Statement::CreateTable(_)
        | Statement::Insert(_)
        | Statement::Update(_)
        | Statement::Delete(_) => {
            let planned = crate::mutate::plan_mutation(db, &stmt)?;
            let (_, kind, rows) = crate::mutate::apply_in_place(db, planned)?;
            Ok(crate::mutate::mutation_result(kind, rows))
        }
    }
}

/// Metadata for one column of a flattened (joined) row; defined in the
/// planner module so static planning and execution share one layout type.
use crate::plan::ColMeta as ColInfo;

/// An intermediate relation: flattened column metadata plus rows.
#[derive(Debug, Clone)]
pub(crate) struct Rel {
    pub(crate) cols: Vec<ColInfo>,
    pub(crate) rows: Vec<Vec<Value>>,
}

/// Evaluation scope: the current flattened row, plus an optional outer scope
/// for correlated subqueries.
pub(crate) struct Scope<'a> {
    pub(crate) cols: &'a [ColInfo],
    pub(crate) row: &'a [Value],
    pub(crate) parent: Option<&'a Scope<'a>>,
}

/// A group of rows sharing the same GROUP BY key: row indices into the
/// filtered relation, so grouping never clones full rows.
pub(crate) struct Group<'a> {
    /// The filtered relation all groups index into.
    pub(crate) all: &'a [Vec<Value>],
    /// Positions of this group's rows within `all`, in scan order.
    pub(crate) idx: &'a [usize],
}

impl<'a> Group<'a> {
    /// Number of rows in the group.
    fn len(&self) -> usize {
        self.idx.len()
    }

    /// The group's rows, in scan order.
    fn rows(&self) -> impl Iterator<Item = &'a Vec<Value>> + '_ {
        self.idx.iter().map(|&i| &self.all[i])
    }
}

/// A decorrelated subquery's build side, materialized once per enclosing
/// statement execution: the build's rows plus a hash index over the first
/// correlation key column. Multi-key correlations narrow through the index
/// on key 0 and verify the remaining keys with [`Value::sql_cmp`] per
/// candidate — the index implements `sql_cmp` equality exactly (NULL and
/// NaN included), so the probe reproduces the correlation predicate's
/// semantics bit for bit.
struct DecorrBuild<'a> {
    rw: &'a DecorrelatedSubquery,
    rows: Vec<Vec<Value>>,
    index: EqKeyMap,
}

impl DecorrBuild<'_> {
    /// Verifies the correlation keys beyond the indexed first one: true when
    /// build row `ri` is `sql_cmp`-equal to the probe keys on every
    /// remaining key column. The single place multi-key probe semantics
    /// live, shared by the collecting and existence probes.
    fn tail_keys_match(&self, ri: usize, keys: &[Value]) -> bool {
        self.rw.key_cols[1..]
            .iter()
            .zip(&keys[1..])
            .all(|(&c, k)| matches!(k.sql_cmp(&self.rows[ri][c]), Some(o) if o.is_eq()))
    }
}

/// Per-distinct-outer-key memo of a group join's scalar results: probe keys
/// (grouped by [`Value::grouping_eq`]) map to the already-computed scalar.
#[derive(Default)]
struct ScalarMemo {
    keys: GroupKeyMap,
    results: Vec<Value>,
}

pub(crate) struct Executor<'a> {
    pub(crate) db: &'a Database,
    pub(crate) stats: ExecStats,
    pub(crate) mode: PlanMode,
    /// The statement's plan cache: subqueries re-executed per outer row are
    /// planned once and replayed from here afterwards, and a
    /// [`crate::prepared::PreparedStatement`]'s executions all share one.
    /// Also memoizes the decorrelation analysis (see
    /// [`PlanCache::rewrite_for`]).
    pub(crate) plans: &'a PlanCache,
    /// Results of *uncorrelated* expression-position subqueries (scalar,
    /// `IN`, `EXISTS`), keyed by query id like the plan cache: an
    /// uncorrelated subquery returns the same rows for every outer row, so
    /// it executes once per statement instead of once per row.
    subquery_results: HashMap<QueryId, Rc<ResultSet>>,
    /// Memoized [`is_uncorrelated`] verdict per subquery, so the schema
    /// analysis also runs once per statement, not once per row.
    uncorrelated: HashMap<QueryId, bool>,
    /// Materialized decorrelated build sides per subquery. `None` records
    /// "not rewritable", so refused shapes skip straight to the
    /// per-outer-row path on every later row.
    decorr_builds: HashMap<QueryId, Option<Rc<DecorrBuild<'a>>>>,
    /// Group-join scalar memos per subquery.
    decorr_memos: HashMap<QueryId, ScalarMemo>,
    /// Pre-computed aggregate results, keyed by `Expr::Aggregate` node
    /// address, installed by the columnar grouped pipeline's *row bridge*
    /// for the duration of one group's evaluation when a HAVING, projection,
    /// or ORDER-BY expression is not batch-expressible over the group table
    /// ([`crate::columnar`], `eval_group_column`). `eval` consults it before
    /// demanding a group context, so the row pipeline's scalar machinery
    /// evaluates grouped expressions unchanged while the aggregates
    /// themselves come from batch kernels. Saved and restored around nested
    /// statements; `None` outside the columnar grouped path.
    pub(crate) agg_overrides: Option<HashMap<usize, Value>>,
    /// Wall-clock per-operator profiler, installed only by
    /// [`execute_select_profiled`]. `None` (the default) keeps the plain
    /// execution paths free of timing syscalls; when present, the operator
    /// entry points record inclusive nanos keyed by node address. Never
    /// feeds [`ExecStats`].
    pub(crate) profiler: Option<Profiler>,
}

impl<'a> Executor<'a> {
    pub(crate) fn new(db: &'a Database, mode: PlanMode, plans: &'a PlanCache) -> Self {
        Executor {
            db,
            stats: ExecStats::default(),
            mode,
            plans,
            subquery_results: HashMap::new(),
            uncorrelated: HashMap::new(),
            decorr_builds: HashMap::new(),
            decorr_memos: HashMap::new(),
            agg_overrides: None,
            profiler: None,
        }
    }

    /// Runs a subquery appearing in expression position. Correlated
    /// subqueries re-execute against the current outer row; uncorrelated
    /// ones execute once and replay from the result cache afterwards, with
    /// hits/misses reported in [`ExecStats`].
    ///
    /// The cache only engages in [`PlanMode::Columnar`]: the nested-loop
    /// mode is the independent semantic reference the conformance suite
    /// compares columnar execution against, so it must keep re-executing
    /// per outer row — otherwise a defect in the [`is_uncorrelated`]
    /// analysis would bend both sides identically and become invisible.
    fn run_expr_subquery(
        &mut self,
        query: &SelectStatement,
        scope: &Scope<'_>,
    ) -> SqlResult<Rc<ResultSet>> {
        if self.mode == PlanMode::NestedLoop {
            return Ok(Rc::new(self.run_select(query, Some(scope))?));
        }
        let key = query.id;
        if let Some(rs) = self.subquery_results.get(&key) {
            self.stats.subquery_result_hits += 1;
            return Ok(Rc::clone(rs));
        }
        let cacheable = match self.uncorrelated.get(&key) {
            Some(&c) => c,
            None => {
                let c = is_uncorrelated(self.db, query);
                self.uncorrelated.insert(key, c);
                c
            }
        };
        // The outer scope is passed either way: an uncorrelated subquery
        // never reads it (that is what `is_uncorrelated` proves), so the
        // cached result is outer-row-independent.
        let rs = Rc::new(self.run_select(query, Some(scope))?);
        if cacheable {
            self.stats.subquery_result_misses += 1;
            self.subquery_results.insert(key, Rc::clone(&rs));
        }
        Ok(rs)
    }

    /// Returns the materialized decorrelated build side for a correlated
    /// subquery, rewriting and executing the build on first sight. `None`
    /// means the shape is not rewritable (or this is the nested-loop
    /// reference mode, which never decorrelates so it stays an independent
    /// oracle) and the caller keeps the per-outer-row path.
    ///
    /// The build executes with no outer scope — the rewrite guarantees it is
    /// self-contained — and its plan lands in the build's own slot of the
    /// [`PlanCache`] (see [`PlanCache::rewrite_for`]).
    fn decorr_build(
        &mut self,
        query: &SelectStatement,
        pos: SubqueryPosition,
    ) -> SqlResult<Option<Rc<DecorrBuild<'a>>>> {
        if self.mode == PlanMode::NestedLoop {
            return Ok(None);
        }
        if let Some(cached) = self.decorr_builds.get(&query.id) {
            return Ok(cached.clone());
        }
        let plans = self.plans;
        let built = match plans.rewrite_for(self.db, query, pos) {
            None => None,
            Some(rw) => {
                let rs = self.run_select(&rw.build, None)?;
                let mut index = EqKeyMap::default();
                for (i, row) in rs.rows.iter().enumerate() {
                    index.insert(&row[rw.key_cols[0]], i);
                }
                self.stats.hash_build_rows += rs.rows.len() as u64;
                self.stats.decorrelated_subqueries += 1;
                Some(Rc::new(DecorrBuild { rw, rows: rs.rows, index }))
            }
        };
        self.decorr_builds.insert(query.id, built.clone());
        Ok(built)
    }

    /// Evaluates the outer sides of a decorrelated subquery's correlation
    /// equalities against the probing row's scope.
    fn decorr_outer_keys(
        &mut self,
        rw: &DecorrelatedSubquery,
        scope: &Scope<'_>,
    ) -> SqlResult<Vec<Value>> {
        rw.outer_keys.iter().map(|e| self.eval(e, scope, None)).collect()
    }

    /// Counts one probe of a decorrelated build side.
    fn decorr_count_probe(&mut self) {
        self.stats.hash_probes += 1;
        self.stats.decorrelated_probes += 1;
    }

    /// Build-row indices whose correlation keys are `sql_cmp`-equal to the
    /// probe keys, in build-scan order (the order the reference subquery
    /// would have produced those rows in).
    fn decorr_matches(&mut self, build: &DecorrBuild, keys: &[Value]) -> Vec<usize> {
        self.decorr_count_probe();
        let hits = build.index.probe(&keys[0]);
        if build.rw.key_cols.len() == 1 {
            return hits.as_slice().to_vec();
        }
        hits.iter().copied().filter(|&ri| build.tail_keys_match(ri, keys)).collect()
    }

    /// Semi-join probe: does any build row match every correlation key?
    fn decorr_has_match(&mut self, build: &DecorrBuild, keys: &[Value]) -> bool {
        self.decorr_count_probe();
        let hits = build.index.probe(&keys[0]);
        if build.rw.key_cols.len() == 1 {
            return !hits.is_empty();
        }
        hits.iter().copied().any(|ri| build.tail_keys_match(ri, keys))
    }

    /// `IN` semi-join probe: does any build row match every correlation key
    /// *and* carry a value `sql_cmp`-equal to `v`? Short-circuits on the
    /// first match without materializing the match set.
    fn decorr_in_match(&mut self, build: &DecorrBuild, keys: &[Value], v: &Value) -> bool {
        let vc = build.rw.value_col.expect("IN rewrite carries a value column");
        self.decorr_count_probe();
        build.index.probe(&keys[0]).iter().copied().any(|ri| {
            (build.rw.key_cols.len() == 1 || build.tail_keys_match(ri, keys))
                && matches!(v.sql_cmp(&build.rows[ri][vc]), Some(o) if o.is_eq())
        })
    }

    /// Group-join probe for a decorrelated correlated scalar aggregate:
    /// aggregates the build rows matching this outer row's keys and
    /// evaluates the rewritten projection over the aggregate values,
    /// memoizing per distinct (grouping-equal) probe key.
    ///
    /// NaN probe keys bypass the memo: a NaN `sql_cmp`-matches every number,
    /// so its match set is not shared with any grouping-equal key class.
    fn decorr_scalar(
        &mut self,
        build: &Rc<DecorrBuild<'a>>,
        query: &SelectStatement,
        scope: &Scope<'_>,
    ) -> SqlResult<Value> {
        let DecorrelatedKind::GroupJoin { aggregates, projection } = &build.rw.kind else {
            return Err(SqlError::Execution(
                "scalar decorrelation without a group-join rewrite".into(),
            ));
        };
        let keys = self.decorr_outer_keys(build.rw, scope)?;
        let memoizable = !keys.iter().any(|k| matches!(k, Value::Real(r) if r.is_nan()));
        if memoizable {
            if let Some(memo) = self.decorr_memos.get(&query.id) {
                if let Some(gid) = memo.keys.lookup(&keys) {
                    self.stats.decorrelated_memo_hits += 1;
                    return Ok(memo.results[gid].clone());
                }
            }
        }
        let matched = self.decorr_matches(build, &keys);
        let mut agg_vals = Vec::with_capacity(aggregates.len());
        for spec in aggregates {
            agg_vals.push(match spec.arg_col {
                // COUNT(*): every matched row counts, NULLs included.
                None => Value::Integer(matched.len() as i64),
                Some(c) => {
                    let vals: Vec<Value> = matched
                        .iter()
                        .map(|&ri| build.rows[ri][c].clone())
                        .filter(|v| !v.is_null())
                        .collect();
                    agg_over_values(spec.kind, spec.distinct, vals)
                }
            });
        }
        let cols: Vec<ColInfo> = (0..agg_vals.len())
            .map(|i| ColInfo { quals: Vec::new(), name: synthetic_agg_name(i) })
            .collect();
        let pscope = Scope { cols: &cols, row: &agg_vals, parent: None };
        let result = self.eval(projection, &pscope, None)?;
        if memoizable {
            let memo = self.decorr_memos.entry(query.id).or_default();
            let (gid, new) = memo.keys.get_or_insert(&keys);
            if new {
                memo.results.push(result.clone());
            }
            debug_assert_eq!(memo.results.len(), memo.keys.len());
            debug_assert!(gid < memo.results.len());
        }
        Ok(result)
    }

    pub(crate) fn run_select(
        &mut self,
        stmt: &SelectStatement,
        outer: Option<&Scope<'_>>,
    ) -> SqlResult<ResultSet> {
        // The vectorized pipeline owns its whole statement flow and calls
        // back into `run_select_tail` only when it falls back to rows; the
        // oracle runs the legacy FROM / JOIN / WHERE, then the row tail.
        match self.mode {
            PlanMode::Columnar => self.run_select_columnar(stmt, outer),
            PlanMode::NestedLoop => {
                let (rel, filtered) = self.run_from_where_legacy(stmt, outer)?;
                self.run_select_tail(stmt, &rel.cols, filtered, outer)
            }
        }
    }

    /// Stages 3–6 of `SELECT` execution — projection, grouping, `HAVING`,
    /// `DISTINCT`, `ORDER BY`, `LIMIT`/`OFFSET` — over an already-filtered
    /// row relation. The nested-loop oracle runs it for every statement; the
    /// columnar pipeline routes through it whenever it falls back to rows, so
    /// fallback semantics are the row path's by construction.
    pub(crate) fn run_select_tail(
        &mut self,
        stmt: &SelectStatement,
        cols: &[ColInfo],
        filtered: Vec<Vec<Value>>,
        outer: Option<&Scope<'_>>,
    ) -> SqlResult<ResultSet> {
        let rel_cols = cols;
        let grouped = select_is_grouped(stmt);

        // 3. projection headers
        let (headers, proj_exprs) = expand_projections(&stmt.projections, rel_cols)?;

        let mut out_rows: Vec<Vec<Value>> = Vec::new();
        // Each output row keeps the *index* (into `filtered`) of the context
        // row used to evaluate ORDER BY expressions — `None` only for the
        // empty global aggregate group, which has no underlying row. Group
        // membership is likewise tracked as row indices; neither context nor
        // groups clone rows.
        let mut order_ctx: Vec<Option<usize>> = Vec::new();
        let mut order_groups: Vec<Vec<usize>> = Vec::new();
        let null_row: Vec<Value> = vec![Value::Null; rel_cols.len()];

        if grouped {
            let groups = self.group_rows(&filtered, &stmt.group_by, rel_cols, outer)?;
            for g in groups {
                let ctx = g.first().copied();
                let first: &[Value] = match ctx {
                    Some(i) => &filtered[i],
                    None => &null_row,
                };
                let scope = Scope { cols: rel_cols, row: first, parent: outer };
                let group = Group { all: &filtered, idx: &g };
                if let Some(having) = &stmt.having {
                    if !self.eval(having, &scope, Some(&group))?.to_truth().is_true() {
                        continue;
                    }
                }
                let mut out = Vec::with_capacity(proj_exprs.len());
                for e in &proj_exprs {
                    out.push(self.eval(e, &scope, Some(&group))?);
                }
                out_rows.push(out);
                order_ctx.push(ctx);
                order_groups.push(g);
            }
        } else {
            for (ri, row) in filtered.iter().enumerate() {
                let scope = Scope { cols: rel_cols, row, parent: outer };
                let mut out = Vec::with_capacity(proj_exprs.len());
                for e in &proj_exprs {
                    out.push(self.eval(e, &scope, None)?);
                }
                out_rows.push(out);
                order_ctx.push(Some(ri));
                // `order_groups` stays empty: ungrouped ORDER BY keys never
                // consult a group, so the old per-row singleton groups were
                // pure clone overhead.
            }
        }

        // 4. DISTINCT — hashed first-seen dedup (grouping_eq semantics).
        if stmt.distinct {
            let mut seen = GroupKeyMap::default();
            let mut kept_rows = Vec::new();
            let mut kept_ctx = Vec::new();
            let mut kept_groups = Vec::new();
            for (i, (row, ctx)) in out_rows.into_iter().zip(order_ctx).enumerate() {
                if seen.insert_if_new(&row) {
                    kept_rows.push(row);
                    kept_ctx.push(ctx);
                    if grouped {
                        kept_groups.push(std::mem::take(&mut order_groups[i]));
                    }
                }
            }
            out_rows = kept_rows;
            order_ctx = kept_ctx;
            order_groups = kept_groups;
        }

        // 5. ORDER BY — sort a permutation of row indices keyed by the
        // evaluated sort keys, then reorder in place; no row is cloned.
        if !stmt.order_by.is_empty() {
            let mut sort_keys: Vec<Vec<(Value, bool)>> = Vec::with_capacity(out_rows.len());
            for (i, row) in out_rows.iter().enumerate() {
                let ctx_row: &[Value] = match order_ctx[i] {
                    Some(r) => &filtered[r],
                    None => &null_row,
                };
                let group_idx: &[usize] = if grouped { &order_groups[i] } else { &[] };
                let mut keys = Vec::new();
                for item in &stmt.order_by {
                    let v = self.eval_order_key(
                        &item.expr,
                        row,
                        &headers,
                        &stmt.projections,
                        rel_cols,
                        ctx_row,
                        Group { all: &filtered, idx: group_idx },
                        grouped,
                        outer,
                    )?;
                    keys.push((v, item.descending));
                }
                sort_keys.push(keys);
            }
            let mut order: Vec<usize> = (0..out_rows.len()).collect();
            order.sort_by(|&a, &b| {
                for ((va, desc), (vb, _)) in sort_keys[a].iter().zip(sort_keys[b].iter()) {
                    let ord = va.total_cmp(vb);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            out_rows = order.into_iter().map(|i| std::mem::take(&mut out_rows[i])).collect();
        }

        // 6. LIMIT / OFFSET
        let offset = stmt.offset.unwrap_or(0) as usize;
        if offset > 0 {
            out_rows = out_rows.into_iter().skip(offset).collect();
        }
        if let Some(limit) = stmt.limit {
            out_rows.truncate(limit as usize);
        }

        Ok(ResultSet { columns: headers, rows: out_rows })
    }

    /// Legacy FROM/JOIN/WHERE: load everything, nested-loop join, filter
    /// after the fact. Kept verbatim as the semantic reference for the
    /// planner; `PlanMode::NestedLoop` runs queries through it.
    fn run_from_where_legacy(
        &mut self,
        stmt: &SelectStatement,
        outer: Option<&Scope<'_>>,
    ) -> SqlResult<(Rel, Vec<Vec<Value>>)> {
        let mut rel = match &stmt.from {
            Some(t) => self.load_table_ref_profiled(t, outer)?,
            None => Rel { cols: vec![], rows: vec![vec![]] },
        };
        for join in &stmt.joins {
            let right = self.load_table_ref_profiled(&join.table, outer)?;
            rel = self.join_profiled(rel, right, join, outer)?;
        }
        let mut keep = Vec::new();
        for row in std::mem::take(&mut rel.rows) {
            self.stats.rows_scanned += 1;
            let ok = match &stmt.where_clause {
                None => true,
                Some(pred) => {
                    let scope = Scope { cols: &rel.cols, row: &row, parent: outer };
                    self.eval(pred, &scope, None)?.to_truth().is_true()
                }
            };
            if ok {
                keep.push(row);
            }
        }
        Ok((rel, keep))
    }

    /// [`Self::load_table_ref`] with optional profiling, keyed by the AST
    /// reference's address. Nested-loop mode has no `PlanNode` tree, so its
    /// `EXPLAIN ANALYZE` attaches measurements to AST nodes instead.
    fn load_table_ref_profiled(
        &mut self,
        tref: &TableRef,
        outer: Option<&Scope<'_>>,
    ) -> SqlResult<Rel> {
        if self.profiler.is_none() {
            return self.load_table_ref(tref, outer);
        }
        let started = std::time::Instant::now();
        let result = self.load_table_ref(tref, outer);
        let nanos = started.elapsed().as_nanos() as u64;
        let rows_out = result.as_ref().map(|rel| rel.rows.len() as u64).unwrap_or(0);
        if let Some(p) = self.profiler.as_mut() {
            p.record(
                tref as *const TableRef as usize,
                || legacy_ref_label(tref),
                rows_out,
                0,
                nanos,
            );
        }
        result
    }

    /// [`Self::join`] with optional profiling, keyed by the `Join` AST
    /// node's address (see [`Self::load_table_ref_profiled`]).
    fn join_profiled(
        &mut self,
        left: Rel,
        right: Rel,
        join: &Join,
        outer: Option<&Scope<'_>>,
    ) -> SqlResult<Rel> {
        if self.profiler.is_none() {
            return self.join(left, right, join, outer);
        }
        let started = std::time::Instant::now();
        let result = self.join(left, right, join, outer);
        let nanos = started.elapsed().as_nanos() as u64;
        let rows_out = result.as_ref().map(|rel| rel.rows.len() as u64).unwrap_or(0);
        if let Some(p) = self.profiler.as_mut() {
            p.record(
                join as *const Join as usize,
                || format!("NestedLoopJoin ({:?})", join.kind),
                rows_out,
                0,
                nanos,
            );
        }
        result
    }

    /// Loads a named table or derived subquery into a relation.
    fn load_table_ref(&mut self, tref: &TableRef, outer: Option<&Scope<'_>>) -> SqlResult<Rel> {
        match tref {
            TableRef::Named { table, alias } => {
                let t = self.db.table(table)?;
                let mut quals = vec![table.to_ascii_lowercase()];
                if let Some(a) = alias {
                    quals.push(a.to_ascii_lowercase());
                }
                let cols = t
                    .schema
                    .columns
                    .iter()
                    .map(|c| ColInfo { quals: quals.clone(), name: c.name.clone() })
                    .collect();
                self.stats.rows_scanned += t.len() as u64;
                Ok(Rel { cols, rows: t.rows().to_vec() })
            }
            TableRef::Derived { query, alias } => {
                let rs = self.run_select(query, outer)?;
                let quals = vec![alias.to_ascii_lowercase()];
                let cols = rs
                    .columns
                    .iter()
                    .map(|c| ColInfo { quals: quals.clone(), name: c.clone() })
                    .collect();
                Ok(Rel { cols, rows: rs.rows })
            }
        }
    }

    /// Nested-loop join of two relations.
    pub(crate) fn join(
        &mut self,
        left: Rel,
        right: Rel,
        join: &Join,
        outer: Option<&Scope<'_>>,
    ) -> SqlResult<Rel> {
        let mut cols = left.cols.clone();
        cols.extend(right.cols.clone());
        let right_width = right.cols.len();
        let mut rows = Vec::new();
        for lrow in &left.rows {
            let mut matched = false;
            for rrow in &right.rows {
                self.stats.rows_scanned += 1;
                let mut combined = lrow.clone();
                combined.extend(rrow.iter().cloned());
                let ok = match &join.on {
                    None => true,
                    Some(pred) => {
                        let scope = Scope { cols: &cols, row: &combined, parent: outer };
                        self.eval(pred, &scope, None)?.to_truth().is_true()
                    }
                };
                if ok {
                    matched = true;
                    rows.push(combined);
                }
            }
            if !matched && join.kind == JoinKind::Left {
                let mut combined = lrow.clone();
                combined.extend(std::iter::repeat_n(Value::Null, right_width));
                rows.push(combined);
            }
        }
        Ok(Rel { cols, rows })
    }

    /// Groups rows by the GROUP BY keys (or a single global group if none),
    /// returning row indices per group. Hashed via [`GroupKeyMap`]: O(rows)
    /// instead of the old linear scan over previously-seen keys, with
    /// identical group order (first-seen) and membership order (scan order).
    pub(crate) fn group_rows(
        &mut self,
        rows: &[Vec<Value>],
        group_by: &[Expr],
        cols: &[ColInfo],
        outer: Option<&Scope<'_>>,
    ) -> SqlResult<Vec<Vec<usize>>> {
        if group_by.is_empty() {
            return Ok(vec![(0..rows.len()).collect()]);
        }
        let mut map = GroupKeyMap::default();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut key = Vec::with_capacity(group_by.len());
        for (ri, row) in rows.iter().enumerate() {
            let scope = Scope { cols, row, parent: outer };
            key.clear();
            for g in group_by {
                key.push(self.eval(g, &scope, None)?);
            }
            let (gid, new) = map.get_or_insert(&key);
            if new {
                groups.push(Vec::new());
            }
            groups[gid].push(ri);
        }
        Ok(groups)
    }

    /// Evaluates an ORDER BY key, resolving output aliases and ordinals first.
    #[allow(clippy::too_many_arguments)]
    fn eval_order_key(
        &mut self,
        expr: &Expr,
        out_row: &[Value],
        headers: &[String],
        projections: &[Projection],
        cols: &[ColInfo],
        ctx_row: &[Value],
        group: Group<'_>,
        grouped: bool,
        outer: Option<&Scope<'_>>,
    ) -> SqlResult<Value> {
        if let Some(pos) = order_key_output_column(expr, out_row.len(), headers, projections, cols)
        {
            return Ok(out_row[pos].clone());
        }
        let scope = Scope { cols, row: ctx_row, parent: outer };
        if grouped {
            self.eval(expr, &scope, Some(&group))
        } else {
            self.eval(expr, &scope, None)
        }
    }

    /// Resolves a column reference against the scope chain.
    fn resolve_column(
        &self,
        scope: &Scope<'_>,
        table: &Option<String>,
        column: &str,
    ) -> SqlResult<Value> {
        let mut current = Some(scope);
        while let Some(s) = current {
            let mut matches = Vec::new();
            for (i, c) in s.cols.iter().enumerate() {
                if !c.name.eq_ignore_ascii_case(column) {
                    continue;
                }
                match table {
                    Some(t) => {
                        if c.quals.contains(&t.to_ascii_lowercase()) {
                            matches.push(i);
                        }
                    }
                    None => matches.push(i),
                }
            }
            match matches.len() {
                1 => return Ok(s.row[matches[0]].clone()),
                0 => {
                    current = s.parent;
                }
                _ => {
                    // Ambiguity between columns that always hold the same value
                    // (join keys) is harmless; otherwise report it.
                    let first = &s.row[matches[0]];
                    if matches.iter().all(|&i| s.row[i].grouping_eq(first)) {
                        return Ok(first.clone());
                    }
                    return Err(SqlError::AmbiguousColumn(column.to_string()));
                }
            }
        }
        Err(SqlError::UnknownColumn(match table {
            Some(t) => format!("{t}.{column}"),
            None => column.to_string(),
        }))
    }

    /// Evaluates an expression.
    pub(crate) fn eval(
        &mut self,
        expr: &Expr,
        scope: &Scope<'_>,
        group: Option<&Group<'_>>,
    ) -> SqlResult<Value> {
        self.stats.evaluations += 1;
        match expr {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Column { table, column } => self.resolve_column(scope, table, column),
            Expr::Compare { op, left, right } => {
                let l = self.eval(left, scope, group)?;
                let r = self.eval(right, scope, group)?;
                let truth = match l.sql_cmp(&r) {
                    None => Truth::Unknown,
                    Some(ord) => Truth::from_bool(match op {
                        CompareOp::Eq => ord.is_eq(),
                        CompareOp::NotEq => !ord.is_eq(),
                        CompareOp::Lt => ord.is_lt(),
                        CompareOp::LtEq => ord.is_le(),
                        CompareOp::Gt => ord.is_gt(),
                        CompareOp::GtEq => ord.is_ge(),
                    }),
                };
                Ok(truth.to_value())
            }
            Expr::Arith { op, left, right } => {
                let l = self.eval(left, scope, group)?;
                let r = self.eval(right, scope, group)?;
                l.arith(*op, &r)
            }
            Expr::Concat { left, right } => {
                let l = self.eval(left, scope, group)?;
                let r = self.eval(right, scope, group)?;
                if l.is_null() || r.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Text(format!("{}{}", l.render(), r.render())))
            }
            Expr::And(a, b) => {
                let l = self.eval(a, scope, group)?.to_truth();
                if l == Truth::False {
                    return Ok(Truth::False.to_value());
                }
                let r = self.eval(b, scope, group)?.to_truth();
                Ok(l.and(r).to_value())
            }
            Expr::Or(a, b) => {
                let l = self.eval(a, scope, group)?.to_truth();
                if l == Truth::True {
                    return Ok(Truth::True.to_value());
                }
                let r = self.eval(b, scope, group)?.to_truth();
                Ok(l.or(r).to_value())
            }
            Expr::Not(e) => Ok(self.eval(e, scope, group)?.to_truth().not().to_value()),
            Expr::Neg(e) => {
                let v = self.eval(e, scope, group)?;
                v.arith(crate::value::ArithOp::Mul, &Value::Integer(-1))
            }
            Expr::Like { negated, expr, pattern } => {
                let v = self.eval(expr, scope, group)?;
                let p = self.eval(pattern, scope, group)?;
                if v.is_null() || p.is_null() {
                    return Ok(Value::Null);
                }
                let m = like_match(&p.render(), &v.render());
                Ok(Value::from_bool(m != *negated))
            }
            Expr::IsNull { negated, expr } => {
                let v = self.eval(expr, scope, group)?;
                Ok(Value::from_bool(v.is_null() != *negated))
            }
            Expr::InList { negated, expr, list } => {
                let v = self.eval(expr, scope, group)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut found = false;
                for item in list {
                    let iv = self.eval(item, scope, group)?;
                    if matches!(v.sql_cmp(&iv), Some(o) if o.is_eq()) {
                        found = true;
                        break;
                    }
                }
                Ok(Value::from_bool(found != *negated))
            }
            Expr::InSubquery { negated, expr, query } => {
                let v = self.eval(expr, scope, group)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                // Correlated IN: semi-join probe against the decorrelated
                // build; the IN comparison runs against exactly the value
                // rows the reference subquery would have produced for this
                // outer row, so NULL and type-coercion semantics are the
                // eval site's own, unchanged.
                if let Some(build) = self.decorr_build(query, SubqueryPosition::In)? {
                    let keys = self.decorr_outer_keys(build.rw, scope)?;
                    let found = self.decorr_in_match(&build, &keys, &v);
                    return Ok(Value::from_bool(found != *negated));
                }
                let rs = self.run_expr_subquery(query, scope)?;
                let mut found = false;
                for row in &rs.rows {
                    if let Some(cell) = row.first() {
                        if matches!(v.sql_cmp(cell), Some(o) if o.is_eq()) {
                            found = true;
                            break;
                        }
                    }
                }
                Ok(Value::from_bool(found != *negated))
            }
            Expr::Between { negated, expr, low, high } => {
                let v = self.eval(expr, scope, group)?;
                let lo = self.eval(low, scope, group)?;
                let hi = self.eval(high, scope, group)?;
                match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => {
                        let inside = a.is_ge() && b.is_le();
                        Ok(Value::from_bool(inside != *negated))
                    }
                    _ => Ok(Value::Null),
                }
            }
            Expr::Exists { negated, query } => {
                // Correlated [NOT] EXISTS: hash semi/anti-join probe — the
                // NOT stays here as the negation of the probe's verdict.
                if let Some(build) = self.decorr_build(query, SubqueryPosition::Exists)? {
                    let keys = self.decorr_outer_keys(build.rw, scope)?;
                    let found = self.decorr_has_match(&build, &keys);
                    return Ok(Value::from_bool(found != *negated));
                }
                let rs = self.run_expr_subquery(query, scope)?;
                Ok(Value::from_bool(rs.rows.is_empty() == *negated))
            }
            Expr::ScalarSubquery(query) => {
                // Correlated scalar aggregate: group-join probe over the
                // pre-built side (aggregated lazily per distinct outer key).
                if let Some(build) = self.decorr_build(query, SubqueryPosition::Scalar)? {
                    return self.decorr_scalar(&build, query, scope);
                }
                let rs = self.run_expr_subquery(query, scope)?;
                if rs.rows.len() > 1 {
                    return Err(SqlError::Execution(
                        "scalar subquery returned more than one row".into(),
                    ));
                }
                Ok(rs.rows.first().and_then(|r| r.first().cloned()).unwrap_or(Value::Null))
            }
            Expr::Aggregate { kind, distinct, arg } => {
                // Columnar grouped execution computes aggregates with batch
                // kernels and installs the per-group results here, keyed by
                // node address; uncovered nodes fall through to the group
                // requirement below, so a collector gap errors loudly
                // instead of silently diverging.
                if let Some(overrides) = &self.agg_overrides {
                    if let Some(v) = overrides.get(&(expr as *const Expr as usize)) {
                        return Ok(v.clone());
                    }
                }
                let group = group.ok_or_else(|| {
                    SqlError::Execution(format!(
                        "aggregate {} used outside GROUP context",
                        kind.name()
                    ))
                })?;
                self.eval_aggregate(*kind, *distinct, arg.as_deref(), scope, group)
            }
            Expr::Function { name, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, scope, group)?);
                }
                eval_scalar_function(name, &vals)
            }
            Expr::Cast { expr, target } => {
                let v = self.eval(expr, scope, group)?;
                Ok(cast_value(&v, *target))
            }
            Expr::Case { operand, branches, else_branch } => {
                let op_val = match operand {
                    Some(o) => Some(self.eval(o, scope, group)?),
                    None => None,
                };
                for (when, then) in branches {
                    let hit = match &op_val {
                        Some(v) => {
                            let w = self.eval(when, scope, group)?;
                            matches!(v.sql_cmp(&w), Some(o) if o.is_eq())
                        }
                        None => self.eval(when, scope, group)?.to_truth().is_true(),
                    };
                    if hit {
                        return self.eval(then, scope, group);
                    }
                }
                match else_branch {
                    Some(e) => self.eval(e, scope, group),
                    None => Ok(Value::Null),
                }
            }
        }
    }

    fn eval_aggregate(
        &mut self,
        kind: AggregateKind,
        distinct: bool,
        arg: Option<&Expr>,
        scope: &Scope<'_>,
        group: &Group<'_>,
    ) -> SqlResult<Value> {
        // COUNT(*) — no argument.
        if arg.is_none() {
            return match kind {
                AggregateKind::Count => Ok(Value::Integer(group.len() as i64)),
                other => Err(SqlError::Execution(format!("{} requires an argument", other.name()))),
            };
        }
        let arg = arg.unwrap();
        let mut vals: Vec<Value> = Vec::with_capacity(group.len());
        for row in group.rows() {
            self.stats.evaluations += 1;
            let inner_scope = Scope { cols: scope.cols, row, parent: scope.parent };
            let v = self.eval(arg, &inner_scope, None)?;
            if !v.is_null() {
                vals.push(v);
            }
        }
        Ok(agg_over_values(kind, distinct, vals))
    }
}

/// Resolves an ORDER BY key that refers to an *output* column — an ordinal
/// (`ORDER BY 2`) or a projection alias — to its position in the output
/// row, or `None` when the key is an ordinary expression over the input
/// relation. Row-independent: it only consults headers, projections, and
/// the input layout, so the row tail and the columnar pipeline share one
/// resolution and can never disagree on what a key means.
pub(crate) fn order_key_output_column(
    expr: &Expr,
    out_width: usize,
    headers: &[String],
    projections: &[Projection],
    cols: &[ColInfo],
) -> Option<usize> {
    // Ordinal reference: ORDER BY 2
    if let Expr::Literal(Value::Integer(i)) = expr {
        let idx = *i as usize;
        if idx >= 1 && idx <= out_width {
            return Some(idx - 1);
        }
    }
    // Alias reference: ORDER BY n where n is an output alias
    if let Expr::Column { table: None, column } = expr {
        if let Some(pos) = headers.iter().position(|h| h.eq_ignore_ascii_case(column)) {
            // Only treat it as an alias if it is not also a base column, or
            // if it was explicitly aliased in the projection.
            let explicitly_aliased = projections.iter().any(|p| {
                matches!(p, Projection::Expr { alias: Some(a), .. } if a.eq_ignore_ascii_case(column))
            });
            let is_base_col = cols.iter().any(|c| c.name.eq_ignore_ascii_case(column));
            if explicitly_aliased || !is_base_col {
                return Some(pos);
            }
        }
    }
    None
}

/// True when a `SELECT` executes through the grouped pipeline: explicit
/// `GROUP BY`, or aggregates in the projections or `HAVING`. Shared by the
/// row tail and the columnar pipeline so the two can never disagree on
/// which pipeline a statement takes.
pub(crate) fn select_is_grouped(stmt: &SelectStatement) -> bool {
    !stmt.group_by.is_empty()
        || stmt.projections.iter().any(|p| match p {
            Projection::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        })
        || stmt.having.as_ref().is_some_and(|h| h.contains_aggregate())
}

/// Operator label for a nested-loop-mode relation source, matching the
/// labels `EXPLAIN` renders for the legacy tree so `EXPLAIN ANALYZE`
/// measurements line up with the rendered plan.
pub(crate) fn legacy_ref_label(tref: &TableRef) -> String {
    match tref {
        TableRef::Named { table, .. } => format!("SeqScan {table}"),
        TableRef::Derived { alias, .. } => format!("SubqueryScan {alias}"),
    }
}

/// Combines already-evaluated, non-NULL argument values into an aggregate
/// result. Shared by grouped evaluation ([`Executor::eval_aggregate`]), the
/// decorrelated group-join probe, and the columnar grouped pipeline, so all
/// paths have identical DISTINCT, empty-set, and numeric-coercion semantics
/// by construction.
pub(crate) fn agg_over_values(kind: AggregateKind, distinct: bool, mut vals: Vec<Value>) -> Value {
    if distinct {
        // Hashed first-seen dedup, same order as the old linear scan.
        let mut seen = GroupKeyMap::default();
        vals.retain(|v| seen.insert_if_new(std::slice::from_ref(v)));
    }
    match kind {
        AggregateKind::Count => Value::Integer(vals.len() as i64),
        AggregateKind::Sum => {
            if vals.is_empty() {
                Value::Null
            } else {
                sum_values(&vals)
            }
        }
        AggregateKind::Avg => {
            if vals.is_empty() {
                Value::Null
            } else {
                let total = sum_values(&vals).as_f64().unwrap_or(0.0);
                Value::Real(total / vals.len() as f64)
            }
        }
        AggregateKind::Min => {
            vals.iter().cloned().min_by(|a, b| a.total_cmp(b)).unwrap_or(Value::Null)
        }
        AggregateKind::Max => {
            vals.iter().cloned().max_by(|a, b| a.total_cmp(b)).unwrap_or(Value::Null)
        }
    }
}

fn sum_values(vals: &[Value]) -> Value {
    let all_int = vals.iter().all(|v| matches!(v.coerce_numeric(), Value::Integer(_)));
    if all_int {
        // Wrapping, like `Value::arith` addition — a bare `.sum()` here
        // panics on overflow in debug builds but wraps in release, making
        // SUM(...) build-dependent near i64::MAX.
        Value::Integer(
            vals.iter()
                .filter_map(|v| v.coerce_numeric().as_i64())
                .fold(0i64, |acc, v| acc.wrapping_add(v)),
        )
    } else {
        Value::Real(vals.iter().filter_map(|v| v.coerce_numeric().as_f64()).sum())
    }
}

/// CAST semantics similar to SQLite.
pub(crate) fn cast_value(v: &Value, target: DataType) -> Value {
    if v.is_null() {
        return Value::Null;
    }
    match target {
        DataType::Integer => match v.coerce_numeric() {
            Value::Integer(i) => Value::Integer(i),
            Value::Real(r) => Value::Integer(r as i64),
            _ => Value::Integer(0),
        },
        DataType::Real => match v.coerce_numeric() {
            Value::Integer(i) => Value::Real(i as f64),
            Value::Real(r) => Value::Real(r),
            _ => Value::Real(0.0),
        },
        DataType::Text | DataType::Date => Value::Text(v.render()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_select;
    use crate::schema::{ColumnDef, DataType, ForeignKey, TableSchema};

    /// Executes under the production executor, with stats.
    fn run_with_stats(db: &Database, sql: &str) -> SqlResult<(ResultSet, ExecStats)> {
        execute_with_stats_mode(db, sql, PlanMode::default())
    }

    /// A small financial-style database used across executor tests.
    fn db() -> Database {
        let mut db = Database::new("financial");
        db.create_table(TableSchema::new(
            "account",
            vec![
                ColumnDef::new("account_id", DataType::Integer).primary_key(),
                ColumnDef::new("district_id", DataType::Integer),
                ColumnDef::new("frequency", DataType::Text),
            ],
        ))
        .unwrap();
        db.create_table(TableSchema::new(
            "loan",
            vec![
                ColumnDef::new("loan_id", DataType::Integer).primary_key(),
                ColumnDef::new("account_id", DataType::Integer),
                ColumnDef::new("amount", DataType::Real),
                ColumnDef::new("status", DataType::Text),
            ],
        ))
        .unwrap();
        db.add_foreign_key(ForeignKey {
            from_table: "loan".into(),
            from_column: "account_id".into(),
            to_table: "account".into(),
            to_column: "account_id".into(),
        });
        let freqs =
            ["POPLATEK MESICNE", "POPLATEK TYDNE", "POPLATEK MESICNE", "POPLATEK PO OBRATU"];
        for i in 0..4i64 {
            db.insert(
                "account",
                vec![(i + 1).into(), ((i % 2) + 1).into(), freqs[i as usize].into()],
            )
            .unwrap();
        }
        let loans = [
            (1i64, 1i64, 150_000.0, "A"),
            (2, 1, 250_000.0, "B"),
            (3, 2, 90_000.0, "A"),
            (4, 3, 400_000.0, "C"),
            (5, 4, 50_000.0, "A"),
        ];
        for (id, acc, amt, st) in loans {
            db.insert("loan", vec![id.into(), acc.into(), amt.into(), st.into()]).unwrap();
        }
        db
    }

    fn run(sql: &str) -> ResultSet {
        execute(&db(), sql).unwrap()
    }

    #[test]
    fn simple_filter_and_projection() {
        let rs = run("SELECT loan_id FROM loan WHERE amount > 100000");
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.columns, vec!["loan_id"]);
    }

    #[test]
    fn wildcard_projection() {
        let rs = run("SELECT * FROM account");
        assert_eq!(rs.columns.len(), 3);
        assert_eq!(rs.len(), 4);
    }

    #[test]
    fn inner_join_with_aliases() {
        let rs = run("SELECT T1.account_id, T2.amount FROM account AS T1 \
             INNER JOIN loan AS T2 ON T1.account_id = T2.account_id \
             WHERE T1.frequency = 'POPLATEK TYDNE'");
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][1], Value::Real(90_000.0));
    }

    #[test]
    fn left_join_pads_nulls() {
        let mut d = db();
        d.insert("account", vec![5.into(), 1.into(), "POPLATEK TYDNE".into()]).unwrap();
        let rs = execute(
            &d,
            "SELECT account.account_id, loan.loan_id FROM account \
             LEFT JOIN loan ON account.account_id = loan.account_id \
             WHERE loan.loan_id IS NULL",
        )
        .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Integer(5));
    }

    #[test]
    fn group_by_count_and_having() {
        let rs = run(
            "SELECT account_id, COUNT(*) AS n FROM loan GROUP BY account_id HAVING COUNT(*) >= 2",
        );
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0], vec![Value::Integer(1), Value::Integer(2)]);
    }

    #[test]
    fn global_aggregates() {
        let rs =
            run("SELECT COUNT(*), SUM(amount), AVG(amount), MIN(amount), MAX(amount) FROM loan");
        assert_eq!(rs.rows[0][0], Value::Integer(5));
        assert_eq!(rs.rows[0][1], Value::Real(940_000.0));
        assert_eq!(rs.rows[0][3], Value::Real(50_000.0));
        assert_eq!(rs.rows[0][4], Value::Real(400_000.0));
    }

    #[test]
    fn count_distinct() {
        let rs = run("SELECT COUNT(DISTINCT status) FROM loan");
        assert_eq!(rs.rows[0][0], Value::Integer(3));
    }

    #[test]
    fn order_by_and_limit() {
        let rs = run("SELECT loan_id FROM loan ORDER BY amount DESC LIMIT 2");
        assert_eq!(rs.rows, vec![vec![Value::Integer(4)], vec![Value::Integer(2)]]);
    }

    #[test]
    fn order_by_alias_and_ordinal() {
        let rs = run("SELECT account_id, SUM(amount) AS total FROM loan GROUP BY account_id ORDER BY total ASC LIMIT 1");
        assert_eq!(rs.rows[0][0], Value::Integer(4));
        let rs = run("SELECT loan_id, amount FROM loan ORDER BY 2 ASC LIMIT 1");
        assert_eq!(rs.rows[0][0], Value::Integer(5));
    }

    #[test]
    fn distinct_rows() {
        let rs = run("SELECT DISTINCT status FROM loan");
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn where_like_and_in() {
        let rs = run("SELECT account_id FROM account WHERE frequency LIKE 'POPLATEK M%'");
        assert_eq!(rs.len(), 2);
        let rs = run("SELECT loan_id FROM loan WHERE status IN ('B', 'C')");
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn in_subquery_and_exists() {
        let rs = run("SELECT loan_id FROM loan WHERE account_id IN \
             (SELECT account_id FROM account WHERE frequency = 'POPLATEK MESICNE')");
        assert_eq!(rs.len(), 3);
        let rs = run(
            "SELECT account_id FROM account WHERE EXISTS \
             (SELECT 1 FROM loan WHERE loan.account_id = account.account_id AND loan.amount > 300000)",
        );
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Integer(3));
    }

    #[test]
    fn scalar_subquery_comparison() {
        let rs = run("SELECT loan_id FROM loan WHERE amount > (SELECT AVG(amount) FROM loan)");
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn case_expression() {
        let rs = run(
            "SELECT loan_id, CASE WHEN amount >= 200000 THEN 'big' ELSE 'small' END AS size FROM loan ORDER BY loan_id",
        );
        assert_eq!(rs.rows[0][1], Value::text("small"));
        assert_eq!(rs.rows[1][1], Value::text("big"));
    }

    #[test]
    fn cast_division_produces_ratio() {
        let rs = run("SELECT CAST(SUM(amount) AS REAL) / COUNT(*) FROM loan");
        assert_eq!(rs.rows[0][0], Value::Real(188_000.0));
    }

    #[test]
    fn derived_table() {
        let rs = run("SELECT t.n FROM (SELECT COUNT(*) AS n FROM loan) AS t");
        assert_eq!(rs.rows[0][0], Value::Integer(5));
    }

    #[test]
    fn comma_join_with_where() {
        let rs = run("SELECT loan.loan_id FROM loan, account \
             WHERE loan.account_id = account.account_id AND account.district_id = 1");
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn unknown_column_is_error() {
        let err = execute(&db(), "SELECT nonexistent FROM loan").unwrap_err();
        assert!(matches!(err, SqlError::UnknownColumn(_)));
    }

    #[test]
    fn unknown_table_is_error() {
        let err = execute(&db(), "SELECT x FROM nonexistent").unwrap_err();
        assert!(matches!(err, SqlError::UnknownTable(_)));
    }

    #[test]
    fn stats_grow_with_joins() {
        let d = db();
        let (_, simple) = run_with_stats(&d, "SELECT * FROM loan").unwrap();
        let (_, join) = run_with_stats(
            &d,
            "SELECT * FROM loan INNER JOIN account ON loan.account_id = account.account_id",
        )
        .unwrap();
        assert!(join.cost() > simple.cost());
    }

    #[test]
    fn create_and_insert_via_sql() {
        let mut d = Database::new("scratch");
        execute_statement(&mut d, "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)").unwrap();
        execute_statement(&mut d, "INSERT INTO t (id, name) VALUES (1, 'a'), (2, 'b')").unwrap();
        let rs = execute(&d, "SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(rs.rows[0][0], Value::Integer(2));
    }

    /// A table `t(id PRIMARY KEY, name)` created through `execute_statement`
    /// and holding `rows`.
    fn scratch(rows: &str) -> Database {
        let mut d = Database::new("scratch");
        execute_statement(&mut d, "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)").unwrap();
        if !rows.is_empty() {
            execute_statement(&mut d, &format!("INSERT INTO t VALUES {rows}")).unwrap();
        }
        d
    }

    /// Regression: `execute_statement` used to insert row by row, so an
    /// INSERT failing on a later row returned the error but kept the rows
    /// before it.
    #[test]
    fn failing_insert_statement_leaves_the_table_unchanged() {
        for sql in
            ["INSERT INTO t VALUES (1,'a'),(2)", "INSERT INTO t VALUES (5,'x'),(6,nosuchfn(1))"]
        {
            let mut d = scratch("");
            assert!(execute_statement(&mut d, sql).is_err(), "{sql}");
            assert!(d.table("t").unwrap().is_empty(), "{sql} left rows behind");
            assert_eq!(d.version(), 1, "{sql} published a snapshot");
        }
    }

    /// Regression: duplicate primary keys were accepted by INSERT and
    /// UPDATE, after which `WHERE id = 1` matched two rows.
    #[test]
    fn duplicate_primary_keys_are_rejected() {
        let mut d = scratch("(1,'a'),(2,'b')");
        let before = d.table("t").unwrap().rows().to_vec();
        for sql in ["INSERT INTO t VALUES (1,'dup')", "UPDATE t SET id = 1 WHERE id = 2"] {
            let err = execute_statement(&mut d, sql).unwrap_err();
            assert!(matches!(err, SqlError::Schema(_)), "{sql}: {err}");
            assert_eq!(d.table("t").unwrap().rows(), before.as_slice(), "{sql}");
        }
        let rs = execute(&d, "SELECT COUNT(*) FROM t WHERE id = 1").unwrap();
        assert_eq!(rs.rows[0][0], Value::Integer(1));
        // Keeping every key, or swapping two, is no collision.
        execute_statement(&mut d, "UPDATE t SET id = id").unwrap();
        execute_statement(&mut d, "UPDATE t SET id = 3 - id").unwrap();
        let rs = execute(&d, "SELECT id, name FROM t").unwrap();
        assert_eq!(rs.rows, vec![vec![2.into(), "a".into()], vec![1.into(), "b".into()]]);
    }

    #[test]
    fn empty_group_count_zero() {
        let rs = run("SELECT COUNT(*) FROM loan WHERE amount > 10000000");
        assert_eq!(rs.rows[0][0], Value::Integer(0));
    }

    #[test]
    fn case_sensitive_text_equality_matters() {
        // The BIRD case-sensitivity defect: 'a' vs 'A' must not match.
        let rs = run("SELECT COUNT(*) FROM loan WHERE status = 'a'");
        assert_eq!(rs.rows[0][0], Value::Integer(0));
        let rs = run("SELECT COUNT(*) FROM loan WHERE status = 'A'");
        assert_eq!(rs.rows[0][0], Value::Integer(3));
    }

    /// Runs a query in both plan modes and asserts identical rows (order
    /// included), returning the shared result.
    fn run_both_modes(d: &Database, sql: &str) -> ResultSet {
        let (col, _) = execute_with_stats_mode(d, sql, PlanMode::Columnar).unwrap();
        let (legacy, _) = execute_with_stats_mode(d, sql, PlanMode::NestedLoop).unwrap();
        assert_eq!(col.rows, legacy.rows, "mode divergence for: {sql}");
        col
    }

    #[test]
    fn null_join_keys_never_hash_match() {
        let mut d = db();
        // Two rows with NULL join keys on each side: NULL = NULL is unknown,
        // so neither inner nor hash semantics may pair them.
        d.insert("account", vec![10.into(), Value::Null, "X".into()]).unwrap();
        d.insert("loan", vec![10.into(), Value::Null, 1.0.into(), "A".into()]).unwrap();
        let rs = run_both_modes(
            &d,
            "SELECT loan.loan_id FROM loan \
             INNER JOIN account ON loan.account_id = account.account_id",
        );
        assert_eq!(rs.len(), 5, "only the five non-NULL pairings survive");
        assert!(rs.rows.iter().all(|r| r[0] != Value::Integer(10)));

        // In a LEFT JOIN the NULL-keyed left row must survive, NULL-padded.
        let rs = run_both_modes(
            &d,
            "SELECT loan.loan_id, account.account_id FROM loan \
             LEFT JOIN account ON loan.account_id = account.account_id \
             WHERE account.account_id IS NULL",
        );
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Integer(10));
    }

    #[test]
    fn quoted_identifiers_flow_through_planner() {
        let d = db();
        // Backtick, double-quote, and bracket quoting must all plan and
        // execute; the equi-key extraction sees the unquoted names.
        for sql in [
            "SELECT `loan`.`loan_id` FROM loan INNER JOIN account \
             ON `loan`.`account_id` = `account`.`account_id` WHERE `account`.`district_id` = 1",
            "SELECT \"loan\".\"loan_id\" FROM loan INNER JOIN account \
             ON \"loan\".\"account_id\" = \"account\".\"account_id\" WHERE \"account\".\"district_id\" = 1",
            "SELECT [loan].[loan_id] FROM loan INNER JOIN account \
             ON [loan].[account_id] = [account].[account_id] WHERE [account].[district_id] = 1",
        ] {
            let rs = run_both_modes(&d, sql);
            assert_eq!(rs.len(), 3, "{sql}");
        }
        let stmt = crate::parser::parse_select(
            "SELECT `loan`.`loan_id` FROM loan INNER JOIN account \
             ON `loan`.`account_id` = `account`.`account_id`",
        )
        .unwrap();
        let plan = plan_select(&d, &stmt).unwrap();
        assert!(plan.uses_hash_join(), "quoted equi-join still hashes:\n{}", plan.explain());
    }

    #[test]
    fn nested_subqueries_execute_through_planner() {
        let d = db();
        // The IN-subquery contains its own join; in Columnar mode every
        // nesting level plans independently.
        let rs = run_both_modes(
            &d,
            "SELECT loan_id FROM loan WHERE account_id IN \
             (SELECT T1.account_id FROM account AS T1 \
              INNER JOIN loan AS T2 ON T1.account_id = T2.account_id \
              WHERE T2.status = 'A')",
        );
        assert_eq!(rs.len(), 4);
        // Correlated EXISTS over a joined subquery; the outer table needs a
        // distinct alias because the inner join re-binds `account`.
        let rs = run_both_modes(
            &d,
            "SELECT outer_a.account_id FROM account AS outer_a WHERE EXISTS \
             (SELECT 1 FROM loan INNER JOIN account AS a2 \
              ON loan.account_id = a2.account_id \
              WHERE loan.account_id = outer_a.account_id AND loan.amount > 300000)",
        );
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Integer(3));
        // Derived table wrapping a join, joined again on the outside.
        let rs = run_both_modes(
            &d,
            "SELECT t.district_id, COUNT(*) FROM \
             (SELECT account.district_id AS district_id, loan.amount AS amount \
              FROM account INNER JOIN loan ON account.account_id = loan.account_id) AS t \
             WHERE t.amount > 50000 GROUP BY t.district_id ORDER BY t.district_id",
        );
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn numeric_text_join_keys_match_numbers() {
        // A text FK against an integer PK: sql_cmp compares them
        // numerically, and the hash join must agree.
        let mut d = Database::new("mixed");
        d.create_table(TableSchema::new(
            "parent",
            vec![ColumnDef::new("id", DataType::Integer).primary_key()],
        ))
        .unwrap();
        d.create_table(TableSchema::new(
            "child",
            vec![
                ColumnDef::new("id", DataType::Integer).primary_key(),
                ColumnDef::new("parent_id", DataType::Text),
            ],
        ))
        .unwrap();
        for i in 1..=3i64 {
            d.insert("parent", vec![i.into()]).unwrap();
        }
        d.insert("child", vec![1.into(), "2".into()]).unwrap();
        d.insert("child", vec![2.into(), "2.0".into()]).unwrap();
        d.insert("child", vec![3.into(), "nope".into()]).unwrap();
        let rs = run_both_modes(
            &d,
            "SELECT child.id FROM child INNER JOIN parent ON child.parent_id = parent.id",
        );
        assert_eq!(rs.len(), 2, "both numeric-looking texts join to parent 2");
    }

    #[test]
    fn limit_without_order_by_is_mode_stable() {
        // Without ORDER BY the row order is plan-defined; hash joins must
        // preserve nested-loop emission order so LIMIT slices identically.
        let d = db();
        run_both_modes(
            &d,
            "SELECT loan.loan_id, account.frequency FROM loan \
             INNER JOIN account ON loan.account_id = account.account_id LIMIT 3",
        );
        run_both_modes(
            &d,
            "SELECT loan.loan_id FROM loan, account \
             WHERE loan.account_id = account.account_id LIMIT 2 OFFSET 1",
        );
    }

    #[test]
    fn hash_join_reports_cheaper_cost_than_nested_loop() {
        let d = db();
        let sql = "SELECT loan.loan_id FROM loan \
                   INNER JOIN account ON loan.account_id = account.account_id";
        let (rs_opt, opt) = execute_with_stats_mode(&d, sql, PlanMode::Columnar).unwrap();
        let (rs_leg, legacy) = execute_with_stats_mode(&d, sql, PlanMode::NestedLoop).unwrap();
        assert_eq!(rs_opt.rows, rs_leg.rows);
        assert!(opt.hash_probes > 0 && opt.hash_build_rows > 0);
        assert_eq!(legacy.hash_probes, 0);
        assert!(
            opt.cost() < legacy.cost(),
            "hash join must cost less: {} vs {}",
            opt.cost(),
            legacy.cost()
        );
    }

    #[test]
    fn uncorrelated_subquery_result_is_cached_across_outer_rows() {
        let d = db();
        // The scalar AVG subquery has no outer references: it must execute
        // once (one miss) and replay from the result cache for the remaining
        // outer rows, in both plan modes, with identical rows.
        let sql = "SELECT loan_id FROM loan WHERE amount > (SELECT AVG(amount) FROM loan)";
        let (rs, stats) = execute_with_stats_mode(&d, sql, PlanMode::Columnar).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(stats.subquery_result_misses, 1, "one real execution");
        assert_eq!(
            stats.subquery_result_hits, 4,
            "five loans probe the subquery; four replay the cached result"
        );
        // The nested-loop reference mode must keep re-executing per outer
        // row (same rows, no cache counters) so conformance comparisons can
        // catch result-cache defects.
        let (legacy, legacy_stats) =
            execute_with_stats_mode(&d, sql, PlanMode::NestedLoop).unwrap();
        assert_eq!(legacy.rows, rs.rows);
        assert_eq!(legacy_stats.subquery_result_misses, 0);
        assert_eq!(legacy_stats.subquery_result_hits, 0);
        // The cached path must do strictly less work than re-executing the
        // subquery per row used to: the subquery scans 5 loan rows, so a
        // per-row strategy would scan >= 25 rows for it alone.
        let (_, stats) = run_with_stats(&d, sql).unwrap();
        assert!(
            stats.rows_scanned < 25,
            "subquery re-execution should be gone, scanned {}",
            stats.rows_scanned
        );
    }

    #[test]
    fn correlated_exists_decorrelates_into_a_semi_join() {
        let d = db();
        let sql = "SELECT account_id FROM account WHERE EXISTS \
             (SELECT 1 FROM loan WHERE loan.account_id = account.account_id AND loan.amount > 300000)";
        let (rs, stats) = run_with_stats(&d, sql).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(stats.subquery_result_hits, 0, "correlated results must never be reused");
        assert_eq!(stats.subquery_result_misses, 0, "correlated subqueries are not cacheable");
        // The subquery is rewritten into a hash semi-join: the build side
        // executes once and every outer row becomes a probe, so the plan
        // cache sees no per-row replays at all.
        assert_eq!(stats.decorrelated_subqueries, 1, "one build side materialized");
        assert_eq!(stats.decorrelated_probes, 4, "one probe per outer account row");
        assert_eq!(stats.plan_cache_hits, 0, "no per-row re-execution remains");

        // The per-outer-row cached-plan path is still there behind
        // `without_decorrelation`, producing identical rows the old way.
        let stmt = crate::parser::parse_select(sql).unwrap();
        let plans = PlanCache::without_decorrelation(stmt.query_count());
        let (legacy_rs, legacy_stats) =
            execute_select_with_plan_cache(&d, &stmt, PlanMode::Columnar, &plans).unwrap();
        assert_eq!(legacy_rs.rows, rs.rows);
        assert_eq!(legacy_stats.decorrelated_subqueries, 0);
        assert!(legacy_stats.plan_cache_hits >= 3, "per-row path replays the cached plan");
    }

    #[test]
    fn join_on_outer_reference_is_correlated_and_never_cached() {
        // Regression: the first join's ON references `c.y`. A relation
        // aliased `cc` joined *later* also answers to the base name `c`,
        // so the reference resolves in the full FROM layout — but at
        // runtime each ON executes with only its left-deep prefix in
        // scope, so `c.y` falls through to the *outer* row and the
        // subquery is correlated. It must re-execute per outer row, not
        // replay a cached first-row result.
        let mut d = Database::new("onref");
        d.create_table(TableSchema::new(
            "c",
            vec![
                ColumnDef::new("id", DataType::Integer).primary_key(),
                ColumnDef::new("y", DataType::Integer),
            ],
        ))
        .unwrap();
        d.create_table(TableSchema::new(
            "a",
            vec![
                ColumnDef::new("id", DataType::Integer).primary_key(),
                ColumnDef::new("x", DataType::Integer),
            ],
        ))
        .unwrap();
        d.create_table(TableSchema::new(
            "b",
            vec![
                ColumnDef::new("id", DataType::Integer).primary_key(),
                ColumnDef::new("x", DataType::Integer),
            ],
        ))
        .unwrap();
        d.insert("a", vec![1.into(), 10.into()]).unwrap();
        d.insert("b", vec![1.into(), 100.into()]).unwrap();
        d.insert("c", vec![1.into(), 100.into()]).unwrap();
        d.insert("c", vec![2.into(), 999.into()]).unwrap();
        let sql = "SELECT id FROM c WHERE EXISTS \
                   (SELECT 1 FROM a INNER JOIN b ON b.x = c.y \
                    INNER JOIN c AS cc ON cc.id = a.id)";
        let rs = run_both_modes(&d, sql);
        assert_eq!(rs.rows, vec![vec![Value::Integer(1)]], "only c.y = 100 satisfies the ON");
        let (_, stats) = run_with_stats(&d, sql).unwrap();
        assert_eq!(stats.subquery_result_hits, 0, "a correlated subquery must never be cached");
        assert_eq!(stats.subquery_result_misses, 0);
    }

    #[test]
    fn uncorrelated_in_subquery_caches_and_matches_both_modes() {
        let d = db();
        let sql = "SELECT loan_id FROM loan WHERE account_id IN \
             (SELECT account_id FROM account WHERE frequency = 'POPLATEK MESICNE')";
        let rs = run_both_modes(&d, sql);
        assert_eq!(rs.len(), 3);
        let (_, stats) = run_with_stats(&d, sql).unwrap();
        assert_eq!(stats.subquery_result_misses, 1);
        assert_eq!(stats.subquery_result_hits, 4);
    }

    #[test]
    fn pk_point_lookup_reports_index_stats() {
        let mut d = Database::new("big");
        d.create_table(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Integer).primary_key(),
                ColumnDef::new("v", DataType::Integer),
            ],
        ))
        .unwrap();
        for i in 0..500i64 {
            d.insert("t", vec![i.into(), (i * 2).into()]).unwrap();
        }
        let sql = "SELECT v FROM t WHERE id = 250";
        let (rs, opt) = execute_with_stats_mode(&d, sql, PlanMode::Columnar).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Integer(500)]]);
        assert_eq!(opt.index_lookups, 1);
        assert!(opt.rows_scanned < 10, "index lookup avoids the full scan");
        let (_, legacy) = execute_with_stats_mode(&d, sql, PlanMode::NestedLoop).unwrap();
        assert!(legacy.rows_scanned >= 500);
        assert!(opt.cost() < legacy.cost());
    }

    /// Regression (found by the columnar differential proptests): SUM over
    /// integers near `i64::MAX` used a bare `.sum()`, which panics on
    /// overflow in debug builds and wraps in release — so the same query
    /// gave build-dependent behavior. SUM now wraps, matching `+`'s
    /// wrapping semantics in `Value::arith`, in every execution mode.
    #[test]
    fn integer_sum_wraps_instead_of_panicking() {
        let mut d = Database::new("edge");
        d.create_table(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Integer).primary_key(),
                ColumnDef::new("v", DataType::Integer),
            ],
        ))
        .unwrap();
        d.insert("t", vec![0i64.into(), i64::MAX.into()]).unwrap();
        d.insert("t", vec![1i64.into(), (i64::MAX - 1).into()]).unwrap();
        let want = i64::MAX.wrapping_add(i64::MAX - 1);
        for mode in [PlanMode::Columnar, PlanMode::NestedLoop] {
            let (rs, _) = execute_with_stats_mode(&d, "SELECT SUM(v) FROM t", mode).unwrap();
            assert_eq!(rs.rows, vec![vec![Value::Integer(want)]], "{mode:?}");
        }
    }
}
