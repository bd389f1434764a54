//! `EXPLAIN` / `EXPLAIN ANALYZE`: rendering physical plans, subquery
//! strategy decisions, and measured per-operator profiles.
//!
//! `EXPLAIN <select>` is purely static: the statement is planned (never
//! executed) and the operator tree is rendered with the same labels
//! [`crate::plan::node_label`] gives every operator, annotated with the
//! plan mode, the decorrelation verdict for each expression-position
//! subquery, and — in columnar mode — the operators whose expressions the
//! vectorized executor will bridge to the row machinery.
//!
//! `EXPLAIN ANALYZE <select>` executes the statement through
//! [`execute_select_profiled`] and attaches each operator's measured
//! invocation count, output rows, batch count, and inclusive wall-clock
//! time to its rendered line, followed by the statement's deterministic
//! [`ExecStats`](crate::result::ExecStats) summary. Profile entries are
//! keyed by node address, and the rendering walks the *same* plan
//! allocation the execution ran (via [`PlanCache::cached_plan`]), so
//! measurements can never attach to the wrong line.
//!
//! Timings live only in the rendered text; result rows, stats, and
//! [`ExecStats::cost`](crate::result::ExecStats::cost) stay bit-identical
//! to an unprofiled run (pinned by the determinism guard in
//! `tests/explain_golden.rs`).

use std::collections::HashSet;

use crate::ast::*;
use crate::columnar::{collect_aggregates, is_batch_evaluable, is_group_batch_evaluable};
use crate::decorrelate::{decorrelate, DecorrelatedKind, SubqueryPosition};
use crate::error::{SqlError, SqlResult};
use crate::exec::{
    execute_select_profiled, legacy_ref_label, order_key_output_column, select_is_grouped,
};
use crate::plan::{
    expand_projections, is_uncorrelated, node_layout, plan_select, PhysicalPlan, PlanCache,
    PlanMode, PlanNode,
};
use crate::profile::{format_nanos, QueryProfile};
use crate::result::ResultSet;
use crate::storage::Database;
use crate::value::Value;

/// Executes an `EXPLAIN [ANALYZE]` statement, returning the rendering as a
/// single-column result set (one row per line), the way interactive SQL
/// frontends expect.
pub fn explain_statement(
    db: &Database,
    ex: &ExplainStatement,
    mode: PlanMode,
) -> SqlResult<ResultSet> {
    let text = if ex.analyze {
        explain_analyze_text(db, &ex.query, mode)?
    } else {
        explain_text(db, &ex.query, mode)?
    };
    let mut rs = ResultSet::new(vec!["QUERY PLAN".into()]);
    for line in text.lines() {
        rs.rows.push(vec![Value::text(line)]);
    }
    Ok(rs)
}

/// Parses and explains a SQL string under an explicit plan mode. Accepts
/// both `EXPLAIN [ANALYZE] SELECT ...` and a bare `SELECT ...` (treated as
/// plain `EXPLAIN`).
pub fn explain_sql(db: &Database, sql: &str, mode: PlanMode) -> SqlResult<ResultSet> {
    match crate::parser::parse_statement(sql)? {
        Statement::Explain(ex) => explain_statement(db, &ex, mode),
        Statement::Select(query) => {
            explain_statement(db, &ExplainStatement { analyze: false, query }, mode)
        }
        _ => Err(SqlError::Execution("EXPLAIN supports SELECT statements only".into())),
    }
}

/// Static `EXPLAIN` rendering: plan mode, operator tree, subquery strategy
/// verdicts, and (columnar mode) the row bridges the vectorized executor
/// will take. The nested-loop oracle renders its cross-product tree. Plans but never executes the statement.
pub fn explain_text(db: &Database, stmt: &SelectStatement, mode: PlanMode) -> SqlResult<String> {
    let mut out = format!("Plan mode: {mode:?}\n");
    match mode {
        PlanMode::NestedLoop => {
            out.push_str(&legacy_tree(stmt, &|_| String::new(), &|_| String::new()));
        }
        PlanMode::Columnar => {
            let plan = plan_select(db, stmt)?;
            out.push_str(&plan.explain_annotated(&|_| String::new()));
            out.push_str(&columnar_bridges_section(db, stmt, &plan)?);
        }
    }
    out.push_str(&subqueries_section(db, stmt, mode));
    Ok(out)
}

/// `EXPLAIN ANALYZE`: executes the statement with per-operator profiling
/// and renders the plan tree annotated with the measured profile, then
/// operators outside the top-level tree (subquery plans, decorrelated
/// builds), the execution summary, and the deterministic stats block.
pub fn explain_analyze_text(
    db: &Database,
    stmt: &SelectStatement,
    mode: PlanMode,
) -> SqlResult<String> {
    let plans = PlanCache::new(stmt.query_count());
    let (rs, stats, profile) = execute_select_profiled(db, stmt, mode, &plans)?;
    let mut out = format!("Plan mode: {mode:?}\n");
    let mut covered: HashSet<usize> = HashSet::new();
    match mode {
        PlanMode::NestedLoop => {
            out.push_str(&legacy_tree(
                stmt,
                &|tref| annotate_key(&profile, tref as *const TableRef as usize),
                &|join| annotate_key(&profile, join as *const Join as usize),
            ));
            if let Some(t) = &stmt.from {
                mark_covered(&profile, t as *const TableRef as usize, &mut covered);
            }
            for join in &stmt.joins {
                mark_covered(&profile, join as *const Join as usize, &mut covered);
                mark_covered(&profile, &join.table as *const TableRef as usize, &mut covered);
            }
        }
        PlanMode::Columnar => {
            let plan = plans.cached_plan(stmt).ok_or_else(|| {
                SqlError::Execution(
                    "EXPLAIN ANALYZE: executed statement left no cached plan".into(),
                )
            })?;
            if let Some(root) = &plan.root {
                collect_plan_keys(root, &profile, &mut covered);
            }
            out.push_str(&plan.explain_annotated(&|node| {
                annotate_key(&profile, node as *const PlanNode as usize)
            }));
            out.push_str(&columnar_bridges_section(db, stmt, plan)?);
        }
    }
    out.push_str(&subqueries_section(db, stmt, mode));
    let leftovers: Vec<usize> = (0..profile.ops().len()).filter(|i| !covered.contains(i)).collect();
    if !leftovers.is_empty() {
        out.push_str("Other operators (subquery plans, decorrelated builds):\n");
        for i in leftovers {
            let op = &profile.ops()[i];
            out.push_str(&format!("  {} {}\n", op.label, op.annotation()));
        }
    }
    out.push_str(&format!(
        "Execution: {} result row(s), total time {}, cost {:.1}\n",
        rs.rows.len(),
        format_nanos(profile.total_nanos),
        stats.cost()
    ));
    out.push_str("ExecStats:\n");
    for line in stats.to_string().lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    Ok(out)
}

/// Annotation suffix for one operator key: the measured profile when the
/// operator ran, a fixed marker when it never did.
fn annotate_key(profile: &QueryProfile, key: usize) -> String {
    match profile.op_for_key(key) {
        Some(op) => op.annotation(),
        None => "(never executed)".to_string(),
    }
}

fn mark_covered(profile: &QueryProfile, key: usize, covered: &mut HashSet<usize>) {
    if let Some(pos) = profile.op_position(key) {
        covered.insert(pos);
    }
}

fn collect_plan_keys(node: &PlanNode, profile: &QueryProfile, covered: &mut HashSet<usize>) {
    mark_covered(profile, node as *const PlanNode as usize, covered);
    match node {
        PlanNode::HashJoin { left, right, .. } | PlanNode::NestedLoopJoin { left, right, .. } => {
            collect_plan_keys(left, profile, covered);
            collect_plan_keys(right, profile, covered);
        }
        PlanNode::SeqScan { .. } | PlanNode::SubqueryScan { .. } => {}
    }
}

/// Renders the synthetic left-deep tree nested-loop mode executes: the last
/// join is the root, the FROM relation is the deepest leaf, and each join's
/// right-hand table sits beside the subtree it joins against. Annotation
/// closures receive the AST nodes the legacy executor profiles by address.
fn legacy_tree(
    stmt: &SelectStatement,
    annotate_ref: &dyn Fn(&TableRef) -> String,
    annotate_join: &dyn Fn(&Join) -> String,
) -> String {
    fn line(out: &mut String, depth: usize, label: String, suffix: String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&label);
        if !suffix.is_empty() {
            out.push(' ');
            out.push_str(&suffix);
        }
        out.push('\n');
    }
    fn emit(
        stmt: &SelectStatement,
        joins_left: usize,
        depth: usize,
        annotate_ref: &dyn Fn(&TableRef) -> String,
        annotate_join: &dyn Fn(&Join) -> String,
        out: &mut String,
    ) {
        if joins_left == 0 {
            match &stmt.from {
                Some(t) => line(out, depth, legacy_ref_label(t), annotate_ref(t)),
                None => line(out, depth, "Result (no FROM)".into(), String::new()),
            }
            return;
        }
        let join = &stmt.joins[joins_left - 1];
        line(out, depth, format!("NestedLoopJoin ({:?})", join.kind), annotate_join(join));
        emit(stmt, joins_left - 1, depth + 1, annotate_ref, annotate_join, out);
        line(out, depth + 1, legacy_ref_label(&join.table), annotate_ref(&join.table));
    }
    let mut out = String::new();
    emit(stmt, stmt.joins.len(), 0, annotate_ref, annotate_join, &mut out);
    if stmt.where_clause.is_some() {
        out.push_str("Filter: WHERE applied after the cross product\n");
    }
    out
}

/// Lists every expression-position subquery of the statement with the
/// strategy the executor will take for it (uncorrelated result caching,
/// decorrelation into a hash join, or per-outer-row re-execution). Empty
/// string when the statement has no subqueries.
fn subqueries_section(db: &Database, stmt: &SelectStatement, mode: PlanMode) -> String {
    let mut subs: Vec<(SubqueryPosition, &SelectStatement)> = Vec::new();
    collect_statement_subqueries(stmt, &mut subs);
    if subs.is_empty() {
        return String::new();
    }
    let mut out = String::from("Subqueries:\n");
    for (pos, q) in subs {
        let kind = match pos {
            SubqueryPosition::Exists => "EXISTS",
            SubqueryPosition::In => "IN",
            SubqueryPosition::Scalar => "scalar",
        };
        out.push_str(&format!("  {kind} subquery: {}\n", subquery_verdict(db, q, pos, mode)));
    }
    out
}

fn subquery_verdict(
    db: &Database,
    q: &SelectStatement,
    pos: SubqueryPosition,
    mode: PlanMode,
) -> String {
    if mode == PlanMode::NestedLoop {
        return "re-executed per outer row (reference mode)".into();
    }
    if is_uncorrelated(db, q) {
        return "uncorrelated: executes once, result-cached".into();
    }
    match decorrelate(db, q, pos) {
        Some(d) => {
            let shape = match d.kind {
                DecorrelatedKind::SemiJoin => "a hash semi join",
                DecorrelatedKind::InSemiJoin => "a value-carrying hash semi join",
                DecorrelatedKind::GroupJoin { .. } => "a lazily-aggregated group join",
            };
            format!("decorrelated into {shape}")
        }
        None => "decorrelation refused; re-executed per outer row (plan-cached)".into(),
    }
}

/// Collects every top-level expression-position subquery of the statement
/// (subqueries nested inside other subqueries plan and report for
/// themselves when they execute).
fn collect_statement_subqueries<'a>(
    stmt: &'a SelectStatement,
    out: &mut Vec<(SubqueryPosition, &'a SelectStatement)>,
) {
    for p in &stmt.projections {
        if let Projection::Expr { expr, .. } = p {
            collect_expr_subqueries(expr, out);
        }
    }
    for join in &stmt.joins {
        if let Some(on) = &join.on {
            collect_expr_subqueries(on, out);
        }
    }
    if let Some(w) = &stmt.where_clause {
        collect_expr_subqueries(w, out);
    }
    for g in &stmt.group_by {
        collect_expr_subqueries(g, out);
    }
    if let Some(h) = &stmt.having {
        collect_expr_subqueries(h, out);
    }
    for o in &stmt.order_by {
        collect_expr_subqueries(&o.expr, out);
    }
}

fn collect_expr_subqueries<'a>(
    expr: &'a Expr,
    out: &mut Vec<(SubqueryPosition, &'a SelectStatement)>,
) {
    match expr {
        Expr::Exists { query, .. } => out.push((SubqueryPosition::Exists, query)),
        Expr::InSubquery { expr, query, .. } => {
            collect_expr_subqueries(expr, out);
            out.push((SubqueryPosition::In, query));
        }
        Expr::ScalarSubquery(query) => out.push((SubqueryPosition::Scalar, query)),
        Expr::Literal(_) | Expr::Column { .. } => {}
        Expr::Compare { left, right, .. }
        | Expr::Arith { left, right, .. }
        | Expr::Concat { left, right } => {
            collect_expr_subqueries(left, out);
            collect_expr_subqueries(right, out);
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            collect_expr_subqueries(a, out);
            collect_expr_subqueries(b, out);
        }
        Expr::Not(e) | Expr::Neg(e) => collect_expr_subqueries(e, out),
        Expr::Like { expr, pattern, .. } => {
            collect_expr_subqueries(expr, out);
            collect_expr_subqueries(pattern, out);
        }
        Expr::IsNull { expr, .. } => collect_expr_subqueries(expr, out),
        Expr::InList { expr, list, .. } => {
            collect_expr_subqueries(expr, out);
            for e in list {
                collect_expr_subqueries(e, out);
            }
        }
        Expr::Between { expr, low, high, .. } => {
            collect_expr_subqueries(expr, out);
            collect_expr_subqueries(low, out);
            collect_expr_subqueries(high, out);
        }
        Expr::Aggregate { arg, .. } => {
            if let Some(a) = arg {
                collect_expr_subqueries(a, out);
            }
        }
        Expr::Function { args, .. } => {
            for a in args {
                collect_expr_subqueries(a, out);
            }
        }
        Expr::Cast { expr, .. } => collect_expr_subqueries(expr, out),
        Expr::Case { operand, branches, else_branch } => {
            if let Some(e) = operand {
                collect_expr_subqueries(e, out);
            }
            for (w, t) in branches {
                collect_expr_subqueries(w, out);
                collect_expr_subqueries(t, out);
            }
            if let Some(e) = else_branch {
                collect_expr_subqueries(e, out);
            }
        }
    }
}

/// Static preview of where the columnar executor will bridge to the row
/// machinery: walks the plan tree and the statement tail applying the same
/// batch-expressibility analysis ([`is_batch_evaluable`] /
/// [`is_group_batch_evaluable`]) the runtime applies per operator. A
/// statement with no notes executes fully vectorized.
fn columnar_bridges_section(
    db: &Database,
    stmt: &SelectStatement,
    plan: &PhysicalPlan,
) -> SqlResult<String> {
    let mut notes: Vec<String> = Vec::new();
    if let Some(root) = &plan.root {
        collect_node_bridges(db, root, &mut notes)?;
    }
    for pred in &plan.where_remnant {
        if !is_batch_evaluable(pred, &plan.layout) {
            notes.push("post-join WHERE conjunct: row-bridged".into());
        }
    }
    let (headers, proj_exprs) = expand_projections(&stmt.projections, &plan.layout)?;
    if select_is_grouped(stmt) {
        for key in &stmt.group_by {
            if !is_batch_evaluable(key, &plan.layout) {
                notes.push("GROUP BY key: row-bridged".into());
            }
        }
        let mut aggs: Vec<&Expr> = Vec::new();
        for e in proj_exprs.iter().chain(stmt.having.iter()) {
            collect_aggregates(e, &mut aggs);
        }
        for item in &stmt.order_by {
            collect_aggregates(&item.expr, &mut aggs);
        }
        for agg in aggs {
            if let Expr::Aggregate { arg: Some(a), .. } = agg {
                if !is_batch_evaluable(a, &plan.layout) {
                    notes.push("aggregate argument: row-bridged".into());
                }
            }
        }
        if let Some(h) = &stmt.having {
            if !is_group_batch_evaluable(h, &plan.layout) {
                notes.push("HAVING: row-bridged over the group table".into());
            }
        }
        for (header, expr) in headers.iter().zip(&proj_exprs) {
            if !is_group_batch_evaluable(expr, &plan.layout) {
                notes.push(format!("projection `{header}`: row-bridged over the group table"));
            }
        }
        for item in &stmt.order_by {
            let src = order_key_output_column(
                &item.expr,
                proj_exprs.len(),
                &headers,
                &stmt.projections,
                &plan.layout,
            );
            if src.is_none() && !is_group_batch_evaluable(&item.expr, &plan.layout) {
                notes.push("ORDER BY key: row-bridged over the group table".into());
            }
        }
    } else {
        for (header, expr) in headers.iter().zip(&proj_exprs) {
            if !is_batch_evaluable(expr, &plan.layout) {
                notes.push(format!("projection `{header}`: row-bridged"));
            }
        }
        for item in &stmt.order_by {
            let src = order_key_output_column(
                &item.expr,
                proj_exprs.len(),
                &headers,
                &stmt.projections,
                &plan.layout,
            );
            if src.is_none() && !is_batch_evaluable(&item.expr, &plan.layout) {
                notes.push("ORDER BY key: row-bridged".into());
            }
        }
    }
    if notes.is_empty() {
        return Ok("Columnar: fully vectorized (no row bridges)\n".to_string());
    }
    let mut out = String::from("Columnar bridges:\n");
    for note in notes {
        out.push_str("  ");
        out.push_str(&note);
        out.push('\n');
    }
    Ok(out)
}

fn collect_node_bridges(db: &Database, node: &PlanNode, notes: &mut Vec<String>) -> SqlResult<()> {
    match node {
        PlanNode::SeqScan { pushed, .. } | PlanNode::SubqueryScan { pushed, .. } => {
            let layout = node_layout(db, node)?;
            for pred in pushed {
                if !is_batch_evaluable(pred, &layout) {
                    notes.push(format!(
                        "{}: pushed predicate row-bridged",
                        crate::plan::node_label(node)
                    ));
                }
            }
        }
        PlanNode::HashJoin { left, right, on, .. } => {
            collect_node_bridges(db, left, notes)?;
            collect_node_bridges(db, right, notes)?;
            if let Some(pred) = on {
                let layout = node_layout(db, node)?;
                if !is_batch_evaluable(pred, &layout) {
                    notes.push(format!(
                        "{}: ON re-check row-bridged",
                        crate::plan::node_label(node)
                    ));
                }
            }
        }
        PlanNode::NestedLoopJoin { left, right, .. } => {
            collect_node_bridges(db, left, notes)?;
            collect_node_bridges(db, right, notes)?;
            notes.push(format!(
                "{}: row-path join over batched inputs",
                crate::plan::node_label(node)
            ));
        }
    }
    Ok(())
}
