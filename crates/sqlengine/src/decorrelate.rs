//! Decorrelation: rewriting correlated subqueries into hash semi / anti /
//! aggregate ("group") joins.
//!
//! A correlated scalar/`IN`/`EXISTS` subquery is *planned* once per statement
//! (the [`crate::plan::PlanCache`] takes care of that) but, without this
//! module, *executed* once per outer row — quadratic in the outer relation.
//! Classic decorrelation turns that per-row re-execution into a single pass:
//! the subquery's correlation predicate (`inner.k = outer.k`) is stripped,
//! the remaining — now provably uncorrelated — **build side** executes once,
//! a hash table ([`crate::storage::EqKeyMap`]) is built over the inner key,
//! and every outer row becomes an O(1) hash **probe**:
//!
//! * `EXISTS (…)` / `NOT EXISTS (…)` → hash **semi/anti join**: the probe
//!   asks whether any build row matches every correlation key (the `NOT`
//!   stays at the evaluation site, which already negates the emptiness
//!   test).
//! * `expr IN (…)` → hash **semi join with a value column**: the build
//!   additionally carries the subquery's projected value; the probe returns
//!   the matching rows' values so the evaluation site applies its usual
//!   (NULL-correct) `IN` comparison against exactly the rows the correlated
//!   subquery would have produced for that outer row.
//! * correlated scalar aggregates (`SELECT agg(…) … WHERE inner.k = outer.k`)
//!   → hash **group join**: the build carries the correlation keys plus the
//!   aggregate arguments; each probe aggregates its matching rows, and a
//!   [`crate::storage::GroupKeyMap`]-keyed memo makes that aggregation run
//!   once per *distinct* outer key — a lazily materialized pre-aggregated
//!   build side.
//!
//! ## Why the group join aggregates lazily
//!
//! An eagerly pre-grouped build (`GROUP BY inner.k`) would be keyed by
//! [`Value::grouping_eq`] while the correlation predicate compares with
//! [`Value::sql_cmp`] — and `sql_cmp` equality is not transitive (`2 = '2'`
//! and `2 = '2.0'` but `'2' ≠ '2.0'`; NaN compares equal to every number).
//! A probe could therefore match *several* pre-built groups, or miss rows
//! hidden inside a group whose key does not match. Probing raw rows through
//! [`crate::storage::EqKeyMap`] (which implements `sql_cmp` equality
//! exactly, NULL and NaN included) and aggregating the matched set keeps the
//! rewrite bit-for-bit faithful to the per-row reference; memoizing by
//! `grouping_eq` of the *probe* key is sound because grouping-equal non-NaN
//! probe keys have identical `sql_cmp` match sets (NaN probes bypass the
//! memo).
//!
//! ## When the rewrite is refused
//!
//! [`decorrelate`] is deliberately conservative; it returns `None` — leaving
//! the subquery on the per-outer-row cached-plan path — whenever equivalence
//! is not *provable*:
//!
//! * correlation through anything but a top-level equality conjunct
//!   (non-equality comparisons, disjunctions, correlation inside `OR`);
//! * subqueries with `GROUP BY`, `HAVING`, `DISTINCT`, `ORDER BY`, `LIMIT`,
//!   or `OFFSET` (a `LIMIT` inside a correlated subquery is per-outer-row
//!   and cannot move to a shared build);
//! * `IN` subqueries whose projection is not a single aggregate-free
//!   expression, and scalar subqueries whose projection is not
//!   "aggregate-pure" (every column reference inside an aggregate argument);
//! * error-capable expressions (nested subqueries, aggregates, scalar
//!   function calls) anywhere the rewrite would relocate evaluation — in
//!   residual conjuncts (evaluated on every build row instead of only the
//!   rows the stripped correlation equality admits, and never skipped by an
//!   `AND` short-circuit), in an `EXISTS` projection (discarded by the semi
//!   join but evaluated per matched row by the reference), in the `IN` value
//!   column, or in an aggregate argument: a nested subquery can *error* at
//!   evaluation time (multi-row scalar) and a function call can error
//!   (unknown name, wrong arity), so moving or dropping an evaluation site
//!   could change which queries fail. The engine's error-surfacing contract
//!   is plan-dependent in general (see [`crate::plan`]: predicate pushdown
//!   already reorders conjunct evaluation), but the rewrite stays
//!   conservative and refuses the reachable error-capable forms outright;
//! * any shape where the rewritten build side fails
//!   [`crate::plan::is_uncorrelated`] — the same static analysis that
//!   licenses the uncorrelated-subquery result cache doubles as the safety
//!   net here: a correlation the classifier missed (an `ON` clause reading
//!   the outer row, a nested subquery escaping the build's scope, …) makes
//!   the build non-self-contained and vetoes the rewrite.
//!
//! The rewrite itself is purely schema-driven and deterministic, so
//! [`crate::plan::PlanCache`] caches the analysis per subquery and gives the
//! rewritten build statement a query id and plan slot of its own, and
//! [`crate::prepared::SharedPlanCache`] shares both across statements,
//! sessions, and threads exactly like ordinary plans. The nested-loop
//! reference mode never decorrelates, so
//! `tests/engine_conformance.rs` and the decorrelation suite can hold the
//! rewrite to row-identical results on every query.
//!
//! [`Value::grouping_eq`]: crate::value::Value::grouping_eq
//! [`Value::sql_cmp`]: crate::value::Value::sql_cmp

use crate::ast::{AggregateKind, CompareOp, Expr, Projection, SelectStatement};
use crate::plan::{is_uncorrelated, resolve_in, statement_input_layout, ColMeta};
use crate::storage::Database;

/// The expression position a subquery appears in, which determines the
/// decorrelated operator shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubqueryPosition {
    /// `[NOT] EXISTS (subquery)`.
    Exists,
    /// `expr [NOT] IN (subquery)`.
    In,
    /// A scalar subquery in expression position.
    Scalar,
}

/// One aggregate extracted from a scalar subquery's projection.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Aggregate function.
    pub kind: AggregateKind,
    /// `DISTINCT` aggregate.
    pub distinct: bool,
    /// Build-output column holding the evaluated aggregate argument;
    /// `None` for `COUNT(*)`, which counts matched rows directly.
    pub arg_col: Option<usize>,
}

/// How the probe side consumes the build side.
#[derive(Debug, Clone, PartialEq)]
pub enum DecorrelatedKind {
    /// Hash semi join (`EXISTS`; `NOT EXISTS` negates at the eval site):
    /// the probe reports whether any build row matches all correlation keys.
    SemiJoin,
    /// Hash semi join with a value column (`IN`): the probe returns the
    /// matching rows' value column for the eval site's `IN` comparison.
    InSemiJoin,
    /// Hash group join (correlated scalar aggregate): the probe aggregates
    /// the matching rows and evaluates `projection` over the results.
    GroupJoin {
        /// The aggregates of the original projection, in extraction order.
        aggregates: Vec<AggSpec>,
        /// The original scalar projection with each `Aggregate` node
        /// replaced by a synthetic column `#aggN` (resolved against the
        /// computed aggregate values at probe time).
        projection: Expr,
    },
}

/// A correlated subquery rewritten into a hash-join build/probe pair.
///
/// The build statement is provably uncorrelated (checked by
/// [`is_uncorrelated`]); [`crate::plan::PlanCache`] caches its physical plan
/// under the id it assigns the build.
#[derive(Debug, Clone, PartialEq)]
pub struct DecorrelatedSubquery {
    /// Operator shape and (for group joins) the aggregate recipe.
    pub kind: DecorrelatedKind,
    /// The uncorrelated build-side statement, executed once per enclosing
    /// statement execution.
    pub build: Box<SelectStatement>,
    /// Outer-side expressions of the correlation equalities, evaluated
    /// against the outer scope at probe time; parallel to [`Self::key_cols`].
    pub outer_keys: Vec<Expr>,
    /// Build-output columns holding the inner-side correlation keys.
    pub key_cols: Vec<usize>,
    /// Build-output column of the `IN` value ([`DecorrelatedKind::InSemiJoin`]).
    pub value_col: Option<usize>,
}

/// Classification of one side of a candidate correlation equality, relative
/// to the subquery's own FROM/JOIN layout.
enum SideClass {
    /// Every column reference resolves in the subquery's layout.
    Inner,
    /// At least one reference, none resolving locally: reads the outer row.
    Outer,
    /// Constants, mixed references, aggregates, or nested subqueries —
    /// unusable as a correlation key side.
    Neither,
}

fn classify(expr: &Expr, inner: &[ColMeta]) -> SideClass {
    if expr.contains_subquery() || expr.contains_aggregate() {
        return SideClass::Neither;
    }
    let mut refs = Vec::new();
    expr.referenced_columns(&mut refs);
    if refs.is_empty() {
        return SideClass::Neither;
    }
    let resolved = refs
        .iter()
        .filter(|(qual, name)| !resolve_in(inner, qual.as_deref(), name).is_empty())
        .count();
    if resolved == refs.len() {
        SideClass::Inner
    } else if resolved == 0 {
        SideClass::Outer
    } else {
        SideClass::Neither
    }
}

/// Walks a scalar projection, replacing every `Aggregate` node with a
/// synthetic `#aggN` column and recording its spec. Returns `None` when the
/// projection is not aggregate-pure (a column reference or subquery outside
/// an aggregate argument), in which case the probe could not reproduce the
/// reference semantics from aggregate values alone.
fn extract_aggregates(
    expr: &Expr,
    args: &mut Vec<(AggregateKind, bool, Option<Expr>)>,
) -> Option<Expr> {
    let walk = |e: &Expr, args: &mut Vec<_>| extract_aggregates(e, args);
    Some(match expr {
        Expr::Aggregate { kind, distinct, arg } => {
            let idx = args.len();
            args.push((*kind, *distinct, arg.as_deref().cloned()));
            synthetic_agg_column(idx)
        }
        Expr::Literal(v) => Expr::Literal(v.clone()),
        // A bare column outside any aggregate: its value depends on which
        // matching row the reference executor picks as group context.
        Expr::Column { .. } => return None,
        Expr::Compare { op, left, right } => Expr::Compare {
            op: *op,
            left: Box::new(walk(left, args)?),
            right: Box::new(walk(right, args)?),
        },
        Expr::Arith { op, left, right } => Expr::Arith {
            op: *op,
            left: Box::new(walk(left, args)?),
            right: Box::new(walk(right, args)?),
        },
        Expr::Concat { left, right } => {
            Expr::Concat { left: Box::new(walk(left, args)?), right: Box::new(walk(right, args)?) }
        }
        Expr::And(a, b) => Expr::And(Box::new(walk(a, args)?), Box::new(walk(b, args)?)),
        Expr::Or(a, b) => Expr::Or(Box::new(walk(a, args)?), Box::new(walk(b, args)?)),
        Expr::Not(e) => Expr::Not(Box::new(walk(e, args)?)),
        Expr::Neg(e) => Expr::Neg(Box::new(walk(e, args)?)),
        Expr::IsNull { negated, expr } => {
            Expr::IsNull { negated: *negated, expr: Box::new(walk(expr, args)?) }
        }
        Expr::Between { negated, expr, low, high } => Expr::Between {
            negated: *negated,
            expr: Box::new(walk(expr, args)?),
            low: Box::new(walk(low, args)?),
            high: Box::new(walk(high, args)?),
        },
        Expr::Case { operand, branches, else_branch } => Expr::Case {
            operand: match operand {
                Some(o) => Some(Box::new(walk(o, args)?)),
                None => None,
            },
            branches: branches
                .iter()
                .map(|(w, t)| Some((walk(w, args)?, walk(t, args)?)))
                .collect::<Option<Vec<_>>>()?,
            else_branch: match else_branch {
                Some(e) => Some(Box::new(walk(e, args)?)),
                None => None,
            },
        },
        Expr::Cast { expr, target } => {
            Expr::Cast { expr: Box::new(walk(expr, args)?), target: *target }
        }
        Expr::Function { name, args: fargs } => Expr::Function {
            name: name.clone(),
            args: fargs.iter().map(|a| walk(a, args)).collect::<Option<Vec<_>>>()?,
        },
        Expr::Like { negated, expr, pattern } => Expr::Like {
            negated: *negated,
            expr: Box::new(walk(expr, args)?),
            pattern: Box::new(walk(pattern, args)?),
        },
        Expr::InList { negated, expr, list } => Expr::InList {
            negated: *negated,
            expr: Box::new(walk(expr, args)?),
            list: list.iter().map(|e| walk(e, args)).collect::<Option<Vec<_>>>()?,
        },
        // Nested subqueries inside the scalar projection: bail.
        Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_) => return None,
    })
}

/// The synthetic column a probe resolves the `i`-th aggregate result under.
/// The leading `#` keeps it out of any parseable identifier's namespace.
pub(crate) fn synthetic_agg_column(i: usize) -> Expr {
    Expr::Column { table: None, column: synthetic_agg_name(i) }
}

/// Name of the `i`-th synthetic aggregate column.
pub(crate) fn synthetic_agg_name(i: usize) -> String {
    format!("#agg{i}")
}

/// Attempts to rewrite a correlated subquery into a decorrelated build/probe
/// pair. Returns `None` when the shape is not provably rewritable — the
/// caller keeps the per-outer-row cached-plan path, so a refusal costs
/// performance, never correctness.
///
/// The analysis is purely schema-driven (no data access) and deterministic,
/// so its result can be cached per subquery and shared across threads.
pub fn decorrelate(
    db: &Database,
    query: &SelectStatement,
    pos: SubqueryPosition,
) -> Option<DecorrelatedSubquery> {
    // Shape gates shared by every position. LIMIT/OFFSET are per-outer-row
    // and cannot move to a shared build; GROUP BY / HAVING / DISTINCT /
    // ORDER BY change the build's row multiset or evaluation order in ways
    // the probe cannot replay.
    if query.from.is_none()
        || query.limit.is_some()
        || query.offset.is_some()
        || !query.order_by.is_empty()
        || query.distinct
        || !query.group_by.is_empty()
        || query.having.is_some()
    {
        return None;
    }
    let where_clause = query.where_clause.as_ref()?;
    let inner = statement_input_layout(db, query).ok()?;

    // Split the WHERE into correlation equalities (one provably inner side,
    // one provably outer side) and residual conjuncts that stay on the build.
    let mut inner_keys: Vec<Expr> = Vec::new();
    let mut outer_keys: Vec<Expr> = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    for conj in where_clause.split_conjuncts() {
        let mut matched = false;
        if let Expr::Compare { op: CompareOp::Eq, left, right } = conj {
            match (classify(left, &inner), classify(right, &inner)) {
                (SideClass::Inner, SideClass::Outer) => {
                    inner_keys.push((**left).clone());
                    outer_keys.push((**right).clone());
                    matched = true;
                }
                (SideClass::Outer, SideClass::Inner) => {
                    inner_keys.push((**right).clone());
                    outer_keys.push((**left).clone());
                    matched = true;
                }
                _ => {}
            }
        }
        if !matched {
            // A residual conjunct moves to the build's WHERE, where it is
            // evaluated on *every* build row — the reference only evaluates
            // it on rows the (stripped) correlation equality admits, and an
            // `AND` short-circuit can skip it entirely. For total
            // expressions that changes nothing, but a nested subquery can
            // *error* at evaluation time (multi-row scalar), an aggregate
            // in WHERE always errors ("outside GROUP context"), and a
            // scalar function call can error (unknown name, wrong arity) —
            // so relocating any of them could surface an error the
            // reference's short-circuit never reaches.
            if conj.contains_subquery() || conj.contains_aggregate() || conj.contains_function() {
                return None;
            }
            residual.push(conj.clone());
        }
    }
    if inner_keys.is_empty() {
        return None;
    }

    // Assemble the build statement per position.
    let project = |e: Expr| Projection::Expr { expr: e, alias: None };
    let (kind, projections, key_cols, value_col) = match pos {
        SubqueryPosition::Exists => {
            // EXISTS ignores projection *values*, but not every projection
            // can be discarded: an aggregate projection collapses the
            // subquery to a single always-present row (different semantics,
            // not a semi join), and a projected subquery or function call
            // can error when the reference evaluates it per matched row —
            // the semi join would suppress that error by never evaluating
            // the projection.
            if query.projections.iter().any(|p| match p {
                Projection::Expr { expr, .. } => {
                    expr.contains_aggregate()
                        || expr.contains_subquery()
                        || expr.contains_function()
                }
                _ => false,
            }) {
                return None;
            }
            let projections: Vec<Projection> = inner_keys.iter().cloned().map(project).collect();
            let key_cols = (0..inner_keys.len()).collect();
            (DecorrelatedKind::SemiJoin, projections, key_cols, None)
        }
        SubqueryPosition::In => {
            // The IN comparison consumes the first output column; require
            // exactly one aggregate-free expression so the build's value
            // column is the same value the reference would have produced.
            let [Projection::Expr { expr: value, .. }] = query.projections.as_slice() else {
                return None;
            };
            // The value column is evaluated for every build row instead of
            // only the reference's correlation-matched rows, so it must be
            // total: no aggregates (different semantics), and no nested
            // subqueries or function calls (both can error on rows the
            // reference never evaluates).
            if value.contains_aggregate() || value.contains_subquery() || value.contains_function()
            {
                return None;
            }
            let mut projections = vec![project(value.clone())];
            projections.extend(inner_keys.iter().cloned().map(project));
            let key_cols = (1..=inner_keys.len()).collect();
            (DecorrelatedKind::InSemiJoin, projections, key_cols, Some(0))
        }
        SubqueryPosition::Scalar => {
            let [Projection::Expr { expr: scalar, .. }] = query.projections.as_slice() else {
                return None;
            };
            if !scalar.contains_aggregate() {
                // Without an aggregate the subquery is not guaranteed to
                // produce one row per outer key; keep the per-row path (and
                // its more-than-one-row error behaviour).
                return None;
            }
            let mut agg_args: Vec<(AggregateKind, bool, Option<Expr>)> = Vec::new();
            let projection = extract_aggregates(scalar, &mut agg_args)?;
            let mut projections: Vec<Projection> =
                inner_keys.iter().cloned().map(project).collect();
            let mut aggregates = Vec::with_capacity(agg_args.len());
            let mut next_col = inner_keys.len();
            for (kind, distinct, arg) in agg_args {
                let arg_col = match arg {
                    None => {
                        if kind != AggregateKind::Count {
                            // `SUM()` etc. error at evaluation time in the
                            // reference; keep that behaviour per-row.
                            return None;
                        }
                        None
                    }
                    Some(a) => {
                        // Aggregate arguments become build columns evaluated
                        // on every build row; like residual conjuncts, a
                        // nested subquery or function call inside one could
                        // error on rows the reference's matched set never
                        // reaches.
                        if a.contains_subquery() || a.contains_function() {
                            return None;
                        }
                        projections.push(project(a));
                        next_col += 1;
                        Some(next_col - 1)
                    }
                };
                aggregates.push(AggSpec { kind, distinct, arg_col });
            }
            let key_cols = (0..inner_keys.len()).collect();
            (DecorrelatedKind::GroupJoin { aggregates, projection }, projections, key_cols, None)
        }
    };

    let build = Box::new(SelectStatement {
        // A stand-in: the plan cache that stores the rewrite gives the
        // build its own id (see [`crate::plan::PlanCache::rewrite_for`]).
        id: query.id,
        distinct: false,
        projections,
        from: query.from.clone(),
        joins: query.joins.clone(),
        where_clause: residual.into_iter().reduce(|a, b| Expr::And(Box::new(a), Box::new(b))),
        group_by: Vec::new(),
        having: None,
        order_by: Vec::new(),
        limit: None,
        offset: None,
    });

    // Safety net: the rewritten build must be provably self-contained. This
    // catches every correlation channel the conjunct classifier does not
    // model — ON clauses reading the outer row (including via later-joined
    // aliases), nested subqueries escaping the build's scope, unknown
    // tables — and vetoes the rewrite so execution falls back to the
    // per-outer-row reference path.
    if !is_uncorrelated(db, &build) {
        return None;
    }

    Some(DecorrelatedSubquery { kind, build, outer_keys, key_cols, value_col })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::TableRef;
    use crate::parser::parse_select;
    use crate::schema::{ColumnDef, DataType, TableSchema};

    /// True when any table reference in the statement is a derived table —
    /// used to document build-side coverage.
    fn has_derived(stmt: &SelectStatement) -> bool {
        let is_derived = |t: &TableRef| matches!(t, TableRef::Derived { .. });
        stmt.from.as_ref().is_some_and(is_derived)
            || stmt.joins.iter().any(|j| is_derived(&j.table))
    }

    fn db() -> Database {
        let mut db = Database::new("decorr");
        db.create_table(TableSchema::new(
            "account",
            vec![
                ColumnDef::new("account_id", DataType::Integer).primary_key(),
                ColumnDef::new("district_id", DataType::Integer),
            ],
        ))
        .unwrap();
        db.create_table(TableSchema::new(
            "loan",
            vec![
                ColumnDef::new("loan_id", DataType::Integer).primary_key(),
                ColumnDef::new("account_id", DataType::Integer),
                ColumnDef::new("amount", DataType::Real),
            ],
        ))
        .unwrap();
        db
    }

    /// Parses the subquery out of `WHERE EXISTS (..)` / `IN (..)` / a scalar
    /// comparison so tests exercise the real parser shapes.
    fn subquery_of(sql: &str) -> (SelectStatement, SubqueryPosition) {
        let stmt = parse_select(sql).unwrap();
        fn find(e: &Expr) -> Option<(SelectStatement, SubqueryPosition)> {
            match e {
                Expr::Exists { query, .. } => Some(((**query).clone(), SubqueryPosition::Exists)),
                Expr::InSubquery { query, .. } => Some(((**query).clone(), SubqueryPosition::In)),
                Expr::ScalarSubquery(query) => Some(((**query).clone(), SubqueryPosition::Scalar)),
                Expr::Compare { left, right, .. } => find(left).or_else(|| find(right)),
                Expr::And(a, b) | Expr::Or(a, b) => find(a).or_else(|| find(b)),
                Expr::Not(inner) => find(inner),
                _ => None,
            }
        }
        find(stmt.where_clause.as_ref().unwrap()).expect("query contains a subquery")
    }

    fn try_rewrite(sql: &str) -> Option<DecorrelatedSubquery> {
        let d = db();
        let (sub, pos) = subquery_of(sql);
        decorrelate(&d, &sub, pos)
    }

    #[test]
    fn correlated_exists_rewrites_to_semi_join() {
        let rw = try_rewrite(
            "SELECT account_id FROM account WHERE EXISTS \
             (SELECT 1 FROM loan WHERE loan.account_id = account.account_id \
              AND loan.amount > 1000)",
        )
        .expect("rewritable");
        assert_eq!(rw.kind, DecorrelatedKind::SemiJoin);
        assert_eq!(rw.key_cols, vec![0]);
        assert_eq!(rw.outer_keys.len(), 1);
        // The residual conjunct stays on the build side.
        assert!(rw.build.where_clause.is_some());
        assert!(is_uncorrelated(&db(), &rw.build));
    }

    #[test]
    fn correlated_in_rewrites_with_value_column() {
        let rw = try_rewrite(
            "SELECT loan_id FROM loan WHERE account_id IN \
             (SELECT a.account_id FROM account AS a WHERE a.district_id = loan.loan_id)",
        )
        .expect("rewritable");
        assert_eq!(rw.kind, DecorrelatedKind::InSemiJoin);
        assert_eq!(rw.value_col, Some(0));
        assert_eq!(rw.key_cols, vec![1]);
    }

    #[test]
    fn correlated_scalar_aggregate_rewrites_to_group_join() {
        let rw = try_rewrite(
            "SELECT account_id FROM account WHERE account_id > \
             (SELECT AVG(l.amount) FROM loan AS l WHERE l.account_id = account.account_id)",
        )
        .expect("rewritable");
        let DecorrelatedKind::GroupJoin { aggregates, projection } = &rw.kind else {
            panic!("expected group join, got {:?}", rw.kind);
        };
        assert_eq!(aggregates.len(), 1);
        assert_eq!(aggregates[0].kind, AggregateKind::Avg);
        assert_eq!(aggregates[0].arg_col, Some(1), "key col 0, arg col 1");
        assert_eq!(projection, &synthetic_agg_column(0));
    }

    #[test]
    fn compound_aggregate_projection_extracts_every_aggregate() {
        let rw = try_rewrite(
            "SELECT account_id FROM account WHERE account_id > \
             (SELECT MAX(l.amount) - MIN(l.amount) FROM loan AS l \
              WHERE l.account_id = account.account_id)",
        )
        .expect("rewritable");
        let DecorrelatedKind::GroupJoin { aggregates, .. } = &rw.kind else {
            panic!("expected group join");
        };
        assert_eq!(aggregates.len(), 2);
        assert_eq!(aggregates[0].arg_col, Some(1));
        assert_eq!(aggregates[1].arg_col, Some(2));
    }

    #[test]
    fn count_star_needs_no_argument_column() {
        let rw = try_rewrite(
            "SELECT account_id FROM account WHERE 0 < \
             (SELECT COUNT(*) FROM loan WHERE loan.account_id = account.account_id)",
        )
        .expect("rewritable");
        let DecorrelatedKind::GroupJoin { aggregates, .. } = &rw.kind else {
            panic!("expected group join");
        };
        assert_eq!(aggregates[0].arg_col, None);
        assert_eq!(rw.build.projections.len(), 1, "keys only, no argument column");
    }

    #[test]
    fn multi_key_correlation_collects_every_equality() {
        let rw = try_rewrite(
            "SELECT account_id FROM account WHERE EXISTS \
             (SELECT 1 FROM loan WHERE loan.account_id = account.account_id \
              AND loan.loan_id = account.district_id)",
        )
        .expect("rewritable");
        assert_eq!(rw.key_cols, vec![0, 1]);
        assert_eq!(rw.outer_keys.len(), 2);
    }

    #[test]
    fn unrewritable_shapes_are_refused() {
        // Non-equality correlation.
        assert!(try_rewrite(
            "SELECT account_id FROM account WHERE EXISTS \
             (SELECT 1 FROM loan WHERE loan.amount > account.account_id)"
        )
        .is_none());
        // Correlation inside a disjunction.
        assert!(try_rewrite(
            "SELECT account_id FROM account WHERE EXISTS \
             (SELECT 1 FROM loan WHERE loan.account_id = account.account_id OR loan.amount > 5)"
        )
        .is_none());
        // LIMIT inside the subquery.
        assert!(try_rewrite(
            "SELECT account_id FROM account WHERE EXISTS \
             (SELECT 1 FROM loan WHERE loan.account_id = account.account_id LIMIT 1)"
        )
        .is_none());
        // GROUP BY inside the subquery.
        assert!(try_rewrite(
            "SELECT account_id FROM account WHERE EXISTS \
             (SELECT loan.account_id FROM loan \
              WHERE loan.account_id = account.account_id GROUP BY loan.account_id)"
        )
        .is_none());
        // Scalar subquery without an aggregate (not guaranteed single-row).
        assert!(try_rewrite(
            "SELECT account_id FROM account WHERE account_id = \
             (SELECT loan.loan_id FROM loan WHERE loan.account_id = account.account_id)"
        )
        .is_none());
        // Scalar projection that is not aggregate-pure.
        assert!(try_rewrite(
            "SELECT account_id FROM account WHERE account_id > \
             (SELECT COUNT(*) + loan.loan_id FROM loan \
              WHERE loan.account_id = account.account_id)"
        )
        .is_none());
        // No correlation at all (the uncorrelated result cache owns this).
        assert!(try_rewrite(
            "SELECT account_id FROM account WHERE EXISTS \
             (SELECT 1 FROM loan WHERE loan.amount > 1000)"
        )
        .is_none());
    }

    #[test]
    fn outer_alias_shadowed_by_inner_base_name_is_refused() {
        // `loan.account_id` resolves against the inner scan (an aliased
        // table still answers to its base name), so there is no correlation
        // to strip — the classifier must see both sides as inner.
        assert!(try_rewrite(
            "SELECT account_id FROM loan WHERE EXISTS \
             (SELECT 1 FROM loan AS l WHERE l.account_id = loan.account_id)"
        )
        .is_none());
    }

    #[test]
    fn derived_table_builds_are_allowed() {
        let rw = try_rewrite(
            "SELECT account_id FROM account WHERE EXISTS \
             (SELECT 1 FROM (SELECT account_id AS aid FROM loan) AS t \
              WHERE t.aid = account.account_id)",
        )
        .expect("derived-table build is rewritable");
        assert!(has_derived(&rw.build));
        assert!(is_uncorrelated(&db(), &rw.build));
    }

    #[test]
    fn on_clause_reading_the_outer_row_is_vetoed_by_the_safety_net() {
        // The correlation conjunct classifier only inspects WHERE; an ON
        // clause reading the outer row must be caught by `is_uncorrelated`.
        assert!(try_rewrite(
            "SELECT account_id FROM account WHERE EXISTS \
             (SELECT 1 FROM loan INNER JOIN account AS a2 \
              ON a2.district_id = account.account_id \
              WHERE loan.account_id = account.account_id)"
        )
        .is_none());
    }
}
