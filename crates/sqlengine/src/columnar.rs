//! Vectorized execution ([`crate::PlanMode::Columnar`], the production
//! executor): the physical plans of [`crate::plan`], executed over
//! [`DataChunk`] batches instead of one row at a time.
//!
//! ## Design
//!
//! The columnar pipeline executes the planner's [`PlanNode`] tree verbatim
//! and owns the *data movement*: scans produce column arrays, filters
//! refine a [`SelChunk`] selection vector over shared chunks (a conjunction
//! of predicates fuses into one selection; survivors are gathered only at
//! pipeline boundaries or below the
//! [`crate::chunk::SELECTION_COMPACT_DENOM`] selectivity threshold), hash
//! joins build and probe over compacted column slices, and grouping folds
//! batch-computed group ids into typed per-aggregate accumulators
//! (`AggAcc`). Everything the batch layer cannot express (subqueries,
//! outer-scope references, ambiguous columns, nested aggregates, non-equi
//! joins) falls back *per operator* to the row machinery in
//! [`crate::exec`], which the nested-loop oracle runs too — one
//! row-evaluated predicate or projection never demotes the rest of the
//! statement. `columnar_fallbacks` in [`crate::ExecStats`] counts each
//! row-bridged operator, and `columnar_partial` counts statements that mixed
//! batch and row evaluation.
//!
//! Batch kernels are selection-unaware: they evaluate every *physical* row
//! of a chunk, dead rows included, and consumers read only the live ones.
//! That is safe because every batch-expressible kernel's errors are
//! value-independent — [`Value::arith`] is total over the four value
//! classes, scalar-function errors depend only on name and arity, and
//! `cast_value` is infallible — so a dead row can never surface an error
//! a live row would not.
//!
//! ## Scalar operands
//!
//! A kernel operand is an `Operand`: a column with a cell per physical
//! row, or one cell that stands for every row. A literal is borrowed from
//! the statement as a scalar and never expanded into a column. The
//! compare, `LIKE`, `IN`, `BETWEEN`, arithmetic and negation kernels take
//! either form on either side; compare has typed loops for `Int`, `Real`
//! and `Text` columns against a scalar, each `cell_cmp` specialized to its
//! class, and `LIKE` compiles a scalar pattern once per chunk into a
//! [`LikePattern`]. Those kernels over scalars alone return a scalar; the
//! others (`CASE`, functions, `CAST`, concatenation, `AND`/`OR`/`NOT`)
//! read scalars through the same per-row accessors and return columns, so
//! a function over literals still runs once per row and raises its errors
//! exactly where the row path does.
//!
//! The evaluation count does not see the difference: every node a batch
//! pass produces counts `chunk.rows()` evaluations, a literal or a kernel
//! over scalars included. So [`crate::ExecStats`] — and the VES cost built
//! on it — is the same whichever form an operand takes.
//!
//! ## Semantics contract
//!
//! Results must be row-identical, in row order, to the
//! `PlanMode::NestedLoop` oracle, NULL and NaN included. The batch kernels
//! therefore reproduce [`Value::sql_cmp`] / [`Value::arith`] /
//! [`Value::to_truth`] cell for cell — including the deliberate quirks:
//! NaN compares equal to every number (via `cmp_f64`), text that parses
//! as a float (`'nan'` included) compares numerically, and integer
//! comparison goes through `f64` (lossy above 2^53) exactly like the row
//! path. `cell_cmp` is the single batch-side implementation of `sql_cmp`,
//! unit-tested against it over an adversarial value grid.
//!
//! What is *not* preserved: which error surfaces when a statement contains
//! several independent error sites, and the `evaluations` counter (batch
//! kernels count one evaluation per node per row without short-circuiting).
//! Both are sanctioned plan-dependent behavior — see the planner's module
//! docs ([`crate::plan`]).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::*;
use crate::chunk::{chunk_rows, ColumnArray, DataChunk, NullBitmap, SelChunk};
use crate::error::{SqlError, SqlResult};
use crate::exec::{
    agg_over_values, cast_value, order_key_output_column, select_is_grouped, Executor, Rel, Scope,
};
use crate::functions::eval_scalar_function;
use crate::plan::{expand_projections, ColMeta as ColInfo, PlanNode};
use crate::result::ResultSet;
use crate::storage::{EqKeyMap, GroupKeyMap};
use crate::value::{cmp_f64, like_match, ArithOp, CellRef, LikePattern, Truth, Value};

/// A reference-counted immutable batch: scans hand out the table's own
/// chunks without copying, and filters that keep a whole chunk pass the
/// same `Arc` through untouched.
type SharedChunk = Arc<DataChunk>;

/// Flattens the *live* rows of selection-carrying chunks back into row-major
/// form for the nested-loop join bridge.
fn rows_from_live(chunks: &[SelChunk]) -> Vec<Vec<Value>> {
    let mut out = Vec::with_capacity(chunks.iter().map(|c| c.live_rows()).sum());
    for sc in chunks {
        for i in sc.live_iter() {
            out.push(sc.chunk().row(i));
        }
    }
    out
}

/// Gathers rows addressed by *global* indices (into the concatenation of
/// `chunks`, whose running start offsets are `offsets`) into one owned
/// chunk — the multi-chunk form of [`DataChunk::gather`], used by the hash
/// join so the build side never has to be physically concatenated.
fn gather_shared(
    chunks: &[SharedChunk],
    offsets: &[usize],
    width: usize,
    idx: &[usize],
) -> DataChunk {
    let mut builders: Vec<ColumnArray> = vec![ColumnArray::default(); width];
    for &gi in idx {
        let k = offsets.partition_point(|&o| o <= gi) - 1;
        let local = gi - offsets[k];
        for (ci, b) in builders.iter_mut().enumerate() {
            b.push_from(&chunks[k].columns[ci], local);
        }
    }
    DataChunk::new(builders, idx.len())
}

/// [`Value::sql_cmp`], cell-for-cell, without materializing values: `None`
/// when either side is NULL; text/text lexicographic; text that parses as a
/// float (`'nan'` included) compares numerically against numbers, text that
/// does not sorts after them; numbers compare through [`cmp_f64`] with its
/// NaN-equals-everything quirk. Unit-tested against `sql_cmp` below.
#[inline]
pub(crate) fn cell_cmp(a: CellRef<'_>, b: CellRef<'_>) -> Option<std::cmp::Ordering> {
    use std::cmp::Ordering;
    match (a, b) {
        (CellRef::Null, _) | (_, CellRef::Null) => None,
        (CellRef::Text(x), CellRef::Text(y)) => Some(x.cmp(y)),
        (CellRef::Text(x), y) => match x.parse::<f64>() {
            Ok(fx) => y.as_f64().map(|fy| cmp_f64(fx, fy)),
            Err(_) => Some(Ordering::Greater),
        },
        (x, CellRef::Text(y)) => match y.parse::<f64>() {
            Ok(fy) => x.as_f64().map(|fx| cmp_f64(fx, fy)),
            Err(_) => Some(Ordering::Less),
        },
        (x, y) => Some(cmp_f64(x.as_f64().unwrap(), y.as_f64().unwrap())),
    }
}

/// [`Value::render`] over a [`CellRef`], borrowing text.
fn cell_render(c: CellRef<'_>) -> Cow<'_, str> {
    match c {
        CellRef::Null => Cow::Borrowed("NULL"),
        CellRef::Text(s) => Cow::Borrowed(s),
        number => {
            let mut out = String::new();
            number.render_into(&mut out);
            Cow::Owned(out)
        }
    }
}

/// Resolves a column reference against a *single* batch layout: `Some`
/// exactly when the reference binds to one column of this relation. Zero
/// matches (outer references, unknown names) and multiple matches (possibly
/// benign join-key ambiguity, possibly an error — only row values can tell)
/// are both `None`, demoting the expression to the row path, whose
/// `resolve_column` then reproduces the scope-chain / ambiguity semantics.
fn resolve_batch_column(cols: &[ColInfo], table: &Option<String>, column: &str) -> Option<usize> {
    let qual = table.as_ref().map(|t| t.to_ascii_lowercase());
    let mut found = None;
    for (i, c) in cols.iter().enumerate() {
        if !c.name.eq_ignore_ascii_case(column) {
            continue;
        }
        if let Some(q) = &qual {
            if !c.quals.contains(q) {
                continue;
            }
        }
        if found.is_some() {
            return None;
        }
        found = Some(i);
    }
    found
}

/// True when `expr` can be evaluated entirely by batch kernels over this
/// layout: every column reference binds uniquely here (no outer scopes, no
/// ambiguity) and no subquery or aggregate appears. The static twin of
/// [`Executor::try_eval_batch`] — callers pre-check once per expression
/// instead of attempting (and wasting) a batch pass per chunk.
pub(crate) fn is_batch_evaluable(expr: &Expr, cols: &[ColInfo]) -> bool {
    is_batch_evaluable_impl(expr, cols, false)
}

/// [`is_batch_evaluable`] over the finished *group table*, where every
/// collected [`Expr::Aggregate`] node has a precomputed result column the
/// batch evaluator can read (so aggregates count as expressible; their
/// arguments were handled when the columns were built and are not descended
/// into here).
pub(crate) fn is_group_batch_evaluable(expr: &Expr, cols: &[ColInfo]) -> bool {
    is_batch_evaluable_impl(expr, cols, true)
}

fn is_batch_evaluable_impl(expr: &Expr, cols: &[ColInfo], aggs_ok: bool) -> bool {
    match expr {
        Expr::Literal(_) => true,
        Expr::Column { table, column } => resolve_batch_column(cols, table, column).is_some(),
        Expr::Compare { left, right, .. }
        | Expr::Arith { left, right, .. }
        | Expr::Concat { left, right } => {
            is_batch_evaluable_impl(left, cols, aggs_ok)
                && is_batch_evaluable_impl(right, cols, aggs_ok)
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            is_batch_evaluable_impl(a, cols, aggs_ok) && is_batch_evaluable_impl(b, cols, aggs_ok)
        }
        Expr::Not(e) | Expr::Neg(e) => is_batch_evaluable_impl(e, cols, aggs_ok),
        Expr::Like { expr, pattern, .. } => {
            is_batch_evaluable_impl(expr, cols, aggs_ok)
                && is_batch_evaluable_impl(pattern, cols, aggs_ok)
        }
        Expr::IsNull { expr, .. } => is_batch_evaluable_impl(expr, cols, aggs_ok),
        Expr::InList { expr, list, .. } => {
            is_batch_evaluable_impl(expr, cols, aggs_ok)
                && list.iter().all(|e| is_batch_evaluable_impl(e, cols, aggs_ok))
        }
        Expr::Between { expr, low, high, .. } => {
            is_batch_evaluable_impl(expr, cols, aggs_ok)
                && is_batch_evaluable_impl(low, cols, aggs_ok)
                && is_batch_evaluable_impl(high, cols, aggs_ok)
        }
        // Subqueries need the row machinery (scopes, caches, decorrelation).
        Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_) => false,
        // Aggregates are expressible only over the group table, where their
        // result columns are pre-installed.
        Expr::Aggregate { .. } => aggs_ok,
        Expr::Function { args, .. } => {
            args.iter().all(|e| is_batch_evaluable_impl(e, cols, aggs_ok))
        }
        Expr::Cast { expr, .. } => is_batch_evaluable_impl(expr, cols, aggs_ok),
        Expr::Case { operand, branches, else_branch } => {
            operand.as_ref().is_none_or(|e| is_batch_evaluable_impl(e, cols, aggs_ok))
                && branches.iter().all(|(w, t)| {
                    is_batch_evaluable_impl(w, cols, aggs_ok)
                        && is_batch_evaluable_impl(t, cols, aggs_ok)
                })
                && else_branch.as_ref().is_none_or(|e| is_batch_evaluable_impl(e, cols, aggs_ok))
        }
    }
}

/// Collects every [`Expr::Aggregate`] node reachable by grouped evaluation,
/// mirroring [`Expr::contains_aggregate`]'s traversal exactly: descend into
/// `InSubquery`'s comparison expression but never into a subquery's body
/// (nested statements handle their own aggregates), and do *not* descend
/// into an aggregate's argument (a nested aggregate is not batch-computable,
/// which [`is_batch_evaluable`] then reports, demoting the statement to the
/// row path and its error).
pub(crate) fn collect_aggregates<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    match expr {
        Expr::Aggregate { .. } => out.push(expr),
        Expr::Literal(_) | Expr::Column { .. } => {}
        Expr::Compare { left, right, .. }
        | Expr::Arith { left, right, .. }
        | Expr::Concat { left, right } => {
            collect_aggregates(left, out);
            collect_aggregates(right, out);
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            collect_aggregates(a, out);
            collect_aggregates(b, out);
        }
        Expr::Not(e) | Expr::Neg(e) => collect_aggregates(e, out),
        Expr::Like { expr, pattern, .. } => {
            collect_aggregates(expr, out);
            collect_aggregates(pattern, out);
        }
        Expr::IsNull { expr, .. } => collect_aggregates(expr, out),
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            for e in list {
                collect_aggregates(e, out);
            }
        }
        Expr::InSubquery { expr, .. } => collect_aggregates(expr, out),
        Expr::Between { expr, low, high, .. } => {
            collect_aggregates(expr, out);
            collect_aggregates(low, out);
            collect_aggregates(high, out);
        }
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
        Expr::Function { args, .. } => {
            for e in args {
                collect_aggregates(e, out);
            }
        }
        Expr::Cast { expr, .. } => collect_aggregates(expr, out),
        Expr::Case { operand, branches, else_branch } => {
            if let Some(o) = operand {
                collect_aggregates(o, out);
            }
            for (w, t) in branches {
                collect_aggregates(w, out);
                collect_aggregates(t, out);
            }
            if let Some(e) = else_branch {
                collect_aggregates(e, out);
            }
        }
    }
}

/// One operand of a batch kernel: a column with a cell per physical row of
/// the chunk, or one cell standing for every row. A literal evaluates to
/// `Scalar` and is never expanded into a column; so does a compare, `LIKE`,
/// `IN`, `BETWEEN`, arithmetic or negation whose operands are all scalars.
/// Consumers read both forms through the same per-row accessors.
#[derive(Debug)]
pub(crate) enum Operand<'c> {
    Col(Cow<'c, ColumnArray>),
    Scalar(Cow<'c, Value>),
}

impl<'c> Operand<'c> {
    fn col(c: ColumnArray) -> Self {
        Operand::Col(Cow::Owned(c))
    }

    fn scalar(v: Value) -> Self {
        Operand::Scalar(Cow::Owned(v))
    }

    fn is_scalar(&self) -> bool {
        matches!(self, Operand::Scalar(_))
    }

    /// The cell of physical row `i` (a scalar's one cell for every `i`).
    #[inline]
    fn cell(&self, i: usize) -> CellRef<'_> {
        match self {
            Operand::Col(c) => c.cell(i),
            Operand::Scalar(v) => CellRef::from(v.as_ref()),
        }
    }

    fn is_null(&self, i: usize) -> bool {
        matches!(self.cell(i), CellRef::Null)
    }

    fn truth_at(&self, i: usize) -> Truth {
        self.cell(i).truth()
    }

    /// Row `i` as a value, borrowed from a scalar and built for a column.
    fn value_cow(&self, i: usize) -> Cow<'_, Value> {
        match self {
            Operand::Col(c) => Cow::Owned(c.value_at(i)),
            Operand::Scalar(v) => Cow::Borrowed(v.as_ref()),
        }
    }

    fn value_at(&self, i: usize) -> Value {
        self.value_cow(i).into_owned()
    }

    /// Row `i` as an owned value, moved out of an owned column (the caller
    /// must not read row `i` again) and cloned otherwise.
    fn take_at(&mut self, i: usize) -> Value {
        match self {
            Operand::Col(Cow::Owned(c)) => c.take_at(i),
            other => other.value_at(i),
        }
    }

    /// Appends row `i` to `b`.
    fn push_to(&self, b: &mut ColumnArray, i: usize) {
        match self {
            Operand::Col(c) => b.push_from(c, i),
            Operand::Scalar(v) => b.push(v.as_ref().clone()),
        }
    }

    fn into_owned(self) -> Operand<'static> {
        match self {
            Operand::Col(c) => Operand::Col(Cow::Owned(c.into_owned())),
            Operand::Scalar(v) => Operand::Scalar(Cow::Owned(v.into_owned())),
        }
    }
}

/// One evaluated column of a selection-carrying chunk: batch results index
/// *physical* rows, row-bridged results hold one value per *live* row.
enum LiveCol<'c> {
    Batch(Operand<'c>),
    Rows(Vec<Value>),
}

impl LiveCol<'_> {
    /// The cell of the `k`-th live row, physical row `phys`.
    fn cell(&self, k: usize, phys: usize) -> CellRef<'_> {
        match self {
            LiveCol::Batch(o) => o.cell(phys),
            LiveCol::Rows(vals) => CellRef::from(&vals[k]),
        }
    }

    /// The value of the `k`-th live row, physical row `phys`, moved out
    /// where the column owns it: each row may be taken once.
    fn take(&mut self, k: usize, phys: usize) -> Value {
        match self {
            LiveCol::Batch(o) => o.take_at(phys),
            LiveCol::Rows(vals) => std::mem::replace(&mut vals[k], Value::Null),
        }
    }
}

/// Appends the `k`-th live row's expression-sourced ORDER BY key values.
fn take_keys(
    key_vals: &mut [Vec<Value>],
    kcols: &mut [Option<LiveCol<'_>>],
    k: usize,
    phys: usize,
) {
    for (vals, kc) in key_vals.iter_mut().zip(kcols) {
        if let Some(kc) = kc {
            vals.push(kc.take(k, phys));
        }
    }
}

/// Builds a SQL-boolean (`Int` 0/1 with NULL for unknown) column from a
/// per-row truth computation.
fn truth_col(n: usize, mut f: impl FnMut(usize) -> Truth) -> ColumnArray {
    let mut values = vec![0i64; n];
    let mut bits = vec![0u64; n.div_ceil(64)];
    for (i, v) in values.iter_mut().enumerate() {
        match f(i) {
            Truth::True => *v = 1,
            Truth::False => {}
            Truth::Unknown => bits[i / 64] |= 1 << (i % 64),
        }
    }
    ColumnArray::Int { values, nulls: NullBitmap::from_words(bits, n) }
}

/// A per-row truth kernel over operands that may be scalars: one scalar
/// result when every operand is a scalar, else a truth column.
fn truth_operand(
    all_scalar: bool,
    n: usize,
    mut f: impl FnMut(usize) -> Truth,
) -> Operand<'static> {
    if all_scalar {
        Operand::scalar(f(0).to_value())
    } else {
        Operand::col(truth_col(n, f))
    }
}

/// `op` applied to a comparison outcome (`None`: a NULL operand).
#[inline]
fn cmp_truth(op: CompareOp, ord: Option<Ordering>) -> Truth {
    match ord {
        None => Truth::Unknown,
        Some(ord) => Truth::from_bool(match op {
            CompareOp::Eq => ord.is_eq(),
            CompareOp::NotEq => !ord.is_eq(),
            CompareOp::Lt => ord.is_lt(),
            CompareOp::LtEq => ord.is_le(),
            CompareOp::Gt => ord.is_gt(),
            CompareOp::GtEq => ord.is_ge(),
        }),
    }
}

/// Comparison kernel: the batch form of the row path's `Compare` arm. A
/// scalar on the left compares as the column against it with the ordering
/// reversed (`cell_cmp` is antisymmetric).
fn cmp_batch(op: CompareOp, l: &Operand<'_>, r: &Operand<'_>, n: usize) -> Operand<'static> {
    match (l, r) {
        (Operand::Col(a), Operand::Col(b)) => {
            Operand::col(truth_col(n, |i| cmp_truth(op, cell_cmp(a.cell(i), b.cell(i)))))
        }
        (Operand::Col(c), Operand::Scalar(s)) => {
            Operand::col(cmp_col_scalar(c, CellRef::from(s.as_ref()), |o| cmp_truth(op, o)))
        }
        (Operand::Scalar(s), Operand::Col(c)) => {
            Operand::col(cmp_col_scalar(c, CellRef::from(s.as_ref()), |o| {
                cmp_truth(op, o.map(Ordering::reverse))
            }))
        }
        (Operand::Scalar(_), Operand::Scalar(_)) => {
            Operand::scalar(cmp_truth(op, cell_cmp(l.cell(0), r.cell(0))).to_value())
        }
    }
}

/// `truth(cell_cmp(col[i], s))` for every row, in a typed loop per storage
/// class: each loop is `cell_cmp` specialized to its class. Text cells
/// against a numeric scalar, and mixed storage, keep `cell_cmp` per cell.
fn cmp_col_scalar(
    col: &ColumnArray,
    s: CellRef<'_>,
    truth: impl Fn(Option<Ordering>) -> Truth,
) -> ColumnArray {
    let n = col.len();
    match (col, s) {
        (_, CellRef::Null) => truth_col(n, |_| Truth::Unknown),
        (ColumnArray::Int { values, nulls }, _) => {
            cmp_num_scalar(nulls, |i| values[i] as f64, s, truth)
        }
        (ColumnArray::Real { values, nulls }, _) => cmp_num_scalar(nulls, |i| values[i], s, truth),
        (ColumnArray::Text { values, nulls }, CellRef::Text(y)) => truth_col(n, |i| {
            if nulls.is_null(i) {
                Truth::Unknown
            } else {
                truth(Some(values[i].as_str().cmp(y)))
            }
        }),
        _ => truth_col(n, |i| truth(cell_cmp(col.cell(i), s))),
    }
}

/// The numeric loop of [`cmp_col_scalar`]: `x(i)` is row `i`'s number and
/// `s` is not NULL. Against a number, rows compare through [`cmp_f64`].
/// Against text, rows compare numerically when the text parses as a float
/// (`'nan'` included) and sort before it otherwise — decided once for the
/// scalar, not per row.
fn cmp_num_scalar(
    nulls: &NullBitmap,
    x: impl Fn(usize) -> f64,
    s: CellRef<'_>,
    truth: impl Fn(Option<Ordering>) -> Truth,
) -> ColumnArray {
    let rhs = match s {
        CellRef::Text(y) => y.parse::<f64>().map_err(|_| Ordering::Less),
        other => Ok(other.as_f64().expect("NULL scalars are handled by the caller")),
    };
    match rhs {
        Ok(y) => truth_col(nulls.len(), |i| {
            if nulls.is_null(i) {
                Truth::Unknown
            } else {
                truth(Some(cmp_f64(x(i), y)))
            }
        }),
        Err(ord) => {
            let t = truth(Some(ord));
            truth_col(nulls.len(), |i| if nulls.is_null(i) { Truth::Unknown } else { t })
        }
    }
}

/// `LIKE` kernel. A scalar pattern compiles once per chunk; a pattern
/// column compiles per row. Non-text cells match as rendered, like the row
/// path; with a scalar pattern, numbers render into one reused buffer.
fn like_batch(v: &Operand<'_>, p: &Operand<'_>, negated: bool, n: usize) -> Operand<'static> {
    let all_scalar = v.is_scalar() && p.is_scalar();
    match p {
        Operand::Scalar(pv) if !pv.is_null() => {
            let pattern = LikePattern::new(&pv.render());
            let mut rendered = String::new();
            truth_operand(all_scalar, n, |i| {
                let text = match v.cell(i) {
                    CellRef::Null => return Truth::Unknown,
                    CellRef::Text(s) => s,
                    number => {
                        rendered.clear();
                        number.render_into(&mut rendered);
                        rendered.as_str()
                    }
                };
                Truth::from_bool(pattern.matches(text) != negated)
            })
        }
        _ => truth_operand(all_scalar, n, |i| match (v.cell(i), p.cell(i)) {
            (CellRef::Null, _) | (_, CellRef::Null) => Truth::Unknown,
            (a, b) => Truth::from_bool(like_match(&cell_render(b), &cell_render(a)) != negated),
        }),
    }
}

/// The storage class an operand presents to the arithmetic kernel's typed
/// loops: `Some(true)` for integers (a NULL scalar included), `Some(false)`
/// for reals, `None` for text or mixed storage.
fn int_class(o: &Operand<'_>) -> Option<bool> {
    match o {
        Operand::Col(c) => match c.as_ref() {
            ColumnArray::Int { .. } => Some(true),
            ColumnArray::Real { .. } => Some(false),
            _ => None,
        },
        Operand::Scalar(v) => match v.as_ref() {
            Value::Null | Value::Integer(_) => Some(true),
            Value::Real(_) => Some(false),
            Value::Text(_) => None,
        },
    }
}

/// Arithmetic kernel. Typed fast paths reproduce [`Value::arith`] branch for
/// branch: integer/integer stays integral (wrapping, with `/ 0` and `% 0`
/// yielding NULL), any other numeric pairing goes through `f64`, and
/// anything involving text or mixed storage falls to `Value::arith` itself
/// per cell — the authoritative implementation, so coercion semantics can
/// never drift. Two scalars make one scalar.
fn arith_batch(
    op: ArithOp,
    l: &Operand<'_>,
    r: &Operand<'_>,
    n: usize,
) -> SqlResult<Operand<'static>> {
    if let (Operand::Scalar(a), Operand::Scalar(b)) = (l, r) {
        return Ok(Operand::scalar(a.arith(op, b)?));
    }
    match (int_class(l), int_class(r)) {
        (Some(true), Some(true)) => {
            let mut values = Vec::with_capacity(n);
            let mut nulls = NullBitmap::default();
            for i in 0..n {
                let (CellRef::Int(x), CellRef::Int(y)) = (l.cell(i), r.cell(i)) else {
                    values.push(0);
                    nulls.push(true);
                    continue;
                };
                let v = match op {
                    ArithOp::Add => Some(x.wrapping_add(y)),
                    ArithOp::Sub => Some(x.wrapping_sub(y)),
                    ArithOp::Mul => Some(x.wrapping_mul(y)),
                    ArithOp::Div => (y != 0).then(|| x / y),
                    ArithOp::Mod => (y != 0).then(|| x % y),
                };
                match v {
                    Some(v) => {
                        values.push(v);
                        nulls.push(false);
                    }
                    None => {
                        values.push(0);
                        nulls.push(true);
                    }
                }
            }
            Ok(Operand::col(ColumnArray::Int { values, nulls }))
        }
        (Some(_), Some(_)) => {
            let mut values = Vec::with_capacity(n);
            let mut nulls = NullBitmap::default();
            for i in 0..n {
                let (Some(x), Some(y)) = (l.cell(i).as_f64(), r.cell(i).as_f64()) else {
                    values.push(0.0);
                    nulls.push(true);
                    continue;
                };
                let v = match op {
                    ArithOp::Add => Some(x + y),
                    ArithOp::Sub => Some(x - y),
                    ArithOp::Mul => Some(x * y),
                    ArithOp::Div => (y != 0.0).then(|| x / y),
                    ArithOp::Mod => (y != 0.0).then(|| x % y),
                };
                match v {
                    Some(v) => {
                        values.push(v);
                        nulls.push(false);
                    }
                    None => {
                        values.push(0.0);
                        nulls.push(true);
                    }
                }
            }
            Ok(Operand::col(ColumnArray::Real { values, nulls }))
        }
        _ => {
            let mut b = ColumnArray::default();
            for i in 0..n {
                b.push(l.value_cow(i).arith(op, &r.value_cow(i))?);
            }
            Ok(Operand::col(b))
        }
    }
}

/// MIN/MAX fold step by [`Value::total_cmp`], reproducing
/// `Iterator::min_by` / `max_by` tie behavior exactly: MIN keeps the first
/// of ties (replace only on `Greater`), MAX keeps the last (replace on
/// anything but `Greater`) — which is what makes `MIN([NaN, 5]) = NaN` but
/// `MIN([5, NaN]) = 5` under `cmp_f64`'s NaN-equals-everything quirk.
fn minmax_update(slot: &mut Value, new: Value, max: bool) {
    if slot.is_null() {
        *slot = new;
        return;
    }
    let ord = slot.total_cmp(&new);
    let replace = if max { ord != Ordering::Greater } else { ord == Ordering::Greater };
    if replace {
        *slot = new;
    }
}

/// Per-group accumulator state for one aggregate node: tight typed update
/// loops for the COUNT/SUM/AVG/MIN/MAX × `Int`/`Real` storage matrix,
/// null-bitmap-segregated with a no-null fast path, plus coercing loops for
/// text/mixed storage and a value-collecting form for DISTINCT (which must
/// dedup before folding). `finish` reproduces [`agg_over_values`] — SUM's
/// wrapping integer fold, scan-order float summation, and per-group result
/// class included — so the typed paths can never drift from the row path.
enum AggAcc {
    /// COUNT(x): non-NULL rows per group.
    Count { counts: Vec<i64> },
    /// SUM/AVG, mirroring `sum_values`: parallel wrapping-integer and
    /// scan-order float sums, with a per-group "all integers" flag choosing
    /// the result class (and AVG always landing on `Real`).
    Sum { avg: bool, counts: Vec<i64>, isum: Vec<i64>, fsum: Vec<f64>, all_int: Vec<bool> },
    /// MIN/MAX via [`minmax_update`]; `Null` marks a group with no values.
    MinMax { max: bool, best: Vec<Value> },
    /// DISTINCT aggregates collect per-group values and defer to
    /// [`agg_over_values`], whose first-seen dedup picks representatives in
    /// a way no streaming fold can reproduce.
    Distinct { kind: AggregateKind, vals: Vec<Vec<Value>> },
}

impl AggAcc {
    fn new(kind: AggregateKind, distinct: bool, n_groups: usize) -> AggAcc {
        if distinct {
            return AggAcc::Distinct { kind, vals: vec![Vec::new(); n_groups] };
        }
        match kind {
            AggregateKind::Count => AggAcc::Count { counts: vec![0; n_groups] },
            AggregateKind::Sum | AggregateKind::Avg => AggAcc::Sum {
                avg: kind == AggregateKind::Avg,
                counts: vec![0; n_groups],
                isum: vec![0; n_groups],
                // -0.0 is the additive identity std's `Sum for f64` folds
                // from; starting at +0.0 would turn SUM of [-0.0] into +0.0
                // and diverge from the row path's `.sum()`.
                fsum: vec![-0.0; n_groups],
                all_int: vec![true; n_groups],
            },
            AggregateKind::Min => AggAcc::MinMax { max: false, best: vec![Value::Null; n_groups] },
            AggregateKind::Max => AggAcc::MinMax { max: true, best: vec![Value::Null; n_groups] },
        }
    }

    /// Folds one chunk's argument into the per-group state; `gids[i]` is the
    /// group of the chunk's `i`-th row. Chunks arrive in scan order, which
    /// the float sum (non-associative) relies on. A scalar argument takes
    /// the per-cell loops.
    fn update(&mut self, arg: &Operand<'_>, gids: &[u32]) {
        let col = match arg {
            Operand::Col(c) => Some(c.as_ref()),
            Operand::Scalar(_) => None,
        };
        match self {
            AggAcc::Count { counts } => match col {
                Some(
                    ColumnArray::Int { nulls, .. }
                    | ColumnArray::Real { nulls, .. }
                    | ColumnArray::Text { nulls, .. },
                ) if !nulls.any_null() => {
                    for &g in gids {
                        counts[g as usize] += 1;
                    }
                }
                _ => {
                    for (i, &g) in gids.iter().enumerate() {
                        if !arg.is_null(i) {
                            counts[g as usize] += 1;
                        }
                    }
                }
            },
            AggAcc::Sum { counts, isum, fsum, all_int, .. } => match col {
                Some(ColumnArray::Int { values, nulls }) => {
                    if nulls.any_null() {
                        for (i, &g) in gids.iter().enumerate() {
                            if !nulls.is_null(i) {
                                let g = g as usize;
                                counts[g] += 1;
                                isum[g] = isum[g].wrapping_add(values[i]);
                                fsum[g] += values[i] as f64;
                            }
                        }
                    } else {
                        for (i, &g) in gids.iter().enumerate() {
                            let g = g as usize;
                            counts[g] += 1;
                            isum[g] = isum[g].wrapping_add(values[i]);
                            fsum[g] += values[i] as f64;
                        }
                    }
                }
                Some(ColumnArray::Real { values, nulls }) => {
                    if nulls.any_null() {
                        for (i, &g) in gids.iter().enumerate() {
                            if !nulls.is_null(i) {
                                let g = g as usize;
                                counts[g] += 1;
                                fsum[g] += values[i];
                                all_int[g] = false;
                            }
                        }
                    } else {
                        for (i, &g) in gids.iter().enumerate() {
                            let g = g as usize;
                            counts[g] += 1;
                            fsum[g] += values[i];
                            all_int[g] = false;
                        }
                    }
                }
                // Text, mixed storage and scalars coerce per cell, like
                // `sum_values`.
                _ => {
                    for (i, &g) in gids.iter().enumerate() {
                        let v = arg.value_cow(i);
                        if v.is_null() {
                            continue;
                        }
                        let g = g as usize;
                        counts[g] += 1;
                        match v.coerce_numeric() {
                            Value::Integer(x) => {
                                isum[g] = isum[g].wrapping_add(x);
                                fsum[g] += x as f64;
                            }
                            Value::Real(x) => {
                                fsum[g] += x;
                                all_int[g] = false;
                            }
                            // coerce_numeric maps every non-NULL value to a
                            // number.
                            _ => {}
                        }
                    }
                }
            },
            AggAcc::MinMax { max, best } => {
                let mx = *max;
                match col {
                    Some(ColumnArray::Int { values, nulls }) => {
                        for (i, &g) in gids.iter().enumerate() {
                            if !nulls.is_null(i) {
                                minmax_update(&mut best[g as usize], Value::Integer(values[i]), mx);
                            }
                        }
                    }
                    Some(ColumnArray::Real { values, nulls }) => {
                        for (i, &g) in gids.iter().enumerate() {
                            if !nulls.is_null(i) {
                                minmax_update(&mut best[g as usize], Value::Real(values[i]), mx);
                            }
                        }
                    }
                    _ => {
                        for (i, &g) in gids.iter().enumerate() {
                            if !arg.is_null(i) {
                                minmax_update(&mut best[g as usize], arg.value_at(i), mx);
                            }
                        }
                    }
                }
            }
            AggAcc::Distinct { vals, .. } => {
                for (i, &g) in gids.iter().enumerate() {
                    if !arg.is_null(i) {
                        vals[g as usize].push(arg.value_at(i));
                    }
                }
            }
        }
    }

    /// The finished per-group results as one column (one row per group).
    fn finish(self) -> ColumnArray {
        match self {
            AggAcc::Count { counts } => {
                let n = counts.len();
                ColumnArray::Int { values: counts, nulls: NullBitmap::new_valid(n) }
            }
            AggAcc::Sum { avg, counts, isum, fsum, all_int } => {
                let mut b = ColumnArray::default();
                for g in 0..counts.len() {
                    let v = if counts[g] == 0 {
                        Value::Null
                    } else if avg {
                        let total = if all_int[g] { isum[g] as f64 } else { fsum[g] };
                        Value::Real(total / counts[g] as f64)
                    } else if all_int[g] {
                        Value::Integer(isum[g])
                    } else {
                        Value::Real(fsum[g])
                    };
                    b.push(v);
                }
                b
            }
            AggAcc::MinMax { best, .. } => {
                let mut b = ColumnArray::default();
                for v in best {
                    b.push(v);
                }
                b
            }
            AggAcc::Distinct { kind, vals } => {
                let mut b = ColumnArray::default();
                for group_vals in vals {
                    b.push(agg_over_values(kind, true, group_vals));
                }
                b
            }
        }
    }
}

impl<'a> Executor<'a> {
    /// Evaluates `expr` over every row of `chunk` with batch kernels,
    /// returning `None` when the expression needs the row machinery (see
    /// [`is_batch_evaluable`], its static twin). A bare column reference is
    /// *borrowed* from the chunk (`Cow::Borrowed`) — the hottest case,
    /// `SELECT`ed and filtered columns, never copies cell data — and a
    /// literal is borrowed from the statement as an [`Operand::Scalar`]. Each
    /// successfully produced node counts `chunk.rows()` evaluations, scalar
    /// or not; unlike the row path, `AND` / `OR` / `IN` / `CASE` evaluate all
    /// operand columns eagerly — Kleene logic makes that value-identical,
    /// and which *error* surfaces from a multi-error statement is sanctioned
    /// plan-dependent behavior.
    pub(crate) fn try_eval_batch<'c>(
        &mut self,
        expr: &'c Expr,
        chunk: &'c DataChunk,
        cols: &[ColInfo],
    ) -> SqlResult<Option<Operand<'c>>> {
        self.try_eval_batch_agg(expr, chunk, cols, None)
    }

    /// [`Executor::try_eval_batch`] over a *group table*: `aggs` maps
    /// collected [`Expr::Aggregate`] node addresses to their precomputed
    /// per-group result columns, which an `Aggregate` node resolves to by
    /// borrow — the mechanism behind batch-evaluated HAVING, projections,
    /// and ORDER BY keys in [`Executor::columnar_grouped`].
    fn try_eval_batch_agg<'c>(
        &mut self,
        expr: &'c Expr,
        chunk: &'c DataChunk,
        cols: &[ColInfo],
        aggs: Option<&'c HashMap<usize, ColumnArray>>,
    ) -> SqlResult<Option<Operand<'c>>> {
        let n = chunk.rows();
        macro_rules! batch {
            ($e:expr) => {
                match self.try_eval_batch_agg($e, chunk, cols, aggs)? {
                    Some(c) => c,
                    None => return Ok(None),
                }
            };
        }
        let out = match expr {
            Expr::Literal(v) => Operand::Scalar(Cow::Borrowed(v)),
            Expr::Column { table, column } => match resolve_batch_column(cols, table, column) {
                Some(i) => Operand::Col(Cow::Borrowed(&chunk.columns[i])),
                None => return Ok(None),
            },
            Expr::Compare { op, left, right } => {
                let (l, r) = (batch!(left), batch!(right));
                cmp_batch(*op, &l, &r, n)
            }
            Expr::Arith { op, left, right } => {
                let (l, r) = (batch!(left), batch!(right));
                arith_batch(*op, &l, &r, n)?
            }
            Expr::Concat { left, right } => {
                let (l, r) = (batch!(left), batch!(right));
                let mut values = Vec::with_capacity(n);
                let mut nulls = NullBitmap::default();
                for i in 0..n {
                    match (l.cell(i), r.cell(i)) {
                        (CellRef::Null, _) | (_, CellRef::Null) => {
                            values.push(String::new());
                            nulls.push(true);
                        }
                        (a, b) => {
                            values.push(format!("{}{}", cell_render(a), cell_render(b)));
                            nulls.push(false);
                        }
                    }
                }
                Operand::col(ColumnArray::Text { values, nulls })
            }
            Expr::And(a, b) => {
                let (l, r) = (batch!(a), batch!(b));
                Operand::col(truth_col(n, |i| l.truth_at(i).and(r.truth_at(i))))
            }
            Expr::Or(a, b) => {
                let (l, r) = (batch!(a), batch!(b));
                Operand::col(truth_col(n, |i| l.truth_at(i).or(r.truth_at(i))))
            }
            Expr::Not(e) => {
                let c = batch!(e);
                Operand::col(truth_col(n, |i| c.truth_at(i).not()))
            }
            Expr::Neg(e) => match batch!(e) {
                Operand::Scalar(v) => Operand::scalar(v.arith(ArithOp::Mul, &Value::Integer(-1))?),
                Operand::Col(c) => Operand::col(match c.as_ref() {
                    ColumnArray::Int { values, nulls } => ColumnArray::Int {
                        values: values.iter().map(|v| v.wrapping_mul(-1)).collect(),
                        nulls: nulls.clone(),
                    },
                    ColumnArray::Real { values, nulls } => ColumnArray::Real {
                        values: values.iter().map(|v| v * -1.0).collect(),
                        nulls: nulls.clone(),
                    },
                    _ => {
                        let mut b = ColumnArray::default();
                        for i in 0..n {
                            b.push(c.value_at(i).arith(ArithOp::Mul, &Value::Integer(-1))?);
                        }
                        b
                    }
                }),
            },
            Expr::Like { negated, expr, pattern } => {
                let (v, p) = (batch!(expr), batch!(pattern));
                like_batch(&v, &p, *negated, n)
            }
            Expr::IsNull { negated, expr } => {
                let c = batch!(expr);
                Operand::col(truth_col(n, |i| Truth::from_bool(c.is_null(i) != *negated)))
            }
            Expr::InList { negated, expr, list } => {
                let v = batch!(expr);
                let mut items = Vec::with_capacity(list.len());
                for item in list {
                    items.push(batch!(item));
                }
                let all_scalar = v.is_scalar() && items.iter().all(Operand::is_scalar);
                truth_operand(all_scalar, n, |i| {
                    let vc = v.cell(i);
                    if matches!(vc, CellRef::Null) {
                        return Truth::Unknown;
                    }
                    let found = items
                        .iter()
                        .any(|it| matches!(cell_cmp(vc, it.cell(i)), Some(o) if o.is_eq()));
                    Truth::from_bool(found != *negated)
                })
            }
            Expr::Between { negated, expr, low, high } => {
                let (v, lo, hi) = (batch!(expr), batch!(low), batch!(high));
                let all_scalar = v.is_scalar() && lo.is_scalar() && hi.is_scalar();
                truth_operand(all_scalar, n, |i| {
                    let vc = v.cell(i);
                    match (cell_cmp(vc, lo.cell(i)), cell_cmp(vc, hi.cell(i))) {
                        (Some(a), Some(b)) => {
                            Truth::from_bool((a.is_ge() && b.is_le()) != *negated)
                        }
                        _ => Truth::Unknown,
                    }
                })
            }
            Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_) => {
                return Ok(None)
            }
            Expr::Aggregate { .. } => {
                let Some(map) = aggs else { return Ok(None) };
                match map.get(&(expr as *const Expr as usize)) {
                    Some(col) => Operand::Col(Cow::Borrowed(col)),
                    None => return Ok(None),
                }
            }
            Expr::Function { name, args } => {
                let mut arg_cols = Vec::with_capacity(args.len());
                for a in args {
                    arg_cols.push(batch!(a));
                }
                let mut b = ColumnArray::default();
                let mut vals = Vec::with_capacity(args.len());
                for i in 0..n {
                    vals.clear();
                    vals.extend(arg_cols.iter().map(|c| c.value_at(i)));
                    b.push(eval_scalar_function(name, &vals)?);
                }
                Operand::col(b)
            }
            Expr::Cast { expr, target } => {
                let c = batch!(expr);
                let mut b = ColumnArray::default();
                for i in 0..n {
                    b.push(cast_value(&c.value_cow(i), *target));
                }
                Operand::col(b)
            }
            Expr::Case { operand, branches, else_branch } => {
                let op_col = match operand {
                    Some(o) => Some(batch!(o)),
                    None => None,
                };
                let mut branch_cols = Vec::with_capacity(branches.len());
                for (w, t) in branches {
                    branch_cols.push((batch!(w), batch!(t)));
                }
                let else_col = match else_branch {
                    Some(e) => Some(batch!(e)),
                    None => None,
                };
                let mut b = ColumnArray::default();
                for i in 0..n {
                    let hit = branch_cols.iter().find(|(wc, _)| match &op_col {
                        Some(oc) => {
                            matches!(cell_cmp(oc.cell(i), wc.cell(i)), Some(o) if o.is_eq())
                        }
                        None => wc.truth_at(i).is_true(),
                    });
                    match (hit, &else_col) {
                        (Some((_, tc)), _) => tc.push_to(&mut b, i),
                        (None, Some(ec)) => ec.push_to(&mut b, i),
                        (None, None) => b.push_null(),
                    }
                }
                Operand::col(b)
            }
        };
        self.stats.evaluations += n as u64;
        Ok(Some(out))
    }

    /// Applies one predicate to every chunk by *refining its selection
    /// vector* ([`Executor::refine_selection`]) — no rows are moved.
    /// Consecutive predicates refine the same selection — a fused
    /// conjunctive filter. Chunks refined to emptiness are dropped, and
    /// chunks whose selectivity falls below the
    /// [`crate::chunk::SELECTION_COMPACT_DENOM`] threshold are compacted
    /// early so later operators stop paying for dead rows.
    fn filter_chunks(
        &mut self,
        chunks: Vec<SelChunk>,
        cols: &[ColInfo],
        pred: &Expr,
        outer: Option<&Scope<'_>>,
    ) -> SqlResult<Vec<SelChunk>> {
        let batch_ok = self.batch_predicate(pred, cols);
        let mut out = Vec::with_capacity(chunks.len());
        let mut rowbuf: Vec<Value> = Vec::new();
        for mut sc in chunks {
            self.refine_selection(&mut sc, cols, pred, batch_ok, outer, &mut rowbuf)?;
            if sc.live_rows() == 0 {
                continue;
            }
            if sc.should_compact() {
                sc.compact_in_place();
            }
            out.push(sc);
        }
        Ok(out)
    }

    /// The positions of the rows of `chunks` — a table's storage, in order —
    /// that satisfy `pred` (every row without one), ascending. Each chunk's
    /// selection is refined exactly as a scan's filter refines it. The write
    /// planner resolves the `WHERE` of UPDATE and DELETE through this.
    pub(crate) fn matching_rows(
        &mut self,
        chunks: &[SharedChunk],
        cols: &[ColInfo],
        pred: Option<&Expr>,
    ) -> SqlResult<Vec<usize>> {
        let batch_ok = pred.is_some_and(|p| self.batch_predicate(p, cols));
        let mut out = Vec::new();
        let mut rowbuf: Vec<Value> = Vec::new();
        let mut offset = 0;
        for chunk in chunks {
            let mut sc = SelChunk::all(Arc::clone(chunk));
            if let Some(pred) = pred {
                self.refine_selection(&mut sc, cols, pred, batch_ok, None, &mut rowbuf)?;
            }
            out.extend(sc.live_iter().map(|i| offset + i));
            offset += chunk.rows();
        }
        Ok(out)
    }

    /// Whether `pred` runs on batch kernels over `cols`; a predicate that
    /// does not counts once in `columnar_fallbacks`, however many chunks it
    /// then filters row by row.
    fn batch_predicate(&mut self, pred: &Expr, cols: &[ColInfo]) -> bool {
        let batch_ok = is_batch_evaluable(pred, cols);
        if !batch_ok {
            self.stats.columnar_fallbacks += 1;
        }
        batch_ok
    }

    /// Narrows `sc`'s live rows to those satisfying `pred`. A batch-evaluable
    /// predicate (`batch_ok`) evaluates over all physical rows (dead-row
    /// evaluation is safe; see the module docs) and intersects the truth
    /// column with the live set; anything else evaluates row-at-a-time over
    /// the live rows only, reading each into `rowbuf`.
    fn refine_selection(
        &mut self,
        sc: &mut SelChunk,
        cols: &[ColInfo],
        pred: &Expr,
        batch_ok: bool,
        outer: Option<&Scope<'_>>,
        rowbuf: &mut Vec<Value>,
    ) -> SqlResult<()> {
        let chunk = Arc::clone(sc.shared());
        let col = if batch_ok { self.try_eval_batch(pred, &chunk, cols)? } else { None };
        match col {
            // A truth column (every predicate kernel's output) is read as
            // its typed values.
            Some(Operand::Col(c)) => match c.as_ref() {
                ColumnArray::Int { values, nulls } => {
                    sc.refine(|i| values[i] != 0 && !nulls.is_null(i))
                }
                other => sc.refine(|i| other.truth_at(i).is_true()),
            },
            Some(scalar) => sc.refine(|_| scalar.truth_at(0).is_true()),
            None => {
                let mut kept: Vec<u32> = Vec::with_capacity(sc.live_rows());
                for i in sc.live_iter() {
                    chunk.read_row_into(i, rowbuf);
                    let scope = Scope { cols, row: rowbuf, parent: outer };
                    if self.eval(pred, &scope, None)?.to_truth().is_true() {
                        kept.push(i as u32);
                    }
                }
                sc.set_selection(kept);
            }
        }
        Ok(())
    }

    /// Tallies the batches flowing out of an operator in
    /// [`crate::ExecStats`] — a table's shared chunks count on every
    /// execution, so the counters stay per-statement deterministic. Rows are
    /// counted live (operators emit all-live chunks, so this matches the
    /// physical count at every call site).
    fn count_batches(&mut self, chunks: &[SelChunk]) {
        self.stats.batches_built += chunks.len() as u64;
        self.stats.batch_rows += chunks.iter().map(|c| c.live_rows() as u64).sum::<u64>();
    }

    /// Executes one physical operator columnar-natively, counting
    /// `rows_scanned` / `index_lookups` / `hash_*` per operator. Outputs
    /// carry selection vectors: scans emit all-live
    /// chunks, pushed-down filters refine selections, and joins — a
    /// pipeline boundary — compact their inputs before build/probe and emit
    /// all-live chunks again.
    fn exec_plan_node_columnar(
        &mut self,
        node: &PlanNode,
        outer: Option<&Scope<'_>>,
    ) -> SqlResult<(Vec<ColInfo>, Vec<SelChunk>)> {
        if self.profiler.is_none() {
            return self.exec_plan_node_columnar_inner(node, outer);
        }
        // Inclusive timing: children recurse back through this wrapper, and
        // `EXPLAIN ANALYZE` looks entries up by plan-node address.
        let started = std::time::Instant::now();
        let result = self.exec_plan_node_columnar_inner(node, outer);
        let nanos = started.elapsed().as_nanos() as u64;
        let (rows_out, batches) = result
            .as_ref()
            .map(|(_, chunks)| {
                (chunks.iter().map(|c| c.live_rows() as u64).sum::<u64>(), chunks.len() as u64)
            })
            .unwrap_or((0, 0));
        if let Some(p) = self.profiler.as_mut() {
            p.record(
                node as *const PlanNode as usize,
                || crate::plan::node_label(node),
                rows_out,
                batches,
                nanos,
            );
        }
        result
    }

    fn exec_plan_node_columnar_inner(
        &mut self,
        node: &PlanNode,
        outer: Option<&Scope<'_>>,
    ) -> SqlResult<(Vec<ColInfo>, Vec<SelChunk>)> {
        match node {
            PlanNode::SeqScan { table, quals, pushed, lookup } => {
                let t = self.db.table(table)?;
                let cols: Vec<ColInfo> = t
                    .schema
                    .columns
                    .iter()
                    .map(|c| ColInfo { quals: quals.clone(), name: c.name.clone() })
                    .collect();
                // Full scans hand out the table's own chunks (`Arc`-shared,
                // never copied); a PK lookup reads its rows out of them.
                let shared: Vec<SharedChunk> =
                    match lookup.as_ref().and_then(|l| t.pk_lookup(&l.value)) {
                        Some(row_ids) => {
                            self.stats.index_lookups += 1;
                            self.stats.rows_scanned += row_ids.len() as u64;
                            let rows: Vec<Vec<Value>> = row_ids.iter().map(|&i| t.row(i)).collect();
                            chunk_rows(cols.len(), &rows).into_iter().map(Arc::new).collect()
                        }
                        None => {
                            self.stats.rows_scanned += t.len() as u64;
                            t.columnar_chunks().to_vec()
                        }
                    };
                let mut chunks: Vec<SelChunk> = shared.into_iter().map(SelChunk::all).collect();
                self.count_batches(&chunks);
                for pred in pushed {
                    chunks = self.filter_chunks(chunks, &cols, pred, outer)?;
                }
                Ok((cols, chunks))
            }
            PlanNode::SubqueryScan { query, alias, pushed } => {
                // The derived statement recurses through the columnar mode.
                let rs = self.run_select(query, outer)?;
                let quals = vec![alias.to_ascii_lowercase()];
                let cols: Vec<ColInfo> = rs
                    .columns
                    .iter()
                    .map(|c| ColInfo { quals: quals.clone(), name: c.clone() })
                    .collect();
                let mut chunks: Vec<SelChunk> = chunk_rows(cols.len(), &rs.rows)
                    .into_iter()
                    .map(|c| SelChunk::all(Arc::new(c)))
                    .collect();
                self.count_batches(&chunks);
                for pred in pushed {
                    chunks = self.filter_chunks(chunks, &cols, pred, outer)?;
                }
                Ok((cols, chunks))
            }
            PlanNode::HashJoin { left, right, kind, left_key, right_key, on } => {
                let (lcols, lsel) = self.exec_plan_node_columnar(left, outer)?;
                let (rcols, rsel) = self.exec_plan_node_columnar(right, outer)?;
                // Build/probe is a pipeline boundary: gather each input's
                // survivors into dense chunks (all-live inputs pass their
                // `Arc` through untouched).
                let lchunks: Vec<SharedChunk> = lsel.iter().map(SelChunk::compact).collect();
                let rchunks: Vec<SharedChunk> = rsel.iter().map(SelChunk::compact).collect();
                let mut cols = lcols.clone();
                cols.extend(rcols.iter().cloned());
                let (lwidth, rwidth) = (lcols.len(), rcols.len());

                // Build over the right input's key column. Hash entries hold
                // *global* row indices in right-scan order (which the probe
                // order below relies on); the build side itself is never
                // physically concatenated — candidates are gathered straight
                // out of the shared input chunks.
                let mut roffsets = Vec::with_capacity(rchunks.len());
                let mut rtotal = 0usize;
                for c in &rchunks {
                    roffsets.push(rtotal);
                    rtotal += c.rows();
                }
                let mut index = EqKeyMap::default();
                for (ci, rchunk) in rchunks.iter().enumerate() {
                    let key = &rchunk.columns[*right_key];
                    for i in 0..rchunk.rows() {
                        index.insert(&key.value_at(i), roffsets[ci] + i);
                    }
                }
                self.stats.hash_build_rows += rtotal as u64;

                let on_batch = on.as_ref().map(|p| is_batch_evaluable(p, &cols));
                let mut out_chunks: Vec<SelChunk> = Vec::new();
                let mut rowbuf: Vec<Value> = Vec::new();
                for lchunk in &lchunks {
                    // Probe: gather candidate (left, right) pairs — left rows
                    // in chunk order, each row's right matches in build-scan
                    // order, exactly the nested loop's emission order.
                    let lkey = &lchunk.columns[*left_key];
                    let mut cand_l: Vec<usize> = Vec::new();
                    let mut cand_r: Vec<usize> = Vec::new();
                    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(lchunk.rows());
                    for i in 0..lchunk.rows() {
                        self.stats.hash_probes += 1;
                        let start = cand_l.len();
                        for &ri in index.probe(&lkey.value_at(i)).iter() {
                            cand_l.push(i);
                            cand_r.push(ri);
                        }
                        ranges.push((start, cand_l.len()));
                    }
                    // Materialize the candidate chunk: left columns gathered
                    // from this chunk, right columns from the build side.
                    let mut cand_cols = lchunk.gather(&cand_l).columns;
                    cand_cols.extend(gather_shared(&rchunks, &roffsets, rwidth, &cand_r).columns);
                    let cand = DataChunk::new(cand_cols, cand_l.len());
                    // Re-check the full ON predicate per candidate.
                    let keep: Option<Vec<bool>> = match on {
                        None => None,
                        Some(pred) => {
                            let col = if on_batch == Some(true) {
                                self.try_eval_batch(pred, &cand, &cols)?
                            } else {
                                self.stats.columnar_fallbacks += 1;
                                None
                            };
                            Some(match col {
                                Some(c) => {
                                    (0..cand.rows()).map(|i| c.truth_at(i).is_true()).collect()
                                }
                                None => {
                                    let mut v = Vec::with_capacity(cand.rows());
                                    for i in 0..cand.rows() {
                                        cand.read_row_into(i, &mut rowbuf);
                                        let scope =
                                            Scope { cols: &cols, row: &rowbuf, parent: outer };
                                        v.push(self.eval(pred, &scope, None)?.to_truth().is_true());
                                    }
                                    v
                                }
                            })
                        }
                    };
                    let out = match (*kind, &keep) {
                        // Inner join with every candidate kept: the candidate
                        // chunk *is* the output.
                        (JoinKind::Inner, None) => cand,
                        (JoinKind::Inner, Some(k)) => {
                            let kept: Vec<usize> = (0..cand.rows()).filter(|&i| k[i]).collect();
                            cand.gather(&kept)
                        }
                        // Left join: walk left rows in order, padding the
                        // right side with NULLs when nothing survived.
                        (JoinKind::Left, _) => {
                            let mut builders: Vec<ColumnArray> =
                                vec![ColumnArray::default(); cols.len()];
                            let mut rows = 0usize;
                            for (i, &(s, e)) in ranges.iter().enumerate() {
                                let mut matched = false;
                                for p in s..e {
                                    if keep.as_ref().is_none_or(|k| k[p]) {
                                        matched = true;
                                        for (ci, b) in builders.iter_mut().enumerate() {
                                            b.push_from(&cand.columns[ci], p);
                                        }
                                        rows += 1;
                                    }
                                }
                                if !matched {
                                    for (ci, b) in builders.iter_mut().enumerate() {
                                        if ci < lwidth {
                                            b.push_from(&lchunk.columns[ci], i);
                                        } else {
                                            b.push_null();
                                        }
                                    }
                                    rows += 1;
                                }
                            }
                            DataChunk::new(builders, rows)
                        }
                    };
                    if !out.is_empty() {
                        out_chunks.push(SelChunk::all(Arc::new(out)));
                    }
                }
                self.count_batches(&out_chunks);
                Ok((cols, out_chunks))
            }
            PlanNode::NestedLoopJoin { left, right, kind, on } => {
                // Non-equi joins keep the row path's nested loop (and its
                // per-pair accounting) verbatim; only the inputs are batched.
                let (lcols, lchunks) = self.exec_plan_node_columnar(left, outer)?;
                let (rcols, rchunks) = self.exec_plan_node_columnar(right, outer)?;
                self.stats.columnar_fallbacks += 1;
                let l = Rel { cols: lcols, rows: rows_from_live(&lchunks) };
                let r = Rel { cols: rcols, rows: rows_from_live(&rchunks) };
                let join = Join {
                    kind: *kind,
                    table: TableRef::Named { table: String::new(), alias: None },
                    on: on.clone(),
                };
                let rel = self.join(l, r, &join, outer)?;
                let chunks: Vec<SelChunk> = chunk_rows(rel.cols.len(), &rel.rows)
                    .into_iter()
                    .map(|c| SelChunk::all(Arc::new(c)))
                    .collect();
                self.count_batches(&chunks);
                Ok((rel.cols, chunks))
            }
        }
    }

    /// FROM/JOIN/WHERE for the columnar mode: the optimizer's physical plan,
    /// executed over batches, then the WHERE remnant applied conjunct by
    /// conjunct (each conjunct only ever sees the survivors of the previous
    /// one — the same evaluation set as a row-at-a-time short-circuit loop).
    fn columnar_from_where(
        &mut self,
        stmt: &SelectStatement,
        outer: Option<&Scope<'_>>,
    ) -> SqlResult<(Vec<ColInfo>, Vec<SelChunk>)> {
        let plan = self.plans.get_or_plan(self.db, stmt, &mut self.stats)?;
        let (cols, mut chunks) = match &plan.root {
            Some(node) => self.exec_plan_node_columnar(node, outer)?,
            None => (Vec::new(), vec![SelChunk::all(Arc::new(DataChunk::unit(1)))]),
        };
        // Every post-join row counts as scanned when the remnant applies,
        // as the oracle counts every row its WHERE filters.
        self.stats.rows_scanned += chunks.iter().map(|c| c.live_rows() as u64).sum::<u64>();
        for pred in &plan.where_remnant {
            chunks = self.filter_chunks(chunks, &cols, pred, outer)?;
        }
        Ok((cols, chunks))
    }

    /// Entry point for [`crate::plan::PlanMode::Columnar`] statements: runs
    /// FROM/JOIN/WHERE over batches, then the vectorized grouped or
    /// ungrouped tail. Both tails are total — inexpressible expressions
    /// bridge to the row machinery per *operator* inside them — so the
    /// statement as a whole never demotes. A statement whose execution
    /// raised `columnar_fallbacks` anywhere (nested statements included)
    /// counts once in `columnar_partial`: it mixed batch and row evaluation.
    pub(crate) fn run_select_columnar(
        &mut self,
        stmt: &SelectStatement,
        outer: Option<&Scope<'_>>,
    ) -> SqlResult<ResultSet> {
        let fallbacks_before = self.stats.columnar_fallbacks;
        let result = self.run_select_columnar_inner(stmt, outer);
        if self.stats.columnar_fallbacks > fallbacks_before {
            self.stats.columnar_partial += 1;
        }
        result
    }

    fn run_select_columnar_inner(
        &mut self,
        stmt: &SelectStatement,
        outer: Option<&Scope<'_>>,
    ) -> SqlResult<ResultSet> {
        let (cols, chunks) = self.columnar_from_where(stmt, outer)?;
        if select_is_grouped(stmt) {
            // Grouping is a pipeline boundary: gather the filter survivors
            // into dense chunks so group ids index physical rows directly.
            let dense: Vec<SharedChunk> = chunks.iter().map(SelChunk::compact).collect();
            self.columnar_grouped(stmt, &cols, &dense, outer)
        } else {
            self.columnar_ungrouped(stmt, &cols, &chunks, outer)
        }
    }

    /// Vectorized projection / DISTINCT / ORDER BY / LIMIT for ungrouped
    /// statements, consuming selection vectors at the output boundary: batch
    /// kernels evaluate all physical rows and only live rows are assembled
    /// into output. Projections or ORDER BY keys the batch layer cannot
    /// express (subqueries, outer references) bridge to the row machinery
    /// per *expression*, evaluated over live rows only — one row-path
    /// projection no longer forfeits batch evaluation of its neighbors.
    ///
    /// DISTINCT probes a [`GroupKeyMap`] with the projected cells in place,
    /// so a duplicate row is never materialized and the map's keys are the
    /// output. Without ORDER BY, rows past `OFFSET + LIMIT` can never be
    /// observed: once that many are kept, later rows are neither
    /// materialized nor hashed. Every chunk's projections are still
    /// evaluated, so `evaluations` and any row-bridged error are those of a
    /// full pass.
    fn columnar_ungrouped(
        &mut self,
        stmt: &SelectStatement,
        cols: &[ColInfo],
        chunks: &[SelChunk],
        outer: Option<&Scope<'_>>,
    ) -> SqlResult<ResultSet> {
        let (headers, proj_exprs) = expand_projections(&stmt.projections, cols)?;
        // ORDER BY keys naming output columns (ordinals, aliases) read the
        // projected row; everything else evaluates over the input relation.
        let order_srcs: Vec<Option<usize>> = stmt
            .order_by
            .iter()
            .map(|item| {
                order_key_output_column(
                    &item.expr,
                    proj_exprs.len(),
                    &headers,
                    &stmt.projections,
                    cols,
                )
            })
            .collect();
        let mut proj_batch = Vec::with_capacity(proj_exprs.len());
        for e in &proj_exprs {
            let ok = is_batch_evaluable(e, cols);
            if !ok {
                self.stats.columnar_fallbacks += 1;
            }
            proj_batch.push(ok);
        }
        let mut order_batch = Vec::with_capacity(stmt.order_by.len());
        for (item, src) in stmt.order_by.iter().zip(&order_srcs) {
            let ok = src.is_some() || is_batch_evaluable(&item.expr, cols);
            if !ok {
                self.stats.columnar_fallbacks += 1;
            }
            order_batch.push(ok);
        }
        let keep_at_most = match (stmt.order_by.is_empty(), stmt.limit) {
            (true, Some(limit)) => {
                let end = stmt.offset.unwrap_or(0).saturating_add(limit);
                usize::try_from(end).unwrap_or(usize::MAX)
            }
            _ => usize::MAX,
        };

        let n_order = stmt.order_by.len();
        let mut out_rows: Vec<Vec<Value>> = Vec::new();
        let mut seen = GroupKeyMap::default();
        // Sort-key values for expression-sourced ORDER BY items, one per
        // kept row.
        let mut key_vals: Vec<Vec<Value>> = vec![Vec::new(); n_order];
        for sc in chunks {
            if sc.live_rows() == 0 {
                continue;
            }
            let mut pcols: Vec<LiveCol<'_>> = Vec::with_capacity(proj_exprs.len());
            for (e, ok) in proj_exprs.iter().zip(&proj_batch) {
                pcols.push(self.eval_live_col(e, *ok, sc, cols, outer)?);
            }
            let mut kcols: Vec<Option<LiveCol<'_>>> = Vec::with_capacity(n_order);
            for (k, item) in stmt.order_by.iter().enumerate() {
                kcols.push(match order_srcs[k] {
                    Some(_) => None,
                    None => {
                        Some(self.eval_live_col(&item.expr, order_batch[k], sc, cols, outer)?)
                    }
                });
            }
            let live = sc.live_rows();
            if stmt.distinct {
                let mut cells: Vec<CellRef<'_>> = Vec::with_capacity(pcols.len());
                for k in 0..live {
                    if seen.len() >= keep_at_most {
                        break;
                    }
                    let phys = sc.live(k);
                    cells.clear();
                    cells.extend(pcols.iter().map(|c| c.cell(k, phys)));
                    if seen.get_or_insert_cells(&cells).1 {
                        take_keys(&mut key_vals, &mut kcols, k, phys);
                    }
                }
            } else {
                for k in 0..live.min(keep_at_most.saturating_sub(out_rows.len())) {
                    let phys = sc.live(k);
                    out_rows.push(pcols.iter_mut().map(|c| c.take(k, phys)).collect());
                    take_keys(&mut key_vals, &mut kcols, k, phys);
                }
            }
        }
        if stmt.distinct {
            out_rows = seen.into_keys();
        }

        if !stmt.order_by.is_empty() {
            let sort_keys: Vec<Vec<(Value, bool)>> = (0..out_rows.len())
                .map(|i| {
                    stmt.order_by
                        .iter()
                        .enumerate()
                        .map(|(k, item)| {
                            let v = match order_srcs[k] {
                                Some(p) => out_rows[i][p].clone(),
                                None => std::mem::replace(&mut key_vals[k][i], Value::Null),
                            };
                            (v, item.descending)
                        })
                        .collect()
                })
                .collect();
            sort_rows_by_keys(&mut out_rows, &sort_keys);
        }

        apply_limit_offset(stmt, &mut out_rows);
        Ok(ResultSet { columns: headers, rows: out_rows })
    }

    /// Evaluates one projection or ORDER BY key over a chunk: batch kernels
    /// over every physical row when `batch_ok`, else the row machinery over
    /// the live rows only.
    fn eval_live_col<'c>(
        &mut self,
        expr: &'c Expr,
        batch_ok: bool,
        sc: &'c SelChunk,
        cols: &[ColInfo],
        outer: Option<&Scope<'_>>,
    ) -> SqlResult<LiveCol<'c>> {
        let chunk = sc.chunk();
        if batch_ok {
            if let Some(op) = self.try_eval_batch(expr, chunk, cols)? {
                return Ok(LiveCol::Batch(op));
            }
        }
        let mut vals = Vec::with_capacity(sc.live_rows());
        let mut rowbuf: Vec<Value> = Vec::new();
        for i in sc.live_iter() {
            chunk.read_row_into(i, &mut rowbuf);
            let scope = Scope { cols, row: &rowbuf, parent: outer };
            vals.push(self.eval(expr, &scope, None)?);
        }
        Ok(LiveCol::Rows(vals))
    }

    /// Vectorized grouped pipeline, in five batch passes over dense
    /// (boundary-compacted) chunks: (1) group ids — one batch evaluation per
    /// key expression per chunk, folded through [`GroupKeyMap`] into a
    /// per-row `gids` array (first-seen group order, scan-order membership,
    /// identical to the row path); (2) aggregate columns — each node's
    /// argument is batch-evaluated per chunk and folded into a typed
    /// [`AggAcc`] accumulator, yielding one result column with a row per
    /// group; (3) a *group table*: one representative (first-member) row
    /// per group; (4) HAVING, projections, and ORDER BY expression keys
    /// batch-evaluated over the group table with the aggregate columns
    /// patched in ([`Executor::try_eval_batch_agg`]); (5) DISTINCT / sort /
    /// LIMIT over the finished rows. Every pass bridges to the row
    /// machinery per expression when the batch layer cannot express it
    /// ([`Executor::eval_rows_to_column`], [`Executor::eval_group_column`]),
    /// so the pipeline is total — nothing demotes the whole statement.
    fn columnar_grouped(
        &mut self,
        stmt: &SelectStatement,
        cols: &[ColInfo],
        chunks: &[SharedChunk],
        outer: Option<&Scope<'_>>,
    ) -> SqlResult<ResultSet> {
        let (headers, proj_exprs) = expand_projections(&stmt.projections, cols)?;
        let mut agg_nodes: Vec<&Expr> = Vec::new();
        for e in &proj_exprs {
            collect_aggregates(e, &mut agg_nodes);
        }
        if let Some(h) = &stmt.having {
            collect_aggregates(h, &mut agg_nodes);
        }
        for item in &stmt.order_by {
            collect_aggregates(&item.expr, &mut agg_nodes);
        }

        // Chunk start offsets for global row addressing.
        let mut offsets = Vec::with_capacity(chunks.len());
        let mut total = 0usize;
        for c in chunks {
            offsets.push(total);
            total += c.rows();
        }

        // --- Pass 1: group ids. `gids[global_row] = group`, plus each
        // group's size and first member for COUNT(*) and the group table.
        let mut gids: Vec<u32> = Vec::with_capacity(total);
        let mut group_sizes: Vec<i64> = Vec::new();
        let mut group_first: Vec<usize> = Vec::new();
        if stmt.group_by.is_empty() {
            // One global group — present (possibly empty) even over zero
            // input rows, like the row path's implicit group.
            gids.resize(total, 0);
            group_sizes.push(total as i64);
            group_first.push(0);
        } else {
            let mut key_batch = Vec::with_capacity(stmt.group_by.len());
            for g in &stmt.group_by {
                let ok = is_batch_evaluable(g, cols);
                if !ok {
                    self.stats.columnar_fallbacks += 1;
                }
                key_batch.push(ok);
            }
            let mut map = GroupKeyMap::default();
            for (ci, chunk) in chunks.iter().enumerate() {
                let mut key_cols: Vec<Operand<'_>> = Vec::with_capacity(stmt.group_by.len());
                for (g, ok) in stmt.group_by.iter().zip(&key_batch) {
                    let col = if *ok { self.try_eval_batch(g, chunk, cols)? } else { None };
                    match col {
                        Some(c) => key_cols.push(c),
                        None => key_cols
                            .push(Operand::col(self.eval_rows_to_column(g, chunk, cols, outer)?)),
                    }
                }
                let mut key: Vec<CellRef<'_>> = Vec::with_capacity(key_cols.len());
                for i in 0..chunk.rows() {
                    key.clear();
                    key.extend(key_cols.iter().map(|c| c.cell(i)));
                    let (gid, new) = map.get_or_insert_cells(&key);
                    if new {
                        group_sizes.push(0);
                        group_first.push(offsets[ci] + i);
                    }
                    group_sizes[gid] += 1;
                    gids.push(gid as u32);
                }
            }
        }
        let n_groups = group_sizes.len();

        // --- Pass 2: one result column per aggregate node, keyed by node
        // address for [`Executor::try_eval_batch_agg`] and the row-bridge
        // overrides.
        let mut agg_results: HashMap<usize, ColumnArray> = HashMap::with_capacity(agg_nodes.len());
        for node in &agg_nodes {
            let addr = *node as *const Expr as usize;
            if agg_results.contains_key(&addr) {
                continue;
            }
            let Expr::Aggregate { kind, distinct, arg } = *node else {
                unreachable!("collect_aggregates only yields Aggregate nodes")
            };
            let col = match arg.as_deref() {
                // COUNT(*): every group row counts, NULLs included.
                None => match kind {
                    AggregateKind::Count => ColumnArray::Int {
                        values: group_sizes.clone(),
                        nulls: NullBitmap::new_valid(n_groups),
                    },
                    other => {
                        // The row path raises this per group, so zero groups
                        // produce an empty result instead of an error.
                        if n_groups > 0 {
                            return Err(SqlError::Execution(format!(
                                "{} requires an argument",
                                other.name()
                            )));
                        }
                        ColumnArray::Int { values: Vec::new(), nulls: NullBitmap::default() }
                    }
                },
                Some(e) => {
                    let arg_ok = is_batch_evaluable(e, cols);
                    if !arg_ok {
                        self.stats.columnar_fallbacks += 1;
                    }
                    let mut acc = AggAcc::new(*kind, *distinct, n_groups);
                    for (ci, chunk) in chunks.iter().enumerate() {
                        let col = if arg_ok { self.try_eval_batch(e, chunk, cols)? } else { None };
                        let col = match col {
                            Some(c) => c,
                            None => Operand::col(self.eval_rows_to_column(e, chunk, cols, outer)?),
                        };
                        acc.update(&col, &gids[offsets[ci]..offsets[ci] + chunk.rows()]);
                    }
                    acc.finish()
                }
            };
            agg_results.insert(addr, col);
        }

        // --- Pass 3: the group table — one representative (first-member)
        // row per group, over which per-group expressions batch-evaluate.
        let mut builders: Vec<ColumnArray> = vec![ColumnArray::default(); cols.len()];
        for g in 0..n_groups {
            if group_sizes[g] == 0 {
                // The empty global group of a zero-row ungrouped aggregate:
                // bare columns read as NULL, like the row path's null row.
                for b in &mut builders {
                    b.push_null();
                }
                continue;
            }
            let gi = group_first[g];
            let k = offsets.partition_point(|&o| o <= gi) - 1;
            for (ci, b) in builders.iter_mut().enumerate() {
                b.push_from(&chunks[k].columns[ci], gi - offsets[k]);
            }
        }
        let rep = DataChunk::new(builders, n_groups);

        // --- Pass 4: HAVING, then projections, over the group table.
        // HAVING evaluates every group (as the row path does); projections
        // and ORDER BY keys row-bridge only for surviving groups, so a
        // correlated subquery in the projection never runs for a group
        // HAVING already rejected.
        let mut keep = vec![true; n_groups];
        if let Some(h) = &stmt.having {
            let hcol = self.eval_group_column(h, &rep, cols, &agg_results, None, outer)?;
            for (g, k) in keep.iter_mut().enumerate() {
                *k = hcol.truth_at(g).is_true();
            }
        }
        let mut pcols: Vec<Operand<'static>> = Vec::with_capacity(proj_exprs.len());
        for e in &proj_exprs {
            pcols.push(self.eval_group_column(e, &rep, cols, &agg_results, Some(&keep), outer)?);
        }

        // --- Pass 5: DISTINCT / ORDER BY / LIMIT. DISTINCT probes the
        // projected cells in place, so only first-seen groups become rows.
        let mut kept_gs: Vec<usize> = (0..n_groups).filter(|&g| keep[g]).collect();
        if stmt.distinct {
            let mut seen = GroupKeyMap::default();
            let mut cells: Vec<CellRef<'_>> = Vec::with_capacity(pcols.len());
            kept_gs.retain(|&g| {
                cells.clear();
                cells.extend(pcols.iter().map(|c| c.cell(g)));
                seen.get_or_insert_cells(&cells).1
            });
        }
        let mut out_rows: Vec<Vec<Value>> =
            kept_gs.iter().map(|&g| pcols.iter_mut().map(|c| c.take_at(g)).collect()).collect();

        if !stmt.order_by.is_empty() {
            let order_srcs: Vec<Option<usize>> = stmt
                .order_by
                .iter()
                .map(|item| {
                    order_key_output_column(
                        &item.expr,
                        proj_exprs.len(),
                        &headers,
                        &stmt.projections,
                        cols,
                    )
                })
                .collect();
            // Expression keys evaluate over the group table for the final
            // (HAVING- and DISTINCT-surviving) groups only.
            let mut final_keep = vec![false; n_groups];
            for &g in &kept_gs {
                final_keep[g] = true;
            }
            let mut key_cols: Vec<Option<Operand<'static>>> =
                Vec::with_capacity(stmt.order_by.len());
            for (item, src) in stmt.order_by.iter().zip(&order_srcs) {
                key_cols.push(match src {
                    Some(_) => None,
                    None => Some(self.eval_group_column(
                        &item.expr,
                        &rep,
                        cols,
                        &agg_results,
                        Some(&final_keep),
                        outer,
                    )?),
                });
            }
            let mut sort_keys: Vec<Vec<(Value, bool)>> = Vec::with_capacity(out_rows.len());
            for (i, &g) in kept_gs.iter().enumerate() {
                let keys: Vec<(Value, bool)> = stmt
                    .order_by
                    .iter()
                    .enumerate()
                    .map(|(k, item)| {
                        let v = match order_srcs[k] {
                            Some(p) => out_rows[i][p].clone(),
                            None => key_cols[k].as_mut().expect("expression key column").take_at(g),
                        };
                        (v, item.descending)
                    })
                    .collect();
                sort_keys.push(keys);
            }
            sort_rows_by_keys(&mut out_rows, &sort_keys);
        }

        apply_limit_offset(stmt, &mut out_rows);
        Ok(ResultSet { columns: headers, rows: out_rows })
    }

    /// Evaluates one row-bridged expression over every row of a dense chunk
    /// through the ordinary row machinery — the per-operator fallback for
    /// group keys and aggregate arguments the batch layer cannot express.
    fn eval_rows_to_column(
        &mut self,
        expr: &Expr,
        chunk: &DataChunk,
        cols: &[ColInfo],
        outer: Option<&Scope<'_>>,
    ) -> SqlResult<ColumnArray> {
        let mut b = ColumnArray::default();
        let mut rowbuf: Vec<Value> = Vec::new();
        for i in 0..chunk.rows() {
            chunk.read_row_into(i, &mut rowbuf);
            let scope = Scope { cols, row: &rowbuf, parent: outer };
            b.push(self.eval(expr, &scope, None)?);
        }
        Ok(b)
    }

    /// Evaluates one per-group expression (HAVING, a projection, an ORDER BY
    /// key) over the group table: batch-evaluated with the aggregate result
    /// columns patched in when expressible, otherwise row-bridged per group
    /// with the group's aggregate values installed in `agg_overrides`
    /// (counted in `columnar_fallbacks`). `keep` masks groups whose value
    /// can never be observed (HAVING-rejected): the row bridge skips them —
    /// a correlated subquery must not run for a rejected group — while the
    /// batch path evaluates all groups, which is safe because batch-kernel
    /// errors are value-independent (see the module docs).
    fn eval_group_column(
        &mut self,
        expr: &Expr,
        rep: &DataChunk,
        cols: &[ColInfo],
        aggs: &HashMap<usize, ColumnArray>,
        keep: Option<&[bool]>,
        outer: Option<&Scope<'_>>,
    ) -> SqlResult<Operand<'static>> {
        if is_group_batch_evaluable(expr, cols) {
            if let Some(c) = self.try_eval_batch_agg(expr, rep, cols, Some(aggs))? {
                return Ok(c.into_owned());
            }
        }
        self.stats.columnar_fallbacks += 1;
        let mut b = ColumnArray::default();
        let mut rowbuf: Vec<Value> = Vec::new();
        for g in 0..rep.rows() {
            if keep.is_some_and(|k| !k[g]) {
                b.push_null();
                continue;
            }
            rep.read_row_into(g, &mut rowbuf);
            let mut ov: HashMap<usize, Value> = HashMap::with_capacity(aggs.len());
            for (&addr, col) in aggs {
                ov.insert(addr, col.value_at(g));
            }
            let scope = Scope { cols, row: &rowbuf, parent: outer };
            let saved = self.agg_overrides.replace(ov);
            let r = self.eval(expr, &scope, None);
            self.agg_overrides = saved;
            b.push(r?);
        }
        Ok(Operand::col(b))
    }
}

/// Stable permutation sort by per-row key vectors with [`Value::total_cmp`]
/// and per-key descending flags — identical to the row tail's ORDER BY.
fn sort_rows_by_keys(out_rows: &mut Vec<Vec<Value>>, sort_keys: &[Vec<(Value, bool)>]) {
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
    *out_rows = order.into_iter().map(|i| std::mem::take(&mut out_rows[i])).collect();
}

/// OFFSET then LIMIT, identical to the row tail.
fn apply_limit_offset(stmt: &SelectStatement, out_rows: &mut Vec<Vec<Value>>) {
    let offset = stmt.offset.unwrap_or(0) as usize;
    if offset > 0 {
        out_rows.drain(..offset.min(out_rows.len()));
    }
    if let Some(limit) = stmt.limit {
        out_rows.truncate(limit as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An adversarial value grid covering every cross-class comparison quirk:
    /// NULL, zeros of both classes, negative zero, NaN, values beyond 2^53
    /// (where the f64 comparison path is lossy), numeric text, `'nan'` text
    /// (which parses as a float!), and plain text.
    fn grid() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Integer(0),
            Value::Integer(2),
            Value::Integer(-3),
            Value::Integer(i64::MAX),
            Value::Integer(i64::MAX - 1),
            Value::Real(0.0),
            Value::Real(-0.0),
            Value::Real(2.0),
            Value::Real(2.5),
            Value::Real(f64::NAN),
            Value::Real(-f64::NAN),
            Value::Real(1e300),
            Value::text(""),
            Value::text("0"),
            Value::text("2"),
            Value::text("2.5"),
            Value::text("nan"),
            Value::text("-inf"),
            Value::text("abc"),
            Value::text(" 2"),
        ]
    }

    /// One-value column preserving the value's storage class, so `cell`
    /// is exercised through real column storage.
    fn single(v: &Value) -> ColumnArray {
        ColumnArray::from_values(std::slice::from_ref(v))
    }

    #[test]
    fn cell_cmp_matches_sql_cmp_over_adversarial_grid() {
        let vals = grid();
        for a in &vals {
            for b in &vals {
                let ca = single(a);
                let cb = single(b);
                assert_eq!(
                    cell_cmp(ca.cell(0), cb.cell(0)),
                    a.sql_cmp(b),
                    "cell_cmp({a:?}, {b:?})"
                );
            }
        }
    }

    #[test]
    fn cell_cmp_matches_sql_cmp_through_mixed_storage() {
        // Force Mixed storage by building one class-conflicting column, then
        // compare every pair through it: CellRef must behave identically
        // whether it came from typed or Mixed storage.
        let vals = grid();
        let mixed = ColumnArray::from_values(&vals);
        assert!(matches!(mixed, ColumnArray::Mixed { .. }));
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                assert_eq!(
                    cell_cmp(mixed.cell(i), mixed.cell(j)),
                    a.sql_cmp(b),
                    "mixed cell_cmp({a:?}, {b:?})"
                );
            }
        }
    }

    #[test]
    fn cell_truth_and_render_match_value_semantics() {
        for v in grid() {
            let col = single(&v);
            assert_eq!(col.cell(0).truth(), v.to_truth(), "truth of {v:?}");
            assert_eq!(cell_render(col.cell(0)), v.render(), "render of {v:?}");
        }
    }

    /// Every (left, right) pairing of the grid, as two gathered columns.
    fn grid_pairs() -> (Vec<Value>, Vec<usize>, Vec<usize>, ColumnArray, ColumnArray) {
        let vals = grid();
        let n = vals.len();
        let base = ColumnArray::from_values(&vals);
        let left_idx: Vec<usize> = (0..n).flat_map(|i| std::iter::repeat_n(i, n)).collect();
        let right_idx: Vec<usize> = (0..n).cycle().take(n * n).collect();
        let l = base.gather(&left_idx);
        let r = base.gather(&right_idx);
        (vals, left_idx, right_idx, l, r)
    }

    /// The operand forms one grid pairing can take: column/column, and each
    /// side as a scalar (checked against row `k`'s cell of the other side).
    fn operand_forms<'a>(
        vals: &'a [Value],
        li: usize,
        ri: usize,
        l: &'a ColumnArray,
        r: &'a ColumnArray,
    ) -> [(Operand<'a>, Operand<'a>); 3] {
        [
            (Operand::Col(Cow::Borrowed(l)), Operand::Col(Cow::Borrowed(r))),
            (Operand::Scalar(Cow::Borrowed(&vals[li])), Operand::Col(Cow::Borrowed(r))),
            (Operand::Col(Cow::Borrowed(l)), Operand::Scalar(Cow::Borrowed(&vals[ri]))),
        ]
    }

    fn same_value(got: &Value, want: &Value) -> bool {
        std::mem::discriminant(got) == std::mem::discriminant(want)
            && (got.grouping_eq(want) || (got.is_null() && want.is_null()))
    }

    #[test]
    fn arith_batch_matches_value_arith_per_cell() {
        let (vals, left_idx, right_idx, l, r) = grid_pairs();
        let rows = left_idx.len();
        for op in [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div, ArithOp::Mod] {
            for k in 0..rows {
                let (li, ri) = (left_idx[k], right_idx[k]);
                let expect = vals[li].arith(op, &vals[ri]).unwrap();
                for (a, b) in operand_forms(&vals, li, ri, &l, &r) {
                    let got = arith_batch(op, &a, &b, rows).unwrap().value_at(k);
                    assert!(
                        same_value(&got, &expect),
                        "{op:?} on {:?} vs {:?} ({a:?}): got {got:?}, want {expect:?}",
                        vals[li],
                        vals[ri],
                    );
                }
                let scalars = (
                    Operand::Scalar(Cow::Borrowed(&vals[li])),
                    Operand::Scalar(Cow::Borrowed(&vals[ri])),
                );
                let got = arith_batch(op, &scalars.0, &scalars.1, rows).unwrap();
                assert!(got.is_scalar());
                assert!(same_value(&got.value_at(k), &expect), "{op:?} over two scalars");
            }
        }
    }

    /// Typed column-vs-scalar compare loops reproduce `sql_cmp` for every
    /// grid pairing, in both orientations and for every operator — numeric
    /// text (`'2'`, `'nan'`, `'-inf'`) against number columns included.
    #[test]
    fn cmp_batch_scalar_operands_match_sql_cmp() {
        let (vals, left_idx, right_idx, l, r) = grid_pairs();
        let rows = left_idx.len();
        let ops = [
            CompareOp::Eq,
            CompareOp::NotEq,
            CompareOp::Lt,
            CompareOp::LtEq,
            CompareOp::Gt,
            CompareOp::GtEq,
        ];
        for op in ops {
            let by_col = cmp_batch(
                op,
                &Operand::Col(Cow::Borrowed(&l)),
                &Operand::Col(Cow::Borrowed(&r)),
                rows,
            );
            for k in 0..rows {
                let (li, ri) = (left_idx[k], right_idx[k]);
                let expect = cmp_truth(op, vals[li].sql_cmp(&vals[ri])).to_value();
                let [_, (sa, cb), (ca, sb)] = operand_forms(&vals, li, ri, &l, &r);
                let both = cmp_batch(op, &sa, &sb, rows);
                assert!(both.is_scalar());
                for (form, got) in [
                    ("col/col", by_col.value_at(k)),
                    ("scalar/col", cmp_batch(op, &sa, &cb, rows).value_at(k)),
                    ("col/scalar", cmp_batch(op, &ca, &sb, rows).value_at(k)),
                    ("scalar/scalar", both.value_at(k)),
                ] {
                    assert!(
                        same_value(&got, &expect),
                        "{op:?} {form} on {:?} vs {:?}: got {got:?}, want {expect:?}",
                        vals[li],
                        vals[ri],
                    );
                }
            }
        }
    }

    #[test]
    fn cmp_batch_handles_typed_and_mixed_columns() {
        // Int column vs Text column: numeric text compares numerically,
        // non-numeric text sorts after numbers — per sql_cmp.
        let l = ColumnArray::from_values(&[
            Value::Integer(2),
            Value::Integer(2),
            Value::Integer(2),
            Value::Null,
        ]);
        let r = ColumnArray::from_values(&[
            Value::text("2"),
            Value::text("abc"),
            Value::text("1.5"),
            Value::text("2"),
        ]);
        let (l, r) = (Operand::Col(Cow::Borrowed(&l)), Operand::Col(Cow::Borrowed(&r)));
        let eq = cmp_batch(CompareOp::Eq, &l, &r, 4);
        assert_eq!(eq.value_at(0), Value::Integer(1));
        assert_eq!(eq.value_at(1), Value::Integer(0));
        assert_eq!(eq.value_at(2), Value::Integer(0));
        assert!(eq.is_null(3));
        let gt = cmp_batch(CompareOp::Gt, &l, &r, 4);
        assert_eq!(gt.value_at(1), Value::Integer(0)); // text sorts after numbers
        assert_eq!(gt.value_at(2), Value::Integer(1));
    }

    /// A scalar operand reads, row for row, exactly like a column holding
    /// its value in every row — the contract that lets a literal stay one
    /// cell instead of being expanded per row.
    #[test]
    fn scalar_operand_reads_like_a_constant_column() {
        for v in grid() {
            let column = ColumnArray::from_values(&[v.clone(), v.clone(), v.clone()]);
            let mut col = Operand::Col(Cow::Borrowed(&column));
            let mut scalar = Operand::Scalar(Cow::Borrowed(&v));
            for i in 0..3 {
                assert!(same_value(&scalar.value_at(i), &col.value_at(i)), "{v:?}");
                assert_eq!(scalar.is_null(i), col.is_null(i));
                assert_eq!(scalar.truth_at(i), col.truth_at(i));
                assert_eq!(
                    cell_cmp(scalar.cell(i), col.cell(i)),
                    v.sql_cmp(&v),
                    "{v:?} against itself"
                );
                assert!(same_value(&scalar.take_at(i), &col.take_at(i)));
            }
            let (mut a, mut b) = (ColumnArray::default(), ColumnArray::default());
            scalar.push_to(&mut a, 0);
            col.push_to(&mut b, 0);
            assert!(same_value(&a.value_at(0), &b.value_at(0)));
        }
    }

    /// `LIKE` over scalar and column operands matches the row path's
    /// `like_match` on rendered cells, NULLs included.
    #[test]
    fn like_batch_matches_the_row_path() {
        let texts = [
            Value::text("Fremont Unified"),
            Value::text("fremont"),
            Value::Integer(12),
            Value::Real(2.5),
            Value::Null,
            Value::text(""),
        ];
        let patterns =
            [Value::text("%fremont%"), Value::text("1_"), Value::text("%.5"), Value::Null];
        let tcol = ColumnArray::from_values(&texts);
        for negated in [false, true] {
            for p in &patterns {
                let pcol = ColumnArray::from_values(&vec![p.clone(); texts.len()]);
                let forms = [
                    like_batch(
                        &Operand::Col(Cow::Borrowed(&tcol)),
                        &Operand::Scalar(Cow::Borrowed(p)),
                        negated,
                        texts.len(),
                    ),
                    like_batch(
                        &Operand::Col(Cow::Borrowed(&tcol)),
                        &Operand::Col(Cow::Borrowed(&pcol)),
                        negated,
                        texts.len(),
                    ),
                ];
                for (i, t) in texts.iter().enumerate() {
                    let want = if t.is_null() || p.is_null() {
                        Value::Null
                    } else {
                        Value::from_bool(like_match(&p.render(), &t.render()) != negated)
                    };
                    for got in &forms {
                        assert!(same_value(&got.value_at(i), &want), "{t:?} LIKE {p:?}");
                    }
                    let scalar = like_batch(
                        &Operand::Scalar(Cow::Borrowed(t)),
                        &Operand::Scalar(Cow::Borrowed(p)),
                        negated,
                        1,
                    );
                    assert!(scalar.is_scalar());
                    assert!(same_value(&scalar.value_at(0), &want), "{t:?} LIKE {p:?}");
                }
            }
        }
    }
}
