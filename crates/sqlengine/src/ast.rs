//! Abstract syntax tree for the supported SQL subset.

use crate::schema::DataType;
use crate::value::{ArithOp, Value};

/// A parsed SQL statement.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStatement),
    CreateTable(CreateTableStatement),
    Insert(InsertStatement),
    Update(UpdateStatement),
    Delete(DeleteStatement),
    Explain(ExplainStatement),
}

impl Statement {
    /// True for statements that mutate database state (`INSERT`, `UPDATE`,
    /// `DELETE`, `CREATE TABLE`) — the statements the snapshot commit path
    /// admits; `SELECT`/`EXPLAIN` run against a pinned snapshot instead.
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            Statement::Insert(_)
                | Statement::Update(_)
                | Statement::Delete(_)
                | Statement::CreateTable(_)
        )
    }

    /// Number of [`QueryId`]s the statement spans: one past the largest id
    /// of any `SELECT` in it (0 when it has none).
    pub fn query_count(&self) -> usize {
        let exprs: Vec<&Expr> = match self {
            Statement::Select(s) | Statement::Explain(ExplainStatement { query: s, .. }) => {
                return s.query_count();
            }
            Statement::Insert(i) => i.rows.iter().flatten().collect(),
            Statement::Update(u) => {
                u.assignments.iter().map(|(_, e)| e).chain(&u.where_clause).collect()
            }
            Statement::Delete(d) => d.where_clause.iter().collect(),
            Statement::CreateTable(_) => Vec::new(),
        };
        let mut n = 0;
        for e in exprs {
            e.visit_queries(&mut |q| n = n.max(q.id.0 + 1));
        }
        n
    }
}

/// Identifies one `SELECT` within a parsed statement. The parser numbers
/// every `SELECT` it reads — the statement itself, derived tables,
/// expression subqueries — densely from 0 in source order, so caches that
/// live as long as the statement index arrays by id
/// ([`crate::plan::PlanCache`]). A clone keeps its id: it is the same
/// query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct QueryId(pub usize);

/// `EXPLAIN [ANALYZE] <select>`: render the physical plan for a query
/// (ANALYZE additionally executes it and annotates measured per-operator
/// profiles). See [`crate::explain`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainStatement {
    pub analyze: bool,
    pub query: SelectStatement,
}

/// `CREATE TABLE` definition.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTableStatement {
    pub name: String,
    pub columns: Vec<(String, DataType, bool)>, // (name, type, primary key)
    pub foreign_keys: Vec<(String, String, String)>, // (column, ref table, ref column)
}

/// `INSERT INTO ... VALUES ...` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStatement {
    pub table: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Expr>>,
}

/// `UPDATE <table> SET col = expr, ... [WHERE predicate]`.
///
/// Assignment right-hand sides and the WHERE predicate are full expressions
/// (including subqueries); every RHS is evaluated against the *pre-update*
/// row, per standard SQL semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStatement {
    pub table: String,
    /// `(column, value expression)` pairs, in source order.
    pub assignments: Vec<(String, Expr)>,
    pub where_clause: Option<Expr>,
}

/// `DELETE FROM <table> [WHERE predicate]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStatement {
    pub table: String,
    pub where_clause: Option<Expr>,
}

/// A full `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement {
    /// This query's number within its parsed statement.
    pub id: QueryId,
    pub distinct: bool,
    pub projections: Vec<Projection>,
    pub from: Option<TableRef>,
    pub joins: Vec<Join>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
}

impl SelectStatement {
    /// An empty SELECT used as a building block.
    pub fn empty() -> Self {
        SelectStatement {
            id: QueryId::default(),
            distinct: false,
            projections: Vec::new(),
            from: None,
            joins: Vec::new(),
            where_clause: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }

    /// Every table name referenced in FROM/JOIN clauses (not subqueries).
    pub fn referenced_tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(TableRef::Named { table, .. }) = &self.from {
            out.push(table.clone());
        }
        for j in &self.joins {
            if let TableRef::Named { table, .. } = &j.table {
                out.push(table.clone());
            }
        }
        out
    }

    /// Every base-table name this query can read, *including* tables reached
    /// only through derived tables and subqueries in any clause — the
    /// dependency set version-keyed caches invalidate by. Names are
    /// lowercased, sorted, and deduplicated so the result is a stable cache
    /// key regardless of query spelling.
    pub fn all_referenced_tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit_queries(&mut |q| q.push_base_tables(&mut out));
        sorted_set(out)
    }

    /// Pushes the lowercased base tables of this statement's own FROM/JOIN
    /// list (derived tables are queries of their own).
    fn push_base_tables(&self, out: &mut Vec<String>) {
        for t in self.from.iter().chain(self.joins.iter().map(|j| &j.table)) {
            if let TableRef::Named { table, .. } = t {
                out.push(table.to_ascii_lowercase());
            }
        }
    }

    /// Calls `f` on this statement and on every `SELECT` nested in it —
    /// derived tables and expression subqueries at any depth.
    pub fn visit_queries(&self, f: &mut impl FnMut(&SelectStatement)) {
        f(self);
        for t in self.from.iter().chain(self.joins.iter().map(|j| &j.table)) {
            if let TableRef::Derived { query, .. } = t {
                query.visit_queries(f);
            }
        }
        let projections = self.projections.iter().filter_map(|p| match p {
            Projection::Expr { expr, .. } => Some(expr),
            _ => None,
        });
        for e in projections
            .chain(self.joins.iter().filter_map(|j| j.on.as_ref()))
            .chain(&self.where_clause)
            .chain(&self.group_by)
            .chain(&self.having)
            .chain(self.order_by.iter().map(|o| &o.expr))
        {
            e.visit_queries(f);
        }
    }

    /// Number of [`QueryId`]s the statement spans: one past the largest id
    /// in it. A [`crate::plan::PlanCache`] for the statement has this many
    /// query slots.
    pub fn query_count(&self) -> usize {
        let mut n = 0;
        self.visit_queries(&mut |q| n = n.max(q.id.0 + 1));
        n
    }
}

/// Sorts and deduplicates a table-name list into a stable cache key.
fn sorted_set(mut names: Vec<String>) -> Vec<String> {
    names.sort_unstable();
    names.dedup();
    names
}

impl UpdateStatement {
    /// The dependency set of the statement: the target table plus every
    /// table reachable from assignment and WHERE expressions (lowercased,
    /// sorted, deduplicated).
    pub fn all_referenced_tables(&self) -> Vec<String> {
        let mut out = vec![self.table.to_ascii_lowercase()];
        for e in self.assignments.iter().map(|(_, e)| e).chain(&self.where_clause) {
            e.visit_queries(&mut |q| q.push_base_tables(&mut out));
        }
        sorted_set(out)
    }
}

impl DeleteStatement {
    /// The dependency set of the statement: the target table plus every
    /// table reachable from the WHERE expression (lowercased, sorted,
    /// deduplicated).
    pub fn all_referenced_tables(&self) -> Vec<String> {
        let mut out = vec![self.table.to_ascii_lowercase()];
        if let Some(w) = &self.where_clause {
            w.visit_queries(&mut |q| q.push_base_tables(&mut out));
        }
        sorted_set(out)
    }
}

/// One item of the SELECT projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `*`
    Wildcard,
    /// `table.*`
    TableWildcard(String),
    /// An expression with an optional alias.
    Expr { expr: Expr, alias: Option<String> },
}

/// A table reference in FROM or JOIN.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A named base table with an optional alias.
    Named { table: String, alias: Option<String> },
    /// A derived table (subquery) with an alias.
    Derived { query: Box<SelectStatement>, alias: String },
}

impl TableRef {
    /// The name this reference is known by in the enclosing query.
    pub fn binding_name(&self) -> &str {
        match self {
            TableRef::Named { table, alias } => alias.as_deref().unwrap_or(table),
            TableRef::Derived { alias, .. } => alias,
        }
    }
}

/// Join type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
}

/// A JOIN clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub kind: JoinKind,
    pub table: TableRef,
    pub on: Option<Expr>,
}

/// ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub descending: bool,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

/// Aggregate function kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateKind {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggregateKind {
    pub fn parse(name: &str) -> Option<AggregateKind> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggregateKind::Count),
            "SUM" => Some(AggregateKind::Sum),
            "AVG" => Some(AggregateKind::Avg),
            "MIN" => Some(AggregateKind::Min),
            "MAX" => Some(AggregateKind::Max),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            AggregateKind::Count => "COUNT",
            AggregateKind::Sum => "SUM",
            AggregateKind::Avg => "AVG",
            AggregateKind::Min => "MIN",
            AggregateKind::Max => "MAX",
        }
    }
}

/// A borrowed `(qualifier, column)` reference, as extracted from predicate
/// shapes by the planner helpers below.
pub type ColumnRefStr<'a> = (Option<&'a str>, &'a str);

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Column reference, optionally qualified by table/alias.
    Column {
        table: Option<String>,
        column: String,
    },
    /// Binary comparison.
    Compare {
        op: CompareOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Arithmetic.
    Arith {
        op: ArithOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// String concatenation (`||`).
    Concat {
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Logical AND / OR.
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// `expr [NOT] LIKE pattern`
    Like {
        negated: bool,
        expr: Box<Expr>,
        pattern: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`
    IsNull {
        negated: bool,
        expr: Box<Expr>,
    },
    /// `expr [NOT] IN (list)` or `expr [NOT] IN (subquery)`
    InList {
        negated: bool,
        expr: Box<Expr>,
        list: Vec<Expr>,
    },
    InSubquery {
        negated: bool,
        expr: Box<Expr>,
        query: Box<SelectStatement>,
    },
    /// `expr [NOT] BETWEEN low AND high`
    Between {
        negated: bool,
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
    },
    /// `EXISTS (subquery)`
    Exists {
        negated: bool,
        query: Box<SelectStatement>,
    },
    /// Scalar subquery.
    ScalarSubquery(Box<SelectStatement>),
    /// Aggregate call.
    Aggregate {
        kind: AggregateKind,
        distinct: bool,
        arg: Option<Box<Expr>>,
    },
    /// Scalar function call.
    Function {
        name: String,
        args: Vec<Expr>,
    },
    /// `CAST(expr AS type)`
    Cast {
        expr: Box<Expr>,
        target: DataType,
    },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_branch: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Convenience constructor for a bare column.
    pub fn col(name: &str) -> Expr {
        Expr::Column { table: None, column: name.to_string() }
    }

    /// Convenience constructor for a qualified column.
    pub fn qcol(table: &str, name: &str) -> Expr {
        Expr::Column { table: Some(table.to_string()), column: name.to_string() }
    }

    /// Convenience constructor for a literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// True if the expression (recursively) contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Aggregate { .. } => true,
            Expr::Literal(_) | Expr::Column { .. } => false,
            Expr::Compare { left, right, .. }
            | Expr::Arith { left, right, .. }
            | Expr::Concat { left, right } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::And(a, b) | Expr::Or(a, b) => a.contains_aggregate() || b.contains_aggregate(),
            Expr::Not(e) | Expr::Neg(e) => e.contains_aggregate(),
            Expr::Like { expr, pattern, .. } => {
                expr.contains_aggregate() || pattern.contains_aggregate()
            }
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(|e| e.contains_aggregate())
            }
            Expr::InSubquery { expr, .. } => expr.contains_aggregate(),
            Expr::Between { expr, low, high, .. } => {
                expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate()
            }
            Expr::Exists { .. } | Expr::ScalarSubquery(_) => false,
            Expr::Function { args, .. } => args.iter().any(|e| e.contains_aggregate()),
            Expr::Cast { expr, .. } => expr.contains_aggregate(),
            Expr::Case { operand, branches, else_branch } => {
                operand.as_ref().is_some_and(|e| e.contains_aggregate())
                    || branches
                        .iter()
                        .any(|(w, t)| w.contains_aggregate() || t.contains_aggregate())
                    || else_branch.as_ref().is_some_and(|e| e.contains_aggregate())
            }
        }
    }

    /// Splits a predicate into its top-level `AND` conjuncts.
    ///
    /// The physical planner works conjunct-by-conjunct: each one can be pushed
    /// below a join or matched as an equi-join key independently, because
    /// `WHERE a AND b` filters exactly the rows where both conjuncts are
    /// *true* (unknowns eliminate the row either way).
    pub fn split_conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::And(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// If this expression is an equality between two column references —
    /// the shape of an equi-join predicate like `T1.id = T2.id` — returns
    /// both sides as `(qualifier, column)` pairs.
    pub fn as_column_equality(&self) -> Option<(ColumnRefStr<'_>, ColumnRefStr<'_>)> {
        if let Expr::Compare { op: CompareOp::Eq, left, right } = self {
            if let (
                Expr::Column { table: lt, column: lc },
                Expr::Column { table: rt, column: rc },
            ) = (left.as_ref(), right.as_ref())
            {
                return Some(((lt.as_deref(), lc), (rt.as_deref(), rc)));
            }
        }
        None
    }

    /// If this expression compares a column to a literal with `=` (either
    /// operand order), returns the column reference and the literal value —
    /// the shape a primary-key point lookup needs.
    pub fn as_column_literal_equality(&self) -> Option<((Option<&str>, &str), &Value)> {
        if let Expr::Compare { op: CompareOp::Eq, left, right } = self {
            match (left.as_ref(), right.as_ref()) {
                (Expr::Column { table, column }, Expr::Literal(v))
                | (Expr::Literal(v), Expr::Column { table, column }) => {
                    return Some(((table.as_deref(), column), v));
                }
                _ => {}
            }
        }
        None
    }

    /// True if the expression (recursively) contains any subquery. The
    /// planner refuses to push such predicates into scans: correlated
    /// subqueries must be evaluated in the scope the legacy executor would
    /// have used, after the full join row is assembled.
    pub fn contains_subquery(&self) -> bool {
        match self {
            Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_) => true,
            Expr::Literal(_) | Expr::Column { .. } => false,
            Expr::Compare { left, right, .. }
            | Expr::Arith { left, right, .. }
            | Expr::Concat { left, right } => left.contains_subquery() || right.contains_subquery(),
            Expr::And(a, b) | Expr::Or(a, b) => a.contains_subquery() || b.contains_subquery(),
            Expr::Not(e) | Expr::Neg(e) => e.contains_subquery(),
            Expr::Like { expr, pattern, .. } => {
                expr.contains_subquery() || pattern.contains_subquery()
            }
            Expr::IsNull { expr, .. } => expr.contains_subquery(),
            Expr::InList { expr, list, .. } => {
                expr.contains_subquery() || list.iter().any(|e| e.contains_subquery())
            }
            Expr::Between { expr, low, high, .. } => {
                expr.contains_subquery() || low.contains_subquery() || high.contains_subquery()
            }
            Expr::Aggregate { arg, .. } => arg.as_ref().is_some_and(|a| a.contains_subquery()),
            Expr::Function { args, .. } => args.iter().any(|e| e.contains_subquery()),
            Expr::Cast { expr, .. } => expr.contains_subquery(),
            Expr::Case { operand, branches, else_branch } => {
                operand.as_ref().is_some_and(|e| e.contains_subquery())
                    || branches.iter().any(|(w, t)| w.contains_subquery() || t.contains_subquery())
                    || else_branch.as_ref().is_some_and(|e| e.contains_subquery())
            }
        }
    }

    /// True if the expression (recursively) contains any scalar function
    /// call. Function evaluation can error (unknown name, wrong arity), so
    /// the decorrelation rewrite refuses to relocate such expressions to
    /// evaluation sites the reference executor might never reach.
    pub fn contains_function(&self) -> bool {
        match self {
            Expr::Function { .. } => true,
            Expr::Literal(_) | Expr::Column { .. } => false,
            Expr::Compare { left, right, .. }
            | Expr::Arith { left, right, .. }
            | Expr::Concat { left, right } => left.contains_function() || right.contains_function(),
            Expr::And(a, b) | Expr::Or(a, b) => a.contains_function() || b.contains_function(),
            Expr::Not(e) | Expr::Neg(e) => e.contains_function(),
            Expr::Like { expr, pattern, .. } => {
                expr.contains_function() || pattern.contains_function()
            }
            Expr::IsNull { expr, .. } => expr.contains_function(),
            Expr::InList { expr, list, .. } => {
                expr.contains_function() || list.iter().any(|e| e.contains_function())
            }
            Expr::Between { expr, low, high, .. } => {
                expr.contains_function() || low.contains_function() || high.contains_function()
            }
            Expr::Aggregate { arg, .. } => arg.as_ref().is_some_and(|a| a.contains_function()),
            // Subqueries are opaque here: the rewrite gates on
            // `contains_subquery` before this question ever matters.
            Expr::InSubquery { expr, .. } => expr.contains_function(),
            Expr::Exists { .. } | Expr::ScalarSubquery(_) => false,
            Expr::Cast { expr, .. } => expr.contains_function(),
            Expr::Case { operand, branches, else_branch } => {
                operand.as_ref().is_some_and(|e| e.contains_function())
                    || branches.iter().any(|(w, t)| w.contains_function() || t.contains_function())
                    || else_branch.as_ref().is_some_and(|e| e.contains_function())
            }
        }
    }

    /// Calls `f` on every `SELECT` inside the expression tree (and on the
    /// statements nested in those), in source order.
    pub fn visit_queries(&self, f: &mut impl FnMut(&SelectStatement)) {
        match self {
            Expr::InSubquery { expr, query, .. } => {
                expr.visit_queries(f);
                query.visit_queries(f);
            }
            Expr::Exists { query, .. } | Expr::ScalarSubquery(query) => query.visit_queries(f),
            Expr::Literal(_) | Expr::Column { .. } => {}
            Expr::Compare { left, right, .. }
            | Expr::Arith { left, right, .. }
            | Expr::Concat { left, right }
            | Expr::Like { expr: left, pattern: right, .. }
            | Expr::And(left, right)
            | Expr::Or(left, right) => {
                left.visit_queries(f);
                right.visit_queries(f);
            }
            Expr::Not(e)
            | Expr::Neg(e)
            | Expr::IsNull { expr: e, .. }
            | Expr::Cast { expr: e, .. } => e.visit_queries(f),
            Expr::InList { expr, list, .. } => {
                expr.visit_queries(f);
                for e in list {
                    e.visit_queries(f);
                }
            }
            Expr::Between { expr, low, high, .. } => {
                expr.visit_queries(f);
                low.visit_queries(f);
                high.visit_queries(f);
            }
            Expr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    a.visit_queries(f);
                }
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.visit_queries(f);
                }
            }
            Expr::Case { operand, branches, else_branch } => {
                if let Some(o) = operand {
                    o.visit_queries(f);
                }
                for (w, t) in branches {
                    w.visit_queries(f);
                    t.visit_queries(f);
                }
                if let Some(e) = else_branch {
                    e.visit_queries(f);
                }
            }
        }
    }

    /// Collects every column reference in the expression tree.
    pub fn referenced_columns(&self, out: &mut Vec<(Option<String>, String)>) {
        match self {
            Expr::Column { table, column } => out.push((table.clone(), column.clone())),
            Expr::Literal(_) => {}
            Expr::Compare { left, right, .. }
            | Expr::Arith { left, right, .. }
            | Expr::Concat { left, right } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.referenced_columns(out);
                b.referenced_columns(out);
            }
            Expr::Not(e) | Expr::Neg(e) => e.referenced_columns(out),
            Expr::Like { expr, pattern, .. } => {
                expr.referenced_columns(out);
                pattern.referenced_columns(out);
            }
            Expr::IsNull { expr, .. } => expr.referenced_columns(out),
            Expr::InList { expr, list, .. } => {
                expr.referenced_columns(out);
                for e in list {
                    e.referenced_columns(out);
                }
            }
            Expr::InSubquery { expr, .. } => expr.referenced_columns(out),
            Expr::Between { expr, low, high, .. } => {
                expr.referenced_columns(out);
                low.referenced_columns(out);
                high.referenced_columns(out);
            }
            Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
            Expr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    a.referenced_columns(out);
                }
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.referenced_columns(out);
                }
            }
            Expr::Cast { expr, .. } => expr.referenced_columns(out),
            Expr::Case { operand, branches, else_branch } => {
                if let Some(o) = operand {
                    o.referenced_columns(out);
                }
                for (w, t) in branches {
                    w.referenced_columns(out);
                    t.referenced_columns(out);
                }
                if let Some(e) = else_branch {
                    e.referenced_columns(out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_aggregate_detects_nested() {
        let e = Expr::Arith {
            op: ArithOp::Div,
            left: Box::new(Expr::Aggregate {
                kind: AggregateKind::Sum,
                distinct: false,
                arg: Some(Box::new(Expr::col("amount"))),
            }),
            right: Box::new(Expr::lit(100)),
        };
        assert!(e.contains_aggregate());
        assert!(!Expr::col("amount").contains_aggregate());
    }

    #[test]
    fn referenced_columns_collects_qualified_and_bare() {
        let e = Expr::And(
            Box::new(Expr::Compare {
                op: CompareOp::Eq,
                left: Box::new(Expr::qcol("schools", "Magnet")),
                right: Box::new(Expr::lit(1)),
            }),
            Box::new(Expr::Compare {
                op: CompareOp::Gt,
                left: Box::new(Expr::col("NumTstTakr")),
                right: Box::new(Expr::lit(500)),
            }),
        );
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0], (Some("schools".to_string()), "Magnet".to_string()));
        assert_eq!(cols[1], (None, "NumTstTakr".to_string()));
    }

    #[test]
    fn table_ref_binding_name_prefers_alias() {
        let r = TableRef::Named { table: "satscores".into(), alias: Some("T1".into()) };
        assert_eq!(r.binding_name(), "T1");
        let r = TableRef::Named { table: "satscores".into(), alias: None };
        assert_eq!(r.binding_name(), "satscores");
    }

    #[test]
    fn split_conjuncts_flattens_nested_ands() {
        let e = Expr::And(
            Box::new(Expr::And(Box::new(Expr::col("a")), Box::new(Expr::col("b")))),
            Box::new(Expr::Or(Box::new(Expr::col("c")), Box::new(Expr::col("d")))),
        );
        let parts = e.split_conjuncts();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], &Expr::col("a"));
        assert!(matches!(parts[2], Expr::Or(..)), "OR is not split");
    }

    #[test]
    fn as_column_equality_matches_equi_join_shape() {
        let e = Expr::Compare {
            op: CompareOp::Eq,
            left: Box::new(Expr::qcol("t1", "id")),
            right: Box::new(Expr::qcol("t2", "id")),
        };
        let ((q1, c1), (q2, c2)) = e.as_column_equality().unwrap();
        assert_eq!((q1, c1), (Some("t1"), "id"));
        assert_eq!((q2, c2), (Some("t2"), "id"));
        // Non-Eq comparisons and column-vs-literal shapes don't match.
        let lt = Expr::Compare {
            op: CompareOp::Lt,
            left: Box::new(Expr::qcol("t1", "id")),
            right: Box::new(Expr::qcol("t2", "id")),
        };
        assert!(lt.as_column_equality().is_none());
        let lit = Expr::Compare {
            op: CompareOp::Eq,
            left: Box::new(Expr::col("id")),
            right: Box::new(Expr::lit(3)),
        };
        assert!(lit.as_column_equality().is_none());
        // ...but the literal shape is a point-lookup candidate, either way
        // around.
        let ((q, c), v) = lit.as_column_literal_equality().unwrap();
        assert_eq!((q, c), (None, "id"));
        assert_eq!(v, &Value::Integer(3));
        let flipped = Expr::Compare {
            op: CompareOp::Eq,
            left: Box::new(Expr::lit(3)),
            right: Box::new(Expr::col("id")),
        };
        assert!(flipped.as_column_literal_equality().is_some());
    }

    #[test]
    fn contains_subquery_detects_all_forms() {
        let sub = Box::new(SelectStatement::empty());
        assert!(Expr::Exists { negated: false, query: sub.clone() }.contains_subquery());
        assert!(Expr::ScalarSubquery(sub.clone()).contains_subquery());
        let nested = Expr::And(
            Box::new(Expr::col("a")),
            Box::new(Expr::InSubquery {
                negated: false,
                expr: Box::new(Expr::col("b")),
                query: sub,
            }),
        );
        assert!(nested.contains_subquery());
        assert!(!Expr::col("a").contains_subquery());
    }

    #[test]
    fn aggregate_kind_parse_round_trip() {
        for name in ["count", "SUM", "Avg", "MIN", "max"] {
            let k = AggregateKind::parse(name).unwrap();
            assert_eq!(k.name(), name.to_ascii_uppercase());
        }
        assert!(AggregateKind::parse("median").is_none());
    }
}
