//! The versioned snapshot commit path: `INSERT`/`UPDATE`/`DELETE` planned
//! against an immutable [`Database`] snapshot and applied copy-on-write.
//!
//! A commit has two halves, deliberately separated so each can be checked
//! against its own oracle:
//!
//! 1. **Planning** ([`plan_mutation`]): evaluate the statement against the
//!    *current* snapshot — which rows match the `WHERE`, what the new row
//!    contents are — producing a [`PlannedMutation`] of plain positions and
//!    rows. The `WHERE` of `UPDATE` and `DELETE` runs over the table's
//!    chunks through the scan's own filter step: batch kernels where the
//!    predicate allows them, the row evaluator otherwise, so predicates may
//!    contain subqueries against any table. Only the matched rows are
//!    materialized, and `UPDATE` assignment right-hand sides see the
//!    pre-update row (standard SQL semantics). A batch-evaluable `WHERE`
//!    is one batch predicate, whose kernels evaluate every operand, so an
//!    error behind a short-circuit (`WHERE id < 0 AND LENGTH(c, 1) = 1`)
//!    surfaces; which error surfaces, and whether, is plan-dependent, as
//!    [`crate::plan`] documents for queries. A `#[cfg(test)]` reference
//!    planner that evaluates the `WHERE` row by row is this half's oracle.
//! 2. **Application**: the same planned mutation is applied by two
//!    independent implementations. [`commit_statement`] is the production
//!    path — clone the database (cheap: tables are [`std::sync::Arc`]
//!    shared) and apply the mutation to the clone, which copies only the
//!    touched table (its chunks still shared), maintains its PK index
//!    incrementally and rebuilds only the chunks the write reaches.
//!    [`crate::execute_statement`] applies the same step to its database in
//!    place. [`commit_statement_rebuild`] is the naive reference —
//!    materialize the post-mutation rows and rebuild a fresh database from
//!    the schema, so every index and chunk is built from scratch.
//!    `snapshot_props.rs` asserts the two are observably identical (rows,
//!    probes, chunks, value samples, query results in both plan modes) on
//!    randomized workloads.
//!
//! Every [`crate::storage::Table`] mutation checks arity, positions and
//! primary keys before it changes anything, and the rebuild reference
//! re-inserts every row through the same checks, so a colliding statement
//! fails on either path and publishes nothing.

use crate::ast::Statement;
use crate::error::{SqlError, SqlResult};
use crate::exec::{Executor, Scope};
use crate::plan::{ColMeta, PlanCache, PlanMode};
use crate::result::ResultSet;
use crate::schema::{ColumnDef, ForeignKey, TableSchema};
use crate::storage::{Database, Row};
use crate::value::Value;

/// Which kind of mutation a commit applied, for callers that meter writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    Insert,
    Update,
    Delete,
    CreateTable,
}

impl MutationKind {
    /// Stable lowercase label (metrics tag value).
    pub fn name(self) -> &'static str {
        match self {
            MutationKind::Insert => "insert",
            MutationKind::Update => "update",
            MutationKind::Delete => "delete",
            MutationKind::CreateTable => "create_table",
        }
    }
}

/// The result of committing one mutation statement against a snapshot.
#[derive(Debug)]
pub struct CommitOutcome {
    /// The new snapshot: the input database with the mutation applied and
    /// the version epoch bumped. The input snapshot is untouched.
    pub db: Database,
    /// The mutated table, lowercased (empty only for zero-row no-ops on
    /// `CREATE TABLE`-free statements — never; always set).
    pub table: String,
    pub kind: MutationKind,
    /// Rows inserted, updated, or deleted (0 for `CREATE TABLE`).
    pub rows_affected: usize,
    /// The statement's client-visible result (`rows_inserted` etc.),
    /// identical to what [`crate::execute_statement`] returns.
    pub result: ResultSet,
}

/// A mutation resolved to plain positions and rows — everything expression
/// evaluation already decided, nothing index maintenance still has to.
#[derive(Debug, Clone)]
pub enum PlannedMutation {
    Insert { table: String, rows: Vec<Row> },
    Update { table: String, changes: Vec<(usize, Row)> },
    Delete { table: String, positions: Vec<usize> },
    CreateTable { schema: TableSchema, foreign_keys: Vec<ForeignKey> },
}

/// Cheap syntactic write detection for admission control: true when the
/// first keyword of `sql` starts a mutation statement. Serving layers use
/// this to route statements before parsing.
pub fn is_write_statement(sql: &str) -> bool {
    let first = sql.split_whitespace().next().unwrap_or("");
    ["INSERT", "UPDATE", "DELETE", "CREATE"].iter().any(|k| first.eq_ignore_ascii_case(k))
}

/// The dependency set of any statement: every base table it can read or
/// write, lowercased, sorted, deduplicated. This is what version-keyed
/// caches fingerprint (see [`Database::dependency_fingerprint`]).
pub fn statement_dependencies(stmt: &Statement) -> Vec<String> {
    match stmt {
        Statement::Select(s) => s.all_referenced_tables(),
        Statement::Explain(e) => e.query.all_referenced_tables(),
        Statement::Update(u) => u.all_referenced_tables(),
        Statement::Delete(d) => d.all_referenced_tables(),
        Statement::Insert(i) => vec![i.table.to_ascii_lowercase()],
        Statement::CreateTable(c) => vec![c.name.to_ascii_lowercase()],
    }
}

/// Resolves a parsed mutation statement against a snapshot into plain
/// positions and rows. Read-only: evaluation runs against `db`, nothing is
/// mutated. `SELECT`/`EXPLAIN` are rejected.
pub fn plan_mutation(db: &Database, stmt: &Statement) -> SqlResult<PlannedMutation> {
    let plans = PlanCache::new(stmt.query_count());
    match stmt {
        Statement::Insert(ins) => {
            let schema = &db.table(&ins.table)?.schema;
            let positions: Vec<usize> = if ins.columns.is_empty() {
                (0..schema.columns.len()).collect()
            } else {
                ins.columns
                    .iter()
                    .map(|c| {
                        schema
                            .column_index(c)
                            .ok_or_else(|| SqlError::UnknownColumn(format!("{}.{}", ins.table, c)))
                    })
                    .collect::<SqlResult<Vec<_>>>()?
            };
            let mut rows = Vec::with_capacity(ins.rows.len());
            for row_exprs in &ins.rows {
                if row_exprs.len() != positions.len() {
                    return Err(SqlError::Schema("INSERT arity mismatch".into()));
                }
                let mut row = vec![Value::Null; schema.columns.len()];
                let mut exec = Executor::new(db, PlanMode::default(), &plans);
                let scope = Scope { cols: &[], row: &[], parent: None };
                for (expr, &pos) in row_exprs.iter().zip(&positions) {
                    row[pos] = exec.eval(expr, &scope, None)?;
                }
                rows.push(row);
            }
            Ok(PlannedMutation::Insert { table: ins.table.to_ascii_lowercase(), rows })
        }
        Statement::Update(upd) => {
            let table = db.table(&upd.table)?;
            let cols = table_scope_cols(&upd.table, &table.schema);
            let assigned: Vec<usize> = upd
                .assignments
                .iter()
                .map(|(c, _)| {
                    table
                        .schema
                        .column_index(c)
                        .ok_or_else(|| SqlError::UnknownColumn(format!("{}.{}", upd.table, c)))
                })
                .collect::<SqlResult<Vec<_>>>()?;
            let mut exec = Executor::new(db, PlanMode::default(), &plans);
            let positions =
                exec.matching_rows(table.columnar_chunks(), &cols, upd.where_clause.as_ref())?;
            let mut changes = Vec::with_capacity(positions.len());
            for pos in positions {
                let mut row = table.row(pos);
                // Every RHS sees the pre-update row (standard SQL: SET a =
                // b, b = a swaps).
                let scope = Scope { cols: &cols, row: &row, parent: None };
                let values = upd
                    .assignments
                    .iter()
                    .map(|(_, expr)| exec.eval(expr, &scope, None))
                    .collect::<SqlResult<Vec<_>>>()?;
                for (&col, v) in assigned.iter().zip(values) {
                    row[col] = v;
                }
                changes.push((pos, row));
            }
            Ok(PlannedMutation::Update { table: upd.table.to_ascii_lowercase(), changes })
        }
        Statement::Delete(del) => {
            let table = db.table(&del.table)?;
            let cols = table_scope_cols(&del.table, &table.schema);
            let mut exec = Executor::new(db, PlanMode::default(), &plans);
            let positions =
                exec.matching_rows(table.columnar_chunks(), &cols, del.where_clause.as_ref())?;
            Ok(PlannedMutation::Delete { table: del.table.to_ascii_lowercase(), positions })
        }
        Statement::CreateTable(ct) => {
            let columns: Vec<ColumnDef> = ct
                .columns
                .iter()
                .map(|(name, ty, pk)| {
                    let mut c = ColumnDef::new(name.clone(), *ty);
                    if *pk {
                        c = c.primary_key();
                    }
                    c
                })
                .collect();
            let foreign_keys = ct
                .foreign_keys
                .iter()
                .map(|(from_col, to_table, to_col)| ForeignKey {
                    from_table: ct.name.clone(),
                    from_column: from_col.clone(),
                    to_table: to_table.clone(),
                    to_column: to_col.clone(),
                })
                .collect();
            Ok(PlannedMutation::CreateTable {
                schema: TableSchema::new(ct.name.clone(), columns),
                foreign_keys,
            })
        }
        Statement::Select(_) | Statement::Explain(_) => {
            Err(SqlError::Execution("not a mutation statement".into()))
        }
    }
}

/// Column metadata for evaluating expressions against one table's rows:
/// every column qualified by the (lowercased) table name, as a scan of that
/// table would expose them.
fn table_scope_cols(table: &str, schema: &TableSchema) -> Vec<ColMeta> {
    let quals = vec![table.to_ascii_lowercase()];
    schema.columns.iter().map(|c| ColMeta { quals: quals.clone(), name: c.name.clone() }).collect()
}

/// Applies a planned mutation to `db` and bumps its version, returning the
/// mutated table (lowercased), the kind and the rows affected. The touched
/// table is written through [`Database::write_table`]: in place when `db`
/// alone holds it, otherwise on a copy. All or nothing — on error `db` is
/// left as it was. A mutation that touches no row only checks that its
/// table exists, so every table stays shared.
pub(crate) fn apply_in_place(
    db: &mut Database,
    planned: PlannedMutation,
) -> SqlResult<(String, MutationKind, usize)> {
    fn write(
        db: &mut Database,
        table: &str,
        rows: usize,
        f: impl FnOnce(&mut crate::storage::Table) -> SqlResult<()>,
    ) -> SqlResult<()> {
        if rows == 0 {
            return db.table(table).map(|_| ());
        }
        db.write_table(table, f)
    }
    let applied = match planned {
        PlannedMutation::Insert { table, rows } => {
            let n = rows.len();
            write(db, &table, n, |t| t.insert_many(rows))?;
            (table, MutationKind::Insert, n)
        }
        PlannedMutation::Update { table, changes } => {
            let n = changes.len();
            write(db, &table, n, |t| t.update_rows(changes))?;
            (table, MutationKind::Update, n)
        }
        PlannedMutation::Delete { table, positions } => {
            let n = positions.len();
            write(db, &table, n, |t| t.delete_rows(&positions))?;
            (table, MutationKind::Delete, n)
        }
        PlannedMutation::CreateTable { schema, foreign_keys } => {
            let name = schema.name.to_ascii_lowercase();
            db.create_table(schema)?;
            for fk in foreign_keys {
                db.add_foreign_key(fk);
            }
            (name, MutationKind::CreateTable, 0)
        }
    };
    db.bump_version();
    Ok(applied)
}

/// Applies a planned mutation to a snapshot **incrementally**: the database
/// is cloned (table handles shared) and the mutation applied to the clone
/// (`apply_in_place`), so only the touched table is copied and its PK
/// index and chunks are maintained rather than rebuilt. This is the
/// production commit path.
pub fn apply_planned(db: &Database, planned: PlannedMutation) -> SqlResult<CommitOutcome> {
    let mut next = db.clone();
    let (table, kind, rows_affected) = apply_in_place(&mut next, planned)?;
    let result = mutation_result(kind, rows_affected);
    Ok(CommitOutcome { db: next, table, kind, rows_affected, result })
}

/// Applies a planned mutation by **rebuilding everything**: materialize the
/// post-mutation rows of every table, then construct a fresh database from the
/// schema and re-insert every row of every table, so each PK index and
/// columnar chunk is built from scratch with no incremental
/// step anywhere. Deliberately naive — this is the reference implementation
/// the differential oracle compares [`apply_planned`] against.
pub fn apply_planned_rebuild(db: &Database, planned: PlannedMutation) -> SqlResult<CommitOutcome> {
    // Resolve the post-mutation rows per table, in plain vectors.
    let mut schema = db.schema().clone();
    let mut contents: Vec<(String, Vec<Row>)> = db
        .schema()
        .tables
        .iter()
        .map(|t| (t.name.clone(), db.table(&t.name).map(|t| t.rows().to_vec())))
        .map(|(n, r)| r.map(|rows| (n, rows)))
        .collect::<SqlResult<Vec<_>>>()?;
    let (table, kind, rows_affected) = match planned {
        PlannedMutation::Insert { table, rows } => {
            let n = rows.len();
            let slot = find_table(&mut contents, &table)?;
            slot.extend(rows);
            (table, MutationKind::Insert, n)
        }
        PlannedMutation::Update { table, changes } => {
            let n = changes.len();
            let slot = find_table(&mut contents, &table)?;
            for (pos, row) in changes {
                slot[pos] = row;
            }
            (table, MutationKind::Update, n)
        }
        PlannedMutation::Delete { table, positions } => {
            let n = positions.len();
            let slot = find_table(&mut contents, &table)?;
            let mut i = 0usize;
            let mut doomed = positions.iter().copied().peekable();
            slot.retain(|_| {
                let hit = doomed.peek() == Some(&i);
                if hit {
                    doomed.next();
                }
                i += 1;
                !hit
            });
            (table, MutationKind::Delete, n)
        }
        PlannedMutation::CreateTable { schema: ts, foreign_keys } => {
            let name = ts.name.to_ascii_lowercase();
            schema.add_table(ts.clone())?;
            for fk in foreign_keys {
                schema.add_foreign_key(fk);
            }
            contents.push((ts.name, Vec::new()));
            (name, MutationKind::CreateTable, 0)
        }
    };
    let mut next = Database::from_schema(schema);
    for (name, rows) in contents {
        next.insert_many(&name, rows)?;
    }
    // Match the production path's version arithmetic so the two snapshots
    // are version-observably identical too.
    for _ in 0..db.version() + 1 {
        next.bump_version();
    }
    let result = mutation_result(kind, rows_affected);
    Ok(CommitOutcome { db: next, table, kind, rows_affected, result })
}

fn find_table<'a>(
    contents: &'a mut [(String, Vec<Row>)],
    table: &str,
) -> SqlResult<&'a mut Vec<Row>> {
    contents
        .iter_mut()
        .find(|(n, _)| n.eq_ignore_ascii_case(table))
        .map(|(_, rows)| rows)
        .ok_or_else(|| SqlError::UnknownTable(table.to_string()))
}

/// The client-visible result of a mutation: `rows_inserted`,
/// `rows_updated` or `rows_deleted` with the count, or nothing for
/// `CREATE TABLE`.
pub(crate) fn mutation_result(kind: MutationKind, rows_affected: usize) -> ResultSet {
    let header = match kind {
        MutationKind::Insert => "rows_inserted",
        MutationKind::Update => "rows_updated",
        MutationKind::Delete => "rows_deleted",
        MutationKind::CreateTable => {
            return ResultSet::new(vec![]);
        }
    };
    let mut rs = ResultSet::new(vec![header.into()]);
    rs.rows.push(vec![Value::Integer(rows_affected as i64)]);
    rs
}

/// Parses and commits one mutation statement against a snapshot through the
/// incremental copy-on-write path. The input snapshot is untouched; the
/// outcome carries the new one.
pub fn commit_statement(db: &Database, sql: &str) -> SqlResult<CommitOutcome> {
    let stmt = crate::parser::parse_statement(sql)?;
    apply_planned(db, plan_mutation(db, &stmt)?)
}

/// Parses and commits one mutation statement through the rebuild-everything
/// reference path. Planning is shared with [`commit_statement`], so any
/// observable difference between the two outcomes is a defect in the
/// incremental maintenance machinery.
pub fn commit_statement_rebuild(db: &Database, sql: &str) -> SqlResult<CommitOutcome> {
    let stmt = crate::parser::parse_statement(sql)?;
    apply_planned_rebuild(db, plan_mutation(db, &stmt)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;
    use crate::{execute, parse_statement, ColumnDef};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// The write planner as it was before it ran the `WHERE` over chunks:
    /// every row materialized and the `WHERE` evaluated row by row with the
    /// row evaluator, each matched row's `SET` right after. The oracle
    /// [`plan_mutation`] is checked against.
    fn plan_row_by_row(db: &Database, stmt: &Statement) -> SqlResult<PlannedMutation> {
        let plans = PlanCache::new(stmt.query_count());
        match stmt {
            Statement::Update(upd) => {
                let table = db.table(&upd.table)?;
                let cols = table_scope_cols(&upd.table, &table.schema);
                let assigned: Vec<usize> =
                    upd.assignments
                        .iter()
                        .map(|(c, _)| {
                            table.schema.column_index(c).ok_or_else(|| {
                                SqlError::UnknownColumn(format!("{}.{}", upd.table, c))
                            })
                        })
                        .collect::<SqlResult<Vec<_>>>()?;
                let mut exec = Executor::new(db, PlanMode::default(), &plans);
                let mut changes = Vec::new();
                for (pos, row) in table.rows().iter().enumerate() {
                    let scope = Scope { cols: &cols, row, parent: None };
                    if let Some(pred) = &upd.where_clause {
                        if !exec.eval(pred, &scope, None)?.to_truth().is_true() {
                            continue;
                        }
                    }
                    let mut new_row = row.clone();
                    for (&col, (_, expr)) in assigned.iter().zip(&upd.assignments) {
                        new_row[col] = exec.eval(expr, &scope, None)?;
                    }
                    changes.push((pos, new_row));
                }
                Ok(PlannedMutation::Update { table: upd.table.to_ascii_lowercase(), changes })
            }
            Statement::Delete(del) => {
                let table = db.table(&del.table)?;
                let cols = table_scope_cols(&del.table, &table.schema);
                let mut exec = Executor::new(db, PlanMode::default(), &plans);
                let mut positions = Vec::new();
                for (pos, row) in table.rows().iter().enumerate() {
                    let keep = match &del.where_clause {
                        Some(pred) => {
                            let scope = Scope { cols: &cols, row, parent: None };
                            exec.eval(pred, &scope, None)?.to_truth().is_true()
                        }
                        None => true,
                    };
                    if keep {
                        positions.push(pos);
                    }
                }
                Ok(PlannedMutation::Delete { table: del.table.to_ascii_lowercase(), positions })
            }
            _ => plan_mutation(db, stmt),
        }
    }

    /// Choices drawn from a generated string; once it runs out every pick
    /// is 0, which ends the recursion at a leaf.
    struct Picks(std::vec::IntoIter<char>);

    impl Picks {
        fn pick(&mut self, n: usize) -> usize {
            self.0.next().map_or(0, |c| c as usize % n)
        }
        fn one<'a>(&mut self, options: &[&'a str]) -> &'a str {
            options[self.pick(options.len())]
        }
    }

    /// Cells that collide across storage classes: integers around zero and
    /// `i64::MAX`, reals equal to some of them, signed zeros, NaN (which no
    /// SQL literal writes), numeric-looking text and `'nan'`.
    fn cell(c: char) -> Value {
        match c {
            '0'..='9' => Value::Integer(c as i64 - '0' as i64 - 4),
            'b' => Value::Integer(i64::MAX),
            'n' => Value::Null,
            'r' => Value::Real(2.0),
            'R' => Value::Real(-3.5),
            'z' => Value::Real(0.0),
            'Z' => Value::Real(-0.0),
            'q' => Value::Real(f64::NAN),
            't' => Value::text("2"),
            'T' => Value::text("2.0"),
            'Q' => Value::text("nan"),
            'x' => Value::text("x"),
            _ => Value::text("Xa"),
        }
    }

    /// `t` (1,025 to 2,100 rows, so two or three chunks) and a small `u`
    /// for subqueries. `a`, `b` and `c` hold one storage class plus NULLs
    /// (typed chunks), except that `a` sometimes mixes in text; `d` mixes
    /// every class.
    fn random_db(runner: &mut Runner) -> Database {
        let mut db = Database::new("w");
        let int = |name: &str| ColumnDef::new(name, DataType::Integer);
        let text = |name: &str| ColumnDef::new(name, DataType::Text);
        db.create_table(TableSchema::new(
            "t",
            vec![
                int("id").primary_key(),
                int("a"),
                ColumnDef::new("b", DataType::Real),
                text("c"),
                text("d"),
            ],
        ))
        .unwrap();
        db.create_table(TableSchema::new("u", vec![int("id").primary_key(), text("k"), text("v")]))
            .unwrap();
        let len = 1025 + runner.gen_string("[0-9]{4}").parse::<usize>().unwrap() % 1076;
        let a_class = if runner.gen_string("[01]{1}") == "0" { "0-9nb" } else { "0-9nbtQ" };
        let columns: Vec<Vec<Value>> = [a_class, "rRzZqn", "tTQxXn", "0-9bnrRzZqtTQxX"]
            .iter()
            .map(|class| {
                runner.gen_string(&format!("[{class}]{{{len}}}")).chars().map(cell).collect()
            })
            .collect();
        let rows = (0..len)
            .map(|i| {
                let mut row = vec![Value::Integer(i as i64)];
                row.extend(columns.iter().map(|c| c[i].clone()));
                row
            })
            .collect();
        db.insert_many("t", rows).unwrap();
        let u = runner.gen_string("[0-9nrZqtQxX]{24}").chars().map(cell).collect::<Vec<_>>();
        let rows = u.chunks(2).enumerate();
        db.insert_many(
            "u",
            rows.map(|(i, kv)| vec![(i as i64).into(), kv[0].clone(), kv[1].clone()]).collect(),
        )
        .unwrap();
        db
    }

    const COLUMNS: &[&str] = &["id", "a", "b", "c", "d", "t.a", "t.d"];
    const LITERALS: &[&str] =
        &["2", "-0.0", "0", "2.0", "'2'", "'nan'", "'x'", "NULL", "1.5", "-3", "'2.0'", "''"];
    const COMPARE: &[&str] = &["=", "<>", "<", "<=", ">", ">="];

    fn operand(p: &mut Picks) -> String {
        match p.pick(7) {
            0..=2 => p.one(COLUMNS).to_string(),
            3 => p.one(LITERALS).to_string(),
            4 => format!("{} + {}", p.one(COLUMNS), p.one(LITERALS)),
            5 => format!("{} || {}", p.one(COLUMNS), p.one(LITERALS)),
            _ => format!("{}({})", p.one(&["LENGTH", "UPPER", "ABS"]), p.one(COLUMNS)),
        }
    }

    /// A random predicate over `t`, nested up to `depth` connectives deep.
    /// None of its batch kernels can fail, so whether it errors does not
    /// depend on evaluation order.
    fn predicate(p: &mut Picks, depth: usize) -> String {
        let not = |p: &mut Picks| p.one(&["", "NOT "]);
        match p.pick(if depth == 0 { 9 } else { 12 }) {
            0 => format!("{} {} {}", operand(p), p.one(COMPARE), operand(p)),
            1 => {
                let pattern = p.one(&["'%2%'", "'_'", "'x%'", "'%'", "'%a'", "c", "'N%'"]);
                format!("{} {}LIKE {pattern}", operand(p), not(p))
            }
            2 => {
                let list: Vec<&str> = (0..3).map(|_| p.one(LITERALS)).collect();
                format!("{} {}IN ({})", operand(p), not(p), list.join(", "))
            }
            3 => {
                let (lo, hi) = (p.one(LITERALS), p.one(LITERALS));
                format!("{} {}BETWEEN {lo} AND {hi}", operand(p), not(p))
            }
            4 => format!("{} IS {}NULL", operand(p), not(p)),
            5 => {
                let filter = p.one(&["", " WHERE u.k = t.c", " WHERE u.id > 3"]);
                format!("{} {}IN (SELECT v FROM u{filter})", operand(p), not(p))
            }
            6 => format!(
                "{}EXISTS (SELECT 1 FROM u WHERE u.k = t.{})",
                not(p),
                p.one(&["a", "c", "d"])
            ),
            7 => {
                let agg = p.one(&["MAX(v)", "COUNT(*)", "MIN(k)"]);
                let filter = p.one(&["", " WHERE u.k = t.d", " WHERE u.id = t.a"]);
                format!("{} {} (SELECT {agg} FROM u{filter})", operand(p), p.one(COMPARE))
            }
            8 => p.one(&["1", "0", "NULL", "a", "d"]).to_string(),
            9 => format!("({}) AND ({})", predicate(p, depth - 1), predicate(p, depth - 1)),
            10 => format!("({}) OR ({})", predicate(p, depth - 1), predicate(p, depth - 1)),
            _ => format!("NOT ({})", predicate(p, depth - 1)),
        }
    }

    /// A random `WHERE`. Some fail on every row: a function called with the
    /// wrong arity, placed where the row evaluator reaches it first, and a
    /// scalar subquery of several rows, which the row evaluator may
    /// short-circuit past (so may the planner: the whole conjunction then
    /// runs row by row).
    fn where_clause(p: &mut Picks) -> String {
        let w = predicate(p, 3);
        match p.pick(10) {
            1 => format!("LENGTH(c, 1) = 1 {} ({w})", p.one(&["AND", "OR"])),
            2 => format!("({w}) AND a = (SELECT k FROM u)"),
            _ => w,
        }
    }

    fn planned_rows(p: &PlannedMutation) -> (Vec<usize>, Vec<Vec<String>>) {
        match p {
            PlannedMutation::Update { changes, .. } => (
                changes.iter().map(|(pos, _)| *pos).collect(),
                changes.iter().map(|(_, r)| r.iter().map(Value::render).collect()).collect(),
            ),
            PlannedMutation::Delete { positions, .. } => (positions.clone(), Vec::new()),
            other => panic!("not a write plan: {other:?}"),
        }
    }

    /// The write planner runs `WHERE` through the scan's filter step: batch
    /// kernels over chunks, the row evaluator for what they cannot express.
    /// Over random multi-chunk tables and random predicates, it finds the
    /// rows the row-by-row reference finds and computes the same new rows,
    /// or both fail.
    #[test]
    fn write_planner_matches_the_row_by_row_reference() {
        const SETS: &[&str] = &[
            "a = b",
            "a = b, b = a",
            "c = c || 'x', d = NULL",
            "d = a + 1",
            "b = (SELECT MAX(v) FROM u WHERE u.k = t.c)",
            "d = CASE WHEN a > 0 THEN 'p' ELSE d END",
            "c = LENGTH(c, 1)",
        ];
        let mut runner = Runner::new("write_planner_oracle");
        let (mut matched, mut failed, mut statements) = (0, 0, 0);
        for case in 0..16 {
            let db = random_db(&mut runner);
            for _ in 0..16 {
                let mut p = Picks(
                    runner.gen_string("[ -~]{16,64}").chars().collect::<Vec<_>>().into_iter(),
                );
                let filter = match p.pick(12) {
                    1 => String::new(),
                    _ => format!(" WHERE {}", where_clause(&mut p)),
                };
                let sql = match p.pick(2) {
                    0 => format!("UPDATE t SET {}{filter}", p.one(SETS)),
                    _ => format!("DELETE FROM t{filter}"),
                };
                let stmt = parse_statement(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
                let got = plan_mutation(&db, &stmt);
                let want = plan_row_by_row(&db, &stmt);
                statements += 1;
                match (&got, &want) {
                    (Ok(g), Ok(w)) => {
                        assert_eq!(planned_rows(g), planned_rows(w), "case {case}: {sql}");
                        matched += usize::from(!planned_rows(g).0.is_empty());
                    }
                    (Err(_), Err(_)) => failed += 1,
                    _ => panic!(
                        "case {case}: {sql}: planner {:?}, reference {:?}",
                        got.err(),
                        want.err()
                    ),
                }
            }
        }
        // The generator reaches both outcomes, and matches that are not
        // the whole table.
        assert!(
            failed > 0 && matched > failed,
            "{matched} matched, {failed} failed of {statements}"
        );
    }

    fn db() -> Database {
        let mut db = Database::new("m");
        db.create_table(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Integer).primary_key(),
                ColumnDef::new("name", DataType::Text),
                ColumnDef::new("v", DataType::Integer),
            ],
        ))
        .unwrap();
        for i in 0..10i64 {
            db.insert("t", vec![i.into(), format!("row{i}").into(), (i * 10).into()]).unwrap();
        }
        db
    }

    #[test]
    fn update_assignments_see_the_pre_update_row() {
        let db = db();
        let out = commit_statement(&db, "UPDATE t SET id = v, v = id WHERE id = 3").unwrap();
        assert_eq!(out.rows_affected, 1);
        let rows = execute(&out.db, "SELECT id, v FROM t WHERE name = 'row3'").unwrap();
        assert_eq!(rows.rows[0], vec![Value::Integer(30), Value::Integer(3)]);
        // The input snapshot is untouched.
        let rows = execute(&db, "SELECT id, v FROM t WHERE name = 'row3'").unwrap();
        assert_eq!(rows.rows[0], vec![Value::Integer(3), Value::Integer(30)]);
    }

    #[test]
    fn delete_with_subquery_predicate() {
        let db = db();
        let out = commit_statement(&db, "DELETE FROM t WHERE v > (SELECT AVG(v) FROM t)").unwrap();
        assert_eq!(out.rows_affected, 5);
        assert_eq!(out.db.table("t").unwrap().len(), 5);
        assert_eq!(db.table("t").unwrap().len(), 10);
    }

    #[test]
    fn commit_cow_clones_only_the_touched_table() {
        let mut db = db();
        db.create_table(TableSchema::new(
            "u",
            vec![ColumnDef::new("id", DataType::Integer).primary_key()],
        ))
        .unwrap();
        let out = commit_statement(&db, "INSERT INTO t VALUES (99, 'x', 0)").unwrap();
        assert!(
            std::sync::Arc::ptr_eq(db.table_arc("u").unwrap(), out.db.table_arc("u").unwrap()),
            "untouched table is shared between snapshots"
        );
        assert!(
            !std::sync::Arc::ptr_eq(db.table_arc("t").unwrap(), out.db.table_arc("t").unwrap()),
            "touched table was copy-on-write cloned"
        );
        assert_eq!(out.db.version(), db.version() + 1);
    }

    #[test]
    fn zero_row_mutations_share_every_table() {
        let db = db();
        let out = commit_statement(&db, "DELETE FROM t WHERE id = 12345").unwrap();
        assert_eq!(out.rows_affected, 0);
        assert!(std::sync::Arc::ptr_eq(db.table_arc("t").unwrap(), out.db.table_arc("t").unwrap()));
    }

    #[test]
    fn write_detection_is_syntactic() {
        assert!(is_write_statement("  insert into t values (1)"));
        assert!(is_write_statement("UPDATE t SET a = 1"));
        assert!(is_write_statement("delete from t"));
        assert!(is_write_statement("CREATE TABLE x (a INTEGER)"));
        assert!(!is_write_statement("SELECT * FROM t"));
        assert!(!is_write_statement("EXPLAIN SELECT 1"));
        assert!(!is_write_statement(""));
    }

    #[test]
    fn statement_dependencies_recurse_into_subqueries() {
        let stmt = crate::parse_statement(
            "SELECT a.id FROM t AS a WHERE a.v > (SELECT AVG(v) FROM u) \
             AND EXISTS (SELECT 1 FROM w WHERE w.id = a.id)",
        )
        .unwrap();
        assert_eq!(statement_dependencies(&stmt), vec!["t", "u", "w"]);
        let stmt = crate::parse_statement("UPDATE t SET v = (SELECT MAX(v) FROM u)").unwrap();
        assert_eq!(statement_dependencies(&stmt), vec!["t", "u"]);
        let stmt = crate::parse_statement("DELETE FROM t WHERE id IN (SELECT id FROM u)").unwrap();
        assert_eq!(statement_dependencies(&stmt), vec!["t", "u"]);
    }

    /// Regression: a primary key repeated within one INSERT, or UPDATEd onto
    /// a key another row keeps, committed on both paths.
    #[test]
    fn primary_key_collisions_fail_on_both_commit_paths() {
        let mut two = Database::new("m");
        crate::execute_statement(&mut two, "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
            .unwrap();
        let dup = "INSERT INTO t VALUES (9,'a'),(9,'b')";
        assert!(commit_statement(&two, dup).is_err());
        assert!(commit_statement_rebuild(&two, dup).is_err());
        // Written in place, the first row must not stay behind either.
        let (handle, version) = (Arc::as_ptr(two.table_arc("t").unwrap()), two.version());
        assert!(crate::execute_statement(&mut two, dup).is_err());
        assert_eq!((Arc::as_ptr(two.table_arc("t").unwrap()), two.version()), (handle, version));
        let mut t = two.table("t").unwrap().clone();
        let generation = t.generation();
        assert!(t.is_empty());
        assert!(t
            .insert_many(vec![vec![9.into(), "a".into()], vec![9.into(), "b".into()]])
            .is_err());
        assert!(t.is_empty() && t.generation() == generation, "a rejected batch changes nothing");
        let db = db();
        for sql in ["INSERT INTO t VALUES (3, 'dup', 0)", "UPDATE t SET id = 1 WHERE id = 2"] {
            assert!(commit_statement(&db, sql).is_err(), "{sql}");
            assert!(commit_statement_rebuild(&db, sql).is_err(), "{sql}");
        }
    }

    /// A batch-evaluable `WHERE` runs through the batch kernels as one
    /// predicate, and they evaluate both sides of an `AND`: an erroring
    /// call behind a short-circuit fails the write, although no row gets
    /// past the left side.
    #[test]
    fn short_circuited_where_errors_surface() {
        let db = db();
        let filter = "WHERE id < 0 AND LENGTH(name, 1) = 1";
        for sql in [format!("UPDATE t SET v = 1 {filter}"), format!("DELETE FROM t {filter}")] {
            assert!(commit_statement(&db, &sql).is_err(), "{sql}");
        }
        assert!(commit_statement(&db, "DELETE FROM t WHERE id < 0 AND v = 1").is_ok());
    }

    /// `execute_statement` writes a table no other snapshot holds in place,
    /// so loading one by single-row INSERTs is linear, not a copy of the
    /// table per statement; a snapshot taken in between keeps its rows.
    #[test]
    fn execute_statement_writes_an_unshared_table_in_place() {
        let mut db = Database::new("m");
        crate::execute_statement(&mut db, "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
            .unwrap();
        let handle = Arc::as_ptr(db.table_arc("t").unwrap());
        for i in 0..1000 {
            crate::execute_statement(&mut db, &format!("INSERT INTO t VALUES ({i}, 'n{i}')"))
                .unwrap();
        }
        assert_eq!(Arc::as_ptr(db.table_arc("t").unwrap()), handle);
        assert_eq!(db.version(), 1001);
        assert_eq!(db.table("t").unwrap().row(999), vec![999.into(), "n999".into()]);
        let pin = db.clone();
        crate::execute_statement(&mut db, "UPDATE t SET name = 'x' WHERE id = 1").unwrap();
        assert_ne!(Arc::as_ptr(db.table_arc("t").unwrap()), handle, "a shared table is copied");
        assert_eq!(Arc::as_ptr(pin.table_arc("t").unwrap()), handle);
        assert_eq!(pin.table("t").unwrap().row(1)[1], Value::text("n1"));
        assert_eq!(db.table("t").unwrap().row(1)[1], Value::text("x"));
    }

    #[test]
    fn rebuild_reference_matches_incremental_on_a_smoke_case() {
        let db = db();
        for sql in [
            "INSERT INTO t VALUES (100, 'new', 1000)",
            "UPDATE t SET name = 'renamed' WHERE id < 3",
            "DELETE FROM t WHERE v >= 70",
        ] {
            let fast = commit_statement(&db, sql).unwrap();
            let slow = commit_statement_rebuild(&db, sql).unwrap();
            assert_eq!(fast.rows_affected, slow.rows_affected, "{sql}");
            assert_eq!(fast.db.version(), slow.db.version(), "{sql}");
            assert_eq!(
                fast.db.table("t").unwrap().rows(),
                slow.db.table("t").unwrap().rows(),
                "{sql}"
            );
        }
    }
}
