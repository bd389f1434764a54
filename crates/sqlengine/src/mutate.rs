//! The versioned snapshot commit path: `INSERT`/`UPDATE`/`DELETE` planned
//! against an immutable [`Database`] snapshot and applied copy-on-write.
//!
//! A commit has two halves, deliberately separated so the differential
//! oracle isolates the half that can silently rot:
//!
//! 1. **Planning** ([`plan_mutation`]): evaluate the statement against the
//!    *current* snapshot — which rows match the `WHERE`, what the new row
//!    contents are — producing a [`PlannedMutation`] of plain positions and
//!    rows. Planning runs through the ordinary expression executor, so
//!    `WHERE` predicates may contain subqueries against any table, and
//!    `UPDATE` assignment right-hand sides see the pre-update row (standard
//!    SQL semantics).
//! 2. **Application**: the same planned mutation is applied by two
//!    independent implementations. [`commit_statement`] is the production
//!    path — clone the database (cheap: tables are [`std::sync::Arc`]
//!    shared), copy-on-write only the touched table, and maintain its PK
//!    index and columnar chunks *incrementally*.
//!    [`commit_statement_rebuild`] is the naive reference — materialize the
//!    post-mutation rows and rebuild a fresh database from the schema, so
//!    every index and chunk is built from scratch. `snapshot_props.rs`
//!    asserts the two are observably identical (rows, probes, chunks,
//!    value samples, query results in both plan modes) on randomized
//!    workloads.
//!
//! The production path inserts through [`crate::storage::Table::insert`]
//! and updates through [`crate::storage::Table::update_rows`]; the
//! reference re-inserts every row through `Table::insert`. Both reject a
//! primary-key collision before mutating, so a colliding statement fails on
//! either path and publishes nothing.
//!
//! Because both paths share one planning step, any divergence the oracle
//! finds is necessarily in the incremental maintenance machinery — the part
//! the oracle exists to keep honest.

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
            let schema = db.table(&ins.table)?.schema.clone();
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
            let mut changes = Vec::new();
            for (pos, row) in table.rows().iter().enumerate() {
                let scope = Scope { cols: &cols, row, parent: None };
                if let Some(pred) = &upd.where_clause {
                    if !exec.eval(pred, &scope, None)?.to_truth().is_true() {
                        continue;
                    }
                }
                // Every RHS sees the pre-update row (standard SQL: SET a =
                // b, b = a swaps).
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

/// Applies a planned mutation to a snapshot **incrementally**: the database
/// is cloned (table handles shared), only the touched table is
/// copy-on-write cloned, and its PK index and columnar chunks are
/// maintained in place rather than rebuilt. This is the production commit
/// path.
pub fn apply_planned(db: &Database, planned: PlannedMutation) -> SqlResult<CommitOutcome> {
    let mut next = db.clone();
    next.bump_version();
    let (table, kind, rows_affected) = match planned {
        PlannedMutation::Insert { table, rows } => {
            let n = rows.len();
            if n > 0 {
                let t = next.table_mut(&table)?;
                for row in rows {
                    t.insert(row)?;
                }
            } else {
                // Statement-level validation only; nothing to copy.
                next.table(&table)?;
            }
            (table, MutationKind::Insert, n)
        }
        PlannedMutation::Update { table, changes } => {
            let n = changes.len();
            if n > 0 {
                next.table_mut(&table)?.update_rows(changes)?;
            } else {
                next.table(&table)?;
            }
            (table, MutationKind::Update, n)
        }
        PlannedMutation::Delete { table, positions } => {
            let n = positions.len();
            if n > 0 {
                next.table_mut(&table)?.delete_rows(&positions)?;
            } else {
                next.table(&table)?;
            }
            (table, MutationKind::Delete, n)
        }
        PlannedMutation::CreateTable { schema, foreign_keys } => {
            let name = schema.name.to_ascii_lowercase();
            next.create_table(schema)?;
            for fk in foreign_keys {
                next.add_foreign_key(fk);
            }
            (name, MutationKind::CreateTable, 0)
        }
    };
    let result = mutation_result(kind, rows_affected);
    Ok(CommitOutcome { db: next, table, kind, rows_affected, result })
}

/// Applies a planned mutation by **rebuilding everything**: materialize the
/// post-mutation row stores, then construct a fresh database from the
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

fn mutation_result(kind: MutationKind, rows_affected: usize) -> ResultSet {
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
    use crate::{execute, ColumnDef};

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
        assert!(commit_statement(&two, "INSERT INTO t VALUES (9,'a'),(9,'b')").is_err());
        assert!(commit_statement_rebuild(&two, "INSERT INTO t VALUES (9,'a'),(9,'b')").is_err());
        let db = db();
        for sql in ["INSERT INTO t VALUES (3, 'dup', 0)", "UPDATE t SET id = 1 WHERE id = 2"] {
            assert!(commit_statement(&db, sql).is_err(), "{sql}");
            assert!(commit_statement_rebuild(&db, sql).is_err(), "{sql}");
        }
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
