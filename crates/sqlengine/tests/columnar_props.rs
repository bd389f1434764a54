//! Differential property tests for the vectorized columnar executor: over
//! randomized schemas populated with NULLs, NaNs, signed zeros, and
//! cross-typed values (numbers stored next to numeric-looking text), every
//! query of a battery covering filters, equi- and residual joins, grouping,
//! HAVING, DISTINCT aggregates, DISTINCT, CASE, and ORDER BY/LIMIT must be
//! row-identical — order included — between both execution modes:
//! `Columnar` (vectorized, the production executor) and `NestedLoop` (the
//! original cross-product oracle).
//!
//! Rows are compared by *rendered* text, not `Value` equality: `PartialEq`
//! for `Value` is `grouping_eq`, under which NaN equals every number and
//! `2` equals `2.0` — too coarse for a differential harness. Rendering
//! distinguishes all of those (`NaN` vs `3.0`, `2` vs `2.0`, `-0.0` vs
//! `0.0`) while remaining total.

use proptest::prelude::*;
use seed_sqlengine::{
    execute_with_stats_mode, ColumnDef, DataType, Database, PlanMode, PreparedStatement,
    TableSchema, Value, BATCH_SIZE,
};

/// Decodes one generator character into a cell. The alphabet deliberately
/// collides classes: integers around zero, reals that `grouping_eq` some of
/// the integers (`2.0`), signed zeros, NaN (inserted directly — it cannot be
/// written as a SQL literal), byte-exact text, and numeric-looking text that
/// compares *numerically* against numbers under `sql_cmp` (`"2"`, `"2.0"`,
/// and even `"nan"`, which parses as a float).
fn decode(c: char) -> Value {
    match c {
        '0'..='9' => Value::Integer(c as i64 - '0' as i64 - 4),
        'n' | 'N' => Value::Null,
        'r' => Value::Real(2.0),
        'R' => Value::Real(-3.5),
        'z' => Value::Real(0.0),
        'Z' => Value::Real(-0.0),
        't' => Value::text("2"),
        'T' => Value::text("2.0"),
        'x' => Value::text("x"),
        'X' => Value::text("X"),
        'q' => Value::Real(f64::NAN),
        'Q' => Value::text("nan"),
        'b' => Value::Integer(i64::MAX),
        'B' => Value::Integer(i64::MAX - 1),
        _ => Value::text(""),
    }
}

/// Two-table database built from the generator string: consecutive character
/// pairs become `(k, v)` rows dealt alternately to `t1` and `t2`, so the
/// tables share a value distribution (join keys actually collide) without
/// being identical.
fn build_db(s: &str) -> Database {
    let mut db = Database::new("prop");
    for name in ["t1", "t2"] {
        db.create_table(TableSchema::new(
            name,
            vec![
                ColumnDef::new("id", DataType::Integer).primary_key(),
                ColumnDef::new("k", DataType::Text),
                ColumnDef::new("v", DataType::Text),
            ],
        ))
        .unwrap();
    }
    let cells: Vec<Value> = s.chars().map(decode).collect();
    for (i, pair) in cells.chunks_exact(2).enumerate() {
        let table = if i % 2 == 0 { "t1" } else { "t2" };
        db.insert(table, vec![Value::Integer(i as i64), pair[0].clone(), pair[1].clone()]).unwrap();
    }
    db
}

/// The query battery: every shape the columnar pipeline implements natively
/// (scan, batch filters, hash join build/probe, residual ON predicates,
/// LEFT padding, grouped aggregates, DISTINCT, ORDER BY/LIMIT) plus shapes
/// that exercise its row-fallback boundary.
const QUERIES: &[&str] = &[
    "SELECT id, k, v FROM t1",
    "SELECT id, v FROM t1 WHERE v > 0",
    "SELECT id FROM t1 WHERE v = '2' OR k IS NULL",
    "SELECT id FROM t1 WHERE v BETWEEN -2 AND 2",
    "SELECT id FROM t1 WHERE v IN (1, '2', 2.0) AND NOT (k < 0)",
    "SELECT id, k + v, k || v FROM t1 WHERE NOT (v IS NULL)",
    "SELECT a.id, b.id, a.k FROM t1 AS a INNER JOIN t2 AS b ON a.k = b.k",
    "SELECT a.id, b.v FROM t1 AS a LEFT JOIN t2 AS b ON a.k = b.k",
    "SELECT a.id, b.id FROM t1 AS a INNER JOIN t2 AS b ON a.k = b.k AND a.v > b.v",
    "SELECT a.id, b.id FROM t1 AS a LEFT JOIN t2 AS b ON a.k = b.k AND a.v > b.v",
    "SELECT k, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM t1 GROUP BY k",
    "SELECT k, COUNT(*) FROM t1 GROUP BY k HAVING COUNT(*) > 1 ORDER BY 2 DESC, 1",
    "SELECT COUNT(DISTINCT v), SUM(DISTINCT v), COUNT(*) FROM t1",
    "SELECT DISTINCT v FROM t1 ORDER BY 1",
    "SELECT v FROM t1 ORDER BY v DESC, id LIMIT 5 OFFSET 1",
    "SELECT k, CASE WHEN v > 0 THEN 'pos' WHEN v = 0 THEN 'zero' ELSE 'other' END FROM t1",
    "SELECT a.k, COUNT(*) FROM t1 AS a INNER JOIN t2 AS b ON a.k = b.k GROUP BY a.k",
    "SELECT id FROM t1 WHERE v > (SELECT AVG(v) FROM t2)",
    "SELECT id FROM t1 WHERE EXISTS (SELECT 1 FROM t2 WHERE t2.k = t1.k)",
];

/// Strict row identity: headers, row count, row order, and the *rendered*
/// form of every cell.
fn rendered(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    rows.iter().map(|r| r.iter().map(Value::render).collect()).collect()
}

proptest! {
    /// The headline differential property: columnar and nested-loop
    /// execution agree on every query of the battery, for every randomized
    /// database.
    #[test]
    fn columnar_matches_row_and_nested_loop(s in "[0-9nNrRzZtTxXqQbB ]{0,64}") {
        let db = build_db(&s);
        for sql in QUERIES {
            let col = execute_with_stats_mode(&db, sql, PlanMode::Columnar);
            let legacy = execute_with_stats_mode(&db, sql, PlanMode::NestedLoop);
            // Errors (none expected from this battery) must agree too.
            prop_assert_eq!(col.is_ok(), legacy.is_ok(), "ok-mismatch on {}", sql);
            let (Ok((col, _)), Ok((legacy, _))) = (col, legacy) else {
                continue;
            };
            prop_assert_eq!(&col.columns, &legacy.columns, "headers on {}", sql);
            prop_assert_eq!(
                rendered(&col.rows), rendered(&legacy.rows),
                "columnar vs nested-loop on {} over {:?}", sql, s
            );
        }
    }

    /// Columnar stats are deterministic (the VES cost contract extends to
    /// the new mode) and the batch counters actually engage on scans.
    #[test]
    fn columnar_stats_are_deterministic_and_batched(s in "[0-9nNrRzZtTxXqQ ]{2,48}") {
        let db = build_db(&s);
        let sql = "SELECT id, k, v FROM t1 WHERE v > 0";
        let (a, stats_a) = execute_with_stats_mode(&db, sql, PlanMode::Columnar).unwrap();
        let (b, stats_b) = execute_with_stats_mode(&db, sql, PlanMode::Columnar).unwrap();
        prop_assert_eq!(rendered(&a.rows), rendered(&b.rows));
        prop_assert_eq!(&stats_a, &stats_b);
        prop_assert!(stats_a.cost() > 0.0);
        if !db.table("t1").unwrap().rows().is_empty() {
            prop_assert!(stats_a.batches_built >= 1, "scan must produce batches");
            prop_assert_eq!(
                stats_a.batch_rows >= db.table("t1").unwrap().rows().len() as u64,
                true
            );
        }
    }
}

/// Asserts a query renders row-identically (headers, order, cell text) in
/// both execution modes, returning the columnar result.
fn assert_both_modes(db: &Database, sql: &str) -> Vec<Vec<String>> {
    let (col, _) = execute_with_stats_mode(db, sql, PlanMode::Columnar)
        .unwrap_or_else(|e| panic!("columnar failed on {sql}: {e}"));
    let (nl, _) = execute_with_stats_mode(db, sql, PlanMode::NestedLoop)
        .unwrap_or_else(|e| panic!("nested-loop failed on {sql}: {e}"));
    assert_eq!(col.columns, nl.columns, "headers on {sql}");
    let (rc, rn) = (rendered(&col.rows), rendered(&nl.rows));
    assert_eq!(rc, rn, "columnar vs nested-loop on {sql}");
    rc
}

/// A multi-chunk single table for the selection-vector edge cases: `n` rows
/// where `v` mirrors the row number (a plain column, NOT the primary key, so
/// equality predicates run through the columnar filter rather than the PK
/// index), `r` alternates Real/NULL, and `g` cycles through 7 group keys.
fn boundary_db(n: usize) -> Database {
    let mut db = Database::new("edge");
    db.create_table(TableSchema::new(
        "t",
        vec![
            ColumnDef::new("id", DataType::Integer).primary_key(),
            ColumnDef::new("v", DataType::Integer),
            ColumnDef::new("r", DataType::Real),
            ColumnDef::new("g", DataType::Integer),
        ],
    ))
    .unwrap();
    for i in 0..n {
        let r = if i % 3 == 0 { Value::Null } else { Value::Real(i as f64 / 2.0) };
        db.insert(
            "t",
            vec![
                Value::Integer(i as i64),
                Value::Integer(i as i64),
                r,
                Value::Integer((i % 7) as i64),
            ],
        )
        .unwrap();
    }
    db
}

/// Empty selection: a filter no row survives must yield zero rows in every
/// downstream shape (projection, aggregation with and without GROUP BY).
#[test]
fn selection_vector_empty_selection() {
    let db = boundary_db(2 * BATCH_SIZE + 100);
    assert_eq!(
        assert_both_modes(&db, "SELECT id, v FROM t WHERE v < 0"),
        Vec::<Vec<String>>::new()
    );
    assert_eq!(assert_both_modes(&db, "SELECT g, COUNT(*) FROM t WHERE v < 0 GROUP BY g").len(), 0);
    // Ungrouped aggregate over an empty selection still produces its one row.
    let rows = assert_both_modes(&db, "SELECT COUNT(*), SUM(v), MIN(r) FROM t WHERE v < 0");
    assert_eq!(rows, vec![vec!["0".to_string(), "NULL".to_string(), "NULL".to_string()]]);
}

/// All-rows selection: a tautological (but not constant-foldable) predicate
/// keeps every row, exercising the all-live fast path end to end.
#[test]
fn selection_vector_all_rows_selection() {
    let db = boundary_db(2 * BATCH_SIZE + 100);
    let rows = assert_both_modes(&db, "SELECT id FROM t WHERE v >= 0");
    assert_eq!(rows.len(), 2 * BATCH_SIZE + 100);
    let rows = assert_both_modes(&db, "SELECT g, COUNT(*), SUM(v) FROM t WHERE v >= 0 GROUP BY g");
    assert_eq!(rows.len(), 7);
}

/// A single surviving row straddling the chunk boundary: positions
/// `BATCH_SIZE - 1`, `BATCH_SIZE`, and `BATCH_SIZE + 1` (1023/1024/1025 as
/// row numbers 1024/1025/1026) each survive alone, through both the bare
/// projection and a grouped aggregate.
#[test]
fn selection_vector_single_survivor_at_chunk_boundary() {
    let db = boundary_db(2 * BATCH_SIZE + 100);
    for target in [BATCH_SIZE - 1, BATCH_SIZE, BATCH_SIZE + 1] {
        let sql = format!("SELECT id, v, g FROM t WHERE v = {target}");
        let rows = assert_both_modes(&db, &sql);
        assert_eq!(rows.len(), 1, "exactly one survivor for {sql}");
        assert_eq!(rows[0][0], target.to_string());
        let sql =
            format!("SELECT g, COUNT(*), SUM(v), AVG(r) FROM t WHERE v = {target} GROUP BY g");
        assert_eq!(assert_both_modes(&db, &sql).len(), 1);
    }
}

/// Wide aggregate lists: at least four aggregates per query over mixed
/// Int/Real/NULL columns, with conjunctive filters in front so the grouped
/// pipeline consumes a refined selection.
#[test]
fn wide_aggregate_lists_over_mixed_columns() {
    let db = boundary_db(2 * BATCH_SIZE + 100);
    for sql in [
        "SELECT g, COUNT(*), COUNT(r), SUM(v), SUM(r), AVG(r), MIN(r), MAX(v) FROM t GROUP BY g \
         ORDER BY g",
        "SELECT g, SUM(v), AVG(v), MIN(v), MAX(r), COUNT(DISTINCT r) FROM t \
         WHERE v >= 10 AND v < 2000 GROUP BY g HAVING COUNT(*) > 2 ORDER BY g",
        "SELECT COUNT(*), COUNT(r), SUM(r), AVG(r), MIN(v), MAX(r) FROM t WHERE g <> 3",
    ] {
        assert_both_modes(&db, sql);
    }
}

/// The snapshot-invalidation contract from the executor's point of view: one
/// prepared statement (stable AST address, cached plans), executed in
/// columnar mode, must observe rows inserted between two executions.
#[test]
fn prepared_statement_sees_mutation_between_executions() {
    let mut db = boundary_db(BATCH_SIZE + 5);
    let stmt = PreparedStatement::parse("SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g ORDER BY g")
        .unwrap();
    let (before, _) = stmt.execute(&db).unwrap();
    for i in 0..10 {
        let id = (BATCH_SIZE + 5 + i) as i64;
        db.insert("t", vec![id.into(), id.into(), Value::Real(id as f64), (id % 7).into()])
            .unwrap();
    }
    let (after, _) = stmt.execute(&db).unwrap();
    assert_ne!(
        rendered(&before.rows),
        rendered(&after.rows),
        "second execution must see the inserted rows, not a stale snapshot"
    );
    // And the refreshed result still matches the nested-loop oracle.
    let (nl, _) = execute_with_stats_mode(&db, stmt.sql(), PlanMode::NestedLoop).unwrap();
    assert_eq!(rendered(&after.rows), rendered(&nl.rows));
}
