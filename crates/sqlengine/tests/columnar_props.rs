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
    execute_select_with_plan_cache, execute_with_stats_mode, parse_select, ColumnDef, DataType,
    Database, PlanCache, PlanMode, PreparedStatement, TableSchema, Value, BATCH_SIZE,
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

/// One table whose cells collide under `grouping_eq` and `sql_cmp`: NULLs,
/// NaN (which groups with every number), both signed zeros, and `1` next to
/// `1.0` and `'1'`. `x` mixes every class in one column (mixed storage);
/// `r` is a typed real column holding NaN and both zeros.
fn collision_db() -> Database {
    let mut db = Database::new("collide");
    db.create_table(TableSchema::new(
        "d",
        vec![
            ColumnDef::new("id", DataType::Integer).primary_key(),
            ColumnDef::new("x", DataType::Text),
            ColumnDef::new("r", DataType::Real),
        ],
    ))
    .unwrap();
    let xs = [
        Value::Integer(1),
        Value::Null,
        Value::Real(1.0),
        Value::text("1"),
        Value::Real(-0.0),
        Value::Real(f64::NAN),
        Value::Integer(0),
        Value::Real(0.0),
        Value::Null,
        Value::text("nan"),
        Value::Integer(2),
        Value::text("1"),
    ];
    let rs = [
        Value::Real(-0.0),
        Value::Real(0.0),
        Value::Null,
        Value::Real(1.0),
        Value::Real(f64::NAN),
        Value::Real(2.0),
        Value::Null,
        Value::Real(f64::NAN),
        Value::Real(0.0),
        Value::Real(-0.0),
        Value::Real(3.5),
        Value::Real(1.0),
    ];
    for (i, (x, r)) in xs.iter().zip(&rs).enumerate() {
        db.insert("d", vec![Value::Integer(i as i64), x.clone(), r.clone()]).unwrap();
    }
    db
}

/// DISTINCT and GROUP BY over cells that collide under `grouping_eq`: NULL
/// groups with NULL, `1` with `1.0` (not with `'1'`), `-0.0` with `0.0`,
/// and NaN with whichever number came first — the first-seen row of each
/// group is the one both modes must emit.
#[test]
fn distinct_over_colliding_cells() {
    let db = collision_db();
    for sql in [
        "SELECT DISTINCT x FROM d",
        "SELECT DISTINCT r FROM d",
        "SELECT DISTINCT x, r FROM d",
        "SELECT DISTINCT r, x FROM d LIMIT 4",
        "SELECT DISTINCT x FROM d LIMIT 3 OFFSET 2",
        "SELECT DISTINCT x FROM d ORDER BY 1",
        "SELECT DISTINCT r FROM d WHERE id > 3",
        "SELECT DISTINCT x || '' FROM d",
        "SELECT x, COUNT(*) FROM d GROUP BY x",
        "SELECT r, COUNT(*), MIN(x) FROM d GROUP BY r",
        "SELECT DISTINCT COUNT(*) FROM d GROUP BY x",
        "SELECT DISTINCT COUNT(*) FROM d GROUP BY r LIMIT 2",
    ] {
        assert_both_modes(&db, sql);
    }
    // `1`, `1.0` and `'1'`: the numbers collapse, the text stays apart.
    let rows = assert_both_modes(&db, "SELECT DISTINCT x FROM d WHERE id IN (0, 2, 3, 11)");
    assert_eq!(rows, vec![vec!["1".to_string()], vec!["1".to_string()]]);
}

/// A table of `n` rows whose columns change storage class between chunks:
/// `a` is integer in the first chunk and numeric text after it, `b` mixes
/// integer, real and text cells in every chunk, `s` is plain text.
fn mixed_storage_db(n: usize) -> Database {
    let mut db = Database::new("mixed");
    db.create_table(TableSchema::new(
        "m",
        vec![
            ColumnDef::new("id", DataType::Integer).primary_key(),
            ColumnDef::new("a", DataType::Text),
            ColumnDef::new("b", DataType::Text),
            ColumnDef::new("s", DataType::Text),
        ],
    ))
    .unwrap();
    for i in 0..n {
        let a = if i < BATCH_SIZE {
            Value::Integer((i % 5) as i64)
        } else {
            Value::text((i % 5).to_string())
        };
        let b = match i % 3 {
            0 => Value::Integer((i % 4) as i64),
            1 => Value::Real((i % 4) as f64),
            _ => Value::text((i % 4).to_string()),
        };
        let s = Value::text(format!("x{}", i % 10));
        db.insert("m", vec![Value::Integer(i as i64), a, b, s]).unwrap();
    }
    db
}

/// Filters, DISTINCT and LIMIT over columns whose storage is typed in one
/// chunk and different in the next, or mixed within a chunk.
#[test]
fn mixed_storage_columns() {
    let db = mixed_storage_db(2 * BATCH_SIZE + 100);
    for sql in [
        "SELECT DISTINCT a FROM m",
        "SELECT DISTINCT b FROM m LIMIT 7",
        "SELECT DISTINCT a, b FROM m LIMIT 9 OFFSET 4",
        "SELECT COUNT(*) FROM m WHERE a = 1",
        "SELECT COUNT(*) FROM m WHERE a = '1'",
        "SELECT COUNT(*) FROM m WHERE b > 1.5",
        "SELECT COUNT(*) FROM m WHERE 2 <= b",
        "SELECT id FROM m WHERE a IN (1, '3') AND b BETWEEN 1 AND '2' LIMIT 20",
        "SELECT a + 1, b * 2, -b FROM m WHERE id % 97 = 0",
        "SELECT a, COUNT(*), SUM(b) FROM m GROUP BY a",
        "SELECT DISTINCT s FROM m LIMIT 5 OFFSET 3",
    ] {
        assert_both_modes(&db, sql);
    }
}

/// DISTINCT and LIMIT/OFFSET whose cut falls at, just before and just past
/// the 1,024-row chunk boundary, with and without a selection in front.
#[test]
fn limit_and_distinct_across_the_chunk_boundary() {
    let n = 2 * BATCH_SIZE + 100;
    let db = boundary_db(n);
    let b = BATCH_SIZE;
    let cases = [
        (format!("SELECT v FROM t LIMIT {b}"), b),
        (format!("SELECT v FROM t LIMIT {}", b - 1), b - 1),
        (format!("SELECT v FROM t LIMIT {}", b + 1), b + 1),
        (format!("SELECT v FROM t LIMIT 1 OFFSET {}", b - 1), 1),
        (format!("SELECT v FROM t LIMIT 2 OFFSET {}", b - 1), 2),
        (format!("SELECT v FROM t LIMIT 5 OFFSET {}", n - 3), 3),
        (format!("SELECT v FROM t LIMIT 0 OFFSET {b}"), 0),
        (format!("SELECT v FROM t WHERE v > 1000 LIMIT 30 OFFSET {}", b - 1010), 30),
        (format!("SELECT DISTINCT v / {b} FROM t LIMIT 3"), 3),
        (format!("SELECT DISTINCT v / {b} FROM t LIMIT 2 OFFSET 1"), 2),
        (format!("SELECT DISTINCT v FROM t WHERE v >= {} LIMIT 8", b - 4), 8),
        ("SELECT DISTINCT g FROM t LIMIT 3 OFFSET 5".to_string(), 2),
        ("SELECT DISTINCT g, r IS NULL FROM t LIMIT 20".to_string(), 14),
        ("SELECT v FROM t ORDER BY v DESC LIMIT 3 OFFSET 1022".to_string(), 3),
        ("SELECT v FROM t LIMIT 9223372036854775807 OFFSET 1".to_string(), n - 1),
        ("SELECT v FROM t LIMIT 9223372036854775807 OFFSET 9223372036854775807".to_string(), 0),
    ];
    for (sql, rows) in &cases {
        assert_eq!(assert_both_modes(&db, sql).len(), *rows, "{sql}");
    }

    // `u64::MAX` does not lex as a number, so both modes reject the text
    // alike; set on a parsed statement, `OFFSET + LIMIT` saturates instead
    // of wrapping to a cut before the first row.
    let sql = "SELECT v FROM t LIMIT 18446744073709551615 OFFSET 1";
    let col = execute_with_stats_mode(&db, sql, PlanMode::Columnar).map(|(rs, _)| rs.rows);
    let nl = execute_with_stats_mode(&db, sql, PlanMode::NestedLoop).map(|(rs, _)| rs.rows);
    assert!(col.is_err(), "{sql}");
    assert_eq!(col, nl, "{sql}");
    for (sql, rows) in [("SELECT v FROM t", n - 1), ("SELECT DISTINCT g FROM t", 6)] {
        let mut stmt = parse_select(&format!("{sql} LIMIT 1 OFFSET 1")).unwrap();
        stmt.limit = Some(u64::MAX);
        let run = |mode| {
            let plans = PlanCache::new(stmt.query_count());
            let (rs, _) = execute_select_with_plan_cache(&db, &stmt, mode, &plans).unwrap();
            rendered(&rs.rows)
        };
        let col = run(PlanMode::Columnar);
        assert_eq!(col, run(PlanMode::NestedLoop), "{sql} LIMIT u64::MAX OFFSET 1");
        assert_eq!(col.len(), rows, "{sql} LIMIT u64::MAX OFFSET 1");
    }
}

/// `LIKE` with a NULL pattern, patterns computed per row, and integer and
/// real cells, which match as rendered.
#[test]
fn like_with_null_computed_patterns_and_numeric_cells() {
    let db = boundary_db(BATCH_SIZE + 50);
    for sql in [
        "SELECT id FROM t WHERE v LIKE NULL",
        "SELECT id FROM t WHERE NULL LIKE '%'",
        "SELECT id FROM t WHERE v NOT LIKE NULL",
        "SELECT id FROM t WHERE v LIKE '1%0'",
        "SELECT id, v LIKE '%7' FROM t WHERE id < 40",
        "SELECT id FROM t WHERE r LIKE '%.5'",
        "SELECT id FROM t WHERE v LIKE g || '%'",
        "SELECT id FROM t WHERE '1037' LIKE v",
        "SELECT id FROM t WHERE v LIKE '_' || g",
        "SELECT COUNT(*) FROM t WHERE v NOT LIKE '%1%'",
    ] {
        assert_both_modes(&db, sql);
    }
    let db = mixed_storage_db(BATCH_SIZE + 50);
    for sql in [
        "SELECT id FROM m WHERE a LIKE '1'",
        "SELECT DISTINCT b FROM m WHERE b LIKE '%1%'",
        "SELECT id FROM m WHERE s LIKE '%' || a LIMIT 30",
        "SELECT DISTINCT s FROM m WHERE s LIKE 'X_' LIMIT 4",
    ] {
        assert_both_modes(&db, sql);
    }
}

/// Typed integer, real and text columns compared against scalars of every
/// class, on either side: text that parses as a float compares
/// numerically (`'nan'` equal to every number, `'-inf'` below all), text
/// that does not sorts after every number.
#[test]
fn typed_scalar_compares_against_float_text() {
    let db = boundary_db(BATCH_SIZE + 50);
    for sql in [
        "SELECT id FROM t WHERE v = '5'",
        "SELECT id FROM t WHERE v = ' 5'",
        "SELECT COUNT(*) FROM t WHERE v < '2.5'",
        "SELECT COUNT(*) FROM t WHERE v > 'nan'",
        "SELECT COUNT(*) FROM t WHERE v = 'nan'",
        "SELECT COUNT(*) FROM t WHERE r >= '-inf'",
        "SELECT COUNT(*) FROM t WHERE r = 'NaN'",
        "SELECT COUNT(*) FROM t WHERE v <> 'abc'",
        "SELECT COUNT(*) FROM t WHERE v < 'abc'",
        "SELECT COUNT(*) FROM t WHERE '10' > v",
        "SELECT COUNT(*) FROM t WHERE 'abc' > r",
        "SELECT COUNT(*) FROM t WHERE r <= 2.0",
        "SELECT COUNT(*) FROM t WHERE v >= 1.5 AND v < 1000.0",
        "SELECT COUNT(*) FROM t WHERE v = NULL",
        "SELECT COUNT(*) FROM t WHERE 1 = 1",
        "SELECT COUNT(*) FROM t WHERE 1 = 2 OR v = 3",
    ] {
        assert_both_modes(&db, sql);
    }
    let db = collision_db();
    for sql in [
        "SELECT id FROM d WHERE x = '1'",
        "SELECT id FROM d WHERE x = 1",
        "SELECT id FROM d WHERE x > '0.5'",
        "SELECT id FROM d WHERE r = 'nan'",
        "SELECT id FROM d WHERE r < 'x'",
        "SELECT id FROM d WHERE x <> 'nan'",
        "SELECT id FROM d WHERE 0 = r",
    ] {
        assert_both_modes(&db, sql);
    }
}
