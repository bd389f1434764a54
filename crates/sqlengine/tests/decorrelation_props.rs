//! Conformance and property tests for subquery decorrelation.
//!
//! Every test triangulates three execution paths on the same query:
//!
//! 1. `PlanMode::Columnar` with the default [`PlanCache`] — correlated
//!    subqueries decorrelate into hash semi/anti/group joins;
//! 2. `PlanMode::Columnar` with [`PlanCache::without_decorrelation`] — the
//!    per-outer-row cached-plan path the rewrite replaced;
//! 3. `PlanMode::NestedLoop` — the legacy reference executor, which never
//!    decorrelates and never caches.
//!
//! All three must produce identical rows in identical order. The property
//! tests drive the triangle with random data drawn from the engine's nasty
//! value alphabet — NULL correlation keys, Integer/Real cross-typed keys,
//! numeric-looking text, duplicates — because those are exactly the places
//! where a hash-probe reimplementation of `sql_cmp` equality could drift
//! from the per-row reference.

use proptest::prelude::*;
use seed_sqlengine::{
    execute_select_with_plan_cache, parse_select, ColumnDef, DataType, Database, ExecStats,
    PlanCache, PlanMode, TableSchema, Value,
};

/// Decodes one generator character into a correlation-key value. NULL keys
/// must never match (three-valued logic), `2`/`2.0` must cross-match,
/// `'2'`/`'2.0'` are numeric-looking texts that match numbers but not each
/// other, and duplicates exercise the group-join memo.
fn decode(c: char) -> Value {
    match c {
        '0'..='4' => Value::Integer(c as i64 - '0' as i64),
        '5'..='9' => Value::Real((c as i64 - '5' as i64) as f64),
        'n' => Value::Null,
        't' => Value::text("2"),
        'T' => Value::text("2.0"),
        'x' => Value::text("x"),
        _ => Value::text(""),
    }
}

/// Builds outer table `o(id, k, v)` and inner table `i(id, k, v)` with the
/// decoded key streams and deterministic numeric payloads (every third inner
/// payload NULL, so aggregates see NULL arguments too).
fn two_tables(outer_keys: &str, inner_keys: &str) -> Database {
    let mut db = Database::new("decorr_props");
    for name in ["o", "i"] {
        db.create_table(TableSchema::new(
            name,
            vec![
                ColumnDef::new("id", DataType::Integer).primary_key(),
                ColumnDef::new("k", DataType::Text),
                ColumnDef::new("v", DataType::Real),
            ],
        ))
        .unwrap();
    }
    for (pos, c) in outer_keys.chars().enumerate() {
        db.insert("o", vec![(pos as i64).into(), decode(c), ((pos * 7 % 23) as f64).into()])
            .unwrap();
    }
    for (pos, c) in inner_keys.chars().enumerate() {
        let v = if pos % 3 == 0 { Value::Null } else { ((pos * 5 % 19) as f64).into() };
        db.insert("i", vec![(pos as i64).into(), decode(c), v]).unwrap();
    }
    db
}

/// The correlated query shapes under test: every rewritable position
/// (EXISTS, NOT EXISTS, IN, NOT IN, scalar aggregates in WHERE and in the
/// projection), plus residual predicates and multi-key correlation.
const QUERIES: &[&str] = &[
    "SELECT o.id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.k = o.k)",
    "SELECT o.id FROM o WHERE NOT EXISTS (SELECT 1 FROM i WHERE i.k = o.k)",
    "SELECT o.id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.k = o.k AND i.v > 5)",
    "SELECT o.id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.k = o.k AND i.v = o.v)",
    "SELECT o.id FROM o WHERE o.v IN (SELECT i.v FROM i WHERE i.k = o.k)",
    "SELECT o.id FROM o WHERE o.v NOT IN (SELECT i.v FROM i WHERE i.k = o.k)",
    "SELECT o.id FROM o WHERE o.id IN (SELECT i.id FROM i WHERE i.k = o.k AND i.v > 3)",
    "SELECT o.id FROM o WHERE o.v > (SELECT AVG(i.v) FROM i WHERE i.k = o.k)",
    "SELECT o.id FROM o WHERE o.v < (SELECT SUM(i.v) FROM i WHERE i.k = o.k)",
    "SELECT o.id FROM o WHERE 1 < (SELECT COUNT(*) FROM i WHERE i.k = o.k)",
    "SELECT o.id FROM o WHERE o.v = (SELECT MIN(i.v) FROM i WHERE i.k = o.k)",
    "SELECT o.id, (SELECT COUNT(*) FROM i WHERE i.k = o.k) FROM o",
    "SELECT o.id, (SELECT MAX(i.v) - MIN(i.v) FROM i WHERE i.k = o.k) FROM o",
    "SELECT o.id, (SELECT COUNT(DISTINCT i.v) FROM i WHERE i.k = o.k) FROM o",
];

/// Runs one query through all three paths, asserts row identity, and
/// returns the decorrelated path's stats.
fn triangulate(db: &Database, sql: &str) -> ExecStats {
    let stmt = parse_select(sql).unwrap();
    let n = stmt.query_count();
    let (decorr, stats) =
        execute_select_with_plan_cache(db, &stmt, PlanMode::Columnar, &PlanCache::new(n)).unwrap();
    let (perrow, perrow_stats) = execute_select_with_plan_cache(
        db,
        &stmt,
        PlanMode::Columnar,
        &PlanCache::without_decorrelation(n),
    )
    .unwrap();
    let (legacy, _) =
        execute_select_with_plan_cache(db, &stmt, PlanMode::NestedLoop, &PlanCache::new(n))
            .unwrap();
    assert_eq!(decorr.rows, legacy.rows, "decorrelated vs nested-loop: {sql}");
    assert_eq!(perrow.rows, legacy.rows, "per-row cached-plan vs nested-loop: {sql}");
    assert_eq!(perrow_stats.decorrelated_subqueries, 0, "disabled cache must not rewrite: {sql}");
    stats
}

#[test]
fn every_rewritable_shape_engages_and_matches_the_reference() {
    let db = two_tables("012341nttTx5", "0123nn5ttTx12");
    let outer_rows = 12;
    for sql in QUERIES {
        let stats = triangulate(&db, sql);
        assert_eq!(stats.decorrelated_subqueries, 1, "rewrite must engage: {sql}");
        assert_eq!(
            stats.decorrelated_probes + stats.decorrelated_memo_hits,
            outer_rows,
            "every outer row probes or hits the memo: {sql}"
        );
    }
}

#[test]
fn unrewritable_shapes_fall_back_and_still_match() {
    let db = two_tables("012341nttTx5", "0123nn5ttTx12");
    for sql in [
        // Non-equality correlation.
        "SELECT o.id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.v > o.v)",
        // Correlation under OR.
        "SELECT o.id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.k = o.k OR i.v > 9)",
        // LIMIT inside the subquery.
        "SELECT o.id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.k = o.k LIMIT 1)",
        // Scalar subquery without an aggregate (single-row errors must stay
        // per-row; this one returns at most one row per key by luck of id).
        "SELECT o.id FROM o WHERE o.id = (SELECT i.id FROM i WHERE i.k = o.k AND i.id = 4)",
    ] {
        let stats = triangulate(&db, sql);
        assert_eq!(stats.decorrelated_subqueries, 0, "must not rewrite: {sql}");
    }
}

#[test]
fn nested_subqueries_at_relocated_evaluation_sites_refuse_the_rewrite() {
    // Inner `i` has several rows, so the uncorrelated scalar subquery
    // `(SELECT i2.v FROM i AS i2)` errors ("more than one row") *if
    // evaluated*. Whether it is evaluated depends on the evaluation site:
    // the reference only reaches it for rows admitted by the correlation
    // equality (or per matched row, for an EXISTS projection), while a
    // rewrite would evaluate it on every build row — or never. These shapes
    // must therefore stay on the per-row path and agree with the reference
    // on both results *and* error status.
    let db = two_tables("0123", "5678");
    for sql in [
        // Residual conjunct containing a subquery: the reference's AND
        // short-circuit skips it whenever the correlation key mismatches.
        "SELECT o.id FROM o WHERE EXISTS \
         (SELECT 1 FROM i WHERE i.k = o.k AND (SELECT i2.v FROM i AS i2) > 0)",
        // EXISTS projection containing a subquery: evaluated per matched
        // row by the reference, discarded entirely by a semi join.
        "SELECT o.id FROM o WHERE EXISTS \
         (SELECT (SELECT i2.v FROM i AS i2) FROM i WHERE i.k = o.k)",
        // IN value column containing a subquery.
        "SELECT o.id FROM o WHERE o.v IN \
         (SELECT (SELECT i2.v FROM i AS i2) FROM i WHERE i.k = o.k)",
        // Aggregate argument containing a subquery.
        "SELECT o.id FROM o WHERE o.v > \
         (SELECT SUM((SELECT i2.v FROM i AS i2)) FROM i WHERE i.k = o.k)",
        // Residual conjunct containing an aggregate: always errors when
        // evaluated ("outside GROUP context"), but the reference's AND
        // short-circuit skips it for non-matching correlation keys.
        "SELECT o.id FROM o WHERE EXISTS \
         (SELECT 1 FROM i WHERE i.k = o.k AND SUM(i.v) > 0)",
        // Function calls can error too (unknown name / wrong arity): same
        // relocated-evaluation hazard for residuals and value columns.
        "SELECT o.id FROM o WHERE EXISTS \
         (SELECT 1 FROM i WHERE i.k = o.k AND NOSUCHFN(i.v) > 0)",
        "SELECT o.id FROM o WHERE o.v IN \
         (SELECT NOSUCHFN(i.v) FROM i WHERE i.k = o.k)",
        "SELECT o.id FROM o WHERE o.v > \
         (SELECT SUM(NOSUCHFN(i.v)) FROM i WHERE i.k = o.k)",
        "SELECT o.id FROM o WHERE EXISTS \
         (SELECT NOSUCHFN(i.v) FROM i WHERE i.k = o.k)",
    ] {
        let stmt = parse_select(sql).unwrap();
        let plans = PlanCache::new(stmt.query_count());
        let decorr = execute_select_with_plan_cache(&db, &stmt, PlanMode::Columnar, &plans);
        let legacy = execute_select_with_plan_cache(&db, &stmt, PlanMode::NestedLoop, &plans);
        match (decorr, legacy) {
            (Ok((a, stats)), Ok((b, _))) => {
                assert_eq!(a.rows, b.rows, "row divergence: {sql}");
                assert_eq!(stats.decorrelated_subqueries, 0, "must not rewrite: {sql}");
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!(
                "error-status divergence for {sql}: columnar {:?} vs nested-loop {:?}",
                a.map(|(rs, ..)| rs.rows),
                b.map(|(rs, ..)| rs.rows)
            ),
        }
    }
    // With no correlation-key overlap, the reference never evaluates the
    // erroring expression at all — the statement must succeed on the
    // (refused-rewrite) columnar path too. Only non-*pushable* residuals
    // qualify here: a pushable erroring conjunct (e.g. a bare function
    // call on the inner relation) is evaluated per scan row by predicate
    // pushdown in columnar mode regardless of decorrelation, which is the
    // engine's documented plan-dependent error behaviour.
    let disjoint = two_tables("0123", "xxxx");
    for sql in [
        "SELECT o.id FROM o WHERE EXISTS \
         (SELECT 1 FROM i WHERE i.k = o.k AND (SELECT i2.v FROM i AS i2) > 0)",
        "SELECT o.id FROM o WHERE EXISTS \
         (SELECT 1 FROM i WHERE i.k = o.k AND SUM(i.v) > 0)",
        "SELECT o.id FROM o WHERE o.v IN \
         (SELECT NOSUCHFN(i.v) FROM i WHERE i.k = o.k)",
    ] {
        let stmt = parse_select(sql).unwrap();
        let plans = PlanCache::new(stmt.query_count());
        let (rs, stats) =
            execute_select_with_plan_cache(&disjoint, &stmt, PlanMode::Columnar, &plans).unwrap();
        assert!(rs.rows.is_empty(), "{sql}");
        assert_eq!(stats.decorrelated_subqueries, 0, "{sql}");
    }
}

#[test]
fn empty_build_side_answers_every_probe() {
    // No inner rows at all: EXISTS is false, NOT EXISTS true, COUNT(*) 0,
    // SUM/AVG NULL for every outer row — with a zero-row build.
    let db = two_tables("0123", "");
    for sql in QUERIES {
        let stats = triangulate(&db, sql);
        assert_eq!(stats.decorrelated_subqueries, 1, "rewrite engages even empty: {sql}");
    }
}

proptest! {
    /// The full query matrix stays row-identical across all three paths for
    /// arbitrary key streams (NULLs, cross-typed numbers, numeric text,
    /// duplicates) on both sides of the correlation.
    #[test]
    fn decorrelation_matches_reference_on_random_data(
        outer in "[0-9ntTx]{0,14}",
        inner in "[0-9ntTx]{0,20}",
    ) {
        let db = two_tables(&outer, &inner);
        for sql in QUERIES {
            triangulate(&db, sql);
        }
    }
}
