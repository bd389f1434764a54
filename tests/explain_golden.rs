//! Golden-file tests for `EXPLAIN`, plus the determinism guard for
//! `EXPLAIN ANALYZE`.
//!
//! The golden half pins the exact `EXPLAIN` rendering — plan mode, operator
//! tree, decorrelation verdicts, columnar bridge notes — for a battery of
//! representative queries in both plan modes against files in
//! `tests/golden/`. `EXPLAIN` is purely static (plans, never executes), so
//! its output is byte-deterministic and safe to pin. Regenerate after an
//! intentional planner/renderer change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test explain_golden
//! ```
//!
//! The guard half proves the observability invariant the whole profiling
//! subsystem rests on: running a statement under the per-operator profiler
//! (what `EXPLAIN ANALYZE` does) leaves result rows and every
//! [`ExecStats`] counter — hence `cost()` — bit-identical to an unprofiled
//! run. Wall-clock measurements exist only in the rendered `ANALYZE` text,
//! never in the deterministic stats the VES metric consumes.

use std::path::{Path, PathBuf};

use seed_repro::sqlengine::{
    execute, execute_select_profiled, execute_statement, execute_with_stats_mode, explain_sql,
    explain_text, parse_select, Database, PlanCache, PlanMode,
};

/// A small deterministic banking schema in the BIRD "financial" idiom:
/// enough structure to exercise PK lookups, pushdown, hash and non-equi
/// joins, grouping, and every subquery strategy.
fn test_db() -> Database {
    let mut db = Database::new("explain_golden");
    execute_statement(
        &mut db,
        "CREATE TABLE account (account_id INTEGER PRIMARY KEY, district_id INTEGER)",
    )
    .unwrap();
    execute_statement(
        &mut db,
        "CREATE TABLE loan (loan_id INTEGER PRIMARY KEY, account_id INTEGER, \
         amount REAL, status TEXT)",
    )
    .unwrap();
    execute_statement(
        &mut db,
        "CREATE TABLE district (district_id INTEGER PRIMARY KEY, name TEXT)",
    )
    .unwrap();
    for i in 0..5i64 {
        execute_statement(&mut db, &format!("INSERT INTO district VALUES ({i}, 'd{i}')")).unwrap();
    }
    for i in 0..30i64 {
        execute_statement(&mut db, &format!("INSERT INTO account VALUES ({i}, {})", i % 5))
            .unwrap();
        execute_statement(
            &mut db,
            &format!(
                "INSERT INTO loan VALUES ({i}, {}, {}.0, '{}')",
                i % 30,
                (i * 37) % 1000,
                if i % 3 == 0 { "A" } else { "B" }
            ),
        )
        .unwrap();
    }
    db
}

/// The golden battery: one entry per pinned rendering. Each SQL is a bare
/// SELECT (explained under the entry's mode); the same list drives the
/// `EXPLAIN ANALYZE` determinism guard.
const CASES: &[(&str, PlanMode, &str)] = &[
    (
        "seqscan_pushdown",
        PlanMode::Columnar,
        "SELECT loan_id FROM loan WHERE amount > 100 AND status = 'A'",
    ),
    ("pk_lookup", PlanMode::Columnar, "SELECT district_id FROM account WHERE account_id = 5"),
    (
        "hash_join_columnar",
        PlanMode::Columnar,
        "SELECT account.district_id, loan.amount FROM account \
         INNER JOIN loan ON account.account_id = loan.account_id \
         WHERE loan.amount > 50 ORDER BY loan.loan_id",
    ),
    (
        "hash_join_nested_loop",
        PlanMode::NestedLoop,
        "SELECT account.district_id, loan.amount FROM account \
         INNER JOIN loan ON account.account_id = loan.account_id \
         WHERE loan.amount > 50 ORDER BY loan.loan_id",
    ),
    (
        "grouped_aggregate_columnar",
        PlanMode::Columnar,
        "SELECT account.district_id, COUNT(*), SUM(loan.amount) FROM account \
         INNER JOIN loan ON account.account_id = loan.account_id \
         GROUP BY account.district_id ORDER BY account.district_id",
    ),
    (
        "exists_decorrelated",
        PlanMode::Columnar,
        "SELECT account_id FROM account WHERE EXISTS \
         (SELECT 1 FROM loan WHERE loan.account_id = account.account_id AND loan.amount > 500)",
    ),
    (
        "scalar_aggregate_group_join",
        PlanMode::Columnar,
        "SELECT l1.loan_id FROM loan AS l1 WHERE l1.amount > \
         (SELECT AVG(l2.amount) FROM loan AS l2 WHERE l2.account_id = l1.account_id)",
    ),
    (
        "uncorrelated_scalar_columnar",
        PlanMode::Columnar,
        "SELECT loan_id FROM loan WHERE amount > (SELECT AVG(amount) FROM loan) \
         ORDER BY loan_id",
    ),
    (
        "decorrelation_refused",
        PlanMode::Columnar,
        "SELECT account_id FROM account WHERE EXISTS \
         (SELECT 1 FROM loan WHERE loan.account_id > account.account_id)",
    ),
    (
        "non_equi_join_columnar",
        PlanMode::Columnar,
        "SELECT account.account_id FROM account \
         INNER JOIN loan ON loan.amount > account.account_id \
         WHERE account.district_id = 2",
    ),
    (
        "derived_table",
        PlanMode::Columnar,
        "SELECT x.d FROM (SELECT district_id AS d FROM account WHERE account_id < 10) AS x \
         ORDER BY x.d",
    ),
];

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"))
}

#[test]
fn explain_matches_golden_files() {
    let db = test_db();
    let bless = std::env::var("UPDATE_GOLDEN").is_ok();
    let mut mismatches = Vec::new();
    for (name, mode, sql) in CASES {
        let stmt = parse_select(sql).unwrap();
        let rendered = explain_text(&db, &stmt, *mode).unwrap();
        let path = golden_path(name);
        if bless {
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing golden file {} ({e}); run with UPDATE_GOLDEN=1", path.display())
        });
        if rendered != expected {
            mismatches.push(format!(
                "=== {name} ===\n--- expected ---\n{expected}\n--- rendered ---\n{rendered}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "EXPLAIN golden mismatches (UPDATE_GOLDEN=1 to regenerate):\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn explain_is_reachable_through_the_sql_surface() {
    let db = test_db();
    // `EXPLAIN <select>` executes as a statement and returns the rendering
    // as one QUERY PLAN row per line, under the default (Columnar) mode.
    let rs = execute(&db, "EXPLAIN SELECT loan_id FROM loan WHERE amount > 100").unwrap();
    assert_eq!(rs.columns, vec!["QUERY PLAN".to_string()]);
    let lines: Vec<String> = rs.rows.iter().map(|r| r[0].render()).collect();
    assert_eq!(lines[0], "Plan mode: Columnar");
    assert!(lines.iter().any(|l| l.contains("SeqScan loan")), "{lines:?}");
    // And `explain_sql` accepts the same text under an explicit mode.
    let nested = explain_sql(
        &db,
        "EXPLAIN SELECT loan_id FROM loan WHERE amount > 100",
        PlanMode::NestedLoop,
    )
    .unwrap();
    assert_eq!(nested.rows[0][0].render(), "Plan mode: NestedLoop");
}

#[test]
fn explain_analyze_renders_measurements_in_every_mode() {
    let db = test_db();
    for mode in [PlanMode::Columnar, PlanMode::NestedLoop] {
        let rs = explain_sql(
            &db,
            "EXPLAIN ANALYZE SELECT account.district_id, loan.amount FROM account \
             INNER JOIN loan ON account.account_id = loan.account_id \
             WHERE loan.amount > 50 ORDER BY loan.loan_id",
            mode,
        )
        .unwrap();
        let text: Vec<String> = rs.rows.iter().map(|r| r[0].render()).collect();
        let joined = text.join("\n");
        assert!(
            joined.contains("rows=") && joined.contains("time=") && joined.contains("invocations="),
            "mode {mode:?} must render measured per-operator lines:\n{joined}"
        );
        assert!(joined.contains("Execution:"), "summary line present ({mode:?})");
        assert!(joined.contains("ExecStats:"), "stats block present ({mode:?})");
        if mode == PlanMode::Columnar {
            assert!(joined.contains("batches="), "columnar profile reports batches:\n{joined}");
        }
    }
}

#[test]
fn plain_explain_never_contains_measurements() {
    let db = test_db();
    for (name, mode, sql) in CASES {
        let stmt = parse_select(sql).unwrap();
        let rendered = explain_text(&db, &stmt, *mode).unwrap();
        assert!(
            !rendered.contains("time=") && !rendered.contains("invocations="),
            "{name}: static EXPLAIN must carry no measurements:\n{rendered}"
        );
    }
}

/// The determinism guard: profiling is observationally invisible. For every
/// case and mode, a profiled execution returns the same rows and the same
/// `ExecStats` (every counter, hence the same `cost()`) as unprofiled
/// executions — timings live only in the `QueryProfile` beside them.
#[test]
fn explain_analyze_timings_never_leak_into_stats_or_rows() {
    let db = test_db();
    for (name, _, sql) in CASES {
        for mode in [PlanMode::Columnar, PlanMode::NestedLoop] {
            let stmt = parse_select(sql).unwrap();
            let plans = PlanCache::new(stmt.query_count());
            let (profiled_rows, profiled_stats, profile) =
                execute_select_profiled(&db, &stmt, mode, &plans).unwrap();
            let (plain_rows, plain_stats) = execute_with_stats_mode(&db, sql, mode).unwrap();
            assert_eq!(
                profiled_rows.rows, plain_rows.rows,
                "{name} ({mode:?}): profiling changed result rows"
            );
            assert_eq!(
                profiled_stats, plain_stats,
                "{name} ({mode:?}): profiling perturbed a deterministic counter"
            );
            assert_eq!(
                profiled_stats.cost(),
                plain_stats.cost(),
                "{name} ({mode:?}): profiling perturbed cost()"
            );
            // The measurements went somewhere: the profile, not the stats.
            assert!(
                !profile.ops().is_empty() || plain_rows.rows.is_empty(),
                "{name} ({mode:?}): profiled execution recorded no operators"
            );
        }
    }
}
