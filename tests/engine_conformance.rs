//! Engine conformance tests over the synthetic corpora: every gold query of
//! every benchmark must parse, execute, and be stable across repeated runs,
//! the execution-accuracy comparator must behave as a congruence, and the
//! columnar executor of the physical plans (hash joins, PK lookups,
//! predicate pushdown) must be result-identical to the legacy nested-loop
//! executor on every query.

use seed_repro::datasets::{bird::build_bird, spider::build_spider, CorpusConfig};
use seed_repro::sqlengine::{
    commit_statement, execute, execute_select_with_plan_cache, execute_with_stats_mode,
    parse_select, plan_select, PlanCache, PlanMode,
};

#[test]
fn every_gold_query_in_both_benchmarks_executes() {
    let bird = build_bird(&CorpusConfig::tiny());
    let spider = build_spider(&CorpusConfig::tiny());
    for bench in [&bird, &spider] {
        for q in &bench.questions {
            let db = bench.database(&q.db_id).unwrap();
            let rs = execute(db, &q.gold_sql);
            assert!(rs.is_ok(), "{}: {} -> {:?}", q.id, q.gold_sql, rs.err());
        }
    }
}

#[test]
fn execution_is_deterministic_and_costed() {
    let bird = build_bird(&CorpusConfig::tiny());
    for q in bird.questions.iter().take(40) {
        let db = bird.database(&q.db_id).unwrap();
        let (a, stats_a) = execute_with_stats_mode(db, &q.gold_sql, PlanMode::default()).unwrap();
        let (b, stats_b) = execute_with_stats_mode(db, &q.gold_sql, PlanMode::default()).unwrap();
        assert!(a.result_eq(&b));
        assert_eq!(stats_a, stats_b, "cost model must be deterministic");
        assert!(stats_a.cost() > 0.0);
    }
}

/// The planner-equivalence property: for every gold query of both corpora,
/// the optimized plan (hash joins, PK lookups, pushdown) run by the
/// vectorized columnar pipeline must produce the same header and rows as the
/// legacy nested-loop executor — not just the same multiset (`result_eq`),
/// but the same row *order*, so that LIMIT-without-ORDER-BY queries cannot
/// diverge between plans.
#[test]
fn optimized_plans_match_nested_loop_on_every_gold_query() {
    let bird = build_bird(&CorpusConfig::tiny());
    let spider = build_spider(&CorpusConfig::tiny());
    let mut checked = 0usize;
    for bench in [&bird, &spider] {
        for q in &bench.questions {
            let db = bench.database(&q.db_id).unwrap();
            let (col, _) = execute_with_stats_mode(db, &q.gold_sql, PlanMode::Columnar)
                .unwrap_or_else(|e| panic!("{}: columnar failed: {e:?} ({})", q.id, q.gold_sql));
            let (legacy, _) = execute_with_stats_mode(db, &q.gold_sql, PlanMode::NestedLoop)
                .unwrap_or_else(|e| panic!("{}: legacy failed: {e:?} ({})", q.id, q.gold_sql));
            assert!(
                col.result_eq(&legacy),
                "{}: result mismatch\nsql: {}\ncolumnar: {:?}\nlegacy: {:?}",
                q.id,
                q.gold_sql,
                col.rows,
                legacy.rows
            );
            assert_eq!(
                col.rows.len(),
                legacy.rows.len(),
                "{}: row-count mismatch ({})",
                q.id,
                q.gold_sql
            );
            assert_eq!(col.rows, legacy.rows, "{}: row-order mismatch ({})", q.id, q.gold_sql);
            assert_eq!(
                col.columns, legacy.columns,
                "{}: columnar header mismatch ({})",
                q.id, q.gold_sql
            );
            checked += 1;
        }
    }
    assert!(checked > 100, "expected a substantive corpus, checked only {checked}");
}

/// Hash-join plans must be strictly cheaper than their nested-loop
/// equivalents under the deterministic cost model — this is the VES-facing
/// payoff of the physical planner.
#[test]
fn hash_join_plans_cost_less_than_nested_loop() {
    let bird = build_bird(&CorpusConfig::tiny());
    let spider = build_spider(&CorpusConfig::tiny());
    let mut hash_cases = 0usize;
    for bench in [&bird, &spider] {
        for q in &bench.questions {
            let db = bench.database(&q.db_id).unwrap();
            let Ok(stmt) = parse_select(&q.gold_sql) else { continue };
            let plan = plan_select(db, &stmt).unwrap();
            if !plan.uses_hash_join() {
                continue;
            }
            hash_cases += 1;
            let (_, opt) = execute_with_stats_mode(db, &q.gold_sql, PlanMode::Columnar).unwrap();
            let (_, legacy) =
                execute_with_stats_mode(db, &q.gold_sql, PlanMode::NestedLoop).unwrap();
            assert!(
                opt.cost() < legacy.cost(),
                "{}: hash plan not cheaper ({} vs {})\nsql: {}\nplan:\n{}",
                q.id,
                opt.cost(),
                legacy.cost(),
                q.gold_sql,
                plan.explain()
            );
        }
    }
    assert!(
        hash_cases >= 20,
        "expected the corpora to exercise hash joins broadly, found {hash_cases}"
    );
}

/// The executors' stats are part of the VES contract: repeated runs of the
/// same query must report identical statistics in both modes.
#[test]
fn optimized_stats_are_deterministic() {
    let bird = build_bird(&CorpusConfig::tiny());
    for q in bird.questions.iter().take(40) {
        let db = bird.database(&q.db_id).unwrap();
        for mode in [PlanMode::Columnar, PlanMode::NestedLoop] {
            let (a, stats_a) = execute_with_stats_mode(db, &q.gold_sql, mode).unwrap();
            let (b, stats_b) = execute_with_stats_mode(db, &q.gold_sql, mode).unwrap();
            assert!(a.result_eq(&b));
            assert_eq!(stats_a, stats_b, "{}: stats must be deterministic ({mode:?})", q.id);
            assert!(stats_a.cost() > 0.0);
        }
    }
}

/// Subquery plan caching must be pure observability: every gold query of
/// both corpora stays row-identical (order included) between the cached
/// columnar path and the nested-loop reference — this is asserted per query
/// by `optimized_plans_match_nested_loop_on_every_gold_query` above, which
/// now runs entirely through the per-statement plan cache. Here we assert
/// the cache engages on every gold query (the top-level statement itself
/// plans through it, deterministically) — the gold corpora contain no
/// subqueries today, so re-execution hits are pinned by the dedicated
/// correlated-workload test below and the criterion bench instead.
#[test]
fn plan_cache_engages_on_every_gold_query() {
    let bird = build_bird(&CorpusConfig::tiny());
    let spider = build_spider(&CorpusConfig::tiny());
    for bench in [&bird, &spider] {
        for q in &bench.questions {
            let db = bench.database(&q.db_id).unwrap();
            let (_, a) = execute_with_stats_mode(db, &q.gold_sql, PlanMode::Columnar).unwrap();
            let (_, b) = execute_with_stats_mode(db, &q.gold_sql, PlanMode::Columnar).unwrap();
            assert!(
                a.plan_cache_misses >= 1,
                "{}: the top-level statement plans through the cache",
                q.id
            );
            assert_eq!(
                (a.plan_cache_hits, a.plan_cache_misses),
                (b.plan_cache_hits, b.plan_cache_misses),
                "{}: cache traffic is deterministic",
                q.id
            );
        }
    }
}

/// A correlated scalar subquery re-executes once per outer row; with plan
/// caching it must plan exactly twice (outer + subquery) and report a hit
/// for every re-execution after the first.
#[test]
fn correlated_subquery_plans_once_and_hits_thereafter() {
    let bird = build_bird(&CorpusConfig::tiny());
    let db = bird.database("financial").unwrap();
    let outer_rows = db.table("account").unwrap().len() as u64;

    // This subquery *looks* correlated, but `account.district_id` resolves
    // against the inner scan (a table aliased `T` still answers to its base
    // name), so the executor never reads the outer row — and the
    // uncorrelated-subquery result cache therefore executes it exactly once,
    // replaying the result for every other outer row.
    let sql = "SELECT account_id FROM account \
               WHERE account_id > (SELECT AVG(T.account_id) FROM account AS T \
                                   WHERE T.district_id = account.district_id)";
    let (rs, stats) = execute_with_stats_mode(db, sql, PlanMode::Columnar).unwrap();
    let (legacy, _) = execute_with_stats_mode(db, sql, PlanMode::NestedLoop).unwrap();
    assert_eq!(rs.rows, legacy.rows, "caching must not change results");
    assert_eq!(stats.plan_cache_misses, 2, "one plan for the outer query, one for the subquery");
    assert_eq!(stats.plan_cache_hits, 0, "a result-cached subquery never replans");
    assert_eq!(stats.subquery_result_misses, 1, "the subquery executes exactly once");
    assert_eq!(
        stats.subquery_result_hits,
        outer_rows - 1,
        "every outer row after the first replays the cached subquery result"
    );

    // A *genuinely* correlated scalar aggregate (the outer alias cannot
    // resolve inside) is decorrelated into a hash group join: the rewritten
    // build side plans and executes once, and each outer row becomes a hash
    // probe (memoized per distinct correlation key) instead of a subquery
    // re-execution.
    let sql = "SELECT account_id FROM account AS outer_a \
               WHERE account_id > (SELECT AVG(T.account_id) FROM account AS T \
                                   WHERE T.district_id = outer_a.district_id)";
    let (rs, stats) = execute_with_stats_mode(db, sql, PlanMode::Columnar).unwrap();
    let (legacy, _) = execute_with_stats_mode(db, sql, PlanMode::NestedLoop).unwrap();
    assert_eq!(rs.rows, legacy.rows, "decorrelation must not change results");
    assert_eq!(stats.plan_cache_misses, 2, "one plan for the outer query, one for the build side");
    assert_eq!(stats.plan_cache_hits, 0, "per-outer-row re-execution is gone");
    assert_eq!(stats.decorrelated_subqueries, 1, "the rewrite engaged");
    assert_eq!(
        stats.decorrelated_probes + stats.decorrelated_memo_hits,
        outer_rows,
        "every outer row is answered by a probe or the per-key memo"
    );
    assert!(stats.decorrelated_probes >= 1);
    assert_eq!(stats.subquery_result_misses, 0, "correlated subqueries are never result-cached");
    assert_eq!(stats.subquery_result_hits, 0);

    // The per-outer-row cached-plan path survives behind
    // `PlanCache::without_decorrelation`, row-identical, for triangulation.
    let stmt = parse_select(sql).unwrap();
    let plans = PlanCache::without_decorrelation(stmt.query_count());
    let (norw, norw_stats) =
        execute_select_with_plan_cache(db, &stmt, PlanMode::Columnar, &plans).unwrap();
    assert_eq!(norw.rows, rs.rows);
    assert_eq!(norw_stats.decorrelated_subqueries, 0);
    assert_eq!(
        norw_stats.plan_cache_hits,
        outer_rows - 1,
        "every outer row after the first replays the cached subquery plan"
    );
}

/// The checked-in fallback budget: every gold query of both corpora must run
/// *fully* columnar — zero per-operator row bridges, zero mixed-mode
/// statements. Measured after the per-operator fallback rework (PR 8): all
/// 103 gold queries execute with `columnar_fallbacks == 0`, so the budget is
/// zero across the board. A kernel regression that silently demotes an
/// operator to the row bridge now fails this test instead of just getting
/// slower; if a future query class legitimately needs a bridge, raise its
/// budget here deliberately, in review.
#[test]
fn gold_queries_stay_within_columnar_fallback_budget() {
    let bird = build_bird(&CorpusConfig::tiny());
    let spider = build_spider(&CorpusConfig::tiny());
    let budget_for = |_query_id: &str| -> u64 { 0 };
    let mut checked = 0;
    for bench in [&bird, &spider] {
        for q in &bench.questions {
            let db = bench.database(&q.db_id).unwrap();
            let (_, stats) = execute_with_stats_mode(db, &q.gold_sql, PlanMode::Columnar).unwrap();
            let budget = budget_for(&q.id);
            assert!(
                stats.columnar_fallbacks <= budget,
                "{}: {} per-operator fallbacks exceeds budget {} ({})",
                q.id,
                stats.columnar_fallbacks,
                budget,
                q.gold_sql
            );
            if budget == 0 {
                assert_eq!(
                    stats.columnar_partial, 0,
                    "{}: statement mixed modes despite a zero fallback budget ({})",
                    q.id, q.gold_sql
                );
            }
            checked += 1;
        }
    }
    assert!(checked > 100, "gold corpus shrank: only {checked} queries checked");
}

/// Mutate-then-query conformance: after committing writes against a gold
/// corpus database through the copy-on-write commit path, every gold query
/// of that database must still be row-identical (order included) between
/// both plan modes — and still run *fully* columnar. Incrementally
/// maintained PK indexes and restamped chunks must be indistinguishable
/// from freshly built ones, fallback budget included.
#[test]
fn gold_queries_stay_conformant_and_fully_columnar_after_commits() {
    let bird = build_bird(&CorpusConfig::tiny());
    for base in &bird.databases {
        let mut db = base.clone();
        // One mutation of each kind against every table, committed through
        // successive snapshots.
        for name in db.table_names() {
            let table = db.table(&name).unwrap();
            let width = table.schema.columns.len();
            let Some(pk) = table.primary_key_column() else { continue };
            let max_id = table
                .rows()
                .iter()
                .filter_map(|r| match &r[pk] {
                    seed_repro::sqlengine::Value::Integer(i) => Some(*i),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            for sql in [
                format!(
                    "INSERT INTO {name} ({}) VALUES ({})",
                    table.schema.columns[pk].name,
                    max_id + 1
                ),
                format!(
                    "DELETE FROM {name} WHERE {} = {}",
                    table.schema.columns[pk].name,
                    max_id + 1
                ),
            ]
            .iter()
            .chain(
                // Update a non-PK column to itself on a slice of rows:
                // contents unchanged, but the COW/update machinery (PK
                // remove+insert, chunk restamp, value-sample drop) fully runs.
                (width > 1)
                    .then(|| {
                        let col = &table.schema.columns[if pk == 0 { 1 } else { 0 }].name;
                        format!(
                            "UPDATE {name} SET {col} = {col} WHERE {} <= {}",
                            table.schema.columns[pk].name,
                            max_id / 2
                        )
                    })
                    .iter(),
            ) {
                let outcome = commit_statement(&db, sql)
                    .unwrap_or_else(|e| panic!("{}: commit failed: {e:?} ({sql})", base.name()));
                db = outcome.db;
            }
        }
        // Every gold query of this database: identical in both modes, zero
        // fallbacks, no mixed-mode statements.
        let mut checked = 0usize;
        for q in bird.questions.iter().filter(|q| q.db_id == base.name()) {
            let (col, stats) = execute_with_stats_mode(&db, &q.gold_sql, PlanMode::Columnar)
                .unwrap_or_else(|e| panic!("{}: columnar failed post-commit: {e:?}", q.id));
            let (legacy, _) =
                execute_with_stats_mode(&db, &q.gold_sql, PlanMode::NestedLoop).unwrap();
            assert_eq!(col.rows, legacy.rows, "{}: columnar diverged post-commit", q.id);
            assert_eq!(
                stats.columnar_fallbacks, 0,
                "{}: commits must not demote operators to the row bridge ({})",
                q.id, q.gold_sql
            );
            assert_eq!(stats.columnar_partial, 0, "{}: mixed-mode post-commit", q.id);
            checked += 1;
        }
        assert!(checked > 0, "{}: no gold queries exercised", base.name());
    }
}

#[test]
fn result_comparison_ignores_projection_order_of_rows_only() {
    let bird = build_bird(&CorpusConfig::tiny());
    let db = bird.database("financial").unwrap();
    let a = execute(db, "SELECT account_id FROM account WHERE district_id = 1 ORDER BY account_id")
        .unwrap();
    let b = execute(
        db,
        "SELECT account_id FROM account WHERE district_id = 1 ORDER BY account_id DESC",
    )
    .unwrap();
    assert!(a.result_eq(&b), "row order must not matter");
    let c = execute(db, "SELECT account_id FROM account WHERE district_id = 2").unwrap();
    assert!(!a.result_eq(&c), "different contents must not compare equal");
}
