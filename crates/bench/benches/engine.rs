//! Criterion micro-benchmarks for the SQL engine substrate: the per-query cost
//! model that backs the VES metric, the physical planner's hash-join /
//! index-lookup paths against the legacy nested-loop executor, and the
//! scaling benches behind `BENCH_engine.json` — GROUP BY / DISTINCT and BM25
//! search at 1x vs 10x input sizes (hash grouping and the inverted index
//! must scale ~linearly, not quadratically), plus a correlated-subquery
//! workload whose per-outer-row re-planning is eliminated by the plan cache,
//! SEED's sample-SQL probe shapes on BIRD toxicology at scale 16, the
//! commit path (`commit_path` benches) on the same table at scales 1 and 16,
//! the result memo behind evaluation (`result_memo` benches), and value
//! retrieval, uncached and through a warm `ValueRetriever`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use seed_datasets::{bird::build_bird, CorpusConfig, Split};
use seed_eval::{EvidenceSetting, ExperimentRunner};
use seed_retrieval::Bm25Index;
use seed_sqlengine::{
    commit_statement, commit_statement_rebuild, execute, execute_select_with_plan_cache,
    execute_statement, execute_with_stats_mode, parse_select, plan_select, ColumnDef, DataType,
    Database, PlanCache, PlanMode, ResultMemo, SharedPlanCache, TableSchema,
};
use seed_text2sql::value_retrieval::{retrieve_values, ValueRetriever};
use seed_text2sql::{CodeS, C3};

/// Rows in the 1x synthetic table; the 10x variants multiply this.
const BASE_ROWS: usize = 1_000;
/// Outer rows in the 1x correlated-subquery workload (each outer row
/// re-executes the subquery, so work grows quadratically in this knob).
const BASE_CORRELATED_ROWS: usize = 150;
/// Documents in the 1x BM25 corpus.
const BASE_DOCS: usize = 500;

/// A synthetic table whose group and distinct-value counts scale with the
/// row count, so a quadratic grouping path would cost ~100x at 10x rows
/// while the hashed path costs ~10x.
fn synthetic_db(rows: usize) -> Database {
    let mut db = Database::new("synthetic");
    db.create_table(TableSchema::new(
        "t",
        vec![
            ColumnDef::new("id", DataType::Integer).primary_key(),
            ColumnDef::new("g", DataType::Integer),
            ColumnDef::new("v", DataType::Text),
            ColumnDef::new("amount", DataType::Real),
        ],
    ))
    .unwrap();
    let groups = (rows / 10).max(1);
    let distinct = (rows / 5).max(1);
    for i in 0..rows {
        db.insert(
            "t",
            vec![
                (i as i64).into(),
                ((i % groups) as i64).into(),
                format!("v{}", i % distinct).into(),
                (((i * 37) % 997) as f64).into(),
            ],
        )
        .unwrap();
    }
    db
}

/// A synthetic BM25 corpus: short multi-token documents over a vocabulary
/// that scales with the corpus, so any per-query full-corpus rescan is
/// visible at 10x while postings stay small.
fn synthetic_docs(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            format!(
                "record {} category{} region{} status{} note{}",
                i,
                i % 23,
                i % 47,
                i % 11,
                i % (n / 10).max(1)
            )
        })
        .collect()
}

fn engine_benches(c: &mut Criterion) {
    let bench = build_bird(&CorpusConfig::tiny());
    let financial = bench.database("financial").unwrap();

    c.bench_function("engine/simple_filter", |b| {
        b.iter(|| {
            execute(
                financial,
                "SELECT COUNT(*) FROM account WHERE `account`.`frequency` = 'POPLATEK TYDNE'",
            )
            .unwrap()
        })
    });

    c.bench_function("engine/join_aggregate", |b| {
        b.iter(|| {
            execute(
                financial,
                "SELECT `district`.`district_name`, COUNT(*) FROM account \
                 INNER JOIN district ON `account`.`district_id` = `district`.`district_id` \
                 GROUP BY `district`.`district_name` ORDER BY COUNT(*) DESC",
            )
            .unwrap()
        })
    });

    let dev = bench.split(Split::Dev);
    c.bench_function("engine/gold_sql_suite", |b| {
        b.iter(|| {
            for q in dev.iter().take(20) {
                let db = bench.database(&q.db_id).unwrap();
                execute(db, &q.gold_sql).unwrap();
            }
        })
    });

    // Hash-join vs nested-loop on the join-heavy slice of the gold corpus:
    // every dev question whose plan contains at least one hash join, run
    // under both plan modes so the speedup is directly visible.
    let join_heavy: Vec<_> = dev
        .iter()
        .filter(|q| {
            let db = bench.database(&q.db_id).unwrap();
            parse_select(&q.gold_sql)
                .ok()
                .and_then(|stmt| plan_select(db, &stmt).ok())
                .is_some_and(|p| p.uses_hash_join())
        })
        .take(20)
        .collect();
    assert!(!join_heavy.is_empty(), "corpus must contain join-heavy gold queries");
    for (label, mode) in [
        ("engine/join_suite_hash", PlanMode::Columnar),
        ("engine/join_suite_nested_loop", PlanMode::NestedLoop),
    ] {
        let join_heavy = join_heavy.clone();
        c.bench_function(label, |b| {
            b.iter(|| {
                for q in &join_heavy {
                    let db = bench.database(&q.db_id).unwrap();
                    execute_with_stats_mode(db, &q.gold_sql, mode).unwrap();
                }
            })
        });
    }

    // GROUP BY / DISTINCT scaling: 10x rows (with 10x groups and 10x
    // distinct values) must cost ~10x, not ~100x — the payoff of hashing
    // the grouping keys instead of scanning previously-seen keys per row.
    let group_sql = "SELECT g, COUNT(*), SUM(amount) FROM t GROUP BY g";
    let distinct_sql = "SELECT DISTINCT v FROM t";
    for (scale, rows) in [("1x", BASE_ROWS), ("10x", BASE_ROWS * 10)] {
        let db = synthetic_db(rows);
        c.bench_function(&format!("engine/group_by_{scale}"), |b| {
            b.iter(|| execute(&db, group_sql).unwrap())
        });
        c.bench_function(&format!("engine/distinct_{scale}"), |b| {
            b.iter(|| execute(&db, distinct_sql).unwrap())
        });
    }

    // Columnar execution over the hot operator shapes — scan, filter,
    // grouped aggregation, and equi-join — at 1x and 10x rows. Row identity
    // against the nested-loop oracle is asserted beside each bench, so a
    // speedup can never come from computing something else; the self-join
    // is checked at 1x only, since the oracle's cross product of 10x rows
    // with themselves is 10^8 pairs.
    let columnar_shapes: &[(&str, &str)] = &[
        ("scan", "SELECT id, g, v, amount FROM t"),
        ("filter", "SELECT id, amount FROM t WHERE amount > 498.0"),
        ("group", "SELECT g, COUNT(*), SUM(amount) FROM t GROUP BY g"),
        (
            "join",
            "SELECT a.id, b.amount FROM t AS a INNER JOIN t AS b ON a.id = b.id WHERE b.amount > 300.0",
        ),
    ];
    for (scale, rows) in [("1x", BASE_ROWS), ("10x", BASE_ROWS * 10)] {
        let db = synthetic_db(rows);
        for (shape, sql) in columnar_shapes {
            c.bench_function(&format!("engine/columnar_{shape}_{scale}"), |b| {
                b.iter(|| execute_with_stats_mode(&db, sql, PlanMode::Columnar).unwrap())
            });
            let (col, col_stats) = execute_with_stats_mode(&db, sql, PlanMode::Columnar).unwrap();
            if *shape != "join" || scale == "1x" {
                let (nl, _) = execute_with_stats_mode(&db, sql, PlanMode::NestedLoop).unwrap();
                assert_eq!(col.rows, nl.rows, "columnar must be row-identical on {shape}");
            }
            assert!(col_stats.batches_built > 0, "columnar must actually batch on {shape}");
        }
    }

    // Wide grouped aggregation — eight aggregates (COUNT/SUM/AVG/MIN/MAX
    // over Int, Real, and Text columns) per high-cardinality key — where
    // the vectorized accumulators earn their keep: a row tail re-walks
    // every group's members once per aggregate, the columnar path makes one
    // typed pass per aggregate over the whole table.
    let wide_sql = "SELECT g, COUNT(*), COUNT(amount), SUM(amount), AVG(amount), MIN(amount), \
                    MAX(amount), SUM(id), MAX(v) FROM t GROUP BY g";
    for (scale, rows) in [("1x", BASE_ROWS), ("10x", BASE_ROWS * 10)] {
        let db = synthetic_db(rows);
        c.bench_function(&format!("engine/columnar_group_wide_{scale}"), |b| {
            b.iter(|| execute_with_stats_mode(&db, wide_sql, PlanMode::Columnar).unwrap())
        });
        let (col, col_stats) = execute_with_stats_mode(&db, wide_sql, PlanMode::Columnar).unwrap();
        let (nl, _) = execute_with_stats_mode(&db, wide_sql, PlanMode::NestedLoop).unwrap();
        assert_eq!(col.rows, nl.rows, "columnar must be row-identical on group_wide");
        assert_eq!(col_stats.columnar_fallbacks, 0, "group_wide must stay fully vectorized");
    }

    // Filter selectivity sweep at 10x rows: `amount` is uniform over
    // [0, 997), so the cutoffs keep ~1% / ~50% / ~99% of rows. Selection
    // vectors make the kept fraction the cost driver — a 1%-selective
    // filter compacts to almost nothing, a 99%-selective one never copies.
    {
        let db = synthetic_db(BASE_ROWS * 10);
        for (pct, cutoff) in [("1", 10.0), ("50", 498.5), ("99", 987.0)] {
            let sql = format!("SELECT id, amount FROM t WHERE amount < {cutoff} AND amount >= 0.0");
            c.bench_function(&format!("engine/columnar_filter_sel{pct}_10x"), |b| {
                b.iter(|| execute_with_stats_mode(&db, &sql, PlanMode::Columnar).unwrap())
            });
            let (col, _) = execute_with_stats_mode(&db, &sql, PlanMode::Columnar).unwrap();
            let (nl, _) = execute_with_stats_mode(&db, &sql, PlanMode::NestedLoop).unwrap();
            assert_eq!(col.rows, nl.rows, "columnar must be row-identical at {pct}% kept");
            let frac = col.rows.len() as f64 / (BASE_ROWS * 10) as f64;
            let target: f64 = pct.parse::<f64>().unwrap() / 100.0;
            assert!(
                (frac - target).abs() < 0.02,
                "selectivity drifted: wanted ~{target}, kept {frac}"
            );
        }
    }

    // Correlated scalar subquery: re-executed per outer row (inherently
    // quadratic in rows), but *planned* once — the plan cache serves every
    // re-execution after the first.
    // Correlated scalar-aggregate workload, both engine strategies:
    // `decorrelated` (the default) rewrites the subquery into a hash group
    // join — one build pass plus O(1) probes, ~linear in outer rows —
    // while `plan_cached` pins the pre-decorrelation behaviour (subquery
    // planned once, re-executed per outer row, quadratic in outer rows).
    let correlated_sql = "SELECT a.id FROM t AS a \
                          WHERE a.amount > (SELECT AVG(b.amount) FROM t AS b WHERE b.g = a.g)";
    let correlated_stmt = parse_select(correlated_sql).unwrap();
    let queries = correlated_stmt.query_count();
    for (scale, rows) in [("1x", BASE_CORRELATED_ROWS), ("10x", BASE_CORRELATED_ROWS * 10)] {
        let db = synthetic_db(rows);
        c.bench_function(&format!("engine/correlated_decorrelated_{scale}"), |b| {
            b.iter(|| {
                execute_select_with_plan_cache(
                    &db,
                    &correlated_stmt,
                    PlanMode::Columnar,
                    &PlanCache::new(queries),
                )
                .unwrap()
            })
        });
        c.bench_function(&format!("engine/correlated_plan_cached_{scale}"), |b| {
            b.iter(|| {
                execute_select_with_plan_cache(
                    &db,
                    &correlated_stmt,
                    PlanMode::Columnar,
                    &PlanCache::without_decorrelation(queries),
                )
                .unwrap()
            })
        });
        let (rs, stats) = execute_select_with_plan_cache(
            &db,
            &correlated_stmt,
            PlanMode::Columnar,
            &PlanCache::new(queries),
        )
        .unwrap();
        assert!(
            stats.decorrelated_subqueries >= 1,
            "correlated workload must engage the decorrelation rewrite"
        );
        let (rs_cached, cached_stats) = execute_select_with_plan_cache(
            &db,
            &correlated_stmt,
            PlanMode::Columnar,
            &PlanCache::without_decorrelation(queries),
        )
        .unwrap();
        assert_eq!(rs.rows, rs_cached.rows, "both strategies must agree row-for-row");
        assert!(
            cached_stats.plan_cache_hits > 0,
            "plan-cached workload must replay cached subquery plans"
        );
        println!(
            "stats engine/correlated_decorrelated_{scale}   decorrelated_subqueries {} probes {} memo_hits {}",
            stats.decorrelated_subqueries, stats.decorrelated_probes, stats.decorrelated_memo_hits
        );
        println!(
            "stats engine/correlated_plan_cached_{scale}    plan_cache_hits {} plan_cache_misses {}",
            cached_stats.plan_cache_hits, cached_stats.plan_cache_misses
        );
    }

    // BM25 search: query cost scales with matching postings, not corpus
    // size; a 10x corpus with a 10x vocabulary must search in ~10x.
    for (scale, n) in [("1x", BASE_DOCS), ("10x", BASE_DOCS * 10)] {
        let index = Bm25Index::build(synthetic_docs(n));
        c.bench_function(&format!("retrieval/bm25_search_{scale}"), |b| {
            b.iter(|| index.search("category7 region12 status3", 10))
        });
    }
    c.bench_function("retrieval/bm25_build_10x", |b| {
        b.iter(|| Bm25Index::build(synthetic_docs(BASE_DOCS * 10)))
    });

    // SEED's two probe shapes (paper §III-B) and their building blocks, on
    // BIRD toxicology at scale 16 (`atom` has 4,774 rows, `bond` 3,905),
    // through `execute` as the pipeline calls it. The last two are
    // references whose cost lies elsewhere (a full sort, a gather of the
    // survivors). Each asserts row identity with the nested-loop oracle.
    let bird16 = build_bird(&CorpusConfig { scale: 16.0, ..CorpusConfig::default() });
    let toxicology = bird16.database("toxicology").unwrap();
    let probe_shapes: &[(&str, &str)] = &[
        ("engine/probe_distinct_16x", "SELECT DISTINCT element FROM atom LIMIT 40"),
        (
            "engine/probe_distinct_like_16x",
            "SELECT DISTINCT element FROM atom WHERE element LIKE '%c%' LIMIT 10",
        ),
        ("engine/count_eq_16x", "SELECT COUNT(*) FROM atom WHERE element = 'cl'"),
        ("engine/count_like_16x", "SELECT COUNT(*) FROM atom WHERE element LIKE '%cl%'"),
        ("engine/limit_1_16x", "SELECT atom_id FROM atom LIMIT 1"),
        ("engine/order_by_limit_1_16x", "SELECT atom_id FROM atom ORDER BY atom_id LIMIT 1"),
        ("engine/count_eq_bond_16x", "SELECT COUNT(*) FROM bond WHERE bond_type = '-'"),
    ];
    for (name, sql) in probe_shapes {
        let (col, _) = execute_with_stats_mode(toxicology, sql, PlanMode::Columnar).unwrap();
        let (nl, _) = execute_with_stats_mode(toxicology, sql, PlanMode::NestedLoop).unwrap();
        assert_eq!(col.rows, nl.rows, "columnar must be row-identical on {sql}");
        assert!(!col.rows.is_empty(), "{sql} must return rows");
        c.bench_function(name, |b| b.iter(|| execute(toxicology, sql).unwrap()));
    }

    // The commit path on toxicology's `atom` at scale 1 (300 rows, one
    // chunk) and 16 (4,774 rows, five chunks): a one-row UPDATE by primary
    // key of a row in a middle chunk, and an INSERT of a fresh key followed
    // by its DELETE, each through `commit_statement` against one snapshot.
    // Each first asserts the rows of the rebuild oracle.
    let bird1 = build_bird(&CorpusConfig::default());
    for (scale, corpus) in [("1x", &bird1), ("16x", &bird16)] {
        let db = corpus.database("toxicology").unwrap();
        let rows = |db: &Database| db.table("atom").unwrap().rows().to_vec();
        let atoms = db.table("atom").unwrap().len() as i64;
        let update = format!("UPDATE atom SET element = element WHERE atom_id = {}", atoms / 2);
        let fresh = atoms + 1_000_000;
        let insert = format!("INSERT INTO atom VALUES ({fresh}, 'TR999', 'c')");
        let delete = format!("DELETE FROM atom WHERE atom_id = {fresh}");
        let updated = commit_statement(db, &update).unwrap();
        assert_eq!(updated.rows_affected, 1, "{update}");
        assert_eq!(rows(&updated.db), rows(&commit_statement_rebuild(db, &update).unwrap().db));
        let inserted = commit_statement(db, &insert).unwrap().db;
        let reinserted = commit_statement_rebuild(db, &insert).unwrap().db;
        assert_eq!(rows(&inserted), rows(&reinserted), "{insert}");
        let deleted = commit_statement(&inserted, &delete).unwrap().db;
        assert_eq!(
            rows(&deleted),
            rows(&commit_statement_rebuild(&reinserted, &delete).unwrap().db)
        );
        assert_eq!(rows(&deleted), rows(db), "{delete} restores the table");
        c.bench_function(&format!("engine/commit_path_update_{scale}"), |b| {
            b.iter(|| commit_statement(db, &update).unwrap())
        });
        c.bench_function(&format!("engine/commit_path_insert_delete_{scale}"), |b| {
            b.iter(|| {
                let inserted = commit_statement(db, &insert).unwrap().db;
                commit_statement(&inserted, &delete).unwrap()
            })
        });
    }
    // Loading a fresh table by 1,000 single-row INSERTs through
    // `execute_statement`, as SQL scripts build databases.
    let inserts: Vec<String> =
        (0..1000).map(|i| format!("INSERT INTO atom VALUES ({i}, 'TR{i:03}', 'c')")).collect();
    c.bench_function("engine/commit_path_execute_insert_1000", |b| {
        b.iter(|| {
            let mut db = Database::new("load");
            let create =
                "CREATE TABLE atom (atom_id INTEGER PRIMARY KEY, molecule_id TEXT, element TEXT)";
            execute_statement(&mut db, create).unwrap();
            for sql in &inserts {
                execute_statement(&mut db, sql).unwrap();
            }
            db
        })
    });

    // PK point lookup vs full scan on the largest base table.
    c.bench_function("engine/pk_lookup_hash_index", |b| {
        b.iter(|| {
            execute_with_stats_mode(
                financial,
                "SELECT * FROM account WHERE `account`.`account_id` = 7",
                PlanMode::Columnar,
            )
            .unwrap()
        })
    });
    c.bench_function("engine/pk_lookup_full_scan", |b| {
        b.iter(|| {
            execute_with_stats_mode(
                financial,
                "SELECT * FROM account WHERE `account`.`account_id` = 7",
                PlanMode::NestedLoop,
            )
            .unwrap()
        })
    });

    // The result memo on BIRD at scale 1. One Table IV cell (C3 without
    // evidence) on a runner that has evaluated it before, so the runner's
    // memo answers every gold and predicted statement and C3's memo every
    // voted candidate; and one gold statement (the first of dev whose plan
    // hash-joins) as a memo hit against a warm `SharedPlanCache`
    // re-execution, asserting equal rows and stats first.
    let runner = ExperimentRunner::new(&bird1, Split::Dev);
    let c3 = C3::new();
    let first = runner.evaluate(&c3, EvidenceSetting::WithoutEvidence);
    c.bench_function("engine/result_memo_table4_cell_c3_warm", |b| {
        b.iter(|| {
            let again = runner.evaluate(&c3, EvidenceSetting::WithoutEvidence);
            assert_eq!(again.scores, first.scores);
            again
        })
    });
    let gold = bird1
        .split(Split::Dev)
        .into_iter()
        .find(|q| {
            let db = bird1.database(&q.db_id).unwrap();
            let stmt = parse_select(&q.gold_sql).unwrap();
            plan_select(db, &stmt).unwrap().uses_hash_join()
        })
        .expect("BIRD dev has a hash-joining gold statement");
    let db = bird1.database(&gold.db_id).unwrap();
    let (memo, plans) = (ResultMemo::new(), SharedPlanCache::new());
    plans.execute(db, &gold.gold_sql).unwrap();
    let (warm_rows, warm) = plans.execute(db, &gold.gold_sql).unwrap();
    let (entry, _) = memo.execute(db, &gold.gold_sql).unwrap();
    let (again, hit) = memo.execute(db, &gold.gold_sql).unwrap();
    assert!(Arc::ptr_eq(&entry, &again));
    assert_eq!((&entry.result.rows, hit), (&warm_rows.rows, warm), "{}", gold.gold_sql);
    c.bench_function("engine/result_memo_hit_gold", |b| {
        b.iter(|| memo.execute(db, &gold.gold_sql).unwrap())
    });
    c.bench_function("engine/result_memo_plan_cache_gold", |b| {
        b.iter(|| plans.execute(db, &gold.gold_sql).unwrap())
    });

    // Value retrieval over the BIRD dev questions at scale 1: a scan per
    // question, and a warm retriever answering each from its positions
    // (asserted equal to the scan first); then one Table IV cell of CodeS-15B
    // without evidence on a runner, and a system, that have evaluated it
    // once before.
    let questions: Vec<_> = bird1
        .split(Split::Dev)
        .into_iter()
        .map(|q| (&q.text, bird1.database(&q.db_id).unwrap()))
        .collect();
    c.bench_function("engine/retrieve_values_bird_dev", |b| {
        b.iter(|| questions.iter().map(|(q, db)| retrieve_values(q, db).len()).sum::<usize>())
    });
    let retriever = ValueRetriever::new();
    for (q, db) in &questions {
        assert_eq!(retriever.retrieve(q, db), retrieve_values(q, db), "{q}");
    }
    c.bench_function("engine/value_retriever_hit_bird_dev", |b| {
        b.iter(|| questions.iter().map(|(q, db)| retriever.retrieve(q, db).len()).sum::<usize>())
    });
    let codes = CodeS::new(15);
    let codes_cell = runner.evaluate(&codes, EvidenceSetting::WithoutEvidence);
    c.bench_function("engine/table4_cell_codes15_warm", |b| {
        b.iter(|| {
            let again = runner.evaluate(&codes, EvidenceSetting::WithoutEvidence);
            assert_eq!(again.scores, codes_cell.scores);
            again
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = engine_benches
}
criterion_main!(benches);
