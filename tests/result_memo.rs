//! The result memo on the paper's corpora: it never lets one table state
//! answer for another, a hit reports what a warm plan cache reports, and
//! the systems that memoize their candidates generate what fresh systems
//! generate.

use std::collections::BTreeSet;
use std::sync::Arc;

use seed_repro::core::SeedVariant;
use seed_repro::datasets::{
    bird::build_bird, spider::build_spider, Benchmark, CorpusConfig, Split,
};
use seed_repro::eval::{EvidenceSetting, ExperimentRunner};
use seed_repro::sqlengine::{execute_with_stats_mode, PlanMode, ResultMemo, SharedPlanCache};
use seed_repro::text2sql::{Chess, ChessConfig, GenerationContext, Text2SqlSystem, C3};

/// Every distinct (database, gold SQL) pair of a corpus, both splits.
fn gold_statements(bench: &Benchmark) -> BTreeSet<(String, String)> {
    bench.questions.iter().map(|q| (q.db_id.clone(), q.gold_sql.clone())).collect()
}

/// Before generations were unique within the process, two corpora built
/// from different seeds held tables with equal (name, generation) but
/// different rows, so a key of names and generations would have served one
/// corpus's rows for the other's.
#[test]
fn corpora_from_different_seeds_share_no_entry() {
    let a = build_bird(&CorpusConfig { seed: 11, ..CorpusConfig::tiny() });
    let b = build_bird(&CorpusConfig { seed: 12, ..CorpusConfig::tiny() });
    let memo = ResultMemo::new();
    let mut statements = 0;
    let mut differing = 0;
    for (db_id, sql) in gold_statements(&a).intersection(&gold_statements(&b)) {
        let (da, db) = (a.database(db_id).unwrap(), b.database(db_id).unwrap());
        assert_eq!(da.name(), db.name());
        let (from_a, _) = memo.execute(da, sql).unwrap();
        let (from_b, _) = memo.execute(db, sql).unwrap();
        assert!(!Arc::ptr_eq(&from_a, &from_b), "{db_id}: {sql}");
        let direct = |d| execute_with_stats_mode(d, sql, PlanMode::Columnar).unwrap().0.rows;
        assert_eq!(from_a.result.rows, direct(da), "{db_id}: {sql}");
        assert_eq!(from_b.result.rows, direct(db), "{db_id}: {sql}");
        statements += 1;
        differing += usize::from(from_a.result.rows != from_b.result.rows);
    }
    assert_eq!(memo.len(), 2 * statements, "one entry per corpus and statement");
    assert!(differing > 0, "some gold statement answers differently on the two corpora");
}

/// A hit replays the stored stats with the plans counted as cache hits:
/// field for field what re-executing through a warm plan cache reports,
/// for every gold statement of both corpora.
#[test]
fn a_hit_reports_what_a_warm_plan_cache_reports() {
    let config = CorpusConfig::default();
    let mut checked = 0;
    for bench in [build_bird(&config), build_spider(&config)] {
        let memo = ResultMemo::new();
        let plans = SharedPlanCache::new();
        for (db_id, sql) in gold_statements(&bench) {
            let db = bench.database(&db_id).unwrap();
            let (cold_rows, cold) = plans.execute(db, &sql).unwrap();
            let (warm_rows, warm) = plans.execute(db, &sql).unwrap();
            let (entry, miss) = memo.execute(db, &sql).unwrap();
            let (again, hit) = memo.execute(db, &sql).unwrap();
            assert!(Arc::ptr_eq(&entry, &again));
            assert_eq!(entry.result.rows, cold_rows.rows, "{sql}");
            assert_eq!(warm_rows.rows, cold_rows.rows, "{sql}");
            assert_eq!(miss, cold, "a miss reports a cold execution: {sql}");
            assert_eq!(hit, warm, "a hit reports a warm re-execution: {sql}");
            checked += 1;
        }
    }
    assert!(checked > 100, "{checked} gold statements");
}

/// C3's vote and CHESS's unit tester run their candidates through a memo
/// each system keeps; what they generate equals what a system built fresh
/// for each question generates, under every Table IV setting.
#[test]
fn memoizing_systems_generate_what_fresh_systems_generate() {
    use EvidenceSetting::*;
    let config = CorpusConfig::default();
    for bench in [build_bird(&config), build_spider(&config)] {
        let runner = ExperimentRunner::new(&bench, Split::Dev)
            .with_seed_variants(&[SeedVariant::Gpt, SeedVariant::Deepseek]);
        let train = bench.split(Split::Train);
        let c3 = C3::new();
        let chess = Chess::new(ChessConfig::IrCgUt);
        for setting in [WithoutEvidence, BirdEvidence, SeedGpt, SeedDeepseek] {
            for q in runner.questions() {
                let evidence = runner.evidence_for(q, setting);
                let ctx = GenerationContext {
                    question: q,
                    database: bench.database(&q.db_id).unwrap(),
                    evidence: evidence.as_deref(),
                    train_pool: &train,
                };
                assert_eq!(c3.generate(&ctx), C3::new().generate(&ctx), "C3, {}", q.id);
                assert_eq!(
                    chess.generate(&ctx),
                    Chess::new(ChessConfig::IrCgUt).generate(&ctx),
                    "CHESS, {}",
                    q.id
                );
            }
        }
    }
}
