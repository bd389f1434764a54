//! The result memo and the value retriever on the paper's corpora: neither
//! lets one table state answer for another, a memo hit reports what a warm
//! plan cache reports, and the systems that memoize their candidates or
//! their grounded values generate what fresh systems generate.

use std::collections::BTreeSet;
use std::sync::Arc;

use seed_repro::core::SeedVariant;
use seed_repro::datasets::{
    bird::build_bird, spider::build_spider, Benchmark, CorpusConfig, Split,
};
use seed_repro::eval::{EvidenceSetting, ExperimentRunner};
use seed_repro::sqlengine::{execute_with_stats_mode, PlanMode, ResultMemo, SharedPlanCache};
use seed_repro::text2sql::value_retrieval::{retrieve_values, ValueRetriever};
use seed_repro::text2sql::{
    Chess, ChessConfig, CodeS, GenerationContext, RslSql, Text2SqlSystem, C3,
};

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

/// A retriever filled on one corpus answers a corpus from another seed,
/// whose databases have the same names, as a scan of that corpus does.
#[test]
fn a_retriever_filled_on_one_corpus_answers_another_as_a_scan_does() {
    let a = build_bird(&CorpusConfig { seed: 11, ..CorpusConfig::tiny() });
    let b = build_bird(&CorpusConfig { seed: 12, ..CorpusConfig::tiny() });
    let retriever = ValueRetriever::new();
    for q in &a.questions {
        retriever.retrieve(&q.text, a.database(&q.db_id).unwrap());
    }
    let asked: BTreeSet<(&str, &str)> =
        a.questions.iter().map(|q| (q.db_id.as_str(), q.text.as_str())).collect();
    let (mut repeated, mut differing) = (0, 0);
    for q in &b.questions {
        let db = b.database(&q.db_id).unwrap();
        assert_eq!(db.name(), a.database(&q.db_id).unwrap().name());
        let expected = retrieve_values(&q.text, db);
        assert_eq!(retriever.retrieve(&q.text, db), expected, "{}: {:?}", q.id, q.text);
        if asked.contains(&(q.db_id.as_str(), q.text.as_str())) {
            repeated += 1;
            differing +=
                usize::from(retrieve_values(&q.text, a.database(&q.db_id).unwrap()) != expected);
        }
    }
    assert!(repeated > 0, "some question of one corpus is asked of the other");
    assert!(differing > 0, "some repeated question grounds differently on the two corpora");
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
/// each system keeps, and CodeS, CHESS and RSL-SQL match the question
/// against the values through a retriever each keeps; what they generate
/// equals what a system built fresh for each question generates, under
/// every Table IV setting.
#[test]
fn memoizing_systems_generate_what_fresh_systems_generate() {
    use EvidenceSetting::*;
    let config = CorpusConfig::default();
    let constructors: [fn() -> Box<dyn Text2SqlSystem>; 6] = [
        || Box::new(C3::new()),
        || Box::new(Chess::new(ChessConfig::IrCgUt)),
        || Box::new(Chess::new(ChessConfig::IrSsCg)),
        || Box::new(CodeS::new(15)),
        || Box::new(CodeS::new(7)),
        || Box::new(RslSql::new()),
    ];
    for bench in [build_bird(&config), build_spider(&config)] {
        let runner = ExperimentRunner::new(&bench, Split::Dev)
            .with_seed_variants(&[SeedVariant::Gpt, SeedVariant::Deepseek]);
        let train = bench.split(Split::Train);
        let systems: Vec<Box<dyn Text2SqlSystem>> = constructors.iter().map(|new| new()).collect();
        for setting in [WithoutEvidence, BirdEvidence, SeedGpt, SeedDeepseek] {
            for q in runner.questions() {
                let evidence = runner.evidence_for(q, setting);
                let ctx = GenerationContext {
                    question: q,
                    database: bench.database(&q.db_id).unwrap(),
                    evidence: evidence.as_deref(),
                    train_pool: &train,
                };
                for (system, fresh) in systems.iter().zip(&constructors) {
                    assert_eq!(
                        system.generate(&ctx),
                        fresh().generate(&ctx),
                        "{}, {setting:?}, {}",
                        system.name(),
                        q.id
                    );
                }
            }
        }
    }
}
