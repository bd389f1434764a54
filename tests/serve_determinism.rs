//! Determinism suite for the `seed-serve` runtime and the parallel eval
//! runner: concurrency must never change what a query returns or what an
//! eval run scores.
//!
//! Contract under test (see `crates/serve/README.md`):
//! * `Server::execute_batch` returns, for every statement, rows and columns
//!   byte-identical to a direct serial execution in the server's own plan
//!   mode (the columnar serving default), in submission order, at any
//!   worker count — including under a seeded shuffle of the submission
//!   order;
//! * the cost-bearing work counters (and hence `ExecStats::cost`) are
//!   identical too, so VES-style accounting cannot drift under concurrency;
//! * with in-flight dedup, `result_cache_hits` is **exact** — `statements −
//!   distinct statements` — at every worker count, not merely
//!   scheduling-dependently close;
//! * `ExperimentRunner::evaluate_parallel` produces `Scores` equal to the
//!   serial runner on both gold corpora at 1, 2, and 8 workers.

use std::collections::HashSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use seed_repro::datasets::Split;
use seed_repro::datasets::{bird::build_bird, spider::build_spider, Benchmark, CorpusConfig};
use seed_repro::eval::{EvidenceSetting, ExperimentRunner, Scores};
use seed_repro::serve::{ServeConfig, Server};
use seed_repro::sqlengine::{execute_with_stats_mode, PlanMode};
use seed_repro::text2sql::CodeS;

fn corpora() -> Vec<Benchmark> {
    vec![build_bird(&CorpusConfig::tiny()), build_spider(&CorpusConfig::tiny())]
}

/// Every gold query of `bench` that targets `db_id`, repeated the way an
/// eval run repeats gold statements, in a seeded-shuffled submission order.
fn shuffled_gold_batch(bench: &Benchmark, db_id: &str, seed: u64) -> Vec<String> {
    let mut batch: Vec<String> = bench
        .questions
        .iter()
        .filter(|q| q.db_id == db_id)
        .flat_map(|q| [q.gold_sql.clone(), q.gold_sql.clone()])
        .collect();
    batch.shuffle(&mut StdRng::seed_from_u64(seed));
    batch
}

#[test]
fn serve_batches_match_serial_execution_at_every_worker_count() {
    let mut statements_checked = 0usize;
    for bench in corpora() {
        for db in &bench.databases {
            let batch = shuffled_gold_batch(&bench, db.name(), 0x5eed);
            if batch.is_empty() {
                continue;
            }
            let snapshot = Arc::new(db.clone());
            let distinct: HashSet<&String> = batch.iter().collect();
            for workers in [1usize, 2, 8] {
                // Oversubscription keeps the cross-thread pool machinery
                // genuinely exercised even when the host exposes fewer
                // hardware threads than the worker count under test.
                let server = Server::new(
                    Arc::clone(&snapshot),
                    ServeConfig::default().with_workers(workers).oversubscribed(),
                );
                let outcomes = server.execute_batch(&batch);
                assert_eq!(outcomes.len(), batch.len());
                // In-flight dedup pins the hit counter exactly: one
                // canonical execution per distinct statement, every other
                // submission a hit, independent of scheduling.
                assert_eq!(
                    server.snapshot_stats().result_cache_hits,
                    (batch.len() - distinct.len()) as u64,
                    "result_cache_hits must be exact at {workers} workers on {}",
                    db.name()
                );
                for (sql, outcome) in batch.iter().zip(&outcomes) {
                    let served = outcome
                        .as_ref()
                        .unwrap_or_else(|e| panic!("{}: serve failed: {e:?} ({sql})", db.name()));
                    // The serial reference runs in the server's own mode
                    // (columnar serving default): the contract is that
                    // *concurrency* changes nothing, and cost counters are
                    // deterministic per mode, not across modes.
                    let (direct, direct_stats) =
                        execute_with_stats_mode(db, sql, PlanMode::serving()).unwrap_or_else(|e| {
                            panic!("{}: direct failed: {e:?} ({sql})", db.name())
                        });
                    assert_eq!(
                        served.result.rows,
                        direct.rows,
                        "row divergence at {workers} workers on {}: {sql}",
                        db.name()
                    );
                    assert_eq!(served.result.columns, direct.columns);
                    assert_eq!(
                        served.stats.cost(),
                        direct_stats.cost(),
                        "cost divergence at {workers} workers on {}: {sql}",
                        db.name()
                    );
                    statements_checked += 1;
                }
            }
        }
    }
    assert!(
        statements_checked > 300,
        "expected substantive corpora coverage, checked {statements_checked}"
    );
}

/// The shared result cache must be an invisible optimization: the repeated
/// half of each batch is answered from cache, with outcomes (rows *and*
/// billed stats) equal to the first, fresh half.
#[test]
fn serve_result_cache_serves_repeats_without_changing_anything() {
    let bench = build_bird(&CorpusConfig::tiny());
    let db = &bench.databases[0];
    let uniques: Vec<String> = bench
        .questions
        .iter()
        .filter(|q| q.db_id == db.name())
        .map(|q| q.gold_sql.clone())
        .collect();
    assert!(!uniques.is_empty());
    let batch: Vec<String> = uniques.iter().chain(uniques.iter()).cloned().collect();
    let server = Server::new(Arc::new(db.clone()), ServeConfig::serial());
    let outcomes = server.execute_batch(&batch);
    let n = uniques.len();
    for i in 0..n {
        let fresh = outcomes[i].as_ref().unwrap();
        let repeat = outcomes[n + i].as_ref().unwrap();
        assert_eq!(fresh.result.rows, repeat.result.rows, "{}", batch[i]);
        assert_eq!(fresh.stats, repeat.stats, "cached stats bill the canonical execution");
    }
    let stats = server.snapshot_stats();
    // Distinct questions can share one gold query, so hits exceed the
    // repeated half exactly by the intra-half duplicates.
    let distinct: HashSet<&String> = batch.iter().collect();
    assert!(stats.result_cache_hits >= n as u64, "repeats come from the result cache");
    assert_eq!(
        stats.result_cache_hits,
        (batch.len() - distinct.len()) as u64,
        "hits are exactly statements minus distinct statements"
    );
    assert_eq!(stats.statements, batch.len() as u64);
}

fn scores_eq(a: &Scores, b: &Scores) -> bool {
    a == b
}

#[test]
fn parallel_eval_runner_matches_serial_scores_on_both_corpora() {
    for bench in corpora() {
        let system = CodeS::new(7);
        let serial = ExperimentRunner::new(&bench, Split::Dev)
            .evaluate(&system, EvidenceSetting::WithoutEvidence);
        // Tiny-corpus dev splits: bird has ~55 questions, spider ~12.
        assert!(serial.scores.n > 10, "{}: substantive split", bench.name);
        for workers in [1usize, 2, 8] {
            // A fresh runner per worker count: the workers race to fill a
            // cold result memo.
            let parallel = ExperimentRunner::new(&bench, Split::Dev).evaluate_parallel(
                &system,
                EvidenceSetting::WithoutEvidence,
                workers,
            );
            assert!(
                scores_eq(&parallel.scores, &serial.scores),
                "{}: Scores diverged at {workers} workers: {:?} vs {:?}",
                bench.name,
                parallel.scores,
                serial.scores
            );
            // Every counter, with plan lookups compared as hits + misses:
            // which racing worker executes a statement first is scheduling.
            assert_eq!(
                parallel.stats.replayed(),
                serial.stats.replayed(),
                "{}: stats diverged at {workers} workers",
                bench.name
            );
        }
    }
}
