//! Execution accuracy (EX) and valid efficiency score (VES).
//!
//! EX compares the execution result of the predicted query against the gold
//! query's result (multiset, order-insensitive). VES additionally weights each
//! correct prediction by `sqrt(gold_cost / predicted_cost)`, rewarding queries
//! that do the same work more cheaply — the paper uses wall-clock time on
//! SQLite; the reproduction uses the engine's deterministic cost counters
//! ([`seed_sqlengine::ExecStats`]), which preserves the ranking behaviour
//! without timing noise.
//!
//! [`evaluate_pair`] executes both statements afresh and is the oracle.
//! [`evaluate_pair_cached`] executes them through a [`ResultMemo`], so a
//! statement evaluated under many systems and settings runs once per run,
//! and EX compares fingerprints computed once per memo entry.

use std::sync::Arc;

use seed_sqlengine::{
    execute_with_stats_mode, Database, ExecStats, Memoized, PlanMode, ResultMemo, SqlResult,
};

/// Evaluation of one (gold, predicted) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairEval {
    /// Whether the predicted query produced the gold result.
    pub correct: bool,
    /// Whether the predicted query executed at all.
    pub valid: bool,
    /// Cost of the gold query.
    pub gold_cost: f64,
    /// Cost of the predicted query (equals `gold_cost` when invalid, so the
    /// VES contribution is simply zero via `correct`).
    pub pred_cost: f64,
}

impl PairEval {
    /// The VES reward for this pair: `sqrt(gold/pred)` when correct, else 0.
    pub fn ves_reward(&self) -> f64 {
        if self.correct && self.pred_cost > 0.0 {
            (self.gold_cost / self.pred_cost).sqrt()
        } else {
            0.0
        }
    }
}

/// Evaluates one predicted query against the gold query. Executes under
/// [`PlanMode::serving`] (the vectorized columnar pipeline), as the
/// [`ResultMemo`] of the cached path does, so both report costs from the
/// same execution mode.
pub fn evaluate_pair(db: &Database, gold_sql: &str, pred_sql: &str) -> PairEval {
    evaluate_pair_impl(
        |sql| execute_with_stats_mode(db, sql, PlanMode::serving()),
        |gold, pred| pred.result_eq(gold),
        gold_sql,
        pred_sql,
    )
    .0
}

/// Like [`evaluate_pair`], but executes through a [`ResultMemo`], so a
/// statement repeated across an eval run (every gold query, once per
/// system × setting, and every prediction that repeats a statement) runs
/// once per run. EX holds when both statements share one memo entry or
/// their entries' fingerprints are equal, which is [`evaluate_pair`]'s
/// `result_eq`.
///
/// The returned [`ExecStats`] merges the gold and predicted executions'
/// stats ([`ExecStats::merge`]), letting runners aggregate run totals
/// without double counting. The [`PairEval`] is identical to the uncached
/// path: a memo hit replays the stored execution's stats and changes only
/// the plan-cache counters ([`ExecStats::replayed`]), which
/// [`ExecStats::cost`] — and therefore EX/VES — never reads.
pub fn evaluate_pair_cached(
    db: &Database,
    memo: &ResultMemo,
    gold_sql: &str,
    pred_sql: &str,
) -> (PairEval, ExecStats) {
    evaluate_pair_impl(
        |sql| memo.execute(db, sql),
        |gold: &Arc<Memoized>, pred| pred.result_eq(gold),
        gold_sql,
        pred_sql,
    )
}

fn evaluate_pair_impl<R>(
    mut run: impl FnMut(&str) -> SqlResult<(R, ExecStats)>,
    same_result: impl Fn(&R, &R) -> bool,
    gold_sql: &str,
    pred_sql: &str,
) -> (PairEval, ExecStats) {
    let mut work = ExecStats::default();
    let (gold, gold_stats) = match run(gold_sql) {
        Ok(x) => x,
        Err(_) => {
            // A broken gold query would be a corpus bug; treat the pair as wrong.
            return (
                PairEval { correct: false, valid: false, gold_cost: 1.0, pred_cost: 1.0 },
                work,
            );
        }
    };
    work.merge(&gold_stats);
    let gold_cost = gold_stats.cost();
    let pair = match run(pred_sql) {
        Ok((pred, pred_stats)) => {
            work.merge(&pred_stats);
            PairEval {
                correct: same_result(&gold, &pred),
                valid: true,
                gold_cost,
                pred_cost: pred_stats.cost(),
            }
        }
        Err(_) => PairEval { correct: false, valid: false, gold_cost, pred_cost: gold_cost },
    };
    (pair, work)
}

/// Aggregate scores over a question set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Scores {
    /// Execution accuracy, in percent.
    pub ex: f64,
    /// Valid efficiency score, in percent.
    pub ves: f64,
    /// Number of evaluated questions.
    pub n: usize,
}

/// Aggregates pair evaluations into EX% and VES%.
pub fn score_set(pairs: &[PairEval]) -> Scores {
    if pairs.is_empty() {
        return Scores::default();
    }
    let n = pairs.len();
    let ex = pairs.iter().filter(|p| p.correct).count() as f64 / n as f64 * 100.0;
    let ves = pairs.iter().map(|p| p.ves_reward()).sum::<f64>() / n as f64 * 100.0;
    Scores { ex, ves, n }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seed_sqlengine::execute_statement;

    fn db() -> Database {
        let mut d = Database::new("t");
        execute_statement(&mut d, "CREATE TABLE x (id INTEGER, v TEXT)").unwrap();
        execute_statement(&mut d, "INSERT INTO x VALUES (1,'a'),(2,'b'),(3,'a')").unwrap();
        d
    }

    #[test]
    fn identical_queries_are_correct_with_unit_reward() {
        let d = db();
        let p = evaluate_pair(&d, "SELECT COUNT(*) FROM x", "SELECT COUNT(*) FROM x");
        assert!(p.correct && p.valid);
        assert!((p.ves_reward() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn semantically_equivalent_queries_are_correct() {
        let d = db();
        let p = evaluate_pair(
            &d,
            "SELECT id FROM x WHERE v = 'a' ORDER BY id",
            "SELECT id FROM x WHERE v = 'a'",
        );
        assert!(p.correct, "order-insensitive comparison");
        assert!(p.ves_reward() >= 1.0, "cheaper query earns a reward >= 1");
    }

    #[test]
    fn wrong_and_invalid_queries_score_zero() {
        let d = db();
        let wrong =
            evaluate_pair(&d, "SELECT COUNT(*) FROM x", "SELECT COUNT(*) FROM x WHERE v = 'zzz'");
        assert!(!wrong.correct && wrong.valid);
        assert_eq!(wrong.ves_reward(), 0.0);
        let invalid = evaluate_pair(&d, "SELECT COUNT(*) FROM x", "SELECT nope FROM missing");
        assert!(!invalid.correct && !invalid.valid);
    }

    #[test]
    fn score_set_aggregates_percentages() {
        let d = db();
        let pairs = vec![
            evaluate_pair(&d, "SELECT COUNT(*) FROM x", "SELECT COUNT(*) FROM x"),
            evaluate_pair(&d, "SELECT COUNT(*) FROM x", "SELECT COUNT(*) FROM x WHERE 1 = 0"),
        ];
        let s = score_set(&pairs);
        assert_eq!(s.n, 2);
        assert!((s.ex - 50.0).abs() < 1e-9);
        assert!(s.ves > 0.0 && s.ves <= 60.0);
        assert_eq!(score_set(&[]), Scores::default());
    }

    #[test]
    fn ves_rewards_cheaper_correct_queries_more() {
        let d = db();
        let cheap = evaluate_pair(
            &d,
            "SELECT id FROM ( SELECT id, v FROM x ) AS s WHERE v = 'a'",
            "SELECT id FROM x WHERE v = 'a'",
        );
        assert!(cheap.correct);
        assert!(cheap.ves_reward() > 1.0);
    }
}
