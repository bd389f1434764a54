//! Experiment runners: evaluate a text-to-SQL system over a benchmark split
//! under a chosen evidence setting, caching SEED-generated evidence so that
//! every system is compared against the *same* generated evidence (as in the
//! paper, where evidence generation happens once per question).
//!
//! Evaluation executes gold and predicted SQL through one [`ResultMemo`]
//! per runner, so a statement evaluated under many systems and settings —
//! every gold query, and the predictions that repeat a statement — runs
//! once per run, and a repeat replays the stored rows and stats. The
//! runner also has a parallel mode ([`ExperimentRunner::evaluate_parallel`]) that shards
//! questions across a fixed worker pool: per-question evaluations are
//! independent reads of the shared benchmark, and pair results are
//! collected back into question order, so the resulting [`Scores`] are
//! byte-identical to the serial path at any worker count.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use seed_core::{SeedPipeline, SeedVariant};
use seed_datasets::{Benchmark, Question, Split};
use seed_sqlengine::{ExecStats, ResultMemo};
use seed_text2sql::{GenerationContext, Text2SqlSystem};

use crate::metrics::{evaluate_pair_cached, score_set, PairEval, Scores};

/// Which evidence is supplied to the system under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvidenceSetting {
    /// No evidence at all (the realistic deployment scenario).
    WithoutEvidence,
    /// The benchmark's human evidence as shipped (including its defects).
    BirdEvidence,
    /// The manually corrected human evidence (Table II's "corrected" column).
    BirdCorrected,
    /// Evidence generated by SEED_gpt.
    SeedGpt,
    /// Evidence generated by SEED_deepseek.
    SeedDeepseek,
    /// Evidence generated by SEED_deepseek and then revised.
    SeedRevised,
    /// The canonical per-atom evidence (upper bound, used by diagnostics).
    Oracle,
}

impl EvidenceSetting {
    /// Column label used in result tables.
    pub fn label(&self) -> &'static str {
        match self {
            EvidenceSetting::WithoutEvidence => "w/o evidence",
            EvidenceSetting::BirdEvidence => "w/ evidence",
            EvidenceSetting::BirdCorrected => "w/ corrected evidence",
            EvidenceSetting::SeedGpt => "w/ SEED_gpt",
            EvidenceSetting::SeedDeepseek => "w/ SEED_deepseek",
            EvidenceSetting::SeedRevised => "w/ SEED_revised",
            EvidenceSetting::Oracle => "w/ oracle evidence",
        }
    }

    /// The SEED variant backing this setting, if any.
    fn seed_variant(&self) -> Option<SeedVariant> {
        match self {
            EvidenceSetting::SeedGpt => Some(SeedVariant::Gpt),
            EvidenceSetting::SeedDeepseek => Some(SeedVariant::Deepseek),
            EvidenceSetting::SeedRevised => Some(SeedVariant::Revised),
            _ => None,
        }
    }
}

/// Cache of SEED-generated evidence, keyed by (variant, question id).
#[derive(Debug, Default)]
pub struct SeedEvidenceCache {
    map: HashMap<(SeedVariant, String), String>,
}

impl SeedEvidenceCache {
    /// Generates evidence for every question of a split with each variant.
    pub fn build(bench: &Benchmark, split: Split, variants: &[SeedVariant]) -> Self {
        let train: Vec<&Question> = bench.split(Split::Train);
        let mut map = HashMap::new();
        for &variant in variants {
            let pipeline = SeedPipeline::new(variant);
            for q in bench.split(split) {
                let db = bench.database(&q.db_id).expect("database exists");
                let out = pipeline.generate(q, db, &train, bench.has_descriptions);
                map.insert((variant, q.id.clone()), out.evidence);
            }
        }
        SeedEvidenceCache { map }
    }

    /// Looks up cached evidence.
    pub fn get(&self, variant: SeedVariant, question_id: &str) -> Option<&str> {
        self.map.get(&(variant, question_id.to_string())).map(|s| s.as_str())
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Scores of one system under one evidence setting.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemScores {
    pub system: String,
    pub setting: String,
    pub scores: Scores,
    /// Merged execution stats of every evaluated (gold, predicted) pair —
    /// accumulated via [`ExecStats::merge`], so per-worker partials sum
    /// without double counting. A statement replayed from the runner's
    /// memo reports [`ExecStats::replayed`]. How the plan-cache counters
    /// split into hits and misses depends on scheduling (racing workers
    /// may both execute a statement); their sum, the work counters and
    /// `cost()` do not.
    pub stats: ExecStats,
}

/// Evaluates systems over one benchmark split.
pub struct ExperimentRunner<'a> {
    bench: &'a Benchmark,
    split: Split,
    train: Vec<&'a Question>,
    cache: SeedEvidenceCache,
    /// Shared across every evaluation this runner performs (and across its
    /// worker threads): each distinct statement runs once per run.
    memo: ResultMemo,
}

impl<'a> ExperimentRunner<'a> {
    /// Creates a runner with an empty SEED cache (SEED settings will fall back
    /// to no evidence until [`ExperimentRunner::with_seed_variants`] is called).
    pub fn new(bench: &'a Benchmark, split: Split) -> Self {
        ExperimentRunner {
            bench,
            split,
            train: bench.split(Split::Train),
            cache: SeedEvidenceCache::default(),
            memo: ResultMemo::new(),
        }
    }

    /// Pre-generates SEED evidence for the given variants.
    pub fn with_seed_variants(mut self, variants: &[SeedVariant]) -> Self {
        self.cache = SeedEvidenceCache::build(self.bench, self.split, variants);
        self
    }

    /// The questions this runner evaluates.
    pub fn questions(&self) -> Vec<&'a Question> {
        self.bench.split(self.split)
    }

    /// The SEED evidence cache (for inspection by the table harnesses).
    pub fn cache(&self) -> &SeedEvidenceCache {
        &self.cache
    }

    /// Resolves the evidence string for one question under a setting.
    pub fn evidence_for(&self, question: &Question, setting: EvidenceSetting) -> Option<String> {
        match setting {
            EvidenceSetting::WithoutEvidence => None,
            EvidenceSetting::BirdEvidence => {
                if question.human_evidence.is_present() {
                    Some(question.human_evidence.text.clone())
                } else {
                    None
                }
            }
            EvidenceSetting::BirdCorrected => {
                if question.human_evidence.corrected.trim().is_empty() {
                    None
                } else {
                    Some(question.human_evidence.corrected.clone())
                }
            }
            EvidenceSetting::Oracle => {
                let e = question.oracle_evidence();
                if e.is_empty() {
                    None
                } else {
                    Some(e)
                }
            }
            other => other
                .seed_variant()
                .and_then(|v| self.cache.get(v, &question.id))
                .filter(|e| !e.trim().is_empty())
                .map(|e| e.to_string()),
        }
    }

    /// Number of statement outcomes in the runner's memo so far.
    pub fn memoized(&self) -> usize {
        self.memo.len()
    }

    /// Generates a prediction for one question and evaluates it against the
    /// gold query — the unit of work both the serial and the parallel
    /// runners execute.
    fn evaluate_question(
        &self,
        q: &Question,
        system: &dyn Text2SqlSystem,
        setting: EvidenceSetting,
    ) -> (PairEval, ExecStats) {
        let db = self.bench.database(&q.db_id).expect("database exists");
        let evidence = self.evidence_for(q, setting);
        let ctx = GenerationContext {
            question: q,
            database: db,
            evidence: evidence.as_deref(),
            train_pool: &self.train,
        };
        let predicted = system.generate(&ctx);
        evaluate_pair_cached(db, &self.memo, &q.gold_sql, &predicted)
    }

    /// Folds ordered pair evaluations into the final scores.
    fn collect(
        &self,
        system: &dyn Text2SqlSystem,
        setting: EvidenceSetting,
        evals: Vec<(PairEval, ExecStats)>,
    ) -> SystemScores {
        let mut stats = ExecStats::default();
        let mut pairs = Vec::with_capacity(evals.len());
        for (pair, work) in evals {
            stats.merge(&work);
            pairs.push(pair);
        }
        SystemScores {
            system: system.name(),
            setting: setting.label().to_string(),
            scores: score_set(&pairs),
            stats,
        }
    }

    /// Evaluates a system under a setting over the full split.
    pub fn evaluate(&self, system: &dyn Text2SqlSystem, setting: EvidenceSetting) -> SystemScores {
        self.evaluate_filtered(system, setting, |_| true)
    }

    /// Evaluates a system over the questions accepted by `filter`.
    pub fn evaluate_filtered(
        &self,
        system: &dyn Text2SqlSystem,
        setting: EvidenceSetting,
        filter: impl Fn(&Question) -> bool,
    ) -> SystemScores {
        let evals: Vec<(PairEval, ExecStats)> = self
            .questions()
            .into_iter()
            .filter(|q| filter(q))
            .map(|q| self.evaluate_question(q, system, setting))
            .collect();
        self.collect(system, setting, evals)
    }

    /// Evaluates a system with the split sharded across `workers` threads.
    ///
    /// Each worker pulls the next unevaluated question off a shared cursor,
    /// evaluates it against the shared benchmark snapshot (reads only), and
    /// deposits the pair into its question-order slot — so EX/VES are
    /// accumulated in exactly the serial order and the returned [`Scores`]
    /// are byte-identical to [`ExperimentRunner::evaluate`] at any worker
    /// count. `workers <= 1` runs the serial path directly.
    pub fn evaluate_parallel(
        &self,
        system: &(dyn Text2SqlSystem + Sync),
        setting: EvidenceSetting,
        workers: usize,
    ) -> SystemScores {
        let questions = self.questions();
        let workers = workers.clamp(1, questions.len().max(1));
        if workers <= 1 {
            return self.evaluate(system, setting);
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<(PairEval, ExecStats)>>> =
            questions.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= questions.len() {
                        break;
                    }
                    let eval = self.evaluate_question(questions[i], system, setting);
                    *slots[i].lock().expect("slot lock") = Some(eval);
                });
            }
        });
        let evals: Vec<(PairEval, ExecStats)> = slots
            .into_iter()
            .map(|s| s.into_inner().expect("slot lock").expect("every question evaluated"))
            .collect();
        self.collect(system, setting, evals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seed_datasets::{bird::build_bird, CorpusConfig};
    use seed_text2sql::CodeS;

    fn runner(bench: &Benchmark) -> ExperimentRunner<'_> {
        ExperimentRunner::new(bench, Split::Dev).with_seed_variants(&[SeedVariant::Gpt])
    }

    #[test]
    fn seed_cache_is_populated_for_every_dev_question() {
        let bench = build_bird(&CorpusConfig::tiny());
        let r = runner(&bench);
        assert_eq!(r.cache().len(), r.questions().len());
        assert!(!r.cache().is_empty());
    }

    #[test]
    fn evidence_settings_resolve_distinct_texts() {
        let bench = build_bird(&CorpusConfig::tiny());
        let r = runner(&bench);
        let q = r
            .questions()
            .into_iter()
            .find(|q| !q.atoms.is_empty() && q.human_evidence.is_present())
            .unwrap();
        assert!(r.evidence_for(q, EvidenceSetting::WithoutEvidence).is_none());
        assert!(r.evidence_for(q, EvidenceSetting::BirdEvidence).is_some());
        assert!(r.evidence_for(q, EvidenceSetting::Oracle).is_some());
    }

    #[test]
    fn codes_with_seed_beats_codes_without_evidence() {
        let bench = build_bird(&CorpusConfig::tiny());
        let r = runner(&bench);
        let system = CodeS::new(7);
        let without = r.evaluate(&system, EvidenceSetting::WithoutEvidence);
        let with_seed = r.evaluate(&system, EvidenceSetting::SeedGpt);
        assert!(without.scores.n > 30);
        assert!(
            with_seed.scores.ex > without.scores.ex,
            "SEED ({:.1}) should beat no evidence ({:.1})",
            with_seed.scores.ex,
            without.scores.ex
        );
    }

    #[test]
    fn parallel_evaluation_matches_serial_scores_exactly() {
        let bench = build_bird(&CorpusConfig::tiny());
        let system = CodeS::new(7);
        for setting in [EvidenceSetting::WithoutEvidence, EvidenceSetting::SeedGpt] {
            let serial = runner(&bench).evaluate(&system, setting);
            for workers in [1, 2, 8] {
                // A fresh runner per worker count, so the workers race to
                // fill a cold memo instead of replaying the serial run.
                let parallel = runner(&bench).evaluate_parallel(&system, setting, workers);
                assert_eq!(
                    parallel.scores, serial.scores,
                    "scores must be byte-identical at {workers} workers ({setting:?})"
                );
                // Every counter is part of the contract, except how plan
                // lookups split into hits and misses: racing workers may
                // both execute a statement. `replayed` keeps their sum.
                assert_eq!(
                    parallel.stats.replayed(),
                    serial.stats.replayed(),
                    "{workers} workers ({setting:?})"
                );
            }
        }
    }

    #[test]
    fn a_repeated_run_executes_nothing() {
        let bench = build_bird(&CorpusConfig::tiny());
        let r = runner(&bench);
        let system = CodeS::new(7);
        let first = r.evaluate(&system, EvidenceSetting::WithoutEvidence);
        let memoized = r.memoized();
        assert!(memoized > 0, "gold and predicted statements are memoized");
        let rerun = r.evaluate(&system, EvidenceSetting::WithoutEvidence);
        assert_eq!(r.memoized(), memoized, "an identical run adds no entry");
        assert_eq!(rerun.scores, first.scores);
        assert_eq!(rerun.stats, first.stats.replayed(), "a repeated run replays every statement");
        assert_eq!(rerun.stats.plan_cache_misses, 0, "a repeated run plans nothing");
    }

    #[test]
    fn setting_labels_match_paper_wording() {
        assert_eq!(EvidenceSetting::WithoutEvidence.label(), "w/o evidence");
        assert_eq!(EvidenceSetting::BirdEvidence.label(), "w/ evidence");
        assert_eq!(EvidenceSetting::SeedGpt.label(), "w/ SEED_gpt");
    }
}
