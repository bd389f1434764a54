//! DAIL-SQL: systematic prompt engineering for in-context learning.
//!
//! DAIL-SQL's contribution is its prompt design: how to represent the schema,
//! how to retrieve few-shot examples (masked-question similarity), and how to
//! render them. It performs no database-value retrieval of its own and simply
//! concatenates the evidence with the question — which is why the paper finds
//! it suffers the largest degradation (−20.86 EX) when evidence is withheld.
//! Its embedder keeps each pool question's embedding, so a training pool is
//! embedded once, not once per question.

use seed_embedding::{EmbeddingModel, HashedEmbedder, PoolEmbedder};
use seed_llm::{FewShotExample, LanguageModel, ModelProfile, SimLlm, SqlGenTask};

use crate::{GenerationContext, Text2SqlSystem};

/// Number of few-shot examples placed in the prompt.
const FEW_SHOT: usize = 5;

/// The DAIL-SQL system (GPT-4 base, as in the paper's Table IV).
pub struct DailSql {
    model: SimLlm,
    embedder: PoolEmbedder<HashedEmbedder>,
}

impl Default for DailSql {
    fn default() -> Self {
        Self::new()
    }
}

impl DailSql {
    pub fn new() -> Self {
        DailSql {
            model: SimLlm::new(ModelProfile::gpt_4()),
            embedder: PoolEmbedder::new(HashedEmbedder::default()),
        }
    }

    /// The underlying simulated model.
    pub fn model(&self) -> &SimLlm {
        &self.model
    }

    /// Selects the most similar training questions as few-shot examples.
    fn select_examples(&self, ctx: &GenerationContext<'_>) -> Vec<FewShotExample> {
        if ctx.train_pool.is_empty() {
            return Vec::new();
        }
        let candidates: Vec<&str> = ctx.train_pool.iter().map(|q| q.text.as_str()).collect();
        let ranked = self.embedder.rank(&ctx.question.text, &candidates);
        ranked
            .into_iter()
            .take(FEW_SHOT)
            .map(|(i, _)| {
                let q = ctx.train_pool[i];
                FewShotExample {
                    question: q.text.clone(),
                    evidence: q.human_evidence.text.clone(),
                    sql: q.gold_sql.clone(),
                }
            })
            .collect()
    }
}

impl Text2SqlSystem for DailSql {
    fn name(&self) -> String {
        "DAIL-SQL (GPT-4)".to_string()
    }

    fn generate(&self, ctx: &GenerationContext<'_>) -> String {
        let few_shot = self.select_examples(ctx);
        let task = SqlGenTask {
            question_id: &ctx.question.id,
            question: &ctx.question.text,
            schema: ctx.database.schema(),
            schema_subset: None,
            evidence: ctx.evidence,
            descriptions_in_prompt: false,
            grounded_values: &[],
            few_shot: &few_shot,
            atoms: &ctx.question.atoms,
            gold_sql: &ctx.question.gold_sql,
            difficulty: ctx.question.difficulty,
            calibration_hints: false,
            sample_index: 0,
        };
        self.model.generate_sql(&task).sql
    }
}

impl DailSql {
    /// Embedding dimension used for example selection (exposed for tests).
    pub fn embedding_dimension(&self) -> usize {
        self.embedder.model().dimension()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;
    use seed_datasets::Split;
    use seed_sqlengine::execute;

    #[test]
    fn few_shot_examples_come_from_the_same_topic_when_available() {
        let bench = tiny_bird();
        let train: Vec<&seed_datasets::Question> = bench.split(Split::Train);
        let system = DailSql::new();
        let (q, db) = dev_cases(&bench).into_iter().find(|(q, _)| q.db_id == "financial").unwrap();
        let ctx =
            GenerationContext { question: q, database: db, evidence: None, train_pool: &train };
        let examples = system.select_examples(&ctx);
        assert!(!examples.is_empty());
        assert!(examples.len() <= FEW_SHOT);
    }

    #[test]
    fn a_kept_pool_generates_what_a_fresh_system_generates() {
        let bench = seed_datasets::bird::build_bird(&seed_datasets::CorpusConfig::default());
        let train: Vec<&seed_datasets::Question> = bench.split(Split::Train);
        let kept = DailSql::new();
        for q in bench.split(Split::Dev) {
            let db = bench.database(&q.db_id).unwrap();
            let ctx =
                GenerationContext { question: q, database: db, evidence: None, train_pool: &train };
            assert_eq!(
                kept.select_examples(&ctx),
                DailSql::new().select_examples(&ctx),
                "{}",
                q.id
            );
            assert_eq!(kept.generate(&ctx), DailSql::new().generate(&ctx), "{}", q.id);
        }
    }

    #[test]
    fn dail_sql_degrades_sharply_without_evidence() {
        let bench = tiny_bird();
        let train: Vec<&seed_datasets::Question> = bench.split(Split::Train);
        let system = DailSql::new();
        let mut with_ev = 0usize;
        let mut without_ev = 0usize;
        let mut total = 0usize;
        for (q, db) in dev_cases(&bench) {
            if q.atoms.is_empty() {
                continue;
            }
            total += 1;
            let gold = execute(db, &q.gold_sql).unwrap();
            let ev = q.oracle_evidence();
            for (evidence, counter) in [(Some(ev.as_str()), &mut with_ev), (None, &mut without_ev)]
            {
                let ctx =
                    GenerationContext { question: q, database: db, evidence, train_pool: &train };
                if execute(db, &system.generate(&ctx)).map(|r| r.result_eq(&gold)).unwrap_or(false)
                {
                    *counter += 1;
                }
            }
        }
        let gap = with_ev as f64 / total as f64 - without_ev as f64 / total as f64;
        assert!(gap > 0.2, "DAIL-SQL's evidence gap should be large, got {gap:.2}");
    }
}
