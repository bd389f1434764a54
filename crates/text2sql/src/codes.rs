//! CodeS: fine-tuned open-source text-to-SQL models (1B/3B/7B/15B).
//!
//! The published system fine-tunes StarCoder, links schema elements with the
//! RESDSQL recipe, and references database values through a BM25 index plus
//! longest-common-substring matching. It consumes evidence by simple
//! concatenation with the question. Here the fine-tuned generator is the
//! simulator with a `sft-codes-*` profile (small context, very high
//! evidence-grounding fidelity), and the value referencing is
//! [`crate::value_retrieval`], through a [`ValueRetriever`] the system owns,
//! so a question asked again of the same table states is not matched
//! against the values again.

use seed_llm::{LanguageModel, ModelProfile, SimLlm, SqlGenTask};

use crate::value_retrieval::ValueRetriever;
use crate::{GenerationContext, Text2SqlSystem};

/// The CodeS system at a given parameter count (in billions).
pub struct CodeS {
    model: SimLlm,
    billions: u32,
    /// The values each question grounded.
    values: ValueRetriever,
}

impl CodeS {
    /// Creates a CodeS system of the given size (1, 3, 7, or 15 billion).
    pub fn new(billions: u32) -> Self {
        CodeS {
            model: SimLlm::new(ModelProfile::codes(billions)),
            billions,
            values: ValueRetriever::new(),
        }
    }

    /// The underlying simulated model (exposed for usage accounting).
    pub fn model(&self) -> &SimLlm {
        &self.model
    }
}

impl Text2SqlSystem for CodeS {
    fn name(&self) -> String {
        format!("SFT CodeS-{}B", self.billions)
    }

    fn generate(&self, ctx: &GenerationContext<'_>) -> String {
        // Coarse-to-fine value referencing (BM25 + LCS in the paper).
        let grounded = self.values.retrieve(&ctx.question.text, ctx.database);
        let task = SqlGenTask {
            question_id: &ctx.question.id,
            question: &ctx.question.text,
            schema: ctx.database.schema(),
            schema_subset: None,
            evidence: ctx.evidence,
            descriptions_in_prompt: false,
            grounded_values: &grounded,
            few_shot: &[],
            atoms: &ctx.question.atoms,
            gold_sql: &ctx.question.gold_sql,
            difficulty: ctx.question.difficulty,
            calibration_hints: false,
            sample_index: 0,
        };
        self.model.generate_sql(&task).sql
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;
    use seed_datasets::Split;
    use seed_sqlengine::execute;

    #[test]
    fn larger_codes_is_at_least_as_good_without_evidence() {
        let bench = tiny_bird();
        let train: Vec<&seed_datasets::Question> = bench.split(Split::Train);
        let small = CodeS::new(1);
        let large = CodeS::new(15);
        let mut small_ok = 0;
        let mut large_ok = 0;
        for (q, db) in dev_cases(&bench) {
            let gold = execute(db, &q.gold_sql).unwrap();
            for (system, counter) in [(&small, &mut small_ok), (&large, &mut large_ok)] {
                let ctx = GenerationContext {
                    question: q,
                    database: db,
                    evidence: None,
                    train_pool: &train,
                };
                if execute(db, &system.generate(&ctx)).map(|r| r.result_eq(&gold)).unwrap_or(false)
                {
                    *counter += 1;
                }
            }
        }
        assert!(large_ok >= small_ok, "CodeS-15B ({large_ok}) should beat CodeS-1B ({small_ok})");
    }

    #[test]
    fn generation_is_deterministic() {
        let bench = tiny_bird();
        let train: Vec<&seed_datasets::Question> = bench.split(Split::Train);
        let system = CodeS::new(7);
        let (q, db) = dev_cases(&bench)[0];
        let ctx =
            GenerationContext { question: q, database: db, evidence: None, train_pool: &train };
        assert_eq!(system.generate(&ctx), system.generate(&ctx));
    }

    #[test]
    fn usage_is_metered() {
        let bench = tiny_bird();
        let system = CodeS::new(3);
        let (q, db) = dev_cases(&bench)[0];
        let ctx = GenerationContext { question: q, database: db, evidence: None, train_pool: &[] };
        system.generate(&ctx);
        assert_eq!(system.model().usage().calls, 1);
    }
}
