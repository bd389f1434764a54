//! C3: zero-shot text-to-SQL with ChatGPT.
//!
//! C3 has three stages: Clear Prompting (schema linking via zero-shot
//! instructions), Calibration with Hints (bias-correcting instructions such as
//! "use COUNT(*), LEFT JOIN, or OR only when necessary"), and Consistent
//! Output (execute several sampled queries and vote on the result). No
//! few-shot examples and no value retrieval are used — it is the lightest
//! baseline in the paper. The vote runs its candidates through a
//! [`ResultMemo`] the system owns, so a candidate seen before against the
//! same table states is not executed again.

use std::sync::Arc;

use seed_llm::{LanguageModel, ModelProfile, SimLlm, SqlGenTask};
use seed_sqlengine::{Memoized, ResultMemo};

use crate::{GenerationContext, Text2SqlSystem};

/// Number of self-consistency samples.
const SAMPLES: u32 = 3;

/// The C3 system (ChatGPT base).
pub struct C3 {
    model: SimLlm,
    /// The outcomes of the candidates the vote executed.
    memo: ResultMemo,
}

impl Default for C3 {
    fn default() -> Self {
        Self::new()
    }
}

impl C3 {
    pub fn new() -> Self {
        C3 { model: SimLlm::new(ModelProfile::chatgpt()), memo: ResultMemo::new() }
    }

    /// The underlying simulated model.
    pub fn model(&self) -> &SimLlm {
        &self.model
    }
}

impl Text2SqlSystem for C3 {
    fn name(&self) -> String {
        "C3 (ChatGPT)".to_string()
    }

    fn generate(&self, ctx: &GenerationContext<'_>) -> String {
        // Consistent Output: sample several queries and vote on the execution result.
        let mut candidates: Vec<String> = Vec::new();
        for sample in 0..SAMPLES {
            let task = SqlGenTask {
                question_id: &ctx.question.id,
                question: &ctx.question.text,
                schema: ctx.database.schema(),
                schema_subset: None,
                evidence: ctx.evidence,
                descriptions_in_prompt: false,
                grounded_values: &[],
                few_shot: &[],
                atoms: &ctx.question.atoms,
                gold_sql: &ctx.question.gold_sql,
                difficulty: ctx.question.difficulty,
                calibration_hints: true,
                sample_index: sample,
            };
            candidates.push(self.model.generate_sql(&task).sql);
        }
        // Vote by execution-result fingerprint; unexecutable candidates lose.
        let mut buckets: Vec<(Arc<Memoized>, Vec<usize>)> = Vec::new();
        for (i, sql) in candidates.iter().enumerate() {
            if let Ok((outcome, _)) = self.memo.execute(ctx.database, sql) {
                match buckets.iter_mut().find(|(seen, _)| seen.result_eq(&outcome)) {
                    Some((_, members)) => members.push(i),
                    None => buckets.push((outcome, vec![i])),
                }
            }
        }
        buckets
            .iter()
            .max_by_key(|(_, members)| members.len())
            .map(|(_, members)| candidates[members[0]].clone())
            .unwrap_or_else(|| candidates[0].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;
    use seed_datasets::Split;
    use seed_sqlengine::execute;

    #[test]
    fn voting_prefers_executable_candidates() {
        let bench = tiny_bird();
        let train: Vec<&seed_datasets::Question> = bench.split(Split::Train);
        let system = C3::new();
        let mut executable = 0usize;
        let mut total = 0usize;
        for (q, db) in dev_cases(&bench).into_iter().take(20) {
            total += 1;
            let ctx =
                GenerationContext { question: q, database: db, evidence: None, train_pool: &train };
            if execute(db, &system.generate(&ctx)).is_ok() {
                executable += 1;
            }
        }
        assert!(
            executable as f64 / total as f64 > 0.7,
            "self-consistency should mostly return executable SQL ({executable}/{total})"
        );
    }

    #[test]
    fn c3_output_is_deterministic() {
        let bench = tiny_bird();
        let system = C3::new();
        let (q, db) = dev_cases(&bench)[0];
        let ctx = GenerationContext { question: q, database: db, evidence: None, train_pool: &[] };
        assert_eq!(system.generate(&ctx), system.generate(&ctx));
    }
}
