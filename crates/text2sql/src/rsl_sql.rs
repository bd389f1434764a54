//! RSL-SQL: robust (bidirectional) schema linking.
//!
//! RSL-SQL first generates a preliminary SQL query over the *full* schema,
//! extracts the schema elements that query references, and then generates the
//! final query over the union of forward-linked and backward-extracted
//! elements. The bidirectional step is what makes its pruning robust: tables
//! the preliminary query needed are never dropped. Both generations see the
//! values [`crate::value_retrieval`] grounds, through a [`ValueRetriever`]
//! the system owns, so a question asked again of the same table states is
//! not matched against the values again.

use seed_llm::{LanguageModel, ModelProfile, SimLlm, SqlGenTask};

use crate::value_retrieval::ValueRetriever;
use crate::{GenerationContext, Text2SqlSystem};

/// The RSL-SQL system (GPT-4o base, as in the paper's Table IV).
pub struct RslSql {
    model: SimLlm,
    /// The values each question grounded.
    values: ValueRetriever,
}

impl Default for RslSql {
    fn default() -> Self {
        Self::new()
    }
}

impl RslSql {
    pub fn new() -> Self {
        RslSql { model: SimLlm::new(ModelProfile::gpt_4o()), values: ValueRetriever::new() }
    }

    /// The underlying simulated model.
    pub fn model(&self) -> &SimLlm {
        &self.model
    }

    /// Extracts the tables a SQL string references (backward schema linking).
    fn referenced_tables(sql: &str, schema: &seed_sqlengine::DatabaseSchema) -> Vec<String> {
        let lowered = sql.to_lowercase();
        schema
            .tables
            .iter()
            .filter(|t| lowered.contains(&t.name.to_lowercase()))
            .map(|t| t.name.clone())
            .collect()
    }
}

impl Text2SqlSystem for RslSql {
    fn name(&self) -> String {
        "RSL-SQL (GPT-4o)".to_string()
    }

    fn generate(&self, ctx: &GenerationContext<'_>) -> String {
        let grounded = self.values.retrieve(&ctx.question.text, ctx.database);
        fn make_task<'a>(
            ctx: &GenerationContext<'a>,
            grounded: &'a [seed_llm::GroundedColumn],
            schema_subset: Option<&'a [String]>,
            sample_index: u32,
        ) -> SqlGenTask<'a> {
            SqlGenTask {
                question_id: &ctx.question.id,
                question: &ctx.question.text,
                schema: ctx.database.schema(),
                schema_subset,
                evidence: ctx.evidence,
                descriptions_in_prompt: true,
                grounded_values: grounded,
                few_shot: &[],
                atoms: &ctx.question.atoms,
                gold_sql: &ctx.question.gold_sql,
                difficulty: ctx.question.difficulty,
                calibration_hints: false,
                sample_index,
            }
        }

        // Step 1: preliminary SQL over the full schema (forward pass).
        let preliminary = self.model.generate_sql(&make_task(ctx, &grounded, None, 0)).sql;
        // Step 2: backward linking — keep the tables the preliminary SQL used.
        let linked = Self::referenced_tables(&preliminary, ctx.database.schema());
        if linked.is_empty() {
            return preliminary;
        }
        // Step 3: final generation over the bidirectionally linked schema.
        self.model.generate_sql(&make_task(ctx, &grounded, Some(&linked), 1)).sql
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;
    use seed_datasets::Split;
    use seed_sqlengine::execute;

    #[test]
    fn backward_linking_extracts_tables_from_sql() {
        let bench = tiny_bird();
        let db = bench.database("financial").unwrap();
        let tables = RslSql::referenced_tables(
            "SELECT COUNT(*) FROM account INNER JOIN loan ON 1 = 1",
            db.schema(),
        );
        assert!(tables.contains(&"account".to_string()));
        assert!(tables.contains(&"loan".to_string()));
        assert!(!tables.contains(&"client".to_string()));
    }

    #[test]
    fn rsl_sql_answers_a_reasonable_fraction_with_evidence() {
        let bench = tiny_bird();
        let train: Vec<&seed_datasets::Question> = bench.split(Split::Train);
        let system = RslSql::new();
        let mut ok = 0usize;
        let mut total = 0usize;
        for (q, db) in dev_cases(&bench) {
            total += 1;
            let gold = execute(db, &q.gold_sql).unwrap();
            let ev = q.oracle_evidence();
            let ctx = GenerationContext {
                question: q,
                database: db,
                evidence: Some(&ev),
                train_pool: &train,
            };
            if execute(db, &system.generate(&ctx)).map(|r| r.result_eq(&gold)).unwrap_or(false) {
                ok += 1;
            }
        }
        assert!(ok as f64 / total as f64 > 0.5, "got {ok}/{total}");
    }
}
