//! The SEED pipelines (paper Figure 3).
//!
//! * **SEED_gpt** — sample SQL execution with GPT-4o-mini, evidence generation
//!   with GPT-4o, no schema summarization (the full schema fits the context).
//! * **SEED_deepseek** — every stage on DeepSeek-R1; schema summarization runs
//!   first because of the 8,192-token API limit; evidence is rendered in the
//!   fully-qualified style with join hints (the Table VI observation).
//! * **SEED_revised** — SEED_deepseek followed by the join-information removal
//!   of [`crate::revise`] (DeepSeek-V3 in the paper).

use seed_datasets::Question;
use seed_embedding::{HashedEmbedder, PoolEmbedder};
use seed_llm::{EvidenceGenTask, LanguageModel, ModelProfile, SimLlm};
use seed_sqlengine::Database;

use crate::few_shot::select_examples;
use crate::revise::remove_join_information;
use crate::sample_sql::run_sample_sql;
use crate::schema_summary::summarize_if_needed;

/// Which SEED architecture to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeedVariant {
    /// Long-context architecture (Figure 3a): GPT-4o-mini + GPT-4o.
    Gpt,
    /// Limited-context architecture (Figure 3b): DeepSeek-R1 end to end.
    Deepseek,
    /// SEED_deepseek followed by join-information removal.
    Revised,
}

impl SeedVariant {
    /// Display name used in result tables.
    pub fn label(&self) -> &'static str {
        match self {
            SeedVariant::Gpt => "SEED_gpt",
            SeedVariant::Deepseek => "SEED_deepseek",
            SeedVariant::Revised => "SEED_revised",
        }
    }
}

/// Trace of one pipeline run (drives the Figure 3 harness and debugging).
#[derive(Debug, Clone, Default)]
pub struct PipelineTrace {
    /// Stage names in execution order.
    pub stages: Vec<String>,
    /// Tables kept by schema summarization (`None` when not applied).
    pub kept_tables: Option<Vec<String>>,
    /// Number of probe queries executed by the sample-SQL stage.
    pub sample_queries: usize,
    /// Number of (table, column) groups grounded.
    pub grounded_columns: usize,
    /// Few-shot examples placed in the evidence prompt.
    pub few_shot_examples: usize,
    /// Prompt tokens of the final evidence-generation call.
    pub prompt_tokens: usize,
    /// Whether the evidence prompt overflowed the model's context window.
    pub context_overflow: bool,
}

/// Evidence produced by a pipeline run.
#[derive(Debug, Clone)]
pub struct GeneratedEvidence {
    /// The evidence text (possibly empty).
    pub evidence: String,
    /// Execution trace.
    pub trace: PipelineTrace,
}

/// A configured SEED pipeline.
pub struct SeedPipeline {
    variant: SeedVariant,
    /// Model used for keyword extraction / sample SQL (GPT-4o-mini or DeepSeek-R1).
    sampler: SimLlm,
    /// Model used for evidence generation (GPT-4o or DeepSeek-R1).
    generator: SimLlm,
    /// Few-shot selection's embedder, keeping the training pool's
    /// embeddings.
    embedder: PoolEmbedder<HashedEmbedder>,
}

impl SeedPipeline {
    /// SEED_gpt (Figure 3a).
    pub fn gpt() -> Self {
        SeedPipeline {
            variant: SeedVariant::Gpt,
            sampler: SimLlm::new(ModelProfile::gpt_4o_mini()),
            generator: SimLlm::new(ModelProfile::gpt_4o()),
            embedder: PoolEmbedder::new(HashedEmbedder::default()),
        }
    }

    /// SEED_deepseek (Figure 3b).
    pub fn deepseek() -> Self {
        SeedPipeline {
            variant: SeedVariant::Deepseek,
            sampler: SimLlm::new(ModelProfile::deepseek_r1()),
            generator: SimLlm::new(ModelProfile::deepseek_r1()),
            embedder: PoolEmbedder::new(HashedEmbedder::default()),
        }
    }

    /// SEED_revised: SEED_deepseek plus join-information removal.
    pub fn revised() -> Self {
        let mut p = Self::deepseek();
        p.variant = SeedVariant::Revised;
        p
    }

    /// Builds a pipeline for an arbitrary variant.
    pub fn new(variant: SeedVariant) -> Self {
        match variant {
            SeedVariant::Gpt => Self::gpt(),
            SeedVariant::Deepseek => Self::deepseek(),
            SeedVariant::Revised => Self::revised(),
        }
    }

    /// The configured variant.
    pub fn variant(&self) -> SeedVariant {
        self.variant
    }

    /// Total simulated LLM calls made so far (both stages).
    pub fn llm_calls(&self) -> u64 {
        self.sampler.usage().calls + self.generator.usage().calls
    }

    /// Generates evidence for one question.
    ///
    /// `has_descriptions` states whether the benchmark ships description files
    /// (BIRD) or they were synthesized (Spider after
    /// [`seed_datasets::spider::synthesize_descriptions`]).
    pub fn generate(
        &self,
        question: &Question,
        db: &Database,
        train_pool: &[&Question],
        has_descriptions: bool,
    ) -> GeneratedEvidence {
        let mut trace = PipelineTrace::default();

        // Stage 1: schema summarization, only when the context demands it.
        let summary = summarize_if_needed(&self.generator, &question.text, db.schema(), 3_000);
        if let Some(kept) = &summary.kept_tables {
            trace.stages.push(format!("schema summarization (kept {} tables)", kept.len()));
        } else {
            trace.stages.push("full schema (no summarization)".to_string());
        }
        trace.kept_tables = summary.kept_tables.clone();

        // Stage 2: sample SQL execution.
        let samples =
            run_sample_sql(&self.sampler, &question.text, db, summary.kept_tables.as_deref());
        trace.stages.push(format!("sample SQL execution ({} probes)", samples.probes.len()));
        trace.sample_queries = samples.probes.len();
        trace.grounded_columns = samples.grounded.len();

        // Stage 3: few-shot selection from the training set.
        let few_shot = select_examples(&self.embedder, question, train_pool);
        trace.stages.push(format!("few-shot selection ({} examples)", few_shot.len()));
        trace.few_shot_examples = few_shot.len();

        // Stage 4: evidence generation.
        let (qualified_style, join_hints) = match self.variant {
            SeedVariant::Gpt => (false, Vec::new()),
            SeedVariant::Deepseek | SeedVariant::Revised => (true, join_hints_for(question, db)),
        };
        let task = EvidenceGenTask {
            question_id: &question.id,
            question: &question.text,
            schema: db.schema(),
            schema_subset: summary.kept_tables.as_deref(),
            grounded_values: &samples.grounded,
            few_shot: &few_shot,
            atoms: &question.atoms,
            descriptions_available: has_descriptions,
            qualified_style,
            join_hints: &join_hints,
        };
        let out = self.generator.generate_evidence(&task);
        trace.stages.push("evidence generation".to_string());
        trace.prompt_tokens = out.prompt_tokens;
        trace.context_overflow = out.context_overflow;

        // Stage 5 (SEED_revised only): strip join information.
        let evidence = if self.variant == SeedVariant::Revised {
            trace.stages.push("evidence revision (remove join information)".to_string());
            remove_join_information(&out.evidence)
        } else {
            out.evidence
        };

        GeneratedEvidence { evidence, trace }
    }
}

/// Derives join hints from the foreign keys connecting the tables the question
/// touches — the extra information SEED_deepseek appends (Table VI).
fn join_hints_for(question: &Question, db: &Database) -> Vec<String> {
    let mut tables: Vec<&str> = question.atoms.iter().map(|a| a.correct.table.as_str()).collect();
    tables.sort();
    tables.dedup();
    let mut hints = Vec::new();
    let schema = db.schema();
    for i in 0..tables.len() {
        for j in (i + 1)..tables.len() {
            if let Some(fk) = schema.join_between(tables[i], tables[j]) {
                hints.push(format!(
                    "join on `{}`.`{}` = `{}`.`{}`",
                    fk.from_table, fk.from_column, fk.to_table, fk.to_column
                ));
            }
        }
    }
    // Single-table questions still get a hint when the table links to another
    // one, mirroring SEED_deepseek's tendency to volunteer join information.
    if hints.is_empty() {
        if let Some(t) = tables.first() {
            if let Some(fk) = schema.foreign_keys_for(t).first() {
                hints.push(format!(
                    "join on `{}`.`{}` = `{}`.`{}`",
                    fk.from_table, fk.from_column, fk.to_table, fk.to_column
                ));
            }
        }
    }
    hints
}

#[cfg(test)]
mod tests {
    use super::*;
    use seed_datasets::{bird::build_bird, CorpusConfig, Split};

    fn setup() -> (seed_datasets::Benchmark, Vec<String>) {
        let bench = build_bird(&CorpusConfig::tiny());
        let ids: Vec<String> = bench.split(Split::Dev).iter().map(|q| q.id.clone()).collect();
        (bench, ids)
    }

    #[test]
    fn seed_gpt_grounds_value_codes() {
        let (bench, _) = setup();
        let train: Vec<&Question> = bench.split(Split::Train);
        let pipeline = SeedPipeline::gpt();
        let q = bench
            .split(Split::Dev)
            .into_iter()
            .find(|q| q.db_id == "financial" && q.text.contains("weekly issuance"))
            .expect("weekly-issuance question exists");
        let db = bench.database("financial").unwrap();
        let out = pipeline.generate(q, db, &train, true);
        assert!(
            out.evidence.contains("POPLATEK TYDNE"),
            "SEED_gpt should ground the issuance code, got: {}",
            out.evidence
        );
        assert!(out.trace.sample_queries > 0);
        assert!(!out.trace.context_overflow);
    }

    #[test]
    fn deepseek_variant_uses_qualified_style_and_join_hints() {
        let (bench, _) = setup();
        let train: Vec<&Question> = bench.split(Split::Train);
        let pipeline = SeedPipeline::deepseek();
        let dev = bench.split(Split::Dev);
        let mut saw_join_hint = false;
        for q in dev.iter().filter(|q| q.db_id == "financial").take(8) {
            let db = bench.database("financial").unwrap();
            let out = pipeline.generate(q, db, &train, true);
            if out.evidence.contains("join on") {
                saw_join_hint = true;
            }
        }
        assert!(saw_join_hint, "SEED_deepseek should emit join hints for some questions");
    }

    #[test]
    fn revised_variant_never_contains_join_hints() {
        let (bench, _) = setup();
        let train: Vec<&Question> = bench.split(Split::Train);
        let pipeline = SeedPipeline::revised();
        for q in bench.split(Split::Dev).into_iter().take(10) {
            let db = bench.database(&q.db_id).unwrap();
            let out = pipeline.generate(q, db, &train, true);
            assert!(!out.evidence.contains("join on"), "revised evidence: {}", out.evidence);
        }
    }

    #[test]
    fn pipeline_is_deterministic_and_metered() {
        let (bench, _) = setup();
        let train: Vec<&Question> = bench.split(Split::Train);
        let pipeline = SeedPipeline::gpt();
        let q = bench.split(Split::Dev)[0];
        let db = bench.database(&q.db_id).unwrap();
        let a = pipeline.generate(q, db, &train, true);
        let b = pipeline.generate(q, db, &train, true);
        assert_eq!(a.evidence, b.evidence);
        assert!(pipeline.llm_calls() >= 4);
    }

    #[test]
    fn variant_labels_are_stable() {
        assert_eq!(SeedVariant::Gpt.label(), "SEED_gpt");
        assert_eq!(SeedVariant::Deepseek.label(), "SEED_deepseek");
        assert_eq!(SeedVariant::Revised.label(), "SEED_revised");
        assert_eq!(SeedPipeline::new(SeedVariant::Revised).variant(), SeedVariant::Revised);
    }
}
