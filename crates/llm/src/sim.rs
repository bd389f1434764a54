//! The deterministic simulated language model.
//!
//! Every call assembles a real prompt (for token accounting), then decides —
//! with a per-question deterministic RNG stream — how well the model performs
//! the task. Quality is *mechanistic*: a knowledge atom is resolved correctly
//! only when the needed information is textually present in the prompt
//! (evidence clause, grounded value, description line) or when the unaided
//! guess succeeds; structural SQL errors scale with question difficulty,
//! model skill, context overflow, and pruning mistakes. This is the
//! substitution that replaces GPT-4o/DeepSeek-R1 HTTP calls (DESIGN.md §2).

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use seed_retrieval::{content_words, normalized_similarity, split_identifier, DpRow};
use seed_sqlengine::Value;

use crate::knowledge::{parse_evidence_clauses, KnowledgeAtom, KnowledgeKind, SqlCondition};
use crate::profile::ModelProfile;
use crate::prompt::{GroundedColumn, PromptBuilder};
use crate::tasks::*;

/// Usage counters, mirroring what an API client would meter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UsageStats {
    pub calls: u64,
    pub prompt_tokens: u64,
}

/// The behavioural interface every simulated model exposes.
pub trait LanguageModel {
    /// The capability profile driving this model's behaviour.
    fn profile(&self) -> &ModelProfile;

    /// Translates a question into SQL.
    fn generate_sql(&self, task: &SqlGenTask<'_>) -> SqlGenOutput;

    /// Generates evidence for a question (SEED's final stage).
    fn generate_evidence(&self, task: &EvidenceGenTask<'_>) -> EvidenceGenOutput;

    /// Prunes a schema down to question-relevant tables.
    fn summarize_schema(&self, task: &SchemaSummaryTask<'_>) -> SchemaSummaryOutput;

    /// Extracts column/value keywords from a question.
    fn extract_keywords(&self, task: &KeywordExtractionTask<'_>) -> Vec<ExtractedKeyword>;

    /// Cumulative usage counters.
    fn usage(&self) -> UsageStats;
}

/// Deterministic simulated LLM.
#[derive(Debug)]
pub struct SimLlm {
    profile: ModelProfile,
    usage: Mutex<UsageStats>,
}

impl SimLlm {
    /// Creates a simulator with the given capability profile.
    pub fn new(profile: ModelProfile) -> Self {
        SimLlm { profile, usage: Mutex::new(UsageStats::default()) }
    }

    fn record(&self, prompt_tokens: usize) {
        let mut u = self.usage.lock();
        u.calls += 1;
        u.prompt_tokens += prompt_tokens as u64;
    }

    /// Derives a deterministic RNG for (question, task-kind, sample).
    fn rng(&self, question_id: &str, task_tag: u64, sample: u32) -> StdRng {
        let mut h: u64 = 0xcbf29ce484222325 ^ self.profile.seed.wrapping_mul(0x9e3779b97f4a7c15);
        for b in question_id.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= task_tag.wrapping_mul(0x2545F4914F6CDD1D);
        h ^= (sample as u64).wrapping_mul(0x9E3779B97F4A7C15);
        StdRng::seed_from_u64(h)
    }

    /// Does any grounded column contain the atom's correct value (exact,
    /// case-sensitive — exact casing is the whole point of grounding)?
    fn grounded_contains(grounded: &[GroundedColumn], cond: &SqlCondition) -> bool {
        let needle = match &cond.value {
            Value::Text(s) => s.clone(),
            other => other.render(),
        };
        grounded.iter().any(|g| {
            (cond.table.is_empty() || g.table.eq_ignore_ascii_case(&cond.table))
                && (cond.column.is_empty() || g.column.eq_ignore_ascii_case(&cond.column))
                && g.values.iter().any(|v| v == &needle)
        })
    }

    /// Is the knowledge present in the schema's description metadata?
    fn description_contains(
        task_schema: &seed_sqlengine::DatabaseSchema,
        atom: &KnowledgeAtom,
    ) -> bool {
        let needle = match &atom.correct.value {
            Value::Text(s) => s.clone(),
            other => other.render(),
        };
        task_schema
            .table(&atom.correct.table)
            .and_then(|t| t.column(&atom.correct.column))
            .map(|c| {
                let haystack = format!("{} {}", c.description, c.value_description);
                haystack.contains(&needle)
                    || haystack.to_lowercase().contains(&atom.phrase.to_lowercase())
            })
            .unwrap_or(false)
    }

    /// Is the atom's table visible given an optional pruned table subset?
    fn table_visible(subset: Option<&[String]>, table: &str) -> bool {
        match subset {
            None => true,
            Some(keep) => keep.iter().any(|t| t.eq_ignore_ascii_case(table)),
        }
    }

    /// Decides which condition the model uses for one atom during SQL
    /// generation. Returns `(condition, resolved_correctly)`.
    #[allow(clippy::too_many_arguments)]
    fn decide_atom(
        &self,
        rng: &mut StdRng,
        atom: &KnowledgeAtom,
        evidence_clauses: &[crate::knowledge::EvidenceClause],
        grounded: &[GroundedColumn],
        descriptions_in_prompt: bool,
        schema: &seed_sqlengine::DatabaseSchema,
        schema_subset: Option<&[String]>,
        effective_grounding: f64,
    ) -> (SqlCondition, bool) {
        // 1. Evidence: follow whatever the evidence asserts for this phrase or column.
        let phrase_lower = atom.phrase.to_lowercase();
        let clause = evidence_clauses.iter().find(|c| {
            let cp = c.phrase.to_lowercase();
            cp.contains(&phrase_lower)
                || phrase_lower.contains(&cp)
                || (!c.condition.column.is_empty()
                    && c.condition.column.eq_ignore_ascii_case(&atom.correct.column))
        });
        if let Some(clause) = clause {
            let follow = rng.gen_bool((0.85 + 0.15 * effective_grounding).min(1.0));
            if follow {
                // Fill in table/column gaps from the atom (evidence often omits the table).
                let mut cond = clause.condition.clone();
                if cond.table.is_empty() {
                    cond.table = atom.correct.table.clone();
                }
                if cond.column.is_empty() {
                    cond.column = atom.correct.column.clone();
                }
                // Text comparison here is exact (case-sensitive), so evidence
                // asserting 'restricted' instead of 'Restricted' counts as wrong.
                let text_exact = match (&cond.value, &atom.correct.value) {
                    (Value::Text(a), Value::Text(b)) => a == b,
                    _ => cond.value == atom.correct.value,
                };
                let correct = cond.op == atom.correct.op
                    && cond.column.eq_ignore_ascii_case(&atom.correct.column)
                    && cond.table.eq_ignore_ascii_case(&atom.correct.table)
                    && text_exact;
                return (cond, correct);
            }
        }

        // If the atom's table was pruned away, the model cannot ground it.
        let visible = Self::table_visible(schema_subset, &atom.correct.table);

        // 2. Grounded sample values.
        if visible
            && Self::grounded_contains(grounded, &atom.correct)
            && rng.gen_bool(effective_grounding)
        {
            return (atom.correct.clone(), true);
        }

        // 3. Description files in the prompt.
        if visible
            && descriptions_in_prompt
            && Self::description_contains(schema, atom)
            && rng.gen_bool((effective_grounding * 0.85).min(1.0))
        {
            return (atom.correct.clone(), true);
        }

        // 4. Unaided guess.
        let p = atom.kind.unaided_guess_rate() * (0.45 + 0.55 * self.profile.skill);
        if rng.gen_bool(p.min(1.0)) {
            (atom.correct.clone(), true)
        } else {
            (atom.naive.clone(), false)
        }
    }
}

impl LanguageModel for SimLlm {
    fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    fn generate_sql(&self, task: &SqlGenTask<'_>) -> SqlGenOutput {
        let prompt = PromptBuilder::new()
            .section(
                "Instruction",
                "You are a text-to-SQL assistant. Write a single SQLite query answering the question.",
            )
            .schema(task.schema, task.schema_subset, task.descriptions_in_prompt)
            .examples(task.few_shot)
            .grounded_values(task.grounded_values)
            .evidence(task.evidence)
            .question(task.question);
        let prompt_tokens = prompt.token_count();
        self.record(prompt_tokens);
        let context_overflow = prompt_tokens > self.profile.context_window;

        let mut rng = self.rng(task.question_id, 0x5191, task.sample_index);

        let effective_grounding = if context_overflow {
            self.profile.value_grounding * 0.35
        } else {
            self.profile.value_grounding
        };

        let evidence_clauses = task.evidence.map(parse_evidence_clauses).unwrap_or_default();

        // Resolve each knowledge atom and rewrite the reference SQL accordingly.
        let mut sql = task.gold_sql.to_string();
        let mut resolved = 0usize;
        for atom in task.atoms {
            let (cond, correct) = self.decide_atom(
                &mut rng,
                atom,
                &evidence_clauses,
                task.grounded_values,
                task.descriptions_in_prompt && !context_overflow,
                task.schema,
                task.schema_subset,
                effective_grounding,
            );
            if correct {
                resolved += 1;
            } else {
                let target = atom.correct.to_sql();
                let replacement = cond.to_sql();
                if sql.contains(&target) {
                    sql = sql.replace(&target, &replacement);
                } else {
                    // Reference SQL without the canonical rendering: fall back to
                    // appending an impossible filter so the query is wrong rather
                    // than silently right.
                    sql = format!("SELECT * FROM ( {sql} ) AS _m WHERE 1 = 0");
                }
            }
        }

        // Pruning that dropped a table the gold SQL needs breaks the query.
        let missing_table = task.schema_subset.is_some_and(|keep| {
            task.atoms.iter().any(|a| {
                !a.correct.table.is_empty()
                    && !keep.iter().any(|t| t.eq_ignore_ascii_case(&a.correct.table))
            })
        });

        // Structural error model.
        let mut p_struct = task.difficulty * (1.0 - self.profile.skill);
        if task.few_shot.len() >= 3 {
            p_struct *= 0.75;
        }
        if task.calibration_hints {
            p_struct *= 0.85;
        }
        if context_overflow {
            p_struct = (p_struct + 0.35).min(0.95);
        }
        if missing_table {
            p_struct = (p_struct + 0.5).min(0.97);
        }
        let structural_error = rng.gen_bool(p_struct.clamp(0.0, 1.0));
        if structural_error {
            sql = match rng.gen_range(0..3u8) {
                0 => format!("SELECT * FROM ( {sql} ) AS _e WHERE 1 = 0"),
                1 => {
                    if sql.contains("COUNT(") {
                        sql.replacen("COUNT(", "SUM(", 1)
                    } else {
                        format!("SELECT * FROM ( {sql} ) AS _e WHERE 1 = 0")
                    }
                }
                _ => format!("{sql} ORDER BY column_that_does_not_exist_xyz"),
            };
        } else {
            // Efficiency variation: a fluent model often omits a gold ORDER BY
            // that does not affect the answer set, producing a cheaper query.
            // ASCII uppercasing keeps every byte offset of `sql`, so `pos` is
            // a char boundary of it.
            let upper = sql.to_ascii_uppercase();
            if !upper.contains(" LIMIT ") {
                if let Some(pos) = upper.find(" ORDER BY ") {
                    if rng.gen_bool(0.4 + 0.4 * self.profile.skill) {
                        sql.truncate(pos);
                    }
                }
            }
        }

        SqlGenOutput {
            sql,
            prompt_tokens,
            context_overflow,
            resolved_atoms: resolved,
            structural_error,
        }
    }

    fn generate_evidence(&self, task: &EvidenceGenTask<'_>) -> EvidenceGenOutput {
        let prompt = PromptBuilder::new()
            .section(
                "Instruction",
                "Analyze the database schema, descriptions and sample values, and write evidence \
                 sentences that map question phrases to schema elements and values.",
            )
            .schema(task.schema, task.schema_subset, task.descriptions_available)
            .examples(task.few_shot)
            .grounded_values(task.grounded_values)
            .question(task.question);
        let prompt_tokens = prompt.token_count();
        self.record(prompt_tokens);
        let context_overflow = prompt_tokens > self.profile.context_window;

        let mut rng = self.rng(task.question_id, 0xe71d, 0);
        let mut sentences: Vec<String> = Vec::new();
        let mut resolved = 0usize;
        let mut incorrect = 0usize;

        for atom in task.atoms {
            let visible = Self::table_visible(task.schema_subset, &atom.correct.table);
            let info_available = visible
                && (Self::grounded_contains(task.grounded_values, &atom.correct)
                    || (task.descriptions_available
                        && Self::description_contains(task.schema, atom))
                    || matches!(
                        atom.kind,
                        KnowledgeKind::SchemaChoice | KnowledgeKind::NumericFormula
                    ));
            let mut p = if info_available {
                0.72 + 0.23 * self.profile.value_grounding
            } else {
                atom.kind.unaided_guess_rate() * self.profile.skill * 0.5
            };
            if context_overflow {
                p *= 0.45;
            }
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                resolved += 1;
                let sentence = if task.qualified_style {
                    atom.qualified_evidence_sentence()
                } else {
                    atom.evidence_sentence()
                };
                sentences.push(sentence);
            } else if rng.gen_bool(0.3) {
                // The model hallucinates a plausible but wrong grounding.
                incorrect += 1;
                let wrong = KnowledgeAtom::new(
                    &atom.phrase,
                    atom.kind,
                    atom.naive.clone(),
                    atom.naive.clone(),
                );
                let sentence = if task.qualified_style {
                    wrong.qualified_evidence_sentence()
                } else {
                    wrong.evidence_sentence()
                };
                sentences.push(sentence);
            }
            // otherwise: omit, like missing BIRD evidence
        }

        if !task.join_hints.is_empty() && !sentences.is_empty() {
            for hint in task.join_hints {
                sentences.push(hint.clone());
            }
        }

        EvidenceGenOutput {
            evidence: sentences.join(";\n"),
            prompt_tokens,
            context_overflow,
            resolved_atoms: resolved,
            incorrect_atoms: incorrect,
        }
    }

    fn summarize_schema(&self, task: &SchemaSummaryTask<'_>) -> SchemaSummaryOutput {
        let prompt = PromptBuilder::new()
            .section("Instruction", "Select the tables relevant to the question.")
            .schema(task.schema, None, false)
            .question(task.question);
        let prompt_tokens = prompt.token_count();
        self.record(prompt_tokens);

        // Lexical relevance score: question content words vs table name, column
        // names, and description text.
        let q_words = content_words(task.question);
        let mut scored: Vec<(String, f64)> = Vec::new();
        for table in &task.schema.tables {
            let mut hay: Vec<String> = split_identifier(&table.name);
            for c in &table.columns {
                hay.extend(split_identifier(&c.name));
                hay.extend(content_words(&c.description));
                hay.extend(content_words(&c.value_description));
            }
            let mut score = 0.0;
            for w in &q_words {
                if hay.iter().any(|h| h == w) {
                    score += 1.0;
                } else if hay.iter().any(|h| h.starts_with(w.as_str()) || w.starts_with(h.as_str()))
                {
                    score += 0.4;
                }
            }
            scored.push((table.name.clone(), score));
        }
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let keep: Vec<String> = scored
            .iter()
            .enumerate()
            .filter(|(i, (_, s))| *i < task.max_tables.max(1) && (*s > 0.0 || *i == 0))
            .map(|(_, (n, _))| n.clone())
            .collect();
        SchemaSummaryOutput { tables: keep, prompt_tokens }
    }

    fn extract_keywords(&self, task: &KeywordExtractionTask<'_>) -> Vec<ExtractedKeyword> {
        let prompt = PromptBuilder::new()
            .section("Instruction", "Extract keywords that denote columns or values.")
            .schema(task.schema, None, false)
            .question(task.question);
        self.record(prompt.token_count());

        let mut keywords: Vec<String> = Vec::new();
        // Quoted phrases and Capitalized tokens are value candidates.
        for word in task.question.split_whitespace() {
            let clean = word.trim_matches(|c: char| !c.is_alphanumeric());
            if clean.len() > 1
                && clean.chars().next().is_some_and(|c| c.is_uppercase())
                && !keywords.iter().any(|k| k.eq_ignore_ascii_case(clean))
            {
                keywords.push(clean.to_string());
            }
        }
        for w in content_words(task.question) {
            if !keywords.iter().any(|k| k.eq_ignore_ascii_case(&w)) {
                keywords.push(w);
            }
        }

        let mut row = DpRow::default();
        keywords
            .into_iter()
            .map(|kw| {
                let kw_lower = kw.to_lowercase();
                let mut candidates: Vec<(String, String, f64)> = Vec::new();
                for table in &task.schema.tables {
                    for col in &table.columns {
                        let pieces = split_identifier(&col.name);
                        let desc =
                            format!("{} {}", col.description, col.value_description).to_lowercase();
                        let mut score = 0.0;
                        if pieces.iter().any(|p| p == &kw_lower) {
                            score += 2.0;
                        }
                        if desc.contains(&kw_lower) {
                            score += 1.0;
                        }
                        if normalized_similarity(&col.name.to_lowercase(), &kw_lower, &mut row)
                            > 0.7
                        {
                            score += 1.0;
                        }
                        if score > 0.0 {
                            candidates.push((table.name.clone(), col.name.clone(), score));
                        }
                    }
                }
                candidates
                    .sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
                ExtractedKeyword {
                    keyword: kw,
                    candidate_columns: candidates
                        .into_iter()
                        .take(3)
                        .map(|(t, c, _)| (t, c))
                        .collect(),
                }
            })
            .collect()
    }

    fn usage(&self) -> UsageStats {
        *self.usage.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seed_sqlengine::{ColumnDef, DataType, DatabaseSchema, TableSchema};

    fn schema() -> DatabaseSchema {
        let mut s = DatabaseSchema::new("financial");
        s.add_table(TableSchema::new(
            "account",
            vec![
                ColumnDef::new("account_id", DataType::Integer).primary_key(),
                ColumnDef::new("frequency", DataType::Text)
                    .described("frequency of statement issuance")
                    .with_values("\"POPLATEK TYDNE\" stands for weekly issuance, \"POPLATEK MESICNE\" stands for monthly issuance"),
            ],
        ))
        .unwrap();
        s.add_table(TableSchema::new(
            "loan",
            vec![
                ColumnDef::new("loan_id", DataType::Integer).primary_key(),
                ColumnDef::new("account_id", DataType::Integer),
                ColumnDef::new("amount", DataType::Real).described("loan amount in CZK"),
            ],
        ))
        .unwrap();
        s.add_table(TableSchema::new(
            "district",
            vec![ColumnDef::new("district_id", DataType::Integer).primary_key()],
        ))
        .unwrap();
        s
    }

    fn weekly_atom() -> KnowledgeAtom {
        KnowledgeAtom::new(
            "weekly issuance",
            KnowledgeKind::ValueIllustration,
            SqlCondition::new("account", "frequency", "=", "POPLATEK TYDNE"),
            SqlCondition::new("account", "frequency", "=", "weekly"),
        )
    }

    fn gold_sql() -> String {
        format!("SELECT COUNT(*) FROM account WHERE {}", weekly_atom().correct.to_sql())
    }

    fn base_task<'a>(
        schema: &'a DatabaseSchema,
        gold: &'a str,
        atoms: &'a [KnowledgeAtom],
        evidence: Option<&'a str>,
    ) -> SqlGenTask<'a> {
        SqlGenTask {
            question_id: "q-1",
            question: "Among the weekly issuance accounts, how many are there?",
            schema,
            schema_subset: None,
            evidence,
            descriptions_in_prompt: false,
            grounded_values: &[],
            few_shot: &[],
            atoms,
            gold_sql: gold,
            difficulty: 0.2,
            calibration_hints: false,
            sample_index: 0,
        }
    }

    #[test]
    fn correct_evidence_yields_gold_sql() {
        let schema = schema();
        let gold = gold_sql();
        let atoms = vec![weekly_atom()];
        let model = SimLlm::new(ModelProfile::gpt_4o());
        let ev = "weekly issuance refers to frequency = 'POPLATEK TYDNE'".to_string();
        let task = base_task(&schema, &gold, &atoms, Some(&ev));
        let out = model.generate_sql(&task);
        assert_eq!(out.resolved_atoms, 1);
        assert!(out.sql.contains("POPLATEK TYDNE"));
    }

    #[test]
    fn wrong_evidence_is_followed() {
        let schema = schema();
        let gold = gold_sql();
        let atoms = vec![weekly_atom()];
        let model = SimLlm::new(ModelProfile::gpt_4o());
        // Defective evidence asserting the wrong value: the model trusts it.
        let ev = "weekly issuance refers to frequency = 'POPLATEK MESICNE'".to_string();
        let task = base_task(&schema, &gold, &atoms, Some(&ev));
        let out = model.generate_sql(&task);
        assert_eq!(out.resolved_atoms, 0);
        assert!(out.sql.contains("POPLATEK MESICNE"));
    }

    #[test]
    fn grounded_values_substitute_for_evidence() {
        let schema = schema();
        let gold = gold_sql();
        let atoms = vec![weekly_atom()];
        let model = SimLlm::new(ModelProfile::gpt_4o());
        let grounded = vec![GroundedColumn::new(
            "account",
            "frequency",
            vec!["POPLATEK MESICNE".into(), "POPLATEK TYDNE".into()],
        )];
        let mut task = base_task(&schema, &gold, &atoms, None);
        task.grounded_values = &grounded;
        let out = model.generate_sql(&task);
        assert_eq!(out.resolved_atoms, 1, "grounded value should resolve the code");
    }

    #[test]
    fn no_information_usually_fails_on_value_codes() {
        let schema = schema();
        let gold = gold_sql();
        let atoms = vec![weekly_atom()];
        let model = SimLlm::new(ModelProfile::gpt_4o_mini());
        let mut failures = 0;
        for i in 0..40 {
            let gold = gold.clone();
            let id = format!("q-{i}");
            let task = SqlGenTask { question_id: &id, ..base_task(&schema, &gold, &atoms, None) };
            let out = model.generate_sql(&task);
            if out.resolved_atoms == 0 {
                failures += 1;
            }
        }
        assert!(failures > 25, "value codes should rarely be guessed, failed {failures}/40");
    }

    #[test]
    fn outputs_are_deterministic() {
        let schema = schema();
        let gold = gold_sql();
        let atoms = vec![weekly_atom()];
        let model = SimLlm::new(ModelProfile::deepseek_r1());
        let task = base_task(&schema, &gold, &atoms, None);
        let a = model.generate_sql(&task);
        let b = model.generate_sql(&task);
        assert_eq!(a, b);
    }

    #[test]
    fn different_samples_differ_sometimes() {
        let schema = schema();
        let gold = gold_sql();
        let atoms = vec![weekly_atom()];
        let model = SimLlm::new(ModelProfile::chatgpt());
        let mut saw_difference = false;
        for i in 0..20 {
            let id = format!("s-{i}");
            let t0 = SqlGenTask {
                question_id: &id,
                sample_index: 0,
                ..base_task(&schema, &gold, &atoms, None)
            };
            let t1 = SqlGenTask {
                question_id: &id,
                sample_index: 1,
                ..base_task(&schema, &gold, &atoms, None)
            };
            if model.generate_sql(&t0).sql != model.generate_sql(&t1).sql {
                saw_difference = true;
                break;
            }
        }
        assert!(saw_difference, "self-consistency sampling needs output variance");
    }

    #[test]
    fn evidence_generation_uses_descriptions() {
        let schema = schema();
        let atoms = vec![weekly_atom()];
        let model = SimLlm::new(ModelProfile::gpt_4o());
        let task = EvidenceGenTask {
            question_id: "q-1",
            question: "Among the weekly issuance accounts, how many have a loan under 200000?",
            schema: &schema,
            schema_subset: None,
            grounded_values: &[],
            few_shot: &[],
            atoms: &atoms,
            descriptions_available: true,
            qualified_style: true,
            join_hints: &[],
        };
        let out = model.generate_evidence(&task);
        assert!(out.resolved_atoms >= 1);
        assert!(out.evidence.contains("POPLATEK TYDNE"));
        assert!(out.evidence.contains("`account`.`frequency`"));
    }

    #[test]
    fn join_hints_appended_when_requested() {
        let schema = schema();
        let atoms = vec![weekly_atom()];
        let model = SimLlm::new(ModelProfile::deepseek_r1());
        let hints = vec!["join on `loan`.`account_id` = `account`.`account_id`".to_string()];
        let task = EvidenceGenTask {
            question_id: "q-2",
            question: "Among the weekly issuance accounts, how many have a loan under 200000?",
            schema: &schema,
            schema_subset: None,
            grounded_values: &[],
            few_shot: &[],
            atoms: &atoms,
            descriptions_available: true,
            qualified_style: true,
            join_hints: &hints,
        };
        let out = model.generate_evidence(&task);
        if !out.evidence.is_empty() {
            assert!(out.evidence.contains("join on"));
        }
    }

    #[test]
    fn schema_summary_keeps_relevant_tables() {
        let schema = schema();
        let model = SimLlm::new(ModelProfile::deepseek_r1());
        let out = model.summarize_schema(&SchemaSummaryTask {
            question: "What is the total loan amount of weekly issuance accounts?",
            schema: &schema,
            max_tables: 2,
        });
        assert!(out.tables.len() <= 2);
        assert!(out.tables.iter().any(|t| t == "loan"));
    }

    #[test]
    fn keyword_extraction_links_to_columns() {
        let schema = schema();
        let model = SimLlm::new(ModelProfile::gpt_4o_mini());
        let keywords = model.extract_keywords(&KeywordExtractionTask {
            question: "What is the average loan amount of accounts with weekly frequency?",
            schema: &schema,
        });
        let amount_kw = keywords.iter().find(|k| k.keyword.to_lowercase() == "amount");
        assert!(amount_kw.is_some());
        assert!(amount_kw
            .unwrap()
            .candidate_columns
            .iter()
            .any(|(t, c)| t == "loan" && c == "amount"));
    }

    /// Dropping an ORDER BY cuts the query at the keyword's own byte
    /// offset, even when a literal holds characters whose uppercase has
    /// another byte length (`ı`: 2 bytes to 1, `ﬀ`: 3 to 2, `ŉ`: 2 to 3).
    #[test]
    fn dropping_order_by_cuts_at_the_keyword_around_any_literal() {
        let schema = schema();
        let model = SimLlm::new(ModelProfile::gpt_4o());
        for literal in ["ıııı", "ﬀ", "ŉ", "abc"] {
            let gold = format!("SELECT name FROM t WHERE name = '{literal}' ORDER BY name");
            let cut = format!("SELECT name FROM t WHERE name = '{literal}'");
            let mut dropped = 0;
            for i in 0..40 {
                let id = format!("q-{i}");
                let task = SqlGenTask {
                    question_id: &id,
                    difficulty: 0.0,
                    ..base_task(&schema, &gold, &[], None)
                };
                let sql = model.generate_sql(&task).sql;
                assert!(sql == gold || sql == cut, "{literal:?}, {id}: {sql:?}");
                dropped += usize::from(sql == cut);
            }
            assert!(dropped > 0 && dropped < 40, "{literal:?}: {dropped} of 40 dropped");
        }
    }

    #[test]
    fn usage_counters_accumulate() {
        let schema = schema();
        let model = SimLlm::new(ModelProfile::gpt_4o());
        assert_eq!(model.usage().calls, 0);
        model.extract_keywords(&KeywordExtractionTask { question: "loans?", schema: &schema });
        model.summarize_schema(&SchemaSummaryTask {
            question: "loans?",
            schema: &schema,
            max_tables: 1,
        });
        let u = model.usage();
        assert_eq!(u.calls, 2);
        assert!(u.prompt_tokens > 0);
    }

    #[test]
    fn context_overflow_detected_for_small_windows() {
        let mut profile = ModelProfile::deepseek_r1();
        profile.context_window = 30; // absurdly small to force overflow
        let schema = schema();
        let gold = gold_sql();
        let atoms = vec![weekly_atom()];
        let model = SimLlm::new(profile);
        let task = base_task(&schema, &gold, &atoms, None);
        let out = model.generate_sql(&task);
        assert!(out.context_overflow);
    }
}
