//! Database-value retrieval shared by the CodeS, CHESS, and RSL-SQL pipelines.
//!
//! Given a question, the retriever scans the text columns of the database for
//! values that lexically match question words (coarse BM25-style token match,
//! then longest-common-substring / edit-distance refinement, the CodeS recipe).
//! Matching values are surfaced to the model as [`GroundedColumn`]s — which is
//! how a system can recover exact value casing ("Restricted") without evidence,
//! but not opaque codes ("POPLATEK TYDNE" from "weekly").
//!
//! The values scanned are each table's value sample
//! ([`seed_sqlengine::Table::value_sample`]), built once per table state —
//! the published systems likewise index values offline, not per question.

use seed_llm::GroundedColumn;
use seed_retrieval::{
    content_words, lcs_ratio, normalized_similarity, similarity_upper_bound, DpRow,
};
use seed_sqlengine::{Database, SampledValue};

/// Maximum values reported per grounded column.
const REPORTED_VALUES: usize = 6;
/// Lowest match score at which a value is grounded.
const MATCH_THRESHOLD: f64 = 0.72;

/// Retrieves values relevant to the question from every text column.
pub fn retrieve_values(question: &str, db: &Database) -> Vec<GroundedColumn> {
    let words = content_words(question);
    // `content_words` lowercases char by char, and lowercase chars are fixed
    // points of `str::to_lowercase`, so the words are already lowercased.
    let words: Vec<(&str, usize)> = words.iter().map(|w| (w.as_str(), w.chars().count())).collect();
    let mut row = DpRow::default();
    let mut out = Vec::new();
    for table_name in db.table_names() {
        let table = match db.table(&table_name) {
            Ok(t) => t,
            Err(_) => continue,
        };
        for sample in table.value_sample().columns() {
            let mut matched: Vec<(&SampledValue, f64)> = sample
                .values
                .iter()
                .map(|v| (v, match_score(&words, v, &mut row)))
                .filter(|(_, score)| *score >= MATCH_THRESHOLD)
                .collect();
            if matched.is_empty() {
                continue;
            }
            matched.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            out.push(GroundedColumn::new(
                &table_name,
                &table.schema.columns[sample.column].name,
                matched.into_iter().take(REPORTED_VALUES).map(|(v, _)| v.text.clone()).collect(),
            ));
        }
    }
    out
}

/// Scores how well any question word matches a sampled value: 1 for an
/// exact match, otherwise the best over words of a 0.9 containment bonus
/// (words of at least 4 bytes) and `0.55·similarity + 0.45·lcs_ratio`.
///
/// A DP runs only while the pair's exact upper bound — similarity capped by
/// [`similarity_upper_bound`], then by the similarity itself, the LCS ratio
/// capped at 1 — reaches the threshold and beats the running best. Any pair
/// skipped either scores below the threshold or cannot raise the best, so
/// the grounded values and their scores are those of the full scan.
fn match_score(words: &[(&str, usize)], value: &SampledValue, row: &mut DpRow) -> f64 {
    if words.iter().any(|(w, _)| *w == value.lower) {
        return 1.0;
    }
    let mut best: f64 = 0.0;
    for &(w, w_chars) in words {
        if w.len() >= 4 && best < 0.9 && value.lower.contains(w) {
            best = 0.9;
        }
        let can_matter = |bound: f64| bound >= MATCH_THRESHOLD && bound > best;
        if !can_matter(combined(similarity_upper_bound(w_chars, value.lower_chars), 1.0)) {
            continue;
        }
        let sim = normalized_similarity(w, &value.lower, row);
        if !can_matter(combined(sim, 1.0)) {
            continue;
        }
        best = best.max(combined(sim, lcs_ratio(w, &value.lower, row)));
    }
    best
}

/// The match score of one (word, value) pair.
fn combined(similarity: f64, lcs_ratio: f64) -> f64 {
    0.55 * similarity + 0.45 * lcs_ratio
}

#[cfg(test)]
#[path = "../../retrieval/src/reference.rs"]
mod similarity_reference;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use seed_datasets::{bird::build_bird, spider::build_spider, CorpusConfig};
    use seed_sqlengine::{
        commit_statement, ColumnDef, DataType, TableSchema, Value, VALUE_SAMPLE_SIZE,
    };

    /// Value retrieval as it was before the value sample, kept as the
    /// oracle: rescan every text column per question and score every
    /// (word, value) pair with the string-level similarity functions.
    fn retrieve_values_by_rescanning(question: &str, db: &Database) -> Vec<GroundedColumn> {
        let words = content_words(question);
        let mut out = Vec::new();
        for table_name in db.table_names() {
            let table = match db.table(&table_name) {
                Ok(t) => t,
                Err(_) => continue,
            };
            for col in &table.schema.columns {
                if col.data_type != DataType::Text {
                    continue;
                }
                let values = match table.distinct_values(&col.name, VALUE_SAMPLE_SIZE) {
                    Ok(v) => v,
                    Err(_) => continue,
                };
                let mut matched: Vec<(String, f64)> = Vec::new();
                for v in values {
                    let text = v.render();
                    let score = best_match_score_by_strings(&words, &text);
                    if score >= MATCH_THRESHOLD {
                        matched.push((text, score));
                    }
                }
                if matched.is_empty() {
                    continue;
                }
                matched.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                out.push(GroundedColumn::new(
                    &table_name,
                    &col.name,
                    matched.into_iter().take(REPORTED_VALUES).map(|(v, _)| v).collect(),
                ));
            }
        }
        out
    }

    fn best_match_score_by_strings(words: &[String], value: &str) -> f64 {
        let value_lower = value.to_lowercase();
        let mut best: f64 = 0.0;
        for w in words {
            if value_lower == *w {
                return 1.0;
            }
            if value_lower.contains(w.as_str()) && w.len() >= 4 {
                best = best.max(0.9);
            }
            let sim = similarity_reference::normalized_similarity(w, &value_lower);
            let lcs = similarity_reference::lcs_ratio(w, &value_lower);
            best = best.max(0.55 * sim + 0.45 * lcs);
        }
        best
    }

    #[test]
    fn recovers_exact_casing_from_case_insensitive_mention() {
        let bench = build_bird(&CorpusConfig::tiny());
        let db = bench.database("card_games").unwrap();
        let grounded = retrieve_values("How many cards are restricted in the vintage format?", db);
        let status = grounded
            .iter()
            .find(|g| g.table == "legalities" && g.column == "status")
            .expect("status column grounded");
        assert!(status.values.iter().any(|v| v == "Restricted"));
    }

    #[test]
    fn does_not_recover_opaque_codes() {
        let bench = build_bird(&CorpusConfig::tiny());
        let db = bench.database("financial").unwrap();
        let grounded =
            retrieve_values("Among the weekly issuance accounts, how many have a loan?", db);
        let freq_values: Vec<&String> = grounded
            .iter()
            .filter(|g| g.column == "frequency")
            .flat_map(|g| g.values.iter())
            .collect();
        assert!(
            freq_values.iter().all(|v| !v.contains("POPLATEK")),
            "lexical retrieval must not bridge 'weekly' to 'POPLATEK TYDNE': {freq_values:?}"
        );
    }

    #[test]
    fn district_names_are_recovered() {
        let bench = build_bird(&CorpusConfig::tiny());
        let db = bench.database("financial").unwrap();
        let grounded =
            retrieve_values("How many clients opened accounts in the Jesenik branch?", db);
        assert!(grounded
            .iter()
            .any(|g| g.column == "district_name" && g.values.iter().any(|v| v == "Jesenik")));
    }

    #[test]
    fn empty_question_matches_nothing_catastrophic() {
        let bench = build_bird(&CorpusConfig::tiny());
        let db = bench.database("financial").unwrap();
        let grounded = retrieve_values("", db);
        assert!(grounded.len() < 3);
    }

    #[test]
    fn matches_the_rescanning_oracle_on_every_corpus_question() {
        for bench in [build_bird(&CorpusConfig::default()), build_spider(&CorpusConfig::default())]
        {
            assert!(!bench.questions.is_empty());
            for q in &bench.questions {
                let db = bench.database(&q.db_id).unwrap();
                assert_eq!(
                    retrieve_values(&q.text, db),
                    retrieve_values_by_rescanning(&q.text, db),
                    "{} question {}: {:?}",
                    bench.name,
                    q.id,
                    q.text
                );
            }
        }
    }

    /// Generated tables and questions: mixed case, repeated values, NULLs,
    /// non-text cells, non-ASCII letters whose lowercase changes length,
    /// values of 0–40 chars drawn from a small alphabet so that many pairs
    /// score near the threshold.
    #[test]
    fn matches_the_rescanning_oracle_on_generated_tables() {
        const LETTERS: &str = "[abcABCİéÉß ]";
        let mut runner = Runner::new("value_retrieval_generated_tables");
        let mut grounding_cases = 0;
        for case in 0..256 {
            let mut db = Database::new("gen");
            for name in ["t", "u"] {
                db.create_table(TableSchema::new(
                    name,
                    vec![
                        ColumnDef::new("id", DataType::Integer).primary_key(),
                        ColumnDef::new("label", DataType::Text),
                        ColumnDef::new("n", DataType::Integer),
                        ColumnDef::new("note", DataType::Text),
                    ],
                ))
                .unwrap();
            }
            let pool: Vec<String> =
                (0..12).map(|_| runner.gen_string(&format!("{LETTERS}{{0,40}}"))).collect();
            let pick = |runner: &mut Runner| -> Value {
                let r = runner.gen_string("[0-9]{2}").parse::<usize>().unwrap();
                match r % 10 {
                    0 => Value::Null,
                    1 => Value::Integer(r as i64),
                    _ => Value::Text(pool[r % pool.len()].clone()),
                }
            };
            for id in 0..runner.gen_string("[0-9]{2}").parse::<i64>().unwrap() {
                for name in ["t", "u"] {
                    let row =
                        vec![Value::Integer(id), pick(&mut runner), 7.into(), pick(&mut runner)];
                    db.insert(name, row).unwrap();
                }
            }
            let mut words: Vec<String> =
                (0..4).map(|_| runner.gen_string(&format!("{LETTERS}{{1,12}}"))).collect();
            words.push(pool[case % pool.len()].clone());
            let question = words.join(" ");
            let grounded = retrieve_values(&question, &db);
            assert_eq!(
                grounded,
                retrieve_values_by_rescanning(&question, &db),
                "case {case}: {question:?}"
            );
            grounding_cases += usize::from(!grounded.is_empty());
        }
        assert!(grounding_cases >= 128, "only {grounding_cases} of 256 cases ground a value");
    }

    proptest! {
        #[test]
        fn matches_the_rescanning_oracle_on_arbitrary_questions(q in ".{0,60}") {
            let bench = build_bird(&CorpusConfig::tiny());
            let db = bench.database("financial").unwrap();
            prop_assert_eq!(retrieve_values(&q, db), retrieve_values_by_rescanning(&q, db));
        }
    }

    /// A committed value is grounded on the new snapshot, while a reader
    /// pinned to the old snapshot, whose sample was built before the commit
    /// and inherited by the copy-on-write clone, keeps its old answer.
    #[test]
    fn committed_values_ground_on_the_new_snapshot_only() {
        let mut db = Database::new("bank");
        db.create_table(TableSchema::new(
            "branch",
            vec![
                ColumnDef::new("id", DataType::Integer).primary_key(),
                ColumnDef::new("city", DataType::Text),
            ],
        ))
        .unwrap();
        db.insert("branch", vec![1.into(), "Pisek".into()]).unwrap();
        db.insert("branch", vec![2.into(), "Jesenik".into()]).unwrap();
        let question = "How many clients bank in Zlatohorsk or Jesenik?";
        let old_answer = retrieve_values(question, &db);
        assert!(old_answer.iter().all(|g| g.values.iter().all(|v| v != "Zlatohorsk")));

        let next = commit_statement(&db, "INSERT INTO branch VALUES (3, 'Zlatohorsk')").unwrap().db;
        let new_answer = retrieve_values(question, &next);
        assert!(
            new_answer
                .iter()
                .any(|g| g.column == "city" && g.values.iter().any(|v| v == "Zlatohorsk")),
            "{new_answer:?}"
        );
        assert_eq!(new_answer, retrieve_values_by_rescanning(question, &next));
        assert_eq!(retrieve_values(question, &db), old_answer);
    }
}
