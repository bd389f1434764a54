//! Sample SQL execution (paper §III-B).
//!
//! SEED emulates how a human without domain knowledge would inspect the
//! database: extract keywords from the question, pair them with candidate
//! columns, and run probe queries — `SELECT DISTINCT col`, `LIKE '%kw%'`
//! filters, and edit-distance similar-value retrieval — to see what the
//! database actually contains. Multi-word keywords additionally run through
//! a per-column BM25 index over the probed distinct values, which surfaces
//! values sharing any token with the keyword even when no contiguous
//! substring matches (the inverted index makes this probe cheap).

use seed_llm::{ExtractedKeyword, GroundedColumn, KeywordExtractionTask, LanguageModel};
use seed_retrieval::{normalized_similarity, Bm25Index, DpRow};
use seed_sqlengine::{execute, Database};

/// A probe query that was executed, kept for the pipeline trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleQuery {
    pub sql: String,
    pub rows_returned: usize,
}

/// Output of the sample-SQL stage.
#[derive(Debug, Clone, Default)]
pub struct SampleSqlResult {
    /// Values grounded per (table, column), ready to embed in the prompt.
    pub grounded: Vec<GroundedColumn>,
    /// Every probe query executed.
    pub probes: Vec<SampleQuery>,
}

/// Maximum number of keyword/column pairs probed per question.
const MAX_PAIRS: usize = 12;
/// Values reported per grounded column.
const VALUES_PER_COLUMN: usize = 8;

/// Runs the sample-SQL stage for one question.
///
/// `keep_tables` restricts probing to a summarized schema (SEED_deepseek);
/// pass `None` to probe the whole database (SEED_gpt).
pub fn run_sample_sql<M: LanguageModel>(
    model: &M,
    question: &str,
    db: &Database,
    keep_tables: Option<&[String]>,
) -> SampleSqlResult {
    let keywords = model.extract_keywords(&KeywordExtractionTask { question, schema: db.schema() });
    ground_keywords(&keywords, question, db, keep_tables)
}

/// Grounds already-extracted keywords (separated out for testability).
pub fn ground_keywords(
    keywords: &[ExtractedKeyword],
    question: &str,
    db: &Database,
    keep_tables: Option<&[String]>,
) -> SampleSqlResult {
    let mut result = SampleSqlResult::default();
    let mut pairs = 0usize;
    let mut row = DpRow::default();
    for kw in keywords {
        let keyword = kw.keyword.to_lowercase();
        for (table, column) in &kw.candidate_columns {
            if pairs >= MAX_PAIRS {
                break;
            }
            if let Some(keep) = keep_tables {
                if !keep.iter().any(|t| t.eq_ignore_ascii_case(table)) {
                    continue;
                }
            }
            pairs += 1;
            // Probe 1: distinct values of the candidate column.
            let distinct_sql = format!("SELECT DISTINCT `{column}` FROM `{table}` LIMIT 40");
            let mut values: Vec<String> = Vec::new();
            if let Ok(rs) = execute(db, &distinct_sql) {
                result.probes.push(SampleQuery { sql: distinct_sql, rows_returned: rs.len() });
                values = rs.rows.iter().filter_map(|r| r.first()).map(|v| v.render()).collect();
            }
            // Probe 2: LIKE filter with the keyword.
            let like_sql = format!(
                "SELECT DISTINCT `{column}` FROM `{table}` WHERE `{column}` LIKE '%{}%' LIMIT 10",
                kw.keyword.replace('\'', "''")
            );
            let mut like_hits: Vec<String> = Vec::new();
            if let Ok(rs) = execute(db, &like_sql) {
                result.probes.push(SampleQuery { sql: like_sql, rows_returned: rs.len() });
                like_hits = rs.rows.iter().filter_map(|r| r.first()).map(|v| v.render()).collect();
            }
            // Similar values by edit distance (the paper's second retrieval mode).
            let mut similar: Vec<(String, f64)> = values
                .iter()
                .map(|v| (v.clone(), normalized_similarity(&keyword, &v.to_lowercase(), &mut row)))
                .filter(|(_, s)| *s >= 0.5)
                .collect();
            similar.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            // BM25 over the column's distinct values: catches multi-word
            // keywords whose tokens appear non-contiguously in a value,
            // which both the LIKE probe and whole-string edit distance miss.
            let bm25_hits: Vec<String> = if kw.keyword.split_whitespace().nth(1).is_some() {
                let index = Bm25Index::build(values.iter().cloned());
                index
                    .search(&kw.keyword, VALUES_PER_COLUMN)
                    .into_iter()
                    .map(|hit| values[hit.doc_id].clone())
                    .collect()
            } else {
                Vec::new()
            };

            let mut selected: Vec<String> = Vec::new();
            for v in
                like_hits.into_iter().chain(similar.into_iter().map(|(v, _)| v)).chain(bm25_hits)
            {
                if !selected.contains(&v) {
                    selected.push(v);
                }
                if selected.len() >= VALUES_PER_COLUMN {
                    break;
                }
            }
            // When nothing matched lexically, still report a small sample of
            // distinct values — this is what lets the evidence generator see
            // 'POPLATEK TYDNE' even though no question word resembles it.
            if selected.is_empty() {
                selected = values.into_iter().take(VALUES_PER_COLUMN).collect();
            }
            if selected.is_empty() {
                continue;
            }
            match result.grounded.iter_mut().find(|g| {
                g.table.eq_ignore_ascii_case(table) && g.column.eq_ignore_ascii_case(column)
            }) {
                Some(existing) => {
                    for v in selected {
                        if !existing.values.contains(&v)
                            && existing.values.len() < VALUES_PER_COLUMN
                        {
                            existing.values.push(v);
                        }
                    }
                }
                None => result.grounded.push(GroundedColumn::new(table, column, selected)),
            }
        }
    }
    let _ = question;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use seed_datasets::{bird::build_bird, CorpusConfig};
    use seed_llm::{ModelProfile, SimLlm};

    fn financial() -> (seed_datasets::Benchmark, SimLlm) {
        (build_bird(&CorpusConfig::tiny()), SimLlm::new(ModelProfile::gpt_4o_mini()))
    }

    #[test]
    fn grounds_frequency_codes_via_distinct_probe() {
        let (bench, model) = financial();
        let db = bench.database("financial").unwrap();
        let out = run_sample_sql(
            &model,
            "Among the weekly issuance accounts, how many have a loan of under 200000? What frequency do they use?",
            db,
            None,
        );
        assert!(!out.probes.is_empty());
        let freq = out.grounded.iter().find(|g| g.column == "frequency");
        assert!(
            freq.is_some_and(|g| g.values.iter().any(|v| v.contains("POPLATEK"))),
            "sample SQL must surface the issuance codes: {:?}",
            out.grounded
        );
    }

    #[test]
    fn respects_table_subset() {
        let (bench, model) = financial();
        let db = bench.database("financial").unwrap();
        let keep = vec!["loan".to_string()];
        let out = run_sample_sql(&model, "What is the average loan amount?", db, Some(&keep));
        assert!(out.grounded.iter().all(|g| g.table == "loan"));
    }

    #[test]
    fn probe_queries_are_recorded() {
        let (bench, model) = financial();
        let db = bench.database("card_games").unwrap();
        let out = run_sample_sql(
            &model,
            "How many cards are restricted in the vintage format?",
            db,
            None,
        );
        assert!(out.probes.iter().any(|p| p.sql.contains("LIKE")));
        assert!(out.probes.iter().any(|p| p.sql.starts_with("SELECT DISTINCT")));
    }

    #[test]
    fn bm25_grounds_multi_word_keywords_with_scrambled_token_order() {
        let (bench, _) = financial();
        let db = bench.database("financial").unwrap();
        // "MESICNE POPLATEK" reverses the stored token order, so the LIKE
        // probe finds no contiguous substring and whole-string edit distance
        // stays under threshold — only the BM25 token match can ground it.
        let kw = ExtractedKeyword {
            keyword: "MESICNE POPLATEK".to_string(),
            candidate_columns: vec![("account".to_string(), "frequency".to_string())],
        };
        let out = ground_keywords(&[kw], "irrelevant", db, None);
        let freq = out.grounded.iter().find(|g| g.column == "frequency").expect("grounded");
        assert_eq!(
            freq.values.first().map(String::as_str),
            Some("POPLATEK MESICNE"),
            "the value containing both query tokens must rank first: {:?}",
            freq.values
        );
    }

    #[test]
    fn exact_casing_is_preserved_in_grounded_values() {
        let (bench, model) = financial();
        let db = bench.database("card_games").unwrap();
        let out = run_sample_sql(&model, "How many cards have a restricted status?", db, None);
        let status = out.grounded.iter().find(|g| g.column == "status");
        assert!(status.is_some_and(|g| g.values.iter().any(|v| v == "Restricted")));
    }
}
