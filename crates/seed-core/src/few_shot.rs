//! Few-shot example selection (paper §III-C).
//!
//! SEED selects the training question most similar to the query (all-mpnet
//! cosine similarity in the paper, the deterministic hashed embedder here),
//! then retrieves four more related questions *from the same database*.
//! The embedder keeps each pool question's embedding, so a training pool is
//! embedded once, not once per question.

use seed_datasets::Question;
use seed_embedding::{EmbeddingModel, PoolEmbedder};
use seed_llm::FewShotExample;

/// Total number of few-shot examples selected (1 global + 4 same-database).
pub const FEW_SHOT_TOTAL: usize = 5;

/// Selects few-shot examples for a question from the training pool.
pub fn select_examples<M: EmbeddingModel>(
    embedder: &PoolEmbedder<M>,
    question: &Question,
    train_pool: &[&Question],
) -> Vec<FewShotExample> {
    if train_pool.is_empty() {
        return Vec::new();
    }
    let pool: Vec<&str> = train_pool.iter().map(|q| q.text.as_str()).collect();
    let scored = embedder.rank(&question.text, &pool);

    let mut picked: Vec<usize> = Vec::new();
    // 1. The globally most similar training question.
    if let Some((best, _)) = scored.first() {
        picked.push(*best);
    }
    // 2. Four more from the same database, by similarity.
    for (i, _) in &scored {
        if picked.len() >= FEW_SHOT_TOTAL {
            break;
        }
        if picked.contains(i) {
            continue;
        }
        if train_pool[*i].db_id == question.db_id {
            picked.push(*i);
        }
    }
    // 3. Top up with the next most similar questions if the database has too few.
    for (i, _) in &scored {
        if picked.len() >= FEW_SHOT_TOTAL {
            break;
        }
        if !picked.contains(i) {
            picked.push(*i);
        }
    }

    picked
        .into_iter()
        .map(|i| {
            let q = train_pool[i];
            FewShotExample {
                question: q.text.clone(),
                evidence: q.human_evidence.text.clone(),
                sql: q.gold_sql.clone(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seed_datasets::{bird::build_bird, CorpusConfig, Split};
    use seed_embedding::HashedEmbedder;

    fn embedder() -> PoolEmbedder<HashedEmbedder> {
        PoolEmbedder::new(HashedEmbedder::default())
    }

    #[test]
    fn selects_five_examples_mostly_from_same_database() {
        let bench = build_bird(&CorpusConfig::default());
        let train: Vec<&Question> = bench.split(Split::Train);
        let dev = bench.split(Split::Dev);
        let q = dev.iter().find(|q| q.db_id == "financial").unwrap();
        let examples = select_examples(&embedder(), q, &train);
        assert_eq!(examples.len(), FEW_SHOT_TOTAL);
        // At least the same-database slots should exist: count training
        // questions whose text matches a financial training question.
        let financial_texts: Vec<&str> =
            train.iter().filter(|t| t.db_id == "financial").map(|t| t.text.as_str()).collect();
        let from_financial =
            examples.iter().filter(|e| financial_texts.contains(&e.question.as_str())).count();
        assert!(from_financial >= 3, "only {from_financial} examples from the same database");
    }

    #[test]
    fn a_kept_pool_picks_what_a_fresh_embedder_picks() {
        let bench = build_bird(&CorpusConfig::default());
        let train: Vec<&Question> = bench.split(Split::Train);
        let kept = embedder();
        for q in bench.split(Split::Dev) {
            assert_eq!(
                select_examples(&kept, q, &train),
                select_examples(&embedder(), q, &train),
                "{}",
                q.id
            );
        }
        assert_eq!(kept.len(), train.len(), "each pool question is embedded once");
    }

    #[test]
    fn empty_pool_yields_no_examples() {
        let bench = build_bird(&CorpusConfig::tiny());
        let q = bench.split(Split::Dev)[0];
        assert!(select_examples(&embedder(), q, &[]).is_empty());
    }

    #[test]
    fn examples_carry_evidence_and_sql() {
        let bench = build_bird(&CorpusConfig::tiny());
        let train: Vec<&Question> = bench.split(Split::Train);
        let q = bench.split(Split::Dev)[0];
        for ex in select_examples(&embedder(), q, &train) {
            assert!(!ex.sql.is_empty());
            assert!(ex.sql.to_uppercase().starts_with("SELECT"));
        }
    }
}
