//! # seed-embedding
//!
//! A deterministic sentence-embedding substitute for `all-mpnet-base-v2`,
//! which the SEED paper uses to pick few-shot examples by cosine similarity.
//!
//! The embedding is a hashed bag of word unigrams, word bigrams, and character
//! trigrams, L2-normalized. It is *not* a neural sentence encoder; what the
//! pipeline needs from it is a similarity ranking in which questions that
//! share schema terms, phrasing, and values land close together, and that is
//! exactly what lexical hashing provides — deterministically and offline.
//!
//! ```
//! use seed_embedding::EmbeddingModel;
//! let model = seed_embedding::HashedEmbedder::default();
//! let a = model.embed("How many clients opened accounts in the Jesenik branch?");
//! let b = model.embed("How many clients opened their accounts in Pisek?");
//! let c = model.embed("List the atoms of molecule TR024 with double bonds");
//! assert!(seed_embedding::cosine_similarity(&a, &b) > seed_embedding::cosine_similarity(&a, &c));
//! ```

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

mod hashed;

pub use hashed::HashedEmbedder;

/// A dense embedding vector.
pub type Embedding = Vec<f32>;

/// Anything that can embed a sentence into a fixed-size vector.
pub trait EmbeddingModel {
    /// Dimensionality of produced embeddings.
    fn dimension(&self) -> usize;

    /// Embeds a sentence. The result must be L2-normalized (or zero).
    fn embed(&self, text: &str) -> Embedding;

    /// Embeds a batch of sentences (default: map over [`EmbeddingModel::embed`]).
    fn embed_batch(&self, texts: &[&str]) -> Vec<Embedding> {
        texts.iter().map(|t| self.embed(t)).collect()
    }
}

/// Cosine similarity between two embeddings (0 for mismatched/zero vectors).
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    if a.len() != b.len() || a.is_empty() {
        return 0.0;
    }
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na * nb)
}

/// Ranks `candidates` by cosine similarity to `query`, most similar first;
/// the sort is stable, so ties keep candidate order. Returns `(index,
/// similarity)` pairs.
pub fn rank_by_similarity<V: AsRef<[f32]>>(query: &[f32], candidates: &[V]) -> Vec<(usize, f32)> {
    let mut scored: Vec<(usize, f32)> = candidates
        .iter()
        .enumerate()
        .map(|(i, c)| (i, cosine_similarity(query, c.as_ref())))
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    scored
}

/// Most pool embeddings a [`PoolEmbedder`] keeps.
pub const MAX_POOL_EMBEDDINGS: usize = 1024;

/// An embedding model plus the embeddings of the pool texts it has ranked,
/// keyed by text, so a training pool is embedded once instead of once per
/// query. It keeps at most [`MAX_POOL_EMBEDDINGS`]: a new text reaching a
/// full cache drops an arbitrary one. Embedding is deterministic, so a kept
/// vector is bit-identical to a fresh one.
#[derive(Debug, Default)]
pub struct PoolEmbedder<M> {
    model: M,
    pool: RwLock<HashMap<String, Arc<[f32]>>>,
}

impl<M: EmbeddingModel> PoolEmbedder<M> {
    /// Wraps `model` with an empty cache.
    pub fn new(model: M) -> Self {
        PoolEmbedder { model, pool: RwLock::default() }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Ranks `pool` by cosine similarity to `query`, most similar first, as
    /// [`rank_by_similarity`] does. `query` is embedded afresh; each pool
    /// text is embedded on first sight and kept.
    pub fn rank(&self, query: &str, pool: &[&str]) -> Vec<(usize, f32)> {
        let vectors: Vec<Arc<[f32]>> = pool.iter().map(|text| self.embedding(text)).collect();
        rank_by_similarity(&self.model.embed(query), &vectors)
    }

    /// The embedding of `text`, computed and kept on first sight. Every
    /// update leaves the map whole, so a guard a panicking thread left
    /// behind is safe to take.
    fn embedding(&self, text: &str) -> Arc<[f32]> {
        if let Some(vector) = self.pool.read().unwrap_or_else(PoisonError::into_inner).get(text) {
            return Arc::clone(vector);
        }
        let vector: Arc<[f32]> = self.model.embed(text).into();
        let mut cache = self.pool.write().unwrap_or_else(PoisonError::into_inner);
        if cache.len() >= MAX_POOL_EMBEDDINGS && !cache.contains_key(text) {
            if let Some(victim) = cache.keys().next().cloned() {
                cache.remove(&victim);
            }
        }
        cache.insert(text.to_string(), Arc::clone(&vector));
        vector
    }

    /// Number of pool embeddings kept.
    pub fn len(&self) -> usize {
        self.pool.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// True when no pool embedding is kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_of_identical_vectors_is_one() {
        let v = vec![0.5f32, 0.5, 0.0];
        assert!((cosine_similarity(&v, &v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_orthogonal_vectors_is_zero() {
        assert_eq!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
    }

    #[test]
    fn cosine_handles_mismatched_and_zero() {
        assert_eq!(cosine_similarity(&[1.0], &[1.0, 2.0]), 0.0);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    const QUERY: &str = "How many accounts have a loan under 200000?";
    const CANDIDATES: [&str; 3] = [
        "Among the weekly issuance accounts, how many have a loan of under 200000?",
        "List the superheroes with blue eyes",
        "What is the highest eligible free rate for K-12 students?",
    ];

    #[test]
    fn rank_by_similarity_puts_paraphrase_first() {
        let model = HashedEmbedder::default();
        let vectors: Vec<Embedding> = CANDIDATES.iter().map(|c| model.embed(c)).collect();
        let ranked = rank_by_similarity(&model.embed(QUERY), &vectors);
        assert_eq!(ranked[0].0, 0);
        assert!(ranked[0].1 > ranked[1].1);
    }

    #[test]
    fn ties_keep_candidate_order() {
        let ranked = rank_by_similarity(&[1.0, 0.0], &[[0.0, 1.0], [1.0, 0.0], [0.0, 2.0]]);
        assert_eq!(ranked.iter().map(|(i, _)| *i).collect::<Vec<_>>(), [1, 0, 2]);
    }

    #[test]
    fn a_pool_embedder_ranks_bit_identically_and_embeds_each_text_once() {
        let model = HashedEmbedder::default();
        let vectors: Vec<Embedding> = CANDIDATES.iter().map(|c| model.embed(c)).collect();
        let fresh = rank_by_similarity(&model.embed(QUERY), &vectors);
        let pool = PoolEmbedder::new(HashedEmbedder::default());
        for _ in 0..2 {
            let ranked = pool.rank(QUERY, &CANDIDATES);
            assert_eq!(ranked.len(), fresh.len());
            for (a, b) in ranked.iter().zip(&fresh) {
                assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()));
            }
            assert_eq!(pool.len(), CANDIDATES.len(), "the query is not kept");
        }
    }

    #[test]
    fn a_pool_embedder_keeps_at_most_its_bound() {
        let pool = PoolEmbedder::new(HashedEmbedder::with_dimension(8));
        let texts: Vec<String> = (0..MAX_POOL_EMBEDDINGS + 50).map(|i| format!("q{i}")).collect();
        for chunk in texts.chunks(100) {
            let refs: Vec<&str> = chunk.iter().map(String::as_str).collect();
            assert_eq!(pool.rank("q1", &refs).len(), refs.len());
            assert!(pool.len() <= MAX_POOL_EMBEDDINGS);
        }
        assert_eq!(pool.len(), MAX_POOL_EMBEDDINGS);
    }
}
