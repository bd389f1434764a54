//! The hashed lexical embedder.

use crate::{Embedding, EmbeddingModel};

/// Deterministic hashed bag-of-features sentence embedder.
///
/// Features: word unigrams (weight 1.0), word bigrams (weight 0.7), character
/// trigrams (weight 0.3). Each feature is hashed (FNV-1a) into a fixed-size
/// vector with a sign hash, then the vector is L2-normalized.
#[derive(Debug, Clone)]
pub struct HashedEmbedder {
    dimension: usize,
}

impl Default for HashedEmbedder {
    fn default() -> Self {
        HashedEmbedder { dimension: 384 }
    }
}

impl HashedEmbedder {
    /// Creates an embedder with a custom dimensionality (must be > 0).
    pub fn with_dimension(dimension: usize) -> Self {
        assert!(dimension > 0, "embedding dimension must be positive");
        HashedEmbedder { dimension }
    }

    /// Adds one feature: `kind` is the FNV-1a state after the feature kind's
    /// prefix (`"u:"`, `"b:"`, `"c:"`), so continuing it over `feature`
    /// hashes the prefixed feature without building its string.
    fn add_feature(&self, vec: &mut [f32], kind: u64, feature: &str, weight: f32) {
        let h = fnv1a(kind, feature.as_bytes());
        let idx = (h % self.dimension as u64) as usize;
        let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        vec[idx] += sign * weight;
    }
}

impl EmbeddingModel for HashedEmbedder {
    fn dimension(&self) -> usize {
        self.dimension
    }

    fn embed(&self, text: &str) -> Embedding {
        let mut v = vec![0.0f32; self.dimension];
        let words = normalize(text);
        if words.is_empty() {
            return v;
        }
        // Kind by kind, each in text order: two features can share a slot,
        // and f32 addition depends on order.
        let unigram = fnv1a(FNV_OFFSET, b"u:");
        for w in words.split(' ') {
            self.add_feature(&mut v, unigram, w, 1.0);
        }
        // Words are one space apart, so a bigram is the text from one word's
        // start to the end of the next.
        let bigram = fnv1a(FNV_OFFSET, b"b:");
        let (mut start, mut prev_start) = (0, None);
        for w in words.split(' ') {
            if let Some(p) = prev_start {
                self.add_feature(&mut v, bigram, &words[p..start + w.len()], 0.7);
            }
            prev_start = Some(start);
            start += w.len() + 1;
        }
        let trigram = fnv1a(FNV_OFFSET, b"c:");
        let bounds = || words.char_indices().map(|(i, _)| i).chain([words.len()]);
        for (s, e) in bounds().zip(bounds().skip(3)) {
            self.add_feature(&mut v, trigram, &words[s..e], 0.3);
        }
        // L2 normalize.
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        v
    }
}

/// The words of `text`, lowercased, joined by single spaces: a word is a
/// maximal run of alphanumeric chars.
fn normalize(text: &str) -> String {
    let lower = text.to_lowercase();
    let mut out = String::with_capacity(lower.len());
    for w in lower.split(|c: char| !c.is_alphanumeric()).filter(|w| !w.is_empty()) {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(w);
    }
    out
}

/// The 64-bit FNV-1a offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// 64-bit FNV-1a over `bytes`, continued from the state `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosine_similarity;
    use proptest::prelude::*;

    /// The embedder before incremental hashing, kept as the oracle: it
    /// formats a string per feature and hashes it whole.
    fn embed_by_formatting(dimension: usize, text: &str) -> Embedding {
        let add = |v: &mut [f32], feature: &str, weight: f32| {
            let h = fnv1a(FNV_OFFSET, feature.as_bytes());
            let idx = (h % dimension as u64) as usize;
            let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            v[idx] += sign * weight;
        };
        let mut v = vec![0.0f32; dimension];
        let words: Vec<String> = text
            .to_lowercase()
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { ' ' })
            .collect::<String>()
            .split_whitespace()
            .map(|s| s.to_string())
            .collect();
        for w in &words {
            add(&mut v, &format!("u:{w}"), 1.0);
        }
        for pair in words.windows(2) {
            add(&mut v, &format!("b:{} {}", pair[0], pair[1]), 0.7);
        }
        let joined = words.join(" ");
        let chars: Vec<char> = joined.chars().collect();
        if chars.len() >= 3 {
            for i in 0..chars.len() - 2 {
                let tri: String = chars[i..i + 3].iter().collect();
                add(&mut v, &format!("c:{tri}"), 0.3);
            }
        }
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        v
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn embeddings_are_deterministic() {
        let m = HashedEmbedder::default();
        assert_eq!(m.embed("hello world"), m.embed("hello world"));
    }

    #[test]
    fn embeddings_are_normalized() {
        let m = HashedEmbedder::default();
        let v = m.embed("List all the elements with double bond in molecule TR024");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4);
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let m = HashedEmbedder::default();
        let v = m.embed("");
        assert!(v.iter().all(|x| *x == 0.0));
        assert!(m.embed(" ?! -- ").iter().all(|x| *x == 0.0));
    }

    #[test]
    fn similar_sentences_are_closer_than_unrelated() {
        let m = HashedEmbedder::default();
        let a = m.embed("How many cards whose status is restricted have text boxes?");
        let b = m.embed("How many cards with restricted status are textless?");
        let c = m.embed("What is the average loan amount of weekly issuance accounts?");
        assert!(cosine_similarity(&a, &b) > cosine_similarity(&a, &c));
    }

    #[test]
    fn custom_dimension_respected() {
        let m = HashedEmbedder::with_dimension(64);
        assert_eq!(m.dimension(), 64);
        assert_eq!(m.embed("x").len(), 64);
    }

    #[test]
    #[should_panic]
    fn zero_dimension_panics() {
        HashedEmbedder::with_dimension(0);
    }

    #[test]
    fn matches_the_formatting_embedder_on_corpus_like_questions() {
        let m = HashedEmbedder::default();
        for text in [
            "How many clients opened accounts in the Jesenik branch?",
            "List the atoms of molecule TR024 with double bonds",
            "Ab",
            "a b",
            "ΑΣ ΣΑΣ İstanbul straße",
            "  leading, trailing; and -- doubled   separators  ",
        ] {
            assert_eq!(bits(&m.embed(text)), bits(&embed_by_formatting(384, text)), "{text:?}");
        }
    }

    proptest! {
        #[test]
        fn norm_is_zero_or_one(text in "[a-zA-Z0-9 ]{0,60}") {
            let m = HashedEmbedder::default();
            let v = m.embed(&text);
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            prop_assert!(norm < 1e-4 || (norm - 1.0).abs() < 1e-3);
        }

        #[test]
        fn self_similarity_is_max(text in "[a-z ]{1,40}") {
            let m = HashedEmbedder::default();
            let v = m.embed(&text);
            if v.iter().any(|x| *x != 0.0) {
                prop_assert!((cosine_similarity(&v, &v) - 1.0).abs() < 1e-4);
            }
        }

        #[test]
        fn bit_identical_to_the_formatting_embedder_on_arbitrary_text(text in ".{0,60}") {
            let m = HashedEmbedder::default();
            prop_assert_eq!(bits(&m.embed(&text)), bits(&embed_by_formatting(384, &text)));
        }

        /// Short words and many separators, so that features often share a
        /// slot of a small vector and the order of additions shows.
        #[test]
        fn bit_identical_to_the_formatting_embedder_on_crowded_vectors(
            text in "[abAB İΣß.,-]{0,80}"
        ) {
            let m = HashedEmbedder::with_dimension(7);
            prop_assert_eq!(bits(&m.embed(&text)), bits(&embed_by_formatting(7, &text)));
        }
    }
}
