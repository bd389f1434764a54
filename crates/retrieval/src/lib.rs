//! # seed-retrieval
//!
//! Lexical retrieval utilities used across the SEED reproduction:
//!
//! * [`bm25`] — a BM25 index over short documents, used by the CodeS baseline
//!   for database-value referencing and by SEED's keyword grounding.
//! * [`edit_distance`] — Levenshtein distance, used by SEED's sample-SQL stage
//!   to pull values *similar* to question keywords.
//! * [`lcs`] — longest common substring, the second half of CodeS' coarse-to-fine
//!   value matching.
//! * [`tokenize`] — shared word tokenizer / keyword extraction helpers.
//!
//! The two similarity DPs are case-insensitive and allocation-free: callers
//! lowercase each string once (`str::to_lowercase`), pass the lowercased
//! text, and lend the kernels a [`DpRow`] they reuse across calls. Lengths
//! are counted in chars of the lowercased text.

pub mod bm25;
pub mod edit_distance;
pub mod lcs;
#[cfg(test)]
mod reference;
pub mod tokenize;

pub use bm25::{Bm25Index, SearchHit};
pub use edit_distance::{levenshtein, normalized_similarity, similarity_upper_bound};
pub use lcs::{lcs_ratio, longest_common_substring};
pub use tokenize::{content_words, ngrams, split_identifier, tokenize_words};

/// The state a similarity DP needs, owned by the caller and reused: the
/// chars of the inner string and one row of DP cells. Both grow to the
/// longest string seen, after which no kernel call allocates.
#[derive(Debug, Clone, Default)]
pub struct DpRow {
    chars: Vec<char>,
    cells: Vec<usize>,
}

impl DpRow {
    /// Loads `inner`'s chars and sets cell `j` to `init(j)` for every
    /// `j` in `0..=len`.
    fn load(&mut self, inner: &str, init: impl Fn(usize) -> usize) -> (&[char], &mut [usize]) {
        self.chars.clear();
        self.chars.extend(inner.chars());
        self.cells.clear();
        self.cells.extend((0..=self.chars.len()).map(init));
        (&self.chars, &mut self.cells)
    }
}
