//! Levenshtein edit distance, used by SEED's sample-SQL stage to retrieve
//! database values that are *similar* to a question keyword (the paper pairs
//! `LIKE` probes with edit-distance filtering), by CodeS-style value
//! retrieval, and by the simulated LLM's column matching.

use crate::DpRow;

/// Levenshtein distance over the Unicode scalars of two lowercased strings,
/// computed in one reused DP row.
pub fn levenshtein(a: &str, b: &str, row: &mut DpRow) -> usize {
    let (b, cells) = row.load(b, |j| j);
    for (i, ca) in a.chars().enumerate() {
        // `diag` is the previous row's cell left of the current column.
        let mut diag = cells[0];
        let mut left = i + 1;
        cells[0] = left;
        for (cell, &cb) in cells[1..].iter_mut().zip(b) {
            let above = *cell;
            left = (above + 1).min(left + 1).min(diag + usize::from(ca != cb));
            *cell = left;
            diag = above;
        }
    }
    cells[b.len()]
}

/// Similarity of two lowercased strings in `[0, 1]`:
/// `1 - distance / max_len`; two empty strings are identical.
pub fn normalized_similarity(a: &str, b: &str, row: &mut DpRow) -> f64 {
    let distance = levenshtein(a, b, row);
    similarity_of(distance, a.chars().count(), b.chars().count())
}

/// An upper bound on [`normalized_similarity`] of two strings of `a_chars`
/// and `b_chars` chars, without running the DP: the distance is at least
/// the length difference, and the bound goes through the same
/// floating-point steps as the similarity, so it holds exactly, not just up
/// to rounding.
pub fn similarity_upper_bound(a_chars: usize, b_chars: usize) -> f64 {
    similarity_of(a_chars.abs_diff(b_chars), a_chars, b_chars)
}

fn similarity_of(distance: usize, a_chars: usize, b_chars: usize) -> f64 {
    let max_len = a_chars.max(b_chars);
    if max_len == 0 {
        return 1.0;
    }
    1.0 - distance as f64 / max_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use proptest::prelude::*;

    /// The kernel on text of any case, lowercased as every caller does.
    fn lev(a: &str, b: &str) -> usize {
        levenshtein(&a.to_lowercase(), &b.to_lowercase(), &mut DpRow::default())
    }

    fn sim(a: &str, b: &str) -> f64 {
        normalized_similarity(&a.to_lowercase(), &b.to_lowercase(), &mut DpRow::default())
    }

    #[test]
    fn known_distances() {
        assert_eq!(lev("kitten", "sitting"), 3);
        assert_eq!(lev("", "abc"), 3);
        assert_eq!(lev("abc", ""), 3);
        assert_eq!(lev("abc", "abc"), 0);
        assert_eq!(lev("Fremont", "fremont"), 0, "case-insensitive");
    }

    #[test]
    fn similarity_bounds() {
        assert_eq!(sim("abc", "abc"), 1.0);
        assert_eq!(sim("", ""), 1.0);
        assert!(sim("abc", "xyz") < 0.01);
    }

    /// 'İ' lowercases to two chars ("i\u{307}"). Lengths taken from the
    /// strings before lowercasing gave −1.0 for the first pair and 0.0 for
    /// the second, while `lcs_ratio("İ", "i")` was 1.0.
    #[test]
    fn similarity_measures_lengths_after_lowercasing() {
        assert_eq!(sim("İİİ", "x"), 0.0);
        assert_eq!(reference::normalized_similarity("İİİ", "x"), 0.0);
        assert_eq!(sim("İ", "i"), 0.5);
        assert_eq!(reference::normalized_similarity("İ", "i"), 0.5);
    }

    #[test]
    fn one_row_serves_calls_of_any_length() {
        let mut row = DpRow::default();
        let words = ["", "a", "alameda county office", "ål", "i\u{307}x", "fremont", ""];
        for a in words {
            for b in words {
                assert_eq!(
                    levenshtein(a, b, &mut row),
                    reference::levenshtein(a, b),
                    "{a:?} {b:?}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn distance_is_symmetric(a in "[a-zA-Z ]{0,20}", b in "[a-zA-Z ]{0,20}") {
            prop_assert_eq!(lev(&a, &b), lev(&b, &a));
        }

        #[test]
        fn distance_zero_iff_equal_ignoring_case(a in "[a-z ]{0,20}") {
            prop_assert_eq!(lev(&a, &a.to_uppercase()), 0);
        }

        #[test]
        fn triangle_inequality(a in "[a-z]{0,12}", b in "[a-z]{0,12}", c in "[a-z]{0,12}") {
            let ab = lev(&a, &b);
            let bc = lev(&b, &c);
            let ac = lev(&a, &c);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn similarity_in_unit_interval(a in ".{0,20}", b in ".{0,20}") {
            let s = sim(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s), "{:?} {:?} -> {}", a, b, s);
            let r = reference::normalized_similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&r), "{:?} {:?} -> {}", a, b, r);
        }

        #[test]
        fn kernel_matches_reference_on_arbitrary_text(a in ".{0,24}", b in ".{0,24}") {
            prop_assert_eq!(lev(&a, &b), reference::levenshtein(&a, &b));
            prop_assert_eq!(
                sim(&a, &b).to_bits(),
                reference::normalized_similarity(&a, &b).to_bits()
            );
        }

        /// Letters whose lowercase differs in length or context (dotted
        /// capital I, sharp s, final sigma, a combining dot) so that the
        /// two strings often share chars.
        #[test]
        fn kernel_matches_reference_on_case_changing_text(
            a in "[aAiIİıẞßΣσς\u{307}éÉ ]{0,16}",
            b in "[aAiIİıẞßΣσς\u{307}éÉ ]{0,16}"
        ) {
            prop_assert_eq!(lev(&a, &b), reference::levenshtein(&a, &b));
            prop_assert_eq!(
                sim(&a, &b).to_bits(),
                reference::normalized_similarity(&a, &b).to_bits()
            );
        }

        #[test]
        fn upper_bound_is_never_below_the_similarity(a in "[a-eİß ]{0,20}", b in ".{0,20}") {
            let (a, b) = (a.to_lowercase(), b.to_lowercase());
            let s = normalized_similarity(&a, &b, &mut DpRow::default());
            prop_assert!(s <= similarity_upper_bound(a.chars().count(), b.chars().count()));
        }
    }
}
