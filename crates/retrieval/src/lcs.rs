//! Longest common substring, the matching primitive CodeS combines with BM25
//! for database-value referencing.

use crate::DpRow;

/// Length of the longest common (contiguous) substring of two lowercased
/// strings, in chars, computed in one reused DP row.
pub fn longest_common_substring(a: &str, b: &str, row: &mut DpRow) -> usize {
    let (b, cells) = row.load(b, |_| 0);
    let mut best = 0usize;
    for ca in a.chars() {
        // `diag` is the previous row's run ending one char earlier in `b`.
        let mut diag = 0usize;
        for (cell, &cb) in cells[1..].iter_mut().zip(b) {
            let above = *cell;
            *cell = if ca == cb { diag + 1 } else { 0 };
            best = best.max(*cell);
            diag = above;
        }
    }
    best
}

/// Ratio of the longest common substring of two lowercased strings to the
/// shorter one's length, in `[0, 1]`; 0 when either string is empty.
pub fn lcs_ratio(a: &str, b: &str, row: &mut DpRow) -> f64 {
    let min_len = a.chars().count().min(b.chars().count());
    if min_len == 0 {
        return 0.0;
    }
    longest_common_substring(a, b, row) as f64 / min_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use proptest::prelude::*;

    /// The kernel on text of any case, lowercased as every caller does.
    fn lcs(a: &str, b: &str) -> usize {
        longest_common_substring(&a.to_lowercase(), &b.to_lowercase(), &mut DpRow::default())
    }

    fn ratio(a: &str, b: &str) -> f64 {
        lcs_ratio(&a.to_lowercase(), &b.to_lowercase(), &mut DpRow::default())
    }

    #[test]
    fn finds_common_runs() {
        assert_eq!(lcs("Fremont Unified", "fremont"), 7);
        assert_eq!(lcs("POPLATEK TYDNE", "weekly"), 2); // "ek"
        assert_eq!(lcs("abc", "xyz"), 0);
    }

    #[test]
    fn ratio_is_one_for_containment() {
        assert_eq!(ratio("Alameda", "Alameda County Office"), 1.0);
        assert_eq!(ratio("", "x"), 0.0);
    }

    /// 'İ' lowercases to "i\u{307}": the shorter string is "i", fully
    /// contained.
    #[test]
    fn ratio_measures_lengths_after_lowercasing() {
        assert_eq!(ratio("İ", "i"), 1.0);
        assert_eq!(reference::lcs_ratio("İ", "i"), 1.0);
    }

    proptest! {
        #[test]
        fn lcs_symmetric(a in "[a-z ]{0,16}", b in "[a-z ]{0,16}") {
            prop_assert_eq!(lcs(&a, &b), lcs(&b, &a));
        }

        #[test]
        fn lcs_bounded_by_min_length(a in "[a-z]{0,16}", b in "[a-z]{0,16}") {
            let l = lcs(&a, &b);
            prop_assert!(l <= a.len().min(b.len()));
        }

        #[test]
        fn self_lcs_is_full_length(a in "[a-z]{1,16}") {
            prop_assert_eq!(lcs(&a, &a), a.len());
        }

        #[test]
        fn kernel_matches_reference_on_arbitrary_text(a in ".{0,24}", b in ".{0,24}") {
            prop_assert_eq!(lcs(&a, &b), reference::longest_common_substring(&a, &b));
            prop_assert_eq!(ratio(&a, &b).to_bits(), reference::lcs_ratio(&a, &b).to_bits());
            let r = ratio(&a, &b);
            prop_assert!((0.0..=1.0).contains(&r), "{:?} {:?} -> {}", a, b, r);
        }

        #[test]
        fn kernel_matches_reference_on_case_changing_text(
            a in "[aAiIİıẞßΣσς\u{307}éÉ ]{0,16}",
            b in "[aAiIİıẞßΣσς\u{307}éÉ ]{0,16}"
        ) {
            prop_assert_eq!(lcs(&a, &b), reference::longest_common_substring(&a, &b));
            prop_assert_eq!(ratio(&a, &b).to_bits(), reference::lcs_ratio(&a, &b).to_bits());
        }
    }
}
