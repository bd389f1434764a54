//! The string-level similarity functions the kernels replaced, kept only as
//! the differential oracle for them (and for the text-to-SQL value retrieval
//! built on them). Every call lowercases both strings and collects them into
//! fresh `Vec<char>`s, with a full-width pair of DP rows. Lengths are
//! measured on the lowercased strings, as the kernels measure them.

/// Levenshtein distance over Unicode scalars, case-insensitive.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.to_lowercase().chars().collect();
    let b: Vec<char> = b.to_lowercase().chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = if ca == cb { 0 } else { 1 };
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// `1 - distance / max_len`, lengths in chars of the lowercased strings.
pub fn normalized_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.to_lowercase().chars().count().max(b.to_lowercase().chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Length of the longest common (contiguous) substring, case-insensitive.
pub fn longest_common_substring(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.to_lowercase().chars().collect();
    let b: Vec<char> = b.to_lowercase().chars().collect();
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let mut best = 0usize;
    let mut prev = vec![0usize; b.len() + 1];
    let mut cur = vec![0usize; b.len() + 1];
    for ca in a.iter() {
        for (j, cb) in b.iter().enumerate() {
            if ca == cb {
                cur[j + 1] = prev[j] + 1;
                best = best.max(cur[j + 1]);
            } else {
                cur[j + 1] = 0;
            }
        }
        std::mem::swap(&mut prev, &mut cur);
        cur.iter_mut().for_each(|x| *x = 0);
    }
    best
}

/// Longest common substring over the shorter string's length, lengths in
/// chars of the lowercased strings.
pub fn lcs_ratio(a: &str, b: &str) -> f64 {
    let min_len = a.to_lowercase().chars().count().min(b.to_lowercase().chars().count());
    if min_len == 0 {
        return 0.0;
    }
    longest_common_substring(a, b) as f64 / min_len as f64
}
