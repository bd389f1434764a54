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
//!
//! A scan finds *positions* — for each grounded column, the table's index in
//! schema order, the column's index in the table's value sample, and the
//! indices of its grounded values, best first — and the
//! [`GroundedColumn`]s are built from those positions and the samples.
//! [`retrieve_values`] scans on every call. A [`ValueRetriever`], which
//! each of CodeS, CHESS and RSL-SQL owns, keeps the positions per database
//! name and question text, together with the
//! [`Database::dependency_fingerprint`] of every table of the database, and
//! answers a repeated question by building its columns again, without a
//! scan. Table generations are unique within the process, so under an
//! equal fingerprint every sample is the one the positions index.

use std::collections::HashMap;
use std::sync::{PoisonError, RwLock};

use seed_llm::GroundedColumn;
use seed_retrieval::{
    content_words, lcs_ratio, normalized_similarity, similarity_upper_bound, DpRow,
};
use seed_sqlengine::{Database, SampledValue};

/// Maximum values reported per grounded column.
const REPORTED_VALUES: usize = 6;
/// Lowest match score at which a value is grounded.
const MATCH_THRESHOLD: f64 = 0.72;
/// Most questions a [`ValueRetriever`] keeps positions for.
pub const MAX_RETRIEVED_QUESTIONS: usize = 1024;

/// Retrieves values relevant to the question from every text column.
pub fn retrieve_values(question: &str, db: &Database) -> Vec<GroundedColumn> {
    grounded_columns(&ground(question, db), db)
}

/// Where one grounded column's values sit in a database state.
#[derive(Debug)]
struct GroundedPosition {
    /// Index of the table in schema order.
    table: usize,
    /// Index of the column in the table's value sample.
    column: usize,
    /// Indices of the grounded values in the column's sample, best score
    /// first.
    values: Box<[usize]>,
}

/// Scores every sampled value against the question's words and returns the
/// positions of the grounded columns, in schema and sample order.
fn ground(question: &str, db: &Database) -> Vec<GroundedPosition> {
    let words = content_words(question);
    // `content_words` lowercases char by char, and lowercase chars are fixed
    // points of `str::to_lowercase`, so the words are already lowercased.
    let words: Vec<(&str, usize)> = words.iter().map(|w| (w.as_str(), w.chars().count())).collect();
    let mut row = DpRow::default();
    let mut out = Vec::new();
    for (t, schema) in db.schema().tables.iter().enumerate() {
        let Ok(table) = db.table(&schema.name) else { continue };
        for (c, sample) in table.value_sample().columns().iter().enumerate() {
            let mut matched: Vec<(usize, f64)> = sample
                .values
                .iter()
                .map(|v| match_score(&words, v, &mut row))
                .enumerate()
                .filter(|(_, score)| *score >= MATCH_THRESHOLD)
                .collect();
            if matched.is_empty() {
                continue;
            }
            matched.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            out.push(GroundedPosition {
                table: t,
                column: c,
                values: matched.into_iter().take(REPORTED_VALUES).map(|(i, _)| i).collect(),
            });
        }
    }
    out
}

/// The grounded columns at `positions`, which [`ground`] found on `db` or on
/// a database with the same dependency fingerprint over every table.
fn grounded_columns(positions: &[GroundedPosition], db: &Database) -> Vec<GroundedColumn> {
    let tables = &db.schema().tables;
    positions
        .iter()
        .map(|p| {
            let name = &tables[p.table].name;
            let table = db.table(name).expect("a grounded position names a table of the database");
            let sample = &table.value_sample().columns()[p.column];
            GroundedColumn::new(
                name,
                &table.schema.columns[sample.column].name,
                p.values.iter().map(|&i| sample.values[i].text.clone()).collect(),
            )
        })
        .collect()
}

/// The positions one question grounds on one database state.
#[derive(Debug)]
struct Grounding {
    /// [`Database::dependency_fingerprint`] of every table, in schema order.
    fingerprint: u64,
    positions: Box<[GroundedPosition]>,
}

/// Database name, then question text, so a lookup probes with borrowed
/// `&str`s and allocates nothing.
type Groundings = HashMap<String, HashMap<String, Grounding>>;

/// Number of groundings kept, over every database.
fn count(groundings: &Groundings) -> usize {
    groundings.values().map(HashMap::len).sum()
}

/// Drops an arbitrary grounding, and the map it leaves empty.
fn evict_one(groundings: &mut Groundings) {
    let Some(db) = groundings.keys().next().cloned() else { return };
    let questions = groundings.get_mut(&db).expect("the key was just read");
    let question = questions.keys().next().cloned().expect("no empty map is kept");
    questions.remove(&question);
    if questions.is_empty() {
        groundings.remove(&db);
    }
}

/// [`retrieve_values`] behind a bounded, thread-safe memo of grounded
/// positions (see the module docs). It keeps one grounding per database
/// name and question text, at most [`MAX_RETRIEVED_QUESTIONS`]: a new
/// question reaching a full memo drops an arbitrary one, and a question
/// asked of another state of its database replaces its grounding. Two
/// threads that miss on one question at once both scan, and store equal
/// groundings.
#[derive(Debug, Default)]
pub struct ValueRetriever {
    groundings: RwLock<Groundings>,
}

impl ValueRetriever {
    /// An empty retriever.
    pub fn new() -> Self {
        ValueRetriever::default()
    }

    /// What [`retrieve_values`] returns for `question` on `db`. A question
    /// seen before on the same table states is answered from its stored
    /// positions, without a scan. Every update leaves the maps whole, so a
    /// guard a panicking thread left behind is safe to take.
    pub fn retrieve(&self, question: &str, db: &Database) -> Vec<GroundedColumn> {
        let fingerprint = db.dependency_fingerprint(db.schema().tables.iter().map(|t| &t.name));
        {
            let groundings = self.groundings.read().unwrap_or_else(PoisonError::into_inner);
            let stored = groundings.get(db.name()).and_then(|q| q.get(question));
            if let Some(grounding) = stored.filter(|g| g.fingerprint == fingerprint) {
                return grounded_columns(&grounding.positions, db);
            }
        }
        let positions = ground(question, db);
        let columns = grounded_columns(&positions, db);
        let grounding = Grounding { fingerprint, positions: positions.into() };
        let mut groundings = self.groundings.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(stored) = groundings.get_mut(db.name()).and_then(|q| q.get_mut(question)) {
            *stored = grounding;
            return columns;
        }
        if count(&groundings) >= MAX_RETRIEVED_QUESTIONS {
            evict_one(&mut groundings);
        }
        groundings
            .entry(db.name().to_string())
            .or_default()
            .insert(question.to_string(), grounding);
        columns
    }

    /// Number of groundings kept: one per database name and question.
    pub fn len(&self) -> usize {
        count(&self.groundings.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// True when no grounding is kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
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

    /// [`retrieve_values`], and a retriever's first call and its second
    /// (a hit), each equal the oracle on every question of both corpora.
    #[test]
    fn matches_the_rescanning_oracle_on_every_corpus_question() {
        let retriever = ValueRetriever::new();
        for bench in [build_bird(&CorpusConfig::default()), build_spider(&CorpusConfig::default())]
        {
            assert!(!bench.questions.is_empty());
            for q in &bench.questions {
                let db = bench.database(&q.db_id).unwrap();
                let expected = retrieve_values_by_rescanning(&q.text, db);
                let why = format!("{} question {}: {:?}", bench.name, q.id, q.text);
                assert_eq!(retrieve_values(&q.text, db), expected, "{why}");
                assert_eq!(retriever.retrieve(&q.text, db), expected, "first call, {why}");
                assert_eq!(retriever.retrieve(&q.text, db), expected, "second call, {why}");
            }
        }
    }

    #[test]
    fn a_retriever_holds_at_most_its_bound() {
        let bench = build_bird(&CorpusConfig::tiny());
        let db = bench.database("financial").unwrap();
        let retriever = ValueRetriever::new();
        for i in 0..1_100 {
            let question = format!("How many clients of branch {i} bank in Jesenik?");
            assert_eq!(retriever.retrieve(&question, db), retrieve_values(&question, db));
            assert!(retriever.len() <= MAX_RETRIEVED_QUESTIONS);
        }
        assert_eq!(retriever.len(), MAX_RETRIEVED_QUESTIONS);
    }

    #[test]
    fn racing_calls_on_a_fresh_retriever_all_return_the_oracle() {
        let bench = build_bird(&CorpusConfig::tiny());
        let db = bench.database("financial").unwrap();
        let question = "How many clients opened accounts in the Jesenik branch?";
        let expected = retrieve_values_by_rescanning(question, db);
        assert!(!expected.is_empty());
        let retriever = ValueRetriever::new();
        let start = std::sync::Barrier::new(8);
        let answers: Vec<Vec<GroundedColumn>> = std::thread::scope(|scope| {
            let calls: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        retriever.retrieve(question, db)
                    })
                })
                .collect();
            calls.into_iter().map(|c| c.join().unwrap()).collect()
        });
        assert!(answers.iter().all(|a| *a == expected), "{answers:?}");
        assert_eq!(retriever.len(), 1);
        assert_eq!(retriever.retrieve(question, db), expected);
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
    /// and inherited by the copy-on-write clone, keeps its old answer; so
    /// does one retriever asked of both snapshots in turn.
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
        let retriever = ValueRetriever::new();
        let old_answer = retrieve_values(question, &db);
        assert!(old_answer.iter().all(|g| g.values.iter().all(|v| v != "Zlatohorsk")));
        assert_eq!(retriever.retrieve(question, &db), old_answer);

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
        for _ in 0..2 {
            assert_eq!(retriever.retrieve(question, &next), new_answer);
            assert_eq!(retriever.retrieve(question, &db), old_answer);
        }
        assert_eq!(retriever.len(), 1, "one grounding per database name and question");
    }
}
