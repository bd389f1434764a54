//! The result memo: each distinct statement runs once per table state.
//!
//! [`ResultMemo::execute`] runs what [`crate::execute_with_stats_mode`] runs
//! under [`PlanMode::Columnar`] and keeps the outcome — the rows and their
//! [`ExecStats`], or the error — since both are deterministic per SQL text
//! and states of the tables it reads. An entry is keyed by the database
//! name, the SQL text, and the [`Database::dependency_fingerprint`] of the
//! tables the statement reads: their (name, generation) pairs. A table
//! generation is unique within the process ([`crate::Table::generation`]),
//! so two databases or corpora that share table names never share an
//! entry, a commit to a table the statement reads makes the new snapshot
//! miss, and a commit to any other table leaves it hitting. The old
//! snapshot keeps hitting too.
//!
//! A miss parses the statement and keeps the list of tables it reads, so a
//! hit only hashes those tables' generations and never parses. A statement
//! that fails to parse reads no table, so its error is keyed by the
//! database name and its text alone. A hit hands out the stored
//! [`Memoized`] by `Arc` and reports [`ExecStats::replayed`].
//!
//! The memo is `Sync` and holds at most [`MAX_PREPARED_STATEMENTS`]
//! entries: a new entry into a full memo drops an arbitrary one. Two
//! threads that miss on one key at once may both execute it; the first
//! outcome stored wins, and both hand it out.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::error::SqlResult;
use crate::exec::execute_parsed;
use crate::mutate::statement_dependencies;
use crate::plan::PlanMode;
use crate::prepared::MAX_PREPARED_STATEMENTS;
use crate::result::{ExecStats, ResultSet};
use crate::storage::Database;

/// One memoized execution: its rows and stats, and the execution-accuracy
/// fingerprint of its rows, computed on first use.
#[derive(Debug)]
pub struct Memoized {
    pub result: ResultSet,
    /// The stats of the execution that filled the entry.
    pub stats: ExecStats,
    fingerprint: OnceLock<Vec<String>>,
}

impl Memoized {
    /// [`ResultSet::fingerprint`] of the rows, computed once per entry.
    pub fn fingerprint(&self) -> &[String] {
        self.fingerprint.get_or_init(|| self.result.fingerprint())
    }

    /// [`ResultSet::result_eq`] of two entries: the same entry, or equal
    /// fingerprints.
    pub fn result_eq(&self, other: &Memoized) -> bool {
        std::ptr::eq(self, other) || self.fingerprint() == other.fingerprint()
    }
}

/// The outcomes of one statement against one database.
#[derive(Debug)]
struct Statement {
    /// The tables the statement reads ([`statement_dependencies`]), kept
    /// from the first parse; empty when it failed to parse.
    tables: Vec<String>,
    /// One outcome per dependency fingerprint of `tables`.
    outcomes: HashMap<u64, SqlResult<Arc<Memoized>>>,
}

#[derive(Debug, Default)]
struct Entries {
    /// Database name, then SQL text, so a lookup probes with borrowed
    /// `&str`s and allocates nothing.
    statements: HashMap<String, HashMap<String, Statement>>,
    /// Outcomes stored, over every statement.
    len: usize,
}

impl Entries {
    /// Drops an arbitrary outcome, and the maps it leaves empty.
    fn evict_one(&mut self) {
        let Some(db) = self.statements.keys().next().cloned() else { return };
        let statements = self.statements.get_mut(&db).expect("the key was just read");
        let sql = statements.keys().next().cloned().expect("no empty map is kept");
        let statement = statements.get_mut(&sql).expect("the key was just read");
        let fingerprint = *statement.outcomes.keys().next().expect("no empty map is kept");
        statement.outcomes.remove(&fingerprint);
        if statement.outcomes.is_empty() {
            statements.remove(&sql);
        }
        if statements.is_empty() {
            self.statements.remove(&db);
        }
        self.len -= 1;
    }
}

/// A bounded, thread-safe memo of statement outcomes per table state (see
/// the module docs).
#[derive(Debug, Default)]
pub struct ResultMemo {
    entries: RwLock<Entries>,
}

impl ResultMemo {
    /// An empty memo.
    pub fn new() -> Self {
        ResultMemo::default()
    }

    /// The outcome of `sql` against `db`, and the stats this call reports:
    /// a miss executes the statement and reports its stats, a hit returns
    /// the stored entry and reports [`ExecStats::replayed`]. Every hit on
    /// one entry returns the same `Arc`; a memoized error is returned again
    /// as it was.
    pub fn execute(&self, db: &Database, sql: &str) -> SqlResult<(Arc<Memoized>, ExecStats)> {
        if let Some(outcome) = self.lookup(db, sql) {
            return outcome.map(|m| {
                let stats = m.stats.replayed();
                (m, stats)
            });
        }
        let (tables, outcome) = match crate::parser::parse_statement(sql) {
            Err(e) => (Vec::new(), Err(e)),
            Ok(stmt) => {
                let outcome =
                    execute_parsed(db, &stmt, PlanMode::Columnar).map(|(result, stats)| {
                        Arc::new(Memoized { result, stats, fingerprint: OnceLock::new() })
                    });
                (statement_dependencies(&stmt), outcome)
            }
        };
        let fingerprint = db.dependency_fingerprint(&tables);
        self.store(db.name(), sql, tables, fingerprint, outcome).map(|m| {
            let stats = m.stats;
            (m, stats)
        })
    }

    fn lookup(&self, db: &Database, sql: &str) -> Option<SqlResult<Arc<Memoized>>> {
        let entries = self.entries.read();
        let statement = entries.statements.get(db.name())?.get(sql)?;
        statement.outcomes.get(&db.dependency_fingerprint(&statement.tables)).cloned()
    }

    /// Stores `outcome` unless another thread stored one for the same key
    /// first, and returns the stored one.
    fn store(
        &self,
        db_name: &str,
        sql: &str,
        tables: Vec<String>,
        fingerprint: u64,
        outcome: SqlResult<Arc<Memoized>>,
    ) -> SqlResult<Arc<Memoized>> {
        let mut entries = self.entries.write();
        let stored = entries.statements.get(db_name).and_then(|s| s.get(sql));
        if let Some(first) = stored.and_then(|s| s.outcomes.get(&fingerprint)) {
            return first.clone();
        }
        if entries.len >= MAX_PREPARED_STATEMENTS {
            entries.evict_one();
        }
        entries.len += 1;
        entries
            .statements
            .entry(db_name.to_string())
            .or_default()
            .entry(sql.to_string())
            .or_insert_with(|| Statement { tables, outcomes: HashMap::new() })
            .outcomes
            .insert(fingerprint, outcome.clone());
        outcome
    }

    /// Number of entries: one per statement and state of the tables it
    /// reads.
    pub fn len(&self) -> usize {
        self.entries.read().len
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SqlError;
    use crate::{commit_statement, execute_statement, execute_with_stats_mode, Value};

    fn db() -> Database {
        let mut d = Database::new("memo");
        for sql in [
            "CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER)",
            "CREATE TABLE u (id INTEGER PRIMARY KEY, name TEXT)",
            "INSERT INTO t VALUES (1, 10), (2, 10), (3, 20)",
            "INSERT INTO u VALUES (1, 'a')",
        ] {
            execute_statement(&mut d, sql).unwrap();
        }
        d
    }

    const SQL: &str = "SELECT grp, COUNT(*) FROM t WHERE id > (SELECT MIN(id) FROM t) GROUP BY grp";

    #[test]
    fn a_hit_returns_the_same_arc_and_replays_the_stats() {
        let d = db();
        let memo = ResultMemo::new();
        let (first, miss) = memo.execute(&d, SQL).unwrap();
        let (again, hit) = memo.execute(&d, SQL).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        let (direct, stats) = execute_with_stats_mode(&d, SQL, PlanMode::Columnar).unwrap();
        assert_eq!(first.result.rows, direct.rows);
        assert_eq!(miss, stats, "a miss reports its execution's stats");
        assert_eq!(first.stats, stats);
        assert!(miss.plan_cache_misses > 0);
        assert_eq!(hit, stats.replayed());
        assert_eq!(hit.plan_cache_misses, 0);
        assert_eq!(hit.plan_cache_hits, miss.plan_cache_hits + miss.plan_cache_misses);
        assert_eq!(hit.cost(), miss.cost());
        assert!(first.result_eq(&again));
        assert_eq!(first.fingerprint(), direct.fingerprint());
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn a_commit_to_a_read_table_misses_and_other_states_keep_hitting() {
        let old = db();
        let memo = ResultMemo::new();
        let (before, _) = memo.execute(&old, SQL).unwrap();
        // A commit to `u`, which the statement does not read, still hits.
        let other = commit_statement(&old, "INSERT INTO u VALUES (2, 'b')").unwrap().db;
        assert!(Arc::ptr_eq(&before, &memo.execute(&other, SQL).unwrap().0));
        assert_eq!(memo.len(), 1);
        // A commit to `t` misses on the new snapshot, with the new rows.
        let new = commit_statement(&other, "INSERT INTO t VALUES (4, 20)").unwrap().db;
        let (after, stats) = memo.execute(&new, SQL).unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
        assert!(stats.plan_cache_misses > 0, "a miss executes");
        assert_eq!(
            after.result.rows,
            execute_with_stats_mode(&new, SQL, PlanMode::Columnar).unwrap().0.rows
        );
        assert!(!before.result_eq(&after));
        assert_eq!(memo.len(), 2);
        // The old snapshot still hits its own entry.
        assert!(Arc::ptr_eq(&before, &memo.execute(&old, SQL).unwrap().0));
        assert!(Arc::ptr_eq(&after, &memo.execute(&new, SQL).unwrap().0));
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn databases_that_share_names_share_no_entry() {
        let (a, b) = (db(), db());
        let memo = ResultMemo::new();
        let sql = "SELECT COUNT(*) FROM t";
        let (from_a, _) = memo.execute(&a, sql).unwrap();
        let (from_b, _) = memo.execute(&b, sql).unwrap();
        assert!(!Arc::ptr_eq(&from_a, &from_b), "equal names, distinct table states");
        assert_eq!(memo.len(), 2);
        // A clone is the same table state.
        assert!(Arc::ptr_eq(&from_a, &memo.execute(&a.clone(), sql).unwrap().0));
    }

    #[test]
    fn errors_replay_as_they_were() {
        let d = db();
        let memo = ResultMemo::new();
        for sql in ["SELEKT nope", "SELECT nope FROM t", "SELECT 1 FROM missing"] {
            let first = memo.execute(&d, sql).unwrap_err();
            let direct = execute_with_stats_mode(&d, sql, PlanMode::Columnar).unwrap_err();
            assert_eq!(first, direct, "{sql}");
            assert_eq!(memo.execute(&d, sql).unwrap_err(), first, "{sql}");
        }
        assert_eq!(memo.len(), 3, "errors are memoized");
        // A parse error reads no table, so a commit leaves it hitting.
        let new = commit_statement(&d, "INSERT INTO t VALUES (9, 9)").unwrap().db;
        assert!(matches!(memo.execute(&new, "SELEKT nope"), Err(SqlError::Parse(_))));
        assert_eq!(memo.len(), 3);
        // Creating the missing table changes that statement's key.
        let created = commit_statement(&d, "CREATE TABLE missing (x INTEGER)").unwrap().db;
        assert!(memo.execute(&created, "SELECT 1 FROM missing").unwrap().0.result.is_empty());
        assert_eq!(memo.len(), 4);
    }

    #[test]
    fn the_memo_holds_at_most_its_bound() {
        let d = db();
        let memo = ResultMemo::new();
        for i in 0..1_100 {
            let sql = format!("SELECT id FROM t WHERE id > {i}");
            let (m, _) = memo.execute(&d, &sql).unwrap();
            assert_eq!(m.result.len(), 3usize.saturating_sub(i));
            assert!(memo.len() <= MAX_PREPARED_STATEMENTS);
        }
        assert_eq!(memo.len(), MAX_PREPARED_STATEMENTS);
        let count = "SELECT COUNT(*) FROM t";
        assert_eq!(memo.execute(&d, count).unwrap().0.result.rows[0][0], Value::Integer(3));
        assert_eq!(memo.len(), MAX_PREPARED_STATEMENTS);
    }

    #[test]
    fn racing_misses_hand_out_one_entry() {
        let d = db();
        let memo = ResultMemo::new();
        let start = std::sync::Barrier::new(4);
        let entries: Vec<Arc<Memoized>> = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        memo.execute(&d, SQL).unwrap().0
                    })
                })
                .collect();
            runs.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let stored = memo.execute(&d, SQL).unwrap().0;
        assert!(entries.iter().all(|e| Arc::ptr_eq(e, &stored)));
        assert_eq!(memo.len(), 1);
    }
}
