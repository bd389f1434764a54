//! Hostile `LIKE` patterns answer in linear time on every path.
//!
//! A `LIKE` matcher that backtracks into every `%` takes exponential time:
//! `SELECT '<30 × a>' LIKE '%a%a…%a%b'` with 12 `%a` terms, 73 bytes of
//! SQL, took about 12 s that way, and each further term multiplies it. The
//! compiled matcher keeps a single backtrack point (the last `%`), so these
//! statements answer at once. Each repro checks the answer on every path a
//! statement can take: `execute` (the columnar executor), the nested-loop
//! oracle, `commit_statement` (`UPDATE … WHERE v LIKE …`) and a pooled
//! `Server::execute_batch`. A text matches `'%a' × n || '%b'` exactly when
//! it ends in `b` after at least `n` `a`s, so a run of `a`s never matches
//! and the same run followed by `b` does.

use std::sync::Arc;

use seed_serve::{ServeConfig, Server};
use seed_sqlengine::{
    commit_statement, execute, execute_statement, execute_with_stats_mode, Database, PlanMode,
    ResultSet, Value,
};

/// `n` `%a` terms and a final `%b`.
fn pattern(terms: usize) -> String {
    format!("{}%b", "%a".repeat(terms))
}

/// Row 0 holds `len` `a`s (no match); row 1 the same followed by `b`.
fn db(len: usize) -> Database {
    let mut db = Database::new("hostile_like");
    execute_statement(&mut db, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT, hit INTEGER)")
        .unwrap();
    let miss = "a".repeat(len);
    execute_statement(
        &mut db,
        &format!("INSERT INTO t VALUES (0, '{miss}', 0), (1, '{miss}b', 0)"),
    )
    .unwrap();
    db
}

fn ints(rs: &ResultSet) -> Vec<Vec<i64>> {
    rs.rows.iter().map(|r| r.iter().map(|v| v.as_i64().expect("integer cell")).collect()).collect()
}

/// Checks one repro on every path, returning nothing but assertions.
fn check_every_path(terms: usize, len: usize) {
    let p = pattern(terms);
    let db = db(len);
    let miss = "a".repeat(len);
    // Literal against literal, then a column against the literal pattern.
    let reads = [
        (format!("SELECT '{miss}' LIKE '{p}'"), vec![vec![0]]),
        (format!("SELECT '{miss}b' LIKE '{p}'"), vec![vec![1]]),
        (format!("SELECT id FROM t WHERE v LIKE '{p}'"), vec![vec![1]]),
        (format!("SELECT id FROM t WHERE v NOT LIKE '{p}'"), vec![vec![0]]),
    ];
    for (sql, want) in &reads {
        assert_eq!(&ints(&execute(&db, sql).unwrap()), want, "execute: {sql}");
        let (oracle, _) = execute_with_stats_mode(&db, sql, PlanMode::NestedLoop).unwrap();
        assert_eq!(&ints(&oracle), want, "nested loop: {sql}");
    }

    let update = format!("UPDATE t SET hit = 1 WHERE v LIKE '{p}'");
    let hits = "SELECT id FROM t WHERE hit = 1".to_string();
    let committed = commit_statement(&db, &update).unwrap();
    assert_eq!(committed.rows_affected, 1, "commit: {update}");
    assert_eq!(ints(&execute(&committed.db, &hits).unwrap()), vec![vec![1]]);

    let server = Server::new(Arc::new(db), ServeConfig::default().oversubscribed());
    let mut batch: Vec<String> = reads.iter().map(|(sql, _)| sql.clone()).collect();
    batch.push(update);
    batch.push(hits);
    let outcomes = server.execute_batch(&batch);
    for ((sql, want), outcome) in reads.iter().zip(&outcomes) {
        assert_eq!(&ints(&outcome.as_ref().unwrap().result), want, "execute_batch: {sql}");
    }
    let written = outcomes[reads.len()].as_ref().unwrap();
    assert_eq!(written.result.rows, vec![vec![Value::Integer(1)]], "execute_batch: the UPDATE");
    let after = outcomes[reads.len() + 1].as_ref().unwrap();
    assert_eq!(ints(&after.result), vec![vec![1]], "execute_batch reads its own write");
}

#[test]
fn twelve_percent_terms_over_thirty_characters() {
    check_every_path(12, 30);
}

#[test]
fn thirty_percent_terms_over_sixty_characters() {
    check_every_path(30, 60);
}
