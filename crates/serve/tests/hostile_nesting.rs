//! Deeply nested SQL fails with an error instead of aborting the process.
//!
//! The engine recurses along the statement tree when it parses, plans,
//! evaluates and drops a statement, so without a bound a few kilobytes of
//! SQL overflow a 2 MiB worker stack — and a stack overflow aborts the whole
//! server, it does not unwind. The parser rejects anything nested deeper
//! than [`MAX_NESTING`] levels. Every check here runs on a thread with the
//! 2 MiB stack `seed-serve` workers get, through every entry point a
//! statement can take: `parse_statement`, `execute`, `commit_statement` and
//! a pooled `Server::execute_batch`.

use std::sync::Arc;

use seed_serve::{ServeConfig, Server};
use seed_sqlengine::{
    commit_statement, execute, execute_statement, parse_statement, Database, SqlError, MAX_NESTING,
};

/// Runs `f` on a thread with a `seed-serve` worker's stack size.
fn on_worker_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new().stack_size(2 << 20).spawn(f).unwrap().join().unwrap();
}

fn db() -> Database {
    let mut db = Database::new("nesting");
    execute_statement(&mut db, "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)").unwrap();
    execute_statement(&mut db, "INSERT INTO t VALUES (0, 0), (1, 1)").unwrap();
    db
}

/// Each nesting shape as a SELECT nested `levels` deep.
fn shapes(levels: usize) -> Vec<(&'static str, String)> {
    let wrap = |open: &str, inner: &str, close: &str| {
        format!("{}{inner}{}", open.repeat(levels), close.repeat(levels))
    };
    vec![
        ("parentheses", format!("SELECT {} FROM t", wrap("(", "1", ")"))),
        ("plus chain", format!("SELECT 1{} FROM t", "+1".repeat(levels))),
        ("OR chain", format!("SELECT id FROM t WHERE id = 0{}", " OR id = 0".repeat(levels))),
        ("scalar subqueries", format!("SELECT {} FROM t", wrap("(SELECT ", "1", ")"))),
        ("derived tables", format!("SELECT * FROM {}", wrap("(SELECT * FROM ", "t", ") AS d"))),
        (
            "IN subqueries",
            format!(
                "SELECT id FROM t WHERE {}",
                wrap("id IN (SELECT id FROM t WHERE ", "id = 0", ")")
            ),
        ),
        (
            "EXISTS subqueries",
            format!(
                "SELECT id FROM t WHERE {}",
                wrap("EXISTS (SELECT 1 FROM t WHERE ", "1 = 1", ")")
            ),
        ),
        ("function calls", format!("SELECT {} FROM t", wrap("abs(", "1", ")"))),
        ("CASE", format!("SELECT {} FROM t", wrap("CASE WHEN 1 = 1 THEN ", "1", " END"))),
        ("NOT", format!("SELECT id FROM t WHERE {}id = 0", "NOT ".repeat(levels))),
    ]
}

fn assert_nesting_error<T: std::fmt::Debug>(what: &str, result: Result<T, SqlError>) {
    match result {
        Err(SqlError::Parse(msg)) => assert!(msg.contains("nested deeper"), "{what}: {msg}"),
        other => panic!("{what}: expected a nesting parse error, got {other:?}"),
    }
}

#[test]
fn every_shape_at_the_limit_executes() {
    on_worker_stack(|| {
        let db = db();
        for (name, sql) in shapes(MAX_NESTING) {
            let rs = execute(&db, &sql).unwrap_or_else(|e| panic!("{name}: {e:?}"));
            assert!(!rs.rows.is_empty(), "{name}");
        }
        let update = format!("UPDATE t SET v = 1{} WHERE id = 1", "+1".repeat(MAX_NESTING));
        let committed = commit_statement(&db, &update).unwrap();
        let rs = execute(&committed.db, "SELECT v FROM t WHERE id = 1").unwrap();
        assert_eq!(rs.rows[0][0], (MAX_NESTING as i64 + 1).into());
    });
}

#[test]
fn every_shape_past_the_limit_is_an_error_on_every_path() {
    on_worker_stack(|| {
        let db = db();
        for (name, sql) in shapes(MAX_NESTING + 1) {
            assert_nesting_error(name, parse_statement(&sql));
            assert_nesting_error(name, execute(&db, &sql));
        }
        let update = format!("UPDATE t SET v = 1{}", "+1".repeat(MAX_NESTING + 1));
        assert_nesting_error("UPDATE plus chain", commit_statement(&db, &update));
    });
}

#[test]
fn hostile_statements_fail_without_aborting() {
    on_worker_stack(|| {
        let db = db();
        // Each of these aborted the process before the limit: parentheses,
        // `+` and `OR` terms 1,000 deep overflow a 2 MiB stack in release,
        // and 100,000 `+` terms parsed, then overflowed dropping the tree.
        let hostile = [
            format!("SELECT {}1{} FROM t", "(".repeat(1_000), ")".repeat(1_000)),
            format!("SELECT 1{} FROM t", "+1".repeat(1_000)),
            format!("SELECT id FROM t WHERE id = 0{}", " OR id = 0".repeat(1_000)),
            format!("SELECT 1{} FROM t", "+1".repeat(100_000)),
        ];
        for sql in &hostile {
            assert_nesting_error("parse", parse_statement(sql));
            assert_nesting_error("execute", execute(&db, sql));
        }
        let update = format!("UPDATE t SET v = 1{}", "+1".repeat(1_000));
        assert_nesting_error("commit", commit_statement(&db, &update));

        let server = Server::new(Arc::new(db), ServeConfig::default().oversubscribed());
        let mut batch = hostile.to_vec();
        batch.push(update);
        batch.push("SELECT COUNT(*) FROM t".to_string());
        let mut outcomes = server.execute_batch(&batch);
        let healthy = outcomes.pop().unwrap().unwrap();
        assert_eq!(healthy.result.rows[0][0], 2.into(), "the server keeps serving");
        for outcome in outcomes {
            assert_nesting_error("execute_batch", outcome.map(|o| o.result.rows.len()));
        }
    });
}

#[test]
fn pooled_server_serves_every_shape_at_the_limit() {
    on_worker_stack(|| {
        let db = Arc::new(db());
        let server = Server::new(Arc::clone(&db), ServeConfig::default().oversubscribed());
        let batch: Vec<String> = shapes(MAX_NESTING).into_iter().map(|(_, sql)| sql).collect();
        for (sql, outcome) in batch.iter().zip(server.execute_batch(&batch)) {
            assert_eq!(outcome.unwrap().result.rows, execute(&db, sql).unwrap().rows);
        }
    });
}
