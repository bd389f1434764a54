//! Differential property tests for the versioned copy-on-write commit path.
//!
//! Every property pits the production commit path (`commit_statement`:
//! clone-and-COW the touched table, maintain PK hash indexes and columnar
//! chunks *incrementally*, drop the value sample) against the naive reference
//! (`commit_statement_rebuild`: materialize the post-mutation rows and
//! rebuild a fresh database, every index built from scratch). The two share
//! one planning step, so any divergence is necessarily in the incremental
//! maintenance machinery.
//!
//! "Observably identical" is deliberately broad — after every randomized
//! program of interleaved INSERT/UPDATE/DELETE commits the suite compares:
//!
//! * rendered rows of every table (order included);
//! * primary-key hash-index probes for every key ever issued;
//! * the columnar chunk representation, row by row;
//! * the value sample of every table after every commit, built on the
//!   pre-commit snapshot first so that the copy-on-write clone inherits a
//!   built one: the touched table's must be rebuilt, every other table's
//!   shared (`Arc::ptr_eq`);
//! * query results of a battery in both plan modes;
//! * the snapshot version epoch and per-table dependency fingerprints.
//!
//! Pinned-snapshot isolation, COW granularity (`Arc::ptr_eq` witnesses) and
//! primary-key collisions (both paths refuse, nothing is published) are
//! covered by the `proptest!` properties below the oracle, and the chunk
//! layout at the 1,024-row boundaries by the property after them.

use std::sync::Arc;

use proptest::prelude::*;
use seed_sqlengine::{
    commit_statement, commit_statement_rebuild, execute_statement, execute_with_stats_mode,
    ColumnDef, DataChunk, DataType, Database, PlanMode, PreparedStatement, TableSchema, Value,
    ValueSample, BATCH_SIZE,
};

/// The tables of [`fresh_db`].
const TABLES: [&str; 2] = ["t1", "t2"];

/// Word list for text cells: multi-token values with shared tokens, so
/// equality predicates, joins and grouping match several rows.
const WORDS: &[&str] = &[
    "apple",
    "banana apple",
    "cherry",
    "delta cherry apple",
    "echo",
    "fox banana",
    "golf echo",
    "hotel echo fox",
    "india",
    "julia fox apple",
];

/// Two-table schema mirroring the columnar props suite: integer PK plus two
/// text columns, so PK probes, value samples, and chunked scans all engage.
fn fresh_db() -> Database {
    let mut db = Database::new("snap");
    for name in TABLES {
        db.create_table(TableSchema::new(
            name,
            vec![
                ColumnDef::new("id", DataType::Integer).primary_key(),
                ColumnDef::new("k", DataType::Text),
                ColumnDef::new("v", DataType::Text),
            ],
        ))
        .unwrap();
    }
    db
}

/// Decodes one program character into a mutation statement. Inserts mint
/// unique primary keys from `next_id`; updates and deletes predicate on ids
/// and words that the insert alphabet actually produces, so non-trivial row
/// sets match. Two opcodes carry subquery predicates (the commit planner
/// runs the full expression executor).
fn decode_op(c: char, step: usize, next_id: &mut i64) -> Option<String> {
    let word = |i: usize| WORDS[i % WORDS.len()];
    let sql = match c {
        '0'..='9' => {
            let d = c as usize - '0' as usize;
            let id = *next_id;
            *next_id += 1;
            format!("INSERT INTO t1 VALUES ({id}, '{}', '{}')", word(d), word(d + 3))
        }
        'u' => format!("UPDATE t1 SET k = v, v = k WHERE id > {}", step as i64 % 8),
        'U' => format!("UPDATE t2 SET v = 'touched {}' WHERE k = '{}'", step, word(step)),
        'm' => format!("UPDATE t1 SET v = k || ' more' WHERE v = '{}'", word(step + 3)),
        'd' => format!("DELETE FROM t1 WHERE id = {}", step as i64),
        'D' => format!("DELETE FROM t2 WHERE k = '{}'", word(step + 1)),
        // After the specific opcodes: 'd' is a delete, so t2 inserts use the
        // remaining letters of the range.
        'a'..='f' => {
            let d = c as usize - 'a' as usize;
            let id = *next_id;
            *next_id += 1;
            format!("INSERT INTO t2 VALUES ({id}, '{}', '{}')", word(d), word(d + 5))
        }
        'w' => "UPDATE t1 SET v = 'linked' WHERE id IN (SELECT id FROM t2)".to_string(),
        'W' => "DELETE FROM t2 WHERE EXISTS (SELECT 1 FROM t1 WHERE t1.id = t2.id)".to_string(),
        _ => return None,
    };
    Some(sql)
}

fn rendered(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    rows.iter().map(|r| r.iter().map(Value::render).collect()).collect()
}

/// Read-query battery run against both databases in both plan modes at
/// the end of every oracle case.
const QUERIES: &[&str] = &[
    "SELECT id, k, v FROM t1",
    "SELECT a.id, b.id, a.v FROM t1 AS a INNER JOIN t2 AS b ON a.k = b.k",
    "SELECT k, COUNT(*) FROM t1 GROUP BY k ORDER BY 2 DESC, 1",
    "SELECT id FROM t2 WHERE EXISTS (SELECT 1 FROM t1 WHERE t1.k = t2.k)",
];

/// The full observable-identity check between the incrementally maintained
/// database and the rebuilt reference.
fn assert_observably_identical(inc: &Database, reb: &Database, ids_issued: i64, ctx: &str) {
    assert_eq!(inc.version(), reb.version(), "version epoch diverged: {ctx}");
    assert_eq!(inc.table_names(), reb.table_names(), "table set diverged: {ctx}");
    for name in inc.table_names() {
        let (ti, tr) = (inc.table(&name).unwrap(), reb.table(&name).unwrap());
        // Rows, order included.
        assert_eq!(rendered(ti.rows()), rendered(tr.rows()), "rows diverged in {name}: {ctx}");
        // PK hash index: probe every id ever minted (hits *and* misses).
        for id in 0..ids_issued {
            let key = Value::Integer(id);
            let pi = ti.pk_lookup(&key).map(|h| h.as_slice().to_vec());
            let pr = tr.pk_lookup(&key).map(|h| h.as_slice().to_vec());
            assert_eq!(pi, pr, "pk probe {id} diverged in {name}: {ctx}");
        }
        // Columnar chunks: same chunking, same cells. The incremental path
        // restamps chunks against the post-commit generation, so this also
        // proves no stale chunk survives a commit.
        let (ci, cr) = (ti.columnar_chunks(), tr.columnar_chunks());
        assert_eq!(ci.len(), cr.len(), "chunk count diverged in {name}: {ctx}");
        for (a, b) in ci.iter().zip(cr) {
            assert_eq!(a.rows(), b.rows(), "chunk rows diverged in {name}: {ctx}");
            for i in 0..a.rows() {
                assert_eq!(
                    rendered(&[a.row(i)]),
                    rendered(&[b.row(i)]),
                    "chunk cell diverged in {name}: {ctx}"
                );
            }
        }
    }
    // Fingerprints are the cache keys downstream layers use; equal tables
    // must fingerprint equally or caches would miss spuriously — but only
    // relative to each database's own generation history, so compare
    // reflexively: the sentinel behaviour for unknown tables.
    let unknown = vec!["nope".to_string()];
    assert_eq!(inc.dependency_fingerprint(&unknown), reb.dependency_fingerprint(&unknown));
    // Query battery, both modes per database, then across databases.
    for sql in QUERIES {
        let mut per_db = Vec::new();
        for db in [inc, reb] {
            let mut per_mode = Vec::new();
            for mode in [PlanMode::Columnar, PlanMode::NestedLoop] {
                let (rs, _) = execute_with_stats_mode(db, sql, mode)
                    .unwrap_or_else(|e| panic!("{sql} failed ({mode:?}): {e} ({ctx})"));
                per_mode.push((rs.columns.clone(), rendered(&rs.rows)));
            }
            assert_eq!(per_mode[0], per_mode[1], "mode divergence on {sql}: {ctx}");
            per_db.push(per_mode.remove(0));
        }
        assert_eq!(per_db[0], per_db[1], "incremental vs rebuild on {sql}: {ctx}");
    }
}

/// Runs one randomized program through both commit paths, checking row
/// identity after every statement and full observable identity at the end.
fn run_oracle_case(program: &str, case: usize) {
    let mut inc = fresh_db();
    let mut reb = fresh_db();
    let mut next_id = 0i64;
    for (step, c) in program.chars().enumerate() {
        let Some(sql) = decode_op(c, step, &mut next_id) else { continue };
        let ctx = format!("case {case} step {step} ({sql}) program {program:?}");
        let samples_before: Vec<Arc<ValueSample>> =
            TABLES.iter().map(|name| inc.table(name).unwrap().value_sample().clone()).collect();
        let oi = commit_statement(&inc, &sql).unwrap_or_else(|e| panic!("inc: {e}: {ctx}"));
        let or = commit_statement_rebuild(&reb, &sql).unwrap_or_else(|e| panic!("reb: {e}: {ctx}"));
        assert_eq!(oi.rows_affected, or.rows_affected, "rows_affected diverged: {ctx}");
        assert_eq!(oi.kind, or.kind);
        assert_eq!(oi.table, or.table);
        assert_eq!(rendered(&oi.result.rows), rendered(&or.result.rows), "result diverged: {ctx}");
        inc = oi.db;
        reb = or.db;
        // Cheap per-step checks; the deep one runs once per case.
        for (name, before) in TABLES.iter().zip(&samples_before) {
            let (ti, tr) = (inc.table(name).unwrap(), reb.table(name).unwrap());
            assert_eq!(rendered(ti.rows()), rendered(tr.rows()), "rows diverged in {name}: {ctx}");
            let sample = ti.value_sample();
            assert_eq!(**sample, **tr.value_sample(), "value sample diverged in {name}: {ctx}");
            let touched = *name == oi.table && oi.rows_affected > 0;
            assert_eq!(
                Arc::ptr_eq(sample, before),
                !touched,
                "{name}'s value sample must be rebuilt iff the commit touched it: {ctx}"
            );
        }
    }
    assert_observably_identical(&inc, &reb, next_id, &format!("case {case} ({program:?})"));
}

/// The headline oracle: 1024 randomized interleavings of insert/update/
/// delete commits (including subquery-predicated mutations), incremental
/// maintenance vs full rebuild, observably identical at every step.
///
/// Driven by the proptest `Runner` directly rather than the `proptest!`
/// macro so the case count is explicit (the acceptance bar is ≥1000 cases)
/// and deterministic.
#[test]
fn incremental_commits_match_rebuild_oracle_on_1024_random_programs() {
    let mut runner = Runner::new("snapshot_cow_oracle");
    for case in 0..1024 {
        let program = runner.gen_string("[0-9a-fuUmdDwW .]{0,20}");
        run_oracle_case(&program, case);
    }
}

/// Degenerate programs the random alphabet reaches rarely: empty, all
/// no-op mutations, delete-everything, and update-everything-twice.
#[test]
fn oracle_holds_on_adversarial_fixed_programs() {
    for (i, program) in [
        "",
        "uuddUUDDwW",
        "012345678 9dddddddddd",
        "abcdefWWWW",
        "0a1b2c3d4e5fuUuUwwmm",
        "999999ddduuu",
    ]
    .iter()
    .enumerate()
    {
        run_oracle_case(program, 10_000 + i);
    }
}

proptest! {
    /// Pinned-snapshot isolation: a reader holding the pre-commit snapshot
    /// sees bit-identical results before and after any number of commits,
    /// while the post-commit snapshot reflects every mutation.
    #[test]
    fn pinned_snapshot_reads_are_immutable_across_commits(s in "[0-9a-fuUmdDwW .]{1,16}") {
        let mut db = fresh_db();
        let mut next_id = 0i64;
        // Seed some rows so the pin has something to show.
        for (step, c) in "0123ab".chars().enumerate() {
            let sql = decode_op(c, step, &mut next_id).unwrap();
            db = commit_statement(&db, &sql).unwrap().db;
        }
        let pin = Arc::new(db.clone());
        let pinned_version = pin.version();
        let before: Vec<_> = QUERIES
            .iter()
            .map(|sql| {
                let (rs, _) = execute_with_stats_mode(&pin, sql, PlanMode::Columnar).unwrap();
                (rs.columns, rendered(&rs.rows))
            })
            .collect();
        // Commit the whole random program against successive snapshots.
        for (step, c) in s.chars().enumerate() {
            let Some(sql) = decode_op(c, step, &mut next_id) else { continue };
            db = commit_statement(&db, &sql).unwrap().db;
        }
        // The pin is frozen: same version, same rows, same query results.
        prop_assert_eq!(pin.version(), pinned_version);
        for (sql, (cols, rows)) in QUERIES.iter().zip(&before) {
            let (rs, _) = execute_with_stats_mode(&pin, sql, PlanMode::Columnar).unwrap();
            prop_assert_eq!(&rs.columns, cols, "pinned headers moved on {}", sql);
            prop_assert_eq!(&rendered(&rs.rows), rows, "pinned rows moved on {}", sql);
        }
    }

    /// COW granularity and cache-key semantics per commit: the touched
    /// table is a fresh `Arc` with a flipped dependency fingerprint and a
    /// rebuilt value sample; every untouched table stays pointer-shared,
    /// value sample included, with an unchanged fingerprint
    /// (so version-keyed cache entries for untouched tables keep hitting
    /// across snapshots, while touched-table entries miss).
    #[test]
    fn commits_cow_only_the_touched_table(s in "[0-9a-fuUmdDwW]{1,12}") {
        let mut db = fresh_db();
        let mut next_id = 0i64;
        for (step, c) in "01ab23cd".chars().enumerate() {
            let sql = decode_op(c, step, &mut next_id).unwrap();
            db = commit_statement(&db, &sql).unwrap().db;
        }
        for (step, c) in s.chars().enumerate() {
            let Some(sql) = decode_op(c, step, &mut next_id) else { continue };
            let fp_before: Vec<(String, u64)> = db
                .table_names()
                .into_iter()
                .map(|n| {
                    let fp = db.dependency_fingerprint(std::slice::from_ref(&n));
                    (n, fp)
                })
                .collect();
            let outcome = commit_statement(&db, &sql).unwrap();
            let next = outcome.db;
            prop_assert_eq!(next.version(), db.version() + 1, "every commit bumps the epoch");
            for (name, fp) in fp_before {
                let shared = Arc::ptr_eq(
                    db.table_arc(&name).unwrap(),
                    next.table_arc(&name).unwrap(),
                );
                let sample_shared = Arc::ptr_eq(
                    db.table(&name).unwrap().value_sample(),
                    next.table(&name).unwrap().value_sample(),
                );
                let fp_after = next.dependency_fingerprint(std::slice::from_ref(&name));
                if name == outcome.table && outcome.rows_affected > 0 {
                    prop_assert!(!shared, "touched table {} must be COW-cloned ({})", name, sql);
                    prop_assert!(
                        !sample_shared,
                        "touched table {} must rebuild its value sample ({})", name, sql
                    );
                    prop_assert_ne!(
                        fp, fp_after,
                        "touched table {} must flip its fingerprint ({})", name, sql
                    );
                } else {
                    prop_assert!(shared, "untouched table {} must stay shared ({})", name, sql);
                    prop_assert!(
                        sample_shared,
                        "untouched table {} must share its value sample ({})", name, sql
                    );
                    prop_assert_eq!(
                        fp, fp_after,
                        "untouched table {} must keep its fingerprint ({})", name, sql
                    );
                }
            }
            db = next;
        }
    }

    /// Prepared-statement staleness regression: one prepared statement
    /// (stable AST, cached plans) executed in columnar mode against a
    /// snapshot, then against the post-commit snapshot, must serve fresh
    /// chunks — never panic, never replay the pre-commit table — while the
    /// old pin still answers with its original rows.
    #[test]
    fn prepared_statement_re_snapshots_across_commits(s in "[0-9uUmd]{1,10}") {
        let mut db = fresh_db();
        let mut next_id = 0i64;
        for (step, c) in "0123456789".chars().enumerate() {
            let sql = decode_op(c, step, &mut next_id).unwrap();
            db = commit_statement(&db, &sql).unwrap().db;
        }
        let stmt = PreparedStatement::parse("SELECT id, k, v FROM t1").unwrap();
        let pin = db.clone();
        let (before, _) = stmt.execute(&pin).unwrap();
        for (step, c) in s.chars().enumerate() {
            let Some(sql) = decode_op(c, step, &mut next_id) else { continue };
            db = commit_statement(&db, &sql).unwrap().db;
        }
        // Fresh snapshot: the cached statement re-executes against the new
        // chunks (a stale-generation replay would panic or show old rows).
        let (after, _) = stmt.execute(&db).unwrap();
        prop_assert_eq!(
            rendered(&after.rows),
            rendered(db.table("t1").unwrap().rows()),
            "prepared statement must see the post-commit table"
        );
        // Old pin: still served, still byte-identical.
        let (pinned, _) = stmt.execute(&pin).unwrap();
        prop_assert_eq!(rendered(&pinned.rows), rendered(&before.rows));
    }

    /// Primary-key collisions, on top of a random program. A statement that
    /// would leave two `sql_cmp`-equal keys in `t1` — an existing key, one
    /// key twice in one INSERT, numeric text equal to an integer key, an
    /// UPDATE onto another row's key, several rows updated onto one key —
    /// fails on the incremental path, on the rebuild oracle, and through
    /// `execute_statement`, and the snapshot stays as it was. Two rows
    /// swapping keys, or every row keeping its own, is no collision: both
    /// paths commit it and stay observably identical.
    #[test]
    fn primary_key_collisions_fail_on_both_paths_and_publish_nothing(
        s in "[0-9a-fuUmdDwW .]{0,16}",
        pick in "[0-9]{2}",
    ) {
        let mut db = fresh_db();
        let mut next_id = 0i64;
        for (step, c) in "012".chars().chain(s.chars()).enumerate() {
            let Some(sql) = decode_op(c, step, &mut next_id) else { continue };
            db = commit_statement(&db, &sql).unwrap().db;
        }
        while db.table("t1").unwrap().len() < 2 {
            let sql = format!("INSERT INTO t1 VALUES ({next_id}, 'apple', 'echo')");
            next_id += 1;
            db = commit_statement(&db, &sql).unwrap().db;
        }
        let ids: Vec<i64> = db
            .table("t1")
            .unwrap()
            .rows()
            .iter()
            .map(|r| r[0].as_i64().expect("integer key"))
            .collect();
        let digits: Vec<usize> = pick.chars().map(|c| c as usize - '0' as usize).collect();
        let a = ids[digits[0] % ids.len()];
        let b = ids[(digits[0] + 1 + digits[1] % (ids.len() - 1)) % ids.len()];
        let fresh = next_id;
        let collisions = [
            format!("INSERT INTO t1 VALUES ({a}, 'dup', 'dup')"),
            format!("INSERT INTO t1 VALUES ({fresh}, 'x', 'x'), ({fresh}, 'y', 'y')"),
            format!("INSERT INTO t1 VALUES ('{a}', 'text', 'text')"),
            format!("UPDATE t1 SET id = {b} WHERE id = {a}"),
            format!("UPDATE t1 SET id = {fresh}"),
        ];
        for sql in &collisions {
            prop_assert!(commit_statement(&db, sql).is_err(), "incremental accepted {}", sql);
            prop_assert!(commit_statement_rebuild(&db, sql).is_err(), "rebuild accepted {}", sql);
            let mut direct = db.clone();
            prop_assert!(execute_statement(&mut direct, sql).is_err(), "direct accepted {}", sql);
            prop_assert_eq!(direct.version(), db.version(), "failed {} bumped the epoch", sql);
            for name in TABLES {
                prop_assert!(
                    Arc::ptr_eq(direct.table_arc(name).unwrap(), db.table_arc(name).unwrap()),
                    "failed {} replaced table {}", sql, name
                );
            }
        }
        let allowed = [
            format!(
                "UPDATE t1 SET id = CASE WHEN id = {a} THEN {b} ELSE {a} END \
                 WHERE id = {a} OR id = {b}"
            ),
            "UPDATE t1 SET id = id".to_string(),
        ];
        for sql in &allowed {
            let inc = commit_statement(&db, sql).unwrap_or_else(|e| panic!("inc: {e}: {sql}"));
            let reb =
                commit_statement_rebuild(&db, sql).unwrap_or_else(|e| panic!("reb: {e}: {sql}"));
            prop_assert_eq!(inc.rows_affected, reb.rows_affected);
            assert_observably_identical(&inc.db, &reb.db, next_id, sql);
        }
    }
}

/// Asserts the storage layout of `db`'s table `t`: every chunk but the last
/// holds `BATCH_SIZE` rows and the last is not empty, and each chunk equals
/// `DataChunk::from_rows` of its own rows, storage class of every column
/// included — however the chunk was built (appends, a rebuilt chunk, a
/// re-sliced suffix). Returns the rendered rows.
fn assert_chunk_layout(db: &Database, ctx: &str) -> Vec<Vec<String>> {
    let t = db.table("t").unwrap();
    let chunks = t.columnar_chunks();
    let mut rows = Vec::new();
    for (k, chunk) in chunks.iter().enumerate() {
        if k + 1 < chunks.len() {
            assert_eq!(chunk.rows(), BATCH_SIZE, "chunk {k} of {}: {ctx}", chunks.len());
        } else {
            assert!((1..=BATCH_SIZE).contains(&chunk.rows()), "last chunk {k}: {ctx}");
        }
        let own: Vec<Vec<Value>> = (0..chunk.rows()).map(|i| chunk.row(i)).collect();
        let fresh = DataChunk::from_rows(chunk.width(), &own);
        for (c, (col, want)) in chunk.columns.iter().zip(&fresh.columns).enumerate() {
            assert_eq!(
                std::mem::discriminant(col),
                std::mem::discriminant(want),
                "class of column {c} in chunk {k}: {ctx}"
            );
        }
        assert_eq!(
            rendered(&own),
            rendered(&(0..chunk.rows()).map(|i| fresh.row(i)).collect::<Vec<_>>())
        );
        rows.extend(rendered(&own));
    }
    assert_eq!(rows.len(), t.len(), "{ctx}");
    rows
}

/// 2,100 rows: three chunks, the last partial. `v` is an integer or NULL,
/// `w` text, so a write of another class turns a column `Mixed`.
fn boundary_db() -> Database {
    let mut db = Database::new("layout");
    db.create_table(TableSchema::new(
        "t",
        vec![
            ColumnDef::new("id", DataType::Integer).primary_key(),
            ColumnDef::new("v", DataType::Integer),
            ColumnDef::new("w", DataType::Text),
        ],
    ))
    .unwrap();
    for i in 0..2100i64 {
        let v = if i % 7 == 0 { Value::Null } else { Value::Integer(i) };
        db.insert("t", vec![i.into(), v, format!("w{i}").into()]).unwrap();
    }
    db
}

/// Commits at rows 1,023, 1,024 and 1,025 (the last row of the first
/// chunk and the first two of the second) and at the last row, through the
/// snapshot commit (`commit_statement`), the in-place write
/// (`execute_statement`) and the rebuild oracle. After every commit each
/// path keeps the chunk layout of `assert_chunk_layout` and the same rows,
/// and a one-row UPDATE replaces only the chunk holding the row: every
/// other chunk stays `Arc::ptr_eq` with the parent snapshot's.
#[test]
fn commits_at_chunk_boundaries_keep_the_chunk_layout() {
    const SETS: &[&str] = &["v = 'text'", "v = NULL", "v = 2.5", "w = 7", "v = id, w = 'w'"];
    let start = boundary_db();
    assert_chunk_layout(&start, "start");
    let mut runner = Runner::new("chunk_boundary_commits");
    let mut next_id = 2100;
    for case in 0..24 {
        let program = runner.gen_string("[a-t]{1,8}");
        let (mut inc, mut reb, mut direct) = (start.clone(), start.clone(), start.clone());
        for (step, c) in program.chars().enumerate() {
            let op = c as usize - 'a' as usize;
            let len = inc.table("t").unwrap().len();
            let pos = [1023, 1024, 1025, len - 1][op / 5];
            let id = inc.table("t").unwrap().row(pos)[0].render();
            let sql = match op % 5 {
                0 => format!("DELETE FROM t WHERE id = {id}"),
                1 => {
                    next_id += 1;
                    format!("INSERT INTO t VALUES ({next_id}, 'new', NULL)")
                }
                k => format!("UPDATE t SET {} WHERE id = {id}", SETS[(k + step) % SETS.len()]),
            };
            let ctx = format!("case {case} step {step}: {sql} (row {pos})");
            let parent = direct.clone();
            let next = commit_statement(&inc, &sql).unwrap_or_else(|e| panic!("{e}: {ctx}")).db;
            reb = commit_statement_rebuild(&reb, &sql).unwrap_or_else(|e| panic!("{e}: {ctx}")).db;
            execute_statement(&mut direct, &sql).unwrap_or_else(|e| panic!("{e}: {ctx}"));
            let rows = assert_chunk_layout(&next, &ctx);
            assert_eq!(assert_chunk_layout(&reb, &ctx), rows, "rebuild diverged: {ctx}");
            assert_eq!(assert_chunk_layout(&direct, &ctx), rows, "in-place diverged: {ctx}");
            if sql.starts_with("UPDATE") {
                for (before, after) in [(&inc, &next), (&parent, &direct)] {
                    let (old, new) = (
                        before.table("t").unwrap().columnar_chunks(),
                        after.table("t").unwrap().columnar_chunks(),
                    );
                    assert_eq!(old.len(), new.len(), "{ctx}");
                    for (k, (a, b)) in old.iter().zip(new).enumerate() {
                        let shared = Arc::ptr_eq(a, b);
                        assert_eq!(
                            shared,
                            k != pos / BATCH_SIZE,
                            "chunk {k} shared: {shared}: {ctx}"
                        );
                    }
                }
            }
            inc = next;
        }
    }
}
