//! # seed-sqlengine
//!
//! An in-memory relational SQL engine used as the database substrate for the
//! SEED (ICDE 2025) reproduction. It plays the role SQLite plays in the
//! original paper: the BIRD/Spider-style databases are stored here, SEED's
//! sample-SQL probes run here, and the execution-accuracy / valid-efficiency
//! metrics compare results produced here.
//!
//! The engine supports the SQL subset that BIRD-style gold queries and
//! text-to-SQL systems emit: `SELECT` with joins (inner/left/comma), `WHERE`
//! with three-valued logic, `LIKE`, `IN` (lists and subqueries), `BETWEEN`,
//! `EXISTS`, scalar subqueries, `GROUP BY`/`HAVING` with the five standard
//! aggregates, `ORDER BY` (expressions, aliases, ordinals), `LIMIT`/`OFFSET`,
//! `CASE`, `CAST`, scalar functions, plus `CREATE TABLE` and `INSERT` for
//! building databases from SQL scripts.
//!
//! ## Execution architecture
//!
//! Queries execute in two layers, under one production executor and one
//! oracle ([`plan::PlanMode`]): `Columnar` (vectorized batches over the
//! physical plans; the `Default`, used by `execute`, serving and
//! evaluation) and `NestedLoop` (the original cross-product executor, kept
//! as the semantic oracle).
//!
//! 1. **Physical planning** ([`plan`]): each `SELECT`'s FROM/JOIN/WHERE
//!    section is lowered into a left-deep tree of physical operators —
//!    [`plan::PlanNode::SeqScan`] (with predicate pushdown and optional
//!    primary-key point lookup against the hash index every table maintains
//!    in [`storage`]), [`plan::PlanNode::SubqueryScan`],
//!    [`plan::PlanNode::HashJoin`] for equi-joins (including comma joins
//!    whose equality lives in `WHERE`), and
//!    [`plan::PlanNode::NestedLoopJoin`] as the fallback for everything
//!    else. Hash candidates are re-checked against the full `ON` predicate,
//!    and probes return matches in scan order, so optimized plans reproduce
//!    the legacy executor's rows *and their order* exactly.
//! 2. **Statement tail** ([`exec`], [`columnar`]): projection, grouping,
//!    `HAVING`, `DISTINCT`, `ORDER BY`, and `LIMIT`/`OFFSET`. `GROUP BY`,
//!    `DISTINCT`, and `DISTINCT` aggregates are hashed through
//!    [`storage::GroupKeyMap`] — a multi-column grouping-key map with exact
//!    [`value::Value::grouping_eq`] semantics (NULL groups with NULL,
//!    integers and reals cross-match, text is byte-exact, NaN falls back to
//!    a linear side path) — so grouping is O(rows) instead of
//!    O(rows × groups).
//!
//! Each top-level statement executes with a [`plan::PlanCache`] keyed by the
//! [`QueryId`]s the parser gives its `SELECT`s: subqueries (scalar, `IN`,
//! `EXISTS`, derived tables) are planned once, with hit/miss counts
//! reported in [`ExecStats`]. The parser also rejects statements nested
//! deeper than [`MAX_NESTING`] levels, so no input can overflow the stack.
//! Uncorrelated expression-position
//! subqueries execute once per statement and replay from a result cache;
//! correlated ones are *decorrelated* where provably sound
//! ([`mod@decorrelate`]) — rewritten into hash semi/anti/group joins whose
//! build side runs once and whose probes are O(1) per outer row — and fall
//! back to per-outer-row re-execution of the cached plan otherwise.
//!
//! [`plan::PlanMode::Columnar`] executes the physical plans over
//! [`chunk::DataChunk`] batches of typed [`chunk::ColumnArray`]s
//! (fixed [`chunk::BATCH_SIZE`], null bitmaps): scans hand out the chunks
//! every [`Table`] is stored as, filters run batch predicate kernels, hash joins build and probe
//! over column slices, and grouping hashes batch-evaluated key columns
//! through the same [`storage::GroupKeyMap`]. Anything the batch layer
//! cannot express (subqueries, outer references, nested aggregates,
//! non-equi joins) falls back to the row machinery per operator — only
//! that expression is row-evaluated while the rest of the statement stays
//! batched; each bridged expression counts in
//! [`ExecStats::columnar_fallbacks`], and each mixed statement in
//! [`ExecStats::columnar_partial`] (see the [`mod@columnar`] docs for the
//! exact semantics contract).
//!
//! [`plan::PlanMode::NestedLoop`] preserves the original cross-product
//! executor as a semantic reference (it never plans, caches or
//! decorrelates); `tests/engine_conformance.rs` asserts row-identical
//! results (`Columnar` vs `NestedLoop`) over every gold query of both
//! synthetic corpora, and
//! `crates/sqlengine/tests/decorrelation_props.rs` /
//! `crates/sqlengine/tests/columnar_props.rs` do the same over randomized
//! correlated and NULL/NaN/cross-typed workloads.
//!
//! ## Result memo
//!
//! Every [`Table`] state has a [`Table::generation`] unique within the
//! process: [`Table::new`] and every mutation draw one from a global
//! counter, and a clone keeps it. So the generations of the tables a
//! statement reads, with the database name and the SQL text, name one
//! outcome. [`ResultMemo`] keys by exactly that ([`mod@memo`]): it runs
//! each distinct statement once per table state and hands out the stored
//! rows and stats by `Arc`. Evaluation runs gold and predicted SQL through
//! one, and so do the C3 and CHESS candidate checks; a hit reports
//! [`ExecStats::replayed`], so EX, VES and every stats total are what
//! executing each statement through one shared plan cache reports.
//!
//! ## Value sample
//!
//! Each [`Table`] also keeps a lazily built [`ValueSample`]: for every text
//! column, the first [`VALUE_SAMPLE_SIZE`] distinct values, rendered and
//! lowercased once. Text-to-SQL value retrieval scores question words
//! against it instead of rescanning the rows per question. Clones of a
//! table state share it, and every mutation drops it.
//!
//! ## Cost model
//!
//! [`ExecStats`] is the deterministic stand-in for wall-clock time in the
//! VES metric: scanned rows and expression evaluations as before, plus
//! hash-build rows, hash probes, and index lookups, each weighted cheaper
//! than a scanned row (see the `ExecStats` weight constants). VES compares
//! per-question cost ratios, so the scale is free but determinism and
//! "less work ⇒ lower cost" are contractual.
//!
//! ```
//! use seed_sqlengine::{Database, execute, execute_statement};
//!
//! let mut db = Database::new("demo");
//! execute_statement(&mut db, "CREATE TABLE client (id INTEGER PRIMARY KEY, gender TEXT)").unwrap();
//! execute_statement(&mut db, "INSERT INTO client VALUES (1, 'F'), (2, 'M'), (3, 'F')").unwrap();
//! let rs = execute(&db, "SELECT COUNT(*) FROM client WHERE gender = 'F'").unwrap();
//! assert_eq!(rs.rows[0][0], seed_sqlengine::Value::Integer(2));
//! ```

pub mod ast;
pub mod chunk;
pub mod columnar;
pub mod decorrelate;
pub mod error;
pub mod exec;
pub mod explain;
pub mod functions;
pub mod memo;
pub mod mutate;
pub mod parser;
pub mod plan;
pub mod prepared;
pub mod profile;
pub mod result;
pub mod schema;
pub mod storage;
pub mod token;
pub mod value;

pub use ast::QueryId;
pub use chunk::{ColumnArray, DataChunk, NullBitmap, BATCH_SIZE};
pub use decorrelate::{decorrelate, DecorrelatedKind, DecorrelatedSubquery, SubqueryPosition};
pub use error::{SqlError, SqlResult};
pub use exec::{
    execute, execute_select_profiled, execute_select_with_plan_cache, execute_statement,
    execute_with_stats_mode,
};
pub use explain::{explain_analyze_text, explain_sql, explain_statement, explain_text};
pub use memo::{Memoized, ResultMemo};
pub use mutate::{
    commit_statement, commit_statement_rebuild, is_write_statement, statement_dependencies,
    CommitOutcome, MutationKind, PlannedMutation,
};
pub use parser::{parse_select, parse_statement, MAX_NESTING};
pub use plan::{
    is_uncorrelated, node_label, plan_select, PhysicalPlan, PlanCache, PlanMode, PlanNode,
};
pub use prepared::{PreparedStatement, SharedPlanCache, MAX_PREPARED_STATEMENTS};
pub use profile::{format_nanos, OpProfile, QueryProfile};
pub use result::{ExecStats, ResultSet};
pub use schema::{ColumnDef, DataType, DatabaseSchema, ForeignKey, TableSchema};
pub use storage::{
    ColumnSample, Database, EqKeyMap, GroupKeyMap, ProbeHits, Row, SampledValue, Table,
    ValueSample, VALUE_SAMPLE_SIZE,
};
pub use value::{like_match, ArithOp, LikePattern, Truth, Value};
