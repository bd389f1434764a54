//! Prepared statements and the process-wide shared plan cache.
//!
//! A [`crate::plan::PlanCache`] holds the plans of one parsed statement,
//! keyed by the [`crate::ast::QueryId`]s the parser gave its `SELECT`s. A
//! [`PreparedStatement`] pairs a parsed statement with that cache, so every
//! execution of it — on any thread — replays the plans earlier executions
//! stored; [`SharedPlanCache`] maps SQL text to prepared statements for a
//! whole process. Repeated statements (hot queries in a serving batch)
//! parse and plan exactly once per process instead of once per execution.
//! Where the result itself repeats — evaluation, a system's candidate
//! checks — [`crate::ResultMemo`] skips the execution too.
//! Decorrelation rewrites ride along: the analysis result and the rewritten
//! build statement's plan live in the same cache, so a decorrelated
//! statement is rewritten and its build side planned once per process too.
//!
//! ## Concurrency model
//!
//! The cache is `Sync` and lock-cheap by construction:
//!
//! * the statement registry is **sharded**: entries are striped across
//!   [`SharedPlanCache::shards`] independent [`parking_lot::RwLock`]ed maps
//!   by the hash of `(database name, SQL text)`, so concurrent workers
//!   looking up *different* statements never touch the same lock, and
//!   lookups of already-prepared statements take a per-stripe read lock
//!   only;
//! * a prepared statement's plan slots are write-once and filled through
//!   `&self`, so executions share them with no lock held while a query
//!   runs; executions racing on a fresh statement may both plan a slot,
//!   and the first plan stored wins;
//! * the registry holds at most [`MAX_PREPARED_STATEMENTS`] entries: a new
//!   statement reaching a full stripe drops one of that stripe's entries.
//!   An entry owns its AST and plans, and an execution in flight holds its
//!   own `Arc` of the entry, so eviction never pulls a plan from under a
//!   running query; an evicted statement is simply parsed again next time.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::ast::SelectStatement;
use crate::error::SqlResult;
use crate::exec::{execute_select_profiled, execute_select_with_plan_cache};
use crate::plan::{PlanCache, PlanMode};
use crate::profile::QueryProfile;
use crate::result::{ExecStats, ResultSet};
use crate::storage::Database;

/// A parsed SELECT plus the plans its executions have stored so far.
#[derive(Debug)]
pub struct PreparedStatement {
    sql: String,
    stmt: SelectStatement,
    /// Every base table the statement can read (lowercased, sorted,
    /// deduplicated; subqueries at any depth included), computed once at
    /// parse. This is the statement's data-dependency set — what
    /// version-keyed caches fingerprint via
    /// [`Database::dependency_fingerprint`].
    referenced_tables: Vec<String>,
    plans: PlanCache,
}

impl PreparedStatement {
    /// Parses `sql` into a statement with an empty plan cache.
    pub fn parse(sql: &str) -> SqlResult<Self> {
        let stmt = crate::parser::parse_select(sql)?;
        Ok(PreparedStatement {
            sql: sql.to_string(),
            referenced_tables: stmt.all_referenced_tables(),
            plans: PlanCache::new(stmt.query_count()),
            stmt,
        })
    }

    /// The original SQL text.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// Every base table the statement can read — lowercased, sorted,
    /// deduplicated, subqueries at any depth included. Computed once at
    /// parse, so serving layers can fingerprint a statement's data
    /// dependencies per execution without re-walking the AST.
    pub fn referenced_tables(&self) -> &[String] {
        &self.referenced_tables
    }

    /// The parsed statement.
    pub fn statement(&self) -> &SelectStatement {
        &self.stmt
    }

    /// Number of distinct statements (top-level, subqueries, decorrelation
    /// builds) planned by executions of this prepared statement so far.
    pub fn plans_cached(&self) -> usize {
        self.plans.len()
    }

    /// Executes against `db` under the production executor
    /// ([`PlanMode::Columnar`]), reusing every plan earlier executions of
    /// this prepared statement produced and storing any newly planned
    /// subqueries. Plan reuse shows up as `plan_cache_hits` in the
    /// returned [`ExecStats`]; the work counters (and therefore the VES cost)
    /// are identical to a fresh execution. The nested-loop oracle never
    /// plans, so it has no place here: run it through
    /// [`crate::execute_with_stats_mode`].
    pub fn execute(&self, db: &Database) -> SqlResult<(ResultSet, ExecStats)> {
        execute_select_with_plan_cache(db, &self.stmt, PlanMode::Columnar, &self.plans)
    }

    /// [`Self::execute`] plus a per-operator wall-clock [`QueryProfile`].
    /// Result rows and stats are bit-identical to an unprofiled execution;
    /// the serve layer runs every canonical execution through this so the
    /// slow-query log always has a profile to record.
    pub fn execute_profiled(
        &self,
        db: &Database,
    ) -> SqlResult<(ResultSet, ExecStats, QueryProfile)> {
        execute_select_profiled(db, &self.stmt, PlanMode::Columnar, &self.plans)
    }

    /// Static `EXPLAIN` rendering of this statement (plans but never
    /// executes; see [`crate::explain::explain_text`]).
    pub fn explain(&self, db: &Database) -> SqlResult<String> {
        crate::explain::explain_text(db, &self.stmt, PlanMode::Columnar)
    }
}

/// Stripe count used by [`SharedPlanCache::new`]. Sized so a serving worker
/// pool (default 4, commonly 8) sees more stripes than workers — two
/// workers preparing *different* statements virtually never contend.
const DEFAULT_PLAN_SHARDS: usize = 16;

/// Most prepared statements a [`SharedPlanCache`] holds, split evenly over
/// its stripes — the result cache's default cap. A long-lived server fed an
/// open-ended stream of distinct SQL keeps its plan memory bounded.
pub const MAX_PREPARED_STATEMENTS: usize = 1024;

/// One lock stripe of the registry. The map is two-level — database name,
/// then SQL text — so the hot lookup path can probe with borrowed `&str`s
/// and never allocates a key; only first-sight insertion owns strings.
type PlanShard = RwLock<HashMap<String, HashMap<String, Arc<PreparedStatement>>>>;

/// A process-wide plan cache: SQL text in, prepared statement (AST +
/// stored plans) out, shared safely across threads. The registry is
/// striped across independent locks (see [`SharedPlanCache::with_shards`])
/// so concurrent preparation of distinct statements is contention-free, and
/// bounded by [`MAX_PREPARED_STATEMENTS`].
///
/// Keys include the database *name* so one cache can serve a whole benchmark
/// (plans depend on schema metadata, which differs per database). Callers
/// must not feed two different databases with the same name through one
/// cache — within a `Benchmark` or a `seed-serve` server that cannot happen.
#[derive(Debug)]
pub struct SharedPlanCache {
    shards: Box<[PlanShard]>,
}

impl Default for SharedPlanCache {
    fn default() -> Self {
        SharedPlanCache::with_shards(DEFAULT_PLAN_SHARDS)
    }
}

impl SharedPlanCache {
    /// Creates an empty shared cache with the default stripe count.
    pub fn new() -> Self {
        SharedPlanCache::default()
    }

    /// Creates an empty shared cache striped across at least `shards`
    /// independent locks (rounded up to a power of two, minimum 1, at most
    /// [`MAX_PREPARED_STATEMENTS`]). Callers that know their worker count
    /// pass it here so no two workers are forced onto the same stripe by
    /// construction.
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.clamp(1, MAX_PREPARED_STATEMENTS).next_power_of_two();
        SharedPlanCache { shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect() }
    }

    /// Number of stripes the registry is spread across.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, db_name: &str, sql: &str) -> &PlanShard {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        db_name.hash(&mut hasher);
        sql.hash(&mut hasher);
        // The stripe count is a power of two, so masking is a uniform map.
        &self.shards[(hasher.finish() as usize) & (self.shards.len() - 1)]
    }

    /// Returns the prepared statement for `sql` against the named database,
    /// parsing it on first sight. Parse errors are not cached (a malformed
    /// statement re-reports its error each time, like the unprepared path).
    pub fn prepare(&self, db_name: &str, sql: &str) -> SqlResult<Arc<PreparedStatement>> {
        let shard = self.shard_for(db_name, sql);
        // Hot path: borrowed-key probe, no allocation per served statement.
        if let Some(entry) = shard.read().get(db_name).and_then(|stmts| stmts.get(sql)) {
            return Ok(Arc::clone(entry));
        }
        let prepared = Arc::new(PreparedStatement::parse(sql)?);
        let mut entries = shard.write();
        // Another thread may have prepared the same statement between the
        // read and write locks; keep the first entry so its stored plans
        // are not discarded.
        if let Some(entry) = entries.get(db_name).and_then(|stmts| stmts.get(sql)) {
            return Ok(Arc::clone(entry));
        }
        // A full stripe drops an arbitrary entry to make room.
        let stripe_cap = MAX_PREPARED_STATEMENTS / self.shards.len();
        if entries.values().map(HashMap::len).sum::<usize>() >= stripe_cap {
            if let Some(stmts) = entries.values_mut().find(|stmts| !stmts.is_empty()) {
                if let Some(victim) = stmts.keys().next().cloned() {
                    stmts.remove(&victim);
                }
            }
        }
        entries
            .entry(db_name.to_string())
            .or_default()
            .insert(sql.to_string(), Arc::clone(&prepared));
        Ok(prepared)
    }

    /// Parses (or reuses) and executes `sql` against `db`, sharing plans
    /// with every earlier and concurrent execution of the same statement.
    pub fn execute(&self, db: &Database, sql: &str) -> SqlResult<(ResultSet, ExecStats)> {
        self.prepare(db.name(), sql)?.execute(db)
    }

    /// Number of prepared statements currently cached, across all stripes.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().values().map(HashMap::len).sum::<usize>()).sum()
    }

    /// True when nothing has been prepared yet.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().values().all(HashMap::is_empty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType, TableSchema};
    use crate::value::Value;

    fn db() -> Database {
        let mut d = Database::new("prep");
        d.create_table(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Integer).primary_key(),
                ColumnDef::new("grp", DataType::Integer),
                ColumnDef::new("v", DataType::Real),
            ],
        ))
        .unwrap();
        for i in 0..40i64 {
            d.insert("t", vec![i.into(), (i % 4).into(), ((i * 7) as f64).into()]).unwrap();
        }
        d
    }

    #[test]
    fn repeated_statements_plan_once_across_executions() {
        let d = db();
        let cache = SharedPlanCache::new();
        let sql = "SELECT grp, COUNT(*) FROM t WHERE v > (SELECT AVG(v) FROM t) GROUP BY grp";
        let (rs1, stats1) = cache.execute(&d, sql).unwrap();
        let (rs2, stats2) = cache.execute(&d, sql).unwrap();
        assert_eq!(rs1.rows, rs2.rows, "prepared re-execution is byte-identical");
        assert!(stats1.plan_cache_misses >= 2, "first run plans top level + subquery");
        assert_eq!(stats2.plan_cache_misses, 0, "second run plans nothing");
        assert!(stats2.plan_cache_hits >= 2, "second run replays every plan");
        // Work counters (the VES cost basis) are identical either way.
        assert_eq!(stats1.rows_scanned, stats2.rows_scanned);
        assert_eq!(stats1.evaluations, stats2.evaluations);
        assert_eq!(stats1.cost(), stats2.cost());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn decorrelated_statements_share_rewrite_and_build_plan_across_executions() {
        let d = db();
        let cache = SharedPlanCache::new();
        // Genuinely correlated scalar aggregate: decorrelates into a group
        // join whose build statement has a plan slot of its own.
        let sql = "SELECT id FROM t AS outer_t \
                   WHERE v > (SELECT AVG(i.v) FROM t AS i WHERE i.grp = outer_t.grp)";
        let (rs1, stats1) = cache.execute(&d, sql).unwrap();
        let (rs2, stats2) = cache.execute(&d, sql).unwrap();
        assert_eq!(rs1.rows, rs2.rows);
        assert_eq!(stats1.decorrelated_subqueries, 1, "rewrite engages on first execution");
        assert_eq!(stats2.decorrelated_subqueries, 1, "build re-executes per execution");
        assert!(stats1.plan_cache_misses >= 2, "first run plans outer + build side");
        assert_eq!(
            stats2.plan_cache_misses, 0,
            "second run replays the outer and build plans from the shared cache"
        );
        assert_eq!(
            stats1.decorrelated_probes + stats1.decorrelated_memo_hits,
            stats2.decorrelated_probes + stats2.decorrelated_memo_hits,
            "probe traffic is deterministic across shared executions"
        );
        // Row identity against the never-decorrelating reference mode.
        let (legacy, _) =
            crate::exec::execute_with_stats_mode(&d, sql, PlanMode::NestedLoop).unwrap();
        assert_eq!(legacy.rows, rs1.rows);
    }

    #[test]
    fn repeated_prepared_executions_keep_two_plans() {
        // Fifty serial executions of a decorrelated statement replay the
        // same two plan slots: the outer statement and the build side.
        let d = db();
        let cache = SharedPlanCache::new();
        let sql = "SELECT id FROM t AS outer_t \
                   WHERE v > (SELECT AVG(i.v) FROM t AS i WHERE i.grp = outer_t.grp)";
        let prepared = cache.prepare(d.name(), sql).unwrap();
        let (first, _) = prepared.execute(&d).unwrap();
        for _ in 0..50 {
            let (rs, stats) = prepared.execute(&d).unwrap();
            assert_eq!(rs.rows, first.rows);
            assert_eq!(stats.plan_cache_misses, 0);
            assert_eq!(prepared.plans_cached(), 2, "outer statement + decorrelated build side");
        }
    }

    #[test]
    fn racing_first_executions_share_one_statement() {
        // Eight threads, more than a small host has cores, run the first
        // execution of one fresh prepared statement at once: every slot
        // may be planned by several of them, and the rows must still match
        // the oracle everywhere.
        let d = db();
        let sql = "SELECT o.id, (SELECT AVG(i.v) FROM t AS i WHERE i.grp = o.grp) AS avg_v \
                   FROM (SELECT id, grp FROM t WHERE v > 30) AS o \
                   WHERE o.grp IN (SELECT grp FROM t WHERE id < 3) ORDER BY o.id";
        let (oracle, _) =
            crate::exec::execute_with_stats_mode(&d, sql, PlanMode::NestedLoop).unwrap();
        assert!(!oracle.rows.is_empty());
        let prepared = PreparedStatement::parse(sql).unwrap();
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            let runs: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        prepared.execute(&d).unwrap().0.rows
                    })
                })
                .collect();
            for run in runs {
                assert_eq!(run.join().unwrap(), oracle.rows);
            }
        });
        let (rs, stats) = prepared.execute(&d).unwrap();
        assert_eq!(rs.rows, oracle.rows);
        assert_eq!(stats.plan_cache_misses, 0, "every slot was filled by the racing executions");
        assert!(stats.decorrelated_subqueries >= 1, "the correlated subquery is decorrelated");
    }

    #[test]
    fn prepared_columnar_executions_replay_plans_and_match_nested_loop() {
        let d = db();
        let cache = SharedPlanCache::new();
        let sql = "SELECT grp, COUNT(*), SUM(v) FROM t WHERE v > 10 GROUP BY grp ORDER BY grp";
        // The first execution plans; the second replays the cached plan.
        let (first, first_stats) = cache.execute(&d, sql).unwrap();
        let (col, col_stats) = cache.execute(&d, sql).unwrap();
        assert!(first_stats.plan_cache_misses >= 1, "first execution plans");
        assert_eq!(col_stats.plan_cache_misses, 0, "columnar replays the cached plan");
        assert!(col_stats.plan_cache_hits >= 1);
        assert!(col_stats.batches_built >= 1, "columnar execution moves batches");
        assert_eq!(first.rows, col.rows);
        // Row identity against the nested-loop oracle, which bypasses the cache.
        let (legacy, legacy_stats) =
            crate::exec::execute_with_stats_mode(&d, sql, PlanMode::NestedLoop).unwrap();
        assert_eq!(legacy.rows, col.rows, "modes must be row-identical");
        assert_eq!(legacy.columns, col.columns);
        assert_eq!(legacy_stats.batches_built, 0, "row execution does not move batches");
        // Re-running columnar is stat-deterministic.
        let (_, again) = cache.execute(&d, sql).unwrap();
        assert_eq!(again, col_stats);
    }

    #[test]
    fn statements_are_keyed_per_database_name() {
        let d = db();
        let mut d2 = Database::new("other");
        d2.create_table(TableSchema::new(
            "t",
            vec![ColumnDef::new("id", DataType::Integer).primary_key()],
        ))
        .unwrap();
        d2.insert("t", vec![1.into()]).unwrap();
        let cache = SharedPlanCache::new();
        let (a, _) = cache.execute(&d, "SELECT COUNT(*) FROM t").unwrap();
        let (b, _) = cache.execute(&d2, "SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(a.rows[0][0], Value::Integer(40));
        assert_eq!(b.rows[0][0], Value::Integer(1));
        assert_eq!(cache.len(), 2, "same SQL against different databases makes two entries");
    }

    #[test]
    fn striped_registry_counts_entries_across_all_shards() {
        let d = db();
        let cache = SharedPlanCache::with_shards(4);
        assert_eq!(cache.shards(), 4);
        // 32 distinct statements: with 4 stripes and a uniform hash they
        // cannot all land on one stripe, yet len() must still see them all.
        for i in 0..32 {
            cache.prepare(d.name(), &format!("SELECT id FROM t WHERE id > {i}")).unwrap();
        }
        assert_eq!(cache.len(), 32);
        assert!(!cache.is_empty());
        // Re-preparing is idempotent per stripe.
        cache.prepare(d.name(), "SELECT id FROM t WHERE id > 0").unwrap();
        assert_eq!(cache.len(), 32);
    }

    #[test]
    fn shard_count_rounds_up_to_a_power_of_two() {
        assert_eq!(SharedPlanCache::with_shards(0).shards(), 1);
        assert_eq!(SharedPlanCache::with_shards(3).shards(), 4);
        assert_eq!(SharedPlanCache::with_shards(16).shards(), 16);
    }

    #[test]
    fn parse_errors_surface_and_are_not_cached() {
        let d = db();
        let cache = SharedPlanCache::new();
        assert!(cache.execute(&d, "SELEKT nope").is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_executions_share_one_entry() {
        let d = std::sync::Arc::new(db());
        let cache = std::sync::Arc::new(SharedPlanCache::new());
        let sql = "SELECT grp, SUM(v) FROM t GROUP BY grp ORDER BY grp";
        let (reference, _) = cache.execute(&d, sql).unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let d = std::sync::Arc::clone(&d);
            let cache = std::sync::Arc::clone(&cache);
            let sql = sql.to_string();
            handles.push(std::thread::spawn(move || {
                let (rs, _) = cache.execute(&d, &sql).unwrap();
                rs.rows
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), reference.rows);
        }
        assert_eq!(cache.len(), 1);
    }
}
