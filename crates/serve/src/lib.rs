//! # seed-serve
//!
//! A concurrent query-serving runtime for the SEED reproduction's SQL
//! engine: submit a batch of SQL statements (or a whole eval workload) and
//! get per-statement results back **in submission order**, executed by a
//! persistent worker pool against an `Arc`-shared, read-only
//! [`Database`] snapshot.
//!
//! ## Snapshot / write model
//!
//! The engine executes reads through `&Database` — no executor mutates
//! storage — so any number of worker threads may run queries against one
//! snapshot simultaneously. A [`Server`] holds the **currently published
//! snapshot** behind `RwLock<Arc<Database>>`; every read pins an `Arc` of
//! some snapshot for its duration, so nothing a reader touches can change
//! underneath it. Writes (`INSERT`/`UPDATE`/`DELETE`/`CREATE`) run through
//! the engine's copy-on-write commit path
//! ([`seed_sqlengine::commit_statement`]): one writer at a time (the commit
//! gate) clones the database — cheap, tables are `Arc`-shared — mutates
//! only the touched table's copy, and publishes the new snapshot
//! atomically. In-flight readers keep serving their pinned version;
//! publishes never block reads.
//!
//! [`Server::session`] opens a [`Session`] that **pins** the snapshot
//! current at open time: every read the session makes sees that one
//! version, regardless of concurrent commits, until the session itself
//! commits — its own writes re-pin it to the snapshot they published
//! (read-your-writes). Mixed batches are split into **read runs** —
//! consecutive reads served in parallel by the worker pool against the
//! snapshot current at run start — separated by writes, each committed
//! serially in submission order. That structure makes a mixed batch's
//! per-statement results and final snapshot identical at any worker count.
//!
//! ## Shared caches
//!
//! Both shared caches are **sharded by statement-text hash** into
//! independent lock stripes (at least as many stripes as workers), so two
//! workers serving *different* statements never contend on a lock — the
//! fix for the negative scaling the single-lock layout showed in
//! `BENCH_serve.json`.
//!
//! * **Plans** — one process-wide [`SharedPlanCache`] per server, striped
//!   internally: a repeated statement parses and plans once, then every
//!   execution (any worker, any session) replays the cached plan. Plans
//!   depend only on the schema, so they survive commits untouched. Reuse is
//!   visible as `plan_cache_hits` in each statement's [`ExecStats`]. The
//!   cache holds at most [`seed_sqlengine::MAX_PREPARED_STATEMENTS`]
//!   statements; past that, a new statement evicts one from its stripe.
//! * **Results** — a statement's result is a pure function of its text
//!   *and the versions of the tables it reads*. Entries are therefore
//!   keyed two-level: the statement's **dependency fingerprint**
//!   ([`seed_sqlengine::Database::dependency_fingerprint`] over its
//!   referenced tables' generations), then its text. A commit that touches
//!   a statement's tables changes the fingerprint — the old entry simply
//!   stops being probed — while entries for statements over *untouched*
//!   tables keep hitting across snapshots. With a non-zero
//!   [`ServeConfig::result_cache_cap`] (the default), each distinct
//!   (fingerprint, statement) pair *executes exactly once*: an **in-flight
//!   execution table** (one slot per stripe entry) makes concurrent
//!   submissions of the same statement block on the one canonical
//!   execution instead of racing it, then serves them its result. That
//!   makes `result_cache_hits` exact — `statements − distinct statements`
//!   at any worker count on a quiescent snapshot — not merely
//!   scheduling-dependently close. Each stripe is its own bounded LRU
//!   segment: at most `ceil(result_cache_cap / stripes)` (minimum 1)
//!   entries live per stripe, with least-recently-served eviction across
//!   all fingerprints (stale-fingerprint entries age out like any other
//!   cold entry), so a long-lived server's memory stays bounded and
//!   eviction scans stay per-stripe. In-flight slots are transient and
//!   never evicted.
//!
//! ### In-flight dedup state machine
//!
//! A stripe slot for a statement is either `Ready(result)` or
//! `InFlight(flight)`:
//!
//! ```text
//!   miss ──insert InFlight──▶ Running ──publish──▶ Done(Ok)  → slot becomes Ready
//!                                │  │
//!                                │  └──publish──▶ Done(Err) → slot removed (errors
//!                                │                            are never cached)
//!                                └──panic/unwind─▶ Abandoned → slot removed, waiters
//!                                                             retry admission
//! ```
//!
//! Waiters block on the flight's condvar; `Done(Ok)` waiters are served
//! the canonical entry and count as result-cache hits, `Done(Err)` waiters
//! get the same (deterministic) error, `Abandoned` waiters loop back and
//! re-attempt admission themselves.
//!
//! ## Worker pool
//!
//! [`Server::new`] spawns `min(workers, available_parallelism) − 1`
//! persistent threads (all `workers − 1` with
//! [`ServeConfig::oversubscribe`]) that park on a condvar between batches
//! (the calling thread is the final worker), and returns only once every
//! pool thread is parked, so [`Server::execute_batch`] pays no
//! thread-spawn or thread-startup cost per batch. Workers
//! pull statements off a shared atomic cursor — work stealing, not fixed
//! chunking — so a skewed batch (a few expensive statements among many
//! cheap ones) keeps every worker busy until the cursor is drained.
//! Results land in their submission slots, so output order never depends
//! on scheduling, and each worker accumulates its serving counters in a
//! thread-local [`struct@ExecStats`] tally merged into the server totals
//! once per batch, not once per statement.
//!
//! A batch likewise wakes at most `min(workers, statements,
//! available_parallelism)` workers — waking a parked thread the CPU
//! cannot run costs a futex round-trip plus two context switches per
//! batch and can only subtract throughput, which is exactly the "more
//! workers, less qps" regression this crate exists to avoid. When the
//! bound leaves a batch with a single runnable worker, the caller serves
//! it inline with no job-board traffic at all. The configured worker
//! count is the ceiling the same config reaches on bigger hardware; tests
//! that must drive the cross-thread machinery on any host opt into
//! [`ServeConfig::oversubscribe`].
//!
//! ## Determinism contract
//!
//! For a given snapshot and statement list, the returned rows, columns,
//! errors, and every cost-bearing work counter (`rows_scanned`,
//! `evaluations`, hash/index units — hence [`ExecStats::cost`]) are
//! byte-identical regardless of worker count, submission order of *other*
//! statements, or scheduling. With in-flight dedup, the aggregate
//! `result_cache_hits` counter is exact as well (`statements − distinct
//! statements`, whenever the distinct set fits the cache cap); only
//! per-statement `from_result_cache` flags — *which* submission became the
//! canonical execution — remain scheduling-dependent, and those are
//! excluded from `cost()`. The workspace determinism suite
//! (`tests/serve_determinism.rs`) pins this contract against both gold
//! corpora at 1, 2, and 8 workers.
//!
//! ## Observability
//!
//! Every server carries an always-on [`metrics::MetricsRegistry`]:
//! relaxed-atomic counters, gauges, and log-bucketed latency histograms
//! keyed by [`metrics::StatementClass`], read back as a consistent
//! [`metrics::MetricsSnapshot`] via [`Server::metrics_snapshot`] (or as
//! Prometheus-style text via [`Server::render_metrics`]). Canonical
//! executions additionally run under the engine's per-operator profiler
//! (bit-identical rows and [`struct@ExecStats`] to an unprofiled run), and
//! any execution at or above [`ServeConfig::slow_query_threshold_nanos`]
//! lands in a bounded **slow-query log** — the
//! [`ServeConfig::slow_query_log_cap`] worst statements with their SQL,
//! rendered plan, and per-operator profile ([`Server::slow_queries`]).
//! None of this feeds back into [`struct@ExecStats`] or its `cost()`:
//! wall-clock observations live strictly beside the deterministic
//! counters, never in them, so the determinism contract above is
//! unaffected.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::{Condvar, Mutex, RwLock};
use seed_sqlengine::{
    commit_statement, is_write_statement, Database, ExecStats, MutationKind, PreparedStatement,
    QueryProfile, ResultSet, SharedPlanCache, SqlError, SqlResult,
};

pub mod metrics;

pub use metrics::{
    ClassLatency, HistogramSnapshot, LatencyHistogram, MetricsRegistry, MetricsSnapshot,
    StatementClass,
};

/// Minimum number of result-cache stripes, so even low worker counts get
/// contention-free admission from concurrent sessions.
const MIN_RESULT_SHARDS: usize = 8;

/// Configuration for a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads used by [`Server::execute_batch`]. `1` serves
    /// strictly serially (no threads are spawned). `0` is treated as `1`
    /// everywhere — [`Server::new`] and batch admission both clamp, so a
    /// zero written via a struct literal can never reach the pool.
    pub workers: usize,
    /// Approximate maximum number of distinct statements the result cache
    /// holds. The cap is distributed over the cache's lock stripes: each
    /// stripe holds at most `ceil(result_cache_cap / stripes)` entries
    /// (minimum 1), evicting its least-recently-served entry on overflow —
    /// so the true bound is `stripes * ceil(result_cache_cap / stripes)`,
    /// i.e. within one entry per stripe of the configured cap. `0`
    /// disables result caching (and in-flight dedup) entirely, e.g. to
    /// measure raw execution throughput.
    pub result_cache_cap: usize,
    /// Allow more workers than the host has hardware threads. Off by
    /// default: a worker thread beyond `available_parallelism()` can never
    /// run concurrently with the others — it only adds thread-startup
    /// cost, a futex round-trip and two context switches per batch it is
    /// woken for, and scheduler pressure — so the pool spawns and wakes at
    /// most `available_parallelism()` workers. The configured count is
    /// still the ceiling the same config reaches on bigger hardware.
    /// Tests that need to drive the cross-thread batch machinery
    /// regardless of host size turn this on.
    pub oversubscribe: bool,
    /// Canonical executions whose measured wall-clock time reaches this
    /// many nanoseconds are recorded in the slow-query log (SQL text,
    /// rendered plan, per-operator profile). `0` records every canonical
    /// execution. Wall-clock observations never feed [`struct@ExecStats`]
    /// or its `cost()`, so this threshold cannot affect determinism.
    pub slow_query_threshold_nanos: u64,
    /// Maximum entries the slow-query log retains — the N worst statements
    /// by measured time, slowest first. `0` disables the log.
    pub slow_query_log_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            result_cache_cap: 1024,
            oversubscribe: false,
            // 50ms: far above anything the in-memory engine serves under
            // test, so the log is quiet by default; operators lower it.
            slow_query_threshold_nanos: 50_000_000,
            slow_query_log_cap: 16,
        }
    }
}

impl ServeConfig {
    /// A serial configuration (one worker), otherwise default.
    pub fn serial() -> Self {
        ServeConfig { workers: 1, ..Default::default() }
    }

    /// Same configuration with a different worker count.
    pub fn with_workers(self, workers: usize) -> Self {
        ServeConfig { workers: workers.max(1), ..self }
    }

    /// Same configuration with oversubscription allowed: batches may make
    /// all configured workers runnable even past the host's hardware
    /// threads. See [`ServeConfig::oversubscribe`].
    pub fn oversubscribed(self) -> Self {
        ServeConfig { oversubscribe: true, ..self }
    }

    /// Same configuration with a slow-query log keeping the `cap` worst
    /// statements at or above `threshold_nanos` measured nanoseconds.
    pub fn with_slow_query_log(self, threshold_nanos: u64, cap: usize) -> Self {
        ServeConfig { slow_query_threshold_nanos: threshold_nanos, slow_query_log_cap: cap, ..self }
    }

    /// The worker count the pool actually runs with: struct-literal zeros
    /// are clamped to serial here and at every admission point.
    fn effective_workers(&self) -> usize {
        self.workers.max(1)
    }
}

/// The outcome of one served statement.
#[derive(Debug, Clone)]
pub struct StatementOutcome {
    /// The rows, exactly as a direct `execute` would produce.
    pub result: ResultSet,
    /// Execution statistics. For a result-cache hit these are the cached
    /// execution's stats (the work the statement costs), keeping VES-style
    /// cost accounting independent of cache luck.
    pub stats: ExecStats,
    /// Whether the result came from the shared result cache or from
    /// waiting on the canonical in-flight execution. The aggregate count of
    /// these flags is deterministic (`statements − distinct statements`
    /// while the distinct set fits the cap); *which* submission executed is
    /// scheduling-dependent.
    pub from_result_cache: bool,
}

/// Aggregate serving counters, reported by [`Server::snapshot_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Statements served (cache hits included), across all sessions.
    pub statements: u64,
    /// Statements answered from the shared result cache or by a canonical
    /// in-flight execution. Exact under dedup: `statements − distinct
    /// statements` whenever the distinct set fits the cache cap.
    pub result_cache_hits: u64,
    /// Distinct statements cached in the shared plan cache (at most
    /// [`seed_sqlengine::MAX_PREPARED_STATEMENTS`]).
    pub prepared_statements: usize,
    /// Sum of every served statement's [`ExecStats`], merged without double
    /// counting via [`ExecStats::merge`].
    pub totals: ExecStats,
    /// Canonical executions recorded by the slow-query log so far (recorded,
    /// not retained — the log itself keeps only the worst
    /// [`ServeConfig::slow_query_log_cap`]). Timing-dependent by nature:
    /// never compared by the determinism suite, and never part of any
    /// cost accounting.
    pub slow_queries: u64,
}

/// One entry of the slow-query log: everything needed to understand a slow
/// statement after the fact without re-running it.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The statement text as submitted.
    pub sql: String,
    /// Measured wall-clock nanoseconds of the canonical execution.
    pub nanos: u64,
    /// The execution's deterministic [`ExecStats::cost`], for correlating
    /// measured time against modeled work.
    pub cost: f64,
    /// The statement's rendered physical plan (`EXPLAIN` text).
    pub plan: String,
    /// The per-operator wall-clock profile of the recorded execution.
    pub profile: String,
}

/// Bounded ring of the N worst canonical executions, sorted slowest first.
struct SlowQueryLog {
    threshold_nanos: u64,
    cap: usize,
    entries: Mutex<Vec<SlowQuery>>,
    recorded: AtomicU64,
}

impl SlowQueryLog {
    fn new(config: &ServeConfig) -> Self {
        SlowQueryLog {
            threshold_nanos: config.slow_query_threshold_nanos,
            cap: config.slow_query_log_cap,
            entries: Mutex::new(Vec::new()),
            recorded: AtomicU64::new(0),
        }
    }

    fn qualifies(&self, nanos: u64) -> bool {
        self.cap > 0 && nanos >= self.threshold_nanos
    }

    fn record(&self, q: SlowQuery) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock();
        let pos = entries.iter().position(|e| e.nanos < q.nanos).unwrap_or(entries.len());
        entries.insert(pos, q);
        entries.truncate(self.cap);
    }

    fn snapshot(&self) -> Vec<SlowQuery> {
        self.entries.lock().clone()
    }

    fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }
}

/// One cached statement result plus its recency stamp. The stamp is atomic
/// so cache *hits* (the hot path) bump recency under the stripe's read
/// lock; only insertions and evictions take the stripe's write lock.
struct CachedResult {
    result: ResultSet,
    stats: ExecStats,
    last_used: AtomicU64,
}

/// State of one canonical execution that concurrent duplicates wait on.
enum FlightState {
    /// The canonical execution is running.
    Running,
    /// The canonical execution finished; waiters share its outcome.
    Done(Result<Arc<CachedResult>, SqlError>),
    /// The canonical execution unwound without publishing; waiters must
    /// re-attempt admission themselves.
    Abandoned,
}

/// An in-flight canonical execution of one statement.
struct InFlight {
    state: Mutex<FlightState>,
    done: Condvar,
}

impl InFlight {
    fn new() -> Self {
        InFlight { state: Mutex::new(FlightState::Running), done: Condvar::new() }
    }

    /// Blocks until the canonical execution publishes or abandons.
    /// `None` means abandoned — the caller should retry admission.
    fn wait(&self) -> Option<Result<Arc<CachedResult>, SqlError>> {
        let mut state = self.state.lock();
        loop {
            match &*state {
                FlightState::Running => state = self.done.wait(state),
                FlightState::Done(outcome) => return Some(outcome.clone()),
                FlightState::Abandoned => return None,
            }
        }
    }

    fn publish(&self, outcome: Result<Arc<CachedResult>, SqlError>) {
        *self.state.lock() = FlightState::Done(outcome);
        self.done.notify_all();
    }

    fn abandon(&self) {
        *self.state.lock() = FlightState::Abandoned;
        self.done.notify_all();
    }
}

/// A stripe slot: either a cached result or the execution producing one.
enum Slot {
    Ready(Arc<CachedResult>),
    InFlight(Arc<InFlight>),
}

/// One lock stripe of the sharded result cache. The map is two-level —
/// dependency fingerprint (the versions of the tables the statement
/// reads), then SQL text — so the hot path probes with a borrowed `&str`
/// and a commit to a statement's tables retires its entries by changing
/// which fingerprint is probed, never by scanning.
struct ResultShard {
    slots: RwLock<HashMap<u64, HashMap<String, Slot>>>,
    /// Monotonic recency clock for this stripe's LRU.
    tick: AtomicU64,
}

impl ResultShard {
    /// Serves a cached entry, bumping its recency. Read-lock-only path.
    fn hit(&self, entry: &CachedResult) -> StatementOutcome {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        entry.last_used.store(tick, Ordering::Relaxed);
        StatementOutcome {
            result: entry.result.clone(),
            stats: entry.stats,
            from_result_cache: true,
        }
    }

    fn ready_len(&self) -> usize {
        self.slots
            .read()
            .values()
            .flat_map(HashMap::values)
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }
}

/// The sharded statement-result cache plus in-flight execution table.
struct ShardedResultCache {
    shards: Box<[ResultShard]>,
    /// Per-stripe LRU capacity; `0` means caching (and dedup) is off.
    stripe_cap: usize,
    evictions: AtomicU64,
}

impl ShardedResultCache {
    fn new(workers: usize, config: &ServeConfig) -> Self {
        let n = workers.max(MIN_RESULT_SHARDS).next_power_of_two();
        let cap = config.result_cache_cap;
        let stripe_cap = if cap == 0 { 0 } else { cap.div_ceil(n) };
        ShardedResultCache {
            shards: (0..n)
                .map(|_| ResultShard {
                    slots: RwLock::new(HashMap::new()),
                    tick: AtomicU64::new(0),
                })
                .collect(),
            stripe_cap,
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, sql: &str) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        sql.hash(&mut hasher);
        // Stripe count is a power of two, so masking maps uniformly.
        (hasher.finish() as usize) & (self.shards.len() - 1)
    }
}

/// Removes a still-in-flight slot and wakes its waiters if the canonical
/// execution unwinds (panic in the engine) before publishing. Disarmed on
/// the normal path.
struct FlightGuard<'a> {
    cache: &'a ShardedResultCache,
    shard: usize,
    vkey: u64,
    sql: &'a str,
    flight: &'a Arc<InFlight>,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let shard = &self.cache.shards[self.shard];
        let mut slots = shard.slots.write();
        if let Some(by_sql) = slots.get_mut(&self.vkey) {
            if let Some(Slot::InFlight(f)) = by_sql.get(self.sql) {
                if Arc::ptr_eq(f, self.flight) {
                    by_sql.remove(self.sql);
                }
            }
            if by_sql.is_empty() {
                slots.remove(&self.vkey);
            }
        }
        drop(slots);
        self.flight.abandon();
    }
}

/// Per-worker serving counters, accumulated lock-free during a batch and
/// folded into the server totals exactly once per worker per batch.
#[derive(Default)]
struct Tally {
    statements: u64,
    result_hits: u64,
    totals: ExecStats,
}

impl Tally {
    fn absorb(&mut self, outcome: &SqlResult<StatementOutcome>) {
        self.statements += 1;
        if let Ok(o) = outcome {
            if o.from_result_cache {
                self.result_hits += 1;
            }
            self.totals.merge(&o.stats);
        }
    }
}

/// Everything workers share: the published snapshot, both sharded caches,
/// and the aggregate counters. Lives behind `Arc` so the persistent pool
/// threads can hold it without borrowing the `Server`.
struct ServerCore {
    /// The currently published snapshot. Readers clone the `Arc` out (a
    /// refcount bump under a read lock) and serve from their pinned copy;
    /// the commit path swaps in the next snapshot under the write lock.
    snapshot: RwLock<Arc<Database>>,
    /// Write admission: one committing writer at a time, so commits
    /// serialize (each plans against the snapshot its predecessor
    /// published) without ever blocking readers.
    commit_gate: Mutex<()>,
    config: ServeConfig,
    plans: SharedPlanCache,
    results: ShardedResultCache,
    statements: AtomicU64,
    result_hits: AtomicU64,
    totals: Mutex<ExecStats>,
    metrics: MetricsRegistry,
    slow_log: SlowQueryLog,
}

impl ServerCore {
    /// Pins the currently published snapshot.
    fn snapshot(&self) -> Arc<Database> {
        Arc::clone(&self.snapshot.read())
    }

    /// Commits one mutation statement: plan against the latest snapshot,
    /// apply copy-on-write, publish the result. Serialized by the commit
    /// gate; never blocks readers (they keep their pinned snapshots).
    fn commit_one(&self, sql: &str) -> SqlResult<StatementOutcome> {
        let _gate = self.commit_gate.lock();
        let base = self.snapshot();
        let outcome = commit_statement(&base, sql)?;
        let version = outcome.db.version();
        let affected = outcome.rows_affected as u64;
        let (ins, upd, del) = match outcome.kind {
            MutationKind::Insert => (affected, 0, 0),
            MutationKind::Update => (0, affected, 0),
            MutationKind::Delete => (0, 0, affected),
            MutationKind::CreateTable => (0, 0, 0),
        };
        *self.snapshot.write() = Arc::new(outcome.db);
        self.metrics.record_commit(ins, upd, del, version);
        Ok(StatementOutcome {
            result: outcome.result,
            stats: ExecStats::default(),
            from_result_cache: false,
        })
    }
    /// Folds one worker's batch tally into the server aggregates — the
    /// only totals-lock acquisition a worker makes per batch.
    fn fold(&self, tally: Tally) {
        if tally.statements == 0 {
            return;
        }
        self.statements.fetch_add(tally.statements, Ordering::Relaxed);
        self.result_hits.fetch_add(tally.result_hits, Ordering::Relaxed);
        self.totals.lock().merge(&tally.totals);
    }

    /// Serves one statement against the pinned snapshot `db`, recording its
    /// latency (keyed by statement class), result-cache outcome, and — for
    /// canonical executions — the engine's plan/subquery cache counters
    /// into the metrics registry. Mutation statements route to the commit
    /// path (which always targets the *latest* snapshot, not `db`). Errors
    /// count as result-cache misses.
    fn serve_one(&self, db: &Arc<Database>, sql: &str) -> SqlResult<StatementOutcome> {
        let started = Instant::now();
        let outcome = if is_write_statement(sql) {
            self.commit_one(sql)
        } else {
            self.serve_uncounted(db, sql)
        };
        let nanos = started.elapsed().as_nanos() as u64;
        let hit = matches!(&outcome, Ok(o) if o.from_result_cache);
        self.metrics.record_statement(StatementClass::of(sql), nanos, hit);
        if let Ok(o) = &outcome {
            // Engine counters are billed once per canonical execution;
            // cache hits replay the canonical stats and must not double
            // count its planning work.
            if !o.from_result_cache {
                self.metrics.record_engine_caches(
                    o.stats.plan_cache_hits,
                    o.stats.plan_cache_misses,
                    o.stats.subquery_result_hits,
                    o.stats.subquery_result_misses,
                );
            }
        }
        outcome
    }

    /// Serves one read statement against the pinned snapshot `db` through
    /// the sharded caches and the in-flight dedup table. Pure with respect
    /// to the aggregate counters (the caller's tally absorbs the outcome).
    fn serve_uncounted(&self, db: &Arc<Database>, sql: &str) -> SqlResult<StatementOutcome> {
        if self.results.stripe_cap == 0 {
            // Caching (and dedup) off: the known-miss path does no cache
            // round-trips at all.
            let (result, stats) = self.plans.execute(db, sql)?;
            return Ok(StatementOutcome { result, stats, from_result_cache: false });
        }
        // The cache key's data-dependency half: the versions (generations)
        // of every table the statement reads, under the pinned snapshot.
        // Two executions sharing a vkey see identical table states, so a
        // cached result is valid for both even across different snapshots.
        let prepared = self.plans.prepare(db.name(), sql)?;
        let vkey = db.dependency_fingerprint(prepared.referenced_tables());
        let idx = self.results.shard_of(sql);
        let shard = &self.results.shards[idx];
        loop {
            // Fast path: per-stripe read lock only.
            let flight = match shard.slots.read().get(&vkey).and_then(|m| m.get(sql)) {
                Some(Slot::Ready(entry)) => return Ok(shard.hit(entry)),
                Some(Slot::InFlight(f)) => Some(Arc::clone(f)),
                None => None,
            };
            let flight = match flight {
                Some(f) => f,
                None => {
                    // Admission: one write lock decides the canonical
                    // executor among racing duplicates.
                    let mut slots = shard.slots.write();
                    match slots.get(&vkey).and_then(|m| m.get(sql)) {
                        Some(Slot::Ready(entry)) => {
                            let entry = Arc::clone(entry);
                            drop(slots);
                            return Ok(shard.hit(&entry));
                        }
                        Some(Slot::InFlight(f)) => Arc::clone(f),
                        None => {
                            let f = Arc::new(InFlight::new());
                            slots
                                .entry(vkey)
                                .or_default()
                                .insert(sql.to_string(), Slot::InFlight(Arc::clone(&f)));
                            drop(slots);
                            return self.run_canonical(db, &prepared, idx, vkey, sql, &f);
                        }
                    }
                }
            };
            let wait_started = Instant::now();
            let waited = flight.wait();
            self.metrics.record_dedup_wait(wait_started.elapsed().as_nanos() as u64);
            match waited {
                Some(Ok(entry)) => return Ok(shard.hit(&entry)),
                Some(Err(e)) => return Err(e),
                // Canonical execution unwound: retry admission.
                None => continue,
            }
        }
    }

    /// Runs the canonical execution this worker won admission for, then
    /// publishes the outcome to the stripe and to every waiter.
    fn run_canonical(
        &self,
        db: &Arc<Database>,
        prepared: &PreparedStatement,
        idx: usize,
        vkey: u64,
        sql: &str,
        flight: &Arc<InFlight>,
    ) -> SqlResult<StatementOutcome> {
        let mut guard =
            FlightGuard { cache: &self.results, shard: idx, vkey, sql, flight, armed: true };
        // Canonical executions run under the per-operator profiler: rows
        // and stats are bit-identical to an unprofiled run, and the profile
        // is what the slow-query log records.
        let executed = prepared.execute_profiled(db);
        let shard = &self.results.shards[idx];
        let published = match &executed {
            Ok((result, stats, _profile)) => {
                let entry = Arc::new(CachedResult {
                    result: result.clone(),
                    stats: *stats,
                    last_used: AtomicU64::new(shard.tick.fetch_add(1, Ordering::Relaxed) + 1),
                });
                let mut slots = shard.slots.write();
                // Reclaim the admission-time key so publishing a result does
                // not re-allocate the statement text.
                let key = slots
                    .get_mut(&vkey)
                    .and_then(|m| m.remove_entry(sql))
                    .map(|(key, _)| key)
                    .unwrap_or_else(|| sql.to_string());
                // Per-stripe LRU admission: evict the least-recently-served
                // ready entries — across every fingerprint, so entries keyed
                // by versions no one probes anymore age out like any other
                // cold entry — until the newcomer fits. In-flight slots are
                // never evicted. The O(stripe len) scans are bounded by the
                // stripe cap, not the whole cache.
                while slots
                    .values()
                    .flat_map(HashMap::values)
                    .filter(|s| matches!(s, Slot::Ready(_)))
                    .count()
                    >= self.results.stripe_cap
                {
                    let coldest = slots
                        .iter()
                        .flat_map(|(vk, m)| {
                            m.iter().filter_map(move |(k, s)| match s {
                                Slot::Ready(e) => {
                                    Some((*vk, k.clone(), e.last_used.load(Ordering::Relaxed)))
                                }
                                Slot::InFlight(_) => None,
                            })
                        })
                        .min_by_key(|(_, _, used)| *used)
                        .map(|(vk, k, _)| (vk, k))
                        .expect("stripe cap > 0, so a full stripe has a coldest ready entry");
                    if let Some(m) = slots.get_mut(&coldest.0) {
                        m.remove(&coldest.1);
                        if m.is_empty() {
                            slots.remove(&coldest.0);
                        }
                    }
                    self.results.evictions.fetch_add(1, Ordering::Relaxed);
                }
                slots.entry(vkey).or_default().insert(key, Slot::Ready(Arc::clone(&entry)));
                Ok(entry)
            }
            Err(e) => {
                // Errors are deterministic but never cached: remove the
                // slot so later submissions re-report through the engine.
                let mut slots = shard.slots.write();
                if let Some(m) = slots.get_mut(&vkey) {
                    m.remove(sql);
                    if m.is_empty() {
                        slots.remove(&vkey);
                    }
                }
                Err(e.clone())
            }
        };
        guard.armed = false;
        flight.publish(published);
        executed.map(|(result, stats, profile)| {
            self.note_slow(db, prepared, sql, &stats, &profile);
            StatementOutcome { result, stats, from_result_cache: false }
        })
    }

    /// Records a canonical execution in the slow-query log when its
    /// measured time reaches the configured threshold.
    fn note_slow(
        &self,
        db: &Arc<Database>,
        prepared: &PreparedStatement,
        sql: &str,
        stats: &ExecStats,
        profile: &QueryProfile,
    ) {
        if !self.slow_log.qualifies(profile.total_nanos) {
            return;
        }
        // Slow path only: re-rendering the plan replays the shared plan
        // cache, so no statement is ever re-planned for the log.
        let plan = prepared.explain(db).unwrap_or_else(|e| format!("(plan unavailable: {e})"));
        self.slow_log.record(SlowQuery {
            sql: sql.to_string(),
            nanos: profile.total_nanos,
            cost: stats.cost(),
            plan,
            profile: profile.render(),
        });
    }
}

/// One read run moving through the worker pool: statements in, outcome
/// slots out, a shared work-stealing cursor in between, all served against
/// one pinned snapshot.
struct BatchState {
    /// The snapshot every statement of this run executes against, pinned at
    /// run start. Workers serve from this `Arc`, so a commit publishing a
    /// newer snapshot mid-run cannot change what the run sees.
    db: Arc<Database>,
    stmts: Vec<String>,
    slots: Vec<Mutex<Option<SqlResult<StatementOutcome>>>>,
    /// Next unclaimed statement index — the work-stealing cursor.
    cursor: AtomicUsize,
    /// Statements fully served (outcome written, stats folded).
    completed: AtomicUsize,
    finished: Mutex<bool>,
    finished_cv: Condvar,
}

impl BatchState {
    fn new(db: Arc<Database>, stmts: Vec<String>) -> Self {
        let slots = stmts.iter().map(|_| Mutex::new(None)).collect();
        BatchState {
            db,
            stmts,
            slots,
            cursor: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            finished: Mutex::new(false),
            finished_cv: Condvar::new(),
        }
    }
}

/// Serves statements off the batch cursor until it drains, folding this
/// worker's tally exactly once, then signals completion if this worker
/// finished the last statement.
fn run_batch_tasks(core: &ServerCore, batch: &BatchState) {
    let n = batch.stmts.len();
    let mut tally = Tally::default();
    let mut served = 0usize;
    core.metrics.worker_started();
    loop {
        let i = batch.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let outcome = core.serve_one(&batch.db, &batch.stmts[i]);
        tally.absorb(&outcome);
        *batch.slots[i].lock() = Some(outcome);
        served += 1;
    }
    core.metrics.worker_finished();
    // Fold before counting completion: when `completed` reaches the batch
    // size, every statement's stats are already in the server totals.
    core.fold(tally);
    if served > 0 && batch.completed.fetch_add(served, Ordering::AcqRel) + served == n {
        *batch.finished.lock() = true;
        batch.finished_cv.notify_all();
    }
}

/// The job board persistent workers park on between batches.
#[derive(Default)]
struct JobBoard {
    /// Bumped once per published batch so each worker joins a batch at
    /// most once.
    generation: u64,
    batch: Option<Arc<BatchState>>,
    /// Workers that have reached their parking spot at least once.
    /// [`Server::new`] blocks on this so a freshly constructed server's
    /// pool is fully parked — the first batch pays wake-ups, never
    /// thread-startup CPU.
    ready: usize,
    shutdown: bool,
}

struct PoolShared {
    job: Mutex<JobBoard>,
    available: Condvar,
    /// Signals [`JobBoard::ready`] increments to the constructing thread.
    parked: Condvar,
}

fn worker_loop(core: Arc<ServerCore>, pool: Arc<PoolShared>) {
    let mut seen_generation = 0u64;
    let mut announced = false;
    loop {
        let batch = {
            let mut job = pool.job.lock();
            if !announced {
                // Startup handshake: tell `Server::new` this worker has
                // reached the board (under the same lock it parks with, so
                // the announcement and the park are atomic to observers).
                announced = true;
                job.ready += 1;
                pool.parked.notify_all();
            }
            loop {
                if job.shutdown {
                    return;
                }
                if job.generation != seen_generation {
                    if let Some(batch) = &job.batch {
                        seen_generation = job.generation;
                        break Arc::clone(batch);
                    }
                }
                job = pool.available.wait(job);
            }
        };
        run_batch_tasks(&core, &batch);
    }
}

/// A query server over one frozen database snapshot.
///
/// Construction spawns the persistent worker pool (`workers − 1` threads;
/// the thread calling [`Server::execute_batch`] is the final worker) and
/// returns only once every pool thread is parked, so batches pay
/// wake-ups — never thread spawns or leftover thread-startup work.
/// Dropping the server shuts the pool down and joins every thread.
pub struct Server {
    core: Arc<ServerCore>,
    pool: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    /// Hardware threads the host exposes, sampled once at construction.
    /// Bounds how many workers a batch makes runnable unless
    /// [`ServeConfig::oversubscribe`] is set.
    hardware: usize,
    /// Serializes batch publication: concurrent `execute_batch` callers
    /// take turns on the pool (each still executes correctly — the caller
    /// thread alone can drain its batch), rather than overwriting each
    /// other's job board entry.
    batch_gate: Mutex<()>,
}

impl Server {
    /// Creates a server over an initial snapshot. The server owns snapshot
    /// publication from here on: reads pin the currently published version,
    /// writes commit copy-on-write and publish the next one.
    pub fn new(db: Arc<Database>, config: ServeConfig) -> Self {
        let workers = config.effective_workers();
        let hardware = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        // Pool sizing follows the hardware: threads beyond
        // `available_parallelism` can never run concurrently, so they are
        // not spawned at all unless oversubscription is requested — the
        // configured count stays the ceiling the same config reaches on
        // bigger hardware.
        let spawned = if config.oversubscribe { workers } else { workers.min(hardware) };
        let initial_version = db.version();
        let core = Arc::new(ServerCore {
            snapshot: RwLock::new(db),
            commit_gate: Mutex::new(()),
            config,
            plans: SharedPlanCache::with_shards(workers.max(MIN_RESULT_SHARDS)),
            results: ShardedResultCache::new(workers, &config),
            statements: AtomicU64::new(0),
            result_hits: AtomicU64::new(0),
            totals: Mutex::new(ExecStats::default()),
            metrics: MetricsRegistry::new(),
            slow_log: SlowQueryLog::new(&config),
        });
        core.metrics.set_snapshot_version(initial_version);
        let pool = Arc::new(PoolShared {
            job: Mutex::new(JobBoard::default()),
            available: Condvar::new(),
            parked: Condvar::new(),
        });
        let handles: Vec<JoinHandle<()>> = (1..spawned)
            .map(|_| {
                let core = Arc::clone(&core);
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || worker_loop(core, pool))
            })
            .collect();
        // Wait for every pool thread to reach its parking spot: a returned
        // server has a fully parked pool, so the first batch pays wake-ups
        // rather than absorbing leftover thread-startup work.
        {
            let mut job = pool.job.lock();
            while job.ready < handles.len() {
                job = pool.parked.wait(job);
            }
        }
        Server { core, pool, workers: handles, hardware, batch_gate: Mutex::new(()) }
    }

    /// Cached statement results currently live (ready entries across all
    /// stripes; in-flight executions are not counted).
    pub fn result_cache_len(&self) -> usize {
        self.core.results.shards.iter().map(|s| s.ready_len()).sum()
    }

    /// Ready entries per stripe, for observability and bound checking.
    pub fn result_cache_shard_lens(&self) -> Vec<usize> {
        self.core.results.shards.iter().map(|s| s.ready_len()).collect()
    }

    /// Number of lock stripes the result cache is spread across (a power
    /// of two, at least the worker count).
    pub fn result_cache_shards(&self) -> usize {
        self.core.results.shards.len()
    }

    /// Maximum ready entries a single stripe holds before evicting
    /// (`ceil(result_cache_cap / stripes)`, minimum 1); `0` when result
    /// caching is disabled.
    pub fn result_cache_stripe_cap(&self) -> usize {
        self.core.results.stripe_cap
    }

    /// The stripe `sql` maps to — exposed so tests can construct
    /// same-stripe workloads deterministically.
    pub fn result_cache_shard_of(&self, sql: &str) -> usize {
        self.core.results.shard_of(sql)
    }

    /// Result-cache entries evicted under the per-stripe LRU cap so far.
    pub fn result_cache_evictions(&self) -> u64 {
        self.core.results.evictions.load(Ordering::Relaxed)
    }

    /// The currently published snapshot, pinned: the returned `Arc` keeps
    /// serving this exact version even as later commits publish newer ones.
    pub fn database(&self) -> Arc<Database> {
        self.core.snapshot()
    }

    /// The version of the currently published snapshot.
    pub fn snapshot_version(&self) -> u64 {
        self.core.snapshot().version()
    }

    /// The server configuration.
    pub fn config(&self) -> ServeConfig {
        self.core.config
    }

    /// Opens a session: a lightweight per-client handle that **pins** the
    /// currently published snapshot for its lifetime. Every read the
    /// session makes sees that one version regardless of concurrent
    /// commits; the session's own writes re-pin it to the snapshot they
    /// published (read-your-writes).
    pub fn session(&self) -> Session<'_> {
        Session { server: self, db: self.core.snapshot(), stats: ExecStats::default(), executed: 0 }
    }

    /// Serves one statement through the shared caches: reads against the
    /// currently published snapshot, writes through the commit path.
    pub fn execute(&self, sql: &str) -> SqlResult<StatementOutcome> {
        self.core.metrics.record_enqueue(1);
        let db = self.core.snapshot();
        let outcome = self.core.serve_one(&db, sql);
        let mut tally = Tally::default();
        tally.absorb(&outcome);
        self.core.fold(tally);
        outcome
    }

    /// Executes a batch, returning one outcome per statement **in
    /// submission order**. The batch is split into **read runs** —
    /// maximal stretches of consecutive reads, each served in parallel by
    /// the worker pool against the snapshot current at run start —
    /// separated by writes, each committed serially in submission order
    /// (and visible to every later statement of the batch). This structure
    /// makes a mixed batch's per-statement results and final snapshot
    /// identical at any worker count.
    pub fn execute_batch(&self, stmts: &[String]) -> Vec<SqlResult<StatementOutcome>> {
        self.batch_segmented(None, stmts)
    }

    /// The shared mixed-batch driver. With `pin` set (session batches) read
    /// runs execute against the caller's pinned snapshot and the pin
    /// advances past each of the caller's own commits; without it (server
    /// batches) each read run pins the latest published snapshot.
    fn batch_segmented(
        &self,
        mut pin: Option<&mut Arc<Database>>,
        stmts: &[String],
    ) -> Vec<SqlResult<StatementOutcome>> {
        if stmts.is_empty() {
            return Vec::new();
        }
        self.core.metrics.record_batch(stmts.len() as u64);
        let mut out = Vec::with_capacity(stmts.len());
        let mut i = 0;
        while i < stmts.len() {
            if is_write_statement(&stmts[i]) {
                let db = self.core.snapshot();
                let outcome = self.core.serve_one(&db, &stmts[i]);
                let mut tally = Tally::default();
                tally.absorb(&outcome);
                self.core.fold(tally);
                if let Some(p) = pin.as_deref_mut() {
                    // Read-your-writes: the session's pin advances to the
                    // snapshot its own commit just published.
                    *p = self.core.snapshot();
                }
                out.push(outcome);
                i += 1;
            } else {
                let end = stmts[i..]
                    .iter()
                    .position(|s| is_write_statement(s))
                    .map(|p| i + p)
                    .unwrap_or(stmts.len());
                let db = match pin.as_deref() {
                    Some(p) => Arc::clone(p),
                    None => self.core.snapshot(),
                };
                out.extend(self.run_read_segment(db, &stmts[i..end]));
                i = end;
            }
        }
        out
    }

    /// Serves one all-read run with the worker pool against one pinned
    /// snapshot. With more than one worker the run is published to the
    /// persistent pool and the calling thread joins in; all workers pull
    /// statements off a shared work-stealing cursor, so skewed runs stay
    /// balanced and the output order never depends on scheduling.
    fn run_read_segment(
        &self,
        db: Arc<Database>,
        stmts: &[String],
    ) -> Vec<SqlResult<StatementOutcome>> {
        if stmts.is_empty() {
            return Vec::new();
        }
        // Clamp at admission too: a `ServeConfig { workers: 0, .. }` built
        // via struct literal (bypassing `with_workers`) serves serially.
        let workers = self.core.config.effective_workers().min(stmts.len());
        // How many workers this batch actually makes runnable. Waking a
        // parked worker the CPU cannot run costs a futex round-trip plus
        // two context switches and can only slow the batch down, so the
        // fan-out is bounded by the hardware unless oversubscription is
        // explicitly requested. A fan-out of one is the serial path — the
        // caller alone, no job-board traffic at all.
        let fanout =
            if self.core.config.oversubscribe { workers } else { workers.min(self.hardware) };
        if fanout <= 1 || self.workers.is_empty() {
            let mut tally = Tally::default();
            self.core.metrics.worker_started();
            let outcomes: Vec<SqlResult<StatementOutcome>> = stmts
                .iter()
                .map(|sql| {
                    let outcome = self.core.serve_one(&db, sql);
                    tally.absorb(&outcome);
                    outcome
                })
                .collect();
            self.core.metrics.worker_finished();
            self.core.fold(tally);
            return outcomes;
        }
        let _gate = self.batch_gate.lock();
        let batch = Arc::new(BatchState::new(db, stmts.to_vec()));
        {
            let mut job = self.pool.job.lock();
            job.generation += 1;
            job.batch = Some(Arc::clone(&batch));
        }
        // Wake exactly the helpers this batch can use; the rest of the
        // pool stays parked (each consecutive `notify_one` releases one
        // more parked worker).
        for _ in 0..(fanout - 1).min(self.workers.len()) {
            self.pool.available.notify_one();
        }
        // The calling thread is the final worker.
        run_batch_tasks(&self.core, &batch);
        {
            let mut finished = batch.finished.lock();
            while !*finished {
                finished = batch.finished_cv.wait(finished);
            }
        }
        // Retire the batch so parked workers cannot hold it alive.
        self.pool.job.lock().batch = None;
        batch
            .slots
            .iter()
            .map(|slot| slot.lock().take().expect("every batch slot is filled"))
            .collect()
    }

    /// Aggregate serving counters.
    pub fn snapshot_stats(&self) -> ServerStats {
        ServerStats {
            statements: self.core.statements.load(Ordering::Relaxed),
            result_cache_hits: self.core.result_hits.load(Ordering::Relaxed),
            prepared_statements: self.core.plans.len(),
            totals: *self.core.totals.lock(),
            slow_queries: self.core.slow_log.recorded(),
        }
    }

    /// A consistent point-in-time view of the serve metrics registry:
    /// throughput, cache hit/miss counters and ratios, dedup waits, queue
    /// depth, worker utilization, and per-class latency histograms
    /// (p50/p95/p99 via [`HistogramSnapshot::quantile`]).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.core.metrics.snapshot()
    }

    /// [`Server::metrics_snapshot`] rendered as Prometheus-style text.
    pub fn render_metrics(&self) -> String {
        self.core.metrics.snapshot().render_prometheus()
    }

    /// The worst canonical executions recorded so far, slowest first —
    /// at most [`ServeConfig::slow_query_log_cap`] entries, each with the
    /// statement's SQL, rendered plan, and per-operator profile.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.core.slow_log.snapshot()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.pool.job.lock().shutdown = true;
        self.pool.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A per-client handle over a [`Server`]: shares the server's caches,
/// accumulates its own totals, and **pins one snapshot** for its lifetime.
/// Reads see the pinned version no matter what concurrent sessions commit;
/// the session's own writes re-pin it to the snapshot they published, so a
/// session always reads its own writes.
pub struct Session<'s> {
    server: &'s Server,
    /// The snapshot this session serves reads from. Advanced only by the
    /// session's own commits.
    db: Arc<Database>,
    stats: ExecStats,
    executed: u64,
}

impl Session<'_> {
    /// Serves one statement — reads against the pinned snapshot, writes
    /// through the commit path (re-pinning on success) — folding its stats
    /// into the session totals.
    pub fn execute(&mut self, sql: &str) -> SqlResult<StatementOutcome> {
        self.server.core.metrics.record_enqueue(1);
        let write = is_write_statement(sql);
        let outcome = self.server.core.serve_one(&self.db, sql);
        if write && outcome.is_ok() {
            self.db = self.server.core.snapshot();
        }
        let mut tally = Tally::default();
        tally.absorb(&outcome);
        self.server.core.fold(tally);
        self.executed += 1;
        if let Ok(o) = &outcome {
            self.stats.merge(&o.stats);
        }
        outcome
    }

    /// Serves a batch with the server's worker pool — read runs against
    /// the session's pinned snapshot, writes committed serially in
    /// submission order with the pin advancing past each — folding every
    /// successful statement's stats into the session totals.
    pub fn execute_batch(&mut self, stmts: &[String]) -> Vec<SqlResult<StatementOutcome>> {
        let outcomes = self.server.batch_segmented(Some(&mut self.db), stmts);
        self.executed += outcomes.len() as u64;
        for o in outcomes.iter().flatten() {
            self.stats.merge(&o.stats);
        }
        outcomes
    }

    /// The snapshot this session is pinned to.
    pub fn database(&self) -> Arc<Database> {
        Arc::clone(&self.db)
    }

    /// The version of the session's pinned snapshot.
    pub fn snapshot_version(&self) -> u64 {
        self.db.version()
    }

    /// Statements this session has submitted.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The session's accumulated statistics.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seed_sqlengine::{execute, execute_statement, execute_with_stats_mode, PlanMode, Value};

    fn snapshot() -> Arc<Database> {
        let mut db = Database::new("serve_test");
        execute_statement(
            &mut db,
            "CREATE TABLE account (account_id INTEGER PRIMARY KEY, district_id INTEGER)",
        )
        .unwrap();
        execute_statement(
            &mut db,
            "CREATE TABLE loan (loan_id INTEGER PRIMARY KEY, account_id INTEGER, amount REAL)",
        )
        .unwrap();
        for i in 0..30i64 {
            execute_statement(&mut db, &format!("INSERT INTO account VALUES ({i}, {})", i % 5))
                .unwrap();
            execute_statement(
                &mut db,
                &format!("INSERT INTO loan VALUES ({i}, {}, {}.0)", i % 30, (i * 37) % 1000),
            )
            .unwrap();
        }
        Arc::new(db)
    }

    fn workload() -> Vec<String> {
        let stmts = [
            "SELECT COUNT(*) FROM loan",
            "SELECT account.district_id, SUM(loan.amount) FROM account \
             INNER JOIN loan ON account.account_id = loan.account_id \
             GROUP BY account.district_id ORDER BY account.district_id",
            "SELECT loan_id FROM loan WHERE amount > (SELECT AVG(amount) FROM loan) \
             ORDER BY loan_id",
            "SELECT DISTINCT district_id FROM account ORDER BY district_id",
        ];
        // Repeat the statements the way an eval run repeats gold queries.
        (0..3).flat_map(|_| stmts.iter().map(|s| s.to_string())).collect()
    }

    /// `count` distinct valid statements that all hash to the same result
    /// stripe of `server`.
    fn same_stripe_statements(server: &Server, count: usize) -> Vec<String> {
        let stripe = server.result_cache_shard_of("SELECT COUNT(*) FROM loan WHERE amount > 0");
        let mut out = Vec::new();
        let mut k = 0i64;
        while out.len() < count {
            let sql = format!("SELECT COUNT(*) FROM loan WHERE amount > {k}");
            if server.result_cache_shard_of(&sql) == stripe {
                out.push(sql);
            }
            k += 1;
        }
        out
    }

    #[test]
    fn batch_results_match_direct_execution_in_submission_order() {
        let db = snapshot();
        let stmts = workload();
        for workers in [1, 2, 8] {
            let server = Server::new(
                Arc::clone(&db),
                ServeConfig::default().with_workers(workers).oversubscribed(),
            );
            let outcomes = server.execute_batch(&stmts);
            assert_eq!(outcomes.len(), stmts.len());
            for (sql, outcome) in stmts.iter().zip(&outcomes) {
                let o = outcome.as_ref().unwrap();
                // Rows match the nested-loop oracle; costs match a direct
                // execution in the serving mode, since counters are
                // per-mode deterministic.
                let (direct, _) = execute_with_stats_mode(&db, sql, PlanMode::NestedLoop).unwrap();
                let (_, serving_stats) =
                    execute_with_stats_mode(&db, sql, PlanMode::serving()).unwrap();
                assert_eq!(o.result.rows, direct.rows, "workers={workers} sql={sql}");
                assert_eq!(o.result.columns, direct.columns);
                assert_eq!(o.stats.cost(), serving_stats.cost(), "workers={workers} sql={sql}");
            }
        }
    }

    #[test]
    fn repeated_statements_hit_the_result_cache() {
        let server = Server::new(snapshot(), ServeConfig::serial());
        let stmts = workload();
        server.execute_batch(&stmts);
        let stats = server.snapshot_stats();
        assert_eq!(stats.statements, stmts.len() as u64);
        assert_eq!(stats.prepared_statements, 4, "four distinct statements plan once each");
        assert_eq!(
            stats.result_cache_hits,
            stmts.len() as u64 - 4,
            "every repeat is a result-cache hit"
        );
    }

    #[test]
    fn result_cache_hits_are_exact_at_every_worker_count() {
        // In-flight dedup makes the hit counter scheduling-independent:
        // exactly one canonical execution per distinct statement, every
        // other submission a hit — no matter how the workers interleave.
        let db = snapshot();
        let stmts = workload();
        let distinct = 4u64;
        for workers in [1usize, 2, 4, 8] {
            for round in 0..3 {
                let server = Server::new(
                    Arc::clone(&db),
                    ServeConfig::default().with_workers(workers).oversubscribed(),
                );
                server.execute_batch(&stmts);
                let stats = server.snapshot_stats();
                assert_eq!(
                    stats.result_cache_hits,
                    stmts.len() as u64 - distinct,
                    "workers={workers} round={round}: hits must be exact, not approximate"
                );
            }
        }
    }

    #[test]
    fn concurrent_duplicates_share_one_canonical_execution() {
        let db = snapshot();
        let sql = "SELECT account.district_id, SUM(loan.amount) FROM account \
                   INNER JOIN loan ON account.account_id = loan.account_id \
                   GROUP BY account.district_id ORDER BY account.district_id";
        let batch: Vec<String> = (0..64).map(|_| sql.to_string()).collect();
        let server = Server::new(db, ServeConfig::default().with_workers(8).oversubscribed());
        let outcomes = server.execute_batch(&batch);
        let fresh = outcomes.iter().filter(|o| !o.as_ref().unwrap().from_result_cache).count();
        assert_eq!(fresh, 1, "exactly one submission executes; 63 are deduped");
        assert_eq!(server.snapshot_stats().result_cache_hits, 63);
        for o in &outcomes {
            let o = o.as_ref().unwrap();
            assert_eq!(o.result.rows, outcomes[0].as_ref().unwrap().result.rows);
            assert_eq!(o.stats, outcomes[0].as_ref().unwrap().stats);
        }
    }

    #[test]
    fn zero_workers_in_a_struct_literal_serves_serially() {
        // Regression: only `with_workers` used to clamp, so a zero passed
        // directly through the struct literal could reach the pool.
        let config = ServeConfig { workers: 0, ..ServeConfig::default() };
        let server = Server::new(snapshot(), config);
        let stmts = workload();
        let outcomes = server.execute_batch(&stmts);
        assert_eq!(outcomes.len(), stmts.len());
        for outcome in &outcomes {
            assert!(outcome.is_ok());
        }
        assert_eq!(server.snapshot_stats().statements, stmts.len() as u64);
        assert_eq!(
            server.execute("SELECT COUNT(*) FROM loan").unwrap().result.rows[0][0],
            Value::Integer(30)
        );
    }

    #[test]
    fn result_cache_can_be_disabled() {
        let config = ServeConfig { result_cache_cap: 0, ..ServeConfig::serial() };
        let server = Server::new(snapshot(), config);
        let stmts = workload();
        let outcomes = server.execute_batch(&stmts);
        assert!(outcomes.iter().all(|o| !o.as_ref().unwrap().from_result_cache));
        assert_eq!(server.snapshot_stats().result_cache_hits, 0);
        // Plans are still shared even when results are not.
        assert_eq!(server.snapshot_stats().prepared_statements, 4);
    }

    #[test]
    fn plan_cache_stays_bounded_under_distinct_statements() {
        let mut db = Database::new("bounded");
        execute_statement(&mut db, "CREATE TABLE t (id INTEGER PRIMARY KEY)").unwrap();
        for i in 0..20 {
            execute_statement(&mut db, &format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        let db = Arc::new(db);
        // No result cache, so every repeat goes through the plan cache.
        let config = ServeConfig { result_cache_cap: 0, ..ServeConfig::serial() };
        let server = Server::new(Arc::clone(&db), config);
        let cap = seed_sqlengine::MAX_PREPARED_STATEMENTS;
        let sql = |i: usize| format!("SELECT id FROM t WHERE id > {i}");
        for i in 0..cap + 500 {
            let served = server.execute(&sql(i)).unwrap();
            assert_eq!(served.result.rows, execute(&db, &sql(i)).unwrap().rows);
            assert!(server.snapshot_stats().prepared_statements <= cap);
        }
        // An evicted statement parses and plans again, with the same rows.
        let (i, rerun) = (0..cap + 500)
            .find_map(|i| {
                let served = server.execute(&sql(i)).unwrap();
                (served.stats.plan_cache_misses > 0).then_some((i, served))
            })
            .expect("500 statements past the cap evict some entry");
        assert_eq!(rerun.result.rows, execute(&db, &sql(i)).unwrap().rows);
        assert!(server.snapshot_stats().prepared_statements <= cap);
    }

    #[test]
    fn each_stripe_evicts_its_least_recently_served_entry() {
        // Stripe cap 2 (cap = 2 × stripes), three statements pinned to the
        // *same* stripe so the LRU order is exercised deterministically.
        let db = snapshot();
        let probe = Server::new(Arc::clone(&db), ServeConfig::serial());
        let shards = probe.result_cache_shards();
        let config = ServeConfig { result_cache_cap: 2 * shards, ..ServeConfig::serial() };
        let server = Server::new(db, config);
        assert_eq!(server.result_cache_stripe_cap(), 2);
        let stmts = same_stripe_statements(&server, 3);
        let (a, b, c) = (&stmts[0], &stmts[1], &stmts[2]);
        let stripe = server.result_cache_shard_of(a);
        server.execute(a).unwrap();
        server.execute(b).unwrap();
        assert_eq!(server.result_cache_shard_lens()[stripe], 2);
        assert_eq!(server.result_cache_evictions(), 0);
        // Touch `a` so `b` becomes the least-recently-served entry, then
        // admit `c`: the stripe stays at its cap and `b` is the eviction.
        assert!(server.execute(a).unwrap().from_result_cache);
        server.execute(c).unwrap();
        assert_eq!(server.result_cache_shard_lens()[stripe], 2, "stripe cap is never exceeded");
        assert_eq!(server.result_cache_evictions(), 1);
        assert!(server.execute(a).unwrap().from_result_cache, "recently served entry survives");
        assert!(server.execute(c).unwrap().from_result_cache, "newcomer was admitted");
        assert!(
            !server.execute(b).unwrap().from_result_cache,
            "evicted statement re-executes (and re-enters the stripe, evicting again)"
        );
        assert_eq!(server.result_cache_evictions(), 2);
        // Correctness is cache-independent: the re-executed statement
        // returns the same rows it did before eviction.
        let before = execute(&server.database(), b).unwrap();
        assert_eq!(server.execute(b).unwrap().result.rows, before.rows);
    }

    #[test]
    fn zero_result_cache_cap_disables_caching() {
        let config = ServeConfig { result_cache_cap: 0, ..ServeConfig::serial() };
        let server = Server::new(snapshot(), config);
        let sql = "SELECT COUNT(*) FROM loan";
        server.execute(sql).unwrap();
        assert!(!server.execute(sql).unwrap().from_result_cache);
        assert_eq!(server.result_cache_len(), 0);
        assert_eq!(server.result_cache_stripe_cap(), 0);
        assert_eq!(server.snapshot_stats().result_cache_hits, 0);
    }

    #[test]
    fn errors_keep_their_submission_slots() {
        let server =
            Server::new(snapshot(), ServeConfig::default().with_workers(2).oversubscribed());
        let stmts = vec![
            "SELECT COUNT(*) FROM loan".to_string(),
            "SELECT nope FROM nowhere".to_string(),
            "SELECT COUNT(*) FROM account".to_string(),
        ];
        let outcomes = server.execute_batch(&stmts);
        assert!(outcomes[0].is_ok());
        assert!(outcomes[1].is_err());
        let ok = outcomes[2].as_ref().unwrap();
        assert_eq!(ok.result.rows[0][0], Value::Integer(30));
    }

    #[test]
    fn erroring_statements_are_shared_in_flight_but_never_cached() {
        let server =
            Server::new(snapshot(), ServeConfig::default().with_workers(8).oversubscribed());
        let bad = "SELECT nope FROM nowhere".to_string();
        let batch: Vec<String> = (0..16).map(|_| bad.clone()).collect();
        let outcomes = server.execute_batch(&batch);
        let expected = server.execute(&bad).unwrap_err();
        for outcome in &outcomes {
            assert_eq!(outcome.as_ref().unwrap_err(), &expected, "waiters share the same error");
        }
        assert_eq!(server.result_cache_len(), 0, "errors never become ready entries");
        assert_eq!(server.snapshot_stats().result_cache_hits, 0);
    }

    #[test]
    fn metrics_registry_tracks_hits_latency_and_queue() {
        let server = Server::new(snapshot(), ServeConfig::serial());
        let stmts = workload();
        server.execute_batch(&stmts);
        let m = server.metrics_snapshot();
        assert_eq!(m.statements, stmts.len() as u64);
        assert_eq!(m.result_cache_hits, stmts.len() as u64 - 4);
        assert_eq!(m.result_cache_misses, 4);
        let expected_ratio = (stmts.len() as f64 - 4.0) / stmts.len() as f64;
        assert!((m.result_cache_hit_ratio() - expected_ratio).abs() < 1e-9);
        assert_eq!(m.queue_depth, 0, "every admitted statement was served");
        assert_eq!(m.workers_busy, 0, "no batch is draining");
        assert_eq!(m.batches, 1);
        assert_eq!(m.overall_latency().total(), stmts.len() as u64);
        // The workload holds COUNT(*), a SUM/GROUP BY join (aggregate wins
        // classification precedence), one subquery, and one plain DISTINCT
        // scan — each repeated three times.
        assert_eq!(m.class_latency(StatementClass::Aggregate).total(), 6);
        assert_eq!(m.class_latency(StatementClass::Subquery).total(), 3);
        assert_eq!(m.class_latency(StatementClass::Simple).total(), 3);
        assert_eq!(m.class_latency(StatementClass::Join).total(), 0);
        assert!(m.overall_latency().p99() >= m.overall_latency().p50());
        // Canonical executions billed the engine caches; the subquery
        // statement's uncorrelated (SELECT AVG...) runs through the
        // engine's subquery result cache.
        assert!(m.plan_cache_hits + m.plan_cache_misses > 0);
        assert!(m.worker_utilization() > 0.0);
        let text = server.render_metrics();
        assert!(text.contains(&format!("serve_statements_total {}", stmts.len())));
        assert!(text.contains("serve_statement_latency_nanoseconds_count{class=\"aggregate\"} 6"));
    }

    #[test]
    fn slow_query_log_keeps_the_worst_canonical_executions() {
        // Threshold 0 records every canonical execution; cap 2 retains the
        // two slowest. Cache hits never record.
        let config = ServeConfig::serial().with_slow_query_log(0, 2);
        let server = Server::new(snapshot(), config);
        let stmts = workload();
        server.execute_batch(&stmts);
        assert_eq!(
            server.snapshot_stats().slow_queries,
            4,
            "one recording per canonical execution, none per cache hit"
        );
        let slow = server.slow_queries();
        assert_eq!(slow.len(), 2, "log retains only the cap");
        assert!(slow[0].nanos >= slow[1].nanos, "slowest first");
        for q in &slow {
            assert!(q.plan.starts_with("Plan mode:"), "plan render present: {}", q.plan);
            assert!(q.profile.starts_with("total time:"), "profile present: {}", q.profile);
            assert!(q.profile.contains("rows="), "per-operator lines present");
            assert!(q.cost > 0.0);
        }
        server.execute(&stmts[0]).unwrap();
        assert_eq!(server.snapshot_stats().slow_queries, 4, "hit did not record");
    }

    #[test]
    fn slow_query_log_is_quiet_by_default_and_disableable() {
        // The default 50ms threshold is far above these statements.
        let server = Server::new(snapshot(), ServeConfig::serial());
        server.execute_batch(&workload());
        assert_eq!(server.snapshot_stats().slow_queries, 0);
        assert!(server.slow_queries().is_empty());
        // Cap 0 disables recording even at threshold 0.
        let off = Server::new(snapshot(), ServeConfig::serial().with_slow_query_log(0, 0));
        off.execute_batch(&workload());
        assert_eq!(off.snapshot_stats().slow_queries, 0);
    }

    #[test]
    fn sessions_accumulate_their_own_stats() {
        let db = snapshot();
        let server = Server::new(db, ServeConfig::serial());
        let mut a = server.session();
        let mut b = server.session();
        a.execute("SELECT COUNT(*) FROM loan").unwrap();
        a.execute("SELECT COUNT(*) FROM loan").unwrap();
        b.execute("SELECT COUNT(*) FROM account").unwrap();
        assert_eq!(a.executed(), 2);
        assert_eq!(b.executed(), 1);
        assert!(a.stats().rows_scanned > 0);
        // The repeat was a cache hit but still bills the canonical stats.
        assert_eq!(a.stats().rows_scanned % 2, 0);
        assert_eq!(server.snapshot_stats().statements, 3);
    }
}
