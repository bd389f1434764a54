//! `serve_mixed`: `seed-serve` under reads with writes beside them, over
//! BIRD and Spider at scale 16, one serial server per database.
//!
//! The servers do not fan batches out to a worker pool: on a 2-vCPU VM a
//! batch of a few statements gained nothing from a second worker, and when
//! the hypervisor stole a vCPU, waking the other worker stalled whole
//! batches, which made the figures swing with the neighbours' load.
//!
//! A read request opens a session and runs a small `Session::execute_batch`
//! of statements drawn by seeded Zipf from that database's population: gold
//! SQL plus the Table IV systems' predicted SQL (some of which errors), more
//! distinct statements than the result cache holds. About one request in
//! ten opens a session and commits a single write through
//! `Session::execute`. Writes keep table sizes fixed: an INSERT takes a
//! fresh primary key and a later DELETE removes that row again; an UPDATE
//! rewrites an existing row in place. Every pass therefore ends with the
//! contents it started with, and per-read work does not drift with run
//! length.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use seed_datasets::bird::build_bird;
use seed_datasets::spider::build_spider;
use seed_datasets::{Benchmark, CorpusConfig, Question, Split};
use seed_serve::{HistogramSnapshot, MetricsSnapshot, ServeConfig, Server};
use seed_sqlengine::{
    commit_statement_rebuild, execute_with_stats_mode, is_write_statement, DataType, Database,
    ExecStats, PlanMode, Value,
};
use seed_text2sql::GenerationContext;

use crate::layers::{engine_stats, totals, trace_quality, Layers};
use crate::report::{end_to_end, latency_notes, Report, Timed};
use crate::rng::{mix, Rng, Zipf};
use crate::systems::System;
use crate::{digest, trace, Args};

const SCALE: f64 = 16.0;
const SETUPS: usize = 3;
/// Requests in one pass over the fixed input mix.
const PASS_REQUESTS: usize = 1500;
/// One request in this many is a write.
const WRITE_EVERY: usize = 10;
/// Statements per read request, inclusive range.
const READ_BATCH: (usize, usize) = (2, 6);
const ZIPF_EXPONENT: f64 = 1.0;

/// The deployed databases are the same for every seed; the seed draws the
/// traffic.
pub fn corpus_config() -> CorpusConfig {
    CorpusConfig { scale: SCALE, ..CorpusConfig::default() }
}

pub fn build(config: &CorpusConfig) -> [Benchmark; 2] {
    let _span = trace::span("datasets.build");
    [build_bird(config), build_spider(config)]
}

/// One request of a pass, against database `db`.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Read { db: usize, stmts: Vec<String> },
    Write { db: usize, sql: String },
}

/// The fixed input mix: database names and one pass of requests.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub dbs: Vec<String>,
    pub pass: Vec<Request>,
    pub distinct_statements: usize,
    pub write_tables: usize,
}

/// Gold SQL plus every Table IV system's prediction, without and with the
/// canonical evidence, per database, in popularity order. The order is the
/// same for every seed, so seeds differ in the requests they draw but not
/// in which statements are hot.
fn populations(benches: &[Benchmark; 2]) -> Vec<(&Database, Vec<String>)> {
    let systems = System::table4();
    let mut out = Vec::new();
    for bench in benches {
        let train: Vec<&Question> = bench.split(Split::Train);
        for db in &bench.databases {
            let mut stmts = BTreeSet::new();
            for q in bench.questions.iter().filter(|q| q.db_id == db.name()) {
                stmts.insert(q.gold_sql.clone());
                let oracle = q.oracle_evidence();
                for evidence in [None, Some(oracle.as_str())] {
                    let ctx = GenerationContext {
                        question: q,
                        database: db,
                        evidence,
                        train_pool: &train,
                    };
                    for system in &systems {
                        stmts.insert(system.as_dyn().generate(&ctx));
                    }
                }
            }
            let mut stmts: Vec<String> =
                stmts.into_iter().filter(|s| !is_write_statement(s)).collect();
            stmts.sort_by_key(|s| digest::text(s));
            out.push((db, stmts));
        }
    }
    out
}

/// A table writes can target: integer primary key, rows to copy.
struct Writable {
    table: String,
    columns: Vec<String>,
    pk: usize,
    keys: Vec<i64>,
    rows: Vec<Vec<Value>>,
    fresh: i64,
    pending: Option<i64>,
}

fn writables(db: &Database) -> Vec<Writable> {
    db.schema()
        .tables
        .iter()
        .filter_map(|ts| {
            let table = db.table(&ts.name).ok()?;
            let pk = table.primary_key_column()?;
            if ts.columns[pk].data_type != DataType::Integer || table.is_empty() {
                return None;
            }
            let keys: Option<Vec<i64>> = table
                .rows()
                .iter()
                .map(|r| match r[pk] {
                    Value::Integer(k) => Some(k),
                    _ => None,
                })
                .collect();
            let keys = keys?;
            Some(Writable {
                table: ts.name.clone(),
                columns: ts.columns.iter().map(|c| c.name.clone()).collect(),
                pk,
                fresh: keys.iter().max().copied()? + 1,
                keys,
                rows: table.rows().to_vec(),
                pending: None,
            })
        })
        .collect()
}

fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Integer(i) => i.to_string(),
        Value::Real(r) => format!("{r:?}"),
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

impl Writable {
    /// The next write on this table: the DELETE of a pending insert, or an
    /// INSERT of a copied row under a fresh key, or an in-place UPDATE.
    fn next(&mut self, rng: &mut Rng) -> String {
        let (t, pk) = (&self.table, &self.columns[self.pk]);
        if let Some(key) = self.pending.take() {
            return format!("DELETE FROM `{t}` WHERE `{pk}` = {key}");
        }
        if rng.below(2) == 0 {
            let key = self.fresh;
            self.fresh += 1;
            self.pending = Some(key);
            let mut row = self.rows[rng.below(self.rows.len())].clone();
            row[self.pk] = Value::Integer(key);
            let cols: Vec<String> = self.columns.iter().map(|c| format!("`{c}`")).collect();
            let vals: Vec<String> = row.iter().map(literal).collect();
            format!("INSERT INTO `{t}` ({}) VALUES ({})", cols.join(", "), vals.join(", "))
        } else {
            let col = &self.columns[rng.below(self.columns.len())];
            let key = self.keys[rng.below(self.keys.len())];
            format!("UPDATE `{t}` SET `{col}` = `{col}` WHERE `{pk}` = {key}")
        }
    }
}

/// Builds the fixed input mix from the seed, over corpora built with `config`.
pub fn inputs(config: &CorpusConfig, seed: u64) -> Inputs {
    let benches = build(config);
    let pops = populations(&benches);
    let zipfs: Vec<Zipf> = pops.iter().map(|(_, s)| Zipf::new(s.len(), ZIPF_EXPONENT)).collect();
    let mut writable: Vec<Vec<Writable>> = pops.iter().map(|(db, _)| writables(db)).collect();
    let total: usize = pops.iter().map(|(_, s)| s.len()).sum();
    let mut rng = Rng::new(mix(seed, 0x4e9));
    // Every tenth request writes, cycling through the writable tables in a
    // seeded order, so every seed writes each table equally often.
    let mut targets: Vec<(usize, usize)> = writable
        .iter()
        .enumerate()
        .flat_map(|(db, tables)| (0..tables.len()).map(move |t| (db, t)))
        .collect();
    rng.shuffle(&mut targets);
    let mut pass = Vec::with_capacity(PASS_REQUESTS + targets.len());
    for i in 0..PASS_REQUESTS {
        if i % WRITE_EVERY == WRITE_EVERY - 1 {
            let (db, t) = targets[(i / WRITE_EVERY) % targets.len()];
            pass.push(Request::Write { db, sql: writable[db][t].next(&mut rng) });
            continue;
        }
        // Reads pick databases in proportion to their statement populations.
        let mut pick = rng.below(total);
        let db = pops.iter().position(|(_, s)| {
            pick < s.len() || {
                pick -= s.len();
                false
            }
        });
        let db = db.expect("pick falls in some population");
        let n = READ_BATCH.0 + rng.below(READ_BATCH.1 - READ_BATCH.0 + 1);
        let stmts = (0..n).map(|_| pops[db].1[zipfs[db].sample(&mut rng)].clone()).collect();
        pass.push(Request::Read { db, stmts });
    }
    // Every pass ends with the contents it started with.
    for (db, tables) in writable.iter_mut().enumerate() {
        for w in tables.iter_mut().filter(|w| w.pending.is_some()) {
            pass.push(Request::Write { db, sql: w.next(&mut rng) });
        }
    }
    Inputs {
        dbs: pops.iter().map(|(db, _)| db.name().to_string()).collect(),
        pass,
        distinct_statements: total,
        write_tables: writable.iter().map(Vec::len).sum(),
    }
}

/// Digest of a database's contents: every table's rows, in order.
pub fn contents(db: &Database) -> u64 {
    let mut d = digest::Digest::new();
    for name in db.table_names() {
        d = d.bytes(name.as_bytes());
        if let Ok(t) = db.table(&name) {
            d = d.bytes(&digest::table(t.rows()).to_le_bytes());
        }
    }
    d.finish()
}

/// What one pass served.
#[derive(Default)]
struct PassOut {
    read_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    statements: u64,
    /// Per request, one digest per statement (`None`: the request panicked).
    digests: Vec<Option<Vec<u64>>>,
    /// Stats of canonical executions (result-cache hits replay them).
    stats: ExecStats,
    executed: u64,
    errors: u64,
}

fn serve_pass(servers: &[Server], pass: &[Request], first_op: u64) -> PassOut {
    let mut out = PassOut::default();
    for (i, request) in pass.iter().enumerate() {
        trace::set_op(first_op + i as u64);
        let started = Instant::now();
        let served = catch_unwind(AssertUnwindSafe(|| match request {
            Request::Read { db, stmts } => {
                let _span = trace::span("serve.read");
                servers[*db].session().execute_batch(stmts)
            }
            Request::Write { db, sql } => {
                let _span = trace::span("serve.commit");
                vec![servers[*db].session().execute(sql)]
            }
        }));
        let ms = started.elapsed().as_secs_f64() * 1e3;
        match request {
            Request::Read { stmts, .. } => {
                out.read_ms.push(ms);
                out.statements += stmts.len() as u64;
            }
            Request::Write { .. } => {
                out.commit_ms.push(ms);
                out.statements += 1;
            }
        }
        out.digests.push(served.ok().map(|outcomes| {
            outcomes
                .iter()
                .map(|o| {
                    match o {
                        Ok(o) if !o.from_result_cache => {
                            out.stats.merge(&o.stats);
                            out.executed += 1;
                        }
                        Ok(_) => {}
                        Err(_) => out.errors += 1,
                    }
                    digest::outcome(o.as_ref().map(|o| &o.result))
                })
                .collect()
        }));
    }
    out
}

/// Statements of pass `got` that disagree with the reference pass (or that
/// belong to a request that panicked).
pub fn failed_statements(
    got: &[Option<Vec<u64>>],
    want: &[Option<Vec<u64>>],
    pass: &[Request],
) -> u64 {
    pass.iter()
        .zip(got.iter().zip(want))
        .map(|(request, (g, w))| {
            let n = match request {
                Request::Read { stmts, .. } => stmts.len(),
                Request::Write { .. } => 1,
            };
            match (g, w) {
                (Some(g), Some(w)) => g.iter().zip(w).filter(|(a, b)| a != b).count() as u64,
                _ => n as u64,
            }
        })
        .sum()
}

/// The running system: one server per database.
struct Setup {
    servers: Vec<Server>,
    pristine: Vec<u64>,
    warmup: PassOut,
}

fn setup(config: &CorpusConfig, inputs: &Inputs) -> Setup {
    let benches = build(config);
    let mut dbs: BTreeMap<String, Database> = BTreeMap::new();
    for bench in benches {
        for db in bench.databases {
            dbs.insert(db.name().to_string(), db);
        }
    }
    let ordered: Vec<Database> =
        inputs.dbs.iter().map(|n| dbs.remove(n).expect("database built")).collect();
    let pristine = ordered.iter().map(contents).collect();
    let servers: Vec<Server> =
        ordered.into_iter().map(|db| Server::new(Arc::new(db), ServeConfig::serial())).collect();
    let warmup = serve_pass(&servers, &inputs.pass, 0);
    Setup { servers, pristine, warmup }
}

/// Server metrics summed over every server.
fn metrics(servers: &[Server]) -> (MetricsSnapshot, u64) {
    let mut snaps = servers.iter().map(Server::metrics_snapshot);
    let mut sum = snaps.next().expect("at least one server");
    for s in snaps {
        sum.statements += s.statements;
        sum.result_cache_hits += s.result_cache_hits;
        sum.result_cache_misses += s.result_cache_misses;
        sum.dedup_waits += s.dedup_waits;
        sum.dedup_wait.merge(&s.dedup_wait);
        sum.worker_busy_nanos += s.worker_busy_nanos;
        sum.commits += s.commits;
        sum.rows_inserted += s.rows_inserted;
        sum.rows_updated += s.rows_updated;
        sum.rows_deleted += s.rows_deleted;
        sum.snapshot_version += s.snapshot_version;
    }
    (sum, servers.iter().map(Server::result_cache_evictions).sum())
}

struct Phase {
    timed: Timed,
    commit_ms: Vec<f64>,
    passes: Vec<Vec<Option<Vec<u64>>>>,
    first: PassOut,
    /// Metrics before the phase, after its first pass, and at its end.
    marks: [(MetricsSnapshot, u64); 3],
    wall_ns: u64,
    boundary_failures: u64,
}

fn measure(s: &Setup, inputs: &Inputs, seconds: f64) -> Phase {
    let deadline = Duration::from_secs_f64(seconds);
    let before = metrics(&s.servers);
    let started = Instant::now();
    let mut timed = Timed::default();
    let (mut commit_ms, mut passes, mut first, mut after_first) =
        (Vec::new(), Vec::new(), None, None);
    let mut boundary_failures = 0;
    while first.is_none() || started.elapsed() < deadline {
        let out = serve_pass(&s.servers, &inputs.pass, 1 + timed.ops);
        let busy: f64 = out.read_ms.iter().chain(&out.commit_ms).sum();
        timed.pass(&out.read_ms, out.statements, busy);
        commit_ms.extend_from_slice(&out.commit_ms);
        passes.push(out.digests.clone());
        // Between passes, outside the op clock: contents are back to where
        // they started.
        let now: Vec<u64> = s.servers.iter().map(|sv| contents(&sv.database())).collect();
        boundary_failures += u64::from(now != s.pristine);
        if first.is_none() {
            first = Some(out);
            after_first = Some(metrics(&s.servers));
        }
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    Phase {
        timed,
        commit_ms,
        passes,
        first: first.expect("one pass ran"),
        marks: [before, after_first.expect("one pass ran"), metrics(&s.servers)],
        wall_ns,
        boundary_failures,
    }
}

/// The serial replay of the warm-up pass and the first measured pass
/// through the rebuild-everything commit path.
struct Replayed {
    dbs: Vec<Database>,
    /// Writes each database receives per pass.
    writes_per_pass: Vec<u64>,
}

/// Replays the writes of the warm-up pass and the first measured pass
/// through `commit_statement_rebuild`, checking on the way that the first
/// measured pass's writes and reads (`recorded`) match the replay — reads
/// executed directly on the replayed snapshot each request pinned — and
/// that every replayed pass ends with the contents it started with.
fn replay(
    config: &CorpusConfig,
    inputs: &Inputs,
    recorded: &[Option<Vec<u64>>],
    report: &mut Report,
) -> Replayed {
    let benches = build(config);
    let mut by_name: BTreeMap<String, Database> = BTreeMap::new();
    for bench in benches {
        for db in bench.databases {
            by_name.insert(db.name().to_string(), db);
        }
    }
    let mut dbs: Vec<Database> =
        inputs.dbs.iter().map(|n| by_name.remove(n).expect("database built")).collect();
    let pristine: Vec<u64> = dbs.iter().map(contents).collect();
    let mut writes_per_pass = vec![0u64; dbs.len()];
    // Commits replayed per database. A read is executed once per database
    // version; the memo keys on nothing the engine computes, so it cannot
    // share a defect with the server's own cache keys.
    let mut versions = vec![0u64; dbs.len()];
    let mut memo: HashMap<(usize, u64, &str), u64> = HashMap::new();
    let mut mismatched = 0u64;
    for checked in [false, true] {
        for (i, request) in inputs.pass.iter().enumerate() {
            match request {
                Request::Write { db, sql } => {
                    let outcome = commit_statement_rebuild(&dbs[*db], sql);
                    let got = digest::outcome(outcome.as_ref().map(|o| &o.result));
                    if let Ok(o) = outcome {
                        versions[*db] += 1;
                        dbs[*db] = o.db;
                    }
                    if checked {
                        writes_per_pass[*db] += 1;
                        mismatched += u64::from(recorded[i].as_deref() != Some(&[got][..]));
                    }
                }
                Request::Read { db, stmts } if checked => {
                    for (k, sql) in stmts.iter().enumerate() {
                        let want = *memo.entry((*db, versions[*db], sql)).or_insert_with(|| {
                            let direct =
                                execute_with_stats_mode(&dbs[*db], sql, PlanMode::serving());
                            digest::outcome(direct.as_ref().map(|(rs, _)| rs))
                        });
                        mismatched +=
                            u64::from(recorded[i].as_ref().and_then(|d| d.get(k)) != Some(&want));
                    }
                }
                Request::Read { .. } => {}
            }
        }
        let restored = dbs.iter().map(contents).collect::<Vec<_>>() == pristine;
        report.check(restored, "a replayed pass left contents changed");
    }
    report
        .check(mismatched == 0, format!("{mismatched} statements disagree with the serial replay"));
    Replayed { dbs, writes_per_pass }
}

/// Every server's published snapshot has the contents and version a serial
/// replay of all `passes` passes reaches. Each pass starts from the same
/// contents (checked at every pass boundary) and applies the same writes,
/// so the replay of the first two passes stands for the rest: contents as
/// replayed, and one version per write.
fn finals_match(servers: &[Server], replayed: &Replayed, passes: u64) -> bool {
    servers.iter().zip(&replayed.dbs).zip(&replayed.writes_per_pass).all(|((sv, db), writes)| {
        contents(&sv.database()) == contents(db)
            && sv.snapshot_version() == db.version() + (passes - 2) * writes
    })
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new();
    let config = corpus_config();
    let inputs = inputs(&config, args.seed);
    let reads = inputs.pass.iter().filter(|r| matches!(r, Request::Read { .. })).count();
    report.fact(
        "workload",
        "serve_mixed: session reads and single-write commits; one client, closed loop",
    );
    report
        .fact("corpora", format!("BIRD and Spider, scale {SCALE}, corpus seed {:#x}", config.seed));
    report.fact(
        "input mix",
        format!(
            "{} requests per pass ({reads} reads of {}-{} statements, {} writes over {} tables), {} distinct statements, Zipf s={ZIPF_EXPONENT}",
            inputs.pass.len(),
            READ_BATCH.0,
            READ_BATCH.1,
            inputs.pass.len() - reads,
            inputs.write_tables,
            inputs.distinct_statements
        ),
    );

    let mut setup_s = Vec::new();
    for _ in 1..SETUPS {
        let started = Instant::now();
        drop(setup(&config, &inputs));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    if args.trace {
        trace::start();
    }
    let started = Instant::now();
    let s = setup(&config, &inputs);
    setup_s.push(started.elapsed().as_secs_f64());
    let setup_trace = trace::finish();

    let (phase, traced) = if args.trace {
        let plain = measure(&s, &inputs, args.seconds / 2.0);
        trace::start();
        let traced = measure(&s, &inputs, args.seconds / 2.0);
        (plain, Some((traced, trace::finish())))
    } else {
        (measure(&s, &inputs, args.seconds), None)
    };
    let rss = crate::host::peak_rss_mb();

    // Oracles, outside the measured phases.
    let all: Vec<&Vec<Option<Vec<u64>>>> =
        phase.passes.iter().chain(traced.iter().flat_map(|(p, _)| &p.passes)).collect();
    report.attempted = all.len() as u64
        * inputs
            .pass
            .iter()
            .map(|r| match r {
                Request::Read { stmts, .. } => stmts.len() as u64,
                Request::Write { .. } => 1,
            })
            .sum::<u64>();
    report.failed = all.iter().map(|p| failed_statements(p, &s.warmup.digests, &inputs.pass)).sum();
    let boundary =
        phase.boundary_failures + traced.as_ref().map_or(0, |(p, _)| p.boundary_failures);
    report.check(boundary == 0, format!("{boundary} pass boundaries left contents changed"));
    let replayed = replay(&config, &inputs, &phase.passes[0], &mut report);
    let passes = 1 + all.len() as u64;
    report.check(
        finals_match(&s.servers, &replayed, passes),
        "final snapshots differ from the serial rebuild replay",
    );
    report.fact(
        "oracle",
        format!(
            "{} measured passes compared statement by statement with the warm-up pass; \
             the first measured pass checked against a serial rebuild replay",
            all.len()
        ),
    );

    match traced {
        None => {
            end_to_end(&mut report, &setup_s, &phase.timed, "read request", "statement", rss);
            latency_notes(&mut report, "commit", &phase.commit_ms, "per write request");
        }
        Some((tp, trace)) => {
            let mut out = Layers::default();
            out.span_ms(
                "datasets.build_ms",
                &totals(&setup_trace.layers(), "datasets.build"),
                "datasets.build",
            );
            let layers = trace.layers();
            let read = totals(&layers, "serve.read");
            let commit = totals(&layers, "serve.commit");
            out.span_ms("serve.read_ms", &read, "serve.read");
            out.span_ms("serve.commit_ms", &commit, "serve.commit");
            out.per(
                "serve.allocs_per_request",
                (read.self_allocs + commit.self_allocs) as f64,
                (read.calls + commit.calls) as f64,
                "allocations / requests, all threads",
            );
            let [(m0, e0), (m1, e1), (m2, _)] = &tp.marks;
            let pass = "first traced pass";
            out.per(
                "serve.result_cache_hit_ratio",
                (m2.result_cache_hits - m0.result_cache_hits) as f64,
                (m2.result_cache_hits + m2.result_cache_misses
                    - m0.result_cache_hits
                    - m0.result_cache_misses) as f64,
                "hits / reads served, traced phase",
            );
            out.set("serve.result_cache_evictions", (e1 - e0) as f64, pass);
            out.set("serve.dedup_waits", (m1.dedup_waits - m0.dedup_waits) as f64, pass);
            let waits = HistogramSnapshot {
                counts: m2
                    .dedup_wait
                    .counts
                    .iter()
                    .zip(&m0.dedup_wait.counts)
                    .map(|(a, b)| a - b)
                    .collect(),
            };
            out.set(
                "serve.dedup_wait_ms",
                waits.p50() as f64 / 1e6,
                format!("median of {} waits (log2 bucket bound), traced phase", waits.total()),
            );
            out.per(
                "serve.worker_utilization",
                (m2.worker_busy_nanos - m0.worker_busy_nanos) as f64,
                tp.wall_ns as f64,
                "busy worker ns / phase wall ns, all servers",
            );
            out.set("serve.commits", (m1.commits - m0.commits) as f64, pass);
            let rows = |m: &MetricsSnapshot| m.rows_inserted + m.rows_updated + m.rows_deleted;
            out.set("serve.rows_written", (rows(m1) - rows(m0)) as f64, pass);
            out.set(
                "serve.snapshot_version",
                m2.snapshot_version as f64,
                "sum over servers at the end",
            );
            let prepared: usize =
                s.servers.iter().map(|sv| sv.snapshot_stats().prepared_statements).sum();
            out.set(
                "serve.prepared_statements",
                prepared as f64,
                "plans held by the servers at the end",
            );
            engine_stats(
                &mut out,
                &tp.first.stats,
                tp.first.executed as f64,
                &format!("canonical executions, {pass}"),
            );
            out.per(
                "sqlengine.errors_per_op",
                tp.first.errors as f64,
                tp.first.statements as f64,
                &format!("SqlErrors / statements, {pass}"),
            );
            latency_pair_layers(&mut out, &tp.commit_ms);
            let op_ms: f64 = tp.timed.op_seconds * 1e3;
            trace_quality(
                &mut out,
                phase.timed.ops_per_s(),
                tp.timed.ops_per_s(),
                &trace,
                op_ms,
                "",
            );
            crate::write_spans(args, &[&setup_trace, &trace]);
            out.emit(&mut report);
        }
    }
    report
}

fn latency_pair_layers(out: &mut Layers, commit_ms: &[f64]) {
    for (q, name) in [(0.5, "commit_p50_ms"), (0.9, "commit_p90_ms")] {
        let t = crate::stats::percentile(commit_ms, q);
        out.set(
            name,
            t.value,
            format!("per write request: {} samples, {} beyond", t.samples, t.beyond),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_seeded() {
        let config = CorpusConfig::tiny();
        let a = inputs(&config, 1);
        assert_eq!(a, inputs(&config, 1));
        assert_ne!(a.pass, inputs(&config, 2).pass);
        let writes = a.pass.iter().filter(|r| matches!(r, Request::Write { .. })).count();
        assert!(writes > 0 && writes < a.pass.len() / 5, "{writes} writes");
    }

    #[test]
    fn the_population_includes_predictions_that_error() {
        let benches = build(&CorpusConfig::tiny());
        let pops = populations(&benches);
        let failing = pops
            .iter()
            .flat_map(|(db, stmts)| stmts.iter().map(move |sql| (db, sql)))
            .filter(|(db, sql)| execute_with_stats_mode(db, sql, PlanMode::serving()).is_err())
            .count();
        assert!(failing > 0, "every statement of the population executes");
    }

    #[test]
    fn the_oracles_reject_corrupted_reads_writes_and_snapshots() {
        let config = CorpusConfig::tiny();
        let inputs = inputs(&config, 5);
        let s = setup(&config, &inputs);
        let served = serve_pass(&s.servers, &inputs.pass, 1).digests;
        assert_eq!(failed_statements(&served, &s.warmup.digests, &inputs.pass), 0);
        let mut report = Report::new();
        let replayed = replay(&config, &inputs, &served, &mut report);
        assert!(report.checks_passed);
        assert!(finals_match(&s.servers, &replayed, 2));

        let read =
            inputs.pass.iter().position(|r| matches!(r, Request::Read { .. })).expect("a read");
        let write =
            inputs.pass.iter().position(|r| matches!(r, Request::Write { .. })).expect("a write");
        for corrupt in [read, write] {
            let mut bad = served.clone();
            bad[corrupt].as_mut().expect("request served")[0] ^= 1;
            assert_eq!(failed_statements(&bad, &s.warmup.digests, &inputs.pass), 1);
            let mut report = Report::new();
            replay(&config, &inputs, &bad, &mut report);
            assert!(!report.checks_passed, "request {corrupt} corrupted unnoticed");
        }

        let Request::Write { db, sql } = &inputs.pass[write] else { unreachable!() };
        s.servers[*db].execute(sql).expect("one extra write commits");
        assert!(!finals_match(&s.servers, &replayed, 2));
    }
}
