//! Contention suite for the sharded result cache: 8 OS threads hammer one
//! server at `result_cache_cap` boundaries and the per-stripe live-entry
//! bound must hold throughout — including cap 0 (caching off) and caps
//! smaller than the stripe count (every stripe degenerates to a one-entry
//! LRU).
//!
//! These tests drive `Server::execute` from raw threads (not the server's
//! own pool) so the cache sees genuinely unsynchronized admission traffic
//! on top of the pool-driven batches the determinism suite covers.

use std::sync::Arc;

use seed_serve::{ServeConfig, Server};
use seed_sqlengine::{execute, execute_statement, Database};

fn snapshot() -> Arc<Database> {
    let mut db = Database::new("contention_test");
    execute_statement(&mut db, "CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, v REAL)")
        .unwrap();
    for i in 0..50i64 {
        execute_statement(&mut db, &format!("INSERT INTO t VALUES ({i}, {}, {}.0)", i % 7, i * 3))
            .unwrap();
    }
    Arc::new(db)
}

/// A pool of distinct valid statements, all with distinct results.
fn distinct_statements(n: usize) -> Vec<String> {
    (0..n).map(|k| format!("SELECT COUNT(*) FROM t WHERE v > {k}")).collect()
}

/// Hammers `server.execute` with `stmts` from 8 threads, each thread
/// walking the statement list at a different stride so admissions,
/// hits, and evictions interleave, asserting per-stripe bounds and row
/// correctness after every call.
fn hammer(server: &Server, stmts: &[String], rounds: usize) {
    let stripe_cap = server.result_cache_stripe_cap();
    std::thread::scope(|scope| {
        for t in 0..8usize {
            scope.spawn(move || {
                for r in 0..rounds {
                    for i in 0..stmts.len() {
                        // Different threads visit in different orders.
                        let sql = &stmts[(i * (t + 1) + r) % stmts.len()];
                        let outcome = server.execute(sql).unwrap();
                        let direct = execute(&server.database(), sql).unwrap();
                        assert_eq!(outcome.result.rows, direct.rows, "{sql}");
                        for (stripe, len) in server.result_cache_shard_lens().iter().enumerate() {
                            assert!(
                                *len <= stripe_cap,
                                "stripe {stripe} holds {len} ready entries, cap {stripe_cap}"
                            );
                        }
                    }
                }
            });
        }
    });
}

#[test]
fn per_stripe_bound_holds_under_eight_thread_hammering_at_the_cap() {
    let server = Server::new(
        snapshot(),
        ServeConfig { result_cache_cap: 16, ..ServeConfig::default().with_workers(8) },
    );
    let shards = server.result_cache_shards();
    let stripe_cap = server.result_cache_stripe_cap();
    assert_eq!(stripe_cap, 16usize.div_ceil(shards).max(1));
    // More distinct statements than the cache can hold: every thread keeps
    // forcing admissions and evictions.
    hammer(&server, &distinct_statements(64), 6);
    assert!(server.result_cache_evictions() > 0, "the workload must exercise eviction");
    let total: usize = server.result_cache_shard_lens().iter().sum();
    assert!(total <= shards * stripe_cap, "global bound: {total} > {shards} * {stripe_cap}");
}

#[test]
fn cap_smaller_than_the_stripe_count_degenerates_to_one_entry_stripes() {
    let server = Server::new(
        snapshot(),
        ServeConfig { result_cache_cap: 3, ..ServeConfig::default().with_workers(8) },
    );
    assert!(server.result_cache_shards() > 3, "cap under test must be below the stripe count");
    assert_eq!(server.result_cache_stripe_cap(), 1, "cap < stripes floors at one entry per stripe");
    hammer(&server, &distinct_statements(32), 6);
    for (stripe, len) in server.result_cache_shard_lens().iter().enumerate() {
        assert!(*len <= 1, "stripe {stripe} exceeded its one-entry cap: {len}");
    }
}

#[test]
fn cap_zero_caches_nothing_under_concurrency() {
    let server = Server::new(
        snapshot(),
        ServeConfig { result_cache_cap: 0, ..ServeConfig::default().with_workers(8) },
    );
    assert_eq!(server.result_cache_stripe_cap(), 0);
    hammer(&server, &distinct_statements(16), 4);
    assert_eq!(server.result_cache_len(), 0, "cap 0 must never admit an entry");
    assert_eq!(server.result_cache_evictions(), 0);
    assert_eq!(server.snapshot_stats().result_cache_hits, 0);
}

#[test]
fn repeated_hammering_with_a_roomy_cap_stays_at_the_distinct_set() {
    // Cap well above the distinct set: after the dust settles every
    // distinct statement is cached exactly once and nothing was evicted.
    let server = Server::new(snapshot(), ServeConfig::default().with_workers(8));
    let stmts = distinct_statements(24);
    hammer(&server, &stmts, 4);
    assert_eq!(server.result_cache_len(), stmts.len());
    assert_eq!(server.result_cache_evictions(), 0);
    let stats = server.snapshot_stats();
    // 8 threads x 4 rounds x 24 statements, 24 canonical executions; with
    // in-flight dedup every other submission is a hit.
    assert_eq!(stats.statements, 8 * 4 * 24);
    assert_eq!(stats.result_cache_hits, 8 * 4 * 24 - 24, "hits are exact under dedup");
}
