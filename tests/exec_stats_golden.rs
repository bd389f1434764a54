//! Golden file for the deterministic cost model: every [`ExecStats`] field,
//! under both plan modes, for the statements the paper's workloads run.
//!
//! VES and the paper tables are computed from `ExecStats`, so a kernel
//! change that keeps rows identical but shifts one counter would move them.
//! This test pins the counters for three statement sets:
//!
//! - every gold statement of both default-scale corpora (BIRD and Spider);
//! - the distinct SEED sample-SQL probes of one BIRD dev pass, for both
//!   `SEED_gpt` and `SEED_deepseek`;
//! - the distinct predicted statements of the Table IV systems without
//!   evidence.
//!
//! Each line holds the set, the mode, the row count (or the error kind) and
//! the `Debug` rendering of the stats, which names every field. Regenerate
//! after an intentional cost-model change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test exec_stats_golden
//! ```

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;

use seed_repro::core::sample_sql::run_sample_sql;
use seed_repro::core::schema_summary::summarize_if_needed;
use seed_repro::datasets::{
    bird::build_bird, spider::build_spider, Benchmark, CorpusConfig, Split,
};
use seed_repro::llm::{ModelProfile, SimLlm};
use seed_repro::sqlengine::{execute_with_stats_mode, PlanMode, SqlError};
use seed_repro::text2sql::{
    Chess, ChessConfig, CodeS, DailSql, GenerationContext, RslSql, Text2SqlSystem, C3,
};

/// The variant name of an error, without its message.
fn error_kind(e: &SqlError) -> String {
    let debug = format!("{e:?}");
    debug.split('(').next().unwrap_or(&debug).to_string()
}

/// Distinct (database, SQL) pairs in first-seen order.
#[derive(Default)]
struct StatementSet {
    seen: BTreeSet<(String, String)>,
    list: Vec<(String, String)>,
}

impl StatementSet {
    fn add(&mut self, db: &str, sql: &str) {
        let key = (db.to_string(), sql.to_string());
        if self.seen.insert(key.clone()) {
            self.list.push(key);
        }
    }
}

/// Distinct SEED probes of one BIRD dev pass, for both variants: the
/// sampler model and summarized schema each variant's pipeline uses.
fn seed_probes(bird: &Benchmark) -> StatementSet {
    let mut set = StatementSet::default();
    let variants = [
        (ModelProfile::gpt_4o_mini(), ModelProfile::gpt_4o()),
        (ModelProfile::deepseek_r1(), ModelProfile::deepseek_r1()),
    ];
    for (sampler, generator) in variants {
        let (sampler, generator) = (SimLlm::new(sampler), SimLlm::new(generator));
        for q in bird.split(Split::Dev) {
            let db = bird.database(&q.db_id).expect("dev database");
            let summary = summarize_if_needed(&generator, &q.text, db.schema(), 3_000);
            let samples = run_sample_sql(&sampler, &q.text, db, summary.kept_tables.as_deref());
            for probe in &samples.probes {
                set.add(&q.db_id, &probe.sql);
            }
        }
    }
    set
}

/// Distinct predictions of the Table IV systems in the no-evidence setting.
fn predictions(bird: &Benchmark) -> StatementSet {
    let systems: Vec<Box<dyn Text2SqlSystem>> = vec![
        Box::new(Chess::new(ChessConfig::IrCgUt)),
        Box::new(Chess::new(ChessConfig::IrSsCg)),
        Box::new(RslSql::new()),
        Box::new(CodeS::new(15)),
        Box::new(CodeS::new(7)),
        Box::new(DailSql::new()),
        Box::new(C3::new()),
    ];
    let train = bird.split(Split::Train);
    let mut set = StatementSet::default();
    for system in &systems {
        for q in bird.split(Split::Dev) {
            let db = bird.database(&q.db_id).expect("dev database");
            let ctx =
                GenerationContext { question: q, database: db, evidence: None, train_pool: &train };
            set.add(&q.db_id, &system.generate(&ctx));
        }
    }
    set
}

fn render(out: &mut String, label: &str, benches: &[&Benchmark], set: &StatementSet) {
    for (db_id, sql) in &set.list {
        let db = benches
            .iter()
            .find_map(|b| b.database(db_id))
            .unwrap_or_else(|| panic!("unknown database {db_id}"));
        writeln!(out, "[{label}] {db_id}: {sql}").unwrap();
        for mode in [PlanMode::Columnar, PlanMode::NestedLoop] {
            match execute_with_stats_mode(db, sql, mode) {
                Ok((rs, stats)) => {
                    writeln!(out, "  {mode:?} rows={} {stats:?}", rs.rows.len()).unwrap()
                }
                Err(e) => writeln!(out, "  {mode:?} error={}", error_kind(&e)).unwrap(),
            }
        }
    }
}

#[test]
fn exec_stats_match_golden_file() {
    let config = CorpusConfig::default();
    let bird = build_bird(&config);
    let spider = build_spider(&config);

    let mut gold = StatementSet::default();
    for bench in [&bird, &spider] {
        for q in &bench.questions {
            gold.add(&q.db_id, &q.gold_sql);
        }
    }
    let probes = seed_probes(&bird);
    let predicted = predictions(&bird);

    let mut rendered = String::new();
    render(&mut rendered, "gold", &[&bird, &spider], &gold);
    render(&mut rendered, "probe", &[&bird], &probes);
    render(&mut rendered, "predicted", &[&bird], &predicted);

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/exec_stats.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run with UPDATE_GOLDEN=1", path.display())
    });
    if rendered != expected {
        let first = expected
            .lines()
            .zip(rendered.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(expected.lines().count().min(rendered.lines().count()));
        let context = |text: &str| {
            text.lines().skip(first.saturating_sub(2)).take(5).collect::<Vec<_>>().join("\n")
        };
        panic!(
            "ExecStats golden mismatch at line {} (UPDATE_GOLDEN=1 to regenerate)\n\
             --- expected ---\n{}\n--- rendered ---\n{}",
            first + 1,
            context(&expected),
            context(&rendered)
        );
    }
}
