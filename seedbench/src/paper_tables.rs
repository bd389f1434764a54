//! `paper_tables`: the cells of the paper's Tables IV, V and VII, driven
//! through the `ExperimentRunner` calls the table binaries make.
//!
//! Set-up builds BIRD and Spider at scale 1 as the table binaries do
//! (Spider descriptions synthesized, as in `table5`) and the four runners,
//! each generating its SEED evidence once per question. The seed orders the
//! cells of a pass. One op is one
//! `runner.evaluate(system, setting)` cell. Every gold query is evaluated
//! once per system × setting, so inputs are heavily shared, and text-to-SQL
//! generation is most of a cell's time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use seed_core::SeedVariant;
use seed_datasets::bird::build_bird;
use seed_datasets::spider::{build_spider, synthesize_descriptions};
use seed_datasets::{Benchmark, CorpusConfig, Split};
use seed_eval::{EvidenceSetting, ExperimentRunner, Scores, SystemScores};
use seed_llm::UsageStats;
use seed_sqlengine::ExecStats;

use crate::layers::{engine_stats, totals, trace_quality, Layers};
use crate::report::{end_to_end, Report, Timed};
use crate::rng::{mix, Rng};
use crate::systems::{usage_delta, System, Traced};
use crate::{trace, Args};

const SETUPS: usize = 3;

pub struct Corpora {
    pub bird: Benchmark,
    pub spider: Benchmark,
}

/// The corpora the table binaries build: the paper's tables are one fixed
/// workload, and the seed only orders its cells.
pub fn corpus_config() -> CorpusConfig {
    CorpusConfig::default()
}

impl Corpora {
    pub fn build(config: &CorpusConfig) -> Self {
        let _span = trace::span("datasets.build");
        let bird = build_bird(config);
        let mut spider = build_spider(config);
        synthesize_descriptions(&mut spider);
        Corpora { bird, spider }
    }
}

/// One of the paper's tables: a runner and the systems × settings it sweeps.
pub struct PaperTable<'a> {
    pub runner: ExperimentRunner<'a>,
    pub systems: Vec<System>,
    pub settings: Vec<EvidenceSetting>,
}

/// The runners of Tables IV, V (dev and test) and VII, as their binaries
/// build them.
pub fn tables(c: &Corpora) -> Vec<PaperTable<'_>> {
    use EvidenceSetting::*;
    use SeedVariant::*;
    let runner = |bench, split, variants: &[SeedVariant]| {
        let _span = trace::span("seed_core.evidence_cache");
        ExperimentRunner::new(bench, split).with_seed_variants(variants)
    };
    vec![
        PaperTable {
            runner: runner(&c.bird, Split::Dev, &[Gpt, Deepseek]),
            systems: System::table4(),
            settings: vec![WithoutEvidence, BirdEvidence, SeedGpt, SeedDeepseek],
        },
        PaperTable {
            runner: runner(&c.spider, Split::Dev, &[Gpt]),
            systems: System::table5(),
            settings: vec![WithoutEvidence, SeedGpt],
        },
        PaperTable {
            runner: runner(&c.spider, Split::Test, &[Gpt]),
            systems: System::table5(),
            settings: vec![WithoutEvidence, SeedGpt],
        },
        PaperTable {
            runner: runner(&c.bird, Split::Dev, &[Deepseek, Revised]),
            systems: System::table7(),
            settings: vec![WithoutEvidence, SeedDeepseek, SeedRevised],
        },
    ]
}

/// One cell: table, system and setting indices.
pub type Cell = (usize, usize, usize);

/// Every cell of the tables, in the seeded order each pass visits them.
pub fn grid(tables: &[PaperTable<'_>], seed: u64) -> Vec<Cell> {
    let mut cells: Vec<Cell> = tables
        .iter()
        .enumerate()
        .flat_map(|(t, table)| {
            (0..table.systems.len())
                .flat_map(move |s| (0..table.settings.len()).map(move |e| (t, s, e)))
        })
        .collect();
    Rng::new(mix(seed, 0x9e1d)).shuffle(&mut cells);
    cells
}

/// Runs one cell; `None` when it panicked.
fn evaluate(tables: &[PaperTable<'_>], cell: Cell, traced: bool) -> Option<SystemScores> {
    let (t, s, e) = cell;
    let table = &tables[t];
    let system = &table.systems[s];
    let setting = table.settings[e];
    catch_unwind(AssertUnwindSafe(|| {
        if traced {
            let _span = trace::span("eval.evaluate");
            table.runner.evaluate(&Traced(system), setting)
        } else {
            table.runner.evaluate(system.as_dyn(), setting)
        }
    }))
    .ok()
}

/// What one pass over the grid produced.
struct Pass {
    op_ms: Vec<f64>,
    scores: Vec<Option<Scores>>,
    stats: ExecStats,
    statements: u64,
    llm: UsageStats,
}

fn pass(tables: &[PaperTable<'_>], cells: &[Cell], traced: bool, first_op: u64) -> Pass {
    let mut out = Pass {
        op_ms: Vec::with_capacity(cells.len()),
        scores: Vec::with_capacity(cells.len()),
        stats: ExecStats::default(),
        statements: 0,
        llm: UsageStats::default(),
    };
    for (i, &cell) in cells.iter().enumerate() {
        let system = &tables[cell.0].systems[cell.1];
        let before = system.usage();
        trace::set_op(first_op + i as u64);
        let started = Instant::now();
        let scored = evaluate(tables, cell, traced);
        out.op_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let used = usage_delta(before, system.usage());
        out.llm.calls += used.calls;
        out.llm.prompt_tokens += used.prompt_tokens;
        if let Some(s) = &scored {
            out.stats.merge(&s.stats);
            // Each question executes its gold and its predicted query.
            out.statements += 2 * s.scores.n as u64;
        }
        out.scores.push(scored.map(|s| s.scores));
    }
    out
}

/// Byte-identical scores: EX and VES bit for bit, and the question count.
pub fn same_scores(a: &Scores, b: &Scores) -> bool {
    a.ex.to_bits() == b.ex.to_bits() && a.ves.to_bits() == b.ves.to_bits() && a.n == b.n
}

/// Counts the ops whose scores disagree with the oracle's (or that panicked).
pub fn failed_ops(passes: &[Vec<Option<Scores>>], oracle: &[Scores]) -> u64 {
    passes
        .iter()
        .flat_map(|p| p.iter().zip(oracle))
        .filter(|(got, want)| !got.as_ref().is_some_and(|g| same_scores(g, want)))
        .count() as u64
}

/// The measured phase: whole passes until `seconds` have elapsed.
struct Phase {
    timed: Timed,
    scores: Vec<Vec<Option<Scores>>>,
    first: Pass,
}

fn measure(tables: &[PaperTable<'_>], cells: &[Cell], seconds: f64, traced: bool) -> Phase {
    let deadline = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut timed = Timed::default();
    let mut scores = Vec::new();
    let mut first = None;
    while first.is_none() || started.elapsed() < deadline {
        let p = pass(tables, cells, traced, 1 + timed.ops);
        timed.ops_pass(&p.op_ms);
        scores.push(p.scores.clone());
        first.get_or_insert(p);
    }
    Phase { timed, scores, first: first.expect("at least one pass ran") }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new();
    let config = corpus_config();
    report.fact("workload", "paper_tables: cells of Tables IV, V and VII, one client, closed loop");
    report.fact(
        "corpora",
        format!("BIRD and Spider, scale {}, corpus seed {:#x}", config.scale, config.seed),
    );

    let mut setup_s = Vec::new();
    for _ in 1..SETUPS {
        let started = Instant::now();
        let corpora = Corpora::build(&config);
        drop(tables(&corpora));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    if args.trace {
        trace::start();
    }
    let started = Instant::now();
    let corpora = Corpora::build(&config);
    let tables = tables(&corpora);
    setup_s.push(started.elapsed().as_secs_f64());
    let setup_trace = trace::finish();

    let cells = grid(&tables, args.seed);
    report.fact("grid", format!("{} cells per pass, one untimed warm-up pass", cells.len()));
    let warmup = pass(&tables, &cells, false, 0);

    let (phase, traced) = if args.trace {
        let plain = measure(&tables, &cells, args.seconds / 2.0, false);
        trace::start();
        let traced = measure(&tables, &cells, args.seconds / 2.0, true);
        (plain, Some((traced, trace::finish())))
    } else {
        (measure(&tables, &cells, args.seconds, false), None)
    };
    let rss = crate::host::peak_rss_mb();

    // Oracle: a fresh runner evaluates every cell serially once; every cell
    // of every pass, the warm-up included, must match it byte for byte.
    let fresh = self::tables(&corpora);
    let oracle: Vec<Scores> = cells
        .iter()
        .map(|&(t, s, e)| {
            fresh[t].runner.evaluate(fresh[t].systems[s].as_dyn(), fresh[t].settings[e]).scores
        })
        .collect();
    let mut all = phase.scores.clone();
    if let Some((p, _)) = &traced {
        all.extend(p.scores.iter().cloned());
    }
    report.attempted = all.iter().map(|p| p.len() as u64).sum();
    report.failed = failed_ops(&all, &oracle);
    let warm_failed = failed_ops(std::slice::from_ref(&warmup.scores), &oracle);
    report.check(
        warm_failed == 0,
        format!("{warm_failed} warm-up cells disagree with a fresh runner"),
    );

    let llm = &phase.first.llm;
    let n = cells.len() as f64;
    match traced {
        None => {
            end_to_end(&mut report, &setup_s, &phase.timed, "cell", "cell", rss);
            report.note(
                "llm_calls_per_op",
                llm.calls as f64 / n,
                "calls/op",
                format!("text2sql model calls over one pass of {n} cells"),
            );
            report.note(
                "llm_prompt_tokens_per_op",
                llm.prompt_tokens as f64 / n,
                "tokens/op",
                format!("text2sql prompt tokens over one pass of {n} cells"),
            );
        }
        Some((tp, trace)) => {
            let mut out = Layers::default();
            let setup_layers = setup_trace.layers();
            let build = totals(&setup_layers, "datasets.build");
            out.span_ms("datasets.build_ms", &build, "datasets.build");
            let evidence = totals(&setup_layers, "seed_core.evidence_cache");
            let generated: usize = tables.iter().map(|t| t.runner.cache().len()).sum();
            out.per(
                "seed_core.generate_ms",
                evidence.total_ns as f64 / 1e6,
                generated as f64,
                "ms in with_seed_variants / evidence generated (set-up)",
            );
            let layers = trace.layers();
            let cell = totals(&layers, "eval.evaluate");
            let t2s = totals(&layers, "text2sql.generate");
            let op_ms: f64 = tp.timed.op_ms.iter().sum();
            out.span_ms("text2sql.generate_ms", &t2s, "text2sql.generate");
            out.per(
                "text2sql.share",
                t2s.self_ns as f64 / 1e6,
                op_ms,
                "ms text2sql self / ms op wall",
            );
            out.per(
                "text2sql.llm_calls_per_call",
                trace.counter("text2sql.llm_calls") as f64,
                t2s.calls as f64,
                "calls / generate calls",
            );
            out.per(
                "text2sql.prompt_tokens_per_call",
                trace.counter("text2sql.prompt_tokens") as f64,
                t2s.calls as f64,
                "tokens / generate calls",
            );
            out.per(
                "text2sql.allocs_per_call",
                t2s.self_allocs as f64,
                t2s.calls as f64,
                "allocations / generate calls",
            );
            out.per(
                "eval.self_ms_per_cell",
                cell.self_ns as f64 / 1e6,
                cell.calls as f64,
                "ms eval self / cells",
            );
            out.per(
                "eval.allocs_per_cell",
                cell.self_allocs as f64,
                cell.calls as f64,
                "allocations / cells",
            );
            let st = &tp.first.stats;
            out.per(
                "eval.plan_cache_hit_ratio",
                st.plan_cache_hits as f64,
                (st.plan_cache_hits + st.plan_cache_misses) as f64,
                "plan lookups, first traced pass",
            );
            engine_stats(
                &mut out,
                st,
                tp.first.statements as f64,
                "gold + predicted executions, first traced pass",
            );
            let tllm = &tp.first.llm;
            out.per(
                "llm_calls_per_op",
                tllm.calls as f64,
                n,
                "text2sql calls / cells, first traced pass",
            );
            out.per(
                "llm_prompt_tokens_per_op",
                tllm.prompt_tokens as f64,
                n,
                "text2sql prompt tokens / cells, first traced pass",
            );
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grid_is_seeded() {
        let corpora = Corpora::build(&CorpusConfig::tiny());
        let t = tables(&corpora);
        let a = grid(&t, 1);
        assert_eq!(a.len(), 28 + 6 + 6 + 9);
        assert_eq!(a, grid(&t, 1));
        assert_ne!(a, grid(&t, 2));
    }

    #[test]
    fn the_oracle_rejects_a_corrupted_cell() {
        let corpora = Corpora::build(&CorpusConfig::tiny());
        let t = tables(&corpora);
        let cells: Vec<Cell> = grid(&t, 3).into_iter().take(3).collect();
        let ran = pass(&t, &cells, false, 0);
        let fresh = tables(&corpora);
        let oracle: Vec<Scores> = cells
            .iter()
            .map(|&(a, s, e)| {
                fresh[a].runner.evaluate(fresh[a].systems[s].as_dyn(), fresh[a].settings[e]).scores
            })
            .collect();
        assert_eq!(failed_ops(std::slice::from_ref(&ran.scores), &oracle), 0);

        let mut corrupted = ran.scores.clone();
        let s = corrupted[1].as_mut().expect("cell ran");
        s.ves = f64::from_bits(s.ves.to_bits() ^ 1);
        assert_eq!(failed_ops(&[corrupted], &oracle), 1);
        let mut panicked = ran.scores;
        panicked[0] = None;
        assert_eq!(failed_ops(&[panicked], &oracle), 1);
    }
}
