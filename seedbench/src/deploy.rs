//! `deploy_no_evidence`: the deployment SEED exists for. Each op answers one
//! new question that arrives with no evidence: `SeedPipeline::generate`
//! (SEED_gpt or SEED_deepseek, seeded choice), then a seeded choice of
//! Table IV system, then `Server::execute` of the predicted SQL on a
//! long-lived serial server for the question's database.
//!
//! Each pass is the dev split of a BIRD corpus built from a seed of its own,
//! with question ids made unique, so no id repeats within a run and nothing
//! keyed on a question id can help. The deployed databases persist across
//! questions, as a deployed database would.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use seed_core::{PipelineTrace, SeedPipeline};
use seed_datasets::bird::build_bird;
use seed_datasets::{Benchmark, CorpusConfig, EvidenceRecord, Question, Split};
use seed_llm::UsageStats;
use seed_serve::{ServeConfig, Server};
use seed_sqlengine::{execute_with_stats_mode, Database, ExecStats, PlanMode, ResultSet, SqlError};
use seed_text2sql::{GenerationContext, Text2SqlSystem};

use crate::layers::{engine_stats, totals, trace_quality, Layers};
use crate::report::{end_to_end, Report, Timed};
use crate::rng::{mix, Rng};
use crate::systems::{usage_delta, System, Traced};
use crate::{digest, trace, Args};

const SETUPS: usize = 5;
/// After the first measured pass, the oracle re-answers one op in this many.
const CHECK_EVERY: u64 = 8;

pub fn corpus_config(seed: u64) -> CorpusConfig {
    CorpusConfig { scale: 1.0, seed: mix(seed, 0xde9) }
}

/// The deployed system: every database behind its own serial server, the
/// two SEED pipelines, the Table IV systems, and the train pool SEED draws
/// its few-shot examples from.
pub struct Deployment {
    pub train: Vec<Question>,
    dbs: Vec<(Arc<Database>, Server)>,
    pipelines: [SeedPipeline; 2],
    systems: Vec<System>,
}

impl Deployment {
    pub fn new(config: &CorpusConfig) -> Self {
        let bench = {
            let _span = trace::span("datasets.build");
            build_bird(config)
        };
        let Benchmark { databases, questions, .. } = bench;
        let dbs = databases
            .into_iter()
            .map(|db| {
                let db = Arc::new(db);
                let server = Server::new(Arc::clone(&db), ServeConfig::serial());
                (db, server)
            })
            .collect();
        Deployment {
            train: questions.into_iter().filter(|q| q.split == Split::Train).collect(),
            dbs,
            pipelines: [SeedPipeline::gpt(), SeedPipeline::deepseek()],
            systems: System::table4(),
        }
    }

    fn db(&self, id: &str) -> &(Arc<Database>, Server) {
        self.dbs
            .iter()
            .find(|(db, _)| db.name() == id)
            .expect("questions target deployed databases")
    }
}

/// One incoming question and the seeded choices made for it.
pub struct Ask {
    pub question: Question,
    pub pipeline: usize,
    pub system: usize,
}

/// The questions of pass `pass`: the dev split of a corpus built from a
/// seed of its own, ids made unique. The seeded SEED variant and system of
/// each position are the same in every pass, so passes differ only in the
/// questions' ids and are the same mix of work.
pub fn pass_inputs(seed: u64, pass: u64) -> Vec<Ask> {
    let corpus_seed = mix(seed, 0x1000 + pass);
    let bench = build_bird(&CorpusConfig { scale: 1.0, seed: corpus_seed });
    let mut rng = Rng::new(mix(seed, 0xc401ce));
    bench
        .questions
        .into_iter()
        .filter(|q| q.split == Split::Dev)
        .map(|mut q| {
            q.id = format!("{corpus_seed:016x}/{}", q.id);
            q.human_evidence = EvidenceRecord::none();
            Ask { question: q, pipeline: rng.below(2), system: rng.below(7) }
        })
        .collect()
}

/// An answer, as digests: the evidence, the SQL, the rows in order, and the
/// rows as a multiset (an error stands for itself in both row digests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub evidence: u64,
    pub sql: u64,
    pub rows: u64,
    pub multiset: u64,
}

impl Answer {
    pub fn of(evidence: &str, sql: &str, rows: Result<&ResultSet, &SqlError>) -> Self {
        Answer {
            evidence: digest::text(evidence),
            sql: digest::text(sql),
            rows: digest::outcome(rows),
            multiset: rows.map_or(digest::text("error"), digest::multiset),
        }
    }

    /// The fields on which `self` disagrees with `want`.
    pub fn mismatches(&self, want: &Answer) -> Vec<&'static str> {
        [
            ("evidence", self.evidence == want.evidence),
            ("sql", self.sql == want.sql),
            ("rows", self.rows == want.rows),
            ("nested-loop rows", self.multiset == want.multiset),
        ]
        .into_iter()
        .filter(|(_, same)| !same)
        .map(|(what, _)| what)
        .collect()
    }
}

/// What answering one question produced.
struct Answered {
    ms: f64,
    answer: Answer,
    seed_trace: PipelineTrace,
    seed_calls: u64,
    t2s: UsageStats,
    stats: Option<ExecStats>,
}

fn answer(d: &Deployment, train: &[&Question], ask: &Ask, traced: bool) -> Answered {
    let (db, server) = d.db(&ask.question.db_id);
    let pipeline = &d.pipelines[ask.pipeline];
    let system = &d.systems[ask.system];
    let (calls_before, t2s_before) = (pipeline.llm_calls(), system.usage());
    let started = Instant::now();
    let (generated, sql, outcome) = {
        let _op = trace::span("deploy.question");
        let generated = {
            let _span = trace::span("seed_core.generate");
            pipeline.generate(&ask.question, db, train, true)
        };
        let evidence = Some(generated.evidence.as_str()).filter(|e| !e.trim().is_empty());
        let ctx = GenerationContext {
            question: &ask.question,
            database: db,
            evidence,
            train_pool: train,
        };
        let sql =
            if traced { Traced(system).generate(&ctx) } else { system.as_dyn().generate(&ctx) };
        let outcome = {
            let _span = trace::span("serve.execute");
            server.execute(&sql)
        };
        (generated, sql, outcome)
    };
    let ms = started.elapsed().as_secs_f64() * 1e3;
    Answered {
        ms,
        answer: Answer::of(&generated.evidence, &sql, outcome.as_ref().map(|o| &o.result)),
        seed_trace: generated.trace,
        seed_calls: pipeline.llm_calls() - calls_before,
        t2s: usage_delta(t2s_before, system.usage()),
        stats: outcome.ok().map(|o| o.stats),
    }
}

/// The reference answer: fresh pipelines and systems, the SQL executed
/// directly on the database, and its rows read again by the nested-loop
/// executor.
pub fn reference(
    db: &Database,
    pipelines: &[SeedPipeline; 2],
    systems: &[System],
    train: &[&Question],
    ask: &Ask,
) -> Answer {
    let generated = pipelines[ask.pipeline].generate(&ask.question, db, train, true);
    let evidence = Some(generated.evidence.as_str()).filter(|e| !e.trim().is_empty());
    let ctx =
        GenerationContext { question: &ask.question, database: db, evidence, train_pool: train };
    let sql = systems[ask.system].as_dyn().generate(&ctx);
    let direct = execute_with_stats_mode(db, &sql, PlanMode::serving()).map(|(rs, _)| rs);
    let mut want = Answer::of(&generated.evidence, &sql, direct.as_ref());
    let nested = execute_with_stats_mode(db, &sql, PlanMode::NestedLoop).map(|(rs, _)| rs);
    want.multiset = Answer::of("", "", nested.as_ref()).multiset;
    want
}

/// Counts over one fixed pass.
#[derive(Debug, Default)]
struct Counts {
    ops: u64,
    errors: u64,
    seed_calls: u64,
    seed_tokens: u64,
    probes: u64,
    grounded: u64,
    overflows: u64,
    t2s: UsageStats,
    stats: ExecStats,
    statements: u64,
}

impl Counts {
    fn add(&mut self, a: &Answered) {
        self.ops += 1;
        self.seed_calls += a.seed_calls;
        self.seed_tokens += a.seed_trace.prompt_tokens as u64;
        self.probes += a.seed_trace.sample_queries as u64;
        self.grounded += a.seed_trace.grounded_columns as u64;
        self.overflows += u64::from(a.seed_trace.context_overflow);
        self.t2s.calls += a.t2s.calls;
        self.t2s.prompt_tokens += a.t2s.prompt_tokens;
        match &a.stats {
            Some(s) => {
                self.stats.merge(s);
                self.statements += 1;
            }
            None => self.errors += 1,
        }
    }
}

/// A checked op: where it came from and what it answered (`None`: panicked).
struct Record {
    pass: u64,
    index: usize,
    answer: Option<Answer>,
}

struct Runner {
    d: Deployment,
    seed: u64,
    next_pass: u64,
    records: Vec<Record>,
    panics: u64,
    attempted: u64,
}

impl Runner {
    /// Deploys the system and answers the warm-up pass. Set-up includes the
    /// warm-up so that it is long enough to exceed timer and allocator
    /// jitter; the warm-up pass is fixed by the seed, so the counts taken
    /// over it repeat exactly from run to run.
    fn set_up(config: &CorpusConfig, seed: u64, counts: &mut Counts) -> Self {
        let d = Deployment::new(config);
        let mut runner =
            Runner { d, seed, next_pass: 0, records: Vec::new(), panics: 0, attempted: 0 };
        runner.pass(false, true, Some(counts));
        runner
    }

    /// Answers one whole pass of fresh questions; `check_all` keeps every
    /// answer for the oracle, otherwise one in [`CHECK_EVERY`].
    fn pass(&mut self, traced: bool, check_all: bool, counts: Option<&mut Counts>) -> Vec<f64> {
        let pass = self.next_pass;
        self.next_pass += 1;
        let asks = pass_inputs(self.seed, pass);
        let train: Vec<&Question> = self.d.train.iter().collect();
        let mut op_ms = Vec::with_capacity(asks.len());
        let mut counts = counts;
        for (index, ask) in asks.iter().enumerate() {
            self.attempted += 1;
            trace::set_op(self.attempted);
            let answered =
                catch_unwind(AssertUnwindSafe(|| answer(&self.d, &train, ask, traced))).ok();
            let keep = check_all || self.attempted.is_multiple_of(CHECK_EVERY);
            match answered {
                Some(a) => {
                    op_ms.push(a.ms);
                    if let Some(c) = counts.as_deref_mut() {
                        c.add(&a);
                    }
                    if keep {
                        self.records.push(Record { pass, index, answer: Some(a.answer) });
                    }
                }
                None => {
                    self.panics += 1;
                    self.records.push(Record { pass, index, answer: None });
                }
            }
        }
        op_ms
    }

    fn measure(&mut self, seconds: f64, traced: bool) -> Timed {
        let deadline = Duration::from_secs_f64(seconds);
        let started = Instant::now();
        let mut timed = Timed::default();
        while timed.passes() == 0 || started.elapsed() < deadline {
            let first = timed.passes() == 0;
            let op_ms = self.pass(traced, first, None);
            timed.ops_pass(&op_ms);
        }
        timed
    }

    /// Re-answers every recorded op from scratch; returns the failures.
    fn check(&self, report: &mut Report) -> u64 {
        let pipelines = [SeedPipeline::gpt(), SeedPipeline::deepseek()];
        let systems = System::table4();
        let train: Vec<&Question> = self.d.train.iter().collect();
        let mut failed = self.panics;
        let mut checked = 0u64;
        let mut current: Option<(u64, Vec<Ask>)> = None;
        for r in &self.records {
            let Some(got) = r.answer else { continue };
            if current.as_ref().is_none_or(|(p, _)| *p != r.pass) {
                current = Some((r.pass, pass_inputs(self.seed, r.pass)));
            }
            let ask = &current.as_ref().expect("inputs loaded").1[r.index];
            let (db, _) = self.d.db(&ask.question.db_id);
            let want = reference(db, &pipelines, &systems, &train, ask);
            let wrong = got.mismatches(&want);
            checked += 1;
            if !wrong.is_empty() {
                failed += 1;
                eprintln!("oracle: question {} disagrees on {wrong:?}", ask.question.id);
            }
        }
        report.fact(
            "oracle",
            format!("{checked} answers re-derived from scratch ({} panics)", self.panics),
        );
        failed
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new();
    let config = corpus_config(args.seed);
    report.fact(
        "workload",
        "deploy_no_evidence: SEED evidence, text-to-SQL, serve; one client, closed loop",
    );
    report.fact(
        "corpora",
        format!(
            "deployed BIRD scale {} corpus seed {:#x}; pass p asks the dev questions of a scale-1 BIRD corpus \
             with seed mix(seed, 0x1000 + p) (pass 0: {:#x})",
            config.scale,
            config.seed,
            mix(args.seed, 0x1000)
        ),
    );

    let mut setup_s = Vec::new();
    for _ in 1..SETUPS {
        let started = Instant::now();
        drop(Runner::set_up(&config, args.seed, &mut Counts::default()));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    if args.trace {
        trace::start();
    }
    let mut counts = Counts::default();
    let started = Instant::now();
    let mut runner = Runner::set_up(&config, args.seed, &mut counts);
    setup_s.push(started.elapsed().as_secs_f64());
    let setup_trace = trace::finish();
    let warm_attempted = runner.attempted;

    let (timed, traced) = if args.trace {
        let plain = runner.measure(args.seconds / 2.0, false);
        trace::start();
        let traced = runner.measure(args.seconds / 2.0, true);
        (plain, Some((traced, trace::finish())))
    } else {
        (runner.measure(args.seconds, false), None)
    };
    let rss = crate::host::peak_rss_mb();
    report.attempted = runner.attempted - warm_attempted;
    report.failed = runner.check(&mut report);
    report.fact("passes", format!("{} passes, question ids never repeat", runner.next_pass));

    let ops = counts.ops as f64;
    let llm_calls = (counts.seed_calls + counts.t2s.calls) as f64;
    let llm_tokens = (counts.seed_tokens + counts.t2s.prompt_tokens) as f64;
    let base = format!("SEED + text2sql over the {ops} questions of the warm-up pass");
    match traced {
        None => {
            end_to_end(&mut report, &setup_s, &timed, "question", "question", rss);
            report.note("llm_calls_per_op", llm_calls / ops, "calls/op", &base);
            report.note("llm_prompt_tokens_per_op", llm_tokens / ops, "tokens/op", &base);
        }
        Some((tt, trace)) => {
            let mut out = Layers::default();
            let setup_layers = setup_trace.layers();
            out.span_ms(
                "datasets.build_ms",
                &totals(&setup_layers, "datasets.build"),
                "datasets.build",
            );
            let layers = trace.layers();
            let op_ms: f64 = tt.op_ms.iter().sum();
            let seed = totals(&layers, "seed_core.generate");
            let t2s = totals(&layers, "text2sql.generate");
            let exec = totals(&layers, "serve.execute");
            out.span_ms("seed_core.generate_ms", &seed, "seed_core.generate");
            out.per(
                "seed_core.share",
                seed.self_ns as f64 / 1e6,
                op_ms,
                "ms SEED self / ms op wall",
            );
            out.per(
                "seed_core.allocs_per_call",
                seed.self_allocs as f64,
                seed.calls as f64,
                "allocations / generate calls",
            );
            let warm = "warm-up pass";
            out.per(
                "seed_core.probes_per_call",
                counts.probes as f64,
                ops,
                &format!("sample-SQL probes / questions, {warm}"),
            );
            out.per(
                "seed_core.grounded_per_probe",
                counts.grounded as f64,
                counts.probes as f64,
                &format!("grounded columns / probes, {warm}"),
            );
            out.per(
                "seed_core.llm_calls_per_call",
                counts.seed_calls as f64,
                ops,
                &format!("llm_calls() delta / questions, {warm}"),
            );
            out.per(
                "seed_core.prompt_tokens_per_call",
                counts.seed_tokens as f64,
                ops,
                &format!("evidence prompt tokens / questions, {warm}"),
            );
            out.set(
                "seed_core.context_overflows",
                counts.overflows as f64,
                format!("of {ops} questions, {warm}"),
            );
            out.span_ms("text2sql.generate_ms", &t2s, "text2sql.generate");
            out.per(
                "text2sql.share",
                t2s.self_ns as f64 / 1e6,
                op_ms,
                "ms text2sql self / ms op wall",
            );
            out.per(
                "text2sql.allocs_per_call",
                t2s.self_allocs as f64,
                t2s.calls as f64,
                "allocations / generate calls",
            );
            out.per(
                "text2sql.llm_calls_per_call",
                counts.t2s.calls as f64,
                ops,
                &format!("calls / questions, {warm}"),
            );
            out.per(
                "text2sql.prompt_tokens_per_call",
                counts.t2s.prompt_tokens as f64,
                ops,
                &format!("tokens / questions, {warm}"),
            );
            out.span_ms("serve.execute_ms", &exec, "serve.execute");
            out.per(
                "serve.allocs_per_request",
                exec.self_allocs as f64,
                exec.calls as f64,
                "allocations / Server::execute",
            );
            let prepared: usize =
                runner.d.dbs.iter().map(|(_, s)| s.snapshot_stats().prepared_statements).sum();
            out.set(
                "serve.prepared_statements",
                prepared as f64,
                format!("plans held by the servers after {} questions", runner.attempted),
            );
            engine_stats(
                &mut out,
                &counts.stats,
                counts.statements as f64,
                &format!("predicted SQL that executed, {warm}"),
            );
            out.per(
                "sqlengine.errors_per_op",
                counts.errors as f64,
                ops,
                &format!("SqlErrors / questions, {warm}"),
            );
            out.per("llm_calls_per_op", llm_calls, ops, &base);
            out.per("llm_prompt_tokens_per_op", llm_tokens, ops, &base);
            trace_quality(
                &mut out,
                timed.ops_per_s(),
                tt.ops_per_s(),
                &trace,
                op_ms,
                "deploy.question",
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
    fn pass_inputs_are_seeded_and_ids_never_repeat() {
        let ids = |seed, pass| {
            pass_inputs(seed, pass).iter().map(|a| a.question.id.clone()).collect::<Vec<_>>()
        };
        assert_eq!(ids(1, 0), ids(1, 0));
        assert_ne!(ids(1, 0), ids(2, 0));
        let mut all: Vec<String> = (0..3).flat_map(|p| ids(1, p)).collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "question ids repeat across passes");
        let choices =
            |seed| pass_inputs(seed, 0).iter().map(|a| (a.pipeline, a.system)).collect::<Vec<_>>();
        assert_eq!(choices(5), choices(5));
    }

    #[test]
    fn the_oracle_accepts_a_served_answer_and_rejects_a_corrupted_one() {
        let d = Deployment::new(&CorpusConfig::tiny());
        let train: Vec<&Question> = d.train.iter().collect();
        let asks = pass_inputs(9, 0);
        let (pipelines, systems) =
            ([SeedPipeline::gpt(), SeedPipeline::deepseek()], System::table4());
        let ask = asks
            .iter()
            .find(|a| {
                let (db, _) = d.db(&a.question.db_id);
                reference(db, &pipelines, &systems, &train, a).multiset != digest::text("error")
            })
            .expect("some question answers with rows");
        assert!(answer(&d, &train, ask, false)
            .answer
            .mismatches(&reference(
                d.db(&ask.question.db_id).0.as_ref(),
                &pipelines,
                &systems,
                &train,
                ask
            ))
            .is_empty());
        let (db, server) = d.db(&ask.question.db_id);
        let want = reference(db, &pipelines, &systems, &train, ask);

        let generated = pipelines[ask.pipeline].generate(&ask.question, db, &train, true);
        let evidence = Some(generated.evidence.as_str()).filter(|e| !e.trim().is_empty());
        let ctx = GenerationContext {
            question: &ask.question,
            database: db,
            evidence,
            train_pool: &train,
        };
        let sql = systems[ask.system].as_dyn().generate(&ctx);
        let served = server.execute(&sql).expect("the chosen question executes").result;
        assert!(Answer::of(&generated.evidence, &sql, Ok(&served)).mismatches(&want).is_empty());

        let mut corrupted = served.clone();
        corrupted.rows.push(
            corrupted.rows.first().cloned().unwrap_or_else(|| vec![seed_sqlengine::Value::Null]),
        );
        let wrong = Answer::of(&generated.evidence, &sql, Ok(&corrupted)).mismatches(&want);
        assert_eq!(wrong, vec!["rows", "nested-loop rows"]);
        let wrong = Answer::of("made up", &sql, Ok(&served)).mismatches(&want);
        assert_eq!(wrong, vec!["evidence"]);
    }
}
