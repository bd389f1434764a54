//! Ablation benchmarks for the design choices called out in DESIGN.md §5:
//! sample-SQL grounding on/off, few-shot selection on/off, and schema
//! summarization aggressiveness. Each ablation reports the *accuracy effect*
//! (printed once) and benchmarks the runtime cost of the stage it toggles.

use criterion::{criterion_group, criterion_main, Criterion};
use seed_core::few_shot::select_examples;
use seed_core::sample_sql::run_sample_sql;
use seed_datasets::{bird::build_bird, CorpusConfig, Question, Split};
use seed_embedding::{HashedEmbedder, PoolEmbedder};
use seed_llm::{EvidenceGenTask, LanguageModel, ModelProfile, SimLlm};

fn ablation_benches(c: &mut Criterion) {
    let bench = build_bird(&CorpusConfig::tiny());
    let train: Vec<&Question> = bench.split(Split::Train);
    let q = bench
        .split(Split::Dev)
        .into_iter()
        .find(|q| q.db_id == "financial" && !q.atoms.is_empty())
        .unwrap();
    let db = bench.database(&q.db_id).unwrap();
    let sampler = SimLlm::new(ModelProfile::gpt_4o_mini());
    let generator = SimLlm::new(ModelProfile::gpt_4o());
    let embedder = PoolEmbedder::new(HashedEmbedder::default());

    // Accuracy effect of grounding (printed once so the ablation is visible in
    // bench logs): with grounding the issuance code is resolvable, without it
    // the evidence generator must rely on descriptions alone.
    let grounded = run_sample_sql(&sampler, &q.text, db, None);
    let few_shot = select_examples(&embedder, q, &train);
    let with = generator.generate_evidence(&EvidenceGenTask {
        question_id: &q.id,
        question: &q.text,
        schema: db.schema(),
        schema_subset: None,
        grounded_values: &grounded.grounded,
        few_shot: &few_shot,
        atoms: &q.atoms,
        descriptions_available: true,
        qualified_style: false,
        join_hints: &[],
    });
    let without = generator.generate_evidence(&EvidenceGenTask {
        question_id: &q.id,
        question: &q.text,
        schema: db.schema(),
        schema_subset: None,
        grounded_values: &[],
        few_shot: &[],
        atoms: &q.atoms,
        descriptions_available: false,
        qualified_style: false,
        join_hints: &[],
    });
    println!(
        "ablation: atoms resolved with grounding = {}, without grounding/descriptions = {}",
        with.resolved_atoms, without.resolved_atoms
    );

    c.bench_function("ablation/sample_sql_grounding", |b| {
        b.iter(|| run_sample_sql(&sampler, &q.text, db, None))
    });
    c.bench_function("ablation/few_shot_selection", |b| {
        b.iter(|| select_examples(&embedder, q, &train))
    });
    c.bench_function("ablation/schema_summarization", |b| {
        b.iter(|| {
            seed_core::schema_summary::summarize_if_needed(
                &SimLlm::new(ModelProfile::deepseek_r1()),
                &q.text,
                db.schema(),
                3_000,
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = ablation_benches
}
criterion_main!(benches);
