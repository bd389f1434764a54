//! `seedbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! seedbench --workload <paper_tables|deploy_no_evidence|serve_mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, sets the system up several
//! times (reporting the median set-up time), measures whole passes over a
//! fixed input mix for `--seconds`, checks every output against an oracle
//! outside the measured phase, and prints the report. The last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! See README.md in this directory.

mod deploy;
mod digest;
mod host;
mod layers;
mod paper_tables;
mod report;
mod rng;
mod serve_mixed;
mod stats;
mod systems;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: trace::CountingAlloc = trace::CountingAlloc;

const USAGE: &str = "usage: seedbench --workload <paper_tables|deploy_no_evidence|serve_mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    PaperTables,
    DeployNoEvidence,
    ServeMixed,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::PaperTables => "paper_tables",
            Workload::DeployNoEvidence => "deploy_no_evidence",
            Workload::ServeMixed => "serve_mixed",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "paper_tables" => Workload::PaperTables,
                    "deploy_no_evidence" => Workload::DeployNoEvidence,
                    "serve_mixed" => Workload::ServeMixed,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where runs leave their report and spans.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn artifact(args: &Args, kind: &str, ext: &str) -> PathBuf {
    out_dir().join(format!(
        "{kind}-{}-seed{}-trace{}.{ext}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ))
}

/// Writes the spans of a traced run as JSON lines, set-up spans first.
pub fn write_spans(args: &Args, traces: &[&trace::Trace]) {
    let mut merged = trace::Trace::default();
    for t in traces {
        let offset = merged.spans.len();
        merged.spans.extend(
            t.spans
                .iter()
                .map(|s| trace::Span { parent: s.parent.map(|p| p + offset), ..s.clone() }),
        );
    }
    let path = artifact(args, "spans", "jsonl");
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|_| merged.write_jsonl(&path)) {
        eprintln!("seedbench: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("seedbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let jiffies_before = host::cpu_jiffies();
    let mut report = match args.workload {
        Workload::PaperTables => paper_tables::run(&args),
        Workload::DeployNoEvidence => deploy::run(&args),
        Workload::ServeMixed => serve_mixed::run(&args),
    };
    if let (Some((t0, s0)), Some((t1, s1))) = (jiffies_before, host::cpu_jiffies()) {
        let share = stats::ratio((s1 - s0) as f64, (t1 - t0) as f64) * 100.0;
        report.fact(
            "host_steal",
            format!("{share:.1}% of CPU time stolen by the hypervisor during the run"),
        );
    }
    report.fact(
        "run",
        format!(
            "{} seed {} seconds {} trace {}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
    );
    let rendered = format!("{}{}\n", report.render(), report.json_line());
    let path = artifact(&args, "report", "txt");
    if let Err(e) =
        std::fs::create_dir_all(out_dir()).and_then(|_| std::fs::write(&path, &rendered))
    {
        eprintln!("seedbench: could not write {}: {e}", path.display());
    }
    // A completed run exits 0; whether its outputs were right is the
    // `correct` field of the result.
    print!("{rendered}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let a =
            parse_args(&strings("--workload serve_mixed --seed 4 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a, Args { workload: Workload::ServeMixed, seed: 4, seconds: 10.0, trace: true });
        assert!(parse_args(&strings("--workload other --seed 4 --seconds 10 --trace 1")).is_err());
        assert!(
            parse_args(&strings("--workload serve_mixed --seed 4 --seconds 0 --trace 1")).is_err()
        );
        assert!(parse_args(&strings("--workload serve_mixed --seed 4 --seconds 10")).is_err());
        assert!(parse_args(&strings("--workload serve_mixed --seed -1 --seconds 10 --trace 0"))
            .is_err());
    }

    /// BENCHMARK.json and the code name the same metrics with the same units.
    #[test]
    fn benchmark_json_matches_the_metrics_the_code_reports() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer section")..];
        for (name, unit) in layers::PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\":");
            assert!(per_layer.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), layers::PER_LAYER.len());
        for name in ["setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb"] {
            assert!(
                json.contains(&format!("{{\"name\": \"{name}\"")),
                "BENCHMARK.json lacks {name}"
            );
        }
    }
}
