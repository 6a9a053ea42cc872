//! `pulbench` — the repo's benchmark. See `README.md` beside this crate.
//!
//! ```text
//! pulbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! pulbench --smoke [--seed <n>]
//! pulbench --check [--seed <n>] [--seconds <s>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A correctness mismatch
//! exits non-zero and prints no result.

mod check;
mod gen;
mod ladder;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Outcome, RunConfig, Workload};

pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub check: bool,
    pub out_dir: PathBuf,
}

const USAGE: &str = "usage: pulbench --workload <bulk_reason|ingest_small|stack_mixed|recover_read> \
--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n       pulbench --smoke [--seed <n>]\n       \
pulbench --check [--seed <n>] [--seconds <s>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(check::RUN_SECONDS),
        trace: false,
        smoke: false,
        check: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--print-benchmark-json" => {
                print!("{}", check::benchmark_json());
                std::process::exit(0);
            }
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !args.smoke && !args.check && args.workload.is_none() {
        return Err("one of --workload, --smoke or --check is required".into());
    }
    Ok(args)
}

/// Runs one workload, timed or traced.
pub fn run_one(cfg: &RunConfig, trace: bool) -> Result<Outcome, String> {
    if trace {
        ladder::run(cfg)
    } else {
        workloads::run(cfg)
    }
}

/// The result object the driver reads: metric values with all their digits.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// JSON has no infinity: a percentile that fell among failed requests is
/// reported as the largest finite number.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        format!("{}", f64::MAX)
    }
}

/// Machine shape, toolchain and revision, the seed, the frozen paced rates
/// and the operation counts — what a reader needs to compare two results.
pub fn header_json(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let sizes = workloads::sizes(args.smoke);
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": \"{}\", \"git\": \"{}\", \"seed\": {}, \"seconds\": {}, \
\"paced_rate_ingest_small\": {}, \"paced_rate_stack_mixed\": {}, \"sat_window\": {}, \
\"bulk_reason\": {{\"doc_nodes\": {}, \"sets\": {}, \"parallel\": \"{}x{}\", \"chain\": \"{}x{}\"}}, \
\"ingest_small\": {{\"doc_nodes\": {}, \"submissions\": {}, \"producers\": {}}}, \
\"stack_mixed\": {{\"doc_nodes\": {}, \"submissions\": {}, \"shards\": 2}}, \
\"recover_read\": {{\"doc_nodes\": {}, \"commits\": {}, \"second_checkpoint\": {}}}}}",
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
        args.seed,
        args.seconds,
        workloads::INGEST_PACED_RATE,
        workloads::STACK_PACED_RATE,
        workloads::SAT_WINDOW,
        sizes.bulk.doc_nodes,
        sizes.bulk.sets,
        sizes.bulk.parallel_puls,
        sizes.bulk.ops_per_parallel_pul,
        sizes.bulk.chain_puls,
        sizes.bulk.ops_per_chain_pul,
        sizes.ingest.doc_nodes,
        sizes.ingest.submissions,
        sizes.ingest.producers,
        sizes.stack.doc_nodes,
        sizes.stack.submissions,
        sizes.recover.doc_nodes,
        sizes.recover.submissions,
        sizes.recover_second_checkpoint,
    )
}

/// First output line of a tool, or `unknown` (the driver's checkout is not a
/// git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pulbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.smoke {
        check::smoke(&args)
    } else if args.check {
        check::check(&args)
    } else {
        let cfg = RunConfig {
            workload: args.workload.expect("checked by parse_args"),
            seed: args.seed,
            seconds: args.seconds,
            smoke: false,
            out_dir: args.out_dir.clone(),
        };
        println!("{}", header_json(&args));
        run_one(&cfg, args.trace).map(|outcome| {
            for note in &outcome.notes {
                println!("# {note}");
            }
            println!("{}", result_json(&outcome));
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pulbench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
