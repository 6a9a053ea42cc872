//! `--smoke`, `--check`, and the contract file.
//!
//! `--smoke` runs all four workloads, timed and traced, at tiny counts in a
//! few seconds — still through every correctness gate — for use by CI.
//! `--check` runs the full set twice with one seed and compares the two: each
//! end-to-end metric's relative difference against its bound, and the exact
//! counts of the traced ladder for equality.

use crate::ladder::{EXACT_COUNTS, PER_LAYER};
use crate::workloads::{Outcome, RunConfig, Workload, END_TO_END};
use crate::{result_json, run_one, Args};

/// How long one run measures, in seconds (`run_seconds` of the contract).
pub const RUN_SECONDS: u32 = 15;

/// `BENCHMARK.json`, generated from the tables the code emits its metrics
/// from, so the two cannot drift (`--print-benchmark-json`; a test compares
/// the file at the repository root with this).
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better_of(name)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// Work counts a reduction stage emits and amortisation ratios are better
/// higher where more means more was folded or shared; everything else —
/// times, bytes, taxes, conflicts — is better lower.
fn better_of(name: &str) -> &'static str {
    match name {
        "ingest.subs_per_round" | "ingest.rounds_coalesced" => "higher",
        _ => "lower",
    }
}

fn config(args: &Args, workload: Workload, smoke: bool, seconds: f64) -> RunConfig {
    RunConfig { workload, seed: args.seed, seconds, smoke, out_dir: args.out_dir.clone() }
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome.metrics.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value)
}

pub fn smoke(args: &Args) -> Result<(), String> {
    let mut attempted = 0;
    let mut failed = 0;
    for workload in Workload::ALL {
        let timed = run_one(&config(args, workload, true, 0.3), false)?;
        let traced = run_one(&config(args, workload, true, 0.7), true)?;
        for (outcome, expect) in [(&timed, END_TO_END.len()), (&traced, PER_LAYER.len())] {
            if outcome.metrics.len() != expect {
                return Err(format!(
                    "{}: {} metrics where {expect} are listed",
                    workload.name(),
                    outcome.metrics.len()
                ));
            }
            if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
                return Err(format!(
                    "{}: metric {} is not a finite number",
                    workload.name(),
                    bad.name
                ));
            }
        }
        println!(
            "# smoke {}: ok — {} submissions timed, {:.0} ops/s, {} ladder steps traced",
            workload.name(),
            timed.attempted,
            value(&timed, "ops_per_s"),
            traced.attempted
        );
        attempted += timed.attempted + traced.attempted;
        failed += timed.failed + traced.failed;
    }
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}"
    );
    Ok(())
}

pub fn check(args: &Args) -> Result<(), String> {
    let mut over = Vec::new();
    for workload in Workload::ALL {
        let runs = [
            run_one(&config(args, workload, false, args.seconds), false)?,
            run_one(&config(args, workload, false, args.seconds), false)?,
        ];
        println!("# check {} run 1: {}", workload.name(), result_json(&runs[0]));
        println!("# check {} run 2: {}", workload.name(), result_json(&runs[1]));
        for (name, _, better, bound) in END_TO_END {
            let (a, b) = (value(&runs[0], name), value(&runs[1], name));
            // how much worse the second run reads than the first
            let worse = if better == "lower" { (b - a) / a } else { (a - b) / a };
            let verdict = if worse.abs() <= bound { "within" } else { "OVER" };
            println!(
                "# check {} {name}: {a:.6} vs {b:.6}, difference {:+.2}% of bound {:.0}% — {verdict}",
                workload.name(),
                worse * 100.0,
                bound * 100.0
            );
            if worse.abs() > bound {
                over.push(format!("{}:{name}", workload.name()));
            }
        }
        let traced = [
            run_one(&config(args, workload, false, args.seconds), true)?,
            run_one(&config(args, workload, false, args.seconds), true)?,
        ];
        for name in EXACT_COUNTS {
            let (a, b) = (value(&traced[0], name), value(&traced[1], name));
            let verdict = if a == b { "identical" } else { "DIFFERENT" };
            println!("# check {} {name}: {a} vs {b} — {verdict}", workload.name());
            if a != b {
                over.push(format!("{}:{name}", workload.name()));
            }
        }
        for name in ["ingest.rounds", "ingest.rounds_coalesced", "ingest.rounds_serialized"] {
            println!(
                "# check {} {name} (threaded, reported with its spread): {} vs {}",
                workload.name(),
                value(&traced[0], name),
                value(&traced[1], name)
            );
        }
    }
    if over.is_empty() {
        println!("{{\"correct\": true, \"attempted\": 16, \"failed\": 0, \"metrics\": {{}}}}");
        Ok(())
    } else {
        Err(format!("two runs of the same code disagree beyond the bound on: {}", over.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_contract_file_is_what_the_code_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, benchmark_json(), "regenerate with --print-benchmark-json");
    }

    #[test]
    fn the_contract_stays_inside_its_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for name in names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for unit in END_TO_END.iter().map(|m| m.1).chain(PER_LAYER.iter().map(|m| m.1)) {
            assert!(unit.len() <= 16);
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
        assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
