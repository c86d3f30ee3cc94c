//! The serving benchmark behind `BENCHMARK.json`; see `README.md`.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! servebench --smoke
//! servebench --aa [--rounds <n>] [--seconds <s>]
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod report;
mod run;
mod stats;
mod trace;
mod wire;
mod world;

use most_testkit::ser::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Where result files, traces and WAL directories go: `benchmark/` under
/// the cargo target directory this executable was built into, so every
/// write stays inside the checkout and under an ignored path.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the executable has a path");
    let target = exe.ancestors().nth(2).expect("the executable sits in <target>/<profile>/");
    target.join("benchmark")
}

/// `--name value` pairs and bare `--flags`.
struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some(at) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        let raw = self.0.get(at + 1).ok_or_else(|| format!("{name} needs a value"))?;
        raw.parse().map(Some).map_err(|_| format!("{name}: cannot read `{raw}`"))
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.value(name)?.ok_or_else(|| format!("missing {name}"))
    }
}

/// One driver-contract run: prints the metrics and the result line.
fn run_one(args: &Args) -> Result<bool, String> {
    let name: String = args.required("--workload")?;
    let seed: u64 = args.required("--seed")?;
    let seconds: f64 = args.required("--seconds")?;
    let trace = args.required::<u8>("--trace")? != 0;
    let spec = run::workloads()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let out = out_dir();
    let outcome = if trace {
        trace::run(&spec, seed, seconds, &out)?
    } else {
        run::run(&spec, seed, seconds, &out)?
    };
    report::print(spec.name, seed, seconds, trace, &outcome);
    report::write_result_json(&out, spec.name, seed, seconds, trace, &outcome)
        .map_err(|e| format!("result.json: {e}"))?;
    Ok(outcome.gate_failures.is_empty())
}

/// Every workload at about 1% of its size, wire run and traced run.
fn smoke() -> Result<bool, String> {
    let out = out_dir();
    let mut ok = true;
    for spec in run::workloads() {
        let spec = spec.smoke();
        for (label, outcome) in
            [("wire", run::run(&spec, 1, 0.2, &out)?), ("trace", trace::run(&spec, 1, 0.2, &out)?)]
        {
            let verdict = if outcome.gate_failures.is_empty() { "ok" } else { "FAILED" };
            println!(
                "smoke {:<15} {label:<5} {verdict}: {} metrics, {} of {} requests failed",
                spec.name,
                outcome.metrics.len(),
                outcome.failed,
                outcome.attempted
            );
            for failure in &outcome.gate_failures {
                println!("  GATE FAILED: {failure}");
            }
            ok &= outcome.gate_failures.is_empty();
        }
    }
    Ok(ok)
}

/// The end-to-end metric bounds recorded in `BENCHMARK.json` (read from
/// the current directory, the checkout root).
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = json.field("end_to_end").and_then(Json::as_arr).map_err(|e| e.to_string())?;
    metrics
        .iter()
        .map(|m| match (m.field("name"), m.field("bound")) {
            (Ok(Json::Str(name)), Ok(Json::Float(b))) => Ok((name.clone(), *b)),
            _ => Err("BENCHMARK.json: an end_to_end metric lacks a name or bound".to_owned()),
        })
        .collect()
}

/// Runs the whole set `rounds` times on this build — each run a fresh
/// process with a fresh seed, the workload order alternating — and
/// prints each end-to-end metric's spread beside its bound.  With two
/// rounds the spread is the relative difference; with more it is the
/// interquartile range over the median, as the driver computes it.
fn aa(args: &Args) -> Result<bool, String> {
    let rounds: usize = args.value("--rounds")?.unwrap_or(2).max(2);
    let seconds: f64 = args.value("--seconds")?.unwrap_or(20.0);
    let bounds = bounds()?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut names: Vec<&str> = run::workloads().iter().map(|s| s.name).collect();
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    for round in 0..rounds {
        for name in &names {
            let seed = 1000 + round;
            let out = Command::new(&exe)
                .args(["--workload", name, "--trace", "0"])
                .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
                .output()
                .map_err(|e| format!("spawn: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().ok_or_else(|| format!("{name}: no output"))?;
            let (correct, metrics) = report::parse_result_line(line)?;
            if !correct || !out.status.success() {
                return Err(format!("{name} seed {seed}: run incorrect\n{stdout}"));
            }
            for (metric, v) in metrics {
                match values.iter_mut().find(|(w, m, _)| w == name && *m == metric) {
                    Some((_, _, vs)) => vs.push(v),
                    None => values.push(((*name).to_owned(), metric, vec![v])),
                }
            }
            eprintln!("round {round} {name} done");
        }
        names.reverse();
    }
    println!("| workload | metric | median | spread | bound | |");
    println!("|---|---|---|---|---|---|");
    let mut resolved = true;
    for (workload, metric, vs) in &mut values {
        let med = stats::median(vs);
        let spread = if vs.len() == 2 {
            (vs[1] - vs[0]).abs() / med
        } else {
            let (q1, q3) = report::quartiles(vs);
            (q3 - q1) / med
        };
        let bound = bounds.iter().find(|(n, _)| n == metric).map_or(f64::NAN, |(_, b)| *b);
        // Set-up time is gated on its median only, not on its spread.
        let ok = spread <= bound || metric == "setup_s";
        resolved &= ok;
        println!(
            "| {workload} | {metric} | {med:.4} | {spread:.4} | {bound} | {} |",
            if ok { "" } else { "unresolved" }
        );
    }
    Ok(resolved)
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let result = if args.flag("--smoke") {
        smoke()
    } else if args.flag("--aa") {
        aa(&args)
    } else {
        run_one(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_passes_every_gate() {
        assert_eq!(smoke(), Ok(true));
    }

    #[test]
    fn arguments_parse_by_name() {
        let args = Args(["--seed", "7", "--trace", "x", "--smoke"].map(String::from).to_vec());
        assert_eq!(args.value::<u64>("--seed"), Ok(Some(7)));
        assert_eq!(args.value::<u64>("--seconds"), Ok(None));
        assert!(args.value::<u8>("--trace").is_err());
        assert!(args.required::<f64>("--seconds").is_err());
        assert!(args.flag("--smoke") && !args.flag("--aa"));
    }

    #[test]
    fn the_workload_names_are_the_issues() {
        let names: Vec<&str> = run::workloads().iter().map(|s| s.name).collect();
        assert_eq!(names, ["query_static", "ingest_durable", "mixed_serving", "sharded_large"]);
    }
}
