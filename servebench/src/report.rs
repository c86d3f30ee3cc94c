//! Output: the human-readable metric list, the one-line JSON result the
//! driver reads, `result.json`, and the spread table of `--aa`.

use crate::run::{Metric, Outcome};
use most_testkit::ser::Json;
use std::path::Path;
use std::process::Command;

/// The driver's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric a `{value, unit}` pair.
pub fn result_line(outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let pair = vec![
                ("value".to_owned(), Json::Float(m.value)),
                ("unit".to_owned(), Json::Str(m.unit.to_owned())),
            ];
            (m.name.clone(), Json::Obj(pair))
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(outcome.gate_failures.is_empty())),
        ("attempted".to_owned(), Json::Int(outcome.attempted.max(1) as i64)),
        ("failed".to_owned(), Json::Int(outcome.failed as i64)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ])
}

/// Reads `(name, value)` pairs back out of a result line.
pub fn parse_result_line(line: &str) -> Result<(bool, Vec<(String, f64)>), String> {
    let json = Json::parse(line).map_err(|e| format!("result line: {e}"))?;
    let field =
        |j: &Json, name: &str| j.field(name).cloned().map_err(|e| format!("result line: {e}"));
    let Json::Bool(correct) = field(&json, "correct")? else {
        return Err("`correct` is not a bool".into());
    };
    let Json::Obj(metrics) = field(&json, "metrics")? else {
        return Err("`metrics` is not an object".into());
    };
    let mut out = Vec::new();
    for (name, m) in metrics {
        let value = match field(&m, "value")? {
            Json::Float(v) => v,
            Json::Int(v) => v as f64,
            other => return Err(format!("metric `{name}` has a {} value", other.kind())),
        };
        out.push((name, value));
    }
    Ok((correct, out))
}

fn metric_row(m: &Metric) -> String {
    format!("  {:<28} {:>16.6} {:<6} (n={})", m.name, m.value, m.unit, m.samples)
}

/// Prints every metric by name with its unit, the failure share and the
/// gates, then the result line last.
pub fn print(workload: &str, seed: u64, seconds: f64, trace: bool, outcome: &Outcome) {
    println!("workload {workload}  seed {seed}  seconds {seconds}  trace {}", u8::from(trace));
    for m in outcome.metrics.iter().chain(&outcome.diagnostics) {
        println!("{}", metric_row(m));
    }
    let share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  {:<28} {share:>16.6} ({} of {})",
        "failed_share", outcome.failed, outcome.attempted
    );
    for (name, v) in &outcome.sizes {
        println!("  size.{name:<23} {v:>16}");
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    for failure in &outcome.gate_failures {
        println!("  GATE FAILED: {failure}");
    }
    println!("{}", result_line(outcome).render().expect("finite metrics render"));
}

fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program).args(args).output().ok().filter(|o| o.status.success()).map_or_else(
        || "unknown".to_owned(),
        |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
    )
}

/// Writes `<out>/result.json`: the result plus what is needed to compare
/// it with another run (commit, cores, compiler, seed, sizes, sample
/// counts).
pub fn write_result_json(
    out: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    outcome: &Outcome,
) -> std::io::Result<()> {
    let text = |s: String| Json::Str(s);
    let samples = |ms: &[Metric]| {
        Json::Obj(ms.iter().map(|m| (m.name.clone(), Json::Int(m.samples as i64))).collect())
    };
    let values = |ms: &[Metric]| {
        Json::Obj(ms.iter().map(|m| (m.name.clone(), Json::Float(m.value))).collect())
    };
    let doc = Json::Obj(vec![
        ("workload".to_owned(), text(workload.to_owned())),
        ("seed".to_owned(), Json::Int(seed as i64)),
        ("seconds".to_owned(), Json::Float(seconds)),
        ("trace".to_owned(), Json::Bool(trace)),
        ("git_commit".to_owned(), text(tool_output("git", &["rev-parse", "HEAD"]))),
        ("rustc".to_owned(), text(tool_output("rustc", &["-V"]))),
        (
            "nproc".to_owned(),
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
        ),
        ("obs".to_owned(), Json::Bool(most_obs::is_enabled())),
        (
            "sizes".to_owned(),
            Json::Obj(
                outcome
                    .sizes
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), Json::Int(*v as i64)))
                    .collect(),
            ),
        ),
        ("result".to_owned(), result_line(outcome)),
        ("diagnostics".to_owned(), values(&outcome.diagnostics)),
        ("samples".to_owned(), samples(&outcome.metrics)),
        (
            "gate_failures".to_owned(),
            Json::Arr(outcome.gate_failures.iter().cloned().map(Json::Str).collect()),
        ),
    ]);
    std::fs::create_dir_all(out)?;
    std::fs::write(out.join("result.json"), doc.render().expect("finite metrics render"))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; `values` needs at least two entries.
pub fn quartiles(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let m = values.len();
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_exactly_the_contract_keys() {
        let outcome = Outcome {
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric { name: "setup_s".into(), value: 0.8127, unit: "s", samples: 3 },
                Metric { name: "query_p50_ms".into(), value: 1.2034, unit: "ms", samples: 9 },
            ],
            ..Outcome::default()
        };
        let line = result_line(&outcome).render().unwrap();
        let Json::Obj(fields) = Json::parse(&line).unwrap() else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let (correct, metrics) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!(
            metrics,
            vec![("setup_s".to_owned(), 0.8127), ("query_p50_ms".to_owned(), 1.2034)]
        );
    }

    #[test]
    fn a_gate_failure_makes_the_result_incorrect() {
        let outcome = Outcome { gate_failures: vec!["x".into()], ..Outcome::default() };
        let (correct, _) = parse_result_line(&result_line(&outcome).render().unwrap()).unwrap();
        assert!(!correct);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&mut [1.0, 2.0]), (0.75, 2.25));
    }
}
