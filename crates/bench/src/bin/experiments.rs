//! The experiment runner: regenerates every table of EXPERIMENTS.md.
//!
//! ```text
//! experiments [all|fig1|e1|e2|e3|e4|e4b|e5|e6|e6b|e7|e8|e9|e10|e11|e12|e13|e15|e16|e17|micro] [--quick]
//! ```
//!
//! Under `--quick` the wall-clock columns are replaced by a placeholder so
//! the full report is byte-identical across runs (every other cell is
//! derived from seeded deterministic workloads); CI diffs the output.
//!
//! The perf-tracked tables (E3, E4, E9, E10–E13, E15–E17, MICRO) are additionally written as
//! machine-readable `BENCH_<id>.json` files in the working directory, so
//! the performance trajectory can be compared across PRs without scraping
//! markdown.

use most_bench::experiments::{run_all, run_one};
use most_bench::{Scale, Table};
use most_testkit::ser::to_json_string;

/// Experiment ids whose tables are persisted as `BENCH_<id>.json`.
const TRACKED: &[&str] = &[
    "E3", "E4", "E9", "E10", "E11", "E12", "E13", "E15", "E16", "E17", "MICRO",
];

fn write_tracked_json(t: &Table) {
    if !TRACKED.contains(&t.id.as_str()) {
        return;
    }
    let path = format!("BENCH_{}.json", t.id.to_ascii_lowercase());
    let body = to_json_string(t).expect("table serializes");
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let which: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    println!("# MOST / FTL reproduction — experiment run ({:?})\n", scale);
    let mut tables = if which.is_empty() || which.iter().any(|w| w.as_str() == "all") {
        run_all(scale)
    } else {
        let mut out = Vec::new();
        for w in which {
            match run_one(w, scale) {
                Some(t) => out.push(t),
                None => {
                    eprintln!(
                        "unknown experiment `{w}` (expected fig1, e1..e17, e4b, e6b, micro, all)"
                    );
                    std::process::exit(2);
                }
            }
        }
        out
    };
    if scale == Scale::Quick {
        for t in &mut tables {
            t.stabilize();
        }
    }
    for t in tables {
        write_tracked_json(&t);
        println!("{t}");
    }
}
