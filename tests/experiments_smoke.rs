//! Integration: every experiment of the harness runs at quick scale and
//! reports the claimed qualitative shapes (the detailed per-experiment
//! assertions live in `most-bench`'s unit tests; this is the end-to-end
//! smoke over the full suite, as the `experiments` binary would run it).

use most_bench::experiments::{run_all, run_one};
use most_bench::Scale;

#[test]
fn full_suite_runs_and_every_table_has_rows() {
    let tables = run_all(Scale::Quick);
    assert_eq!(tables.len(), 20);
    for t in &tables {
        assert!(!t.rows.is_empty(), "{} has no rows", t.id);
        assert!(!t.headers.is_empty(), "{} has no headers", t.id);
        for row in &t.rows {
            assert_eq!(row.len(), t.headers.len(), "{} ragged row", t.id);
        }
        // Every table renders.
        let rendered = t.to_string();
        assert!(rendered.contains(&t.id));
    }
    // All experiment ids present in order.
    let ids: Vec<&str> = tables.iter().map(|t| t.id.as_str()).collect();
    assert_eq!(
        ids,
        vec![
            "F1", "E1", "E2", "E3", "E4", "E4b", "E5", "E6", "E6b", "E7", "E8", "E9", "E10", "E11",
            "E12", "E13", "E15", "E16", "E17", "MICRO"
        ]
    );
}

#[test]
fn quick_report_is_deterministic_after_stabilize() {
    // The binary stabilizes wall-clock columns under --quick; the rendered
    // output of two runs must then be identical.
    let render = || {
        let mut out = String::new();
        for mut t in run_all(Scale::Quick) {
            t.stabilize();
            out.push_str(&t.to_string());
        }
        out
    };
    assert_eq!(render(), render());
}

#[test]
fn run_one_dispatches_ids() {
    assert!(run_one("fig1", Scale::Quick).is_some());
    assert!(run_one("E5", Scale::Quick).is_some());
    assert!(run_one("nope", Scale::Quick).is_none());
}
