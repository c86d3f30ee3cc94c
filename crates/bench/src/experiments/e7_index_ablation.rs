//! E7 — index ablation: the Section 4 tree vs scan.
//!
//! Section 4 leaves the decomposition open ("usually into rectangles") and
//! Section 7 plans to "experimentally compare various mechanisms for
//! indexing dynamic attributes" — this is that comparison, over both a
//! read-only and an update-heavy regime.  An STR-packed R-tree ran beside
//! the tree until no column separated the two by more than 1.3× over eight
//! full-scale runs; its rows are kept in EXPERIMENTS.md.

use crate::table::{fmt_duration, fmt_f64};
use crate::{Scale, Table};
use most_index::{DynamicAttributeIndex, ScanIndex};
use most_testkit::rng::Rng;
use std::time::Instant;

/// Runs the tree and the scan over the same workload.
pub fn run(scale: Scale) -> Table {
    let n = scale.pick(2_000usize, 50_000usize);
    let queries = scale.pick(15usize, 100usize);
    let updates = scale.pick(300usize, 5_000usize);
    let lifetime = 1_000u64;
    let mut table = Table::new(
        "E7",
        "index ablation on one dynamic attribute (same query results asserted)",
        &[
            "structure",
            "build",
            "query (avg)",
            "nodes/query",
            "update (avg)",
            "continuous query (avg)",
        ],
    );
    let value_range = (-(n as f64), 2.0 * n as f64);
    let window = n as f64 / 100.0;

    let gen_objects = |seed: u64| {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n as u64)
            .map(|i| {
                (
                    i,
                    rng.random_range(0.0..n as f64),
                    rng.random_range(-0.5..0.5),
                )
            })
            .collect::<Vec<_>>()
    };
    let objects = gen_objects(5);
    let mut rng = Rng::seed_from_u64(6);
    let probes: Vec<(u64, f64)> = (0..queries)
        .map(|_| {
            (
                rng.random_range(0..lifetime),
                rng.random_range(0.0..(n as f64 - window)),
            )
        })
        .collect();
    let update_plan: Vec<(u64, u64, f64, f64)> = (0..updates)
        .map(|i| {
            (
                rng.random_range(0..n as u64),
                (i as u64 % lifetime).max(1),
                rng.random_range(0.0..n as f64),
                rng.random_range(-0.5..0.5),
            )
        })
        .collect();

    // The tree.
    let t0 = Instant::now();
    let mut idx = DynamicAttributeIndex::new(lifetime, value_range);
    for &(id, v, s) in &objects {
        idx.insert(id, 0, v, s);
    }
    let build = t0.elapsed();
    let mut nodes = 0.0;
    let t0 = Instant::now();
    let reference: Vec<Vec<u64>> = probes
        .iter()
        .map(|&(at, lo)| {
            let (ids, stats) = idx
                .instantaneous(at, lo, lo + window)
                .expect("the index covers the query");
            nodes += (stats.nodes_visited + stats.candidates) as f64 / queries as f64;
            ids
        })
        .collect();
    let query_time = t0.elapsed() / queries as u32;
    // Update-heavy phase (sorted by tick so updates move forward).
    let mut plan = update_plan.clone();
    plan.sort_by_key(|&(_, t, _, _)| t);
    let t0 = Instant::now();
    for &(id, t, v, s) in &plan {
        idx.update(id, t, v, s);
    }
    let update_time = t0.elapsed() / updates as u32;
    // Continuous queries after updates.
    let t0 = Instant::now();
    for &(_, lo) in probes.iter().take(queries / 3) {
        let _ = idx
            .continuous(0, lo, lo + window)
            .expect("the index covers the query");
    }
    let cont_time = t0.elapsed() / (queries / 3).max(1) as u32;
    table.row(vec![
        "quadtree".into(),
        fmt_duration(build),
        fmt_duration(query_time),
        fmt_f64(nodes),
        fmt_duration(update_time),
        fmt_duration(cont_time),
    ]);

    // The scan.
    let t0 = Instant::now();
    let mut scan = ScanIndex::new();
    for &(id, v, s) in &objects {
        scan.upsert(id, 0, v, s);
    }
    let build = t0.elapsed();
    let mut nodes = 0.0;
    let t0 = Instant::now();
    let results: Vec<Vec<u64>> = probes
        .iter()
        .map(|&(at, lo)| {
            let (ids, stats) = scan.instantaneous(at, lo, lo + window);
            nodes += stats.nodes_visited as f64 / queries as f64;
            ids
        })
        .collect();
    let query_time = t0.elapsed() / queries as u32;
    assert_eq!(reference, results, "scan results differ");
    let t0 = Instant::now();
    for &(id, t, v, s) in &update_plan {
        scan.upsert(id, t, v, s);
    }
    let update_time = t0.elapsed() / updates as u32;
    table.row(vec![
        "scan (baseline)".into(),
        fmt_duration(build),
        fmt_duration(query_time),
        fmt_f64(nodes),
        fmt_duration(update_time),
        "n/a".into(),
    ]);
    table.note(format!(
        "n = {n}; 1% selectivity; the tree and the scan return identical answers \
         (asserted).  Scan updates are O(1) but every query pays O(n)."
    ));
    table.mark_measured(&[
        "build",
        "query (avg)",
        "update (avg)",
        "continuous query (avg)",
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tree_visits_fewer_entries_than_scan() {
        let t = run(Scale::Quick);
        let tree_nodes = t.cell_f64(0, "nodes/query").unwrap();
        let scan_nodes = t.cell_f64(1, "nodes/query").unwrap();
        assert!(tree_nodes < scan_nodes / 3.0);
    }
}
