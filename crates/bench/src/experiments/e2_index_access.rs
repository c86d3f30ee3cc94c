//! E2 — dynamic-attribute index access time vs linear scan.
//!
//! Claim (§4): the function-line index "guarantees logarithmic (in the
//! number of objects) access time", where the straightforward alternative
//! examines every object.

use crate::table::{fmt_duration, fmt_f64};
use crate::{Scale, Table};
use most_index::{DynamicAttributeIndex, ScanIndex};
use most_testkit::rng::Rng;
use std::time::Instant;

/// Builds an index + scan baseline with `n` objects and measures a batch of
/// 1%-selectivity instantaneous range queries.
pub fn run(scale: Scale) -> Table {
    let sizes: &[usize] = match scale {
        Scale::Quick => &[1_000, 4_000],
        Scale::Full => &[1_000, 8_000, 64_000, 256_000],
    };
    let queries = scale.pick(10, 50);
    let lifetime = 1_000u64;
    let mut table = Table::new(
        "E2",
        "instantaneous range query: Section 4 index vs full scan",
        &[
            "objects",
            "index nodes visited",
            "scan entries visited",
            "visit ratio",
            "index time/query",
            "scan time/query",
            "results equal",
        ],
    );
    for &n in sizes {
        let mut rng = Rng::seed_from_u64(7);
        let value_range = (-(n as f64), 2.0 * n as f64);
        let mut idx = DynamicAttributeIndex::new(lifetime, value_range);
        let mut scan = ScanIndex::new();
        for i in 0..n as u64 {
            let v0 = rng.random_range(0.0..n as f64);
            let slope = rng.random_range(-0.5..0.5);
            idx.insert(i, 0, v0, slope);
            scan.upsert(i, 0, v0, slope);
        }
        // 1% selectivity value windows at random times.
        let window = n as f64 / 100.0;
        let probes: Vec<(u64, f64)> = (0..queries)
            .map(|_| {
                (
                    rng.random_range(0..lifetime),
                    rng.random_range(0.0..(n as f64 - window)),
                )
            })
            .collect();
        let mut idx_nodes = 0.0;
        let mut scan_nodes = 0.0;
        let mut equal = true;
        let t0 = Instant::now();
        let mut idx_results = Vec::new();
        for &(at, lo) in &probes {
            let (ids, stats) = idx
                .instantaneous(at, lo, lo + window)
                .expect("the index covers the query");
            idx_nodes += (stats.nodes_visited + stats.candidates) as f64 / queries as f64;
            idx_results.push(ids);
        }
        let idx_time = t0.elapsed() / queries as u32;
        let t0 = Instant::now();
        for (probe, want) in probes.iter().zip(&idx_results) {
            let (ids, stats) = scan.instantaneous(probe.0, probe.1, probe.1 + window);
            scan_nodes += stats.nodes_visited as f64 / queries as f64;
            equal &= &ids == want;
        }
        let scan_time = t0.elapsed() / queries as u32;
        table.row(vec![
            n.to_string(),
            fmt_f64(idx_nodes),
            fmt_f64(scan_nodes),
            fmt_f64(scan_nodes / idx_nodes.max(1.0)),
            fmt_duration(idx_time),
            fmt_duration(scan_time),
            equal.to_string(),
        ]);
    }
    table.note(
        "Claimed shape: scan visits n entries per query; the index visits \
         O(log n) nodes plus the candidates, so the visit ratio grows with n.",
    );
    table.mark_measured(&["index time/query", "scan time/query"]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_beats_scan_and_gap_grows() {
        let t = run(Scale::Quick);
        let ratios: Vec<f64> = (0..t.rows.len())
            .map(|r| t.cell_f64(r, "visit ratio").unwrap())
            .collect();
        assert!(ratios[0] > 2.0, "ratio at smallest n: {}", ratios[0]);
        assert!(
            ratios.last().unwrap() > &ratios[0],
            "gap should grow with n: {ratios:?}"
        );
        for r in 0..t.rows.len() {
            assert_eq!(t.cell(r, "results equal"), Some("true"));
        }
    }
}
