//! E8 — sweeping the index reconstruction period T.
//!
//! "Choosing an appropriate value for T is an important future-research
//! question" (§4).  The trade-off: a small T reconstructs often (rebuild
//! work) but keeps the function-lines short (tight cells, cheap queries);
//! a large T amortizes rebuilds but accumulates stale line prefixes from
//! updates, inflating query work — and continuous queries can only see to
//! the end of the current epoch.  Before each operation at tick `t` the
//! index rolls with reach 0: it reconstructs once `t` leaves
//! `[epoch, epoch + T]`, and the new epoch starts at `t`.

use crate::table::fmt_duration;
use crate::{Scale, Table};
use most_index::DynamicAttributeIndex;
use most_testkit::rng::Rng;
use std::time::Instant;

/// Replays one update/query workload over `[0, horizon]` for several T.
pub fn run(scale: Scale) -> Table {
    let n = scale.pick(400usize, 10_000usize);
    let horizon = scale.pick(4_000u64, 20_000u64);
    let ops = scale.pick(1_000usize, 20_000usize);
    let mut table = Table::new(
        "E8",
        "reconstruction period T: rebuild work vs query work (fixed workload)",
        &[
            "T",
            "rebuilds",
            "objects reinserted",
            "avg query time",
            "avg update time",
            "total time",
        ],
    );
    // A fixed interleaved workload: 80% updates, 20% queries, spread over
    // the horizon.
    let mut rng = Rng::seed_from_u64(23);
    #[derive(Clone, Copy)]
    enum Op {
        Update(u64, f64, f64),
        Query(f64),
    }
    let schedule: Vec<(u64, Op)> = (0..ops)
        .map(|i| {
            let t = (i as u64 * horizon) / ops as u64;
            if rng.random_range(0.0..1.0) < 0.8 {
                (
                    t,
                    Op::Update(
                        rng.random_range(0..n as u64),
                        rng.random_range(0.0..n as f64),
                        rng.random_range(-0.5..0.5),
                    ),
                )
            } else {
                (t, Op::Query(rng.random_range(0.0..n as f64 * 0.99)))
            }
        })
        .collect();
    let window = n as f64 / 100.0;

    for period in [horizon / 16, horizon / 4, horizon, horizon * 2] {
        let mut idx = DynamicAttributeIndex::new(period, (-(n as f64), 2.0 * n as f64));
        let t_total = Instant::now();
        for i in 0..n as u64 {
            idx.insert(i, 0, (i as f64) % (n as f64), 0.1);
        }
        let (mut rebuilds, mut reinserted) = (0u64, 0usize);
        let mut query_time = std::time::Duration::ZERO;
        let mut update_time = std::time::Duration::ZERO;
        let mut queries = 0u32;
        let mut updates = 0u32;
        let mut results = 0usize;
        for &(t, op) in &schedule {
            // The roll is timed with the operation that triggers it.
            let t0 = Instant::now();
            if idx.roll_to(t, 0) {
                rebuilds += 1;
                reinserted += idx.len();
            }
            match op {
                Op::Update(id, v, s) => {
                    idx.update(id, t, v, s);
                    update_time += t0.elapsed();
                    updates += 1;
                }
                Op::Query(lo) => {
                    let (ids, _) = idx
                        .instantaneous(t, lo, lo + window)
                        .expect("the index covers the query");
                    query_time += t0.elapsed();
                    queries += 1;
                    results += ids.len();
                }
            }
        }
        let total = t_total.elapsed();
        let _ = results;
        table.row(vec![
            period.to_string(),
            rebuilds.to_string(),
            reinserted.to_string(),
            fmt_duration(query_time / queries.max(1)),
            fmt_duration(update_time / updates.max(1)),
            fmt_duration(total),
        ]);
    }
    table.note(format!(
        "n = {n}, horizon = {horizon}, {ops} interleaved operations (80% updates).  \
         Claimed trade-off: rebuild count scales as horizon/T while per-query cost \
         grows with T (longer lines cross more cells and dead prefixes accumulate)."
    ));
    table.mark_measured(&["avg query time", "avg update time", "total time"]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebuild_count_scales_inversely_with_period() {
        let t = run(Scale::Quick);
        let rebuilds: Vec<f64> = (0..t.rows.len())
            .map(|r| t.cell_f64(r, "rebuilds").unwrap())
            .collect();
        // T = horizon/16 → ~15 rebuilds; T = 2·horizon → 0.
        assert!(rebuilds[0] >= 8.0, "small T rebuilds: {rebuilds:?}");
        assert_eq!(*rebuilds.last().unwrap(), 0.0);
        assert!(rebuilds.windows(2).all(|w| w[0] >= w[1]));
    }
}
