//! E10 — the continuous-query refresh engine: dependency-filtered refresh.
//!
//! Claim under test (§2.3): `Answer(CQ)` "has to be reevaluated when an
//! update occurs **that may change the set of tuples**".  The refresh
//! engine makes the qualifier operational (static dependency sets,
//! `most-core::deps`) instead of re-evaluating every registered query on
//! every update.
//!
//! The workload is *mixed-attribute* on purpose: motion batches and
//! PRICE batches alternate, spatial and attribute queries are registered
//! half and half, so roughly half of all (update-batch × query) pairs are
//! irrelevant and filterable.  [`run`] itself asserts that every
//! (batch × query) pair is either skipped or evaluated, that something was
//! skipped, and that every final display equals a fresh evaluation of its
//! query — so the CI smoke gate (`experiments e10 --quick`) fails loudly
//! if filtering ever changes an answer or stops filtering.

use crate::table::fmt_duration;
use crate::{Scale, Table};
use most_core::{Database, UpdateOp};
use most_dbms::value::Value;
use most_ftl::Query;
use most_spatial::{Polygon, Velocity};
use most_workload::cars::CarScenario;
use std::time::{Duration, Instant};

/// The outcome of the update script.
struct Outcome {
    /// Final display of every continuous query.
    displays: Vec<Vec<Vec<Value>>>,
    /// What a fresh evaluation of every query displays at the same tick
    /// (soundness witness).
    fresh: Vec<Vec<Vec<Value>>>,
    /// Refresh evaluations actually performed (answer-changing + no-op),
    /// excluding the per-query registration evaluation.
    evals: u64,
    /// Refreshes skipped by dependency filtering.
    skipped: u64,
    /// Explicit updates applied.
    updates: u64,
    /// Wall-clock for driving the whole window.
    time: Duration,
}

/// The deterministic update script: odd ticks send a motion batch, even
/// ticks a PRICE batch, so dependency filtering has something to filter.
fn drive(n_objects: usize, n_queries: usize, ticks: u64, batch: usize) -> Outcome {
    let scenario = CarScenario {
        count: n_objects,
        area: 400.0,
        speed: (0.5, 2.0),
        mean_update_gap: 1e18, // scripted updates below, none from the plan
        horizon: ticks,
        seed: 42,
    };
    let plans = scenario.generate();
    let mut db = Database::new(ticks + 200);
    for (i, rect) in region_grid().into_iter().enumerate() {
        db.add_region(format!("P{i}"), rect);
    }
    let ids = scenario.populate(&mut db, &plans);
    let cqs: Vec<(u64, Query)> = (0..n_queries)
        .map(|q| {
            let src = if q % 2 == 0 {
                // Position-dependent: relevant to motion batches only.
                format!("RETRIEVE o WHERE Eventually within 100 INSIDE(o, P{})", q / 2 % 8)
            } else {
                // Attribute-dependent: relevant to PRICE batches only.
                format!("RETRIEVE o WHERE o.PRICE <= {}", 60 + (q * 13) % 130)
            };
            let query = Query::parse(&src).expect("query parses");
            (db.register_continuous(query.clone()).expect("register"), query)
        })
        .collect();
    let evals_at_register = db.continuous_evaluations() + db.noop_refreshes();

    let t0 = Instant::now();
    let mut updates = 0u64;
    for t in 1..=ticks {
        db.advance_clock(1);
        let ops: Vec<UpdateOp> = (0..batch)
            .map(|j| {
                let i = ((t as usize) * 17 + j * 31) % ids.len();
                if t % 2 == 1 {
                    // Deterministic, answer-changing velocity tweak.
                    let phase = ((t as usize + j + i) % 5) as f64;
                    UpdateOp::Motion {
                        id: ids[i],
                        velocity: Velocity::new(0.4 * phase - 0.8, 0.3 * phase - 0.6),
                    }
                } else {
                    let price = 40.0 + (((t as usize) * 13 + i * 7) % 160) as f64;
                    UpdateOp::Static {
                        id: ids[i],
                        attr: "PRICE".into(),
                        value: Value::from(price),
                    }
                }
            })
            .collect();
        updates += ops.len() as u64;
        db.apply_updates(&ops).expect("scripted updates are valid");
    }
    let time = t0.elapsed();

    let now = db.now();
    let displays = cqs
        .iter()
        .map(|(cq, _)| db.continuous_display(*cq, now).expect("display"))
        .collect();
    let fresh = cqs
        .iter()
        .map(|(_, query)| {
            let answer = db.instantaneous_readonly(query).expect("fresh evaluation");
            answer.at_tick(now).into_iter().map(|t| t.values.clone()).collect()
        })
        .collect();
    Outcome {
        displays,
        fresh,
        evals: db.continuous_evaluations() + db.noop_refreshes() - evals_at_register,
        skipped: db.skipped_refreshes(),
        updates,
        time,
    }
}

/// Eight region rectangles the spatial queries cycle through.
fn region_grid() -> Vec<Polygon> {
    (0..8)
        .map(|i| {
            let x0 = -400.0 + 100.0 * i as f64;
            Polygon::rectangle(x0, -120.0, x0 + 140.0, 120.0)
        })
        .collect()
}

/// Measures the filtered refresh pass on one mixed-attribute workload.
pub fn run(scale: Scale) -> Table {
    let n_objects = scale.pick(40usize, 1_000usize);
    let n_queries = scale.pick(8usize, 64usize);
    let ticks = scale.pick(8u64, 24u64);
    let batch = scale.pick(4usize, 32usize);
    let mut table = Table::new(
        "E10",
        "refresh engine: dependency filtering (final displays equal a fresh evaluation)",
        &["objects", "CQs", "updates", "evaluations", "skipped", "time"],
    );
    let out = drive(n_objects, n_queries, ticks, batch);
    table.row(vec![
        n_objects.to_string(),
        n_queries.to_string(),
        out.updates.to_string(),
        out.evals.to_string(),
        out.skipped.to_string(),
        fmt_duration(out.time),
    ]);

    // The perf smoke gate: these hold on every run, including
    // `experiments e10 --quick` in CI.
    assert_eq!(out.displays, out.fresh, "a maintained display differs from a fresh query");
    assert_eq!(
        out.evals + out.skipped,
        ticks * n_queries as u64,
        "every (batch × query) pair is either skipped or evaluated"
    );
    assert!(out.skipped > 0, "nothing was filtered");

    table.note(
        "Mixed-attribute workload: motion batches (odd ticks) and PRICE batches \
         (even ticks) over half-spatial / half-attribute continuous queries, \
         applied through the batched SharedDatabase-style apply_updates entry \
         point (one refresh pass per batch).  Dependency filtering skips every \
         (batch × query) pair outside the query's statically-extracted DepSet.  \
         Final displays are asserted equal to a fresh evaluation of each query, \
         evaluations + skipped is asserted equal to batches × queries, and \
         skipped is asserted non-zero — the CI quick run is the perf smoke gate.",
    );
    table.mark_measured(&["time"]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filtering_skips_half_the_pairs() {
        // `run` itself asserts soundness and conservation; here we re-check
        // the table shape.
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 1);
        let evaluated = t.cell_f64(0, "evaluations").unwrap();
        let skipped = t.cell_f64(0, "skipped").unwrap();
        assert_eq!(evaluated, skipped, "each batch is irrelevant to half the queries");
    }
}
