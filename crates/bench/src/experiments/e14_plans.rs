//! E14 — compiled FTL query plans: interpreter vs compiled (per-atom
//! interval caching) vs compiled + index-pruned candidates.
//!
//! Claim under test (§2.3 + §4): a continuous query's answer "has to be
//! reevaluated when an update occurs", but the re-evaluation need not
//! repeat work the update cannot have touched.  The compiled-plan engine
//! lowers each registered query once into a flat atom plan; across
//! refreshes it (a) replays cached per-atom interval relations whose
//! dependency set the batch did not touch (a PRICE-only batch re-derives
//! only attribute atoms), and (b) fetches index-pruned candidate id-sets
//! for spatial and attribute-range atoms instead of enumerating the whole
//! domain — the Section 4 index purpose, "avoid examining each moving
//! object in the database".
//!
//! Every regime must produce byte-identical final displays — asserted in
//! [`run`] itself, so the CI smoke gate (`experiments e14 --quick`) fails
//! loudly if compilation, caching, or pruning ever changes an answer.
//! The quick run also asserts a strict reduction in candidate bindings
//! evaluated (`ftl.candidates_evaluated`) for the indexed regime and a
//! non-zero atom-cache hit count for the compiled regimes.

use crate::table::{fmt_duration, fmt_f64};
use crate::{Scale, Table};
use most_core::{Database, IndexKind, UpdateOp};
use most_dbms::value::Value;
use most_ftl::Query;
use most_spatial::{Polygon, Rect, Velocity};
use most_workload::cars::CarScenario;
use std::time::{Duration, Instant};

/// One regime's outcome over the shared update script.
struct Outcome {
    /// Final display of every continuous query (soundness witness).
    displays: Vec<Vec<Vec<Value>>>,
    /// Candidate bindings the evaluator actually evaluated.
    candidates: u64,
    /// Atom-cache hits (relations replayed instead of recomputed).
    cache_hits: u64,
    /// Atoms answered from an index-pruned candidate set.
    pruned_atoms: u64,
    /// Wall-clock for driving the whole window.
    time: Duration,
}

/// Which acceleration layers a regime enables.
#[derive(Clone, Copy)]
struct Regime {
    compiled: bool,
    indexed: bool,
}

/// The deterministic update script: each tick applies two mixed batches —
/// motion first, then PRICE — so per-atom caching has same-tick replays to
/// serve (a PRICE batch finds every spatial atom still cached) and
/// dependency classification has something to classify.
fn drive(n_objects: usize, n_queries: usize, ticks: u64, batch: usize, regime: Regime) -> Outcome {
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
    db.set_compiled_plans(regime.compiled);
    if regime.indexed {
        db.enable_spatial_index(Rect::new(-500.0, -500.0, 500.0, 500.0));
        db.enable_attr_index("PRICE", IndexKind::RTree, (-10_000.0, 10_000.0));
    }
    for (i, rect) in region_grid().into_iter().enumerate() {
        db.add_region(format!("P{i}"), rect);
    }
    let ids = scenario.populate(&mut db, &plans);
    // Seed every car with a PRICE so attribute atoms and the attribute
    // index have real lines to work with.
    for (i, &id) in ids.iter().enumerate() {
        db.set_static(id, "PRICE", Value::from(40.0 + ((i * 7) % 160) as f64))
            .expect("cars admit PRICE");
    }
    let cqs: Vec<u64> = (0..n_queries)
        .map(|q| {
            let src = match q % 3 {
                0 => format!(
                    "RETRIEVE o WHERE Eventually within 100 INSIDE(o, P{})",
                    q / 3 % 8
                ),
                1 => format!("RETRIEVE o WHERE o.PRICE <= {}", 60 + (q * 13) % 130),
                _ => format!(
                    "RETRIEVE o WHERE Eventually within 100 (INSIDE(o, P{}) AND o.PRICE <= {})",
                    q / 3 % 8,
                    60 + (q * 11) % 130
                ),
            };
            db.register_continuous(Query::parse(&src).expect("query parses"))
                .expect("register")
        })
        .collect();

    let candidates0 = most_obs::counter_value("ftl.candidates_evaluated");
    let hits0 = most_obs::counter_value("ftl.plan.cache_hits");
    let pruned0 = most_obs::counter_value("ftl.pruned");
    let t0 = Instant::now();
    for t in 1..=ticks {
        db.advance_clock(1);
        // Two batches per tick: motion, then PRICE.  The second batch hits
        // the same-tick cache — only attribute atoms re-derive.
        for (phase, motion) in [(0usize, true), (1usize, false)] {
            let ops: Vec<UpdateOp> = (0..batch)
                .map(|j| {
                    let i = ((t as usize) * 17 + j * 31 + phase * 5) % ids.len();
                    if motion {
                        let k = ((t as usize + j + i) % 5) as f64;
                        UpdateOp::Motion {
                            id: ids[i],
                            velocity: Velocity::new(0.4 * k - 0.8, 0.3 * k - 0.6),
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
            db.apply_updates(&ops).expect("scripted updates are valid");
        }
        // Index maintenance rides the tick boundary, exactly as the epoch
        // engine does before publishing a snapshot.
        db.maintain_spatial_index();
        db.maintain_attr_index();
    }
    let time = t0.elapsed();

    let now = db.now();
    let displays = cqs
        .iter()
        .map(|&cq| db.continuous_display(cq, now).expect("display"))
        .collect();
    Outcome {
        displays,
        candidates: most_obs::counter_value("ftl.candidates_evaluated") - candidates0,
        cache_hits: most_obs::counter_value("ftl.plan.cache_hits") - hits0,
        pruned_atoms: most_obs::counter_value("ftl.pruned") - pruned0,
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

/// Measures the three evaluation regimes on one mixed workload.
pub fn run(scale: Scale) -> Table {
    let n_objects = scale.pick(40usize, 800usize);
    let n_queries = scale.pick(9usize, 48usize);
    let ticks = scale.pick(6u64, 20u64);
    let batch = scale.pick(4usize, 24usize);
    let mut table = Table::new(
        "E14",
        "compiled FTL plans: per-atom interval caching and index-pruned \
         candidates (final displays identical under every regime)",
        &[
            "objects",
            "CQs",
            "regime",
            "candidates evaluated",
            "cache hits",
            "pruned atoms",
            "time",
            "speedup vs interpreter",
        ],
    );
    let regimes = [
        ("interpreter", Regime { compiled: false, indexed: false }),
        ("compiled", Regime { compiled: true, indexed: false }),
        ("compiled + index", Regime { compiled: true, indexed: true }),
    ];
    let mut outcomes: Vec<Outcome> = Vec::new();
    for (label, regime) in &regimes {
        let out = drive(n_objects, n_queries, ticks, batch, *regime);
        table.row(vec![
            n_objects.to_string(),
            n_queries.to_string(),
            (*label).to_string(),
            out.candidates.to_string(),
            out.cache_hits.to_string(),
            out.pruned_atoms.to_string(),
            fmt_duration(out.time),
            fmt_f64(outcomes.first().map_or(1.0, |base: &Outcome| {
                base.time.as_secs_f64() / out.time.as_secs_f64().max(1e-9)
            })),
        ]);
        outcomes.push(out);
    }

    // The soundness + perf smoke gate: these hold on every run, including
    // `experiments e14 --quick` in CI.
    let interp = &outcomes[0];
    for (i, out) in outcomes.iter().enumerate().skip(1) {
        assert_eq!(
            out.displays, interp.displays,
            "{}: compiled/indexed evaluation changed an answer",
            regimes[i].0
        );
    }
    if most_obs::is_enabled() {
        assert!(
            outcomes[1].cache_hits > 0,
            "compiled regime replayed no cached atoms"
        );
        assert!(
            outcomes[1].candidates < interp.candidates,
            "per-atom caching must evaluate strictly fewer candidate bindings \
             ({} vs {})",
            outcomes[1].candidates,
            interp.candidates
        );
        assert!(
            outcomes[2].candidates < outcomes[1].candidates,
            "index pruning must evaluate strictly fewer candidate bindings than \
             caching alone ({} vs {})",
            outcomes[2].candidates,
            outcomes[1].candidates
        );
        assert!(outcomes[2].pruned_atoms > 0, "no atom used a pruned candidate set");
        assert_eq!(
            interp.cache_hits, 0,
            "the interpreter regime must not touch the atom cache"
        );
    }

    table.note(
        "Mixed workload: every tick applies a motion batch then a PRICE batch \
         over spatial, attribute-range and conjunctive continuous queries.  \
         The interpreter row re-walks each query AST per refresh; the \
         compiled row replays per-atom interval relations cached across \
         same-tick batches and invalidated per dependency set (a PRICE batch \
         re-derives only attribute atoms); the indexed row additionally \
         answers INSIDE and PRICE-range atoms from index-pruned candidate \
         sets (Section 4 position index + dynamic-attribute index, \
         maintained at tick boundaries).  Final displays are asserted \
         byte-identical across all regimes and candidate counts strictly \
         decreasing — the CI quick run is the smoke gate.",
    );
    table.mark_measured(&["time", "speedup vs interpreter"]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_and_indexed_strictly_reduce_candidates() {
        // `run` itself asserts display equality and the strict candidate
        // reductions; here we re-check the table shape.  Through `run_one`,
        // so the counter deltas are taken under the experiment lock.
        let t = crate::experiments::run_one("e14", Scale::Quick).expect("e14 exists");
        assert_eq!(t.rows.len(), 3);
        let interp = t.cell_f64(0, "candidates evaluated").unwrap();
        let compiled = t.cell_f64(1, "candidates evaluated").unwrap();
        let indexed = t.cell_f64(2, "candidates evaluated").unwrap();
        if most_obs::is_enabled() {
            assert!(compiled < interp, "compiled {compiled} vs interpreter {interp}");
            assert!(indexed < compiled, "indexed {indexed} vs compiled {compiled}");
            assert_eq!(t.cell_f64(0, "cache hits"), Some(0.0));
            assert!(t.cell_f64(1, "cache hits").unwrap() > 0.0);
            assert!(t.cell_f64(2, "pruned atoms").unwrap() > 0.0);
        }
    }
}
