//! E14 — index-pruned candidates in the refresh pass: full enumeration vs
//! the dynamic-attribute index.
//!
//! Claim under test (§2.3 + §4): a continuous query's answer "has to be
//! reevaluated when an update occurs", and §4 introduces indexing so the
//! evaluator can "avoid examining each moving object in the database".
//! With [`Database::enable_attr_index`] on, attribute-range atoms
//! (`o.PRICE <= c`) fetch index-pruned candidate id-sets instead of
//! enumerating the whole domain, on every refresh.
//!
//! The two regimes differ by state, not by an option: the same database
//! with and without the index.  Both must produce byte-identical final
//! displays — asserted in [`run`] itself, so the CI smoke gate
//! (`experiments e14 --quick`) fails loudly if pruning ever changes an
//! answer.  The quick run also asserts a strict reduction in candidate
//! bindings evaluated (`ftl.candidates_evaluated`) for the indexed regime.

use crate::table::{fmt_duration, fmt_f64};
use crate::{Scale, Table};
use most_core::{Database, IndexKind, UpdateOp};
use most_dbms::value::Value;
use most_ftl::Query;
use most_spatial::{Polygon, Velocity};
use most_workload::cars::CarScenario;
use std::time::{Duration, Instant};

/// One regime's outcome over the shared update script.
struct Outcome {
    /// Final display of every continuous query (soundness witness).
    displays: Vec<Vec<Vec<Value>>>,
    /// Candidate bindings the evaluator actually evaluated.
    candidates: u64,
    /// Atoms answered from an index-pruned candidate set.
    pruned_atoms: u64,
    /// Wall-clock for driving the whole window.
    time: Duration,
}

/// The deterministic update script: each tick applies two mixed batches —
/// motion first, then PRICE — so dependency classification has something
/// to classify and the index absorbs writes between refreshes.
fn drive(n_objects: usize, n_queries: usize, ticks: u64, batch: usize, indexed: bool) -> Outcome {
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
    if indexed {
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
    let pruned0 = most_obs::counter_value("ftl.pruned");
    let t0 = Instant::now();
    for t in 1..=ticks {
        db.advance_clock(1);
        // Two batches per tick: motion, then PRICE.
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

/// Measures the two regimes on one mixed workload.
pub fn run(scale: Scale) -> Table {
    let n_objects = scale.pick(40usize, 800usize);
    let n_queries = scale.pick(9usize, 48usize);
    let ticks = scale.pick(6u64, 20u64);
    let batch = scale.pick(4usize, 24usize);
    let mut table = Table::new(
        "E14",
        "attribute-index-pruned candidates in the refresh pass (final displays \
         identical with and without the index)",
        &[
            "objects",
            "CQs",
            "regime",
            "candidates evaluated",
            "pruned atoms",
            "time",
            "speedup vs enumeration",
        ],
    );
    let plain = drive(n_objects, n_queries, ticks, batch, false);
    let indexed = drive(n_objects, n_queries, ticks, batch, true);
    for (label, out) in [("no attribute index", &plain), ("attribute index", &indexed)] {
        table.row(vec![
            n_objects.to_string(),
            n_queries.to_string(),
            label.to_owned(),
            out.candidates.to_string(),
            out.pruned_atoms.to_string(),
            fmt_duration(out.time),
            fmt_f64(plain.time.as_secs_f64() / out.time.as_secs_f64().max(1e-9)),
        ]);
    }

    // The soundness + perf smoke gate: these hold on every run, including
    // `experiments e14 --quick` in CI.
    assert_eq!(
        indexed.displays, plain.displays,
        "indexed evaluation changed an answer"
    );
    if most_obs::is_enabled() {
        assert!(
            indexed.candidates < plain.candidates,
            "index pruning must evaluate strictly fewer candidate bindings than \
             enumeration ({} vs {})",
            indexed.candidates,
            plain.candidates
        );
        assert!(indexed.pruned_atoms > 0, "no atom used a pruned candidate set");
        assert_eq!(plain.pruned_atoms, 0, "nothing to prune from without an index");
    }

    table.note(
        "Mixed workload: every tick applies a motion batch then a PRICE batch \
         over spatial, attribute-range and conjunctive continuous queries.  \
         The first row enumerates the whole domain for every atom; the second \
         answers PRICE-range atoms from index-pruned candidate sets (the \
         Section 4 dynamic-attribute index, maintained at tick boundaries).  \
         Final displays are asserted byte-identical across both regimes and \
         candidate counts strictly decreasing — the CI quick run is the smoke \
         gate.",
    );
    table.mark_measured(&["time", "speedup vs enumeration"]);
    table
}
