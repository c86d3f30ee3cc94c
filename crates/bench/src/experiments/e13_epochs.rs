//! E13 — epoch snapshots: refresh-vs-read overlap before/after the MVCC
//! engine.
//!
//! PR 6 replaced the global-lock read path with epoch snapshots
//! (`most_core::epoch`): update batches accumulate into epoch E+1 and the
//! continuous-query refresh they trigger runs on the writer's private
//! copy, while readers answer from a pinned immutable epoch E with no
//! lock held.  This experiment quantifies what that buys and gates what
//! it must not break:
//!
//! * **Phase A (lifecycle, the CI gate):** a seeded single-threaded
//!   script drives `EpochDb` step by step with a slow subscriber pinning
//!   epoch 0 throughout.  After every step the published snapshot must be
//!   **byte-identical** (canonical JSON across instantaneous, continuous
//!   and persistent answers) to a single-threaded oracle replaying the
//!   same script, and the accounting must conserve
//!   (`created == retired + live`, `live <= 2` with the one long pin).
//!   All asserted in-run; this phase is deterministic, so the `epoch.*`
//!   gauges land in the CI-diffed metrics block.
//! * **Phase B (overlap, measured):** closed-loop readers pin epochs and
//!   issue a fixed number of instantaneous queries while a writer applies
//!   update batches that trigger CQ refresh and publish concurrently.
//!   Every reader answer is verified in-run against the oracle's state at
//!   the pinned epoch (exact equality).  Observability is disabled around
//!   this phase so the nondeterministic interleaving never leaks into the
//!   metrics snapshot.  The pre-PR-6 `RwLock<Database>` engine this phase
//!   used to run beside it is gone; its last measured rows are recorded
//!   in EXPERIMENTS.md (E13).

use crate::table::{fmt_duration, fmt_f64};
use crate::{Scale, Table};
use most_core::{Database, SharedDatabase, UpdateOp};
use most_dbms::value::Value;
use most_ftl::Query;
use most_spatial::{Point, Polygon, Rect, Velocity};
use most_testkit::rng::Rng;
use most_testkit::ser::to_json_string;
use std::thread;
use std::time::{Duration, Instant};

const SEED: u64 = 0xE13;

/// One writer action; under `EpochDb` each publishes exactly one epoch.
#[derive(Debug, Clone)]
enum Step {
    Advance(u64),
    Batch(Vec<UpdateOp>),
}

fn build_world(objects: usize, cqs: usize) -> (Database, Vec<u64>, u64) {
    let mut rng = Rng::seed_from_u64(SEED);
    let mut db = Database::new(400);
    db.add_region("P", Polygon::rectangle(-60.0, -60.0, 60.0, 60.0));
    let mut ids = Vec::new();
    for i in 0..objects {
        let p = Point::new(rng.random_range(-150.0..150.0), rng.random_range(-150.0..150.0));
        let v = Velocity::new(rng.random_range(-2.0..2.0), rng.random_range(-2.0..2.0));
        let id = db.insert_moving_object("cars", p, v);
        db.set_static(id, "PRICE", (50.0 + (i % 16) as f64 * 10.0).into()).unwrap();
        ids.push(id);
    }
    db.enable_spatial_index(Rect::new(-3_000.0, -3_000.0, 3_000.0, 3_000.0));
    let mut cq0 = 0;
    for k in 0..cqs {
        let h = 40 + 20 * k;
        let cq = db
            .register_continuous(
                Query::parse(&format!("RETRIEVE o WHERE Eventually within {h} INSIDE(o, P)"))
                    .unwrap(),
            )
            .unwrap();
        if k == 0 {
            cq0 = cq;
        }
    }
    (db, ids, cq0)
}

fn gen_script(ids: &[u64], steps: usize, batch: usize) -> Vec<Step> {
    let mut rng = Rng::seed_from_u64(SEED ^ 0x9e37_79b9_7f4a_7c15);
    (0..steps)
        .map(|k| {
            if k % 3 == 0 {
                Step::Advance(rng.random_range(1..4u64))
            } else {
                let ops = (0..batch)
                    .map(|_| {
                        let id = ids[rng.below(ids.len() as u64) as usize];
                        if rng.random_bool(0.8) {
                            UpdateOp::Motion {
                                id,
                                velocity: Velocity::new(
                                    rng.random_range(-2.0..2.0),
                                    rng.random_range(-2.0..2.0),
                                ),
                            }
                        } else {
                            UpdateOp::Static {
                                id,
                                attr: "PRICE".into(),
                                value: Value::from(rng.random_range(40.0..200.0)),
                            }
                        }
                    })
                    .collect();
                Step::Batch(ops)
            }
        })
        .collect()
}

/// Canonical bytes for one state: clock + all three query types.
fn observe(db: &Database, cq: u64) -> String {
    let inst = Query::parse("RETRIEVE o WHERE Eventually within 60 INSIDE(o, P)").unwrap();
    let pers = Query::parse("RETRIEVE o WHERE Eventually within 30 (o.PRICE <= 90)").unwrap();
    [
        db.now().to_string(),
        to_json_string(&db.instantaneous_readonly(&inst).unwrap()).unwrap(),
        to_json_string(&db.continuous_display(cq, db.now()).unwrap()).unwrap(),
        to_json_string(&db.persistent_answer(&pers, 0).unwrap()).unwrap(),
    ]
    .join("\n")
}

fn apply_step(db: &mut Database, step: &Step) {
    match step {
        Step::Advance(n) => db.advance_clock(*n),
        Step::Batch(ops) => db.apply_updates(ops).expect("script ops are valid"),
    }
}

/// Single-threaded oracle: `expected[e]` is epoch `e`'s canonical bytes.
fn oracle(db0: &Database, script: &[Step], cq: u64) -> Vec<String> {
    let mut db = db0.clone();
    let mut expected = vec![observe(&db, cq)];
    for step in script {
        apply_step(&mut db, step);
        expected.push(observe(&db, cq));
    }
    expected
}

/// The reader workload: `queries` instantaneous evaluations, returning
/// per-query latencies and the number of oracle mismatches observed.
/// `eval` yields the pinned epoch and its canonical bytes, which must be
/// exactly that epoch's oracle state.
fn reader_pass(
    eval: impl Fn() -> (usize, String),
    expected: &[String],
    queries: usize,
) -> (Vec<Duration>, usize) {
    let mut lats = Vec::with_capacity(queries);
    let mut mismatches = 0usize;
    for _ in 0..queries {
        let t0 = Instant::now();
        let (epoch, got) = eval();
        lats.push(t0.elapsed());
        if expected.get(epoch) != Some(&got) {
            mismatches += 1;
        }
    }
    (lats, mismatches)
}

struct PhaseBOutcome {
    elapsed: Duration,
    checks: usize,
    mismatches: usize,
    p50: Duration,
    p95: Duration,
}

fn percentiles(mut lats: Vec<Duration>) -> (Duration, Duration) {
    lats.sort_unstable();
    let pick = |q: f64| lats[((lats.len() - 1) as f64 * q) as usize];
    (pick(0.50), pick(0.95))
}

/// Phase B under the epoch engine: readers pin, writer refreshes and
/// publishes concurrently.
fn run_epoch(
    db0: &Database,
    script: &[Step],
    expected: &[String],
    cq: u64,
    readers: usize,
    queries: usize,
) -> PhaseBOutcome {
    let shared = SharedDatabase::new(db0.clone());
    let start = Instant::now();
    let (all_lats, mismatches) = thread::scope(|s| {
        let writer = {
            let shared = shared.clone();
            s.spawn(move || {
                for step in script {
                    match step {
                        Step::Advance(n) => shared.advance_clock(*n),
                        Step::Batch(ops) => {
                            shared.apply_updates(ops).expect("script ops are valid")
                        }
                    }
                }
            })
        };
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let shared = shared.clone();
                s.spawn(move || {
                    reader_pass(
                        || {
                            let pin = shared.pin();
                            (pin.epoch() as usize, observe(pin.db(), cq))
                        },
                        expected,
                        queries,
                    )
                })
            })
            .collect();
        writer.join().expect("writer");
        let mut lats = Vec::new();
        let mut bad = 0usize;
        for h in handles {
            let (l, m) = h.join().expect("reader");
            lats.extend(l);
            bad += m;
        }
        (lats, bad)
    });
    let elapsed = start.elapsed();
    // Quiescent hygiene: one epoch per step, conservation, no leaks.
    let st = shared.epoch_stats();
    assert_eq!(st.current as usize, script.len(), "one epoch per step: {st:?}");
    assert_eq!(st.created, st.retired + st.live, "conservation: {st:?}");
    assert_eq!(st.live, 1, "old epochs leaked: {st:?}");
    let checks = all_lats.len();
    let (p50, p95) = percentiles(all_lats);
    PhaseBOutcome { elapsed, checks, mismatches, p50, p95 }
}

/// Runs the epoch-overlap experiment.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "E13",
        "epoch snapshots: oracle-exact lifecycle, then refresh-vs-read overlap",
        &[
            "phase",
            "engine",
            "readers",
            "steps",
            "epochs",
            "checks",
            "mismatches",
            "live",
            "time",
            "q/s",
            "p50",
            "p95",
        ],
    );

    let objects = scale.pick(24, 60);
    let cqs = scale.pick(2, 4);
    let steps = scale.pick(9, 24);
    let batch = scale.pick(4, 8);
    let (db, ids, cq) = build_world(objects, cqs);
    let script = gen_script(&ids, steps, batch);
    let expected = oracle(&db, &script, cq);

    // ---- Phase A: deterministic lifecycle gate (obs stays enabled). ----
    {
        let shared = SharedDatabase::new(db.clone());
        let slow = shared.pin(); // the slow subscriber pins epoch 0
        let frozen = observe(slow.db(), cq);
        let mut checks = 0usize;
        for (i, step) in script.iter().enumerate() {
            match step {
                Step::Advance(n) => shared.advance_clock(*n),
                Step::Batch(ops) => shared.apply_updates(ops).expect("script ops are valid"),
            }
            let pin = shared.pin();
            assert_eq!(pin.epoch(), i as u64 + 1, "one epoch per step");
            assert_eq!(
                observe(pin.db(), cq),
                expected[i + 1],
                "published epoch {} diverges from the oracle",
                i + 1
            );
            checks += 1;
            let st = shared.epoch_stats();
            assert_eq!(st.created, st.retired + st.live, "conservation: {st:?}");
            assert!(st.live <= 3, "unbounded epoch retention: {st:?}");
        }
        assert_eq!(observe(slow.db(), cq), frozen, "pinned epoch 0 mutated");
        drop(slow);
        let st = shared.epoch_stats();
        assert_eq!(st.live, 1, "slow subscriber's epoch failed to retire: {st:?}");
        table.row(vec![
            "A lifecycle".into(),
            "epoch".into(),
            "1 slow".into(),
            steps.to_string(),
            st.current.to_string(),
            checks.to_string(),
            "0".into(),
            st.live.to_string(),
            "—".into(),
            "—".into(),
            "—".into(),
            "—".into(),
        ]);
    }

    // ---- Phase B: measured overlap (obs disabled). ----
    let reader_counts: &[usize] = match scale {
        Scale::Quick => &[2],
        Scale::Full => &[2, 4, 8],
    };
    let queries_per_reader = scale.pick(30, 200);
    most_obs::set_enabled(false);
    for &readers in reader_counts {
        let out = run_epoch(&db, &script, &expected, cq, readers, queries_per_reader);
        assert_eq!(out.mismatches, 0, "reader answers diverge from the oracle states");
        assert_eq!(out.checks, readers * queries_per_reader);
        let secs = out.elapsed.as_secs_f64().max(1e-9);
        table.row(vec![
            "B overlap".into(),
            "epoch".into(),
            readers.to_string(),
            steps.to_string(),
            (steps + 1).to_string(),
            out.checks.to_string(),
            out.mismatches.to_string(),
            "1".into(),
            fmt_duration(out.elapsed),
            fmt_f64(out.checks as f64 / secs),
            fmt_duration(out.p50),
            fmt_duration(out.p95),
        ]);
    }
    most_obs::set_enabled(true);

    table.note(
        "Phase A drives the epoch engine single-threaded with a slow subscriber pinning \
         epoch 0: after every step the published snapshot is byte-identical (canonical \
         JSON over instantaneous/continuous/persistent answers) to the single-threaded \
         oracle, accounting conserves (created == retired + live), and dropping the pin \
         retires its epoch — all asserted in-run, so this is the CI smoke gate.  Phase B \
         runs closed-loop readers beside the writer: refresh runs on the writer's copy \
         while readers answer from pinned snapshots, each answer oracle-verified at its \
         pinned epoch.  Timings are wall-clock and vary; counts are seeded and exact.",
    );
    table.mark_measured(&["time", "q/s", "p50", "p95"]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes_its_own_gates() {
        // `run` asserts oracle equality, conservation and retirement
        // internally; reaching the table at all means the gates held.
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 2);
        // Phase A row: every check passed, one live epoch at the end.
        assert_eq!(t.rows[0][6], "0");
        assert_eq!(t.rows[0][7], "1");
        // Phase B row: zero mismatches.
        assert_eq!(t.rows[1][6], "0", "mismatches column: {:?}", t.rows[1]);
    }
}
