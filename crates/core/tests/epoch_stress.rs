//! Seeded concurrent-interleaving stress suite for the epoch engine.
//!
//! Snapshot isolation, stated operationally: **every reader observes
//! exactly the state of some published epoch** — never a torn batch,
//! never a half-applied refresh — and that state is byte-identical
//! (canonical JSON of the answers) to a single-threaded oracle replaying
//! the same batch script.  Each seed derives a different update schedule
//! from the testkit RNG; writers and readers race freely under
//! `std::thread::scope` with **no sleeps anywhere** — the schedules, not
//! timing, provide the interleaving diversity.
//!
//! The suite also pins the retirement accounting (`created == retired +
//! live`, a long-pinned reader keeps exactly one old epoch alive) and
//! the one-batch-one-epoch guarantee, including the error path.  All
//! assertions go through [`most_core::EpochStats`] rather than `obs`
//! counters, so the whole file runs unchanged under
//! `--no-default-features` (obs stubs).

use most_core::{Database, EpochDb, SharedDatabase, UpdateOp};
use most_dbms::value::Value;
use most_ftl::Query;
use most_spatial::{Point, Polygon, Rect, Velocity};
use most_testkit::rng::Rng;
use most_testkit::ser::to_json_string;
use std::thread;

const SCHEDULES: u64 = 64;
const CARS: usize = 8;
const STEPS: usize = 8;

/// One writer action; each maps to exactly one published epoch.
#[derive(Debug, Clone)]
enum Step {
    Advance(u64),
    Batch(Vec<UpdateOp>),
}

/// A deterministic small world: cars with seeded positions/velocities, a
/// PRICE attribute, one region, one registered continuous query, and (on
/// even seeds) the spatial index, so epoch-boundary reconstruction is
/// exercised too.
fn build_world(seed: u64) -> (Database, Vec<u64>, u64) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut db = Database::new(200);
    db.add_region("P", Polygon::rectangle(-40.0, -40.0, 40.0, 40.0));
    let mut ids = Vec::new();
    for i in 0..CARS {
        let p = Point::new(rng.random_range(-80.0..80.0), rng.random_range(-80.0..80.0));
        let v = Velocity::new(rng.random_range(-2.0..2.0), rng.random_range(-2.0..2.0));
        let id = db.insert_moving_object("cars", p, v);
        db.set_static(id, "PRICE", (60.0 + 10.0 * i as f64).into()).unwrap();
        ids.push(id);
    }
    if seed.is_multiple_of(2) {
        db.enable_spatial_index(Rect::new(-2_000.0, -2_000.0, 2_000.0, 2_000.0));
    }
    let cq = db
        .register_continuous(Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap())
        .unwrap();
    (db, ids, cq)
}

/// The seeded batch script.  Includes occasional bad object ids so the
/// error path (batch stops, prefix still publishes as one epoch) races
/// with readers too.
fn gen_script(seed: u64, ids: &[u64]) -> Vec<Step> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut steps = Vec::new();
    for _ in 0..STEPS {
        if rng.random_bool(0.4) {
            steps.push(Step::Advance(rng.random_range(1..4u64)));
        } else {
            let n = rng.random_range(1..4usize);
            let mut ops = Vec::new();
            for _ in 0..n {
                let id = if rng.random_bool(0.05) {
                    999_999 // unknown: stops the batch at this op
                } else {
                    ids[rng.below(ids.len() as u64) as usize]
                };
                if rng.random_bool(0.7) {
                    let velocity = Velocity::new(
                        rng.random_range(-2.0..2.0),
                        rng.random_range(-2.0..2.0),
                    );
                    ops.push(UpdateOp::Motion { id, velocity });
                } else {
                    ops.push(UpdateOp::Static {
                        id,
                        attr: "PRICE".into(),
                        value: Value::from(rng.random_range(40.0..200.0)),
                    });
                }
            }
            steps.push(Step::Batch(ops));
        }
    }
    steps
}

/// Canonical byte fingerprint of everything a reader can observe on one
/// epoch: the clock, an instantaneous answer, the materialized continuous
/// display, a persistent (recorded-history) answer, and the index-backed
/// region lookup.  Two states are "the same epoch" iff these bytes match.
fn observe(db: &Database, cq: u64) -> String {
    let inst = Query::parse("RETRIEVE o WHERE Eventually within 50 INSIDE(o, P)").unwrap();
    let pers = Query::parse("RETRIEVE o WHERE Eventually within 30 (o.PRICE <= 100)").unwrap();
    let mut in_rect = db
        .objects_in_rect_at(&Rect::new(-40.0, -40.0, 40.0, 40.0))
        .0;
    in_rect.sort_unstable();
    [
        db.now().to_string(),
        to_json_string(&db.instantaneous_readonly(&inst).unwrap()).unwrap(),
        to_json_string(&db.continuous_display(cq, db.now()).unwrap()).unwrap(),
        to_json_string(&db.persistent_answer(&pers, 0).unwrap()).unwrap(),
        format!("{in_rect:?}"),
    ]
    .join("\n")
}

/// Single-threaded oracle: replays the script on a private copy and
/// records the canonical observation after every step.  `expected[e]` is
/// what epoch `e` must look like, byte for byte.
fn oracle(db0: &Database, script: &[Step], cq: u64) -> Vec<String> {
    let mut db = db0.clone();
    let mut expected = vec![observe(&db, cq)];
    for step in script {
        match step {
            Step::Advance(n) => db.advance_clock(*n),
            Step::Batch(ops) => {
                let _ = db.apply_updates(ops); // same prefix-on-error semantics
            }
        }
        expected.push(observe(&db, cq));
    }
    expected
}

/// Runs one seeded schedule: a writer publishing the script step by step
/// while racing readers pin epochs and check them against the oracle.
/// Returns the number of reader observations checked.
fn run_schedule(seed: u64) -> usize {
    let (db, ids, cq) = build_world(seed);
    let script = gen_script(seed, &ids);
    let expected = oracle(&db, &script, cq);
    let shared = SharedDatabase::new(db);
    let readers = 2 + (seed as usize % 3);
    let pins_per_reader = 8 + (seed as usize % 5);
    let mut checks = 0usize;
    thread::scope(|s| {
        let writer = {
            let shared = shared.clone();
            let script = &script;
            s.spawn(move || {
                for step in script {
                    match step {
                        Step::Advance(n) => shared.advance_clock(*n),
                        Step::Batch(ops) => {
                            let _ = shared.apply_updates(ops);
                        }
                    }
                }
            })
        };
        let mut handles = Vec::new();
        for r in 0..readers {
            let shared = shared.clone();
            let expected = &expected;
            handles.push(s.spawn(move || {
                let mut done = 0usize;
                // Keep the previous pin alive across iterations so several
                // epochs are pinned at once (retirement must wait for us).
                let mut held = None;
                for i in 0..pins_per_reader {
                    let pin = shared.pin();
                    let e = pin.epoch() as usize;
                    assert!(
                        e < expected.len(),
                        "seed {seed} reader {r}: epoch {e} was never published by the oracle"
                    );
                    let got = observe(pin.db(), cq);
                    assert_eq!(
                        got, expected[e],
                        "seed {seed} reader {r} pin {i}: epoch {e} is not oracle state"
                    );
                    done += 1;
                    held = Some(pin);
                }
                drop(held);
                done
            }));
        }
        writer.join().expect("writer");
        for h in handles {
            checks += h.join().expect("reader");
        }
    });
    // Quiescent end state: the published epoch is the oracle's last state,
    // the epoch count is exactly one per step, and accounting conserves.
    let fin = shared.pin();
    assert_eq!(fin.epoch() as usize, script.len(), "seed {seed}: one epoch per step");
    assert_eq!(observe(fin.db(), cq), expected[script.len()], "seed {seed}: final state");
    drop(fin);
    let st = shared.epoch_stats();
    assert_eq!(st.created, st.retired + st.live, "seed {seed}: conservation: {st:?}");
    assert_eq!(st.live, 1, "seed {seed}: old epochs leaked: {st:?}");
    assert_eq!(st.created, script.len() as u64 + 1);
    assert_eq!(st.pending_batches, 0);
    checks
}

/// The headline stress test: 64 seeded schedules, sleep-free, every
/// reader observation byte-identical to the single-threaded oracle for
/// all three query types (instantaneous / continuous / persistent).
#[test]
fn sixty_four_seeded_schedules_preserve_snapshot_isolation() {
    let mut total = 0usize;
    for seed in 0..SCHEDULES {
        total += run_schedule(seed);
    }
    assert!(total >= 64 * 2 * 8, "suspiciously few reader checks: {total}");
}

/// Retirement regression: a long-pinned reader (a slow subscriber) keeps
/// its epoch — and only its epoch — alive while the writer advances many
/// epochs.  Memory stays bounded: `live <= 2` throughout, and the
/// conservation invariant `created == retired + live` accounts for every
/// snapshot ever made.
#[test]
fn long_pinned_reader_keeps_one_epoch_alive_with_bounded_memory() {
    let (db, ids, cq) = build_world(7);
    let shared = SharedDatabase::new(db);
    let slow = shared.pin();
    let frozen = observe(slow.db(), cq);
    for i in 1..=64u64 {
        shared
            .apply_updates(&[UpdateOp::Motion {
                id: ids[(i as usize) % ids.len()],
                velocity: Velocity::new(1.0, 0.5),
            }])
            .unwrap();
        shared.advance_clock(1);
        let st = shared.epoch_stats();
        assert_eq!(st.current, 2 * i);
        assert_eq!(st.created, st.retired + st.live, "conservation at step {i}: {st:?}");
        assert_eq!(st.live, 2, "bounded memory violated at step {i}: {st:?}");
    }
    // The pinned epoch never moved.
    assert_eq!(slow.epoch(), 0);
    assert_eq!(observe(slow.db(), cq), frozen);
    // Releasing the slow subscriber retires its epoch immediately.
    drop(slow);
    let st = shared.epoch_stats();
    assert_eq!(st.live, 1);
    assert_eq!(st.retired, st.created - 1, "epoch.retired failed to catch up: {st:?}");
}

/// One batch is one epoch, atomically: batches buffered into E+1 are
/// invisible (even mid-application) until `advance_epoch`, then all
/// become visible at once.
#[test]
fn buffered_batches_publish_atomically() {
    let (db, ids, cq) = build_world(3);
    let edb = EpochDb::new(db);
    let before = observe(edb.pin().db(), cq);
    for (k, &id) in ids.iter().enumerate().take(3) {
        edb.buffer_updates(&[UpdateOp::Motion { id, velocity: Velocity::new(3.0, 0.0) }])
            .unwrap();
        assert_eq!(edb.pin().epoch(), 0, "buffered batch {k} leaked");
        assert_eq!(observe(edb.pin().db(), cq), before, "buffered batch {k} visible");
    }
    assert_eq!(edb.stats().pending_batches, 3);
    let e = edb.advance_epoch();
    assert_eq!(e, 1);
    let pin = edb.pin();
    for (k, &id) in ids.iter().enumerate().take(3) {
        assert_eq!(
            pin.db().object(id).unwrap().velocity_at(pin.db().now()),
            Some(Velocity::new(3.0, 0.0)),
            "buffered batch {k} lost at publish"
        );
    }
    assert_eq!(edb.stats().pending_batches, 0);
}

/// The error path races too: a batch that stops at an unknown object
/// publishes its applied prefix as exactly one epoch, concurrently with
/// readers, and the oracle agrees byte for byte.
#[test]
fn error_batches_race_readers_without_tearing() {
    for seed in 100..116u64 {
        let (db, ids, cq) = build_world(seed);
        // Every batch poisoned in the middle.
        let script: Vec<Step> = (0..6)
            .map(|k| {
                Step::Batch(vec![
                    UpdateOp::Motion {
                        id: ids[k % ids.len()],
                        velocity: Velocity::new(k as f64 * 0.25, -1.0),
                    },
                    UpdateOp::Motion { id: 999_999, velocity: Velocity::zero() },
                    UpdateOp::Motion { id: ids[(k + 1) % ids.len()], velocity: Velocity::zero() },
                ])
            })
            .collect();
        let expected = oracle(&db, &script, cq);
        let shared = SharedDatabase::new(db);
        thread::scope(|s| {
            let writer = {
                let shared = shared.clone();
                let script = &script;
                s.spawn(move || {
                    for step in script {
                        if let Step::Batch(ops) = step {
                            assert!(shared.apply_updates(ops).is_err());
                        }
                    }
                })
            };
            for _ in 0..2 {
                let shared = shared.clone();
                let expected = &expected;
                s.spawn(move || {
                    for _ in 0..8 {
                        let pin = shared.pin();
                        let e = pin.epoch() as usize;
                        assert_eq!(observe(pin.db(), cq), expected[e], "seed {seed} epoch {e}");
                    }
                });
            }
            writer.join().expect("writer");
        });
        assert_eq!(shared.epoch_stats().current as usize, script.len());
    }
}

/// Concurrent writers: every `apply_updates` call is one batch, one
/// refresh pass, one epoch — the writer lock is held from materializing
/// the next epoch to publishing it, so two callers can never fold their
/// batches into one epoch (which also stranded a `pending_batches`
/// count).  A barrier releases all writers at once.
#[test]
fn concurrent_writers_publish_one_epoch_per_batch() {
    const WRITERS: usize = 4;
    const BATCHES: usize = 500;
    let (db, ids, _) = build_world(11);
    let edb = EpochDb::new(db);
    let start = std::sync::Barrier::new(WRITERS);
    thread::scope(|s| {
        for w in 0..WRITERS {
            let (edb, ids, start) = (edb.clone(), &ids, &start);
            s.spawn(move || {
                start.wait();
                for k in 0..BATCHES {
                    let velocity = Velocity::new(w as f64 - 1.5, (k % 5) as f64 - 2.0);
                    edb.apply_updates(&[UpdateOp::Motion { id: ids[(w + k) % ids.len()], velocity }])
                        .unwrap();
                }
            });
        }
    });
    let st = edb.stats();
    assert_eq!(st.current, (WRITERS * BATCHES) as u64, "batches folded into shared epochs: {st:?}");
    assert_eq!(st.pending_batches, 0, "a folded batch left its count behind: {st:?}");
    assert_eq!(st.created, st.retired + st.live, "conservation: {st:?}");
    assert_eq!(st.live, 1);
}
