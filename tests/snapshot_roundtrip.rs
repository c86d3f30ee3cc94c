//! Snapshot round-trip under the E3 workload: serializing a database
//! mid-flight and restoring it must preserve every query-visible
//! behaviour — instantaneous answers, continuous displays, and persistent
//! history — both at the snapshot tick and as both copies advance further.
//!
//! This is the invariant behind the server's `Snapshot` request (session
//! recovery): a client that restores a snapshot and replays subsequent
//! mutations sees exactly what the server sees.

use most_testkit::ser::{from_json_str, to_json_string, FromJson, Json, ToJson};
use moving_objects::core::wal::{DurableDb, WalConfig};
use moving_objects::core::{Database, SharedDatabase, UpdateOp};
use moving_objects::dbms::value::Value;
use moving_objects::ftl::Query;
use moving_objects::spatial::{Polygon, Velocity};
use moving_objects::workload::cars::{apply_due_updates, CarScenario};

/// The E3 scenario (crates/bench e3_continuous): 30 cars on a 400-unit
/// area, speed band (0.5, 2.0), seed 42.
fn e3_scenario(window: u64) -> CarScenario {
    CarScenario {
        count: 30,
        area: 400.0,
        speed: (0.5, 2.0),
        mean_update_gap: 100.0,
        horizon: window,
        seed: 42,
    }
}

fn queries() -> Vec<Query> {
    [
        "RETRIEVE o WHERE INSIDE(o, P)",
        "RETRIEVE o WHERE o.PRICE <= 120",
        "RETRIEVE o WHERE Eventually within 60 INSIDE(o, P)",
        "RETRIEVE o, n WHERE o <> n AND DIST(o, n) <= 25",
    ]
    .into_iter()
    .map(|s| Query::parse(s).expect("query parses"))
    .collect()
}

fn snapshot_roundtrip(db: &Database) -> Database {
    let json = to_json_string(db).expect("database serializes");
    let restored: Database = from_json_str(&json).expect("database restores");
    // Determinism of the wire form itself: re-serializing the restored
    // copy yields identical bytes.
    let again = to_json_string(&restored).expect("restored database serializes");
    assert_eq!(json, again, "snapshot serialization is not canonical");
    restored
}

#[test]
fn snapshot_preserves_all_answers_mid_workload() {
    let window = 120u64;
    let scenario = e3_scenario(window);
    let plans = scenario.generate();
    let mut db = Database::new(window * 4);
    db.add_region("P", Polygon::rectangle(-100.0, -100.0, 100.0, 100.0));
    let ids = scenario.populate(&mut db, &plans);
    let cq = db
        .register_continuous(Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap())
        .unwrap();

    // Drive half the window, then snapshot mid-flight.
    for t in 1..=window / 2 {
        db.advance_clock(1);
        apply_due_updates(&mut db, &ids, &plans, t - 1, t);
    }
    let restored = snapshot_roundtrip(&db);
    assert_eq!(restored.now(), db.now());
    assert_eq!(restored.object_ids(), db.object_ids());

    for q in &queries() {
        assert_eq!(
            restored.instantaneous_readonly(q).unwrap(),
            db.instantaneous_readonly(q).unwrap(),
            "instantaneous answers diverge after restore: {q:?}"
        );
    }
    assert_eq!(
        restored.continuous_display(cq, db.now()).unwrap(),
        db.continuous_display(cq, db.now()).unwrap()
    );
    // The recorded history survives too: a persistent query anchored at
    // tick 0 replays identically.
    let q = Query::parse("RETRIEVE o WHERE Eventually within 60 INSIDE(o, P)").unwrap();
    assert_eq!(
        restored.persistent_answer(&q, 0).unwrap(),
        db.persistent_answer(&q, 0).unwrap()
    );
}

#[test]
fn snapshot_then_identical_future_evolution() {
    let window = 120u64;
    let scenario = e3_scenario(window);
    let plans = scenario.generate();
    let mut db = Database::new(window * 4);
    db.add_region("P", Polygon::rectangle(-100.0, -100.0, 100.0, 100.0));
    let ids = scenario.populate(&mut db, &plans);
    let cq = db
        .register_continuous(Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap())
        .unwrap();
    for t in 1..=window / 2 {
        db.advance_clock(1);
        apply_due_updates(&mut db, &ids, &plans, t - 1, t);
    }

    // Restore, then drive BOTH copies through the rest of the window with
    // the same updates: every tick's display and answers must agree.
    let mut restored = snapshot_roundtrip(&db);
    let qs = queries();
    for t in window / 2 + 1..=window {
        db.advance_clock(1);
        restored.advance_clock(1);
        apply_due_updates(&mut db, &ids, &plans, t - 1, t);
        apply_due_updates(&mut restored, &ids, &plans, t - 1, t);
        assert_eq!(
            restored.continuous_display(cq, t).unwrap(),
            db.continuous_display(cq, t).unwrap(),
            "continuous display diverges at tick {t}"
        );
    }
    for q in &qs {
        assert_eq!(
            restored.instantaneous_readonly(q).unwrap(),
            db.instantaneous_readonly(q).unwrap(),
            "instantaneous answers diverge at end of window: {q:?}"
        );
    }
}

/// Mid-epoch snapshot: with batches **buffered into epoch E+1 but not
/// yet published**, the serialized form (what the server's `Snapshot`
/// request ships) must round-trip to the last *published* epoch E —
/// across all three query types — with no trace of the buffered half.
#[test]
fn mid_epoch_snapshot_restores_last_published_epoch() {
    let window = 120u64;
    let scenario = e3_scenario(window);
    let plans = scenario.generate();
    let mut db = Database::new(window * 4);
    db.add_region("P", Polygon::rectangle(-100.0, -100.0, 100.0, 100.0));
    let ids = scenario.populate(&mut db, &plans);
    let cq = db
        .register_continuous(Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap())
        .unwrap();

    let shared = SharedDatabase::new(db);
    // Publish a few epochs the ordinary way.
    for t in 1..=10u64 {
        shared.advance_clock(1);
        shared.write(|d| apply_due_updates(d, &ids, &plans, t - 1, t));
    }
    let published = shared.pin();

    // Now accumulate epoch E+1 *without* publishing: a partial batch and
    // a buffered clock advance.
    let epochs = shared.epochs();
    epochs
        .buffer_updates(&[UpdateOp::Motion {
            id: ids[0],
            velocity: Velocity::new(9.0, 9.0),
        }])
        .unwrap();
    epochs.write(|d| d.advance_clock(3));
    assert_eq!(epochs.stats().pending_batches, 1);

    // The server-visible snapshot is taken through the read path — it
    // must see only the published epoch.
    let json = shared.read(|d| to_json_string(d).expect("snapshot serializes"));
    let restored: Database = from_json_str(&json).expect("snapshot restores");

    assert_eq!(
        restored.now(),
        published.db().now(),
        "buffered clock advance leaked"
    );
    for q in &queries() {
        assert_eq!(
            restored.instantaneous_readonly(q).unwrap(),
            published.db().instantaneous_readonly(q).unwrap(),
            "instantaneous answers diverge from published epoch: {q:?}"
        );
    }
    assert_eq!(
        restored.continuous_display(cq, restored.now()).unwrap(),
        published
            .db()
            .continuous_display(cq, published.db().now())
            .unwrap(),
        "continuous display diverges from published epoch"
    );
    let pq = Query::parse("RETRIEVE o WHERE Eventually within 60 INSIDE(o, P)").unwrap();
    assert_eq!(
        restored.persistent_answer(&pq, 0).unwrap(),
        published.db().persistent_answer(&pq, 0).unwrap(),
        "persistent history diverges from published epoch"
    );
    // The buffered motion is absent from the restored copy...
    let now = restored.now();
    assert_ne!(
        restored.object(ids[0]).unwrap().velocity_at(now),
        Some(Velocity::new(9.0, 9.0)),
        "buffered (unpublished) batch leaked into the snapshot"
    );

    // ...and publishing afterwards is equivalent to restoring the
    // snapshot and replaying the buffered mutations on top.
    let e = epochs.advance_epoch();
    let after = shared.pin();
    assert_eq!(after.epoch(), e);
    let mut replayed = restored;
    replayed
        .apply_updates(&[UpdateOp::Motion {
            id: ids[0],
            velocity: Velocity::new(9.0, 9.0),
        }])
        .unwrap();
    replayed.advance_clock(3);
    assert_eq!(replayed.now(), after.db().now());
    for q in &queries() {
        assert_eq!(
            replayed.instantaneous_readonly(q).unwrap(),
            after.db().instantaneous_readonly(q).unwrap(),
            "replayed snapshot diverges from published E+1: {q:?}"
        );
    }
}

/// `checkpoint.json` as the commit before the refresh-regime collapse wrote
/// it (its `Database` named a refresh regime and its registry counted
/// per-object refreshes): two cars, region P, an `INSIDE` and a `PRICE`
/// continuous query, checkpointed at tick 5 under the per-object regime —
/// so parked car 2's row still ends at tick 100, the horizon of the
/// registration-time evaluation.
const PARENT_CHECKPOINT: &str = r#"{"next_seq":2,"db":{"expiration":100,"clock":5,"next_id":3,
"classes":{"cars":{"name":"cars","spatial":true,"attrs":[]}},
"objects":{"1":{"id":1,"class":"cars","trajectory":[{"anchor":{"x":0.0,"y":0.0},"since":0,"velocity":{"dx":1.0,"dy":0.0}},{"anchor":{"x":5.0,"y":0.0},"since":5,"velocity":{"dx":2.0,"dy":0.0}}],"statics":{"PRICE":[[0,{"Float":80.0}]]},"dynamics":{}},
"2":{"id":2,"class":"cars","trajectory":[{"anchor":{"x":50.0,"y":0.0},"since":0,"velocity":{"dx":0.0,"dy":0.0}}],"statics":{"PRICE":[[0,{"Float":150.0}]]},"dynamics":{}}},
"regions":{"P":[{"x":40.0,"y":-10.0},{"x":60.0,"y":-10.0},{"x":60.0,"y":10.0},{"x":40.0,"y":10.0}]},
"continuous":{"next":2,"entries":{
"0":{"query":{"targets":["o"],"formula":{"Inside":[{"Var":"o"},"P"]}},"entered_at":0,"answer":{"vars":["o"],"tuples":[{"values":[{"Id":1}],"intervals":[{"begin":23,"end":32}]},{"values":[{"Id":2}],"intervals":[{"begin":0,"end":100}]}]},"deps":{"position":true,"attrs":[],"regions":["P"]},"refreshes":0,"skipped":0,"refresh_nanos":9877},
"1":{"query":{"targets":["o"],"formula":{"Cmp":["Le",{"Attr":[{"Var":"o"},"PRICE"]},{"Const":{"Int":100}}]}},"entered_at":0,"answer":{"vars":["o"],"tuples":[{"values":[{"Id":1}],"intervals":[{"begin":0,"end":100}]}]},"deps":{"position":false,"attrs":["PRICE"],"regions":[]},"refreshes":0,"skipped":1,"refresh_nanos":0}},
"evaluations":2,"incremental_refreshes":1,"skipped_refreshes":1,"noop_refreshes":0},
"refresh_mode":"Incremental","triggers":{"next":0,"triggers":[]},"stats":{"updates":3,"instantaneous_queries":0}}}"#;

/// What the writing commit displayed from that state: `(cq, tick, ids)`.
const PARENT_DISPLAYS: &[(u64, u64, &[u64])] = &[
    (0, 5, &[2]),
    (0, 30, &[1, 2]),
    (0, 50, &[2]),
    (0, 105, &[]),
    (1, 5, &[1]),
    (1, 50, &[1]),
    (1, 105, &[]),
];

fn assert_parent_displays(db: &Database) {
    for &(cq, tick, ids) in PARENT_DISPLAYS {
        let shown: Vec<Vec<Value>> = ids.iter().map(|&id| vec![Value::Id(id)]).collect();
        assert_eq!(
            db.continuous_display(cq, tick).unwrap(),
            shown,
            "cq {cq} at tick {tick}"
        );
    }
}

#[test]
fn checkpoint_written_before_the_regime_collapse_loads_and_recovers() {
    // The bare snapshot (`mostql` LOAD, the server's `Snapshot` reply).
    let doc = Json::parse(PARENT_CHECKPOINT).expect("fixture parses");
    let db = Database::from_json(doc.field("db").unwrap()).expect("old snapshot loads");
    assert_eq!(db.now(), 5);
    assert_parent_displays(&db);
    // New snapshots carry neither of the two dropped keys.
    let keys = |j: &Json| match j {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        other => panic!("expected an object, got {}", other.kind()),
    };
    let rewritten = db.to_json();
    assert_eq!(
        keys(&rewritten),
        [
            "expiration",
            "clock",
            "next_id",
            "classes",
            "objects",
            "regions",
            "continuous",
            "triggers",
            "stats"
        ]
    );
    assert_eq!(
        keys(rewritten.field("continuous").unwrap()),
        [
            "next",
            "entries",
            "evaluations",
            "skipped_refreshes",
            "noop_refreshes"
        ]
    );

    // Those two keys aside, the state re-emits the fixture byte for byte:
    // the chunked object table and the `Arc`-shared maps encode exactly as
    // the `BTreeMap`s they replaced.
    let expected = PARENT_CHECKPOINT
        .replace('\n', "")
        .replace(r#""incremental_refreshes":1,"#, "")
        .replace(r#""refresh_mode":"Incremental","#, "");
    assert_eq!(
        format!(r#"{{"next_seq":2,"db":{}}}"#, rewritten.render().unwrap()),
        expected
    );

    // The same document as a WAL directory, as a checkpoint leaves it:
    // `checkpoint.json` plus the next, still empty, segment.
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("parent_format_wal");
    let _ = std::fs::remove_dir_all(&dir); // stale state from a failed run
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("checkpoint.json"), PARENT_CHECKPOINT).unwrap();
    std::fs::write(dir.join("wal-00000002.seg"), b"MOSTWAL1").unwrap();
    let (durable, recovery) = DurableDb::open(&dir, WalConfig::default()).expect("recovers");
    assert_eq!((recovery.checkpoint_seq, recovery.records_replayed), (2, 0));
    assert_parent_displays(durable.pin().db());

    // New records replay over the old checkpoint: a reopened copy equals
    // the snapshot driven through the same updates.  The batch evaluates
    // on the window the checkpoint left, which still ends at tick 100, so
    // the parked car's row reaches past it only once the clock renews it.
    let ops = [UpdateOp::Motion {
        id: 1,
        velocity: Velocity::new(1.0, 0.0),
    }];
    durable.advance_clock(10).unwrap();
    durable.apply_updates(&ops).unwrap();
    drop(durable);
    let (reopened, recovery) = DurableDb::open(&dir, WalConfig::default()).expect("recovers");
    assert_eq!(recovery.records_replayed, 2);
    let mut reference = db;
    reference.advance_clock(10);
    reference.apply_updates(&ops).unwrap();
    assert_eq!(reopened.pin().db().fingerprint(), reference.fingerprint());
    let at_105 = |db: &DurableDb| db.pin().db().continuous_display(0, 105).unwrap();
    assert_eq!(at_105(&reopened), Vec::<Vec<Value>>::new());
    reopened.advance_clock(86).unwrap();
    assert_eq!(reopened.pin().db().now(), 101);
    assert_eq!(at_105(&reopened), vec![vec![Value::Id(2)]]);
    std::fs::remove_dir_all(&dir).unwrap();
}
