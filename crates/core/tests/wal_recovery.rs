//! Crash-recovery oracle suite for the write-ahead log.
//!
//! The contract under test: a primary killed at a **seeded random
//! record** — with a torn partial write left on disk — recovers from
//! checkpoint + WAL to a state whose [`Database::fingerprint`] and
//! registered-CQ answers are byte-identical to a never-crashed
//! single-threaded oracle, and stays identical tick for tick as both
//! resume the remaining script.  Runs across ≥ 16 seeds with varying
//! checkpoint cadences and segment sizes, so recovery is exercised from
//! a fresh checkpoint, mid-segment, and across segment rotations.
//!
//! All WAL files live under `CARGO_TARGET_TMPDIR` (inside `target/`)
//! and are removed on success.

use most_core::wal::{apply_record, DurableDb, WalConfig, WalRecord};
use most_core::{Database, UpdateOp};
use most_dbms::value::Value;
use most_ftl::Query;
use most_spatial::{Point, Polygon, Velocity};
use most_testkit::rng::Rng;
use most_testkit::ser::to_json_string;
use std::fs;
use std::path::PathBuf;

const SEEDS: u64 = 16;
const CARS: usize = 6;
const STEPS: usize = 24;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir); // stale state from a failed run
    dir
}

/// A deterministic world: cars with seeded positions/velocities, a
/// PRICE attribute, one region, one pre-registered continuous query
/// (so the initial checkpoint already carries CQ state).
fn build_world(seed: u64) -> (Database, Vec<u64>) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut db = Database::new(500);
    db.add_region("P", Polygon::rectangle(-40.0, -40.0, 40.0, 40.0));
    let mut ids = Vec::new();
    for i in 0..CARS {
        let p = Point::new(rng.random_range(-80.0..80.0), rng.random_range(-80.0..80.0));
        let v = Velocity::new(rng.random_range(-2.0..2.0), rng.random_range(-2.0..2.0));
        let id = db.insert_moving_object("cars", p, v);
        db.set_static(id, "PRICE", (60.0 + 10.0 * i as f64).into())
            .unwrap();
        ids.push(id);
    }
    db.register_continuous(Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap())
        .unwrap();
    (db, ids)
}

/// The seeded mutation script: update batches (some with a bad id, so
/// the prefix-on-error path replays too), clock advances, CQ
/// registrations and cancellations.
fn gen_script(seed: u64, ids: &[u64]) -> Vec<WalRecord> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut steps = Vec::new();
    let mut live_cqs = vec![0u64];
    let mut next_cq = 1u64;
    for _ in 0..STEPS {
        let roll = rng.f64();
        if roll < 0.30 {
            steps.push(WalRecord::Advance {
                ticks: rng.random_range(1..4u64),
            });
        } else if roll < 0.40 {
            let q = if rng.random_bool(0.5) {
                "RETRIEVE o WHERE Eventually within 40 INSIDE(o, P)"
            } else {
                "RETRIEVE o WHERE o.PRICE <= 100"
            };
            steps.push(WalRecord::Register {
                query: q.to_owned(),
            });
            live_cqs.push(next_cq);
            next_cq += 1;
        } else if roll < 0.46 && live_cqs.len() > 1 {
            // Cancel a random live CQ (never the baseline one); also
            // occasionally a dead id, so the deterministic-error replay
            // path is covered.
            let cq = if rng.random_bool(0.2) {
                9_999
            } else {
                live_cqs.remove(rng.random_range(1..live_cqs.len()))
            };
            steps.push(WalRecord::Cancel { cq });
        } else {
            let n = rng.random_range(1..4usize);
            let mut ops = Vec::new();
            for _ in 0..n {
                let id = if rng.random_bool(0.05) {
                    999_999 // unknown: the batch stops here, prefix applies
                } else {
                    ids[rng.random_range(0..ids.len())]
                };
                if rng.random_bool(0.7) {
                    let velocity =
                        Velocity::new(rng.random_range(-2.0..2.0), rng.random_range(-2.0..2.0));
                    ops.push(UpdateOp::Motion { id, velocity });
                } else {
                    ops.push(UpdateOp::Static {
                        id,
                        attr: "PRICE".into(),
                        value: Value::from(rng.random_range(40.0..200.0)),
                    });
                }
            }
            steps.push(WalRecord::Batch { ops });
        }
    }
    steps
}

/// Everything an observer can ask of the recovered state: the
/// fingerprint plus each live CQ's materialized answer, canonically
/// serialized.  Byte equality here is the acceptance criterion.
fn observe(db: &Database) -> (u64, String) {
    let mut cqs = String::new();
    for id in db.continuous_registry().ids() {
        cqs.push_str(&format!(
            "cq{}:{};",
            id,
            to_json_string(&db.continuous_answer(id).unwrap()).unwrap()
        ));
    }
    (db.fingerprint(), cqs)
}

fn wal_config(seed: u64) -> WalConfig {
    WalConfig {
        // Small segments on odd seeds force several rotations.
        segment_bytes: if seed % 2 == 1 { 4 * 1024 } else { 256 * 1024 },
        sync: false,
        // A third of the seeds checkpoint automatically mid-run, so
        // recovery starts from a non-initial checkpoint.
        checkpoint_every: if seed.is_multiple_of(3) { 7 } else { 0 },
    }
}

#[test]
fn crash_recovery_matches_never_crashed_oracle() {
    for seed in 0..SEEDS {
        let dir = tmp_dir(&format!("wal_recovery_{seed}"));
        let (initial, ids) = build_world(seed);
        let script = gen_script(seed, &ids);
        let mut rng = Rng::seed_from_u64(seed ^ 0xc0ff_ee00_dead_beef);
        let crash_at = rng.random_range(1..script.len());

        // The never-crashed oracle replays the identical records on a
        // plain single-threaded database.
        let mut oracle = initial.clone();

        // Primary: durable, applies the script prefix, then "crashes".
        let durable =
            DurableDb::create(&dir, initial, wal_config(seed)).expect("create durable db");
        for rec in &script[..crash_at] {
            let primary_result = match rec {
                WalRecord::Batch { ops } => durable.apply_updates(ops).err(),
                WalRecord::Advance { ticks } => durable.advance_clock(*ticks).err(),
                WalRecord::Register { query } => durable.register_continuous(query).err(),
                WalRecord::Cancel { cq } => durable.cancel_continuous(*cq).err(),
            };
            let oracle_result = apply_record(&mut oracle, rec).err();
            assert_eq!(
                primary_result, oracle_result,
                "seed {seed}: primary and oracle must fail identically"
            );
        }
        let at_crash = observe(durable.pin().db());
        drop(durable); // the crash: no checkpoint, no clean shutdown

        // Leave a torn tail: a partial record (header promising more
        // bytes than exist) appended to the newest segment.
        let newest_segment = {
            let mut segs: Vec<PathBuf> = fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| {
                    let p = e.unwrap().path();
                    p.extension().is_some_and(|x| x == "seg").then_some(p)
                })
                .collect();
            segs.sort();
            segs.pop().expect("at least one segment")
        };
        let mut bytes = fs::read(&newest_segment).unwrap();
        bytes.extend_from_slice(&200u32.to_le_bytes()); // length promising 200 bytes
        bytes.extend_from_slice(&0u64.to_le_bytes()); // bogus checksum
        bytes.extend_from_slice(b"torn"); // ...but only 4 arrive
        fs::write(&newest_segment, &bytes).unwrap();

        // Recover.  The torn tail must be detected and discarded; the
        // recovered state must equal both the at-crash observation and
        // the oracle.
        let (recovered, recovery) =
            DurableDb::open(&dir, wal_config(seed)).expect("recovery never fails");
        assert!(
            recovery.truncated_tail,
            "seed {seed}: the torn tail must be detected"
        );
        assert_eq!(
            observe(recovered.pin().db()),
            at_crash,
            "seed {seed}: recovery must restore the exact at-crash state"
        );
        assert_eq!(
            observe(recovered.pin().db()),
            observe(&oracle),
            "seed {seed}: recovered state must match the never-crashed oracle"
        );

        // Resume the remaining script on both; they must stay
        // byte-identical tick for tick.
        for (step, rec) in script[crash_at..].iter().enumerate() {
            let recovered_result = match rec {
                WalRecord::Batch { ops } => recovered.apply_updates(ops).err(),
                WalRecord::Advance { ticks } => recovered.advance_clock(*ticks).err(),
                WalRecord::Register { query } => recovered.register_continuous(query).err(),
                WalRecord::Cancel { cq } => recovered.cancel_continuous(*cq).err(),
            };
            let oracle_result = apply_record(&mut oracle, rec).err();
            assert_eq!(
                recovered_result, oracle_result,
                "seed {seed} step {step}: divergent error behaviour after recovery"
            );
            assert_eq!(
                observe(recovered.pin().db()),
                observe(&oracle),
                "seed {seed} step {step}: post-recovery divergence"
            );
        }

        // Epoch hygiene on the recovered engine.
        let stats = recovered.epochs().stats();
        assert_eq!(
            stats.created,
            stats.retired + stats.live,
            "seed {seed}: epoch conservation violated after recovery"
        );
        drop(recovered);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovery_after_clean_run_replays_everything() {
    let dir = tmp_dir("wal_clean");
    let (initial, ids) = build_world(7);
    let script = gen_script(7, &ids);
    let mut oracle = initial.clone();
    let durable = DurableDb::create(&dir, initial, WalConfig::default()).unwrap();
    for rec in &script {
        match rec {
            WalRecord::Batch { ops } => {
                let _ = durable.apply_updates(ops);
            }
            WalRecord::Advance { ticks } => durable.advance_clock(*ticks).unwrap(),
            WalRecord::Register { query } => {
                durable.register_continuous(query).map(|_| ()).unwrap()
            }
            WalRecord::Cancel { cq } => {
                let _ = durable.cancel_continuous(*cq);
            }
        }
        let _ = apply_record(&mut oracle, rec);
    }
    drop(durable);
    let (recovered, recovery) = DurableDb::open(&dir, WalConfig::default()).unwrap();
    assert!(!recovery.truncated_tail, "clean log has no torn tail");
    assert_eq!(recovery.records_replayed, script.len() as u64);
    assert_eq!(observe(recovered.pin().db()), observe(&oracle));
    drop(recovered);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_prunes_segments_and_recovery_resumes_from_it() {
    let dir = tmp_dir("wal_checkpoint");
    let (initial, ids) = build_world(3);
    let durable = DurableDb::create(
        &dir,
        initial.clone(),
        WalConfig {
            segment_bytes: 2 * 1024,
            sync: false,
            checkpoint_every: 0,
        },
    )
    .unwrap();
    let mut oracle = initial;
    let script = gen_script(3, &ids);
    for rec in &script {
        match rec {
            WalRecord::Batch { ops } => {
                let _ = durable.apply_updates(ops);
            }
            WalRecord::Advance { ticks } => durable.advance_clock(*ticks).unwrap(),
            WalRecord::Register { query } => {
                let _ = durable.register_continuous(query);
            }
            WalRecord::Cancel { cq } => {
                let _ = durable.cancel_continuous(*cq);
            }
        }
        let _ = apply_record(&mut oracle, rec);
    }
    durable.checkpoint().unwrap();
    let after_checkpoint = durable.next_seq();
    // Two more records after the checkpoint.
    durable.advance_clock(2).unwrap();
    durable.advance_clock(3).unwrap();
    oracle.advance_clock(2);
    oracle.advance_clock(3);
    drop(durable);

    let (recovered, recovery) = DurableDb::open(&dir, WalConfig::default()).unwrap();
    assert_eq!(
        recovery.checkpoint_seq, after_checkpoint,
        "recovery must start from the checkpoint, not the beginning"
    );
    assert_eq!(
        recovery.records_replayed, 2,
        "only the post-checkpoint suffix replays"
    );
    assert_eq!(observe(recovered.pin().db()), observe(&oracle));
    drop(recovered);
    let _ = fs::remove_dir_all(&dir);
}

/// The fingerprint zeroes the per-CQ `refresh_nanos` timing at its one
/// known path only — a *user attribute* that merely shares the name is
/// real state and must count toward the fingerprint.
#[test]
fn fingerprint_counts_user_attributes_named_refresh_nanos() {
    let (db, ids) = build_world(19);
    let mut a = db.clone();
    let mut b = db;
    a.set_static(ids[0], "refresh_nanos", Value::from(1.0))
        .unwrap();
    b.set_static(ids[0], "refresh_nanos", Value::from(2.0))
        .unwrap();
    assert_ne!(
        a.fingerprint(),
        b.fingerprint(),
        "states diverging only in a user attribute named refresh_nanos must not \
         fingerprint as equal"
    );
}

/// A crash between the checkpoint rename and segment pruning leaves
/// stale segments (records wholly below the checkpoint) on disk.
/// Recovery must skip them and still replay every record committed
/// after the checkpoint — across a reopen and a second recovery too.
#[test]
fn stale_segments_from_an_interrupted_prune_are_skipped() {
    let dir = tmp_dir("wal_stale_prune");
    let (initial, ids) = build_world(5);
    let durable = DurableDb::create(
        &dir,
        initial.clone(),
        WalConfig {
            segment_bytes: 2 * 1024,
            sync: false,
            checkpoint_every: 0,
        },
    )
    .unwrap();
    let mut oracle = initial;
    for rec in &gen_script(5, &ids) {
        match rec {
            WalRecord::Batch { ops } => {
                let _ = durable.apply_updates(ops);
            }
            WalRecord::Advance { ticks } => durable.advance_clock(*ticks).unwrap(),
            WalRecord::Register { query } => {
                let _ = durable.register_continuous(query);
            }
            WalRecord::Cancel { cq } => {
                let _ = durable.cancel_continuous(*cq);
            }
        }
        let _ = apply_record(&mut oracle, rec);
    }
    // Capture the pre-checkpoint segment files; writing them back after
    // the checkpoint reproduces exactly the on-disk state a crash
    // between the checkpoint rename and segment pruning leaves behind.
    let stale: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            p.extension()
                .is_some_and(|x| x == "seg")
                .then(|| (p.clone(), fs::read(&p).unwrap()))
        })
        .collect();
    assert!(stale.len() > 1, "small segments force several rotations");
    durable.checkpoint().unwrap();
    // Two committed post-checkpoint records.
    durable.advance_clock(2).unwrap();
    durable.advance_clock(3).unwrap();
    oracle.advance_clock(2);
    oracle.advance_clock(3);
    drop(durable); // crash
    for (path, bytes) in &stale {
        fs::write(path, bytes).unwrap(); // the prune never happened
    }

    let (recovered, recovery) = DurableDb::open(&dir, WalConfig::default()).unwrap();
    assert_eq!(
        recovery.records_replayed, 2,
        "exactly the post-checkpoint suffix replays, stale segments notwithstanding"
    );
    assert!(
        recovery.stale_skipped > 0,
        "the stale records were seen and skipped"
    );
    assert_eq!(observe(recovered.pin().db()), observe(&oracle));

    // Commit more records with the stale segments still on disk, crash
    // again: the second recovery must not lose them either.
    recovered.advance_clock(1).unwrap();
    oracle.advance_clock(1);
    drop(recovered);
    let (again, second) = DurableDb::open(&dir, WalConfig::default()).unwrap();
    assert_eq!(second.records_replayed, 3);
    assert_eq!(observe(again.pin().db()), observe(&oracle));
    drop(again);
    let _ = fs::remove_dir_all(&dir);
}

/// A failed auto-checkpoint must not fail the mutation that triggered
/// it: the record is already durably appended and applied, so reporting
/// an error would tell the client "not applied" about a mutation that
/// was — and lose a `Register`'s assigned id.  The checkpoint retries
/// on a later append.
#[test]
fn failed_auto_checkpoint_does_not_fail_the_mutation() {
    let dir = tmp_dir("wal_ckpt_fail");
    let (initial, _) = build_world(17);
    let mut oracle = initial.clone();
    let durable = DurableDb::create(
        &dir,
        initial,
        WalConfig {
            segment_bytes: 256 * 1024,
            sync: false,
            checkpoint_every: 1,
        },
    )
    .unwrap();
    // Block the checkpoint temp path with a directory: every
    // auto-checkpoint now fails while appends keep working.
    fs::create_dir(dir.join("checkpoint.tmp")).unwrap();
    durable
        .advance_clock(1)
        .expect("the mutation is durable and applied; a checkpoint failure must not fail it");
    let cq = durable
        .register_continuous("RETRIEVE o WHERE o.PRICE <= 100")
        .expect("register must still return its assigned id");
    oracle.advance_clock(1);
    let oracle_cq =
        oracle.register_continuous(Query::parse("RETRIEVE o WHERE o.PRICE <= 100").unwrap());
    assert_eq!(Ok(cq), oracle_cq);
    // Unblock: the next mutation's auto-checkpoint retries and lands.
    fs::remove_dir(dir.join("checkpoint.tmp")).unwrap();
    durable.advance_clock(2).unwrap();
    oracle.advance_clock(2);
    drop(durable);
    let (recovered, recovery) = DurableDb::open(&dir, WalConfig::default()).unwrap();
    assert_eq!(
        recovery.checkpoint_seq, 3,
        "the retried checkpoint covers all three records"
    );
    assert_eq!(recovery.records_replayed, 0);
    assert_eq!(observe(recovered.pin().db()), observe(&oracle));
    drop(recovered);
    let _ = fs::remove_dir_all(&dir);
}

/// Asking the feed for records below the checkpoint horizon must be an
/// explicit error carrying the horizon — never a silently gapped
/// stream a replica would buffer behind forever.
#[test]
fn feed_below_the_checkpoint_horizon_is_an_explicit_error() {
    let dir = tmp_dir("wal_feed_pruned");
    let (initial, _) = build_world(13);
    let durable = DurableDb::create(&dir, initial, WalConfig::default()).unwrap();
    durable.advance_clock(1).unwrap();
    durable.advance_clock(2).unwrap();
    durable.advance_clock(3).unwrap();
    durable.checkpoint().unwrap();
    durable.advance_clock(4).unwrap();
    match durable.read_from(0) {
        Err(most_core::CoreError::WalFeedPruned {
            from_seq: 0,
            checkpoint_seq: 3,
        }) => {}
        other => panic!("expected WalFeedPruned {{ 0, 3 }}, got {other:?}"),
    }
    // From the horizon on, the feed serves normally.
    let suffix = durable.read_from(3).unwrap();
    assert_eq!(suffix.len(), 1);
    assert_eq!(suffix[0], (3, WalRecord::Advance { ticks: 4 }));
    drop(durable);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn feed_serves_the_committed_suffix() {
    let dir = tmp_dir("wal_feed");
    let (initial, ids) = build_world(11);
    let durable = DurableDb::create(&dir, initial.clone(), WalConfig::default()).unwrap();
    durable.advance_clock(1).unwrap();
    durable
        .apply_updates(&[UpdateOp::Motion {
            id: ids[0],
            velocity: Velocity::new(1.0, 1.0),
        }])
        .unwrap();
    durable.advance_clock(2).unwrap();
    let all = durable.read_from(0).unwrap();
    assert_eq!(all.len(), 3);
    assert_eq!(all[0].0, 0);
    assert_eq!(all[2].1, WalRecord::Advance { ticks: 2 });
    let suffix = durable.read_from(2).unwrap();
    assert_eq!(suffix.len(), 1);
    assert_eq!(suffix[0].0, 2);

    // A follower applying the feed from the initial state converges.
    let mut follower = initial;
    for (_, rec) in &all {
        let _ = apply_record(&mut follower, rec);
    }
    assert_eq!(follower.fingerprint(), durable.pin().db().fingerprint());
    drop(durable);
    let _ = fs::remove_dir_all(&dir);
}
