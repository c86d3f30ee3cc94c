//! Structural sharing between epochs: what a batch copies and what a
//! long-held pin keeps alive.
//!
//! One `#[test]` on purpose: the `epoch.chunks_copied` assertion reads a
//! process-global counter, and this file's process runs nothing else.

use most_core::{Database, EpochDb, UpdateOp};
use most_spatial::{Point, Rect, Velocity};
use std::collections::BTreeSet;

const CARS: u64 = 10_000;

#[test]
fn epochs_share_every_chunk_the_batch_did_not_touch() {
    let mut db = Database::new(100);
    for i in 0..CARS {
        let p = Point::new((i % 100) as f64 * 10.0, (i / 100) as f64 * 10.0);
        db.insert_moving_object("cars", p, Velocity::new(1.0, 0.5));
    }
    db.enable_spatial_index(Rect::new(-1_000.0, -1_000.0, 3_000.0, 3_000.0));
    let edb = EpochDb::new(db);
    let epoch0 = edb.pin();
    let motion = |id: u64| [UpdateOp::Motion { id, velocity: Velocity::new(-1.0, 0.0) }];

    // A 1-op batch copies exactly the one 64-object chunk holding its car.
    let copied = most_obs::counter_value("epoch.chunks_copied");
    let nodes = most_obs::counter_value("index.nodes_copied");
    edb.apply_updates(&motion(4_242)).unwrap();
    let epoch1 = edb.pin();
    let (shared, total) = epoch1.shared_object_chunks(&epoch0);
    assert_eq!(total as u64, CARS.div_ceil(64));
    assert_eq!(shared, total - 1);
    assert!(shared * 100 >= total * 99, "{shared} of {total} chunks shared");
    if most_obs::is_enabled() {
        assert_eq!(most_obs::counter_value("epoch.chunks_copied") - copied, 1);
        // The index pays for the nodes the car's segments cross — a few
        // hundred of the ~10^5 in a 10k-car octree — not for the tree.
        let nodes = most_obs::counter_value("index.nodes_copied") - nodes;
        assert!((1..5_000).contains(&nodes), "{nodes} index nodes copied by one update");
    }
    // The pinned epoch still reads its own state, index included.
    assert_eq!(epoch0.object(4_242).unwrap().velocity_at(0), Some(Velocity::new(1.0, 0.5)));
    assert_eq!(epoch1.object(4_242).unwrap().velocity_at(0), Some(Velocity::new(-1.0, 0.0)));
    let everywhere = Rect::new(-1_000.0, -1_000.0, 3_000.0, 3_000.0);
    assert_eq!(epoch0.objects_in_rect_at(&everywhere), (epoch0.object_ids(), true));
    drop(epoch1);

    // A reader pinning epoch 0 across 200 more batches keeps the world
    // alive once, plus the chunks rewritten since — not 200 databases.
    let mut rewritten = BTreeSet::from([4_242u64 >> 6]);
    for k in 0..200u64 {
        let id = 1 + (k * 7) % 640;
        rewritten.insert(id >> 6);
        edb.apply_updates(&motion(id)).unwrap();
    }
    let st = edb.stats();
    assert_eq!(st.current, 201);
    assert_eq!(st.live, 2, "only the pinned and the published epoch are alive: {st:?}");
    assert_eq!(st.created, st.retired + st.live, "conservation: {st:?}");
    let (shared, total) = edb.pin().shared_object_chunks(&epoch0);
    assert_eq!(shared, total - rewritten.len());
    assert!(rewritten.len() <= 11);
}
