//! Property tests: both index structures must agree with the linear-scan
//! ground truth under random insert/update/query workloads.

use most_index::{DynamicAttributeIndex, IndexKind, MovingObjectIndex2D};
use most_spatial::{MovingPoint, Point, Rect, Trajectory, Velocity};
use most_temporal::{Horizon, IntervalSet, Tick};
use most_testkit::check::{bools, ints, just, one_of, tuple2, tuple3, tuple4, vecs, Check, Gen};

const LIFETIME: Tick = 200;

#[derive(Debug, Clone)]
enum Op {
    Insert { id: u64, value: f64, slope: f64 },
    Update { id: u64, t: Tick, value: f64, slope: f64 },
}

fn arb_ops() -> Gen<Vec<Op>> {
    // Ids from a small pool; updates target previously inserted ids (we
    // filter at replay time).
    vecs(
        one_of(vec![
            tuple3(ints(0..40u64), ints(-100i32..100), ints(-8i32..8)).map(|(id, v, s)| {
                Op::Insert { id, value: v as f64, slope: s as f64 * 0.25 }
            }),
            tuple4(ints(0..40u64), ints(1..LIFETIME), ints(-100i32..100), ints(-8i32..8))
                .map(|(id, t, v, s)| Op::Update {
                    id,
                    t,
                    value: v as f64,
                    slope: s as f64 * 0.25,
                }),
        ]),
        1..30,
    )
}

/// Ground-truth model: per object, the list of (from, value, slope) pieces.
#[derive(Default)]
struct Model {
    objects: std::collections::BTreeMap<u64, Vec<(Tick, f64, f64)>>,
}

impl Model {
    fn value_of(&self, id: u64, t: Tick) -> Option<f64> {
        let pieces = self.objects.get(&id)?;
        let &(from, v, s) = pieces.iter().rev().find(|(f, _, _)| *f <= t).unwrap_or(&pieces[0]);
        Some(v + s * (t as f64 - from as f64))
    }

    fn in_range_at(&self, t: Tick, lo: f64, hi: f64) -> Vec<u64> {
        self.objects
            .keys()
            .filter(|&&id| {
                self.value_of(id, t).is_some_and(|v| lo <= v && v <= hi)
            })
            .copied()
            .collect()
    }

    fn in_range_intervals(&self, id: u64, from: Tick, lo: f64, hi: f64) -> IntervalSet {
        IntervalSet::from_predicate(Horizon::new(LIFETIME), |t| {
            t >= from && self.value_of(id, t).is_some_and(|v| lo <= v && v <= hi)
        })
    }
}

fn replay(ops: &[Op], kind: IndexKind) -> (DynamicAttributeIndex, Model) {
    let mut idx = DynamicAttributeIndex::new(kind, LIFETIME, (-5000.0, 5000.0));
    let mut model = Model::default();
    let mut last_update: std::collections::BTreeMap<u64, Tick> = Default::default();
    for op in ops {
        match *op {
            Op::Insert { id, value, slope } => {
                if model.objects.contains_key(&id) {
                    continue;
                }
                idx.insert(id, 0, value, slope);
                model.objects.insert(id, vec![(0, value, slope)]);
                last_update.insert(id, 0);
            }
            Op::Update { id, t, value, slope } => {
                let Some(prev) = last_update.get(&id).copied() else { continue };
                if t < prev {
                    continue;
                }
                idx.update(id, t, value, slope);
                let pieces = model.objects.get_mut(&id).expect("inserted");
                if t == prev {
                    *pieces.last_mut().expect("non-empty") = (t, value, slope);
                } else {
                    pieces.push((t, value, slope));
                }
                last_update.insert(id, t);
            }
        }
    }
    (idx, model)
}

#[test]
fn instantaneous_matches_model() {
    let gen = tuple4(
        arb_ops(),
        bools(),
        ints(0..LIFETIME),
        tuple2(ints(-120i32..100), ints(1u32..80)),
    );
    Check::new("index::instantaneous_matches_model").cases(48).run(
        &gen,
        |(ops, kind_r, now, (lo, width))| {
            let kind = if *kind_r { IndexKind::RTree } else { IndexKind::QuadTree };
            let (idx, model) = replay(ops, kind);
            let (lo, hi) = (*lo as f64, *lo as f64 + *width as f64);
            let (got, stats) = idx.instantaneous(*now, lo, hi);
            let want = model.in_range_at(*now, lo, hi);
            assert_eq!(&got, &want, "kind {kind:?} now {now}");
            assert_eq!(stats.results, got.len() as u64);
        },
    );
}

#[test]
fn continuous_matches_model() {
    let gen = tuple4(
        arb_ops(),
        bools(),
        ints(0..LIFETIME),
        tuple2(ints(-120i32..100), ints(1u32..80)),
    );
    Check::new("index::continuous_matches_model").cases(48).run(
        &gen,
        |(ops, kind_r, now, (lo, width))| {
            let kind = if *kind_r { IndexKind::RTree } else { IndexKind::QuadTree };
            let (idx, model) = replay(ops, kind);
            let (lo, hi) = (*lo as f64, *lo as f64 + *width as f64);
            let (rows, _) = idx.continuous(*now, lo, hi);
            for (&id, _) in model.objects.iter() {
                let want = model.in_range_intervals(id, *now, lo, hi);
                let got = rows
                    .iter()
                    .find(|(rid, _)| *rid == id)
                    .map(|(_, s)| s.clone())
                    .unwrap_or_default();
                assert_eq!(got, want, "object {id} kind {kind:?}");
            }
        },
    );
}

#[test]
fn quadtree_and_rtree_agree() {
    let gen = tuple4(
        arb_ops(),
        ints(0..LIFETIME),
        ints(-120i32..100),
        ints(1u32..80),
    );
    Check::new("index::quadtree_and_rtree_agree").cases(48).run(
        &gen,
        |(ops, now, lo, width)| {
            let (qi, _) = replay(ops, IndexKind::QuadTree);
            let (ri, _) = replay(ops, IndexKind::RTree);
            let (lo, hi) = (*lo as f64, *lo as f64 + *width as f64);
            assert_eq!(
                qi.instantaneous(*now, lo, hi).0,
                ri.instantaneous(*now, lo, hi).0
            );
        },
    );
}

#[test]
fn index2d_matches_trajectory_model() {
    #[allow(clippy::type_complexity)]
    let arb_obj: Gen<(i32, i32, i32, i32, Option<(Tick, i32, i32)>)> = tuple2(
        tuple4(ints(-200i32..200), ints(-200i32..200), ints(-4i32..4), ints(-4i32..4)),
        one_of(vec![
            just(None),
            tuple3(ints(1..LIFETIME), ints(-4i32..4), ints(-4i32..4)).map(Some),
        ]),
    )
    .map(|((x, y, vx, vy), upd)| (x, y, vx, vy, upd));
    let gen = tuple4(
        vecs(arb_obj, 1..25),
        ints(0..LIFETIME),
        ints(-200i32..150),
        ints(-200i32..150),
    );
    Check::new("index::index2d_matches_trajectory_model").cases(48).run(
        &gen,
        |(objs, t, rx, ry)| {
            let mut idx =
                MovingObjectIndex2D::new(LIFETIME, Rect::new(-1500.0, -1500.0, 1500.0, 1500.0));
            let mut trajs: Vec<Trajectory> = Vec::new();
            for (i, (x, y, vx, vy, upd)) in objs.iter().enumerate() {
                let p = Point::new(*x as f64, *y as f64);
                let v = Velocity::new(*vx as f64 * 0.5, *vy as f64 * 0.5);
                idx.insert(i as u64, 0, p, v);
                let mut traj = Trajectory::new(MovingPoint::from_origin(p, v));
                if let Some((ut, uvx, uvy)) = upd {
                    let nv = Velocity::new(*uvx as f64 * 0.5, *uvy as f64 * 0.5);
                    idx.update(i as u64, *ut, traj.position_at_tick(*ut), nv);
                    traj.update_velocity(*ut, nv);
                }
                trajs.push(traj);
            }
            let region = Rect::new(*rx as f64, *ry as f64, *rx as f64 + 60.0, *ry as f64 + 60.0);
            let (got, _) = idx.query_at(*t, &region);
            let want: Vec<u64> = trajs
                .iter()
                .enumerate()
                .filter(|(_, traj)| region.contains(traj.position_at_tick(*t)))
                .map(|(i, _)| i as u64)
                .collect();
            assert_eq!(got, want);
        },
    );
}

// ---------------------------------------------------------------------------
// Persistence of the path-copied octree: a clone is a snapshot
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op2 {
    Insert { id: u64, x: i32, y: i32, vx: i32, vy: i32 },
    /// `dt` ticks after the object's previous update.
    Update { id: u64, dt: Tick, vx: i32, vy: i32 },
    Remove { id: u64 },
}

fn arb_ops2() -> Gen<Vec<Op2>> {
    // Enough inserts over a small pool that leaves split (capacity 8) and
    // later ops rewrite interior nodes, not just the root leaf.
    let vel = || ints(-4i32..4);
    vecs(
        one_of(vec![
            tuple2(ints(0..32u64), tuple4(ints(-200i32..200), ints(-200i32..200), vel(), vel()))
                .map(|(id, (x, y, vx, vy))| Op2::Insert { id, x, y, vx, vy }),
            tuple2(ints(0..32u64), tuple4(ints(-200i32..200), ints(-200i32..200), vel(), vel()))
                .map(|(id, (x, y, vx, vy))| Op2::Insert { id, x, y, vx, vy }),
            tuple4(ints(0..32u64), ints(0..40 as Tick), vel(), vel())
                .map(|(id, dt, vx, vy)| Op2::Update { id, dt, vx, vy }),
            ints(0..32u64).map(|id| Op2::Remove { id }),
        ]),
        1..60,
    )
}

/// Applies the ops that are valid in sequence (no double insert, no update
/// of a missing object or past the lifetime); `last` tracks each live
/// object's latest update tick.
fn apply2(
    idx: &mut MovingObjectIndex2D,
    last: &mut std::collections::BTreeMap<u64, Tick>,
    ops: &[Op2],
) {
    let vel = |vx: i32, vy: i32| Velocity::new(vx as f64 * 0.5, vy as f64 * 0.5);
    for op in ops {
        match *op {
            Op2::Insert { id, x, y, vx, vy } => {
                if last.insert(id, 0).is_none() {
                    idx.insert(id, 0, Point::new(x as f64, y as f64), vel(vx, vy));
                }
            }
            Op2::Update { id, dt, vx, vy } => {
                let Some(at) = last.get_mut(&id) else { continue };
                if *at + dt >= LIFETIME {
                    continue;
                }
                *at += dt;
                let p = idx.position_of(id, *at).expect("live object has a position");
                idx.update(id, *at, p, vel(vx, vy));
            }
            Op2::Remove { id } => {
                assert_eq!(idx.remove(id), last.remove(&id).is_some());
            }
        }
    }
}

/// Everything a reader can ask the index, rendered for comparison: ids,
/// intervals and the access-cost stats (equal trees visit equal nodes).
fn answers2(idx: &MovingObjectIndex2D) -> String {
    let regions = [
        Rect::new(-60.0, -60.0, 60.0, 60.0),
        Rect::new(-250.0, -250.0, 0.0, 0.0),
        Rect::new(40.0, -200.0, 260.0, 30.0),
    ];
    let mut out = format!("len {}\n", idx.len());
    for region in &regions {
        for t in [0, 37, 120, LIFETIME - 1] {
            out += &format!("{:?}\n", idx.query_at(t, region));
        }
        for (from, to) in [(0, LIFETIME), (30, 90), (150, 160)] {
            out += &format!("{:?}\n", idx.query_window(from, to, region));
        }
    }
    out
}

#[test]
fn index2d_clone_is_a_snapshot_and_its_mutations_match_a_fresh_build() {
    let new_index =
        || MovingObjectIndex2D::new(LIFETIME, Rect::new(-1500.0, -1500.0, 1500.0, 1500.0));
    Check::new("index::index2d_clone_is_a_snapshot")
        .cases(64)
        .regressions(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/proptests.seeds"))
        .run(&tuple2(arb_ops2(), ints(0usize..60)), |(ops, cut)| {
            let cut = (*cut).min(ops.len());
            let mut last = Default::default();
            let mut before = new_index();
            apply2(&mut before, &mut last, &ops[..cut]);
            let frozen = answers2(&before);

            let mut after = before.clone();
            apply2(&mut after, &mut last, &ops[cut..]);

            let mut fresh = new_index();
            apply2(&mut fresh, &mut Default::default(), ops);
            assert_eq!(answers2(&after), answers2(&fresh), "clone-then-mutate diverged from a fresh build");
            assert_eq!(answers2(&before), frozen, "mutating the clone changed the original");
        });
}
