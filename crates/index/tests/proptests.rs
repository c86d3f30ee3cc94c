//! Property tests: the Section 4 indexes must agree with the linear-scan
//! ground truth under random insert/update/query workloads, and the
//! position index's candidates must hold every object a brute-force test
//! finds, even where rounding decides a touch.

use most_index::{DynamicAttributeIndex, MovingObjectIndex2D, LEAF_CAPACITY};
use most_spatial::{MovingPoint, Point, Rect, Trajectory, Velocity};
use most_temporal::{Horizon, IntervalSet, Tick};
use most_testkit::check::{
    floats, ints, just, one_of, select, tuple2, tuple3, tuple4, vecs, Check, Gen,
};

const LIFETIME: Tick = 200;

/// The id pools and op counts below were sized for a leaf capacity of 8
/// and grow with it, so that leaves split and later ops rewrite interior
/// nodes, not just the root leaf.
const SCALE: usize = LEAF_CAPACITY / 8;

#[derive(Debug, Clone)]
enum Op {
    Insert {
        id: u64,
        value: f64,
        slope: f64,
    },
    Update {
        id: u64,
        t: Tick,
        value: f64,
        slope: f64,
    },
}

fn arb_ops() -> Gen<Vec<Op>> {
    // Ids from a small pool; updates target previously inserted ids (we
    // filter at replay time).
    let pool = 40 * SCALE as u64;
    vecs(
        one_of(vec![
            tuple3(ints(0..pool), ints(-100i32..100), ints(-8i32..8)).map(|(id, v, s)| {
                Op::Insert {
                    id,
                    value: v as f64,
                    slope: s as f64 * 0.25,
                }
            }),
            tuple4(
                ints(0..pool),
                ints(1..LIFETIME),
                ints(-100i32..100),
                ints(-8i32..8),
            )
            .map(|(id, t, v, s)| Op::Update {
                id,
                t,
                value: v as f64,
                slope: s as f64 * 0.25,
            }),
        ]),
        1..30 * SCALE,
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
        let &(from, v, s) = pieces
            .iter()
            .rev()
            .find(|(f, _, _)| *f <= t)
            .unwrap_or(&pieces[0]);
        Some(v + s * (t as f64 - from as f64))
    }

    fn in_range_at(&self, t: Tick, lo: f64, hi: f64) -> Vec<u64> {
        self.objects
            .keys()
            .filter(|&&id| self.value_of(id, t).is_some_and(|v| lo <= v && v <= hi))
            .copied()
            .collect()
    }

    fn in_range_intervals(&self, id: u64, from: Tick, lo: f64, hi: f64) -> IntervalSet {
        IntervalSet::from_predicate(Horizon::new(LIFETIME), |t| {
            t >= from && self.value_of(id, t).is_some_and(|v| lo <= v && v <= hi)
        })
    }
}

fn replay(ops: &[Op]) -> (DynamicAttributeIndex, Model) {
    let mut idx = DynamicAttributeIndex::new(LIFETIME, (-5000.0, 5000.0));
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
            Op::Update {
                id,
                t,
                value,
                slope,
            } => {
                let Some(prev) = last_update.get(&id).copied() else {
                    continue;
                };
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
    let gen = tuple3(
        arb_ops(),
        ints(0..LIFETIME),
        tuple2(ints(-120i32..100), ints(1u32..80)),
    );
    Check::new("index::instantaneous_matches_model")
        .cases(48)
        .run(&gen, |(ops, now, (lo, width))| {
            let (idx, model) = replay(ops);
            let (lo, hi) = (*lo as f64, *lo as f64 + *width as f64);
            let (got, stats) = idx.instantaneous(*now, lo, hi).unwrap();
            let want = model.in_range_at(*now, lo, hi);
            assert_eq!(&got, &want, "now {now}");
            assert_eq!(stats.results, got.len() as u64);
        });
}

#[test]
fn continuous_matches_model() {
    let gen = tuple3(
        arb_ops(),
        ints(0..LIFETIME),
        tuple2(ints(-120i32..100), ints(1u32..80)),
    );
    Check::new("index::continuous_matches_model")
        .cases(48)
        .run(&gen, |(ops, now, (lo, width))| {
            let (idx, model) = replay(ops);
            let (lo, hi) = (*lo as f64, *lo as f64 + *width as f64);
            let (rows, _) = idx.continuous(*now, lo, hi).unwrap();
            for (&id, _) in model.objects.iter() {
                let want = model.in_range_intervals(id, *now, lo, hi);
                let got = rows
                    .iter()
                    .find(|(rid, _)| *rid == id)
                    .map(|(_, s)| s.clone())
                    .unwrap_or_default();
                assert_eq!(got, want, "object {id}");
            }
        });
}

/// The tree against the model before and after a reconstruction: rolled
/// at `now` with a reach of the whole lifetime, it re-inserts every object
/// from its piece at `now`, and answers for `now` and half a lifetime on
/// stay the model's.
#[test]
fn quadtree_agrees_with_the_model_across_a_reconstruction() {
    let gen = tuple4(
        arb_ops(),
        ints(0..LIFETIME),
        ints(-120i32..100),
        ints(1u32..80),
    );
    Check::new("index::quadtree_agrees_with_the_model")
        .cases(48)
        .run(&gen, |(ops, now, lo, width)| {
            let (mut idx, model) = replay(ops);
            let (lo, hi) = (*lo as f64, *lo as f64 + *width as f64);
            assert_eq!(
                idx.instantaneous(*now, lo, hi).unwrap().0,
                model.in_range_at(*now, lo, hi)
            );
            // Updates all fall before `LIFETIME`, so from the last of them
            // on the model's lines are the current pieces.
            let last = ops
                .iter()
                .filter_map(|op| match op {
                    Op::Update { t, .. } => Some(*t),
                    Op::Insert { .. } => None,
                })
                .max()
                .unwrap_or(0)
                .max(*now);
            assert_eq!(idx.roll_to(last, LIFETIME), last > 0);
            for t in [last, last + LIFETIME / 2] {
                assert_eq!(
                    idx.instantaneous(t, lo, hi).unwrap().0,
                    model.in_range_at(t, lo, hi),
                    "rolled at {last}, queried at {t}"
                );
            }
            for &id in model.objects.keys() {
                assert_eq!(
                    idx.value_of(id, last),
                    model.value_of(id, last),
                    "object {id}"
                );
            }
        });
}

/// Where the co-located objects of the trajectory model sit.
const SPOT: (i32, i32) = (17, -33);

/// Motion vectors with components in [-4, 4]: a quarter stationary, a
/// quarter crawling at 1% of that, so the octree's split rule takes both
/// its branches — time is halved only under fast movers.
fn arb_velocity() -> Gen<Velocity> {
    tuple3(
        ints(-8i32..=8),
        ints(-8i32..=8),
        select(&[0.0, 0.5, 0.5, 0.005]),
    )
    .map(|(vx, vy, scale)| Velocity::new(vx as f64 * scale, vy as f64 * scale))
}

/// An object of the trajectory model: its start, its motion vector, and
/// updates `(dt, velocity)` each `dt` ticks after the previous one — a
/// zero `dt` replaces the leg, a positive one leaves a prefix leg behind.
#[allow(clippy::type_complexity)]
fn arb_object() -> Gen<((i32, i32), Velocity, Vec<(Tick, Velocity)>)> {
    let lattice = tuple2(ints(-200i32..200), ints(-200i32..200));
    tuple3(
        one_of(vec![lattice.clone(), lattice, just(SPOT)]),
        arb_velocity(),
        vecs(tuple2(ints(0..60 as Tick), arb_velocity()), 0..4),
    )
}

#[test]
fn index2d_candidates_hold_the_trajectory_model() {
    let region = one_of(vec![
        tuple2(ints(-200i32..150), ints(-200i32..150)),
        just((0, -60)),
    ]);
    let gen = tuple4(
        vecs(arb_object(), 1..40 * SCALE),
        ints(0..LIFETIME),
        tuple2(ints(0..LIFETIME), ints(0..LIFETIME)),
        region,
    );
    Check::new("index::index2d_matches_trajectory_model")
        .cases(64)
        .run(&gen, |(objs, t, (from, len), (rx, ry))| {
            let mut idx =
                MovingObjectIndex2D::new(LIFETIME, Rect::new(-1500.0, -1500.0, 1500.0, 1500.0));
            let trajs: Vec<Trajectory> = objs
                .iter()
                .enumerate()
                .map(|(i, ((x, y), v, updates))| {
                    let p = Point::new(*x as f64, *y as f64);
                    idx.insert(i as u64, 0, p, *v);
                    let mut traj = Trajectory::new(MovingPoint::from_origin(p, *v));
                    let mut at = 0;
                    for &(dt, nv) in updates {
                        at += dt;
                        if at >= LIFETIME {
                            break;
                        }
                        idx.update(i as u64, at, traj.position_at_tick(at), nv);
                        traj.update_velocity(at, nv);
                    }
                    traj
                })
                .collect();
            let region = Rect::new(*rx as f64, *ry as f64, *rx as f64 + 60.0, *ry as f64 + 60.0);
            let inside = |id: usize, tick: Tick| region.contains(trajs[id].position_at_tick(tick));
            // The candidates, filtered through the model, are the model's
            // answer: nothing inside is missing.
            let answer = |from: Tick, to: Tick| {
                let (ids, _) = idx.candidates(from, to, &region).expect("inside the index");
                let hit = |id: u64| (from..=to).any(|tick| inside(id as usize, tick));
                let brute: Vec<u64> = (0..trajs.len() as u64).filter(|&id| hit(id)).collect();
                (
                    ids.into_iter().filter(|&id| hit(id)).collect::<Vec<u64>>(),
                    brute,
                )
            };
            let (got, want) = answer(*t, *t);
            assert_eq!(got, want, "at {t}");
            let to = (from + len).min(LIFETIME);
            let (got, want) = answer(*from, to);
            assert_eq!(got, want, "window {from}..={to}");
        });
}

// ---------------------------------------------------------------------------
// The clip is conservative: touches that rounding decides are kept
// ---------------------------------------------------------------------------

/// An object of the edge model: start, motion vector and updates `(dt,
/// velocity)`, all with float coordinates, so an edge through a position
/// seldom falls on a round number.
#[allow(clippy::type_complexity)]
fn arb_float_object() -> Gen<((f64, f64), (f64, f64), Vec<(Tick, (f64, f64))>)> {
    let velocity = || tuple2(floats(-3.0..3.0), floats(-3.0..3.0));
    tuple3(
        tuple2(floats(-300.0..300.0), floats(-300.0..300.0)),
        velocity(),
        vecs(tuple2(ints(0..60 as Tick), velocity()), 0..3),
    )
}

/// A box with one edge through an object's position at a tick, probed
/// over a window that touches the box at that tick only at either end (or
/// at the tick alone), with the whole world moved to an offset: the clip's
/// time and space parameters are then equal as real numbers, so rounding
/// picks the answer unless the clip is conservative.  The candidates must
/// hold every object a brute-force per-tick test finds inside.
#[test]
fn index2d_candidates_hold_every_touch_at_a_window_end() {
    let gen = tuple4(
        tuple2(
            select(&[0.0, 1e6, 1e9]),
            vecs(arb_float_object(), 1..20 * SCALE),
        ),
        tuple4(
            ints(0usize..1_000),
            ints(0..=LIFETIME),
            ints(0u32..4),
            ints(0u32..3),
        ),
        tuple2(floats(0.5..80.0), floats(0.5..80.0)),
        ints(0..LIFETIME),
    );
    Check::new("index::index2d_candidates_hold_every_touch_at_a_window_end")
        .cases(64)
        .regressions(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/proptests.seeds"
        ))
        .run(
            &gen,
            |((offset, objs), (pick, touch, edge, end), (w, h), len)| {
                let r = 2_000.0;
                let space = Rect::new(offset - r, offset - r, offset + r, offset + r);
                let mut idx = MovingObjectIndex2D::new(LIFETIME, space);
                let trajs: Vec<Trajectory> = objs
                    .iter()
                    .enumerate()
                    .map(|(i, ((x, y), (vx, vy), updates))| {
                        let (p, v) = (Point::new(offset + x, offset + y), Velocity::new(*vx, *vy));
                        idx.insert(i as u64, 0, p, v);
                        let mut traj = Trajectory::new(MovingPoint::from_origin(p, v));
                        let mut at = 0;
                        for &(dt, (vx, vy)) in updates {
                            at += dt;
                            if at >= LIFETIME {
                                break;
                            }
                            let nv = Velocity::new(vx, vy);
                            idx.update(i as u64, at, traj.position_at_tick(at), nv);
                            traj.update_velocity(at, nv);
                        }
                        traj
                    })
                    .collect();
                let p = trajs[pick % trajs.len()].position_at_tick(*touch);
                let (x0, y0) = (p.x - w / 2.0, p.y - h / 2.0);
                let region = match edge {
                    0 => Rect::new(p.x, y0, p.x + w, y0 + h),
                    1 => Rect::new(p.x - w, y0, p.x, y0 + h),
                    2 => Rect::new(x0, p.y, x0 + w, p.y + h),
                    _ => Rect::new(x0, p.y - h, x0 + w, p.y),
                };
                let (from, to) = match end {
                    0 => (*touch, (touch + len).min(LIFETIME)),
                    1 => (touch.saturating_sub(*len), *touch),
                    _ => (*touch, *touch),
                };
                let (got, _) = idx.candidates(from, to, &region).expect("inside the index");
                for (id, traj) in trajs.iter().enumerate() {
                    if (from..=to).any(|tick| region.contains(traj.position_at_tick(tick))) {
                        assert!(
                            got.contains(&(id as u64)),
                            "object {id} touches {region:?} in {from}..={to} at offset {offset}"
                        );
                    }
                }
            },
        );
}

/// Objects whose one anchor lies far back along their path: object `i`
/// starts at tick 0 so far out that it passes near the origin at tick
/// `roll + near_i`, and the index is rolled to `roll` — the database's
/// reconstruction, which re-inserts each piece with the anchor of its
/// object's last update.  A position is then computed from an anchor up to
/// about 1e11 away, so its rounding error dwarfs the magnitudes of the
/// segment and the box.  A box with an edge or a corner through one
/// object's position near the origin, probed over a window that touches
/// it at either end, at the tick alone or across the whole lifetime, must
/// still yield every object the brute-force per-tick test finds inside.
#[test]
fn index2d_candidates_hold_every_touch_after_a_roll_from_a_far_anchor() {
    let velocity = tuple3(floats(-3.0..3.0), floats(-3.0..3.0), select(&[1.0, 100.0]));
    let gen = tuple4(
        tuple2(
            select(&[1_000 as Tick, 1_000_000, 300_000_000]),
            vecs(
                tuple3(
                    tuple2(floats(-300.0..300.0), floats(-300.0..300.0)),
                    velocity,
                    ints(0..=LIFETIME),
                ),
                1..20 * SCALE,
            ),
        ),
        tuple3(ints(0usize..1_000), ints(0u32..8), ints(0u32..4)),
        tuple2(floats(0.5..80.0), floats(0.5..80.0)),
        ints(0..LIFETIME),
    );
    Check::new("index::index2d_candidates_hold_every_touch_after_a_roll_from_a_far_anchor")
        .cases(64)
        .regressions(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/proptests.seeds"
        ))
        .run(&gen, |((roll, objs), (pick, edge, end), (w, h), len)| {
            let mut idx =
                MovingObjectIndex2D::new(LIFETIME, Rect::new(-2000.0, -2000.0, 2000.0, 2000.0));
            let motions: Vec<MovingPoint> = objs
                .iter()
                .enumerate()
                .map(|(i, ((x, y), (vx, vy, speed), near))| {
                    let v = Velocity::new(vx * speed, vy * speed);
                    // At tick `roll + near` the object is about at (x, y).
                    let far = (roll + near) as f64;
                    let anchor = Point::new(x - v.dx * far, y - v.dy * far);
                    idx.insert(i as u64, 0, anchor, v);
                    MovingPoint::new(anchor, 0, v)
                })
                .collect();
            assert!(idx.roll_to(*roll, LIFETIME));
            let pick = pick % motions.len();
            let touch = roll + objs[pick].2;
            let p = motions[pick].position_at_tick(touch);
            let (x0, y0) = (p.x - w / 2.0, p.y - h / 2.0);
            let region = match edge {
                0 => Rect::new(p.x, y0, p.x + w, y0 + h),
                1 => Rect::new(p.x - w, y0, p.x, y0 + h),
                2 => Rect::new(x0, p.y, x0 + w, p.y + h),
                3 => Rect::new(x0, p.y - h, x0 + w, p.y),
                4 => Rect::new(p.x, p.y, p.x + w, p.y + h),
                5 => Rect::new(p.x - w, p.y, p.x, p.y + h),
                6 => Rect::new(p.x, p.y - h, p.x + w, p.y),
                _ => Rect::new(p.x - w, p.y - h, p.x, p.y),
            };
            let last = roll + LIFETIME;
            let (from, to) = match end {
                0 => (touch, (touch + len).min(last)),
                1 => (touch.saturating_sub(*len).max(*roll), touch),
                2 => (touch, touch),
                _ => (*roll, last),
            };
            let (got, _) = idx.candidates(from, to, &region).expect("inside the index");
            for (id, motion) in motions.iter().enumerate() {
                if (from..=to).any(|tick| region.contains(motion.position_at_tick(tick))) {
                    assert!(
                        got.contains(&(id as u64)),
                        "object {id} touches {region:?} in {from}..={to} after a roll to {roll}"
                    );
                }
            }
        });
}

// ---------------------------------------------------------------------------
// Persistence of the path-copied octree: a clone is a snapshot
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op2 {
    Insert {
        id: u64,
        x: i32,
        y: i32,
        vx: i32,
        vy: i32,
    },
    /// `dt` ticks after the object's previous update.
    Update {
        id: u64,
        dt: Tick,
        vx: i32,
        vy: i32,
    },
    Remove {
        id: u64,
    },
}

fn arb_ops2() -> Gen<Vec<Op2>> {
    // Enough inserts over a small pool that leaves split and later ops
    // rewrite interior nodes, not just the root leaf.
    let vel = || ints(-4i32..4);
    let pool = 32 * SCALE as u64;
    vecs(
        one_of(vec![
            tuple2(
                ints(0..pool),
                tuple4(ints(-200i32..200), ints(-200i32..200), vel(), vel()),
            )
            .map(|(id, (x, y, vx, vy))| Op2::Insert { id, x, y, vx, vy }),
            tuple2(
                ints(0..pool),
                tuple4(ints(-200i32..200), ints(-200i32..200), vel(), vel()),
            )
            .map(|(id, (x, y, vx, vy))| Op2::Insert { id, x, y, vx, vy }),
            tuple4(ints(0..pool), ints(0..40 as Tick), vel(), vel())
                .map(|(id, dt, vx, vy)| Op2::Update { id, dt, vx, vy }),
            ints(0..pool).map(|id| Op2::Remove { id }),
        ]),
        1..60 * SCALE,
    )
}

/// Applies the ops that are valid in sequence (no double insert, no update
/// of a missing object or past the lifetime); `last` tracks each live
/// object's latest update tick and its motion from there.
fn apply2(
    idx: &mut MovingObjectIndex2D,
    last: &mut std::collections::BTreeMap<u64, (Tick, MovingPoint)>,
    ops: &[Op2],
) {
    let vel = |vx: i32, vy: i32| Velocity::new(vx as f64 * 0.5, vy as f64 * 0.5);
    for op in ops {
        match *op {
            Op2::Insert { id, x, y, vx, vy } => {
                // A live id keeps its latest update tick: resetting it to
                // 0 would replay a later update backwards in time.
                if let std::collections::btree_map::Entry::Vacant(entry) = last.entry(id) {
                    let (p, v) = (Point::new(x as f64, y as f64), vel(vx, vy));
                    entry.insert((0, MovingPoint::new(p, 0, v)));
                    idx.insert(id, 0, p, v);
                }
            }
            Op2::Update { id, dt, vx, vy } => {
                let Some((at, motion)) = last.get_mut(&id) else {
                    continue;
                };
                if *at + dt >= LIFETIME {
                    continue;
                }
                *at += dt;
                *motion = motion.redirected_at(*at, vel(vx, vy));
                idx.update(id, *at, motion.anchor, motion.velocity);
            }
            Op2::Remove { id } => {
                assert_eq!(idx.remove(id), last.remove(&id).is_some());
            }
        }
    }
}

/// Everything a reader can ask the index, rendered for comparison: the
/// candidates of instants and windows with the nodes each probe visited
/// (equal trees return equal sets and visit equal nodes), then the same
/// of copies rolled to a few ticks.  A roll rebuilds the tree from each
/// object's stored piece at its tick, so the rendering reads the piece
/// lists too, not only the tree.
fn answers2(idx: &MovingObjectIndex2D) -> String {
    let mut out = format!("len {}\n", idx.len());
    out += &probes2(idx, 0);
    for t in [37, 120, LIFETIME - 1] {
        let mut rolled = idx.clone();
        assert!(rolled.roll_to(t, LIFETIME));
        out += &format!("rolled to {t}\n");
        out += &probes2(&rolled, t);
    }
    out
}

/// The probes of [`answers2`], over ticks counted from `origin`.
fn probes2(idx: &MovingObjectIndex2D, origin: Tick) -> String {
    let regions = [
        Rect::new(-60.0, -60.0, 60.0, 60.0),
        Rect::new(-250.0, -250.0, 0.0, 0.0),
        Rect::new(40.0, -200.0, 260.0, 30.0),
    ];
    let mut out = String::new();
    for region in &regions {
        for t in [0, 37, 120, LIFETIME - 1] {
            let t = origin + t;
            out += &format!("{:?}\n", idx.candidates(t, t, region));
        }
        for (from, to) in [(0, LIFETIME), (30, 90), (150, 160)] {
            let (from, to) = (origin + from, origin + to);
            out += &format!("{:?}\n", idx.candidates(from, to, region));
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
        .regressions(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/proptests.seeds"
        ))
        .run(&tuple2(arb_ops2(), ints(0..60 * SCALE)), |(ops, cut)| {
            let cut = (*cut).min(ops.len());
            let mut last = Default::default();
            let mut before = new_index();
            apply2(&mut before, &mut last, &ops[..cut]);
            let frozen = answers2(&before);

            let mut after = before.clone();
            apply2(&mut after, &mut last, &ops[cut..]);

            let mut fresh = new_index();
            apply2(&mut fresh, &mut Default::default(), ops);
            assert_eq!(
                answers2(&after),
                answers2(&fresh),
                "clone-then-mutate diverged from a fresh build"
            );
            assert_eq!(
                answers2(&before),
                frozen,
                "mutating the clone changed the original"
            );
        });
}
