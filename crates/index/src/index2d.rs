//! Indexing objects moving in the plane: the paper's 3-D variant.
//!
//! "For an object moving in 2-dimensional space, the above scheme can be
//! mimicked using an index of 3-dimensional space, with the third dimension
//! being, obviously, time."  The index here keeps each object's motion as
//! 3-D line segments in (time × x × y) — piecewise, across motion-vector
//! updates — in a `Tree<3>`, the tree the attribute index runs over
//! (time × value), beside an id-ordered leg table.  Both are shared
//! between clones, so each database epoch publishes its own index for the
//! price of the batch, not of the population.

use most_spatial::predicates::inside_rect;
use most_spatial::{MovingPoint, Point, Rect, Velocity};
use most_temporal::{Horizon, Interval, IntervalSet, Tick};

use crate::cowmap::CowMap;
use crate::dynidx::QueryStats;
use crate::tree::{Bounds, Seg, Tree, NODES_COPIED};

/// One motion leg of an indexed object.
#[derive(Debug, Clone, Copy)]
struct Leg {
    from: Tick,
    until: Tick,
    motion: MovingPoint,
}

impl Leg {
    fn seg(&self) -> Seg<3> {
        let a = self.motion.position_at(self.from as f64);
        let b = self.motion.position_at(self.until as f64);
        Seg {
            p0: [self.from as f64, a.x, a.y],
            p1: [self.until as f64, b.x, b.y],
        }
    }
}

/// Octree index over moving points in the plane.
#[derive(Debug, Clone)]
pub struct MovingObjectIndex2D {
    tree: Tree<3>,
    objects: CowMap<Vec<Leg>>,
    lifetime: Tick,
}

impl MovingObjectIndex2D {
    /// Creates an index over `[0, lifetime]` ticks and the given spatial
    /// extent.
    pub fn new(lifetime: Tick, space: Rect) -> Self {
        MovingObjectIndex2D {
            tree: Tree::new(Bounds {
                min: [0.0, space.min_x, space.min_y],
                max: [lifetime as f64, space.max_x, space.max_y],
            }),
            objects: CowMap::new(NODES_COPIED),
            lifetime,
        }
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The index lifetime `T`.
    pub fn lifetime(&self) -> Tick {
        self.lifetime
    }

    /// Inserts an object at tick `at` with position `p` and motion vector
    /// `v`.
    ///
    /// # Panics
    /// Panics when the id is already present.
    pub fn insert(&mut self, id: u64, at: Tick, p: Point, v: Velocity) {
        assert!(
            !self.objects.contains_key(id),
            "object #{id} already indexed"
        );
        let leg = Leg {
            from: at,
            until: self.lifetime,
            motion: MovingPoint::new(p, at, v),
        };
        self.tree.replace(id, [], [leg.seg()]);
        self.objects.insert(id, vec![leg]);
    }

    /// Motion-vector update at tick `t` (position explicitly supplied, as
    /// sensors report both).
    pub fn update(&mut self, id: u64, t: Tick, p: Point, v: Velocity) {
        let legs = self.objects.get_mut(id).expect("object must be indexed");
        let last = legs.last_mut().expect("non-empty legs");
        assert!(t >= last.from, "updates must move forward in time");
        let old_seg = last.seg();
        let new_leg = Leg {
            from: t,
            until: self.lifetime,
            motion: MovingPoint::new(p, t, v),
        };
        // The old leg keeps its served prefix, if it has one.
        let prefix = (t > last.from).then(|| {
            last.until = t - 1;
            last.seg()
        });
        match prefix {
            Some(_) => legs.push(new_leg),
            None => *last = new_leg,
        }
        let new = prefix.into_iter().chain([new_leg.seg()]);
        self.tree.replace(id, [old_seg], new);
    }

    /// Removes an object and every segment of its motion history; returns
    /// whether it was present.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(legs) = self.objects.remove(id) else {
            return false;
        };
        self.tree.replace(id, legs.iter().map(Leg::seg), []);
        true
    }

    /// Objects inside `region` at tick `t` ("Retrieve the objects that are
    /// currently in the polygon P", with rectangles standing in for
    /// regions), plus access stats.
    pub fn query_at(&self, t: Tick, region: &Rect) -> (Vec<u64>, QueryStats) {
        let probe = Bounds {
            min: [t as f64 - 0.5, region.min_x, region.min_y],
            max: [t as f64 + 0.5, region.max_x, region.max_y],
        };
        let (candidates, nodes_visited) = self.tree.query(&probe);
        let mut stats = QueryStats {
            nodes_visited,
            candidates: candidates.len() as u64,
            results: 0,
        };
        let out: Vec<u64> = candidates
            .into_iter()
            .filter(|&id| self.position_of(id, t).is_some_and(|p| region.contains(p)))
            .collect();
        stats.results = out.len() as u64;
        (out, stats)
    }

    /// Continuous variant: objects entering `region` during `[from, to]`,
    /// with the tick intervals they spend inside.
    pub fn query_window(
        &self,
        from: Tick,
        to: Tick,
        region: &Rect,
    ) -> (Vec<(u64, IntervalSet)>, QueryStats) {
        let probe = Bounds {
            min: [from as f64, region.min_x, region.min_y],
            max: [to as f64, region.max_x, region.max_y],
        };
        let (candidates, nodes_visited) = self.tree.query(&probe);
        let mut stats = QueryStats {
            nodes_visited,
            candidates: candidates.len() as u64,
            results: 0,
        };
        let h = Horizon::new(self.lifetime);
        let window = IntervalSet::singleton(Interval::new(from, to.min(self.lifetime)));
        let mut out = Vec::new();
        for id in candidates {
            let Some(legs) = self.objects.get(id) else {
                continue;
            };
            let mut acc = IntervalSet::empty();
            for leg in legs {
                let span = IntervalSet::singleton(Interval::new(leg.from, leg.until));
                acc = acc.union(
                    &inside_rect(leg.motion, *region, h)
                        .intersect(&span)
                        .intersect(&window),
                );
            }
            if !acc.is_empty() {
                out.push((id, acc));
            }
        }
        out.sort_by_key(|(id, _)| *id);
        stats.results = out.len() as u64;
        (out, stats)
    }

    /// Exact recorded position of an object at tick `t`.
    pub fn position_of(&self, id: u64, t: Tick) -> Option<Point> {
        let legs = self.objects.get(id)?;
        let leg = legs
            .iter()
            .rev()
            .find(|l| l.from <= t)
            .or_else(|| legs.first())?;
        Some(leg.motion.position_at_tick(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Rect {
        Rect::new(-500.0, -500.0, 500.0, 500.0)
    }

    #[test]
    fn query_at_finds_moving_objects() {
        let mut idx = MovingObjectIndex2D::new(1000, space());
        idx.insert(1, 0, Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
        idx.insert(2, 0, Point::new(0.0, 100.0), Velocity::zero());
        let region = Rect::new(40.0, -10.0, 60.0, 10.0);
        let (ids, _) = idx.query_at(50, &region);
        assert_eq!(ids, vec![1]);
        let (ids, _) = idx.query_at(0, &region);
        assert!(ids.is_empty());
        let (ids, _) = idx.query_at(50, &Rect::new(-10.0, 90.0, 10.0, 110.0));
        assert_eq!(ids, vec![2]);
    }

    #[test]
    fn query_window_returns_intervals() {
        let mut idx = MovingObjectIndex2D::new(1000, space());
        idx.insert(1, 0, Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
        let region = Rect::new(40.0, -10.0, 60.0, 10.0);
        let (rows, _) = idx.query_window(0, 1000, &region);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.first_tick(), Some(40));
        assert_eq!(rows[0].1.last_tick(), Some(60));
        // A window that misses the crossing.
        let (rows, _) = idx.query_window(70, 100, &region);
        assert!(rows.is_empty());
    }

    #[test]
    fn update_changes_course() {
        let mut idx = MovingObjectIndex2D::new(1000, space());
        idx.insert(1, 0, Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
        // At t=30 turn north.
        idx.update(1, 30, Point::new(30.0, 0.0), Velocity::new(0.0, 1.0));
        let east = Rect::new(45.0, -5.0, 55.0, 5.0);
        let (ids, _) = idx.query_at(50, &east);
        assert!(ids.is_empty(), "old course should be un-indexed");
        let north = Rect::new(25.0, 15.0, 35.0, 25.0);
        let (ids, _) = idx.query_at(50, &north);
        assert_eq!(ids, vec![1]);
        // The historical prefix is still queryable.
        let (ids, _) = idx.query_at(10, &Rect::new(5.0, -5.0, 15.0, 5.0));
        assert_eq!(ids, vec![1]);
    }

    #[test]
    fn index_matches_brute_force_on_many_objects() {
        let mut idx = MovingObjectIndex2D::new(500, space());
        let mut objs = Vec::new();
        for i in 0..200u64 {
            let p = Point::new(
                (i % 20) as f64 * 40.0 - 400.0,
                (i / 20) as f64 * 40.0 - 200.0,
            );
            let v = Velocity::new(((i % 5) as f64 - 2.0) * 0.3, ((i % 3) as f64 - 1.0) * 0.3);
            idx.insert(i, 0, p, v);
            objs.push(MovingPoint::from_origin(p, v));
        }
        let region = Rect::new(-50.0, -50.0, 50.0, 50.0);
        for t in [0u64, 100, 250, 499] {
            let (got, stats) = idx.query_at(t, &region);
            let want: Vec<u64> = objs
                .iter()
                .enumerate()
                .filter(|(_, m)| region.contains(m.position_at_tick(t)))
                .map(|(i, _)| i as u64)
                .collect();
            assert_eq!(got, want, "t = {t}");
            assert!(stats.nodes_visited > 0);
        }
    }

    #[test]
    #[should_panic]
    fn double_insert_panics() {
        let mut idx = MovingObjectIndex2D::new(100, space());
        idx.insert(1, 0, Point::origin(), Velocity::zero());
        idx.insert(1, 0, Point::origin(), Velocity::zero());
    }
}
