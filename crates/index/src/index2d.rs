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
//!
//! The index is a filter: [`MovingObjectIndex2D::candidates`] returns every
//! object whose motion may touch a box during a window, and the caller
//! decides with its own exact predicate.

use most_spatial::{MovingPoint, Point, Rect, Velocity};
use most_temporal::Tick;

use crate::legs::{Legs, Motion};
use crate::tree::Bounds;

impl Motion<3> for MovingPoint {
    fn at(&self, t: Tick) -> [f64; 3] {
        let p = self.position_at_tick(t);
        [t as f64, p.x, p.y]
    }

    fn scale(&self, t: Tick) -> f64 {
        let (a, v) = (self.anchor, self.velocity);
        let dt = (t as f64 - self.since as f64).abs();
        a.x.abs().max(a.y.abs()) + v.dx.abs().max(v.dy.abs()) * dt
    }
}

/// Octree index over moving points in the plane.
#[derive(Debug, Clone)]
pub struct MovingObjectIndex2D {
    legs: Legs<MovingPoint, 3>,
}

impl MovingObjectIndex2D {
    /// Creates an index over ticks `[0, lifetime]` and the given spatial
    /// extent.
    pub fn new(lifetime: Tick, space: Rect) -> Self {
        MovingObjectIndex2D {
            legs: Legs::new(
                lifetime,
                [0.0, space.min_x, space.min_y],
                [0.0, space.max_x, space.max_y],
            ),
        }
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.legs.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts an object at tick `at` with position `p` and motion vector
    /// `v`.
    ///
    /// # Panics
    /// Panics when the id is already present.
    pub fn insert(&mut self, id: u64, at: Tick, p: Point, v: Velocity) {
        self.legs.insert(id, at, MovingPoint::new(p, at, v));
    }

    /// Motion-vector update at tick `t` (position explicitly supplied, as
    /// sensors report both).
    pub fn update(&mut self, id: u64, t: Tick, p: Point, v: Velocity) {
        self.legs.update(id, t, MovingPoint::new(p, t, v));
    }

    /// Removes an object and every segment of its motion history; returns
    /// whether it was present.
    pub fn remove(&mut self, id: u64) -> bool {
        self.legs.remove(id)
    }

    /// Reconstructs the index at tick `t` when the ticks `[t, t + reach]`
    /// leave its lifetime ("the index needs to be reconstructed every T
    /// time units"); returns whether it did.  Ticks are global: the
    /// lifetime after a reconstruction is `[t, t + T]`.
    pub fn roll_to(&mut self, t: Tick, reach: Tick) -> bool {
        self.legs.roll_to(t, reach)
    }

    /// The objects whose motion may touch `region` at some tick of
    /// `[from, to]`, ascending: a superset of those that do, for the caller
    /// to test exactly.  Also returns the number of tree nodes visited.
    /// `None` when the window leaves the current lifetime or `region`
    /// leaves the indexed space, where the index cannot answer.
    pub fn candidates(&self, from: Tick, to: Tick, region: &Rect) -> Option<(Vec<u64>, u64)> {
        let probe = Bounds {
            min: [from as f64, region.min_x, region.min_y],
            max: [to as f64, region.max_x, region.max_y],
        };
        self.legs.query(from, to, &probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Rect {
        Rect::new(-500.0, -500.0, 500.0, 500.0)
    }

    fn ids(idx: &MovingObjectIndex2D, from: Tick, to: Tick, region: &Rect) -> Option<Vec<u64>> {
        idx.candidates(from, to, region).map(|(ids, _)| ids)
    }

    #[test]
    fn candidates_find_moving_objects() {
        let mut idx = MovingObjectIndex2D::new(1000, space());
        idx.insert(1, 0, Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
        idx.insert(2, 0, Point::new(0.0, 100.0), Velocity::zero());
        let region = Rect::new(40.0, -10.0, 60.0, 10.0);
        assert_eq!(ids(&idx, 50, 50, &region), Some(vec![1]));
        assert_eq!(ids(&idx, 0, 0, &region), Some(vec![]));
        assert_eq!(ids(&idx, 0, 1000, &region), Some(vec![1]));
        // A window that misses the crossing.
        assert_eq!(ids(&idx, 70, 100, &region), Some(vec![]));
        let park = Rect::new(-10.0, 90.0, 10.0, 110.0);
        assert_eq!(ids(&idx, 50, 50, &park), Some(vec![2]));
    }

    #[test]
    fn a_probe_beyond_the_lifetime_or_the_space_is_not_answered() {
        let mut idx = MovingObjectIndex2D::new(100, space());
        idx.insert(1, 0, Point::origin(), Velocity::zero());
        let home = Rect::new(-1.0, -1.0, 1.0, 1.0);
        assert_eq!(ids(&idx, 0, 100, &home), Some(vec![1]));
        assert_eq!(ids(&idx, 50, 101, &home), None);
        assert_eq!(ids(&idx, 0, 0, &Rect::new(0.0, 0.0, 600.0, 1.0)), None);
        // After a reconstruction at 80 the lifetime is [80, 180].
        assert!(idx.roll_to(80, 50));
        assert_eq!(ids(&idx, 50, 60, &home), None);
        assert_eq!(ids(&idx, 80, 180, &home), Some(vec![1]));
    }

    #[test]
    fn update_changes_course() {
        let mut idx = MovingObjectIndex2D::new(1000, space());
        idx.insert(1, 0, Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
        // At t=30 turn north.
        idx.update(1, 30, Point::new(30.0, 0.0), Velocity::new(0.0, 1.0));
        let east = Rect::new(45.0, -5.0, 55.0, 5.0);
        assert_eq!(
            ids(&idx, 50, 50, &east),
            Some(vec![]),
            "old course un-indexed"
        );
        let north = Rect::new(25.0, 15.0, 35.0, 25.0);
        assert_eq!(ids(&idx, 50, 50, &north), Some(vec![1]));
        // The historical prefix is still indexed.
        let past = Rect::new(5.0, -5.0, 15.0, 5.0);
        assert_eq!(ids(&idx, 10, 10, &past), Some(vec![1]));
    }

    #[test]
    fn candidates_hold_every_object_inside_on_many_objects() {
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
            let got: Vec<u64> = idx
                .candidates(t, t, &region)
                .unwrap()
                .0
                .into_iter()
                .filter(|&id| region.contains(objs[id as usize].position_at_tick(t)))
                .collect();
            let want: Vec<u64> = (0..objs.len() as u64)
                .filter(|&id| region.contains(objs[id as usize].position_at_tick(t)))
                .collect();
            assert_eq!(got, want, "t = {t}");
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
