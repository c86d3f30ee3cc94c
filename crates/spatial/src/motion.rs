//! Uniform linear motion: the paper's motion vector.
//!
//! Section 2.1 represents a dynamic attribute `A` by `A.value`,
//! `A.updatetime` and `A.function`, with the value at `A.updatetime + t0`
//! given by `A.value + A.function(t0)`.  For positions with linear functions
//! that is exactly a [`MovingPoint`]: an anchor point, the tick it was
//! recorded at, and a velocity.

use crate::point::{Point, Velocity};
use most_temporal::Tick;
use std::fmt;

/// A point moving with constant velocity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovingPoint {
    /// Position at tick [`MovingPoint::since`] (the `value` sub-attribute).
    pub anchor: Point,
    /// Tick at which `anchor` was recorded (the `updatetime` sub-attribute).
    pub since: Tick,
    /// Displacement per tick (the `function` sub-attribute, linear case).
    pub velocity: Velocity,
}

impl MovingPoint {
    /// A point at `anchor` from tick `since`, moving with `velocity`.
    pub fn new(anchor: Point, since: Tick, velocity: Velocity) -> Self {
        MovingPoint {
            anchor,
            since,
            velocity,
        }
    }

    /// A stationary point (zero motion vector).
    pub fn stationary(p: Point) -> Self {
        MovingPoint::new(p, 0, Velocity::zero())
    }

    /// A point anchored at tick 0.
    pub fn from_origin(anchor: Point, velocity: Velocity) -> Self {
        MovingPoint::new(anchor, 0, velocity)
    }

    /// Position at real-valued time `t` (ticks; may precede `since`, in
    /// which case the motion is extrapolated backwards).
    pub fn position_at(self, t: f64) -> Point {
        let dt = t - self.since as f64;
        self.anchor + self.velocity * dt
    }

    /// Position at an integer clock tick.
    pub fn position_at_tick(self, t: Tick) -> Point {
        self.position_at(t as f64)
    }

    /// Distance to another moving point at real time `t`.
    pub fn dist_at(self, other: MovingPoint, t: f64) -> f64 {
        self.position_at(t).dist(other.position_at(t))
    }

    /// Re-anchors the motion at tick `t` without changing the trajectory.
    ///
    /// This models the paper's observation that an explicit update "may
    /// change its value sub-attribute, or its function sub-attribute, or
    /// both": re-anchoring changes `value`/`updatetime` while the induced
    /// position function stays identical.
    pub fn rebased_at(self, t: Tick) -> MovingPoint {
        MovingPoint::new(self.position_at_tick(t), t, self.velocity)
    }

    /// A new motion starting from this trajectory's position at tick `t`
    /// with a different velocity — a motion-vector update.
    pub fn redirected_at(self, t: Tick, velocity: Velocity) -> MovingPoint {
        MovingPoint::new(self.position_at_tick(t), t, velocity)
    }

    /// Whether the point never moves.
    pub fn is_stationary(self) -> bool {
        self.velocity.is_zero()
    }

    /// The relative motion `self - other`: a moving point tracing the
    /// difference vector, anchored at tick `t`.
    ///
    /// `DIST(self, other) ≤ r` is equivalent to the relative motion staying
    /// inside the disk of radius `r` around the origin, which is how
    /// [`crate::predicates::dist_within`] reduces the two-object predicate to
    /// a quadratic inequality.
    pub fn relative_at(self, other: MovingPoint, t: Tick) -> MovingPoint {
        let p0 = self.position_at_tick(t);
        let q0 = other.position_at_tick(t);
        MovingPoint::new(
            Point::new(p0.x - q0.x, p0.y - q0.y),
            t,
            self.velocity - other.velocity,
        )
    }
}

impl fmt::Display for MovingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @t={} +{}", self.anchor, self.since, self.velocity)
    }
}

most_testkit::json_struct!(MovingPoint {
    anchor,
    since,
    velocity
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_advances_linearly() {
        let m = MovingPoint::from_origin(Point::new(1.0, 2.0), Velocity::new(2.0, -1.0));
        assert_eq!(m.position_at(0.0), Point::new(1.0, 2.0));
        assert_eq!(m.position_at(3.0), Point::new(7.0, -1.0));
        assert_eq!(m.position_at_tick(10), Point::new(21.0, -8.0));
    }

    #[test]
    fn anchor_tick_offsets_time() {
        let m = MovingPoint::new(Point::origin(), 5, Velocity::new(1.0, 0.0));
        assert_eq!(m.position_at_tick(5), Point::origin());
        assert_eq!(m.position_at_tick(8), Point::new(3.0, 0.0));
        // Extrapolation backwards.
        assert_eq!(m.position_at_tick(3), Point::new(-2.0, 0.0));
    }

    #[test]
    fn rebasing_preserves_trajectory() {
        let m = MovingPoint::from_origin(Point::new(1.0, 1.0), Velocity::new(0.5, 0.25));
        let r = m.rebased_at(8);
        assert_eq!(r.since, 8);
        for t in [0u64, 4, 8, 16] {
            assert_eq!(m.position_at_tick(t), r.position_at_tick(t));
        }
    }

    #[test]
    fn redirection_changes_course_from_t() {
        let m = MovingPoint::from_origin(Point::origin(), Velocity::new(1.0, 0.0));
        let r = m.redirected_at(4, Velocity::new(0.0, 1.0));
        assert_eq!(r.position_at_tick(4), Point::new(4.0, 0.0));
        assert_eq!(r.position_at_tick(6), Point::new(4.0, 2.0));
    }

    #[test]
    fn relative_motion_tracks_distance() {
        let a = MovingPoint::from_origin(Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
        let b = MovingPoint::from_origin(Point::new(10.0, 0.0), Velocity::new(-1.0, 0.0));
        let rel = a.relative_at(b, 3);
        for t in [0.0, 1.5, 5.0, 7.25] {
            let d = rel.position_at(t).dist(Point::origin());
            assert!((d - a.dist_at(b, t)).abs() < 1e-12);
        }
    }

    #[test]
    fn stationary_detection() {
        assert!(MovingPoint::stationary(Point::new(2.0, 2.0)).is_stationary());
        assert!(
            !MovingPoint::from_origin(Point::origin(), Velocity::new(0.1, 0.0)).is_stationary()
        );
    }
}
