//! Piecewise-linear trajectories.
//!
//! Between explicit updates a moving object follows its motion vector; an
//! update at tick `u` replaces the vector from `u` onwards.  A [`Trajectory`]
//! records that entire piecewise history, which is what persistent-query
//! evaluation (Section 2.3) and the workload generators need: the paper's
//! example object whose `X.POSITION.function` is `5t`, then `7t` from minute
//! one, then `10t` from minute two, is a three-leg trajectory.

use crate::motion::MovingPoint;
use crate::point::{Point, Velocity};
use most_temporal::Tick;

/// A piecewise-linear motion history: a sequence of legs with strictly
/// increasing start ticks, each valid until the next leg begins (the last
/// leg extends forever).
#[derive(Debug, Clone)]
pub struct Trajectory {
    legs: Legs,
}

/// Leg storage.  A single leg is held inline, so the one-leg trajectory an
/// evaluation builds per candidate (the motion in force now) allocates
/// nothing; the first update that adds a leg moves them to the heap.
#[derive(Debug, Clone)]
enum Legs {
    One([MovingPoint; 1]),
    Many(Vec<MovingPoint>),
}

/// Equal legs are equal trajectories, however they are stored.
impl PartialEq for Trajectory {
    fn eq(&self, other: &Self) -> bool {
        self.legs() == other.legs()
    }
}

impl Trajectory {
    /// Starts a trajectory with a single leg.
    pub fn new(initial: MovingPoint) -> Self {
        Trajectory {
            legs: Legs::One([initial]),
        }
    }

    /// Starts a trajectory at `p` with velocity `v` from tick 0.
    pub fn starting_at(p: Point, v: Velocity) -> Self {
        Trajectory::new(MovingPoint::from_origin(p, v))
    }

    /// The legs, ordered by start tick.
    pub fn legs(&self) -> &[MovingPoint] {
        match &self.legs {
            Legs::One(one) => one,
            Legs::Many(many) => many,
        }
    }

    /// Number of motion-vector updates recorded (legs − 1).
    pub fn update_count(&self) -> usize {
        self.legs().len() - 1
    }

    /// Makes `leg` the last leg: it replaces a last leg starting at the same
    /// tick, else it is appended (moving the legs to the heap).
    fn set_last(&mut self, leg: MovingPoint) {
        match &mut self.legs {
            Legs::One([last]) if last.since == leg.since => *last = leg,
            Legs::One([first]) => self.legs = Legs::Many(vec![*first, leg]),
            Legs::Many(legs) => match legs.last_mut() {
                Some(last) if last.since == leg.since => *last = leg,
                _ => legs.push(leg),
            },
        }
    }

    /// Applies a motion-vector update at tick `t`: from `t` onward the
    /// object moves with `v` from its position at `t` on the previous leg.
    /// Two updates at the same tick collapse into one (the last wins),
    /// matching the paper's instantaneous-update assumption.
    ///
    /// # Panics
    /// Panics when `t` precedes the start of the current last leg (updates
    /// must arrive in time order).
    pub fn update_velocity(&mut self, t: Tick, v: Velocity) {
        let last = *self.legs().last().expect("trajectory has at least one leg");
        assert!(
            t >= last.since,
            "updates must be in increasing tick order (t={t}, last={})",
            last.since
        );
        self.set_last(if t == last.since {
            MovingPoint::new(last.anchor, t, v)
        } else {
            last.redirected_at(t, v)
        });
    }

    /// Teleports the object: at tick `t` both position and velocity are
    /// explicitly set (the paper's update of *both* sub-attributes).
    pub fn update_position_and_velocity(&mut self, t: Tick, p: Point, v: Velocity) {
        let last = *self.legs().last().expect("trajectory has at least one leg");
        assert!(t >= last.since, "updates must be in tick order");
        self.set_last(MovingPoint::new(p, t, v));
    }

    /// The leg in force at tick `t`.
    ///
    /// Ticks before the first leg's start extrapolate the first leg
    /// backwards (consistent with [`MovingPoint::position_at`]).
    pub fn leg_at(&self, t: Tick) -> MovingPoint {
        let legs = self.legs();
        match legs.binary_search_by_key(&t, |leg| leg.since) {
            Ok(i) => legs[i],
            Err(0) => legs[0],
            Err(i) => legs[i - 1],
        }
    }

    /// Position at tick `t`.
    pub fn position_at_tick(&self, t: Tick) -> Point {
        self.leg_at(t).position_at_tick(t)
    }

    /// Velocity in force at tick `t`.
    pub fn velocity_at_tick(&self, t: Tick) -> Velocity {
        self.leg_at(t).velocity
    }

    /// The legs overlapping the tick range `[from, to]`, each paired with
    /// the subrange it covers (none when `from > to`).  Used to evaluate
    /// spatial predicates piecewise over a history containing updates.
    pub fn legs_between(
        &self,
        from: Tick,
        to: Tick,
    ) -> impl Iterator<Item = (MovingPoint, Tick, Tick)> + '_ {
        let legs = self.legs();
        // Legs ending before `from` are skipped by search and legs starting
        // after `to` are never reached: only the overlapping ones are walked.
        let first = legs
            .partition_point(|leg| leg.since <= from)
            .saturating_sub(1);
        legs[first..]
            .iter()
            .zip(first..)
            .take_while(move |&(leg, i)| i == 0 || leg.since <= to)
            .filter_map(move |(leg, i)| {
                let leg_start = if i == 0 { 0 } else { leg.since };
                let leg_end = legs.get(i + 1).map_or(Tick::MAX, |next| next.since - 1);
                let (lo, hi) = (leg_start.max(from), leg_end.min(to));
                (lo <= hi).then_some((*leg, lo, hi))
            })
    }
}

impl most_testkit::ser::ToJson for Trajectory {
    fn to_json(&self) -> most_testkit::ser::Json {
        use most_testkit::ser::{Json, ToJson};
        Json::Arr(self.legs().iter().map(ToJson::to_json).collect())
    }
}

impl most_testkit::ser::FromJson for Trajectory {
    fn from_json(j: &most_testkit::ser::Json) -> Result<Self, most_testkit::ser::JsonError> {
        let legs: Vec<MovingPoint> = most_testkit::ser::FromJson::from_json(j)?;
        if legs.is_empty() {
            return Err(most_testkit::ser::JsonError::Decode(
                "a trajectory needs at least one leg".to_owned(),
            ));
        }
        if legs.windows(2).any(|w| w[0].since >= w[1].since) {
            return Err(most_testkit::ser::JsonError::Decode(
                "trajectory legs must have strictly increasing start ticks".to_owned(),
            ));
        }
        let legs = legs.try_into().map_or_else(Legs::Many, Legs::One);
        Ok(Trajectory { legs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_leg_trajectory() {
        let t = Trajectory::starting_at(Point::origin(), Velocity::new(2.0, 0.0));
        assert_eq!(t.position_at_tick(0), Point::origin());
        assert_eq!(t.position_at_tick(5), Point::new(10.0, 0.0));
        assert_eq!(t.update_count(), 0);
    }

    #[test]
    fn velocity_update_is_continuous() {
        // The Section 2.3 example: speed 5, then 7 from t=1, then 10 from t=2.
        let mut t = Trajectory::starting_at(Point::origin(), Velocity::new(5.0, 0.0));
        t.update_velocity(1, Velocity::new(7.0, 0.0));
        t.update_velocity(2, Velocity::new(10.0, 0.0));
        assert_eq!(t.position_at_tick(1), Point::new(5.0, 0.0));
        assert_eq!(t.position_at_tick(2), Point::new(12.0, 0.0));
        assert_eq!(t.position_at_tick(4), Point::new(32.0, 0.0));
        assert_eq!(t.velocity_at_tick(0), Velocity::new(5.0, 0.0));
        assert_eq!(t.velocity_at_tick(1), Velocity::new(7.0, 0.0));
        assert_eq!(t.velocity_at_tick(5), Velocity::new(10.0, 0.0));
        assert_eq!(t.update_count(), 2);
    }

    #[test]
    #[should_panic]
    fn out_of_order_update_panics() {
        let mut t = Trajectory::starting_at(Point::origin(), Velocity::zero());
        t.update_velocity(5, Velocity::new(1.0, 0.0));
        t.update_velocity(3, Velocity::new(2.0, 0.0));
    }

    #[test]
    fn teleport_update() {
        let mut t = Trajectory::starting_at(Point::origin(), Velocity::new(1.0, 0.0));
        t.update_position_and_velocity(10, Point::new(100.0, 100.0), Velocity::zero());
        assert_eq!(t.position_at_tick(9), Point::new(9.0, 0.0));
        assert_eq!(t.position_at_tick(10), Point::new(100.0, 100.0));
        assert_eq!(t.position_at_tick(20), Point::new(100.0, 100.0));
    }

    #[test]
    fn legs_between_partitions_range() {
        let mut t = Trajectory::starting_at(Point::origin(), Velocity::new(1.0, 0.0));
        t.update_velocity(10, Velocity::new(2.0, 0.0));
        t.update_velocity(20, Velocity::new(3.0, 0.0));
        let [a, b, c] = [t.legs()[0], t.legs()[1], t.legs()[2]];
        let between = |from, to| t.legs_between(from, to).collect::<Vec<_>>();
        assert_eq!(between(5, 25), vec![(a, 5, 9), (b, 10, 19), (c, 20, 25)]);
        assert_eq!(between(0, 10), vec![(a, 0, 9), (b, 10, 10)]);
        // Ranges within one leg, and the open-ended last leg:
        assert_eq!(between(12, 15), vec![(b, 12, 15)]);
        assert_eq!(between(30, Tick::MAX), vec![(c, 30, Tick::MAX)]);
        // An empty range yields nothing, on one leg as on many.
        assert_eq!(between(7, 3), vec![]);
        let one = Trajectory::starting_at(Point::origin(), Velocity::new(1.0, 0.0));
        assert_eq!(one.legs_between(7, 3).count(), 0);
        assert_eq!(
            one.legs_between(4, 4).collect::<Vec<_>>(),
            vec![(one.legs()[0], 4, 4)]
        );
    }

    #[test]
    fn storage_does_not_decide_equality() {
        let leg = MovingPoint::new(Point::new(1.0, 2.0), 0, Velocity::new(0.5, 0.0));
        let inline = Trajectory::new(leg);
        let heap = Trajectory {
            legs: Legs::Many(vec![leg]),
        };
        assert!(matches!(inline.legs, Legs::One(_)));
        assert_eq!(inline, heap);
        assert_eq!(heap, inline);
        let mut other = Trajectory::new(leg);
        other.update_velocity(5, Velocity::zero());
        assert_ne!(inline, other);
        assert_ne!(heap, other);
    }

    #[test]
    fn an_update_that_adds_a_leg_moves_the_legs_to_the_heap() {
        let start = Trajectory::starting_at(Point::origin(), Velocity::new(1.0, 0.0));
        // An update at the leg's own start replaces it in place.
        let mut t = start.clone();
        t.update_velocity(0, Velocity::new(2.0, 0.0));
        assert!(matches!(t.legs, Legs::One(_)));
        t.update_position_and_velocity(0, Point::new(5.0, 5.0), Velocity::zero());
        assert!(matches!(t.legs, Legs::One(_)));
        assert_eq!(
            t.legs(),
            &[MovingPoint::from_origin(
                Point::new(5.0, 5.0),
                Velocity::zero()
            )]
        );
        // A later one adds a leg.
        let mut t = start.clone();
        t.update_velocity(4, Velocity::new(0.0, 1.0));
        assert!(matches!(t.legs, Legs::Many(_)));
        assert_eq!(t.update_count(), 1);
        assert_eq!(t.position_at_tick(6), Point::new(4.0, 2.0));
        let mut t = start;
        t.update_position_and_velocity(4, Point::new(9.0, 9.0), Velocity::zero());
        assert!(matches!(t.legs, Legs::Many(_)));
        assert_eq!(
            t.legs()[0],
            Trajectory::starting_at(Point::origin(), Velocity::new(1.0, 0.0)).legs()[0]
        );
        assert_eq!(t.position_at_tick(6), Point::new(9.0, 9.0));
    }

    #[test]
    fn json_encoding_is_the_leg_array() {
        use most_testkit::ser::{from_json_str, to_json_string};
        let one = Trajectory::new(MovingPoint::new(
            Point::new(1.5, -2.0),
            3,
            Velocity::new(0.25, 0.0),
        ));
        let mut three = Trajectory::starting_at(Point::origin(), Velocity::new(1.0, 0.0));
        three.update_velocity(10, Velocity::new(0.0, -0.5));
        three.update_position_and_velocity(20, Point::new(100.0, 1e9), Velocity::new(-1.25, 2.0));
        // Byte for byte what a `Vec<MovingPoint>` encodes to: checkpoints
        // and every byte-identity gate hash these bytes.
        let one_json =
            r#"[{"anchor":{"x":1.5,"y":-2.0},"since":3,"velocity":{"dx":0.25,"dy":0.0}}]"#;
        let three_json = concat!(
            r#"[{"anchor":{"x":0.0,"y":0.0},"since":0,"velocity":{"dx":1.0,"dy":0.0}},"#,
            r#"{"anchor":{"x":10.0,"y":0.0},"since":10,"velocity":{"dx":0.0,"dy":-0.5}},"#,
            r#"{"anchor":{"x":100.0,"y":1000000000.0},"since":20,"velocity":{"dx":-1.25,"dy":2.0}}]"#
        );
        assert_eq!(to_json_string(&one).unwrap(), one_json);
        assert_eq!(to_json_string(&three).unwrap(), three_json);
        let decoded: Trajectory = from_json_str(one_json).unwrap();
        assert!(matches!(decoded.legs, Legs::One(_)));
        assert_eq!(decoded, one);
        let decoded: Trajectory = from_json_str(three_json).unwrap();
        assert_eq!(decoded, three);
    }

    #[test]
    fn leg_at_boundaries() {
        let mut t = Trajectory::starting_at(Point::origin(), Velocity::new(1.0, 0.0));
        t.update_velocity(10, Velocity::new(2.0, 0.0));
        assert_eq!(t.leg_at(9).velocity, Velocity::new(1.0, 0.0));
        assert_eq!(t.leg_at(10).velocity, Velocity::new(2.0, 0.0));
        assert_eq!(t.leg_at(11).velocity, Velocity::new(2.0, 0.0));
    }

    #[test]
    fn same_tick_initial_replacement() {
        let mut t = Trajectory::starting_at(Point::new(1.0, 1.0), Velocity::zero());
        t.update_velocity(0, Velocity::new(1.0, 1.0));
        assert_eq!(t.position_at_tick(2), Point::new(3.0, 3.0));
        assert_eq!(t.update_count(), 0);
    }
}
