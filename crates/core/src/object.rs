//! Moving objects: trajectory, static attributes and dynamic scalar
//! attributes, all with recorded histories.
//!
//! Histories exist because persistent queries (Section 2.3) require "saving
//! of information about the way the database is updated over time".
//! Instantaneous and continuous queries only read the *current* state (the
//! last history entry), so the overhead of keeping history is one `Vec`
//! entry per explicit update — exactly the data a persistent query needs,
//! and nothing per tick.

use crate::dynamic::{AttrFunction, DynamicAttribute};
use most_dbms::value::Value;
use most_spatial::{Point, Trajectory, Velocity};
use most_temporal::{Interval, Tick};
use std::collections::BTreeMap;

/// A moving object.
#[derive(Debug, Clone)]
pub struct MovingObject {
    /// Object id.
    pub id: u64,
    /// Class name.
    pub class: String,
    /// Position history (piecewise-linear motion).  `None` for non-spatial
    /// objects.
    trajectory: Option<Trajectory>,
    /// Static attributes: history of `(set_at, value)` per attribute,
    /// ascending.
    statics: BTreeMap<String, Vec<(Tick, Value)>>,
    /// Dynamic scalar attributes: history of states per attribute,
    /// ascending by `updatetime`.
    dynamics: BTreeMap<String, Vec<DynamicAttribute>>,
}

impl MovingObject {
    /// Creates a spatial object with an initial motion vector at tick `at`.
    pub fn spatial(id: u64, class: impl Into<String>, at: Tick, p: Point, v: Velocity) -> Self {
        let mut traj = Trajectory::starting_at(p, v);
        if at > 0 {
            // Anchor the first leg at the insertion tick.
            traj = Trajectory::new(most_spatial::MovingPoint::new(p, at, v));
        }
        MovingObject {
            id,
            class: class.into(),
            trajectory: Some(traj),
            statics: BTreeMap::new(),
            dynamics: BTreeMap::new(),
        }
    }

    /// Creates a non-spatial object (e.g. a MOTELS row with no motion).
    pub fn plain(id: u64, class: impl Into<String>) -> Self {
        MovingObject {
            id,
            class: class.into(),
            trajectory: None,
            statics: BTreeMap::new(),
            dynamics: BTreeMap::new(),
        }
    }

    /// The motion history, if spatial.
    pub fn trajectory(&self) -> Option<&Trajectory> {
        self.trajectory.as_ref()
    }

    /// Position at tick `t`, if spatial.
    pub fn position_at(&self, t: Tick) -> Option<Point> {
        self.trajectory.as_ref().map(|tr| tr.position_at_tick(t))
    }

    /// Current motion vector at tick `t`, if spatial.
    pub fn velocity_at(&self, t: Tick) -> Option<Velocity> {
        self.trajectory.as_ref().map(|tr| tr.velocity_at_tick(t))
    }

    /// Applies a motion-vector update at tick `t` (continuing from the
    /// current position).
    pub fn update_velocity(&mut self, t: Tick, v: Velocity) {
        self.trajectory
            .as_mut()
            .expect("velocity update on a non-spatial object")
            .update_velocity(t, v);
    }

    /// Explicitly sets position and motion vector at tick `t`.
    pub fn update_position(&mut self, t: Tick, p: Point, v: Velocity) {
        self.trajectory
            .as_mut()
            .expect("position update on a non-spatial object")
            .update_position_and_velocity(t, p, v);
    }

    /// Sets a static attribute at tick `t`.
    pub fn set_static(&mut self, t: Tick, name: impl Into<String>, value: Value) {
        let hist = self.statics.entry(name.into()).or_default();
        debug_assert!(hist.last().is_none_or(|(at, _)| *at <= t));
        match hist.last_mut() {
            Some((at, v)) if *at == t => *v = value,
            _ => hist.push((t, value)),
        }
    }

    /// Current value of a static attribute at tick `t`.
    pub fn static_at(&self, name: &str, t: Tick) -> Option<&Value> {
        let hist = self.statics.get(name)?;
        hist.iter().rev().find(|(at, _)| *at <= t).map(|(_, v)| v)
    }

    /// The static attribute's `(value, interval)` series over `[0, end]`,
    /// for the FTL context.  Before the first explicit set the attribute is
    /// undefined (no entry).
    pub fn static_series(&self, name: &str, end: Tick) -> Vec<(Value, Interval)> {
        let Some(hist) = self.statics.get(name) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(hist.len());
        for (i, (at, v)) in hist.iter().enumerate() {
            if *at > end {
                break;
            }
            let until = hist
                .get(i + 1)
                .map(|(next, _)| next.saturating_sub(1))
                .unwrap_or(end)
                .min(end);
            if *at <= until {
                out.push((v.clone(), Interval::new(*at, until)));
            }
        }
        out
    }

    /// Sets / updates a dynamic scalar attribute at tick `t`.
    pub fn set_dynamic(
        &mut self,
        t: Tick,
        name: impl Into<String>,
        value: Option<f64>,
        function: Option<AttrFunction>,
    ) {
        let hist = self.dynamics.entry(name.into()).or_default();
        let state = match hist.last() {
            Some(prev) => prev.updated(t, value, function),
            None => DynamicAttribute::new(
                value.unwrap_or(0.0),
                t,
                function.unwrap_or(AttrFunction::constant()),
            ),
        };
        match hist.last_mut() {
            Some(prev) if prev.updatetime == t => *prev = state,
            _ => hist.push(state),
        }
    }

    /// The dynamic scalar attribute's state in force at tick `t`.
    pub fn dynamic_at(&self, name: &str, t: Tick) -> Option<DynamicAttribute> {
        let hist = self.dynamics.get(name)?;
        hist.iter()
            .rev()
            .find(|d| d.updatetime <= t)
            .or_else(|| hist.first())
            .copied()
    }

    /// The *value* of a dynamic scalar attribute at tick `t`.
    pub fn dynamic_value_at(&self, name: &str, t: Tick) -> Option<f64> {
        self.dynamic_at(name, t).map(|d| d.value_at(t))
    }

    /// Names of all static attributes ever set.
    pub fn static_names(&self) -> impl Iterator<Item = &str> {
        self.statics.keys().map(String::as_str)
    }

    /// Names of all dynamic scalar attributes ever set.
    pub fn dynamic_names(&self) -> impl Iterator<Item = &str> {
        self.dynamics.keys().map(String::as_str)
    }

    /// The full history of a dynamic scalar attribute (persistent queries).
    pub fn dynamic_history(&self, name: &str) -> Option<&[DynamicAttribute]> {
        self.dynamics.get(name).map(Vec::as_slice)
    }

    /// Count of explicit updates recorded on this object (motion +
    /// attributes) — the update-cost metric of experiment E1.
    pub fn update_count(&self) -> usize {
        let motion = self
            .trajectory
            .as_ref()
            .map(|t| t.update_count())
            .unwrap_or(0);
        let statics: usize = self
            .statics
            .values()
            .map(|h| h.len().saturating_sub(1))
            .sum();
        let dynamics: usize = self
            .dynamics
            .values()
            .map(|h| h.len().saturating_sub(1))
            .sum();
        motion + statics + dynamics
    }
}

most_testkit::json_struct!(MovingObject {
    id,
    class,
    trajectory,
    statics,
    dynamics
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_object_motion() {
        let mut o = MovingObject::spatial(1, "cars", 0, Point::origin(), Velocity::new(2.0, 0.0));
        assert_eq!(o.position_at(5), Some(Point::new(10.0, 0.0)));
        o.update_velocity(5, Velocity::new(0.0, 2.0));
        assert_eq!(o.position_at(10), Some(Point::new(10.0, 10.0)));
        assert_eq!(o.velocity_at(3), Some(Velocity::new(2.0, 0.0)));
        assert_eq!(o.update_count(), 1);
    }

    #[test]
    fn insertion_after_time_zero_anchors_correctly() {
        let o = MovingObject::spatial(1, "cars", 10, Point::new(5.0, 5.0), Velocity::new(1.0, 0.0));
        assert_eq!(o.position_at(10), Some(Point::new(5.0, 5.0)));
        assert_eq!(o.position_at(12), Some(Point::new(7.0, 5.0)));
    }

    #[test]
    fn plain_object_has_no_motion() {
        let o = MovingObject::plain(2, "motels");
        assert!(o.trajectory().is_none());
        assert!(o.position_at(0).is_none());
    }

    #[test]
    fn static_attribute_history() {
        let mut o = MovingObject::plain(1, "motels");
        o.set_static(0, "PRICE", Value::from(80.0));
        o.set_static(10, "PRICE", Value::from(95.0));
        assert_eq!(o.static_at("PRICE", 5), Some(&Value::from(80.0)));
        assert_eq!(o.static_at("PRICE", 10), Some(&Value::from(95.0)));
        assert_eq!(o.static_at("PRICE", 99), Some(&Value::from(95.0)));
        assert_eq!(o.static_at("NOPE", 0), None);
        let series = o.static_series("PRICE", 20);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].1, Interval::new(0, 9));
        assert_eq!(series[1].1, Interval::new(10, 20));
        // Same-tick overwrite replaces.
        o.set_static(10, "PRICE", Value::from(90.0));
        assert_eq!(o.static_at("PRICE", 10), Some(&Value::from(90.0)));
    }

    #[test]
    fn static_series_clipped_to_horizon() {
        let mut o = MovingObject::plain(1, "m");
        o.set_static(5, "A", Value::Int(1));
        o.set_static(50, "A", Value::Int(2));
        let series = o.static_series("A", 20);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].1, Interval::new(5, 20));
    }

    #[test]
    fn dynamic_scalar_attribute() {
        let mut o = MovingObject::plain(1, "tanks");
        // Fuel drains at 2 units per tick from 100.
        o.set_dynamic(0, "FUEL", Some(100.0), Some(AttrFunction::Linear(-2.0)));
        assert_eq!(o.dynamic_value_at("FUEL", 0), Some(100.0));
        assert_eq!(o.dynamic_value_at("FUEL", 10), Some(80.0));
        // Refuel at t=20 keeping the drain function.
        o.set_dynamic(20, "FUEL", Some(100.0), None);
        assert_eq!(o.dynamic_value_at("FUEL", 25), Some(90.0));
        // History preserved for persistent queries.
        assert_eq!(o.dynamic_history("FUEL").unwrap().len(), 2);
        assert_eq!(o.dynamic_value_at("FUEL", 10), Some(80.0));
        assert_eq!(o.update_count(), 1);
    }

    #[test]
    fn names_iterators() {
        let mut o = MovingObject::plain(1, "m");
        o.set_static(0, "A", Value::Int(1));
        o.set_dynamic(0, "B", Some(0.0), None);
        assert_eq!(o.static_names().collect::<Vec<_>>(), vec!["A"]);
        assert_eq!(o.dynamic_names().collect::<Vec<_>>(), vec!["B"]);
    }
}
