//! Evaluation contexts over a MOST database.
//!
//! FTL formulas are always evaluated on a history whose tick 0 is the query
//! entry time (appendix convention).  [`DbContext`] adapts a [`Database`]
//! to [`most_ftl::EvalContext`] by translating between global clock ticks
//! and that local frame, in one of two modes:
//!
//! * [`ContextMode::Current`] — the implicit future history of
//!   *instantaneous and continuous* queries: each object's state **as of
//!   the origin tick**, extrapolated forward by its current function.
//!   Updates recorded before the origin are irrelevant (only the current
//!   sub-attribute values matter) and updates after it do not exist yet.
//! * [`ContextMode::Recorded`] — the history a *persistent* query sees: all
//!   updates recorded since the origin replay at their recorded ticks, and
//!   the last state extrapolates into the future.  This is the
//!   "saving of information about the way the database is updated over
//!   time" that Section 2.3 calls for.

use crate::database::Database;
use crate::dynamic::AttrFunction;
use most_dbms::value::Value;
use most_ftl::EvalContext;
use most_spatial::{MovingPoint, Polygon, Trajectory};
use most_temporal::{Horizon, Interval, Tick};

/// Which slice of the database history the context exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextMode {
    /// Current state extrapolated (instantaneous / continuous queries).
    Current,
    /// Recorded updates replayed (persistent queries).
    Recorded,
}

/// A [`most_ftl::EvalContext`] view of a [`Database`].
pub struct DbContext<'a> {
    db: &'a Database,
    origin: Tick,
    horizon: Horizon,
    mode: ContextMode,
}

impl<'a> DbContext<'a> {
    /// Creates a context whose local tick 0 is global tick `origin`.
    pub fn new(db: &'a Database, origin: Tick, mode: ContextMode) -> Self {
        DbContext { db, origin, horizon: Horizon::new(db.expiration()), mode }
    }

    /// The global tick corresponding to local tick 0.
    pub fn origin(&self) -> Tick {
        self.origin
    }

    fn global_end(&self) -> Tick {
        self.origin + self.horizon.end()
    }
}

impl EvalContext for DbContext<'_> {
    fn horizon(&self) -> Horizon {
        self.horizon
    }

    fn object_ids(&self) -> Vec<u64> {
        self.db.object_ids()
    }

    fn trajectory(&self, id: u64) -> Option<Trajectory> {
        let obj = self.db.object(id).ok()?;
        let traj = obj.trajectory()?;
        match self.mode {
            ContextMode::Current => {
                // Single leg: the motion in force at the origin, rebased to
                // local tick 0.
                let p = traj.position_at_tick(self.origin);
                let v = traj.velocity_at_tick(self.origin);
                Some(Trajectory::new(MovingPoint::new(p, 0, v)))
            }
            ContextMode::Recorded => {
                let mut local: Option<Trajectory> = None;
                for (leg, lo, _hi) in traj.legs_between(self.origin, self.global_end()) {
                    let p = leg.position_at_tick(lo);
                    let local_tick = lo - self.origin;
                    match &mut local {
                        None => {
                            local = Some(Trajectory::new(MovingPoint::new(
                                p,
                                local_tick,
                                leg.velocity,
                            )))
                        }
                        Some(t) => t.update_position_and_velocity(local_tick, p, leg.velocity),
                    }
                }
                local
            }
        }
    }

    fn attr_series(&self, id: u64, name: &str) -> Vec<(Value, Interval)> {
        let Ok(obj) = self.db.object(id) else {
            return Vec::new();
        };
        match self.mode {
            ContextMode::Current => match obj.static_at(name, self.origin) {
                Some(v) => vec![(v.clone(), Interval::new(0, self.horizon.end()))],
                None => Vec::new(),
            },
            ContextMode::Recorded => {
                // Clip each entry to [origin, global_end] and shift to local
                // ticks; an entry in force *at* the origin clips to start at
                // local 0.
                let mut out = Vec::new();
                for (value, iv) in obj.static_series(name, self.global_end()) {
                    let lo = iv.begin().max(self.origin);
                    let hi = iv.end();
                    if hi < self.origin {
                        continue;
                    }
                    out.push((
                        value,
                        Interval::new(lo - self.origin, hi - self.origin),
                    ));
                }
                out
            }
        }
    }

    fn region(&self, name: &str) -> Option<Polygon> {
        self.db.region(name).cloned()
    }

    fn inside_candidates(&self, region: &Polygon) -> Option<Vec<u64>> {
        // Sound only for Current mode: the index covers the recorded
        // history *and* the currently extrapolated future, which is exactly
        // the history an instantaneous/continuous query sees.  Recorded
        // (persistent) evaluations replay arbitrary pasts and fall back to
        // full enumeration.
        if self.mode != ContextMode::Current {
            return None;
        }
        let bbox = region.bounding_box();
        self.db
            .index_window_candidates(self.origin, self.global_end(), &bbox)
    }

    fn attr_range_candidates(&self, attr: &str, lo: f64, hi: f64) -> Option<Vec<u64>> {
        // Same soundness argument as `inside_candidates`: the
        // dynamic-attribute index covers the recorded value lines and the
        // currently extrapolated future, which is exactly what Current-mode
        // evaluation sees.  Recorded replays fall back to enumeration.
        if self.mode != ContextMode::Current {
            return None;
        }
        self.db
            .attr_index_range_candidates(attr, self.origin, self.global_end(), lo, hi)
    }

    fn dynamic_series(&self, id: u64, name: &str) -> Vec<(Interval, [f64; 3])> {
        let Ok(obj) = self.db.object(id) else {
            return Vec::new();
        };
        let coeffs = |state: &crate::dynamic::DynamicAttribute| -> [f64; 3] {
            // value(τ) for local τ:  v + f((τ + origin) − updatetime)
            let delta = self.origin as f64 - state.updatetime as f64;
            match state.function {
                AttrFunction::Linear(s) => [0.0, s, state.value + s * delta],
                AttrFunction::Quadratic { accel, slope } => [
                    accel,
                    2.0 * accel * delta + slope,
                    state.value + accel * delta * delta + slope * delta,
                ],
            }
        };
        match self.mode {
            ContextMode::Current => match obj.dynamic_at(name, self.origin) {
                Some(state) => {
                    vec![(Interval::new(0, self.horizon.end()), coeffs(&state))]
                }
                None => Vec::new(),
            },
            ContextMode::Recorded => {
                let Some(history) = obj.dynamic_history(name) else {
                    return Vec::new();
                };
                let mut out = Vec::new();
                for (i, state) in history.iter().enumerate() {
                    let from_global = state.updatetime.max(self.origin);
                    let until_global = history
                        .get(i + 1)
                        .map(|n| n.updatetime.saturating_sub(1))
                        .unwrap_or(self.global_end())
                        .min(self.global_end());
                    if until_global < self.origin || from_global > until_global {
                        continue;
                    }
                    // A state set before the origin is in force from local 0.
                    let lo = from_global - self.origin;
                    let hi = until_global - self.origin;
                    out.push((Interval::new(lo, hi), coeffs(state)));
                }
                // Before its first explicit set the attribute is undefined
                // (no piece), matching the static-attribute convention.
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use most_spatial::{Point, Velocity};

    fn db() -> Database {
        let mut db = Database::new(100);
        let car = db.insert_moving_object("cars", Point::origin(), Velocity::new(1.0, 0.0));
        db.set_static(car, "PRICE", Value::from(80.0)).unwrap();
        db.set_dynamic_scalar(car, "FUEL", Some(100.0), Some(AttrFunction::Linear(-1.0)))
            .unwrap();
        db
    }

    #[test]
    fn current_mode_extrapolates_from_origin() {
        let mut database = db();
        database.advance_clock(10);
        database.update_motion(1, Velocity::new(0.0, 2.0)).unwrap();
        database.advance_clock(5); // now = 15, at (10, 10)
        let ctx = DbContext::new(&database, 15, ContextMode::Current);
        let traj = ctx.trajectory(1).unwrap();
        // Local tick 0 == global 15: position (10, 10), heading north.
        assert_eq!(traj.position_at_tick(0), Point::new(10.0, 10.0));
        assert_eq!(traj.position_at_tick(5), Point::new(10.0, 20.0));
        assert_eq!(traj.legs().len(), 1);
        // Static attr spans the horizon.
        let series = ctx.attr_series(1, "PRICE");
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].1, Interval::new(0, 100));
        // Fuel: 100 - t_global = 85 at origin, draining.
        let dynamic = ctx.dynamic_series(1, "FUEL");
        assert_eq!(dynamic.len(), 1);
        let [a, b, c] = dynamic[0].1;
        assert_eq!((a, b, c), (0.0, -1.0, 85.0));
    }

    #[test]
    fn recorded_mode_replays_updates() {
        let mut database = db();
        database.advance_clock(10);
        database.update_motion(1, Velocity::new(2.0, 0.0)).unwrap();
        database.advance_clock(10); // now = 20
        let ctx = DbContext::new(&database, 0, ContextMode::Recorded);
        let traj = ctx.trajectory(1).unwrap();
        assert_eq!(traj.position_at_tick(5), Point::new(5.0, 0.0));
        assert_eq!(traj.position_at_tick(15), Point::new(20.0, 0.0));
        assert_eq!(traj.legs().len(), 2);
    }

    #[test]
    fn recorded_mode_shifts_origin() {
        let mut database = db();
        database.advance_clock(10);
        database.update_motion(1, Velocity::new(2.0, 0.0)).unwrap();
        let ctx = DbContext::new(&database, 5, ContextMode::Recorded);
        let traj = ctx.trajectory(1).unwrap();
        // Local 0 == global 5: position (5, 0), still at speed 1.
        assert_eq!(traj.position_at_tick(0), Point::new(5.0, 0.0));
        // Local 5 == global 10: the update kicks in.
        assert_eq!(traj.velocity_at_tick(5), Velocity::new(2.0, 0.0));
    }

    #[test]
    fn recorded_static_series_with_updates() {
        let mut database = db();
        database.advance_clock(10);
        database.set_static(1, "PRICE", Value::from(95.0)).unwrap();
        let ctx = DbContext::new(&database, 0, ContextMode::Recorded);
        let series = ctx.attr_series(1, "PRICE");
        assert_eq!(series.len(), 2);
        assert_eq!(series[0], (Value::from(80.0), Interval::new(0, 9)));
        assert_eq!(series[1].0, Value::from(95.0));
        assert_eq!(series[1].1.begin(), 10);
    }

    #[test]
    fn recorded_dynamic_series_with_updates() {
        let mut database = db();
        database.advance_clock(20);
        // Refuel to 100 at t=20, drain twice as fast.
        database
            .set_dynamic_scalar(1, "FUEL", Some(100.0), Some(AttrFunction::Linear(-2.0)))
            .unwrap();
        let ctx = DbContext::new(&database, 0, ContextMode::Recorded);
        let series = ctx.dynamic_series(1, "FUEL");
        assert_eq!(series.len(), 2);
        // First piece: 100 - t over [0, 19].
        assert_eq!(series[0].0, Interval::new(0, 19));
        assert_eq!(series[0].1, [0.0, -1.0, 100.0]);
        // Second piece: 100 - 2(t - 20) = 140 - 2t from 20 on.
        assert_eq!(series[1].0.begin(), 20);
        assert_eq!(series[1].1, [0.0, -2.0, 140.0]);
    }

    #[test]
    fn missing_object_yields_empty() {
        let database = db();
        let ctx = DbContext::new(&database, 0, ContextMode::Current);
        assert!(ctx.trajectory(99).is_none());
        assert!(ctx.attr_series(99, "PRICE").is_empty());
        assert!(ctx.dynamic_series(99, "FUEL").is_empty());
    }
}
