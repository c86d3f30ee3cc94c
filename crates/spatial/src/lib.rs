//! Spatial substrate for the MOST / FTL reproduction.
//!
//! The paper's spatial object classes carry `X.POSITION` / `Y.POSITION`
//! attributes and a set of *spatial methods* — `INSIDE(o, P)`,
//! `OUTSIDE(o, P)`, `DIST(o1, o2)` and `WITHIN-A-SPHERE(r, o1, ..., ok)` —
//! whose truth at each state of the database history drives FTL's atomic
//! predicates.  Because positions are *dynamic attributes* (linear functions
//! of time between explicit updates), each spatial method induces, for a
//! given instantiation of objects, a set of clock-tick intervals during which
//! it holds.  The appendix assumes "a routine which, for each possible
//! relevant instantiation ... gives us the intervals during which the
//! relation is satisfied"; this crate *is* that routine.
//!
//! Modules:
//!
//! * [`point`] — 2-D points and velocity vectors;
//! * [`motion`] — uniform linear motion ([`MovingPoint`]) — the paper's
//!   motion vector;
//! * [`trajectory`] — piecewise-linear motion, for histories spanning
//!   explicit motion-vector updates;
//! * [`polygon`] — simple polygons with point containment and edge geometry;
//! * [`region`] — axis-aligned rectangles and circles;
//! * [`roots`] — linear/quadratic inequality solving over real time;
//! * [`predicates`] — the interval "routines": `DIST ≤ r`, `INSIDE`,
//!   `OUTSIDE`, `WITHIN-A-SPHERE`, exact at integer clock ticks;
//! * [`error_bound`] — forward rounding-error bounds, which let a float
//!   filter (the Section 4 index's clip) stay conservative.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error_bound;
pub mod motion;
pub mod point;
pub mod polygon;
pub mod predicates;
pub mod region;
pub mod roots;
pub mod trajectory;

pub use motion::MovingPoint;
pub use point::{Point, Velocity};
pub use polygon::Polygon;
pub use region::{Circle, Rect};
pub use trajectory::Trajectory;
