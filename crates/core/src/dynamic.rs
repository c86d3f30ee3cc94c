//! Dynamic attributes: the `value` / `updatetime` / `function`
//! sub-attribute triple of Section 2.1.
//!
//! "A dynamic attribute A is represented by three sub-attributes, A.value,
//! A.updatetime, and A.function, where A.function is a function of a single
//! variable t that has value 0 at t = 0.  At time A.updatetime the value of
//! A is A.value, and until the next update of A the value of A at time
//! A.updatetime + t0 is given by A.value + A.function(t0)."

use most_temporal::Tick;
use std::fmt;

/// The `A.function` sub-attribute: a function of elapsed time `t0` with
/// `f(0) = 0`.
///
/// The paper assumes linear functions "for the sake of simplicity ...
/// however, the ideas can be extended to nonlinear functions"; the
/// quadratic variant implements that extension for scalar attributes such
/// as fuel consumption under constant acceleration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrFunction {
    /// `f(t0) = slope · t0` — the motion-vector case.
    Linear(f64),
    /// `f(t0) = accel · t0² + slope · t0` — nonlinear extension.
    Quadratic {
        /// Quadratic coefficient.
        accel: f64,
        /// Linear coefficient.
        slope: f64,
    },
}

impl AttrFunction {
    /// A constant attribute (zero function).
    pub const fn constant() -> Self {
        AttrFunction::Linear(0.0)
    }

    /// Evaluates the function at elapsed time `t0` (so `apply(0) == 0`,
    /// matching the paper's requirement).
    pub fn apply(self, t0: f64) -> f64 {
        match self {
            AttrFunction::Linear(s) => s * t0,
            AttrFunction::Quadratic { accel, slope } => accel * t0 * t0 + slope * t0,
        }
    }

    /// The instantaneous rate of change at elapsed time `t0`.
    pub fn rate_at(self, t0: f64) -> f64 {
        match self {
            AttrFunction::Linear(s) => s,
            AttrFunction::Quadratic { accel, slope } => 2.0 * accel * t0 + slope,
        }
    }

    /// Whether the function is identically zero (static behaviour).
    pub fn is_zero(self) -> bool {
        match self {
            AttrFunction::Linear(s) => s == 0.0,
            AttrFunction::Quadratic { accel, slope } => accel == 0.0 && slope == 0.0,
        }
    }
}

/// A dynamic attribute: changes over time "even if it is not explicitly
/// updated".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicAttribute {
    /// The `A.value` sub-attribute: value at `updatetime`.
    pub value: f64,
    /// The `A.updatetime` sub-attribute.  The paper distinguishes
    /// valid-time and transaction-time interpretations and then assumes
    /// instantaneous updates ("the valid-time and transaction-time are
    /// equal"); we follow that assumption.
    pub updatetime: Tick,
    /// The `A.function` sub-attribute.
    pub function: AttrFunction,
}

impl DynamicAttribute {
    /// Creates a dynamic attribute.
    pub fn new(value: f64, updatetime: Tick, function: AttrFunction) -> Self {
        DynamicAttribute {
            value,
            updatetime,
            function,
        }
    }

    /// A static-behaving attribute (constant until explicitly updated).
    pub fn constant(value: f64, updatetime: Tick) -> Self {
        DynamicAttribute::new(value, updatetime, AttrFunction::constant())
    }

    /// The value at tick `t`: `A.value + A.function(t − A.updatetime)`.
    /// Probing before `updatetime` extrapolates backwards.
    pub fn value_at(self, t: Tick) -> f64 {
        self.value + self.function.apply(t as f64 - self.updatetime as f64)
    }

    /// Applies an explicit update at tick `t` ("an explicit update of a
    /// dynamic attribute may change its value sub-attribute, or its
    /// function sub-attribute, or both").
    pub fn updated(self, t: Tick, value: Option<f64>, function: Option<AttrFunction>) -> Self {
        DynamicAttribute {
            value: value.unwrap_or_else(|| self.value_at(t)),
            updatetime: t,
            function: function.unwrap_or(self.function),
        }
    }
}

impl fmt::Display for DynamicAttribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.function {
            AttrFunction::Linear(s) => {
                write!(f, "{} @t{} + {}·t", self.value, self.updatetime, s)
            }
            AttrFunction::Quadratic { accel, slope } => write!(
                f,
                "{} @t{} + {}·t² + {}·t",
                self.value, self.updatetime, accel, slope
            ),
        }
    }
}

most_testkit::json_enum!(AttrFunction {
    Linear(slope),
    Quadratic { accel, slope },
});
most_testkit::json_struct!(DynamicAttribute {
    value,
    updatetime,
    function
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_zero_at_zero() {
        for f in [
            AttrFunction::Linear(5.0),
            AttrFunction::Quadratic {
                accel: 2.0,
                slope: -1.0,
            },
        ] {
            assert_eq!(f.apply(0.0), 0.0);
        }
    }

    #[test]
    fn linear_progression() {
        // The paper's example: X.POSITION.function = 5·t.
        let a = DynamicAttribute::new(0.0, 0, AttrFunction::Linear(5.0));
        assert_eq!(a.value_at(0), 0.0);
        assert_eq!(a.value_at(3), 15.0);
        assert_eq!(a.function.rate_at(10.0), 5.0);
    }

    #[test]
    fn quadratic_extension() {
        let a = DynamicAttribute::new(
            10.0,
            5,
            AttrFunction::Quadratic {
                accel: 1.0,
                slope: 0.0,
            },
        );
        assert_eq!(a.value_at(5), 10.0);
        assert_eq!(a.value_at(8), 10.0 + 9.0);
        assert_eq!(a.function.rate_at(3.0), 6.0);
    }

    #[test]
    fn update_semantics() {
        let a = DynamicAttribute::new(0.0, 0, AttrFunction::Linear(5.0));
        // Update only the function at t=1 (the Section 2.3 example: 5t
        // becomes 7t, continuing from the current value).
        let b = a.updated(1, None, Some(AttrFunction::Linear(7.0)));
        assert_eq!(b.value, 5.0);
        assert_eq!(b.updatetime, 1);
        assert_eq!(b.value_at(2), 12.0);
        // Update only the value (teleport).
        let c = b.updated(2, Some(100.0), None);
        assert_eq!(c.value_at(3), 107.0);
    }

    #[test]
    fn constant_attribute_is_static() {
        let a = DynamicAttribute::constant(42.0, 7);
        assert!(a.function.is_zero());
        assert_eq!(a.value_at(7), 42.0);
        assert_eq!(a.value_at(1000), 42.0);
    }

    #[test]
    fn backwards_extrapolation() {
        let a = DynamicAttribute::new(10.0, 10, AttrFunction::Linear(1.0));
        assert_eq!(a.value_at(5), 5.0);
    }

    #[test]
    fn display_forms() {
        let a = DynamicAttribute::new(1.0, 2, AttrFunction::Linear(3.0));
        assert_eq!(a.to_string(), "1 @t2 + 3·t");
    }
}
