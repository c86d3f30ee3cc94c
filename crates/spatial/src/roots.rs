//! Solving linear and quadratic inequalities over real-valued time.
//!
//! The moving-object predicates reduce to inequalities of the form
//! `a·t² + b·t + c ≤ 0` (squared distance between two linearly moving points
//! minus `r²`) or `b·t + c ≤ 0` / `= 0` (a moving point crossing a line).
//! Solutions are unions of at most two real intervals, represented by
//! [`RealIntervals`]; [`crate::predicates`] converts them to exact tick
//! intervals.

/// A (possibly unbounded) closed real interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RealInterval {
    /// Lower end (may be `-inf`).
    pub lo: f64,
    /// Upper end (may be `+inf`).
    pub hi: f64,
}

impl RealInterval {
    /// Creates `[lo, hi]`; `None` when empty.
    pub fn new(lo: f64, hi: f64) -> Option<Self> {
        (lo <= hi).then_some(RealInterval { lo, hi })
    }

    /// The whole real line.
    pub fn all() -> Self {
        RealInterval {
            lo: -f64::INFINITY,
            hi: f64::INFINITY,
        }
    }
}

/// The solution set of a degree-≤2 inequality: at most two disjoint real
/// intervals, sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RealIntervals {
    intervals: Vec<RealInterval>,
}

impl RealIntervals {
    /// No solutions.
    pub fn none() -> Self {
        RealIntervals::default()
    }

    /// All of ℝ.
    pub fn all() -> Self {
        RealIntervals {
            intervals: vec![RealInterval::all()],
        }
    }

    /// Constructs from already-sorted, disjoint intervals.
    ///
    /// Used by callers that assemble candidate solution sets themselves
    /// (e.g. the FTL numeric-term analysis) before handing them to
    /// [`crate::predicates::exact_ticks`] for per-tick verification.
    pub fn of(intervals: Vec<RealInterval>) -> Self {
        RealIntervals { intervals }
    }

    /// Clips every interval to `[lo, hi]`, dropping the empty ones.
    pub fn clipped(&self, lo: f64, hi: f64) -> RealIntervals {
        RealIntervals {
            intervals: self
                .intervals
                .iter()
                .filter_map(|iv| RealInterval::new(iv.lo.max(lo), iv.hi.min(hi)))
                .collect(),
        }
    }

    /// The solution intervals, sorted and disjoint.
    pub fn intervals(&self) -> &[RealInterval] {
        &self.intervals
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }
}

/// Solves `a·t² + b·t + c ≤ 0` over ℝ.
///
/// Degenerate coefficients fall through to the linear / constant cases, so
/// the function is safe to call with `a = 0` (parallel motion) or
/// `a = b = 0` (identical motion).
pub fn solve_quadratic_le(a: f64, b: f64, c: f64) -> RealIntervals {
    if a == 0.0 {
        return solve_linear_le(b, c);
    }
    let disc = b * b - 4.0 * a * c;
    if a > 0.0 {
        // Upward parabola: solutions between the roots.
        if disc < 0.0 {
            RealIntervals::none()
        } else {
            let s = disc.sqrt();
            let r1 = (-b - s) / (2.0 * a);
            let r2 = (-b + s) / (2.0 * a);
            RealIntervals::of(vec![RealInterval { lo: r1, hi: r2 }])
        }
    } else {
        // Downward parabola: solutions outside the roots.
        if disc < 0.0 {
            RealIntervals::all()
        } else {
            let s = disc.sqrt();
            // With a < 0 the smaller root comes from the `+` branch.
            let r1 = (-b + s) / (2.0 * a);
            let r2 = (-b - s) / (2.0 * a);
            RealIntervals::of(vec![
                RealInterval {
                    lo: -f64::INFINITY,
                    hi: r1,
                },
                RealInterval {
                    lo: r2,
                    hi: f64::INFINITY,
                },
            ])
        }
    }
}

/// Solves `b·t + c ≤ 0` over ℝ.
pub fn solve_linear_le(b: f64, c: f64) -> RealIntervals {
    if b == 0.0 {
        if c <= 0.0 {
            RealIntervals::all()
        } else {
            RealIntervals::none()
        }
    } else {
        let root = -c / b;
        if b > 0.0 {
            RealIntervals::of(vec![RealInterval {
                lo: -f64::INFINITY,
                hi: root,
            }])
        } else {
            RealIntervals::of(vec![RealInterval {
                lo: root,
                hi: f64::INFINITY,
            }])
        }
    }
}

/// Solves `b·t + c = 0` over ℝ, returning the root when unique.
///
/// Returns `None` both for no solution (`b = 0, c ≠ 0`) and for the
/// everywhere-zero case (`b = 0, c = 0`); callers treat a constant-zero
/// crossing function as "no crossing event" and rely on interval sampling.
pub fn solve_linear_eq(b: f64, c: f64) -> Option<f64> {
    (b != 0.0).then(|| -c / b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn holds(a: f64, b: f64, c: f64, t: f64) -> bool {
        a * t * t + b * t + c <= 0.0
    }

    fn check_against_samples(a: f64, b: f64, c: f64) {
        let sol = solve_quadratic_le(a, b, c);
        for i in -100..=100 {
            let t = i as f64 * 0.37;
            let in_sol = sol
                .intervals()
                .iter()
                .any(|iv| iv.lo - 1e-9 <= t && t <= iv.hi + 1e-9);
            let expected = holds(a, b, c, t);
            // Allow disagreement only within root tolerance.
            if in_sol != expected {
                let near_root = sol
                    .intervals()
                    .iter()
                    .flat_map(|iv| [iv.lo, iv.hi])
                    .any(|r| (t - r).abs() < 1e-6);
                assert!(near_root, "a={a} b={b} c={c} t={t}");
            }
        }
    }

    #[test]
    fn upward_parabola_with_roots() {
        // (t-2)(t-5) = t² -7t + 10 <= 0 on [2, 5]
        let sol = solve_quadratic_le(1.0, -7.0, 10.0);
        assert_eq!(sol.intervals().len(), 1);
        assert!((sol.intervals()[0].lo - 2.0).abs() < 1e-12);
        assert!((sol.intervals()[0].hi - 5.0).abs() < 1e-12);
        check_against_samples(1.0, -7.0, 10.0);
    }

    #[test]
    fn upward_parabola_no_roots() {
        assert!(solve_quadratic_le(1.0, 0.0, 1.0).is_empty());
    }

    #[test]
    fn downward_parabola_two_rays() {
        // -(t-2)(t-5) <= 0 outside (2, 5)
        let sol = solve_quadratic_le(-1.0, 7.0, -10.0);
        assert_eq!(sol.intervals().len(), 2);
        assert!((sol.intervals()[0].hi - 2.0).abs() < 1e-12);
        assert!((sol.intervals()[1].lo - 5.0).abs() < 1e-12);
        check_against_samples(-1.0, 7.0, -10.0);
    }

    #[test]
    fn downward_parabola_always_negative() {
        assert_eq!(solve_quadratic_le(-1.0, 0.0, -1.0), RealIntervals::all());
    }

    #[test]
    fn linear_cases() {
        // 2t - 6 <= 0  ->  t <= 3
        let sol = solve_linear_le(2.0, -6.0);
        assert_eq!(sol.intervals()[0].hi, 3.0);
        // -2t + 6 <= 0 ->  t >= 3
        let sol = solve_linear_le(-2.0, 6.0);
        assert_eq!(sol.intervals()[0].lo, 3.0);
        check_against_samples(0.0, 2.0, -6.0);
        check_against_samples(0.0, -2.0, 6.0);
    }

    #[test]
    fn constant_cases() {
        assert_eq!(solve_quadratic_le(0.0, 0.0, -1.0), RealIntervals::all());
        assert!(solve_quadratic_le(0.0, 0.0, 1.0).is_empty());
        assert_eq!(solve_quadratic_le(0.0, 0.0, 0.0), RealIntervals::all());
    }

    #[test]
    fn tangent_parabola_single_point() {
        // (t-3)² <= 0 only at t = 3
        let sol = solve_quadratic_le(1.0, -6.0, 9.0);
        assert_eq!(sol.intervals().len(), 1);
        assert!((sol.intervals()[0].lo - 3.0).abs() < 1e-9);
        assert!((sol.intervals()[0].hi - 3.0).abs() < 1e-9);
    }

    #[test]
    fn linear_eq_root() {
        assert_eq!(solve_linear_eq(2.0, -8.0), Some(4.0));
        assert_eq!(solve_linear_eq(0.0, 1.0), None);
        assert_eq!(solve_linear_eq(0.0, 0.0), None);
    }
}
