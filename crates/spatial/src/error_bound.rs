//! Forward error bounds for floating-point filters.
//!
//! A value computed by a chain of `n` correctly rounded `f64` operations
//! from exact inputs differs from the exact real result by at most
//! `γn · m`, where `m` sums the magnitudes of the quantities in play and
//! `γn = n·u / (1 − n·u)` with the unit roundoff `u = ε/2` (Higham,
//! *Accuracy and Stability of Numerical Algorithms*, §3.1).  A filter that
//! widens each comparison by such a bound never rejects what exact
//! arithmetic on the same inputs would accept: it may pass a few extra
//! candidates, and the exact test after it decides.

/// `γn = n·u / (1 − n·u)`: the relative forward error bound of `n`
/// correctly rounded operations.
pub const fn gamma(n: u32) -> f64 {
    let nu = n as f64 * (f64::EPSILON / 2.0);
    nu / (1.0 - nu)
}

/// A bound on the absolute rounding error of a value computed by at most
/// `n` correctly rounded operations over quantities whose magnitudes sum
/// to at most `magnitude`.
#[inline]
pub fn forward_error(n: u32, magnitude: f64) -> f64 {
    gamma(n) * magnitude
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_grows_with_the_operation_count() {
        assert!(gamma(1) > f64::EPSILON / 2.0);
        assert!(gamma(1) < f64::EPSILON);
        assert!(gamma(16) > 16.0 * gamma(1) - f64::EPSILON);
        assert_eq!(forward_error(4, 0.0), 0.0);
    }

    /// A rounded sum of three values lands within the bound of the exact
    /// sum, whose rounding error Knuth's error-free two-sum recovers.
    #[test]
    fn the_bound_covers_a_rounded_chain() {
        let mut rng = most_testkit::rng::Rng::seed_from_u64(0xB0D);
        for _ in 0..10_000 {
            let x: [f64; 3] = std::array::from_fn(|_| {
                rng.random_range(-1e9..1e9f64).round() + rng.random_range(0.0..1.0f64)
            });
            // Two additions: |fl(a + b + c) − (a + b + c)| ≤ γ2 · (|a| + |b| + |c|).
            let (s, e1) = two_sum(x[0], x[1]);
            let (_, e2) = two_sum(s, x[2]);
            let err = e1 + e2;
            let m: f64 = x.iter().map(|v| v.abs()).sum();
            assert!(err.abs() <= forward_error(2, m), "{x:?}: {err}");
        }
    }

    /// Knuth's error-free sum: `a + b == s + e` exactly.
    fn two_sum(a: f64, b: f64) -> (f64, f64) {
        let s = a + b;
        let bb = s - a;
        (s, (a - (s - bb)) + (b - bb))
    }
}
