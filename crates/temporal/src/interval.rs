//! Closed tick intervals `[begin, end]`.
//!
//! The appendix manipulates intervals of clock ticks during which a formula
//! is satisfied for one instantiation of its free variables.  Two notions
//! from the appendix are implemented verbatim here:
//!
//! * **consecutive** — `[a, b]` and `[c, d]` with `c = b + 1` (no gap);
//!   normalized interval sets must not contain consecutive intervals;
//! * **compatible** — "`[l1 u1]` is compatible with `[m1 n1]` if
//!   `m1 <= u1 + 1` and `n1 >= u1`, i.e. the two intervals either overlap or
//!   they are consecutive" — the condition under which a `g1`-interval can be
//!   chained into a `g2`-interval while evaluating `g1 Until g2`.

use crate::time::Tick;
use std::fmt;

/// A closed, non-empty interval of clock ticks `[begin, end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    begin: Tick,
    end: Tick,
}

impl Interval {
    /// Creates the interval `[begin, end]`.
    ///
    /// # Panics
    /// Panics if `begin > end`; use [`Interval::try_new`] for fallible
    /// construction.
    #[inline]
    pub fn new(begin: Tick, end: Tick) -> Self {
        assert!(
            begin <= end,
            "interval begin ({begin}) must not exceed end ({end})"
        );
        Interval { begin, end }
    }

    /// Creates the interval `[begin, end]`, or `None` when `begin > end`.
    #[inline]
    pub fn try_new(begin: Tick, end: Tick) -> Option<Self> {
        (begin <= end).then_some(Interval { begin, end })
    }

    /// The single-tick interval `[t, t]`.
    pub fn point(t: Tick) -> Self {
        Interval { begin: t, end: t }
    }

    /// First tick of the interval.
    pub fn begin(self) -> Tick {
        self.begin
    }

    /// Last tick of the interval (inclusive).
    pub fn end(self) -> Tick {
        self.end
    }

    /// Number of ticks in the interval.
    ///
    /// Saturates at `u64::MAX` for the full-domain interval
    /// `[0, Tick::MAX]`, whose true length (`2^64`) is unrepresentable.
    pub fn len(self) -> u64 {
        (self.end - self.begin).saturating_add(1)
    }

    /// Intervals are non-empty by construction.
    pub fn is_empty(self) -> bool {
        false
    }

    /// Whether tick `t` lies inside the interval.
    pub fn contains(self, t: Tick) -> bool {
        self.begin <= t && t <= self.end
    }

    /// Whether `other` is entirely inside `self`.
    pub fn covers(self, other: Interval) -> bool {
        self.begin <= other.begin && other.end <= self.end
    }

    /// Whether the two intervals share at least one tick.
    pub fn overlaps(self, other: Interval) -> bool {
        self.begin <= other.end && other.begin <= self.end
    }

    /// The intersection of two intervals, if non-empty.
    #[inline]
    pub fn intersect(self, other: Interval) -> Option<Interval> {
        Interval::try_new(self.begin.max(other.begin), self.end.min(other.end))
    }

    /// Whether `other` starts exactly one tick after `self` ends
    /// (the appendix's "consecutive" relation, in that order).
    pub fn precedes_consecutively(self, other: Interval) -> bool {
        other.begin == self.end.saturating_add(1) && self.end < Tick::MAX
    }

    /// Whether the two intervals overlap or are consecutive in either order,
    /// i.e. whether their union is a single interval.
    pub fn touches(self, other: Interval) -> bool {
        self.overlaps(other)
            || self.precedes_consecutively(other)
            || other.precedes_consecutively(self)
    }

    /// The appendix's **compatibility** test: `self = [l1, u1]` is compatible
    /// with `other = [m1, n1]` iff `m1 <= u1 + 1` and `n1 >= u1`.
    ///
    /// Intuitively: a tick range satisfying `g1` up to `u1` can hand over to
    /// a `g2` interval that starts no later than `u1 + 1` and does not end
    /// before `u1`.
    pub fn compatible_with(self, other: Interval) -> bool {
        other.begin <= self.end.saturating_add(1) && other.end >= self.end
    }

    /// Union of two touching intervals; `None` when the union would be
    /// disconnected.
    pub fn merge(self, other: Interval) -> Option<Interval> {
        self.touches(other)
            .then(|| Interval::new(self.begin.min(other.begin), self.end.max(other.end)))
    }

    /// Iterator over the ticks in the interval (tests / reference evaluator
    /// only).
    pub fn ticks(self) -> impl Iterator<Item = Tick> {
        self.begin..=self.end
    }

    /// Shifts the interval towards zero by `delta`, clamping at zero.
    ///
    /// Used for the `Nexttime` and `Eventually within` transforms; the result
    /// is `[begin - delta, end - delta]` saturated at 0, or `None` when the
    /// whole interval would fall below 0 (i.e. `end < delta`).
    pub fn shift_down(self, delta: u64) -> Option<Interval> {
        if self.end < delta {
            None
        } else {
            Some(Interval::new(
                self.begin.saturating_sub(delta),
                self.end - delta,
            ))
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.begin, self.end)
    }
}

impl most_testkit::ser::ToJson for Interval {
    fn to_json(&self) -> most_testkit::ser::Json {
        most_testkit::ser::Json::Obj(vec![
            ("begin".to_owned(), self.begin.to_json()),
            ("end".to_owned(), self.end.to_json()),
        ])
    }
}

impl most_testkit::ser::FromJson for Interval {
    fn from_json(j: &most_testkit::ser::Json) -> Result<Self, most_testkit::ser::JsonError> {
        let begin = Tick::from_json(j.field("begin")?)?;
        let end = Tick::from_json(j.field("end")?)?;
        Interval::try_new(begin, end).ok_or_else(|| {
            most_testkit::ser::JsonError::Decode(format!(
                "interval begin ({begin}) exceeds end ({end})"
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn inverted_interval_panics() {
        let _ = Interval::new(5, 4);
    }

    #[test]
    fn try_new_rejects_inverted() {
        assert!(Interval::try_new(5, 4).is_none());
        assert_eq!(Interval::try_new(4, 5), Some(Interval::new(4, 5)));
    }

    #[test]
    fn point_interval() {
        let i = Interval::point(7);
        assert_eq!(i.begin(), 7);
        assert_eq!(i.end(), 7);
        assert_eq!(i.len(), 1);
        assert!(i.contains(7));
        assert!(!i.contains(6));
    }

    #[test]
    fn contains_and_covers() {
        let i = Interval::new(3, 9);
        assert!(i.contains(3) && i.contains(9) && i.contains(6));
        assert!(!i.contains(2) && !i.contains(10));
        assert!(i.covers(Interval::new(4, 8)));
        assert!(i.covers(i));
        assert!(!i.covers(Interval::new(2, 8)));
        assert!(!i.covers(Interval::new(4, 10)));
    }

    #[test]
    fn overlap_and_intersection() {
        let a = Interval::new(2, 6);
        let b = Interval::new(5, 9);
        let c = Interval::new(7, 9);
        assert!(a.overlaps(b) && b.overlaps(a));
        assert!(!a.overlaps(c));
        assert_eq!(a.intersect(b), Some(Interval::new(5, 6)));
        assert_eq!(a.intersect(c), None);
    }

    #[test]
    fn consecutive_and_touches() {
        let a = Interval::new(2, 6);
        let b = Interval::new(7, 9);
        let c = Interval::new(8, 9);
        assert!(a.precedes_consecutively(b));
        assert!(!a.precedes_consecutively(c));
        assert!(a.touches(b) && b.touches(a));
        assert!(!a.touches(c));
        assert_eq!(a.merge(b), Some(Interval::new(2, 9)));
        assert_eq!(a.merge(c), None);
    }

    #[test]
    fn compatibility_matches_appendix_definition() {
        // [l1,u1] = [2,6]; compatible iff m1 <= 7 and n1 >= 6.
        let g1 = Interval::new(2, 6);
        assert!(g1.compatible_with(Interval::new(7, 9))); // consecutive
        assert!(g1.compatible_with(Interval::new(5, 6))); // overlap ending at u1
        assert!(g1.compatible_with(Interval::new(0, 10))); // covering
        assert!(!g1.compatible_with(Interval::new(8, 9))); // gap
        assert!(!g1.compatible_with(Interval::new(3, 5))); // ends before u1
    }

    #[test]
    fn shift_down_saturates_and_vanishes() {
        let i = Interval::new(3, 5);
        assert_eq!(i.shift_down(0), Some(i));
        assert_eq!(i.shift_down(4), Some(Interval::new(0, 1)));
        assert_eq!(i.shift_down(5), Some(Interval::new(0, 0)));
        assert_eq!(i.shift_down(6), None);
    }

    #[test]
    fn tick_iteration() {
        assert_eq!(
            Interval::new(2, 4).ticks().collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(Interval::new(2, 4).len(), 3);
    }

    #[test]
    fn display_format() {
        assert_eq!(Interval::new(1, 2).to_string(), "[1, 2]");
    }

    #[test]
    fn len_saturates_at_tick_domain_boundary() {
        // [0, MAX] has 2^64 ticks; len must saturate, not overflow.
        assert_eq!(Interval::new(0, Tick::MAX).len(), u64::MAX);
        assert_eq!(Interval::new(1, Tick::MAX).len(), u64::MAX);
        assert_eq!(Interval::new(Tick::MAX, Tick::MAX).len(), 1);
    }

    #[test]
    fn consecutiveness_never_overflows_at_tick_max() {
        let top = Interval::new(Tick::MAX - 1, Tick::MAX);
        let below = Interval::new(0, Tick::MAX - 2);
        // Nothing starts after MAX, so an interval ending there precedes
        // nothing consecutively — and the check must not wrap to 0.
        assert!(!top.precedes_consecutively(Interval::new(0, 5)));
        assert!(below.precedes_consecutively(top));
        assert!(below.touches(top));
        assert_eq!(below.merge(top), Some(Interval::new(0, Tick::MAX)));
        // Compatibility at the top of the domain must not wrap either.
        assert!(top.compatible_with(Interval::new(Tick::MAX, Tick::MAX)));
        assert!(!Interval::new(0, 1).compatible_with(Interval::new(Tick::MAX, Tick::MAX)));
    }
}
