//! Normalized interval sets and the temporal-operator algebra.
//!
//! The appendix requires that, for each instantiation of a subformula's free
//! variables, the intervals stored in the relation `R_g` are *disjoint and
//! non-consecutive* ("there is a non-zero gap separating intervals in tuples
//! that give identical values to corresponding variables").  [`IntervalSet`]
//! maintains exactly that invariant: a sorted vector of [`Interval`]s where
//! successive intervals are separated by a gap of at least one tick.
//!
//! On top of the boolean algebra (union / intersection / complement within a
//! [`Horizon`]) this module implements every temporal operator of FTL as an
//! interval-set transform, so the appendix algorithm never enumerates clock
//! ticks:
//!
//! | FTL operator                | method                     |
//! |-----------------------------|----------------------------|
//! | `f ∧ g`                     | [`IntervalSet::intersect`] |
//! | `f ∨ g` (extension)         | [`IntervalSet::union`]     |
//! | `¬ f` (extension)           | [`IntervalSet::complement`]|
//! | `Nexttime f`                | [`IntervalSet::next_time`] |
//! | `f Until g`                 | [`IntervalSet::until`]     |
//! | `Eventually f`              | [`IntervalSet::eventually`]|
//! | `Always f`                  | [`IntervalSet::always`]    |
//! | `Eventually within c f`     | [`IntervalSet::eventually_within`] |
//! | `Eventually after c f`      | [`IntervalSet::eventually_after`]  |
//! | `Always for c f`            | [`IntervalSet::always_for`]        |
//! | `f until_within c g`        | [`IntervalSet::until_within`]      |

use crate::interval::Interval;
use crate::time::{Horizon, Tick};
use std::fmt;

/// A normalized (sorted, disjoint, non-consecutive) set of tick intervals.
///
/// ```
/// use most_temporal::{Interval, IntervalSet};
///
/// // Overlapping and adjacent intervals normalize on construction.
/// let f = IntervalSet::from_intervals([Interval::new(0, 4), Interval::new(5, 9)]);
/// assert_eq!(f.intervals(), &[Interval::new(0, 9)]);
///
/// // Temporal operators are interval-set transforms: `f Until g`.
/// let g = IntervalSet::from_intervals([Interval::new(10, 12)]);
/// assert_eq!(f.until(&g).intervals(), &[Interval::new(0, 12)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct IntervalSet {
    intervals: Vec<Interval>,
}

impl IntervalSet {
    /// The empty set.
    pub fn empty() -> Self {
        IntervalSet::default()
    }

    /// The set containing the single interval `iv`.
    pub fn singleton(iv: Interval) -> Self {
        IntervalSet {
            intervals: vec![iv],
        }
    }

    /// The set containing the single tick `t`.
    pub fn point(t: Tick) -> Self {
        IntervalSet::singleton(Interval::point(t))
    }

    /// The whole horizon `[h.start(), h.end()]`.
    pub fn full(h: Horizon) -> Self {
        IntervalSet::singleton(h.span())
    }

    /// Builds a normalized set from arbitrary (possibly overlapping,
    /// unsorted, consecutive) intervals.  Zero or one interval is already
    /// normalized: nothing is sorted or copied.
    pub fn from_intervals<I: IntoIterator<Item = Interval>>(ivs: I) -> Self {
        let mut ivs = ivs.into_iter();
        let Some(first) = ivs.next() else {
            return IntervalSet::empty();
        };
        let Some(second) = ivs.next() else {
            return IntervalSet::singleton(first);
        };
        let mut v: Vec<Interval> = [first, second].into_iter().chain(ivs).collect();
        v.sort_unstable();
        let mut out: Vec<Interval> = Vec::with_capacity(v.len());
        for iv in v {
            match out.last_mut() {
                Some(last) if last.touches(iv) => {
                    *last = last.merge(iv).expect("touching intervals merge");
                }
                _ => out.push(iv),
            }
        }
        IntervalSet { intervals: out }
    }

    /// Builds a set from a per-tick predicate over the horizon.
    ///
    /// Brute-force constructor used by the naive reference evaluator and by
    /// the test suites; O(horizon).
    pub fn from_predicate<F: FnMut(Tick) -> bool>(h: Horizon, mut pred: F) -> Self {
        let mut intervals = Vec::new();
        let mut open: Option<Tick> = None;
        for t in h.ticks() {
            match (pred(t), open) {
                (true, None) => open = Some(t),
                (false, Some(b)) => {
                    intervals.push(Interval::new(b, t - 1));
                    open = None;
                }
                _ => {}
            }
        }
        if let Some(b) = open {
            intervals.push(Interval::new(b, h.end()));
        }
        IntervalSet { intervals }
    }

    /// The underlying sorted intervals.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Consumes the set, returning its intervals.
    pub fn into_intervals(self) -> Vec<Interval> {
        self.intervals
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Number of maximal intervals.
    pub fn span_count(&self) -> usize {
        self.intervals.len()
    }

    /// Total number of ticks contained in the set (saturating at
    /// `u64::MAX`; the full tick domain has `2^64` ticks).
    pub fn tick_count(&self) -> u64 {
        self.intervals
            .iter()
            .fold(0u64, |acc, iv| acc.saturating_add(iv.len()))
    }

    /// Whether tick `t` is in the set (binary search, O(log spans)).
    pub fn contains(&self, t: Tick) -> bool {
        self.intervals
            .binary_search_by(|iv| {
                if iv.end() < t {
                    std::cmp::Ordering::Less
                } else if iv.begin() > t {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// First tick in the set, if any.
    pub fn first_tick(&self) -> Option<Tick> {
        self.intervals.first().map(|iv| iv.begin())
    }

    /// Last tick in the set, if any.
    pub fn last_tick(&self) -> Option<Tick> {
        self.intervals.last().map(|iv| iv.end())
    }

    /// Iterator over every tick in the set (tests only; O(ticks)).
    pub fn ticks(&self) -> impl Iterator<Item = Tick> + '_ {
        self.intervals.iter().flat_map(|iv| iv.ticks())
    }

    /// Checks the normalization invariant; used by debug assertions and
    /// property tests.
    pub fn is_normalized(&self) -> bool {
        self.intervals
            .windows(2)
            .all(|w| w[0].end().saturating_add(1) < w[1].begin())
    }

    /// Set union (sorted merge, O(n + m)).
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let mut out: Vec<Interval> =
            Vec::with_capacity(self.intervals.len() + other.intervals.len());
        let mut a = self.intervals.iter().copied().peekable();
        let mut b = other.intervals.iter().copied().peekable();
        let push = |out: &mut Vec<Interval>, iv: Interval| match out.last_mut() {
            Some(last) if last.touches(iv) => {
                *last = last.merge(iv).expect("touching intervals merge");
            }
            _ => out.push(iv),
        };
        loop {
            let next = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => {
                    if x <= y {
                        a.next()
                    } else {
                        b.next()
                    }
                }
                (Some(_), None) => a.next(),
                (None, Some(_)) => b.next(),
                (None, None) => break,
            };
            push(&mut out, next.expect("peeked element exists"));
        }
        IntervalSet { intervals: out }
    }

    /// Set intersection (sorted merge, O(n + m)).
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.intervals.len() && j < other.intervals.len() {
            let (x, y) = (self.intervals[i], other.intervals[j]);
            if let Some(iv) = x.intersect(y) {
                out.push(iv);
            }
            if x.end() <= y.end() {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { intervals: out }
    }

    /// Complement within the horizon.
    ///
    /// The paper restricts its algorithm to conjunctive (negation-free)
    /// formulas for safety; this complement is the active-domain extension
    /// discussed in DESIGN.md (D3) and is exact within `[h.start(), h.end()]`.
    pub fn complement(&self, h: Horizon) -> IntervalSet {
        let mut out = Vec::with_capacity(self.intervals.len() + 1);
        let mut cursor: Tick = h.start();
        for iv in &self.intervals {
            if iv.end() < cursor {
                continue;
            }
            if iv.begin() > cursor {
                out.push(Interval::new(cursor, iv.begin() - 1));
            }
            // An interval reaching Tick::MAX leaves no ticks above it; the
            // saturated cursor would otherwise re-admit tick MAX below.
            if iv.end() == Tick::MAX {
                return IntervalSet { intervals: out };
            }
            cursor = iv.end() + 1;
            if cursor > h.end() {
                return IntervalSet { intervals: out };
            }
        }
        if cursor <= h.end() {
            out.push(Interval::new(cursor, h.end()));
        }
        IntervalSet { intervals: out }
    }

    /// Set difference `self \ other` within the horizon.
    pub fn difference(&self, other: &IntervalSet, h: Horizon) -> IntervalSet {
        self.intersect(&other.complement(h))
    }

    /// Restricts the set to the horizon.
    pub fn clamp(&self, h: Horizon) -> IntervalSet {
        self.intersect(&IntervalSet::full(h))
    }

    // ------------------------------------------------------------------
    // Temporal operators (Section 3.3 / 3.4 / appendix)
    // ------------------------------------------------------------------

    /// `Nexttime f`: `t` satisfies iff `t + 1` satisfies `f`.
    ///
    /// Ticks whose successor lies beyond the horizon are unsatisfied (the
    /// truncated history has no next state there).
    pub fn next_time(&self, h: Horizon) -> IntervalSet {
        let window = Interval::try_new(h.start(), h.end().saturating_sub(1));
        let shifted = self.intervals.iter();
        IntervalSet::from_intervals(shifted.filter_map(|iv| iv.shift_down(1)?.intersect(window?)))
    }

    /// `Eventually f` (= `true Until f`): `t` satisfies iff some `t' >= t`
    /// within the horizon satisfies `f`.
    pub fn eventually(&self, h: Horizon) -> IntervalSet {
        match self.last_tick() {
            Some(last) if last >= h.start() => {
                IntervalSet::singleton(Interval::new(h.start(), last))
            }
            _ => IntervalSet::empty(),
        }
    }

    /// `Always f`: `t` satisfies iff every `t' >= t` up to the horizon end
    /// satisfies `f`.
    pub fn always(&self, h: Horizon) -> IntervalSet {
        match self.intervals.last() {
            Some(iv) if iv.end() >= h.end() => {
                IntervalSet::singleton(Interval::new(iv.begin(), h.end()))
            }
            _ => IntervalSet::empty(),
        }
    }

    /// `f Until g` where `self` is the satisfaction set of `f` and `g_set`
    /// that of `g`.
    ///
    /// Per Section 3.3, `t` satisfies iff either `g` holds at `t`, or there
    /// is a future `t''` where `g` holds and `f` holds throughout
    /// `[t, t'' - 1]`.  The construction below is the closed form of the
    /// appendix's maximal-chain merge: every `g`-interval `[m, n]` is
    /// extended backwards through the `f`-interval containing `m - 1` (when
    /// one exists), and the union is normalized — which merges exactly the
    /// intervals the appendix links into chains.  Unlike the literal chain
    /// description, intervals of `g` that no `f`-interval is compatible with
    /// are still included (they satisfy `Until` by the first disjunct of the
    /// semantics); see `chain::until_via_chains` for the transcription and
    /// the property test pinning both implementations together.
    pub fn until(&self, g_set: &IntervalSet) -> IntervalSet {
        let mut out = Vec::with_capacity(g_set.intervals.len());
        for g_iv in &g_set.intervals {
            let begin = match g_iv.begin() {
                0 => 0,
                m => match self.interval_containing(m - 1) {
                    Some(f_iv) => f_iv.begin().min(m),
                    None => m,
                },
            };
            out.push(Interval::new(begin, g_iv.end()));
        }
        IntervalSet::from_intervals(out)
    }

    /// `Eventually within c (f)`: `t` satisfies iff some `t' ∈ [t, t + c]`
    /// satisfies `f` (Section 3.4).
    pub fn eventually_within(&self, c: u64, h: Horizon) -> IntervalSet {
        IntervalSet::from_intervals(self.intervals.iter().filter_map(|iv| {
            Interval::try_new(iv.begin().saturating_sub(c).max(h.start()), iv.end())
        }))
    }

    /// `Eventually after c (f)`: `t` satisfies iff some `t' >= t + c`
    /// satisfies `f` (Section 3.4).
    pub fn eventually_after(&self, c: u64, h: Horizon) -> IntervalSet {
        match self.last_tick() {
            Some(last) if last >= c && last - c >= h.start() => {
                IntervalSet::singleton(Interval::new(h.start(), last - c))
            }
            _ => IntervalSet::empty(),
        }
    }

    /// `Always for c (f)`: `t` satisfies iff `f` holds at every
    /// `t' ∈ [t, t + c]` (Section 3.4).
    ///
    /// `t + c` must lie within the horizon for the obligation to be
    /// checkable; ticks too close to the horizon end are unsatisfied, which
    /// is the conservative reading of the truncated history.
    pub fn always_for(&self, c: u64, h: Horizon) -> IntervalSet {
        let ivs = self.intervals.iter().filter_map(|iv| {
            if iv.len() > c {
                Interval::try_new(iv.begin(), iv.end() - c)
            } else {
                None
            }
        });
        IntervalSet::from_intervals(ivs).clamp_end(h.end().saturating_sub(c))
    }

    /// `f until_within c g`: `t` satisfies iff there is `t'' ∈ [t, t + c]`
    /// where `g` holds and `f` holds throughout `[t, t'')` (Section 3.4).
    pub fn until_within(&self, c: u64, g_set: &IntervalSet) -> IntervalSet {
        let mut out = Vec::with_capacity(g_set.intervals.len());
        for g_iv in &g_set.intervals {
            let m = g_iv.begin();
            // Backwards extension through f, as in `until` ...
            let reach_begin = match m {
                0 => 0,
                m => match self.interval_containing(m - 1) {
                    Some(f_iv) => f_iv.begin().min(m),
                    None => m,
                },
            };
            // ... but a tick t < m only works when m <= t + c.
            let begin = reach_begin.max(m.saturating_sub(c));
            out.push(Interval::new(begin, g_iv.end()));
        }
        IntervalSet::from_intervals(out)
    }

    /// The interval containing tick `t`, if any.
    pub fn interval_containing(&self, t: Tick) -> Option<Interval> {
        self.intervals
            .binary_search_by(|iv| {
                if iv.end() < t {
                    std::cmp::Ordering::Less
                } else if iv.begin() > t {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .ok()
            .map(|idx| self.intervals[idx])
    }

    /// Drops every tick strictly greater than `end`.
    fn clamp_end(mut self, end: Tick) -> IntervalSet {
        while let Some(last) = self.intervals.last_mut() {
            if last.begin() > end {
                self.intervals.pop();
            } else {
                if last.end() > end {
                    *last = Interval::new(last.begin(), end);
                }
                break;
            }
        }
        self
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, iv) in self.intervals.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{iv}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Interval> for IntervalSet {
    fn from_iter<T: IntoIterator<Item = Interval>>(iter: T) -> Self {
        IntervalSet::from_intervals(iter)
    }
}

impl most_testkit::ser::ToJson for IntervalSet {
    fn to_json(&self) -> most_testkit::ser::Json {
        most_testkit::ser::ToJson::to_json(&self.intervals)
    }
}

impl most_testkit::ser::FromJson for IntervalSet {
    fn from_json(j: &most_testkit::ser::Json) -> Result<Self, most_testkit::ser::JsonError> {
        // Re-normalize on decode so a hand-edited or adversarial document
        // cannot smuggle in an unsorted / overlapping representation.
        let ivs: Vec<Interval> = most_testkit::ser::FromJson::from_json(j)?;
        Ok(IntervalSet::from_intervals(ivs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ivs: &[(Tick, Tick)]) -> IntervalSet {
        IntervalSet::from_intervals(ivs.iter().map(|&(a, b)| Interval::new(a, b)))
    }

    #[test]
    fn normalization_merges_overlaps_and_adjacent() {
        let s = set(&[(5, 9), (0, 2), (3, 4), (11, 12)]);
        assert_eq!(s.intervals(), &[Interval::new(0, 9), Interval::new(11, 12)]);
        assert!(s.is_normalized());
    }

    #[test]
    fn from_predicate_round_trip() {
        let h = Horizon::new(20);
        let s = set(&[(0, 3), (7, 7), (10, 20)]);
        let rebuilt = IntervalSet::from_predicate(h, |t| s.contains(t));
        assert_eq!(s, rebuilt);
    }

    #[test]
    fn contains_and_counts() {
        let s = set(&[(2, 4), (8, 8)]);
        assert!(s.contains(2) && s.contains(4) && s.contains(8));
        assert!(!s.contains(5) && !s.contains(9) && !s.contains(0));
        assert_eq!(s.span_count(), 2);
        assert_eq!(s.tick_count(), 4);
        assert_eq!(s.first_tick(), Some(2));
        assert_eq!(s.last_tick(), Some(8));
    }

    #[test]
    fn union_is_commutative_and_normalized() {
        let a = set(&[(0, 3), (10, 12)]);
        let b = set(&[(4, 5), (11, 15)]);
        let u = a.union(&b);
        assert_eq!(u, b.union(&a));
        assert_eq!(u, set(&[(0, 5), (10, 15)]));
        assert!(u.is_normalized());
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = set(&[(1, 2)]);
        assert_eq!(a.union(&IntervalSet::empty()), a);
        assert_eq!(IntervalSet::empty().union(&a), a);
    }

    #[test]
    fn intersection_cases() {
        let a = set(&[(0, 5), (10, 20)]);
        let b = set(&[(3, 12), (18, 30)]);
        assert_eq!(a.intersect(&b), set(&[(3, 5), (10, 12), (18, 20)]));
        assert_eq!(a.intersect(&IntervalSet::empty()), IntervalSet::empty());
    }

    #[test]
    fn complement_within_horizon() {
        let h = Horizon::new(10);
        let s = set(&[(2, 4), (8, 10)]);
        assert_eq!(s.complement(h), set(&[(0, 1), (5, 7)]));
        assert_eq!(IntervalSet::empty().complement(h), IntervalSet::full(h));
        assert_eq!(IntervalSet::full(h).complement(h), IntervalSet::empty());
        // Double complement is identity for clamped sets.
        assert_eq!(s.complement(h).complement(h), s);
    }

    #[test]
    fn difference_and_clamp() {
        let h = Horizon::new(10);
        let a = set(&[(0, 8)]);
        let b = set(&[(3, 4)]);
        assert_eq!(a.difference(&b, h), set(&[(0, 2), (5, 8)]));
        assert_eq!(set(&[(5, 50)]).clamp(h), set(&[(5, 10)]));
    }

    #[test]
    fn next_time_shifts_down() {
        let h = Horizon::new(10);
        // f holds at [3,5]; Nexttime f holds at [2,4].
        assert_eq!(set(&[(3, 5)]).next_time(h), set(&[(2, 4)]));
        // f holds at 0 only: no tick has its successor at 0.
        assert_eq!(set(&[(0, 0)]).next_time(h), IntervalSet::empty());
        // f holds at the horizon end: Nexttime f holds at end-1.
        assert_eq!(set(&[(10, 10)]).next_time(h), set(&[(9, 9)]));
    }

    #[test]
    fn eventually_reaches_back_to_the_start() {
        let h = Horizon::new(20);
        assert_eq!(set(&[(3, 5), (9, 9)]).eventually(h), set(&[(0, 9)]));
        assert_eq!(IntervalSet::empty().eventually(h), IntervalSet::empty());
        let h = Horizon::between(2, 20);
        assert_eq!(set(&[(3, 5), (9, 9)]).eventually(h), set(&[(2, 9)]));
    }

    #[test]
    fn always_requires_horizon_suffix() {
        let h = Horizon::new(10);
        assert_eq!(set(&[(4, 10)]).always(h), set(&[(4, 10)]));
        assert_eq!(set(&[(4, 9)]).always(h), IntervalSet::empty());
        assert_eq!(set(&[(0, 2), (5, 10)]).always(h), set(&[(5, 10)]));
    }

    #[test]
    fn until_matches_pointwise_semantics() {
        let h = Horizon::new(30);
        let f = set(&[(0, 10), (14, 20)]);
        let g = set(&[(8, 9), (21, 22)]);
        let result = f.until(&g);
        let expected = IntervalSet::from_predicate(h, |t| {
            // exists t'' >= t with g(t'') and f on [t, t''-1]
            g.ticks()
                .any(|t2| t2 >= t && (t..t2).all(|u| f.contains(u)))
        });
        assert_eq!(result, expected);
    }

    #[test]
    fn until_includes_g_only_states() {
        // g holds where f never does; Until still holds on g's intervals.
        let f = IntervalSet::empty();
        let g = set(&[(5, 7)]);
        assert_eq!(f.until(&g), g);
    }

    #[test]
    fn until_chains_across_alternations() {
        // f: [0,4], [6,9]; g: [5,5], [10,12]
        // t in [0,4]: f up to 4, g at 5 -> ok. t=5: g holds. t in [6,9]: f up
        // to 9, g at 10 -> ok. So the whole [0,12] holds (one chain).
        let f = set(&[(0, 4), (6, 9)]);
        let g = set(&[(5, 5), (10, 12)]);
        assert_eq!(f.until(&g), set(&[(0, 12)]));
    }

    #[test]
    fn eventually_within_expands_left() {
        let h = Horizon::new(20);
        assert_eq!(set(&[(5, 6)]).eventually_within(3, h), set(&[(2, 6)]));
        assert_eq!(set(&[(1, 2)]).eventually_within(5, h), set(&[(0, 2)]));
        assert_eq!(
            IntervalSet::empty().eventually_within(3, h),
            IntervalSet::empty()
        );
        let h = Horizon::between(4, 20);
        assert_eq!(set(&[(5, 6)]).eventually_within(3, h), set(&[(4, 6)]));
    }

    #[test]
    fn eventually_after_requires_distance() {
        let h = Horizon::new(20);
        assert_eq!(set(&[(5, 9)]).eventually_after(3, h), set(&[(0, 6)]));
        assert_eq!(set(&[(2, 2)]).eventually_after(3, h), IntervalSet::empty());
        assert_eq!(set(&[(3, 3)]).eventually_after(3, h), set(&[(0, 0)]));
        let h = Horizon::between(4, 20);
        assert_eq!(set(&[(5, 9)]).eventually_after(3, h), set(&[(4, 6)]));
        assert_eq!(set(&[(5, 6)]).eventually_after(3, h), IntervalSet::empty());
    }

    #[test]
    fn always_for_shrinks_right() {
        let h = Horizon::new(100);
        assert_eq!(set(&[(5, 10)]).always_for(2, h), set(&[(5, 8)]));
        assert_eq!(set(&[(5, 6)]).always_for(2, h), IntervalSet::empty());
        assert_eq!(set(&[(5, 7)]).always_for(2, h), set(&[(5, 5)]));
    }

    #[test]
    fn always_for_respects_horizon_end() {
        let h = Horizon::new(10);
        // f holds on [8,10]; Always for 2 can only be checked at t <= 8.
        assert_eq!(set(&[(8, 10)]).always_for(2, h), set(&[(8, 8)]));
        // f holds on [9,10]: at t=9, t+2=11 exceeds the horizon -> unsatisfied.
        assert_eq!(set(&[(9, 10)]).always_for(2, h), IntervalSet::empty());
    }

    #[test]
    fn until_within_matches_pointwise_semantics() {
        let h = Horizon::new(40);
        let f = set(&[(0, 20)]);
        let g = set(&[(15, 16), (30, 31)]);
        for c in [0u64, 1, 3, 10, 25] {
            let result = f.until_within(c, &g);
            let expected = IntervalSet::from_predicate(h, |t| {
                g.ticks()
                    .any(|t2| t2 >= t && t2 <= t + c && (t..t2).all(|u| f.contains(u)))
            });
            assert_eq!(result, expected, "c = {c}");
        }
    }

    #[test]
    fn interval_containing_lookup() {
        let s = set(&[(2, 4), (8, 8)]);
        assert_eq!(s.interval_containing(3), Some(Interval::new(2, 4)));
        assert_eq!(s.interval_containing(8), Some(Interval::new(8, 8)));
        assert_eq!(s.interval_containing(5), None);
    }

    #[test]
    fn display_format() {
        assert_eq!(set(&[(1, 2), (4, 5)]).to_string(), "{[1, 2], [4, 5]}");
        assert_eq!(IntervalSet::empty().to_string(), "{}");
    }

    #[test]
    fn normalization_merges_adjacency_at_tick_max() {
        // Adjacent at the very top of the tick domain: the consecutiveness
        // check (hi + 1 == lo) must not overflow.
        let s = set(&[(0, Tick::MAX - 1), (Tick::MAX, Tick::MAX)]);
        assert_eq!(s.intervals(), &[Interval::new(0, Tick::MAX)]);
        assert!(s.is_normalized());
    }

    #[test]
    fn complement_excludes_tick_max_when_set_reaches_it() {
        let h = Horizon::new(Tick::MAX);
        // The set occupies [10, MAX]; its complement is exactly [0, 9] —
        // in particular tick MAX must NOT reappear in the complement.
        let s = set(&[(10, Tick::MAX)]);
        let c = s.complement(h);
        assert_eq!(c, set(&[(0, 9)]));
        assert!(!c.contains(Tick::MAX));
        // Full-domain set complements to empty; double complement restores.
        let full = set(&[(0, Tick::MAX)]);
        assert_eq!(full.complement(h), IntervalSet::empty());
        assert_eq!(s.complement(h).complement(h), s);
    }

    #[test]
    fn tick_count_saturates_on_huge_sets() {
        assert_eq!(set(&[(0, Tick::MAX)]).tick_count(), u64::MAX);
        assert_eq!(
            set(&[(0, Tick::MAX - 2), (Tick::MAX, Tick::MAX)]).tick_count(),
            u64::MAX
        );
    }
}
