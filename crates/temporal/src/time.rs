//! The discrete clock: ticks, durations and evaluation horizons.
//!
//! The paper's `time` object has the natural numbers as its domain and
//! increases by one per clock tick.  A [`Tick`] is therefore a plain `u64`;
//! a [`Duration`] is a difference of ticks.  Evaluation of FTL formulas is
//! always performed relative to a [`Horizon`], the ticks from the
//! evaluation's start to the paper's "predefined (but very large) amount of
//! time" after which queries expire.

use crate::interval::Interval;

/// A point on the global discrete clock (the paper's `time` object).
///
/// Every answer, stored state and index entry counts ticks on this one
/// clock; an evaluation starts at the [`Horizon::start`] of its horizon.
pub type Tick = u64;

/// A length of time, measured in clock ticks.
pub type Duration = u64;

/// The finite evaluation horizon `[start, end]` standing in for the
/// infinite future database history.
///
/// Section 2.3: "we will assume in this paper that a continuous query expires
/// after a predefined (but very large) amount of time."  All interval algebra
/// in this workspace is exact within the horizon; `Always`-style operators
/// interpret "all future states" as "all states up to and including
/// `Horizon::end`".  `start` is the tick the evaluation begins at (the
/// appendix's "time when we are evaluating the query").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Horizon {
    start: Tick,
    end: Tick,
}

impl Horizon {
    /// Creates a horizon covering ticks `0..=end`.
    pub const fn new(end: Tick) -> Self {
        Horizon { start: 0, end }
    }

    /// Creates a horizon covering ticks `start..=end`; panics when
    /// `start > end`.
    pub const fn between(start: Tick, end: Tick) -> Self {
        assert!(start <= end, "a horizon starts no later than it ends");
        Horizon { start, end }
    }

    /// The first tick inside the horizon.
    pub const fn start(self) -> Tick {
        self.start
    }

    /// The last tick inside the horizon (inclusive).
    pub const fn end(self) -> Tick {
        self.end
    }

    /// Number of ticks in the horizon (`end - start + 1`).
    ///
    /// Saturates at `u64::MAX` for `Horizon::new(Tick::MAX)`, whose true
    /// length (`2^64`) is unrepresentable.
    pub const fn len(self) -> u64 {
        (self.end - self.start).saturating_add(1)
    }

    /// A horizon is never empty: it always contains its start.
    pub const fn is_empty(self) -> bool {
        false
    }

    /// The whole horizon as one interval.
    pub fn span(self) -> Interval {
        Interval::new(self.start, self.end)
    }

    /// `t` as `τ = t − start`: the offset from the horizon start that
    /// numeric kernels solve in, so their magnitudes do not grow with the
    /// clock.  Every tick a kernel takes or returns is global; this is the
    /// one conversion into its variable.
    pub fn offset(self, t: Tick) -> f64 {
        t as f64 - self.start as f64
    }

    /// Whether `t` falls inside the horizon.
    pub const fn contains(self, t: Tick) -> bool {
        self.start <= t && t <= self.end
    }

    /// Iterator over every tick in the horizon.
    ///
    /// Only sensible for the small horizons used by tests and the naive
    /// reference evaluator; the interval algebra never enumerates ticks.
    pub fn ticks(self) -> impl Iterator<Item = Tick> {
        self.start..=self.end
    }

    /// Clamps a tick into the horizon.
    pub fn clamp(self, t: Tick) -> Tick {
        t.clamp(self.start, self.end)
    }
}

impl Default for Horizon {
    /// A comfortable default horizon for interactive use: 1,000,000 ticks.
    fn default() -> Self {
        Horizon::new(1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizon_contains_bounds() {
        let h = Horizon::new(10);
        assert!(h.contains(0));
        assert!(h.contains(10));
        assert!(!h.contains(11));
        assert_eq!(h.len(), 11);
        assert!(!h.is_empty());
    }

    #[test]
    fn horizon_tick_iteration_matches_len() {
        let h = Horizon::new(4);
        let ticks: Vec<Tick> = h.ticks().collect();
        assert_eq!(ticks, vec![0, 1, 2, 3, 4]);
        assert_eq!(ticks.len() as u64, h.len());
    }

    #[test]
    fn horizon_clamp() {
        let h = Horizon::new(5);
        assert_eq!(h.clamp(3), 3);
        assert_eq!(h.clamp(5), 5);
        assert_eq!(h.clamp(99), 5);
    }

    #[test]
    fn horizon_with_a_start() {
        let h = Horizon::between(5, 8);
        assert_eq!((h.start(), h.end(), h.len()), (5, 8, 4));
        assert!(!h.contains(4) && h.contains(5) && h.contains(8) && !h.contains(9));
        assert_eq!(h.ticks().collect::<Vec<_>>(), vec![5, 6, 7, 8]);
        assert_eq!((h.clamp(0), h.clamp(6), h.clamp(99)), (5, 6, 8));
        assert_eq!(Horizon::new(8).start(), 0);
    }

    #[test]
    fn default_horizon_is_large() {
        assert!(Horizon::default().end() >= 1_000_000);
    }

    #[test]
    fn horizon_len_saturates_at_tick_max() {
        // The full-domain horizon has 2^64 ticks; len saturates.
        let h = Horizon::new(Tick::MAX);
        assert_eq!(h.len(), u64::MAX);
        assert!(h.contains(Tick::MAX));
    }
}
