//! Literal transcription of the appendix's maximal-chain construction for
//! `g1 Until g2`.
//!
//! The appendix defines: a *chain* is an alternating sequence
//! `[l1 u1], [m1 n1], [l2 u2], [m2 n2], ..., [lk uk], [mk nk]` where each
//! `[li ui]` is an interval of `I1` (the satisfaction intervals of `g1`),
//! each `[mi ni]` is an interval of `I2` (of `g2`), `[li ui]` is compatible
//! with `[mi ni]`, and for `i < k`, `[mi ni]` is compatible with
//! `[l(i+1) u(i+1)]`.  `interval(s)` of such a chain is `[l1, nk]`, on which
//! `g1 Until g2` is satisfied throughout.  "All the maximal chains can be
//! computed by sorting the sets I1 and I2 individually and running a modified
//! merge algorithm."
//!
//! Two fidelity notes, both verified by the property tests against the
//! pointwise Section 3.3 semantics:
//!
//! 1. The chain description alone omits states where `g2` holds but no
//!    `g1`-interval is compatible with the `g2`-interval — yet such states
//!    satisfy `Until` outright by the first disjunct of the semantics
//!    ("either g is satisfied at that state").  We therefore seed chains with
//!    bare `I2` intervals as degenerate chains (`k = 0` prefix), matching
//!    [`IntervalSet::until`].
//! 2. A `g2`-interval can extend an `Until` span backwards at most to the
//!    start of the `g1`-interval covering the tick right before it, which is
//!    what the first conjunct of compatibility (`m1 <= u1 + 1`) encodes.
//! 3. Compatibility's second conjunct (`n1 >= u1`, "g2 outlasts g1") is
//!    needed only so a chain can *continue* past the `g1`-interval; requiring
//!    it for the backwards extension itself would lose answers (with
//!    `g1 = [4,10]` and `g2 = [5,6]`, tick 4 satisfies `Until` but the pair
//!    fails `n1 >= u1`).  The merge below therefore uses the sound condition
//!    — the `g1`-interval must cover the tick immediately preceding the
//!    `g2`-interval — and lets normalization perform chain continuation.
//!
//! This module exists so the production implementation
//! ([`IntervalSet::until`]) can be pinned against the paper's own
//! construction; the two are asserted equal on random inputs.

use crate::interval::Interval;
use crate::interval_set::IntervalSet;

/// Computes `g1 Until g2` by building maximal chains, following the appendix
/// merge over the two sorted interval lists.
pub fn until_via_chains(i1: &IntervalSet, i2: &IntervalSet) -> IntervalSet {
    let f = i1.intervals();
    let g = i2.intervals();
    let mut out: Vec<Interval> = Vec::with_capacity(g.len());

    // For each g2-interval, find the furthest-left chain start that can reach
    // it; the alternation across multiple (f, g) pairs is produced by the
    // final normalization, which merges compatible (overlapping/consecutive)
    // chain intervals exactly as the appendix's maximal chains do.
    let mut fi = 0usize;
    for g_iv in g {
        // Advance over f-intervals that end strictly before g could use them.
        while fi < f.len() && f[fi].end().saturating_add(1) < g_iv.begin() {
            fi += 1;
        }
        let begin = match f.get(fi) {
            // f-interval covers the tick just before g starts (fidelity
            // notes 2 and 3): the chain reaches back to its start.
            Some(f_iv)
                if f_iv.end().saturating_add(1) >= g_iv.begin() && f_iv.begin() < g_iv.begin() =>
            {
                f_iv.begin()
            }
            // Degenerate chain: the g2-interval alone (fidelity note 1).
            _ => g_iv.begin(),
        };
        out.push(Interval::new(begin, g_iv.end()));
    }
    IntervalSet::from_intervals(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Horizon;

    fn set(ivs: &[(u64, u64)]) -> IntervalSet {
        IntervalSet::from_intervals(ivs.iter().map(|&(a, b)| Interval::new(a, b)))
    }

    /// Pointwise Section 3.3 semantics, the oracle.
    fn until_pointwise(f: &IntervalSet, g: &IntervalSet, h: Horizon) -> IntervalSet {
        IntervalSet::from_predicate(h, |t| {
            g.ticks()
                .any(|t2| t2 >= t && (t..t2).all(|u| f.contains(u)))
        })
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn chains_match_production_until_on_examples() {
        let cases: &[(&[(u64, u64)], &[(u64, u64)])] = &[
            (&[(0, 10), (14, 20)], &[(8, 9), (21, 22)]),
            (&[(0, 4), (6, 9)], &[(5, 5), (10, 12)]),
            (&[], &[(5, 7)]),
            (&[(0, 100)], &[]),
            (&[(3, 5)], &[(9, 9)]),
            (&[(5, 10)], &[(3, 12)]),
            (&[(0, 2), (4, 6), (8, 10)], &[(3, 3), (7, 7), (11, 11)]),
        ];
        let h = Horizon::new(40);
        for (fs, gs) in cases {
            let f = set(fs);
            let g = set(gs);
            let chains = until_via_chains(&f, &g);
            assert_eq!(chains, f.until(&g), "f={f} g={g}");
            assert_eq!(chains, until_pointwise(&f, &g, h), "f={f} g={g}");
        }
    }

    #[test]
    fn chain_alternation_produces_single_interval() {
        // The appendix's headline case: alternating f/g intervals chain into
        // one long satisfaction interval.
        let f = set(&[(0, 2), (4, 6), (8, 10)]);
        let g = set(&[(3, 3), (7, 7), (11, 11)]);
        assert_eq!(until_via_chains(&f, &g), set(&[(0, 11)]));
    }

    #[test]
    fn incompatible_f_interval_does_not_extend() {
        // f ends two ticks before g starts: not compatible, g stands alone.
        let f = set(&[(0, 3)]);
        let g = set(&[(6, 7)]);
        assert_eq!(until_via_chains(&f, &g), set(&[(6, 7)]));
    }

    #[test]
    fn overlapping_g_that_outlasts_f_keeps_early_g_states() {
        // Fidelity note 1: g = [3,12] overlaps f = [5,10]; states 3..4
        // satisfy Until via g directly even though the chain interval is
        // [5,12].
        let f = set(&[(5, 10)]);
        let g = set(&[(3, 12)]);
        assert_eq!(until_via_chains(&f, &g), set(&[(3, 12)]));
    }
}
