//! Property-based tests pinning the interval algebra to brute-force
//! per-tick set semantics, and the production `Until` to the appendix's
//! maximal-chain construction.

use most_temporal::chain::until_via_chains;
use most_temporal::{Horizon, Interval, IntervalSet, Tick};
use most_testkit::check::{ints, tuple2, tuple3, tuple4, vecs, Check, Gen};
use std::collections::BTreeSet;

const H_END: Tick = 64;

fn horizon() -> Horizon {
    Horizon::new(H_END)
}

/// Arbitrary interval set within the test horizon, via raw (possibly
/// overlapping / unsorted / adjacent) intervals.
fn arb_set() -> Gen<IntervalSet> {
    vecs(tuple2(ints(0..=H_END), ints(0..=16u64)), 0..8).map(|pairs| {
        IntervalSet::from_intervals(
            pairs
                .into_iter()
                .map(|(a, len)| Interval::new(a, (a + len).min(H_END))),
        )
    })
}

fn ticks_of(s: &IntervalSet) -> BTreeSet<Tick> {
    s.ticks().collect()
}

fn set_of(ticks: &BTreeSet<Tick>) -> IntervalSet {
    IntervalSet::from_predicate(horizon(), |t| ticks.contains(&t))
}

#[test]
fn normalization_invariant_holds() {
    Check::new("temporal::normalization_invariant_holds")
        .run(&arb_set(), |s| assert!(s.is_normalized()));
}

#[test]
fn round_trip_through_ticks() {
    Check::new("temporal::round_trip_through_ticks")
        .run(&arb_set(), |s| assert_eq!(&set_of(&ticks_of(s)), s));
}

#[test]
fn union_matches_set_union() {
    Check::new("temporal::union_matches_set_union").run(
        &tuple2(arb_set(), arb_set()),
        |(a, b)| {
            let expected: BTreeSet<Tick> = ticks_of(a).union(&ticks_of(b)).copied().collect();
            assert_eq!(a.union(b), set_of(&expected));
        },
    );
}

#[test]
fn intersect_matches_set_intersection() {
    Check::new("temporal::intersect_matches_set_intersection").run(
        &tuple2(arb_set(), arb_set()),
        |(a, b)| {
            let expected: BTreeSet<Tick> =
                ticks_of(a).intersection(&ticks_of(b)).copied().collect();
            assert_eq!(a.intersect(b), set_of(&expected));
        },
    );
}

#[test]
fn complement_matches_set_complement() {
    Check::new("temporal::complement_matches_set_complement").run(&arb_set(), |a| {
        let h = horizon();
        let universe: BTreeSet<Tick> = h.ticks().collect();
        let expected: BTreeSet<Tick> = universe.difference(&ticks_of(a)).copied().collect();
        assert_eq!(a.complement(h), set_of(&expected));
    });
}

#[test]
fn difference_matches_set_difference() {
    Check::new("temporal::difference_matches_set_difference").run(
        &tuple2(arb_set(), arb_set()),
        |(a, b)| {
            let expected: BTreeSet<Tick> =
                ticks_of(a).difference(&ticks_of(b)).copied().collect();
            assert_eq!(a.difference(b, horizon()), set_of(&expected));
        },
    );
}

#[test]
fn demorgan_laws() {
    Check::new("temporal::demorgan_laws").run(&tuple2(arb_set(), arb_set()), |(a, b)| {
        let h = horizon();
        let lhs = a.union(b).complement(h);
        let rhs = a.complement(h).intersect(&b.complement(h));
        assert_eq!(lhs, rhs);
    });
}

#[test]
fn contains_matches_linear_scan() {
    Check::new("temporal::contains_matches_linear_scan").run(
        &tuple2(arb_set(), ints(0..=H_END)),
        |(s, t)| {
            assert_eq!(s.contains(*t), ticks_of(s).contains(t));
        },
    );
}

#[test]
fn next_time_matches_pointwise() {
    Check::new("temporal::next_time_matches_pointwise").run(&arb_set(), |s| {
        let h = horizon();
        let expected = IntervalSet::from_predicate(h, |t| t < H_END && s.contains(t + 1));
        assert_eq!(s.next_time(h), expected);
    });
}

#[test]
fn eventually_matches_pointwise() {
    Check::new("temporal::eventually_matches_pointwise").run(&arb_set(), |s| {
        let h = horizon();
        let expected = IntervalSet::from_predicate(h, |t| (t..=H_END).any(|u| s.contains(u)));
        assert_eq!(s.eventually(h), expected);
    });
}

#[test]
fn always_matches_pointwise() {
    Check::new("temporal::always_matches_pointwise").run(&arb_set(), |s| {
        let h = horizon();
        let expected = IntervalSet::from_predicate(h, |t| (t..=H_END).all(|u| s.contains(u)));
        assert_eq!(s.always(h), expected);
    });
}

#[test]
fn until_matches_pointwise() {
    Check::new("temporal::until_matches_pointwise").run(
        &tuple2(arb_set(), arb_set()),
        |(f, g)| {
            let h = horizon();
            let expected = IntervalSet::from_predicate(h, |t| {
                g.ticks().any(|t2| t2 >= t && (t..t2).all(|u| f.contains(u)))
            });
            assert_eq!(f.until(g), expected);
        },
    );
}

#[test]
fn until_agrees_with_appendix_chains() {
    Check::new("temporal::until_agrees_with_appendix_chains").run(
        &tuple2(arb_set(), arb_set()),
        |(f, g)| {
            assert_eq!(f.until(g), until_via_chains(f, g));
        },
    );
}

#[test]
fn eventually_within_matches_pointwise() {
    Check::new("temporal::eventually_within_matches_pointwise").run(
        &tuple2(arb_set(), ints(0..20u64)),
        |(s, c)| {
            let c = *c;
            let h = horizon();
            let expected = IntervalSet::from_predicate(h, |t| {
                (t..=(t + c).min(H_END)).any(|u| s.contains(u))
            });
            assert_eq!(s.eventually_within(c, h), expected);
        },
    );
}

#[test]
fn eventually_after_matches_pointwise() {
    Check::new("temporal::eventually_after_matches_pointwise").run(
        &tuple2(arb_set(), ints(0..20u64)),
        |(s, c)| {
            let c = *c;
            let h = horizon();
            let expected = IntervalSet::from_predicate(h, |t| {
                (t + c..=H_END).any(|u| u >= t + c && s.contains(u))
            });
            assert_eq!(s.eventually_after(c, h), expected);
        },
    );
}

#[test]
fn always_for_matches_pointwise() {
    Check::new("temporal::always_for_matches_pointwise").run(
        &tuple2(arb_set(), ints(0..20u64)),
        |(s, c)| {
            let c = *c;
            let h = horizon();
            let expected = IntervalSet::from_predicate(h, |t| {
                t + c <= H_END && (t..=t + c).all(|u| s.contains(u))
            });
            assert_eq!(s.always_for(c, h), expected);
        },
    );
}

#[test]
fn until_within_matches_pointwise() {
    Check::new("temporal::until_within_matches_pointwise").run(
        &tuple3(arb_set(), arb_set(), ints(0..20u64)),
        |(f, g, c)| {
            let c = *c;
            let h = horizon();
            let expected = IntervalSet::from_predicate(h, |t| {
                g.ticks()
                    .any(|t2| t2 >= t && t2 <= t + c && (t..t2).all(|u| f.contains(u)))
            });
            assert_eq!(f.until_within(c, g), expected);
        },
    );
}

#[test]
fn until_with_full_f_is_eventually() {
    Check::new("temporal::until_with_full_f_is_eventually").run(&arb_set(), |g| {
        // Eventually g  ==  true Until g   (Section 3.3)
        let full = IntervalSet::full(horizon());
        assert_eq!(full.until(g), g.eventually(horizon()));
    });
}

#[test]
fn always_is_not_eventually_not() {
    Check::new("temporal::always_is_not_eventually_not").run(&arb_set(), |s| {
        // Always f == ¬ Eventually ¬ f    (Section 3.3)
        let h = horizon();
        let lhs = s.always(h);
        let rhs = s.complement(h).eventually(h).complement(h);
        assert_eq!(lhs, rhs);
    });
}

/// Each operator that takes a horizon, on a horizon that starts after
/// tick 0, against its per-tick definition over `h.ticks()`.  Operands lie
/// within the horizon, as every atom's set does.
#[test]
fn horizon_operators_with_a_start_match_pointwise() {
    Check::new("temporal::horizon_operators_with_a_start_match_pointwise").run(
        &tuple4(arb_set(), arb_set(), ints(1..=40u64), ints(0..20u64)),
        |(f, g, start, c)| {
            let (start, c) = (*start, *c);
            let h = Horizon::between(start, H_END);
            let (f, g) = (f.clamp(h), g.clamp(h));
            let at = |pred: &dyn Fn(Tick) -> bool| IntervalSet::from_predicate(h, pred);
            let end = H_END;
            assert_eq!(IntervalSet::full(h), at(&|_| true));
            assert_eq!(f.complement(h), at(&|t| !f.contains(t)));
            assert_eq!(f.next_time(h), at(&|t| t < end && f.contains(t + 1)));
            assert_eq!(f.eventually(h), at(&|t| (t..=end).any(|u| f.contains(u))));
            assert_eq!(f.always(h), at(&|t| (t..=end).all(|u| f.contains(u))));
            assert_eq!(
                f.eventually_within(c, h),
                at(&|t| (t..=(t + c).min(end)).any(|u| f.contains(u)))
            );
            assert_eq!(
                f.eventually_after(c, h),
                at(&|t| (t + c..=end).any(|u| f.contains(u)))
            );
            assert_eq!(
                f.always_for(c, h),
                at(&|t| t + c <= end && (t..=t + c).all(|u| f.contains(u)))
            );
            assert_eq!(
                f.until(&g),
                at(&|t| (t..=end).any(|t2| g.contains(t2) && (t..t2).all(|u| f.contains(u))))
            );
            assert_eq!(
                f.until_within(c, &g),
                at(&|t| {
                    (t..=(t + c).min(end))
                        .any(|t2| g.contains(t2) && (t..t2).all(|u| f.contains(u)))
                })
            );
            assert_eq!(f.difference(&g, h), at(&|t| f.contains(t) && !g.contains(t)));
        },
    );
}
