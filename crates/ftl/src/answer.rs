//! Query answers: the relation `Answer(CQ)` of Section 2.3.
//!
//! "When a continuous query is entered our processing algorithm evaluates
//! the query once, and returns a set of tuples.  Each tuple consists of an
//! instantiation of the predicate's variables and a time interval
//! `begin`–`end`."  An [`Answer`] stores exactly that, grouped per
//! instantiation as a normalized interval set, and knows how to present
//! itself at a clock tick (instantaneous display) or as flat
//! `(instantiation, begin, end)` rows (the paper's representation).

use most_dbms::value::Value;
use most_temporal::{Interval, IntervalSet, Tick};
use std::fmt;

/// One answer row: an instantiation of the query's target variables and the
/// ticks at which it satisfies the formula.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerTuple {
    /// Values of the target variables, in target order.
    pub values: Vec<Value>,
    /// Ticks during which this instantiation is in the answer.
    pub intervals: IntervalSet,
}

/// The materialized answer of an FTL query (`Answer(CQ)` in the paper).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Answer {
    /// Target variable names, in RETRIEVE order.
    pub vars: Vec<String>,
    /// Rows, sorted by instantiation for determinism.
    pub tuples: Vec<AnswerTuple>,
}

impl Answer {
    /// Creates an answer, sorting rows and dropping empty interval sets.
    pub fn new(vars: Vec<String>, mut tuples: Vec<AnswerTuple>) -> Self {
        tuples.retain(|t| !t.intervals.is_empty());
        tuples.sort_by(|a, b| a.values.cmp(&b.values));
        Answer { vars, tuples }
    }

    /// Number of instantiations in the answer.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether no instantiation ever satisfies the query.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The instantiations to display at clock tick `t` — how the system
    /// serves a continuous query from the materialized answer ("the system
    /// presents to the user at each clock-tick `t` the instantiations of the
    /// tuples having an interval that contains `t`").
    pub fn at_tick(&self, t: Tick) -> Vec<&AnswerTuple> {
        self.tuples
            .iter()
            .filter(|tup| tup.intervals.contains(t))
            .collect()
    }

    /// Flattens to the paper's `(instantiation, begin, end)` rows, sorted by
    /// instantiation then interval.
    pub fn rows(&self) -> Vec<(Vec<Value>, Interval)> {
        let mut out = Vec::new();
        for tup in &self.tuples {
            for iv in tup.intervals.intervals() {
                out.push((tup.values.clone(), *iv));
            }
        }
        out
    }

    /// Looks up the interval set of one instantiation.
    pub fn intervals_for(&self, values: &[Value]) -> Option<&IntervalSet> {
        self.tuples
            .iter()
            .find(|t| t.values == values)
            .map(|t| &t.intervals)
    }

    /// The first tick at which an instantiation enters the answer — the
    /// "reaching-time" of Section 2.3's "tuples (motel, reaching-time)
    /// representing the motels that I will reach, and the time when I will
    /// do so".
    pub fn first_satisfaction(&self, values: &[Value]) -> Option<most_temporal::Tick> {
        self.intervals_for(values).and_then(|s| s.first_tick())
    }

    /// All `(instantiation, reaching-time)` pairs, sorted by reaching time
    /// then instantiation.
    pub fn reaching_times(&self) -> Vec<(Vec<Value>, most_temporal::Tick)> {
        let mut out: Vec<(Vec<Value>, most_temporal::Tick)> = self
            .tuples
            .iter()
            .filter_map(|t| t.intervals.first_tick().map(|ft| (t.values.clone(), ft)))
            .collect();
        out.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
        out
    }

    /// Convenience: the single-variable instantiations as ids, for queries
    /// like `RETRIEVE o WHERE ...` over objects.
    pub fn ids(&self) -> Vec<u64> {
        self.tuples
            .iter()
            .filter_map(|t| t.values.first().and_then(|v| v.as_id()))
            .collect()
    }

    /// The row-wise union of two answers over the same target variables:
    /// an instantiation present in both contributes the union of its
    /// interval sets.  Commutative and associative (interval-set union
    /// is), so folding any permutation of parts yields an identical
    /// answer — the algebraic property a scatter-gather combine across
    /// database partitions leans on.
    ///
    /// # Panics
    ///
    /// Panics if the two answers disagree on their target-variable lists;
    /// callers combining untrusted parts must check `vars` first.
    pub fn union_with(&self, other: &Answer) -> Answer {
        assert_eq!(
            self.vars, other.vars,
            "Answer::union_with: answers disagree on target variables"
        );
        // Duplicate instantiations *within* one side union too — answers
        // are sorted but not deduplicated, so a plain collect would keep
        // only the last duplicate's intervals.
        let mut rows: std::collections::BTreeMap<Vec<Value>, IntervalSet> =
            std::collections::BTreeMap::new();
        for tup in self.tuples.iter().chain(&other.tuples) {
            rows.entry(tup.values.clone())
                .and_modify(|s| *s = s.union(&tup.intervals))
                .or_insert_with(|| tup.intervals.clone());
        }
        Answer::new(
            self.vars.clone(),
            rows.into_iter()
                .map(|(values, intervals)| AnswerTuple { values, intervals })
                .collect(),
        )
    }
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.vars.join(", "))?;
        for (values, iv) in self.rows() {
            let vs: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}  @{}", vs.join(", "), iv)?;
        }
        Ok(())
    }
}

most_testkit::json_struct!(AnswerTuple { values, intervals });
most_testkit::json_struct!(Answer { vars, tuples });

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Answer {
        Answer::new(
            vec!["o".into()],
            vec![
                AnswerTuple {
                    values: vec![Value::Id(2)],
                    intervals: IntervalSet::from_intervals([
                        Interval::new(10, 15),
                        Interval::new(20, 25),
                    ]),
                },
                AnswerTuple {
                    values: vec![Value::Id(5)],
                    intervals: IntervalSet::singleton(Interval::new(12, 14)),
                },
                AnswerTuple {
                    values: vec![Value::Id(9)],
                    intervals: IntervalSet::empty(),
                },
            ],
        )
    }

    #[test]
    fn empty_rows_dropped_and_sorted() {
        let a = sample();
        assert_eq!(a.len(), 2);
        assert_eq!(a.ids(), vec![2, 5]);
    }

    #[test]
    fn at_tick_presents_live_instantiations() {
        // The paper's own example: tuples (2,(10,15)) and (5,(12,14)):
        // "the system displays the object with id = 2 between clock ticks 10
        // and 15, and between clock-ticks 12 and 14 it also displays the
        // object with id = 5".
        let a = sample();
        assert_eq!(a.at_tick(11).len(), 1);
        assert_eq!(a.at_tick(13).len(), 2);
        assert_eq!(a.at_tick(16).len(), 0);
        assert_eq!(a.at_tick(22).len(), 1);
        assert!(a.at_tick(0).is_empty());
    }

    #[test]
    fn rows_flatten_interval_sets() {
        let a = sample();
        let rows = a.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].1, Interval::new(10, 15));
        assert_eq!(rows[1].1, Interval::new(20, 25));
    }

    #[test]
    fn lookup_by_instantiation() {
        let a = sample();
        assert!(a.intervals_for(&[Value::Id(5)]).is_some());
        assert!(a.intervals_for(&[Value::Id(9)]).is_none());
    }

    #[test]
    fn reaching_times_sorted_by_entry() {
        let a = sample();
        assert_eq!(a.first_satisfaction(&[Value::Id(2)]), Some(10));
        assert_eq!(a.first_satisfaction(&[Value::Id(5)]), Some(12));
        assert_eq!(a.first_satisfaction(&[Value::Id(9)]), None);
        let rt = a.reaching_times();
        assert_eq!(rt.len(), 2);
        assert_eq!(rt[0], (vec![Value::Id(2)], 10));
        assert_eq!(rt[1], (vec![Value::Id(5)], 12));
    }

    #[test]
    fn display_contains_rows() {
        let s = sample().to_string();
        assert!(s.contains("#2"));
        assert!(s.contains("[12, 14]"));
    }
}
