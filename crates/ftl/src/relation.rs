//! The appendix's relations `R_g`: free-variable instantiations paired with
//! normalized interval sets, and the joins that combine them.
//!
//! "For each subformula `g` of `f` our algorithm computes a relation `R_g`
//! ... the first `l` attributes correspond to the `l` variables, and the
//! last attribute denotes a time interval."  A [`VarRelation`] stores one
//! row per instantiation with its whole (normalized, non-consecutive)
//! interval set — equivalent to the appendix's multiple rows per
//! instantiation, with the non-consecutiveness invariant maintained by
//! construction.
//!
//! Join semantics (matching the appendix):
//!
//! * conjunction — inner natural join, intervals intersected;
//! * `Until` — driven from the right operand (`g2`); a matching left row
//!   contributes its interval set, a missing one contributes the empty set
//!   (a `g2`-only state satisfies `Until` outright).  When the left operand
//!   has variables the right lacks, callers (`eval::expand_for_until`)
//!   first expand `g2` over the active domain so those instantiations are
//!   not lost — the appendix's literal join would drop them, the §3.3
//!   semantics keep them;
//! * disjunction / negation (extensions) — require expansion of both sides
//!   to a common variable set over the active object domain, provided by
//!   [`VarRelation::expand`].

use crate::error::{FtlError, FtlResult};
use most_dbms::value::Value;
use most_temporal::{Horizon, IntervalSet};
use std::collections::HashMap;

/// A relation over named variables with an interval-set column.
#[derive(Debug, Clone, PartialEq)]
pub struct VarRelation {
    vars: Vec<String>,
    rows: Vec<(Vec<Value>, IntervalSet)>,
}

impl VarRelation {
    /// Creates a relation; rows with empty interval sets are dropped and
    /// duplicate instantiations are merged by union.
    pub fn new(vars: Vec<String>, rows: Vec<(Vec<Value>, IntervalSet)>) -> Self {
        let mut merged: HashMap<Vec<Value>, IntervalSet> = HashMap::with_capacity(rows.len());
        for (vals, set) in rows {
            debug_assert_eq!(vals.len(), vars.len());
            if set.is_empty() {
                continue;
            }
            merged
                .entry(vals)
                .and_modify(|s| *s = s.union(&set))
                .or_insert(set);
        }
        let mut rows: Vec<_> = merged.into_iter().collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        VarRelation { vars, rows }
    }

    /// The 0-variable relation holding a single (empty) instantiation with
    /// the given interval set.
    pub fn nullary(set: IntervalSet) -> Self {
        VarRelation::new(Vec::new(), vec![(Vec::new(), set)])
    }

    /// Variable names (column order).
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Rows: `(instantiation, interval set)`, sorted by instantiation.
    pub fn rows(&self) -> &[(Vec<Value>, IntervalSet)] {
        &self.rows
    }

    /// Consumes the relation, returning its rows.  Callers that turn the
    /// final projection into an [`Answer`](crate::answer::Answer) take
    /// ownership here instead of cloning every value vector and interval
    /// set out of the evaluation map.
    pub fn into_rows(self) -> Vec<(Vec<Value>, IntervalSet)> {
        self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The interval set of an instantiation, or `None`.
    pub fn get(&self, values: &[Value]) -> Option<&IntervalSet> {
        self.rows
            .binary_search_by(|(v, _)| v.as_slice().cmp(values))
            .ok()
            .map(|i| &self.rows[i].1)
    }

    /// Applies a transform to every interval set (unary temporal
    /// operators).
    pub fn map_sets<F: Fn(&IntervalSet) -> IntervalSet>(&self, f: F) -> VarRelation {
        VarRelation::new(
            self.vars.clone(),
            self.rows.iter().map(|(v, s)| (v.clone(), f(s))).collect(),
        )
    }

    /// Conjunction: natural join, interval sets intersected.
    pub fn and_join(&self, other: &VarRelation) -> VarRelation {
        self.join(other, JoinKind::Inner, |a, b| a.intersect(b))
    }

    /// `Until`: right-driven join; a missing left partner behaves as the
    /// empty set, so right-only states survive.
    pub fn until_join(&self, other: &VarRelation) -> VarRelation {
        self.join(other, JoinKind::RightTotal, |a, b| a.until(b))
    }

    /// `until_within c`: right-driven join with the bounded-until interval
    /// transform.
    pub fn until_within_join(&self, c: u64, other: &VarRelation) -> VarRelation {
        self.join(other, JoinKind::RightTotal, |a, b| a.until_within(c, b))
    }

    /// Disjunction over relations with identical variable sets (callers
    /// expand first when sets differ).
    pub fn or_union(&self, other: &VarRelation) -> FtlResult<VarRelation> {
        if self.vars != other.vars {
            return Err(FtlError::Unsafe(format!(
                "OR operands bind different variables ({:?} vs {:?}); expansion failed",
                self.vars, other.vars
            )));
        }
        let mut rows = self.rows.clone();
        rows.extend(other.rows.iter().cloned());
        Ok(VarRelation::new(self.vars.clone(), rows))
    }

    /// Active-domain negation: for every instantiation of `self.vars` over
    /// `domain_of(var)`, the complement of this relation's set (missing
    /// instantiations complement the empty set, i.e. become the full
    /// horizon).
    pub fn complement<F>(&self, h: Horizon, domain_of: F) -> FtlResult<VarRelation>
    where
        F: Fn(&str) -> FtlResult<Vec<Value>>,
    {
        let domains: Vec<Vec<Value>> = self
            .vars
            .iter()
            .map(|v| domain_of(v))
            .collect::<FtlResult<_>>()?;
        let mut rows = Vec::new();
        let mut inst = Vec::with_capacity(self.vars.len());
        enumerate(&domains, &mut inst, &mut |values| {
            let set = self
                .get(values)
                .map(|s| s.complement(h))
                .unwrap_or_else(|| IntervalSet::full(h));
            rows.push((values.to_vec(), set));
        });
        Ok(VarRelation::new(self.vars.clone(), rows))
    }

    /// Expands the relation to a superset of variables, instantiating the
    /// new ones over their domains (cartesian).
    pub fn expand<F>(&self, new_vars: &[String], domain_of: F) -> FtlResult<VarRelation>
    where
        F: Fn(&str) -> FtlResult<Vec<Value>>,
    {
        let extra: Vec<&String> = new_vars.iter().filter(|v| !self.vars.contains(v)).collect();
        if extra.is_empty() && new_vars.len() == self.vars.len() {
            // Possibly just a reorder.
            if new_vars == self.vars {
                return Ok(self.clone());
            }
        }
        let mut vars = self.vars.clone();
        for v in &extra {
            vars.push((*v).clone());
        }
        let domains: Vec<Vec<Value>> = extra
            .iter()
            .map(|v| domain_of(v))
            .collect::<FtlResult<_>>()?;
        let mut rows = Vec::new();
        for (vals, set) in &self.rows {
            let mut inst = Vec::new();
            enumerate(&domains, &mut inst, &mut |suffix| {
                let mut v = vals.clone();
                v.extend_from_slice(suffix);
                rows.push((v, set.clone()));
            });
        }
        // Reorder columns to match new_vars order if requested order differs.
        let rel = VarRelation::new(vars, rows);
        rel.reorder(new_vars)
    }

    /// Projects/reorders columns to exactly `new_vars` (must be a subset of
    /// the relation's variables; dropped columns union their interval sets
    /// per remaining instantiation).
    pub fn reorder(&self, new_vars: &[String]) -> FtlResult<VarRelation> {
        let indices: Vec<usize> = new_vars
            .iter()
            .map(|v| {
                self.vars.iter().position(|w| w == v).ok_or_else(|| {
                    FtlError::Unsafe(format!("unknown variable `{v}` in projection"))
                })
            })
            .collect::<FtlResult<_>>()?;
        let rows = self
            .rows
            .iter()
            .map(|(vals, set)| {
                (
                    indices.iter().map(|&i| vals[i].clone()).collect(),
                    set.clone(),
                )
            })
            .collect();
        Ok(VarRelation::new(new_vars.to_vec(), rows))
    }

    fn join(
        &self,
        other: &VarRelation,
        kind: JoinKind,
        op: impl Fn(&IntervalSet, &IntervalSet) -> IntervalSet,
    ) -> VarRelation {
        // Output variables: left vars then right-only vars.
        let mut vars = self.vars.clone();
        for v in &other.vars {
            if !vars.contains(v) {
                vars.push(v.clone());
            }
        }
        let common: Vec<String> = self
            .vars
            .iter()
            .filter(|v| other.vars.contains(v))
            .cloned()
            .collect();
        let left_common_idx: Vec<usize> = common
            .iter()
            .map(|v| self.vars.iter().position(|w| w == v).expect("common var"))
            .collect();
        let right_common_idx: Vec<usize> = common
            .iter()
            .map(|v| other.vars.iter().position(|w| w == v).expect("common var"))
            .collect();
        let right_extra_idx: Vec<usize> = other
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| !self.vars.contains(v))
            .map(|(i, _)| i)
            .collect();
        // Whether every left variable also occurs on the right — the
        // condition under which a right row with no left partner can still
        // be emitted (all output columns determined).
        let left_subsumed = self.vars.iter().all(|v| other.vars.contains(v));

        // Index the left side by common-variable key.
        let mut left_index: HashMap<Vec<&Value>, Vec<usize>> = HashMap::new();
        for (i, (vals, _)) in self.rows.iter().enumerate() {
            let key: Vec<&Value> = left_common_idx.iter().map(|&k| &vals[k]).collect();
            left_index.entry(key).or_default().push(i);
        }

        let mut rows: Vec<(Vec<Value>, IntervalSet)> = Vec::new();
        let empty = IntervalSet::empty();
        for (rvals, rset) in &other.rows {
            let key: Vec<&Value> = right_common_idx.iter().map(|&k| &rvals[k]).collect();
            match left_index.get(&key) {
                Some(matches) => {
                    for &li in matches {
                        let (lvals, lset) = &self.rows[li];
                        let set = op(lset, rset);
                        if set.is_empty() {
                            continue;
                        }
                        let mut vals = lvals.clone();
                        for &ri in &right_extra_idx {
                            vals.push(rvals[ri].clone());
                        }
                        rows.push((vals, set));
                    }
                    // A right row additionally stands alone when the left
                    // side's extra variables are absent (left subsumed) —
                    // covered below only when no match exists; with matches,
                    // the g2-only contribution is already inside `op` (the
                    // until transform includes g2's own states).
                }
                None if kind == JoinKind::RightTotal && left_subsumed => {
                    let set = op(&empty, rset);
                    if !set.is_empty() {
                        // Output order: left vars (all present on the right)
                        // then right-only vars.
                        let mut vals: Vec<Value> = Vec::with_capacity(vars.len());
                        for v in &self.vars {
                            let ri = other
                                .vars
                                .iter()
                                .position(|w| w == v)
                                .expect("left subsumed by right");
                            vals.push(rvals[ri].clone());
                        }
                        for &ri in &right_extra_idx {
                            vals.push(rvals[ri].clone());
                        }
                        rows.push((vals, set));
                    }
                }
                None => {}
            }
        }
        VarRelation::new(vars, rows)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinKind {
    /// Rows require partners on both sides.
    Inner,
    /// Every right row contributes; a missing left partner acts as the
    /// empty interval set (when the left variables are subsumed).
    RightTotal,
}

fn enumerate(domains: &[Vec<Value>], inst: &mut Vec<Value>, f: &mut impl FnMut(&[Value])) {
    if inst.len() == domains.len() {
        f(inst);
        return;
    }
    let depth = inst.len();
    for v in &domains[depth] {
        inst.push(v.clone());
        enumerate(domains, inst, f);
        inst.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use most_temporal::Interval;

    fn set(ivs: &[(u64, u64)]) -> IntervalSet {
        IntervalSet::from_intervals(ivs.iter().map(|&(a, b)| Interval::new(a, b)))
    }

    #[allow(clippy::type_complexity)]
    fn rel(vars: &[&str], rows: &[(&[u64], &[(u64, u64)])]) -> VarRelation {
        VarRelation::new(
            vars.iter().map(|s| s.to_string()).collect(),
            rows.iter()
                .map(|(ids, ivs)| (ids.iter().map(|&i| Value::Id(i)).collect(), set(ivs)))
                .collect(),
        )
    }

    #[test]
    fn construction_merges_duplicates_and_drops_empty() {
        let r = VarRelation::new(
            vec!["o".into()],
            vec![
                (vec![Value::Id(1)], set(&[(0, 2)])),
                (vec![Value::Id(1)], set(&[(3, 5)])),
                (vec![Value::Id(2)], IntervalSet::empty()),
            ],
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(&[Value::Id(1)]), Some(&set(&[(0, 5)])));
        assert_eq!(r.get(&[Value::Id(2)]), None);
    }

    #[test]
    fn and_join_intersects_on_common_vars() {
        let a = rel(&["o"], &[(&[1], &[(0, 10)]), (&[2], &[(5, 8)])]);
        let b = rel(&["o"], &[(&[1], &[(5, 20)]), (&[3], &[(0, 1)])]);
        let j = a.and_join(&b);
        assert_eq!(j.len(), 1);
        assert_eq!(j.get(&[Value::Id(1)]), Some(&set(&[(5, 10)])));
    }

    #[test]
    fn and_join_cross_product_when_disjoint_vars() {
        let a = rel(&["o"], &[(&[1], &[(0, 10)])]);
        let b = rel(&["n"], &[(&[7], &[(5, 20)]), (&[8], &[(11, 12)])]);
        let j = a.and_join(&b);
        assert_eq!(j.vars(), &["o".to_string(), "n".to_string()]);
        assert_eq!(j.len(), 1); // (1,8) intersects empty
        assert_eq!(j.get(&[Value::Id(1), Value::Id(7)]), Some(&set(&[(5, 10)])));
    }

    #[test]
    fn until_join_keeps_right_only_states() {
        // g2 holds for object 3 which never satisfies g1: Until still holds
        // on g2's intervals.
        let f = rel(&["o"], &[(&[1], &[(0, 4)])]);
        let g = rel(&["o"], &[(&[1], &[(5, 6)]), (&[3], &[(2, 3)])]);
        let j = f.until_join(&g);
        assert_eq!(j.get(&[Value::Id(1)]), Some(&set(&[(0, 6)])));
        assert_eq!(j.get(&[Value::Id(3)]), Some(&set(&[(2, 3)])));
    }

    #[test]
    fn until_join_inner_when_left_has_extra_vars() {
        // At the *relation* level, right rows lacking a left partner cannot
        // bind o and are dropped; the evaluator restores completeness by
        // expanding g over the domain first (eval::expand_for_until).
        let f = rel(&["o", "n"], &[(&[1, 7], &[(0, 4)])]);
        let g = rel(&["n"], &[(&[7], &[(5, 6)]), (&[9], &[(0, 1)])]);
        let j = f.until_join(&g);
        assert_eq!(j.len(), 1);
        assert_eq!(j.get(&[Value::Id(1), Value::Id(7)]), Some(&set(&[(0, 6)])));
    }

    #[test]
    fn nullary_relations_cross_cleanly() {
        let t = VarRelation::nullary(set(&[(0, 100)]));
        let g = rel(&["o"], &[(&[4], &[(3, 9)])]);
        let j = t.and_join(&g);
        assert_eq!(j.get(&[Value::Id(4)]), Some(&set(&[(3, 9)])));
        // false Until g == g
        let f = VarRelation::nullary(IntervalSet::empty());
        let j = f.until_join(&g);
        assert_eq!(j.get(&[Value::Id(4)]), Some(&set(&[(3, 9)])));
    }

    #[test]
    fn or_union_requires_matching_vars() {
        let a = rel(&["o"], &[(&[1], &[(0, 2)])]);
        let b = rel(&["o"], &[(&[1], &[(4, 5)]), (&[2], &[(0, 0)])]);
        let u = a.or_union(&b).unwrap();
        assert_eq!(u.get(&[Value::Id(1)]), Some(&set(&[(0, 2), (4, 5)])));
        assert_eq!(u.len(), 2);
        let c = rel(&["n"], &[(&[1], &[(0, 2)])]);
        assert!(a.or_union(&c).is_err());
    }

    #[test]
    fn complement_over_domain() {
        let h = Horizon::new(10);
        let a = rel(&["o"], &[(&[1], &[(0, 4)])]);
        let domain = |_: &str| Ok(vec![Value::Id(1), Value::Id(2)]);
        let c = a.complement(h, domain).unwrap();
        assert_eq!(c.get(&[Value::Id(1)]), Some(&set(&[(5, 10)])));
        assert_eq!(c.get(&[Value::Id(2)]), Some(&set(&[(0, 10)])));
    }

    #[test]
    fn expand_adds_domain_vars() {
        let a = rel(&["o"], &[(&[1], &[(0, 4)])]);
        let domain = |_: &str| Ok(vec![Value::Id(7), Value::Id(8)]);
        let e = a
            .expand(&["o".to_string(), "n".to_string()], domain)
            .unwrap();
        assert_eq!(e.len(), 2);
        assert_eq!(e.get(&[Value::Id(1), Value::Id(7)]), Some(&set(&[(0, 4)])));
    }

    #[test]
    fn reorder_projects_and_merges() {
        let a = rel(&["o", "n"], &[(&[1, 7], &[(0, 2)]), (&[1, 8], &[(4, 6)])]);
        let p = a.reorder(&["o".to_string()]).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.get(&[Value::Id(1)]), Some(&set(&[(0, 2), (4, 6)])));
        assert!(a.reorder(&["zzz".to_string()]).is_err());
    }

    #[test]
    fn map_sets_applies_transform() {
        let a = rel(&["o"], &[(&[1], &[(3, 5)])]);
        let m = a.map_sets(|s| s.eventually(Horizon::new(10)));
        assert_eq!(m.get(&[Value::Id(1)]), Some(&set(&[(0, 5)])));
    }
}
