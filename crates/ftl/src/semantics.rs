//! The reference evaluator: a direct transcription of Section 3.3's
//! satisfaction relation, evaluated state by state.
//!
//! This module serves three purposes:
//!
//! 1. **Specification** — [`satisfies`] is written to mirror the prose
//!    semantics, one clause per case, so the interval algorithm in
//!    [`crate::eval`] can be property-tested against it.
//! 2. **Baseline** — it is the "evaluate the query at every point in time"
//!    strategy that Section 6 says an object-oriented system with black-box
//!    methods is forced into; benchmark E4 measures the interval algorithm
//!    against [`naive_answer`].
//! 3. **Exact per-tick truth** — the numeric analysis uses [`eval_term`] /
//!    [`eval_atom`] to verify interval boundaries.

use crate::ast::{CmpOp, Formula, Query, Term};
use crate::context::{EvalContext, StoredAttr};
use crate::error::{FtlError, FtlResult};
use most_dbms::value::Value;
use most_spatial::predicates::min_enclosing_circle;
use most_spatial::Point;
use most_temporal::{IntervalSet, Tick};

/// A variable evaluation ρ: "a mapping that associates a value with each
/// variable".  A formula binds a handful of variables, so the mapping is a
/// short list searched by name: rebinding one per candidate object hashes
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct Env {
    bindings: Vec<(String, Value)>,
}

impl Env {
    /// Empty evaluation.
    pub fn new() -> Self {
        Env::default()
    }

    fn slot(&mut self, var: &str) -> Option<&mut Value> {
        self.bindings
            .iter_mut()
            .find(|(name, _)| name == var)
            .map(|(_, v)| v)
    }

    /// Binds `var` to `value`, returning the previous binding.
    pub fn bind(&mut self, var: impl Into<String>, value: Value) -> Option<Value> {
        let var = var.into();
        match self.slot(&var) {
            Some(slot) => Some(std::mem::replace(slot, value)),
            None => {
                self.bindings.push((var, value));
                None
            }
        }
    }

    /// Rebinds `var` in place, reusing the existing name allocation when the
    /// variable is already bound.  The atom evaluator rebinds the same
    /// handful of variables once per candidate object, so avoiding a fresh
    /// `String` per binding removes the dominant allocation of the
    /// enumeration loop.
    pub fn set(&mut self, var: &str, value: Value) {
        match self.slot(var) {
            Some(slot) => *slot = value,
            None => self.bindings.push((var.to_owned(), value)),
        }
    }

    /// Restores `var` to `previous` (or unbinds when `None`).
    pub fn restore(&mut self, var: &str, previous: Option<Value>) {
        match previous {
            Some(v) => self.set(var, v),
            None => self.bindings.retain(|(name, _)| name != var),
        }
    }

    /// Looks up a binding.
    pub fn get(&self, var: &str) -> Option<&Value> {
        self.bindings
            .iter()
            .find(|(name, _)| name == var)
            .map(|(_, v)| v)
    }
}

/// Evaluates a term in state `t` (a global tick; `time` is `t` itself)
/// under evaluation `env`.
///
/// Undefined values (missing attribute, missing object) evaluate to
/// [`Value::Null`]; comparisons involving `Null` are unsatisfied, matching
/// the convention that a predicate over undefined data simply does not
/// hold.
pub fn eval_term(ctx: &dyn EvalContext, env: &Env, term: &Term, t: Tick) -> FtlResult<Value> {
    match term {
        Term::Const(v) => Ok(v.clone()),
        Term::Time => Ok(Value::Time(t)),
        Term::Var(name) => env
            .get(name)
            .cloned()
            .ok_or_else(|| FtlError::Unsafe(format!("unbound variable `{name}`"))),
        Term::Point(..) => Err(FtlError::Type(
            "a POINT literal has no scalar value; use it inside DIST or INSIDE".into(),
        )),
        Term::Attr(base, attr) => {
            let id = match eval_term(ctx, env, base, t)? {
                Value::Id(id) => id,
                Value::Null => return Ok(Value::Null),
                other => {
                    return Err(FtlError::Type(format!(
                        "attribute `.{attr}` applied to non-object value {other}"
                    )))
                }
            };
            eval_attr(ctx, id, attr, t)
        }
        Term::Dist(a, b) => {
            match (
                resolve_point(ctx, env, a, t)?,
                resolve_point(ctx, env, b, t)?,
            ) {
                (Some(pa), Some(pb)) => Ok(Value::from(pa.dist(pb))),
                _ => Ok(Value::Null),
            }
        }
        Term::Arith(op, a, b) => {
            let av = eval_term(ctx, env, a, t)?;
            let bv = eval_term(ctx, env, b, t)?;
            match (av.as_f64(), bv.as_f64()) {
                (Some(x), Some(y)) => {
                    use crate::ast::ArithOp::*;
                    let r = match op {
                        Add => x + y,
                        Sub => x - y,
                        Mul => x * y,
                        Div => x / y,
                    };
                    Ok(Value::from(r))
                }
                _ if av == Value::Null || bv == Value::Null => Ok(Value::Null),
                _ => Err(FtlError::Type(format!(
                    "arithmetic on non-numeric values {av} and {bv}"
                ))),
            }
        }
    }
}

/// Evaluates the attribute `id.attr` at tick `t`.  The names `X`, `Y`,
/// `VX`, `VY` and `SPEED` read the moving-object position / motion vector;
/// other names read the attribute series.
pub fn eval_attr(ctx: &dyn EvalContext, id: u64, attr: &str, t: Tick) -> FtlResult<Value> {
    match attr {
        "X" | "Y" | "VX" | "VY" | "SPEED" => {
            let Some(traj) = ctx.trajectory(id) else {
                return Ok(Value::Null);
            };
            let v = match attr {
                "X" => traj.position_at_tick(t).x,
                "Y" => traj.position_at_tick(t).y,
                "VX" => traj.velocity_at_tick(t).dx,
                "VY" => traj.velocity_at_tick(t).dy,
                _ => traj.velocity_at_tick(t).speed(),
            };
            Ok(Value::from(v))
        }
        _ => Ok(match ctx.attr(id, attr) {
            StoredAttr::Missing => None,
            StoredAttr::Static(series) => series
                .iter()
                .find(|(_, iv)| iv.contains(t))
                .map(|(v, _)| v.clone()),
            StoredAttr::Dynamic(pieces) => {
                pieces
                    .iter()
                    .find(|(iv, ..)| iv.contains(t))
                    .map(|(_, u, [a, b, c])| {
                        let d = t as f64 - *u as f64;
                        Value::from((a * d + b) * d + c)
                    })
            }
        }
        .unwrap_or(Value::Null)),
    }
}

/// Resolves a term to a point in space at tick `t` (object position or
/// POINT literal); `None` when undefined.
pub fn resolve_point(
    ctx: &dyn EvalContext,
    env: &Env,
    term: &Term,
    t: Tick,
) -> FtlResult<Option<Point>> {
    match term {
        Term::Point(x, y) => Ok(Some(Point::new(*x, *y))),
        _ => match eval_term(ctx, env, term, t)? {
            Value::Id(id) => Ok(ctx.trajectory(id).map(|traj| traj.position_at_tick(t))),
            Value::Null => Ok(None),
            other => Err(FtlError::Type(format!(
                "expected a point-valued term, got {other}"
            ))),
        },
    }
}

/// Comparison with the Null-is-undefined convention.
pub(crate) fn cmp_defined(op: CmpOp, a: &Value, b: &Value) -> bool {
    if *a == Value::Null || *b == Value::Null {
        return false;
    }
    op.apply(a, b)
}

/// Evaluates an atomic formula at state `t` (shared with the numeric
/// analysis for boundary verification).
pub fn eval_atom(ctx: &dyn EvalContext, env: &Env, f: &Formula, t: Tick) -> FtlResult<bool> {
    match f {
        Formula::Bool(b) => Ok(*b),
        Formula::Cmp(op, a, b) => Ok(cmp_defined(
            *op,
            &eval_term(ctx, env, a, t)?,
            &eval_term(ctx, env, b, t)?,
        )),
        Formula::Inside(term, region) => {
            let poly = ctx
                .region(region)
                .ok_or_else(|| FtlError::UnknownRegion(region.clone()))?;
            Ok(resolve_point(ctx, env, term, t)?.is_some_and(|p| poly.contains(p)))
        }
        Formula::Outside(term, region) => {
            let poly = ctx
                .region(region)
                .ok_or_else(|| FtlError::UnknownRegion(region.clone()))?;
            Ok(resolve_point(ctx, env, term, t)?.is_some_and(|p| !poly.contains(p)))
        }
        Formula::InsideMoving(term, region, anchor)
        | Formula::OutsideMoving(term, region, anchor) => {
            let poly = ctx
                .region(region)
                .ok_or_else(|| FtlError::UnknownRegion(region.clone()))?;
            // The region rides with the anchor: at state t it is translated
            // by the anchor's displacement since evaluation time.
            let inside = match (
                resolve_point(ctx, env, term, t)?,
                resolve_point(ctx, env, anchor, t)?,
                resolve_point(ctx, env, anchor, ctx.horizon().start())?,
            ) {
                (Some(p), Some(a_now), Some(a_start)) => {
                    let offset = a_now.delta(a_start);
                    poly.translated(offset).contains(p)
                }
                _ => return Ok(false),
            };
            Ok(match f {
                Formula::InsideMoving(..) => inside,
                _ => !inside,
            })
        }
        Formula::WithinSphere(r, terms) => {
            let mut pts = Vec::with_capacity(terms.len());
            for term in terms {
                match resolve_point(ctx, env, term, t)? {
                    Some(p) => pts.push(p),
                    None => return Ok(false),
                }
            }
            if pts.is_empty() {
                return Ok(true);
            }
            Ok(min_enclosing_circle(&pts).radius <= *r + 1e-9)
        }
        other => Err(FtlError::Type(format!(
            "eval_atom called on a non-atomic formula: {other}"
        ))),
    }
}

/// The Section 3.3 satisfaction relation: does `f` hold at state `t` of the
/// (implicit, horizon-truncated) history, under evaluation `env`?
pub fn satisfies(ctx: &dyn EvalContext, f: &Formula, env: &mut Env, t: Tick) -> FtlResult<bool> {
    let h_end = ctx.horizon().end();
    match f {
        Formula::Bool(_)
        | Formula::Cmp(..)
        | Formula::Inside(..)
        | Formula::Outside(..)
        | Formula::InsideMoving(..)
        | Formula::OutsideMoving(..)
        | Formula::WithinSphere(..) => eval_atom(ctx, env, f, t),
        Formula::And(a, b) => Ok(satisfies(ctx, a, env, t)? && satisfies(ctx, b, env, t)?),
        Formula::Or(a, b) => Ok(satisfies(ctx, a, env, t)? || satisfies(ctx, b, env, t)?),
        Formula::Not(a) => Ok(!satisfies(ctx, a, env, t)?),
        Formula::Nexttime(a) => {
            if t + 1 > h_end {
                Ok(false)
            } else {
                satisfies(ctx, a, env, t + 1)
            }
        }
        Formula::Until(a, b) => {
            // "either g is satisfied at that state, or there exists a future
            // state where g is satisfied and until then f continues to be
            // satisfied."
            for t2 in t..=h_end {
                if satisfies(ctx, b, env, t2)? {
                    return Ok(true);
                }
                if !satisfies(ctx, a, env, t2)? {
                    return Ok(false);
                }
            }
            Ok(false)
        }
        Formula::UntilWithin(c, a, b) => {
            for t2 in t..=(t + c).min(h_end) {
                if satisfies(ctx, b, env, t2)? {
                    return Ok(true);
                }
                if !satisfies(ctx, a, env, t2)? {
                    return Ok(false);
                }
            }
            Ok(false)
        }
        Formula::Eventually(a) => {
            for t2 in t..=h_end {
                if satisfies(ctx, a, env, t2)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Always(a) => {
            for t2 in t..=h_end {
                if !satisfies(ctx, a, env, t2)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::EventuallyWithin(c, a) => {
            for t2 in t..=(t + c).min(h_end) {
                if satisfies(ctx, a, env, t2)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::EventuallyAfter(c, a) => {
            if t + c > h_end {
                return Ok(false);
            }
            for t2 in (t + c)..=h_end {
                if satisfies(ctx, a, env, t2)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::AlwaysFor(c, a) => {
            if t + c > h_end {
                return Ok(false);
            }
            for t2 in t..=(t + c) {
                if !satisfies(ctx, a, env, t2)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Assign(x, term, body) => {
            let v = eval_term(ctx, env, term, t)?;
            let prev = env.bind(x.clone(), v);
            let r = satisfies(ctx, body, env, t);
            env.restore(x, prev);
            r
        }
    }
}

/// Evaluates a query by brute force: every instantiation of the target
/// variables over the object domain, every tick of the horizon.
///
/// This is the E4 baseline ("evaluate the query at every point in time")
/// and the oracle the interval algorithm is tested against.  All free
/// variables of the formula must be object variables and must appear in the
/// target list.
pub fn naive_answer(ctx: &dyn EvalContext, q: &Query) -> FtlResult<crate::answer::Answer> {
    let free = q.formula.free_vars();
    for v in &free {
        if !q.targets.contains(v) {
            return Err(FtlError::Unsafe(format!(
                "free variable `{v}` missing from the RETRIEVE list"
            )));
        }
    }
    let ids = ctx.object_ids();
    let h = ctx.horizon();
    let mut tuples = Vec::new();
    let mut inst: Vec<Value> = Vec::with_capacity(q.targets.len());
    fn rec(
        ctx: &dyn EvalContext,
        q: &Query,
        ids: &[u64],
        h: most_temporal::Horizon,
        inst: &mut Vec<Value>,
        tuples: &mut Vec<crate::answer::AnswerTuple>,
    ) -> FtlResult<()> {
        if inst.len() == q.targets.len() {
            let mut env = Env::new();
            for (name, v) in q.targets.iter().zip(inst.iter()) {
                env.bind(name.clone(), v.clone());
            }
            let mut sat = Vec::new();
            for t in h.ticks() {
                sat.push(satisfies(ctx, &q.formula, &mut env, t)?);
            }
            let set = IntervalSet::from_predicate(h, |t| sat[(t - h.start()) as usize]);
            if !set.is_empty() {
                tuples.push(crate::answer::AnswerTuple {
                    values: inst.clone(),
                    intervals: set,
                });
            }
            return Ok(());
        }
        for &id in ids {
            inst.push(Value::Id(id));
            rec(ctx, q, ids, h, inst, tuples)?;
            inst.pop();
        }
        Ok(())
    }
    rec(ctx, q, &ids, h, &mut inst, &mut tuples)?;
    Ok(crate::answer::Answer::new(q.targets.clone(), tuples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::MemoryContext;
    use most_spatial::{Polygon, Trajectory, Velocity};

    fn ctx() -> MemoryContext {
        let mut c = MemoryContext::new(100);
        c.add_object(
            1,
            Trajectory::starting_at(Point::new(0.0, 0.0), Velocity::new(1.0, 0.0)),
        );
        c.add_object(
            2,
            Trajectory::starting_at(Point::new(50.0, 0.0), Velocity::zero()),
        );
        c.set_attr(1, "PRICE", 80.0);
        c.set_attr(2, "PRICE", 120.0);
        c.add_region("P", Polygon::rectangle(40.0, -10.0, 60.0, 10.0));
        c
    }

    fn env_for(id: u64) -> Env {
        let mut e = Env::new();
        e.bind("o", Value::Id(id));
        e
    }

    #[test]
    fn term_evaluation() {
        let c = ctx();
        let env = env_for(1);
        assert_eq!(
            eval_term(&c, &env, &Term::attr(Term::var("o"), "X"), 5).unwrap(),
            Value::from(5.0)
        );
        assert_eq!(
            eval_term(&c, &env, &Term::attr(Term::var("o"), "SPEED"), 5).unwrap(),
            Value::from(1.0)
        );
        assert_eq!(
            eval_term(&c, &env, &Term::attr(Term::var("o"), "PRICE"), 5).unwrap(),
            Value::from(80.0)
        );
        assert_eq!(
            eval_term(&c, &env, &Term::attr(Term::var("o"), "MISSING"), 5).unwrap(),
            Value::Null
        );
        assert_eq!(eval_term(&c, &env, &Term::Time, 7).unwrap(), Value::Time(7));
        // DIST between the two objects at t=0 is 50.
        let mut env2 = env_for(1);
        env2.bind("n", Value::Id(2));
        let d = Term::Dist(Box::new(Term::var("o")), Box::new(Term::var("n")));
        assert_eq!(eval_term(&c, &env2, &d, 0).unwrap(), Value::from(50.0));
        assert_eq!(eval_term(&c, &env2, &d, 10).unwrap(), Value::from(40.0));
    }

    #[test]
    fn unbound_variable_is_unsafe() {
        let c = ctx();
        let env = Env::new();
        assert!(matches!(
            eval_term(&c, &env, &Term::var("zzz"), 0),
            Err(FtlError::Unsafe(_))
        ));
    }

    #[test]
    fn null_comparisons_unsatisfied() {
        let c = ctx();
        let mut env = env_for(1);
        // MISSING = MISSING would be Null = Null: still unsatisfied.
        let f = Formula::Cmp(
            CmpOp::Eq,
            Term::attr(Term::var("o"), "MISSING"),
            Term::attr(Term::var("o"), "MISSING"),
        );
        assert!(!satisfies(&c, &f, &mut env, 0).unwrap());
    }

    #[test]
    fn inside_outside_at_states() {
        let c = ctx();
        let mut env = env_for(1);
        let inside = Formula::Inside(Term::var("o"), "P".into());
        let outside = Formula::Outside(Term::var("o"), "P".into());
        assert!(!satisfies(&c, &inside, &mut env, 0).unwrap());
        assert!(satisfies(&c, &inside, &mut env, 50).unwrap());
        assert!(satisfies(&c, &outside, &mut env, 0).unwrap());
        assert!(!satisfies(&c, &outside, &mut env, 50).unwrap());
        // Unknown region errors.
        let bad = Formula::Inside(Term::var("o"), "NOPE".into());
        assert!(matches!(
            satisfies(&c, &bad, &mut env, 0),
            Err(FtlError::UnknownRegion(_))
        ));
    }

    #[test]
    fn temporal_operators_on_states() {
        let c = ctx();
        let mut env = env_for(1);
        let inside = Formula::Inside(Term::var("o"), "P".into());
        // Object 1 is inside P during ticks 40..=60.
        let ev = Formula::Eventually(Box::new(inside.clone()));
        assert!(satisfies(&c, &ev, &mut env, 0).unwrap());
        assert!(satisfies(&c, &ev, &mut env, 60).unwrap());
        assert!(!satisfies(&c, &ev, &mut env, 61).unwrap());
        let evw = Formula::EventuallyWithin(10, Box::new(inside.clone()));
        assert!(satisfies(&c, &evw, &mut env, 30).unwrap());
        assert!(!satisfies(&c, &evw, &mut env, 29).unwrap());
        let eva = Formula::EventuallyAfter(15, Box::new(inside.clone()));
        assert!(satisfies(&c, &eva, &mut env, 40).unwrap()); // 40+15 <= 60
        assert!(!satisfies(&c, &eva, &mut env, 46).unwrap());
        let af = Formula::AlwaysFor(5, Box::new(inside.clone()));
        assert!(satisfies(&c, &af, &mut env, 40).unwrap());
        assert!(satisfies(&c, &af, &mut env, 55).unwrap());
        assert!(!satisfies(&c, &af, &mut env, 56).unwrap());
        let nx = Formula::Nexttime(Box::new(inside.clone()));
        assert!(satisfies(&c, &nx, &mut env, 39).unwrap());
        assert!(!satisfies(&c, &nx, &mut env, 60).unwrap());
    }

    #[test]
    fn until_scan_semantics() {
        let c = ctx();
        let mut env = env_for(1);
        // OUTSIDE(o,P) Until INSIDE(o,P): holds from 0 (outside until entering).
        let f = Formula::Outside(Term::var("o"), "P".into())
            .until(Formula::Inside(Term::var("o"), "P".into()));
        assert!(satisfies(&c, &f, &mut env, 0).unwrap());
        assert!(satisfies(&c, &f, &mut env, 60).unwrap()); // inside now
        assert!(!satisfies(&c, &f, &mut env, 61).unwrap()); // outside forever after
    }

    #[test]
    fn assignment_binds_current_value() {
        let c = ctx();
        let mut env = env_for(1);
        // [x <- o.X] Nexttime (o.X = x + 1): x advances by 1 per tick.
        let f = Formula::Assign(
            "x".into(),
            Term::attr(Term::var("o"), "X"),
            Box::new(Formula::Nexttime(Box::new(Formula::Cmp(
                CmpOp::Eq,
                Term::attr(Term::var("o"), "X"),
                Term::Arith(
                    crate::ast::ArithOp::Add,
                    Box::new(Term::var("x")),
                    Box::new(Term::Const(Value::Int(1))),
                ),
            )))),
        );
        assert!(satisfies(&c, &f, &mut env, 10).unwrap());
    }

    #[test]
    fn naive_answer_enumerates_objects() {
        let c = ctx();
        let q = Query::parse("RETRIEVE o WHERE Eventually INSIDE(o, P)").unwrap();
        let a = naive_answer(&c, &q).unwrap();
        // Object 1 passes through P; object 2 sits inside P (x=50).
        assert_eq!(a.ids(), vec![1, 2]);
        // Object 1's satisfaction: Eventually holds from 0 through 60.
        assert_eq!(
            a.intervals_for(&[Value::Id(1)]).unwrap().last_tick(),
            Some(60)
        );
    }

    #[test]
    fn naive_answer_rejects_unlisted_free_vars() {
        let c = ctx();
        let q = Query {
            targets: vec!["o".into()],
            formula: Formula::Cmp(
                CmpOp::Le,
                Term::Dist(Box::new(Term::var("o")), Box::new(Term::var("n"))),
                Term::val(5.0),
            ),
        };
        assert!(matches!(naive_answer(&c, &q), Err(FtlError::Unsafe(_))));
    }

    #[test]
    fn env_bind_returns_the_previous_value() {
        let mut env = Env::new();
        assert_eq!(env.bind("o", Value::Id(1)), None);
        assert_eq!(env.bind("n", Value::Id(2)), None);
        assert_eq!(env.bind("o", Value::Id(3)), Some(Value::Id(1)));
        assert_eq!(env.get("o"), Some(&Value::Id(3)));
        assert_eq!(env.get("n"), Some(&Value::Id(2)));
        assert_eq!(env.get("x"), None);
        env.set("n", Value::Id(4));
        env.set("x", Value::from(1.5));
        assert_eq!(env.get("n"), Some(&Value::Id(4)));
        assert_eq!(env.get("x"), Some(&Value::from(1.5)));
    }

    #[test]
    fn env_restore_brings_back_or_unbinds() {
        let mut env = Env::new();
        env.bind("o", Value::Id(1));
        // Shadow, then restore the shadowed binding.
        let previous = env.bind("o", Value::Id(2));
        env.restore("o", previous);
        assert_eq!(env.get("o"), Some(&Value::Id(1)));
        // A fresh binding restored to `None` is gone; others stay.
        let previous = env.bind("n", Value::Id(5));
        env.restore("n", previous);
        assert_eq!(env.get("n"), None);
        assert_eq!(env.get("o"), Some(&Value::Id(1)));
        env.restore("o", None);
        assert_eq!(env.get("o"), None);
    }

    #[test]
    fn two_variable_assignment_matches_the_oracle() {
        let mut c = ctx();
        c.add_object(
            3,
            Trajectory::starting_at(Point::new(30.0, 0.0), Velocity::new(-2.0, 0.0)),
        );
        let q =
            Query::parse("RETRIEVE o, n WHERE [x <- o.SPEED] Eventually DIST(o, n) <= x").unwrap();
        let fast = crate::evaluate_query(&c, &q).unwrap();
        assert_eq!(fast, naive_answer(&c, &q).unwrap());
        // Object 1 (speed 1) and object 3 pass each other at tick 10.
        assert!(fast
            .tuples
            .iter()
            .any(|t| t.values == [Value::Id(1), Value::Id(3)]));
    }
}
