//! The appendix algorithm: bottom-up interval-relation evaluation.
//!
//! "The algorithm computes `R_g`, inductively, for each subformula `g` in
//! increasing lengths of the subformula.  After the termination of the
//! algorithm, we will have the relation `R_f` corresponding to the original
//! formula `f`."
//!
//! * atomic predicates — the "routines" (spatial predicate solvers from
//!   `most-spatial`, comparison solving from [`crate::numeric`]) produce one
//!   row per relevant instantiation of the atom's object variables;
//! * `g1 ∧ g2` — interval-intersection join;
//! * `g1 Until g2` — the maximal-chain join (via
//!   [`most_temporal::IntervalSet::until`], property-tested against the
//!   appendix's chain construction);
//! * `[x ← q] g1` — the relation `Q` of the atomic query (here:
//!   [`crate::numeric::value_series`], finite because assignable terms are
//!   piecewise-constant), joined with `g1`'s relation by pinning `x` to each
//!   value of `Q` and intersecting validity intervals;
//! * the remaining temporal operators are per-row interval-set transforms;
//! * `∨` / `¬` (extensions) evaluate under active-domain semantics.

use crate::answer::{Answer, AnswerTuple};
use crate::ast::{CmpOp, Formula, Query, Term};
use crate::context::EvalContext;
use crate::error::{FtlError, FtlResult};
use crate::numeric::{compare_terms, is_motion_attr, value_series};
use crate::relation::VarRelation;
use crate::semantics::Env;
use most_dbms::value::Value;
use most_spatial::predicates::{inside_polygon, piecewise, within_sphere};
use most_spatial::{MovingPoint, Point, Trajectory};
use most_temporal::{Interval, IntervalSet, Tick};
use std::collections::BTreeSet;

/// Evaluates a query with the appendix algorithm, producing the
/// materialized `Answer(CQ)` that serves both instantaneous and continuous
/// queries.
pub fn evaluate_query(ctx: &dyn EvalContext, q: &Query) -> FtlResult<Answer> {
    let mut obj_vars = syntactic_object_vars(&q.formula);
    for t in &q.targets {
        obj_vars.insert(t.clone());
    }
    let rel = eval_formula(ctx, &q.formula, &obj_vars)?;
    // Expand over the domain for targets the formula does not constrain,
    // project away (existentially) unretrieved variables, and order columns
    // by the target list.
    let domain = |_: &str| {
        Ok(ctx
            .object_ids()
            .into_iter()
            .map(Value::Id)
            .collect::<Vec<_>>())
    };
    let projected = rel.expand(&q.targets, domain)?;
    let tuples = projected
        .into_rows()
        .into_iter()
        .map(|(values, intervals)| AnswerTuple { values, intervals })
        .collect();
    Ok(Answer::new(q.targets.clone(), tuples))
}

/// Evaluates a bare formula to its relation `R_f`.  `extra_object_vars`
/// names variables that must be treated as ranging over objects even if
/// they never occur in an object position inside `f`.
pub fn evaluate_formula(
    ctx: &dyn EvalContext,
    f: &Formula,
    extra_object_vars: &[String],
) -> FtlResult<VarRelation> {
    let mut obj_vars = syntactic_object_vars(f);
    for v in extra_object_vars {
        obj_vars.insert(v.clone());
    }
    eval_formula(ctx, f, &obj_vars)
}

/// Variables appearing in an object position anywhere in the formula:
/// attribute bases, `DIST` arguments, `INSIDE`/`OUTSIDE`/`WITHIN_SPHERE`
/// point terms.
pub fn syntactic_object_vars(f: &Formula) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    collect_object_vars(f, &mut out);
    out
}

fn collect_term_object_vars(t: &Term, out: &mut BTreeSet<String>) {
    match t {
        Term::Attr(base, _) => {
            if let Term::Var(v) = base.as_ref() {
                out.insert(v.clone());
            }
            collect_term_object_vars(base, out);
        }
        Term::Dist(a, b) => {
            for side in [a.as_ref(), b.as_ref()] {
                if let Term::Var(v) = side {
                    out.insert(v.clone());
                }
                collect_term_object_vars(side, out);
            }
        }
        Term::Arith(_, a, b) => {
            collect_term_object_vars(a, out);
            collect_term_object_vars(b, out);
        }
        Term::Var(_) | Term::Const(_) | Term::Time | Term::Point(..) => {}
    }
}

fn collect_object_vars(f: &Formula, out: &mut BTreeSet<String>) {
    match f {
        Formula::Bool(_) => {}
        Formula::Cmp(_, a, b) => {
            collect_term_object_vars(a, out);
            collect_term_object_vars(b, out);
        }
        Formula::Inside(t, _) | Formula::Outside(t, _) => {
            if let Term::Var(v) = t {
                out.insert(v.clone());
            }
            collect_term_object_vars(t, out);
        }
        Formula::InsideMoving(t, _, a) | Formula::OutsideMoving(t, _, a) => {
            for side in [t, a] {
                if let Term::Var(v) = side {
                    out.insert(v.clone());
                }
                collect_term_object_vars(side, out);
            }
        }
        Formula::WithinSphere(_, ts) => {
            for t in ts {
                if let Term::Var(v) = t {
                    out.insert(v.clone());
                }
                collect_term_object_vars(t, out);
            }
        }
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Until(a, b) => {
            collect_object_vars(a, out);
            collect_object_vars(b, out);
        }
        Formula::UntilWithin(_, a, b) => {
            collect_object_vars(a, out);
            collect_object_vars(b, out);
        }
        Formula::Not(a)
        | Formula::Nexttime(a)
        | Formula::Eventually(a)
        | Formula::Always(a)
        | Formula::EventuallyWithin(_, a)
        | Formula::EventuallyAfter(_, a)
        | Formula::AlwaysFor(_, a) => collect_object_vars(a, out),
        Formula::Assign(_, term, body) => {
            collect_term_object_vars(term, out);
            collect_object_vars(body, out);
        }
    }
}

fn eval_formula(
    ctx: &dyn EvalContext,
    f: &Formula,
    obj_vars: &BTreeSet<String>,
) -> FtlResult<VarRelation> {
    let h = ctx.horizon();
    match f {
        Formula::Bool(true) => Ok(VarRelation::nullary(IntervalSet::full(h))),
        Formula::Bool(false) => Ok(VarRelation::nullary(IntervalSet::empty())),
        Formula::Cmp(op, lhs, rhs) => {
            let vars = atom_object_vars(&[lhs, rhs], obj_vars);
            let eval_one = |env: &Env| compare_terms(ctx, env, *op, lhs, rhs);
            // Section 4 integration: a range comparison over one object's
            // non-motion attribute may fetch an index-pruned candidate
            // superset (non-candidates produce empty interval sets and
            // would be dropped anyway).
            match attr_range_prune(ctx, *op, lhs, rhs, &vars) {
                Some(ids) => atom_relation_over(ctx, &vars, &ids, eval_one),
                None => atom_relation(ctx, &vars, eval_one),
            }
        }
        Formula::Inside(term, region) => {
            let poly = ctx
                .region(region)
                .ok_or_else(|| FtlError::UnknownRegion(region.clone()))?;
            let vars = atom_object_vars(&[term], obj_vars);
            // Section 4 integration: when the context maintains a position
            // index, restrict enumeration to objects whose motion can enter
            // the region at all.  Only sound for a bare object variable
            // (INSIDE is monotone in the candidate set: non-candidates have
            // empty interval sets and would be dropped anyway).
            let pruned = match term {
                Term::Var(_) => ctx.inside_candidates(&poly),
                _ => None,
            };
            let eval_one = |env: &Env| {
                Ok(match point_motion(ctx, env, term)? {
                    Some(traj) => piecewise(&traj, h, |leg, h| inside_polygon(leg, &poly, h)),
                    None => IntervalSet::empty(),
                })
            };
            match pruned {
                Some(ids) => atom_relation_over(ctx, &vars, &ids, eval_one),
                None => atom_relation(ctx, &vars, eval_one),
            }
        }
        Formula::Outside(term, region) => {
            let poly = ctx
                .region(region)
                .ok_or_else(|| FtlError::UnknownRegion(region.clone()))?;
            let vars = atom_object_vars(&[term], obj_vars);
            atom_relation(ctx, &vars, |env| {
                Ok(match point_motion(ctx, env, term)? {
                    Some(traj) => piecewise(&traj, h, |leg, h| inside_polygon(leg, &poly, h))
                        .complement(h),
                    None => IntervalSet::empty(),
                })
            })
        }
        Formula::InsideMoving(term, region, anchor)
        | Formula::OutsideMoving(term, region, anchor) => {
            let poly = ctx
                .region(region)
                .ok_or_else(|| FtlError::UnknownRegion(region.clone()))?;
            let negated = matches!(f, Formula::OutsideMoving(..));
            let vars = atom_object_vars(&[term, anchor], obj_vars);
            atom_relation(ctx, &vars, |env| {
                let (point, anch) = match (
                    point_motion(ctx, env, term)?,
                    point_motion(ctx, env, anchor)?,
                ) {
                    (Some(p), Some(a)) => (p, a),
                    _ => return Ok(IntervalSet::empty()),
                };
                // The region rides with the anchor: o(t) ∈ P + (a(t) − a(0))
                // ⇔ the *relative* motion o(t) − a(t) + a(0) lies in P.
                // Relative motion is piecewise linear, so the static
                // polygon routine applies per aligned leg span.
                let a0 = anch.position_at_tick(0);
                let mut acc = IntervalSet::empty();
                for (leg_p, lo_p, hi_p) in point.legs_between(0, h.end()) {
                    for (leg_a, lo, hi) in anch.legs_between(lo_p, hi_p) {
                        if lo > hi {
                            continue;
                        }
                        let p_at = leg_p.position_at_tick(lo);
                        let a_at = leg_a.position_at_tick(lo);
                        let rel = MovingPoint::new(
                            Point::new(a0.x + p_at.x - a_at.x, a0.y + p_at.y - a_at.y),
                            lo,
                            leg_p.velocity - leg_a.velocity,
                        );
                        let span = IntervalSet::singleton(Interval::new(lo, hi));
                        acc = acc
                            .union(&inside_polygon(rel, &poly, h).intersect(&span));
                    }
                }
                Ok(if negated { acc.complement(h) } else { acc })
            })
        }
        Formula::WithinSphere(r, terms) => {
            let refs: Vec<&Term> = terms.iter().collect();
            let vars = atom_object_vars(&refs, obj_vars);
            atom_relation(ctx, &vars, |env| {
                let mut trajs = Vec::with_capacity(terms.len());
                for t in terms {
                    match point_motion(ctx, env, t)? {
                        Some(traj) => trajs.push(traj),
                        None => return Ok(IntervalSet::empty()),
                    }
                }
                Ok(within_sphere_piecewise(*r, &trajs, h))
            })
        }
        Formula::And(a, b) => Ok(eval_formula(ctx, a, obj_vars)?
            .and_join(&eval_formula(ctx, b, obj_vars)?)),
        Formula::Or(a, b) => {
            let ra = eval_formula(ctx, a, obj_vars)?;
            let rb = eval_formula(ctx, b, obj_vars)?;
            let union_vars: Vec<String> = {
                let mut v = ra.vars().to_vec();
                for w in rb.vars() {
                    if !v.contains(w) {
                        v.push(w.clone());
                    }
                }
                v
            };
            let domain = object_domain(ctx, obj_vars);
            let ea = ra.expand(&union_vars, &domain)?;
            let eb = rb.expand(&union_vars, &domain)?;
            ea.or_union(&eb)
        }
        Formula::Not(a) => {
            let ra = eval_formula(ctx, a, obj_vars)?;
            let domain = object_domain(ctx, obj_vars);
            ra.complement(h, domain)
        }
        Formula::Until(a, b) => {
            most_obs::inc("ftl.temporal_ops");
            let ra = eval_formula(ctx, a, obj_vars)?;
            let rb = expand_for_until(ctx, &ra, eval_formula(ctx, b, obj_vars)?, obj_vars)?;
            Ok(ra.until_join(&rb))
        }
        Formula::UntilWithin(c, a, b) => {
            most_obs::inc("ftl.temporal_ops");
            let ra = eval_formula(ctx, a, obj_vars)?;
            let rb = expand_for_until(ctx, &ra, eval_formula(ctx, b, obj_vars)?, obj_vars)?;
            Ok(ra.until_within_join(*c, &rb))
        }
        Formula::Nexttime(a) => {
            most_obs::inc("ftl.temporal_ops");
            Ok(eval_formula(ctx, a, obj_vars)?.map_sets(|s| s.next_time(h)))
        }
        Formula::Eventually(a) => {
            most_obs::inc("ftl.temporal_ops");
            Ok(eval_formula(ctx, a, obj_vars)?.map_sets(|s| s.eventually()))
        }
        Formula::Always(a) => {
            most_obs::inc("ftl.temporal_ops");
            Ok(eval_formula(ctx, a, obj_vars)?.map_sets(|s| s.always(h)))
        }
        Formula::EventuallyWithin(c, a) => {
            most_obs::inc("ftl.temporal_ops");
            Ok(eval_formula(ctx, a, obj_vars)?.map_sets(|s| s.eventually_within(*c)))
        }
        Formula::EventuallyAfter(c, a) => {
            most_obs::inc("ftl.temporal_ops");
            Ok(eval_formula(ctx, a, obj_vars)?.map_sets(|s| s.eventually_after(*c)))
        }
        Formula::AlwaysFor(c, a) => {
            most_obs::inc("ftl.temporal_ops");
            Ok(eval_formula(ctx, a, obj_vars)?.map_sets(|s| s.always_for(*c, h)))
        }
        Formula::Assign(x, term, body) => {
            eval_assignment(ctx, x, term, body, obj_vars)
        }
    }
}

/// The assignment quantifier: for each instantiation of the term's object
/// variables and each value `v` in the term's (finite, piecewise-constant)
/// series, evaluate `body[x := v]` and keep its intervals clipped to the
/// ticks at which the term actually has value `v`.
fn eval_assignment(
    ctx: &dyn EvalContext,
    x: &str,
    term: &Term,
    body: &Formula,
    obj_vars: &BTreeSet<String>,
) -> FtlResult<VarRelation> {
    let term_vars: Vec<String> = term
        .free_vars()
        .into_iter()
        .filter(|v| obj_vars.contains(*v))
        .map(|v| v.to_owned())
        .collect();
    for v in term.free_vars() {
        if !obj_vars.contains(v) {
            return Err(FtlError::Unsafe(format!(
                "variable `{v}` in an assignment term is neither an object variable nor bound"
            )));
        }
    }
    let ids = ctx.object_ids();
    let mut combined: Option<VarRelation> = None;
    let mut inst = Vec::with_capacity(term_vars.len());
    eval_assignment_rec(
        ctx,
        x,
        term,
        body,
        obj_vars,
        &term_vars,
        &ids,
        &mut inst,
        &mut combined,
    )?;
    Ok(combined.unwrap_or_else(|| {
        // No instantiation produced rows (e.g. empty object domain).
        VarRelation::new(term_vars, Vec::new())
    }))
}

#[allow(clippy::too_many_arguments)]
fn eval_assignment_rec(
    ctx: &dyn EvalContext,
    x: &str,
    term: &Term,
    body: &Formula,
    obj_vars: &BTreeSet<String>,
    term_vars: &[String],
    ids: &[u64],
    inst: &mut Vec<Value>,
    combined: &mut Option<VarRelation>,
) -> FtlResult<()> {
    if inst.len() < term_vars.len() {
        for &id in ids {
            inst.push(Value::Id(id));
            eval_assignment_rec(
                ctx, x, term, body, obj_vars, term_vars, ids, inst, combined,
            )?;
            inst.pop();
        }
        return Ok(());
    }
    let mut env = Env::new();
    for (name, v) in term_vars.iter().zip(inst.iter()) {
        env.bind(name.clone(), v.clone());
    }
    let series = value_series(ctx, &env, term)?;
    for (value, valid) in series {
        let pinned = body.pin(x, &value);
        let rb = eval_formula(ctx, &pinned, obj_vars)?;
        // Clip to the validity interval of this value and attach the term's
        // instantiation columns, joining on any shared variables.
        let clipped = rb.map_sets(|s| s.intersect(&valid));
        let attached = attach_instantiation(&clipped, term_vars, inst);
        *combined = Some(match combined.take() {
            Some(acc) => merge_disjunctive(acc, attached)?,
            None => attached,
        });
    }
    Ok(())
}

/// Attaches fixed instantiation columns to a relation: rows that disagree
/// with the instantiation on shared variables are dropped; missing columns
/// are appended.
fn attach_instantiation(
    rel: &VarRelation,
    vars: &[String],
    values: &[Value],
) -> VarRelation {
    let mut out_vars = rel.vars().to_vec();
    let mut extra: Vec<(usize, &Value)> = Vec::new();
    for (i, v) in vars.iter().enumerate() {
        if !out_vars.contains(v) {
            out_vars.push(v.clone());
            extra.push((i, &values[i]));
        }
    }
    let shared: Vec<(usize, usize)> = vars
        .iter()
        .enumerate()
        .filter_map(|(i, v)| rel.vars().iter().position(|w| w == v).map(|j| (i, j)))
        .collect();
    let rows = rel
        .rows()
        .iter()
        .filter(|(vals, _)| shared.iter().all(|&(i, j)| vals[j] == values[i]))
        .map(|(vals, set)| {
            let mut v = vals.clone();
            for &(i, _) in &extra {
                v.push(values[i].clone());
            }
            (v, set.clone())
        })
        .collect();
    VarRelation::new(out_vars, rows)
}

/// Unions two relations from different branches of an assignment series
/// (same variable sets by construction; defensive error otherwise).
fn merge_disjunctive(a: VarRelation, b: VarRelation) -> FtlResult<VarRelation> {
    if a.vars() == b.vars() {
        a.or_union(&b)
    } else {
        let vars = a.vars().to_vec();
        let b2 = b.reorder(&vars)?;
        a.or_union(&b2)
    }
}

/// Detects a range comparison of the shape `x.NAME op const` (either
/// orientation) over a single object variable and a **non-motion**
/// attribute, and asks the context's dynamic-attribute index for a
/// candidate superset.  `None` means "no pruning": the shape didn't match,
/// the attribute is served from the trajectory, or no index is available.
fn attr_range_prune(
    ctx: &dyn EvalContext,
    op: CmpOp,
    lhs: &Term,
    rhs: &Term,
    vars: &[String],
) -> Option<Vec<u64>> {
    if vars.len() != 1 {
        return None;
    }
    let (attr, op, bound) = match (lhs, rhs) {
        (Term::Attr(base, name), Term::Const(c))
            if matches!(base.as_ref(), Term::Var(_)) =>
        {
            (name, op, c.as_f64()?)
        }
        (Term::Const(c), Term::Attr(base, name))
            if matches!(base.as_ref(), Term::Var(_)) =>
        {
            (name, op.flipped(), c.as_f64()?)
        }
        _ => return None,
    };
    if is_motion_attr(attr) {
        return None;
    }
    // Candidate windows are closed supersets: strict bounds keep the
    // boundary value (exact per-candidate evaluation discards it).
    let (lo, hi) = match op {
        CmpOp::Le | CmpOp::Lt => (f64::NEG_INFINITY, bound),
        CmpOp::Ge | CmpOp::Gt => (bound, f64::INFINITY),
        CmpOp::Eq => (bound, bound),
        // `!=` holds almost everywhere; pruning cannot help.
        CmpOp::Ne => return None,
    };
    ctx.attr_range_candidates(attr, lo, hi)
}

/// The object variables (in first-appearance order) among the free
/// variables of the given terms.
fn atom_object_vars(terms: &[&Term], obj_vars: &BTreeSet<String>) -> Vec<String> {
    let mut out = Vec::new();
    for t in terms {
        for v in t.free_vars() {
            if obj_vars.contains(v) && !out.iter().any(|o| o == v) {
                out.push(v.to_owned());
            }
        }
    }
    out
}

/// [`atom_relation`] with an explicit candidate id set (index pruning).
fn atom_relation_over(
    ctx: &dyn EvalContext,
    vars: &[String],
    ids: &[u64],
    eval_one: impl Fn(&Env) -> FtlResult<IntervalSet>,
) -> FtlResult<VarRelation> {
    most_obs::inc("ftl.atoms");
    most_obs::inc("ftl.pruned");
    // Pruned = domain minus candidates: what the index saved this atom.
    let domain = ctx.object_ids().len() as u64;
    most_obs::add("ftl.candidates_pruned", domain.saturating_sub(ids.len() as u64));
    match vars.first() {
        Some(var) => {
            let rows = single_var_rows(var, ids, &eval_one)?;
            Ok(VarRelation::new(vars.to_vec(), rows))
        }
        None => {
            let set = eval_one(&Env::new())?;
            Ok(VarRelation::nullary(set))
        }
    }
}

/// Builds an atom's relation by enumerating instantiations of its object
/// variables over the active domain.  Each binding is evaluated
/// independently of every other (the atom routines read only the
/// environment and the context), which removes per-binding allocation
/// churn: one reused [`Env`], rows built in place.
fn atom_relation(
    ctx: &dyn EvalContext,
    vars: &[String],
    eval_one: impl Fn(&Env) -> FtlResult<IntervalSet>,
) -> FtlResult<VarRelation> {
    let ids = ctx.object_ids();
    most_obs::inc("ftl.atoms");
    match vars.len() {
        0 => {
            let set = eval_one(&Env::new())?;
            Ok(VarRelation::nullary(set))
        }
        1 => {
            let rows = single_var_rows(&vars[0], &ids, &eval_one)?;
            Ok(VarRelation::new(vars.to_vec(), rows))
        }
        k => {
            // The k-fold product is one atom's candidate load: a log2
            // histogram observation keeps the per-atom distribution visible
            // (a single saturating counter add flattened it).
            let product = (ids.len() as u64).saturating_pow(k as u32);
            most_obs::observe("ftl.candidates", product);
            most_obs::add("ftl.candidates_evaluated", product);
            // Odometer over the k-fold product of the domain, last variable
            // fastest (the same lexicographic order the old recursion
            // produced).  One Env is rebound in place per instantiation.
            let mut rows = Vec::new();
            if ids.is_empty() {
                return Ok(VarRelation::new(vars.to_vec(), rows));
            }
            let mut idx = vec![0usize; k];
            let mut env = Env::new();
            loop {
                for (name, &i) in vars.iter().zip(idx.iter()) {
                    env.set(name, Value::Id(ids[i]));
                }
                let set = eval_one(&env)?;
                if !set.is_empty() {
                    rows.push((idx.iter().map(|&i| Value::Id(ids[i])).collect(), set));
                }
                let mut d = k;
                loop {
                    if d == 0 {
                        return Ok(VarRelation::new(vars.to_vec(), rows));
                    }
                    d -= 1;
                    idx[d] += 1;
                    if idx[d] < ids.len() {
                        break;
                    }
                    idx[d] = 0;
                }
            }
        }
    }
}

type Rows = Vec<(Vec<Value>, IntervalSet)>;

/// The single-variable candidate loop: one row per object with a non-empty
/// interval set.
fn single_var_rows(
    var: &str,
    ids: &[u64],
    eval_one: &impl Fn(&Env) -> FtlResult<IntervalSet>,
) -> FtlResult<Rows> {
    // One registry batch per atom's candidate loop, never per candidate.
    most_obs::observe("ftl.candidates", ids.len() as u64);
    most_obs::add("ftl.candidates_evaluated", ids.len() as u64);
    let mut env = Env::new();
    let mut rows = Vec::new();
    for &id in ids {
        env.set(var, Value::Id(id));
        let set = eval_one(&env)?;
        if !set.is_empty() {
            rows.push((vec![Value::Id(id)], set));
        }
    }
    Ok(rows)
}

/// Resolves a point term (object variable / POINT literal) to its motion.
fn point_motion(
    ctx: &dyn EvalContext,
    env: &Env,
    term: &Term,
) -> FtlResult<Option<Trajectory>> {
    match term {
        Term::Point(x, y) => Ok(Some(Trajectory::new(MovingPoint::stationary(Point::new(
            *x, *y,
        ))))),
        Term::Var(name) => match env.get(name) {
            Some(Value::Id(id)) => Ok(ctx.trajectory(*id)),
            Some(Value::Null) | None => Ok(None),
            Some(other) => Err(FtlError::Type(format!(
                "variable `{name}` = {other} is not an object in a spatial predicate"
            ))),
        },
        // Constant object references arise from pinned evaluation (the
        // assignment quantifier binding a variable to an object).
        Term::Const(Value::Id(id)) => Ok(ctx.trajectory(*id)),
        Term::Const(Value::Null) => Ok(None),
        other => Err(FtlError::Type(format!(
            "`{other}` is not a point term (expected an object variable or POINT literal)"
        ))),
    }
}

/// `WITHIN_SPHERE` over piecewise-linear motions: the horizon is split at
/// every motion-vector switch, and the single-leg routine runs per span.
fn within_sphere_piecewise(
    r: f64,
    trajs: &[Trajectory],
    h: most_temporal::Horizon,
) -> IntervalSet {
    let mut cuts: BTreeSet<Tick> = BTreeSet::new();
    cuts.insert(0);
    for traj in trajs {
        for leg in traj.legs() {
            if leg.since <= h.end() {
                cuts.insert(leg.since);
            }
        }
    }
    let cuts: Vec<Tick> = cuts.into_iter().collect();
    let mut acc = IntervalSet::empty();
    for (i, &lo) in cuts.iter().enumerate() {
        let hi = cuts.get(i + 1).map(|&n| n - 1).unwrap_or(h.end());
        if lo > hi {
            continue;
        }
        let movers: Vec<MovingPoint> = trajs.iter().map(|t| t.leg_at(lo)).collect();
        let span = IntervalSet::singleton(Interval::new(lo, hi));
        acc = acc.union(&within_sphere(r, &movers, h).intersect(&span));
    }
    acc
}

/// Completes `f Until g` when `f` binds variables `g` does not: a state
/// satisfies `Until` outright wherever `g` holds, *for every* value of the
/// extra variables, so `g`'s relation is expanded over the active domain
/// before the right-driven join.  (The appendix's literal join would drop
/// those instantiations; the Section 3.3 semantics — and the per-tick
/// oracle — keep them.)
fn expand_for_until(
    ctx: &dyn EvalContext,
    left: &VarRelation,
    right: VarRelation,
    obj_vars: &BTreeSet<String>,
) -> FtlResult<VarRelation> {
    let missing: Vec<String> = left
        .vars()
        .iter()
        .filter(|v| !right.vars().contains(v))
        .cloned()
        .collect();
    if missing.is_empty() {
        return Ok(right);
    }
    let mut union_vars = right.vars().to_vec();
    union_vars.extend(missing);
    right.expand(&union_vars, object_domain(ctx, obj_vars))
}

fn object_domain<'a>(
    ctx: &'a dyn EvalContext,
    obj_vars: &'a BTreeSet<String>,
) -> impl Fn(&str) -> FtlResult<Vec<Value>> + 'a {
    move |var: &str| {
        if obj_vars.contains(var) {
            Ok(ctx.object_ids().into_iter().map(Value::Id).collect())
        } else {
            Err(FtlError::Unsafe(format!(
                "variable `{var}` requires domain expansion but is not an object variable"
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::MemoryContext;
    use most_spatial::{Polygon, Velocity};

    /// The running scenario: two cars on a highway and a parked one, with a
    /// polygon "downtown" and prices.
    fn ctx() -> MemoryContext {
        let mut c = MemoryContext::new(200);
        c.add_object(
            1,
            Trajectory::starting_at(Point::new(0.0, 0.0), Velocity::new(1.0, 0.0)),
        );
        c.add_object(
            2,
            Trajectory::starting_at(Point::new(100.0, 0.0), Velocity::new(-1.0, 0.0)),
        );
        c.add_object(
            3,
            Trajectory::starting_at(Point::new(55.0, 2.0), Velocity::zero()),
        );
        c.set_attr(1, "PRICE", 80.0);
        c.set_attr(2, "PRICE", 150.0);
        c.set_attr(3, "PRICE", 60.0);
        c.add_region("P", Polygon::rectangle(50.0, -10.0, 70.0, 10.0));
        c.add_region("Q", Polygon::rectangle(150.0, -10.0, 170.0, 10.0));
        c
    }

    fn answer(src: &str) -> Answer {
        evaluate_query(&ctx(), &Query::parse(src).unwrap()).unwrap()
    }

    fn check_against_oracle(src: &str) {
        let c = ctx();
        let q = Query::parse(src).unwrap();
        let fast = evaluate_query(&c, &q).unwrap();
        let slow = crate::semantics::naive_answer(&c, &q).unwrap();
        assert_eq!(fast, slow, "query: {src}");
    }

    #[test]
    fn paper_query_i_price_and_entry() {
        // Example (I): objects entering P within 60 with PRICE <= 100.
        let a = answer(
            "RETRIEVE o WHERE o.PRICE <= 100 AND Eventually within 60 INSIDE(o, P)",
        );
        // Object 1 reaches x=50 at t=50 — within 60 from t>=0? Eventually
        // within 60 INSIDE holds at t=0 (enters at 50 <= 60). Object 3 is
        // already inside (always). Object 2's price is too high.
        assert_eq!(a.ids(), vec![1, 3]);
        check_against_oracle(
            "RETRIEVE o WHERE o.PRICE <= 100 AND Eventually within 60 INSIDE(o, P)",
        );
    }

    #[test]
    fn paper_query_ii_enter_and_stay() {
        let src = "RETRIEVE o WHERE Eventually within 60 (INSIDE(o, P) AND Always for 10 INSIDE(o, P))";
        let a = answer(src);
        // Object 1 is inside P for ticks 50..=70 (21 ticks) so it can stay
        // 10 ticks from t=50..60; reachable within 60 of tick 0. Object 2
        // inside 30..=50, can stay 10 from 30..40. Object 3 always inside.
        assert_eq!(a.ids(), vec![1, 2, 3]);
        check_against_oracle(src);
    }

    #[test]
    fn paper_query_iii_two_polygons() {
        // Enter P within 60, stay 5, and after at least 50 more be in Q.
        let src = "RETRIEVE o WHERE Eventually within 60 (INSIDE(o, P) AND Always for 5 INSIDE(o, P) AND Eventually after 50 INSIDE(o, Q))";
        let a = answer(src);
        // Only object 1 continues east into Q (reaches x=150 at t=150).
        assert_eq!(a.ids(), vec![1]);
        check_against_oracle(src);
    }

    #[test]
    fn paper_until_pairs() {
        // Pairs staying within 120 of each other until both in P.
        let src =
            "RETRIEVE o, n WHERE DIST(o, n) <= 120 Until (INSIDE(o, P) AND INSIDE(n, P))";
        check_against_oracle(src);
        let a = answer(src);
        assert!(!a.is_empty());
    }

    #[test]
    fn dist_to_fixed_point() {
        let src = "RETRIEVE o WHERE Eventually within 100 (DIST(o, POINT(60, 0)) <= 5)";
        let a = answer(src);
        // Object 3 sits at (55, 2): √29 > 5 away, never qualifies.
        assert_eq!(a.ids(), vec![1, 2]);
        check_against_oracle(src);
    }

    #[test]
    fn outside_and_negation_extension() {
        check_against_oracle("RETRIEVE o WHERE Always OUTSIDE(o, Q) AND o.PRICE <= 100");
        check_against_oracle("RETRIEVE o WHERE NOT Eventually INSIDE(o, P)");
        check_against_oracle("RETRIEVE o WHERE NOT (o.PRICE <= 100)");
    }

    #[test]
    fn disjunction_extension() {
        check_against_oracle("RETRIEVE o WHERE INSIDE(o, P) OR o.PRICE <= 70");
        // Disjunction with different variable sets (expansion).
        check_against_oracle(
            "RETRIEVE o, n WHERE INSIDE(o, P) OR DIST(o, n) <= 10",
        );
    }

    #[test]
    fn nexttime_and_untilwithin() {
        check_against_oracle("RETRIEVE o WHERE Nexttime INSIDE(o, P)");
        check_against_oracle(
            "RETRIEVE o WHERE OUTSIDE(o, P) until_within 55 INSIDE(o, P)",
        );
    }

    #[test]
    fn within_sphere_query() {
        let src = "RETRIEVE o, n WHERE Eventually WITHIN_SPHERE(10, o, n, POINT(50, 0))";
        check_against_oracle(src);
    }

    #[test]
    fn assignment_speed_binding() {
        // Objects whose speed never changes: with a single-leg context the
        // pinned comparison holds everywhere.
        let src = "RETRIEVE o WHERE [x <- o.SPEED] Always (o.SPEED = x)";
        let a = answer(src);
        assert_eq!(a.ids(), vec![1, 2, 3]);
        check_against_oracle(src);
    }

    #[test]
    fn assignment_with_piecewise_speed() {
        // The Section 2.3 persistent-query scenario evaluated over a
        // recorded history: speed 5, then 7 at t=30, then 10 at t=60.
        let mut c = MemoryContext::new(100);
        let mut traj = Trajectory::starting_at(Point::origin(), Velocity::new(5.0, 0.0));
        traj.update_velocity(30, Velocity::new(7.0, 0.0));
        traj.update_velocity(60, Velocity::new(10.0, 0.0));
        c.add_object(1, traj);
        c.add_object(
            2,
            Trajectory::starting_at(Point::new(10.0, 10.0), Velocity::new(3.0, 0.0)),
        );
        let q = Query::parse(
            "RETRIEVE o WHERE [x <- o.SPEED] Eventually (o.SPEED >= 2 * x)",
        )
        .unwrap();
        let fast = evaluate_query(&c, &q).unwrap();
        let slow = crate::semantics::naive_answer(&c, &q).unwrap();
        assert_eq!(fast, slow);
        // Object 1: speed doubles (5 -> 10); the binding x=5 is valid on
        // ticks 0..=29 and Eventually(speed >= 10) holds up to tick 99... so
        // ticks 0..=29 qualify.  Object 2 never accelerates.
        assert_eq!(fast.ids(), vec![1]);
        assert_eq!(
            fast.intervals_for(&[Value::Id(1)]).unwrap().last_tick(),
            Some(29)
        );
    }

    #[test]
    fn unconstrained_target_expands_over_domain() {
        let a = answer("RETRIEVE o WHERE true");
        assert_eq!(a.ids(), vec![1, 2, 3]);
    }

    #[test]
    fn unsafe_value_variable_rejected() {
        let c = ctx();
        let q = Query::parse("RETRIEVE o WHERE o.PRICE <= x").unwrap();
        assert!(matches!(
            evaluate_query(&c, &q),
            Err(FtlError::Unsafe(_))
        ));
    }

    #[test]
    fn unknown_region_rejected() {
        let c = ctx();
        let q = Query::parse("RETRIEVE o WHERE INSIDE(o, NOWHERE)").unwrap();
        assert!(matches!(
            evaluate_query(&c, &q),
            Err(FtlError::UnknownRegion(_))
        ));
    }

    #[test]
    fn id_comparison_filters_pairs() {
        // o <> n excludes the diagonal.
        let src = "RETRIEVE o, n WHERE o <> n AND Eventually (DIST(o, n) <= 1)";
        check_against_oracle(src);
        let a = answer(src);
        for (vals, _) in a.rows() {
            assert_ne!(vals[0], vals[1]);
        }
    }

    #[test]
    fn time_object_is_queryable() {
        // INSIDE(o,P) while time <= 55: only ticks <= 55 qualify.
        let src = "RETRIEVE o WHERE INSIDE(o, P) AND time <= 55";
        check_against_oracle(src);
        let a = answer(src);
        assert!(a
            .intervals_for(&[Value::Id(1)])
            .is_some_and(|s| s.last_tick() == Some(55)));
    }

    /// [`ctx`] behind a position "index" that prunes nothing and counts
    /// how often it is probed.
    struct CountingIndex {
        inner: MemoryContext,
        probes: std::cell::Cell<u32>,
    }

    impl EvalContext for CountingIndex {
        fn horizon(&self) -> most_temporal::Horizon {
            self.inner.horizon()
        }
        fn object_ids(&self) -> Vec<u64> {
            self.inner.object_ids()
        }
        fn trajectory(&self, id: u64) -> Option<Trajectory> {
            self.inner.trajectory(id)
        }
        fn attr_series(&self, id: u64, name: &str) -> Vec<(Value, Interval)> {
            self.inner.attr_series(id, name)
        }
        fn region(&self, name: &str) -> Option<Polygon> {
            self.inner.region(name)
        }
        fn inside_candidates(&self, _region: &Polygon) -> Option<Vec<u64>> {
            self.probes.set(self.probes.get() + 1);
            Some(self.inner.object_ids())
        }
    }

    #[test]
    fn inside_over_a_pinned_object_does_not_probe_the_index() {
        // What the assignment quantifier's `body.pin(..)` produces, once per
        // instantiation: the candidate set could only be discarded.
        let indexed = CountingIndex { inner: ctx(), probes: std::cell::Cell::new(0) };
        let pinned = Query {
            targets: vec![],
            formula: Formula::Inside(Term::Const(Value::Id(1)), "P".into()),
        };
        assert_eq!(
            evaluate_query(&indexed, &pinned).unwrap(),
            evaluate_query(&ctx(), &pinned).unwrap()
        );
        assert_eq!(indexed.probes.get(), 0);
        // A bare variable is what the index is for.
        let bare = Query::parse("RETRIEVE o WHERE INSIDE(o, P)").unwrap();
        assert_eq!(
            evaluate_query(&indexed, &bare).unwrap(),
            evaluate_query(&ctx(), &bare).unwrap()
        );
        assert_eq!(indexed.probes.get(), 1);
    }
}

/// One row of an evaluation trace: a subformula and the size of its
/// relation `R_g`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceNode {
    /// Nesting depth within the formula tree (0 = whole formula).
    pub depth: usize,
    /// The subformula, pretty-printed.
    pub formula: String,
    /// Rows (instantiations) in `R_g`.
    pub rows: usize,
    /// Total satisfaction intervals across all rows.
    pub spans: u64,
    /// Total satisfied ticks across all rows.
    pub ticks: u64,
}

/// Evaluates a query and additionally reports the relation sizes of every
/// subformula — the quantities the appendix's cost statement is about
/// ("in the worst case, this algorithm may run in time proportional to the
/// product of the sizes of R1 and R2").
///
/// Diagnostics only: each subformula is re-evaluated independently, so this
/// costs more than [`evaluate_query`]; use it to understand a slow query,
/// not to serve one.
pub fn explain_query(
    ctx: &dyn EvalContext,
    q: &Query,
) -> FtlResult<(Answer, Vec<TraceNode>)> {
    let mut obj_vars = syntactic_object_vars(&q.formula);
    for t in &q.targets {
        obj_vars.insert(t.clone());
    }
    let mut trace = Vec::new();
    collect_trace(ctx, &q.formula, &obj_vars, 0, &mut trace)?;
    let answer = evaluate_query(ctx, q)?;
    Ok((answer, trace))
}

fn collect_trace(
    ctx: &dyn EvalContext,
    f: &Formula,
    obj_vars: &BTreeSet<String>,
    depth: usize,
    out: &mut Vec<TraceNode>,
) -> FtlResult<()> {
    // Children first (bottom-up order, matching the appendix's
    // "increasing lengths of the subformula").
    match f {
        Formula::And(a, b)
        | Formula::Or(a, b)
        | Formula::Until(a, b)
        | Formula::UntilWithin(_, a, b) => {
            collect_trace(ctx, a, obj_vars, depth + 1, out)?;
            collect_trace(ctx, b, obj_vars, depth + 1, out)?;
        }
        Formula::Not(a)
        | Formula::Nexttime(a)
        | Formula::Eventually(a)
        | Formula::Always(a)
        | Formula::EventuallyWithin(_, a)
        | Formula::EventuallyAfter(_, a)
        | Formula::AlwaysFor(_, a) => {
            collect_trace(ctx, a, obj_vars, depth + 1, out)?;
        }
        Formula::Assign(_, _, body) => {
            // The body contains the bound variable; it cannot be evaluated
            // standalone, so only its *structure* recurses through the
            // pinned evaluation inside eval_formula.  Trace the quantified
            // formula as one node.
            let _ = body;
        }
        _ => {}
    }
    match eval_formula(ctx, f, obj_vars) {
        Ok(rel) => {
            let spans: u64 = rel.rows().iter().map(|(_, s)| s.span_count() as u64).sum();
            let ticks: u64 = rel.rows().iter().map(|(_, s)| s.tick_count()).sum();
            out.push(TraceNode {
                depth,
                formula: f.to_string(),
                rows: rel.len(),
                spans,
                ticks,
            });
            Ok(())
        }
        // Subformulas with unbound (assignment) variables cannot be
        // evaluated standalone; record them without sizes.
        Err(FtlError::Unsafe(_)) => {
            out.push(TraceNode {
                depth,
                formula: format!("{f}  (depends on enclosing assignment)"),
                rows: 0,
                spans: 0,
                ticks: 0,
            });
            Ok(())
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;
    use crate::context::MemoryContext;
    use most_spatial::{Point, Polygon, Trajectory, Velocity};

    fn ctx() -> MemoryContext {
        let mut c = MemoryContext::new(100);
        c.add_object(
            1,
            Trajectory::starting_at(Point::origin(), Velocity::new(1.0, 0.0)),
        );
        c.add_object(
            2,
            Trajectory::starting_at(Point::new(200.0, 0.0), Velocity::zero()),
        );
        c.set_attr(1, "PRICE", 50.0);
        c.set_attr(2, "PRICE", 150.0);
        c.add_region("P", Polygon::rectangle(40.0, -10.0, 60.0, 10.0));
        c
    }

    #[test]
    fn trace_is_bottom_up_and_sized() {
        let c = ctx();
        let q = Query::parse(
            "RETRIEVE o WHERE o.PRICE <= 100 AND Eventually INSIDE(o, P)",
        )
        .unwrap();
        let (answer, trace) = explain_query(&c, &q).unwrap();
        assert_eq!(answer.ids(), vec![1]);
        // Nodes: PRICE atom, INSIDE atom, Eventually, And (bottom-up).
        assert_eq!(trace.len(), 4);
        assert!(trace[0].formula.contains("PRICE"));
        assert!(trace[1].formula.contains("INSIDE"));
        assert!(trace[2].formula.starts_with("Eventually"));
        assert_eq!(trace[3].depth, 0);
        // The INSIDE atom has one row (object 1 crosses P) with one span.
        assert_eq!(trace[1].rows, 1);
        assert_eq!(trace[1].spans, 1);
        assert_eq!(trace[1].ticks, 21); // ticks 40..=60
        // Eventually expands it back to tick 0.
        assert_eq!(trace[2].ticks, 61);
        // The conjunction intersects with the PRICE row.
        assert_eq!(trace[3].rows, 1);
    }

    #[test]
    fn assignment_bodies_flagged_not_failed() {
        let c = ctx();
        let q = Query::parse(
            "RETRIEVE o WHERE [x <- o.SPEED] Eventually (o.SPEED >= x)",
        )
        .unwrap();
        let (_, trace) = explain_query(&c, &q).unwrap();
        let root = trace.last().unwrap();
        assert_eq!(root.depth, 0);
        assert!(root.rows > 0, "the quantified formula itself evaluates");
    }
}
