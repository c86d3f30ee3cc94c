//! Piecewise-quadratic analysis of attribute terms.
//!
//! The appendix's base case assumes "a routine which, for each possible
//! relevant instantiation of values to the free variables, gives us the
//! intervals during which the relation is satisfied".  For comparison atoms
//! over attribute terms this module is that routine: given an instantiation
//! of the object variables it expresses each side of the comparison as a
//! **piecewise function of time** of degree ≤ 2 (positions are linear per
//! motion-vector leg, `time` is linear, squared distances are quadratic) or
//! as `sqrt` of such a function (`DIST`), solves the comparison with real
//! root finding, and verifies the resulting tick intervals against exact
//! per-tick evaluation ([`crate::semantics::eval_term`]) so answers are
//! exact at integer clock ticks.
//!
//! A piece's interval is in global ticks; its polynomial is in
//! `τ = t − h.start()` ([`Horizon::offset`]), so that its coefficients
//! stay the size of the values near the evaluation's first tick however
//! far the clock has run.
//!
//! Supported fragment (violations raise [`FtlError::Unsupported`]):
//! products where at least one factor has degree ≤ 1 per piece (so the
//! product stays quadratic), division by piecewise constants, and `DIST`
//! appearing alone (not inside arithmetic) compared against a term of
//! degree ≤ 1 or against another `DIST`.

use crate::ast::{ArithOp, CmpOp, Term};
use crate::context::{EvalContext, StoredAttr};
use crate::error::{FtlError, FtlResult};
use crate::semantics::{cmp_defined, eval_term, Env};
use most_dbms::value::Value;
use most_spatial::predicates::exact_ticks;
use most_spatial::roots::{solve_quadratic_le, RealIntervals};
use most_spatial::{MovingPoint, Point, Trajectory};
use most_temporal::{Horizon, Interval, IntervalSet, Tick};
use std::borrow::Cow;

/// A quadratic `a·τ² + b·τ + c` in `τ = t − h.start()`, valid on a tick
/// interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadPiece {
    /// Validity range (global ticks).
    pub iv: Interval,
    /// Quadratic coefficient.
    pub a: f64,
    /// Linear coefficient.
    pub b: f64,
    /// Constant coefficient.
    pub c: f64,
}

impl QuadPiece {
    fn constant(iv: Interval, c: f64) -> Self {
        QuadPiece {
            iv,
            a: 0.0,
            b: 0.0,
            c,
        }
    }

    fn degree(&self) -> u8 {
        if self.a != 0.0 {
            2
        } else if self.b != 0.0 {
            1
        } else {
            0
        }
    }

    fn eval(&self, t: f64) -> f64 {
        (self.a * t + self.b) * t + self.c
    }
}

/// The analyzed form of a term for one instantiation.
#[derive(Debug, Clone, PartialEq)]
pub enum TermForm {
    /// Constant over the whole horizon (any value kind, including `Null`).
    Invariant(Value),
    /// Piecewise polynomial of degree ≤ 2 (numeric); gaps are undefined.
    Quad(Vec<QuadPiece>),
    /// `sqrt` of a piecewise polynomial (distances; always ≥ 0).
    SqrtQuad(Vec<QuadPiece>),
    /// A stored static attribute's piecewise-constant values, of any kind.
    Values(Vec<(Value, Interval)>),
}

impl TermForm {
    /// Whether the form changes only at stored values: comparing two such
    /// forms value by value is exactly the per-tick comparison.
    fn is_stepwise(&self) -> bool {
        matches!(self, TermForm::Invariant(_) | TermForm::Values(_))
    }
}

/// Whether `name` is one of the motion sub-attributes (`X`, `Y`, `VX`,
/// `VY`, `SPEED`) that the evaluator reads from an object's trajectory
/// rather than from a stored static/dynamic attribute.  Dependency
/// analysis (`most-core`'s `deps` module) classifies `o.NAME` terms with
/// this predicate: motion names depend on position updates, every other
/// name on attribute updates of that name.
pub fn is_motion_attr(name: &str) -> bool {
    matches!(name, "X" | "Y" | "VX" | "VY" | "SPEED")
}

/// Builds the [`TermForm`] of `term` under `env` (object variables bound to
/// ids; assignment-bound variables already pinned to constants).
pub fn build_form(ctx: &dyn EvalContext, env: &Env, term: &Term) -> FtlResult<TermForm> {
    let h = ctx.horizon();
    let full = h.span();
    match term {
        Term::Const(v) => Ok(TermForm::Invariant(v.clone())),
        Term::Var(name) => env
            .get(name)
            .cloned()
            .map(TermForm::Invariant)
            .ok_or_else(|| FtlError::Unsafe(format!("unbound variable `{name}`"))),
        Term::Time => Ok(TermForm::Quad(vec![QuadPiece {
            iv: full,
            a: 0.0,
            b: 1.0,
            c: h.start() as f64,
        }])),
        Term::Point(..) => Err(FtlError::Type(
            "a POINT literal has no scalar value; use it inside DIST".into(),
        )),
        Term::Attr(base, attr) => {
            let id = match build_form(ctx, env, base)? {
                TermForm::Invariant(Value::Id(id)) => id,
                TermForm::Invariant(Value::Null) => return Ok(TermForm::Invariant(Value::Null)),
                other => {
                    return Err(FtlError::Type(format!(
                        "attribute `.{attr}` applied to a non-object term ({other:?})"
                    )))
                }
            };
            build_attr_form(ctx, id, attr, h)
        }
        Term::Dist(a, b) => {
            let sa = resolve_motion(ctx, env, a)?;
            let sb = resolve_motion(ctx, env, b)?;
            match (sa, sb) {
                (Some(ta), Some(tb)) => Ok(TermForm::SqrtQuad(dist_sq_pieces(&ta, &tb, h))),
                _ => Ok(TermForm::Invariant(Value::Null)),
            }
        }
        Term::Arith(op, a, b) => {
            let fa = build_form(ctx, env, a)?;
            let fb = build_form(ctx, env, b)?;
            arith_forms(*op, fa, fb, h)
        }
    }
}

fn build_attr_form(ctx: &dyn EvalContext, id: u64, attr: &str, h: Horizon) -> FtlResult<TermForm> {
    match attr {
        _ if is_motion_attr(attr) => {
            let Some(traj) = ctx.trajectory(id) else {
                return Ok(TermForm::Invariant(Value::Null));
            };
            let mut pieces = Vec::new();
            for (leg, lo, hi) in traj.legs_between(h.start(), h.end()) {
                let iv = Interval::new(lo, hi);
                // x(τ) = x(h.start()) + vx·τ
                let p0 = leg.position_at_tick(h.start());
                let piece = match attr {
                    "X" => QuadPiece {
                        iv,
                        a: 0.0,
                        b: leg.velocity.dx,
                        c: p0.x,
                    },
                    "Y" => QuadPiece {
                        iv,
                        a: 0.0,
                        b: leg.velocity.dy,
                        c: p0.y,
                    },
                    "VX" => QuadPiece::constant(iv, leg.velocity.dx),
                    "VY" => QuadPiece::constant(iv, leg.velocity.dy),
                    _ => QuadPiece::constant(iv, leg.velocity.speed()),
                };
                pieces.push(piece);
            }
            Ok(TermForm::Quad(pieces))
        }
        _ => Ok(match ctx.attr(id, attr) {
            // a·(t − u)² + b·(t − u) + c, re-expanded around the horizon
            // start: t − u = τ + δ.
            StoredAttr::Dynamic(pieces) if !pieces.is_empty() => TermForm::Quad(
                pieces
                    .into_iter()
                    .map(|(iv, u, [a, b, c])| {
                        let delta = -h.offset(u);
                        QuadPiece {
                            iv,
                            a,
                            b: 2.0 * a * delta + b,
                            c: c + a * delta * delta + b * delta,
                        }
                    })
                    .collect(),
            ),
            StoredAttr::Static(series) if !series.is_empty() => TermForm::Values(series.to_vec()),
            _ => TermForm::Invariant(Value::Null),
        }),
    }
}

/// Resolves a point-valued term to its motion (trajectory or stationary
/// literal); `None` when undefined.
fn resolve_motion<'c>(
    ctx: &'c dyn EvalContext,
    env: &Env,
    term: &Term,
) -> FtlResult<Option<Cow<'c, Trajectory>>> {
    match term {
        Term::Point(x, y) => Ok(Some(Cow::Owned(Trajectory::new(MovingPoint::stationary(
            Point::new(*x, *y),
        ))))),
        _ => match build_form(ctx, env, term)? {
            TermForm::Invariant(Value::Id(id)) => Ok(ctx.trajectory(id)),
            TermForm::Invariant(Value::Null) => Ok(None),
            other => Err(FtlError::Type(format!(
                "DIST argument is not a point-valued term ({other:?})"
            ))),
        },
    }
}

/// Squared-distance pieces between two piecewise-linear motions.
fn dist_sq_pieces(a: &Trajectory, b: &Trajectory, h: Horizon) -> Vec<QuadPiece> {
    let mut out = Vec::new();
    for (leg_a, lo_a, hi_a) in a.legs_between(h.start(), h.end()) {
        for (leg_b, lo_b, hi_b) in b.legs_between(lo_a, hi_a) {
            let lo = lo_a.max(lo_b);
            let hi = hi_a.min(hi_b);
            if lo > hi {
                continue;
            }
            let rel = leg_a.relative_at(leg_b, h.start());
            let p0 = rel.anchor;
            let v = rel.velocity;
            out.push(QuadPiece {
                iv: Interval::new(lo, hi),
                a: v.norm_sq(),
                b: 2.0 * (p0.x * v.dx + p0.y * v.dy),
                c: p0.x * p0.x + p0.y * p0.y,
            });
        }
    }
    out
}

fn arith_forms(op: ArithOp, fa: TermForm, fb: TermForm, h: Horizon) -> FtlResult<TermForm> {
    use TermForm::*;
    // Null propagates.
    if matches!(fa, Invariant(Value::Null)) || matches!(fb, Invariant(Value::Null)) {
        return Ok(Invariant(Value::Null));
    }
    let qa = to_quad(fa, h)?;
    let qb = to_quad(fb, h)?;
    let mut pieces = Vec::new();
    for (iv, x, y) in align(&qa, &qb) {
        let p = match op {
            ArithOp::Add => QuadPiece {
                iv,
                a: x.a + y.a,
                b: x.b + y.b,
                c: x.c + y.c,
            },
            ArithOp::Sub => QuadPiece {
                iv,
                a: x.a - y.a,
                b: x.b - y.b,
                c: x.c - y.c,
            },
            ArithOp::Mul => {
                if x.degree() + y.degree() > 2 {
                    return Err(FtlError::Unsupported(
                        "product of time-varying terms exceeds quadratic degree".into(),
                    ));
                }
                QuadPiece {
                    iv,
                    a: x.a * y.c + x.c * y.a + x.b * y.b,
                    b: x.b * y.c + x.c * y.b,
                    c: x.c * y.c,
                }
            }
            ArithOp::Div => {
                if y.degree() != 0 {
                    return Err(FtlError::Unsupported(
                        "division by a time-varying term".into(),
                    ));
                }
                if y.c == 0.0 {
                    return Err(FtlError::Type("division by zero".into()));
                }
                QuadPiece {
                    iv,
                    a: x.a / y.c,
                    b: x.b / y.c,
                    c: x.c / y.c,
                }
            }
        };
        pieces.push(p);
    }
    Ok(Quad(pieces))
}

/// Coerces a form into piecewise quadratics; errors on non-numeric input or
/// on `DIST` inside arithmetic.
fn to_quad(f: TermForm, h: Horizon) -> FtlResult<Vec<QuadPiece>> {
    let full = h.span();
    match f {
        TermForm::Quad(p) => Ok(p),
        TermForm::Invariant(v) => match v.as_f64() {
            Some(x) => Ok(vec![QuadPiece::constant(full, x)]),
            None => Err(FtlError::Type(format!(
                "non-numeric value {v} used in arithmetic"
            ))),
        },
        TermForm::Values(series) => series
            .into_iter()
            .map(|(v, iv)| v.as_f64().map(|x| QuadPiece::constant(iv, x)))
            .collect::<Option<_>>()
            .ok_or_else(|| {
                FtlError::Type("non-numeric attribute series used in arithmetic".into())
            }),
        TermForm::SqrtQuad(_) => Err(FtlError::Unsupported(
            "DIST may not appear inside arithmetic; compare it directly".into(),
        )),
    }
}

/// Aligns two piecewise lists on their interval overlaps.
fn align(a: &[QuadPiece], b: &[QuadPiece]) -> Vec<(Interval, QuadPiece, QuadPiece)> {
    let mut out = Vec::new();
    for x in a {
        for y in b {
            if let Some(iv) = x.iv.intersect(y.iv) {
                out.push((iv, *x, *y));
            }
        }
    }
    out
}

/// The tick set on which `lhs op rhs` holds, for one instantiation: the
/// atom's comparison plan, evaluated once.
///
/// Exact at integer ticks.  Stored static values and constants are compared
/// value by value, which is the per-tick comparison itself; every other
/// solution is root-solved and then reconciled against per-tick evaluation
/// of the original terms.
pub fn compare_terms(
    ctx: &dyn EvalContext,
    env: &Env,
    op: CmpOp,
    lhs: &Term,
    rhs: &Term,
) -> FtlResult<IntervalSet> {
    CmpPlan::new(ctx, op, lhs, rhs).eval(ctx, env)
}

/// A comparison atom analysed once, then evaluated per instantiation.
/// Closed operands take their form once.  `v.A op c` (or `c op v.A`) for
/// a stored attribute `A` and a constant form `c` then costs one attribute
/// read and the per-value kernel; anything else takes the general path.
pub(crate) struct CmpPlan<'q> {
    h: Horizon,
    op: CmpOp,
    lhs: &'q Term,
    rhs: &'q Term,
    /// Each closed operand's form; one that fails (a division by zero) is
    /// rebuilt per instantiation, which reports its error.
    forms: [Option<TermForm>; 2],
    /// `(v, A, op', c)` with `op'` oriented so that `v.A op' c`.
    stored: Option<(&'q str, &'q str, CmpOp, Value)>,
}

impl<'q> CmpPlan<'q> {
    pub(crate) fn new(ctx: &dyn EvalContext, op: CmpOp, lhs: &'q Term, rhs: &'q Term) -> Self {
        let form = |term: &Term| is_closed(term).then(|| operand_form(ctx, &Env::new(), term).ok());
        let stored_attr = |term: &'q Term| match term {
            Term::Attr(base, a) if !is_motion_attr(a) => match base.as_ref() {
                Term::Var(v) => Some((v.as_str(), a.as_str())),
                _ => None,
            },
            _ => None,
        };
        let forms = [form(lhs).flatten(), form(rhs).flatten()];
        let stored = match (stored_attr(lhs), stored_attr(rhs), &forms) {
            (Some((v, a)), _, [_, Some(TermForm::Invariant(c))]) => Some((v, a, op, c.clone())),
            (_, Some((v, a)), [Some(TermForm::Invariant(c)), _]) => {
                Some((v, a, op.flipped(), c.clone()))
            }
            _ => None,
        };
        CmpPlan {
            h: ctx.horizon(),
            op,
            lhs,
            rhs,
            forms,
            stored,
        }
    }

    /// The tick set on which the atom holds under `env`.
    pub(crate) fn eval(&self, ctx: &dyn EvalContext, env: &Env) -> FtlResult<IntervalSet> {
        if let Some((var, attr, op, c)) = &self.stored {
            if let Some(&Value::Id(id)) = env.get(var) {
                match ctx.attr(id, attr) {
                    StoredAttr::Static(series) => {
                        return Ok(values_vs_const(*op, &series, c, self.h))
                    }
                    StoredAttr::Missing => return Ok(IntervalSet::empty()),
                    StoredAttr::Dynamic(_) => {}
                }
            }
        }
        self.solve(ctx, env)
    }

    /// The general path: both forms, then root solving and per-tick
    /// reconciliation unless both are stepwise.  Kept out of line so that
    /// the stored-attribute read above stays small.
    #[inline(never)]
    fn solve(&self, ctx: &dyn EvalContext, env: &Env) -> FtlResult<IntervalSet> {
        let (h, op, lhs, rhs) = (self.h, self.op, self.lhs, self.rhs);
        let form = |side: usize, term| match &self.forms[side] {
            Some(f) => Ok(Cow::Borrowed(f)),
            None => operand_form(ctx, env, term).map(Cow::Owned),
        };
        let fa = form(0, lhs)?;
        let fb = form(1, rhs)?;
        let candidate = compare_forms(op, &fa, &fb, h)?;
        if fa.is_stepwise() && fb.is_stepwise() {
            return Ok(candidate);
        }
        // Reconcile against the exact per-tick truth.
        let exact = |t: Tick| -> bool {
            let (a, b) = match (eval_term(ctx, env, lhs, t), eval_term(ctx, env, rhs, t)) {
                (Ok(a), Ok(b)) => (a, b),
                _ => return false,
            };
            if a == Value::Null || b == Value::Null {
                return false;
            }
            op.apply(&a, &b)
        };
        let real = RealIntervals::of(
            candidate
                .intervals()
                .iter()
                .map(|iv| most_spatial::roots::RealInterval {
                    lo: h.offset(iv.begin()),
                    hi: h.offset(iv.end()),
                })
                .collect(),
        );
        Ok(exact_ticks(&real, h, exact))
    }
}

/// Whether `term` is closed: constants and arithmetic on them alone (no
/// variable, attribute, `time` or `DIST`).
fn is_closed(term: &Term) -> bool {
    let mut closed = true;
    term.visit(&mut |t| closed &= matches!(t, Term::Const(_) | Term::Arith(..)));
    closed
}

/// The form of a comparison operand.  A closed term folds to its value,
/// taken from [`eval_term`], so `o.PRICE <= -1` (parsed `0 - 1`) meets the
/// per-value kernel as `o.PRICE <= 0` does instead of root solving.  A
/// fold that fails or leaves the finite numbers keeps the built form and
/// the error it reports (a division by zero).
fn operand_form(ctx: &dyn EvalContext, env: &Env, term: &Term) -> FtlResult<TermForm> {
    match is_closed(term).then(|| eval_term(ctx, env, term, ctx.horizon().start())) {
        Some(Ok(v)) if v.as_f64().is_some_and(f64::is_finite) => Ok(TermForm::Invariant(v)),
        _ => build_form(ctx, env, term),
    }
}

fn compare_forms(op: CmpOp, fa: &TermForm, fb: &TermForm, h: Horizon) -> FtlResult<IntervalSet> {
    use TermForm::*;
    match (fa, fb) {
        // Undefined on either side: unsatisfied.
        (Invariant(Value::Null), _) | (_, Invariant(Value::Null)) => Ok(IntervalSet::empty()),
        // Two constants (numeric or not): one comparison decides the whole
        // horizon.
        (Invariant(a), Invariant(b)) => Ok(if op.apply(a, b) {
            IntervalSet::full(h)
        } else {
            IntervalSet::empty()
        }),
        // Stored values vs a constant: the per-value kernel.
        (Values(series), Invariant(v)) => Ok(values_vs_const(op, series, v, h)),
        (Invariant(v), Values(series)) => Ok(values_vs_const(op.flipped(), series, v, h)),
        (Values(sa), Values(sb)) => {
            let pairs = sa.iter().flat_map(|(va, ia)| {
                sb.iter()
                    .filter(move |(vb, _)| cmp_defined(op, va, vb))
                    .filter_map(move |(_, ib)| ia.intersect(*ib))
            });
            Ok(within(h, pairs))
        }
        (Values(s), _) | (_, Values(s)) if s.iter().any(|(v, _)| v.as_f64().is_none()) => Err(
            FtlError::Type("comparison between a non-numeric series and a numeric term".into()),
        ),
        // sqrt vs sqrt: both sides non-negative, compare the radicands.
        (SqrtQuad(pa), SqrtQuad(pb)) => {
            solve_aligned(op, pa, pb, |op, iv, x, y| quad_cmp(op, iv, x, y, h))
        }
        // sqrt vs polynomial.
        (SqrtQuad(pa), _) => {
            let pb = to_quad(fb.clone(), h)?;
            solve_aligned(op, pa, &pb, |op, iv, q, r| sqrt_vs_quad(op, iv, q, r, h))
        }
        (_, SqrtQuad(pb)) => {
            let pa = to_quad(fa.clone(), h)?;
            solve_aligned(op.flipped(), pb, &pa, |op, iv, q, r| {
                sqrt_vs_quad(op, iv, q, r, h)
            })
        }
        // Polynomial vs polynomial (includes Invariant numerics).
        _ => {
            let pa = to_quad(fa.clone(), h)?;
            let pb = to_quad(fb.clone(), h)?;
            solve_aligned(op, &pa, &pb, |op, iv, x, y| quad_cmp(op, iv, x, y, h))
        }
    }
}

/// The per-value kernel: the intervals whose stored value satisfies `op`
/// against the constant `v`.
fn values_vs_const(op: CmpOp, series: &[(Value, Interval)], v: &Value, h: Horizon) -> IntervalSet {
    let kept = series.iter().filter(|(sv, _)| cmp_defined(op, sv, v));
    within(h, kept.map(|(_, iv)| *iv))
}

/// The ticks of `intervals` that lie on the horizon.
fn within(h: Horizon, intervals: impl Iterator<Item = Interval>) -> IntervalSet {
    let full = h.span();
    IntervalSet::from_intervals(intervals.filter_map(|iv| iv.intersect(full)))
}

fn solve_aligned(
    op: CmpOp,
    pa: &[QuadPiece],
    pb: &[QuadPiece],
    piece_solver: impl Fn(CmpOp, Interval, &QuadPiece, &QuadPiece) -> FtlResult<IntervalSet>,
) -> FtlResult<IntervalSet> {
    let mut out = IntervalSet::empty();
    for (iv, x, y) in align(pa, pb) {
        let sol = piece_solver(op, iv, &x, &y)?;
        out = out.union(&sol.intersect(&IntervalSet::singleton(iv)));
    }
    Ok(out)
}

/// Ticks in `iv` where `x(t) op y(t)` for two quadratics.
fn quad_cmp(
    op: CmpOp,
    iv: Interval,
    x: &QuadPiece,
    y: &QuadPiece,
    h: Horizon,
) -> FtlResult<IntervalSet> {
    let (da, db, dc) = (x.a - y.a, x.b - y.b, x.c - y.c);
    let (lo, hi) = (h.offset(iv.begin()), h.offset(iv.end()));
    let le = || {
        let sol = solve_quadratic_le(da, db, dc).clipped(lo, hi);
        exact_ticks(&sol, h, |t| x.eval(h.offset(t)) <= y.eval(h.offset(t)))
    };
    let ge = || {
        let sol = solve_quadratic_le(-da, -db, -dc).clipped(lo, hi);
        exact_ticks(&sol, h, |t| x.eval(h.offset(t)) >= y.eval(h.offset(t)))
    };
    let piece = IntervalSet::singleton(iv);
    Ok(match op {
        CmpOp::Le => le(),
        CmpOp::Ge => ge(),
        CmpOp::Eq => le().intersect(&ge()),
        CmpOp::Lt => piece.difference(&ge(), h),
        CmpOp::Gt => piece.difference(&le(), h),
        CmpOp::Ne => piece.difference(&le().intersect(&ge()), h),
    })
}

/// Ticks in `iv` where `sqrt(q(t)) op r(t)`; `r` must have degree ≤ 1 so
/// `r²` stays quadratic.
fn sqrt_vs_quad(
    op: CmpOp,
    iv: Interval,
    q: &QuadPiece,
    r: &QuadPiece,
    h: Horizon,
) -> FtlResult<IntervalSet> {
    if r.degree() > 1 {
        return Err(FtlError::Unsupported(
            "comparing DIST against a quadratic term would exceed quadratic degree".into(),
        ));
    }
    // r² = (r.b τ + r.c)²
    let (sa, sb, sc) = (r.b * r.b, 2.0 * r.b * r.c, r.c * r.c);
    let (lo, hi) = (h.offset(iv.begin()), h.offset(iv.end()));
    let tau = |t: Tick| h.offset(t);
    let piece = IntervalSet::singleton(iv);
    // ticks where r(t) >= 0 / <= 0 (linear).
    let r_nonneg = || {
        let sol = solve_quadratic_le(0.0, -r.b, -r.c).clipped(lo, hi);
        exact_ticks(&sol, h, |t| r.eval(tau(t)) >= 0.0)
    };
    let r_nonpos = || {
        let sol = solve_quadratic_le(0.0, r.b, r.c).clipped(lo, hi);
        exact_ticks(&sol, h, |t| r.eval(tau(t)) <= 0.0)
    };
    // ticks where q(t) <= r(t)² / >= r(t)².
    let q_le_r2 = || {
        let sol = solve_quadratic_le(q.a - sa, q.b - sb, q.c - sc).clipped(lo, hi);
        exact_ticks(&sol, h, |t| {
            let rv = r.eval(tau(t));
            q.eval(tau(t)) <= rv * rv
        })
    };
    let q_ge_r2 = || {
        let sol = solve_quadratic_le(sa - q.a, sb - q.b, sc - q.c).clipped(lo, hi);
        exact_ticks(&sol, h, |t| {
            let rv = r.eval(tau(t));
            q.eval(tau(t)) >= rv * rv
        })
    };
    let le = || r_nonneg().intersect(&q_le_r2());
    let ge = || r_nonpos().union(&q_ge_r2().intersect(&r_nonneg()));
    Ok(match op {
        CmpOp::Le => le(),
        CmpOp::Ge => ge(),
        CmpOp::Eq => le().intersect(&ge()),
        CmpOp::Lt => piece.difference(&ge(), h),
        CmpOp::Gt => piece.difference(&le(), h),
        CmpOp::Ne => piece.difference(&le().intersect(&ge()), h),
    })
}

/// The piecewise-constant value series of a term — the relation `Q` of the
/// appendix's assignment-quantifier case: `(value, ticks)` pairs.
///
/// Terms that vary continuously (positions, `time`, `DIST`) are rejected:
/// their value series has one entry per tick, which is the infinite-relation
/// case the paper defers ("for cases where these relations are infinite in
/// size, we need to use some finite representations").
pub fn value_series(
    ctx: &dyn EvalContext,
    env: &Env,
    term: &Term,
) -> FtlResult<Vec<(Value, IntervalSet)>> {
    let h = ctx.horizon();
    match build_form(ctx, env, term)? {
        TermForm::Invariant(v) => Ok(vec![(v, IntervalSet::full(h))]),
        TermForm::Values(series) => Ok(group_series(series)),
        TermForm::Quad(pieces) => {
            if pieces.iter().any(|p| p.degree() > 0) {
                return Err(FtlError::Unsupported(
                    "assignment of a continuously-varying term (bind sub-attributes such as SPEED instead, or use the bounded temporal operators)"
                        .into(),
                ));
            }
            Ok(group_series(
                pieces
                    .into_iter()
                    .map(|p| (Value::from(p.c), p.iv))
                    .collect(),
            ))
        }
        TermForm::SqrtQuad(_) => Err(FtlError::Unsupported(
            "assignment of DIST is continuously varying; compare it directly".into(),
        )),
    }
}

fn group_series(entries: Vec<(Value, Interval)>) -> Vec<(Value, IntervalSet)> {
    let mut grouped: Vec<(Value, Vec<Interval>)> = Vec::new();
    for (v, iv) in entries {
        match grouped.iter_mut().find(|(gv, _)| *gv == v) {
            Some((_, ivs)) => ivs.push(iv),
            None => grouped.push((v, vec![iv])),
        }
    }
    grouped
        .into_iter()
        .map(|(v, ivs)| (v, IntervalSet::from_intervals(ivs)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::MemoryContext;
    use most_spatial::{Point, Velocity};

    fn ctx() -> MemoryContext {
        let mut c = MemoryContext::new(100);
        c.add_object(
            1,
            Trajectory::starting_at(Point::new(0.0, 0.0), Velocity::new(1.0, 0.0)),
        );
        c.add_object(
            2,
            Trajectory::starting_at(Point::new(80.0, 0.0), Velocity::new(-1.0, 0.0)),
        );
        c.set_attr(1, "PRICE", 80.0);
        c
    }

    fn env2() -> Env {
        let mut e = Env::new();
        e.bind("o", Value::Id(1));
        e.bind("n", Value::Id(2));
        e
    }

    fn brute(c: &MemoryContext, env: &Env, op: CmpOp, l: &Term, r: &Term) -> IntervalSet {
        IntervalSet::from_predicate(c.horizon(), |t| {
            let a = eval_term(c, env, l, t).unwrap();
            let b = eval_term(c, env, r, t).unwrap();
            a != Value::Null && b != Value::Null && op.apply(&a, &b)
        })
    }

    #[test]
    fn position_comparison_linear() {
        let c = ctx();
        let env = env2();
        // o.X >= 30 from tick 30 onwards.
        let l = Term::attr(Term::var("o"), "X");
        let r = Term::val(30.0);
        for op in [
            CmpOp::Le,
            CmpOp::Lt,
            CmpOp::Ge,
            CmpOp::Gt,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            let got = compare_terms(&c, &env, op, &l, &r).unwrap();
            assert_eq!(got, brute(&c, &env, op, &l, &r), "{op:?}");
        }
    }

    #[test]
    fn dist_comparison_quadratic() {
        let c = ctx();
        let env = env2();
        // Objects approach head-on from 80 apart at closing speed 2.
        let l = Term::Dist(Box::new(Term::var("o")), Box::new(Term::var("n")));
        let r = Term::val(10.0);
        for op in [CmpOp::Le, CmpOp::Ge, CmpOp::Lt, CmpOp::Gt] {
            let got = compare_terms(&c, &env, op, &l, &r).unwrap();
            assert_eq!(got, brute(&c, &env, op, &l, &r), "{op:?}");
        }
        let le = compare_terms(&c, &env, CmpOp::Le, &l, &r).unwrap();
        assert_eq!(le.first_tick(), Some(35));
        assert_eq!(le.last_tick(), Some(45));
    }

    #[test]
    fn dist_vs_linear_term() {
        let c = ctx();
        let env = env2();
        // DIST(o, n) <= time: distance shrinks 80-2t, time grows.
        let l = Term::Dist(Box::new(Term::var("o")), Box::new(Term::var("n")));
        let r = Term::Time;
        let got = compare_terms(&c, &env, CmpOp::Le, &l, &r).unwrap();
        assert_eq!(got, brute(&c, &env, CmpOp::Le, &l, &r));
    }

    #[test]
    fn dist_vs_dist() {
        let c = ctx();
        let env = env2();
        let l = Term::Dist(Box::new(Term::var("o")), Box::new(Term::Point(0.0, 0.0)));
        let r = Term::Dist(Box::new(Term::var("n")), Box::new(Term::Point(0.0, 0.0)));
        for op in [CmpOp::Le, CmpOp::Ge] {
            let got = compare_terms(&c, &env, op, &l, &r).unwrap();
            assert_eq!(got, brute(&c, &env, op, &l, &r), "{op:?}");
        }
    }

    #[test]
    fn arithmetic_on_positions() {
        let c = ctx();
        let env = env2();
        // o.X + n.X is constant (80): equality holds everywhere.
        let l = Term::Arith(
            ArithOp::Add,
            Box::new(Term::attr(Term::var("o"), "X")),
            Box::new(Term::attr(Term::var("n"), "X")),
        );
        let r = Term::val(80.0);
        let got = compare_terms(&c, &env, CmpOp::Eq, &l, &r).unwrap();
        assert_eq!(got, IntervalSet::full(c.horizon()));
        // o.X * 2 <= 50 up to tick 25.
        let l = Term::Arith(
            ArithOp::Mul,
            Box::new(Term::attr(Term::var("o"), "X")),
            Box::new(Term::val(2.0)),
        );
        let r = Term::val(50.0);
        let got = compare_terms(&c, &env, CmpOp::Le, &l, &r).unwrap();
        assert_eq!(got, brute(&c, &env, CmpOp::Le, &l, &r));
        assert_eq!(got.last_tick(), Some(25));
    }

    #[test]
    fn linear_times_linear_is_quadratic() {
        let c = ctx();
        let env = env2();
        // o.X * n.X = t(80-t) <= 700  ⇔  t <= 10 or t >= 70.
        let l = Term::Arith(
            ArithOp::Mul,
            Box::new(Term::attr(Term::var("o"), "X")),
            Box::new(Term::attr(Term::var("n"), "X")),
        );
        let r = Term::val(700.0);
        let got = compare_terms(&c, &env, CmpOp::Le, &l, &r).unwrap();
        assert_eq!(got, brute(&c, &env, CmpOp::Le, &l, &r));
        assert_eq!(got.span_count(), 2);
    }

    #[test]
    fn unsupported_cubic_product() {
        let c = ctx();
        let env = env2();
        let x = Term::attr(Term::var("o"), "X");
        let sq = Term::Arith(ArithOp::Mul, Box::new(x.clone()), Box::new(x.clone()));
        let cubic = Term::Arith(ArithOp::Mul, Box::new(sq), Box::new(x));
        assert!(matches!(
            compare_terms(&c, &env, CmpOp::Le, &cubic, &Term::val(1.0)),
            Err(FtlError::Unsupported(_))
        ));
    }

    #[test]
    fn dist_inside_arithmetic_rejected() {
        let c = ctx();
        let env = env2();
        let d = Term::Dist(Box::new(Term::var("o")), Box::new(Term::var("n")));
        let t = Term::Arith(ArithOp::Add, Box::new(d), Box::new(Term::val(1.0)));
        assert!(matches!(
            compare_terms(&c, &env, CmpOp::Le, &t, &Term::val(10.0)),
            Err(FtlError::Unsupported(_))
        ));
    }

    #[test]
    fn missing_attribute_yields_empty() {
        let c = ctx();
        let env = env2();
        let l = Term::attr(Term::var("o"), "MISSING");
        let got = compare_terms(&c, &env, CmpOp::Le, &l, &Term::val(10.0)).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn piecewise_attr_series_comparison() {
        let mut c = ctx();
        c.set_attr_series(
            1,
            "STATUS",
            vec![
                (Value::from("moving"), Interval::new(0, 49)),
                (Value::from("parked"), Interval::new(50, 100)),
            ],
        );
        let env = env2();
        let l = Term::attr(Term::var("o"), "STATUS");
        let got = compare_terms(&c, &env, CmpOp::Eq, &l, &Term::val("parked")).unwrap();
        assert_eq!(got, IntervalSet::singleton(Interval::new(50, 100)));
        let got = compare_terms(&c, &env, CmpOp::Ne, &l, &Term::val("parked")).unwrap();
        assert_eq!(got, IntervalSet::singleton(Interval::new(0, 49)));
    }

    #[test]
    fn speed_series_for_assignment() {
        let mut c = MemoryContext::new(100);
        let mut traj = Trajectory::starting_at(Point::origin(), Velocity::new(5.0, 0.0));
        traj.update_velocity(30, Velocity::new(10.0, 0.0));
        c.add_object(1, traj);
        let mut env = Env::new();
        env.bind("o", Value::Id(1));
        let series = value_series(&c, &env, &Term::attr(Term::var("o"), "SPEED")).unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, Value::from(5.0));
        assert_eq!(series[1].0, Value::from(10.0));
        // Continuously varying terms are rejected.
        assert!(matches!(
            value_series(&c, &env, &Term::attr(Term::var("o"), "X")),
            Err(FtlError::Unsupported(_))
        ));
        assert!(matches!(
            value_series(&c, &env, &Term::Time),
            Err(FtlError::Unsupported(_))
        ));
    }

    #[test]
    fn piecewise_velocity_comparison() {
        let mut c = MemoryContext::new(100);
        let mut traj = Trajectory::starting_at(Point::origin(), Velocity::new(5.0, 0.0));
        traj.update_velocity(30, Velocity::new(10.0, 0.0));
        c.add_object(1, traj);
        let mut env = Env::new();
        env.bind("o", Value::Id(1));
        // The paper's Section 2.1 query: objects whose speed in X is 5.
        let got = compare_terms(
            &c,
            &env,
            CmpOp::Eq,
            &Term::attr(Term::var("o"), "VX"),
            &Term::val(5.0),
        )
        .unwrap();
        assert_eq!(got, IntervalSet::singleton(Interval::new(0, 29)));
    }

    #[test]
    fn arithmetic_on_constants_folds_to_one_value() {
        let c = ctx();
        let env = env2();
        let minus_one = Term::Arith(ArithOp::Sub, Box::new(Term::val(0)), Box::new(Term::val(1)));
        assert_eq!(
            operand_form(&c, &env, &minus_one).unwrap(),
            TermForm::Invariant(Value::from(-1.0))
        );
        let price = Term::attr(Term::var("o"), "PRICE");
        let below = Term::Arith(
            ArithOp::Sub,
            Box::new(Term::val(90)),
            Box::new(Term::val(5)),
        );
        assert_eq!(
            compare_terms(&c, &env, CmpOp::Le, &price, &below).unwrap(),
            brute(&c, &env, CmpOp::Le, &price, &below)
        );
        // Anything else keeps its form, and a division by zero its error.
        let shifted = Term::Arith(ArithOp::Add, Box::new(Term::Time), Box::new(Term::val(1)));
        assert!(matches!(
            operand_form(&c, &env, &shifted).unwrap(),
            TermForm::Quad(_)
        ));
        let by_zero = Term::Arith(ArithOp::Div, Box::new(Term::val(1)), Box::new(Term::val(0)));
        assert!(matches!(
            compare_terms(&c, &env, CmpOp::Le, &price, &by_zero),
            Err(FtlError::Type(_))
        ));
    }
}
