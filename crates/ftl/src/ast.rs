//! FTL abstract syntax: terms, formulas and queries.

use most_dbms::value::Value;
use std::fmt;

/// Comparison operators usable in atomic formulas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the comparison to two values (numeric coercion as in the
    /// substrate DBMS).
    pub fn apply(self, a: &Value, b: &Value) -> bool {
        let ord = a.query_cmp(b);
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => !ord.is_eq(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }

    /// The comparison with operands swapped (`a op b` ⇔ `b op.flip() a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// Arithmetic operators in terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A term: "a variable or the application of a function to other terms"
/// (Section 3.2).
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// A variable — an object variable (ranging over the database's
    /// objects) or a value variable bound by an assignment quantifier.
    Var(String),
    /// A constant.
    Const(Value),
    /// The special `time` database object (Section 2: "its value increases
    /// by one in each clock tick").
    Time,
    /// Attribute access `o.ATTR`.  The attribute names `X`, `Y`, `VX`,
    /// `VY` and `SPEED` denote the position coordinates and motion-vector
    /// sub-attributes of a moving object (the paper's
    /// `X.POSITION`, `X.POSITION.function` etc.); any other name is a
    /// static attribute.
    Attr(Box<Term>, String),
    /// `DIST(a, b)` — the distance method on two point terms.
    Dist(Box<Term>, Box<Term>),
    /// A literal stationary point `POINT(x, y)`.
    Point(f64, f64),
    /// Arithmetic on numeric terms.
    Arith(ArithOp, Box<Term>, Box<Term>),
}

impl Term {
    /// Variable helper.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    /// Constant helper.
    pub fn val(v: impl Into<Value>) -> Term {
        Term::Const(v.into())
    }

    /// `base.attr` helper.
    pub fn attr(base: Term, name: impl Into<String>) -> Term {
        Term::Attr(Box::new(base), name.into())
    }

    /// Free variables of the term, in first-occurrence order.
    pub fn free_vars(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Term::Var(v) => {
                if !out.contains(&v.as_str()) {
                    out.push(v);
                }
            }
            Term::Const(_) | Term::Time | Term::Point(..) => {}
            Term::Attr(b, _) => b.collect_vars(out),
            Term::Dist(a, b) | Term::Arith(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Pre-order walk over the term and every subterm.
    pub fn visit(&self, f: &mut impl FnMut(&Term)) {
        f(self);
        match self {
            Term::Var(_) | Term::Const(_) | Term::Time | Term::Point(..) => {}
            Term::Attr(b, _) => b.visit(f),
            Term::Dist(a, b) | Term::Arith(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
        }
    }

    /// Returns the term with variable `x` replaced by a constant.
    pub fn pin(&self, x: &str, v: &Value) -> Term {
        match self {
            Term::Var(name) if name == x => Term::Const(v.clone()),
            Term::Var(_) | Term::Const(_) | Term::Time | Term::Point(..) => self.clone(),
            Term::Attr(b, a) => Term::Attr(Box::new(b.pin(x, v)), a.clone()),
            Term::Dist(a, b) => Term::Dist(Box::new(a.pin(x, v)), Box::new(b.pin(x, v))),
            Term::Arith(op, a, b) => Term::Arith(*op, Box::new(a.pin(x, v)), Box::new(b.pin(x, v))),
        }
    }
}

/// An FTL formula (Section 3.2 syntax; `Or`/`Not` are the extensions
/// discussed in DESIGN.md D3 — the paper's processing algorithm covers the
/// conjunctive fragment).
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    /// Boolean constant.
    Bool(bool),
    /// Comparison atom `t1 op t2`.
    Cmp(CmpOp, Term, Term),
    /// `INSIDE(o, R)` — point term inside the named region.
    Inside(Term, String),
    /// `OUTSIDE(o, R)` — point term outside the named region.
    Outside(Term, String),
    /// `INSIDE(o, R, anchor)` — the region `R` (defined in world
    /// coordinates at evaluation time) moves "as a rigid body having the
    /// motion vector of" the anchor object (Section 1's circle drawn around
    /// the car).
    InsideMoving(Term, String, Term),
    /// `OUTSIDE(o, R, anchor)` — complement of [`Formula::InsideMoving`].
    OutsideMoving(Term, String, Term),
    /// `WITHIN_SPHERE(r, o1, ..., ok)` — the point terms fit in a sphere of
    /// radius `r`.
    WithinSphere(f64, Vec<Term>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction (extension).
    Or(Box<Formula>, Box<Formula>),
    /// Negation (extension; evaluated under active-domain semantics).
    Not(Box<Formula>),
    /// `f Until g`.
    Until(Box<Formula>, Box<Formula>),
    /// `Nexttime f`.
    Nexttime(Box<Formula>),
    /// `Eventually f` (= `true Until f`).
    Eventually(Box<Formula>),
    /// `Always f` (= `¬ Eventually ¬ f`).
    Always(Box<Formula>),
    /// `Eventually within c (f)` (Section 3.4).
    EventuallyWithin(u64, Box<Formula>),
    /// `Eventually after c (f)` (Section 3.4).
    EventuallyAfter(u64, Box<Formula>),
    /// `Always for c (f)` (Section 3.4).
    AlwaysFor(u64, Box<Formula>),
    /// `f until_within c g` (Section 3.4).
    UntilWithin(u64, Box<Formula>, Box<Formula>),
    /// Assignment quantifier `[x ← term] f` — "binds a variable to the
    /// result of a query in one of the database states of the history".
    Assign(String, Term, Box<Formula>),
}

impl Formula {
    /// `self AND other`.
    pub fn and(self, other: Formula) -> Formula {
        Formula::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Formula) -> Formula {
        Formula::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    pub fn negate(self) -> Formula {
        Formula::Not(Box::new(self))
    }

    /// `self Until other`.
    pub fn until(self, other: Formula) -> Formula {
        Formula::Until(Box::new(self), Box::new(other))
    }

    /// Free variables in first-occurrence order ("a variable is free if it
    /// is not in the scope of an assignment quantifier").
    pub fn free_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_free(&mut Vec::new(), &mut out);
        out
    }

    fn collect_free(&self, bound: &mut Vec<String>, out: &mut Vec<String>) {
        let push_term = |t: &Term, bound: &Vec<String>, out: &mut Vec<String>| {
            for v in t.free_vars() {
                if !bound.iter().any(|b| b == v) && !out.iter().any(|o| o == v) {
                    out.push(v.to_owned());
                }
            }
        };
        match self {
            Formula::Bool(_) => {}
            Formula::Cmp(_, a, b) => {
                push_term(a, bound, out);
                push_term(b, bound, out);
            }
            Formula::Inside(t, _) | Formula::Outside(t, _) => push_term(t, bound, out),
            Formula::InsideMoving(t, _, a) | Formula::OutsideMoving(t, _, a) => {
                push_term(t, bound, out);
                push_term(a, bound, out);
            }
            Formula::WithinSphere(_, ts) => {
                for t in ts {
                    push_term(t, bound, out);
                }
            }
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Until(a, b) => {
                a.collect_free(bound, out);
                b.collect_free(bound, out);
            }
            Formula::UntilWithin(_, a, b) => {
                a.collect_free(bound, out);
                b.collect_free(bound, out);
            }
            Formula::Not(a)
            | Formula::Nexttime(a)
            | Formula::Eventually(a)
            | Formula::Always(a)
            | Formula::EventuallyWithin(_, a)
            | Formula::EventuallyAfter(_, a)
            | Formula::AlwaysFor(_, a) => a.collect_free(bound, out),
            Formula::Assign(x, term, f) => {
                push_term(term, bound, out);
                bound.push(x.clone());
                f.collect_free(bound, out);
                bound.pop();
            }
        }
    }

    /// Pre-order walk over the formula and every subformula (terms are not
    /// descended into — pair with [`Formula::visit_terms`] /
    /// [`Term::visit`] for that).  This is the visitor that static analyses
    /// such as `most-core`'s dependency-set extraction are built on.
    pub fn visit(&self, f: &mut impl FnMut(&Formula)) {
        f(self);
        match self {
            Formula::Bool(_)
            | Formula::Cmp(..)
            | Formula::Inside(..)
            | Formula::Outside(..)
            | Formula::InsideMoving(..)
            | Formula::OutsideMoving(..)
            | Formula::WithinSphere(..) => {}
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Until(a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Formula::UntilWithin(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Formula::Not(a)
            | Formula::Nexttime(a)
            | Formula::Eventually(a)
            | Formula::Always(a)
            | Formula::EventuallyWithin(_, a)
            | Formula::EventuallyAfter(_, a)
            | Formula::AlwaysFor(_, a) => a.visit(f),
            Formula::Assign(_, _, body) => body.visit(f),
        }
    }

    /// Calls `f` once for every top-level term of every atom in the
    /// formula (including assignment source terms).  Use [`Term::visit`] on
    /// each to reach subterms.
    pub fn visit_terms(&self, f: &mut impl FnMut(&Term)) {
        self.visit(&mut |g| match g {
            Formula::Cmp(_, a, b) => {
                f(a);
                f(b);
            }
            Formula::Inside(t, _) | Formula::Outside(t, _) => f(t),
            Formula::InsideMoving(t, _, a) | Formula::OutsideMoving(t, _, a) => {
                f(t);
                f(a);
            }
            Formula::WithinSphere(_, ts) => {
                for t in ts {
                    f(t);
                }
            }
            Formula::Assign(_, term, _) => f(term),
            _ => {}
        });
    }

    /// Whether some term is an object constant (`Term::Const(Value::Id(_))`,
    /// only constructible programmatically: the grammar has no id
    /// literals).  Such a term reads an object no variable binds.
    pub fn mentions_object_constant(&self) -> bool {
        let mut found = false;
        self.visit_terms(&mut |t| {
            t.visit(&mut |s| found |= matches!(s, Term::Const(Value::Id(_))))
        });
        found
    }

    /// Whether the formula is conjunctive (no negation / disjunction) — the
    /// fragment for which the paper states its algorithm.
    pub fn is_conjunctive(&self) -> bool {
        match self {
            Formula::Not(_) | Formula::Or(..) => false,
            Formula::Bool(_)
            | Formula::Cmp(..)
            | Formula::Inside(..)
            | Formula::Outside(..)
            | Formula::InsideMoving(..)
            | Formula::OutsideMoving(..)
            | Formula::WithinSphere(..) => true,
            Formula::And(a, b) | Formula::Until(a, b) | Formula::UntilWithin(_, a, b) => {
                a.is_conjunctive() && b.is_conjunctive()
            }
            Formula::Nexttime(a)
            | Formula::Eventually(a)
            | Formula::Always(a)
            | Formula::EventuallyWithin(_, a)
            | Formula::EventuallyAfter(_, a)
            | Formula::AlwaysFor(_, a)
            | Formula::Assign(_, _, a) => a.is_conjunctive(),
        }
    }

    /// Returns the formula with variable `x` pinned to a constant value
    /// (used to evaluate the assignment quantifier).
    pub fn pin(&self, x: &str, v: &Value) -> Formula {
        match self {
            Formula::Bool(b) => Formula::Bool(*b),
            Formula::Cmp(op, a, b) => Formula::Cmp(*op, a.pin(x, v), b.pin(x, v)),
            Formula::Inside(t, r) => Formula::Inside(t.pin(x, v), r.clone()),
            Formula::Outside(t, r) => Formula::Outside(t.pin(x, v), r.clone()),
            Formula::InsideMoving(t, r, a) => {
                Formula::InsideMoving(t.pin(x, v), r.clone(), a.pin(x, v))
            }
            Formula::OutsideMoving(t, r, a) => {
                Formula::OutsideMoving(t.pin(x, v), r.clone(), a.pin(x, v))
            }
            Formula::WithinSphere(r, ts) => {
                Formula::WithinSphere(*r, ts.iter().map(|t| t.pin(x, v)).collect())
            }
            Formula::And(a, b) => a.pin(x, v).and(b.pin(x, v)),
            Formula::Or(a, b) => a.pin(x, v).or(b.pin(x, v)),
            Formula::Not(a) => a.pin(x, v).negate(),
            Formula::Until(a, b) => a.pin(x, v).until(b.pin(x, v)),
            Formula::UntilWithin(c, a, b) => {
                Formula::UntilWithin(*c, Box::new(a.pin(x, v)), Box::new(b.pin(x, v)))
            }
            Formula::Nexttime(a) => Formula::Nexttime(Box::new(a.pin(x, v))),
            Formula::Eventually(a) => Formula::Eventually(Box::new(a.pin(x, v))),
            Formula::Always(a) => Formula::Always(Box::new(a.pin(x, v))),
            Formula::EventuallyWithin(c, a) => Formula::EventuallyWithin(*c, Box::new(a.pin(x, v))),
            Formula::EventuallyAfter(c, a) => Formula::EventuallyAfter(*c, Box::new(a.pin(x, v))),
            Formula::AlwaysFor(c, a) => Formula::AlwaysFor(*c, Box::new(a.pin(x, v))),
            Formula::Assign(y, term, f) if y != x => {
                Formula::Assign(y.clone(), term.pin(x, v), Box::new(f.pin(x, v)))
            }
            // Shadowing: the inner x is a different variable; only the term
            // (evaluated in the outer scope) sees the pin.
            Formula::Assign(y, term, f) => Formula::Assign(y.clone(), term.pin(x, v), f.clone()),
        }
    }
}

/// A complete FTL query: `RETRIEVE <targets> WHERE <formula>`.
///
/// ```
/// use most_ftl::Query;
///
/// let q = Query::parse(
///     "RETRIEVE o, n WHERE DIST(o, n) <= 5 Until (INSIDE(o, P) AND INSIDE(n, P))",
/// )
/// .unwrap();
/// assert_eq!(q.targets, vec!["o", "n"]);
/// assert!(q.formula.is_conjunctive());
/// // Display round-trips through the parser.
/// assert_eq!(Query::parse(&q.to_string()).unwrap(), q);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The target list (free variables whose instantiations are returned).
    pub targets: Vec<String>,
    /// The WHERE condition.
    pub formula: Formula,
}

impl Query {
    /// Parses a query from the concrete syntax (see [`crate::parser`]).
    pub fn parse(src: &str) -> crate::error::FtlResult<Query> {
        crate::parser::parse_query(src)
    }

    /// Parses a bare formula (no RETRIEVE clause).
    pub fn parse_formula(src: &str) -> crate::error::FtlResult<Formula> {
        crate::parser::parse_formula(src)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(v) => write!(f, "{v}"),
            Term::Time => write!(f, "time"),
            Term::Attr(b, a) => write!(f, "{b}.{a}"),
            Term::Dist(a, b) => write!(f, "DIST({a}, {b})"),
            Term::Point(x, y) => write!(f, "POINT({x}, {y})"),
            Term::Arith(op, a, b) => {
                let s = match op {
                    ArithOp::Add => "+",
                    ArithOp::Sub => "-",
                    ArithOp::Mul => "*",
                    ArithOp::Div => "/",
                };
                write!(f, "({a} {s} {b})")
            }
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Bool(b) => write!(f, "{b}"),
            Formula::Cmp(op, a, b) => {
                let s = match op {
                    CmpOp::Eq => "=",
                    CmpOp::Ne => "<>",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                };
                write!(f, "{a} {s} {b}")
            }
            Formula::Inside(t, r) => write!(f, "INSIDE({t}, {r})"),
            Formula::Outside(t, r) => write!(f, "OUTSIDE({t}, {r})"),
            Formula::InsideMoving(t, r, a) => write!(f, "INSIDE({t}, {r}, {a})"),
            Formula::OutsideMoving(t, r, a) => write!(f, "OUTSIDE({t}, {r}, {a})"),
            Formula::WithinSphere(r, ts) => {
                write!(f, "WITHIN_SPHERE({r}")?;
                for t in ts {
                    write!(f, ", {t}")?;
                }
                write!(f, ")")
            }
            Formula::And(a, b) => write!(f, "({a} AND {b})"),
            Formula::Or(a, b) => write!(f, "({a} OR {b})"),
            Formula::Not(a) => write!(f, "(NOT {a})"),
            Formula::Until(a, b) => write!(f, "({a} Until {b})"),
            Formula::UntilWithin(c, a, b) => write!(f, "({a} until_within {c} {b})"),
            Formula::Nexttime(a) => write!(f, "Nexttime ({a})"),
            Formula::Eventually(a) => write!(f, "Eventually ({a})"),
            Formula::Always(a) => write!(f, "Always ({a})"),
            Formula::EventuallyWithin(c, a) => write!(f, "Eventually within {c} ({a})"),
            Formula::EventuallyAfter(c, a) => write!(f, "Eventually after {c} ({a})"),
            Formula::AlwaysFor(c, a) => write!(f, "Always for {c} ({a})"),
            Formula::Assign(x, t, a) => write!(f, "[{x} <- {t}] ({a})"),
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RETRIEVE {} WHERE {}",
            self.targets.join(", "),
            self.formula
        )
    }
}

most_testkit::json_enum!(CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge
});
most_testkit::json_enum!(ArithOp { Add, Sub, Mul, Div });
most_testkit::json_enum!(Term {
    Var(name),
    Const(v),
    Time,
    Attr(base, attr),
    Dist(a, b),
    Point(x, y),
    Arith(op, a, b),
});
most_testkit::json_enum!(Formula {
    Bool(b),
    Cmp(op, a, b),
    Inside(t, region),
    Outside(t, region),
    InsideMoving(t, region, anchor),
    OutsideMoving(t, region, anchor),
    WithinSphere(radius, terms),
    And(a, b),
    Or(a, b),
    Not(f),
    Until(a, b),
    Nexttime(f),
    Eventually(f),
    Always(f),
    EventuallyWithin(c, f),
    EventuallyAfter(c, f),
    AlwaysFor(c, f),
    UntilWithin(c, a, b),
    Assign(var, term, f),
});
most_testkit::json_struct!(Query { targets, formula });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_free_vars_dedup_in_order() {
        let t = Term::Arith(
            ArithOp::Add,
            Box::new(Term::Dist(
                Box::new(Term::var("o")),
                Box::new(Term::var("n")),
            )),
            Box::new(Term::attr(Term::var("o"), "PRICE")),
        );
        assert_eq!(t.free_vars(), vec!["o", "n"]);
    }

    #[test]
    fn formula_free_vars_respect_assignment_scope() {
        // [x <- o.SPEED] (n.SPEED = x): free are o (term) and n; x is bound.
        let f = Formula::Assign(
            "x".into(),
            Term::attr(Term::var("o"), "SPEED"),
            Box::new(Formula::Cmp(
                CmpOp::Eq,
                Term::attr(Term::var("n"), "SPEED"),
                Term::var("x"),
            )),
        );
        assert_eq!(f.free_vars(), vec!["o", "n"]);
    }

    #[test]
    fn shadowed_assignment_keeps_inner_binding() {
        // [x <- 1] ([x <- 2] (x = 2)): pinning outer x must not touch the
        // inner body.
        let inner = Formula::Assign(
            "x".into(),
            Term::val(2i64),
            Box::new(Formula::Cmp(CmpOp::Eq, Term::var("x"), Term::val(2i64))),
        );
        let pinned = inner.pin("x", &Value::Int(1));
        // Inner body unchanged.
        match pinned {
            Formula::Assign(_, _, body) => {
                assert_eq!(
                    *body,
                    Formula::Cmp(CmpOp::Eq, Term::var("x"), Term::val(2i64))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn conjunctive_detection() {
        let atom = Formula::Cmp(
            CmpOp::Le,
            Term::attr(Term::var("o"), "PRICE"),
            Term::val(100i64),
        );
        assert!(atom.is_conjunctive());
        assert!(atom.clone().and(atom.clone()).is_conjunctive());
        assert!(Formula::Eventually(Box::new(atom.clone())).is_conjunctive());
        assert!(!atom.clone().negate().is_conjunctive());
        assert!(!atom.clone().or(atom.clone()).is_conjunctive());
    }

    #[test]
    fn pin_replaces_everywhere_outside_shadow() {
        let f = Formula::Cmp(
            CmpOp::Gt,
            Term::var("x"),
            Term::Arith(
                ArithOp::Mul,
                Box::new(Term::val(2i64)),
                Box::new(Term::var("x")),
            ),
        );
        let p = f.pin("x", &Value::Int(3));
        assert_eq!(p.free_vars(), Vec::<String>::new());
    }

    #[test]
    fn display_round_trip_shapes() {
        let f = Formula::EventuallyWithin(3, Box::new(Formula::Inside(Term::var("o"), "P".into())));
        assert_eq!(f.to_string(), "Eventually within 3 (INSIDE(o, P))");
        let q = Query {
            targets: vec!["o".into()],
            formula: f,
        };
        assert!(q.to_string().starts_with("RETRIEVE o WHERE"));
    }

    #[test]
    fn cmp_flip() {
        assert_eq!(CmpOp::Lt.flipped(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.flipped(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.flipped(), CmpOp::Eq);
        assert!(CmpOp::Le.apply(&Value::Int(1), &Value::from(1.0)));
        assert!(CmpOp::Ne.apply(&Value::Int(1), &Value::Int(2)));
    }
}
