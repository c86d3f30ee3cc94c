//! Recursive-descent parser for FTL.
//!
//! Grammar (lowest to highest precedence):
//!
//! ```text
//! query    := RETRIEVE ident (',' ident)* WHERE formula
//! formula  := or_f (Until or_f | until_within INT or_f)?      (right assoc)
//! or_f     := and_f (OR and_f)*
//! and_f    := unary (AND unary)*
//! unary    := NOT unary
//!           | Nexttime unary
//!           | Eventually (within INT | after INT)? unary
//!           | Always (for INT)? unary
//!           | '[' ident '<-' term ']' unary
//!           | primary
//! primary  := true | false
//!           | INSIDE '(' term ',' region [',' term] ')'   -- anchor => moving region
//!           | OUTSIDE '(' term ',' region [',' term] ')'
//!           | WITHIN_SPHERE '(' number (',' term)+ ')'
//!           | '(' formula ')'            (backtracks to a term comparison)
//!           | term cmp term
//! region   := ident                                  -- registered region
//!           | RECT '(' n ',' n ',' n ',' n ')'       -- inline, desugars
//!           | CIRCLE '(' n ',' n ',' n ')'           -- inline, desugars
//! term     := mul (('+'|'-') mul)*
//! mul      := factor (('*'|'/') factor)*
//! factor   := '-' factor | number | string | time
//!           | DIST '(' term ',' term ')' | POINT '(' snumber ',' snumber ')'
//!           | ident ('.' ident)* | '(' term ')'
//! ```

use crate::ast::{ArithOp, CmpOp, Formula, Query, Term};
use crate::error::{FtlError, FtlResult};
use crate::lexer::{tokenize, Spanned, Token};
use most_dbms::value::Value;

/// Parses a complete `RETRIEVE ... WHERE ...` query.
pub fn parse_query(src: &str) -> FtlResult<Query> {
    let tokens = tokenize(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        src_len: src.len(),
    };
    let q = p.query()?;
    p.expect_end()?;
    Ok(q)
}

/// Parses a bare formula.
pub fn parse_formula(src: &str) -> FtlResult<Formula> {
    let tokens = tokenize(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        src_len: src.len(),
    };
    let f = p.formula()?;
    p.expect_end()?;
    Ok(f)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    src_len: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|s| s.offset)
            .unwrap_or(self.src_len)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Token) -> FtlResult<()> {
        if self.eat(&t) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {t}, found {}",
                self.peek()
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "end of input".into())
            )))
        }
    }

    fn expect_end(&mut self) -> FtlResult<()> {
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(self.err(format!("unexpected {t} after the formula"))),
        }
    }

    fn err(&self, message: impl Into<String>) -> FtlError {
        FtlError::parse(message, self.offset())
    }

    fn ident(&mut self) -> FtlResult<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.err(format!(
                "expected identifier, found {}",
                other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    fn duration(&mut self) -> FtlResult<u64> {
        match self.next() {
            Some(Token::Int(n)) => Ok(n),
            other => Err(self.err(format!(
                "expected a tick count, found {}",
                other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    fn number(&mut self) -> FtlResult<f64> {
        let neg = self.eat(&Token::Minus);
        let v = match self.next() {
            Some(Token::Int(n)) => n as f64,
            Some(Token::Float(x)) => x,
            other => {
                return Err(self.err(format!(
                    "expected a number, found {}",
                    other
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "end of input".into())
                )))
            }
        };
        Ok(if neg { -v } else { v })
    }

    fn query(&mut self) -> FtlResult<Query> {
        self.expect(Token::Retrieve)?;
        let mut targets = vec![self.ident()?];
        while self.eat(&Token::Comma) {
            targets.push(self.ident()?);
        }
        self.expect(Token::Where)?;
        let formula = self.formula()?;
        Ok(Query { targets, formula })
    }

    fn formula(&mut self) -> FtlResult<Formula> {
        let left = self.or_formula()?;
        if self.eat(&Token::Until) {
            let right = self.formula()?; // right associative
            Ok(left.until(right))
        } else if self.eat(&Token::UntilWithin) {
            let c = self.duration()?;
            let right = self.formula()?;
            Ok(Formula::UntilWithin(c, Box::new(left), Box::new(right)))
        } else {
            Ok(left)
        }
    }

    fn or_formula(&mut self) -> FtlResult<Formula> {
        let mut f = self.and_formula()?;
        while self.eat(&Token::Or) {
            f = f.or(self.and_formula()?);
        }
        Ok(f)
    }

    fn and_formula(&mut self) -> FtlResult<Formula> {
        let mut f = self.unary_formula()?;
        while self.eat(&Token::And) {
            f = f.and(self.unary_formula()?);
        }
        Ok(f)
    }

    fn unary_formula(&mut self) -> FtlResult<Formula> {
        match self.peek() {
            Some(Token::Not) => {
                self.pos += 1;
                Ok(self.unary_formula()?.negate())
            }
            Some(Token::Nexttime) => {
                self.pos += 1;
                Ok(Formula::Nexttime(Box::new(self.unary_formula()?)))
            }
            Some(Token::Eventually) => {
                self.pos += 1;
                if self.eat(&Token::Within) {
                    let c = self.duration()?;
                    Ok(Formula::EventuallyWithin(
                        c,
                        Box::new(self.unary_formula()?),
                    ))
                } else if self.eat(&Token::After) {
                    let c = self.duration()?;
                    Ok(Formula::EventuallyAfter(c, Box::new(self.unary_formula()?)))
                } else {
                    Ok(Formula::Eventually(Box::new(self.unary_formula()?)))
                }
            }
            Some(Token::Always) => {
                self.pos += 1;
                if self.eat(&Token::For) {
                    let c = self.duration()?;
                    Ok(Formula::AlwaysFor(c, Box::new(self.unary_formula()?)))
                } else {
                    Ok(Formula::Always(Box::new(self.unary_formula()?)))
                }
            }
            Some(Token::LBracket) => {
                self.pos += 1;
                let x = self.ident()?;
                self.expect(Token::Assign)?;
                let term = self.term()?;
                self.expect(Token::RBracket)?;
                Ok(Formula::Assign(x, term, Box::new(self.unary_formula()?)))
            }
            _ => self.primary_formula(),
        }
    }

    fn primary_formula(&mut self) -> FtlResult<Formula> {
        match self.peek() {
            Some(Token::True) => {
                self.pos += 1;
                Ok(Formula::Bool(true))
            }
            Some(Token::False) => {
                self.pos += 1;
                Ok(Formula::Bool(false))
            }
            Some(Token::Inside) => {
                self.pos += 1;
                self.expect(Token::LParen)?;
                let t = self.term()?;
                self.expect(Token::Comma)?;
                let f = self.region_operand(t, false)?;
                self.expect(Token::RParen)?;
                Ok(f)
            }
            Some(Token::Outside) => {
                self.pos += 1;
                self.expect(Token::LParen)?;
                let t = self.term()?;
                self.expect(Token::Comma)?;
                let f = self.region_operand(t, true)?;
                self.expect(Token::RParen)?;
                Ok(f)
            }
            Some(Token::WithinSphere) => {
                self.pos += 1;
                self.expect(Token::LParen)?;
                let r = self.number()?;
                let mut terms = Vec::new();
                while self.eat(&Token::Comma) {
                    terms.push(self.term()?);
                }
                self.expect(Token::RParen)?;
                if terms.is_empty() {
                    return Err(self.err("WITHIN_SPHERE needs at least one point term"));
                }
                Ok(Formula::WithinSphere(r, terms))
            }
            Some(Token::LParen) => {
                // Could be a parenthesized formula or a parenthesized term
                // beginning a comparison; try the formula first, backtrack
                // on failure or when a comparison operator follows.
                let save = self.pos;
                self.pos += 1;
                if let Ok(f) = self.formula() {
                    if self.eat(&Token::RParen) && !self.peek_is_cmp_or_arith() {
                        return Ok(f);
                    }
                }
                self.pos = save;
                self.comparison()
            }
            _ => self.comparison(),
        }
    }

    /// The second operand of `INSIDE` / `OUTSIDE`: a registered region name,
    /// or one of the inline literals `RECT(x0, y0, x1, y1)` /
    /// `CIRCLE(cx, cy, r)`, which desugar to coordinate comparisons and a
    /// `DIST` bound respectively (so the evaluator sees only core atoms).
    fn region_operand(&mut self, point: Term, negated: bool) -> FtlResult<Formula> {
        let name = self.ident()?;
        let inner = match name.to_ascii_uppercase().as_str() {
            "RECT" if self.peek() == Some(&Token::LParen) => {
                self.pos += 1;
                let x0 = self.number()?;
                self.expect(Token::Comma)?;
                let y0 = self.number()?;
                self.expect(Token::Comma)?;
                let x1 = self.number()?;
                self.expect(Token::Comma)?;
                let y1 = self.number()?;
                self.expect(Token::RParen)?;
                let (x0, x1) = if x0 <= x1 { (x0, x1) } else { (x1, x0) };
                let (y0, y1) = if y0 <= y1 { (y0, y1) } else { (y1, y0) };
                let x = Term::attr(point.clone(), "X");
                let y = Term::attr(point, "Y");
                Formula::Cmp(CmpOp::Ge, x.clone(), Term::val(x0))
                    .and(Formula::Cmp(CmpOp::Le, x, Term::val(x1)))
                    .and(Formula::Cmp(CmpOp::Ge, y.clone(), Term::val(y0)))
                    .and(Formula::Cmp(CmpOp::Le, y, Term::val(y1)))
            }
            "CIRCLE" if self.peek() == Some(&Token::LParen) => {
                self.pos += 1;
                let cx = self.number()?;
                self.expect(Token::Comma)?;
                let cy = self.number()?;
                self.expect(Token::Comma)?;
                let r = self.number()?;
                self.expect(Token::RParen)?;
                Formula::Cmp(
                    CmpOp::Le,
                    Term::Dist(Box::new(point), Box::new(Term::Point(cx, cy))),
                    Term::val(r),
                )
            }
            _ => {
                // Optional third argument: the region moves rigidly with an
                // anchor object (Section 1's circle drawn around the car).
                if self.eat(&Token::Comma) {
                    let anchor = self.term()?;
                    return Ok(if negated {
                        Formula::OutsideMoving(point, name, anchor)
                    } else {
                        Formula::InsideMoving(point, name, anchor)
                    });
                }
                return Ok(if negated {
                    Formula::Outside(point, name)
                } else {
                    Formula::Inside(point, name)
                });
            }
        };
        Ok(if negated { inner.negate() } else { inner })
    }

    fn peek_is_cmp_or_arith(&self) -> bool {
        matches!(
            self.peek(),
            Some(
                Token::Eq
                    | Token::Ne
                    | Token::Lt
                    | Token::Le
                    | Token::Gt
                    | Token::Ge
                    | Token::Plus
                    | Token::Minus
                    | Token::Star
                    | Token::Slash
            )
        )
    }

    fn comparison(&mut self) -> FtlResult<Formula> {
        let lhs = self.term()?;
        let op = match self.next() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            other => {
                return Err(self.err(format!(
                    "expected comparison operator, found {}",
                    other
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "end of input".into())
                )))
            }
        };
        let rhs = self.term()?;
        Ok(Formula::Cmp(op, lhs, rhs))
    }

    fn term(&mut self) -> FtlResult<Term> {
        let mut t = self.mul_term()?;
        loop {
            if self.eat(&Token::Plus) {
                t = Term::Arith(ArithOp::Add, Box::new(t), Box::new(self.mul_term()?));
            } else if self.eat(&Token::Minus) {
                t = Term::Arith(ArithOp::Sub, Box::new(t), Box::new(self.mul_term()?));
            } else {
                return Ok(t);
            }
        }
    }

    fn mul_term(&mut self) -> FtlResult<Term> {
        let mut t = self.factor()?;
        loop {
            if self.eat(&Token::Star) {
                t = Term::Arith(ArithOp::Mul, Box::new(t), Box::new(self.factor()?));
            } else if self.eat(&Token::Slash) {
                t = Term::Arith(ArithOp::Div, Box::new(t), Box::new(self.factor()?));
            } else {
                return Ok(t);
            }
        }
    }

    fn factor(&mut self) -> FtlResult<Term> {
        match self.next() {
            Some(Token::Minus) => {
                let inner = self.factor()?;
                Ok(Term::Arith(
                    ArithOp::Sub,
                    Box::new(Term::Const(Value::Int(0))),
                    Box::new(inner),
                ))
            }
            Some(Token::Int(n)) => Ok(Term::Const(Value::Int(n as i64))),
            Some(Token::Float(x)) => Ok(Term::Const(Value::from(x))),
            Some(Token::Str(s)) => Ok(Term::Const(Value::Str(s))),
            Some(Token::Time) => Ok(Term::Time),
            Some(Token::Dist) => {
                self.expect(Token::LParen)?;
                let a = self.term()?;
                self.expect(Token::Comma)?;
                let b = self.term()?;
                self.expect(Token::RParen)?;
                Ok(Term::Dist(Box::new(a), Box::new(b)))
            }
            Some(Token::Point) => {
                self.expect(Token::LParen)?;
                let x = self.number()?;
                self.expect(Token::Comma)?;
                let y = self.number()?;
                self.expect(Token::RParen)?;
                Ok(Term::Point(x, y))
            }
            Some(Token::Ident(name)) => {
                let mut t = Term::Var(name);
                while self.eat(&Token::Dot) {
                    let attr = self.ident()?;
                    t = Term::Attr(Box::new(t), attr);
                }
                Ok(t)
            }
            Some(Token::LParen) => {
                let t = self.term()?;
                self.expect(Token::RParen)?;
                Ok(t)
            }
            other => Err(self.err(format!(
                "expected a term, found {}",
                other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "end of input".into())
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_query_ii() {
        // Example (II) of Section 3.4.
        let q = parse_query(
            "RETRIEVE o WHERE Eventually within 3 ((INSIDE(o, P) AND Always for 2 INSIDE(o, P)))",
        )
        .unwrap();
        assert_eq!(q.targets, vec!["o"]);
        match q.formula {
            Formula::EventuallyWithin(3, inner) => match *inner {
                Formula::And(a, b) => {
                    assert_eq!(*a, Formula::Inside(Term::var("o"), "P".into()));
                    assert!(matches!(*b, Formula::AlwaysFor(2, _)));
                }
                other => panic!("unexpected {other}"),
            },
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn paper_until_query() {
        // Section 3.2: DIST(o, n) <= 5 Until (INSIDE(o, P) AND INSIDE(n, P))
        let q = parse_query(
            "RETRIEVE o, n WHERE DIST(o, n) <= 5 Until (INSIDE(o, P) AND INSIDE(n, P))",
        )
        .unwrap();
        assert_eq!(q.targets, vec!["o", "n"]);
        assert!(matches!(q.formula, Formula::Until(..)));
        assert!(q.formula.is_conjunctive());
    }

    #[test]
    fn assignment_quantifier() {
        let f = parse_formula("[x <- o.SPEED] Eventually (o.SPEED >= 2 * x)").unwrap();
        match f {
            Formula::Assign(x, term, body) => {
                assert_eq!(x, "x");
                assert_eq!(term, Term::attr(Term::var("o"), "SPEED"));
                assert!(matches!(*body, Formula::Eventually(_)));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn parenthesized_term_comparison_backtracks() {
        let f = parse_formula("(time + 3) <= 10").unwrap();
        assert!(matches!(f, Formula::Cmp(CmpOp::Le, _, _)));
        // And a parenthesized formula still parses as a formula.
        let f = parse_formula("(INSIDE(o, P))").unwrap();
        assert!(matches!(f, Formula::Inside(..)));
    }

    #[test]
    fn until_is_right_associative() {
        let f = parse_formula("a = 1 Until b = 2 Until c = 3").unwrap();
        match f {
            Formula::Until(_, rhs) => assert!(matches!(*rhs, Formula::Until(..))),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn until_within_parses() {
        let f = parse_formula("INSIDE(o, P) until_within 5 INSIDE(o, Q)").unwrap();
        assert!(matches!(f, Formula::UntilWithin(5, _, _)));
    }

    #[test]
    fn precedence_or_binds_looser_than_and() {
        let f = parse_formula("a = 1 OR b = 2 AND c = 3").unwrap();
        match f {
            Formula::Or(_, rhs) => assert!(matches!(*rhs, Formula::And(..))),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn terms_with_arithmetic_precedence() {
        let f = parse_formula("o.PRICE + 2 * 3 <= 100").unwrap();
        match f {
            Formula::Cmp(CmpOp::Le, lhs, _) => match lhs {
                Term::Arith(ArithOp::Add, _, rhs) => {
                    assert!(matches!(*rhs, Term::Arith(ArithOp::Mul, _, _)));
                }
                other => panic!("unexpected {other}"),
            },
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn negative_numbers_and_points() {
        let f = parse_formula("DIST(o, POINT(-3, 4.5)) <= 2").unwrap();
        match f {
            Formula::Cmp(_, Term::Dist(_, b), _) => {
                assert_eq!(*b, Term::Point(-3.0, 4.5));
            }
            other => panic!("unexpected {other}"),
        }
        let f = parse_formula("o.VX = -2").unwrap();
        assert!(matches!(f, Formula::Cmp(CmpOp::Eq, _, _)));
    }

    #[test]
    fn within_sphere_parses() {
        let f = parse_formula("WITHIN_SPHERE(2.5, o, n, m)").unwrap();
        match f {
            Formula::WithinSphere(r, ts) => {
                assert_eq!(r, 2.5);
                assert_eq!(ts.len(), 3);
            }
            other => panic!("unexpected {other}"),
        }
        assert!(parse_formula("WITHIN_SPHERE(2.5)").is_err());
    }

    #[test]
    fn errors_carry_offsets() {
        let e = parse_query("RETRIEVE WHERE true").unwrap_err();
        assert!(matches!(e, FtlError::Parse { .. }));
        let e = parse_formula("INSIDE(o P)").unwrap_err();
        assert!(e.to_string().contains("expected"));
        let e = parse_formula("a = 1 extra").unwrap_err();
        assert!(e.to_string().contains("after the formula"));
    }

    #[test]
    fn display_parses_back() {
        let src = "RETRIEVE o WHERE o.PRICE <= 100 AND Eventually within 3 INSIDE(o, P)";
        let q = parse_query(src).unwrap();
        let q2 = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }
}
