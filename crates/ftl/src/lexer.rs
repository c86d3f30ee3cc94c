//! Tokenizer for the FTL concrete syntax.
//!
//! Keywords are matched case-insensitively so both the paper's typography
//! (`Eventually within 3`) and SQL-style shouting (`RETRIEVE o WHERE ...`)
//! parse.

use crate::error::{FtlError, FtlResult};
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier (variable, attribute or region name).
    Ident(String),
    /// Unsigned integer literal.
    Int(u64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal.
    Str(String),
    /// `RETRIEVE`
    Retrieve,
    /// `WHERE`
    Where,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `NOT`
    Not,
    /// `Until`
    Until,
    /// `until_within`
    UntilWithin,
    /// `Nexttime`
    Nexttime,
    /// `Eventually`
    Eventually,
    /// `Always`
    Always,
    /// `within`
    Within,
    /// `after`
    After,
    /// `for`
    For,
    /// `true`
    True,
    /// `false`
    False,
    /// `time`
    Time,
    /// `DIST`
    Dist,
    /// `INSIDE`
    Inside,
    /// `OUTSIDE`
    Outside,
    /// `WITHIN_SPHERE`
    WithinSphere,
    /// `POINT`
    Point,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `<-`
    Assign,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "identifier `{s}`"),
            Token::Int(n) => write!(f, "integer {n}"),
            Token::Float(x) => write!(f, "float {x}"),
            Token::Str(s) => write!(f, "string '{s}'"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// A token with its byte offset in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// Byte offset of the token's first character.
    pub offset: usize,
}

/// Tokenizes FTL source text.
pub fn tokenize(src: &str) -> FtlResult<Vec<Spanned>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        let token = match c {
            '(' => {
                i += 1;
                Token::LParen
            }
            ')' => {
                i += 1;
                Token::RParen
            }
            '[' => {
                i += 1;
                Token::LBracket
            }
            ']' => {
                i += 1;
                Token::RBracket
            }
            ',' => {
                i += 1;
                Token::Comma
            }
            '.' => {
                i += 1;
                Token::Dot
            }
            '+' => {
                i += 1;
                Token::Plus
            }
            '-' => {
                i += 1;
                Token::Minus
            }
            '*' => {
                i += 1;
                Token::Star
            }
            '/' => {
                i += 1;
                Token::Slash
            }
            '=' => {
                i += 1;
                Token::Eq
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    Token::Ne
                } else {
                    return Err(FtlError::parse("expected `!=`", i));
                }
            }
            '<' => match bytes.get(i + 1) {
                Some(&b'=') => {
                    i += 2;
                    Token::Le
                }
                Some(&b'>') => {
                    i += 2;
                    Token::Ne
                }
                Some(&b'-') => {
                    i += 2;
                    Token::Assign
                }
                _ => {
                    i += 1;
                    Token::Lt
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    Token::Ge
                } else {
                    i += 1;
                    Token::Gt
                }
            }
            '\'' => {
                i += 1;
                let s_start = i;
                while i < bytes.len() && bytes[i] != b'\'' {
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(FtlError::parse("unterminated string literal", start));
                }
                let s = src[s_start..i].to_owned();
                i += 1;
                Token::Str(s)
            }
            c if c.is_ascii_digit() => {
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i + 1 < bytes.len()
                    && bytes[i] == b'.'
                    && (bytes[i + 1] as char).is_ascii_digit()
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &src[start..i];
                if is_float {
                    Token::Float(text.parse().map_err(|_| {
                        FtlError::parse(format!("invalid float literal `{text}`"), start)
                    })?)
                } else {
                    Token::Int(text.parse().map_err(|_| {
                        FtlError::parse(format!("invalid integer literal `{text}`"), start)
                    })?)
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                keyword_or_ident(&src[start..i])
            }
            other => {
                return Err(FtlError::parse(
                    format!("unexpected character `{other}`"),
                    i,
                ))
            }
        };
        out.push(Spanned {
            token,
            offset: start,
        });
    }
    Ok(out)
}

fn keyword_or_ident(word: &str) -> Token {
    match word.to_ascii_uppercase().as_str() {
        "RETRIEVE" => Token::Retrieve,
        "WHERE" => Token::Where,
        "AND" => Token::And,
        "OR" => Token::Or,
        "NOT" => Token::Not,
        "UNTIL" => Token::Until,
        "UNTIL_WITHIN" => Token::UntilWithin,
        "NEXTTIME" => Token::Nexttime,
        "EVENTUALLY" => Token::Eventually,
        "ALWAYS" => Token::Always,
        "WITHIN" => Token::Within,
        "AFTER" => Token::After,
        "FOR" => Token::For,
        "TRUE" => Token::True,
        "FALSE" => Token::False,
        "TIME" => Token::Time,
        "DIST" => Token::Dist,
        "INSIDE" => Token::Inside,
        "OUTSIDE" => Token::Outside,
        "WITHIN_SPHERE" => Token::WithinSphere,
        "POINT" => Token::Point,
        _ => Token::Ident(word.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        tokenize(src)
            .unwrap()
            .into_iter()
            .map(|s| s.token)
            .collect()
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(
            toks("retrieve WHERE until"),
            vec![Token::Retrieve, Token::Where, Token::Until]
        );
        assert_eq!(
            toks("Eventually within"),
            vec![Token::Eventually, Token::Within]
        );
    }

    #[test]
    fn identifiers_preserve_case() {
        assert_eq!(toks("myVar"), vec![Token::Ident("myVar".into())]);
        assert_eq!(toks("P_1"), vec![Token::Ident("P_1".into())]);
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42"), vec![Token::Int(42)]);
        assert_eq!(toks("3.5"), vec![Token::Float(3.5)]);
        // A dot not followed by a digit is attribute access.
        assert_eq!(
            toks("o.PRICE"),
            vec![
                Token::Ident("o".into()),
                Token::Dot,
                Token::Ident("PRICE".into())
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("<= >= < > = <> != <-"),
            vec![
                Token::Le,
                Token::Ge,
                Token::Lt,
                Token::Gt,
                Token::Eq,
                Token::Ne,
                Token::Ne,
                Token::Assign
            ]
        );
        assert_eq!(
            toks("+ - * /"),
            vec![Token::Plus, Token::Minus, Token::Star, Token::Slash]
        );
    }

    #[test]
    fn strings() {
        assert_eq!(toks("'Rest Inn'"), vec![Token::Str("Rest Inn".into())]);
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn offsets_reported() {
        let ts = tokenize("a  <= b").unwrap();
        assert_eq!(ts[1].offset, 3);
    }

    #[test]
    fn bad_character() {
        let e = tokenize("a % b").unwrap_err();
        assert!(matches!(e, FtlError::Parse { offset: 2, .. }));
    }

    #[test]
    fn full_query_shape() {
        let ts = toks("RETRIEVE o WHERE Eventually within 3 (INSIDE(o, P))");
        assert_eq!(ts[0], Token::Retrieve);
        assert!(ts.contains(&Token::Inside));
        assert!(ts.contains(&Token::Int(3)));
    }
}
