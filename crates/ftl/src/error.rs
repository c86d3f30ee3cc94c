//! FTL errors.

use std::fmt;

/// Result alias for FTL operations.
pub type FtlResult<T> = Result<T, FtlError>;

/// Errors raised while parsing or evaluating FTL queries.
#[derive(Debug, Clone, PartialEq)]
pub enum FtlError {
    /// Lexical or syntactic error, with a byte offset into the source.
    Parse {
        /// Error description.
        message: String,
        /// Byte offset where the error was detected.
        offset: usize,
    },
    /// A region name used in `INSIDE`/`OUTSIDE` is not registered.
    UnknownRegion(String),
    /// An object id referenced by the query does not exist.
    UnknownObject(u64),
    /// The query is unsafe: its answer cannot be represented finitely under
    /// the evaluation strategy (e.g. a value variable that is never bound by
    /// an assignment quantifier, or negation over non-object variables).
    Unsafe(String),
    /// A term or comparison falls outside the supported fragment (e.g.
    /// multiplying two time-varying terms, which would exceed quadratic
    /// degree).
    Unsupported(String),
    /// Values of incompatible kinds were combined.
    Type(String),
}

impl FtlError {
    /// Parse-error helper.
    pub fn parse(message: impl Into<String>, offset: usize) -> Self {
        FtlError::Parse {
            message: message.into(),
            offset,
        }
    }
}

impl fmt::Display for FtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtlError::Parse { message, offset } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            FtlError::UnknownRegion(r) => write!(f, "unknown region `{r}`"),
            FtlError::UnknownObject(o) => write!(f, "unknown object #{o}"),
            FtlError::Unsafe(d) => write!(f, "unsafe query: {d}"),
            FtlError::Unsupported(d) => write!(f, "unsupported construct: {d}"),
            FtlError::Type(d) => write!(f, "type error: {d}"),
        }
    }
}

impl std::error::Error for FtlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(FtlError::parse("unexpected `)`", 7)
            .to_string()
            .contains("byte 7"));
        assert_eq!(
            FtlError::UnknownRegion("P".into()).to_string(),
            "unknown region `P`"
        );
        assert!(FtlError::Unsafe("negation over value variable".into())
            .to_string()
            .starts_with("unsafe query"));
    }
}
