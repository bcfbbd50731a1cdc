//! Error types for the Groovy frontend.

use crate::span::Span;
use std::fmt;

/// An error produced while lexing or parsing a smart app.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What kind of error this is.
    pub kind: ParseErrorKind,
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Where in the source the error occurred.
    pub span: Span,
}

/// The kinds of [`ParseError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The source is not in the supported Groovy subset.
    Syntax,
    /// The source nests deeper than [`crate::parser::MAX_NESTING`]: rejected
    /// before the recursive parser (or any later recursive pass) can run out
    /// of stack.
    TooDeep,
}

impl ParseError {
    /// Creates a new syntax error.
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        ParseError { kind: ParseErrorKind::Syntax, message: message.into(), span }
    }

    /// The error for source nested deeper than [`crate::parser::MAX_NESTING`].
    pub fn too_deep(span: Span) -> Self {
        ParseError {
            kind: ParseErrorKind::TooDeep,
            message: format!(
                "nesting exceeds the budget of {} units (expressions, statements and \
                 operator chains)",
                crate::parser::MAX_NESTING
            ),
            span,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Convenience alias for frontend results.
pub type Result<T> = std::result::Result<T, ParseError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_line_and_message() {
        let e = ParseError::new("unexpected token", Span::new(5, 6, 3));
        assert_eq!(e.to_string(), "parse error at line 3: unexpected token");
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        let e = ParseError::new("x", Span::synthetic());
        takes_err(&e);
    }
}
