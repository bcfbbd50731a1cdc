//! Token definitions for the Groovy subset used by SmartThings smart apps.

use crate::span::Span;
use std::fmt;

/// The kind of a lexical token.
///
/// Keyword and punctuation variants are named after the Groovy surface syntax
/// they represent and carry no payload.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    // Literals
    /// Integer literal, e.g. `42`.
    Int(i64),
    /// Decimal literal, e.g. `75.5`.
    Decimal(f64),
    /// Single- or double-quoted string. GString interpolation is preserved as
    /// raw text; the parser splits `${...}` parts.
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,

    /// Identifier (variable, method or property name).
    Ident(String),

    // Keywords
    Def,
    If,
    Else,
    While,
    For,
    In,
    Return,
    Break,
    Continue,
    Private,
    Public,
    Protected,
    Static,
    Final,
    New,
    Switch,
    Case,
    Default,
    Try,
    Catch,
    Finally,
    Throw,
    Instanceof,
    Import,
    As,

    // Punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Dot,
    /// Safe navigation `?.`
    SafeDot,
    /// Method pointer / spread-safe access `*.` (treated like `.` downstream).
    SpreadDot,
    Colon,
    Semicolon,
    Question,
    /// Elvis operator `?:`
    Elvis,
    Arrow,

    // Operators
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Power,
    Not,
    EqEq,
    NotEq,
    Lt,
    Gt,
    Le,
    Ge,
    /// Spaceship `<=>`
    Compare,
    AndAnd,
    OrOr,
    BitAnd,
    BitOr,
    /// Range `..`
    Range,
    PlusPlus,
    MinusMinus,
    /// Annotation marker `@`
    At,

    /// End of a logical line. Groovy is newline-sensitive: a newline ends a
    /// statement unless the line is obviously continued.
    Newline,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// Returns the keyword kind for `word`, if it is a reserved word.
    pub fn keyword(word: &str) -> Option<TokenKind> {
        Some(match word {
            "def" => TokenKind::Def,
            "if" => TokenKind::If,
            "else" => TokenKind::Else,
            "while" => TokenKind::While,
            "for" => TokenKind::For,
            "in" => TokenKind::In,
            "return" => TokenKind::Return,
            "break" => TokenKind::Break,
            "continue" => TokenKind::Continue,
            "private" => TokenKind::Private,
            "public" => TokenKind::Public,
            "protected" => TokenKind::Protected,
            "static" => TokenKind::Static,
            "final" => TokenKind::Final,
            "new" => TokenKind::New,
            "switch" => TokenKind::Switch,
            "case" => TokenKind::Case,
            "default" => TokenKind::Default,
            "try" => TokenKind::Try,
            "catch" => TokenKind::Catch,
            "finally" => TokenKind::Finally,
            "throw" => TokenKind::Throw,
            "instanceof" => TokenKind::Instanceof,
            "import" => TokenKind::Import,
            "as" => TokenKind::As,
            "true" => TokenKind::Bool(true),
            "false" => TokenKind::Bool(false),
            "null" => TokenKind::Null,
            _ => return None,
        })
    }

    /// True for tokens after which a newline never ends the statement
    /// (binary operators, commas, opening brackets, dots, ...).
    pub fn continues_line(&self) -> bool {
        matches!(
            self,
            TokenKind::Comma
                | TokenKind::Dot
                | TokenKind::SafeDot
                | TokenKind::SpreadDot
                | TokenKind::Plus
                | TokenKind::Minus
                | TokenKind::Star
                | TokenKind::Slash
                | TokenKind::Percent
                | TokenKind::Assign
                | TokenKind::PlusAssign
                | TokenKind::MinusAssign
                | TokenKind::StarAssign
                | TokenKind::SlashAssign
                | TokenKind::EqEq
                | TokenKind::NotEq
                | TokenKind::Lt
                | TokenKind::Gt
                | TokenKind::Le
                | TokenKind::Ge
                | TokenKind::AndAnd
                | TokenKind::OrOr
                | TokenKind::BitAnd
                | TokenKind::BitOr
                | TokenKind::Question
                | TokenKind::Elvis
                | TokenKind::Colon
                | TokenKind::Arrow
                | TokenKind::LParen
                | TokenKind::LBracket
                | TokenKind::LBrace
                | TokenKind::Instanceof
        )
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Int(v) => write!(f, "{v}"),
            TokenKind::Decimal(v) => write!(f, "{v}"),
            TokenKind::Str(s) => write!(f, "\"{s}\""),
            TokenKind::Bool(b) => write!(f, "{b}"),
            TokenKind::Null => write!(f, "null"),
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Newline => write!(f, "<newline>"),
            TokenKind::Eof => write!(f, "<eof>"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// A single lexical token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where it came from.
    pub span: Span,
}

impl Token {
    /// Creates a new token.
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span }
    }

    /// Returns the identifier name when this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup() {
        assert_eq!(TokenKind::keyword("def"), Some(TokenKind::Def));
        assert_eq!(TokenKind::keyword("true"), Some(TokenKind::Bool(true)));
        assert_eq!(TokenKind::keyword("subscribe"), None);
    }

    #[test]
    fn line_continuation_tokens() {
        assert!(TokenKind::Comma.continues_line());
        assert!(TokenKind::AndAnd.continues_line());
        assert!(!TokenKind::Ident("x".into()).continues_line());
        assert!(!TokenKind::RParen.continues_line());
    }

    #[test]
    fn token_ident_accessor() {
        let t = Token::new(TokenKind::Ident("motion".into()), Span::synthetic());
        assert_eq!(t.ident(), Some("motion"));
        let t = Token::new(TokenKind::Int(3), Span::synthetic());
        assert_eq!(t.ident(), None);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(TokenKind::Ident("foo".into()).to_string(), "foo");
        assert_eq!(TokenKind::Str("bar".into()).to_string(), "\"bar\"");
        assert_eq!(TokenKind::Eof.to_string(), "<eof>");
    }
}
