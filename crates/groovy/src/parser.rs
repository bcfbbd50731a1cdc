//! Recursive-descent parser for the Groovy subset used by SmartThings apps.
//!
//! The parser understands the constructs that appear in real smart apps:
//! `definition(...)` metadata, `preferences { section { input ... } }` blocks,
//! lifecycle methods (`installed`, `updated`, `initialize`), event handlers,
//! closures, GStrings, list/map literals, command calls without parentheses
//! (e.g. `input "motion", "capability.motionSensor"`), trailing closures and
//! the usual operators.  Anything outside the subset produces a structured
//! [`ParseError`] pointing at the offending line.
//!
//! # Nesting budget
//!
//! Recursive descent spends stack per nesting level, and so does every later
//! pass over the tree (lowering, analysis, the interpreter, dropping it).  A
//! hostile source of a few kilobytes of `(((...)))` would overflow the stack
//! and abort the whole process, which no panic handler can catch.  So the
//! parser keeps one count and rejects a source that takes it past
//! [`MAX_NESTING`] with a [`crate::error::ParseErrorKind::TooDeep`] error.
//! The count rises for each expression ([`EXPRESSION_COST`]), statement
//! ([`STATEMENT_COST`]), unary operand, ternary branch and `else if` (one
//! unit each) the parser descends into, and falls again when that returns.
//! It also rises by one for each link of an operator or call chain (`a + b`,
//! `x.y`, `f(...)`), which deepens the tree without recursing; links stay
//! counted until their statement (or method declaration) ends.  A chain's first operand is parsed before its links
//! are known, so counting links per statement rather than per subexpression
//! is what bounds the tree's height (by about twice the limit), not just the
//! parser's recursion.

use crate::ast::*;
use crate::error::{ParseError, Result};
use crate::lexer::tokenize;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// The nesting budget of one source, in units of roughly 4 KiB of
/// debug-build parser stack (see the module docs).  At the limit, parsing,
/// lowering and verifying an app fits a 2 MiB thread stack in a debug build.
pub const MAX_NESTING: usize = 256;

/// Nesting units one expression descent costs: it recurses through the whole
/// precedence ladder, a dozen stack frames.
pub const EXPRESSION_COST: usize = 12;

/// Nesting units one statement costs.
pub const STATEMENT_COST: usize = 3;

/// Parses a complete smart-app source file into a [`Script`].
pub fn parse(source: &str) -> Result<Script> {
    let tokens = tokenize(source)?;
    Parser::new(tokens, 0).parse_script()
}

/// Parses a single expression (used for GString interpolations and tests).
pub fn parse_expression(source: &str) -> Result<Expr> {
    parse_expression_at(source, 0)
}

/// [`parse_expression`] for an expression nested `depth` units deep (a
/// GString interpolation inherits its string's nesting).
fn parse_expression_at(source: &str, depth: usize) -> Result<Expr> {
    let tokens = tokenize(source)?;
    let mut p = Parser::new(tokens, depth);
    p.skip_separators();
    let e = p.parse_expr()?;
    p.skip_separators();
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting (see the module docs); never above [`MAX_NESTING`].
    depth: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>, depth: usize) -> Self {
        Parser { tokens, pos: 0, depth }
    }

    // ---- nesting budget --------------------------------------------------

    /// Runs `parse` `cost` nesting units deeper.  Chain links taken inside
    /// it stay counted until the enclosing [`Parser::unit`] ends.
    fn nested<T>(&mut self, cost: usize, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.take(cost)?;
        let result = parse(self);
        self.depth -= cost;
        result
    }

    /// Runs `parse` (a statement or method declaration) one statement
    /// deeper, then releases every chain link taken inside it.
    fn unit<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let depth = self.depth;
        let result = self.nested(STATEMENT_COST, parse);
        self.depth = depth;
        result
    }

    /// Takes one nesting unit for one link of an operator or call chain.
    fn link(&mut self) -> Result<()> {
        self.take(1)
    }

    fn take(&mut self, units: usize) -> Result<()> {
        if self.depth + units > MAX_NESTING {
            return Err(ParseError::too_deep(self.peek_span()));
        }
        self.depth += units;
        Ok(())
    }

    // ---- token plumbing ------------------------------------------------

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, off: usize) -> &TokenKind {
        let idx = (self.pos + off).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn bump(&mut self) -> Token {
        let tok = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        tok
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(ParseError::new(
                format!("expected {kind}, found {}", self.peek()),
                self.peek_span(),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span)> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                let span = self.peek_span();
                self.bump();
                Ok((name, span))
            }
            // Allow keywords that SmartThings uses as plain identifiers in
            // property positions (e.g. `evt.default`).
            TokenKind::Default => {
                let span = self.peek_span();
                self.bump();
                Ok(("default".to_string(), span))
            }
            other => Err(ParseError::new(
                format!("expected identifier, found {other}"),
                self.peek_span(),
            )),
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.at(&TokenKind::Eof) {
            Ok(())
        } else {
            Err(ParseError::new(
                format!("expected end of input, found {}", self.peek()),
                self.peek_span(),
            ))
        }
    }

    /// Skips statement separators (newlines and semicolons).
    fn skip_separators(&mut self) {
        while matches!(self.peek(), TokenKind::Newline | TokenKind::Semicolon) {
            self.bump();
        }
    }

    /// Skips newlines only — used where a separator must not end the construct.
    fn skip_newlines(&mut self) {
        while matches!(self.peek(), TokenKind::Newline) {
            self.bump();
        }
    }

    // ---- script level ---------------------------------------------------

    fn parse_script(&mut self) -> Result<Script> {
        let mut items = Vec::new();
        self.skip_separators();
        while !self.at(&TokenKind::Eof) {
            // Skip `import a.b.c` lines entirely.
            if self.at(&TokenKind::Import) {
                while !matches!(
                    self.peek(),
                    TokenKind::Newline | TokenKind::Semicolon | TokenKind::Eof
                ) {
                    self.bump();
                }
                self.skip_separators();
                continue;
            }
            // Skip annotations such as `@Field`.
            while self.at(&TokenKind::At) {
                self.bump();
                let _ = self.expect_ident()?;
                self.skip_newlines();
            }
            if self.looks_like_method_decl() {
                items.push(Item::Method(self.unit(Self::parse_method_decl)?));
            } else {
                items.push(Item::Stmt(self.parse_stmt()?));
            }
            self.skip_separators();
        }
        Ok(Script { items })
    }

    /// Lookahead: `[modifiers] (def | Type) name ( ... ) {` at the current position.
    fn looks_like_method_decl(&self) -> bool {
        let mut i = 0;
        // modifiers
        while matches!(
            self.peek_at(i),
            TokenKind::Private
                | TokenKind::Public
                | TokenKind::Protected
                | TokenKind::Static
                | TokenKind::Final
        ) {
            i += 1;
        }
        let modifier_count = i;
        // return type: `def` or an identifier, optionally with [] suffixes.
        // With modifiers the return type may be omitted entirely
        // (`private onSwitches() { ... }`).
        match self.peek_at(i) {
            TokenKind::Def => i += 1,
            TokenKind::Ident(_) => {
                if modifier_count > 0 && *self.peek_at(i + 1) == TokenKind::LParen {
                    // `private name(` — the identifier is the method name.
                    return self.scan_params_then_brace(i + 1);
                }
                i += 1;
                while *self.peek_at(i) == TokenKind::LBracket
                    && *self.peek_at(i + 1) == TokenKind::RBracket
                {
                    i += 2;
                }
            }
            _ => return false,
        }
        // method name
        if !matches!(self.peek_at(i), TokenKind::Ident(_)) {
            return false;
        }
        i += 1;
        self.scan_params_then_brace(i)
    }

    /// Lookahead helper: from offset `i` (which must be at `(`), scans over a
    /// balanced parameter list and reports whether a `{` follows.
    fn scan_params_then_brace(&self, mut i: usize) -> bool {
        if *self.peek_at(i) != TokenKind::LParen {
            return false;
        }
        // find matching RParen (flat scan; params never nest parens in practice,
        // but default values might, so track depth)
        let mut depth = 0usize;
        loop {
            match self.peek_at(i) {
                TokenKind::LParen => depth += 1,
                TokenKind::RParen => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                TokenKind::Eof => return false,
                _ => {}
            }
            i += 1;
        }
        // body must open with `{` (possibly after newlines)
        loop {
            match self.peek_at(i) {
                TokenKind::Newline => i += 1,
                TokenKind::LBrace => return true,
                _ => return false,
            }
        }
    }

    fn parse_modifiers(&mut self) -> Modifiers {
        let mut m = Modifiers::default();
        loop {
            match self.peek() {
                TokenKind::Private => {
                    m.private = true;
                    self.bump();
                }
                TokenKind::Public | TokenKind::Protected | TokenKind::Final => {
                    self.bump();
                }
                TokenKind::Static => {
                    m.is_static = true;
                    self.bump();
                }
                _ => break,
            }
        }
        m
    }

    fn parse_type_name(&mut self) -> Result<TypeName> {
        let (name, _) = self.expect_ident()?;
        let mut dims = 0;
        while self.at(&TokenKind::LBracket) && *self.peek_at(1) == TokenKind::RBracket {
            self.bump();
            self.bump();
            dims += 1;
        }
        // Ignore generic parameters like `List<String>`.
        if self.at(&TokenKind::Lt) {
            let mut depth = 0;
            loop {
                match self.peek() {
                    TokenKind::Lt => {
                        depth += 1;
                        self.bump();
                    }
                    TokenKind::Gt => {
                        depth -= 1;
                        self.bump();
                        if depth == 0 {
                            break;
                        }
                    }
                    TokenKind::Eof => break,
                    _ => {
                        self.bump();
                    }
                }
            }
        }
        Ok(TypeName { name, array_dims: dims })
    }

    fn parse_method_decl(&mut self) -> Result<MethodDecl> {
        let start = self.peek_span();
        let modifiers = self.parse_modifiers();
        let return_type = if self.at(&TokenKind::Def) {
            self.bump();
            None
        } else if matches!(self.peek(), TokenKind::Ident(_))
            && *self.peek_at(1) == TokenKind::LParen
        {
            // `private name(...)` — the return type was omitted.
            None
        } else {
            Some(self.parse_type_name()?)
        };
        // When `Type name(` was actually `def`-less `name(` this is still an
        // identifier; the lookahead guarantees shape.
        let (name, _) = self.expect_ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        self.skip_newlines();
        while !self.at(&TokenKind::RParen) {
            params.push(self.parse_param()?);
            self.skip_newlines();
            if !self.eat(&TokenKind::Comma) {
                break;
            }
            self.skip_newlines();
        }
        self.expect(&TokenKind::RParen)?;
        self.skip_newlines();
        let body = self.parse_block()?;
        let span = start.merge(body.span);
        Ok(MethodDecl { name, return_type, params, body, modifiers, span })
    }

    fn parse_param(&mut self) -> Result<Param> {
        // `def x`, `Type x`, or plain `x`; optionally `= default`.
        let mut ty = None;
        if self.at(&TokenKind::Def) {
            self.bump();
        } else if matches!(self.peek(), TokenKind::Ident(_))
            && matches!(self.peek_at(1), TokenKind::Ident(_))
        {
            ty = Some(self.parse_type_name()?);
        }
        let (name, _) = self.expect_ident()?;
        let default = if self.eat(&TokenKind::Assign) { Some(self.parse_expr()?) } else { None };
        Ok(Param { name, ty, default })
    }

    fn parse_block(&mut self) -> Result<Block> {
        let open = self.expect(&TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        self.skip_separators();
        while !self.at(&TokenKind::RBrace) {
            if self.at(&TokenKind::Eof) {
                return Err(ParseError::new("unterminated block", open.span));
            }
            stmts.push(self.parse_stmt()?);
            self.skip_separators();
        }
        let close = self.expect(&TokenKind::RBrace)?;
        Ok(Block { stmts, span: open.span.merge(close.span) })
    }

    // ---- statements -----------------------------------------------------

    fn parse_stmt(&mut self) -> Result<Stmt> {
        self.unit(Self::parse_stmt_here)
    }

    fn parse_stmt_here(&mut self) -> Result<Stmt> {
        self.skip_separators();
        match self.peek().clone() {
            TokenKind::If => self.parse_if(),
            TokenKind::While => self.parse_while(),
            TokenKind::For => self.parse_for(),
            TokenKind::Switch => self.parse_switch(),
            TokenKind::Try => self.parse_try(),
            TokenKind::Return => {
                let span = self.peek_span();
                self.bump();
                if matches!(
                    self.peek(),
                    TokenKind::Newline | TokenKind::Semicolon | TokenKind::RBrace | TokenKind::Eof
                ) {
                    Ok(Stmt::Return(None, span))
                } else {
                    let e = self.parse_expr()?;
                    let span = span.merge(e.span());
                    Ok(Stmt::Return(Some(e), span))
                }
            }
            TokenKind::Break => {
                let span = self.peek_span();
                self.bump();
                Ok(Stmt::Break(span))
            }
            TokenKind::Continue => {
                let span = self.peek_span();
                self.bump();
                Ok(Stmt::Continue(span))
            }
            TokenKind::Def => self.parse_var_decl(None),
            TokenKind::Private
            | TokenKind::Public
            | TokenKind::Protected
            | TokenKind::Static
            | TokenKind::Final => {
                // Field declaration with modifiers, e.g. `private def foo = 1`.
                self.parse_modifiers();
                if self.at(&TokenKind::Def) {
                    self.parse_var_decl(None)
                } else {
                    let ty = self.parse_type_name()?;
                    self.parse_var_decl(Some(ty))
                }
            }
            TokenKind::Ident(_) if self.looks_like_typed_decl() => {
                let ty = self.parse_type_name()?;
                self.parse_var_decl(Some(ty))
            }
            _ => self.parse_expr_or_assign_stmt(),
        }
    }

    /// Lookahead for `Type name =` / `Type name` declarations (e.g. `Integer idx = 0`).
    fn looks_like_typed_decl(&self) -> bool {
        let known_types = [
            "Integer",
            "int",
            "Long",
            "long",
            "Double",
            "double",
            "Float",
            "float",
            "BigDecimal",
            "String",
            "Boolean",
            "boolean",
            "Number",
            "Object",
            "List",
            "Map",
            "ArrayList",
            "HashMap",
            "Date",
        ];
        let TokenKind::Ident(name) = self.peek() else { return false };
        if !known_types.contains(&name.as_str()) {
            return false;
        }
        matches!(self.peek_at(1), TokenKind::Ident(_))
            && matches!(
                self.peek_at(2),
                TokenKind::Assign | TokenKind::Newline | TokenKind::Semicolon
            )
    }

    fn parse_var_decl(&mut self, ty: Option<TypeName>) -> Result<Stmt> {
        let start = self.peek_span();
        if ty.is_none() {
            self.expect(&TokenKind::Def)?;
        }
        let (name, _) = self.expect_ident()?;
        let init = if self.eat(&TokenKind::Assign) {
            self.skip_newlines();
            Some(self.parse_expr()?)
        } else {
            None
        };
        let span = init.as_ref().map(|e| start.merge(e.span())).unwrap_or(start);
        Ok(Stmt::VarDecl { ty, name, init, span })
    }

    fn parse_if(&mut self) -> Result<Stmt> {
        let start = self.expect(&TokenKind::If)?.span;
        self.expect(&TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::RParen)?;
        self.skip_newlines();
        let then_block = self.parse_block_or_single_stmt()?;
        // `else` may be preceded by a newline.
        let save = self.pos;
        self.skip_separators();
        let else_block = if self.at(&TokenKind::Else) {
            self.bump();
            self.skip_newlines();
            if self.at(&TokenKind::If) {
                let nested = self.nested(1, Self::parse_if)?;
                let span = nested.span();
                Some(Block { stmts: vec![nested], span })
            } else {
                Some(self.parse_block_or_single_stmt()?)
            }
        } else {
            self.pos = save;
            None
        };
        let end = else_block.as_ref().map(|b| b.span).unwrap_or(then_block.span);
        Ok(Stmt::If { cond, then_block, else_block, span: start.merge(end) })
    }

    fn parse_block_or_single_stmt(&mut self) -> Result<Block> {
        if self.at(&TokenKind::LBrace) {
            self.parse_block()
        } else {
            let stmt = self.parse_stmt()?;
            let span = stmt.span();
            Ok(Block { stmts: vec![stmt], span })
        }
    }

    fn parse_while(&mut self) -> Result<Stmt> {
        let start = self.expect(&TokenKind::While)?.span;
        self.expect(&TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::RParen)?;
        self.skip_newlines();
        let body = self.parse_block_or_single_stmt()?;
        let span = start.merge(body.span);
        Ok(Stmt::While { cond, body, span })
    }

    fn parse_for(&mut self) -> Result<Stmt> {
        let start = self.expect(&TokenKind::For)?.span;
        self.expect(&TokenKind::LParen)?;
        // Only the `for (x in e)` form is supported; SmartThings apps use
        // closures (`each`) for other iteration styles.
        if self.at(&TokenKind::Def) {
            self.bump();
        }
        let (var, _) = self.expect_ident()?;
        self.expect(&TokenKind::In)?;
        let iterable = self.parse_expr()?;
        self.expect(&TokenKind::RParen)?;
        self.skip_newlines();
        let body = self.parse_block_or_single_stmt()?;
        let span = start.merge(body.span);
        Ok(Stmt::ForIn { var, iterable, body, span })
    }

    fn parse_switch(&mut self) -> Result<Stmt> {
        let start = self.expect(&TokenKind::Switch)?.span;
        self.expect(&TokenKind::LParen)?;
        let subject = self.parse_expr()?;
        self.expect(&TokenKind::RParen)?;
        self.skip_newlines();
        self.expect(&TokenKind::LBrace)?;
        let mut cases = Vec::new();
        let mut default = None;
        self.skip_separators();
        while !self.at(&TokenKind::RBrace) {
            if self.eat(&TokenKind::Case) {
                let value = self.parse_expr()?;
                self.expect(&TokenKind::Colon)?;
                let body = self.parse_case_body()?;
                cases.push(SwitchCase { value, body });
            } else if self.eat(&TokenKind::Default) {
                self.expect(&TokenKind::Colon)?;
                default = Some(self.parse_case_body()?);
            } else {
                return Err(ParseError::new(
                    format!("expected 'case' or 'default', found {}", self.peek()),
                    self.peek_span(),
                ));
            }
            self.skip_separators();
        }
        let end = self.expect(&TokenKind::RBrace)?.span;
        Ok(Stmt::Switch { subject, cases, default, span: start.merge(end) })
    }

    fn parse_case_body(&mut self) -> Result<Block> {
        let start = self.peek_span();
        let mut stmts = Vec::new();
        self.skip_separators();
        while !matches!(
            self.peek(),
            TokenKind::Case | TokenKind::Default | TokenKind::RBrace | TokenKind::Eof
        ) {
            if self.at(&TokenKind::Break) {
                self.bump();
                self.skip_separators();
                break;
            }
            stmts.push(self.parse_stmt()?);
            self.skip_separators();
        }
        Ok(Block { stmts, span: start })
    }

    fn parse_try(&mut self) -> Result<Stmt> {
        let start = self.expect(&TokenKind::Try)?.span;
        self.skip_newlines();
        let body = self.parse_block()?;
        self.skip_separators();
        self.expect(&TokenKind::Catch)?;
        if self.eat(&TokenKind::LParen) {
            // `catch (Exception e)` — type and variable are ignored.
            while !self.at(&TokenKind::RParen) && !self.at(&TokenKind::Eof) {
                self.bump();
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.skip_newlines();
        let catch = self.parse_block()?;
        self.skip_separators();
        if self.eat(&TokenKind::Finally) {
            self.skip_newlines();
            // A `finally` block is parsed and appended to the catch block.
            let _fin = self.parse_block()?;
        }
        let span = start.merge(catch.span);
        Ok(Stmt::TryCatch { body, catch, span })
    }

    fn parse_expr_or_assign_stmt(&mut self) -> Result<Stmt> {
        // Command-call syntax: `input "x", "capability.y", title: "T"` or
        // `sendPush "message"` — an identifier directly followed by the start
        // of an argument list (not an operator, not `(`).
        if let TokenKind::Ident(name) = self.peek().clone() {
            if self.is_command_call_start() {
                let span = self.peek_span();
                self.bump();
                let args = self.parse_call_args_no_parens()?;
                let closure = if self.at(&TokenKind::LBrace) {
                    Some(Box::new(self.parse_closure()?))
                } else {
                    None
                };
                return Ok(Stmt::Expr(Expr::MethodCall {
                    object: None,
                    name,
                    args,
                    closure,
                    safe: false,
                    span,
                }));
            }
        }

        let expr = self.parse_expr()?;
        let op = match self.peek() {
            TokenKind::Assign => Some(AssignOp::Assign),
            TokenKind::PlusAssign => Some(AssignOp::AddAssign),
            TokenKind::MinusAssign => Some(AssignOp::SubAssign),
            TokenKind::StarAssign => Some(AssignOp::MulAssign),
            TokenKind::SlashAssign => Some(AssignOp::DivAssign),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            self.skip_newlines();
            let value = self.parse_expr()?;
            let span = expr.span().merge(value.span());
            return Ok(Stmt::Assign { target: expr, op, value, span });
        }
        // Postfix `x++` / `x--` as statements become `x += 1` / `x -= 1`.
        if matches!(self.peek(), TokenKind::PlusPlus | TokenKind::MinusMinus) {
            let op = if self.at(&TokenKind::PlusPlus) {
                AssignOp::AddAssign
            } else {
                AssignOp::SubAssign
            };
            let span = expr.span().merge(self.peek_span());
            self.bump();
            return Ok(Stmt::Assign { target: expr, op, value: Expr::Int(1, span), span });
        }
        Ok(Stmt::Expr(expr))
    }

    /// True when the current identifier begins a paren-less command call.
    fn is_command_call_start(&self) -> bool {
        if !matches!(self.peek(), TokenKind::Ident(_)) {
            return false;
        }
        match self.peek_at(1) {
            // `ident "literal"` , `ident 42`, `ident ident, ...`, `ident [..]`
            TokenKind::Str(_) | TokenKind::Int(_) | TokenKind::Decimal(_) | TokenKind::Bool(_) => {
                true
            }
            TokenKind::Ident(_) => {
                // `foo bar` is only a command call when followed by a comma or
                // colon (named arg) or end of statement: `unschedule handler`.
                matches!(
                    self.peek_at(2),
                    TokenKind::Comma
                        | TokenKind::Colon
                        | TokenKind::Newline
                        | TokenKind::Semicolon
                        | TokenKind::RBrace
                        | TokenKind::Eof
                )
            }
            _ => false,
        }
    }

    fn parse_call_args_no_parens(&mut self) -> Result<Vec<Arg>> {
        let mut args = Vec::new();
        loop {
            args.push(self.parse_arg()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
            self.skip_newlines();
        }
        Ok(args)
    }

    fn parse_arg(&mut self) -> Result<Arg> {
        // Named argument: `name: expr` or `"name": expr`.
        let named = match (self.peek(), self.peek_at(1)) {
            (TokenKind::Ident(n), TokenKind::Colon) => Some(n.clone()),
            (TokenKind::Str(n), TokenKind::Colon) => Some(n.clone()),
            _ => None,
        };
        if let Some(name) = named {
            self.bump();
            self.bump();
            self.skip_newlines();
            let value = self.parse_expr()?;
            Ok(Arg::Named(name, value))
        } else {
            Ok(Arg::Positional(self.parse_expr()?))
        }
    }

    // ---- expressions ----------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr> {
        self.nested(EXPRESSION_COST, Self::parse_ternary)
    }

    fn parse_ternary(&mut self) -> Result<Expr> {
        let cond = self.parse_or()?;
        if self.eat(&TokenKind::Question) {
            self.skip_newlines();
            let then = self.nested(1, Self::parse_ternary)?;
            self.skip_newlines();
            self.expect(&TokenKind::Colon)?;
            self.skip_newlines();
            let els = self.nested(1, Self::parse_ternary)?;
            let span = cond.span().merge(els.span());
            return Ok(Expr::Ternary {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
                span,
            });
        }
        if self.eat(&TokenKind::Elvis) {
            self.skip_newlines();
            let fallback = self.nested(1, Self::parse_ternary)?;
            let span = cond.span().merge(fallback.span());
            return Ok(Expr::Elvis { value: Box::new(cond), fallback: Box::new(fallback), span });
        }
        Ok(cond)
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_and()?;
        while self.at(&TokenKind::OrOr) {
            self.link()?;
            self.bump();
            self.skip_newlines();
            let rhs = self.parse_and()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary { op: BinOp::Or, lhs: Box::new(lhs), rhs: Box::new(rhs), span };
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_equality()?;
        while self.at(&TokenKind::AndAnd) {
            self.link()?;
            self.bump();
            self.skip_newlines();
            let rhs = self.parse_equality()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary { op: BinOp::And, lhs: Box::new(lhs), rhs: Box::new(rhs), span };
        }
        Ok(lhs)
    }

    fn parse_equality(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_relational()?;
        loop {
            let op = match self.peek() {
                TokenKind::EqEq => BinOp::Eq,
                TokenKind::NotEq => BinOp::NotEq,
                _ => break,
            };
            self.link()?;
            self.bump();
            self.skip_newlines();
            let rhs = self.parse_relational()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), span };
        }
        Ok(lhs)
    }

    fn parse_relational(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_range()?;
        loop {
            let op = match self.peek() {
                TokenKind::Lt => BinOp::Lt,
                TokenKind::Le => BinOp::Le,
                TokenKind::Gt => BinOp::Gt,
                TokenKind::Ge => BinOp::Ge,
                TokenKind::Compare => BinOp::Compare,
                TokenKind::In => BinOp::In,
                TokenKind::Instanceof => {
                    self.link()?;
                    self.bump();
                    let ty = self.parse_type_name()?;
                    // `x instanceof T` is approximated as a truthy check that
                    // the translator can refine; represent it as a cast used in
                    // boolean position.
                    let span = lhs.span();
                    lhs = Expr::Cast { expr: Box::new(lhs), ty, span };
                    continue;
                }
                TokenKind::As => {
                    self.link()?;
                    self.bump();
                    let ty = self.parse_type_name()?;
                    let span = lhs.span();
                    lhs = Expr::Cast { expr: Box::new(lhs), ty, span };
                    continue;
                }
                _ => break,
            };
            self.link()?;
            self.bump();
            self.skip_newlines();
            let rhs = self.parse_range()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), span };
        }
        Ok(lhs)
    }

    fn parse_range(&mut self) -> Result<Expr> {
        let lhs = self.parse_additive()?;
        if self.at(&TokenKind::Range) {
            self.link()?;
            self.bump();
            let rhs = self.parse_additive()?;
            let span = lhs.span().merge(rhs.span());
            return Ok(Expr::Range { from: Box::new(lhs), to: Box::new(rhs), span });
        }
        Ok(lhs)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.link()?;
            self.bump();
            self.skip_newlines();
            let rhs = self.parse_multiplicative()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), span };
        }
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => break,
            };
            self.link()?;
            self.bump();
            self.skip_newlines();
            let rhs = self.parse_unary()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), span };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        match self.peek() {
            TokenKind::Not => {
                let start = self.bump().span;
                let operand = self.nested(1, Self::parse_unary)?;
                let span = start.merge(operand.span());
                Ok(Expr::Unary { op: UnOp::Not, operand: Box::new(operand), span })
            }
            TokenKind::Minus => {
                let start = self.bump().span;
                let operand = self.nested(1, Self::parse_unary)?;
                let span = start.merge(operand.span());
                Ok(Expr::Unary { op: UnOp::Neg, operand: Box::new(operand), span })
            }
            _ => self.parse_postfix(),
        }
    }

    fn parse_postfix(&mut self) -> Result<Expr> {
        let mut expr = self.parse_primary()?;
        loop {
            match self.peek() {
                TokenKind::Dot | TokenKind::SafeDot | TokenKind::SpreadDot => {
                    self.link()?;
                    let safe = self.at(&TokenKind::SafeDot);
                    self.bump();
                    self.skip_newlines();
                    let (name, nspan) = self.expect_ident()?;
                    if self.at(&TokenKind::LParen) {
                        let args = self.parse_paren_args()?;
                        let closure = if self.at(&TokenKind::LBrace) {
                            Some(Box::new(self.parse_closure()?))
                        } else {
                            None
                        };
                        let span = expr.span().merge(nspan);
                        expr = Expr::MethodCall {
                            object: Some(Box::new(expr)),
                            name,
                            args,
                            closure,
                            safe,
                            span,
                        };
                    } else if self.at(&TokenKind::LBrace) {
                        // Trailing-closure-only call: `list.each { ... }`.
                        let closure = self.parse_closure()?;
                        let span = expr.span().merge(closure.span());
                        expr = Expr::MethodCall {
                            object: Some(Box::new(expr)),
                            name,
                            args: Vec::new(),
                            closure: Some(Box::new(closure)),
                            safe,
                            span,
                        };
                    } else {
                        let span = expr.span().merge(nspan);
                        expr = Expr::Property { object: Box::new(expr), name, safe, span };
                    }
                }
                TokenKind::LBracket => {
                    self.link()?;
                    self.bump();
                    self.skip_newlines();
                    let index = self.parse_expr()?;
                    self.skip_newlines();
                    let close = self.expect(&TokenKind::RBracket)?;
                    let span = expr.span().merge(close.span);
                    expr = Expr::Index { object: Box::new(expr), index: Box::new(index), span };
                }
                TokenKind::LParen => {
                    // Call on a bare name: `foo(args)`.
                    if let Expr::Var(name, span) = expr.clone() {
                        self.link()?;
                        let args = self.parse_paren_args()?;
                        let closure = if self.at(&TokenKind::LBrace) {
                            Some(Box::new(self.parse_closure()?))
                        } else {
                            None
                        };
                        expr = Expr::MethodCall {
                            object: None,
                            name,
                            args,
                            closure,
                            safe: false,
                            span,
                        };
                    } else {
                        break;
                    }
                }
                TokenKind::LBrace => {
                    // Bare name followed by a closure: `preferences { ... }`.
                    if let Expr::Var(name, span) = expr.clone() {
                        self.link()?;
                        let closure = self.parse_closure()?;
                        expr = Expr::MethodCall {
                            object: None,
                            name,
                            args: Vec::new(),
                            closure: Some(Box::new(closure)),
                            safe: false,
                            span,
                        };
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn parse_paren_args(&mut self) -> Result<Vec<Arg>> {
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        self.skip_newlines();
        while !self.at(&TokenKind::RParen) {
            args.push(self.parse_arg()?);
            self.skip_newlines();
            if !self.eat(&TokenKind::Comma) {
                break;
            }
            self.skip_newlines();
        }
        self.expect(&TokenKind::RParen)?;
        Ok(args)
    }

    fn parse_closure(&mut self) -> Result<Expr> {
        let open = self.expect(&TokenKind::LBrace)?;
        self.skip_separators();
        // Detect a parameter list: `ident (, ident)* ->` or `->`.
        let save = self.pos;
        let mut params = Vec::new();
        let mut has_params = false;
        if self.at(&TokenKind::Arrow) {
            self.bump();
            has_params = true; // explicit zero-arg closure `{ -> ... }`
        } else if matches!(self.peek(), TokenKind::Ident(_) | TokenKind::Def) {
            loop {
                if self.at(&TokenKind::Def) {
                    self.bump();
                }
                // Optionally typed parameter.
                if matches!(self.peek(), TokenKind::Ident(_))
                    && matches!(self.peek_at(1), TokenKind::Ident(_))
                {
                    let _ty = self.parse_type_name();
                }
                match self.peek().clone() {
                    TokenKind::Ident(name) => {
                        params.push(Param::simple(name));
                        self.bump();
                    }
                    _ => break,
                }
                if self.eat(&TokenKind::Comma) {
                    continue;
                }
                break;
            }
            if self.eat(&TokenKind::Arrow) {
                has_params = true;
            }
        }
        if !has_params {
            self.pos = save;
            params.clear();
        }
        let mut stmts = Vec::new();
        self.skip_separators();
        while !self.at(&TokenKind::RBrace) {
            if self.at(&TokenKind::Eof) {
                return Err(ParseError::new("unterminated closure", open.span));
            }
            stmts.push(self.parse_stmt()?);
            self.skip_separators();
        }
        let close = self.expect(&TokenKind::RBrace)?;
        let span = open.span.merge(close.span);
        Ok(Expr::Closure { params, body: Block { stmts, span }, span })
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let span = self.peek_span();
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Int(v, span))
            }
            TokenKind::Decimal(v) => {
                self.bump();
                Ok(Expr::Decimal(v, span))
            }
            TokenKind::Bool(b) => {
                self.bump();
                Ok(Expr::Bool(b, span))
            }
            TokenKind::Null => {
                self.bump();
                Ok(Expr::Null(span))
            }
            TokenKind::Str(s) => {
                self.bump();
                parse_string_literal(&s, span, self.depth)
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok(Expr::Var(name, span))
            }
            TokenKind::New => {
                self.bump();
                let ty = self.parse_type_name()?;
                let args =
                    if self.at(&TokenKind::LParen) { self.parse_paren_args()? } else { Vec::new() };
                Ok(Expr::New { ty, args, span })
            }
            TokenKind::LParen => {
                self.bump();
                self.skip_newlines();
                let e = self.parse_expr()?;
                self.skip_newlines();
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::LBracket => self.parse_list_or_map(),
            TokenKind::LBrace => self.parse_closure(),
            other => Err(ParseError::new(format!("unexpected token {other} in expression"), span)),
        }
    }

    fn parse_list_or_map(&mut self) -> Result<Expr> {
        let open = self.expect(&TokenKind::LBracket)?;
        self.skip_newlines();
        // `[:]` — empty map.
        if self.at(&TokenKind::Colon) && *self.peek_at(1) == TokenKind::RBracket {
            self.bump();
            let close = self.bump();
            return Ok(Expr::MapLit(Vec::new(), open.span.merge(close.span)));
        }
        if self.at(&TokenKind::RBracket) {
            let close = self.bump();
            return Ok(Expr::ListLit(Vec::new(), open.span.merge(close.span)));
        }
        // Map literal when the first entry is `key: value`.
        let is_map = matches!(
            (self.peek(), self.peek_at(1)),
            (TokenKind::Ident(_), TokenKind::Colon) | (TokenKind::Str(_), TokenKind::Colon)
        );
        if is_map {
            let mut entries = Vec::new();
            loop {
                let key = match self.peek().clone() {
                    TokenKind::Ident(k) => {
                        self.bump();
                        k
                    }
                    TokenKind::Str(k) => {
                        self.bump();
                        k
                    }
                    other => {
                        return Err(ParseError::new(
                            format!("expected map key, found {other}"),
                            self.peek_span(),
                        ))
                    }
                };
                self.expect(&TokenKind::Colon)?;
                self.skip_newlines();
                let value = self.parse_expr()?;
                entries.push((key, value));
                self.skip_newlines();
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
                self.skip_newlines();
            }
            let close = self.expect(&TokenKind::RBracket)?;
            Ok(Expr::MapLit(entries, open.span.merge(close.span)))
        } else {
            let mut items = Vec::new();
            loop {
                items.push(self.parse_expr()?);
                self.skip_newlines();
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
                self.skip_newlines();
            }
            let close = self.expect(&TokenKind::RBracket)?;
            Ok(Expr::ListLit(items, open.span.merge(close.span)))
        }
    }
}

/// An error inside a GString interpolation, reported at the string literal
/// and keeping its kind.
fn interpolation_error(error: ParseError, span: Span) -> ParseError {
    ParseError { message: format!("in string interpolation: {}", error.message), span, ..error }
}

/// Splits a raw string literal into GString parts, parsing `${...}`
/// interpolations as expressions and `$ident` shorthand as variable lookups.
/// Interpolations parse `nesting` units deep, the nesting of the literal.
fn parse_string_literal(raw: &str, span: Span, nesting: usize) -> Result<Expr> {
    if !raw.contains('$') {
        return Ok(Expr::Str(raw.to_string(), span));
    }
    let mut parts: Vec<GStringPart> = Vec::new();
    let mut text = String::new();
    let bytes = raw.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'$' && i + 1 < bytes.len() && bytes[i + 1] == b'{' {
            if !text.is_empty() {
                parts.push(GStringPart::Text(std::mem::take(&mut text)));
            }
            // Find the matching close brace.
            let mut depth = 1;
            let mut j = i + 2;
            while j < bytes.len() && depth > 0 {
                match bytes[j] {
                    b'{' => depth += 1,
                    b'}' => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            if depth != 0 {
                return Err(ParseError::new("unterminated ${...} interpolation", span));
            }
            let inner = &raw[i + 2..j - 1];
            let expr =
                parse_expression_at(inner, nesting).map_err(|e| interpolation_error(e, span))?;
            parts.push(GStringPart::Interp(expr));
            i = j;
        } else if bytes[i] == b'$'
            && i + 1 < bytes.len()
            && (bytes[i + 1].is_ascii_alphabetic() || bytes[i + 1] == b'_')
        {
            if !text.is_empty() {
                parts.push(GStringPart::Text(std::mem::take(&mut text)));
            }
            let mut j = i + 1;
            // `$a.b.c` shorthand: identifiers joined by dots.
            while j < bytes.len()
                && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_' || bytes[j] == b'.')
            {
                j += 1;
            }
            let path = raw[i + 1..j].trim_end_matches('.');
            let expr =
                parse_expression_at(path, nesting).map_err(|e| interpolation_error(e, span))?;
            parts.push(GStringPart::Interp(expr));
            i = i + 1 + path.len();
        } else {
            text.push(bytes[i] as char);
            i += 1;
        }
    }
    if !text.is_empty() {
        parts.push(GStringPart::Text(text));
    }
    // A string whose interpolations all turned out to be plain text.
    if parts.iter().all(|p| matches!(p, GStringPart::Text(_))) {
        return Ok(Expr::Str(raw.to_string(), span));
    }
    Ok(Expr::GString(parts, span))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ParseErrorKind;

    #[test]
    fn parses_definition_block() {
        let src = r#"
definition(
    name: "Brighten Dark Places",
    namespace: "smartthings",
    author: "SmartThings",
    description: "Turn your lights on when a contact sensor opens and it is dark."
)
"#;
        let script = parse(src).unwrap();
        assert_eq!(script.items.len(), 1);
        let Item::Stmt(Stmt::Expr(Expr::MethodCall { name, args, .. })) = &script.items[0] else {
            panic!("expected definition call");
        };
        assert_eq!(name, "definition");
        assert_eq!(args.len(), 4);
        assert!(matches!(&args[0], Arg::Named(k, _) if k == "name"));
    }

    #[test]
    fn parses_preferences_with_inputs() {
        let src = r#"
preferences {
    section("Choose a temperature sensor ... ") {
        input "sensor", "capability.temperatureMeasurement", title: "Sensor"
    }
    section("Select the heater or air conditioner outlet(s)... ") {
        input "outlets", "capability.switch", title: "Outlets", multiple: true
    }
    section("Set the desired temperature ...") {
        input "setpoint", "decimal", title: "Set Temp"
    }
}
"#;
        let script = parse(src).unwrap();
        let Item::Stmt(Stmt::Expr(Expr::MethodCall { name, closure, .. })) = &script.items[0]
        else {
            panic!("expected preferences call");
        };
        assert_eq!(name, "preferences");
        let Expr::Closure { body, .. } = closure.as_deref().unwrap() else {
            panic!("expected closure")
        };
        assert_eq!(body.stmts.len(), 3);
    }

    #[test]
    fn parses_event_handler_method() {
        let src = r#"
def motionActiveHandler(evt) {
    if (evt.value == "active") {
        switches.on()
    } else {
        switches.off()
    }
}
"#;
        let script = parse(src).unwrap();
        let m = script.method("motionActiveHandler").unwrap();
        assert_eq!(m.params.len(), 1);
        assert_eq!(m.body.stmts.len(), 1);
        assert!(matches!(m.body.stmts[0], Stmt::If { .. }));
    }

    #[test]
    fn parses_subscribe_and_schedule_calls() {
        let src = r#"
def initialize() {
    subscribe(motionSensor, "motion.active", motionActiveHandler)
    subscribe(contact, "contact", contactHandler)
    schedule("0 0 22 * * ?", goodNight)
    runIn(60 * minutes, checkMotion)
}
"#;
        let script = parse(src).unwrap();
        let m = script.method("initialize").unwrap();
        assert_eq!(m.body.stmts.len(), 4);
    }

    #[test]
    fn parses_typed_method_and_list_plus() {
        let src = r#"
private onSwitches() {
    switches + onSwitches
}
"#;
        let script = parse(src).unwrap();
        let m = script.method("onSwitches").unwrap();
        assert!(m.modifiers.private);
        assert!(matches!(m.body.stmts[0], Stmt::Expr(Expr::Binary { op: BinOp::Add, .. })));
    }

    #[test]
    fn parses_closures_with_params_and_it() {
        let src = r#"
def allOff() {
    switches.each { it.off() }
    switches.findAll { s -> s.currentSwitch == "on" }.each { s -> s.off() }
}
"#;
        let script = parse(src).unwrap();
        let m = script.method("allOff").unwrap();
        assert_eq!(m.body.stmts.len(), 2);
    }

    #[test]
    fn parses_gstring_interpolation() {
        let e = parse_expression(r#""Temperature is ${evt.doubleValue} degrees""#).unwrap();
        let Expr::GString(parts, _) = e else { panic!("expected gstring") };
        assert_eq!(parts.len(), 3);
        assert!(matches!(parts[1], GStringPart::Interp(_)));
    }

    #[test]
    fn parses_dollar_ident_interpolation() {
        let e = parse_expression(r#""mode is $location.mode now""#).unwrap();
        let Expr::GString(parts, _) = e else { panic!("expected gstring") };
        assert!(matches!(&parts[1], GStringPart::Interp(Expr::Property { .. })));
    }

    #[test]
    fn parses_map_and_list_literals() {
        let e =
            parse_expression(r#"[name: "smoke", value: "detected", isStateChange: true]"#).unwrap();
        let Expr::MapLit(entries, _) = e else { panic!("expected map") };
        assert_eq!(entries.len(), 3);

        let e = parse_expression(r#"[1, 2, 3]"#).unwrap();
        assert!(matches!(e, Expr::ListLit(ref items, _) if items.len() == 3));

        assert!(matches!(parse_expression("[:]").unwrap(), Expr::MapLit(ref v, _) if v.is_empty()));
        assert!(matches!(parse_expression("[]").unwrap(), Expr::ListLit(ref v, _) if v.is_empty()));
    }

    #[test]
    fn parses_ternary_and_elvis() {
        let e = parse_expression(r#"mode == "cool" ? 1 : 0"#).unwrap();
        assert!(matches!(e, Expr::Ternary { .. }));
        let e = parse_expression(r#"settings.minutes ?: 10"#).unwrap();
        assert!(matches!(e, Expr::Elvis { .. }));
    }

    #[test]
    fn parses_safe_navigation() {
        let e = parse_expression("motion?.currentMotion").unwrap();
        assert!(matches!(e, Expr::Property { safe: true, .. }));
    }

    #[test]
    fn parses_operator_precedence() {
        let e = parse_expression("a + b * c").unwrap();
        let Expr::Binary { op: BinOp::Add, rhs, .. } = e else { panic!() };
        assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));

        let e = parse_expression("a || b && c").unwrap();
        let Expr::Binary { op: BinOp::Or, rhs, .. } = e else { panic!() };
        assert!(matches!(*rhs, Expr::Binary { op: BinOp::And, .. }));
    }

    #[test]
    fn parses_cast_and_new() {
        let e = parse_expression("settings.setpoint as BigDecimal").unwrap();
        assert!(matches!(e, Expr::Cast { .. }));
        let e = parse_expression("new Date()").unwrap();
        assert!(matches!(e, Expr::New { .. }));
    }

    #[test]
    fn parses_for_in_and_while() {
        let src = r#"
def loopy() {
    for (s in switches) {
        s.off()
    }
    def i = 0
    while (i < 10) {
        i = i + 1
    }
}
"#;
        let script = parse(src).unwrap();
        let m = script.method("loopy").unwrap();
        assert!(matches!(m.body.stmts[0], Stmt::ForIn { .. }));
        assert!(matches!(m.body.stmts[2], Stmt::While { .. }));
    }

    #[test]
    fn parses_switch_statement() {
        let src = r#"
def modeHandler(evt) {
    switch (evt.value) {
        case "Home":
            lock.unlock()
            break
        case "Away":
            lock.lock()
            break
        default:
            log.debug "unknown"
    }
}
"#;
        let script = parse(src).unwrap();
        let m = script.method("modeHandler").unwrap();
        let Stmt::Switch { cases, default, .. } = &m.body.stmts[0] else { panic!() };
        assert_eq!(cases.len(), 2);
        assert!(default.is_some());
    }

    #[test]
    fn parses_command_call_without_parens() {
        let src = r#"
def notifyUser() {
    sendPush "The door is open"
    sendSms phone, "Intruder detected"
    unschedule checkDoor
}
"#;
        let script = parse(src).unwrap();
        let m = script.method("notifyUser").unwrap();
        assert_eq!(m.body.stmts.len(), 3);
        let Stmt::Expr(Expr::MethodCall { name, args, .. }) = &m.body.stmts[1] else { panic!() };
        assert_eq!(name, "sendSms");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn parses_assignments_and_compound_ops() {
        let src = r#"
def counter() {
    state.count = 0
    state.count += 1
    state.count++
}
"#;
        let script = parse(src).unwrap();
        let m = script.method("counter").unwrap();
        assert!(matches!(m.body.stmts[0], Stmt::Assign { op: AssignOp::Assign, .. }));
        assert!(matches!(m.body.stmts[1], Stmt::Assign { op: AssignOp::AddAssign, .. }));
        assert!(matches!(m.body.stmts[2], Stmt::Assign { op: AssignOp::AddAssign, .. }));
    }

    #[test]
    fn parses_else_if_chain() {
        let src = r#"
def check(evt) {
    if (evt.value == "open") {
        light.on()
    } else if (evt.value == "closed") {
        light.off()
    } else {
        log.debug "other"
    }
}
"#;
        let script = parse(src).unwrap();
        let m = script.method("check").unwrap();
        let Stmt::If { else_block: Some(e), .. } = &m.body.stmts[0] else { panic!() };
        assert!(matches!(e.stmts[0], Stmt::If { .. }));
    }

    #[test]
    fn parses_try_catch() {
        let src = r#"
def risky() {
    try {
        httpPost(uri, body)
    } catch (e) {
        log.error "post failed"
    }
}
"#;
        let script = parse(src).unwrap();
        assert!(matches!(script.method("risky").unwrap().body.stmts[0], Stmt::TryCatch { .. }));
    }

    #[test]
    fn parses_virtual_thermostat_preferences() {
        // The exact preferences block from Figure 1 of the paper.
        let src = r#"
preferences {
    section("Choose a temperature sensor ... ") {
        input "sensor", "capability.temperatureMeasurement", title: "Sensor"
    }
    section("Select the heater or air conditioner outlet(s)... ") {
        input "outlets", "capability.switch", title: "Outlets", multiple: true
    }
    section("Set the desired temperature ...") {
        input "setpoint", "decimal", title: "Set Temp"
    }
    section("When there's been movement from (optional)") {
        input "motion", "capability.motionSensor", title: "Motion", required: false
    }
    section("Within this number of minutes ...") {
        input "minutes", "number", title: "Minutes", required: false
    }
    section("But never go below (or above if A/C) this value with or without motion ...") {
        input "emergencySetpoint", "decimal", title: "Emer Temp", required: false
    }
    section("Select 'heat' for a heater and 'cool' for an air conditioner ...") {
        input "mode", "enum", title: "Heating or cooling?", options: ["heat", "cool"]
    }
}
"#;
        let script = parse(src).unwrap();
        assert_eq!(script.items.len(), 1);
    }

    #[test]
    fn error_reports_line() {
        let err = parse("def broken() {\n  if (x ==) { }\n}").unwrap_err();
        assert_eq!(err.span.line, 2);
    }

    #[test]
    fn parses_return_with_and_without_value() {
        let src = "def f() {\n return\n}\ndef g() {\n return 42\n}";
        let script = parse(src).unwrap();
        assert!(matches!(script.method("f").unwrap().body.stmts[0], Stmt::Return(None, _)));
        assert!(matches!(script.method("g").unwrap().body.stmts[0], Stmt::Return(Some(_), _)));
    }

    #[test]
    fn parses_index_and_range() {
        let e = parse_expression("switches[0]").unwrap();
        assert!(matches!(e, Expr::Index { .. }));
        let e = parse_expression("1..5").unwrap();
        assert!(matches!(e, Expr::Range { .. }));
    }

    #[test]
    fn parses_in_operator() {
        let e = parse_expression(r#"evt.value in ["open", "closed"]"#).unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::In, .. }));
    }

    fn handler_returning(expr: &str) -> String {
        format!("def handler(evt) {{\n    return {expr}\n}}\n")
    }

    fn assert_too_deep(source: &str) {
        let err = parse(source).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep, "{err}");
    }

    /// 100,000 nested parentheses used to overflow the stack and abort the
    /// process; they are now a typed error.
    #[test]
    fn deep_parentheses_are_rejected_not_aborted() {
        let n = 100_000;
        assert_too_deep(&handler_returning(&format!("{}1{}", "(".repeat(n), ")".repeat(n))));
        let err = parse_expression(&format!("{}1{}", "(".repeat(n), ")".repeat(n))).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
    }

    /// Every other way of deepening the tree is budgeted too: unary
    /// operators, ternaries, statements, `else if` chains, closures, and
    /// operator and call chains, which build deep trees without recursing.
    #[test]
    fn every_deepening_construct_is_budgeted() {
        let n = 100_000;
        assert_too_deep(&handler_returning(&format!("{}x", "!".repeat(n))));
        assert_too_deep(&handler_returning(&format!("{}1", "x ? 1 : ".repeat(n))));
        assert_too_deep(&handler_returning(&vec!["1"; n].join(" + ")));
        assert_too_deep(&handler_returning(&vec!["a"; n].join(" && ")));
        assert_too_deep(&handler_returning(&format!("x{}", ".y".repeat(n))));
        assert_too_deep(&handler_returning(&format!("x{}", "[0]".repeat(n))));
        assert_too_deep(&handler_returning(&format!("[{}1{}", "[".repeat(n), "]".repeat(n + 1))));
        let blocks =
            format!("def handler(evt) {{\n{}{}\n}}\n", "if (x) {\n".repeat(n), "}\n".repeat(n));
        assert_too_deep(&blocks);
        let closures =
            format!("def handler(evt) {{\n{}{}\n}}\n", "each {\n".repeat(n), "}\n".repeat(n));
        assert_too_deep(&closures);
        let chain = format!(
            "def handler(evt) {{\n    if (a) {{ }}\n{}\n}}\n",
            "    else if (a) { }\n".repeat(n)
        );
        assert_too_deep(&chain);
    }

    /// A GString interpolation is parsed at the depth of its string, costing
    /// what a parenthesized expression there would.
    fn nested(n: usize, inner: &str) -> String {
        handler_returning(&format!("{}{inner}{}", "(".repeat(n), ")".repeat(n)))
    }

    #[test]
    fn interpolations_inherit_the_depth_of_their_string() {
        let deepest = (0..MAX_NESTING).take_while(|&n| parse(&nested(n, "1")).is_ok()).last();
        let deepest = deepest.expect("a handler parses");
        assert!(deepest >= 16, "only {deepest} nested parentheses parse");
        assert!(deepest < MAX_NESTING / EXPRESSION_COST);
        assert!(parse(&nested(deepest - 1, "\"${x}\"")).is_ok());
        assert_too_deep(&nested(deepest, "\"${x}\""));
    }

    /// The budget is per statement: many statements, each with a moderate
    /// chain, parse no matter how many there are.
    #[test]
    fn nesting_below_the_budget_parses() {
        parse(&nested(MAX_NESTING / EXPRESSION_COST / 2, "1")).unwrap();
        let body = "    x = a + b + c.d.e + f(g, h)\n".repeat(10_000);
        parse(&format!("def handler(evt) {{\n{body}}}\n")).unwrap();
    }
}
