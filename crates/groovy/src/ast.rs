//! Abstract syntax tree for the Groovy subset used by SmartThings smart apps.
//!
//! The AST is deliberately close to Groovy's surface syntax: dynamic `def`
//! declarations, closures, list/map literals, GStrings and "command calls"
//! (paren-less calls such as `input "sensor", "capability.switch"`). The
//! downstream translator (`iotsan-ir`) performs type inference and lowering.

use crate::span::Span;
use std::fmt;

/// A parsed smart-app source file.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl Script {
    /// All method declarations in the script.
    pub fn methods(&self) -> impl Iterator<Item = &MethodDecl> {
        self.items.iter().filter_map(|item| match item {
            Item::Method(m) => Some(m),
            _ => None,
        })
    }

    /// Finds a method by name.
    pub fn method(&self, name: &str) -> Option<&MethodDecl> {
        self.methods().find(|m| m.name == name)
    }
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A method (event handler, helper, lifecycle hook).
    Method(MethodDecl),
    /// A top-level statement, e.g. a `definition(...)` call, a
    /// `preferences { ... }` block, or an `@Field` variable declaration.
    Stmt(Stmt),
}

/// Method modifiers; SmartThings apps use only a small set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Modifiers {
    /// `private`
    pub private: bool,
    /// `static`
    pub is_static: bool,
}

/// A method declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDecl {
    /// Method name, e.g. `motionActiveHandler`.
    pub name: String,
    /// Declared return type, if the developer wrote one (otherwise `def`).
    pub return_type: Option<TypeName>,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// Method body.
    pub body: Block,
    /// Modifiers.
    pub modifiers: Modifiers,
    /// Source span of the declaration.
    pub span: Span,
}

/// A formal parameter of a method or closure.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Optional declared type.
    pub ty: Option<TypeName>,
    /// Optional default value.
    pub default: Option<Expr>,
}

impl Param {
    /// An untyped parameter with no default.
    pub fn simple(name: impl Into<String>) -> Self {
        Param { name: name.into(), ty: None, default: None }
    }
}

/// A (possibly array) type name such as `STSwitch[]` or `Map`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TypeName {
    /// Base name, e.g. `Integer`, `String`, `STSwitch`.
    pub name: String,
    /// Number of array dimensions (`[]` suffixes).
    pub array_dims: usize,
}

impl TypeName {
    /// Creates a scalar type name.
    pub fn simple(name: impl Into<String>) -> Self {
        TypeName { name: name.into(), array_dims: 0 }
    }
}

impl fmt::Display for TypeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        for _ in 0..self.array_dims {
            write!(f, "[]")?;
        }
        Ok(())
    }
}

/// A brace-delimited sequence of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
    /// Source span.
    pub span: Span,
}

/// Compound assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    AddAssign,
    /// `-=`
    SubAssign,
    /// `*=`
    MulAssign,
    /// `/=`
    DivAssign,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// An expression evaluated for its side effects (usually a call).
    Expr(Expr),
    /// `def x = e` or `Integer x = e` (also used for `@Field` declarations).
    VarDecl {
        /// Declared type, `None` for `def`.
        ty: Option<TypeName>,
        /// Variable name.
        name: String,
        /// Optional initializer.
        init: Option<Expr>,
        /// Source span.
        span: Span,
    },
    /// `target op= value`
    Assign {
        /// Assignment target (variable, property or index expression).
        target: Expr,
        /// The assignment operator.
        op: AssignOp,
        /// Right-hand side.
        value: Expr,
        /// Source span.
        span: Span,
    },
    /// `if (cond) { ... } else ...`
    If {
        /// Branch condition.
        cond: Expr,
        /// Then branch.
        then_block: Block,
        /// Optional else branch (an `else if` chain is nested blocks).
        else_block: Option<Block>,
        /// Source span.
        span: Span,
    },
    /// `while (cond) { ... }`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
        /// Source span.
        span: Span,
    },
    /// `for (x in iterable) { ... }`
    ForIn {
        /// Loop variable.
        var: String,
        /// Iterated expression.
        iterable: Expr,
        /// Loop body.
        body: Block,
        /// Source span.
        span: Span,
    },
    /// `switch (subject) { case v: ...; default: ... }`
    Switch {
        /// Switch subject.
        subject: Expr,
        /// `case` arms in source order.
        cases: Vec<SwitchCase>,
        /// Optional `default` arm.
        default: Option<Block>,
        /// Source span.
        span: Span,
    },
    /// `try { ... } catch (e) { ... }` — the catch variable is ignored downstream.
    TryCatch {
        /// Protected body.
        body: Block,
        /// Handler body.
        catch: Block,
        /// Source span.
        span: Span,
    },
    /// `return e`
    Return(Option<Expr>, Span),
    /// `break`
    Break(Span),
    /// `continue`
    Continue(Span),
}

impl Stmt {
    /// The source span of the statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Expr(e) => e.span(),
            Stmt::VarDecl { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::ForIn { span, .. }
            | Stmt::Switch { span, .. }
            | Stmt::TryCatch { span, .. } => *span,
            Stmt::Return(_, span) | Stmt::Break(span) | Stmt::Continue(span) => *span,
        }
    }
}

/// One `case` arm of a `switch` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchCase {
    /// The matched value.
    pub value: Expr,
    /// The arm body (fallthrough is not modelled; SmartThings apps `break`).
    pub body: Block,
}

/// Binary operators, named after their Groovy spelling.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    /// Membership test `x in list`.
    In,
    /// Spaceship `<=>`.
    Compare,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::NotEq => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::In => "in",
            BinOp::Compare => "<=>",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Logical negation `!`.
    Not,
    /// Arithmetic negation `-`.
    Neg,
}

/// A piece of a GString: either literal text or an interpolated expression.
#[derive(Debug, Clone, PartialEq)]
pub enum GStringPart {
    /// Literal text.
    Text(String),
    /// A `${...}` or `$ident` interpolation.
    Interp(Expr),
}

/// A call argument: positional or named (`title: "Sensor"`).
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// A positional argument.
    Positional(Expr),
    /// A named argument, e.g. `required: false`.
    Named(String, Expr),
}

impl Arg {
    /// The argument's expression, ignoring whether it is named.
    pub fn expr(&self) -> &Expr {
        match self {
            Arg::Positional(e) | Arg::Named(_, e) => e,
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Span),
    /// Decimal literal.
    Decimal(f64, Span),
    /// Plain string literal (no interpolation).
    Str(String, Span),
    /// Interpolated string (GString).
    GString(Vec<GStringPart>, Span),
    /// Boolean literal.
    Bool(bool, Span),
    /// `null`.
    Null(Span),
    /// Variable or implicit-object reference.
    Var(String, Span),
    /// Property access `object.name` (or `object?.name`).
    Property {
        /// Receiver.
        object: Box<Expr>,
        /// Property name.
        name: String,
        /// True for safe navigation (`?.`).
        safe: bool,
        /// Source span.
        span: Span,
    },
    /// Index access `object[index]`.
    Index {
        /// Receiver.
        object: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// A method call. `object` is `None` for implicit-this calls such as
    /// `subscribe(...)` and SmartThings API calls.
    MethodCall {
        /// Receiver, if any.
        object: Option<Box<Expr>>,
        /// Method name.
        name: String,
        /// Arguments (positional and named).
        args: Vec<Arg>,
        /// Trailing closure, if the call used `f(args) { ... }` syntax.
        closure: Option<Box<Expr>>,
        /// True for safe navigation (`?.`).
        safe: bool,
        /// Source span.
        span: Span,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// Ternary conditional `cond ? a : b`.
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then: Box<Expr>,
        /// Value when false.
        els: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// Elvis operator `value ?: fallback`.
    Elvis {
        /// Preferred value.
        value: Box<Expr>,
        /// Fallback when the value is null/false.
        fallback: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// List literal `[a, b, c]`.
    ListLit(Vec<Expr>, Span),
    /// Map literal `[key: value, ...]` (also the empty map `[:]`).
    MapLit(Vec<(String, Expr)>, Span),
    /// Range `a..b`.
    Range {
        /// Lower bound (inclusive).
        from: Box<Expr>,
        /// Upper bound (inclusive).
        to: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// Closure literal `{ params -> stmts }`.
    Closure {
        /// Parameters; an empty list means the implicit `it` parameter.
        params: Vec<Param>,
        /// Body statements.
        body: Block,
        /// Source span.
        span: Span,
    },
    /// Cast `expr as Type`.
    Cast {
        /// The value being cast.
        expr: Box<Expr>,
        /// The target type.
        ty: TypeName,
        /// Source span.
        span: Span,
    },
    /// Constructor call `new Type(args)`.
    New {
        /// Constructed type.
        ty: TypeName,
        /// Constructor arguments.
        args: Vec<Arg>,
        /// Source span.
        span: Span,
    },
}

impl Expr {
    /// The source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s)
            | Expr::Decimal(_, s)
            | Expr::Str(_, s)
            | Expr::GString(_, s)
            | Expr::Bool(_, s)
            | Expr::Null(s)
            | Expr::Var(_, s)
            | Expr::ListLit(_, s)
            | Expr::MapLit(_, s) => *s,
            Expr::Property { span, .. }
            | Expr::Index { span, .. }
            | Expr::MethodCall { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Ternary { span, .. }
            | Expr::Elvis { span, .. }
            | Expr::Range { span, .. }
            | Expr::Closure { span, .. }
            | Expr::Cast { span, .. }
            | Expr::New { span, .. } => *span,
        }
    }

    /// Returns the string value when this is a plain string literal.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Expr::Str(s, _) => Some(s),
            _ => None,
        }
    }

    /// Returns the variable name when this is a simple variable reference.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Expr::Var(s, _) => Some(s),
            _ => None,
        }
    }
}

/// Walks an expression tree, invoking `f` on every sub-expression (preorder).
pub fn walk_expr<'a>(expr: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(expr);
    match expr {
        Expr::Property { object, .. } => walk_expr(object, f),
        Expr::Index { object, index, .. } => {
            walk_expr(object, f);
            walk_expr(index, f);
        }
        Expr::MethodCall { object, args, closure, .. } => {
            if let Some(o) = object {
                walk_expr(o, f);
            }
            for a in args {
                walk_expr(a.expr(), f);
            }
            if let Some(c) = closure {
                walk_expr(c, f);
            }
        }
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        Expr::Unary { operand, .. } => walk_expr(operand, f),
        Expr::Ternary { cond, then, els, .. } => {
            walk_expr(cond, f);
            walk_expr(then, f);
            walk_expr(els, f);
        }
        Expr::Elvis { value, fallback, .. } => {
            walk_expr(value, f);
            walk_expr(fallback, f);
        }
        Expr::ListLit(items, _) => {
            for e in items {
                walk_expr(e, f);
            }
        }
        Expr::MapLit(entries, _) => {
            for (_, e) in entries {
                walk_expr(e, f);
            }
        }
        Expr::Range { from, to, .. } => {
            walk_expr(from, f);
            walk_expr(to, f);
        }
        Expr::Closure { body, .. } => walk_block(body, &mut |s| walk_stmt_exprs(s, f)),
        Expr::Cast { expr, .. } => walk_expr(expr, f),
        Expr::New { args, .. } => {
            for a in args {
                walk_expr(a.expr(), f);
            }
        }
        Expr::GString(parts, _) => {
            for p in parts {
                if let GStringPart::Interp(e) = p {
                    walk_expr(e, f);
                }
            }
        }
        _ => {}
    }
}

/// Walks every statement in a block (preorder, recursing into nested blocks).
pub fn walk_block<'a>(block: &'a Block, f: &mut impl FnMut(&'a Stmt)) {
    for stmt in &block.stmts {
        walk_stmt(stmt, f);
    }
}

/// Walks a statement and all nested statements (preorder).
pub fn walk_stmt<'a>(stmt: &'a Stmt, f: &mut impl FnMut(&'a Stmt)) {
    f(stmt);
    match stmt {
        Stmt::If { then_block, else_block, .. } => {
            walk_block(then_block, f);
            if let Some(e) = else_block {
                walk_block(e, f);
            }
        }
        Stmt::While { body, .. } | Stmt::ForIn { body, .. } => walk_block(body, f),
        Stmt::Switch { cases, default, .. } => {
            for c in cases {
                walk_block(&c.body, f);
            }
            if let Some(d) = default {
                walk_block(d, f);
            }
        }
        Stmt::TryCatch { body, catch, .. } => {
            walk_block(body, f);
            walk_block(catch, f);
        }
        _ => {}
    }
}

/// Invokes `f` on every expression reachable from `stmt` (including inside
/// nested statements and closures).
pub fn walk_stmt_exprs<'a>(stmt: &'a Stmt, f: &mut impl FnMut(&'a Expr)) {
    match stmt {
        Stmt::Expr(e) => walk_expr(e, f),
        Stmt::VarDecl { init: Some(e), .. } => walk_expr(e, f),
        Stmt::Assign { target, value, .. } => {
            walk_expr(target, f);
            walk_expr(value, f);
        }
        Stmt::If { cond, then_block, else_block, .. } => {
            walk_expr(cond, f);
            for s in &then_block.stmts {
                walk_stmt_exprs(s, f);
            }
            if let Some(b) = else_block {
                for s in &b.stmts {
                    walk_stmt_exprs(s, f);
                }
            }
        }
        Stmt::While { cond, body, .. } => {
            walk_expr(cond, f);
            for s in &body.stmts {
                walk_stmt_exprs(s, f);
            }
        }
        Stmt::ForIn { iterable, body, .. } => {
            walk_expr(iterable, f);
            for s in &body.stmts {
                walk_stmt_exprs(s, f);
            }
        }
        Stmt::Switch { subject, cases, default, .. } => {
            walk_expr(subject, f);
            for c in cases {
                walk_expr(&c.value, f);
                for s in &c.body.stmts {
                    walk_stmt_exprs(s, f);
                }
            }
            if let Some(d) = default {
                for s in &d.stmts {
                    walk_stmt_exprs(s, f);
                }
            }
        }
        Stmt::TryCatch { body, catch, .. } => {
            for s in &body.stmts {
                walk_stmt_exprs(s, f);
            }
            for s in &catch.stmts {
                walk_stmt_exprs(s, f);
            }
        }
        Stmt::Return(Some(e), _) => walk_expr(e, f),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(name: &str) -> Expr {
        Expr::Var(name.into(), Span::synthetic())
    }

    #[test]
    fn type_name_display() {
        assert_eq!(TypeName::simple("Integer").to_string(), "Integer");
        assert_eq!(TypeName { name: "STSwitch".into(), array_dims: 1 }.to_string(), "STSwitch[]");
    }

    #[test]
    fn expr_accessors() {
        let s = Expr::Str("contact.open".into(), Span::synthetic());
        assert_eq!(s.as_str(), Some("contact.open"));
        assert_eq!(var("x").as_var(), Some("x"));
        assert_eq!(s.as_var(), None);
    }

    #[test]
    fn walk_expr_visits_all_nodes() {
        let e = Expr::Binary {
            op: BinOp::And,
            lhs: Box::new(var("a")),
            rhs: Box::new(Expr::Unary {
                op: UnOp::Not,
                operand: Box::new(var("b")),
                span: Span::synthetic(),
            }),
            span: Span::synthetic(),
        };
        let mut names = Vec::new();
        walk_expr(&e, &mut |e| {
            if let Some(v) = e.as_var() {
                names.push(v.to_string());
            }
        });
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn walk_stmt_recurses_into_branches() {
        let stmt = Stmt::If {
            cond: var("c"),
            then_block: Block { stmts: vec![Stmt::Expr(var("t"))], span: Span::synthetic() },
            else_block: Some(Block { stmts: vec![Stmt::Expr(var("e"))], span: Span::synthetic() }),
            span: Span::synthetic(),
        };
        let mut count = 0;
        walk_stmt(&stmt, &mut |_| count += 1);
        assert_eq!(count, 3);

        let mut exprs = Vec::new();
        walk_stmt_exprs(&stmt, &mut |e| {
            if let Some(v) = e.as_var() {
                exprs.push(v.to_string());
            }
        });
        assert_eq!(exprs, vec!["c", "t", "e"]);
    }
}
