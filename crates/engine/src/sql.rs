//! The SQL frontend: lexer → recursive-descent parser → AST →
//! name-resolution / type-check → lowering onto [`QueryPlan`].
//!
//! The paper's pitch is reproducible aggregation *inside an RDBMS* —
//! which means queries must be expressible at runtime, in SQL, not only
//! through a Rust builder compiled into the binary. This module accepts
//!
//! ```sql
//! SELECT <group cols / aggregates> FROM <table>
//! [WHERE <boolean expression>]
//! [GROUP BY <col> [, <col>]]
//! ```
//!
//! with `SUM` / `COUNT(*)` / `AVG` / `MIN` / `MAX` aggregates,
//! `+ - * /` arithmetic and unary `-`, the comparisons
//! `< <= > >= = <> !=`, `[NOT] BETWEEN ... AND ...`, and
//! `AND` / `OR` / `NOT`. Keywords are case-insensitive; column and table
//! names are case-sensitive.
//!
//! **Pipeline.** [`parse_select`] turns text into a [`SelectStmt`] (pure
//! syntax — no schema access). [`sql_query`] then resolves it against a
//! concrete [`Table`]'s schema ([`Table::schema`]): every column
//! reference is checked to exist with numeric storage, the `WHERE` clause
//! is checked to be boolean, `SELECT` items are checked to be either
//! aggregates or `GROUP BY` columns, and the statement lowers to the same
//! [`QueryPlan`] the Rust builder produces — `GROUP BY` over one
//! `I32`/`U32`/`U8` column takes the hash arm with the paper's identity
//! hashing, and over two `U8` columns the packed hash-pair arm.
//!
//! **Why lowering preserves bit-identity.** The parser maps SQL scalar
//! expressions to the exact same [`Expr`] trees the builder constructs
//! (literals parse to the same `f64` bits, operators associate the same
//! way), so the compiled register programs — and hence every per-row
//! value — are identical. `WHERE` splits into the same conjuncts, which
//! select the same rows in the same order. SUM-state interning happens
//! *below* the frontend, on structural [`Expr`] equality, so
//! `SUM(x * (1 - y))` and `AVG(x * (1 - y))` share one state no matter
//! whether the two expressions came from one SQL string, two SQL strings,
//! or the builder. The pinned TPC-H texts ([`crate::q1::q1_sql`],
//! [`crate::q6::q6_sql`], [`crate::q15::q15_sql`]) are proptested
//! bit-identical to their builder plans across all fused backends and
//! thread counts.
//!
//! No parse, resolution or execution failure panics: everything surfaces
//! as a typed [`SqlError`] whose `Display` names the offending column,
//! its actual type and what was expected.

use crate::column::Table;
use crate::expr::{BoolExpr, CmpOp, Expr, NUMERIC_EXPECTED};
use crate::fused::{ExecOptions, PhaseTiming};
use crate::plan::{AggCall, PlanError, PlanResult, QueryPlan};
use crate::sum_op::SumBackend;
use std::fmt;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Errors of the SQL frontend. Parse errors carry the byte offset of the
/// offending token; resolution errors carry the column/table names and
/// the expected vs. actual types, so messages are actionable without
/// re-reading the query.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// The text failed to lex or parse.
    Parse { pos: usize, message: String },
    /// A referenced column does not exist in the table; `available`
    /// lists the table's schema for the error message.
    UnknownColumn {
        column: String,
        table: String,
        available: Vec<String>,
    },
    /// A column exists but its storage type does not fit its use.
    TypeMismatch {
        column: String,
        expected: &'static str,
        found: &'static str,
    },
    /// The statement names a different table than the one provided.
    WrongTable { expected: String, found: String },
    /// The statement is well-formed SQL the engine cannot run (the
    /// message says what and why).
    Unsupported(String),
    /// Execution-time failure of the lowered plan (overflow, reserved
    /// key, ...).
    Plan(PlanError),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse { pos, message } => {
                write!(f, "SQL parse error at byte {pos}: {message}")
            }
            SqlError::UnknownColumn {
                column,
                table,
                available,
            } => write!(
                f,
                "unknown column {column:?} in table {table:?} (available: {})",
                available.join(", ")
            ),
            SqlError::TypeMismatch {
                column,
                expected,
                found,
            } => write!(
                f,
                "column {column:?} is {found}, but this position needs {expected}"
            ),
            SqlError::WrongTable { expected, found } => write!(
                f,
                "query is over table {expected:?}, but was resolved against {found:?}"
            ),
            SqlError::Unsupported(what) => write!(f, "unsupported SQL: {what}"),
            SqlError::Plan(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<PlanError> for SqlError {
    fn from(e: PlanError) -> Self {
        SqlError::Plan(e)
    }
}

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

/// An aggregate function name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SqlAgg {
    Sum,
    Avg,
    Min,
    Max,
}

impl SqlAgg {
    fn keyword(self) -> &'static str {
        match self {
            SqlAgg::Sum => "SUM",
            SqlAgg::Avg => "AVG",
            SqlAgg::Min => "MIN",
            SqlAgg::Max => "MAX",
        }
    }
}

/// A binary operator of the SQL expression grammar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SqlBinOp {
    Add,
    Sub,
    Mul,
    Div,
    And,
    Or,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl SqlBinOp {
    fn token(self) -> &'static str {
        match self {
            SqlBinOp::Add => "+",
            SqlBinOp::Sub => "-",
            SqlBinOp::Mul => "*",
            SqlBinOp::Div => "/",
            SqlBinOp::And => "AND",
            SqlBinOp::Or => "OR",
            SqlBinOp::Lt => "<",
            SqlBinOp::Le => "<=",
            SqlBinOp::Gt => ">",
            SqlBinOp::Ge => ">=",
            SqlBinOp::Eq => "=",
            SqlBinOp::Ne => "<>",
        }
    }
}

/// A parsed SQL expression (scalar or boolean — the resolver decides
/// which is legal where). Equality is structural with *bitwise* number
/// comparison, mirroring [`Expr`]'s interning contract, which also makes
/// the printer→parser round-trip property exact on `-0.0`.
#[derive(Clone, Debug)]
pub enum SqlExpr {
    /// A column reference.
    Col(String),
    /// A numeric literal. Unary minus directly on a literal is folded
    /// into the literal at parse time (`-1.5` parses as `Num(-1.5)`).
    Num(f64),
    /// Unary minus on a non-literal.
    Neg(Box<SqlExpr>),
    /// Boolean `NOT`.
    Not(Box<SqlExpr>),
    Bin(SqlBinOp, Box<SqlExpr>, Box<SqlExpr>),
    /// `expr [NOT] BETWEEN lo AND hi` (inclusive).
    Between {
        expr: Box<SqlExpr>,
        negated: bool,
        lo: Box<SqlExpr>,
        hi: Box<SqlExpr>,
    },
    /// `SUM(e)` / `AVG(e)` / `MIN(e)` / `MAX(e)`.
    Agg(SqlAgg, Box<SqlExpr>),
    /// `COUNT(*)`.
    CountStar,
}

impl PartialEq for SqlExpr {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (SqlExpr::Col(a), SqlExpr::Col(b)) => a == b,
            (SqlExpr::Num(a), SqlExpr::Num(b)) => a.to_bits() == b.to_bits(),
            (SqlExpr::Neg(a), SqlExpr::Neg(b)) | (SqlExpr::Not(a), SqlExpr::Not(b)) => a == b,
            (SqlExpr::Bin(o1, a1, b1), SqlExpr::Bin(o2, a2, b2)) => {
                o1 == o2 && a1 == a2 && b1 == b2
            }
            (
                SqlExpr::Between {
                    expr: e1,
                    negated: n1,
                    lo: l1,
                    hi: h1,
                },
                SqlExpr::Between {
                    expr: e2,
                    negated: n2,
                    lo: l2,
                    hi: h2,
                },
            ) => n1 == n2 && e1 == e2 && l1 == l2 && h1 == h2,
            (SqlExpr::Agg(k1, e1), SqlExpr::Agg(k2, e2)) => k1 == k2 && e1 == e2,
            (SqlExpr::CountStar, SqlExpr::CountStar) => true,
            _ => false,
        }
    }
}

/// The canonical pretty-printer: compound expressions print fully
/// parenthesized, so printing and re-parsing reproduces the identical
/// AST (the round-trip property test).
impl fmt::Display for SqlExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlExpr::Col(name) => f.write_str(name),
            SqlExpr::Num(v) => write!(f, "{v:?}"),
            SqlExpr::Neg(e) => write!(f, "(- {e})"),
            SqlExpr::Not(e) => write!(f, "(NOT {e})"),
            SqlExpr::Bin(op, a, b) => write!(f, "({a} {} {b})", op.token()),
            SqlExpr::Between {
                expr,
                negated,
                lo,
                hi,
            } => {
                let not = if *negated { "NOT " } else { "" };
                write!(f, "({expr} {not}BETWEEN {lo} AND {hi})")
            }
            SqlExpr::Agg(kind, e) => write!(f, "{}({e})", kind.keyword()),
            SqlExpr::CountStar => f.write_str("COUNT(*)"),
        }
    }
}

/// One item of the `SELECT` list.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectItem {
    pub expr: SqlExpr,
    pub alias: Option<String>,
}

/// A parsed `SELECT` statement (syntax only — resolve it against a table
/// with [`sql_query`]).
#[derive(Clone, Debug, PartialEq)]
pub struct SelectStmt {
    pub items: Vec<SelectItem>,
    pub table: String,
    pub where_clause: Option<SqlExpr>,
    pub group_by: Vec<String>,
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}", item.expr)?;
            if let Some(alias) = &item.alias {
                write!(f, " AS {alias}")?;
            }
        }
        write!(f, " FROM {}", self.table)?;
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY {}", self.group_by.join(", "))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Num(f64),
    /// One of `( ) , ; * + - / < <= > >= = <> !=`.
    Punct(&'static str),
    Eof,
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier {s:?}"),
            Tok::Num(v) => format!("number {v}"),
            Tok::Punct(p) => format!("{p:?}"),
            Tok::Eof => "end of input".to_string(),
        }
    }
}

fn lex(sql: &str) -> Result<Vec<(Tok, usize)>, SqlError> {
    let bytes = sql.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'(' | b')' | b',' | b';' | b'*' | b'+' | b'-' | b'/' | b'=' => {
                let p = match c {
                    b'(' => "(",
                    b')' => ")",
                    b',' => ",",
                    b';' => ";",
                    b'*' => "*",
                    b'+' => "+",
                    b'-' => "-",
                    b'/' => "/",
                    _ => "=",
                };
                toks.push((Tok::Punct(p), i));
                i += 1;
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::Punct("<="), i));
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    toks.push((Tok::Punct("<>"), i));
                    i += 2;
                } else {
                    toks.push((Tok::Punct("<"), i));
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::Punct(">="), i));
                    i += 2;
                } else {
                    toks.push((Tok::Punct(">"), i));
                    i += 1;
                }
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::Punct("!="), i));
                    i += 2;
                } else {
                    return Err(SqlError::Parse {
                        pos: i,
                        message: "expected '=' after '!'".to_string(),
                    });
                }
            }
            b'0'..=b'9' | b'.' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i < bytes.len() && bytes[i] == b'.' {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] | 32) == b'e' {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j].is_ascii_digit() {
                        i = j;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &sql[start..i];
                let v: f64 = text.parse().map_err(|_| SqlError::Parse {
                    pos: start,
                    message: format!("malformed number {text:?}"),
                })?;
                // Reject overflowing literals: a non-finite Num would both
                // break the printer round-trip (`inf` re-parses as a
                // column name) and silently change query semantics.
                if !v.is_finite() {
                    return Err(SqlError::Parse {
                        pos: start,
                        message: format!("numeric literal {text:?} overflows f64"),
                    });
                }
                toks.push((Tok::Num(v), start));
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                toks.push((Tok::Ident(sql[start..i].to_string()), start));
            }
            _ => {
                return Err(SqlError::Parse {
                    pos: i,
                    message: format!(
                        "unexpected character {:?}",
                        sql[i..].chars().next().unwrap()
                    ),
                })
            }
        }
    }
    toks.push((Tok::Eof, sql.len()));
    Ok(toks)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser {
    toks: Vec<(Tok, usize)>,
    at: usize,
    /// Nested levels (parentheses, unary `-`, `NOT`, aggregate calls)
    /// around the current token.
    depth: usize,
}

/// Cap on both the parser's nesting and the height of the expression
/// tree it builds. The parser and every pass after it (resolve, lowering,
/// `compile`, `Display`, `PartialEq`, `Drop`) recurse once per level, so
/// an unbounded tree from one request frame would overflow a server
/// worker's stack, an abort no `catch_unwind` catches. An unoptimized
/// build spends about 13 KiB of stack per parenthesis level, so 64 levels
/// fit a 2 MiB thread stack in every build profile.
const MAX_EXPR_DEPTH: usize = 64;

/// A parsed subtree and its height (a leaf is 1).
type Sub = (SqlExpr, usize);

/// Reserved words (uppercased). An identifier equal to one of these can
/// never be a column or table name.
const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "AND", "OR", "NOT", "BETWEEN", "AS", "SUM", "COUNT",
    "AVG", "MIN", "MAX",
];

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.at].0
    }

    fn pos(&self) -> usize {
        self.toks[self.at].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.at].0.clone();
        if self.at + 1 < self.toks.len() {
            self.at += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> SqlError {
        SqlError::Parse {
            pos: self.pos(),
            message: message.into(),
        }
    }

    /// Is the current token the given keyword (case-insensitive)?
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected {kw}, found {}", self.peek().describe())))
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), SqlError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(format!("expected {p:?}, found {}", self.peek().describe())))
        }
    }

    /// A non-keyword identifier (column/table/alias name).
    fn expect_name(&mut self, what: &str) -> Result<String, SqlError> {
        match self.peek() {
            Tok::Ident(s) if !KEYWORDS.iter().any(|k| s.eq_ignore_ascii_case(k)) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => Err(self.error(format!("expected {what}, found {}", other.describe()))),
        }
    }

    fn too_deep(&self) -> SqlError {
        self.error(format!(
            "expression nests deeper than {MAX_EXPR_DEPTH} levels"
        ))
    }

    /// Parses one nested level, bounding the parser's own recursion.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Sub, SqlError>) -> Result<Sub, SqlError> {
        if self.depth == MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let sub = parse(self);
        self.depth -= 1;
        sub
    }

    /// `expr` over children at most `h` high, bounding the tree's height.
    fn node(&self, expr: SqlExpr, h: usize) -> Result<Sub, SqlError> {
        if h >= MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        Ok((expr, h + 1))
    }

    fn bin(&self, op: SqlBinOp, (l, lh): Sub, (r, rh): Sub) -> Result<Sub, SqlError> {
        self.node(SqlExpr::Bin(op, Box::new(l), Box::new(r)), lh.max(rh))
    }

    fn parse_stmt(&mut self) -> Result<SelectStmt, SqlError> {
        self.expect_keyword("SELECT")?;
        let mut items = vec![self.parse_item()?];
        while self.eat_punct(",") {
            items.push(self.parse_item()?);
        }
        self.expect_keyword("FROM")?;
        let table = self.expect_name("table name")?;
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.parse_expr()?.0)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.expect_name("column name")?);
            while self.eat_punct(",") {
                group_by.push(self.expect_name("column name")?);
            }
        }
        self.eat_punct(";");
        if !matches!(self.peek(), Tok::Eof) {
            return Err(self.error(format!(
                "unexpected {} after end of statement",
                self.peek().describe()
            )));
        }
        Ok(SelectStmt {
            items,
            table,
            where_clause,
            group_by,
        })
    }

    fn parse_item(&mut self) -> Result<SelectItem, SqlError> {
        let (expr, _) = self.parse_expr()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.expect_name("alias")?)
        } else {
            None
        };
        Ok(SelectItem { expr, alias })
    }

    /// expr := or_expr
    fn parse_expr(&mut self) -> Result<Sub, SqlError> {
        let mut e = self.parse_and()?;
        while self.eat_keyword("OR") {
            let rhs = self.parse_and()?;
            e = self.bin(SqlBinOp::Or, e, rhs)?;
        }
        Ok(e)
    }

    fn parse_and(&mut self) -> Result<Sub, SqlError> {
        let mut e = self.parse_not()?;
        while self.eat_keyword("AND") {
            let rhs = self.parse_not()?;
            e = self.bin(SqlBinOp::And, e, rhs)?;
        }
        Ok(e)
    }

    fn parse_not(&mut self) -> Result<Sub, SqlError> {
        if self.eat_keyword("NOT") {
            let (e, h) = self.nested(Self::parse_not)?;
            self.node(SqlExpr::Not(Box::new(e)), h)
        } else {
            self.parse_cmp()
        }
    }

    /// cmp := add [ ⟨cmp op⟩ add | [NOT] BETWEEN add AND add ]
    /// (non-associative: `a < b < c` is a parse error).
    fn parse_cmp(&mut self) -> Result<Sub, SqlError> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Tok::Punct("<") => Some(SqlBinOp::Lt),
            Tok::Punct("<=") => Some(SqlBinOp::Le),
            Tok::Punct(">") => Some(SqlBinOp::Gt),
            Tok::Punct(">=") => Some(SqlBinOp::Ge),
            Tok::Punct("=") => Some(SqlBinOp::Eq),
            Tok::Punct("<>") | Tok::Punct("!=") => Some(SqlBinOp::Ne),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.parse_add()?;
            return self.bin(op, lhs, rhs);
        }
        let negated = if self.at_keyword("NOT") {
            // Only "NOT BETWEEN" is valid in postfix position.
            let save = self.at;
            self.bump();
            if self.at_keyword("BETWEEN") {
                true
            } else {
                self.at = save;
                return Ok(lhs);
            }
        } else {
            false
        };
        if self.eat_keyword("BETWEEN") {
            let (lo, lo_h) = self.parse_add()?;
            self.expect_keyword("AND")?;
            let (hi, hi_h) = self.parse_add()?;
            let between = SqlExpr::Between {
                expr: Box::new(lhs.0),
                negated,
                lo: Box::new(lo),
                hi: Box::new(hi),
            };
            return self.node(between, lhs.1.max(lo_h).max(hi_h));
        }
        Ok(lhs)
    }

    fn parse_add(&mut self) -> Result<Sub, SqlError> {
        let mut e = self.parse_mul()?;
        loop {
            let op = if self.eat_punct("+") {
                SqlBinOp::Add
            } else if self.eat_punct("-") {
                SqlBinOp::Sub
            } else {
                break;
            };
            let rhs = self.parse_mul()?;
            e = self.bin(op, e, rhs)?;
        }
        Ok(e)
    }

    fn parse_mul(&mut self) -> Result<Sub, SqlError> {
        let mut e = self.parse_unary()?;
        loop {
            let op = if self.eat_punct("*") {
                SqlBinOp::Mul
            } else if self.eat_punct("/") {
                SqlBinOp::Div
            } else {
                break;
            };
            let rhs = self.parse_unary()?;
            e = self.bin(op, e, rhs)?;
        }
        Ok(e)
    }

    fn parse_unary(&mut self) -> Result<Sub, SqlError> {
        if self.eat_punct("-") {
            let (inner, h) = self.nested(Self::parse_unary)?;
            // Fold unary minus into the literal so `-1.5` round-trips as
            // the literal `Num(-1.5)` (bit-exact, including `-0.0`).
            return match inner {
                SqlExpr::Num(v) => Ok((SqlExpr::Num(-v), h)),
                other => self.node(SqlExpr::Neg(Box::new(other)), h),
            };
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Sub, SqlError> {
        match self.peek().clone() {
            Tok::Num(v) => {
                self.bump();
                Ok((SqlExpr::Num(v), 1))
            }
            Tok::Punct("(") => {
                self.bump();
                let e = self.nested(Self::parse_expr)?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                let agg = if name.eq_ignore_ascii_case("SUM") {
                    Some(SqlAgg::Sum)
                } else if name.eq_ignore_ascii_case("AVG") {
                    Some(SqlAgg::Avg)
                } else if name.eq_ignore_ascii_case("MIN") {
                    Some(SqlAgg::Min)
                } else if name.eq_ignore_ascii_case("MAX") {
                    Some(SqlAgg::Max)
                } else {
                    None
                };
                if let Some(kind) = agg {
                    self.bump();
                    self.expect_punct("(")?;
                    let (e, h) = self.nested(Self::parse_expr)?;
                    self.expect_punct(")")?;
                    return self.node(SqlExpr::Agg(kind, Box::new(e)), h);
                }
                if name.eq_ignore_ascii_case("COUNT") {
                    self.bump();
                    self.expect_punct("(")?;
                    self.expect_punct("*")?;
                    self.expect_punct(")")?;
                    return Ok((SqlExpr::CountStar, 1));
                }
                if KEYWORDS.iter().any(|k| name.eq_ignore_ascii_case(k)) {
                    return Err(self.error(format!("expected an expression, found keyword {name}")));
                }
                self.bump();
                Ok((SqlExpr::Col(name), 1))
            }
            other => Err(self.error(format!(
                "expected an expression, found {}",
                other.describe()
            ))),
        }
    }
}

/// Parses one `SELECT` statement (syntax only; resolve with
/// [`sql_query`]).
pub fn parse_select(sql: &str) -> Result<SelectStmt, SqlError> {
    let toks = lex(sql)?;
    Parser {
        toks,
        at: 0,
        depth: 0,
    }
    .parse_stmt()
}

// ---------------------------------------------------------------------------
// Resolver / lowering
// ---------------------------------------------------------------------------

/// How one `SELECT` item is produced from the executed plan.
#[derive(Clone, Debug)]
enum OutputCol {
    /// A `GROUP BY` column: the whole group key, or one half of a packed
    /// `U8` pair.
    Key(KeyPart),
    /// `plan.aggs[i]` / `PlanResult.columns[i]`.
    Agg(usize),
}

#[derive(Clone, Copy, Debug)]
enum KeyPart {
    Whole,
    PairHi,
    PairLo,
}

/// A resolved, lowered SQL query: the [`QueryPlan`] it lowered to plus
/// the output shape (column names and how each `SELECT` item maps onto
/// the plan result).
#[derive(Clone, Debug)]
pub struct SqlQuery {
    /// The lowered logical plan (inspectable; identical in shape to what
    /// the Rust builder API would construct).
    pub plan: QueryPlan,
    names: Vec<String>,
    outputs: Vec<OutputCol>,
}

/// One output column of a [`SqlResult`]: group keys are `I64` (byte
/// columns surface their dictionary code), `COUNT(*)` is exact `U64`,
/// every other aggregate is `F64`.
#[derive(Clone, Debug, PartialEq)]
pub enum SqlColumn {
    I64(Vec<i64>),
    U64(Vec<u64>),
    F64(Vec<f64>),
}

impl SqlColumn {
    pub fn len(&self) -> usize {
        match self {
            SqlColumn::I64(v) => v.len(),
            SqlColumn::U64(v) => v.len(),
            SqlColumn::F64(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row` rendered for display.
    pub fn render(&self, row: usize) -> String {
        match self {
            SqlColumn::I64(v) => v[row].to_string(),
            SqlColumn::U64(v) => v[row].to_string(),
            SqlColumn::F64(v) => format!("{:.6}", v[row]),
        }
    }
}

/// Result of executing a [`SqlQuery`]: named columns in `SELECT` order,
/// one row per group (deterministic order — see [`crate::plan`]).
#[derive(Clone, Debug)]
pub struct SqlResult {
    pub names: Vec<String>,
    pub columns: Vec<SqlColumn>,
    pub rows: usize,
    pub timing: PhaseTiming,
}

impl SqlQuery {
    /// Output column names in `SELECT` order (aliases, or the canonical
    /// printed expression).
    pub fn column_names(&self) -> &[String] {
        &self.names
    }

    /// Executes the lowered plan and assembles the named result columns.
    pub fn execute(
        &self,
        table: &Table,
        backend: SumBackend,
        opts: &ExecOptions,
    ) -> Result<SqlResult, SqlError> {
        let mut r: PlanResult = self.plan.execute(table, backend, opts)?;
        let rows = r.keys.len();
        let columns = self
            .outputs
            .iter()
            .map(|out| match out {
                OutputCol::Key(part) => SqlColumn::I64(
                    r.keys
                        .iter()
                        .map(|&k| match part {
                            KeyPart::Whole => k,
                            KeyPart::PairHi => k >> 8,
                            KeyPart::PairLo => k & 0xff,
                        })
                        .collect(),
                ),
                // Every SELECT item owns a distinct `plan.aggs` index, so
                // each result column is taken exactly once.
                OutputCol::Agg(i) => match &mut r.columns[*i] {
                    crate::plan::AggColumn::F64(v) => SqlColumn::F64(std::mem::take(v)),
                    crate::plan::AggColumn::U64(v) => SqlColumn::U64(std::mem::take(v)),
                },
            })
            .collect();
        Ok(SqlResult {
            names: self.names.clone(),
            columns,
            rows,
            timing: r.timing,
        })
    }
}

struct Resolver<'t> {
    table: &'t Table,
}

impl Resolver<'_> {
    fn unknown_column(&self, name: &str) -> SqlError {
        SqlError::UnknownColumn {
            column: name.to_string(),
            table: self.table.name.clone(),
            available: self
                .table
                .schema()
                .map(|(n, ty)| format!("{n} ({ty})"))
                .collect(),
        }
    }

    /// An existing column (unknown names get the schema-listing error).
    fn col(&self, name: &str) -> Result<&crate::column::Column, SqlError> {
        self.table
            .column(name)
            .map_err(|_| self.unknown_column(name))
    }

    /// Checks that `name` exists with numeric storage (usable in a scalar
    /// expression) — delegating to [`crate::column::Column::is_numeric`],
    /// the same source of truth the expression binder uses.
    fn numeric(&self, name: &str) -> Result<(), SqlError> {
        let col = self.col(name)?;
        if col.is_numeric() {
            Ok(())
        } else {
            Err(SqlError::TypeMismatch {
                column: name.to_string(),
                expected: NUMERIC_EXPECTED,
                found: col.type_name(),
            })
        }
    }

    /// Resolves a scalar (numeric) expression.
    fn scalar(&self, e: &SqlExpr) -> Result<Expr, SqlError> {
        match e {
            SqlExpr::Col(name) => {
                self.numeric(name)?;
                Ok(Expr::col(name.as_str()))
            }
            SqlExpr::Num(v) => Ok(Expr::lit(*v)),
            SqlExpr::Neg(inner) => Ok(self.scalar(inner)?.neg()),
            SqlExpr::Bin(op, a, b) => {
                let (a, b) = (self.scalar(a)?, self.scalar(b)?);
                match op {
                    SqlBinOp::Add => Ok(a.add(b)),
                    SqlBinOp::Sub => Ok(a.sub(b)),
                    SqlBinOp::Mul => Ok(a.mul(b)),
                    SqlBinOp::Div => Ok(a.div(b)),
                    _ => Err(SqlError::Unsupported(format!(
                        "boolean operator {} in a scalar position (aggregate arguments and \
                         arithmetic operands must be scalar expressions)",
                        op.token()
                    ))),
                }
            }
            SqlExpr::Agg(kind, _) => Err(SqlError::Unsupported(format!(
                "nested aggregate {} (aggregates cannot appear inside scalar expressions)",
                kind.keyword()
            ))),
            SqlExpr::CountStar => Err(SqlError::Unsupported(
                "nested aggregate COUNT(*) (aggregates cannot appear inside scalar expressions)"
                    .to_string(),
            )),
            SqlExpr::Not(_) | SqlExpr::Between { .. } => Err(SqlError::Unsupported(
                "boolean expression in a scalar position (aggregate arguments and arithmetic \
                 operands must be scalar expressions)"
                    .to_string(),
            )),
        }
    }

    /// Resolves a boolean (`WHERE`) expression.
    fn boolean(&self, e: &SqlExpr) -> Result<BoolExpr, SqlError> {
        match e {
            SqlExpr::Bin(SqlBinOp::And, a, b) => Ok(self.boolean(a)?.and(self.boolean(b)?)),
            SqlExpr::Bin(SqlBinOp::Or, a, b) => Ok(self.boolean(a)?.or(self.boolean(b)?)),
            SqlExpr::Not(a) => Ok(self.boolean(a)?.not()),
            SqlExpr::Bin(op, a, b) => {
                let cmp = match op {
                    SqlBinOp::Lt => CmpOp::Lt,
                    SqlBinOp::Le => CmpOp::Le,
                    SqlBinOp::Gt => CmpOp::Gt,
                    SqlBinOp::Ge => CmpOp::Ge,
                    SqlBinOp::Eq => CmpOp::Eq,
                    SqlBinOp::Ne => CmpOp::Ne,
                    SqlBinOp::And | SqlBinOp::Or => unreachable!("handled above"),
                    SqlBinOp::Add | SqlBinOp::Sub | SqlBinOp::Mul | SqlBinOp::Div => {
                        return Err(SqlError::Unsupported(format!(
                            "WHERE clause must be a boolean expression, found arithmetic {}",
                            op.token()
                        )))
                    }
                };
                Ok(BoolExpr::Cmp(
                    cmp,
                    Box::new(self.scalar(a)?),
                    Box::new(self.scalar(b)?),
                ))
            }
            SqlExpr::Between {
                expr,
                negated,
                lo,
                hi,
            } => {
                let between = self
                    .scalar(expr)?
                    .between(self.scalar(lo)?, self.scalar(hi)?);
                Ok(if *negated { between.not() } else { between })
            }
            SqlExpr::Col(_) | SqlExpr::Num(_) | SqlExpr::Neg(_) => Err(SqlError::Unsupported(
                "WHERE clause must be a boolean expression (a comparison, BETWEEN, or an \
                 AND/OR/NOT combination)"
                    .to_string(),
            )),
            SqlExpr::Agg(..) | SqlExpr::CountStar => Err(SqlError::Unsupported(
                "aggregates are not allowed in WHERE (filter runs before aggregation)".to_string(),
            )),
        }
    }
}

/// Parses `sql` and resolves it against `table`'s schema, lowering to a
/// [`QueryPlan`] plus output shape. All failures are typed [`SqlError`]s;
/// nothing panics.
pub fn sql_query(sql: &str, table: &Table) -> Result<SqlQuery, SqlError> {
    let stmt = parse_select(sql)?;
    resolve_select(&stmt, table)
}

/// Resolves a parsed statement against a table (see [`sql_query`]).
pub fn resolve_select(stmt: &SelectStmt, table: &Table) -> Result<SqlQuery, SqlError> {
    let r = Resolver { table };
    if stmt.table != table.name {
        return Err(SqlError::WrongTable {
            expected: stmt.table.clone(),
            found: table.name.clone(),
        });
    }

    // GROUP BY columns decide the grouping mode, matched on the typed
    // *logical* Column (a dictionary- or RLE-encoded key column groups
    // exactly like its plain twin — the executor reads the encoding).
    use crate::column::Column;
    let mut plan = QueryPlan::scan(stmt.table.clone());
    let group_cols: Vec<&Column> = stmt
        .group_by
        .iter()
        .map(|g| r.col(g).map(Column::logical))
        .collect::<Result<_, _>>()?;
    plan = match (stmt.group_by.as_slice(), group_cols.as_slice()) {
        ([], []) => plan,
        ([col], [c]) => match c {
            Column::I32(_) | Column::U32(_) | Column::U8(_) => plan.group_by_key(col.as_str()),
            other => {
                return Err(SqlError::TypeMismatch {
                    column: col.clone(),
                    expected: "I32, U32 or U8 (an integer group key)",
                    found: other.type_name(),
                })
            }
        },
        ([a, b], [ca, cb]) => {
            for (col, c) in [(a, ca), (b, cb)] {
                if !matches!(c, Column::U8(_)) {
                    return Err(SqlError::TypeMismatch {
                        column: col.clone(),
                        expected: "U8 (two-column GROUP BY needs dictionary-encoded byte columns)",
                        found: c.type_name(),
                    });
                }
            }
            plan.group_by_u8_pair(a.as_str(), b.as_str())
        }
        (cols, _) => {
            return Err(SqlError::Unsupported(format!(
                "GROUP BY over {} columns (supported: one integer column, or two U8 columns)",
                cols.len()
            )))
        }
    };

    // WHERE.
    if let Some(w) = &stmt.where_clause {
        plan = plan.filter(r.boolean(w)?);
    }

    // SELECT items: group columns or aggregates.
    let mut names = Vec::with_capacity(stmt.items.len());
    let mut outputs = Vec::with_capacity(stmt.items.len());
    let mut n_aggs = 0usize;
    for item in &stmt.items {
        let default_name = item.expr.to_string();
        names.push(item.alias.clone().unwrap_or(default_name));
        match &item.expr {
            SqlExpr::Col(name) => {
                let part = match stmt.group_by.iter().position(|g| g == name) {
                    None => {
                        r.col(name)?; // unknown column beats the GROUP BY complaint
                        return Err(SqlError::Unsupported(format!(
                            "column {name:?} must appear in GROUP BY or inside an aggregate"
                        )));
                    }
                    Some(i) => match (stmt.group_by.len(), i) {
                        (1, _) => KeyPart::Whole,
                        (_, 0) => KeyPart::PairHi,
                        _ => KeyPart::PairLo,
                    },
                };
                outputs.push(OutputCol::Key(part));
            }
            SqlExpr::Agg(kind, e) => {
                let e = r.scalar(e)?;
                plan = plan.agg(match kind {
                    SqlAgg::Sum => AggCall::Sum(e),
                    SqlAgg::Avg => AggCall::Avg(e),
                    SqlAgg::Min => AggCall::Min(e),
                    SqlAgg::Max => AggCall::Max(e),
                });
                outputs.push(OutputCol::Agg(n_aggs));
                n_aggs += 1;
            }
            SqlExpr::CountStar => {
                plan = plan.count();
                outputs.push(OutputCol::Agg(n_aggs));
                n_aggs += 1;
            }
            other => {
                return Err(SqlError::Unsupported(format!(
                    "SELECT item {other} (each item must be a GROUP BY column or an aggregate)"
                )))
            }
        }
    }
    if n_aggs == 0 {
        return Err(SqlError::Unsupported(
            "query must contain at least one aggregate (SUM/COUNT/AVG/MIN/MAX)".to_string(),
        ));
    }

    // Bind once at prepare time — the same bind every execution runs — so
    // a name or type error the checks above do not word surfaces here,
    // and a statement in the plan cache is known to bind.
    plan.check(table).map_err(SqlError::Plan)?;

    Ok(SqlQuery {
        plan,
        names,
        outputs,
    })
}

// ---------------------------------------------------------------------------
// Prepared-plan cache
// ---------------------------------------------------------------------------

/// Counters of a [`PlanCache`] (a snapshot; see [`PlanCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache (by raw text or canonical form).
    pub hits: u64,
    /// Lookups that had to parse + resolve + lower.
    pub misses: u64,
    /// Distinct prepared plans held (canonical entries).
    pub entries: usize,
}

/// Most raw-text entries a [`PlanCache`] holds. Inserting past it drops
/// every entry first (the counters survive), so a client that varies only
/// a literal cannot grow a server session's memory without bound.
pub const PLAN_CACHE_CAP: usize = 256;

#[derive(Default)]
struct PlanCacheInner {
    /// Raw-text hits skip even the parse: `fingerprint \0 sql` → plan.
    by_text: std::collections::HashMap<String, std::sync::Arc<SqlQuery>>,
    /// Canonical hits share one plan across whitespace/case variants:
    /// `fingerprint \0 canonical-pretty-print` → plan.
    by_canonical: std::collections::HashMap<String, std::sync::Arc<SqlQuery>>,
    hits: u64,
    misses: u64,
}

impl PlanCacheInner {
    fn clear(&mut self) {
        self.by_text.clear();
        self.by_canonical.clear();
    }

    /// Every canonical entry arrives with a new raw text, so capping
    /// `by_text` caps both maps.
    fn insert_text(&mut self, key: String, q: std::sync::Arc<SqlQuery>) {
        if self.by_text.len() >= PLAN_CACHE_CAP {
            self.clear();
        }
        self.by_text.insert(key, q);
    }
}

/// A cache of resolved [`SqlQuery`] plans, keyed by the statement's
/// canonical pretty-print ([`SelectStmt`]'s `Display`) plus the target
/// table's name and schema.
///
/// Preparing a query — lex, parse, resolve every column against the
/// schema, lower and validate the plan — costs far more than *executing*
/// it over a small batch, so an application (or benchmark harness) that
/// submits the same SQL text repeatedly pays a per-call overhead pure
/// plan execution does not have. `get_or_resolve` makes the repeated
/// path cheap:
///
/// * an exact raw-text hit returns the shared `Arc<SqlQuery>` without
///   even parsing;
/// * otherwise the text is parsed and looked up by its **canonical
///   form**, so `SELECT SUM(x) FROM t` and `select  sum(x)  from t`
///   share one prepared plan;
/// * only a genuinely new statement resolves and lowers.
///
/// The key includes a schema fingerprint (table name + column name/type
/// pairs in declaration order): the same SQL resolved against a table
/// whose schema differs (e.g. a group-key column with another storage
/// type) lowers differently — or not at all — and must not share a
/// cache entry. Errors are not cached; a failing statement re-resolves
/// (and re-fails, typed) on every call.
///
/// At most [`PLAN_CACHE_CAP`] raw texts are held: the insert that would
/// pass the cap clears the cache first.
///
/// Thread-safe behind one internal mutex; cached plans are shared
/// `Arc`s, so execution itself never holds the lock.
#[derive(Default)]
pub struct PlanCache {
    inner: std::sync::Mutex<PlanCacheInner>,
}

/// `table-name \0 col:type \0 col:type ...` — everything resolution
/// depends on besides the SQL text itself.
fn schema_fingerprint(table: &Table) -> String {
    use std::fmt::Write;
    let mut fp = table.name.clone();
    for (name, ty) in table.schema() {
        let _ = write!(fp, "\u{0}{name}:{ty}");
    }
    fp
}

impl PlanCache {
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Returns the prepared plan for `sql` against `table`, resolving
    /// and caching it on first sight (see the type docs for the lookup
    /// ladder).
    pub fn get_or_resolve(
        &self,
        sql: &str,
        table: &Table,
    ) -> Result<std::sync::Arc<SqlQuery>, SqlError> {
        let fp = schema_fingerprint(table);
        let text_key = format!("{fp}\u{0}{sql}");
        let mut inner = self.lock();
        if let Some(q) = inner.by_text.get(&text_key).cloned() {
            inner.hits += 1;
            return Ok(q);
        }
        // Parse errors surface before the miss is counted: a lookup that
        // never produces a plan is neither hit nor miss.
        let stmt = parse_select(sql)?;
        let canonical_key = format!("{fp}\u{0}{stmt}");
        if let Some(q) = inner.by_canonical.get(&canonical_key).cloned() {
            inner.hits += 1;
            inner.insert_text(text_key, q.clone());
            return Ok(q);
        }
        let q = std::sync::Arc::new(resolve_select(&stmt, table)?);
        inner.misses += 1;
        inner.insert_text(text_key, q.clone());
        inner.by_canonical.insert(canonical_key, q.clone());
        Ok(q)
    }

    /// Hit/miss counters and entry count.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.lock();
        PlanCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.by_canonical.len(),
        }
    }

    /// Drops every cached plan (counters survive).
    pub fn clear(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlanCacheInner> {
        // The cache holds no invariant a panicking thread could break
        // mid-update (every insert is a single map operation), so a
        // poisoned lock is still usable.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::plan::AggColumn;

    fn sensor_table() -> Table {
        let mut t = Table::new("sensors");
        t.add_column("station", Column::i32(vec![3, 1, 3, 7, 1, 3]))
            .unwrap();
        t.add_column(
            "temp",
            Column::f64(vec![21.5, 19.0, 22.5, 18.0, 20.0, 25.0]),
        )
        .unwrap();
        t.add_column(
            "humidity",
            Column::f64(vec![0.50, 0.40, 0.55, 0.35, 0.45, 0.60]),
        )
        .unwrap();
        t.add_column("flag", Column::u8(vec![0, 1, 0, 1, 0, 1]))
            .unwrap();
        t.add_column("grade", Column::u8(vec![2, 2, 1, 1, 2, 1]))
            .unwrap();
        t.add_column("noise", Column::f32(vec![0.0; 6])).unwrap();
        t
    }

    fn run(sql: &str, t: &Table) -> SqlResult {
        sql_query(sql, t)
            .unwrap()
            .execute(t, SumBackend::ReproUnbuffered, &ExecOptions::serial())
            .unwrap()
    }

    #[test]
    fn ungrouped_aggregates() {
        let t = sensor_table();
        let r = run(
            "SELECT SUM(temp), COUNT(*), AVG(temp), MIN(temp), MAX(temp) FROM sensors",
            &t,
        );
        assert_eq!(r.rows, 1);
        assert_eq!(r.columns[0], SqlColumn::F64(vec![126.0]));
        assert_eq!(r.columns[1], SqlColumn::U64(vec![6]));
        assert_eq!(r.columns[2], SqlColumn::F64(vec![21.0]));
        assert_eq!(r.columns[3], SqlColumn::F64(vec![18.0]));
        assert_eq!(r.columns[4], SqlColumn::F64(vec![25.0]));
    }

    /// SQL is encoding-agnostic end to end: the same statement over a
    /// `Dict16`-encoded twin of the table (u16 codes on the key and the
    /// measure) produces bit-identical rows — lowering validates by
    /// logical type and the executor evaluates the measure through its
    /// codes.
    #[test]
    fn sql_over_dict16_columns_matches_plain() {
        let n = 3_000usize;
        let station: Vec<i32> = (0..n).map(|i| (i * 11 % 500) as i32).collect();
        let temp: Vec<f64> = (0..n).map(|i| (i % 300) as f64 * 0.3125 - 17.0).collect();
        let mut plain = Table::new("sensors");
        plain
            .add_column("station", Column::i32(station.clone()))
            .unwrap();
        plain.add_column("temp", Column::f64(temp.clone())).unwrap();
        let mut enc = Table::new("sensors");
        for (name, col) in [
            ("station", Column::i32(station)),
            ("temp", Column::f64(temp)),
        ] {
            let encoded = Column::dict_encode(&col).unwrap();
            assert!(encoded.storage_name().starts_with("Dict16<"), "{name}");
            enc.add_column(name, encoded).unwrap();
        }
        let sql = "SELECT station, SUM(temp), AVG(temp), MIN(temp), COUNT(*) \
                   FROM sensors WHERE temp >= -16.5 GROUP BY station";
        let want = run(sql, &plain);
        let got = run(sql, &enc);
        assert_eq!(want.rows, got.rows);
        for (c, (a, b)) in want.columns.iter().zip(got.columns.iter()).enumerate() {
            match (a, b) {
                (SqlColumn::F64(xs), SqlColumn::F64(ys)) => {
                    for (x, y) in xs.iter().zip(ys.iter()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "col {c}");
                    }
                }
                (a, b) => assert_eq!(a, b, "col {c}"),
            }
        }
    }

    #[test]
    fn where_and_group_by_hash_key() {
        let t = sensor_table();
        let r = run(
            "SELECT station, SUM(temp), COUNT(*) FROM sensors \
             WHERE temp < 22.0 GROUP BY station",
            &t,
        );
        assert_eq!(r.columns[0], SqlColumn::I64(vec![1, 3, 7]));
        assert_eq!(r.columns[1], SqlColumn::F64(vec![39.0, 21.5, 18.0]));
        assert_eq!(r.columns[2], SqlColumn::U64(vec![2, 1, 1]));
    }

    #[test]
    fn group_by_u8_pair_packs_and_unpacks() {
        let t = sensor_table();
        let r = run(
            "SELECT flag, grade, COUNT(*), MAX(temp) FROM sensors GROUP BY flag, grade",
            &t,
        );
        // Pairs present: (0,1) x1 row (22.5), (0,2) x2 (21.5, 20.0),
        // (1,1) x2 (18.0, 25.0), (1,2) x1 (19.0).
        assert_eq!(r.columns[0], SqlColumn::I64(vec![0, 0, 1, 1]));
        assert_eq!(r.columns[1], SqlColumn::I64(vec![1, 2, 1, 2]));
        assert_eq!(r.columns[2], SqlColumn::U64(vec![1, 2, 2, 1]));
        assert_eq!(r.columns[3], SqlColumn::F64(vec![22.5, 21.5, 25.0, 19.0]));
    }

    #[test]
    fn expressions_operators_and_aliases() {
        let t = sensor_table();
        let q = sql_query(
            "SELECT SUM(temp * (1 - humidity)) AS dry_heat, \
             AVG(- temp / 2) FROM sensors \
             WHERE NOT (temp >= 25.0) AND (humidity BETWEEN 0.4 AND 0.6 OR station = 7)",
            &t,
        )
        .unwrap();
        assert_eq!(q.column_names()[0], "dry_heat");
        assert_eq!(q.column_names()[1], "AVG(((- temp) / 2.0))");
        let r = q
            .execute(&t, SumBackend::ReproUnbuffered, &ExecOptions::serial())
            .unwrap();
        // Rows kept: all but the 25.0 row (which also passes BETWEEN, but
        // fails the NOT) — stations 3,1,3,7,1.
        assert_eq!(r.rows, 1);
        let expected: f64 = [
            (21.5, 0.50),
            (19.0, 0.40),
            (22.5, 0.55),
            (18.0, 0.35),
            (20.0, 0.45),
        ]
        .iter()
        .map(|(t, h)| t * (1.0 - h))
        .sum();
        if let SqlColumn::F64(v) = &r.columns[0] {
            assert!((v[0] - expected).abs() < 1e-9);
        } else {
            panic!("expected F64");
        }
    }

    #[test]
    fn sum_and_avg_share_one_state_through_the_parser() {
        let t = sensor_table();
        let q = sql_query(
            "SELECT SUM(temp * (1 - humidity)), AVG(temp * (1 - humidity)), \
             SUM(temp * (1 - humidity) * (1 + humidity)) FROM sensors",
            &t,
        )
        .unwrap();
        let lowered = q.plan.lower(&t).unwrap();
        // SUM and AVG over the structurally identical expression intern to
        // one state; the third (different) expression gets its own.
        assert_eq!(lowered.query.sums.len(), 2);
    }

    #[test]
    fn keywords_are_case_insensitive_names_are_not() {
        let t = sensor_table();
        let r = run(
            "select sum(temp) from sensors where temp < 100 group by flag",
            &t,
        );
        assert_eq!(r.rows, 2);
        assert!(matches!(
            sql_query("SELECT SUM(TEMP) FROM sensors", &t).unwrap_err(),
            SqlError::UnknownColumn { .. }
        ));
    }

    #[test]
    fn numeric_literal_shapes() {
        let t = sensor_table();
        for sql in [
            "SELECT SUM(temp * 1.5e2) FROM sensors",
            "SELECT SUM(temp * .5) FROM sensors",
            "SELECT SUM(temp - -2) FROM sensors",
            "SELECT SUM(temp) FROM sensors WHERE temp < 1e9",
        ] {
            sql_query(sql, &t).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }

    // --- golden error tests -------------------------------------------------

    fn err(sql: &str, t: &Table) -> SqlError {
        sql_query(sql, t).unwrap_err()
    }

    #[test]
    fn golden_parse_errors() {
        let t = sensor_table();
        let cases: [(&str, &str); 8] = [
            ("SELEC SUM(temp) FROM sensors", "expected SELECT"),
            ("SELECT SUM(temp FROM sensors", "expected \")\""),
            ("SELECT SUM(temp) FROM", "expected table name"),
            (
                "SELECT SUM(temp) FROM sensors WHERE temp BETWEEN 1",
                "expected AND",
            ),
            (
                "SELECT SUM(temp) FROM sensors extra",
                "unexpected identifier \"extra\" after end of statement",
            ),
            ("SELECT COUNT(temp) FROM sensors", "expected \"*\""),
            (
                "SELECT SUM(temp) FROM sensors WHERE temp @ 3",
                "unexpected character '@'",
            ),
            (
                "SELECT SUM(temp) FROM sensors WHERE temp ! 3",
                "expected '=' after '!'",
            ),
        ];
        for (sql, want) in cases {
            let e = err(sql, &t);
            let msg = e.to_string();
            assert!(
                matches!(e, SqlError::Parse { .. }) && msg.contains(want),
                "{sql}: got {msg:?}, want substring {want:?}"
            );
        }
    }

    /// Deep nesting and long operator chains are typed parse errors, not
    /// a stack overflow in the parser or any pass after it; a statement
    /// exactly at the cap still parses and executes.
    #[test]
    fn expression_depth_is_capped() {
        let chain = |term: &str, op: &str, n: usize| vec![term; n].join(op);
        let too_deep = [
            format!(
                "SELECT SUM({}temp{}) FROM s",
                "(".repeat(100_000),
                ")".repeat(100_000)
            ),
            format!("SELECT SUM({}temp) FROM s", "-".repeat(100_000)),
            format!(
                "SELECT COUNT(*) FROM s WHERE {}temp > 1",
                "NOT ".repeat(100_000)
            ),
            format!("SELECT SUM({}) FROM s", chain("temp", " + ", 50_000)),
            format!(
                "SELECT COUNT(*) FROM s WHERE {}",
                chain("temp > 1", " AND ", 50_000)
            ),
        ];
        for sql in &too_deep {
            let e = parse_select(sql).unwrap_err();
            assert!(
                matches!(e, SqlError::Parse { .. }) && e.to_string().contains("deeper than 64"),
                "{e}"
            );
        }
        let t = sensor_table();
        // At n = 63, SUM plus n parentheses nest 64 levels, and SUM over an
        // n-term chain and an n-conjunct WHERE build trees 64 high.
        let cases = |n: usize| {
            [
                format!(
                    "SELECT SUM({}temp{}) FROM sensors",
                    "(".repeat(n),
                    ")".repeat(n)
                ),
                format!("SELECT SUM({}) FROM sensors", chain("temp", " + ", n)),
                format!(
                    "SELECT SUM(temp) FROM sensors WHERE {}",
                    chain("temp > 0", " AND ", n)
                ),
            ]
        };
        for (sql, want) in cases(63).iter().zip([126.0, 126.0 * 63.0, 126.0]) {
            assert_eq!(run(sql, &t).columns[0], SqlColumn::F64(vec![want]));
        }
        for sql in cases(64) {
            assert!(matches!(err(&sql, &t), SqlError::Parse { .. }), "{sql}");
        }
    }

    #[test]
    fn golden_unknown_column_lists_schema() {
        let t = sensor_table();
        let e = err("SELECT SUM(pressure) FROM sensors", &t);
        assert_eq!(
            e.to_string(),
            "unknown column \"pressure\" in table \"sensors\" (available: station (I32), \
             temp (F64), humidity (F64), flag (U8), grade (U8), noise (F32))"
        );
    }

    #[test]
    fn golden_type_mismatch_errors() {
        let t = sensor_table();
        let e = err("SELECT SUM(noise) FROM sensors", &t);
        assert_eq!(
            e.to_string(),
            "column \"noise\" is F32, but this position needs F64, I32, U32 or U8"
        );
        let e = err("SELECT temp, COUNT(*) FROM sensors GROUP BY temp", &t);
        assert_eq!(
            e.to_string(),
            "column \"temp\" is F64, but this position needs I32, U32 or U8 (an integer group key)"
        );
        let e = err(
            "SELECT flag, station, COUNT(*) FROM sensors GROUP BY flag, station",
            &t,
        );
        assert_eq!(
            e.to_string(),
            "column \"station\" is I32, but this position needs U8 (two-column GROUP BY needs \
             dictionary-encoded byte columns)"
        );
    }

    #[test]
    fn golden_semantic_errors() {
        let t = sensor_table();
        assert!(matches!(
            err("SELECT temp, COUNT(*) FROM sensors", &t),
            SqlError::Unsupported(m) if m.contains("must appear in GROUP BY")
        ));
        assert!(matches!(
            err("SELECT temp + 1 FROM sensors", &t),
            SqlError::Unsupported(m) if m.contains("GROUP BY column or an aggregate")
        ));
        assert!(matches!(
            err("SELECT station FROM sensors GROUP BY station", &t),
            SqlError::Unsupported(m) if m.contains("at least one aggregate")
        ));
        assert!(matches!(
            err("SELECT SUM(SUM(temp)) FROM sensors", &t),
            SqlError::Unsupported(m) if m.contains("nested aggregate")
        ));
        assert!(matches!(
            err("SELECT SUM(temp) FROM sensors WHERE temp + 1", &t),
            SqlError::Unsupported(m) if m.contains("boolean")
        ));
        assert!(matches!(
            // A comparison operand is a scalar position, so an aggregate
            // inside WHERE is rejected by the scalar resolver.
            err("SELECT SUM(temp) FROM sensors WHERE SUM(temp) > 3", &t),
            SqlError::Unsupported(m) if m.contains("nested aggregate")
        ));
        assert!(matches!(
            err("SELECT SUM(temp) FROM sensors WHERE COUNT(*)", &t),
            SqlError::Unsupported(m) if m.contains("aggregates are not allowed in WHERE")
        ));
        assert!(matches!(
            err(
                "SELECT f, g, h, COUNT(*) FROM sensors GROUP BY flag, grade, station",
                &t
            ),
            SqlError::Unsupported(m) if m.contains("GROUP BY over 3 columns")
        ));
        assert_eq!(
            err("SELECT COUNT(*) FROM lineitem", &t),
            SqlError::WrongTable {
                expected: "lineitem".into(),
                found: "sensors".into(),
            }
        );
    }

    #[test]
    fn golden_reserved_key_execution_error() {
        // The reserved hash-key literal -1 in the data surfaces as a
        // typed execution error with the column name, not a panic.
        let mut t = Table::new("t");
        t.add_column("k", Column::i32(vec![5, -1])).unwrap();
        t.add_column("v", Column::f64(vec![1.0, 2.0])).unwrap();
        let q = sql_query("SELECT k, SUM(v) FROM t GROUP BY k", &t).unwrap();
        let e = q
            .execute(&t, SumBackend::ReproUnbuffered, &ExecOptions::serial())
            .unwrap_err();
        assert_eq!(
            e,
            SqlError::Plan(PlanError::ReservedKey { col: "k".into() })
        );
        assert_eq!(
            e.to_string(),
            "group key column \"k\" contains the reserved value u32::MAX (-1_i32)"
        );
    }

    #[test]
    fn sorted_double_answers_through_sql() {
        let t = sensor_table();
        let q = sql_query(
            "SELECT station, SUM(temp) FROM sensors GROUP BY station",
            &t,
        )
        .unwrap();
        let r = q
            .execute(&t, SumBackend::SortedDouble, &ExecOptions::parallel())
            .unwrap();
        assert_eq!(r.columns[1], SqlColumn::F64(vec![39.0, 69.0, 18.0]));
    }

    #[test]
    fn sql_matches_builder_plan_on_adhoc_query() {
        let t = sensor_table();
        let q = sql_query(
            "SELECT station, SUM(temp * humidity), COUNT(*) FROM sensors \
             WHERE humidity >= 0.4 GROUP BY station",
            &t,
        )
        .unwrap();
        let builder = QueryPlan::scan("sensors")
            .filter(Expr::col("humidity").ge(Expr::lit(0.4)))
            .group_by_key("station")
            .sum(Expr::col("temp").mul(Expr::col("humidity")))
            .count();
        let a = q
            .plan
            .execute(&t, SumBackend::ReproUnbuffered, &ExecOptions::serial())
            .unwrap();
        let b = builder
            .execute(&t, SumBackend::ReproUnbuffered, &ExecOptions::serial())
            .unwrap();
        assert_eq!(a.keys, b.keys);
        for (x, y) in a.columns.iter().zip(&b.columns) {
            match (x, y) {
                (AggColumn::F64(x), AggColumn::F64(y)) => {
                    for (u, v) in x.iter().zip(y) {
                        assert_eq!(u.to_bits(), v.to_bits());
                    }
                }
                (AggColumn::U64(x), AggColumn::U64(y)) => assert_eq!(x, y),
                _ => panic!("column kind mismatch"),
            }
        }
    }

    #[test]
    fn pinned_tpch_sql_round_trips_through_the_printer() {
        for sql in [
            crate::q1::q1_sql(),
            crate::q6::q6_sql(),
            crate::q15::q15_sql(),
        ] {
            let ast = parse_select(&sql).unwrap();
            let printed = ast.to_string();
            assert_eq!(parse_select(&printed).unwrap(), ast, "{sql}");
        }
    }

    #[test]
    fn plan_cache_hits_on_repeated_text_and_shares_the_plan() {
        let t = sensor_table();
        let cache = PlanCache::new();
        let sql = "SELECT station, SUM(temp) FROM sensors GROUP BY station";
        let a = cache.get_or_resolve(sql, &t).unwrap();
        let b = cache.get_or_resolve(sql, &t).unwrap();
        assert!(std::sync::Arc::ptr_eq(&a, &b), "repeat must share the Arc");
        assert_eq!(
            cache.stats(),
            PlanCacheStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
    }

    #[test]
    fn plan_cache_shares_across_whitespace_and_case_variants() {
        let t = sensor_table();
        let cache = PlanCache::new();
        let a = cache
            .get_or_resolve("SELECT SUM(temp) FROM sensors WHERE temp < 22.0", &t)
            .unwrap();
        let b = cache
            .get_or_resolve("select  sum( temp )\n from sensors\nwhere temp < 22.0", &t)
            .unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&a, &b),
            "canonical form must unify spelling variants"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // Third spelling, raw text hit for one of the earlier ones.
        cache
            .get_or_resolve("SELECT SUM(temp) FROM sensors WHERE temp < 22.0", &t)
            .unwrap();
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn plan_cache_distinguishes_schemas() {
        // Same table name and SQL, different storage for the group key:
        // resolution must re-run, not reuse the I32 plan (which would
        // silently accept a non-integer key).
        let sql = "SELECT station, SUM(temp) FROM sensors GROUP BY station";
        let cache = PlanCache::new();
        let good = sensor_table();
        assert!(cache.get_or_resolve(sql, &good).is_ok());
        let mut bad = Table::new("sensors");
        bad.add_column("station", Column::f64(vec![1.0, 2.0]))
            .unwrap();
        bad.add_column("temp", Column::f64(vec![0.5, 1.5])).unwrap();
        let err = cache.get_or_resolve(sql, &bad).unwrap_err();
        assert!(
            matches!(err, SqlError::TypeMismatch { ref column, .. } if column == "station"),
            "{err}"
        );
    }

    #[test]
    fn plan_cache_errors_are_not_cached_and_results_match_uncached() {
        let t = sensor_table();
        let cache = PlanCache::new();
        assert!(cache.get_or_resolve("SELECT FROM", &t).is_err());
        assert!(cache.get_or_resolve("SELECT FROM", &t).is_err());
        assert_eq!(cache.stats().entries, 0);

        let sql = "SELECT station, SUM(temp * (1 - humidity)), COUNT(*) \
                   FROM sensors WHERE temp < 24.0 GROUP BY station";
        let cached = cache.get_or_resolve(sql, &t).unwrap();
        let fresh = run(sql, &t);
        let via_cache = cached
            .execute(&t, SumBackend::ReproUnbuffered, &ExecOptions::serial())
            .unwrap();
        assert_eq!(fresh.names, via_cache.names);
        for (a, b) in fresh.columns.iter().zip(&via_cache.columns) {
            match (a, b) {
                (SqlColumn::F64(x), SqlColumn::F64(y)) => {
                    assert_eq!(x.len(), y.len());
                    for (u, v) in x.iter().zip(y) {
                        assert_eq!(u.to_bits(), v.to_bits());
                    }
                }
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn plan_cache_stays_under_its_cap_and_still_hits() {
        let t = sensor_table();
        let cache = PlanCache::new();
        let sql = |i: usize| format!("SELECT SUM(temp) FROM sensors WHERE temp < {i}.5");
        for i in 0..2 * PLAN_CACHE_CAP + 1 {
            cache.get_or_resolve(&sql(i), &t).unwrap();
        }
        let stats = cache.stats();
        assert!(stats.entries <= PLAN_CACHE_CAP, "{stats:?}");
        assert_eq!(stats.misses, 2 * PLAN_CACHE_CAP as u64 + 1);
        let last = sql(2 * PLAN_CACHE_CAP);
        let a = cache.get_or_resolve(&last, &t).unwrap();
        let b = cache.get_or_resolve(&last, &t).unwrap();
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().hits, stats.hits + 2);
    }

    #[test]
    fn plan_cache_clear_drops_entries() {
        let t = sensor_table();
        let cache = PlanCache::new();
        cache
            .get_or_resolve("SELECT SUM(temp) FROM sensors", &t)
            .unwrap();
        assert_eq!(cache.stats().entries, 1);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        cache
            .get_or_resolve("SELECT SUM(temp) FROM sensors", &t)
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
    }
}
