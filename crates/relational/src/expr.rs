//! Scalar expressions over table rows.
//!
//! These expressions implement the *base predicates* of PaQL — the
//! `WHERE` clause that each tuple must satisfy individually (§2.1 of the
//! paper) — and the filters of `(SELECT COUNT(*) | SUM(attr) FROM P
//! WHERE …)` subqueries. Arithmetic may appear inside a predicate.
//!
//! An [`Expr`] names its columns; it is evaluated only after
//! [`Expr::bind`] has resolved every name against a schema, once, into a
//! [`Predicate`]. The bound tree has two evaluators:
//!
//! * [`Predicate::test`] evaluates one row with typed cell access — the
//!   path for candidate lists (a group's rows, a package's members, the
//!   rows of one refine subproblem) and for any tree that can fail;
//! * [`Predicate::select`] evaluates a whole table. Infallible trees
//!   (comparisons, `BETWEEN` and `IS [NOT] NULL` over columns and
//!   literals, Bool columns, `AND`/`OR`/`NOT`) run 64 rows a word, one
//!   column at a time; any other tree falls back to `test` in row order.
//!
//! Evaluation follows SQL three-valued logic: comparisons involving NULL
//! are *unknown* (`None`), `AND`/`OR`/`NOT` propagate unknown per SQL, and
//! a `WHERE` clause selects a row only when the predicate is *true*.
//! Binding reports an unknown column even when no row would have reached
//! it; callers therefore bind only when at least one row is evaluated.

use crate::error::RelResult;
use crate::predicate::Predicate;
use crate::schema::Schema;
use crate::value::Value;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
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
    /// Apply the operator to an ordering produced by
    /// [`Value::sql_cmp`].
    pub fn test(&self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// Text form, matching PaQL/SQL syntax.
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference by name.
    Col(String),
    /// A literal value.
    Lit(Value),
    /// Arithmetic between two sub-expressions.
    Arith(Box<Expr>, BinOp, Box<Expr>),
    /// Comparison between two sub-expressions.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// `x BETWEEN lo AND hi` (inclusive on both ends, like SQL).
    Between(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// `x IS NULL`.
    IsNull(Box<Expr>),
    /// `x IS NOT NULL`.
    IsNotNull(Box<Expr>),
}

impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `self = rhs`
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Eq, Box::new(rhs))
    }
    /// `self <> rhs`
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Ne, Box::new(rhs))
    }
    /// `self < rhs`
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Lt, Box::new(rhs))
    }
    /// `self <= rhs`
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Le, Box::new(rhs))
    }
    /// `self > rhs`
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Gt, Box::new(rhs))
    }
    /// `self >= rhs`
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Ge, Box::new(rhs))
    }
    /// `self BETWEEN lo AND hi`
    pub fn between(self, lo: Expr, hi: Expr) -> Expr {
        Expr::Between(Box::new(self), Box::new(lo), Box::new(hi))
    }
    /// `self AND rhs`
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }
    /// `self OR rhs`
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }
    /// `NOT self`
    #[allow(clippy::should_implement_trait)] // fluent builder, not an operator impl
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    /// `self IS NULL`
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }
    /// `self IS NOT NULL`
    pub fn is_not_null(self) -> Expr {
        Expr::IsNotNull(Box::new(self))
    }
    /// `self + rhs`
    #[allow(clippy::should_implement_trait)] // fluent builder, not an operator impl
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Arith(Box::new(self), BinOp::Add, Box::new(rhs))
    }
    /// `self - rhs`
    #[allow(clippy::should_implement_trait)] // fluent builder, not an operator impl
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Arith(Box::new(self), BinOp::Sub, Box::new(rhs))
    }
    /// `self * rhs`
    #[allow(clippy::should_implement_trait)] // fluent builder, not an operator impl
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Arith(Box::new(self), BinOp::Mul, Box::new(rhs))
    }
    /// `self / rhs`
    #[allow(clippy::should_implement_trait)] // fluent builder, not an operator impl
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Arith(Box::new(self), BinOp::Div, Box::new(rhs))
    }

    /// Resolve every column name against `schema` once, for
    /// evaluation with [`Predicate::test`] or [`Predicate::select`].
    /// Fails with [`RelError::UnknownColumn`](crate::RelError::UnknownColumn)
    /// for a name the schema lacks.
    pub fn bind(&self, schema: &Schema) -> RelResult<Predicate> {
        Predicate::bind(self, schema)
    }

    /// The set of column names referenced anywhere in the expression.
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Col(n) => out.push(n.clone()),
            Expr::Lit(_) => {}
            Expr::Arith(l, _, r) | Expr::Cmp(l, _, r) | Expr::And(l, r) | Expr::Or(l, r) => {
                l.collect_columns(out);
                r.collect_columns(out);
            }
            Expr::Between(x, lo, hi) => {
                x.collect_columns(out);
                lo.collect_columns(out);
                hi.collect_columns(out);
            }
            Expr::Not(e) | Expr::IsNull(e) | Expr::IsNotNull(e) => e.collect_columns(out),
        }
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Col(n) => write!(f, "{n}"),
            // `''` is the lexer's escape for a quote inside a literal.
            Expr::Lit(Value::Str(s)) => write!(f, "'{}'", s.replace('\'', "''")),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Arith(l, op, r) => {
                let s = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                };
                write!(f, "({l} {s} {r})")
            }
            Expr::Cmp(l, op, r) => write!(f, "{l} {} {r}", op.symbol()),
            Expr::Between(x, lo, hi) => write!(f, "{x} BETWEEN {lo} AND {hi}"),
            Expr::And(l, r) => write!(f, "({l} AND {r})"),
            Expr::Or(l, r) => write!(f, "({l} OR {r})"),
            Expr::Not(e) => write!(f, "NOT ({e})"),
            Expr::IsNull(e) => write!(f, "{e} IS NULL"),
            Expr::IsNotNull(e) => write!(f, "{e} IS NOT NULL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn referenced_columns_deduplicates() {
        let e = Expr::col("b")
            .add(Expr::col("a"))
            .gt(Expr::col("a").mul(Expr::lit(2.0)));
        assert_eq!(
            e.referenced_columns(),
            vec!["a".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn display_round_trips_visually() {
        let e = Expr::col("kcal").between(Expr::lit(2.0), Expr::lit(2.5));
        assert_eq!(e.to_string(), "kcal BETWEEN 2 AND 2.5");
        let p = Expr::col("gluten").eq(Expr::lit("free"));
        assert_eq!(p.to_string(), "gluten = 'free'");
        let q = Expr::col("name").eq(Expr::lit("it's"));
        assert_eq!(q.to_string(), "name = 'it''s'");
    }
}
