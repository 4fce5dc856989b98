//! Bound predicates: an [`Expr`] resolved against a [`Schema`] once, then
//! evaluated row by row or 64 rows a word.
//!
//! [`Expr::bind`] replaces every column name with its schema position, so
//! evaluation never searches the schema. A bound [`Predicate`] has two
//! evaluators with the same SQL three-valued semantics:
//!
//! * [`Predicate::test`] evaluates one row with typed cell access — it
//!   builds no [`Value`] and clones no string. Errors (a string in
//!   arithmetic, division by zero, a non-boolean in boolean position) are
//!   reported exactly as the expression language defines them.
//! * [`Predicate::select`] evaluates the whole table. For *infallible*
//!   trees — `IS [NOT] NULL`, comparisons and `BETWEEN` over columns and
//!   literals, Bool columns and Bool/NULL literals, joined by
//!   `AND`/`OR`/`NOT` — it works one column at a time: each leaf becomes a
//!   pair of `u64` word vectors (rows known true, rows known false) from a
//!   typed loop over the column's slice and null mask, and the connectives
//!   combine words with bit operations. Any other tree is tested row by
//!   row in row order, so the first error is the one `test` reports.

use std::cmp::Ordering;
use std::ops::Range;

use crate::error::{RelError, RelResult};
use crate::expr::{BinOp, CmpOp, Expr};
use crate::schema::{DataType, Schema};
use crate::table::{Column, Table};
use crate::value::Value;

/// A set of rows of one table, one bit per row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMask {
    words: Vec<u64>,
    rows: usize,
}

impl RowMask {
    /// Number of rows the mask covers (selected or not).
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// `true` when row `row` is selected. Panics when `row` is outside
    /// the covered range, like slice indexing.
    #[inline]
    pub fn contains(&self, row: usize) -> bool {
        assert!(
            row < self.rows,
            "row {row} outside a {}-row mask",
            self.rows
        );
        self.words[row / 64] >> (row % 64) & 1 == 1
    }

    /// The selected rows, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

/// An [`Expr`] bound to a schema by [`Expr::bind`].
///
/// The table handed to [`Predicate::test`], [`Predicate::filter`] and
/// [`Predicate::select`] must have the schema the predicate was bound
/// against; on any other table they may panic.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    root: Node,
    infallible: bool,
}

/// A bound expression node: [`Expr`] with every column resolved to its
/// schema position.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Col(usize),
    Lit(Value),
    Arith(Box<Node>, BinOp, Box<Node>),
    Cmp(Box<Node>, CmpOp, Box<Node>),
    Between(Box<Node>, Box<Node>, Box<Node>),
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
    IsNull(Box<Node>),
    IsNotNull(Box<Node>),
}

impl Predicate {
    pub(crate) fn bind(expr: &Expr, schema: &Schema) -> RelResult<Predicate> {
        let root = Node::bind(expr, schema)?;
        let infallible = root.infallible(schema);
        Ok(Predicate { root, infallible })
    }

    /// `true` when no row of any table with the bound schema can make
    /// the predicate fail, so [`Predicate::select`] runs the word
    /// kernels.
    pub fn is_infallible(&self) -> bool {
        self.infallible
    }

    /// Evaluate row `row` with three-valued logic: `Some(true)` /
    /// `Some(false)` / `None` (= SQL unknown).
    pub fn test(&self, table: &Table, row: usize) -> RelResult<Option<bool>> {
        self.root.test(table, row)
    }

    /// The rows of `rows` the predicate selects (true, not unknown), in
    /// the given order and with duplicates kept; the first failing row
    /// in that order reports its error.
    pub fn filter(&self, table: &Table, rows: &[usize]) -> RelResult<Vec<usize>> {
        let mut keep = Vec::new();
        for &row in rows {
            if self.test(table, row)? == Some(true) {
                keep.push(row);
            }
        }
        Ok(keep)
    }

    /// The rows of `table` the predicate selects. Infallible trees are
    /// evaluated a column and 64 rows at a time; any other tree row by
    /// row in row order.
    pub fn select(&self, table: &Table) -> RelResult<RowMask> {
        let rows = table.num_rows();
        let mut words = if self.infallible {
            self.root.truth(table).t
        } else {
            let mut words = vec![0u64; rows.div_ceil(64)];
            for row in 0..rows {
                if self.test(table, row)? == Some(true) {
                    words[row / 64] |= 1 << (row % 64);
                }
            }
            words
        };
        clear_tail(&mut words, rows);
        Ok(RowMask { words, rows })
    }
}

// ----------------------------------------------------------------------
// Binding
// ----------------------------------------------------------------------

impl Node {
    fn bind(expr: &Expr, schema: &Schema) -> RelResult<Node> {
        let b = |e: &Expr| Node::bind(e, schema).map(Box::new);
        Ok(match expr {
            Expr::Col(name) => Node::Col(schema.index_of(name)?),
            Expr::Lit(v) => Node::Lit(v.clone()),
            Expr::Arith(l, op, r) => Node::Arith(b(l)?, *op, b(r)?),
            Expr::Cmp(l, op, r) => Node::Cmp(b(l)?, *op, b(r)?),
            Expr::Between(x, lo, hi) => Node::Between(b(x)?, b(lo)?, b(hi)?),
            Expr::And(l, r) => Node::And(b(l)?, b(r)?),
            Expr::Or(l, r) => Node::Or(b(l)?, b(r)?),
            Expr::Not(e) => Node::Not(b(e)?),
            Expr::IsNull(e) => Node::IsNull(b(e)?),
            Expr::IsNotNull(e) => Node::IsNotNull(b(e)?),
        })
    }

    /// A column or literal: a value that is read, never computed.
    fn is_leaf(&self) -> bool {
        matches!(self, Node::Col(_) | Node::Lit(_))
    }

    /// `true` when this node, in boolean position, can never fail — the
    /// trees [`Node::truth`] evaluates.
    fn infallible(&self, schema: &Schema) -> bool {
        match self {
            Node::Cmp(a, _, b) => a.is_leaf() && b.is_leaf(),
            Node::Between(x, lo, hi) => x.is_leaf() && lo.is_leaf() && hi.is_leaf(),
            Node::And(l, r) | Node::Or(l, r) => l.infallible(schema) && r.infallible(schema),
            Node::Not(e) => e.infallible(schema),
            Node::IsNull(e) | Node::IsNotNull(e) => e.is_leaf() || e.infallible(schema),
            Node::Col(i) => schema.columns()[*i].ty == DataType::Bool,
            Node::Lit(v) => matches!(v, Value::Bool(_) | Value::Null),
            Node::Arith(..) => false,
        }
    }
}

// ----------------------------------------------------------------------
// Row at a time
// ----------------------------------------------------------------------

/// A cell or literal as [`Node::value`] sees it: a [`Value`] that
/// borrows its string instead of owning it.
#[derive(Debug, Clone, Copy)]
enum Scalar<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(&'a str),
}

impl<'a> Scalar<'a> {
    fn of(v: &'a Value) -> Scalar<'a> {
        match v {
            Value::Null => Scalar::Null,
            Value::Bool(b) => Scalar::Bool(*b),
            Value::Int(i) => Scalar::Int(*i),
            Value::Float(x) => Scalar::Float(*x),
            Value::Str(s) => Scalar::Str(s),
        }
    }

    fn cell(column: &'a Column, row: usize) -> Scalar<'a> {
        if column.is_null_at(row) {
            return Scalar::Null;
        }
        match column {
            Column::Int { data, .. } => Scalar::Int(data[row]),
            Column::Float { data, .. } => Scalar::Float(data[row]),
            Column::Bool { data, .. } => Scalar::Bool(data[row]),
            Column::Str { data, .. } => Scalar::Str(&data[row]),
        }
    }

    fn is_null(self) -> bool {
        matches!(self, Scalar::Null)
    }

    fn type_name(self) -> &'static str {
        match self {
            Scalar::Null => "null",
            Scalar::Bool(_) => "bool",
            Scalar::Int(_) => "int",
            Scalar::Float(_) => "float",
            Scalar::Str(_) => "string",
        }
    }

    /// [`Value::as_f64`].
    fn as_f64(self) -> RelResult<f64> {
        match self {
            Scalar::Int(i) => Ok(i as f64),
            Scalar::Float(x) => Ok(x),
            Scalar::Bool(b) => Ok(if b { 1.0 } else { 0.0 }),
            other => Err(RelError::TypeMismatch {
                expected: "numeric".into(),
                found: other.type_name().into(),
            }),
        }
    }

    /// [`Value::sql_cmp`].
    fn sql_cmp(self, other: Scalar<'_>) -> Option<Ordering> {
        use Scalar::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(&b)),
            (Int(a), Int(b)) => Some(a.cmp(&b)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Int(a), Float(b)) => (a as f64).partial_cmp(&b),
            (Float(a), Int(b)) => a.partial_cmp(&(b as f64)),
            (Float(a), Float(b)) => a.partial_cmp(&b),
            _ => None,
        }
    }

    /// [`Value::add`] / [`Value::sub`] / [`Value::mul`] / [`Value::div`].
    fn arith(self, op: BinOp, rhs: Scalar<'_>) -> RelResult<Scalar<'static>> {
        use Scalar::*;
        type Ops = (fn(f64, f64) -> f64, fn(i64, i64) -> Option<i64>);
        let (float_op, int_op): Ops = match op {
            BinOp::Add => (|a, b| a + b, i64::checked_add),
            BinOp::Sub => (|a, b| a - b, i64::checked_sub),
            BinOp::Mul => (|a, b| a * b, i64::checked_mul),
            BinOp::Div => {
                if self.is_null() || rhs.is_null() {
                    return Ok(Null);
                }
                let divisor = rhs.as_f64()?;
                if divisor == 0.0 {
                    return Err(RelError::DivisionByZero);
                }
                return Ok(Float(self.as_f64()? / divisor));
            }
        };
        match (self, rhs) {
            (Null, _) | (_, Null) => Ok(Null),
            // Overflow falls back to float arithmetic, as `Value` does.
            (Int(a), Int(b)) => Ok(int_op(a, b).map_or(Float(float_op(a as f64, b as f64)), Int)),
            _ => Ok(Float(float_op(self.as_f64()?, rhs.as_f64()?))),
        }
    }
}

impl Node {
    fn value<'a>(&'a self, table: &'a Table, row: usize) -> RelResult<Scalar<'a>> {
        match self {
            Node::Col(i) => Ok(Scalar::cell(table.column_at(*i), row)),
            Node::Lit(v) => Ok(Scalar::of(v)),
            Node::Arith(l, op, r) => {
                let a = l.value(table, row)?;
                let b = r.value(table, row)?;
                a.arith(*op, b)
            }
            _ => Ok(match self.test(table, row)? {
                Some(b) => Scalar::Bool(b),
                None => Scalar::Null,
            }),
        }
    }

    fn test(&self, table: &Table, row: usize) -> RelResult<Option<bool>> {
        match self {
            Node::Cmp(l, op, r) => {
                let a = l.value(table, row)?;
                let b = r.value(table, row)?;
                Ok(a.sql_cmp(b).map(|ord| op.test(ord)))
            }
            Node::Between(x, lo, hi) => {
                let v = x.value(table, row)?;
                let l = lo.value(table, row)?;
                let h = hi.value(table, row)?;
                let ge = v.sql_cmp(l).map(|o| o != Ordering::Less);
                let le = v.sql_cmp(h).map(|o| o != Ordering::Greater);
                Ok(and3(ge, le))
            }
            Node::And(l, r) => Ok(and3(l.test(table, row)?, r.test(table, row)?)),
            Node::Or(l, r) => Ok(or3(l.test(table, row)?, r.test(table, row)?)),
            Node::Not(e) => Ok(e.test(table, row)?.map(|b| !b)),
            Node::IsNull(e) => Ok(Some(e.value(table, row)?.is_null())),
            Node::IsNotNull(e) => Ok(Some(!e.value(table, row)?.is_null())),
            // A value in boolean position: a Bool column or literal
            // works; any other non-NULL value is a type error.
            Node::Col(_) | Node::Lit(_) | Node::Arith(..) => match self.value(table, row)? {
                Scalar::Null => Ok(None),
                Scalar::Bool(b) => Ok(Some(b)),
                v => Err(RelError::TypeMismatch {
                    expected: "bool".into(),
                    found: v.type_name().into(),
                }),
            },
        }
    }
}

/// SQL three-valued AND.
fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

/// SQL three-valued OR.
fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

// ----------------------------------------------------------------------
// 64 rows a word
// ----------------------------------------------------------------------

/// A predicate's value over every row: bit `i` of `t` (`f`) is set when
/// row `i` is true (false); unknown rows are in neither. Bits past the
/// last row are unspecified until [`clear_tail`].
struct Truth {
    t: Vec<u64>,
    f: Vec<u64>,
}

impl Truth {
    /// One word pair per 64 rows: `word` gets each word's row range and
    /// returns its `(true, false)` bits.
    fn build(rows: usize, mut word: impl FnMut(Range<usize>) -> (u64, u64)) -> Truth {
        let words = rows.div_ceil(64);
        let (mut t, mut f) = (Vec::with_capacity(words), Vec::with_capacity(words));
        for start in (0..rows).step_by(64) {
            let (tw, fw) = word(start..rows.min(start + 64));
            t.push(tw);
            f.push(fw);
        }
        Truth { t, f }
    }

    fn constant(rows: usize, value: Option<bool>) -> Truth {
        let words = rows.div_ceil(64);
        let fill = |on: bool| vec![if on { u64::MAX } else { 0 }; words];
        Truth {
            t: fill(value == Some(true)),
            f: fill(value == Some(false)),
        }
    }

    fn and(mut self, other: Truth) -> Truth {
        for (a, b) in self.t.iter_mut().zip(other.t) {
            *a &= b;
        }
        for (a, b) in self.f.iter_mut().zip(other.f) {
            *a |= b;
        }
        self
    }

    fn or(mut self, other: Truth) -> Truth {
        for (a, b) in self.t.iter_mut().zip(other.t) {
            *a |= b;
        }
        for (a, b) in self.f.iter_mut().zip(other.f) {
            *a &= b;
        }
        self
    }

    fn not(self) -> Truth {
        Truth {
            t: self.f,
            f: self.t,
        }
    }

    /// `x IS NULL` where `self` is `x`: true exactly where `x` is
    /// unknown.
    fn unknowns(self) -> Truth {
        let known: Vec<u64> = self.t.iter().zip(&self.f).map(|(t, f)| t | f).collect();
        Truth {
            t: known.iter().map(|k| !k).collect(),
            f: known,
        }
    }
}

/// Pack up to 64 per-row `(known, true)` pairs into `(true, false)`
/// bits.
#[inline]
fn word(cells: impl Iterator<Item = (bool, bool)>) -> (u64, u64) {
    cells
        .enumerate()
        .fold((0, 0), |(t, f), (bit, (known, hit))| {
            (
                t | u64::from(known & hit) << bit,
                f | u64::from(known & !hit) << bit,
            )
        })
}

/// Zero the bits of `words` past row `rows`.
fn clear_tail(words: &mut [u64], rows: usize) {
    if !rows.is_multiple_of(64) {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << (rows % 64)) - 1;
        }
    }
}

/// Which outcomes of a comparison an operator accepts.
#[derive(Clone, Copy)]
struct Accept {
    lt: bool,
    eq: bool,
    gt: bool,
}

impl Accept {
    fn of(op: CmpOp) -> Accept {
        let (lt, eq, gt) = match op {
            CmpOp::Eq => (false, true, false),
            CmpOp::Ne => (true, false, true),
            CmpOp::Lt => (true, false, false),
            CmpOp::Le => (true, true, false),
            CmpOp::Gt => (false, false, true),
            CmpOp::Ge => (false, true, true),
        };
        Accept { lt, eq, gt }
    }

    /// The operator with its operands swapped (`a < b` ≡ `b > a`).
    fn flipped(self) -> Accept {
        Accept {
            lt: self.gt,
            eq: self.eq,
            gt: self.lt,
        }
    }

    /// `(known, true)` for one comparison, given which of `<`, `=`, `>`
    /// held (none of them for an unordered pair such as a NaN).
    #[inline]
    fn cell(self, (lt, eq, gt): (bool, bool, bool)) -> (bool, bool) {
        (
            lt | eq | gt,
            (lt & self.lt) | (eq & self.eq) | (gt & self.gt),
        )
    }
}

/// `(a < b, a == b, a > b)`; all false when the pair is unordered.
#[inline]
fn ord3<T: PartialOrd + ?Sized>(a: &T, b: &T) -> (bool, bool, bool) {
    (a < b, a == b, a > b)
}

/// Compare a column with a constant, row by row: NULL cells are unknown.
fn column_vs<T>(
    data: &[T],
    nulls: &[bool],
    ord: impl Fn(&T) -> (bool, bool, bool),
    accept: Accept,
) -> Truth {
    Truth::build(nulls.len(), |r| {
        word(data[r.clone()].iter().zip(&nulls[r]).map(|(x, &null)| {
            let (known, hit) = accept.cell(ord(x));
            (known & !null, hit)
        }))
    })
}

/// Compare two columns, row by row: a NULL on either side is unknown.
fn columns_vs<A, B>(
    (a, a_nulls): (&[A], &[bool]),
    (b, b_nulls): (&[B], &[bool]),
    ord: impl Fn(&A, &B) -> (bool, bool, bool),
    accept: Accept,
) -> Truth {
    Truth::build(a_nulls.len(), |r| {
        let nulls = a_nulls[r.clone()].iter().zip(&b_nulls[r.clone()]);
        word(
            a[r.clone()]
                .iter()
                .zip(&b[r])
                .zip(nulls)
                .map(|((x, y), (xn, yn))| {
                    let (known, hit) = accept.cell(ord(x, y));
                    (known & !(xn | yn), hit)
                }),
        )
    })
}

/// `column ⊙ constant` with [`Value::sql_cmp`]'s typing: numbers compare
/// across Int and Float, Bool with Bool, strings with strings; any
/// other pairing is unknown on every row.
fn column_vs_constant(column: &Column, k: Scalar<'_>, accept: Accept) -> Truth {
    use Scalar as S;
    match (column, k) {
        (Column::Int { data, nulls }, S::Int(k)) => column_vs(data, nulls, |x| ord3(x, &k), accept),
        (Column::Int { data, nulls }, S::Float(k)) => {
            column_vs(data, nulls, |&x| ord3(&(x as f64), &k), accept)
        }
        (Column::Float { data, nulls }, S::Int(k)) => {
            let k = k as f64;
            column_vs(data, nulls, |x| ord3(x, &k), accept)
        }
        (Column::Float { data, nulls }, S::Float(k)) => {
            column_vs(data, nulls, |x| ord3(x, &k), accept)
        }
        (Column::Bool { data, nulls }, S::Bool(k)) => {
            column_vs(data, nulls, |x| ord3(x, &k), accept)
        }
        (Column::Str { data, nulls }, S::Str(k)) => {
            column_vs(data, nulls, |x| ord3(x.as_str(), k), accept)
        }
        _ => Truth::constant(column.len(), None),
    }
}

/// `column ⊙ column`, typed as [`column_vs_constant`].
fn column_vs_column(a: &Column, b: &Column, accept: Accept) -> Truth {
    use Column as C;
    match (a, b) {
        (C::Int { data: x, nulls: xn }, C::Int { data: y, nulls: yn }) => {
            columns_vs((x, xn), (y, yn), ord3, accept)
        }
        (C::Int { data: x, nulls: xn }, C::Float { data: y, nulls: yn }) => {
            columns_vs((x, xn), (y, yn), |&a, b| ord3(&(a as f64), b), accept)
        }
        (C::Float { data: x, nulls: xn }, C::Int { data: y, nulls: yn }) => {
            columns_vs((x, xn), (y, yn), |a, &b| ord3(a, &(b as f64)), accept)
        }
        (C::Float { data: x, nulls: xn }, C::Float { data: y, nulls: yn }) => {
            columns_vs((x, xn), (y, yn), ord3, accept)
        }
        (C::Bool { data: x, nulls: xn }, C::Bool { data: y, nulls: yn }) => {
            columns_vs((x, xn), (y, yn), ord3, accept)
        }
        (C::Str { data: x, nulls: xn }, C::Str { data: y, nulls: yn }) => columns_vs(
            (x, xn),
            (y, yn),
            |a, b| ord3(a.as_str(), b.as_str()),
            accept,
        ),
        _ => Truth::constant(a.len(), None),
    }
}

impl Node {
    /// The node's truth words over every row of `table`. Only called on
    /// trees [`Node::infallible`] accepts, whose leaves are columns and
    /// literals.
    fn truth(&self, table: &Table) -> Truth {
        let rows = table.num_rows();
        match self {
            Node::Cmp(a, op, b) => compare(table, a, Accept::of(*op), b),
            Node::Between(x, lo, hi) => compare(table, x, Accept::of(CmpOp::Ge), lo).and(compare(
                table,
                x,
                Accept::of(CmpOp::Le),
                hi,
            )),
            Node::And(l, r) => l.truth(table).and(r.truth(table)),
            Node::Or(l, r) => l.truth(table).or(r.truth(table)),
            Node::Not(e) => e.truth(table).not(),
            Node::IsNull(e) => e.nullness(table),
            Node::IsNotNull(e) => e.nullness(table).not(),
            Node::Col(i) => match table.column_at(*i) {
                Column::Bool { data, nulls } => Truth::build(rows, |r| {
                    word(
                        data[r.clone()]
                            .iter()
                            .zip(&nulls[r])
                            .map(|(&b, &null)| (!null, b)),
                    )
                }),
                other => unreachable!("{} column in boolean position", other.data_type()),
            },
            Node::Lit(Value::Bool(b)) => Truth::constant(rows, Some(*b)),
            Node::Lit(_) => Truth::constant(rows, None),
            Node::Arith(..) => unreachable!("arithmetic is never word-evaluated"),
        }
    }

    /// Truth words of `self IS NULL`.
    fn nullness(&self, table: &Table) -> Truth {
        match self {
            Node::Col(i) => {
                let nulls = table.column_at(*i).nulls();
                Truth::build(nulls.len(), |r| {
                    word(nulls[r].iter().map(|&null| (true, null)))
                })
            }
            Node::Lit(v) => Truth::constant(table.num_rows(), Some(v.is_null())),
            boolean => boolean.truth(table).unknowns(),
        }
    }
}

/// `a ⊙ b` over columns and literals.
fn compare(table: &Table, a: &Node, accept: Accept, b: &Node) -> Truth {
    match (a, b) {
        (Node::Col(i), Node::Col(j)) => {
            column_vs_column(table.column_at(*i), table.column_at(*j), accept)
        }
        (Node::Col(i), Node::Lit(k)) => {
            column_vs_constant(table.column_at(*i), Scalar::of(k), accept)
        }
        (Node::Lit(k), Node::Col(j)) => {
            column_vs_constant(table.column_at(*j), Scalar::of(k), accept.flipped())
        }
        (Node::Lit(x), Node::Lit(y)) => {
            let value = Scalar::of(x)
                .sql_cmp(Scalar::of(y))
                .map(|o| accept.cell(order_flags(o)).1);
            Truth::constant(table.num_rows(), value)
        }
        _ => unreachable!("word-evaluated comparisons read columns and literals only"),
    }
}

fn order_flags(o: Ordering) -> (bool, bool, bool) {
    (
        o == Ordering::Less,
        o == Ordering::Equal,
        o == Ordering::Greater,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};

    fn table() -> Table {
        let mut t = Table::new(Schema::from_pairs(&[
            ("x", DataType::Float),
            ("tag", DataType::Str),
            ("flag", DataType::Bool),
            ("n", DataType::Int),
        ]));
        t.push_row(vec![
            Value::Float(1.0),
            "a".into(),
            true.into(),
            Value::Int(0),
        ])
        .unwrap();
        t.push_row(vec![
            Value::Float(2.0),
            "b".into(),
            false.into(),
            Value::Int(2),
        ])
        .unwrap();
        t.push_row(vec![Value::Null, "c".into(), Value::Null, Value::Null])
            .unwrap();
        t
    }

    fn tests(e: &Expr, t: &Table) -> Vec<Option<bool>> {
        let p = e.bind(t.schema()).unwrap();
        (0..t.num_rows()).map(|r| p.test(t, r).unwrap()).collect()
    }

    #[test]
    fn comparisons_and_nulls() {
        let t = table();
        let pred = Expr::col("x").gt(Expr::lit(1.5));
        assert_eq!(tests(&pred, &t), vec![Some(false), Some(true), None]);
    }

    #[test]
    fn between_is_inclusive() {
        let t = table();
        let pred = Expr::col("x").between(Expr::lit(1.0), Expr::lit(2.0));
        assert_eq!(tests(&pred, &t), vec![Some(true), Some(true), None]);
    }

    #[test]
    fn three_valued_logic_tables() {
        // false AND unknown = false; true AND unknown = unknown
        assert_eq!(and3(Some(false), None), Some(false));
        assert_eq!(and3(Some(true), None), None);
        // true OR unknown = true; false OR unknown = unknown
        assert_eq!(or3(Some(true), None), Some(true));
        assert_eq!(or3(Some(false), None), None);
    }

    #[test]
    fn logical_operators_on_rows() {
        let t = table();
        let p = Expr::col("x")
            .ge(Expr::lit(1.0))
            .and(Expr::col("tag").eq(Expr::lit("a")));
        assert_eq!(tests(&p, &t)[..2], [Some(true), Some(false)]);
        // x IS NULL on row 2, so (x >= 1.0) unknown AND (tag='x' false) = false
        let q = Expr::col("x")
            .ge(Expr::lit(1.0))
            .and(Expr::col("tag").eq(Expr::lit("x")));
        assert_eq!(tests(&q, &t)[2], Some(false));
    }

    #[test]
    fn is_null_checks() {
        let t = table();
        assert_eq!(tests(&Expr::col("x").is_null(), &t)[2], Some(true));
        assert_eq!(tests(&Expr::col("x").is_not_null(), &t)[0], Some(true));
    }

    #[test]
    fn arithmetic_in_comparisons() {
        let t = table();
        let e = Expr::col("x")
            .mul(Expr::lit(10.0))
            .add(Expr::lit(1.0))
            .eq(Expr::lit(21.0));
        assert_eq!(tests(&e, &t), vec![Some(false), Some(true), None]);
        let div = Expr::col("x").div(Expr::col("n")).gt(Expr::lit(0.0));
        let p = div.bind(t.schema()).unwrap();
        assert_eq!(p.test(&t, 0), Err(RelError::DivisionByZero));
        assert_eq!(p.test(&t, 2), Ok(None), "NULL divisor is not an error");
    }

    #[test]
    fn bool_column_usable_as_predicate() {
        let t = table();
        assert_eq!(
            tests(&Expr::col("flag"), &t),
            vec![Some(true), Some(false), None]
        );
    }

    #[test]
    fn non_bool_in_predicate_position_errors() {
        let t = table();
        let p = Expr::col("tag").bind(t.schema()).unwrap();
        assert!(!p.is_infallible());
        assert!(matches!(p.test(&t, 0), Err(RelError::TypeMismatch { .. })));
        assert!(p.select(&t).is_err());
    }

    #[test]
    fn unknown_column_is_reported_at_bind() {
        let t = table();
        assert_eq!(
            Expr::col("ghost").gt(Expr::lit(1.0)).bind(t.schema()),
            Err(RelError::UnknownColumn("ghost".into()))
        );
    }

    #[test]
    fn select_uses_words_for_infallible_trees() {
        let t = table();
        let p = Expr::col("x")
            .is_not_null()
            .and(Expr::col("n").le(Expr::lit(1.5)))
            .or(Expr::col("flag").not())
            .bind(t.schema())
            .unwrap();
        assert!(p.is_infallible());
        let mask = p.select(&t).unwrap();
        assert_eq!(mask.iter().collect::<Vec<_>>(), vec![0, 1]);
        assert!(mask.contains(1) && !mask.contains(2));
    }
}
