//! Differential suite for bound predicates.
//!
//! The oracle below is the by-name, [`Value`]-based evaluator that bound
//! predicates replaced: every cell is looked up by column name and boxed
//! as a `Value`, and three-valued logic is applied row by row. It is the
//! reference implementation, kept here verbatim.
//!
//! Each seeded case draws a table (Int / Float / Bool / Str columns,
//! about 20 % NULLs, NaN, ±0.0, ±∞, the i64 extremes, Int-vs-Float ties)
//! and a random predicate tree of depth ≤ 4 over every `Expr` variant,
//! including division by a column that is often zero and Int / Str
//! columns in boolean position. Then:
//!
//! * `Predicate::test` on every row,
//! * `Predicate::select` and `Table::filter_indices` over the table, and
//! * `Predicate::filter` — what `base_relation_rows` runs — over random
//!   unsorted candidate lists with duplicates
//!
//! must return exactly the oracle's `Ok` rows or its `Err`. The one
//! allowed difference: an unknown column is reported by `Expr::bind`,
//! before any row is evaluated.

use paq_relational::{BinOp, DataType, Expr, RelError, RelResult, Schema, Table, Value};

const CASES: u64 = 2_500;

// ----------------------------------------------------------------------
// Oracle: the row-at-a-time evaluator bound predicates replaced.
// ----------------------------------------------------------------------

fn eval(e: &Expr, table: &Table, row: usize) -> RelResult<Value> {
    match e {
        Expr::Col(name) => table.value(row, name),
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Arith(l, op, r) => {
            let a = eval(l, table, row)?;
            let b = eval(r, table, row)?;
            match op {
                BinOp::Add => a.add(&b),
                BinOp::Sub => a.sub(&b),
                BinOp::Mul => a.mul(&b),
                BinOp::Div => a.div(&b),
            }
        }
        Expr::Cmp(..)
        | Expr::Between(..)
        | Expr::And(..)
        | Expr::Or(..)
        | Expr::Not(..)
        | Expr::IsNull(..)
        | Expr::IsNotNull(..) => Ok(match eval_bool(e, table, row)? {
            Some(b) => Value::Bool(b),
            None => Value::Null,
        }),
    }
}

fn eval_bool(e: &Expr, table: &Table, row: usize) -> RelResult<Option<bool>> {
    match e {
        Expr::Cmp(l, op, r) => {
            let a = eval(l, table, row)?;
            let b = eval(r, table, row)?;
            Ok(a.sql_cmp(&b).map(|ord| op.test(ord)))
        }
        Expr::Between(x, lo, hi) => {
            let v = eval(x, table, row)?;
            let l = eval(lo, table, row)?;
            let h = eval(hi, table, row)?;
            let ge = v.sql_cmp(&l).map(|o| o != std::cmp::Ordering::Less);
            let le = v.sql_cmp(&h).map(|o| o != std::cmp::Ordering::Greater);
            Ok(and3(ge, le))
        }
        Expr::And(l, r) => Ok(and3(eval_bool(l, table, row)?, eval_bool(r, table, row)?)),
        Expr::Or(l, r) => Ok(or3(eval_bool(l, table, row)?, eval_bool(r, table, row)?)),
        Expr::Not(e) => Ok(eval_bool(e, table, row)?.map(|b| !b)),
        Expr::IsNull(e) => Ok(Some(eval(e, table, row)?.is_null())),
        Expr::IsNotNull(e) => Ok(Some(!eval(e, table, row)?.is_null())),
        other => match eval(other, table, row)? {
            Value::Null => Ok(None),
            Value::Bool(b) => Ok(Some(b)),
            v => Err(RelError::TypeMismatch {
                expected: "bool".into(),
                found: v.type_name().into(),
            }),
        },
    }
}

fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// The oracle over `rows` in order: the kept rows, or the first error.
fn oracle_filter(e: &Expr, table: &Table, rows: &[usize]) -> RelResult<Vec<usize>> {
    let mut keep = Vec::new();
    for &row in rows {
        if eval_bool(e, table, row)?.unwrap_or(false) {
            keep.push(row);
        }
    }
    Ok(keep)
}

// ----------------------------------------------------------------------
// Generators
// ----------------------------------------------------------------------

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }
}

const INTS: [i64; 10] = [0, 1, -1, 2, 3, 7, -40, 1 << 53, i64::MAX, i64::MIN];
const FLOATS: [f64; 12] = [
    0.0,
    -0.0,
    1.0,
    2.0,
    -2.5,
    0.5,
    3.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    9.223_372_036_854_776e18,
    9_007_199_254_740_992.0,
];
const STRS: [&str; 6] = ["", "a", "b", "ab", "it's", "B"];

/// Columns of the random table: name and type. `j` is an Int column
/// that is often zero (a divisor); `g` a second Float for column-vs-
/// column comparisons.
const COLUMNS: [(&str, DataType); 7] = [
    ("i", DataType::Int),
    ("j", DataType::Int),
    ("f", DataType::Float),
    ("g", DataType::Float),
    ("b", DataType::Bool),
    ("c", DataType::Bool),
    ("s", DataType::Str),
];

fn cell(rng: &mut Rng, ty: DataType, name: &str) -> Value {
    if rng.chance(20) {
        return Value::Null;
    }
    match ty {
        DataType::Int if name == "j" => Value::Int(rng.pick(&[0, 0, 0, 1, -1, 2])),
        DataType::Int => Value::Int(rng.pick(&INTS)),
        DataType::Float => Value::Float(rng.pick(&FLOATS)),
        DataType::Bool => Value::Bool(rng.chance(50)),
        DataType::Str => Value::from(rng.pick(&STRS)),
    }
}

fn table(rng: &mut Rng) -> Table {
    let rows = if rng.chance(50) {
        rng.pick(&[0, 1, 2, 63, 64, 65, 127, 128, 129])
    } else {
        rng.below(200)
    };
    let mut t = Table::new(Schema::from_pairs(&COLUMNS));
    for _ in 0..rows {
        let row = COLUMNS.iter().map(|&(n, ty)| cell(rng, ty, n)).collect();
        t.push_row(row).unwrap();
    }
    t
}

fn literal(rng: &mut Rng) -> Value {
    match rng.below(6) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(50)),
        2 | 3 => Value::Int(rng.pick(&INTS)),
        4 => Value::Float(rng.pick(&FLOATS)),
        _ => Value::from(rng.pick(&STRS)),
    }
}

fn column(rng: &mut Rng) -> Expr {
    // Rarely a column the schema lacks.
    if rng.chance(2) {
        return Expr::col("ghost");
    }
    Expr::col(rng.pick(&COLUMNS).0)
}

/// A column or literal.
fn leaf(rng: &mut Rng) -> Expr {
    if rng.chance(60) {
        column(rng)
    } else {
        Expr::Lit(literal(rng))
    }
}

/// An expression in value position. `wild` trees may use arithmetic and
/// boolean sub-trees as values; tame ones read columns and literals.
fn value_expr(rng: &mut Rng, depth: usize, wild: bool) -> Expr {
    if !wild || depth == 0 || rng.chance(40) {
        return leaf(rng);
    }
    if rng.chance(25) {
        return bool_expr(rng, depth - 1, wild);
    }
    let op = rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]);
    let rhs = if op == BinOp::Div && rng.chance(50) {
        Expr::col("j")
    } else {
        value_expr(rng, depth - 1, wild)
    };
    Expr::Arith(
        Box::new(value_expr(rng, depth - 1, wild)),
        op,
        Box::new(rhs),
    )
}

/// An expression in boolean position.
fn bool_expr(rng: &mut Rng, depth: usize, wild: bool) -> Expr {
    if depth == 0 {
        return match rng.below(4) {
            0 => Expr::col(rng.pick(&["b", "c"])),
            1 => Expr::Lit(rng.pick(&[Value::Bool(true), Value::Bool(false), Value::Null])),
            _ => comparison(rng, 0, wild),
        };
    }
    match rng.below(9) {
        0 | 1 => comparison(rng, depth - 1, wild),
        2 => value_expr(rng, depth - 1, wild).between(
            value_expr(rng, depth - 1, wild),
            value_expr(rng, depth - 1, wild),
        ),
        3 => bool_expr(rng, depth - 1, wild).and(bool_expr(rng, depth - 1, wild)),
        4 => bool_expr(rng, depth - 1, wild).or(bool_expr(rng, depth - 1, wild)),
        5 => bool_expr(rng, depth - 1, wild).not(),
        6 => null_test(rng, depth - 1, wild).is_null(),
        7 => null_test(rng, depth - 1, wild).is_not_null(),
        // Any value in boolean position: Int / Str columns, literals of
        // every type, arithmetic.
        _ if wild => value_expr(rng, depth - 1, wild),
        _ => Expr::col(rng.pick(&["b", "c"])),
    }
}

fn null_test(rng: &mut Rng, depth: usize, wild: bool) -> Expr {
    if rng.chance(50) {
        value_expr(rng, depth, wild)
    } else {
        bool_expr(rng, depth, wild)
    }
}

fn comparison(rng: &mut Rng, depth: usize, wild: bool) -> Expr {
    let lhs = value_expr(rng, depth, wild);
    let rhs = value_expr(rng, depth, wild);
    match rng.below(6) {
        0 => lhs.eq(rhs),
        1 => lhs.ne(rhs),
        2 => lhs.lt(rhs),
        3 => lhs.le(rhs),
        4 => lhs.gt(rhs),
        _ => lhs.ge(rhs),
    }
}

/// Unsorted candidate rows with duplicates.
fn candidates(rng: &mut Rng, rows: usize) -> Vec<usize> {
    if rows == 0 {
        return Vec::new();
    }
    let len = rng.below(2 * rows + 1);
    (0..len).map(|_| rng.below(rows)).collect()
}

// ----------------------------------------------------------------------
// The suite
// ----------------------------------------------------------------------

#[test]
fn bound_predicates_match_the_row_oracle() {
    let mut rng = Rng(0x0BAD_5EED);
    let (mut infallible, mut failing, mut unknown_columns) = (0u64, 0u64, 0u64);
    for case in 0..CASES {
        let t = table(&mut rng);
        let wild = rng.chance(50);
        let depth = 1 + rng.below(4);
        let e = bool_expr(&mut rng, depth, wild);
        let ctx = format!("case {case}: {e} over {} rows", t.num_rows());

        let all: Vec<usize> = (0..t.num_rows()).collect();
        let oracle = oracle_filter(&e, &t, &all);
        let missing = e
            .referenced_columns()
            .into_iter()
            .find(|c| !t.schema().contains(c));
        let pred = match (e.bind(t.schema()), missing) {
            (Err(err), Some(name)) => {
                unknown_columns += 1;
                assert_eq!(err, RelError::UnknownColumn(name), "{ctx}");
                if t.num_rows() == 0 {
                    assert_eq!(
                        t.filter_indices(&e),
                        Ok(vec![]),
                        "{ctx}: empty table binds nothing"
                    );
                }
                continue;
            }
            (Ok(pred), None) => pred,
            (bound, missing) => panic!("{ctx}: bind gave {bound:?}, missing column {missing:?}"),
        };

        for row in 0..t.num_rows() {
            assert_eq!(
                pred.test(&t, row),
                eval_bool(&e, &t, row),
                "{ctx}: test on row {row}"
            );
        }
        if pred.is_infallible() {
            infallible += 1;
            assert!(oracle.is_ok(), "{ctx}: infallible tree failed: {oracle:?}");
        }
        if oracle.is_err() {
            failing += 1;
        }
        let selected = pred.select(&t).map(|m| {
            assert_eq!(m.num_rows(), t.num_rows(), "{ctx}");
            for row in 0..t.num_rows() {
                let listed = m.iter().any(|r| r == row);
                assert_eq!(m.contains(row), listed, "{ctx}: contains({row})");
            }
            m.iter().collect::<Vec<_>>()
        });
        assert_eq!(selected, oracle, "{ctx}: select");
        assert_eq!(t.filter_indices(&e), oracle, "{ctx}: filter_indices");

        for _ in 0..3 {
            let rows = candidates(&mut rng, t.num_rows());
            assert_eq!(
                pred.filter(&t, &rows),
                oracle_filter(&e, &t, &rows),
                "{ctx}: filter over {rows:?}"
            );
        }
    }
    // The generators must reach every path: the word kernels, the
    // row-by-row fallback with its errors, and bind-time failures.
    assert!(infallible > CASES / 4, "{infallible} infallible cases");
    assert!(failing > CASES / 20, "{failing} failing cases");
    assert!(unknown_columns > 0, "no unknown-column case");
}
