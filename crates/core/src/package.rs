//! The [`Package`] answer object.
//!
//! A package is a *multiset* of tuples from the input relation (§2.1):
//! tuples may repeat up to the query's `REPEAT` bound. Internally a
//! package stores `(row, multiplicity)` pairs against its source table;
//! it can compute aggregates, check feasibility against a query, and
//! materialize into a standalone [`Table`] whose schema matches the
//! input relation — exactly how the paper represents packages
//! relationally (§5.1 "Software").

use paq_lang::ast::{AggExpr, AggTerm, GlobalPredicate, PackageQuery};
use paq_relational::agg::AggFunc;
use paq_relational::{Expr, RelResult, Table};

use crate::error::{EngineError, EngineResult};

/// A package: a multiset of rows of a source table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Package {
    /// `(row index, multiplicity)` with multiplicity ≥ 1, sorted by row.
    members: Vec<(usize, u64)>,
}

impl Package {
    /// The empty package.
    pub fn empty() -> Self {
        Package {
            members: Vec::new(),
        }
    }

    /// Build from `(row, multiplicity)` pairs; zero multiplicities are
    /// dropped, duplicates merged, order normalized.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (usize, u64)>) -> Self {
        let mut members: Vec<(usize, u64)> = pairs.into_iter().filter(|(_, m)| *m > 0).collect();
        members.sort_by_key(|(r, _)| *r);
        members.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 += later.1;
                true
            } else {
                false
            }
        });
        Package { members }
    }

    /// The `(row, multiplicity)` pairs, sorted by row.
    pub fn members(&self) -> &[(usize, u64)] {
        &self.members
    }

    /// Total number of tuples including repetitions (`COUNT(P.*)`).
    pub fn cardinality(&self) -> u64 {
        self.members.iter().map(|(_, m)| m).sum()
    }

    /// Number of distinct source tuples.
    pub fn distinct_tuples(&self) -> usize {
        self.members.len()
    }

    /// `true` when the package holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Largest multiplicity of any single tuple.
    pub fn max_multiplicity(&self) -> u64 {
        self.members.iter().map(|(_, m)| *m).max().unwrap_or(0)
    }

    /// Aggregate over the package with multiplicity (SQL semantics:
    /// NULLs skipped; empty aggregates of SUM return 0 here because the
    /// package-level linear semantics of §3.1 treat an empty selection
    /// as the zero vector).
    pub fn aggregate(&self, table: &Table, func: AggFunc, attr: &str) -> RelResult<f64> {
        if func == AggFunc::Count {
            return Ok(self.cardinality() as f64);
        }
        let col = table.column(attr)?;
        let mut sum = 0.0;
        let mut count = 0u64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &(row, mult) in &self.members {
            if let Some(v) = col.f64_at(row) {
                sum += v * mult as f64;
                count += mult;
                min = min.min(v);
                max = max.max(v);
            }
        }
        Ok(match func {
            AggFunc::Count => unreachable!(),
            AggFunc::Sum => sum,
            AggFunc::Avg => {
                if count == 0 {
                    0.0
                } else {
                    sum / count as f64
                }
            }
            AggFunc::Min => {
                if count == 0 {
                    0.0
                } else {
                    min
                }
            }
            AggFunc::Max => {
                if count == 0 {
                    0.0
                } else {
                    max
                }
            }
        })
    }

    /// Value of an [`AggExpr`] over this package.
    pub fn agg_expr_value(&self, table: &Table, agg: &AggExpr) -> EngineResult<f64> {
        Ok(match agg {
            AggExpr::Count => self.cardinality() as f64,
            AggExpr::Sum(attr) => self.aggregate(table, AggFunc::Sum, attr)?,
            AggExpr::Avg(attr) => self.aggregate(table, AggFunc::Avg, attr)?,
            AggExpr::CountWhere(filter) => {
                let mut total = 0.0;
                for (_, mult) in self.members_where(table, filter)? {
                    total += mult as f64;
                }
                total
            }
            AggExpr::SumWhere(attr, filter) => {
                let col = table.column(attr).map_err(EngineError::Relational)?;
                let mut total = 0.0;
                for (row, mult) in self.members_where(table, filter)? {
                    total += col.f64_at(row).unwrap_or(0.0) * mult as f64;
                }
                total
            }
        })
    }

    /// The members whose row satisfies `filter`, in row order. The
    /// filter is bound once, and only when there is a member to test.
    fn members_where(&self, table: &Table, filter: &Expr) -> EngineResult<Vec<(usize, u64)>> {
        if self.members.is_empty() {
            return Ok(Vec::new());
        }
        let filter = filter.bind(table.schema())?;
        let mut out = Vec::new();
        for &(row, mult) in &self.members {
            if filter.test(table, row)? == Some(true) {
                out.push((row, mult));
            }
        }
        Ok(out)
    }

    /// The query's objective value for this package (0 for vacuous
    /// objectives).
    pub fn objective_value(&self, query: &PackageQuery, table: &Table) -> EngineResult<f64> {
        match &query.objective {
            Some(obj) => self.agg_expr_value(table, &obj.agg),
            None => Ok(0.0),
        }
    }

    /// Check this package against *all* of the query's conditions:
    /// base predicate on every member, the repetition bound, and every
    /// global predicate (with tolerance `tol` on aggregate bounds).
    pub fn satisfies(&self, query: &PackageQuery, table: &Table, tol: f64) -> EngineResult<bool> {
        if let Some(maxm) = query.max_multiplicity() {
            if self.max_multiplicity() > maxm {
                return Ok(false);
            }
        }
        if let (Some(w), false) = (&query.where_clause, self.members.is_empty()) {
            // Bound only when there is a member to test. Stops at the
            // first member outside the base relation, before any later
            // member is evaluated.
            let w = w.bind(table.schema())?;
            for &(row, _) in &self.members {
                if w.test(table, row)? != Some(true) {
                    return Ok(false);
                }
            }
        }
        for pred in &query.such_that {
            match pred {
                GlobalPredicate::Between { agg, lo, hi } => {
                    let v = self.agg_expr_value(table, agg)?;
                    let scale = 1.0_f64.max(v.abs());
                    if v < lo - tol * scale || v > hi + tol * scale {
                        return Ok(false);
                    }
                }
                GlobalPredicate::Cmp { lhs, op, rhs } => {
                    let l = self.term_value(table, lhs)?;
                    let r = self.term_value(table, rhs)?;
                    let scale = 1.0_f64.max(l.abs().max(r.abs()));
                    let ok = match op {
                        paq_relational::expr::CmpOp::Le | paq_relational::expr::CmpOp::Lt => {
                            l <= r + tol * scale
                        }
                        paq_relational::expr::CmpOp::Ge | paq_relational::expr::CmpOp::Gt => {
                            l >= r - tol * scale
                        }
                        paq_relational::expr::CmpOp::Eq => (l - r).abs() <= tol * scale,
                        paq_relational::expr::CmpOp::Ne => (l - r).abs() > tol * scale,
                    };
                    if !ok {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    fn term_value(&self, table: &Table, term: &AggTerm) -> EngineResult<f64> {
        match term {
            AggTerm::Const(c) => Ok(*c),
            AggTerm::Agg(a) => self.agg_expr_value(table, a),
        }
    }

    /// Materialize the package as a standalone table (schema = input
    /// schema, one physical row per multiplicity unit).
    pub fn materialize(&self, table: &Table) -> Table {
        let mut indices = Vec::with_capacity(self.cardinality() as usize);
        for &(row, mult) in &self.members {
            for _ in 0..mult {
                indices.push(row);
            }
        }
        table.take(&indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paq_lang::parse_paql;
    use paq_relational::{DataType, Schema, Value};

    fn table() -> Table {
        let mut t = Table::new(Schema::from_pairs(&[
            ("kcal", DataType::Float),
            ("fat", DataType::Float),
            ("gluten", DataType::Str),
        ]));
        for (k, f, g) in [
            (0.5, 1.0, "free"),
            (1.0, 2.0, "free"),
            (2.0, 4.0, "full"),
            (0.25, 0.5, "free"),
        ] {
            t.push_row(vec![Value::Float(k), Value::Float(f), g.into()])
                .unwrap();
        }
        t
    }

    #[test]
    fn from_pairs_normalizes() {
        let p = Package::from_pairs(vec![(3, 1), (1, 2), (3, 1), (0, 0)]);
        assert_eq!(p.members(), &[(1, 2), (3, 2)]);
        assert_eq!(p.cardinality(), 4);
        assert_eq!(p.distinct_tuples(), 2);
        assert_eq!(p.max_multiplicity(), 2);
    }

    #[test]
    fn empty_package() {
        let p = Package::empty();
        assert!(p.is_empty());
        assert_eq!(p.cardinality(), 0);
        assert_eq!(p.max_multiplicity(), 0);
    }

    #[test]
    fn aggregates_respect_multiplicity() {
        let t = table();
        let p = Package::from_pairs(vec![(0, 2), (1, 1)]);
        assert_eq!(p.aggregate(&t, AggFunc::Count, "kcal").unwrap(), 3.0);
        assert_eq!(p.aggregate(&t, AggFunc::Sum, "kcal").unwrap(), 2.0);
        assert_eq!(p.aggregate(&t, AggFunc::Avg, "kcal").unwrap(), 2.0 / 3.0);
        assert_eq!(p.aggregate(&t, AggFunc::Min, "kcal").unwrap(), 0.5);
        assert_eq!(p.aggregate(&t, AggFunc::Max, "kcal").unwrap(), 1.0);
    }

    #[test]
    fn materialize_expands_multiset() {
        let t = table();
        let p = Package::from_pairs(vec![(0, 2), (2, 1)]);
        let m = p.materialize(&t);
        assert_eq!(m.num_rows(), 3);
        assert_eq!(m.schema(), t.schema());
        assert_eq!(m.value(0, "kcal").unwrap(), Value::Float(0.5));
        assert_eq!(m.value(1, "kcal").unwrap(), Value::Float(0.5));
        assert_eq!(m.value(2, "kcal").unwrap(), Value::Float(2.0));
    }

    #[test]
    fn satisfies_checks_everything() {
        let t = table();
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R REPEAT 0 \
             WHERE R.gluten = 'free' \
             SUCH THAT COUNT(P.*) = 2 AND SUM(P.kcal) BETWEEN 0.5 AND 1.6 \
             MINIMIZE SUM(P.fat)",
        )
        .unwrap();
        // {0, 1}: kcal 1.5 ✓, both gluten-free ✓, count 2 ✓.
        let good = Package::from_pairs(vec![(0, 1), (1, 1)]);
        assert!(good.satisfies(&q, &t, 1e-9).unwrap());
        // {0, 2}: tuple 2 is gluten-full.
        let bad_where = Package::from_pairs(vec![(0, 1), (2, 1)]);
        assert!(!bad_where.satisfies(&q, &t, 1e-9).unwrap());
        // {0, 0}: violates REPEAT 0.
        let bad_repeat = Package::from_pairs(vec![(0, 2)]);
        assert!(!bad_repeat.satisfies(&q, &t, 1e-9).unwrap());
        // {0, 3}: kcal 0.75 ✓ count 2 ✓ — fine.
        let good2 = Package::from_pairs(vec![(0, 1), (3, 1)]);
        assert!(good2.satisfies(&q, &t, 1e-9).unwrap());
        // {1}: count 1 ≠ 2.
        let bad_count = Package::from_pairs(vec![(1, 1)]);
        assert!(!bad_count.satisfies(&q, &t, 1e-9).unwrap());
    }

    #[test]
    fn objective_value_and_vacuous() {
        let t = table();
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R SUCH THAT COUNT(P.*) >= 1 MINIMIZE SUM(P.fat)",
        )
        .unwrap();
        let p = Package::from_pairs(vec![(0, 1), (1, 2)]);
        assert_eq!(p.objective_value(&q, &t).unwrap(), 5.0);
        let vacuous = parse_paql("SELECT PACKAGE(R) AS P FROM R").unwrap();
        assert_eq!(p.objective_value(&vacuous, &t).unwrap(), 0.0);
    }

    #[test]
    fn count_where_and_sum_where_values() {
        let t = table();
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R SUCH THAT \
             (SELECT COUNT(*) FROM P WHERE kcal >= 1.0) <= 2 AND \
             (SELECT SUM(fat) FROM P WHERE kcal >= 1.0) <= 8",
        )
        .unwrap();
        let p = Package::from_pairs(vec![(1, 2), (3, 1)]);
        match (&q.such_that[0], &q.such_that[1]) {
            (
                GlobalPredicate::Cmp {
                    lhs: AggTerm::Agg(cw),
                    ..
                },
                GlobalPredicate::Cmp {
                    lhs: AggTerm::Agg(sw),
                    ..
                },
            ) => {
                assert_eq!(p.agg_expr_value(&t, cw).unwrap(), 2.0);
                assert_eq!(p.agg_expr_value(&t, sw).unwrap(), 4.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(p.satisfies(&q, &t, 1e-9).unwrap());
    }

    #[test]
    fn null_cells_are_skipped() {
        let mut t = Table::new(Schema::from_pairs(&[("x", DataType::Float)]));
        t.push_row(vec![Value::Float(4.0)]).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        let p = Package::from_pairs(vec![(0, 1), (1, 3)]);
        assert_eq!(p.aggregate(&t, AggFunc::Sum, "x").unwrap(), 4.0);
        assert_eq!(p.aggregate(&t, AggFunc::Avg, "x").unwrap(), 4.0);
        assert_eq!(p.aggregate(&t, AggFunc::Count, "x").unwrap(), 4.0);
    }
}
