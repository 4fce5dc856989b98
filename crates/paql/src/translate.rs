//! PaQL → ILP translation (§3.1 of the paper).
//!
//! Given a validated [`PackageQuery`] and its input [`Table`], produce a
//! [`paq_solver::Model`] with one nonnegative integer variable `x_i` per
//! tuple of the *base relation* (the tuples satisfying the `WHERE`
//! clause — rule 2's variable elimination), plus:
//!
//! 1. **Repetition constraint** (rule 1): `REPEAT K ⇒ 0 ≤ x_i ≤ K+1`.
//! 2. **Global predicates** (rule 3): each `f(P) ⊙ v` becomes a linear
//!    row; `COUNT → Σx_i`, `SUM(attr) → Σ attr_i·x_i`,
//!    `AVG(attr) ⊙ v → Σ(attr_i − v)·x_i ⊙ 0`, and subquery counts use
//!    per-tuple indicator coefficients.
//! 3. **Objective** (rule 4): `MINIMIZE/MAXIMIZE f(P)`, or the vacuous
//!    `max Σ 0·x_i` when absent.

use paq_relational::expr::CmpOp;
use paq_relational::{Expr, Table};
use paq_solver::{Model, Sense, VarId};

use crate::ast::{AggExpr, AggTerm, GlobalPredicate, ObjectiveSense, PackageQuery};
use crate::error::{PaqlError, PaqlResult};
use crate::validate::validate;

/// A translated query: the ILP model plus the variable↔tuple mapping.
#[derive(Debug, Clone)]
pub struct Translation {
    /// The ILP model (one integer variable per base-relation tuple).
    pub model: Model,
    /// `tuple_of_var[v]` is the row index (in the input table) of the
    /// tuple that variable `v` selects.
    pub tuple_of_var: Vec<usize>,
}

impl Translation {
    /// Decode a solver assignment into `(tuple_index, multiplicity)`
    /// pairs — the package contents.
    pub fn decode(&self, values: &[f64]) -> Vec<(usize, u64)> {
        self.tuple_of_var
            .iter()
            .zip(values)
            .filter_map(|(&tuple, &v)| {
                let mult = v.round() as i64;
                (mult > 0).then_some((tuple, mult as u64))
            })
            .collect()
    }
}

/// Translate `query` over `table` into an ILP model.
///
/// Validation runs first; the returned model is ready for
/// [`paq_solver::MilpSolver::solve`].
pub fn translate(query: &PackageQuery, table: &Table) -> PaqlResult<Translation> {
    translate_over(query, table, None)
}

/// Translate `query` over a subset of `table` rows (`None` = all rows).
///
/// The subset form is what SKETCHREFINE uses to build per-group refine
/// models without materializing group tables.
pub fn translate_over(
    query: &PackageQuery,
    table: &Table,
    rows: Option<&[usize]>,
) -> PaqlResult<Translation> {
    validate(query, table.schema())?;

    // Rule 2: base relation — keep only tuples satisfying the WHERE
    // clause; everything else is eliminated from the problem.
    let candidate_rows: Vec<usize> = match rows {
        Some(r) => r.to_vec(),
        None => (0..table.num_rows()).collect(),
    };
    let base_rows = base_relation_rows(query, table, &candidate_rows)?;
    let ls = linear_system(query, table, &base_rows)?;
    let model = ls.to_model();
    Ok(Translation {
        model,
        tuple_of_var: base_rows,
    })
}

/// Row indices of `candidates` surviving the query's base predicate
/// (rule 2 — the base relation `R_β`), in candidate order.
///
/// The `WHERE` clause is bound to the table's schema once and each
/// candidate is tested with [`Predicate::test`](paq_relational::Predicate::test);
/// with no candidates nothing is bound, so the result is `Ok` and empty.
pub fn base_relation_rows(
    query: &PackageQuery,
    table: &Table,
    candidates: &[usize],
) -> PaqlResult<Vec<usize>> {
    match &query.where_clause {
        Some(pred) if !candidates.is_empty() => {
            Ok(pred.bind(table.schema())?.filter(table, candidates)?)
        }
        _ => Ok(candidates.to_vec()),
    }
}

/// One linear constraint row `lo ≤ Σ coefs·x ≤ hi` over an explicit
/// tuple set.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRow {
    /// Per-tuple coefficients, parallel to the `rows` argument of
    /// [`linear_system`].
    pub coefs: Vec<f64>,
    /// Row lower bound (`-inf` for pure ≤).
    pub lo: f64,
    /// Row upper bound (`+inf` for pure ≥).
    pub hi: f64,
}

/// The raw linear system of a query over an explicit tuple set — the
/// building block SKETCHREFINE uses to assemble sketch and refine ILPs
/// with shifted bounds (§4.2): the contribution of already-decided
/// groups is a constant that simply moves each row's `lo`/`hi`.
#[derive(Debug, Clone)]
pub struct LinearSystem {
    /// Constraint rows (a BETWEEN over AVG expands to two rows).
    pub rows: Vec<LinearRow>,
    /// Objective coefficients, parallel to the tuple set.
    pub objective: Vec<f64>,
    /// Optimization sense (vacuous queries get `Maximize` over zeros).
    pub sense: Sense,
    /// Per-variable upper bound from the repetition constraint
    /// (`K + 1`, or `+inf` without `REPEAT`).
    pub var_ub: f64,
}

impl LinearSystem {
    /// Assemble a solver model: one integer variable per tuple with the
    /// repetition bound, all rows, and the objective.
    pub fn to_model(&self) -> Model {
        let mut model = Model::new();
        let vars: Vec<VarId> = self
            .objective
            .iter()
            .map(|&c| model.add_int_var(0.0, self.var_ub, c))
            .collect();
        for row in &self.rows {
            model.add_range(
                vars.iter()
                    .copied()
                    .zip(row.coefs.iter().copied())
                    .collect(),
                row.lo,
                row.hi,
            );
        }
        model.set_sense(self.sense);
        model
    }
}

/// Extract the query's linear system over the tuples at `rows`.
///
/// The base (`WHERE`) predicate is **not** applied here — callers
/// pre-filter with [`base_relation_rows`]; this lets SKETCHREFINE
/// evaluate the same system over representative relations whose
/// categorical attributes do not exist.
pub fn linear_system(
    query: &PackageQuery,
    table: &Table,
    rows: &[usize],
) -> PaqlResult<LinearSystem> {
    let var_ub = query
        .max_multiplicity()
        .map(|m| m as f64)
        .unwrap_or(f64::INFINITY);

    let mut out_rows = Vec::new();
    for pred in &query.such_that {
        match pred {
            GlobalPredicate::Between { agg, lo, hi } => match agg {
                AggExpr::Avg(attr) => {
                    // lo ≤ AVG ≤ hi ⇒ Σ(a_i − lo)x ≥ 0 and Σ(a_i − hi)x ≤ 0.
                    out_rows.push(LinearRow {
                        coefs: avg_coefs(table, rows, attr, *lo)?,
                        lo: 0.0,
                        hi: f64::INFINITY,
                    });
                    out_rows.push(LinearRow {
                        coefs: avg_coefs(table, rows, attr, *hi)?,
                        lo: f64::NEG_INFINITY,
                        hi: 0.0,
                    });
                }
                _ => out_rows.push(LinearRow {
                    coefs: agg_coefs(table, rows, agg)?,
                    lo: *lo,
                    hi: *hi,
                }),
            },
            GlobalPredicate::Cmp { lhs, op, rhs } => {
                out_rows.push(cmp_row(table, rows, lhs, *op, rhs)?);
            }
        }
    }

    let (objective, sense) = match &query.objective {
        Some(obj) => {
            let coefs = agg_coefs(table, rows, &obj.agg)?;
            let sense = match obj.sense {
                ObjectiveSense::Minimize => Sense::Minimize,
                ObjectiveSense::Maximize => Sense::Maximize,
            };
            (coefs, sense)
        }
        // Vacuous objective max Σ 0·x_i (§3.1 rule 4).
        None => (vec![0.0; rows.len()], Sense::Maximize),
    };

    Ok(LinearSystem {
        rows: out_rows,
        objective,
        sense,
        var_ub,
    })
}

/// Per-tuple linear coefficients of an aggregate (rule 3).
fn agg_coefs(table: &Table, rows: &[usize], agg: &AggExpr) -> PaqlResult<Vec<f64>> {
    let mut out = Vec::with_capacity(rows.len());
    match agg {
        AggExpr::Count => out.resize(rows.len(), 1.0),
        AggExpr::Sum(attr) => {
            let col = table.column(attr)?;
            for &row in rows {
                // SQL SUM skips NULLs ⇒ a NULL cell contributes 0.
                out.push(col.f64_at(row).unwrap_or(0.0));
            }
        }
        AggExpr::CountWhere(filter) => {
            for hit in filter_hits(table, rows, filter)? {
                out.push(if hit { 1.0 } else { 0.0 });
            }
        }
        AggExpr::SumWhere(attr, filter) => {
            let col = table.column(attr)?;
            for (&row, hit) in rows.iter().zip(filter_hits(table, rows, filter)?) {
                out.push(if hit {
                    col.f64_at(row).unwrap_or(0.0)
                } else {
                    0.0
                });
            }
        }
        AggExpr::Avg(_) => {
            return Err(PaqlError::Semantic(
                "AVG reached coefficient generation without a comparison constant \
                 (validation should have rejected this)"
                    .into(),
            ))
        }
    }
    Ok(out)
}

/// Whether each row satisfies a subquery's `filter`. The filter is bound
/// once, and only when there is a row to test.
fn filter_hits(table: &Table, rows: &[usize], filter: &Expr) -> PaqlResult<Vec<bool>> {
    if rows.is_empty() {
        return Ok(Vec::new());
    }
    let filter = filter.bind(table.schema())?;
    rows.iter()
        .map(|&row| Ok(filter.test(table, row)? == Some(true)))
        .collect()
}

/// Coefficients for the AVG linearization `Σ (attr_i − v) x_i`.
fn avg_coefs(table: &Table, rows: &[usize], attr: &str, v: f64) -> PaqlResult<Vec<f64>> {
    let col = table.column(attr)?;
    Ok(rows
        .iter()
        .map(|&row| col.f64_at(row).unwrap_or(0.0) - v)
        .collect())
}

/// Build the row for `lhs ⊙ rhs` where each side is an aggregate or
/// constant.
fn cmp_row(
    table: &Table,
    rows: &[usize],
    lhs: &AggTerm,
    op: CmpOp,
    rhs: &AggTerm,
) -> PaqlResult<LinearRow> {
    // AVG ⊙ const gets its own linearization.
    if let (AggTerm::Agg(AggExpr::Avg(attr)), AggTerm::Const(v)) = (lhs, rhs) {
        return Ok(bounded_row(avg_coefs(table, rows, attr, *v)?, op, 0.0));
    }
    if let (AggTerm::Const(v), AggTerm::Agg(AggExpr::Avg(attr))) = (lhs, rhs) {
        // v ⊙ AVG ≡ AVG ⊙⁻¹ v.
        return Ok(bounded_row(
            avg_coefs(table, rows, attr, *v)?,
            flip(op),
            0.0,
        ));
    }

    // General linear form: (lhs_lin − rhs_lin)·x ⊙ (rhs_const − lhs_const).
    let mut coefs = vec![0.0; rows.len()];
    let mut rhs_const = 0.0;
    accumulate(table, rows, lhs, 1.0, &mut coefs, &mut rhs_const)?;
    accumulate(table, rows, rhs, -1.0, &mut coefs, &mut rhs_const)?;
    Ok(bounded_row(coefs, op, -rhs_const))
}

/// Add `sign ×` the term's linear part into `coefs` and its constant
/// part into `constant`.
fn accumulate(
    table: &Table,
    rows: &[usize],
    term: &AggTerm,
    sign: f64,
    coefs: &mut [f64],
    constant: &mut f64,
) -> PaqlResult<()> {
    match term {
        AggTerm::Const(c) => *constant += sign * c,
        AggTerm::Agg(agg) => {
            for (slot, c) in agg_coefs(table, rows, agg)?.into_iter().enumerate() {
                coefs[slot] += sign * c;
            }
        }
    }
    Ok(())
}

fn bounded_row(coefs: Vec<f64>, op: CmpOp, bound: f64) -> LinearRow {
    match op {
        CmpOp::Le | CmpOp::Lt => LinearRow {
            coefs,
            lo: f64::NEG_INFINITY,
            hi: bound,
        },
        CmpOp::Ge | CmpOp::Gt => LinearRow {
            coefs,
            lo: bound,
            hi: f64::INFINITY,
        },
        CmpOp::Eq => LinearRow {
            coefs,
            lo: bound,
            hi: bound,
        },
        CmpOp::Ne => unreachable!("validation rejects <> in global predicates"),
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Lt,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_paql;
    use paq_relational::{DataType, Schema, Value};
    use paq_solver::{MilpSolver, SolveOutcome, SolverConfig};

    fn recipes() -> Table {
        let mut t = Table::new(Schema::from_pairs(&[
            ("name", DataType::Str),
            ("gluten", DataType::Str),
            ("kcal", DataType::Float),
            ("saturated_fat", DataType::Float),
            ("carbs", DataType::Float),
            ("protein", DataType::Float),
        ]));
        let rows: Vec<(&str, &str, f64, f64, f64, f64)> = vec![
            ("oats", "free", 0.8, 1.0, 30.0, 5.0),
            ("bread", "full", 0.9, 2.0, 40.0, 8.0),
            ("salad", "free", 0.5, 0.2, 5.0, 2.0),
            ("steak", "free", 1.1, 5.0, 0.0, 30.0),
            ("rice", "free", 0.7, 0.4, 35.0, 4.0),
            ("tofu", "free", 0.6, 0.6, 3.0, 12.0),
        ];
        for (n, g, k, f, c, p) in rows {
            t.push_row(vec![
                n.into(),
                g.into(),
                k.into(),
                f.into(),
                c.into(),
                p.into(),
            ])
            .unwrap();
        }
        t
    }

    fn solve(query: &str, table: &Table) -> (Translation, SolveOutcome) {
        let q = parse_paql(query).unwrap();
        let tr = translate(&q, table).unwrap();
        let out = MilpSolver::new(SolverConfig::default())
            .solve(&tr.model)
            .outcome;
        (tr, out)
    }

    #[test]
    fn running_example_end_to_end() {
        let table = recipes();
        let (tr, out) = solve(
            "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 \
             WHERE R.gluten = 'free' \
             SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) BETWEEN 2.0 AND 2.5 \
             MINIMIZE SUM(P.saturated_fat)",
            &table,
        );
        // Bread (gluten=full) must be eliminated: 5 variables remain.
        assert_eq!(tr.tuple_of_var.len(), 5);
        assert!(!tr.tuple_of_var.contains(&1));
        let sol = match out {
            SolveOutcome::Optimal(s) => s,
            other => panic!("unexpected {other:?}"),
        };
        let pkg = tr.decode(&sol.values);
        let total: u64 = pkg.iter().map(|(_, m)| m).sum();
        assert_eq!(total, 3);
        // Feasibility of the package against the raw data.
        let kcal: f64 = pkg
            .iter()
            .map(|(t, m)| table.value(*t, "kcal").unwrap().as_f64().unwrap() * *m as f64)
            .sum();
        assert!((2.0..=2.5).contains(&kcal), "kcal {kcal}");
        // Optimal fat: salad (0.2) + rice (0.4) + tofu (0.6) = 1.2 at
        // kcal 1.8 < 2.0 — infeasible; the true optimum must include a
        // heavier meal. Verify optimality by brute force.
        let mut best = f64::INFINITY;
        let idx = [0usize, 2, 3, 4, 5];
        for a in 0..idx.len() {
            for b in a + 1..idx.len() {
                for c in b + 1..idx.len() {
                    let trio = [idx[a], idx[b], idx[c]];
                    let kc: f64 = trio
                        .iter()
                        .map(|&t| table.value(t, "kcal").unwrap().as_f64().unwrap())
                        .sum();
                    if (2.0..=2.5).contains(&kc) {
                        let fat: f64 = trio
                            .iter()
                            .map(|&t| table.value(t, "saturated_fat").unwrap().as_f64().unwrap())
                            .sum();
                        best = best.min(fat);
                    }
                }
            }
        }
        assert!(
            (sol.objective - best).abs() < 1e-9,
            "{} vs {best}",
            sol.objective
        );
    }

    #[test]
    fn repeat_bound_controls_multiplicity() {
        let table = recipes();
        // Minimize kcal with exactly 4 tuples, REPEAT 1 (≤2 copies each):
        // two salads (0.5) + two tofu (0.6) = 2.2.
        let (tr, out) = solve(
            "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 1 \
             SUCH THAT COUNT(P.*) = 4 MINIMIZE SUM(P.kcal)",
            &table,
        );
        let sol = out.solution().unwrap().clone();
        assert!((sol.objective - 2.2).abs() < 1e-9);
        let pkg = tr.decode(&sol.values);
        assert!(pkg.iter().all(|(_, m)| *m <= 2));
    }

    #[test]
    fn unlimited_repetition_when_repeat_absent() {
        let table = recipes();
        // Maximize count with kcal budget; only salad (cheapest 0.5)
        // should repeat ⌊5.0 / 0.5⌋ = 10 times.
        let (tr, out) = solve(
            "SELECT PACKAGE(R) AS P FROM Recipes R \
             SUCH THAT SUM(P.kcal) <= 5.0 MAXIMIZE COUNT(P.*)",
            &table,
        );
        let sol = out.solution().unwrap().clone();
        assert_eq!(sol.objective.round() as i64, 10);
        let pkg = tr.decode(&sol.values);
        assert_eq!(pkg.len(), 1);
        assert_eq!(pkg[0], (2, 10));
    }

    #[test]
    fn avg_constraint_linearization() {
        let table = recipes();
        // AVG(kcal) ≤ 0.6 with exactly 2 tuples and max protein:
        // candidates with avg ≤ 0.6: pairs summing kcal ≤ 1.2.
        let (tr, out) = solve(
            "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 \
             SUCH THAT COUNT(P.*) = 2 AND AVG(P.kcal) <= 0.6 \
             MAXIMIZE SUM(P.protein)",
            &table,
        );
        let sol = out.solution().unwrap().clone();
        let pkg = tr.decode(&sol.values);
        let rows: Vec<usize> = pkg.iter().map(|(t, _)| *t).collect();
        let kcal: f64 = rows
            .iter()
            .map(|&t| table.value(t, "kcal").unwrap().as_f64().unwrap())
            .sum();
        assert!(kcal / 2.0 <= 0.6 + 1e-9);
        // Best qualifying pair: salad+tofu (kcal 1.1, protein 14).
        assert!((sol.objective - 14.0).abs() < 1e-9, "{}", sol.objective);
    }

    #[test]
    fn subquery_count_comparison_from_paper() {
        let table = recipes();
        // #(carbs > 0) ≥ #(protein ≤ 5): the §3.1 indicator encoding.
        let (tr, out) = solve(
            "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 \
             SUCH THAT COUNT(P.*) = 3 AND \
             (SELECT COUNT(*) FROM P WHERE P.carbs > 0) >= \
             (SELECT COUNT(*) FROM P WHERE P.protein <= 5) \
             MINIMIZE SUM(P.saturated_fat)",
            &table,
        );
        let sol = out.solution().unwrap().clone();
        let pkg = tr.decode(&sol.values);
        let carbs = pkg
            .iter()
            .filter(|(t, _)| table.value(*t, "carbs").unwrap().as_f64().unwrap() > 0.0)
            .count();
        let lowp = pkg
            .iter()
            .filter(|(t, _)| table.value(*t, "protein").unwrap().as_f64().unwrap() <= 5.0)
            .count();
        assert!(carbs >= lowp, "carbs {carbs} < low-protein {lowp}");
    }

    #[test]
    fn infeasible_package_query() {
        let table = recipes();
        let (_, out) = solve(
            "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 \
             SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) <= 0.1",
            &table,
        );
        assert_eq!(out, SolveOutcome::Infeasible);
    }

    #[test]
    fn empty_base_relation_infeasible_with_count() {
        let table = recipes();
        let (tr, out) = solve(
            "SELECT PACKAGE(R) AS P FROM Recipes R \
             WHERE R.gluten = 'none' SUCH THAT COUNT(P.*) >= 1",
            &table,
        );
        assert_eq!(tr.tuple_of_var.len(), 0);
        assert_eq!(out, SolveOutcome::Infeasible);
    }

    #[test]
    fn empty_package_is_a_valid_answer() {
        let table = recipes();
        let (tr, out) = solve(
            "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 \
             SUCH THAT SUM(P.kcal) <= 10 MINIMIZE SUM(P.kcal)",
            &table,
        );
        let sol = out.solution().unwrap().clone();
        assert_eq!(tr.decode(&sol.values), vec![]);
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn vacuous_objective_accepts_any_feasible_package() {
        let table = recipes();
        let (tr, out) = solve(
            "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 \
             SUCH THAT COUNT(P.*) = 2",
            &table,
        );
        let sol = out.solution().unwrap().clone();
        let pkg = tr.decode(&sol.values);
        assert_eq!(pkg.iter().map(|(_, m)| m).sum::<u64>(), 2);
    }

    #[test]
    fn sum_where_constraint() {
        let table = recipes();
        // Total kcal from high-carb (>20) meals at most 0.8.
        let (tr, out) = solve(
            "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 \
             SUCH THAT COUNT(P.*) = 3 AND \
             (SELECT SUM(kcal) FROM P WHERE carbs > 20) <= 0.8 \
             MINIMIZE SUM(P.saturated_fat)",
            &table,
        );
        let sol = out.solution().unwrap().clone();
        let pkg = tr.decode(&sol.values);
        let high_carb_kcal: f64 = pkg
            .iter()
            .filter(|(t, _)| table.value(*t, "carbs").unwrap().as_f64().unwrap() > 20.0)
            .map(|(t, m)| table.value(*t, "kcal").unwrap().as_f64().unwrap() * *m as f64)
            .sum();
        assert!(high_carb_kcal <= 0.8 + 1e-9);
    }

    #[test]
    fn null_attribute_contributes_zero_to_sum() {
        let mut t = Table::new(Schema::from_pairs(&[("x", DataType::Float)]));
        t.push_row(vec![Value::Float(5.0)]).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R REPEAT 0 \
             SUCH THAT COUNT(P.*) = 2 MAXIMIZE SUM(P.x)",
        )
        .unwrap();
        let tr = translate(&q, &t).unwrap();
        let out = MilpSolver::new(SolverConfig::default())
            .solve(&tr.model)
            .outcome;
        assert_eq!(out.solution().unwrap().objective, 5.0);
    }

    #[test]
    fn base_relation_keeps_candidate_order_and_duplicates() {
        let table = recipes();
        let q =
            parse_paql("SELECT PACKAGE(R) AS P FROM Recipes R WHERE R.gluten = 'free'").unwrap();
        assert_eq!(
            base_relation_rows(&q, &table, &[5, 1, 0, 5, 3, 1]).unwrap(),
            vec![5, 0, 5, 3]
        );
        // No candidate, nothing bound: even an unknown column is `Ok`.
        let ghost = parse_paql("SELECT PACKAGE(R) AS P FROM Recipes R WHERE R.ghost > 0").unwrap();
        assert_eq!(base_relation_rows(&ghost, &table, &[]).unwrap(), vec![]);
        assert!(base_relation_rows(&ghost, &table, &[0]).is_err());
    }

    #[test]
    fn decode_reports_multiplicities() {
        let tr = Translation {
            model: Model::new(),
            tuple_of_var: vec![7, 9, 11],
        };
        assert_eq!(tr.decode(&[2.0, 0.0, 1.0]), vec![(7, 2), (11, 1)]);
    }

    #[test]
    fn constant_only_predicate_is_checked() {
        let table = recipes();
        // 3 <= 2 is always false: translation produces an infeasible
        // constant row caught by presolve.
        let (_, out) = solve(
            "SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT 3 <= 2",
            &table,
        );
        assert_eq!(out, SolveOutcome::Infeasible);
    }
}
