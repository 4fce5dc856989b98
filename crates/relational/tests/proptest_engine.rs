//! Property-based tests for the relational substrate: CSV round trips,
//! filter/take algebra and aggregate consistency on arbitrary data.

use paq_relational::agg::{aggregate, AggFunc};
use paq_relational::csv::{read_csv, write_csv};
use paq_relational::{DataType, Expr, Schema, Table, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![Just(Value::Null), (-1.0e6f64..1.0e6).prop_map(Value::Float),]
}

fn arb_string_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        "[a-z,\"'\n ]{0,12}".prop_map(Value::from),
    ]
}

fn table_of(rows: Vec<(Value, Value)>) -> Table {
    let mut t = Table::new(Schema::from_pairs(&[
        ("x", DataType::Float),
        ("s", DataType::Str),
    ]));
    for (x, s) in rows {
        t.push_row(vec![x, s]).unwrap();
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSV write → read is the identity, including NULLs, quotes,
    /// commas and newlines in string cells.
    #[test]
    fn csv_round_trip(rows in prop::collection::vec((arb_value(), arb_string_cell()), 0..30)) {
        let t = table_of(rows);
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv(t.schema().clone(), buf.as_slice()).unwrap();
        prop_assert_eq!(t, back);
    }

    /// filter(p) ∪ filter(NOT p) partitions the non-NULL rows; rows
    /// where the predicate is UNKNOWN appear in neither.
    #[test]
    fn filter_partitions_under_negation(
        xs in prop::collection::vec(arb_value(), 0..50),
        threshold in -1.0e6f64..1.0e6,
    ) {
        let t = table_of(xs.iter().cloned().map(|x| (x, Value::Null)).collect());
        let p = Expr::col("x").gt(Expr::lit(threshold));
        let yes = t.filter_indices(&p).unwrap();
        let no = t.filter_indices(&p.clone().not()).unwrap();
        let nulls = t.filter_indices(&Expr::col("x").is_null()).unwrap();
        prop_assert_eq!(yes.len() + no.len() + nulls.len(), t.num_rows());
        // Disjointness.
        let mut seen = vec![false; t.num_rows()];
        for &i in yes.iter().chain(&no).chain(&nulls) {
            prop_assert!(!seen[i]);
            seen[i] = true;
        }
    }

    /// SUM over a table equals the sum of SUMs over any partition of
    /// its rows (take-based split).
    #[test]
    fn aggregates_decompose_over_take(
        xs in prop::collection::vec(-1000.0f64..1000.0, 1..40),
        split in 0usize..40,
    ) {
        let t = table_of(xs.iter().map(|&x| (Value::Float(x), Value::Null)).collect());
        let split = split.min(t.num_rows());
        let left: Vec<usize> = (0..split).collect();
        let right: Vec<usize> = (split..t.num_rows()).collect();
        let s_all = aggregate(&t, AggFunc::Sum, "x").unwrap().as_f64().unwrap_or(0.0);
        let s_l = aggregate(&t.take(&left), AggFunc::Sum, "x").unwrap().as_f64().unwrap_or(0.0);
        let s_r = aggregate(&t.take(&right), AggFunc::Sum, "x").unwrap().as_f64().unwrap_or(0.0);
        prop_assert!((s_all - (s_l + s_r)).abs() < 1e-6 * (1.0 + s_all.abs()));
    }

    /// `take` then `take` composes (multiset semantics preserved).
    #[test]
    fn take_composes(
        xs in prop::collection::vec(-10.0f64..10.0, 1..20),
        picks in prop::collection::vec(0usize..20, 0..30),
    ) {
        let t = table_of(xs.iter().map(|&x| (Value::Float(x), Value::Null)).collect());
        let picks: Vec<usize> = picks.into_iter().map(|p| p % t.num_rows()).collect();
        let direct = t.take(&picks);
        // Equivalent two-step take.
        let first: Vec<usize> = picks.to_vec();
        let ids: Vec<usize> = (0..first.len()).collect();
        let two_step = t.take(&first).take(&ids);
        prop_assert_eq!(direct, two_step);
    }
}
