//! Column aggregates.
//!
//! These are the relational aggregates that PaQL lifts to the package
//! level (`COUNT`, `SUM`, `AVG`, `MIN`, `MAX`); the engine uses them to
//! compute the objective/constraint values of a materialized package.
//!
//! NULL handling follows SQL: NULLs are skipped; `SUM`/`MIN`/`MAX`/`AVG`
//! of an all-NULL (or empty) input is NULL; `COUNT(*)` counts rows,
//! `COUNT(col)` counts non-NULL cells.

use crate::error::RelResult;
use crate::table::{Column, Table};
use crate::value::Value;

/// The aggregate functions supported by the engine (and by PaQL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` — number of rows.
    Count,
    /// `SUM(col)`
    Sum,
    /// `AVG(col)`
    Avg,
    /// `MIN(col)`
    Min,
    /// `MAX(col)`
    Max,
}

impl AggFunc {
    /// Keyword form, as written in PaQL.
    pub fn keyword(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }

    /// Parse a keyword (case-insensitive).
    pub fn from_keyword(kw: &str) -> Option<AggFunc> {
        match kw.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

/// Streaming accumulator over numeric cells.
#[derive(Debug, Clone, Default)]
pub struct NumericAccumulator {
    count_rows: u64,
    count_non_null: u64,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl NumericAccumulator {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one cell (NULL = `None`).
    pub fn push(&mut self, v: Option<f64>) {
        self.count_rows += 1;
        if let Some(x) = v {
            self.count_non_null += 1;
            self.sum += x;
            self.min = Some(self.min.map_or(x, |m| m.min(x)));
            self.max = Some(self.max.map_or(x, |m| m.max(x)));
        }
    }

    /// Number of rows fed (COUNT(*)).
    pub fn count(&self) -> u64 {
        self.count_rows
    }

    /// Number of non-NULL cells fed (COUNT(col)).
    pub fn count_non_null(&self) -> u64 {
        self.count_non_null
    }

    /// SUM over non-NULL cells; `None` if all inputs were NULL.
    pub fn sum(&self) -> Option<f64> {
        (self.count_non_null > 0).then_some(self.sum)
    }

    /// AVG over non-NULL cells; `None` if all inputs were NULL.
    pub fn avg(&self) -> Option<f64> {
        (self.count_non_null > 0).then(|| self.sum / self.count_non_null as f64)
    }

    /// MIN over non-NULL cells.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// MAX over non-NULL cells.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Evaluate a specific aggregate function from this accumulator.
    pub fn finish(&self, f: AggFunc) -> Value {
        match f {
            AggFunc::Count => Value::Int(self.count_rows as i64),
            AggFunc::Sum => self.sum().map_or(Value::Null, Value::Float),
            AggFunc::Avg => self.avg().map_or(Value::Null, Value::Float),
            AggFunc::Min => self.min().map_or(Value::Null, Value::Float),
            AggFunc::Max => self.max().map_or(Value::Null, Value::Float),
        }
    }
}

/// Aggregate an entire column.
pub fn aggregate_column(col: &Column, f: AggFunc) -> Value {
    let mut acc = NumericAccumulator::new();
    for i in 0..col.len() {
        acc.push(col.f64_at(i));
    }
    acc.finish(f)
}

/// Aggregate a named column of a table.
pub fn aggregate(table: &Table, f: AggFunc, column: &str) -> RelResult<Value> {
    if f == AggFunc::Count {
        return Ok(Value::Int(table.num_rows() as i64));
    }
    Ok(aggregate_column(table.column(column)?, f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};

    fn table() -> Table {
        let mut t = Table::new(Schema::from_pairs(&[("x", DataType::Float)]));
        for v in [
            Value::Float(1.0),
            Value::Float(4.0),
            Value::Null,
            Value::Float(-2.0),
        ] {
            t.push_row(vec![v]).unwrap();
        }
        t
    }

    #[test]
    fn count_counts_rows_including_nulls() {
        let t = table();
        assert_eq!(aggregate(&t, AggFunc::Count, "x").unwrap(), Value::Int(4));
    }

    #[test]
    fn sum_skips_nulls() {
        let t = table();
        assert_eq!(aggregate(&t, AggFunc::Sum, "x").unwrap(), Value::Float(3.0));
    }

    #[test]
    fn avg_divides_by_non_null_count() {
        let t = table();
        assert_eq!(aggregate(&t, AggFunc::Avg, "x").unwrap(), Value::Float(1.0));
    }

    #[test]
    fn min_max() {
        let t = table();
        assert_eq!(
            aggregate(&t, AggFunc::Min, "x").unwrap(),
            Value::Float(-2.0)
        );
        assert_eq!(aggregate(&t, AggFunc::Max, "x").unwrap(), Value::Float(4.0));
    }

    #[test]
    fn empty_and_all_null_inputs_yield_null() {
        let t = Table::new(Schema::from_pairs(&[("x", DataType::Float)]));
        assert_eq!(aggregate(&t, AggFunc::Sum, "x").unwrap(), Value::Null);
        assert_eq!(aggregate(&t, AggFunc::Avg, "x").unwrap(), Value::Null);
        assert_eq!(aggregate(&t, AggFunc::Count, "x").unwrap(), Value::Int(0));

        let mut nulls = Table::new(Schema::from_pairs(&[("x", DataType::Float)]));
        nulls.push_row(vec![Value::Null]).unwrap();
        assert_eq!(aggregate(&nulls, AggFunc::Min, "x").unwrap(), Value::Null);
    }

    #[test]
    fn accumulator_counts_non_null_separately() {
        let mut acc = NumericAccumulator::new();
        acc.push(Some(2.0));
        acc.push(None);
        assert_eq!(acc.count(), 2);
        assert_eq!(acc.count_non_null(), 1);
        assert_eq!(acc.avg(), Some(2.0));
    }

    #[test]
    fn keyword_round_trip() {
        for f in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            assert_eq!(AggFunc::from_keyword(f.keyword()), Some(f));
        }
        assert_eq!(AggFunc::from_keyword("median"), None);
        assert_eq!(AggFunc::from_keyword("sum"), Some(AggFunc::Sum));
    }
}
