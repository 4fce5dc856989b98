//! Columnar in-memory tables.
//!
//! A [`Table`] stores rows column-wise with per-column null masks. The
//! package-query workloads are scan-heavy (base-predicate filters,
//! aggregate pricing over every tuple, group-by for partitioning), so
//! columnar layout keeps those scans cache-friendly.

use crate::error::{RelError, RelResult};
use crate::expr::Expr;
use crate::schema::{ColumnDef, DataType, Schema};
use crate::value::Value;

/// A single typed column with a null mask.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer column: `data[i]` is meaningful iff `!nulls[i]`.
    Int {
        /// Cell values (masked entries hold 0).
        data: Vec<i64>,
        /// Null mask, parallel to `data`.
        nulls: Vec<bool>,
    },
    /// Float column.
    Float {
        /// Cell values (masked entries hold 0.0).
        data: Vec<f64>,
        /// Null mask, parallel to `data`.
        nulls: Vec<bool>,
    },
    /// Boolean column.
    Bool {
        /// Cell values (masked entries hold `false`).
        data: Vec<bool>,
        /// Null mask, parallel to `data`.
        nulls: Vec<bool>,
    },
    /// String column.
    Str {
        /// Cell values (masked entries hold `""`).
        data: Vec<String>,
        /// Null mask, parallel to `data`.
        nulls: Vec<bool>,
    },
}

impl Column {
    /// An empty column of the given type.
    pub fn new(ty: DataType) -> Self {
        match ty {
            DataType::Int => Column::Int {
                data: vec![],
                nulls: vec![],
            },
            DataType::Float => Column::Float {
                data: vec![],
                nulls: vec![],
            },
            DataType::Bool => Column::Bool {
                data: vec![],
                nulls: vec![],
            },
            DataType::Str => Column::Str {
                data: vec![],
                nulls: vec![],
            },
        }
    }

    /// An empty column with reserved capacity.
    pub fn with_capacity(ty: DataType, cap: usize) -> Self {
        match ty {
            DataType::Int => Column::Int {
                data: Vec::with_capacity(cap),
                nulls: Vec::with_capacity(cap),
            },
            DataType::Float => Column::Float {
                data: Vec::with_capacity(cap),
                nulls: Vec::with_capacity(cap),
            },
            DataType::Bool => Column::Bool {
                data: Vec::with_capacity(cap),
                nulls: Vec::with_capacity(cap),
            },
            DataType::Str => Column::Str {
                data: Vec::with_capacity(cap),
                nulls: Vec::with_capacity(cap),
            },
        }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int { .. } => DataType::Int,
            Column::Float { .. } => DataType::Float,
            Column::Bool { .. } => DataType::Bool,
            Column::Str { .. } => DataType::Str,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.nulls().len()
    }

    /// The null mask, one entry per row.
    pub fn nulls(&self) -> &[bool] {
        match self {
            Column::Int { nulls, .. }
            | Column::Float { nulls, .. }
            | Column::Bool { nulls, .. }
            | Column::Str { nulls, .. } => nulls,
        }
    }

    /// `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a value; `Int` values coerce into `Float` columns.
    pub fn push(&mut self, v: Value) -> RelResult<()> {
        match (self, v) {
            (Column::Int { data, nulls }, Value::Int(i)) => {
                data.push(i);
                nulls.push(false);
            }
            (Column::Int { data, nulls }, Value::Null) => {
                data.push(0);
                nulls.push(true);
            }
            (Column::Float { data, nulls }, Value::Float(f)) => {
                data.push(f);
                nulls.push(false);
            }
            (Column::Float { data, nulls }, Value::Int(i)) => {
                data.push(i as f64);
                nulls.push(false);
            }
            (Column::Float { data, nulls }, Value::Null) => {
                // 0.0 (not NaN) so that structural equality over the
                // backing storage still holds for masked cells.
                data.push(0.0);
                nulls.push(true);
            }
            (Column::Bool { data, nulls }, Value::Bool(b)) => {
                data.push(b);
                nulls.push(false);
            }
            (Column::Bool { data, nulls }, Value::Null) => {
                data.push(false);
                nulls.push(true);
            }
            (Column::Str { data, nulls }, Value::Str(s)) => {
                data.push(s);
                nulls.push(false);
            }
            (Column::Str { data, nulls }, Value::Null) => {
                data.push(String::new());
                nulls.push(true);
            }
            (col, v) => {
                return Err(RelError::TypeMismatch {
                    expected: col.data_type().to_string(),
                    found: v.type_name().into(),
                })
            }
        }
        Ok(())
    }

    /// The value at row `i` (panics if out of bounds, like slice indexing).
    pub fn get(&self, i: usize) -> Value {
        match self {
            Column::Int { data, nulls } => {
                if nulls[i] {
                    Value::Null
                } else {
                    Value::Int(data[i])
                }
            }
            Column::Float { data, nulls } => {
                if nulls[i] {
                    Value::Null
                } else {
                    Value::Float(data[i])
                }
            }
            Column::Bool { data, nulls } => {
                if nulls[i] {
                    Value::Null
                } else {
                    Value::Bool(data[i])
                }
            }
            Column::Str { data, nulls } => {
                if nulls[i] {
                    Value::Null
                } else {
                    Value::Str(data[i].clone())
                }
            }
        }
    }

    /// Fast numeric accessor: `Some(x)` for non-null numeric cells.
    ///
    /// Used on the hot path when building ILP coefficient vectors over
    /// millions of tuples; avoids materializing [`Value`]s.
    #[inline]
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        match self {
            Column::Int { data, nulls } => (!nulls[i]).then(|| data[i] as f64),
            Column::Float { data, nulls } => (!nulls[i]).then(|| data[i]),
            Column::Bool { data, nulls } => (!nulls[i]).then(|| f64::from(data[i])),
            Column::Str { .. } => None,
        }
    }

    /// `true` if row `i` is NULL.
    #[inline]
    pub fn is_null_at(&self, i: usize) -> bool {
        self.nulls()[i]
    }

    /// A new column containing the rows at `indices`, in order
    /// (duplicates allowed — packages are multisets).
    pub fn take(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int { data, nulls } => Column::Int {
                data: indices.iter().map(|&i| data[i]).collect(),
                nulls: indices.iter().map(|&i| nulls[i]).collect(),
            },
            Column::Float { data, nulls } => Column::Float {
                data: indices.iter().map(|&i| data[i]).collect(),
                nulls: indices.iter().map(|&i| nulls[i]).collect(),
            },
            Column::Bool { data, nulls } => Column::Bool {
                data: indices.iter().map(|&i| data[i]).collect(),
                nulls: indices.iter().map(|&i| nulls[i]).collect(),
            },
            Column::Str { data, nulls } => Column::Str {
                data: indices.iter().map(|&i| data[i].clone()).collect(),
                nulls: indices.iter().map(|&i| nulls[i]).collect(),
            },
        }
    }

    /// A borrowed, typed view over the contiguous row range
    /// `start .. start + len` of this column — the zero-copy unit a
    /// columnar wire encoder or storage layer works in. Panics when the
    /// range exceeds the column (caller bug, like slicing).
    pub fn chunk(&self, start: usize, len: usize) -> ColumnChunk<'_> {
        let end = start + len;
        match self {
            Column::Int { data, nulls } => ColumnChunk::Int {
                values: &data[start..end],
                nulls: &nulls[start..end],
            },
            Column::Float { data, nulls } => ColumnChunk::Float {
                values: &data[start..end],
                nulls: &nulls[start..end],
            },
            Column::Bool { data, nulls } => ColumnChunk::Bool {
                values: &data[start..end],
                nulls: &nulls[start..end],
            },
            Column::Str { data, nulls } => ColumnChunk::Str {
                values: &data[start..end],
                nulls: &nulls[start..end],
            },
        }
    }

    /// Iterate the column as [`ColumnChunk`] views of at most
    /// `chunk_rows` rows each (the final chunk may be shorter).
    /// Panics when `chunk_rows` is zero.
    pub fn chunks(&self, chunk_rows: usize) -> impl Iterator<Item = ColumnChunk<'_>> {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        let total = self.len();
        (0..total)
            .step_by(chunk_rows)
            .map(move |start| self.chunk(start, chunk_rows.min(total - start)))
    }
}

/// A borrowed slice of one [`Column`]: typed values plus the parallel
/// null mask for a contiguous row range. Masked slots hold the type's
/// default (`0`, `0.0`, `false`, `""`), mirroring the owning column's
/// invariant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColumnChunk<'a> {
    /// Integer rows.
    Int {
        /// Cell values (masked entries hold 0).
        values: &'a [i64],
        /// Null mask, parallel to `values`.
        nulls: &'a [bool],
    },
    /// Float rows.
    Float {
        /// Cell values (masked entries hold 0.0).
        values: &'a [f64],
        /// Null mask, parallel to `values`.
        nulls: &'a [bool],
    },
    /// Boolean rows.
    Bool {
        /// Cell values (masked entries hold `false`).
        values: &'a [bool],
        /// Null mask, parallel to `values`.
        nulls: &'a [bool],
    },
    /// String rows.
    Str {
        /// Cell values (masked entries hold `""`).
        values: &'a [String],
        /// Null mask, parallel to `values`.
        nulls: &'a [bool],
    },
}

impl ColumnChunk<'_> {
    /// Rows in this chunk.
    pub fn len(&self) -> usize {
        self.nulls().len()
    }

    /// `true` when the chunk covers no rows.
    pub fn is_empty(&self) -> bool {
        self.nulls().is_empty()
    }

    /// The null mask for the covered rows.
    pub fn nulls(&self) -> &[bool] {
        match self {
            ColumnChunk::Int { nulls, .. }
            | ColumnChunk::Float { nulls, .. }
            | ColumnChunk::Bool { nulls, .. }
            | ColumnChunk::Str { nulls, .. } => nulls,
        }
    }

    /// The chunk's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnChunk::Int { .. } => DataType::Int,
            ColumnChunk::Float { .. } => DataType::Float,
            ColumnChunk::Bool { .. } => DataType::Bool,
            ColumnChunk::Str { .. } => DataType::Str,
        }
    }
}

/// A columnar table: a [`Schema`] plus one [`Column`] per schema entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = schema.columns().iter().map(|c| Column::new(c.ty)).collect();
        Table {
            schema,
            columns,
            rows: 0,
        }
    }

    /// An empty table with reserved row capacity.
    pub fn with_capacity(schema: Schema, cap: usize) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| Column::with_capacity(c.ty, cap))
            .collect();
        Table {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Assemble a table directly from pre-built columns, validating
    /// that each column's type matches the schema and that all columns
    /// hold the same number of rows. This is the persistence seam: a
    /// storage layer that decodes columns from disk can rebuild a table
    /// without replaying row-by-row appends.
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> RelResult<Table> {
        if columns.len() != schema.arity() {
            return Err(RelError::ArityMismatch {
                expected: schema.arity(),
                found: columns.len(),
            });
        }
        for (def, col) in schema.columns().iter().zip(&columns) {
            if col.data_type() != def.ty {
                return Err(RelError::TypeMismatch {
                    expected: def.ty.to_string(),
                    found: col.data_type().to_string(),
                });
            }
        }
        let rows = columns.first().map_or(0, Column::len);
        if let Some(bad) = columns.iter().find(|c| c.len() != rows) {
            return Err(RelError::SchemaMismatch(format!(
                "ragged columns: expected {rows} rows, found a column with {}",
                bad.len()
            )));
        }
        Ok(Table {
            schema,
            columns,
            rows,
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append one row. The row must match the schema's arity and types.
    pub fn push_row(&mut self, row: Vec<Value>) -> RelResult<()> {
        if row.len() != self.schema.arity() {
            return Err(RelError::ArityMismatch {
                expected: self.schema.arity(),
                found: row.len(),
            });
        }
        // Validate all cells before mutating any column, so a failed
        // append leaves the table unchanged.
        for (def, v) in self.schema.columns().iter().zip(&row) {
            if !def.ty.admits(v) {
                return Err(RelError::TypeMismatch {
                    expected: def.ty.to_string(),
                    found: v.type_name().into(),
                });
            }
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v).expect("validated above");
        }
        self.rows += 1;
        Ok(())
    }

    /// The column at schema position `idx`.
    pub fn column_at(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// The column with the given name.
    pub fn column(&self, name: &str) -> RelResult<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// The cell at (`row`, column `name`).
    pub fn value(&self, row: usize, name: &str) -> RelResult<Value> {
        Ok(self.column(name)?.get(row))
    }

    /// An owned copy of row `i`.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Indices of rows satisfying `pred` (SQL semantics: NULL ⇒ not
    /// selected), ascending. `pred` is bound once and evaluated with
    /// [`Predicate::select`](crate::Predicate::select); an empty table
    /// selects nothing without binding.
    pub fn filter_indices(&self, pred: &Expr) -> RelResult<Vec<usize>> {
        if self.rows == 0 {
            return Ok(Vec::new());
        }
        Ok(pred.bind(&self.schema)?.select(self)?.iter().collect())
    }

    /// A new table containing only the rows satisfying `pred`.
    pub fn filter(&self, pred: &Expr) -> RelResult<Table> {
        Ok(self.take(&self.filter_indices(pred)?))
    }

    /// A new table containing the rows at `indices` (duplicates allowed,
    /// preserving order — this is how packages materialize).
    pub fn take(&self, indices: &[usize]) -> Table {
        Table {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
            rows: indices.len(),
        }
    }

    /// A new table with only the named columns.
    pub fn project(&self, names: &[&str]) -> RelResult<Table> {
        let schema = self.schema.project(names)?;
        let mut columns = Vec::with_capacity(names.len());
        for n in names {
            columns.push(self.column(n)?.clone());
        }
        Ok(Table {
            schema,
            columns,
            rows: self.rows,
        })
    }

    /// A new table that keeps only the first `n` rows.
    pub fn head(&self, n: usize) -> Table {
        let idx: Vec<usize> = (0..n.min(self.rows)).collect();
        self.take(&idx)
    }

    /// Extend this table with an extra column of values.
    pub fn add_column(&mut self, def: ColumnDef, values: Vec<Value>) -> RelResult<()> {
        if values.len() != self.rows {
            return Err(RelError::ArityMismatch {
                expected: self.rows,
                found: values.len(),
            });
        }
        let mut col = Column::with_capacity(def.ty, values.len());
        for v in values {
            col.push(v)?;
        }
        self.schema = self.schema.with_column(def)?;
        self.columns.push(col);
        Ok(())
    }

    /// Vertical concatenation: append all rows of `other` (schemas must
    /// be identical).
    pub fn append(&mut self, other: &Table) -> RelResult<()> {
        if self.schema != other.schema {
            return Err(RelError::SchemaMismatch(format!(
                "{} vs {}",
                self.schema, other.schema
            )));
        }
        for i in 0..other.rows {
            self.push_row(other.row(i))?;
        }
        Ok(())
    }

    /// Rows with a non-NULL value in *every* one of the named columns
    /// (how the paper extracts per-query TPC-H subsets, §5.1).
    pub fn non_null_indices(&self, names: &[&str]) -> RelResult<Vec<usize>> {
        let cols: Vec<&Column> = names
            .iter()
            .map(|n| self.column(n))
            .collect::<RelResult<_>>()?;
        let mut out = Vec::new();
        'rows: for i in 0..self.rows {
            for c in &cols {
                if c.is_null_at(i) {
                    continue 'rows;
                }
            }
            out.push(i);
        }
        Ok(out)
    }

    /// Render the first `limit` rows as an aligned text table (debugging
    /// and the example binaries).
    pub fn render(&self, limit: usize) -> String {
        let names = self.schema.names();
        let shown = limit.min(self.rows);
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(shown + 1);
        cells.push(names.iter().map(|s| s.to_string()).collect());
        for i in 0..shown {
            cells.push(self.row(i).iter().map(|v| v.to_string()).collect());
        }
        let widths: Vec<usize> = (0..names.len())
            .map(|c| cells.iter().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for (ri, row) in cells.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{:>width$}", cell, width = widths[c]));
            }
            out.push('\n');
            if ri == 0 {
                let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
                out.push_str(&"-".repeat(total));
                out.push('\n');
            }
        }
        if self.rows > shown {
            out.push_str(&format!("... ({} more rows)\n", self.rows - shown));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn recipes() -> Table {
        let schema = Schema::from_pairs(&[
            ("name", DataType::Str),
            ("kcal", DataType::Float),
            ("gluten", DataType::Str),
            ("sat_fat", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        let rows: Vec<(&str, f64, &str, f64)> = vec![
            ("oats", 0.4, "free", 1.0),
            ("bread", 0.7, "full", 3.0),
            ("salad", 0.2, "free", 0.5),
            ("steak", 0.9, "free", 6.0),
        ];
        for (n, k, g, s) in rows {
            t.push_row(vec![n.into(), k.into(), g.into(), s.into()])
                .unwrap();
        }
        t
    }

    #[test]
    fn push_and_get_round_trip() {
        let t = recipes();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.value(1, "name").unwrap(), Value::from("bread"));
        assert_eq!(t.value(3, "sat_fat").unwrap(), Value::Float(6.0));
    }

    #[test]
    fn arity_mismatch_rejected_atomically() {
        let mut t = recipes();
        assert!(t.push_row(vec![Value::from("x")]).is_err());
        // Type error in the *last* cell must not partially append.
        let err = t.push_row(vec![
            Value::from("x"),
            Value::Float(1.0),
            Value::from("free"),
            Value::from("oops"),
        ]);
        assert!(err.is_err());
        assert_eq!(t.num_rows(), 4);
        for c in 0..t.schema().arity() {
            assert_eq!(t.column_at(c).len(), 4);
        }
    }

    #[test]
    fn int_coerces_into_float_column() {
        let mut t = Table::new(Schema::from_pairs(&[("x", DataType::Float)]));
        t.push_row(vec![Value::Int(3)]).unwrap();
        assert_eq!(t.value(0, "x").unwrap(), Value::Float(3.0));
    }

    #[test]
    fn nulls_round_trip_every_type() {
        let schema = Schema::from_pairs(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("b", DataType::Bool),
            ("s", DataType::Str),
        ]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::Null, Value::Null, Value::Null, Value::Null])
            .unwrap();
        for name in ["i", "f", "b", "s"] {
            assert!(t.value(0, name).unwrap().is_null(), "column {name}");
            assert!(t.column(name).unwrap().is_null_at(0));
            assert_eq!(t.column(name).unwrap().f64_at(0), None);
        }
    }

    #[test]
    fn filter_with_predicate() {
        let t = recipes();
        let pred = Expr::col("gluten").eq(Expr::lit("free"));
        let free = t.filter(&pred).unwrap();
        assert_eq!(free.num_rows(), 3);
        assert_eq!(free.value(0, "name").unwrap(), Value::from("oats"));
    }

    #[test]
    fn take_allows_multiset_duplication() {
        let t = recipes();
        let p = t.take(&[2, 2, 0]);
        assert_eq!(p.num_rows(), 3);
        assert_eq!(p.value(0, "name").unwrap(), Value::from("salad"));
        assert_eq!(p.value(1, "name").unwrap(), Value::from("salad"));
        assert_eq!(p.value(2, "name").unwrap(), Value::from("oats"));
    }

    #[test]
    fn project_and_head() {
        let t = recipes().project(&["kcal", "name"]).unwrap();
        assert_eq!(t.schema().names(), vec!["kcal", "name"]);
        assert_eq!(t.head(2).num_rows(), 2);
        assert_eq!(t.head(99).num_rows(), 4);
    }

    #[test]
    fn add_column_appends_a_named_column() {
        let mut t = recipes();
        t.add_column(ColumnDef::new("gid", DataType::Int), vec![Value::Int(1); 4])
            .unwrap();
        assert_eq!(t.value(2, "gid").unwrap(), Value::Int(1));
    }

    #[test]
    fn append_requires_same_schema() {
        let mut a = recipes();
        let b = recipes();
        a.append(&b).unwrap();
        assert_eq!(a.num_rows(), 8);
        let other = Table::new(Schema::from_pairs(&[("x", DataType::Int)]));
        assert!(a.append(&other).is_err());
    }

    #[test]
    fn non_null_indices_drops_rows_with_nulls() {
        let schema = Schema::from_pairs(&[("a", DataType::Float), ("b", DataType::Float)]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::Float(1.0), Value::Null]).unwrap();
        t.push_row(vec![Value::Float(1.0), Value::Float(2.0)])
            .unwrap();
        t.push_row(vec![Value::Null, Value::Float(2.0)]).unwrap();
        assert_eq!(t.non_null_indices(&["a", "b"]).unwrap(), vec![1]);
        assert_eq!(t.non_null_indices(&["a"]).unwrap(), vec![0, 1]);
    }

    #[test]
    fn render_contains_header_and_rows() {
        let s = recipes().render(2);
        assert!(s.contains("name"));
        assert!(s.contains("oats"));
        assert!(s.contains("2 more rows"));
    }
}
