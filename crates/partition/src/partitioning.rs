//! The flat partitioning artifact used at query time.

use std::time::Duration;

use paq_relational::schema::{ColumnDef, DataType, Schema};
use paq_relational::{RelError, RelResult, Table, Value};

/// The reserved name of the group-id column in representative
/// relations, matching the paper's `R̃(gid, attr₁, …, attr_k)`.
pub const GID_COLUMN: &str = "gid";

/// One partition group `G_j` with its representative tuple `t̃_j`.
#[derive(Debug, Clone)]
pub struct Group {
    /// Group id.
    pub gid: i64,
    /// Row indices (into the partitioned table) belonging to the group.
    pub rows: Vec<usize>,
    /// Centroid coordinates, parallel to the partitioning attributes.
    pub representative: Vec<f64>,
    /// Group radius (Definition 2).
    pub radius: f64,
}

impl Group {
    /// Group size `|G_j|`.
    pub fn size(&self) -> usize {
        self.rows.len()
    }
}

/// A complete partitioning `P = {(G_j, t̃_j)}` of a table.
#[derive(Debug, Clone)]
pub struct Partitioning {
    /// The partitioning attributes `A`.
    pub attributes: Vec<String>,
    /// All groups, in creation order. Row indices across groups form a
    /// disjoint cover of the partitioned table.
    pub groups: Vec<Group>,
    /// Wall-clock time spent building the partitioning (the paper's
    /// Figure 4 metric).
    pub build_time: Duration,
}

impl Partitioning {
    /// Number of groups `m`.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Total number of partitioned rows.
    pub fn num_rows(&self) -> usize {
        self.groups.iter().map(Group::size).sum()
    }

    /// Size of the largest group (must be ≤ τ).
    pub fn max_group_size(&self) -> usize {
        self.groups.iter().map(Group::size).max().unwrap_or(0)
    }

    /// Largest group radius (must be ≤ ω when a radius limit was set).
    pub fn max_radius(&self) -> f64 {
        self.groups.iter().map(|g| g.radius).fold(0.0, f64::max)
    }

    /// Build the representative relation `R̃(gid, attr₁, …)` (§4.1).
    ///
    /// `extra_attributes` lists numeric attributes *beyond* the
    /// partitioning attributes that must be materialized (as group
    /// means) because a query references them — this is what makes
    /// partitionings with coverage < 1 usable (§5.2.3).
    pub fn representative_table(
        &self,
        table: &Table,
        extra_attributes: &[String],
    ) -> RelResult<Table> {
        let mut attrs: Vec<String> = self.attributes.clone();
        for a in extra_attributes {
            if !attrs.contains(a) {
                attrs.push(a.clone());
            }
        }
        let mut cols = vec![ColumnDef::new(GID_COLUMN, DataType::Int)];
        for a in &attrs {
            let def = table.schema().column(a)?;
            if !def.ty.is_numeric() {
                return Err(RelError::TypeMismatch {
                    expected: "numeric attribute".into(),
                    found: format!("{a} ({})", def.ty),
                });
            }
            cols.push(ColumnDef::new(a.clone(), DataType::Float));
        }
        let schema = Schema::new(cols);
        let mut out = Table::with_capacity(schema, self.groups.len());

        // Cache columns once.
        let columns: Vec<&paq_relational::Column> = attrs
            .iter()
            .map(|a| table.column(a))
            .collect::<RelResult<_>>()?;
        for g in &self.groups {
            let mut row: Vec<Value> = Vec::with_capacity(attrs.len() + 1);
            row.push(Value::Int(g.gid));
            for (ai, col) in columns.iter().enumerate() {
                // Partitioning attributes may reuse the stored centroid;
                // extras are computed as the group mean on demand.
                let value = if ai < self.attributes.len() {
                    g.representative[ai]
                } else {
                    let mut sum = 0.0;
                    let mut cnt = 0usize;
                    for &r in &g.rows {
                        if let Some(v) = col.f64_at(r) {
                            sum += v;
                            cnt += 1;
                        }
                    }
                    if cnt == 0 {
                        0.0
                    } else {
                        sum / cnt as f64
                    }
                };
                row.push(Value::Float(value));
            }
            out.push_row(row)?;
        }
        Ok(out)
    }

    /// Restrict the partitioning to the rows flagged in `keep`
    /// (indexed by row id), renumbering rows by their new positions.
    ///
    /// This is the paper's method for deriving smaller datasets from one
    /// offline partitioning: "randomly removing tuples from the original
    /// partitions … is guaranteed to maintain the size condition"
    /// (§5.2.1). Representatives and radii are recomputed over the
    /// surviving rows; empty groups are dropped.
    pub fn restrict(&self, table: &Table, keep: &[bool]) -> RelResult<Partitioning> {
        assert_eq!(
            keep.len(),
            table.num_rows(),
            "keep mask must cover the table"
        );
        // New index of every kept row.
        let mut new_index = vec![usize::MAX; keep.len()];
        let mut next = 0usize;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                new_index[i] = next;
                next += 1;
            }
        }
        let columns: Vec<&paq_relational::Column> = self
            .attributes
            .iter()
            .map(|a| table.column(a))
            .collect::<RelResult<_>>()?;

        let mut groups = Vec::new();
        for g in &self.groups {
            let survivors: Vec<usize> = g.rows.iter().copied().filter(|&r| keep[r]).collect();
            if survivors.is_empty() {
                continue;
            }
            let (representative, radius) = centroid_and_radius(&columns, &survivors);
            groups.push(Group {
                gid: g.gid,
                rows: survivors.iter().map(|&r| new_index[r]).collect(),
                representative,
                radius,
            });
        }
        Ok(Partitioning {
            attributes: self.attributes.clone(),
            groups,
            build_time: Duration::ZERO,
        })
    }

    /// Group lookup by gid.
    pub fn group(&self, gid: i64) -> Option<&Group> {
        self.groups.iter().find(|g| g.gid == gid)
    }

    /// Merge groups pairwise (in creation order, which the quad-tree
    /// makes spatially adjacent), recomputing representatives and radii
    /// over `table`. Halves the number of groups; iterating reduces the
    /// partitioning toward a single group — §4.4's *iterative group
    /// merging* fallback for false infeasibility (strategy 4), whose
    /// limit is the unpartitioned (DIRECT) problem.
    pub fn merged_pairwise(&self, table: &Table) -> RelResult<Partitioning> {
        let columns: Vec<&paq_relational::Column> = self
            .attributes
            .iter()
            .map(|a| table.column(a))
            .collect::<RelResult<_>>()?;
        let mut groups = Vec::with_capacity(self.groups.len().div_ceil(2));
        for pair in self.groups.chunks(2) {
            let mut rows: Vec<usize> = pair.iter().flat_map(|g| g.rows.clone()).collect();
            rows.sort_unstable();
            let (representative, radius) = centroid_and_radius(&columns, &rows);
            groups.push(Group {
                gid: groups.len() as i64 + 1,
                rows,
                representative,
                radius,
            });
        }
        Ok(Partitioning {
            attributes: self.attributes.clone(),
            groups,
            build_time: Duration::ZERO,
        })
    }

    /// Absorb one appended row into the partitioning in place: route
    /// the row to the group whose representative is nearest (Euclidean
    /// distance over the partitioning attributes; NULL dimensions are
    /// treated as lying on the representative; ties break toward the
    /// earlier group in creation order) and recompute that group's
    /// centroid and radius exactly over its extended row set.
    ///
    /// `row` must be a row index of `table` not yet covered by any
    /// group — the caller appends rows in order, so after the patch the
    /// partitioning is a disjoint cover of `row + 1` rows again. The
    /// routing and the stats recompute are pure functions of the group
    /// state and the table columns, so applying the same append
    /// sequence to the same starting partitioning — live, on a cache
    /// entry, or during WAL replay — yields bit-identical groups.
    ///
    /// The size condition (≤ τ) is deliberately allowed to drift: the
    /// caller bounds the drift with its delta threshold and rebuilds
    /// past it.
    pub fn patch_append(&mut self, table: &Table, row: usize) -> RelResult<()> {
        let columns: Vec<&paq_relational::Column> = self
            .attributes
            .iter()
            .map(|a| table.column(a))
            .collect::<RelResult<_>>()?;
        if row >= table.num_rows() {
            return Err(RelError::Invalid(format!(
                "patch_append row {row} out of bounds ({} rows)",
                table.num_rows()
            )));
        }
        let mut best: Option<(usize, f64)> = None;
        for (gi, g) in self.groups.iter().enumerate() {
            let mut dist = 0.0_f64;
            for (ai, col) in columns.iter().enumerate() {
                let rep = g.representative.get(ai).copied().unwrap_or(0.0);
                let d = col.f64_at(row).map(|v| v - rep).unwrap_or(0.0);
                dist += d * d;
            }
            // Strict `<`: equal distances keep the earlier group.
            if best.map(|(_, b)| dist < b).unwrap_or(true) {
                best = Some((gi, dist));
            }
        }
        let (gi, _) = best.ok_or_else(|| {
            RelError::Invalid("cannot patch an empty partitioning (no groups)".into())
        })?;
        let group = &mut self.groups[gi];
        group.rows.push(row);
        let (representative, radius) = centroid_and_radius(&columns, &group.rows);
        group.representative = representative;
        group.radius = radius;
        Ok(())
    }

    /// Internal validity check used by tests and debug assertions:
    /// every row appears in exactly one group.
    pub fn is_disjoint_cover(&self, num_rows: usize) -> bool {
        let mut seen = vec![false; num_rows];
        for g in &self.groups {
            for &r in &g.rows {
                if r >= num_rows || seen[r] {
                    return false;
                }
                seen[r] = true;
            }
        }
        seen.into_iter().all(|s| s)
    }
}

/// Compute centroid coordinates and radius for a row set over cached
/// attribute columns (NULLs skipped, as SQL aggregates do).
pub(crate) fn centroid_and_radius(
    columns: &[&paq_relational::Column],
    rows: &[usize],
) -> (Vec<f64>, f64) {
    let mut centroid = Vec::with_capacity(columns.len());
    let mut radius = 0.0_f64;
    for col in columns {
        let mut sum = 0.0;
        let mut cnt = 0usize;
        for &r in rows {
            if let Some(v) = col.f64_at(r) {
                sum += v;
                cnt += 1;
            }
        }
        let mean = if cnt == 0 { 0.0 } else { sum / cnt as f64 };
        for &r in rows {
            if let Some(v) = col.f64_at(r) {
                radius = radius.max((v - mean).abs());
            }
        }
        centroid.push(mean);
    }
    (centroid, radius)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paq_relational::{DataType, Schema};

    fn table() -> Table {
        let mut t = Table::new(Schema::from_pairs(&[
            ("x", DataType::Float),
            ("y", DataType::Float),
        ]));
        for (x, y) in [(0.0, 0.0), (2.0, 2.0), (10.0, 10.0), (12.0, 12.0)] {
            t.push_row(vec![Value::Float(x), Value::Float(y)]).unwrap();
        }
        t
    }

    fn partitioning() -> Partitioning {
        Partitioning {
            attributes: vec!["x".into(), "y".into()],
            groups: vec![
                Group {
                    gid: 1,
                    rows: vec![0, 1],
                    representative: vec![1.0, 1.0],
                    radius: 1.0,
                },
                Group {
                    gid: 2,
                    rows: vec![2, 3],
                    representative: vec![11.0, 11.0],
                    radius: 1.0,
                },
            ],
            build_time: Duration::ZERO,
        }
    }

    #[test]
    fn aggregates_over_groups() {
        let p = partitioning();
        assert_eq!(p.num_groups(), 2);
        assert_eq!(p.num_rows(), 4);
        assert_eq!(p.max_group_size(), 2);
        assert_eq!(p.max_radius(), 1.0);
        assert!(p.is_disjoint_cover(4));
    }

    #[test]
    fn representative_table_has_gid_and_centroids() {
        let t = table();
        let p = partitioning();
        let r = p.representative_table(&t, &[]).unwrap();
        assert_eq!(r.schema().names(), vec![GID_COLUMN, "x", "y"]);
        assert_eq!(r.num_rows(), 2);
        assert_eq!(r.value(0, "x").unwrap(), Value::Float(1.0));
        assert_eq!(r.value(1, "y").unwrap(), Value::Float(11.0));
    }

    #[test]
    fn extra_attributes_materialize_group_means() {
        let mut t = table();
        t.add_column(
            ColumnDef::new("z", DataType::Float),
            vec![
                Value::Float(1.0),
                Value::Float(3.0),
                Value::Float(10.0),
                Value::Null,
            ],
        )
        .unwrap();
        let p = partitioning();
        let r = p.representative_table(&t, &["z".into()]).unwrap();
        assert_eq!(r.value(0, "z").unwrap(), Value::Float(2.0));
        // Group 2's z mean skips the NULL.
        assert_eq!(r.value(1, "z").unwrap(), Value::Float(10.0));
    }

    #[test]
    fn restrict_drops_rows_and_renumbers() {
        let t = table();
        let p = partitioning();
        // Drop rows 1 and 2.
        let keep = vec![true, false, false, true];
        let r = p.restrict(&t, &keep).unwrap();
        assert_eq!(r.num_groups(), 2);
        assert_eq!(r.groups[0].rows, vec![0]);
        assert_eq!(r.groups[1].rows, vec![1]);
        // Singleton groups have zero radius and exact centroids.
        assert_eq!(r.groups[0].radius, 0.0);
        assert_eq!(r.groups[0].representative, vec![0.0, 0.0]);
        assert_eq!(r.groups[1].representative, vec![12.0, 12.0]);
        assert!(r.is_disjoint_cover(2));
    }

    #[test]
    fn restrict_drops_empty_groups() {
        let t = table();
        let p = partitioning();
        let keep = vec![true, true, false, false];
        let r = p.restrict(&t, &keep).unwrap();
        assert_eq!(r.num_groups(), 1);
        assert_eq!(r.groups[0].gid, 1);
    }

    #[test]
    fn restrict_never_grows_groups() {
        // The size condition is maintained under restriction (§5.2.1).
        let t = table();
        let p = partitioning();
        let keep = vec![true, true, true, false];
        let r = p.restrict(&t, &keep).unwrap();
        assert!(r.max_group_size() <= p.max_group_size());
    }

    #[test]
    fn disjoint_cover_detects_overlap_and_gaps() {
        let mut p = partitioning();
        assert!(p.is_disjoint_cover(4));
        p.groups[1].rows = vec![1, 3]; // row 1 duplicated, row 2 missing
        assert!(!p.is_disjoint_cover(4));
    }

    #[test]
    fn merged_pairwise_halves_groups_and_recomputes() {
        let t = table();
        let p = partitioning();
        let merged = p.merged_pairwise(&t).unwrap();
        assert_eq!(merged.num_groups(), 1);
        assert_eq!(merged.groups[0].rows, vec![0, 1, 2, 3]);
        assert_eq!(merged.groups[0].representative, vec![6.0, 6.0]);
        assert_eq!(merged.groups[0].radius, 6.0);
        assert!(merged.is_disjoint_cover(4));
        // Merging a single group is a fixed point.
        let again = merged.merged_pairwise(&t).unwrap();
        assert_eq!(again.num_groups(), 1);
    }

    #[test]
    fn merged_pairwise_odd_group_count() {
        let t = table();
        let mut p = partitioning();
        p.groups.push(Group {
            gid: 3,
            rows: vec![],
            representative: vec![0.0, 0.0],
            radius: 0.0,
        });
        // 3 groups → 2 (pair + lone straggler).
        let merged = p.merged_pairwise(&t).unwrap();
        assert_eq!(merged.num_groups(), 2);
    }

    #[test]
    fn patch_append_routes_to_nearest_group_and_recomputes_stats() {
        let mut t = table();
        let mut p = partitioning();
        // (11.5, 12.5) is nearest group 2's representative (11, 11).
        t.push_row(vec![Value::Float(11.5), Value::Float(12.5)])
            .unwrap();
        p.patch_append(&t, 4).unwrap();
        assert_eq!(p.groups[1].rows, vec![2, 3, 4]);
        assert!(p.is_disjoint_cover(5));
        // Exact recompute over {10, 12, 11.5} and {10, 12, 12.5}.
        let rep = &p.groups[1].representative;
        assert!((rep[0] - 33.5 / 3.0).abs() < 1e-12);
        assert!((rep[1] - 34.5 / 3.0).abs() < 1e-12);
        // Group 1 untouched.
        assert_eq!(p.groups[0].rows, vec![0, 1]);
        assert_eq!(p.groups[0].representative, vec![1.0, 1.0]);
    }

    #[test]
    fn patch_append_is_deterministic_under_replayed_sequences() {
        let mut t1 = table();
        let mut t2 = table();
        let mut p1 = partitioning();
        let mut p2 = partitioning();
        for (i, (x, y)) in [(0.5, 0.25), (11.0, 9.5), (3.0, 3.0), (6.0, 6.0)]
            .into_iter()
            .enumerate()
        {
            t1.push_row(vec![Value::Float(x), Value::Float(y)]).unwrap();
            p1.patch_append(&t1, 4 + i).unwrap();
        }
        for (i, (x, y)) in [(0.5, 0.25), (11.0, 9.5), (3.0, 3.0), (6.0, 6.0)]
            .into_iter()
            .enumerate()
        {
            t2.push_row(vec![Value::Float(x), Value::Float(y)]).unwrap();
            p2.patch_append(&t2, 4 + i).unwrap();
        }
        for (a, b) in p1.groups.iter().zip(&p2.groups) {
            assert_eq!(a.rows, b.rows);
            // Bit-identical floats, not approximately equal.
            assert_eq!(
                a.representative
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                b.representative
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            );
            assert_eq!(a.radius.to_bits(), b.radius.to_bits());
        }
    }

    #[test]
    fn patch_append_null_dims_sit_on_the_representative() {
        let mut t = table();
        let mut p = partitioning();
        t.push_row(vec![Value::Null, Value::Float(1.5)]).unwrap();
        // Only y participates: |1.5 - 1| < |1.5 - 11| ⇒ group 1.
        p.patch_append(&t, 4).unwrap();
        assert_eq!(p.groups[0].rows, vec![0, 1, 4]);
    }

    #[test]
    fn patch_append_rejects_empty_partitioning_and_bad_rows() {
        let t = table();
        let mut empty = Partitioning {
            attributes: vec!["x".into(), "y".into()],
            groups: vec![],
            build_time: Duration::ZERO,
        };
        assert!(empty.patch_append(&t, 0).is_err());
        let mut p = partitioning();
        assert!(p.patch_append(&t, 99).is_err());
    }

    #[test]
    fn centroid_and_radius_basics() {
        let t = table();
        let cols = vec![t.column("x").unwrap(), t.column("y").unwrap()];
        let (c, r) = centroid_and_radius(&cols, &[0, 1, 2, 3]);
        assert_eq!(c, vec![6.0, 6.0]);
        assert_eq!(r, 6.0);
    }
}
