//! `tpch-scan-1m`: pre-joined TPC-H with the §5.1 NULLs, SKETCHREFINE
//! in process. Every query's WHERE clause walks all rows one at a time,
//! which costs tens of milliseconds against a solver that needs one or
//! two: the workload on which scan kernels must show and solver work
//! must not.

use paq_datagen::{tpch_table, tpch_workload};
use paq_db::Route;
use paq_relational::Table;

use crate::common::{db_config, Params, Query, Report, DATA_SEED};
use crate::layers;
use crate::workloads::InProc;

const ROWS: usize = 1_000_000;
const GROUPS: usize = 100;

/// Shares of all rows the range predicates keep. With the three paper
/// queries that makes seven: an odd mix, so that the median latency lies
/// inside one query's cluster and not between two.
const SELECTIVITIES: [(&str, f64); 4] =
    [("R01", 0.01), ("R10", 0.10), ("R25", 0.25), ("R50", 0.50)];

/// A package query over the rows with `availqty <= cut`, where `cut` is
/// the quantile of the column that keeps `share` of all rows, and the
/// SUM window sits around ten times the mean of the kept values.
fn range_query(name: &str, table: &Table, sorted_availqty: &[f64], share: f64) -> Query {
    let keep = ((share * table.num_rows() as f64) as usize).clamp(10, sorted_availqty.len());
    let kept = &sorted_availqty[..keep];
    let cut = kept[keep - 1];
    let mean = kept.iter().sum::<f64>() / keep as f64;
    Query::new(
        name,
        format!(
            "SELECT PACKAGE(T) AS P FROM Tpch T REPEAT 0 \
             WHERE T.availqty IS NOT NULL AND T.supplycost IS NOT NULL AND T.availqty <= {cut:.6} \
             SUCH THAT COUNT(P.*) = 10 \
             AND SUM(P.availqty) BETWEEN {:.6} AND {:.6} \
             MINIMIZE SUM(P.supplycost)",
            10.0 * mean * 0.9,
            10.0 * mean * 1.1
        ),
    )
}

pub fn spec(params: &Params) -> InProc {
    let table = tpch_table(params.rows(ROWS), DATA_SEED);
    // Paper Q2/Q5/Q6 (the TPC-H queries that do not run into the solver
    // limit) on their non-NULL subsets: 34 %, 1.4 % and 67 % of the rows.
    let mut queries: Vec<Query> = tpch_workload(&table)
        .expect("TPC-H workload")
        .into_iter()
        .filter(|q| ["Q2", "Q5", "Q6"].contains(&q.name.as_str()))
        .map(|q| {
            let guarded = q.with_non_null_guards();
            Query::new(guarded.name, guarded.text)
        })
        .collect();
    let column = table.column("availqty").expect("availqty column");
    let mut availqty: Vec<f64> = (0..table.num_rows())
        .filter_map(|i| column.f64_at(i))
        .collect();
    availqty.sort_by(f64::total_cmp);
    for (name, share) in SELECTIVITIES {
        queries.push(range_query(name, &table, &availqty, share));
    }
    InProc {
        relation: "Tpch",
        table,
        queries,
        route: Route::ForceSketchRefine,
        config: db_config(params.groups(GROUPS), 1),
    }
}

pub fn run(params: &Params) -> Report {
    let mut report = Report::default();
    let spec = spec(params);
    let warm = spec.run(params, &mut report);
    if params.trace {
        layers::measure("tpch-scan-1m", &spec, &warm, params, &mut report);
    }
    report
}
