//! `galaxy-refine-100k`: packages of a quarter to half the table, so
//! SKETCHREFINE refines a hundred groups and more per query. The only
//! workload on which parallel REFINE waves, `paq-exec` and per-group
//! translation carry the time; `tpch-scan-1m` refines a handful of
//! groups and bypasses them.

use paq_datagen::galaxy_table;
use paq_db::Route;
use paq_relational::agg::{aggregate, AggFunc};
use paq_relational::Table;

use crate::common::{db_config, nproc, Params, Query, Report, DATA_SEED};
use crate::layers;
use crate::workloads::InProc;

const ROWS: usize = 100_000;
const GROUPS: usize = 256;

fn mean(table: &Table, attr: &str) -> f64 {
    aggregate(table, AggFunc::Avg, attr)
        .and_then(|v| v.as_f64())
        .expect("numeric Galaxy attribute")
}

/// Five bulk queries (an odd mix, so that the median latency lies inside
/// one query's cluster); B3 and B4 pin a SUM into a window, so a group
/// committed in one wave moves the bounds of the groups solved beside it
/// and REFINE re-queues them.
fn queries(table: &Table) -> Vec<Query> {
    let n = table.num_rows();
    let nf = n as f64;
    let select = "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 SUCH THAT";
    vec![
        Query::new(
            "B1",
            format!("{select} COUNT(P.*) = {} MAXIMIZE SUM(P.petror90_r)", n / 4),
        ),
        Query::new(
            "B2",
            format!(
                "{select} COUNT(P.*) = {} AND SUM(P.redshift) <= {:.6} \
                 MAXIMIZE SUM(P.petror90_r)",
                n / 3,
                nf / 3.0 * mean(table, "redshift")
            ),
        ),
        Query::new(
            "B3",
            format!(
                "{select} COUNT(P.*) = {} AND SUM(P.r) BETWEEN {:.6} AND {:.6} \
                 MINIMIZE SUM(P.extinction_r)",
                n / 2,
                nf / 2.0 * mean(table, "r") * 0.99,
                nf / 2.0 * mean(table, "r") * 1.01
            ),
        ),
        Query::new(
            "B4",
            format!(
                "{select} COUNT(P.*) = {} AND SUM(P.u) BETWEEN {:.6} AND {:.6} \
                 MAXIMIZE SUM(P.petror90_r)",
                n / 3,
                nf / 3.0 * mean(table, "u") * 0.99,
                nf / 3.0 * mean(table, "u") * 1.01
            ),
        ),
        Query::new(
            "B5",
            format!(
                "{select} COUNT(P.*) = {} AND SUM(P.redshift) <= {:.6} \
                 MINIMIZE SUM(P.extinction_r)",
                n / 4,
                nf / 4.0 * mean(table, "redshift")
            ),
        ),
    ]
}

pub fn spec(params: &Params) -> InProc {
    let table = galaxy_table(params.rows(ROWS), DATA_SEED);
    let queries = queries(&table);
    InProc {
        relation: "Galaxy",
        table,
        queries,
        route: Route::ForceSketchRefine,
        config: db_config(params.groups(GROUPS), nproc().min(4)),
    }
}

pub fn run(params: &Params) -> Report {
    let mut report = Report::default();
    let spec = spec(params);
    report.notes.push(format!(
        "REFINE threads {} (nproc {})",
        spec.config.sketchrefine.threads,
        nproc()
    ));
    let warm = spec.run(params, &mut report);
    if params.trace {
        layers::measure("galaxy-refine-100k", &spec, &warm, params, &mut report);
    }
    report
}
