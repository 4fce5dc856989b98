//! Golden packages for the base-predicate (`WHERE`) mix of the
//! `tpch-scan-1m` benchmark workload, at 20 000 rows.
//!
//! The seven queries are paper Q2/Q5/Q6 with their `IS NOT NULL` guards
//! and four `availqty <= cut` range queries keeping 1 / 10 / 25 / 50 % of
//! the rows. Each runs through `PackageDb::execute_with` at
//! `ForceSketchRefine` (REFINE threads 1 and 4) and at `ForceDirect`; the
//! `(row, multiplicity)` lists must equal the ones pinned below, which
//! were recorded with the row-at-a-time `WHERE` evaluator. A faster scan
//! may change how rows are found, never which rows are found.
//!
//! REFINE thread counts are pinned by `PAQ_THREADS` (the CI matrix runs
//! 1 and 4); without it both are swept.

use std::time::Duration;

use paq_datagen::{tpch_table, tpch_workload, DEFAULT_SEED};
use paq_db::{DbConfig, PackageDb, Route};
use paq_lang::{parse_paql, PackageQuery};
use paq_relational::Table;
use paq_solver::SolverConfig;

const ROWS: usize = 20_000;
const GROUPS: usize = 100;

/// Range-query shares, as in the benchmark workload.
const SELECTIVITIES: [(&str, f64); 4] =
    [("R01", 0.01), ("R10", 0.10), ("R25", 0.25), ("R50", 0.50)];

/// REFINE thread counts to sweep: pinned by `PAQ_THREADS`, both 1 and 4
/// otherwise.
fn refine_threads() -> Vec<usize> {
    match std::env::var("PAQ_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(n) if n >= 1 => vec![n],
        _ => vec![1, 4],
    }
}

/// A package query over the rows with `availqty <= cut`, where `cut`
/// keeps `share` of all rows and the SUM window sits around ten times
/// the mean of the kept values.
fn range_query(table: &Table, sorted_availqty: &[f64], share: f64) -> PackageQuery {
    let keep = ((share * table.num_rows() as f64) as usize).clamp(10, sorted_availqty.len());
    let kept = &sorted_availqty[..keep];
    let cut = kept[keep - 1];
    let mean = kept.iter().sum::<f64>() / keep as f64;
    parse_paql(&format!(
        "SELECT PACKAGE(T) AS P FROM Tpch T REPEAT 0 \
         WHERE T.availqty IS NOT NULL AND T.supplycost IS NOT NULL AND T.availqty <= {cut:.6} \
         SUCH THAT COUNT(P.*) = 10 \
         AND SUM(P.availqty) BETWEEN {:.6} AND {:.6} \
         MINIMIZE SUM(P.supplycost)",
        10.0 * mean * 0.9,
        10.0 * mean * 1.1
    ))
    .expect("range query parses")
}

fn queries(table: &Table) -> Vec<(String, PackageQuery)> {
    let mut out: Vec<(String, PackageQuery)> = tpch_workload(table)
        .expect("TPC-H workload")
        .into_iter()
        .filter(|q| ["Q2", "Q5", "Q6"].contains(&q.name.as_str()))
        .map(|q| {
            let guarded = q.with_non_null_guards();
            (guarded.name, guarded.query)
        })
        .collect();
    let column = table.column("availqty").expect("availqty column");
    let mut availqty: Vec<f64> = (0..table.num_rows())
        .filter_map(|i| column.f64_at(i))
        .collect();
    availqty.sort_by(f64::total_cmp);
    for (name, share) in SELECTIVITIES {
        out.push((name.to_string(), range_query(table, &availqty, share)));
    }
    out
}

fn config(threads: usize) -> DbConfig {
    let mut config = DbConfig {
        default_groups: GROUPS,
        solver: SolverConfig::default()
            .with_time_limit(Duration::from_secs(60))
            .with_relative_gap(1e-4),
        fallback_to_direct: false,
        ..DbConfig::default()
    };
    config.sketchrefine.threads = threads;
    config
}

type Members = Vec<(usize, u64)>;

/// Every query's package on `route`, in query order.
fn packages(table: &Table, route: Route, threads: usize) -> Vec<(String, Members)> {
    let db = PackageDb::with_config(config(threads));
    db.register_table("Tpch", table.clone());
    queries(table)
        .into_iter()
        .map(|(name, q)| {
            let exec = db
                .execute_with(&q, route)
                .unwrap_or_else(|e| panic!("{name} on {route:?}: {e}"));
            (name, exec.package.members().to_vec())
        })
        .collect()
}

fn assert_golden(label: &str, actual: &[(String, Members)], golden: &[(&str, &[(usize, u64)])]) {
    let actual_names: Vec<&str> = actual.iter().map(|(n, _)| n.as_str()).collect();
    let golden_names: Vec<&str> = golden.iter().map(|(n, _)| *n).collect();
    assert_eq!(actual_names, golden_names, "{label}: query mix changed");
    for ((name, members), (_, want)) in actual.iter().zip(golden) {
        assert_eq!(members.as_slice(), *want, "{label}: {name} package moved");
    }
}

#[test]
fn sketchrefine_packages_match_golden() {
    let table = tpch_table(ROWS, DEFAULT_SEED);
    for threads in refine_threads() {
        let got = packages(&table, Route::ForceSketchRefine, threads);
        assert_golden(
            &format!("SKETCHREFINE threads={threads}"),
            &got,
            GOLDEN_SKETCHREFINE,
        );
    }
}

#[test]
fn direct_packages_match_golden() {
    let table = tpch_table(ROWS, DEFAULT_SEED);
    let got = packages(&table, Route::ForceDirect, 1);
    assert_golden("DIRECT", &got, GOLDEN_DIRECT);
}

#[rustfmt::skip]
const GOLDEN_SKETCHREFINE: &[(&str, &[(usize, u64)])] = &[
    ("Q2", &[(4640, 1), (5435, 1), (5574, 1), (6309, 1), (6506, 1), (10388, 1), (11825, 1), (15919, 1)]),
    ("Q5", &[(4093, 1), (7712, 1), (11345, 1), (11431, 1), (11819, 1), (18655, 1)]),
    ("Q6", &[(1760, 1), (5390, 1), (6686, 1), (8258, 1), (12400, 1), (13775, 1), (15703, 1), (17242, 1), (17443, 1), (18744, 1)]),
    ("R01", &[(875, 1), (4309, 1), (4385, 1), (7764, 1), (9271, 1), (10409, 1), (11592, 1), (13891, 1), (16746, 1), (16817, 1)]),
    ("R10", &[(2036, 1), (4309, 1), (5320, 1), (8598, 1), (9367, 1), (9776, 1), (11065, 1), (13912, 1), (14754, 1), (16817, 1)]),
    ("R25", &[(1760, 1), (2183, 1), (4536, 1), (6713, 1), (9674, 1), (13775, 1), (13922, 1), (16746, 1), (16817, 1), (18462, 1)]),
    ("R50", &[(1760, 1), (5390, 1), (5569, 1), (6686, 1), (7886, 1), (8258, 1), (11458, 1), (13775, 1), (15703, 1), (18744, 1)]),
];

#[rustfmt::skip]
const GOLDEN_DIRECT: &[(&str, &[(usize, u64)])] = &[
    ("Q2", &[(2833, 1), (3641, 1), (6506, 1), (6579, 1), (15919, 1), (16634, 1), (17685, 1), (18378, 1)]),
    ("Q5", &[(7712, 1), (9647, 1), (9789, 1), (11431, 1), (15662, 1), (18655, 1)]),
    ("Q6", &[(3641, 1), (6506, 1), (6579, 1), (12400, 1), (13775, 1), (16634, 1), (17242, 1), (17685, 1), (18378, 1), (18744, 1)]),
    ("R01", &[(875, 1), (4309, 1), (4385, 1), (7764, 1), (9271, 1), (10409, 1), (11592, 1), (13891, 1), (16746, 1), (16817, 1)]),
    ("R10", &[(324, 1), (5320, 1), (5705, 1), (6713, 1), (9001, 1), (11065, 1), (11825, 1), (12045, 1), (16746, 1), (16817, 1)]),
    ("R25", &[(1760, 1), (3641, 1), (5390, 1), (5569, 1), (6579, 1), (6713, 1), (11458, 1), (13775, 1), (15919, 1), (16634, 1)]),
    ("R50", &[(2833, 1), (3641, 1), (6506, 1), (6579, 1), (13775, 1), (15919, 1), (16634, 1), (17685, 1), (18378, 1), (18744, 1)]),
];
