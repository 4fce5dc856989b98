//! Integration tests for the work-accounting claims of the paper:
//! DIRECT makes exactly one black-box call; SKETCHREFINE's best case is
//! one sketch call plus at most one refine call per group with
//! representatives in the sketch package (§4.2.2 "Run time
//! complexity"), observable through a [`Telemetry`] sink attached to
//! the `PackageDb` session and the `SketchRefineReport` carried by each
//! `Execution`.

use std::sync::Arc;

use package_queries::prelude::*;
use package_queries::solver::Telemetry;

fn setup() -> (PackageDb, package_queries::paql::PackageQuery, usize) {
    let db = PackageDb::new();
    db.register_table("Galaxy", package_queries::datagen::galaxy_table(1500, 13));
    let partitioning = Partitioner::new(PartitionConfig::by_size(
        vec!["r".into(), "extinction_r".into()],
        150,
    ))
    .partition(&db.table("Galaxy").unwrap())
    .unwrap();
    let groups = partitioning.num_groups();
    db.install_partitioning("Galaxy", partitioning).unwrap();
    let query = parse_paql(
        "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 \
         SUCH THAT COUNT(P.*) = 10 AND SUM(P.r) <= 200 \
         MINIMIZE SUM(P.extinction_r)",
    )
    .unwrap();
    (db, query, groups)
}

#[test]
fn direct_makes_exactly_one_solver_call() {
    let (db, query, _) = setup();
    let telemetry = Arc::new(Telemetry::new());
    db.set_telemetry(Arc::clone(&telemetry));
    db.execute_with(&query, Route::ForceDirect).unwrap();
    assert_eq!(telemetry.calls(), 1);
    assert_eq!(telemetry.failures(), 0);
    assert!(telemetry.total_simplex_iterations() > 0);
}

#[test]
fn sketchrefine_best_case_is_m_plus_one_calls() {
    let (db, query, groups) = setup();
    let telemetry = Arc::new(Telemetry::new());
    db.set_telemetry(Arc::clone(&telemetry));
    let exec = db.execute_with(&query, Route::ForceSketchRefine).unwrap();
    assert!(exec
        .package
        .satisfies(&query, &db.table("Galaxy").unwrap(), 1e-6)
        .unwrap());
    let report = exec
        .report
        .as_ref()
        .expect("SKETCHREFINE executions carry a report");

    // Telemetry and the report agree on the call count.
    assert_eq!(telemetry.calls(), report.solver_calls);
    // Best case (no backtracking): 1 sketch + one refine per group that
    // had representatives in the sketch package.
    if report.backtracks == 0 && !report.used_hybrid {
        assert_eq!(
            report.solver_calls,
            1 + report.groups_refined as u64,
            "best case is m+1 calls (report: {report:?})"
        );
    }
    // Never more refine work than groups allow without backtracking.
    assert!(report.groups_refined <= groups);
    // Phase timings cover the work.
    assert!(report.sketch_time.as_nanos() > 0);
}

#[test]
fn sketchrefine_calls_are_small_where_direct_is_large() {
    // The whole point of the decomposition: every SKETCHREFINE solver
    // call touches at most max(m, τ) variables. We verify via the
    // telemetry's per-call maximum that no single call did more simplex
    // work than the one big DIRECT call.
    let (db, query, _) = setup();

    let direct_tel = Arc::new(Telemetry::new());
    db.set_telemetry(Arc::clone(&direct_tel));
    db.execute_with(&query, Route::ForceDirect).unwrap();
    let direct_iters = direct_tel.total_simplex_iterations();

    let sr_tel = Arc::new(Telemetry::new());
    db.set_telemetry(Arc::clone(&sr_tel));
    db.execute_with(&query, Route::ForceSketchRefine).unwrap();
    let max_single_call = sr_tel.max_simplex_iterations();
    assert!(
        max_single_call <= direct_iters.max(1) * 2,
        "a single SKETCHREFINE subproblem ({max_single_call} iters) should not dwarf \
         the full DIRECT solve ({direct_iters} iters)"
    );
}

#[test]
fn telemetry_resets_between_experiments() {
    let (db, query, _) = setup();
    let telemetry = Arc::new(Telemetry::new());
    db.set_telemetry(Arc::clone(&telemetry));
    db.execute_with(&query, Route::ForceSketchRefine).unwrap();
    assert!(telemetry.calls() > 0);
    telemetry.reset();
    assert_eq!(telemetry.calls(), 0);
    assert_eq!(telemetry.max_simplex_iterations(), 0);
    db.execute_with(&query, Route::ForceSketchRefine).unwrap();
    assert!(telemetry.calls() > 0, "sink keeps working after reset");
}

#[test]
fn execution_timings_cover_the_work() {
    let (db, query, _) = setup();
    let exec = db.execute_with(&query, Route::ForceSketchRefine).unwrap();
    let t = exec.timings;
    let parts = t.plan + t.partitioning + t.evaluate;
    assert!(t.total + std::time::Duration::from_millis(1) >= parts);
    assert!(t.evaluate.as_nanos() > 0);
}
