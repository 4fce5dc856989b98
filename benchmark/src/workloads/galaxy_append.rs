//! `galaxy-append-20k`: writes beside reads. Every operation appends one
//! row to a durable table (WAL record, fsync) and then queries it, so
//! the partition cache is patched, invalidated every 64 rows and rebuilt
//! on the query path, and `paq-store` is written on the hot path and
//! read on recovery. A read-path gain that costs appends or replay shows
//! here and nowhere else.

use std::convert::Infallible;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use paq_core::Package;
use paq_datagen::{galaxy_table, galaxy_workload};
use paq_db::{CacheOutcome, Durability, MaintenanceConfig, PackageDb, Route, SyncPolicy};
use paq_relational::Value;

use crate::common::{
    answers, db_config, metric, ms, out_dir, repeat_set_up, Params, Query, Report, DATA_SEED,
};
use crate::layers;
use crate::stats;
use crate::workloads::{InProc, Warm};

const ROWS: usize = 20_000;
const GROUPS: usize = 64;
const DELTA_THRESHOLD: u64 = 64;

/// The flush is the benchmark's own call, `PackageDb::sync_wal`, after
/// every operation: as durable as `SyncPolicy::Always`, but timed apart
/// from the program's work. On a shared disk one fsync took 0.2 ms in one
/// hour and 1.1 ms in the next; inside `throughput_qps` that is the
/// device's noise, so it is counted in `append_p50_ms` only.
const SYNC: SyncPolicy = SyncPolicy::Manual;

/// Reopens per recovery figure (the median is reported).
const REOPENS: usize = 10;

pub fn spec(params: &Params) -> InProc {
    let table = galaxy_table(params.rows(ROWS), DATA_SEED);
    // One query, so that what varies from operation to operation is the
    // state of the cache and the log, not the query.
    let queries = galaxy_workload(&table)
        .expect("Galaxy workload")
        .into_iter()
        .filter(|q| q.name == "Q3")
        .map(|q| Query::new(q.name, q.text))
        .collect();
    let mut config = db_config(params.groups(GROUPS), 1);
    config.maintenance = MaintenanceConfig {
        enabled: true,
        delta_threshold: DELTA_THRESHOLD,
        background_rebuild: false,
    };
    InProc {
        relation: "Galaxy",
        table,
        queries,
        route: Route::ForceSketchRefine,
        config,
    }
}

pub fn durability(dir: &Path, sync: SyncPolicy) -> Durability {
    Durability {
        sync,
        snapshot_every: None,
        replay_threads: 1,
        ..Durability::new(dir)
    }
}

/// A directory of this process's own inside the benchmark's out
/// directory, removed when dropped.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> ScratchDir {
        let dir = out_dir().join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl ScratchDir {
    /// Bytes of the files in the directory.
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The rows the run appends: Galaxy rows drawn from the run's seed,
/// numbered after the base table's.
pub fn rows_to_append(
    seed: u64,
    count: usize,
    first_objid: usize,
) -> impl Iterator<Item = Vec<Value>> {
    let fresh = galaxy_table(count, seed);
    (0..count).map(move |i| {
        let mut row = fresh.row(i);
        row[0] = Value::Int((first_objid + i) as i64);
        row
    })
}

/// Generated table in hand → first warm query possible: open the
/// directory, register (20 000 rows through the WAL, fsynced), query.
fn set_up_once(spec: &InProc, dir: &Path, report: &mut Report) -> (PackageDb, Duration) {
    let _ = std::fs::remove_dir_all(dir);
    let table = spec.table.clone();
    let start = Instant::now();
    let db = PackageDb::open(spec.config.clone(), durability(dir, SYNC))
        .expect("open a fresh directory");
    db.register_table(spec.relation, table);
    db.sync_wal().expect("flush the registration");
    if let Err(e) = db.execute_with(&spec.queries[0].ast, spec.route) {
        report.fail(format!("infeasible in set-up: {e}"));
    }
    (db, start.elapsed())
}

struct Expected {
    rows: usize,
    package: Package,
}

/// Reopen the directory `REOPENS` times; each time the table must hold
/// every acknowledged row and the first query must return the package
/// the database returned last before it went down. Returns the median
/// of open → first answer, and of `PackageDb::open` alone, in seconds.
fn reopen(
    spec: &InProc,
    dir: &Path,
    expected: &Expected,
    must_hit: bool,
    reopens: usize,
    report: &mut Report,
) -> (f64, f64, PackageDb) {
    let q = &spec.queries[0];
    let mut to_answer = Vec::new();
    let mut to_open = Vec::new();
    let mut last = None;
    for _ in 0..reopens {
        drop(last.take());
        let start = Instant::now();
        let db = match PackageDb::open(spec.config.clone(), durability(dir, SYNC)) {
            Ok(db) => db,
            Err(e) => {
                report.check(false, || format!("reopen failed: {e}"));
                continue;
            }
        };
        to_open.push(start.elapsed().as_secs_f64());
        let first = db.execute_with(&q.ast, spec.route);
        to_answer.push(start.elapsed().as_secs_f64());
        let rows = db.table(spec.relation).map_or(0, |t| t.num_rows());
        report.check(rows == expected.rows, || {
            format!(
                "reopened with {rows} rows, {} were acknowledged",
                expected.rows
            )
        });
        match first {
            Ok(exec) => {
                report.check(exec.package == expected.package, || {
                    "first package after reopening differs from the last before".to_string()
                });
                if must_hit && !matches!(exec.cache, CacheOutcome::Hit { .. }) {
                    report.fail(format!(
                        "first query after reopening was not a Hit: {}",
                        exec.cache
                    ));
                }
            }
            Err(e) => report.check(false, || format!("first query after reopening: {e}")),
        }
        last = Some(db);
    }
    (
        stats::median(&to_answer),
        stats::median(&to_open),
        last.expect("at least one reopen succeeded"),
    )
}

/// The whole workload on `dir`; what is left is the database as
/// reopened from its snapshot.
fn run_on(spec: &InProc, scratch: &ScratchDir, params: &Params, report: &mut Report) -> Warm {
    let dir = scratch.0.as_path();
    let (seed, seconds) = (params.seed, params.body_seconds());
    let reopens = if params.shrink > 1 { 3 } else { REOPENS };
    let (db, setup_s) = repeat_set_up(|| Ok::<_, Infallible>(set_up_once(spec, dir, report)))
        .unwrap_or_else(|e| match e {});
    report.end_to_end.push(metric("setup_s", setup_s, "s"));

    let q = &spec.queries[0];
    let base_rows = spec.table.num_rows();
    let mut appended = 0usize;
    let mut append_ms = Vec::new();
    let mut query_ms = Vec::new();
    let (mut busy, mut flushing) = (Duration::ZERO, Duration::ZERO);
    let mut last_package = Package::empty();
    let mut misses = 0u64;
    'timed: loop {
        // A batch of rows at a time, so the stream never runs dry.
        for row in rows_to_append(
            seed.wrapping_add(appended as u64),
            4096,
            base_rows + appended,
        ) {
            if (busy + flushing).as_secs_f64() >= seconds {
                break 'timed;
            }
            // Append, query, flush: the query runs before the thread has
            // slept in fsync, the row counts as acknowledged after it.
            let start = Instant::now();
            let acked = db.append_row(spec.relation, row);
            let mid = Instant::now();
            let result = db.execute_with(&q.ast, spec.route);
            let end = Instant::now();
            let flushed = db.sync_wal();
            let flush = end.elapsed();
            busy += end - start;
            flushing += flush;
            append_ms.push(ms(mid - start + flush));
            query_ms.push(ms(end - mid));
            let acked = acked.ok().filter(|_| flushed.is_ok());
            report.check(acked.is_some(), || "append or its flush failed".to_string());
            appended += acked.is_some() as usize;
            match result {
                Ok(exec) => {
                    // The table the answer was computed on, by version.
                    let table = db.table(spec.relation).expect("table is registered");
                    let current = acked == Some(exec.table_version);
                    report.check(current && answers(&exec.package, &q.ast, &table), || {
                        "package does not satisfy the query on the version it observed".to_string()
                    });
                    misses += matches!(exec.cache, CacheOutcome::Miss { .. }) as u64;
                    last_package = exec.package;
                }
                Err(e) => report.check(false, || format!("query after append: {e}")),
            }
        }
    }
    report.end_to_end.push(metric(
        "throughput_qps",
        query_ms.len() as f64 / busy.as_secs_f64(),
        "1/s",
    ));
    report.push_latencies(&mut query_ms);
    stats::sort(&mut append_ms);
    report.end_to_end.push(metric(
        "append_p50_ms",
        stats::percentile(&append_ms, 50.0),
        "ms",
    ));
    let maintenance = db.maintenance_stats();
    report.notes.push(format!(
        "{appended} appends (fsync each, {:.3} ms mean, not in throughput_qps) beside {} queries: \
         {} absorbed, {} merges, {misses} rebuilds on the query path",
        ms(flushing) / query_ms.len().max(1) as f64,
        query_ms.len(),
        maintenance.absorbed_appends,
        maintenance.merges
    ));

    // Crash: the handle goes away with no snapshot taken; what is on
    // disk is the WAL alone, every record of it fsynced before its
    // append was acknowledged.
    drop(db);
    let expected = Expected {
        rows: base_rows + appended,
        package: last_package,
    };
    // Partitionings live in snapshots, not in the WAL, so after a crash
    // the first query rebuilds one; after a snapshot it must be a Hit.
    let (recovery_s, replay_s, db) = reopen(spec, dir, &expected, false, reopens, report);
    report
        .end_to_end
        .push(metric("recovery_s", recovery_s, "s"));
    if let Err(e) = db.snapshot_now() {
        report.fail(format!("snapshot_now: {e}"));
    }
    drop(db);
    let snapshot_bytes = scratch.bytes();
    let (snapshot_recovery_s, snapshot_load_s, db) =
        reopen(spec, dir, &expected, true, reopens, report);
    report.notes.push(format!(
        "reopened {reopens}x from the WAL alone: open {:.2} ms, first answer after {:.2} ms; \
         {reopens}x from a {snapshot_bytes}-byte snapshot: open {:.2} ms, first answer (a Hit) after {:.2} ms",
        replay_s * 1e3,
        recovery_s * 1e3,
        snapshot_load_s * 1e3,
        snapshot_recovery_s * 1e3,
    ));
    let table = db.table(spec.relation).expect("table is registered");
    Warm {
        db,
        table,
        reference: vec![expected.package],
    }
}

pub fn run(params: &Params) -> Report {
    let mut report = Report::default();
    let spec = spec(params);
    let dir = ScratchDir::new("append-db");
    let warm = run_on(&spec, &dir, params, &mut report);
    if params.trace {
        layers::measure("galaxy-append-20k", &spec, &warm, params, &mut report);
    }
    report
}
