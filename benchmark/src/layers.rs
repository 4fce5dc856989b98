//! The traced run: per-layer numbers, measured from the outside in.
//!
//! Spans sit around each public call (`PackageDb::execute_with`,
//! `parse_paql`, `base_relation_rows`, `linear_system`, `to_model`,
//! `MilpSolver::solve`, `Direct::evaluate`, `Partitioner::partition`,
//! the v7 codec, `PackageDb::open`). A DIRECT query is also replayed
//! part by part, and the parts must add up to `Direct::evaluate`. The
//! inside of SKETCHREFINE cannot be split from outside, so its numbers
//! come from `SketchRefineReport`, a `Telemetry` attached through
//! `PackageDb::set_telemetry`, and a separately timed scan of the same
//! predicate; the remainder is printed as unattributed.
//!
//! Every workload gets every layer's number: the serving layers are
//! measured by putting the workload's own database behind a server for
//! a few requests, the store by logging and recovering a prefix of its
//! table. Traced passes alternate with untraced ones; the difference is
//! the tracing overhead. End-to-end metrics never come from here.

use std::sync::Arc;
use std::time::{Duration, Instant};

use paq_core::{Direct, Evaluator, Package};
use paq_db::{PackageDb, Route, Telemetry};
use paq_lang::{base_relation_rows, linear_system, parse_paql, validate, Translation};
use paq_partition::{PartitionConfig, Partitioner};
use paq_server::wire7::{
    decode_request_v7, decode_response_v7, encode_request_v7, encode_response_v7,
};
use paq_server::{spawn_tcp, Client, Request, Response, Server};
use paq_solver::MilpSolver;

use crate::common::{answers, metric, ms, out_dir, solver_config, Metric, Params, Report};
use crate::openloop::{self, Wire};
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::{galaxy_append, galaxy_serve, InProc, Warm};

/// Every per-layer metric: name, unit, better. `BENCHMARK.json` lists
/// the same, and `check` fails when the two differ.
pub const PER_LAYER: [(&str, &str, &str); 36] = [
    ("relational.scan_ns_per_row", "ns/row", "lower"),
    ("relational.rows_examined_per_result", "ratio", "lower"),
    ("lang.parse_us", "us", "lower"),
    ("lang.coef_build_ms", "ms", "lower"),
    ("solver.solve_ms", "ms", "lower"),
    ("solver.nodes", "count", "lower"),
    ("solver.simplex_iterations", "count", "lower"),
    ("solver.calls", "count", "lower"),
    ("core.sketch_ms", "ms", "lower"),
    ("core.refine_ms", "ms", "lower"),
    ("core.waves", "count", "lower"),
    ("core.wave_fill", "ratio", "higher"),
    ("core.conflict_requeues", "count", "lower"),
    ("core.backtracks", "count", "lower"),
    ("partition.build_ms", "ms", "lower"),
    ("partition.rows_per_s", "1/s", "higher"),
    ("partition.groups", "count", "lower"),
    ("db.overhead_us", "us", "lower"),
    ("db.cache_hit_rate", "ratio", "higher"),
    ("db.absorbed", "count", "higher"),
    ("db.merges", "count", "lower"),
    ("db.invalidations", "count", "lower"),
    ("store.wal_append_ms", "ms", "lower"),
    ("store.fsyncs", "count", "lower"),
    ("store.wal_bytes_per_row_byte", "ratio", "lower"),
    ("store.snapshot_bytes", "bytes", "lower"),
    ("store.replay_ms", "ms", "lower"),
    ("store.snapshot_load_ms", "ms", "lower"),
    ("server.codec_us", "us", "lower"),
    ("server.frame_bytes", "bytes", "lower"),
    ("server.register_bytes", "bytes", "lower"),
    ("server.wire_overhead_ms", "ms", "lower"),
    ("server.queue_wait_ms", "ms", "lower"),
    ("server.handle_ms", "ms", "lower"),
    ("server.shed", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// Rows of the workload's table that the store and the `RegisterTable`
/// probes use: the size `galaxy-serve-12k` registers.
const PROBE_ROWS: usize = 12_800;
const PROBE_APPENDS: usize = 200;
const PROBE_REOPENS: usize = 3;

fn layer(name: &'static str, value: f64) -> Metric {
    let unit = PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
        .expect("a metric PER_LAYER lists");
    metric(name, value, unit)
}

/// Solver work as the database's telemetry has counted it so far.
#[derive(Debug, Clone, Copy, Default)]
struct SolverWork {
    wall: Duration,
    nodes: u64,
    iterations: u64,
    calls: u64,
}

impl SolverWork {
    fn read(telemetry: &Telemetry) -> SolverWork {
        SolverWork {
            wall: telemetry.total_wall_time(),
            nodes: telemetry.total_nodes(),
            iterations: telemetry.total_simplex_iterations(),
            calls: telemetry.calls(),
        }
    }

    fn since(self, earlier: SolverWork) -> SolverWork {
        SolverWork {
            wall: self.wall - earlier.wall,
            nodes: self.nodes - earlier.nodes,
            iterations: self.iterations - earlier.iterations,
            calls: self.calls - earlier.calls,
        }
    }

    fn add(&mut self, other: SolverWork) {
        self.wall += other.wall;
        self.nodes += other.nodes;
        self.iterations += other.iterations;
        self.calls += other.calls;
    }
}

/// Sums over the operations of the traced and untraced passes.
#[derive(Default)]
struct Loop {
    /// Solver work of the workload's own operations.
    solver: SolverWork,
    ops: u64,
    execute_ns: u64,
    overhead_ns: u64,
    partitioning: Duration,
    sketch: Duration,
    refine: Duration,
    reports: u64,
    waves: u64,
    parallel_solves: u64,
    conflict_requeues: u64,
    backtracks: u64,
    rows_examined: u64,
    rows_returned: u64,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
}

impl Loop {
    fn per_op(&self, total: f64) -> f64 {
        total / self.ops.max(1) as f64
    }

    fn per_report(&self, total: f64) -> f64 {
        total / self.reports.max(1) as f64
    }

    fn take_report(&mut self, report: &paq_core::SketchRefineReport) {
        self.reports += 1;
        self.sketch += report.sketch_time;
        self.refine += report.refine_time;
        self.waves += report.waves;
        self.parallel_solves += report.parallel_solves;
        self.conflict_requeues += report.conflict_requeues;
        self.backtracks += report.backtracks;
    }
}

/// A query replayed part by part through the public functions of
/// `paq-lang`, `paq-relational` (the scan) and `paq-solver`.
fn replay(
    spec: &InProc,
    qi: usize,
    table: &paq_relational::Table,
    all_rows: &[usize],
    request: u64,
    tracer: &mut Tracer,
) {
    let q = &spec.queries[qi];
    let root = tracer.enter("replay", request);
    let (ast, _) = tracer.time("lang.parse", request, || parse_paql(&q.text));
    let ast = ast.expect("workload query parses");
    let direct = spec.route == Route::ForceDirect;
    // What `Direct::evaluate` does, call by call.
    let parts = tracer.enter("direct.parts", request);
    let _ = tracer.time("lang.validate", request, || validate(&ast, table.schema()));
    let (base, _) = tracer.time("relational.scan", request, || {
        base_relation_rows(&ast, table, all_rows)
    });
    let base = base.expect("base predicate evaluates");
    let (system, _) = tracer.time("lang.linear_system", request, || {
        linear_system(&ast, table, &base)
    });
    let system = system.expect("linear system builds");
    let (model, _) = tracer.time("lang.to_model", request, || system.to_model());
    if direct {
        let translation = Translation {
            model,
            tuple_of_var: base,
        };
        let (solved, _) = tracer.time("solver.solve", request, || {
            MilpSolver::new(solver_config()).solve(&translation.model)
        });
        let _ = tracer.time("core.decode", request, || {
            solved
                .solution()
                .map(|s| Package::from_pairs(translation.decode(&s.values)))
        });
    }
    tracer.exit(parts);
    if direct {
        // The table came out of the catalog by name; skip the
        // positional-binding note.
        let _scope = paq_core::catalog_scope();
        let _ = tracer.time("core.direct_evaluate", request, || {
            Direct::new(solver_config()).evaluate(&ast, table)
        });
    }
    tracer.exit(root);
}

/// Alternate traced and untraced passes over the mix for `seconds`.
fn passes(
    spec: &InProc,
    warm: &Warm,
    telemetry: &Telemetry,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Loop {
    let db = &warm.db;
    let appending = spec.config.maintenance.enabled;
    let all_rows: Vec<usize> = (0..warm.table.num_rows()).collect();
    let mut sums = Loop::default();
    let start = Instant::now();
    let mut pass = 0u64;
    while pass < 2 || start.elapsed().as_secs_f64() < seconds {
        let traced = pass.is_multiple_of(2);
        tracer.set_enabled(traced);
        for (qi, q) in spec.queries.iter().enumerate() {
            let request = sums.ops;
            let op = tracer.enter("op", request);
            if appending {
                let row = warm.table.row(request as usize % warm.table.num_rows());
                let (acked, _) = tracer.time("db.append_row", request, || {
                    db.append_row(spec.relation, row)
                });
                report.check(acked.is_ok(), || "traced append refused".to_string());
            }
            let solver_before = SolverWork::read(telemetry);
            let (result, execute_ns) = tracer.time("db.execute", request, || {
                db.execute_with(&q.ast, spec.route)
            });
            sums.solver
                .add(SolverWork::read(telemetry).since(solver_before));
            match &result {
                Ok(exec) => {
                    let ((), _) = tracer.time("verify", request, || {
                        let table = if appending {
                            db.table(spec.relation).expect("table is registered")
                        } else {
                            Arc::clone(&warm.table)
                        };
                        let same = appending || exec.package == warm.reference[qi];
                        report.check(same && answers(&exec.package, &q.ast, &table), || {
                            format!("{}: traced pass returned a wrong package", q.name)
                        });
                    });
                    let inside = exec.timings.evaluate + exec.timings.partitioning;
                    sums.overhead_ns += execute_ns.saturating_sub(inside.as_nanos() as u64);
                    sums.partitioning += exec.timings.partitioning;
                    sums.rows_examined += exec.rows as u64;
                    sums.rows_returned += exec.package.distinct_tuples() as u64;
                    if let Some(r) = &exec.report {
                        sums.take_report(r);
                    }
                }
                Err(e) => report.check(false, || format!("{}: {e}", q.name)),
            }
            tracer.exit(op);
            sums.ops += 1;
            sums.execute_ns += execute_ns;
            if traced {
                sums.traced_ms.push(execute_ns as f64 / 1e6);
                replay(spec, qi, &warm.table, &all_rows, request, tracer);
                if spec.route == Route::ForceDirect {
                    // DIRECT has no sketch or refine; the SKETCHREFINE
                    // twin of the query supplies the `core.*` counters.
                    let (twin, _) = tracer.time("core.sketchrefine_twin", request, || {
                        db.execute_with(&q.ast, Route::ForceSketchRefine)
                    });
                    if let Some(r) = twin.ok().and_then(|e| e.report) {
                        sums.take_report(&r);
                    }
                }
            } else {
                sums.untraced_ms.push(execute_ns as f64 / 1e6);
            }
        }
        pass += 1;
    }
    tracer.set_enabled(true);
    sums
}

/// The partitioning the database builds lazily for the first query,
/// built through `Partitioner::partition` under a span.
fn partition_build(spec: &InProc, warm: &Warm, tracer: &mut Tracer, out: &mut Vec<Metric>) {
    let table = &warm.table;
    let attributes: Vec<String> = spec.queries[0]
        .ast
        .query_attributes()
        .into_iter()
        .filter(|a| {
            table
                .schema()
                .column(a)
                .is_ok_and(|def| def.ty.is_numeric())
        })
        .collect();
    let tau = (table.num_rows() / spec.config.default_groups.max(1)).max(2);
    let partitioner = Partitioner::new(PartitionConfig::by_size(attributes, tau));
    let (built, ns) = tracer.time("partition.build", 0, || partitioner.partition(table));
    let groups = built.map_or(0, |p| p.num_groups());
    out.push(layer("partition.build_ms", ns as f64 / 1e6));
    out.push(layer(
        "partition.rows_per_s",
        table.num_rows() as f64 / (ns as f64 / 1e9),
    ));
    out.push(layer("partition.groups", groups as f64));
}

/// Put the workload's database behind a TCP server and send each query
/// a few times, one at a time.
fn wire_probe(
    spec: &InProc,
    warm: &Warm,
    in_process_ms: f64,
    tracer: &mut Tracer,
    report: &mut Report,
    out: &mut Vec<Metric>,
) -> std::io::Result<()> {
    let server = spawn_tcp(
        Server::with_config(warm.db.session(), galaxy_serve::server_config()),
        "127.0.0.1:0",
    )?;
    let mut wire = Wire::from_client(openloop::connect(server.addr())?)?;
    let requests = galaxy_serve::requests(spec);
    let appending = spec.config.maintenance.enabled;
    let (mut roundtrip_ms, mut codec_ns, mut frame_bytes, mut sent) = (0.0, 0u64, 0usize, 0u64);
    let start = Instant::now();
    while sent < 20 && (sent == 0 || start.elapsed() < Duration::from_millis(1500)) {
        for (qi, request) in requests.iter().enumerate() {
            let open = tracer.enter("wire.roundtrip", sent);
            let closed = openloop::closed_loop(&mut wire, &requests, &mut || qi, 1, 0.0, |r| r)?;
            tracer.exit(open);
            let answer = &closed.answers[0];
            roundtrip_ms += answer.latency_ms;
            sent += 1;
            let ok = match &answer.response {
                Response::Executed(remote) => appending || remote.package() == warm.reference[qi],
                _ => false,
            };
            report.check(ok, || {
                format!(
                    "{}: wire package differs from the in-process package",
                    spec.queries[qi].name
                )
            });
            // The codec alone, on the frames this exchange used.
            let (frames, ns) = tracer.time("wire.codec", sent, || {
                let request_frame = encode_request_v7(7, request);
                let decoded_request = decode_request_v7(&request_frame);
                let response_frame = encode_response_v7(7, &answer.response);
                let decoded_response = decode_response_v7(&response_frame);
                assert!(decoded_request.is_ok() && decoded_response.is_ok());
                request_frame.len() + response_frame.len()
            });
            codec_ns += ns;
            frame_bytes += frames;
        }
    }
    let n = sent as f64;
    let mean_roundtrip = roundtrip_ms / n;
    out.push(layer("server.codec_us", codec_ns as f64 / 1e3 / n));
    out.push(layer("server.frame_bytes", frame_bytes as f64 / n));
    let prefix = warm.table.head(PROBE_ROWS.min(warm.table.num_rows()));
    let register = encode_request_v7(
        7,
        &Request::RegisterTable {
            name: spec.relation.to_string(),
            table: prefix,
            token: None,
        },
    );
    out.push(layer("server.register_bytes", register.len() as f64));
    out.push(layer(
        "server.wire_overhead_ms",
        mean_roundtrip - in_process_ms,
    ));
    // The server's own histograms, through the public metrics request.
    let snapshot = Client::connect(server.addr())?
        .metrics()
        .map_err(std::io::Error::other)?;
    let mean_ms = |name: &str| {
        snapshot
            .histogram(name)
            .and_then(|h| h.mean())
            .map_or(0.0, |ns| ns / 1e6)
    };
    out.push(layer(
        "server.queue_wait_ms",
        mean_ms(paq_obs::names::SERVER_FAIR_QUEUE_WAIT),
    ));
    out.push(layer("server.handle_ms", mean_ms("server.handle")));
    out.push(layer(
        "server.shed",
        snapshot.counter(paq_obs::names::SERVER_SHED) as f64,
    ));
    report.notes.push(format!(
        "wire: round trip {mean_roundtrip:.3} ms against {in_process_ms:.3} ms in process: \
         the wire is {:.1} % of the round trip ({sent} requests, one at a time)",
        100.0 * (mean_roundtrip - in_process_ms) / mean_roundtrip
    ));
    Ok(())
}

/// Log and recover a prefix of the workload's table: register it in a
/// durable database, append rows (fsync each), reopen from the WAL
/// alone, snapshot, reopen from the snapshot.
fn store_probe(
    spec: &InProc,
    warm: &Warm,
    tracer: &mut Tracer,
    report: &mut Report,
    out: &mut Vec<Metric>,
) {
    let dir = galaxy_append::ScratchDir::new("store-probe");
    let prefix = warm.table.head(PROBE_ROWS.min(warm.table.num_rows()));
    let rows = prefix.num_rows();
    let open = |tracer: &mut Tracer, span: &'static str| {
        let (db, ns) = tracer.time(span, 0, || {
            PackageDb::open(
                spec.config.clone(),
                galaxy_append::durability(&dir.0, paq_db::SyncPolicy::Always),
            )
        });
        (db.expect("open the probe's directory"), ns)
    };
    let (db, _) = open(tracer, "store.open_empty");
    db.register_table(spec.relation, prefix.clone());
    let logged_before = db.durability_stats().map_or(0, |s| s.wal_bytes);
    let mut append_ns = 0u64;
    for i in 0..PROBE_APPENDS {
        let row = prefix.row(i % rows);
        let (acked, ns) = tracer.time("store.append_row", i as u64, || {
            db.append_row(spec.relation, row)
        });
        report.check(acked.is_ok(), || "probe append refused".to_string());
        append_ns += ns;
    }
    let durable = db.durability_stats().unwrap_or_default();
    out.push(layer(
        "store.wal_append_ms",
        append_ns as f64 / 1e6 / PROBE_APPENDS as f64,
    ));
    out.push(layer("store.fsyncs", durable.wal_syncs as f64));
    let row_bytes = (PROBE_APPENDS * prefix.schema().arity() * 8) as f64;
    out.push(layer(
        "store.wal_bytes_per_row_byte",
        (durable.wal_bytes - logged_before) as f64 / row_bytes,
    ));
    drop(db);

    let expect_rows = |db: &PackageDb, report: &mut Report| {
        let found = db.table(spec.relation).map_or(0, |t| t.num_rows());
        report.check(found == rows + PROBE_APPENDS, || {
            format!(
                "probe reopened with {found} rows, {} were acknowledged",
                rows + PROBE_APPENDS
            )
        });
    };
    let mut replay_ms = Vec::new();
    for _ in 0..PROBE_REOPENS {
        let (db, ns) = open(tracer, "store.replay");
        replay_ms.push(ns as f64 / 1e6);
        expect_rows(&db, report);
    }
    let (db, _) = open(tracer, "store.replay");
    if let Err(e) = db.snapshot_now() {
        report.fail(format!("probe snapshot: {e}"));
    }
    drop(db);
    let snapshot_bytes = dir.bytes();
    let mut load_ms = Vec::new();
    for _ in 0..PROBE_REOPENS {
        let (db, ns) = open(tracer, "store.snapshot_load");
        load_ms.push(ns as f64 / 1e6);
        expect_rows(&db, report);
    }
    out.push(layer("store.snapshot_bytes", snapshot_bytes as f64));
    out.push(layer("store.replay_ms", stats::median(&replay_ms)));
    out.push(layer("store.snapshot_load_ms", stats::median(&load_ms)));
}

/// Measure every layer for one workload and write its spans to
/// `out/trace-<workload>.json`.
pub fn measure(name: &str, spec: &InProc, warm: &Warm, params: &Params, report: &mut Report) {
    let mut tracer = Tracer::new(true);
    let mut out = Vec::with_capacity(PER_LAYER.len());
    let db = &warm.db;

    let telemetry = Arc::new(Telemetry::new());
    db.set_telemetry(Arc::clone(&telemetry));
    let cache_before = db.cache_stats();
    let maintenance_before = db.maintenance_stats();
    let sums = passes(
        spec,
        warm,
        &telemetry,
        params.seconds / 4.0,
        &mut tracer,
        report,
    );
    let cache = db.cache_stats();
    let maintenance = db.maintenance_stats();

    // Spans of the replays and of the database calls, per operation.
    let totals = tracer.totals();
    let mean_ns = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64)
    };
    let scan_ns = mean_ns("relational.scan");
    let execute_ms = sums.per_op(sums.execute_ns as f64) / 1e6;
    out.push(layer(
        "relational.scan_ns_per_row",
        scan_ns / warm.table.num_rows() as f64,
    ));
    out.push(layer(
        "relational.rows_examined_per_result",
        sums.rows_examined as f64 / sums.rows_returned.max(1) as f64,
    ));
    out.push(layer("lang.parse_us", mean_ns("lang.parse") / 1e3));
    out.push(layer(
        "lang.coef_build_ms",
        (mean_ns("lang.linear_system") + mean_ns("lang.to_model")) / 1e6,
    ));
    // Summed over REFINE threads, so it can exceed the time of the call.
    let solve_ms = sums.per_op(ms(sums.solver.wall));
    out.push(layer("solver.solve_ms", solve_ms));
    out.push(layer("solver.nodes", sums.per_op(sums.solver.nodes as f64)));
    out.push(layer(
        "solver.simplex_iterations",
        sums.per_op(sums.solver.iterations as f64),
    ));
    out.push(layer("solver.calls", sums.per_op(sums.solver.calls as f64)));
    out.push(layer("core.sketch_ms", sums.per_report(ms(sums.sketch))));
    out.push(layer("core.refine_ms", sums.per_report(ms(sums.refine))));
    out.push(layer("core.waves", sums.per_report(sums.waves as f64)));
    let wave_slots = sums.waves * spec.config.sketchrefine.threads as u64;
    out.push(layer(
        "core.wave_fill",
        sums.parallel_solves as f64 / wave_slots.max(1) as f64,
    ));
    out.push(layer(
        "core.conflict_requeues",
        sums.per_report(sums.conflict_requeues as f64),
    ));
    out.push(layer(
        "core.backtracks",
        sums.per_report(sums.backtracks as f64),
    ));
    partition_build(spec, warm, &mut tracer, &mut out);
    out.push(layer(
        "db.overhead_us",
        sums.per_op(sums.overhead_ns as f64) / 1e3,
    ));
    let lookups = (cache.hits - cache_before.hits) + (cache.misses - cache_before.misses);
    out.push(layer(
        "db.cache_hit_rate",
        (cache.hits - cache_before.hits) as f64 / lookups.max(1) as f64,
    ));
    out.push(layer(
        "db.absorbed",
        (maintenance.absorbed_appends - maintenance_before.absorbed_appends) as f64,
    ));
    out.push(layer(
        "db.merges",
        (maintenance.merges - maintenance_before.merges) as f64,
    ));
    out.push(layer(
        "db.invalidations",
        (cache.invalidations - cache_before.invalidations) as f64,
    ));
    store_probe(spec, warm, &mut tracer, report, &mut out);
    if let Err(e) = wire_probe(spec, warm, execute_ms, &mut tracer, report, &mut out) {
        report.fail(format!("wire probe: {e}"));
    }
    let (traced, untraced) = (
        stats::median(&sums.traced_ms),
        stats::median(&sums.untraced_ms),
    );
    out.push(layer(
        "trace.overhead_pct",
        100.0 * (traced - untraced) / untraced,
    ));

    // Where the time of one operation goes.
    report.notes.push(format!(
        "execute {execute_ms:.3} ms per operation: scan of the same predicate {:.3} ms ({:.1} %), \
         solver {solve_ms:.3} ms summed over {} REFINE thread(s) ({:.1} %)",
        scan_ns / 1e6,
        100.0 * scan_ns / 1e6 / execute_ms,
        spec.config.sketchrefine.threads,
        100.0 * solve_ms / execute_ms,
    ));
    if spec.route == Route::ForceDirect {
        let (parts, whole) = (mean_ns("direct.parts"), mean_ns("core.direct_evaluate"));
        report.notes.push(format!(
            "DIRECT replayed part by part: validate + scan + linear_system + to_model + solve + \
             decode = {:.3} ms, {:.1} % of Direct::evaluate ({:.3} ms); solve alone {:.1} %",
            parts / 1e6,
            100.0 * parts / whole,
            whole / 1e6,
            100.0 * mean_ns("solver.solve") / whole,
        ));
        // At `check` size a call takes microseconds and the spans' own
        // cost shows; the rule is for the measured size.
        if params.shrink == 1 && (parts / whole - 1.0).abs() > 0.10 {
            report.fail(format!(
                "the parts of DIRECT sum to {:.1} % of Direct::evaluate",
                100.0 * parts / whole
            ));
        }
    } else {
        let attributed = scan_ns / 1e6
            + sums.per_report(ms(sums.sketch) + ms(sums.refine))
            + sums.per_op(ms(sums.partitioning));
        report.notes.push(format!(
            "SKETCHREFINE from its report: sketch {:.3} ms + refine {:.3} ms + scan {:.3} ms + \
             partitioning rebuilt {:.3} ms; unattributed remainder {:.3} ms ({:.1} %)",
            sums.per_report(ms(sums.sketch)),
            sums.per_report(ms(sums.refine)),
            scan_ns / 1e6,
            sums.per_op(ms(sums.partitioning)),
            execute_ms - attributed,
            100.0 * (execute_ms - attributed) / execute_ms,
        ));
    }

    let path = out_dir().join(format!("trace-{name}.json"));
    match tracer.write(&path) {
        Ok(()) => report
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => report.fail(format!("writing {}: {e}", path.display())),
    }
    report.layers = out;
}
