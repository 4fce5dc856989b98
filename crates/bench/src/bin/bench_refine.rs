//! REFINE perf smoke: sequential vs wave-based parallel REFINE.
//!
//! Runs a REFINE-heavy Galaxy workload — bulk-selection queries whose
//! sketch spreads representatives across many groups — over a ≥ 64-group
//! partitioning, once with `threads = 1` (the sequential Algorithm 2
//! path) and once with `threads = N`, and records per-query REFINE
//! wall-clock, wave counters, and the package-identity check in
//! `BENCH_refine.json`. This is the repo's perf-trajectory artifact:
//! CI uploads the JSON so speedups (and regressions) are visible over
//! time.
//!
//! Two more datapoint families ride along for the perf trajectory:
//!
//! * **DIRECT**: the same query shapes evaluated as one monolithic ILP
//!   on a `PAQ_DIRECT_SCALE`-row prefix of the table (default 1600 —
//!   DIRECT's curves are the paper's motivation for SKETCHREFINE, so
//!   the prefix keeps per-commit CI time bounded);
//! * **server round-trip**: a `paq-server` on loopback TCP over the
//!   same database, measuring cold (partitioning build) and warm
//!   end-to-end latency of a small query through the full wire stack.
//!
//! A fourth datapoint family closes the telemetry loop: the
//! **cost-based router**. Every measured run above doubles as router
//! warm-up (forced DIRECT and SKETCHREFINE executions record their
//! observed costs into the shared telemetry ring), and a probe phase
//! then executes `Route::Auto` queries, comparing the model's choice
//! against the static threshold and both predicted costs against
//! observations — appended as the `router` section of the JSON.
//!
//! A fifth family tracks the **durable store** (`paq-store`): a
//! fresh durable session is cold-booted (register, cold partitioning
//! build, snapshot), then recovered via `PackageDb::open` — snapshot
//! load plus parallel WAL replay — and the same query must come back
//! as a warm cache `Hit`. Wall-clock for both paths and the on-disk
//! store size land in the `recovery` section of the JSON.
//!
//! A sixth family exercises the **fault path** (`paq-chaos`): a
//! [`RetryingClient`](paq_server::RetryingClient) drives a server over
//! an in-process pipe wrapped in a seeded
//! [`FaultPlan`](paq_chaos::FaultPlan) that periodically severs the
//! connection, plus one lost-ack append retried under its idempotency
//! token. The `faults` section records how many faults were injected,
//! surfaced as typed errors, and retried, whether the token was
//! deduplicated, and that the final row count converged exactly —
//! structure the CI gate checks (`bench_gate`), never timings.
//!
//! A seventh family probes **delta-aware partition maintenance**
//! (`DbConfig.maintenance`): a mixed append/query stream runs twice
//! over the same rows — once with maintenance on (absorbed appends
//! patch the cached partitioning in place, the final over-threshold
//! append merges) and once under the legacy invalidate-on-append
//! contract. The `maintenance` section records cache hit rate and p50
//! query latency for both passes, the absorb/patch/merge counters, and
//! whether the maintained answer stayed bit-identical to a cold
//! rebuild of the same rows at threads 1 and 4. `bench_gate` checks
//! the structure (hit rate > 0, identity) on every host and the p50
//! only on multi-core runners.
//!
//! An eighth family closes the **observability** loop (`paq-obs`): the
//! server phase's wire `Metrics` snapshot supplies server-side
//! queue-wait and handle-time percentiles, the Prometheus exposition
//! is round-tripped through its parser, and an obs-off control session
//! re-measures the warm round trip over the same data — the spread
//! between the two minima is the entire cost of the registry + span
//! capture on the serve path. All of it lands in the `observability`
//! section; `bench_gate` checks the structure on every host and the
//! overhead ratio on multi-core runners only.
//!
//! A ninth family is the **serving loadgen** (wire protocol v7): one
//! bulk tenant keeps a deep pipelined backlog outstanding while paced
//! interactive clients measure round-trip latency, once under
//! weighted-fair admission and once under the FIFO global-bound
//! baseline — same server, same workload, only the dequeue discipline
//! differs. A quota probe oversubmits a tight per-client quota to show
//! shedding as typed `Busy` answers, and one `RegisterTable` frame is
//! encoded to record its byte count — deterministic for the pinned
//! seed, so any drift means the wire format moved. All of it lands in
//! the `serving` section; `bench_gate` checks the structure (frame
//! bytes unchanged, probe shed typed) on every host and fair-vs-FIFO
//! interactive p99 on multi-core runners only.
//!
//! Knobs: `PAQ_REFINE_SCALE` (rows, default 12800),
//! `PAQ_REFINE_THREADS` (parallel thread count, default 4),
//! `PAQ_REFINE_REPS` (timing repetitions, min is kept, default 3),
//! `PAQ_DIRECT_SCALE` (DIRECT prefix rows, default 1600),
//! `PAQ_BENCH_SEED` (pinned default — snapshots must reproduce), and
//! `PAQ_REFINE_OUT` (output path).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use paq_bench::bench_seed;
use paq_core::SketchRefineReport;
use paq_datagen::galaxy_table;
use paq_db::{
    CacheOutcome, DbConfig, Durability, ObsConfig, PackageDb, Route, RouterVerdict, Strategy,
};
use paq_lang::{parse_paql, PackageQuery};
use paq_partition::{PartitionConfig, Partitioner, Partitioning};
use paq_relational::agg::{aggregate, AggFunc};
use paq_relational::Table;
use paq_solver::SolverConfig;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One query's sequential-vs-parallel measurement.
struct QueryResult {
    name: &'static str,
    text: String,
    groups_refined: usize,
    seq_refine: Duration,
    par_refine: Duration,
    par_report: SketchRefineReport,
    identical: bool,
}

/// The REFINE-heavy workload: bulk selections whose COUNT pins far more
/// tuples than one group holds, so the sketch spreads across many
/// groups and REFINE has wide waves to solve; plus one windowed query
/// whose commits shift sibling bounds, exercising (and recording) the
/// conflict re-queue path.
fn workload(table: &Table) -> Vec<(&'static str, PackageQuery)> {
    let n = table.num_rows();
    let mean_r = aggregate(table, AggFunc::Avg, "r")
        .expect("mean r")
        .as_f64()
        .unwrap_or(0.0);
    let mk = |text: String| parse_paql(&text).expect("bench query parses");
    vec![
        (
            "R1-bulk-max",
            mk(format!(
                "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 \
                 SUCH THAT COUNT(P.*) = {} MAXIMIZE SUM(P.r)",
                n / 2
            )),
        ),
        (
            "R2-bulk-min",
            mk(format!(
                "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 \
                 SUCH THAT COUNT(P.*) = {} MINIMIZE SUM(P.extinction_r)",
                n / 3
            )),
        ),
        (
            "R3-bulk-redshift",
            mk(format!(
                "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 \
                 SUCH THAT COUNT(P.*) = {} MAXIMIZE SUM(P.redshift)",
                2 * n / 5
            )),
        ),
        (
            "R4-window",
            mk(format!(
                "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 \
                 SUCH THAT COUNT(P.*) = 10 \
                 AND SUM(P.r) BETWEEN {:.6} AND {:.6} \
                 MINIMIZE SUM(P.extinction_r)",
                10.0 * mean_r * 0.95,
                10.0 * mean_r * 1.05
            )),
        ),
    ]
}

/// Best-of-`reps` REFINE time at the given thread count, with the last
/// run's package and report.
fn measure(
    db: &mut PackageDb,
    query: &PackageQuery,
    partitioning: &Arc<Partitioning>,
    threads: usize,
    reps: u64,
) -> (Duration, paq_core::Package, SketchRefineReport) {
    db.config_mut().sketchrefine.threads = threads;
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let exec = db
            .execute_with_partitioning(query, Arc::clone(partitioning))
            .expect("bench query must solve");
        let report = exec.report.expect("SKETCHREFINE produces a report");
        best = best.min(report.refine_time);
        last = Some((exec.package, report));
    }
    let (package, report) = last.expect("at least one repetition");
    (best, package, report)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One DIRECT measurement on the `direct_rows`-row table prefix.
struct DirectResult {
    name: &'static str,
    rows: usize,
    time: Duration,
    cardinality: u64,
}

/// DIRECT datapoints: the same query *shapes* as the REFINE workload,
/// scaled to the prefix size, each solved as one monolithic ILP.
fn measure_direct(db: &PackageDb, relation: &str, rows: usize, reps: u64) -> Vec<DirectResult> {
    let shapes: [(&'static str, String); 3] = [
        (
            "D1-bulk-max",
            format!(
                "SELECT PACKAGE(G) AS P FROM {relation} G REPEAT 0 \
                 SUCH THAT COUNT(P.*) = {} MAXIMIZE SUM(P.r)",
                rows / 2
            ),
        ),
        (
            "D2-bulk-min",
            format!(
                "SELECT PACKAGE(G) AS P FROM {relation} G REPEAT 0 \
                 SUCH THAT COUNT(P.*) = {} MINIMIZE SUM(P.extinction_r)",
                rows / 3
            ),
        ),
        (
            "D3-pick-10",
            format!(
                "SELECT PACKAGE(G) AS P FROM {relation} G REPEAT 0 \
                 SUCH THAT COUNT(P.*) = 10 MINIMIZE SUM(P.extinction_r)"
            ),
        ),
    ];
    shapes
        .into_iter()
        .map(|(name, text)| {
            let query = parse_paql(&text).expect("direct bench query parses");
            let mut best = Duration::MAX;
            let mut cardinality = 0;
            for _ in 0..reps.max(1) {
                let exec = db
                    .execute_with(&query, Route::ForceDirect)
                    .expect("direct bench query must solve");
                best = best.min(exec.timings.evaluate);
                cardinality = exec.package.cardinality();
            }
            DirectResult {
                name,
                rows,
                time: best,
                cardinality,
            }
        })
        .collect()
}

/// End-to-end server latency over loopback TCP: one cold request
/// (includes the lazy partitioning build) and the best warm round trip.
struct ServerLatency {
    cold: Duration,
    warm_min: Duration,
    warm_mean: Duration,
    server_evaluate_min: Duration,
    requests: u64,
    /// Wire `Metrics` snapshot taken after the warm loop: carries the
    /// server-side `server.queue_wait` / `server.handle` histograms for
    /// the `observability` section (empty when obs is disabled).
    metrics: paq_obs::RegistrySnapshot,
}

fn measure_server(db: &PackageDb, paql: &str, warm_reps: u64) -> ServerLatency {
    use paq_server::{spawn_tcp, Client, RequestBuilder, Server, ServerConfig};
    use std::time::Instant;

    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let handle = spawn_tcp(server, "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("loopback connect");

    // Pin the route: this figure tracks the wire + evaluator stack
    // across commits, so it must not flip strategies as the router's
    // telemetry (fed by the phases above) evolves mid-measurement.
    let request = RequestBuilder::query(paql).force_sketch_refine();
    let start = Instant::now();
    let first = request
        .send(&mut client)
        .expect("server bench query must solve");
    let cold = start.elapsed();
    let expected = first.package();

    let mut warm_min = Duration::MAX;
    let mut warm_total = Duration::ZERO;
    let mut server_evaluate_min = Duration::MAX;
    let reps = warm_reps.max(1);
    for _ in 0..reps {
        let start = Instant::now();
        let answer = request.send(&mut client).expect("warm request");
        let elapsed = start.elapsed();
        assert_eq!(
            answer.package().members(),
            expected.members(),
            "warm answers must be identical"
        );
        warm_min = warm_min.min(elapsed);
        warm_total += elapsed;
        server_evaluate_min = server_evaluate_min.min(answer.timings.evaluate);
    }
    let metrics = client.metrics().expect("metrics snapshot over the wire");
    client.shutdown().expect("graceful shutdown");
    handle.shutdown();
    ServerLatency {
        cold,
        warm_min,
        warm_mean: warm_total / reps as u32,
        server_evaluate_min,
        requests: 1 + reps,
        metrics,
    }
}

/// One `Route::Auto` probe of the warmed cost-based router.
struct RouterProbe {
    name: &'static str,
    relation: &'static str,
    rows: usize,
    text: String,
    /// What the static threshold ladder would have chosen.
    static_route: Strategy,
    /// What the router actually chose.
    routed: Strategy,
    /// `true` when the warm model decided (vs the threshold fallback).
    decided_by_model: bool,
    /// Model predictions (DIRECT ms, SKETCHREFINE ms) when it decided.
    predicted: Option<(f64, f64)>,
    /// Observed evaluation cost of the chosen strategy.
    observed: Duration,
    /// Observed cost of the static route, measured via a forced run
    /// when the router disagreed with the threshold.
    static_observed: Option<Duration>,
    /// Relative error of the chosen strategy's prediction (%).
    prediction_error_pct: Option<f64>,
}

impl RouterProbe {
    fn rerouted(&self) -> bool {
        self.routed != self.static_route
    }

    /// Did the reroute pay off in observed cost?
    fn improved(&self) -> Option<bool> {
        self.static_observed
            .map(|baseline| self.rerouted() && self.observed < baseline)
    }
}

/// Probe the warmed router with `Route::Auto` executions spanning both
/// sides of the static threshold, recording decisions, predictions,
/// and observed costs — the telemetry feedback loop made visible.
fn measure_router(db: &PackageDb, n: usize, direct_n: usize) -> Vec<RouterProbe> {
    let probes: [(&'static str, &'static str, usize, String); 4] = [
        (
            "P1-direct-bulk-max",
            "GalaxyDirect",
            direct_n,
            format!(
                "SELECT PACKAGE(G) AS P FROM GalaxyDirect G REPEAT 0 \
                 SUCH THAT COUNT(P.*) = {} MAXIMIZE SUM(P.r)",
                direct_n / 2
            ),
        ),
        (
            "P2-direct-bulk-min",
            "GalaxyDirect",
            direct_n,
            format!(
                "SELECT PACKAGE(G) AS P FROM GalaxyDirect G REPEAT 0 \
                 SUCH THAT COUNT(P.*) = {} MINIMIZE SUM(P.extinction_r)",
                direct_n / 3
            ),
        ),
        (
            "P3-galaxy-pick-10",
            "Galaxy",
            n,
            "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 \
             SUCH THAT COUNT(P.*) = 10 MINIMIZE SUM(P.extinction_r)"
                .to_owned(),
        ),
        (
            "P4-galaxy-bulk-min",
            "Galaxy",
            n,
            format!(
                "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 \
                 SUCH THAT COUNT(P.*) = {} MINIMIZE SUM(P.extinction_r)",
                n / 3
            ),
        ),
    ];
    let observed_cost = |exec: &paq_db::Execution| match &exec.report {
        Some(r) => r.observed_cost(),
        None => exec.timings.evaluate,
    };
    probes
        .into_iter()
        .map(|(name, relation, rows, text)| {
            let query = parse_paql(&text).expect("router probe parses");
            let static_route = if rows <= db.config().direct_threshold {
                Strategy::Direct
            } else {
                Strategy::SketchRefine
            };
            let exec = db
                .execute_with(&query, Route::Auto)
                .expect("router probe must solve");
            let observed = observed_cost(&exec);
            let (decided_by_model, predicted) = match exec.router {
                RouterVerdict::Model(p) => (true, Some((p.direct_ms, p.sketchrefine_ms))),
                _ => (false, None),
            };
            // When the router disagreed with the threshold, measure the
            // road not taken so the JSON can say whether the reroute
            // actually won.
            let static_observed = (exec.strategy != static_route).then(|| {
                let forced = match static_route {
                    Strategy::Direct => Route::ForceDirect,
                    Strategy::SketchRefine => Route::ForceSketchRefine,
                };
                let baseline = db
                    .execute_with(&query, forced)
                    .expect("static baseline must solve");
                observed_cost(&baseline)
            });
            let prediction_error_pct = predicted.map(|(direct_ms, sketchrefine_ms)| {
                let predicted_chosen = match exec.strategy {
                    Strategy::Direct => direct_ms,
                    Strategy::SketchRefine => sketchrefine_ms,
                };
                let observed_ms = (observed.as_secs_f64() * 1e3).max(1e-9);
                (predicted_chosen - observed_ms).abs() / observed_ms * 100.0
            });
            RouterProbe {
                name,
                relation,
                rows,
                text,
                static_route,
                routed: exec.strategy,
                decided_by_model,
                predicted,
                observed,
                static_observed,
                prediction_error_pct,
            }
        })
        .collect()
}

/// Cold boot vs snapshot+WAL recovery of the durable store.
struct RecoveryResult {
    /// Fresh durable session: register + cold partitioning build + snapshot.
    cold_boot: Duration,
    /// `PackageDb::open` on the same directory: snapshot load + WAL replay.
    recover_open: Duration,
    /// The same query against the recovered session.
    warm_query: Duration,
    /// Did the recovered session serve the partitioning as a cache `Hit`?
    warm_hit: bool,
    store_bytes: u64,
    tables_recovered: u64,
    partitionings_recovered: u64,
    telemetry_recovered: u64,
    replay_threads: usize,
}

/// Durable-store datapoint: how long a cold boot (register + cold
/// partitioning build + snapshot) takes vs recovering the same state
/// from disk, and whether the recovered session answers warm (cache
/// `Hit`, zero rebuilds). Structure flags are gated in CI; the
/// timings are trajectory-only (single-CPU runners make them noisy).
fn measure_recovery(table: &Table, config: &DbConfig, replay_threads: usize) -> RecoveryResult {
    use std::time::Instant;

    let dir = std::env::temp_dir().join(format!("paq-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench store dir");
    let durability = || Durability {
        replay_threads,
        ..Durability::new(&dir)
    };
    let query = parse_paql(
        "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 \
         SUCH THAT COUNT(P.*) = 10 MINIMIZE SUM(P.extinction_r)",
    )
    .expect("recovery query parses");

    let start = Instant::now();
    {
        let db = PackageDb::open(config.clone(), durability()).expect("open fresh store");
        db.register_table("Galaxy", table.clone());
        let exec = db
            .execute_with(&query, Route::ForceSketchRefine)
            .expect("cold recovery query");
        assert!(
            matches!(exec.cache, CacheOutcome::Miss { .. }),
            "fresh store must build the partitioning cold"
        );
        db.snapshot_now().expect("snapshot the warm state");
    }
    let cold_boot = start.elapsed();

    let start = Instant::now();
    let db = PackageDb::open(config.clone(), durability()).expect("recover store");
    let recover_open = start.elapsed();
    let stats = db.durability_stats().expect("durable session has stats");

    let start = Instant::now();
    let exec = db
        .execute_with(&query, Route::ForceSketchRefine)
        .expect("warm recovery query");
    let warm_query = start.elapsed();
    let warm_hit = matches!(exec.cache, CacheOutcome::Hit { .. });

    let store_bytes = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(&dir);
    RecoveryResult {
        cold_boot,
        recover_open,
        warm_query,
        warm_hit,
        store_bytes,
        tables_recovered: stats.recovered_tables,
        partitionings_recovered: stats.recovered_partitionings,
        telemetry_recovered: stats.recovered_telemetry,
        replay_threads,
    }
}

/// Chaos datapoint: counters from one deterministic fault-injection
/// scenario. Structure only — the gate checks that faults were
/// injected, surfaced typed, retried, and that the client converged.
struct FaultsResult {
    plan_seed: u64,
    injected: u64,
    surfaced: u64,
    retried: u64,
    reconnects: u64,
    deduped: u64,
    handler_panics: u64,
    rows_expected: u64,
    rows_final: u64,
    converged: bool,
}

/// Drive a live server through a deterministically flaky in-process
/// pipe: a [`paq_server::RetryingClient`] registers a table, appends
/// rows, and solves a query while a seeded [`paq_chaos::FaultPlan`]
/// periodically severs the connection; then one append's ack is
/// dropped and the retry is answered from the server's token cache.
/// Every injected fault must surface as a typed transient error, every
/// surfaced error must be retried to success, and the final row count
/// must be exact — faults slow the client down, they never change the
/// answer.
fn measure_faults(plan_seed: u64) -> FaultsResult {
    use paq_chaos::{ChaosStream, FaultPlan, Trigger};
    use paq_relational::{DataType, Schema, Value};
    use paq_server::{
        pipe_listener, Client, RequestBuilder, RetryPolicy, RetryingClient, Server, ServerConfig,
    };
    use std::panic::AssertUnwindSafe;
    use std::time::Instant;

    // A small dedicated table: this phase measures the fault path, not
    // solver throughput.
    let schema = Schema::from_pairs(&[("value", DataType::Float), ("weight", DataType::Float)]);
    let mut items = Table::new(schema);
    let mut state = plan_seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let base_rows = 40u64;
    for _ in 0..base_rows {
        let v = (next() % 100) as f64 / 10.0 + 1.0;
        let w = (next() % 50) as f64 / 10.0 + 0.5;
        items
            .push_row(vec![Value::Float(v), Value::Float(w)])
            .expect("chaos row matches schema");
    }
    let appended_row = || vec![Value::Float(3.25), Value::Float(1.5)];
    let retried_appends = 8u64;
    // Retried appends plus the one lost-ack append (applied exactly
    // once despite its tokened retry).
    let rows_expected = base_rows + retried_appends + 1;

    let db = PackageDb::with_config(DbConfig::default());
    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let (connector, listener) = pipe_listener();

    let plan = FaultPlan::new(plan_seed);
    // Same cadence as the chaos suite's convergence plan: every 6th
    // write and every 9th read dies, so faults land across registers,
    // appends, and the solve.
    plan.on("bench.write", Trigger::FailEveryK(6));
    plan.on("bench.read", Trigger::FailEveryK(9));
    // The lossy client's handshake and request go through; reads 1–3
    // are its HelloAck frame (first length byte, the other three, the
    // payload), so the ack it loses starts at read 4.
    plan.on("lossy.read", Trigger::FailNth(4));

    // The serve loop joins inside the scope, so the body must always
    // reach trigger_shutdown — even when an expect fires.
    let (stats, surfaced, cardinality) = std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut surfaced = 0u64;
            let mut client = RetryingClient::new(
                || {
                    connector
                        .connect()
                        .map(|conn| ChaosStream::new(conn, &plan, "bench"))
                },
                RetryPolicy {
                    max_retries: 16,
                    base_backoff: Duration::from_millis(1),
                    jitter: 0.0,
                    seed: plan_seed ^ 0x5EED,
                    ..RetryPolicy::default()
                },
            );
            client
                .register_table("Chaos", &items)
                .expect("register converges through the flaky pipe");
            for _ in 0..retried_appends {
                client
                    .append_row("Chaos", appended_row())
                    .expect("append converges through the flaky pipe");
            }

            // Lost ack: the append applies, the reply dies; the retry
            // carries the same token and must be deduplicated.
            const TOKEN: u64 = 0xFA_0175;
            let mut lossy = Client::over(ChaosStream::new(
                connector.connect().unwrap(),
                &plan,
                "lossy",
            ));
            let lost = lossy
                .append_row_with_token("Chaos", appended_row(), Some(TOKEN))
                .expect_err("the ack must be lost");
            assert!(lost.is_transient(), "lost ack is retryable: {lost:?}");
            surfaced += 1;
            drop(lossy);
            // The mutation may still be in flight server-side; wait for
            // it before retrying, or the token has nothing to dedupe.
            let deadline = Instant::now() + Duration::from_secs(5);
            while db.table("Chaos").expect("table registered").num_rows() as u64 != rows_expected {
                assert!(Instant::now() < deadline, "lost-ack append never landed");
                std::thread::sleep(Duration::from_millis(2));
            }
            let mut probe = Client::over(connector.connect().unwrap());
            probe
                .append_row_with_token("Chaos", appended_row(), Some(TOKEN))
                .expect("tokened retry is answered from ack memory");

            let exec = RequestBuilder::query(
                "SELECT PACKAGE(C) AS P FROM Chaos C REPEAT 0 \
                 SUCH THAT COUNT(P.*) = 2 AND SUM(P.weight) <= 1000 \
                 MAXIMIZE SUM(P.value)",
            )
            .relation("Chaos")
            .threads(1)
            .send_retrying(&mut client)
            .expect("query converges through the flaky pipe");
            // Every retried attempt was provoked by one surfaced typed
            // transient error.
            surfaced += client.retry_stats().retries;
            (client.retry_stats(), surfaced, exec.package().cardinality())
        }));
        server.trigger_shutdown();
        match result {
            Ok(value) => value,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    });

    let rows_final = db.table("Chaos").map(|t| t.num_rows() as u64).unwrap_or(0);
    let handler_panics = server.handler_panics();
    FaultsResult {
        plan_seed,
        injected: plan.injected(),
        surfaced,
        // The retrying client's automatic retries plus the manual
        // tokened retry of the lost ack.
        retried: stats.retries + 1,
        reconnects: stats.reconnects,
        deduped: server.deduped_mutations(),
        handler_panics,
        rows_expected,
        rows_final,
        converged: rows_final == rows_expected && cardinality == 2 && handler_panics == 0,
    }
}

/// Counters from one pass of the mixed append/query stream.
struct StreamCounters {
    hits: u64,
    misses: u64,
    invalidations: u64,
    hit_rate: f64,
    p50_query: Duration,
}

/// The maintenance probe: the same mixed stream with delta maintenance
/// on and off, plus the final-package identity check.
struct MaintenanceResult {
    base_rows: usize,
    delta_threshold: u64,
    appends: usize,
    queries: usize,
    absorbed_appends: u64,
    patched_entries: u64,
    merges: u64,
    background_rebuilds: u64,
    enabled: StreamCounters,
    baseline: StreamCounters,
    identical: bool,
}

/// Delta-aware maintenance datapoint: drive `delta_threshold + 1`
/// appends through a maintenance-enabled session, querying after every
/// one. The first `delta_threshold` appends must absorb (cache `Hit`,
/// zero invalidations, the cached quad tree patched in place); the
/// last one crosses the threshold and merges (one invalidation, one
/// cold rebuild). The identical stream under the legacy
/// invalidate-on-append contract is the baseline — every query there
/// pays a cold build. Background rebuild stays off so the counters are
/// deterministic.
fn measure_maintenance(seed: u64) -> MaintenanceResult {
    use paq_db::MaintenanceConfig;
    use paq_relational::{DataType, Schema, Value};
    use std::time::Instant;

    let base_rows = 512usize;
    let delta_threshold = 64u64;
    // One append past the threshold so the stream exercises both
    // policies: `delta_threshold` absorbed patches, then one merge.
    let appends = delta_threshold as usize + 1;

    let rows = |count: usize, salt: u64| -> Vec<Vec<Value>> {
        let mut state = salt | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..count)
            .map(|_| {
                let v = (next() % 1000) as f64 / 10.0 + 1.0;
                let w = (next() % 500) as f64 / 10.0 + 0.5;
                vec![Value::Float(v), Value::Float(w)]
            })
            .collect()
    };
    let base = rows(base_rows, seed ^ 0x5EED);
    let delta = rows(appends, seed ^ 0xA11CE);
    let query = parse_paql(
        "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 \
         SUCH THAT COUNT(P.*) = 8 AND SUM(P.weight) <= 120 \
         MAXIMIZE SUM(P.value)",
    )
    .expect("maintenance query parses");

    let db_for = |maintenance: MaintenanceConfig| {
        let db = PackageDb::with_config(DbConfig {
            fallback_to_direct: false,
            maintenance,
            ..DbConfig::default()
        });
        let mut t = Table::new(Schema::from_pairs(&[
            ("value", DataType::Float),
            ("weight", DataType::Float),
        ]));
        for row in &base {
            t.push_row(row.clone()).expect("base row matches schema");
        }
        db.register_table("Items", t);
        db
    };
    // One pass of the stream: a cold query, then append → query.
    let stream = |db: &PackageDb| -> StreamCounters {
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut latencies = Vec::with_capacity(appends + 1);
        for step in 0..=appends {
            if step > 0 {
                db.append_row("Items", delta[step - 1].clone())
                    .expect("maintenance append");
            }
            let start = Instant::now();
            let exec = db
                .execute_with(&query, Route::ForceSketchRefine)
                .expect("maintenance stream query must solve");
            latencies.push(start.elapsed());
            match exec.cache {
                CacheOutcome::Hit { .. } => hits += 1,
                CacheOutcome::Miss { .. } => misses += 1,
                // NotUsed/Provided cannot occur on a forced
                // SKETCHREFINE route through the cache.
                _ => {}
            }
        }
        latencies.sort();
        StreamCounters {
            hits,
            misses,
            invalidations: db.cache_stats().invalidations,
            hit_rate: hits as f64 / (hits + misses).max(1) as f64,
            p50_query: latencies[latencies.len() / 2],
        }
    };

    let mut maintained = db_for(MaintenanceConfig {
        enabled: true,
        delta_threshold,
        background_rebuild: false,
    });
    let enabled = stream(&maintained);
    let m = maintained.maintenance_stats();

    let baseline_db = db_for(MaintenanceConfig::default());
    let baseline = stream(&baseline_db);

    // Identity: the maintained session's answer must be bit-identical
    // to a cold build over the same rows, at threads 1 and 4.
    let mut identical = true;
    for threads in [1usize, 4] {
        let mut fresh = db_for(MaintenanceConfig::default());
        for row in &delta {
            fresh
                .append_row("Items", row.clone())
                .expect("reference append");
        }
        fresh.config_mut().sketchrefine.threads = threads;
        let cold = fresh
            .execute_with(&query, Route::ForceSketchRefine)
            .expect("cold reference query")
            .package;
        maintained.config_mut().sketchrefine.threads = threads;
        let warm = maintained
            .execute_with(&query, Route::ForceSketchRefine)
            .expect("maintained query")
            .package;
        identical &= warm.members() == cold.members();
    }

    MaintenanceResult {
        base_rows,
        delta_threshold,
        appends,
        queries: appends + 1,
        absorbed_appends: m.absorbed_appends,
        patched_entries: m.patched_entries,
        merges: m.merges,
        background_rebuilds: m.background_rebuilds,
        enabled,
        baseline,
        identical,
    }
}

/// Latency distribution for one admission class in one loadgen mode.
struct ClassLatency {
    count: usize,
    p50: Duration,
    p99: Duration,
}

/// One pass of the serving loadgen: a bulk backlog plus paced
/// interactive clients against a pipelined v7 server, fair or FIFO.
struct LoadgenMode {
    interactive: ClassLatency,
    bulk: ClassLatency,
    shed: u64,
}

/// The quota-shed probe: deliberate oversubmission against a tight
/// per-client quota, every rejection surfacing as a typed `Busy`.
struct ShedProbe {
    quota: usize,
    submitted: usize,
    completed: usize,
    typed_busy: usize,
    server_shed: u64,
}

struct LoadgenResult {
    workers: usize,
    interactive_clients: usize,
    interactive_requests: usize,
    bulk_outstanding: usize,
    fair: LoadgenMode,
    fifo: LoadgenMode,
    probe: ShedProbe,
    columnar_rows: usize,
    columnar_bytes: usize,
}

fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// An items-style knapsack table for the loadgen — small enough that
/// every request routes DIRECT and solves in milliseconds, so queueing
/// (not solving) dominates what the A/B measures.
fn loadgen_table(n: usize, seed: u64) -> Table {
    use paq_relational::{DataType, Schema, Value};
    let mut t = Table::new(Schema::from_pairs(&[
        ("value", DataType::Float),
        ("weight", DataType::Float),
    ]));
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..n {
        let v = (next() % 1000) as f64 / 10.0 + 1.0;
        let w = (next() % 500) as f64 / 10.0 + 0.5;
        t.push_row(vec![Value::Float(v), Value::Float(w)]).unwrap();
    }
    t
}

const LOADGEN_WORKERS: usize = 4;
const INTERACTIVE_CLIENTS: usize = 3;
const INTERACTIVE_REQUESTS: usize = 16;
const BULK_OUTSTANDING: usize = 12;

const LOADGEN_BULK_QUERY: &str = "SELECT PACKAGE(R) AS P FROM Load R REPEAT 0 \
     SUCH THAT COUNT(P.*) = 400 AND SUM(P.weight) <= 50000 MAXIMIZE SUM(P.value)";
const LOADGEN_INTERACTIVE_QUERY: &str = "SELECT PACKAGE(R) AS P FROM Load R REPEAT 0 \
     SUCH THAT COUNT(P.*) = 2 MAXIMIZE SUM(P.value)";

/// One loadgen pass: a bulk connection keeps [`BULK_OUTSTANDING`]
/// pipelined submissions in flight the whole time the interactive
/// clients run, so their paced requests always land behind a saturated
/// queue — the only variable between the two passes is the dequeue
/// discipline (`fair`).
fn run_loadgen_mode(db: &PackageDb, fair: bool) -> LoadgenMode {
    use paq_server::{
        pipe_listener, AdmissionConfig, Client, ClientError, HelloOptions, PipelinedClient,
        RequestBuilder, Server, ServerConfig, ShedClass,
    };
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: LOADGEN_WORKERS,
            admission: AdmissionConfig {
                fair,
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        },
    );
    let (connector, listener) = pipe_listener();
    let connector = &connector;
    let stop = AtomicBool::new(false);
    let stop = &stop;

    let (mut interactive, mut bulk_lat, shed) = std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));

        // The bulk tenant: one pipelined connection that replenishes
        // its backlog on every completion until told to stop.
        let bulk_thread = scope.spawn(move || {
            let mut client = PipelinedClient::handshake_as(
                connector.connect().unwrap(),
                HelloOptions {
                    class: ShedClass::Bulk,
                    client_id: 7,
                },
            )
            .unwrap();
            let request = RequestBuilder::query(LOADGEN_BULK_QUERY)
                .relation("Load")
                .force_direct()
                .threads(1);
            let mut outstanding = VecDeque::new();
            let mut latencies = Vec::new();
            loop {
                while outstanding.len() < BULK_OUTSTANDING && !stop.load(Ordering::Acquire) {
                    let submitted = Instant::now();
                    outstanding.push_back((request.submit(&mut client).unwrap(), submitted));
                }
                let Some((ticket, submitted)) = outstanding.pop_front() else {
                    break;
                };
                match client.wait(ticket) {
                    Ok(_) => latencies.push(submitted.elapsed()),
                    Err(ClientError::Busy { .. }) => {} // shed, counted server-side
                    Err(e) => panic!("bulk loadgen request failed: {e}"),
                }
            }
            latencies
        });

        let interactive_threads: Vec<_> = (0..INTERACTIVE_CLIENTS)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = PipelinedClient::handshake_as(
                        connector.connect().unwrap(),
                        HelloOptions {
                            class: ShedClass::Interactive,
                            client_id: 100 + i as u64,
                        },
                    )
                    .unwrap();
                    let request = RequestBuilder::query(LOADGEN_INTERACTIVE_QUERY)
                        .relation("Load")
                        .force_direct()
                        .threads(1);
                    let mut latencies = Vec::with_capacity(INTERACTIVE_REQUESTS);
                    for _ in 0..INTERACTIVE_REQUESTS {
                        let submitted = Instant::now();
                        let ticket = request.submit(&mut client).unwrap();
                        match client.wait(ticket) {
                            Ok(_) => latencies.push(submitted.elapsed()),
                            Err(ClientError::Busy { .. }) => {}
                            Err(e) => panic!("interactive loadgen request failed: {e}"),
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    latencies
                })
            })
            .collect();

        let mut interactive = Vec::new();
        for t in interactive_threads {
            interactive.extend(t.join().expect("interactive loadgen thread"));
        }
        stop.store(true, Ordering::Release);
        let bulk_lat = bulk_thread.join().expect("bulk loadgen thread");

        // All four pinned handler workers are free again — a legacy
        // connection shuts the server down so the serve thread joins.
        let mut admin = Client::over(connector.connect().unwrap());
        admin.shutdown().unwrap();
        (interactive, bulk_lat, server.shed_requests())
    });

    interactive.sort();
    bulk_lat.sort();
    LoadgenMode {
        interactive: ClassLatency {
            count: interactive.len(),
            p50: percentile(&interactive, 0.50),
            p99: percentile(&interactive, 0.99),
        },
        bulk: ClassLatency {
            count: bulk_lat.len(),
            p50: percentile(&bulk_lat, 0.50),
            p99: percentile(&bulk_lat, 0.99),
        },
        shed,
    }
}

/// Oversubmit against a tight per-client quota: ten pipelined bulk
/// queries into a quota of three, all in one write burst. The first
/// three are admitted; with a multi-millisecond service time none can
/// finish before the rest arrive, so every other tag comes back as a
/// typed `Busy` naming the shed class.
fn run_shed_probe(db: &PackageDb) -> ShedProbe {
    use paq_server::{
        pipe_listener, AdmissionConfig, Client, ClientError, HelloOptions, PipelinedClient,
        RequestBuilder, Server, ServerConfig, ShedClass,
    };

    const QUOTA: usize = 3;
    const SUBMITTED: usize = 10;
    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: 1,
            admission: AdmissionConfig {
                per_client_quota: QUOTA,
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        },
    );
    let (connector, listener) = pipe_listener();
    let (completed, typed_busy, server_shed) = std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));
        let mut client = PipelinedClient::handshake_as(
            connector.connect().unwrap(),
            HelloOptions {
                class: ShedClass::Bulk,
                client_id: 9,
            },
        )
        .unwrap();
        let request = RequestBuilder::query(LOADGEN_BULK_QUERY)
            .relation("Load")
            .force_direct()
            .threads(1);
        let tickets: Vec<_> = (0..SUBMITTED)
            .map(|_| request.submit(&mut client).unwrap())
            .collect();
        let mut completed = 0;
        let mut typed_busy = 0;
        for ticket in tickets {
            match client.wait(ticket) {
                Ok(_) => completed += 1,
                Err(ClientError::Busy {
                    retry_after_ms,
                    shed_class,
                    ..
                }) => {
                    assert!(retry_after_ms > 0, "shed Busy must carry a pacing hint");
                    assert_eq!(
                        shed_class,
                        Some(ShedClass::Bulk),
                        "shed must name its class"
                    );
                    typed_busy += 1;
                }
                Err(e) => panic!("shed probe request failed: {e}"),
            }
        }
        // Free the single pinned handler worker before shutting down.
        drop(client);
        let mut admin = Client::over(connector.connect().unwrap());
        admin.shutdown().unwrap();
        (completed, typed_busy, server.shed_requests())
    });
    ShedProbe {
        quota: QUOTA,
        submitted: SUBMITTED,
        completed,
        typed_busy,
        server_shed,
    }
}

/// The serving loadgen family: fairness A/B under a saturating bulk
/// backlog, the quota-shed probe, and the columnar-vs-row encoding of
/// one `RegisterTable` body.
fn measure_loadgen(seed: u64) -> LoadgenResult {
    use paq_server::{wire7, Request};

    let db = PackageDb::with_config(DbConfig {
        obs: ObsConfig {
            enabled: false, // the A/B measures scheduling, not recording
            ..ObsConfig::default()
        },
        ..DbConfig::default()
    });
    db.register_table("Load", loadgen_table(800, seed ^ 0x10AD));

    let fair = run_loadgen_mode(&db, true);
    let fifo = run_loadgen_mode(&db, false);
    let probe = run_shed_probe(&db);

    // One table in the wire's columnar chunks (typed columns, null
    // bitmaps, per-chunk crc32): a fixed input whose byte count only
    // moves when the format does.
    let columnar_rows = 4096;
    let request = Request::RegisterTable {
        name: "Load".to_owned(),
        table: galaxy_table(columnar_rows, seed ^ 0xC01),
        token: None,
    };
    let columnar_bytes = wire7::encode_request_v7(0, &request).len();

    LoadgenResult {
        workers: LOADGEN_WORKERS,
        interactive_clients: INTERACTIVE_CLIENTS,
        interactive_requests: INTERACTIVE_CLIENTS * INTERACTIVE_REQUESTS,
        bulk_outstanding: BULK_OUTSTANDING,
        fair,
        fifo,
        probe,
        columnar_rows,
        columnar_bytes,
    }
}

fn main() {
    let n = env_u64("PAQ_REFINE_SCALE", 12_800) as usize;
    let threads = env_u64("PAQ_REFINE_THREADS", 4) as usize;
    let reps = env_u64("PAQ_REFINE_REPS", 3);
    let out_path =
        std::env::var("PAQ_REFINE_OUT").unwrap_or_else(|_| "BENCH_refine.json".to_owned());
    // Pinned independently of PAQ_SEED: the committed snapshot must be
    // reproducible run-to-run (the CI gate diffs against it).
    let seed = bench_seed();

    let host_cpus = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);

    let table = galaxy_table(n, seed);
    let queries = workload(&table);

    // ≥ 64 groups: τ at ~1/96 of the rows (the quad tree overshoots
    // the floor, never undershoots it).
    let tau = (n / 96).max(2);
    let attrs: Vec<String> = ["r", "extinction_r", "redshift"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let partitioning = Arc::new(
        Partitioner::new(PartitionConfig::by_size(attrs, tau))
            .partition(&table)
            .expect("bench partitioning"),
    );
    let groups = partitioning.num_groups();
    assert!(groups >= 64, "need a ≥ 64-group partitioning, got {groups}");

    let direct_n = (env_u64("PAQ_DIRECT_SCALE", 1_600) as usize).min(n);
    let direct_prefix: Vec<usize> = (0..direct_n).collect();
    let direct_table = table.take(&direct_prefix);

    let db_config = DbConfig {
        fallback_to_direct: false,
        solver: SolverConfig::default(),
        ..DbConfig::default()
    };
    // Kept for the recovery phase below, which needs its own durable
    // session over the same data.
    let recovery_table = table.clone();
    let mut db = PackageDb::with_config(db_config.clone());
    db.register_table("Galaxy", table);
    db.register_table("GalaxyDirect", direct_table);

    println!(
        "REFINE perf smoke: n = {n}, {groups} groups (τ = {tau}), \
         threads 1 vs {threads} on {host_cpus} host CPUs, best of {reps}"
    );
    if host_cpus < 2 {
        println!("  NOTE: single-CPU host — threads time-slice one core; expect no speedup here.");
    }
    let mut results = Vec::new();
    for (name, query) in &queries {
        let (seq_refine, seq_pkg, seq_report) = measure(&mut db, query, &partitioning, 1, reps);
        let (par_refine, par_pkg, par_report) =
            measure(&mut db, query, &partitioning, threads, reps);
        let identical = seq_pkg.members() == par_pkg.members();
        println!(
            "  {name:<18} groups_refined {:>3}  seq {:>8.3}ms  par {:>8.3}ms  speedup {:>5.2}x  \
             waves {:>3}  wave_solves {:>4}  requeues {:>4}  identical {identical}",
            seq_report.groups_refined,
            seq_refine.as_secs_f64() * 1e3,
            par_refine.as_secs_f64() * 1e3,
            seq_refine.as_secs_f64() / par_refine.as_secs_f64().max(1e-12),
            par_report.waves,
            par_report.parallel_solves,
            par_report.conflict_requeues,
        );
        results.push(QueryResult {
            name,
            text: query.to_string(),
            groups_refined: seq_report.groups_refined,
            seq_refine,
            par_refine,
            par_report,
            identical,
        });
    }

    let total_seq: f64 = results.iter().map(|r| r.seq_refine.as_secs_f64()).sum();
    let total_par: f64 = results.iter().map(|r| r.par_refine.as_secs_f64()).sum();
    let speedup = total_seq / total_par.max(1e-12);
    let all_identical = results.iter().all(|r| r.identical);
    println!(
        "  total refine: seq {:.3}ms, par {:.3}ms — {speedup:.2}x speedup, packages identical: {all_identical}",
        total_seq * 1e3,
        total_par * 1e3
    );

    // --- DIRECT datapoints (perf trajectory) --------------------------
    db.config_mut().sketchrefine.threads = 1;
    println!("DIRECT datapoints on a {direct_n}-row prefix:");
    let direct_results = measure_direct(&db, "GalaxyDirect", direct_n, reps);
    for d in &direct_results {
        println!(
            "  {:<18} rows {:>6}  evaluate {:>9.3}ms  cardinality {}",
            d.name,
            d.rows,
            d.time.as_secs_f64() * 1e3,
            d.cardinality
        );
    }

    // --- server round-trip latency (end to end over loopback TCP) -----
    let server_query = "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 \
                        SUCH THAT COUNT(P.*) = 10 MINIMIZE SUM(P.extinction_r)";
    let latency = measure_server(&db, server_query, 20);
    println!(
        "server round-trip (loopback TCP, {} requests): cold {:.3}ms (lazy partitioning build), \
         warm min {:.3}ms / mean {:.3}ms, server evaluate min {:.3}ms",
        latency.requests,
        latency.cold.as_secs_f64() * 1e3,
        latency.warm_min.as_secs_f64() * 1e3,
        latency.warm_mean.as_secs_f64() * 1e3,
        latency.server_evaluate_min.as_secs_f64() * 1e3,
    );

    // --- observability: wire percentiles + obs-off control ------------
    // The server phase above ran with observability on (the default);
    // its wire snapshot carries the server-side latency histograms. The
    // gate checks these structurally: present, ordered, and queue-wait
    // not dominating handle time.
    let hist_ms = |name: &str| {
        let h = latency
            .metrics
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} histogram missing from the wire snapshot"));
        let ms = |nanos: Option<u64>| nanos.expect("histogram is non-empty") as f64 / 1e6;
        (h.count, ms(h.p50()), ms(h.p90()), ms(h.p99()))
    };
    let (qw_count, qw_p50, qw_p90, qw_p99) = hist_ms("server.queue_wait");
    let (h_count, h_p50, h_p90, h_p99) = hist_ms("server.handle");
    let exposition = paq_obs::prometheus::render(&latency.metrics);
    let prometheus_roundtrip_ok = paq_obs::prometheus::parse(&exposition)
        .map(|parsed| paq_obs::prometheus::render(&parsed) == exposition)
        .unwrap_or(false);

    // Obs-off control: the same data and pinned query served from a
    // session whose registry is disabled. The spread between the two
    // warm minima is the entire cost of observability on the serve
    // path — the "disabled registry is a no-op" guard.
    let obs_off_db = PackageDb::with_config(DbConfig {
        obs: ObsConfig {
            enabled: false,
            ..ObsConfig::default()
        },
        ..db_config.clone()
    });
    obs_off_db.register_table("Galaxy", recovery_table.clone());
    let obs_off = measure_server(&obs_off_db, server_query, 20);
    assert!(
        obs_off.metrics == paq_obs::RegistrySnapshot::default(),
        "disabled observability must snapshot empty over the wire"
    );
    let obs_overhead_pct =
        (latency.warm_min.as_secs_f64() / obs_off.warm_min.as_secs_f64().max(1e-12) - 1.0) * 100.0;
    println!(
        "observability: queue_wait p50/p90/p99 {qw_p50:.4}/{qw_p90:.4}/{qw_p99:.4}ms ({qw_count} samples), \
         handle p50/p90/p99 {h_p50:.3}/{h_p90:.3}/{h_p99:.3}ms ({h_count} samples), \
         Prometheus round-trip ok: {prometheus_roundtrip_ok}; \
         obs-off warm min {:.3}ms vs obs-on {:.3}ms (overhead {obs_overhead_pct:+.2}%)",
        obs_off.warm_min.as_secs_f64() * 1e3,
        latency.warm_min.as_secs_f64() * 1e3,
    );

    // --- cost-based router: warmed by everything above ----------------
    let probes = measure_router(&db, n, direct_n);
    // One snapshot AFTER the probes, used for both the console line and
    // the JSON: sample counts and decision counters must describe the
    // same instant or the artifact contradicts itself.
    let router_stats = db.router_stats();
    println!(
        "router probes (telemetry after probes: {} DIRECT / {} SKETCHREFINE samples, \
         {} model / {} fallback decisions):",
        router_stats.direct_samples,
        router_stats.sketchrefine_samples,
        router_stats.model_decisions,
        router_stats.fallback_decisions,
    );
    for p in &probes {
        let predicted = match p.predicted {
            Some((d, s)) => format!("D {d:.3}ms / SR {s:.3}ms"),
            None => "—".to_owned(),
        };
        println!(
            "  {:<20} rows {:>6}  static {:<12} routed {:<12} by {:<8} predicted {:<28} \
             observed {:>8.3}ms{}",
            p.name,
            p.rows,
            p.static_route.to_string(),
            p.routed.to_string(),
            if p.decided_by_model {
                "model"
            } else {
                "fallback"
            },
            predicted,
            p.observed.as_secs_f64() * 1e3,
            match (p.static_observed, p.improved()) {
                (Some(b), Some(improved)) => format!(
                    "  (static route observed {:.3}ms — rerouted {})",
                    b.as_secs_f64() * 1e3,
                    if improved { "won" } else { "lost" }
                ),
                _ => String::new(),
            },
        );
    }
    let rerouted = probes.iter().filter(|p| p.rerouted()).count();
    let improved = probes.iter().filter(|p| p.improved() == Some(true)).count();
    let errors: Vec<f64> = probes
        .iter()
        .filter_map(|p| p.prediction_error_pct)
        .collect();
    let mean_error = if errors.is_empty() {
        0.0
    } else {
        errors.iter().sum::<f64>() / errors.len() as f64
    };
    println!(
        "  rerouted vs static threshold: {rerouted}/{} ({improved} with lower observed cost), \
         mean |prediction error| {mean_error:.1}%",
        probes.len()
    );

    // --- durable store: cold boot vs snapshot+WAL recovery ------------
    let recovery = measure_recovery(&recovery_table, &db_config, threads);
    println!(
        "durable store recovery ({} replay threads): cold boot {:.3}ms, recover open {:.3}ms, \
         warm query {:.3}ms (cache hit: {}), store {} bytes, \
         recovered {} tables / {} partitionings / {} telemetry samples",
        recovery.replay_threads,
        recovery.cold_boot.as_secs_f64() * 1e3,
        recovery.recover_open.as_secs_f64() * 1e3,
        recovery.warm_query.as_secs_f64() * 1e3,
        recovery.warm_hit,
        recovery.store_bytes,
        recovery.tables_recovered,
        recovery.partitionings_recovered,
        recovery.telemetry_recovered,
    );

    // --- fault injection: retries, tokens, convergence ----------------
    let faults = measure_faults(0xFA_0175_0000_0001 ^ seed);
    println!(
        "fault injection (in-process pipe, plan seed {:#x}): {} injected, {} surfaced typed, \
         {} retried, {} reconnects, {} deduped, {} handler panics, rows {}/{} — converged: {}",
        faults.plan_seed,
        faults.injected,
        faults.surfaced,
        faults.retried,
        faults.reconnects,
        faults.deduped,
        faults.handler_panics,
        faults.rows_final,
        faults.rows_expected,
        faults.converged,
    );

    // --- delta-aware partition maintenance: mixed append/query stream -
    let maintenance = measure_maintenance(seed);
    println!(
        "partition maintenance ({} base rows, {} appends, {} queries, threshold {}): \
         maintained hit rate {:.3} (hits {} / misses {} / invalidations {}) p50 {:.3}ms, \
         absorbed {} / patched {} / merges {}; \
         baseline hit rate {:.3} (invalidations {}) p50 {:.3}ms — identical to cold rebuild: {}",
        maintenance.base_rows,
        maintenance.appends,
        maintenance.queries,
        maintenance.delta_threshold,
        maintenance.enabled.hit_rate,
        maintenance.enabled.hits,
        maintenance.enabled.misses,
        maintenance.enabled.invalidations,
        maintenance.enabled.p50_query.as_secs_f64() * 1e3,
        maintenance.absorbed_appends,
        maintenance.patched_entries,
        maintenance.merges,
        maintenance.baseline.hit_rate,
        maintenance.baseline.invalidations,
        maintenance.baseline.p50_query.as_secs_f64() * 1e3,
        maintenance.identical,
    );

    // --- serving loadgen: fairness A/B, shed probe, columnar bytes ----
    let serving = measure_loadgen(seed);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!(
        "serving loadgen ({} workers, {} interactive clients x {} requests against a \
         {}-deep bulk backlog):",
        serving.workers,
        serving.interactive_clients,
        serving.interactive_requests / serving.interactive_clients,
        serving.bulk_outstanding,
    );
    for (label, mode) in [("fair", &serving.fair), ("fifo", &serving.fifo)] {
        println!(
            "  {label:<4} interactive p50 {:>8.3}ms p99 {:>8.3}ms ({} served)  \
             bulk p50 {:>8.3}ms p99 {:>8.3}ms ({} served)  shed {}",
            ms(mode.interactive.p50),
            ms(mode.interactive.p99),
            mode.interactive.count,
            ms(mode.bulk.p50),
            ms(mode.bulk.p99),
            mode.bulk.count,
            mode.shed,
        );
    }
    println!(
        "  shed probe: {} submitted into quota {} — {} completed, {} typed Busy \
         ({} shed server-side); columnar RegisterTable {} bytes ({} rows)",
        serving.probe.submitted,
        serving.probe.quota,
        serving.probe.completed,
        serving.probe.typed_busy,
        serving.probe.server_shed,
        serving.columnar_bytes,
        serving.columnar_rows,
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"refine_parallel_waves\",");
    let _ = writeln!(json, "  \"dataset\": \"Galaxy\",");
    let _ = writeln!(json, "  \"rows\": {n},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"groups\": {groups},");
    let _ = writeln!(json, "  \"tau\": {tau},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    if host_cpus < 2 {
        let _ = writeln!(
            json,
            "  \"note\": \"single-CPU host: threads time-slice one core, so no speedup is \
             expected here; the structure counters (waves, requeues, identity) are the signal\","
        );
    }
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"queries\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str("    {");
        let _ = write!(
            json,
            "\"name\": \"{}\", \"query\": \"{}\", \"groups_refined\": {}, \
             \"seq_refine_ms\": {:.3}, \"par_refine_ms\": {:.3}, \"speedup\": {:.3}, \
             \"waves\": {}, \"wave_solves\": {}, \"conflict_requeues\": {}, \"identical\": {}",
            r.name,
            json_escape(&r.text),
            r.groups_refined,
            r.seq_refine.as_secs_f64() * 1e3,
            r.par_refine.as_secs_f64() * 1e3,
            r.seq_refine.as_secs_f64() / r.par_refine.as_secs_f64().max(1e-12),
            r.par_report.waves,
            r.par_report.parallel_solves,
            r.par_report.conflict_requeues,
            r.identical,
        );
        json.push('}');
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"direct\": [\n");
    for (i, d) in direct_results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"rows\": {}, \"evaluate_ms\": {:.3}, \"cardinality\": {}}}",
            d.name,
            d.rows,
            d.time.as_secs_f64() * 1e3,
            d.cardinality,
        );
        json.push_str(if i + 1 < direct_results.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str("  \"server\": {");
    let _ = write!(
        json,
        "\"transport\": \"loopback-tcp\", \"query\": \"{}\", \"pinned_route\": \"SKETCHREFINE\", \
         \"requests\": {}, \
         \"cold_roundtrip_ms\": {:.3}, \"warm_min_roundtrip_ms\": {:.3}, \
         \"warm_mean_roundtrip_ms\": {:.3}, \"server_evaluate_min_ms\": {:.3}",
        json_escape(server_query),
        latency.requests,
        latency.cold.as_secs_f64() * 1e3,
        latency.warm_min.as_secs_f64() * 1e3,
        latency.warm_mean.as_secs_f64() * 1e3,
        latency.server_evaluate_min.as_secs_f64() * 1e3,
    );
    json.push_str("},\n");
    json.push_str("  \"observability\": {\n");
    let _ = writeln!(
        json,
        "    \"queue_wait\": {{\"count\": {qw_count}, \"p50_ms\": {qw_p50:.6}, \
         \"p90_ms\": {qw_p90:.6}, \"p99_ms\": {qw_p99:.6}}},"
    );
    let _ = writeln!(
        json,
        "    \"handle\": {{\"count\": {h_count}, \"p50_ms\": {h_p50:.6}, \
         \"p90_ms\": {h_p90:.6}, \"p99_ms\": {h_p99:.6}}},"
    );
    let _ = writeln!(
        json,
        "    \"prometheus_roundtrip_ok\": {prometheus_roundtrip_ok},"
    );
    let _ = writeln!(
        json,
        "    \"obs_on_warm_min_roundtrip_ms\": {:.3},",
        latency.warm_min.as_secs_f64() * 1e3,
    );
    let _ = writeln!(
        json,
        "    \"obs_off_warm_min_roundtrip_ms\": {:.3},",
        obs_off.warm_min.as_secs_f64() * 1e3,
    );
    let _ = writeln!(json, "    \"obs_overhead_pct\": {obs_overhead_pct:.2}");
    json.push_str("  },\n");
    json.push_str("  \"router\": {\n");
    let _ = writeln!(
        json,
        "    \"direct_samples\": {}, \"sketchrefine_samples\": {}, \
         \"model_decisions\": {}, \"fallback_decisions\": {},",
        router_stats.direct_samples,
        router_stats.sketchrefine_samples,
        router_stats.model_decisions,
        router_stats.fallback_decisions,
    );
    json.push_str("    \"probes\": [\n");
    for (i, p) in probes.iter().enumerate() {
        json.push_str("      {");
        let _ = write!(
            json,
            "\"name\": \"{}\", \"relation\": \"{}\", \"rows\": {}, \"query\": \"{}\", \
             \"static_route\": \"{}\", \"routed\": \"{}\", \"decided_by\": \"{}\"",
            p.name,
            p.relation,
            p.rows,
            json_escape(&p.text),
            p.static_route,
            p.routed,
            if p.decided_by_model {
                "model"
            } else {
                "fallback"
            },
        );
        if let Some((d, s)) = p.predicted {
            let _ = write!(
                json,
                ", \"predicted_direct_ms\": {d:.3}, \"predicted_sketchrefine_ms\": {s:.3}"
            );
        }
        let _ = write!(
            json,
            ", \"observed_ms\": {:.3}",
            p.observed.as_secs_f64() * 1e3
        );
        if let Some(b) = p.static_observed {
            let _ = write!(
                json,
                ", \"static_observed_ms\": {:.3}, \"improved\": {}",
                b.as_secs_f64() * 1e3,
                p.improved() == Some(true),
            );
        }
        if let Some(e) = p.prediction_error_pct {
            let _ = write!(json, ", \"prediction_error_pct\": {e:.1}");
        }
        json.push('}');
        json.push_str(if i + 1 < probes.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ],\n");
    let _ = writeln!(
        json,
        "    \"rerouted\": {rerouted}, \"improved\": {improved}, \
         \"mean_prediction_error_pct\": {mean_error:.1}"
    );
    json.push_str("  },\n");
    json.push_str("  \"recovery\": {");
    let _ = write!(
        json,
        "\"cold_boot_ms\": {:.3}, \"recover_open_ms\": {:.3}, \"warm_query_ms\": {:.3}, \
         \"warm_hit\": {}, \"store_bytes\": {}, \"tables_recovered\": {}, \
         \"partitionings_recovered\": {}, \"telemetry_recovered\": {}, \"replay_threads\": {}",
        recovery.cold_boot.as_secs_f64() * 1e3,
        recovery.recover_open.as_secs_f64() * 1e3,
        recovery.warm_query.as_secs_f64() * 1e3,
        recovery.warm_hit,
        recovery.store_bytes,
        recovery.tables_recovered,
        recovery.partitionings_recovered,
        recovery.telemetry_recovered,
        recovery.replay_threads,
    );
    json.push_str("},\n");
    json.push_str("  \"faults\": {");
    let _ = write!(
        json,
        "\"transport\": \"in-process-pipe\", \"plan_seed\": {}, \"injected\": {}, \
         \"surfaced\": {}, \"retried\": {}, \"reconnects\": {}, \"deduped\": {}, \
         \"handler_panics\": {}, \"rows_expected\": {}, \"rows_final\": {}, \"converged\": {}",
        faults.plan_seed,
        faults.injected,
        faults.surfaced,
        faults.retried,
        faults.reconnects,
        faults.deduped,
        faults.handler_panics,
        faults.rows_expected,
        faults.rows_final,
        faults.converged,
    );
    json.push_str("},\n");
    json.push_str("  \"maintenance\": {\n");
    let _ = writeln!(
        json,
        "    \"base_rows\": {}, \"delta_threshold\": {}, \"appends\": {}, \"queries\": {},",
        maintenance.base_rows,
        maintenance.delta_threshold,
        maintenance.appends,
        maintenance.queries,
    );
    let _ = writeln!(
        json,
        "    \"absorbed_appends\": {}, \"patched_entries\": {}, \"merges\": {}, \
         \"background_rebuilds\": {},",
        maintenance.absorbed_appends,
        maintenance.patched_entries,
        maintenance.merges,
        maintenance.background_rebuilds,
    );
    let _ = writeln!(
        json,
        "    \"hits\": {}, \"misses\": {}, \"invalidations\": {}, \"cache_hit_rate\": {:.4}, \
         \"p50_query_ms\": {:.3},",
        maintenance.enabled.hits,
        maintenance.enabled.misses,
        maintenance.enabled.invalidations,
        maintenance.enabled.hit_rate,
        maintenance.enabled.p50_query.as_secs_f64() * 1e3,
    );
    let _ = writeln!(
        json,
        "    \"baseline\": {{\"hits\": {}, \"misses\": {}, \"invalidations\": {}, \
         \"cache_hit_rate\": {:.4}, \"p50_query_ms\": {:.3}}},",
        maintenance.baseline.hits,
        maintenance.baseline.misses,
        maintenance.baseline.invalidations,
        maintenance.baseline.hit_rate,
        maintenance.baseline.p50_query.as_secs_f64() * 1e3,
    );
    let _ = writeln!(json, "    \"identical\": {}", maintenance.identical);
    json.push_str("  },\n");
    json.push_str("  \"serving\": {\n");
    let _ = writeln!(
        json,
        "    \"transport\": \"in-process-pipe\", \"workers\": {}, \
         \"interactive_clients\": {}, \"interactive_requests\": {}, \
         \"bulk_outstanding\": {},",
        serving.workers,
        serving.interactive_clients,
        serving.interactive_requests,
        serving.bulk_outstanding,
    );
    for (key, mode) in [("fair", &serving.fair), ("fifo", &serving.fifo)] {
        let _ = writeln!(
            json,
            "    \"{key}\": {{\"interactive\": {{\"count\": {}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {:.3}}}, \"bulk\": {{\"count\": {}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {:.3}}}, \"shed\": {}}},",
            mode.interactive.count,
            ms(mode.interactive.p50),
            ms(mode.interactive.p99),
            mode.bulk.count,
            ms(mode.bulk.p50),
            ms(mode.bulk.p99),
            mode.shed,
        );
    }
    let _ = writeln!(
        json,
        "    \"shed_probe\": {{\"submitted\": {}, \"quota\": {}, \"completed\": {}, \
         \"typed_busy\": {}, \"server_shed\": {}}},",
        serving.probe.submitted,
        serving.probe.quota,
        serving.probe.completed,
        serving.probe.typed_busy,
        serving.probe.server_shed,
    );
    let _ = writeln!(
        json,
        "    \"columnar_rows\": {}, \"columnar_register_bytes\": {}",
        serving.columnar_rows, serving.columnar_bytes,
    );
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"total_seq_refine_ms\": {:.3},", total_seq * 1e3);
    let _ = writeln!(json, "  \"total_par_refine_ms\": {:.3},", total_par * 1e3);
    let _ = writeln!(json, "  \"total_speedup\": {speedup:.3},");
    let _ = writeln!(json, "  \"packages_identical\": {all_identical}");
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write BENCH_refine.json");
    println!("wrote {out_path}");

    assert!(all_identical, "parallel REFINE diverged from sequential");
    assert!(
        prometheus_roundtrip_ok,
        "the Prometheus exposition must parse back to an identical snapshot"
    );
    assert!(
        qw_count >= 1 && h_count >= 1,
        "server-side histograms must have recorded the bench traffic \
         (queue_wait {qw_count}, handle {h_count})"
    );
    assert!(
        recovery.warm_hit && recovery.partitionings_recovered >= 1,
        "recovered store must serve the partitioning as a warm cache hit \
         (hit {}, partitionings {})",
        recovery.warm_hit,
        recovery.partitionings_recovered
    );
    assert!(
        rerouted >= 1 && improved >= 1,
        "the warmed router must reroute at least one probe away from the static \
         threshold with lower observed cost (rerouted {rerouted}, improved {improved})"
    );
    assert!(
        faults.converged
            && faults.injected >= 1
            && faults.surfaced >= 1
            && faults.retried >= 1
            && faults.deduped >= 1
            && faults.handler_panics == 0,
        "the chaos phase must inject, surface, retry, dedupe, and converge \
         (injected {}, surfaced {}, retried {}, deduped {}, panics {}, converged {})",
        faults.injected,
        faults.surfaced,
        faults.retried,
        faults.deduped,
        faults.handler_panics,
        faults.converged,
    );
    assert!(
        serving.probe.typed_busy >= 1 && serving.probe.completed >= 1,
        "the quota probe must both admit and shed ({} completed, {} typed Busy)",
        serving.probe.completed,
        serving.probe.typed_busy,
    );
    assert!(
        serving.fair.interactive.count == serving.interactive_requests
            && serving.fifo.interactive.count == serving.interactive_requests,
        "every paced interactive request must be served under default admission \
         (fair {}, fifo {}, expected {})",
        serving.fair.interactive.count,
        serving.fifo.interactive.count,
        serving.interactive_requests,
    );
    assert!(
        maintenance.identical
            && maintenance.absorbed_appends == maintenance.delta_threshold
            && maintenance.merges == 1
            && maintenance.enabled.invalidations == maintenance.merges
            && maintenance.enabled.misses == 1 + maintenance.merges
            && maintenance.enabled.hit_rate > maintenance.baseline.hit_rate,
        "absorbed appends must keep the cache warm until the threshold — zero \
         invalidations and zero cold builds besides the initial build and the one \
         merge — with packages identical to a cold rebuild \
         (absorbed {}, merges {}, invalidations {}, misses {}, hit rate {:.3} vs \
         baseline {:.3}, identical {})",
        maintenance.absorbed_appends,
        maintenance.merges,
        maintenance.enabled.invalidations,
        maintenance.enabled.misses,
        maintenance.enabled.hit_rate,
        maintenance.baseline.hit_rate,
        maintenance.identical,
    );
}
