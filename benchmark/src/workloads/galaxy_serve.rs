//! `galaxy-serve-12k`: a table small enough for every cache, so the
//! engine needs about half a millisecond and the frame codec, admission
//! queue, parse, plan and socket writes are the other half of the round
//! trip — the largest share any workload gives them. Arrivals are
//! scheduled (independent users do not wait for each other), then a
//! closed loop with eight outstanding measures throughput.

use std::io;
use std::time::{Duration, Instant};

use paq_core::Package;
use paq_datagen::{galaxy_table, galaxy_workload};
use paq_db::{PackageDb, Route};
use paq_server::{
    spawn_tcp, AdmissionConfig, Request, RequestBuilder, Response, Server, ServerConfig,
    TcpServerHandle,
};

use crate::common::{
    answers, db_config, metric, nproc, repeat_set_up, Params, Query, Report, Rng, DATA_SEED,
};
use crate::layers;
use crate::openloop::{self, Answer, Wire, MAX_GENERATOR_LAG_MS};
use crate::stats;
use crate::workloads::{InProc, Warm};

const ROWS: usize = 12_800;
const GROUPS: usize = 64;

/// Offered rates, and the step whose percentiles are the workload's
/// `query_p50_ms` / `query_p95_ms`.
const RATES: [f64; 4] = [300.0, 600.0, 900.0, 1200.0];
const REPORTED_RATE: f64 = 600.0;

/// `max_rate_qps` is the highest rate whose p95 stays within this, with
/// nothing refused and no backlog left.
const LATENCY_LIMIT: Duration = Duration::from_millis(10);

/// A server that keeps up has answered everything this long after the
/// last arrival; a stall shorter than this is not a backlog.
const BACKLOG_GRACE: Duration = Duration::from_millis(100);

const OUTSTANDING: usize = 8;

pub fn spec(params: &Params) -> InProc {
    let table = galaxy_table(params.rows(ROWS), DATA_SEED);
    let queries = galaxy_workload(&table)
        .expect("Galaxy workload")
        .into_iter()
        .filter(|q| q.name != "Q2" && q.name != "Q6")
        .map(|q| Query::new(q.name, q.text))
        .collect();
    InProc {
        relation: "Galaxy",
        table,
        queries,
        route: Route::ForceSketchRefine,
        config: db_config(params.groups(GROUPS), 1),
    }
}

/// A server of the program's own defaults, except that overload shows
/// as waiting, not as refusal: the window and the queue are wide enough
/// that no step of this workload is shed.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: nproc(),
        pipeline_window: 4096,
        admission: AdmissionConfig {
            max_queued: 8192,
            per_client_quota: 8192,
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// The wire form of a query of the mix, its route pinned like the
/// workload's.
pub fn request(spec: &InProc, q: &Query) -> RequestBuilder {
    let builder = RequestBuilder::query(q.text.clone()).relation(spec.relation);
    match spec.route {
        Route::ForceDirect => builder.force_direct(),
        _ => builder.force_sketch_refine(),
    }
}

pub fn requests(spec: &InProc) -> Vec<Request> {
    spec.queries
        .iter()
        .map(|q| request(spec, q).build())
        .collect()
}

struct Served {
    warm: Warm,
    wire: Wire,
    /// Dropped last: shuts the server down and joins its thread.
    _server: TcpServerHandle,
}

/// Generated table in hand → first warm query possible: start the
/// server, connect, ship the table in a columnar `RegisterTable`, then
/// each query once.
fn set_up_once(spec: &InProc, report: &mut Report) -> io::Result<(Served, Duration)> {
    let start = Instant::now();
    let db = PackageDb::with_config(spec.config.clone());
    let server = spawn_tcp(
        Server::with_config(db.session(), server_config()),
        "127.0.0.1:0",
    )?;
    // The accept loop polls every 10 ms. Whether its first poll or this
    // connect comes first is a race that makes set-up take 18 or 28 ms;
    // let the poll win, always, and wait for the second.
    std::thread::sleep(Duration::from_millis(1));
    let mut client = openloop::connect(server.addr())?;
    let ticket = client
        .submit_register_table(spec.relation, &spec.table, None)
        .map_err(io::Error::other)?;
    let version = client.wait(ticket).map_err(io::Error::other)?;
    let mut reference = Vec::new();
    for q in &spec.queries {
        let ticket = request(spec, q)
            .submit(&mut client)
            .map_err(io::Error::other)?;
        let remote = client.wait(ticket).map_err(io::Error::other)?;
        if remote.table_version != version {
            report.fail(format!(
                "{}: answered on version {}",
                q.name, remote.table_version
            ));
        }
        reference.push(remote.package());
    }
    let took = start.elapsed();
    let table = db.table(spec.relation).map_err(io::Error::other)?;
    Ok((
        Served {
            warm: Warm {
                db,
                table,
                reference,
            },
            wire: Wire::from_client(client)?,
            _server: server,
        },
        took,
    ))
}

/// What the generator keeps of a response: the package, or why there
/// is none.
type Digest = Result<Package, String>;

fn digest(response: Response) -> Digest {
    match response {
        Response::Executed(remote) => Ok(remote.package()),
        Response::Busy { .. } => Err("refused (Busy)".to_string()),
        other => Err(format!("{other:?}")),
    }
}

/// Every wire package must equal what the same database returns in
/// process for the same table version (which `run_wire` has checked
/// against the query).
fn check_answers(spec: &InProc, warm: &Warm, answers_in: &[Answer<Digest>], report: &mut Report) {
    for a in answers_in {
        let q = &spec.queries[a.request];
        match &a.response {
            Ok(package) => report.check(*package == warm.reference[a.request], || {
                format!(
                    "{}: wire package differs from the in-process package",
                    q.name
                )
            }),
            Err(why) => report.check(false, || format!("{}: {why}", q.name)),
        }
    }
}

fn run_wire(spec: &InProc, params: &Params, report: &mut Report) -> io::Result<Served> {
    let (mut served, setup_s) = repeat_set_up(|| set_up_once(spec, report))?;
    report.end_to_end.push(metric("setup_s", setup_s, "s"));

    // The in-process answer for the same table version is the yardstick.
    let warm = &served.warm;
    for (qi, q) in spec.queries.iter().enumerate() {
        let local = warm.db.execute_with(&q.ast, spec.route);
        let ok = local.as_ref().is_ok_and(|e| {
            e.package == warm.reference[qi] && answers(&e.package, &q.ast, &warm.table)
        });
        report.check(ok, || {
            format!("{}: in-process answer disagrees with the wire's", q.name)
        });
    }

    let seconds = params.body_seconds();
    let requests = requests(spec);
    let mut rng = Rng::new(params.seed);
    let mix = spec.queries.len() as u64;
    let mut pick = move || (rng.next_u64() % mix) as usize;

    let mut max_rate = 0.0;
    for rate in RATES {
        let due = openloop::schedule(rate, seconds / 6.0);
        let assignment: Vec<usize> = due.iter().map(|_| pick()).collect();
        let step = openloop::open_loop_step(
            &mut served.wire,
            &requests,
            &assignment,
            &due,
            BACKLOG_GRACE,
            digest,
        )?;
        let failed_before = report.failed;
        check_answers(spec, &served.warm, &step.answers, report);
        let mut latencies: Vec<f64> = step.answers.iter().map(|a| a.latency_ms).collect();
        stats::sort(&mut latencies);
        let (p50, p95) = (
            stats::percentile(&latencies, 50.0),
            stats::percentile(&latencies, 95.0),
        );
        let holds = step.valid()
            && report.failed == failed_before
            && step.backlog == 0
            && p95 <= LATENCY_LIMIT.as_secs_f64() * 1e3;
        if holds {
            max_rate = rate;
        }
        report.notes.push(format!(
            "open loop {rate:.0}/s: p50 {p50:.3} ms, p95 {p95:.3} ms from due time, {} requests, \
             generator_lag_ms {:.3} ({} sends over {MAX_GENERATOR_LAG_MS} ms late{}), backlog {}",
            latencies.len(),
            step.generator_lag_ms,
            step.late_sends,
            if step.valid() {
                ""
            } else {
                ": INVALID, the generator was late"
            },
            step.backlog,
        ));
        if rate == REPORTED_RATE {
            report.push_latencies(&mut latencies);
        }
    }
    // A step that fails is a measurement (the knee), not an error; only
    // the lowest rate must hold on any host that can run the benchmark.
    if max_rate == 0.0 {
        report.fail(format!("no offered rate met the {LATENCY_LIMIT:?} limit"));
    }
    report
        .end_to_end
        .push(metric("max_rate_qps", max_rate, "1/s"));

    let closed = openloop::closed_loop(
        &mut served.wire,
        &requests,
        &mut pick,
        OUTSTANDING,
        seconds / 3.0,
        digest,
    )?;
    check_answers(spec, &served.warm, &closed.answers, report);
    report.end_to_end.push(metric(
        "throughput_qps",
        closed.answers.len() as f64 / closed.elapsed.as_secs_f64(),
        "1/s",
    ));
    report.notes.push(format!(
        "closed loop: {OUTSTANDING} outstanding, {} requests, server workers {}",
        closed.answers.len(),
        nproc()
    ));
    Ok(served)
}

pub fn run(params: &Params) -> Report {
    let mut report = Report::default();
    let spec = spec(params);
    match run_wire(&spec, params, &mut report) {
        Ok(served) => {
            if params.trace {
                layers::measure("galaxy-serve-12k", &spec, &served.warm, params, &mut report);
            }
        }
        Err(e) => report.fail(format!("serving failed: {e}")),
    }
    report
}
