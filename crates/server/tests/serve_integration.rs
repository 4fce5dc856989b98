//! End-to-end server integration: N concurrent clients against one
//! server hosting a shared catalog, over BOTH transports — the
//! deterministic in-memory pipe and loopback TCP — with every package
//! checked byte-identical to in-process `PackageDb` execution on the
//! same table version. Also pins the typed `Busy` backpressure path,
//! graceful-shutdown drain, per-request config isolation, and typed
//! fault reporting.
//!
//! The server worker-pool size is taken from `PAQ_THREADS` (default
//! 4), so CI exercises a single-worker server (clients queue) and a
//! multi-worker one (clients run in parallel); the client count is
//! always at least 4.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use paq_db::{DbConfig, PackageDb, Route};
use paq_lang::parse_paql;
use paq_relational::{DataType, Schema, Table, Value};
use paq_server::{
    pipe_listener, spawn_tcp, Client, ClientError, Connection, FaultKind, RequestBuilder, Server,
    ServerConfig,
};

/// Server pool size under test (`PAQ_THREADS`, default 4).
fn worker_count() -> usize {
    std::env::var("PAQ_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

/// Concurrent clients: at least 4 (the acceptance bar), more when the
/// server has more workers.
fn client_count() -> usize {
    worker_count().max(4)
}

fn schema() -> Schema {
    Schema::from_pairs(&[("value", DataType::Float), ("weight", DataType::Float)])
}

/// Deterministic rows, same generator family as the other suites.
fn items_table(n: usize, salt: u64) -> Table {
    let mut t = Table::new(schema());
    let mut state = salt | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..n {
        let v = (next() % 100) as f64 / 10.0 + 1.0;
        let w = (next() % 50) as f64 / 10.0 + 0.5;
        t.push_row(vec![Value::Float(v), Value::Float(w)]).unwrap();
    }
    t
}

/// Always-feasible queries; the low direct-threshold below routes them
/// to SKETCHREFINE, so the shared partition cache is exercised too.
const QUERIES: [&str; 3] = [
    "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 \
     SUCH THAT COUNT(P.*) = 2 AND SUM(P.weight) <= 1000 MAXIMIZE SUM(P.value)",
    "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 \
     SUCH THAT COUNT(P.*) = 3 AND SUM(P.weight) <= 1000 MAXIMIZE SUM(P.value)",
    "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 \
     SUCH THAT COUNT(P.*) = 4 AND SUM(P.value) >= 0 MINIMIZE SUM(P.weight)",
];

/// A database whose planner routes the test queries to SKETCHREFINE
/// (table larger than the threshold), preloaded with `Items`.
fn test_db() -> PackageDb {
    let db = PackageDb::with_config(DbConfig {
        direct_threshold: 10,
        default_groups: 5,
        ..DbConfig::default()
    });
    db.register_table("Items", items_table(60, 0xA11CE));
    db
}

/// Run `clients` threads, each executing every query `reps` times via
/// `make_client`, asserting byte-identity against an in-process session
/// of `db` at the observed table version.
fn storm<C, F>(db: &PackageDb, clients: usize, reps: usize, make_client: F)
where
    C: Connection,
    F: Fn() -> Client<C> + Sync,
{
    let version = db.table_version("Items").unwrap();
    let executed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for c in 0..clients {
            let make_client = &make_client;
            let executed = &executed;
            let local = db.session();
            scope.spawn(move || {
                let mut client = make_client();
                for r in 0..reps {
                    let paql = QUERIES[(c + r) % QUERIES.len()];
                    let remote = client.execute(paql).expect("remote execution");
                    assert_eq!(
                        remote.table_version, version,
                        "no mutations in this test, so every execution sees one version"
                    );
                    // Byte-identical to in-process execution on the
                    // same shared state and version.
                    let query = parse_paql(paql).unwrap();
                    let local_exec = local.execute_with(&query, Route::Auto).unwrap();
                    assert_eq!(local_exec.table_version, version);
                    assert_eq!(
                        remote.package().members(),
                        local_exec.package.members(),
                        "client {c} rep {r}: remote package diverged from in-process"
                    );
                    assert!(!remote.explain.is_empty());
                    executed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(executed.load(Ordering::Relaxed), (clients * reps) as u64);
}

#[test]
fn concurrent_clients_over_in_memory_pipe_match_in_process() {
    let db = test_db();
    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: worker_count(),
            ..ServerConfig::default()
        },
    );
    let (connector, listener) = pipe_listener();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));
        storm(&db, client_count(), 3, || {
            Client::over(connector.connect().expect("listener alive"))
        });
        // Server-side stats went through the shared catalog.
        let mut client = Client::over(connector.connect().unwrap());
        let stats = client.stats().unwrap();
        assert_eq!(stats.tables.len(), 1);
        assert_eq!(stats.tables[0].name, "Items");
        assert_eq!(stats.tables[0].rows, 60);
        assert!(
            stats.cache.hits + stats.cache.misses > 0,
            "SKETCHREFINE routes must have touched the partition cache"
        );
        client.shutdown().unwrap();
    });
    assert!(server.is_shutting_down());
    assert!(server.served() > 0);
}

#[test]
fn concurrent_clients_over_loopback_tcp_match_in_process() {
    let db = test_db();
    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: worker_count(),
            ..ServerConfig::default()
        },
    );
    let handle = spawn_tcp(server, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.addr();
    storm(&db, client_count(), 3, || {
        Client::connect(addr).expect("loopback connect")
    });
    // Same protocol, same answers, over a real socket: explain and
    // stats round-trip too.
    let mut client = Client::connect(addr).unwrap();
    let text = client.explain(QUERIES[0]).unwrap();
    assert!(text.contains("SKETCHREFINE"), "{text}");
    let stats = client.stats().unwrap();
    assert_eq!(stats.tables[0].version, db.table_version("Items").unwrap());
    client.shutdown().unwrap();
    handle.shutdown();
}

#[test]
fn remote_catalog_mutations_version_and_execute() {
    let db = test_db();
    let server = Server::new(db.session());
    let (connector, listener) = pipe_listener();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));
        let mut client = Client::over(connector.connect().unwrap());

        // Register a fresh table remotely, visible to in-process
        // sessions immediately (shared catalog).
        let table = items_table(30, 0xBEEF);
        let v1 = client.register_table("Fresh", &table).unwrap();
        assert_eq!(db.table_version("Fresh").unwrap(), v1);
        assert_eq!(db.table("Fresh").unwrap().num_rows(), 30);

        // Append bumps the version remotely and locally alike.
        let v2 = client
            .append_row("Fresh", vec![Value::Float(5.0), Value::Float(1.0)])
            .unwrap();
        assert!(v2 > v1);
        assert_eq!(db.table_version("Fresh").unwrap(), v2);
        assert_eq!(db.table("Fresh").unwrap().num_rows(), 31);

        // Execute against the mutated table; version pins the snapshot.
        let remote = client
            .execute(
                "SELECT PACKAGE(R) AS P FROM Fresh R REPEAT 0 \
                 SUCH THAT COUNT(P.*) = 2 MINIMIZE SUM(P.weight)",
            )
            .unwrap();
        assert_eq!(remote.table_version, v2);
        assert_eq!(remote.rows, 31);
        let local = db
            .execute(
                "SELECT PACKAGE(R) AS P FROM Fresh R REPEAT 0 \
                 SUCH THAT COUNT(P.*) = 2 MINIMIZE SUM(P.weight)",
            )
            .unwrap();
        assert_eq!(remote.package().members(), local.package.members());

        client.shutdown().unwrap();
    });
}

#[test]
fn per_request_options_override_without_leaking() {
    let db = PackageDb::new(); // default direct_threshold: 2000
    db.register_table("Items", items_table(60, 0xA11CE));
    let server = Server::new(db.session());
    let (connector, listener) = pipe_listener();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));
        let mut client = Client::over(connector.connect().unwrap());

        // Default config: 60 rows is under the threshold → DIRECT.
        let direct = client.execute(QUERIES[0]).unwrap();
        assert!(direct.direct, "{}", direct.explain);

        // Same connection, one request overriding the threshold →
        // SKETCHREFINE, with the report counters shipped back.
        let sketch = RequestBuilder::query(QUERIES[0])
            .relation("Items")
            .direct_threshold(10)
            .default_groups(5)
            .send(&mut client)
            .unwrap();
        assert!(!sketch.direct, "{}", sketch.explain);
        let report = sketch.report.expect("SKETCHREFINE ships its report");
        assert!(report.solver_calls >= 2);

        // The override did not leak: the next default request routes
        // DIRECT again, and the server's own base config is untouched.
        let again = client.execute(QUERIES[0]).unwrap();
        assert!(again.direct, "{}", again.explain);
        assert_eq!(server.db().config().direct_threshold, 2_000);

        // Forced routing via wire options.
        let forced = RequestBuilder::query(QUERIES[1])
            .force_sketch_refine()
            .default_groups(5)
            .send(&mut client)
            .unwrap();
        assert!(!forced.direct, "{}", forced.explain);

        client.shutdown().unwrap();
    });
}

#[test]
fn busy_backpressure_is_typed_and_recoverable() {
    let db = test_db();
    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: 1,
            max_in_flight: 1,
            ..ServerConfig::default()
        },
    );
    let (connector, listener) = pipe_listener();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));

        // Client A occupies the single in-flight slot (a completed
        // round trip proves its connection is being served).
        let mut a = Client::over(connector.connect().unwrap());
        a.stats().unwrap();

        // Client B is rejected with the typed Busy response — not
        // queued, not dropped silently.
        let mut b = Client::over(connector.connect().unwrap());
        match b.execute(QUERIES[0]) {
            Err(e) if e.is_busy() => match e {
                ClientError::Busy {
                    in_flight,
                    max_in_flight,
                    retry_after_ms,
                    shed_class,
                } => {
                    assert_eq!((in_flight, max_in_flight), (1, 1));
                    assert!(retry_after_ms > 0, "Busy carries a pacing hint");
                    assert_eq!(
                        shed_class, None,
                        "accept-time rejection carries no admission class"
                    );
                }
                _ => unreachable!(),
            },
            other => panic!("expected Busy, got {other:?}"),
        }
        assert!(server.busy_rejections() >= 1);

        // A releases its slot; a retrying client eventually gets in —
        // backpressure is a signal to retry, not a failure.
        drop(a);
        let mut served = false;
        for _ in 0..200 {
            let mut c = Client::over(connector.connect().unwrap());
            match c.execute(QUERIES[0]) {
                Ok(remote) => {
                    assert!(!remote.package().is_empty());
                    c.shutdown().unwrap();
                    served = true;
                    break;
                }
                Err(e) if e.is_busy() => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("unexpected error while retrying: {e}"),
            }
        }
        assert!(served, "slot never freed after the holder disconnected");
    });
}

#[test]
fn graceful_shutdown_drains_in_flight_execution() {
    let db = test_db();
    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let (connector, listener) = pipe_listener();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));

        // B is connected and served before the shutdown request lands.
        let mut b = Client::over(connector.connect().unwrap());
        b.stats().unwrap();

        std::thread::scope(|inner| {
            let in_flight = inner.spawn(move || {
                // In flight when the shutdown arrives (or just before —
                // either way the drain guarantee says it must complete
                // with a real answer, never be dropped).
                b.execute(QUERIES[2])
                    .expect("drain must answer in-flight work")
            });
            let mut a = Client::over(connector.connect().unwrap());
            a.shutdown().unwrap();
            let remote = in_flight.join().unwrap();
            assert!(!remote.package().is_empty());
        });
        // serve() returns (the outer scope joins) and new connections
        // are refused once the listener is gone.
    });
    assert!(server.is_shutting_down());
    assert!(connector.connect().is_err(), "listener must be gone");
}

#[test]
fn faults_are_typed_and_connection_survives() {
    let db = test_db();
    let server = Server::new(db.session());
    let (connector, listener) = pipe_listener();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));
        let mut client = Client::over(connector.connect().unwrap());

        // Unknown table.
        match client.execute("SELECT PACKAGE(R) AS P FROM Nope R REPEAT 0 SUCH THAT COUNT(P.*) = 1")
        {
            Err(ClientError::Server(fault)) => {
                assert_eq!(fault.kind, FaultKind::UnknownTable);
                assert!(fault.message.contains("Nope"), "{}", fault.message);
            }
            other => panic!("expected UnknownTable, got {other:?}"),
        }

        // Parse error.
        match client.execute("SELECT GARBAGE") {
            Err(ClientError::Server(fault)) => assert_eq!(fault.kind, FaultKind::Language),
            other => panic!("expected Language fault, got {other:?}"),
        }

        // Relation guard.
        match RequestBuilder::query(QUERIES[0])
            .relation("Other")
            .send(&mut client)
        {
            Err(ClientError::Server(fault)) => {
                assert_eq!(fault.kind, FaultKind::BadRequest);
                assert!(fault.message.contains("Other"), "{}", fault.message);
            }
            other => panic!("expected BadRequest, got {other:?}"),
        }

        // Infeasibility is an *answer*: typed, branchable, and the
        // connection keeps working afterwards.
        match client
            .execute("SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 SUCH THAT COUNT(P.*) = 5000")
        {
            Err(e) if e.is_infeasible() => {}
            other => panic!("expected infeasibility, got {other:?}"),
        }

        let ok = client.execute(QUERIES[0]).unwrap();
        assert!(!ok.package().is_empty(), "connection survives faults");

        client.shutdown().unwrap();
    });
}
