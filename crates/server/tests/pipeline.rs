//! Serving end to end: the handshake, request pipelining with
//! out-of-order completion checked bit-identical to sequential execution
//! (at 1 and 4 workers), columnar catalog mutations over one pipelined
//! connection, fairness-aware shedding surfaced as typed `Busy` answers,
//! an interactive request overtaking a bulk backlog (counted, not timed),
//! the idle-connection reaper, the typed refusal of anything that does
//! not open with a current `Hello`, and — via recorded golden frames —
//! proof that the wire bytes are the ones recorded before the byte layer
//! was collapsed onto one codec.

use paq_db::{DbConfig, PackageDb, Route};
use paq_lang::parse_paql;
use paq_relational::{DataType, Schema, Table, Value};
use paq_server::wire7::{decode_response_v7, encode_request_v7};
use paq_server::{
    pipe_listener, wire, AdmissionConfig, Client, ClientError, FaultKind, Hello, HelloOptions,
    Request, RequestBuilder, Response, Server, ServerConfig, ShedClass, CONTROL_TAG, WIRE_VERSION,
};
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Worker counts to sweep: pinned by `PAQ_THREADS` (the CI matrix),
/// both 1 and 4 otherwise.
fn worker_counts() -> Vec<usize> {
    match std::env::var("PAQ_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(n) if n >= 1 => vec![n],
        _ => vec![1, 4],
    }
}

fn items_table(n: usize, salt: u64) -> Table {
    let mut t = Table::new(Schema::from_pairs(&[
        ("value", DataType::Float),
        ("weight", DataType::Float),
    ]));
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

const QUERIES: [&str; 3] = [
    "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 \
     SUCH THAT COUNT(P.*) = 2 AND SUM(P.weight) <= 1000 MAXIMIZE SUM(P.value)",
    "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 \
     SUCH THAT COUNT(P.*) = 3 AND SUM(P.weight) <= 1000 MAXIMIZE SUM(P.value)",
    "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 \
     SUCH THAT COUNT(P.*) = 4 AND SUM(P.value) >= 0 MINIMIZE SUM(P.weight)",
];

fn test_db() -> PackageDb {
    let db = PackageDb::with_config(DbConfig {
        direct_threshold: 10,
        default_groups: 5,
        ..DbConfig::default()
    });
    db.register_table("Items", items_table(60, 0xA11CE));
    db
}

/// The suite's standard query, pinned to one solver thread so packages
/// are bit-identical across connections, orderings, and worker counts.
fn pinned(paql: &str) -> RequestBuilder {
    RequestBuilder::query(paql).relation("Items").threads(1)
}

#[test]
fn handshake_advertises_the_window() {
    let db = test_db();
    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: 2,
            pipeline_window: 9,
            ..ServerConfig::default()
        },
    );
    let (connector, listener) = pipe_listener();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));
        let mut client = Client::handshake(connector.connect().unwrap()).unwrap();
        assert_eq!(client.window(), 9, "HelloAck must carry the server window");

        // The pipelined connection serves typed requests like any other.
        let ticket = client.submit_stats().unwrap();
        let stats = client.wait(ticket).unwrap();
        assert_eq!(stats.tables[0].name, "Items");

        let done = client.submit_shutdown().unwrap();
        client.wait(done).unwrap();
    });
    assert!(server.is_shutting_down());
}

#[test]
fn out_of_order_pipelined_results_match_sequential_bit_identically() {
    for workers in worker_counts() {
        let db = test_db();
        let server = Server::with_config(
            db.session(),
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        );
        let (connector, listener) = pipe_listener();
        std::thread::scope(|scope| {
            scope.spawn(|| server.serve(listener));

            // Sequential baseline: one blocking connection, one request at
            // a time, in submission order.
            let submissions: Vec<&str> = (0..6).map(|i| QUERIES[i % QUERIES.len()]).collect();
            let mut sequential = Client::over(connector.connect().unwrap());
            let baseline: Vec<Vec<(u64, u64)>> = submissions
                .iter()
                .map(|paql| pinned(paql).send(&mut sequential).unwrap().pairs)
                .collect();
            // Free the handler worker (a connection pins one for its
            // lifetime — at workers=1 the pipelined connection below
            // would otherwise wait for the idle reaper).
            drop(sequential);

            // Pipelined: submit everything up front, then collect the
            // tickets in REVERSE order — the out-of-order case the tag
            // routing exists for. Every answer must be bit-identical to
            // the sequential one for the same submission.
            let mut pipelined = Client::handshake(connector.connect().unwrap()).unwrap();
            let tickets: Vec<_> = submissions
                .iter()
                .map(|paql| pinned(paql).submit(&mut pipelined).unwrap())
                .collect();
            let mut arrived = Vec::new();
            while arrived.len() < tickets.len() {
                arrived.extend(pipelined.poll_ready().unwrap());
            }
            let mut results = vec![Vec::new(); tickets.len()];
            for (i, ticket) in tickets.iter().enumerate().rev() {
                results[i] = pipelined.wait(*ticket).unwrap().pairs;
            }
            assert_eq!(
                results, baseline,
                "workers={workers}: pipelined answers diverged from sequential"
            );
            arrived.sort_unstable();
            assert_eq!(
                arrived,
                tickets.iter().map(|t| t.tag()).collect::<Vec<_>>(),
                "every submission must have completed exactly once"
            );

            // In-process ground truth on the same shared state.
            let local = db.session();
            for (paql, pairs) in submissions.iter().zip(&baseline) {
                let exec = local
                    .execute_with(&parse_paql(paql).unwrap(), Route::Auto)
                    .unwrap();
                let members: Vec<(u64, u64)> = exec
                    .package
                    .members()
                    .iter()
                    .map(|&(row, mult)| (row as u64, mult))
                    .collect();
                assert_eq!(&members, pairs);
            }

            let done = pipelined.submit_shutdown().unwrap();
            pipelined.wait(done).unwrap();
        });
    }
}

#[test]
fn pipelined_catalog_mutations_travel_columnar_and_apply_in_order() {
    let db = test_db();
    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: 1, // one executor → same-class submissions apply in order
            ..ServerConfig::default()
        },
    );
    let (connector, listener) = pipe_listener();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));
        let mut client = Client::handshake(connector.connect().unwrap()).unwrap();

        // All submitted before the first wait: registration (the
        // columnar body), an append, and the stats read-back ride the
        // same pipelined connection.
        let table = items_table(30, 0xBEEF);
        let reg = client
            .submit_register_table("Fresh", &table, Some(0xF00D))
            .unwrap();
        let row = vec![Value::Float(5.0), Value::Float(1.0)];
        let app = client.submit_append_row("Fresh", row, None).unwrap();
        let stats = client.submit_stats().unwrap();

        let v1 = client.wait(reg).unwrap();
        let v2 = client.wait(app).unwrap();
        assert!(v2 > v1);
        assert_eq!(db.table_version("Fresh").unwrap(), v2);
        assert_eq!(db.table("Fresh").unwrap().num_rows(), 31);
        let stats = client.wait(stats).unwrap();
        assert!(stats
            .tables
            .iter()
            .any(|t| t.name == "Fresh" && t.rows == 31));

        // The registered rows are byte-identical to what was sent: the
        // columnar codec is an encoding, not a transformation.
        let round_tripped = db.table("Fresh").unwrap();
        for i in 0..table.num_rows() {
            assert_eq!(round_tripped.row(i), table.row(i), "row {i} diverged");
        }

        // The handshake and every pipelined request are counted.
        let metrics = client.submit_metrics().unwrap();
        let snapshot = client.wait(metrics).unwrap();
        assert!(snapshot.counter(paq_obs::names::SERVER_HANDSHAKES) >= 1);
        assert!(snapshot.counter(paq_obs::names::SERVER_PIPELINED) >= 4);

        let done = client.submit_shutdown().unwrap();
        client.wait(done).unwrap();
    });
}

#[test]
fn quota_shed_is_a_typed_busy_on_the_request_tag() {
    let db = test_db();
    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: 1,
            admission: AdmissionConfig {
                per_client_quota: 0, // shed every pipelined arrival
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        },
    );
    let (connector, listener) = pipe_listener();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));
        let mut client = Client::handshake_as(
            connector.connect().unwrap(),
            HelloOptions {
                class: ShedClass::Bulk,
                client_id: 42,
            },
        )
        .unwrap();

        let ticket = pinned(QUERIES[0]).submit(&mut client).unwrap();
        match client.wait(ticket) {
            Err(ClientError::Busy {
                retry_after_ms,
                shed_class,
                ..
            }) => {
                assert!(retry_after_ms > 0, "Busy carries a pacing hint");
                assert_eq!(
                    shed_class,
                    Some(ShedClass::Bulk),
                    "admission shed must name the class it dropped"
                );
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        assert!(server.shed_requests() >= 1);
        assert!(db.obs_registry().counter(paq_obs::names::SERVER_SHED) >= 1);
        // Free the single handler worker for the next connection.
        drop(client);

        // There is one admission path: a blocking client's request is
        // shed the same way, under the default class it declared.
        let mut blocking = Client::over(connector.connect().unwrap());
        match pinned(QUERIES[0]).send(&mut blocking) {
            Err(ClientError::Busy { shed_class, .. }) => {
                assert_eq!(shed_class, Some(ShedClass::Normal));
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        // (A wire `Shutdown` would be shed too.)
        server.trigger_shutdown();
    });
}

/// The `[8, 2, 1]` weights as a socket sees them: an interactive query
/// queued behind a bulk backlog is answered before the backlog, checked
/// by counting answers, not by timing them. One worker means one
/// executor, so the dequeue order is the completion order.
#[test]
fn interactive_overtakes_a_bulk_backlog_on_the_served_path() {
    const BACKLOG: usize = 24; // below the default pipeline window of 32
    let db = test_db();
    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let bulk_done_at_overtake = std::thread::scope(|scope| {
        scope.spawn(|| server.serve_tcp(listener).unwrap());

        let bulk_conn = TcpStream::connect(addr).unwrap();
        let bulk_write_half = bulk_conn.try_clone().unwrap();
        let mut bulk = Client::handshake_as(
            bulk_conn,
            HelloOptions {
                class: ShedClass::Bulk,
                client_id: 1,
            },
        )
        .unwrap();

        // Park the executor: `mutate_table` runs its closure under the
        // catalog write lock and every request here starts with a
        // catalog read, so nothing is answered until `release` fires.
        // The closure changes nothing, so versions and packages stay.
        let (parked, is_parked) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let session = db.session();
        let gate = scope.spawn(move || {
            session.mutate_table("Items", |_| {
                parked.send(()).unwrap();
                let _ = released.recv();
                Ok(())
            })
        });
        is_parked.recv().unwrap();

        let backlog: Vec<_> = (0..BACKLOG)
            .map(|_| pinned(QUERIES[0]).submit(&mut bulk).unwrap())
            .collect();
        // A connection pins the only handler until it stops sending:
        // half-close, so the handler queues the backlog, sees the end of
        // the stream and moves on, while the answers still come back.
        bulk_write_half.shutdown(Shutdown::Write).unwrap();

        // This handshake is answered by that same handler, so once it
        // returns the whole backlog is in the admission queue.
        let mut interactive = Client::handshake_as(
            TcpStream::connect(addr).unwrap(),
            HelloOptions {
                class: ShedClass::Interactive,
                client_id: 2,
            },
        )
        .unwrap();
        // The query that must overtake, then a `Stats` whose `served` is
        // the server's own count of answers written before it ran. (A
        // client cannot count the other connection's answers at one
        // instant: `poll_ready` keeps reading while answers keep coming.)
        let overtaker = pinned(QUERIES[0]).submit(&mut interactive).unwrap();
        let census = interactive.submit_stats().unwrap();
        let arrivals = (BACKLOG + 2) as u64;
        while db.obs_registry().counter(paq_obs::names::SERVER_PIPELINED) < arrivals {
            std::thread::yield_now();
        }
        let answered_while_parked = bulk.poll_ready().unwrap().len();
        release.send(()).unwrap();
        gate.join().unwrap().unwrap();

        let mut arrived = Vec::new();
        while arrived.len() < 2 {
            arrived.extend(interactive.poll_ready().unwrap());
        }
        let overtook_census = arrived[0] == overtaker.tag();
        let answer = interactive.wait(overtaker).unwrap();
        let served_before_census = interactive.wait(census).unwrap().served;

        // Overtaken, not starved or dropped: every bulk request is still
        // answered, and identically.
        let mut identical = true;
        for ticket in backlog {
            identical &= bulk.wait(ticket).unwrap().pairs == answer.pairs;
        }
        let done = interactive.submit_shutdown().unwrap();
        interactive.wait(done).unwrap();

        // Asserted after the shutdown: a panic inside the scope would
        // wait for the serve thread forever.
        assert_eq!(answered_while_parked, 0, "the gate did not hold");
        assert!(overtook_census, "same-class requests complete in order");
        assert!(identical, "a bulk answer differs from the interactive one");
        // Every answer before the census except the overtaker was bulk.
        served_before_census - 1
    });
    assert!(
        bulk_done_at_overtake < BACKLOG as u64,
        "{bulk_done_at_overtake} of {BACKLOG} bulk answers preceded the interactive one: \
         arrival order, not weighted-fair dequeue"
    );
}

#[test]
fn idle_connections_are_reaped_without_touching_active_ones() {
    let db = test_db();
    let server = Server::with_config(
        db.session(),
        ServerConfig {
            workers: 1, // the idle peer pins the only handler until reaped
            idle_timeout: Some(Duration::from_millis(50)),
            poll_interval: Duration::from_millis(5),
            ..ServerConfig::default()
        },
    );
    let (connector, listener) = pipe_listener();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));

        // Connect and say nothing: the idle reaper must free the worker.
        let silent = connector.connect().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.idle_closed() == 0 {
            assert!(Instant::now() < deadline, "idle connection never reaped");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(silent);

        // The freed worker serves a real client normally.
        let mut client = Client::over(connector.connect().unwrap());
        assert!(!pinned(QUERIES[0])
            .send(&mut client)
            .unwrap()
            .pairs
            .is_empty());
        client.shutdown().unwrap();
    });
    assert_eq!(server.idle_closed(), 1);
}

// ---------------------------------------------------------------------
// One protocol: typed refusal of anything else, and golden wire bytes
// ---------------------------------------------------------------------

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn anything_but_a_current_hello_gets_one_version_fault_and_a_close() {
    let db = test_db();
    let server = Server::new(db.session());
    let (connector, listener) = pipe_listener();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));

        let old_hello = Hello {
            max_version: WIRE_VERSION - 1,
            client_id: 0,
            class: ShedClass::Normal,
        };
        let openers = [
            // A recorded v6 `Stats` payload (version byte 6, kind 4).
            unhex("0604"),
            // A v7 request before any handshake.
            encode_request_v7(0, &Request::Stats),
            // A Hello that tops out below the served version.
            old_hello.encode(),
        ];
        for opener in &openers {
            let mut conn = connector.connect().unwrap();
            wire::write_frame(&mut conn, opener).unwrap();
            let payload = wire::read_frame(&mut conn).unwrap().expect("a refusal");
            match decode_response_v7(&payload).unwrap() {
                (CONTROL_TAG, Response::Error(fault)) => {
                    assert_eq!(fault.kind, FaultKind::Version, "{fault}");
                }
                other => panic!("expected a Version fault on the control tag, got {other:?}"),
            }
            assert!(
                wire::read_frame(&mut conn).unwrap().is_none(),
                "one fault, then the close"
            );
        }

        // A current client on the same server is still served.
        let mut client = Client::over(connector.connect().unwrap());
        client.stats().expect("a current client is served");
        client.shutdown().unwrap();
    });
    assert_eq!(server.handler_panics(), 0);
}

/// Frames (length prefix + payload) recorded at the commit before the
/// byte layer was collapsed: a `Hello` (client 42, bulk class) and the
/// suite's 2-item knapsack against `Items` on tag `0x01020304`, forced
/// SKETCHREFINE (threshold 10, 5 groups, one solver thread).
const GOLDEN_HELLO_FRAME: &str = "0000000c0700072a0000000000000002";
const GOLDEN_EXECUTE_FRAME: &str = "000000960702040302010005000000000000004974656d735b00000000\
00000053454c454354205041434b41474528522920415320502046524f4d204974656d7320522052455045415420302\
053554348205448415420434f554e5428502e2a29203d2032204d4158494d495a452053554d28502e76616c75652902\
010a00000000000000010500000000000000010100000000000000000000";

/// The recorded columnar `RegisterTable` frame is 118 KiB, so it is
/// pinned by length, FNV-1a-64 digest and its first 96 bytes (frame
/// header, name, schema, row count, first chunk header): 5 000 rows of
/// (Int, Float, Bool, Str) with every seventh row null — two chunks
/// per column — on tag 7 with token 9.
const GOLDEN_REGISTER_LEN: usize = 121_045;
const GOLDEN_REGISTER_FNV1A64: u64 = 0x89c2_64bf_be10_32dc;
const GOLDEN_REGISTER_HEAD: &str = "0001d8d10702070000000105000000000000004e756c6c730400000000\
0000000200000000000000696400050000000000000073636f7265010400000000000000666c6167020400000000000\
0006e616d650388130000000000000200000000";

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    wire::write_frame(&mut out, payload).unwrap();
    out
}

#[test]
fn encoders_still_emit_the_recorded_frames() {
    let hello = Hello {
        max_version: 7,
        client_id: 42,
        class: ShedClass::Bulk,
    };
    assert_eq!(
        framed(&hello.encode()),
        unhex(GOLDEN_HELLO_FRAME),
        "Hello frame drifted"
    );

    let paql = "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 \
                SUCH THAT COUNT(P.*) = 2 MAXIMIZE SUM(P.value)";
    let execute = RequestBuilder::query(paql)
        .relation("Items")
        .force_sketch_refine()
        .direct_threshold(10)
        .default_groups(5)
        .threads(1)
        .build();
    assert_eq!(
        framed(&encode_request_v7(0x0102_0304, &execute)),
        unhex(GOLDEN_EXECUTE_FRAME),
        "Execute frame drifted"
    );

    let mut table = Table::new(Schema::from_pairs(&[
        ("id", DataType::Int),
        ("score", DataType::Float),
        ("flag", DataType::Bool),
        ("name", DataType::Str),
    ]));
    for i in 0..5_000i64 {
        let row = if i % 7 == 0 {
            vec![Value::Null; 4]
        } else {
            vec![
                Value::Int(1_000_000 + i),
                Value::Float(i as f64 * 0.5),
                Value::Bool(i % 3 == 0),
                Value::Str(format!("row-{i}")),
            ]
        };
        table.push_row(row).unwrap();
    }
    let register = Request::RegisterTable {
        name: "Nulls".into(),
        table,
        token: Some(9),
    };
    let frame = framed(&encode_request_v7(7, &register));
    assert_eq!(
        frame.len(),
        GOLDEN_REGISTER_LEN,
        "RegisterTable frame size drifted"
    );
    assert_eq!(
        frame[..96],
        unhex(GOLDEN_REGISTER_HEAD)[..],
        "RegisterTable frame head drifted"
    );
    assert_eq!(
        fnv1a64(&frame),
        GOLDEN_REGISTER_FNV1A64,
        "RegisterTable frame bytes drifted"
    );
}

#[test]
fn recorded_frames_are_served_unchanged() {
    let db = test_db();
    let server = Server::new(db.session());
    let (connector, listener) = pipe_listener();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));

        // Replay the raw recorded bytes — no client library involved.
        let mut conn = connector.connect().unwrap();
        conn.write_all(&unhex(GOLDEN_HELLO_FRAME)).unwrap();
        wire::read_frame(&mut conn).unwrap().expect("ack");
        conn.write_all(&unhex(GOLDEN_EXECUTE_FRAME)).unwrap();
        let payload = wire::read_frame(&mut conn).unwrap().expect("answer");
        let remote = match decode_response_v7(&payload).unwrap() {
            (0x0102_0304, Response::Executed(exec)) => *exec,
            other => panic!("expected Executed on the recorded tag, got {other:?}"),
        };
        assert!(!remote.direct, "the recorded frame forces SKETCHREFINE");
        drop(conn);

        // Ground truth: the replayed execution matches in-process.
        let paql = "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 \
                    SUCH THAT COUNT(P.*) = 2 MAXIMIZE SUM(P.value)";
        let local = db
            .execute_with(&parse_paql(paql).unwrap(), Route::ForceSketchRefine)
            .unwrap();
        assert_eq!(remote.package().members(), local.package.members());

        let mut client = Client::over(connector.connect().unwrap());
        client.shutdown().unwrap();
    });
}
