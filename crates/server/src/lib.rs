#![warn(missing_docs)]

//! # paq-server — PaQL over a socket
//!
//! The paper frames package queries as an *interactive* workload:
//! analysts submit PaQL and expect answers at query-engine latencies.
//! This crate turns the in-process [`PackageDb`](paq_db::PackageDb)
//! into a multi-tenant service:
//!
//! * [`wire`] + [`wire7`] — the **protocol**, one version of it:
//!   length-prefixed frames carrying a `Hello`/`HelloAck` handshake and
//!   then tagged requests ([`Request::Execute`], `RegisterTable`,
//!   `AppendRow`, `Explain`, `Stats`, `Metrics`, `Shutdown`) and
//!   responses (packages with full
//!   [`explain`](paq_db::Execution::explain) text and SKETCHREFINE
//!   counters, typed faults, typed [`Busy`](wire::Response::Busy)
//!   backpressure), every body written with the byte codec the store
//!   also uses ([`paq_relational::codec`]). Defined over generic
//!   [`std::io::Read`] + [`std::io::Write`] streams, so the identical
//!   code runs over loopback TCP and the deterministic in-memory pipe.
//! * [`server`] — the **core**: a [`TcpListener`](std::net::TcpListener)
//!   (or in-memory) acceptor feeding a fixed connection-handler pool
//!   built on [`paq_exec::ThreadPool`], one cloned `PackageDb` session
//!   per connection, per-request
//!   [`ExecOptions`] config overrides, one fairness-aware admission
//!   queue every request passes through, a bounded in-flight count that
//!   rejects with `Busy` instead of buffering without bound, and
//!   graceful shutdown that drains in-flight executions.
//! * [`client`], [`retry`] — the **client library**: one [`Client`]
//!   whose `submit_*` calls return tickets to wait on, many in flight on
//!   one connection, and whose blocking calls are a submit and a wait
//!   with one ticket outstanding; [`RetryingClient`] wraps it with
//!   reconnects and backoff. Used by `examples/serve.rs` and the
//!   benchmarks.
//! * [`transport`] — the in-memory duplex pipe + listener that lets the
//!   whole stack run deterministically in tests, sockets not included.
//!
//! ## A complete round trip
//!
//! ```
//! use paq_db::PackageDb;
//! use paq_server::{pipe_listener, Client, Server};
//! use paq_relational::{DataType, Schema, Table, Value};
//!
//! let server = Server::new(PackageDb::new());
//! let (connector, listener) = pipe_listener();
//! std::thread::scope(|scope| {
//!     scope.spawn(|| server.serve(listener));
//!
//!     let mut client = Client::over(connector.connect().unwrap());
//!     let mut table = Table::new(Schema::from_pairs(&[("x", DataType::Float)]));
//!     for v in [1.0, 2.0, 3.0, 4.0] {
//!         table.push_row(vec![Value::Float(v)]).unwrap();
//!     }
//!     client.register_table("Points", &table).unwrap();
//!     let answer = client
//!         .execute(
//!             "SELECT PACKAGE(R) AS P FROM Points R REPEAT 0 \
//!              SUCH THAT COUNT(P.*) = 2 MINIMIZE SUM(P.x)",
//!         )
//!         .unwrap();
//!     assert_eq!(answer.package().cardinality(), 2);
//!     client.shutdown().unwrap(); // server drains and serve() returns
//! });
//! ```

pub(crate) mod admission;
pub mod api;
pub mod client;
pub mod error;
pub mod retry;
pub mod server;
pub mod transport;
pub mod wire;
pub mod wire7;

pub use api::RequestBuilder;
pub use client::{Client, Completion, HelloOptions, PipelinedClient, Ticket};
pub use error::{ClientError, ClientResult, WireError, WireResult};
pub use retry::{RetryPolicy, RetryStats, RetryingClient};
pub use server::{
    spawn_tcp, Accepted, Acceptor, AdmissionConfig, Connection, Server, ServerConfig, TcpAcceptor,
    TcpServerHandle,
};
pub use transport::{duplex, pipe_listener, PipeConnector, PipeEnd, PipeListener};
pub use wire::{
    ExecOptions, Fault, FaultKind, RemoteExecution, Request, Response, RouteChoice, ShedClass,
    StatsReply, WireReport, WireRouterVerdict, WireTimings, MAX_FRAME, WIRE_VERSION,
};
pub use wire7::{Hello, HelloAck, CONTROL_TAG};
