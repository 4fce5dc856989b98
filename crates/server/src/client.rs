//! The client library: typed PaQL calls over any byte stream.
//!
//! [`Client`] wraps a connected stream — a [`TcpStream`] from
//! [`Client::connect`], or either end of the in-memory
//! [duplex pipe](crate::transport) via [`Client::over`] — and speaks
//! one request/response round trip per call: the same tagged
//! [frames](crate::wire7) as the [pipelined
//! client](crate::pipeline::PipelinedClient), with one tag outstanding
//! (the `Hello` handshake rides the first call). Backpressure
//! ([`Response::Busy`]) and server-reported faults surface as typed
//! [`ClientError`]s; everything else returns the decoded payload.
//!
//! ```no_run
//! use paq_server::Client;
//!
//! let mut client = Client::connect("127.0.0.1:7878")?;
//! let answer = client.execute(
//!     "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 \
//!      SUCH THAT COUNT(P.*) = 3 MINIMIZE SUM(P.saturated_fat)",
//! )?;
//! println!("{}", answer.explain);
//! println!("package: {:?}", answer.package().members());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use paq_relational::{Table, Value};

use crate::error::{ClientError, ClientResult, WireError};
use crate::pipeline::HelloOptions;
use crate::wire::{
    read_frame, write_frame, ExecOptions, RemoteExecution, Request, Response, StatsReply,
    WIRE_VERSION,
};
use crate::wire7::{decode_response_v7, encode_request_v7, HelloAck, CONTROL_TAG};

/// A connected PaQL client. One outstanding request at a time; not
/// `Clone` — open one client per concurrent caller, the server hands
/// each its own session.
#[derive(Debug)]
pub struct Client<C: Read + Write> {
    conn: C,
    /// Set once the `Hello`/`HelloAck` handshake has completed.
    greeted: bool,
    next_tag: u32,
}

impl Client<TcpStream> {
    /// Connect over TCP. Disables Nagle's algorithm: this client is
    /// strict request/response with small frames, exactly the shape
    /// delayed-ACK coupling penalizes.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        Ok(Client::over(conn))
    }
}

impl<C: Read + Write> Client<C> {
    /// Wrap an already-connected byte stream (e.g. an in-memory pipe
    /// end). Nothing is sent until the first call.
    pub fn over(conn: C) -> Self {
        Client {
            conn,
            greeted: false,
            next_tag: 0,
        }
    }

    /// Unwrap the underlying stream.
    pub fn into_inner(self) -> C {
        self.conn
    }

    /// Write one frame and read the peer's answer to it.
    fn exchange(&mut self, payload: &[u8]) -> ClientResult<Vec<u8>> {
        // A rejected connection (typed Busy at accept time) may already
        // have closed under us, making the *write* fail — but the Busy
        // frame is still buffered for reading. Hold the write error and
        // prefer whatever the server managed to say.
        let wrote = write_frame(&mut self.conn, payload);
        match read_frame(&mut self.conn) {
            Ok(Some(answer)) => Ok(answer),
            Ok(None) => {
                wrote?;
                Err(ClientError::ConnectionClosed)
            }
            Err(read_error) => {
                wrote?;
                Err(read_error.into())
            }
        }
    }

    /// One request/response round trip (preceded, on the first call, by
    /// the handshake). `Busy` and server faults become typed errors here
    /// so every typed call only sees its own success variant.
    fn roundtrip(&mut self, request: &Request) -> ClientResult<Response> {
        if !self.greeted {
            let answer = self.exchange(&HelloOptions::default().hello().encode())?;
            decode_ack(&answer)?;
            self.greeted = true;
        }
        let tag = self.next_tag;
        self.next_tag = (tag + 1) % CONTROL_TAG;
        let answer = self.exchange(&encode_request_v7(tag, request))?;
        match decode_response_v7(&answer)? {
            (_, response @ (Response::Busy { .. } | Response::Error(_))) => Err(fault_of(response)),
            (got, response) if got == tag => Ok(response),
            (got, _) => Err(ClientError::UnexpectedResponse(format!(
                "wanted tag {tag}, got tag {got}"
            ))),
        }
    }

    /// Execute a PaQL query with default options.
    pub fn execute(&mut self, paql: &str) -> ClientResult<RemoteExecution> {
        self.execute_opts("", paql, ExecOptions::default())
    }

    /// Execute path shared by [`Client::execute`] and
    /// [`RequestBuilder`](crate::api::RequestBuilder): `relation`, when
    /// non-empty, must match the query's `FROM` relation, and `options`
    /// override the connection session's configuration for this request
    /// only.
    pub(crate) fn execute_opts(
        &mut self,
        relation: &str,
        paql: &str,
        options: ExecOptions,
    ) -> ClientResult<RemoteExecution> {
        self.execute_request(&Request::Execute {
            relation: relation.to_owned(),
            paql: paql.to_owned(),
            options,
        })
    }

    /// Send a pre-built `Execute` request and decode the execution.
    pub(crate) fn execute_request(&mut self, request: &Request) -> ClientResult<RemoteExecution> {
        match self.roundtrip(request)? {
            Response::Executed(execution) => Ok(*execution),
            other => Err(unexpected("Executed", &other)),
        }
    }

    /// Send a pre-built `Explain` request and decode the plan text.
    pub(crate) fn explain_request(&mut self, request: &Request) -> ClientResult<String> {
        match self.roundtrip(request)? {
            Response::Explained { text } => Ok(text),
            other => Err(unexpected("Explained", &other)),
        }
    }

    /// Execute a PaQL query but fetch only the server-side plan
    /// explanation.
    pub fn explain(&mut self, paql: &str) -> ClientResult<String> {
        match self.roundtrip(&Request::Explain {
            relation: String::new(),
            paql: paql.to_owned(),
            options: ExecOptions::default(),
        })? {
            Response::Explained { text } => Ok(text),
            other => Err(unexpected("Explained", &other)),
        }
    }

    /// Register (or replace) a table; returns the catalog version.
    pub fn register_table(&mut self, name: &str, table: &Table) -> ClientResult<u64> {
        self.register_table_with_token(name, table, None)
    }

    /// [`Client::register_table`] carrying an idempotency `token`: the
    /// server remembers acked tokens and answers a repeat with the
    /// recorded ack instead of re-applying, so this call is safe to
    /// retry after a lost acknowledgement (see
    /// [`RetryingClient`](crate::retry::RetryingClient)).
    pub fn register_table_with_token(
        &mut self,
        name: &str,
        table: &Table,
        token: Option<u64>,
    ) -> ClientResult<u64> {
        match self.roundtrip(&Request::RegisterTable {
            name: name.to_owned(),
            table: table.clone(),
            token,
        })? {
            Response::Registered { version } => Ok(version),
            other => Err(unexpected("Registered", &other)),
        }
    }

    /// Append one row; returns the new catalog version.
    pub fn append_row(&mut self, name: &str, row: Vec<Value>) -> ClientResult<u64> {
        self.append_row_with_token(name, row, None)
    }

    /// [`Client::append_row`] carrying an idempotency `token` (same
    /// retry-safety contract as [`Client::register_table_with_token`]).
    pub fn append_row_with_token(
        &mut self,
        name: &str,
        row: Vec<Value>,
        token: Option<u64>,
    ) -> ClientResult<u64> {
        match self.roundtrip(&Request::AppendRow {
            name: name.to_owned(),
            row,
            token,
        })? {
            Response::Appended { version } => Ok(version),
            other => Err(unexpected("Appended", &other)),
        }
    }

    /// Fetch the server's database snapshot (tables + cache counters).
    pub fn stats(&mut self) -> ClientResult<StatsReply> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Fetch the server's full metrics-registry snapshot: counters,
    /// gauges, and latency histograms (engine, store, and server-side
    /// figures together). Empty when the server runs with observability
    /// disabled. Render it locally with
    /// [`paq_obs::prometheus::render`] for text exposition, or read
    /// percentiles straight off the
    /// [`HistogramSnapshot`](paq_obs::HistogramSnapshot)s.
    pub fn metrics(&mut self) -> ClientResult<paq_obs::RegistrySnapshot> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics(snapshot) => Ok(snapshot),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Ask the server to shut down gracefully (drain in-flight work,
    /// stop accepting). The server acknowledges before closing.
    pub fn shutdown(&mut self) -> ClientResult<()> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

/// Decode the server's answer to a `Hello`. When it is not an ack, the
/// server refused the connection (accept-time `Busy`, `Version` fault,
/// …) with a response on the control tag — surface that instead of
/// "malformed".
pub(crate) fn decode_ack(payload: &[u8]) -> ClientResult<HelloAck> {
    match HelloAck::decode(payload) {
        Ok(ack) if ack.version == WIRE_VERSION => Ok(ack),
        Ok(ack) => Err(ClientError::Wire(WireError::Version {
            got: ack.version,
            want: WIRE_VERSION,
        })),
        Err(e) => Err(match decode_response_v7(payload) {
            Ok((_, response)) => fault_of(response),
            Err(_) => e.into(),
        }),
    }
}

/// The typed error a `Busy` or `Error` response stands for.
pub(crate) fn fault_of(response: Response) -> ClientError {
    match response {
        Response::Busy {
            in_flight,
            max_in_flight,
            retry_after_ms,
            shed_class,
        } => ClientError::Busy {
            in_flight,
            max_in_flight,
            retry_after_ms,
            shed_class,
        },
        Response::Error(fault) => ClientError::Server(fault),
        other => unexpected("Busy/Error", &other),
    }
}

pub(crate) fn unexpected(wanted: &str, got: &Response) -> ClientError {
    let variant = match got {
        Response::Executed(_) => "Executed",
        Response::Registered { .. } => "Registered",
        Response::Appended { .. } => "Appended",
        Response::Explained { .. } => "Explained",
        Response::Stats(_) => "Stats",
        Response::Metrics(_) => "Metrics",
        Response::ShuttingDown => "ShuttingDown",
        Response::Busy { .. } => "Busy",
        Response::Error(_) => "Error",
    };
    ClientError::UnexpectedResponse(format!("wanted {wanted}, got {variant}"))
}
