//! The client library: typed PaQL calls over any [`Connection`].
//!
//! [`Client`] wraps a connected stream — a [`TcpStream`] from
//! [`Client::connect`], or any other [`Connection`] (such as an
//! in-memory [pipe](crate::transport) end) via [`Client::over`] — and
//! speaks tagged [frames](crate::wire7) after a [`Hello`] handshake. A
//! `submit_*` call writes one request and returns a [`Ticket`];
//! [`Client::wait`] blocks until that ticket's response arrives,
//! keeping any other response it reads on the way. Each blocking call
//! ([`Client::execute`], …) is a submit and a wait with one ticket
//! outstanding. `Busy` and server faults surface as typed
//! [`ClientError`]s.
//!
//! ```no_run
//! use paq_server::{Client, RequestBuilder};
//!
//! let mut client = Client::connect("127.0.0.1:7878")?;
//! let query = RequestBuilder::query(
//!     "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 \
//!      SUCH THAT COUNT(P.*) = 3 MINIMIZE SUM(P.saturated_fat)",
//! );
//! println!("{}", query.send(&mut client)?.explain);
//! let a = query.submit(&mut client)?;
//! let b = client.submit_stats()?;
//! let stats = client.wait(b)?; // may complete before `a`
//! let answer = client.wait(a)?;
//! # let _ = (stats, answer);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::marker::PhantomData;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use paq_obs::RegistrySnapshot;
use paq_relational::{Table, Value};

use crate::api::RequestBuilder;
use crate::error::{ClientError, ClientResult, WireError, WireResult};
use crate::server::Connection;
use crate::wire::{
    read_frame, read_frame_with, write_frame, ExecOptions, RemoteExecution, Request, Response,
    ShedClass, StatsReply, WIRE_VERSION,
};
use crate::wire7::{decode_response_v7, encode_request_v7, Hello, HelloAck, CONTROL_TAG};

/// Options for the [`Hello`] handshake.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HelloOptions {
    /// Admission class this connection's requests queue under.
    pub class: ShedClass,
    /// Client identity for per-client admission quotas; `0` (default)
    /// asks the server to assign a fresh anonymous identity. Give all
    /// of one tenant's connections the same non-zero id to share one
    /// quota.
    pub client_id: u64,
}

/// A completion handle for one submitted request, typed by the payload
/// [`Client::wait`] returns for it. The first `wait` claims it; a
/// second is an [`UnexpectedResponse`](ClientError::UnexpectedResponse).
#[derive(Debug)]
pub struct Ticket<T> {
    tag: u32,
    _type: PhantomData<fn() -> T>,
}

// Manual impls: a ticket is a tag, copyable whatever `T` is (derive
// would demand `T: Copy`).
impl<T> Clone for Ticket<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Ticket<T> {}

impl<T> Ticket<T> {
    /// The wire tag identifying this request on its connection.
    pub fn tag(&self) -> u32 {
        self.tag
    }
}

/// Decodes a response into the typed payload a [`Ticket`] promises.
pub trait Completion: Sized {
    /// Convert the server's response; `Busy` and `Error` have already
    /// been turned into typed [`ClientError`]s by the caller.
    fn from_response(response: Response) -> ClientResult<Self>;
}

/// One [`Completion`] per payload: the variant it is read from (named
/// in the error when another arrives) and its value.
macro_rules! completions {
    ($($payload:ty: $wanted:literal, $variant:pat => $value:expr;)+) => {$(
        impl Completion for $payload {
            fn from_response(response: Response) -> ClientResult<Self> {
                match response {
                    $variant => Ok($value),
                    other => Err(unexpected($wanted, &other)),
                }
            }
        }
    )+};
}

completions! {
    RemoteExecution: "Executed", Response::Executed(execution) => *execution;
    String: "Explained", Response::Explained { text } => text;
    // A catalog version.
    u64: "Registered/Appended",
        Response::Registered { version } | Response::Appended { version } => version;
    StatsReply: "Stats", Response::Stats(stats) => stats;
    RegistrySnapshot: "Metrics", Response::Metrics(snapshot) => snapshot;
    (): "ShuttingDown", Response::ShuttingDown => ();
}

/// A connected PaQL client. See the [module docs](self). Not `Clone` —
/// open one client per concurrent caller, the server hands each its
/// own session.
#[derive(Debug)]
pub struct Client<C: Connection> {
    conn: C,
    /// The server's pipeline window, once the handshake has completed.
    window: Option<u64>,
    next_tag: u32,
    /// Submitted tags no `wait` has claimed yet, each with its response
    /// once that has arrived.
    outstanding: HashMap<u32, Option<Response>>,
}

/// Another name for [`Client`], kept so code written against it
/// compiles unchanged.
pub type PipelinedClient<C> = Client<C>;

impl Client<TcpStream> {
    /// Connect over TCP. Disables Nagle's algorithm: requests are small
    /// frames each waiting on its answer, exactly the shape delayed-ACK
    /// coupling penalizes.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        Ok(Client::over(conn))
    }
}

impl<C: Connection> Client<C> {
    /// Wrap an already-connected stream. Nothing is sent until the
    /// first call, which greets with default [`HelloOptions`].
    pub fn over(conn: C) -> Self {
        Client {
            conn,
            window: None,
            next_tag: 0,
            outstanding: HashMap::new(),
        }
    }

    /// Wrap `conn` and greet now with default [`HelloOptions`].
    pub fn handshake(conn: C) -> ClientResult<Self> {
        Self::handshake_as(conn, HelloOptions::default())
    }

    /// Wrap `conn` and greet now, declaring an admission class and
    /// client identity. A server-side refusal (accept-time `Busy`, a
    /// `Version` fault, a connection that cannot be split for
    /// pipelining) surfaces as the server's typed answer.
    pub fn handshake_as(mut conn: C, options: HelloOptions) -> ClientResult<Self> {
        conn.set_read_poll(None)?;
        let mut client = Client::over(conn);
        client.greet(options)?;
        Ok(client)
    }

    /// The pipeline window the server advertised: its bound on this
    /// connection's in-flight requests (`0` before the handshake).
    /// Submitting past it is safe but blocks the *server's* reader.
    pub fn window(&self) -> u64 {
        self.window.unwrap_or(0)
    }

    /// Unwrap the underlying stream.
    pub fn into_inner(self) -> C {
        self.conn
    }

    fn greet(&mut self, options: HelloOptions) -> ClientResult<()> {
        let hello = Hello {
            max_version: WIRE_VERSION,
            client_id: options.client_id,
            class: options.class,
        };
        let mut wrote = hello.write_to(&mut self.conn);
        let ack = decode_ack(&self.read_answer(&mut wrote)?)?;
        self.window = Some(ack.window);
        Ok(())
    }

    /// Read the peer's next frame. `wrote` is the outcome of the write
    /// awaiting an answer: a connection refused at accept time may have
    /// closed under that write with its typed `Busy` still buffered for
    /// reading, so a failed write is reported only when there is
    /// nothing left to read.
    fn read_answer(&mut self, wrote: &mut WireResult<()>) -> ClientResult<Vec<u8>> {
        let read = read_frame(&mut self.conn);
        if !matches!(read, Ok(Some(_))) {
            std::mem::replace(wrote, Ok(()))?;
        }
        read?.ok_or(ClientError::ConnectionClosed)
    }

    /// Greet if this is the first call, then write `request` under a
    /// fresh outstanding tag. The write's outcome is returned, not
    /// raised: a blocking call still reads after a failed write.
    fn send(&mut self, request: &Request) -> ClientResult<(u32, WireResult<()>)> {
        if self.window.is_none() {
            self.greet(HelloOptions::default())?;
        }
        let tag = self.next_tag;
        self.next_tag = (tag + 1) % CONTROL_TAG;
        self.outstanding.insert(tag, None);
        let wrote = write_frame(&mut self.conn, &encode_request_v7(tag, request));
        Ok((tag, wrote))
    }

    /// Write one tagged request and return its ticket.
    pub(crate) fn submit<T>(&mut self, request: &Request) -> ClientResult<Ticket<T>> {
        let (tag, wrote) = self.send(request)?;
        if let Err(e) = wrote {
            self.outstanding.remove(&tag);
            return Err(e.into());
        }
        Ok(Ticket {
            tag,
            _type: PhantomData,
        })
    }

    /// One blocking call: submit `request`, then wait for its answer.
    pub(crate) fn call<T: Completion>(&mut self, request: &Request) -> ClientResult<T> {
        let (tag, wrote) = self.send(request)?;
        self.claim(tag, wrote)
    }

    /// Block until `ticket`'s response arrives (keeping any other
    /// response read along the way), then decode it. `Busy` — the
    /// request was shed by admission control — and server faults become
    /// typed errors carrying the shed class / fault.
    pub fn wait<T: Completion>(&mut self, ticket: Ticket<T>) -> ClientResult<T> {
        self.claim(ticket.tag, Ok(()))
    }

    /// [`Client::wait`] for `tag`, whose write had outcome `wrote`. The
    /// tag is no longer outstanding afterwards, whatever this returns.
    fn claim<T: Completion>(&mut self, tag: u32, mut wrote: WireResult<()>) -> ClientResult<T> {
        let arrived = loop {
            match self.outstanding.get_mut(&tag).map(Option::take) {
                None => return Err(not_awaited(tag)),
                Some(Some(response)) => break Ok(response),
                Some(None) => {}
            }
            let read = self.read_answer(&mut wrote);
            if let Err(e) = read.and_then(|answer| self.file(&answer)) {
                break Err(e);
            }
        };
        self.outstanding.remove(&tag);
        match arrived? {
            response @ (Response::Busy { .. } | Response::Error(_)) => Err(fault_of(response)),
            response => T::from_response(response),
        }
    }

    /// File one response frame under its outstanding tag and return the
    /// tag. A response on the reserved control tag is a connection-level
    /// fault, returned as the error itself; a tag that is not awaiting
    /// an answer is a protocol violation.
    fn file(&mut self, payload: &[u8]) -> ClientResult<u32> {
        let (tag, response) = decode_response_v7(payload)?;
        if tag == CONTROL_TAG {
            return Err(fault_of(response));
        }
        let slot = self.outstanding.get_mut(&tag).filter(|slot| slot.is_none());
        *slot.ok_or_else(|| not_awaited(tag))? = Some(response);
        Ok(tag)
    }

    /// Drain responses that have already arrived, without blocking for
    /// more. Returns the tags newly completed, in arrival order; read
    /// their payloads with [`Client::wait`] (which no longer blocks).
    pub fn poll_ready(&mut self) -> ClientResult<Vec<u32>> {
        self.conn.set_read_poll(Some(Duration::from_millis(1)))?;
        let mut arrived = Vec::new();
        // `on_idle` abandons the wait at the first empty poll tick, so
        // this reads exactly what is buffered and stops.
        let result = loop {
            match read_frame_with(&mut self.conn, || true) {
                Ok(Some(payload)) => match self.file(&payload) {
                    Ok(tag) => arrived.push(tag),
                    Err(e) => break Err(e),
                },
                Ok(None) => break Ok(arrived),
                Err(e) => break Err(e.into()),
            }
        };
        self.conn.set_read_poll(None)?;
        result
    }

    /// Submit a table registration; the table travels in the columnar
    /// encoding. The ticket completes with the catalog version.
    pub fn submit_register_table(
        &mut self,
        name: &str,
        table: &Table,
        token: Option<u64>,
    ) -> ClientResult<Ticket<u64>> {
        self.submit(&register_request(name, table, token))
    }

    /// Submit a row append; the ticket completes with the catalog
    /// version.
    pub fn submit_append_row(
        &mut self,
        name: &str,
        row: Vec<Value>,
        token: Option<u64>,
    ) -> ClientResult<Ticket<u64>> {
        self.submit(&append_request(name, row, token))
    }

    /// Submit a database-stats request.
    pub fn submit_stats(&mut self) -> ClientResult<Ticket<StatsReply>> {
        self.submit(&Request::Stats)
    }

    /// Submit a metrics-snapshot request.
    pub fn submit_metrics(&mut self) -> ClientResult<Ticket<RegistrySnapshot>> {
        self.submit(&Request::Metrics)
    }

    /// Submit a graceful-shutdown request.
    pub fn submit_shutdown(&mut self) -> ClientResult<Ticket<()>> {
        self.submit(&Request::Shutdown)
    }

    /// Execute a PaQL query with default options.
    pub fn execute(&mut self, paql: &str) -> ClientResult<RemoteExecution> {
        self.call(&RequestBuilder::query(paql).build())
    }

    /// Execute a PaQL query but fetch only the server-side plan
    /// explanation.
    pub fn explain(&mut self, paql: &str) -> ClientResult<String> {
        self.call(&Request::Explain {
            relation: String::new(),
            paql: paql.to_owned(),
            options: ExecOptions::default(),
        })
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
        self.call(&register_request(name, table, token))
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
        self.call(&append_request(name, row, token))
    }

    /// Fetch the server's database snapshot (tables + cache counters).
    pub fn stats(&mut self) -> ClientResult<StatsReply> {
        self.call(&Request::Stats)
    }

    /// Fetch the server's full metrics-registry snapshot: counters,
    /// gauges, and latency histograms (engine, store, and server-side
    /// figures together). Empty when the server runs with observability
    /// disabled. Render it locally with
    /// [`paq_obs::prometheus::render`] for text exposition, or read
    /// percentiles straight off the
    /// [`HistogramSnapshot`](paq_obs::HistogramSnapshot)s.
    pub fn metrics(&mut self) -> ClientResult<RegistrySnapshot> {
        self.call(&Request::Metrics)
    }

    /// Ask the server to shut down gracefully (drain in-flight work,
    /// stop accepting). The server acknowledges before closing.
    pub fn shutdown(&mut self) -> ClientResult<()> {
        self.call(&Request::Shutdown)
    }
}

fn register_request(name: &str, table: &Table, token: Option<u64>) -> Request {
    Request::RegisterTable {
        name: name.to_owned(),
        table: table.clone(),
        token,
    }
}

fn append_request(name: &str, row: Vec<Value>, token: Option<u64>) -> Request {
    Request::AppendRow {
        name: name.to_owned(),
        row,
        token,
    }
}

/// Decode the server's answer to a `Hello`. When it is not an ack, the
/// server refused the connection (accept-time `Busy`, `Version` fault,
/// …) with a response on the control tag — surface that instead of
/// "malformed".
fn decode_ack(payload: &[u8]) -> ClientResult<HelloAck> {
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
fn fault_of(response: Response) -> ClientError {
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

fn not_awaited(tag: u32) -> ClientError {
    ClientError::UnexpectedResponse(format!("tag {tag} is not awaiting an answer"))
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{duplex, PipeEnd};
    use crate::wire7::encode_response_v7;
    use std::thread::JoinHandle;

    /// A client whose peer acks the `Hello`, answers request `n` (of
    /// `requests`) with `Appended { version: n }` on tag `answer_tag(n)`,
    /// then hangs up: a wait for an answer that never comes fails with
    /// `ConnectionClosed` instead of hanging.
    fn scripted(requests: u32, answer_tag: fn(u32) -> u32) -> (Client<PipeEnd>, JoinHandle<()>) {
        let (ours, mut theirs) = duplex();
        let peer = std::thread::spawn(move || {
            read_frame(&mut theirs).unwrap().unwrap();
            let ack = HelloAck {
                version: WIRE_VERSION,
                window: 4,
            };
            ack.write_to(&mut theirs).unwrap();
            for n in 0..requests {
                read_frame(&mut theirs).unwrap().unwrap();
                let appended = Response::Appended { version: n.into() };
                write_frame(&mut theirs, &encode_response_v7(answer_tag(n), &appended)).unwrap();
            }
        });
        (Client::over(ours), peer)
    }

    fn is_unexpected<T>(result: ClientResult<T>) -> bool {
        matches!(result, Err(ClientError::UnexpectedResponse(_)))
    }

    #[test]
    fn waiting_twice_or_receiving_a_foreign_tag_fails_at_once() {
        // The first request is answered on its own tag, the second on a
        // tag nobody submitted.
        let (mut client, peer) = scripted(2, |n| if n == 0 { 0 } else { 77 });
        let ticket = client.submit_append_row("T", vec![], None).unwrap();
        assert_eq!(client.wait(ticket).unwrap(), 0);
        let foreign = client.submit_append_row("T", vec![], None).unwrap();
        assert!(is_unexpected(client.wait(foreign)), "tag 77 was never sent");
        assert!(is_unexpected(client.wait(ticket)), "a claimed ticket");
        assert!(client.outstanding.is_empty());
        peer.join().unwrap();
    }

    #[test]
    fn a_wait_keeps_the_responses_it_reads_for_other_tickets() {
        // Each request is answered on the other one's tag.
        let (mut client, peer) = scripted(2, |n| 1 - n);
        let first = client.submit_append_row("T", vec![], None).unwrap();
        let second = client.submit_append_row("T", vec![], None).unwrap();
        assert_eq!(client.wait(first).unwrap(), 1);
        assert_eq!(client.wait(second).unwrap(), 0);
        assert!(client.outstanding.is_empty());
        peer.join().unwrap();
    }

    #[test]
    fn blocking_calls_leave_nothing_outstanding() {
        let (mut client, peer) = scripted(1_000, |n| n);
        for version in 0..1_000 {
            assert_eq!(client.append_row("T", vec![]).unwrap(), version);
        }
        assert!(client.outstanding.is_empty());
        peer.join().unwrap();
    }
}
