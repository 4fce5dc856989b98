//! The pipelined client: many requests in flight on one connection,
//! completions in whatever order the server finishes them.
//!
//! [`PipelinedClient`] opens with a [`Hello`] handshake, then each
//! `submit_*` call writes one tagged request frame and returns a
//! [`Ticket`] — a future-like completion handle typed by what the
//! request will produce. [`PipelinedClient::wait`] blocks until *that*
//! ticket's response arrives, buffering any other completions it reads
//! along the way; [`PipelinedClient::poll_ready`] drains whatever has
//! already arrived without blocking. Because responses carry the
//! request's tag, the client never confuses out-of-order completions.
//!
//! ```no_run
//! use paq_server::{HelloOptions, PipelinedClient};
//!
//! let conn = std::net::TcpStream::connect("127.0.0.1:7878")?;
//! let mut client = PipelinedClient::handshake(conn)?;
//! let a = client.submit_execute("", "SELECT PACKAGE(R) AS P FROM T R \
//!     REPEAT 0 SUCH THAT COUNT(P.*) = 2 MINIMIZE SUM(P.x)", Default::default())?;
//! let b = client.submit_stats()?;
//! let stats = client.wait(b)?;       // may complete before `a`
//! let answer = client.wait(a)?;
//! # let _ = (stats, answer);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The blocking [`Client`](crate::client::Client) speaks the same
//! frames with one tag outstanding; use it when one-at-a-time is
//! enough.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

use paq_obs::RegistrySnapshot;
use paq_relational::{Table, Value};

use crate::client::{decode_ack, fault_of, unexpected};
use crate::error::{ClientError, ClientResult};
use crate::server::Connection;
use crate::wire::{
    read_frame, read_frame_with, write_frame, ExecOptions, RemoteExecution, Request, Response,
    ShedClass, StatsReply, WIRE_VERSION,
};
use crate::wire7::{decode_response_v7, encode_request_v7, Hello, CONTROL_TAG};

/// Options for the [`Hello`] handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloOptions {
    /// Admission class this connection's requests queue under.
    pub class: ShedClass,
    /// Client identity for per-client admission quotas; `0` (default)
    /// asks the server to assign a fresh anonymous identity. Give all
    /// of one tenant's connections the same non-zero id to share one
    /// quota.
    pub client_id: u64,
}

impl HelloOptions {
    /// The handshake opener declaring these options.
    pub(crate) fn hello(self) -> Hello {
        Hello {
            max_version: WIRE_VERSION,
            client_id: self.client_id,
            class: self.class,
        }
    }
}

impl Default for HelloOptions {
    fn default() -> Self {
        HelloOptions {
            class: ShedClass::Normal,
            client_id: 0,
        }
    }
}

/// A completion handle for one submitted request, typed by the payload
/// [`PipelinedClient::wait`] will return for it.
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

impl Completion for RemoteExecution {
    fn from_response(response: Response) -> ClientResult<Self> {
        match response {
            Response::Executed(execution) => Ok(*execution),
            other => Err(unexpected("Executed", &other)),
        }
    }
}

impl Completion for String {
    fn from_response(response: Response) -> ClientResult<Self> {
        match response {
            Response::Explained { text } => Ok(text),
            other => Err(unexpected("Explained", &other)),
        }
    }
}

/// A catalog version, from `Registered` or `Appended`.
impl Completion for u64 {
    fn from_response(response: Response) -> ClientResult<Self> {
        match response {
            Response::Registered { version } | Response::Appended { version } => Ok(version),
            other => Err(unexpected("Registered/Appended", &other)),
        }
    }
}

impl Completion for StatsReply {
    fn from_response(response: Response) -> ClientResult<Self> {
        match response {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }
}

impl Completion for RegistrySnapshot {
    fn from_response(response: Response) -> ClientResult<Self> {
        match response {
            Response::Metrics(snapshot) => Ok(snapshot),
            other => Err(unexpected("Metrics", &other)),
        }
    }
}

impl Completion for () {
    fn from_response(response: Response) -> ClientResult<Self> {
        match response {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

/// A pipelined client. See the [module docs](self).
#[derive(Debug)]
pub struct PipelinedClient<C: Connection> {
    conn: C,
    next_tag: u32,
    window: u64,
    /// Completions read while waiting for a different tag.
    ready: HashMap<u32, Response>,
    /// Tags in the order their responses arrived (the server's
    /// completion order — the out-of-orderness tests assert on this).
    completed: Vec<u32>,
    completed_at: HashMap<u32, Instant>,
}

impl<C: Connection> PipelinedClient<C> {
    /// Open a conversation on `conn` with default [`HelloOptions`].
    pub fn handshake(conn: C) -> ClientResult<Self> {
        Self::handshake_as(conn, HelloOptions::default())
    }

    /// Open a conversation declaring an admission class and client
    /// identity. A server-side refusal (accept-time `Busy`, a `Version`
    /// fault, a connection that cannot be split for pipelining)
    /// surfaces as the server's typed answer.
    pub fn handshake_as(mut conn: C, options: HelloOptions) -> ClientResult<Self> {
        conn.set_read_poll(None).map_err(ClientError::from)?;
        options.hello().write_to(&mut conn)?;
        let ack = match read_frame(&mut conn)? {
            Some(payload) => decode_ack(&payload)?,
            None => return Err(ClientError::ConnectionClosed),
        };
        Ok(PipelinedClient {
            conn,
            next_tag: 0,
            window: ack.window,
            ready: HashMap::new(),
            completed: Vec::new(),
            completed_at: HashMap::new(),
        })
    }

    /// The per-connection pipeline window the server advertised: its
    /// bound on this connection's in-flight requests. Submitting past
    /// it is safe but blocks the *server's* reader, not this client.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Unwrap the underlying stream.
    pub fn into_inner(self) -> C {
        self.conn
    }

    fn alloc_tag(&mut self) -> u32 {
        let tag = self.next_tag;
        // Wrap below the reserved control tag.
        self.next_tag = if tag >= CONTROL_TAG - 1 { 0 } else { tag + 1 };
        tag
    }

    /// Write one tagged request frame; the typed `submit_*` wrappers
    /// (and [`RequestBuilder::submit`](crate::api::RequestBuilder))
    /// shape the ticket.
    pub(crate) fn submit_raw(&mut self, request: &Request) -> ClientResult<u32> {
        let tag = self.alloc_tag();
        write_frame(&mut self.conn, &encode_request_v7(tag, request))?;
        Ok(tag)
    }

    fn ticket<T>(tag: u32) -> Ticket<T> {
        Ticket {
            tag,
            _type: PhantomData,
        }
    }

    /// Submit a PaQL execution. `relation`, when non-empty, must match
    /// the query's `FROM` relation; `options` override the server
    /// session's configuration for this request only.
    pub fn submit_execute(
        &mut self,
        relation: &str,
        paql: &str,
        options: ExecOptions,
    ) -> ClientResult<Ticket<RemoteExecution>> {
        let tag = self.submit_raw(&Request::Execute {
            relation: relation.to_owned(),
            paql: paql.to_owned(),
            options,
        })?;
        Ok(Self::ticket(tag))
    }

    /// Submit a plan-explanation request.
    pub fn submit_explain(&mut self, paql: &str) -> ClientResult<Ticket<String>> {
        let tag = self.submit_raw(&Request::Explain {
            relation: String::new(),
            paql: paql.to_owned(),
            options: ExecOptions::default(),
        })?;
        Ok(Self::ticket(tag))
    }

    /// Submit a table registration; the table travels in the
    /// columnar encoding. The ticket completes with the catalog
    /// version.
    pub fn submit_register_table(
        &mut self,
        name: &str,
        table: &Table,
        token: Option<u64>,
    ) -> ClientResult<Ticket<u64>> {
        let tag = self.submit_raw(&Request::RegisterTable {
            name: name.to_owned(),
            table: table.clone(),
            token,
        })?;
        Ok(Self::ticket(tag))
    }

    /// Submit a row append; the ticket completes with the catalog
    /// version.
    pub fn submit_append_row(
        &mut self,
        name: &str,
        row: Vec<Value>,
        token: Option<u64>,
    ) -> ClientResult<Ticket<u64>> {
        let tag = self.submit_raw(&Request::AppendRow {
            name: name.to_owned(),
            row,
            token,
        })?;
        Ok(Self::ticket(tag))
    }

    /// Submit a database-stats request.
    pub fn submit_stats(&mut self) -> ClientResult<Ticket<StatsReply>> {
        let tag = self.submit_raw(&Request::Stats)?;
        Ok(Self::ticket(tag))
    }

    /// Submit a metrics-snapshot request.
    pub fn submit_metrics(&mut self) -> ClientResult<Ticket<RegistrySnapshot>> {
        let tag = self.submit_raw(&Request::Metrics)?;
        Ok(Self::ticket(tag))
    }

    /// Submit a graceful-shutdown request.
    pub fn submit_shutdown(&mut self) -> ClientResult<Ticket<()>> {
        let tag = self.submit_raw(&Request::Shutdown)?;
        Ok(Self::ticket(tag))
    }

    /// Block until `ticket`'s response arrives (buffering any other
    /// completions read along the way), then decode it. `Busy` — the
    /// request was shed by admission control — and server faults become
    /// typed errors carrying the shed class / fault.
    pub fn wait<T: Completion>(&mut self, ticket: Ticket<T>) -> ClientResult<T> {
        loop {
            if let Some(response) = self.ready.remove(&ticket.tag) {
                return match response {
                    Response::Busy { .. } | Response::Error(_) => Err(fault_of(response)),
                    other => T::from_response(other),
                };
            }
            self.read_one()?;
        }
    }

    /// Read one response frame and file it under its tag. A response on
    /// the reserved control tag is a connection-level fault and is
    /// returned as the error itself.
    fn read_one(&mut self) -> ClientResult<()> {
        let payload = match read_frame(&mut self.conn)? {
            Some(payload) => payload,
            None => return Err(ClientError::ConnectionClosed),
        };
        self.file(&payload)
    }

    fn file(&mut self, payload: &[u8]) -> ClientResult<()> {
        let (tag, response) = decode_response_v7(payload)?;
        if tag == CONTROL_TAG {
            return Err(fault_of(response));
        }
        self.completed.push(tag);
        self.completed_at.insert(tag, Instant::now());
        self.ready.insert(tag, response);
        Ok(())
    }

    /// Drain responses that have already arrived, without blocking for
    /// more. Returns the tags newly completed by this call; read their
    /// payloads with [`PipelinedClient::wait`] (which no longer blocks
    /// for them).
    pub fn poll_ready(&mut self) -> ClientResult<Vec<u32>> {
        self.conn
            .set_read_poll(Some(Duration::from_millis(1)))
            .map_err(ClientError::from)?;
        let before = self.completed.len();
        let result = loop {
            // `on_idle` abandons the wait at the first empty poll tick,
            // so this reads exactly what is buffered and stops.
            match read_frame_with(&mut self.conn, || true) {
                Ok(Some(payload)) => {
                    if let Err(e) = self.file(&payload) {
                        break Err(e);
                    }
                }
                Ok(None) => break Ok(()),
                Err(e) => break Err(e.into()),
            }
        };
        self.conn.set_read_poll(None).map_err(ClientError::from)?;
        result?;
        Ok(self.completed[before..].to_vec())
    }

    /// Tags in the order their responses arrived — the server's
    /// completion order, which pipelining allows to differ from
    /// submission order.
    pub fn completed_order(&self) -> &[u32] {
        &self.completed
    }

    /// When `tag`'s response arrived at this client, if it has.
    pub fn completed_at(&self, tag: u32) -> Option<Instant> {
        self.completed_at.get(&tag).copied()
    }
}
