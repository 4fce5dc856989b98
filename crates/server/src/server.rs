//! The server core: an acceptor loop feeding a fixed
//! connection-handler pool, one `PackageDb` session per connection.
//!
//! # Concurrency model
//!
//! * The **acceptor** runs on the thread that called
//!   [`Server::serve`]; it polls the [`Acceptor`] (loopback TCP or the
//!   in-memory [`PipeListener`]) and hands each connection to the
//!   worker pool via [`paq_exec::ThreadPool::serve`].
//! * Each **connection handler** clones a [`PackageDb`] session —
//!   PR 3 made sessions cheap `&self` handles onto the shared catalog,
//!   so handlers never take a lock of the server's own. Per-request
//!   [`ExecOptions`] apply to a fresh session clone, so one client's
//!   tuning can never leak into another's. The handler only *reads*:
//!   after the [`Hello`] handshake it decodes tagged request frames and
//!   queues them in the one fair scheduler ([`AdmissionConfig`]); a
//!   separate executor pool dequeues, executes and writes the tagged
//!   responses. There is no second, inline path — a blocking call on a
//!   [`Client`](crate::client::Client) is a submit and a wait with one
//!   ticket outstanding.
//! * **Backpressure** is a bound on accepted-but-unfinished
//!   connections: at the bound, a new connection is answered with a
//!   typed [`Response::Busy`] and closed instead of queueing without
//!   limit ([`ServerConfig::max_in_flight`]).
//! * **Graceful shutdown**: a [`Request::Shutdown`] (or
//!   [`Server::trigger_shutdown`]) stops the acceptor; handlers finish
//!   the request they are processing — a frame already started is
//!   always read to completion (see
//!   [`read_frame_with`](crate::wire::read_frame_with)) — then close as
//!   soon as their connection goes idle. [`Server::serve`] returns only
//!   after every handler drained.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paq_db::{AckKind, DbError, Execution, PackageDb};
use paq_exec::ThreadPool;
use paq_lang::parse_paql;
use paq_obs::Registry;

pub use crate::admission::AdmissionConfig;
use crate::admission::{FairScheduler, PushOutcome, WindowGate};
use crate::error::{WireError, WireResult};
use crate::transport::{PipeEnd, PipeListener};
use crate::wire::{
    read_frame_deadline, write_frame, ExecOptions, Fault, FaultKind, RemoteExecution, Request,
    Response, ShedClass, StatsReply, WIRE_VERSION,
};
use crate::wire7::{self, encode_response_v7, Hello, HelloAck, CONTROL_TAG};

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection-handler pool size: at most this many connections are
    /// *served* simultaneously (further accepted ones queue, up to
    /// `max_in_flight`).
    pub workers: usize,
    /// Bound on accepted-but-unfinished connections (serving plus
    /// queued). At the bound new connections receive a typed
    /// [`Response::Busy`] and are closed — bounded backpressure instead
    /// of unbounded buffering.
    pub max_in_flight: usize,
    /// How often blocked accepts and idle connection reads wake to
    /// observe shutdown.
    pub poll_interval: Duration,
    /// When the database is durable, force the WAL to disk after every
    /// mutating request (`RegisterTable` / `AppendRow`) *before* the
    /// success acknowledgement goes on the wire. This is the knob that
    /// makes [`paq_db::SyncPolicy::Manual`] safe to serve: the client's
    /// `Registered`/`Appended` reply then implies the mutation survives
    /// a crash. A flush failure is answered as a
    /// [`FaultKind::Storage`] fault instead of the success reply.
    /// No-op for in-memory databases.
    pub flush_on_mutation: bool,
    /// Total deadline for a frame *in progress*: once a request frame's
    /// first byte arrives, the whole frame must complete within this
    /// window or the handler answers with a [`FaultKind::Timeout`]
    /// fault and closes the connection — the slowloris guard, so a
    /// client that sends a few header bytes and stalls cannot pin a
    /// handler forever. `None` disables the guard.
    pub frame_deadline: Option<Duration>,
    /// Pacing hint carried on [`Response::Busy`]: how long a rejected
    /// client should wait before reconnecting.
    pub busy_retry_after: Duration,
    /// How many acked mutation tokens the server remembers for
    /// idempotent retry deduplication (FIFO eviction; `0` disables
    /// deduplication). Over a **durable** database the window survives
    /// restarts: acked tokens ride the WAL and snapshots, and a fresh
    /// server seeds its cache from what recovery restored
    /// ([`PackageDb::acked_mutations`]) — so a retry that straddles a
    /// crash is re-acknowledged with its original version, not
    /// re-applied. Over an in-memory database the window is
    /// per-process, and clients should not retry mutations across a
    /// known restart boundary (a re-appended row duplicates).
    pub dedupe_capacity: usize,
    /// Close a connection that has not **started** a frame within this
    /// window (measured from accept and from the end of each frame).
    /// The [`ServerConfig::frame_deadline`] slowloris guard only covers
    /// frames in progress; this closes the gap for connections that
    /// connect and say nothing, so idle peers cannot pin handler
    /// workers forever. Resolution is
    /// [`ServerConfig::poll_interval`] ticks. `None` disables.
    pub idle_timeout: Option<Duration>,
    /// Per-connection pipeline window: at most this many of one
    /// connection's requests may be queued or executing at once.
    /// Advertised to the client in the
    /// [`HelloAck`] handshake answer.
    pub pipeline_window: usize,
    /// Fairness-aware admission control, applied to every request; see
    /// [`AdmissionConfig`].
    pub admission: AdmissionConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_in_flight: 64,
            poll_interval: Duration::from_millis(10),
            flush_on_mutation: true,
            frame_deadline: Some(Duration::from_secs(30)),
            busy_retry_after: Duration::from_millis(50),
            dedupe_capacity: 1024,
            idle_timeout: Some(Duration::from_secs(60)),
            pipeline_window: 32,
            admission: AdmissionConfig::default(),
        }
    }
}

/// Outcome of one [`Acceptor::poll`] round.
pub enum Accepted<C> {
    /// A new connection.
    Conn(C),
    /// Nothing arrived within the poll timeout.
    Idle,
    /// The listener is gone; stop serving.
    Closed,
}

/// A connection source the server can drive: loopback TCP
/// ([`TcpAcceptor`]) and the in-memory [`PipeListener`] both implement
/// it, so every test and deployment runs the identical serve loop.
pub trait Acceptor {
    /// The connection type produced.
    type Conn: Connection;
    /// Wait up to `timeout` for the next connection.
    fn poll(&mut self, timeout: Duration) -> Accepted<Self::Conn>;
}

/// A serveable byte stream: framed I/O plus a read-poll knob so an
/// idle connection handler wakes periodically to observe shutdown.
pub trait Connection: Read + Write + Send {
    /// Set (or clear) the read timeout used for idle polling.
    fn set_read_poll(&mut self, timeout: Option<Duration>) -> io::Result<()>;

    /// A second handle onto the same stream for **writing** responses
    /// while this handle keeps reading — the split the pipelined loop
    /// needs so executors complete responses out of order without
    /// blocking the frame reader. Both handles must observe the same
    /// stream state (a close or an injected fault on one is seen by the
    /// other). A stream that cannot be split returns an error and the
    /// server refuses its handshake with a typed fault.
    fn try_clone_writer(&self) -> io::Result<Self>
    where
        Self: Sized;
}

impl Connection for TcpStream {
    fn set_read_poll(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }

    fn try_clone_writer(&self) -> io::Result<Self> {
        self.try_clone()
    }
}

impl Connection for PipeEnd {
    fn set_read_poll(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout);
        Ok(())
    }

    fn try_clone_writer(&self) -> io::Result<Self> {
        Ok(self.try_clone())
    }
}

/// [`Acceptor`] over a non-blocking [`TcpListener`].
pub struct TcpAcceptor {
    listener: TcpListener,
}

impl TcpAcceptor {
    /// Wrap a bound listener (switched to non-blocking so the accept
    /// loop can observe shutdown between connections).
    pub fn new(listener: TcpListener) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        Ok(TcpAcceptor { listener })
    }

    /// The listener's local address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }
}

impl Acceptor for TcpAcceptor {
    type Conn = TcpStream;

    fn poll(&mut self, timeout: Duration) -> Accepted<TcpStream> {
        match self.listener.accept() {
            Ok((stream, _)) => {
                // Accepted sockets must be blocking regardless of what
                // they inherited from the non-blocking listener.
                if stream.set_nonblocking(false).is_err() {
                    return Accepted::Idle;
                }
                // Request/response frames are small; Nagle would hold
                // each response hostage to the peer's delayed ACK.
                let _ = stream.set_nodelay(true);
                Accepted::Conn(stream)
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(timeout);
                Accepted::Idle
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Accepted::Idle,
            // Every other accept error on a live listener is transient
            // (peer reset before accept → ECONNABORTED, fd exhaustion
            // → EMFILE, …): skip the failed accept and keep serving —
            // returning Closed here would silently stop the server
            // forever. Shutdown is signaled via the server's flag, not
            // via accept errors, so there is no Closed case for TCP.
            Err(_) => {
                std::thread::sleep(timeout);
                Accepted::Idle
            }
        }
    }
}

impl Acceptor for PipeListener {
    type Conn = PipeEnd;

    fn poll(&mut self, timeout: Duration) -> Accepted<PipeEnd> {
        match self.accept_timeout(timeout) {
            Ok(Some(conn)) => Accepted::Conn(conn),
            Ok(None) => Accepted::Idle,
            Err(_) => Accepted::Closed,
        }
    }
}

/// Bounded FIFO memory of acked mutation tokens → the exact response
/// that acknowledged them. A retried mutation carrying a remembered
/// token is answered from here instead of re-applied.
#[derive(Debug, Default)]
struct TokenCache {
    capacity: usize,
    order: VecDeque<u64>,
    map: HashMap<u64, Response>,
}

impl TokenCache {
    fn new(capacity: usize) -> Self {
        TokenCache {
            capacity,
            order: VecDeque::new(),
            map: HashMap::new(),
        }
    }

    fn get(&self, token: u64) -> Option<Response> {
        self.map.get(&token).cloned()
    }

    fn insert(&mut self, token: u64, response: Response) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(token, response).is_none() {
            self.order.push_back(token);
            while self.order.len() > self.capacity {
                if let Some(evicted) = self.order.pop_front() {
                    self.map.remove(&evicted);
                }
            }
        }
    }
}

/// Shared observable server state.
#[derive(Debug, Default)]
struct ServerState {
    shutdown: AtomicBool,
    in_flight: AtomicUsize,
    served: AtomicU64,
    busy_rejections: AtomicU64,
    durability_flushes: AtomicU64,
    flush_failures: AtomicU64,
    frame_timeouts: AtomicU64,
    deduped_mutations: AtomicU64,
    handler_panics: AtomicU64,
    idle_closed: AtomicU64,
    shed_requests: AtomicU64,
    next_auto_client: AtomicU64,
    acked: Mutex<TokenCache>,
    /// The database's metrics registry (shared, not a copy): server-side
    /// figures — `server.queue_wait`, `server.handle`, frame-I/O
    /// latencies — land next to the engine's own, so one
    /// [`Request::Metrics`] snapshot covers the whole stack.
    obs: Registry,
}

/// One admitted request, queued in the
/// [`FairScheduler`] until an executor picks it up. Carries everything
/// the executor needs to answer independently of the connection's
/// reader: the client's tag, a shared writer handle, the
/// pipeline-window gate to release, and the connection's session.
pub(crate) struct Work<C: Connection> {
    tag: u32,
    request: Request,
    client: u64,
    class: ShedClass,
    writer: Arc<Mutex<C>>,
    gate: Arc<WindowGate>,
    session: PackageDb,
    enqueued: Instant,
}

/// Decrements the in-flight connection count when a handler finishes,
/// panic or not.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A PaQL server over one shared [`PackageDb`]. See the
/// [module docs](self) for the concurrency model.
pub struct Server {
    db: PackageDb,
    config: ServerConfig,
    /// Connection handlers (frame readers), one per served connection.
    pool: ThreadPool,
    /// Request executors draining the admission scheduler — separate
    /// from `pool` so pipelined requests never wait behind blocked
    /// readers (and vice versa).
    exec_pool: ThreadPool,
    state: Arc<ServerState>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.config)
            .field("in_flight", &self.state.in_flight.load(Ordering::Acquire))
            .field("served", &self.state.served.load(Ordering::Acquire))
            .finish()
    }
}

impl Server {
    /// A server over `db` with default configuration. The session's
    /// [`DbConfig`](paq_db::DbConfig) becomes the base configuration
    /// every connection session starts from.
    pub fn new(db: PackageDb) -> Self {
        Self::with_config(db, ServerConfig::default())
    }

    /// A server with explicit configuration.
    pub fn with_config(db: PackageDb, config: ServerConfig) -> Self {
        let pool = ThreadPool::new(config.workers.max(1));
        let exec_pool = ThreadPool::new(config.workers.max(1));
        // Seed the dedupe window from what the database's recovery
        // restored (empty for in-memory databases): a client retrying a
        // mutation acked before a crash gets its original ack back.
        let mut acked = TokenCache::new(config.dedupe_capacity);
        for ack in db.acked_mutations() {
            let response = match ack.kind {
                AckKind::Register => Response::Registered {
                    version: ack.version,
                },
                AckKind::Append => Response::Appended {
                    version: ack.version,
                },
            };
            acked.insert(ack.token, response);
        }
        let state = ServerState {
            acked: Mutex::new(acked),
            obs: db.obs_registry(),
            ..ServerState::default()
        };
        Server {
            db,
            config,
            pool,
            exec_pool,
            state: Arc::new(state),
        }
    }

    /// The underlying database; registering tables here is visible to
    /// every connection immediately (shared catalog).
    pub fn db(&self) -> &PackageDb {
        &self.db
    }

    /// Requests answered so far (all kinds, including errors).
    pub fn served(&self) -> u64 {
        self.state.served.load(Ordering::Acquire)
    }

    /// Connections rejected with [`Response::Busy`] so far.
    pub fn busy_rejections(&self) -> u64 {
        self.state.busy_rejections.load(Ordering::Acquire)
    }

    /// WAL flushes performed by the flush-on-mutation policy so far
    /// (always 0 for in-memory databases or when
    /// [`ServerConfig::flush_on_mutation`] is off).
    pub fn durability_flushes(&self) -> u64 {
        self.state.durability_flushes.load(Ordering::Acquire)
    }

    /// Flush-on-mutation failures so far; each also surfaced to the
    /// requesting client as a [`FaultKind::Storage`] fault.
    pub fn flush_failures(&self) -> u64 {
        self.state.flush_failures.load(Ordering::Acquire)
    }

    /// Started frames abandoned because they stalled past
    /// [`ServerConfig::frame_deadline`]; each also answered with a
    /// [`FaultKind::Timeout`] fault before the connection closed.
    pub fn frame_timeouts(&self) -> u64 {
        self.state.frame_timeouts.load(Ordering::Acquire)
    }

    /// Mutations answered from the acked-token cache instead of
    /// re-applied (a retry after a lost acknowledgement).
    pub fn deduped_mutations(&self) -> u64 {
        self.state.deduped_mutations.load(Ordering::Acquire)
    }

    /// Connection handlers that panicked. Each panic is contained to
    /// its own connection (the peer sees the stream close); the serve
    /// loop keeps accepting. Pipelined-request panics are contained per
    /// *request* and counted here too (the client receives a typed
    /// [`FaultKind::Engine`] fault instead of a hang).
    pub fn handler_panics(&self) -> u64 {
        self.state.handler_panics.load(Ordering::Acquire)
    }

    /// Connections closed for never starting a frame within
    /// [`ServerConfig::idle_timeout`].
    pub fn idle_closed(&self) -> u64 {
        self.state.idle_closed.load(Ordering::Acquire)
    }

    /// Pipelined requests shed by admission control (quota exceeded,
    /// queue saturated, or evicted for higher-priority work); each was
    /// answered with a typed [`Response::Busy`] carrying its shed
    /// class.
    pub fn shed_requests(&self) -> u64 {
        self.state.shed_requests.load(Ordering::Acquire)
    }

    /// Ask the serve loop to stop accepting and drain. Also triggered
    /// remotely by [`Request::Shutdown`].
    pub fn trigger_shutdown(&self) {
        self.state.shutdown.store(true, Ordering::Release);
    }

    /// `true` once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::Acquire)
    }

    /// Serve connections from `acceptor` until shutdown (or the
    /// listener closes), then drain in-flight handlers before
    /// returning. The acceptor runs on the calling thread; connection
    /// handlers (frame readers) run on the server's handler pool;
    /// requests execute on a separate executor pool fed by the
    /// fairness-aware admission scheduler.
    pub fn serve<A: Acceptor>(&self, mut acceptor: A) {
        let state = Arc::clone(&self.state);
        let sched: FairScheduler<Work<A::Conn>> = FairScheduler::new(self.config.admission.clone());
        self.exec_pool.scope(|scope| {
            // Dedicated executor loops pull from the scheduler so the
            // weighted-fair dequeue order *is* the execution order —
            // fanning work onto a FIFO pool queue would erase it.
            for _ in 0..self.config.workers.max(1) {
                scope.spawn(|| {
                    while let Some(work) = sched.pop() {
                        self.execute_work(&sched, work);
                    }
                });
            }
            let panics = self.pool.serve_resilient(
                || loop {
                    if state.shutdown.load(Ordering::Acquire) {
                        return None;
                    }
                    match acceptor.poll(self.config.poll_interval) {
                        Accepted::Conn(mut conn) => {
                            // Backpressure: reject beyond the in-flight
                            // bound with a typed Busy instead of queueing.
                            let in_flight = state.in_flight.load(Ordering::Acquire);
                            if in_flight >= self.config.max_in_flight {
                                state.busy_rejections.fetch_add(1, Ordering::AcqRel);
                                let busy = Response::Busy {
                                    in_flight: in_flight as u64,
                                    max_in_flight: self.config.max_in_flight as u64,
                                    retry_after_ms: self.config.busy_retry_after.as_millis() as u64,
                                    shed_class: None,
                                };
                                let _ =
                                    write_frame(&mut conn, &encode_response_v7(CONTROL_TAG, &busy));
                                continue; // drop rejects the connection
                            }
                            state.in_flight.fetch_add(1, Ordering::AcqRel);
                            // The accept timestamp rides along so the
                            // handler can measure queue wait: the gap
                            // between accept and the first handler
                            // instruction is exactly the time the
                            // connection spent waiting for a free worker.
                            return Some((conn, Instant::now()));
                        }
                        Accepted::Idle => continue,
                        Accepted::Closed => return None,
                    }
                },
                |(conn, accepted_at)| {
                    let _guard = InFlightGuard(&state.in_flight);
                    state
                        .obs
                        .observe("server.queue_wait", accepted_at.elapsed());
                    self.handle_connection(conn, &sched);
                },
            );
            // A panicking handler costs its own connection, never the
            // server: the count is observable, the loop already went on.
            self.state
                .handler_panics
                .fetch_add(panics, Ordering::AcqRel);
            // Every reader has returned, so nothing can push anymore:
            // close the scheduler — executors drain what is queued,
            // then their loops end and the scope joins them.
            sched.close();
        });
        // Graceful drain: every handler has finished, so nothing can
        // append concurrently — force whatever the WAL still buffers to
        // disk before the serve loop returns (best-effort: a failure
        // here has no client left to report to, but the store's
        // fail-stop counters record it).
        if self.db.is_durable() {
            let _ = self.db.sync_wal();
        }
    }

    /// Serve loopback (or any) TCP on an already-bound listener.
    pub fn serve_tcp(&self, listener: TcpListener) -> io::Result<()> {
        let acceptor = TcpAcceptor::new(listener)?;
        self.serve(acceptor);
        Ok(())
    }

    /// Wait for the next request frame, polling shutdown and enforcing
    /// [`ServerConfig::idle_timeout`]: a connection that has not even
    /// *started* a frame within the window is treated as gone
    /// (`Ok(None)`) and counted — the [`ServerConfig::frame_deadline`]
    /// slowloris guard only covers frames in progress, this closes the
    /// gap for peers that connect and say nothing.
    fn read_request_frame<C: Connection>(&self, conn: &mut C) -> WireResult<Option<Vec<u8>>> {
        let idle_start = Instant::now();
        let mut idle_expired = false;
        let result = read_frame_deadline(
            conn,
            || {
                if self.state.shutdown.load(Ordering::Acquire) {
                    return true;
                }
                match self.config.idle_timeout {
                    Some(limit) if idle_start.elapsed() >= limit => {
                        idle_expired = true;
                        true
                    }
                    _ => false,
                }
            },
            self.config.frame_deadline,
        );
        if idle_expired && matches!(result, Ok(None)) {
            self.state.idle_closed.fetch_add(1, Ordering::AcqRel);
            self.state.obs.incr(paq_obs::names::SERVER_IDLE_CLOSED);
        }
        result
    }

    /// Read the next frame for a connection's reader, timing the wait
    /// into `server.frame.read`. `Ok(None)` means the peer closed, or
    /// shutdown or the idle timeout arrived. `Err` means the framing
    /// broke — a stalled or unreadable frame leaves the stream unusable,
    /// so the caller sends the fault (best effort) on [`CONTROL_TAG`]
    /// and closes.
    //
    // The histogram covers the whole wait for a frame, so for all but a
    // connection's first request it is dominated by client think-time —
    // it exists to expose slow/stalling senders, not server work
    // (that's `server.handle`).
    fn next_frame<C: Connection>(&self, conn: &mut C) -> Result<Option<Vec<u8>>, Fault> {
        let read_start = Instant::now();
        match self.read_request_frame(conn) {
            Ok(payload) => {
                if payload.is_some() {
                    self.state
                        .obs
                        .observe("server.frame.read", read_start.elapsed());
                }
                Ok(payload)
            }
            Err(WireError::DeadlineExpired { elapsed }) => {
                self.state.frame_timeouts.fetch_add(1, Ordering::AcqRel);
                Err(Fault {
                    kind: FaultKind::Timeout,
                    message: format!("request frame still incomplete after {elapsed:?}"),
                })
            }
            Err(e) => Err(Fault {
                kind: FaultKind::BadRequest,
                message: format!("unreadable frame: {e}"),
            }),
        }
    }

    /// Drive one connection. The first frame must be a [`Hello`]
    /// offering [`WIRE_VERSION`]; anything else is refused with one
    /// typed [`FaultKind::Version`] fault and a close. After the
    /// handshake this thread stays the connection's only *reader*: it
    /// decodes tagged request frames and offers them to the admission
    /// scheduler; executors complete them out of order, writing tagged
    /// responses through a cloned writer handle. The per-connection
    /// [`WindowGate`] bounds how many of this connection's requests are
    /// queued or executing at once.
    fn handle_connection<C: Connection>(&self, mut conn: C, sched: &FairScheduler<Work<C>>) {
        if conn.set_read_poll(Some(self.config.poll_interval)).is_err() {
            return;
        }
        self.state.obs.incr("server.connections");
        // Until the connection is split, faults go out on the bare
        // stream (best effort), followed by the close.
        let refuse = |conn: &mut C, kind: FaultKind, message: String| {
            let frame = encode_response_v7(CONTROL_TAG, &Response::Error(Fault { kind, message }));
            let _ = write_frame(conn, &frame);
        };
        let payload = match self.next_frame(&mut conn) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(fault) => return refuse(&mut conn, fault.kind, fault.message),
        };
        let hello = match Hello::decode(&payload) {
            Ok(hello) if hello.max_version >= WIRE_VERSION => hello,
            Ok(hello) => {
                let offered = hello.max_version;
                return refuse(
                    &mut conn,
                    FaultKind::Version,
                    format!("client offers protocol {offered}, this server speaks {WIRE_VERSION}"),
                );
            }
            Err(e) => {
                return refuse(
                    &mut conn,
                    FaultKind::Version,
                    format!("connection must open with a protocol-{WIRE_VERSION} Hello: {e}"),
                );
            }
        };
        // Responses complete on executor threads while this thread keeps
        // reading, so the connection must split into two handles.
        let writer = match conn.try_clone_writer() {
            Ok(writer) => Arc::new(Mutex::new(writer)),
            Err(e) => {
                return refuse(
                    &mut conn,
                    FaultKind::Engine,
                    format!("connection cannot be split for pipelining: {e}"),
                );
            }
        };
        let ack = HelloAck {
            version: WIRE_VERSION,
            window: self.config.pipeline_window.max(1) as u64,
        };
        {
            let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
            if write_frame(&mut *w, &ack.encode()).is_err() {
                return;
            }
        }
        self.state.obs.incr(paq_obs::names::SERVER_HANDSHAKES);
        // Client identity for per-client quotas: self-declared (so a
        // client's connections share one quota), or a synthetic id
        // counting down from the top so it cannot collide with declared
        // ones.
        let client = if hello.client_id != 0 {
            hello.client_id
        } else {
            u64::MAX - self.state.next_auto_client.fetch_add(1, Ordering::AcqRel)
        };
        let class = hello.class;
        let gate = Arc::new(WindowGate::new(self.config.pipeline_window));
        // One session per connection; its config is the base every
        // request's overrides apply to.
        let session = self.db.session();
        loop {
            let payload = match self.next_frame(&mut conn) {
                Ok(Some(payload)) => payload,
                // Stop reading. Work already admitted still completes —
                // executors hold their own writer handles.
                Ok(None) => return,
                Err(fault) => {
                    return self.write_fault(&writer, CONTROL_TAG, fault.kind, fault.message)
                }
            };
            let decode_start = Instant::now();
            let (tag, request) = match wire7::decode_request_v7(&payload) {
                Ok(decoded) => {
                    self.state
                        .obs
                        .observe("server.request.decode", decode_start.elapsed());
                    decoded
                }
                // Well-delimited but undecodable: the stream is still in
                // sync. Answer on the frame's tag when it got far enough
                // to carry one, else the control tag, and keep going.
                Err(e) => {
                    let tag = wire7::request_frame_tag(&payload).unwrap_or(CONTROL_TAG);
                    self.state.served.fetch_add(1, Ordering::AcqRel);
                    self.write_fault(
                        &writer,
                        tag,
                        FaultKind::BadRequest,
                        format!("undecodable request: {e}"),
                    );
                    continue;
                }
            };
            // Pipeline window: block the *reader* (not the executors)
            // while this connection is at its in-flight bound. Giving up
            // means shutdown arrived while blocked.
            if !gate.acquire(|| self.state.shutdown.load(Ordering::Acquire)) {
                return;
            }
            let work = Work {
                tag,
                request,
                client,
                class,
                writer: Arc::clone(&writer),
                gate: Arc::clone(&gate),
                session: session.clone(),
                enqueued: Instant::now(),
            };
            // Count the arrival *before* handing it to the scheduler: once
            // pushed, an executor may complete the request and write its
            // response ahead of anything this reader does next, and a client
            // snapshotting metrics right after that response must already
            // see the request counted.
            self.state.obs.incr(paq_obs::names::SERVER_PIPELINED);
            match sched.push(class, client, work) {
                PushOutcome::Admitted => {}
                PushOutcome::ShedIncoming(work) => self.shed_work(work),
                PushOutcome::Evicted(victim) => self.shed_work(victim),
            }
        }
    }

    /// Answer a shed (or evicted) pipelined request with a typed
    /// [`Response::Busy`] carrying its admission class, and release its
    /// pipeline-window slot. The scheduler has already settled the
    /// client-quota accounting for both shapes (never charged for a shed
    /// arrival, refunded at eviction), so no [`FairScheduler::finish`]
    /// here.
    fn shed_work<C: Connection>(&self, work: Work<C>) {
        self.state.shed_requests.fetch_add(1, Ordering::AcqRel);
        self.state.served.fetch_add(1, Ordering::AcqRel);
        self.state.obs.incr(paq_obs::names::SERVER_SHED);
        self.state.obs.incr(match work.class {
            ShedClass::Interactive => paq_obs::names::SERVER_SHED_INTERACTIVE,
            ShedClass::Normal => paq_obs::names::SERVER_SHED_NORMAL,
            ShedClass::Bulk => paq_obs::names::SERVER_SHED_BULK,
        });
        let response = Response::Busy {
            in_flight: self.state.in_flight.load(Ordering::Acquire) as u64,
            max_in_flight: self.config.max_in_flight as u64,
            retry_after_ms: self.config.busy_retry_after.as_millis() as u64,
            shed_class: Some(work.class),
        };
        let frame = encode_response_v7(work.tag, &response);
        let mut w = work.writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = write_frame(&mut *w, &frame);
        drop(w);
        work.gate.release();
    }

    /// Best-effort fault through a connection's shared writer handle.
    fn write_fault<C: Connection>(
        &self,
        writer: &Arc<Mutex<C>>,
        tag: u32,
        kind: FaultKind,
        message: String,
    ) {
        let frame = encode_response_v7(tag, &Response::Error(Fault { kind, message }));
        let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = write_frame(&mut *w, &frame);
    }

    /// Execute one admitted pipelined request on an executor thread and
    /// write its tagged response. A panicking handler costs only this
    /// request: the client gets a typed fault on the same tag instead of
    /// a hole in its pipeline.
    fn execute_work<C: Connection>(&self, sched: &FairScheduler<Work<C>>, work: Work<C>) {
        let Work {
            tag,
            request,
            client,
            class: _,
            writer,
            gate,
            session,
            enqueued,
        } = work;
        self.state
            .obs
            .observe(paq_obs::names::SERVER_FAIR_QUEUE_WAIT, enqueued.elapsed());
        let handle_start = Instant::now();
        let response = match catch_unwind(AssertUnwindSafe(|| self.dispatch(&session, request))) {
            Ok(response) => response,
            Err(_) => {
                self.state.handler_panics.fetch_add(1, Ordering::AcqRel);
                Response::Error(Fault {
                    kind: FaultKind::Engine,
                    message: "request handler panicked".to_string(),
                })
            }
        };
        self.state.obs.incr("server.requests");
        self.state
            .obs
            .observe("server.handle", handle_start.elapsed());
        self.state.served.fetch_add(1, Ordering::AcqRel);
        let write_start = Instant::now();
        let frame = encode_response_v7(tag, &response);
        {
            let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
            // A failed write means the client is gone; its remaining
            // responses fail the same way and the reader has already
            // seen the close.
            let _ = write_frame(&mut *w, &frame);
        }
        self.state
            .obs
            .observe("server.response.write", write_start.elapsed());
        gate.release();
        sched.finish(client);
    }

    fn dispatch(&self, session: &PackageDb, request: Request) -> Response {
        match request {
            Request::Execute {
                relation,
                paql,
                options,
            } => match self.run(session, &relation, &paql, &options) {
                Ok(exec) => Response::Executed(Box::new(RemoteExecution::from_execution(&exec))),
                Err(response) => response,
            },
            Request::Explain {
                relation,
                paql,
                options,
            } => match self.run(session, &relation, &paql, &options) {
                Ok(exec) => Response::Explained {
                    text: exec.explain(),
                },
                Err(response) => response,
            },
            Request::RegisterTable { name, table, token } => {
                if let Some(acked) = self.lookup_acked(token) {
                    return acked;
                }
                let version = session.register_table_with_token(name, table, token);
                match self.flush_mutation(session) {
                    Ok(()) => {
                        let response = Response::Registered { version };
                        self.record_ack(token, &response);
                        response
                    }
                    Err(e) => Response::Error(Fault::from(&e)),
                }
            }
            Request::AppendRow { name, row, token } => {
                if let Some(acked) = self.lookup_acked(token) {
                    return acked;
                }
                match session
                    .append_row_with_token(&name, row, token)
                    .and_then(|version| self.flush_mutation(session).map(|()| version))
                {
                    Ok(version) => {
                        let response = Response::Appended { version };
                        self.record_ack(token, &response);
                        response
                    }
                    Err(e) => Response::Error(Fault::from(&e)),
                }
            }
            Request::Stats => {
                let stats = session.stats();
                Response::Stats(StatsReply {
                    tables: stats.tables,
                    cache: stats.cache,
                    router: stats.router,
                    served: self.state.served.load(Ordering::Acquire),
                    durability: stats.durability,
                })
            }
            Request::Metrics => {
                // One snapshot spans the whole stack: the server shares
                // the database's registry, so engine, store, and
                // server-side figures arrive together.
                Response::Metrics(self.state.obs.snapshot())
            }
            Request::Shutdown => {
                self.trigger_shutdown();
                Response::ShuttingDown
            }
        }
    }

    /// The flush-on-mutation policy: force the WAL to disk before the
    /// mutation's success acknowledgement. No-op for in-memory
    /// databases or when [`ServerConfig::flush_on_mutation`] is off.
    fn flush_mutation(&self, session: &PackageDb) -> Result<(), DbError> {
        if !self.config.flush_on_mutation || !session.is_durable() {
            return Ok(());
        }
        match session.sync_wal() {
            Ok(()) => {
                self.state.durability_flushes.fetch_add(1, Ordering::AcqRel);
                Ok(())
            }
            Err(e) => {
                self.state.flush_failures.fetch_add(1, Ordering::AcqRel);
                Err(e)
            }
        }
    }

    /// If `token` was already acked, return the recorded ack — the
    /// client is retrying a mutation whose acknowledgement it lost, and
    /// re-applying would duplicate it.
    fn lookup_acked(&self, token: Option<u64>) -> Option<Response> {
        let token = token?;
        let cache = self.state.acked.lock().unwrap_or_else(|e| e.into_inner());
        let hit = cache.get(token);
        if hit.is_some() {
            self.state.deduped_mutations.fetch_add(1, Ordering::AcqRel);
        }
        hit
    }

    /// Remember a *successful* mutation ack under its token. Failures
    /// are deliberately not recorded: the mutation may not have
    /// happened (durably), so a retry must re-attempt it.
    fn record_ack(&self, token: Option<u64>, response: &Response) {
        if let Some(token) = token {
            self.state
                .acked
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(token, response.clone());
        }
    }

    /// Parse, guard, and execute one query on a fresh session clone
    /// carrying the request's overrides.
    //
    // The Err side IS the wire reply to send — a `Response` by design,
    // and `Response::Stats` grew durability counters in protocol v3.
    // Boxing the enum for this one internal helper isn't worth it.
    #[allow(clippy::result_large_err)]
    fn run(
        &self,
        base: &PackageDb,
        relation: &str,
        paql: &str,
        options: &ExecOptions,
    ) -> Result<Execution, Response> {
        let query =
            parse_paql(paql).map_err(|e| Response::Error(Fault::from(&DbError::Language(e))))?;
        if !relation.is_empty() && !query.relation.eq_ignore_ascii_case(relation) {
            return Err(Response::Error(Fault {
                kind: FaultKind::BadRequest,
                message: format!(
                    "query is FROM '{}' but the request addressed '{relation}'",
                    query.relation
                ),
            }));
        }
        let mut session = base.session();
        let config = session.config_mut();
        if let Some(v) = options.direct_threshold {
            config.direct_threshold = v as usize;
        }
        if let Some(v) = options.default_groups {
            config.default_groups = (v as usize).max(1);
        }
        if let Some(v) = options.threads {
            config.sketchrefine.threads = (v as usize).max(1);
        }
        if let Some(v) = options.fallback_to_direct {
            config.fallback_to_direct = v;
        }
        if let Some(v) = options.router_enabled {
            config.router.enabled = v;
        }
        if let Some(ms) = options.deadline_ms {
            if ms == 0 {
                return Err(Response::Error(Fault {
                    kind: FaultKind::Timeout,
                    message: "deadline of 0 ms expired before evaluation began".into(),
                }));
            }
            // Propagate the request deadline into the REFINE solve
            // budget, tightening (never loosening) any budget the
            // session already carries. An over-budget evaluation
            // surfaces as a typed possibly-false-infeasible answer —
            // Algorithm 1's failure semantics, not an untyped hang.
            let budget = Duration::from_millis(ms);
            let limit = &mut config.sketchrefine.total_time_limit;
            *limit = Some(limit.map_or(budget, |t| t.min(budget)));
        }
        session
            .execute_with(&query, options.route.into())
            .map_err(|e| Response::Error(Fault::from(&e)))
    }
}

/// A TCP server running on a background thread; created by
/// [`spawn_tcp`]. Dropping the handle shuts the server down and joins
/// the thread.
pub struct TcpServerHandle {
    addr: SocketAddr,
    server: Arc<Server>,
    thread: Option<JoinHandle<()>>,
}

impl TcpServerHandle {
    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The running server (e.g. for [`Server::db`] or counters).
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Trigger shutdown and wait for the drain to finish.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.server.trigger_shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for TcpServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Bind `addr` (use port 0 for an ephemeral port) and serve `server`
/// on a background thread.
pub fn spawn_tcp(server: Server, addr: impl ToSocketAddrs) -> io::Result<TcpServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let acceptor = TcpAcceptor::new(listener)?;
    let addr = acceptor.local_addr()?;
    let server = Arc::new(server);
    let for_thread = Arc::clone(&server);
    let thread = std::thread::Builder::new()
        .name("paq-server-accept".into())
        .spawn(move || for_thread.serve(acceptor))?;
    Ok(TcpServerHandle {
        addr,
        server,
        thread: Some(thread),
    })
}
