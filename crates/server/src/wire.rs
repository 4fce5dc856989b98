//! The wire protocol's transport and vocabulary: length-prefixed
//! frames over generic [`io::Read`] / [`io::Write`] streams, and the
//! typed [`Request`] / [`Response`] messages with their body encodings.
//! The frames those bodies travel in — handshake, tags — are
//! [`crate::wire7`].
//!
//! # Transport
//!
//! ```text
//! +----------------+----------------------------+
//! | length: u32 BE | payload (one wire7 frame)  |
//! +----------------+----------------------------+
//! ```
//!
//! The length prefix counts the payload, not itself. Frames above
//! [`MAX_FRAME`] are rejected *before* the payload is read, so a broken
//! or hostile peer cannot make the server buffer without bound.
//!
//! # Bodies
//!
//! Every body is written with the primitives of
//! [`paq_relational::codec`] — the byte codec the WAL and snapshots use
//! too: fixed-width little-endian integers, IEEE bit patterns, `0`/`1`
//! booleans, `u64`-counted strings and sequences, tables in crc-guarded
//! column chunks. Decoders reject unknown tags and trailing bytes, so a
//! payload decodes to exactly one value or a typed [`WireError`].
//!
//! The same encoding runs over any byte stream — the deterministic
//! in-memory [duplex pipe](crate::transport) in tests, loopback TCP in
//! production — because nothing here touches sockets.

use std::io::{self, Read, Write};
use std::time::Duration;

use paq_core::Package;
use paq_db::{
    CacheStats, DurabilityStats, Execution, RouterStats, RouterVerdict, Strategy, TableStats,
};
use paq_obs::{HistogramSnapshot, RegistrySnapshot};
use paq_relational::codec::{
    decode_table, encode_table, get_opt_u64, get_u64_column, get_values, put_bool, put_duration,
    put_f64, put_opt_u64, put_string, put_u64, put_u64_column, put_values, Cursor,
};
use paq_relational::{Table, Value};

use crate::error::{WireError, WireResult};

/// The protocol revision this build speaks — the only one. Every
/// payload opens with this byte; a peer that opens with anything else
/// (or a [`Hello`](crate::wire7::Hello) offering less) is answered with
/// one typed [`FaultKind::Version`] fault and a close.
pub const WIRE_VERSION: u8 = 7;

/// Hard cap on one frame's payload (32 MiB). Large enough for a
/// multi-million-row `RegisterTable`, small enough that a corrupt
/// length prefix cannot exhaust memory.
pub const MAX_FRAME: usize = 32 << 20;

// ---------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------

/// Write one frame (length prefix + payload), as a **single** write:
/// a prefix written separately would ride in its own TCP segment and
/// stall small frames on Nagle + delayed-ACK round trips.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> WireResult<()> {
    // Enforce the cap on the sending side too: the peer would reject
    // the frame as Oversized and drop the connection anyway, so fail
    // locally, typed, before any bytes hit the wire.
    if payload.len() > MAX_FRAME {
        return Err(WireError::Oversized {
            len: payload.len() as u64,
            max: MAX_FRAME as u64,
        });
    }
    let len = payload.len() as u32; // MAX_FRAME < u32::MAX
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame's payload. Returns `Ok(None)` on a clean end of
/// stream *between* frames (the peer closed); a close mid-frame is
/// [`WireError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> WireResult<Option<Vec<u8>>> {
    read_frame_with(r, || false)
}

/// [`read_frame`] for streams with a read timeout configured (the
/// server's idle-poll): while waiting for a frame to *start*, each
/// timeout tick calls `on_idle`; returning `true` abandons the wait as
/// if the peer had closed (`Ok(None)`). Once the first byte arrives the
/// frame is read to completion, timeouts merely re-polling — a frame in
/// progress is never abandoned, so graceful shutdown drains requests
/// already on the wire.
pub fn read_frame_with<R: Read>(
    r: &mut R,
    on_idle: impl FnMut() -> bool,
) -> WireResult<Option<Vec<u8>>> {
    read_frame_deadline(r, on_idle, None)
}

/// [`read_frame_with`] plus a total deadline on a frame *in progress*:
/// once the first byte arrives, the whole frame must complete within
/// `frame_deadline` or the read fails with
/// [`WireError::DeadlineExpired`]. This is the slowloris guard — a peer
/// that sends a few header bytes and stalls would otherwise pin the
/// reader forever, since mid-frame timeouts merely re-poll.
///
/// The deadline is only enforceable when the stream has a read timeout
/// configured (each timeout tick is a checkpoint); on a blocking stream
/// with no timeout a silent peer still blocks the read. `None` keeps
/// the never-abandon behavior.
pub fn read_frame_deadline<R: Read>(
    r: &mut R,
    mut on_idle: impl FnMut() -> bool,
    frame_deadline: Option<Duration>,
) -> WireResult<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    // First byte by hand: a one-byte read either consumes it or (on
    // timeout/EOF) consumes nothing, so "closed between frames",
    // "nothing yet", and "frame started" stay distinguishable.
    loop {
        match r.read(&mut len_buf[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if on_idle() {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    // The frame has started: the deadline clock runs from here.
    let started = frame_deadline.map(|limit| (std::time::Instant::now(), limit));
    read_full_deadline(r, &mut len_buf[1..], &started)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized {
            len: len as u64,
            max: MAX_FRAME as u64,
        });
    }
    let mut payload = vec![0u8; len];
    read_full_deadline(r, &mut payload, &started)?;
    Ok(Some(payload))
}

/// `read_exact` that tolerates read timeouts without losing the bytes
/// already consumed (std's `read_exact` leaves the buffer unspecified
/// on error, which would corrupt framing under a poll timeout),
/// additionally checking a started-frame deadline on every timeout
/// tick.
fn read_full_deadline<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    deadline: &Option<(std::time::Instant, Duration)>,
) -> WireResult<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::Interrupted
                    || e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if let Some((started, limit)) = deadline {
                    let elapsed = started.elapsed();
                    if elapsed >= *limit {
                        return Err(WireError::DeadlineExpired { elapsed });
                    }
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// Per-request overrides of the connection session's
/// [`DbConfig`](paq_db::DbConfig) — carried on the wire so each client
/// tunes its own executions without touching any other session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecOptions {
    /// Routing control (planner choice by default).
    pub route: RouteChoice,
    /// Override `DbConfig::direct_threshold`.
    pub direct_threshold: Option<u64>,
    /// Override `DbConfig::default_groups` (min 1).
    pub default_groups: Option<u64>,
    /// Override `DbConfig::sketchrefine.threads` (min 1).
    pub threads: Option<u64>,
    /// Override `DbConfig::fallback_to_direct`.
    pub fallback_to_direct: Option<bool>,
    /// Override `DbConfig::router.enabled` — `Some(false)` pins this
    /// request to the static threshold planner (and skips telemetry
    /// recording) regardless of the server session's configuration.
    /// Note [`ExecOptions::route`] is stronger still: a forced route
    /// never consults the model at all.
    pub router_enabled: Option<bool>,
    /// Per-request deadline in milliseconds. Propagated into the REFINE
    /// solve budget (`SketchRefineOptions::total_time_limit`, tightened
    /// if the session already has one), so an over-budget evaluation
    /// surfaces as a typed possibly-false-infeasible answer instead of
    /// running arbitrarily long. A deadline of `0` is answered
    /// immediately with a [`FaultKind::Timeout`] fault.
    pub deadline_ms: Option<u64>,
}

/// Wire mirror of [`paq_db::Route`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RouteChoice {
    /// Planner picks DIRECT or SKETCHREFINE.
    #[default]
    Auto,
    /// Force DIRECT.
    ForceDirect,
    /// Force SKETCHREFINE.
    ForceSketchRefine,
}

impl From<RouteChoice> for paq_db::Route {
    fn from(r: RouteChoice) -> Self {
        match r {
            RouteChoice::Auto => paq_db::Route::Auto,
            RouteChoice::ForceDirect => paq_db::Route::ForceDirect,
            RouteChoice::ForceSketchRefine => paq_db::Route::ForceSketchRefine,
        }
    }
}

fn put_options(out: &mut Vec<u8>, o: &ExecOptions) {
    out.push(match o.route {
        RouteChoice::Auto => 0,
        RouteChoice::ForceDirect => 1,
        RouteChoice::ForceSketchRefine => 2,
    });
    put_opt_u64(out, o.direct_threshold);
    put_opt_u64(out, o.default_groups);
    put_opt_u64(out, o.threads);
    put_opt_bool(out, o.fallback_to_direct);
    put_opt_bool(out, o.router_enabled);
    put_opt_u64(out, o.deadline_ms);
}

fn put_opt_bool(out: &mut Vec<u8>, v: Option<bool>) {
    put_bool(out, v.is_some());
    if let Some(v) = v {
        put_bool(out, v);
    }
}

fn get_opt_bool(c: &mut Cursor<'_>) -> WireResult<Option<bool>> {
    Ok(if c.bool()? { Some(c.bool()?) } else { None })
}

fn get_options(c: &mut Cursor<'_>) -> WireResult<ExecOptions> {
    let route = match c.u8()? {
        0 => RouteChoice::Auto,
        1 => RouteChoice::ForceDirect,
        2 => RouteChoice::ForceSketchRefine,
        tag => return Err(WireError::Malformed(format!("route tag {tag}"))),
    };
    Ok(ExecOptions {
        route,
        direct_threshold: get_opt_u64(c)?,
        default_groups: get_opt_u64(c)?,
        threads: get_opt_u64(c)?,
        fallback_to_direct: get_opt_bool(c)?,
        router_enabled: get_opt_bool(c)?,
        deadline_ms: get_opt_u64(c)?,
    })
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute a PaQL query. `relation`, when non-empty, must match the
    /// query's `FROM` relation (case-insensitively) — a cheap guard
    /// against a client dispatching a query to the wrong handle.
    Execute {
        /// Expected `FROM` relation (empty = no check).
        relation: String,
        /// The PaQL text.
        paql: String,
        /// Per-request session overrides.
        options: ExecOptions,
    },
    /// Register (or replace) a table under a name.
    RegisterTable {
        /// Table name.
        name: String,
        /// Full table contents; travels in the chunked columnar
        /// encoding of [`paq_relational::codec`].
        table: Table,
        /// Optional client-chosen idempotency token. The server
        /// remembers acked tokens and answers a repeat with the
        /// recorded ack instead of re-applying — so a client may
        /// safely retry this mutation after a lost acknowledgement.
        token: Option<u64>,
    },
    /// Append one row to a registered table.
    AppendRow {
        /// Table name.
        name: String,
        /// The row, one value per schema column.
        row: Vec<Value>,
        /// Optional idempotency token with the same retry-safety
        /// contract as [`Request::RegisterTable`]'s.
        token: Option<u64>,
    },
    /// Execute a PaQL query but return only the plan explanation.
    Explain {
        /// Expected `FROM` relation (empty = no check).
        relation: String,
        /// The PaQL text.
        paql: String,
        /// Per-request session overrides.
        options: ExecOptions,
    },
    /// Ask for the database's observable state (tables + cache).
    Stats,
    /// Stop accepting connections and drain in-flight work.
    Shutdown,
    /// Ask for the server's full metrics-registry snapshot (counters,
    /// gauges, latency histograms — including `server.queue_wait` and
    /// `server.handle`).
    Metrics,
}

/// Encode a request's kind byte + body.
pub(crate) fn put_request_body(out: &mut Vec<u8>, request: &Request) {
    match request {
        Request::Execute {
            relation,
            paql,
            options,
        } => {
            out.push(0);
            put_string(out, relation);
            put_string(out, paql);
            put_options(out, options);
        }
        Request::RegisterTable { name, table, token } => {
            out.push(1);
            put_string(out, name);
            encode_table(out, table);
            put_opt_u64(out, *token);
        }
        Request::AppendRow { name, row, token } => {
            out.push(2);
            put_string(out, name);
            put_values(out, row);
            put_opt_u64(out, *token);
        }
        Request::Explain {
            relation,
            paql,
            options,
        } => {
            out.push(3);
            put_string(out, relation);
            put_string(out, paql);
            put_options(out, options);
        }
        Request::Stats => out.push(4),
        Request::Shutdown => out.push(5),
        Request::Metrics => out.push(6),
    }
}

/// Decode a request's kind byte + body (counterpart of
/// [`put_request_body`]).
pub(crate) fn get_request_body(c: &mut Cursor<'_>) -> WireResult<Request> {
    Ok(match c.u8()? {
        0 => Request::Execute {
            relation: c.string()?,
            paql: c.string()?,
            options: get_options(c)?,
        },
        1 => Request::RegisterTable {
            name: c.string()?,
            table: decode_table(c)?,
            token: get_opt_u64(c)?,
        },
        2 => Request::AppendRow {
            name: c.string()?,
            row: get_values(c)?,
            token: get_opt_u64(c)?,
        },
        3 => Request::Explain {
            relation: c.string()?,
            paql: c.string()?,
            options: get_options(c)?,
        },
        4 => Request::Stats,
        5 => Request::Shutdown,
        6 => Request::Metrics,
        tag => return Err(WireError::Malformed(format!("request tag {tag}"))),
    })
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// SKETCHREFINE work counters shipped with a remote execution — the
/// wire form of [`paq_core::SketchRefineReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireReport {
    /// Total black-box solver invocations.
    pub solver_calls: u64,
    /// Backtracking events.
    pub backtracks: u64,
    /// Whether the hybrid sketch fallback was used.
    pub used_hybrid: bool,
    /// Groups REFINE had to process.
    pub groups_refined: u64,
    /// §4.4 strategy-2 retries.
    pub repartitions: u64,
    /// §4.4 strategy-3 retries.
    pub attribute_drops: u64,
    /// §4.4 strategy-4 retries.
    pub merges: u64,
    /// Parallel REFINE waves launched.
    pub waves: u64,
    /// Per-group ILPs solved inside waves.
    pub parallel_solves: u64,
    /// Speculative results discarded on conflict.
    pub conflict_requeues: u64,
    /// Wall-clock of the SKETCH phase.
    pub sketch_time: Duration,
    /// Wall-clock of the REFINE phase.
    pub refine_time: Duration,
}

impl From<&paq_core::SketchRefineReport> for WireReport {
    fn from(r: &paq_core::SketchRefineReport) -> Self {
        WireReport {
            solver_calls: r.solver_calls,
            backtracks: r.backtracks,
            used_hybrid: r.used_hybrid,
            groups_refined: r.groups_refined as u64,
            repartitions: r.repartitions as u64,
            attribute_drops: r.attribute_drops as u64,
            merges: r.merges as u64,
            waves: r.waves,
            parallel_solves: r.parallel_solves,
            conflict_requeues: r.conflict_requeues,
            sketch_time: r.sketch_time,
            refine_time: r.refine_time,
        }
    }
}

/// Wire form of the cost-based router's verdict for one execution
/// ([`paq_db::RouterVerdict`]): whether the model, the threshold
/// fallback, or a pinned route decided — with the predicted
/// per-strategy costs when the model did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireRouterVerdict {
    /// The request pinned the route; the model was not consulted.
    Pinned,
    /// The warm model decided on predicted costs.
    Model {
        /// Predicted DIRECT evaluation cost (ms).
        direct_ms: f64,
        /// Predicted SKETCHREFINE evaluation cost (ms).
        sketchrefine_ms: f64,
        /// DIRECT telemetry samples behind the prediction.
        direct_samples: u64,
        /// SKETCHREFINE telemetry samples behind the prediction.
        sketchrefine_samples: u64,
    },
    /// The static threshold fallback decided (cold start or router
    /// disabled), with the telemetry sample counts at plan time.
    Fallback {
        /// DIRECT telemetry samples at plan time.
        direct_samples: u64,
        /// SKETCHREFINE telemetry samples at plan time.
        sketchrefine_samples: u64,
    },
}

impl From<&RouterVerdict> for WireRouterVerdict {
    fn from(v: &RouterVerdict) -> Self {
        match v {
            RouterVerdict::Pinned => WireRouterVerdict::Pinned,
            RouterVerdict::Model(p) => WireRouterVerdict::Model {
                direct_ms: p.direct_ms,
                sketchrefine_ms: p.sketchrefine_ms,
                direct_samples: p.direct_samples as u64,
                sketchrefine_samples: p.sketchrefine_samples as u64,
            },
            RouterVerdict::Fallback {
                direct_samples,
                sketchrefine_samples,
            } => WireRouterVerdict::Fallback {
                direct_samples: *direct_samples as u64,
                sketchrefine_samples: *sketchrefine_samples as u64,
            },
        }
    }
}

fn put_router_verdict(out: &mut Vec<u8>, v: &WireRouterVerdict) {
    match v {
        WireRouterVerdict::Pinned => out.push(0),
        WireRouterVerdict::Model {
            direct_ms,
            sketchrefine_ms,
            direct_samples,
            sketchrefine_samples,
        } => {
            out.push(1);
            put_f64(out, *direct_ms);
            put_f64(out, *sketchrefine_ms);
            put_u64(out, *direct_samples);
            put_u64(out, *sketchrefine_samples);
        }
        WireRouterVerdict::Fallback {
            direct_samples,
            sketchrefine_samples,
        } => {
            out.push(2);
            put_u64(out, *direct_samples);
            put_u64(out, *sketchrefine_samples);
        }
    }
}

fn get_router_verdict(c: &mut Cursor<'_>) -> WireResult<WireRouterVerdict> {
    Ok(match c.u8()? {
        0 => WireRouterVerdict::Pinned,
        1 => WireRouterVerdict::Model {
            direct_ms: c.f64()?,
            sketchrefine_ms: c.f64()?,
            direct_samples: c.u64()?,
            sketchrefine_samples: c.u64()?,
        },
        2 => WireRouterVerdict::Fallback {
            direct_samples: c.u64()?,
            sketchrefine_samples: c.u64()?,
        },
        tag => return Err(WireError::Malformed(format!("router verdict tag {tag}"))),
    })
}

/// Wall-clock breakdown of a remote execution (server-side times; the
/// round-trip latency on top is the client's to measure).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireTimings {
    /// Planning (name resolution, validation, routing).
    pub plan: Duration,
    /// Partitioning build (or wait on another session's build).
    pub partitioning: Duration,
    /// Evaluator time.
    pub evaluate: Duration,
    /// End-to-end `execute` time on the server.
    pub total: Duration,
}

/// The wire form of one [`Execution`]: everything a remote client needs
/// to reconstruct the package and understand how it was produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteExecution {
    /// Package members as `(row index, multiplicity)` pairs, sorted.
    pub pairs: Vec<(u64, u64)>,
    /// Resolved relation name (catalog casing).
    pub relation: String,
    /// Input row count at execution time.
    pub rows: u64,
    /// Catalog version the execution observed.
    pub table_version: u64,
    /// `true` when DIRECT produced the package, `false` for
    /// SKETCHREFINE.
    pub direct: bool,
    /// How the cost-based router decided this route (model with
    /// predicted costs, threshold fallback, or pinned). The observed
    /// cost the router recorded is [`RemoteExecution::timings`]`.evaluate`
    /// for DIRECT and the report's sketch + refine time for
    /// SKETCHREFINE.
    pub router: WireRouterVerdict,
    /// Whether SKETCHREFINE's possibly-false infeasibility was settled
    /// by a DIRECT re-run.
    pub fell_back_to_direct: bool,
    /// The server-side plan explanation ([`Execution::explain`]).
    pub explain: String,
    /// SKETCHREFINE counters (`None` on DIRECT executions).
    pub report: Option<WireReport>,
    /// Server-side wall-clock breakdown.
    pub timings: WireTimings,
}

impl RemoteExecution {
    /// Build the wire form from a server-side execution.
    pub fn from_execution(exec: &Execution) -> Self {
        RemoteExecution {
            pairs: exec
                .package
                .members()
                .iter()
                .map(|&(row, mult)| (row as u64, mult))
                .collect(),
            relation: exec.relation.clone(),
            rows: exec.rows as u64,
            table_version: exec.table_version,
            direct: exec.strategy == Strategy::Direct,
            router: WireRouterVerdict::from(&exec.router),
            fell_back_to_direct: exec.fell_back_to_direct,
            explain: exec.explain(),
            report: exec.report.as_ref().map(WireReport::from),
            timings: WireTimings {
                plan: exec.timings.plan,
                partitioning: exec.timings.partitioning,
                evaluate: exec.timings.evaluate,
                total: exec.timings.total,
            },
        }
    }

    /// Reconstruct the package (row indices refer to the table version
    /// in [`RemoteExecution::table_version`]).
    pub fn package(&self) -> Package {
        Package::from_pairs(self.pairs.iter().map(|&(row, mult)| (row as usize, mult)))
    }
}

/// Application-level error kinds a server can report. The split mirrors
/// [`paq_db::DbError`], with infeasibility pulled out because it is an
/// *answer* clients branch on, not a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The request itself is invalid (e.g. relation mismatch).
    BadRequest,
    /// `FROM` relation not in the catalog.
    UnknownTable,
    /// Table lacks query-referenced attributes.
    SchemaMismatch,
    /// Installed partitioning rejected.
    InvalidPartitioning,
    /// PaQL parse/validation error.
    Language,
    /// Proved infeasible on the full problem.
    Infeasible,
    /// Infeasibility reported by the approximate pipeline (§4.4).
    PossiblyFalseInfeasible,
    /// Other engine failure (solver gave up, unbounded, …).
    Engine,
    /// Relational substrate error.
    Relational,
    /// Durable-storage failure (WAL append/sync, snapshot write). The
    /// in-memory state may have advanced, but durability was **not**
    /// achieved — the server withholds the success acknowledgement.
    Storage,
    /// A deadline expired: the per-request `deadline_ms` was zero on
    /// arrival, or a started frame stalled past the server's
    /// started-frame read deadline. The work was not performed.
    Timeout,
    /// The connection did not open with a [`Hello`](crate::wire7::Hello)
    /// offering protocol [`WIRE_VERSION`]. Sent once on
    /// [`CONTROL_TAG`](crate::wire7::CONTROL_TAG); the server then
    /// closes the connection.
    Version,
}

/// An application-level error reported by the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Error class.
    pub kind: FaultKind,
    /// Human-readable detail (the server-side `Display` text).
    pub message: String,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.message)
    }
}

impl From<&paq_db::DbError> for Fault {
    fn from(e: &paq_db::DbError) -> Self {
        use paq_core::EngineError;
        use paq_db::DbError;
        let kind = match e {
            DbError::UnknownTable { .. } => FaultKind::UnknownTable,
            DbError::SchemaMismatch { .. } => FaultKind::SchemaMismatch,
            DbError::InvalidPartitioning { .. } => FaultKind::InvalidPartitioning,
            DbError::Language(_) => FaultKind::Language,
            DbError::Engine(EngineError::Infeasible {
                possibly_false: false,
            }) => FaultKind::Infeasible,
            DbError::Engine(EngineError::Infeasible {
                possibly_false: true,
            }) => FaultKind::PossiblyFalseInfeasible,
            DbError::Engine(_) => FaultKind::Engine,
            DbError::Relational(_) => FaultKind::Relational,
            DbError::Storage { .. } => FaultKind::Storage,
        };
        Fault {
            kind,
            message: e.to_string(),
        }
    }
}

fn put_fault(out: &mut Vec<u8>, fault: &Fault) {
    out.push(match fault.kind {
        FaultKind::BadRequest => 0,
        FaultKind::UnknownTable => 1,
        FaultKind::SchemaMismatch => 2,
        FaultKind::InvalidPartitioning => 3,
        FaultKind::Language => 4,
        FaultKind::Infeasible => 5,
        FaultKind::PossiblyFalseInfeasible => 6,
        FaultKind::Engine => 7,
        FaultKind::Relational => 8,
        FaultKind::Storage => 9,
        FaultKind::Timeout => 10,
        FaultKind::Version => 11,
    });
    put_string(out, &fault.message);
}

fn get_fault(c: &mut Cursor<'_>) -> WireResult<Fault> {
    let kind = match c.u8()? {
        0 => FaultKind::BadRequest,
        1 => FaultKind::UnknownTable,
        2 => FaultKind::SchemaMismatch,
        3 => FaultKind::InvalidPartitioning,
        4 => FaultKind::Language,
        5 => FaultKind::Infeasible,
        6 => FaultKind::PossiblyFalseInfeasible,
        7 => FaultKind::Engine,
        8 => FaultKind::Relational,
        9 => FaultKind::Storage,
        10 => FaultKind::Timeout,
        11 => FaultKind::Version,
        tag => return Err(WireError::Malformed(format!("fault tag {tag}"))),
    };
    Ok(Fault {
        kind,
        message: c.string()?,
    })
}

fn put_registry_snapshot(out: &mut Vec<u8>, s: &RegistrySnapshot) {
    put_u64(out, s.counters.len() as u64);
    for (name, value) in &s.counters {
        put_string(out, name);
        put_u64(out, *value);
    }
    put_u64(out, s.gauges.len() as u64);
    for (name, value) in &s.gauges {
        put_string(out, name);
        put_u64(out, *value as u64);
    }
    put_u64(out, s.histograms.len() as u64);
    for (name, h) in &s.histograms {
        put_string(out, name);
        put_u64(out, h.count);
        put_u64(out, h.sum);
        put_u64(out, h.min);
        put_u64(out, h.max);
        put_u64(out, h.buckets.len() as u64);
        for &(index, count) in &h.buckets {
            out.push(index);
            put_u64(out, count);
        }
    }
}

fn get_registry_snapshot(c: &mut Cursor<'_>) -> WireResult<RegistrySnapshot> {
    let mut s = RegistrySnapshot::default();
    let counters = c.count(9)?;
    for _ in 0..counters {
        let name = c.string()?;
        s.counters.push((name, c.u64()?));
    }
    let gauges = c.count(9)?;
    for _ in 0..gauges {
        let name = c.string()?;
        s.gauges.push((name, c.i64()?));
    }
    let histograms = c.count(41)?;
    for _ in 0..histograms {
        let name = c.string()?;
        let mut h = HistogramSnapshot {
            count: c.u64()?,
            sum: c.u64()?,
            min: c.u64()?,
            max: c.u64()?,
            buckets: Vec::new(),
        };
        let buckets = c.count(9)?;
        for _ in 0..buckets {
            let index = c.u8()?;
            if index as usize >= paq_obs::histogram::BUCKET_COUNT {
                return Err(WireError::Malformed(format!("bucket index {index}")));
            }
            h.buckets.push((index, c.u64()?));
        }
        s.histograms.push((name, h));
    }
    Ok(s)
}

/// The database-state snapshot shipped for a [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReply {
    /// Registered tables (name, rows, version), sorted by name.
    pub tables: Vec<TableStats>,
    /// Shared partition-cache counters.
    pub cache: CacheStats,
    /// Shared cost-based-router counters (telemetry samples held,
    /// model vs fallback decisions).
    pub router: RouterStats,
    /// Requests the server has answered so far (all kinds).
    pub served: u64,
    /// Durability counters (WAL, snapshots, recovery) — `None` when the
    /// server runs an in-memory database.
    pub durability: Option<DurabilityStats>,
}

/// The scheduling class a client declares in its
/// [handshake](crate::wire7::Hello), and the class a request-level
/// [`Response::Busy`] names as the one it shed. Order encodes
/// priority: `Interactive` is served first and shed last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShedClass {
    /// Latency-sensitive traffic: highest dequeue weight, shed last.
    Interactive,
    /// The default class for clients that do not declare one.
    Normal,
    /// Throughput-oriented bulk traffic: lowest priority, first to be
    /// shed when the server saturates.
    Bulk,
}

impl ShedClass {
    /// Wire byte for this class.
    pub(crate) fn wire_byte(self) -> u8 {
        match self {
            ShedClass::Interactive => 0,
            ShedClass::Normal => 1,
            ShedClass::Bulk => 2,
        }
    }

    /// Decode a wire byte.
    pub(crate) fn from_wire(byte: u8) -> WireResult<Self> {
        Ok(match byte {
            0 => ShedClass::Interactive,
            1 => ShedClass::Normal,
            2 => ShedClass::Bulk,
            other => return Err(WireError::Malformed(format!("shed class byte {other}"))),
        })
    }

    /// Static lowercase label, used as a metric-name suffix.
    pub fn label(self) -> &'static str {
        match self {
            ShedClass::Interactive => "interactive",
            ShedClass::Normal => "normal",
            ShedClass::Bulk => "bulk",
        }
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Result of an [`Request::Execute`].
    Executed(Box<RemoteExecution>),
    /// Result of a [`Request::RegisterTable`]: the new catalog version.
    Registered {
        /// Version stamped by the registration.
        version: u64,
    },
    /// Result of an [`Request::AppendRow`]: the new catalog version.
    Appended {
        /// Version stamped by the append.
        version: u64,
    },
    /// Result of an [`Request::Explain`].
    Explained {
        /// The plan explanation text.
        text: String,
    },
    /// Result of a [`Request::Stats`].
    Stats(StatsReply),
    /// Acknowledges a [`Request::Shutdown`]; the server drains and
    /// stops.
    ShuttingDown,
    /// Typed backpressure: the in-flight bound is reached and this
    /// connection was rejected rather than queued without bound.
    Busy {
        /// Connections in flight when the rejection happened.
        in_flight: u64,
        /// The configured bound.
        max_in_flight: u64,
        /// Pacing hint: how long the client should wait before
        /// reconnecting. Honored by the retrying client ahead of its
        /// exponential backoff schedule.
        retry_after_ms: u64,
        /// Which admission class was shed, when the rejection came from
        /// the request-level fairness admission (`None` for the
        /// connection-level bound).
        shed_class: Option<ShedClass>,
    },
    /// Result of a [`Request::Metrics`]: the server's registry
    /// snapshot. Empty when the server's database was opened with
    /// observability disabled.
    Metrics(RegistrySnapshot),
    /// Application-level error; the connection stays usable.
    Error(Fault),
}

/// Encode an `Executed` body. The member pairs travel as two
/// width-packed u64 columns (rows, multiplicities).
fn put_execution(out: &mut Vec<u8>, exec: &RemoteExecution) {
    let rows: Vec<u64> = exec.pairs.iter().map(|&(r, _)| r).collect();
    let mults: Vec<u64> = exec.pairs.iter().map(|&(_, m)| m).collect();
    put_u64_column(out, &rows);
    put_u64_column(out, &mults);
    put_string(out, &exec.relation);
    put_u64(out, exec.rows);
    put_u64(out, exec.table_version);
    put_bool(out, exec.direct);
    put_router_verdict(out, &exec.router);
    put_bool(out, exec.fell_back_to_direct);
    put_string(out, &exec.explain);
    match &exec.report {
        Some(r) => {
            put_bool(out, true);
            put_u64(out, r.solver_calls);
            put_u64(out, r.backtracks);
            put_bool(out, r.used_hybrid);
            put_u64(out, r.groups_refined);
            put_u64(out, r.repartitions);
            put_u64(out, r.attribute_drops);
            put_u64(out, r.merges);
            put_u64(out, r.waves);
            put_u64(out, r.parallel_solves);
            put_u64(out, r.conflict_requeues);
            put_duration(out, r.sketch_time);
            put_duration(out, r.refine_time);
        }
        None => put_bool(out, false),
    }
    put_duration(out, exec.timings.plan);
    put_duration(out, exec.timings.partitioning);
    put_duration(out, exec.timings.evaluate);
    put_duration(out, exec.timings.total);
}

/// Decode an `Executed` body (counterpart of [`put_execution`]).
fn get_execution(c: &mut Cursor<'_>) -> WireResult<RemoteExecution> {
    // No column can hold more elements than a maximal frame has bytes.
    let rows = get_u64_column(c, MAX_FRAME)?;
    let mults = get_u64_column(c, MAX_FRAME)?;
    if rows.len() != mults.len() {
        return Err(WireError::Malformed(format!(
            "pair columns disagree: {} rows vs {} multiplicities",
            rows.len(),
            mults.len()
        )));
    }
    let pairs = rows.into_iter().zip(mults).collect();
    let relation = c.string()?;
    let rows = c.u64()?;
    let table_version = c.u64()?;
    let direct = c.bool()?;
    let router = get_router_verdict(c)?;
    let fell_back_to_direct = c.bool()?;
    let explain = c.string()?;
    let report = if c.bool()? {
        Some(WireReport {
            solver_calls: c.u64()?,
            backtracks: c.u64()?,
            used_hybrid: c.bool()?,
            groups_refined: c.u64()?,
            repartitions: c.u64()?,
            attribute_drops: c.u64()?,
            merges: c.u64()?,
            waves: c.u64()?,
            parallel_solves: c.u64()?,
            conflict_requeues: c.u64()?,
            sketch_time: c.duration()?,
            refine_time: c.duration()?,
        })
    } else {
        None
    };
    let timings = WireTimings {
        plan: c.duration()?,
        partitioning: c.duration()?,
        evaluate: c.duration()?,
        total: c.duration()?,
    };
    Ok(RemoteExecution {
        pairs,
        relation,
        rows,
        table_version,
        direct,
        router,
        fell_back_to_direct,
        explain,
        report,
        timings,
    })
}

/// Encode a `Stats` body.
fn put_stats_body(out: &mut Vec<u8>, stats: &StatsReply) {
    put_u64(out, stats.tables.len() as u64);
    for t in &stats.tables {
        put_string(out, &t.name);
        put_u64(out, t.rows as u64);
        put_u64(out, t.version);
    }
    put_u64(out, stats.cache.hits);
    put_u64(out, stats.cache.misses);
    put_u64(out, stats.cache.invalidations);
    put_u64(out, stats.cache.entries as u64);
    put_u64(out, stats.router.direct_samples as u64);
    put_u64(out, stats.router.sketchrefine_samples as u64);
    put_u64(out, stats.router.model_decisions);
    put_u64(out, stats.router.fallback_decisions);
    put_u64(out, stats.served);
    match &stats.durability {
        Some(d) => {
            put_bool(out, true);
            put_u64(out, d.wal_records);
            put_u64(out, d.wal_bytes);
            put_u64(out, d.wal_syncs);
            put_u64(out, d.wal_errors);
            put_u64(out, d.snapshots_written);
            put_u64(out, d.last_snapshot_lsn);
            put_u64(out, d.records_since_snapshot);
            put_u64(out, d.recovered_tables);
            put_u64(out, d.recovered_partitionings);
            put_u64(out, d.recovered_telemetry);
            put_u64(out, d.recovered_acks);
            put_u64(out, d.wal_replayed_records);
            put_u64(out, d.wal_tail_dropped_bytes);
        }
        None => put_bool(out, false),
    }
}

/// Decode a `Stats` body (counterpart of [`put_stats_body`]).
fn get_stats_body(c: &mut Cursor<'_>) -> WireResult<StatsReply> {
    let n = c.count(24)?;
    let mut tables = Vec::with_capacity(n);
    for _ in 0..n {
        let name = c.string()?;
        let rows = c.usize()?;
        let version = c.u64()?;
        tables.push(TableStats {
            name,
            rows,
            version,
        });
    }
    Ok(StatsReply {
        tables,
        cache: CacheStats {
            hits: c.u64()?,
            misses: c.u64()?,
            invalidations: c.u64()?,
            entries: c.usize()?,
        },
        router: RouterStats {
            direct_samples: c.usize()?,
            sketchrefine_samples: c.usize()?,
            model_decisions: c.u64()?,
            fallback_decisions: c.u64()?,
        },
        served: c.u64()?,
        durability: if c.bool()? {
            Some(DurabilityStats {
                wal_records: c.u64()?,
                wal_bytes: c.u64()?,
                wal_syncs: c.u64()?,
                wal_errors: c.u64()?,
                snapshots_written: c.u64()?,
                last_snapshot_lsn: c.u64()?,
                records_since_snapshot: c.u64()?,
                recovered_tables: c.u64()?,
                recovered_partitionings: c.u64()?,
                recovered_telemetry: c.u64()?,
                recovered_acks: c.u64()?,
                wal_replayed_records: c.u64()?,
                wal_tail_dropped_bytes: c.u64()?,
            })
        } else {
            None
        },
    })
}

/// Encode a response's kind byte + body.
pub(crate) fn put_response_body(out: &mut Vec<u8>, response: &Response) {
    match response {
        Response::Executed(exec) => {
            out.push(0);
            put_execution(out, exec);
        }
        Response::Registered { version } => {
            out.push(1);
            put_u64(out, *version);
        }
        Response::Appended { version } => {
            out.push(2);
            put_u64(out, *version);
        }
        Response::Explained { text } => {
            out.push(3);
            put_string(out, text);
        }
        Response::Stats(stats) => {
            out.push(4);
            put_stats_body(out, stats);
        }
        Response::ShuttingDown => out.push(5),
        Response::Busy {
            in_flight,
            max_in_flight,
            retry_after_ms,
            shed_class,
        } => {
            out.push(6);
            put_u64(out, *in_flight);
            put_u64(out, *max_in_flight);
            put_u64(out, *retry_after_ms);
            put_bool(out, shed_class.is_some());
            if let Some(class) = shed_class {
                out.push(class.wire_byte());
            }
        }
        Response::Error(fault) => {
            out.push(7);
            put_fault(out, fault);
        }
        Response::Metrics(snapshot) => {
            out.push(8);
            put_registry_snapshot(out, snapshot);
        }
    }
}

/// Decode a response's kind byte + body (counterpart of
/// [`put_response_body`]).
pub(crate) fn get_response_body(c: &mut Cursor<'_>) -> WireResult<Response> {
    Ok(match c.u8()? {
        0 => Response::Executed(Box::new(get_execution(c)?)),
        1 => Response::Registered { version: c.u64()? },
        2 => Response::Appended { version: c.u64()? },
        3 => Response::Explained { text: c.string()? },
        4 => Response::Stats(get_stats_body(c)?),
        5 => Response::ShuttingDown,
        6 => Response::Busy {
            in_flight: c.u64()?,
            max_in_flight: c.u64()?,
            retry_after_ms: c.u64()?,
            shed_class: if c.bool()? {
                Some(ShedClass::from_wire(c.u8()?)?)
            } else {
                None
            },
        },
        7 => Response::Error(get_fault(c)?),
        8 => Response::Metrics(get_registry_snapshot(c)?),
        tag => return Err(WireError::Malformed(format!("response tag {tag}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_payload_rejected_on_the_sending_side() {
        struct NoWrite;
        impl Write for NoWrite {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                panic!("no bytes may hit the wire for an over-cap frame");
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let payload = vec![0u8; MAX_FRAME + 1];
        match write_frame(&mut NoWrite, &payload) {
            Err(WireError::Oversized { len, max }) => {
                assert_eq!(len, (MAX_FRAME + 1) as u64);
                assert_eq!(max, MAX_FRAME as u64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn oversized_frame_rejected_before_buffering() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = &buf[..];
        match read_frame(&mut r) {
            Err(WireError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX as u64);
                assert_eq!(max, MAX_FRAME as u64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truncation_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"full frame").unwrap();
        for cut in 1..buf.len() {
            let mut r = &buf[..cut];
            match read_frame(&mut r) {
                Err(WireError::Truncated) => {}
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
        }
    }
}
