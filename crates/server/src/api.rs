//! The typed request-building surface: one module that re-exports the
//! request/response vocabulary and a fluent [`RequestBuilder`] — the
//! one way to execute a query with a relation guard or per-request
//! options on [`Client`] and [`RetryingClient`].
//!
//! ```no_run
//! use paq_server::api::RequestBuilder;
//! # use paq_server::Client;
//!
//! # let mut client = Client::connect("127.0.0.1:7878")?;
//! let answer = RequestBuilder::query(
//!         "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 \
//!          SUCH THAT COUNT(P.*) = 3 MINIMIZE SUM(P.saturated_fat)",
//!     )
//!     .relation("Recipes")
//!     .threads(4)
//!     .deadline_ms(5_000)
//!     .send(&mut client)?;
//! # let _ = answer;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The same builder drives every way of sending: [`RequestBuilder::send`]
//! waits on a [`Client`], [`RequestBuilder::send_retrying`] goes
//! through a [`RetryingClient`], and [`RequestBuilder::submit`] returns
//! a [`Ticket`] to [`Client::wait`] on.

use crate::client::{Client, Ticket};
use crate::error::ClientResult;
use crate::retry::RetryingClient;
use crate::server::Connection;

// One stop for the typed request/response vocabulary: everything a
// caller needs to build requests and pattern-match replies.
pub use crate::error::{ClientError, WireError};
pub use crate::wire::{
    ExecOptions, Fault, FaultKind, RemoteExecution, Request, Response, RouteChoice, ShedClass,
    StatsReply, WireReport, WireRouterVerdict, WireTimings,
};

/// Fluent builder for PaQL execution requests. Start from
/// [`RequestBuilder::query`], chain option setters, finish with a
/// transport verb (`send` / `send_retrying` / `submit`) or build the
/// request without sending it ([`RequestBuilder::build`]).
#[derive(Debug, Clone, Default)]
pub struct RequestBuilder {
    relation: String,
    paql: String,
    options: ExecOptions,
}

impl RequestBuilder {
    /// A builder for executing `paql` with default options.
    pub fn query(paql: impl Into<String>) -> Self {
        RequestBuilder {
            relation: String::new(),
            paql: paql.into(),
            options: ExecOptions::default(),
        }
    }

    /// Declare the relation the query reads. Optional; when set it must
    /// match the query's `FROM` relation (the server cross-checks).
    pub fn relation(mut self, relation: impl Into<String>) -> Self {
        self.relation = relation.into();
        self
    }

    /// Routing control (planner choice by default).
    pub fn route(mut self, route: RouteChoice) -> Self {
        self.options.route = route;
        self
    }

    /// Force the DIRECT plan.
    pub fn force_direct(self) -> Self {
        self.route(RouteChoice::ForceDirect)
    }

    /// Force the SKETCHREFINE plan.
    pub fn force_sketch_refine(self) -> Self {
        self.route(RouteChoice::ForceSketchRefine)
    }

    /// Override the session's `direct_threshold` for this request.
    pub fn direct_threshold(mut self, rows: u64) -> Self {
        self.options.direct_threshold = Some(rows);
        self
    }

    /// Override the session's `default_groups` for this request.
    pub fn default_groups(mut self, groups: u64) -> Self {
        self.options.default_groups = Some(groups);
        self
    }

    /// Override the session's REFINE thread count for this request.
    pub fn threads(mut self, threads: u64) -> Self {
        self.options.threads = Some(threads);
        self
    }

    /// Override the session's fallback-to-DIRECT policy.
    pub fn fallback_to_direct(mut self, enabled: bool) -> Self {
        self.options.fallback_to_direct = Some(enabled);
        self
    }

    /// Enable/disable the learned router for this request.
    pub fn router_enabled(mut self, enabled: bool) -> Self {
        self.options.router_enabled = Some(enabled);
        self
    }

    /// Per-request deadline in milliseconds (see
    /// [`ExecOptions::deadline_ms`]).
    pub fn deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.options.deadline_ms = Some(deadline_ms);
        self
    }

    /// Build the typed [`Request::Execute`] without sending it.
    pub fn build(&self) -> Request {
        Request::Execute {
            relation: self.relation.clone(),
            paql: self.paql.clone(),
            options: self.options.clone(),
        }
    }

    /// Execute through a [`Client`], waiting for the answer.
    pub fn send<C: Connection>(&self, client: &mut Client<C>) -> ClientResult<RemoteExecution> {
        client.call(&self.build())
    }

    /// Execute through a [`RetryingClient`] (reconnect + backoff on
    /// transient failures).
    pub fn send_retrying<C, F>(
        &self,
        client: &mut RetryingClient<C, F>,
    ) -> ClientResult<RemoteExecution>
    where
        C: Connection,
        F: FnMut() -> std::io::Result<C>,
    {
        client.call(&self.build())
    }

    /// Submit through a [`Client`] without waiting; returns the
    /// completion ticket.
    pub fn submit<C: Connection>(
        &self,
        client: &mut Client<C>,
    ) -> ClientResult<Ticket<RemoteExecution>> {
        client.submit(&self.build())
    }
}
