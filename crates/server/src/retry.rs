//! Retrying client: typed retry policy over [`Client`], with capped
//! exponential backoff, seeded jitter, and idempotency tokens.
//!
//! # What retries, what doesn't
//!
//! Only errors where a retry has a real chance of succeeding are
//! retried ([`ClientError::is_transient`]): typed [`Busy`]
//! backpressure, a dropped/closed/truncated connection, and stream i/o
//! errors. Application faults (infeasibility, unknown table, storage
//! failure) and protocol violations are deterministic and surface
//! immediately.
//!
//! # Retrying mutations safely
//!
//! A lost acknowledgement is ambiguous: the mutation may or may not
//! have been applied. Blindly replaying `AppendRow` would duplicate the
//! row. So every mutation issued through [`RetryingClient`] carries a
//! client-chosen token (drawn from the policy's seeded RNG); the server
//! remembers acked tokens and answers a repeat with the recorded ack
//! instead of re-applying. Queries and stats are idempotent and retry
//! without tokens.
//!
//! # Pacing
//!
//! A [`Busy`] rejection carries the server's `retry_after_ms` hint,
//! which is honored *before* the exponential schedule: the first
//! backoff after a Busy is `max(hint, computed backoff)`. Everything
//! else follows `min(max_backoff, base_backoff · 2^n)` with seeded
//! downward jitter, so two clients with different seeds desynchronize
//! instead of retrying in lockstep.
//!
//! [`Busy`]: ClientError::Busy

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use paq_obs::Registry;
use paq_relational::{Table, Value};

use crate::client::{Client, Completion};
use crate::error::{ClientError, ClientResult};
use crate::server::Connection;
use crate::wire::{RemoteExecution, Request, StatsReply};

/// When and how hard to retry.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` = fail on first error).
    pub max_retries: u32,
    /// First backoff; doubles each retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff.
    pub max_backoff: Duration,
    /// Fraction of each backoff randomized away (in `[0, 1]`): the
    /// sleep is drawn from `[(1 − jitter) · b, b]`. `0.0` is fully
    /// deterministic pacing.
    pub jitter: f64,
    /// Seed for the jitter RNG *and* the mutation-token sequence. Give
    /// concurrent clients distinct seeds so their tokens cannot
    /// collide and their retries desynchronize.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            jitter: 0.25,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (0-based), jittered by
    /// `rng`, honoring `hint_ms` (a server `retry_after_ms`) as a
    /// floor.
    fn backoff(&self, retry: u32, hint_ms: Option<u64>, rng: &mut SmallRng) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << retry.min(20))
            .min(self.max_backoff);
        let jitter = self.jitter.clamp(0.0, 1.0);
        let scale = 1.0 - jitter * rng.gen::<f64>();
        let jittered = exp.mul_f64(scale);
        match hint_ms {
            Some(ms) => jittered.max(Duration::from_millis(ms)),
            None => jittered,
        }
    }
}

/// Counters describing a [`RetryingClient`]'s work so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Request attempts, including first tries.
    pub attempts: u64,
    /// Attempts that were retries of a failed one.
    pub retries: u64,
    /// Retries whose pacing came from a server `retry_after_ms` hint.
    pub busy_hints_honored: u64,
    /// Connections (re-)established.
    pub reconnects: u64,
}

/// A self-healing client: reconnects through a connect closure and
/// retries transient failures per a [`RetryPolicy`].
///
/// ```no_run
/// use paq_server::{Client, RetryPolicy, RetryingClient};
///
/// let mut client = RetryingClient::new(
///     || std::net::TcpStream::connect("127.0.0.1:7878"),
///     RetryPolicy::default(),
/// );
/// let answer = client.execute(
///     "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 \
///      SUCH THAT COUNT(P.*) = 3 MINIMIZE SUM(P.saturated_fat)",
/// )?;
/// # Ok::<(), paq_server::ClientError>(())
/// ```
#[derive(Debug)]
pub struct RetryingClient<C: Connection, F: FnMut() -> std::io::Result<C>> {
    connect: F,
    policy: RetryPolicy,
    client: Option<Client<C>>,
    rng: SmallRng,
    stats: RetryStats,
    obs: Registry,
}

impl<C: Connection, F: FnMut() -> std::io::Result<C>> RetryingClient<C, F> {
    /// A client that (re)connects through `connect` and retries per
    /// `policy`. Nothing connects until the first call.
    pub fn new(connect: F, policy: RetryPolicy) -> Self {
        let rng = SmallRng::seed_from_u64(policy.seed);
        RetryingClient {
            connect,
            policy,
            client: None,
            rng,
            stats: RetryStats::default(),
            obs: Registry::disabled(),
        }
    }

    /// Work counters so far.
    pub fn retry_stats(&self) -> RetryStats {
        self.stats
    }

    /// Mirror retry activity into a metrics registry:
    /// `client.attempts`, `client.retries_total`, and
    /// `client.reconnects` count alongside [`RetryStats`], so retry
    /// churn shows up in the same snapshot as everything else (e.g. the
    /// chaos suite asserts its injected faults produced retries).
    /// Disabled by default.
    pub fn attach_registry(&mut self, registry: Registry) {
        self.obs = registry;
    }

    /// Draw the next mutation token from the seeded sequence.
    fn next_token(&mut self) -> u64 {
        self.rng.gen()
    }

    fn client(&mut self) -> ClientResult<&mut Client<C>> {
        if self.client.is_none() {
            let conn = (self.connect)().map_err(ClientError::from)?;
            self.stats.reconnects += 1;
            self.obs.incr("client.reconnects");
            self.client = Some(Client::over(conn));
        }
        Ok(self.client.as_mut().expect("connected above"))
    }

    /// Run `call` against a live client, retrying transient failures.
    /// Mutations are only routed through here carrying a token, so a
    /// retry after a lost ack is deduplicated server-side rather than
    /// re-applied.
    fn with_retry<T>(
        &mut self,
        mut call: impl FnMut(&mut Client<C>) -> ClientResult<T>,
    ) -> ClientResult<T> {
        let mut retry = 0u32;
        loop {
            self.stats.attempts += 1;
            self.obs.incr("client.attempts");
            let error = match self.client().and_then(&mut call) {
                Ok(value) => return Ok(value),
                Err(e) => e,
            };
            if !error.is_transient() || retry >= self.policy.max_retries {
                return Err(error);
            }
            // Drop the connection and reconnect on the next attempt. A
            // stream failure leaves it unusable, and so does a Busy
            // refusal at accept time (`shed_class: None`), which the
            // server closes. An admission shed keeps it open, but a
            // fresh one serves the retry just as well.
            self.client = None;
            let hint = match &error {
                ClientError::Busy { retry_after_ms, .. } => {
                    self.stats.busy_hints_honored += 1;
                    Some(*retry_after_ms)
                }
                _ => None,
            };
            let pause = self.policy.backoff(retry, hint, &mut self.rng);
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
            retry += 1;
            self.stats.retries += 1;
            self.obs.incr("client.retries_total");
        }
    }

    /// A pre-built request with retries, for
    /// [`RequestBuilder::send_retrying`](crate::api::RequestBuilder::send_retrying).
    pub(crate) fn call<T: Completion>(&mut self, request: &Request) -> ClientResult<T> {
        self.with_retry(|c| c.call(request))
    }

    /// [`Client::execute`] with retries.
    pub fn execute(&mut self, paql: &str) -> ClientResult<RemoteExecution> {
        self.with_retry(|c| c.execute(paql))
    }

    /// [`Client::explain`] with retries.
    pub fn explain(&mut self, paql: &str) -> ClientResult<String> {
        self.with_retry(|c| c.explain(paql))
    }

    /// [`Client::register_table`] with retries, carrying a token so a
    /// retry after a lost ack cannot double-register.
    pub fn register_table(&mut self, name: &str, table: &Table) -> ClientResult<u64> {
        let token = self.next_token();
        self.with_retry(|c| c.register_table_with_token(name, table, Some(token)))
    }

    /// [`Client::append_row`] with retries, carrying a token so a retry
    /// after a lost ack cannot append the row twice.
    pub fn append_row(&mut self, name: &str, row: Vec<Value>) -> ClientResult<u64> {
        let token = self.next_token();
        self.with_retry(|c| c.append_row_with_token(name, row.clone(), Some(token)))
    }

    /// [`Client::stats`] with retries.
    pub fn stats(&mut self) -> ClientResult<StatsReply> {
        self.with_retry(|c| c.stats())
    }

    /// [`Client::shutdown`] with retries (acknowledged shutdown is
    /// idempotent: repeating it against a draining server is a no-op).
    pub fn shutdown(&mut self) -> ClientResult<()> {
        self.with_retry(|c| c.shutdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_and_honors_hint() {
        let policy = RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(80),
            jitter: 0.0,
            seed: 1,
        };
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(policy.backoff(0, None, &mut rng), Duration::from_millis(10));
        assert_eq!(policy.backoff(2, None, &mut rng), Duration::from_millis(40));
        // 10 · 2^6 = 640 ms, capped at 80.
        assert_eq!(policy.backoff(6, None, &mut rng), Duration::from_millis(80));
        // A server hint floors the computed pause.
        assert_eq!(
            policy.backoff(0, Some(55), &mut rng),
            Duration::from_millis(55)
        );
    }

    #[test]
    fn jitter_only_shrinks_and_is_deterministic() {
        let policy = RetryPolicy {
            jitter: 0.5,
            ..RetryPolicy::default()
        };
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for retry in 0..6 {
            let pa = policy.backoff(retry, None, &mut a);
            let pb = policy.backoff(retry, None, &mut b);
            assert_eq!(pa, pb, "same seed, same schedule");
            let full = policy
                .base_backoff
                .saturating_mul(1 << retry)
                .min(policy.max_backoff);
            assert!(pa <= full, "jitter never exceeds the un-jittered pause");
            assert!(pa >= full.mul_f64(0.5), "jitter removes at most half");
        }
    }

    #[test]
    fn token_sequence_is_seeded_and_distinct() {
        let policy = RetryPolicy {
            seed: 42,
            ..RetryPolicy::default()
        };
        let mut c1 = RetryingClient::new(
            || Err::<crate::PipeEnd, _>(std::io::Error::other("nope")),
            policy.clone(),
        );
        let mut c2 = RetryingClient::new(
            || Err::<crate::PipeEnd, _>(std::io::Error::other("nope")),
            policy,
        );
        let t1: Vec<u64> = (0..4).map(|_| c1.next_token()).collect();
        let t2: Vec<u64> = (0..4).map(|_| c2.next_token()).collect();
        assert_eq!(t1, t2, "same seed, same token sequence");
        let mut sorted = t1.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), t1.len(), "tokens are distinct");
    }
}
