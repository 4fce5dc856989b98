//! Fairness-aware admission control: per-client quotas, weighted-fair
//! dequeue across admission classes, and shed-lowest-priority on
//! saturation.
//!
//! PR 4's server bounded load with a single global in-flight cap: one
//! bulk client queueing deep work starves interactive clients behind
//! the same bound. The per-*request* part of that bound is now a
//! [`FairScheduler`]: every request is queued under
//! its connection's admission class ([`ShedClass`]) and client
//! identity, executors dequeue by smoothed weighted round-robin, and
//! when the queue saturates the scheduler sheds the *lowest-priority*
//! queued work — evicting a bulk request to admit an interactive one —
//! instead of rejecting whoever arrived last.
//!
//! The scheduler is generic over the queued item so its discipline is
//! testable without a server: the server queues
//! [`Work`](crate::server::Work) items carrying the response writer.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::wire::ShedClass;

/// All three admission classes, highest priority first.
pub(crate) const CLASSES: [ShedClass; 3] =
    [ShedClass::Interactive, ShedClass::Normal, ShedClass::Bulk];

/// Admission-control configuration (see the crate-internal
/// `FairScheduler` for the mechanics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Total queued requests across all classes; beyond it, admission
    /// sheds the lowest-priority queued work below the arrival's class
    /// (or the arrival, when nothing queued ranks below it).
    pub max_queued: usize,
    /// Max queued + in-flight requests per client identity. Protects
    /// the queue itself from a single client regardless of class.
    pub per_client_quota: usize,
    /// Dequeue weights per class, indexed interactive/normal/bulk.
    /// Defaults to `[8, 2, 1]`: interactive work gets 8 dequeues for
    /// every bulk one when both queues are non-empty — but a class
    /// never starves, every non-empty class accumulates credit.
    pub weights: [u64; 3],
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_queued: 256,
            per_client_quota: 128,
            weights: [8, 2, 1],
        }
    }
}

/// What [`FairScheduler::push`] did with an arrival.
#[derive(Debug)]
pub(crate) enum PushOutcome<T> {
    /// Queued; an executor will pick it up.
    Admitted,
    /// The arrival itself was shed (quota exceeded, or the queue is
    /// full and nothing queued has lower priority); handed back so the
    /// caller can answer it with `Busy`.
    ShedIncoming(T),
    /// The arrival was admitted by evicting this lower-priority queued
    /// item; the caller owes the evicted item a `Busy` answer.
    Evicted(T),
}

struct Entry<T> {
    client: u64,
    item: T,
}

struct SchedState<T> {
    queues: [VecDeque<Entry<T>>; 3],
    queued: usize,
    /// Queued + in-flight count per client identity (decremented by
    /// [`FairScheduler::finish`], not at dequeue, so the quota bounds a
    /// client's total footprint).
    clients: HashMap<u64, usize>,
    /// Smoothed weighted round-robin credit per class.
    credits: [i64; 3],
    closed: bool,
}

/// The admission queue: three class queues behind one mutex, a condvar
/// for executor wakeup. See the module docs for the discipline.
pub(crate) struct FairScheduler<T> {
    config: AdmissionConfig,
    state: Mutex<SchedState<T>>,
    available: Condvar,
}

impl<T> FairScheduler<T> {
    pub(crate) fn new(config: AdmissionConfig) -> Self {
        FairScheduler {
            config,
            state: Mutex::new(SchedState {
                queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                queued: 0,
                clients: HashMap::new(),
                credits: [0; 3],
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Offer an arrival. On `Admitted`/`Evicted` the client's footprint
    /// count is incremented and must be returned via
    /// [`FairScheduler::finish`] when its execution completes.
    pub(crate) fn push(&self, class: ShedClass, client: u64, item: T) -> PushOutcome<T> {
        let mut s = self.state.lock().expect("scheduler lock");
        if s.closed {
            return PushOutcome::ShedIncoming(item);
        }
        let footprint = s.clients.get(&client).copied().unwrap_or(0);
        if footprint >= self.config.per_client_quota {
            return PushOutcome::ShedIncoming(item);
        }
        let class_idx = class.wire_byte() as usize;
        let mut evicted = None;
        if s.queued >= self.config.max_queued {
            // Shed the back of the lowest-priority non-empty queue
            // strictly below the arrival's class; a bulk arrival into a
            // full queue has nothing below it and is shed itself.
            let Some(victim_idx) = (class_idx + 1..CLASSES.len())
                .rev()
                .find(|&i| !s.queues[i].is_empty())
            else {
                return PushOutcome::ShedIncoming(item);
            };
            let victim = s.queues[victim_idx].pop_back().expect("non-empty");
            s.queued -= 1;
            release_client(&mut s.clients, victim.client);
            evicted = Some(victim.item);
        }
        *s.clients.entry(client).or_insert(0) += 1;
        s.queues[class_idx].push_back(Entry { client, item });
        s.queued += 1;
        drop(s);
        self.available.notify_one();
        match evicted {
            Some(item) => PushOutcome::Evicted(item),
            None => PushOutcome::Admitted,
        }
    }

    /// Blocking dequeue. Returns `None` only once the scheduler is
    /// closed **and** drained, so pending work survives shutdown's
    /// close call.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut s = self.state.lock().expect("scheduler lock");
        loop {
            if s.queued > 0 {
                let idx = self.pick_weighted(&mut s);
                let entry = s.queues[idx].pop_front().expect("picked non-empty");
                s.queued -= 1;
                return Some(entry.item);
            }
            if s.closed {
                return None;
            }
            // Timed wait so a racing close-after-check cannot strand an
            // executor (close notifies under the same lock, but belt
            // and braces against missed wakeups on exotic platforms).
            let (guard, _) = self
                .available
                .wait_timeout(s, Duration::from_millis(50))
                .expect("scheduler lock");
            s = guard;
        }
    }

    /// Smoothed weighted round-robin: every non-empty class gains its
    /// weight, the richest class is served and pays back the total
    /// gained this round. Long-run service of concurrently-backlogged
    /// classes converges to the weight ratio, and any non-empty class
    /// accumulates credit until served — no starvation.
    fn pick_weighted(&self, s: &mut SchedState<T>) -> usize {
        let non_empty: Vec<usize> = (0..CLASSES.len())
            .filter(|&i| !s.queues[i].is_empty())
            .collect();
        let mut total = 0i64;
        for &i in &non_empty {
            s.credits[i] += self.config.weights[i] as i64;
            total += self.config.weights[i] as i64;
        }
        let &chosen = non_empty
            .iter()
            .max_by_key(|&&i| (s.credits[i], std::cmp::Reverse(i)))
            .expect("queued > 0");
        s.credits[chosen] -= total;
        chosen
    }

    /// Return a client's footprint after one of its requests finished
    /// executing (or was dropped without executing).
    pub(crate) fn finish(&self, client: u64) {
        let mut s = self.state.lock().expect("scheduler lock");
        release_client(&mut s.clients, client);
    }

    /// Stop admitting and wake every blocked executor; queued work
    /// still drains through [`FairScheduler::pop`].
    pub(crate) fn close(&self) {
        self.state.lock().expect("scheduler lock").closed = true;
        self.available.notify_all();
    }
}

fn release_client(clients: &mut HashMap<u64, usize>, client: u64) {
    if let Some(count) = clients.get_mut(&client) {
        *count -= 1;
        if *count == 0 {
            clients.remove(&client);
        }
    }
}

/// Per-connection pipeline window: a counting gate bounding how many of
/// one connection's requests are queued or executing at once.
pub(crate) struct WindowGate {
    limit: usize,
    in_flight: Mutex<usize>,
    freed: Condvar,
}

impl WindowGate {
    pub(crate) fn new(limit: usize) -> Self {
        WindowGate {
            limit: limit.max(1),
            in_flight: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Take one slot, blocking while the window is full. Polls
    /// `give_up` (the server's shutdown flag) every tick; returns
    /// `false` when asked to give up instead of acquiring.
    pub(crate) fn acquire(&self, give_up: impl Fn() -> bool) -> bool {
        let mut count = self.in_flight.lock().expect("gate lock");
        loop {
            if *count < self.limit {
                *count += 1;
                return true;
            }
            if give_up() {
                return false;
            }
            let (guard, _) = self
                .freed
                .wait_timeout(count, Duration::from_millis(10))
                .expect("gate lock");
            count = guard;
        }
    }

    /// Release one slot.
    pub(crate) fn release(&self) {
        let mut count = self.in_flight.lock().expect("gate lock");
        *count = count.saturating_sub(1);
        drop(count);
        self.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(config: AdmissionConfig) -> FairScheduler<u32> {
        FairScheduler::new(config)
    }

    #[test]
    fn weighted_dequeue_prefers_interactive() {
        let s = sched(AdmissionConfig::default());
        // Deep bulk backlog queued first, then one interactive arrival.
        for i in 0..10 {
            assert!(matches!(
                s.push(ShedClass::Bulk, 1, i),
                PushOutcome::Admitted
            ));
        }
        assert!(matches!(
            s.push(ShedClass::Interactive, 2, 100),
            PushOutcome::Admitted
        ));
        // The interactive item jumps the entire bulk backlog.
        assert_eq!(s.pop(), Some(100));
    }

    #[test]
    fn weighted_dequeue_never_starves_bulk() {
        let s = sched(AdmissionConfig::default());
        for i in 0..8 {
            s.push(ShedClass::Interactive, 1, i);
        }
        s.push(ShedClass::Bulk, 2, 100);
        let order: Vec<u32> = (0..9).map(|_| s.pop().unwrap()).collect();
        assert!(order.contains(&100), "bulk item was drained: {order:?}");
        // With weights 8:1 the bulk item is served within the first
        // nine dequeues but not first.
        assert_ne!(order[0], 100, "interactive should lead");
    }

    #[test]
    fn saturation_evicts_lowest_priority() {
        let s = sched(AdmissionConfig {
            max_queued: 2,
            ..AdmissionConfig::default()
        });
        s.push(ShedClass::Bulk, 1, 10);
        s.push(ShedClass::Bulk, 1, 11);
        match s.push(ShedClass::Interactive, 2, 99) {
            PushOutcome::Evicted(victim) => assert_eq!(victim, 11, "back of bulk queue"),
            other => panic!("expected eviction, got {other:?}"),
        }
        // A bulk arrival into a full queue with nothing below it sheds
        // itself.
        assert!(matches!(
            s.push(ShedClass::Bulk, 1, 12),
            PushOutcome::ShedIncoming(_)
        ));
    }

    #[test]
    fn per_client_quota_counts_in_flight_work() {
        let s = sched(AdmissionConfig {
            per_client_quota: 2,
            ..AdmissionConfig::default()
        });
        s.push(ShedClass::Normal, 7, 0);
        s.push(ShedClass::Normal, 7, 1);
        assert!(matches!(
            s.push(ShedClass::Normal, 7, 2),
            PushOutcome::ShedIncoming(_)
        ));
        // Dequeue alone does not release quota (the work is now in
        // flight) ...
        assert!(s.pop().is_some());
        assert!(matches!(
            s.push(ShedClass::Normal, 7, 3),
            PushOutcome::ShedIncoming(_)
        ));
        // ... finish() does.
        s.finish(7);
        assert!(matches!(
            s.push(ShedClass::Normal, 7, 4),
            PushOutcome::Admitted
        ));
        // Other clients are unaffected throughout.
        assert!(matches!(
            s.push(ShedClass::Normal, 8, 5),
            PushOutcome::Admitted
        ));
    }

    #[test]
    fn close_drains_then_ends() {
        let s = sched(AdmissionConfig::default());
        s.push(ShedClass::Normal, 1, 42);
        s.close();
        assert!(matches!(
            s.push(ShedClass::Normal, 1, 43),
            PushOutcome::ShedIncoming(_)
        ));
        assert_eq!(s.pop(), Some(42), "queued work survives close");
        assert_eq!(s.pop(), None, "then the scheduler ends");
    }

    #[test]
    fn window_gate_bounds_and_releases() {
        let gate = WindowGate::new(2);
        assert!(gate.acquire(|| false));
        assert!(gate.acquire(|| false));
        assert!(!gate.acquire(|| true), "full window + give-up signal");
        gate.release();
        assert!(gate.acquire(|| false), "freed slot is acquirable");
    }
}
