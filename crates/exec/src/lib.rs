#![warn(missing_docs)]

//! # paq-exec — scoped worker pool
//!
//! A small fixed-size thread pool with a channel-based work queue and a
//! scoped-spawn API, built for the two embarrassingly parallel phases
//! of this system:
//!
//! * **wave-based REFINE** (`paq-core`): each wave solves many
//!   independent per-group ILPs against a snapshot of the package
//!   state;
//! * **offline partitioning** (`paq-partition`): per-leaf statistics of
//!   the quad-tree build.
//!
//! Design points:
//!
//! * **Fixed thread count.** Workers are spawned once in
//!   [`ThreadPool::new`] and live until the pool is dropped; scopes
//!   enqueue jobs onto the shared queue instead of spawning threads.
//! * **Scoped borrows.** [`ThreadPool::scope`] lets jobs borrow data
//!   from the caller's stack (the table, the query, result slots); the
//!   scope blocks until every spawned job finished, so those borrows
//!   can never dangle.
//! * **Panic propagation.** A panicking job does not kill its worker;
//!   the payload is captured and re-thrown from [`ThreadPool::scope`]
//!   on the caller's thread (first panic wins), mirroring
//!   `std::thread::scope` semantics.
//! * **No new dependencies.** Everything is `std` plus the vendored
//!   `parking_lot` stand-in, whose guards are `std` guards — so a
//!   `std::sync::Condvar` pairs with them directly.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;

use parking_lot::Mutex;

/// A unit of work handed to a worker. Jobs are type-erased and
/// lifetime-erased; [`Scope`] guarantees they never outlive the borrows
/// they capture.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The shared injector queue: jobs plus a shutdown flag.
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// Queue shared by the submitting side and every worker.
struct Shared {
    queue: Mutex<Queue>,
    /// Workers park here waiting for jobs. The compat `parking_lot`
    /// mutex hands out `std` guards, so a `std` condvar pairs with
    /// `queue` directly — no lost-wakeup window.
    ready: Condvar,
    /// Spin briefly before parking. Only worth it when the host
    /// actually runs threads in parallel; on a single hardware thread
    /// spinning steals the timeslice the producer needs.
    spin: bool,
}

impl Shared {
    fn push(&self, job: Job) {
        self.queue.lock().jobs.push_back(job);
        self.ready.notify_one();
    }

    /// Blocking pop; returns `None` once the pool shuts down and the
    /// queue is drained.
    ///
    /// Jobs arrive in bursts (one wave of per-group solves at a time)
    /// and a condvar sleep/wake round-trip can cost more than a small
    /// solve, so a worker spins briefly before parking.
    fn pop(&self) -> Option<Job> {
        if self.spin {
            const SPIN_ROUNDS: u32 = 64;
            for _ in 0..SPIN_ROUNDS {
                {
                    let mut q = self.queue.lock();
                    if let Some(job) = q.jobs.pop_front() {
                        return Some(job);
                    }
                    if q.shutdown {
                        return None;
                    }
                }
                for _ in 0..64 {
                    std::hint::spin_loop();
                }
            }
        }
        let mut q = self.queue.lock();
        loop {
            if let Some(job) = q.jobs.pop_front() {
                return Some(job);
            }
            if q.shutdown {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Completion state of one [`Scope`]: outstanding job count plus the
/// first captured panic payload.
struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    spawned: AtomicUsize,
    /// See [`Shared::spin`].
    spin: bool,
}

impl ScopeState {
    fn new(spin: bool) -> Self {
        ScopeState {
            pending: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
            spawned: AtomicUsize::new(0),
            spin,
        }
    }

    fn job_started(&self) {
        *self.pending.lock() += 1;
        self.spawned.fetch_add(1, Ordering::Relaxed);
    }

    fn job_finished(&self, panic: Option<Box<dyn Any + Send + 'static>>) {
        if let Some(payload) = panic {
            self.panic.lock().get_or_insert(payload);
        }
        let mut pending = self.pending.lock();
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }

    fn wait_all(&self) {
        // Mirror the worker-side spin: short scopes (one wave) finish
        // faster than a sleep/wake round-trip.
        if self.spin {
            const SPIN_ROUNDS: u32 = 64;
            for _ in 0..SPIN_ROUNDS {
                if *self.pending.lock() == 0 {
                    return;
                }
                for _ in 0..64 {
                    std::hint::spin_loop();
                }
            }
        }
        let mut pending = self.pending.lock();
        while *pending > 0 {
            pending = self.done.wait(pending).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A fixed-size worker pool. See the [crate docs](crate) for the
/// design; see [`ThreadPool::scope`] and [`ThreadPool::map`] for the
/// two ways to run work on it.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl ThreadPool {
    /// Spawn a pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            spin: std::thread::available_parallelism()
                .map(|n| n.get() > 1)
                .unwrap_or(false),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("paq-exec-{i}"))
                    .spawn(move || {
                        while let Some(job) = shared.pop() {
                            job();
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Run `f` with a [`Scope`] whose spawned jobs may borrow anything
    /// that outlives the `scope` call. Blocks until every spawned job
    /// finished; if any job panicked, the first payload is re-thrown
    /// here (after all jobs completed, so borrowed data stays valid).
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let state = Arc::new(ScopeState::new(self.shared.spin));
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _env: std::marker::PhantomData,
        };
        // Run the scope body; even if IT panics, already-spawned jobs
        // must finish before the stack frame unwinds.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        state.wait_all();
        let job_panic = state.panic.lock().take();
        match result {
            Err(body_panic) => resume_unwind(body_panic),
            Ok(value) => {
                if let Some(payload) = job_panic {
                    resume_unwind(payload);
                }
                value
            }
        }
    }

    /// Accept-loop helper: repeatedly pull items from a blocking
    /// `accept` source and run `handler` on each, in parallel, on this
    /// pool. Returns — with every handler finished — once `accept`
    /// returns `None`.
    ///
    /// This is the serving shape: an acceptor thread owns the listener
    /// (a socket, a channel, a queue) while handlers borrow shared
    /// state from the caller's stack. `accept` runs on the calling
    /// thread, so it may borrow freely; in-flight handlers never block
    /// the next `accept`, and a handler panic is captured and re-thrown
    /// here after the loop drains (see [`ThreadPool::scope`]).
    ///
    /// Note the pool is the concurrency bound: with `n` workers, at
    /// most `n` handlers run at once and further accepted items queue.
    /// Callers needing *rejection* instead of queueing (backpressure)
    /// should gate `accept` itself.
    pub fn serve<T, A, H>(&self, mut accept: A, handler: H)
    where
        T: Send,
        A: FnMut() -> Option<T>,
        H: Fn(T) + Sync,
    {
        self.scope(|scope| {
            let handler = &handler;
            while let Some(item) = accept() {
                scope.spawn(move || handler(item));
            }
        });
    }

    /// [`ThreadPool::serve`], but a handler panic is *contained* rather
    /// than re-thrown: the panicking handler's item is abandoned (its
    /// payload dropped), every other handler keeps running, and the
    /// loop keeps accepting. Returns the number of handler panics
    /// observed — a long-running server wants one bad connection to
    /// cost one connection, not the whole serve loop at drain time.
    pub fn serve_resilient<T, A, H>(&self, accept: A, handler: H) -> u64
    where
        T: Send,
        A: FnMut() -> Option<T>,
        H: Fn(T) + Sync,
    {
        let panics = AtomicU64::new(0);
        let counted = |item: T| {
            if catch_unwind(AssertUnwindSafe(|| handler(item))).is_err() {
                panics.fetch_add(1, Ordering::AcqRel);
            }
        };
        self.serve(accept, counted);
        panics.load(Ordering::Acquire)
    }

    /// Apply `f` to every item, in parallel, returning results in input
    /// order. With a single worker (or at most one item) this runs
    /// inline, so outputs are identical — bit for bit — regardless of
    /// pool size whenever `f` itself is deterministic.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        if self.threads() == 1 || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        self.scope(|scope| {
            for (item, slot) in items.into_iter().zip(slots.iter_mut()) {
                let f = &f;
                scope.spawn(move || *slot = Some(f(item)));
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("scope completed every job"))
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.queue.lock().shutdown = true;
        self.shared.ready.notify_all();
        for worker in self.workers.drain(..) {
            // Scope jobs are panic-wrapped, so workers only die if the
            // runtime itself failed; don't double-panic during drop.
            let _ = worker.join();
        }
    }
}

/// Handle for spawning borrowed jobs onto a [`ThreadPool`]; created by
/// [`ThreadPool::scope`].
pub struct Scope<'pool, 'env> {
    pool: &'pool ThreadPool,
    state: Arc<ScopeState>,
    /// Makes `'env` invariant, like `std::thread::Scope`: jobs may
    /// borrow from `'env`, so it must not be allowed to shrink.
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Enqueue a job that may borrow from `'env`. Panics inside the job
    /// are captured and re-thrown by the enclosing
    /// [`ThreadPool::scope`] call.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.job_started();
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(f));
            state.job_finished(outcome.err());
        });
        // SAFETY: the job is executed by a worker that took it off the
        // queue, and `ThreadPool::scope` blocks on `wait_all()` until
        // `job_finished` ran for every spawned job — including when the
        // scope body or another job panics. Therefore the closure (and
        // every `'env` borrow it captures) is dropped before the `'env`
        // stack frame can unwind, which is exactly the guarantee the
        // `'static` bound on [`Job`] stands in for.
        let job: Job = unsafe { std::mem::transmute(job) };
        self.pool.shared.push(job);
    }

    /// Number of jobs spawned on this scope so far.
    pub fn spawned(&self) -> usize {
        self.state.spawned.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn map_preserves_order() {
        let pool = ThreadPool::new(4);
        let out = pool.map((0..100).collect(), |x: u64| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_matches_single_thread() {
        let seq = ThreadPool::new(1);
        let par = ThreadPool::new(8);
        let f = |x: u64| (0..x).map(|i| (i as f64).sqrt()).sum::<f64>().to_bits();
        assert_eq!(
            seq.map((0..200).collect(), f),
            par.map((0..200).collect(), f)
        );
    }

    #[test]
    fn scope_borrows_stack_data() {
        let pool = ThreadPool::new(3);
        let data = [1u64, 2, 3, 4, 5];
        let total = AtomicU64::new(0);
        pool.scope(|scope| {
            for chunk in data.chunks(2) {
                let total = &total;
                scope.spawn(move || {
                    total.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
                });
            }
            assert_eq!(scope.spawned(), 3);
        });
        assert_eq!(total.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn scope_runs_more_jobs_than_threads() {
        let pool = ThreadPool::new(2);
        let counter = AtomicU64::new(0);
        pool.scope(|scope| {
            for _ in 0..64 {
                let counter = &counter;
                scope.spawn(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn one_pool_serves_concurrent_scopes_from_many_threads() {
        // The session layer shares a single pool across all concurrent
        // clients, so scopes opened simultaneously from different OS
        // threads must interleave on the same workers without
        // cross-talk: each scope waits for exactly its own jobs.
        let pool = Arc::new(ThreadPool::new(3));
        let results: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for (client, slot) in results.iter().enumerate() {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for _ in 0..5 {
                        let out = pool.map((0..20).collect(), |x: u64| x * (client as u64 + 1));
                        let sum: u64 = out.iter().sum();
                        slot.store(sum, Ordering::Relaxed);
                    }
                });
            }
        });
        for (client, slot) in results.iter().enumerate() {
            let expected: u64 = (0..20u64).map(|x| x * (client as u64 + 1)).sum();
            assert_eq!(slot.load(Ordering::Relaxed), expected, "client {client}");
        }
    }

    #[test]
    fn serve_drains_a_blocking_source_in_parallel() {
        use std::sync::mpsc;
        let pool = ThreadPool::new(3);
        let (tx, rx) = mpsc::channel::<u64>();
        let producer = std::thread::spawn(move || {
            for i in 0..50 {
                tx.send(i).unwrap();
            }
            // Dropping the sender ends the accept loop.
        });
        let total = AtomicU64::new(0);
        let peak_pending = AtomicU64::new(0);
        pool.serve(
            || rx.recv().ok(),
            |i| {
                peak_pending.fetch_add(1, Ordering::Relaxed);
                total.fetch_add(i, Ordering::Relaxed);
            },
        );
        producer.join().unwrap();
        assert_eq!(total.load(Ordering::Relaxed), (0..50u64).sum());
        assert_eq!(peak_pending.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn job_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn(|| panic!("boom from job"));
            });
        }))
        .expect_err("panic must propagate to the scope caller");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("boom from job"), "{msg}");
        // Workers survive a panicking job; the pool stays usable.
        assert_eq!(pool.map(vec![1, 2, 3], |x: i32| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn panic_waits_for_sibling_jobs() {
        // The panicking scope must not unwind (and free borrowed data)
        // while slower sibling jobs still hold borrows.
        let pool = ThreadPool::new(3);
        let slow_done = AtomicU64::new(0);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                let slow_done = &slow_done;
                scope.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    slow_done.store(1, Ordering::SeqCst);
                });
                scope.spawn(|| panic!("fast failure"));
            });
        }));
        assert_eq!(
            slow_done.load(Ordering::SeqCst),
            1,
            "scope returned before the slow job finished"
        );
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(4);
        let marker = Arc::new(());
        for _ in 0..16 {
            let m = Arc::clone(&marker);
            pool.scope(|scope| {
                scope.spawn(move || {
                    let _hold = m;
                });
            });
        }
        drop(pool);
        // Every worker exited and dropped its jobs: only our handle on
        // the marker remains.
        assert_eq!(Arc::strong_count(&marker), 1);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map(vec![5], |x: i32| x * x), vec![25]);
    }
}
