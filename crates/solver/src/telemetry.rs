//! Shared solver telemetry.
//!
//! The evaluation engine treats the MILP solver as a black box but the
//! experiments need to know how often it was called and how hard it
//! worked — e.g. SKETCHREFINE makes `m + 1` solver calls in its best
//! case versus DIRECT's single large call (§4.2.2). A [`Telemetry`] can
//! be shared (via `Arc`) across every solver instance an evaluation
//! spawns and aggregates those counters thread-safely.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use paq_obs::Registry;
use parking_lot::RwLock;

use crate::solution::{SolveOutcome, SolveStats};

/// Thread-safe aggregate counters over every solve reported to this
/// sink.
#[derive(Debug, Default)]
pub struct Telemetry {
    calls: AtomicU64,
    failures: AtomicU64,
    nodes: AtomicU64,
    simplex_iterations: AtomicU64,
    wall_nanos: AtomicU64,
    max_simplex_iterations: AtomicU64,
    /// Optional mirror into a shared metrics registry (see
    /// [`Telemetry::attach_registry`]); disabled by default.
    registry: RwLock<Registry>,
}

impl Telemetry {
    /// A fresh, zeroed sink.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Mirror every future [`Telemetry::record`] into `registry` as
    /// well: `solver.calls` / `solver.failures` / `solver.nodes` /
    /// `solver.simplex_iterations` counters and a `solver.solve` wall
    /// time histogram. The aggregate counters on `self` are unchanged —
    /// existing callers keep their view; the registry is a second,
    /// database-wide sink (`PackageDb::set_telemetry` attaches the
    /// shared one automatically).
    pub fn attach_registry(&self, registry: Registry) {
        *self.registry.write() = registry;
    }

    /// Record one finished solve.
    pub fn record(&self, stats: &SolveStats, outcome: &SolveOutcome) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if outcome.is_failure() {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        self.nodes.fetch_add(stats.nodes, Ordering::Relaxed);
        self.simplex_iterations
            .fetch_add(stats.simplex_iterations, Ordering::Relaxed);
        self.wall_nanos
            .fetch_add(stats.wall_time.as_nanos() as u64, Ordering::Relaxed);
        self.max_simplex_iterations
            .fetch_max(stats.simplex_iterations, Ordering::Relaxed);
        let registry = self.registry.read().clone();
        registry.incr("solver.calls");
        if outcome.is_failure() {
            registry.incr("solver.failures");
        }
        registry.add("solver.nodes", stats.nodes);
        registry.add("solver.simplex_iterations", stats.simplex_iterations);
        registry.observe("solver.solve", stats.wall_time);
    }

    /// Total solver invocations.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Solves that ended in resource exhaustion.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Total branch-and-bound nodes across all solves.
    pub fn total_nodes(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }

    /// Total simplex iterations across all solves.
    pub fn total_simplex_iterations(&self) -> u64 {
        self.simplex_iterations.load(Ordering::Relaxed)
    }

    /// Total wall-clock time spent inside the solver.
    pub fn total_wall_time(&self) -> Duration {
        Duration::from_nanos(self.wall_nanos.load(Ordering::Relaxed))
    }

    /// The most simplex iterations any single solve used.
    pub fn max_simplex_iterations(&self) -> u64 {
        self.max_simplex_iterations.load(Ordering::Relaxed)
    }

    /// Reset every counter (between experiment runs).
    pub fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.failures.store(0, Ordering::Relaxed);
        self.nodes.store(0, Ordering::Relaxed);
        self.simplex_iterations.store(0, Ordering::Relaxed);
        self.wall_nanos.store(0, Ordering::Relaxed);
        self.max_simplex_iterations.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::{LimitKind, Solution};

    fn stats(nodes: u64) -> SolveStats {
        SolveStats {
            nodes,
            simplex_iterations: nodes * 10,
            lp_solves: nodes,
            wall_time: Duration::from_millis(nodes),
            peak_memory_estimate: 0,
            root_infeasible_rows: vec![],
        }
    }

    #[test]
    fn aggregates_accumulate() {
        let t = Telemetry::new();
        let sol = Solution {
            values: vec![],
            objective: 0.0,
        };
        // The larger solve comes first, so the maximum is not simply
        // the last solve's count.
        t.record(&stats(3), &SolveOutcome::Optimal(sol));
        t.record(
            &stats(2),
            &SolveOutcome::ResourceExhausted(LimitKind::Memory),
        );
        assert_eq!(t.calls(), 2);
        assert_eq!(t.failures(), 1);
        assert_eq!(t.total_nodes(), 5);
        assert_eq!(t.total_simplex_iterations(), 50);
        assert_eq!(t.total_wall_time(), Duration::from_millis(5));
        assert_eq!(t.max_simplex_iterations(), 30);
    }

    #[test]
    fn reset_zeroes_everything() {
        let t = Telemetry::new();
        t.record(&stats(1), &SolveOutcome::Infeasible);
        t.reset();
        assert_eq!(t.calls(), 0);
        assert_eq!(t.total_nodes(), 0);
        assert_eq!(t.max_simplex_iterations(), 0);
    }

    #[test]
    fn shared_across_threads() {
        use std::sync::Arc;
        let t = Arc::new(Telemetry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    t.record(&stats(1), &SolveOutcome::Infeasible);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.calls(), 100);
        assert_eq!(t.max_simplex_iterations(), 10);
    }
}
