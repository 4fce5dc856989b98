//! The five workloads, and the closed loop the three in-process ones
//! share.

use std::convert::Infallible;
use std::sync::Arc;
use std::time::{Duration, Instant};

use paq_core::Package;
use paq_db::{DbConfig, PackageDb, Route};
use paq_relational::Table;

use crate::common::{
    answers, metric, ms, repeat_set_up, solver_config, Params, Query, Report, Rng,
};

pub mod galaxy_append;
mod galaxy_direct;
mod galaxy_refine;
pub mod galaxy_serve;
mod tpch_scan;

/// Samples a closed loop takes at least: ten lie beyond the 95th
/// percentile of 200.
const MIN_SAMPLES: usize = 200;

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists; `BENCHMARK.json` carries the same line.
    pub why: &'static str,
    pub run: fn(&Params) -> Report,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "tpch-scan-1m",
        why: "1M-row TPC-H, in-process SKETCHREFINE: the row-at-a-time WHERE scan in paq-relational is most of the time, the solver almost none",
        run: tpch_scan::run,
    },
    Workload {
        name: "galaxy-direct-20k",
        why: "Galaxy 20k rows, DIRECT: paq-solver does nearly all the work and the scan none; also yields the DIRECT optimum for approx_ratio_worst",
        run: galaxy_direct::run,
    },
    Workload {
        name: "galaxy-refine-100k",
        why: "Galaxy 100k rows, bulk packages: 100+ groups refined per query, so paq-core waves, paq-exec and per-group translation dominate",
        run: galaxy_refine::run,
    },
    Workload {
        name: "galaxy-serve-12k",
        why: "Galaxy 12.8k rows behind the v7 TCP server, open loop: codec, admission queue, parse, plan and socket writes are half the round trip",
        run: galaxy_serve::run,
    },
    Workload {
        name: "galaxy-append-20k",
        why: "durable Galaxy 20k rows, fsynced append then query: the partition cache is patched and rebuilt and paq-store is written on the hot path",
        run: galaxy_append::run,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A table, a query mix and a pinned route, driven through
/// `PackageDb::execute_with` by one caller that waits for each answer.
pub struct InProc {
    pub relation: &'static str,
    pub table: Table,
    pub queries: Vec<Query>,
    pub route: Route,
    pub config: DbConfig,
}

/// A database whose caches are warm, and the package each query
/// returned while warming: every later answer must equal it.
pub struct Warm {
    pub db: PackageDb,
    pub table: Arc<Table>,
    pub reference: Vec<Package>,
}

impl InProc {
    /// Generated table in hand → first warm query possible: register,
    /// then each query once (the first SKETCHREFINE query builds the
    /// partitioning every later one reuses).
    fn set_up_once(&self, report: &mut Report) -> (Warm, Duration) {
        let table = self.table.clone();
        let quarter_budget = solver_config().time_limit / 4;
        let start = Instant::now();
        let db = PackageDb::with_config(self.config.clone());
        db.register_table(self.relation, table);
        let mut reference = Vec::with_capacity(self.queries.len());
        for q in &self.queries {
            let began = Instant::now();
            match db.execute_with(&q.ast, self.route) {
                Ok(exec) => {
                    if began.elapsed() > quarter_budget {
                        report.fail(format!(
                            "{}: needs over a quarter of the solver budget",
                            q.name
                        ));
                    }
                    reference.push(exec.package);
                }
                Err(e) => {
                    report.fail(format!("{}: infeasible in set-up: {e}", q.name));
                    reference.push(Package::empty());
                }
            }
        }
        let took = start.elapsed();
        let table = db.table(self.relation).expect("table was just registered");
        (
            Warm {
                db,
                table,
                reference,
            },
            took,
        )
    }

    pub fn set_up(&self, report: &mut Report) -> Warm {
        let (warm, setup_s) = repeat_set_up(|| Ok::<_, Infallible>(self.set_up_once(report)))
            .unwrap_or_else(|e| match e {});
        report.end_to_end.push(metric("setup_s", setup_s, "s"));
        for (q, package) in self.queries.iter().zip(&warm.reference) {
            report.check(answers(package, &q.ast, &warm.table), || {
                format!("{}: set-up package does not satisfy the query", q.name)
            });
        }
        warm
    }

    /// Whole passes over the mix, in an order drawn from the seed, until
    /// `seconds` of query time have been spent and the 95th percentile
    /// has its ten samples beyond it. Each answer is checked outside the
    /// timed interval.
    pub fn closed_loop(&self, warm: &Warm, seed: u64, seconds: f64, report: &mut Report) {
        let mut rng = Rng::new(seed);
        let mut order: Vec<usize> = (0..self.queries.len()).collect();
        let mut latencies_ms = Vec::new();
        let mut busy = Duration::ZERO;
        // On a host too slow for 200 samples in twice the time, report
        // what there is; the sample count is printed.
        while busy.as_secs_f64() < seconds
            || (latencies_ms.len() < MIN_SAMPLES && busy.as_secs_f64() < 2.0 * seconds)
        {
            rng.shuffle(&mut order);
            for &qi in &order {
                let q = &self.queries[qi];
                let start = Instant::now();
                let result = warm.db.execute_with(&q.ast, self.route);
                let took = start.elapsed();
                busy += took;
                latencies_ms.push(ms(took));
                match result {
                    Ok(exec) => {
                        report.check(answers(&exec.package, &q.ast, &warm.table), || {
                            format!("{}: package does not satisfy the query", q.name)
                        });
                        if exec.package != warm.reference[qi] {
                            report.fail(format!("{}: package differs from the first pass", q.name));
                        }
                    }
                    Err(e) => report.check(false, || format!("{}: {e}", q.name)),
                }
            }
        }
        report.end_to_end.push(metric(
            "throughput_qps",
            latencies_ms.len() as f64 / busy.as_secs_f64(),
            "1/s",
        ));
        report.push_latencies(&mut latencies_ms);
    }

    /// Set up, run the closed loop (a quarter as long when traced), and
    /// in a traced run measure the layers.
    pub fn run(&self, params: &Params, report: &mut Report) -> Warm {
        let warm = self.set_up(report);
        self.closed_loop(&warm, params.seed, params.body_seconds(), report);
        warm
    }
}
