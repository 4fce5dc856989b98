//! What every workload shares: parameters, the report a workload
//! returns, seeded shuffling, and answer checking.

use std::path::PathBuf;
use std::time::Duration;

use paq_core::Package;
use paq_db::DbConfig;
use paq_lang::{parse_paql, PackageQuery};
use paq_relational::Table;
use paq_solver::SolverConfig;

use crate::stats;

/// The tables are fixed stand-ins for the paper's two fixed datasets;
/// `--seed` makes the operation stream (order of queries, appended
/// rows, assignment of queries to arrivals). Branch-and-bound time on
/// one table differs up to 30x from the next (see README, "Why the
/// tables do not change with the seed"), so a table drawn from the seed
/// would measure the instance and not the program.
pub const DATA_SEED: u64 = paq_datagen::DEFAULT_SEED;

/// Tolerance handed to `Package::satisfies` (relative to the aggregate).
pub const FEASIBILITY_TOL: f64 = 1e-6;

/// Set-up is repeated in every run, at least three times and then
/// until it has taken this long in all (at most 41 times); `setup_s` is
/// the median. A set-up of 20 ms needs the repeats to be steady; one of
/// a second does not, and cannot afford them.
const SETUP_REPEATS: std::ops::RangeInclusive<usize> = 3..=41;
const SETUP_BUDGET: Duration = Duration::from_secs(3);

/// Run `once` as the rule above says. What an earlier repeat built is
/// dropped before the next starts. Returns what the last one built and
/// the median time in seconds.
pub fn repeat_set_up<T, E>(
    mut once: impl FnMut() -> Result<(T, Duration), E>,
) -> Result<(T, f64), E> {
    let mut times = Vec::new();
    let mut total = Duration::ZERO;
    loop {
        let (built, took) = once()?;
        times.push(took.as_secs_f64());
        total += took;
        let enough = times.len() >= *SETUP_REPEATS.start() && total >= SETUP_BUDGET;
        if enough || times.len() == *SETUP_REPEATS.end() {
            return Ok((built, stats::median(&times)));
        }
        drop(built);
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    /// Table sizes are divided by this: 1 for a measurement, 50 for
    /// `check`.
    pub shrink: usize,
}

impl Params {
    /// Length of the workload's own timed phase: a traced run repeats it
    /// at a quarter of the time before it measures the layers.
    pub fn body_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 4.0
        } else {
            self.seconds
        }
    }

    pub fn rows(&self, full: usize) -> usize {
        full / self.shrink
    }

    /// Group counts shrink with the table so that τ stays what it is at
    /// full size.
    pub fn groups(&self, full: usize) -> usize {
        (full / self.shrink).max(4)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run of one workload found.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or broken invariant (capped).
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Context a reader needs beside the numbers: sample counts,
    /// generator lag, thread counts.
    pub notes: Vec<String>,
}

impl Report {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Count a failure that is not an operation of its own (a broken
    /// invariant after a reopen, say).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `query_p50_ms`, `query_p95_ms` and the sample-count note.
    pub fn push_latencies(&mut self, latencies_ms: &mut [f64]) {
        stats::sort(latencies_ms);
        self.end_to_end.push(metric(
            "query_p50_ms",
            stats::percentile(latencies_ms, 50.0),
            "ms",
        ));
        self.end_to_end.push(metric(
            "query_p95_ms",
            stats::percentile(latencies_ms, 95.0),
            "ms",
        ));
        self.notes.push(format!(
            "latency samples {} ({} beyond p95)",
            latencies_ms.len(),
            stats::beyond(latencies_ms, 95.0)
        ));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.layers)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// One query of a workload's mix.
#[derive(Debug, Clone)]
pub struct Query {
    pub name: String,
    pub text: String,
    pub ast: PackageQuery,
}

impl Query {
    pub fn new(name: impl Into<String>, text: String) -> Query {
        let ast = parse_paql(&text).unwrap_or_else(|e| panic!("workload query: {e}\n{text}"));
        Query {
            name: name.into(),
            text,
            ast,
        }
    }
}

/// Solver budget of every workload: 20 s, gap 1e-4. Set-up rejects a
/// query that needs more than a quarter of it.
pub fn solver_config() -> SolverConfig {
    SolverConfig::default()
        .with_time_limit(Duration::from_secs(20))
        .with_relative_gap(1e-4)
}

pub fn db_config(groups: usize, refine_threads: usize) -> DbConfig {
    let mut config = DbConfig {
        default_groups: groups,
        solver: solver_config(),
        // The route is pinned per call; a forced route reports the raw
        // verdict, and no silent DIRECT rescue may hide a failure.
        fallback_to_direct: false,
        ..DbConfig::default()
    };
    config.sketchrefine.threads = refine_threads;
    config
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Does `package` answer `query` on `table`?
pub fn answers(package: &Package, query: &PackageQuery, table: &Table) -> bool {
    !package.is_empty()
        && package
            .satisfies(query, table, FEASIBILITY_TOL)
            .unwrap_or(false)
}

/// SplitMix64: the order of operations and nothing else comes from it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where traces, run files and the durable database go: inside the
/// benchmark's own directory, whether the command was started from the
/// repository root or from `benchmark/`.
pub fn out_dir() -> PathBuf {
    let base = if std::path::Path::new("benchmark").is_dir() {
        "benchmark/out"
    } else {
        "out"
    };
    let dir = PathBuf::from(base);
    std::fs::create_dir_all(&dir).expect("create the benchmark's out directory");
    dir
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_permutation_fixed_by_the_seed() {
        let mut a: Vec<usize> = (0..20).collect();
        let mut b = a.clone();
        Rng::new(5).shuffle(&mut a);
        Rng::new(5).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<usize> = (0..20).collect();
        Rng::new(6).shuffle(&mut c);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..20).collect::<Vec<_>>());
    }
}
