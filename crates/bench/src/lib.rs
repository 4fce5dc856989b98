#![warn(missing_docs)]

//! # paq-bench — the experiment harness
//!
//! Reproduces every table and figure of the paper's evaluation (§5).
//! Each `src/bin/figN_*.rs` binary regenerates one figure/table as an
//! aligned text table; each binary's module docs name the figure it
//! reproduces, and `PAQ_SCALE` shrinks any of them to a smoke run.
//! Timings that gate a change come from `benchmark/` (its README), not
//! from here.
//!
//! ## Environment knobs
//!
//! | variable | default | meaning |
//! |----------|---------|---------|
//! | `PAQ_SCALE` | `20000` | base row count of the Galaxy dataset (TPC-H gets ~3.2×) |
//! | `PAQ_SEED` | `0x5D55AA96` | RNG seed for data + workload synthesis (experiments) |
//! | `PAQ_SOLVER_TIME_MS` | `20000` | per-solve wall-clock budget (the paper's 1h, scaled down) |
//! | `PAQ_SOLVER_MEM_MB` | `64` | per-solve memory budget (the paper's 512MB working memory, scaled down) |
//! | `PAQ_THREADS` | `1` | REFINE worker threads (wave-based parallel REFINE; identical packages at any setting) |
//!
//! A variable that is set but does not parse as an unsigned integer is
//! a panic naming it, not a silent default.
//!
//! The budgets matter: they are how DIRECT's failures on the hard
//! queries (paper Fig. 5, Galaxy Q2/Q6) reproduce at laptop scale.

pub mod config;
pub mod experiments;
pub mod report;
pub mod runner;

pub use config::{galaxy_rows, refine_threads, seed, solver_config, tpch_rows};
pub use report::TextTable;
pub use runner::{
    effective_rows, fraction_mask, prepare_galaxy, prepare_tpch, run_direct, run_sketchrefine,
    with_non_null_guards, EvalOutcome, PreparedDataset,
};
