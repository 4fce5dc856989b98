//! Environment-driven experiment configuration.

use std::time::Duration;

use paq_solver::SolverConfig;

/// `raw` is the variable's value when it is set. Unset means the
/// default; set but unparsable is an error naming variable and value, so
/// a typo (`PAQ_SCALE=20k`) cannot run a figure at the default scale.
fn parse_u64(name: &str, raw: Option<&str>, default: u64) -> Result<u64, String> {
    match raw {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|e| format!("{name}={v:?} is not an unsigned integer: {e}")),
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    let raw = match std::env::var(name) {
        Ok(v) => Some(v),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(v)) => panic!("{name}={v:?} is not valid unicode"),
    };
    parse_u64(name, raw.as_deref(), default).unwrap_or_else(|e| panic!("{e}"))
}

/// Base Galaxy row count (`PAQ_SCALE`, default 20 000). The paper's
/// Galaxy view has 5.5M rows; the default keeps full sweeps in minutes
/// on a laptop while preserving the relative behavior of the methods.
pub fn galaxy_rows() -> usize {
    env_u64("PAQ_SCALE", 20_000) as usize
}

/// TPC-H pre-joined row count: the paper's ratio (17.5M / 5.5M ≈ 3.2×
/// the Galaxy size).
pub fn tpch_rows() -> usize {
    galaxy_rows() * 16 / 5
}

/// Experiment RNG seed (`PAQ_SEED`).
pub fn seed() -> u64 {
    env_u64("PAQ_SEED", paq_datagen::DEFAULT_SEED)
}

/// REFINE worker threads (`PAQ_THREADS`, default 1 = the sequential
/// path). Any setting produces identical packages — wave-based REFINE
/// only consumes speculative results whose bounds match the sequential
/// schedule — so this knob trades CPUs for wall-clock, nothing else.
pub fn refine_threads() -> usize {
    env_u64("PAQ_THREADS", 1).max(1) as usize
}

/// The black-box solver budget used by all experiments
/// (`PAQ_SOLVER_TIME_MS`, `PAQ_SOLVER_MEM_MB`). Mirrors the paper's
/// CPLEX setup — 512MB working memory, 1h limit — scaled to laptop
/// experiments; exceeding either budget is a DIRECT failure.
pub fn solver_config() -> SolverConfig {
    let time_ms = env_u64("PAQ_SOLVER_TIME_MS", 20_000);
    let mem_mb = env_u64("PAQ_SOLVER_MEM_MB", 64);
    SolverConfig::default()
        .with_time_limit(Duration::from_millis(time_ms))
        .with_memory_limit(mem_mb as usize * 1024 * 1024)
        // CPLEX's default relative MIP gap; the paper's "emphasize
        // optimality" setting keeps it (it only dampens heuristics).
        .with_relative_gap(1e-4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_covers_unset_set_and_malformed() {
        assert_eq!(parse_u64("PAQ_SCALE", None, 20_000), Ok(20_000));
        assert_eq!(parse_u64("PAQ_SCALE", Some("500"), 20_000), Ok(500));
        for bad in ["20k", "2e4", "-1", ""] {
            let err = parse_u64("PAQ_SCALE", Some(bad), 20_000).unwrap_err();
            assert!(
                err.contains("PAQ_SCALE") && err.contains(&format!("{bad:?}")),
                "error names variable and value: {err}"
            );
        }
    }

    #[test]
    fn defaults_without_env() {
        // Other tests may set these; only check invariants.
        assert!(galaxy_rows() >= 1);
        assert_eq!(tpch_rows(), galaxy_rows() * 16 / 5);
        let cfg = solver_config();
        assert!(cfg.time_limit >= Duration::from_millis(1));
        assert!(cfg.memory_limit >= 1024);
        assert!(refine_threads() >= 1);
    }
}
