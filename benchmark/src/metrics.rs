//! The end-to-end metrics: what a user of the system sees.

/// By how much a metric may get worse before it is a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the base value.
    Share(f64),
    /// A distance in the metric's own unit.
    Absolute(f64),
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    pub bound: Bound,
    /// The one workload that reports it; `None` when all do. The driver
    /// reads every metric from every workload, so `BENCHMARK.json`
    /// carries the metrics with `None` and `run`/`compare` carry all.
    pub only: Option<&'static str>,
}

pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: "lower",
        bound: Bound::Share(0.25),
        only: None,
    },
    EndToEnd {
        name: "query_p95_ms",
        unit: "ms",
        better: "lower",
        bound: Bound::Share(0.25),
        only: None,
    },
    EndToEnd {
        name: "throughput_qps",
        unit: "1/s",
        better: "higher",
        bound: Bound::Share(0.25),
        only: None,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: Bound::Share(0.25),
        only: None,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: Bound::Share(0.15),
        only: None,
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: "lower",
        bound: Bound::Absolute(0.0),
        only: None,
    },
    EndToEnd {
        name: "max_rate_qps",
        unit: "1/s",
        better: "higher",
        // One step of the offered rates.
        bound: Bound::Absolute(300.0),
        only: Some("galaxy-serve-12k"),
    },
    EndToEnd {
        name: "append_p50_ms",
        unit: "ms",
        better: "lower",
        bound: Bound::Share(0.25),
        only: Some("galaxy-append-20k"),
    },
    EndToEnd {
        name: "recovery_s",
        unit: "s",
        better: "lower",
        bound: Bound::Share(0.25),
        only: Some("galaxy-append-20k"),
    },
    EndToEnd {
        name: "approx_ratio_worst",
        unit: "ratio",
        better: "lower",
        bound: Bound::Absolute(1e-9),
        only: Some("galaxy-direct-20k"),
    },
];

/// The metrics the driver's result line carries: those every workload
/// reports and that are never 0 (`failed_share` travels as the line's
/// `attempted` and `failed`).
pub fn driver_metrics() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END
        .iter()
        .filter(|m| m.only.is_none() && m.name != "failed_share")
}

pub fn applies(metric: &EndToEnd, workload: &str) -> bool {
    metric.only.is_none_or(|w| w == workload)
}
