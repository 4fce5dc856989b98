//! `check`: the five workloads at 1/50 of their size, in seconds, to
//! show that the benchmark itself works: every metric present and
//! finite, p50 ≤ p95, nothing failed, and `BENCHMARK.json` in step with
//! the code. `cargo test` runs it.

use std::path::Path;

use crate::common::{peak_rss_mb, Params, Report};
use crate::json::Json;
use crate::layers::PER_LAYER;
use crate::metrics::{applies, driver_metrics, Bound, END_TO_END};
use crate::workloads::WORKLOADS;

const SHRINK: usize = 50;
const SECONDS: f64 = 0.6;

fn check_report(workload: &str, report: &Report, trace: bool) -> Result<(), String> {
    let fail = |what: String| Err(format!("{workload} (trace {}): {what}", trace as u8));
    if !report.correct() || report.attempted == 0 {
        return fail(format!(
            "{} of {} operations failed: {:?}",
            report.failed, report.attempted, report.failures
        ));
    }
    let needed: Vec<&str> = if trace {
        PER_LAYER.iter().map(|(name, _, _)| *name).collect()
    } else {
        END_TO_END
            .iter()
            // `run_one` adds these two after the workload returns.
            .filter(|m| applies(m, workload) && !["peak_rss_mb", "failed_share"].contains(&m.name))
            .map(|m| m.name)
            .collect()
    };
    for name in needed {
        match report.value(name) {
            None => return fail(format!("{name} is missing")),
            Some(v) if !v.is_finite() => return fail(format!("{name} is {v}")),
            Some(_) => {}
        }
    }
    if !trace {
        let (p50, p95) = (
            report.value("query_p50_ms").unwrap_or(f64::NAN),
            report.value("query_p95_ms").unwrap_or(f64::NAN),
        );
        if !(p50 > 0.0 && p50 <= p95) {
            return fail(format!("p50 {p50} and p95 {p95} are out of order"));
        }
        for name in ["throughput_qps", "setup_s"] {
            if !report.value(name).is_some_and(|v| v > 0.0) {
                return fail(format!("{name} is not positive"));
            }
        }
    }
    Ok(())
}

/// `BENCHMARK.json` must list the workloads and metrics the code has,
/// word for word.
fn check_manifest(manifest: &Json) -> Result<(), String> {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]));
    let end_to_end = driver_metrics().map(|m| {
        let Bound::Share(bound) = m.bound else {
            unreachable!("the driver's bounds are shares")
        };
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better)),
            ("bound", Json::Num(bound)),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|(name, unit, better)| {
        Json::obj([
            ("name", Json::str(*name)),
            ("unit", Json::str(*unit)),
            ("better", Json::str(*better)),
        ])
    });
    for (key, code) in [
        ("workloads", Json::Arr(workloads.collect())),
        ("end_to_end", Json::Arr(end_to_end.collect())),
        ("per_layer", Json::Arr(per_layer.collect())),
    ] {
        if manifest.get(key) != Some(&code) {
            return Err(format!(
                "BENCHMARK.json: {key} differs from the code's, which is {}",
                code.render()
            ));
        }
    }
    Ok(())
}

pub fn run() -> Result<(), String> {
    for trace in [false, true] {
        for workload in &WORKLOADS {
            let params = Params {
                seed: 1,
                seconds: SECONDS,
                trace,
                shrink: SHRINK,
            };
            let started = std::time::Instant::now();
            let report = (workload.run)(&params);
            check_report(workload.name, &report, trace)?;
            println!(
                "check {:<20} trace {}: {} operations, {:.1} s",
                workload.name,
                trace as u8,
                report.attempted,
                started.elapsed().as_secs_f64()
            );
        }
    }
    if !peak_rss_mb().is_finite() {
        return Err("VmHWM cannot be read".into());
    }
    // From the repository root, or from the benchmark's own directory.
    for path in ["BENCHMARK.json", "../BENCHMARK.json"] {
        if Path::new(path).is_file() {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            check_manifest(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)?;
            println!("check {path} names the code's workloads and metrics");
            break;
        }
    }
    println!("check passed");
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn check_passes() {
        super::run().unwrap();
    }
}
