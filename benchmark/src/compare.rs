//! `compare A.json B.json`: one row per workload and end-to-end metric.
//! A is the base, B the candidate. A metric whose runs spread wider
//! than its bound is `unresolved`, never `ok`.

use crate::json::Json;
use crate::metrics::{Bound, END_TO_END};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric from the values of the base runs and of the
/// candidate runs.
pub fn judge(base: &[f64], candidate: &[f64], better: &str, bound: Bound) -> Verdict {
    let (a, b) = (stats::median(base), stats::median(candidate));
    let worse_by = if better == "lower" { b - a } else { a - b };
    let spread = stats::spread(base).max(stats::spread(candidate));
    let (limit, spread_limit) = match bound {
        Bound::Share(share) => (share * a.abs(), share),
        // An absolute bound as a share of the base, for the spread.
        Bound::Absolute(distance) => (distance, distance / a.abs().max(f64::MIN_POSITIVE)),
    };
    if spread > spread_limit {
        Verdict::Unresolved
    } else if worse_by > limit {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn values_of(run: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    run.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?
        .get("metrics")?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn workloads_of(run: &Json) -> Vec<String> {
    run.get("workloads")
        .and_then(Json::as_arr)
        .map(|ws| {
            ws.iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
                .collect()
        })
        .unwrap_or_default()
}

/// Print the table; `Ok(true)` when nothing regressed.
pub fn compare(base: &Json, candidate: &Json) -> Result<bool, String> {
    let workloads = workloads_of(base);
    if workloads.is_empty() {
        return Err("the base file lists no workloads".into());
    }
    println!(
        "{:<20} {:<20} {:>12} {:>12} {:>20} {:>9} {:>8}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound", "spread"
    );
    let mut clean = true;
    for workload in &workloads {
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (
                values_of(base, workload, m.name),
                values_of(candidate, workload, m.name),
            ) else {
                if crate::metrics::applies(m, workload) {
                    return Err(format!("{workload}: {} is missing from a file", m.name));
                }
                continue;
            };
            if a.is_empty() || b.is_empty() {
                return Err(format!("{workload}: {} has no values", m.name));
            }
            let verdict = judge(&a, &b, m.better, m.bound);
            clean &= verdict != Verdict::Regressed;
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let bound = match m.bound {
                Bound::Share(s) => format!("{:.0}%", s * 100.0),
                Bound::Absolute(d) => format!("+{d}"),
            };
            println!(
                "{:<20} {:<20} {:>12.4} {:>12.4} {:>20} {:>9} {:>7.1}%  {}",
                workload,
                m.name,
                ma,
                mb,
                format!("{:.4} of {:.4} {}", mb / ma, ma, m.unit),
                bound,
                100.0 * stats::spread(&a).max(stats::spread(&b)),
                verdict.label()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_respects_direction_bound_and_spread() {
        let share = Bound::Share(0.10);
        assert_eq!(judge(&[10.0], &[10.9], "lower", share), Verdict::Ok);
        assert_eq!(judge(&[10.0], &[11.1], "lower", share), Verdict::Regressed);
        assert_eq!(judge(&[10.0], &[5.0], "lower", share), Verdict::Ok);
        assert_eq!(
            judge(&[100.0], &[89.0], "higher", share),
            Verdict::Regressed
        );
        assert_eq!(judge(&[100.0], &[150.0], "higher", share), Verdict::Ok);
        // Quartiles of [8, 10, 12] are 8 and 12: a 40 % spread.
        assert_eq!(
            judge(&[8.0, 10.0, 12.0], &[10.0, 10.0, 10.0], "lower", share),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&[0.0], &[0.001], "lower", Bound::Absolute(0.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&[1200.0], &[900.0], "higher", Bound::Absolute(300.0)),
            Verdict::Ok
        );
        assert_eq!(
            judge(&[1200.0], &[600.0], "higher", Bound::Absolute(300.0)),
            Verdict::Regressed
        );
    }
}
