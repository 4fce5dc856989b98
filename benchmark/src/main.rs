//! `paq-benchmark`: five workloads, the end-to-end metrics a user of the
//! package-query system sees, and a traced run that measures each layer
//! from outside. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! paq-benchmark run --seed N [--seconds S] [--repeat K] [--out FILE]   every workload, each in a child process
//! paq-benchmark run --workload NAME --seed N --seconds S --trace 0|1   one workload in this process (the driver's form)
//! paq-benchmark trace --seed N                                        `run --trace 1`
//! paq-benchmark compare A.json B.json
//! paq-benchmark check
//! ```

mod check;
mod common;
mod compare;
mod json;
mod layers;
mod metrics;
mod openloop;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use common::{metric, nproc, out_dir, peak_rss_mb, Metric, Params, Report};
use json::Json;
use metrics::{applies, driver_metrics, Bound, END_TO_END};
use workloads::{Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: u64,
    out: Option<String>,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        out: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if parsed.seconds.is_nan() || parsed.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                parsed.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            "--out" => parsed.out = Some(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            file => parsed.files.push(file.to_owned()),
        }
    }
    Ok(parsed)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// Run one workload in this process and print its report; the last line
/// is the result object the driver reads.
fn run_one(workload: &Workload, params: &Params) -> bool {
    println!(
        "workload {} seed {} seconds {} trace {}",
        workload.name, params.seed, params.seconds, params.trace as u8
    );
    let mut report: Report = (workload.run)(params);
    report
        .end_to_end
        .push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
    report.end_to_end.push(metric(
        "failed_share",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    ));

    let (wanted, measured): (Vec<&str>, &[Metric]) = if params.trace {
        let names = layers::PER_LAYER.iter().map(|(name, _, _)| *name);
        (names.collect(), &report.layers)
    } else {
        let names = END_TO_END.iter().filter(|m| applies(m, workload.name));
        (names.map(|m| m.name).collect(), &report.end_to_end)
    };
    let shown: Vec<Metric> = wanted
        .iter()
        .filter_map(|name| measured.iter().find(|m| m.name == *name).cloned())
        .collect();
    if shown.len() != wanted.len() || shown.iter().any(|m| !m.value.is_finite()) {
        report.fail("a metric is missing or not a finite number".into());
    }
    for m in &shown {
        println!("  {:<38} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("  note: {note}");
    }
    for failure in &report.failures {
        println!("  FAILED: {failure}");
    }
    println!(
        "  attempted {} failed {} correct {}",
        report.attempted,
        report.failed,
        report.correct()
    );

    let counts = [
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
    ];
    // Everything, for `run` over all workloads to collect.
    let mut full = vec![
        ("workload", Json::str(workload.name)),
        ("seed", Json::Num(params.seed as f64)),
    ];
    full.extend(counts.clone());
    full.push(("metrics", metrics_json(&shown)));
    println!("{}", Json::obj(full).render());
    // What the driver reads: the metrics `BENCHMARK.json` names.
    let for_driver: Vec<Metric> = if params.trace {
        shown
    } else {
        driver_metrics()
            .filter_map(|m| shown.iter().find(|s| s.name == m.name).cloned())
            .collect()
    };
    let mut line = counts.to_vec();
    line.push(("metrics", metrics_json(&for_driver)));
    println!("{}", Json::obj(line).render());
    report.correct()
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into())
}

/// Run every workload `repeat` times (seed, seed + 1, …), each run in a
/// fresh child process of this binary, and write the values to a file
/// `compare` reads.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut per_workload = Vec::new();
    for workload in &WORKLOADS {
        // metric name → (unit, values)
        let mut collected: Vec<(String, String, Vec<f64>)> = Vec::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for rep in 0..args.repeat {
            let output = Command::new(&exe)
                .args(["run", "--workload", workload.name])
                .args(["--seed", &(args.seed + rep).to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("starting {}: {e}", workload.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            all_correct &= output.status.success();
            let full = stdout
                .lines()
                .find(|l| l.starts_with("{\"workload\""))
                .ok_or_else(|| format!("{}: no result line", workload.name))
                .and_then(Json::parse)?;
            attempted += full.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            failed += full.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            for (name, m) in full.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                match collected.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, _, values)) => values.push(value),
                    None => collected.push((name.clone(), unit.to_owned(), vec![value])),
                }
            }
        }
        per_workload.push((workload.name, attempted, failed, collected));
    }

    println!();
    println!(
        "{:<20} {:<38} {:>14} {:<7} {:>8}",
        "workload", "metric", "median", "unit", "spread"
    );
    let mut workloads_json = Vec::new();
    for (name, attempted, failed, collected) in &per_workload {
        let mut metrics_json = Vec::new();
        for (metric_name, unit, values) in collected {
            println!(
                "{:<20} {:<38} {:>14.6} {:<7} {:>7.1}%",
                name,
                metric_name,
                stats::median(values),
                unit,
                100.0 * stats::spread(values)
            );
            let mut fields = vec![
                ("name", Json::str(metric_name.clone())),
                ("unit", Json::str(unit.clone())),
            ];
            if let Some(m) = END_TO_END.iter().find(|m| m.name == metric_name) {
                fields.push(("better", Json::str(m.better)));
                fields.push((
                    "bound",
                    match m.bound {
                        Bound::Share(s) => Json::Num(s),
                        Bound::Absolute(d) => Json::str(format!("+{d}")),
                    },
                ));
            }
            fields.push((
                "values",
                Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
            ));
            metrics_json.push(Json::obj(fields));
        }
        workloads_json.push(Json::obj([
            ("name", Json::str(*name)),
            ("attempted", Json::Num(*attempted)),
            ("failed", Json::Num(*failed)),
            ("metrics", Json::Arr(metrics_json)),
        ]));
    }
    let doc = Json::obj([
        // This benchmark measures; it claims nothing.
        ("claim", Json::Null),
        ("seed", Json::Num(args.seed as f64)),
        ("repeat", Json::Num(args.repeat as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        (
            "host",
            Json::obj([
                ("nproc", Json::Num(nproc() as f64)),
                ("kernel", Json::str(kernel())),
            ]),
        ),
        ("workloads", Json::Arr(workloads_json)),
    ]);
    let path = args.out.clone().map_or_else(
        || {
            out_dir().join(format!(
                "{}-seed{}.json",
                if args.trace { "trace" } else { "run" },
                args.seed
            ))
        },
        Into::into,
    );
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nclaim: null (this benchmark measures; it claims no gain)");
    println!("written to {}", path.display());
    Ok(all_correct)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn dispatch(argv: &[String]) -> Result<bool, String> {
    let Some((command, rest)) = argv.split_first() else {
        return Err("usage: paq-benchmark run|trace|compare|check [options]".into());
    };
    let mut args = parse_args(rest)?;
    match command.as_str() {
        "run" | "trace" => {
            args.trace |= command == "trace";
            match &args.workload {
                Some(name) => {
                    let workload = workloads::find(name).ok_or_else(|| {
                        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload {name}; there are {}", known.join(", "))
                    })?;
                    let params = Params {
                        seed: args.seed,
                        seconds: args.seconds,
                        trace: args.trace,
                        shrink: 1,
                    };
                    Ok(run_one(workload, &params))
                }
                None => run_all(&args),
            }
        }
        "compare" => match args.files.as_slice() {
            [a, b] => compare::compare(&read_json(a)?, &read_json(b)?),
            _ => Err("usage: paq-benchmark compare A.json B.json".into()),
        },
        "check" => check::run().map(|()| true),
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("paq-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
