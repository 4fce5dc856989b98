//! Render `BENCH_refine.json` as a GitHub-flavored-markdown perf
//! report, for appending to `$GITHUB_STEP_SUMMARY` — the per-commit
//! perf trajectory readable in the Actions UI without downloading the
//! artifact.
//!
//! Usage: `bench_summary [path]` (default `BENCH_refine.json`); the
//! markdown goes to stdout.
//!
//! Top-level sections this binary doesn't know how to render are
//! warn-listed on stderr instead of silently dropped: a new bench
//! section that lands without a renderer here would otherwise vanish
//! from the step summary and nobody would notice the gap.

use paq_bench::Json;

/// Every top-level key this renderer understands. A fresh artifact key
/// outside this list triggers the unknown-section warning below — the
/// reminder to teach this binary (and `bench_gate`) about it.
const KNOWN_SECTIONS: &[&str] = &[
    "bench",
    "dataset",
    "rows",
    "seed",
    "groups",
    "tau",
    "threads",
    "host_cpus",
    "note",
    "reps",
    "queries",
    "direct",
    "server",
    "observability",
    "router",
    "recovery",
    "faults",
    "maintenance",
    "serving",
    "total_seq_refine_ms",
    "total_par_refine_ms",
    "total_speedup",
    "packages_identical",
];

fn num(json: &Json, key: &str) -> f64 {
    json.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn text<'j>(json: &'j Json, key: &str) -> &'j str {
    json.get(key).and_then(Json::as_str).unwrap_or("?")
}

fn flag(json: &Json, key: &str) -> &'static str {
    match json.get(key).and_then(Json::as_bool) {
        Some(true) => "✅",
        Some(false) => "❌",
        None => "—",
    }
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_refine.json".to_owned());
    let raw = match std::fs::read_to_string(&path) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("bench_summary: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let json = match Json::parse(&raw) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("bench_summary: {path} is not valid JSON: {e}");
            std::process::exit(1);
        }
    };

    if let Json::Obj(map) = &json {
        let unknown: Vec<&str> = map
            .keys()
            .map(String::as_str)
            .filter(|key| !KNOWN_SECTIONS.contains(key))
            .collect();
        if !unknown.is_empty() {
            eprintln!(
                "bench_summary: WARNING — {path} carries sections this renderer does not \
                 know and will not show: {}",
                unknown.join(", ")
            );
        }
    }

    println!("## REFINE perf trajectory (`{path}`)");
    println!();
    println!(
        "dataset **{}** · {} rows · {} groups (τ = {}) · threads {} on {} host CPU(s) \
         · seed {} · best of {} reps · packages identical {}",
        text(&json, "dataset"),
        num(&json, "rows"),
        num(&json, "groups"),
        num(&json, "tau"),
        num(&json, "threads"),
        num(&json, "host_cpus"),
        num(&json, "seed"),
        num(&json, "reps"),
        flag(&json, "packages_identical"),
    );
    println!();

    println!("### REFINE: sequential vs wave-parallel");
    println!();
    println!(
        "| query | groups refined | seq (ms) | par (ms) | speedup | waves | requeues | identical |"
    );
    println!("|---|---:|---:|---:|---:|---:|---:|:---:|");
    for q in json.get("queries").and_then(Json::as_arr).unwrap_or(&[]) {
        println!(
            "| {} | {} | {:.3} | {:.3} | {:.2}× | {} | {} | {} |",
            text(q, "name"),
            num(q, "groups_refined"),
            num(q, "seq_refine_ms"),
            num(q, "par_refine_ms"),
            num(q, "speedup"),
            num(q, "waves"),
            num(q, "conflict_requeues"),
            flag(q, "identical"),
        );
    }
    println!(
        "| **total** |  | **{:.3}** | **{:.3}** | **{:.2}×** |  |  |  |",
        num(&json, "total_seq_refine_ms"),
        num(&json, "total_par_refine_ms"),
        num(&json, "total_speedup"),
    );
    println!();

    println!("### DIRECT (monolithic ILP on a table prefix)");
    println!();
    println!("| query | rows | evaluate (ms) | cardinality |");
    println!("|---|---:|---:|---:|");
    for d in json.get("direct").and_then(Json::as_arr).unwrap_or(&[]) {
        println!(
            "| {} | {} | {:.3} | {} |",
            text(d, "name"),
            num(d, "rows"),
            num(d, "evaluate_ms"),
            num(d, "cardinality"),
        );
    }
    println!();

    if let Some(server) = json.get("server") {
        println!("### Server round-trip ({})", text(server, "transport"));
        println!();
        println!(
            "cold **{:.3} ms** (lazy partitioning build) · warm min **{:.3} ms** / mean \
             **{:.3} ms** · server evaluate min **{:.3} ms** · {} requests",
            num(server, "cold_roundtrip_ms"),
            num(server, "warm_min_roundtrip_ms"),
            num(server, "warm_mean_roundtrip_ms"),
            num(server, "server_evaluate_min_ms"),
            num(server, "requests"),
        );
        println!();
    }

    if let Some(obs) = json.get("observability") {
        println!("### Observability (server-side wire `Metrics` percentiles)");
        println!();
        println!("| phase | samples | p50 (ms) | p90 (ms) | p99 (ms) |");
        println!("|---|---:|---:|---:|---:|");
        for (label, key) in [("queue wait", "queue_wait"), ("handle", "handle")] {
            let h = obs.get(key).unwrap_or(&Json::Null);
            println!(
                "| {label} | {} | {:.4} | {:.4} | {:.4} |",
                num(h, "count"),
                num(h, "p50_ms"),
                num(h, "p90_ms"),
                num(h, "p99_ms"),
            );
        }
        println!();
        println!(
            "warm min round-trip obs-on **{:.3} ms** vs obs-off **{:.3} ms** \
             (overhead {:+.2}%) · Prometheus exposition round-trip {}",
            num(obs, "obs_on_warm_min_roundtrip_ms"),
            num(obs, "obs_off_warm_min_roundtrip_ms"),
            num(obs, "obs_overhead_pct"),
            flag(obs, "prometheus_roundtrip_ok"),
        );
        println!();
    }

    if let Some(recovery) = json.get("recovery") {
        println!("### Durable store recovery (snapshot + WAL replay)");
        println!();
        println!(
            "cold boot **{:.3} ms** (register + cold partitioning + snapshot) · recover open \
             **{:.3} ms** ({} replay threads) · warm query **{:.3} ms** (cache hit {}) · store \
             **{:.1} KiB** · recovered {} tables / {} partitionings / {} telemetry samples",
            num(recovery, "cold_boot_ms"),
            num(recovery, "recover_open_ms"),
            num(recovery, "replay_threads"),
            num(recovery, "warm_query_ms"),
            flag(recovery, "warm_hit"),
            num(recovery, "store_bytes") / 1024.0,
            num(recovery, "tables_recovered"),
            num(recovery, "partitionings_recovered"),
            num(recovery, "telemetry_recovered"),
        );
        println!();
    }

    if let Some(faults) = json.get("faults") {
        println!("### Fault injection (retrying client over a flaky pipe)");
        println!();
        println!(
            "{} injected · {} surfaced typed · {} retried · {} reconnects · {} deduped by \
             token · {} handler panics · rows {}/{} · converged {}",
            num(faults, "injected"),
            num(faults, "surfaced"),
            num(faults, "retried"),
            num(faults, "reconnects"),
            num(faults, "deduped"),
            num(faults, "handler_panics"),
            num(faults, "rows_final"),
            num(faults, "rows_expected"),
            flag(faults, "converged"),
        );
        println!();
    }

    if let Some(m) = json.get("maintenance") {
        println!("### Partition maintenance (mixed append/query stream)");
        println!();
        println!(
            "{} base rows + {} appends (threshold {}) · maintained hit rate **{:.1}%** \
             (hits {} / misses {} / invalidations {}) · p50 **{:.3} ms** · absorbed {} / \
             patched {} / merges {} · identical to cold rebuild {}",
            num(m, "base_rows"),
            num(m, "appends"),
            num(m, "delta_threshold"),
            num(m, "cache_hit_rate") * 100.0,
            num(m, "hits"),
            num(m, "misses"),
            num(m, "invalidations"),
            num(m, "p50_query_ms"),
            num(m, "absorbed_appends"),
            num(m, "patched_entries"),
            num(m, "merges"),
            flag(m, "identical"),
        );
        if let Some(b) = m.get("baseline") {
            println!();
            println!(
                "baseline (invalidate-on-append): hit rate **{:.1}%** (hits {} / misses {} / \
                 invalidations {}) · p50 **{:.3} ms**",
                num(b, "cache_hit_rate") * 100.0,
                num(b, "hits"),
                num(b, "misses"),
                num(b, "invalidations"),
                num(b, "p50_query_ms"),
            );
        }
        println!();
    }

    if let Some(serving) = json.get("serving") {
        println!("### High-throughput serving (pipelined v7, fair vs FIFO admission)");
        println!();
        println!(
            "{} workers over {} · {} interactive clients × {} requests against a {}-deep \
             bulk backlog",
            num(serving, "workers"),
            text(serving, "transport"),
            num(serving, "interactive_clients"),
            num(serving, "interactive_requests"),
            num(serving, "bulk_outstanding"),
        );
        println!();
        println!(
            "| admission | interactive p50 (ms) | interactive p99 (ms) | served | bulk p50 (ms) \
             | bulk p99 (ms) | served | shed |"
        );
        println!("|---|---:|---:|---:|---:|---:|---:|---:|");
        for (label, key) in [("weighted-fair", "fair"), ("FIFO", "fifo")] {
            let mode = serving.get(key).unwrap_or(&Json::Null);
            let class = |name: &str| mode.get(name).cloned().unwrap_or(Json::Null);
            let (interactive, bulk) = (class("interactive"), class("bulk"));
            println!(
                "| {label} | {:.3} | {:.3} | {} | {:.3} | {:.3} | {} | {} |",
                num(&interactive, "p50_ms"),
                num(&interactive, "p99_ms"),
                num(&interactive, "count"),
                num(&bulk, "p50_ms"),
                num(&bulk, "p99_ms"),
                num(&bulk, "count"),
                num(mode, "shed"),
            );
        }
        println!();
        if let Some(probe) = serving.get("shed_probe") {
            println!(
                "shed probe: {} bulk submissions into a per-client quota of {} — {} completed, \
                 **{} answered with typed `Busy`** ({} shed server-side)",
                num(probe, "submitted"),
                num(probe, "quota"),
                num(probe, "completed"),
                num(probe, "typed_busy"),
                num(probe, "server_shed"),
            );
        }
        println!(
            "columnar `RegisterTable` frame **{:.1} KiB** ({} rows)",
            num(serving, "columnar_register_bytes") / 1024.0,
            num(serving, "columnar_rows"),
        );
        println!();
    }

    if let Some(router) = json.get("router") {
        println!("### Cost-based router");
        println!();
        println!(
            "telemetry: {} DIRECT / {} SKETCHREFINE samples · {} model / {} fallback \
             decisions · **{}/{} probes rerouted vs the static threshold, {} with lower \
             observed cost** · mean |prediction error| {:.1}%",
            num(router, "direct_samples"),
            num(router, "sketchrefine_samples"),
            num(router, "model_decisions"),
            num(router, "fallback_decisions"),
            num(router, "rerouted"),
            router
                .get("probes")
                .and_then(Json::as_arr)
                .map(<[Json]>::len)
                .unwrap_or(0),
            num(router, "improved"),
            num(router, "mean_prediction_error_pct"),
        );
        println!();
        println!(
            "| probe | rows | static | routed | decided by | predicted D (ms) | predicted SR (ms) \
             | observed (ms) | static observed (ms) | rerouted won |"
        );
        println!("|---|---:|---|---|---|---:|---:|---:|---:|:---:|");
        for p in router.get("probes").and_then(Json::as_arr).unwrap_or(&[]) {
            let opt = |key: &str| {
                p.get(key)
                    .and_then(Json::as_f64)
                    .map(|v| format!("{v:.3}"))
                    .unwrap_or_else(|| "—".to_owned())
            };
            println!(
                "| {} | {} | {} | {} | {} | {} | {} | {:.3} | {} | {} |",
                text(p, "name"),
                num(p, "rows"),
                text(p, "static_route"),
                text(p, "routed"),
                text(p, "decided_by"),
                opt("predicted_direct_ms"),
                opt("predicted_sketchrefine_ms"),
                num(p, "observed_ms"),
                opt("static_observed_ms"),
                flag(p, "improved"),
            );
        }
        println!();
    }
}
