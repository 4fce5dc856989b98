//! Prometheus-style text exposition for a [`RegistrySnapshot`]:
//! [`render`] produces the classic `# TYPE` / sample-line format.
//!
//! Mapping choices:
//!
//! * metric names are sanitized (`.` and `-` become `_`) and prefixed
//!   with `paq_`, so `server.queue_wait` exports as
//!   `paq_server_queue_wait`;
//! * histograms use the standard cumulative `_bucket{le="…"}` /
//!   `_sum` / `_count` triple with nanosecond `le` bounds (one per
//!   occupied log2 bucket, plus `+Inf`), and additionally emit exact
//!   `_min` / `_max` gauges so a reader can clamp quantiles the way
//!   [`crate::HistogramSnapshot`] does.

use crate::registry::RegistrySnapshot;
use std::fmt::Write as _;

/// `server.queue_wait` → `paq_server_queue_wait`.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("paq_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Render `snapshot` in Prometheus text exposition format.
pub fn render(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, h) in &snapshot.histograms {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for &(index, count) in &h.buckets {
            cumulative = cumulative.saturating_add(count);
            let le = crate::histogram::bucket_upper(index as usize);
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
        let _ = writeln!(out, "{name}_min {}", h.min);
        let _ = writeln!(out, "{name}_max {}", h.max);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> RegistrySnapshot {
        let r = Registry::new();
        r.add("server.requests", 12);
        r.incr("db.cache.hit");
        r.set_gauge("db.tables", 3);
        for v in [150u64, 900, 2_100, 2_500, 70_000] {
            r.observe_nanos("server.handle", v);
        }
        r.observe_nanos("refine.wave", 0);
        r.snapshot()
    }

    #[test]
    fn render_emits_typed_samples_and_cumulative_buckets() {
        let text = render(&sample_snapshot());
        let lines: Vec<&str> = text.lines().collect();
        let after = |header: &str| {
            let at = lines.iter().position(|l| *l == header);
            &lines[at.unwrap_or_else(|| panic!("{header:?} missing in:\n{text}")) + 1..]
        };
        assert_eq!(
            after("# TYPE paq_server_requests counter")[0],
            "paq_server_requests 12"
        );
        assert_eq!(after("# TYPE paq_db_tables gauge")[0], "paq_db_tables 3");
        // 2 100 and 2 500 share a log2 bucket: four occupied buckets with
        // cumulative counts, then +Inf and the exact extremes.
        assert_eq!(
            &after("# TYPE paq_server_handle histogram")[..9],
            [
                "paq_server_handle_bucket{le=\"255\"} 1",
                "paq_server_handle_bucket{le=\"1023\"} 2",
                "paq_server_handle_bucket{le=\"4095\"} 4",
                "paq_server_handle_bucket{le=\"131071\"} 5",
                "paq_server_handle_bucket{le=\"+Inf\"} 5",
                "paq_server_handle_sum 75650",
                "paq_server_handle_count 5",
                "paq_server_handle_min 150",
                "paq_server_handle_max 70000",
            ]
        );
    }

    #[test]
    fn sanitize_maps_dots_to_underscores() {
        assert_eq!(sanitize("server.queue_wait"), "paq_server_queue_wait");
        assert_eq!(sanitize("a-b.c"), "paq_a_b_c");
    }
}
