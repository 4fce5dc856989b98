//! Wire-level observability: a `Request::Metrics` round trip must hand
//! back the *whole stack's* registry — server-side queue-wait/handle
//! latencies next to the engine's route counters and the solver's
//! figures — with percentiles readable straight off the histogram
//! snapshots, and the snapshot must render as Prometheus exposition
//! lines carrying the same figures. Also pins the
//! obs-disabled contract: the same request answers with an *empty*
//! snapshot instead of an error.

use paq_db::{DbConfig, ObsConfig, PackageDb};
use paq_relational::{DataType, Schema, Table, Value};
use paq_server::{pipe_listener, Client, Server, ServerConfig};

fn items_table(n: usize, salt: u64) -> Table {
    let schema = Schema::from_pairs(&[("value", DataType::Float), ("weight", DataType::Float)]);
    let mut t = Table::new(schema);
    let mut state = salt | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..n {
        let v = (next() % 100) as f64 / 10.0 + 1.0;
        let w = (next() % 50) as f64 / 10.0 + 0.5;
        t.push_row(vec![Value::Float(v), Value::Float(w)]).unwrap();
    }
    t
}

const QUERY: &str = "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 \
     SUCH THAT COUNT(P.*) = 2 AND SUM(P.weight) <= 1000 MAXIMIZE SUM(P.value)";

fn serve_and<F: FnOnce(&mut Client<paq_server::PipeEnd>)>(db: PackageDb, body: F) {
    let server = Server::with_config(
        db,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let (connector, listener) = pipe_listener();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(listener));
        let mut client = Client::over(connector.connect().expect("listener alive"));
        // Shut the server down even when `body` panics: otherwise the
        // scope would join the serve thread forever and a failed
        // assertion would present as a hang instead of a failure.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut client)));
        client.shutdown().unwrap();
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
}

#[test]
fn metrics_round_trip_carries_server_and_engine_figures() {
    let db = PackageDb::with_config(DbConfig {
        direct_threshold: 10, // route to SKETCHREFINE
        default_groups: 5,
        ..DbConfig::default()
    });
    db.register_table("Items", items_table(60, 0xA11CE));
    // Satellite contract: an attached solver telemetry sink reports
    // into the same registry, so solver figures ride the same wire
    // snapshot.
    db.set_telemetry(std::sync::Arc::new(paq_db::Telemetry::default()));
    // The engine sets no gauge of its own; one set on the shared registry
    // shows the gauge section crossing the wire too.
    db.obs_registry().set_gauge("test.tables", 1);
    serve_and(db, |client| {
        for _ in 0..4 {
            client.execute(QUERY).expect("remote execution");
        }
        let snapshot = client.metrics().expect("metrics round trip");

        // Server-side histograms with readable percentiles.
        for name in ["server.queue_wait", "server.handle", "server.frame.read"] {
            let (_, h) = snapshot
                .histograms
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} histogram missing from wire snapshot"));
            assert!(h.count > 0, "{name} never recorded");
            let (p50, p90, p99) = (
                h.p50().expect("non-empty"),
                h.p90().expect("non-empty"),
                h.p99().expect("non-empty"),
            );
            assert!(
                h.min <= p50 && p50 <= p90 && p90 <= p99 && p99 <= h.max,
                "{name}: percentile order violated"
            );
        }

        // Engine counters arrived in the same snapshot.
        let counter = |name: &str| {
            snapshot
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{name} counter missing from wire snapshot"))
        };
        assert_eq!(counter("db.execute.sketchrefine"), 4);
        assert!(counter("server.requests") >= 4);
        assert!(counter("solver.calls") > 0, "solver figures ride along");

        // The wire snapshot renders as exposition lines carrying the
        // same figures: a counter, a gauge, and one histogram's triple.
        let text = paq_obs::prometheus::render(&snapshot);
        let handle = snapshot.histogram("server.handle").expect("checked above");
        for line in [
            "# TYPE paq_db_execute_sketchrefine counter".to_owned(),
            "paq_db_execute_sketchrefine 4".to_owned(),
            "# TYPE paq_test_tables gauge".to_owned(),
            "paq_test_tables 1".to_owned(),
            "# TYPE paq_server_handle histogram".to_owned(),
            format!("paq_server_handle_bucket{{le=\"+Inf\"}} {}", handle.count),
            format!("paq_server_handle_sum {}", handle.sum),
            format!("paq_server_handle_count {}", handle.count),
        ] {
            assert!(
                text.lines().any(|l| l == line),
                "{line:?} missing in:\n{text}"
            );
        }
    });
}

#[test]
fn metrics_with_observability_disabled_is_empty_not_an_error() {
    let db = PackageDb::with_config(DbConfig {
        direct_threshold: 10,
        obs: ObsConfig {
            enabled: false,
            ..ObsConfig::default()
        },
        ..DbConfig::default()
    });
    db.register_table("Items", items_table(30, 0xBEEF));
    serve_and(db, |client| {
        client.execute(QUERY).expect("remote execution");
        let snapshot = client.metrics().expect("metrics round trip");
        assert!(snapshot.counters.is_empty());
        assert!(snapshot.gauges.is_empty());
        assert!(snapshot.histograms.is_empty());
    });
}
