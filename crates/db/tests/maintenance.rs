//! Delta-aware partition maintenance: append traffic must stop nuking
//! the partition cache.
//!
//! With [`MaintenanceConfig::enabled`], an `append_row` *absorbs* into
//! every cached partitioning of the table — patched in place, re-keyed
//! to the fresh version — instead of invalidating it, until the
//! absorbed delta crosses `delta_threshold` and the append *merges*
//! (base reset + invalidation + optional background rebuild). These
//! tests pin the contract end to end:
//!
//! * every query after an absorbed append is a cache `Hit` — zero
//!   invalidations, zero cold rebuilds;
//! * the package computed over a patched partitioning is **identical**
//!   to one computed by a from-scratch database replaying the same
//!   operations cold (the canonical artifact: base-prefix build + the
//!   delta as ordered patches);
//! * past the threshold the append merges: stale entries are
//!   invalidated, the next query cold-builds over the full table, and
//!   (when enabled) a background rebuild warms the cache instead;
//! * on a durable database, WAL replay patches snapshot partitionings
//!   with the same absorb arithmetic, so a restart straddling absorbed
//!   appends still boots into `Hit`s with the same package;
//! * dropping a table and registering another under its name starts a
//!   fresh delta base, live and after recovery.
//!
//! REFINE thread count comes from `PAQ_THREADS` (default 4); CI sweeps
//! 1 and 4 — the packages must be identical at every count.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use paq_db::{CacheOutcome, DbConfig, Durability, MaintenanceConfig, PackageDb, Route, Strategy};
use paq_lang::{parse_paql, PackageQuery};
use paq_relational::{DataType, Schema, Table, Value};

/// REFINE thread count under test (`PAQ_THREADS`, default 4).
fn threads() -> usize {
    std::env::var("PAQ_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

/// Unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("paq-db-maintenance-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Deterministic base table with two numeric attributes.
fn items(n: usize) -> Table {
    let mut t = Table::new(Schema::from_pairs(&[
        ("value", DataType::Float),
        ("weight", DataType::Float),
    ]));
    for row in append_rows(n, 0x5EED) {
        t.push_row(row).unwrap();
    }
    t
}

/// Deterministic append stream (disjoint from the base when salted
/// differently).
fn append_rows(n: usize, salt: u64) -> Vec<Vec<Value>> {
    let mut state = salt | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let v = (next() % 100) as f64 / 10.0 + 1.0;
            let w = (next() % 50) as f64 / 10.0 + 0.5;
            vec![Value::Float(v), Value::Float(w)]
        })
        .collect()
}

const QUERY: &str = "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 \
     SUCH THAT COUNT(P.*) = 4 AND SUM(P.weight) <= 14 \
     MAXIMIZE SUM(P.value)";

fn config(maintenance: MaintenanceConfig) -> DbConfig {
    let mut config = DbConfig {
        direct_threshold: 20,
        maintenance,
        ..DbConfig::default()
    };
    config.sketchrefine.threads = threads();
    config
}

fn query() -> PackageQuery {
    parse_paql(QUERY).unwrap()
}

/// A fresh database that replays `appends` rows of the same stream on
/// top of the same base — the from-scratch reference an absorbed cache
/// entry must be bit-identical to.
fn cold_reference(maintenance: MaintenanceConfig, base: usize, appends: usize) -> PackageDb {
    let db = PackageDb::with_config(config(maintenance));
    db.register_table("Items", items(base));
    for row in append_rows(appends, 0xA11CE) {
        db.append_row("Items", row).unwrap();
    }
    db
}

#[test]
fn absorbed_appends_stay_hits_with_packages_identical_to_cold_builds() {
    let base = 48;
    let appends = 8;
    let m = MaintenanceConfig {
        enabled: true,
        delta_threshold: 64,
        background_rebuild: false,
    };
    let query = query();

    let db = PackageDb::with_config(config(m));
    db.register_table("Items", items(base));
    let first = db.execute_with(&query, Route::ForceSketchRefine).unwrap();
    assert_eq!(first.strategy, Strategy::SketchRefine);
    assert!(
        matches!(first.cache, CacheOutcome::Miss { .. }),
        "first query builds: {:?}",
        first.cache
    );

    let stream = append_rows(appends, 0xA11CE);
    for (i, row) in stream.into_iter().enumerate() {
        db.append_row("Items", row).unwrap();
        let exec = db.execute_with(&query, Route::ForceSketchRefine).unwrap();
        assert!(
            matches!(exec.cache, CacheOutcome::Hit { .. }),
            "append {i}: absorbed append must stay a Hit, got {:?}",
            exec.cache
        );
        assert_eq!(
            exec.rows,
            base + i + 1,
            "append {i}: query sees the new row"
        );

        // The patched entry must be bit-identical to a from-scratch
        // database replaying the same operations and cold-building.
        let fresh = cold_reference(m, base, i + 1);
        let cold = fresh
            .execute_with(&query, Route::ForceSketchRefine)
            .unwrap();
        assert!(matches!(cold.cache, CacheOutcome::Miss { .. }));
        assert_eq!(
            exec.package, cold.package,
            "append {i}: patched vs cold packages diverged"
        );
    }

    let cache = db.cache_stats();
    assert_eq!(
        cache.invalidations, 0,
        "absorbs never invalidate: {cache:?}"
    );
    assert_eq!(
        cache.misses, 1,
        "only the first query cold-builds: {cache:?}"
    );
    assert_eq!(cache.hits, appends as u64, "{cache:?}");

    let stats = db.maintenance_stats();
    assert!(stats.enabled);
    assert_eq!(stats.absorbed_appends, appends as u64, "{stats:?}");
    assert_eq!(stats.patched_entries, appends as u64, "{stats:?}");
    assert_eq!(stats.merges, 0, "{stats:?}");
}

#[test]
fn appends_past_the_threshold_merge_and_rebuild_cold() {
    let m = MaintenanceConfig {
        enabled: true,
        delta_threshold: 2,
        background_rebuild: false,
    };
    let query = query();
    let db = PackageDb::with_config(config(m));
    db.register_table("Items", items(40));
    let first = db.execute_with(&query, Route::ForceSketchRefine).unwrap();
    assert!(matches!(first.cache, CacheOutcome::Miss { .. }));

    let mut stream = append_rows(3, 0xA11CE).into_iter();
    for i in 0..2 {
        db.append_row("Items", stream.next().unwrap()).unwrap();
        let exec = db.execute_with(&query, Route::ForceSketchRefine).unwrap();
        assert!(
            matches!(exec.cache, CacheOutcome::Hit { .. }),
            "append {i} is within the threshold: {:?}",
            exec.cache
        );
    }

    // The third append pushes the delta to 3 > 2: merge.
    db.append_row("Items", stream.next().unwrap()).unwrap();
    let stats = db.maintenance_stats();
    assert_eq!(stats.absorbed_appends, 2, "{stats:?}");
    assert_eq!(stats.merges, 1, "{stats:?}");
    let cache = db.cache_stats();
    assert_eq!(cache.invalidations, 1, "merge evicts the entry: {cache:?}");

    // With background rebuild off the next query pays the cold build —
    // over the *full* table (the base moved up) — then it's warm again.
    let rebuilt = db.execute_with(&query, Route::ForceSketchRefine).unwrap();
    assert!(
        matches!(rebuilt.cache, CacheOutcome::Miss { .. }),
        "{:?}",
        rebuilt.cache
    );
    let again = db.execute_with(&query, Route::ForceSketchRefine).unwrap();
    assert!(matches!(again.cache, CacheOutcome::Hit { .. }));
    assert_eq!(rebuilt.package, again.package);

    // The merged rebuild equals a cold build over the same final rows.
    let fresh = cold_reference(m, 40, 3);
    let cold = fresh
        .execute_with(&query, Route::ForceSketchRefine)
        .unwrap();
    assert_eq!(rebuilt.package, cold.package);
}

#[test]
fn merge_with_background_rebuild_warms_the_cache() {
    let m = MaintenanceConfig {
        enabled: true,
        delta_threshold: 1,
        background_rebuild: true,
    };
    let query = query();
    let db = PackageDb::with_config(config(m));
    db.register_table("Items", items(40));
    let first = db.execute_with(&query, Route::ForceSketchRefine).unwrap();
    assert!(matches!(first.cache, CacheOutcome::Miss { .. }));

    let mut stream = append_rows(2, 0xA11CE).into_iter();
    db.append_row("Items", stream.next().unwrap()).unwrap(); // absorbed
    db.append_row("Items", stream.next().unwrap()).unwrap(); // merges

    // The merge evicted the entry queries were using and handed it to a
    // detached rebuild thread; wait for that rebuild to land.
    let deadline = Instant::now() + Duration::from_secs(30);
    while db.maintenance_stats().background_rebuilds < 1 {
        assert!(
            Instant::now() < deadline,
            "background rebuild never landed: {:?}",
            db.maintenance_stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let exec = db.execute_with(&query, Route::ForceSketchRefine).unwrap();
    assert!(
        matches!(exec.cache, CacheOutcome::Hit { .. }),
        "rebuild must have warmed the cache: {:?}",
        exec.cache
    );
    // And it still computes the canonical package.
    let fresh = cold_reference(m, 40, 2);
    let cold = fresh
        .execute_with(&query, Route::ForceSketchRefine)
        .unwrap();
    assert_eq!(exec.package, cold.package);
}

#[test]
fn durable_restart_replays_absorbed_appends_into_hits() {
    let dir = TempDir::new("replay-patch");
    let m = MaintenanceConfig {
        enabled: true,
        delta_threshold: 64,
        background_rebuild: false,
    };
    let query = query();
    let expected = {
        let db = PackageDb::open(config(m), Durability::new(dir.path())).unwrap();
        db.register_table("Items", items(48));
        let exec = db.execute_with(&query, Route::ForceSketchRefine).unwrap();
        assert!(matches!(exec.cache, CacheOutcome::Miss { .. }));
        // Put the partitioning into the snapshot, then absorb appends
        // in the WAL suffix — replay must patch, not drop.
        db.snapshot_now().unwrap();
        for row in append_rows(3, 0xA11CE) {
            db.append_row("Items", row).unwrap();
        }
        let exec = db.execute_with(&query, Route::ForceSketchRefine).unwrap();
        assert!(matches!(exec.cache, CacheOutcome::Hit { .. }));
        exec.package
    };

    for replay_threads in [1usize, 4] {
        let durability = Durability {
            replay_threads,
            ..Durability::new(dir.path())
        };
        let db = PackageDb::open(config(m), durability).unwrap();
        let stats = db.durability_stats().unwrap();
        assert_eq!(stats.recovered_partitionings, 1, "{stats:?}");
        assert_eq!(stats.wal_replayed_records, 3, "{stats:?}");

        let exec = db.execute_with(&query, Route::ForceSketchRefine).unwrap();
        assert!(
            matches!(exec.cache, CacheOutcome::Hit { .. }),
            "replay must patch the snapshot partitioning: {:?}",
            exec.cache
        );
        assert_eq!(exec.package, expected, "replay_threads {replay_threads}");
        let cache = db.cache_stats();
        assert_eq!(
            cache.misses, 0,
            "zero cold rebuilds after restart: {cache:?}"
        );
    }
}

/// Register 48 rows, absorb three appends, drop, re-register 40 rows
/// under the same name, then absorb exactly `delta_threshold` appends —
/// every one a `Hit`, no merge yet. A durable database snapshots right
/// after the re-registration's cold build, so the absorbs are its WAL
/// suffix. Returns the package of the last query.
fn drop_and_reregister_history(db: &PackageDb) -> paq_core::Package {
    let query = query();
    let hit_after_append = |salt: u64, n: u64| {
        let mut last = None;
        for (i, row) in append_rows(n as usize, salt).into_iter().enumerate() {
            db.append_row("Items", row).unwrap();
            let exec = db.execute_with(&query, Route::ForceSketchRefine).unwrap();
            assert!(
                matches!(exec.cache, CacheOutcome::Hit { .. }),
                "append {i} (stream {salt:#x}) is within the threshold: {:?}",
                exec.cache
            );
            last = Some(exec.package);
        }
        last.expect("at least one append")
    };

    db.register_table("Items", items(48));
    let first = db.execute_with(&query, Route::ForceSketchRefine).unwrap();
    assert!(matches!(first.cache, CacheOutcome::Miss { .. }));
    hit_after_append(0xA11CE, 3);

    db.drop_table("Items").unwrap();
    db.register_table("items", items(40));
    let rebuilt = db.execute_with(&query, Route::ForceSketchRefine).unwrap();
    assert!(matches!(rebuilt.cache, CacheOutcome::Miss { .. }));
    if db.is_durable() {
        db.snapshot_now().unwrap();
    }
    let package = hit_after_append(0xB0B, db.maintenance_stats().delta_threshold);
    assert_eq!(db.maintenance_stats().merges, 0);
    package
}

#[test]
fn drop_and_reregister_resets_the_base() {
    let m = MaintenanceConfig {
        enabled: true,
        delta_threshold: 4,
        background_rebuild: false,
    };
    let one_more = || append_rows(1, 0xC0DE).remove(0);

    // Live: the first merge is append `delta_threshold + 1` counted
    // from the re-registration, not from the dropped table's base.
    let live = PackageDb::with_config(config(m));
    let expected = drop_and_reregister_history(&live);
    live.append_row("Items", one_more()).unwrap();
    let stats = live.maintenance_stats();
    assert_eq!(stats.merges, 1, "{stats:?}");
    assert_eq!(stats.absorbed_appends, 3 + m.delta_threshold, "{stats:?}");

    // Recovered: the same history reopens onto the same base, so the
    // next query is served as the live one was and the next append
    // merges.
    let dir = TempDir::new("drop-reregister");
    {
        let db = PackageDb::open(config(m), Durability::new(dir.path())).unwrap();
        assert_eq!(drop_and_reregister_history(&db), expected);
    }
    for replay_threads in [1usize, 4] {
        let durability = Durability {
            replay_threads,
            ..Durability::new(dir.path())
        };
        let db = PackageDb::open(config(m), durability).unwrap();
        let exec = db.execute_with(&query(), Route::ForceSketchRefine).unwrap();
        assert!(
            matches!(exec.cache, CacheOutcome::Hit { .. }),
            "replay_threads {replay_threads}: {:?}",
            exec.cache
        );
        assert_eq!(exec.package, expected, "replay_threads {replay_threads}");
    }
    let db = PackageDb::open(config(m), Durability::new(dir.path())).unwrap();
    db.append_row("Items", one_more()).unwrap();
    let stats = db.maintenance_stats();
    assert_eq!((stats.merges, stats.absorbed_appends), (1, 0), "{stats:?}");
}

#[test]
fn maintenance_off_keeps_the_invalidate_on_append_contract() {
    let db = PackageDb::with_config(config(MaintenanceConfig::default()));
    let query = query();
    db.register_table("Items", items(40));
    let first = db.execute_with(&query, Route::ForceSketchRefine).unwrap();
    assert!(matches!(first.cache, CacheOutcome::Miss { .. }));
    db.append_row("Items", append_rows(1, 0xA11CE).remove(0))
        .unwrap();
    let exec = db.execute_with(&query, Route::ForceSketchRefine).unwrap();
    assert!(
        matches!(exec.cache, CacheOutcome::Miss { .. }),
        "maintenance off: append still invalidates: {:?}",
        exec.cache
    );
    assert_eq!(db.cache_stats().invalidations, 1);
    let stats = db.maintenance_stats();
    assert!(!stats.enabled);
    assert_eq!(stats.absorbed_appends + stats.merges, 0);
}
