//! Integration tests for the durable `PackageDb`: crash-free reopen
//! recovers tables at their original versions, partitionings re-enter
//! the cache as `Hit`s (zero rebuilds), router telemetry warm-starts
//! the cost model, recovery is deterministic across replay thread
//! counts, corruption is a typed `DbError::Storage`, and the
//! `snapshot_every` knob compacts the WAL automatically.

use std::fs;
use std::path::{Path, PathBuf};

use paq_db::{CacheOutcome, DbConfig, DbError, Durability, PackageDb, Route, Strategy, SyncPolicy};
use paq_lang::parse_paql;
use paq_relational::{DataType, Schema, Table, Value};

/// Unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("paq-db-durability-{}-{tag}", std::process::id()));
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

/// Deterministic table with two numeric and one string attribute
/// (mirrors the in-memory session tests).
fn items(n: usize) -> Table {
    let mut t = Table::new(Schema::from_pairs(&[
        ("value", DataType::Float),
        ("weight", DataType::Float),
        ("grade", DataType::Str),
    ]));
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..n {
        let v = (next() % 100) as f64 / 10.0 + 1.0;
        let w = (next() % 50) as f64 / 10.0 + 0.5;
        let g = if next() % 4 == 0 { "low" } else { "high" };
        t.push_row(vec![Value::Float(v), Value::Float(w), g.into()])
            .unwrap();
    }
    t
}

const QUERY: &str = "SELECT PACKAGE(R) AS P FROM Items R REPEAT 0 \
     SUCH THAT COUNT(P.*) = 4 AND SUM(P.weight) <= 14 \
     MAXIMIZE SUM(P.value)";

fn config() -> DbConfig {
    DbConfig {
        direct_threshold: 20,
        ..DbConfig::default()
    }
}

fn durability(dir: &Path, threads: usize) -> Durability {
    Durability {
        replay_threads: threads,
        ..Durability::new(dir)
    }
}

fn assert_tables_equal(a: &Table, b: &Table, what: &str) {
    assert_eq!(a.num_rows(), b.num_rows(), "{what}: row count");
    for i in 0..a.num_rows() {
        assert_eq!(a.row(i), b.row(i), "{what}: row {i}");
    }
}

#[test]
fn tables_survive_reopen_at_original_versions() {
    let dir = TempDir::new("reopen");
    let (v_items, v_nums);
    {
        let db = PackageDb::open(config(), durability(dir.path(), 1)).unwrap();
        db.register_table("Items", items(40));
        db.register_table("Nums", items(5));
        db.register_table("Gone", items(3));
        db.append_row(
            "Items",
            vec![Value::Float(7.5), Value::Float(2.0), "high".into()],
        )
        .unwrap();
        db.drop_table("Gone").unwrap();
        v_items = db.table_version("Items").unwrap();
        v_nums = db.table_version("Nums").unwrap();
    }

    for threads in [1usize, 4] {
        let db = PackageDb::open(config(), durability(dir.path(), threads)).unwrap();
        let mut names = db.table_names();
        names.sort();
        assert_eq!(names, vec!["Items".to_string(), "Nums".to_string()]);
        assert_eq!(db.table_version("Items").unwrap(), v_items);
        assert_eq!(db.table_version("Nums").unwrap(), v_nums);
        assert_eq!(db.table("Items").unwrap().num_rows(), 41);
        assert!(db.table("Gone").is_err(), "dropped table must stay dropped");

        let stats = db.durability_stats().unwrap();
        assert_eq!(stats.recovered_tables, 2, "{stats:?}");
        assert!(stats.wal_replayed_records >= 5, "{stats:?}");
    }

    // Fresh mutations draw versions strictly above everything
    // recovered — including the dropped table's tombstone LSN.
    let db = PackageDb::open(config(), durability(dir.path(), 1)).unwrap();
    let v_new = db.register_table("Fresh", items(2));
    assert!(v_new > v_items.max(v_nums), "version floor must hold");
}

#[test]
fn snapshot_reopen_serves_partition_cache_hits_and_warm_router() {
    let dir = TempDir::new("warm-cache");
    let query = parse_paql(QUERY).unwrap();
    let cold_groups;
    {
        let db = PackageDb::open(config(), durability(dir.path(), 1)).unwrap();
        db.register_table("Items", items(150));
        let exec = db.execute_with(&query, Route::ForceSketchRefine).unwrap();
        assert_eq!(exec.strategy, Strategy::SketchRefine);
        cold_groups = match exec.cache {
            CacheOutcome::Miss { groups, .. } => groups,
            other => panic!("first query must build the partitioning: {other:?}"),
        };
        let bytes = db.snapshot_now().unwrap();
        assert!(bytes > 0);
    }

    for threads in [1usize, 4] {
        let db = PackageDb::open(config(), durability(dir.path(), threads)).unwrap();
        let stats = db.durability_stats().unwrap();
        assert!(stats.recovered_partitionings >= 1, "{stats:?}");
        assert!(stats.recovered_telemetry >= 1, "{stats:?}");
        assert!(stats.last_snapshot_lsn > 0, "{stats:?}");

        // The router ring was warm-started from the snapshot.
        let router = db.router_stats();
        assert!(
            router.sketchrefine_samples >= 1,
            "telemetry must survive restart: {router:?}"
        );

        // Same query after restart: the recovered partitioning is
        // served as a Hit — no rebuild, no miss.
        let exec = db.execute_with(&query, Route::ForceSketchRefine).unwrap();
        match exec.cache {
            CacheOutcome::Hit { groups, .. } => assert_eq!(groups, cold_groups),
            other => panic!("restart must serve the cached partitioning: {other:?}"),
        }
        assert_eq!(
            exec.timings.partitioning.as_nanos(),
            0,
            "hit must not rebuild"
        );
        let cache = db.cache_stats();
        assert_eq!(
            cache.misses, 0,
            "zero cold rebuilds after restart: {cache:?}"
        );
        assert_eq!(cache.hits, 1, "{cache:?}");
    }
}

#[test]
fn recovered_packages_are_identical_across_replay_thread_counts() {
    let dir = TempDir::new("determinism");
    {
        let db = PackageDb::open(config(), durability(dir.path(), 1)).unwrap();
        db.register_table("Items", items(150));
        db.execute_with(&parse_paql(QUERY).unwrap(), Route::ForceSketchRefine)
            .unwrap();
        db.snapshot_now().unwrap();
        // More WAL traffic after the snapshot so replay has real work.
        for i in 0..10 {
            db.append_row(
                "Items",
                vec![
                    Value::Float(1.0 + i as f64),
                    Value::Float(0.5),
                    "low".into(),
                ],
            )
            .unwrap();
        }
    }

    let query = parse_paql(QUERY).unwrap();
    let db1 = PackageDb::open(config(), durability(dir.path(), 1)).unwrap();
    let db4 = PackageDb::open(config(), durability(dir.path(), 4)).unwrap();
    assert_eq!(
        db1.table_version("Items").unwrap(),
        db4.table_version("Items").unwrap()
    );
    assert_tables_equal(
        &db1.table("Items").unwrap(),
        &db4.table("Items").unwrap(),
        "Items",
    );
    // Identical state ⇒ byte-identical packages.
    let p1 = db1.execute_with(&query, Route::ForceSketchRefine).unwrap();
    let p4 = db4.execute_with(&query, Route::ForceSketchRefine).unwrap();
    assert_eq!(p1.package, p4.package);
}

#[test]
fn corrupt_wal_is_a_typed_storage_error() {
    let dir = TempDir::new("corrupt-wal");
    {
        let db = PackageDb::open(config(), durability(dir.path(), 1)).unwrap();
        db.register_table("Items", items(40));
    }
    let wal = dir.path().join("wal.paq");
    let mut bytes = fs::read(&wal).unwrap();
    assert!(bytes.len() > 64, "need a full record to corrupt");
    bytes[20] ^= 0xFF; // inside the first record's payload
    fs::write(&wal, &bytes).unwrap();

    match PackageDb::open(config(), durability(dir.path(), 1)) {
        Err(DbError::Storage { detail }) => {
            assert!(detail.contains("WAL"), "detail names the WAL: {detail}")
        }
        other => panic!("corruption must refuse to open: {other:?}"),
    }
}

#[test]
fn corrupt_snapshot_is_a_typed_storage_error() {
    let dir = TempDir::new("corrupt-snap");
    {
        let db = PackageDb::open(config(), durability(dir.path(), 1)).unwrap();
        db.register_table("Items", items(40));
        db.snapshot_now().unwrap();
    }
    let snap = fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("snap-"))
        })
        .expect("snapshot file exists");
    let mut bytes = fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&snap, &bytes).unwrap();

    match PackageDb::open(config(), durability(dir.path(), 1)) {
        Err(DbError::Storage { detail }) => {
            assert!(
                detail.contains("snapshot"),
                "detail names the file: {detail}"
            )
        }
        other => panic!("corruption must refuse to open: {other:?}"),
    }
}

#[test]
fn stores_of_an_older_format_are_refused_typed() {
    // The disk format moved to the shared codec's layout under new
    // magics; a directory written before that (PAQWAL02 / PAQSNAP2) is
    // refused by name — never misdecoded, never a panic.
    for (file, old_magic) in [("wal.paq", b"PAQWAL02"), ("snap-", b"PAQSNAP2")] {
        let dir = TempDir::new(&format!("old-{}", file.trim_end_matches('-')));
        {
            let db = PackageDb::open(config(), durability(dir.path(), 1)).unwrap();
            db.register_table("Items", items(40));
            db.snapshot_now().unwrap();
            db.append_row(
                "Items",
                vec![Value::Float(1.0), Value::Float(1.0), "low".into()],
            )
            .unwrap();
        }
        let path = fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with(file))
            })
            .expect("store file exists");
        let mut bytes = fs::read(&path).unwrap();
        bytes[..8].copy_from_slice(old_magic);
        fs::write(&path, &bytes).unwrap();

        match PackageDb::open(config(), durability(dir.path(), 1)) {
            Err(DbError::Storage { detail }) => {
                let old = String::from_utf8_lossy(old_magic);
                assert!(
                    detail.contains("unsupported") && detail.contains(&*old),
                    "detail names the refused format: {detail}"
                )
            }
            other => panic!("an old-format store must refuse to open: {other:?}"),
        }
    }
}

#[test]
fn auto_snapshot_compacts_the_wal() {
    let dir = TempDir::new("auto-snap");
    let durability = Durability {
        snapshot_every: Some(3),
        ..Durability::new(dir.path())
    };
    let db = PackageDb::open(config(), durability).unwrap();
    db.register_table("Items", items(10));
    for i in 0..5 {
        db.append_row(
            "Items",
            vec![Value::Float(i as f64), Value::Float(1.0), "low".into()],
        )
        .unwrap();
    }
    let stats = db.durability_stats().unwrap();
    assert!(stats.snapshots_written >= 1, "{stats:?}");
    assert!(stats.records_since_snapshot < 3, "{stats:?}");
    assert!(stats.last_snapshot_lsn > 0, "{stats:?}");
}

#[test]
fn manual_sync_policy_survives_clean_reopen() {
    let dir = TempDir::new("manual-sync");
    {
        let durability = Durability {
            sync: SyncPolicy::Manual,
            ..Durability::new(dir.path())
        };
        let db = PackageDb::open(config(), durability).unwrap();
        db.register_table("Items", items(25));
        db.sync_wal().unwrap();
        let stats = db.durability_stats().unwrap();
        assert_eq!(stats.wal_syncs, 1, "{stats:?}");
    }
    let db = PackageDb::open(config(), durability(dir.path(), 1)).unwrap();
    assert_eq!(db.table("Items").unwrap().num_rows(), 25);
}

#[test]
fn in_memory_db_reports_no_durability() {
    let db = PackageDb::new();
    assert!(!db.is_durable());
    assert!(db.durability_stats().is_none());
    assert!(db.sync_wal().is_ok(), "no-op for in-memory databases");
    match db.snapshot_now() {
        Err(DbError::Storage { .. }) => {}
        other => panic!("unexpected {other:?}"),
    }
    assert!(db.stats().durability.is_none());
}
