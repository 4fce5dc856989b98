//! `paq-store`: durable tiered storage for the package-query engine.
//!
//! Everything the engine learns — registered tables, cached
//! partitionings, the router's telemetry ring — normally lives in
//! memory and dies with the process. This crate persists that state
//! with the classic snapshot + write-ahead-log split:
//!
//! * the **WAL** ([`wal`]) records every catalog mutation as a
//!   checksummed record stamped with the catalog version it produced
//!   (the LSN), appended inside the engine's catalog write critical
//!   section so file order equals LSN order with no gaps;
//! * **snapshots** ([`snapshot`]) periodically capture the full
//!   [`StoreState`] — tables in the chunked columnar layout of
//!   [`paq_relational::codec`] (the one the wire protocol ships), plus
//!   serialized partitionings ([`codec`]) and telemetry — and truncate
//!   the WAL;
//! * **recovery** ([`replay`]) loads the latest snapshot and folds the
//!   WAL suffix over it, partitioned by table and parallelized on the
//!   `paq-exec` pool, so a restarted engine republishes warm caches
//!   without rebuilding a single partitioning.
//!
//! The crate is deliberately engine-agnostic: it depends only on the
//! relational and partitioning layers and exposes plain-data
//! [`image`]s; `paq-db` owns the mapping to live state. See
//! `crates/store/README.md` for the byte-level file formats and the
//! recovery contract (torn tails auto-truncate; corruption is a typed
//! refusal — never a panic, never partial state).

#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod fault;
pub mod image;
pub mod replay;
pub mod snapshot;
pub mod wal;

pub use error::{StoreError, StoreResult};
pub use fault::{FaultDecision, FaultInjector, FaultSite};
pub use image::{
    AckImage, AckKind, PartitioningImage, SpecImage, StoreState, StrategyKind, TableImage,
    TelemetryImage,
};
pub use replay::{MaintenancePolicy, ReplayStats};
pub use wal::{WalOp, WalRecord};

use paq_exec::ThreadPool;
use paq_obs::Registry;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// When WAL appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `fdatasync` after every append — full durability, the default.
    #[default]
    Always,
    /// Appends are buffered by the OS; the caller decides when to
    /// [`Store::sync`] (e.g. the server's flush-on-mutation policy or
    /// its graceful-drain fsync).
    Manual,
}

/// Where and how a [`Store`] persists.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the WAL and snapshots (created if absent).
    pub dir: PathBuf,
    /// Append durability policy.
    pub sync: SyncPolicy,
    /// Optional fault injector consulted before each durability-critical
    /// file operation. `None` (the default) is the production path.
    pub injector: Option<Arc<dyn FaultInjector>>,
    /// Delta-aware maintenance policy mirrored from the engine. When
    /// set, replay absorbs logged appends by patching snapshot
    /// partitionings in place (instead of dropping them) until the
    /// per-table delta crosses the threshold — the same decision the
    /// live engine made, so recovery republishes identical state.
    pub maintenance: Option<MaintenancePolicy>,
    /// Metrics sink for WAL/snapshot/replay latencies and counters
    /// (`store.wal.append`, `store.wal.fsync`, `store.snapshot.write`,
    /// `store.replay.*`). Disabled by default; the engine passes its
    /// shared registry.
    pub obs: Registry,
}

impl StoreConfig {
    /// A store rooted at `dir` with the default [`SyncPolicy::Always`].
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            sync: SyncPolicy::default(),
            injector: None,
            maintenance: None,
            obs: Registry::disabled(),
        }
    }
}

/// Counters describing a store's activity since it was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// WAL records appended.
    pub wal_records: u64,
    /// WAL bytes appended (frames included).
    pub wal_bytes: u64,
    /// Explicit or policy-driven WAL syncs performed.
    pub wal_syncs: u64,
    /// Append/sync failures observed (the store poisons on the first).
    pub wal_errors: u64,
    /// Snapshots written.
    pub snapshots_written: u64,
    /// LSN of the most recent snapshot (0 if none this run or ever).
    pub last_snapshot_lsn: u64,
    /// Records appended since the last snapshot (snapshot cadence
    /// input).
    pub records_since_snapshot: u64,
}

/// Everything recovery learned while opening a store.
#[derive(Debug)]
pub struct RecoveredState {
    /// The fully recovered state (snapshot + WAL suffix).
    pub state: StoreState,
    /// LSN of the snapshot recovery started from (0 if none).
    pub snapshot_lsn: u64,
    /// WAL records folded over the snapshot.
    pub wal_replayed_records: u64,
    /// Torn-tail bytes truncated from the WAL (crash artifact).
    pub wal_tail_dropped_bytes: u64,
    /// Snapshot partitionings dropped because their table moved past
    /// the version they were built against.
    pub partitionings_dropped: u64,
    /// Snapshot partitionings patched in place for absorbed appends
    /// during replay (delta-aware maintenance only).
    pub partitionings_patched: u64,
}

/// An open durable store: one WAL file plus at most one snapshot,
/// rooted in a directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    wal_path: PathBuf,
    wal_file: File,
    sync: SyncPolicy,
    injector: Option<Arc<dyn FaultInjector>>,
    obs: Registry,
    poisoned: bool,
    stats: StoreStats,
}

impl Store {
    /// Open (or create) the store at `config.dir`, running recovery
    /// sequentially. See [`Store::open_with_pool`].
    pub fn open(config: StoreConfig) -> StoreResult<(Store, RecoveredState)> {
        Self::open_with_pool(config, None)
    }

    /// Open (or create) the store at `config.dir` and recover its
    /// state: load the newest snapshot, scan the WAL, truncate any torn
    /// tail, and replay the suffix — in parallel on `pool` when given.
    ///
    /// Corruption in a snapshot or in a fully present WAL record is a
    /// typed error; the store refuses to open rather than serve partial
    /// state.
    pub fn open_with_pool(
        config: StoreConfig,
        pool: Option<&ThreadPool>,
    ) -> StoreResult<(Store, RecoveredState)> {
        let open_start = Instant::now();
        fs::create_dir_all(&config.dir).map_err(|e| io_err(&config.dir, e))?;

        // Snapshot first: its LSN bounds which WAL records still matter.
        let (snapshot_state, snapshot_lsn) = match snapshot::find_latest_snapshot(&config.dir)? {
            Some(path) => {
                let state = snapshot::read_snapshot(&path)?;
                let lsn = state.last_version;
                (state, lsn)
            }
            None => (StoreState::default(), 0),
        };

        let wal_path = config.dir.join("wal.paq");
        let mut wal_file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)
            .map_err(|e| io_err(&wal_path, e))?;
        let bytes = fs::read(&wal_path).map_err(|e| io_err(&wal_path, e))?;
        let scan = wal::scan(&bytes)?;
        if bytes.is_empty() {
            wal_file
                .write_all(wal::WAL_MAGIC)
                .map_err(|e| io_err(&wal_path, e))?;
            wal_file.sync_data().map_err(|e| io_err(&wal_path, e))?;
        } else if scan.dropped_bytes > 0 {
            // Truncate the torn tail so the next append lands on a
            // clean record boundary.
            wal_file
                .set_len(scan.valid_len)
                .map_err(|e| io_err(&wal_path, e))?;
            if scan.valid_len == 0 {
                // The tear was inside the magic itself; rewrite it.
                wal_file
                    .seek(SeekFrom::Start(0))
                    .map_err(|e| io_err(&wal_path, e))?;
                wal_file
                    .write_all(wal::WAL_MAGIC)
                    .map_err(|e| io_err(&wal_path, e))?;
            }
            wal_file.sync_data().map_err(|e| io_err(&wal_path, e))?;
        }
        wal_file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err(&wal_path, e))?;

        // Only records past the snapshot still matter; anything at or
        // below its LSN is already folded in.
        let suffix: Vec<WalRecord> = scan
            .records
            .into_iter()
            .filter(|r| r.lsn > snapshot_lsn)
            .collect();
        let replayed = suffix.len() as u64;
        let (state, replay_stats) =
            replay::replay(snapshot_state, suffix, pool, config.maintenance)?;

        config.obs.add("store.replay.records", replayed);
        config
            .obs
            .add("store.replay.tail_dropped_bytes", scan.dropped_bytes);
        config.obs.observe("store.replay", open_start.elapsed());
        let store = Store {
            dir: config.dir,
            wal_path,
            wal_file,
            sync: config.sync,
            injector: config.injector,
            obs: config.obs,
            poisoned: false,
            stats: StoreStats {
                last_snapshot_lsn: snapshot_lsn,
                records_since_snapshot: replayed,
                ..StoreStats::default()
            },
        };
        Ok((
            store,
            RecoveredState {
                state,
                snapshot_lsn,
                wal_replayed_records: replayed,
                wal_tail_dropped_bytes: scan.dropped_bytes,
                partitionings_dropped: replay_stats.partitionings_dropped as u64,
                partitionings_patched: replay_stats.partitionings_patched as u64,
            },
        ))
    }

    /// Append `record` to the WAL, syncing per the configured policy.
    ///
    /// On any failure the store poisons itself and refuses further
    /// appends: a hole in the log would break the no-gaps invariant
    /// recovery depends on, so the only safe continuation is a reopen.
    pub fn append(&mut self, record: &WalRecord) -> StoreResult<()> {
        if self.poisoned {
            self.stats.wal_errors += 1;
            return Err(StoreError::Poisoned);
        }
        let append_start = Instant::now();
        let frame = wal::encode_record(record);
        let write = match self.injector.as_ref() {
            None => self.wal_file.write_all(&frame),
            Some(inj) => match inj.decide(FaultSite::WalWrite, frame.len()) {
                FaultDecision::Pass => self.wal_file.write_all(&frame),
                FaultDecision::Fail(e) => Err(e),
                FaultDecision::ShortWrite { len, error } => {
                    // Land the torn prefix on disk (sync so the tear is
                    // what recovery will actually see), then fail.
                    let n = len.min(frame.len());
                    let _ = self
                        .wal_file
                        .write_all(&frame[..n])
                        .and_then(|()| self.wal_file.sync_data());
                    Err(error)
                }
            },
        };
        let result = write.and_then(|()| match self.sync {
            SyncPolicy::Always => fault::gate(self.injector.as_ref(), FaultSite::WalSync)
                .and_then(|()| self.wal_file.sync_data()),
            SyncPolicy::Manual => Ok(()),
        });
        match result {
            Ok(()) => {
                if matches!(self.sync, SyncPolicy::Always) {
                    self.stats.wal_syncs += 1;
                }
                self.stats.wal_records += 1;
                self.stats.wal_bytes += frame.len() as u64;
                self.stats.records_since_snapshot += 1;
                self.obs.observe("store.wal.append", append_start.elapsed());
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                self.stats.wal_errors += 1;
                self.obs.incr("store.wal.error");
                Err(io_err(&self.wal_path, e))
            }
        }
    }

    /// Force buffered WAL appends to disk (meaningful under
    /// [`SyncPolicy::Manual`]; a cheap no-op-equivalent otherwise).
    pub fn sync(&mut self) -> StoreResult<()> {
        if self.poisoned {
            return Err(StoreError::Poisoned);
        }
        let sync_start = Instant::now();
        let synced = fault::gate(self.injector.as_ref(), FaultSite::WalSync)
            .and_then(|()| self.wal_file.sync_data());
        match synced {
            Ok(()) => {
                self.stats.wal_syncs += 1;
                self.obs.observe("store.wal.fsync", sync_start.elapsed());
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                self.stats.wal_errors += 1;
                self.obs.incr("store.wal.error");
                Err(io_err(&self.wal_path, e))
            }
        }
    }

    /// Write a snapshot of `state` and truncate the WAL.
    ///
    /// The caller must guarantee `state` reflects every record appended
    /// so far (the engine holds its catalog lock across capture and
    /// this call); the WAL is reset only after the snapshot is durably
    /// renamed into place, so a crash between the two replays harmless
    /// duplicates, never loses records. Returns the snapshot's size in
    /// bytes.
    pub fn snapshot(&mut self, state: &StoreState) -> StoreResult<u64> {
        if self.poisoned {
            return Err(StoreError::Poisoned);
        }
        let snapshot_start = Instant::now();
        let (_path, size) =
            snapshot::write_snapshot_with(&self.dir, state, self.injector.as_ref())?;
        // Everything in the WAL is now subsumed; reset it to magic.
        let reset = self
            .wal_file
            .set_len(wal::WAL_MAGIC.len() as u64)
            .and_then(|()| self.wal_file.seek(SeekFrom::End(0)).map(|_| ()))
            .and_then(|()| self.wal_file.sync_data());
        if let Err(e) = reset {
            self.poisoned = true;
            self.stats.wal_errors += 1;
            return Err(io_err(&self.wal_path, e));
        }
        self.stats.snapshots_written += 1;
        self.stats.last_snapshot_lsn = state.last_version;
        self.stats.records_since_snapshot = 0;
        self.obs
            .observe("store.snapshot.write", snapshot_start.elapsed());
        Ok(size)
    }

    /// Activity counters since open.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total bytes currently on disk (WAL + snapshots) — the serialized
    /// footprint reported by benchmarks.
    pub fn disk_usage(&self) -> u64 {
        let mut total = 0;
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                if let Ok(meta) = entry.metadata() {
                    if meta.is_file() {
                        total += meta.len();
                    }
                }
            }
        }
        total
    }

    /// Whether an earlier append failure has poisoned the store.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paq_relational::{DataType, Schema, Table, Value};
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("paq-store-lib-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_table(vals: &[i64]) -> Arc<Table> {
        let mut t = Table::new(Schema::from_pairs(&[("x", DataType::Int)]));
        for &v in vals {
            t.push_row(vec![Value::Int(v)]).unwrap();
        }
        Arc::new(t)
    }

    #[test]
    fn fresh_store_recovers_empty() {
        let dir = temp_dir("fresh");
        let (store, recovered) = Store::open(StoreConfig::new(&dir)).unwrap();
        assert_eq!(recovered.state.tables.len(), 0);
        assert_eq!(recovered.snapshot_lsn, 0);
        assert!(!store.is_poisoned());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_only_recovery_round_trips() {
        let dir = temp_dir("walonly");
        {
            let (mut store, _) = Store::open(StoreConfig::new(&dir)).unwrap();
            store
                .append(&WalRecord {
                    lsn: 1,
                    op: WalOp::RegisterTable {
                        name: "T".into(),
                        table: tiny_table(&[1, 2]),
                        token: None,
                    },
                })
                .unwrap();
            store
                .append(&WalRecord {
                    lsn: 2,
                    op: WalOp::AppendRow {
                        name: "T".into(),
                        row: vec![Value::Int(3)],
                        token: None,
                    },
                })
                .unwrap();
        }
        let (_, recovered) = Store::open(StoreConfig::new(&dir)).unwrap();
        assert_eq!(recovered.wal_replayed_records, 2);
        assert_eq!(recovered.state.tables.len(), 1);
        assert_eq!(*recovered.state.tables[0].table, *tiny_table(&[1, 2, 3]));
        assert_eq!(recovered.state.last_version, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_truncates_wal_and_bounds_replay() {
        let dir = temp_dir("snapcycle");
        {
            let (mut store, _) = Store::open(StoreConfig::new(&dir)).unwrap();
            store
                .append(&WalRecord {
                    lsn: 1,
                    op: WalOp::RegisterTable {
                        name: "T".into(),
                        table: tiny_table(&[1]),
                        token: None,
                    },
                })
                .unwrap();
            let state = StoreState {
                last_version: 1,
                tables: vec![TableImage {
                    name: "T".into(),
                    version: 1,
                    table: tiny_table(&[1]),
                    main_rows: 1,
                }],
                partitionings: Vec::new(),
                telemetry: Vec::new(),
                acked_tokens: Vec::new(),
            };
            let size = store.snapshot(&state).unwrap();
            assert!(size > 0);
            assert_eq!(store.stats().records_since_snapshot, 0);
            // Post-snapshot mutation lands in the fresh WAL.
            store
                .append(&WalRecord {
                    lsn: 2,
                    op: WalOp::AppendRow {
                        name: "T".into(),
                        row: vec![Value::Int(2)],
                        token: None,
                    },
                })
                .unwrap();
        }
        let (store, recovered) = Store::open(StoreConfig::new(&dir)).unwrap();
        assert_eq!(recovered.snapshot_lsn, 1);
        assert_eq!(recovered.wal_replayed_records, 1);
        assert_eq!(*recovered.state.tables[0].table, *tiny_table(&[1, 2]));
        assert!(store.disk_usage() > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = temp_dir("torn");
        {
            let (mut store, _) = Store::open(StoreConfig::new(&dir)).unwrap();
            for lsn in 1..=2 {
                store
                    .append(&WalRecord {
                        lsn,
                        op: WalOp::RegisterTable {
                            name: format!("T{lsn}"),
                            table: tiny_table(&[lsn as i64]),
                            token: None,
                        },
                    })
                    .unwrap();
            }
        }
        let wal_path = dir.join("wal.paq");
        let bytes = fs::read(&wal_path).unwrap();
        fs::write(&wal_path, &bytes[..bytes.len() - 7]).unwrap();
        let (_, recovered) = Store::open(StoreConfig::new(&dir)).unwrap();
        // T2's record was torn away and truncated.
        assert!(recovered.wal_tail_dropped_bytes > 0);
        assert_eq!(recovered.state.tables.len(), 1);
        assert_eq!(recovered.state.tables[0].name, "T1");
        // A second open sees a clean log: nothing further to drop.
        let (_, again) = Store::open(StoreConfig::new(&dir)).unwrap();
        assert_eq!(again.wal_tail_dropped_bytes, 0);
        assert_eq!(again.state.tables.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_corruption_refuses_to_open() {
        let dir = temp_dir("corrupt");
        {
            let (mut store, _) = Store::open(StoreConfig::new(&dir)).unwrap();
            for lsn in 1..=3 {
                store
                    .append(&WalRecord {
                        lsn,
                        op: WalOp::RegisterTable {
                            name: format!("T{lsn}"),
                            table: tiny_table(&[lsn as i64]),
                            token: None,
                        },
                    })
                    .unwrap();
            }
        }
        let wal_path = dir.join("wal.paq");
        let mut bytes = fs::read(&wal_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        fs::write(&wal_path, &bytes).unwrap();
        let err = Store::open(StoreConfig::new(&dir)).unwrap_err();
        assert!(matches!(err, StoreError::WalCorrupt { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manual_sync_policy_counts_syncs() {
        let dir = temp_dir("manual");
        let mut config = StoreConfig::new(&dir);
        config.sync = SyncPolicy::Manual;
        let (mut store, _) = Store::open(config).unwrap();
        store
            .append(&WalRecord {
                lsn: 1,
                op: WalOp::DropTable { name: "x".into() },
            })
            .unwrap();
        assert_eq!(store.stats().wal_syncs, 0);
        store.sync().unwrap();
        assert_eq!(store.stats().wal_syncs, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
