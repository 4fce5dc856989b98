//! The `PackageDb` session: a cheap handle onto a shared core of
//! catalog + partition cache + planner.
//!
//! # Shared state vs. session state
//!
//! The paper's PackageBuilder is a *system* serving many interactive
//! clients, so the state splits in two:
//!
//! * `SharedState` (private) — one per database, behind an `Arc`:
//!   the table **catalog**, the **partition cache**, the **telemetry**
//!   sink, and the lazily spawned worker **pool**. Every session handle
//!   cloned from a `PackageDb` points at the same shared state.
//! * [`PackageDb`] — the cloneable per-client session handle. It adds
//!   only the client's own [`DbConfig`] (solver budgets, routing
//!   threshold, REFINE threads); cloning a session copies the config
//!   and shares everything else.
//!
//! # Locking discipline
//!
//! * The catalog sits behind a reader–writer lock. Executions take the
//!   **read** side just long enough to snapshot `(name, version,
//!   Arc<Table>)` — evaluation then runs entirely on the snapshot, so
//!   readers execute concurrently and writers never wait on a running
//!   query. Table mutations take the **write** side, stamp a fresh
//!   globally-monotone version, and evict stale cache entries.
//! * The partition cache is internally synchronized (see
//!   [`crate::cache`]): concurrent lookups share a read lock, counters
//!   are atomics, and no lock is ever held across a build or an
//!   evaluation.
//! * Cold partitionings are built **single-flight**: the first session
//!   to miss builds (one `Miss`); sessions racing on the same
//!   (table, version, attributes) wait for that build and are served a
//!   `Hit`. A build result is only published if the table version it
//!   was built for is still current.
//! * Executions snapshot the table version at planning time; the cache
//!   only ever serves entries at exactly that version, so a package is
//!   always consistent with the version its execution observed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use paq_core::{Direct, EngineError, Evaluator, QueryFeatures, SketchRefine, SketchRefineOptions};
use paq_exec::ThreadPool;
use paq_lang::{parse_paql, validate, PackageQuery};
use paq_obs::{obs_scope, span, ObsContext, Registry, Trace};
use paq_partition::partitioning::GID_COLUMN;
use paq_partition::{PartitionConfig, Partitioner, Partitioning};
use paq_relational::{Table, Value};
use paq_solver::{SolverConfig, Telemetry};

use paq_store::{
    AckImage, AckKind, MaintenancePolicy, PartitioningImage, Store, StoreConfig, StoreState,
    TableImage, WalOp, WalRecord,
};

use crate::cache::{CacheStats, PartitionCache, PartitionSpec};
use crate::catalog::Catalog;
use crate::durability::{
    observation_from_image, observation_to_image, spec_from_image, spec_to_image, storage_error,
    Durability, DurabilityState, DurabilityStats,
};
use crate::error::{DbError, DbResult};
use crate::execution::{CacheOutcome, Execution, RouteReason, RouterVerdict, Strategy, Timings};
use crate::router::{self, Observation, RouterConfig, RouterDecision, RouterStats, TelemetryRing};

/// Planner routing control for
/// [`PackageDb::execute_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Route {
    /// Let the planner pick (the behavior of [`PackageDb::execute`]).
    #[default]
    Auto,
    /// Always evaluate with DIRECT (exact; used by benchmarks and
    /// ablations).
    ForceDirect,
    /// Always evaluate with SKETCHREFINE (approximate; uses the
    /// partition cache, building a partitioning if none is usable).
    ForceSketchRefine,
}

/// Delta-aware partition maintenance (see the "Partition maintenance"
/// section of the README). When enabled, an [`PackageDb::append_row`]
/// no longer invalidates cached partitionings of the table: the new row
/// is **absorbed** — every cached partitioning is patched in place (the
/// row routed to its nearest group, exact group stats recomputed) and
/// re-keyed to the fresh table version, so the next query is still a
/// cache `Hit`. Cold builds partition only the "main" prefix the base
/// build covered and then replay the absorbed delta as patches, so a
/// patched cache entry and a from-scratch build of the same rows are
/// **bit-identical** at every thread count. Once the absorbed delta
/// exceeds [`MaintenanceConfig::delta_threshold`] rows, the append
/// merges instead: the base moves to the full table and stale entries
/// are invalidated (optionally rebuilt in the background).
///
/// This is database-wide state (it changes what the shared cache and
/// WAL replay do), so it is fixed when the database is created —
/// per-session `config_mut` edits to it have no effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceConfig {
    /// Absorb appends instead of invalidating. Off by default: the
    /// invalidate-on-append contract predates this and some callers
    /// depend on it.
    pub enabled: bool,
    /// Maximum absorbed delta (rows past the base build) before an
    /// append merges (invalidates + resets the base) instead of
    /// patching. Group sizes drift past τ by at most this many rows.
    pub delta_threshold: u64,
    /// After a merge, rebuild the just-invalidated partitionings on a
    /// background thread so the next query finds a warm cache instead
    /// of paying the cold build inline. Deterministic tests turn this
    /// off.
    pub background_rebuild: bool,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig {
            enabled: false,
            delta_threshold: 64,
            background_rebuild: true,
        }
    }
}

/// Observability control (see the "Observability" section of the
/// README). Like [`MaintenanceConfig`] this is database-wide: the
/// registry lives on the shared state, so the value in effect at
/// creation time ([`PackageDb::with_config`] / [`PackageDb::open`]) is
/// what counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record metrics and per-request span traces. On by default — a
    /// recorded metric is a read-lock plus relaxed atomics, and the
    /// cost is visible as the `galaxy-serve-12k` `query_p50_ms` of
    /// `benchmark/`, which serves with obs on.
    pub enabled: bool,
    /// Queries whose total wall time reaches this many milliseconds are
    /// captured in the slow-query log ([`PackageDb::slow_queries`]),
    /// rendered span tree included. `None` disables the log.
    pub slow_query_ms: Option<u64>,
    /// Spans recorded per request before the trace starts counting
    /// drops instead of storing.
    pub trace_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            slow_query_ms: None,
            trace_capacity: paq_obs::DEFAULT_TRACE_CAPACITY,
        }
    }
}

/// One captured slow query (see [`ObsConfig::slow_query_ms`]).
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The offending PaQL text.
    pub query: String,
    /// Total wall time of the execution.
    pub total: Duration,
    /// The strategy that ran it.
    pub strategy: Strategy,
    /// The rendered span tree at capture time.
    pub spans: String,
}

/// Observable delta-maintenance counters, shared across all sessions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Whether delta-aware maintenance is on for this database.
    pub enabled: bool,
    /// The configured absorb-vs-merge threshold.
    pub delta_threshold: u64,
    /// Appends absorbed without invalidating anything.
    pub absorbed_appends: u64,
    /// Cache entries patched in place across all absorbed appends.
    pub patched_entries: u64,
    /// Appends that crossed the threshold and merged (base reset +
    /// invalidation).
    pub merges: u64,
    /// Partitionings rebuilt by the post-merge background pass.
    pub background_rebuilds: u64,
}

/// Per-session configuration. Each cloned session carries its own copy;
/// tuning one client never affects another.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Route to DIRECT when the input table has at most this many rows
    /// (one exact ILP of that size is cheap; the paper's DIRECT curves
    /// stay flat until the solver hits resource limits).
    pub direct_threshold: usize,
    /// Lazily built partitionings target this many groups
    /// (τ = rows / `default_groups`), mirroring
    /// [`SketchRefine`]'s convenience default.
    pub default_groups: usize,
    /// Black-box solver budgets shared by both strategies.
    pub solver: SolverConfig,
    /// SKETCHREFINE tuning (hybrid sketch, fallback ladder, budgets).
    pub sketchrefine: SketchRefineOptions,
    /// When the SKETCHREFINE route reports *possibly false*
    /// infeasibility (§4.4), automatically re-run with DIRECT — the
    /// unpartitioned problem cannot be falsely infeasible. Applies to
    /// [`Route::Auto`] only; forced routes report the raw verdict.
    pub fallback_to_direct: bool,
    /// Cost-based router knobs: with enough execution telemetry the
    /// planner routes by per-strategy predicted cost instead of the
    /// static `direct_threshold` (which stays the cold-start
    /// fallback). See [`crate::router`].
    pub router: RouterConfig,
    /// Delta-aware partition maintenance. Database-wide: the value in
    /// effect when the database is created ([`PackageDb::with_config`]
    /// / [`PackageDb::open`]) is fixed into the shared state; later
    /// per-session edits have no effect.
    pub maintenance: MaintenanceConfig,
    /// Metrics + tracing control. Database-wide, like `maintenance`.
    pub obs: ObsConfig,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            direct_threshold: 2_000,
            default_groups: 10,
            solver: SolverConfig::default(),
            sketchrefine: SketchRefineOptions::default(),
            fallback_to_direct: true,
            router: RouterConfig::default(),
            maintenance: MaintenanceConfig::default(),
            obs: ObsConfig::default(),
        }
    }
}

/// One registered table's row in a [`DbStats`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableStats {
    /// Registered name (original casing).
    pub name: String,
    /// Row count at snapshot time.
    pub rows: usize,
    /// Catalog version at snapshot time.
    pub version: u64,
}

/// Point-in-time snapshot of a database's observable state, returned by
/// [`PackageDb::stats`] — the self-describing summary a serving layer
/// reports to remote clients.
#[derive(Debug, Clone)]
pub struct DbStats {
    /// Every registered table, sorted by name.
    pub tables: Vec<TableStats>,
    /// Shared partition-cache counters.
    pub cache: CacheStats,
    /// Shared cost-based-router counters (telemetry samples held,
    /// model vs fallback decisions).
    pub router: RouterStats,
    /// Delta-maintenance counters (absorbed appends, patched entries,
    /// merges, background rebuilds).
    pub maintenance: MaintenanceStats,
    /// Durability counters; `None` for in-memory databases.
    pub durability: Option<DurabilityStats>,
}

/// Key of one in-flight partitioning build: (table key, version,
/// partitioning attributes).
type BuildKey = (String, u64, Vec<String>);

/// Rendezvous for sessions racing on the same cold partitioning: the
/// builder flips the `done` flag once finished, stashing its artifact
/// so waiters can adopt it directly — even when a racing mutation
/// suppressed the cache publish, the artifact is still exactly right
/// for the snapshot version both sides planned against (the version is
/// part of the rendezvous key). A `None` result means the build failed;
/// waiters then retry, possibly becoming the next builder.
#[derive(Debug, Default)]
struct BuildSlot {
    /// Deliberately `std::sync::Mutex` (not the compat `parking_lot`
    /// one) so the mutex and the [`Condvar`] it pairs with come from
    /// one API — real parking_lot guards would not satisfy
    /// `Condvar::wait`.
    state: StdMutex<(bool, Option<Arc<Partitioning>>)>,
    cv: Condvar,
}

impl BuildSlot {
    fn wait(&self) -> Option<Arc<Partitioning>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while !state.0 {
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.1.clone()
    }

    fn finish(&self, result: Option<Arc<Partitioning>>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *state = (true, result);
        drop(state);
        self.cv.notify_all();
    }
}

/// Removes the build slot from the pending map and wakes waiters on
/// drop — so a failed (or panicked) build can never strand them. The
/// builder sets `result` on success; an unwind leaves it `None`.
struct BuildGuard<'a> {
    shared: &'a SharedState,
    key: BuildKey,
    slot: Arc<BuildSlot>,
    result: Option<Arc<Partitioning>>,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        self.shared.pending_builds.lock().remove(&self.key);
        self.slot.finish(self.result.take());
    }
}

/// The shared core of a database: everything that is one-per-database
/// rather than one-per-client. See the [module docs](self) for the
/// locking discipline.
#[derive(Debug, Default)]
struct SharedState {
    catalog: RwLock<Catalog>,
    cache: PartitionCache,
    telemetry: RwLock<Option<Arc<Telemetry>>>,
    /// Worker pools shared by every session (wave-based REFINE and
    /// offline partitioning builds), keyed by thread count: spawned
    /// lazily on the first multi-threaded request and kept across
    /// queries, so sessions tuned to the same size share one pool and
    /// sessions tuned differently never tear each other's pool down.
    /// Capped at [`SharedState::MAX_POOLS`] distinct sizes so a
    /// long-lived process whose clients sweep many thread counts
    /// cannot accumulate parked OS threads without bound.
    pools: Mutex<HashMap<usize, Arc<ThreadPool>>>,
    /// In-flight lazily-built partitionings, for single-flight builds.
    pending_builds: Mutex<HashMap<BuildKey, Arc<BuildSlot>>>,
    /// Execution-telemetry history feeding the cost-based router —
    /// one ring per database, shared by every session (like the
    /// partition cache, routing knowledge is a property of the data
    /// and workload, not of one client).
    router_ring: Mutex<TelemetryRing>,
    /// `Route::Auto` plans decided by the warm cost model.
    router_model_decisions: AtomicU64,
    /// `Route::Auto` plans decided by the static threshold fallback.
    router_fallback_decisions: AtomicU64,
    /// Opt-in durable storage (see [`crate::durability`]): `None` for
    /// ordinary in-memory databases, so every existing path pays
    /// nothing. Lock order: catalog before store, always.
    durability: Option<DurabilityState>,
    /// Delta-maintenance policy, fixed at database creation (it
    /// changes the shared cache's append behavior, so it cannot vary
    /// per session).
    maintenance: MaintenanceConfig,
    /// The database's metrics registry. `Registry::default()` is
    /// disabled, so in-test `SharedState::default()` construction stays
    /// silent; [`PackageDb::with_config`] and [`PackageDb::open`]
    /// enable it per [`ObsConfig::enabled`].
    obs: Registry,
    /// Observability knobs fixed at creation (slow-query threshold,
    /// trace capacity).
    obs_config: ObsConfig,
    /// Most recent captured slow queries, newest last, bounded at
    /// [`SharedState::MAX_SLOW_QUERIES`].
    slow_queries: Mutex<Vec<SlowQuery>>,
    /// Appends absorbed without invalidation.
    absorbed_appends: AtomicU64,
    /// Cache entries patched across all absorbs.
    patched_entries: AtomicU64,
    /// Appends that crossed the threshold and merged.
    delta_merges: AtomicU64,
    /// Partitionings rebuilt by the post-merge background pass.
    background_rebuilds: AtomicU64,
}

impl SharedState {
    /// Most distinct pool sizes kept alive at once; realistic
    /// deployments use one or two.
    const MAX_POOLS: usize = 4;

    /// Slow-query log bound: old entries fall off the front.
    const MAX_SLOW_QUERIES: usize = 32;

    /// The shared worker pool at the requested size (`None` when
    /// single-threaded). Every session asking for the same size gets
    /// the same pool; at capacity, the smallest other pool is retired
    /// (in-flight executions keep their `Arc`, so its workers wind
    /// down only once they finish).
    fn pool(&self, threads: usize) -> Option<Arc<ThreadPool>> {
        if threads <= 1 {
            return None;
        }
        let mut pools = self.pools.lock();
        if !pools.contains_key(&threads) && pools.len() >= Self::MAX_POOLS {
            if let Some(&evict) = pools.keys().min() {
                pools.remove(&evict);
            }
        }
        Some(Arc::clone(
            pools
                .entry(threads)
                .or_insert_with(|| Arc::new(ThreadPool::new(threads))),
        ))
    }
}

/// A package-query session: named tables, cached offline partitionings,
/// and a planner that routes every query to DIRECT or SKETCHREFINE.
///
/// This is the system front door the paper describes (PackageBuilder on
/// top of a DBMS): register tables once, then throw PaQL at it — from
/// any number of concurrent clients. `PackageDb` is a cheap cloneable
/// *session handle*: [`PackageDb::session`] (or `clone()`) yields a new
/// handle onto the same catalog, partition cache, and worker pool,
/// carrying its own [`DbConfig`]. All catalog and execution methods
/// take `&self`, so sessions can be driven from plain shared
/// references across threads.
///
/// ```
/// use paq_db::PackageDb;
/// use paq_relational::{DataType, Schema, Table, Value};
///
/// let mut table = Table::new(Schema::from_pairs(&[
///     ("name", DataType::Str),
///     ("gluten", DataType::Str),
///     ("kcal", DataType::Float),
///     ("saturated_fat", DataType::Float),
/// ]));
/// for (name, gluten, kcal, fat) in [
///     ("oats", "free", 0.8, 1.0),
///     ("bread", "full", 0.9, 2.0),
///     ("salad", "free", 0.5, 0.2),
///     ("steak", "free", 1.1, 5.0),
///     ("rice", "free", 0.7, 0.4),
/// ] {
///     table.push_row(vec![name.into(), gluten.into(), kcal.into(), fat.into()]).unwrap();
/// }
///
/// let db = PackageDb::new();
/// db.register_table("Recipes", table);
///
/// // `FROM Recipes R` now resolves by name (case-insensitively); a
/// // second session shares the catalog.
/// let session = db.session();
/// let exec = session
///     .execute(
///         "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 \
///          WHERE R.gluten = 'free' \
///          SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) BETWEEN 2.0 AND 2.5 \
///          MINIMIZE SUM(P.saturated_fat)",
///     )
///     .unwrap();
/// assert_eq!(exec.package.cardinality(), 3);
/// println!("{}", exec.explain()); // why DIRECT/SKETCHREFINE was chosen
/// ```
#[derive(Debug, Clone)]
pub struct PackageDb {
    shared: Arc<SharedState>,
    config: DbConfig,
}

impl Default for PackageDb {
    fn default() -> Self {
        Self::new()
    }
}

impl PackageDb {
    /// A fresh database (and its first session) with default
    /// configuration.
    pub fn new() -> Self {
        Self::with_config(DbConfig::default())
    }

    /// The shared registry described by `obs`.
    fn registry_for(obs: &ObsConfig) -> Registry {
        if obs.enabled {
            Registry::new()
        } else {
            Registry::disabled()
        }
    }

    /// A fresh database (and its first session) with explicit
    /// configuration. The router's telemetry-ring capacity is fixed
    /// here, from `config.router.capacity` — it is shared state, so
    /// later per-session capacity changes have no effect.
    pub fn with_config(config: DbConfig) -> Self {
        let shared = SharedState {
            router_ring: Mutex::new(TelemetryRing::with_capacity(config.router.capacity)),
            maintenance: config.maintenance,
            obs: Self::registry_for(&config.obs),
            obs_config: config.obs,
            ..SharedState::default()
        };
        PackageDb {
            shared: Arc::new(shared),
            config,
        }
    }

    /// Open a **durable** database rooted at `durability.dir`,
    /// recovering whatever a previous process persisted there: tables
    /// re-enter the catalog at their original versions, partitionings
    /// re-enter the cache (so the first SKETCHREFINE query after a
    /// restart is a `Hit`, not a rebuild), and router telemetry
    /// warm-starts the cost model. From then on every catalog mutation
    /// is logged to the WAL before it is acknowledged.
    ///
    /// Recovery replays the WAL over the latest snapshot in parallel
    /// (`durability.replay_threads`), partitioned by table; the result
    /// is deterministic at every thread count. A corrupt snapshot or a
    /// corrupt (fully present) WAL record refuses to open with
    /// [`DbError::Storage`]; a torn WAL tail — the normal crash
    /// artifact — is silently truncated.
    pub fn open(config: DbConfig, durability: Durability) -> DbResult<PackageDb> {
        let replay_pool =
            (durability.replay_threads > 1).then(|| ThreadPool::new(durability.replay_threads));
        // Created before the store so recovery latencies land in it too.
        let obs = Self::registry_for(&config.obs);
        let store_config = StoreConfig {
            dir: durability.dir,
            sync: durability.sync,
            injector: durability.injector,
            obs: obs.clone(),
            // Replay mirrors the live absorb-vs-merge decision, so
            // recovery republishes patched partitionings instead of
            // dropping them on every logged append.
            maintenance: config.maintenance.enabled.then_some(MaintenancePolicy {
                delta_threshold: config.maintenance.delta_threshold,
            }),
        };
        let (store, recovered) =
            Store::open_with_pool(store_config, replay_pool.as_ref()).map_err(storage_error)?;
        let state = recovered.state;

        let mut catalog = Catalog::default();
        let recovered_tables = state.tables.len() as u64;
        for image in state.tables {
            // With maintenance off every build covers the whole table.
            let main_rows = if config.maintenance.enabled {
                image.main_rows
            } else {
                image.table.num_rows() as u64
            };
            catalog.restore(image.name, image.table, image.version, main_rows);
        }
        catalog.ensure_version_floor(state.last_version);

        let cache = PartitionCache::default();
        let recovered_partitionings = state.partitionings.len() as u64;
        for image in state.partitionings {
            let spec = spec_from_image(image.spec);
            if let PartitionSpec::External { id } = spec {
                cache.ensure_external_floor(id);
            }
            cache.insert(
                image.table_key,
                image.version,
                image.attributes,
                spec,
                image.partitioning,
            );
        }

        let mut ring = TelemetryRing::with_capacity(config.router.capacity);
        let recovered_telemetry = state.telemetry.len() as u64;
        for image in &state.telemetry {
            ring.record(observation_from_image(image));
        }

        let recovered_acks = state.acked_tokens.len() as u64;
        let shared = SharedState {
            catalog: RwLock::new(catalog),
            cache,
            router_ring: Mutex::new(ring),
            durability: Some(DurabilityState {
                store: Mutex::new(store),
                snapshot_every: durability.snapshot_every,
                recovered_tables,
                recovered_partitionings,
                recovered_telemetry,
                recovered_acks,
                wal_replayed_records: recovered.wal_replayed_records,
                wal_tail_dropped_bytes: recovered.wal_tail_dropped_bytes,
                acked: Mutex::new(DurabilityState::bounded_acks(state.acked_tokens)),
            }),
            maintenance: config.maintenance,
            obs,
            obs_config: config.obs,
            ..SharedState::default()
        };
        Ok(PackageDb {
            shared: Arc::new(shared),
            config,
        })
    }

    /// `true` when this database persists its state (opened via
    /// [`PackageDb::open`]).
    pub fn is_durable(&self) -> bool {
        self.shared.durability.is_some()
    }

    /// Durability counters, `None` for in-memory databases.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        self.shared.durability.as_ref().map(DurabilityState::stats)
    }

    /// A handle onto the database's shared metrics registry. All
    /// sessions (and the subsystems they drive: cache, store, solver,
    /// server) record into this one registry; clone it freely. Disabled
    /// — every operation a no-op, snapshots empty — when
    /// `DbConfig.obs.enabled` was `false` at creation.
    pub fn obs_registry(&self) -> Registry {
        self.shared.obs.clone()
    }

    /// The captured slow queries, oldest first (bounded at the most
    /// recent 32). Empty unless [`ObsConfig::slow_query_ms`] is set.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.shared.slow_queries.lock().clone()
    }

    /// Force buffered WAL appends to disk. Meaningful under
    /// [`crate::durability::SyncPolicy::Manual`] (a server flushing at
    /// its own cadence); under `Always` every append already synced.
    /// No-op for in-memory databases.
    pub fn sync_wal(&self) -> DbResult<()> {
        match &self.shared.durability {
            Some(d) => d.store.lock().sync().map_err(storage_error),
            None => Ok(()),
        }
    }

    /// Capture the full engine state — catalog, partition cache, router
    /// telemetry — into a snapshot file and truncate the WAL. Returns
    /// the snapshot's size in bytes. [`DbError::Storage`] for in-memory
    /// databases.
    ///
    /// The catalog read lock is held across capture *and* the snapshot
    /// write, so no mutation can be logged and then lost to a
    /// concurrent WAL truncation: everything the snapshot misses is in
    /// the WAL that survives it (nothing), and everything appended
    /// after it replays on top.
    pub fn snapshot_now(&self) -> DbResult<u64> {
        let Some(durable) = &self.shared.durability else {
            return Err(DbError::Storage {
                detail: "snapshot_now on an in-memory database (open it with PackageDb::open)"
                    .into(),
            });
        };
        let catalog = self.shared.catalog.read();
        let tables = catalog
            .names()
            .iter()
            .filter_map(|name| catalog.resolve(name).ok())
            .map(|entry| TableImage {
                name: entry.name().to_owned(),
                version: entry.version(),
                main_rows: entry.main_rows(),
                table: entry.snapshot(),
            })
            .collect();
        let partitionings = self
            .shared
            .cache
            .export()
            .into_iter()
            .map(
                |(table_key, version, attributes, spec, partitioning)| PartitioningImage {
                    table_key,
                    version,
                    attributes,
                    spec: spec_to_image(&spec),
                    partitioning,
                },
            )
            .collect();
        // Ring lock taken and released before the store lock (see the
        // lock-order note in `crate::durability`).
        let telemetry = {
            let ring = self.shared.router_ring.lock();
            ring.snapshot().iter().map(observation_to_image).collect()
        };
        let state = StoreState {
            last_version: catalog.last_version(),
            tables,
            partitionings,
            telemetry,
            acked_tokens: durable.acked.lock().iter().copied().collect(),
        };
        durable.store.lock().snapshot(&state).map_err(storage_error)
    }

    /// Append `record` to the WAL. Called with the catalog write lock
    /// held, so file order equals LSN order with no gaps.
    fn log_record(&self, record: &WalRecord) -> DbResult<()> {
        match &self.shared.durability {
            Some(d) => d.store.lock().append(record).map_err(storage_error),
            None => Ok(()),
        }
    }

    /// Remember a client's acked idempotency token (durable databases
    /// only). Called with the catalog write lock held, right after the
    /// mutation's WAL record was appended, so the ack window and the
    /// log agree on exactly which mutations were acknowledged.
    fn record_ack(&self, token: Option<u64>, version: u64, kind: AckKind) {
        let (Some(token), Some(durable)) = (token, &self.shared.durability) else {
            return;
        };
        let mut acked = durable.acked.lock();
        if acked.len() >= DurabilityState::ACK_CAPACITY {
            acked.pop_front();
        }
        acked.push_back(AckImage {
            token,
            version,
            kind,
        });
    }

    /// The acked `(token → version)` pairs this database remembers,
    /// oldest first: what recovery restored plus what this process has
    /// acked since (bounded to the newest 1024). Empty for in-memory
    /// databases. A serving layer seeds its duplicate-detection window
    /// from this at startup, so a mutation retried across a restart is
    /// re-acknowledged with its original version instead of re-applied.
    pub fn acked_mutations(&self) -> Vec<AckImage> {
        match &self.shared.durability {
            Some(d) => d.acked.lock().iter().copied().collect(),
            None => Vec::new(),
        }
    }

    /// Snapshot automatically once enough records accumulate. Called
    /// *after* the catalog write lock is released (the lock is not
    /// re-entrant; `snapshot_now` retakes the read side). Best-effort:
    /// a failure poisons the store, surfaces in the stats counters, and
    /// will resurface as a typed error on the next explicit durability
    /// call.
    fn maybe_auto_snapshot(&self) {
        let Some(durable) = &self.shared.durability else {
            return;
        };
        let Some(every) = durable.snapshot_every else {
            return;
        };
        if durable.store.lock().stats().records_since_snapshot >= every {
            let _ = self.snapshot_now();
        }
    }

    /// A new session handle onto the same shared state: catalog,
    /// partition cache, telemetry, and worker pool are shared; the
    /// [`DbConfig`] is copied, so the new session can be tuned
    /// independently ([`PackageDb::config_mut`]).
    pub fn session(&self) -> PackageDb {
        self.clone()
    }

    /// `true` when `other` is a session onto the same shared state
    /// (catalog, cache, pool) as `self`.
    pub fn shares_state_with(&self, other: &PackageDb) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// The session's configuration.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// Mutable access to the session's configuration (solver budgets,
    /// routing thresholds, REFINE threads, …). Per-session: other
    /// handles onto the same database are unaffected. Takes effect on
    /// the next execution; a changed `sketchrefine.threads` lazily
    /// picks (or spawns) the shared pool of that size.
    pub fn config_mut(&mut self) -> &mut DbConfig {
        &mut self.config
    }

    /// Attach a shared telemetry sink; every solver call made on behalf
    /// of *any* session of this database reports into it. The sink is
    /// also wired to the database's metrics registry, so solver
    /// counters (`solver.calls`, `solver.solve`, …) surface through
    /// [`PackageDb::obs_registry`] alongside everything else.
    pub fn set_telemetry(&self, telemetry: Arc<Telemetry>) {
        telemetry.attach_registry(self.shared.obs.clone());
        *self.shared.telemetry.write() = Some(telemetry);
    }

    // ------------------------------------------------------------------
    // Cost-based router
    // ------------------------------------------------------------------

    /// Append one observation to the shared router-telemetry history —
    /// the warm-start hook for callers replaying persisted telemetry
    /// (clean executions record themselves automatically). The ring
    /// keeps the newest [`RouterConfig::capacity`] observations, as
    /// configured when the database was created.
    pub fn record_router_observation(
        &self,
        features: QueryFeatures,
        strategy: Strategy,
        cost: Duration,
    ) {
        self.shared.router_ring.lock().record(Observation {
            features,
            strategy,
            cost,
        });
    }

    /// Observable router counters: telemetry samples currently held
    /// per strategy, and how many `Route::Auto` plans the model vs the
    /// threshold fallback decided. Shared across all sessions.
    pub fn router_stats(&self) -> RouterStats {
        let (direct_samples, sketchrefine_samples) = self.shared.router_ring.lock().counts();
        RouterStats {
            direct_samples,
            sketchrefine_samples,
            model_decisions: self.shared.router_model_decisions.load(Ordering::Acquire),
            fallback_decisions: self
                .shared
                .router_fallback_decisions
                .load(Ordering::Acquire),
        }
    }

    // ------------------------------------------------------------------
    // Catalog
    // ------------------------------------------------------------------

    /// Register (or replace) a table under `name`; returns the catalog
    /// version. Replacing invalidates cached partitionings of the old
    /// contents. Visible to every session immediately. On a durable
    /// database the registration is logged before this returns; a WAL
    /// failure cannot be surfaced through the infallible signature, so
    /// it fail-stops the store instead (poisoned; see
    /// [`PackageDb::durability_stats`] and the next fallible durability
    /// call).
    pub fn register_table(&self, name: impl Into<String>, table: Table) -> u64 {
        self.register_table_with_token(name, table, None)
    }

    /// [`PackageDb::register_table`] carrying an optional client
    /// idempotency token. On a durable database the token rides the
    /// WAL record and enters the durable ack window
    /// ([`PackageDb::acked_mutations`]), so a serving layer can
    /// re-acknowledge the registration after a restart instead of
    /// applying it twice. `None` behaves exactly like
    /// [`PackageDb::register_table`].
    pub fn register_table_with_token(
        &self,
        name: impl Into<String>,
        table: Table,
        token: Option<u64>,
    ) -> u64 {
        let name = name.into();
        let key = Catalog::key(&name);
        let version = {
            let mut catalog = self.shared.catalog.write();
            let hold_start = Instant::now();
            let version = catalog.register(name.clone(), table);
            if self.is_durable() {
                let table = catalog.resolve(&name).expect("just registered").snapshot();
                if self
                    .log_record(&WalRecord {
                        lsn: version,
                        op: WalOp::RegisterTable { name, table, token },
                    })
                    .is_ok()
                {
                    self.record_ack(token, version, AckKind::Register);
                }
            }
            self.shared.obs.incr("db.table.register");
            self.shared
                .obs
                .observe("db.catalog.write_hold", hold_start.elapsed());
            version
        };
        self.shared.cache.invalidate_stale(&key, version);
        self.maybe_auto_snapshot();
        version
    }

    /// Remove a table and every cached partitioning of it. On a durable
    /// database the drop is logged (at its own fresh version) before
    /// this returns.
    pub fn drop_table(&self, name: &str) -> DbResult<()> {
        let log_result = {
            let mut catalog = self.shared.catalog.write();
            let (entry, version) = catalog.drop_table(name)?;
            // Evict by name while the name is still unregistrable: after
            // the write lock a same-name table could already own entries.
            self.shared.cache.invalidate_table(&Catalog::key(name));
            self.log_record(&WalRecord {
                lsn: version,
                op: WalOp::DropTable {
                    name: entry.name().to_owned(),
                },
            })
        };
        self.maybe_auto_snapshot();
        log_result
    }

    /// Snapshot a registered table (case-insensitive resolution). The
    /// returned `Arc` stays valid — and unchanged — however the catalog
    /// mutates afterwards.
    pub fn table(&self, name: &str) -> DbResult<Arc<Table>> {
        Ok(self.shared.catalog.read().resolve(name)?.snapshot())
    }

    /// The current version stamp of a registered table.
    pub fn table_version(&self, name: &str) -> DbResult<u64> {
        Ok(self.shared.catalog.read().resolve(name)?.version())
    }

    /// Registered table names.
    pub fn table_names(&self) -> Vec<String> {
        self.shared.catalog.read().names()
    }

    /// Mutate a table in place. On success, stamps a fresh version and
    /// invalidates cached partitionings built over the old contents;
    /// returns `f`'s output and the new version. A failed mutation
    /// (which must leave the table unchanged, see [`Catalog::mutate`])
    /// keeps version and cache intact. Snapshots taken by concurrent
    /// executions keep the pre-mutation contents (copy-on-write).
    ///
    /// `f` runs **under the catalog write lock** and must not call back
    /// into this database (no `table()`, `execute()`, … on any session
    /// of it — locks here are not re-entrant, so a callback deadlocks).
    /// Read whatever you need via [`PackageDb::table`] *before* the
    /// call; `f` receives the authoritative current contents anyway.
    pub fn mutate_table<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut Table) -> paq_relational::RelResult<R>,
    ) -> DbResult<(R, u64)> {
        let key = Catalog::key(name);
        let (result, current, log_result) = {
            let mut catalog = self.shared.catalog.write();
            let before = catalog.version_of(&key);
            let result = catalog.mutate(name, f);
            // Evict on the error path too: a closure that failed
            // *after* observably changing the table still got a fresh
            // version stamped (see [`Catalog::mutate`]), and eviction
            // belongs to the mutation path — lookups never evict.
            let current = match &result {
                Ok((_, version)) => Some(*version),
                Err(_) => catalog.version_of(&key),
            };
            // Log exactly when a fresh version was stamped — i.e. when
            // the table observably changed, including the
            // partial-mutation-then-error path. The full after-image
            // goes to the WAL, still under the write lock.
            let log_result = match current {
                Some(version) if before != Some(version) => {
                    let entry = catalog.resolve(name).expect("version proves it exists");
                    self.log_record(&WalRecord {
                        lsn: version,
                        op: WalOp::MutateTable {
                            name: entry.name().to_owned(),
                            table: entry.snapshot(),
                        },
                    })
                }
                _ => Ok(()),
            };
            (result, current, log_result)
        };
        if let Some(version) = current {
            self.shared.cache.invalidate_stale(&key, version);
        }
        self.maybe_auto_snapshot();
        let out = result?;
        log_result?;
        Ok(out)
    }

    /// Append one row to a registered table; returns the new version.
    /// The durable form logs the row alone (a small delta record), not
    /// a full after-image — [`Table::push_row`] validates before
    /// mutating, so a failed append changes nothing and logs nothing.
    pub fn append_row(&self, name: &str, row: Vec<Value>) -> DbResult<u64> {
        self.append_row_with_token(name, row, None)
    }

    /// [`PackageDb::append_row`] carrying an optional client
    /// idempotency token (see
    /// [`PackageDb::register_table_with_token`]).
    ///
    /// Under [`MaintenanceConfig::enabled`] this is where delta-aware
    /// maintenance happens, still inside the catalog write critical
    /// section (so absorbs are serialized in version order and cannot
    /// race a cold build's publish, which holds the catalog read lock):
    ///
    /// * **absorb** — while the table has grown by at most
    ///   [`MaintenanceConfig::delta_threshold`] rows past its base
    ///   build, every cached partitioning is patched in place and
    ///   re-keyed to the fresh version; nothing is invalidated and the
    ///   next query is still a `Hit`;
    /// * **merge** — past the threshold, the base moves up to the full
    ///   table, stale entries are invalidated, and (when
    ///   [`MaintenanceConfig::background_rebuild`] is on) the exact
    ///   artifacts queries were using are rebuilt on a detached thread.
    pub fn append_row_with_token(
        &self,
        name: &str,
        row: Vec<Value>,
        token: Option<u64>,
    ) -> DbResult<u64> {
        let m = self.shared.maintenance;
        let key = Catalog::key(name);
        let mut rebuilds: Vec<(Vec<String>, Arc<Table>, u64, usize)> = Vec::new();
        let (version, log_result) = {
            let mut catalog = self.shared.catalog.write();
            let hold_start = Instant::now();
            let before = catalog.version_of(&key);
            let row_for_log = self.is_durable().then(|| row.clone());
            let (version, absorb) =
                catalog.append_row(name, row, m.enabled.then_some(m.delta_threshold))?;
            let log_result = match row_for_log {
                Some(row) => {
                    let display = catalog
                        .resolve(name)
                        .expect("just mutated")
                        .name()
                        .to_owned();
                    let result = self.log_record(&WalRecord {
                        lsn: version,
                        op: WalOp::AppendRow {
                            name: display,
                            row,
                            token,
                        },
                    });
                    if result.is_ok() {
                        self.record_ack(token, version, AckKind::Append);
                    }
                    result
                }
                None => Ok(()),
            };
            if m.enabled {
                let table = catalog.resolve(name).expect("just mutated").snapshot();
                if absorb {
                    let from = before.expect("append bumped an existing table");
                    let (patched, _evicted) =
                        self.shared.cache.absorb_append(&key, from, version, &table);
                    self.shared.absorbed_appends.fetch_add(1, Ordering::AcqRel);
                    self.shared
                        .patched_entries
                        .fetch_add(patched, Ordering::AcqRel);
                    self.shared.obs.incr("db.cache.absorb");
                    self.shared.obs.add("db.cache.patched", patched);
                } else {
                    self.shared.delta_merges.fetch_add(1, Ordering::AcqRel);
                    self.shared.obs.incr("db.cache.merge");
                    let evicted = self.shared.cache.invalidate_stale_collect(&key, version);
                    if m.background_rebuild {
                        for attrs in evicted {
                            rebuilds.push((attrs, Arc::clone(&table), version, table.num_rows()));
                        }
                    }
                }
            }
            self.shared.obs.incr("db.row.append");
            self.shared
                .obs
                .observe("db.catalog.write_hold", hold_start.elapsed());
            (version, log_result)
        };
        if !m.enabled {
            self.shared.cache.invalidate_stale(&key, version);
        }
        if !rebuilds.is_empty() {
            self.spawn_background_rebuilds(key, rebuilds);
        }
        self.maybe_auto_snapshot();
        log_result?;
        Ok(version)
    }

    /// Rebuild just-invalidated partitionings on a detached OS thread so
    /// the first query after a merge finds a warm cache instead of
    /// paying the cold build inline. Deliberately *not* a shared-pool
    /// job: rebuild work outlives the append that spawned it, and a
    /// pool job joining its own pool's wave would deadlock. Each job
    /// re-checks the table version before building, and the
    /// single-flight machinery dedups it against any racing foreground
    /// query building the same artifact.
    fn spawn_background_rebuilds(
        &self,
        key: String,
        jobs: Vec<(Vec<String>, Arc<Table>, u64, usize)>,
    ) {
        let db = self.clone();
        std::thread::spawn(move || {
            for (attrs, table, version, build_base) in jobs {
                if db.shared.catalog.read().version_of(&key) != Some(version) {
                    continue; // the table moved on; a fresher pass owns it
                }
                let pool = db.shared.pool(db.config.sketchrefine.threads);
                if db
                    .obtain_partitioning(&key, version, attrs, &table, pool.as_ref(), build_base)
                    .is_ok()
                {
                    db.shared.background_rebuilds.fetch_add(1, Ordering::AcqRel);
                }
            }
        });
    }

    // ------------------------------------------------------------------
    // Partition cache
    // ------------------------------------------------------------------

    /// Install an externally built partitioning (radius-limited,
    /// dynamically extracted from a quad-tree hierarchy, …) for the
    /// table's *current* contents. Subsequent SKETCHREFINE routes — on
    /// any session — reuse it as a cache hit until the table mutates.
    pub fn install_partitioning(&self, name: &str, partitioning: Partitioning) -> DbResult<()> {
        // Hold the catalog read lock across the insert so the version
        // the entry is keyed by cannot go stale mid-install.
        let catalog = self.shared.catalog.read();
        let entry = catalog.resolve(name)?;
        let rows = entry.table().num_rows();
        if !partitioning.is_disjoint_cover(rows) {
            return Err(DbError::InvalidPartitioning {
                relation: entry.name().to_owned(),
                detail: format!(
                    "groups must disjointly cover all {rows} rows of the current table"
                ),
            });
        }
        let version = entry.version();
        let attributes = partitioning.attributes.clone();
        let id = self.shared.cache.next_external_id();
        self.shared.cache.insert(
            Catalog::key(name),
            version,
            attributes,
            PartitionSpec::External { id },
            Arc::new(partitioning),
        );
        Ok(())
    }

    /// Observable partition-cache counters (hits, misses,
    /// invalidations, live entries), shared across all sessions.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Point-in-time snapshot of the database's observable state: every
    /// registered table (name, row count, version) plus the shared
    /// partition-cache counters. One brief catalog read lock covers the
    /// table listing, so the rows/version pairs are mutually consistent;
    /// this is what a serving layer reports to remote clients without
    /// shipping table contents.
    pub fn stats(&self) -> DbStats {
        let tables = {
            let catalog = self.shared.catalog.read();
            let mut tables: Vec<TableStats> = catalog
                .names()
                .iter()
                .filter_map(|name| catalog.resolve(name).ok())
                .map(|entry| TableStats {
                    name: entry.name().to_owned(),
                    rows: entry.table().num_rows(),
                    version: entry.version(),
                })
                .collect();
            tables.sort_by(|a, b| a.name.cmp(&b.name));
            tables
        };
        DbStats {
            tables,
            cache: self.shared.cache.stats(),
            router: self.router_stats(),
            maintenance: self.maintenance_stats(),
            durability: self.durability_stats(),
        }
    }

    /// Observable delta-maintenance counters (absorbed appends, patched
    /// entries, merges, background rebuilds), shared across all
    /// sessions. All zeros when maintenance is off.
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        MaintenanceStats {
            enabled: self.shared.maintenance.enabled,
            delta_threshold: self.shared.maintenance.delta_threshold,
            absorbed_appends: self.shared.absorbed_appends.load(Ordering::Acquire),
            patched_entries: self.shared.patched_entries.load(Ordering::Acquire),
            merges: self.shared.delta_merges.load(Ordering::Acquire),
            background_rebuilds: self.shared.background_rebuilds.load(Ordering::Acquire),
        }
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Parse and execute a PaQL query, letting the planner route it.
    pub fn execute(&self, paql: &str) -> DbResult<Execution> {
        let query = parse_paql(paql)?;
        self.execute_with(&query, Route::Auto)
    }

    /// Execute an already-built query (from [`paq_lang::Paql`] or the
    /// parser), letting the planner route it.
    pub fn execute_query(&self, query: impl Into<PackageQuery>) -> DbResult<Execution> {
        self.execute_with(&query.into(), Route::Auto)
    }

    /// Execute with explicit routing control.
    pub fn execute_with(&self, query: &PackageQuery, route: Route) -> DbResult<Execution> {
        self.execute_inner(query, route, None)
    }

    /// Execute with SKETCHREFINE over a caller-supplied offline
    /// partitioning of the table's current contents, bypassing the
    /// partition cache (the cache is neither consulted nor populated).
    /// This is the benchmark/ablation entry point: the same database —
    /// catalog, solver budgets, worker pool — evaluates many queries
    /// against many partitionings without cross-talk between them.
    pub fn execute_with_partitioning(
        &self,
        query: &PackageQuery,
        partitioning: Arc<Partitioning>,
    ) -> DbResult<Execution> {
        self.execute_inner(query, Route::ForceSketchRefine, Some(partitioning))
    }

    fn execute_inner(
        &self,
        query: &PackageQuery,
        route: Route,
        provided: Option<Arc<Partitioning>>,
    ) -> DbResult<Execution> {
        let total_start = Instant::now();

        // Observability: capture a per-request trace when anything will
        // read it, and install the ambient context so spans opened
        // anywhere below (planner, cache, evaluators) land here. The
        // trace is passive — nothing reads it mid-flight — so capture
        // cannot perturb the bit-identical determinism guarantees.
        let obs = self.shared.obs.clone();
        let trace = (obs.is_enabled() || self.shared.obs_config.slow_query_ms.is_some())
            .then(|| Arc::new(Trace::new(self.shared.obs_config.trace_capacity)));
        let _obs_scope = obs_scope(ObsContext {
            registry: obs.clone(),
            trace: trace.clone(),
        });
        let execute_span = span("execute");
        let plan_span = span("plan");

        // --- plan: snapshot, check schema, route ----------------------
        // The catalog read lock is held only for the snapshot; from
        // here on the execution works exclusively on `table` (the
        // contents at `table_version`), so concurrent mutations can
        // proceed and cannot skew this query.
        let (relation, key, table_version, table, build_base) = {
            let catalog = self.shared.catalog.read();
            let entry = catalog.resolve(&query.relation)?;
            let key = Catalog::key(entry.name());
            // Under delta maintenance a cold build partitions only the
            // base prefix and replays the absorbed delta as ordered
            // patches, so it lands bit-identical to a cache entry
            // patched live (see `obtain_partitioning`). The base lives
            // in the entry, so it is snapshotted with the version; with
            // maintenance off it is always the whole table.
            let build_base = entry.main_rows() as usize;
            (
                entry.name().to_owned(),
                key,
                entry.version(),
                entry.snapshot(),
                build_base,
            )
        };
        let rows = table.num_rows();

        let missing = missing_attributes(query, &table);
        if !missing.is_empty() {
            return Err(DbError::SchemaMismatch { relation, missing });
        }
        validate(query, table.schema())?;

        let partition_attrs = partition_attributes(query, &table);
        let features = QueryFeatures::extract(query, rows, self.config.default_groups);
        let (mut strategy, reason, verdict) = match route {
            Route::ForceDirect => (Strategy::Direct, RouteReason::Forced, RouterVerdict::Pinned),
            Route::ForceSketchRefine => (
                Strategy::SketchRefine,
                RouteReason::Forced,
                RouterVerdict::Pinned,
            ),
            Route::Auto => {
                // The model is only consulted where SKETCHREFINE is
                // actually executable (bounded REPEAT, something to
                // partition on) — elsewhere DIRECT is the only plan
                // and the static ladder explains why. With too little
                // telemetry the decision is a cold start and the
                // ladder below reproduces the pre-router planner
                // bit-identically.
                let decision = if self.config.router.enabled
                    && query.max_multiplicity().is_some()
                    && !partition_attrs.is_empty()
                {
                    router::decide(
                        &features,
                        &self.shared.router_ring.lock().snapshot(),
                        &self.config.router,
                    )
                } else {
                    let (direct_samples, sketchrefine_samples) =
                        self.shared.router_ring.lock().counts();
                    RouterDecision::ColdStart {
                        direct_samples,
                        sketchrefine_samples,
                    }
                };
                match decision {
                    RouterDecision::Model(predicted) => {
                        self.shared
                            .router_model_decisions
                            .fetch_add(1, Ordering::AcqRel);
                        obs.incr("db.route.model");
                        (
                            predicted.cheaper(),
                            RouteReason::CostModel,
                            RouterVerdict::Model(predicted),
                        )
                    }
                    RouterDecision::ColdStart {
                        direct_samples,
                        sketchrefine_samples,
                    } => {
                        self.shared
                            .router_fallback_decisions
                            .fetch_add(1, Ordering::AcqRel);
                        obs.incr("db.route.fallback");
                        let verdict = RouterVerdict::Fallback {
                            direct_samples,
                            sketchrefine_samples,
                        };
                        let (strategy, reason) = if query.max_multiplicity().is_none() {
                            (Strategy::Direct, RouteReason::UnboundedRepeat)
                        } else if rows <= self.config.direct_threshold {
                            (
                                Strategy::Direct,
                                RouteReason::SmallTable {
                                    rows,
                                    threshold: self.config.direct_threshold,
                                },
                            )
                        } else if partition_attrs.is_empty() {
                            (Strategy::Direct, RouteReason::NoPartitionAttributes)
                        } else {
                            (
                                Strategy::SketchRefine,
                                RouteReason::LargeTable {
                                    rows,
                                    threshold: self.config.direct_threshold,
                                },
                            )
                        };
                        (strategy, reason, verdict)
                    }
                }
            }
        };
        drop(plan_span);
        let plan = total_start.elapsed();

        // --- evaluate -------------------------------------------------
        let mut cache = CacheOutcome::NotUsed;
        let mut partitioning_time = Duration::ZERO;
        let mut report = None;
        let mut fell_back_to_direct = false;

        // The catalog resolved the relation and validated the query
        // above; skip the evaluators' catalog-less binding check.
        let _scope = paq_core::catalog_scope();

        let evaluate_span = span("evaluate");
        let evaluate_start = Instant::now();
        let package = match strategy {
            Strategy::Direct => self.direct_evaluator().evaluate(query, &table)?,
            Strategy::SketchRefine => {
                // One shared pool serves the offline build and
                // wave-based REFINE alike, across all sessions.
                let pool = self.shared.pool(self.config.sketchrefine.threads);
                let (partitioning, outcome) = if let Some(p) = provided {
                    if !p.is_disjoint_cover(rows) {
                        return Err(DbError::InvalidPartitioning {
                            relation,
                            detail: format!(
                                "groups must disjointly cover all {rows} rows of the current table"
                            ),
                        });
                    }
                    let groups = p.num_groups();
                    let attributes = p.attributes.clone();
                    (p, CacheOutcome::Provided { groups, attributes })
                } else if partition_attrs.is_empty() {
                    return Err(DbError::Engine(EngineError::Unsupported(
                        "SKETCHREFINE needs at least one numeric attribute to partition on".into(),
                    )));
                } else {
                    let (p, outcome, build_time) = self.obtain_partitioning(
                        &key,
                        table_version,
                        partition_attrs,
                        &table,
                        pool.as_ref(),
                        build_base,
                    )?;
                    partitioning_time = build_time;
                    (p, outcome)
                };
                cache = outcome;

                match self.sketchrefine_evaluator(pool).evaluate_with_report(
                    query,
                    &table,
                    &partitioning,
                ) {
                    Ok((pkg, r)) => {
                        report = Some(r);
                        pkg
                    }
                    Err(EngineError::Infeasible {
                        possibly_false: true,
                    }) if route == Route::Auto && self.config.fallback_to_direct => {
                        // §4.4: the unpartitioned problem cannot be
                        // falsely infeasible — settle the verdict with
                        // DIRECT.
                        fell_back_to_direct = true;
                        strategy = Strategy::Direct;
                        self.direct_evaluator().evaluate(query, &table)?
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        };
        let evaluate = evaluate_start.elapsed() - partitioning_time;
        drop(evaluate_span);

        // Feed the observed cost back into the shared telemetry ring —
        // every clean execution is training signal, whether the route
        // was model-chosen, threshold-chosen, or pinned (benchmarks
        // forcing both strategies are exactly how the model warms up).
        // Two exclusions keep the signal clean: the §4.4 DIRECT re-run
        // (its evaluate time mixes the failed SKETCHREFINE attempt
        // with the DIRECT solve) and unbounded-REPEAT executions
        // (encoded as `repeat_bound = 0`, the numeric *bottom* of an
        // axis they semantically max out — training on them would
        // invert the feature for ordinary bounded queries, and the
        // model never routes them anyway).
        if self.config.router.enabled && features.repeat_bound > 0 {
            let observed = match (strategy, &report) {
                (Strategy::SketchRefine, Some(r)) => {
                    Some((Strategy::SketchRefine, r.observed_cost()))
                }
                (Strategy::Direct, _) if !fell_back_to_direct => Some((Strategy::Direct, evaluate)),
                _ => None,
            };
            if let Some((observed_strategy, cost)) = observed {
                self.record_router_observation(features, observed_strategy, cost);
            }
        }

        drop(execute_span);
        let total = total_start.elapsed();
        match strategy {
            Strategy::Direct => obs.incr("db.execute.direct"),
            Strategy::SketchRefine => obs.incr("db.execute.sketchrefine"),
        }
        if fell_back_to_direct {
            obs.incr("db.fallback_to_direct");
        }

        if let (Some(trace_ref), Some(threshold)) = (&trace, self.shared.obs_config.slow_query_ms) {
            if total >= Duration::from_millis(threshold) {
                obs.incr("db.slow_queries");
                let mut log = self.shared.slow_queries.lock();
                if log.len() >= SharedState::MAX_SLOW_QUERIES {
                    log.remove(0);
                }
                log.push(SlowQuery {
                    query: query.to_string(),
                    total,
                    strategy,
                    spans: trace_ref.render(),
                });
            }
        }

        Ok(Execution {
            package,
            relation,
            rows,
            table_version,
            strategy,
            reason,
            router: verdict,
            cache,
            report,
            fell_back_to_direct,
            timings: Timings {
                plan,
                partitioning: partitioning_time,
                evaluate,
                total,
            },
            trace,
        })
    }

    /// Serve (or lazily build) the partitioning for `table` at
    /// `version` on the attributes `attrs` — single-flight: racing
    /// sessions produce exactly one `Miss` (the builder) and `Hit`s
    /// (everyone served from the cache, including waiters).
    /// `build_base` is the row count the base partitioning covers
    /// (always `table.num_rows()` when maintenance is off): a cold
    /// build partitions rows `[0, build_base)` and then replays rows
    /// `[build_base, num_rows)` as ordered patches — the canonical
    /// delta-aware artifact, bit-identical to a cache entry patched
    /// live by absorbed appends, at every thread count.
    fn obtain_partitioning(
        &self,
        key: &str,
        version: u64,
        attrs: Vec<String>,
        table: &Table,
        pool: Option<&Arc<ThreadPool>>,
        build_base: usize,
    ) -> DbResult<(Arc<Partitioning>, CacheOutcome, Duration)> {
        loop {
            if let Some((p, attributes, _)) = self.shared.cache.lookup(key, version, &attrs) {
                self.shared.obs.incr("db.cache.hit");
                let groups = p.num_groups();
                return Ok((p, CacheOutcome::Hit { groups, attributes }, Duration::ZERO));
            }
            // Miss: either adopt an in-flight build of the same
            // artifact or claim the build ourselves. The re-check under
            // the pending lock closes the race with a builder that
            // published between our lookup and here.
            let build_key = (key.to_owned(), version, attrs.clone());
            enum Role {
                Build(Arc<BuildSlot>),
                Wait(Arc<BuildSlot>),
            }
            let role = {
                let mut pending = self.shared.pending_builds.lock();
                if let Some((p, attributes, _)) = self.shared.cache.lookup(key, version, &attrs) {
                    self.shared.obs.incr("db.cache.hit");
                    let groups = p.num_groups();
                    return Ok((p, CacheOutcome::Hit { groups, attributes }, Duration::ZERO));
                }
                match pending.get(&build_key) {
                    Some(slot) => Role::Wait(Arc::clone(slot)),
                    None => {
                        let slot = Arc::new(BuildSlot::default());
                        pending.insert(build_key.clone(), Arc::clone(&slot));
                        Role::Build(slot)
                    }
                }
            };
            match role {
                Role::Wait(slot) => {
                    // The time spent blocked on another session's
                    // build is partitioning cost from this execution's
                    // point of view; report it so explain() shows why
                    // a "hit" was slow.
                    let wait_span = span("partition.wait");
                    let wait_start = Instant::now();
                    let Some(shared_build) = slot.wait() else {
                        drop(wait_span);
                        // The build failed; retry, possibly as the
                        // next builder.
                        continue;
                    };
                    let waited = wait_start.elapsed();
                    drop(wait_span);
                    self.shared.obs.incr("db.cache.hit");
                    self.shared.obs.observe("db.cache.wait", waited);
                    // Prefer the published cache entry (normal hit
                    // bookkeeping, LRU refresh); when a racing
                    // mutation suppressed the publish, adopt the
                    // builder's artifact directly — it was built for
                    // exactly the snapshot version we planned against,
                    // and every waiter sharing it avoids re-running
                    // the same doomed build.
                    if let Some((p, attributes, _)) = self.shared.cache.lookup(key, version, &attrs)
                    {
                        let groups = p.num_groups();
                        return Ok((p, CacheOutcome::Hit { groups, attributes }, waited));
                    }
                    self.shared.cache.record_hit();
                    let groups = shared_build.num_groups();
                    return Ok((
                        shared_build,
                        CacheOutcome::Hit {
                            groups,
                            attributes: attrs,
                        },
                        waited,
                    ));
                }
                Role::Build(slot) => {
                    // Wakes waiters on drop — even if the build errors
                    // or panics — after any successful publish below.
                    let mut guard = BuildGuard {
                        shared: &self.shared,
                        key: build_key,
                        slot,
                        result: None,
                    };
                    self.shared.cache.record_miss();
                    self.shared.obs.incr("db.cache.miss");
                    // τ comes from the base prefix, not the live row
                    // count: a patched cache entry and this cold build
                    // must agree on the spec to be bit-identical.
                    let tau = (build_base / self.config.default_groups.max(1)).max(2);
                    let build_span = span("partition.build");
                    let start = Instant::now();
                    let partitioner =
                        Partitioner::new(PartitionConfig::by_size(attrs.clone(), tau));
                    // The offline build shares the REFINE pool: leaf
                    // statistics are embarrassingly parallel and the
                    // result is identical. Partition the base prefix,
                    // then replay the absorbed delta as patches (a
                    // no-op loop when maintenance is off).
                    let mut built = match pool {
                        Some(pool) => {
                            partitioner.partition_prefix_with_pool(table, build_base, pool)?
                        }
                        None => partitioner.partition_prefix(table, build_base)?,
                    };
                    for row in build_base..table.num_rows() {
                        built.patch_append(table, row)?;
                    }
                    let build_time = start.elapsed();
                    drop(build_span);
                    self.shared.obs.observe("db.cache.build", build_time);
                    let built = Arc::new(built);
                    // Publish only if the snapshot we built against is
                    // still the table's current version; a mutation
                    // racing the build must not get a stale artifact
                    // parked in the cache after its own invalidation
                    // pass already ran. The catalog read guard is held
                    // *across* the insert (same catalog → cache order
                    // as `install_partitioning`), so no mutation can
                    // stamp a fresh version between the check and the
                    // publish.
                    {
                        let catalog = self.shared.catalog.read();
                        if catalog.version_of(key) == Some(version) {
                            self.shared.cache.insert(
                                key.to_owned(),
                                version,
                                attrs.clone(),
                                PartitionSpec::BySize { tau },
                                Arc::clone(&built),
                            );
                        }
                    }
                    guard.result = Some(Arc::clone(&built));
                    let groups = built.num_groups();
                    return Ok((
                        built,
                        CacheOutcome::Miss {
                            groups,
                            attributes: attrs,
                        },
                        build_time,
                    ));
                }
            }
        }
    }

    fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.shared.telemetry.read().clone()
    }

    fn direct_evaluator(&self) -> Direct {
        let d = Direct::new(self.config.solver.clone());
        match self.telemetry() {
            Some(t) => d.with_telemetry(t),
            None => d,
        }
    }

    fn sketchrefine_evaluator(&self, pool: Option<Arc<ThreadPool>>) -> SketchRefine {
        let sr = SketchRefine::new(self.config.solver.clone())
            .with_options(self.config.sketchrefine.clone());
        let sr = match pool {
            Some(pool) => sr.with_pool(pool),
            None => sr,
        };
        match self.telemetry() {
            Some(t) => sr.with_telemetry(t),
            None => sr,
        }
    }
}

/// Query-referenced attributes (global predicates, objective, and WHERE
/// columns) missing from the table's schema.
fn missing_attributes(query: &PackageQuery, table: &Table) -> Vec<String> {
    let mut referenced = query.query_attributes();
    if let Some(w) = &query.where_clause {
        referenced.extend(w.referenced_columns());
    }
    referenced.sort();
    referenced.dedup();
    referenced
        .into_iter()
        .filter(|a| !table.schema().contains(a))
        .collect()
}

/// Numeric attributes to partition on: the query's attributes when
/// usable, otherwise every numeric column (minus the reserved `gid`).
fn partition_attributes(query: &PackageQuery, table: &Table) -> Vec<String> {
    let numeric = |a: &String| {
        table
            .schema()
            .column(a)
            .map(|def| def.ty.is_numeric())
            .unwrap_or(false)
    };
    let mut attrs: Vec<String> = query
        .query_attributes()
        .into_iter()
        .filter(|a| a != GID_COLUMN && numeric(a))
        .collect();
    if attrs.is_empty() {
        attrs = table
            .schema()
            .numeric_names()
            .into_iter()
            .filter(|a| *a != GID_COLUMN)
            .map(str::to_owned)
            .collect();
    }
    attrs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sessions must be freely shareable across threads.
    #[test]
    fn package_db_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PackageDb>();
        assert_send_sync::<SharedState>();
    }

    #[test]
    fn stats_snapshot_lists_tables_sorted_with_versions() {
        use paq_relational::{DataType, Schema, Table, Value};
        let db = PackageDb::new();
        assert!(db.stats().tables.is_empty());
        let mut t = Table::new(Schema::from_pairs(&[("x", DataType::Float)]));
        t.push_row(vec![Value::Float(1.0)]).unwrap();
        let vb = db.register_table("Beta", t.clone());
        let va = db.register_table("alpha", t);
        let v2 = db.append_row("Beta", vec![Value::Float(2.0)]).unwrap();
        let stats = db.stats();
        assert_eq!(
            stats
                .tables
                .iter()
                .map(|t| (t.name.as_str(), t.rows, t.version))
                .collect::<Vec<_>>(),
            vec![("Beta", 2, v2), ("alpha", 1, va)]
        );
        assert!(vb < va && va < v2, "versions are globally monotone");
        assert_eq!(stats.cache.hits + stats.cache.misses, 0);
    }
}
