//! Shared experiment plumbing: dataset preparation, evaluation wrappers
//! with timing, dataset-fraction masks, and approximation ratios.
//!
//! Evaluations run through [`paq_db::PackageDb`] with forced routing —
//! the same session layer production callers use — so experiments
//! exercise the catalog/cache/planner path. A [`PreparedDataset`] *owns*
//! its session: the table is registered once at preparation time and
//! every evaluation reuses it, instead of cloning the full table into a
//! throwaway session per run. The free [`run_direct`]/
//! [`run_sketchrefine`] wrappers remain for *derived* tables (the
//! dataset-fraction sweeps), and the low-level [`paq_core::Evaluator`]
//! trait remains available for micro-benchmarks and ablations that must
//! bypass the session.

use std::sync::Arc;
use std::time::{Duration, Instant};

use paq_core::Package;
use paq_datagen::{galaxy_table, galaxy_workload, tpch_table, tpch_workload, NamedQuery};
use paq_db::{DbConfig, DbError, PackageDb, Route};
use paq_lang::ast::ObjectiveSense;
use paq_lang::PackageQuery;
use paq_partition::Partitioning;
use paq_relational::Table;
use paq_solver::SolverConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A dataset plus its workload and an owning [`PackageDb`] session,
/// ready for experiments.
pub struct PreparedDataset {
    /// Dataset name ("Galaxy" / "TPC-H").
    pub name: &'static str,
    /// The seven workload queries (TPC-H queries carry IS NOT NULL
    /// guards so evaluation runs on the per-query non-NULL subsets of
    /// the pre-joined table, as in §5.1).
    pub workload: Vec<NamedQuery>,
    /// Union of the workload's query attributes (the partitioning
    /// attributes of §5.2.1).
    pub workload_attrs: Vec<String>,
    /// Catalog name the table is registered under (the workload's
    /// `FROM` relation).
    relation: String,
    /// Snapshot of the registered table (benchmarks never mutate it, so
    /// the snapshot always matches the catalog contents).
    table: Arc<Table>,
    /// The owning session: table registered once, reused by every
    /// evaluation.
    db: PackageDb,
}

impl PreparedDataset {
    /// Assemble a dataset around an owning session: `table` is
    /// registered once under the workload's `FROM` relation, and every
    /// [`PreparedDataset::run_direct`] /
    /// [`PreparedDataset::run_sketchrefine`] call reuses it. Used by
    /// [`prepare_galaxy`]/[`prepare_tpch`] and by experiments deriving
    /// subset datasets (e.g. the τ sweep's 30% table).
    pub fn from_parts(
        name: &'static str,
        table: Table,
        workload: Vec<NamedQuery>,
        workload_attrs: Vec<String>,
    ) -> PreparedDataset {
        let relation = workload
            .first()
            .map(|q| q.query.relation.clone())
            .unwrap_or_else(|| name.to_owned());
        // Experiments want the raw per-strategy verdicts, never the
        // planner's automatic DIRECT rescue.
        let db = PackageDb::with_config(DbConfig {
            fallback_to_direct: false,
            ..DbConfig::default()
        });
        db.register_table(relation.clone(), table);
        let table = db
            .table(&relation)
            .expect("dataset table was just registered");
        PreparedDataset {
            name,
            workload,
            workload_attrs,
            relation,
            table,
            db,
        }
    }

    /// The full table (a snapshot of the session catalog's contents).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The catalog name the table is registered under (the workload's
    /// `FROM` relation) — what queries on a [`PreparedDataset::session`]
    /// resolve against.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// A session handle onto the dataset's shared state, for callers
    /// that need more than the timed wrappers (work reports, telemetry,
    /// cache stats) — or want to drive queries from other threads.
    ///
    /// Contract: the dataset's own table must not be mutated through a
    /// session (re-registered, appended to, dropped) — experiments
    /// assume fixed contents, and [`PreparedDataset::table`] serves the
    /// registration-time snapshot. Registering *additional* tables is
    /// fine.
    pub fn session(&self) -> PackageDb {
        self.db.session()
    }

    /// Run DIRECT on the owned session with timing.
    pub fn run_direct(&mut self, query: &PackageQuery, cfg: &SolverConfig) -> EvalOutcome {
        self.db.config_mut().solver = cfg.clone();
        let start = Instant::now();
        let result = self
            .db
            .execute_with(query, Route::ForceDirect)
            .map(|e| e.package);
        classify(result, start.elapsed(), query, self.table())
    }

    /// Run SKETCHREFINE against a prebuilt partitioning on the owned
    /// session, with timing. REFINE threads come from the `PAQ_THREADS`
    /// environment knob (default 1, the sequential path).
    pub fn run_sketchrefine(
        &mut self,
        query: &PackageQuery,
        partitioning: Arc<Partitioning>,
        cfg: &SolverConfig,
    ) -> EvalOutcome {
        self.run_sketchrefine_threads(query, partitioning, cfg, crate::config::refine_threads())
    }

    /// [`PreparedDataset::run_sketchrefine`] with an explicit REFINE
    /// thread count (any count produces the identical package; see
    /// `paq_core::SketchRefineOptions::threads`).
    pub fn run_sketchrefine_threads(
        &mut self,
        query: &PackageQuery,
        partitioning: Arc<Partitioning>,
        cfg: &SolverConfig,
        threads: usize,
    ) -> EvalOutcome {
        {
            let config = self.db.config_mut();
            config.solver = cfg.clone();
            config.sketchrefine.threads = threads;
        }
        let start = Instant::now();
        let result = self
            .db
            .execute_with_partitioning(query, partitioning)
            .map(|e| e.package);
        classify(result, start.elapsed(), query, self.table())
    }
}

/// Generate the Galaxy dataset and workload.
pub fn prepare_galaxy(n: usize, seed: u64) -> PreparedDataset {
    let table = galaxy_table(n, seed);
    let workload = galaxy_workload(&table).expect("galaxy workload");
    let workload_attrs = paq_datagen::workload_attributes(&workload);
    PreparedDataset::from_parts("Galaxy", table, workload, workload_attrs)
}

/// Generate the pre-joined TPC-H dataset and workload (with non-NULL
/// guards installed on every query).
pub fn prepare_tpch(n: usize, seed: u64) -> PreparedDataset {
    let table = tpch_table(n, seed);
    let workload: Vec<NamedQuery> = tpch_workload(&table)
        .expect("tpch workload")
        .into_iter()
        .map(|mut q| {
            q.query = with_non_null_guards(&q.query, &q.attributes);
            q.text = q.query.to_string();
            q
        })
        .collect();
    let workload_attrs = paq_datagen::workload_attributes(&workload);
    PreparedDataset::from_parts("TPC-H", table, workload, workload_attrs)
}

/// Add `attr IS NOT NULL` base predicates for every listed attribute —
/// how the paper extracts each TPC-H query's effective table from the
/// full-outer-join result (§5.1).
pub fn with_non_null_guards(query: &PackageQuery, attrs: &[String]) -> PackageQuery {
    paq_datagen::add_non_null_guards(query, attrs)
}

/// Number of rows with non-NULL values on all `attrs` (paper Fig. 3).
pub fn effective_rows(table: &Table, attrs: &[String]) -> usize {
    let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
    table.non_null_indices(&refs).map(|v| v.len()).unwrap_or(0)
}

/// Outcome of one timed evaluation.
#[derive(Debug, Clone)]
pub enum EvalOutcome {
    /// A package was produced.
    Solved {
        /// Wall-clock evaluation time.
        time: Duration,
        /// Objective value of the produced package (query sense).
        objective: f64,
        /// The package itself.
        package: Package,
    },
    /// The query was reported infeasible.
    Infeasible {
        /// Wall-clock time until the verdict.
        time: Duration,
    },
    /// Evaluation failed (solver resource exhaustion — the paper's
    /// missing DIRECT datapoints).
    Failed {
        /// Wall-clock time until the failure.
        time: Duration,
        /// Failure description.
        reason: String,
    },
}

impl EvalOutcome {
    /// The evaluation time regardless of outcome.
    pub fn time(&self) -> Duration {
        match self {
            EvalOutcome::Solved { time, .. }
            | EvalOutcome::Infeasible { time }
            | EvalOutcome::Failed { time, .. } => *time,
        }
    }

    /// Objective value, if a package was produced.
    pub fn objective(&self) -> Option<f64> {
        match self {
            EvalOutcome::Solved { objective, .. } => Some(*objective),
            _ => None,
        }
    }

    /// Render the time column ("FAIL"/"infeas" for non-answers).
    pub fn time_cell(&self) -> String {
        match self {
            EvalOutcome::Solved { time, .. } => format!("{:.3}", time.as_secs_f64()),
            EvalOutcome::Infeasible { .. } => "infeas".into(),
            EvalOutcome::Failed { .. } => "FAIL".into(),
        }
    }
}

fn classify(
    result: Result<Package, DbError>,
    time: Duration,
    query: &PackageQuery,
    table: &Table,
) -> EvalOutcome {
    match result {
        Ok(package) => {
            let objective = package
                .objective_value(query, table)
                .expect("objective of produced package");
            EvalOutcome::Solved {
                time,
                objective,
                package,
            }
        }
        Err(e) if e.is_infeasible() => EvalOutcome::Infeasible { time },
        Err(e) => EvalOutcome::Failed {
            time,
            reason: e.to_string(),
        },
    }
}

/// A single-table session with the experiment's solver budget, the
/// table registered under the query's own `FROM` relation name, and
/// the planner's DIRECT fallback disabled (experiments want the raw
/// per-strategy verdicts).
fn session_for(query: &PackageQuery, table: &Table, cfg: &SolverConfig) -> PackageDb {
    let db = PackageDb::with_config(DbConfig {
        solver: cfg.clone(),
        fallback_to_direct: false,
        ..DbConfig::default()
    });
    db.register_table(query.relation.clone(), table.clone());
    db
}

/// Run DIRECT (through a throwaway `PackageDb` session) with timing.
///
/// For *derived* tables only — dataset fractions and other one-off
/// subsets. Evaluations of a [`PreparedDataset`]'s own table should use
/// [`PreparedDataset::run_direct`], which reuses the owned session
/// instead of cloning the table.
pub fn run_direct(query: &PackageQuery, table: &Table, cfg: &SolverConfig) -> EvalOutcome {
    let db = session_for(query, table, cfg);
    let start = Instant::now();
    let result = db
        .execute_with(query, Route::ForceDirect)
        .map(|e| e.package);
    classify(result, start.elapsed(), query, table)
}

/// Run SKETCHREFINE against a prebuilt partitioning through a throwaway
/// session, with timing. Same caveat as [`run_direct`]: derived tables
/// only; prefer [`PreparedDataset::run_sketchrefine`].
pub fn run_sketchrefine(
    query: &PackageQuery,
    table: &Table,
    partitioning: &Partitioning,
    cfg: &SolverConfig,
) -> EvalOutcome {
    let mut db = session_for(query, table, cfg);
    db.config_mut().sketchrefine.threads = crate::config::refine_threads();
    let partitioning = Arc::new(partitioning.clone());
    let start = Instant::now();
    let result = db
        .execute_with_partitioning(query, partitioning)
        .map(|e| e.package);
    classify(result, start.elapsed(), query, table)
}

/// Random keep-mask selecting ≈`fraction` of `n` rows (deterministic in
/// `seed`); used to derive the 10%…100% dataset sizes of §5.2.1.
pub fn fraction_mask(n: usize, fraction: f64, seed: u64) -> Vec<bool> {
    let mut rng = SmallRng::seed_from_u64(seed ^ (fraction * 1e6) as u64);
    (0..n).map(|_| rng.gen::<f64>() < fraction).collect()
}

/// Empirical approximation ratio (§5.1 "Metrics"): `Obj_D / Obj_S` for
/// maximization, `Obj_S / Obj_D` for minimization; `None` when either
/// side failed.
pub fn approx_ratio(
    query: &PackageQuery,
    direct: &EvalOutcome,
    sketchrefine: &EvalOutcome,
) -> Option<f64> {
    let d = direct.objective()?;
    let s = sketchrefine.objective()?;
    let maximize = matches!(
        query.objective.as_ref().map(|o| o.sense),
        Some(ObjectiveSense::Maximize)
    );
    let (num, den) = if maximize { (d, s) } else { (s, d) };
    if den == 0.0 {
        // Both zero ⇒ perfect; otherwise undefined.
        return (num == 0.0).then_some(1.0);
    }
    Some(num / den)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paq_lang::parse_paql;
    use paq_partition::{PartitionConfig, Partitioner};

    #[test]
    fn prepared_galaxy_has_seven_queries() {
        let d = prepare_galaxy(300, 1);
        assert_eq!(d.workload.len(), 7);
        assert!(d.workload_attrs.len() >= 8);
        assert_eq!(d.table().num_rows(), 300);
    }

    #[test]
    fn tpch_guards_restrict_to_non_null_rows() {
        let mut d = prepare_tpch(2000, 2);
        let q5 = d.workload[4].clone();
        assert!(q5.query.where_clause.is_some());
        let eff = effective_rows(d.table(), &q5.attributes);
        assert!(
            eff < d.table().num_rows() / 10,
            "customer subset must be small"
        );
        // Direct evaluation over the full table only picks guarded rows.
        let out = d.run_direct(&q5.query, &SolverConfig::default());
        if let EvalOutcome::Solved { package, .. } = out {
            assert!(package.satisfies(&q5.query, d.table(), 1e-6).unwrap());
        }
    }

    #[test]
    fn prepared_dataset_session_is_reused() {
        let mut d = prepare_galaxy(200, 4);
        let cfg = SolverConfig::default();
        let q1 = d.workload[0].clone();
        let before = d.session().table_names();
        assert_eq!(before, vec!["Galaxy".to_string()]);
        let a = d.run_direct(&q1.query, &cfg);
        let b = d.run_direct(&q1.query, &cfg);
        assert_eq!(a.objective(), b.objective(), "same session, same answer");
        // Still exactly one registered table — nothing was cloned into
        // throwaway sessions.
        assert_eq!(d.session().table_names(), before);
        // Provided partitionings bypass the partition cache entirely.
        let partitioning = Arc::new(
            Partitioner::new(PartitionConfig::by_size(d.workload_attrs.clone(), 25))
                .partition(d.table())
                .unwrap(),
        );
        let _ = d.run_sketchrefine(&q1.query, Arc::clone(&partitioning), &cfg);
        let stats = d.session().cache_stats();
        assert_eq!(stats.entries, 0, "no cache entries from provided runs");
    }

    #[test]
    fn fraction_mask_is_deterministic_and_proportional() {
        let a = fraction_mask(10_000, 0.3, 7);
        let b = fraction_mask(10_000, 0.3, 7);
        assert_eq!(a, b);
        let kept = a.iter().filter(|&&k| k).count();
        assert!((2_700..=3_300).contains(&kept), "kept {kept}");
    }

    #[test]
    fn direct_and_sketchrefine_agree_on_small_galaxy() {
        let mut d = prepare_galaxy(400, 3);
        let q = d.workload[0].clone(); // Q1
        let cfg = SolverConfig::default();
        let direct = d.run_direct(&q.query, &cfg);
        let partitioning = Arc::new(
            Partitioner::new(PartitionConfig::by_size(d.workload_attrs.clone(), 40))
                .partition(d.table())
                .unwrap(),
        );
        let sr = d.run_sketchrefine(&q.query, partitioning, &cfg);
        let ratio = approx_ratio(&q.query, &direct, &sr).expect("both solved");
        assert!(ratio >= 1.0 - 1e-9, "ratio {ratio}");
        assert!(ratio < 5.0, "ratio {ratio} unexpectedly bad");
    }

    #[test]
    fn ratio_orientation_depends_on_sense() {
        let max_q =
            parse_paql("SELECT PACKAGE(R) AS P FROM R SUCH THAT COUNT(P.*) = 1 MAXIMIZE SUM(P.x)")
                .unwrap();
        let min_q =
            parse_paql("SELECT PACKAGE(R) AS P FROM R SUCH THAT COUNT(P.*) = 1 MINIMIZE SUM(P.x)")
                .unwrap();
        let mk = |obj: f64| EvalOutcome::Solved {
            time: Duration::ZERO,
            objective: obj,
            package: Package::empty(),
        };
        // Direct found 10; SketchRefine found 8 (worse for max).
        assert!(approx_ratio(&max_q, &mk(10.0), &mk(8.0)).unwrap() > 1.0);
        // Direct found 8; SketchRefine found 10 (worse for min).
        assert!(approx_ratio(&min_q, &mk(8.0), &mk(10.0)).unwrap() > 1.0);
        let failed = EvalOutcome::Failed {
            time: Duration::ZERO,
            reason: "x".into(),
        };
        assert!(approx_ratio(&max_q, &failed, &mk(8.0)).is_none());
    }

    #[test]
    fn outcome_cells() {
        let s = EvalOutcome::Solved {
            time: Duration::from_millis(1234),
            objective: 1.0,
            package: Package::empty(),
        };
        assert_eq!(s.time_cell(), "1.234");
        assert_eq!(
            EvalOutcome::Failed {
                time: Duration::ZERO,
                reason: "m".into()
            }
            .time_cell(),
            "FAIL"
        );
        assert_eq!(
            EvalOutcome::Infeasible {
                time: Duration::ZERO
            }
            .time_cell(),
            "infeas"
        );
    }
}
