//! SKETCHREFINE (§4 of the paper): scalable approximate evaluation.
//!
//! Given an offline [`Partitioning`] of the input into groups of similar
//! tuples, evaluation proceeds in two phases:
//!
//! * **SKETCH** (§4.2.1): solve the query over the *representative
//!   relation* `R̃` (one centroid tuple per group), with the extra
//!   global constraints `COUNT(p_S WHERE gid = j) ≤ |G_j|·(1+K)` capping
//!   every representative by its group size. The resulting ILP has only
//!   `m` variables.
//! * **REFINE** (§4.2.2, Algorithm 2): replace each group's
//!   representatives with actual tuples by solving a per-group ILP of at
//!   most τ variables whose constraint bounds are shifted by the
//!   contribution of every other group's current contents. Refinements
//!   are greedy; when one renders the remainder infeasible, the search
//!   **backtracks**, re-prioritizing the failed groups (lines 13–24 of
//!   Algorithm 2).
//!
//! On sketch infeasibility the evaluator falls back to the **hybrid
//! sketch query** of §4.4 (strategy 1, and the strategy used by the
//! paper's experiments): re-sketch with one group's original tuples
//! inlined, trying groups in order until one succeeds. Remaining
//! failures are reported as (possibly false) infeasibility.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use paq_exec::ThreadPool;
use paq_lang::{linear_system, LinearSystem, PackageQuery, PaqlError};
use paq_partition::partitioning::GID_COLUMN;
use paq_partition::{PartitionConfig, Partitioner, Partitioning};
use paq_relational::{Predicate, RowMask, Table};
use paq_solver::{LimitKind, MilpSolver, Model, SolveOutcome, SolverConfig, Telemetry};

use crate::error::{EngineError, EngineResult};
use crate::package::Package;
use crate::Evaluator;

/// Tuning knobs for SKETCHREFINE.
#[derive(Debug, Clone)]
pub struct SketchRefineOptions {
    /// Use the hybrid sketch query (§4.4, strategy 1) when the plain
    /// sketch is infeasible. This matches the paper's experimental
    /// configuration.
    pub use_hybrid_sketch: bool,
    /// Budget on black-box solver calls across sketch + refine +
    /// backtracking; prevents the worst-case exponential ordering
    /// search (§4.2.2 "Run time complexity").
    pub max_solver_calls: u64,
    /// Default group count used by [`SketchRefine::evaluate`] when no
    /// partitioning is supplied (τ = n / default_groups).
    pub default_groups: usize,
    /// §4.4 strategy 2 (*further partitioning*): on a possibly-false
    /// infeasibility verdict, rebuild the partitioning with τ halved
    /// and retry, up to this many rounds. Requires the supplied
    /// partitioning to carry its attribute list.
    pub repartition_rounds: u32,
    /// §4.4 strategy 3 (*dropping partitioning attributes*): on a
    /// possibly-false infeasibility verdict, use the solver's
    /// IIS-style diagnostic from the failed sketch (which constraint
    /// rows cannot be satisfied) to identify the attributes involved,
    /// drop them from the partitioning attributes (merging groups along
    /// those dimensions), rebuild, and retry — up to this many rounds.
    pub drop_attribute_rounds: u32,
    /// §4.4 strategy 4 (*iterative group merging*): after any
    /// repartition rounds, merge groups pairwise and retry, up to this
    /// many rounds. Each round halves the group count, so the limit is
    /// the unpartitioned problem — which cannot be falsely infeasible.
    pub merge_rounds: u32,
    /// Cap on the sketch problem size (the paper's recursive-sketch
    /// device for very large `m`, §4.2.1): when the partitioning has
    /// more groups than this, spatially-adjacent groups are merged
    /// pairwise until the sketch ILP fits the cap.
    pub sketch_group_limit: Option<usize>,
    /// Overall time budget for one evaluation, covering the sketch,
    /// refine, and backtracking phases. `None` derives a default from
    /// the per-solve time limit: `(2·m + 4)×` for the sketch phase,
    /// then — once the sketch has revealed how many groups actually
    /// hold representatives — re-derived as `(2·pending + 4)×` for
    /// refine and backtracking, so sparse sketches don't inherit an
    /// inflated deadline.
    ///
    /// The budget is charged by **consumed** solves only (each capped
    /// at the per-solve time limit), mirroring the solver-call budget:
    /// speculative wave solves that are discarded are never charged,
    /// and a charge that would *expire* the budget is always
    /// re-measured by an uncontended inline re-solve first — so on an
    /// oversubscribed host, `threads > 1` cannot have contention-
    /// inflated wave measurements tip the verdict into possibly-false
    /// infeasibility on a budget the sequential schedule meets.
    /// (Consumed in-budget wave charges may still include bounded
    /// contention slack; only expiry decisions are contention-free.)
    /// On expiry the evaluation reports (possibly false) infeasibility,
    /// matching Algorithm 1's failure semantics.
    pub total_time_limit: Option<Duration>,
    /// Worker threads for **wave-based REFINE**: each wave snapshots
    /// the package's per-constraint contributions, speculatively solves
    /// pending group ILPs in parallel against that snapshot, and
    /// commits results sequentially in priority order, re-queuing any
    /// group whose committed predecessors shifted its bounds. `1`
    /// (the default) runs the classic sequential Algorithm 2 path;
    /// any setting produces the identical package: speculative results
    /// are only consumed when their bounds match exactly, and solves
    /// whose outcome depended on the solver's wall-clock limit are
    /// redone inline, uncontended — so the only residual variation is
    /// the time-limit nondeterminism sequential runs already have.
    pub threads: usize,
}

impl Default for SketchRefineOptions {
    fn default() -> Self {
        SketchRefineOptions {
            use_hybrid_sketch: true,
            max_solver_calls: 10_000,
            default_groups: 10,
            repartition_rounds: 0,
            drop_attribute_rounds: 0,
            merge_rounds: 0,
            sketch_group_limit: None,
            total_time_limit: None,
            threads: 1,
        }
    }
}

/// Work counters for one SKETCHREFINE evaluation.
#[derive(Debug, Clone, Default)]
pub struct SketchRefineReport {
    /// Wall-clock time in the SKETCH phase (including hybrid retries).
    pub sketch_time: Duration,
    /// Wall-clock time in the REFINE phase.
    pub refine_time: Duration,
    /// Total black-box solver invocations.
    pub solver_calls: u64,
    /// Number of backtracking events (failed refine subproblems).
    pub backtracks: u64,
    /// Whether the hybrid sketch fallback was used.
    pub used_hybrid: bool,
    /// Number of groups with at least one representative in the sketch
    /// package (the groups REFINE must process).
    pub groups_refined: usize,
    /// §4.4 strategy-2 retries performed (τ-halving repartitions).
    pub repartitions: u32,
    /// §4.4 strategy-3 retries performed (attribute drops guided by the
    /// sketch's infeasibility diagnostic).
    pub attribute_drops: u32,
    /// §4.4 strategy-4 retries performed (pairwise group merges).
    pub merges: u32,
    /// Parallel REFINE waves launched (0 on the sequential path).
    pub waves: u64,
    /// Per-group ILPs solved inside waves, including speculative solves
    /// whose results were later invalidated by a predecessor's commit.
    pub parallel_solves: u64,
    /// Speculative results discarded because a committed predecessor
    /// shifted the group's constraint bounds (the group was re-queued
    /// and re-solved in a later wave).
    pub conflict_requeues: u64,
}

impl SketchRefineReport {
    /// The wall-clock cost a cost-based router should attribute to this
    /// SKETCHREFINE execution: sketch plus refine time. Partitioning
    /// build time is deliberately excluded — the paper treats it as a
    /// one-time offline cost amortized across queries (§4.1), and the
    /// planner's cache makes warm executions skip it entirely.
    pub fn observed_cost(&self) -> Duration {
        self.sketch_time + self.refine_time
    }
}

/// The SKETCHREFINE evaluator.
#[derive(Debug, Clone, Default)]
pub struct SketchRefine {
    config: SolverConfig,
    options: SketchRefineOptions,
    telemetry: Option<Arc<Telemetry>>,
    pool: Option<Arc<ThreadPool>>,
}

impl SketchRefine {
    /// SKETCHREFINE with a specific solver configuration.
    pub fn new(config: SolverConfig) -> Self {
        SketchRefine {
            config,
            options: SketchRefineOptions::default(),
            telemetry: None,
            pool: None,
        }
    }

    /// Override options.
    pub fn with_options(mut self, options: SketchRefineOptions) -> Self {
        self.options = options;
        self
    }

    /// Attach shared telemetry.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Share an existing worker pool for wave-based REFINE instead of
    /// spawning one per evaluation from [`SketchRefineOptions::threads`].
    /// A single-worker pool (like `threads = 1`) runs the sequential
    /// path.
    pub fn with_pool(mut self, pool: Arc<ThreadPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The pool wave-based REFINE should use, if any: a shared pool
    /// when one was attached, otherwise an evaluation-scoped pool of
    /// [`SketchRefineOptions::threads`] workers. `None` means run the
    /// sequential Algorithm 2 path (the two are package-identical; the
    /// pool only changes how the per-group ILPs are scheduled).
    fn refine_pool(&self) -> Option<Arc<ThreadPool>> {
        match &self.pool {
            Some(pool) if pool.threads() > 1 => Some(Arc::clone(pool)),
            Some(_) => None,
            None if self.options.threads > 1 => {
                Some(Arc::new(ThreadPool::new(self.options.threads)))
            }
            None => None,
        }
    }

    /// Evaluate against a prebuilt offline partitioning.
    pub fn evaluate_with(
        &self,
        query: &PackageQuery,
        table: &Table,
        partitioning: &Partitioning,
    ) -> EngineResult<Package> {
        self.evaluate_with_report(query, table, partitioning)
            .map(|(p, _)| p)
    }

    /// Evaluate against a prebuilt partitioning, returning work
    /// counters alongside the package.
    ///
    /// On a possibly-false infeasibility verdict this applies the
    /// configured §4.4 fallback ladder: first τ-halving repartitions
    /// (strategy 2), then pairwise group merges (strategy 4).
    pub fn evaluate_with_report(
        &self,
        query: &PackageQuery,
        table: &Table,
        partitioning: &Partitioning,
    ) -> EngineResult<(Package, SketchRefineReport)> {
        crate::binding::check_table_binding(query, table)?;

        // Recursive-sketch device: coarsen an oversized partitioning
        // before the first attempt.
        let mut current = self.coarsen(partitioning, table)?;
        // One pool outlives every §4.4 ladder attempt.
        let pool = self.refine_pool();
        let mut repartitions = 0u32;
        let mut attribute_drops = 0u32;
        let mut merges = 0u32;
        loop {
            let (attempt, violated_rows) = {
                let p = current
                    .as_ref()
                    .map(|c| c as &Partitioning)
                    .unwrap_or(partitioning);
                let mut session = Session::new(self, query, table, p, pool.clone())?;
                let attempt = session.run();
                (attempt, session.sketch_violated_rows.clone())
            };
            match attempt {
                Ok((pkg, mut report)) => {
                    report.repartitions = repartitions;
                    report.attribute_drops = attribute_drops;
                    report.merges = merges;
                    return Ok((pkg, report));
                }
                Err(EngineError::Infeasible {
                    possibly_false: true,
                }) => {
                    let active = current.as_ref().unwrap_or(partitioning);
                    if repartitions < self.options.repartition_rounds
                        && !active.attributes.is_empty()
                        && active.max_group_size() > 1
                    {
                        // Strategy 2: further partitioning (halve τ).
                        let tau = (active.max_group_size() / 2).max(1);
                        let rebuilt = build_partitioning(
                            PartitionConfig::by_size(active.attributes.clone(), tau),
                            table,
                            pool.as_deref(),
                        )?;
                        current = Some(rebuilt);
                        repartitions += 1;
                    } else if attribute_drops < self.options.drop_attribute_rounds
                        && active.attributes.len() > 1
                    {
                        // Strategy 3: drop the partitioning attributes
                        // implicated by the sketch's infeasibility
                        // diagnostic — groups merge along those
                        // dimensions, increasing the odds that the
                        // previously unreachable combination appears.
                        let implicated = implicated_attributes(query, &violated_rows);
                        let mut kept: Vec<String> = active
                            .attributes
                            .iter()
                            .filter(|a| !implicated.contains(*a))
                            .cloned()
                            .collect();
                        if kept.is_empty() || kept.len() == active.attributes.len() {
                            // Diagnostic unusable: drop the *last*
                            // attribute as a deterministic fallback.
                            kept = active.attributes[..active.attributes.len() - 1].to_vec();
                        }
                        let tau = active.max_group_size().max(1);
                        let rebuilt = build_partitioning(
                            PartitionConfig::by_size(kept, tau),
                            table,
                            pool.as_deref(),
                        )?;
                        current = Some(rebuilt);
                        attribute_drops += 1;
                    } else if merges < self.options.merge_rounds && active.num_groups() > 1 {
                        // Strategy 4: iterative group merging.
                        current = Some(active.merged_pairwise(table)?);
                        merges += 1;
                    } else {
                        return Err(EngineError::maybe_false_infeasible());
                    }
                }
                Err(other) => return Err(other),
            }
        }
    }

    /// Apply the sketch-group-size cap by pairwise merging (the
    /// recursive-sketch device of §4.2.1). Returns `None` when no
    /// coarsening is needed.
    fn coarsen(
        &self,
        partitioning: &Partitioning,
        table: &Table,
    ) -> EngineResult<Option<Partitioning>> {
        let Some(limit) = self.options.sketch_group_limit else {
            return Ok(None);
        };
        if partitioning.num_groups() <= limit.max(1) {
            return Ok(None);
        }
        let mut current = partitioning.merged_pairwise(table)?;
        while current.num_groups() > limit.max(1) && current.num_groups() > 1 {
            current = current.merged_pairwise(table)?;
        }
        Ok(Some(current))
    }

    fn solver(&self) -> MilpSolver {
        let s = MilpSolver::new(self.config.clone());
        match &self.telemetry {
            Some(t) => s.with_telemetry(Arc::clone(t)),
            None => s,
        }
    }
}

impl Evaluator for SketchRefine {
    fn name(&self) -> &'static str {
        "SKETCHREFINE"
    }

    /// Convenience entry point: builds an on-the-fly partitioning on
    /// the query attributes with τ = n / `default_groups` (no radius
    /// condition), then evaluates. Production use should prebuild the
    /// partitioning offline (§4.1 "One-time cost").
    fn evaluate(&self, query: &PackageQuery, table: &Table) -> EngineResult<Package> {
        let mut attrs = query.query_attributes();
        if attrs.is_empty() {
            attrs = table
                .schema()
                .numeric_names()
                .into_iter()
                .map(str::to_owned)
                .collect();
        }
        if attrs.is_empty() {
            return Err(EngineError::Unsupported(
                "SKETCHREFINE needs at least one numeric attribute to partition on".into(),
            ));
        }
        let tau = (table.num_rows() / self.options.default_groups.max(1)).max(2);
        let partitioning =
            Partitioner::new(PartitionConfig::by_size(attrs, tau)).partition(table)?;
        self.evaluate_with(query, table, &partitioning)
    }
}

/// How [`Session::new`] applies the base predicate to each group.
enum BaseFilter {
    /// No `WHERE` clause (or no rows): every row qualifies.
    All,
    /// An infallible predicate, evaluated once over the whole table.
    Mask(RowMask),
    /// A predicate that may fail, tested row by row in group order.
    Rows(Predicate),
}

/// A group after base-predicate filtering.
struct EffGroup {
    /// Qualifying row indices.
    rows: Vec<usize>,
}

/// Per-group refinement record: chosen tuples plus their contribution
/// to each constraint row (and the contribution the representative used
/// to make, for undo).
struct Refined {
    pairs: Vec<(usize, u64)>,
    contrib: Vec<f64>,
}

struct Session<'a> {
    engine: &'a SketchRefine,
    query: &'a PackageQuery,
    /// Query with the WHERE clause stripped (rows are pre-filtered).
    stripped: PackageQuery,
    table: &'a Table,
    groups: Vec<EffGroup>,
    /// Linear system over the representative relation (one row per
    /// group, aligned with `groups`).
    rep_system: LinearSystem,
    /// Representative multiplicities from the sketch solution.
    rep_mult: Vec<u64>,
    /// Refinement state per group.
    refined: Vec<Option<Refined>>,
    /// Current total contribution of all groups to each constraint row.
    totals: Vec<f64>,
    report: SketchRefineReport,
    solver: MilpSolver,
    /// Time budget for this evaluation, charged by *consumed* solves
    /// only (see [`SketchRefineOptions::total_time_limit`]).
    time_budget: Duration,
    /// Solve time charged against [`Session::time_budget`] so far.
    /// Discarded speculative wave solves are never charged, so the
    /// budget expires on the same consumed-solve sequence at any
    /// thread count.
    consumed: Duration,
    /// Constraint rows the plain sketch could not satisfy (the solver's
    /// IIS-style diagnostic), captured for §4.4 strategy 3.
    sketch_violated_rows: Vec<u32>,
    /// Worker pool for wave-based REFINE; `None` = sequential path.
    pool: Option<Arc<ThreadPool>>,
    /// Speculative per-group solve results from past waves, keyed by
    /// group and validated lazily against the offsets they were solved
    /// with. Backtracking's `undo` can even revalidate a stale entry.
    speculative: HashMap<usize, Speculative>,
    /// Adaptive wave width: grows while commits keep speculation valid
    /// (constraints that don't couple groups), collapses back to the
    /// thread count as soon as a commit invalidates a sibling — so
    /// conflict-free workloads pay few synchronization barriers and
    /// conflict-heavy ones waste at most one small wave per commit.
    wave_width: usize,
    /// `conflict_requeues` as of the last wave launch, for the width
    /// adaptation above.
    last_wave_conflicts: u64,
}

/// A wave-solved refinement with the constraint offsets it assumed and
/// the wall-clock its solve took (charged to the time budget only if
/// the result is consumed).
struct Speculative {
    offsets: Vec<f64>,
    result: EngineResult<GroupSolve>,
    elapsed: Duration,
}

/// Result of one refine-subproblem solve.
enum GroupSolve {
    /// An outcome that is a pure function of the model (optimal,
    /// gap/node/iteration/memory-limited, or infeasible): safe to
    /// consume speculatively, because a re-solve would reproduce it.
    Done(Option<Refined>),
    /// The solver's *wall-clock* limit fired. Under wave contention a
    /// subproblem can exceed the limit that an uncontended sequential
    /// solve would meet (or cut a different incumbent), so this outcome
    /// must not be consumed speculatively — the driver redoes the solve
    /// inline, uncontended, exactly like the sequential schedule.
    TimeLimited(Option<Refined>),
}

impl GroupSolve {
    /// The refinement regardless of how the solve terminated (the
    /// sequential path accepts whatever the uncontended solve produced).
    fn into_inner(self) -> Option<Refined> {
        match self {
            GroupSolve::Done(r) | GroupSolve::TimeLimited(r) => r,
        }
    }
}

impl<'a> Session<'a> {
    fn new(
        engine: &'a SketchRefine,
        query: &'a PackageQuery,
        table: &'a Table,
        partitioning: &Partitioning,
        pool: Option<Arc<ThreadPool>>,
    ) -> EngineResult<Self> {
        // Base-predicate filtering (the paper pre-processes base
        // predicates with a standard SQL query, §5.1). The WHERE clause is
        // bound once. An infallible one is evaluated over the whole table
        // a column and 64 rows at a time, and each group keeps its rows
        // by probing that mask; a fallible one is tested row by row in
        // group order, so the first error is the row path's. Either way
        // every group keeps the same rows in the same order.
        let filter = match &query.where_clause {
            Some(w) if partitioning.num_rows() > 0 => {
                let pred = w.bind(table.schema()).map_err(PaqlError::from)?;
                if pred.is_infallible() {
                    BaseFilter::Mask(pred.select(table).map_err(PaqlError::from)?)
                } else {
                    BaseFilter::Rows(pred)
                }
            }
            _ => BaseFilter::All,
        };
        // The filtered groups, numbered densely: the partitioning whose
        // group means form the representative relation.
        let mut eff_partitioning = Partitioning {
            attributes: Vec::new(),
            groups: Vec::new(),
            build_time: Duration::ZERO,
        };
        for g in &partitioning.groups {
            let rows = match &filter {
                BaseFilter::All => g.rows.clone(),
                BaseFilter::Mask(mask) => g
                    .rows
                    .iter()
                    .copied()
                    .filter(|&r| mask.contains(r))
                    .collect(),
                BaseFilter::Rows(pred) => pred.filter(table, &g.rows).map_err(PaqlError::from)?,
            };
            if !rows.is_empty() {
                eff_partitioning.groups.push(paq_partition::Group {
                    gid: eff_partitioning.groups.len() as i64 + 1,
                    rows,
                    representative: Vec::new(),
                    radius: 0.0,
                });
            }
        }

        let mut stripped = query.clone();
        stripped.where_clause = None;

        // Representative relation over the *filtered* groups: group
        // means of every query attribute (this also covers partitionings
        // whose attributes differ from the query's — §5.2.3).
        let mut attrs = query.query_attributes();
        attrs.retain(|a| a != GID_COLUMN);
        let rep_table = eff_partitioning.representative_table(table, &attrs)?;
        let rep_rows: Vec<usize> = (0..rep_table.num_rows()).collect();
        let rep_system = linear_system(&stripped, &rep_table, &rep_rows)?;
        let mut groups = Vec::with_capacity(eff_partitioning.groups.len());
        for g in eff_partitioning.groups {
            groups.push(EffGroup { rows: g.rows });
        }

        let num_rows = rep_system.rows.len();
        // Provisional budget covering the sketch phase; `run`
        // re-derives the default from the *pending* group count once
        // the sketch shows which groups actually need refinement.
        let time_budget = engine.options.total_time_limit.unwrap_or_else(|| {
            engine
                .config
                .time_limit
                .saturating_mul(2 * groups.len() as u32 + 4)
        });
        Ok(Session {
            engine,
            query,
            stripped,
            table,
            rep_mult: vec![0; groups.len()],
            refined: groups.iter().map(|_| None).collect(),
            groups,
            rep_system,
            totals: vec![0.0; num_rows],
            report: SketchRefineReport::default(),
            solver: engine.solver(),
            time_budget,
            consumed: Duration::ZERO,
            sketch_violated_rows: Vec::new(),
            wave_width: pool.as_ref().map_or(1, |p| 2 * p.threads()),
            pool,
            speculative: HashMap::new(),
            last_wave_conflicts: 0,
        })
    }

    fn run(&mut self) -> EngineResult<(Package, SketchRefineReport)> {
        let sketch_span = paq_obs::span("sketch");
        let sketch_started = Instant::now();
        self.sketch()?;
        self.report.sketch_time = sketch_started.elapsed();
        drop(sketch_span);

        let refine_started = Instant::now();
        let remaining: BTreeSet<usize> = (0..self.groups.len())
            .filter(|&j| self.rep_mult[j] > 0 && self.refined[j].is_none())
            .collect();
        self.report.groups_refined = remaining.len();
        // Re-derive the default budget from the work that is actually
        // left: one budgeted solve per *pending* group plus backtracking
        // slack, so a sparse sketch (few groups holding representatives)
        // doesn't keep the inflated `2·m + 4` budget of the full
        // partitioning. The sketch phase's charge is dropped with it
        // (a fresh budget, like the fresh deadline it replaces); an
        // explicit `total_time_limit` instead keeps accumulating across
        // phases.
        if self.engine.options.total_time_limit.is_none() {
            self.time_budget = self
                .engine
                .config
                .time_limit
                .saturating_mul(2 * remaining.len() as u32 + 4);
            self.consumed = Duration::ZERO;
        }
        let order: Vec<usize> = remaining.iter().copied().collect();
        let outcome = self.refine_rec(&remaining, &order, 0);
        self.report.refine_time = refine_started.elapsed();
        match outcome {
            Ok(()) => {
                let mut pairs = Vec::new();
                for r in self.refined.iter().flatten() {
                    pairs.extend_from_slice(&r.pairs);
                }
                Ok((Package::from_pairs(pairs), self.report.clone()))
            }
            Err(RefineFail::Budget) => Err(EngineError::maybe_false_infeasible()),
            Err(RefineFail::Failed(_)) => Err(EngineError::maybe_false_infeasible()),
            Err(RefineFail::Fatal(e)) => Err(e),
        }
    }

    /// Charge one consumed solve's wall-clock against the time budget.
    /// The charge is capped at the per-solve time limit: a contended
    /// wave solve that still finished under the solver's own limit must
    /// not be charged more than the sequential schedule could ever be.
    fn charge(&mut self, elapsed: Duration) {
        self.consumed += elapsed.min(self.engine.config.time_limit);
    }

    /// `true` once consumed solves have exhausted the time budget.
    fn out_of_time(&self) -> bool {
        self.consumed > self.time_budget
    }

    // ------------------------------------------------------------------
    // SKETCH
    // ------------------------------------------------------------------

    /// Per-representative usage cap: `|G_j|·(1+K)` with `REPEAT K`,
    /// unbounded otherwise (§4.2.1).
    fn rep_cap(&self, j: usize) -> f64 {
        match self.query.max_multiplicity() {
            Some(m) => (self.groups[j].rows.len() as u64 * m) as f64,
            None => f64::INFINITY,
        }
    }

    fn sketch(&mut self) -> EngineResult<()> {
        // Plain sketch: variables = representatives with group-size caps.
        let mut model = Model::new();
        let vars: Vec<paq_solver::VarId> = (0..self.groups.len())
            .map(|j| model.add_int_var(0.0, self.rep_cap(j), self.rep_system.objective[j]))
            .collect();
        for row in &self.rep_system.rows {
            model.add_range(
                vars.iter()
                    .copied()
                    .zip(row.coefs.iter().copied())
                    .collect(),
                row.lo,
                row.hi,
            );
        }
        model.set_sense(self.rep_system.sense);

        self.report.solver_calls += 1;
        let solve_start = Instant::now();
        let result = self.solver.solve(&model);
        self.charge(solve_start.elapsed());
        self.sketch_violated_rows = result.stats.root_infeasible_rows.clone();
        match result.outcome {
            SolveOutcome::Optimal(sol) | SolveOutcome::Feasible { best: sol, .. } => {
                for j in 0..self.groups.len() {
                    self.rep_mult[j] = sol.values[j].round().max(0.0) as u64;
                }
                self.recompute_totals();
                Ok(())
            }
            SolveOutcome::Unbounded => Err(EngineError::Unbounded),
            // A choking sketch gets the same fallback as an infeasible
            // one: the hybrid variants restructure the problem and are
            // often easier for the black box.
            SolveOutcome::ResourceExhausted(_) | SolveOutcome::Infeasible => {
                if self.engine.options.use_hybrid_sketch {
                    self.hybrid_sketch()
                } else {
                    Err(EngineError::maybe_false_infeasible())
                }
            }
        }
    }

    /// Hybrid sketch (§4.4, strategy 1): inline one group's original
    /// tuples next to the other groups' representatives; try groups in
    /// order until one such query is feasible.
    fn hybrid_sketch(&mut self) -> EngineResult<()> {
        self.report.used_hybrid = true;
        for inlined in 0..self.groups.len() {
            if self.report.solver_calls >= self.engine.options.max_solver_calls
                || self.out_of_time()
            {
                return Err(EngineError::maybe_false_infeasible());
            }
            let group_system =
                linear_system(&self.stripped, self.table, &self.groups[inlined].rows)?;
            let mut model = Model::new();
            // Original tuples of the inlined group...
            let tuple_vars: Vec<paq_solver::VarId> = group_system
                .objective
                .iter()
                .map(|&c| model.add_int_var(0.0, group_system.var_ub, c))
                .collect();
            // ...plus representatives of every other group.
            let rep_vars: Vec<Option<paq_solver::VarId>> = (0..self.groups.len())
                .map(|j| {
                    (j != inlined).then(|| {
                        model.add_int_var(0.0, self.rep_cap(j), self.rep_system.objective[j])
                    })
                })
                .collect();
            for (r, row) in self.rep_system.rows.iter().enumerate() {
                let mut terms: Vec<(paq_solver::VarId, f64)> = tuple_vars
                    .iter()
                    .copied()
                    .zip(group_system.rows[r].coefs.iter().copied())
                    .collect();
                for (j, v) in rep_vars.iter().enumerate() {
                    if let Some(v) = v {
                        terms.push((*v, row.coefs[j]));
                    }
                }
                model.add_range(terms, row.lo, row.hi);
            }
            model.set_sense(self.rep_system.sense);

            self.report.solver_calls += 1;
            let solve_start = Instant::now();
            let outcome = self.solver.solve(&model).outcome;
            self.charge(solve_start.elapsed());
            match outcome {
                SolveOutcome::Optimal(sol) | SolveOutcome::Feasible { best: sol, .. } => {
                    // The inlined group is immediately refined.
                    let pairs: Vec<(usize, u64)> = self.groups[inlined]
                        .rows
                        .iter()
                        .zip(&sol.values[..tuple_vars.len()])
                        .filter_map(|(&row, &v)| {
                            let m = v.round() as i64;
                            (m > 0).then_some((row, m as u64))
                        })
                        .collect();
                    let contrib = contribution(&group_system, &self.groups[inlined].rows, &pairs);
                    self.refined[inlined] = Some(Refined { pairs, contrib });
                    self.rep_mult[inlined] = 0;
                    let mut vi = tuple_vars.len();
                    for (j, v) in rep_vars.iter().enumerate() {
                        if v.is_some() {
                            self.rep_mult[j] = sol.values[vi].round().max(0.0) as u64;
                            vi += 1;
                        }
                    }
                    self.recompute_totals();
                    return Ok(());
                }
                SolveOutcome::Unbounded => return Err(EngineError::Unbounded),
                // A choking hybrid subproblem is treated like an
                // infeasible one: try inlining a different group.
                SolveOutcome::ResourceExhausted(_) | SolveOutcome::Infeasible => continue,
            }
        }
        Err(EngineError::maybe_false_infeasible())
    }

    /// Recompute `totals[r]` = contribution of the full current state
    /// (refined tuples + representative multiplicities) to row `r`.
    fn recompute_totals(&mut self) {
        let m = self.rep_system.rows.len();
        self.totals = vec![0.0; m];
        for (r, row) in self.rep_system.rows.iter().enumerate() {
            for j in 0..self.groups.len() {
                match &self.refined[j] {
                    Some(refined) => self.totals[r] += refined.contrib[r],
                    None => self.totals[r] += row.coefs[j] * self.rep_mult[j] as f64,
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // REFINE (Algorithm 2)
    // ------------------------------------------------------------------

    fn refine_rec(
        &mut self,
        remaining: &BTreeSet<usize>,
        order: &[usize],
        depth: u32,
    ) -> Result<(), RefineFail> {
        if remaining.is_empty() {
            return Ok(());
        }
        let mut failed: BTreeSet<usize> = BTreeSet::new();
        // Priority queue: failed groups first, then the inherited order.
        let mut pending: Vec<usize> = order
            .iter()
            .copied()
            .filter(|j| remaining.contains(j))
            .collect();

        while let Some(j) = pending.first().copied() {
            pending.remove(0);
            if self.report.solver_calls >= self.engine.options.max_solver_calls
                || self.out_of_time()
            {
                return Err(RefineFail::Budget);
            }
            match self.obtain_refine(j, &pending)? {
                None => {
                    // Q[G_j] infeasible.
                    self.report.backtracks += 1;
                    failed.insert(j);
                    if depth > 0 {
                        // Greedily backtrack with the non-refinable group
                        // (Algorithm 2, lines 14–17).
                        return Err(RefineFail::Failed(failed));
                    }
                    // At the root (S = P) keep trying other first groups.
                    continue;
                }
                Some(refined) => {
                    let undo = self.apply(j, refined);
                    let mut rest = remaining.clone();
                    rest.remove(&j);
                    let child_order: Vec<usize> = {
                        // Prioritize previously-failed groups (line 24).
                        let mut o: Vec<usize> = failed
                            .iter()
                            .copied()
                            .filter(|g| rest.contains(g))
                            .collect();
                        o.extend(
                            order
                                .iter()
                                .copied()
                                .filter(|g| rest.contains(g) && !failed.contains(g)),
                        );
                        o
                    };
                    match self.refine_rec(&rest, &child_order, depth + 1) {
                        Ok(()) => return Ok(()),
                        Err(RefineFail::Failed(f)) => {
                            self.undo(j, undo);
                            failed.extend(f.iter().copied());
                            // Re-prioritize the local queue: failed
                            // groups first (stable within each class).
                            pending.sort_by_key(|g| !failed.contains(g));
                        }
                        Err(other) => return Err(other),
                    }
                }
            }
        }
        // None of the groups in S can be refined first (invariant F = S).
        Err(RefineFail::Failed(failed))
    }

    /// Constraint-bound offsets for group `j`'s refine query: per row,
    /// the contribution of all *other* groups' current contents.
    fn group_offsets(&self, j: usize) -> Vec<f64> {
        self.rep_system
            .rows
            .iter()
            .enumerate()
            .map(|(r, row)| {
                let own = match &self.refined[j] {
                    Some(refined) => refined.contrib[r],
                    None => row.coefs[j] * self.rep_mult[j] as f64,
                };
                self.totals[r] - own
            })
            .collect()
    }

    /// Produce the result of the refine query `Q[G_j]` the sequential
    /// Algorithm 2 would solve *right now*, either by solving it inline
    /// (no pool) or by consuming a wave-solved speculative result.
    ///
    /// The wave path snapshots the current offsets, solves `j` plus up
    /// to `threads − 1` of the `upcoming` pending groups in parallel,
    /// and caches everything. A cached result is only consumed when the
    /// offsets it was solved against still match exactly — the model,
    /// and therefore the deterministic solver's answer, is then
    /// identical to the sequential solve — otherwise the entry is
    /// discarded as a conflict re-queue and the group re-solved in a
    /// fresh wave. Budget accounting (`solver_calls`) charges exactly
    /// the consumed solves, mirroring the sequential call sequence;
    /// speculative overshoot is reported separately.
    fn obtain_refine(
        &mut self,
        j: usize,
        upcoming: &[usize],
    ) -> Result<Option<Refined>, RefineFail> {
        let Some(pool) = self.pool.clone() else {
            let offsets = self.group_offsets(j);
            return self.solve_inline(j, &offsets);
        };

        let offsets = self.group_offsets(j);
        if let Some(spec) = self.speculative.remove(&j) {
            if spec.offsets == offsets {
                return self.consume(j, &offsets, spec.result, spec.elapsed);
            }
            // A committed predecessor shifted this group's bounds since
            // the wave that solved it: the speculation is void.
            self.report.conflict_requeues += 1;
        }

        // Adapt the wave width: conflict-free progress doubles it (up
        // to 16× the thread count), any conflict since the last wave
        // collapses it to the thread count.
        let threads = pool.threads();
        self.wave_width = if self.report.conflict_requeues == self.last_wave_conflicts {
            (self.wave_width * 2).clamp(2 * threads, 16 * threads)
        } else {
            threads
        };

        // Launch a wave: group `j` plus the next pending groups that
        // lack a still-valid speculative result.
        let mut targets: Vec<(usize, Vec<f64>)> = vec![(j, offsets.clone())];
        for &g in upcoming {
            if targets.len() >= self.wave_width {
                break;
            }
            let off = self.group_offsets(g);
            let valid = self
                .speculative
                .get(&g)
                .is_some_and(|spec| spec.offsets == off);
            if !valid {
                targets.push((g, off));
            }
        }
        self.report.waves += 1;
        self.report.parallel_solves += targets.len() as u64;

        let mut slots: Vec<Option<(EngineResult<GroupSolve>, Duration)>> =
            Vec::with_capacity(targets.len());
        slots.resize_with(targets.len(), || None);
        {
            // The wave span lives on the coordinating thread (workers
            // have no ambient obs context), so span capture stays off
            // the deterministic solve path.
            let _wave_span = paq_obs::span("refine.wave");
            let solver = &self.solver;
            let stripped = &self.stripped;
            let table = self.table;
            let groups = &self.groups;
            pool.scope(|scope| {
                for ((g, off), slot) in targets.iter().zip(slots.iter_mut()) {
                    scope.spawn(move || {
                        let solve_start = Instant::now();
                        let result = solve_group(solver, stripped, table, &groups[*g].rows, off);
                        *slot = Some((result, solve_start.elapsed()));
                    });
                }
            });
        }
        let commit_span = paq_obs::span("refine.commit");
        for ((g, off), slot) in targets.into_iter().zip(slots) {
            let (result, elapsed) = slot.expect("wave completed every solve");
            let stale = self.speculative.insert(
                g,
                Speculative {
                    offsets: off,
                    result,
                    elapsed,
                },
            );
            if stale.is_some() {
                // Replaced an entry whose offsets no longer matched.
                self.report.conflict_requeues += 1;
            }
        }

        drop(commit_span);

        self.last_wave_conflicts = self.report.conflict_requeues;

        let spec = self
            .speculative
            .remove(&j)
            .expect("wave solved the requested group");
        self.consume(j, &offsets, spec.result, spec.elapsed)
    }

    /// Consume a wave result for group `j` whose offsets matched:
    /// model-determined outcomes are used as-is; time-limited outcomes
    /// are redone inline and uncontended (workers are idle between
    /// waves), the same conditions the sequential schedule solves under.
    /// Only the consumed solve is charged to the time budget.
    fn consume(
        &mut self,
        j: usize,
        offsets: &[f64],
        result: EngineResult<GroupSolve>,
        elapsed: Duration,
    ) -> Result<Option<Refined>, RefineFail> {
        match result {
            Ok(GroupSolve::Done(r)) => {
                // A wave measurement on an oversubscribed host includes
                // preemption time, so it can be inflated well past the
                // uncontended cost. Accumulating inflated-but-in-budget
                // charges is harmless slack, but budget *expiry* must
                // never be decided on one: if this charge would cross
                // the budget, redo the solve inline — uncontended,
                // workers idle between waves — and charge that instead
                // (the deterministic solver reproduces the result, as
                // on the `TimeLimited` path).
                let charge = elapsed.min(self.engine.config.time_limit);
                if self.consumed + charge > self.time_budget {
                    return self.solve_inline(j, offsets);
                }
                self.report.solver_calls += 1;
                self.consumed += charge;
                Ok(r)
            }
            Ok(GroupSolve::TimeLimited(_)) => self.solve_inline(j, offsets),
            Err(e) => {
                self.report.solver_calls += 1;
                self.charge(elapsed);
                Err(e.into())
            }
        }
    }

    /// One budgeted, uncontended solve on the driver thread — the exact
    /// call the sequential Algorithm 2 path makes.
    fn solve_inline(&mut self, j: usize, offsets: &[f64]) -> Result<Option<Refined>, RefineFail> {
        self.report.solver_calls += 1;
        let solve_start = Instant::now();
        let result = solve_group(
            &self.solver,
            &self.stripped,
            self.table,
            &self.groups[j].rows,
            offsets,
        );
        self.charge(solve_start.elapsed());
        result.map(GroupSolve::into_inner).map_err(RefineFail::from)
    }

    /// Install a refinement, returning the undo record.
    fn apply(&mut self, j: usize, refined: Refined) -> UndoRecord {
        let old_mult = self.rep_mult[j];
        let old_refined = self.refined[j].take();
        for (r, row) in self.rep_system.rows.iter().enumerate() {
            let before = match &old_refined {
                Some(old) => old.contrib[r],
                None => row.coefs[j] * old_mult as f64,
            };
            self.totals[r] += refined.contrib[r] - before;
        }
        self.rep_mult[j] = 0;
        self.refined[j] = Some(refined);
        UndoRecord {
            old_mult,
            old_refined,
        }
    }

    /// Roll back a refinement installed by [`Session::apply`].
    fn undo(&mut self, j: usize, undo: UndoRecord) {
        let new = self.refined[j].take().expect("undo of an unapplied group");
        for (r, row) in self.rep_system.rows.iter().enumerate() {
            let before = match &undo.old_refined {
                Some(old) => old.contrib[r],
                None => row.coefs[j] * undo.old_mult as f64,
            };
            self.totals[r] += before - new.contrib[r];
        }
        self.rep_mult[j] = undo.old_mult;
        self.refined[j] = undo.old_refined;
    }
}

struct UndoRecord {
    old_mult: u64,
    old_refined: Option<Refined>,
}

enum RefineFail {
    /// Backtracking failure carrying the non-refinable groups.
    Failed(BTreeSet<usize>),
    /// Solver-call budget exhausted.
    Budget,
    /// Hard error (solver resource failure, unbounded, substrate error).
    Fatal(EngineError),
}

impl From<EngineError> for RefineFail {
    fn from(e: EngineError) -> Self {
        RefineFail::Fatal(e)
    }
}

/// Attributes referenced by the global predicates behind the given
/// constraint-row indices. Row numbering mirrors
/// [`paq_lang::linear_system`]: one row per predicate, except an AVG
/// `BETWEEN`, which expands to two.
fn implicated_attributes(query: &PackageQuery, rows: &[u32]) -> Vec<String> {
    use paq_lang::ast::{AggExpr, AggTerm, GlobalPredicate};
    let mut row_attrs: Vec<Vec<String>> = Vec::new();
    for pred in &query.such_that {
        match pred {
            GlobalPredicate::Between { agg, .. } => {
                let attrs = agg.referenced_attributes();
                if matches!(agg, AggExpr::Avg(_)) {
                    row_attrs.push(attrs.clone()); // lo row
                }
                row_attrs.push(attrs); // hi / single row
            }
            GlobalPredicate::Cmp { lhs, rhs, .. } => {
                let mut attrs = Vec::new();
                for side in [lhs, rhs] {
                    if let AggTerm::Agg(a) = side {
                        attrs.extend(a.referenced_attributes());
                    }
                }
                attrs.sort();
                attrs.dedup();
                row_attrs.push(attrs);
            }
        }
    }
    let mut out: Vec<String> = rows
        .iter()
        .filter_map(|&r| row_attrs.get(r as usize))
        .flatten()
        .cloned()
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Build a partitioning, on the pool when one is available (identical
/// output either way; see `Partitioner::partition_with_pool`).
fn build_partitioning(
    config: PartitionConfig,
    table: &Table,
    pool: Option<&ThreadPool>,
) -> EngineResult<Partitioning> {
    let partitioner = Partitioner::new(config);
    Ok(match pool {
        Some(pool) => partitioner.partition_with_pool(table, pool)?,
        None => partitioner.partition(table)?,
    })
}

/// Solve the refine query `Q[G_j]`: pick actual tuples from `rows`
/// (group `j` after base-predicate filtering) such that, with every
/// constraint bound shifted by `offsets[r]` — the contribution of all
/// *other* groups' current contents (`p̄_j`) — all global constraints
/// hold. Returns `None` on infeasibility, and also when the black box
/// chokes on the subproblem: the group is then non-refinable *in this
/// order* and the greedy backtracking tries a different ordering — a
/// different `p̄_j` often yields an easier subproblem. (If every
/// ordering fails, the budget/ladder logic in
/// `run`/`evaluate_with_report` takes over.)
///
/// This is a pure function of its inputs plus the deterministic solver
/// — except when the solver's *wall-clock* limit fires, which the
/// [`GroupSolve::TimeLimited`] variant flags so the wave engine never
/// consumes a contention-skewed outcome speculatively.
fn solve_group(
    solver: &MilpSolver,
    stripped: &PackageQuery,
    table: &Table,
    rows: &[usize],
    offsets: &[f64],
) -> EngineResult<GroupSolve> {
    let system = linear_system(stripped, table, rows)?;
    let mut model = Model::new();
    let vars: Vec<paq_solver::VarId> = system
        .objective
        .iter()
        .map(|&c| model.add_int_var(0.0, system.var_ub, c))
        .collect();
    for (r, row) in system.rows.iter().enumerate() {
        let offset = offsets[r];
        let lo = if row.lo.is_finite() {
            row.lo - offset
        } else {
            row.lo
        };
        let hi = if row.hi.is_finite() {
            row.hi - offset
        } else {
            row.hi
        };
        model.add_range(
            vars.iter()
                .copied()
                .zip(row.coefs.iter().copied())
                .collect(),
            lo,
            hi,
        );
    }
    model.set_sense(system.sense);

    let refined = |sol: &paq_solver::Solution| {
        let pairs: Vec<(usize, u64)> = rows
            .iter()
            .zip(&sol.values)
            .filter_map(|(&row, &v)| {
                let m = v.round() as i64;
                (m > 0).then_some((row, m as u64))
            })
            .collect();
        let contrib = contribution(&system, rows, &pairs);
        Refined { pairs, contrib }
    };
    match solver.solve(&model).outcome {
        SolveOutcome::Optimal(sol) => Ok(GroupSolve::Done(Some(refined(&sol)))),
        // Gap/node/iteration/memory cutoffs are deterministic counters;
        // only the wall-clock cutoff can differ between a contended
        // wave solve and the sequential schedule.
        SolveOutcome::Feasible {
            best: sol,
            limit: LimitKind::Time,
            ..
        } => Ok(GroupSolve::TimeLimited(Some(refined(&sol)))),
        SolveOutcome::Feasible { best: sol, .. } => Ok(GroupSolve::Done(Some(refined(&sol)))),
        SolveOutcome::Infeasible => Ok(GroupSolve::Done(None)),
        SolveOutcome::ResourceExhausted(LimitKind::Time) => Ok(GroupSolve::TimeLimited(None)),
        SolveOutcome::ResourceExhausted(_) => Ok(GroupSolve::Done(None)),
        // A refine subproblem of a bounded sketch can only be unbounded
        // if the query itself is unbounded.
        SolveOutcome::Unbounded => Err(EngineError::Unbounded),
    }
}

/// Contribution of chosen `(row, mult)` pairs to each constraint row of
/// `system` (whose coefficients are indexed by position within `rows`).
fn contribution(system: &LinearSystem, rows: &[usize], pairs: &[(usize, u64)]) -> Vec<f64> {
    // Resolve each pair's coefficient slot once, not per constraint
    // row: a linear scan per (row × pair) made this quadratic-ish in
    // the group size τ.
    let slot_of: HashMap<usize, usize> = rows
        .iter()
        .enumerate()
        .map(|(slot, &row)| (row, slot))
        .collect();
    let slots: Vec<usize> = pairs
        .iter()
        .map(|&(tuple, _)| {
            *slot_of
                .get(&tuple)
                .expect("pair row must come from the group")
        })
        .collect();
    let mut out = vec![0.0; system.rows.len()];
    for (r, row) in system.rows.iter().enumerate() {
        for (&(_, mult), &slot) in pairs.iter().zip(&slots) {
            out[r] += row.coefs[slot] * mult as f64;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::Direct;
    use paq_lang::parse_paql;
    use paq_relational::{DataType, Schema, Value};

    /// Deterministic table of `n` tuples with two numeric attributes.
    fn table(n: usize) -> Table {
        let mut t = Table::new(Schema::from_pairs(&[
            ("value", DataType::Float),
            ("weight", DataType::Float),
            ("grade", DataType::Str),
        ]));
        let mut state = 0xABCDu64;
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

    fn partition(t: &Table, tau: usize) -> Partitioning {
        Partitioner::new(PartitionConfig::by_size(
            vec!["value".into(), "weight".into()],
            tau,
        ))
        .partition(t)
        .unwrap()
    }

    #[test]
    fn produces_feasible_package() {
        let t = table(200);
        let p = partition(&t, 25);
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R REPEAT 0 \
             SUCH THAT COUNT(P.*) = 8 AND SUM(P.weight) <= 20 \
             MAXIMIZE SUM(P.value)",
        )
        .unwrap();
        let sr = SketchRefine::default();
        let (pkg, report) = sr.evaluate_with_report(&q, &t, &p).unwrap();
        assert!(
            pkg.satisfies(&q, &t, 1e-6).unwrap(),
            "package must be feasible"
        );
        assert_eq!(pkg.cardinality(), 8);
        assert!(report.solver_calls >= 2, "sketch + at least one refine");
        assert!(report.groups_refined >= 1);
    }

    #[test]
    fn approximation_close_to_direct() {
        let t = table(150);
        let p = partition(&t, 20);
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R REPEAT 0 \
             SUCH THAT COUNT(P.*) = 6 AND SUM(P.weight) <= 18 \
             MAXIMIZE SUM(P.value)",
        )
        .unwrap();
        let direct_pkg = Direct::default().evaluate(&q, &t).unwrap();
        let sr_pkg = SketchRefine::default().evaluate_with(&q, &t, &p).unwrap();
        let obj_d = direct_pkg.objective_value(&q, &t).unwrap();
        let obj_s = sr_pkg.objective_value(&q, &t).unwrap();
        // Approximation ratio Obj_D / Obj_S for maximization; the paper
        // observes ratios close to 1 and we only require sanity here.
        let ratio = obj_d / obj_s;
        assert!(
            ratio >= 1.0 - 1e-9,
            "SKETCHREFINE cannot beat DIRECT: {ratio}"
        );
        assert!(ratio < 3.0, "approximation unexpectedly bad: {ratio}");
    }

    #[test]
    fn minimization_query_feasible_and_sane() {
        let t = table(150);
        let p = partition(&t, 20);
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R REPEAT 0 \
             SUCH THAT COUNT(P.*) = 5 AND SUM(P.value) >= 20 \
             MINIMIZE SUM(P.weight)",
        )
        .unwrap();
        let direct_obj = Direct::default()
            .evaluate(&q, &t)
            .unwrap()
            .objective_value(&q, &t)
            .unwrap();
        let pkg = SketchRefine::default().evaluate_with(&q, &t, &p).unwrap();
        assert!(pkg.satisfies(&q, &t, 1e-6).unwrap());
        let obj = pkg.objective_value(&q, &t).unwrap();
        assert!(obj >= direct_obj - 1e-9, "cannot beat the optimum");
    }

    #[test]
    fn base_predicate_filters_groups() {
        let t = table(120);
        let p = partition(&t, 15);
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R REPEAT 0 \
             WHERE R.grade = 'high' \
             SUCH THAT COUNT(P.*) = 4 MAXIMIZE SUM(P.value)",
        )
        .unwrap();
        let pkg = SketchRefine::default().evaluate_with(&q, &t, &p).unwrap();
        assert!(pkg.satisfies(&q, &t, 1e-6).unwrap());
        for &(row, _) in pkg.members() {
            assert_eq!(t.value(row, "grade").unwrap(), Value::from("high"));
        }
    }

    #[test]
    fn repeat_constraint_respected_through_refine() {
        let t = table(60);
        let p = partition(&t, 10);
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R REPEAT 1 \
             SUCH THAT COUNT(P.*) = 10 MINIMIZE SUM(P.weight)",
        )
        .unwrap();
        let pkg = SketchRefine::default().evaluate_with(&q, &t, &p).unwrap();
        assert!(pkg.max_multiplicity() <= 2);
        assert_eq!(pkg.cardinality(), 10);
    }

    #[test]
    fn infeasible_query_reported() {
        let t = table(30);
        let p = partition(&t, 8);
        let q = parse_paql("SELECT PACKAGE(R) AS P FROM R REPEAT 0 SUCH THAT COUNT(P.*) = 500")
            .unwrap();
        match SketchRefine::default().evaluate_with(&q, &t, &p) {
            Err(e) if e.is_infeasible() => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn single_group_degenerates_to_near_direct() {
        let t = table(40);
        let p = partition(&t, 1000); // one group
        assert_eq!(p.num_groups(), 1);
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R REPEAT 0 \
             SUCH THAT COUNT(P.*) = 5 MINIMIZE SUM(P.weight)",
        )
        .unwrap();
        let direct_obj = Direct::default()
            .evaluate(&q, &t)
            .unwrap()
            .objective_value(&q, &t)
            .unwrap();
        let pkg = SketchRefine::default().evaluate_with(&q, &t, &p).unwrap();
        let obj = pkg.objective_value(&q, &t).unwrap();
        // With a single group the refine step solves the full problem.
        assert!((obj - direct_obj).abs() < 1e-9);
    }

    #[test]
    fn default_evaluate_builds_partitioning() {
        let t = table(100);
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R REPEAT 0 \
             SUCH THAT COUNT(P.*) = 4 AND SUM(P.weight) <= 12 \
             MAXIMIZE SUM(P.value)",
        )
        .unwrap();
        let pkg = SketchRefine::default().evaluate(&q, &t).unwrap();
        assert!(pkg.satisfies(&q, &t, 1e-6).unwrap());
    }

    #[test]
    fn hybrid_sketch_rescues_tight_equality() {
        // An equality constraint on an attribute whose group means
        // cannot hit the target exactly: the plain sketch is likely
        // infeasible, the hybrid sketch (inlining real tuples) is not.
        let mut t = Table::new(Schema::from_pairs(&[("x", DataType::Float)]));
        for v in [1.0, 2.0, 3.0, 10.0, 20.0, 30.0] {
            t.push_row(vec![Value::Float(v)]).unwrap();
        }
        // Quad-tree splits into groups like {1,2,3} (mean 2), {10},
        // {20,30} — no multiset of group means with these caps sums to
        // exactly 13, so the plain sketch is infeasible.
        let p = Partitioner::new(PartitionConfig::by_size(vec!["x".into()], 3))
            .partition(&t)
            .unwrap();
        assert!(p.num_groups() >= 2);
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R REPEAT 0 \
             SUCH THAT COUNT(P.*) = 2 AND SUM(P.x) = 13 MINIMIZE SUM(P.x)",
        )
        .unwrap();
        // Exact package: {3, 10}.
        let sr = SketchRefine::default();
        let (pkg, report) = sr.evaluate_with_report(&q, &t, &p).unwrap();
        assert!(pkg.satisfies(&q, &t, 1e-6).unwrap());
        assert_eq!(
            pkg.aggregate(&t, paq_relational::agg::AggFunc::Sum, "x")
                .unwrap(),
            13.0
        );
        assert!(
            report.used_hybrid,
            "plain sketch cannot hit 13 from means 2/20"
        );
    }

    #[test]
    fn hybrid_disabled_reports_possibly_false_infeasibility() {
        let mut t = Table::new(Schema::from_pairs(&[("x", DataType::Float)]));
        for v in [1.0, 2.0, 3.0, 10.0, 20.0, 30.0] {
            t.push_row(vec![Value::Float(v)]).unwrap();
        }
        let p = Partitioner::new(PartitionConfig::by_size(vec!["x".into()], 3))
            .partition(&t)
            .unwrap();
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R REPEAT 0 \
             SUCH THAT COUNT(P.*) = 2 AND SUM(P.x) = 13 MINIMIZE SUM(P.x)",
        )
        .unwrap();
        let sr = SketchRefine::default().with_options(SketchRefineOptions {
            use_hybrid_sketch: false,
            ..SketchRefineOptions::default()
        });
        match sr.evaluate_with(&q, &t, &p) {
            Err(EngineError::Infeasible {
                possibly_false: true,
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Data where the required package needs non-centroid tuples from
    /// *two* groups at once: the plain sketch AND every hybrid sketch
    /// are infeasible, so only the §4.4 strategy-2/4 fallbacks succeed.
    fn two_group_trap() -> (Table, Partitioning, paq_lang::PackageQuery) {
        let mut t = Table::new(Schema::from_pairs(&[("x", DataType::Float)]));
        for v in [1.0, 2.0, 3.0, 10.0, 20.0, 31.0] {
            t.push_row(vec![Value::Float(v)]).unwrap();
        }
        let p = Partitioner::new(PartitionConfig::by_size(vec!["x".into()], 3))
            .partition(&t)
            .unwrap();
        // Only {3, 31} = 34 works; 3 and 31 live in different groups
        // and neither is its group's centroid.
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R REPEAT 0 \
             SUCH THAT COUNT(P.*) = 2 AND SUM(P.x) = 34 MINIMIZE SUM(P.x)",
        )
        .unwrap();
        (t, p, q)
    }

    #[test]
    fn merge_fallback_rescues_two_group_trap() {
        let (t, p, q) = two_group_trap();
        // Without fallbacks: (possibly false) infeasibility.
        match SketchRefine::default().evaluate_with(&q, &t, &p) {
            Err(EngineError::Infeasible {
                possibly_false: true,
            }) => {}
            other => panic!("expected false infeasibility, got {other:?}"),
        }
        // Strategy 4: merging reduces toward the unpartitioned problem.
        let sr = SketchRefine::default().with_options(SketchRefineOptions {
            merge_rounds: 3,
            ..SketchRefineOptions::default()
        });
        let (pkg, report) = sr.evaluate_with_report(&q, &t, &p).unwrap();
        assert!(report.merges >= 1);
        assert!(pkg.satisfies(&q, &t, 1e-6).unwrap());
        assert_eq!(
            pkg.aggregate(&t, paq_relational::agg::AggFunc::Sum, "x")
                .unwrap(),
            34.0
        );
    }

    #[test]
    fn attribute_drop_fallback_uses_infeasibility_diagnostic() {
        // Tuples (x, y) where the required pair {x=3, x=31} shares
        // y = 0.5. x has the dominant spread, so the quad tree splits
        // on x and separates the pair into sketch-hostile groups; the
        // sketch's infeasibility diagnostic implicates x, strategy 3
        // drops it, and the resulting y-partitioning puts the pair in
        // one group.
        let mut t = Table::new(Schema::from_pairs(&[
            ("x", DataType::Float),
            ("y", DataType::Float),
        ]));
        for (x, y) in [
            (1.0, 0.0),
            (2.0, 0.0),
            (3.0, 0.5),
            (10.0, 0.0),
            (20.0, 0.0),
            (31.0, 0.5),
        ] {
            t.push_row(vec![Value::Float(x), Value::Float(y)]).unwrap();
        }
        let p = Partitioner::new(PartitionConfig::by_size(vec!["x".into(), "y".into()], 3))
            .partition(&t)
            .unwrap();
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R REPEAT 0 \
             SUCH THAT COUNT(P.*) = 2 AND SUM(P.x) = 34 MINIMIZE SUM(P.x)",
        )
        .unwrap();
        // Hybrid off to force the ladder; only strategy 3 enabled.
        let sr = SketchRefine::default().with_options(SketchRefineOptions {
            use_hybrid_sketch: false,
            drop_attribute_rounds: 2,
            ..SketchRefineOptions::default()
        });
        match sr.evaluate_with_report(&q, &t, &p) {
            Ok((pkg, report)) => {
                assert!(report.attribute_drops >= 1);
                assert!(pkg.satisfies(&q, &t, 1e-6).unwrap());
                assert_eq!(
                    pkg.aggregate(&t, paq_relational::agg::AggFunc::Sum, "x")
                        .unwrap(),
                    34.0
                );
            }
            Err(e) => panic!("strategy 3 should rescue this query: {e}"),
        }
    }

    #[test]
    fn repartition_fallback_rescues_two_group_trap() {
        let (t, p, q) = two_group_trap();
        // Strategy 2: τ halves 3 → 1; singleton groups make the sketch
        // exact. Hybrid disabled to isolate the strategy.
        let sr = SketchRefine::default().with_options(SketchRefineOptions {
            use_hybrid_sketch: false,
            repartition_rounds: 4,
            ..SketchRefineOptions::default()
        });
        let (pkg, report) = sr.evaluate_with_report(&q, &t, &p).unwrap();
        assert!(report.repartitions >= 1);
        assert!(pkg.satisfies(&q, &t, 1e-6).unwrap());
    }

    #[test]
    fn sketch_group_limit_coarsens_but_still_solves() {
        let t = table(120);
        let p = partition(&t, 2); // many tiny groups
        assert!(p.num_groups() > 16);
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R REPEAT 0 \
             SUCH THAT COUNT(P.*) = 5 AND SUM(P.weight) <= 14 \
             MAXIMIZE SUM(P.value)",
        )
        .unwrap();
        let sr = SketchRefine::default().with_options(SketchRefineOptions {
            sketch_group_limit: Some(8),
            ..SketchRefineOptions::default()
        });
        let (pkg, _) = sr.evaluate_with_report(&q, &t, &p).unwrap();
        assert!(pkg.satisfies(&q, &t, 1e-6).unwrap());
    }

    #[test]
    fn solver_call_budget_bounds_backtracking() {
        let t = table(100);
        let p = partition(&t, 10);
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R REPEAT 0 \
             SUCH THAT COUNT(P.*) = 6 AND SUM(P.weight) <= 15 \
             MAXIMIZE SUM(P.value)",
        )
        .unwrap();
        let sr = SketchRefine::default().with_options(SketchRefineOptions {
            max_solver_calls: 3,
            ..SketchRefineOptions::default()
        });
        // Either it finishes within 3 calls or reports infeasibility —
        // never panics or exceeds the budget wildly.
        match sr.evaluate_with_report(&q, &t, &p) {
            Ok((pkg, report)) => {
                assert!(report.solver_calls <= 4);
                assert!(pkg.satisfies(&q, &t, 1e-6).unwrap());
            }
            Err(e) => assert!(e.is_infeasible()),
        }
    }

    #[test]
    fn telemetry_sees_many_small_calls() {
        let t = table(120);
        let p = partition(&t, 12);
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R REPEAT 0 \
             SUCH THAT COUNT(P.*) = 6 MINIMIZE SUM(P.weight)",
        )
        .unwrap();
        let tel = Arc::new(Telemetry::new());
        let sr = SketchRefine::default().with_telemetry(Arc::clone(&tel));
        sr.evaluate_with(&q, &t, &p).unwrap();
        assert!(tel.calls() >= 2, "sketch + refines, got {}", tel.calls());
    }
}
