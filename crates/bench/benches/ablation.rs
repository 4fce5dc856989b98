//! Ablation benchmarks for two design choices of `paq-solver`:
//!
//! * **presolve singleton folding** — the SKETCH query adds one
//!   per-group cardinality cap row per group; folding keeps those rows
//!   out of the simplex basis (basis = #true global predicates instead
//!   of #groups);
//! * **bound-flip batching** — amortizing one dual vector across
//!   consecutive profitable bound flips, which matters when LP optima
//!   rest many variables on their bounds.

use criterion::{criterion_group, criterion_main, Criterion};
use paq_solver::{MilpSolver, Model, Sense, SolverConfig, VarId};

/// Sketch-query-shaped model: `groups` representative variables, two
/// real global predicates, and one singleton cap row per group.
fn sketch_shape(groups: usize) -> Model {
    let mut m = Model::new();
    let vars: Vec<VarId> = (0..groups)
        .map(|i| m.add_int_var(0.0, 50.0, ((i * 13) % 23) as f64 + 1.0))
        .collect();
    m.add_range(vars.iter().map(|&v| (v, 1.0)).collect(), 5.0, 40.0);
    m.add_le(
        vars.iter()
            .enumerate()
            .map(|(i, &v)| (v, ((i * 7) % 13) as f64 + 1.0))
            .collect(),
        groups as f64 * 2.0,
    );
    for (i, &v) in vars.iter().enumerate() {
        // |G_j| caps.
        m.add_le(vec![(v, 1.0)], ((i % 9) + 2) as f64);
    }
    m.set_sense(Sense::Maximize);
    m
}

/// Knapsack whose LP optimum puts many variables at their upper bound
/// (the flip-heavy shape).
fn flip_heavy(n: usize) -> Model {
    let mut m = Model::new();
    let vars: Vec<VarId> = (0..n)
        .map(|i| m.add_var(0.0, 1.0, 100.0 + ((i * 3) % 7) as f64))
        .collect();
    m.add_le(
        vars.iter().map(|&v| (v, 1.0)).collect(),
        n as f64 * 0.8, // 80% of variables end at their upper bound
    );
    m.set_sense(Sense::Maximize);
    m
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);

    let sketch = sketch_shape(400);
    group.bench_function("singleton_folding_on", |b| {
        let solver = MilpSolver::new(SolverConfig::default());
        b.iter(|| solver.solve(&sketch))
    });
    group.bench_function("singleton_folding_off", |b| {
        let solver = MilpSolver::new(SolverConfig::default().with_fold_singletons(false));
        b.iter(|| solver.solve(&sketch))
    });

    let flips = flip_heavy(5_000);
    group.bench_function("flip_batching_on", |b| {
        let solver = MilpSolver::new(SolverConfig::default());
        b.iter(|| solver.solve(&flips))
    });
    group.bench_function("flip_batching_off", |b| {
        let solver = MilpSolver::new(SolverConfig::default().with_flip_batching(false));
        b.iter(|| solver.solve(&flips))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
