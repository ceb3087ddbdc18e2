//! The hybrid solver public API and the baseline drivers of the evaluation.
//!
//! [`HybridSolver`] is the interface a downstream user would adopt: configure
//! sub-domain size, overlap and tolerance once, hand it a trained DSS model,
//! and call [`HybridSolver::solve`] on assembled Poisson problems.  The free
//! functions ([`solve_cg`], [`solve_ic0`], [`solve_ddm_lu`], [`solve_ddm_gnn`])
//! are the four columns of the paper's Tables I and III; all of them report
//! wall-clock timings split into total time and time spent inside the
//! preconditioner (the `T`, `T_lu`, `T_gnn` columns of Table III).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ddm::{AdditiveSchwarz, AsmLevel, MultilevelConfig};
use fem::PoissonProblem;
use gnn::{DssModel, Precision};
use krylov::{
    conjugate_gradient, preconditioned_conjugate_gradient, DegradationLadder, FaultLog,
    Ic0Preconditioner, JacobiPreconditioner, Preconditioner, ResiliencePolicy, SolveStats,
    SolverOptions,
};
use partition::partition_mesh_with_overlap;

use crate::preconditioner::DdmGnnPreconditioner;

/// The solver variants benchmarked in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Unpreconditioned Conjugate Gradient.
    Cg,
    /// PCG with zero-fill incomplete Cholesky.
    Ic0,
    /// PCG with the two-level Additive Schwarz method and exact local solves.
    DdmLu,
    /// PCG with the DDM-GNN preconditioner.
    DdmGnn,
}

impl Method {
    /// Human-readable name used in harness tables.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Cg => "CG",
            Method::Ic0 => "IC(0)",
            Method::DdmLu => "DDM-LU",
            Method::DdmGnn => "DDM-GNN",
        }
    }
}

/// Result of one solve, with the timing breakdown of Table III.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Which method produced this outcome.
    pub method: Method,
    /// Solution vector.
    pub x: Vec<f64>,
    /// Iteration counts, residuals, convergence history.
    pub stats: SolveStats,
    /// Total wall-clock time of the solve (excluding setup/factorisation).
    pub total_seconds: f64,
    /// Wall-clock time of preconditioner setup (factorisations, coarse space,
    /// graph construction).
    pub setup_seconds: f64,
    /// Wall-clock time spent applying the preconditioner.
    pub preconditioner_seconds: f64,
    /// Number of sub-domains (0 for CG / IC(0)).
    pub num_subdomains: usize,
}

/// Wraps any preconditioner and accumulates the wall-clock time spent in
/// `apply` — used to report the `T_lu` / `T_gnn` columns of Table III.
pub struct TimedPreconditioner<P> {
    inner: P,
    nanos: AtomicU64,
}

impl<P: Preconditioner> TimedPreconditioner<P> {
    /// Wrap a preconditioner.
    pub fn new(inner: P) -> Self {
        TimedPreconditioner { inner, nanos: AtomicU64::new(0) }
    }

    /// Seconds spent inside `apply` so far.
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Access the wrapped preconditioner.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Preconditioner> Preconditioner for TimedPreconditioner<P> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let start = Instant::now();
        self.inner.apply(r, z);
        self.nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn apply_checked(&self, r: &[f64], z: &mut [f64]) -> sparse::Result<()> {
        let start = Instant::now();
        let result = self.inner.apply_checked(r, z);
        self.nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    fn apply_batch(&self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        let start = Instant::now();
        self.inner.apply_batch(rs, zs);
        self.nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn collect_faults(&self, log: &mut FaultLog) {
        self.inner.collect_faults(log);
    }
}

/// Solve with unpreconditioned CG.
pub fn solve_cg(problem: &PoissonProblem, opts: &SolverOptions) -> SolveOutcome {
    let start = Instant::now();
    let result = conjugate_gradient(&problem.matrix, &problem.rhs, None, opts);
    SolveOutcome {
        method: Method::Cg,
        x: result.x,
        stats: result.stats,
        total_seconds: start.elapsed().as_secs_f64(),
        setup_seconds: 0.0,
        preconditioner_seconds: 0.0,
        num_subdomains: 0,
    }
}

/// Solve with IC(0)-preconditioned CG (the "legacy optimised preconditioner").
pub fn solve_ic0(problem: &PoissonProblem, opts: &SolverOptions) -> sparse::Result<SolveOutcome> {
    let setup_start = Instant::now();
    let precond = TimedPreconditioner::new(Ic0Preconditioner::new(&problem.matrix)?);
    let setup_seconds = setup_start.elapsed().as_secs_f64();
    let start = Instant::now();
    let result =
        preconditioned_conjugate_gradient(&problem.matrix, &problem.rhs, None, &precond, opts);
    Ok(SolveOutcome {
        method: Method::Ic0,
        x: result.x,
        stats: result.stats,
        total_seconds: start.elapsed().as_secs_f64(),
        setup_seconds,
        preconditioner_seconds: precond.seconds(),
        num_subdomains: 0,
    })
}

/// Solve with PCG preconditioned by the two-level ASM with exact local solves
/// (the paper's DDM-LU).
pub fn solve_ddm_lu(
    problem: &PoissonProblem,
    subdomains: Vec<Vec<usize>>,
    two_level: bool,
    opts: &SolverOptions,
) -> sparse::Result<SolveOutcome> {
    let num_subdomains = subdomains.len();
    let level = if two_level { AsmLevel::TwoLevel } else { AsmLevel::OneLevel };
    let setup_start = Instant::now();
    let precond =
        TimedPreconditioner::new(AdditiveSchwarz::new(&problem.matrix, subdomains, level)?);
    let setup_seconds = setup_start.elapsed().as_secs_f64();
    let start = Instant::now();
    let result =
        preconditioned_conjugate_gradient(&problem.matrix, &problem.rhs, None, &precond, opts);
    Ok(SolveOutcome {
        method: Method::DdmLu,
        x: result.x,
        stats: result.stats,
        total_seconds: start.elapsed().as_secs_f64(),
        setup_seconds,
        preconditioner_seconds: precond.seconds(),
        num_subdomains,
    })
}

/// [`solve_ddm_lu`] with the smoothed-aggregation multi-level hierarchy as
/// the coarse component instead of the Nicolaides space.
pub fn solve_ddm_lu_multilevel(
    problem: &PoissonProblem,
    subdomains: Vec<Vec<usize>>,
    config: &MultilevelConfig,
    opts: &SolverOptions,
) -> sparse::Result<SolveOutcome> {
    let num_subdomains = subdomains.len();
    let setup_start = Instant::now();
    let precond = TimedPreconditioner::new(AdditiveSchwarz::with_multilevel(
        &problem.matrix,
        subdomains,
        config,
    )?);
    let setup_seconds = setup_start.elapsed().as_secs_f64();
    let start = Instant::now();
    let result =
        preconditioned_conjugate_gradient(&problem.matrix, &problem.rhs, None, &precond, opts);
    Ok(SolveOutcome {
        method: Method::DdmLu,
        x: result.x,
        stats: result.stats,
        total_seconds: start.elapsed().as_secs_f64(),
        setup_seconds,
        preconditioner_seconds: precond.seconds(),
        num_subdomains,
    })
}

/// [`solve_ddm_gnn_with_precision`] with the multi-level hierarchy as the
/// coarse component (the hierarchy's smoother precision follows
/// `precision`).
pub fn solve_ddm_gnn_multilevel(
    problem: &PoissonProblem,
    subdomains: Vec<Vec<usize>>,
    model: Arc<DssModel>,
    config: &MultilevelConfig,
    precision: Precision,
    opts: &SolverOptions,
) -> sparse::Result<SolveOutcome> {
    let num_subdomains = subdomains.len();
    let setup_start = Instant::now();
    let precond = TimedPreconditioner::new(DdmGnnPreconditioner::with_multilevel_coarse(
        problem, subdomains, model, config, precision,
    )?);
    let setup_seconds = setup_start.elapsed().as_secs_f64();
    let start = Instant::now();
    let result =
        preconditioned_conjugate_gradient(&problem.matrix, &problem.rhs, None, &precond, opts);
    Ok(SolveOutcome {
        method: Method::DdmGnn,
        x: result.x,
        stats: result.stats,
        total_seconds: start.elapsed().as_secs_f64(),
        setup_seconds,
        preconditioner_seconds: precond.seconds(),
        num_subdomains,
    })
}

/// Solve with PCG preconditioned by DDM-GNN (double-precision inference).
pub fn solve_ddm_gnn(
    problem: &PoissonProblem,
    subdomains: Vec<Vec<usize>>,
    model: Arc<DssModel>,
    two_level: bool,
    opts: &SolverOptions,
) -> sparse::Result<SolveOutcome> {
    solve_ddm_gnn_with_precision(problem, subdomains, model, two_level, Precision::F64, opts)
}

/// [`solve_ddm_gnn`] with an explicit inference precision for the local DSS
/// solves (`Precision::F32` runs the single-precision SIMD engine,
/// `Precision::Int8` the quantised int8-weight / bf16-stream engine).
pub fn solve_ddm_gnn_with_precision(
    problem: &PoissonProblem,
    subdomains: Vec<Vec<usize>>,
    model: Arc<DssModel>,
    two_level: bool,
    precision: Precision,
    opts: &SolverOptions,
) -> sparse::Result<SolveOutcome> {
    let num_subdomains = subdomains.len();
    let setup_start = Instant::now();
    let precond = TimedPreconditioner::new(DdmGnnPreconditioner::with_precision(
        problem, subdomains, model, two_level, precision,
    )?);
    let setup_seconds = setup_start.elapsed().as_secs_f64();
    let start = Instant::now();
    let result =
        preconditioned_conjugate_gradient(&problem.matrix, &problem.rhs, None, &precond, opts);
    Ok(SolveOutcome {
        method: Method::DdmGnn,
        x: result.x,
        stats: result.stats,
        total_seconds: start.elapsed().as_secs_f64(),
        setup_seconds,
        preconditioner_seconds: precond.seconds(),
        num_subdomains,
    })
}

/// Result of a multi-right-hand-side DDM-GNN solve: one [`krylov::SolveResult`] per
/// column plus the shared timing breakdown (setup and preconditioner time are
/// amortised across the whole batch, so they are reported once).
#[derive(Debug, Clone)]
pub struct BatchSolveOutcome {
    /// Per-column solutions and statistics, in right-hand-side order.
    pub results: Vec<krylov::SolveResult>,
    /// Total wall-clock time of the batched solve (excluding setup).
    pub total_seconds: f64,
    /// Wall-clock time of preconditioner setup.
    pub setup_seconds: f64,
    /// Wall-clock time spent applying the preconditioner (all columns).
    pub preconditioner_seconds: f64,
    /// Number of sub-domains.
    pub num_subdomains: usize,
}

/// Solve the same operator against `bs.len()` right-hand sides with the
/// DDM-GNN preconditioner, batching the preconditioner application across
/// all still-active columns each outer iteration (one blocked GNN inference
/// per sub-domain instead of one per column).
///
/// Column `c` of the result is bit-identical to a [`solve_ddm_gnn_with_precision`]
/// run on `bs[c]` alone: the batched engines accumulate each column in the
/// same order as the unbatched ones.
pub fn solve_ddm_gnn_batch(
    problem: &PoissonProblem,
    subdomains: Vec<Vec<usize>>,
    model: Arc<DssModel>,
    two_level: bool,
    precision: Precision,
    bs: &[&[f64]],
    opts: &SolverOptions,
) -> sparse::Result<BatchSolveOutcome> {
    let num_subdomains = subdomains.len();
    let setup_start = Instant::now();
    let precond = TimedPreconditioner::new(DdmGnnPreconditioner::with_precision(
        problem, subdomains, model, two_level, precision,
    )?);
    let setup_seconds = setup_start.elapsed().as_secs_f64();
    let start = Instant::now();
    let results = krylov::solve_batch(&problem.matrix, bs, None, &precond, opts);
    Ok(BatchSolveOutcome {
        results,
        total_seconds: start.elapsed().as_secs_f64(),
        setup_seconds,
        preconditioner_seconds: precond.seconds(),
        num_subdomains,
    })
}

/// Build the ordered tier stack for a fault-tolerant DDM-GNN solve: the GNN
/// preconditioner at the configured precision, then every *higher*-precision
/// GNN engine it can fall back to (int8 → f32 → f64), then the exact Schwarz
/// method (two-level or multi-level, following `config`), then diagonal
/// Jacobi as the most conservative tier.
///
/// Exposed so tests and the benchmark harness can wrap individual tiers
/// (e.g. in a [`krylov::FaultInjectingPreconditioner`]) before assembling
/// the [`DegradationLadder`] themselves.
pub fn build_resilience_tiers(
    problem: &PoissonProblem,
    subdomains: &[Vec<usize>],
    model: &Arc<DssModel>,
    config: &HybridSolverConfig,
) -> sparse::Result<Vec<Box<dyn Preconditioner>>> {
    let chain: &[Precision] = match config.precision {
        Precision::Int8 => &[Precision::Int8, Precision::F32, Precision::F64],
        Precision::F32 => &[Precision::F32, Precision::F64],
        Precision::F64 => &[Precision::F64],
    };
    let mut tiers: Vec<Box<dyn Preconditioner>> = Vec::with_capacity(chain.len() + 2);
    for &precision in chain {
        let tier = if let Some(ml) = &config.multilevel {
            DdmGnnPreconditioner::with_multilevel_coarse(
                problem,
                subdomains.to_vec(),
                Arc::clone(model),
                ml,
                precision,
            )?
        } else {
            DdmGnnPreconditioner::with_precision(
                problem,
                subdomains.to_vec(),
                Arc::clone(model),
                config.two_level,
                precision,
            )?
        };
        tiers.push(Box::new(tier));
    }
    let asm = if let Some(ml) = &config.multilevel {
        AdditiveSchwarz::with_multilevel(&problem.matrix, subdomains.to_vec(), ml)?
    } else {
        let level = if config.two_level { AsmLevel::TwoLevel } else { AsmLevel::OneLevel };
        AdditiveSchwarz::new(&problem.matrix, subdomains.to_vec(), level)?
    };
    tiers.push(Box::new(asm));
    tiers.push(Box::new(JacobiPreconditioner::new(&problem.matrix)));
    Ok(tiers)
}

/// Run the supervised PCG over an already-assembled [`DegradationLadder`]
/// (whose tiers the caller may have wrapped, e.g. with fault injectors).
///
/// Contained faults, downgrades, and the final active tier end up on
/// `SolveOutcome::stats.faults`; the flexible (Polak–Ribière) PCG tolerates
/// the preconditioner changing mid-solve, so a downgrade never restarts the
/// outer iteration.
pub fn solve_with_ladder(
    problem: &PoissonProblem,
    num_subdomains: usize,
    ladder: DegradationLadder,
    setup_seconds: f64,
    opts: &SolverOptions,
) -> SolveOutcome {
    let precond = TimedPreconditioner::new(ladder);
    let start = Instant::now();
    let result =
        preconditioned_conjugate_gradient(&problem.matrix, &problem.rhs, None, &precond, opts);
    SolveOutcome {
        method: Method::DdmGnn,
        x: result.x,
        stats: result.stats,
        total_seconds: start.elapsed().as_secs_f64(),
        setup_seconds,
        preconditioner_seconds: precond.seconds(),
        num_subdomains,
    }
}

/// [`solve_ddm_gnn`] under the fault-tolerant supervisor: the preconditioner
/// is the full degradation ladder of [`build_resilience_tiers`] and faults
/// are contained, classified and reported instead of aborting the process.
pub fn solve_ddm_gnn_resilient(
    problem: &PoissonProblem,
    subdomains: Vec<Vec<usize>>,
    model: Arc<DssModel>,
    config: &HybridSolverConfig,
    policy: ResiliencePolicy,
    opts: &SolverOptions,
) -> sparse::Result<SolveOutcome> {
    let num_subdomains = subdomains.len();
    let setup_start = Instant::now();
    let tiers = build_resilience_tiers(problem, &subdomains, &model, config)?;
    let ladder = DegradationLadder::new(tiers, policy);
    let setup_seconds = setup_start.elapsed().as_secs_f64();
    Ok(solve_with_ladder(problem, num_subdomains, ladder, setup_seconds, opts))
}

/// Configuration of the high-level [`HybridSolver`].
#[derive(Debug, Clone)]
pub struct HybridSolverConfig {
    /// Target sub-domain size in nodes (the paper trains on ~1000).
    pub subdomain_size: usize,
    /// Overlap layers.
    pub overlap: usize,
    /// Use the two-level method (Nicolaides coarse correction).
    pub two_level: bool,
    /// Relative residual tolerance.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Seed for the partitioner.
    pub partition_seed: u64,
    /// Scalar precision of the DSS inference inside the preconditioner
    /// (`Precision::F32` opts into the single-precision SIMD engine,
    /// `Precision::Int8` into the quantised int8/bf16 engine — weights are
    /// quantised once at setup from the f64 model; the flexible outer PCG
    /// keeps its convergence guarantee in every mode).
    pub precision: Precision,
    /// When set, replace the Nicolaides coarse solve with a
    /// smoothed-aggregation multi-level V-cycle built from this
    /// configuration (overrides `two_level`; the hierarchy's smoother
    /// precision follows `precision`).
    pub multilevel: Option<MultilevelConfig>,
    /// When set, run the solve under the fault-tolerant supervisor: the
    /// preconditioner becomes a [`DegradationLadder`] (GNN at the configured
    /// precision, then progressively higher-precision GNN tiers, then the
    /// exact two-level/multi-level Schwarz method, then diagonal Jacobi)
    /// that contains panics, scans for non-finite output, and downgrades in
    /// place on a classified fault without restarting the outer PCG.  Faults
    /// and downgrades are reported on `SolveOutcome::stats.faults`.
    pub resilience: Option<ResiliencePolicy>,
}

impl Default for HybridSolverConfig {
    fn default() -> Self {
        HybridSolverConfig {
            subdomain_size: 1000,
            overlap: 2,
            two_level: true,
            tolerance: 1e-6,
            max_iterations: 5000,
            partition_seed: 0,
            precision: Precision::F64,
            multilevel: None,
            resilience: None,
        }
    }
}

/// The hybrid Krylov + GNN solver: the public API of the paper's contribution.
pub struct HybridSolver {
    config: HybridSolverConfig,
    model: Arc<DssModel>,
}

impl HybridSolver {
    /// Create a solver from a trained model and a configuration.
    pub fn new(model: DssModel, config: HybridSolverConfig) -> Self {
        HybridSolver { config: config.clone(), model: Arc::new(model) }
    }

    /// The solver configuration.
    pub fn config(&self) -> &HybridSolverConfig {
        &self.config
    }

    /// The trained model backing the preconditioner.
    pub fn model(&self) -> &DssModel {
        &self.model
    }

    /// Solve an assembled Poisson problem with the DDM-GNN preconditioned CG.
    pub fn solve(&self, problem: &PoissonProblem) -> sparse::Result<SolveOutcome> {
        let subdomains = partition_mesh_with_overlap(
            &problem.mesh,
            self.config.subdomain_size,
            self.config.overlap,
            self.config.partition_seed,
        );
        let opts = SolverOptions::with_tolerance(self.config.tolerance)
            .max_iterations(self.config.max_iterations);
        if let Some(policy) = &self.config.resilience {
            return solve_ddm_gnn_resilient(
                problem,
                subdomains,
                Arc::clone(&self.model),
                &self.config,
                policy.clone(),
                &opts,
            );
        }
        if let Some(ml) = &self.config.multilevel {
            return solve_ddm_gnn_multilevel(
                problem,
                subdomains,
                Arc::clone(&self.model),
                ml,
                self.config.precision,
                &opts,
            );
        }
        solve_ddm_gnn_with_precision(
            problem,
            subdomains,
            Arc::clone(&self.model),
            self.config.two_level,
            self.config.precision,
            &opts,
        )
    }

    /// Solve the same problem with the exact (DDM-LU) preconditioner — handy
    /// for side-by-side comparisons like Table I.
    pub fn solve_with_exact_local_solver(
        &self,
        problem: &PoissonProblem,
    ) -> sparse::Result<SolveOutcome> {
        let subdomains = partition_mesh_with_overlap(
            &problem.mesh,
            self.config.subdomain_size,
            self.config.overlap,
            self.config.partition_seed,
        );
        let opts = SolverOptions::with_tolerance(self.config.tolerance)
            .max_iterations(self.config.max_iterations);
        if let Some(ml) = &self.config.multilevel {
            return solve_ddm_lu_multilevel(problem, subdomains, ml, &opts);
        }
        solve_ddm_lu(problem, subdomains, self.config.two_level, &opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::fixture;

    #[test]
    fn all_methods_converge_and_agree() {
        let fx = fixture();
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(3000);
        let cg = solve_cg(&fx.problem, &opts);
        let ic0 = solve_ic0(&fx.problem, &opts).unwrap();
        let lu = solve_ddm_lu(&fx.problem, fx.subdomains.clone(), true, &opts).unwrap();
        let gnn = solve_ddm_gnn(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
            &opts,
        )
        .unwrap();
        for outcome in [&cg, &ic0, &lu, &gnn] {
            assert!(outcome.stats.converged(), "{:?} did not converge", outcome.method);
            assert!(outcome.total_seconds >= 0.0);
        }
        // All methods solve the same system: solutions agree.
        assert!(sparse::vector::relative_error(&gnn.x, &lu.x) < 1e-4);
        assert!(sparse::vector::relative_error(&ic0.x, &lu.x) < 1e-4);
        // Iteration ordering of Table I: DDM-LU <= DDM-GNN < CG.
        assert!(lu.stats.iterations <= gnn.stats.iterations);
        assert!(gnn.stats.iterations < cg.stats.iterations);
        // Timing bookkeeping is self-consistent.
        assert!(gnn.preconditioner_seconds <= gnn.total_seconds + 1e-9);
        assert!(lu.preconditioner_seconds <= lu.total_seconds + 1e-9);
        assert_eq!(cg.num_subdomains, 0);
        assert_eq!(gnn.num_subdomains, fx.subdomains.len());
        assert_eq!(Method::DdmGnn.name(), "DDM-GNN");
    }

    #[test]
    fn hybrid_solver_api_end_to_end() {
        let fx = fixture();
        let solver = HybridSolver::new(
            fx.model.clone(),
            HybridSolverConfig {
                subdomain_size: 250,
                overlap: 2,
                tolerance: 1e-6,
                ..Default::default()
            },
        );
        assert_eq!(solver.config().overlap, 2);
        assert_eq!(solver.model().config().latent_dim, fx.model.config().latent_dim);
        let outcome = solver.solve(&fx.problem).unwrap();
        assert!(outcome.stats.converged());
        let exact = solver.solve_with_exact_local_solver(&fx.problem).unwrap();
        assert!(exact.stats.converged());
        assert!(exact.stats.iterations <= outcome.stats.iterations);
        assert!(
            krylov::true_relative_residual(&fx.problem.matrix, &outcome.x, &fx.problem.rhs) < 1e-5
        );
    }

    #[test]
    fn hybrid_solver_f32_precision_converges() {
        let fx = fixture();
        let base = HybridSolverConfig {
            subdomain_size: 250,
            overlap: 2,
            tolerance: 1e-6,
            ..Default::default()
        };
        let f64_solver = HybridSolver::new(fx.model.clone(), base.clone());
        let f32_solver = HybridSolver::new(
            fx.model.clone(),
            HybridSolverConfig { precision: Precision::F32, ..base },
        );
        let o64 = f64_solver.solve(&fx.problem).unwrap();
        let o32 = f32_solver.solve(&fx.problem).unwrap();
        assert!(o64.stats.converged() && o32.stats.converged());
        assert!(sparse::vector::relative_error(&o32.x, &o64.x) < 1e-4);
        let cap = o64.stats.iterations + o64.stats.iterations.div_ceil(10);
        assert!(
            o32.stats.iterations <= cap,
            "f32 iterations {} exceed f64 {} + 10%",
            o32.stats.iterations,
            o64.stats.iterations
        );
    }

    #[test]
    fn hybrid_solver_int8_precision_converges() {
        let fx = fixture();
        let base = HybridSolverConfig {
            subdomain_size: 250,
            overlap: 2,
            tolerance: 1e-6,
            ..Default::default()
        };
        let f64_solver = HybridSolver::new(fx.model.clone(), base.clone());
        let q_solver = HybridSolver::new(
            fx.model.clone(),
            HybridSolverConfig { precision: Precision::Int8, ..base },
        );
        let o64 = f64_solver.solve(&fx.problem).unwrap();
        let oq = q_solver.solve(&fx.problem).unwrap();
        assert!(o64.stats.converged() && oq.stats.converged());
        assert!(sparse::vector::relative_error(&oq.x, &o64.x) < 1e-4);
        let cap = o64.stats.iterations + (15 * o64.stats.iterations).div_ceil(100);
        assert!(
            oq.stats.iterations <= cap,
            "int8 iterations {} exceed f64 {} + 15%",
            oq.stats.iterations,
            o64.stats.iterations
        );
    }

    #[test]
    fn hybrid_solver_multilevel_config_end_to_end() {
        let fx = fixture();
        let ml_config = MultilevelConfig { coarsest_max_size: 60, ..Default::default() };
        let solver = HybridSolver::new(
            fx.model.clone(),
            HybridSolverConfig {
                subdomain_size: 250,
                overlap: 2,
                tolerance: 1e-6,
                multilevel: Some(ml_config.clone()),
                ..Default::default()
            },
        );
        let outcome = solver.solve(&fx.problem).unwrap();
        assert!(outcome.stats.converged());
        assert!(
            krylov::true_relative_residual(&fx.problem.matrix, &outcome.x, &fx.problem.rhs) < 1e-5
        );
        let exact = solver.solve_with_exact_local_solver(&fx.problem).unwrap();
        assert!(exact.stats.converged());
        assert!(sparse::vector::relative_error(&exact.x, &outcome.x) < 1e-4);
        // The free functions drive the same multilevel paths.
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(500);
        let subdomains = partition_mesh_with_overlap(&fx.problem.mesh, 250, 2, 0);
        let lu_ml =
            solve_ddm_lu_multilevel(&fx.problem, subdomains.clone(), &ml_config, &opts).unwrap();
        let gnn_ml = solve_ddm_gnn_multilevel(
            &fx.problem,
            subdomains,
            Arc::new(fx.model.clone()),
            &ml_config,
            Precision::F64,
            &opts,
        )
        .unwrap();
        assert!(lu_ml.stats.converged() && gnn_ml.stats.converged());
        assert!(lu_ml.stats.iterations <= gnn_ml.stats.iterations);
    }

    #[test]
    fn resilient_config_is_transparent_when_fault_free() {
        let fx = fixture();
        let base = HybridSolverConfig {
            subdomain_size: 250,
            overlap: 2,
            tolerance: 1e-6,
            ..Default::default()
        };
        let plain = HybridSolver::new(fx.model.clone(), base.clone());
        let resilient = HybridSolver::new(
            fx.model.clone(),
            HybridSolverConfig { resilience: Some(ResiliencePolicy::default()), ..base },
        );
        let p = plain.solve(&fx.problem).unwrap();
        let r = resilient.solve(&fx.problem).unwrap();
        assert!(p.stats.converged() && r.stats.converged());
        // The guards only read r/z, so a fault-free supervised solve is
        // bit-identical to the unsupervised one.
        assert_eq!(p.x, r.x);
        assert_eq!(p.stats.iterations, r.stats.iterations);
        assert!(!r.stats.degraded(), "fault-free solve reported faults: {:?}", r.stats.faults);
        assert_eq!(r.stats.faults.final_tier(), Some("ddm-gnn-2level"));
    }

    #[test]
    fn timed_preconditioner_accumulates() {
        let fx = fixture();
        let inner = krylov::JacobiPreconditioner::new(&fx.problem.matrix);
        let timed = TimedPreconditioner::new(inner);
        let r = fx.problem.rhs.clone();
        let mut z = vec![0.0; r.len()];
        assert_eq!(timed.seconds(), 0.0);
        timed.apply(&r, &mut z);
        timed.apply(&r, &mut z);
        assert!(timed.seconds() > 0.0);
        assert_eq!(timed.dim(), r.len());
        assert_eq!(timed.name(), "jacobi");
        assert_eq!(timed.inner().dim(), r.len());
        // The batched apply is timed too, and forwards to the inner batch path.
        let before = timed.seconds();
        let mut z0 = vec![0.0; r.len()];
        let mut z1 = vec![0.0; r.len()];
        let rs: Vec<&[f64]> = vec![&r, &r];
        let mut zs: Vec<&mut [f64]> = vec![&mut z0, &mut z1];
        timed.apply_batch(&rs, &mut zs);
        assert!(timed.seconds() > before);
        assert_eq!(z0, z);
        assert_eq!(z1, z);
    }

    #[test]
    fn batched_solve_matches_sequential_solves_bitwise() {
        let fx = fixture();
        let n = fx.problem.rhs.len();
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(500);
        let model = Arc::new(fx.model.clone());
        // Three distinct right-hand sides: the assembled one and two shifts.
        let b0 = fx.problem.rhs.clone();
        let b1: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b2: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let bs: Vec<&[f64]> = vec![&b0, &b1, &b2];
        let batch = solve_ddm_gnn_batch(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::clone(&model),
            true,
            Precision::F64,
            &bs,
            &opts,
        )
        .unwrap();
        assert_eq!(batch.results.len(), 3);
        assert_eq!(batch.num_subdomains, fx.subdomains.len());
        assert!(batch.preconditioner_seconds > 0.0);
        for (c, b) in [&b0, &b1, &b2].into_iter().enumerate() {
            let problem = fem::PoissonProblem { rhs: b.clone(), ..fx.problem.clone() };
            let single =
                solve_ddm_gnn(&problem, fx.subdomains.clone(), Arc::clone(&model), true, &opts)
                    .unwrap();
            assert!(single.stats.converged());
            assert_eq!(batch.results[c].x, single.x, "column {c} solution differs");
            assert_eq!(batch.results[c].stats.iterations, single.stats.iterations);
            assert_eq!(
                batch.results[c].stats.history.norms(),
                single.stats.history.norms(),
                "column {c} residual history differs"
            );
        }
    }
}
