//! The one- and two-level Additive Schwarz preconditioner (DDM-LU).
//!
//! `apply` implements Eq. (6) / (7) of the paper:
//!
//! ```text
//! z = [R₀ᵀ (R₀ A R₀ᵀ)⁻¹ R₀ r]   (two-level only)
//!   + Σᵢ Rᵢᵀ (Rᵢ A Rᵢᵀ)⁻¹ Rᵢ r
//! ```
//!
//! The local solves are independent and run in parallel with rayon — the CPU
//! analogue of the paper's batched GPU inference.
//!
//! `apply` is allocation-free: every sub-domain owns a pre-sized scratch
//! buffer set (restricted residual, local solution, solver work vector)
//! behind an uncontended `Mutex`, so the per-Krylov-iteration path performs
//! no heap allocation at all.  The gather/solve phase runs in parallel; the
//! scatter (`Σ Rᵢᵀ vᵢ`) accumulates sequentially in sub-domain order so the
//! result is bit-identical at every thread count.

use sanitizer::TrackedMutex;
use std::sync::atomic::{AtomicU64, Ordering};

use krylov::resilience::{FaultEvent, FaultKind, FaultLog};
use krylov::Preconditioner;
use rayon::prelude::*;
use sparse::CsrMatrix;

use crate::coarse::NicolaidesCoarseSpace;
use crate::local::{factor_all_cholesky, CholeskyLocalSolver, LocalSolver};
use crate::multilevel::{Hierarchy, MultilevelConfig};
use crate::restriction::Restriction;
use crate::Decomposition;

/// The coarse component of a two-or-more-level Schwarz preconditioner:
/// either the classical single-shot Nicolaides solve or a recursive
/// smoothed-aggregation V-cycle.
pub enum CoarseSpace {
    /// One coarse degree of freedom per sub-domain, dense LU solve.
    Nicolaides(NicolaidesCoarseSpace),
    /// Smoothed-aggregation multi-level V-cycle over the global operator.
    Multilevel(Hierarchy),
}

impl CoarseSpace {
    /// Accumulate the coarse correction for residual `r` into `out`.
    ///
    /// The Nicolaides path reports mismatched dimensions as a classified
    /// error; the multilevel V-cycle is infallible once built.
    pub fn apply_into(&self, r: &[f64], out: &mut [f64]) -> sparse::Result<()> {
        match self {
            CoarseSpace::Nicolaides(c) => c.apply_into(r, out),
            CoarseSpace::Multilevel(h) => {
                h.apply_into(r, out);
                Ok(())
            }
        }
    }

    /// Accumulate the coarse correction for a batch of residuals into the
    /// matching outputs.
    ///
    /// The Nicolaides path runs its restriction/prolongation as blocked SpMM
    /// (one sweep over `R₀` per batch); the multilevel V-cycle has no panel
    /// form and falls back to a column loop.  Per-column results are
    /// bit-identical to [`CoarseSpace::apply_into`].
    pub fn apply_batch_into(&self, rs: &[&[f64]], outs: &mut [&mut [f64]]) -> sparse::Result<()> {
        match self {
            CoarseSpace::Nicolaides(c) => c.apply_batch_into(rs, outs),
            CoarseSpace::Multilevel(h) => {
                for (r, out) in rs.iter().zip(outs.iter_mut()) {
                    h.apply_into(r, out);
                }
                Ok(())
            }
        }
    }

    /// Number of levels the coarse component itself spans (1 for the
    /// Nicolaides direct solve).
    pub fn num_levels(&self) -> usize {
        match self {
            CoarseSpace::Nicolaides(_) => 1,
            CoarseSpace::Multilevel(h) => h.num_levels(),
        }
    }
}

/// Reusable per-sub-domain buffers for one preconditioner application.
struct LocalScratch {
    /// Restricted residual `Rᵢ r`.
    rhs: Vec<f64>,
    /// Local solution `(Rᵢ A Rᵢᵀ)⁻¹ Rᵢ r`.
    sol: Vec<f64>,
    /// Solver-internal work vector (permuted intermediate).
    work: Vec<f64>,
    /// Column-interleaved `num_local × b` solution panel of the batched
    /// apply (empty until the first `apply_batch`).
    sol_b: Vec<f64>,
}

impl LocalScratch {
    fn new(dim: usize) -> TrackedMutex<Self> {
        TrackedMutex::new(
            LocalScratch {
                rhs: vec![0.0; dim],
                sol: vec![0.0; dim],
                work: Vec::new(),
                sol_b: Vec::new(),
            },
            "ddm::asm::LocalScratch",
        )
    }
}

/// Whether the preconditioner includes the coarse-space correction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsmLevel {
    /// One-level method: local solves only.
    OneLevel,
    /// Two-level method: local solves plus the Nicolaides coarse correction.
    TwoLevel,
    /// Local solves plus a smoothed-aggregation multi-level V-cycle (with
    /// the default [`MultilevelConfig`]; use
    /// [`AdditiveSchwarz::with_multilevel`] for a custom one).
    Multilevel,
}

/// The Additive Schwarz preconditioner with exact local solvers.
pub struct AdditiveSchwarz {
    restrictions: Vec<Restriction>,
    local_solvers: Vec<CholeskyLocalSolver>,
    coarse: Option<CoarseSpace>,
    scratch: Vec<TrackedMutex<LocalScratch>>,
    /// Serialises whole `apply` calls: the scratch buffers span the parallel
    /// fill and the sequential glue, so two concurrent `apply`s on the same
    /// preconditioner would otherwise interleave and corrupt each other.
    apply_guard: TrackedMutex<()>,
    num_global: usize,
    /// Reported by `Preconditioner::name` ("ddm-lu-1level", "ddm-lu-2level"
    /// or `"ddm-lu-ml<levels>"`).
    name: String,
    /// Number of `apply` calls so far (≈ the outer iteration index).
    applies: AtomicU64,
    /// Classified local-/coarse-solve errors, surfaced via `collect_faults`.
    faults: TrackedMutex<FaultLog>,
}

impl AdditiveSchwarz {
    /// Build the preconditioner from a global matrix and overlapping
    /// sub-domain index sets.
    pub fn new(
        matrix: &CsrMatrix,
        subdomains: Vec<Vec<usize>>,
        level: AsmLevel,
    ) -> sparse::Result<Self> {
        let decomp = Decomposition::new(matrix, subdomains);
        Self::from_decomposition(matrix, decomp, level)
    }

    /// Build with a smoothed-aggregation multi-level coarse component using
    /// an explicit [`MultilevelConfig`].
    pub fn with_multilevel(
        matrix: &CsrMatrix,
        subdomains: Vec<Vec<usize>>,
        config: &MultilevelConfig,
    ) -> sparse::Result<Self> {
        let decomp = Decomposition::new(matrix, subdomains);
        Self::from_decomposition_multilevel(matrix, decomp, config)
    }

    /// [`AdditiveSchwarz::from_decomposition`] with a multi-level coarse
    /// component built from `config`.
    pub fn from_decomposition_multilevel(
        matrix: &CsrMatrix,
        decomposition: Decomposition,
        config: &MultilevelConfig,
    ) -> sparse::Result<Self> {
        let hierarchy = Hierarchy::build(matrix, config)?;
        Self::assemble(matrix, decomposition, Some(CoarseSpace::Multilevel(hierarchy)))
    }

    /// Build from an existing decomposition with an explicitly constructed
    /// coarse component (or none).  This is the injection point for custom
    /// hierarchies — e.g. the bit-exact
    /// [`Hierarchy::two_level_nicolaides`] pinning configuration.
    pub fn from_decomposition_with_coarse(
        matrix: &CsrMatrix,
        decomposition: Decomposition,
        coarse: Option<CoarseSpace>,
    ) -> sparse::Result<Self> {
        Self::assemble(matrix, decomposition, coarse)
    }

    /// Build from an existing decomposition (lets callers reuse the local
    /// matrices, e.g. to also train a GNN on them).
    pub fn from_decomposition(
        matrix: &CsrMatrix,
        decomposition: Decomposition,
        level: AsmLevel,
    ) -> sparse::Result<Self> {
        let coarse = match level {
            AsmLevel::OneLevel => None,
            AsmLevel::TwoLevel => Some(CoarseSpace::Nicolaides(NicolaidesCoarseSpace::new(
                matrix,
                &decomposition.restrictions,
            )?)),
            AsmLevel::Multilevel => Some(CoarseSpace::Multilevel(Hierarchy::build(
                matrix,
                &MultilevelConfig::default(),
            )?)),
        };
        Self::assemble(matrix, decomposition, coarse)
    }

    fn assemble(
        matrix: &CsrMatrix,
        decomposition: Decomposition,
        coarse: Option<CoarseSpace>,
    ) -> sparse::Result<Self> {
        let Decomposition { restrictions, local_matrices, .. } = decomposition;
        let local_solvers = factor_all_cholesky(&local_matrices)?;
        let scratch = restrictions.iter().map(|r| LocalScratch::new(r.num_local())).collect();
        let name = match &coarse {
            None => "ddm-lu-1level".to_string(),
            Some(CoarseSpace::Nicolaides(_)) => "ddm-lu-2level".to_string(),
            Some(CoarseSpace::Multilevel(h)) => format!("ddm-lu-ml{}", h.num_levels()),
        };
        Ok(AdditiveSchwarz {
            restrictions,
            local_solvers,
            coarse,
            scratch,
            apply_guard: TrackedMutex::new((), "ddm::asm::AdditiveSchwarz::apply_guard"),
            num_global: matrix.nrows(),
            name,
            applies: AtomicU64::new(0),
            // Commutative: the fault log is append-only inside parallel
            // sections and every aggregation over it is order-insensitive.
            faults: TrackedMutex::new_commutative(
                FaultLog::new(),
                "ddm::asm::AdditiveSchwarz::faults",
                "append-only fault log; aggregation queries are order-insensitive",
            ),
        })
    }

    /// Number of sub-domains.
    pub fn num_subdomains(&self) -> usize {
        self.restrictions.len()
    }

    /// Whether the coarse correction is active.
    pub fn has_coarse_space(&self) -> bool {
        self.coarse.is_some()
    }

    /// The coarse component, if any.
    pub fn coarse_space(&self) -> Option<&CoarseSpace> {
        self.coarse.as_ref()
    }
}

impl Preconditioner for AdditiveSchwarz {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        debug_assert_eq!(r.len(), self.num_global);
        debug_assert_eq!(z.len(), self.num_global);
        let _exclusive = self.apply_guard.lock();
        let apply_index = self.applies.fetch_add(1, Ordering::SeqCst);

        // Local corrections, computed in parallel into per-sub-domain scratch
        // buffers (never contended: each index is touched by exactly one
        // chunk, the Mutex only satisfies `&self`).  A failed local solve
        // zeroes its contribution and is recorded as a classified fault
        // instead of panicking the worker — the remaining sub-domains (and
        // the coarse correction) still produce a usable preconditioner.
        (0..self.restrictions.len()).into_par_iter().for_each(|i| {
            let mut guard = self.scratch[i].lock();
            let LocalScratch { rhs, sol, work, .. } = &mut *guard;
            self.restrictions[i].restrict_into(r, rhs);
            if let Err(e) = self.local_solvers[i].solve_into(rhs, work, sol) {
                for v in sol.iter_mut() {
                    *v = 0.0;
                }
                self.faults.lock().record(FaultEvent::new(
                    FaultKind::NumericalError,
                    apply_index,
                    &self.name,
                    format!("local solve on sub-domain {i} failed: {e}"),
                ));
            }
        });

        // Accumulate: z = Σ Rᵢᵀ vᵢ (+ coarse correction), sequentially in
        // sub-domain order for thread-count-independent rounding.
        for zi in z.iter_mut() {
            *zi = 0.0;
        }
        for (restriction, scratch) in self.restrictions.iter().zip(self.scratch.iter()) {
            restriction.extend_add(&scratch.lock().sol, z);
        }
        if let Some(coarse) = &self.coarse {
            if let Err(e) = coarse.apply_into(r, z) {
                // Skip the coarse contribution; the local corrections alone
                // are still a valid (one-level) preconditioner.
                self.faults.lock().record(FaultEvent::new(
                    FaultKind::NumericalError,
                    apply_index,
                    &self.name,
                    format!("coarse correction failed: {e}"),
                ));
            }
        }
    }

    fn apply_batch(&self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        assert_eq!(rs.len(), zs.len(), "batched apply: rs/zs column count mismatch");
        let b = rs.len();
        debug_assert!(rs.iter().all(|r| r.len() == self.num_global));
        debug_assert!(zs.iter().all(|z| z.len() == self.num_global));
        let _exclusive = self.apply_guard.lock();
        let apply_index = self.applies.fetch_add(1, Ordering::SeqCst);

        // Batched local solves: each sub-domain factors stays cache-hot
        // across its b back-substitutions under a single lock acquisition.
        // Every column goes through the same contiguous rhs/sol buffers and
        // operation order as the unbatched apply, then scatters into the
        // column-interleaved panel.
        (0..self.restrictions.len()).into_par_iter().for_each(|i| {
            let mut guard = self.scratch[i].lock();
            let LocalScratch { rhs, sol, work, sol_b } = &mut *guard;
            let nl = rhs.len();
            sol_b.resize(nl * b, 0.0);
            for (c, r) in rs.iter().enumerate() {
                self.restrictions[i].restrict_into(r, rhs);
                if let Err(e) = self.local_solvers[i].solve_into(rhs, work, sol) {
                    for v in sol.iter_mut() {
                        *v = 0.0;
                    }
                    self.faults.lock().record(FaultEvent::new(
                        FaultKind::NumericalError,
                        apply_index,
                        &self.name,
                        format!("local solve on sub-domain {i} failed in batch column {c}: {e}"),
                    ));
                }
                for (j, &v) in sol.iter().enumerate() {
                    sol_b[j * b + c] = v;
                }
            }
        });

        // Per-column gluing in sub-domain order (thread-count independent),
        // then the coarse correction as one blocked SpMM over the batch.
        for z in zs.iter_mut() {
            for zi in z.iter_mut() {
                *zi = 0.0;
            }
        }
        for (restriction, scratch) in self.restrictions.iter().zip(self.scratch.iter()) {
            let guard = scratch.lock();
            for (c, z) in zs.iter_mut().enumerate() {
                restriction.extend_add_scaled_strided(1.0, &guard.sol_b, b, c, z);
            }
        }
        if let Some(coarse) = &self.coarse {
            if let Err(e) = coarse.apply_batch_into(rs, zs) {
                self.faults.lock().record(FaultEvent::new(
                    FaultKind::NumericalError,
                    apply_index,
                    &self.name,
                    format!("batched coarse correction failed: {e}"),
                ));
            }
        }
    }

    fn dim(&self) -> usize {
        self.num_global
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn collect_faults(&self, into: &mut FaultLog) {
        into.merge(self.faults.lock().clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::fixture;
    use krylov::{conjugate_gradient, preconditioned_conjugate_gradient, SolverOptions};

    #[test]
    fn batched_apply_is_bit_identical_per_column() {
        // Exercises the batched local solves and the blocked-SpMM Nicolaides
        // coarse path against the unbatched apply, column by column.
        let fx = fixture(900, 250, 2);
        let n = fx.problem.num_unknowns();
        for level in [AsmLevel::OneLevel, AsmLevel::TwoLevel] {
            let asm =
                AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), level).unwrap();
            for b in [1usize, 3, 4] {
                let rhs: Vec<Vec<f64>> = (0..b)
                    .map(|c| {
                        (0..n)
                            .map(|i| ((i * (c + 2)) % 9) as f64 * 0.4 - 1.3 + 0.05 * c as f64)
                            .collect()
                    })
                    .collect();
                let r_refs: Vec<&[f64]> = rhs.iter().map(|r| r.as_slice()).collect();
                let mut zs: Vec<Vec<f64>> = vec![vec![0.0; n]; b];
                {
                    let mut z_refs: Vec<&mut [f64]> =
                        zs.iter_mut().map(|z| z.as_mut_slice()).collect();
                    asm.apply_batch(&r_refs, &mut z_refs);
                }
                let mut expected = vec![0.0; n];
                for (c, r) in rhs.iter().enumerate() {
                    asm.apply(r, &mut expected);
                    assert_eq!(
                        zs[c], expected,
                        "{level:?} b={b} column {c}: batched ASM apply diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn asm_preconditioned_pcg_converges_and_beats_cg() {
        let fx = fixture(1500, 400, 2);
        let opts = SolverOptions::with_tolerance(1e-6);
        let plain = conjugate_gradient(&fx.problem.matrix, &fx.problem.rhs, None, &opts);
        let asm =
            AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), AsmLevel::TwoLevel)
                .unwrap();
        let pcg = preconditioned_conjugate_gradient(
            &fx.problem.matrix,
            &fx.problem.rhs,
            None,
            &asm,
            &opts,
        );
        assert!(plain.stats.converged());
        assert!(pcg.stats.converged());
        assert!(
            pcg.stats.iterations < plain.stats.iterations / 2,
            "ASM {} vs CG {}",
            pcg.stats.iterations,
            plain.stats.iterations
        );
        // Both compute the same solution.
        assert!(sparse::vector::relative_error(&pcg.x, &plain.x) < 1e-4);
    }

    #[test]
    fn two_level_beats_or_matches_one_level() {
        // With many sub-domains the one-level method loses scalability and the
        // coarse correction pays off (the effect is weak for small K).
        let fx = fixture(2500, 150, 2);
        let opts = SolverOptions::with_tolerance(1e-6);
        let one =
            AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), AsmLevel::OneLevel)
                .unwrap();
        let two =
            AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), AsmLevel::TwoLevel)
                .unwrap();
        assert!(!one.has_coarse_space());
        assert!(two.has_coarse_space());
        let r1 = preconditioned_conjugate_gradient(
            &fx.problem.matrix,
            &fx.problem.rhs,
            None,
            &one,
            &opts,
        );
        let r2 = preconditioned_conjugate_gradient(
            &fx.problem.matrix,
            &fx.problem.rhs,
            None,
            &two,
            &opts,
        );
        assert!(r1.stats.converged() && r2.stats.converged());
        assert!(
            r2.stats.iterations <= r1.stats.iterations,
            "two-level {} vs one-level {}",
            r2.stats.iterations,
            r1.stats.iterations
        );
    }

    #[test]
    fn asm_application_is_symmetric() {
        // The ASM operator with exact local solves is symmetric; PCG theory
        // relies on it.
        let fx = fixture(700, 250, 2);
        let asm =
            AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), AsmLevel::TwoLevel)
                .unwrap();
        let n = fx.problem.num_unknowns();
        let y: Vec<f64> = (0..n).map(|i| ((i * 3 % 13) as f64) - 6.0).collect();
        let w: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) * 0.4).collect();
        let mut my = vec![0.0; n];
        let mut mw = vec![0.0; n];
        asm.apply(&y, &mut my);
        asm.apply(&w, &mut mw);
        let lhs = sparse::vector::dot(&w, &my);
        let rhs = sparse::vector::dot(&y, &mw);
        assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0));
    }

    #[test]
    fn larger_overlap_reduces_iterations() {
        // Paper Table I: overlap 4 converges in fewer iterations than overlap 2.
        let fx2 = fixture(1500, 400, 2);
        let fx4_subdomains = {
            // Rebuild the same mesh partition with overlap 4 by regenerating
            // the fixture with identical seeds.
            let fx4 = fixture(1500, 400, 4);
            // Both fixtures are generated from the same deterministic seeds, so
            // the underlying problems match.
            assert_eq!(fx4.problem.num_unknowns(), fx2.problem.num_unknowns());
            fx4.subdomains
        };
        let opts = SolverOptions::with_tolerance(1e-6);
        let asm2 =
            AdditiveSchwarz::new(&fx2.problem.matrix, fx2.subdomains.clone(), AsmLevel::TwoLevel)
                .unwrap();
        let asm4 =
            AdditiveSchwarz::new(&fx2.problem.matrix, fx4_subdomains, AsmLevel::TwoLevel).unwrap();
        let r2 = preconditioned_conjugate_gradient(
            &fx2.problem.matrix,
            &fx2.problem.rhs,
            None,
            &asm2,
            &opts,
        );
        let r4 = preconditioned_conjugate_gradient(
            &fx2.problem.matrix,
            &fx2.problem.rhs,
            None,
            &asm4,
            &opts,
        );
        assert!(r2.stats.converged() && r4.stats.converged());
        assert!(
            r4.stats.iterations <= r2.stats.iterations,
            "overlap 4: {} vs overlap 2: {}",
            r4.stats.iterations,
            r2.stats.iterations
        );
    }

    #[test]
    fn multilevel_coarse_component_converges_and_is_symmetric() {
        let fx = fixture(2500, 150, 2);
        let opts = SolverOptions::with_tolerance(1e-6);
        let ml = AdditiveSchwarz::with_multilevel(
            &fx.problem.matrix,
            fx.subdomains.clone(),
            &crate::MultilevelConfig { coarsest_max_size: 100, ..Default::default() },
        )
        .unwrap();
        assert!(ml.has_coarse_space());
        let levels = ml.coarse_space().unwrap().num_levels();
        assert!(levels >= 2, "hierarchy should have coarsened, got {levels} levels");
        assert_eq!(ml.name(), format!("ddm-lu-ml{levels}"));

        // Symmetry (PCG requirement).
        let n = fx.problem.num_unknowns();
        let y: Vec<f64> = (0..n).map(|i| ((i * 3 % 13) as f64) - 6.0).collect();
        let w: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) * 0.4).collect();
        let mut my = vec![0.0; n];
        let mut mw = vec![0.0; n];
        ml.apply(&y, &mut my);
        ml.apply(&w, &mut mw);
        let lhs = sparse::vector::dot(&w, &my);
        let rhs = sparse::vector::dot(&y, &mw);
        assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0));

        // Converges at least as fast as the Nicolaides two-level method.
        let two =
            AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), AsmLevel::TwoLevel)
                .unwrap();
        let r_ml = preconditioned_conjugate_gradient(
            &fx.problem.matrix,
            &fx.problem.rhs,
            None,
            &ml,
            &opts,
        );
        let r_two = preconditioned_conjugate_gradient(
            &fx.problem.matrix,
            &fx.problem.rhs,
            None,
            &two,
            &opts,
        );
        assert!(r_ml.stats.converged() && r_two.stats.converged());
        assert!(
            r_ml.stats.iterations <= r_two.stats.iterations + 2,
            "multilevel {} vs two-level {}",
            r_ml.stats.iterations,
            r_two.stats.iterations
        );
        assert!(sparse::vector::relative_error(&r_ml.x, &r_two.x) < 1e-4);
    }

    #[test]
    fn asm_level_multilevel_uses_default_config() {
        let fx = fixture(1200, 300, 2);
        let ml =
            AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), AsmLevel::Multilevel)
                .unwrap();
        assert!(ml.has_coarse_space());
        assert!(ml.name().starts_with("ddm-lu-ml"));
        let opts = SolverOptions::with_tolerance(1e-6);
        let r = preconditioned_conjugate_gradient(
            &fx.problem.matrix,
            &fx.problem.rhs,
            None,
            &ml,
            &opts,
        );
        assert!(r.stats.converged());
    }

    #[test]
    fn preconditioner_name_reflects_level() {
        let fx = fixture(500, 200, 2);
        let one =
            AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), AsmLevel::OneLevel)
                .unwrap();
        let two =
            AdditiveSchwarz::new(&fx.problem.matrix, fx.subdomains.clone(), AsmLevel::TwoLevel)
                .unwrap();
        assert_eq!(one.name(), "ddm-lu-1level");
        assert_eq!(two.name(), "ddm-lu-2level");
        assert_eq!(one.dim(), fx.problem.num_unknowns());
        assert!(one.num_subdomains() >= 2);
    }
}
