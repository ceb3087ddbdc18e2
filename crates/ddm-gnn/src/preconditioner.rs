//! The DDM-GNN preconditioner (Section III-A of the paper).
//!
//! One application proceeds in the three steps of the paper:
//!
//! 1. **Coarse problem** — `r_c = R₀ᵀ (R₀ A R₀ᵀ)⁻¹ R₀ r` by dense LU on the
//!    Nicolaides coarse space (Eq. 13),
//! 2. **Local problems** — every sub-domain residual is restricted,
//!    normalised to unit norm and solved by one DSS inference; all sub-domains
//!    are processed concurrently (Eq. 14–15).  The normalisation is the
//!    paper's answer to vanishing residual magnitudes late in the PCG
//!    iteration: the network always sees unit-norm inputs,
//! 3. **Gluing** — `z = r_c + Σᵢ Rᵢᵀ ‖Rᵢ r‖ r̃ᵢ` (Eq. 16).

use ddm::{
    CoarseSpace, Decomposition, Hierarchy, MultilevelConfig, NicolaidesCoarseSpace, Restriction,
    SmootherPrecision,
};
use fem::PoissonProblem;
use gnn::{
    dataset::build_local_graphs, DssModel, InferScratch, InferScratchF32, InferScratchQ,
    InferencePlan, InferencePlanF32, InferencePlanQ, InferenceTimings, LocalGraph, Precision,
};
use krylov::resilience::{FaultEvent, FaultKind, FaultLog};
use krylov::Preconditioner;
use rayon::prelude::*;
use sparse::CsrMatrix;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sanitizer::TrackedMutex;

/// Reusable per-sub-domain buffers for one preconditioner application: the
/// contiguous restriction buffer, the column-interleaved residual and
/// correction panels, the per-column norms used to undo the normalisation at
/// gluing time, and the full GNN inference scratch (f64, f32 and quantised —
/// only the active precision's buffers ever grow).  Pre-sizing these makes
/// `apply` allocation-free per iteration.
struct SubdomainScratch {
    /// One column's restricted (then normalised in place) residual.
    local_r: Vec<f64>,
    /// Column-interleaved `num_local × b` residual panel (batch width
    /// tracked by `norms_b.len()`; at `b = 1` it is the plain vector).
    local_rb: Vec<f64>,
    /// Column-interleaved `num_local × b` correction panel.
    correction_b: Vec<f64>,
    /// Per-column restriction norms (`0.0` marks a vanishing column that
    /// skips both inference output and gluing).
    norms_b: Vec<f64>,
    infer: InferScratch,
    infer32: InferScratchF32,
    inferq: InferScratchQ,
}

impl SubdomainScratch {
    fn new(dim: usize) -> TrackedMutex<Self> {
        TrackedMutex::new(
            SubdomainScratch {
                local_r: vec![0.0; dim],
                local_rb: Vec::new(),
                correction_b: Vec::new(),
                norms_b: Vec::new(),
                infer: InferScratch::new(),
                infer32: InferScratchF32::new(),
                inferq: InferScratchQ::new(),
            },
            "ddm_gnn::preconditioner::SubdomainScratch",
        )
    }
}

/// Per-sub-domain inference plans at the configured precision.
enum PlanSet {
    F64(Vec<InferencePlan>),
    F32(Vec<InferencePlanF32>),
    Int8(Vec<InferencePlanQ>),
}

/// The multi-level GNN preconditioner.
pub struct DdmGnnPreconditioner {
    restrictions: Vec<Restriction>,
    graphs: Vec<LocalGraph>,
    /// Per-sub-domain inference plans, built once at construction (the setup
    /// phase): split first-layer weights, precomputed static edge terms and
    /// destination-sorted incidence — in f64 or f32 depending on the
    /// configured [`Precision`].  `apply` only runs the cheap
    /// residual-dependent half of the forward pass.
    plans: PlanSet,
    coarse: Option<CoarseSpace>,
    model: Arc<DssModel>,
    scratch: Vec<TrackedMutex<SubdomainScratch>>,
    /// Serialises whole `apply` calls: the scratch buffers span the parallel
    /// inference and the sequential gluing, so two concurrent `apply`s on the
    /// same preconditioner would otherwise interleave and corrupt each other.
    apply_guard: TrackedMutex<()>,
    num_global: usize,
    /// Reported by `Preconditioner::name` ("ddm-gnn-{1,2}level[-f32|-int8]"
    /// or `"ddm-gnn-ml<levels>[-f32|-int8]"`).
    name: String,
    /// Number of `apply` calls so far (≈ the outer iteration index).
    applies: AtomicU64,
    /// Classified coarse-solve errors, surfaced via `collect_faults`.
    faults: TrackedMutex<FaultLog>,
}

impl DdmGnnPreconditioner {
    /// Build the preconditioner for an assembled Poisson problem.
    ///
    /// `subdomains` are the overlapping node sets (e.g. from
    /// [`partition::partition_mesh_with_overlap`]); `two_level` toggles the
    /// Nicolaides coarse correction.
    pub fn new(
        problem: &PoissonProblem,
        subdomains: Vec<Vec<usize>>,
        model: Arc<DssModel>,
        two_level: bool,
    ) -> sparse::Result<Self> {
        Self::with_precision(problem, subdomains, model, two_level, Precision::F64)
    }

    /// [`DdmGnnPreconditioner::new`] with an explicit inference precision.
    ///
    /// `Precision::F32` runs every sub-domain DSS inference through the
    /// single-precision SIMD engine: the restricted residual is normalised in
    /// f64, converted to f32 on entry to the network, and the decoded output
    /// is widened back to f64 before the (entirely double-precision) gluing
    /// step.  Because the preconditioner only feeds a *flexible* outer
    /// Krylov method, the ~1e-6 relative perturbation cannot break
    /// convergence — it typically leaves iteration counts unchanged.
    ///
    /// `Precision::Int8` goes one step further: the weights are quantised
    /// **once at setup** from the f64 model (int8 with per-output f32
    /// scales) and the static edge/bias streams are stored bf16, with every
    /// accumulation still in f32.  The residual conversion and the gluing
    /// are identical to the f32 mode; the quantised plan needs roughly half
    /// the f32 plan's memory.
    pub fn with_precision(
        problem: &PoissonProblem,
        subdomains: Vec<Vec<usize>>,
        model: Arc<DssModel>,
        two_level: bool,
        precision: Precision,
    ) -> sparse::Result<Self> {
        let decomposition = Decomposition::new(&problem.matrix, subdomains);
        let graphs = build_local_graphs(problem, &decomposition);
        Self::from_parts_with_precision(
            &problem.matrix,
            decomposition,
            graphs,
            model,
            two_level,
            precision,
        )
    }

    /// Build from an existing decomposition and pre-built local graphs.
    pub fn from_parts(
        matrix: &CsrMatrix,
        decomposition: Decomposition,
        graphs: Vec<LocalGraph>,
        model: Arc<DssModel>,
        two_level: bool,
    ) -> sparse::Result<Self> {
        Self::from_parts_with_precision(
            matrix,
            decomposition,
            graphs,
            model,
            two_level,
            Precision::F64,
        )
    }

    /// [`DdmGnnPreconditioner::from_parts`] with an explicit inference
    /// precision.
    pub fn from_parts_with_precision(
        matrix: &CsrMatrix,
        decomposition: Decomposition,
        graphs: Vec<LocalGraph>,
        model: Arc<DssModel>,
        two_level: bool,
        precision: Precision,
    ) -> sparse::Result<Self> {
        let coarse = if two_level {
            Some(CoarseSpace::Nicolaides(NicolaidesCoarseSpace::new(
                matrix,
                &decomposition.restrictions,
            )?))
        } else {
            None
        };
        Self::assemble(matrix, decomposition, graphs, model, coarse, precision)
    }

    /// Build with a smoothed-aggregation multi-level coarse component
    /// instead of the single-shot Nicolaides solve.
    ///
    /// The hierarchy's smoother precision follows the inference precision
    /// (`Precision::F64` keeps f64 sweeps; `F32` and `Int8` drop the sweeps
    /// to the f32 engine — the V-cycle glue stays f64 either way), so
    /// reduced-precision deployments get a matching reduced-precision coarse
    /// path without extra configuration.
    pub fn with_multilevel_coarse(
        problem: &PoissonProblem,
        subdomains: Vec<Vec<usize>>,
        model: Arc<DssModel>,
        config: &MultilevelConfig,
        precision: Precision,
    ) -> sparse::Result<Self> {
        let decomposition = Decomposition::new(&problem.matrix, subdomains);
        let graphs = build_local_graphs(problem, &decomposition);
        Self::from_parts_with_multilevel(
            &problem.matrix,
            decomposition,
            graphs,
            model,
            config,
            precision,
        )
    }

    /// [`DdmGnnPreconditioner::with_multilevel_coarse`] from pre-built parts.
    pub fn from_parts_with_multilevel(
        matrix: &CsrMatrix,
        decomposition: Decomposition,
        graphs: Vec<LocalGraph>,
        model: Arc<DssModel>,
        config: &MultilevelConfig,
        precision: Precision,
    ) -> sparse::Result<Self> {
        let config = MultilevelConfig {
            smoother_precision: Self::smoother_precision_for(precision),
            ..config.clone()
        };
        let hierarchy = Hierarchy::build(matrix, &config)?;
        let coarse = Some(CoarseSpace::Multilevel(hierarchy));
        Self::assemble(matrix, decomposition, graphs, model, coarse, precision)
    }

    /// The smoother precision matching an inference precision.
    fn smoother_precision_for(precision: Precision) -> SmootherPrecision {
        match precision {
            Precision::F64 => SmootherPrecision::F64,
            Precision::F32 | Precision::Int8 => SmootherPrecision::F32,
        }
    }

    fn assemble(
        matrix: &CsrMatrix,
        decomposition: Decomposition,
        graphs: Vec<LocalGraph>,
        model: Arc<DssModel>,
        coarse: Option<CoarseSpace>,
        precision: Precision,
    ) -> sparse::Result<Self> {
        assert_eq!(
            decomposition.restrictions.len(),
            graphs.len(),
            "one local graph per sub-domain required"
        );
        let scratch = decomposition
            .restrictions
            .iter()
            .map(|r| SubdomainScratch::new(r.num_local()))
            .collect();
        let plans = match precision {
            Precision::F64 => PlanSet::F64(graphs.iter().map(|g| model.build_plan(g)).collect()),
            Precision::F32 => {
                PlanSet::F32(graphs.iter().map(|g| model.build_plan_f32(g)).collect())
            }
            Precision::Int8 => {
                PlanSet::Int8(graphs.iter().map(|g| model.build_plan_q(g)).collect())
            }
        };
        let suffix = match precision {
            Precision::F64 => "",
            Precision::F32 => "-f32",
            Precision::Int8 => "-int8",
        };
        let name = match &coarse {
            None => format!("ddm-gnn-1level{suffix}"),
            Some(CoarseSpace::Nicolaides(_)) => format!("ddm-gnn-2level{suffix}"),
            Some(CoarseSpace::Multilevel(h)) => {
                format!("ddm-gnn-ml{}{suffix}", h.num_levels())
            }
        };
        Ok(DdmGnnPreconditioner {
            restrictions: decomposition.restrictions,
            graphs,
            plans,
            coarse,
            model,
            scratch,
            apply_guard: TrackedMutex::new(
                (),
                "ddm_gnn::preconditioner::DdmGnnPreconditioner::apply_guard",
            ),
            num_global: matrix.nrows(),
            name,
            applies: AtomicU64::new(0),
            // Commutative: the fault log is append-only inside parallel
            // sections and every aggregation over it is order-insensitive.
            faults: TrackedMutex::new_commutative(
                FaultLog::new(),
                "ddm_gnn::preconditioner::DdmGnnPreconditioner::faults",
                "append-only fault log; aggregation queries are order-insensitive",
            ),
        })
    }

    /// Number of sub-domains handled by the preconditioner.
    pub fn num_subdomains(&self) -> usize {
        self.restrictions.len()
    }

    /// Whether the coarse-space correction is active.
    pub fn has_coarse_space(&self) -> bool {
        self.coarse.is_some()
    }

    /// The coarse component, if any.
    pub fn coarse_space(&self) -> Option<&CoarseSpace> {
        self.coarse.as_ref()
    }

    /// The underlying DSS model.
    pub fn model(&self) -> &DssModel {
        &self.model
    }

    /// The per-sub-domain local graphs.
    pub fn graphs(&self) -> &[LocalGraph] {
        &self.graphs
    }

    /// The inference precision the plans were built at.
    pub fn precision(&self) -> Precision {
        match &self.plans {
            PlanSet::F64(_) => Precision::F64,
            PlanSet::F32(_) => Precision::F32,
            PlanSet::Int8(_) => Precision::Int8,
        }
    }

    /// Total heap footprint of the cached inference plans in bytes.
    pub fn plan_memory_bytes(&self) -> usize {
        match &self.plans {
            PlanSet::F64(plans) => plans.iter().map(InferencePlan::memory_bytes).sum(),
            PlanSet::F32(plans) => plans.iter().map(InferencePlanF32::memory_bytes).sum(),
            PlanSet::Int8(plans) => plans.iter().map(InferencePlanQ::memory_bytes).sum(),
        }
    }

    /// Restrict, normalise and infer all `b` residuals of one sub-domain
    /// through **one** panel inference, so the plan streams (weights, static
    /// geo terms) are read once for the whole batch.  A single right-hand
    /// side is the `b = 1` case.
    ///
    /// Each column is restricted and normalised through the same contiguous
    /// buffer and operation order, then scattered into the column-interleaved
    /// panel — so together with the per-column bit-identity of the batched
    /// inference engines, column `c`'s correction is bit-identical to a
    /// `b = 1` call on `rs[c]` alone.
    fn solve_local_batch(&self, i: usize, rs: &[&[f64]], timings: Option<&mut InferenceTimings>) {
        let b = rs.len();
        let mut guard = self.scratch[i].lock();
        let SubdomainScratch { local_r, local_rb, correction_b, norms_b, infer, infer32, inferq } =
            &mut *guard;
        let nl = local_r.len();
        local_rb.resize(nl * b, 0.0);
        correction_b.resize(nl * b, 0.0);
        norms_b.clear();
        let mut any_live = false;
        for (c, r) in rs.iter().enumerate() {
            self.restrictions[i].restrict_into(r, local_r);
            let mut norm = sparse::vector::norm2(local_r);
            if norm <= f64::MIN_POSITIVE {
                norm = 0.0;
                for j in 0..nl {
                    local_rb[j * b + c] = 0.0;
                }
            } else {
                for v in local_r.iter_mut() {
                    *v /= norm;
                }
                for (j, &v) in local_r.iter().enumerate() {
                    local_rb[j * b + c] = v;
                }
                any_live = true;
            }
            norms_b.push(norm);
        }
        if !any_live {
            return;
        }
        let (m, x, y) = (&self.model, &local_rb[..], &mut correction_b[..]);
        match &self.plans {
            PlanSet::F64(plans) => m.infer_plan(&plans[i], x, b, infer, y, timings),
            PlanSet::F32(plans) => m.infer_plan(&plans[i], x, b, infer32, y, timings),
            PlanSet::Int8(plans) => m.infer_plan(&plans[i], x, b, inferq, y, timings),
        }
    }

    /// Gluing (Eq. 16): per column `z = Σ Rᵢᵀ ‖Rᵢ r‖ r̃ᵢ (+ coarse
    /// correction)`, accumulated sequentially in sub-domain order so the
    /// result does not depend on the thread count; the coarse correction is
    /// applied column by column.
    fn glue_batch(&self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        let b = rs.len();
        for z in zs.iter_mut() {
            for zi in z.iter_mut() {
                *zi = 0.0;
            }
        }
        for (restriction, scratch) in self.restrictions.iter().zip(self.scratch.iter()) {
            let guard = scratch.lock();
            for (c, z) in zs.iter_mut().enumerate() {
                if guard.norms_b[c] > 0.0 {
                    restriction.extend_add_scaled_strided(
                        guard.norms_b[c],
                        &guard.correction_b,
                        b,
                        c,
                        z,
                    );
                }
            }
        }
        if let Some(coarse) = &self.coarse {
            for (c, (r, z)) in rs.iter().zip(zs.iter_mut()).enumerate() {
                if let Err(e) = coarse.apply_into(r, z) {
                    // Skip the coarse contribution; the glued local
                    // corrections alone are still a valid (one-level)
                    // preconditioner.
                    self.faults.lock().record(FaultEvent::new(
                        FaultKind::NumericalError,
                        self.applies.load(Ordering::SeqCst).saturating_sub(1),
                        &self.name,
                        format!("coarse correction failed in column {c}: {e}"),
                    ));
                }
            }
        }
    }

    /// [`Preconditioner::apply_batch`] with the per-stage inference breakdown
    /// accumulated into `timings` (one column is the timed
    /// [`Preconditioner::apply`]).  The sub-domains are processed
    /// **sequentially** so the stage buckets measure kernel time rather than
    /// scheduler contention; the result is bit-identical to the parallel
    /// apply, which glues in sub-domain order for exactly that reason.
    pub fn apply_batch_timed(
        &self,
        rs: &[&[f64]],
        zs: &mut [&mut [f64]],
        timings: &mut InferenceTimings,
    ) {
        assert_eq!(rs.len(), zs.len(), "batched apply: rs/zs column count mismatch");
        let _exclusive = self.apply_guard.lock();
        self.applies.fetch_add(1, Ordering::SeqCst);
        for i in 0..self.restrictions.len() {
            self.solve_local_batch(i, rs, Some(&mut *timings));
        }
        self.glue_batch(rs, zs);
    }
}

impl Preconditioner for DdmGnnPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.apply_batch(&[r], &mut [z]);
    }

    fn apply_batch(&self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        assert_eq!(rs.len(), zs.len(), "batched apply: rs/zs column count mismatch");
        debug_assert!(rs.iter().all(|r| r.len() == self.num_global));
        debug_assert!(zs.iter().all(|z| z.len() == self.num_global));
        let _exclusive = self.apply_guard.lock();
        self.applies.fetch_add(1, Ordering::SeqCst);
        // Local problems: restrict, normalise, infer — all sub-domains in
        // parallel (the batched GPU inference of Eq. 14 mapped onto rayon),
        // each writing into its own pre-sized scratch so the steady state
        // allocates nothing.  Each sub-domain gathers its b local residuals
        // into one panel and runs a single batched inference — the plan
        // streams are read once per batch instead of once per column.
        (0..self.restrictions.len())
            .into_par_iter()
            .for_each(|i| self.solve_local_batch(i, rs, None));
        self.glue_batch(rs, zs);
    }

    fn dim(&self) -> usize {
        self.num_global
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn collect_faults(&self, log: &mut FaultLog) {
        log.merge(self.faults.lock().clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::fixture;
    use krylov::{preconditioned_conjugate_gradient, SolverOptions};

    #[test]
    fn construction_and_metadata() {
        let fx = fixture();
        let precond = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
        )
        .unwrap();
        assert_eq!(precond.num_subdomains(), fx.subdomains.len());
        assert!(precond.has_coarse_space());
        assert_eq!(precond.dim(), fx.problem.num_unknowns());
        assert_eq!(precond.name(), "ddm-gnn-2level");
        assert_eq!(precond.model().config().latent_dim, fx.model.config().latent_dim);
        let one_level = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            false,
        )
        .unwrap();
        assert!(!one_level.has_coarse_space());
        assert_eq!(one_level.name(), "ddm-gnn-1level");
    }

    #[test]
    fn application_produces_descent_direction() {
        // zᵀ r > 0 is required for PCG to accept the preconditioned residual
        // as a descent direction; a trained DSS model must provide that.
        let fx = fixture();
        let precond = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
        )
        .unwrap();
        let r = fx.problem.rhs.clone();
        let mut z = vec![0.0; r.len()];
        precond.apply(&r, &mut z);
        assert!(sparse::vector::norm2(&z) > 0.0);
        assert!(sparse::vector::dot(&z, &r) > 0.0, "preconditioner must stay positive");
    }

    #[test]
    fn zero_residual_maps_to_coarse_only_correction() {
        let fx = fixture();
        let precond = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            false,
        )
        .unwrap();
        let r = vec![0.0; fx.problem.num_unknowns()];
        let mut z = vec![1.0; r.len()];
        precond.apply(&r, &mut z);
        assert!(z.iter().all(|&v| v == 0.0), "zero residual must give zero correction");
    }

    #[test]
    fn timed_apply_is_bit_identical_to_apply() {
        let fx = fixture();
        let precond = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
        )
        .unwrap();
        assert!(precond.plan_memory_bytes() > 0);
        assert_eq!(precond.graphs().len(), precond.num_subdomains());
        let r = fx.problem.rhs.clone();
        let mut z = vec![0.0; r.len()];
        let mut z_timed = vec![0.0; r.len()];
        precond.apply(&r, &mut z);
        let mut timings = gnn::InferenceTimings::default();
        precond.apply_batch_timed(&[r.as_slice()], &mut [z_timed.as_mut_slice()], &mut timings);
        assert_eq!(z, z_timed, "timed apply must not change the correction");
        assert_eq!(timings.calls as usize, precond.num_subdomains());
    }

    #[test]
    fn apply_survives_poisoned_scratch_bit_identically() {
        // A worker panic while holding a scratch (or the batch serialisation)
        // mutex poisons it.  The preconditioner must recover on the next
        // apply — same guarantee `GuardedPreconditioner` relies on — and the
        // recovered correction must be bit-identical, since every reachable
        // scratch state is valid (scratch is fully overwritten per apply).
        let fx = fixture();
        let precond = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
        )
        .unwrap();
        let r = fx.problem.rhs.clone();
        let mut baseline = vec![0.0; r.len()];
        precond.apply(&r, &mut baseline);

        fn poison<T>(mutex: &TrackedMutex<T>) {
            let p = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = mutex.lock();
                panic!("injected worker panic while holding the lock");
            }));
            assert!(p.is_err());
            assert!(mutex.is_poisoned(), "test setup failed to poison the mutex");
        }
        poison(&precond.scratch[0]);
        poison(&precond.apply_guard);

        let mut recovered = vec![1.0; r.len()];
        precond.apply(&r, &mut recovered);
        assert_eq!(baseline, recovered, "poison recovery changed the correction");

        let mut batch_out = vec![0.0; r.len()];
        precond.apply_batch(&[r.as_slice()], &mut [batch_out.as_mut_slice()]);
        assert_eq!(baseline, batch_out, "batched apply must also recover bit-identically");
    }

    #[test]
    fn batched_apply_is_bit_identical_per_column_for_all_precisions() {
        let fx = fixture();
        let n = fx.problem.num_unknowns();
        for precision in [gnn::Precision::F64, gnn::Precision::F32, gnn::Precision::Int8] {
            let precond = DdmGnnPreconditioner::with_precision(
                &fx.problem,
                fx.subdomains.clone(),
                Arc::new(fx.model.clone()),
                true,
                precision,
            )
            .unwrap();
            for b in [1usize, 3, 4] {
                let rhs: Vec<Vec<f64>> = (0..b)
                    .map(|c| {
                        fx.problem
                            .rhs
                            .iter()
                            .enumerate()
                            .map(|(i, v)| v * (1.0 - 0.21 * c as f64) + 0.01 * ((i + c) % 7) as f64)
                            .collect()
                    })
                    .collect();
                let r_refs: Vec<&[f64]> = rhs.iter().map(|r| r.as_slice()).collect();
                let mut zs: Vec<Vec<f64>> = vec![vec![0.0; n]; b];
                {
                    let mut z_refs: Vec<&mut [f64]> =
                        zs.iter_mut().map(|z| z.as_mut_slice()).collect();
                    precond.apply_batch(&r_refs, &mut z_refs);
                }
                let mut expected = vec![0.0; n];
                for (c, r) in rhs.iter().enumerate() {
                    precond.apply(r, &mut expected);
                    assert_eq!(
                        zs[c], expected,
                        "{precision:?} b={b} column {c}: batched apply diverged"
                    );
                }
                // The timed batched apply is bit-identical too and counts one
                // inference call per (sub-domain, batch).
                let mut timings = gnn::InferenceTimings::default();
                let mut zs_timed: Vec<Vec<f64>> = vec![vec![0.0; n]; b];
                {
                    let mut z_refs: Vec<&mut [f64]> =
                        zs_timed.iter_mut().map(|z| z.as_mut_slice()).collect();
                    precond.apply_batch_timed(&r_refs, &mut z_refs, &mut timings);
                }
                assert_eq!(zs, zs_timed, "{precision:?} b={b}: timed batched apply diverged");
                assert_eq!(timings.calls as usize, precond.num_subdomains());
            }
        }
    }

    #[test]
    fn f32_precision_metadata_and_closeness_to_f64() {
        let fx = fixture();
        let p64 = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
        )
        .unwrap();
        let p32 = DdmGnnPreconditioner::with_precision(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
            gnn::Precision::F32,
        )
        .unwrap();
        assert_eq!(p64.precision(), gnn::Precision::F64);
        assert_eq!(p32.precision(), gnn::Precision::F32);
        assert_eq!(p32.name(), "ddm-gnn-2level-f32");
        assert!(
            p32.plan_memory_bytes() < p64.plan_memory_bytes(),
            "f32 plans must use less memory: {} vs {}",
            p32.plan_memory_bytes(),
            p64.plan_memory_bytes()
        );
        let r = fx.problem.rhs.clone();
        let mut z64 = vec![0.0; r.len()];
        let mut z32 = vec![0.0; r.len()];
        p64.apply(&r, &mut z64);
        p32.apply(&r, &mut z32);
        // Same operator up to single-precision rounding of the local solves.
        let scale = sparse::vector::norm2(&z64).max(1.0);
        let mut diff = 0.0f64;
        for (a, b) in z32.iter().zip(z64.iter()) {
            diff = diff.max((a - b).abs());
        }
        assert!(diff / scale < 1e-4, "f32 apply deviates too much: {}", diff / scale);
        assert!(sparse::vector::dot(&z32, &r) > 0.0, "f32 preconditioner must stay positive");
        // Timed apply matches the parallel apply bit-for-bit in f32 mode too.
        let mut z32_timed = vec![0.0; r.len()];
        let mut timings = gnn::InferenceTimings::default();
        p32.apply_batch_timed(&[r.as_slice()], &mut [z32_timed.as_mut_slice()], &mut timings);
        assert_eq!(z32, z32_timed);
        assert_eq!(timings.calls as usize, p32.num_subdomains());
    }

    #[test]
    fn f32_one_level_name_and_zero_residual() {
        let fx = fixture();
        let p32 = DdmGnnPreconditioner::with_precision(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            false,
            gnn::Precision::F32,
        )
        .unwrap();
        assert_eq!(p32.name(), "ddm-gnn-1level-f32");
        let r = vec![0.0; fx.problem.num_unknowns()];
        let mut z = vec![1.0; r.len()];
        p32.apply(&r, &mut z);
        assert!(z.iter().all(|&v| v == 0.0), "zero residual must give zero correction");
    }

    #[test]
    fn int8_precision_metadata_and_closeness_to_f64() {
        let fx = fixture();
        let p64 = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
        )
        .unwrap();
        let p32 = DdmGnnPreconditioner::with_precision(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
            gnn::Precision::F32,
        )
        .unwrap();
        let pq = DdmGnnPreconditioner::with_precision(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
            gnn::Precision::Int8,
        )
        .unwrap();
        assert_eq!(pq.precision(), gnn::Precision::Int8);
        assert_eq!(pq.name(), "ddm-gnn-2level-int8");
        assert!(
            pq.plan_memory_bytes() < p32.plan_memory_bytes(),
            "int8 plans must use less memory than f32: {} vs {}",
            pq.plan_memory_bytes(),
            p32.plan_memory_bytes()
        );
        let r = fx.problem.rhs.clone();
        let mut z64 = vec![0.0; r.len()];
        let mut zq = vec![0.0; r.len()];
        p64.apply(&r, &mut z64);
        pq.apply(&r, &mut zq);
        // Same operator up to the quantisation error of the local solves.
        let scale = sparse::vector::norm2(&z64).max(1.0);
        let mut diff = 0.0f64;
        for (a, b) in zq.iter().zip(z64.iter()) {
            diff = diff.max((a - b).abs());
        }
        assert!(diff / scale < 5e-2, "int8 apply deviates too much: {}", diff / scale);
        assert!(sparse::vector::dot(&zq, &r) > 0.0, "int8 preconditioner must stay positive");
        // Timed apply matches the parallel apply bit-for-bit in int8 mode too.
        let mut zq_timed = vec![0.0; r.len()];
        let mut timings = gnn::InferenceTimings::default();
        pq.apply_batch_timed(&[r.as_slice()], &mut [zq_timed.as_mut_slice()], &mut timings);
        assert_eq!(zq, zq_timed);
        assert_eq!(timings.calls as usize, pq.num_subdomains());
    }

    #[test]
    fn int8_one_level_name_and_zero_residual() {
        let fx = fixture();
        let pq = DdmGnnPreconditioner::with_precision(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            false,
            gnn::Precision::Int8,
        )
        .unwrap();
        assert_eq!(pq.name(), "ddm-gnn-1level-int8");
        let r = vec![0.0; fx.problem.num_unknowns()];
        let mut z = vec![1.0; r.len()];
        pq.apply(&r, &mut z);
        assert!(z.iter().all(|&v| v == 0.0), "zero residual must give zero correction");
    }

    #[test]
    fn pcg_with_int8_ddm_gnn_converges_like_f64() {
        let fx = fixture();
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(500);
        let solve = |precision| {
            let precond = DdmGnnPreconditioner::with_precision(
                &fx.problem,
                fx.subdomains.clone(),
                Arc::new(fx.model.clone()),
                true,
                precision,
            )
            .unwrap();
            preconditioned_conjugate_gradient(
                &fx.problem.matrix,
                &fx.problem.rhs,
                None,
                &precond,
                &opts,
            )
        };
        let r64 = solve(gnn::Precision::F64);
        let rq = solve(gnn::Precision::Int8);
        assert!(r64.stats.converged() && rq.stats.converged());
        assert!(krylov::true_relative_residual(&fx.problem.matrix, &rq.x, &fx.problem.rhs) < 1e-5);
        // The flexible outer Krylov method absorbs the quantisation
        // perturbation: iteration counts stay within +15% of f64.
        let cap = r64.stats.iterations + (15 * r64.stats.iterations).div_ceil(100);
        assert!(
            rq.stats.iterations <= cap,
            "int8 iterations {} exceed f64 {} + 15%",
            rq.stats.iterations,
            r64.stats.iterations
        );
    }

    #[test]
    fn pcg_with_f32_ddm_gnn_converges_like_f64() {
        let fx = fixture();
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(500);
        let solve = |precision| {
            let precond = DdmGnnPreconditioner::with_precision(
                &fx.problem,
                fx.subdomains.clone(),
                Arc::new(fx.model.clone()),
                true,
                precision,
            )
            .unwrap();
            preconditioned_conjugate_gradient(
                &fx.problem.matrix,
                &fx.problem.rhs,
                None,
                &precond,
                &opts,
            )
        };
        let r64 = solve(gnn::Precision::F64);
        let r32 = solve(gnn::Precision::F32);
        assert!(r64.stats.converged() && r32.stats.converged());
        assert!(krylov::true_relative_residual(&fx.problem.matrix, &r32.x, &fx.problem.rhs) < 1e-5);
        // The flexible outer Krylov method absorbs the f32 perturbation:
        // iteration counts stay within +10% of the f64 baseline.
        let cap = r64.stats.iterations + r64.stats.iterations.div_ceil(10);
        assert!(
            r32.stats.iterations <= cap,
            "f32 iterations {} exceed f64 {} + 10%",
            r32.stats.iterations,
            r64.stats.iterations
        );
    }

    #[test]
    fn multilevel_coarse_component_converges_and_names_itself() {
        let fx = fixture();
        let ml = DdmGnnPreconditioner::with_multilevel_coarse(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            &MultilevelConfig { coarsest_max_size: 60, ..Default::default() },
            gnn::Precision::F64,
        )
        .unwrap();
        assert!(ml.has_coarse_space());
        let levels = match ml.coarse_space().unwrap() {
            CoarseSpace::Multilevel(h) => h.num_levels(),
            CoarseSpace::Nicolaides(_) => panic!("expected a multilevel coarse space"),
        };
        assert!(levels >= 2);
        assert_eq!(ml.name(), format!("ddm-gnn-ml{levels}"));
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(500);
        let result = preconditioned_conjugate_gradient(
            &fx.problem.matrix,
            &fx.problem.rhs,
            None,
            &ml,
            &opts,
        );
        assert!(result.stats.converged(), "{:?}", result.stats.stop_reason);
        assert!(
            krylov::true_relative_residual(&fx.problem.matrix, &result.x, &fx.problem.rhs) < 1e-5
        );
    }

    #[test]
    fn multilevel_coarse_follows_inference_precision() {
        // The f32/int8 inference modes drop the hierarchy's smoother to f32
        // sweeps; the solve must still converge with iteration counts close
        // to the f64 configuration.
        let fx = fixture();
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(500);
        let solve = |precision| {
            let precond = DdmGnnPreconditioner::with_multilevel_coarse(
                &fx.problem,
                fx.subdomains.clone(),
                Arc::new(fx.model.clone()),
                &MultilevelConfig { coarsest_max_size: 60, ..Default::default() },
                precision,
            )
            .unwrap();
            let name = precond.name().to_string();
            (
                preconditioned_conjugate_gradient(
                    &fx.problem.matrix,
                    &fx.problem.rhs,
                    None,
                    &precond,
                    &opts,
                ),
                name,
            )
        };
        let (r64, _) = solve(gnn::Precision::F64);
        let (r32, name32) = solve(gnn::Precision::F32);
        assert!(name32.starts_with("ddm-gnn-ml") && name32.ends_with("-f32"), "{name32}");
        assert!(r64.stats.converged() && r32.stats.converged());
        let cap = r64.stats.iterations + r64.stats.iterations.div_ceil(10);
        assert!(
            r32.stats.iterations <= cap,
            "f32-smoothed multilevel iterations {} exceed f64 {} + 10%",
            r32.stats.iterations,
            r64.stats.iterations
        );
    }

    #[test]
    fn pcg_with_ddm_gnn_converges() {
        // The headline property of the paper: the hybrid solver converges to
        // the requested tolerance even though the preconditioner is learned.
        let fx = fixture();
        let precond = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
        )
        .unwrap();
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(500);
        let result = preconditioned_conjugate_gradient(
            &fx.problem.matrix,
            &fx.problem.rhs,
            None,
            &precond,
            &opts,
        );
        assert!(
            result.stats.converged(),
            "hybrid solver must converge: {:?}",
            result.stats.stop_reason
        );
        assert!(
            krylov::true_relative_residual(&fx.problem.matrix, &result.x, &fx.problem.rhs) < 1e-5
        );
    }

    #[test]
    fn trained_gnn_preconditioner_beats_plain_cg() {
        let fx = fixture();
        let opts = SolverOptions::with_tolerance(1e-6).max_iterations(2000);
        let plain = krylov::conjugate_gradient(&fx.problem.matrix, &fx.problem.rhs, None, &opts);
        let precond = DdmGnnPreconditioner::new(
            &fx.problem,
            fx.subdomains.clone(),
            Arc::new(fx.model.clone()),
            true,
        )
        .unwrap();
        let hybrid = preconditioned_conjugate_gradient(
            &fx.problem.matrix,
            &fx.problem.rhs,
            None,
            &precond,
            &opts,
        );
        assert!(plain.stats.converged() && hybrid.stats.converged());
        assert!(
            hybrid.stats.iterations < plain.stats.iterations,
            "DDM-GNN {} vs CG {}",
            hybrid.stats.iterations,
            plain.stats.iterations
        );
    }
}
