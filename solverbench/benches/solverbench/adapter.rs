//! Every call from the benchmark into the solver crates.
//!
//! `main.rs` names no library item: it builds, solves and
//! probes through the functions and types below, so a change to the
//! library's public API touches this file only.  The wrappers that time the
//! preconditioner in the traced run are the benchmark's own
//! `krylov::Preconditioner` implementations; the library's timed twins
//! (`*_timed`, `TimedPreconditioner`, `SolveOutcome::preconditioner_seconds`)
//! are never called.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ddm::{AdditiveSchwarz, AsmLevel, Restriction, SmootherPrecision};
use ddm::{CoarseSpace, Decomposition, Hierarchy, MultilevelConfig, NicolaidesCoarseSpace};
use ddm_gnn::{DdmGnnPreconditioner, HybridSolverConfig, Precision};
use fem::PoissonProblem;
use gnn::{DssModel, InferScratch, InferScratchF32, InferScratchQ, LocalGraph};
use gnn::{InferencePlan, InferencePlanF32, InferencePlanQ};
use krylov::InjectedFault;
use krylov::{DegradationLadder, FaultInjectingPreconditioner, FaultLog, GuardedPreconditioner};
use krylov::{Preconditioner, ResiliencePolicy, SolveResult, SolverOptions};
use rayon::prelude::*;

use solverbench::Kind;

use crate::trace::Recorder;

pub use ddm::CoarseSpace as Coarse;
pub use ddm_gnn::Precision as InferencePrecision;
pub use fem::PoissonProblem as Problem;
pub use gnn::DssModel as Model;
pub use krylov::Preconditioner as Precond;

pub const F64: Precision = Precision::F64;
pub const INT8: Precision = Precision::Int8;

/// Apply of the int8 tier at which the ladder workload injects its NaN.
pub const LADDER_FAULT_APPLY: u64 = 8;

/// Residuals the traced wrappers keep for the layer probes.
const CAPTURED_RESIDUALS: usize = 4;

/// The pre-trained DSS model shipped with the repository.
pub fn load_model() -> Option<Arc<DssModel>> {
    ddm_gnn::load_pretrained().map(Arc::new)
}

pub fn generate_problem(seed: u64, target_nodes: usize) -> PoissonProblem {
    ddm_gnn::generate_problem(seed, target_nodes)
}

pub fn num_unknowns(problem: &PoissonProblem) -> usize {
    problem.num_unknowns()
}

pub fn nnz(problem: &PoissonProblem) -> usize {
    problem.matrix.nnz()
}

/// The problem's own right-hand side.
pub fn own_rhs(problem: &PoissonProblem) -> Vec<f64> {
    problem.rhs.clone()
}

/// A right-hand side from the paper's data distribution (random quadratic
/// forcing and boundary data) on the problem's mesh.  The operator does not
/// depend on the data, so every stream member shares the problem's matrix.
pub fn stream_rhs(problem: &PoissonProblem, source_seed: u64) -> Vec<f64> {
    let source = fem::SourceTerm::sample(source_seed, 1.0);
    let f = source.forcing_values(&problem.mesh);
    let g = source.boundary_values(&problem.mesh);
    fem::assemble_poisson(&problem.mesh, &f, &g).rhs
}

/// Overlapping sub-domains of about 300 nodes with overlap 2 (the paper's
/// configuration).
pub fn partition(problem: &PoissonProblem) -> Vec<Vec<usize>> {
    partition::partition_mesh_with_overlap(&problem.mesh, 300, 2, 0)
}

fn options() -> SolverOptions {
    SolverOptions::with_tolerance(solverbench::TOLERANCE).max_iterations(4000)
}

/// One PCG solve from a zero initial guess.
pub fn pcg(problem: &PoissonProblem, b: &[f64], precond: &dyn Preconditioner) -> SolveResult {
    krylov::preconditioned_conjugate_gradient(&problem.matrix, b, None, precond, &options())
}

/// One lockstep PCG solve of all columns.
pub fn pcg_batch(
    problem: &PoissonProblem,
    bs: &[Vec<f64>],
    precond: &dyn Preconditioner,
) -> Vec<SolveResult> {
    let refs: Vec<&[f64]> = bs.iter().map(Vec::as_slice).collect();
    krylov::solve_batch(&problem.matrix, &refs, None, precond, &options())
}

/// What the output checks need from one solved column.
pub struct Column {
    pub converged: bool,
    pub iterations: usize,
    pub true_relative_residual: f64,
    pub hash: u64,
    pub faults: usize,
    pub downgrades: usize,
}

pub fn column(problem: &PoissonProblem, b: &[f64], result: &SolveResult) -> Column {
    let stats = &result.stats;
    Column {
        converged: stats.converged(),
        iterations: stats.iterations,
        true_relative_residual: krylov::true_relative_residual(&problem.matrix, &result.x, b),
        hash: solverbench::fnv1a_f64s(
            stats.history.norms().iter().copied().chain(result.x.iter().copied()),
        ),
        faults: stats.faults.events().len(),
        downgrades: stats.faults.degradations().len(),
    }
}

fn smoother_for(precision: Precision) -> MultilevelConfig {
    MultilevelConfig {
        smoother_precision: match precision {
            Precision::F64 => SmootherPrecision::F64,
            Precision::F32 | Precision::Int8 => SmootherPrecision::F32,
        },
        ..MultilevelConfig::default()
    }
}

/// The workload's end-to-end preconditioner.
pub enum Solver {
    /// Multi-level DDM-GNN (`MultilevelConfig::default()`).
    Gnn(DdmGnnPreconditioner),
    /// Two-level exact Schwarz with the Nicolaides coarse space.
    Lu(AdditiveSchwarz),
    /// The resilience tier stack; a fresh ladder is assembled per solve.
    Ladder(Vec<Arc<dyn Preconditioner>>),
}

/// The workload's end-to-end set-up from its sub-domains.
pub fn build(
    kind: Kind,
    problem: &PoissonProblem,
    model: Option<&Arc<DssModel>>,
    subdomains: Vec<Vec<usize>>,
) -> Solver {
    let model = || model.expect("GNN workloads load the model");
    match kind {
        Kind::GnnF64 => build_gnn(problem, subdomains, model(), Precision::F64),
        Kind::GnnBatchF32 => build_gnn(problem, subdomains, model(), Precision::F32),
        Kind::LadderInt8 => build_ladder_tiers(problem, &subdomains, model()),
        Kind::LuStream => build_lu(problem, subdomains),
    }
}

/// Inference precision of a GNN workload (`None` for exact Schwarz).
pub fn precision(kind: Kind) -> Option<Precision> {
    match kind {
        Kind::GnnF64 => Some(Precision::F64),
        Kind::GnnBatchF32 => Some(Precision::F32),
        Kind::LadderInt8 => Some(Precision::Int8),
        Kind::LuStream => None,
    }
}

fn build_gnn(
    problem: &PoissonProblem,
    subdomains: Vec<Vec<usize>>,
    model: &Arc<DssModel>,
    precision: Precision,
) -> Solver {
    Solver::Gnn(
        DdmGnnPreconditioner::with_multilevel_coarse(
            problem,
            subdomains,
            Arc::clone(model),
            &MultilevelConfig::default(),
            precision,
        )
        .expect("DDM-GNN set-up failed"),
    )
}

fn build_lu(problem: &PoissonProblem, subdomains: Vec<Vec<usize>>) -> Solver {
    Solver::Lu(
        AdditiveSchwarz::new(&problem.matrix, subdomains, AsmLevel::TwoLevel)
            .expect("two-level Schwarz set-up failed"),
    )
}

/// The int8 → f32 → f64 GNN tiers, exact multi-level Schwarz and Jacobi.
fn build_ladder_tiers(
    problem: &PoissonProblem,
    subdomains: &[Vec<usize>],
    model: &Arc<DssModel>,
) -> Solver {
    let config = HybridSolverConfig {
        subdomain_size: 300,
        precision: Precision::Int8,
        multilevel: Some(MultilevelConfig::default()),
        ..HybridSolverConfig::default()
    };
    let tiers = ddm_gnn::build_resilience_tiers(problem, subdomains, model, &config)
        .expect("resilience tier set-up failed");
    Solver::Ladder(tiers.into_iter().map(Arc::from).collect())
}

/// A tier shared between ladders (downgrades are permanent per ladder, so
/// each solve gets a fresh ladder over the same built tiers).  With a
/// recorder, every apply of the tier is a span named after it.
struct SharedTier {
    inner: Arc<dyn Preconditioner>,
    rec: Option<Arc<Recorder>>,
    span: String,
}

impl Preconditioner for SharedTier {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        crate::trace::span(self.rec.as_deref(), &self.span, || self.inner.apply(r, z));
    }

    fn apply_checked(&self, r: &[f64], z: &mut [f64]) -> sparse::Result<()> {
        crate::trace::span(self.rec.as_deref(), &self.span, || self.inner.apply_checked(r, z))
    }

    fn apply_batch(&self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        crate::trace::span(self.rec.as_deref(), &self.span, || self.inner.apply_batch(rs, zs));
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

/// A fresh degradation ladder over shared tiers, with one NaN injected at
/// apply [`LADDER_FAULT_APPLY`] of the first (int8) tier.
pub fn ladder(tiers: &[Arc<dyn Preconditioner>], rec: Option<&Arc<Recorder>>) -> Box<dyn Precond> {
    let shared = |t: &Arc<dyn Preconditioner>| SharedTier {
        inner: Arc::clone(t),
        rec: rec.cloned(),
        span: format!("tier:{}", t.name()),
    };
    let mut boxed: Vec<Box<dyn Preconditioner>> = Vec::with_capacity(tiers.len());
    boxed.push(Box::new(FaultInjectingPreconditioner::scheduled(
        shared(&tiers[0]),
        [(LADDER_FAULT_APPLY, InjectedFault::NanOutput)],
    )));
    boxed.extend(tiers[1..].iter().map(|t| Box::new(shared(t)) as Box<dyn Preconditioner>));
    Box::new(DegradationLadder::new(boxed, ResiliencePolicy::default()))
}

/// `inner` under the resilience guards alone (panic containment,
/// non-finite and zero-output scans, stagnation tracking), as the ladder
/// wraps each tier.
pub fn guarded<P: Preconditioner>(inner: P) -> impl Preconditioner {
    GuardedPreconditioner::new(inner, ResiliencePolicy::default())
}

/// Apply a preconditioner to a batch of columns.
pub fn apply(precond: &dyn Preconditioner, rs: &[Vec<f64>], zs: &mut [Vec<f64>]) {
    if let ([r], [z]) = (rs, &mut *zs) {
        precond.apply(r, z);
    } else {
        let refs: Vec<&[f64]> = rs.iter().map(Vec::as_slice).collect();
        let mut outs: Vec<&mut [f64]> = zs.iter_mut().map(Vec::as_mut_slice).collect();
        precond.apply_batch(&refs, &mut outs);
    }
}

pub fn spmv(problem: &PoissonProblem, x: &[f64], y: &mut [f64]) {
    problem.matrix.spmv_into(x, y);
}

pub fn coarse_apply(coarse: &CoarseSpace, rs: &[Vec<f64>], zs: &mut [Vec<f64>]) {
    for (r, z) in rs.iter().zip(zs.iter_mut()) {
        coarse_apply_one(coarse, r, z);
    }
}

/// Add the coarse correction of `r` to `z`.  Only a dimension mismatch
/// fails, which the benchmark never builds.
fn coarse_apply_one(coarse: &CoarseSpace, r: &[f64], z: &mut [f64]) {
    coarse.apply_into(r, z).expect("coarse correction failed");
}

/// Multi-level hierarchy with the smoother precision the GNN tier at
/// `precision` builds.
pub fn build_hierarchy(problem: &PoissonProblem, precision: Precision) -> CoarseSpace {
    CoarseSpace::Multilevel(
        Hierarchy::build(&problem.matrix, &smoother_for(precision)).expect("hierarchy build"),
    )
}

/// Exact multi-level Schwarz, the strongest exact baseline of the GNN tiers.
pub fn build_asm_multilevel(
    problem: &PoissonProblem,
    subdomains: Vec<Vec<usize>>,
) -> AdditiveSchwarz {
    AdditiveSchwarz::with_multilevel(&problem.matrix, subdomains, &MultilevelConfig::default())
        .expect("multi-level Schwarz set-up failed")
}

pub fn as_precond(asm: &AdditiveSchwarz) -> &dyn Preconditioner {
    asm
}

fn decompose(problem: &PoissonProblem, subdomains: Vec<Vec<usize>>) -> Decomposition {
    Decomposition::new(&problem.matrix, subdomains)
}

fn local_graphs(problem: &PoissonProblem, decomposition: &Decomposition) -> Vec<LocalGraph> {
    gnn::dataset::build_local_graphs(problem, decomposition)
}

#[allow(clippy::large_enum_variant)] // one value per run
/// The traced run's preconditioner, set up part by part so that each part
/// is a span.
pub enum Traceable {
    /// A two-level preconditioner taken apart into its library halves: the
    /// one-level preconditioner (local solves glued in sub-domain order) and
    /// the coarse space added after it.  That is the order of the library's
    /// two-level apply, so the sum is bit-identical to it; the pinned
    /// trajectory hashes check this.
    Split { local: Box<dyn Preconditioner>, coarse: CoarseSpace },
    /// The resilience tiers; every solve gets a fresh ladder over them.
    Ladder(Vec<Arc<dyn Preconditioner>>),
}

impl Traceable {
    /// DDM-GNN: decomposition, local graphs, hierarchy and the one-level
    /// build (plans), as `with_multilevel_coarse` does them.  Exact Schwarz:
    /// decomposition, Nicolaides space and the one-level build (Cholesky
    /// factors).  Ladder: the whole tier stack.
    pub fn build(
        kind: Kind,
        problem: &PoissonProblem,
        model: Option<&Arc<DssModel>>,
        subdomains: Vec<Vec<usize>>,
        rec: Option<&Recorder>,
    ) -> Self {
        use crate::trace::span;
        if let Kind::LadderInt8 = kind {
            let tiers = span(rec, "tiers", || build(kind, problem, model, subdomains));
            let Solver::Ladder(tiers) = tiers else { unreachable!("the ladder set-up") };
            return Traceable::Ladder(tiers);
        }
        let decomposition = span(rec, "decomposition", || decompose(problem, subdomains));
        let (local, coarse): (Box<dyn Preconditioner>, _) = match precision(kind) {
            Some(p) => {
                let model = Arc::clone(model.expect("GNN workloads load the model"));
                let graphs = span(rec, "graphs", || local_graphs(problem, &decomposition));
                let coarse = span(rec, "hierarchy", || build_hierarchy(problem, p));
                let local = span(rec, "local.build", || {
                    DdmGnnPreconditioner::from_parts_with_precision(
                        &problem.matrix,
                        decomposition,
                        graphs,
                        model,
                        false,
                        p,
                    )
                    .expect("one-level DDM-GNN set-up failed")
                });
                (Box::new(local), coarse)
            }
            None => {
                let coarse = span(rec, "coarse.build", || {
                    CoarseSpace::Nicolaides(
                        NicolaidesCoarseSpace::new(&problem.matrix, &decomposition.restrictions)
                            .expect("Nicolaides coarse space failed"),
                    )
                });
                let local = span(rec, "local.build", || {
                    AdditiveSchwarz::from_decomposition(
                        &problem.matrix,
                        decomposition,
                        AsmLevel::OneLevel,
                    )
                    .expect("one-level Schwarz set-up failed")
                });
                (Box::new(local), coarse)
            }
        };
        Traceable::Split { local, coarse }
    }

    /// A fresh wrapper for one solve.
    pub fn traced<'a>(&'a self, rec: Option<&'a Arc<Recorder>>) -> Traced<'a> {
        let inner = match self {
            Traceable::Split { local, coarse } => Inner::Split(&**local, coarse),
            Traceable::Ladder(tiers) => Inner::Ladder(ladder(tiers, rec)),
        };
        Traced {
            inner,
            rec: rec.map(|r| &**r),
            calls: AtomicU64::new(0),
            columns: AtomicU64::new(0),
            captured: Mutex::new(Vec::new()),
        }
    }

    /// Name of the spans that time the GNN or Schwarz apply: the whole
    /// apply, or the ladder's first (int8) tier.
    pub fn apply_span(&self) -> String {
        match self {
            Traceable::Split { .. } => "apply".to_string(),
            Traceable::Ladder(tiers) => format!("tier:{}", tiers[0].name()),
        }
    }

    /// Free the preconditioner, keeping a split one's coarse space.
    pub fn into_coarse(self) -> Option<CoarseSpace> {
        match self {
            Traceable::Split { coarse, .. } => Some(coarse),
            Traceable::Ladder(_) => None,
        }
    }
}

/// The benchmark's preconditioner wrapper: spans around each apply and
/// around its parts (local and coarse halves, or ladder tiers) when a
/// recorder is given, counters of calls and live columns, and the first
/// residuals kept for the probes.
pub struct Traced<'a> {
    inner: Inner<'a>,
    rec: Option<&'a Recorder>,
    pub calls: AtomicU64,
    pub columns: AtomicU64,
    captured: Mutex<Vec<Vec<f64>>>,
}

enum Inner<'a> {
    Split(&'a dyn Preconditioner, &'a CoarseSpace),
    Ladder(Box<dyn Preconditioner>),
}

impl Traced<'_> {
    /// Residuals seen by the first applies (every column of a batch).
    pub fn captured(&self) -> Vec<Vec<f64>> {
        self.captured.lock().expect("capture lock poisoned").clone()
    }

    fn count(&self, rs: &[&[f64]]) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.columns.fetch_add(rs.len() as u64, Ordering::Relaxed);
        if self.rec.is_some() {
            let mut kept = self.captured.lock().expect("capture lock poisoned");
            if kept.len() < CAPTURED_RESIDUALS {
                kept.extend(rs.iter().map(|r| r.to_vec()));
            }
        }
    }

    fn inner(&self) -> &dyn Preconditioner {
        match &self.inner {
            Inner::Split(local, _) => *local,
            Inner::Ladder(ladder) => &**ladder,
        }
    }
}

impl Preconditioner for Traced<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        use crate::trace::span;
        self.count(&[r]);
        span(self.rec, "apply", || match &self.inner {
            Inner::Split(local, coarse) => {
                span(self.rec, "local", || local.apply(r, z));
                span(self.rec, "coarse", || coarse_apply_one(coarse, r, z));
            }
            Inner::Ladder(ladder) => ladder.apply(r, z),
        });
    }

    fn apply_batch(&self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        use crate::trace::span;
        self.count(rs);
        span(self.rec, "apply", || match &self.inner {
            Inner::Split(local, coarse) => {
                span(self.rec, "local", || local.apply_batch(rs, zs));
                span(self.rec, "coarse", || {
                    for (r, z) in rs.iter().zip(zs.iter_mut()) {
                        coarse_apply_one(coarse, r, z);
                    }
                });
            }
            Inner::Ladder(ladder) => ladder.apply_batch(rs, zs),
        });
    }

    fn dim(&self) -> usize {
        self.inner().dim()
    }

    fn name(&self) -> &str {
        self.inner().name()
    }

    fn collect_faults(&self, log: &mut FaultLog) {
        self.inner().collect_faults(log);
    }
}

/// Per-sub-domain inference plans of one precision.
enum Plans {
    F64(Vec<InferencePlan>),
    F32(Vec<InferencePlanF32>),
    Int8(Vec<InferencePlanQ>),
}

/// Inference scratch of one sub-domain.
pub enum Scratch {
    F64(InferScratch),
    F32(InferScratchF32),
    Int8(InferScratchQ),
}

/// The DDM-GNN local phase rebuilt from the gnn plan API and the ddm
/// restrictions, run on the calling thread only: the single-thread
/// baseline, and the per-sub-domain inference probe.  It restricts,
/// normalises, infers and glues in the library's order.
pub struct LocalGnn {
    model: Arc<DssModel>,
    restrictions: Vec<Restriction>,
    graphs: Vec<LocalGraph>,
    plans: Plans,
}

impl LocalGnn {
    /// Decomposition and local graphs; no plans yet.
    pub fn new(
        problem: &PoissonProblem,
        subdomains: Vec<Vec<usize>>,
        model: &Arc<DssModel>,
    ) -> Self {
        let decomposition = decompose(problem, subdomains);
        let graphs = local_graphs(problem, &decomposition);
        LocalGnn {
            model: Arc::clone(model),
            restrictions: decomposition.restrictions,
            graphs,
            plans: Plans::F64(Vec::new()),
        }
    }

    /// Build every sub-domain's plan at `precision`.
    pub fn build_plans(&mut self, precision: Precision) {
        let (m, g) = (&self.model, &self.graphs);
        self.plans = match precision {
            Precision::F64 => Plans::F64(g.iter().map(|g| m.build_plan(g)).collect()),
            Precision::F32 => Plans::F32(g.iter().map(|g| m.build_plan_f32(g)).collect()),
            Precision::Int8 => Plans::Int8(g.iter().map(|g| m.build_plan_q(g)).collect()),
        };
    }

    pub fn num_subdomains(&self) -> usize {
        self.graphs.len()
    }

    /// Heap bytes of sub-domain `i`'s plan, as the plan reports them.
    pub fn plan_bytes(&self, i: usize) -> usize {
        match &self.plans {
            Plans::F64(p) => p[i].memory_bytes(),
            Plans::F32(p) => p[i].memory_bytes(),
            Plans::Int8(p) => p[i].memory_bytes(),
        }
    }

    /// Computed flops of one inference of one column on sub-domain `i`.
    pub fn flops_per_column(&self, i: usize) -> u64 {
        let c = self.model.config();
        let g = &self.graphs[i];
        solverbench::dss_inference_flops(c.num_blocks, c.latent_dim, g.num_nodes(), g.num_edges())
    }

    pub fn scratch(&self) -> Scratch {
        match &self.plans {
            Plans::F64(_) => Scratch::F64(InferScratch::new()),
            Plans::F32(_) => Scratch::F32(InferScratchF32::new()),
            Plans::Int8(_) => Scratch::Int8(InferScratchQ::new()),
        }
    }

    /// Sub-domain `i`'s unit-norm restricted residuals as a
    /// column-interleaved `nodes × b` panel, and the restriction norms.
    pub fn local_panel(&self, i: usize, rs: &[Vec<f64>]) -> (Vec<f64>, Vec<f64>) {
        let (b, nl) = (rs.len(), self.restrictions[i].num_local());
        let mut local = vec![0.0; nl];
        let mut panel = vec![0.0; nl * b];
        let mut norms = Vec::with_capacity(b);
        for (c, r) in rs.iter().enumerate() {
            self.restrictions[i].restrict_into(r, &mut local);
            let mut norm = sparse::vector::norm2(&local);
            if norm <= f64::MIN_POSITIVE {
                norm = 0.0;
            } else {
                for (j, v) in local.iter().enumerate() {
                    panel[j * b + c] = v / norm;
                }
            }
            norms.push(norm);
        }
        (panel, norms)
    }

    /// One inference of sub-domain `i` on a `nodes × b` panel: the
    /// unbatched engine for `b = 1`, the batched one otherwise (as the
    /// library's `apply` and `apply_batch` do).
    pub fn infer(&self, i: usize, panel: &[f64], b: usize, scratch: &mut Scratch, out: &mut [f64]) {
        let m = &self.model;
        match (&self.plans, scratch, b) {
            (Plans::F64(p), Scratch::F64(s), 1) => m.infer_with_plan_into(&p[i], panel, s, out),
            (Plans::F64(p), Scratch::F64(s), _) => {
                m.infer_with_plan_batched_into(&p[i], panel, b, s, out)
            }
            (Plans::F32(p), Scratch::F32(s), 1) => m.infer_with_plan_f32_into(&p[i], panel, s, out),
            (Plans::F32(p), Scratch::F32(s), _) => {
                m.infer_with_plan_f32_batched_into(&p[i], panel, b, s, out)
            }
            (Plans::Int8(p), Scratch::Int8(s), 1) => m.infer_with_plan_q_into(&p[i], panel, s, out),
            (Plans::Int8(p), Scratch::Int8(s), _) => {
                m.infer_with_plan_q_batched_into(&p[i], panel, b, s, out)
            }
            _ => unreachable!("scratch built for another precision"),
        }
    }

    /// Every sub-domain's inference at once on the shared thread pool.
    pub fn infer_all_parallel(&self, slots: &mut [Slot], b: usize) {
        slots.par_iter_mut().enumerate().for_each(|(i, s)| {
            self.infer(i, &s.panel, b, &mut s.scratch, &mut s.out);
        });
    }

    /// The whole DDM-GNN apply on the calling thread: restrict, normalise,
    /// infer and glue every sub-domain in order, then add the coarse
    /// correction.
    pub fn apply_single_thread(
        &self,
        rs: &[Vec<f64>],
        zs: &mut [Vec<f64>],
        slots: &mut [Slot],
        coarse: &CoarseSpace,
    ) {
        let b = rs.len();
        for z in zs.iter_mut() {
            z.fill(0.0);
        }
        for (i, s) in slots.iter_mut().enumerate() {
            let (panel, norms) = self.local_panel(i, rs);
            if norms.iter().all(|&n| n == 0.0) {
                continue;
            }
            self.infer(i, &panel, b, &mut s.scratch, &mut s.out);
            for (c, z) in zs.iter_mut().enumerate() {
                if norms[c] > 0.0 {
                    self.restrictions[i].extend_add_scaled_strided(norms[c], &s.out, b, c, z);
                }
            }
        }
        coarse_apply(coarse, rs, zs);
    }

    /// Per-sub-domain inference inputs and buffers for residual columns `rs`.
    pub fn slots(&self, rs: &[Vec<f64>]) -> Vec<Slot> {
        (0..self.num_subdomains())
            .map(|i| {
                let (panel, _) = self.local_panel(i, rs);
                let out = vec![0.0; panel.len()];
                Slot { panel, out, scratch: self.scratch() }
            })
            .collect()
    }
}

/// Inference input, output and scratch of one sub-domain.
pub struct Slot {
    pub panel: Vec<f64>,
    pub out: Vec<f64>,
    pub scratch: Scratch,
}

/// Threads of the shared pool the library runs on.
pub fn pool_threads() -> usize {
    rayon::current_num_threads()
}
