//! The Deep Statistical Solver model (Section III-B of the paper).
//!
//! The model maintains a latent state `H ∈ R^{n×d}` initialised to zero and
//! applies `k̄` *distinct* message-passing blocks.  Block `k` computes, for
//! every node `j`,
//!
//! ```text
//! φ→_j = Σ_{l ∈ N(j)} Φ→_k(h_j, h_l,  d_jl, ‖d_jl‖)
//! φ←_j = Σ_{l ∈ N(j)} Φ←_k(h_j, h_l, -d_jl, ‖d_jl‖)
//! h'_j = h_j + α Ψ_k(h_j, c_j, φ→_j, φ←_j)
//! r̂_j  = D_k(h'_j)
//! ```
//!
//! with all of `Φ→`, `Φ←`, `Ψ`, `D` two-layer MLPs of hidden width `d` (this
//! choice reproduces the paper's reported weight counts exactly).  Training
//! minimises the sum over blocks of the physics-informed residual loss of the
//! decoded state (Eq. 23).  Gradients are exact reverse-mode derivatives with
//! per-block activation recomputation so the memory footprint stays at one
//! latent state per block.

use std::sync::Arc;

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::graph::LocalGraph;
use crate::layers::Mlp;
use crate::loss::residual_loss_and_grad;
use crate::plan::{
    InferScratch, InferScratchF32, InferScratchQ, InferencePlan, InferencePlanF32, InferencePlanQ,
    InferenceTimings, Plan, PlanPrecision, Scratch, ScratchPool,
};

/// Hyper-parameters of the DSS model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DssConfig {
    /// Number of message-passing blocks `k̄`.
    pub num_blocks: usize,
    /// Latent dimension `d` (also the hidden width of every MLP).
    pub latent_dim: usize,
    /// Residual update step `α` (the paper uses 1e-3).
    pub alpha: f64,
}

impl Default for DssConfig {
    fn default() -> Self {
        // The paper's training configuration: k̄ = 30, d = 10, α = 1e-3.
        DssConfig { num_blocks: 30, latent_dim: 10, alpha: 1e-3 }
    }
}

impl DssConfig {
    /// Convenience constructor.
    pub fn new(num_blocks: usize, latent_dim: usize) -> Self {
        DssConfig { num_blocks, latent_dim, alpha: 1e-3 }
    }
}

/// One message-passing block with its four MLPs.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    pub phi_fwd: Mlp,
    pub phi_bwd: Mlp,
    pub psi: Mlp,
    pub decoder: Mlp,
}

impl Block {
    fn xavier(d: usize, rng: &mut impl Rng) -> Self {
        let edge_in = 2 * d + 3;
        let psi_in = 3 * d + 1;
        Block {
            phi_fwd: Mlp::xavier(edge_in, d, d, rng),
            phi_bwd: Mlp::xavier(edge_in, d, d, rng),
            psi: Mlp::xavier(psi_in, d, d, rng),
            decoder: Mlp::xavier(d, d, 1, rng),
        }
    }

    fn zeros_like(other: &Block) -> Self {
        Block {
            phi_fwd: Mlp::zeros_like(&other.phi_fwd),
            phi_bwd: Mlp::zeros_like(&other.phi_bwd),
            psi: Mlp::zeros_like(&other.psi),
            decoder: Mlp::zeros_like(&other.decoder),
        }
    }

    fn num_params(&self) -> usize {
        self.phi_fwd.num_params()
            + self.phi_bwd.num_params()
            + self.psi.num_params()
            + self.decoder.num_params()
    }
}

/// Long-lived scratch pools retained by a [`DssModel`] for its batched
/// inference entry points ([`DssModel::infer_batch`] and
/// [`DssModel::infer_batch_f32`]).
///
/// The pools live behind an `Arc`, so clones of a model share them — which is
/// always safe: pooled scratch never influences results (every buffer is
/// fully overwritten per inference) and the pool caps its idle buffers at the
/// peak concurrent-borrow count.  Retaining the pools on the model lets
/// *repeated* `infer_batch` calls reuse their scratch buffers instead of
/// reallocating them per call (each call still builds throwaway per-graph
/// plans and output vectors — batch callers that also want the setup cost
/// amortised should hold prebuilt plans and use
/// [`DssModel::infer_with_plan_into`] directly, like the preconditioner
/// does).  Callers that want explicit control pass their own pool to the
/// `_with_pool` variants; [`BatchPools::clear`] releases retained buffers.
#[derive(Debug, Default)]
pub struct BatchPools {
    /// Scratch pool of the f64 engine.
    pub f64_pool: ScratchPool<InferScratch>,
    /// Scratch pool of the f32 engine.
    pub f32_pool: ScratchPool<InferScratchF32>,
}

impl BatchPools {
    /// Release every retained idle buffer in both pools.  Useful after a
    /// one-off large batch: retained buffers are sized to the largest graph
    /// they ever served and would otherwise live as long as the model (and
    /// all its clones).
    pub fn clear(&self) {
        self.f64_pool.clear();
        self.f32_pool.clear();
    }
}

/// The Deep Statistical Solver.
#[derive(Debug, Clone)]
pub struct DssModel {
    config: DssConfig,
    blocks: Vec<Block>,
    /// Retained scratch pools for batched inference (shared across clones).
    batch_pools: Arc<BatchPools>,
}

impl DssModel {
    /// Create a Xavier-initialised model.
    pub fn new(config: DssConfig, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let blocks =
            (0..config.num_blocks).map(|_| Block::xavier(config.latent_dim, &mut rng)).collect();
        DssModel { config, blocks, batch_pools: Arc::default() }
    }

    /// The model hyper-parameters.
    pub fn config(&self) -> DssConfig {
        self.config
    }

    /// Total number of trainable weights (matches Table II of the paper).
    pub fn num_params(&self) -> usize {
        self.blocks.iter().map(|b| b.num_params()).sum()
    }

    /// A zeroed clone used as a gradient accumulator.
    pub fn zeros_like(&self) -> DssModel {
        DssModel {
            config: self.config,
            blocks: self.blocks.iter().map(Block::zeros_like).collect(),
            batch_pools: Arc::default(),
        }
    }

    /// Flatten all parameters into a single vector.
    pub fn flatten(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        for b in &self.blocks {
            b.phi_fwd.append_params(&mut out);
            b.phi_bwd.append_params(&mut out);
            b.psi.append_params(&mut out);
            b.decoder.append_params(&mut out);
        }
        out
    }

    /// Load parameters from a flat vector produced by [`DssModel::flatten`].
    pub fn load_flat(&mut self, data: &[f64]) {
        assert_eq!(data.len(), self.num_params(), "flat parameter length mismatch");
        let mut offset = 0;
        for b in &mut self.blocks {
            b.phi_fwd.read_params(data, &mut offset);
            b.phi_bwd.read_params(data, &mut offset);
            b.psi.read_params(data, &mut offset);
            b.decoder.read_params(data, &mut offset);
        }
    }

    /// One block forward step: returns the next latent state.
    fn block_forward(&self, block: &Block, graph: &LocalGraph, h: &[f64]) -> Vec<f64> {
        self.block_forward_with_input(block, graph, h, &graph.input)
    }

    /// One block forward step using an explicit node input `c`.
    fn block_forward_with_input(
        &self,
        block: &Block,
        graph: &LocalGraph,
        h: &[f64],
        input: &[f64],
    ) -> Vec<f64> {
        let d = self.config.latent_dim;
        let n = graph.num_nodes();
        let (msg_fwd, msg_bwd) = self.messages(block, graph, h);
        // Ψ update.
        let psi_in = build_psi_input(input, h, &msg_fwd, &msg_bwd, d);
        let update = block.psi.forward(&psi_in, n);
        let mut h_next = h.to_vec();
        for i in 0..n * d {
            h_next[i] += self.config.alpha * update[i];
        }
        h_next
    }

    /// Compute the two aggregated message fields for a block.
    ///
    /// Aggregation walks the graph's destination-sorted incidence
    /// ([`LocalGraph::edge_ptr`]), a contiguous per-node gather.  The stable
    /// sort keeps each node's edges in their original relative order, so the
    /// sums are bit-identical to the per-edge scatter this replaced.
    fn messages(&self, block: &Block, graph: &LocalGraph, h: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let d = self.config.latent_dim;
        let n = graph.num_nodes();
        let e = graph.num_edges();
        let (x_fwd, x_bwd) = build_edge_inputs(graph, h, d);
        let m_fwd = block.phi_fwd.forward(&x_fwd, e);
        let m_bwd = block.phi_bwd.forward(&x_bwd, e);
        let mut msg_fwd = vec![0.0; n * d];
        let mut msg_bwd = vec![0.0; n * d];
        gather_messages(graph, &m_fwd, d, &mut msg_fwd);
        gather_messages(graph, &m_bwd, d, &mut msg_bwd);
        (msg_fwd, msg_bwd)
    }

    /// The model's message-passing blocks (for [`InferencePlan`] builders).
    pub(crate) fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Run the full model and return the final decoded state `r̂`.
    pub fn infer(&self, graph: &LocalGraph) -> Vec<f64> {
        self.infer_with_input(graph, &graph.input)
    }

    /// Run the model using `input` as the node feature `c` instead of the
    /// graph's stored input.
    pub fn infer_with_input(&self, graph: &LocalGraph, input: &[f64]) -> Vec<f64> {
        let mut scratch = InferScratch::new();
        let mut out = vec![0.0; graph.num_nodes()];
        self.infer_with_input_into(graph, input, &mut scratch, &mut out);
        out
    }

    /// Reference forward pass: the straightforward edge-batch formulation
    /// (build `e × (2d + 3)` inputs, run the full first-layer GEMM per edge).
    ///
    /// This is the semantics the optimised plan path is tested against — the
    /// proptest suite keeps [`DssModel::infer_with_input`] within 1e-12
    /// relative error of this implementation — and it shares
    /// `DssModel::block_forward_with_input` with the training loss and
    /// backward pass, so gradient checks pin the same numerics.
    pub fn infer_reference(&self, graph: &LocalGraph, input: &[f64]) -> Vec<f64> {
        let n = graph.num_nodes();
        let mut h = vec![0.0; n * self.config.latent_dim];
        for block in &self.blocks {
            h = self.block_forward_with_input(block, graph, &h, input);
        }
        match self.blocks.last() {
            Some(block) => block.decoder.forward(&h, n),
            None => vec![0.0; n],
        }
    }

    /// Build the inference plan of this model for one graph (the setup half
    /// of the setup/apply split — see [`Plan`]).
    pub fn build_plan(&self, graph: &LocalGraph) -> InferencePlan {
        Plan::new(self, graph)
    }

    /// Build the *single-precision* inference plan of this model for one
    /// graph: splits and compositions computed in f64 and rounded once.
    pub fn build_plan_f32(&self, graph: &LocalGraph) -> InferencePlanF32 {
        Plan::new(self, graph)
    }

    /// Build the **quantised** inference plan of this model for one graph:
    /// int8 weights with per-output f32 scales, bf16 static edge terms and
    /// hidden sums, f32 accumulators.
    pub fn build_plan_q(&self, graph: &LocalGraph) -> InferencePlanQ {
        Plan::new(self, graph)
    }

    /// Convenience inference without a prebuilt plan: builds a throwaway
    /// [`InferencePlan`] and runs the optimised engine.  Hot callers (the
    /// DDM-GNN preconditioner, batched inference) should build the plan once
    /// via [`DssModel::build_plan`] and call
    /// [`DssModel::infer_with_plan_into`] instead, which is allocation-free
    /// in the steady state.
    pub fn infer_with_input_into(
        &self,
        graph: &LocalGraph,
        input: &[f64],
        scratch: &mut InferScratch,
        out: &mut [f64],
    ) {
        let plan = InferencePlan::new(self, graph);
        self.infer_with_plan_into(&plan, input, scratch, out);
    }

    /// The planned forward pass at any precision, over a column-interleaved
    /// `n × b` panel (`input[j*b + c]` is column `c`'s value at node `j`;
    /// `b = 1` is a single right-hand side).  Every plan stream is read once
    /// per batch, and column `c` of the output is **bit-identical** to the
    /// pass run on that column alone, for every batch width.  All
    /// intermediates live in `scratch`, so the steady state allocates
    /// nothing.  With `timings`, a per-stage wall-clock breakdown is
    /// accumulated into it.
    pub fn infer_plan<P: PlanPrecision>(
        &self,
        plan: &Plan<P>,
        input: &[f64],
        b: usize,
        scratch: &mut Scratch<P>,
        out: &mut [f64],
        timings: Option<&mut InferenceTimings>,
    ) {
        assert_eq!(
            plan.latent_dim, self.config.latent_dim,
            "plan built for a different latent dimension"
        );
        assert_eq!(plan.num_blocks, self.blocks.len(), "plan built for a different model depth");
        plan.infer_core_b(input, b, scratch, out, timings);
    }

    /// [`DssModel::infer_plan`] on one right-hand side, f64 engine.
    pub fn infer_with_plan_into(
        &self,
        plan: &InferencePlan,
        input: &[f64],
        scratch: &mut InferScratch,
        out: &mut [f64],
    ) {
        self.infer_plan(plan, input, 1, scratch, out, None);
    }

    /// [`DssModel::infer_plan`] on a batch panel, f64 engine.
    pub fn infer_with_plan_batched_into(
        &self,
        plan: &InferencePlan,
        input: &[f64],
        b: usize,
        scratch: &mut InferScratch,
        out: &mut [f64],
    ) {
        self.infer_plan(plan, input, b, scratch, out, None);
    }

    /// [`DssModel::infer_plan`] on a batch panel with stage timings, f64.
    #[allow(clippy::too_many_arguments)]
    pub fn infer_with_plan_batched_timed(
        &self,
        plan: &InferencePlan,
        input: &[f64],
        b: usize,
        scratch: &mut InferScratch,
        out: &mut [f64],
        timings: &mut InferenceTimings,
    ) {
        self.infer_plan(plan, input, b, scratch, out, Some(timings));
    }

    /// [`DssModel::infer_plan`] on one right-hand side, f32 engine.
    pub fn infer_with_plan_f32_into(
        &self,
        plan: &InferencePlanF32,
        input: &[f64],
        scratch: &mut InferScratchF32,
        out: &mut [f64],
    ) {
        self.infer_plan(plan, input, 1, scratch, out, None);
    }

    /// [`DssModel::infer_plan`] on a batch panel, f32 engine.
    pub fn infer_with_plan_f32_batched_into(
        &self,
        plan: &InferencePlanF32,
        input: &[f64],
        b: usize,
        scratch: &mut InferScratchF32,
        out: &mut [f64],
    ) {
        self.infer_plan(plan, input, b, scratch, out, None);
    }

    /// [`DssModel::infer_plan`] on a batch panel with stage timings, f32.
    #[allow(clippy::too_many_arguments)]
    pub fn infer_with_plan_f32_batched_timed(
        &self,
        plan: &InferencePlanF32,
        input: &[f64],
        b: usize,
        scratch: &mut InferScratchF32,
        out: &mut [f64],
        timings: &mut InferenceTimings,
    ) {
        self.infer_plan(plan, input, b, scratch, out, Some(timings));
    }

    /// [`DssModel::infer_plan`] on one right-hand side, int8 engine.
    pub fn infer_with_plan_q_into(
        &self,
        plan: &InferencePlanQ,
        input: &[f64],
        scratch: &mut InferScratchQ,
        out: &mut [f64],
    ) {
        self.infer_plan(plan, input, 1, scratch, out, None);
    }

    /// [`DssModel::infer_plan`] on a batch panel, int8 engine.
    pub fn infer_with_plan_q_batched_into(
        &self,
        plan: &InferencePlanQ,
        input: &[f64],
        b: usize,
        scratch: &mut InferScratchQ,
        out: &mut [f64],
    ) {
        self.infer_plan(plan, input, b, scratch, out, None);
    }

    /// [`DssModel::infer_plan`] on a batch panel with stage timings, int8.
    #[allow(clippy::too_many_arguments)]
    pub fn infer_with_plan_q_batched_timed(
        &self,
        plan: &InferencePlanQ,
        input: &[f64],
        b: usize,
        scratch: &mut InferScratchQ,
        out: &mut [f64],
        timings: &mut InferenceTimings,
    ) {
        self.infer_plan(plan, input, b, scratch, out, Some(timings));
    }

    /// Run the model on a batch of graphs in parallel (the CPU analogue of the
    /// paper's batched GPU inference of Eq. 14), recycling inference scratch
    /// through the model's retained [`BatchPools`] — repeated calls reuse the
    /// same buffers instead of re-allocating a pool per call.
    pub fn infer_batch(&self, graphs: &[LocalGraph]) -> Vec<Vec<f64>> {
        self.infer_batch_with_pool(graphs, &self.batch_pools.f64_pool)
    }

    /// The scratch pools retained for batched inference (shared by clones of
    /// this model; exposed so callers and tests can observe buffer reuse).
    pub fn batch_pools(&self) -> &BatchPools {
        &self.batch_pools
    }

    /// Batched inference with a caller-owned scratch pool: buffers are reused
    /// across batch items and across calls, so a long-lived pool keeps the
    /// intermediate allocations of repeated batches at zero.  Results are
    /// identical to per-graph [`DssModel::infer`] regardless of pool state or
    /// thread count.
    pub fn infer_batch_with_pool(
        &self,
        graphs: &[LocalGraph],
        pool: &ScratchPool<InferScratch>,
    ) -> Vec<Vec<f64>> {
        self.infer_batch_in(graphs, pool)
    }

    /// Batched inference through the **f32 engine**, recycling
    /// [`InferScratchF32`] buffers through the model's retained pool the same
    /// way [`DssModel::infer_batch`] recycles the f64 scratch.
    pub fn infer_batch_f32(&self, graphs: &[LocalGraph]) -> Vec<Vec<f64>> {
        self.infer_batch_in(graphs, &self.batch_pools.f32_pool)
    }

    /// [`DssModel::infer_batch_f32`] with a caller-owned scratch pool.
    pub fn infer_batch_f32_with_pool(
        &self,
        graphs: &[LocalGraph],
        pool: &ScratchPool<InferScratchF32>,
    ) -> Vec<Vec<f64>> {
        self.infer_batch_in(graphs, pool)
    }

    /// Per-graph throwaway plans at precision `P`, inferred in parallel.
    fn infer_batch_in<P: PlanPrecision>(
        &self,
        graphs: &[LocalGraph],
        pool: &ScratchPool<Scratch<P>>,
    ) -> Vec<Vec<f64>> {
        graphs
            .par_iter()
            .map(|g| {
                let plan = Plan::<P>::new(self, g);
                let mut scratch = pool.acquire();
                let mut out = vec![0.0; g.num_nodes()];
                self.infer_plan(&plan, &g.input, 1, &mut scratch, &mut out, None);
                pool.release(scratch);
                out
            })
            .collect()
    }

    /// Total training loss (sum of per-block residual losses, Eq. 23).
    pub fn loss(&self, graph: &LocalGraph) -> f64 {
        let n = graph.num_nodes();
        let d = self.config.latent_dim;
        let mut h = vec![0.0; n * d];
        let mut total = 0.0;
        for block in &self.blocks {
            h = self.block_forward(block, graph, &h);
            let decoded = block.decoder.forward(&h, n);
            total += crate::loss::residual_loss(&graph.matrix, &graph.input, &decoded);
        }
        total
    }

    /// The residual loss of the *final* decoded state only (the metric the
    /// paper reports in Table II).
    pub fn final_residual_loss(&self, graph: &LocalGraph) -> f64 {
        let out = self.infer(graph);
        crate::loss::residual_loss(&graph.matrix, &graph.input, &out)
    }

    /// Forward + backward pass on one graph.  Accumulates parameter gradients
    /// into `grad` (which must have the same shape) and returns the total
    /// training loss of this graph.
    pub fn backward(&self, graph: &LocalGraph, grad: &mut DssModel) -> f64 {
        assert_eq!(grad.config, self.config, "gradient container shape mismatch");
        let d = self.config.latent_dim;
        let n = graph.num_nodes();
        let e = graph.num_edges();
        let kbar = self.config.num_blocks;

        // Forward pass, storing every latent state (h^0 .. h^kbar).
        let mut states: Vec<Vec<f64>> = Vec::with_capacity(kbar + 1);
        states.push(vec![0.0; n * d]);
        for block in &self.blocks {
            let next = self.block_forward(block, graph, states.last().unwrap());
            states.push(next);
        }

        // Total loss (recomputed per block during the backward sweep).
        let mut total_loss = 0.0;

        // Backward sweep.
        let mut grad_h_next = vec![0.0; n * d]; // dL/dh^{k+1}
        for k in (0..kbar).rev() {
            let block = &self.blocks[k];
            let gblock = &mut grad.blocks[k];
            let h = &states[k];
            let h_next = &states[k + 1];

            // Decoder path of this block: loss on the decoded state of h^{k+1}.
            let (decoded, dec_cache) = block.decoder.forward_cached(h_next, n);
            let (lk, dldr) = residual_loss_and_grad(&graph.matrix, &graph.input, &decoded);
            total_loss += lk;
            let d_dec_in =
                block.decoder.backward(h_next, &dec_cache, &dldr, n, &mut gblock.decoder);
            for i in 0..n * d {
                grad_h_next[i] += d_dec_in[i];
            }

            // Recompute the block's internals for backprop.
            let (x_fwd, x_bwd) = build_edge_inputs(graph, h, d);
            let (m_fwd, fwd_cache) = block.phi_fwd.forward_cached(&x_fwd, e);
            let (m_bwd, bwd_cache) = block.phi_bwd.forward_cached(&x_bwd, e);
            let mut msg_fwd = vec![0.0; n * d];
            let mut msg_bwd = vec![0.0; n * d];
            gather_messages(graph, &m_fwd, d, &mut msg_fwd);
            gather_messages(graph, &m_bwd, d, &mut msg_bwd);
            let psi_in = build_psi_input(&graph.input, h, &msg_fwd, &msg_bwd, d);
            let (_update, psi_cache) = block.psi.forward_cached(&psi_in, n);

            // h^{k+1} = h^k + α Ψ(psi_in): gradient through Ψ.
            let d_psi_out: Vec<f64> = grad_h_next.iter().map(|&g| g * self.config.alpha).collect();
            let d_psi_in = block.psi.backward(&psi_in, &psi_cache, &d_psi_out, n, &mut gblock.psi);

            // Gradient with respect to h^k: identity path + Ψ's h input.
            let psi_cols = 3 * d + 1;
            let mut grad_h = grad_h_next.clone();
            for j in 0..n {
                for kk in 0..d {
                    grad_h[j * d + kk] += d_psi_in[j * psi_cols + kk];
                }
            }
            // Gradients with respect to the message sums.
            let mut d_msg_fwd = vec![0.0; n * d];
            let mut d_msg_bwd = vec![0.0; n * d];
            for j in 0..n {
                for kk in 0..d {
                    d_msg_fwd[j * d + kk] = d_psi_in[j * psi_cols + d + 1 + kk];
                    d_msg_bwd[j * d + kk] = d_psi_in[j * psi_cols + 2 * d + 1 + kk];
                }
            }

            // Scatter message gradients back to the edges and through the
            // message MLPs.
            let mut d_m_fwd = vec![0.0; e * d];
            let mut d_m_bwd = vec![0.0; e * d];
            for (ei, edge) in graph.edges.iter().enumerate() {
                for kk in 0..d {
                    d_m_fwd[ei * d + kk] = d_msg_fwd[edge.dst * d + kk];
                    d_m_bwd[ei * d + kk] = d_msg_bwd[edge.dst * d + kk];
                }
            }
            let d_x_fwd =
                block.phi_fwd.backward(&x_fwd, &fwd_cache, &d_m_fwd, e, &mut gblock.phi_fwd);
            let d_x_bwd =
                block.phi_bwd.backward(&x_bwd, &bwd_cache, &d_m_bwd, e, &mut gblock.phi_bwd);
            let edge_cols = 2 * d + 3;
            for (ei, edge) in graph.edges.iter().enumerate() {
                for kk in 0..d {
                    // x = [h_dst, h_src, delta, dist]
                    grad_h[edge.dst * d + kk] += d_x_fwd[ei * edge_cols + kk];
                    grad_h[edge.src * d + kk] += d_x_fwd[ei * edge_cols + d + kk];
                    grad_h[edge.dst * d + kk] += d_x_bwd[ei * edge_cols + kk];
                    grad_h[edge.src * d + kk] += d_x_bwd[ei * edge_cols + d + kk];
                }
            }

            grad_h_next = grad_h;
        }

        total_loss
    }

    /// Add `other`'s parameters (scaled by `alpha`) into `self`.  Used to
    /// accumulate gradients across a mini-batch.
    pub fn add_scaled(&mut self, alpha: f64, other: &DssModel) {
        let mut mine = self.flatten();
        let theirs = other.flatten();
        for (m, t) in mine.iter_mut().zip(theirs.iter()) {
            *m += alpha * t;
        }
        self.load_flat(&mine);
    }
}

/// Aggregate per-edge messages (indexed in original edge order) into per-node
/// sums along the destination-sorted incidence.  Stable sorting preserves
/// each node's relative edge order, so the result is bit-identical to the
/// per-edge scatter while the output is written node-contiguously.
fn gather_messages(graph: &LocalGraph, m: &[f64], d: usize, msg: &mut [f64]) {
    debug_assert_eq!(m.len(), graph.num_edges() * d);
    debug_assert_eq!(msg.len(), graph.num_nodes() * d);
    for j in 0..graph.num_nodes() {
        let dst_row = &mut msg[j * d..(j + 1) * d];
        for &ei in &graph.edge_order[graph.edge_ptr[j]..graph.edge_ptr[j + 1]] {
            let row = &m[ei * d..(ei + 1) * d];
            for k in 0..d {
                dst_row[k] += row[k];
            }
        }
    }
}

/// Build the per-edge input batches for the two message MLPs.
fn build_edge_inputs(graph: &LocalGraph, h: &[f64], d: usize) -> (Vec<f64>, Vec<f64>) {
    let e = graph.num_edges();
    let cols = 2 * d + 3;
    let mut x_fwd = vec![0.0; e * cols];
    let mut x_bwd = vec![0.0; e * cols];
    build_edge_inputs_into(graph, h, d, &mut x_fwd, &mut x_bwd);
    (x_fwd, x_bwd)
}

/// Write the per-edge input batches into preallocated buffers (every slot is
/// overwritten, so the buffers need no clearing).
fn build_edge_inputs_into(
    graph: &LocalGraph,
    h: &[f64],
    d: usize,
    x_fwd: &mut [f64],
    x_bwd: &mut [f64],
) {
    let cols = 2 * d + 3;
    debug_assert_eq!(x_fwd.len(), graph.num_edges() * cols);
    debug_assert_eq!(x_bwd.len(), graph.num_edges() * cols);
    for (ei, edge) in graph.edges.iter().enumerate() {
        let row_f = &mut x_fwd[ei * cols..(ei + 1) * cols];
        for k in 0..d {
            row_f[k] = h[edge.dst * d + k];
            row_f[d + k] = h[edge.src * d + k];
        }
        row_f[2 * d] = edge.delta[0];
        row_f[2 * d + 1] = edge.delta[1];
        row_f[2 * d + 2] = edge.dist;
        let row_b = &mut x_bwd[ei * cols..(ei + 1) * cols];
        for k in 0..d {
            row_b[k] = h[edge.dst * d + k];
            row_b[d + k] = h[edge.src * d + k];
        }
        row_b[2 * d] = -edge.delta[0];
        row_b[2 * d + 1] = -edge.delta[1];
        row_b[2 * d + 2] = edge.dist;
    }
}

/// Build the per-node input batch for the Ψ update MLP.
fn build_psi_input(
    input: &[f64],
    h: &[f64],
    msg_fwd: &[f64],
    msg_bwd: &[f64],
    d: usize,
) -> Vec<f64> {
    let n = input.len();
    let cols = 3 * d + 1;
    let mut x = vec![0.0; n * cols];
    build_psi_input_into(input, h, msg_fwd, msg_bwd, d, &mut x);
    x
}

/// Write the Ψ input batch into a preallocated buffer (fully overwritten).
fn build_psi_input_into(
    input: &[f64],
    h: &[f64],
    msg_fwd: &[f64],
    msg_bwd: &[f64],
    d: usize,
    x: &mut [f64],
) {
    let n = input.len();
    let cols = 3 * d + 1;
    debug_assert_eq!(x.len(), n * cols);
    for j in 0..n {
        let row = &mut x[j * cols..(j + 1) * cols];
        for k in 0..d {
            row[k] = h[j * d + k];
            row[d + 1 + k] = msg_fwd[j * d + k];
            row[2 * d + 1 + k] = msg_bwd[j * d + k];
        }
        row[d] = input[j];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshgen::Point2;
    use sparse::CooMatrix;

    /// A tiny local graph (5-node chain) for gradient checking.
    fn tiny_graph() -> LocalGraph {
        let n = 5;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        let positions: Vec<Point2> =
            (0..n).map(|i| Point2::new(i as f64 * 0.5, (i as f64 * 0.3).sin())).collect();
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 0.7 - 1.5).collect();
        let mut boundary = vec![false; n];
        boundary[0] = true;
        boundary[n - 1] = true;
        LocalGraph::new(coo.to_csr(), positions, &rhs, boundary)
    }

    #[test]
    fn weight_counts_match_paper_table_ii() {
        // (k̄, d) → number of weights reported by the paper.
        let expected = [
            (5, 5, 1755),
            (5, 10, 6255),
            (5, 20, 23505),
            (10, 5, 3510),
            (10, 10, 12510),
            (10, 20, 47010),
            (20, 5, 7020),
            (20, 10, 25020),
            (20, 20, 94020),
            (30, 10, 37530),
        ];
        for (kbar, d, weights) in expected {
            let model = DssModel::new(DssConfig::new(kbar, d), 0);
            assert_eq!(model.num_params(), weights, "weight count mismatch for k̄={kbar}, d={d}");
        }
    }

    #[test]
    fn inference_shape_and_determinism() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig::new(3, 4), 7);
        let out1 = model.infer(&graph);
        let out2 = model.infer(&graph);
        assert_eq!(out1.len(), graph.num_nodes());
        assert_eq!(out1, out2);
        // Different seeds give different outputs.
        let other = DssModel::new(DssConfig::new(3, 4), 8);
        assert_ne!(out1, other.infer(&graph));
    }

    #[test]
    fn flatten_roundtrip_preserves_behaviour() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig::new(2, 3), 3);
        let flat = model.flatten();
        assert_eq!(flat.len(), model.num_params());
        let mut copy = DssModel::new(DssConfig::new(2, 3), 99);
        copy.load_flat(&flat);
        assert_eq!(model.infer(&graph), copy.infer(&graph));
    }

    #[test]
    fn backward_gradient_matches_finite_differences() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 2, latent_dim: 3, alpha: 0.05 }, 11);
        let mut grad = model.zeros_like();
        let loss = model.backward(&graph, &mut grad);
        assert!(loss > 0.0);
        // Loss from backward matches loss() exactly.
        assert!((loss - model.loss(&graph)).abs() < 1e-12);

        let params = model.flatten();
        let analytic = grad.flatten();
        let eps = 1e-6;
        // Spot-check a spread of parameters (checking all ~600 would be slow).
        let num = params.len();
        let indices: Vec<usize> = (0..24).map(|i| i * num / 24).collect();
        for &i in &indices {
            let mut plus = params.clone();
            plus[i] += eps;
            let mut minus = params.clone();
            minus[i] -= eps;
            let mut mp = model.clone();
            mp.load_flat(&plus);
            let mut mm = model.clone();
            mm.load_flat(&minus);
            let numeric = (mp.loss(&graph) - mm.loss(&graph)) / (2.0 * eps);
            let diff = (numeric - analytic[i]).abs();
            let scale = numeric.abs().max(analytic[i].abs()).max(1e-3);
            assert!(
                diff / scale < 1e-3,
                "param {i}: numeric {numeric:e} vs analytic {:e}",
                analytic[i]
            );
        }
    }

    #[test]
    fn batched_inference_matches_sequential() {
        let graphs: Vec<LocalGraph> = (0..4).map(|_| tiny_graph()).collect();
        let model = DssModel::new(DssConfig::new(3, 4), 5);
        let batched = model.infer_batch(&graphs);
        for (g, out) in graphs.iter().zip(batched.iter()) {
            assert_eq!(out, &model.infer(g));
        }
    }

    #[test]
    fn gradient_step_decreases_loss() {
        // A small explicit gradient-descent step on one graph must reduce the
        // training loss — an end-to-end sanity check of the backward pass.
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 2, latent_dim: 4, alpha: 0.05 }, 21);
        let mut grad = model.zeros_like();
        let loss0 = model.backward(&graph, &mut grad);
        let params = model.flatten();
        let g = grad.flatten();
        let gnorm: f64 = g.iter().map(|v| v * v).sum::<f64>().sqrt();
        let step = 1e-2 / gnorm.max(1e-12);
        let updated: Vec<f64> = params.iter().zip(g.iter()).map(|(p, gi)| p - step * gi).collect();
        let mut better = model.clone();
        better.load_flat(&updated);
        let loss1 = better.loss(&graph);
        assert!(loss1 < loss0, "loss did not decrease: {loss0} -> {loss1}");
    }

    #[test]
    fn final_residual_loss_uses_last_decode() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig::new(2, 3), 1);
        let out = model.infer(&graph);
        let manual = crate::loss::residual_loss(&graph.matrix, &graph.input, &out);
        assert!((model.final_residual_loss(&graph) - manual).abs() < 1e-15);
    }

    #[test]
    fn infer_with_input_matches_stored_input_and_reacts_to_changes() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 8, alpha: 1e-2 }, 7);
        let stored = model.infer(&graph);
        assert!(
            stored.iter().any(|&v| v != 0.0),
            "untrained output should not be identically zero"
        );
        let same = model.infer_with_input(&graph, &graph.input.clone());
        assert_eq!(stored, same);
        let different_input: Vec<f64> = graph.input.iter().map(|c| c * -0.5 + 0.1).collect();
        let different = model.infer_with_input(&graph, &different_input);
        assert_ne!(stored, different);
    }

    #[test]
    fn infer_into_matches_infer_bit_for_bit_with_scratch_reuse() {
        let model = DssModel::new(DssConfig { num_blocks: 4, latent_dim: 6, alpha: 1e-2 }, 13);
        let mut scratch = InferScratch::new();
        // Same scratch across repeated calls and different inputs.
        let graph = tiny_graph();
        let mut out = vec![0.0; graph.num_nodes()];
        for scale in [1.0, -0.5, 0.25] {
            let input: Vec<f64> = graph.input.iter().map(|c| c * scale + 0.1).collect();
            let expected = model.infer_with_input(&graph, &input);
            model.infer_with_input_into(&graph, &input, &mut scratch, &mut out);
            assert_eq!(out, expected, "scale {scale}");
        }
    }

    #[test]
    fn planned_inference_matches_reference_closely() {
        // The plan path reassociates the first-layer sums, so it is not
        // bit-identical to the reference — but it must stay within a few ulps
        // (the proptest suite enforces 1e-12 relative on random graphs too).
        let graph = tiny_graph();
        for seed in [7u64, 8, 9] {
            let model =
                DssModel::new(DssConfig { num_blocks: 4, latent_dim: 6, alpha: 1e-2 }, seed);
            let reference = model.infer_reference(&graph, &graph.input);
            let optimised = model.infer(&graph);
            let ref_norm = reference.iter().map(|v| v * v).sum::<f64>().sqrt();
            for (a, b) in optimised.iter().zip(reference.iter()) {
                assert!(
                    (a - b).abs() <= 1e-12 * ref_norm.max(1.0),
                    "seed {seed}: optimised {a} vs reference {b}"
                );
            }
        }
    }

    #[test]
    fn prebuilt_plan_matches_throwaway_plan_bit_for_bit() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 5, alpha: 1e-2 }, 17);
        let plan = model.build_plan(&graph);
        assert_eq!(plan.num_nodes(), graph.num_nodes());
        assert_eq!(plan.num_edges(), graph.num_edges());
        assert!(plan.memory_bytes() > 0);
        let mut scratch = InferScratch::new();
        let mut out = vec![0.0; graph.num_nodes()];
        for scale in [1.0, -0.3, 0.8] {
            let input: Vec<f64> = graph.input.iter().map(|c| c * scale + 0.05).collect();
            model.infer_with_plan_into(&plan, &input, &mut scratch, &mut out);
            let expected = model.infer_with_input(&graph, &input);
            assert_eq!(out, expected, "scale {scale}");
        }
    }

    #[test]
    fn f32_plan_tracks_f64_plan_closely_and_is_deterministic() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 4, latent_dim: 6, alpha: 1e-2 }, 17);
        let plan64 = model.build_plan(&graph);
        let plan32 = model.build_plan_f32(&graph);
        assert_eq!(plan32.num_nodes(), graph.num_nodes());
        assert_eq!(plan32.num_edges(), graph.num_edges());
        assert!(plan32.memory_bytes() > 0);
        assert!(
            plan32.memory_bytes() < plan64.memory_bytes(),
            "f32 plan must be smaller than the f64 plan"
        );
        let mut s64 = InferScratch::new();
        let mut s32 = crate::plan::InferScratchF32::new();
        let mut out64 = vec![0.0; graph.num_nodes()];
        let mut out32 = vec![0.0; graph.num_nodes()];
        let mut out32_again = vec![0.0; graph.num_nodes()];
        for scale in [1.0, -0.4, 0.7] {
            let input: Vec<f64> = graph.input.iter().map(|c| c * scale + 0.05).collect();
            model.infer_with_plan_into(&plan64, &input, &mut s64, &mut out64);
            model.infer_with_plan_f32_into(&plan32, &input, &mut s32, &mut out32);
            model.infer_with_plan_f32_into(&plan32, &input, &mut s32, &mut out32_again);
            assert_eq!(out32, out32_again, "f32 inference must be deterministic");
            let norm = out64.iter().map(|v| v * v).sum::<f64>().sqrt().max(1.0);
            for (a, b) in out32.iter().zip(out64.iter()) {
                assert!((a - b).abs() <= 1e-4 * norm, "scale {scale}: f32 {a} vs f64 {b}");
            }
        }
    }

    #[test]
    fn f32_timed_inference_is_identical_and_counts_calls() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 5, alpha: 1e-2 }, 29);
        let plan = model.build_plan_f32(&graph);
        let mut scratch = crate::plan::InferScratchF32::new();
        let mut out = vec![0.0; graph.num_nodes()];
        let mut timed_out = vec![0.0; graph.num_nodes()];
        let mut timings = crate::plan::InferenceTimings::default();
        model.infer_with_plan_f32_into(&plan, &graph.input, &mut scratch, &mut out);
        model.infer_with_plan_f32_batched_timed(
            &plan,
            &graph.input,
            1,
            &mut scratch,
            &mut timed_out,
            &mut timings,
        );
        assert_eq!(out, timed_out);
        assert_eq!(timings.calls, 1);
    }

    #[test]
    fn timed_inference_is_bit_identical_and_counts_calls() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 4, alpha: 1e-2 }, 23);
        let plan = model.build_plan(&graph);
        let mut scratch = InferScratch::new();
        let mut out = vec![0.0; graph.num_nodes()];
        let mut timed_out = vec![0.0; graph.num_nodes()];
        let mut timings = crate::plan::InferenceTimings::default();
        model.infer_with_plan_into(&plan, &graph.input, &mut scratch, &mut out);
        model.infer_with_plan_batched_timed(
            &plan,
            &graph.input,
            1,
            &mut scratch,
            &mut timed_out,
            &mut timings,
        );
        assert_eq!(out, timed_out);
        assert_eq!(timings.calls, 1);
        let mut merged = timings;
        merged.merge(&timings);
        assert_eq!(merged.calls, 2);
        assert_eq!(merged.total_ns(), 2 * timings.total_ns());
        assert_eq!(timings.stages().len(), 4);
    }

    #[test]
    fn batched_plan_inference_is_bit_identical_per_column() {
        // Column c of an n×b batched apply must match the unbatched apply of
        // that column alone bit-for-bit, for every engine and batch width.
        let graph = tiny_graph();
        let n = graph.num_nodes();
        let model = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 5, alpha: 1e-2 }, 41);
        let plan64 = model.build_plan(&graph);
        let plan32 = model.build_plan_f32(&graph);
        let planq = model.build_plan_q(&graph);
        let mut s64 = InferScratch::new();
        let mut s32 = crate::plan::InferScratchF32::new();
        let mut sq = crate::plan::InferScratchQ::new();
        for b in [1usize, 2, 3, 5, 8] {
            // Column-interleaved panel with b distinct inputs.
            let mut panel = vec![0.0; n * b];
            let mut columns = Vec::new();
            for c in 0..b {
                let scale = 1.0 - 0.37 * c as f64;
                let col: Vec<f64> =
                    graph.input.iter().map(|v| v * scale + 0.03 * c as f64).collect();
                for j in 0..n {
                    panel[j * b + c] = col[j];
                }
                columns.push(col);
            }
            let mut out_panel = vec![0.0; n * b];
            let mut timed_panel = vec![0.0; n * b];
            let mut expected = vec![0.0; n];
            let mut timings = crate::plan::InferenceTimings::default();

            model.infer_with_plan_batched_into(&plan64, &panel, b, &mut s64, &mut out_panel);
            model.infer_with_plan_batched_timed(
                &plan64,
                &panel,
                b,
                &mut s64,
                &mut timed_panel,
                &mut timings,
            );
            assert_eq!(out_panel, timed_panel, "b={b}: timed f64 batched path diverged");
            assert_eq!(timings.calls, 1);
            for (c, col) in columns.iter().enumerate() {
                model.infer_with_plan_into(&plan64, col, &mut s64, &mut expected);
                for j in 0..n {
                    assert_eq!(
                        out_panel[j * b + c].to_bits(),
                        expected[j].to_bits(),
                        "b={b} c={c} j={j}: f64 batched column diverged"
                    );
                }
            }

            model.infer_with_plan_f32_batched_into(&plan32, &panel, b, &mut s32, &mut out_panel);
            for (c, col) in columns.iter().enumerate() {
                model.infer_with_plan_f32_into(&plan32, col, &mut s32, &mut expected);
                for j in 0..n {
                    assert_eq!(
                        out_panel[j * b + c].to_bits(),
                        expected[j].to_bits(),
                        "b={b} c={c} j={j}: f32 batched column diverged"
                    );
                }
            }

            model.infer_with_plan_q_batched_into(&planq, &panel, b, &mut sq, &mut out_panel);
            for (c, col) in columns.iter().enumerate() {
                model.infer_with_plan_q_into(&planq, col, &mut sq, &mut expected);
                for j in 0..n {
                    assert_eq!(
                        out_panel[j * b + c].to_bits(),
                        expected[j].to_bits(),
                        "b={b} c={c} j={j}: int8 batched column diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn quantised_plan_tracks_f64_plan_closely_and_is_deterministic() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 4, latent_dim: 6, alpha: 1e-2 }, 17);
        let plan64 = model.build_plan(&graph);
        let plan32 = model.build_plan_f32(&graph);
        let planq = model.build_plan_q(&graph);
        assert_eq!(planq.num_nodes(), graph.num_nodes());
        assert_eq!(planq.num_edges(), graph.num_edges());
        assert!(planq.memory_bytes() > 0);
        assert!(
            planq.memory_bytes() < plan32.memory_bytes(),
            "quantised plan must be smaller than the f32 plan: {} vs {}",
            planq.memory_bytes(),
            plan32.memory_bytes()
        );
        let mut s64 = InferScratch::new();
        let mut sq = crate::plan::InferScratchQ::new();
        let mut out64 = vec![0.0; graph.num_nodes()];
        let mut outq = vec![0.0; graph.num_nodes()];
        let mut outq_again = vec![0.0; graph.num_nodes()];
        for scale in [1.0, -0.4, 0.7] {
            let input: Vec<f64> = graph.input.iter().map(|c| c * scale + 0.05).collect();
            model.infer_with_plan_into(&plan64, &input, &mut s64, &mut out64);
            model.infer_with_plan_q_into(&planq, &input, &mut sq, &mut outq);
            model.infer_with_plan_q_into(&planq, &input, &mut sq, &mut outq_again);
            assert_eq!(outq, outq_again, "quantised inference must be deterministic");
            let norm = out64.iter().map(|v| v * v).sum::<f64>().sqrt().max(1.0);
            for (a, b) in outq.iter().zip(out64.iter()) {
                assert!((a - b).abs() <= 1e-2 * norm, "scale {scale}: int8 {a} vs f64 {b}");
            }
        }
    }

    #[test]
    fn quantised_timed_inference_is_identical_and_counts_calls() {
        let graph = tiny_graph();
        let model = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 5, alpha: 1e-2 }, 29);
        let plan = model.build_plan_q(&graph);
        let mut scratch = crate::plan::InferScratchQ::new();
        let mut out = vec![0.0; graph.num_nodes()];
        let mut timed_out = vec![0.0; graph.num_nodes()];
        let mut timings = crate::plan::InferenceTimings::default();
        model.infer_with_plan_q_into(&plan, &graph.input, &mut scratch, &mut out);
        model.infer_with_plan_q_batched_timed(
            &plan,
            &graph.input,
            1,
            &mut scratch,
            &mut timed_out,
            &mut timings,
        );
        assert_eq!(out, timed_out);
        assert_eq!(timings.calls, 1);
    }

    #[test]
    fn infer_batch_recycles_the_retained_pool_across_calls() {
        // The bug this pins down: `infer_batch` used to construct a fresh
        // `ScratchPool` per call, so no buffer ever survived between calls.
        let graphs: Vec<LocalGraph> = (0..5).map(|_| tiny_graph()).collect();
        let model = DssModel::new(DssConfig::new(3, 4), 5);
        assert_eq!(model.batch_pools().f64_pool.idle(), 0);
        let first = model.infer_batch(&graphs);
        let idle = model.batch_pools().f64_pool.idle();
        assert!(idle >= 1, "the retained pool must keep released buffers");
        let second = model.infer_batch(&graphs);
        // Idle buffers persist across calls; later calls may add a few when
        // the scheduler reaches a higher concurrent-borrow peak, but never
        // more than one per batch item (the concurrency ceiling here).
        let idle_after = model.batch_pools().f64_pool.idle();
        assert!(
            (idle..=graphs.len()).contains(&idle_after),
            "buffers must be recycled, not rebuilt from scratch: {idle} -> {idle_after}"
        );
        assert_eq!(first, second);
        // Clones share the pools, so a clone's batches reuse the same buffers.
        let clone = model.clone();
        clone.infer_batch(&graphs);
        assert!(clone.batch_pools().f64_pool.idle() >= idle);
        // Releasing the retained buffers is the caller's explicit choice.
        model.batch_pools().clear();
        assert_eq!(model.batch_pools().f64_pool.idle(), 0);
        assert_eq!(clone.batch_pools().f64_pool.idle(), 0, "clones share the cleared pools");
    }

    #[test]
    fn infer_batch_f32_matches_per_graph_f32_plan_and_recycles() {
        let graphs: Vec<LocalGraph> = (0..4).map(|_| tiny_graph()).collect();
        let model = DssModel::new(DssConfig::new(3, 4), 5);
        let batched = model.infer_batch_f32(&graphs);
        let idle = model.batch_pools().f32_pool.idle();
        assert!(idle >= 1);
        for (g, out) in graphs.iter().zip(batched.iter()) {
            let plan = model.build_plan_f32(g);
            let mut scratch = crate::plan::InferScratchF32::new();
            let mut expected = vec![0.0; g.num_nodes()];
            model.infer_with_plan_f32_into(&plan, &g.input, &mut scratch, &mut expected);
            assert_eq!(out, &expected);
        }
        let again = model.infer_batch_f32(&graphs);
        let idle_after = model.batch_pools().f32_pool.idle();
        assert!(
            (idle..=graphs.len()).contains(&idle_after),
            "f32 buffers must be recycled: {idle} -> {idle_after}"
        );
        assert_eq!(batched, again);
    }

    #[test]
    fn batch_pool_is_reused_and_does_not_change_results() {
        let graphs: Vec<LocalGraph> = (0..6).map(|_| tiny_graph()).collect();
        let model = DssModel::new(DssConfig::new(3, 4), 5);
        let pool = crate::plan::ScratchPool::new();
        let first = model.infer_batch_with_pool(&graphs, &pool);
        let idle_after_first = pool.idle();
        assert!(idle_after_first >= 1, "pool must retain released scratch buffers");
        let second = model.infer_batch_with_pool(&graphs, &pool);
        assert_eq!(pool.idle(), idle_after_first, "steady state: no new buffers");
        assert_eq!(first, second);
        for (g, out) in graphs.iter().zip(first.iter()) {
            assert_eq!(out, &model.infer(g));
        }
    }

    #[test]
    fn add_scaled_accumulates() {
        let model = DssModel::new(DssConfig::new(2, 3), 1);
        let mut acc = model.zeros_like();
        acc.add_scaled(2.0, &model);
        let a = acc.flatten();
        let m = model.flatten();
        for (ai, mi) in a.iter().zip(m.iter()) {
            assert!((ai - 2.0 * mi).abs() < 1e-15);
        }
    }
}
