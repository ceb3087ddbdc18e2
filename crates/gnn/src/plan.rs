//! Per-graph inference plans: split first-layer weights and precomputed
//! static-feature terms.
//!
//! The DSS forward pass feeds every message MLP an edge-level batch of
//! `e × (2d + 3)` rows `[h_dst | h_src | d_jl | ‖d_jl‖]`.  The first layer is
//! affine, so its pre-activation splits along those column groups:
//!
//! ```text
//! W₁ x_e + b₁ = W_dst h_dst(e) + W_src h_src(e) + (W_geo g_e + b₁)
//! ```
//!
//! The two `h`-dependent parts are **node-level** products `H W_dstᵀ` and
//! `H W_srcᵀ` (`n × d` GEMMs) gathered per edge — an ~8× flop cut versus the
//! `e × (2d + 3)` edge-level GEMM at the mesh's typical `e ≈ 7n` — while the
//! geometric part `W_geo g_e + b₁` does not depend on the latent state *or*
//! the right-hand side at all: it is fixed for the lifetime of a sub-domain
//! graph and is precomputed here, per block and per message direction, when
//! the plan is built (once per solve, at preconditioner setup).  The Ψ update
//! splits the same way: its `W_c c` input column is constant across all
//! blocks of one apply and is folded together with the bias into the
//! pre-activation's initial value.
//!
//! A plan is tied to the exact (model, graph) pair it was built from; the
//! edge structure is copied in destination-sorted order (see
//! [`LocalGraph::edge_ptr`]), so message aggregation in the planned forward
//! pass is a contiguous per-node gather.
//!
//! Each precision has **one** forward pass, over a column-interleaved panel
//! of `b` right-hand sides (`input[j*b + c]` is column `c` at node `j`):
//! every plan stream is read once per batch.  A single right-hand side is
//! that pass at `b = 1`, where the panel is the plain vector and the GEMMs,
//! edge sweep and Ψ initialisation take their row-major kernels.

use std::time::Instant;

use sanitizer::TrackedMutex;

use crate::gemm;
use crate::graph::LocalGraph;
use crate::layers::Linear;
use crate::model::{Block, DssModel, InferScratch};

/// Scalar precision of the inference engine.
///
/// The preconditioner output only feeds a *flexible* outer Krylov method, so
/// reduced inference precision cannot break convergence — it merely perturbs
/// the preconditioner slightly (the observation that lets graph neural
/// preconditioners run inference in low precision).  `F64` is the default
/// and remains the correctness anchor; `F32` trades ~1e-6 relative output
/// error for SIMD width and halved memory traffic on the hot path; `Int8`
/// additionally quantises the weights to int8 (per-output f32 scales) and the
/// large static streams to bf16, trading ~1e-3 relative output error for
/// roughly half the f32 plan's memory footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Double-precision inference (bit-reproducible engine, the default).
    #[default]
    F64,
    /// Single-precision inference with explicit 8-lane SIMD kernels.
    F32,
    /// Quantised inference: int8 weights with per-output f32 scales, bf16
    /// static edge terms and hidden sums, f32 accumulators throughout.
    Int8,
}

impl Precision {
    /// Lower-case name used in benchmark reports and env configuration.
    pub fn as_str(&self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "f64" | "double" => Ok(Precision::F64),
            "f32" | "single" => Ok(Precision::F32),
            "int8" | "i8" | "quantised" | "quantized" => Ok(Precision::Int8),
            other => Err(format!("unknown precision '{other}' (expected f64, f32 or int8)")),
        }
    }
}

/// Split weights and precomputed static terms of one message-passing block.
///
/// Beyond the first-layer split, the plan exploits that the message MLPs'
/// *second* layer is linear too: summing the per-edge messages and then
/// multiplying by `Ψ`'s message columns equals multiplying the per-node sum
/// of ReLU'd hidden activations by the composed matrix `W_Ψ,msg W₂` — so the
/// planned forward pass never materialises a per-edge message at all.  The
/// message biases contribute `deg(j) · W_Ψ,msg b₂` per node, a per-graph
/// constant folded into [`PlanBlock::psi_static`].
pub(crate) struct PlanBlock {
    /// `Φ→` first-layer columns acting on `h_dst` (`d × d`, row-major).
    pub w_dst_fwd: Vec<f64>,
    /// `Φ→` first-layer columns acting on `h_src`.
    pub w_src_fwd: Vec<f64>,
    /// `Φ→` static term `W_geo g_e + b₁` per destination-sorted edge (`e × d`).
    pub geo_fwd: Vec<f64>,
    /// `Φ←` split, with the relative position negated in the static term.
    pub w_dst_bwd: Vec<f64>,
    pub w_src_bwd: Vec<f64>,
    pub geo_bwd: Vec<f64>,
    /// `Ψ` first-layer columns acting on `h` (`d × d`).
    pub psi_w_h: Vec<f64>,
    /// `Ψ` first-layer column acting on the node input `c` (length `d`).
    pub psi_w_c: Vec<f64>,
    /// Composed matrix `W_Ψ,→ W₂→` applied to the aggregated forward hidden
    /// activations (`d × d`).
    pub psi_m_fwd: Vec<f64>,
    /// Composed matrix `W_Ψ,← W₂←` for the backward direction.
    pub psi_m_bwd: Vec<f64>,
    /// Per-node static `Ψ` pre-activation
    /// `b_Ψ + deg(j) · (W_Ψ,→ b₂→ + W_Ψ,← b₂←)` (`n × d`).
    pub psi_static: Vec<f64>,
}

/// Extract the column block `[col0, col0 + cols)` of a row-major layer weight
/// as its own row-major `out_dim × cols` matrix.
fn column_block(layer: &Linear, col0: usize, cols: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(layer.out_dim * cols);
    for o in 0..layer.out_dim {
        let row = &layer.weight[o * layer.in_dim..(o + 1) * layer.in_dim];
        out.extend_from_slice(&row[col0..col0 + cols]);
    }
    out
}

/// Precompute `W_geo g_e + b₁` for every destination-sorted edge.  `sign`
/// flips the relative position for the backward message direction.
fn geo_terms(layer: &Linear, graph: &LocalGraph, d: usize, sign: f64) -> Vec<f64> {
    let cols = layer.in_dim;
    debug_assert_eq!(cols, 2 * d + 3);
    let mut out = Vec::with_capacity(graph.num_edges() * d);
    for &ei in &graph.edge_order {
        let edge = &graph.edges[ei];
        for o in 0..d {
            let w = &layer.weight[o * cols + 2 * d..o * cols + 2 * d + 3];
            out.push(
                layer.bias[o]
                    + w[0] * (sign * edge.delta[0])
                    + w[1] * (sign * edge.delta[1])
                    + w[2] * edge.dist,
            );
        }
    }
    out
}

/// Row-major product `A B` of two `d × d` matrices.
fn matmul_dd(a: &[f64], b: &[f64], d: usize) -> Vec<f64> {
    let mut out = vec![0.0; d * d];
    for p in 0..d {
        for o in 0..d {
            let apo = a[p * d + o];
            if apo == 0.0 {
                continue;
            }
            let brow = &b[o * d..(o + 1) * d];
            let orow = &mut out[p * d..(p + 1) * d];
            for t in 0..d {
                orow[t] += apo * brow[t];
            }
        }
    }
    out
}

/// `A v` for a row-major `d × d` matrix.
fn matvec_dd(a: &[f64], v: &[f64], d: usize) -> Vec<f64> {
    (0..d).map(|p| a[p * d..(p + 1) * d].iter().zip(v).map(|(x, y)| x * y).sum()).collect()
}

impl PlanBlock {
    fn new(block: &Block, graph: &LocalGraph, d: usize) -> Self {
        let psi = &block.psi.l1;
        debug_assert_eq!(psi.in_dim, 3 * d + 1);
        let psi_w_fwd = column_block(psi, d + 1, d);
        let psi_w_bwd = column_block(psi, 2 * d + 1, d);
        // Per-node static Ψ pre-activation: bias plus the message-bias
        // contribution, which scales with the node degree.
        let q_fwd = matvec_dd(&psi_w_fwd, &block.phi_fwd.l2.bias, d);
        let q_bwd = matvec_dd(&psi_w_bwd, &block.phi_bwd.l2.bias, d);
        let n = graph.num_nodes();
        let mut psi_static = vec![0.0; n * d];
        for j in 0..n {
            let deg = (graph.edge_ptr[j + 1] - graph.edge_ptr[j]) as f64;
            let row = &mut psi_static[j * d..(j + 1) * d];
            for k in 0..d {
                row[k] = psi.bias[k] + deg * (q_fwd[k] + q_bwd[k]);
            }
        }
        PlanBlock {
            w_dst_fwd: column_block(&block.phi_fwd.l1, 0, d),
            w_src_fwd: column_block(&block.phi_fwd.l1, d, d),
            geo_fwd: geo_terms(&block.phi_fwd.l1, graph, d, 1.0),
            w_dst_bwd: column_block(&block.phi_bwd.l1, 0, d),
            w_src_bwd: column_block(&block.phi_bwd.l1, d, d),
            geo_bwd: geo_terms(&block.phi_bwd.l1, graph, d, -1.0),
            psi_w_h: column_block(psi, 0, d),
            psi_w_c: column_block(psi, d, 1),
            psi_m_fwd: matmul_dd(&psi_w_fwd, &block.phi_fwd.l2.weight, d),
            psi_m_bwd: matmul_dd(&psi_w_bwd, &block.phi_bwd.l2.weight, d),
            psi_static,
        }
    }
}

/// A per-graph inference plan: the setup half of the setup/apply split.
///
/// Build once per sub-domain graph (e.g. at preconditioner construction) via
/// [`DssModel::build_plan`], then run [`DssModel::infer_with_plan_into`] any
/// number of times with changing node inputs.  The plan snapshots the model's
/// first-layer weights, so it must be rebuilt if the model is retrained.
pub struct InferencePlan {
    pub(crate) num_nodes: usize,
    pub(crate) num_edges: usize,
    pub(crate) latent_dim: usize,
    pub(crate) num_blocks: usize,
    /// Source node of every destination-sorted edge.
    pub(crate) edge_src: Vec<usize>,
    /// Destination offsets into the sorted edge list (`n + 1` entries).
    pub(crate) edge_ptr: Vec<usize>,
    pub(crate) blocks: Vec<PlanBlock>,
}

impl InferencePlan {
    /// Build a plan for `model` on `graph`.
    pub fn new(model: &DssModel, graph: &LocalGraph) -> Self {
        let d = model.config().latent_dim;
        let n = graph.num_nodes();
        let e = graph.num_edges();
        assert_eq!(graph.edge_ptr.len(), n + 1, "stale incidence: run rebuild_incidence");
        assert_eq!(graph.edge_order.len(), e, "stale incidence: run rebuild_incidence");
        let edge_src: Vec<usize> = graph.edge_order.iter().map(|&ei| graph.edges[ei].src).collect();
        let blocks = model.blocks().iter().map(|b| PlanBlock::new(b, graph, d)).collect();
        InferencePlan {
            num_nodes: n,
            num_edges: e,
            latent_dim: d,
            num_blocks: model.config().num_blocks,
            edge_src,
            edge_ptr: graph.edge_ptr.clone(),
            blocks,
        }
    }

    /// Number of nodes of the graph this plan was built for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges of the graph this plan was built for.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Heap footprint of the precomputed data in bytes (dominated by the
    /// per-block static edge terms, `2 k̄ e d` doubles).
    pub fn memory_bytes(&self) -> usize {
        let d = self.latent_dim;
        let per_block = std::mem::size_of::<f64>()
            * (2 * self.num_edges * d + 7 * d * d + d + self.num_nodes * d);
        self.blocks.len() * per_block
            + std::mem::size_of::<usize>() * (self.edge_src.len() + self.edge_ptr.len())
    }
}

/// Cast a slice of doubles to single precision.
fn cast_f32(v: &[f64]) -> Vec<f32> {
    v.iter().map(|&x| x as f32).collect()
}

/// Transpose a row-major `out_dim × in_dim` matrix into the f32 kernels'
/// `in_dim × out_dim` layout (one contiguous row of output weights per input
/// feature), casting to single precision.
fn transpose_cast_f32(w: &[f64], out_dim: usize, in_dim: usize) -> Vec<f32> {
    debug_assert_eq!(w.len(), out_dim * in_dim);
    let mut wt = vec![0.0f32; in_dim * out_dim];
    for o in 0..out_dim {
        for i in 0..in_dim {
            wt[i * out_dim + o] = w[o * in_dim + i] as f32;
        }
    }
    wt
}

/// Single-precision counterpart of [`PlanBlock`].
///
/// All matrices consumed by the f32 GEMM kernels are stored transposed
/// (`in × out`); everything is derived from the f64 [`PlanBlock`] — the
/// splits and compositions are computed in double precision and rounded
/// once, so the f32 plan carries no extra composition error.  Unlike the
/// f64 plan, the f32 plan also snapshots Ψ's second layer: the f32 forward
/// pass never reads the model at all.
///
/// On top of the f64 plan's splits, the f32 layout **fuses the two message
/// directions**: the `Φ→`/`Φ←` weight splits, static edge terms and per-node
/// hidden sums are concatenated column-wise (`[fwd | bwd]`, row width `2d`).
/// One node GEMM then produces both directions' terms, one edge sweep
/// aggregates both (halving the per-edge index overhead and running the
/// SIMD lanes over `2d` contiguous floats), and the two composed Ψ message
/// GEMMs collapse into a single `2d × d` product whose ascending-input
/// accumulation order equals the sequential fwd-then-bwd pair.
struct PlanBlockF32 {
    /// `[W_dst,→ | W_dst,←]` transposed: `d × 2d`.
    w_dst_cat_t: Vec<f32>,
    /// `[W_src,→ | W_src,←]` transposed: `d × 2d`.
    w_src_cat_t: Vec<f32>,
    /// `[geo→ | geo←]` per destination-sorted edge: `e × 2d`.
    geo_cat: Vec<f32>,
    /// `Ψ` first-layer columns acting on `h`, transposed: `d × d`.
    psi_w_h_t: Vec<f32>,
    /// `Ψ` first-layer column acting on the node input `c` (length `d`).
    psi_w_c: Vec<f32>,
    /// `[W_Ψ,→ W₂→ ; W_Ψ,← W₂←]` transposed: `2d × d`.
    psi_m_cat_t: Vec<f32>,
    /// Per-node static `Ψ` pre-activation (`n × d`).
    psi_static: Vec<f32>,
    /// Ψ second layer, transposed weight + bias.
    psi_l2_wt: Vec<f32>,
    psi_l2_b: Vec<f32>,
}

/// Concatenate two row-major `d × d` matrices column-wise and transpose the
/// pair into the f32 kernels' `in × out` layout: row `i` holds
/// `[a[·][i] | b[·][i]]`, `2d` outputs wide.
fn cat_transpose_cast_f32(a: &[f64], b: &[f64], d: usize) -> Vec<f32> {
    debug_assert_eq!(a.len(), d * d);
    debug_assert_eq!(b.len(), d * d);
    let mut wt = vec![0.0f32; d * 2 * d];
    for o in 0..d {
        for i in 0..d {
            wt[i * 2 * d + o] = a[o * d + i] as f32;
            wt[i * 2 * d + d + o] = b[o * d + i] as f32;
        }
    }
    wt
}

impl PlanBlockF32 {
    fn new(block: &Block, graph: &LocalGraph, d: usize) -> Self {
        let pb = PlanBlock::new(block, graph, d);
        let e = graph.num_edges();
        let mut geo_cat = vec![0.0f32; e * 2 * d];
        for slot in 0..e {
            for k in 0..d {
                geo_cat[slot * 2 * d + k] = pb.geo_fwd[slot * d + k] as f32;
                geo_cat[slot * 2 * d + d + k] = pb.geo_bwd[slot * d + k] as f32;
            }
        }
        // The composed message matrices stack as GEMM *inputs*: input row i
        // of the transposed layout is the i-th forward hidden dimension for
        // i < d and the (i-d)-th backward one otherwise.
        let mut psi_m_cat_t = vec![0.0f32; 2 * d * d];
        for i in 0..d {
            for o in 0..d {
                psi_m_cat_t[i * d + o] = pb.psi_m_fwd[o * d + i] as f32;
                psi_m_cat_t[(d + i) * d + o] = pb.psi_m_bwd[o * d + i] as f32;
            }
        }
        PlanBlockF32 {
            w_dst_cat_t: cat_transpose_cast_f32(&pb.w_dst_fwd, &pb.w_dst_bwd, d),
            w_src_cat_t: cat_transpose_cast_f32(&pb.w_src_fwd, &pb.w_src_bwd, d),
            geo_cat,
            psi_w_h_t: transpose_cast_f32(&pb.psi_w_h, d, d),
            psi_w_c: cast_f32(&pb.psi_w_c),
            psi_m_cat_t,
            psi_static: cast_f32(&pb.psi_static),
            psi_l2_wt: block.psi.l2.weight_t_f32(),
            psi_l2_b: block.psi.l2.bias_f32(),
        }
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<f32>()
            * (self.w_dst_cat_t.len()
                + self.w_src_cat_t.len()
                + self.geo_cat.len()
                + self.psi_w_h_t.len()
                + self.psi_w_c.len()
                + self.psi_m_cat_t.len()
                + self.psi_static.len()
                + self.psi_l2_wt.len()
                + self.psi_l2_b.len())
    }
}

/// Final-block decoder in single precision.
struct DecoderF32 {
    l1_wt: Vec<f32>,
    l1_b: Vec<f32>,
    /// Second-layer weight row (`out_dim = 1`).
    l2_w: Vec<f32>,
    l2_b: f32,
}

/// Reusable buffers for the f32 inference path ([`InferencePlanF32`]).
///
/// Mirrors [`InferScratch`]: create once, pass to every call; buffers are
/// sized lazily and reused.  Contents are fully overwritten per inference.
/// Buffers are column-interleaved panels of `b` right-hand sides; the
/// direction-fused ones (`a_dst`, `a_src`, `hsum`) are `n × 2d × b`.
#[derive(Debug, Default)]
pub struct InferScratchF32 {
    input: Vec<f32>,
    h: Vec<f32>,
    a_dst: Vec<f32>,
    a_src: Vec<f32>,
    hsum: Vec<f32>,
    psi_hidden: Vec<f32>,
    update: Vec<f32>,
    hidden: Vec<f32>,
}

impl InferScratchF32 {
    /// Empty scratch; buffers are allocated on first use.
    pub fn new() -> Self {
        InferScratchF32::default()
    }
}

/// `acc[k] += max(g[k] + adj[k] + asj[k], 0)` — the fused edge sweep body.
/// Equal-length slices let LLVM fold the four bounds checks and vectorise
/// the whole row.
#[inline(always)]
fn relu_sum3_acc_f32(acc: &mut [f32], g: &[f32], adj: &[f32], asj: &[f32]) {
    let d = acc.len();
    let (g, adj, asj) = (&g[..d], &adj[..d], &asj[..d]);
    for k in 0..d {
        acc[k] += (g[k] + adj[k] + asj[k]).max(0.0);
    }
}

/// Batched fused edge-sweep body: `acc`, `adj` and `asj` are `2d × b`
/// column-interleaved panels, `g` the shared `2d` static row — loaded once
/// per edge and broadcast over the `b` right-hand sides.  Per column the
/// operation sequence equals [`relu_sum3_acc_f32`] exactly; at `b = 1` the
/// panels are plain rows and that contiguous body runs directly.
#[inline(always)]
fn relu_sum3_acc_f32_b(acc: &mut [f32], g: &[f32], adj: &[f32], asj: &[f32], b: usize) {
    if b == 1 {
        return relu_sum3_acc_f32(acc, g, adj, asj);
    }
    let db = acc.len();
    let (adj, asj) = (&adj[..db], &asj[..db]);
    for (k, &gk) in g.iter().enumerate() {
        let ak = &mut acc[k * b..(k + 1) * b];
        let adjk = &adj[k * b..(k + 1) * b];
        let asjk = &asj[k * b..(k + 1) * b];
        for c in 0..b {
            ak[c] += (gk + adjk[c] + asjk[c]).max(0.0);
        }
    }
}

/// A per-graph single-precision inference plan: the f32 sibling of
/// [`InferencePlan`].
///
/// Built once per sub-domain graph via [`DssModel::build_plan_f32`]; the
/// forward pass ([`InferencePlanF32::infer_into`]) runs entirely in f32 —
/// the caller's residual is converted on entry and the decoded output is
/// widened back to f64 on exit, so the surrounding solver stays in double
/// precision.  The plan snapshots *all* weights it needs (including Ψ's
/// second layer and the final decoder), making the apply independent of the
/// model object.
pub struct InferencePlanF32 {
    pub(crate) num_nodes: usize,
    pub(crate) num_edges: usize,
    pub(crate) latent_dim: usize,
    pub(crate) num_blocks: usize,
    alpha: f32,
    /// Source node of every destination-sorted edge (u32: sub-domain graphs
    /// are far below 2³² nodes, and the narrower index halves gather
    /// traffic).
    edge_src: Vec<u32>,
    /// Destination offsets into the sorted edge list (`n + 1` entries).
    edge_ptr: Vec<usize>,
    blocks: Vec<PlanBlockF32>,
    decoder: Option<DecoderF32>,
}

impl InferencePlanF32 {
    /// Build an f32 plan for `model` on `graph`.
    pub fn new(model: &DssModel, graph: &LocalGraph) -> Self {
        let config = model.config();
        let d = config.latent_dim;
        let n = graph.num_nodes();
        let e = graph.num_edges();
        assert_eq!(graph.edge_ptr.len(), n + 1, "stale incidence: run rebuild_incidence");
        assert_eq!(graph.edge_order.len(), e, "stale incidence: run rebuild_incidence");
        let edge_src: Vec<u32> =
            graph.edge_order.iter().map(|&ei| graph.edges[ei].src as u32).collect();
        let blocks: Vec<PlanBlockF32> =
            model.blocks().iter().map(|b| PlanBlockF32::new(b, graph, d)).collect();
        let decoder = model.blocks().last().map(|b| DecoderF32 {
            l1_wt: b.decoder.l1.weight_t_f32(),
            l1_b: b.decoder.l1.bias_f32(),
            l2_w: cast_f32(&b.decoder.l2.weight),
            l2_b: b.decoder.l2.bias[0] as f32,
        });
        InferencePlanF32 {
            num_nodes: n,
            num_edges: e,
            latent_dim: d,
            num_blocks: config.num_blocks,
            alpha: config.alpha as f32,
            edge_src,
            edge_ptr: graph.edge_ptr.clone(),
            blocks,
            decoder,
        }
    }

    /// Number of nodes of the graph this plan was built for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges of the graph this plan was built for.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Heap footprint of the precomputed data in bytes (about half the f64
    /// plan's: the dominant static edge terms are stored single-precision).
    pub fn memory_bytes(&self) -> usize {
        self.blocks.iter().map(PlanBlockF32::memory_bytes).sum::<usize>()
            + self.decoder.as_ref().map_or(0, |dec| {
                std::mem::size_of::<f32>() * (dec.l1_wt.len() + dec.l1_b.len() + dec.l2_w.len() + 1)
            })
            + std::mem::size_of::<u32>() * self.edge_src.len()
            + std::mem::size_of::<usize>() * self.edge_ptr.len()
    }

    /// Run the single-precision engine on one right-hand side: `input` (the
    /// normalised residual) is converted to f32 on entry, the decoded output
    /// is widened back into `out`.  All intermediates live in `scratch`; the
    /// steady state allocates nothing.  This is
    /// [`InferencePlanF32::infer_into_b`] at `b = 1`.
    pub fn infer_into(&self, input: &[f64], scratch: &mut InferScratchF32, out: &mut [f64]) {
        self.infer_into_b(input, 1, scratch, out);
    }

    /// Batched forward pass over `b` right-hand sides: `input` and `out` are
    /// column-interleaved `n × b` panels (`input[j*b + c]` is column `c`'s
    /// value at node `j`).  One sweep over the plan's static streams serves
    /// all `b` columns; column `c` of the output matches
    /// [`InferencePlanF32::infer_into`] run on that column alone.
    pub fn infer_into_b(
        &self,
        input: &[f64],
        b: usize,
        scratch: &mut InferScratchF32,
        out: &mut [f64],
    ) {
        self.infer_core_b(input, b, scratch, out, None);
    }

    /// [`InferencePlanF32::infer_into_b`] with a per-stage wall-clock
    /// breakdown accumulated into `timings`.
    pub fn infer_timed_b(
        &self,
        input: &[f64],
        b: usize,
        scratch: &mut InferScratchF32,
        out: &mut [f64],
        timings: &mut InferenceTimings,
    ) {
        self.infer_core_b(input, b, scratch, out, Some(timings));
    }

    fn infer_core_b(
        &self,
        input: &[f64],
        b: usize,
        scratch: &mut InferScratchF32,
        out: &mut [f64],
        mut timings: Option<&mut InferenceTimings>,
    ) {
        let d = self.latent_dim;
        let n = self.num_nodes;
        assert_eq!(input.len(), n * b, "input panel length mismatch");
        assert_eq!(out.len(), n * b, "output panel length mismatch");

        let InferScratchF32 { input: input32, h, a_dst, a_src, hsum, psi_hidden, update, hidden } =
            scratch;
        input32.clear();
        input32.extend(input.iter().map(|&v| v as f32));
        h.clear();
        h.resize(n * d * b, 0.0);
        let d2 = 2 * d;
        a_dst.resize(n * d2 * b, 0.0);
        a_src.resize(n * d2 * b, 0.0);
        hsum.resize(n * d2 * b, 0.0);
        psi_hidden.resize(n * d * b, 0.0);
        update.resize(n * d * b, 0.0);
        hidden.resize(n * d * b, 0.0);

        let mut last = Instant::now(); // detlint::allow(nondet-clock): timing telemetry only
        macro_rules! tick {
            ($field:ident) => {
                if let Some(t) = timings.as_deref_mut() {
                    let now = Instant::now(); // detlint::allow(nondet-clock): timing telemetry only
                    t.$field += now.duration_since(last).as_nanos() as u64;
                    last = now;
                }
            };
        }

        let d2b = d2 * b;
        for pb in &self.blocks {
            // Node-level GEMMs, both message directions at once, all b
            // columns per weight load.
            gemm::gemm_t_into_f32_b(h, n, d, d2, b, &pb.w_dst_cat_t, a_dst);
            gemm::gemm_t_into_f32_b(h, n, d, d2, b, &pb.w_src_cat_t, a_src);
            tick!(node_gemm_ns);
            // Fused edge sweep: the static geo row is read once per edge and
            // broadcast across the b columns.
            for j in 0..n {
                let adj = &a_dst[j * d2b..(j + 1) * d2b];
                let acc = &mut hsum[j * d2b..(j + 1) * d2b];
                acc.fill(0.0);
                for slot in self.edge_ptr[j]..self.edge_ptr[j + 1] {
                    let src = self.edge_src[slot] as usize;
                    relu_sum3_acc_f32_b(
                        acc,
                        &pb.geo_cat[slot * d2..(slot + 1) * d2],
                        adj,
                        &a_src[src * d2b..(src + 1) * d2b],
                        b,
                    );
                }
            }
            tick!(edge_gather_ns);
            for j in 0..n {
                let cin = &input32[j * b..(j + 1) * b];
                let stat = &pb.psi_static[j * d..(j + 1) * d];
                let row = &mut psi_hidden[j * d * b..(j + 1) * d * b];
                if b == 1 {
                    // Contiguous `d`-wide row body (vectorises).
                    for k in 0..d {
                        row[k] = stat[k] + pb.psi_w_c[k] * cin[0];
                    }
                    continue;
                }
                for k in 0..d {
                    let s = stat[k];
                    let wc = pb.psi_w_c[k];
                    let rk = &mut row[k * b..(k + 1) * b];
                    for c in 0..b {
                        rk[c] = s + wc * cin[c];
                    }
                }
            }
            gemm::gemm_t_acc_into_f32_b(h, n, d, d, b, &pb.psi_w_h_t, psi_hidden);
            gemm::gemm_t_acc_into_f32_b(hsum, n, d2, d, b, &pb.psi_m_cat_t, psi_hidden);
            for v in psi_hidden.iter_mut() {
                *v = v.max(0.0);
            }
            gemm::gemm_t_bias_into_f32_b(
                psi_hidden,
                n,
                d,
                d,
                b,
                &pb.psi_l2_wt,
                &pb.psi_l2_b,
                update,
            );
            for (hv, uv) in h.iter_mut().zip(update.iter()) {
                *hv += self.alpha * *uv;
            }
            tick!(psi_update_ns);
        }
        match &self.decoder {
            Some(dec) => {
                gemm::gemm_t_bias_into_f32_b(h, n, d, d, b, &dec.l1_wt, &dec.l1_b, hidden);
                for v in hidden.iter_mut() {
                    *v = v.max(0.0);
                }
                for j in 0..n {
                    let row = &hidden[j * d * b..(j + 1) * d * b];
                    for c in 0..b {
                        let mut acc = dec.l2_b;
                        for k in 0..d {
                            acc += dec.l2_w[k] * row[k * b + c];
                        }
                        out[j * b + c] = acc as f64;
                    }
                }
            }
            None => out.fill(0.0),
        }
        tick!(decoder_ns);
        let _ = last; // the final tick's stamp is intentionally unused
        if let Some(t) = timings {
            t.calls += 1;
        }
    }
}

/// Per-output-column int8 quantisation of a transposed (`in × out`) f64
/// matrix: `scale[o] = max_i |wt[i][o]| / 127` (1.0 for all-zero columns, so
/// the quantised values stay 0), `q[i][o] = round(wt[i][o] / scale[o])`.
///
/// One scale per *output* equals one scale per row of the original
/// `out × in` weight — the per-output-row scheme: each output's dot product
/// is exact up to a single rounding per weight, and dequantisation is one
/// multiply per output after the shared-axis sweep.
fn quantise_cols_i8(wt: &[f64], in_dim: usize, out_dim: usize) -> (Vec<i8>, Vec<f32>) {
    debug_assert_eq!(wt.len(), in_dim * out_dim);
    let mut q = vec![0i8; wt.len()];
    let mut scale = vec![0.0f32; out_dim];
    for o in 0..out_dim {
        let amax = (0..in_dim).map(|i| wt[i * out_dim + o].abs()).fold(0.0f64, f64::max);
        let s = if amax == 0.0 { 1.0 } else { amax / 127.0 };
        scale[o] = s as f32;
        for i in 0..in_dim {
            q[i * out_dim + o] = (wt[i * out_dim + o] / s).round().clamp(-127.0, 127.0) as i8;
        }
    }
    (q, scale)
}

/// Transpose a row-major `out × in` f64 matrix into the kernels' `in × out`
/// layout, staying in f64 (quantisation happens afterwards, once).
fn transpose_f64(w: &[f64], out_dim: usize, in_dim: usize) -> Vec<f64> {
    debug_assert_eq!(w.len(), out_dim * in_dim);
    let mut wt = vec![0.0f64; in_dim * out_dim];
    for o in 0..out_dim {
        for i in 0..in_dim {
            wt[i * out_dim + o] = w[o * in_dim + i];
        }
    }
    wt
}

/// Concatenate two row-major `d × d` f64 matrices column-wise and transpose
/// the pair into `in × out` (`d × 2d`) — the f64 twin of
/// [`cat_transpose_cast_f32`], feeding the quantiser.
fn cat_transpose_f64(a: &[f64], b: &[f64], d: usize) -> Vec<f64> {
    debug_assert_eq!(a.len(), d * d);
    debug_assert_eq!(b.len(), d * d);
    let mut wt = vec![0.0f64; d * 2 * d];
    for o in 0..d {
        for i in 0..d {
            wt[i * 2 * d + o] = a[o * d + i];
            wt[i * 2 * d + d + o] = b[o * d + i];
        }
    }
    wt
}

/// Quantised counterpart of [`PlanBlockF32`]: same direction-fused layout,
/// with the weight matrices stored as int8 + per-output f32 scales and the
/// two dominant memory streams — the `[fwd | bwd]` static geo/bias edge
/// terms (`e × 2d`) and the per-node static Ψ pre-activation (`n × d`) —
/// stored as bf16.  The tiny Ψ `W_c` column, Ψ's second layer and the
/// decoder stay f32: they are negligible in both memory and error budget.
/// All splits/compositions are computed in f64 (via [`PlanBlock`]) and
/// quantised exactly once.
struct PlanBlockQ {
    /// `[W_dst,→ | W_dst,←]` transposed, int8: `d × 2d` + `2d` scales.
    w_dst_cat_q: Vec<i8>,
    w_dst_cat_scale: Vec<f32>,
    /// `[W_src,→ | W_src,←]` transposed, int8.
    w_src_cat_q: Vec<i8>,
    w_src_cat_scale: Vec<f32>,
    /// `[geo→ | geo←]` per destination-sorted edge, bf16: `e × 2d`.
    geo_cat: Vec<u16>,
    /// `Ψ` first-layer columns acting on `h`, transposed int8: `d × d`.
    psi_w_h_q: Vec<i8>,
    psi_w_h_scale: Vec<f32>,
    /// `Ψ` first-layer column acting on the node input `c` (length `d`, f32).
    psi_w_c: Vec<f32>,
    /// `[W_Ψ,→ W₂→ ; W_Ψ,← W₂←]` transposed int8: `2d × d`.
    psi_m_cat_q: Vec<i8>,
    psi_m_cat_scale: Vec<f32>,
    /// Per-node static `Ψ` pre-activation, bf16 (`n × d`).
    psi_static: Vec<u16>,
    /// Ψ second layer, transposed weight + bias (f32).
    psi_l2_wt: Vec<f32>,
    psi_l2_b: Vec<f32>,
}

impl PlanBlockQ {
    fn new(block: &Block, graph: &LocalGraph, d: usize) -> Self {
        let pb = PlanBlock::new(block, graph, d);
        let e = graph.num_edges();
        // bf16 static edge terms, direction-fused exactly like the f32 plan.
        let mut geo_cat = vec![0u16; e * 2 * d];
        for slot in 0..e {
            for k in 0..d {
                geo_cat[slot * 2 * d + k] = gemm::f32_to_bf16(pb.geo_fwd[slot * d + k] as f32);
                geo_cat[slot * 2 * d + d + k] = gemm::f32_to_bf16(pb.geo_bwd[slot * d + k] as f32);
            }
        }
        let psi_static: Vec<u16> =
            pb.psi_static.iter().map(|&v| gemm::f32_to_bf16(v as f32)).collect();
        // Composed message matrices stacked as GEMM inputs (fwd rows then bwd
        // rows of the transposed layout), then quantised per output column.
        let mut psi_m_cat_t = vec![0.0f64; 2 * d * d];
        for i in 0..d {
            for o in 0..d {
                psi_m_cat_t[i * d + o] = pb.psi_m_fwd[o * d + i];
                psi_m_cat_t[(d + i) * d + o] = pb.psi_m_bwd[o * d + i];
            }
        }
        let (w_dst_cat_q, w_dst_cat_scale) =
            quantise_cols_i8(&cat_transpose_f64(&pb.w_dst_fwd, &pb.w_dst_bwd, d), d, 2 * d);
        let (w_src_cat_q, w_src_cat_scale) =
            quantise_cols_i8(&cat_transpose_f64(&pb.w_src_fwd, &pb.w_src_bwd, d), d, 2 * d);
        let (psi_w_h_q, psi_w_h_scale) = quantise_cols_i8(&transpose_f64(&pb.psi_w_h, d, d), d, d);
        let (psi_m_cat_q, psi_m_cat_scale) = quantise_cols_i8(&psi_m_cat_t, 2 * d, d);
        PlanBlockQ {
            w_dst_cat_q,
            w_dst_cat_scale,
            w_src_cat_q,
            w_src_cat_scale,
            geo_cat,
            psi_w_h_q,
            psi_w_h_scale,
            psi_w_c: cast_f32(&pb.psi_w_c),
            psi_m_cat_q,
            psi_m_cat_scale,
            psi_static,
            psi_l2_wt: block.psi.l2.weight_t_f32(),
            psi_l2_b: block.psi.l2.bias_f32(),
        }
    }

    fn memory_bytes(&self) -> usize {
        self.w_dst_cat_q.len()
            + self.w_src_cat_q.len()
            + self.psi_w_h_q.len()
            + self.psi_m_cat_q.len()
            + std::mem::size_of::<u16>() * (self.geo_cat.len() + self.psi_static.len())
            + std::mem::size_of::<f32>()
                * (self.w_dst_cat_scale.len()
                    + self.w_src_cat_scale.len()
                    + self.psi_w_h_scale.len()
                    + self.psi_m_cat_scale.len()
                    + self.psi_w_c.len()
                    + self.psi_l2_wt.len()
                    + self.psi_l2_b.len())
    }
}

/// Reusable buffers for the quantised inference path ([`InferencePlanQ`]).
///
/// Mirrors [`InferScratchF32`], with two differences: the per-node hidden
/// sums are *stored* bf16 (`n × 2d × b` `u16`s — halving the read traffic of
/// the Ψ message GEMM) and a single `2d × b` f32 panel row (`acc`)
/// accumulates each node's edge sweep before it is rounded to bf16 once.
#[derive(Debug, Default)]
pub struct InferScratchQ {
    input: Vec<f32>,
    h: Vec<f32>,
    a_dst: Vec<f32>,
    a_src: Vec<f32>,
    /// Per-node hidden sums, bf16-packed (`n × 2d × b`).
    hsum: Vec<u16>,
    /// f32 accumulator row for one node's edge sweep (`2d × b`).
    acc: Vec<f32>,
    /// Widened-weight panel of the int8 GEMM kernels (`≤ 2d × 2d`).
    wbuf: Vec<f32>,
    psi_hidden: Vec<f32>,
    update: Vec<f32>,
    hidden: Vec<f32>,
}

impl InferScratchQ {
    /// Empty scratch; buffers are allocated on first use.
    pub fn new() -> Self {
        InferScratchQ::default()
    }
}

/// `acc[k] += max(decode(g[k]) + adj[k] + asj[k], 0)` — the fused edge-sweep
/// body with bf16 static terms decoded on the fly (a 16-bit shift per lane).
#[inline(always)]
fn relu_sum3_acc_bf16_geo(acc: &mut [f32], g: &[u16], adj: &[f32], asj: &[f32]) {
    let d = acc.len();
    let (g, adj, asj) = (&g[..d], &adj[..d], &asj[..d]);
    for k in 0..d {
        acc[k] += (gemm::bf16_to_f32(g[k]) + adj[k] + asj[k]).max(0.0);
    }
}

/// Batched bf16 edge-sweep body: the static term is **decoded once per edge**
/// and broadcast across the `b` columns.  Per column the operation sequence
/// equals [`relu_sum3_acc_bf16_geo`] exactly; at `b = 1` that contiguous body
/// runs directly.
#[inline(always)]
fn relu_sum3_acc_bf16_geo_b(acc: &mut [f32], g: &[u16], adj: &[f32], asj: &[f32], b: usize) {
    if b == 1 {
        return relu_sum3_acc_bf16_geo(acc, g, adj, asj);
    }
    let db = acc.len();
    let (adj, asj) = (&adj[..db], &asj[..db]);
    for (k, &gq) in g.iter().enumerate() {
        let gk = gemm::bf16_to_f32(gq);
        let ak = &mut acc[k * b..(k + 1) * b];
        let adjk = &adj[k * b..(k + 1) * b];
        let asjk = &asj[k * b..(k + 1) * b];
        for c in 0..b {
            ak[c] += (gk + adjk[c] + asjk[c]).max(0.0);
        }
    }
}

/// A per-graph **quantised** inference plan: int8 weights (per-output f32
/// scales), bf16 static streams, f32 accumulators — the third member of the
/// [`InferencePlan`] / [`InferencePlanF32`] family.
///
/// Built once per sub-domain graph via [`DssModel::build_plan_q`]; the
/// forward pass ([`InferencePlanQ::infer_into`]) keeps all *state* (latent
/// `H`, node GEMM outputs, Ψ pre-activations) in f32 and dequantises weights
/// inside the GEMM kernels, so accuracy degrades only by the weight rounding
/// (≤ 2⁻⁸ relative per weight) and the bf16 rounding of the static streams
/// (≤ 2⁻⁹ relative each) — in practice ~1e-3 relative on the decoded output,
/// far below what the flexible outer Krylov method notices.  The residual is
/// converted on entry and the decoded output widened back to f64 on exit,
/// exactly like the f32 engine.
///
/// The plan's memory footprint is roughly **half the f32 plan's** (the
/// dominant `e × 2d` static edge stream and the `n × d` static Ψ term are
/// 2-byte, the weights 1-byte), which is what the bandwidth-bound edge sweep
/// actually pays for.
pub struct InferencePlanQ {
    pub(crate) num_nodes: usize,
    pub(crate) num_edges: usize,
    pub(crate) latent_dim: usize,
    pub(crate) num_blocks: usize,
    alpha: f32,
    /// Source node of every destination-sorted edge (u32, like the f32 plan).
    edge_src: Vec<u32>,
    /// Destination offsets into the sorted edge list (`n + 1` entries).
    edge_ptr: Vec<usize>,
    blocks: Vec<PlanBlockQ>,
    decoder: Option<DecoderF32>,
}

impl InferencePlanQ {
    /// Build a quantised plan for `model` on `graph`.
    pub fn new(model: &DssModel, graph: &LocalGraph) -> Self {
        let config = model.config();
        let d = config.latent_dim;
        let n = graph.num_nodes();
        let e = graph.num_edges();
        assert_eq!(graph.edge_ptr.len(), n + 1, "stale incidence: run rebuild_incidence");
        assert_eq!(graph.edge_order.len(), e, "stale incidence: run rebuild_incidence");
        let edge_src: Vec<u32> =
            graph.edge_order.iter().map(|&ei| graph.edges[ei].src as u32).collect();
        let blocks: Vec<PlanBlockQ> =
            model.blocks().iter().map(|b| PlanBlockQ::new(b, graph, d)).collect();
        let decoder = model.blocks().last().map(|b| DecoderF32 {
            l1_wt: b.decoder.l1.weight_t_f32(),
            l1_b: b.decoder.l1.bias_f32(),
            l2_w: cast_f32(&b.decoder.l2.weight),
            l2_b: b.decoder.l2.bias[0] as f32,
        });
        InferencePlanQ {
            num_nodes: n,
            num_edges: e,
            latent_dim: d,
            num_blocks: config.num_blocks,
            alpha: config.alpha as f32,
            edge_src,
            edge_ptr: graph.edge_ptr.clone(),
            blocks,
            decoder,
        }
    }

    /// Number of nodes of the graph this plan was built for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges of the graph this plan was built for.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Heap footprint of the precomputed data in bytes (about half the f32
    /// plan's: the dominant static streams are 2-byte, the weights 1-byte).
    pub fn memory_bytes(&self) -> usize {
        self.blocks.iter().map(PlanBlockQ::memory_bytes).sum::<usize>()
            + self.decoder.as_ref().map_or(0, |dec| {
                std::mem::size_of::<f32>() * (dec.l1_wt.len() + dec.l1_b.len() + dec.l2_w.len() + 1)
            })
            + std::mem::size_of::<u32>() * self.edge_src.len()
            + std::mem::size_of::<usize>() * self.edge_ptr.len()
    }

    /// Run the quantised engine on one right-hand side: `input` (the
    /// normalised residual) is converted to f32 on entry, the decoded output
    /// is widened back into `out`.  All intermediates live in `scratch`; the
    /// steady state allocates nothing.  This is
    /// [`InferencePlanQ::infer_into_b`] at `b = 1`.
    pub fn infer_into(&self, input: &[f64], scratch: &mut InferScratchQ, out: &mut [f64]) {
        self.infer_into_b(input, 1, scratch, out);
    }

    /// Batched quantised forward pass over `b` right-hand sides: `input` and
    /// `out` are column-interleaved `n × b` panels.  The bf16 static streams
    /// (geo edge terms and the Ψ static rows) are decoded once per element
    /// and broadcast across all `b` columns; column `c` of the output matches
    /// [`InferencePlanQ::infer_into`] run on that column alone.
    pub fn infer_into_b(
        &self,
        input: &[f64],
        b: usize,
        scratch: &mut InferScratchQ,
        out: &mut [f64],
    ) {
        self.infer_core_b(input, b, scratch, out, None);
    }

    /// [`InferencePlanQ::infer_into_b`] with a per-stage wall-clock breakdown
    /// accumulated into `timings`.
    pub fn infer_timed_b(
        &self,
        input: &[f64],
        b: usize,
        scratch: &mut InferScratchQ,
        out: &mut [f64],
        timings: &mut InferenceTimings,
    ) {
        self.infer_core_b(input, b, scratch, out, Some(timings));
    }

    fn infer_core_b(
        &self,
        input: &[f64],
        b: usize,
        scratch: &mut InferScratchQ,
        out: &mut [f64],
        mut timings: Option<&mut InferenceTimings>,
    ) {
        let d = self.latent_dim;
        let n = self.num_nodes;
        assert_eq!(input.len(), n * b, "input panel length mismatch");
        assert_eq!(out.len(), n * b, "output panel length mismatch");

        let InferScratchQ {
            input: input32,
            h,
            a_dst,
            a_src,
            hsum,
            acc,
            wbuf,
            psi_hidden,
            update,
            hidden,
        } = scratch;
        input32.clear();
        input32.extend(input.iter().map(|&v| v as f32));
        h.clear();
        h.resize(n * d * b, 0.0);
        let d2 = 2 * d;
        a_dst.resize(n * d2 * b, 0.0);
        a_src.resize(n * d2 * b, 0.0);
        hsum.resize(n * d2 * b, 0);
        acc.resize(d2 * b, 0.0);
        psi_hidden.resize(n * d * b, 0.0);
        update.resize(n * d * b, 0.0);
        hidden.resize(n * d * b, 0.0);

        let mut last = Instant::now(); // detlint::allow(nondet-clock): timing telemetry only
        macro_rules! tick {
            ($field:ident) => {
                if let Some(t) = timings.as_deref_mut() {
                    let now = Instant::now(); // detlint::allow(nondet-clock): timing telemetry only
                    t.$field += now.duration_since(last).as_nanos() as u64;
                    last = now;
                }
            };
        }

        let d2b = d2 * b;
        for pb in &self.blocks {
            // Node-level int8 GEMMs, both message directions at once, all b
            // columns per weight load: the weights dequantise inside the
            // kernel, the outputs land in f32.
            gemm::gemm_t_into_i8_b(
                h,
                n,
                d,
                d2,
                b,
                &pb.w_dst_cat_q,
                &pb.w_dst_cat_scale,
                wbuf,
                a_dst,
            );
            gemm::gemm_t_into_i8_b(
                h,
                n,
                d,
                d2,
                b,
                &pb.w_src_cat_q,
                &pb.w_src_cat_scale,
                wbuf,
                a_src,
            );
            tick!(node_gemm_ns);
            // Fused edge sweep: bf16 static terms decoded once per edge for
            // all b columns, f32 accumulation into one panel row, rounded to
            // bf16 once per node.
            for j in 0..n {
                let adj = &a_dst[j * d2b..(j + 1) * d2b];
                acc.fill(0.0);
                for slot in self.edge_ptr[j]..self.edge_ptr[j + 1] {
                    let src = self.edge_src[slot] as usize;
                    relu_sum3_acc_bf16_geo_b(
                        acc,
                        &pb.geo_cat[slot * d2..(slot + 1) * d2],
                        adj,
                        &a_src[src * d2b..(src + 1) * d2b],
                        b,
                    );
                }
                gemm::store_bf16(acc, &mut hsum[j * d2b..(j + 1) * d2b]);
            }
            tick!(edge_gather_ns);
            for j in 0..n {
                let cin = &input32[j * b..(j + 1) * b];
                let stat = &pb.psi_static[j * d..(j + 1) * d];
                let row = &mut psi_hidden[j * d * b..(j + 1) * d * b];
                if b == 1 {
                    // Contiguous `d`-wide row body (vectorises).
                    for k in 0..d {
                        row[k] = gemm::bf16_to_f32(stat[k]) + pb.psi_w_c[k] * cin[0];
                    }
                    continue;
                }
                for k in 0..d {
                    let s = gemm::bf16_to_f32(stat[k]);
                    let wc = pb.psi_w_c[k];
                    let rk = &mut row[k * b..(k + 1) * b];
                    for c in 0..b {
                        rk[c] = s + wc * cin[c];
                    }
                }
            }
            gemm::gemm_t_acc_into_i8_b(
                h,
                n,
                d,
                d,
                b,
                &pb.psi_w_h_q,
                &pb.psi_w_h_scale,
                wbuf,
                psi_hidden,
            );
            gemm::gemm_t_acc_into_i8_bf16_b(
                hsum,
                n,
                d2,
                d,
                b,
                &pb.psi_m_cat_q,
                &pb.psi_m_cat_scale,
                wbuf,
                psi_hidden,
            );
            for v in psi_hidden.iter_mut() {
                *v = v.max(0.0);
            }
            gemm::gemm_t_bias_into_f32_b(
                psi_hidden,
                n,
                d,
                d,
                b,
                &pb.psi_l2_wt,
                &pb.psi_l2_b,
                update,
            );
            for (hv, uv) in h.iter_mut().zip(update.iter()) {
                *hv += self.alpha * *uv;
            }
            tick!(psi_update_ns);
        }
        match &self.decoder {
            Some(dec) => {
                gemm::gemm_t_bias_into_f32_b(h, n, d, d, b, &dec.l1_wt, &dec.l1_b, hidden);
                for v in hidden.iter_mut() {
                    *v = v.max(0.0);
                }
                for j in 0..n {
                    let row = &hidden[j * d * b..(j + 1) * d * b];
                    for c in 0..b {
                        let mut acc = dec.l2_b;
                        for k in 0..d {
                            acc += dec.l2_w[k] * row[k * b + c];
                        }
                        out[j * b + c] = acc as f64;
                    }
                }
            }
            None => out.fill(0.0),
        }
        tick!(decoder_ns);
        let _ = last; // the final tick's stamp is intentionally unused
        if let Some(t) = timings {
            t.calls += 1;
        }
    }
}

/// Wall-clock breakdown of planned inference, one bucket per pipeline stage.
///
/// Filled by [`DssModel::infer_with_plan_batched_timed`] and its f32/int8
/// siblings (`b = 1` is a single right-hand side); buckets accumulate across
/// calls so one struct can aggregate a whole preconditioner application (or
/// several).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InferenceTimings {
    /// Node-level GEMMs `H W_dstᵀ` / `H W_srcᵀ` for both message directions.
    pub node_gemm_ns: u64,
    /// Fused edge sweep: static term + gathered node terms, ReLU, and the
    /// per-node aggregation of the hidden activations (the former edge GEMM
    /// plus scatter, collapsed into one contiguous pass).
    pub edge_gather_ns: u64,
    /// Ψ update: static + c-term init, three accumulating GEMMs, ReLU,
    /// second layer and the latent-state step.
    pub psi_update_ns: u64,
    /// Final-block decoder.
    pub decoder_ns: u64,
    /// Number of inference calls folded into the buckets.
    pub calls: u64,
}

impl InferenceTimings {
    /// Add another timing record into this one.
    pub fn merge(&mut self, other: &InferenceTimings) {
        self.node_gemm_ns += other.node_gemm_ns;
        self.edge_gather_ns += other.edge_gather_ns;
        self.psi_update_ns += other.psi_update_ns;
        self.decoder_ns += other.decoder_ns;
        self.calls += other.calls;
    }

    /// Stage name / nanosecond pairs, in pipeline order.
    pub fn stages(&self) -> [(&'static str, u64); 4] {
        [
            ("node_gemm", self.node_gemm_ns),
            ("edge_gather", self.edge_gather_ns),
            ("psi_update", self.psi_update_ns),
            ("decoder", self.decoder_ns),
        ]
    }

    /// Total time across all stages.
    pub fn total_ns(&self) -> u64 {
        self.stages().iter().map(|&(_, ns)| ns).sum()
    }
}

/// A lock-protected pool of scratch buffers for batched inference, generic
/// over the scratch type (`InferScratch` by default; [`InferScratchF32`] and
/// [`InferScratchQ`] pool the same way for the reduced-precision engines).
///
/// `acquire` pops a warmed-up scratch (or creates an empty one when the pool
/// is dry); `release` returns it.  Buffers grow to the largest graph they
/// ever served and are reused across batch items *and* across calls, so a
/// long-lived pool makes repeated [`DssModel::infer_batch_with_pool`] calls
/// allocation-free in the steady state.  The pool never influences results —
/// scratch contents are fully overwritten by every inference.
///
/// Two robustness properties:
///
/// * **Bounded retention.**  Idle buffers are capped at the high-water mark
///   of *concurrent* borrows ever observed — more idle buffers than peak
///   concurrency can never be useful, so buffers released beyond that cap
///   are dropped instead of retained forever.
/// * **Panic tolerance.**  The internal mutex recovers from poisoning: a
///   worker that panics between `acquire` and `release` must not cascade
///   into poison-panics on every later pool operation.  The guarded state
///   (a list of interchangeable buffers plus counters) has no invariant a
///   mid-panic writer could break.
#[derive(Debug)]
pub struct ScratchPool<T = InferScratch> {
    state: TrackedMutex<PoolState<T>>,
}

impl<T> Default for ScratchPool<T> {
    fn default() -> Self {
        ScratchPool {
            // Commutative: the pool holds *interchangeable* buffers, so which
            // of two borrowers pops a given buffer first cannot affect any
            // solver output (contents are overwritten on use).
            state: TrackedMutex::new_commutative(
                PoolState::default(),
                "gnn::plan::ScratchPool::state",
                "pooled buffers are interchangeable; acquire/release order never \
                 reaches solver output",
            ),
        }
    }
}

#[derive(Debug)]
struct PoolState<T> {
    /// Idle buffers.
    idle: Vec<T>,
    /// Buffers currently borrowed (acquired and not yet released).
    outstanding: usize,
    /// Maximum `outstanding` ever observed — the idle-retention cap.
    high_water: usize,
}

impl<T> Default for PoolState<T> {
    fn default() -> Self {
        PoolState { idle: Vec::new(), outstanding: 0, high_water: 0 }
    }
}

impl<T: Default> ScratchPool<T> {
    /// An empty pool; buffers are created on demand.
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Take a scratch out of the pool, or create a fresh one when the pool
    /// is dry.
    pub fn acquire(&self) -> T {
        let mut st = self.state.lock();
        st.outstanding += 1;
        st.high_water = st.high_water.max(st.outstanding);
        st.idle.pop().unwrap_or_default()
    }

    /// Return a scratch to the pool for reuse.  Buffers beyond the
    /// high-water concurrent-borrow count are dropped.
    pub fn release(&self, scratch: T) {
        let mut st = self.state.lock();
        // Saturating: a panicked worker may never have reported its release,
        // and foreign buffers can legitimately be donated to the pool.
        st.outstanding = st.outstanding.saturating_sub(1);
        if st.idle.len() < st.high_water {
            st.idle.push(scratch);
        }
    }

    /// Number of idle buffers currently pooled.
    pub fn idle(&self) -> usize {
        self.state.lock().idle.len()
    }

    /// Drop every idle buffer and reset the idle-retention cap, releasing
    /// the memory a past high-concurrency (or large-graph) burst grew the
    /// pool to.  Outstanding borrows are unaffected; the pool refills on
    /// demand.
    pub fn clear(&self) {
        let mut st = self.state.lock();
        st.idle.clear();
        st.high_water = st.outstanding;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_parses_and_displays() {
        assert_eq!("f32".parse::<Precision>().unwrap(), Precision::F32);
        assert_eq!("F64".parse::<Precision>().unwrap(), Precision::F64);
        assert_eq!("single".parse::<Precision>().unwrap(), Precision::F32);
        assert_eq!("int8".parse::<Precision>().unwrap(), Precision::Int8);
        assert_eq!("I8".parse::<Precision>().unwrap(), Precision::Int8);
        assert_eq!("quantised".parse::<Precision>().unwrap(), Precision::Int8);
        assert!("f16".parse::<Precision>().is_err());
        assert_eq!(Precision::F32.to_string(), "f32");
        assert_eq!(Precision::Int8.to_string(), "int8");
        assert_eq!(Precision::default(), Precision::F64);
    }

    #[test]
    fn quantise_cols_i8_is_exact_per_column_scale() {
        // A 3×2 transposed matrix: column 0 has amax 2.0, column 1 is zero.
        let wt = vec![2.0, 0.0, -1.0, 0.0, 0.5, 0.0];
        let (q, scale) = quantise_cols_i8(&wt, 3, 2);
        assert_eq!(scale[1], 1.0, "all-zero columns get scale 1.0");
        assert!(q.iter().skip(1).step_by(2).all(|&v| v == 0));
        assert_eq!(q[0], 127, "the column max quantises to ±127");
        assert!((scale[0] as f64 - 2.0 / 127.0).abs() < 1e-8, "scale stored in f32");
        // Dequantised values stay within half a quantisation step.
        for i in 0..3 {
            let deq = q[i * 2] as f64 * scale[0] as f64;
            assert!((deq - wt[i * 2]).abs() <= scale[0] as f64 * 0.5 + 1e-12);
        }
    }

    #[test]
    fn pool_caps_idle_buffers_at_high_water_borrows() {
        let pool: ScratchPool = ScratchPool::new();
        // Peak of three concurrent borrows.
        let (a, b, c) = (pool.acquire(), pool.acquire(), pool.acquire());
        pool.release(a);
        pool.release(b);
        pool.release(c);
        assert_eq!(pool.idle(), 3);
        // Donating extra buffers must not grow the pool past the high-water
        // mark of 3.
        pool.release(InferScratch::new());
        pool.release(InferScratch::new());
        assert_eq!(pool.idle(), 3, "idle buffers must stay capped at peak concurrency");
        // Steady-state reuse keeps the count stable.
        let s = pool.acquire();
        pool.release(s);
        assert_eq!(pool.idle(), 3);
    }

    #[test]
    fn pool_sequential_use_retains_a_single_buffer() {
        let pool: ScratchPool = ScratchPool::new();
        for _ in 0..5 {
            let s = pool.acquire();
            pool.release(s);
        }
        assert_eq!(pool.idle(), 1, "sequential borrows never need more than one idle buffer");
    }

    #[test]
    fn pool_survives_mutex_poisoning() {
        let pool: ScratchPool = ScratchPool::new();
        let s = pool.acquire();
        pool.release(s);
        // Poison the mutex: panic while holding the guard.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = pool.state.lock();
            panic!("worker panic while holding the pool lock");
        }));
        assert!(result.is_err());
        assert!(pool.state.is_poisoned(), "mutex must actually be poisoned");
        // Every pool operation must keep working.
        assert_eq!(pool.idle(), 1);
        let s = pool.acquire();
        pool.release(s);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn pool_release_of_unacquired_buffer_is_safe() {
        let pool: ScratchPool = ScratchPool::new();
        // outstanding is 0; release must not underflow and (with no borrow
        // history) must not retain the buffer.
        pool.release(InferScratch::new());
        assert_eq!(pool.idle(), 0);
    }
}
