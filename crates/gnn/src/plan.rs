//! Per-graph inference plans: split first-layer weights and precomputed
//! static-feature terms, and the one planned forward pass.
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
//! The two message directions are **fused**: weight splits, static edge
//! terms and per-node hidden sums are concatenated column-wise (`[fwd | bwd]`,
//! rows `2d` wide), so one node GEMM produces both directions' terms, one
//! edge sweep aggregates both, and the two composed Ψ message GEMMs are one
//! `2d × d` product whose ascending-input order is the fwd-then-bwd pair.
//!
//! A plan is tied to the exact (model, graph) pair it was built from; the
//! edge structure is copied in destination-sorted order (the graph's
//! `edge_ptr`/`edge_order` incidence), so message aggregation is a
//! contiguous per-node gather.  It snapshots every weight it needs, so it
//! must be rebuilt if the model is retrained.
//!
//! There is **one** plan type, [`Plan`], and one forward pass, over a
//! column-interleaved panel of `b` right-hand sides (`input[j*b + c]` is
//! column `c` at node `j`): every plan stream is read once per batch, and a
//! single right-hand side is that pass at `b = 1`.  Precision is a storage
//! choice made by the [`PlanPrecision`] parameter ([`F64`], [`F32`] or
//! [`Int8`]); the algorithm is the same.

use std::time::Instant;

use sanitizer::TrackedMutex;

use crate::gemm::{self, gemm_t, Init, Real, Widen};
use crate::graph::LocalGraph;
use crate::layers::Linear;
use crate::model::{Block, DssModel};

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
    /// Single-precision inference with 8-lane register tiles.
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

/// What differs between the precisions of a [`Plan`]: how activations,
/// static streams and weights are stored.  The forward pass is the same.
///
/// Every split and composition is computed in f64 at build time and rounded
/// once into this storage, so a reduced-precision plan carries no extra
/// composition error.
pub trait PlanPrecision: Default + std::fmt::Debug + Send + Sync + 'static {
    /// Activation and accumulator type.
    type Act: Real;
    /// Storage of the static streams (edge geo terms, Ψ static rows) and of
    /// the per-node hidden sums.
    type Stat: Widen<Self::Act>;
    /// Storage of the node-GEMM and Ψ first-layer weights.
    type Weights: Send + Sync;

    /// Narrow an accumulator value to static-stream storage.
    fn store(v: Self::Act) -> Self::Stat;
    /// One node's edge sweep: run `sweep` on a zeroed accumulator row and
    /// leave the sums in `row`.  The plain precisions accumulate in place;
    /// int8 accumulates in f32 (`acc`) and rounds to bf16 once.
    fn sum_row(
        row: &mut [Self::Stat],
        acc: &mut Vec<Self::Act>,
        sweep: impl FnOnce(&mut [Self::Act]),
    );
    /// Weights from a transposed (`in × out`) f64 matrix.
    fn weights(wt: &[f64], in_dim: usize, out_dim: usize) -> Self::Weights;
    /// Heap bytes of a weight matrix.
    fn weight_bytes(w: &Self::Weights) -> usize;
    /// `Y = init + X W` with this precision's epilogue; `wbuf` is scratch
    /// for widened weights.
    #[allow(clippy::too_many_arguments)]
    fn gemm<X: Widen<Self::Act>>(
        x: &[X],
        n: usize,
        in_dim: usize,
        out_dim: usize,
        b: usize,
        w: &Self::Weights,
        init: Init<'_, Self::Act>,
        wbuf: &mut Vec<Self::Act>,
        y: &mut [Self::Act],
    );
}

/// Double precision throughout: the bit-reproducible engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct F64;

/// Single precision throughout.
#[derive(Debug, Default, Clone, Copy)]
pub struct F32;

/// int8 weights with per-output f32 scales, bf16 static streams and hidden
/// sums, f32 activations and accumulators.
#[derive(Debug, Default, Clone, Copy)]
pub struct Int8;

macro_rules! impl_plain_precision {
    ($p:ty, $t:ty) => {
        impl PlanPrecision for $p {
            type Act = $t;
            type Stat = $t;
            type Weights = Vec<$t>;

            #[inline(always)]
            fn store(v: $t) -> $t {
                v
            }
            #[inline(always)]
            fn sum_row(row: &mut [$t], _: &mut Vec<$t>, sweep: impl FnOnce(&mut [$t])) {
                row.fill(0.0);
                sweep(row);
            }
            fn weights(wt: &[f64], _: usize, _: usize) -> Vec<$t> {
                wt.iter().map(|&v| <$t>::from_f64(v)).collect()
            }
            fn weight_bytes(w: &Vec<$t>) -> usize {
                std::mem::size_of_val(w.as_slice())
            }
            fn gemm<X: Widen<$t>>(
                x: &[X],
                n: usize,
                in_dim: usize,
                out_dim: usize,
                b: usize,
                w: &Vec<$t>,
                init: Init<'_, $t>,
                _: &mut Vec<$t>,
                y: &mut [$t],
            ) {
                gemm_t(x, n, in_dim, out_dim, b, w, init, None, y);
            }
        }
    };
}
impl_plain_precision!(F64, f64);
impl_plain_precision!(F32, f32);

/// int8 weights with one f32 scale per output column.
pub struct QuantisedWeights {
    q: Vec<i8>,
    scale: Vec<f32>,
}

impl PlanPrecision for Int8 {
    type Act = f32;
    type Stat = u16;
    type Weights = QuantisedWeights;

    #[inline(always)]
    fn store(v: f32) -> u16 {
        gemm::f32_to_bf16(v)
    }
    #[inline(always)]
    fn sum_row(row: &mut [u16], acc: &mut Vec<f32>, sweep: impl FnOnce(&mut [f32])) {
        acc.clear();
        acc.resize(row.len(), 0.0);
        sweep(acc);
        for (s, &a) in row.iter_mut().zip(acc.iter()) {
            *s = Self::store(a);
        }
    }
    fn weights(wt: &[f64], in_dim: usize, out_dim: usize) -> QuantisedWeights {
        let (q, scale) = quantise_cols_i8(wt, in_dim, out_dim);
        QuantisedWeights { q, scale }
    }
    fn weight_bytes(w: &QuantisedWeights) -> usize {
        w.q.len() + std::mem::size_of_val(w.scale.as_slice())
    }
    /// Widens the int8 weight into `wbuf` once per call (a few hundred
    /// values that stay L1-resident across the whole batch), then applies
    /// the per-output scale in the kernel's epilogue.
    fn gemm<X: Widen<f32>>(
        x: &[X],
        n: usize,
        in_dim: usize,
        out_dim: usize,
        b: usize,
        w: &QuantisedWeights,
        init: Init<'_, f32>,
        wbuf: &mut Vec<f32>,
        y: &mut [f32],
    ) {
        wbuf.clear();
        wbuf.extend(w.q.iter().map(|&q| q as f32));
        gemm_t(x, n, in_dim, out_dim, b, wbuf, init, Some(&w.scale), y);
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

/// Round an f64 build-time value into static-stream storage.
fn narrow<P: PlanPrecision>(v: f64) -> P::Stat {
    P::store(P::Act::from_f64(v))
}

/// Transpose row-major `out_dim × in_dim` matrices into the kernels'
/// `in × out` layout, side by side: row `i` is `[a[·][i] | b[·][i] | …]`.
fn transpose_cat(mats: &[&[f64]], out_dim: usize, in_dim: usize) -> Vec<f64> {
    let width = mats.len() * out_dim;
    let mut wt = vec![0.0; in_dim * width];
    for (m, a) in mats.iter().enumerate() {
        debug_assert_eq!(a.len(), out_dim * in_dim);
        for o in 0..out_dim {
            for i in 0..in_dim {
                wt[i * width + m * out_dim + o] = a[o * in_dim + i];
            }
        }
    }
    wt
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

/// A dense layer in the transposed kernels' layout: `in × out` weight and
/// bias, stored at the activation precision.
struct Dense<T> {
    wt: Vec<T>,
    bias: Vec<T>,
}

impl<T: Real> Dense<T> {
    fn new(layer: &Linear) -> Self {
        let wt = transpose_cat(&[&layer.weight], layer.out_dim, layer.in_dim);
        Dense {
            wt: wt.iter().map(|&v| T::from_f64(v)).collect(),
            bias: layer.bias.iter().map(|&v| T::from_f64(v)).collect(),
        }
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<T>() * (self.wt.len() + self.bias.len())
    }
}

/// Split weights and precomputed static terms of one message-passing block,
/// direction-fused.
///
/// Beyond the first-layer split, the plan exploits that the message MLPs'
/// *second* layer is linear too: summing the per-edge messages and then
/// multiplying by `Ψ`'s message columns equals multiplying the per-node sum
/// of ReLU'd hidden activations by the composed matrix `W_Ψ,msg W₂` — so the
/// planned forward pass never materialises a per-edge message at all.  The
/// message biases contribute `deg(j) · W_Ψ,msg b₂` per node, a per-graph
/// constant folded into `psi_static`.
struct PlanBlock<P: PlanPrecision> {
    /// `[W_dst,→ | W_dst,←]` transposed: `d × 2d`.
    w_dst: P::Weights,
    /// `[W_src,→ | W_src,←]` transposed: `d × 2d`.
    w_src: P::Weights,
    /// `[W_geo,→ g_e + b₁→ | W_geo,← (−g_e) + b₁←]` per destination-sorted
    /// edge: `e × 2d`.
    geo: Vec<P::Stat>,
    /// `Ψ` first-layer columns acting on `h`, transposed: `d × d`.
    psi_w_h: P::Weights,
    /// `Ψ` first-layer column acting on the node input `c` (length `d`).
    psi_w_c: Vec<P::Act>,
    /// `[W_Ψ,→ W₂→ ; W_Ψ,← W₂←]` transposed: `2d × d`, fwd input rows first.
    psi_m: P::Weights,
    /// Per-node static `Ψ` pre-activation
    /// `b_Ψ + deg(j) · (W_Ψ,→ b₂→ + W_Ψ,← b₂←)` (`n × d`).
    psi_static: Vec<P::Stat>,
    /// Ψ second layer.
    psi_l2: Dense<P::Act>,
}

impl<P: PlanPrecision> PlanBlock<P> {
    fn new(block: &Block, graph: &LocalGraph, d: usize) -> Self {
        let (fwd, bwd, psi) = (&block.phi_fwd, &block.phi_bwd, &block.psi.l1);
        debug_assert_eq!(fwd.l1.in_dim, 2 * d + 3);
        debug_assert_eq!(psi.in_dim, 3 * d + 1);
        // Static edge terms `W_geo g_e + b₁`, written straight into their
        // final storage; the backward direction negates the relative position.
        let mut geo = Vec::with_capacity(graph.num_edges() * 2 * d);
        for &ei in &graph.edge_order {
            let edge = &graph.edges[ei];
            for (layer, sign) in [(&fwd.l1, 1.0), (&bwd.l1, -1.0)] {
                let cols = layer.in_dim;
                for o in 0..d {
                    let w = &layer.weight[o * cols + 2 * d..o * cols + 2 * d + 3];
                    geo.push(narrow::<P>(
                        layer.bias[o]
                            + w[0] * (sign * edge.delta[0])
                            + w[1] * (sign * edge.delta[1])
                            + w[2] * edge.dist,
                    ));
                }
            }
        }
        let psi_w_fwd = column_block(psi, d + 1, d);
        let psi_w_bwd = column_block(psi, 2 * d + 1, d);
        // Per-node static Ψ pre-activation: bias plus the message-bias
        // contribution, which scales with the node degree.
        let q_fwd = matvec_dd(&psi_w_fwd, &fwd.l2.bias, d);
        let q_bwd = matvec_dd(&psi_w_bwd, &bwd.l2.bias, d);
        let mut psi_static = Vec::with_capacity(graph.num_nodes() * d);
        for j in 0..graph.num_nodes() {
            let deg = (graph.edge_ptr[j + 1] - graph.edge_ptr[j]) as f64;
            for k in 0..d {
                psi_static.push(narrow::<P>(psi.bias[k] + deg * (q_fwd[k] + q_bwd[k])));
            }
        }
        // The composed message matrices stack as GEMM *inputs*: input row i
        // is the i-th forward hidden dimension for i < d, the (i-d)-th
        // backward one otherwise.
        let mut psi_m = transpose_cat(&[&matmul_dd(&psi_w_fwd, &fwd.l2.weight, d)], d, d);
        psi_m.extend(transpose_cat(&[&matmul_dd(&psi_w_bwd, &bwd.l2.weight, d)], d, d));
        let split = |col0: usize| {
            let (f, b) = (column_block(&fwd.l1, col0, d), column_block(&bwd.l1, col0, d));
            P::weights(&transpose_cat(&[&f, &b], d, d), d, 2 * d)
        };
        PlanBlock {
            w_dst: split(0),
            w_src: split(d),
            geo,
            psi_w_h: P::weights(&transpose_cat(&[&column_block(psi, 0, d)], d, d), d, d),
            psi_w_c: column_block(psi, d, 1).iter().map(|&v| P::Act::from_f64(v)).collect(),
            psi_m: P::weights(&psi_m, 2 * d, d),
            psi_static,
            psi_l2: Dense::new(&block.psi.l2),
        }
    }

    fn memory_bytes(&self) -> usize {
        P::weight_bytes(&self.w_dst)
            + P::weight_bytes(&self.w_src)
            + P::weight_bytes(&self.psi_w_h)
            + P::weight_bytes(&self.psi_m)
            + std::mem::size_of::<P::Stat>() * (self.geo.len() + self.psi_static.len())
            + std::mem::size_of::<P::Act>() * self.psi_w_c.len()
            + self.psi_l2.memory_bytes()
    }
}

/// A per-graph inference plan: the setup half of the setup/apply split.
///
/// Build once per sub-domain graph (e.g. at preconditioner construction) via
/// [`DssModel::build_plan`] (or its `_f32`/`_q` siblings), then run
/// [`DssModel::infer_plan`] any number of times with changing node inputs.
/// The residual is rounded to the activation precision on entry and the
/// decoded output widened back to f64 on exit, so the surrounding solver
/// stays in double precision.
pub struct Plan<P: PlanPrecision> {
    pub(crate) num_nodes: usize,
    pub(crate) num_edges: usize,
    pub(crate) latent_dim: usize,
    pub(crate) num_blocks: usize,
    alpha: P::Act,
    /// Source node of every destination-sorted edge (u32: sub-domain graphs
    /// are far below 2³² nodes, and the narrower index halves gather
    /// traffic).
    edge_src: Vec<u32>,
    /// Destination offsets into the sorted edge list (`n + 1` entries).
    edge_ptr: Vec<usize>,
    blocks: Vec<PlanBlock<P>>,
    /// Final-block decoder.
    decoder: Option<[Dense<P::Act>; 2]>,
}

/// The double-precision plan.
pub type InferencePlan = Plan<F64>;
/// The single-precision plan.
pub type InferencePlanF32 = Plan<F32>;
/// The quantised plan.
pub type InferencePlanQ = Plan<Int8>;

/// Reusable buffers of the planned forward pass.
///
/// Create once (cheap, everything starts empty), pass to every inference
/// call; buffers are sized lazily to the largest graph and batch width seen
/// and reused afterwards, and fully overwritten per inference.  Buffers are
/// column-interleaved panels of `b` right-hand sides; the direction-fused
/// ones (`a_dst`, `a_src`, `hsum`) are `n × 2d × b`.  Holding one scratch per
/// sub-domain keeps the preconditioner's hot path allocation-free; batched
/// inference recycles them through a [`ScratchPool`].
#[derive(Debug, Default)]
pub struct Scratch<P: PlanPrecision> {
    input: Vec<P::Act>,
    h: Vec<P::Act>,
    a_dst: Vec<P::Act>,
    a_src: Vec<P::Act>,
    /// One node's edge-sweep accumulator row (`2d × b`, int8 only).
    acc: Vec<P::Act>,
    /// Per-node hidden sums at static-stream precision (`n × 2d × b`).
    hsum: Vec<P::Stat>,
    /// Widened weights of the int8 GEMMs.
    wbuf: Vec<P::Act>,
    psi_hidden: Vec<P::Act>,
    update: Vec<P::Act>,
    hidden: Vec<P::Act>,
}

/// Scratch of the double-precision engine.
pub type InferScratch = Scratch<F64>;
/// Scratch of the single-precision engine.
pub type InferScratchF32 = Scratch<F32>;
/// Scratch of the quantised engine.
pub type InferScratchQ = Scratch<Int8>;

impl<P: PlanPrecision> Scratch<P> {
    /// Empty scratch; buffers are allocated on first use.
    pub fn new() -> Self {
        Scratch::default()
    }
}

/// Fused edge-sweep body: `acc[k·b + c] += max(g[k] + adj[k·b + c] +
/// asj[k·b + c], 0)` over `2d × b` column-interleaved panels, the static row
/// `g` widened once per edge and broadcast over the `b` columns.  At `b = 1`
/// the panels are plain rows and the contiguous body runs instead (same
/// per-element operations, but it vectorises).
#[inline(always)]
fn relu_sum3_acc<T: Real, S: Widen<T>>(acc: &mut [T], g: &[S], adj: &[T], asj: &[T], b: usize) {
    let len = acc.len();
    let (adj, asj) = (&adj[..len], &asj[..len]);
    if b == 1 {
        let g = &g[..len];
        for k in 0..len {
            acc[k] += (g[k].widen() + adj[k] + asj[k]).relu();
        }
        return;
    }
    for (k, &gs) in g.iter().enumerate() {
        let gk = gs.widen();
        let ak = &mut acc[k * b..(k + 1) * b];
        let (adjk, asjk) = (&adj[k * b..(k + 1) * b], &asj[k * b..(k + 1) * b]);
        for c in 0..b {
            ak[c] += (gk + adjk[c] + asjk[c]).relu();
        }
    }
}

impl<P: PlanPrecision> Plan<P> {
    /// Build a plan for `model` on `graph`.
    pub fn new(model: &DssModel, graph: &LocalGraph) -> Self {
        let config = model.config();
        let d = config.latent_dim;
        let n = graph.num_nodes();
        let e = graph.num_edges();
        assert_eq!(graph.edge_ptr.len(), n + 1, "stale incidence: run rebuild_incidence");
        assert_eq!(graph.edge_order.len(), e, "stale incidence: run rebuild_incidence");
        assert!(u32::try_from(n).is_ok(), "graph too large for u32 edge indices");
        Plan {
            num_nodes: n,
            num_edges: e,
            latent_dim: d,
            num_blocks: config.num_blocks,
            alpha: P::Act::from_f64(config.alpha),
            edge_src: graph.edge_order.iter().map(|&ei| graph.edges[ei].src as u32).collect(),
            edge_ptr: graph.edge_ptr.clone(),
            blocks: model.blocks().iter().map(|b| PlanBlock::new(b, graph, d)).collect(),
            decoder: model
                .blocks()
                .last()
                .map(|b| [Dense::new(&b.decoder.l1), Dense::new(&b.decoder.l2)]),
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
    /// per-block static edge terms, `2 k̄ e d` values).
    pub fn memory_bytes(&self) -> usize {
        self.blocks.iter().map(PlanBlock::memory_bytes).sum::<usize>()
            + self.decoder.iter().flatten().map(Dense::memory_bytes).sum::<usize>()
            + std::mem::size_of_val(self.edge_src.as_slice())
            + std::mem::size_of_val(self.edge_ptr.as_slice())
    }

    /// The forward pass over a column-interleaved `n × b` panel, with an
    /// optional per-stage wall-clock breakdown.  Only the final block's
    /// decoder runs — earlier decodes are training-time artefacts that do
    /// not influence the latent state.
    pub(crate) fn infer_core_b(
        &self,
        input: &[f64],
        b: usize,
        scratch: &mut Scratch<P>,
        out: &mut [f64],
        mut timings: Option<&mut InferenceTimings>,
    ) {
        let (d, n) = (self.latent_dim, self.num_nodes);
        assert_eq!(input.len(), n * b, "input panel length mismatch");
        assert_eq!(out.len(), n * b, "output panel length mismatch");
        let zero = P::Act::ZERO;
        let Scratch { input: x, h, a_dst, a_src, acc, hsum, wbuf, psi_hidden, update, hidden } =
            scratch;
        x.clear();
        x.extend(input.iter().map(|&v| P::Act::from_f64(v)));
        h.clear();
        h.resize(n * d * b, zero);
        let (d2, db, d2b) = (2 * d, d * b, 2 * d * b);
        a_dst.resize(n * d2b, zero);
        a_src.resize(n * d2b, zero);
        hsum.resize(n * d2b, P::Stat::default());
        psi_hidden.resize(n * db, zero);
        update.resize(n * db, zero);
        hidden.resize(n * db, zero);

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

        for pb in &self.blocks {
            // Node-level GEMMs, both message directions at once, all b
            // columns per weight load.
            P::gemm(h, n, d, d2, b, &pb.w_dst, Init::Zero, wbuf, a_dst);
            P::gemm(h, n, d, d2, b, &pb.w_src, Init::Zero, wbuf, a_src);
            tick!(node_gemm_ns);
            // Fused edge sweep: per-edge hidden pre-activation = static term
            // + gathered node terms, ReLU'd and summed per node.  The second
            // message layer is linear, so it is applied once per *node*
            // inside the Ψ stage (composed into `psi_m`): no e × d
            // intermediate exists.
            for j in 0..n {
                let adj = &a_dst[j * d2b..(j + 1) * d2b];
                P::sum_row(&mut hsum[j * d2b..(j + 1) * d2b], acc, |acc| {
                    for slot in self.edge_ptr[j]..self.edge_ptr[j + 1] {
                        let src = self.edge_src[slot] as usize;
                        let asj = &a_src[src * d2b..(src + 1) * d2b];
                        relu_sum3_acc(acc, &pb.geo[slot * d2..(slot + 1) * d2], adj, asj, b);
                    }
                });
            }
            tick!(edge_gather_ns);
            // Ψ update.  The pre-activation starts from the per-graph static
            // term plus the per-apply `W_c c` term, then accumulates the
            // latent GEMM and the fused message GEMM.
            for j in 0..n {
                let cin = &x[j * b..(j + 1) * b];
                let stat = &pb.psi_static[j * d..(j + 1) * d];
                let row = &mut psi_hidden[j * db..(j + 1) * db];
                if b == 1 {
                    // Contiguous `d`-wide row body (vectorises).
                    for k in 0..d {
                        row[k] = stat[k].widen() + pb.psi_w_c[k] * cin[0];
                    }
                    continue;
                }
                for k in 0..d {
                    let (s, wc) = (stat[k].widen(), pb.psi_w_c[k]);
                    let rk = &mut row[k * b..(k + 1) * b];
                    for c in 0..b {
                        rk[c] = s + wc * cin[c];
                    }
                }
            }
            P::gemm(h, n, d, d, b, &pb.psi_w_h, Init::Acc, wbuf, psi_hidden);
            P::gemm(hsum, n, d2, d, b, &pb.psi_m, Init::Acc, wbuf, psi_hidden);
            for v in psi_hidden.iter_mut() {
                *v = v.relu();
            }
            let l2 = &pb.psi_l2;
            gemm_t(psi_hidden, n, d, d, b, &l2.wt, Init::Bias(&l2.bias), None, update);
            for (hv, &uv) in h.iter_mut().zip(update.iter()) {
                *hv += self.alpha * uv;
            }
            tick!(psi_update_ns);
        }
        match &self.decoder {
            Some([l1, l2]) => {
                gemm_t(h, n, d, d, b, &l1.wt, Init::Bias(&l1.bias), None, hidden);
                for v in hidden.iter_mut() {
                    *v = v.relu();
                }
                let y = &mut update[..n * b];
                gemm_t(hidden, n, d, 1, b, &l2.wt, Init::Bias(&l2.bias), None, y);
                for (o, &v) in out.iter_mut().zip(y.iter()) {
                    *o = v.to_f64();
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
