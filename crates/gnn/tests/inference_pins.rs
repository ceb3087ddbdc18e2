//! Bit pins of the planned inference engine at every precision.
//!
//! The parity suites hold the f32 and int8 engines to error bounds against
//! f64, and the f64 residual-history hashes are only checked by the heavy
//! release tests.  This fast test pins the exact output bits of all three
//! engines, single-column (`b = 1`) and batched (`b = 3`), on a seeded model
//! and a fixed graph, so a change to the kernels, the plan layout or the
//! forward pass that moves a single bit fails the debug suite.
//!
//! Two model shapes are pinned: the shipped `d = 10` (direction-fused rows
//! `2d = 20` wide) and an odd `d = 7`, which reaches the remainder columns
//! of every register tile.  The graph has 25 nodes, so the 4-row panels end
//! in a remainder row.

use gnn::{
    DssConfig, DssModel, InferScratch, InferScratchF32, InferScratchQ, InferenceTimings, LocalGraph,
};
use meshgen::Point2;
use sparse::CooMatrix;

/// A 5 × 5 five-point-stencil graph on a perturbed grid.
fn grid_graph() -> LocalGraph {
    let m = 5;
    let n = m * m;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..m {
        for j in 0..m {
            let p = i * m + j;
            coo.push(p, p, 4.0).unwrap();
            if j + 1 < m {
                coo.push(p, p + 1, -1.0).unwrap();
                coo.push(p + 1, p, -1.0).unwrap();
            }
            if i + 1 < m {
                coo.push(p, p + m, -1.0).unwrap();
                coo.push(p + m, p, -1.0).unwrap();
            }
        }
    }
    let positions: Vec<Point2> = (0..n)
        .map(|p| {
            let (i, j) = ((p / m) as f64, (p % m) as f64);
            Point2::new(0.25 * j + 0.03 * (1.7 * i).sin(), 0.25 * i + 0.02 * (2.3 * j).cos())
        })
        .collect();
    let rhs: Vec<f64> = (0..n).map(|p| ((p * 37 % 11) as f64 - 5.0) * 0.3).collect();
    let boundary: Vec<bool> = (0..n).map(|p| p < m || p >= n - m).collect();
    LocalGraph::new(coo.to_csr(), positions, &rhs, boundary)
}

/// Column-interleaved `n × b` panel of `b` distinct inputs.
fn panel(graph: &LocalGraph, b: usize) -> Vec<f64> {
    let n = graph.num_nodes();
    let mut p = vec![0.0; n * b];
    for c in 0..b {
        for j in 0..n {
            p[j * b + c] = graph.input[j] * (1.0 - 0.3 * c as f64) + 0.05 * c as f64;
        }
    }
    p
}

/// FNV-1a over the output bits.
fn hash(out: &[f64]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in out {
        for byte in v.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// `(precision, b)` → output hash for one model, every engine run through
/// both the plain and the timed entry point (which must agree).
fn hashes(model: &DssModel, graph: &LocalGraph) -> Vec<String> {
    let n = graph.num_nodes();
    let (p64, p32, pq) =
        (model.build_plan(graph), model.build_plan_f32(graph), model.build_plan_q(graph));
    let (mut s64, mut s32, mut sq) =
        (InferScratch::new(), InferScratchF32::new(), InferScratchQ::new());
    let mut t = InferenceTimings::default();
    let mut out = Vec::new();
    for b in [1usize, 3] {
        let input = panel(graph, b);
        let (mut y, mut yt) = (vec![0.0; n * b], vec![0.0; n * b]);
        model.infer_with_plan_batched_into(&p64, &input, b, &mut s64, &mut y);
        model.infer_with_plan_batched_timed(&p64, &input, b, &mut s64, &mut yt, &mut t);
        assert_eq!(y, yt, "f64 b={b}: timed path diverged");
        out.push(format!("f64 b={b} {}", hash(&y)));
        model.infer_with_plan_f32_batched_into(&p32, &input, b, &mut s32, &mut y);
        model.infer_with_plan_f32_batched_timed(&p32, &input, b, &mut s32, &mut yt, &mut t);
        assert_eq!(y, yt, "f32 b={b}: timed path diverged");
        out.push(format!("f32 b={b} {}", hash(&y)));
        model.infer_with_plan_q_batched_into(&pq, &input, b, &mut sq, &mut y);
        model.infer_with_plan_q_batched_timed(&pq, &input, b, &mut sq, &mut yt, &mut t);
        assert_eq!(y, yt, "int8 b={b}: timed path diverged");
        out.push(format!("int8 b={b} {}", hash(&y)));
    }
    out
}

#[test]
fn planned_inference_output_bits_are_pinned_d10() {
    let model = DssModel::new(DssConfig { num_blocks: 4, latent_dim: 10, alpha: 1e-2 }, 2024);
    let expected = [
        "f64 b=1 6f05bd526e54b46a",
        "f32 b=1 3eb41d4348bf308c",
        "int8 b=1 fec7afe9fbd95c69",
        "f64 b=3 ed6aef31556db559",
        "f32 b=3 255f10745c58d2a0",
        "int8 b=3 4437a3b04d37cf8c",
    ];
    assert_eq!(hashes(&model, &grid_graph()), expected);
}

#[test]
fn planned_inference_output_bits_are_pinned_d7() {
    let model = DssModel::new(DssConfig { num_blocks: 3, latent_dim: 7, alpha: 1e-2 }, 7);
    let expected = [
        "f64 b=1 058c6ce64707cde4",
        "f32 b=1 16766e4c6bb39f38",
        "int8 b=1 d898f2db08dec5b6",
        "f64 b=3 b4a108cba0d3c312",
        "f32 b=3 64aa974f3368b50f",
        "int8 b=3 c212602687336025",
    ];
    assert_eq!(hashes(&model, &grid_graph()), expected);
}
