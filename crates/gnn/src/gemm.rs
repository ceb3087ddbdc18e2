//! Cache- and register-blocked batch GEMM micro-kernels.
//!
//! All dense layers in this crate compute `Y = X Wᵀ (+ bias)` on row-major
//! batches: `X` is `n × in_dim`, `W` is `out_dim × in_dim` (one weight row per
//! output), `Y` is `n × out_dim`.  The batch dimension `n` is large (one row
//! per edge or per node of a sub-domain graph) while `in_dim`/`out_dim` are
//! small (the latent dimension `d ≈ 10`), so the kernels panel over the batch:
//! a register tile of [`MR`]` × `[`NR`] accumulators walks the shared `in_dim`
//! axis once, giving `MR·NR` multiply-adds per `MR + NR` loads and `MR·NR`
//! independent dependency chains for the CPU to overlap (the naive row-by-row
//! GEMV has a single serial add chain per output).  The weight panel stays
//! resident in cache across the whole batch sweep.
//!
//! **Determinism contract:** every output element accumulates its dot product
//! strictly in ascending `i` order starting from its initial value (bias,
//! zero, or the prior `Y` entry).  Blocking only regroups *independent*
//! output elements, so the results are bit-identical to the scalar triple
//! loop these kernels replaced — at every tile shape and every batch size.

/// Batch rows per register tile.
const MR: usize = 4;
/// Output columns per register tile.
const NR: usize = 4;

/// First `N` elements of a kernel subslice as an array reference.
///
/// The panel loops only take subslices they have already sized to at least
/// one tile, so the length check cannot fail; `unreachable!` states that
/// invariant instead of routing through `try_into().unwrap()`, which the
/// workspace lint forbids on the apply hot path.
#[inline(always)]
fn head<T, const N: usize>(s: &[T]) -> &[T; N] {
    match s.split_first_chunk::<N>() {
        Some((a, _)) => a,
        None => unreachable!("kernel subslice shorter than its tile width"),
    }
}

/// Mutable variant of [`head`].
#[inline(always)]
fn head_mut<T, const N: usize>(s: &mut [T]) -> &mut [T; N] {
    match s.split_first_chunk_mut::<N>() {
        Some((a, _)) => a,
        None => unreachable!("kernel subslice shorter than its tile width"),
    }
}

/// `Y = X Wᵀ + bias` (each output element starts from its bias).
pub fn gemm_bias_into(
    x: &[f64],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    weight: &[f64],
    bias: &[f64],
    y: &mut [f64],
) {
    debug_assert_eq!(bias.len(), out_dim);
    gemm_core::<false>(x, n, in_dim, out_dim, weight, bias, y);
}

/// `Y = X Wᵀ` (outputs start from zero).
pub fn gemm_into(
    x: &[f64],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    weight: &[f64],
    y: &mut [f64],
) {
    gemm_core::<false>(x, n, in_dim, out_dim, weight, &[], y);
}

/// `Y += X Wᵀ` (outputs accumulate onto the existing `Y`).
pub fn gemm_acc_into(
    x: &[f64],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    weight: &[f64],
    y: &mut [f64],
) {
    gemm_core::<true>(x, n, in_dim, out_dim, weight, &[], y);
}

/// Shared blocked kernel.  `ACC = true` reads the initial accumulator from
/// `y`; otherwise it comes from `bias` (or zero when `bias` is empty).
fn gemm_core<const ACC: bool>(
    x: &[f64],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    weight: &[f64],
    bias: &[f64],
    y: &mut [f64],
) {
    debug_assert_eq!(x.len(), n * in_dim);
    debug_assert_eq!(weight.len(), out_dim * in_dim);
    debug_assert_eq!(y.len(), n * out_dim);
    let init = |y: &[f64], r: usize, o: usize| -> f64 {
        if ACC {
            y[r * out_dim + o]
        } else if bias.is_empty() {
            0.0
        } else {
            bias[o]
        }
    };

    let mr_end = n - n % MR;
    let nr_end = out_dim - out_dim % NR;
    let mut r = 0;
    while r < mr_end {
        // Row slices of exactly `in_dim` elements let the bounds checks hoist
        // out of the inner loop.
        let x0 = &x[r * in_dim..][..in_dim];
        let x1 = &x[(r + 1) * in_dim..][..in_dim];
        let x2 = &x[(r + 2) * in_dim..][..in_dim];
        let x3 = &x[(r + 3) * in_dim..][..in_dim];
        let mut o = 0;
        while o < nr_end {
            let w0 = &weight[o * in_dim..][..in_dim];
            let w1 = &weight[(o + 1) * in_dim..][..in_dim];
            let w2 = &weight[(o + 2) * in_dim..][..in_dim];
            let w3 = &weight[(o + 3) * in_dim..][..in_dim];
            let mut a00 = init(y, r, o);
            let mut a01 = init(y, r, o + 1);
            let mut a02 = init(y, r, o + 2);
            let mut a03 = init(y, r, o + 3);
            let mut a10 = init(y, r + 1, o);
            let mut a11 = init(y, r + 1, o + 1);
            let mut a12 = init(y, r + 1, o + 2);
            let mut a13 = init(y, r + 1, o + 3);
            let mut a20 = init(y, r + 2, o);
            let mut a21 = init(y, r + 2, o + 1);
            let mut a22 = init(y, r + 2, o + 2);
            let mut a23 = init(y, r + 2, o + 3);
            let mut a30 = init(y, r + 3, o);
            let mut a31 = init(y, r + 3, o + 1);
            let mut a32 = init(y, r + 3, o + 2);
            let mut a33 = init(y, r + 3, o + 3);
            for i in 0..in_dim {
                let (p0, p1, p2, p3) = (x0[i], x1[i], x2[i], x3[i]);
                let (q0, q1, q2, q3) = (w0[i], w1[i], w2[i], w3[i]);
                a00 += q0 * p0;
                a01 += q1 * p0;
                a02 += q2 * p0;
                a03 += q3 * p0;
                a10 += q0 * p1;
                a11 += q1 * p1;
                a12 += q2 * p1;
                a13 += q3 * p1;
                a20 += q0 * p2;
                a21 += q1 * p2;
                a22 += q2 * p2;
                a23 += q3 * p2;
                a30 += q0 * p3;
                a31 += q1 * p3;
                a32 += q2 * p3;
                a33 += q3 * p3;
            }
            y[r * out_dim + o] = a00;
            y[r * out_dim + o + 1] = a01;
            y[r * out_dim + o + 2] = a02;
            y[r * out_dim + o + 3] = a03;
            y[(r + 1) * out_dim + o] = a10;
            y[(r + 1) * out_dim + o + 1] = a11;
            y[(r + 1) * out_dim + o + 2] = a12;
            y[(r + 1) * out_dim + o + 3] = a13;
            y[(r + 2) * out_dim + o] = a20;
            y[(r + 2) * out_dim + o + 1] = a21;
            y[(r + 2) * out_dim + o + 2] = a22;
            y[(r + 2) * out_dim + o + 3] = a23;
            y[(r + 3) * out_dim + o] = a30;
            y[(r + 3) * out_dim + o + 1] = a31;
            y[(r + 3) * out_dim + o + 2] = a32;
            y[(r + 3) * out_dim + o + 3] = a33;
            o += NR;
        }
        // Remainder outputs: one column across the MR-row panel.
        while o < out_dim {
            let w = &weight[o * in_dim..][..in_dim];
            let mut a0 = init(y, r, o);
            let mut a1 = init(y, r + 1, o);
            let mut a2 = init(y, r + 2, o);
            let mut a3 = init(y, r + 3, o);
            for i in 0..in_dim {
                let q = w[i];
                a0 += q * x0[i];
                a1 += q * x1[i];
                a2 += q * x2[i];
                a3 += q * x3[i];
            }
            y[r * out_dim + o] = a0;
            y[(r + 1) * out_dim + o] = a1;
            y[(r + 2) * out_dim + o] = a2;
            y[(r + 3) * out_dim + o] = a3;
            o += 1;
        }
        r += MR;
    }
    // Remainder rows: plain per-row sweep (same accumulation order).
    while r < n {
        let xr = &x[r * in_dim..][..in_dim];
        for o in 0..out_dim {
            let w = &weight[o * in_dim..][..in_dim];
            let mut acc = init(y, r, o);
            for i in 0..in_dim {
                acc += w[i] * xr[i];
            }
            y[r * out_dim + o] = acc;
        }
        r += 1;
    }
}

// ---------------------------------------------------------------------------
// Single-precision kernels (the f32 inference engine)
// ---------------------------------------------------------------------------
//
// The f32 path serves *inference only* (the preconditioner's hot loop); it
// never touches training numerics, so it is free to pick the layout that
// vectorises best.  Weights come in **transposed** (`in_dim × out_dim`
// row-major, i.e. one row per *input* feature): for every shared-axis step
// `i` the `out_dim` weights are contiguous, and the inner loop is a pure
// 8-lane axpy `acc[k] += x_i · wt[i][k]` the compiler maps straight onto
// SIMD registers.  A 4-row panel keeps four independent accumulator tiles in
// flight so the loop is throughput- rather than latency-bound — the `wide`
// crate's 4×8 f32 tile written out by hand.
//
// Accumulation order per output element is ascending `i` from the initial
// value, exactly like the f64 kernels, so the f32 results are reproducible
// across batch sizes and tile shapes (they differ from f64 only by rounding).

/// SIMD lane count of the f32 inner loops (two SSE / one AVX register).
pub const F32_LANES: usize = 8;

/// `acc[k] += s * w[k]` over one row, 8 lanes at a time.
#[inline(always)]
fn axpy_f32(acc: &mut [f32], w: &[f32], s: f32) {
    let mut ac = acc.chunks_exact_mut(F32_LANES);
    let mut wc = w.chunks_exact(F32_LANES);
    for (a, b) in ac.by_ref().zip(wc.by_ref()) {
        let a: &mut [f32; F32_LANES] = head_mut(a);
        let b: &[f32; F32_LANES] = head(b);
        #[cfg(feature = "portable-simd")]
        {
            use std::simd::f32x8;
            let r = f32x8::from_array(*a) + f32x8::splat(s) * f32x8::from_array(*b);
            *a = r.to_array();
        }
        #[cfg(not(feature = "portable-simd"))]
        for k in 0..F32_LANES {
            a[k] += s * b[k];
        }
    }
    for (a, b) in ac.into_remainder().iter_mut().zip(wc.remainder()) {
        *a += s * *b;
    }
}

/// `Y = X Wᵀ + bias` with a transposed (`in_dim × out_dim`) f32 weight.
pub fn gemm_t_bias_into_f32(
    x: &[f32],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    wt: &[f32],
    bias: &[f32],
    y: &mut [f32],
) {
    debug_assert_eq!(bias.len(), out_dim);
    gemm_t_core_f32::<false>(x, n, in_dim, out_dim, wt, bias, y);
}

/// `Y = X Wᵀ` with a transposed f32 weight (outputs start from zero).
pub fn gemm_t_into_f32(
    x: &[f32],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    wt: &[f32],
    y: &mut [f32],
) {
    gemm_t_core_f32::<false>(x, n, in_dim, out_dim, wt, &[], y);
}

/// `Y += X Wᵀ` with a transposed f32 weight (accumulates onto `Y`).
pub fn gemm_t_acc_into_f32(
    x: &[f32],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    wt: &[f32],
    y: &mut [f32],
) {
    gemm_t_core_f32::<true>(x, n, in_dim, out_dim, wt, &[], y);
}

/// Rows per f32 register panel.
const MR32: usize = 4;

/// Shared f32 kernel: a 4-row panel of 8-lane column tiles over the
/// transposed weight.  `ACC = true` reads the initial accumulator from `y`,
/// otherwise it comes from `bias` (or zero when `bias` is empty).
fn gemm_t_core_f32<const ACC: bool>(
    x: &[f32],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    wt: &[f32],
    bias: &[f32],
    y: &mut [f32],
) {
    debug_assert_eq!(x.len(), n * in_dim);
    debug_assert_eq!(wt.len(), in_dim * out_dim);
    debug_assert_eq!(y.len(), n * out_dim);
    let init_tile = |y: &[f32], r: usize, o: usize| -> [f32; F32_LANES] {
        let mut t = [0.0f32; F32_LANES];
        if ACC {
            t.copy_from_slice(&y[r * out_dim + o..][..F32_LANES]);
        } else if !bias.is_empty() {
            t.copy_from_slice(&bias[o..o + F32_LANES]);
        }
        t
    };
    let init_scalar = |y: &[f32], r: usize, o: usize| -> f32 {
        if ACC {
            y[r * out_dim + o]
        } else if bias.is_empty() {
            0.0
        } else {
            bias[o]
        }
    };

    let mr_end = n - n % MR32;
    let nr_end = out_dim - out_dim % F32_LANES;
    let mut r = 0;
    while r < mr_end {
        let x0 = &x[r * in_dim..][..in_dim];
        let x1 = &x[(r + 1) * in_dim..][..in_dim];
        let x2 = &x[(r + 2) * in_dim..][..in_dim];
        let x3 = &x[(r + 3) * in_dim..][..in_dim];
        let mut o = 0;
        while o < nr_end {
            let mut a0 = init_tile(y, r, o);
            let mut a1 = init_tile(y, r + 1, o);
            let mut a2 = init_tile(y, r + 2, o);
            let mut a3 = init_tile(y, r + 3, o);
            for i in 0..in_dim {
                let w: &[f32; F32_LANES] = head(&wt[i * out_dim + o..]);
                let (s0, s1, s2, s3) = (x0[i], x1[i], x2[i], x3[i]);
                for k in 0..F32_LANES {
                    a0[k] += s0 * w[k];
                    a1[k] += s1 * w[k];
                    a2[k] += s2 * w[k];
                    a3[k] += s3 * w[k];
                }
            }
            y[r * out_dim + o..][..F32_LANES].copy_from_slice(&a0);
            y[(r + 1) * out_dim + o..][..F32_LANES].copy_from_slice(&a1);
            y[(r + 2) * out_dim + o..][..F32_LANES].copy_from_slice(&a2);
            y[(r + 3) * out_dim + o..][..F32_LANES].copy_from_slice(&a3);
            o += F32_LANES;
        }
        // Half-width (4-lane) column tile for mid-size remainders (e.g. the
        // direction-fused `2d = 20` rows: 2×8 full tiles + one 4-lane tile).
        while o + F32_LANES / 2 <= out_dim {
            const H: usize = F32_LANES / 2;
            let init_half = |y: &[f32], r: usize, o: usize| -> [f32; H] {
                let mut t = [0.0f32; H];
                if ACC {
                    t.copy_from_slice(&y[r * out_dim + o..][..H]);
                } else if !bias.is_empty() {
                    t.copy_from_slice(&bias[o..o + H]);
                }
                t
            };
            let mut a0 = init_half(y, r, o);
            let mut a1 = init_half(y, r + 1, o);
            let mut a2 = init_half(y, r + 2, o);
            let mut a3 = init_half(y, r + 3, o);
            for i in 0..in_dim {
                let w: &[f32; H] = head(&wt[i * out_dim + o..]);
                let (s0, s1, s2, s3) = (x0[i], x1[i], x2[i], x3[i]);
                for k in 0..H {
                    a0[k] += s0 * w[k];
                    a1[k] += s1 * w[k];
                    a2[k] += s2 * w[k];
                    a3[k] += s3 * w[k];
                }
            }
            y[r * out_dim + o..][..H].copy_from_slice(&a0);
            y[(r + 1) * out_dim + o..][..H].copy_from_slice(&a1);
            y[(r + 2) * out_dim + o..][..H].copy_from_slice(&a2);
            y[(r + 3) * out_dim + o..][..H].copy_from_slice(&a3);
            o += H;
        }
        // Remainder outputs: one column across the 4-row panel.
        while o < out_dim {
            let mut a0 = init_scalar(y, r, o);
            let mut a1 = init_scalar(y, r + 1, o);
            let mut a2 = init_scalar(y, r + 2, o);
            let mut a3 = init_scalar(y, r + 3, o);
            for i in 0..in_dim {
                let q = wt[i * out_dim + o];
                a0 += q * x0[i];
                a1 += q * x1[i];
                a2 += q * x2[i];
                a3 += q * x3[i];
            }
            y[r * out_dim + o] = a0;
            y[(r + 1) * out_dim + o] = a1;
            y[(r + 2) * out_dim + o] = a2;
            y[(r + 3) * out_dim + o] = a3;
            o += 1;
        }
        r += MR32;
    }
    // Remainder rows: per-row 8-lane axpy sweep (same accumulation order).
    while r < n {
        let xr = &x[r * in_dim..][..in_dim];
        let yr = &mut y[r * out_dim..][..out_dim];
        if !ACC {
            if bias.is_empty() {
                yr.fill(0.0);
            } else {
                yr.copy_from_slice(bias);
            }
        }
        for (i, &s) in xr.iter().enumerate() {
            axpy_f32(yr, &wt[i * out_dim..][..out_dim], s);
        }
        r += 1;
    }
}

// ---------------------------------------------------------------------------
// Quantised kernels (the int8-weight / bf16-stream inference engine)
// ---------------------------------------------------------------------------
//
// The quantised path stores weight matrices as **int8 with one f32 scale per
// output** (per-output-row of the original `out × in` weight, i.e. per column
// of the transposed layout the kernels consume) and the large precomputed
// streams as **bf16** (the top 16 bits of an f32, rounded to nearest-even).
// Activations stay f32 and every dot product accumulates in an f32 register:
// the kernels widen each int8 weight lane to f32, accumulate `x_i · q[i][k]`
// in ascending `i` order exactly like the f32 kernels, and apply the output's
// scale once at the end — so per-output results are `scale[o] · Σᵢ xᵢ q[i][o]`
// plus the initial value, deterministic across batch sizes and tile shapes.
//
// bf16 is encoded by hand (no external crates): a `u16` holding the sign,
// the 8 exponent bits and the top 7 mantissa bits of the f32 it was rounded
// from.  Decoding is a 16-bit shift — essentially free next to the memory
// traffic it halves.

/// Convert an `f32` to bf16 (`u16`) by truncation with round-to-nearest-even.
#[inline(always)]
pub fn f32_to_bf16(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        // Keep NaNs NaN: truncation alone could zero the payload bits and
        // produce an infinity pattern.
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round = ((bits >> 16) & 1) + 0x7fff;
    (bits.wrapping_add(round) >> 16) as u16
}

/// Decode a bf16 value (see [`f32_to_bf16`]) back to `f32`.
#[inline(always)]
pub fn bf16_to_f32(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

/// Gather a bf16 row into an f32 buffer (`dst[k] = decode(src[k])`).
#[inline(always)]
pub fn gather_bf16(src: &[u16], dst: &mut [f32]) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = bf16_to_f32(s);
    }
}

/// Store an f32 row as bf16 (`dst[k] = encode(src[k])`).
#[inline(always)]
pub fn store_bf16(src: &[f32], dst: &mut [u16]) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = f32_to_bf16(s);
    }
}

/// Activation element of the quantised kernels: `f32`, or `u16` holding a
/// packed bf16 value (the stored per-node hidden sums).  Widening a packed
/// value is a 16-bit shift, amortised across all output lanes of a tile.
pub trait QuantActivation: Copy {
    /// Widen the stored element to f32.
    fn widen(self) -> f32;
}

impl QuantActivation for f32 {
    #[inline(always)]
    fn widen(self) -> f32 {
        self
    }
}

impl QuantActivation for u16 {
    #[inline(always)]
    fn widen(self) -> f32 {
        bf16_to_f32(self)
    }
}

/// `Y = (X Qᵀ) ∘ scale` with a transposed (`in_dim × out_dim`) int8 weight
/// and one f32 scale per output (outputs start from zero).  `wbuf` is a
/// caller-owned scratch the widened weight panel lives in for the duration
/// of the call (sized lazily, reused across calls — the quantised inference
/// path keeps one in its scratch so the hot loop never allocates).
#[allow(clippy::too_many_arguments)]
pub fn gemm_t_into_i8(
    x: &[f32],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    wq: &[i8],
    scale: &[f32],
    wbuf: &mut Vec<f32>,
    y: &mut [f32],
) {
    gemm_t_core_i8::<f32, false>(x, n, in_dim, out_dim, wq, scale, wbuf, y);
}

/// `Y += (X Qᵀ) ∘ scale` with a transposed int8 weight (accumulates onto `Y`).
#[allow(clippy::too_many_arguments)]
pub fn gemm_t_acc_into_i8(
    x: &[f32],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    wq: &[i8],
    scale: &[f32],
    wbuf: &mut Vec<f32>,
    y: &mut [f32],
) {
    gemm_t_core_i8::<f32, true>(x, n, in_dim, out_dim, wq, scale, wbuf, y);
}

/// [`gemm_t_acc_into_i8`] with **bf16 activations**: `x` is a row-major bf16
/// batch (e.g. the stored per-node hidden sums), decoded scalar-by-scalar on
/// load — each decoded value is reused across all output lanes of the tile,
/// so the convert cost is amortised 8-fold while the read traffic is halved.
#[allow(clippy::too_many_arguments)]
pub fn gemm_t_acc_into_i8_bf16(
    x: &[u16],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    wq: &[i8],
    scale: &[f32],
    wbuf: &mut Vec<f32>,
    y: &mut [f32],
) {
    gemm_t_core_i8::<u16, true>(x, n, in_dim, out_dim, wq, scale, wbuf, y);
}

/// Rows per int8 register panel.
const MRQ: usize = 4;

/// Shared int8 kernel.  The quantised weight is **widened once per call**
/// into `wbuf` (`in_dim × out_dim` f32 values — a few hundred elements that
/// stay L1-resident, amortised over the whole `n`-row batch), then the f32
/// core's 4-row panel of 8-lane column tiles sweeps the batch at full f32
/// speed; the per-output scale is applied once after each sweep, so every
/// output is `base + scale[o] · Σᵢ xᵢ q[i][o]` with the usual ascending-`i`
/// accumulation order.  `ACC = true` reads `base` from `y`, else zero.
#[allow(clippy::too_many_arguments)]
fn gemm_t_core_i8<E: QuantActivation, const ACC: bool>(
    x: &[E],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    wq: &[i8],
    scale: &[f32],
    wbuf: &mut Vec<f32>,
    y: &mut [f32],
) {
    debug_assert_eq!(x.len(), n * in_dim);
    debug_assert_eq!(wq.len(), in_dim * out_dim);
    debug_assert_eq!(scale.len(), out_dim);
    debug_assert_eq!(y.len(), n * out_dim);

    // Widen the int8 weight to f32 once; the panels below read only `wt`.
    wbuf.clear();
    wbuf.extend(wq.iter().map(|&q| q as f32));
    let wt: &[f32] = wbuf;

    let mr_end = n - n % MRQ;
    let nr_end = out_dim - out_dim % F32_LANES;
    let mut r = 0;
    while r < mr_end {
        // Row slices of exactly `in_dim` elements let the bounds checks hoist
        // out of the inner loop (same trick as the f32 core).
        let x0 = &x[r * in_dim..][..in_dim];
        let x1 = &x[(r + 1) * in_dim..][..in_dim];
        let x2 = &x[(r + 2) * in_dim..][..in_dim];
        let x3 = &x[(r + 3) * in_dim..][..in_dim];
        let mut o = 0;
        while o < nr_end {
            let mut a0 = [0.0f32; F32_LANES];
            let mut a1 = [0.0f32; F32_LANES];
            let mut a2 = [0.0f32; F32_LANES];
            let mut a3 = [0.0f32; F32_LANES];
            for i in 0..in_dim {
                let w: &[f32; F32_LANES] = head(&wt[i * out_dim + o..]);
                let (s0, s1, s2, s3) = (x0[i].widen(), x1[i].widen(), x2[i].widen(), x3[i].widen());
                for k in 0..F32_LANES {
                    a0[k] += s0 * w[k];
                    a1[k] += s1 * w[k];
                    a2[k] += s2 * w[k];
                    a3[k] += s3 * w[k];
                }
            }
            let sc: &[f32; F32_LANES] = head(&scale[o..]);
            let y0: &mut [f32; F32_LANES] = head_mut(&mut y[r * out_dim + o..]);
            for k in 0..F32_LANES {
                let b = if ACC { y0[k] } else { 0.0 };
                y0[k] = b + a0[k] * sc[k];
            }
            let y1: &mut [f32; F32_LANES] = head_mut(&mut y[(r + 1) * out_dim + o..]);
            for k in 0..F32_LANES {
                let b = if ACC { y1[k] } else { 0.0 };
                y1[k] = b + a1[k] * sc[k];
            }
            let y2: &mut [f32; F32_LANES] = head_mut(&mut y[(r + 2) * out_dim + o..]);
            for k in 0..F32_LANES {
                let b = if ACC { y2[k] } else { 0.0 };
                y2[k] = b + a2[k] * sc[k];
            }
            let y3: &mut [f32; F32_LANES] = head_mut(&mut y[(r + 3) * out_dim + o..]);
            for k in 0..F32_LANES {
                let b = if ACC { y3[k] } else { 0.0 };
                y3[k] = b + a3[k] * sc[k];
            }
            o += F32_LANES;
        }
        // Half-width (4-lane) column tile for mid-size remainders (e.g. the
        // direction-fused `2d = 20` rows: 2×8 full tiles + one 4-lane tile),
        // mirroring the f32 core.
        while o + F32_LANES / 2 <= out_dim {
            const H: usize = F32_LANES / 2;
            let mut a0 = [0.0f32; H];
            let mut a1 = [0.0f32; H];
            let mut a2 = [0.0f32; H];
            let mut a3 = [0.0f32; H];
            for i in 0..in_dim {
                let w: &[f32; H] = head(&wt[i * out_dim + o..]);
                let (s0, s1, s2, s3) = (x0[i].widen(), x1[i].widen(), x2[i].widen(), x3[i].widen());
                for k in 0..H {
                    a0[k] += s0 * w[k];
                    a1[k] += s1 * w[k];
                    a2[k] += s2 * w[k];
                    a3[k] += s3 * w[k];
                }
            }
            let sc: &[f32; H] = head(&scale[o..]);
            let y0: &mut [f32; H] = head_mut(&mut y[r * out_dim + o..]);
            for k in 0..H {
                let b = if ACC { y0[k] } else { 0.0 };
                y0[k] = b + a0[k] * sc[k];
            }
            let y1: &mut [f32; H] = head_mut(&mut y[(r + 1) * out_dim + o..]);
            for k in 0..H {
                let b = if ACC { y1[k] } else { 0.0 };
                y1[k] = b + a1[k] * sc[k];
            }
            let y2: &mut [f32; H] = head_mut(&mut y[(r + 2) * out_dim + o..]);
            for k in 0..H {
                let b = if ACC { y2[k] } else { 0.0 };
                y2[k] = b + a2[k] * sc[k];
            }
            let y3: &mut [f32; H] = head_mut(&mut y[(r + 3) * out_dim + o..]);
            for k in 0..H {
                let b = if ACC { y3[k] } else { 0.0 };
                y3[k] = b + a3[k] * sc[k];
            }
            o += H;
        }
        // Remainder outputs: one column across the 4-row panel.
        while o < out_dim {
            let mut a0 = 0.0f32;
            let mut a1 = 0.0f32;
            let mut a2 = 0.0f32;
            let mut a3 = 0.0f32;
            for i in 0..in_dim {
                let q = wt[i * out_dim + o];
                a0 += q * x0[i].widen();
                a1 += q * x1[i].widen();
                a2 += q * x2[i].widen();
                a3 += q * x3[i].widen();
            }
            let s = scale[o];
            let b0 = if ACC { y[r * out_dim + o] } else { 0.0 };
            let b1 = if ACC { y[(r + 1) * out_dim + o] } else { 0.0 };
            let b2 = if ACC { y[(r + 2) * out_dim + o] } else { 0.0 };
            let b3 = if ACC { y[(r + 3) * out_dim + o] } else { 0.0 };
            y[r * out_dim + o] = b0 + a0 * s;
            y[(r + 1) * out_dim + o] = b1 + a1 * s;
            y[(r + 2) * out_dim + o] = b2 + a2 * s;
            y[(r + 3) * out_dim + o] = b3 + a3 * s;
            o += 1;
        }
        r += MRQ;
    }
    // Remainder rows: per-row sweep (same accumulation order).
    while r < n {
        let xr = &x[r * in_dim..][..in_dim];
        for o in 0..out_dim {
            let mut acc = 0.0f32;
            for i in 0..in_dim {
                acc += wt[i * out_dim + o] * xr[i].widen();
            }
            let b = if ACC { y[r * out_dim + o] } else { 0.0 };
            y[r * out_dim + o] = b + acc * scale[o];
        }
        r += 1;
    }
}

// ---------------------------------------------------------------------------
// Multi-column (batched right-hand-side) kernels
// ---------------------------------------------------------------------------
//
// The batched inference path threads `b` independent right-hand sides through
// one panel sweep.  Activations live in **column-interleaved panels**: a
// `n × dim` matrix of length-`b` element groups, so column `c`'s value of
// element `(r, i)` sits at `x[(r*dim + i)*b + c]`.  Every weight element is
// loaded once and broadcast across the `b` columns — that single load serving
// `b` multiply-adds is where the bandwidth amortisation comes from.
//
// **Determinism contract, batched form:** each column's output element still
// accumulates its dot product strictly in ascending `i` order from its
// initial value, with a separate multiply and add per term.  Column `c` of a
// batched panel is therefore bit-identical to the row-major kernel run on
// column `c` alone, at every batch width `b`.
//
// At `b = 1` the column-interleaved panel *is* the row-major matrix, so the
// batched entry points hand it straight to the row-major cores above: their
// 4×4 (f64) and 4×8-lane (f32/int8) register tiles keep 16 accumulator
// chains and the SIMD axpy in play, where a 1-column panel tile would run
// 4 chains (f64) or scalar code (f32/int8).  Both keep the ascending-`i`
// order, so the dispatch changes no result bit.

/// Widest column group handled by one register tile; wider batches sweep in
/// chunks of this size (chunking over `c` never reorders any column's
/// accumulation).
const B_CHUNK: usize = 8;

/// `Y = X Wᵀ + bias` over a column-interleaved `n × in_dim × b` panel.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bias_into_b(
    x: &[f64],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    b: usize,
    weight: &[f64],
    bias: &[f64],
    y: &mut [f64],
) {
    debug_assert_eq!(bias.len(), out_dim);
    gemm_b_core::<false>(x, n, in_dim, out_dim, b, weight, bias, y);
}

/// `Y = X Wᵀ` over a column-interleaved panel (outputs start from zero).
pub fn gemm_into_b(
    x: &[f64],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    b: usize,
    weight: &[f64],
    y: &mut [f64],
) {
    gemm_b_core::<false>(x, n, in_dim, out_dim, b, weight, &[], y);
}

/// `Y += X Wᵀ` over a column-interleaved panel (accumulates onto `Y`).
pub fn gemm_acc_into_b(
    x: &[f64],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    b: usize,
    weight: &[f64],
    y: &mut [f64],
) {
    gemm_b_core::<true>(x, n, in_dim, out_dim, b, weight, &[], y);
}

#[allow(clippy::too_many_arguments)]
fn gemm_b_core<const ACC: bool>(
    x: &[f64],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    b: usize,
    weight: &[f64],
    bias: &[f64],
    y: &mut [f64],
) {
    debug_assert_eq!(x.len(), n * in_dim * b);
    debug_assert_eq!(weight.len(), out_dim * in_dim);
    debug_assert_eq!(y.len(), n * out_dim * b);
    if b == 1 {
        return gemm_core::<ACC>(x, n, in_dim, out_dim, weight, bias, y);
    }
    let mut c0 = 0;
    while c0 + B_CHUNK <= b {
        gemm_b_panel::<B_CHUNK, ACC>(x, n, in_dim, out_dim, b, c0, weight, bias, y);
        c0 += B_CHUNK;
    }
    match b - c0 {
        1 => gemm_b_panel::<1, ACC>(x, n, in_dim, out_dim, b, c0, weight, bias, y),
        2 => gemm_b_panel::<2, ACC>(x, n, in_dim, out_dim, b, c0, weight, bias, y),
        3 => gemm_b_panel::<3, ACC>(x, n, in_dim, out_dim, b, c0, weight, bias, y),
        4 => gemm_b_panel::<4, ACC>(x, n, in_dim, out_dim, b, c0, weight, bias, y),
        5 => gemm_b_panel::<5, ACC>(x, n, in_dim, out_dim, b, c0, weight, bias, y),
        6 => gemm_b_panel::<6, ACC>(x, n, in_dim, out_dim, b, c0, weight, bias, y),
        7 => gemm_b_panel::<7, ACC>(x, n, in_dim, out_dim, b, c0, weight, bias, y),
        _ => {}
    }
}

/// Process columns `[c0, c0 + B)` of the batched f64 GEMM: a 4-row panel
/// whose register tile is `B` columns wide per output; the weight scalar is
/// loaded once per `(o, i)` and broadcast over all `B` columns.
#[allow(clippy::too_many_arguments)]
fn gemm_b_panel<const B: usize, const ACC: bool>(
    x: &[f64],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    b: usize,
    c0: usize,
    weight: &[f64],
    bias: &[f64],
    y: &mut [f64],
) {
    let init = |y: &[f64], r: usize, o: usize| -> [f64; B] {
        let mut t = [0.0; B];
        if ACC {
            t.copy_from_slice(&y[(r * out_dim + o) * b + c0..][..B]);
        } else if !bias.is_empty() {
            t.fill(bias[o]);
        }
        t
    };
    let row_w = in_dim * b;
    let mr_end = n - n % MR;
    let mut r = 0;
    while r < mr_end {
        let x0 = &x[r * row_w..][..row_w];
        let x1 = &x[(r + 1) * row_w..][..row_w];
        let x2 = &x[(r + 2) * row_w..][..row_w];
        let x3 = &x[(r + 3) * row_w..][..row_w];
        for o in 0..out_dim {
            let w = &weight[o * in_dim..][..in_dim];
            let mut a0 = init(y, r, o);
            let mut a1 = init(y, r + 1, o);
            let mut a2 = init(y, r + 2, o);
            let mut a3 = init(y, r + 3, o);
            for (i, &q) in w.iter().enumerate() {
                let p0: &[f64; B] = head(&x0[i * b + c0..]);
                let p1: &[f64; B] = head(&x1[i * b + c0..]);
                let p2: &[f64; B] = head(&x2[i * b + c0..]);
                let p3: &[f64; B] = head(&x3[i * b + c0..]);
                for c in 0..B {
                    a0[c] += q * p0[c];
                    a1[c] += q * p1[c];
                    a2[c] += q * p2[c];
                    a3[c] += q * p3[c];
                }
            }
            y[(r * out_dim + o) * b + c0..][..B].copy_from_slice(&a0);
            y[((r + 1) * out_dim + o) * b + c0..][..B].copy_from_slice(&a1);
            y[((r + 2) * out_dim + o) * b + c0..][..B].copy_from_slice(&a2);
            y[((r + 3) * out_dim + o) * b + c0..][..B].copy_from_slice(&a3);
        }
        r += MR;
    }
    while r < n {
        let xr = &x[r * row_w..][..row_w];
        for o in 0..out_dim {
            let w = &weight[o * in_dim..][..in_dim];
            let mut a = init(y, r, o);
            for (i, &q) in w.iter().enumerate() {
                let p: &[f64; B] = head(&xr[i * b + c0..]);
                for c in 0..B {
                    a[c] += q * p[c];
                }
            }
            y[(r * out_dim + o) * b + c0..][..B].copy_from_slice(&a);
        }
        r += 1;
    }
}

/// `Y = X Wᵀ + bias` over a column-interleaved f32 panel with a transposed
/// (`in_dim × out_dim`) weight.
#[allow(clippy::too_many_arguments)]
pub fn gemm_t_bias_into_f32_b(
    x: &[f32],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    b: usize,
    wt: &[f32],
    bias: &[f32],
    y: &mut [f32],
) {
    debug_assert_eq!(bias.len(), out_dim);
    gemm_tb_core_f32::<false>(x, n, in_dim, out_dim, b, wt, bias, y);
}

/// `Y = X Wᵀ` over a column-interleaved f32 panel (outputs start from zero).
pub fn gemm_t_into_f32_b(
    x: &[f32],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    b: usize,
    wt: &[f32],
    y: &mut [f32],
) {
    gemm_tb_core_f32::<false>(x, n, in_dim, out_dim, b, wt, &[], y);
}

/// `Y += X Wᵀ` over a column-interleaved f32 panel (accumulates onto `Y`).
pub fn gemm_t_acc_into_f32_b(
    x: &[f32],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    b: usize,
    wt: &[f32],
    y: &mut [f32],
) {
    gemm_tb_core_f32::<true>(x, n, in_dim, out_dim, b, wt, &[], y);
}

#[allow(clippy::too_many_arguments)]
fn gemm_tb_core_f32<const ACC: bool>(
    x: &[f32],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    b: usize,
    wt: &[f32],
    bias: &[f32],
    y: &mut [f32],
) {
    debug_assert_eq!(x.len(), n * in_dim * b);
    debug_assert_eq!(wt.len(), in_dim * out_dim);
    debug_assert_eq!(y.len(), n * out_dim * b);
    if b == 1 {
        return gemm_t_core_f32::<ACC>(x, n, in_dim, out_dim, wt, bias, y);
    }
    let mut c0 = 0;
    while c0 + B_CHUNK <= b {
        gemm_tb_panel_f32::<B_CHUNK, ACC>(x, n, in_dim, out_dim, b, c0, wt, bias, y);
        c0 += B_CHUNK;
    }
    match b - c0 {
        1 => gemm_tb_panel_f32::<1, ACC>(x, n, in_dim, out_dim, b, c0, wt, bias, y),
        2 => gemm_tb_panel_f32::<2, ACC>(x, n, in_dim, out_dim, b, c0, wt, bias, y),
        3 => gemm_tb_panel_f32::<3, ACC>(x, n, in_dim, out_dim, b, c0, wt, bias, y),
        4 => gemm_tb_panel_f32::<4, ACC>(x, n, in_dim, out_dim, b, c0, wt, bias, y),
        5 => gemm_tb_panel_f32::<5, ACC>(x, n, in_dim, out_dim, b, c0, wt, bias, y),
        6 => gemm_tb_panel_f32::<6, ACC>(x, n, in_dim, out_dim, b, c0, wt, bias, y),
        7 => gemm_tb_panel_f32::<7, ACC>(x, n, in_dim, out_dim, b, c0, wt, bias, y),
        _ => {}
    }
}

/// Columns `[c0, c0 + B)` of the batched f32 GEMM over a transposed weight:
/// the weight scalar `wt[i][o]` is loaded once and broadcast across the `B`
/// columns of a 4-row register panel.
#[allow(clippy::too_many_arguments)]
fn gemm_tb_panel_f32<const B: usize, const ACC: bool>(
    x: &[f32],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    b: usize,
    c0: usize,
    wt: &[f32],
    bias: &[f32],
    y: &mut [f32],
) {
    let init = |y: &[f32], r: usize, o: usize| -> [f32; B] {
        let mut t = [0.0f32; B];
        if ACC {
            t.copy_from_slice(&y[(r * out_dim + o) * b + c0..][..B]);
        } else if !bias.is_empty() {
            t.fill(bias[o]);
        }
        t
    };
    let row_w = in_dim * b;
    let mr_end = n - n % MR32;
    let mut r = 0;
    while r < mr_end {
        let x0 = &x[r * row_w..][..row_w];
        let x1 = &x[(r + 1) * row_w..][..row_w];
        let x2 = &x[(r + 2) * row_w..][..row_w];
        let x3 = &x[(r + 3) * row_w..][..row_w];
        for o in 0..out_dim {
            let mut a0 = init(y, r, o);
            let mut a1 = init(y, r + 1, o);
            let mut a2 = init(y, r + 2, o);
            let mut a3 = init(y, r + 3, o);
            for i in 0..in_dim {
                let q = wt[i * out_dim + o];
                let p0: &[f32; B] = head(&x0[i * b + c0..]);
                let p1: &[f32; B] = head(&x1[i * b + c0..]);
                let p2: &[f32; B] = head(&x2[i * b + c0..]);
                let p3: &[f32; B] = head(&x3[i * b + c0..]);
                for c in 0..B {
                    a0[c] += q * p0[c];
                    a1[c] += q * p1[c];
                    a2[c] += q * p2[c];
                    a3[c] += q * p3[c];
                }
            }
            y[(r * out_dim + o) * b + c0..][..B].copy_from_slice(&a0);
            y[((r + 1) * out_dim + o) * b + c0..][..B].copy_from_slice(&a1);
            y[((r + 2) * out_dim + o) * b + c0..][..B].copy_from_slice(&a2);
            y[((r + 3) * out_dim + o) * b + c0..][..B].copy_from_slice(&a3);
        }
        r += MR32;
    }
    while r < n {
        let xr = &x[r * row_w..][..row_w];
        for o in 0..out_dim {
            let mut a = init(y, r, o);
            for i in 0..in_dim {
                let q = wt[i * out_dim + o];
                let p: &[f32; B] = head(&xr[i * b + c0..]);
                for c in 0..B {
                    a[c] += q * p[c];
                }
            }
            y[(r * out_dim + o) * b + c0..][..B].copy_from_slice(&a);
        }
        r += 1;
    }
}

/// `Y = (X Qᵀ) ∘ scale` over a column-interleaved panel with a transposed
/// int8 weight (outputs start from zero; see [`gemm_t_into_i8`]).
#[allow(clippy::too_many_arguments)]
pub fn gemm_t_into_i8_b(
    x: &[f32],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    b: usize,
    wq: &[i8],
    scale: &[f32],
    wbuf: &mut Vec<f32>,
    y: &mut [f32],
) {
    gemm_tb_core_i8::<f32, false>(x, n, in_dim, out_dim, b, wq, scale, wbuf, y);
}

/// `Y += (X Qᵀ) ∘ scale` over a column-interleaved panel (accumulates).
#[allow(clippy::too_many_arguments)]
pub fn gemm_t_acc_into_i8_b(
    x: &[f32],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    b: usize,
    wq: &[i8],
    scale: &[f32],
    wbuf: &mut Vec<f32>,
    y: &mut [f32],
) {
    gemm_tb_core_i8::<f32, true>(x, n, in_dim, out_dim, b, wq, scale, wbuf, y);
}

/// [`gemm_t_acc_into_i8_b`] with **bf16 activations** (the stored per-node
/// hidden-sum panels), decoded on load.
#[allow(clippy::too_many_arguments)]
pub fn gemm_t_acc_into_i8_bf16_b(
    x: &[u16],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    b: usize,
    wq: &[i8],
    scale: &[f32],
    wbuf: &mut Vec<f32>,
    y: &mut [f32],
) {
    gemm_tb_core_i8::<u16, true>(x, n, in_dim, out_dim, b, wq, scale, wbuf, y);
}

#[allow(clippy::too_many_arguments)]
fn gemm_tb_core_i8<E: QuantActivation, const ACC: bool>(
    x: &[E],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    b: usize,
    wq: &[i8],
    scale: &[f32],
    wbuf: &mut Vec<f32>,
    y: &mut [f32],
) {
    debug_assert_eq!(x.len(), n * in_dim * b);
    debug_assert_eq!(wq.len(), in_dim * out_dim);
    debug_assert_eq!(scale.len(), out_dim);
    debug_assert_eq!(y.len(), n * out_dim * b);
    if b == 1 {
        return gemm_t_core_i8::<E, ACC>(x, n, in_dim, out_dim, wq, scale, wbuf, y);
    }
    // Widen the int8 weight to f32 once per call, like the row-major core.
    wbuf.clear();
    wbuf.extend(wq.iter().map(|&q| q as f32));
    let mut c0 = 0;
    while c0 + B_CHUNK <= b {
        gemm_tb_panel_i8::<E, B_CHUNK, ACC>(x, n, in_dim, out_dim, b, c0, wbuf, scale, y);
        c0 += B_CHUNK;
    }
    match b - c0 {
        1 => gemm_tb_panel_i8::<E, 1, ACC>(x, n, in_dim, out_dim, b, c0, wbuf, scale, y),
        2 => gemm_tb_panel_i8::<E, 2, ACC>(x, n, in_dim, out_dim, b, c0, wbuf, scale, y),
        3 => gemm_tb_panel_i8::<E, 3, ACC>(x, n, in_dim, out_dim, b, c0, wbuf, scale, y),
        4 => gemm_tb_panel_i8::<E, 4, ACC>(x, n, in_dim, out_dim, b, c0, wbuf, scale, y),
        5 => gemm_tb_panel_i8::<E, 5, ACC>(x, n, in_dim, out_dim, b, c0, wbuf, scale, y),
        6 => gemm_tb_panel_i8::<E, 6, ACC>(x, n, in_dim, out_dim, b, c0, wbuf, scale, y),
        7 => gemm_tb_panel_i8::<E, 7, ACC>(x, n, in_dim, out_dim, b, c0, wbuf, scale, y),
        _ => {}
    }
}

/// Columns `[c0, c0 + B)` of the batched int8 GEMM: zero-initialised f32
/// accumulation in ascending `i` order, per-output scale applied once after
/// the sweep — `y = base + acc · scale[o]` per column, exactly like the
/// unbatched quantised core.
#[allow(clippy::too_many_arguments)]
fn gemm_tb_panel_i8<E: QuantActivation, const B: usize, const ACC: bool>(
    x: &[E],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    b: usize,
    c0: usize,
    wt: &[f32],
    scale: &[f32],
    y: &mut [f32],
) {
    let row_w = in_dim * b;
    let store = |y: &mut [f32], r: usize, o: usize, a: &[f32; B], s: f32| {
        let yr = &mut y[(r * out_dim + o) * b + c0..][..B];
        for c in 0..B {
            let base = if ACC { yr[c] } else { 0.0 };
            yr[c] = base + a[c] * s;
        }
    };
    let mr_end = n - n % MRQ;
    let mut r = 0;
    while r < mr_end {
        let x0 = &x[r * row_w..][..row_w];
        let x1 = &x[(r + 1) * row_w..][..row_w];
        let x2 = &x[(r + 2) * row_w..][..row_w];
        let x3 = &x[(r + 3) * row_w..][..row_w];
        for o in 0..out_dim {
            let mut a0 = [0.0f32; B];
            let mut a1 = [0.0f32; B];
            let mut a2 = [0.0f32; B];
            let mut a3 = [0.0f32; B];
            for i in 0..in_dim {
                let q = wt[i * out_dim + o];
                let p0 = &x0[i * b + c0..][..B];
                let p1 = &x1[i * b + c0..][..B];
                let p2 = &x2[i * b + c0..][..B];
                let p3 = &x3[i * b + c0..][..B];
                for c in 0..B {
                    a0[c] += q * p0[c].widen();
                    a1[c] += q * p1[c].widen();
                    a2[c] += q * p2[c].widen();
                    a3[c] += q * p3[c].widen();
                }
            }
            let s = scale[o];
            store(y, r, o, &a0, s);
            store(y, r + 1, o, &a1, s);
            store(y, r + 2, o, &a2, s);
            store(y, r + 3, o, &a3, s);
        }
        r += MRQ;
    }
    while r < n {
        let xr = &x[r * row_w..][..row_w];
        for o in 0..out_dim {
            let mut a = [0.0f32; B];
            for i in 0..in_dim {
                let q = wt[i * out_dim + o];
                let p = &xr[i * b + c0..][..B];
                for c in 0..B {
                    a[c] += q * p[c].widen();
                }
            }
            store(y, r, o, &a, scale[o]);
        }
        r += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[allow(clippy::too_many_arguments)]
    fn naive(
        x: &[f64],
        n: usize,
        in_dim: usize,
        out_dim: usize,
        weight: &[f64],
        bias: &[f64],
        y0: &[f64],
        acc: bool,
    ) -> Vec<f64> {
        let mut y = vec![0.0; n * out_dim];
        for r in 0..n {
            for o in 0..out_dim {
                let mut a = if acc {
                    y0[r * out_dim + o]
                } else if bias.is_empty() {
                    0.0
                } else {
                    bias[o]
                };
                for i in 0..in_dim {
                    a += weight[o * in_dim + i] * x[r * in_dim + i];
                }
                y[r * out_dim + o] = a;
            }
        }
        y
    }

    #[test]
    fn blocked_matches_naive_bit_for_bit_across_shapes() {
        let mut rng = StdRng::seed_from_u64(42);
        // Cover every tile-remainder combination: n and out_dim spanning 0..2
        // full tiles plus partials, in_dim from empty to odd sizes.
        for &n in &[0usize, 1, 2, 3, 4, 5, 7, 8, 9, 16, 23] {
            for &out_dim in &[1usize, 2, 3, 4, 5, 8, 10, 13] {
                for &in_dim in &[0usize, 1, 3, 10, 23, 31] {
                    let x: Vec<f64> = (0..n * in_dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
                    let w: Vec<f64> =
                        (0..out_dim * in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let b: Vec<f64> = (0..out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();

                    let mut y = vec![0.0; n * out_dim];
                    gemm_bias_into(&x, n, in_dim, out_dim, &w, &b, &mut y);
                    assert_eq!(y, naive(&x, n, in_dim, out_dim, &w, &b, &[], false));

                    let mut y = vec![0.0; n * out_dim];
                    gemm_into(&x, n, in_dim, out_dim, &w, &mut y);
                    assert_eq!(y, naive(&x, n, in_dim, out_dim, &w, &[], &[], false));

                    let y0: Vec<f64> = (0..n * out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let mut y = y0.clone();
                    gemm_acc_into(&x, n, in_dim, out_dim, &w, &mut y);
                    assert_eq!(y, naive(&x, n, in_dim, out_dim, &w, &[], &y0, true));
                }
            }
        }
    }

    #[test]
    fn accumulate_composes_with_bias_init() {
        // bias-init followed by two accumulations equals the fused sum the
        // plan path relies on: Ψ pre-activation = c-term + Σ GEMM terms.
        let n = 6;
        let (din, dout) = (5, 4);
        let mut rng = StdRng::seed_from_u64(7);
        let xa: Vec<f64> = (0..n * din).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let xb: Vec<f64> = (0..n * din).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let wa: Vec<f64> = (0..dout * din).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let wb: Vec<f64> = (0..dout * din).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let bias: Vec<f64> = (0..dout).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut y = vec![0.0; n * dout];
        gemm_bias_into(&xa, n, din, dout, &wa, &bias, &mut y);
        gemm_acc_into(&xb, n, din, dout, &wb, &mut y);
        let first = naive(&xa, n, din, dout, &wa, &bias, &[], false);
        let both = naive(&xb, n, din, dout, &wb, &[], &first, true);
        assert_eq!(y, both);
    }

    #[allow(clippy::too_many_arguments)]
    fn naive_f32(
        x: &[f32],
        n: usize,
        in_dim: usize,
        out_dim: usize,
        wt: &[f32],
        bias: &[f32],
        y0: &[f32],
        acc: bool,
    ) -> Vec<f32> {
        let mut y = vec![0.0f32; n * out_dim];
        for r in 0..n {
            for o in 0..out_dim {
                let mut a = if acc {
                    y0[r * out_dim + o]
                } else if bias.is_empty() {
                    0.0
                } else {
                    bias[o]
                };
                for i in 0..in_dim {
                    a += wt[i * out_dim + o] * x[r * in_dim + i];
                }
                y[r * out_dim + o] = a;
            }
        }
        y
    }

    #[test]
    fn f32_panel_matches_naive_bit_for_bit_across_shapes() {
        let mut rng = StdRng::seed_from_u64(17);
        // Span full/partial 4-row panels and full/partial 8-lane column tiles.
        for &n in &[0usize, 1, 3, 4, 5, 8, 9, 17] {
            for &out_dim in &[1usize, 2, 7, 8, 9, 10, 16, 19] {
                for &in_dim in &[0usize, 1, 3, 10, 23] {
                    let x: Vec<f32> =
                        (0..n * in_dim).map(|_| rng.gen_range(-2.0..2.0) as f32).collect();
                    let wt: Vec<f32> =
                        (0..in_dim * out_dim).map(|_| rng.gen_range(-1.0..1.0) as f32).collect();
                    let b: Vec<f32> =
                        (0..out_dim).map(|_| rng.gen_range(-1.0..1.0) as f32).collect();

                    let mut y = vec![0.0f32; n * out_dim];
                    gemm_t_bias_into_f32(&x, n, in_dim, out_dim, &wt, &b, &mut y);
                    assert_eq!(y, naive_f32(&x, n, in_dim, out_dim, &wt, &b, &[], false));

                    let mut y = vec![0.0f32; n * out_dim];
                    gemm_t_into_f32(&x, n, in_dim, out_dim, &wt, &mut y);
                    assert_eq!(y, naive_f32(&x, n, in_dim, out_dim, &wt, &[], &[], false));

                    let y0: Vec<f32> =
                        (0..n * out_dim).map(|_| rng.gen_range(-1.0..1.0) as f32).collect();
                    let mut y = y0.clone();
                    gemm_t_acc_into_f32(&x, n, in_dim, out_dim, &wt, &mut y);
                    assert_eq!(y, naive_f32(&x, n, in_dim, out_dim, &wt, &[], &y0, true));
                }
            }
        }
    }

    #[test]
    fn f32_kernel_tracks_f64_kernel_closely() {
        // The f32 kernels must agree with their f64 counterparts to single
        // precision: same math, different rounding.
        let mut rng = StdRng::seed_from_u64(29);
        let (n, in_dim, out_dim) = (13, 10, 10);
        let x: Vec<f64> = (0..n * in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let w: Vec<f64> = (0..out_dim * in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut y64 = vec![0.0; n * out_dim];
        gemm_bias_into(&x, n, in_dim, out_dim, &w, &b, &mut y64);

        let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
        // Transpose the row-major out×in weight into in×out.
        let mut wt = vec![0.0f32; in_dim * out_dim];
        for o in 0..out_dim {
            for i in 0..in_dim {
                wt[i * out_dim + o] = w[o * in_dim + i] as f32;
            }
        }
        let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
        let mut y32 = vec![0.0f32; n * out_dim];
        gemm_t_bias_into_f32(&x32, n, in_dim, out_dim, &wt, &b32, &mut y32);
        for (a, b) in y32.iter().zip(y64.iter()) {
            assert!((*a as f64 - b).abs() < 1e-5, "f32 {a} vs f64 {b}");
        }
    }

    #[test]
    fn bf16_roundtrip_properties() {
        // Values representable in 8 mantissa bits survive the roundtrip
        // exactly.
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 96.0, -0.015625, 1.5] {
            assert_eq!(bf16_to_f32(f32_to_bf16(v)), v, "exact value {v} must roundtrip");
        }
        // Rounding is to nearest: the roundtrip error is bounded by half a
        // bf16 ulp (2⁻⁸ relative).
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..2000 {
            let v = rng.gen_range(-100.0..100.0) as f32;
            let r = bf16_to_f32(f32_to_bf16(v));
            assert!(
                (r - v).abs() <= v.abs() * (1.0 / 256.0),
                "bf16 roundtrip of {v} gave {r} (error too large)"
            );
        }
        // Ties round to even (truncation alone would keep the odd mantissa).
        let odd = f32::from_bits(0x3f81_8000); // mantissa …1, tie
        assert_eq!(f32_to_bf16(odd), 0x3f82, "ties must round to even");
        // Specials stay what they are.
        assert_eq!(bf16_to_f32(f32_to_bf16(f32::INFINITY)), f32::INFINITY);
        assert_eq!(bf16_to_f32(f32_to_bf16(f32::NEG_INFINITY)), f32::NEG_INFINITY);
        assert!(bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan(), "NaN must stay NaN");
        // Overflow saturates to infinity like IEEE round-to-nearest.
        assert_eq!(bf16_to_f32(f32_to_bf16(f32::MAX)), f32::INFINITY);
    }

    #[test]
    fn bf16_gather_and_store_roundtrip() {
        let src: Vec<f32> = (0..37).map(|i| (i as f32 - 18.0) * 0.37).collect();
        let mut packed = vec![0u16; src.len()];
        store_bf16(&src, &mut packed);
        let mut back = vec![0.0f32; src.len()];
        gather_bf16(&packed, &mut back);
        for (a, b) in back.iter().zip(src.iter()) {
            assert!((a - b).abs() <= b.abs() * (1.0 / 256.0) + 1e-9);
        }
    }

    /// Reference for the int8 kernels: per-output scaled dot product over the
    /// widened quantised weight, plus the initial value.
    #[allow(clippy::too_many_arguments)]
    fn naive_i8(
        x: &[f32],
        n: usize,
        in_dim: usize,
        out_dim: usize,
        wq: &[i8],
        scale: &[f32],
        y0: &[f32],
        acc: bool,
    ) -> Vec<f32> {
        let mut y = vec![0.0f32; n * out_dim];
        for r in 0..n {
            for o in 0..out_dim {
                let mut a = 0.0f32;
                for i in 0..in_dim {
                    a += (wq[i * out_dim + o] as f32) * x[r * in_dim + i];
                }
                let base = if acc { y0[r * out_dim + o] } else { 0.0 };
                y[r * out_dim + o] = base + a * scale[o];
            }
        }
        y
    }

    #[test]
    fn i8_panel_matches_naive_bit_for_bit_across_shapes() {
        let mut rng = StdRng::seed_from_u64(53);
        let mut wbuf = Vec::new();
        for &n in &[0usize, 1, 3, 4, 5, 8, 9, 17] {
            for &out_dim in &[1usize, 2, 7, 8, 9, 10, 16, 20] {
                for &in_dim in &[0usize, 1, 3, 10, 23] {
                    let x: Vec<f32> =
                        (0..n * in_dim).map(|_| rng.gen_range(-2.0..2.0) as f32).collect();
                    let wq: Vec<i8> =
                        (0..in_dim * out_dim).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
                    let scale: Vec<f32> =
                        (0..out_dim).map(|_| rng.gen_range(0.001..0.1) as f32).collect();

                    let mut y = vec![0.0f32; n * out_dim];
                    gemm_t_into_i8(&x, n, in_dim, out_dim, &wq, &scale, &mut wbuf, &mut y);
                    assert_eq!(y, naive_i8(&x, n, in_dim, out_dim, &wq, &scale, &[], false));

                    let y0: Vec<f32> =
                        (0..n * out_dim).map(|_| rng.gen_range(-1.0..1.0) as f32).collect();
                    let mut y = y0.clone();
                    gemm_t_acc_into_i8(&x, n, in_dim, out_dim, &wq, &scale, &mut wbuf, &mut y);
                    assert_eq!(y, naive_i8(&x, n, in_dim, out_dim, &wq, &scale, &y0, true));

                    // bf16-activation variant: decode the packed input first
                    // and the result must match the f32 kernel on the decoded
                    // values bit-for-bit.
                    let packed: Vec<u16> = x.iter().map(|&v| f32_to_bf16(v)).collect();
                    let decoded: Vec<f32> = packed.iter().map(|&b| bf16_to_f32(b)).collect();
                    let mut y = y0.clone();
                    gemm_t_acc_into_i8_bf16(
                        &packed, n, in_dim, out_dim, &wq, &scale, &mut wbuf, &mut y,
                    );
                    assert_eq!(y, naive_i8(&decoded, n, in_dim, out_dim, &wq, &scale, &y0, true));
                }
            }
        }
    }

    #[test]
    fn i8_kernel_tracks_f32_kernel_within_quantisation_error() {
        // Quantise an f32 weight per output column and check the int8 kernel
        // stays within the expected quantisation error of the exact product.
        let mut rng = StdRng::seed_from_u64(61);
        let (n, in_dim, out_dim) = (13, 10, 10);
        let x: Vec<f32> = (0..n * in_dim).map(|_| rng.gen_range(-1.0..1.0) as f32).collect();
        let wt: Vec<f32> = (0..in_dim * out_dim).map(|_| rng.gen_range(-1.0..1.0) as f32).collect();
        let mut wq = vec![0i8; wt.len()];
        let mut scale = vec![0.0f32; out_dim];
        for o in 0..out_dim {
            let amax = (0..in_dim).map(|i| wt[i * out_dim + o].abs()).fold(0.0f32, f32::max);
            let s = if amax == 0.0 { 1.0 } else { amax / 127.0 };
            scale[o] = s;
            for i in 0..in_dim {
                wq[i * out_dim + o] = (wt[i * out_dim + o] / s).round().clamp(-127.0, 127.0) as i8;
            }
        }
        let mut exact = vec![0.0f32; n * out_dim];
        gemm_t_into_f32(&x, n, in_dim, out_dim, &wt, &mut exact);
        let mut quant = vec![0.0f32; n * out_dim];
        let mut wbuf = Vec::new();
        gemm_t_into_i8(&x, n, in_dim, out_dim, &wq, &scale, &mut wbuf, &mut quant);
        // Worst case per output: in_dim · (scale/2) · max|x|.
        for (r, (q, e)) in quant.iter().zip(exact.iter()).enumerate() {
            let bound = in_dim as f32 * scale[r % out_dim] * 0.5 * 1.0 + 1e-6;
            assert!((q - e).abs() <= bound, "int8 {q} vs f32 {e} (bound {bound})");
        }
    }

    /// Interleave `b` column matrices (each `rows × dim`) into one
    /// column-interleaved panel `rows × dim × b`.
    fn interleave<T: Copy + Default>(cols: &[Vec<T>], rows: usize, dim: usize) -> Vec<T> {
        let b = cols.len();
        let mut panel = vec![T::default(); rows * dim * b];
        for (c, col) in cols.iter().enumerate() {
            for e in 0..rows * dim {
                panel[e * b + c] = col[e];
            }
        }
        panel
    }

    fn extract_column<T: Copy + Default>(panel: &[T], b: usize, c: usize) -> Vec<T> {
        panel.iter().skip(c).step_by(b).copied().collect()
    }

    #[test]
    fn batched_f64_columns_bit_identical_to_unbatched() {
        let mut rng = StdRng::seed_from_u64(91);
        // b = 1 takes the row-major core; b ≡ 1 (mod 8) (here 9) is what
        // reaches the 1-column remainder panel.
        for &b in &[1usize, 2, 3, 5, 8, 9, 11] {
            for &(n, in_dim, out_dim) in
                &[(0usize, 3usize, 2usize), (1, 10, 10), (5, 10, 20), (9, 20, 10), (23, 7, 5)]
            {
                let xs: Vec<Vec<f64>> = (0..b)
                    .map(|_| (0..n * in_dim).map(|_| rng.gen_range(-2.0..2.0)).collect())
                    .collect();
                let w: Vec<f64> = (0..out_dim * in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let bias: Vec<f64> = (0..out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let y0s: Vec<Vec<f64>> = (0..b)
                    .map(|_| (0..n * out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
                    .collect();
                let xp = interleave(&xs, n, in_dim);

                let mut yp = vec![0.0; n * out_dim * b];
                gemm_bias_into_b(&xp, n, in_dim, out_dim, b, &w, &bias, &mut yp);
                for c in 0..b {
                    let mut y = vec![0.0; n * out_dim];
                    gemm_bias_into(&xs[c], n, in_dim, out_dim, &w, &bias, &mut y);
                    assert_eq!(extract_column(&yp, b, c), y, "bias b={b} c={c}");
                }

                let mut yp = vec![0.0; n * out_dim * b];
                gemm_into_b(&xp, n, in_dim, out_dim, b, &w, &mut yp);
                for c in 0..b {
                    let mut y = vec![0.0; n * out_dim];
                    gemm_into(&xs[c], n, in_dim, out_dim, &w, &mut y);
                    assert_eq!(extract_column(&yp, b, c), y, "zero-init b={b} c={c}");
                }

                let mut yp = interleave(&y0s, n, out_dim);
                gemm_acc_into_b(&xp, n, in_dim, out_dim, b, &w, &mut yp);
                for c in 0..b {
                    let mut y = y0s[c].clone();
                    gemm_acc_into(&xs[c], n, in_dim, out_dim, &w, &mut y);
                    assert_eq!(extract_column(&yp, b, c), y, "acc b={b} c={c}");
                }
            }
        }
    }

    #[test]
    fn batched_f32_columns_bit_identical_to_unbatched() {
        let mut rng = StdRng::seed_from_u64(92);
        for &b in &[1usize, 2, 4, 7, 8, 9] {
            for &(n, in_dim, out_dim) in
                &[(1usize, 10usize, 10usize), (4, 20, 10), (9, 10, 20), (17, 9, 13)]
            {
                let xs: Vec<Vec<f32>> = (0..b)
                    .map(|_| (0..n * in_dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
                    .collect();
                let wt: Vec<f32> =
                    (0..in_dim * out_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let bias: Vec<f32> = (0..out_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let y0s: Vec<Vec<f32>> = (0..b)
                    .map(|_| (0..n * out_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                    .collect();
                let xp = interleave(&xs, n, in_dim);

                let mut yp = vec![0.0f32; n * out_dim * b];
                gemm_t_bias_into_f32_b(&xp, n, in_dim, out_dim, b, &wt, &bias, &mut yp);
                for c in 0..b {
                    let mut y = vec![0.0f32; n * out_dim];
                    gemm_t_bias_into_f32(&xs[c], n, in_dim, out_dim, &wt, &bias, &mut y);
                    assert_eq!(extract_column(&yp, b, c), y, "f32 bias b={b} c={c}");
                }

                let mut yp = interleave(&y0s, n, out_dim);
                gemm_t_acc_into_f32_b(&xp, n, in_dim, out_dim, b, &wt, &mut yp);
                for c in 0..b {
                    let mut y = y0s[c].clone();
                    gemm_t_acc_into_f32(&xs[c], n, in_dim, out_dim, &wt, &mut y);
                    assert_eq!(extract_column(&yp, b, c), y, "f32 acc b={b} c={c}");
                }
            }
        }
    }

    #[test]
    fn batched_i8_columns_bit_identical_to_unbatched() {
        let mut rng = StdRng::seed_from_u64(93);
        // b = 9 reaches the 1-column remainder panel (b = 1 does not).
        for &b in &[1usize, 3, 8, 9] {
            for &(n, in_dim, out_dim) in &[(1usize, 10usize, 10usize), (6, 20, 10), (13, 10, 20)] {
                let xs: Vec<Vec<f32>> = (0..b)
                    .map(|_| (0..n * in_dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
                    .collect();
                let wq: Vec<i8> =
                    (0..in_dim * out_dim).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
                let scale: Vec<f32> = (0..out_dim).map(|_| rng.gen_range(0.001f32..0.02)).collect();
                let y0s: Vec<Vec<f32>> = (0..b)
                    .map(|_| (0..n * out_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                    .collect();
                let xp = interleave(&xs, n, in_dim);
                let mut wbuf = Vec::new();

                let mut yp = vec![0.0f32; n * out_dim * b];
                gemm_t_into_i8_b(&xp, n, in_dim, out_dim, b, &wq, &scale, &mut wbuf, &mut yp);
                for c in 0..b {
                    let mut y = vec![0.0f32; n * out_dim];
                    gemm_t_into_i8(&xs[c], n, in_dim, out_dim, &wq, &scale, &mut wbuf, &mut y);
                    assert_eq!(extract_column(&yp, b, c), y, "i8 b={b} c={c}");
                }

                let mut yp = interleave(&y0s, n, out_dim);
                gemm_t_acc_into_i8_b(&xp, n, in_dim, out_dim, b, &wq, &scale, &mut wbuf, &mut yp);
                for c in 0..b {
                    let mut y = y0s[c].clone();
                    gemm_t_acc_into_i8(&xs[c], n, in_dim, out_dim, &wq, &scale, &mut wbuf, &mut y);
                    assert_eq!(extract_column(&yp, b, c), y, "i8 acc b={b} c={c}");
                }

                // bf16 activations: the per-element decode must commute with
                // batching as well.
                let xbs: Vec<Vec<u16>> =
                    xs.iter().map(|col| col.iter().map(|&v| f32_to_bf16(v)).collect()).collect();
                let xbp = interleave(&xbs, n, in_dim);
                let mut yp = interleave(&y0s, n, out_dim);
                gemm_t_acc_into_i8_bf16_b(
                    &xbp, n, in_dim, out_dim, b, &wq, &scale, &mut wbuf, &mut yp,
                );
                for c in 0..b {
                    let mut y = y0s[c].clone();
                    gemm_t_acc_into_i8_bf16(
                        &xbs[c], n, in_dim, out_dim, &wq, &scale, &mut wbuf, &mut y,
                    );
                    assert_eq!(extract_column(&yp, b, c), y, "i8/bf16 b={b} c={c}");
                }
            }
        }
    }
}
