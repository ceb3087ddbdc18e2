//! Register-blocked GEMM micro-kernels, in two families.
//!
//! * **The row-major training core** ([`gemm_bias_into`]) computes
//!   `Y = X Wᵀ + bias` on row-major batches: `X` is `n × in_dim`, `W` is
//!   `out_dim × in_dim` (one weight row per output).  It serves every dense
//!   layer of training and of the reference forward pass.
//! * **The transposed inference family** ([`gemm_t`]) stores the weight
//!   `in_dim × out_dim` (one row per *input* feature), so for every
//!   shared-axis step `i` the outputs' weights are contiguous and the inner
//!   loop is a lane-wide axpy.  It is generic over the scalar ([`Real`]:
//!   f64 or f32), over the stored activation element ([`Widen`]: the scalar
//!   itself, or bf16 packed in a `u16`) and over the epilogue ([`Init`],
//!   plus int8's per-output scale).  Activations are column-interleaved
//!   panels of `b` right-hand sides (`x[(r·in_dim + i)·b + c]`).
//!
//! The batch dimension `n` is large (one row per node of a sub-domain graph)
//! while `in_dim`/`out_dim` are small (the latent dimension `d ≈ 10`), so both
//! families panel over the batch: a register tile of 4 rows walks the shared
//! `in_dim` axis once, keeping many independent accumulator chains in flight
//! while the weight panel stays resident in cache.
//!
//! **Determinism contract:** every output element accumulates its dot product
//! strictly in ascending `i` order from its initial value, with a separate
//! multiply and add per term.  Blocking only regroups *independent* output
//! elements, and transposing the weight only swaps the operands of a
//! commutative multiply, so the results are bit-identical to the scalar
//! triple loop — at every tile shape, every batch width, and in either
//! weight layout.

use std::fmt::Debug;
use std::ops::{Add, AddAssign, Mul};

/// Batch rows per register tile.
const MR: usize = 4;
/// Output columns per register tile of the row-major core.
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

/// `Y = X Wᵀ + bias` on row-major batches (each output starts from its bias).
///
/// A register tile of `MR × NR` accumulators gives `MR·NR` multiply-adds per
/// `MR + NR` loads and `MR·NR` independent dependency chains (the naive
/// row-by-row GEMV has a single serial add chain per output).
pub fn gemm_bias_into(
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
    debug_assert_eq!(bias.len(), out_dim);
    debug_assert_eq!(y.len(), n * out_dim);

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
            let mut a00 = bias[o];
            let mut a01 = bias[o + 1];
            let mut a02 = bias[o + 2];
            let mut a03 = bias[o + 3];
            let mut a10 = bias[o];
            let mut a11 = bias[o + 1];
            let mut a12 = bias[o + 2];
            let mut a13 = bias[o + 3];
            let mut a20 = bias[o];
            let mut a21 = bias[o + 1];
            let mut a22 = bias[o + 2];
            let mut a23 = bias[o + 3];
            let mut a30 = bias[o];
            let mut a31 = bias[o + 1];
            let mut a32 = bias[o + 2];
            let mut a33 = bias[o + 3];
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
            let mut a0 = bias[o];
            let mut a1 = bias[o];
            let mut a2 = bias[o];
            let mut a3 = bias[o];
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
            let mut acc = bias[o];
            for i in 0..in_dim {
                acc += w[i] * xr[i];
            }
            y[r * out_dim + o] = acc;
        }
        r += 1;
    }
}

/// Scalar of the transposed kernels: the activation and accumulator type of
/// an inference engine (f64 or f32).
pub trait Real:
    Copy + Default + Debug + Send + Sync + 'static + Add<Output = Self> + Mul<Output = Self> + AddAssign
{
    /// Output lanes of the `b = 1` register tile: 32 bytes (4 f64 or 8 f32).
    const LANES: usize;
    /// Additive identity.
    const ZERO: Self;
    /// Round an f64 to this type.
    fn from_f64(v: f64) -> Self;
    /// Widen to f64.
    fn to_f64(self) -> f64;
    /// `max(self, 0)`; like `f64::max`, a NaN maps to 0.
    fn relu(self) -> Self;
}

macro_rules! impl_real {
    ($t:ty, $lanes:expr) => {
        impl Real for $t {
            const LANES: usize = $lanes;
            const ZERO: Self = 0.0;
            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn relu(self) -> Self {
                self.max(0.0)
            }
        }
    };
}
impl_real!(f64, 4);
impl_real!(f32, 8);

/// Stored activation element of the transposed kernels, widened to the
/// accumulator type `T` on load: the scalar itself, or a bf16 value packed in
/// a `u16` (a 16-bit shift, amortised across every output lane of a tile).
pub trait Widen<T>: Copy + Default + Debug + Send + Sync + 'static {
    /// The element as an accumulator value.
    fn widen(self) -> T;
}

impl<T: Real> Widen<T> for T {
    #[inline(always)]
    fn widen(self) -> T {
        self
    }
}

impl Widen<f32> for u16 {
    #[inline(always)]
    fn widen(self) -> f32 {
        bf16_to_f32(self)
    }
}

/// Convert an `f32` to bf16 (`u16`: the sign, the 8 exponent bits and the top
/// 7 mantissa bits) with round-to-nearest-even.
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

/// Where every output's accumulation in [`gemm_t`] starts.
#[derive(Debug, Clone, Copy)]
pub enum Init<'a, T> {
    /// Zero.
    Zero,
    /// The output's bias `bias[o]`.
    Bias(&'a [T]),
    /// The output's current value in `Y` (accumulate onto it).
    Acc,
}

/// Widest column group handled by one batched register tile; wider batches
/// sweep in chunks of this size (chunking over `c` never reorders any
/// column's accumulation).
const B_CHUNK: usize = 8;

/// `Y = init + X W` over column-interleaved panels, with `W` transposed
/// (`in_dim × out_dim`): `x` is `n × in_dim × b`, `y` is `n × out_dim × b`.
///
/// Without a `scale`, each output starts from its [`Init`] value and adds
/// `xᵢ · w[i][o]` in ascending `i`.  With a per-output `scale` (int8 weights
/// widened to `T`), the sum starts from zero and the epilogue writes
/// `init + sum · scale[o]`, so dequantisation is one multiply per output.
///
/// At `b = 1` the panel is the row-major matrix and the tile is 4 rows ×
/// [`Real::LANES`] contiguous outputs (then half-width and single-output
/// tiles for the remainder): each `xᵢ` is broadcast across the lanes.  At
/// `b > 1` the tile is 4 rows × one output × up to 8 columns: each weight is
/// loaded once and broadcast across the columns, which is where batching
/// saves bandwidth.  Column `c` of a batched result is bit-identical to the
/// `b = 1` call on column `c` alone.
#[allow(clippy::too_many_arguments)]
pub fn gemm_t<T: Real, X: Widen<T>>(
    x: &[X],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    b: usize,
    wt: &[T],
    init: Init<'_, T>,
    scale: Option<&[T]>,
    y: &mut [T],
) {
    debug_assert_eq!(x.len(), n * in_dim * b);
    debug_assert_eq!(wt.len(), in_dim * out_dim);
    debug_assert_eq!(y.len(), n * out_dim * b);
    debug_assert!(scale.is_none_or(|s| s.len() == out_dim));
    debug_assert!(match init {
        Init::Bias(bias) => bias.len() == out_dim,
        _ => true,
    });
    let (bias, acc): (&[T], bool) = match init {
        Init::Zero => (&[], false),
        Init::Bias(bias) => (bias, false),
        Init::Acc => (&[], true),
    };
    // The epilogue is resolved here, once, into const parameters, so no tile
    // branches on it.
    match (acc, scale) {
        (false, None) => {
            Kernel::<T, X, false, false> { x, in_dim, out_dim, b, wt, bias, scale: &[] }.run(n, y)
        }
        (true, None) => {
            Kernel::<T, X, true, false> { x, in_dim, out_dim, b, wt, bias, scale: &[] }.run(n, y)
        }
        (false, Some(scale)) => {
            Kernel::<T, X, false, true> { x, in_dim, out_dim, b, wt, bias, scale }.run(n, y)
        }
        (true, Some(scale)) => {
            Kernel::<T, X, true, true> { x, in_dim, out_dim, b, wt, bias, scale }.run(n, y)
        }
    }
}

/// Operands of one [`gemm_t`] call, with its epilogue as const parameters:
/// `ACC` starts each output from its value in `Y` (else from `bias`, or zero
/// when `bias` is empty); `SCALED` sums from zero and applies `scale`.
struct Kernel<'a, T, X, const ACC: bool, const SCALED: bool> {
    x: &'a [X],
    in_dim: usize,
    out_dim: usize,
    b: usize,
    wt: &'a [T],
    bias: &'a [T],
    scale: &'a [T],
}

impl<T: Real, X: Widen<T>, const ACC: bool, const SCALED: bool> Kernel<'_, T, X, ACC, SCALED> {
    fn run(&self, n: usize, y: &mut [T]) {
        let b = self.b;
        if b == 1 {
            if T::LANES == 8 {
                self.sweep::<8, 4, false>(n, 0, y);
            } else {
                self.sweep::<4, 2, false>(n, 0, y);
            }
            return;
        }
        let mut c0 = 0;
        while c0 + B_CHUNK <= b {
            self.sweep::<B_CHUNK, 1, true>(n, c0, y);
            c0 += B_CHUNK;
        }
        match b - c0 {
            1 => self.sweep::<1, 1, true>(n, c0, y),
            2 => self.sweep::<2, 1, true>(n, c0, y),
            3 => self.sweep::<3, 1, true>(n, c0, y),
            4 => self.sweep::<4, 1, true>(n, c0, y),
            5 => self.sweep::<5, 1, true>(n, c0, y),
            6 => self.sweep::<6, 1, true>(n, c0, y),
            7 => self.sweep::<7, 1, true>(n, c0, y),
            _ => {}
        }
    }

    /// Every row, in 4-row panels and then single rows.  A column sweep
    /// (`COLS`) covers columns `c0..c0 + N` of each output in turn; a lane
    /// sweep (`b = 1`) covers the outputs in `N`-wide tiles, then `H`-wide,
    /// then one at a time.
    fn sweep<const N: usize, const H: usize, const COLS: bool>(
        &self,
        n: usize,
        c0: usize,
        y: &mut [T],
    ) {
        let mut r = 0;
        while r + MR <= n {
            self.panel::<MR, N, H, COLS>(r, c0, y);
            r += MR;
        }
        while r < n {
            self.panel::<1, N, H, COLS>(r, c0, y);
            r += 1;
        }
    }

    #[inline(always)]
    fn panel<const R: usize, const N: usize, const H: usize, const COLS: bool>(
        &self,
        r: usize,
        c0: usize,
        y: &mut [T],
    ) {
        // Row slices of exactly `in_dim · b` elements (a lane sweep has
        // `b = 1`) let the bounds checks hoist out of the inner loop.
        let row_w = if COLS { self.in_dim * self.b } else { self.in_dim };
        let xs: [&[X]; R] = std::array::from_fn(|rr| &self.x[(r + rr) * row_w..][..row_w]);
        if COLS {
            for o in 0..self.out_dim {
                self.tile::<R, N, true>(&xs, r, o, c0, y);
            }
            return;
        }
        let mut o = 0;
        while o + N <= self.out_dim {
            self.tile::<R, N, false>(&xs, r, o, 0, y);
            o += N;
        }
        while o + H <= self.out_dim {
            self.tile::<R, H, false>(&xs, r, o, 0, y);
            o += H;
        }
        while o < self.out_dim {
            self.tile::<R, 1, false>(&xs, r, o, 0, y);
            o += 1;
        }
    }

    /// One register tile of `R` rows × `N` contiguous `Y` elements: the
    /// outputs `o..o + N` of a `b = 1` row (a lane tile, `xᵢ` broadcast), or
    /// columns `c0..c0 + N` of output `o` (a column tile, `w[i][o]`
    /// broadcast).
    #[inline(always)]
    fn tile<const R: usize, const N: usize, const COLS: bool>(
        &self,
        xs: &[&[X]; R],
        r: usize,
        o: usize,
        c0: usize,
        y: &mut [T],
    ) {
        let (b, out_dim) = (self.b, self.out_dim);
        // Where row `rr`'s run starts in `Y`.
        let at = |rr: usize| {
            if COLS {
                ((r + rr) * out_dim + o) * b + c0
            } else {
                (r + rr) * out_dim + o
            }
        };
        let mut a = [[T::ZERO; N]; R];
        if !SCALED {
            for rr in 0..R {
                a[rr] = self.base::<N, COLS>(y, at(rr), o);
            }
        }
        for i in 0..self.in_dim {
            if COLS {
                let q = self.wt[i * out_dim + o];
                for rr in 0..R {
                    let p: &[X; N] = head(&xs[rr][i * b + c0..]);
                    for k in 0..N {
                        a[rr][k] += q * p[k].widen();
                    }
                }
            } else {
                let w: &[T; N] = head(&self.wt[i * out_dim + o..]);
                let s: [T; R] = std::array::from_fn(|rr| xs[rr][i].widen());
                for rr in 0..R {
                    for k in 0..N {
                        a[rr][k] += s[rr] * w[k];
                    }
                }
            }
        }
        for rr in 0..R {
            if SCALED {
                let base = self.base::<N, COLS>(y, at(rr), o);
                let s = self.scale;
                let s: [T; N] = if COLS { [s[o]; N] } else { *head(&s[o..]) };
                for k in 0..N {
                    a[rr][k] = base[k] + a[rr][k] * s[k];
                }
            }
            *head_mut(&mut y[at(rr)..]) = a[rr];
        }
    }

    /// Initial values of the `N` outputs stored at `y[at..at + N]`: output
    /// `o` in every column of a column tile, outputs `o..o + N` of a lane
    /// tile.
    #[inline(always)]
    fn base<const N: usize, const COLS: bool>(&self, y: &[T], at: usize, o: usize) -> [T; N] {
        if ACC {
            *head(&y[at..])
        } else if self.bias.is_empty() {
            [T::ZERO; N]
        } else if COLS {
            [self.bias[o]; N]
        } else {
            *head(&self.bias[o..])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// Reference for row-major weights: each output from its initial value
    /// (`y0` when `acc`, else the bias or zero), ascending `i`.
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

    /// Row-major `out × in` → the transposed kernels' `in × out`.
    fn transpose<T: Copy + Default>(w: &[T], out_dim: usize, in_dim: usize) -> Vec<T> {
        let mut wt = vec![T::default(); w.len()];
        for o in 0..out_dim {
            for i in 0..in_dim {
                wt[i * out_dim + o] = w[o * in_dim + i];
            }
        }
        wt
    }

    /// `Init` for a naive-reference triple (`acc`, `bias`).
    fn init_of<T>(bias: &[T], acc: bool) -> Init<'_, T> {
        match (acc, bias.is_empty()) {
            (true, _) => Init::Acc,
            (false, true) => Init::Zero,
            (false, false) => Init::Bias(bias),
        }
    }

    #[test]
    fn blocked_matches_naive_bit_for_bit_across_shapes() {
        let mut rng = StdRng::seed_from_u64(42);
        // Cover every tile-remainder combination: n and out_dim spanning 0..2
        // full tiles plus partials, in_dim from empty to odd sizes.  The
        // transposed f64 kernel on `Wᵀ` must agree with the row-major core
        // and the reference bit for bit.
        for &n in &[0usize, 1, 2, 3, 4, 5, 7, 8, 9, 16, 23] {
            for &out_dim in &[1usize, 2, 3, 4, 5, 8, 10, 13, 20] {
                for &in_dim in &[0usize, 1, 3, 10, 23, 31] {
                    let x: Vec<f64> = (0..n * in_dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
                    let w: Vec<f64> =
                        (0..out_dim * in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let wt = transpose(&w, out_dim, in_dim);
                    let b: Vec<f64> = (0..out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let y0: Vec<f64> = (0..n * out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();

                    let expected = naive(&x, n, in_dim, out_dim, &w, &b, &[], false);
                    let mut y = vec![0.0; n * out_dim];
                    gemm_bias_into(&x, n, in_dim, out_dim, &w, &b, &mut y);
                    assert_eq!(y, expected);

                    for (bias, acc) in [(&b[..], false), (&[][..], false), (&[][..], true)] {
                        let mut y = y0.clone();
                        gemm_t(&x, n, in_dim, out_dim, 1, &wt, init_of(bias, acc), None, &mut y);
                        assert_eq!(y, naive(&x, n, in_dim, out_dim, &w, bias, &y0, acc));
                    }
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
        let (wat, wbt) = (transpose(&wa, dout, din), transpose(&wb, dout, din));
        gemm_t(&xa, n, din, dout, 1, &wat, Init::Bias(&bias), None, &mut y);
        gemm_t(&xb, n, din, dout, 1, &wbt, Init::Acc, None, &mut y);
        let first = naive(&xa, n, din, dout, &wa, &bias, &[], false);
        let both = naive(&xb, n, din, dout, &wb, &[], &first, true);
        assert_eq!(y, both);
    }

    /// Reference for transposed f32 weights.
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
        // Span full/partial 4-row panels and full/half/single-lane tiles.
        for &n in &[0usize, 1, 3, 4, 5, 8, 9, 17] {
            for &out_dim in &[1usize, 2, 7, 8, 9, 10, 16, 19, 20] {
                for &in_dim in &[0usize, 1, 3, 10, 23] {
                    let x: Vec<f32> =
                        (0..n * in_dim).map(|_| rng.gen_range(-2.0..2.0) as f32).collect();
                    let wt: Vec<f32> =
                        (0..in_dim * out_dim).map(|_| rng.gen_range(-1.0..1.0) as f32).collect();
                    let b: Vec<f32> =
                        (0..out_dim).map(|_| rng.gen_range(-1.0..1.0) as f32).collect();
                    let y0: Vec<f32> =
                        (0..n * out_dim).map(|_| rng.gen_range(-1.0..1.0) as f32).collect();
                    for (bias, acc) in [(&b[..], false), (&[][..], false), (&[][..], true)] {
                        let mut y = y0.clone();
                        gemm_t(&x, n, in_dim, out_dim, 1, &wt, init_of(bias, acc), None, &mut y);
                        assert_eq!(y, naive_f32(&x, n, in_dim, out_dim, &wt, bias, &y0, acc));
                    }
                }
            }
        }
    }

    #[test]
    fn f32_kernel_tracks_f64_kernel_closely() {
        // The f32 kernel must agree with the f64 one to single precision:
        // same math, different rounding.
        let mut rng = StdRng::seed_from_u64(29);
        let (n, in_dim, out_dim) = (13, 10, 10);
        let x: Vec<f64> = (0..n * in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let w: Vec<f64> = (0..out_dim * in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut y64 = vec![0.0; n * out_dim];
        gemm_bias_into(&x, n, in_dim, out_dim, &w, &b, &mut y64);

        let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
        let wt: Vec<f32> = transpose(&w, out_dim, in_dim).iter().map(|&v| v as f32).collect();
        let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
        let mut y32 = vec![0.0f32; n * out_dim];
        gemm_t(&x32, n, in_dim, out_dim, 1, &wt, Init::Bias(&b32), None, &mut y32);
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
        // A row stored as bf16 and widened back on load (the kernels'
        // `Widen` path) stays within half a bf16 ulp.
        let src: Vec<f32> = (0..37).map(|i| (i as f32 - 18.0) * 0.37).collect();
        let packed: Vec<u16> = src.iter().map(|&v| f32_to_bf16(v)).collect();
        for (&p, &s) in packed.iter().zip(src.iter()) {
            let back: f32 = p.widen();
            assert!((back - s).abs() <= s.abs() * (1.0 / 256.0) + 1e-9);
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

    fn widen_i8(wq: &[i8]) -> Vec<f32> {
        wq.iter().map(|&q| q as f32).collect()
    }

    #[test]
    fn i8_panel_matches_naive_bit_for_bit_across_shapes() {
        let mut rng = StdRng::seed_from_u64(53);
        for &n in &[0usize, 1, 3, 4, 5, 8, 9, 17] {
            for &out_dim in &[1usize, 2, 7, 8, 9, 10, 16, 20] {
                for &in_dim in &[0usize, 1, 3, 10, 23] {
                    let x: Vec<f32> =
                        (0..n * in_dim).map(|_| rng.gen_range(-2.0..2.0) as f32).collect();
                    let wq: Vec<i8> =
                        (0..in_dim * out_dim).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
                    let scale: Vec<f32> =
                        (0..out_dim).map(|_| rng.gen_range(0.001..0.1) as f32).collect();
                    let w = widen_i8(&wq);

                    let mut y = vec![0.0f32; n * out_dim];
                    gemm_t(&x, n, in_dim, out_dim, 1, &w, Init::Zero, Some(&scale), &mut y);
                    assert_eq!(y, naive_i8(&x, n, in_dim, out_dim, &wq, &scale, &[], false));

                    let y0: Vec<f32> =
                        (0..n * out_dim).map(|_| rng.gen_range(-1.0..1.0) as f32).collect();
                    let mut y = y0.clone();
                    gemm_t(&x, n, in_dim, out_dim, 1, &w, Init::Acc, Some(&scale), &mut y);
                    assert_eq!(y, naive_i8(&x, n, in_dim, out_dim, &wq, &scale, &y0, true));

                    // bf16 activations: decode the packed input first and the
                    // result must match the f32 input on the decoded values
                    // bit-for-bit.
                    let packed: Vec<u16> = x.iter().map(|&v| f32_to_bf16(v)).collect();
                    let decoded: Vec<f32> = packed.iter().map(|&b| bf16_to_f32(b)).collect();
                    let mut y = y0.clone();
                    gemm_t(&packed, n, in_dim, out_dim, 1, &w, Init::Acc, Some(&scale), &mut y);
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
        gemm_t(&x, n, in_dim, out_dim, 1, &wt, Init::Zero, None, &mut exact);
        let mut quant = vec![0.0f32; n * out_dim];
        gemm_t(&x, n, in_dim, out_dim, 1, &widen_i8(&wq), Init::Zero, Some(&scale), &mut quant);
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
        // b = 1 takes the lane tiles; b ≡ 1 (mod 8) (here 9) is what reaches
        // the 1-column remainder panel.
        for &b in &[1usize, 2, 3, 5, 8, 9, 11] {
            for &(n, in_dim, out_dim) in
                &[(0usize, 3usize, 2usize), (1, 10, 10), (5, 10, 20), (9, 20, 10), (23, 7, 5)]
            {
                let xs: Vec<Vec<f64>> = (0..b)
                    .map(|_| (0..n * in_dim).map(|_| rng.gen_range(-2.0..2.0)).collect())
                    .collect();
                let w: Vec<f64> = (0..out_dim * in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let wt = transpose(&w, out_dim, in_dim);
                let bias: Vec<f64> = (0..out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let y0s: Vec<Vec<f64>> = (0..b)
                    .map(|_| (0..n * out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
                    .collect();
                let xp = interleave(&xs, n, in_dim);
                for (bias, acc) in [(&bias[..], false), (&[][..], false), (&[][..], true)] {
                    let mut yp = interleave(&y0s, n, out_dim);
                    gemm_t(&xp, n, in_dim, out_dim, b, &wt, init_of(bias, acc), None, &mut yp);
                    for c in 0..b {
                        let expected = naive(&xs[c], n, in_dim, out_dim, &w, bias, &y0s[c], acc);
                        assert_eq!(extract_column(&yp, b, c), expected, "b={b} c={c} acc={acc}");
                    }
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
                for (bias, acc) in [(&bias[..], false), (&[][..], true)] {
                    let mut yp = interleave(&y0s, n, out_dim);
                    gemm_t(&xp, n, in_dim, out_dim, b, &wt, init_of(bias, acc), None, &mut yp);
                    for c in 0..b {
                        let mut y = y0s[c].clone();
                        gemm_t(
                            &xs[c],
                            n,
                            in_dim,
                            out_dim,
                            1,
                            &wt,
                            init_of(bias, acc),
                            None,
                            &mut y,
                        );
                        assert_eq!(extract_column(&yp, b, c), y, "f32 b={b} c={c} acc={acc}");
                        let expected =
                            naive_f32(&xs[c], n, in_dim, out_dim, &wt, bias, &y0s[c], acc);
                        assert_eq!(y, expected, "f32 b=1 c={c} acc={acc}");
                    }
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
                let w = widen_i8(&wq);
                let scale: Vec<f32> = (0..out_dim).map(|_| rng.gen_range(0.001f32..0.02)).collect();
                let y0s: Vec<Vec<f32>> = (0..b)
                    .map(|_| (0..n * out_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                    .collect();
                let xp = interleave(&xs, n, in_dim);
                for (init, acc) in [(Init::Zero, false), (Init::Acc, true)] {
                    let mut yp = interleave(&y0s, n, out_dim);
                    gemm_t(&xp, n, in_dim, out_dim, b, &w, init, Some(&scale), &mut yp);
                    for c in 0..b {
                        let expected =
                            naive_i8(&xs[c], n, in_dim, out_dim, &wq, &scale, &y0s[c], acc);
                        assert_eq!(extract_column(&yp, b, c), expected, "i8 b={b} c={c} acc={acc}");
                    }
                }

                // bf16 activations: the per-element decode must commute with
                // batching as well.
                let xbs: Vec<Vec<u16>> =
                    xs.iter().map(|col| col.iter().map(|&v| f32_to_bf16(v)).collect()).collect();
                let xbp = interleave(&xbs, n, in_dim);
                let mut yp = interleave(&y0s, n, out_dim);
                gemm_t(&xbp, n, in_dim, out_dim, b, &w, Init::Acc, Some(&scale), &mut yp);
                for c in 0..b {
                    let decoded: Vec<f32> = xbs[c].iter().map(|&v| bf16_to_f32(v)).collect();
                    let expected =
                        naive_i8(&decoded, n, in_dim, out_dim, &wq, &scale, &y0s[c], true);
                    assert_eq!(extract_column(&yp, b, c), expected, "i8/bf16 b={b} c={c}");
                }
            }
        }
    }
}
