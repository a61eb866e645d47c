//! im2col/col2im convolution primitives (NCHW layout), and the batch-wide
//! lowering every quire-backend convolution runs through.
//!
//! Under [`crate::Backend::PositQuire`] a convolution is one GEMM per
//! direction over the whole batch, gathered from a plane that is encoded
//! once per *input element* (not once per unfolded column element, which
//! repeats each input `KH·KW` times). `P(·)` is elementwise and `0.0`
//! encodes to the zero element, so "encode then gather" equals "gather
//! then encode"; the exact accumulator makes every sum independent of how
//! the batch is grouped. The lowering is therefore bit-identical to a
//! per-sample im2col GEMM loop.

use crate::posit_gemm::{PositGemm, PositPlane, Unpacked, ZERO_ELEM};
use crate::tensor::Tensor;
use crate::{Backend, GradQuireBuf, Operand, PreparedOperand, Transpose};
use std::sync::OnceLock;

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub c: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvGeom {
    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.h + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// Rows of the im2col matrix: `C*KH*KW`.
    pub fn col_rows(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Columns of the im2col matrix: `OH*OW`.
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Elements of one `[C,H,W]` input sample.
    fn sample_len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Input row of kernel row `ki` at output row `oy`, if inside the
    /// unpadded input.
    #[inline]
    fn in_y(&self, oy: usize, ki: usize) -> Option<usize> {
        (oy * self.stride + ki)
            .checked_sub(self.pad)
            .filter(|&iy| iy < self.h)
    }

    /// Input column of kernel column `kj` at output column `ox`, if inside
    /// the unpadded input.
    #[inline]
    fn in_x(&self, ox: usize, kj: usize) -> Option<usize> {
        (ox * self.stride + kj)
            .checked_sub(self.pad)
            .filter(|&ix| ix < self.w)
    }
}

/// Unfold one `[C,H,W]` sample into the `C*KH*KW` rows of a column matrix
/// with leading dimension `ld`, starting at column `off` — im2col over any
/// element type, writing into a batch-wide `[C*KH*KW, N*OH*OW]` matrix.
fn unfold<T: Copy>(input: &[T], g: &ConvGeom, zero: T, col: &mut [T], ld: usize, off: usize) {
    debug_assert_eq!(input.len(), g.sample_len());
    let (oh, ow) = (g.out_h(), g.out_w());
    for c in 0..g.c {
        let plane = &input[c * g.h * g.w..(c + 1) * g.h * g.w];
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let row = (c * g.kh + ki) * g.kw + kj;
                let dst = &mut col[row * ld + off..row * ld + off + oh * ow];
                for oy in 0..oh {
                    let dst_row = &mut dst[oy * ow..(oy + 1) * ow];
                    let Some(iy) = g.in_y(oy, ki) else {
                        dst_row.fill(zero);
                        continue;
                    };
                    let src_row = &plane[iy * g.w..(iy + 1) * g.w];
                    for (ox, d) in dst_row.iter_mut().enumerate() {
                        *d = g.in_x(ox, kj).map_or(zero, |ix| src_row[ix]);
                    }
                }
            }
        }
    }
}

/// Fold the `C*KH*KW` rows of a column matrix with leading dimension `ld`,
/// starting at column `off`, back into a `[C,H,W]` sample, *accumulating*
/// overlapping contributions (the adjoint of [`unfold`]).
fn fold(col: &[f32], ld: usize, off: usize, g: &ConvGeom, output: &mut [f32]) {
    debug_assert_eq!(output.len(), g.sample_len());
    let (oh, ow) = (g.out_h(), g.out_w());
    for c in 0..g.c {
        let plane = &mut output[c * g.h * g.w..(c + 1) * g.h * g.w];
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let row = (c * g.kh + ki) * g.kw + kj;
                let src = &col[row * ld + off..row * ld + off + oh * ow];
                for oy in 0..oh {
                    let Some(iy) = g.in_y(oy, ki) else { continue };
                    let dst_row = &mut plane[iy * g.w..(iy + 1) * g.w];
                    for ox in 0..ow {
                        if let Some(ix) = g.in_x(ox, kj) {
                            dst_row[ix] += src[oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
}

/// Unfold one `[C,H,W]` sample into the `[C*KH*KW, OH*OW]` column matrix.
pub fn im2col(input: &[f32], g: &ConvGeom, col: &mut [f32]) {
    debug_assert_eq!(col.len(), g.col_rows() * g.col_cols());
    unfold(input, g, 0.0, col, g.col_cols(), 0);
}

/// Fold a `[C*KH*KW, OH*OW]` column matrix back into a `[C,H,W]` sample,
/// *accumulating* overlapping contributions (the adjoint of [`im2col`]).
pub fn col2im(col: &[f32], g: &ConvGeom, output: &mut [f32]) {
    debug_assert_eq!(col.len(), g.col_rows() * g.col_cols());
    fold(col, g.col_cols(), 0, g, output);
}

/// Append one `[C,H,W]` sample's receptive fields to `panel` as `OH*OW`
/// rows of `C*KH*KW` elements — the transposed unfold, already in the
/// `Bᵀ` panel layout [`PositGemm::gemm`] reads under [`Transpose::B`], so
/// the forward GEMM packs it into words in storage order, with no
/// transpose.
fn gather_patches(input: &[Unpacked], g: &ConvGeom, panel: &mut Vec<Unpacked>) {
    debug_assert_eq!(input.len(), g.sample_len());
    for oy in 0..g.out_h() {
        for ox in 0..g.out_w() {
            for c in 0..g.c {
                let plane = &input[c * g.h * g.w..(c + 1) * g.h * g.w];
                for ki in 0..g.kh {
                    let Some(iy) = g.in_y(oy, ki) else {
                        panel.resize(panel.len() + g.kw, ZERO_ELEM);
                        continue;
                    };
                    let src_row = &plane[iy * g.w..(iy + 1) * g.w];
                    panel.extend(
                        (0..g.kw).map(|kj| g.in_x(ox, kj).map_or(ZERO_ELEM, |ix| src_row[ix])),
                    );
                }
            }
        }
    }
}

/// Byte budget of one gathered operand panel in the lowered quire
/// convolutions: samples are processed in blocks whose panel stays under
/// it. Exact accumulation makes every block size bit-identical, so this
/// bounds memory only — a quire-backend ResNet's whole-batch panels would
/// otherwise reach tens of MB.
const PANEL_BYTES: usize = 8 << 20;

/// Samples per lowered block under [`PANEL_BYTES`] (at least one).
fn block_samples(g: &ConvGeom) -> usize {
    let per_sample = g.col_rows() * g.col_cols() * std::mem::size_of::<Unpacked>();
    (PANEL_BYTES / per_sample.max(1)).max(1)
}

/// Count one lowered (batch-wide) quire convolution call in the
/// `tensor.conv.lowered_calls` counter (no-op while telemetry is off).
fn note_lowered_call() {
    static LOWERED: OnceLock<posit_obs::Counter> = OnceLock::new();
    if posit_obs::enabled() {
        LOWERED
            .get_or_init(|| posit_obs::Registry::global().counter("tensor.conv.lowered_calls"))
            .incr();
    }
}

/// Forward convolution on the f32 kernels: input `[N,C,H,W]`, weight
/// `[O,C,KH,KW]`, optional bias `[O]` → output `[N,O,OH,OW]`. Other
/// backends go through [`conv2d_prepared`].
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let w_prep = Backend::F32.prepare(weight.operand());
    conv2d_prepared(&w_prep, weight.shape(), input, bias, stride, pad)
}

/// Forward convolution under the backend a weight operand was prepared
/// with (`weight_shape` is its `[O,C,KH,KW]` shape): prepare once per call
/// with [`crate::Backend::prepare`], or once per weight update
/// with [`crate::Backend::prepare_tensor_cached`]. A posit-packed weight
/// matching a [`crate::Backend::PositQuire`] format is decoded straight
/// from its code words.
///
/// The f32 and emulated backends run one im2col GEMM per sample. The
/// quire backend lowers the batch instead: the input is encoded once
/// under the kernel's format and rounding, its decoded elements are
/// gathered straight into the `[N·OH·OW, C·KH·KW]` panel, and one GEMM
/// per block of samples runs before the scatter to `[N,O,OH,OW]`. A
/// packed input is decoded to f32 and re-encoded, exactly as a per-sample
/// unfold would see it: its Eq. 2 scale is not folded into the gathered
/// elements.
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn conv2d_prepared(
    w_prep: &PreparedOperand<'_>,
    weight_shape: &[usize],
    input: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let ish = input.shape();
    assert_eq!(ish.len(), 4, "input must be NCHW");
    assert_eq!(weight_shape.len(), 4, "weight must be OCKK");
    assert_eq!(ish[1], weight_shape[1], "channel mismatch");
    let (n, o) = (ish[0], weight_shape[0]);
    let g = ConvGeom {
        c: ish[1],
        h: ish[2],
        w: ish[3],
        kh: weight_shape[2],
        kw: weight_shape[3],
        stride,
        pad,
    };
    let mut out = Tensor::zeros(&[n, o, g.out_h(), g.out_w()]);
    let input = input.dense();
    if let Some((kernel, w_plane)) = w_prep.quire_parts() {
        let x = kernel.encode_plane(input.data());
        forward_lowered(
            kernel,
            w_plane,
            o,
            &g,
            &x,
            bias,
            out.data_mut(),
            block_samples(&g),
        );
        return out;
    }
    let (rows, cols) = (g.col_rows(), g.col_cols());
    let backend = w_prep.backend();
    let mut col = vec![0.0f32; rows * cols];
    let sample = g.sample_len();
    for (x, dst) in input
        .data()
        .chunks_exact(sample)
        .zip(out.data_mut().chunks_exact_mut(o * cols))
    {
        im2col(x, &g, &mut col);
        let col_prep = backend.prepare(Operand::F32(&col));
        w_prep.gemm(Transpose::None, o, rows, cols, &col_prep, dst);
        add_bias(dst, bias, cols);
    }
    out
}

/// `dst[oc, ·] += bias[oc]` over one `[O, cols]` output sample.
fn add_bias(dst: &mut [f32], bias: Option<&[f32]>, cols: usize) {
    if let Some(b) = bias {
        for (row, &bv) in dst.chunks_exact_mut(cols).zip(b) {
            for v in row {
                *v += bv;
            }
        }
    }
}

/// The lowered quire forward over an encoded `[N,C,H,W]` input plane, in
/// blocks of `block` samples: gather, one [`Transpose::B`] GEMM, scatter +
/// bias.
#[allow(clippy::too_many_arguments)]
fn forward_lowered(
    kernel: &PositGemm,
    w_plane: &PositPlane,
    o: usize,
    g: &ConvGeom,
    x: &PositPlane,
    bias: Option<&[f32]>,
    out: &mut [f32],
    block: usize,
) {
    note_lowered_call();
    let (rows, cols, sample) = (g.col_rows(), g.col_cols(), g.sample_len());
    let blocks = x
        .elems()
        .chunks(block * sample)
        .zip(out.chunks_mut(block * o * cols));
    for (xs, outs) in blocks {
        let nb = xs.len() / sample;
        let width = nb * cols;
        let mut panel = Vec::with_capacity(width * rows);
        for xi in xs.chunks_exact(sample) {
            gather_patches(xi, g, &mut panel);
        }
        let panel = PositPlane::from_elems(kernel.format(), 0, panel);
        let mut y = vec![0.0f32; o * width];
        kernel.gemm(Transpose::B, o, rows, width, w_plane, &panel, &mut y);
        for (bi, dst) in outs.chunks_exact_mut(o * cols).enumerate() {
            for (oc, d) in dst.chunks_exact_mut(cols).enumerate() {
                d.copy_from_slice(&y[oc * width + bi * cols..][..cols]);
            }
            add_bias(dst, bias, cols);
        }
    }
}

/// The batch-wide backward of a quire-backend convolution under the exact
/// shard protocol: input `[N,C,H,W]` (the forward's input), `grad_out`
/// `[N,O,OH,OW]`.
///
/// - `ΔW += dY·colᵀ` accumulates into `dw` (`O × C·KH·KW` accumulators)
///   and `Δb += Σ dY` into `db` (`O` accumulators), with dY permuted to
///   `[O, N·OH·OW]` and the input — encoded once under `backend` — gathered
///   to `[C·KH·KW, N·OH·OW]`;
/// - with a `weight` (the `[O, C·KH·KW]` weight prepared under `backend`),
///   `dX` is one [`Transpose::A`] GEMM per block of samples followed by
///   col2im per sample, returned as `[N,C,H,W]`; without one no input
///   gradient is computed (`None`).
///
/// Every value is bit-identical to a per-sample loop feeding the same
/// buffers, whatever the batch's shard split: the buffers sum exactly and
/// each `dX` element is one rounded dot product.
///
/// # Panics
///
/// Panics if `backend` is not [`Backend::PositQuire`], if `weight` was
/// prepared under another backend, or on shape/buffer mismatches.
pub fn conv2d_backward_exact(
    backend: Backend,
    g: &ConvGeom,
    input: &Tensor,
    grad_out: &Tensor,
    dw: &mut GradQuireBuf,
    db: Option<&mut GradQuireBuf>,
    weight: Option<&PreparedOperand<'_>>,
) -> Option<Tensor> {
    let Backend::PositQuire { fmt, rounding } = backend else {
        panic!("conv2d_backward_exact requires the quire backend");
    };
    let kernel = PositGemm::new(fmt, rounding);
    let n = input.shape()[0];
    assert_eq!(input.shape(), [n, g.c, g.h, g.w], "input shape");
    let o = grad_out.shape()[1];
    assert_eq!(
        grad_out.shape(),
        [n, o, g.out_h(), g.out_w()],
        "grad_out shape"
    );
    let w_plane = weight.map(|w| {
        let (wk, plane) = w
            .quire_parts()
            .expect("weight prepared under the quire backend");
        assert_eq!(*wk, kernel, "weight prepared under another backend");
        plane
    });
    let x = kernel.encode_plane(input.dense().data());
    let mut grad_in = w_plane.map(|_| Tensor::zeros(input.shape()));
    let dx = w_plane.zip(grad_in.as_mut().map(|t| t.data_mut()));
    let dy = grad_out.dense();
    backward_lowered(&kernel, g, &x, dy.data(), dw, db, dx, block_samples(g));
    grad_in
}

/// [`conv2d_backward_exact`] over an encoded input plane and dense dY, in
/// blocks of `block` samples; `dx` pairs the weight plane with the
/// `[N,C,H,W]` output.
#[allow(clippy::too_many_arguments)]
fn backward_lowered(
    kernel: &PositGemm,
    g: &ConvGeom,
    x: &PositPlane,
    dy: &[f32],
    dw: &mut GradQuireBuf,
    mut db: Option<&mut GradQuireBuf>,
    mut dx: Option<(&PositPlane, &mut [f32])>,
    block: usize,
) {
    note_lowered_call();
    let (rows, cols, sample) = (g.col_rows(), g.col_cols(), g.sample_len());
    let n = x.len() / sample;
    let o = dy.len() / (n * cols).max(1);
    for s0 in (0..n).step_by(block) {
        let s1 = (s0 + block).min(n);
        let width = (s1 - s0) * cols;
        let mut dyp = vec![0.0f32; o * width];
        let mut col = vec![ZERO_ELEM; rows * width];
        for (bi, i) in (s0..s1).enumerate() {
            for oc in 0..o {
                dyp[oc * width + bi * cols..][..cols]
                    .copy_from_slice(&dy[(i * o + oc) * cols..][..cols]);
            }
            let xi = &x.elems()[i * sample..(i + 1) * sample];
            unfold(xi, g, ZERO_ELEM, &mut col, width, bi * cols);
        }
        let dy_plane = kernel.encode_plane(&dyp);
        let col = PositPlane::from_elems(kernel.format(), 0, col);
        dw.accumulate_a_bt(o, width, rows, &dy_plane, &col);
        if let Some(db) = db.as_deref_mut() {
            db.accumulate_row_sums(o, width, &dy_plane);
        }
        if let Some((w_plane, out)) = dx.as_mut() {
            let mut dcol = vec![0.0f32; rows * width];
            kernel.gemm(Transpose::A, rows, o, width, w_plane, &dy_plane, &mut dcol);
            for (bi, i) in (s0..s1).enumerate() {
                fold(
                    &dcol,
                    width,
                    bi * cols,
                    g,
                    &mut out[i * sample..(i + 1) * sample],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    /// Direct (quadruple-loop) reference convolution.
    fn conv_ref(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&[f32]>,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let (n, c, h, w) = {
            let s = input.shape();
            (s[0], s[1], s[2], s[3])
        };
        let (o, _, kh, kw) = {
            let s = weight.shape();
            (s[0], s[1], s[2], s[3])
        };
        let oh = (h + 2 * pad - kh) / stride + 1;
        let ow = (w + 2 * pad - kw) / stride + 1;
        let mut out = Tensor::zeros(&[n, o, oh, ow]);
        for i in 0..n {
            for oc in 0..o {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.map_or(0.0, |b| b[oc]);
                        for ic in 0..c {
                            for ki in 0..kh {
                                for kj in 0..kw {
                                    let iy = (oy * stride + ki) as isize - pad as isize;
                                    let ix = (ox * stride + kj) as isize - pad as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    let iv = input.data()
                                        [((i * c + ic) * h + iy as usize) * w + ix as usize];
                                    let wv = weight.data()[((oc * c + ic) * kh + ki) * kw + kj];
                                    acc += iv * wv;
                                }
                            }
                        }
                        out.data_mut()[((i * o + oc) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn conv_matches_reference() {
        let mut rng = Prng::seed(5);
        for (n, c, h, w, o, k, s, p) in [
            (1, 1, 5, 5, 1, 3, 1, 0),
            (2, 3, 8, 8, 4, 3, 1, 1),
            (1, 2, 7, 9, 3, 3, 2, 1),
            (2, 4, 6, 6, 2, 1, 1, 0),
            (1, 3, 9, 9, 5, 5, 2, 2),
        ] {
            let input = Tensor::rand_normal(&[n, c, h, w], 0.0, 1.0, &mut rng);
            let weight = Tensor::rand_normal(&[o, c, k, k], 0.0, 0.5, &mut rng);
            let bias: Vec<f32> = (0..o).map(|_| rng.uniform(-0.5, 0.5)).collect();
            let got = conv2d(&input, &weight, Some(&bias), s, p);
            let want = conv_ref(&input, &weight, Some(&bias), s, p);
            assert_eq!(got.shape(), want.shape());
            for (g, w) in got.data().iter().zip(want.data()) {
                assert!((g - w).abs() < 1e-3, "({n},{c},{h},{w},{o},{k},{s},{p})");
            }
        }
    }

    #[test]
    fn geometry() {
        let g = ConvGeom {
            c: 3,
            h: 32,
            w: 32,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        assert_eq!(g.out_h(), 32);
        assert_eq!(g.out_w(), 32);
        assert_eq!(g.col_rows(), 27);
        let g2 = ConvGeom { stride: 2, ..g };
        assert_eq!(g2.out_h(), 16);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property
        // that makes the conv backward pass correct.
        let mut rng = Prng::seed(6);
        let g = ConvGeom {
            c: 2,
            h: 6,
            w: 5,
            kh: 3,
            kw: 3,
            stride: 2,
            pad: 1,
        };
        let x: Vec<f32> = (0..g.c * g.h * g.w)
            .map(|_| rng.uniform(-1.0, 1.0))
            .collect();
        let y: Vec<f32> = (0..g.col_rows() * g.col_cols())
            .map(|_| rng.uniform(-1.0, 1.0))
            .collect();
        let mut cx = vec![0.0; y.len()];
        im2col(&x, &g, &mut cx);
        let mut ay = vec![0.0; x.len()];
        col2im(&y, &g, &mut ay);
        let lhs: f64 = cx.iter().zip(&y).map(|(&a, &b)| (a * b) as f64).sum();
        let rhs: f64 = x.iter().zip(&ay).map(|(&a, &b)| (a * b) as f64).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn backend_conv_matches_f32_on_exact_inputs() {
        // Inputs on coarse power-of-two grids are exactly representable in
        // (16,1) and every dot fits the f32 mantissa, so all three backends
        // must agree bitwise.
        use posit::{PositFormat, Rounding};
        let mut rng = Prng::seed(9);
        let quant = |t: &Tensor| t.map(|x| (x * 4.0).round() / 4.0);
        let input = quant(&Tensor::rand_normal(&[2, 2, 6, 6], 0.0, 1.0, &mut rng));
        let weight = quant(&Tensor::rand_normal(&[3, 2, 3, 3], 0.0, 0.5, &mut rng));
        let want = conv2d(&input, &weight, None, 1, 1);
        let fmt = PositFormat::of(16, 1);
        for backend in [
            crate::Backend::PositEmulated {
                fmt,
                rounding: Rounding::NearestEven,
            },
            crate::Backend::PositQuire {
                fmt,
                rounding: Rounding::NearestEven,
            },
        ] {
            let w_prep = backend.prepare(weight.operand());
            let got = conv2d_prepared(&w_prep, weight.shape(), &input, None, 1, 1);
            assert_eq!(got.data(), want.data(), "{}", backend.name());
        }
    }

    #[test]
    fn lowered_block_size_never_changes_a_bit() {
        // The panel budget bounds memory only: every sample block size
        // must give the same y, dX, ΔW and Δb bits.
        use posit::{PositFormat, Rounding};
        let fmt = PositFormat::of(8, 1);
        let kernel = PositGemm::new(fmt, Rounding::NearestEven);
        let g = ConvGeom {
            c: 2,
            h: 6,
            w: 6,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let (n, o) = (5, 3);
        let (rows, cols) = (g.col_rows(), g.col_cols());
        let mut rng = Prng::seed(21);
        let mut draw =
            |len: usize| -> Vec<f32> { (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect() };
        let x = kernel.encode_plane(&draw(n * g.sample_len()));
        let w = kernel.encode_plane(&draw(o * rows));
        let dy = draw(n * o * cols);
        let bias = draw(o);
        let run = |block: usize| {
            let mut y = vec![0.0f32; n * o * cols];
            forward_lowered(&kernel, &w, o, &g, &x, Some(&bias), &mut y, block);
            let mut dw = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, n * cols, o * rows);
            let mut db = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, n * cols, o);
            let mut dx = vec![0.0f32; n * g.sample_len()];
            backward_lowered(
                &kernel,
                &g,
                &x,
                &dy,
                &mut dw,
                Some(&mut db),
                Some((&w, &mut dx)),
                block,
            );
            let mut grads = vec![0.0f32; o * rows + o];
            dw.round_into(&mut grads[..o * rows]);
            db.round_into(&mut grads[o * rows..]);
            (y, dx, grads)
        };
        let want = run(n);
        for block in [1, 2, 3] {
            assert_eq!(run(block), want, "block {block}");
        }
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 1x1 conv with identity weights = channel mix with identity.
        let mut rng = Prng::seed(7);
        let input = Tensor::rand_normal(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let weight = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2, 1, 1]);
        let out = conv2d(&input, &weight, None, 1, 0);
        assert_eq!(out.data(), input.data());
    }
}
