//! Batch-wide quire convolutions ≡ the per-sample im2col oracle, bit for
//! bit.
//!
//! The quire backend lowers a whole batch to one GEMM per direction,
//! gathered from a plane encoded once per input element. The oracle here
//! is the per-sample loop that lowering replaced: unfold one sample in
//! f32, encode the column, run one GEMM, and feed ΔW/Δb product by product
//! through [`GradQuireBuf::mac`]. Forward outputs, dX, ΔW and Δb must
//! agree on every bit — NaR and zero inputs, packed inputs carrying an
//! Eq. 2 scale, ragged channel counts and every shard split included.

use posit::{PositFormat, Rounding};
use posit_tensor::conv::{col2im, conv2d_backward_exact, conv2d_prepared, im2col, ConvGeom};
use posit_tensor::rng::Prng;
use posit_tensor::{Backend, GradQuireBuf, PositGemm, Tensor, Transpose};

/// One convolution problem.
struct Case {
    name: &'static str,
    n: usize,
    g: ConvGeom,
    o: usize,
}

fn cases() -> Vec<Case> {
    let geom = |c, h, k, stride, pad| ConvGeom {
        c,
        h,
        w: h,
        kh: k,
        kw: k,
        stride,
        pad,
    };
    vec![
        // LeNet conv1 at 3×16×16 (O = 6 is not a multiple of the 4-row
        // register tile).
        Case {
            name: "lenet.conv1",
            n: 2,
            g: geom(3, 16, 5, 1, 0),
            o: 6,
        },
        // LeNet conv2 on pool1's 6×6×6 output, a single sample.
        Case {
            name: "lenet.conv2",
            n: 1,
            g: geom(6, 6, 5, 1, 0),
            o: 16,
        },
        // Strided and padded: windows straddle the zero border; N odd.
        Case {
            name: "stride2.pad1",
            n: 3,
            g: geom(2, 7, 3, 2, 1),
            o: 5,
        },
    ]
}

/// Exact-bit view of an f32 slice (NaN payloads included).
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Random values with a NaN and some zeros planted, so NaR and zero
/// elements flow through every path.
fn specials(shape: &[usize], std: f32, rng: &mut Prng) -> Tensor {
    let mut t = Tensor::rand_normal(shape, 0.0, std, rng);
    let len = t.len();
    let d = t.data_mut();
    d[len / 3] = f32::NAN;
    for i in (0..len).step_by(7) {
        d[i] = 0.0;
    }
    t
}

/// The per-sample oracle: `(y, dX, ΔW, Δb)`.
fn oracle(
    fwd: PositGemm,
    bwd: PositGemm,
    case: &Case,
    x: &Tensor,
    w: &Tensor,
    bias: &[f32],
    dy: &Tensor,
) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
    let (g, o, n) = (&case.g, case.o, case.n);
    let (rows, cols) = (g.col_rows(), g.col_cols());
    let sample = g.c * g.h * g.w;
    let x = x.dense();
    let dy = dy.dense();
    let wf = Backend::PositQuire {
        fmt: fwd.format(),
        rounding: Rounding::NearestEven,
    }
    .quire_operand_plane(w.operand())
    .unwrap();
    let wb = Backend::PositQuire {
        fmt: bwd.format(),
        rounding: Rounding::NearestEven,
    }
    .quire_operand_plane(w.operand())
    .unwrap();
    let mut y = vec![0.0f32; n * o * cols];
    let mut dx = vec![0.0f32; n * sample];
    let mut dw = GradQuireBuf::new(bwd.format(), Rounding::NearestEven, 0, n * cols, o * rows);
    let mut db = GradQuireBuf::new(bwd.format(), Rounding::NearestEven, 0, n * cols, o);
    let mut col = vec![0.0f32; rows * cols];
    for i in 0..n {
        im2col(&x.data()[i * sample..(i + 1) * sample], g, &mut col);
        let dst = &mut y[i * o * cols..(i + 1) * o * cols];
        fwd.gemm(
            Transpose::None,
            o,
            rows,
            cols,
            &wf,
            &fwd.encode_plane(&col),
            dst,
        );
        for (oc, &b) in bias.iter().enumerate() {
            for v in &mut dst[oc * cols..(oc + 1) * cols] {
                *v += b;
            }
        }
        let dyp = bwd.encode_plane(&dy.data()[i * o * cols..(i + 1) * o * cols]);
        let colp = bwd.encode_plane(&col);
        for oc in 0..o {
            for r in 0..rows {
                for t in 0..cols {
                    dw.mac(
                        oc * rows + r,
                        dyp.elems()[oc * cols + t],
                        colp.elems()[r * cols + t],
                    );
                }
            }
            for t in 0..cols {
                db.add(oc, dyp.elems()[oc * cols + t]);
            }
        }
        let mut dcol = vec![0.0f32; rows * cols];
        bwd.gemm(Transpose::A, rows, o, cols, &wb, &dyp, &mut dcol);
        col2im(&dcol, g, &mut dx[i * sample..(i + 1) * sample]);
    }
    let mut dwv = vec![0.0f32; o * rows];
    dw.round_into(&mut dwv);
    let mut dbv = vec![0.0f32; o];
    db.round_into(&mut dbv);
    (y, dx, dwv, dbv)
}

/// The lowered backward over `splits` shards, one buffer pair per shard,
/// merged and rounded: `(dX, ΔW, Δb)`.
fn lowered_backward(
    bwd: Backend,
    case: &Case,
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    splits: &[usize],
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (g, o, n) = (&case.g, case.o, case.n);
    let (rows, cols) = (g.col_rows(), g.col_cols());
    let w_prep = bwd.prepare(w.operand());
    let mut dx = Vec::new();
    let mut dw = bwd.grad_quire_buf(o * rows, 0, n * cols).unwrap();
    let mut db = bwd.grad_quire_buf(o, 0, n * cols).unwrap();
    let mut start = 0;
    for &rows_in_shard in splits {
        let end = start + rows_in_shard;
        let mut sdw = bwd.grad_quire_buf(o * rows, 0, n * cols).unwrap();
        let mut sdb = bwd.grad_quire_buf(o, 0, n * cols).unwrap();
        let gx = conv2d_backward_exact(
            bwd,
            g,
            &x.slice_rows(start, end),
            &dy.slice_rows(start, end),
            &mut sdw,
            Some(&mut sdb),
            Some(&w_prep),
        )
        .expect("input gradient requested");
        dx.extend_from_slice(gx.data());
        dw.merge_from(&sdw);
        db.merge_from(&sdb);
        start = end;
    }
    assert_eq!(start, n);
    let mut dwv = vec![0.0f32; o * rows];
    dw.round_into(&mut dwv);
    let mut dbv = vec![0.0f32; o];
    db.round_into(&mut dbv);
    (dx, dwv, dbv)
}

#[test]
fn lowered_conv_matches_the_per_sample_oracle() {
    let mut rng = Prng::seed(13);
    let rounding = Rounding::NearestEven;
    for case in cases() {
        let (g, o, n) = (&case.g, case.o, case.n);
        let x = specials(&[n, g.c, g.h, g.w], 1.0, &mut rng);
        let w = Tensor::rand_normal(&[o, g.c, g.kh, g.kw], 0.0, 0.3, &mut rng);
        let bias: Vec<f32> = (0..o).map(|_| rng.uniform(-0.5, 0.5)).collect();
        let dy = specials(&[n, o, g.out_h(), g.out_w()], 0.5, &mut rng);
        for (fe, be) in [
            ((8, 1), (8, 2)),
            ((8, 2), (8, 1)),
            ((16, 1), (16, 2)),
            ((16, 2), (16, 1)),
        ] {
            let (ff, bf) = (PositFormat::of(fe.0, fe.1), PositFormat::of(be.0, be.1));
            let fwd = Backend::PositQuire { fmt: ff, rounding };
            let bwd = Backend::PositQuire { fmt: bf, rounding };
            // Inputs arrive dense, packed in the kernel's own format, and
            // packed in the other direction's format — each with a
            // non-zero Eq. 2 scale on the packed planes.
            for (label, xin) in [
                ("dense", x.clone()),
                ("packed-same", x.to_posit(ff, 2, rounding)),
                ("packed-other", x.to_posit(bf, -1, rounding)),
            ] {
                let what = format!("{} {ff}/{bf} {label}", case.name);
                let (y0, dx0, dw0, db0) = oracle(
                    PositGemm::new(ff, rounding),
                    PositGemm::new(bf, rounding),
                    &case,
                    &xin,
                    &w,
                    &bias,
                    &dy,
                );
                let w_prep = fwd.prepare(w.operand());
                let y = conv2d_prepared(&w_prep, w.shape(), &xin, Some(&bias), g.stride, g.pad);
                assert_eq!(bits(y.data()), bits(&y0), "y {what}");
                let half = n / 2;
                let mut splits = vec![vec![n], vec![1; n]];
                if half > 0 {
                    splits.push(vec![half, n - half]);
                }
                for split in splits {
                    let (dx, dw, db) = lowered_backward(bwd, &case, &xin, &w, &dy, &split);
                    assert_eq!(bits(&dx), bits(&dx0), "dX {what} {split:?}");
                    assert_eq!(bits(&dw), bits(&dw0), "dW {what} {split:?}");
                    assert_eq!(bits(&db), bits(&db0), "db {what} {split:?}");
                }
            }
        }
    }
}

#[test]
fn backward_without_a_weight_skips_only_the_input_gradient() {
    // The parameters-only call (no weight operand) must leave ΔW and Δb
    // exactly where the full call leaves them, and return no dX.
    let case = &cases()[0];
    let (g, o, n) = (&case.g, case.o, case.n);
    let mut rng = Prng::seed(17);
    let x = Tensor::rand_normal(&[n, g.c, g.h, g.w], 0.0, 1.0, &mut rng);
    let w = Tensor::rand_normal(&[o, g.c, g.kh, g.kw], 0.0, 0.3, &mut rng);
    let dy = Tensor::rand_normal(&[n, o, g.out_h(), g.out_w()], 0.0, 0.5, &mut rng);
    let bwd = Backend::PositQuire {
        fmt: PositFormat::of(8, 2),
        rounding: Rounding::NearestEven,
    };
    let (rows, cols) = (g.col_rows(), g.col_cols());
    let run = |with_weight: bool| {
        let w_prep = bwd.prepare(w.operand());
        let mut dw = bwd.grad_quire_buf(o * rows, 0, n * cols).unwrap();
        let mut db = bwd.grad_quire_buf(o, 0, n * cols).unwrap();
        let gx = conv2d_backward_exact(
            bwd,
            g,
            &x,
            &dy,
            &mut dw,
            Some(&mut db),
            with_weight.then_some(&w_prep),
        );
        let mut dwv = vec![0.0f32; o * rows];
        dw.round_into(&mut dwv);
        let mut dbv = vec![0.0f32; o];
        db.round_into(&mut dbv);
        (gx.is_some(), bits(&dwv), bits(&dbv))
    };
    let (full_dx, full_dw, full_db) = run(true);
    let (skip_dx, skip_dw, skip_db) = run(false);
    assert!(full_dx && !skip_dx);
    assert_eq!(full_dw, skip_dw);
    assert_eq!(full_db, skip_db);
}
