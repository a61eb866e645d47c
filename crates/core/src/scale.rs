//! Distribution-based shifting — Eq. 2 and Eq. 3 of the paper.
//!
//! ```text
//! center = round(mean(log2 |x|)),   Sf = 2^(center + σ)        (Eq. 2)
//! px = P(x / Sf) · Sf                                          (Eq. 3)
//! ```
//!
//! `σ` (paper: 2) biases the shifted distribution toward magnitudes just
//! *below* 1, because "the large values have more importance than small
//! values" \[15\] — shifting down keeps the large tail inside the
//! high-precision band of the posit code space.

use posit::{PositFormat, Rounding};

/// `center = round(mean(log2 |x|))` over the non-zero elements;
/// `None` if the tensor has no non-zero elements.
pub fn log2_center(xs: &[f32]) -> Option<i32> {
    let mut sum = 0.0f64;
    let mut count = 0usize;
    for &x in xs {
        if x != 0.0 && x.is_finite() {
            sum += (x.abs() as f64).log2();
            count += 1;
        }
    }
    if count == 0 {
        None
    } else {
        Some((sum / count as f64).round() as i32)
    }
}

/// The scale-factor exponent of Eq. 2: `log2(Sf) = center + σ`.
pub fn scale_exp(xs: &[f32], sigma: i32) -> Option<i32> {
    log2_center(xs).map(|c| c + sigma)
}

/// Apply Eq. 3 in place: `x ← P(x / Sf) · Sf` with `Sf = 2^scale_exp`.
///
/// `rand_state` drives stochastic rounding (ignored by deterministic
/// modes); it is advanced once per element so streams are reproducible.
/// Deterministic modes go through the fused [`posit::quant::quantize_f32`]
/// and build no code word. When `posit_obs` recording is on, edge-health
/// tallies (clamped / flushed / NaR counts and a log2-magnitude histogram
/// of the scaled inputs) are published under the thread's current
/// [`posit_obs::edge_label`], from code words read off the same encode
/// table — observation only: the quantized values and the random stream
/// are byte-identical either way.
pub fn shifted_quantize_slice(
    xs: &mut [f32],
    fmt: &PositFormat,
    scale_exp: i32,
    rounding: Rounding,
    rand_state: &mut u64,
) {
    let sf = (scale_exp as f32).exp2();
    let inv = (-scale_exp as f32).exp2();
    // `quant::quantize_f32`, with the table fetched once for the slice.
    let table = posit::lut::encode_table(*fmt);
    let mut edge = posit_obs::EdgeRecorder::start(fmt.maxpos(), fmt.nar_bits());
    match (rounding, edge.as_mut()) {
        (Rounding::Stochastic, mut edge) => {
            for x in xs.iter_mut() {
                let scaled = *x * inv;
                let bits =
                    fmt.from_f64_stochastic(scaled as f64, posit::quant::sr_next(rand_state));
                if let Some(e) = edge.as_deref_mut() {
                    e.note(scaled as f64, bits);
                }
                *x = fmt.to_f32(bits) * sf;
            }
        }
        (mode, None) => {
            for x in xs.iter_mut() {
                *x = table.quantize_f32(*x * inv, mode) * sf;
            }
        }
        (mode, Some(e)) => {
            for x in xs.iter_mut() {
                let scaled = *x * inv;
                e.note(scaled as f64, fmt.from_f32(scaled, mode));
                *x = table.quantize_f32(scaled, mode) * sf;
            }
        }
    }
    if let Some(e) = edge {
        e.finish();
    }
}

/// Mean absolute quantization error of Eq. 3 over a slice (diagnostics and
/// the A2 ablation).
pub fn quantization_error(
    xs: &[f32],
    fmt: &PositFormat,
    scale_exp: Option<i32>,
    rounding: Rounding,
) -> f64 {
    let mut ys = xs.to_vec();
    let mut state = 1u64;
    shifted_quantize_slice(&mut ys, fmt, scale_exp.unwrap_or(0), rounding, &mut state);
    xs.iter()
        .zip(&ys)
        .map(|(&a, &b)| (a as f64 - b as f64).abs())
        .sum::<f64>()
        / xs.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn center_of_power_of_two_cluster() {
        // All values at magnitude 2^-6 → center = -6.
        let xs = vec![0.015625f32, -0.015625, 0.015625];
        assert_eq!(log2_center(&xs), Some(-6));
        assert_eq!(scale_exp(&xs, 2), Some(-4));
    }

    #[test]
    fn center_ignores_zeros() {
        let xs = vec![0.0f32, 4.0, 0.0, 4.0];
        assert_eq!(log2_center(&xs), Some(2));
        assert_eq!(log2_center(&[0.0, 0.0]), None);
        assert_eq!(log2_center(&[]), None);
    }

    #[test]
    fn eq3_reduces_error_for_small_magnitudes() {
        // A cluster around 2^-9 is far from (8,1)'s precision peak at 1.0;
        // Eq. 2-3 shifting must reduce quantization error.
        let fmt = PositFormat::of(8, 1);
        let xs: Vec<f32> = (0..200)
            .map(|i| {
                (1.0 + (i as f32 * 0.002)) * 2f32.powi(-9) * if i % 2 == 0 { 1.0 } else { -1.0 }
            })
            .collect();
        let se = scale_exp(&xs, 2).unwrap();
        let err_shifted = quantization_error(&xs, &fmt, Some(se), Rounding::ToZero);
        let err_plain = quantization_error(&xs, &fmt, Some(0), Rounding::ToZero);
        assert!(
            err_shifted < err_plain,
            "shifted {err_shifted} !< plain {err_plain}"
        );
    }

    #[test]
    fn sigma_shifts_toward_small_magnitudes() {
        // With σ = 2, the shifted distribution centres at 2^-2: values sit
        // below 1.0 where large-magnitude entries retain precision.
        let xs = vec![0.25f32; 64];
        let se = scale_exp(&xs, 2).unwrap();
        assert_eq!(se, 0); // center -2 + 2
        let se0 = scale_exp(&xs, 0).unwrap();
        assert_eq!(se0, -2);
    }

    #[test]
    fn shifted_quantize_is_idempotent() {
        let fmt = PositFormat::of(8, 1);
        let mut xs: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) * 0.013).collect();
        let mut state = 1;
        shifted_quantize_slice(&mut xs, &fmt, -3, Rounding::ToZero, &mut state);
        let once = xs.clone();
        shifted_quantize_slice(&mut xs, &fmt, -3, Rounding::ToZero, &mut state);
        assert_eq!(xs, once);
    }

    #[test]
    fn packed_encode_matches_the_inplace_quantizer() {
        // Tensor::to_posit_with must be the storage-domain split of Eq. 3's
        // in-place quantizer: identical values AND identical random-stream
        // consumption, so swapping a P(·) round trip for a packed encode
        // never perturbs downstream stochastic rounding.
        let fmt = PositFormat::of(8, 2);
        let xs: Vec<f32> = (0..64).map(|i| i as f32 * 0.037 - 1.0).collect();
        for rounding in [
            Rounding::ToZero,
            Rounding::NearestEven,
            Rounding::Stochastic,
        ] {
            for e in [-3i32, 0, 2] {
                let mut inplace = xs.clone();
                let mut s1 = 77u64;
                let mut s2 = 77u64;
                shifted_quantize_slice(&mut inplace, &fmt, e, rounding, &mut s1);
                let t = posit_tensor::Tensor::from_vec(xs.clone(), &[64]);
                let p = t.to_posit_with(fmt, e, rounding, &mut s2);
                assert_eq!(p.to_f32().data(), &inplace[..], "{rounding:?} e={e}");
                assert_eq!(s1, s2, "stream desync {rounding:?} e={e}");
            }
        }
    }

    #[test]
    fn stochastic_stream_is_reproducible() {
        let fmt = PositFormat::of(8, 2);
        let base: Vec<f32> = (0..64).map(|i| i as f32 * 0.037 - 1.0).collect();
        let mut a = base.clone();
        let mut b = base.clone();
        let mut s1 = 99u64;
        let mut s2 = 99u64;
        shifted_quantize_slice(&mut a, &fmt, 0, Rounding::Stochastic, &mut s1);
        shifted_quantize_slice(&mut b, &fmt, 0, Rounding::Stochastic, &mut s2);
        assert_eq!(a, b);
    }
}
