//! The paper's `P(n,es)(·)` transformation operator (Algorithm 1) as an
//! `f32 → f32` tensor-element quantizer, plus the scaled variant of Eq. 3.
//!
//! In the SOCC'19 training flow (Fig. 3), every tensor crossing a layer
//! boundary — activations `A`, errors `E`, weights `W`, weight gradients
//! `ΔW` — is passed through this operator. The operator is *simulated*: the
//! value is converted to the `(n, es)` posit and immediately back to `f32`,
//! exactly like the paper's PyTorch/GPU implementation.

use crate::format::PositFormat;
use crate::round::Rounding;

/// SplitMix64 step for the stochastic-rounding stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Advance the *shared* per-element stochastic-rounding stream one step:
/// an LCG state update followed by a splitmix-style mix, yielding the
/// random word fed to [`PositFormat::from_f64_stochastic`].
///
/// This is the single definition of the stream used by every per-element
/// quantization path in the workspace (the trainer's in-place Eq. 3
/// quantizer and the tensor crate's packed encoder). They must consume
/// bit-identical randomness so that swapping an f32 `P(·)` round trip for
/// a packed storage transition never perturbs a stochastic-rounding run.
pub fn sr_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Stateless quantization of one value (deterministic modes only).
///
/// # Panics
///
/// Panics if `rounding` is [`Rounding::Stochastic`] — stochastic rounding is
/// stateful; use [`PositQuantizer`].
pub fn quantize_f64(fmt: &PositFormat, x: f64, rounding: Rounding) -> f64 {
    fmt.to_f64(fmt.from_f64(x, rounding))
}

/// Stateless `f32` quantization (deterministic modes only): the one
/// spelling of `P(·)` on f32 data, equal bit for bit to
/// `fmt.to_f32(fmt.from_f32(x, rounding))`. Round-toward-zero never builds
/// a code word (see [`crate::lut::EncodeTable::quantize_f32`]); loops can
/// fetch [`crate::lut::encode_table`] once and call it directly.
///
/// # Panics
///
/// Panics if `rounding` is [`Rounding::Stochastic`].
#[inline]
pub fn quantize_f32(fmt: &PositFormat, x: f32, rounding: Rounding) -> f32 {
    crate::lut::encode_table(*fmt).quantize_f32(x, rounding)
}

/// The paper's `P(n,es)` operator with a configurable rounding mode and an
/// owned stochastic-rounding stream.
///
/// ```
/// use posit::{PositFormat, PositQuantizer, Rounding};
///
/// let fmt = PositFormat::new(8, 1)?;
/// let mut q = PositQuantizer::new(fmt, Rounding::ToZero);
/// // In [0.25, 0.5) posit(8,1) keeps 4 fraction bits (steps of 1/64), so
/// // 0.3 truncates to the posit below it, 0.296875 = 19/64.
/// let y = q.quantize(0.3);
/// assert_eq!(y, 0.296875);
/// // Out-of-range magnitudes clip / flush per Algorithm 1.
/// assert_eq!(q.quantize(1e30), fmt.maxpos() as f32);
/// assert_eq!(q.quantize(1e-30), 0.0);
/// # Ok::<(), posit::InvalidFormatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PositQuantizer {
    format: PositFormat,
    rounding: Rounding,
    rng_state: u64,
}

impl PositQuantizer {
    /// Create a quantizer; the stochastic stream (if used) is seeded with a
    /// fixed default — see [`PositQuantizer::with_seed`].
    pub fn new(format: PositFormat, rounding: Rounding) -> PositQuantizer {
        PositQuantizer {
            format,
            rounding,
            rng_state: 0x5EED_0F05_1770_0001,
        }
    }

    /// Create a quantizer with an explicit stochastic-rounding seed.
    pub fn with_seed(format: PositFormat, rounding: Rounding, seed: u64) -> PositQuantizer {
        PositQuantizer {
            format,
            rounding,
            rng_state: seed,
        }
    }

    /// The target format.
    pub fn format(&self) -> PositFormat {
        self.format
    }

    /// The rounding mode.
    pub fn rounding(&self) -> Rounding {
        self.rounding
    }

    /// Quantize one `f32` value.
    pub fn quantize(&mut self, x: f32) -> f32 {
        match self.rounding {
            Rounding::Stochastic => self.format.to_f32(
                self.format
                    .from_f64_stochastic(x as f64, splitmix64(&mut self.rng_state)),
            ),
            mode => quantize_f32(&self.format, x, mode),
        }
    }

    /// Quantize a slice in place.
    pub fn quantize_slice(&mut self, xs: &mut [f32]) {
        if self.rounding == Rounding::Stochastic {
            for x in xs {
                *x = self.quantize(*x);
            }
        } else {
            let table = crate::lut::encode_table(self.format);
            for x in xs {
                *x = table.quantize_f32(*x, self.rounding);
            }
        }
    }

    /// Quantize into a fresh vector.
    pub fn quantize_to_vec(&mut self, xs: &[f32]) -> Vec<f32> {
        let mut ys = xs.to_vec();
        self.quantize_slice(&mut ys);
        ys
    }
}

/// Eq. 3 of the paper: `px = P(x / Sf) * Sf` with a power-of-two scale
/// factor `Sf`, shifting the tensor's distribution into the high-precision
/// region of the posit code space around 1.0.
///
/// The scale factor itself comes from Eq. 2 (see `posit-train`'s
/// `ScaleFactor`); this type only applies a given `Sf`.
#[derive(Debug, Clone)]
pub struct ScaledQuantizer {
    inner: PositQuantizer,
    scale: f32,
    inv_scale: f32,
}

impl ScaledQuantizer {
    /// Wrap a quantizer with a scale factor `Sf` (normally a power of two so
    /// the scaling itself is lossless).
    pub fn new(inner: PositQuantizer, scale: f32) -> ScaledQuantizer {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        ScaledQuantizer {
            inv_scale: 1.0 / scale,
            scale,
            inner,
        }
    }

    /// The scale factor `Sf`.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// `P(x / Sf) * Sf` (Eq. 3).
    pub fn quantize(&mut self, x: f32) -> f32 {
        self.inner.quantize(x * self.inv_scale) * self.scale
    }

    /// Apply Eq. 3 to a slice in place.
    pub fn quantize_slice(&mut self, xs: &mut [f32]) {
        for x in xs {
            *x = self.quantize(*x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idempotent() {
        let fmt = PositFormat::of(8, 1);
        let mut q = PositQuantizer::new(fmt, Rounding::ToZero);
        for i in -200..200 {
            let x = i as f32 * 0.37;
            let once = q.quantize(x);
            let twice = q.quantize(once);
            assert_eq!(once, twice, "x={x}");
        }
    }

    #[test]
    fn rtz_never_increases_magnitude() {
        let fmt = PositFormat::of(8, 2);
        let mut q = PositQuantizer::new(fmt, Rounding::ToZero);
        for i in 1..1000 {
            let x = (i as f32) * 0.173 - 86.0;
            let y = q.quantize(x);
            assert!(y.abs() <= x.abs() + 1e-12, "x={x} y={y}");
            assert!(x == 0.0 || y == 0.0 || x.signum() == y.signum());
        }
    }

    #[test]
    fn clips_at_maxpos_and_flushes_below_minpos() {
        // Algorithm 1 lines 3, 7 for (8,1): maxpos = 4^6 = 4096,
        // minpos = 4^-6.
        let fmt = PositFormat::of(8, 1);
        let mut q = PositQuantizer::new(fmt, Rounding::ToZero);
        assert_eq!(q.quantize(1e9), 4096.0);
        assert_eq!(q.quantize(-1e9), -4096.0);
        assert_eq!(q.quantize(fmt.minpos() as f32 / 2.0), 0.0);
        assert_eq!(q.quantize(fmt.minpos() as f32), fmt.minpos() as f32);
    }

    #[test]
    fn scaled_quantizer_is_eq3() {
        let fmt = PositFormat::of(8, 1);
        // Sf = 2^-6: values near 2^-6 land near 1.0 in the scaled domain.
        let sf = 2f32.powi(-6);
        let mut sq = ScaledQuantizer::new(PositQuantizer::new(fmt, Rounding::ToZero), sf);
        let x = 1.1 * sf;
        let y = sq.quantize(x);
        // Must equal the hand-computed P(x/Sf)*Sf.
        let expected = quantize_f32(&fmt, 1.1, Rounding::ToZero) * sf;
        assert_eq!(y, expected);
        // And the scaled form must be *more precise* than the unscaled one
        // for values far from 1.0 — the whole point of Eq. 3.
        let mut unscaled = PositQuantizer::new(fmt, Rounding::ToZero);
        let err_scaled = (sq.quantize(x) - x).abs();
        let err_unscaled = (unscaled.quantize(x) - x).abs();
        assert!(err_scaled <= err_unscaled);
    }

    #[test]
    fn power_of_two_scaling_is_lossless_around_one() {
        // For exactly representable x, P(x/2^t)*2^t == x when x/2^t is also
        // representable — scaling by powers of two moves the window without
        // adding error.
        let fmt = PositFormat::of(16, 1);
        let mut sq =
            ScaledQuantizer::new(PositQuantizer::new(fmt, Rounding::ToZero), 2f32.powi(-4));
        for x in [0.0625f32, 0.09375, 0.125, 0.1875] {
            assert_eq!(sq.quantize(x), x);
        }
    }

    #[test]
    fn stochastic_stream_is_deterministic_per_seed() {
        let fmt = PositFormat::of(8, 1);
        let xs: Vec<f32> = (0..64).map(|i| (i as f32) * 0.071 + 0.3).collect();
        let mut q1 = PositQuantizer::with_seed(fmt, Rounding::Stochastic, 7);
        let mut q2 = PositQuantizer::with_seed(fmt, Rounding::Stochastic, 7);
        let mut q3 = PositQuantizer::with_seed(fmt, Rounding::Stochastic, 8);
        let a: Vec<f32> = xs.iter().map(|&x| q1.quantize(x)).collect();
        let b: Vec<f32> = xs.iter().map(|&x| q2.quantize(x)).collect();
        let c: Vec<f32> = xs.iter().map(|&x| q3.quantize(x)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ somewhere");
    }

    #[test]
    fn non_finite_inputs_map_to_nan_not_panic() {
        // Failure injection: a diverging training run produces NaN/Inf
        // tensors; the quantizer must map them through NaR (→ NaN) without
        // panicking so the harness can detect divergence.
        let fmt = PositFormat::of(8, 1);
        let mut q = PositQuantizer::new(fmt, Rounding::ToZero);
        assert!(q.quantize(f32::NAN).is_nan());
        assert!(q.quantize(f32::INFINITY).is_nan());
        assert!(q.quantize(f32::NEG_INFINITY).is_nan());
        let mut buf = vec![1.0f32, f32::NAN, 0.5];
        q.quantize_slice(&mut buf);
        assert_eq!(buf[0], 1.0);
        assert!(buf[1].is_nan());
    }

    #[test]
    fn quantize_slice_matches_scalar() {
        let fmt = PositFormat::of(16, 2);
        let mut q = PositQuantizer::new(fmt, Rounding::NearestEven);
        let xs: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) * 0.31).collect();
        let mut ys = xs.clone();
        q.quantize_slice(&mut ys);
        let mut q2 = PositQuantizer::new(fmt, Rounding::NearestEven);
        for (x, y) in xs.iter().zip(&ys) {
            assert_eq!(q2.quantize(*x), *y);
        }
    }
}
