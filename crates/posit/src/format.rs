//! The runtime-parameterised posit format and its bit-exact codec.

use crate::error::InvalidFormatError;
use crate::round::Rounding;
use crate::value::{Decoded, PositValue, Sign};
use std::fmt;

/// A posit number format `(n, es)`: total word size `n` and exponent field
/// size `es` (Fig. 1 of the paper).
///
/// Supported range: `2 <= n <= 32`, `0 <= es <= 4`. Bit patterns are carried
/// in the low `n` bits of a `u64`; all arithmetic is exact-integer internally
/// and correctly rounded on output.
///
/// ```
/// use posit::{PositFormat, Rounding};
///
/// let p16 = PositFormat::new(16, 1)?;
/// assert_eq!(p16.useed(), 4.0);            // useed = 2^(2^es)
/// assert_eq!(p16.max_scale(), 28);         // maxpos = useed^(n-2) = 2^28
/// let one = p16.from_f64(1.0, Rounding::NearestEven);
/// assert_eq!(p16.to_f64(one), 1.0);
/// # Ok::<(), posit::InvalidFormatError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PositFormat {
    n: u32,
    es: u32,
}

/// Widths of the four fields of a posit code word (Fig. 1): sign, regime,
/// exponent, fraction. Produced by [`PositFormat::field_layout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldLayout {
    /// Regime value `k`.
    pub k: i32,
    /// Width of the regime field including its terminating bit, clamped to
    /// the available `n - 1` bits (the paper's `rb`).
    pub regime_bits: u32,
    /// Number of exponent bits actually stored (the paper's `eb`).
    pub exponent_bits: u32,
    /// Number of fraction bits actually stored (the paper's `fb`,
    /// with the erratum `min → max` corrected; see DESIGN.md §2).
    pub fraction_bits: u32,
}

impl PositFormat {
    /// Create a format, validating `2 <= n <= 32` and `es <= 4`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidFormatError`] if the sizes are out of range.
    pub const fn new(n: u32, es: u32) -> Result<PositFormat, InvalidFormatError> {
        if n < 2 || n > 32 || es > 4 {
            Err(InvalidFormatError { n, es })
        } else {
            Ok(PositFormat { n, es })
        }
    }

    /// Create a format from compile-time constants.
    ///
    /// # Panics
    ///
    /// Panics (at compile time in const contexts) if the sizes are invalid.
    pub const fn of(n: u32, es: u32) -> PositFormat {
        match PositFormat::new(n, es) {
            Ok(f) => f,
            Err(_) => panic!("invalid posit format: require 2 <= n <= 32 and es <= 4"),
        }
    }

    /// Word size `n` in bits.
    pub const fn n(&self) -> u32 {
        self.n
    }

    /// Exponent field size `es` in bits.
    pub const fn es(&self) -> u32 {
        self.es
    }

    /// `log2(useed) = 2^es`.
    pub const fn useed_log2(&self) -> i32 {
        1i32 << self.es
    }

    /// `useed = 2^(2^es)` — the regime step (Eq. 1 of the paper).
    pub fn useed(&self) -> f64 {
        (self.useed_log2() as f64).exp2()
    }

    /// Largest representable binary exponent: `log2(maxpos) = (n-2) * 2^es`.
    pub const fn max_scale(&self) -> i32 {
        (self.n as i32 - 2) * self.useed_log2()
    }

    /// Smallest representable binary exponent: `log2(minpos) = (2-n) * 2^es`.
    pub const fn min_scale(&self) -> i32 {
        -self.max_scale()
    }

    /// `maxpos = useed^(n-2)` as an `f64` (exact).
    pub fn maxpos(&self) -> f64 {
        (self.max_scale() as f64).exp2()
    }

    /// `minpos = useed^(2-n)` as an `f64` (exact).
    pub fn minpos(&self) -> f64 {
        (self.min_scale() as f64).exp2()
    }

    /// Bit mask covering the low `n` bits.
    pub const fn mask(&self) -> u64 {
        if self.n == 64 {
            u64::MAX
        } else {
            (1u64 << self.n) - 1
        }
    }

    /// The code word for zero (`000…0`).
    pub const fn zero_bits(&self) -> u64 {
        0
    }

    /// The code word for NaR (`100…0`).
    pub const fn nar_bits(&self) -> u64 {
        1u64 << (self.n - 1)
    }

    /// The code word for `maxpos` (`0111…1`).
    pub const fn maxpos_bits(&self) -> u64 {
        (1u64 << (self.n - 1)) - 1
    }

    /// The code word for `minpos` (`000…01`).
    pub const fn minpos_bits(&self) -> u64 {
        1
    }

    /// The code word for `1.0` (`0100…0`).
    pub const fn one_bits(&self) -> u64 {
        1u64 << (self.n - 2)
    }

    /// Number of distinct code words, `2^n`.
    pub const fn code_count(&self) -> u64 {
        1u64 << self.n
    }

    /// Two's-complement negation of a code word within `n` bits.
    pub const fn negate(&self, bits: u64) -> u64 {
        bits.wrapping_neg() & self.mask()
    }

    /// Absolute value of a code word (NaR maps to itself).
    pub fn abs(&self, bits: u64) -> u64 {
        if self.is_negative(bits) && bits != self.nar_bits() {
            self.negate(bits)
        } else {
            bits & self.mask()
        }
    }

    /// True iff the code word's sign bit is set (note: NaR also has it set).
    pub const fn is_negative(&self, bits: u64) -> bool {
        (bits >> (self.n - 1)) & 1 == 1
    }

    /// Sign-extend an `n`-bit code word to `i64` (posit codes compare as
    /// two's-complement integers; NaR becomes the minimum).
    pub const fn to_signed(&self, bits: u64) -> i64 {
        let shift = 64 - self.n;
        ((bits << shift) as i64) >> shift
    }

    /// Total-order comparison of two code words. NaR orders below every
    /// real value, matching the posit standard.
    pub fn total_cmp(&self, a: u64, b: u64) -> std::cmp::Ordering {
        self.to_signed(a).cmp(&self.to_signed(b))
    }

    /// The next code word up in value order (saturates at `maxpos`... wraps
    /// from NaR to `-maxpos`). Useful for enumerating neighbours in tests.
    pub fn next_up(&self, bits: u64) -> u64 {
        if bits == self.maxpos_bits() {
            bits
        } else {
            (bits.wrapping_add(1)) & self.mask()
        }
    }

    /// The next code word down in value order (saturates at NaR's successor,
    /// `-maxpos`, when going below).
    pub fn next_down(&self, bits: u64) -> u64 {
        if bits == self.nar_bits().wrapping_add(1) & self.mask() {
            bits
        } else {
            (bits.wrapping_sub(1)) & self.mask()
        }
    }

    /// Field layout for a value with effective exponent `scale`
    /// (Algorithm 1 lines 9–17, with the `fb` erratum corrected).
    pub fn field_layout(&self, scale: i32) -> FieldLayout {
        let scale = scale.clamp(self.min_scale(), self.max_scale());
        let k = scale >> self.es; // floor division by 2^es
        let nominal_rb = if k >= 0 {
            k as u32 + 2
        } else {
            (-k) as u32 + 1
        };
        let avail = self.n - 1;
        let regime_bits = nominal_rb.min(avail);
        let exponent_bits = (avail - regime_bits).min(self.es);
        let fraction_bits = avail - regime_bits - exponent_bits;
        FieldLayout {
            k,
            regime_bits,
            exponent_bits,
            fraction_bits,
        }
    }

    // ------------------------------------------------------------------
    // Decode
    // ------------------------------------------------------------------

    /// Decode an `n`-bit code word into its value.
    ///
    /// Bits above position `n-1` are ignored.
    pub fn decode(&self, bits: u64) -> PositValue {
        let bits = bits & self.mask();
        if bits == 0 {
            return PositValue::Zero;
        }
        if bits == self.nar_bits() {
            return PositValue::NaR;
        }
        let neg = self.is_negative(bits);
        let mag = if neg { self.negate(bits) } else { bits };
        let sign = if neg { Sign::Negative } else { Sign::Positive };

        // Left-align the n-1 bits after the sign at bit 63 of a u64.
        let rem = mag & (self.mask() >> 1);
        let body = rem << (65 - self.n);

        // Regime: run length of the leading bit value.
        let avail = self.n - 1;
        let first = body >> 63;
        let run = if first == 1 {
            (body.leading_ones()).min(avail)
        } else {
            (body.leading_zeros()).min(avail)
        };
        let k: i32 = if first == 1 {
            run as i32 - 1
        } else {
            -(run as i32)
        };
        let rb = (run + 1).min(avail);

        let after_regime = if rb >= 64 { 0 } else { body << rb };
        let left = avail - rb;
        let eb = left.min(self.es);
        let e_field = if eb == 0 {
            0u32
        } else {
            (after_regime >> (64 - eb)) as u32
        };
        // If fewer than `es` exponent bits are stored they are the HIGH bits
        // of e; the missing low bits are zero (Algorithm 1 line 18 inverse).
        let e = (e_field as i32) << (self.es - eb);
        let frac = if eb >= 64 { 0 } else { after_regime << eb };

        let scale = k * self.useed_log2() + e;
        PositValue::Finite(Decoded { sign, scale, frac })
    }

    /// [`PositFormat::decode`] through the per-format lookup tables —
    /// identical results (the tables are built by `decode` itself; see
    /// [`crate::lut`]). Narrow formats (`n ≤ 8`) are one memory load from
    /// the flat 256-entry table; medium formats (`8 < n ≤ 16`) go through
    /// the two-level top-byte/refinement tables; wider formats fall through
    /// to the bit-twiddled field extraction.
    pub fn decode_fast(&self, bits: u64) -> PositValue {
        if let Some(lut) = crate::lut::decode_lut(*self) {
            return lut[(bits & self.mask()) as usize];
        }
        if let Some(lut2) = crate::lut::decode_lut2(*self) {
            return lut2.decode(bits);
        }
        self.decode(bits)
    }

    /// Decode directly to `f64` (exact for all supported formats);
    /// NaR becomes NaN. Decodes through [`PositFormat::decode_fast`].
    pub fn to_f64(&self, bits: u64) -> f64 {
        match self.decode_fast(bits) {
            // Scales stay within ±480 and at most 29 fraction bits are set,
            // so the f64 is assembled from the fields exactly.
            PositValue::Finite(d) => f64::from_bits(
                (d.sign.is_negative() as u64) << 63
                    | ((d.scale + 1023) as u64) << 52
                    | d.frac >> 12,
            ),
            v => v.to_f64(),
        }
    }

    /// Decode directly to `f32`. Exact whenever the posit has at most 24
    /// significant bits and scale within `f32` range; otherwise nearest.
    pub fn to_f32(&self, bits: u64) -> f32 {
        self.to_f64(bits) as f32
    }

    // ------------------------------------------------------------------
    // Encode
    // ------------------------------------------------------------------

    /// Encode a finite non-zero magnitude `2^scale * (1 + frac/2^64)` (plus a
    /// sticky flag for any truncated-away low bits) into a code word,
    /// applying `sign` and the given rounding mode.
    ///
    /// This is the single rounding point for the whole crate: every
    /// arithmetic op reduces to exact integer internals and finishes here.
    /// The round-toward-zero code word comes from the format's
    /// [`crate::lut::EncodeTable`]; nearest-even and stochastic rounding
    /// then compare the value against its two neighbouring code words.
    ///
    /// For [`Rounding::Stochastic`], `rand_word` supplies the randomness
    /// (the tail is compared against it); it is ignored by the deterministic
    /// modes.
    pub fn encode_fields(
        &self,
        sign: Sign,
        scale: i32,
        frac: u64,
        sticky: bool,
        rounding: Rounding,
        rand_word: u64,
    ) -> u64 {
        let code = self.encode_magnitude(scale, frac, sticky, rounding, rand_word);
        if sign.is_negative() {
            self.negate(code)
        } else {
            code
        }
    }

    fn encode_magnitude(
        &self,
        scale: i32,
        frac: u64,
        sticky: bool,
        rounding: Rounding,
        rand_word: u64,
    ) -> u64 {
        if let Some(code) = self.encode_out_of_range(scale, frac, rounding, rand_word) {
            return code;
        }
        let (field, exact) = crate::lut::encode_table(*self).truncate(scale, frac, sticky);
        // Truncation of the monotone code stream IS round-toward-zero in
        // value space.
        if exact || rounding == Rounding::ToZero {
            return field;
        }
        self.round_inexact(field, scale, frac, sticky, rounding, rand_word)
    }

    /// The code word of a magnitude outside `[minpos, maxpos]`'s scales, or
    /// `None` when `scale` is in range.
    fn encode_out_of_range(
        &self,
        scale: i32,
        frac: u64,
        rounding: Rounding,
        rand_word: u64,
    ) -> Option<u64> {
        if scale > self.max_scale() {
            // Overflow clips to maxpos in every mode: Algorithm 1 line 7 for
            // RTZ; "never round to NaR" for RNE/SR.
            return Some(self.maxpos_bits());
        }
        if scale >= self.min_scale() {
            return None;
        }
        Some(match rounding {
            // Algorithm 1 lines 3-4: flush to zero below minpos.
            Rounding::ToZero => 0,
            // Posit standard: non-zero values never round to zero.
            Rounding::NearestEven => self.minpos_bits(),
            Rounding::Stochastic => {
                // Round up to minpos with probability value/minpos.
                let shift = (self.min_scale() - scale) as u64;
                let sig = (1u64 << 63) | (frac >> 1);
                let p = if shift > 64 { 0 } else { sig >> (shift - 1) };
                if rand_word < p {
                    self.minpos_bits()
                } else {
                    0
                }
            }
        })
    }

    /// Nearest-even or stochastic rounding of an inexact in-range
    /// magnitude whose truncated (round-toward-zero) code word is `field`.
    /// These modes need true value-space comparisons because posit code
    /// spacing is geometric across regime boundaries (between 1024 and
    /// 4096 in (8,1) the arithmetic midpoint is 2560, not the stream-guard
    /// boundary 2048).
    fn round_inexact(
        &self,
        field: u64,
        scale: i32,
        frac: u64,
        sticky: bool,
        rounding: Rounding,
        rand_word: u64,
    ) -> u64 {
        let maxpos_code = self.maxpos_bits();
        let code = if field == maxpos_code {
            // x lies above maxpos' last representable step; clamp
            // (posits never round to NaR).
            maxpos_code
        } else {
            let c0 = field;
            let c1 = field + 1;
            // The neighbour decodes dominate the rounding search; narrow
            // formats resolve them from the decode LUT.
            let d0 = match self.decode_fast(c0) {
                crate::value::PositValue::Finite(d) => d,
                _ => unreachable!("1 <= c0 < maxpos is finite"),
            };
            let d1 = match self.decode_fast(c1) {
                crate::value::PositValue::Finite(d) => d,
                _ => unreachable!("c1 <= maxpos is finite"),
            };
            // All three magnitudes on the common grid 2^(d0.scale - 64):
            // v = ((1<<64) + frac) * 2^(scale - 64).
            let sig_x = (1u128 << 64) + frac as u128;
            let sig0 = (1u128 << 64) + d0.frac as u128;
            let sig1 = (1u128 << 64) + d1.frac as u128;
            let dx = (scale - d0.scale) as u32; // <= 2^es
            let d01 = (d1.scale - d0.scale) as u32; // <= 2^es
            match rounding {
                Rounding::ToZero => unreachable!(),
                Rounding::NearestEven => {
                    // Compare 2x against v0 + v1.
                    let x2 = sig_x << (dx + 1);
                    let s = sig0 + (sig1 << d01);
                    match x2.cmp(&s) {
                        std::cmp::Ordering::Greater => c1,
                        std::cmp::Ordering::Less => c0,
                        std::cmp::Ordering::Equal => {
                            if sticky {
                                c1 // truly above the midpoint
                            } else if c0 & 1 == 0 {
                                c0 // tie: even code LSB wins
                            } else {
                                c1
                            }
                        }
                    }
                }
                Rounding::Stochastic => {
                    // P(round up) = (x - v0) / (v1 - v0), in value space so
                    // the expectation is unbiased.
                    let num = (sig_x << dx) - sig0;
                    let den = (sig1 << d01) - sig0;
                    debug_assert!(num <= den);
                    let bits = 128 - den.leading_zeros();
                    let shift = bits.saturating_sub(64);
                    let den64 = (den >> shift) as u128;
                    let num_s = (num >> shift) as u128;
                    let lhs = (rand_word as u128) * den64;
                    let rhs = num_s << 64;
                    if lhs < rhs {
                        c1
                    } else {
                        c0
                    }
                }
            }
        };
        // A non-zero magnitude with scale >= min_scale always produces a
        // non-zero field, so no zero-clamping is needed here.
        debug_assert!(code >= 1 && code <= maxpos_code);
        code
    }

    /// [`PositFormat::encode_fields`] with the truncated code built bit by
    /// bit in a `u128` regime|exponent|fraction stream instead of read from
    /// the [`crate::lut::EncodeTable`]. A test oracle for the table; not
    /// called by the library.
    #[doc(hidden)]
    pub fn encode_fields_bitstream(
        &self,
        sign: Sign,
        scale: i32,
        frac: u64,
        sticky: bool,
        rounding: Rounding,
        rand_word: u64,
    ) -> u64 {
        let code = match self.encode_out_of_range(scale, frac, rounding, rand_word) {
            Some(code) => code,
            None => {
                // The unbounded bit stream, most significant bit first at
                // position 127.
                let es = self.es;
                let k = scale >> es;
                let e = (scale - (k << es)) as u128; // in [0, 2^es)
                let mut body: u128 = 0;
                let mut pos: u32 = 128;
                if k >= 0 {
                    let ones = k as u32 + 1;
                    // `ones` 1-bits then a terminating 0.
                    body |= ((1u128 << ones) - 1) << (pos - ones);
                    pos -= ones + 1;
                } else {
                    let zeros = (-k) as u32;
                    pos -= zeros;
                    body |= 1u128 << (pos - 1);
                    pos -= 1;
                }
                if es > 0 {
                    body |= e << (pos - es);
                    pos -= es;
                }
                body |= (frac as u128) << (pos - 64);
                // The top n-1 bits are the field; the rest is the tail.
                let field_bits = self.n - 1;
                let field = (body >> (128 - field_bits)) as u64;
                let exact = body << field_bits == 0 && !sticky;
                if exact || rounding == Rounding::ToZero {
                    field
                } else {
                    self.round_inexact(field, scale, frac, sticky, rounding, rand_word)
                }
            }
        };
        if sign.is_negative() {
            self.negate(code)
        } else {
            code
        }
    }

    /// Convert an `f64` to the nearest posit under `rounding`.
    ///
    /// `NaN` and `±∞` map to NaR; `±0` maps to zero.
    ///
    /// # Panics
    ///
    /// Panics if `rounding` is [`Rounding::Stochastic`]; use
    /// [`PositFormat::from_f64_stochastic`], which takes the random word.
    pub fn from_f64(&self, x: f64, rounding: Rounding) -> u64 {
        assert!(
            rounding != Rounding::Stochastic,
            "stochastic rounding needs a random word; use from_f64_stochastic"
        );
        self.from_f64_impl(x, rounding, 0)
    }

    /// Convert an `f64` to posit with stochastic rounding, using
    /// `rand_word` (uniform in `[0, 2^64)`) as the randomness source.
    pub fn from_f64_stochastic(&self, x: f64, rand_word: u64) -> u64 {
        self.from_f64_impl(x, Rounding::Stochastic, rand_word)
    }

    // `self` here is the target format, not the source value, so the
    // `from_*` self convention lint does not apply.
    #[allow(clippy::wrong_self_convention)]
    fn from_f64_impl(&self, x: f64, rounding: Rounding, rand_word: u64) -> u64 {
        if x == 0.0 {
            return 0;
        }
        if !x.is_finite() {
            return self.nar_bits();
        }
        let bits = x.to_bits();
        let sign = if bits >> 63 == 1 {
            Sign::Negative
        } else {
            Sign::Positive
        };
        let biased = ((bits >> 52) & 0x7ff) as i32;
        let mant = bits & ((1u64 << 52) - 1);
        let (scale, frac) = if biased == 0 {
            // Subnormal: value = mant * 2^-1074 with mant != 0. Normalize so
            // the msb becomes the implicit one.
            let lz = mant.leading_zeros(); // in [12, 63]
            let scale = 63 - lz as i32 - 1074;
            let frac = if lz >= 63 { 0 } else { mant << (lz + 1) };
            (scale, frac)
        } else {
            (biased - 1023, mant << 12)
        };
        self.encode_fields(sign, scale, frac, false, rounding, rand_word)
    }

    /// Convert an `f32` (the tensor element type used in training) to posit.
    ///
    /// # Panics
    ///
    /// Panics if `rounding` is [`Rounding::Stochastic`]; use
    /// [`PositFormat::from_f64_stochastic`].
    pub fn from_f32(&self, x: f32, rounding: Rounding) -> u64 {
        self.from_f64(x as f64, rounding)
    }
}

impl fmt::Display for PositFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "posit({},{})", self.n, self.es)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_validation() {
        assert!(PositFormat::new(8, 1).is_ok());
        assert!(PositFormat::new(1, 0).is_err());
        assert!(PositFormat::new(33, 1).is_err());
        assert!(PositFormat::new(16, 5).is_err());
        let e = PositFormat::new(40, 9).unwrap_err();
        assert_eq!(e.n(), 40);
        assert_eq!(e.es(), 9);
        assert!(e.to_string().contains("invalid posit format"));
    }

    #[test]
    fn special_codes() {
        let f = PositFormat::of(16, 1);
        assert_eq!(f.decode(f.zero_bits()), PositValue::Zero);
        assert_eq!(f.decode(f.nar_bits()), PositValue::NaR);
        assert_eq!(f.to_f64(f.one_bits()), 1.0);
        assert_eq!(f.to_f64(f.maxpos_bits()), f.maxpos());
        assert_eq!(f.to_f64(f.minpos_bits()), f.minpos());
        assert_eq!(f.maxpos(), 2f64.powi(28));
    }

    #[test]
    fn five_one_extremes() {
        // Paper §II-B: for (5,1), maxpos = useed^(n-2) = 4^3 = 64 and
        // minpos = useed^(2-n) = 4^-3 = 1/64.
        let f = PositFormat::of(5, 1);
        assert_eq!(f.useed(), 4.0);
        assert_eq!(f.maxpos(), 64.0);
        assert_eq!(f.minpos(), 1.0 / 64.0);
    }

    #[test]
    fn roundtrip_all_p8e1() {
        let f = PositFormat::of(8, 1);
        for code in 0..f.code_count() {
            let v = f.to_f64(code);
            if code == f.nar_bits() {
                assert!(v.is_nan());
                continue;
            }
            let back = f.from_f64(v, Rounding::NearestEven);
            assert_eq!(back, code, "code {code:#010b} value {v}");
            let back_tz = f.from_f64(v, Rounding::ToZero);
            assert_eq!(back_tz, code, "RTZ must be exact on representables");
        }
    }

    #[test]
    fn total_order_matches_value_order() {
        let f = PositFormat::of(8, 2);
        let mut codes: Vec<u64> = (0..f.code_count()).filter(|&c| c != f.nar_bits()).collect();
        codes.sort_by(|&a, &b| f.total_cmp(a, b));
        let values: Vec<f64> = codes.iter().map(|&c| f.to_f64(c)).collect();
        for w in values.windows(2) {
            assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn rtz_truncates_toward_zero() {
        let f = PositFormat::of(8, 1);
        for code in 1..f.maxpos_bits() {
            let v = f.to_f64(code);
            let vn = f.to_f64(code + 1);
            let mid = v + (vn - v) * 0.7;
            assert_eq!(f.from_f64(mid, Rounding::ToZero), code);
            assert_eq!(f.from_f64(-mid, Rounding::ToZero), f.negate(code));
        }
    }

    #[test]
    fn rne_rounds_to_nearest() {
        let f = PositFormat::of(8, 0);
        for code in 1..f.maxpos_bits() {
            let v = f.to_f64(code);
            let vn = f.to_f64(code + 1);
            let low = v + (vn - v) * 0.25;
            let high = v + (vn - v) * 0.75;
            assert_eq!(f.from_f64(low, Rounding::NearestEven), code, "low {low}");
            assert_eq!(
                f.from_f64(high, Rounding::NearestEven),
                code + 1,
                "high {high}"
            );
        }
    }

    #[test]
    fn rne_ties_to_even() {
        let f = PositFormat::of(8, 1);
        for code in 1..f.maxpos_bits() {
            let v = f.to_f64(code);
            let vn = f.to_f64(code + 1);
            let mid = (v + vn) / 2.0;
            let r = f.from_f64(mid, Rounding::NearestEven);
            // Exact midpoint must go to the even code.
            let expected = if code & 1 == 0 { code } else { code + 1 };
            assert_eq!(
                r,
                expected,
                "mid {mid} between codes {code} and {}",
                code + 1
            );
        }
    }

    #[test]
    fn overflow_and_underflow() {
        let f = PositFormat::of(8, 1);
        assert_eq!(f.from_f64(1e30, Rounding::NearestEven), f.maxpos_bits());
        assert_eq!(f.from_f64(1e30, Rounding::ToZero), f.maxpos_bits());
        assert_eq!(
            f.from_f64(-1e30, Rounding::ToZero),
            f.negate(f.maxpos_bits())
        );
        // Below minpos: RTZ flushes (Algorithm 1), RNE goes to minpos.
        let tiny = f.minpos() / 3.0;
        assert_eq!(f.from_f64(tiny, Rounding::ToZero), 0);
        assert_eq!(f.from_f64(tiny, Rounding::NearestEven), f.minpos_bits());
        assert_eq!(f.from_f64(-tiny, Rounding::ToZero), 0);
        assert_eq!(
            f.from_f64(-tiny, Rounding::NearestEven),
            f.negate(f.minpos_bits())
        );
    }

    #[test]
    fn nan_and_inf_map_to_nar() {
        let f = PositFormat::of(16, 2);
        assert_eq!(f.from_f64(f64::NAN, Rounding::NearestEven), f.nar_bits());
        assert_eq!(f.from_f64(f64::INFINITY, Rounding::ToZero), f.nar_bits());
        assert_eq!(
            f.from_f64(f64::NEG_INFINITY, Rounding::ToZero),
            f.nar_bits()
        );
    }

    #[test]
    fn subnormal_f64_input() {
        let f = PositFormat::of(32, 4);
        // A subnormal f64 is far below minpos for any supported format
        // except very wide scales; (32,4) has min_scale = -480 < -1074? No:
        // -480 > -1074, so subnormals flush/round at the boundary.
        let sub = f64::from_bits(1); // smallest positive subnormal, 2^-1074
        assert_eq!(f.from_f64(sub, Rounding::ToZero), 0);
        assert_eq!(f.from_f64(sub, Rounding::NearestEven), f.minpos_bits());
        // Round-trip a mid-sized subnormal through a format that can hold it
        // exactly is impossible (min_scale=-480), so just check monotonicity.
        let sub2 = f64::from_bits(1u64 << 51); // 2^-1023
        assert_eq!(f.from_f64(sub2, Rounding::ToZero), 0);
    }

    #[test]
    fn field_layout_matches_paper_examples() {
        // (5,1) code 00101 = regime -1 (2 bits "01"), 1 exponent bit, 1 frac bit.
        let f = PositFormat::of(5, 1);
        let l = f.field_layout(-2); // scale of 3/8 is -2
        assert_eq!(l.k, -1);
        assert_eq!(l.regime_bits, 2);
        assert_eq!(l.exponent_bits, 1);
        assert_eq!(l.fraction_bits, 1);
        // maxpos: regime fills everything.
        let l = f.field_layout(f.max_scale());
        assert_eq!(l.k, 3);
        assert_eq!(l.regime_bits, 4);
        assert_eq!(l.exponent_bits, 0);
        assert_eq!(l.fraction_bits, 0);
    }

    #[test]
    fn stochastic_rounding_is_bounded_by_neighbours() {
        let f = PositFormat::of(8, 1);
        let x = 1.3; // between 1.25 and 1.375 for (8,1)? whatever the grid is
        let lo = f.from_f64(x, Rounding::ToZero);
        let mut seen_lo = false;
        let mut seen_hi = false;
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = f.from_f64_stochastic(x, state);
            assert!(r == lo || r == lo + 1, "SR escaped the bracketing codes");
            seen_lo |= r == lo;
            seen_hi |= r == lo + 1;
        }
        assert!(seen_lo && seen_hi, "SR should hit both neighbours of 1.3");
    }

    #[test]
    fn stochastic_expected_value_is_close() {
        let f = PositFormat::of(8, 1);
        let x = 1.3;
        let mut state = 42u64;
        let mut acc = 0.0;
        let trials = 20_000;
        for _ in 0..trials {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            acc += f.to_f64(f.from_f64_stochastic(x, state));
        }
        let mean = acc / trials as f64;
        assert!((mean - x).abs() < 0.01, "SR mean {mean} too far from {x}");
    }

    #[test]
    fn n2_degenerate_format() {
        let f = PositFormat::of(2, 0);
        assert_eq!(f.to_f64(f.one_bits()), 1.0);
        assert_eq!(f.maxpos(), 1.0);
        assert_eq!(f.minpos(), 1.0);
        assert_eq!(f.from_f64(0.7, Rounding::NearestEven), f.one_bits());
        assert_eq!(f.from_f64(-3.0, Rounding::ToZero), f.negate(f.one_bits()));
    }

    #[test]
    fn negative_round_trip() {
        let f = PositFormat::of(16, 1);
        for x in [-1.0, -0.5, -3.75, -1024.0, -1.0 / 1024.0] {
            let b = f.from_f64(x, Rounding::NearestEven);
            assert_eq!(f.to_f64(b), x, "{x} should be exactly representable");
        }
    }

    #[test]
    fn next_up_down() {
        let f = PositFormat::of(8, 1);
        let one = f.one_bits();
        assert!(f.to_f64(f.next_up(one)) > 1.0);
        assert!(f.to_f64(f.next_down(one)) < 1.0);
        assert_eq!(f.next_up(f.maxpos_bits()), f.maxpos_bits());
    }
}
