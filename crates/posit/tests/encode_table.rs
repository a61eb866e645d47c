//! Pins the table-driven encode (`posit::lut::EncodeTable`) against the
//! bit-stream builder it replaced (`PositFormat::encode_fields_bitstream`,
//! kept only as this oracle), and the fused f32 `P(·)` against a code-word
//! round trip through the bit-twiddled decode.
//!
//! Inputs: every f32 exponent byte × both signs × boundary mantissas (zero,
//! all ones, each single bit, each possible half-ulp ± 1) plus seeded random
//! mantissas; every in- and out-of-range scale × boundary and random 64-bit
//! fractions × sticky; all three roundings with fixed stochastic words; and
//! `encode(decode(c)) == c` for every 8- and 16-bit code word.

use posit::{quant, PositFormat, PositValue, Rounding, Sign};

const FORMATS: [(u32, u32); 7] = [(6, 0), (8, 0), (8, 1), (8, 2), (12, 1), (16, 1), (16, 2)];

const SR_WORDS: [u64; 4] = [0, 1 << 63, u64::MAX, 0x9E37_79B9_7F4A_7C15];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every (rounding, random word) pair the encode is checked under.
fn modes() -> Vec<(Rounding, u64)> {
    let mut m = vec![(Rounding::ToZero, 0), (Rounding::NearestEven, 0)];
    m.extend(SR_WORDS.iter().map(|&w| (Rounding::Stochastic, w)));
    m
}

/// The oracle for `from_f64` on an f32 input: the same field split, then
/// the bit-stream builder.
fn oracle_from_f32(fmt: PositFormat, x: f32, rounding: Rounding, word: u64) -> u64 {
    if x == 0.0 {
        return 0;
    }
    if !x.is_finite() {
        return fmt.nar_bits();
    }
    // Every f32, subnormals included, is a normal f64.
    let bits = (x as f64).to_bits();
    let sign = if x < 0.0 {
        Sign::Negative
    } else {
        Sign::Positive
    };
    let scale = ((bits >> 52) & 0x7ff) as i32 - 1023;
    let frac = bits << 12;
    fmt.encode_fields_bitstream(sign, scale, frac, false, rounding, word)
}

fn encode(fmt: PositFormat, x: f32, rounding: Rounding, word: u64) -> u64 {
    match rounding {
        Rounding::Stochastic => fmt.from_f64_stochastic(x as f64, word),
        mode => fmt.from_f32(x, mode),
    }
}

/// Boundary mantissas plus `random` seeded ones.
fn mantissas(rng: &mut u64, random: usize) -> Vec<u32> {
    let mut m = vec![0, 0x7F_FFFF];
    for p in 0..23 {
        // A single bit; and as the half-ulp of a format keeping 22 - p
        // fraction bits, its two neighbours.
        m.extend([1 << p, (1 << p) - 1, (1 << p) + 1]);
    }
    m.extend((0..random).map(|_| splitmix(rng) as u32 & 0x7F_FFFF));
    m.sort_unstable();
    m.dedup();
    m
}

#[test]
fn f32_inputs_encode_like_the_bitstream_builder() {
    let mut rng = 0x5EED;
    for (n, es) in FORMATS {
        let fmt = PositFormat::of(n, es);
        for byte in 0..=255u32 {
            for sign in [0u32, 1] {
                for m in mantissas(&mut rng, 8) {
                    let x = f32::from_bits(sign << 31 | byte << 23 | m);
                    for (rounding, word) in modes() {
                        let want = oracle_from_f32(fmt, x, rounding, word);
                        let got = encode(fmt, x, rounding, word);
                        assert_eq!(got, want, "{fmt} {x:e} {rounding:?} word {word:#x}");
                        if rounding == Rounding::Stochastic {
                            continue;
                        }
                        // The fused f32 P(·) against the code word decoded
                        // by the bit-twiddled decoder.
                        let want_f = fmt.decode(want).to_f64() as f32;
                        let got_f = quant::quantize_f32(&fmt, x, rounding);
                        assert_eq!(
                            got_f.to_bits(),
                            want_f.to_bits(),
                            "{fmt} P({x:e}) {rounding:?}: {got_f:e} vs {want_f:e}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_scale_and_fraction_encodes_like_the_bitstream_builder() {
    let mut rng = 0xF00D;
    for (n, es) in FORMATS {
        let fmt = PositFormat::of(n, es);
        let mut fracs = vec![0, u64::MAX];
        fracs.extend((0..64).map(|p| 1u64 << p));
        for scale in fmt.min_scale() - 3..=fmt.max_scale() + 3 {
            let random: Vec<u64> = (0..8).map(|_| splitmix(&mut rng)).collect();
            for &frac in fracs.iter().chain(&random) {
                for sticky in [false, true] {
                    for sign in [Sign::Positive, Sign::Negative] {
                        for (rounding, word) in modes() {
                            let want = fmt
                                .encode_fields_bitstream(sign, scale, frac, sticky, rounding, word);
                            let got = fmt.encode_fields(sign, scale, frac, sticky, rounding, word);
                            assert_eq!(
                                got, want,
                                "{fmt} {sign}2^{scale} frac {frac:#x} sticky {sticky} \
                                 {rounding:?} word {word:#x}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn encode_of_decode_is_the_identity_on_every_8_and_16_bit_code() {
    for n in [8u32, 16] {
        for es in 0..=2u32 {
            let fmt = PositFormat::of(n, es);
            for code in 0..fmt.code_count() {
                let v = fmt.decode(code);
                // The LUT-backed to_f64/to_f32 agree with the bit-twiddled decode.
                assert_eq!(fmt.to_f64(code).to_bits(), v.to_f64().to_bits());
                assert_eq!(fmt.to_f32(code).to_bits(), (v.to_f64() as f32).to_bits());
                let d = match v {
                    PositValue::Finite(d) => d,
                    _ => continue,
                };
                for (rounding, word) in modes() {
                    let back = fmt.encode_fields(d.sign, d.scale, d.frac, false, rounding, word);
                    assert_eq!(back, code, "{fmt} code {code:#x} {rounding:?}");
                }
            }
        }
    }
}

#[test]
fn wide_formats_quantize_like_the_code_word_path() {
    // (32,2) keeps more fraction bits than an f32 has, so its rows keep the
    // whole mantissa. (10,4) and (32,3) represent scales below -126, where
    // f32 subnormals do not truncate by masking: no f32 rows, the code-word
    // path instead.
    let mut rng = 7;
    for (n, es) in [(32u32, 2u32), (10, 4), (32, 3)] {
        let fmt = PositFormat::of(n, es);
        for byte in [0u32, 1, 2, 100, 127, 200, 254, 255] {
            for m in mantissas(&mut rng, 4) {
                for sign in [0u32, 1] {
                    let x = f32::from_bits(sign << 31 | byte << 23 | m);
                    for rounding in [Rounding::ToZero, Rounding::NearestEven] {
                        let want = fmt.decode(oracle_from_f32(fmt, x, rounding, 0)).to_f64() as f32;
                        let got = quant::quantize_f32(&fmt, x, rounding);
                        assert_eq!(got.to_bits(), want.to_bits(), "{fmt} P({x:e}) {rounding:?}");
                    }
                }
            }
        }
    }
}
