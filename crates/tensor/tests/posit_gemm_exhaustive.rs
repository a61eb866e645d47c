//! Exhaustive posit(8,·) cross-backend agreement: the `posit-quire` GEMM —
//! narrow-accumulator fast path, decode LUTs, register-blocked tiles and
//! all — must be bit-identical to a double-rounding-free reference built
//! from exact rational arithmetic (`posit::exact`), for every code-word
//! pair of every 8-bit training format and for full-code-space dot
//! products, plus a sampled posit(16,1) sweep and forced-fallback checks
//! that pin the wide-quire path against the fast path on identical inputs.

use posit::exact::{decode_ref, Rational, RefRounder};
use posit::{PositFormat, Rounding};
use posit_tensor::{PackedBits, PositGemm, PositPlane, Transpose};

/// The 8-bit formats the paper trains with (es 0..=2).
const NARROW_FMTS: [PositFormat; 3] = [
    PositFormat::of(8, 0),
    PositFormat::of(8, 1),
    PositFormat::of(8, 2),
];

/// Every finite code word of a format (zero included, NaR excluded).
fn finite_codes(fmt: PositFormat) -> Vec<u64> {
    (0..fmt.code_count())
        .filter(|&c| c != fmt.nar_bits())
        .collect()
}

fn exact(fmt: PositFormat, code: u64) -> Rational {
    decode_ref(&fmt, code).expect("finite code")
}

/// Reference: round an exact rational once, per the kernel's rounding mode.
fn round_ref(r: &RefRounder, x: &Rational, rounding: Rounding) -> u64 {
    match rounding {
        Rounding::NearestEven => r.nearest(x),
        Rounding::ToZero => r.toward_zero(x),
        Rounding::Stochastic => unreachable!("kernel never runs stochastic"),
    }
}

/// All pairwise products in one GEMM: `C[254,254] = A[254,1] · B[1,254]`.
/// Each output element is a single-product dot, so the kernel result must
/// equal the exactly-computed product rounded once — for every 8-bit
/// training format, through the LUT decode and the narrow accumulator.
#[test]
fn exhaustive_pairwise_products_match_exact_rationals() {
    for fmt in NARROW_FMTS {
        let codes = finite_codes(fmt);
        let m = codes.len();
        let a = PositPlane::from_bits(fmt, &codes); // [m, 1]
        let b = PositPlane::from_bits(fmt, &codes); // [1, m]
        let rounder = RefRounder::new(fmt);
        for rounding in [Rounding::NearestEven, Rounding::ToZero] {
            let kernel = PositGemm::new(fmt, rounding);
            assert!(kernel.uses_narrow_path(0, 1), "{fmt} must run narrow");
            let mut c = vec![0.0f32; m * m];
            kernel.gemm(Transpose::None, m, 1, m, &a, &b, &mut c);
            for (i, &ca) in codes.iter().enumerate() {
                for (j, &cb) in codes.iter().enumerate() {
                    let prod = exact(fmt, ca).mul(&exact(fmt, cb));
                    let want = fmt.to_f32(round_ref(&rounder, &prod, rounding));
                    assert_eq!(
                        c[i * m + j],
                        want,
                        "{fmt} {rounding:?}: {ca:#04x} * {cb:#04x}"
                    );
                }
            }
        }
    }
}

/// The forced-wide kernel must agree with the fast path on the same
/// exhaustive pairwise sweep: narrow accumulator, LUT store and tiling are
/// bit-transparent by construction, and this pins it on every code pair.
#[test]
fn exhaustive_pairwise_products_forced_wide_agrees() {
    for fmt in NARROW_FMTS {
        let codes = finite_codes(fmt);
        let m = codes.len();
        let a = PositPlane::from_bits(fmt, &codes);
        let b = PositPlane::from_bits(fmt, &codes);
        for rounding in [Rounding::NearestEven, Rounding::ToZero] {
            let fast = PositGemm::new(fmt, rounding);
            let wide = fast.wide_accumulator(true);
            assert!(!wide.uses_narrow_path(0, 1));
            let mut c_fast = vec![0.0f32; m * m];
            let mut c_wide = vec![0.0f32; m * m];
            fast.gemm(Transpose::None, m, 1, m, &a, &b, &mut c_fast);
            wide.gemm(Transpose::None, m, 1, m, &a, &b, &mut c_wide);
            // Bitwise: NaN-free data, so f32 equality is bit equality.
            assert_eq!(c_fast, c_wide, "{fmt} {rounding:?}");
        }
    }
}

/// Full-code-space dot products: pair the exhaustive code list against
/// rotated copies of itself so every code meets many partners inside one
/// accumulation, and compare against exact rational summation rounded once
/// (the double-rounding-free reference) — per 8-bit format.
#[test]
fn exhaustive_dot_products_match_exact_accumulation() {
    for fmt in NARROW_FMTS {
        // The i128 rational reference cannot hold an (8,2) sum that mixes
        // maxpos² (2^48) with minpos² (2^-96) — numerator × denominator
        // overflows — so for es=2 the dot sweep windows the codes to
        // |scale| ≤ 12. The kernel itself is pinned on the *full* (8,2)
        // code space by the pairwise-product sweep above.
        let codes: Vec<u64> = if fmt.es() >= 2 {
            finite_codes(fmt)
                .into_iter()
                .filter(|&c| {
                    let v = fmt.to_f64(c).abs();
                    v == 0.0 || (2f64.powi(-12)..=2f64.powi(12)).contains(&v)
                })
                .collect()
        } else {
            finite_codes(fmt)
        };
        let k = codes.len();
        let rounder = RefRounder::new(fmt);
        for rotation in [1usize, 37, 101, 200] {
            let rotated: Vec<u64> = (0..k).map(|i| codes[(i + rotation) % k]).collect();
            let a = PositPlane::from_bits(fmt, &codes); // [1, k]
            let b = PositPlane::from_bits(fmt, &rotated); // [k, 1]
            let mut sum = Rational::ZERO;
            for (&ca, &cb) in codes.iter().zip(&rotated) {
                sum = sum.add(&exact(fmt, ca).mul(&exact(fmt, cb)));
            }
            for rounding in [Rounding::NearestEven, Rounding::ToZero] {
                let kernel = PositGemm::new(fmt, rounding);
                let mut c = vec![0.0f32; 1];
                kernel.gemm(Transpose::None, 1, k, 1, &a, &b, &mut c);
                let want = fmt.to_f32(round_ref(&rounder, &sum, rounding));
                assert_eq!(c[0], want, "{fmt} rotation {rotation}, {rounding:?}");
            }
        }
    }
}

/// Sampled posit(16,1) sweep against the exact rational reference: random
/// code-word dots at several reduction depths, checking the narrow
/// accumulator's 16-bit regime (no LUT, 13 guard bits) and the wide
/// fallback on the same data.
#[test]
fn sampled_p16_dots_match_exact_rationals() {
    let fmt = PositFormat::of(16, 1);
    let rounder = RefRounder::new(fmt);
    let mut state = 0xD1CE_5EED_0BAD_F00Du64;
    let mut rand_code = |exclude_nar: bool| loop {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let c = (state >> 24) & fmt.mask();
        if !(exclude_nar && c == fmt.nar_bits()) {
            return c;
        }
    };
    for (trial, &k) in [1usize, 2, 7, 64, 333].iter().enumerate().cycle().take(60) {
        let xs: Vec<u64> = (0..k).map(|_| rand_code(true)).collect();
        let ys: Vec<u64> = (0..k).map(|_| rand_code(true)).collect();
        let a = PositPlane::from_bits(fmt, &xs);
        let b = PositPlane::from_bits(fmt, &ys);
        let mut sum = Rational::ZERO;
        for (&ca, &cb) in xs.iter().zip(&ys) {
            sum = sum.add(&exact(fmt, ca).mul(&exact(fmt, cb)));
        }
        for rounding in [Rounding::NearestEven, Rounding::ToZero] {
            let fast = PositGemm::new(fmt, rounding);
            assert!(fast.uses_narrow_path(0, k));
            let want = fmt.to_f32(round_ref(&rounder, &sum, rounding));
            let mut c = vec![0.0f32; 1];
            fast.gemm(Transpose::None, 1, k, 1, &a, &b, &mut c);
            assert_eq!(c[0], want, "narrow trial {trial} k={k} {rounding:?}");
            let mut c = vec![0.0f32; 1];
            fast.wide_accumulator(true)
                .gemm(Transpose::None, 1, k, 1, &a, &b, &mut c);
            assert_eq!(c[0], want, "wide trial {trial} k={k} {rounding:?}");
        }
    }
}

/// Forced-fallback agreement at GEMM scale: a (16,1) shape big enough to
/// engage register tiles, edge loops and the parallel row split, with NaR
/// and zero elements mixed in, must produce identical outputs through the
/// narrow fast path and the forced wide quire.
#[test]
fn forced_fallback_agrees_on_gemm_scale_inputs() {
    let fmt = PositFormat::of(16, 1);
    let (m, k, n) = (37, 19, 23);
    let mut state = 0xABCD_EF01_2345_6789u64;
    let mut codes = |len: usize| -> Vec<u64> {
        (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if i % 11 == 0 {
                    0 // zeros exercise the skip branch
                } else {
                    (state >> 13) & fmt.mask()
                }
            })
            .collect()
    };
    let mut a_codes = codes(m * k);
    let mut b_codes = codes(k * n);
    // One NaR in each operand: poisons a single output row/column, leaving
    // plenty of finite outputs to compare.
    a_codes[3 * k + 1] = fmt.nar_bits();
    b_codes[2 * n + 5] = fmt.nar_bits();
    let a = PositPlane::from_bits(fmt, &a_codes);
    let b = PositPlane::from_bits(fmt, &b_codes);
    let fast = PositGemm::new(fmt, Rounding::NearestEven);
    let wide = fast.wide_accumulator(true);
    let mut c_fast = vec![0.0f32; m * n];
    let mut c_wide = vec![0.0f32; m * n];
    fast.gemm(Transpose::None, m, k, n, &a, &b, &mut c_fast);
    wide.gemm(Transpose::None, m, k, n, &a, &b, &mut c_wide);
    for (i, (x, y)) in c_fast.iter().zip(&c_wide).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "element {i}: {x} vs {y}"
        );
    }
    assert!(
        c_fast.iter().any(|v| v.is_nan()),
        "the sweep should exercise NaR outputs"
    );
    assert!(
        c_fast.iter().any(|v| *v != 0.0 && !v.is_nan()),
        "the sweep should exercise finite outputs"
    );
}

/// The transposed kernel entry points must agree with the plain one on the
/// same exhaustive data (shape conventions only differ in storage order),
/// for every 8-bit training format.
#[test]
fn transposed_kernels_bitwise_agree_on_exhaustive_data() {
    for fmt in NARROW_FMTS {
        let codes = finite_codes(fmt);
        // Arrange the 254 codes as a 127×2 times 2×127 product.
        let (m, k, n) = (127usize, 2usize, 127usize);
        let a_codes = &codes[..m * k];
        let b_codes = &codes[..k * n];
        let kernel = PositGemm::new(fmt, Rounding::NearestEven);
        let a = PositPlane::from_bits(fmt, a_codes);
        let b = PositPlane::from_bits(fmt, b_codes);
        let mut want = vec![0.0f32; m * n];
        kernel.gemm(Transpose::None, m, k, n, &a, &b, &mut want);

        let mut at_codes = vec![0u64; k * m];
        for i in 0..m {
            for kk in 0..k {
                at_codes[kk * m + i] = a_codes[i * k + kk];
            }
        }
        let a_t = PositPlane::from_bits(fmt, &at_codes);
        let mut c = vec![0.0f32; m * n];
        kernel.gemm(Transpose::A, m, k, n, &a_t, &b, &mut c);
        assert_eq!(c, want, "{fmt} gemm_at_b");

        let mut bt_codes = vec![0u64; n * k];
        for kk in 0..k {
            for j in 0..n {
                bt_codes[j * k + kk] = b_codes[kk * n + j];
            }
        }
        let b_t = PositPlane::from_bits(fmt, &bt_codes);
        let mut c = vec![0.0f32; m * n];
        kernel.gemm(Transpose::B, m, k, n, &a, &b_t, &mut c);
        assert_eq!(c, want, "{fmt} gemm_a_bt");
    }
}

/// A deterministic 64-bit LCG stream for the sweeps below.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// The SWAR lane-group decode (`n ≤ 8`) and the two-level-LUT decode
/// (`8 < n ≤ 16`) must match the bit-twiddled scalar oracle element for
/// element: every code word of every 8-bit training format (with
/// out-of-range high bits mixed in to pin the masking alias), the full
/// posit(16,1) code space, and a sampled wide-format fallback.
#[test]
fn plane_decode_paths_match_scalar_oracle() {
    // n ≤ 8: full code space + garbage high bits + a non-multiple-of-8
    // length so the lane-group remainder loop runs.
    for fmt in NARROW_FMTS {
        let mut bits: Vec<u64> = (0..fmt.code_count()).collect();
        bits.extend((0..fmt.code_count()).map(|c| c | 0xABCD_EF00));
        bits.extend([0, 1, fmt.nar_bits()]); // remainder lanes
        let fast = PositPlane::from_bits(fmt, &bits);
        let oracle = PositPlane::from_bits_scalar(fmt, &bits);
        assert_eq!(fast.elems(), oracle.elems(), "{fmt} from_bits");
    }
    // 8 < n ≤ 16: the two-level LUT route over the full (16,1) space.
    let fmt = PositFormat::of(16, 1);
    let bits: Vec<u64> = (0..fmt.code_count()).collect();
    let fast = PositPlane::from_bits(fmt, &bits);
    let oracle = PositPlane::from_bits_scalar(fmt, &bits);
    assert_eq!(fast.elems(), oracle.elems(), "{fmt} from_bits");
    // n > 16: the direct decode route, sampled.
    let fmt = PositFormat::of(32, 3);
    let mut state = 0x5EED_CAFE_F00D_BEEFu64;
    let bits: Vec<u64> = (0..4096).map(|_| lcg(&mut state) & fmt.mask()).collect();
    let fast = PositPlane::from_bits(fmt, &bits);
    let oracle = PositPlane::from_bits_scalar(fmt, &bits);
    assert_eq!(fast.elems(), oracle.elems(), "{fmt} from_bits");
}

/// The packed-plane decode (u64 lane groups over byte storage, two-level
/// LUT over u16 storage, direct decode otherwise) must match its scalar
/// oracle for every storage width, with nonzero Eq. 2 scale shifts and
/// zero/NaR elements in the stream.
#[test]
fn packed_plane_decode_matches_scalar_oracle() {
    let mut state = 0x0123_4567_89AB_CDEFu64;
    for (n, es, len) in [
        (8u32, 1u32, 1003usize), // byte storage, lane-group remainder of 3
        (8, 2, 64),              // byte storage, exact lane groups
        (16, 1, 517),            // u16 storage, two-level LUT route
        (32, 3, 129),            // u32 storage, direct decode route
    ] {
        let fmt = PositFormat::of(n, es);
        let mut packed = PackedBits::for_format(fmt, len);
        for i in 0..len {
            let code = match i % 13 {
                0 => 0,              // zeros keep their canonical element
                7 => fmt.nar_bits(), // NaR keeps its sentinel under shifts
                _ => lcg(&mut state) & fmt.mask(),
            };
            packed.push(code);
        }
        for scale_exp in [-9i32, 0, 6] {
            let fast = PositPlane::from_packed(fmt, &packed, scale_exp);
            let oracle = PositPlane::from_packed_scalar(fmt, &packed, scale_exp);
            assert_eq!(fast.scale_exp(), oracle.scale_exp());
            assert_eq!(
                fast.elems(),
                oracle.elems(),
                "{fmt} from_packed scale_exp={scale_exp}"
            );
        }
    }
}

/// Bitwise agreement of two GEMM outputs, with NaN matching NaN.
fn assert_bits_agree(got: &[f32], want: &[f32], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{label} element {i}: {x} vs {y}"
        );
    }
}

/// The fixed-point quire sums integer multiples of minpos, so it must be
/// bit-identical to the wide quire on the same inputs — pinned on every
/// pairwise product of every 8-bit training format (k = 1).
#[test]
fn fixed_pairwise_products_bitwise_agree() {
    for fmt in NARROW_FMTS {
        let codes = finite_codes(fmt);
        let m = codes.len();
        let a = PositPlane::from_bits(fmt, &codes);
        let b = PositPlane::from_bits(fmt, &codes);
        for rounding in [Rounding::NearestEven, Rounding::ToZero] {
            let fixed = PositGemm::new(fmt, rounding);
            let wide = fixed.wide_accumulator(true);
            assert!(fixed.uses_narrow_path(0, 1), "{fmt} must run fixed-point");
            let mut c_wide = vec![0.0f32; m * m];
            let mut c_fixed = vec![0.0f32; m * m];
            wide.gemm(Transpose::None, m, 1, m, &a, &b, &mut c_wide);
            fixed.gemm(Transpose::None, m, 1, m, &a, &b, &mut c_fixed);
            assert_eq!(c_wide, c_fixed, "{fmt} {rounding:?}");
        }
    }
}

/// Sampled posit(16,1) agreement at GEMM scale (the 64-bit-word tier):
/// register-tile interiors, row/column tails, zero and NaR lanes, and
/// reduction depths from 1 up to the format's whole narrow budget (8192).
#[test]
fn fixed_sampled_p16_sweeps_agree() {
    let fmt = PositFormat::of(16, 1);
    let mut state = 0xFACE_0FF5_1234_5678u64;
    // (m, k, n): tails (m % 2, n % 4 ≠ 0), shallow and deep reductions.
    for (m, k, n) in [
        (5usize, 1usize, 6usize),
        (6, 2, 7),
        (4, 47, 4),
        (5, 48, 9),
        (7, 49, 3),
        (9, 333, 5),
        (3, 8191, 5),
        (2, 8192, 6),
    ] {
        let mut gen_codes = |len: usize, poison: bool| -> Vec<u64> {
            (0..len)
                .map(|i| {
                    if i % 11 == 0 {
                        0
                    } else if poison && i % 97 == 3 {
                        fmt.nar_bits()
                    } else {
                        (lcg(&mut state) >> 17) & fmt.mask()
                    }
                })
                .collect()
        };
        let a = PositPlane::from_bits(fmt, &gen_codes(m * k, true));
        let b = PositPlane::from_bits(fmt, &gen_codes(k * n, true));
        let fixed = PositGemm::new(fmt, Rounding::NearestEven);
        let wide = fixed.wide_accumulator(true);
        assert!(fixed.uses_narrow_path(0, k), "k={k} must run fixed-point");
        let mut c_wide = vec![0.0f32; m * n];
        let mut c_fixed = vec![0.0f32; m * n];
        wide.gemm(Transpose::None, m, k, n, &a, &b, &mut c_wide);
        fixed.gemm(Transpose::None, m, k, n, &a, &b, &mut c_fixed);
        assert_bits_agree(&c_fixed, &c_wide, &format!("{m}x{k}x{n}"));
    }
}

/// Deep posit(8,1) reductions on either side of the 32-bit-word tier's
/// depth bound (16384): the same sums through `i64` and `i128`
/// accumulation must match the wide quire bit for bit.
#[test]
fn fixed_deep_reductions_agree() {
    let fmt = PositFormat::of(8, 1);
    let mut state = 0xBEE5_0000_DEAD_10CCu64;
    for (m, k, n) in [(3usize, 8193usize, 4usize), (2, 16385, 3), (5, 12000, 2)] {
        // NaR-free streams (NaR poisoning is pinned by the (16,1) sweep
        // above): with NaR anywhere in a deep column every output is NaN
        // and the integer sums go untested.
        let mut gen_codes = |len: usize| -> Vec<u64> {
            (0..len)
                .map(|i| {
                    if i % 23 == 0 {
                        0
                    } else {
                        match (lcg(&mut state) >> 11) & fmt.mask() {
                            c if c == fmt.nar_bits() => 1,
                            c => c,
                        }
                    }
                })
                .collect()
        };
        let a = PositPlane::from_bits(fmt, &gen_codes(m * k));
        let b = PositPlane::from_bits(fmt, &gen_codes(k * n));
        let fixed = PositGemm::new(fmt, Rounding::NearestEven);
        let wide = fixed.wide_accumulator(true);
        assert!(fixed.uses_narrow_path(0, k), "k={k} must run fixed-point");
        let mut c_wide = vec![0.0f32; m * n];
        let mut c_fixed = vec![0.0f32; m * n];
        wide.gemm(Transpose::None, m, k, n, &a, &b, &mut c_wide);
        fixed.gemm(Transpose::None, m, k, n, &a, &b, &mut c_fixed);
        assert_eq!(c_fixed, c_wide, "{m}x{k}x{n}");
    }
}

/// Run one `[m,k]×[k,n]` product of code words under every [`Transpose`]
/// layout, through the fixed-point quire and the forced-wide kernel, with
/// each operand's Eq. 2 scale shift folded into its packed plane; every
/// output must agree bit for bit. Returns the (plain-layout) output.
#[allow(clippy::too_many_arguments)]
fn fixed_matches_wide_in_every_layout(
    fmt: PositFormat,
    m: usize,
    k: usize,
    n: usize,
    a: &[u64],
    b: &[u64],
    (sa, sb): (i32, i32),
    label: &str,
) -> Vec<f32> {
    let plane = |codes: &[u64], scale_exp: i32| {
        let mut packed = PackedBits::for_format(fmt, codes.len());
        codes.iter().for_each(|&c| packed.push(c));
        PositPlane::from_packed(fmt, &packed, scale_exp)
    };
    let transpose = |codes: &[u64], rows: usize, cols: usize| -> Vec<u64> {
        (0..rows * cols)
            .map(|i| codes[(i % rows) * cols + i / rows])
            .collect()
    };
    let fixed = PositGemm::new(fmt, Rounding::NearestEven);
    let wide = fixed.wide_accumulator(true);
    let margin = sa.unsigned_abs() + sb.unsigned_abs();
    assert!(
        fixed.uses_narrow_path(margin, k),
        "{label}: must run fixed-point"
    );
    let mut plain = Vec::new();
    for t in [Transpose::None, Transpose::A, Transpose::B] {
        let pa = match t {
            Transpose::A => plane(&transpose(a, m, k), sa),
            _ => plane(a, sa),
        };
        let pb = match t {
            Transpose::B => plane(&transpose(b, k, n), sb),
            _ => plane(b, sb),
        };
        let mut c_wide = vec![0.0f32; m * n];
        let mut c_fixed = vec![0.0f32; m * n];
        wide.gemm(t, m, k, n, &pa, &pb, &mut c_wide);
        fixed.gemm(t, m, k, n, &pa, &pb, &mut c_fixed);
        assert_bits_agree(&c_fixed, &c_wide, &format!("{label} {t:?}"));
        if t == Transpose::None {
            plain = c_fixed;
        }
    }
    plain
}

/// The tier boundaries of the fixed-point quire, at their worst case:
/// every product `±maxpos·maxpos`, all of one sign per output row, so the
/// integer sum reaches `k·2^(4·max_scale)`.
///
/// * posit(8,1) at the largest 32-bit-word depth (16384, sum `2^62`), one
///   past it (the first 64-bit-word depth) and at twice it (`2^63`, which
///   an `i64` cannot hold);
/// * posit(16,1) at its whole narrow budget (8192, sum `2^125` in `i128`).
///
/// Row 0 sums positive products, row 1 negative ones; both round to
/// `±maxpos`, and the forced-wide kernel must agree in every layout.
#[test]
fn fixed_tier_boundaries_agree_at_maxpos() {
    for (fmt, k) in [
        (PositFormat::of(8, 1), 16384usize),
        (PositFormat::of(8, 1), 16385),
        (PositFormat::of(8, 1), 32768),
        (PositFormat::of(16, 1), 8192),
    ] {
        let (m, n) = (2usize, 3usize);
        let maxpos = fmt.maxpos_bits();
        let a: Vec<u64> = (0..m * k)
            .map(|i| if i < k { maxpos } else { fmt.negate(maxpos) })
            .collect();
        let b = vec![maxpos; k * n];
        let label = format!("{fmt} k={k}");
        let c = fixed_matches_wide_in_every_layout(fmt, m, k, n, &a, &b, (0, 0), &label);
        let top = fmt.to_f32(maxpos);
        assert_eq!(c, [top, top, top, -top, -top, -top], "{label}");
    }
}

/// Operand planes whose Eq. 2 scale shifts have opposite signs: the sum's
/// LSB weighs `2^(2·min_scale + scale_exp_a + scale_exp_b)` and folds into
/// an accumulator widened by `|scale_exp_a| + |scale_exp_b|`, with zero
/// and NaR lanes mixed in, on every tier and every layout.
#[test]
fn fixed_opposite_scale_shifts_agree() {
    let mut state = 0x0DD5_CA1E_5EED_0001u64;
    for (n_bits, es, k, shifts) in [
        (8u32, 1u32, 37usize, (5i32, -3i32)),
        (8, 1, 37, (-6, 2)),
        (8, 2, 29, (-4, 6)),
        (16, 1, 8, (2, -1)),
    ] {
        let fmt = PositFormat::of(n_bits, es);
        let (m, n) = (5usize, 7usize);
        let mut gen_codes = |len: usize| -> Vec<u64> {
            (0..len)
                .map(|i| match i % 17 {
                    0 => 0,
                    _ => (lcg(&mut state) >> 21) & fmt.mask(),
                })
                .collect()
        };
        let mut a = gen_codes(m * k);
        a[2 * k + 3] = fmt.nar_bits(); // poisons output row 2 only
        let b = gen_codes(k * n);
        let label = format!("{fmt} shifts {shifts:?}");
        let c = fixed_matches_wide_in_every_layout(fmt, m, k, n, &a, &b, shifts, &label);
        assert!(c.iter().any(|v| v.is_nan()), "{label}: NaR lanes");
        assert!(
            c.iter().any(|v| *v != 0.0 && !v.is_nan()),
            "{label}: finite outputs"
        );
    }
}
