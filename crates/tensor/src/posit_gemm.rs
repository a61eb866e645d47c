//! Posit-domain GEMM: decode-once operand planes with exact quire
//! accumulation.
//!
//! The paper's claim is that low-precision posit training holds up when dot
//! products accumulate *exactly* (the EMAC of Deep Positron): every product
//! `P(a)·P(b)` lands in a wide fixed-point accumulator and the sum is
//! rounded to a posit only once, on store. The naive way to get there is to
//! call [`posit::Quire::add_product`] per multiply-accumulate, which decodes
//! both code words every time — `O(M·N·K)` decodes. The kernels here instead
//! unpack each operand element once into an `(sign, scale, fraction)`
//! [`PositPlane`] and feed raw significand products to the accumulator —
//! `O(M·K + K·N)` decodes, zero per-MAC decode work.
//!
//! Three compounding optimisations keep the per-MAC cost near the integer
//! multiply it fundamentally is:
//!
//! * **narrow accumulator** — for formats whose whole product range fits an
//!   `i128` (every format the paper trains with: posit(8,es), posit(16,1)),
//!   dot products accumulate in a register-resident [`posit::NarrowQuire`]
//!   instead of the heap-allocated limb array, with a once-per-call
//!   eligibility check (`4·max_scale + 2·margin + 2 + ⌈log2 K⌉ ≤ 127`)
//!   that falls back to the wide [`Quire`] otherwise — bit-identically;
//! * **decode LUTs** — ≤8-bit formats decode operand planes through a
//!   256-entry [`Unpacked`] table and round back to f32 on store through
//!   [`posit::lut::to_f32_lut`], replacing per-element bit-twiddling;
//! * **fixed-point quire** — every posit value is an integer multiple of
//!   `minpos`, so the narrow path packs each operand element once into a
//!   signed integer word (`value / minpos`, at most `2·max_scale + 1`
//!   bits) and computes every dot product as a plain integer
//!   multiply-add in an `MR×NR` register tile: 32-bit words with `i64`
//!   sums when `4·max_scale + ⌈log2 K⌉ ≤ 62`, 64-bit words with `i128`
//!   sums otherwise. Each output's sum folds into its accumulator with
//!   one shift ([`posit::NarrowQuire::add_fixed`]).
//!
//! [`PositGemm::gemm`] mirrors the three f32 kernels in [`crate::gemm`]
//! behind one [`Transpose`] tag, with identical shape conventions and
//! the same static row partitioner (now on the persistent worker pool), so
//! the `nn` layers can swap backends without reshaping anything. Exactness
//! makes all of this bit-transparent: fixed-point vs wide quire, either
//! word tier and serial vs pooled all compute the same exact sum and round
//! it once, which the exhaustive cross-checks in
//! `tests/posit_gemm_exhaustive.rs` pin against exact rational arithmetic.

use crate::gemm::{par_rows, Transpose};
use posit::{NarrowQuire, PositFormat, PositValue, Quire, Rounding};
use std::borrow::Cow;
use std::sync::OnceLock;

/// Cached handles for the kernel-path counters (`tensor.*` namespace in
/// the global [`posit_obs::Registry`]). Which fast path fired — narrow vs
/// wide accumulator, 32- vs 64-bit fixed-point words, SWAR vs LUT vs
/// bit-twiddle decode — is invisible in the results (all paths are
/// bit-identical by construction), so these counters are the only way to
/// see what actually ran. Recording is per *call* (or one aggregated add per row block),
/// never per MAC, and every site checks [`posit_obs::enabled`] first, so
/// the disabled cost on the hot path is a relaxed atomic load.
struct GemmObs {
    narrow_calls: posit_obs::Counter,
    wide_calls: posit_obs::Counter,
    fixed_i64_calls: posit_obs::Counter,
    decode_lut8: posit_obs::Counter,
    decode_lut2: posit_obs::Counter,
    decode_swar: posit_obs::Counter,
    decode_twiddle: posit_obs::Counter,
    quire_nar: posit_obs::Counter,
}

fn gemm_obs() -> &'static GemmObs {
    static OBS: OnceLock<GemmObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = posit_obs::Registry::global();
        GemmObs {
            narrow_calls: r.counter("tensor.gemm.narrow_calls"),
            wide_calls: r.counter("tensor.gemm.wide_calls"),
            fixed_i64_calls: r.counter("tensor.gemm.fixed_i64_calls"),
            decode_lut8: r.counter("tensor.plane.decode.lut8_elems"),
            decode_lut2: r.counter("tensor.plane.decode.lut2_elems"),
            decode_swar: r.counter("tensor.plane.decode.swar_elems"),
            decode_twiddle: r.counter("tensor.plane.decode.twiddle_elems"),
            quire_nar: r.counter("tensor.gemm.quire_nar_outputs"),
        }
    })
}

/// Which decode route produced a plane's elements.
#[derive(Clone, Copy)]
enum DecodeRoute {
    /// 256-entry byte LUT (`n ≤ 8` formats).
    Lut8,
    /// Two-level `decode_lut2` tables (`8 < n ≤ 16`).
    Lut2,
    /// SWAR 8-lane packed-byte gather.
    Swar,
    /// Bit-twiddled scalar reference decoder.
    Twiddle,
}

/// Count `n` elements decoded through `route` (no-op while disabled).
fn note_decode(route: DecodeRoute, n: usize) {
    if posit_obs::enabled() {
        let o = gemm_obs();
        let c = match route {
            DecodeRoute::Lut8 => &o.decode_lut8,
            DecodeRoute::Lut2 => &o.decode_lut2,
            DecodeRoute::Swar => &o.decode_swar,
            DecodeRoute::Twiddle => &o.decode_twiddle,
        };
        c.add(n as u64);
    }
}

/// Sentinel scale marking a NaR element in a plane (no finite posit scale
/// gets anywhere near `i32::MIN`).
const NAR_SCALE: i32 = i32::MIN;

/// One decoded posit operand: `value = ±2^(scale-63) * sig` with the
/// implicit leading one at bit 63 of `sig`.
///
/// Zero is `sig == 0`; NaR is `sig == 0` with `scale == i32::MIN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct Unpacked {
    /// 64-bit significand (bit 63 set for finite non-zero values).
    pub sig: u64,
    /// Effective binary exponent, or the NaR sentinel.
    pub scale: i32,
    /// True for negative values.
    pub neg: bool,
    /// Explicit (always-zero) tail padding, pinned after `neg` by the C
    /// layout: with every byte defined and the zero bytes contiguous, the
    /// compiler stores a plane element as two plain words instead of
    /// field-by-field writes plus an undef-padding copy. Three scalar
    /// fields, not `[u8; 3]` — the array form defeats scalar replacement
    /// and reintroduces a stack round-trip in the decode loops.
    _pad0: u8,
    _pad1: u8,
    _pad2: u8,
}

pub(crate) const ZERO_ELEM: Unpacked = Unpacked {
    sig: 0,
    scale: 0,
    neg: false,
    _pad0: 0,
    _pad1: 0,
    _pad2: 0,
};

impl Unpacked {
    /// The multiplicative identity in element form — the `y` operand that
    /// turns a multiply-accumulate into a plain accumulate (`x · 1`), used
    /// by the gradient buffers to sum posit values exactly.
    pub const ONE: Unpacked = Unpacked {
        sig: 1 << 63,
        scale: 0,
        neg: false,
        _pad0: 0,
        _pad1: 0,
        _pad2: 0,
    };

    /// True iff this element is the NaR sentinel.
    pub fn is_nar(&self) -> bool {
        self.sig == 0 && self.scale == NAR_SCALE
    }
}

/// The decoded value in the kernels' element form, with an optional Eq. 2
/// scale shift folded in — the single definition both the direct decode
/// path and the LUT build go through.
#[inline(always)]
fn unpack(v: PositValue, scale_exp: i32) -> Unpacked {
    match v {
        PositValue::Zero => ZERO_ELEM,
        PositValue::NaR => Unpacked {
            sig: 0,
            scale: NAR_SCALE,
            neg: false,
            _pad0: 0,
            _pad1: 0,
            _pad2: 0,
        },
        PositValue::Finite(d) => Unpacked {
            sig: d.significand(),
            scale: d.scale + scale_exp,
            neg: d.sign.is_negative(),
            _pad0: 0,
            _pad1: 0,
            _pad2: 0,
        },
    }
}

fn decode_one(fmt: PositFormat, b: u64, scale_exp: i32) -> Unpacked {
    unpack(fmt.decode(b), scale_exp)
}

/// Fold a plane's Eq. 2 scale shift into one table-gathered element.
/// Finite non-zero values shift; zero keeps its canonical form and NaR
/// keeps its sentinel (compiles to a conditional move, no branch in the
/// lane loop).
#[inline]
fn shift_scale(mut u: Unpacked, scale_exp: i32) -> Unpacked {
    if u.sig != 0 {
        u.scale += scale_exp;
    }
    u
}

/// SWAR lane-group decode of `n ≤ 8` code words: split each u64 group into
/// eight 8-bit lanes, gather every lane through the 256-entry table and
/// fold the scale shift per lane. The table is indexed by the raw byte —
/// it is built by `decode`, which masks to `n` bits, so out-of-range lane
/// values alias their masked code word exactly like a direct decode.
#[inline]
fn decode_lanes8(lut: &[Unpacked; 256], word: u64, scale_exp: i32, out: &mut Vec<Unpacked>) {
    // One whole-group append, not eight pushes: `extend_from_slice` pays a
    // single capacity check per lane group, which keeps the gather loop at
    // load/shift/store throughput.
    let group: [Unpacked; 8] = std::array::from_fn(|lane| {
        shift_scale(lut[(word >> (8 * lane)) as u8 as usize], scale_exp)
    });
    out.extend_from_slice(&group);
}

/// The 256-entry [`Unpacked`] decode table of a narrow (`n ≤ 8`) format:
/// [`posit::lut::decode_lut`] re-shaped into the kernels' flat 16-byte
/// element form (worth its own cached copy — the hot loops load it once
/// per element). `None` for wider formats. A table hit is identical to a
/// direct decode by construction: both routes run [`unpack`] over the same
/// bit-exact decoder output.
fn unpacked_lut(fmt: PositFormat) -> Option<&'static [Unpacked]> {
    type Slot = OnceLock<Vec<Unpacked>>;
    #[allow(clippy::declare_interior_mutable_const)]
    const SLOT: Slot = OnceLock::new();
    #[allow(clippy::declare_interior_mutable_const)]
    const ROW: [Slot; 5] = [SLOT; 5];
    static LUTS: [[Slot; 5]; 7] = [ROW; 7]; // n in 2..=8 × es in 0..=4
    let decoded = posit::lut::decode_lut(fmt)?;
    let slot = &LUTS[(fmt.n() - 2) as usize][fmt.es() as usize];
    Some(
        slot.get_or_init(|| decoded.iter().map(|&v| unpack(v, 0)).collect())
            .as_slice(),
    )
}

/// A matrix tile decoded once into unpacked posit elements.
///
/// Built from f32 data (quantize + decode) or from raw code words (decode
/// only); consumed by the [`PositGemm`] kernels, which never decode again.
#[derive(Debug, Clone)]
pub struct PositPlane {
    fmt: PositFormat,
    /// Eq. 2 scale exponent folded into the element scales (widens the
    /// quire the kernels allocate; 0 for unshifted planes).
    scale_exp: i32,
    elems: Vec<Unpacked>,
}

impl PositPlane {
    /// A plane over already-unpacked elements (e.g. a gather of another
    /// plane's elements), carrying `scale_exp` as its folded shift.
    pub(crate) fn from_elems(fmt: PositFormat, scale_exp: i32, elems: Vec<Unpacked>) -> PositPlane {
        PositPlane {
            fmt,
            scale_exp,
            elems,
        }
    }

    /// Decode a slice of code words (low `n` bits of each `u64`).
    ///
    /// Narrow (`n ≤ 8`) formats gather through the same 256-entry
    /// byte-indexed table the SWAR lane groups of [`PositPlane::from_packed`]
    /// use; medium (`8 < n ≤ 16`) formats decode through the two-level
    /// [`posit::lut::decode_lut2`] tables. Both routes are pinned
    /// bit-identical to [`PositPlane::from_bits_scalar`].
    pub fn from_bits(fmt: PositFormat, bits: &[u64]) -> PositPlane {
        let elems = if let Some(lut) = unpacked_lut(fmt) {
            let lut: &[Unpacked; 256] = lut.try_into().expect("decode LUTs have 256 entries");
            note_decode(DecodeRoute::Lut8, bits.len());
            // Exact-size `map`/`collect`: no per-element capacity checks,
            // and the low-byte index aliases out-of-range words to their
            // masked code exactly like the lane gather in `from_packed`.
            bits.iter().map(|&b| lut[b as u8 as usize]).collect()
        } else if let Some(lut2) = posit::lut::decode_lut2(fmt) {
            // The view copies the table's scalar fields out of `&Lut2`, and
            // the `map`/`collect` fold (exact-size, no per-element capacity
            // checks) runs `decode` over it.
            let lut2 = lut2.view();
            note_decode(DecodeRoute::Lut2, bits.len());
            bits.iter().map(|&b| unpack(lut2.decode(b), 0)).collect()
        } else {
            note_decode(DecodeRoute::Twiddle, bits.len());
            bits.iter().map(|&b| decode_one(fmt, b, 0)).collect()
        };
        PositPlane {
            fmt,
            scale_exp: 0,
            elems,
        }
    }

    /// [`PositPlane::from_bits`] through the bit-twiddled reference decoder
    /// only — no table gathers, no lane groups. This is the scalar oracle
    /// the SWAR and two-level-LUT decode paths are tested against (and the
    /// `plane_decode/twiddle` bench rows).
    pub fn from_bits_scalar(fmt: PositFormat, bits: &[u64]) -> PositPlane {
        note_decode(DecodeRoute::Twiddle, bits.len());
        PositPlane {
            fmt,
            scale_exp: 0,
            elems: bits.iter().map(|&b| decode_one(fmt, b, 0)).collect(),
        }
    }

    /// Decode a packed storage plane, folding its Eq. 2 scale exponent into
    /// the element scales — the decode-once entry point for posit-resident
    /// tensors: `value = P(x/Sf)·Sf` arrives in the kernel *exactly*, with
    /// no f32 staging buffer and no re-rounding onto the unshifted grid.
    pub fn from_packed(
        fmt: PositFormat,
        bits: &crate::storage::PackedBits,
        scale_exp: i32,
    ) -> PositPlane {
        let elems = if let (Some(lut), Some(bytes)) = (unpacked_lut(fmt), bits.as_u8()) {
            // SWAR fast path: read the packed plane eight code words at a
            // time as little-endian u64 lane groups.
            let lut: &[Unpacked; 256] = lut.try_into().expect("decode LUTs have 256 entries");
            note_decode(DecodeRoute::Swar, bytes.len());
            let mut elems = Vec::with_capacity(bytes.len());
            let mut groups = bytes.chunks_exact(8);
            for group in groups.by_ref() {
                let word = u64::from_le_bytes(group.try_into().expect("chunk of 8"));
                decode_lanes8(lut, word, scale_exp, &mut elems);
            }
            for &b in groups.remainder() {
                elems.push(shift_scale(lut[b as usize], scale_exp));
            }
            elems
        } else if let (Some(lut2), Some(words)) = (posit::lut::decode_lut2(fmt), bits.as_u16()) {
            let lut2 = lut2.view();
            note_decode(DecodeRoute::Lut2, words.len());
            words
                .iter()
                .map(|&w| unpack(lut2.decode(w as u64), scale_exp))
                .collect()
        } else {
            note_decode(DecodeRoute::Twiddle, bits.len());
            bits.iter().map(|b| decode_one(fmt, b, scale_exp)).collect()
        };
        PositPlane {
            fmt,
            scale_exp,
            elems,
        }
    }

    /// [`PositPlane::from_packed`] through the bit-twiddled reference
    /// decoder only — the scalar oracle for the packed-lane paths.
    pub fn from_packed_scalar(
        fmt: PositFormat,
        bits: &crate::storage::PackedBits,
        scale_exp: i32,
    ) -> PositPlane {
        note_decode(DecodeRoute::Twiddle, bits.len());
        PositPlane {
            fmt,
            scale_exp,
            elems: bits.iter().map(|b| decode_one(fmt, b, scale_exp)).collect(),
        }
    }

    /// Quantize f32 data to the format under `rounding`, then decode once.
    ///
    /// This is the `P(·)` edge of the paper's Fig. 3 fused with the operand
    /// unpack: the plane holds exactly the values a quantize→store→reload
    /// round trip would produce, without materializing the f32 copy.
    pub fn from_f32(fmt: PositFormat, xs: &[f32], rounding: Rounding) -> PositPlane {
        let bits: Vec<u64> = xs.iter().map(|&x| fmt.from_f32(x, rounding)).collect();
        PositPlane::from_bits(fmt, &bits)
    }

    /// The format the plane was decoded from.
    pub fn format(&self) -> PositFormat {
        self.fmt
    }

    /// The Eq. 2 scale exponent folded into the element scales.
    pub fn scale_exp(&self) -> i32 {
        self.scale_exp
    }

    /// Extra quire headroom (bits) this plane's scale shift requires.
    pub fn quire_margin(&self) -> u32 {
        self.scale_exp.unsigned_abs()
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// True iff the plane holds no elements.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// The unpacked elements (row-major, caller-defined shape).
    pub fn elems(&self) -> &[Unpacked] {
        &self.elems
    }

    /// Render back to f32 (each element is an exactly representable posit).
    pub fn to_f32(&self) -> Vec<f32> {
        self.elems
            .iter()
            .map(|e| {
                if e.sig == 0 {
                    if e.scale == NAR_SCALE {
                        f32::NAN
                    } else {
                        0.0
                    }
                } else {
                    let m = e.sig as f64 * (e.scale as f64 - 63.0).exp2();
                    if e.neg {
                        -m as f32
                    } else {
                        m as f32
                    }
                }
            })
            .collect()
    }
}

/// Transpose an `[rows, cols]` element tile into `[cols, rows]` — the
/// panel-packing step that turns every kernel's strided operand walk into
/// two contiguous streams.
fn transpose_elems(src: &[Unpacked], rows: usize, cols: usize) -> Vec<Unpacked> {
    debug_assert_eq!(src.len(), rows * cols);
    let mut out = vec![ZERO_ELEM; src.len()];
    for r in 0..rows {
        let src_row = &src[r * cols..(r + 1) * cols];
        for (c, &e) in src_row.iter().enumerate() {
            out[c * rows + r] = e;
        }
    }
    out
}

/// Register tile (rows × columns) of the 32-bit-word tier.
const TILE32: (usize, usize) = (2, 4);
/// Register tile of the 64-bit-word tier: its `i128` sums take two
/// registers each, so the tile is half as tall.
const TILE64: (usize, usize) = (1, 4);

/// An operand word of the fixed-point quire. Every posit(n, es) value is
/// an integer multiple of `minpos = 2^min_scale`, so a plane element is
/// the integer `value / 2^(min_scale + scale_exp)` of at most
/// `2·max_scale + 1` bits, and an exact dot product is a plain integer
/// multiply-add over such words. The two tiers differ only in width.
pub(crate) trait FixedWord: Copy + Default + Send + Sync + Into<i128> {
    /// The integer type the products sum in.
    type Sum: Copy + Default + std::ops::AddAssign + Into<i128>;
    /// Narrow a word (the tier choice guarantees it fits).
    fn narrow(v: i64) -> Self;
    /// The exact product of two words.
    fn mul(self, y: Self) -> Self::Sum;
}

impl FixedWord for i32 {
    type Sum = i64;
    #[inline(always)]
    fn narrow(v: i64) -> i32 {
        v as i32
    }
    #[inline(always)]
    fn mul(self, y: i32) -> i64 {
        self as i64 * y as i64
    }
}

impl FixedWord for i64 {
    type Sum = i128;
    #[inline(always)]
    fn narrow(v: i64) -> i64 {
        v
    }
    #[inline(always)]
    fn mul(self, y: i64) -> i128 {
        self as i128 * y as i128
    }
}

/// True iff `k` products of `fmt` words sum exactly in an `i64` (the
/// 32-bit-word tier): a word is at most `maxpos/minpos = 2^(2·max_scale)`
/// in magnitude, so `k` products stay within `2^(4·max_scale + ⌈log2 k⌉)`,
/// which is below `i64::MAX` when that exponent is at most 62. Posit(8,0)
/// and posit(8,1) pass up to `k = 16384`; wider formats take 64-bit words
/// and `i128` sums, which narrow eligibility always leaves room for.
fn fits_word32(fmt: PositFormat, k: usize) -> bool {
    4 * fmt.max_scale() as u32 + k.next_power_of_two().trailing_zeros() <= 62
}

/// The fixed-point word of one element, `±sig >> (63 − (scale − base))`
/// with `base = min_scale + scale_exp` of its plane (0 for zero and NaR,
/// whose significand is 0), and whether the element's scale lies inside
/// its format's range. Exact: a posit's lowest significand bit never
/// weighs less than `minpos`, so the shift drops only zero bits.
/// Branch-free, since zeros sit at random in activation planes.
#[inline(always)]
fn fixed_word(x: Unpacked, base: i32) -> (i64, bool) {
    let sh = 63i32.wrapping_sub(x.scale.wrapping_sub(base));
    let in_range = (x.sig == 0) | (1..=63).contains(&sh);
    debug_assert!(
        !in_range || x.sig == 0 || x.sig.trailing_zeros() >= sh as u32,
        "significand bits below minpos"
    );
    let v = (x.sig >> (sh as u32 & 63)) as i64;
    (if x.neg { -v } else { v }, in_range)
}

/// Convert a run of elements into `dst`'s words: whether any was NaR, and
/// whether all lay inside the format range (see [`fixed_word`]).
#[inline(always)]
fn convert<'a, W: FixedWord>(
    src: impl Iterator<Item = &'a Unpacked>,
    dst: &mut [W],
    base: i32,
) -> (bool, bool) {
    let (mut any_nar, mut in_range) = (false, true);
    for (&x, w) in src.zip(dst) {
        any_nar |= (x.sig == 0) & (x.scale == NAR_SCALE);
        let (word, ok) = fixed_word(x, base);
        in_range &= ok;
        *w = W::narrow(word);
    }
    (any_nar, in_range)
}

/// Reduction depth packed per pass of [`FixedPanel::pack`].
const PACK_BLOCK: usize = 64;

/// An operand panel in fixed-point words: `runs` rows of `k` words each
/// (zero rows appended up to a whole number of register tiles), with NaR
/// lifted into per-row flags — NaR absorbs a whole reduction whatever its
/// partner, so one flag per row replaces the per-MAC check.
pub(crate) struct FixedPanel<W> {
    words: Vec<W>,
    nar: Vec<bool>,
    k: usize,
    /// Weight of a word's bit 0: `2^(min_scale + scale_exp)`.
    lsb_scale: i32,
}

impl<W: FixedWord> FixedPanel<W> {
    /// Pack `runs` runs of `k` elements of `plane`, which stores them as
    /// `[runs, k]`, or as `[k, runs]` when `transposed`, followed by zero
    /// rows up to `padded`.
    pub(crate) fn pack(
        plane: &PositPlane,
        runs: usize,
        k: usize,
        transposed: bool,
        padded: usize,
    ) -> FixedPanel<W> {
        let lsb_scale = plane.fmt.min_scale() + plane.scale_exp;
        let e = plane.elems();
        let mut words = vec![W::default(); padded * k];
        let mut nar = vec![false; padded];
        let mut in_range = true;
        if k > 0 && transposed {
            // Blocks of `PACK_BLOCK` depth keep the strided reads of a
            // transposed plane cache-resident while the writes stay
            // sequential.
            for t0 in (0..k).step_by(PACK_BLOCK) {
                let t1 = (t0 + PACK_BLOCK).min(k);
                let rows = words.chunks_exact_mut(k).zip(&mut nar).take(runs);
                for (r, (run, flag)) in rows.enumerate() {
                    let src = e[t0 * runs + r..].iter().step_by(runs);
                    let (any_nar, ok) = convert(src, &mut run[t0..t1], lsb_scale);
                    *flag |= any_nar;
                    in_range &= ok;
                }
            }
        } else if k > 0 {
            let rows = e
                .chunks_exact(k)
                .zip(words.chunks_exact_mut(k))
                .zip(&mut nar);
            for ((src, run), flag) in rows {
                let (any_nar, ok) = convert(src.iter(), run, lsb_scale);
                *flag = any_nar;
                in_range &= ok;
            }
        }
        assert!(
            in_range,
            "plane element scale outside the {} range (element from a wider format?)",
            plane.fmt
        );
        FixedPanel {
            words,
            nar,
            k,
            lsb_scale,
        }
    }

    /// True iff run `r` holds a NaR.
    pub(crate) fn is_nar(&self, r: usize) -> bool {
        self.nar[r]
    }

    /// `Σ` of run `r`'s words, in units of `2^lsb_scale`.
    pub(crate) fn run_sum(&self, r: usize) -> i128 {
        let run = &self.words[r * self.k..(r + 1) * self.k];
        run.iter().map(|&w| w.into()).sum()
    }

    /// Weight of a word's bit 0, `2^lsb_scale`.
    pub(crate) fn lsb_scale(&self) -> i32 {
        self.lsb_scale
    }
}

/// One `MR×NR` register tile: the exact dot products of A-panel runs
/// `i..i+MR` with B-panel runs `j..j+NR`, as integer sums.
#[inline(always)]
fn fixed_tile<W: FixedWord, const MR: usize, const NR: usize>(
    a: &FixedPanel<W>,
    i: usize,
    b: &FixedPanel<W>,
    j: usize,
) -> [[W::Sum; NR]; MR] {
    let k = a.k;
    let ar: [&[W]; MR] = std::array::from_fn(|r| &a.words[(i + r) * k..][..k]);
    let br: [&[W]; NR] = std::array::from_fn(|s| &b.words[(j + s) * k..][..k]);
    let mut acc = [[W::Sum::default(); NR]; MR];
    for t in 0..k {
        let y: [W; NR] = std::array::from_fn(|s| br[s][t]);
        for (acc_row, run) in acc.iter_mut().zip(&ar) {
            let x = run[t];
            for (sum, &y) in acc_row.iter_mut().zip(&y) {
                *sum += x.mul(y);
            }
        }
    }
    acc
}

/// Both operands of one fixed-point reduction, packed in the tier its
/// format and depth select (see [`fits_word32`]).
pub(crate) enum FixedPanels {
    /// 32-bit words, `i64` sums.
    Word32(FixedPanel<i32>, FixedPanel<i32>),
    /// 64-bit words, `i128` sums.
    Word64(FixedPanel<i64>, FixedPanel<i64>),
}

impl FixedPanels {
    /// Pack `A` as `m` runs and `B` as `n` runs of `k` elements (each
    /// stored the other way round when its flag is set), padded so every
    /// register tile that starts at a real row stays inside its panel.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn pack(
        m: usize,
        k: usize,
        n: usize,
        a: &PositPlane,
        a_transposed: bool,
        b: &PositPlane,
        b_transposed: bool,
    ) -> FixedPanels {
        let pad = |(mr, nr): (usize, usize)| (m + mr - 1, n.next_multiple_of(nr));
        if fits_word32(a.fmt, k) {
            let (ma, nb) = pad(TILE32);
            FixedPanels::Word32(
                FixedPanel::pack(a, m, k, a_transposed, ma),
                FixedPanel::pack(b, n, k, b_transposed, nb),
            )
        } else {
            let (ma, nb) = pad(TILE64);
            FixedPanels::Word64(
                FixedPanel::pack(a, m, k, a_transposed, ma),
                FixedPanel::pack(b, n, k, b_transposed, nb),
            )
        }
    }

    /// True on the 32-bit-word tier.
    pub(crate) fn is_word32(&self) -> bool {
        matches!(self, FixedPanels::Word32(..))
    }

    /// Weight of a sum's bit 0: `2^(2·min_scale + scale_exp_a + scale_exp_b)`.
    pub(crate) fn lsb_scale(&self) -> i32 {
        match self {
            FixedPanels::Word32(a, b) => a.lsb_scale + b.lsb_scale,
            FixedPanels::Word64(a, b) => a.lsb_scale + b.lsb_scale,
        }
    }

    /// Every output of A rows `rows` against all `n` B runs:
    /// `emit(i, j, sum, nar)` with the exact dot product as an integer in
    /// units of `2^lsb_scale` and whether a NaR poisons it.
    pub(crate) fn for_each(
        &self,
        rows: std::ops::Range<usize>,
        n: usize,
        emit: impl FnMut(usize, usize, i128, bool),
    ) {
        match self {
            FixedPanels::Word32(a, b) => {
                fixed_tiles::<_, { TILE32.0 }, { TILE32.1 }>(a, rows, b, n, emit)
            }
            FixedPanels::Word64(a, b) => {
                fixed_tiles::<_, { TILE64.0 }, { TILE64.1 }>(a, rows, b, n, emit)
            }
        }
    }
}

/// [`FixedPanels::for_each`] on one tier, in `MR×NR` register tiles.
fn fixed_tiles<W: FixedWord, const MR: usize, const NR: usize>(
    a: &FixedPanel<W>,
    rows: std::ops::Range<usize>,
    b: &FixedPanel<W>,
    n: usize,
    mut emit: impl FnMut(usize, usize, i128, bool),
) {
    for i in rows.clone().step_by(MR) {
        for j in (0..n).step_by(NR) {
            let acc = fixed_tile::<W, MR, NR>(a, i, b, j);
            for (r, acc_row) in acc.iter().enumerate().take(rows.end - i) {
                for (s, &sum) in acc_row.iter().enumerate().take(n - j) {
                    emit(i + r, j + s, sum.into(), a.nar[i + r] || b.nar[j + s]);
                }
            }
        }
    }
}

/// The rounding mode a kernel actually applies: stochastic rounding needs
/// a per-element random word, which no GEMM kernel, sandwich quantizer or
/// gradient buffer carries, so it degrades to nearest-even.
pub(crate) fn kernel_rounding(rounding: Rounding) -> Rounding {
    match rounding {
        Rounding::Stochastic => Rounding::NearestEven,
        r => r,
    }
}

/// The posit GEMM kernel family: exact accumulation over [`PositPlane`]
/// operands, one rounding per output element.
///
/// `C += round(Σ_k a·b)`: like the f32 kernels, outputs accumulate into `C`
/// so the backward passes can sum gradient contributions across calls; the
/// posit-domain rounding happens once per GEMM, on store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PositGemm {
    fmt: PositFormat,
    rounding: Rounding,
    force_wide: bool,
}

impl PositGemm {
    /// A kernel for `fmt`, rounding once per output element with `rounding`.
    ///
    /// [`Rounding::Stochastic`] needs a per-element random word the kernel
    /// does not carry; it degrades to round-to-nearest-even.
    pub fn new(fmt: PositFormat, rounding: Rounding) -> PositGemm {
        PositGemm {
            fmt,
            rounding: kernel_rounding(rounding),
            force_wide: false,
        }
    }

    /// Force the heap-allocated wide [`Quire`] even when the format is
    /// narrow-eligible (builder style). Results are bit-identical either
    /// way; this exists so tests and benches can pin the fallback path.
    pub fn wide_accumulator(mut self, force_wide: bool) -> PositGemm {
        self.force_wide = force_wide;
        self
    }

    /// True iff a GEMM with reduction depth `k` over planes carrying
    /// `margin` total scale-shift bits would take the narrow-accumulator
    /// fast path (see [`posit::NarrowQuire::try_new`] for the accounting).
    pub fn uses_narrow_path(&self, margin: u32, k: usize) -> bool {
        !self.force_wide && NarrowQuire::try_new(self.fmt, margin, k).is_some()
    }

    /// The kernel's format.
    pub fn format(&self) -> PositFormat {
        self.fmt
    }

    /// The rounding mode applied on store (never stochastic).
    pub(crate) fn rounding(&self) -> Rounding {
        self.rounding
    }

    /// Unpack f32 data into an operand plane for this kernel's format.
    pub fn encode_plane(&self, xs: &[f32]) -> PositPlane {
        PositPlane::from_f32(self.fmt, xs, self.rounding)
    }

    /// Round an accumulated narrow dot to f32, through the store LUT when
    /// the format has one.
    #[inline]
    fn store_narrow(&self, q: &NarrowQuire, lut: Option<&[f32]>) -> f32 {
        if posit_obs::enabled() && q.is_nar() {
            gemm_obs().quire_nar.incr();
        }
        let code = q.to_posit(self.rounding, 0);
        match lut {
            Some(l) => l[code as usize],
            None => self.fmt.to_f32(code),
        }
    }

    /// The narrow path: both operands packed once into fixed-point panels
    /// (shared read-only across row blocks), each output's integer dot
    /// product folded into a copy of `proto` with one
    /// [`NarrowQuire::add_fixed`] and rounded once.
    fn gemm_fixed(
        &self,
        proto: NarrowQuire,
        (m, k, n): (usize, usize, usize),
        panels: &FixedPanels,
        c: &mut [f32],
    ) {
        let f32_lut = posit::lut::to_f32_lut(self.fmt);
        let lsb_scale = panels.lsb_scale();
        par_rows(m, n, m * k * n, c, |row0, c_chunk| {
            let rows = c_chunk.len().checked_div(n).unwrap_or(0);
            panels.for_each(row0..row0 + rows, n, |i, j, sum, nar| {
                let mut q = proto;
                q.add_fixed(sum, lsb_scale);
                if nar {
                    q.set_nar();
                }
                c_chunk[(i - row0) * n + j] += self.store_narrow(&q, f32_lut);
            });
        });
    }

    /// Wide fallback over one row block: per-output dots into the
    /// limb-array [`Quire`] (formats or reduction depths the narrow
    /// accumulator refuses). Operands still stream contiguously.
    #[allow(clippy::too_many_arguments)]
    fn block_wide(
        &self,
        f32_lut: Option<&[f32]>,
        margin: u32,
        rows: usize,
        k: usize,
        n: usize,
        a: &[Unpacked],
        b_cols: &[Unpacked],
        c: &mut [f32],
    ) {
        let mut q = Quire::with_margin(self.fmt, margin);
        for i in 0..rows {
            let a_run = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_run = &b_cols[j * k..(j + 1) * k];
                q.clear();
                for (&x, &y) in a_run.iter().zip(b_run) {
                    if x.sig == 0 || y.sig == 0 {
                        if x.scale == NAR_SCALE || y.scale == NAR_SCALE {
                            q.set_nar();
                        }
                        continue;
                    }
                    q.add_product_parts(
                        x.neg != y.neg,
                        x.scale + y.scale,
                        (x.sig as u128) * (y.sig as u128),
                    );
                }
                if posit_obs::enabled() && q.is_nar() {
                    gemm_obs().quire_nar.incr();
                }
                let code = q.to_posit(self.rounding, 0);
                c[i * n + j] += match f32_lut {
                    Some(l) => l[code as usize],
                    None => self.fmt.to_f32(code),
                };
            }
        }
    }

    /// `c += round(a[m,k] * b[k,n])` — the posit twin of the f32 kernels
    /// in [`crate::gemm`], with `t` naming the operand stored transposed
    /// (see [`Transpose`]). The kernel reads row panels of `A` and column
    /// panels of `B`: the narrow path packs both into fixed-point words in
    /// that layout, reading each operand in its stored order; the wide
    /// path repacks only an operand stored the other way round.
    ///
    /// # Panics
    ///
    /// Panics if the plane lengths disagree with the dimensions, or if a
    /// plane holds an element outside its format's range.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm(
        &self,
        t: Transpose,
        m: usize,
        k: usize,
        n: usize,
        a: &PositPlane,
        b: &PositPlane,
        c: &mut [f32],
    ) {
        assert_eq!(a.format(), self.fmt, "A plane format");
        assert_eq!(b.format(), self.fmt, "B plane format");
        assert_eq!(a.len(), m * k, "A length");
        assert_eq!(b.len(), k * n, "B length");
        assert_eq!(c.len(), m * n, "C length");
        let margin = a.quire_margin() + b.quire_margin();
        let narrow = if self.force_wide {
            None
        } else {
            NarrowQuire::try_new(self.fmt, margin, k)
        };
        if let Some(proto) = narrow {
            let panels = FixedPanels::pack(m, k, n, a, t == Transpose::A, b, t != Transpose::B);
            if posit_obs::enabled() {
                let o = gemm_obs();
                o.narrow_calls.incr();
                if panels.is_word32() {
                    o.fixed_i64_calls.incr();
                }
            }
            self.gemm_fixed(proto, (m, k, n), &panels, c);
            return;
        }
        if posit_obs::enabled() {
            gemm_obs().wide_calls.incr();
        }
        let a_rows = match t {
            Transpose::A => Cow::Owned(transpose_elems(a.elems(), k, m)),
            _ => Cow::Borrowed(a.elems()),
        };
        let b_cols = match t {
            Transpose::B => Cow::Borrowed(b.elems()),
            _ => Cow::Owned(transpose_elems(b.elems(), k, n)),
        };
        let f32_lut = posit::lut::to_f32_lut(self.fmt);
        par_rows(m, n, m * k * n, c, |row0, c_chunk| {
            let rows = c_chunk.len().checked_div(n).unwrap_or(0);
            let a_block = &a_rows[row0 * k..(row0 + rows) * k];
            self.block_wide(f32_lut, margin, rows, k, n, a_block, &b_cols, c_chunk);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(fmt: PositFormat, xs: &[f32]) -> PositPlane {
        PositPlane::from_f32(fmt, xs, Rounding::NearestEven)
    }

    #[test]
    fn plane_roundtrip_and_specials() {
        let fmt = PositFormat::of(16, 1);
        let xs = [1.5f32, -0.25, 0.0, 3.0, f32::NAN];
        let p = plane(fmt, &xs);
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert_eq!(p.format(), fmt);
        let back = p.to_f32();
        assert_eq!(&back[..4], &[1.5, -0.25, 0.0, 3.0]);
        assert!(back[4].is_nan());
    }

    #[test]
    fn lut_plane_decode_matches_direct_decode() {
        // Every ≤8-bit code word must decode to the same Unpacked through
        // the LUT path (from_bits) as through decode_one, including NaR and
        // a scale shift through from_packed.
        for (n, es) in [(8u32, 0u32), (8, 1), (8, 2), (6, 0), (5, 1)] {
            let fmt = PositFormat::of(n, es);
            let codes: Vec<u64> = (0..fmt.code_count()).collect();
            let p = PositPlane::from_bits(fmt, &codes);
            for (i, &b) in codes.iter().enumerate() {
                assert_eq!(p.elems()[i], decode_one(fmt, b, 0), "({n},{es}) {b:#x}");
            }
            let mut packed = crate::storage::PackedBits::for_format(fmt, codes.len());
            for &b in &codes {
                packed.push(b);
            }
            for shift in [-5i32, 0, 7] {
                let ps = PositPlane::from_packed(fmt, &packed, shift);
                for (i, &b) in codes.iter().enumerate() {
                    assert_eq!(
                        ps.elems()[i],
                        decode_one(fmt, b, shift),
                        "({n},{es}) {b:#x} shift {shift}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_fused_dot() {
        // The kernel's 1×1 output must equal posit::quire::fused_dot on the
        // same code words — same exact accumulation, same single rounding.
        let fmt = PositFormat::of(16, 1);
        let xs = [1.5f32, -2.25, 8.0, 0.03125, -0.5];
        let ys = [2.0f32, 4.0, -0.125, 32.0, 7.0];
        let xb: Vec<u64> = xs
            .iter()
            .map(|&v| fmt.from_f32(v, Rounding::NearestEven))
            .collect();
        let yb: Vec<u64> = ys
            .iter()
            .map(|&v| fmt.from_f32(v, Rounding::NearestEven))
            .collect();
        let want = fmt.to_f32(posit::quire::fused_dot(fmt, &xb, &yb));
        let g = PositGemm::new(fmt, Rounding::NearestEven);
        let mut c = [0.0f32];
        g.gemm(
            Transpose::None,
            1,
            xs.len(),
            1,
            &plane(fmt, &xs),
            &plane(fmt, &ys),
            &mut c,
        );
        assert_eq!(c[0], want);
    }

    #[test]
    fn transposed_kernels_agree_with_plain() {
        let fmt = PositFormat::of(16, 1);
        let (m, k, n) = (4, 5, 3);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 - 9.0) * 0.375).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 - 7.0) * 0.25).collect();
        let g = PositGemm::new(fmt, Rounding::NearestEven);
        let mut want = vec![0.0f32; m * n];
        g.gemm(
            Transpose::None,
            m,
            k,
            n,
            &plane(fmt, &a),
            &plane(fmt, &b),
            &mut want,
        );

        let mut a_t = vec![0.0f32; k * m];
        for i in 0..m {
            for kk in 0..k {
                a_t[kk * m + i] = a[i * k + kk];
            }
        }
        let mut c = vec![0.0f32; m * n];
        g.gemm(
            Transpose::A,
            m,
            k,
            n,
            &plane(fmt, &a_t),
            &plane(fmt, &b),
            &mut c,
        );
        assert_eq!(c, want, "gemm_at_b");

        let mut b_t = vec![0.0f32; n * k];
        for kk in 0..k {
            for j in 0..n {
                b_t[j * k + kk] = b[kk * n + j];
            }
        }
        let mut c = vec![0.0f32; m * n];
        g.gemm(
            Transpose::B,
            m,
            k,
            n,
            &plane(fmt, &a),
            &plane(fmt, &b_t),
            &mut c,
        );
        assert_eq!(c, want, "gemm_a_bt");
    }

    #[test]
    fn accumulates_into_c() {
        let fmt = PositFormat::of(16, 1);
        let g = PositGemm::new(fmt, Rounding::NearestEven);
        let a = plane(fmt, &[1.0, 0.0, 0.0, 1.0]);
        let b = plane(fmt, &[2.0, 0.0, 0.0, 2.0]);
        let mut c = vec![10.0f32; 4];
        g.gemm(Transpose::None, 2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, vec![12.0, 10.0, 10.0, 12.0]);
    }

    #[test]
    fn quire_beats_f32_accumulation_on_cancellation() {
        // Σ = big² − big² + small where f32 accumulation of posit products
        // keeps the small term but chained posit(8,1) adds would drop it; the
        // exact accumulator keeps it exactly. Checks the kernel really is
        // single-rounding.
        let fmt = PositFormat::of(8, 1);
        let big = 1024.0f32; // exactly representable in (8,1)
        let small = 0.0625f32;
        let a = [big, big, small];
        let b = [big, -big, 1.0];
        let g = PositGemm::new(fmt, Rounding::NearestEven);
        let mut c = [0.0f32];
        g.gemm(
            Transpose::None,
            1,
            3,
            1,
            &plane(fmt, &a),
            &plane(fmt, &b),
            &mut c,
        );
        assert_eq!(c[0], small);
    }

    #[test]
    fn nar_poisons_only_its_output_element() {
        let fmt = PositFormat::of(16, 1);
        let g = PositGemm::new(fmt, Rounding::NearestEven);
        let a = plane(fmt, &[f32::NAN, 1.0, 2.0, 3.0]); // [2, 2]
        let b = plane(fmt, &[1.0, 0.0, 0.0, 1.0]);
        let mut c = vec![0.0f32; 4];
        g.gemm(Transpose::None, 2, 2, 2, &a, &b, &mut c);
        assert!(c[0].is_nan() && c[1].is_nan(), "row with NaR");
        assert_eq!(&c[2..], &[2.0, 3.0], "clean row unaffected");
    }

    #[test]
    fn nar_poisons_inside_register_tiles() {
        // A shape wide enough to engage the MR×NR tile with a NaR landing
        // in the middle of a tile, a zero next to it, and clean columns
        // around: only the poisoned outputs may be NaN.
        let fmt = PositFormat::of(8, 1);
        let g = PositGemm::new(fmt, Rounding::NearestEven);
        let (m, k, n) = (4, 3, 9);
        let mut av = vec![0.5f32; m * k];
        av[k + 1] = f32::NAN; // row 1 poisoned
        av[2 * k] = 0.0;
        let bv = vec![0.25f32; k * n];
        let mut c = vec![0.0f32; m * n];
        g.gemm(
            Transpose::None,
            m,
            k,
            n,
            &plane(fmt, &av),
            &plane(fmt, &bv),
            &mut c,
        );
        for i in 0..m {
            for j in 0..n {
                let v = c[i * n + j];
                if i == 1 {
                    assert!(v.is_nan(), "({i},{j}) must be NaR-poisoned");
                } else {
                    assert!(!v.is_nan(), "({i},{j}) must stay clean");
                }
            }
        }
    }

    #[test]
    fn degenerate_shapes() {
        let fmt = PositFormat::of(8, 1);
        let g = PositGemm::new(fmt, Rounding::NearestEven);
        let empty = plane(fmt, &[]);
        let mut c: Vec<f32> = vec![];
        g.gemm(
            Transpose::None,
            0,
            3,
            4,
            &empty,
            &plane(fmt, &[0.0; 12]),
            &mut c,
        );
        g.gemm(
            Transpose::A,
            0,
            3,
            4,
            &empty,
            &plane(fmt, &[0.0; 12]),
            &mut c,
        );
        g.gemm(
            Transpose::B,
            0,
            3,
            4,
            &empty,
            &plane(fmt, &[0.0; 12]),
            &mut c,
        );
        assert!(c.is_empty());

        // k = 0: empty dot rounds to posit zero; C keeps its base.
        let mut c = vec![5.0f32; 6];
        g.gemm(Transpose::None, 2, 0, 3, &empty, &empty, &mut c);
        g.gemm(Transpose::A, 2, 0, 3, &empty, &empty, &mut c);
        g.gemm(Transpose::B, 2, 0, 3, &empty, &empty, &mut c);
        assert_eq!(c, vec![5.0; 6]);

        // n = 1 column output.
        let a = plane(fmt, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = plane(fmt, &[1.0, -1.0, 2.0]);
        let mut c = vec![0.0f32; 2];
        g.gemm(Transpose::None, 2, 3, 1, &a, &b, &mut c);
        assert_eq!(c, vec![5.0, 11.0]);
    }

    #[test]
    fn wide_and_narrow_paths_agree_at_every_tile_edge() {
        // Sweep shapes across the MR/NR remainder space so main tiles, row
        // tails and column tails all execute, on a format with a LUT (8,1)
        // and one without (16,1); the forced-wide kernel is the reference.
        for (fmt, scale) in [
            (PositFormat::of(8, 1), 0.25f32),
            (PositFormat::of(16, 1), 0.125f32),
        ] {
            let fast = PositGemm::new(fmt, Rounding::NearestEven);
            let wide = fast.wide_accumulator(true);
            for (m, k, n) in [
                (1, 1, 1),
                (2, 3, 4),
                (3, 5, 5),
                (5, 7, 9),
                (4, 2, 8),
                (7, 4, 11),
            ] {
                let av: Vec<f32> = (0..m * k)
                    .map(|i| ((i * 13 % 17) as f32 - 8.0) * scale)
                    .collect();
                let bv: Vec<f32> = (0..k * n)
                    .map(|i| ((i * 11 % 19) as f32 - 9.0) * scale)
                    .collect();
                let (pa, pb) = (plane(fmt, &av), plane(fmt, &bv));
                assert!(fast.uses_narrow_path(0, k), "{fmt} k={k}");
                assert!(!wide.uses_narrow_path(0, k));
                let mut c_fast = vec![0.0f32; m * n];
                let mut c_wide = vec![0.0f32; m * n];
                fast.gemm(Transpose::None, m, k, n, &pa, &pb, &mut c_fast);
                wide.gemm(Transpose::None, m, k, n, &pa, &pb, &mut c_wide);
                assert_eq!(c_fast, c_wide, "{fmt} ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn deep_reductions_fall_back_to_the_wide_quire() {
        // (16,1) has 13 guard bits: K beyond 8192 must refuse the narrow
        // path automatically and still agree with the forced-wide kernel.
        let fmt = PositFormat::of(16, 1);
        let g = PositGemm::new(fmt, Rounding::NearestEven);
        let k = 8200;
        assert!(!g.uses_narrow_path(0, k), "K guard must refuse");
        assert!(g.uses_narrow_path(0, 8192), "K at the guard limit is fine");
        let av: Vec<f32> = (0..k)
            .map(|i| if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let bv: Vec<f32> = (0..k).map(|i| ((i % 5) as f32) * 0.25).collect();
        let mut c_auto = vec![0.0f32; 1];
        let mut c_wide = vec![0.0f32; 1];
        g.gemm(
            Transpose::None,
            1,
            k,
            1,
            &plane(fmt, &av),
            &plane(fmt, &bv),
            &mut c_auto,
        );
        g.wide_accumulator(true).gemm(
            Transpose::None,
            1,
            k,
            1,
            &plane(fmt, &av),
            &plane(fmt, &bv),
            &mut c_wide,
        );
        assert_eq!(c_auto, c_wide);
    }

    #[test]
    fn parallel_split_is_deterministic() {
        let fmt = PositFormat::of(8, 1);
        let g = PositGemm::new(fmt, Rounding::NearestEven);
        let (m, k, n) = (64, 32, 16);
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 7 % 23) as f32 - 11.0) * 0.125)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 5 % 19) as f32 - 9.0) * 0.25)
            .collect();
        let (pa, pb) = (plane(fmt, &a), plane(fmt, &b));
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        g.gemm(Transpose::None, m, k, n, &pa, &pb, &mut c1);
        g.gemm(Transpose::None, m, k, n, &pa, &pb, &mut c2);
        assert_eq!(c1, c2);
        // And the pooled split must equal a fully serial run.
        let mut c3 = vec![0.0f32; m * n];
        crate::workers::serial_scope(|| g.gemm(Transpose::None, m, k, n, &pa, &pb, &mut c3));
        assert_eq!(c1, c3, "pool vs serial");
    }
}
