//! The compute-backend switch: one dispatch point for every GEMM-shaped
//! operation in the workspace.
//!
//! Three backends implement the same `C += A·B` contract as
//! [`crate::gemm`], behind one entry point taking a [`Transpose`] tag:
//!
//! * [`Backend::F32`] — the plain blocked f32 kernels (the substrate the
//!   paper's GPU simulation runs on);
//! * [`Backend::PositEmulated`] — the quantize→f32-GEMM→requantize sandwich:
//!   operands are rounded to the posit grid element-by-element, the multiply
//!   accumulates in f32, and the result is rounded again. This is what
//!   per-element `P(·)` insertion around an f32 kernel computes, with its
//!   double rounding;
//! * [`Backend::PositQuire`] — the decode-once [`crate::posit_gemm`] kernels:
//!   operands are unpacked once, every product accumulates exactly in a
//!   quire, and each output element is rounded exactly once.
//!
//! Operands arrive as [`Operand`]s, which carry either storage domain of
//! [`Tensor`]: a borrowed f32 slice, or a packed posit plane. A packed
//! operand whose format matches a [`Backend::PositQuire`] kernel is decoded
//! straight from its code words — no f32 staging buffer, no re-rounding,
//! and the Eq. 2 scale exponent it was encoded under is folded into the
//! decoded scales exactly. Every other combination decodes to f32 first
//! (the explicit round trip the packed path exists to avoid).
//!
//! The `nn` layers carry a `Backend` per direction (forward / backward), so
//! the trainer can A/B the three paths without touching layer code.

use crate::gemm::{self, Transpose};
use crate::posit_gemm::{kernel_rounding, PositGemm, PositPlane};
use crate::storage::{PackedBits, Storage};
use crate::tensor::Tensor;
use posit::{PositFormat, Rounding};
use std::borrow::Cow;

/// A borrowed GEMM operand in either storage domain.
#[derive(Clone, Copy)]
pub enum Operand<'a> {
    /// Dense f32 elements.
    F32(&'a [f32]),
    /// Packed posit code words (see [`crate::Storage::Posit`]).
    Posit {
        /// The packed code words.
        bits: &'a PackedBits,
        /// Their posit format.
        fmt: PositFormat,
        /// The Eq. 2 scale exponent applied at encode time.
        scale_exp: i32,
    },
}

impl<'a> Operand<'a> {
    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            Operand::F32(xs) => xs.len(),
            Operand::Posit { bits, .. } => bits.len(),
        }
    }

    /// True iff no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The operand's values as f32: a free borrow in the f32 domain, a
    /// decode (`posit · 2^scale_exp`) in the posit domain.
    fn to_f32_vec(self) -> Cow<'a, [f32]> {
        match self {
            Operand::F32(xs) => Cow::Borrowed(xs),
            Operand::Posit {
                bits,
                fmt,
                scale_exp,
            } => {
                let sf = (scale_exp as f32).exp2();
                Cow::Owned(bits.iter().map(|b| fmt.to_f32(b) * sf).collect())
            }
        }
    }
}

impl<'a> From<&'a [f32]> for Operand<'a> {
    fn from(xs: &'a [f32]) -> Operand<'a> {
        Operand::F32(xs)
    }
}

impl Tensor {
    /// Borrow this tensor as a GEMM operand in its storage domain.
    pub fn operand(&self) -> Operand<'_> {
        match self.storage() {
            Storage::F32(v) => Operand::F32(v),
            Storage::Posit {
                bits,
                format,
                scale_exp,
            } => Operand::Posit {
                bits,
                fmt: *format,
                scale_exp: *scale_exp,
            },
        }
    }
}

/// Build a quire-kernel plane for an operand: straight from the packed
/// code words when the formats agree (decode-once, no f32 staging),
/// through a decode→re-encode otherwise.
fn quire_plane(kernel: &PositGemm, op: Operand<'_>) -> PositPlane {
    match op {
        Operand::Posit {
            bits,
            fmt,
            scale_exp,
        } if fmt == kernel.format() => PositPlane::from_packed(fmt, bits, scale_exp),
        _ => kernel.encode_plane(&op.to_f32_vec()),
    }
}

/// Which kernel family executes a GEMM, and in which number system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Plain f32 kernels (default).
    #[default]
    F32,
    /// Posit-emulated: per-element quantization around the f32 kernel.
    PositEmulated {
        /// Operand/result format.
        fmt: PositFormat,
        /// Rounding mode for every quantization point.
        rounding: Rounding,
    },
    /// Posit-native: decode-once planes with exact quire accumulation.
    PositQuire {
        /// Operand/result format.
        fmt: PositFormat,
        /// Rounding mode for the single rounding on store.
        rounding: Rounding,
    },
}

impl Backend {
    /// Short stable name (`f32` | `posit-emulated` | `posit-quire`), e.g.
    /// for bench labels and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::F32 => "f32",
            Backend::PositEmulated { .. } => "posit-emulated",
            Backend::PositQuire { .. } => "posit-quire",
        }
    }

    /// Prepare an operand once for repeated GEMMs under this backend — the
    /// decode-once contract extended across calls (e.g. a conv batch loop
    /// where the weight tile is an operand of every sample's GEMM). An f32
    /// operand under [`Backend::F32`] is a free borrow; otherwise the
    /// decode/quantize is paid exactly once. A packed posit operand
    /// matching a [`Backend::PositQuire`] format is decoded straight from
    /// its code words, with no f32 staging.
    pub fn prepare<'a>(&self, op: Operand<'a>) -> PreparedOperand<'a> {
        let inner = match (self, op) {
            (Backend::F32, Operand::F32(xs)) => Prepared::F32(Cow::Borrowed(xs)),
            _ => self.prepare_owned(op),
        };
        PreparedOperand { inner }
    }

    /// [`Backend::prepare`] for a tensor operand, memoized in
    /// `cache` and keyed on the tensor's content stamp
    /// ([`crate::Tensor::version`]) plus this backend: the expensive part
    /// of preparation (posit decode into a plane, sandwich quantization, a
    /// packed-tensor decode to f32) is paid once per distinct weight
    /// content instead of once per GEMM. A plain f32 tensor under the f32
    /// backend bypasses the cache entirely — its preparation is a free
    /// borrow.
    ///
    /// Invalidation is automatic: any mutable borrow of the tensor's
    /// buffer, and any storage replacement (an optimizer step, a packed
    /// weight view install), refreshes the stamp and forces a rebuild on
    /// the next call.
    pub fn prepare_tensor_cached<'a>(
        &self,
        t: &'a Tensor,
        cache: &'a mut OperandCache,
    ) -> PreparedOperand<'a> {
        if let (Backend::F32, Storage::F32(v)) = (self, t.storage()) {
            // Free borrow — and drop whatever a previous backend cached
            // here, so a layer switched to f32 doesn't pin a stale decoded
            // plane for the rest of the process.
            cache.slot = None;
            return PreparedOperand {
                inner: Prepared::F32(Cow::Borrowed(v)),
            };
        }
        let version = t.version();
        let valid = cache
            .slot
            .as_ref()
            .is_some_and(|s| s.backend == *self && s.version == version);
        if posit_obs::enabled() {
            let o = cache_obs();
            if valid { &o.hits } else { &o.misses }.incr();
        }
        if !valid {
            cache.slot = Some(CacheSlot {
                backend: *self,
                version,
                prepared: self.prepare_owned(t.operand()),
            });
        }
        let slot = cache.slot.as_ref().expect("slot just filled");
        PreparedOperand {
            inner: slot.prepared.reborrow(),
        }
    }

    /// The owned preparation every prepare path shares (the free-borrow
    /// case — f32 data under the f32 backend — is short-circuited by the
    /// callers before reaching here).
    fn prepare_owned(&self, op: Operand<'_>) -> Prepared<'static> {
        match self {
            Backend::F32 => Prepared::F32(Cow::Owned(op.to_f32_vec().into_owned())),
            Backend::PositEmulated { fmt, rounding } => {
                // The sandwich's operand rounding, with the encode table
                // fetched once.
                let rounding = kernel_rounding(*rounding);
                let table = posit::lut::encode_table(*fmt);
                let xs = op.to_f32_vec();
                let q = xs.iter().map(|&x| table.quantize_f32(x, rounding));
                Prepared::Emulated {
                    fmt: *fmt,
                    rounding,
                    q: Cow::Owned(q.collect()),
                }
            }
            Backend::PositQuire { fmt, rounding } => {
                let kernel = PositGemm::new(*fmt, *rounding);
                let plane = quire_plane(&kernel, op);
                Prepared::Quire {
                    kernel,
                    plane: Cow::Owned(plane),
                }
            }
        }
    }

    /// For [`Backend::PositQuire`]: the decode-once operand plane this
    /// backend's GEMMs would build for `op` (packed fast path included);
    /// `None` for the other backends. This is the operand entry point of
    /// the exact gradient buffers ([`crate::GradQuireBuf`]), which must see
    /// byte-identical planes to the kernels for the 1-shard ≡ serial
    /// guarantee to hold.
    pub fn quire_operand_plane(&self, op: Operand<'_>) -> Option<PositPlane> {
        match self {
            Backend::PositQuire { fmt, rounding } => {
                let kernel = PositGemm::new(*fmt, *rounding);
                Some(quire_plane(&kernel, op))
            }
            _ => None,
        }
    }

    /// For [`Backend::PositQuire`]: a zeroed [`crate::GradQuireBuf`] of
    /// `len` accumulators sized for this backend's format and rounding, a
    /// whole-batch reduction depth of `k_total`, and operand planes
    /// carrying at most `margin` total scale-shift bits; `None` for the
    /// other backends (exact sharded accumulation has no meaning there).
    pub fn grad_quire_buf(
        &self,
        len: usize,
        margin: u32,
        k_total: usize,
    ) -> Option<crate::GradQuireBuf> {
        match self {
            Backend::PositQuire { fmt, rounding } => Some(crate::GradQuireBuf::new(
                *fmt, *rounding, margin, k_total, len,
            )),
            _ => None,
        }
    }

    /// `c += a[m,k] · b[k,n]` under this backend, with `t` naming the
    /// operand stored transposed (see [`Transpose`]): both operands are
    /// prepared for this call, then [`PreparedOperand::gemm`] runs.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm(
        &self,
        t: Transpose,
        m: usize,
        k: usize,
        n: usize,
        a: Operand<'_>,
        b: Operand<'_>,
        c: &mut [f32],
    ) {
        self.prepare(a).gemm(t, m, k, n, &self.prepare(b), c);
    }
}

/// Cached handles for the operand-cache hit/miss counters, so the
/// obs-enabled path costs two atomic ops per lookup instead of a
/// registry lock.
struct CacheObs {
    hits: posit_obs::Counter,
    misses: posit_obs::Counter,
}

fn cache_obs() -> &'static CacheObs {
    static OBS: std::sync::OnceLock<CacheObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let reg = posit_obs::Registry::global();
        CacheObs {
            hits: reg.counter("tensor.cache.hits"),
            misses: reg.counter("tensor.cache.misses"),
        }
    })
}

/// A memo slot for [`Backend::prepare_tensor_cached`]: one prepared
/// operand, keyed by the backend that built it and the source tensor's
/// content stamp. Layers keep one per (weight, direction) so the per-step
/// weight decode is paid once per weight update instead of once per GEMM.
#[derive(Default)]
pub struct OperandCache {
    slot: Option<CacheSlot>,
}

impl OperandCache {
    /// An empty cache.
    pub fn new() -> OperandCache {
        OperandCache::default()
    }

    /// Drop the cached preparation (the next
    /// [`Backend::prepare_tensor_cached`] rebuilds). Invalidation is
    /// normally automatic through the tensor's content stamp; this exists
    /// for callers that want to release the memory.
    pub fn invalidate(&mut self) {
        self.slot = None;
    }

    /// True iff a preparation is currently cached.
    pub fn is_cached(&self) -> bool {
        self.slot.is_some()
    }
}

struct CacheSlot {
    backend: Backend,
    version: u64,
    prepared: Prepared<'static>,
}

/// A GEMM operand prepared once under a [`Backend`] (see
/// [`Backend::prepare`] and [`Backend::prepare_tensor_cached`]).
pub struct PreparedOperand<'a> {
    inner: Prepared<'a>,
}

enum Prepared<'a> {
    F32(Cow<'a, [f32]>),
    Emulated {
        fmt: PositFormat,
        rounding: Rounding,
        q: Cow<'a, [f32]>,
    },
    Quire {
        kernel: PositGemm,
        plane: Cow<'a, PositPlane>,
    },
}

impl Prepared<'_> {
    /// A borrow of this preparation (what a cache hit hands out).
    fn reborrow(&self) -> Prepared<'_> {
        match self {
            Prepared::F32(v) => Prepared::F32(Cow::Borrowed(v)),
            Prepared::Emulated { fmt, rounding, q } => Prepared::Emulated {
                fmt: *fmt,
                rounding: *rounding,
                q: Cow::Borrowed(q),
            },
            Prepared::Quire { kernel, plane } => Prepared::Quire {
                kernel: *kernel,
                plane: Cow::Borrowed(plane),
            },
        }
    }
}

/// The f32 kernel for a transpose tag: the one place the three loops of
/// [`crate::gemm`] are chosen between.
fn f32_gemm(t: Transpose, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    match t {
        Transpose::None => gemm::gemm(m, k, n, a, b, c),
        Transpose::A => gemm::gemm_at_b(m, k, n, a, b, c),
        Transpose::B => gemm::gemm_a_bt(m, k, n, a, b, c),
    }
}

impl PreparedOperand<'_> {
    /// The backend this operand was prepared under (its kernels' effective
    /// rounding, so preparing another operand under it gives the same
    /// bits as preparing under the original backend).
    pub(crate) fn backend(&self) -> Backend {
        match &self.inner {
            Prepared::F32(_) => Backend::F32,
            Prepared::Emulated { fmt, rounding, .. } => Backend::PositEmulated {
                fmt: *fmt,
                rounding: *rounding,
            },
            Prepared::Quire { kernel, .. } => Backend::PositQuire {
                fmt: kernel.format(),
                rounding: kernel.rounding(),
            },
        }
    }

    /// The quire kernel and decoded plane behind a
    /// [`Backend::PositQuire`] preparation; `None` for the other backends.
    pub(crate) fn quire_parts(&self) -> Option<(&PositGemm, &PositPlane)> {
        match &self.inner {
            Prepared::Quire { kernel, plane } => Some((kernel, plane)),
            _ => None,
        }
    }

    /// `c += self[m,k] · b[k,n]` with both operands prepared under the
    /// same backend, `t` naming the operand stored transposed (see
    /// [`Transpose`]): `self` stored `[k, m]` under [`Transpose::A`], `b`
    /// stored `[n, k]` under [`Transpose::B`]. The emulated backend
    /// multiplies the quantized operands in f32 and rounds the result once
    /// more; the quire backend accumulates exactly and rounds once.
    ///
    /// # Panics
    ///
    /// Panics if the operands were prepared under different backends, or
    /// if the lengths disagree with the dimensions.
    pub fn gemm(
        &self,
        t: Transpose,
        m: usize,
        k: usize,
        n: usize,
        b: &PreparedOperand<'_>,
        c: &mut [f32],
    ) {
        match (&self.inner, &b.inner) {
            (Prepared::F32(a), Prepared::F32(b)) => f32_gemm(t, m, k, n, a, b, c),
            (
                Prepared::Emulated { fmt, rounding, q },
                Prepared::Emulated {
                    fmt: bf,
                    rounding: br,
                    q: qb,
                },
            ) => {
                assert_eq!(
                    (fmt, rounding),
                    (bf, br),
                    "emulated operands quantized under different formats/roundings"
                );
                let mut tmp = vec![0.0f32; c.len()];
                f32_gemm(t, m, k, n, q, qb, &mut tmp);
                let table = posit::lut::encode_table(*fmt);
                for (ci, &x) in c.iter_mut().zip(&tmp) {
                    *ci += table.quantize_f32(x, *rounding);
                }
            }
            (
                Prepared::Quire { kernel, plane },
                Prepared::Quire {
                    kernel: bk,
                    plane: pb,
                },
            ) => {
                assert_eq!(
                    kernel, bk,
                    "quire operands prepared under different formats/roundings"
                );
                kernel.gemm(t, m, k, n, plane, pb, c);
            }
            _ => panic!("GEMM operands prepared under different backends"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FMT: PositFormat = PositFormat::of(16, 1);

    fn backends() -> [Backend; 3] {
        [
            Backend::F32,
            Backend::PositEmulated {
                fmt: FMT,
                rounding: Rounding::NearestEven,
            },
            Backend::PositQuire {
                fmt: FMT,
                rounding: Rounding::NearestEven,
            },
        ]
    }

    #[test]
    fn names() {
        let [f, e, q] = backends();
        assert_eq!(f.name(), "f32");
        assert_eq!(e.name(), "posit-emulated");
        assert_eq!(q.name(), "posit-quire");
        assert_eq!(Backend::default(), Backend::F32);
    }

    #[test]
    fn backends_agree_on_exact_inputs() {
        // Small powers of two: every intermediate is exact in (16,1) and in
        // f32, so all three backends must produce identical results.
        let a = [1.0f32, 2.0, -0.5, 4.0, 0.25, -8.0]; // [2, 3]
        let b = [2.0f32, 0.5, -1.0, 4.0, 0.125, -2.0]; // [3, 2]
        let mut want = vec![0.0f32; 4];
        gemm::gemm(2, 3, 2, &a, &b, &mut want);
        for bk in backends() {
            let mut c = vec![0.0f32; 4];
            bk.gemm(
                Transpose::None,
                2,
                3,
                2,
                Operand::F32(&a),
                Operand::F32(&b),
                &mut c,
            );
            assert_eq!(c, want, "{}", bk.name());
        }
    }

    #[test]
    fn packed_format_mismatch_falls_back_to_reencode() {
        // A (16,1) quire kernel fed an (8,1)-packed operand decodes it to
        // f32 and re-encodes — same values here since they are exact in
        // both formats.
        let t = Tensor::from_vec(vec![1.0, -2.0, 0.5], &[1, 3]);
        let p8 = t.to_posit(PositFormat::of(8, 1), 0, Rounding::NearestEven);
        let qui = Backend::PositQuire {
            fmt: FMT,
            rounding: Rounding::NearestEven,
        };
        let b = Tensor::from_vec(vec![2.0, 4.0, -1.0], &[3, 1]);
        let mut want = vec![0.0f32; 1];
        qui.gemm(
            Transpose::None,
            1,
            3,
            1,
            t.operand(),
            b.operand(),
            &mut want,
        );
        let mut c = vec![0.0f32; 1];
        qui.gemm(Transpose::None, 1, 3, 1, p8.operand(), b.operand(), &mut c);
        assert_eq!(c, want);
    }

    #[test]
    fn operand_len_and_from() {
        let t = Tensor::ones(&[4]).to_posit(FMT, 0, Rounding::NearestEven);
        assert_eq!(t.operand().len(), 4);
        assert!(!t.operand().is_empty());
        let xs = [1.0f32, 2.0];
        let op: Operand<'_> = xs.as_slice().into();
        assert_eq!(op.len(), 2);
    }

    #[test]
    fn posit_backends_accumulate_into_c() {
        for bk in backends() {
            let mut c = vec![100.0f32; 1];
            bk.gemm(
                Transpose::None,
                1,
                1,
                1,
                Operand::F32(&[2.0]),
                Operand::F32(&[3.0]),
                &mut c,
            );
            assert_eq!(c, vec![106.0], "{}", bk.name());
        }
    }

    #[test]
    fn stochastic_rounding_degrades_instead_of_panicking() {
        // The A4 ablation configures Rounding::Stochastic; the kernels
        // carry no per-element random stream, so every backend must degrade
        // to nearest-even rather than hit from_f64's stochastic assert.
        let a = [1.0f32, 2.0, -0.5, 4.0, 0.25, -8.0];
        let b = [2.0f32, 0.5, -1.0, 4.0, 0.125, -2.0];
        for bk in [
            Backend::PositEmulated {
                fmt: FMT,
                rounding: Rounding::Stochastic,
            },
            Backend::PositQuire {
                fmt: FMT,
                rounding: Rounding::Stochastic,
            },
        ] {
            let mut want = vec![0.0f32; 4];
            bk.gemm(
                Transpose::None,
                2,
                3,
                2,
                Operand::F32(&a),
                Operand::F32(&b),
                &mut want,
            );
            let mut c = vec![0.0f32; 4];
            let a_t = [1.0, 4.0, 2.0, 0.25, -0.5, -8.0];
            bk.gemm(
                Transpose::A,
                2,
                3,
                2,
                Operand::F32(&a_t),
                Operand::F32(&b),
                &mut c,
            );
            let mut c = vec![0.0f32; 4];
            let b_t = [2.0, -1.0, 0.125, 0.5, 4.0, -2.0];
            bk.gemm(
                Transpose::B,
                2,
                3,
                2,
                Operand::F32(&a),
                Operand::F32(&b_t),
                &mut c,
            );
        }
    }

    /// Per operand: f32 (`None`), packed (`Some(0)`), or packed under an
    /// Eq. 2 scale shift.
    type Domain = Option<i32>;
    const A_DOMAINS: [Domain; 3] = [None, Some(0), Some(2)];
    const B_DOMAINS: [Domain; 3] = [None, Some(0), Some(-1)];
    const TRANSPOSES: [Transpose; 3] = [Transpose::None, Transpose::A, Transpose::B];

    /// Backend × transpose tag × operand domain × preparation (per call,
    /// or both operands through an OperandCache, twice for a hit), each
    /// against the plain f32 product. The inputs are small dyadics whose
    /// dot products are exact in f32 and on the (16,1) grid, so every cell
    /// must reproduce the f32 bits.
    fn assert_gemm_cells(transposes: &[Transpose], domains: &[(Domain, Domain)], cached: bool) {
        let (m, k, n) = (2, 3, 4);
        let vals = [1.0f32, -2.0, 0.5, 4.0, -0.25, 0.125, 2.0, -1.0];
        let a: Vec<f32> = (0..m * k).map(|i| vals[(3 * i + 1) % 8]).collect();
        let b: Vec<f32> = (0..k * n).map(|i| vals[(5 * i + 2) % 8]).collect();
        let mut want = vec![0.0f32; m * n];
        gemm::gemm(m, k, n, &a, &b, &mut want);
        for &x in &want {
            let on_grid = FMT.to_f32(FMT.from_f32(x, Rounding::NearestEven));
            assert_eq!(on_grid, x, "{x} must be exact in (16,1)");
        }
        let (a, b) = (Tensor::from_vec(a, &[m, k]), Tensor::from_vec(b, &[k, n]));
        let store = |x: &Tensor, scale: Domain| match scale {
            Some(e) => x.to_posit(FMT, e, Rounding::NearestEven),
            None => x.clone(),
        };
        for bk in backends() {
            for &t in transposes {
                let a_t = if t == Transpose::A {
                    a.transpose2()
                } else {
                    a.clone()
                };
                let b_t = if t == Transpose::B {
                    b.transpose2()
                } else {
                    b.clone()
                };
                for &(ea, eb) in domains {
                    let (a_op, b_op) = (store(&a_t, ea), store(&b_t, eb));
                    let what = format!("{} {t:?} A {ea:?} B {eb:?}", bk.name());
                    if !cached {
                        let mut c = vec![0.0f32; m * n];
                        bk.gemm(t, m, k, n, a_op.operand(), b_op.operand(), &mut c);
                        assert_eq!(c, want, "per call, {what}");
                        continue;
                    }
                    let (mut cache_a, mut cache_b) = (OperandCache::new(), OperandCache::new());
                    for pass in 0..2 {
                        let pa = bk.prepare_tensor_cached(&a_op, &mut cache_a);
                        let pb = bk.prepare_tensor_cached(&b_op, &mut cache_b);
                        let mut c = vec![0.0f32; m * n];
                        pa.gemm(t, m, k, n, &pb, &mut c);
                        assert_eq!(c, want, "cached pass {pass}, {what}");
                    }
                    // Caches engage for everything but the free-borrow
                    // f32-under-f32 case.
                    assert_eq!(cache_a.is_cached(), bk != Backend::F32 || ea.is_some());
                    assert_eq!(cache_b.is_cached(), bk != Backend::F32 || eb.is_some());
                }
            }
        }
    }

    /// Every (A domain, B domain) pair.
    fn all_domains() -> Vec<(Domain, Domain)> {
        A_DOMAINS
            .into_iter()
            .flat_map(|ea| B_DOMAINS.map(|eb| (ea, eb)))
            .collect()
    }

    #[test]
    fn transposed_dispatch_matches_plain() {
        assert_gemm_cells(&TRANSPOSES, &[(None, None)], false);
    }

    #[test]
    fn packed_operands_agree_with_f32_operands() {
        // Packed operands, with and without a scale shift, in every
        // operand position of the plain product.
        assert_gemm_cells(&[Transpose::None], &all_domains(), false);
    }

    #[test]
    fn transposed_packed_operands_agree() {
        assert_gemm_cells(&[Transpose::A, Transpose::B], &all_domains(), false);
    }

    #[test]
    fn cached_weight_operand_matches_per_call_preparation() {
        // Both operands through prepare_tensor_cached, in every transpose
        // position (the ΔW-layout prepared×prepared cell included).
        assert_gemm_cells(&TRANSPOSES, &all_domains(), true);
    }

    #[test]
    fn cache_invalidates_on_content_change_and_backend_switch() {
        let qui = Backend::PositQuire {
            fmt: FMT,
            rounding: Rounding::NearestEven,
        };
        let mut w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let x = [1.0f32, 0.0, 0.0, 1.0];
        let mut cache = OperandCache::new();
        let run = |w: &Tensor, cache: &mut OperandCache, bk: Backend| {
            let xp = bk.prepare(Operand::F32(&x));
            let wp = bk.prepare_tensor_cached(w, cache);
            let mut c = vec![0.0f32; 4];
            xp.gemm(Transpose::None, 2, 2, 2, &wp, &mut c);
            c
        };
        assert_eq!(run(&w, &mut cache, qui), vec![1.0, 2.0, 3.0, 4.0]);
        // Mutate the weight: the stamp changes, the stale plane must go.
        w.data_mut()[0] = 8.0;
        assert_eq!(run(&w, &mut cache, qui), vec![8.0, 2.0, 3.0, 4.0]);
        // Same content, different backend: must also rebuild, not reuse.
        let emu = Backend::PositEmulated {
            fmt: FMT,
            rounding: Rounding::NearestEven,
        };
        assert_eq!(run(&w, &mut cache, emu), vec![8.0, 2.0, 3.0, 4.0]);
        cache.invalidate();
        assert!(!cache.is_cached());
        assert_eq!(run(&w, &mut cache, qui), vec![8.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "different backends")]
    fn mixed_backend_prepared_operands_panic() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        let qui = Backend::PositQuire {
            fmt: FMT,
            rounding: Rounding::NearestEven,
        };
        let pa = Backend::F32.prepare(Operand::F32(&a));
        let pb = qui.prepare(Operand::F32(&b));
        let mut c = vec![0.0f32; 1];
        pa.gemm(Transpose::None, 1, 2, 1, &pb, &mut c);
    }

    #[test]
    fn quire_avoids_the_double_rounding_of_the_sandwich() {
        // Exact dot: 1 + 2^-13 + 2^-40. In (16,1) the codes around it are
        // 1.0 (even LSB) and 1 + 2^-12, with midpoint 1 + 2^-13. The f32
        // accumulator of the sandwich drops the 2^-40 term (41 significant
        // bits needed), lands exactly on the midpoint and ties to the even
        // code 1.0; the quire keeps the term, sits above the midpoint and
        // must round up. Every operand is exactly representable in (16,1),
        // so the difference is purely the accumulator.
        let fmt = PositFormat::of(16, 1);
        let emu = Backend::PositEmulated {
            fmt,
            rounding: Rounding::NearestEven,
        };
        let qui = Backend::PositQuire {
            fmt,
            rounding: Rounding::NearestEven,
        };
        let a = [1.0f32, (-13f32).exp2(), (-20f32).exp2()];
        let b = [1.0f32, 1.0, (-20f32).exp2()];
        let mut ce = vec![0.0f32; 1];
        emu.gemm(
            Transpose::None,
            1,
            3,
            1,
            Operand::F32(&a),
            Operand::F32(&b),
            &mut ce,
        );
        let mut cq = vec![0.0f32; 1];
        qui.gemm(
            Transpose::None,
            1,
            3,
            1,
            Operand::F32(&a),
            Operand::F32(&b),
            &mut cq,
        );
        assert_eq!(ce[0], 1.0, "sandwich ties to even after dropping 2^-40");
        let up = 1.0 + (-12f32).exp2();
        assert_eq!(cq[0], up, "quire keeps 2^-40 and rounds up");
        // And the quire result must be on the (16,1) grid exactly.
        let back = fmt.to_f32(fmt.from_f32(cq[0], Rounding::NearestEven));
        assert_eq!(back, cq[0]);
    }

    #[test]
    fn packed_plane_skips_the_entry_rounding() {
        // An Eq. 2–3 shifted value that is OFF the raw posit grid:
        // P((8,1)) of 1.0625 = exact code with scale shift −4 applied →
        // value 1.0625·2^-4 = 0.06640625. Encoded with scale_exp = −4 the
        // packed plane carries it exactly; an f32 operand at the same value
        // would be re-rounded onto the raw (8,1) grid on entry (0.0664… is
        // not an (8,1) posit) and lose the tail.
        let fmt = PositFormat::of(8, 1);
        let qui = Backend::PositQuire {
            fmt,
            rounding: Rounding::NearestEven,
        };
        let x = 1.0625f32; // exact in (8,1)
        let shifted = x * (-4f32).exp2();
        let t = Tensor::from_vec(vec![shifted], &[1, 1]);
        let packed = t.to_posit(fmt, -4, Rounding::NearestEven);
        assert_eq!(packed.to_f32().data(), &[shifted], "encode is exact");
        let one = Tensor::from_vec(vec![16.0], &[1, 1]); // exact in (8,1)
                                                         // Packed path: exact product 1.0625.
        let mut c = vec![0.0f32; 1];
        qui.gemm(
            Transpose::None,
            1,
            1,
            1,
            packed.operand(),
            one.operand(),
            &mut c,
        );
        assert_eq!(c, vec![1.0625], "packed plane keeps the shifted value");
        // f32 path: the operand re-rounds to the nearest (8,1) posit
        // (0.0625 or 0.078125 — the tail is gone either way).
        let mut c = vec![0.0f32; 1];
        qui.gemm(Transpose::None, 1, 1, 1, t.operand(), one.operand(), &mut c);
        assert_ne!(c, vec![1.0625], "f32 staging re-rounds the operand");
    }
}
