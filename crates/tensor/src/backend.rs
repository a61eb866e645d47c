//! The compute-backend switch: one dispatch point for every GEMM-shaped
//! operation in the workspace.
//!
//! Three backends implement the same `C += A·B` contracts as
//! [`crate::gemm`]:
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

use crate::gemm;
use crate::posit_gemm::{PositGemm, PositPlane};
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

    /// The rounding mode the kernels actually apply: stochastic degrades to
    /// nearest-even (the kernels carry no per-element random stream).
    pub(crate) fn op_rounding(rounding: Rounding) -> Rounding {
        if rounding == Rounding::Stochastic {
            Rounding::NearestEven
        } else {
            rounding
        }
    }

    /// Quantize a slice to the posit grid (the sandwich's operand rounding).
    /// [`posit::quant::quantize_f32`] with the encode table fetched once.
    pub(crate) fn sandwich_quantize(fmt: &PositFormat, rounding: Rounding, xs: &[f32]) -> Vec<f32> {
        let table = posit::lut::encode_table(*fmt);
        xs.iter()
            .map(|&x| table.quantize_f32(x, rounding))
            .collect()
    }

    /// Prepare a left operand once for repeated GEMMs under this backend —
    /// the decode-once contract extended across calls (e.g. a conv batch
    /// loop where the weight tile is the `A` operand of every sample's
    /// GEMM). For [`Backend::F32`] this is a free borrow; for the posit
    /// backends it pays the quantize/decode exactly once.
    pub fn prepare<'a>(&self, xs: &'a [f32]) -> PreparedOperand<'a> {
        self.prepare_operand(Operand::F32(xs))
    }

    /// [`Backend::prepare`] for an operand in either storage domain. A
    /// packed posit operand matching a [`Backend::PositQuire`] format is
    /// decoded once from its code words with no f32 staging.
    pub fn prepare_operand<'a>(&self, op: Operand<'a>) -> PreparedOperand<'a> {
        if let (Backend::F32, Operand::F32(xs)) = (self, op) {
            return PreparedOperand {
                inner: Prepared::F32(Cow::Borrowed(xs)),
            };
        }
        let inner = match self.prepare_owned(op) {
            PreparedOwned::F32(v) => Prepared::F32(Cow::Owned(v)),
            PreparedOwned::Emulated { fmt, rounding, q } => Prepared::Emulated {
                fmt,
                rounding,
                q: Cow::Owned(q),
            },
            PreparedOwned::Quire { kernel, plane } => Prepared::Quire {
                kernel,
                plane: Cow::Owned(plane),
            },
        };
        PreparedOperand { inner }
    }

    /// [`Backend::prepare_operand`] for a tensor operand, memoized in
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
        let inner = match &slot.prepared {
            PreparedOwned::F32(v) => Prepared::F32(Cow::Borrowed(v)),
            PreparedOwned::Emulated { fmt, rounding, q } => Prepared::Emulated {
                fmt: *fmt,
                rounding: *rounding,
                q: Cow::Borrowed(q),
            },
            PreparedOwned::Quire { kernel, plane } => Prepared::Quire {
                kernel: *kernel,
                plane: Cow::Borrowed(plane),
            },
        };
        PreparedOperand { inner }
    }

    /// The owned preparation every prepare path shares (the free-borrow
    /// case — f32 data under the f32 backend — is short-circuited by the
    /// callers before reaching here).
    fn prepare_owned(&self, op: Operand<'_>) -> PreparedOwned {
        match self {
            Backend::F32 => PreparedOwned::F32(op.to_f32_vec().into_owned()),
            Backend::PositEmulated { fmt, rounding } => {
                let rounding = Self::op_rounding(*rounding);
                PreparedOwned::Emulated {
                    fmt: *fmt,
                    rounding,
                    q: Self::sandwich_quantize(fmt, rounding, &op.to_f32_vec()),
                }
            }
            Backend::PositQuire { fmt, rounding } => {
                let kernel = PositGemm::new(*fmt, *rounding);
                let plane = quire_plane(&kernel, op);
                PreparedOwned::Quire { kernel, plane }
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
                *fmt,
                Self::op_rounding(*rounding),
                margin,
                k_total,
                len,
            )),
            _ => None,
        }
    }

    /// `c += a[m,k] * b[k,n]` under this backend.
    pub fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        self.prepare(a).gemm(m, k, n, b, c);
    }

    /// `c += a^T[m,k] * b[k,n]` (`a` stored `[k, m]`) under this backend.
    pub fn gemm_at_b(&self, m: usize, k: usize, n: usize, a_t: &[f32], b: &[f32], c: &mut [f32]) {
        self.prepare(a_t).gemm_at_b(m, k, n, b, c);
    }

    /// `c += a[m,k] * b^T[k,n]` (`b` stored `[n, k]`) under this backend.
    pub fn gemm_a_bt(&self, m: usize, k: usize, n: usize, a: &[f32], b_t: &[f32], c: &mut [f32]) {
        self.prepare(a).gemm_a_bt(m, k, n, b_t, c);
    }

    /// [`Backend::gemm`] over dual-domain operands.
    pub fn gemm_op(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: Operand<'_>,
        b: Operand<'_>,
        c: &mut [f32],
    ) {
        self.prepare_operand(a).gemm_op(m, k, n, b, c);
    }

    /// [`Backend::gemm_at_b`] over dual-domain operands.
    pub fn gemm_at_b_op(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a_t: Operand<'_>,
        b: Operand<'_>,
        c: &mut [f32],
    ) {
        self.prepare_operand(a_t).gemm_at_b_op(m, k, n, b, c);
    }

    /// [`Backend::gemm_a_bt`] over dual-domain operands.
    pub fn gemm_a_bt_op(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: Operand<'_>,
        b_t: Operand<'_>,
        c: &mut [f32],
    ) {
        self.prepare_operand(a).gemm_a_bt_op(m, k, n, b_t, c);
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
    prepared: PreparedOwned,
}

/// Owned twin of [`Prepared`], storable across calls.
enum PreparedOwned {
    F32(Vec<f32>),
    Emulated {
        fmt: PositFormat,
        rounding: Rounding,
        q: Vec<f32>,
    },
    Quire {
        kernel: PositGemm,
        plane: PositPlane,
    },
}

/// A GEMM left operand prepared once under a [`Backend`] (see
/// [`Backend::prepare`]); the right operand is prepared per call — or
/// passed pre-prepared through the `*_prepared` entry points.
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

impl PreparedOperand<'_> {
    /// The emulated sandwich tail: requantize the f32 scratch result and
    /// accumulate it into `c`.
    fn emulated_store(fmt: &PositFormat, rounding: Rounding, tmp: &[f32], c: &mut [f32]) {
        let table = posit::lut::encode_table(*fmt);
        for (ci, &t) in c.iter_mut().zip(tmp) {
            *ci += table.quantize_f32(t, rounding);
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

    /// `c += self[m,k] * b[k,n]` (`self` is the prepared `A`).
    pub fn gemm(&self, m: usize, k: usize, n: usize, b: &[f32], c: &mut [f32]) {
        self.gemm_op(m, k, n, Operand::F32(b), c);
    }

    /// `c += self^T[m,k] * b[k,n]` (`self` is the prepared `A^T`, stored
    /// `[k, m]`).
    pub fn gemm_at_b(&self, m: usize, k: usize, n: usize, b: &[f32], c: &mut [f32]) {
        self.gemm_at_b_op(m, k, n, Operand::F32(b), c);
    }

    /// `c += self[m,k] * b^T[k,n]` (`self` is the prepared `A`; `b` stored
    /// `[n, k]`).
    pub fn gemm_a_bt(&self, m: usize, k: usize, n: usize, b_t: &[f32], c: &mut [f32]) {
        self.gemm_a_bt_op(m, k, n, Operand::F32(b_t), c);
    }

    /// [`PreparedOperand::gemm`] over a dual-domain right operand.
    pub fn gemm_op(&self, m: usize, k: usize, n: usize, b: Operand<'_>, c: &mut [f32]) {
        match &self.inner {
            Prepared::F32(a) => gemm::gemm(m, k, n, a, &b.to_f32_vec(), c),
            Prepared::Emulated { fmt, rounding, q } => {
                let qb = Backend::sandwich_quantize(fmt, *rounding, &b.to_f32_vec());
                let mut tmp = vec![0.0f32; c.len()];
                gemm::gemm(m, k, n, q, &qb, &mut tmp);
                Self::emulated_store(fmt, *rounding, &tmp, c);
            }
            Prepared::Quire { kernel, plane } => {
                let pb = quire_plane(kernel, b);
                kernel.gemm(m, k, n, plane, &pb, c);
            }
        }
    }

    /// [`PreparedOperand::gemm_at_b`] over a dual-domain right operand.
    pub fn gemm_at_b_op(&self, m: usize, k: usize, n: usize, b: Operand<'_>, c: &mut [f32]) {
        match &self.inner {
            Prepared::F32(a_t) => gemm::gemm_at_b(m, k, n, a_t, &b.to_f32_vec(), c),
            Prepared::Emulated { fmt, rounding, q } => {
                let qb = Backend::sandwich_quantize(fmt, *rounding, &b.to_f32_vec());
                let mut tmp = vec![0.0f32; c.len()];
                gemm::gemm_at_b(m, k, n, q, &qb, &mut tmp);
                Self::emulated_store(fmt, *rounding, &tmp, c);
            }
            Prepared::Quire { kernel, plane } => {
                let pb = quire_plane(kernel, b);
                kernel.gemm_at_b(m, k, n, plane, &pb, c);
            }
        }
    }

    /// `c += self[m,k] * b[k,n]` with *both* operands pre-prepared under
    /// the same backend — the entry point for a cached weight operand on
    /// the right-hand side (see [`Backend::prepare_tensor_cached`]).
    ///
    /// # Panics
    ///
    /// Panics if the operands were prepared under different backends.
    pub fn gemm_prepared(
        &self,
        m: usize,
        k: usize,
        n: usize,
        b: &PreparedOperand<'_>,
        c: &mut [f32],
    ) {
        match (&self.inner, &b.inner) {
            (Prepared::F32(a), Prepared::F32(bv)) => gemm::gemm(m, k, n, a, bv, c),
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
                gemm::gemm(m, k, n, q, qb, &mut tmp);
                Self::emulated_store(fmt, *rounding, &tmp, c);
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
                kernel.gemm(m, k, n, plane, pb, c);
            }
            _ => panic!("GEMM operands prepared under different backends"),
        }
    }

    /// `c += self^T[m,k] * b[k,n]` (`self` stored `[k, m]`) with both
    /// operands pre-prepared under the same backend.
    ///
    /// # Panics
    ///
    /// Panics if the operands were prepared under different backends.
    pub fn gemm_at_b_prepared(
        &self,
        m: usize,
        k: usize,
        n: usize,
        b: &PreparedOperand<'_>,
        c: &mut [f32],
    ) {
        match (&self.inner, &b.inner) {
            (Prepared::F32(a_t), Prepared::F32(bv)) => gemm::gemm_at_b(m, k, n, a_t, bv, c),
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
                gemm::gemm_at_b(m, k, n, q, qb, &mut tmp);
                Self::emulated_store(fmt, *rounding, &tmp, c);
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
                kernel.gemm_at_b(m, k, n, plane, pb, c);
            }
            _ => panic!("GEMM operands prepared under different backends"),
        }
    }

    /// `c += self[m,k] * b^T[k,n]` (`b` stored `[n, k]`) with both
    /// operands pre-prepared under the same backend.
    ///
    /// # Panics
    ///
    /// Panics if the operands were prepared under different backends.
    pub fn gemm_a_bt_prepared(
        &self,
        m: usize,
        k: usize,
        n: usize,
        b_t: &PreparedOperand<'_>,
        c: &mut [f32],
    ) {
        match (&self.inner, &b_t.inner) {
            (Prepared::F32(a), Prepared::F32(bv)) => gemm::gemm_a_bt(m, k, n, a, bv, c),
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
                gemm::gemm_a_bt(m, k, n, q, qb, &mut tmp);
                Self::emulated_store(fmt, *rounding, &tmp, c);
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
                kernel.gemm_a_bt(m, k, n, plane, pb, c);
            }
            _ => panic!("GEMM operands prepared under different backends"),
        }
    }

    /// [`PreparedOperand::gemm_a_bt`] over a dual-domain right operand.
    pub fn gemm_a_bt_op(&self, m: usize, k: usize, n: usize, b_t: Operand<'_>, c: &mut [f32]) {
        match &self.inner {
            Prepared::F32(a) => gemm::gemm_a_bt(m, k, n, a, &b_t.to_f32_vec(), c),
            Prepared::Emulated { fmt, rounding, q } => {
                let qb = Backend::sandwich_quantize(fmt, *rounding, &b_t.to_f32_vec());
                let mut tmp = vec![0.0f32; c.len()];
                gemm::gemm_a_bt(m, k, n, q, &qb, &mut tmp);
                Self::emulated_store(fmt, *rounding, &tmp, c);
            }
            Prepared::Quire { kernel, plane } => {
                let pb = quire_plane(kernel, b_t);
                kernel.gemm_a_bt(m, k, n, plane, &pb, c);
            }
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
            bk.gemm(2, 3, 2, &a, &b, &mut c);
            assert_eq!(c, want, "{}", bk.name());
        }
    }

    #[test]
    fn packed_operands_agree_with_f32_operands() {
        // Exact inputs packed into (16,1) planes must produce the same
        // results as their f32 twins under every backend, in every operand
        // position, with and without a scale shift.
        let av = vec![1.0f32, 2.0, -0.5, 4.0, 0.25, -8.0]; // [2, 3]
        let bv = vec![2.0f32, 0.5, -1.0, 4.0, 0.125, -2.0]; // [3, 2]
        let ta = Tensor::from_vec(av.clone(), &[2, 3]);
        let tb = Tensor::from_vec(bv.clone(), &[3, 2]);
        for (ea, eb) in [(0, 0), (2, -1)] {
            let pa = ta.to_posit(FMT, ea, Rounding::NearestEven);
            let pb = tb.to_posit(FMT, eb, Rounding::NearestEven);
            for bk in backends() {
                let mut want = vec![0.0f32; 4];
                bk.gemm(2, 3, 2, &av, &bv, &mut want);
                let mut c = vec![0.0f32; 4];
                bk.gemm_op(2, 3, 2, pa.operand(), pb.operand(), &mut c);
                assert_eq!(c, want, "packed×packed {} e=({ea},{eb})", bk.name());
                let mut c = vec![0.0f32; 4];
                bk.gemm_op(2, 3, 2, ta.operand(), pb.operand(), &mut c);
                assert_eq!(c, want, "f32×packed {}", bk.name());
            }
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
        qui.gemm_op(1, 3, 1, t.operand(), b.operand(), &mut want);
        let mut c = vec![0.0f32; 1];
        qui.gemm_op(1, 3, 1, p8.operand(), b.operand(), &mut c);
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
    fn transposed_dispatch_matches_plain() {
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]; // [2, 3]
        let a_t = [1.0f32, 4.0, 2.0, 5.0, 3.0, 6.0]; // [3, 2]
        let b = [1.0f32, -2.0, 0.5, 1.0, -1.0, 2.0]; // [3, 2]
        let b_t = [1.0f32, 0.5, -1.0, -2.0, 1.0, 2.0]; // [2, 3]
        for bk in backends() {
            let mut plain = vec![0.0f32; 4];
            bk.gemm(2, 3, 2, &a, &b, &mut plain);
            let mut c = vec![0.0f32; 4];
            bk.gemm_at_b(2, 3, 2, &a_t, &b, &mut c);
            assert_eq!(c, plain, "gemm_at_b {}", bk.name());
            let mut c = vec![0.0f32; 4];
            bk.gemm_a_bt(2, 3, 2, &a, &b_t, &mut c);
            assert_eq!(c, plain, "gemm_a_bt {}", bk.name());
        }
    }

    #[test]
    fn transposed_packed_operands_agree() {
        let a_t = Tensor::from_vec(vec![1.0, 4.0, 2.0, 0.25, -0.5, -8.0], &[3, 2]);
        let b = Tensor::from_vec(vec![1.0, -2.0, 0.5, 1.0, -1.0, 2.0], &[3, 2]);
        let b_t = b.transpose2();
        let a = a_t.transpose2();
        for bk in backends() {
            let mut plain = vec![0.0f32; 4];
            bk.gemm(2, 3, 2, a.data(), b.data(), &mut plain);
            let pat = a_t.to_posit(FMT, 0, Rounding::NearestEven);
            let pb = b.to_posit(FMT, 0, Rounding::NearestEven);
            let pbt = b_t.to_posit(FMT, 0, Rounding::NearestEven);
            let pa = a.to_posit(FMT, 0, Rounding::NearestEven);
            let mut c = vec![0.0f32; 4];
            bk.gemm_at_b_op(2, 3, 2, pat.operand(), pb.operand(), &mut c);
            assert_eq!(c, plain, "gemm_at_b_op {}", bk.name());
            let mut c = vec![0.0f32; 4];
            bk.gemm_a_bt_op(2, 3, 2, pa.operand(), pbt.operand(), &mut c);
            assert_eq!(c, plain, "gemm_a_bt_op {}", bk.name());
        }
    }

    #[test]
    fn posit_backends_accumulate_into_c() {
        for bk in backends() {
            let mut c = vec![100.0f32; 1];
            bk.gemm(1, 1, 1, &[2.0], &[3.0], &mut c);
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
            bk.gemm(2, 3, 2, &a, &b, &mut want);
            let mut c = vec![0.0f32; 4];
            bk.gemm_at_b(2, 3, 2, &[1.0, 4.0, 2.0, 0.25, -0.5, -8.0], &b, &mut c);
            let mut c = vec![0.0f32; 4];
            bk.gemm_a_bt(2, 3, 2, &a, &[2.0, -1.0, 0.125, 0.5, 4.0, -2.0], &mut c);
        }
    }

    #[test]
    fn cached_weight_operand_matches_per_call_preparation() {
        // The prepared×prepared entry points fed from an OperandCache must
        // reproduce the per-call gemm_*_op results under every backend, in
        // both the A·Bᵀ (forward) and A·B (backward-dX) positions.
        let w = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.25, 4.0, -0.125], &[2, 3]);
        let x = [1.0f32, -2.0, 0.5, 8.0, 0.25, -1.0]; // [2, 3]
        for bk in backends() {
            let mut cache = OperandCache::new();
            let mut want = vec![0.0f32; 4];
            bk.gemm_a_bt_op(2, 3, 2, Operand::F32(&x), w.operand(), &mut want);
            for _ in 0..2 {
                let xp = bk.prepare_operand(Operand::F32(&x));
                let wp = bk.prepare_tensor_cached(&w, &mut cache);
                let mut c = vec![0.0f32; 4];
                xp.gemm_a_bt_prepared(2, 3, 2, &wp, &mut c);
                assert_eq!(c, want, "{} a_bt", bk.name());
            }
            // Caches engage for everything but the free-borrow f32 case.
            assert_eq!(cache.is_cached(), bk != Backend::F32);

            let w_t = w.transpose2(); // [3, 2] so W is the B of a plain gemm
            let mut cache_t = OperandCache::new();
            let mut want = vec![0.0f32; 4];
            bk.gemm_op(2, 3, 2, Operand::F32(&x), w_t.operand(), &mut want);
            let xp = bk.prepare_operand(Operand::F32(&x));
            let wp = bk.prepare_tensor_cached(&w_t, &mut cache_t);
            let mut c = vec![0.0f32; 4];
            xp.gemm_prepared(2, 3, 2, &wp, &mut c);
            assert_eq!(c, want, "{} plain", bk.name());
        }
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
            let xp = bk.prepare_operand(Operand::F32(&x));
            let wp = bk.prepare_tensor_cached(w, cache);
            let mut c = vec![0.0f32; 4];
            xp.gemm_prepared(2, 2, 2, &wp, &mut c);
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
        let pa = Backend::F32.prepare_operand(Operand::F32(&a));
        let pb = qui.prepare_operand(Operand::F32(&b));
        let mut c = vec![0.0f32; 1];
        pa.gemm_prepared(1, 2, 1, &pb, &mut c);
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
        emu.gemm(1, 3, 1, &a, &b, &mut ce);
        let mut cq = vec![0.0f32; 1];
        qui.gemm(1, 3, 1, &a, &b, &mut cq);
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
        qui.gemm_op(1, 1, 1, packed.operand(), one.operand(), &mut c);
        assert_eq!(c, vec![1.0625], "packed plane keeps the shifted value");
        // f32 path: the operand re-rounds to the nearest (8,1) posit
        // (0.0625 or 0.078125 — the tail is gone either way).
        let mut c = vec![0.0f32; 1];
        qui.gemm_op(1, 1, 1, t.operand(), one.operand(), &mut c);
        assert_ne!(c, vec![1.0625], "f32 staging re-rounds the operand");
    }
}
