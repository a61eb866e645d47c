//! The contiguous row-major tensor with dual-domain storage.

use crate::rng::Prng;
use crate::storage::{PackedBits, Storage, StorageDomain, StorageError};
use posit::{PositFormat, Rounding};
use std::borrow::Cow;
use std::fmt;

/// A dense, contiguous, row-major tensor.
///
/// Storage lives in one of two domains (see [`Storage`]): a plain `f32`
/// buffer, or a packed posit plane (code words + format + Eq. 2 scale
/// exponent). Most ops require the f32 domain; [`Tensor::to_posit`] and
/// [`Tensor::to_f32`] are the explicit transitions, and GEMM-shaped ops
/// accept either domain through [`crate::Operand`].
///
/// ```
/// use posit_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
/// // [[1,2],[3,4]] · [[5,6],[7,8]] = [[19,22],[43,50]]
/// assert_eq!(a.matmul(&b).data(), &[19.0, 22.0, 43.0, 50.0]);
/// ```
///
/// Packing to posit cuts the footprint by the word-size ratio:
///
/// ```
/// use posit::{PositFormat, Rounding};
/// use posit_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![0.5; 64], &[64]);
/// let p = t.to_posit(PositFormat::of(8, 1), 0, Rounding::NearestEven);
/// assert_eq!(t.nbytes(), 256); // 4 bytes/elem
/// assert_eq!(p.nbytes(), 64); // 1 byte/elem
/// assert_eq!(p.to_f32().data(), t.data()); // 0.5 is exact in (8,1)
/// ```
#[derive(Clone)]
pub struct Tensor {
    storage: Storage,
    shape: Vec<usize>,
    /// Content stamp (see [`Tensor::version`]).
    version: u64,
}

/// Process-unique content stamps: every constructed tensor and every
/// mutable-buffer borrow gets a fresh one, so two tensors only ever share a
/// stamp through `clone()` — when their contents are identical.
fn next_version() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Tensor) -> bool {
        // The version stamp is bookkeeping, not content.
        self.storage == other.storage && self.shape == other.shape
    }
}

impl Tensor {
    fn with_storage(storage: Storage, shape: Vec<usize>) -> Tensor {
        Tensor {
            storage,
            shape,
            version: next_version(),
        }
    }

    /// All zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Tensor {
        Tensor::with_storage(
            Storage::F32(vec![0.0; shape.iter().product()]),
            shape.to_vec(),
        )
    }

    /// All ones with the given shape.
    pub fn ones(shape: &[usize]) -> Tensor {
        Tensor::full(shape, 1.0)
    }

    /// Constant fill.
    pub fn full(shape: &[usize], value: f32) -> Tensor {
        Tensor::with_storage(
            Storage::F32(vec![value; shape.iter().product()]),
            shape.to_vec(),
        )
    }

    /// Identity matrix of side `n`.
    pub fn eye(n: usize) -> Tensor {
        let mut t = Tensor::zeros(&[n, n]);
        t.data_mut()[..]
            .chunks_mut(n)
            .enumerate()
            .for_each(|(i, row)| row[i] = 1.0);
        t
    }

    /// Wrap an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Tensor {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "buffer length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor::with_storage(Storage::F32(data), shape.to_vec())
    }

    /// Wrap packed posit code words (the posit-domain twin of
    /// [`Tensor::from_vec`]).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` differs from the shape's element count, if
    /// the buffer width does not match the format's word width (a `u8`
    /// plane holding `(16,x)` codes would silently decode garbage), or if
    /// `scale_exp` is outside the sane Eq. 2 band (`|e| ≤ 2^20` — far
    /// beyond any calibrated scale, and small enough that quire-margin
    /// arithmetic cannot overflow).
    pub fn from_posit_bits(
        bits: PackedBits,
        format: PositFormat,
        scale_exp: i32,
        shape: &[usize],
    ) -> Tensor {
        assert_eq!(
            bits.len(),
            shape.iter().product::<usize>(),
            "bit-plane length {} does not match shape {:?}",
            bits.len(),
            shape
        );
        let width = match &bits {
            PackedBits::U8(_) => 1,
            PackedBits::U16(_) => 2,
            PackedBits::U32(_) => 4,
        };
        assert_eq!(
            width,
            PackedBits::bytes_per_elem(format),
            "packed width {width} B does not fit {format}"
        );
        assert!(
            scale_exp.unsigned_abs() <= 1 << 20,
            "implausible scale exponent {scale_exp}"
        );
        Tensor::with_storage(
            Storage::Posit {
                bits,
                format,
                scale_exp,
            },
            shape.to_vec(),
        )
    }

    /// Uniform random values in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Prng) -> Tensor {
        let n = shape.iter().product();
        let data = (0..n).map(|_| rng.uniform(lo, hi)).collect();
        Tensor::from_vec(data, shape)
    }

    /// Gaussian random values with the given mean and standard deviation.
    pub fn rand_normal(shape: &[usize], mean: f32, std: f32, rng: &mut Prng) -> Tensor {
        let n = shape.iter().product();
        let data = (0..n).map(|_| rng.normal(mean, std)).collect();
        Tensor::from_vec(data, shape)
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.storage.len()
    }

    /// True iff no elements.
    pub fn is_empty(&self) -> bool {
        self.storage.is_empty()
    }

    /// The underlying storage (domain, format, packed bits).
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Which domain the tensor's storage lives in.
    pub fn domain(&self) -> StorageDomain {
        self.storage.domain()
    }

    /// True iff the storage is a packed posit plane.
    pub fn is_posit(&self) -> bool {
        self.domain() == StorageDomain::Posit
    }

    /// Storage footprint in bytes (4·len for f32; width·len for posit).
    pub fn nbytes(&self) -> usize {
        self.storage.nbytes()
    }

    /// The packed plane `(bits, format, scale_exp)` of a posit-domain
    /// tensor, or `None` in the f32 domain.
    pub fn posit_bits(&self) -> Option<(&PackedBits, PositFormat, i32)> {
        match &self.storage {
            Storage::F32(_) => None,
            Storage::Posit {
                bits,
                format,
                scale_exp,
            } => Some((bits, *format, *scale_exp)),
        }
    }

    /// Immutable view of the underlying f32 buffer.
    ///
    /// # Panics
    ///
    /// Panics on a posit-domain tensor: packed bits have no f32 view. Use
    /// [`Tensor::to_f32`] (or [`Tensor::dense`]) to cross the domain
    /// boundary explicitly, or [`Tensor::posit_bits`] for the code words.
    pub fn data(&self) -> &[f32] {
        match self.try_data() {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Non-panicking variant of [`Tensor::data`]: `Ok` with the f32 slice
    /// in the f32 domain, `Err(StorageError::NotF32)` for a packed posit
    /// plane. Use this at boundaries where the tensor's domain is caller
    /// input rather than an internal invariant — e.g. a sample submitted
    /// to the inference server — so the mismatch surfaces as a recoverable
    /// error instead of a panic.
    pub fn try_data(&self) -> Result<&[f32], StorageError> {
        match &self.storage {
            Storage::F32(v) => Ok(v),
            Storage::Posit { format, .. } => Err(StorageError::NotF32 { format: *format }),
        }
    }

    /// Content stamp of this tensor's buffer: a process-unique value
    /// assigned at construction and refreshed on every [`Tensor::data_mut`]
    /// borrow, so an unchanged stamp guarantees unchanged contents. Clones
    /// share their source's stamp (their contents are identical) until
    /// either side is mutably borrowed. This is what lets derived artifacts
    /// — e.g. the decoded weight planes in [`crate::OperandCache`] — be
    /// reused across calls and invalidated automatically when the optimizer
    /// writes new weights.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Mutable view of the underlying f32 buffer. Refreshes the content
    /// stamp (see [`Tensor::version`]): the borrow may write.
    ///
    /// # Panics
    ///
    /// Panics on a posit-domain tensor (see [`Tensor::data`]).
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.version = next_version();
        match &mut self.storage {
            Storage::F32(v) => v,
            Storage::Posit { format, .. } => {
                panic!("mutable f32 view of a posit-domain tensor ({format}): call to_f32() first")
            }
        }
    }

    /// Take ownership of the f32 buffer.
    ///
    /// # Panics
    ///
    /// Panics on a posit-domain tensor (see [`Tensor::data`]).
    pub fn into_vec(self) -> Vec<f32> {
        match self.storage {
            Storage::F32(v) => v,
            Storage::Posit { format, .. } => {
                panic!("into_vec on a posit-domain tensor ({format}): call into_f32() first")
            }
        }
    }

    /// Encode into the posit domain: `bits[i] = P(x[i] / 2^scale_exp)`,
    /// packed at the format's word width (Eq. 3 with `Sf = 2^scale_exp`).
    ///
    /// A posit-domain source is decoded first (re-encoding crosses through
    /// f32 values, which are exact for every supported format).
    ///
    /// # Panics
    ///
    /// Panics for [`Rounding::Stochastic`], which needs a caller-owned
    /// random stream; use [`Tensor::to_posit_with`].
    pub fn to_posit(&self, format: PositFormat, scale_exp: i32, rounding: Rounding) -> Tensor {
        assert!(
            rounding != Rounding::Stochastic,
            "stochastic encoding needs a random stream; use to_posit_with"
        );
        let mut state = 0u64;
        self.to_posit_with(format, scale_exp, rounding, &mut state)
    }

    /// [`Tensor::to_posit`] with an explicit stochastic-rounding stream.
    ///
    /// `rand_state` is advanced once per element with the same generator as
    /// the Eq. 3 in-place quantizer, so a packed encode and an f32-domain
    /// `P(·)` round trip consume identical randomness and land on identical
    /// code words. Deterministic modes ignore (and do not advance) it.
    pub fn to_posit_with(
        &self,
        format: PositFormat,
        scale_exp: i32,
        rounding: Rounding,
        rand_state: &mut u64,
    ) -> Tensor {
        let dense = self.dense();
        let xs = dense.data();
        let inv = (-scale_exp as f32).exp2();
        let mut bits = PackedBits::for_format(format, xs.len());
        let mut edge = posit_obs::EdgeRecorder::start(format.maxpos(), format.nar_bits());
        for &x in xs {
            let scaled = x * inv;
            let code = match rounding {
                Rounding::Stochastic => {
                    format.from_f64_stochastic(scaled as f64, posit::quant::sr_next(rand_state))
                }
                mode => format.from_f32(scaled, mode),
            };
            if let Some(e) = edge.as_mut() {
                e.note(scaled as f64, code);
            }
            bits.push(code);
        }
        if let Some(e) = edge {
            e.finish();
        }
        Tensor::with_storage(
            Storage::Posit {
                bits,
                format,
                scale_exp,
            },
            self.shape.clone(),
        )
    }

    /// Decode into the f32 domain: `x[i] = posit(bits[i]) · 2^scale_exp`
    /// (exact — every supported posit value and scale shift is
    /// representable in f32 up to the format's range). An f32-domain tensor
    /// is cloned unchanged.
    pub fn to_f32(&self) -> Tensor {
        match &self.storage {
            Storage::F32(_) => self.clone(),
            Storage::Posit {
                bits,
                format,
                scale_exp,
            } => {
                let sf = (*scale_exp as f32).exp2();
                let data = bits.iter().map(|b| format.to_f32(b) * sf).collect();
                Tensor::with_storage(Storage::F32(data), self.shape.clone())
            }
        }
    }

    /// Consuming [`Tensor::to_f32`]: a no-op move in the f32 domain.
    pub fn into_f32(self) -> Tensor {
        if self.is_posit() {
            self.to_f32()
        } else {
            self
        }
    }

    /// A borrowed f32-domain view: the tensor itself when already dense, a
    /// decoded copy when posit-packed. The cheap way for f32-only consumers
    /// to accept either domain.
    pub fn dense(&self) -> Cow<'_, Tensor> {
        if self.is_posit() {
            Cow::Owned(self.to_f32())
        } else {
            Cow::Borrowed(self)
        }
    }

    /// Reinterpret with a new shape of identical element count. Works in
    /// both storage domains (the buffer is untouched).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Tensor {
        assert_eq!(
            self.len(),
            shape.iter().product::<usize>(),
            "cannot reshape {:?} to {:?}",
            self.shape,
            shape
        );
        self.shape = shape.to_vec();
        self
    }

    /// Rows `[start, end)` along the leading dimension as a new tensor.
    ///
    /// Works in both storage domains and — crucially for bit-exact batch
    /// sharding — a posit-domain slice copies the packed code words
    /// verbatim and keeps the plane's format and scale exponent, so a
    /// shard of an encoded batch holds exactly the code words the full
    /// batch holds at those rows. (Decoding to f32 and re-encoding would
    /// not be safe: the decoded value times `2^scale_exp` need not be
    /// representable on the unshifted grid.)
    ///
    /// # Panics
    ///
    /// Panics on a 0-d tensor or an out-of-range/inverted row range.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        assert!(!self.shape.is_empty(), "slice_rows on a 0-d tensor");
        assert!(
            start <= end && end <= self.shape[0],
            "row range {start}..{end} out of bounds for leading dim {}",
            self.shape[0]
        );
        let row: usize = self.shape[1..].iter().product();
        let mut shape = self.shape.clone();
        shape[0] = end - start;
        let storage = match &self.storage {
            Storage::F32(v) => Storage::F32(v[start * row..end * row].to_vec()),
            Storage::Posit {
                bits,
                format,
                scale_exp,
            } => Storage::Posit {
                bits: bits.slice(start * row, end * row),
                format: *format,
                scale_exp: *scale_exp,
            },
        };
        Tensor::with_storage(storage, shape)
    }

    /// Element at a 2-D position (row-major).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D, posit-domain, or out of bounds.
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        assert_eq!(self.shape.len(), 2, "at2 on non-matrix");
        self.data()[i * self.shape[1] + j]
    }

    /// Elementwise map into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics on a posit-domain tensor (see [`Tensor::data`]).
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::with_storage(
            Storage::F32(self.data().iter().map(|&x| f(x)).collect()),
            self.shape.clone(),
        )
    }

    /// Elementwise map in place.
    ///
    /// # Panics
    ///
    /// Panics on a posit-domain tensor (see [`Tensor::data`]).
    pub fn apply(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data_mut() {
            *x = f(*x);
        }
    }

    /// Elementwise binary zip into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or posit-domain operands.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip shape mismatch");
        Tensor::with_storage(
            Storage::F32(
                self.data()
                    .iter()
                    .zip(other.data())
                    .map(|(&a, &b)| f(a, b))
                    .collect(),
            ),
            self.shape.clone(),
        )
    }

    /// `self + other` elementwise.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// `self - other` elementwise.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// `self * other` elementwise (Hadamard).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// `self + alpha * other`, in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or posit-domain operands.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        let other = other.data();
        for (a, &b) in self.data_mut().iter_mut().zip(other) {
            *a += alpha * b;
        }
    }

    /// Scale by a scalar, in place.
    ///
    /// # Panics
    ///
    /// Panics on a posit-domain tensor (see [`Tensor::data`]).
    pub fn scale(&mut self, alpha: f32) {
        for a in self.data_mut() {
            *a *= alpha;
        }
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f64 {
        self.dense().data().iter().map(|&x| x as f64).sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f64
        }
    }

    /// Maximum absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.dense()
            .data()
            .iter()
            .fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// 2-D matrix transpose.
    ///
    /// # Panics
    ///
    /// Panics if not 2-D or posit-domain.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose2 on non-matrix");
        let (m, n) = (self.shape[0], self.shape[1]);
        let src = self.data();
        let mut out = Tensor::zeros(&[n, m]);
        {
            let dst = out.data_mut();
            for i in 0..m {
                for j in 0..n {
                    dst[j * m + i] = src[i * n + j];
                }
            }
        }
        out
    }

    /// Matrix product `self[M,K] × other[K,N]` through
    /// [`crate::Backend::gemm`], with the backend chosen by storage domain:
    /// two packed planes of the same posit format run on
    /// [`crate::Backend::PositQuire`] (exact accumulation, one rounding per
    /// output element, nearest-even); any other combination runs on
    /// [`crate::Backend::F32`] after decoding posit operands. The result is
    /// always f32-domain.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with compatible inner dims.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs not 2-D");
        assert_eq!(other.shape.len(), 2, "matmul rhs not 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
        let backend = match (self.posit_bits(), other.posit_bits()) {
            (Some((_, af, _)), Some((_, bf, _))) if af == bf => crate::Backend::PositQuire {
                fmt: af,
                rounding: Rounding::NearestEven,
            },
            _ => crate::Backend::F32,
        };
        let mut out = Tensor::zeros(&[m, n]);
        backend.gemm(
            crate::Transpose::None,
            m,
            k,
            n,
            self.operand(),
            other.operand(),
            out.data_mut(),
        );
        out
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if let Some((_, format, scale_exp)) = self.posit_bits() {
            return write!(
                f,
                " packed {format} scale 2^{scale_exp} ({} B, n={})",
                self.nbytes(),
                self.len()
            );
        }
        let data = self.data();
        if data.len() <= 16 {
            write!(f, " {:?}", data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, …, {:.4}] (n={})",
                data[0],
                data[1],
                data[data.len() - 1],
                data.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_data_reports_the_domain_instead_of_panicking() {
        let t = Tensor::from_vec(vec![0.5, -0.25], &[2]);
        assert_eq!(t.try_data().unwrap(), &[0.5, -0.25]);
        let fmt = PositFormat::of(8, 1);
        let p = t.to_posit(fmt, 0, Rounding::NearestEven);
        let err = p.try_data().unwrap_err();
        assert_eq!(err, StorageError::NotF32 { format: fmt });
        // The error text matches data()'s panic message, format included.
        assert!(err.to_string().contains("posit-domain"));
        assert!(err.to_string().contains(&fmt.to_string()));
    }

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert!(!t.is_empty());
        let u = Tensor::full(&[2], 3.5);
        assert_eq!(u.data(), &[3.5, 3.5]);
        assert_eq!(Tensor::eye(2).data(), &[1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_validates() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        assert_eq!(a.add(&b).data(), &[11.0, 22.0]);
        assert_eq!(b.sub(&a).data(), &[9.0, 18.0]);
        assert_eq!(a.mul(&b).data(), &[10.0, 40.0]);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.data(), &[21.0, 42.0]);
        c.scale(0.5);
        assert_eq!(c.data(), &[10.5, 21.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, -4.0, 3.0], &[3]);
        assert_eq!(a.sum(), 0.0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let t = a.transpose2();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(t.transpose2(), a);
    }

    #[test]
    fn slice_rows_both_domains() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[4, 2, 3]);
        let s = t.slice_rows(1, 3);
        assert_eq!(s.shape(), &[2, 2, 3]);
        assert_eq!(s.data(), &t.data()[6..18]);
        assert_eq!(t.slice_rows(2, 2).len(), 0, "empty slice is fine");
        // Packed slices keep the exact code words, format and scale.
        let fmt = PositFormat::of(8, 1);
        let vals: Vec<f32> = (0..12).map(|i| i as f32 * 0.37 - 2.0).collect();
        let p = Tensor::from_vec(vals, &[4, 3]).to_posit(fmt, -2, Rounding::NearestEven);
        let ps = p.slice_rows(1, 3);
        assert_eq!(ps.shape(), &[2, 3]);
        let (full, f, e) = p.posit_bits().unwrap();
        let (part, pf, pe) = ps.posit_bits().unwrap();
        assert_eq!((pf, pe), (f, e), "format and scale_exp survive the slice");
        for i in 0..6 {
            assert_eq!(part.get(i), full.get(3 + i), "code words copied verbatim");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_rows_validates_range() {
        let _ = Tensor::zeros(&[2, 2]).slice_rows(1, 3);
    }

    #[test]
    fn rng_determinism() {
        let mut r1 = Prng::seed(42);
        let mut r2 = Prng::seed(42);
        let a = Tensor::rand_normal(&[32], 0.0, 1.0, &mut r1);
        let b = Tensor::rand_normal(&[32], 0.0, 1.0, &mut r2);
        assert_eq!(a, b);
        let c = Tensor::rand_uniform(&[8], -1.0, 1.0, &mut r1);
        assert!(c.data().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn version_tracks_content_changes() {
        let mut t = Tensor::zeros(&[4]);
        let v0 = t.version();
        let c = t.clone();
        assert_eq!(c.version(), v0, "clone shares the stamp (same contents)");
        t.data_mut()[0] = 1.0;
        assert_ne!(t.version(), v0, "mutable borrow refreshes the stamp");
        assert_eq!(c.version(), v0, "clone keeps its own stamp");
        let u = Tensor::zeros(&[4]);
        assert_ne!(u.version(), c.version(), "fresh tensors are unique");
        assert_eq!(u, Tensor::zeros(&[4]), "stamp is not part of equality");
    }

    #[test]
    fn debug_is_never_empty() {
        assert!(!format!("{:?}", Tensor::zeros(&[0])).is_empty());
        assert!(!format!("{:?}", Tensor::zeros(&[100])).is_empty());
        let p = Tensor::zeros(&[4]).to_posit(PositFormat::of(8, 1), 0, Rounding::ToZero);
        let s = format!("{p:?}");
        assert!(s.contains("packed"), "{s}");
    }

    #[test]
    fn posit_roundtrip_exact_values() {
        let fmt = PositFormat::of(8, 1);
        let t = Tensor::from_vec(vec![1.0, -0.5, 2.0, 0.0], &[2, 2]);
        let p = t.to_posit(fmt, 0, Rounding::NearestEven);
        assert!(p.is_posit());
        assert_eq!(p.domain(), StorageDomain::Posit);
        assert_eq!(p.shape(), &[2, 2]);
        assert_eq!(p.len(), 4);
        assert_eq!(p.nbytes(), 4);
        assert_eq!(p.to_f32(), t);
        assert_eq!(p.clone().into_f32(), t);
        assert_eq!(p.dense().data(), t.data());
        // f32 tensors pass through dense()/into_f32 untouched.
        assert!(matches!(t.dense(), Cow::Borrowed(_)));
        let (bits, f, e) = p.posit_bits().unwrap();
        assert_eq!(f, fmt);
        assert_eq!(e, 0);
        assert_eq!(bits.get(0), fmt.one_bits());
    }

    #[test]
    fn scale_exp_shifts_the_grid() {
        // 96 is off the (8,1) grid near its magnitude (step 8 at scale 6),
        // representable exactly once shifted down by 2^4.
        let fmt = PositFormat::of(8, 1);
        let t = Tensor::from_vec(vec![96.0], &[1]);
        let plain = t.to_posit(fmt, 0, Rounding::NearestEven);
        let shifted = t.to_posit(fmt, 4, Rounding::NearestEven);
        assert_eq!(shifted.to_f32().data(), &[96.0], "6·2^4 exact when shifted");
        assert_eq!(plain.to_f32().data(), &[96.0], "96 = 1.5·64 is (8,1) exact");
        // A value needing the shift: 2^-25 is far below (8,1)'s minpos
        // (2^-12) and flushes at scale 0 (ToZero), but survives once the
        // grid is shifted down by 2^-13 (2^-25/2^-13 = minpos = 2^-12).
        let tiny = Tensor::from_vec(vec![(-25f32).exp2()], &[1]);
        assert_eq!(
            tiny.to_posit(fmt, 0, Rounding::ToZero).to_f32().data(),
            &[0.0]
        );
        assert_eq!(
            tiny.to_posit(fmt, -13, Rounding::ToZero).to_f32().data(),
            &[(-25f32).exp2()]
        );
    }

    #[test]
    fn nar_propagates_through_the_roundtrip() {
        let fmt = PositFormat::of(8, 0);
        let t = Tensor::from_vec(vec![f32::NAN, 1.0], &[2]);
        let p = t.to_posit(fmt, 0, Rounding::NearestEven);
        let (bits, ..) = p.posit_bits().unwrap();
        assert_eq!(bits.get(0), fmt.nar_bits());
        let back = p.to_f32();
        assert!(back.data()[0].is_nan());
        assert_eq!(back.data()[1], 1.0);
    }

    #[test]
    fn reshape_keeps_the_posit_plane() {
        let fmt = PositFormat::of(8, 1);
        let p = Tensor::from_vec(vec![1.0; 6], &[2, 3]).to_posit(fmt, 0, Rounding::ToZero);
        let r = p.reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert!(r.is_posit());
    }

    #[test]
    #[should_panic(expected = "posit-domain")]
    fn data_panics_on_posit_domain() {
        let p = Tensor::ones(&[2]).to_posit(PositFormat::of(8, 1), 0, Rounding::ToZero);
        let _ = p.data();
    }

    #[test]
    fn matmul_dispatches_on_packed_planes() {
        // Exact power-of-two data: the packed quire product must equal the
        // f32 product bit-for-bit.
        let fmt = PositFormat::of(16, 1);
        let a = Tensor::from_vec(vec![1.0, 2.0, -0.5, 4.0, 0.25, -8.0], &[2, 3]);
        let b = Tensor::from_vec(vec![2.0, 0.5, -1.0, 4.0, 0.125, -2.0], &[3, 2]);
        let want = a.matmul(&b);
        let pa = a.to_posit(fmt, 0, Rounding::NearestEven);
        let pb = b.to_posit(fmt, 0, Rounding::NearestEven);
        assert_eq!(pa.matmul(&pb), want, "posit × posit");
        assert_eq!(pa.matmul(&b), want, "mixed decodes");
        assert_eq!(a.matmul(&pb), want, "mixed decodes (rhs)");
        // Scale exponents are honoured: operands carry 2^2 and 2^-1.
        let pa2 = a.to_posit(fmt, 2, Rounding::NearestEven);
        let pb2 = b.to_posit(fmt, -1, Rounding::NearestEven);
        assert_eq!(pa2.matmul(&pb2), want, "scale-shifted planes");
    }

    #[test]
    fn stochastic_encode_stream_is_reproducible() {
        let fmt = PositFormat::of(8, 2);
        let t = Tensor::from_vec((0..64).map(|i| i as f32 * 0.037 - 1.0).collect(), &[64]);
        let mut s1 = 99u64;
        let mut s2 = 99u64;
        let a = t.to_posit_with(fmt, 0, Rounding::Stochastic, &mut s1);
        let b = t.to_posit_with(fmt, 0, Rounding::Stochastic, &mut s2);
        assert_eq!(a, b);
        assert_eq!(s1, s2);
        assert_ne!(s1, 99, "stream must advance");
    }
}
