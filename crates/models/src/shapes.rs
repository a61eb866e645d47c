//! Canonical GEMM shapes of the model zoo, for benchmarking kernels at the
//! problem sizes the layers actually run.
//!
//! Convolutions are reported as their per-sample im2col GEMM
//! `[O, C·KH·KW] × [C·KH·KW, OH·OW]`; fully-connected layers as the batched
//! `[N, in] × [in, out]` forward product. The `bench` crate pits the
//! compute backends against each other at exactly these shapes. The quire
//! backend now runs each convolution batch-wide (one
//! `[O, C·KH·KW] × [C·KH·KW, N·OH·OW]` GEMM per direction, see
//! `posit_tensor::conv`); the per-sample conv shapes stay as they are so
//! the bench rows remain comparable across revisions.

/// One GEMM problem `C[m,n] = A[m,k] · B[k,n]` with a human-readable label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GemmShape {
    /// Layer name the shape comes from (e.g. `"lenet.conv1"`).
    pub label: String,
    /// Output rows.
    pub m: usize,
    /// Reduction length.
    pub k: usize,
    /// Output columns.
    pub n: usize,
}

impl GemmShape {
    fn new(label: impl Into<String>, m: usize, k: usize, n: usize) -> GemmShape {
        GemmShape {
            label: label.into(),
            m,
            k,
            n,
        }
    }

    /// Multiply-accumulate count of the problem.
    pub fn macs(&self) -> usize {
        self.m * self.k * self.n
    }
}

/// The forward GEMMs of [`crate::lenet`] on `1×side×side` inputs with the
/// given batch size (conv layers per sample, FC layers per batch). The
/// quire backend runs the convs batch-wide, as `N` of these per-sample
/// shapes side by side in one GEMM.
///
/// # Panics
///
/// Panics if `side` is too small for the LeNet topology (`side >= 16`).
pub fn lenet_gemm_shapes(side: usize, batch: usize, num_classes: usize) -> Vec<GemmShape> {
    // Checked up front: the subtractions below would wrap for tiny sides
    // in release builds before the final sanity assert could fire.
    assert!(side >= 16, "input side {side} too small for LeNet");
    let s1 = side - 4; // conv1 output side (5×5 valid)
    let s2 = s1 / 2; // pool1
    let s3 = s2 - 4; // conv2
    let s4 = s3 / 2; // pool2
    assert!(s4 >= 1, "input side {side} too small for LeNet");
    vec![
        GemmShape::new("lenet.conv1", 6, 25, s1 * s1),
        GemmShape::new("lenet.conv2", 16, 6 * 25, s3 * s3),
        GemmShape::new("lenet.fc1", batch, 16 * s4 * s4, 120),
        GemmShape::new("lenet.fc2", batch, 120, num_classes),
    ]
}

/// The forward GEMMs of [`crate::mlp`] with the given layer sizes and
/// batch size.
///
/// # Panics
///
/// Panics if fewer than two sizes are given.
pub fn mlp_gemm_shapes(batch: usize, sizes: &[usize]) -> Vec<GemmShape> {
    assert!(sizes.len() >= 2, "an MLP needs at least two sizes");
    sizes
        .windows(2)
        .enumerate()
        .map(|(i, pair)| GemmShape::new(format!("mlp.fc{}", i + 1), batch, pair[0], pair[1]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lenet_shapes_match_the_28x28_topology() {
        let shapes = lenet_gemm_shapes(28, 32, 10);
        assert_eq!(shapes.len(), 4);
        assert_eq!((shapes[0].m, shapes[0].k, shapes[0].n), (6, 25, 576));
        assert_eq!((shapes[1].m, shapes[1].k, shapes[1].n), (16, 150, 64));
        assert_eq!((shapes[2].m, shapes[2].k, shapes[2].n), (32, 256, 120));
        assert_eq!((shapes[3].m, shapes[3].k, shapes[3].n), (32, 120, 10));
        assert_eq!(shapes[0].macs(), 6 * 25 * 576);
        assert_eq!(shapes[0].label, "lenet.conv1");
    }

    #[test]
    fn mlp_shapes_follow_the_size_list() {
        let shapes = mlp_gemm_shapes(64, &[784, 256, 10]);
        assert_eq!(shapes.len(), 2);
        assert_eq!((shapes[0].m, shapes[0].k, shapes[0].n), (64, 784, 256));
        assert_eq!((shapes[1].m, shapes[1].k, shapes[1].n), (64, 256, 10));
    }
}
