//! Blocked, thread-parallel single-precision matrix multiplication.
//!
//! `C[M,N] += A[M,K] * B[K,N]`, row-major. The kernel iterates `i-k-j` with
//! a register accumulator broadcast of `A[i,k]`, which vectorizes well and
//! keeps the `j` loop streaming over contiguous `B`/`C` rows. Rows of `C`
//! are split statically across threads, so results are bit-deterministic
//! regardless of thread count.

use crate::workers;
use std::sync::Mutex;

/// Which GEMM operand is stored transposed. Every GEMM computes
/// `C[m,n] += A[m,k]·B[k,n]`; the tag says how the operands are laid out:
///
/// * `None` — `A` stored `[m, k]`, `B` stored `[k, n]` (the forward
///   `A·W` shape);
/// * `A` — `A` stored `[k, m]` (the `Eᵀ·A` weight-gradient shape);
/// * `B` — `B` stored `[n, k]` (a weight stored `[out, in]` on the
///   right-hand side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transpose {
    /// Neither operand is transposed.
    None,
    /// `A` is stored transposed, as `[k, m]`.
    A,
    /// `B` is stored transposed, as `[n, k]`.
    B,
}

/// A take-once slot handing a parallel task its disjoint output block.
type BlockSlot<'a, T> = Mutex<Option<(usize, &'a mut [T])>>;

/// Minimum per-thread row count before work is dispatched to the pool
/// (small problems run single-threaded to avoid dispatch overhead).
const PAR_MIN_ROWS: usize = 32;

/// Minimum multiply-accumulate count before threading pays for itself.
const PAR_MIN_WORK: usize = 1 << 20;

/// Minimum multiply-accumulate count per dispatched lane when the row
/// split is thin. A problem can clear both gates above yet shatter into
/// row blocks so small that each lane finishes faster than its dispatch
/// costs: an fc1-shaped GEMM (`m = 32`, `k = 256`, `n = 128`) passes the
/// total-work gate exactly, but on a 4-thread budget it splits into two
/// 16-row lanes of `2^19` MACs each — slower than running serially. When
/// the blocks are thinner than [`PAR_MIN_ROWS`], each lane must still
/// carry this much work or the problem stays on the caller's thread.
const PAR_MIN_LANE_WORK: usize = 1 << 20;

/// The number of row-block lanes `par_rows` will dispatch for an
/// `[m, _]` output whose kernel performs `work` total multiply-accumulates
/// under the current thread budget; `1` means the serial fast path.
///
/// Public so tests can pin the dispatch decision for a given shape without
/// timing anything (see `tests/worker_pool.rs`).
pub fn planned_lanes(m: usize, work: usize) -> usize {
    let threads = workers::effective_parallelism();
    if m < PAR_MIN_ROWS || work < PAR_MIN_WORK || threads <= 1 {
        return 1;
    }
    let rows_per = m.div_ceil(threads).max(PAR_MIN_ROWS / 2);
    let blocks = m.div_ceil(rows_per);
    if rows_per < PAR_MIN_ROWS && work / blocks < PAR_MIN_LANE_WORK {
        return 1;
    }
    blocks
}

/// Split the `[m, n]` output buffer `c` into contiguous row blocks and run
/// `body(first_row, block)` on each, dispatching the blocks to the
/// persistent worker pool ([`crate::workers`]) when the problem is big
/// enough (`work` is the total multiply-accumulate count).
///
/// The split is static — the same `(m, n)` always yields the same blocks,
/// each block's output is computed entirely by whichever lane runs it —
/// so any kernel whose per-element reduction order is fixed stays
/// bit-deterministic regardless of thread count or lane assignment. Shared
/// by the f32 kernels here and the posit kernels in [`crate::posit_gemm`].
pub(crate) fn par_rows<F>(m: usize, n: usize, work: usize, c: &mut [f32], body: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    debug_assert_eq!(c.len(), m * n);
    let threads = workers::effective_parallelism();
    if n == 0 || planned_lanes(m, work) <= 1 {
        body(0, c);
        return;
    }
    let rows_per = m.div_ceil(threads).max(PAR_MIN_ROWS / 2);
    // The same block boundaries the scoped-thread splitter used: hand each
    // task its disjoint `&mut` chunk through a take-once slot (each index
    // is executed exactly once, so the lock is uncontended bookkeeping).
    let mut blocks: Vec<BlockSlot<'_, f32>> = Vec::new();
    let mut c_rest = c;
    let mut row0 = 0usize;
    loop {
        let rows = rows_per.min(c_rest.len() / n);
        if rows == 0 {
            break;
        }
        let (c_chunk, c_next) = c_rest.split_at_mut(rows * n);
        blocks.push(Mutex::new(Some((row0, c_chunk))));
        c_rest = c_next;
        row0 += rows;
    }
    workers::run_indexed(blocks.len(), &|t| {
        let (row0, chunk) = blocks[t]
            .lock()
            .expect("block slot poisoned")
            .take()
            .expect("block executed twice");
        body(row0, chunk);
    });
}

/// Map `f(index, item)` over `items` with the same static partitioning as
/// the GEMM row splitter (`par_rows`): contiguous index blocks on the
/// persistent worker pool, deterministic output order regardless of thread
/// count.
///
/// `min_per_thread` is the smallest block worth dispatching — fewer items
/// run serially on the caller's thread. This is the partitioner the
/// chunked store reuses for parallel chunk encode/decode, where each item
/// is an independent chunk job producing an owned result.
pub fn par_map_indexed<T, U, F>(items: &[T], min_per_thread: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = workers::effective_parallelism();
    let min_per_thread = min_per_thread.max(1);
    if items.len() <= min_per_thread || threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let per = items.len().div_ceil(threads).max(min_per_thread);
    let mut out: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    {
        let mut tasks: Vec<BlockSlot<'_, Option<U>>> = Vec::new();
        let mut out_rest: &mut [Option<U>] = &mut out;
        let mut start = 0usize;
        while !out_rest.is_empty() {
            let take = per.min(out_rest.len());
            let (block, next) = out_rest.split_at_mut(take);
            tasks.push(Mutex::new(Some((start, block))));
            out_rest = next;
            start += take;
        }
        workers::run_indexed(tasks.len(), &|t| {
            let (start, block) = tasks[t]
                .lock()
                .expect("map slot poisoned")
                .take()
                .expect("map block executed twice");
            for (off, slot) in block.iter_mut().enumerate() {
                *slot = Some(f(start + off, &items[start + off]));
            }
        });
    }
    out.into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// `c = a[m,k] * b[k,n]` (c must be zeroed or hold the accumulation base).
///
/// # Panics
///
/// Panics if the slice lengths disagree with the dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A length");
    assert_eq!(b.len(), k * n, "B length");
    assert_eq!(c.len(), m * n, "C length");
    par_rows(m, n, m * k * n, c, |row0, c_chunk| {
        let rows = c_chunk.len().checked_div(n).unwrap_or(0);
        gemm_rows(k, n, &a[row0 * k..(row0 + rows) * k], b, c_chunk);
    });
}

/// Single-threaded kernel over a row block of `A`/`C`.
fn gemm_rows(k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let rows = c.len() / n.max(1);
    for i in 0..rows {
        let c_row = &mut c[i * n..(i + 1) * n];
        let a_row = &a[i * k..(i + 1) * k];
        for (kk, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                *cj += aik * bj;
            }
        }
    }
}

/// `c = a^T[m,k] * b[k,n]` where `a` is stored as `[k, m]` (used by the
/// backward passes without materializing transposes).
///
/// Rows of `C` are partitioned across threads like [`gemm`]; the per-element
/// reduction order over `k` is ascending in every split, so results are
/// bit-deterministic.
pub fn gemm_at_b(m: usize, k: usize, n: usize, a_t: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a_t.len(), k * m, "A^T length");
    assert_eq!(b.len(), k * n, "B length");
    assert_eq!(c.len(), m * n, "C length");
    par_rows(m, n, m * k * n, c, |row0, c_chunk| {
        let rows = c_chunk.len().checked_div(n).unwrap_or(0);
        for i in 0..rows {
            let c_row = &mut c_chunk[i * n..(i + 1) * n];
            for kk in 0..k {
                let aki = a_t[kk * m + row0 + i];
                if aki == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n..(kk + 1) * n];
                for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                    *cj += aki * bj;
                }
            }
        }
    });
}

/// `c = a[m,k] * b^T[k,n]` where `b` is stored as `[n, k]`.
pub fn gemm_a_bt(m: usize, k: usize, n: usize, a: &[f32], b_t: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A length");
    assert_eq!(b_t.len(), n * k, "B^T length");
    assert_eq!(c.len(), m * n, "C length");
    par_rows(m, n, m * k * n, c, |row0, c_chunk| {
        let rows = c_chunk.len().checked_div(n).unwrap_or(0);
        for i in 0..rows {
            let a_row = &a[(row0 + i) * k..(row0 + i + 1) * k];
            for j in 0..n {
                let b_row = &b_t[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&x, &y) in a_row.iter().zip(b_row) {
                    acc += x * y;
                }
                c_chunk[i * n + j] += acc;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn rand_vec(n: usize, rng: &mut Prng) -> Vec<f32> {
        (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
    }

    #[test]
    fn matches_naive_small() {
        let mut rng = Prng::seed(1);
        for (m, k, n) in [(1, 1, 1), (2, 3, 4), (5, 5, 5), (7, 2, 9), (1, 16, 1)] {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let mut c = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut c);
            let want = naive(m, k, n, &a, &b);
            for (g, w) in c.iter().zip(&want) {
                assert!((g - w).abs() < 1e-4, "{g} vs {w}");
            }
        }
    }

    #[test]
    fn matches_naive_parallel_sizes() {
        let mut rng = Prng::seed(2);
        let (m, k, n) = (97, 33, 41); // big enough to engage threading
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let mut c = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut c);
        let want = naive(m, k, n, &a, &b);
        for (g, w) in c.iter().zip(&want) {
            assert!((g - w).abs() < 1e-3);
        }
    }

    #[test]
    fn parallel_is_deterministic() {
        let mut rng = Prng::seed(3);
        let (m, k, n) = (128, 64, 32);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut c1);
        gemm(m, k, n, &a, &b, &mut c2);
        assert_eq!(c1, c2, "same split → bitwise identical");
    }

    #[test]
    fn accumulates_into_c() {
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let b = [2.0f32, 0.0, 0.0, 2.0];
        let mut c = vec![10.0f32; 4];
        gemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, vec![12.0, 10.0, 10.0, 12.0]);
    }

    #[test]
    fn degenerate_shapes() {
        // m = 0: no output rows; every kernel must accept empty C.
        let mut c: Vec<f32> = vec![];
        gemm(0, 3, 4, &[], &[0.0; 12], &mut c);
        gemm_at_b(0, 3, 4, &[], &[0.0; 12], &mut c);
        gemm_a_bt(0, 3, 4, &[], &[0.0; 12], &mut c);
        assert!(c.is_empty());

        // k = 0: an empty reduction adds nothing; C keeps its base values.
        let mut c = vec![7.0f32; 6];
        gemm(2, 0, 3, &[], &[], &mut c);
        assert_eq!(c, vec![7.0; 6]);
        gemm_at_b(2, 0, 3, &[], &[], &mut c);
        assert_eq!(c, vec![7.0; 6]);
        gemm_a_bt(2, 0, 3, &[], &[0.0; 0], &mut c);
        assert_eq!(c, vec![7.0; 6]);

        // n = 1: single-column output exercises the row-slicing edges.
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]; // [2, 3]
        let b = [1.0f32, -1.0, 2.0]; // [3, 1]
        let mut c = vec![0.0f32; 2];
        gemm(2, 3, 1, &a, &b, &mut c);
        assert_eq!(c, vec![5.0, 11.0]);
        // a^T stored [3, 2]
        let a_t = [1.0f32, 4.0, 2.0, 5.0, 3.0, 6.0];
        let mut c = vec![0.0f32; 2];
        gemm_at_b(2, 3, 1, &a_t, &b, &mut c);
        assert_eq!(c, vec![5.0, 11.0]);
        // b^T stored [1, 3]
        let b_t = [1.0f32, -1.0, 2.0];
        let mut c = vec![0.0f32; 2];
        gemm_a_bt(2, 3, 1, &a, &b_t, &mut c);
        assert_eq!(c, vec![5.0, 11.0]);
    }

    #[test]
    fn transposed_parallel_sizes_match_naive() {
        // Big enough to engage the row partitioner in the transposed kernels.
        let mut rng = Prng::seed(5);
        let (m, k, n) = (96, 40, 48);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let want = naive(m, k, n, &a, &b);
        let mut a_t = vec![0.0; k * m];
        for i in 0..m {
            for kk in 0..k {
                a_t[kk * m + i] = a[i * k + kk];
            }
        }
        let mut c = vec![0.0; m * n];
        gemm_at_b(m, k, n, &a_t, &b, &mut c);
        for (g, w) in c.iter().zip(&want) {
            assert!((g - w).abs() < 1e-3);
        }
        let mut b_t = vec![0.0; n * k];
        for kk in 0..k {
            for j in 0..n {
                b_t[j * k + kk] = b[kk * n + j];
            }
        }
        let mut c = vec![0.0; m * n];
        gemm_a_bt(m, k, n, &a, &b_t, &mut c);
        for (g, w) in c.iter().zip(&want) {
            assert!((g - w).abs() < 1e-3);
        }
    }

    #[test]
    fn transposed_variants_match() {
        let mut rng = Prng::seed(4);
        let (m, k, n) = (6, 5, 7);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let want = naive(m, k, n, &a, &b);

        // a^T stored [k, m]
        let mut a_t = vec![0.0; k * m];
        for i in 0..m {
            for kk in 0..k {
                a_t[kk * m + i] = a[i * k + kk];
            }
        }
        let mut c = vec![0.0; m * n];
        gemm_at_b(m, k, n, &a_t, &b, &mut c);
        for (g, w) in c.iter().zip(&want) {
            assert!((g - w).abs() < 1e-4);
        }

        // b^T stored [n, k]
        let mut b_t = vec![0.0; n * k];
        for kk in 0..k {
            for j in 0..n {
                b_t[j * k + kk] = b[kk * n + j];
            }
        }
        let mut c = vec![0.0; m * n];
        gemm_a_bt(m, k, n, &a, &b_t, &mut c);
        for (g, w) in c.iter().zip(&want) {
            assert!((g - w).abs() < 1e-4);
        }
    }

    #[test]
    fn par_map_preserves_order_at_every_scale() {
        // Serial path (below the spawn threshold), and parallel path with a
        // count that does not divide evenly across threads.
        for n in [0usize, 1, 3, 7, 64, 1001] {
            let items: Vec<usize> = (0..n).collect();
            let out = par_map_indexed(&items, 2, |i, &x| {
                assert_eq!(i, x);
                x * 3 + 1
            });
            assert_eq!(out.len(), n);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * 3 + 1);
            }
        }
    }
}
