//! Exact gradient accumulation buffers for deterministic data parallelism.
//!
//! A data-parallel training step shards a mini-batch across lanes, runs
//! per-shard backward passes, and reduces the per-shard gradients. With f32
//! partial sums the reduction order leaks into the result — the reason
//! distributed training is famously non-reproducible. The quire removes the
//! leak: every product of a gradient GEMM lands in an exact fixed-point
//! accumulator, per-shard accumulators merge by *integer addition*
//! ([`posit::Quire::merge_from`]), and the merged sum rounds to a posit
//! exactly once. The rounded gradient is therefore a pure function of the
//! product multiset — independent of shard count, shard boundaries, lane
//! assignment and reduction order.
//!
//! [`GradQuireBuf`] packages that for a whole gradient tensor: one exact
//! accumulator per element, the same narrow-`i128`/wide-limb-array choice
//! as the [`crate::posit_gemm`] kernels (decided from the *whole batch's*
//! reduction depth `k_total`, so every shard picks the same representation
//! and no shard can overflow the narrow guard bits), the kernels' zero/NaR
//! element conventions, and a single [`GradQuireBuf::round_into`] at the
//! end of the batch.

use crate::posit_gemm::{kernel_rounding, FixedPanel, FixedPanels, PositPlane, Unpacked};
use posit::{NarrowQuire, PositFormat, Quire, Rounding};

/// One exact quire accumulator per gradient element, mergeable across
/// shards and rounded once per optimizer step.
#[derive(Debug, Clone)]
pub struct GradQuireBuf {
    fmt: PositFormat,
    rounding: Rounding,
    margin: u32,
    accs: Accs,
}

#[derive(Debug, Clone)]
enum Accs {
    Narrow(Vec<NarrowQuire>),
    Wide(Vec<Quire>),
}

impl GradQuireBuf {
    /// A zeroed buffer of `len` accumulators for `fmt` products whose
    /// operand planes carry at most `margin` total scale-shift bits.
    ///
    /// `k_total` is the reduction depth of the *whole* batch (every product
    /// that will ever be accumulated into one element, across all shards
    /// and grad-accum steps): it drives the narrow-vs-wide choice exactly
    /// like the GEMM kernels' per-call `K`, so a shard never picks a
    /// representation the merged total would overflow.
    ///
    /// [`Rounding::Stochastic`] degrades to nearest-even like the kernels
    /// (no per-element random stream here either).
    pub fn new(
        fmt: PositFormat,
        rounding: Rounding,
        margin: u32,
        k_total: usize,
        len: usize,
    ) -> GradQuireBuf {
        let rounding = kernel_rounding(rounding);
        let accs = match NarrowQuire::try_new(fmt, margin, k_total.max(1)) {
            Some(proto) => Accs::Narrow(vec![proto; len]),
            None => Accs::Wide(vec![Quire::with_margin(fmt, margin); len]),
        };
        GradQuireBuf {
            fmt,
            rounding,
            margin,
            accs,
        }
    }

    /// Accumulator count (one per gradient element).
    pub fn len(&self) -> usize {
        match &self.accs {
            Accs::Narrow(v) => v.len(),
            Accs::Wide(v) => v.len(),
        }
    }

    /// True iff the buffer holds no accumulators.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The format the accumulators round to.
    pub fn format(&self) -> PositFormat {
        self.fmt
    }

    /// True iff the register-resident narrow representation was chosen.
    pub fn is_narrow(&self) -> bool {
        matches!(self.accs, Accs::Narrow(_))
    }

    /// One multiply-accumulate into element `idx`, with the kernels'
    /// conventions: zero operands are skipped, NaR absorbs.
    #[inline]
    pub fn mac(&mut self, idx: usize, x: Unpacked, y: Unpacked) {
        if x.sig == 0 || y.sig == 0 {
            if x.is_nar() || y.is_nar() {
                match &mut self.accs {
                    Accs::Narrow(v) => v[idx].set_nar(),
                    Accs::Wide(v) => v[idx].set_nar(),
                }
            }
            return;
        }
        let neg = x.neg != y.neg;
        let scale_sum = x.scale + y.scale;
        let prod = (x.sig as u128) * (y.sig as u128);
        match &mut self.accs {
            Accs::Narrow(v) => v[idx].add_product_parts(neg, scale_sum, prod),
            Accs::Wide(v) => v[idx].add_product_parts(neg, scale_sum, prod),
        }
    }

    /// Accumulate a single posit value into element `idx` (as `x · 1`).
    #[inline]
    pub fn add(&mut self, idx: usize, x: Unpacked) {
        self.mac(idx, x, Unpacked::ONE);
    }

    fn check_operands(&self, a: &PositPlane, b: &PositPlane) {
        assert_eq!(a.format(), self.fmt, "A plane format");
        assert_eq!(b.format(), self.fmt, "B plane format");
        assert!(
            a.quire_margin() + b.quire_margin() <= self.margin,
            "operand scale shifts exceed the buffer's construction margin"
        );
    }

    /// `buf[m,n] += aᵀ[m,k]·b[k,n]` with `a` stored `[k, m]` — the exact
    /// accumulation twin of [`crate::PositGemm::gemm`] under
    /// [`crate::Transpose::A`], minus the rounding (which happens once, in
    /// [`GradQuireBuf::round_into`]). This is the linear layer's
    /// `ΔW += dYᵀ·X` shape.
    ///
    /// Narrow buffers pack both operands once into the GEMM's fixed-point
    /// words and fold each output's exact integer dot product into its
    /// stored accumulator with one [`NarrowQuire::add_fixed`]; wide buffers
    /// take the per-MAC loop. Both compute the same exact sums.
    ///
    /// # Panics
    ///
    /// Panics on format/length mismatches or operand margins beyond the
    /// buffer's construction margin.
    pub fn accumulate_at_b(
        &mut self,
        m: usize,
        k: usize,
        n: usize,
        a_t: &PositPlane,
        b: &PositPlane,
    ) {
        self.check_operands(a_t, b);
        assert_eq!(a_t.len(), k * m, "A^T length");
        assert_eq!(b.len(), k * n, "B length");
        assert_eq!(self.len(), m * n, "buffer length");
        if self.accumulate_fixed(m, k, n, a_t, true, b, true) {
            return;
        }
        let (ae, be) = (a_t.elems(), b.elems());
        for t in 0..k {
            let a_row = &ae[t * m..(t + 1) * m];
            let b_row = &be[t * n..(t + 1) * n];
            for (i, &x) in a_row.iter().enumerate() {
                for (j, &y) in b_row.iter().enumerate() {
                    self.mac(i * n + j, x, y);
                }
            }
        }
    }

    /// `buf[m,n] += a[m,k]·bᵀ[k,n]` with `b` stored `[n, k]` — the exact
    /// accumulation twin of [`crate::PositGemm::gemm`] under
    /// [`crate::Transpose::B`]. This is the conv layer's batch-wide
    /// `ΔW += dY·colᵀ` shape (`k` spans every output position of every
    /// sample in the call).
    ///
    /// Narrow buffers run the GEMM's fixed-point tile straight into the
    /// stored accumulators (see [`GradQuireBuf::accumulate_at_b`]); wide
    /// buffers take the per-MAC loop. Both compute the same exact sums.
    ///
    /// # Panics
    ///
    /// Panics on format/length mismatches or operand margins beyond the
    /// buffer's construction margin.
    pub fn accumulate_a_bt(
        &mut self,
        m: usize,
        k: usize,
        n: usize,
        a: &PositPlane,
        b_t: &PositPlane,
    ) {
        self.check_operands(a, b_t);
        assert_eq!(a.len(), m * k, "A length");
        assert_eq!(b_t.len(), n * k, "B^T length");
        assert_eq!(self.len(), m * n, "buffer length");
        if m == 0 || n == 0 {
            return;
        }
        if self.accumulate_fixed(m, k, n, a, false, b_t, false) {
            return;
        }
        let (ae, be) = (a.elems(), b_t.elems());
        for i in 0..m {
            let a_run = &ae[i * k..(i + 1) * k];
            for j in 0..n {
                let b_run = &be[j * k..(j + 1) * k];
                for (&x, &y) in a_run.iter().zip(b_run) {
                    self.mac(i * n + j, x, y);
                }
            }
        }
    }

    /// The narrow body of [`GradQuireBuf::accumulate_at_b`] and
    /// [`GradQuireBuf::accumulate_a_bt`]: `false` (nothing done) for wide
    /// buffers.
    #[allow(clippy::too_many_arguments)]
    fn accumulate_fixed(
        &mut self,
        m: usize,
        k: usize,
        n: usize,
        a: &PositPlane,
        a_transposed: bool,
        b: &PositPlane,
        b_transposed: bool,
    ) -> bool {
        let Accs::Narrow(accs) = &mut self.accs else {
            return false;
        };
        let panels = FixedPanels::pack(m, k, n, a, a_transposed, b, b_transposed);
        let lsb_scale = panels.lsb_scale();
        panels.for_each(0..m, n, |i, j, sum, nar| {
            let q = &mut accs[i * n + j];
            q.add_fixed(sum, lsb_scale);
            if nar {
                q.set_nar();
            }
        });
        true
    }

    /// `buf[j] += Σ_r p[r, j]` over a `[rows, cols]` plane — the exact
    /// accumulation of a bias gradient's column sums (`Δb += Σ_n dY`).
    ///
    /// # Panics
    ///
    /// Panics on format/length mismatches or an operand margin beyond the
    /// buffer's construction margin.
    pub fn accumulate_col_sums(&mut self, rows: usize, cols: usize, p: &PositPlane) {
        self.accumulate_sums(cols, rows, p, true);
    }

    /// `buf[r] += Σ_c p[r, c]` over a `[rows, cols]` plane — the exact
    /// accumulation of a conv bias gradient's per-channel sums
    /// (`Δb[oc] += Σ_spatial dY[oc, ·]` per sample).
    ///
    /// # Panics
    ///
    /// Panics on format/length mismatches or an operand margin beyond the
    /// buffer's construction margin.
    pub fn accumulate_row_sums(&mut self, rows: usize, cols: usize, p: &PositPlane) {
        self.accumulate_sums(rows, cols, p, false);
    }

    /// `buf[r] += Σ_t run_r[t]` over `runs` runs of `k` elements of `p`,
    /// stored `[runs, k]`, or `[k, runs]` when `transposed`. Narrow buffers
    /// sum each run's fixed-point words and fold the sum once; wide buffers
    /// add element by element.
    fn accumulate_sums(&mut self, runs: usize, k: usize, p: &PositPlane, transposed: bool) {
        assert_eq!(p.format(), self.fmt, "plane format");
        assert!(
            p.quire_margin() <= self.margin,
            "operand scale shift exceeds the buffer's construction margin"
        );
        assert_eq!(p.len(), runs * k, "plane length");
        assert_eq!(self.len(), runs, "buffer length");
        if let Accs::Narrow(accs) = &mut self.accs {
            let panel = FixedPanel::<i64>::pack(p, runs, k, transposed, runs);
            for (r, q) in accs.iter_mut().enumerate() {
                q.add_fixed(panel.run_sum(r), panel.lsb_scale());
                if panel.is_nar(r) {
                    q.set_nar();
                }
            }
            return;
        }
        let pe = p.elems();
        for r in 0..runs {
            for t in 0..k {
                self.add(r, pe[if transposed { t * runs + r } else { r * k + t }]);
            }
        }
    }

    /// Exact all-reduce step: integer-merge another shard's accumulators
    /// into this one (see [`posit::Quire::merge_from`] — associative,
    /// commutative, NaR-absorbing). Both buffers must come from the same
    /// construction (format, margin, narrow/wide choice, length), which
    /// holds whenever every shard sizes its buffer from the same
    /// whole-batch `k_total`.
    ///
    /// # Panics
    ///
    /// Panics on construction mismatches.
    pub fn merge_from(&mut self, other: &GradQuireBuf) {
        assert_eq!(self.fmt, other.fmt, "format mismatch");
        assert_eq!(self.margin, other.margin, "margin mismatch");
        assert_eq!(self.len(), other.len(), "length mismatch");
        match (&mut self.accs, &other.accs) {
            (Accs::Narrow(a), Accs::Narrow(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    x.merge_from(y);
                }
            }
            (Accs::Wide(a), Accs::Wide(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    x.merge_from(y);
                }
            }
            _ => panic!("GradQuireBuf::merge_from: narrow/wide representation mismatch"),
        }
    }

    /// Round every accumulator once and add the results into `out` — the
    /// single `P(·)` edge of the whole batch's gradient, bit-identical to a
    /// one-shard run because the exact sums are.
    ///
    /// # Panics
    ///
    /// Panics if `out` has a different length.
    pub fn round_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "output length");
        let lut = posit::lut::to_f32_lut(self.fmt);
        let store = |code: u64, o: &mut f32| {
            *o += match lut {
                Some(l) => l[code as usize],
                None => self.fmt.to_f32(code),
            };
        };
        match &self.accs {
            Accs::Narrow(v) => {
                for (q, o) in v.iter().zip(out) {
                    store(q.to_posit(self.rounding, 0), o);
                }
            }
            Accs::Wide(v) => {
                for (q, o) in v.iter().zip(out) {
                    store(q.to_posit(self.rounding, 0), o);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posit_gemm::PositGemm;
    use crate::Transpose;

    fn plane(fmt: PositFormat, xs: &[f32]) -> PositPlane {
        PositPlane::from_f32(fmt, xs, Rounding::NearestEven)
    }

    #[test]
    fn one_shard_accumulate_matches_the_gemm() {
        // A single buffer fed the whole batch must round to exactly what
        // the GEMM kernels produce — the anchor that makes "1 shard" and
        // "serial" the same thing.
        let fmt = PositFormat::of(16, 1);
        let (o, n, feat) = (3, 7, 5);
        let dy: Vec<f32> = (0..n * o)
            .map(|i| ((i * 13 % 23) as f32 - 11.0) * 0.25)
            .collect();
        let x: Vec<f32> = (0..n * feat)
            .map(|i| ((i * 7 % 19) as f32 - 9.0) * 0.125)
            .collect();
        let g = PositGemm::new(fmt, Rounding::NearestEven);
        let mut want = vec![0.0f32; o * feat];
        g.gemm(
            Transpose::A,
            o,
            n,
            feat,
            &plane(fmt, &dy),
            &plane(fmt, &x),
            &mut want,
        );

        let mut buf = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, n, o * feat);
        buf.accumulate_at_b(o, n, feat, &plane(fmt, &dy), &plane(fmt, &x));
        let mut got = vec![0.0f32; o * feat];
        buf.round_into(&mut got);
        assert_eq!(got, want, "at_b");

        let mut want = vec![0.0f32; o * feat];
        let dy_t: Vec<f32> = {
            // dy as [o, n] for the a_bt shape check
            let mut t = vec![0.0f32; o * n];
            for r in 0..n {
                for c in 0..o {
                    t[c * n + r] = dy[r * o + c];
                }
            }
            t
        };
        let x_t: Vec<f32> = {
            let mut t = vec![0.0f32; feat * n];
            for r in 0..n {
                for c in 0..feat {
                    t[c * n + r] = x[r * feat + c];
                }
            }
            t
        };
        g.gemm(
            Transpose::B,
            o,
            n,
            feat,
            &plane(fmt, &dy_t),
            &plane(fmt, &x_t),
            &mut want,
        );
        let mut buf = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, n, o * feat);
        buf.accumulate_a_bt(o, n, feat, &plane(fmt, &dy_t), &plane(fmt, &x_t));
        let mut got = vec![0.0f32; o * feat];
        buf.round_into(&mut got);
        assert_eq!(got, want, "a_bt");
    }

    /// A scale-shifted plane of `len` packed code words with zero lanes
    /// and, when `len > 3`, one NaR in the middle.
    fn lane_plane(fmt: PositFormat, len: usize, salt: usize, scale_exp: i32) -> PositPlane {
        let mut bits = crate::storage::PackedBits::for_format(fmt, len);
        for i in 0..len {
            let v = ((i * 37 + salt * 11) % 29) as f32 * 0.25 - 3.5;
            let v = if i % 13 == 5 { 0.0 } else { v };
            bits.push(fmt.from_f32(v, Rounding::NearestEven));
        }
        if len > 3 {
            bits.set(len / 2, fmt.nar_bits());
        }
        PositPlane::from_packed(fmt, &bits, scale_exp)
    }

    #[test]
    fn fixed_tiles_match_the_per_mac_loop() {
        // The fixed-point tile of both GEMM shapes against the per-element
        // `mac` loop, over ragged m/n (zero-padded tiles), NaR and zero
        // elements, and scale-shifted planes that use the construction
        // margin — on both word tiers ((8,1) 32-bit, (8,2)/(16,1) 64-bit).
        // The shifted (16,1) cell exceeds the narrow budget and pins the
        // wide buffers' per-MAC loop instead.
        for (n_bits, es) in [(8u32, 1u32), (8, 2), (16, 1)] {
            let fmt = PositFormat::of(n_bits, es);
            for (m, k, n, sa, sb) in [(1, 5, 1, 0, 0), (6, 40, 75, 0, 0), (5, 9, 7, 3, -2)] {
                let (a, b) = (lane_plane(fmt, m * k, 0, sa), lane_plane(fmt, n * k, 1, sb));
                let margin = a.quire_margin() + b.quire_margin();
                let mut oracle = GradQuireBuf::new(fmt, Rounding::NearestEven, margin, k, m * n);
                for i in 0..m {
                    for j in 0..n {
                        for t in 0..k {
                            oracle.mac(i * n + j, a.elems()[i * k + t], b.elems()[j * k + t]);
                        }
                    }
                }
                let mut a_bt = GradQuireBuf::new(fmt, Rounding::NearestEven, margin, k, m * n);
                a_bt.accumulate_a_bt(m, k, n, &a, &b);
                // The same products with both operands stored `[k, ·]`.
                let t = |p: &PositPlane, rows: usize| {
                    let e = p.elems();
                    let elems = (0..e.len()).map(|q| e[(q % rows) * k + q / rows]).collect();
                    PositPlane::from_elems(fmt, p.scale_exp(), elems)
                };
                let mut at_b = GradQuireBuf::new(fmt, Rounding::NearestEven, margin, k, m * n);
                at_b.accumulate_at_b(m, k, n, &t(&a, m), &t(&b, n));
                let round = |buf: &GradQuireBuf| {
                    let mut out = vec![0.0f32; m * n];
                    buf.round_into(&mut out);
                    out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                };
                let want = round(&oracle);
                assert_eq!(round(&a_bt), want, "a_bt {fmt} ({m},{k},{n})");
                assert_eq!(round(&at_b), want, "at_b {fmt} ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn bias_sums_match_the_per_element_add() {
        // Row and column sums fold each run's fixed-point words once; the
        // per-element `add` is the oracle, over zero and NaR lanes and
        // shifted planes, on narrow and wide buffers alike.
        for (n_bits, es) in [(8u32, 1u32), (8, 2), (16, 1), (16, 2)] {
            let fmt = PositFormat::of(n_bits, es);
            for (rows, cols, shift) in [(1, 1, 0), (6, 40, 0), (5, 9, -3), (7, 3, 4)] {
                let p = lane_plane(fmt, rows * cols, 2, shift);
                let margin = p.quire_margin();
                let depth = rows.max(cols);
                let buf = |len| GradQuireBuf::new(fmt, Rounding::NearestEven, margin, depth, len);
                let (mut by_row, mut by_col) = (buf(rows), buf(cols));
                by_row.accumulate_row_sums(rows, cols, &p);
                by_col.accumulate_col_sums(rows, cols, &p);
                let (mut row_oracle, mut col_oracle) = (buf(rows), buf(cols));
                for r in 0..rows {
                    for c in 0..cols {
                        row_oracle.add(r, p.elems()[r * cols + c]);
                        col_oracle.add(c, p.elems()[r * cols + c]);
                    }
                }
                let round = |b: &GradQuireBuf| {
                    let mut out = vec![0.0f32; b.len()];
                    b.round_into(&mut out);
                    out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                };
                let label = format!("{fmt} ({rows},{cols}) shift {shift}");
                assert_eq!(round(&by_row), round(&row_oracle), "rows {label}");
                assert_eq!(round(&by_col), round(&col_oracle), "cols {label}");
            }
        }
    }

    #[test]
    fn sharded_merge_matches_one_shard_any_split() {
        // Shard the batch every possible way (plus reversed reduce order):
        // the merged result must equal the 1-shard buffer bit-for-bit.
        let fmt = PositFormat::of(8, 1);
        let (o, n, feat) = (2, 12, 3);
        let dy: Vec<f32> = (0..n * o)
            .map(|i| ((i * 5 % 17) as f32 - 8.0) * 0.5)
            .collect();
        let x: Vec<f32> = (0..n * feat)
            .map(|i| ((i * 11 % 13) as f32 - 6.0) * 0.25)
            .collect();
        let mut whole = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, n, o * feat);
        whole.accumulate_at_b(o, n, feat, &plane(fmt, &dy), &plane(fmt, &x));
        let mut want = vec![0.0f32; o * feat];
        whole.round_into(&mut want);

        for shards in 1..=n {
            let mut parts = Vec::new();
            let base = n / shards;
            let extra = n % shards;
            let mut start = 0;
            for s in 0..shards {
                let rows = base + usize::from(s < extra);
                if rows == 0 {
                    continue;
                }
                let mut buf = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, n, o * feat);
                buf.accumulate_at_b(
                    o,
                    rows,
                    feat,
                    &plane(fmt, &dy[start * o..(start + rows) * o]),
                    &plane(fmt, &x[start * feat..(start + rows) * feat]),
                );
                parts.push(buf);
                start += rows;
            }
            let mut acc = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, n, o * feat);
            for p in parts.iter().rev() {
                acc.merge_from(p);
            }
            let mut got = vec![0.0f32; o * feat];
            acc.round_into(&mut got);
            assert_eq!(got, want, "{shards} shards");
        }
    }

    #[test]
    fn col_sums_are_shard_invariant_and_nar_absorbs() {
        let fmt = PositFormat::of(16, 1);
        let (rows, cols) = (9, 4);
        let mut dy: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 3 % 11) as f32 - 5.0) * 0.5)
            .collect();
        dy[cols + 2] = f32::NAN; // column 2 poisoned
        let mut whole = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, rows, cols);
        whole.accumulate_col_sums(rows, cols, &plane(fmt, &dy));
        let mut want = vec![0.0f32; cols];
        whole.round_into(&mut want);
        assert!(want[2].is_nan(), "NaR absorbs into its column");
        assert!(!want[0].is_nan() && !want[3].is_nan());

        let mut a = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, rows, cols);
        a.accumulate_col_sums(4, cols, &plane(fmt, &dy[..4 * cols]));
        let mut b = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, rows, cols);
        b.accumulate_col_sums(5, cols, &plane(fmt, &dy[4 * cols..]));
        b.merge_from(&a);
        let mut got = vec![0.0f32; cols];
        b.round_into(&mut got);
        for j in 0..cols {
            if want[j].is_nan() {
                assert!(got[j].is_nan());
            } else {
                assert_eq!(got[j], want[j]);
            }
        }
    }

    #[test]
    fn row_sums_match_transposed_col_sums() {
        let fmt = PositFormat::of(16, 1);
        let (rows, cols) = (3, 5);
        let xs: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 7 % 9) as f32 - 4.0) * 0.5)
            .collect();
        let mut by_row = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, cols, rows);
        by_row.accumulate_row_sums(rows, cols, &plane(fmt, &xs));
        let mut got = vec![0.0f32; rows];
        by_row.round_into(&mut got);
        let mut xt = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                xt[c * rows + r] = xs[r * cols + c];
            }
        }
        let mut by_col = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, cols, rows);
        by_col.accumulate_col_sums(cols, rows, &plane(fmt, &xt));
        let mut want = vec![0.0f32; rows];
        by_col.round_into(&mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn deep_k_total_picks_the_wide_representation() {
        // (16,1) narrows up to K=8192; a batch-wide reduction depth beyond
        // that must fall back to wide quires — and still merge/round the
        // same values.
        let fmt = PositFormat::of(16, 1);
        let narrow = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, 8192, 4);
        assert!(narrow.is_narrow());
        let wide = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, 8193, 4);
        assert!(!wide.is_narrow());
        let xs = [1.5f32, -0.25, 3.0, 0.0625];
        let mut a = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, 8193, 4);
        a.accumulate_col_sums(1, 4, &plane(fmt, &xs));
        let mut b = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, 8193, 4);
        b.merge_from(&a);
        let mut out = vec![0.0f32; 4];
        b.round_into(&mut out);
        assert_eq!(out, xs.to_vec());
    }

    #[test]
    #[should_panic(expected = "representation mismatch")]
    fn merging_across_representations_panics() {
        let fmt = PositFormat::of(16, 1);
        let mut a = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, 8, 2);
        let b = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, 100_000, 2);
        a.merge_from(&b);
    }
}
