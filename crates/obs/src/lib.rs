//! # posit-obs
//!
//! A determinism-safe, zero-dependency telemetry layer for the posit-dnn
//! workspace: counters, gauges, log-linear histograms and scoped span
//! timers behind a named [`Registry`], instrumenting the posit GEMM
//! kernels, the quantization edges, the trainer, the chunk store and the
//! inference server.
//!
//! ## Design constraints
//!
//! The whole workspace is built around bit-for-bit reproducibility
//! (exact quire accumulation, seeded RNG streams, static parallel
//! splits), so the telemetry layer obeys two hard rules:
//!
//! 1. **Observation only.** Metrics read values the computation already
//!    produced; nothing recorded ever feeds back into a kernel, a
//!    rounding decision or an RNG stream. Instrumented runs are
//!    bit-identical to uninstrumented runs (pinned by the
//!    `obs_determinism` suites in `posit-train` and `posit-serve`).
//! 2. **Deterministic snapshots.** [`Registry::snapshot`] emits rows in
//!    sorted-name order, and every merge it performs (counter lane
//!    shards, histogram buckets) is an integer sum — associative and
//!    commutative, so the snapshot is a pure function of the recorded
//!    totals, never of thread interleaving.
//!
//! Recording is **off by default**: set `POSIT_OBS=1` in the environment
//! or call [`Registry::enable`]. Disabled cost at an instrumented call
//! site is one relaxed atomic load ([`enabled`]), checked once per
//! kernel call — never per element — so the GEMM hot path is unaffected
//! (held at the line by `ci/bench-smoke.sh`'s obs-on/obs-off rows).
//!
//! Hot-path recording is lock-free: counters are sharded into
//! [`MAX_LANES`] cache-line-padded slots indexed by the recording
//! thread's worker-pool lane (the pool in `posit_tensor::workers` calls
//! [`set_lane`] at spawn), merged by summation at snapshot time.
//!
//! Snapshots export as an aligned text table or as NDJSON (one flat JSON
//! object per line, hand-written in the same in-tree style as the
//! store's `meta.json` — the container has no serde).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod registry;
pub mod span;

pub use hist::Histogram;
pub use registry::{Counter, Gauge, HistogramHandle, MetricRow, MetricValue, Registry, Snapshot};
pub use span::Span;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

/// Number of counter lane shards. Covers the worker-pool widths the test
/// suites use (`POSIT_TENSOR_THREADS` up to 7 plus the caller lane) with
/// room to spare; wider pools wrap — still correct (the slots are
/// atomic), just with some cache-line sharing.
pub const MAX_LANES: usize = 32;

thread_local! {
    static LANE: Cell<usize> = const { Cell::new(0) };
    static EDGE_LABEL: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Pin the calling thread's counter lane (worker `i` of the tensor pool
/// registers as lane `i + 1`; the caller thread is lane 0 by default).
pub fn set_lane(lane: usize) {
    LANE.set(lane % MAX_LANES);
}

/// The calling thread's counter lane.
pub fn lane() -> usize {
    LANE.get()
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

/// Is recording on? Initialized once from the `POSIT_OBS` environment
/// variable (any value other than empty or `0` enables), then togglable
/// with [`set_enabled`] / [`Registry::enable`]. One relaxed atomic load
/// on the fast path — instrumented call sites check this once per call
/// and skip all recording when off.
#[inline]
pub fn enabled() -> bool {
    ENV_INIT.call_once(|| {
        let on = std::env::var("POSIT_OBS")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        ENABLED.store(on, Ordering::Relaxed);
    });
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off process-wide (overrides `POSIT_OBS`).
pub fn set_enabled(on: bool) {
    ENV_INIT.call_once(|| {});
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Quantization-edge health.
// ---------------------------------------------------------------------------

/// Per-call tally of quantization-edge events: how many elements an
/// Eq. 3 / `to_posit` boundary clamped to ±maxpos, flushed to zero, or
/// turned into NaR. Computed by comparing each element's value before
/// and after quantization — the quantized values themselves are never
/// touched.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EdgeTally {
    /// Elements that crossed the edge.
    pub total: u64,
    /// Elements clamped to ±maxpos (|scaled value| exceeded the format).
    pub clamped: u64,
    /// Nonzero elements flushed to exactly zero (underflow past minpos).
    pub flushed: u64,
    /// Elements that produced NaR (non-finite inputs).
    pub nar: u64,
}

impl EdgeTally {
    /// Absorb another tally.
    pub fn merge(&mut self, other: &EdgeTally) {
        self.total += other.total;
        self.clamped += other.clamped;
        self.flushed += other.flushed;
        self.nar += other.nar;
    }

    /// True when nothing was tallied.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// Scope guard restoring the previous edge label (see [`push_edge_label`]).
#[must_use = "dropping the guard pops the label immediately"]
pub struct EdgeLabelGuard(());

impl Drop for EdgeLabelGuard {
    fn drop(&mut self) {
        EDGE_LABEL.with_borrow_mut(|stack| {
            stack.pop();
        });
    }
}

/// Label the quantization edges crossed on this thread until the guard
/// drops (e.g. `"conv1.a"` while quantizing conv1's activations), so
/// layer-agnostic conversion code in `posit-tensor` can attribute its
/// edge tallies per layer. Nested labels shadow; unlabeled edges fall
/// back to a generic name.
pub fn push_edge_label(label: &str) -> EdgeLabelGuard {
    EDGE_LABEL.with_borrow_mut(|stack| stack.push(label.to_string()));
    EdgeLabelGuard(())
}

/// The innermost edge label on this thread, if any.
pub fn edge_label() -> Option<String> {
    EDGE_LABEL.with_borrow(|stack| stack.last().cloned())
}

/// Record an edge tally under `edge.{label}.*` counters in the global
/// registry. When `label` is `None` the thread's current
/// [`edge_label`] is used, falling back to `"unlabeled"`.
pub fn record_edge(label: Option<&str>, tally: &EdgeTally) {
    if tally.is_empty() {
        return;
    }
    let owned;
    let label = match label {
        Some(l) => l,
        None => {
            owned = edge_label().unwrap_or_else(|| "unlabeled".to_string());
            &owned
        }
    };
    let reg = Registry::global();
    reg.counter(&format!("edge.{label}.elems")).add(tally.total);
    if tally.clamped > 0 {
        reg.counter(&format!("edge.{label}.clamped"))
            .add(tally.clamped);
    }
    if tally.flushed > 0 {
        reg.counter(&format!("edge.{label}.flushed"))
            .add(tally.flushed);
    }
    if tally.nar > 0 {
        reg.counter(&format!("edge.{label}.nar")).add(tally.nar);
    }
}

/// The histogram handle for an edge's log2-magnitude coverage
/// (`edge.{label}.log2`). Values recorded into it are binary exponents
/// offset by [`LOG2_OFFSET`] (see [`log2_offset_of`]), so the histogram
/// shows where a layer's values sit in the posit code space.
pub fn edge_log2_histogram(label: Option<&str>) -> HistogramHandle {
    let owned;
    let label = match label {
        Some(l) => l,
        None => {
            owned = edge_label().unwrap_or_else(|| "unlabeled".to_string());
            &owned
        }
    };
    Registry::global().histogram(&format!("edge.{label}.log2"))
}

/// Offset added to binary exponents before histogram recording, so the
/// (signed) exponent range of every practical posit format maps onto
/// non-negative histogram values: recorded value = `exponent + 64`.
pub const LOG2_OFFSET: i32 = 64;

/// The histogram value encoding `floor(log2 |x|)` of a finite nonzero
/// scaled magnitude: its binary exponent plus [`LOG2_OFFSET`], clamped
/// into `0..=255`. Returns `None` for zero or non-finite inputs.
pub fn log2_offset_of(x: f64) -> Option<u64> {
    if x == 0.0 || !x.is_finite() {
        return None;
    }
    // IEEE-754 exponent extraction; subnormals all land in the bottom bin,
    // which is fine for a coverage histogram.
    let exp = ((x.to_bits() >> 52) & 0x7ff) as i32 - 1023;
    Some((exp + LOG2_OFFSET).clamp(0, 255) as u64)
}

/// One quantization edge being recorded: classifies each element's scaled
/// input against the code word it was encoded to — clamped past maxpos,
/// flushed to zero, or NaR — and counts its log2 magnitude, then
/// publishes the tally with [`record_edge`] and the counts into the edge's
/// log2 histogram on [`EdgeRecorder::finish`]. Both the packed encode
/// (`Tensor::to_posit_with`) and the in-place Eq. 3 quantizer tally their
/// edges through it. Read-only on both sides.
pub struct EdgeRecorder {
    tally: EdgeTally,
    /// Per-edge log2 bin counts, flushed with one histogram add per bin:
    /// an atomic add per element would cost more than the encode itself.
    log2_counts: [u64; 256],
    maxpos: f64,
    nar_code: u64,
}

impl EdgeRecorder {
    /// A recorder for an edge into a format with the given `maxpos` and
    /// NaR code word, under the thread's current [`edge_label`]; `None`
    /// when recording is off.
    pub fn start(maxpos: f64, nar_code: u64) -> Option<EdgeRecorder> {
        enabled().then(|| EdgeRecorder {
            tally: EdgeTally::default(),
            log2_counts: [0; 256],
            maxpos,
            nar_code,
        })
    }

    /// Tally one element: the scaled input and its code word.
    #[inline]
    pub fn note(&mut self, scaled: f64, code: u64) {
        self.tally.total += 1;
        if code == self.nar_code {
            self.tally.nar += 1;
        } else if scaled.is_finite() && scaled.abs() > self.maxpos {
            self.tally.clamped += 1;
        } else if scaled != 0.0 && code == 0 {
            self.tally.flushed += 1;
        }
        if let Some(v) = log2_offset_of(scaled) {
            self.log2_counts[v as usize] += 1;
        }
    }

    /// Publish the tally under the edge's `edge.{label}.*` counters and the
    /// log2 counts into `edge.{label}.log2`.
    pub fn finish(self) {
        record_edge(None, &self.tally);
        let log2 = edge_log2_histogram(None);
        for (v, &n) in self.log2_counts.iter().enumerate() {
            log2.record_n(v as u64, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_labels_nest_and_pop() {
        assert_eq!(edge_label(), None);
        let _a = push_edge_label("conv1.w");
        assert_eq!(edge_label().as_deref(), Some("conv1.w"));
        {
            let _b = push_edge_label("conv1.a");
            assert_eq!(edge_label().as_deref(), Some("conv1.a"));
        }
        assert_eq!(edge_label().as_deref(), Some("conv1.w"));
    }

    #[test]
    fn log2_offsets_are_exponents_plus_64() {
        assert_eq!(log2_offset_of(1.0), Some(64));
        assert_eq!(log2_offset_of(2.0), Some(65));
        assert_eq!(log2_offset_of(0.25), Some(62));
        assert_eq!(log2_offset_of(-8.0), Some(67));
        assert_eq!(log2_offset_of(0.0), None);
        assert_eq!(log2_offset_of(f64::NAN), None);
        assert_eq!(log2_offset_of(f64::INFINITY), None);
    }

    #[test]
    fn edge_tally_merges() {
        let mut a = EdgeTally {
            total: 10,
            clamped: 1,
            flushed: 2,
            nar: 0,
        };
        let b = EdgeTally {
            total: 5,
            clamped: 0,
            flushed: 1,
            nar: 1,
        };
        a.merge(&b);
        assert_eq!(
            a,
            EdgeTally {
                total: 15,
                clamped: 1,
                flushed: 3,
                nar: 1
            }
        );
        assert!(!a.is_empty());
        assert!(EdgeTally::default().is_empty());
    }

    #[test]
    fn record_edge_registers_counters_under_the_label() {
        let tally = EdgeTally {
            total: 4,
            clamped: 1,
            flushed: 0,
            nar: 0,
        };
        let _g = push_edge_label("t.obs.layer.w");
        record_edge(None, &tally);
        let snap = Registry::global().snapshot();
        assert_eq!(snap.counter("edge.t.obs.layer.w.elems"), 4);
        assert_eq!(snap.counter("edge.t.obs.layer.w.clamped"), 1);
        assert!(
            snap.get("edge.t.obs.layer.w.flushed").is_none(),
            "zero fields are not registered"
        );
    }

    #[test]
    fn edge_recorder_classifies_each_element() {
        let _g = push_edge_label("t.obs.recorder");
        let was = enabled();
        set_enabled(true);
        // posit(8,1)-like edge: maxpos 4096, NaR code 0x80.
        let rec = EdgeRecorder::start(4096.0, 0x80);
        set_enabled(was);
        let mut rec = rec.expect("recording is on");
        rec.note(1.0, 0x40);
        rec.note(1e9, 0x7F); // clamped
        rec.note(1e-9, 0); // flushed
        rec.note(0.0, 0); // a true zero is not flushed
        rec.note(f64::NAN, 0x80); // NaR
        rec.finish();
        let snap = Registry::global().snapshot();
        let log2 = edge_log2_histogram(Some("t.obs.recorder")).snapshot();
        assert_eq!(log2.count(), 3, "zero and NaN have no log2 bin");
        assert_eq!(snap.counter("edge.t.obs.recorder.elems"), 5);
        assert_eq!(snap.counter("edge.t.obs.recorder.clamped"), 1);
        assert_eq!(snap.counter("edge.t.obs.recorder.flushed"), 1);
        assert_eq!(snap.counter("edge.t.obs.recorder.nar"), 1);
    }
}
