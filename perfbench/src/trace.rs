//! Pass-through timing wrappers: a [`TimedLayer`] around each top-level
//! layer of a `Sequential`, and a [`TimedStore`] around a checkpoint store.
//!
//! Both forward every trait method — defaulted ones included — to the
//! wrapped object, so a wrapped run is bit-identical to an unwrapped one
//! (pinned by `tests/wrappers.rs`). Layer spans are kept in memory in a
//! shared [`Recorder`] and read after the run.

use posit_nn::{Layer, LayerKind, Param, Sequential};
use posit_store::{Store, StoreError};
use posit_tensor::{Backend, Tensor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which layer call a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// `forward` with `train = true` (a training step).
    TrainForward,
    /// `forward` with `train = false` (evaluation or serving).
    EvalForward,
    /// `backward`.
    Backward,
}

/// One timed layer call, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of the layer in the wrapped `Sequential`.
    pub layer: usize,
    /// The call.
    pub pass: Pass,
    /// Start of the call.
    pub start_ns: u64,
    /// End of the call.
    pub end_ns: u64,
}

/// In-memory span log shared by every [`TimedLayer`] of one network.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    names: Vec<String>,
    /// Output shape of each layer's latest forward (for MAC counts).
    out_shapes: Mutex<Vec<Vec<usize>>>,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// Nanoseconds since the recorder was made (the spans' time base).
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Names of the wrapped layers, in network order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Every span recorded so far, in call order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Forget every span recorded so far.
    pub fn clear(&self) {
        self.spans.lock().expect("span log poisoned").clear();
    }

    /// Output shape of layer `i`'s latest forward (empty before any).
    pub fn out_shape(&self, i: usize) -> Vec<usize> {
        self.out_shapes.lock().expect("shape log poisoned")[i].clone()
    }

    fn record(&self, layer: usize, pass: Pass, start_ns: u64) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log poisoned").push(Span {
            layer,
            pass,
            start_ns,
            end_ns,
        });
    }
}

/// A layer that times its wrapped layer's `forward` and `backward` and
/// forwards every other method unchanged.
pub struct TimedLayer {
    inner: Box<dyn Layer>,
    index: usize,
    rec: Arc<Recorder>,
}

/// Wrap every top-level layer of `net` in a [`TimedLayer`] sharing one new
/// [`Recorder`], which is returned.
pub fn wrap_layers(net: &mut Sequential) -> Arc<Recorder> {
    let names: Vec<String> = net.layers().iter().map(|l| l.name().to_string()).collect();
    let rec = Arc::new(Recorder {
        origin: Instant::now(),
        out_shapes: Mutex::new(vec![Vec::new(); names.len()]),
        names,
        spans: Mutex::new(Vec::new()),
    });
    for (index, slot) in net.layers_mut().iter_mut().enumerate() {
        let placeholder: Box<dyn Layer> = Box::new(posit_nn::Flatten::new(""));
        let inner = std::mem::replace(slot, placeholder);
        *slot = Box::new(TimedLayer {
            inner,
            index,
            rec: Arc::clone(&rec),
        });
    }
    rec
}

impl Layer for TimedLayer {
    fn kind(&self) -> LayerKind {
        self.inner.kind()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let start = self.rec.now_ns();
        let out = self.inner.forward(input, train);
        let pass = if train {
            Pass::TrainForward
        } else {
            Pass::EvalForward
        };
        self.rec.record(self.index, pass, start);
        self.rec.out_shapes.lock().expect("shape log poisoned")[self.index] = out.shape().to_vec();
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let start = self.rec.now_ns();
        let g = self.inner.backward(grad_out);
        self.rec.record(self.index, Pass::Backward, start);
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn params(&self) -> Vec<&Param> {
        self.inner.params()
    }

    fn set_compute_backends(&mut self, forward: Backend, backward: Backend) {
        self.inner.set_compute_backends(forward, backward);
    }

    fn state_entries(&self) -> Vec<(String, Vec<u8>)> {
        self.inner.state_entries()
    }

    fn restore_state_entries(&mut self, lookup: &dyn Fn(&str) -> Option<Vec<u8>>) {
        self.inner.restore_state_entries(lookup);
    }

    fn batch_separable(&self) -> bool {
        self.inner.batch_separable()
    }

    fn begin_grad_batch(&mut self, total_samples: usize) {
        self.inner.begin_grad_batch(total_samples);
    }

    fn begin_grad_shard(&mut self) {
        self.inner.begin_grad_shard();
    }

    fn end_grad_batch(&mut self) {
        self.inner.end_grad_batch();
    }
}

/// Totals kept by a [`TimedStore`].
#[derive(Debug, Default)]
pub struct StoreCounts {
    /// `set` calls.
    pub sets: AtomicU64,
    /// `get` calls.
    pub gets: AtomicU64,
    /// `delete` calls.
    pub deletes: AtomicU64,
    /// `list` and `list_prefix` calls.
    pub lists: AtomicU64,
    /// Bytes passed to `set`.
    pub bytes_written: AtomicU64,
    /// Wall-clock nanoseconds inside the wrapped store.
    pub io_ns: AtomicU64,
}

/// A store that counts and times every call to the wrapped store.
pub struct TimedStore<S> {
    inner: S,
    counts: StoreCounts,
}

impl<S: Store> TimedStore<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> TimedStore<S> {
        TimedStore {
            inner,
            counts: StoreCounts::default(),
        }
    }

    /// The totals so far.
    pub fn counts(&self) -> &StoreCounts {
        &self.counts
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn timed<R>(&self, calls: &AtomicU64, f: impl FnOnce(&S) -> R) -> R {
        let t0 = Instant::now();
        let r = f(&self.inner);
        let ns = t0.elapsed().as_nanos() as u64;
        calls.fetch_add(1, Ordering::Relaxed);
        self.counts.io_ns.fetch_add(ns, Ordering::Relaxed);
        r
    }
}

impl<S: Store> Store for TimedStore<S> {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.timed(&self.counts.gets, |s| s.get(key))
    }

    fn set(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        self.counts
            .bytes_written
            .fetch_add(value.len() as u64, Ordering::Relaxed);
        self.timed(&self.counts.sets, |s| s.set(key, value))
    }

    fn delete(&self, key: &str) -> Result<(), StoreError> {
        self.timed(&self.counts.deletes, |s| s.delete(key))
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.timed(&self.counts.lists, |s| s.list())
    }

    fn list_prefix(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        self.timed(&self.counts.lists, |s| s.list_prefix(prefix))
    }
}
