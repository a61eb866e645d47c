//! Determinism under instrumentation, serving side: turning `posit-obs`
//! recording on must not move a single logit bit.
//!
//! Mirrors the `batcher_determinism` harness — the same calibrated MLP,
//! the same submit/tick schedule — run twice in one process (identical
//! latched worker-pool width), once with recording off and once with it
//! on. The logit fingerprints must match byte for byte, and the
//! instrumented run must have populated the serve metrics (request and
//! batch counters, the batch-occupancy histogram, the queue-depth gauge)
//! plus the kernel-path counters underneath, with a parseable NDJSON
//! export.

use posit_nn::{Layer, Sequential};
use posit_serve::{InferenceServer, ServeConfig, ServedModel};
use posit_tensor::rng::Prng;
use posit_tensor::Tensor;
use posit_train::{ComputeBackend, MasterWeights, Phase, QuantBuilder, QuantControl, QuantSpec};
use std::fmt::Write as _;

const IN_DIM: usize = 16;
const CLASSES: usize = 4;
const REQUESTS: u64 = 16;

fn quant() -> QuantSpec {
    QuantSpec::cifar_paper()
        .with_backend(ComputeBackend::PositQuire)
        .with_master(MasterWeights::Posit)
}

fn calibrated_model() -> (Sequential, QuantControl, QuantSpec) {
    let spec = quant();
    let mut rng = Prng::seed(41);
    let mut qb = QuantBuilder::new(spec.clone());
    let control = qb.control();
    let mut net = posit_models::mlp(&mut qb, &[IN_DIM, 32, CLASSES], &mut rng);
    let mut cal_rng = Prng::seed(42);
    let cal = Tensor::rand_normal(&[8, IN_DIM], 0.0, 1.0, &mut cal_rng);
    control.set_phase(Phase::Calibrate);
    let _ = net.forward(&cal, false);
    control.set_phase(Phase::Posit);
    (net, control, spec)
}

fn sample(i: u64) -> Tensor {
    let mut rng = Prng::seed(0x5A17 + i);
    Tensor::rand_normal(&[IN_DIM], 0.0, 1.0, &mut rng)
}

fn server(cfg: ServeConfig) -> InferenceServer {
    let (net, control, spec) = calibrated_model();
    InferenceServer::new(ServedModel::quantized(net, control, spec), &[IN_DIM], cfg)
        .expect("valid config")
}

fn serve_fingerprint(srv: &mut InferenceServer, n: u64, ticks_between: usize) -> String {
    let mut ids = Vec::new();
    for i in 0..n {
        ids.push(srv.submit(&sample(i)).expect("f32 sample"));
        for _ in 0..ticks_between {
            srv.tick().expect("tick");
        }
    }
    srv.flush_all().expect("flush");
    let mut s = String::new();
    for (i, id) in ids.into_iter().enumerate() {
        let r = srv.poll(id).expect("completed").expect("served");
        write!(s, "req {i}:").unwrap();
        for v in &r.logits {
            write!(s, " {:08x}", v.to_bits()).unwrap();
        }
        s.push('\n');
    }
    s
}

#[test]
fn instrumented_serving_is_bit_identical_and_exports_metrics() {
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait_ticks: 2,
        ..ServeConfig::default()
    };
    // Baseline with recording forced off (overrides any POSIT_OBS in the
    // environment — the CI re-runs this suite with POSIT_OBS=1).
    posit_obs::set_enabled(false);
    let base = serve_fingerprint(&mut server(cfg), REQUESTS, 1);

    posit_obs::Registry::enable(true);
    let instrumented = serve_fingerprint(&mut server(cfg), REQUESTS, 1);
    posit_obs::set_enabled(false);

    assert_eq!(
        instrumented, base,
        "turning posit-obs recording on changed served logit bits"
    );

    // Only the instrumented pass recorded, so the serve counters carry
    // exactly its traffic.
    let snap = posit_obs::Registry::global().snapshot();
    assert_eq!(
        snap.counter("serve.requests"),
        REQUESTS,
        "one serve.requests count per submit:\n{}",
        snap.to_table()
    );
    let batches = snap.counter("serve.batches");
    assert!(batches > 0, "no batches counted:\n{}", snap.to_table());
    match snap.get("serve.batch_rows") {
        Some(posit_obs::MetricValue::Histogram(h)) => {
            assert_eq!(h.count(), batches, "one occupancy sample per batch");
            assert!(h.max() <= cfg.max_batch as u64, "occupancy above max_batch");
        }
        other => panic!("serve.batch_rows missing or mistyped: {other:?}"),
    }
    match snap.get("serve.queue_depth") {
        Some(posit_obs::MetricValue::Gauge { peak, .. }) => {
            assert!(*peak >= 1, "queue-depth peak never rose above zero")
        }
        other => panic!("serve.queue_depth missing or mistyped: {other:?}"),
    }
    // The forward passes underneath must have fed the kernel counters.
    let gemm_calls =
        snap.counter("tensor.gemm.narrow_calls") + snap.counter("tensor.gemm.wide_calls");
    assert!(
        gemm_calls > 0,
        "no GEMM path counters recorded:\n{}",
        snap.to_table()
    );

    // And the whole registry must export as flat NDJSON objects.
    let nd = snap.to_ndjson();
    assert!(!nd.is_empty());
    for line in nd.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "NDJSON line is not a flat JSON object: {line}"
        );
        assert!(line.contains("\"metric\": \""), "{line}");
    }
}
