//! `Layer::backward_params` ≡ `Layer::backward` on everything but the
//! input gradient.
//!
//! The trainer runs the parameters-only backward on the whole network, so
//! the first layer skips its `E^{l-1}` GEMM (and, where that is side-effect
//! free, its Fig. 3b error edge). Two identically initialised nets — one
//! stepped through `backward`, one through `backward_params` — must
//! produce the same loss bits, the same parameter-gradient bits and the
//! same `state_entries` bytes after every step, on every backend, through
//! all three phases, and under stochastic rounding (which must fall back
//! to the full path, or its SR stream would drift).

use posit::Rounding;
use posit_nn::{Layer, Sequential, Sgd, SoftmaxCrossEntropy};
use posit_tensor::rng::Prng;
use posit_tensor::Tensor;
use posit_train::{ComputeBackend, Phase, QuantBuilder, QuantControl, QuantSpec};

#[derive(Clone, Copy, Debug)]
enum Model {
    Lenet,
    Mlp,
}

fn build(model: Model, spec: &QuantSpec) -> (Sequential, QuantControl) {
    let mut qb = QuantBuilder::new(spec.clone());
    let control = qb.control();
    let mut rng = Prng::seed(5);
    let net = match model {
        Model::Lenet => posit_models::lenet(&mut qb, 3, 16, 10, &mut rng),
        Model::Mlp => posit_models::mlp(&mut qb, &[24, 16, 10], &mut rng),
    };
    (net, control)
}

/// Everything a step leaves behind that the next step (or a checkpoint)
/// can see: loss bits, gradient bits, non-parameter state.
#[derive(Debug, PartialEq)]
struct Trace {
    loss: u64,
    grads: Vec<Vec<u32>>,
    state: Vec<(String, Vec<u8>)>,
}

/// One optimizer step; quire-backend posit steps run the exact shard
/// protocol, like the trainer.
fn step(
    net: &mut Sequential,
    x: &Tensor,
    t: &[usize],
    opt: &mut Sgd,
    exact: bool,
    params_only: bool,
) -> Trace {
    let loss_fn = SoftmaxCrossEntropy::new();
    opt.zero_grad(&mut net.params_mut());
    if exact {
        net.begin_grad_batch(t.len());
        net.begin_grad_shard();
    }
    let y = net.forward(x, true).into_f32();
    let (loss, g) = loss_fn.forward(&y, t);
    if params_only {
        net.backward_params(&g);
    } else {
        let _ = net.backward(&g);
    }
    if exact {
        net.end_grad_batch();
    }
    let trace = Trace {
        loss: loss.to_bits(),
        grads: net
            .params()
            .iter()
            .map(|p| p.grad.data().iter().map(|v| v.to_bits()).collect())
            .collect(),
        state: net.state_entries(),
    };
    opt.step(&mut net.params_mut());
    trace
}

/// Step a `backward` net and a `backward_params` net through `phases`,
/// comparing their traces after every step.
fn check(model: Model, backend: ComputeBackend, rounding: Rounding, phases: &[Phase]) {
    let spec = QuantSpec::cifar_paper()
        .with_backend(backend)
        .with_rounding(rounding);
    let mut rng = Prng::seed(9);
    let n = 4;
    let x = match model {
        Model::Lenet => Tensor::rand_normal(&[n, 3, 16, 16], 0.0, 1.0, &mut rng),
        Model::Mlp => Tensor::rand_normal(&[n, 24], 0.0, 1.0, &mut rng),
    };
    let t: Vec<usize> = (0..n).map(|i| (i * 3) % 10).collect();
    let (mut full, full_ctl) = build(model, &spec);
    let (mut skip, skip_ctl) = build(model, &spec);
    let mut full_opt = Sgd::new(0.05).momentum(0.5);
    let mut skip_opt = Sgd::new(0.05).momentum(0.5);
    for (i, &phase) in phases.iter().enumerate() {
        full_ctl.set_phase(phase);
        skip_ctl.set_phase(phase);
        let exact = phase == Phase::Posit && backend == ComputeBackend::PositQuire;
        let a = step(&mut full, &x, &t, &mut full_opt, exact, false);
        let b = step(&mut skip, &x, &t, &mut skip_opt, exact, true);
        assert_eq!(
            a, b,
            "{model:?} {backend:?} {rounding:?}: step {i} ({phase:?}) diverged"
        );
    }
}

#[test]
fn params_only_backward_matches_the_full_backward() {
    posit_obs::set_enabled(true);
    let skipped = || {
        posit_obs::Registry::global()
            .snapshot()
            .counter("nn.input_grad_skipped")
    };
    let before = skipped();
    let calibrated = [Phase::Fp32, Phase::Calibrate, Phase::Posit, Phase::Posit];
    // No calibrate epoch: the first posit step calibrates its error scale
    // lazily, which the parameters-only path must not skip.
    let lazy = [Phase::Posit, Phase::Posit];
    for model in [Model::Lenet, Model::Mlp] {
        for backend in [
            ComputeBackend::F32,
            ComputeBackend::PositEmulated,
            ComputeBackend::PositQuire,
        ] {
            for rounding in [Rounding::NearestEven, Rounding::Stochastic] {
                check(model, backend, rounding, &calibrated);
            }
            check(model, backend, Rounding::NearestEven, &lazy);
        }
    }
    posit_obs::set_enabled(false);
    assert!(skipped() > before, "no layer took the parameters-only path");
}
