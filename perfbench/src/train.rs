//! The two training workloads: `Trainer::run` on a seeded recipe, timed
//! from `on_epoch` CPU-clock readings (untraced) or from layer and store
//! spans (traced).

use crate::{cpu, Args, Checks};
use perfbench::recipe::{self, TrainRecipe};
use perfbench::stats::{mean, median, quantile, Report};
use perfbench::trace::{self, Pass, Recorder, Span, TimedStore};
use posit_data::Dataset;
use posit_store::{MemoryStore, Store};
use posit_train::{EpochStats, RunOptions};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// One `Trainer::run` and its epoch timestamps.
struct Rep {
    epochs: Vec<EpochStats>,
    /// CPU seconds from run start to each `on_epoch` call.
    epoch_end_s: Vec<f64>,
}

impl Rep {
    fn loss_bits(&self) -> Vec<u64> {
        self.epochs.iter().map(|e| e.train_loss.to_bits()).collect()
    }

    /// CPU seconds of each epoch in `phase`; an epoch's time runs from
    /// the previous `on_epoch` (or the run start) to its own, so it
    /// includes the evaluation and the previous epoch's checkpoint.
    fn epoch_s(&self, phase: &str) -> Vec<f64> {
        let mut prev = 0.0;
        let mut out = Vec::new();
        for (e, &end) in self.epochs.iter().zip(&self.epoch_end_s) {
            if e.phase == phase {
                out.push(end - prev);
            }
            prev = end;
        }
        out
    }

    /// Samples per CPU second of each epoch in `phase`.
    fn rates(&self, phase: &str, samples: usize) -> Vec<f64> {
        self.epoch_s(phase)
            .iter()
            .map(|s| samples as f64 / s)
            .collect()
    }
}

/// What the traced rep adds: the span log, the store totals and the obs
/// registry snapshot over the posit epochs.
struct Traced {
    rec: Arc<Recorder>,
    /// `on_epoch` times on the recorder's clock.
    epoch_end_ns: Vec<u64>,
    run_start_ns: u64,
    run_end_ns: u64,
    store: Option<TimedStore<MemoryStore>>,
    obs: posit_obs::Snapshot,
    /// Per-sample forward MACs of the network, from the layer shapes.
    macs_per_sample: f64,
}

fn run_rep(
    recipe: &TrainRecipe,
    train: &Dataset,
    test: &Dataset,
    traced: bool,
) -> (Rep, Option<Traced>) {
    let mut trainer = recipe.trainer();
    let rec = traced.then(|| trace::wrap_layers(trainer.net_mut()));
    let timed_store = (traced && recipe.checkpoint).then(|| TimedStore::new(MemoryStore::new()));
    let plain_store = (!traced && recipe.checkpoint).then(MemoryStore::new);
    let store: Option<&dyn Store> = match (&timed_store, &plain_store) {
        (Some(s), _) => Some(s),
        (_, Some(s)) => Some(s),
        _ => None,
    };
    let warmup = recipe.config.warmup_epochs;
    if traced {
        posit_obs::set_enabled(true);
        posit_obs::Registry::global().reset();
    }
    let mut epoch_end_s = Vec::new();
    let mut epoch_end_ns = Vec::new();
    let start = cpu::seconds();
    let run_start_ns = rec.as_ref().map_or(0, |r| r.now_ns());
    let mut opts = RunOptions::new(train, test, &recipe.config).on_epoch(|s: &EpochStats| {
        if traced && s.epoch + 1 == warmup {
            // Kernel and edge counters cover the posit epochs only.
            posit_obs::Registry::global().reset();
        }
        epoch_end_s.push(cpu::seconds() - start);
        if let Some(r) = &rec {
            epoch_end_ns.push(r.now_ns());
        }
    });
    if let Some(s) = store {
        opts = opts.resumable(s);
    }
    let report = trainer
        .run(opts)
        .expect("a memory store cannot fail a training run");
    let run_end_ns = rec.as_ref().map_or(0, |r| r.now_ns());
    let rep = Rep {
        epochs: report.epochs,
        epoch_end_s,
    };
    let traced = rec.map(|rec| {
        let obs = posit_obs::Registry::global().snapshot();
        posit_obs::set_enabled(false);
        let macs_per_sample = forward_macs_per_sample(trainer.net(), &rec);
        Traced {
            rec,
            epoch_end_ns,
            run_start_ns,
            run_end_ns,
            store: timed_store,
            obs,
            macs_per_sample,
        }
    });
    (rep, traced)
}

/// Forward multiply-accumulates per sample: every weight of rank ≥ 2 is
/// applied once per output position of its top-level layer (a basic
/// block's convolutions all run at the block's output resolution).
pub fn forward_macs_per_sample(net: &posit_nn::Sequential, rec: &Recorder) -> f64 {
    let mut macs = 0.0;
    for (i, layer) in net.layers().iter().enumerate() {
        let out = rec.out_shape(i);
        let positions: usize = if out.len() == 4 { out[2] * out[3] } else { 1 };
        for p in layer.params() {
            if p.value.shape().len() >= 2 {
                macs += (positions * p.value.len()) as f64;
            }
        }
    }
    macs
}

/// Checks every rep must pass: the loss falls from the first to the last
/// epoch, the posit phase is not stuck at ln 10 (a dead net), and at the
/// pinned seed the loss bits match the fingerprint in `fingerprints.txt`.
fn check_rep(rep: &Rep, workload: &str, seed: u64, checks: &mut Checks) {
    let losses: Vec<f64> = rep.epochs.iter().map(|e| e.train_loss).collect();
    let (Some(&l0), Some(&l1)) = (losses.first(), losses.last()) else {
        checks.check(false, "run reported no epochs");
        return;
    };
    checks.check(l1 < l0, format!("loss did not fall: {losses:?}"));
    let dead = (10f64).ln() - 0.05;
    checks.check(
        rep.epochs
            .iter()
            .filter(|e| e.phase == "posit")
            .all(|e| e.train_loss < dead),
        format!("posit-phase loss stuck near ln 10: {losses:?}"),
    );
    check_fingerprint(workload, seed, &rep.loss_bits(), checks);
}

/// The seed of rep `k` of a run: the run's own seed first, then seeds
/// derived from it. Posit kernel speed moves with the weights a seed
/// trains (by up to 15% between seeds), so a run averages several.
fn rep_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        seed
    } else {
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k as u64
    }
}

/// At the pinned seed, the per-epoch loss bits must match the fingerprint
/// kept in `fingerprints.txt`.
pub fn check_fingerprint(workload: &str, seed: u64, bits: &[u64], checks: &mut Checks) {
    if seed != recipe::FINGERPRINT_SEED {
        return;
    }
    let got = recipe::loss_fingerprint(bits);
    match recipe::pinned_fingerprint(workload) {
        Some(want) => checks.check(
            got == want,
            format!("loss fingerprint {got} != pinned {want}"),
        ),
        None => checks.check(false, format!("no pinned fingerprint; measured {got}")),
    }
}

pub fn run(
    make: &dyn Fn(u64) -> TrainRecipe,
    args: &Args,
    report: &mut Report,
    checks: &mut Checks,
) {
    // Set-up: generate the data and build the model, several times.
    let mut setup_s = Vec::new();
    let mut data = None;
    for _ in 0..SETUPS {
        let t0 = cpu::seconds();
        let recipe = make(args.seed);
        let (train, test) = recipe.datasets();
        let trainer = recipe.trainer();
        setup_s.push(cpu::seconds() - t0);
        drop(trainer);
        data = Some((recipe, train, test));
    }
    let (recipe, train, test) = data.expect("at least one set-up");
    let n = recipe.train_n;

    // Untraced reps, one seed each, until the time budget would be
    // exceeded.
    let t0 = Instant::now();
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let r0 = Instant::now();
        let seed = rep_seed(args.seed, reps.len());
        let r = make(seed);
        let (train, test) = r.datasets();
        let rep = run_rep(&r, &train, &test, false).0;
        check_rep(&rep, &args.workload, seed, checks);
        reps.push(rep);
        let took = r0.elapsed().as_secs_f64();
        if t0.elapsed().as_secs_f64() + took > budget {
            break;
        }
    }
    let posit_rates: Vec<f64> = reps.iter().flat_map(|r| r.rates("posit", n)).collect();
    let fp32_rates: Vec<f64> = reps.iter().flat_map(|r| r.rates("fp32", n)).collect();
    if !args.trace {
        // Each rep's posit epochs against its own FP32 warm-up epochs:
        // both run within seconds of each other, so a slow spell of the
        // host moves both.
        let cost: Vec<f64> = reps
            .iter()
            .map(|r| median(&r.epoch_s("posit")) / median(&r.epoch_s("fp32")))
            .collect();
        report.put("setup_s", median(&setup_s), "s");
        report.put("posit_vs_fp32", mean(&cost), "ratio");
        return;
    }
    report.put("throughput.posit_per_cpu_s", median(&posit_rates), "1/s");
    report.put("throughput.fp32_per_cpu_s", median(&fp32_rates), "1/s");

    // Traced rep: same seed, so the loss bits must equal the untraced run's.
    let (rep, traced) = run_rep(&recipe, &train, &test, true);
    let traced = traced.expect("traced rep returns its trace");
    checks.check(
        rep.loss_bits() == reps[0].loss_bits(),
        "loss bits differ between the untraced and traced runs",
    );
    let traced_rate = median(&rep.rates("posit", n));
    report.put(
        "trace.overhead_pct",
        100.0 * (median(&posit_rates) / traced_rate - 1.0),
        "%",
    );
    // The paper's quality claim is relative: the posit run against an
    // FP32 run of the same recipe, seed and initial weights.
    let fp32 = run_rep(&recipe.fp32_reference(), &train, &test, false).0;
    let last = |epochs: &[EpochStats]| epochs.last().cloned().expect("at least one epoch");
    let (posit, fp32) = (last(&rep.epochs), last(&fp32.epochs));
    report.put("quality.loss_final", posit.train_loss, "nats");
    report.put("quality.test_acc", posit.test_acc, "ratio");
    report.put(
        "quality.loss_vs_fp32",
        posit.train_loss / fp32.train_loss,
        "ratio",
    );
    report.put(
        "quality.acc_vs_fp32",
        posit.test_acc / fp32.test_acc,
        "ratio",
    );
    per_layer(&recipe, &rep, &traced, report, checks);
}

/// The trainer's step and its layers over the complete posit-phase steps
/// of the traced rep. A step runs from one first-layer training forward
/// to the next within an epoch, so the last step of each epoch (which
/// would absorb the evaluation) is left out.
fn per_layer(
    recipe: &TrainRecipe,
    rep: &Rep,
    t: &Traced,
    report: &mut Report,
    checks: &mut Checks,
) {
    let spans = t.rec.spans();
    let names = t.rec.names();
    let mut step_ns: Vec<f64> = Vec::new();
    let mut fwd = vec![0.0f64; names.len()];
    let mut bwd = vec![0.0f64; names.len()];
    let mut eval_ms = Vec::new();
    let mut stall_ms = Vec::new();
    let mut negative = 0usize;
    let mut epoch_start = t.run_start_ns;
    let mut next_epoch_first_step: Vec<Option<u64>> = Vec::new();
    for (e, stats) in rep.epochs.iter().enumerate() {
        let end = t.epoch_end_ns[e];
        let in_epoch: Vec<&Span> = spans
            .iter()
            .filter(|s| s.start_ns >= epoch_start && s.end_ns <= end)
            .collect();
        let starts: Vec<u64> = in_epoch
            .iter()
            .filter(|s| s.layer == 0 && s.pass == Pass::TrainForward)
            .map(|s| s.start_ns)
            .collect();
        next_epoch_first_step.push(starts.first().copied());
        if stats.phase == "posit" {
            for w in starts.windows(2) {
                let (a, b) = (w[0], w[1]);
                let mut layers = 0.0;
                for s in in_epoch.iter().filter(|s| s.start_ns >= a && s.end_ns <= b) {
                    let d = (s.end_ns - s.start_ns) as f64;
                    match s.pass {
                        Pass::TrainForward => fwd[s.layer] += d,
                        Pass::Backward => bwd[s.layer] += d,
                        Pass::EvalForward => continue,
                    }
                    layers += d;
                }
                let step = (b - a) as f64;
                if step < layers {
                    negative += 1;
                }
                step_ns.push(step);
            }
            if let Some(first_eval) = in_epoch
                .iter()
                .find(|s| s.pass == Pass::EvalForward && s.layer == 0)
            {
                eval_ms.push((end - first_eval.start_ns) as f64 / 1e6);
            }
        }
        epoch_start = end;
    }
    // Checkpoint stall: from an `on_epoch` return to the next epoch's
    // first step (or the end of the run), over the posit epochs.
    for (e, stats) in rep.epochs.iter().enumerate() {
        if stats.phase != "posit" {
            continue;
        }
        let resume = next_epoch_first_step
            .get(e + 1)
            .copied()
            .flatten()
            .unwrap_or(t.run_end_ns);
        stall_ms.push((resume - t.epoch_end_ns[e]) as f64 / 1e6);
    }
    let steps = step_ns.len().max(1) as f64;
    let step_mean_ms = mean(&step_ns) / 1e6;
    let mut layer_sum_ms = 0.0;
    for (i, name) in names.iter().enumerate() {
        let f = fwd[i] / steps / 1e6;
        let b = bwd[i] / steps / 1e6;
        layer_sum_ms += f + b;
        report.put(format!("layer.{name}.fwd_ms"), f, "ms");
        report.put(format!("layer.{name}.bwd_ms"), b, "ms");
    }
    let other_ms = step_mean_ms - layer_sum_ms;
    checks.check(
        negative == 0 && other_ms >= 0.0 && !step_ns.is_empty(),
        format!("attribution: {negative} steps with layers > step, residual {other_ms} ms"),
    );
    report.put("train.step_ms.p50", median(&step_ns) / 1e6, "ms");
    report.put("train.step_ms.p90", quantile(&step_ns, 0.9) / 1e6, "ms");
    report.put("train.step_ms.mean", step_mean_ms, "ms");
    report.put("train.step_other_ms", other_ms, "ms");
    report.put("train.eval_ms", mean(&eval_ms), "ms");
    report.put("ckpt.stall_ms", mean(&stall_ms), "ms");

    // Counters over the posit epochs (training, evaluation, checkpoint).
    let posit_epochs = rep.epochs.iter().filter(|e| e.phase == "posit").count();
    let posit_steps = (posit_epochs * recipe.steps_per_epoch()) as f64;
    kernel_metrics(&t.obs, posit_steps, report);
    report.put(
        "tensor.gemm.macs_per_step",
        3.0 * t.macs_per_sample * recipe.config.batch_size as f64,
        "count",
    );
    if let Some(store) = &t.store {
        let c = store.counts();
        let epochs = rep.epochs.len() as f64;
        let per = |x: &std::sync::atomic::AtomicU64| x.load(Ordering::Relaxed) as f64 / epochs;
        report.put("store.set_calls", per(&c.sets), "count");
        report.put("store.get_calls", per(&c.gets), "count");
        report.put("store.delete_calls", per(&c.deletes), "count");
        report.put("store.bytes_written", per(&c.bytes_written), "B");
        report.put("store.io_ms", per(&c.io_ns) / 1e6, "ms");
    }
}

/// Kernel-path and Fig. 3 edge counters from the obs registry, per step.
pub fn kernel_metrics(obs: &posit_obs::Snapshot, steps: f64, report: &mut Report) {
    for name in [
        "tensor.gemm.narrow_calls",
        "tensor.gemm.wide_calls",
        "tensor.gemm.kstrip_calls",
        "tensor.plane.decode.lut8_elems",
        "tensor.plane.decode.lut2_elems",
        "tensor.plane.decode.swar_elems",
        "tensor.plane.decode.twiddle_elems",
        "tensor.workers.dispatches",
    ] {
        report.put(name, obs.counter(name) as f64 / steps, "count");
    }
    let hits = obs.counter("tensor.cache.hits") as f64;
    let misses = obs.counter("tensor.cache.misses") as f64;
    let lookups = hits + misses;
    report.put(
        "tensor.cache.hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        "ratio",
    );
    let sum = |suffix: &str| -> f64 {
        obs.rows
            .iter()
            .filter(|r| r.name.starts_with("edge.") && r.name.ends_with(suffix))
            .map(|r| obs.counter(&r.name) as f64)
            .fold(0.0, |a, b| a + b)
    };
    let elems = sum(".elems");
    let ratio = |x: f64| if elems > 0.0 { x / elems } else { 0.0 };
    report.put("edge.elems_per_step", elems / steps, "count");
    report.put("edge.clamped_ratio", ratio(sum(".clamped")), "ratio");
    report.put("edge.flushed_ratio", ratio(sum(".flushed")), "ratio");
}
