//! The serving workload: a briefly trained, calibrated posit(16,1) LeNet
//! (the same model at every seed; the seed draws the requests) is
//! checkpointed and restored with `InferenceServer::from_store`.
//! Untraced, single-sample requests are served one at a time, and the
//! process CPU time per request is set against an FP32 server's in
//! alternating windows. Traced, the server is driven open loop with
//! seeded Poisson arrivals.
//!
//! One virtual tick of the server is [`TICK_S`] of wall-clock time. Each
//! request is timed from its due time (not from when the generator got
//! round to submitting it) to the moment its reply could be polled, and
//! every reply's logits are checked against a direct batch-1 forward of
//! the same sample through a second copy of the checkpointed model.

use crate::{cpu, Args, Checks};
use perfbench::recipe::{self, SIDE};
use perfbench::stats::{mean, median, quantile, Report};
use perfbench::trace::{self, Pass, Recorder};
use posit_data::Dataset;
use posit_nn::{checkpoint, Layer};
use posit_serve::{
    InferenceReply, InferenceServer, Rejected, RequestId, ServeConfig, ServeError, ServedModel,
};
use posit_store::MemoryStore;
use posit_tensor::rng::Prng;
use posit_tensor::Tensor;
use posit_train::{InputQuantizer, Phase, RunOptions, Trainer};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Wall-clock length of one virtual tick.
const TICK_S: f64 = 1e-3;
/// Offered rates near 25%, 60% and 90% of the highest rate whose p99
/// stays within [`LIMIT_MS`] (≈700 requests/s on a 2-core x86-64 box; the closed-
/// loop capacity `serve.capacity_rps` is ≈1200/s there).
const RATES: [(&str, f64); 3] = [("low", 175.0), ("mid", 420.0), ("high", 630.0)];
/// Wall-clock length of one batch-1 window of the posit server and of
/// the FP32 server (≈17× cheaper per request) that follows it.
const POSIT_WINDOW_S: f64 = 0.4;
const FP32_WINDOW_S: f64 = 0.1;
/// The latency limit: a request misses it when its reply comes later, or
/// when it is shed or expires.
const LIMIT_MS: f64 = 20.0;
/// Checkpoint prefixes of the served posit model and its FP32 baseline.
const PREFIX: &str = "served";
const FP32_PREFIX: &str = "fp32";
/// Sample of the pool that calibrates every server's input edge and the
/// reference forward.
const CALIBRATION_SAMPLE: usize = 0;

fn config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        max_wait_ticks: 1,
        max_queue: 256,
        deadline_ticks: Some(40),
        batches_per_tick: None,
    }
}

/// The request pool and the checkpoints set-up produces.
struct Setup {
    store: MemoryStore,
    samples: Vec<Tensor>,
    labels: Vec<usize>,
}

/// The served posit model and its FP32 baseline, trained briefly on the
/// same recipe, and the per-epoch loss bits of the posit run.
struct Trained {
    posit: Trainer,
    fp32: Trainer,
    loss_bits: Vec<u64>,
}

fn train_models() -> Trained {
    let recipe = recipe::lenet16_serve_model(recipe::SERVED_MODEL_SEED);
    let (train, test) = recipe.datasets();
    let fit = |r: &recipe::TrainRecipe| {
        let mut trainer = r.trainer();
        let report = trainer
            .run(RunOptions::new(&train, &test, &r.config))
            .expect("a run without a store cannot fail");
        let bits = report.epochs.iter().map(|e| e.train_loss.to_bits());
        (bits.collect(), trainer)
    };
    let (loss_bits, posit) = fit(&recipe);
    let (_, fp32) = fit(&recipe.fp32_reference());
    Trained {
        posit,
        fp32,
        loss_bits,
    }
}

/// Set-up: generate the request pool, checkpoint both trained models and
/// restore a server from each.
fn setup(seed: u64, trained: &Trained) -> (Setup, InferenceServer, InferenceServer) {
    let pool = recipe::serve_requests(seed);
    let store = MemoryStore::new();
    for (trainer, prefix) in [(&trained.posit, PREFIX), (&trained.fp32, FP32_PREFIX)] {
        checkpoint::write(
            trainer.net(),
            checkpoint::Sink::Store {
                store: &store,
                prefix,
            },
            checkpoint::Version::V2,
        )
        .expect("checkpoint into a memory store");
    }
    let server = restore(&store, false).0;
    let shell = posit_models::lenet(
        &mut posit_models::PlainBuilder,
        3,
        SIDE,
        recipe::CLASSES,
        &mut Prng::seed(0),
    );
    let fp32 = InferenceServer::from_store(
        ServedModel::fp32(shell),
        &store,
        FP32_PREFIX,
        &[3, SIDE, SIDE],
        config(),
    )
    .expect("restore the FP32 model");
    let (samples, labels) = rows(&pool);
    let setup = Setup {
        store,
        samples,
        labels,
    };
    (setup, server, fp32)
}

/// A server restored from the posit checkpoint; with `traced`, its
/// top-level layers are wrapped in timing pass-throughs first.
fn restore(store: &MemoryStore, traced: bool) -> (InferenceServer, Option<Arc<Recorder>>) {
    let (mut net, control) = recipe::served_lenet_shell();
    let rec = traced.then(|| trace::wrap_layers(&mut net));
    let server = InferenceServer::from_store(
        ServedModel::quantized(net, control, recipe::serve_spec()),
        store,
        PREFIX,
        &[3, SIDE, SIDE],
        config(),
    )
    .expect("restore the served model");
    (server, rec)
}

fn rows(data: &Dataset) -> (Vec<Tensor>, Vec<usize>) {
    let x = data.features();
    let samples = (0..data.len())
        .map(|i| x.slice_rows(i, i + 1).reshape(&[3, SIDE, SIDE]))
        .collect();
    (samples, data.labels().to_vec())
}

fn bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|v| v.to_bits()).collect()
}

/// Logits bits of a direct batch-1 forward of every sample through a
/// second copy of the checkpointed model, with the input edge calibrated
/// on [`CALIBRATION_SAMPLE`] as the servers' are.
fn reference_logits(store: &MemoryStore, samples: &[Tensor]) -> Vec<Vec<u32>> {
    let (mut net, control) = recipe::served_lenet_shell();
    checkpoint::read(
        &mut net,
        checkpoint::Source::Store {
            store,
            prefix: PREFIX,
        },
    )
    .expect("restore the reference model");
    control.set_phase(Phase::Posit);
    let spec = recipe::serve_spec();
    let mut iq = InputQuantizer::new();
    let row = |s: &Tensor| s.clone().reshape(&[1, 3, SIDE, SIDE]);
    iq.apply(&mut row(&samples[CALIBRATION_SAMPLE]), &spec, Phase::Posit);
    samples
        .iter()
        .map(|s| {
            let mut x = row(s);
            iq.apply(&mut x, &spec, Phase::Posit);
            bits(net.forward(&x, false).into_f32().data())
        })
        .collect()
}

/// Serve [`CALIBRATION_SAMPLE`] alone: the first sample a server sees
/// freezes its input-edge scale.
fn calibrate(server: &mut InferenceServer, setup: &Setup, refs: &[Vec<u32>], checks: &mut Checks) {
    let id = server
        .submit(&setup.samples[CALIBRATION_SAMPLE])
        .expect("submit");
    server.flush_all().expect("flush");
    let ok = matches!(server.poll(id), Some(Ok(r)) if bits(&r.logits) == refs[CALIBRATION_SAMPLE]);
    checks.check(ok, "calibration reply differs from a direct forward");
}

/// Check one reply against the direct forward of its sample.
fn check_reply(reply: &InferenceReply, idx: usize, refs: &[Vec<u32>], checks: &mut Checks) {
    checks.check(
        bits(&reply.logits) == refs[idx],
        format_args!("served logits of sample {idx} differ from a direct forward"),
    );
}

/// A seeded Poisson arrival schedule: due times and sample indices.
struct Arrivals {
    rng: Prng,
    rate: f64,
    n: usize,
    t: f64,
}

impl Arrivals {
    fn new(seed: u64, rate: f64, n: usize) -> Arrivals {
        Arrivals {
            rng: Prng::seed(seed),
            rate,
            n,
            t: 0.0,
        }
    }

    fn next(&mut self) -> (f64, usize) {
        let u = f64::from(self.rng.uniform(0.0, 1.0));
        self.t += -(1.0 - u).max(1e-12).ln() / self.rate;
        (self.t, self.rng.below(self.n))
    }
}

/// What one open-loop phase measured.
#[derive(Default)]
struct PhaseStats {
    offered: usize,
    /// Due-to-reply latency of each served request, ms.
    latency_ms: Vec<f64>,
    /// Requests shed at admission or expired in the queue.
    missed: usize,
    /// How late the generator submitted each request, ms.
    lag_ms: Vec<f64>,
    /// Queue ticks of each served request.
    queue_ticks: Vec<f64>,
    /// Batch size each served request rode in.
    batch_rows: Vec<f64>,
    submit_ns: Vec<f64>,
    tick_ns: Vec<f64>,
    depth_mid: usize,
    depth_end: usize,
}

impl PhaseStats {
    /// The backlog grew: the queue at the end of the arrivals is deeper
    /// than at mid-phase (by more than one batch of jitter).
    fn over_capacity(&self) -> bool {
        self.depth_end > self.depth_mid + config().max_batch
    }
}

/// Outstanding requests: id, due time, sample index.
type Outstanding = VecDeque<(RequestId, f64, usize)>;

/// Drive `server` open loop at `rate` requests/s for `seconds` of
/// arrivals, then drain.
fn drive(
    server: &mut InferenceServer,
    rate: f64,
    seconds: f64,
    seed: u64,
    setup: &Setup,
    refs: &[Vec<u32>],
    checks: &mut Checks,
) -> PhaseStats {
    let mut st = PhaseStats::default();
    let mut arrivals = Arrivals::new(seed, rate, setup.samples.len());
    let (mut due, mut idx) = arrivals.next();
    let mut outstanding = Outstanding::new();
    let mut ticks = 0u64;
    let (mut mid_taken, mut end_taken) = (false, false);
    let start = Instant::now();
    let now = || start.elapsed().as_secs_f64();
    let drain_deadline = seconds + 2.0;
    loop {
        let mut t = now();
        while due <= t && due < seconds {
            st.offered += 1;
            let t0 = Instant::now();
            let r = server.submit(&setup.samples[idx]);
            st.submit_ns.push(t0.elapsed().as_nanos() as f64);
            st.lag_ms.push((t - due) * 1e3);
            match r {
                Ok(id) => outstanding.push_back((id, due, idx)),
                Err(ServeError::Rejected(Rejected::Overloaded)) => st.missed += 1,
                Err(e) => checks.check(false, format!("submit failed: {e}")),
            }
            t = now();
            collect(server, &mut outstanding, t, refs, &mut st, checks);
            (due, idx) = arrivals.next();
        }
        while ticks < (t / TICK_S) as u64 {
            let t0 = Instant::now();
            if let Err(e) = server.tick() {
                checks.check(false, format!("tick failed: {e}"));
            }
            st.tick_ns.push(t0.elapsed().as_nanos() as f64);
            ticks += 1;
            t = now();
            collect(server, &mut outstanding, t, refs, &mut st, checks);
        }
        if !mid_taken && t >= seconds / 2.0 {
            st.depth_mid = server.queued();
            mid_taken = true;
        }
        if due >= seconds {
            if !end_taken {
                st.depth_end = server.queued();
                end_taken = true;
            }
            if outstanding.is_empty() {
                break;
            }
            if t > drain_deadline {
                if let Err(e) = server.flush_all() {
                    checks.check(false, format!("flush failed: {e}"));
                }
                collect(server, &mut outstanding, now(), refs, &mut st, checks);
                break;
            }
        }
        // Busy-wait for the next arrival or tick boundary: a sleeping
        // generator wakes up to several ms late when the host is busy, and
        // that delay would count as serving latency.
        std::hint::spin_loop();
    }
    checks.check(
        outstanding.is_empty(),
        format!("{} requests never resolved", outstanding.len()),
    );
    st
}

/// Poll replies in FIFO order (batches and deadline sweeps both take the
/// queue front) and check each against the direct forward.
fn collect(
    server: &mut InferenceServer,
    outstanding: &mut Outstanding,
    t: f64,
    refs: &[Vec<u32>],
    st: &mut PhaseStats,
    checks: &mut Checks,
) {
    while let Some(&(id, due, idx)) = outstanding.front() {
        match server.poll(id) {
            None => break,
            Some(Err(_expired)) => st.missed += 1,
            Some(Ok(reply)) => {
                st.latency_ms.push((t - due) * 1e3);
                st.queue_ticks.push(reply.queue_ticks as f64);
                st.batch_rows.push(reply.batch_size as f64);
                check_reply(&reply, idx, refs, checks);
            }
        }
        outstanding.pop_front();
    }
}

/// Closed-loop capacity: submit back to back (full batches run eagerly
/// inside `submit`), in requests completed per second — the median over
/// five equal windows, `seconds` in all. With `refs`, every reply is
/// checked against the direct forward.
fn capacity(
    server: &mut InferenceServer,
    samples: &[Tensor],
    refs: Option<&[Vec<u32>]>,
    seconds: f64,
    checks: &mut Checks,
) -> f64 {
    const WINDOWS: usize = 5;
    let mut rates = Vec::new();
    let mut i = 0usize;
    let mut take = |reply: Option<Result<InferenceReply, Rejected>>, idx: usize| {
        if let (Some(refs), Some(Ok(r))) = (refs, &reply) {
            check_reply(r, idx, refs, checks);
        }
        reply.is_some()
    };
    for _ in 0..WINDOWS {
        let start = Instant::now();
        let mut ids = VecDeque::new();
        let mut done = 0usize;
        while start.elapsed().as_secs_f64() < seconds / WINDOWS as f64 {
            let idx = i % samples.len();
            ids.push_back((server.submit(&samples[idx]).expect("submit"), idx));
            i += 1;
            while let Some(&(id, idx)) = ids.front() {
                if !take(server.poll(id), idx) {
                    break;
                }
                done += 1;
                ids.pop_front();
            }
        }
        rates.push(done as f64 / start.elapsed().as_secs_f64());
        server.flush_all().expect("flush");
        for (id, idx) in ids {
            take(server.poll(id), idx);
        }
    }
    median(&rates)
}

/// Closed loop at batch 1: one request at a time is submitted, flushed
/// and polled for `seconds` of wall time, starting at pool sample `next`.
/// Returns requests served per CPU second. With `refs`, every reply is
/// checked against the direct forward.
fn batch1_rate(
    server: &mut InferenceServer,
    samples: &[Tensor],
    refs: Option<&[Vec<u32>]>,
    next: &mut usize,
    seconds: f64,
    checks: &mut Checks,
) -> f64 {
    let wall = Instant::now();
    let cpu0 = cpu::seconds();
    let mut served = 0usize;
    while wall.elapsed().as_secs_f64() < seconds {
        let idx = *next % samples.len();
        *next += 1;
        let id = server.submit(&samples[idx]).expect("submit");
        server.flush_all().expect("flush");
        match (server.poll(id), refs) {
            (Some(Ok(reply)), Some(refs)) => check_reply(&reply, idx, refs, checks),
            (Some(Ok(_)), None) => {}
            _ => checks.check(false, format_args!("batch-1 request {idx} not served")),
        }
        served += 1;
    }
    served as f64 / (cpu::seconds() - cpu0)
}

/// Batch-1 windows of the posit server and the FP32 server, alternating
/// for `seconds` of wall time, so a slow spell of the host lands on both
/// sides of the cost ratio. Returns each window's posit and FP32 requests
/// per CPU second, and each pair's posit ÷ FP32 CPU time per request.
fn alternate(
    server: &mut InferenceServer,
    fp32: &mut InferenceServer,
    setup: &Setup,
    refs: &[Vec<u32>],
    seconds: f64,
    checks: &mut Checks,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (mut posit_rates, mut fp32_rates, mut cost) = (Vec::new(), Vec::new(), Vec::new());
    let (mut next, mut fp32_next) = (0, 0);
    let pairs = ((seconds / (POSIT_WINDOW_S + FP32_WINDOW_S)) as usize).max(1);
    for _ in 0..pairs {
        let p = batch1_rate(
            server,
            &setup.samples,
            Some(refs),
            &mut next,
            POSIT_WINDOW_S,
            checks,
        );
        let f = batch1_rate(
            fp32,
            &setup.samples,
            None,
            &mut fp32_next,
            FP32_WINDOW_S,
            checks,
        );
        posit_rates.push(p);
        fp32_rates.push(f);
        cost.push(f / p);
    }
    (posit_rates, fp32_rates, cost)
}

/// Logits of every pool sample, served once each by `server`.
fn serve_pool(server: &mut InferenceServer, samples: &[Tensor]) -> Vec<Vec<f32>> {
    let ids: Vec<RequestId> = samples
        .iter()
        .map(|x| server.submit(x).expect("submit"))
        .collect();
    server.flush_all().expect("flush");
    ids.into_iter()
        .map(|id| match server.poll(id) {
            Some(Ok(r)) => r.logits,
            _ => panic!("a flush without deadlines pending serves every request"),
        })
        .collect()
}

/// Mean softmax cross-entropy and top-1 accuracy of logits rows.
fn quality(logits: &[Vec<f32>], labels: &[usize]) -> (f64, f64) {
    let mut loss = 0.0;
    let mut hits = 0usize;
    for (row, &label) in logits.iter().zip(labels) {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
        let z: f64 = row.iter().map(|&v| (v as f64 - m).exp()).sum();
        loss += z.ln() + m - row[label] as f64;
        let best = (0..row.len())
            .max_by(|&a, &b| row[a].total_cmp(&row[b]).then(b.cmp(&a)))
            .expect("non-empty logits");
        hits += usize::from(best == label);
    }
    let n = logits.len() as f64;
    (loss / n, hits as f64 / n)
}

fn phase_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (k + 1)
}

pub fn run(args: &Args, report: &mut Report, checks: &mut Checks) {
    let trained = train_models();
    crate::train::check_fingerprint(
        &args.workload,
        recipe::SERVED_MODEL_SEED,
        &trained.loss_bits,
        checks,
    );
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let t0 = cpu::seconds();
        let s = setup(args.seed, &trained);
        setup_s.push(cpu::seconds() - t0);
        built = Some(s);
    }
    let (setup, mut server, mut fp32) = built.expect("at least one set-up");
    let refs = reference_logits(&setup.store, &setup.samples);
    calibrate(&mut server, &setup, &refs, checks);
    let s = args.seconds;
    let high_rate = RATES[2].1;

    if !args.trace {
        let (_, _, cost) = alternate(&mut server, &mut fp32, &setup, &refs, s, checks);
        report.put("setup_s", median(&setup_s), "s");
        report.put("posit_vs_fp32", median(&cost), "ratio");
        return;
    }
    let (posit_rates, fp32_rates, _) =
        alternate(&mut server, &mut fp32, &setup, &refs, s * 0.2, checks);
    report.put("throughput.posit_per_cpu_s", median(&posit_rates), "1/s");
    report.put("throughput.fp32_per_cpu_s", median(&fp32_rates), "1/s");

    // Traced run: quality against the FP32 baseline, the fixed-rate
    // table untraced, then one traced phase.
    let posit_logits: Vec<Vec<f32>> = refs
        .iter()
        .map(|r| r.iter().map(|&b| f32::from_bits(b)).collect())
        .collect();
    let (posit_loss, posit_acc) = quality(&posit_logits, &setup.labels);
    let (fp32_loss, fp32_acc) = quality(&serve_pool(&mut fp32, &setup.samples), &setup.labels);
    report.put("quality.loss_final", posit_loss, "nats");
    report.put("quality.test_acc", posit_acc, "ratio");
    report.put("quality.loss_vs_fp32", posit_loss / fp32_loss, "ratio");
    report.put("quality.acc_vs_fp32", posit_acc / fp32_acc, "ratio");
    let mut phases = Vec::new();
    for (k, (name, rate)) in RATES.iter().enumerate() {
        let seed = phase_seed(args.seed, k as u64);
        let st = drive(&mut server, *rate, s * 0.15, seed, &setup, &refs, checks);
        report.put(format!("serve.{name}.p50_ms"), median(&st.latency_ms), "ms");
        report.put(
            format!("serve.{name}.p99_ms"),
            quantile(&st.latency_ms, 0.99),
            "ms",
        );
        phases.push(st);
    }
    let offered: usize = phases.iter().map(|p| p.offered).sum();
    let missed: usize = phases.iter().map(|p| p.missed).sum();
    report.put("serve.fail_ratio", missed as f64 / offered as f64, "ratio");
    let late: usize = phases
        .iter()
        .map(|p| p.latency_ms.iter().filter(|&&l| l > LIMIT_MS).count())
        .sum();
    report.put(
        "serve.limit_miss_ratio",
        (late + missed) as f64 / offered as f64,
        "ratio",
    );
    let over = phases.iter().filter(|p| p.over_capacity()).count();
    report.put("serve.over_capacity_rates", over as f64, "count");
    let all = |f: fn(&PhaseStats) -> &Vec<f64>| -> Vec<f64> {
        phases.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    report.put(
        "generator.lag_ms_p99",
        quantile(&all(|p| &p.lag_ms), 0.99),
        "ms",
    );
    report.put(
        "serve.queue_wait_ms_p50",
        median(&all(|p| &p.queue_ticks)) * TICK_S * 1e3,
        "ms",
    );
    report.put(
        "serve.batch_rows_mean",
        mean(&all(|p| &p.batch_rows)),
        "count",
    );
    report.put("serve.submit_us", mean(&all(|p| &p.submit_ns)) / 1e3, "us");
    report.put("serve.tick_us", mean(&all(|p| &p.tick_ns)) / 1e3, "us");
    let untraced_cap = capacity(&mut server, &setup.samples, Some(&refs), s * 0.1, checks);
    report.put("serve.capacity_rps", untraced_cap, "1/s");

    let (mut traced, rec) = restore(&setup.store, true);
    let rec = rec.expect("traced server has a recorder");
    calibrate(&mut traced, &setup, &refs, checks);
    rec.clear();
    let batches_before = traced.stats().batches;
    posit_obs::set_enabled(true);
    posit_obs::Registry::global().reset();
    let seed = phase_seed(args.seed, 2);
    drive(
        &mut traced,
        high_rate,
        s * 0.25,
        seed,
        &setup,
        &refs,
        checks,
    );
    let obs = posit_obs::Registry::global().snapshot();
    let stats = traced.stats();
    let batches = (stats.batches - batches_before).max(1) as f64;
    layer_metrics(&rec, batches, report);
    let macs_per_sample =
        crate::train::forward_macs_per_sample(&recipe::served_lenet_shell().0, &rec);
    let traced_cap = capacity(&mut traced, &setup.samples, Some(&refs), s * 0.1, checks);
    posit_obs::set_enabled(false);
    report.put(
        "trace.overhead_pct",
        100.0 * (untraced_cap / traced_cap - 1.0),
        "%",
    );
    report.put(
        "serve.compute_us_per_sample",
        stats.total_compute_ns as f64 / stats.completed.max(1) as f64 / 1e3,
        "us",
    );
    crate::train::kernel_metrics(&obs, batches, report);
    report.put(
        "tensor.gemm.macs_per_step",
        macs_per_sample * stats.mean_batch,
        "count",
    );
}

/// Per-layer forward time per executed batch.
fn layer_metrics(rec: &Recorder, batches: f64, report: &mut Report) {
    let spans = rec.spans();
    for (i, name) in rec.names().iter().enumerate() {
        let ns: f64 = spans
            .iter()
            .filter(|s| s.layer == i && s.pass == Pass::EvalForward)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum();
        report.put(format!("layer.{name}.fwd_ms"), ns / batches / 1e6, "ms");
    }
}
