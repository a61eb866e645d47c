//! The posit training and serving benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `lenet-quire-train`, `resnet-sim-train`,
//! `lenet16-quire-serve`. With `--trace 0` the run is untraced and prints
//! the end-to-end metrics; with `--trace 1` it wraps the layers and the
//! store in timing pass-throughs, turns the `posit-obs` registry on, and
//! prints the per-layer metrics. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See `NOTES.md`.

mod cpu;
mod serve;
mod train;

use perfbench::stats::Report;
use std::fmt::Display;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Correctness bookkeeping: every check is an attempted operation, every
/// failed check a failed one.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// The end-to-end metrics every workload reports untraced, with units.
/// Times are process CPU time (see [`cpu`]).
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("posit_vs_fp32", "ratio")];

/// Top-level layers of the LeNet and of the scaled ResNet-18.
const LAYERS: &[&str] = &[
    "conv1", "relu1", "pool1", "conv2", "relu2", "pool2", "flatten", "fc1", "relu3", "fc2", "bn1",
    "layer1.0", "layer2.0", "layer3.0", "layer4.0", "avgpool", "fc",
];

/// The per-layer metrics every workload reports traced, with units; a
/// layer a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("quality.loss_final", "nats"),
    ("quality.test_acc", "ratio"),
    ("quality.loss_vs_fp32", "ratio"),
    ("quality.acc_vs_fp32", "ratio"),
    ("throughput.posit_per_cpu_s", "1/s"),
    ("throughput.fp32_per_cpu_s", "1/s"),
    ("train.step_ms.p50", "ms"),
    ("train.step_ms.p90", "ms"),
    ("train.step_ms.mean", "ms"),
    ("train.step_other_ms", "ms"),
    ("train.eval_ms", "ms"),
    ("ckpt.stall_ms", "ms"),
    ("edge.elems_per_step", "count"),
    ("edge.clamped_ratio", "ratio"),
    ("edge.flushed_ratio", "ratio"),
    ("tensor.gemm.narrow_calls", "count"),
    ("tensor.gemm.wide_calls", "count"),
    ("tensor.gemm.kstrip_calls", "count"),
    ("tensor.gemm.macs_per_step", "count"),
    ("tensor.plane.decode.lut8_elems", "count"),
    ("tensor.plane.decode.lut2_elems", "count"),
    ("tensor.plane.decode.swar_elems", "count"),
    ("tensor.plane.decode.twiddle_elems", "count"),
    ("tensor.workers.dispatches", "count"),
    ("tensor.cache.hit_ratio", "ratio"),
    ("store.set_calls", "count"),
    ("store.get_calls", "count"),
    ("store.delete_calls", "count"),
    ("store.bytes_written", "B"),
    ("store.io_ms", "ms"),
    ("serve.low.p50_ms", "ms"),
    ("serve.low.p99_ms", "ms"),
    ("serve.mid.p50_ms", "ms"),
    ("serve.mid.p99_ms", "ms"),
    ("serve.high.p50_ms", "ms"),
    ("serve.high.p99_ms", "ms"),
    ("serve.fail_ratio", "ratio"),
    ("serve.limit_miss_ratio", "ratio"),
    ("serve.over_capacity_rates", "count"),
    ("serve.capacity_rps", "1/s"),
    ("serve.batch_rows_mean", "count"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.submit_us", "us"),
    ("serve.tick_us", "us"),
    ("serve.compute_us_per_sample", "us"),
    ("generator.lag_ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Every metric name of a mode, in report order, with its unit.
fn metric_names(trace: bool) -> Vec<(String, &'static str)> {
    if !trace {
        return END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
    }
    let mut names: Vec<(String, &'static str)> = LAYERS
        .iter()
        .flat_map(|l| [format!("layer.{l}.fwd_ms"), format!("layer.{l}.bwd_ms")])
        .map(|n| (n, "ms"))
        .collect();
    names.extend(PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)));
    names
}

/// Put the workload's metrics in the mode's canonical order. An
/// end-to-end metric is never optional; a per-layer one a workload does
/// not have reads 0. A name outside the lists is a bug; a value that is
/// not a finite number fails a check and reads 0.
fn canonical(measured: &Report, trace: bool, checks: &mut Checks) -> Result<Report, String> {
    let names = metric_names(trace);
    for m in measured.metrics() {
        match names.iter().find(|(n, _)| *n == m.name) {
            Some((_, unit)) if *unit == m.unit => {}
            _ => return Err(format!("unlisted metric {} ({})", m.name, m.unit)),
        }
    }
    let mut out = Report::default();
    for (name, unit) in names {
        let value = match measured.metrics().iter().find(|m| m.name == name) {
            Some(m) => m.value,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} not measured")),
        };
        checks.check(value.is_finite(), format!("{name} is {value}"));
        out.put(name, if value.is_finite() { value } else { 0.0 }, unit);
    }
    Ok(out)
}

fn main() -> ExitCode {
    // One kernel thread: on a few shared cores a parallel region waits for
    // its slowest lane, so its time measures the host's scheduler. The
    // pool reads this once, on its first use.
    std::env::set_var("POSIT_TENSOR_THREADS", "1");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let mut checks = Checks::default();
    match args.workload.as_str() {
        "lenet-quire-train" => train::run(
            &perfbench::recipe::lenet_quire_train,
            &args,
            &mut report,
            &mut checks,
        ),
        "resnet-sim-train" => train::run(
            &perfbench::recipe::resnet_sim_train,
            &args,
            &mut report,
            &mut checks,
        ),
        "lenet16-quire-serve" => serve::run(&args, &mut report, &mut checks),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    }
    match canonical(&report, args.trace, &mut checks) {
        Ok(r) => {
            println!("{}", r.to_json(checks.attempted, checks.failed));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
