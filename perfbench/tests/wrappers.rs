//! The timing wrappers are pass-throughs: a run with every top-level layer
//! wrapped in `TimedLayer` and the checkpoint store in `TimedStore` gives
//! the same per-epoch losses and the same checkpoint bytes, bit for bit,
//! as an unwrapped run.
//!
//! The run shards each posit-phase batch over two exact data-parallel
//! lanes, so a wrapper that dropped `begin_grad_batch`,
//! `begin_grad_shard` or `end_grad_batch` would change the gradients; the
//! checkpoint round trip exercises `params`, `state_entries` and
//! `restore_state_entries`.

use perfbench::trace::{wrap_layers, TimedStore};
use posit_data::SyntheticCifar;
use posit_nn::{checkpoint, Layer};
use posit_store::{MemoryStore, Store};
use posit_train::{ComputeBackend, QuantSpec, RunOptions, TrainConfig, Trainer};

fn config() -> TrainConfig {
    TrainConfig {
        warmup_epochs: 1,
        batch_size: 16,
        ..TrainConfig::cifar_scaled(8, 3)
    }
    .with_quant(QuantSpec::cifar_paper().with_backend(ComputeBackend::PositQuire))
    .with_data_parallel(2)
    .with_seed(7)
}

/// Per-epoch loss bits and every checkpoint key with its bytes.
fn run(wrapped: bool) -> (Vec<u64>, Vec<(String, Vec<u8>)>) {
    let cfg = config();
    let gen = SyntheticCifar::new(16, 7);
    let (train, test) = (gen.train(64, 7), gen.test(32, 7));
    let mut trainer = Trainer::lenet(&cfg, 3, 16);
    let timed = TimedStore::new(MemoryStore::new());
    let plain = MemoryStore::new();
    let store: &dyn Store = if wrapped {
        let rec = wrap_layers(trainer.net_mut());
        assert_eq!(rec.names().len(), trainer.net().len());
        &timed
    } else {
        &plain
    };
    let report = trainer
        .run(RunOptions::new(&train, &test, &cfg).resumable(store))
        .expect("memory store");
    let losses = report
        .epochs
        .iter()
        .map(|e| e.train_loss.to_bits())
        .collect();
    let mem = if wrapped { timed.inner() } else { &plain };
    let bytes = mem
        .list()
        .expect("list")
        .into_iter()
        .map(|k| {
            let v = mem.get(&k).expect("get").expect("listed key");
            (k, v)
        })
        .collect();
    (losses, bytes)
}

#[test]
fn wrapped_run_is_bit_identical() {
    let (plain_losses, plain_bytes) = run(false);
    let (wrapped_losses, wrapped_bytes) = run(true);
    assert_eq!(plain_losses.len(), 3);
    assert_eq!(plain_losses, wrapped_losses, "per-epoch loss bits");
    assert!(!plain_bytes.is_empty());
    assert_eq!(plain_bytes, wrapped_bytes, "checkpoint bytes");
}

/// A checkpoint written from a trained wrapped net and read into a fresh
/// wrapped net restores the layer state (calibrated scales) and weights.
#[test]
fn wrapped_net_round_trips_a_checkpoint() {
    let cfg = config();
    let gen = SyntheticCifar::new(16, 7);
    let (train, test) = (gen.train(64, 7), gen.test(32, 7));
    let mut trained = Trainer::lenet(&cfg, 3, 16);
    wrap_layers(trained.net_mut());
    trained
        .run(RunOptions::new(&train, &test, &cfg))
        .expect("no store");
    let store = MemoryStore::new();
    let sink = checkpoint::Sink::Store {
        store: &store,
        prefix: "m",
    };
    checkpoint::write(trained.net(), sink, checkpoint::Version::V2).expect("write");
    let mut fresh = Trainer::lenet(&cfg.clone().with_seed(8), 3, 16);
    wrap_layers(fresh.net_mut());
    let source = checkpoint::Source::Store {
        store: &store,
        prefix: "m",
    };
    checkpoint::read(fresh.net_mut(), source).expect("read");
    let state = trained.net().state_entries();
    assert!(
        !state.is_empty(),
        "a calibrated quantized net has layer state"
    );
    assert_eq!(state, fresh.net().state_entries());
    let values = |t: &Trainer| -> Vec<Vec<f32>> {
        t.net()
            .params()
            .iter()
            .map(|p| p.value.dense().data().to_vec())
            .collect()
    };
    assert_eq!(values(&trained), values(&fresh));
}

#[test]
fn timed_store_counts_every_call() {
    let s = TimedStore::new(MemoryStore::new());
    s.set("a/x", b"abc").expect("set");
    s.get("a/x").expect("get");
    s.list_prefix("a/").expect("list_prefix");
    s.delete("a/x").expect("delete");
    let c = s.counts();
    let n = |x: &std::sync::atomic::AtomicU64| x.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        (n(&c.sets), n(&c.gets), n(&c.lists), n(&c.deletes)),
        (1, 1, 1, 1)
    );
    assert_eq!(n(&c.bytes_written), 3);
}
