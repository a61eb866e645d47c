//! The workloads' datasets, configs and models. Everything is a function
//! of the benchmark seed: the same seed gives the same inputs.

use posit_data::{Dataset, SyntheticCifar};
use posit_nn::StepLr;
use posit_tensor::rng::Prng;
use posit_train::{ComputeBackend, MasterWeights, QuantBuilder, QuantSpec, TrainConfig, Trainer};

/// Image side of the synthetic CIFAR stand-in (`3 × SIDE × SIDE`).
pub const SIDE: usize = 16;
/// Classes of the stand-in.
pub const CLASSES: usize = 10;

/// Which network a recipe trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// LeNet on `3 × SIDE × SIDE`.
    LeNet,
    /// The scaled ResNet-18 (with batch normalization).
    ResNet,
}

/// One training recipe: data sizes, network and schedule.
#[derive(Debug, Clone)]
pub struct TrainRecipe {
    /// Network.
    pub net: Net,
    /// Training samples per epoch.
    pub train_n: usize,
    /// Held-out samples evaluated after every epoch.
    pub test_n: usize,
    /// Pixel noise of the stand-in (the difficulty knob).
    pub noise: f32,
    /// Full run configuration (seeded).
    pub config: TrainConfig,
    /// Checkpoint every epoch into a store (`RunOptions::resumable`).
    pub checkpoint: bool,
}

fn schedule(epochs: usize, warmup: usize, batch: usize, lr: f32, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs,
        warmup_epochs: warmup,
        batch_size: batch,
        schedule: StepLr::new(lr, vec![], 1.0),
        ..TrainConfig::cifar_scaled(8, epochs)
    }
    .with_seed(seed)
}

/// `lenet-quire-train`: LeNet at batch 32, posit(8,1)/(8,2) on the exact
/// quire kernels; five warm-up epochs (four FP32, the fifth calibrates),
/// then three posit epochs, checkpointed every epoch. Momentum 0.5: at the
/// default 0.9 about one seed in a hundred blew up in the first epoch and
/// sat at ln 10 from then on.
pub fn lenet_quire_train(seed: u64) -> TrainRecipe {
    let spec = QuantSpec::cifar_paper().with_backend(ComputeBackend::PositQuire);
    TrainRecipe {
        net: Net::LeNet,
        train_n: 320,
        test_n: 128,
        noise: 0.7,
        config: TrainConfig {
            momentum: 0.5,
            ..schedule(8, 5, 32, 0.01, seed)
        }
        .with_quant(spec),
        checkpoint: true,
    }
}

/// `resnet-sim-train`: scaled ResNet-18 (base 8, BN) at batch 32 under the
/// paper's posit simulation on the default F32 kernels; three warm-up
/// epochs (two FP32, the third calibrates), then two posit epochs; no
/// store.
pub fn resnet_sim_train(seed: u64) -> TrainRecipe {
    TrainRecipe {
        net: Net::ResNet,
        train_n: 160,
        test_n: 64,
        noise: 0.7,
        config: schedule(5, 3, 32, 0.02, seed).with_quant(QuantSpec::cifar_paper()),
        checkpoint: false,
    }
}

/// The model served by `lenet16-quire-serve`: posit(16,1) LeNet on the
/// quire kernels with posit-resident weights, trained briefly (seven FP32
/// warm-up epochs, a calibration epoch, one posit epoch) so its replies
/// are meaningful.
pub fn lenet16_serve_model(seed: u64) -> TrainRecipe {
    TrainRecipe {
        net: Net::LeNet,
        train_n: 320,
        test_n: 512,
        noise: 0.7,
        config: schedule(9, 8, 32, 0.02, seed).with_quant(serve_spec()),
        checkpoint: false,
    }
}

/// The seed the served model is trained with, whatever the benchmark
/// seed: a server serves one deployed model, and the benchmark seed draws
/// its traffic ([`serve_requests`]). Posit serving cost moves with the
/// model's weights (by up to 15% between models of different seeds), which
/// would otherwise be measured as a change of the program.
pub const SERVED_MODEL_SEED: u64 = FINGERPRINT_SEED;

/// The request pool of `lenet16-quire-serve`: held-out images of the
/// served model's classes, drawn with `seed`.
pub fn serve_requests(seed: u64) -> Dataset {
    let r = lenet16_serve_model(SERVED_MODEL_SEED);
    SyntheticCifar::with_noise(SIDE, r.config.seed, r.noise).test(r.test_n, seed)
}

/// The served model's quantization policy.
pub fn serve_spec() -> QuantSpec {
    QuantSpec::imagenet_paper()
        .with_backend(ComputeBackend::PositQuire)
        .with_master(MasterWeights::Posit)
}

impl TrainRecipe {
    /// The seeded train and test splits.
    pub fn datasets(&self) -> (Dataset, Dataset) {
        let seed = self.config.seed;
        let gen = SyntheticCifar::with_noise(SIDE, seed, self.noise);
        (gen.train(self.train_n, seed), gen.test(self.test_n, seed))
    }

    /// A freshly initialized trainer for the recipe.
    pub fn trainer(&self) -> Trainer {
        match self.net {
            Net::LeNet => Trainer::lenet(&self.config, 3, SIDE),
            Net::ResNet => Trainer::resnet(&self.config),
        }
    }

    /// The same recipe without quantization: every epoch FP32, same seed,
    /// same initial weights and batch order.
    pub fn fp32_reference(&self) -> TrainRecipe {
        let mut r = self.clone();
        r.config.quant = None;
        r.checkpoint = false;
        r
    }

    /// Optimizer steps per epoch.
    pub fn steps_per_epoch(&self) -> usize {
        self.train_n.div_ceil(self.config.batch_size)
    }
}

/// An untrained quantized LeNet under [`serve_spec`], with the control
/// its `Quantized` wrappers share — the shell a checkpoint restores into.
pub fn served_lenet_shell() -> (posit_nn::Sequential, posit_train::QuantControl) {
    let mut qb = QuantBuilder::new(serve_spec());
    let control = qb.control();
    let net = posit_models::lenet(&mut qb, 3, SIDE, CLASSES, &mut Prng::seed(0));
    (net, control)
}

/// The seed whose per-epoch loss bits are pinned in `fingerprints.txt`.
pub const FINGERPRINT_SEED: u64 = 1;

/// `<workload> <fingerprint>` lines: the per-epoch loss bits of each
/// workload's training run at [`FINGERPRINT_SEED`].
const FINGERPRINTS: &str = include_str!("../fingerprints.txt");

/// FNV-1a over the little-endian bits of the per-epoch losses.
pub fn loss_fingerprint(bits: &[u64]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bits.iter().flat_map(|x| x.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The pinned fingerprint of `workload`, if any.
pub fn pinned_fingerprint(workload: &str) -> Option<&'static str> {
    FINGERPRINTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next() == Some(workload)).then(|| f.next()).flatten()
    })
}
