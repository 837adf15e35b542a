//! The five workloads' fixed shapes and the inputs a `--seed` generates.
//!
//! A seed changes feed values, tenant names and the order of the miss
//! nonces — never a shape, a width or an operation's kind, so the three
//! count metrics are the same on every seed.

use tofu_graph::{Graph, TensorId, TensorKind};
use tofu_models::{
    decoder_block, rnn, wresnet, BuiltModel, DecoderConfig, RnnConfig, WResNetConfig,
};
use tofu_tensor::Tensor;

/// What one timed operation of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fresh-cache `partition` + `run_partitioned`.
    PlanCold,
    /// One sharded training step on the threaded runtime.
    Step,
    /// One plan-service round trip answered from the response cache.
    ServeHit,
    /// One plan-service round trip that has to solve.
    ServeMiss,
}

/// The model a workload partitions, runs or serves.
#[derive(Debug, Clone, Copy)]
pub enum Model {
    /// WResNet-50-1, batch 8, image 16, 8 classes.
    WResNet,
    /// Decoder block, d_model 256, heads 8, d_ff 1024, 64 classes.
    Decoder {
        /// Sequence length.
        seq: usize,
    },
    /// LSTM, 2 layers, hidden 64, batch 8, 20 steps, embed 32, vocab 32.
    Lstm,
}

impl Model {
    /// Builds the training graph (forward, backward, updates).
    pub fn build(self) -> Result<BuiltModel, String> {
        match self {
            Model::WResNet => wresnet(&WResNetConfig {
                layers: 50,
                width: 1,
                batch: 8,
                image: 16,
                classes: 8,
                with_updates: true,
            }),
            Model::Decoder { seq } => decoder_block(&DecoderConfig {
                seq,
                d_model: 256,
                heads: 8,
                d_ff: 1024,
                classes: 64,
                with_updates: true,
            }),
            Model::Lstm => rnn(&RnnConfig {
                layers: 2,
                hidden: 64,
                batch: 8,
                steps: 20,
                embed: 32,
                vocab: 32,
                with_updates: true,
            }),
        }
        .map_err(|e| format!("model build: {e}"))
    }
}

/// One named workload. `why` is the reason it is in the set (also in
/// `BENCHMARK.json`).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload was chosen.
    pub why: &'static str,
    /// What an operation is.
    pub kind: Kind,
    /// The model.
    pub model: Model,
    /// Partition width.
    pub workers: usize,
    /// Operations run (and verified) at the end of every set-up.
    pub warmup: u64,
    /// Complete set-ups from fresh state per untraced run; `setup_s` is the
    /// fastest. Fixed per workload so the repetitions take 1-5 s.
    pub setups: usize,
}

/// The workload set, in the order `--workload all` runs it.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "plan_cold",
        why: "Table 1 path: cold DP search + genplan + simulator on WResNet-50-1 at w=8; runtime and serve idle",
        kind: Kind::PlanCold,
        model: Model::WResNet,
        workers: 8,
        warmup: 1,
        setups: 5,
    },
    Spec {
        name: "step_compute",
        why: "decoder block step at w=2: 248 sharded nodes, 64 messages, workers ~98% busy, so tensor kernels dominate",
        kind: Kind::Step,
        model: Model::Decoder { seq: 256 },
        workers: 2,
        warmup: 5,
        setups: 5,
    },
    Spec {
        name: "step_comm",
        why: "LSTM step at w=2: 6320 sharded nodes, 1408 messages, ~4 us/node, so dispatch, routing and channels dominate",
        kind: Kind::Step,
        model: Model::Lstm,
        workers: 2,
        warmup: 5,
        setups: 5,
    },
    Spec {
        name: "serve_hit",
        why: "response-cache reads of a 111 KB request and 134 KB reply: the JSON codec is ~90% of a hit",
        kind: Kind::ServeHit,
        model: Model::WResNet,
        workers: 8,
        warmup: 2,
        setups: 5,
    },
    Spec {
        name: "serve_miss",
        why: "every request a full miss of identical cost with a warm strategy memo: solve ~90%, codec <5%",
        kind: Kind::ServeMiss,
        model: Model::Decoder { seq: 128 },
        workers: 8,
        warmup: 5,
        setups: 5,
    },
];

/// SplitMix64: the seed's stream for tenant picks and nonce order.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream that differs for every `(seed, salt)`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Feeds for every leaf tensor of `g`: fan-in-scaled random weights and
/// inputs drawn from the seed, and small integer labels.
pub fn feeds(g: &Graph, seed: u64) -> Vec<(TensorId, Tensor)> {
    let mut out = Vec::new();
    for t in g.tensor_ids() {
        let meta = g.tensor(t);
        if meta.kind == TensorKind::Intermediate {
            continue;
        }
        let v = if meta.name.starts_with("labels") {
            let data = (0..meta.shape.volume())
                .map(|i| ((i as u64 + seed) % 3) as f32)
                .collect();
            Tensor::from_vec(meta.shape.clone(), data).expect("label volume matches its shape")
        } else {
            let fan_in = (meta.shape.volume() / meta.shape.dim(0).max(1)).max(1);
            let scale = (3.0f32 / fan_in as f32).sqrt().min(0.5);
            Tensor::random(
                meta.shape.clone(),
                seed.wrapping_mul(1_000_003) + t.0 as u64 + 1,
                scale,
            )
        };
        out.push((t, v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_per_seed_and_differs_across_seeds() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8, 1);
            (0..4).map(|_| r.next()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn seed_changes_feed_values_not_shapes() {
        let g = Model::Lstm.build().unwrap().graph;
        let (a, b) = (feeds(&g, 1), feeds(&g, 2));
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.0 == y.0 && x.1.shape() == y.1.shape()));
        assert!(a.iter().zip(&b).any(|(x, y)| x.1 != y.1));
        assert_eq!(feeds(&g, 1), a);
    }
}
