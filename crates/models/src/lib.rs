//! Model zoo: the DNN benchmarks of the paper's evaluation (§7.1).
//!
//! Every builder produces a full *training* graph — forward propagation,
//! reverse-mode backward propagation, gradient aggregation and SGD weight
//! updates — exactly the workload Tofu partitions:
//!
//! - [`mlp`](mod@mlp): multi-layer perceptrons (the Fig. 5 example and the
//!   validation workhorse);
//! - [`wresnet`](mod@wresnet): Wide ResNet-{50,101,152} with widening factor
//!   4-10 on ImageNet-sized inputs (Table 2 / Fig. 8);
//! - [`rnn`](mod@rnn): multi-layer LSTM language models with 4K-8K hidden
//!   units, unrolled 20 steps (Table 2 / Fig. 9), built through an
//!   `unroll` helper that tags timesteps and cell positions the way
//!   MXNet/PyTorch unrolling does — which is what Tofu's coarsening detects
//!   (§5.1);
//! - [`small_cnn`]: a stride-1 CNN used for numeric validation of
//!   partitioned convolution execution;
//! - [`decoder_block`]: a GPT-style transformer decoder block whose clean
//!   TDL descriptions let the search rediscover megatron-style splits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cnn;
pub mod mlp;
pub mod rnn;
pub mod transformer;
pub mod wresnet;

pub use cnn::{small_cnn, SmallCnnConfig};
pub use mlp::{mlp, MlpConfig};
pub use rnn::{rnn, RnnConfig};
pub use transformer::{decoder_block, DecoderConfig};
pub use wresnet::{wresnet, WResNetConfig};

use tofu_graph::{Graph, TensorId};

/// A fully built training graph plus the handles benchmarks need.
#[derive(Debug)]
pub struct BuiltModel {
    /// The training graph (forward + backward + updates).
    pub graph: Graph,
    /// The scalar loss tensor.
    pub loss: TensorId,
    /// All trainable weights.
    pub weights: Vec<TensorId>,
    /// External inputs (mini-batch data and labels).
    pub inputs: Vec<TensorId>,
    /// `(weight, gradient)` pairs.
    pub grads: Vec<(TensorId, TensorId)>,
    /// The model's mini-batch size.
    pub batch: usize,
}

impl BuiltModel {
    /// Bytes of trainable weights (fp32).
    pub fn weight_bytes(&self) -> u64 {
        self.weights.iter().map(|&w| self.graph.tensor(w).shape.bytes()).sum()
    }

    /// Total training-state bytes: weights, gradients and one optimizer
    /// history buffer — the `3W` rule of §7.1 used by Table 2.
    fn training_state_bytes(&self) -> u64 {
        3 * self.weight_bytes()
    }

    /// Training-state size in gigabytes (10⁹ bytes, as the paper tabulates).
    pub fn training_state_gb(&self) -> f64 {
        self.training_state_bytes() as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_tensor::Shape;

    #[test]
    fn built_model_accounting() {
        let mut g = Graph::new();
        let w = g.add_weight("w", Shape::new(vec![16, 16]));
        let model = BuiltModel {
            graph: g,
            loss: w,
            weights: vec![w],
            inputs: vec![],
            grads: vec![],
            batch: 4,
        };
        assert_eq!(model.weight_bytes(), 1024);
        assert_eq!(model.training_state_bytes(), 3072);
        assert!((model.training_state_gb() - 3.072e-6).abs() < 1e-12);
    }
}
