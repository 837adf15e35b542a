//! A small stride-1 CNN for exact numeric validation of partitioned
//! convolution execution (halo exchange, channel reductions, padding
//! materialization).

use tofu_graph::{autodiff, Attrs, Graph};
use tofu_tensor::Shape;

use crate::BuiltModel;

/// Configuration of the validation CNN.
#[derive(Debug, Clone, Copy)]
pub struct SmallCnnConfig {
    /// Mini-batch size.
    pub batch: usize,
    /// Input channels.
    pub channels: usize,
    /// Image side.
    pub image: usize,
    /// Convolution channels per layer.
    pub conv_channels: usize,
    /// Number of conv layers.
    pub conv_layers: usize,
    /// Classes.
    pub classes: usize,
}

impl Default for SmallCnnConfig {
    fn default() -> Self {
        SmallCnnConfig {
            batch: 4,
            channels: 2,
            image: 8,
            conv_channels: 8,
            conv_layers: 2,
            classes: 4,
        }
    }
}

/// Builds the CNN: `conv3x3(pad 1) -> relu` blocks, global average pooling,
/// a linear classifier and softmax cross-entropy, plus the backward pass.
pub fn small_cnn(cfg: &SmallCnnConfig) -> tofu_graph::Result<BuiltModel> {
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new(vec![cfg.batch, cfg.channels, cfg.image, cfg.image]));
    let labels = g.add_input("labels", Shape::new(vec![cfg.batch]));
    let mut weights = Vec::new();
    let mut t = x;
    let mut cin = cfg.channels;
    for i in 0..cfg.conv_layers {
        let w = g.add_weight(
            &format!("conv{i}/w"),
            Shape::new(vec![cin, cfg.conv_channels, 3, 3]),
        );
        weights.push(w);
        t = g.add_op(
            "conv2d",
            &format!("conv{i}"),
            &[t, w],
            Attrs::new().with_int("pad", 1),
        )?;
        t = g.add_op("relu", &format!("relu{i}"), &[t], Attrs::new())?;
        cin = cfg.conv_channels;
    }
    let pooled = g.add_op("global_avg_pool", "gap", &[t], Attrs::new())?;
    let wfc = g.add_weight("fc/w", Shape::new(vec![cin, cfg.classes]));
    weights.push(wfc);
    let logits = g.add_op("matmul", "fc", &[pooled, wfc], Attrs::new())?;
    let loss = g.add_op("softmax_ce", "loss", &[logits, labels], Attrs::new())?;
    let info = autodiff::backward(&mut g, loss, &weights)?;
    let grads: Vec<_> =
        weights.iter().filter_map(|&w| info.grad(w).map(|gw| (w, gw))).collect();
    Ok(BuiltModel { graph: g, loss, weights, inputs: vec![x, labels], grads, batch: cfg.batch })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_graph::Executor;
    use tofu_tensor::Tensor;

    #[test]
    fn builds_and_executes() {
        let cfg = SmallCnnConfig::default();
        let m = small_cnn(&cfg).unwrap();
        let mut exec = Executor::new();
        for t in m.graph.tensor_ids() {
            let meta = m.graph.tensor(t);
            if meta.kind != tofu_graph::TensorKind::Intermediate {
                let v = if meta.name.starts_with("labels") {
                    Tensor::from_vec(
                        meta.shape.clone(),
                        (0..cfg.batch).map(|i| (i % cfg.classes) as f32).collect(),
                    )
                    .unwrap()
                } else {
                    Tensor::random(meta.shape.clone(), t.0 as u64, 0.4)
                };
                exec.feed(t, v);
            }
        }
        let out = exec.run(&m.graph).unwrap();
        let loss = out[&m.loss].data()[0];
        assert!(loss.is_finite() && loss > 0.0);
        // Every weight gradient is populated.
        for &(_, gw) in &m.grads {
            assert!(out[&gw].data().iter().any(|&v| v != 0.0));
        }
    }

    #[test]
    fn deeper_variant_builds() {
        let m = small_cnn(&SmallCnnConfig { conv_layers: 4, ..Default::default() }).unwrap();
        assert!(m.weights.len() == 5);
    }
}
