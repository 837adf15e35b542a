//! GPT-style transformer decoder block training graphs.
//!
//! The paper predates transformers, but the workload is the standard test of
//! modern auto-partitioners: the known-good hand partition is megatron-style
//! — head-parallel attention (split the QKV projections along the head
//! dimension, keep attention head-local, allreduce the output projection)
//! and column/row-parallel MLP (split the first matmul's columns, reduce the
//! second matmul's inner dimension). Every op here carries a clean TDL
//! description, so Tofu's DP search can rediscover those splits from
//! interval analysis alone.
//!
//! Layout notes: activations are `(seq, d_model)` token matrices, attention
//! runs in the head layout `(heads, seq, d_head)` produced directly by the
//! head-indexed projections (`proj_heads`/`unproj_heads` — the catalogue has
//! no reshape op, and reshape is not TDL-describable anyway). Attention is
//! bidirectional (no causal mask: a mask operand would be elementwise and
//! change no partition structure, so it is omitted for clarity).

use tofu_graph::{autodiff, Attrs, Graph};
use tofu_tensor::Shape;

use crate::BuiltModel;

/// Configuration of a decoder block.
#[derive(Debug, Clone)]
pub struct DecoderConfig {
    /// Sequence length (tokens per step; batch is folded into the sequence).
    pub seq: usize,
    /// Model width; must be divisible by `heads`.
    pub d_model: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Hidden width of the position-wise MLP.
    pub d_ff: usize,
    /// Output vocabulary/classes for the training head.
    pub classes: usize,
    /// Add SGD update nodes.
    pub with_updates: bool,
}

impl Default for DecoderConfig {
    fn default() -> Self {
        DecoderConfig { seq: 32, d_model: 64, heads: 8, d_ff: 256, classes: 16, with_updates: true }
    }
}

impl DecoderConfig {
    /// Per-head width.
    fn d_head(&self) -> usize {
        self.d_model / self.heads
    }
}

/// Builds a single-decoder-block training graph: layer norm → multi-head
/// self-attention → residual → layer norm → two-layer MLP → residual →
/// classifier, with softmax cross-entropy loss, backward pass and
/// (optionally) SGD updates.
pub fn decoder_block(cfg: &DecoderConfig) -> tofu_graph::Result<BuiltModel> {
    use tofu_graph::registry::GraphError;
    if cfg.heads == 0 || !cfg.d_model.is_multiple_of(cfg.heads) {
        return Err(GraphError::ShapeInference {
            node: "decoder_block".into(),
            op: "proj_heads".into(),
            detail: format!("d_model {} not divisible by heads {}", cfg.d_model, cfg.heads),
        });
    }
    let (s, d, h, k, f) = (cfg.seq, cfg.d_model, cfg.heads, cfg.d_head(), cfg.d_ff);
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new(vec![s, d]));
    let labels = g.add_input("labels", Shape::new(vec![s]));

    let g1 = g.add_weight("ln1_gamma", Shape::new(vec![d]));
    let b1 = g.add_weight("ln1_beta", Shape::new(vec![d]));
    let wq = g.add_weight("wq", Shape::new(vec![h, d, k]));
    let wk = g.add_weight("wk", Shape::new(vec![h, d, k]));
    let wv = g.add_weight("wv", Shape::new(vec![h, d, k]));
    let wo = g.add_weight("wo", Shape::new(vec![h, k, d]));
    let g2 = g.add_weight("ln2_gamma", Shape::new(vec![d]));
    let b2 = g.add_weight("ln2_beta", Shape::new(vec![d]));
    let w1 = g.add_weight("w_ff1", Shape::new(vec![d, f]));
    let bf = g.add_weight("b_ff1", Shape::new(vec![f]));
    let w2 = g.add_weight("w_ff2", Shape::new(vec![f, d]));
    let wout = g.add_weight("w_out", Shape::new(vec![d, cfg.classes]));
    let weights = vec![g1, b1, wq, wk, wv, wo, g2, b2, w1, bf, w2, wout];

    // Attention sub-block (pre-norm).
    let ln1 = g.add_op("layer_norm", "ln1", &[x, g1, b1], Attrs::new())?;
    let q = g.add_op("proj_heads", "q_proj", &[ln1, wq], Attrs::new())?;
    let kk = g.add_op("proj_heads", "k_proj", &[ln1, wk], Attrs::new())?;
    let v = g.add_op("proj_heads", "v_proj", &[ln1, wv], Attrs::new())?;
    // scores[h, i, j] = Q[h, i, :] · K[h, j, :] / √d_head.
    let scores = g.add_op("batch_matmul_nt", "scores", &[q, kk], Attrs::new())?;
    let scaled = g.add_op(
        "mul_scalar",
        "scale",
        &[scores],
        Attrs::new().with_float("scalar", 1.0 / (k as f64).sqrt()),
    )?;
    let probs = g.add_op("softmax", "probs", &[scaled], Attrs::new().with_int("axis", 2))?;
    let ctx = g.add_op("batch_matmul", "ctx", &[probs, v], Attrs::new())?;
    let attn = g.add_op("unproj_heads", "attn_out", &[ctx, wo], Attrs::new())?;
    let res1 = g.add_op("add", "res1", &[x, attn], Attrs::new())?;

    // Position-wise MLP sub-block.
    let ln2 = g.add_op("layer_norm", "ln2", &[res1, g2, b2], Attrs::new())?;
    let ff1 = g.add_op("matmul", "ffn1", &[ln2, w1], Attrs::new())?;
    let ff1b = g.add_op("bias_add", "ffn1_bias", &[ff1, bf], Attrs::new().with_int("axis", 1))?;
    let act = g.add_op("relu", "ffn1_relu", &[ff1b], Attrs::new())?;
    let ff2 = g.add_op("matmul", "ffn2", &[act, w2], Attrs::new())?;
    let res2 = g.add_op("add", "res2", &[res1, ff2], Attrs::new())?;

    // Training head.
    let logits = g.add_op("matmul", "logits", &[res2, wout], Attrs::new())?;
    let loss = g.add_op("softmax_ce", "loss", &[logits, labels], Attrs::new())?;

    let info = autodiff::backward(&mut g, loss, &weights)?;
    let grads: Vec<_> = weights.iter().filter_map(|&w| info.grad(w).map(|gw| (w, gw))).collect();
    if cfg.with_updates {
        for (i, &(w, gw)) in grads.iter().enumerate() {
            g.add_op(
                "sgd_update",
                &format!("upd{i}"),
                &[w, gw],
                Attrs::new().with_float("lr", 0.01),
            )?;
        }
    }
    Ok(BuiltModel { graph: g, loss, weights, inputs: vec![x, labels], grads, batch: s })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_decoder_builds_with_full_gradients() {
        let m = decoder_block(&DecoderConfig::default()).unwrap();
        assert!(m.graph.num_nodes() > 30);
        assert_eq!(m.grads.len(), m.weights.len(), "every weight has a gradient");
        assert_eq!(m.graph.tensor(m.loss).shape.rank(), 0);
    }

    #[test]
    fn rejects_indivisible_heads() {
        let cfg = DecoderConfig { d_model: 30, heads: 4, ..DecoderConfig::default() };
        assert!(decoder_block(&cfg).is_err());
    }

    #[test]
    fn updates_toggle() {
        let with = decoder_block(&DecoderConfig::default()).unwrap();
        let without =
            decoder_block(&DecoderConfig { with_updates: false, ..DecoderConfig::default() })
                .unwrap();
        assert!(with.graph.num_nodes() > without.graph.num_nodes());
    }

    #[test]
    fn weight_bytes_scale_with_config() {
        let cfg = DecoderConfig {
            seq: 8,
            d_model: 16,
            heads: 4,
            d_ff: 32,
            classes: 4,
            with_updates: false,
        };
        let m = decoder_block(&cfg).unwrap();
        // 2·(2·16) ln params + 4·(16·16) attention + 16·32 + 32 + 32·16 + 16·4 head.
        let expect = 2 * (2 * 16) + 4 * (16 * 16) + 16 * 32 + 32 + 32 * 16 + 16 * 4;
        assert_eq!(m.weight_bytes(), expect as u64 * 4);
    }
}
