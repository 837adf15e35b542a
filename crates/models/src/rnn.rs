//! Multi-layer LSTM language-model training graphs (§7.1, Table 2, Fig. 9).
//!
//! Follows the large-LM recipe the paper cites (\[20\]): `layers` stacked LSTM
//! layers of `hidden` units, unrolled for `steps = 20` timesteps. The unroll
//! helper tags every node with its timestep and cell position — the same
//! structure MXNet's built-in unroll produces — which is what lets Tofu's
//! coarsening pass merge timesteps into a chain of coalesced operators
//! (§5.1).

use tofu_graph::{autodiff, Attrs, Graph, NodeTags, TensorId};
use tofu_tensor::Shape;

use crate::BuiltModel;

/// Configuration of the LSTM language model.
#[derive(Debug, Clone, Copy)]
pub struct RnnConfig {
    /// Number of stacked LSTM layers (the paper evaluates 4-10).
    pub layers: usize,
    /// Hidden size (4096, 6144, 8192 in the paper).
    pub hidden: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Unrolled timesteps (20 in the paper).
    pub steps: usize,
    /// Input embedding width fed to the first layer.
    pub embed: usize,
    /// Output vocabulary of the per-timestep projection.
    pub vocab: usize,
    /// Add SGD updates.
    pub with_updates: bool,
}

impl RnnConfig {
    /// The paper's notation, e.g. `RNN-8-8K`.
    pub fn name(&self) -> String {
        if self.hidden.is_multiple_of(1024) {
            format!("RNN-{}-{}K", self.layers, self.hidden / 1024)
        } else {
            format!("RNN-{}-{}", self.layers, self.hidden)
        }
    }
}

impl Default for RnnConfig {
    fn default() -> Self {
        RnnConfig {
            layers: 2,
            hidden: 64,
            batch: 8,
            steps: 4,
            embed: 32,
            vocab: 32,
            with_updates: true,
        }
    }
}

/// One LSTM cell step; all nodes are tagged with `(timestep, cell_position)`
/// so coarsening can coalesce the unrolled instances.
#[allow(clippy::too_many_arguments)]
fn lstm_cell(
    g: &mut Graph,
    layer: usize,
    t: usize,
    x: TensorId,
    h_prev: TensorId,
    c_prev: TensorId,
    wx: TensorId,
    wh: TensorId,
    bias: TensorId,
    hidden: usize,
) -> tofu_graph::Result<(TensorId, TensorId)> {
    let tag = |pos: &str| NodeTags {
        layer: Some(layer),
        timestep: Some(t),
        cell_position: Some(format!("lstm/l{layer}/{pos}")),
        ..NodeTags::default()
    };
    let nm = |pos: &str| format!("l{layer}t{t}/{pos}");
    let xw = g.add_op_tagged("matmul", &nm("xw"), &[x, wx], Attrs::new(), tag("xw"))?;
    let hw = g.add_op_tagged("matmul", &nm("hw"), &[h_prev, wh], Attrs::new(), tag("hw"))?;
    let pre0 = g.add_op_tagged("add", &nm("pre0"), &[xw, hw], Attrs::new(), tag("pre0"))?;
    let pre = g.add_op_tagged(
        "bias_add",
        &nm("pre"),
        &[pre0, bias],
        Attrs::new().with_int("axis", 1),
        tag("pre"),
    )?;
    let gate = |g: &mut Graph, idx: usize, pos: &str| -> tofu_graph::Result<TensorId> {
        g.add_op_tagged(
            "slice_axis",
            &nm(&format!("slice_{pos}")),
            &[pre],
            Attrs::new()
                .with_int("axis", 1)
                .with_int("begin", (idx * hidden) as i64)
                .with_int("end", ((idx + 1) * hidden) as i64),
            tag(&format!("slice_{pos}")),
        )
    };
    let si = gate(g, 0, "i")?;
    let sf = gate(g, 1, "f")?;
    let sg = gate(g, 2, "g")?;
    let so = gate(g, 3, "o")?;
    let i = g.add_op_tagged("sigmoid", &nm("i"), &[si], Attrs::new(), tag("i"))?;
    let f = g.add_op_tagged("sigmoid", &nm("f"), &[sf], Attrs::new(), tag("f"))?;
    let gg = g.add_op_tagged("tanh", &nm("g"), &[sg], Attrs::new(), tag("g"))?;
    let o = g.add_op_tagged("sigmoid", &nm("o"), &[so], Attrs::new(), tag("o"))?;
    let fc = g.add_op_tagged("mul", &nm("fc"), &[f, c_prev], Attrs::new(), tag("fc"))?;
    let ig = g.add_op_tagged("mul", &nm("ig"), &[i, gg], Attrs::new(), tag("ig"))?;
    let c = g.add_op_tagged("add", &nm("c"), &[fc, ig], Attrs::new(), tag("c"))?;
    let ct = g.add_op_tagged("tanh", &nm("ct"), &[c], Attrs::new(), tag("ct"))?;
    let h = g.add_op_tagged("mul", &nm("h"), &[o, ct], Attrs::new(), tag("h"))?;
    Ok((h, c))
}

/// Builds the unrolled multi-layer LSTM training graph.
pub fn rnn(cfg: &RnnConfig) -> tofu_graph::Result<BuiltModel> {
    let mut g = Graph::new();
    let mut weights = Vec::new();
    let mut inputs = Vec::new();

    // Per-layer weights (shared across timesteps — which is exactly why the
    // coalesced timesteps must share a partition).
    let mut layer_weights = Vec::new();
    for l in 0..cfg.layers {
        let in_dim = if l == 0 { cfg.embed } else { cfg.hidden };
        let wx = g.add_weight(&format!("l{l}/wx"), Shape::new(vec![in_dim, 4 * cfg.hidden]));
        let wh = g.add_weight(&format!("l{l}/wh"), Shape::new(vec![cfg.hidden, 4 * cfg.hidden]));
        let b = g.add_weight(&format!("l{l}/b"), Shape::new(vec![4 * cfg.hidden]));
        weights.extend([wx, wh, b]);
        layer_weights.push((wx, wh, b));
    }
    let w_proj = g.add_weight("proj/w", Shape::new(vec![cfg.hidden, cfg.vocab]));
    weights.push(w_proj);

    // Initial states and per-timestep inputs/labels.
    let mut h: Vec<TensorId> = Vec::new();
    let mut c: Vec<TensorId> = Vec::new();
    for l in 0..cfg.layers {
        let h0 = g.add_input(&format!("h0/l{l}"), Shape::new(vec![cfg.batch, cfg.hidden]));
        let c0 = g.add_input(&format!("c0/l{l}"), Shape::new(vec![cfg.batch, cfg.hidden]));
        inputs.extend([h0, c0]);
        h.push(h0);
        c.push(c0);
    }

    let mut losses = Vec::new();
    for t in 0..cfg.steps {
        let x = g.add_input(&format!("x/t{t}"), Shape::new(vec![cfg.batch, cfg.embed]));
        let labels = g.add_input(&format!("labels/t{t}"), Shape::new(vec![cfg.batch]));
        inputs.extend([x, labels]);
        let mut below = x;
        for l in 0..cfg.layers {
            let (wx, wh, b) = layer_weights[l];
            let (nh, nc) = lstm_cell(&mut g, l, t, below, h[l], c[l], wx, wh, b, cfg.hidden)?;
            h[l] = nh;
            c[l] = nc;
            below = nh;
        }
        let tag = |pos: &str| NodeTags {
            timestep: Some(t),
            cell_position: Some(format!("head/{pos}")),
            ..NodeTags::default()
        };
        let logits = g.add_op_tagged(
            "matmul",
            &format!("t{t}/proj"),
            &[below, w_proj],
            Attrs::new(),
            tag("proj"),
        )?;
        let loss_t = g.add_op_tagged(
            "softmax_ce",
            &format!("t{t}/ce"),
            &[logits, labels],
            Attrs::new(),
            tag("ce"),
        )?;
        losses.push(loss_t);
    }

    // Total loss: sum of per-timestep losses.
    let mut loss = losses[0];
    for (t, &l) in losses.iter().enumerate().skip(1) {
        loss = g.add_op("add", &format!("loss_sum{t}"), &[loss, l], Attrs::new())?;
    }

    let info = autodiff::backward(&mut g, loss, &weights)?;
    let grads: Vec<_> =
        weights.iter().filter_map(|&w| info.grad(w).map(|gw| (w, gw))).collect();
    if cfg.with_updates {
        for (i, &(w, gw)) in grads.iter().enumerate() {
            g.add_op("sgd_update", &format!("upd{i}"), &[w, gw], Attrs::new().with_float("lr", 0.01))?;
        }
    }
    Ok(BuiltModel { graph: g, loss, weights, inputs, grads, batch: cfg.batch })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rnn_builds_and_differentiates() {
        let m = rnn(&RnnConfig::default()).unwrap();
        assert_eq!(m.grads.len(), m.weights.len());
        assert_eq!(m.graph.tensor(m.loss).shape.rank(), 0);
    }

    #[test]
    fn node_count_scales_with_unrolling() {
        let short = rnn(&RnnConfig { steps: 2, with_updates: false, ..Default::default() })
            .unwrap()
            .graph
            .num_nodes();
        let long = rnn(&RnnConfig { steps: 8, with_updates: false, ..Default::default() })
            .unwrap()
            .graph
            .num_nodes();
        assert!(long > 3 * short);
    }

    #[test]
    fn weights_are_shared_across_timesteps() {
        let m = rnn(&RnnConfig::default()).unwrap();
        // wx of layer 0 is consumed by every timestep's xw matmul.
        let wx = m.graph.tensor_by_name("l0/wx").unwrap();
        let consumers = m.graph.consumers(wx);
        assert!(consumers.len() >= RnnConfig::default().steps);
    }

    #[test]
    fn paper_notation() {
        let cfg = RnnConfig { layers: 8, hidden: 8192, ..Default::default() };
        assert_eq!(cfg.name(), "RNN-8-8K");
        let odd = RnnConfig { layers: 4, hidden: 100, ..Default::default() };
        assert_eq!(odd.name(), "RNN-4-100");
    }

    #[test]
    fn table2_per_layer_scale() {
        // Table 2's per-layer increment: at H = 8K, adding a layer adds
        // 8H² ≈ 537M parameters ≈ 6.1-6.4 GB of training state.
        let small = rnn(&RnnConfig {
            layers: 2,
            hidden: 8192,
            embed: 1024,
            steps: 1,
            with_updates: false,
            ..Default::default()
        })
        .unwrap()
        .training_state_gb();
        let large = rnn(&RnnConfig {
            layers: 3,
            hidden: 8192,
            embed: 1024,
            steps: 1,
            with_updates: false,
            ..Default::default()
        })
        .unwrap()
        .training_state_gb();
        let delta = large - small;
        assert!((5.5..7.0).contains(&delta), "per-layer delta {delta} GB");
    }

    #[test]
    fn timestep_tags_present_for_coalescing() {
        let m = rnn(&RnnConfig::default()).unwrap();
        let tagged = m
            .graph
            .node_ids()
            .filter(|&n| m.graph.node(n).tags.cell_position.is_some())
            .count();
        assert!(tagged > m.graph.num_nodes() / 3);
    }
}
