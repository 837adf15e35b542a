//! Wide ResNet training graphs (§7.1, Table 2, Fig. 8, Fig. 11).
//!
//! WResNet widens every residual-block convolution of the original ResNet by
//! a scalar `W`, so the model size grows quadratically in `W`
//! ("WResNet-101-8" = 101 layers widened 8×). The ImageNet-scale spatial
//! pipeline is preserved: 224×224 inputs, a 7×7 stem, four stages of
//! bottleneck blocks at 56/28/14/7 pixels, global average pooling and a
//! 1000-way classifier.

use tofu_graph::{autodiff, Attrs, Graph, NodeTags, TensorId};
use tofu_tensor::Shape;

use crate::BuiltModel;

/// Configuration of a WResNet.
#[derive(Debug, Clone, Copy)]
pub struct WResNetConfig {
    /// Total convolution layers: 50, 101 or 152.
    pub layers: usize,
    /// Widening scalar `W` (the paper evaluates 4, 6, 8, 10).
    pub width: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Input image side (224 for ImageNet, smaller for validation tests).
    pub image: usize,
    /// Classifier classes (1000 for ImageNet).
    pub classes: usize,
    /// Add SGD updates.
    pub with_updates: bool,
}

impl WResNetConfig {
    /// The paper's notation, e.g. `WResNet-152-10`.
    pub fn name(&self) -> String {
        format!("WResNet-{}-{}", self.layers, self.width)
    }

    /// Bottleneck-block counts per stage for the standard depths.
    fn stage_blocks(&self) -> Option<[usize; 4]> {
        match self.layers {
            50 => Some([3, 4, 6, 3]),
            101 => Some([3, 4, 23, 3]),
            152 => Some([3, 8, 36, 3]),
            _ => None,
        }
    }
}

impl Default for WResNetConfig {
    fn default() -> Self {
        WResNetConfig {
            layers: 50,
            width: 4,
            batch: 32,
            image: 224,
            classes: 1000,
            with_updates: true,
        }
    }
}

struct Builder<'a> {
    g: &'a mut Graph,
    weights: Vec<TensorId>,
    layer: usize,
}

impl Builder<'_> {
    fn tags(&self) -> NodeTags {
        NodeTags { layer: Some(self.layer), ..NodeTags::default() }
    }

    // A convolution is naturally parameterized by exactly these seven values.
    #[allow(clippy::too_many_arguments)]
    fn conv(
        &mut self,
        name: &str,
        x: TensorId,
        cin: usize,
        cout: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> tofu_graph::Result<TensorId> {
        let w = self.g.add_weight(&format!("{name}/w"), Shape::new(vec![cin, cout, k, k]));
        self.weights.push(w);
        self.g.add_op_tagged(
            "conv2d",
            name,
            &[x, w],
            Attrs::new().with_int("stride", stride as i64).with_int("pad", pad as i64),
            self.tags(),
        )
    }

    /// Batch-norm stand-in: per-channel scale and shift (the learnable part
    /// of BN; statistics do not affect partitioning structure).
    fn norm(&mut self, name: &str, x: TensorId, channels: usize) -> tofu_graph::Result<TensorId> {
        let gamma = self.g.add_weight(&format!("{name}/gamma"), Shape::new(vec![channels]));
        let beta = self.g.add_weight(&format!("{name}/beta"), Shape::new(vec![channels]));
        self.weights.push(gamma);
        self.weights.push(beta);
        self.g.add_op_tagged(
            "scale_shift",
            name,
            &[x, gamma, beta],
            Attrs::new().with_int("axis", 1),
            self.tags(),
        )
    }

    fn relu(&mut self, name: &str, x: TensorId) -> tofu_graph::Result<TensorId> {
        self.g.add_op_tagged("relu", name, &[x], Attrs::new(), self.tags())
    }
}

/// Builds a WResNet training graph.
///
/// # Errors
///
/// Fails when `layers` is not one of 50/101/152 or a shape is inconsistent.
pub fn wresnet(cfg: &WResNetConfig) -> tofu_graph::Result<BuiltModel> {
    let stages = cfg.stage_blocks().ok_or_else(|| {
        tofu_graph::GraphError::Autodiff(format!("unsupported depth {}", cfg.layers))
    })?;
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new(vec![cfg.batch, 3, cfg.image, cfg.image]));
    let labels = g.add_input("labels", Shape::new(vec![cfg.batch]));
    let mut b = Builder { g: &mut g, weights: Vec::new(), layer: 0 };

    // Stem: 7x7/64W stride 2 + 3x3 max pool stride 2 (when the image is big
    // enough; validation-scale images skip the pool).
    let stem_c = 64 * cfg.width; // W x the vanilla 64-channel stem.
    let mut t = b.conv("stem", x, 3, stem_c, 7, 2, 3)?;
    t = b.norm("stem/bn", t, stem_c)?;
    t = b.relu("stem/relu", t)?;
    if cfg.image >= 64 {
        t = b.g.add_op_tagged(
            "pool2d",
            "stem/pool",
            &[t],
            Attrs::new().with_int("window", 2).with_int("stride", 2),
            NodeTags::default(),
        )?;
    }

    // Four bottleneck stages.
    let mut cin = stem_c;
    for (s, &blocks) in stages.iter().enumerate() {
        let internal = 64 * (1 << s) * cfg.width; // W x vanilla 64/128/256/512.
        let cout = 4 * internal;
        for blk in 0..blocks {
            b.layer += 1;
            let stride = if s > 0 && blk == 0 { 2 } else { 1 };
            let name = format!("s{s}b{blk}");
            let c1 = b.conv(&format!("{name}/c1"), t, cin, internal, 1, 1, 0)?;
            let n1 = b.norm(&format!("{name}/n1"), c1, internal)?;
            let r1 = b.relu(&format!("{name}/r1"), n1)?;
            let c2 = b.conv(&format!("{name}/c2"), r1, internal, internal, 3, stride, 1)?;
            let n2 = b.norm(&format!("{name}/n2"), c2, internal)?;
            let r2 = b.relu(&format!("{name}/r2"), n2)?;
            let c3 = b.conv(&format!("{name}/c3"), r2, internal, cout, 1, 1, 0)?;
            let n3 = b.norm(&format!("{name}/n3"), c3, cout)?;
            let skip = if cin != cout || stride != 1 {
                b.conv(&format!("{name}/proj"), t, cin, cout, 1, stride, 0)?
            } else {
                t
            };
            let sum = b.g.add_op_tagged(
                "add",
                &format!("{name}/add"),
                &[n3, skip],
                Attrs::new(),
                NodeTags { layer: Some(b.layer), ..NodeTags::default() },
            )?;
            t = b.relu(&format!("{name}/out"), sum)?;
            cin = cout;
        }
    }

    // Head: global average pool + classifier.
    let pooled = b.g.add_op_tagged("global_avg_pool", "gap", &[t], Attrs::new(), NodeTags::default())?;
    let wfc = b.g.add_weight("fc/w", Shape::new(vec![cin, cfg.classes]));
    b.weights.push(wfc);
    let logits = b.g.add_op("matmul", "fc", &[pooled, wfc], Attrs::new())?;
    let loss = b.g.add_op("softmax_ce", "loss", &[logits, labels], Attrs::new())?;
    let weights = b.weights;

    let info = autodiff::backward(&mut g, loss, &weights)?;
    let grads: Vec<_> =
        weights.iter().filter_map(|&w| info.grad(w).map(|gw| (w, gw))).collect();
    if cfg.with_updates {
        for (i, &(w, gw)) in grads.iter().enumerate() {
            g.add_op("sgd_update", &format!("upd{i}"), &[w, gw], Attrs::new().with_float("lr", 0.01))?;
        }
    }
    Ok(BuiltModel { graph: g, loss, weights, inputs: vec![x, labels], grads, batch: cfg.batch })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depths_have_correct_block_counts() {
        assert_eq!(
            WResNetConfig { layers: 152, ..Default::default() }.stage_blocks(),
            Some([3, 8, 36, 3])
        );
        assert_eq!(
            WResNetConfig { layers: 101, ..Default::default() }.stage_blocks(),
            Some([3, 4, 23, 3])
        );
        assert!(WResNetConfig { layers: 42, ..Default::default() }.stage_blocks().is_none());
        assert!(wresnet(&WResNetConfig { layers: 42, ..Default::default() }).is_err());
    }

    #[test]
    fn wresnet50_4_builds_with_imagenet_shapes() {
        let cfg = WResNetConfig { batch: 2, with_updates: false, ..Default::default() };
        let m = wresnet(&cfg).unwrap();
        // 16 bottleneck blocks + stem -> thousands of nodes with backward.
        assert!(m.graph.num_nodes() > 300, "{} nodes", m.graph.num_nodes());
        // Final feature map is 7x7 at 2048W/4 channels.
        let gap_in = m.graph.tensor_by_name("s3b2/out:out").unwrap();
        assert_eq!(m.graph.tensor(gap_in).shape.dims(), &[2, 8192, 7, 7]);
    }

    #[test]
    fn weight_size_grows_quadratically_in_width() {
        let w4 = wresnet(&WResNetConfig { batch: 1, width: 4, with_updates: false, ..Default::default() })
            .unwrap()
            .weight_bytes() as f64;
        let w8 = wresnet(&WResNetConfig { batch: 1, width: 8, with_updates: false, ..Default::default() })
            .unwrap()
            .weight_bytes() as f64;
        let ratio = w8 / w4;
        assert!((3.5..4.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn table2_scale_is_reproduced() {
        // Table 2: WResNet-50-4 training state is 4.2 GB; our builder should
        // land in the same ballpark (±25%).
        let m = wresnet(&WResNetConfig {
            layers: 50,
            width: 4,
            batch: 1,
            with_updates: false,
            ..Default::default()
        })
        .unwrap();
        let gb = m.training_state_gb();
        assert!((3.1..5.5).contains(&gb), "WResNet-50-4 state = {gb} GB");
    }

    #[test]
    fn name_matches_paper_notation() {
        let cfg = WResNetConfig { layers: 101, width: 8, ..Default::default() };
        assert_eq!(cfg.name(), "WResNet-101-8");
    }

    #[test]
    fn small_image_variant_builds_for_tests() {
        let cfg = WResNetConfig {
            layers: 50,
            width: 4,
            batch: 2,
            image: 32,
            classes: 10,
            with_updates: false,
        };
        let m = wresnet(&cfg).unwrap();
        assert!(m.graph.num_nodes() > 100);
    }
}
