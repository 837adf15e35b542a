//! Shared helpers for the search test suites: a draw from the workspace's
//! `SplitMix64` and random-DAG builders mixing op kinds, shapes and graph
//! topologies.
//!
//! Each integration-test binary compiles this module independently and uses
//! a different subset of it.
#![allow(dead_code)]

use tofu_graph::{autodiff, Attrs, Graph, TensorId};
use tofu_tensor::{Shape, SplitMix64};

/// An element of `xs` drawn from `rng`: the suites depend on no ambient
/// randomness, only on the explicit seed of the workspace's one generator.
pub fn pick<'a, T>(rng: &mut SplitMix64, xs: &'a [T]) -> &'a T {
    &xs[rng.below(xs.len() as u64) as usize]
}

/// A random layered DAG over 2-D tensors: matmuls against fresh weights,
/// element-wise unary ops, same-shape binary joins (fork-join frontiers) and
/// transposes, capped at `max_ops` operator nodes. Dimensions mix powers of
/// two with non-powers so divisibility varies across worker counts.
pub fn random_dag(seed: u64, max_ops: usize) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let dims: &[usize] = &[4, 6, 8, 12, 16];
    let mut g = Graph::new();
    let batch = *pick(&mut rng, dims);
    let mut cols = *pick(&mut rng, dims);
    let mut cur = g.add_input("x", Shape::new(vec![batch, cols]));
    // Earlier tensors by shape, for same-shape joins.
    let mut by_shape: Vec<(Vec<usize>, TensorId)> = vec![(vec![batch, cols], cur)];
    let mut rows = batch;
    for i in 0..max_ops {
        let choice = rng.below(10);
        cur = if choice < 4 {
            let next = *pick(&mut rng, dims);
            let w = g.add_weight(&format!("w{i}"), Shape::new(vec![cols, next]));
            cols = next;
            g.add_op("matmul", &format!("mm{i}"), &[cur, w], Attrs::new()).unwrap()
        } else if choice < 7 {
            let op = *pick(&mut rng, &["relu", "gelu", "abs"]);
            g.add_op(op, &format!("ew{i}"), &[cur], Attrs::new()).unwrap()
        } else if choice < 9 {
            let shape = vec![rows, cols];
            let peers: Vec<TensorId> = by_shape
                .iter()
                .filter(|(s, t)| *s == shape && *t != cur)
                .map(|&(_, t)| t)
                .collect();
            if peers.is_empty() {
                g.add_op("relu", &format!("ew{i}"), &[cur], Attrs::new()).unwrap()
            } else {
                let other = *pick(&mut rng, &peers);
                g.add_op("add", &format!("join{i}"), &[cur, other], Attrs::new()).unwrap()
            }
        } else {
            std::mem::swap(&mut rows, &mut cols);
            g.add_op("transpose", &format!("tr{i}"), &[cur], Attrs::new()).unwrap()
        };
        by_shape.push((vec![rows, cols], cur));
    }
    g
}

/// A small conv1d tower: exercises 3-D shapes and halo'd input requirements
/// that the 2-D generator cannot reach.
pub fn conv_tower(seed: u64, layers: usize) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let mut g = Graph::new();
    let batch = *pick(&mut rng, &[4usize, 6, 8]);
    let mut chans = *pick(&mut rng, &[3usize, 4, 8]);
    let length = *pick(&mut rng, &[12usize, 16, 20]);
    let mut cur = g.add_input("data", Shape::new(vec![batch, chans, length]));
    for i in 0..layers {
        let out_c = *pick(&mut rng, &[4usize, 6, 8]);
        let f = g.add_weight(&format!("f{i}"), Shape::new(vec![chans, out_c, 3]));
        chans = out_c;
        cur = g.add_op("conv1d", &format!("conv{i}"), &[cur, f], Attrs::new()).unwrap();
        if rng.below(2) == 0 {
            cur = g.add_op("relu", &format!("act{i}"), &[cur], Attrs::new()).unwrap();
        }
    }
    g
}

/// A trainable MLP (with backward pass) whose layer sizes come from the
/// seed — the differential harness runs full multi-step partitions on it.
pub fn random_training_mlp(seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let dims: &[usize] = &[8, 12, 16, 24, 32];
    let batch = *pick(&mut rng, &[8usize, 12, 16, 24]);
    let depth = 1 + rng.below(3) as usize;
    let mut g = Graph::new();
    let mut cols = *pick(&mut rng, dims);
    let mut cur = g.add_input("x", Shape::new(vec![batch, cols]));
    let mut weights = Vec::new();
    for i in 0..depth {
        let next = *pick(&mut rng, dims);
        let w = g.add_weight(&format!("w{i}"), Shape::new(vec![cols, next]));
        weights.push(w);
        cols = next;
        cur = g.add_op("matmul", &format!("fc{i}"), &[cur, w], Attrs::new()).unwrap();
        cur = g.add_op("relu", &format!("act{i}"), &[cur], Attrs::new()).unwrap();
    }
    let labels = g.add_input("labels", Shape::new(vec![batch]));
    let loss = g.add_op("softmax_ce", "loss", &[cur, labels], Attrs::new()).unwrap();
    autodiff::backward(&mut g, loss, &weights).unwrap();
    g
}

/// A small residual CNN training graph: `blocks` blocks of 3×3 `conv2d` +
/// `scale_shift`, a shortcut (identity where the channel count is kept, a
/// 1×1 projection where it changes), `add` and `relu`; then a pooled
/// classifier head, the backward pass and SGD updates. Every block input
/// feeds the block's convolution *and* its shortcut, and shortcut gradients
/// accumulate across blocks, so the DP frontier carries bundles that several
/// consecutive groups never read — the shape the factored transition exists
/// for. Extents mix multiples of 2 and 3 with an odd image width, so the
/// legal splits (and which of them pay a halo) vary with the worker count
/// while the exhaustive reference stays affordable up to two blocks.
pub fn residual_tower(seed: u64, blocks: usize) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let mut g = Graph::new();
    let batch = *pick(&mut rng, &[4usize, 6, 8]);
    let height = *pick(&mut rng, &[4usize, 6]);
    let width = *pick(&mut rng, &[3usize, 5]);
    let mut chans = *pick(&mut rng, &[2usize, 3, 4]);
    let mut weights = Vec::new();
    let mut cur = g.add_input("x", Shape::new(vec![batch, chans, height, width]));
    for b in 0..blocks {
        // Keep the width two times out of three, so identity shortcuts chain.
        let out_c = if rng.below(3) == 0 { *pick(&mut rng, &[2usize, 3, 4]) } else { chans };
        let mut conv = |g: &mut Graph, name: String, k: usize| {
            let w = g.add_weight(&format!("{name}/w"), Shape::new(vec![chans, out_c, k, k]));
            weights.push(w);
            let attrs = Attrs::new().with_int("stride", 1).with_int("pad", (k / 2) as i64);
            g.add_op("conv2d", &name, &[cur, w], attrs).unwrap()
        };
        let body = conv(&mut g, format!("b{b}/conv"), 3);
        let skip = if out_c == chans { cur } else { conv(&mut g, format!("b{b}/proj"), 1) };
        let gamma = g.add_weight(&format!("b{b}/gamma"), Shape::new(vec![out_c]));
        let beta = g.add_weight(&format!("b{b}/beta"), Shape::new(vec![out_c]));
        weights.extend([gamma, beta]);
        let axis = Attrs::new().with_int("axis", 1);
        let norm =
            g.add_op("scale_shift", &format!("b{b}/norm"), &[body, gamma, beta], axis).unwrap();
        let sum = g.add_op("add", &format!("b{b}/add"), &[norm, skip], Attrs::new()).unwrap();
        cur = g.add_op("relu", &format!("b{b}/out"), &[sum], Attrs::new()).unwrap();
        chans = out_c;
    }
    let classes = *pick(&mut rng, &[4usize, 6]);
    train_on_pooled_features(&mut g, cur, classes, weights);
    g
}

/// Completes a CNN training graph: a globally pooled `classes`-way
/// classifier on the `[batch, chans, h, w]` tensor `features`, the backward
/// pass to `weights` (plus the classifier's) and an SGD update per weight.
pub fn train_on_pooled_features(
    g: &mut Graph,
    features: TensorId,
    classes: usize,
    mut weights: Vec<TensorId>,
) {
    let (batch, chans) = {
        let shape = &g.tensor(features).shape;
        (shape.dim(0), shape.dim(1))
    };
    let pooled = g.add_op("global_avg_pool", "gap", &[features], Attrs::new()).unwrap();
    let wfc = g.add_weight("fc/w", Shape::new(vec![chans, classes]));
    weights.push(wfc);
    let logits = g.add_op("matmul", "fc", &[pooled, wfc], Attrs::new()).unwrap();
    let labels = g.add_input("labels", Shape::new(vec![batch]));
    let loss = g.add_op("softmax_ce", "loss", &[logits, labels], Attrs::new()).unwrap();
    let info = autodiff::backward(g, loss, &weights).unwrap();
    for (i, &w) in weights.iter().enumerate() {
        let gw = info.grad(w).expect("every weight reaches the loss");
        let lr = Attrs::new().with_float("lr", 0.01);
        g.add_op("sgd_update", &format!("upd{i}"), &[w, gw], lr).unwrap();
    }
}
