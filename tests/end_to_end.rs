//! End-to-end transparency tests (§2): for every model family, a Tofu
//! partition plan's 8-worker execution computes *exactly* what the original
//! single-device graph computes — losses and every weight gradient.

use std::collections::BTreeMap;

use tofu::core::{generate, partition, GenOptions, PartitionOptions};
use tofu::graph::{Executor, Graph, TensorId, TensorKind};
use tofu::models::{mlp, rnn, small_cnn, BuiltModel, MlpConfig, RnnConfig, SmallCnnConfig};
use tofu::tensor::Tensor;

fn feeds(g: &Graph) -> Vec<(TensorId, Tensor)> {
    let mut out = Vec::new();
    for t in g.tensor_ids() {
        let meta = g.tensor(t);
        if meta.kind == TensorKind::Intermediate {
            continue;
        }
        let v = if meta.name.contains("labels") {
            let b = meta.shape.dim(0);
            Tensor::from_vec(meta.shape.clone(), (0..b).map(|i| (i % 3) as f32).collect())
                .unwrap()
        } else {
            Tensor::random(meta.shape.clone(), t.0 as u64 + 11, 0.4)
        };
        out.push((t, v));
    }
    out
}

/// Partitions, generates, executes both versions and compares loss + grads.
fn validate(model: &BuiltModel, workers: usize, tol: f32) {
    let g = &model.graph;
    let plan = partition(g, &PartitionOptions { workers, ..Default::default() })
        .expect("partition succeeds");
    let sharded = generate(g, &plan, &GenOptions::default()).expect("generation succeeds");
    assert!(sharded.exact, "expected an exactly executable plan");

    let mut base = Executor::new();
    let mut part = Executor::new();
    for (t, v) in feeds(g) {
        base.feed(t, v.clone());
        for (shard, piece) in sharded.scatter(t, &v).expect("scatter") {
            part.feed(shard, piece);
        }
    }
    let base_vals = base.run(g).expect("single-device run");
    let part_vals: BTreeMap<_, _> = part.run(&sharded.graph).expect("partitioned run");

    let mut to_check: Vec<TensorId> = vec![model.loss];
    to_check.extend(model.grads.iter().map(|&(_, gw)| gw));
    for t in to_check {
        let expect = &base_vals[&t];
        let got = sharded.gather(t, expect.shape(), &part_vals).expect("gather");
        assert!(
            got.allclose(expect, tol),
            "tensor {} diverged between 1 and {workers} workers",
            g.tensor(t).name
        );
    }
}

#[test]
fn mlp_two_four_eight_workers() {
    let model = mlp(&MlpConfig {
        batch: 16,
        dims: vec![32, 64, 32],
        classes: 8,
        with_updates: false,
    })
    .unwrap();
    for workers in [2, 4, 8] {
        validate(&model, workers, 1e-3);
    }
}

#[test]
fn mlp_with_sgd_updates() {
    let model = mlp(&MlpConfig {
        batch: 16,
        dims: vec![32, 32],
        classes: 8,
        with_updates: true,
    })
    .unwrap();
    validate(&model, 4, 1e-3);
}

#[test]
fn cnn_with_padded_convolutions() {
    // Convolution with pad 1 exercises the zero-materializing MultiFetch and
    // (when a spatial split is chosen) halo exchange.
    let model = small_cnn(&SmallCnnConfig {
        batch: 8,
        channels: 4,
        image: 8,
        conv_channels: 8,
        conv_layers: 2,
        classes: 4,
    })
    .unwrap();
    for workers in [2, 4] {
        validate(&model, workers, 1e-3);
    }
}

#[test]
fn unrolled_rnn_with_timestep_coalescing() {
    let model = rnn(&RnnConfig {
        layers: 2,
        hidden: 16,
        batch: 8,
        steps: 3,
        embed: 8,
        vocab: 8,
        with_updates: false,
    })
    .unwrap();
    for workers in [2, 4] {
        validate(&model, workers, 1e-3);
    }
}

#[test]
fn non_power_of_two_workers() {
    let model = mlp(&MlpConfig {
        batch: 12,
        dims: vec![24, 36],
        classes: 6,
        with_updates: false,
    })
    .unwrap();
    validate(&model, 6, 1e-3);
    validate(&model, 3, 1e-3);
}

/// Scatter → threaded runtime → gather must reproduce the unpartitioned
/// `Executor::run`, exercising the real channel interconnect rather than a
/// second single-threaded executor.
fn validate_runtime(model: &BuiltModel, workers: usize, tol: f32) {
    let g = &model.graph;
    let plan = partition(g, &PartitionOptions { workers, ..Default::default() })
        .expect("partition succeeds");
    let sharded = generate(g, &plan, &GenOptions::default()).expect("generation succeeds");
    assert!(sharded.exact, "expected an exactly executable plan");

    let mut base = Executor::new();
    let mut shard_feeds = Vec::new();
    for (t, v) in feeds(g) {
        base.feed(t, v.clone());
        shard_feeds.extend(sharded.scatter(t, &v).expect("scatter"));
    }
    let base_vals = base.run(g).expect("single-device run");
    let out = tofu::runtime::run_with_options(&sharded, &shard_feeds, &Default::default())
        .expect("runtime run");
    assert_eq!(out.trace.workers.len(), workers);

    let mut to_check: Vec<TensorId> = vec![model.loss];
    to_check.extend(model.grads.iter().map(|&(_, gw)| gw));
    for t in to_check {
        let expect = &base_vals[&t];
        let got = sharded.gather(t, expect.shape(), &out.values).expect("gather");
        assert!(
            got.allclose(expect, tol),
            "tensor {} diverged between the executor and the {workers}-worker runtime",
            g.tensor(t).name
        );
    }
}

#[test]
fn runtime_matches_executor_on_mlp() {
    let model = mlp(&MlpConfig {
        batch: 16,
        dims: vec![32, 64, 32],
        classes: 8,
        with_updates: true,
    })
    .unwrap();
    for workers in [2, 4, 8] {
        validate_runtime(&model, workers, 1e-3);
    }
}

#[test]
fn runtime_matches_executor_on_cnn() {
    let model = small_cnn(&SmallCnnConfig {
        batch: 8,
        channels: 4,
        image: 8,
        conv_channels: 8,
        conv_layers: 2,
        classes: 4,
    })
    .unwrap();
    for workers in [2, 4] {
        validate_runtime(&model, workers, 1e-3);
    }
}

mod runtime_roundtrip_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// For arbitrary (power-of-two) MLP shapes, the 1- and 4-worker
        /// runtimes both reproduce the unpartitioned executor.
        #[test]
        fn runtime_roundtrip_over_shapes(
            batch_pow in 2u32..5,
            hidden_pow in 3u32..6,
            classes in prop::sample::select(vec![4usize, 8]),
        ) {
            let batch = 1usize << batch_pow;
            let hidden = 1usize << hidden_pow;
            prop_assume!(batch >= 4);
            let model = mlp(&MlpConfig {
                batch,
                dims: vec![hidden, hidden],
                classes,
                with_updates: false,
            })
            .unwrap();
            for workers in [1usize, 4] {
                validate_runtime(&model, workers, 1e-4);
            }
        }
    }
}

#[test]
fn baseline_partitioners_are_also_transparent() {
    use tofu::core::baselines::{run, Algorithm};
    let model = mlp(&MlpConfig {
        batch: 16,
        dims: vec![32, 32],
        classes: 8,
        with_updates: false,
    })
    .unwrap();
    let g = &model.graph;
    for alg in Algorithm::all() {
        let plan = run(g, alg, 4).unwrap_or_else(|e| panic!("{}: {e}", alg.label()));
        let sharded = generate(g, &plan, &GenOptions::default()).expect("generation");
        let mut base = Executor::new();
        let mut part = Executor::new();
        for (t, v) in feeds(g) {
            base.feed(t, v.clone());
            for (shard, piece) in sharded.scatter(t, &v).unwrap() {
                part.feed(shard, piece);
            }
        }
        let base_vals = base.run(g).unwrap();
        let part_vals: BTreeMap<_, _> = part.run(&sharded.graph).unwrap();
        let expect = &base_vals[&model.loss];
        let got = sharded.gather(model.loss, expect.shape(), &part_vals).unwrap();
        assert!(got.allclose(expect, 1e-3), "{} loss diverged", alg.label());
    }
}
