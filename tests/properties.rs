//! Property-based tests (proptest) on the core invariants.

use proptest::prelude::*;

use tofu::core::{generate, partition, GenOptions, PartitionOptions};
use tofu::graph::{Executor, TensorKind};
use tofu::models::{mlp, MlpConfig};
use tofu::tdl::{discover_strategies, DescBuilder, InputRequirement, OutputPartition, Reducer};
use tofu::tensor::{Shape, Tensor};

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Scatter/gather is an exact round trip for any tiled tensor.
    #[test]
    fn scatter_gather_roundtrip(
        rows_pow in 3u32..6,
        cols_pow in 2u32..5,
        workers in prop::sample::select(vec![2usize, 4, 8]),
        seed in 0u64..1000,
    ) {
        // Every tensor must be splittable `workers` ways along some path of
        // dimensions; a batch smaller than the worker count rightly fails.
        prop_assume!((1usize << rows_pow) >= workers);
        let shape = Shape::new(vec![1 << rows_pow, 1 << cols_pow]);
        let model = mlp(&MlpConfig {
            batch: 1 << rows_pow,
            dims: vec![1 << cols_pow, 1 << cols_pow],
            classes: 4,
            with_updates: false,
        }).unwrap();
        let plan = partition(
            &model.graph,
            &PartitionOptions { workers, ..Default::default() },
        ).unwrap();
        let sharded = generate(&model.graph, &plan, &GenOptions::default()).unwrap();
        let x = model.graph.tensor_by_name("x").unwrap();
        let v = Tensor::random(shape, seed, 1.0);
        let pieces = sharded.scatter(x, &v).unwrap();
        let values: std::collections::BTreeMap<_, _> = pieces.into_iter().collect();
        let back = sharded.gather(x, v.shape(), &values).unwrap();
        prop_assert!(back.allclose(&v, 0.0));
    }

    /// Partition plans split tensors along dimensions that divide evenly.
    #[test]
    fn plans_split_divisible_dimensions(
        batch in prop::sample::select(vec![8usize, 16, 32, 48]),
        hidden in prop::sample::select(vec![16usize, 24, 32, 64]),
        workers in prop::sample::select(vec![2usize, 4, 8]),
    ) {
        let model = mlp(&MlpConfig {
            batch,
            dims: vec![hidden, hidden],
            classes: 8,
            with_updates: true,
        }).unwrap();
        let plan = partition(
            &model.graph,
            &PartitionOptions { workers, ..Default::default() },
        ).unwrap();
        for t in model.graph.tensor_ids() {
            let mut dims = model.graph.tensor(t).shape.dims().to_vec();
            for (step, spec) in plan.tiling[t.0].iter().enumerate() {
                if let Some(d) = spec {
                    let ways = plan.steps[step].ways;
                    prop_assert_eq!(dims[*d] % ways, 0,
                        "tensor {} dim {} extent {} not divisible by {}",
                        model.graph.tensor(t).name, d, dims[*d], ways);
                    dims[*d] /= ways;
                }
            }
        }
    }

    /// Per-step costs are non-decreasing (Theorem 2) for arbitrary MLPs.
    #[test]
    fn deltas_monotone(
        batch in prop::sample::select(vec![16usize, 64, 256]),
        hidden in prop::sample::select(vec![32usize, 128, 512]),
        depth in 1usize..4,
    ) {
        let model = mlp(&MlpConfig {
            batch,
            dims: vec![hidden; depth + 1],
            classes: 16,
            with_updates: true,
        }).unwrap();
        let plan = partition(
            &model.graph,
            &PartitionOptions { workers: 8, ..Default::default() },
        ).unwrap();
        let deltas = plan.step_costs();
        for pair in deltas.windows(2) {
            prop_assert!(pair[0] <= pair[1] * 1.05 + 4096.0, "deltas {:?}", deltas);
        }
    }

    /// Element-wise descriptions of any rank/arity discover exactly one
    /// clean split strategy per dimension.
    #[test]
    fn elementwise_strategies_cover_dimensions(rank in 1usize..5, arity in 1usize..4) {
        let ranks = vec![rank; arity];
        let mut b = DescBuilder::new("ew", &ranks);
        let vars: Vec<_> = (0..rank).map(|d| b.output_var(format!("d{d}"))).collect();
        let coords: Vec<_> = vars.iter().map(|v| v.at()).collect();
        let mut body = b.input(0, &coords);
        for i in 1..arity {
            body = body + b.input(i, &coords);
        }
        let desc = b.build(body).unwrap();
        prop_assert!(desc.is_elementwise());
        let strategies = discover_strategies(&desc).unwrap();
        prop_assert_eq!(strategies.len(), rank);
        for (d, s) in strategies.iter().enumerate() {
            prop_assert_eq!(&s.output, &OutputPartition::Split { dim: d });
            for inp in &s.inputs {
                let clean_split = matches!(inp,
                    InputRequirement::Split { dim, halo } if *dim == d && halo.is_zero());
                prop_assert!(clean_split, "dimension {} requirement {:?}", d, inp);
            }
        }
    }

    /// Matmul-family descriptions always discover the inner-product
    /// reduction strategy regardless of shapes.
    #[test]
    fn matmul_reduction_always_present(m in 1usize..64, n in 1usize..64, k in 1usize..64) {
        let _ = (m, n, k);
        let mut b = DescBuilder::new("matmul", &[2, 2]);
        let (i, j) = (b.output_var("i"), b.output_var("j"));
        let kk = b.reduce_var("k");
        let body = b.input(0, &[i.at(), kk.at()]) * b.input(1, &[kk.at(), j.at()]);
        let desc = b.build_reduce(Reducer::Sum, body).unwrap();
        let s = discover_strategies(&desc).unwrap();
        prop_assert!(s.iter().any(|st| st.output.is_reduce()));
    }
}

/// A plain (non-proptest) sanity case kept alongside: partitioned training
/// loss equals single-device loss on a randomized model.
#[test]
fn randomized_mlp_loss_is_transparent() {
    let model = mlp(&MlpConfig {
        batch: 16,
        dims: vec![32, 48],
        classes: 8,
        with_updates: false,
    })
    .unwrap();
    let plan = partition(
        &model.graph,
        &PartitionOptions { workers: 4, ..Default::default() },
    )
    .unwrap();
    let sharded = generate(&model.graph, &plan, &GenOptions::default()).unwrap();
    let mut base = Executor::new();
    let mut part = Executor::new();
    for t in model.graph.tensor_ids() {
        let meta = model.graph.tensor(t);
        if meta.kind == TensorKind::Intermediate {
            continue;
        }
        let v = if meta.name.starts_with("labels") {
            Tensor::from_vec(meta.shape.clone(), (0..16).map(|i| (i % 8) as f32).collect())
                .unwrap()
        } else {
            Tensor::random(meta.shape.clone(), t.0 as u64, 0.5)
        };
        base.feed(t, v.clone());
        for (shard, piece) in sharded.scatter(t, &v).unwrap() {
            part.feed(shard, piece);
        }
    }
    let base_vals = base.run(&model.graph).unwrap();
    let part_vals = part.run(&sharded.graph).unwrap();
    let got = sharded
        .gather(model.loss, base_vals[&model.loss].shape(), &part_vals)
        .unwrap();
    assert!(got.allclose(&base_vals[&model.loss], 1e-4));
}
