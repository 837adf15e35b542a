//! Tests of the paper's formal claims (appendix A): Theorem 1
//! (commutativity of basic steps), Theorem 2 (non-decreasing per-step
//! costs) and Theorem 3 (the recursion is no worse than other orderings),
//! plus the §5.2 factorization rules.

use tofu::core::{factorize, partition, partition_with_factors, PartitionOptions};
use tofu::models::{mlp, rnn, small_cnn, MlpConfig, RnnConfig, SmallCnnConfig};

#[test]
fn factorization_descends() {
    for k in 2..=64 {
        let f = factorize(k).unwrap();
        assert_eq!(f.iter().product::<usize>(), k);
        for pair in f.windows(2) {
            assert!(pair[0] >= pair[1], "k={k}: {f:?}");
        }
    }
}

#[test]
fn theorem_2_monotone_deltas_across_model_families() {
    let models = [
        mlp(&MlpConfig { batch: 64, dims: vec![128, 256, 128], classes: 32, with_updates: true })
            .unwrap(),
        rnn(&RnnConfig {
            layers: 2,
            hidden: 128,
            batch: 32,
            steps: 4,
            embed: 64,
            vocab: 64,
            with_updates: true,
        })
        .unwrap(),
        small_cnn(&SmallCnnConfig {
            batch: 16,
            channels: 4,
            image: 16,
            conv_channels: 16,
            conv_layers: 2,
            classes: 8,
        })
        .unwrap(),
    ];
    for model in &models {
        let plan =
            partition(&model.graph, &PartitionOptions { workers: 8, ..Default::default() })
                .unwrap();
        let deltas = plan.step_costs();
        assert_eq!(deltas.len(), 3);
        for pair in deltas.windows(2) {
            // Small slack absorbs the fetch-buffer bookkeeping.
            assert!(
                pair[0] <= pair[1] * 1.05 + 4096.0,
                "deltas decreased: {deltas:?}"
            );
        }
    }
}

#[test]
fn theorem_1_commutativity_of_factor_order() {
    // 6 workers as 3x2 vs 2x3: the costs agree within bookkeeping slack
    // because basic plans commute (appendix Theorem 1). The 3x2 order is
    // what the paper mandates (ki >= ki+1); 2x3 must not be cheaper by more
    // than noise.
    let model =
        mlp(&MlpConfig { batch: 36, dims: vec![72, 144], classes: 12, with_updates: false })
            .unwrap();
    let opts = PartitionOptions { workers: 6, ..Default::default() };
    let with_factors = |factors: &[usize]| {
        partition_with_factors(&model.graph, factors, &opts, None).unwrap()
    };
    let forward = with_factors(&[3, 2]);
    let backward = with_factors(&[2, 3]);
    let (a, b) = (forward.total_comm_bytes(), backward.total_comm_bytes());
    assert!(
        (a - b).abs() <= 0.1 * a.max(b) + 4096.0,
        "orders disagree: 3x2 = {a}, 2x3 = {b}"
    );
}

#[test]
fn theorem_3_recursion_not_worse_than_flat_chop() {
    for batch in [32usize, 128] {
        let model = mlp(&MlpConfig {
            batch,
            dims: vec![256, 256],
            classes: 16,
            with_updates: true,
        })
        .unwrap();
        let opts = PartitionOptions { workers: 8, ..Default::default() };
        let with_factors =
            |factors: &[usize]| partition_with_factors(&model.graph, factors, &opts, None).unwrap();
        let recursive = with_factors(&[2, 2, 2]);
        let flat = with_factors(&[8]);
        assert!(
            recursive.total_comm_bytes() <= flat.total_comm_bytes() * 1.01 + 4096.0,
            "recursion worse than flat: {} vs {}",
            recursive.total_comm_bytes(),
            flat.total_comm_bytes()
        );
    }
}

#[test]
fn per_gpu_memory_is_one_over_k() {
    // §2: "each device roughly consumes 1/k times the total memory".
    let model = mlp(&MlpConfig {
        batch: 64,
        dims: vec![256, 256, 256],
        classes: 32,
        with_updates: true,
    })
    .unwrap();
    for workers in [2usize, 4, 8] {
        let plan = partition(
            &model.graph,
            &PartitionOptions { workers, ..Default::default() },
        )
        .unwrap();
        let mut split_bytes = 0u64;
        let mut total_bytes = 0u64;
        for t in model.graph.tensor_ids() {
            let bytes = model.graph.tensor(t).shape.bytes();
            total_bytes += bytes;
            split_bytes += (bytes as f64 * plan.shard_fraction(t) * workers as f64) as u64;
        }
        // Per-worker x workers should stay close to the single-device total
        // (replicated scalars add a little).
        assert!(
            (split_bytes as f64) < total_bytes as f64 * 1.1,
            "workers {workers}: sharding inflated memory"
        );
    }
}
