//! Property tests for checkpoint resharding: slicing a full tensor into one
//! plan's shard layout and reassembling it — within a plan or across two
//! plans with different worker counts (including prime and non-power-of-two
//! widths) — must be bit-identical and conserve every byte.

use std::collections::BTreeMap;

use proptest::prelude::*;
use tofu_core::{generate, partition, GenOptions, PartitionOptions, ShardedGraph};
use tofu_models::{mlp, MlpConfig};
use tofu_runtime::FullSnapshot;
use tofu_tensor::Tensor;

/// An MLP whose batch (840 = lcm 1..8) is divisible by every tested width,
/// so a feasible split exists for worker counts 2 through 8 — including the
/// primes 5 and 7 no power-of-two schedule reaches.
fn sharded_at(workers: usize) -> (tofu_graph::Graph, ShardedGraph) {
    let m = mlp(&MlpConfig { batch: 840, dims: vec![16], classes: 8, with_updates: true })
        .unwrap();
    let plan = partition(&m.graph, &PartitionOptions { workers, ..Default::default() }).unwrap();
    let sharded = generate(&m.graph, &plan, &GenOptions::default()).unwrap();
    (m.graph, sharded)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// `ShardedGraph::scatter` → `gather` round-trips bit-identically under
    /// the source plan AND through a second plan at a different worker
    /// count, for every original tensor of the graph — replicated ones
    /// included — conserving total bytes.
    #[test]
    fn reshard_round_trips_across_worker_counts(
        w_old in prop::sample::select(vec![2usize, 3, 4, 6, 8]),
        w_new in 2usize..9,
        seed in 0u64..1_000_000,
    ) {
        prop_assume!(w_old != w_new);
        let (g, old) = sharded_at(w_old);
        let (_, new) = sharded_at(w_new);
        // Some tensor is held whole by more than one worker, so gather's
        // overlapping writes are exercised, not just disjoint tiles.
        prop_assert!(
            old.regions.values().any(|r| r[1..].contains(&r[0])),
            "no replicated tensor at width {}", w_old
        );
        for (i, (&t, _)) in old.shards.iter().enumerate() {
            let full_shape = g.tensor(t).shape.clone();
            let full = Tensor::random(full_shape, seed + i as u64 + 1, 1.0);

            // Within-plan round trip.
            let mut values = BTreeMap::new();
            for (shard, piece) in old.scatter(t, &full).unwrap() {
                values.insert(shard, piece);
            }
            let back = old.gather(t, full.shape(), &values).unwrap();
            prop_assert_eq!(back.shape(), full.shape(), "tensor {:?} changed shape", t);
            prop_assert_eq!(
                back.shape().bytes(),
                full.shape().bytes(),
                "tensor {:?} lost bytes", t
            );
            prop_assert_eq!(bits(&back), bits(&full), "tensor {:?} not bit-identical", t);

            // Cross-plan: reshard the gathered value onto the other width
            // and reassemble there.
            let mut values_new = BTreeMap::new();
            for (shard, piece) in new.scatter(t, &back).unwrap() {
                values_new.insert(shard, piece);
            }
            let across = new.gather(t, full.shape(), &values_new).unwrap();
            prop_assert_eq!(
                bits(&across),
                bits(&full),
                "tensor {:?} corrupted by {} → {} reshard", t, w_old, w_new
            );
        }
    }

    /// A whole `FullSnapshot` survives shrink-then-grow AND grow-then-shrink
    /// resharding bit-for-bit: round-tripping every tensor through the
    /// narrower plan's shard layout and then the wider one's (and the other
    /// way round) reproduces the snapshot exactly. This is the invariant
    /// elastic recovery leans on when a run shrinks onto survivors and later
    /// grows back onto a rejoined device.
    #[test]
    fn snapshot_reshard_round_trips_in_both_directions(
        w_a in 2usize..9,
        w_b in 2usize..9,
        seed in 0u64..1_000_000,
    ) {
        prop_assume!(w_a != w_b);
        let (w_small, w_large) = (w_a.min(w_b), w_a.max(w_b));
        let (g, small) = sharded_at(w_small);
        let (_, large) = sharded_at(w_large);
        let mut tensors = BTreeMap::new();
        for (i, (&t, _)) in small.shards.iter().enumerate() {
            let full_shape = g.tensor(t).shape.clone();
            tensors.insert(t, Tensor::random(full_shape, seed + i as u64 + 1, 1.0));
        }
        let snap = FullSnapshot { ckpt: 1, every: 1, tensors };

        // Shrink then grow: through the narrow layout, then the wide one.
        let shrunk = snap.reshard_through(&small).unwrap();
        let regrown = shrunk.reshard_through(&large).unwrap();
        // Grow then shrink: the opposite order.
        let grown = snap.reshard_through(&large).unwrap();
        let reshrunk = grown.reshard_through(&small).unwrap();

        for (t, want) in &snap.tensors {
            for (name, got) in [
                ("shrink", &shrunk.tensors[t]),
                ("shrink→grow", &regrown.tensors[t]),
                ("grow", &grown.tensors[t]),
                ("grow→shrink", &reshrunk.tensors[t]),
            ] {
                prop_assert_eq!(got.shape(), want.shape(), "tensor {:?} changed shape", t);
                prop_assert_eq!(
                    bits(got),
                    bits(want),
                    "tensor {:?} corrupted by {} through {}/{} workers",
                    t, name, w_small, w_large
                );
            }
        }
    }
}
