//! Discrete-event simulation of a device-tagged dataflow graph.
//!
//! Each GPU executes its nodes serially (one stream, like MXNet's default).
//! A node consuming a tensor produced on another device triggers a transfer
//! occupying the (undirected) link between the two devices; transfers on the
//! same link serialize. A `multi_fetch` input reads its piece — the bytes
//! come from the piece descriptor, so halo exchanges cost only their
//! overlap — and any other remote input reads the whole tensor.
//!
//! One walk in id order keeps two clocks over the same schedule: the linked
//! clock charges every transfer its link time, and the free clock lets every
//! transfer arrive the moment its source is ready — the run Fig. 10 measures
//! computation against. The two share the transfers, the bytes and each
//! node's duration; only a transfer's arrival differs. The free clock never
//! reads link state, so each of its times is the same chain of `max` and `+`
//! over the same operands that a walk with free transfers alone computes.
//!
//! Each element crosses to a device once ([`TransferIndex`]): a read waits
//! for the recorded arrival of every earlier transfer of its tensor to its
//! device that it overlaps, and only the remainder of its block — the
//! elements none of them moved — becomes new transfers, which occupy the
//! link and count the bytes. This cannot make a prediction later than
//! moving every distinct block would. Nodes are processed in id order and
//! every start time is a max over arrivals and link-free times; by
//! induction over that order, a read whose block would have crossed either
//! moves its remainder, which starts no later and is no larger, or is
//! covered by transfers of earlier reads, which left over the same link
//! before its block could have. The same induction puts the linked clock at
//! or after the free clock at every node.

use std::collections::BTreeMap;

use tofu_graph::{fetch_pieces, Graph, Served, TransferIndex};
use tofu_obs::{Collector, Track};

use crate::compute::node_seconds;
use crate::machine::Machine;

/// Result of one simulated iteration.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// End-to-end iteration time (seconds).
    pub makespan: f64,
    /// Iteration time with every transfer free (Fig. 10's compute bar).
    pub compute_only_makespan: f64,
    /// Total busy compute time per device.
    pub compute_busy: Vec<f64>,
    /// Total bytes moved between devices.
    pub comm_bytes: f64,
    /// Total link-occupancy time (seconds, summed over links).
    pub comm_seconds: f64,
}

impl SimResult {
    /// The fraction of the makespan attributable to communication, measured
    /// the way Fig. 10 does: against the same step with free transfers.
    pub(crate) fn comm_overhead_fraction(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        ((self.makespan - self.compute_only_makespan) / self.makespan).max(0.0)
    }
}

/// A time on both clocks: with link time charged, and with free transfers.
#[derive(Debug, Clone, Copy, Default)]
struct Times {
    linked: f64,
    free: f64,
}

impl Times {
    fn max(self, other: Times) -> Times {
        Times { linked: self.linked.max(other.linked), free: self.free.max(other.free) }
    }
}

/// Simulates one iteration of `g` with node `i` on device `devices[i]`.
///
/// `free_transfers` reports the free clock as `makespan` (and no link time)
/// — the methodology Fig. 10 uses to separate computation from
/// communication overhead. Either way the result carries both clocks; the
/// flag remains for callers that read the compute-only time as `makespan`.
///
/// `leaf_devices` is indexed by `TensorId`; a `Some(d)` entry pins that leaf
/// to device `d` at time zero, overriding the first-consumer heuristic (which
/// remains the fallback for out-of-range or `None` entries). Partitioned
/// graphs pass `ShardedGraph::device_of_tensor` here so that a shard owned by
/// one worker but first read through another worker's `multi_fetch` is not
/// misplaced — misplacement turns the owner's local reads into phantom
/// full-tensor transfers and inflates `comm_bytes`.
pub fn simulate_with_leaf_devices(
    g: &Graph,
    devices: &[usize],
    leaf_devices: &[Option<usize>],
    machine: &Machine,
    free_transfers: bool,
) -> SimResult {
    let r = simulate_traced(g, devices, leaf_devices, machine, None);
    if free_transfers {
        return SimResult { makespan: r.compute_only_makespan, comm_seconds: 0.0, ..r };
    }
    r
}

/// [`simulate_with_leaf_devices`] that additionally emits the predicted
/// timeline into `obs`: per-node spans on `Track::sim(device)` (named by node
/// name, mirroring what the runtime records on `Track::runtime(device)` so
/// the two overlay in one trace), per-transfer spans on the sender's
/// `Track::sim_link` lane, and cumulative `link s->d bytes` counters. The
/// spans are the linked clock's. Simulated seconds map to trace
/// microseconds (1 s = 1e6 µs).
pub fn simulate_traced(
    g: &Graph,
    devices: &[usize],
    leaf_devices: &[Option<usize>],
    machine: &Machine,
    obs: Option<&Collector>,
) -> SimResult {
    // Cumulative bytes per directed link, sampled into counters.
    let mut link_sent: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut finish: Vec<Times> = vec![Times::default(); g.num_nodes()];
    let mut device_avail: Vec<Times> = vec![Times::default(); machine.gpus.max(1)];
    let mut link_avail: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    // Producer device and availability time per tensor.
    let mut tensor_ready: Vec<(usize, Times)> =
        vec![(usize::MAX, Times::default()); g.num_tensors()];
    let mut comm_bytes = 0.0f64;
    let mut comm_seconds = 0.0f64;
    let mut compute_busy = vec![0.0f64; machine.gpus.max(1)];
    // Every transfer so far, and the time each one arrived.
    let mut transfers = TransferIndex::default();
    let mut arrival: Vec<Times> = Vec::new();

    // Leaf tensors (inputs/weights) are resident on their consumer's device
    // from time zero; in partitioned graphs each worker owns its shard, so a
    // leaf's device is taken from the first consumer.
    for id in g.node_ids() {
        let node = g.node(id);
        let dev = devices[id.0];
        for &t in &node.inputs {
            if g.producer(t).is_none() && tensor_ready[t.0].0 == usize::MAX {
                let home = leaf_devices.get(t.0).copied().flatten().unwrap_or(dev);
                tensor_ready[t.0] = (home, Times::default());
            }
        }
    }

    for id in g.node_ids() {
        let node = g.node(id);
        let dev = devices[id.0];
        let mut ready = device_avail[dev];
        for &dep in &node.control_deps {
            ready = ready.max(finish[dep.0]);
        }

        // Per-input arrival, with a transfer for each part of a remote block
        // not yet on this device.
        let mut pieces = fetch_pieces(g, id);
        for &t in &node.inputs {
            let piece = pieces.as_mut().and_then(Iterator::next);
            let (src, avail) = tensor_ready[t.0];
            let src = if src == usize::MAX { dev } else { src };
            if src == dev {
                ready = ready.max(avail);
                continue;
            }
            let Served { old, new } = transfers.read(g, t, dev, piece);
            for &x in old {
                ready = ready.max(arrival[x]);
            }
            for x in new {
                let bytes = transfers.block(x).1.iter().product::<i64>() as f64 * 4.0;
                comm_bytes += bytes;
                let key = (src.min(dev), src.max(dev));
                let start = avail.linked.max(*link_avail.get(&key).unwrap_or(&0.0));
                let dur = bytes / machine.link_bw(src, dev);
                let arrive = Times { linked: start + dur, free: avail.free };
                link_avail.insert(key, arrive.linked);
                comm_seconds += dur;
                if let Some(c) = obs {
                    let total = link_sent.entry((src, dev)).or_insert(0.0);
                    *total += bytes;
                    let (lane, end) = (Track::sim_link(src), arrive.linked * 1e6);
                    let name = format!("xfer {}", g.tensor(t).name);
                    c.complete(lane, "comm", &name, start * 1e6, end);
                    c.counter(lane, &format!("link {src}->{dev} bytes"), end, *total);
                }
                arrival.push(arrive);
                ready = ready.max(arrive);
            }
        }

        let dur = node_seconds(g, id, machine);
        let end = Times { linked: ready.linked + dur, free: ready.free + dur };
        finish[id.0] = end;
        device_avail[dev] = end;
        compute_busy[dev] += dur;
        tensor_ready[node.output.0] = (dev, end);
        if let Some(c) = obs {
            let cat = if node.op == "multi_fetch" { "fetch" } else { "op" };
            c.complete(Track::sim(dev), cat, &node.name, ready.linked * 1e6, end.linked * 1e6);
        }
    }

    let last = finish.iter().fold(Times::default(), |a, &b| a.max(b));
    SimResult {
        makespan: last.linked,
        compute_only_makespan: last.free,
        compute_busy,
        comm_bytes,
        comm_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tofu_graph::{Attrs, NodeId};
    use tofu_models::{mlp, MlpConfig};
    use tofu_tensor::Shape;

    fn chain_on(devices: Vec<usize>) -> (Graph, Vec<usize>) {
        let mut g = Graph::new();
        let mut t = g.add_input("x", Shape::new(vec![1 << 20]));
        for i in 0..devices.len() {
            t = g.add_op("relu", &format!("r{i}"), &[t], Attrs::new()).unwrap();
        }
        (g, devices)
    }

    #[test]
    fn single_device_serializes() {
        let m = Machine::p2_8xlarge();
        let (g, dev) = chain_on(vec![0, 0, 0]);
        let r = simulate_traced(&g, &dev, &[], &m, None);
        assert!((r.makespan - r.compute_busy[0]).abs() < 1e-12);
        assert_eq!(r.comm_bytes, 0.0);
        assert_eq!(r.compute_only_makespan, r.makespan);
    }

    #[test]
    fn cross_device_chain_pays_transfers() {
        let m = Machine::p2_8xlarge();
        let (g, dev) = chain_on(vec![0, 1, 0]);
        let r = simulate_traced(&g, &dev, &[], &m, None);
        assert!(r.makespan > r.compute_only_makespan);
        // Two hops of 4 MiB each.
        assert_eq!(r.comm_bytes, 2.0 * 4.0 * (1 << 20) as f64);
        assert!(r.comm_overhead_fraction() > 0.0);
        // With free transfers the chain is its three nodes back to back.
        let secs = |n: usize| node_seconds(&g, NodeId(n), &m);
        assert_eq!(r.compute_only_makespan, secs(0) + secs(1) + secs(2));
        // The kept flag reports the free clock as the makespan.
        let free = simulate_with_leaf_devices(&g, &dev, &[], &m, true);
        assert_eq!(free.makespan, r.compute_only_makespan);
        assert_eq!((free.comm_bytes, free.comm_seconds), (r.comm_bytes, 0.0));
    }

    #[test]
    fn parallel_branches_overlap() {
        let m = Machine::p2_8xlarge();
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![1 << 22]));
        let _a = g.add_op("relu", "a", &[x], Attrs::new()).unwrap();
        let _b = g.add_op("tanh", "b", &[x], Attrs::new()).unwrap();
        // Same work on one device vs two.
        let serial = simulate_with_leaf_devices(&g, &[0, 0], &[], &m, false);
        let parallel = simulate_with_leaf_devices(&g, &[0, 1], &[], &m, true);
        assert!(parallel.makespan < serial.makespan * 0.75);
    }

    #[test]
    fn slow_links_cost_more() {
        let m = Machine::p2_8xlarge();
        let (g, _) = chain_on(vec![0, 0]);
        let near = simulate_with_leaf_devices(&g, &[0, 1], &[], &m, false);
        let far = simulate_with_leaf_devices(&g, &[0, 7], &[], &m, false);
        assert!(far.makespan > near.makespan);
    }

    #[test]
    fn multi_fetch_bytes_come_from_pieces() {
        let m = Machine::p2_8xlarge();
        let mut g = Graph::new();
        let a = g.add_input("a", Shape::new(vec![64]));
        let b = g.add_input("b", Shape::new(vec![64]));
        let _pa = g.add_op("relu", "pa", &[a], Attrs::new()).unwrap();
        let _pb = g.add_op("relu", "pb", &[b], Attrs::new()).unwrap();
        let pa = g.tensor_by_name("pa:out").unwrap();
        let pb = g.tensor_by_name("pb:out").unwrap();
        // Fetch 16 elements from pa and 48 from pb.
        let _f = g
            .add_op(
                "multi_fetch",
                "fetch",
                &[pa, pb],
                Attrs::new()
                    .with_ints("out_dims", vec![64])
                    .with_ints("pieces", vec![0, 0, 16, 0, 16, 48]),
            )
            .unwrap();
        // pa on device 1, pb on device 2, fetch on device 0.
        let r = simulate_with_leaf_devices(&g, &[1, 2, 0], &[], &m, false);
        assert_eq!(r.comm_bytes, (16.0 + 48.0) * 4.0);
    }

    /// Op placement: two consumers on device 1 read one tensor of device 0.
    /// It crosses once, and the second consumer waits for the same arrival.
    #[test]
    fn a_tensor_crosses_to_a_device_once() {
        let m = Machine::p2_8xlarge();
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![1 << 20]));
        let p = g.add_op("relu", "p", &[x], Attrs::new()).unwrap();
        let _a = g.add_op("tanh", "a", &[p], Attrs::new()).unwrap();
        let _b = g.add_op("sigmoid", "b", &[p], Attrs::new()).unwrap();
        let once = simulate_traced(&g, &[0, 1, 1], &[], &m, None);
        assert_eq!(once.comm_bytes, 4.0 * (1 << 20) as f64);
        // A third device pays its own transfer.
        let twice = simulate_traced(&g, &[0, 1, 2], &[], &m, None);
        assert_eq!(twice.comm_bytes, 2.0 * once.comm_bytes);
        // The second read adds no link time: the makespan is the producer,
        // one transfer, then both consumers back to back on device 1. The
        // same call's free clock drops only the transfer.
        let secs = |n: usize| node_seconds(&g, NodeId(n), &m);
        let xfer = once.comm_bytes / m.link_bw(0, 1);
        assert_eq!(once.makespan, secs(0) + xfer + secs(1) + secs(2));
        assert_eq!(once.compute_only_makespan, secs(0) + secs(1) + secs(2));
        assert_eq!(once.comm_seconds, xfer);
    }

    /// Two fetches on device 0 read the same block of device 1's tensor and
    /// a third reads a different block: two transfers, and the repeated
    /// read lands at the first one's arrival.
    #[test]
    fn repeated_fetch_of_a_block_is_one_transfer() {
        let m = Machine::p2_8xlarge();
        let mut g = Graph::new();
        let a = g.add_input("a", Shape::new(vec![64]));
        let p = g.add_op("relu", "p", &[a], Attrs::new()).unwrap();
        let fetch = |g: &mut Graph, name: &str, begin: i64| {
            let attrs = Attrs::new()
                .with_ints("out_dims", vec![16])
                .with_ints("pieces", vec![begin, 0, 16]);
            g.add_op("multi_fetch", name, &[p], attrs).unwrap()
        };
        fetch(&mut g, "f0", 0);
        fetch(&mut g, "f1", 0);
        fetch(&mut g, "f2", 16);
        let r = simulate_traced(&g, &[1, 0, 0, 0], &[], &m, None);
        assert_eq!(r.comm_bytes, 2.0 * 16.0 * 4.0);
        // The free clock waits for the producer and nothing else.
        let secs = |n: usize| node_seconds(&g, NodeId(n), &m);
        assert_eq!(r.compute_only_makespan, secs(0) + secs(1) + secs(2) + secs(3));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Over random device maps of an MLP training step the linked clock
        /// never undercuts the free one, and with every node on one device,
        /// where nothing crosses a link, the two clocks agree.
        #[test]
        fn the_linked_clock_never_undercuts_the_free_one(
            devs in 1usize..9,
            picks in proptest::collection::vec(0usize..8, 64..65),
        ) {
            let cfg = MlpConfig { batch: 16, dims: vec![32, 64], classes: 8, with_updates: true };
            let g = mlp(&cfg).unwrap().graph;
            let m = Machine::p2_8xlarge();
            let devices: Vec<usize> =
                (0..g.num_nodes()).map(|i| picks[i % picks.len()] % devs).collect();
            let r = simulate_traced(&g, &devices, &[], &m, None);
            prop_assert!(r.compute_only_makespan <= r.makespan);
            let one = simulate_traced(&g, &vec![devices[0]; g.num_nodes()], &[], &m, None);
            prop_assert_eq!(one.compute_only_makespan, one.makespan);
        }
    }
}
