//! Discrete-event simulation of a device-tagged dataflow graph.
//!
//! Each GPU executes its nodes serially (one stream, like MXNet's default).
//! A node consuming a tensor produced on another device triggers a transfer
//! occupying the (undirected) link between the two devices; transfers on the
//! same link serialize. A `multi_fetch` input reads its piece — the bytes
//! come from the piece descriptor, so halo exchanges cost only their
//! overlap — and any other remote input reads the whole tensor.
//!
//! Each block crosses to a device once ([`TransferIndex`]): the first read
//! occupies the link and counts the bytes, and every later read of the same
//! block on that device waits for the recorded arrival, with no link time
//! and no bytes. This cannot make a prediction later. Nodes are processed in
//! id order and every start time is a max over arrivals and link-free
//! times; by induction over that order, dropping a repeated transfer frees
//! its link earlier and delays nothing, and the repeat's arrival was at
//! least the first copy's arrival plus its own duration.

use std::collections::BTreeMap;

use tofu_graph::{fetch_pieces, Graph, TransferIndex};
use tofu_obs::{Collector, Track};

use crate::compute::node_seconds;
use crate::machine::Machine;

/// Result of one simulated iteration.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// End-to-end iteration time (seconds).
    pub makespan: f64,
    /// Total busy compute time per device.
    pub compute_busy: Vec<f64>,
    /// Total bytes moved between devices.
    pub comm_bytes: f64,
    /// Total link-occupancy time (seconds, summed over links).
    pub comm_seconds: f64,
}

impl SimResult {
    /// The fraction of the makespan attributable to communication, measured
    /// the way Fig. 10 does: against a hypothetical run with free transfers.
    pub fn comm_overhead_fraction(&self, compute_only_makespan: f64) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        ((self.makespan - compute_only_makespan) / self.makespan).max(0.0)
    }
}

/// Simulates one iteration of `g` with node `i` on device `devices[i]`.
///
/// `free_transfers` zeroes all communication cost — the methodology Fig. 10
/// uses to separate computation from communication overhead.
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
    simulate_traced(g, devices, leaf_devices, machine, free_transfers, None)
}

/// [`simulate_with_leaf_devices`] that additionally emits the predicted
/// timeline into `obs`: per-node spans on `Track::sim(device)` (named by node
/// name, mirroring what the runtime records on `Track::runtime(device)` so
/// the two overlay in one trace), per-transfer spans on the sender's
/// `Track::sim_link` lane, and cumulative `link s->d bytes` counters.
/// Simulated seconds map to trace microseconds (1 s = 1e6 µs).
pub fn simulate_traced(
    g: &Graph,
    devices: &[usize],
    leaf_devices: &[Option<usize>],
    machine: &Machine,
    free_transfers: bool,
    obs: Option<&Collector>,
) -> SimResult {
    let n = g.num_nodes();
    // Cumulative bytes per directed link, sampled into counters.
    let mut link_sent: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut finish: Vec<f64> = vec![0.0; n];
    let mut device_avail: Vec<f64> = vec![0.0; machine.gpus.max(1)];
    let mut link_avail: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    // Producer device and availability time per tensor.
    let mut tensor_ready: Vec<(usize, f64)> = vec![(usize::MAX, 0.0); g.num_tensors()];
    let mut comm_bytes = 0.0f64;
    let mut comm_seconds = 0.0f64;
    let mut compute_busy = vec![0.0f64; machine.gpus.max(1)];
    // Every transfer so far, and the time each one arrived.
    let mut transfers = TransferIndex::default();
    let mut arrival: Vec<f64> = Vec::new();

    // Leaf tensors (inputs/weights) are resident on their consumer's device
    // from time zero; in partitioned graphs each worker owns its shard, so a
    // leaf's device is taken from the first consumer.
    for id in g.node_ids() {
        let node = g.node(id);
        let dev = devices[id.0];
        for &t in &node.inputs {
            if g.producer(t).is_none() && tensor_ready[t.0].0 == usize::MAX {
                let home = leaf_devices.get(t.0).copied().flatten().unwrap_or(dev);
                tensor_ready[t.0] = (home, 0.0);
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

        // Per-input arrival, with a transfer for each remote block not yet
        // on this device.
        let mut pieces = fetch_pieces(g, id);
        for &t in &node.inputs {
            let piece = pieces.as_mut().and_then(Iterator::next);
            let (src, avail) = tensor_ready[t.0];
            let src = if src == usize::MAX { dev } else { src };
            if src == dev {
                ready = ready.max(avail);
                continue;
            }
            let (x, first) = transfers.read(g, t, dev, piece);
            if !first {
                ready = ready.max(arrival[x]);
                continue;
            }
            let bytes = piece.map_or_else(|| g.tensor(t).shape.bytes(), |p| p.bytes()) as f64;
            comm_bytes += bytes;
            let mut arrive = avail;
            if !free_transfers && bytes > 0.0 {
                let key = (src.min(dev), src.max(dev));
                let bw = machine.link_bw(src, dev);
                let start = avail.max(*link_avail.get(&key).unwrap_or(&0.0));
                let dur = bytes / bw;
                link_avail.insert(key, start + dur);
                comm_seconds += dur;
                arrive = start + dur;
                if let Some(c) = obs {
                    let total = link_sent.entry((src, dev)).or_insert(0.0);
                    *total += bytes;
                    let lane = Track::sim_link(src);
                    c.complete(
                        lane,
                        "comm",
                        &format!("xfer {}", g.tensor(t).name),
                        start * 1e6,
                        arrive * 1e6,
                    );
                    c.counter(lane, &format!("link {src}->{dev} bytes"), arrive * 1e6, *total);
                }
            }
            arrival.push(arrive);
            ready = ready.max(arrive);
        }

        let dur = node_seconds(g, id, machine);
        let end = ready + dur;
        finish[id.0] = end;
        device_avail[dev] = end;
        compute_busy[dev] += dur;
        tensor_ready[node.output.0] = (dev, end);
        if let Some(c) = obs {
            let cat = if node.op == "multi_fetch" { "fetch" } else { "op" };
            c.complete(Track::sim(dev), cat, &node.name, ready * 1e6, end * 1e6);
        }
    }

    SimResult {
        makespan: finish.iter().copied().fold(0.0, f64::max),
        compute_busy,
        comm_bytes,
        comm_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_graph::{Attrs, NodeId};
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
        let r = simulate_with_leaf_devices(&g, &dev, &[], &m, false);
        assert!((r.makespan - r.compute_busy[0]).abs() < 1e-12);
        assert_eq!(r.comm_bytes, 0.0);
    }

    #[test]
    fn cross_device_chain_pays_transfers() {
        let m = Machine::p2_8xlarge();
        let (g, dev) = chain_on(vec![0, 1, 0]);
        let with = simulate_with_leaf_devices(&g, &dev, &[], &m, false);
        let free = simulate_with_leaf_devices(&g, &dev, &[], &m, true);
        assert!(with.makespan > free.makespan);
        // Two hops of 4 MiB each.
        assert_eq!(with.comm_bytes, 2.0 * 4.0 * (1 << 20) as f64);
        assert!(with.comm_overhead_fraction(free.makespan) > 0.0);
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
        let once = simulate_with_leaf_devices(&g, &[0, 1, 1], &[], &m, false);
        assert_eq!(once.comm_bytes, 4.0 * (1 << 20) as f64);
        let free = simulate_with_leaf_devices(&g, &[0, 1, 1], &[], &m, true);
        assert_eq!(free.comm_bytes, once.comm_bytes);
        // A third device pays its own transfer.
        let twice = simulate_with_leaf_devices(&g, &[0, 1, 2], &[], &m, false);
        assert_eq!(twice.comm_bytes, 2.0 * once.comm_bytes);
        // The second read adds no link time: the makespan is the producer,
        // one transfer, then both consumers back to back on device 1.
        let secs = |n: usize| node_seconds(&g, NodeId(n), &m);
        let xfer = once.comm_bytes / m.link_bw(0, 1);
        assert_eq!(once.makespan, secs(0) + xfer + secs(1) + secs(2));
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
        let r = simulate_with_leaf_devices(&g, &[1, 0, 0, 0], &[], &m, false);
        assert_eq!(r.comm_bytes, 2.0 * 16.0 * 4.0);
        let free = simulate_with_leaf_devices(&g, &[1, 0, 0, 0], &[], &m, true);
        assert_eq!(free.comm_bytes, r.comm_bytes);
    }
}
