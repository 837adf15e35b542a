//! Plan-time send routing.
//!
//! The old data plane resolved every push at send time: an ordered-map lookup
//! per executed node to find its outgoing comm edges, a per-run clone fan-out
//! of every channel sender, and a `fetch_pieces` re-decode per received
//! message to learn what the payload should look like. [`RoutePlan`] hoists
//! all of that to plan time, once per attempt, in one pass over the nodes:
//!
//! - every transfer — a block of a tensor crossing to one device, however
//!   many `multi_fetch` nodes there read it (`tofu_graph::TransferIndex`) —
//!   gets one dense receiver-side **slot**, numbered per receiver in
//!   first-reader order ([`ShardedGraph::comm_edges`] order), so the
//!   assignment is a pure function of the graph and identical across
//!   attempts and resumes;
//! - each sender's routes, one per transfer, are grouped by producing
//!   schedule position, so the send path is a slice walk with no map
//!   lookups;
//! - each receiver gets a [`SlotExpect`] per slot — the full-integrity
//!   cross-check data the old path re-derived from the graph per message,
//!   plus how many reads this attempt makes of the slot — and a pre-decoded
//!   [`FetchPlan`] per `multi_fetch` position, so assembly never re-parses
//!   node attributes.
//!
//! Nodes are visited in id order, which is every worker's schedule order and
//! `comm_edges()` order, and each `multi_fetch`'s pieces are read once, as
//! views of its attribute. The table is rebuilt on every attempt, so every
//! training step pays for this pass (DESIGN.md "Transport & integrity
//! levels" has its cost); `comm_edges()` remains the graph-level definition
//! the simulator and the ledgers count from.
//!
//! Resume filtering: a transfer is routed if any of its readers is at or
//! after the receiver's cut, and is placed when the first such reader is
//! visited — under its producer's position, or as an owed startup send when
//! it was produced before the sender's cut (or is a leaf). Its slot expects
//! only the reads at or after the cut. Slots are graph-static, so a resumed
//! attempt's slot numbering matches the original run's.

use tofu_core::{fetch_pieces, FetchPiece, ShardedGraph};
use tofu_graph::{NodeId, TensorId, TransferIndex};

use crate::error::RuntimeError;
use crate::Result;

/// One pre-resolved push: everything the sender needs to extract, stamp and
/// address a transfer without consulting the graph.
#[derive(Debug, Clone)]
pub(crate) struct SendRoute<'g> {
    /// Receiving worker.
    pub(crate) dst: usize,
    /// Tensor the piece is cut from (must be in the sender's values).
    pub(crate) tensor: TensorId,
    /// The transfer's first reader, a `multi_fetch` node (the stamp, and
    /// failure attribution).
    pub(crate) consumer: NodeId,
    /// Position of `tensor` in the first reader's input list.
    pub(crate) input_index: usize,
    /// Receiver-side slot the piece lands in.
    pub(crate) slot: u32,
    /// The block to extract (`src_begin` and `len`; `dst_begin` is the
    /// first reader's).
    pub(crate) piece: FetchPiece<'g>,
}

/// What must arrive in one receive slot — the receiver's full-integrity
/// cross-check, resolved at plan time — and how often it is read.
#[derive(Debug, Clone)]
pub(crate) struct SlotExpect<'g> {
    /// Worker the piece must come from.
    pub(crate) src: usize,
    /// The transfer's first reader, as the sender stamps it.
    pub(crate) consumer: NodeId,
    /// Input index within that reader.
    pub(crate) input_index: usize,
    /// Block extent of the payload.
    pub(crate) len: &'g [i64],
    /// Reads this attempt makes of the slot: the transfer's readers at or
    /// after the receiver's cut. The last one takes the piece out.
    pub(crate) reads: u32,
}

/// One input of a pre-decoded `multi_fetch` assembly.
#[derive(Debug, Clone)]
pub(crate) enum FetchSource {
    /// Read from the worker's own values.
    Local(TensorId),
    /// Wait for the piece in this receive slot.
    Remote {
        /// Receive slot the piece arrives in.
        slot: u32,
    },
}

/// A pre-decoded `multi_fetch` input: where the block comes from and where
/// it lands in the output.
#[derive(Debug, Clone)]
pub(crate) struct FetchInput<'g> {
    pub(crate) source: FetchSource,
    pub(crate) piece: FetchPiece<'g>,
}

/// All inputs of one `multi_fetch` node, pre-decoded.
#[derive(Debug, Clone, Default)]
pub(crate) struct FetchPlan<'g> {
    pub(crate) inputs: Vec<FetchInput<'g>>,
}

/// One worker's routing table.
#[derive(Debug, Default)]
pub(crate) struct WorkerRoutes<'g> {
    /// Routes pushed before any compute: leaf shards, plus (on resume) owed
    /// snapshot sends.
    pub(crate) startup: Vec<SendRoute<'g>>,
    /// Per local schedule position: the routes pushed right after that node
    /// runs.
    pub(crate) sends: Vec<Vec<SendRoute<'g>>>,
    /// Per receive slot: the expected arrival.
    pub(crate) slots: Vec<SlotExpect<'g>>,
    /// Per local schedule position: the pre-decoded assembly of a
    /// `multi_fetch` node (`None` for every other op).
    pub(crate) fetches: Vec<Option<FetchPlan<'g>>>,
}

/// The full interconnect routing of one attempt.
#[derive(Debug, Default)]
pub(crate) struct RoutePlan<'g> {
    pub(crate) workers: Vec<WorkerRoutes<'g>>,
}

impl<'g> RoutePlan<'g> {
    /// Resolves every route of `sharded` for an attempt starting at
    /// `resume_cuts` (`None` = from scratch; otherwise the first local
    /// schedule position each worker executes).
    ///
    /// `ShardedGraph`'s fields are public, so they are checked on the way:
    /// device tables of the wrong length, a device id outside the fleet, a
    /// node's output owned by another device, or a non-fetch node reading a
    /// remote tensor is a [`RuntimeError::InvalidOptions`] naming the node
    /// and the devices, not a panic.
    pub(crate) fn new(
        sharded: &'g ShardedGraph,
        resume_cuts: Option<&[usize]>,
    ) -> Result<RoutePlan<'g>> {
        let g = &sharded.graph;
        let k = sharded.workers;
        let invalid = RuntimeError::InvalidOptions;
        let (nodes, tensors) = (sharded.device_of_node.len(), sharded.device_of_tensor.len());
        if nodes != g.num_nodes() || tensors != g.num_tensors() {
            return Err(invalid(format!(
                "sharded graph has {} nodes and {} tensors, but its device tables cover {nodes} \
                 and {tensors}",
                g.num_nodes(),
                g.num_tensors()
            )));
        }
        let mut workers: Vec<WorkerRoutes> = (0..k).map(|_| WorkerRoutes::default()).collect();
        // Position of every visited node within its own worker's schedule.
        let mut local_pos = vec![0usize; nodes];
        // Per transfer: its receiver-side slot, and whether it is routed yet.
        let mut transfers = TransferIndex::default();
        let mut slot_of: Vec<(u32, bool)> = Vec::new();
        for id in g.node_ids() {
            let node = g.node(id);
            let w = sharded.device_of_node[id.0];
            if w >= k {
                let op = &node.op;
                return Err(invalid(format!("node {id:?} ({op}) is placed on device {w} of {k}")));
            }
            let owner = |t: TensorId| match sharded.device_of_tensor[t.0] {
                Some(d) if d < k => Ok(d),
                d => Err(invalid(format!(
                    "node {id:?} ({}) reads tensor {t:?}, which is on device {d:?} of {k}",
                    node.op
                ))),
            };
            let pos = workers[w].fetches.len();
            local_pos[id.0] = pos;
            workers[w].sends.push(Vec::new());
            let fetch = match fetch_pieces(g, id) {
                None => {
                    for &t in &node.inputs {
                        let src = owner(t)?;
                        if src != w {
                            return Err(invalid(format!(
                                "node {id:?} ({}) on device {w} reads tensor {t:?} of device \
                                 {src}; only multi_fetch may read a remote tensor",
                                node.op
                            )));
                        }
                    }
                    None
                }
                Some(pieces) => {
                    let mut inputs = Vec::with_capacity(pieces.len());
                    for (i, (&t, piece)) in node.inputs.iter().zip(pieces).enumerate() {
                        let src = owner(t)?;
                        if src == w {
                            inputs.push(FetchInput { source: FetchSource::Local(t), piece });
                            continue;
                        }
                        // Slot numbering: one per transfer, dense per
                        // receiver, in first-reader order — a pure function
                        // of the graph, independent of any resume cut.
                        let x = match transfers.read(g, t, w, Some(piece)) {
                            (x, false) => x,
                            (x, true) => {
                                slot_of.push((workers[w].slots.len() as u32, false));
                                workers[w].slots.push(SlotExpect {
                                    src,
                                    consumer: id,
                                    input_index: i,
                                    len: piece.len,
                                    reads: 0,
                                });
                                x
                            }
                        };
                        let (slot, routed) = slot_of[x];
                        inputs.push(FetchInput { source: FetchSource::Remote { slot }, piece });
                        if resume_cuts.is_some_and(|cuts| pos < cuts[w]) {
                            continue; // this reader ran before the checkpoint
                        }
                        let expect = &mut workers[w].slots[slot as usize];
                        expect.reads += 1;
                        if routed {
                            continue;
                        }
                        slot_of[x].1 = true;
                        let route = SendRoute {
                            dst: w,
                            tensor: t,
                            consumer: expect.consumer,
                            input_index: expect.input_index,
                            slot,
                            piece,
                        };
                        // Sender side, honoring the resume filter (see the
                        // module docs). The producer precedes its readers in
                        // id order and runs on `src`, the owner of its output
                        // (checked when it was visited), so its position
                        // there is known.
                        match g.producer(t).map(|p| local_pos[p.0]) {
                            Some(at) if resume_cuts.is_none_or(|cuts| at >= cuts[src]) => {
                                workers[src].sends[at].push(route)
                            }
                            // Leaf shard, or produced before the sender's
                            // cut: owed — replayed from the snapshot at
                            // startup.
                            _ => workers[src].startup.push(route),
                        }
                    }
                    Some(FetchPlan { inputs })
                }
            };
            workers[w].fetches.push(fetch);
            let out_owner = sharded.device_of_tensor[node.output.0];
            if out_owner != Some(w) {
                return Err(invalid(format!(
                    "node {id:?} ({}) runs on device {w}, but its output is on device \
                     {out_owner:?}",
                    node.op
                )));
            }
        }
        Ok(RoutePlan { workers })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use tofu_core::{generate, partition, GenOptions, PartitionOptions};
    use tofu_graph::{Attrs, Graph};
    use tofu_models::{mlp, rnn, wresnet, MlpConfig, RnnConfig, WResNetConfig};
    use tofu_tensor::Shape;

    /// A route with its sender and producing position (`None` = startup).
    type Routed<'a, 'g> = (usize, Option<usize>, &'a SendRoute<'g>);

    /// Builds the routing table of `sharded` from `cuts` and checks it
    /// against `comm_edges()`, the graph-level definition of every transfer.
    fn check_invariants(sharded: &ShardedGraph, cuts: Option<&[usize]>) {
        let g = &sharded.graph;
        let plan = RoutePlan::new(sharded, cuts).unwrap();
        let schedules: Vec<Vec<NodeId>> =
            (0..sharded.workers).map(|w| sharded.worker_schedule(w)).collect();
        let mut local_pos = vec![0; g.num_nodes()];
        for schedule in &schedules {
            for (pos, id) in schedule.iter().enumerate() {
                local_pos[id.0] = pos;
            }
        }
        // Whether a reader on worker `w` ran before the checkpoint.
        let ran = |reader: NodeId, w: usize| cuts.is_some_and(|c| local_pos[reader.0] < c[w]);
        let edges = sharded.comm_edges();
        assert!(!edges.is_empty());
        let keys: BTreeSet<_> =
            edges.iter().map(|e| (e.tensor, e.dst, e.piece.src_begin, e.piece.len)).collect();
        assert_eq!(keys.len(), edges.len(), "two transfers share a key");

        // Receive slots: one per transfer, numbered per receiver in
        // comm_edges() order, each expecting its reads at or after the cut.
        let mut slot_of_edge = Vec::with_capacity(edges.len());
        let mut next_slot = vec![0u32; sharded.workers];
        for e in &edges {
            slot_of_edge.push(next_slot[e.dst]);
            next_slot[e.dst] += 1;
        }
        for (w, routes) in plan.workers.iter().enumerate() {
            let want: Vec<_> = edges
                .iter()
                .filter(|e| e.dst == w)
                .map(|e| {
                    let reads = e.readers.iter().filter(|&&(r, _)| !ran(r, w)).count() as u32;
                    (e.src, e.readers[0], e.piece.len, reads)
                })
                .collect();
            let got: Vec<_> = routes
                .slots
                .iter()
                .map(|s| (s.src, (s.consumer, s.input_index), s.len, s.reads))
                .collect();
            assert_eq!(got, want, "worker {w}: receive slots");
        }

        // Every route, by (receiver, slot).
        let mut routed: Vec<Vec<Option<Routed>>> =
            plan.workers.iter().map(|r| vec![None; r.slots.len()]).collect();
        for (src, routes) in plan.workers.iter().enumerate() {
            assert_eq!(routes.sends.len(), schedules[src].len());
            let startup = routes.startup.iter().map(|r| (None, r));
            let sends = routes
                .sends
                .iter()
                .enumerate()
                .flat_map(|(pos, rs)| rs.iter().map(move |r| (Some(pos), r)));
            for (at, r) in startup.chain(sends) {
                let entry = &mut routed[r.dst][r.slot as usize];
                assert!(entry.is_none(), "slot {} of worker {} routed twice", r.slot, r.dst);
                *entry = Some((src, at, r));
            }
        }
        // Every transfer is routed exactly once — under its producer's local
        // position, or at startup when owed — unless all its readers ran.
        for (e, &slot) in edges.iter().zip(&slot_of_edge) {
            let got = routed[e.dst][slot as usize].take();
            if e.readers.iter().all(|&(r, _)| ran(r, e.dst)) {
                assert!(got.is_none(), "{e:?}: every reader ran before the cut");
                continue;
            }
            let (src, at, r) = got.unwrap_or_else(|| panic!("{e:?} is not routed"));
            let produced = g.producer(e.tensor).map(|p| local_pos[p.0]);
            let owed = produced.is_none_or(|p| cuts.is_some_and(|c| p < c[e.src]));
            assert_eq!((src, at), (e.src, if owed { None } else { produced }), "{e:?}");
            let stamp = (r.consumer, r.input_index);
            assert_eq!((r.dst, r.tensor, stamp), (e.dst, e.tensor, e.readers[0]), "{e:?}");
            assert_eq!((r.piece.src_begin, r.piece.len), (e.piece.src_begin, e.piece.len));
        }
        assert!(routed.iter().flatten().all(Option::is_none), "a route without a transfer");

        // Fetch plans: an input is Local exactly when its tensor lives on the
        // consumer's worker; a Remote one waits in the slot of the one
        // transfer that names it as a reader.
        let mut slot_of_read = BTreeMap::new();
        for (e, &slot) in edges.iter().zip(&slot_of_edge) {
            for &read in &e.readers {
                assert_eq!(slot_of_read.insert(read, slot), None, "{read:?} served twice");
            }
        }
        let mut remote_reads = 0;
        for (w, schedule) in schedules.iter().enumerate() {
            let routes = &plan.workers[w];
            for (pos, &id) in schedule.iter().enumerate() {
                let node = g.node(id);
                let Some(fetch) = &routes.fetches[pos] else {
                    assert_ne!(node.op, "multi_fetch");
                    continue;
                };
                assert_eq!(fetch.inputs.len(), node.inputs.len());
                for (i, (input, &t)) in fetch.inputs.iter().zip(&node.inputs).enumerate() {
                    match input.source {
                        FetchSource::Local(local) => {
                            assert_eq!((local, sharded.device_of_tensor[t.0]), (t, Some(w)))
                        }
                        FetchSource::Remote { slot } => {
                            assert_ne!(sharded.device_of_tensor[t.0], Some(w));
                            assert_eq!(slot_of_read.get(&(id, i)), Some(&slot));
                            remote_reads += 1;
                        }
                    }
                }
            }
        }
        // Σ readers is the per-read count found by brute force.
        assert_eq!(slot_of_read.len(), remote_reads);
    }

    /// Two devices: a producer on device 0, read on device 1 by two
    /// `multi_fetch` nodes fetching the same block (landing at different
    /// offsets) and by a third fetching another block.
    fn shared_block() -> ShardedGraph {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![4, 8]));
        let p = g.add_op("relu", "p", &[x], Attrs::new()).unwrap();
        for (name, pieces) in [
            ("top", vec![0, 0, 0, 0, 2, 8]),
            ("top again", vec![0, 0, 1, 0, 2, 8]),
            ("bottom", vec![2, 0, 0, 0, 2, 8]),
        ] {
            let attrs = Attrs::new().with_ints("out_dims", vec![3, 8]).with_ints("pieces", pieces);
            g.add_op("multi_fetch", name, &[p], attrs).unwrap();
        }
        ShardedGraph {
            workers: 2,
            shards: BTreeMap::new(),
            regions: BTreeMap::new(),
            device_of_node: vec![0, 1, 1, 1],
            device_of_tensor: vec![Some(0), Some(0), Some(1), Some(1), Some(1)],
            origin_of_node: g.node_ids().collect(),
            exact: true,
            graph: g,
        }
    }

    /// A resume cut between the two readers of the shared block still owes
    /// it, once, for the second reader; a cut after both owes it nothing.
    #[test]
    fn a_shared_block_is_routed_once_while_any_reader_is_left() {
        let sharded = shared_block();
        // Per cut: the sender's (startup, after its producer) slots, and
        // the reads the receiver expects per slot.
        let table = |cuts: Option<&[usize]>| {
            check_invariants(&sharded, cuts);
            let plan = RoutePlan::new(&sharded, cuts).unwrap();
            let slots = |rs: &[SendRoute]| rs.iter().map(|r| r.slot).collect::<Vec<_>>();
            let sender = &plan.workers[0];
            let reads: Vec<u32> = plan.workers[1].slots.iter().map(|s| s.reads).collect();
            (slots(&sender.startup), slots(&sender.sends[0]), reads)
        };
        assert_eq!(table(None), (vec![], vec![0, 1], vec![2, 1]));
        assert_eq!(table(Some(&[0, 1])), (vec![], vec![0, 1], vec![1, 1]));
        assert_eq!(table(Some(&[1, 1])), (vec![0, 1], vec![], vec![1, 1]));
        assert_eq!(table(Some(&[1, 2])), (vec![1], vec![], vec![0, 1]));
        assert_eq!(table(Some(&[1, 3])), (vec![], vec![], vec![0, 0]));
    }

    fn shard(g: &Graph, workers: usize) -> ShardedGraph {
        let plan = partition(g, &PartitionOptions { workers, ..Default::default() }).unwrap();
        generate(g, &plan, &GenOptions::default()).unwrap()
    }

    #[test]
    fn routing_table_matches_comm_edges_from_scratch_and_from_a_resume_cut() {
        let models = [
            mlp(&MlpConfig { batch: 16, dims: vec![32, 32], classes: 16, with_updates: true }),
            rnn(&RnnConfig {
                layers: 2,
                hidden: 64,
                batch: 8,
                steps: 20,
                embed: 32,
                vocab: 32,
                with_updates: true,
            }),
            wresnet(&WResNetConfig {
                layers: 50,
                width: 1,
                batch: 8,
                image: 16,
                classes: 8,
                with_updates: true,
            }),
        ];
        for m in models {
            let m = m.unwrap();
            for workers in [2, 4] {
                let sharded = shard(&m.graph, workers);
                check_invariants(&sharded, None);
                // Mid-schedule: every worker resumes halfway through.
                let cuts: Vec<usize> =
                    (0..workers).map(|w| sharded.worker_schedule(w).len() / 2).collect();
                check_invariants(&sharded, Some(&cuts));
            }
        }
    }
}
