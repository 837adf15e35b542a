//! Plan-time send routing.
//!
//! The old data plane resolved every push at send time: an ordered-map lookup
//! per executed node to find its outgoing comm edges, a per-run clone fan-out
//! of every channel sender, and a `fetch_pieces` re-decode per received
//! message to learn what the payload should look like. [`RoutePlan`] hoists
//! all of that to plan time, once per attempt, in one pass over the nodes:
//!
//! - every cross-device edge gets a dense receiver-side **slot** (numbered in
//!   [`ShardedGraph::comm_edges`] order, so the assignment is a pure function
//!   of the graph and identical across attempts and resumes);
//! - each sender's routes are grouped by producing schedule position, so the
//!   send path is a slice walk with no map lookups;
//! - each receiver gets a [`SlotExpect`] per slot — the full-integrity
//!   cross-check data the old path re-derived from the graph per message —
//!   and a pre-decoded [`FetchPlan`] per `multi_fetch` position, so assembly
//!   never re-parses node attributes.
//!
//! Nodes are visited in id order, which is every worker's schedule order and
//! `comm_edges()` order, and each `multi_fetch` is decoded exactly once. The
//! table is rebuilt on every attempt, so every training step pays for this
//! pass (DESIGN.md "Transport & integrity levels" has its cost);
//! `comm_edges()` remains the graph-level definition the simulator and the
//! ledgers count from.
//!
//! Resume filtering reproduces the original send-list logic exactly: edges
//! whose consumer ran before the checkpoint are dropped, and edges produced
//! before the sender's cut (or by leaves) are owed as startup sends. Slots
//! are graph-static, so a resumed attempt's slot numbering matches the
//! original run's.

use tofu_core::{fetch_pieces, FetchPiece, ShardedGraph};
use tofu_graph::{NodeId, TensorId};

use crate::error::RuntimeError;
use crate::Result;

/// One pre-resolved push: everything the sender needs to extract, stamp and
/// address a piece without consulting the graph.
#[derive(Debug, Clone)]
pub(crate) struct SendRoute {
    /// Receiving worker.
    pub(crate) dst: usize,
    /// Tensor the piece is cut from (must be in the sender's values).
    pub(crate) tensor: TensorId,
    /// The consuming `multi_fetch` node (for failure attribution).
    pub(crate) consumer: NodeId,
    /// Position of `tensor` in the consumer's input list.
    pub(crate) input_index: usize,
    /// Receiver-side slot the piece lands in.
    pub(crate) slot: u32,
    /// The block to extract.
    pub(crate) piece: FetchPiece,
}

/// What must arrive in one receive slot — the receiver's full-integrity
/// cross-check, resolved at plan time.
#[derive(Debug, Clone)]
pub(crate) struct SlotExpect {
    /// Worker the piece must come from.
    pub(crate) src: usize,
    /// Consuming `multi_fetch` node.
    pub(crate) consumer: NodeId,
    /// Input index within the consumer.
    pub(crate) input_index: usize,
    /// Block shape of the payload.
    pub(crate) dims: Vec<usize>,
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
pub(crate) struct FetchInput {
    pub(crate) source: FetchSource,
    pub(crate) piece: FetchPiece,
}

/// All inputs of one `multi_fetch` node, pre-decoded.
#[derive(Debug, Clone, Default)]
pub(crate) struct FetchPlan {
    pub(crate) inputs: Vec<FetchInput>,
}

/// One worker's routing table.
#[derive(Debug, Default)]
pub(crate) struct WorkerRoutes {
    /// Routes pushed before any compute: leaf shards, plus (on resume) owed
    /// snapshot sends.
    pub(crate) startup: Vec<SendRoute>,
    /// Per local schedule position: the routes pushed right after that node
    /// runs.
    pub(crate) sends: Vec<Vec<SendRoute>>,
    /// Per receive slot: the expected arrival.
    pub(crate) slots: Vec<SlotExpect>,
    /// Per local schedule position: the pre-decoded assembly of a
    /// `multi_fetch` node (`None` for every other op).
    pub(crate) fetches: Vec<Option<FetchPlan>>,
}

/// The full interconnect routing of one attempt.
#[derive(Debug, Default)]
pub(crate) struct RoutePlan {
    pub(crate) workers: Vec<WorkerRoutes>,
}

impl RoutePlan {
    /// Resolves every route of `sharded` for an attempt starting at
    /// `resume_cuts` (`None` = from scratch; otherwise the first local
    /// schedule position each worker executes).
    ///
    /// `ShardedGraph`'s fields are public, so they are checked on the way:
    /// device tables of the wrong length, a device id outside the fleet, a
    /// node's output owned by another device, or a non-fetch node reading a
    /// remote tensor is a [`RuntimeError::InvalidOptions`] naming the node
    /// and the devices, not a panic.
    pub(crate) fn new(sharded: &ShardedGraph, resume_cuts: Option<&[usize]>) -> Result<RoutePlan> {
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
                        // Slot numbering: dense per receiver, in comm_edges
                        // order — a pure function of the graph, independent
                        // of any resume cut.
                        let slot = workers[w].slots.len() as u32;
                        workers[w].slots.push(SlotExpect {
                            src,
                            consumer: id,
                            input_index: i,
                            dims: piece.len.iter().map(|&l| l.max(0) as usize).collect(),
                        });
                        let route = SendRoute {
                            dst: w,
                            tensor: t,
                            consumer: id,
                            input_index: i,
                            slot,
                            piece: piece.clone(),
                        };
                        inputs.push(FetchInput { source: FetchSource::Remote { slot }, piece });
                        // Sender side, honoring the resume filter (see the
                        // module docs). The producer precedes its consumer in
                        // id order and runs on `src`, the owner of its output
                        // (checked when it was visited), so its position
                        // there is known.
                        if resume_cuts.is_some_and(|cuts| pos < cuts[w]) {
                            continue; // consumer ran before the checkpoint
                        }
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
    use super::*;
    use tofu_core::{generate, partition, CommEdge, GenOptions, PartitionOptions};
    use tofu_graph::Graph;
    use tofu_models::{mlp, rnn, wresnet, MlpConfig, RnnConfig, WResNetConfig};

    /// A route with its sender and producing position (`None` = startup).
    type Routed<'a> = (usize, Option<usize>, &'a SendRoute);

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
        let edges = sharded.comm_edges();
        assert!(!edges.is_empty());

        // Receive slots: numbered per receiver in comm_edges() order.
        let mut slot_of_edge = Vec::with_capacity(edges.len());
        let mut next_slot = vec![0u32; sharded.workers];
        for e in &edges {
            slot_of_edge.push(next_slot[e.dst]);
            next_slot[e.dst] += 1;
        }
        for (w, routes) in plan.workers.iter().enumerate() {
            let dims = |e: &CommEdge| e.piece.len.iter().map(|&l| l as usize).collect();
            let want: Vec<_> = edges
                .iter()
                .filter(|e| e.dst == w)
                .map(|e| (e.src, e.consumer, e.input_index, dims(e)))
                .collect();
            let got: Vec<_> =
                routes.slots.iter().map(|s| (s.src, s.consumer, s.input_index, s.dims.clone())).collect();
            assert_eq!(got, want, "worker {w}: receive slots");
        }

        // Every route, by (consumer, input index).
        let mut routed: Vec<Vec<Option<Routed>>> =
            g.node_ids().map(|id| vec![None; g.node(id).inputs.len()]).collect();
        for (src, routes) in plan.workers.iter().enumerate() {
            assert_eq!(routes.sends.len(), schedules[src].len());
            let startup = routes.startup.iter().map(|r| (None, r));
            let sends = routes
                .sends
                .iter()
                .enumerate()
                .flat_map(|(pos, rs)| rs.iter().map(move |r| (Some(pos), r)));
            for (at, r) in startup.chain(sends) {
                let entry = &mut routed[r.consumer.0][r.input_index];
                assert!(entry.is_none(), "{:?} input {} routed twice", r.consumer, r.input_index);
                *entry = Some((src, at, r));
            }
        }
        // Every comm edge is routed exactly once — under its producer's local
        // position, or at startup when owed — unless its consumer already ran.
        for (e, &slot) in edges.iter().zip(&slot_of_edge) {
            let got = routed[e.consumer.0][e.input_index].take();
            if cuts.is_some_and(|c| local_pos[e.consumer.0] < c[e.dst]) {
                assert!(got.is_none(), "{e:?}: consumer ran before the cut");
                continue;
            }
            let (src, at, r) = got.unwrap_or_else(|| panic!("{e:?} is not routed"));
            let produced = g.producer(e.tensor).map(|p| local_pos[p.0]);
            let owed = produced.is_none_or(|p| cuts.is_some_and(|c| p < c[e.src]));
            assert_eq!((src, at), (e.src, if owed { None } else { produced }), "{e:?}");
            assert_eq!((r.dst, r.tensor, r.slot), (e.dst, e.tensor, slot), "{e:?}");
            assert_eq!(r.piece, e.piece, "{e:?}");
        }
        assert!(routed.iter().flatten().all(Option::is_none), "a route without a comm edge");

        // Fetch plans: an input is Local exactly when its tensor lives on the
        // consumer's worker; a Remote one waits in its edge's slot.
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
                            let s = &routes.slots[slot as usize];
                            assert_eq!((s.consumer, s.input_index), (id, i));
                        }
                    }
                }
            }
        }
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
