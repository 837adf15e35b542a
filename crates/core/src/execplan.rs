//! The execution plan of a [`ShardedGraph`]: everything static a training
//! step needs, planned once per graph.
//!
//! Tofu generates the partitioned graph once and an unchanged dataflow
//! engine runs it step after step (§6). What the engine derives from the
//! graph — each worker's schedule and buffer plan, the routing of every
//! transfer, the pre-decoded `multi_fetch` assemblies and the liveness floors
//! the checkpoint scan reads — is a pure function of the graph, so
//! [`ShardedGraph::exec_plan`] builds it on first use and caches it beside
//! the graph; later steps only execute. `generate`, the simulator and the
//! plan service never pay for it.
//!
//! Routing is derived from [`ShardedGraph::comm_edges`], the graph-level
//! definition of every transfer, so the runtime moves exactly the transfers
//! the simulator and the ledgers count:
//!
//! - every transfer — a box of a tensor crossing to one device, however
//!   many `multi_fetch` nodes there read its elements — gets one dense
//!   receiver-side **slot**, numbered per receiver in `comm_edges()` order,
//!   which is first-reader order. The numbering is a pure function of the
//!   graph, so a resumed attempt's slots match the original run's;
//! - each sender's pushes are grouped by producing schedule position
//!   ([`Routes::sends`]), so the send path is a slice walk with no lookups;
//! - each `multi_fetch` position gets its [`FetchInput`]s, so assembly never
//!   re-parses node attributes: one per local input, and one per transfer a
//!   remote input's piece overlaps, which copies the overlap from its offset
//!   inside the received box to its place in the fetch output. A piece read
//!   before in whole or in part is thus assembled from the earlier boxes
//!   plus the remainder its own transfers move. Extents are owned, not
//!   borrowed from the graph, which is what lets the plan sit inside the
//!   graph it plans.
//!
//! A resumed attempt filters the same table ([`ExecPlan::routes_from`]): a
//! transfer is routed if any of its readers is at or after the receiver's
//! cut, its slot expects only those reads, and it is owed — sent at startup
//! from the snapshot — when it was produced before the sender's cut (or is a
//! leaf). Routes keep the order a walk over the nodes in id order would give
//! them, by each transfer's first remaining reader (transfers that share it
//! in id order). A read served by several transfers counts once in each of
//! their slots.
//!
//! `ShardedGraph`'s fields are public, so the build validates what it reads
//! and the plan keeps a copy of it: a run after an edit rebuilds and
//! revalidates instead of executing a stale plan.

use std::sync::{Arc, OnceLock};

use tofu_graph::{fetch_pieces, plan_buffers, BufferPlan, NodeId, TensorId};
use tofu_obs::{Collector, Track};
use tofu_tensor::ReduceKind;

use crate::error::CoreError;
use crate::genplan::ShardedGraph;
use crate::Result;

/// One cross-device transfer: a [`CommEdge`](crate::CommEdge) with its
/// receive slot and the schedule position that produces it.
#[derive(Debug, Clone)]
pub struct Transfer {
    /// The tensor the block is cut from.
    pub tensor: TensorId,
    /// Device owning `tensor`.
    pub src: usize,
    /// Device executing the readers.
    pub dst: usize,
    /// Receive slot on `dst`.
    pub slot: u32,
    /// Position of `tensor`'s producer in `src`'s schedule (`None` for a
    /// leaf shard).
    pub produced_at: Option<usize>,
    /// Start of the block inside `tensor`.
    pub src_begin: Vec<i64>,
    /// Block extent per dimension.
    pub len: Vec<i64>,
    /// Every `(multi_fetch node, input index)` whose piece overlaps the
    /// block, in node order: the first is the stamp the sender puts on the
    /// message.
    pub readers: Vec<(NodeId, usize)>,
}

/// Where one `multi_fetch` input comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchSource {
    /// The worker's own value of this tensor.
    Local(TensorId),
    /// The piece arriving in this receive slot.
    Remote {
        /// Receive slot of the transfer.
        slot: u32,
    },
}

/// One pre-decoded copy or fold into a `multi_fetch` output: a local input,
/// or the part of a remote input one transfer delivers. Where the block
/// comes from, where it lands in the fetch output, and how.
#[derive(Debug, Clone)]
pub struct FetchInput {
    /// The fetch node's input this copy reads.
    pub input: usize,
    /// Local value or receive slot.
    pub source: FetchSource,
    /// Start of the block in what the worker holds: the local tensor, or the
    /// received box, which the sender already cut out of the tensor.
    pub src_begin: Vec<i64>,
    /// Start of the block inside the fetch output.
    pub dst_begin: Vec<i64>,
    /// Block extent per dimension.
    pub len: Vec<i64>,
    /// `None` copies the block; a reducer folds it into the output (the
    /// input's [`FetchPiece::fold`](tofu_graph::FetchPiece::fold)).
    pub fold: Option<ReduceKind>,
}

impl FetchInput {
    /// The part of remote read `self` (its piece in source coordinates)
    /// that the box `begin`+`len` arriving in `slot` delivers: their
    /// overlap, copied from its offset inside the box.
    fn part(&self, begin: &[i64], len: &[i64], slot: u32) -> FetchInput {
        let lo: Vec<i64> = self.src_begin.iter().zip(begin).map(|(&a, &b)| a.max(b)).collect();
        let at = |d: usize, start: &[i64]| lo[d] - start[d];
        let end = |d: usize| (self.src_begin[d] + self.len[d]).min(begin[d] + len[d]);
        FetchInput {
            input: self.input,
            source: FetchSource::Remote { slot },
            src_begin: (0..lo.len()).map(|d| at(d, begin)).collect(),
            dst_begin: (0..lo.len()).map(|d| self.dst_begin[d] + at(d, &self.src_begin)).collect(),
            len: (0..lo.len()).map(|d| end(d) - lo[d]).collect(),
            fold: self.fold,
        }
    }
}

/// One worker's routes for an attempt, as indices into
/// [`ExecPlan::transfers`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Routes {
    /// Transfers pushed before any compute: leaf shards, plus (on resume)
    /// transfers produced before the sender's cut.
    pub startup: Vec<usize>,
    /// Per local schedule position: transfers pushed right after that node
    /// runs.
    pub sends: Vec<Vec<usize>>,
    /// Per receive slot: the reads this attempt makes of it. The last one
    /// takes the piece out of the stash.
    pub reads: Vec<u32>,
}

/// What one worker executes.
#[derive(Debug, Clone)]
pub struct WorkerPlan {
    /// The nodes the worker runs, in id order.
    pub schedule: Vec<NodeId>,
    /// The static memory plan of `schedule`, with reuse.
    pub buffers: BufferPlan,
    /// Per receive slot: the transfer arriving there.
    pub slots: Vec<usize>,
    /// Per schedule position: the assembly of a `multi_fetch` node (`None`
    /// for every other operator).
    pub fetches: Vec<Option<Vec<FetchInput>>>,
}

/// The execution plan of a [`ShardedGraph`] (see the module docs).
#[derive(Debug)]
pub struct ExecPlan {
    /// Every transfer, in `comm_edges()` order.
    pub transfers: Vec<Transfer>,
    /// Per worker.
    pub workers: Vec<WorkerPlan>,
    /// Per worker: the routes of an attempt from scratch.
    pub routes: Vec<Routes>,
    /// Per tensor: the last position of its owner's schedule that reads it,
    /// or `usize::MAX` when it stays live to the end of the run (persistent
    /// leaves, transfer sources, unread outputs). The checkpoint scan skips
    /// a value dead before its barrier.
    pub last_read: Vec<usize>,
    /// Per node: its position in its own worker's schedule.
    position: Vec<usize>,
    /// What the plan was built from, to tell a stale plan.
    source: Source,
}

/// The parts of a [`ShardedGraph`] the plan reads. `Graph` is append-only,
/// so its node and tensor counts stand for its contents.
#[derive(Debug, PartialEq, Eq)]
struct Source {
    workers: usize,
    nodes: usize,
    tensors: usize,
    device_of_node: Vec<usize>,
    device_of_tensor: Vec<Option<usize>>,
}

impl Source {
    fn matches(&self, s: &ShardedGraph) -> bool {
        self.workers == s.workers
            && self.nodes == s.graph.num_nodes()
            && self.tensors == s.graph.num_tensors()
            && self.device_of_node == s.device_of_node
            && self.device_of_tensor == s.device_of_tensor
    }
}

/// The cache slot of [`ShardedGraph`].
pub(crate) type ExecCell = OnceLock<Arc<ExecPlan>>;

impl ShardedGraph {
    /// The execution plan, built on first use and cached with the graph.
    /// With a collector, a build is a `plan exec` span on the control lane;
    /// a cached plan costs no span.
    ///
    /// The graph's fields are public, so the build checks them and a plan
    /// whose inputs have since changed is rebuilt, never reused: device
    /// tables of the wrong length, a device id outside the fleet, a node
    /// whose output another device owns, or a non-fetch node reading a
    /// remote tensor is a [`CoreError::InvalidShardedGraph`] naming the node
    /// and the devices.
    pub fn exec_plan(&self, obs: Option<&Collector>) -> Result<Arc<ExecPlan>> {
        if let Some(plan) = self.exec.get().filter(|p| p.source.matches(self)) {
            return Ok(Arc::clone(plan));
        }
        let start = obs.map(Collector::now_us);
        let plan = Arc::new(ExecPlan::build(self)?);
        if let (Some(c), Some(start)) = (obs, start) {
            c.complete(Track::control(), "plan", "plan exec", start, c.now_us());
        }
        // The first build fills the cell; a rebuild after an edit is used
        // once and not cached.
        let _ = self.exec.set(Arc::clone(&plan));
        Ok(plan)
    }
}

impl ExecPlan {
    fn build(s: &ShardedGraph) -> Result<ExecPlan> {
        let g = &s.graph;
        let k = s.workers;
        let invalid = CoreError::InvalidShardedGraph;
        let (nodes, tensors) = (s.device_of_node.len(), s.device_of_tensor.len());
        if nodes != g.num_nodes() || tensors != g.num_tensors() {
            return Err(invalid(format!(
                "sharded graph has {} nodes and {} tensors, but its device tables cover {nodes} \
                 and {tensors}",
                g.num_nodes(),
                g.num_tensors()
            )));
        }
        // One pass in id order: validate, place every node in its worker's
        // schedule, and decode every fetch. A remote input keeps its piece
        // in source coordinates here; the transfers below cut it into the
        // parts each slot delivers.
        let mut schedules: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        let mut fetches: Vec<Vec<Option<Vec<FetchInput>>>> = vec![Vec::new(); k];
        let mut position = vec![0usize; nodes];
        for id in g.node_ids() {
            let node = g.node(id);
            let w = s.device_of_node[id.0];
            if w >= k {
                let op = &node.op;
                return Err(invalid(format!("node {id:?} ({op}) is placed on device {w} of {k}")));
            }
            let owner = |t: TensorId| match s.device_of_tensor[t.0] {
                Some(d) if d < k => Ok(d),
                d => Err(invalid(format!(
                    "node {id:?} ({}) reads tensor {t:?}, which is on device {d:?} of {k}",
                    node.op
                ))),
            };
            position[id.0] = schedules[w].len();
            schedules[w].push(id);
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
                    for (input, (&t, p)) in node.inputs.iter().zip(pieces).enumerate() {
                        let source = if owner(t)? == w {
                            FetchSource::Local(t)
                        } else {
                            FetchSource::Remote { slot: u32::MAX }
                        };
                        let src_begin = p.src_begin.to_vec();
                        let (dst_begin, len, fold) = (p.dst_begin.to_vec(), p.len.to_vec(), p.fold);
                        inputs.push(FetchInput { input, source, src_begin, dst_begin, len, fold });
                    }
                    Some(inputs)
                }
            };
            fetches[w].push(fetch);
            let out_owner = s.device_of_tensor[node.output.0];
            if out_owner != Some(w) {
                return Err(invalid(format!(
                    "node {id:?} ({}) runs on device {w}, but its output is on device \
                     {out_owner:?}",
                    node.op
                )));
            }
        }

        // Every remote read now enters a fetch on a valid device, so the
        // graph-level transfer list is well defined: one slot per transfer,
        // dense per receiver, in its order.
        // Per node: the parts of its remote inputs, `(input index, part)`
        // in transfer order.
        let mut slots: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut transfers = Vec::new();
        let mut parts: Vec<Vec<(usize, FetchInput)>> = vec![Vec::new(); nodes];
        for (x, e) in s.comm_edges().into_iter().enumerate() {
            let slot = slots[e.dst].len() as u32;
            slots[e.dst].push(x);
            for &(reader, i) in &e.readers {
                if let Some(read) =
                    fetches[e.dst][position[reader.0]].as_ref().and_then(|inputs| inputs.get(i))
                {
                    parts[reader.0].push((i, read.part(&e.src_begin, &e.len, slot)));
                }
            }
            transfers.push(Transfer {
                tensor: e.tensor,
                src: e.src,
                dst: e.dst,
                slot,
                produced_at: g.producer(e.tensor).map(|p| position[p.0]),
                src_begin: e.src_begin,
                len: e.len,
                readers: e.readers,
            });
        }
        // Each remote input becomes its parts, kept in input order (none for
        // an empty piece).
        for (id, mut parts) in g.node_ids().zip(parts) {
            let remote = |p: &FetchInput| matches!(p.source, FetchSource::Remote { .. });
            let (w, pos) = (s.device_of_node[id.0], position[id.0]);
            let Some(inputs) = fetches[w][pos].as_mut().filter(|f| f.iter().any(remote)) else {
                continue;
            };
            parts.sort_by_key(|&(i, _)| i);
            let mut parts = parts.into_iter().peekable();
            let mut assembly = Vec::with_capacity(inputs.len() + parts.len());
            for (i, input) in inputs.drain(..).enumerate() {
                if let FetchSource::Local(_) = input.source {
                    assembly.push(input);
                }
                while let Some((_, part)) = parts.next_if(|&(j, _)| j == i) {
                    assembly.push(part);
                }
            }
            *inputs = assembly;
        }

        let buffers: Vec<BufferPlan> =
            schedules.iter().map(|schedule| plan_buffers(g, schedule, true)).collect();
        let mut last_read = vec![usize::MAX; tensors];
        for schedule in &schedules {
            for (pos, id) in schedule.iter().enumerate() {
                for t in &g.node(*id).inputs {
                    last_read[t.0] = pos;
                }
            }
        }
        // A remote read is a transfer, and every transfer source stays live,
        // so the floors above only ever stand for owners' reads.
        let live =
            buffers.iter().flat_map(|b| &b.persistent).chain(transfers.iter().map(|x| &x.tensor));
        for t in live {
            last_read[t.0] = usize::MAX;
        }

        let workers = schedules
            .into_iter()
            .zip(buffers)
            .zip(slots)
            .zip(fetches)
            .map(|(((schedule, buffers), slots), fetches)| WorkerPlan {
                schedule,
                buffers,
                slots,
                fetches,
            })
            .collect();
        let source = Source {
            workers: k,
            nodes,
            tensors,
            device_of_node: s.device_of_node.clone(),
            device_of_tensor: s.device_of_tensor.clone(),
        };
        let mut plan =
            ExecPlan { transfers, workers, routes: Vec::new(), position, last_read, source };
        plan.routes = plan.routes_from(&vec![0; k]);
        Ok(plan)
    }

    /// The routes of an attempt that resumes with worker `w` at local
    /// schedule position `cuts[w]`, one cut per worker (all zeros: from
    /// scratch, which is [`routes`](ExecPlan::routes)). A transfer is routed while any of its
    /// readers is at or after its receiver's cut, and owed at startup when
    /// it was produced before its sender's cut.
    pub fn routes_from(&self, cuts: &[usize]) -> Vec<Routes> {
        let mut routes: Vec<Routes> = self
            .workers
            .iter()
            .map(|w| Routes {
                startup: Vec::new(),
                sends: vec![Vec::new(); w.schedule.len()],
                reads: vec![0; w.slots.len()],
            })
            .collect();
        // Per routed transfer: its first reader left, which orders the
        // pushes as a walk over the nodes would.
        let mut left: Vec<((NodeId, usize), usize)> = Vec::new();
        for (x, tr) in self.transfers.iter().enumerate() {
            let remaining = tr.readers.iter().filter(|(r, _)| self.position[r.0] >= cuts[tr.dst]);
            let reads = &mut routes[tr.dst].reads[tr.slot as usize];
            for &read in remaining {
                if *reads == 0 {
                    left.push((read, x));
                }
                *reads += 1;
            }
        }
        left.sort_unstable();
        for (_, x) in left {
            let tr = &self.transfers[x];
            match tr.produced_at {
                Some(at) if at >= cuts[tr.src] => routes[tr.src].sends[at].push(x),
                _ => routes[tr.src].startup.push(x),
            }
        }
        routes
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::{generate, partition, GenOptions, PartitionOptions};
    use tofu_graph::{Attrs, Graph, Served, TransferIndex};
    use tofu_models::{mlp, rnn, wresnet, MlpConfig, RnnConfig, WResNetConfig};
    use tofu_tensor::Shape;

    /// One transfer found by an independent walk: `(tensor, src, dst,
    /// src_begin, len, readers)`.
    type Walked = (TensorId, usize, usize, Vec<i64>, Vec<i64>, Vec<(NodeId, usize)>);

    /// The transfers of `sharded` from its own `TransferIndex` walk over
    /// every remote `multi_fetch` read — not from `comm_edges()`, which is
    /// the plan's input.
    fn walk_transfers(sharded: &ShardedGraph) -> Vec<Walked> {
        let g = &sharded.graph;
        let mut index = TransferIndex::default();
        let mut out: Vec<Walked> = Vec::new();
        for id in g.node_ids() {
            let Some(pieces) = fetch_pieces(g, id) else {
                continue;
            };
            let dst = sharded.device_of_node[id.0];
            for (i, (&t, p)) in g.node(id).inputs.iter().zip(pieces).enumerate() {
                let src = sharded.device_of_tensor[t.0].unwrap();
                if src == dst {
                    continue;
                }
                let Served { old, new } = index.read(g, t, dst, Some(p));
                for &x in old {
                    out[x].5.push((id, i));
                }
                for x in new {
                    let (begin, len) = index.block(x);
                    out.push((t, src, dst, begin.to_vec(), len.to_vec(), vec![(id, i)]));
                }
            }
        }
        out
    }

    /// Checks the plan of `sharded`, and its routes from `cuts` (`None`: from
    /// scratch), against an independent transfer walk and brute force.
    fn check_invariants(sharded: &ShardedGraph, cuts: Option<&[usize]>) {
        let g = &sharded.graph;
        let plan = sharded.exec_plan(None).unwrap();
        let k = sharded.workers;
        let routes = match cuts {
            Some(c) => plan.routes_from(c),
            None => plan.routes.clone(),
        };
        // Schedules, positions and buffer plans.
        for (w, wp) in plan.workers.iter().enumerate() {
            assert_eq!(wp.schedule, sharded.worker_schedule(w), "worker {w}: schedule");
            for (pos, id) in wp.schedule.iter().enumerate() {
                assert_eq!(plan.position[id.0], pos);
            }
            let want = plan_buffers(g, &wp.schedule, true);
            let got = &wp.buffers;
            assert_eq!(
                (got.mem, &got.slot_bytes, &got.actions, &got.persistent),
                (want.mem, &want.slot_bytes, &want.actions, &want.persistent),
                "worker {w}: buffer plan"
            );
        }
        // Whether a reader on worker `w` ran before the checkpoint.
        let ran = |reader: NodeId, w: usize| cuts.is_some_and(|c| plan.position[reader.0] < c[w]);

        // Transfers: the walk's, in its order, each with a dense slot per
        // receiver and its producer's position.
        let walked = walk_transfers(sharded);
        assert!(!walked.is_empty());
        for (x, a) in walked.iter().enumerate() {
            for b in walked[..x].iter().filter(|b| (b.0, b.2) == (a.0, a.2)) {
                let apart = (0..a.3.len())
                    .any(|d| a.3[d].max(b.3[d]) >= (a.3[d] + a.4[d]).min(b.3[d] + b.4[d]));
                assert!(apart, "two transfers overlap: {a:?} and {b:?}");
            }
        }
        assert_eq!(plan.transfers.len(), walked.len());
        let mut next_slot = vec![0u32; k];
        for (x, (tr, (t, src, dst, begin, len, readers))) in
            plan.transfers.iter().zip(&walked).enumerate()
        {
            let got = (tr.tensor, tr.src, tr.dst, &tr.src_begin, &tr.len, &tr.readers);
            assert_eq!(got, (*t, *src, *dst, begin, len, readers));
            assert_eq!(tr.slot, next_slot[*dst], "{tr:?}");
            next_slot[*dst] += 1;
            assert_eq!(plan.workers[*dst].slots[tr.slot as usize], x, "{tr:?}");
            let producer = g.producer(*t).map(|p| plan.position[p.0]);
            assert_eq!(tr.produced_at, producer, "{tr:?}");
        }

        // Reads: per slot, the transfer's readers at or after the cut.
        for (w, r) in routes.iter().enumerate() {
            let want: Vec<u32> = plan.workers[w]
                .slots
                .iter()
                .map(|&x| {
                    plan.transfers[x].readers.iter().filter(|&&(r, _)| !ran(r, w)).count() as u32
                })
                .collect();
            assert_eq!(r.reads, want, "worker {w}: reads per slot");
            assert_eq!(r.sends.len(), plan.workers[w].schedule.len());
        }
        // Every transfer is routed exactly once — under its producer's
        // position, or at startup when owed — unless all its readers ran,
        // and each sender pushes in first-remaining-reader order (transfers
        // sharing that reader in id order).
        let mut routed: BTreeMap<usize, (usize, Option<usize>)> = BTreeMap::new();
        for (src, r) in routes.iter().enumerate() {
            let startup = r.startup.iter().map(|&x| (None, x));
            let sends = r
                .sends
                .iter()
                .enumerate()
                .flat_map(|(pos, xs)| xs.iter().map(move |&x| (Some(pos), x)));
            for (at, x) in startup.chain(sends) {
                assert_eq!(routed.insert(x, (src, at)), None, "transfer {x} routed twice");
            }
            let first_left = |x: usize| {
                let tr = &plan.transfers[x];
                *tr.readers.iter().find(|&&(r, _)| !ran(r, tr.dst)).unwrap()
            };
            for list in std::iter::once(&r.startup).chain(&r.sends) {
                let order: Vec<_> = list.iter().map(|&x| (first_left(x), x)).collect();
                assert!(order.windows(2).all(|p| p[0] < p[1]), "worker {src}: push order");
            }
        }
        for (x, tr) in plan.transfers.iter().enumerate() {
            let got = routed.remove(&x);
            if tr.readers.iter().all(|&(r, _)| ran(r, tr.dst)) {
                assert!(got.is_none(), "{tr:?}: every reader ran before the cut");
                continue;
            }
            let owed = tr.produced_at.is_none_or(|p| cuts.is_some_and(|c| p < c[tr.src]));
            let want = (tr.src, if owed { None } else { tr.produced_at });
            assert_eq!(got, Some(want), "{tr:?}");
        }
        assert!(routed.is_empty(), "a route without a transfer");

        // Fetch plans: an input is Local exactly when its tensor lives on the
        // consumer's worker; a Remote one becomes one part per transfer that
        // names it as a reader, in transfer order, each the overlap of the
        // piece and the transfer's block, and together they tile the piece.
        let mut serving: BTreeMap<(NodeId, usize), Vec<&Transfer>> = BTreeMap::new();
        for tr in &plan.transfers {
            for &read in &tr.readers {
                serving.entry(read).or_default().push(tr);
            }
        }
        let mut remote_reads = 0;
        for (w, wp) in plan.workers.iter().enumerate() {
            for (pos, &id) in wp.schedule.iter().enumerate() {
                let node = g.node(id);
                let Some(inputs) = &wp.fetches[pos] else {
                    assert_ne!(node.op, "multi_fetch");
                    continue;
                };
                let mut inputs = inputs.iter();
                for (i, (p, &t)) in fetch_pieces(g, id).unwrap().zip(&node.inputs).enumerate() {
                    if sharded.device_of_tensor[t.0] == Some(w) {
                        let input = inputs.next().unwrap();
                        assert_eq!((input.input, input.source), (i, FetchSource::Local(t)));
                        let got = (&input.src_begin[..], &input.dst_begin[..], &input.len[..]);
                        assert_eq!(got, (p.src_begin, p.dst_begin, p.len));
                        continue;
                    }
                    let mut volume = 0;
                    for tr in serving.get(&(id, i)).map_or(&[][..], Vec::as_slice) {
                        let input = inputs.next().unwrap();
                        let slot = FetchSource::Remote { slot: tr.slot };
                        assert_eq!((input.input, input.source), (i, slot));
                        for d in 0..p.len.len() {
                            let lo = p.src_begin[d].max(tr.src_begin[d]);
                            let hi = (p.src_begin[d] + p.len[d]).min(tr.src_begin[d] + tr.len[d]);
                            assert_eq!(input.src_begin[d], lo - tr.src_begin[d], "{id:?} {i}");
                            assert_eq!(input.dst_begin[d], p.dst_begin[d] + lo - p.src_begin[d]);
                            assert_eq!(input.len[d], hi - lo);
                        }
                        volume += input.len.iter().product::<i64>();
                    }
                    assert_eq!(volume, p.len.iter().product::<i64>(), "{id:?} input {i} not tiled");
                    remote_reads += usize::from(volume > 0);
                }
                assert!(inputs.next().is_none(), "{id:?}: a part no input explains");
            }
        }
        // Every read a transfer names is one found by brute force (an empty
        // piece needs none).
        assert_eq!(serving.len(), remote_reads);

        // Liveness floors: the owner's last read, or forever for persistent
        // leaves and transfer sources.
        let mut floor = vec![usize::MAX; g.num_tensors()];
        for (w, wp) in plan.workers.iter().enumerate() {
            for (pos, id) in wp.schedule.iter().enumerate() {
                for t in &g.node(*id).inputs {
                    if sharded.device_of_tensor[t.0] == Some(w) {
                        floor[t.0] = pos;
                    }
                }
            }
            for t in &wp.buffers.persistent {
                floor[t.0] = usize::MAX;
            }
        }
        for tr in &plan.transfers {
            floor[tr.tensor.0] = usize::MAX;
        }
        assert_eq!(plan.last_read, floor);
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
        let origin_of_node = g.node_ids().collect();
        ShardedGraph {
            workers: 2,
            device_of_node: vec![0, 1, 1, 1],
            device_of_tensor: vec![Some(0), Some(0), Some(1), Some(1), Some(1)],
            origin_of_node,
            exact: true,
            graph: g,
            ..Default::default()
        }
    }

    /// A resume cut between the two readers of the shared block still owes
    /// it, once, for the second reader; a cut after both owes it nothing.
    #[test]
    fn a_shared_block_is_routed_once_while_any_reader_is_left() {
        let sharded = shared_block();
        let plan = sharded.exec_plan(None).unwrap();
        // Per cut: the sender's (startup, after its producer) transfers, and
        // the reads the receiver expects per slot.
        let table = |cuts: &[usize]| {
            check_invariants(&sharded, Some(cuts));
            let routes = plan.routes_from(cuts);
            (routes[0].startup.clone(), routes[0].sends[0].clone(), routes[1].reads.clone())
        };
        check_invariants(&sharded, None);
        assert_eq!(plan.routes, plan.routes_from(&[0, 0]));
        assert_eq!(table(&[0, 0]), (vec![], vec![0, 1], vec![2, 1]));
        assert_eq!(table(&[0, 1]), (vec![], vec![0, 1], vec![1, 1]));
        assert_eq!(table(&[1, 1]), (vec![0, 1], vec![], vec![1, 1]));
        assert_eq!(table(&[1, 2]), (vec![1], vec![], vec![0, 1]));
        assert_eq!(table(&[1, 3]), (vec![], vec![], vec![0, 0]));
    }

    /// Two devices: a producer on device 0 of a `[4, 8]` tensor, read on
    /// device 1 by fetches of its top half, then the whole, then the middle
    /// rows. The half crosses at the first read; the whole is that half
    /// plus a second transfer of the bottom half, and the middle rows are
    /// one row of each.
    fn overlapping_blocks() -> ShardedGraph {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![4, 8]));
        let p = g.add_op("relu", "p", &[x], Attrs::new()).unwrap();
        for (name, rows, pieces) in [
            ("half", 2, vec![0, 0, 0, 0, 2, 8]),
            ("whole", 4, vec![0, 0, 0, 0, 4, 8]),
            ("middle", 2, vec![1, 0, 0, 0, 2, 8]),
        ] {
            let attrs =
                Attrs::new().with_ints("out_dims", vec![rows, 8]).with_ints("pieces", pieces);
            g.add_op("multi_fetch", name, &[p], attrs).unwrap();
        }
        let origin_of_node = g.node_ids().collect();
        ShardedGraph {
            workers: 2,
            device_of_node: vec![0, 1, 1, 1],
            device_of_tensor: vec![Some(0), Some(0), Some(1), Some(1), Some(1)],
            origin_of_node,
            exact: true,
            graph: g,
            ..Default::default()
        }
    }

    /// A read served by two slots reads each once: the receiver's cut
    /// before, between and after the readers changes how many reads each
    /// slot expects, and both slots stay routed while any reader is left.
    #[test]
    fn a_read_served_by_two_slots_is_routed_from_every_cut() {
        let sharded = overlapping_blocks();
        let plan = sharded.exec_plan(None).unwrap();
        let blocks: Vec<_> =
            plan.transfers.iter().map(|t| (&t.src_begin[..], &t.len[..])).collect();
        assert_eq!(blocks, vec![(&[0, 0][..], &[2, 8][..]), (&[2, 0][..], &[2, 8][..])]);
        let readers = |x: usize| plan.transfers[x].readers.clone();
        assert_eq!(readers(0), vec![(NodeId(1), 0), (NodeId(2), 0), (NodeId(3), 0)]);
        assert_eq!(readers(1), vec![(NodeId(2), 0), (NodeId(3), 0)]);
        // The middle rows: row 1 of the first box, row 0 of the second.
        let middle = plan.workers[1].fetches[2].as_ref().unwrap();
        let parts: Vec<_> = middle
            .iter()
            .map(|p| (p.source, p.src_begin.clone(), p.dst_begin.clone(), p.len.clone()))
            .collect();
        assert_eq!(
            parts,
            vec![
                (FetchSource::Remote { slot: 0 }, vec![1, 0], vec![0, 0], vec![1, 8]),
                (FetchSource::Remote { slot: 1 }, vec![0, 0], vec![1, 0], vec![1, 8]),
            ]
        );
        let table = |cuts: &[usize]| {
            check_invariants(&sharded, Some(cuts));
            let routes = plan.routes_from(cuts);
            (routes[0].startup.clone(), routes[0].sends[0].clone(), routes[1].reads.clone())
        };
        check_invariants(&sharded, None);
        assert_eq!(table(&[0, 0]), (vec![], vec![0, 1], vec![3, 2]));
        assert_eq!(table(&[0, 1]), (vec![], vec![0, 1], vec![2, 2]));
        assert_eq!(table(&[0, 2]), (vec![], vec![0, 1], vec![1, 1]));
        assert_eq!(table(&[1, 2]), (vec![0, 1], vec![], vec![1, 1]));
        assert_eq!(table(&[1, 3]), (vec![], vec![], vec![0, 0]));
    }

    /// The plan is built once and shared; an edit to what it read rebuilds
    /// and revalidates it.
    #[test]
    fn the_plan_is_cached_until_its_inputs_change() {
        let mut sharded = shared_block();
        let obs = Collector::new();
        let builds = || obs.events().iter().filter(|e| e.name == "plan exec").count();
        let first = sharded.exec_plan(Some(&obs)).unwrap();
        let again = sharded.exec_plan(Some(&obs)).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(builds(), 1);
        // Placing a fetch on the producer's device makes its read local.
        sharded.device_of_node[1] = 0;
        sharded.device_of_tensor[2] = Some(0);
        let edited = sharded.exec_plan(Some(&obs)).unwrap();
        assert_eq!(builds(), 2);
        assert_eq!((first.transfers.len(), edited.transfers.len()), (2, 2));
        assert_eq!(edited.transfers[0].readers, vec![(NodeId(2), 0)]);
        sharded.device_of_node[1] = 5;
        let err = sharded.exec_plan(None).unwrap_err().to_string();
        assert!(err.contains("placed on device 5 of 2"), "{err}");
    }

    fn shard(g: &Graph, workers: usize) -> ShardedGraph {
        let plan = partition(g, &PartitionOptions { workers, ..Default::default() }).unwrap();
        generate(g, &plan, &GenOptions::default()).unwrap()
    }

    #[test]
    fn the_plan_matches_a_transfer_walk_from_scratch_and_from_a_resume_cut() {
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
            for workers in [2, 4, 8] {
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
