//! Graph coarsening (§5.1).
//!
//! Coarsening shrinks the DP search space in two ways:
//!
//! 1. **Groups** — the unit the DP steps over. Each forward operator is
//!    grouped with its auto-generated backward operators and with the
//!    gradient-aggregation summations; optimizer updates join the group that
//!    produces their gradient; consecutive element-wise operators merge; and
//!    unrolled RNN timesteps of the same cell position merge (detected via
//!    the `cell_position`/`timestep` tags set by the framework's unroll
//!    helper, exactly as the paper detects MXNet/PyTorch unrolling).
//! 2. **Classes** — the unit that shares one strategy choice. All timestep
//!    instances of a cell operator form one class, and a maximal run of
//!    coalesced element-wise operators forms one class whose members must be
//!    partitioned identically (their input/output tensors always share a
//!    partition).
//!
//! Every class is contained in one group; a group may hold several classes
//! (e.g. a convolution's forward, backward-data and backward-filter
//! operators are three classes of one group, searched combinatorially).
//!
//! Coarsening also runs strategy discovery (§4.2), once per distinct (op,
//! attrs, input ranks) among the non-element-wise class representatives;
//! every recursion step then only concretises the shared analysis.

use std::collections::HashMap;
use std::sync::Arc;

use tofu_graph::{Graph, NodeId, OpCategory, TensorKind};

use crate::strategies::{analyse, Analysed, ShapeView};

/// Disjoint-set forest over node indices.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind { parent: (0..n).collect() }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Keep the smaller root so group order follows insertion order.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// One coarsened group.
#[derive(Debug, Clone)]
pub struct GroupInfo {
    /// Member nodes in insertion order.
    pub nodes: Vec<NodeId>,
    /// Strategy classes present in this group (indices into
    /// [`CoarseGraph::class_nodes`]).
    pub classes: Vec<usize>,
}

/// The result of coarsening.
#[derive(Debug, Clone)]
pub struct CoarseGraph {
    /// Groups ordered by their earliest member node (forward order).
    pub groups: Vec<GroupInfo>,
    /// Group index of each node.
    pub group_of: Vec<usize>,
    /// Strategy class of each node.
    pub class_of: Vec<usize>,
    /// Member nodes of each class, in insertion order.
    pub class_nodes: Vec<Vec<NodeId>>,
    /// True when the class is a coalesced element-wise run (its strategy
    /// space is "one dimension for everything").
    pub class_is_ewise: Vec<bool>,
    /// Strategy analysis of each class's representative, one `Arc` per
    /// distinct (op, attrs, input ranks). `None` for element-wise classes
    /// and where analysis failed: the search then reports that failure, via
    /// `node_strategies`, at the step it reaches the class.
    pub(crate) analysis: Vec<Option<Arc<Analysed>>>,
}

impl CoarseGraph {
    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }
}

fn is_ewise_op(g: &Graph, n: NodeId) -> bool {
    tofu_graph::lookup(&g.node(n).op).is_ok_and(|def| def.category.is_elementwise())
}

/// Computes the coarsened graph.
pub fn coarsen(g: &Graph) -> CoarseGraph {
    let n = g.num_nodes();
    let mut groups = UnionFind::new(n);
    let mut classes = UnionFind::new(n);

    // Precompute consumer counts per tensor for the single-consumer test.
    let mut consumer_count = vec![0usize; g.num_tensors()];
    for id in g.node_ids() {
        for &t in &g.node(id).inputs {
            consumer_count[t.0] += 1;
        }
    }

    // Rule 1: backward operators join their forward origin's group.
    // Rule 2: other backward nodes (gradient aggregation, the seed) join the
    //         group producing their first input.
    // Rule 3: optimizer updates join the group producing their gradient.
    for id in g.node_ids() {
        let node = g.node(id);
        if node.tags.is_backward {
            if let Some(origin) = node.tags.fw_origin {
                groups.union(id.0, origin.0);
            } else if let Some(&first) = node.inputs.first() {
                if let Some(p) = g.producer(first) {
                    groups.union(id.0, p.0);
                }
            }
        }
        let is_optimizer = tofu_graph::lookup(&node.op)
            .map(|d| d.category == OpCategory::Optimizer)
            .unwrap_or(false);
        if is_optimizer {
            if let Some(&grad_in) = node.inputs.get(1) {
                if let Some(p) = g.producer(grad_in) {
                    groups.union(id.0, p.0);
                }
            }
        }
    }

    // Rule 4: coalesce consecutive element-wise operators (groups AND
    // classes — coalesced element-wise runs share one partition).
    for id in g.node_ids() {
        if !is_ewise_op(g, id) {
            continue;
        }
        for &t in &g.node(id).inputs {
            let meta = g.tensor(t);
            if meta.kind != TensorKind::Intermediate || consumer_count[t.0] != 1 {
                continue;
            }
            if let Some(p) = g.producer(t) {
                if is_ewise_op(g, p) {
                    groups.union(id.0, p.0);
                    classes.union(id.0, p.0);
                }
            }
        }
    }

    // Rule 5: merge unrolled timesteps — nodes instantiating the same cell
    // position across timesteps share a group and a class. The class key
    // distinguishes backward siblings of the same origin by op and ordinal.
    use std::collections::BTreeMap;
    let mut position_reps: BTreeMap<(String, bool, String, usize), usize> = BTreeMap::new();
    let mut ordinal_counter: BTreeMap<(String, bool, String, Option<usize>), usize> =
        BTreeMap::new();
    for id in g.node_ids() {
        let node = g.node(id);
        let Some(cp) = node.tags.cell_position.clone() else { continue };
        let op = node.op.clone();
        let bw = node.tags.is_backward;
        let ord_key = (cp.clone(), bw, op.clone(), node.tags.timestep);
        let ordinal = {
            let c = ordinal_counter.entry(ord_key).or_insert(0);
            let v = *c;
            *c += 1;
            v
        };
        let class_key = (cp, bw, op, ordinal);
        match position_reps.get(&class_key) {
            Some(&rep) => {
                groups.union(id.0, rep);
                classes.union(id.0, rep);
            }
            None => {
                position_reps.insert(class_key, id.0);
            }
        }
    }

    // Materialize groups (ordered by smallest member) and classes.
    let mut group_index: BTreeMap<usize, usize> = BTreeMap::new();
    let mut class_index: BTreeMap<usize, usize> = BTreeMap::new();
    let mut group_of = vec![0usize; n];
    let mut class_of = vec![0usize; n];
    let mut group_nodes: Vec<Vec<NodeId>> = Vec::new();
    let mut class_nodes: Vec<Vec<NodeId>> = Vec::new();
    for i in 0..n {
        let groot = groups.find(i);
        let gi = *group_index.entry(groot).or_insert_with(|| {
            group_nodes.push(Vec::new());
            group_nodes.len() - 1
        });
        group_of[i] = gi;
        group_nodes[gi].push(NodeId(i));

        let croot = classes.find(i);
        let ci = *class_index.entry(croot).or_insert_with(|| {
            class_nodes.push(Vec::new());
            class_nodes.len() - 1
        });
        class_of[i] = ci;
        class_nodes[ci].push(NodeId(i));
    }

    let class_is_ewise: Vec<bool> = class_nodes
        .iter()
        .map(|members| members.iter().all(|&m| is_ewise_op(g, m)))
        .collect();

    let groups_out: Vec<GroupInfo> = group_nodes
        .into_iter()
        .map(|nodes| {
            let mut cls: Vec<usize> = nodes.iter().map(|&m| class_of[m.0]).collect();
            cls.sort_unstable();
            cls.dedup();
            GroupInfo { nodes, classes: cls }
        })
        .collect();

    // The TDL builders read shapes only for ranks (see `strategies`), so
    // classes sharing (op, attrs, input ranks) share one analysis.
    let view = ShapeView::from_graph(g);
    let mut analysed = HashMap::new();
    let mut analysis = vec![None; class_nodes.len()];
    for (ci, members) in class_nodes.iter().enumerate().filter(|&(ci, _)| !class_is_ewise[ci]) {
        let rep = g.node(members[0]);
        let ranks: Vec<usize> = rep.inputs.iter().map(|&t| view.shape(t).rank()).collect();
        let fresh = || analyse(g, members[0], &view).ok().map(Arc::new);
        let key = (rep.op.as_str(), rep.attrs.to_string(), ranks);
        analysis[ci] = analysed.entry(key).or_insert_with(fresh).clone();
    }

    CoarseGraph { groups: groups_out, group_of, class_of, class_nodes, class_is_ewise, analysis }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{partition, CoreError, PartitionOptions};
    use tofu_graph::{autodiff, Attrs, NodeTags};
    use tofu_tensor::Shape;

    /// A 2-layer MLP with loss, autodiff and SGD updates.
    fn mlp() -> (Graph, usize) {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![8, 16]));
        let labels = g.add_input("labels", Shape::new(vec![8]));
        let w1 = g.add_weight("w1", Shape::new(vec![16, 32]));
        let w2 = g.add_weight("w2", Shape::new(vec![32, 10]));
        let h = g.add_op("matmul", "fc1", &[x, w1], Attrs::new()).unwrap();
        let a = g.add_op("sigmoid", "act1", &[h], Attrs::new()).unwrap();
        let logits = g.add_op("matmul", "fc2", &[a, w2], Attrs::new()).unwrap();
        let loss = g.add_op("softmax_ce", "loss", &[logits, labels], Attrs::new()).unwrap();
        let n_forward = g.num_nodes();
        let info = autodiff::backward(&mut g, loss, &[w1, w2]).unwrap();
        for (w, name) in [(w1, "upd1"), (w2, "upd2")] {
            let gw = info.grad(w).unwrap();
            g.add_op("sgd_update", name, &[w, gw], Attrs::new().with_float("lr", 0.1)).unwrap();
        }
        (g, n_forward)
    }

    #[test]
    fn backward_joins_forward_group() {
        let (g, _) = mlp();
        let cg = coarsen(&g);
        for id in g.node_ids() {
            let node = g.node(id);
            if let Some(origin) = node.tags.fw_origin {
                assert_eq!(
                    cg.group_of[id.0],
                    cg.group_of[origin.0],
                    "bw node {} not grouped with its origin",
                    node.name
                );
            }
        }
    }

    #[test]
    fn coarsened_mlp_is_compact() {
        let (g, _) = mlp();
        let cg = coarsen(&g);
        // fc1, act1, fc2, loss: four groups (optimizers and aggregations
        // merge into them). Far fewer groups than nodes.
        assert!(cg.num_groups() <= 5, "groups: {}", cg.num_groups());
        assert!(cg.num_groups() < g.num_nodes() / 2);
    }

    #[test]
    fn optimizer_joins_gradient_producer_group() {
        let (g, _) = mlp();
        let cg = coarsen(&g);
        for id in g.node_ids() {
            let node = g.node(id);
            if node.op == "sgd_update" {
                let grad_producer = g.producer(node.inputs[1]).unwrap();
                assert_eq!(cg.group_of[id.0], cg.group_of[grad_producer.0]);
            }
        }
    }

    #[test]
    fn elementwise_chain_coalesces_to_one_class() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![4, 4]));
        let a = g.add_op("relu", "a", &[x], Attrs::new()).unwrap();
        let b = g.add_op("tanh", "b", &[a], Attrs::new()).unwrap();
        let _c = g.add_op("sigmoid", "c", &[b], Attrs::new()).unwrap();
        let cg = coarsen(&g);
        assert_eq!(cg.num_groups(), 1);
        assert_eq!(cg.groups[0].classes.len(), 1);
        assert!(cg.class_is_ewise[cg.groups[0].classes[0]]);
    }

    #[test]
    fn fan_out_blocks_elementwise_coalescing() {
        // x -> relu -> {tanh, sigmoid}: relu's output has two consumers, so
        // the chain must not merge through it.
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![4, 4]));
        let a = g.add_op("relu", "a", &[x], Attrs::new()).unwrap();
        let _b = g.add_op("tanh", "b", &[a], Attrs::new()).unwrap();
        let _c = g.add_op("sigmoid", "c", &[a], Attrs::new()).unwrap();
        let cg = coarsen(&g);
        assert_eq!(cg.num_groups(), 3);
    }

    #[test]
    fn matmul_breaks_elementwise_runs() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![4, 4]));
        let w = g.add_weight("w", Shape::new(vec![4, 4]));
        let a = g.add_op("relu", "a", &[x], Attrs::new()).unwrap();
        let m = g.add_op("matmul", "m", &[a, w], Attrs::new()).unwrap();
        let _b = g.add_op("relu", "b", &[m], Attrs::new()).unwrap();
        let cg = coarsen(&g);
        assert_eq!(cg.num_groups(), 3);
    }

    #[test]
    fn timestep_instances_merge() {
        // Two timesteps of a toy cell: h_t = tanh(matmul(h_{t-1}, w)).
        let mut g = Graph::new();
        let w = g.add_weight("w", Shape::new(vec![4, 4]));
        let mut h = g.add_input("h0", Shape::new(vec![2, 4]));
        for t in 0..3 {
            let tags = |pos: &str| NodeTags {
                timestep: Some(t),
                cell_position: Some(pos.to_string()),
                ..NodeTags::default()
            };
            let m = g
                .add_op_tagged("matmul", &format!("mm_t{t}"), &[h, w], Attrs::new(), tags("cell/mm"))
                .unwrap();
            h = g
                .add_op_tagged("tanh", &format!("act_t{t}"), &[m], Attrs::new(), tags("cell/act"))
                .unwrap();
        }
        let cg = coarsen(&g);
        // Each cell position coalesces across timesteps into its own group
        // (matmuls in one, activations in another) — the RNN becomes a chain
        // of coalesced operators, §5.1.
        assert_eq!(cg.num_groups(), 2);
        let mm_class = cg.class_of[0];
        assert_eq!(cg.class_nodes[mm_class].len(), 3);
        let act_class = cg.class_of[1];
        assert_eq!(cg.class_nodes[act_class].len(), 3);
        assert_ne!(mm_class, act_class);
    }

    #[test]
    fn class_is_contained_in_group() {
        let (g, _) = mlp();
        let cg = coarsen(&g);
        for members in &cg.class_nodes {
            let g0 = cg.group_of[members[0].0];
            assert!(members.iter().all(|m| cg.group_of[m.0] == g0));
        }
    }

    #[test]
    fn classes_share_one_analysis_per_op_attrs_and_ranks() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![8, 16]));
        let w1 = g.add_weight("w1", Shape::new(vec![16, 32]));
        let w2 = g.add_weight("w2", Shape::new(vec![32, 4]));
        let h = g.add_op("matmul", "fc1", &[x, w1], Attrs::new()).unwrap();
        let a = g.add_op("relu", "act", &[h], Attrs::new()).unwrap();
        let y = g.add_op("matmul", "fc2", &[a, w2], Attrs::new()).unwrap();
        let cg = coarsen(&g);
        let analysis = |t| cg.analysis[cg.class_of[g.producer(t).unwrap().0]].as_ref();
        let (fc1, fc2) = (analysis(h).expect("fc1 analysed"), analysis(y).expect("fc2 analysed"));
        assert!(Arc::ptr_eq(fc1, fc2), "[8,16]x[16,32] and [8,32]x[32,4] share one analysis");
        assert!(analysis(a).is_none(), "element-wise classes are not analysed");

        // A failed analysis is `None` too, and the search still reports it.
        let mut g = Graph::new();
        let p = g.add_input("p", Shape::new(vec![4, 6]));
        let q = g.add_input("q", Shape::new(vec![4, 6]));
        g.add_op("concat", "cat", &[p, q], Attrs::new().with_int("axis", 0)).unwrap();
        assert!(coarsen(&g).analysis[0].is_none());
        let plan = partition(&g, &PartitionOptions { workers: 2, ..Default::default() });
        assert!(matches!(plan, Err(CoreError::NotDescribable { .. })), "{plan:?}");
    }

    #[test]
    fn group_count_matches_paper_claim_for_mlp() {
        // §5.1: after grouping, the coarsened graph is isomorphic to the
        // forward graph. Our MLP forward graph has 4 operators.
        let (g, n_forward) = mlp();
        let cg = coarsen(&g);
        assert!(cg.num_groups() <= n_forward);
    }
}
