//! Baseline partition algorithms compared in §7.3 / Fig. 10.
//!
//! - **AllRow-Greedy** partitions every tensor along its first dimension and
//!   picks each operator's best strategy under that constraint (for CNNs
//!   this reproduces the "one weird trick" batch-parallel layout).
//! - **Spartan** greedily fixes the largest tensor first, choosing the
//!   dimension that minimizes the cost of its incident operators, then the
//!   next largest, and so on.
//! - **EqualChop** runs Tofu's DP but chops each tensor `k` ways along a
//!   single dimension (no recursion, hence no multi-dimensional tilings).
//! - **Icml18** is the full recursive search *without* the output-reduction
//!   (Case-2) strategies the paper shows it misses.
//! - **Tofu** is the full recursive search.

use std::collections::BTreeMap;

use tofu_graph::{Graph, TensorId};

use crate::dp::{NodeChoice, StepPlan};
use crate::recursive::{
    factorize, partition_with_factors, PartitionOptions, PartitionPlan, StepRecord,
};
use crate::spec::{
    input_fetch_bytes, legal_specs, output_bytes, respec_bytes, ConcreteOut, TensorSpec,
};
use crate::strategies::{node_strategies, strategy_feasible, NodeStrategy, ShapeView};
use crate::Result;

/// The partition algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Tofu's full recursive search.
    Tofu,
    /// All tensors split along dimension 0; operators chosen greedily.
    AllRowGreedy,
    /// Largest-tensor-first greedy dimension assignment.
    Spartan,
    /// Single `k`-way DP step (one dimension per tensor).
    EqualChop,
    /// Recursive search without output-reduction strategies.
    Icml18,
}

impl Algorithm {
    /// Human-readable name matching the paper's figure labels.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Tofu => "Tofu",
            Algorithm::AllRowGreedy => "AllRow-Greedy",
            Algorithm::Spartan => "Spartan",
            Algorithm::EqualChop => "EqualChop",
            Algorithm::Icml18 => "ICML18",
        }
    }

    /// All algorithms, in the paper's Fig. 10 order.
    pub fn all() -> [Algorithm; 5] {
        [
            Algorithm::AllRowGreedy,
            Algorithm::Spartan,
            Algorithm::EqualChop,
            Algorithm::Icml18,
            Algorithm::Tofu,
        ]
    }
}

/// Runs the chosen algorithm, producing a [`PartitionPlan`] usable by the
/// graph generator and the simulator.
pub fn run(g: &Graph, algorithm: Algorithm, workers: usize) -> Result<PartitionPlan> {
    let opts = PartitionOptions { workers, ..Default::default() };
    let dp = |factors: &[usize], opts: &PartitionOptions| {
        partition_with_factors(g, factors, opts, None)
    };
    match algorithm {
        Algorithm::Tofu => dp(&factorize(workers)?, &opts),
        Algorithm::Icml18 => {
            dp(&factorize(workers)?, &PartitionOptions { allow_reduce: false, ..opts })
        }
        Algorithm::EqualChop => dp(&[workers], &opts),
        Algorithm::AllRowGreedy => greedy_plan(g, workers, |_, _| Some(0)),
        Algorithm::Spartan => spartan_plan(g, workers),
    }
}

/// Builds a single-step plan from a per-tensor dimension choice function,
/// then picks each node's cheapest strategy under those specs.
fn greedy_plan(
    g: &Graph,
    workers: usize,
    choose_dim: impl Fn(&Graph, TensorId) -> Option<usize>,
) -> Result<PartitionPlan> {
    let view = ShapeView::from_graph(g);
    let mut specs: Vec<TensorSpec> = Vec::with_capacity(g.num_tensors());
    for t in g.tensor_ids() {
        let legal = legal_specs(view.shape(t), workers);
        let wanted = choose_dim(g, t).map(TensorSpec::Split);
        let spec = wanted
            .filter(|s| legal.contains(s))
            .unwrap_or_else(|| legal[0]);
        specs.push(spec);
    }
    finish_single_step(g, &view, specs, workers)
}

/// Spartan's largest-tensor-first assignment.
fn spartan_plan(g: &Graph, workers: usize) -> Result<PartitionPlan> {
    let view = ShapeView::from_graph(g);
    // Order tensors by descending size.
    let mut order: Vec<TensorId> = g.tensor_ids().collect();
    order.sort_by_key(|&t| std::cmp::Reverse(view.shape(t).volume()));

    // Strategy lists per node, computed once.
    let mut strategies: Vec<Vec<NodeStrategy>> = Vec::with_capacity(g.num_nodes());
    for id in g.node_ids() {
        let out_shape = view.shape(g.node(id).output).clone();
        strategies.push(
            node_strategies(g, id, &view)?
                .into_iter()
                .filter(|s| strategy_feasible(s, &out_shape, workers))
                .collect(),
        );
    }

    let mut assigned: BTreeMap<TensorId, TensorSpec> = BTreeMap::new();
    for &t in &order {
        let legal = legal_specs(view.shape(t), workers);
        // Incident nodes: producer and consumers.
        let mut incident: Vec<tofu_graph::NodeId> = g.consumers(t);
        if let Some(p) = g.producer(t) {
            incident.push(p);
        }
        let mut best = (f64::INFINITY, legal[0]);
        for &candidate in &legal {
            let mut cost = 0.0;
            for &n in &incident {
                let mut trial = assigned.clone();
                trial.insert(t, candidate);
                cost += node_min_cost(g, &view, n, &strategies[n.0], &trial, workers).0;
            }
            if cost < best.0 {
                best = (cost, candidate);
            }
        }
        assigned.insert(t, best.1);
    }
    let specs: Vec<TensorSpec> = g.tensor_ids().map(|t| assigned[&t]).collect();
    finish_single_step(g, &view, specs, workers)
}

/// Minimum cost (and strategy index) of one node given partial/total specs;
/// unassigned tensors are treated as free (cost 0 contributions).
fn node_min_cost(
    g: &Graph,
    view: &ShapeView,
    n: tofu_graph::NodeId,
    strategies: &[NodeStrategy],
    specs: &BTreeMap<TensorId, TensorSpec>,
    ways: usize,
) -> (f64, usize) {
    let node = g.node(n);
    let mut best = (f64::INFINITY, 0usize);
    for (idx, st) in strategies.iter().enumerate() {
        let mut cost = 0.0;
        for (i, &t) in node.inputs.iter().enumerate() {
            if let Some(&spec) = specs.get(&t) {
                if let Some(req) = st.inputs.get(i) {
                    cost += input_fetch_bytes(view.shape(t), spec, req, ways);
                }
            }
        }
        match st.out {
            ConcreteOut::Split(c) => {
                if let Some(&spec) = specs.get(&node.output) {
                    cost += respec_bytes(view.shape(node.output), TensorSpec::Split(c), spec, ways);
                }
            }
            ConcreteOut::Reduce => {
                cost += output_bytes(view.shape(node.output), ConcreteOut::Reduce, ways);
            }
        }
        if cost < best.0 {
            best = (cost, idx);
        }
    }
    if best.0.is_infinite() {
        best = (f64::INFINITY, 0);
    }
    best
}

/// Completes a single-step plan: chooses per-node strategies, totals the
/// cost, and wraps everything into a [`PartitionPlan`].
fn finish_single_step(
    g: &Graph,
    view: &ShapeView,
    specs: Vec<TensorSpec>,
    workers: usize,
) -> Result<PartitionPlan> {
    let spec_map: BTreeMap<TensorId, TensorSpec> =
        g.tensor_ids().map(|t| (t, specs[t.0])).collect();
    let mut node_choice: Vec<NodeChoice> = Vec::with_capacity(g.num_nodes());
    let mut total = 0.0;
    for id in g.node_ids() {
        let out_shape = view.shape(g.node(id).output).clone();
        let list: Vec<NodeStrategy> = node_strategies(g, id, view)?
            .into_iter()
            .filter(|s| strategy_feasible(s, &out_shape, workers))
            .collect();
        if list.is_empty() {
            // Scalar-output nodes (e.g. the gradient seed) have no strategy;
            // replicate their (tiny) computation on every worker.
            let node = g.node(id);
            for &t in &node.inputs {
                total += input_fetch_bytes(
                    view.shape(t),
                    spec_map[&t],
                    &crate::spec::ConcreteReq::Replicated,
                    workers,
                );
            }
            node_choice.push(NodeChoice::Ewise(TensorSpec::Replicated));
            continue;
        }
        let (cost, idx) = node_min_cost(g, view, id, &list, &spec_map, workers);
        total += cost;
        node_choice.push(NodeChoice::Strategy(list[idx].clone()));
    }
    let plan = StepPlan { ways: workers, tensor_spec: specs.clone(), node_choice, comm_bytes: total };
    let tiling: Vec<Vec<Option<usize>>> = specs.iter().map(|s| vec![s.dim()]).collect();
    Ok(PartitionPlan {
        workers,
        steps: vec![StepRecord { ways: workers, groups_before: 1, plan }],
        tiling,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_graph::{autodiff, Attrs};
    use tofu_tensor::Shape;

    fn model(batch: usize, hidden: usize) -> Graph {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![batch, hidden]));
        let w1 = g.add_weight("w1", Shape::new(vec![hidden, hidden]));
        let w2 = g.add_weight("w2", Shape::new(vec![hidden, 16]));
        let labels = g.add_input("labels", Shape::new(vec![batch]));
        let h = g.add_op("matmul", "fc1", &[x, w1], Attrs::new()).unwrap();
        let a = g.add_op("tanh", "act", &[h], Attrs::new()).unwrap();
        let y = g.add_op("matmul", "fc2", &[a, w2], Attrs::new()).unwrap();
        let loss = g.add_op("softmax_ce", "loss", &[y, labels], Attrs::new()).unwrap();
        autodiff::backward(&mut g, loss, &[w1, w2]).unwrap();
        g
    }

    #[test]
    fn every_algorithm_produces_a_plan() {
        let g = model(32, 64);
        for alg in Algorithm::all() {
            let plan = run(&g, alg, 8).unwrap_or_else(|e| panic!("{}: {e}", alg.label()));
            assert!(plan.total_comm_bytes().is_finite(), "{}", alg.label());
            assert_eq!(plan.workers, 8);
        }
    }

    #[test]
    fn tofu_is_at_least_as_good_as_every_baseline() {
        // The headline of Fig. 10: Tofu's plan has the lowest communication.
        let g = model(64, 256);
        let tofu = run(&g, Algorithm::Tofu, 8).unwrap().total_comm_bytes();
        for alg in [Algorithm::AllRowGreedy, Algorithm::Spartan, Algorithm::EqualChop, Algorithm::Icml18]
        {
            let cost = run(&g, alg, 8).unwrap().total_comm_bytes();
            assert!(
                tofu <= cost * 1.01 + 1024.0,
                "{} beat Tofu: {cost} < {tofu}",
                alg.label()
            );
        }
    }

    #[test]
    fn allrow_splits_everything_along_dim_zero() {
        let g = model(32, 64);
        let plan = run(&g, Algorithm::AllRowGreedy, 8).unwrap();
        let x = g.tensor_by_name("x").unwrap();
        assert_eq!(plan.tiling[x.0], vec![Some(0)]);
        let w1 = g.tensor_by_name("w1").unwrap();
        assert_eq!(plan.tiling[w1.0], vec![Some(0)]);
    }

    #[test]
    fn equalchop_has_one_step() {
        let g = model(32, 64);
        let plan = run(&g, Algorithm::EqualChop, 8).unwrap();
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(plan.steps[0].ways, 8);
    }

    #[test]
    fn icml18_never_uses_reduction_when_avoidable() {
        let g = model(32, 64);
        let plan = run(&g, Algorithm::Icml18, 8).unwrap();
        for step in &plan.steps {
            for (i, choice) in step.plan.node_choice.iter().enumerate() {
                if let NodeChoice::Strategy(st) = choice {
                    if matches!(st.out, ConcreteOut::Reduce) {
                        // Only allowed when the node has no non-reduce
                        // strategy at all (the scalar loss).
                        let node = g.node(tofu_graph::NodeId(i));
                        assert_eq!(node.op, "softmax_ce", "unexpected reduce on {}", node.name);
                    }
                }
            }
        }
    }

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(Algorithm::Tofu.label(), "Tofu");
        assert_eq!(Algorithm::AllRowGreedy.label(), "AllRow-Greedy");
        assert_eq!(Algorithm::Icml18.label(), "ICML18");
        assert_eq!(Algorithm::all().len(), 5);
    }
}
