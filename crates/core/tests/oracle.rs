//! Brute-force optimality oracle for the basic-step DP search.
//!
//! For small random graphs (≤8 operator nodes) the oracle enumerates *every*
//! bundle-spec assignment directly from the public cost model — independent
//! of the DP's grouping, memoization, pruning and caching — and computes the
//! true minimum step cost. Both search engines (optimized and reference)
//! must land exactly on that minimum, and when the optimum is unique they
//! must reproduce the oracle's spec assignment verbatim.

mod common;

use tofu_core::coarsen::coarsen;
use tofu_core::dp::{search, unoptimized_search, ExtraInputs};
use tofu_core::recursive::PartitionOptions;
use tofu_core::spec::{
    input_fetch_bytes, legal_specs, output_bytes, respec_bytes, ConcreteOut, ConcreteReq,
    TensorSpec,
};
use tofu_core::strategies::{node_strategies, strategy_feasible, NodeStrategy, ShapeView};
use tofu_graph::{Graph, TensorId};

/// Mirror of the DP's element-wise requirement rule: an ewise class whose
/// spec splits dimension `d` needs every input split along `d` too (or
/// replicated inputs when the spec does not apply to the input's rank).
fn ewise_req(class_spec: TensorSpec, rank: usize) -> ConcreteReq {
    match class_spec {
        TensorSpec::Split(d) if d < rank => ConcreteReq::Split { dim: d, halo: 0.0 },
        _ => ConcreteReq::Replicated,
    }
}

struct OracleClass {
    members: Vec<tofu_graph::NodeId>,
    is_ewise: bool,
    strategies: Vec<NodeStrategy>,
}

struct Oracle {
    /// Bundle id per tensor.
    of_tensor: Vec<usize>,
    /// Legal specs per bundle.
    legal: Vec<Vec<TensorSpec>>,
    classes: Vec<OracleClass>,
}

/// Builds the oracle's independent view of the step: bundles (class outputs
/// share a spec, everything else is a singleton) and per-class strategy
/// lists. Returns `None` when some class has no feasible strategy — the
/// searches must fail on such graphs, which the caller asserts separately.
fn build_oracle(g: &Graph, view: &ShapeView, ways: usize) -> Option<Oracle> {
    let cg = coarsen(g);
    let mut of_tensor = vec![usize::MAX; view.len()];
    let mut class_bundle = std::collections::BTreeMap::new();
    let mut count = 0usize;
    for id in g.node_ids() {
        let out = g.node(id).output;
        let b = *class_bundle.entry(cg.class_of[id.0]).or_insert_with(|| {
            count += 1;
            count - 1
        });
        of_tensor[out.0] = b;
    }
    for slot in of_tensor.iter_mut() {
        if *slot == usize::MAX {
            *slot = count;
            count += 1;
        }
    }

    let mut legal: Vec<Option<Vec<TensorSpec>>> = vec![None; count];
    for t in 0..view.len() {
        let specs = legal_specs(view.shape(TensorId(t)), ways);
        let slot = &mut legal[of_tensor[t]];
        *slot = Some(match slot.take() {
            None => specs,
            Some(prev) => prev.into_iter().filter(|s| specs.contains(s)).collect(),
        });
    }
    let legal: Vec<Vec<TensorSpec>> = legal
        .into_iter()
        .map(|l| {
            let l = l.unwrap();
            if l.is_empty() { vec![TensorSpec::Replicated] } else { l }
        })
        .collect();

    let mut classes = Vec::new();
    for (ci, members) in cg.class_nodes.iter().enumerate() {
        if members.is_empty() {
            continue;
        }
        let is_ewise = cg.class_is_ewise[ci];
        let strategies = if is_ewise {
            Vec::new()
        } else {
            let rep = members[0];
            let out_shape = view.shape(g.node(rep).output).clone();
            let all = node_strategies(g, rep, view).ok()?;
            let feasible: Vec<NodeStrategy> =
                all.into_iter().filter(|s| strategy_feasible(s, &out_shape, ways)).collect();
            if feasible.is_empty() {
                return None;
            }
            feasible
        };
        classes.push(OracleClass { members: members.clone(), is_ewise, strategies });
    }
    Some(Oracle { of_tensor, legal, classes })
}

/// Cost of one full spec assignment, summed per class exactly as the cost
/// model defines it (min over the class's shared strategies).
fn assignment_cost(
    g: &Graph,
    view: &ShapeView,
    oracle: &Oracle,
    assign: &[TensorSpec],
    ways: usize,
) -> f64 {
    let spec = |t: TensorId| assign[oracle.of_tensor[t.0]];
    let mut total = 0.0;
    for class in &oracle.classes {
        if class.is_ewise {
            let class_spec = spec(g.node(class.members[0]).output);
            for &m in &class.members {
                for &t in &g.node(m).inputs {
                    let shape = view.shape(t);
                    let req = ewise_req(class_spec, shape.rank());
                    total += input_fetch_bytes(shape, spec(t), &req, ways);
                }
            }
            continue;
        }
        let mut best = f64::INFINITY;
        for st in &class.strategies {
            let mut c = 0.0;
            for &m in &class.members {
                let node = g.node(m);
                for (i, &t) in node.inputs.iter().enumerate() {
                    let req = st.inputs.get(i).cloned().unwrap_or(ConcreteReq::Unused);
                    c += input_fetch_bytes(view.shape(t), spec(t), &req, ways);
                }
                let out_shape = view.shape(node.output);
                c += match st.out {
                    ConcreteOut::Split(d) => {
                        respec_bytes(out_shape, TensorSpec::Split(d), spec(node.output), ways)
                    }
                    ConcreteOut::Reduce => output_bytes(out_shape, ConcreteOut::Reduce, ways),
                };
            }
            if c < best {
                best = c;
            }
        }
        total += best;
    }
    total
}

/// Exhaustively enumerates every bundle assignment. Returns the minimum
/// cost, the per-tensor argmin specs, and whether the optimum is unique
/// (no other assignment within a small relative tolerance of the minimum).
fn exhaustive_min(
    g: &Graph,
    view: &ShapeView,
    oracle: &Oracle,
    ways: usize,
) -> (f64, Vec<TensorSpec>, bool) {
    let bundles = oracle.legal.len();
    let mut idx = vec![0usize; bundles];
    let mut assign: Vec<TensorSpec> = oracle.legal.iter().map(|l| l[0]).collect();
    let mut costs: Vec<f64> = Vec::new();
    let mut best = f64::INFINITY;
    let mut best_specs = Vec::new();
    loop {
        let c = assignment_cost(g, view, oracle, &assign, ways);
        costs.push(c);
        if c < best {
            best = c;
            best_specs = (0..view.len())
                .map(|t| assign[oracle.of_tensor[t]])
                .collect();
        }
        // Odometer increment over the bundle spec choices.
        let mut b = 0;
        loop {
            if b == bundles {
                let tol = best.abs() * 1e-9 + 1e-6;
                let ties = costs.iter().filter(|&&c| c <= best + tol).count();
                return (best, best_specs, ties == 1);
            }
            idx[b] += 1;
            if idx[b] < oracle.legal[b].len() {
                assign[b] = oracle.legal[b][idx[b]];
                break;
            }
            idx[b] = 0;
            assign[b] = oracle.legal[b][0];
            b += 1;
        }
    }
}

/// Runs both engines and the oracle on one graph and cross-checks them.
fn check_graph(g: &Graph, ways: usize) -> bool {
    let view = ShapeView::from_graph(g);
    let cg = coarsen(g);
    let extra = ExtraInputs::new();
    // Exact settings: no beam truncation, no state abort, full internal
    // enumeration — the oracle certifies the *exact* optimum.
    let opts = PartitionOptions {
        state_bound: 50_000_000,
        internal_bound: 1 << 22,
        beam: 50_000_000,
        ..Default::default()
    };

    let oracle = build_oracle(g, &view, ways);
    let optimized = search(g, &view, &cg, &extra, ways, &opts, None);
    let reference = unoptimized_search(g, &view, &cg, &extra, ways, &opts, None);

    let Some(oracle) = oracle else {
        assert!(optimized.is_err(), "oracle found no feasible strategy but optimized succeeded");
        assert!(reference.is_err(), "oracle found no feasible strategy but reference succeeded");
        return false;
    };
    // Skip pathologically large products; the suite keeps graphs small
    // enough that this never drops more than the occasional seed.
    let product: f64 = oracle.legal.iter().map(|l| l.len() as f64).product();
    if product > 250_000.0 {
        return false;
    }

    let (true_min, best_specs, unique) = exhaustive_min(g, &view, &oracle, ways);
    let optimized = optimized.expect("oracle found a feasible assignment, search must too");
    let reference = reference.expect("oracle found a feasible assignment, search must too");

    let tol = true_min.abs() * 1e-9 + 1e-6;
    assert!(
        (optimized.comm_bytes - true_min).abs() <= tol,
        "optimized cost {} != exhaustive minimum {true_min} (ways {ways})",
        optimized.comm_bytes,
    );
    assert!(
        (reference.comm_bytes - true_min).abs() <= tol,
        "reference cost {} != exhaustive minimum {true_min} (ways {ways})",
        reference.comm_bytes,
    );
    assert_eq!(
        optimized.comm_bytes.to_bits(),
        reference.comm_bytes.to_bits(),
        "engines disagree bit-for-bit (ways {ways})"
    );
    if unique {
        assert_eq!(
            optimized.tensor_spec, best_specs,
            "unique optimum but optimized picked a different plan (ways {ways})"
        );
        assert_eq!(
            reference.tensor_spec, best_specs,
            "unique optimum but reference picked a different plan (ways {ways})"
        );
    }
    unique
}

#[test]
fn dp_matches_exhaustive_minimum_on_random_graphs() {
    let mut checked = 0usize;
    let mut unique_hits = 0usize;
    for seed in 0..60u64 {
        let ops = 3 + (seed % 6) as usize; // 3..=8 operator nodes
        let g = common::random_dag(seed.wrapping_mul(0x9E3779B97F4A7C15), ops);
        for ways in [2usize, 3] {
            checked += 1;
            if check_graph(&g, ways) {
                unique_hits += 1;
            }
        }
    }
    // The suite must actually exercise the unique-optimum plan-equality
    // branch, not just the cost check.
    assert!(checked >= 100, "too few oracle checks ran: {checked}");
    assert!(unique_hits >= 10, "too few unique-optimum cases: {unique_hits}");
}

#[test]
fn dp_matches_exhaustive_minimum_on_conv_towers() {
    let mut unique_hits = 0usize;
    for seed in 0..12u64 {
        let g = common::conv_tower(seed.wrapping_mul(0xA24BAED4963EE407), 1 + (seed % 3) as usize);
        for ways in [2usize, 4] {
            if check_graph(&g, ways) {
                unique_hits += 1;
            }
        }
    }
    assert!(unique_hits >= 3, "too few unique-optimum conv cases: {unique_hits}");
}
