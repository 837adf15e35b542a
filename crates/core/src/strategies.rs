//! Instantiating TDL-discovered strategies at concrete shapes.
//!
//! [`tofu_tdl::discover_strategies`] yields symbolic strategies; here they
//! are bound to a node's concrete (possibly already-scaled-by-recursion)
//! shapes: halos become element counts and the variable extents needed by
//! the cost model are resolved via [`tofu_tdl::bind_extents`].
//!
//! The two halves depend on different things. `analyse` (the op's TDL
//! description and its symbolic discovery) reads only the operator, its
//! attributes and its input ranks: the TDL builders take ranks from shapes
//! and nothing else, except `flip`, whose `N − 1` index constant cancels in
//! every halo. `Analysed::concretise` binds that analysis at one step's
//! shapes. So a `partition` call analyses each (op, attrs, ranks) once, in
//! [`crate::coarsen()`], and concretises it at every step.

use tofu_graph::{Graph, NodeId, TensorId};
use tofu_tensor::Shape;

use tofu_tdl::{
    bind_extents, discover_strategies, BasicStrategy, InputRequirement, OutputPartition, TdlDesc,
};

use crate::error::CoreError;
use crate::spec::{ConcreteOut, ConcreteReq};
use crate::Result;

/// A view of per-tensor shapes that overrides the graph's declared shapes.
///
/// The recursive partitioner scales tensor shapes step by step (each step
/// halves every tensor); the DP always reads shapes through this view.
#[derive(Debug, Clone)]
pub struct ShapeView {
    shapes: Vec<Shape>,
}

impl ShapeView {
    /// A view equal to the graph's declared shapes.
    pub fn from_graph(g: &Graph) -> ShapeView {
        ShapeView { shapes: g.tensor_ids().map(|t| g.tensor(t).shape.clone()).collect() }
    }

    /// Shape of a tensor under this view.
    pub fn shape(&self, t: TensorId) -> &Shape {
        &self.shapes[t.0]
    }

    /// Replaces a tensor's shape.
    pub fn set(&mut self, t: TensorId, shape: Shape) {
        self.shapes[t.0] = shape;
    }

    /// Appends an extra (pseudo-input) tensor's shape, returning nothing;
    /// the new tensor's id is the previous length.
    pub fn push(&mut self, shape: Shape) {
        self.shapes.push(shape);
    }

    /// Number of tensors covered.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// True when the view covers no tensors.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }
}

/// One fully concrete basic strategy of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStrategy {
    /// Strategy identifier from discovery (e.g. `"split:b"`).
    pub id: String,
    /// The TDL index variable this strategy partitions (needed by the
    /// partitioned-graph generator to narrow variable ranges per worker).
    pub var: usize,
    /// Concrete extent of that variable at the analyzed shapes (used for
    /// divisibility feasibility checks).
    pub var_extent: u64,
    /// Output disposition.
    pub out: ConcreteOut,
    /// The combining reducer for Case-2 strategies.
    pub reducer: Option<tofu_tdl::Reducer>,
    /// One concrete requirement per node input.
    pub inputs: Vec<ConcreteReq>,
}

/// A node's strategies as discovered from its TDL description, before any
/// extent is bound: a function of (op, attrs, input ranks) alone, so one
/// analysis serves every class sharing those, at every recursion step.
#[derive(Debug)]
pub(crate) struct Analysed {
    desc: TdlDesc,
    symbolic: Vec<BasicStrategy>,
}

/// Builds the node's TDL description from its registry entry at the input
/// shapes `shape_of` gives: the one lookup both strategy discovery and
/// partitioned-graph generation read.
pub(crate) fn describe<'a>(
    g: &Graph,
    node: NodeId,
    shape_of: impl Fn(TensorId) -> &'a Shape,
) -> Result<TdlDesc> {
    let n = g.node(node);
    let def = tofu_graph::lookup(&n.op)?;
    let not_describable = || CoreError::NotDescribable { node: n.name.clone(), op: n.op.clone() };
    let tdl_fn = def.tdl.ok_or_else(not_describable)?;
    let in_shapes: Vec<Shape> = n.inputs.iter().map(|&t| shape_of(t).clone()).collect();
    tdl_fn(&in_shapes, &n.attrs).ok_or_else(not_describable)
}

/// Builds the node's TDL description at its shapes under `view` and
/// discovers its symbolic strategies.
pub(crate) fn analyse(g: &Graph, node: NodeId, view: &ShapeView) -> Result<Analysed> {
    let desc = describe(g, node, |t| view.shape(t))?;
    let symbolic = discover_strategies(&desc)?;
    Ok(Analysed { desc, symbolic })
}

impl Analysed {
    /// Binds the analysis at `node`'s shapes under `view`: halos become
    /// element counts and each strategy's variable gets its extent.
    pub(crate) fn concretise(
        &self,
        g: &Graph,
        node: NodeId,
        view: &ShapeView,
    ) -> Result<Vec<NodeStrategy>> {
        let n = g.node(node);
        let in_dims: Vec<Vec<usize>> =
            n.inputs.iter().map(|&t| view.shape(t).dims().to_vec()).collect();
        let extents = bind_extents(&self.desc, view.shape(n.output).dims(), &in_dims)?;
        let extent = |var: usize| extents.get(var).copied().unwrap_or(1);
        let eval = |sym: usize| extent(sym) as f64;
        let concrete = |req: &InputRequirement| match req {
            InputRequirement::Unused => ConcreteReq::Unused,
            InputRequirement::Replicated => ConcreteReq::Replicated,
            InputRequirement::Split { dim, halo } => {
                ConcreteReq::Split { dim: *dim, halo: halo.eval(&eval).max(0.0) }
            }
        };
        let strategy = |s: &BasicStrategy| {
            let (out, reducer) = match s.output {
                OutputPartition::Split { dim } => (ConcreteOut::Split(dim), None),
                OutputPartition::Reduce { reducer } => (ConcreteOut::Reduce, Some(reducer)),
            };
            let (inputs, var_extent) = (s.inputs.iter().map(concrete).collect(), extent(s.var));
            NodeStrategy { id: s.id.clone(), var: s.var, var_extent, out, reducer, inputs }
        };
        Ok(self.symbolic.iter().map(strategy).collect())
    }
}

/// Computes the concrete strategies of a node at the given shapes: analyses
/// its TDL description afresh, then concretises it.
///
/// # Errors
///
/// [`CoreError::NotDescribable`] when the node's operator has no TDL
/// description — such operators cannot be partitioned (§9).
pub fn node_strategies(g: &Graph, node: NodeId, view: &ShapeView) -> Result<Vec<NodeStrategy>> {
    analyse(g, node, view)?.concretise(g, node, view)
}

/// True when a strategy is usable for a `ways`-way step at these shapes: the
/// split dimensions it relies on must divide evenly.
pub fn strategy_feasible(
    strategy: &NodeStrategy,
    out_shape: &Shape,
    ways: usize,
) -> bool {
    match strategy.out {
        ConcreteOut::Split(d) => {
            d < out_shape.rank() && out_shape.dim(d).is_multiple_of(ways) && out_shape.dim(d) >= ways
        }
        // A reduce strategy splits the reduction domain, whose extent must
        // divide evenly (e.g. a 3-channel stem convolution cannot reduce
        // over input channels across 2 workers).
        ConcreteOut::Reduce => {
            strategy.var_extent.is_multiple_of(ways as u64) && strategy.var_extent >= ways as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_graph::Attrs;

    #[test]
    fn conv1d_strategies_concretize_halo() {
        let mut g = Graph::new();
        let data = g.add_input("data", Shape::new(vec![4, 3, 10]));
        let filt = g.add_weight("filt", Shape::new(vec![3, 8, 3]));
        let out = g.add_op("conv1d", "c", &[data, filt], Attrs::new()).unwrap();
        let view = ShapeView::from_graph(&g);
        assert_eq!(view.shape(out).dims(), &[4, 8, 8]);
        let node = g.producer(out).unwrap();
        let s = node_strategies(&g, node, &view).unwrap();
        assert_eq!(s.len(), 5);
        // split:x has a halo equal to the filter window (3 elements).
        let x = s.iter().find(|st| st.id == "split:x").unwrap();
        match &x.inputs[0] {
            ConcreteReq::Split { dim: 2, halo } => assert!((halo - 3.0).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shape_view_overrides() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![8, 8]));
        let mut view = ShapeView::from_graph(&g);
        view.set(x, Shape::new(vec![4, 8]));
        assert_eq!(view.shape(x).dims(), &[4, 8]);
        assert_eq!(view.len(), 1);
        assert!(!view.is_empty());
    }

    #[test]
    fn feasibility_checks_divisibility() {
        let s = NodeStrategy {
            id: "split:d0".into(),
            var: 0,
            var_extent: 8,
            out: ConcreteOut::Split(0),
            reducer: None,
            inputs: vec![],
        };
        assert!(strategy_feasible(&s, &Shape::new(vec![8, 3]), 2));
        assert!(!strategy_feasible(&s, &Shape::new(vec![9, 3]), 2));
        let r = NodeStrategy {
            id: "reduce:k".into(),
            var: 2,
            var_extent: 8,
            out: ConcreteOut::Reduce,
            reducer: Some(tofu_tdl::Reducer::Sum),
            inputs: vec![],
        };
        let odd = NodeStrategy { var_extent: 3, ..r.clone() };
        assert!(!strategy_feasible(&odd, &Shape::new(vec![9, 3]), 2));
        assert!(strategy_feasible(&r, &Shape::new(vec![9, 3]), 2));
    }

    #[test]
    fn non_describable_is_reported() {
        let mut g = Graph::new();
        let a = g.add_input("a", Shape::new(vec![2, 3]));
        let b = g.add_input("b", Shape::new(vec![2, 3]));
        let out = g
            .add_op("concat", "cat", &[a, b], Attrs::new().with_int("axis", 0))
            .unwrap();
        let node = g.producer(out).unwrap();
        let view = ShapeView::from_graph(&g);
        let err = node_strategies(&g, node, &view).unwrap_err();
        assert!(matches!(err, CoreError::NotDescribable { .. }));
    }

    /// The invariant behind analysing once per request: an analysis made at
    /// shape A and concretised at shape B (A with every dim halved, the
    /// leading one to 1) equals discovery afresh at B in every field — the
    /// `Debug` text prints each f64 exactly, so halos agree to the bit —
    /// `flip`, whose description bakes in `N − 1`, included.
    #[test]
    fn analysis_at_one_shape_concretises_at_another() {
        let int = |k: &str, v: i64| Attrs::new().with_int(k, v);
        let conv = || int("stride", 2).with_int("pad", 1);
        // The backward ops also carry the two extents they cannot infer.
        let bwd = |k: [&str; 2], v: i64| conv().with_int(k[0], v).with_int(k[1], v);
        let (dy, data, filters) = (vec![4, 8, 4, 4], vec![4, 4, 8, 8], vec![4, 8, 3, 3]);
        let cases: Vec<(&str, Vec<Vec<usize>>, Attrs)> = vec![
            ("flip", vec![vec![6, 8]], int("axis", 0)),
            ("flip", vec![vec![6, 8]], int("axis", 1)),
            ("conv2d", vec![data.clone(), filters.clone()], conv()),
            ("conv2d_bwd_data", vec![dy.clone(), filters], bwd(["in_h", "in_w"], 8)),
            ("conv2d_bwd_filter", vec![dy, data.clone()], bwd(["kh", "kw"], 3)),
            ("pool2d", vec![data.clone()], int("window", 2)),
            ("pool2d_grad", vec![vec![4, 4, 4, 4], data], int("window", 2)),
            ("slice_axis", vec![vec![8, 6]], int("axis", 1).with_int("begin", 2)),
            ("pad", vec![vec![8, 6]], int("axis", 1).with_int("before", 2).with_int("after", 1)),
            ("softmax", vec![vec![4, 6, 8]], int("axis", 1)),
            ("softmax_grad", vec![vec![4, 6, 8], vec![4, 6, 8]], int("axis", 1)),
            ("layer_norm", vec![vec![4, 6, 8], vec![6], vec![6]], int("axis", 1)),
            ("bias_add", vec![vec![8, 6], vec![6]], int("axis", 1)),
            ("sum_axis", vec![vec![8, 6]], int("axis", 0)),
            ("batch_matmul_nt", vec![vec![4, 6, 8], vec![4, 10, 8]], Attrs::new()),
            ("proj_heads", vec![vec![6, 8], vec![4, 8, 10]], Attrs::new()),
        ];
        for (op, ins, attrs) in cases {
            let mut g = Graph::new();
            let named = ins.into_iter().zip(["a", "b", "c"]);
            let inputs: Vec<_> = named.map(|(d, name)| g.add_input(name, Shape::new(d))).collect();
            let out = g.add_op(op, op, &inputs, attrs).unwrap();
            let node = g.producer(out).unwrap();
            let analysed = analyse(&g, node, &ShapeView::from_graph(&g)).unwrap();
            let mut at_b = ShapeView::from_graph(&g);
            for t in g.tensor_ids() {
                let mut dims: Vec<usize> =
                    g.tensor(t).shape.dims().iter().map(|&d| (d / 2).max(1)).collect();
                dims[0] = 1;
                at_b.set(t, Shape::new(dims));
            }
            let want = node_strategies(&g, node, &at_b).unwrap();
            let got = analysed.concretise(&g, node, &at_b).unwrap();
            assert!(!want.is_empty(), "{op}");
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{op} {}", g.node(node).attrs);
        }
    }

    #[test]
    fn scaled_view_scales_halo_costs_not_structure() {
        // Shrinking the batch does not change the strategy list.
        let mut g = Graph::new();
        let a = g.add_input("a", Shape::new(vec![8, 6]));
        let b = g.add_weight("b", Shape::new(vec![6, 4]));
        let out = g.add_op("matmul", "mm", &[a, b], Attrs::new()).unwrap();
        let node = g.producer(out).unwrap();
        let mut view = ShapeView::from_graph(&g);
        view.set(a, Shape::new(vec![4, 6]));
        view.set(out, Shape::new(vec![4, 4]));
        let s = node_strategies(&g, node, &view).unwrap();
        assert_eq!(s.len(), 3);
    }
}
