//! The dataflow graph IR.
//!
//! A [`Graph`] is a list of single-output operator nodes over a table of
//! tensors, mirroring the NNVM representation Tofu's prototype transforms.
//! Nodes are appended in topological order by construction: an operator may
//! only consume tensors that already exist, so the insertion order is a
//! valid schedule.

use std::collections::BTreeMap;
use std::fmt;

use tofu_tensor::Shape;

use crate::attrs::Attrs;
use crate::registry::{self, GraphError};
use crate::Result;

/// Index of a tensor in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorId(pub usize);

/// Index of an operator node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// What role a tensor plays in training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TensorKind {
    /// External input (mini-batch data, labels).
    Input,
    /// Trainable parameter, persistent across iterations.
    Weight,
    /// Produced by an operator during the iteration.
    Intermediate,
}

/// Metadata of one tensor.
#[derive(Debug, Clone)]
pub struct TensorMeta {
    /// Unique name.
    pub name: String,
    /// Concrete shape (shape inference runs at node insertion).
    pub shape: Shape,
    /// Role of the tensor.
    pub kind: TensorKind,
    /// When this tensor is the gradient of another, the forward tensor.
    pub grad_of: Option<TensorId>,
}

/// Scheduling/coarsening tags carried by each node (§5.1).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeTags {
    /// True for nodes generated by autodiff.
    pub is_backward: bool,
    /// The forward node this backward node differentiates.
    pub fw_origin: Option<NodeId>,
    /// Model layer index (set by model builders; drives operator placement).
    pub layer: Option<usize>,
    /// RNN unroll timestep (set by the framework's unroll function, which is
    /// how Tofu detects timesteps to coalesce).
    pub timestep: Option<usize>,
    /// Identity of the RNN cell computation this node instantiates; nodes
    /// with equal `(cell, position)` across timesteps are coalesced.
    pub cell_position: Option<String>,
}

/// One single-output operator node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Unique instance name.
    pub name: String,
    /// Registry key of the operator.
    pub op: String,
    /// Operator attributes.
    pub attrs: Attrs,
    /// Input tensors.
    pub inputs: Vec<TensorId>,
    /// The produced tensor.
    pub output: TensorId,
    /// Extra ordering edges that carry no data — Tofu inserts these so the
    /// memory planner can keep reusing buffers in the partitioned graph (§6).
    pub control_deps: Vec<NodeId>,
    /// Coarsening tags.
    pub tags: NodeTags,
}

/// A dataflow graph of tensor operators.
///
/// # Examples
///
/// ```
/// use tofu_graph::{Attrs, Graph};
/// use tofu_tensor::Shape;
///
/// let mut g = Graph::new();
/// let x = g.add_input("x", Shape::new(vec![4, 8]));
/// let w = g.add_weight("w", Shape::new(vec![8, 2]));
/// let y = g.add_op("matmul", "dense", &[x, w], Attrs::new()).unwrap();
/// assert_eq!(g.tensor(y).shape.dims(), &[4, 2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    tensors: Vec<TensorMeta>,
    producer: Vec<Option<NodeId>>,
    names: BTreeMap<String, TensorId>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    fn add_tensor(&mut self, meta: TensorMeta) -> TensorId {
        let id = TensorId(self.tensors.len());
        assert!(
            !self.names.contains_key(&meta.name),
            "duplicate tensor name {:?}",
            meta.name
        );
        self.names.insert(meta.name.clone(), id);
        self.tensors.push(meta);
        self.producer.push(None);
        id
    }

    /// Declares an external input tensor.
    pub fn add_input(&mut self, name: &str, shape: Shape) -> TensorId {
        self.add_tensor(TensorMeta {
            name: name.to_string(),
            shape,
            kind: TensorKind::Input,
            grad_of: None,
        })
    }

    /// Declares a trainable weight tensor.
    pub fn add_weight(&mut self, name: &str, shape: Shape) -> TensorId {
        self.add_tensor(TensorMeta {
            name: name.to_string(),
            shape,
            kind: TensorKind::Weight,
            grad_of: None,
        })
    }

    /// Appends an operator node, inferring its output shape.
    pub fn add_op(
        &mut self,
        op: &str,
        name: &str,
        inputs: &[TensorId],
        attrs: Attrs,
    ) -> Result<TensorId> {
        self.add_op_tagged(op, name, inputs, attrs, NodeTags::default())
    }

    /// Appends an operator node with explicit coarsening tags.
    pub fn add_op_tagged(
        &mut self,
        op: &str,
        name: &str,
        inputs: &[TensorId],
        attrs: Attrs,
        tags: NodeTags,
    ) -> Result<TensorId> {
        let def = registry::lookup(op)?;
        for &t in inputs {
            if t.0 >= self.tensors.len() {
                return Err(GraphError::UnknownTensor(t.0));
            }
        }
        let in_shapes: Vec<Shape> = inputs.iter().map(|&t| self.tensors[t.0].shape.clone()).collect();
        let out_shape = (def.infer_shape)(&in_shapes, &attrs)
            .map_err(|e| GraphError::ShapeInference { node: name.to_string(), op: op.to_string(), detail: e })?;
        let output = self.add_tensor(TensorMeta {
            name: format!("{name}:out"),
            shape: out_shape,
            kind: TensorKind::Intermediate,
            grad_of: None,
        });
        let node_id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name: name.to_string(),
            op: op.to_string(),
            attrs,
            inputs: inputs.to_vec(),
            output,
            control_deps: Vec::new(),
            tags,
        });
        self.producer[output.0] = Some(node_id);
        Ok(output)
    }

    /// Marks a tensor as the gradient of another.
    pub fn set_grad_of(&mut self, grad: TensorId, forward: TensorId) {
        self.tensors[grad.0].grad_of = Some(forward);
    }

    /// Adds a pure ordering edge `before -> after` (no data flows).
    pub fn add_control_dep(&mut self, after: NodeId, before: NodeId) {
        if !self.nodes[after.0].control_deps.contains(&before) {
            self.nodes[after.0].control_deps.push(before);
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of tensors.
    pub fn num_tensors(&self) -> usize {
        self.tensors.len()
    }

    /// Looks up a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Looks up a tensor.
    pub fn tensor(&self, id: TensorId) -> &TensorMeta {
        &self.tensors[id.0]
    }

    /// Finds a tensor by name.
    pub fn tensor_by_name(&self, name: &str) -> Option<TensorId> {
        self.names.get(name).copied()
    }

    /// The node producing a tensor, if any (inputs and weights have none).
    pub fn producer(&self, t: TensorId) -> Option<NodeId> {
        self.producer[t.0]
    }

    /// All nodes consuming a tensor.
    pub fn consumers(&self, t: TensorId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.inputs.contains(&t))
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// Iterates over node ids in topological (= insertion) order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Iterates over tensor ids.
    pub fn tensor_ids(&self) -> impl Iterator<Item = TensorId> {
        (0..self.tensors.len()).map(TensorId)
    }

    /// All tensors of a given kind.
    pub fn tensors_of_kind(&self, kind: TensorKind) -> Vec<TensorId> {
        self.tensor_ids().filter(|&t| self.tensors[t.0].kind == kind).collect()
    }

    /// Total bytes of all weight tensors (fp32).
    pub fn weight_bytes(&self) -> u64 {
        self.tensors
            .iter()
            .filter(|t| t.kind == TensorKind::Weight)
            .map(|t| t.shape.bytes())
            .sum()
    }

    /// Unique fresh tensor name with the given prefix.
    pub fn fresh_name(&self, prefix: &str) -> String {
        let mut i = self.tensors.len();
        loop {
            let candidate = format!("{prefix}#{i}");
            if !self.names.contains_key(&candidate) {
                return candidate;
            }
            i += 1;
        }
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "graph with {} nodes, {} tensors", self.nodes.len(), self.tensors.len())?;
        for n in &self.nodes {
            let ins: Vec<String> =
                n.inputs.iter().map(|&t| self.tensors[t.0].name.clone()).collect();
            writeln!(
                f,
                "  {} = {}({}) {}",
                self.tensors[n.output.0].name,
                n.op,
                ins.join(", "),
                n.attrs
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_two_layer_graph() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![4, 8]));
        let w1 = g.add_weight("w1", Shape::new(vec![8, 16]));
        let h = g.add_op("matmul", "fc1", &[x, w1], Attrs::new()).unwrap();
        let a = g.add_op("relu", "act1", &[h], Attrs::new()).unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.tensor(h).shape.dims(), &[4, 16]);
        assert_eq!(g.tensor(a).shape.dims(), &[4, 16]);
        assert_eq!(g.producer(a), Some(NodeId(1)));
        assert_eq!(g.producer(x), None);
        assert_eq!(g.consumers(h), vec![NodeId(1)]);
        assert_eq!(g.consumers(a), vec![]);
    }

    #[test]
    fn unknown_op_is_rejected() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![2]));
        assert!(g.add_op("no_such_op", "n", &[x], Attrs::new()).is_err());
    }

    #[test]
    fn unknown_tensor_is_rejected() {
        let mut g = Graph::new();
        assert!(g.add_op("relu", "n", &[TensorId(5)], Attrs::new()).is_err());
    }

    #[test]
    fn shape_inference_failure_names_the_node() {
        let mut g = Graph::new();
        let a = g.add_input("a", Shape::new(vec![2, 3]));
        let b = g.add_input("b", Shape::new(vec![2, 3]));
        let err = g.add_op("matmul", "bad_mm", &[a, b], Attrs::new()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("bad_mm"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "duplicate tensor name")]
    fn duplicate_names_panic() {
        let mut g = Graph::new();
        g.add_input("x", Shape::new(vec![1]));
        g.add_input("x", Shape::new(vec![1]));
    }

    #[test]
    fn kinds_and_weight_bytes() {
        let mut g = Graph::new();
        g.add_input("x", Shape::new(vec![4]));
        g.add_weight("w1", Shape::new(vec![10]));
        g.add_weight("w2", Shape::new(vec![6]));
        assert_eq!(g.weight_bytes(), 64);
        assert_eq!(g.tensors_of_kind(TensorKind::Weight).len(), 2);
        assert_eq!(g.tensors_of_kind(TensorKind::Input).len(), 1);
    }

    #[test]
    fn control_deps_are_deduplicated() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![2]));
        let a = g.add_op("relu", "a", &[x], Attrs::new()).unwrap();
        let _b = g.add_op("relu", "b", &[x], Attrs::new()).unwrap();
        let a_node = g.producer(a).unwrap();
        g.add_control_dep(NodeId(1), a_node);
        g.add_control_dep(NodeId(1), a_node);
        assert_eq!(g.node(NodeId(1)).control_deps, vec![a_node]);
    }

    #[test]
    fn fresh_name_avoids_collisions() {
        let mut g = Graph::new();
        g.add_input("t#0", Shape::new(vec![1]));
        let n = g.fresh_name("t");
        assert_ne!(n, "t#0");
    }

    #[test]
    fn display_lists_ops() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![2]));
        g.add_op("relu", "r", &[x], Attrs::new()).unwrap();
        let s = g.to_string();
        assert!(s.contains("relu(x)"));
    }
}
