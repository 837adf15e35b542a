//! CPU reference executor.
//!
//! Executes a graph node-by-node, running each node's kernel from its
//! operator's registry entry ([`crate::registry::Kernel`], built on the
//! bit-reproducible kernels of `tofu-tensor`). Its job is validation: the
//! cross-crate tests run the original graph and the Tofu-partitioned graph on
//! the same inputs and assert the results match — the correctness claim
//! behind "the same program written for a single device can also be run
//! across devices without changes" (§2).

use std::collections::BTreeMap;

use tofu_tensor::Tensor;

use crate::graph::{Graph, NodeId, TensorId, TensorKind};
use crate::registry::{lookup, GraphError};
use crate::Result;

/// Executes graphs on the CPU.
///
/// # Examples
///
/// ```
/// use tofu_graph::{Attrs, Executor, Graph};
/// use tofu_tensor::{Shape, Tensor};
///
/// let mut g = Graph::new();
/// let x = g.add_input("x", Shape::new(vec![2, 2]));
/// let y = g.add_op("relu", "r", &[x], Attrs::new()).unwrap();
/// let mut exec = Executor::new();
/// exec.feed(x, Tensor::from_vec(Shape::new(vec![2, 2]), vec![-1., 2., -3., 4.]).unwrap());
/// let out = exec.run(&g).unwrap();
/// assert_eq!(out[&y].data(), &[0., 2., 0., 4.]);
/// ```
#[derive(Debug, Default)]
pub struct Executor {
    feeds: BTreeMap<TensorId, Tensor>,
}

impl Executor {
    /// Creates an executor with no fed tensors.
    pub fn new() -> Executor {
        Executor::default()
    }

    /// Feeds a value for an input or weight tensor.
    pub fn feed(&mut self, t: TensorId, value: Tensor) {
        self.feeds.insert(t, value);
    }

    /// Runs every node, returning the value of every tensor.
    ///
    /// # Errors
    ///
    /// Fails when an input/weight is not fed, a fed value's shape mismatches
    /// the declared shape, or an operator has no CPU kernel.
    pub fn run(&self, g: &Graph) -> Result<BTreeMap<TensorId, Tensor>> {
        let mut values: BTreeMap<TensorId, Tensor> = BTreeMap::new();
        for t in g.tensor_ids() {
            let meta = g.tensor(t);
            match meta.kind {
                TensorKind::Input | TensorKind::Weight => {
                    let v = self.feeds.get(&t).ok_or_else(|| {
                        GraphError::Exec(format!("tensor {:?} not fed", meta.name))
                    })?;
                    if v.shape() != &meta.shape {
                        return Err(GraphError::Exec(format!(
                            "fed shape {} for tensor {:?} declared {}",
                            v.shape(),
                            meta.name,
                            meta.shape
                        )));
                    }
                    values.insert(t, v.clone());
                }
                TensorKind::Intermediate => {}
            }
        }
        for id in g.node_ids() {
            let node = g.node(id);
            let inputs: Vec<&Tensor> = node
                .inputs
                .iter()
                .map(|t| {
                    values.get(t).ok_or_else(|| {
                        GraphError::Exec(format!(
                            "node {:?} reads unevaluated tensor {:?}",
                            node.name,
                            g.tensor(*t).name
                        ))
                    })
                })
                .collect::<Result<_>>()?;
            let out = execute_node(g, id, &inputs)?;
            values.insert(node.output, out);
        }
        Ok(values)
    }
}

/// Executes one node of `g` on already-resolved input values — the per-node
/// entry a multi-worker runtime drives directly ([`Executor::run`] is the
/// serial loop over it). Inputs are passed positionally; the output shape is
/// checked against the graph's inferred shape.
pub fn execute_node(g: &Graph, id: NodeId, inputs: &[&Tensor]) -> Result<Tensor> {
    let node = g.node(id);
    let shape = &g.tensor(node.output).shape;
    let out = lookup(&node.op)
        .and_then(|def| def.run(inputs, &node.attrs, shape))
        .map_err(|e| GraphError::Exec(format!("node {:?} (op {}): {e}", node.name, node.op)))?;
    if out.shape() != shape {
        return Err(GraphError::Exec(format!(
            "node {:?} produced shape {} but {shape} was inferred",
            node.name,
            out.shape(),
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use tofu_tensor::Shape;

    use super::*;
    use crate::attrs::Attrs;

    fn run_single(
        op: &str,
        shapes: &[Shape],
        values: Vec<Tensor>,
        attrs: Attrs,
    ) -> Result<Tensor> {
        let mut g = Graph::new();
        let ids: Vec<TensorId> = shapes
            .iter()
            .enumerate()
            .map(|(i, s)| g.add_input(&format!("in{i}"), s.clone()))
            .collect();
        let out = g.add_op(op, "node", &ids, attrs)?;
        let mut exec = Executor::new();
        for (id, v) in ids.iter().zip(values) {
            exec.feed(*id, v);
        }
        Ok(exec.run(&g)?.remove(&out).expect("output evaluated"))
    }

    #[test]
    fn elementwise_dispatch() {
        let x = Tensor::from_vec(Shape::new(vec![3]), vec![-1., 0., 2.]).unwrap();
        let out = run_single("relu", &[x.shape().clone()], vec![x], Attrs::new()).unwrap();
        assert_eq!(out.data(), &[0., 0., 2.]);
    }

    #[test]
    fn scalar_dispatch_reads_attr() {
        let x = Tensor::arange(3);
        let out = run_single(
            "mul_scalar",
            &[x.shape().clone()],
            vec![x],
            Attrs::new().with_float("scalar", 3.0),
        )
        .unwrap();
        assert_eq!(out.data(), &[0., 3., 6.]);
    }

    #[test]
    fn unfed_input_errors() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![2]));
        let _ = g.add_op("relu", "r", &[x], Attrs::new()).unwrap();
        assert!(Executor::new().run(&g).is_err());
    }

    #[test]
    fn wrong_fed_shape_errors() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![2]));
        let mut e = Executor::new();
        e.feed(x, Tensor::zeros(Shape::new(vec![3])));
        assert!(e.run(&g).is_err());
    }

    #[test]
    fn reduce_to_axis_sums_other_dims() {
        let x = Tensor::from_vec(Shape::new(vec![2, 3]), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let out = run_single(
            "reduce_to_axis",
            &[x.shape().clone()],
            vec![x],
            Attrs::new().with_int("axis", 1),
        )
        .unwrap();
        assert_eq!(out.data(), &[5., 7., 9.]);
    }

    #[test]
    fn reduce_to_axis_rank4() {
        let x = Tensor::full(Shape::new(vec![2, 3, 4, 5]), 1.0);
        let out = run_single(
            "reduce_to_axis",
            &[x.shape().clone()],
            vec![x],
            Attrs::new().with_int("axis", 1),
        )
        .unwrap();
        assert_eq!(out.shape().dims(), &[3]);
        assert_eq!(out.data(), &[40.0, 40.0, 40.0]);
    }

    #[test]
    fn data_movement_ops_roundtrip() {
        let x = Tensor::arange(6).reshape(Shape::new(vec![2, 3])).unwrap();
        let sliced = run_single(
            "slice_axis",
            &[x.shape().clone()],
            vec![x.clone()],
            Attrs::new().with_int("axis", 1).with_int("begin", 1).with_int("end", 3),
        )
        .unwrap();
        assert_eq!(sliced.data(), &[1., 2., 4., 5.]);

        let flipped = run_single(
            "flip",
            &[x.shape().clone()],
            vec![x.clone()],
            Attrs::new().with_int("axis", 0),
        )
        .unwrap();
        assert_eq!(flipped.data(), &[3., 4., 5., 0., 1., 2.]);

        let padded = run_single(
            "pad",
            &[x.shape().clone()],
            vec![x.clone()],
            Attrs::new().with_int("axis", 0).with_int("before", 1),
        )
        .unwrap();
        assert_eq!(padded.shape().dims(), &[3, 3]);
        assert_eq!(&padded.data()[..3], &[0., 0., 0.]);

        let repeated = run_single(
            "repeat",
            &[Shape::new(vec![2])],
            vec![Tensor::arange(2)],
            Attrs::new().with_int("repeats", 2),
        )
        .unwrap();
        assert_eq!(repeated.data(), &[0., 0., 1., 1.]);

        let tiled = run_single(
            "tile",
            &[Shape::new(vec![2])],
            vec![Tensor::arange(2)],
            Attrs::new().with_int("repeats", 2),
        )
        .unwrap();
        assert_eq!(tiled.data(), &[0., 1., 0., 1.]);
    }

    #[test]
    fn unknown_kernel_is_reported() {
        // `sparse_dot` is registered without a kernel, and shape inference
        // rejects it, so no graph can hold it: run its entry directly.
        let def = lookup("sparse_dot").unwrap();
        assert!(def.kernel.is_none());
        let x = Tensor::arange(2);
        let err = def.run(&[&x], &Attrs::new(), x.shape()).unwrap_err();
        assert!(err.to_string().contains("no CPU kernel"), "{err}");
    }

    /// Runs `op` on 1×3 logits and the single label `label`.
    fn with_label(op: &str, label: f32) -> Result<Tensor> {
        let logits = Tensor::from_vec(Shape::new(vec![1, 3]), vec![0.5, -1.0, 2.0]).unwrap();
        let labels = Tensor::from_vec(Shape::new(vec![1]), vec![label]).unwrap();
        let shapes = [logits.shape().clone(), labels.shape().clone()];
        run_single(op, &shapes, vec![logits, labels], Attrs::new())
    }

    #[test]
    fn cross_entropy_rejects_labels_that_are_not_classes() {
        assert!(with_label("softmax_ce", 2.0).is_ok());
        assert!(with_label("softmax_ce_grad", 2.0).is_ok());
        let ce = "softmax_ce";
        for (op, bad) in [(ce, -1.0), (ce, 0.5), (ce, f32::NAN), ("softmax_ce_grad", 3.0)] {
            let err = with_label(op, bad).unwrap_err();
            assert!(matches!(err, GraphError::Exec(_)), "{op} label {bad}: {err}");
            assert!(err.to_string().contains("is not a class in 0..3"), "{op} label {bad}: {err}");
        }
    }

    #[test]
    fn end_to_end_training_step_runs() {
        use crate::autodiff;
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![4, 8]));
        let w = g.add_weight("w", Shape::new(vec![8, 3]));
        let labels = g.add_input("labels", Shape::new(vec![4]));
        let h = g.add_op("matmul", "fc", &[x, w], Attrs::new()).unwrap();
        let a = g.add_op("tanh", "act", &[h], Attrs::new()).unwrap();
        let w2 = g.add_weight("w2", Shape::new(vec![3, 3]));
        let logits = g.add_op("matmul", "fc2", &[a, w2], Attrs::new()).unwrap();
        let loss = g.add_op("softmax_ce", "loss", &[logits, labels], Attrs::new()).unwrap();
        let info = autodiff::backward(&mut g, loss, &[w, w2]).unwrap();

        let mut exec = Executor::new();
        exec.feed(x, Tensor::random(Shape::new(vec![4, 8]), 1, 1.0));
        exec.feed(w, Tensor::random(Shape::new(vec![8, 3]), 2, 0.5));
        exec.feed(w2, Tensor::random(Shape::new(vec![3, 3]), 3, 0.5));
        exec.feed(labels, Tensor::from_vec(Shape::new(vec![4]), vec![0., 1., 2., 0.]).unwrap());
        let values = exec.run(&g).unwrap();
        let loss_v = values[&loss].data()[0];
        assert!(loss_v.is_finite() && loss_v > 0.0);
        let gw = info.grad(w).unwrap();
        assert!(values[&gw].data().iter().any(|&v| v != 0.0));
    }
}
