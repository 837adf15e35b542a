//! Reverse-mode automatic differentiation.
//!
//! Backward nodes are appended to the same graph, tagged with their forward
//! origin (`NodeTags::fw_origin`) — exactly the association Tofu's coarsening
//! pass uses to group each forward operator with its backward operators
//! (§5.1). When a forward tensor feeds several consumers, the chain rule sums
//! the incoming gradients with an `add_n` node; the paper's grouping rule
//! attaches that summation to the tensor's group, which we record via
//! [`GradInfo`].

use std::collections::BTreeMap;

use crate::attrs::Attrs;
use crate::graph::{Graph, NodeId, NodeTags, TensorId};
use crate::registry::{self, GradCtx, GraphError};
use crate::Result;

/// The result of a backward pass.
#[derive(Debug, Clone, Default)]
pub struct GradInfo {
    grads: BTreeMap<TensorId, TensorId>,
}

impl GradInfo {
    /// Gradient tensor of a forward tensor, if one was computed.
    pub fn grad(&self, t: TensorId) -> Option<TensorId> {
        self.grads.get(&t).copied()
    }

    /// Iterates over `(forward, gradient)` tensor pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TensorId, TensorId)> + '_ {
        self.grads.iter().map(|(&a, &b)| (a, b))
    }

    /// Number of gradients recorded.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// True when no gradients were recorded.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }
}

/// Appends the backward pass for `loss` to the graph.
///
/// Gradients are materialized for every tensor on a path from a `wrt` tensor
/// to the loss; the returned [`GradInfo`] maps forward tensors to gradient
/// tensors and the graph's tensor metadata records the same pairing
/// (`TensorMeta::grad_of`).
///
/// # Errors
///
/// Fails with [`GraphError::Autodiff`] when a required operator has no
/// registered gradient, or when `loss` is not a scalar.
pub fn backward(g: &mut Graph, loss: TensorId, wrt: &[TensorId]) -> Result<GradInfo> {
    if g.tensor(loss).shape.rank() != 0 {
        return Err(GraphError::Autodiff(format!(
            "loss must be a scalar, got shape {}",
            g.tensor(loss).shape
        )));
    }
    let num_forward_nodes = g.num_nodes();

    // Running gradient accumulator per forward tensor. Contributions are
    // summed *incrementally* the moment they are produced — MXNet's in-place
    // gradient aggregation, whose absence the paper blames for TensorFlow's
    // 2x slowdown on large RNNs (§7.2): a terminal n-ary sum would keep all
    // per-timestep weight-gradient partials alive simultaneously.
    let mut pending: BTreeMap<TensorId, TensorId> = BTreeMap::new();
    let accumulate =
        |g: &mut Graph, pending: &mut BTreeMap<TensorId, TensorId>, t: TensorId, c: TensorId| -> Result<()> {
            match pending.remove(&t) {
                None => {
                    pending.insert(t, c);
                }
                Some(prev) => {
                    let name = g.fresh_name("grad_acc");
                    let tags = NodeTags { is_backward: true, ..NodeTags::default() };
                    let sum = g.add_op_tagged("add", &name, &[prev, c], Attrs::new(), tags)?;
                    pending.insert(t, sum);
                }
            }
            Ok(())
        };

    // Seed: d(loss)/d(loss) = 1.
    let seed_tags = NodeTags { is_backward: true, ..NodeTags::default() };
    let seed = g.add_op_tagged("ones_like", "grad_seed", &[loss], Attrs::new(), seed_tags)?;
    accumulate(g, &mut pending, loss, seed)?;

    let mut info = GradInfo::default();

    // Process forward nodes in reverse topological (= reverse insertion)
    // order. By the time a node is visited, every consumer of its output has
    // already contributed.
    for idx in (0..num_forward_nodes).rev() {
        let node_id = NodeId(idx);
        let (op, inputs, output, attrs, fw_tags, node_name) = {
            let n = g.node(node_id);
            (n.op.clone(), n.inputs.clone(), n.output, n.attrs.clone(), n.tags.clone(), n.name.clone())
        };
        let Some(out_grad) = pending.remove(&output) else {
            continue; // Not on any path to the loss.
        };
        let bw_tags = NodeTags {
            is_backward: true,
            fw_origin: Some(node_id),
            layer: fw_tags.layer,
            timestep: fw_tags.timestep,
            cell_position: fw_tags.cell_position.clone(),
        };
        g.set_grad_of(out_grad, output);
        info.grads.insert(output, out_grad);

        let def = registry::lookup(&op)?;
        let grad_fn = def.gradient.ok_or_else(|| {
            GraphError::Autodiff(format!("operator {op:?} (node {node_name:?}) has no gradient"))
        })?;
        let mut ctx = GradCtx::new(
            g,
            inputs.clone(),
            output,
            out_grad,
            attrs,
            format!("grad/{node_name}"),
            bw_tags,
        );
        let input_grads = grad_fn(&mut ctx)?;
        if input_grads.len() != inputs.len() {
            return Err(GraphError::Autodiff(format!(
                "gradient of {op:?} returned {} grads for {} inputs",
                input_grads.len(),
                inputs.len()
            )));
        }
        for (t, grad) in inputs.iter().zip(input_grads) {
            if let Some(grad) = grad {
                accumulate(g, &mut pending, *t, grad)?;
            }
        }
    }

    // Leaf tensors (weights, inputs): the accumulator already holds their
    // fully summed gradient.
    for &t in wrt {
        if let Some(grad) = pending.remove(&t) {
            g.set_grad_of(grad, t);
            info.grads.insert(t, grad);
        }
    }
    Ok(info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_tensor::Shape;

    fn simple_net(g: &mut Graph) -> (TensorId, TensorId, TensorId) {
        let x = g.add_input("x", Shape::new(vec![4, 8]));
        let w = g.add_weight("w", Shape::new(vec![8, 3]));
        let labels = g.add_input("labels", Shape::new(vec![4]));
        let logits = g.add_op("matmul", "fc", &[x, w], Attrs::new()).unwrap();
        let loss = g.add_op("softmax_ce", "loss", &[logits, labels], Attrs::new()).unwrap();
        (w, logits, loss)
    }

    #[test]
    fn backward_produces_weight_gradient() {
        let mut g = Graph::new();
        let (w, logits, loss) = simple_net(&mut g);
        let info = backward(&mut g, loss, &[w]).unwrap();
        let gw = info.grad(w).expect("weight gradient");
        assert_eq!(g.tensor(gw).shape, g.tensor(w).shape);
        assert_eq!(g.tensor(gw).grad_of, Some(w));
        // Intermediate gradient recorded too.
        assert!(info.grad(logits).is_some());
        assert!(!info.is_empty());
    }

    #[test]
    fn backward_nodes_are_tagged_with_origin() {
        let mut g = Graph::new();
        let (w, _logits, loss) = simple_net(&mut g);
        let n_forward = 2;
        backward(&mut g, loss, &[w]).unwrap();
        let mut tagged = 0;
        for id in g.node_ids().skip(n_forward) {
            let n = g.node(id);
            assert!(n.tags.is_backward, "node {} untagged", n.name);
            if n.tags.fw_origin.is_some() {
                tagged += 1;
            }
        }
        assert!(tagged >= 2, "backward nodes carry fw_origin");
    }

    #[test]
    fn fan_out_gradients_are_summed() {
        // y = relu(x) used twice: z = y*y -> dz/dy flows along two paths...
        // Use x consumed by two matmuls instead, whose grads must be added.
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![2, 2]));
        let w = g.add_weight("w", Shape::new(vec![2, 2]));
        let labels = g.add_input("labels", Shape::new(vec![2]));
        let a = g.add_op("matmul", "a", &[x, w], Attrs::new()).unwrap();
        let b = g.add_op("matmul", "b", &[x, w], Attrs::new()).unwrap();
        let s = g.add_op("add", "s", &[a, b], Attrs::new()).unwrap();
        let loss = g.add_op("softmax_ce", "loss", &[s, labels], Attrs::new()).unwrap();
        let info = backward(&mut g, loss, &[w]).unwrap();
        let gw = info.grad(w).unwrap();
        // w receives two contributions, summed by an incremental in-place
        // accumulation node.
        let producer = g.producer(gw).unwrap();
        assert_eq!(g.node(producer).op, "add");
        assert!(g.node(producer).name.starts_with("grad_acc"));
    }

    #[test]
    fn non_scalar_loss_is_rejected() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![2, 2]));
        let y = g.add_op("relu", "r", &[x], Attrs::new()).unwrap();
        assert!(backward(&mut g, y, &[x]).is_err());
    }

    #[test]
    fn missing_gradient_is_reported() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![2, 2]));
        // `sin` has no registered gradient.
        let y = g.add_op("sin", "s", &[x], Attrs::new()).unwrap();
        let z = g.add_op("sum_axis", "r0", &[y], Attrs::new().with_int("axis", 0)).unwrap();
        let l = g.add_op("sum_axis", "r1", &[z], Attrs::new().with_int("axis", 0)).unwrap();
        let err = backward(&mut g, l, &[x]).unwrap_err();
        assert!(err.to_string().contains("no gradient"), "{err}");
    }

    #[test]
    fn unrelated_wrt_gets_no_gradient() {
        let mut g = Graph::new();
        let (w, _logits, loss) = simple_net(&mut g);
        let unrelated = g.add_weight("unused", Shape::new(vec![3]));
        let info = backward(&mut g, loss, &[w, unrelated]).unwrap();
        assert!(info.grad(unrelated).is_none());
    }
}
