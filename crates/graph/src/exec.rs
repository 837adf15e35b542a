//! CPU reference executor.
//!
//! Executes a graph node-by-node with the bit-reproducible kernels from
//! `tofu-tensor`. Its job is validation: the cross-crate tests run the
//! original graph and the Tofu-partitioned graph on the same inputs and
//! assert the results match — the correctness claim behind "the same program
//! written for a single device can also be run across devices without
//! changes" (§2).

use std::collections::BTreeMap;

use tofu_tensor::{Conv1dParams, Conv2dParams, PoolKind, PoolParams, ReduceKind, Shape, Tensor};

use crate::attrs::Attrs;
use crate::graph::{Graph, NodeId, TensorId, TensorKind};
use crate::ops::data::decode_multi_fetch;
use crate::ops::elementwise::{BINARY_KERNELS, SCALAR_KERNELS, UNARY_KERNELS};
use crate::registry::GraphError;
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
    let out = dispatch(&node.op, inputs, &node.attrs, &g.tensor(node.output).shape)
        .map_err(|e| GraphError::Exec(format!("node {:?} (op {}): {e}", node.name, node.op)))?;
    if out.shape() != &g.tensor(node.output).shape {
        return Err(GraphError::Exec(format!(
            "node {:?} produced shape {} but {} was inferred",
            node.name,
            out.shape(),
            g.tensor(node.output).shape
        )));
    }
    Ok(out)
}

fn conv1d_params(attrs: &Attrs) -> Conv1dParams {
    Conv1dParams {
        stride: attrs.int_or("stride", 1).max(1) as usize,
        pad: attrs.int_or("pad", 0).max(0) as usize,
    }
}

fn conv2d_params(attrs: &Attrs) -> Conv2dParams {
    Conv2dParams {
        stride: attrs.int_or("stride", 1).max(1) as usize,
        pad: attrs.int_or("pad", 0).max(0) as usize,
    }
}

fn pool_params(attrs: &Attrs) -> PoolParams {
    let window = attrs.int_or("window", 2).max(1) as usize;
    PoolParams {
        kind: if attrs.str("mode") == Some("avg") { PoolKind::Avg } else { PoolKind::Max },
        window,
        stride: attrs.int_or("stride", window as i64).max(1) as usize,
    }
}

/// Lifts a rank-3 conv1d operand to rank-4 (height 1) so the conv2d kernels
/// can serve both.
fn lift_1d(t: &Tensor) -> Result<Tensor> {
    let d = t.shape().dims();
    Ok(t.reshape(Shape::new(vec![d[0], d[1], 1, d[2]]))?)
}

fn drop_h(t: &Tensor) -> Result<Tensor> {
    let d = t.shape().dims();
    Ok(t.reshape(Shape::new(vec![d[0], d[1], d[3]]))?)
}

/// Layer-norm variance epsilon — fixed, so forward/backward kernels agree.
const LN_EPS: f32 = 1e-5;

/// Normalized axis of the softmax/layer-norm family: `axis` attr, defaulting
/// to the last dimension.
fn norm_axis(attrs: &Attrs, rank: usize) -> usize {
    attrs.int_or("axis", rank as i64 - 1).max(0) as usize
}

/// Slice head `h` of a rank-3 tensor down to its rank-2 matrix.
fn head2(t: &Tensor, h: usize) -> Result<Tensor> {
    let s = t.slice(0, h, h + 1)?;
    let dims = s.shape().dims()[1..].to_vec();
    Ok(s.reshape(Shape::new(dims))?)
}

/// `Σ_h f(A[h], B[h])` — the head-contraction shared by `unproj_heads` and
/// `proj_heads_grad_x`.
fn head_sum(
    a3: &Tensor,
    b3: &Tensor,
    f: impl Fn(&Tensor, &Tensor) -> Result<Tensor>,
) -> Result<Tensor> {
    let heads = a3.shape().dim(0);
    let mut acc: Option<Tensor> = None;
    for h in 0..heads {
        let term = f(&head2(a3, h)?, &head2(b3, h)?)?;
        acc = Some(match acc {
            None => term,
            Some(prev) => prev.add(&term)?,
        });
    }
    acc.ok_or_else(|| GraphError::Exec("head contraction over zero heads".into()))
}

fn dispatch(op: &str, ins: &[&Tensor], attrs: &Attrs, out_shape: &Shape) -> Result<Tensor> {
    // Element-wise families first.
    if let Some(&(_, f)) = UNARY_KERNELS.iter().find(|(n, _)| *n == op) {
        return Ok(ins[0].map(f));
    }
    if let Some(&(_, f)) = BINARY_KERNELS.iter().find(|(n, _)| *n == op) {
        return Ok(ins[0].zip(ins[1], f)?);
    }
    if let Some(&(_, f)) = SCALAR_KERNELS.iter().find(|(n, _)| *n == op) {
        let k = attrs.float("scalar").unwrap_or(0.0) as f32;
        return Ok(ins[0].map(|x| f(x, k)));
    }
    match op {
        "identity" | "copy" => Ok(ins[0].clone()),
        "add_n" => {
            let mut acc = ins[0].clone();
            for t in &ins[1..] {
                acc = acc.add(t)?;
            }
            Ok(acc)
        }
        "matmul" => Ok(ins[0].matmul(ins[1])?),
        "matmul_tn" => Ok(ins[0].matmul_tn(ins[1])?),
        "matmul_nt" => Ok(ins[0].matmul_nt(ins[1])?),
        "transpose" => Ok(ins[0].transpose()?),
        // All six variants run the one tiled GEMM, whose per-element
        // ascending-k order makes batched, sliced and sharded forms of a
        // product bit-identical.
        "batch_matmul" => Ok(ins[0].matmul_b(ins[1])?),
        "batch_matmul_tn" => Ok(ins[0].matmul_b_tn(ins[1])?),
        "batch_matmul_nt" => Ok(ins[0].matmul_b_nt(ins[1])?),
        // The head projections are batched products with one rank-2 operand
        // shared by every head (packed once), so every TDL split (h, n, k,
        // reduce:d) runs unchanged.
        // out[h] = X · W[h].
        "proj_heads" => Ok(ins[0].matmul_b(ins[1])?),
        // out = Σ_h C[h] · W[h]: per-head product, then `add` in head order —
        // accumulating heads inside the tile would change the rounding.
        "unproj_heads" => head_sum(ins[0], ins[1], |c, w| Ok(c.matmul(w)?)),
        // dX = Σ_h dO[h] · W[h]ᵀ.
        "proj_heads_grad_x" => head_sum(ins[0], ins[1], |d, w| Ok(d.matmul_nt(w)?)),
        // dW[h] = Xᵀ · dO[h].
        "proj_heads_grad_w" => Ok(ins[0].matmul_b_tn(ins[1])?),
        // dC[h] = dY · W[h]ᵀ.
        "unproj_heads_grad_c" => Ok(ins[0].matmul_b_nt(ins[1])?),
        // dW[h] = C[h]ᵀ · dY.
        "unproj_heads_grad_w" => Ok(ins[0].matmul_b_tn(ins[1])?),
        "conv1d" => Ok(ins[0].conv1d(ins[1], conv1d_params(attrs))?),
        "conv1d_bwd_data" => {
            let p = conv1d_params(attrs);
            let og = lift_1d(ins[0])?;
            let f = {
                let d = ins[1].shape().dims();
                ins[1].reshape(Shape::new(vec![d[0], d[1], 1, d[2]]))?
            };
            let data_shape = Shape::new(vec![
                out_shape.dim(0),
                out_shape.dim(1),
                1,
                out_shape.dim(2),
            ]);
            let g = Tensor::conv2d_backward_data(
                &og,
                &f,
                &data_shape,
                Conv2dParams { stride: p.stride, pad: p.pad },
            )?;
            drop_h(&g)
        }
        "conv1d_bwd_filter" => {
            let p = conv1d_params(attrs);
            let og = lift_1d(ins[0])?;
            let data = lift_1d(ins[1])?;
            let fshape =
                Shape::new(vec![out_shape.dim(0), out_shape.dim(1), 1, out_shape.dim(2)]);
            let g = Tensor::conv2d_backward_filter(
                &og,
                &data,
                &fshape,
                Conv2dParams { stride: p.stride, pad: p.pad },
            )?;
            drop_h(&g)
        }
        "conv2d" => Ok(ins[0].conv2d(ins[1], conv2d_params(attrs))?),
        "conv2d_bwd_data" => {
            Ok(Tensor::conv2d_backward_data(ins[0], ins[1], out_shape, conv2d_params(attrs))?)
        }
        "conv2d_bwd_filter" => {
            Ok(Tensor::conv2d_backward_filter(ins[0], ins[1], out_shape, conv2d_params(attrs))?)
        }
        "pool2d" => Ok(ins[0].pool2d(pool_params(attrs))?),
        "pool2d_grad" => pool2d_grad(ins[0], ins[1], pool_params(attrs)),
        "global_avg_pool" => Ok(ins[0].global_avg_pool()?),
        "gap_grad" => {
            // dIn[b, c, h, w] = dOut[b, c] / (H·W).
            let (og, data) = (ins[0], ins[1]);
            let (h, w) = (data.shape().dim(2), data.shape().dim(3));
            let norm = (h * w) as f32;
            let mut out = Tensor::zeros(data.shape().clone());
            for (flat, idx) in data.shape().clone().indices().enumerate() {
                out.data_mut()[flat] = og.at(&[idx[0], idx[1]]) / norm;
            }
            Ok(out)
        }
        "bias_add" => {
            Ok(ins[0].broadcast_add(ins[1], attrs.int_or("axis", 1) as usize)?)
        }
        "mul_bcast" => {
            let axis = attrs.int_or("axis", 1) as usize;
            let extent = ins[0].shape().dim(axis);
            let inner: usize = ins[0].shape().dims()[axis + 1..].iter().product();
            let mut out = ins[0].clone();
            for (flat, v) in out.data_mut().iter_mut().enumerate() {
                *v *= ins[1].data()[(flat / inner) % extent];
            }
            Ok(out)
        }
        "reduce_to_axis" => reduce_all_but_axis(ins[0], attrs.int_or("axis", 1) as usize),
        "mul_reduce" => {
            let prod = ins[0].mul(ins[1])?;
            reduce_all_but_axis(&prod, attrs.int_or("axis", 1) as usize)
        }
        "sum_axis" => Ok(ins[0].reduce_axis(attrs.int_or("axis", 1) as usize, ReduceKind::Sum)?),
        "max_axis" => Ok(ins[0].reduce_axis(attrs.int_or("axis", 1) as usize, ReduceKind::Max)?),
        "min_axis" => Ok(ins[0].reduce_axis(attrs.int_or("axis", 1) as usize, ReduceKind::Min)?),
        "prod_axis" => Ok(ins[0].reduce_axis(attrs.int_or("axis", 1) as usize, ReduceKind::Prod)?),
        "softmax" => {
            let axis = norm_axis(attrs, ins[0].shape().rank());
            Ok(ins[0].softmax_axis(axis)?)
        }
        "softmax_grad" => {
            let axis = norm_axis(attrs, ins[0].shape().rank());
            Ok(ins[0].softmax_grad_axis(ins[1], axis)?)
        }
        "layer_norm" => {
            let axis = norm_axis(attrs, ins[0].shape().rank());
            Ok(ins[0].layer_norm_axis(ins[1], ins[2], axis, LN_EPS)?)
        }
        "layer_norm_xhat" => {
            let axis = norm_axis(attrs, ins[0].shape().rank());
            Ok(ins[0].layer_norm_xhat_axis(axis, LN_EPS)?)
        }
        "layer_norm_x_grad" => {
            let axis = norm_axis(attrs, ins[0].shape().rank());
            Ok(ins[0].layer_norm_x_grad_axis(ins[1], ins[2], axis, LN_EPS)?)
        }
        "sum_all" => Ok(Tensor::scalar(ins[0].sum_all())),
        "bcast_like" => Ok(Tensor::full(ins[1].shape().clone(), ins[0].data()[0])),
        "softmax_ce" => {
            // Summed (not mean) cross-entropy so that batch-split partial
            // losses combine exactly by addition under output reduction.
            let labels: Vec<usize> = ins[1].data().iter().map(|&l| l as usize).collect();
            let mean = ins[0].softmax_cross_entropy(&labels)?;
            Ok(Tensor::scalar(mean * ins[0].shape().dim(0) as f32))
        }
        "softmax_ce_grad" => {
            // softmax(logits) - onehot(labels); gradient of the *summed*
            // cross-entropy (see "softmax_ce").
            let probs = ins[0].softmax()?;
            let c = probs.shape().dim(1);
            let mut out = probs;
            for (row, &label) in ins[1].data().iter().enumerate() {
                let label = label as usize;
                if label < c {
                    out.data_mut()[row * c + label] -= 1.0;
                }
            }
            Ok(out)
        }
        "scale_shift" => {
            let axis = attrs.int_or("axis", 1) as usize;
            let extent = ins[0].shape().dim(axis);
            let inner: usize = ins[0].shape().dims()[axis + 1..].iter().product();
            let mut out = ins[0].clone();
            for (flat, v) in out.data_mut().iter_mut().enumerate() {
                let c = (flat / inner) % extent;
                *v = *v * ins[1].data()[c] + ins[2].data()[c];
            }
            Ok(out)
        }
        "slice_axis" => {
            let axis = attrs.int_or("axis", 0) as usize;
            let begin = attrs.int_or("begin", 0) as usize;
            let end = attrs.int_or("end", ins[0].shape().dim(axis) as i64) as usize;
            Ok(ins[0].slice(axis, begin, end)?)
        }
        "concat" => Ok(Tensor::concat(ins, attrs.int_or("axis", 0) as usize)?),
        "pad" => {
            let axis = attrs.int_or("axis", 0) as usize;
            let before = attrs.int_or("before", 0) as usize;
            let after = attrs.int_or("after", 0) as usize;
            let mut parts = Vec::new();
            if before > 0 {
                parts.push(Tensor::zeros(ins[0].shape().with_dim(axis, before)?));
            }
            parts.push(ins[0].clone());
            if after > 0 {
                parts.push(Tensor::zeros(ins[0].shape().with_dim(axis, after)?));
            }
            Ok(Tensor::concat(&parts, axis)?)
        }
        "flip" => {
            let axis = attrs.int_or("axis", 0) as usize;
            let n = ins[0].shape().dim(axis);
            let mut parts = Vec::with_capacity(n);
            for i in (0..n).rev() {
                parts.push(ins[0].slice(axis, i, i + 1)?);
            }
            Ok(Tensor::concat(&parts, axis)?)
        }
        "repeat" => {
            let axis = attrs.int_or("axis", 0) as usize;
            let k = attrs.int_or("repeats", 2).max(1) as usize;
            let n = ins[0].shape().dim(axis);
            let mut parts = Vec::with_capacity(n * k);
            for i in 0..n {
                let s = ins[0].slice(axis, i, i + 1)?;
                for _ in 0..k {
                    parts.push(s.clone());
                }
            }
            Ok(Tensor::concat(&parts, axis)?)
        }
        "tile" => {
            let axis = attrs.int_or("axis", 0) as usize;
            let k = attrs.int_or("repeats", 2).max(1) as usize;
            let parts = vec![ins[0].clone(); k];
            Ok(Tensor::concat(&parts, axis)?)
        }
        "sgd_update" => {
            let lr = attrs.float("lr").unwrap_or(0.01) as f32;
            Ok(ins[0].zip(ins[1], |w, g| w - lr * g)?)
        }
        "sgd_momentum_update" | "adagrad_update" => {
            let lr = attrs.float("lr").unwrap_or(0.01) as f32;
            Ok(ins[0].zip(ins[1], |w, g| w - lr * g)?)
        }
        "adam_update" => {
            // Simplified Adam step: the history tensors ride along as inputs
            // 2 and 3 but the update is computed from fresh moments.
            let lr = attrs.float("lr").unwrap_or(0.001) as f32;
            let eps = 1e-8f32;
            Ok(ins[0].zip(ins[1], move |w, g| w - lr * g / (g.abs() + eps))?)
        }
        "batch_cholesky" => batch_cholesky(ins[0]),
        "batch_inverse" => batch_inverse(ins[0]),
        "cholesky" => {
            let d = ins[0].shape().dims();
            let lifted = ins[0].reshape(Shape::new(vec![1, d[0], d[1]]))?;
            let out = batch_cholesky(&lifted)?;
            Ok(out.reshape(ins[0].shape().clone())?)
        }
        "multi_fetch" => multi_fetch(ins, attrs),
        other => Err(GraphError::Exec(format!("no CPU kernel for operator {other:?}"))),
    }
}

/// The fused remote-gather kernel of §6: assembles an output region from
/// pieces of several source tensors in one launch, zero-filling anything not
/// covered (which is how partitioned convolutions materialize padding).
fn multi_fetch(ins: &[&Tensor], attrs: &Attrs) -> Result<Tensor> {
    let (out_shape, pieces) =
        decode_multi_fetch(ins.iter().map(|t| t.shape()), attrs).map_err(GraphError::Exec)?;
    let mut out = Tensor::zeros(out_shape);
    for (src, p) in ins.iter().zip(&pieces) {
        out.copy_block(src, p.src_begin, p.dst_begin, p.len)?;
    }
    Ok(out)
}

/// Sums a tensor over every axis except `axis`, yielding a rank-1 tensor.
fn reduce_all_but_axis(t: &Tensor, axis: usize) -> Result<Tensor> {
    let mut current = t.clone();
    let mut current_axis = axis;
    while current.shape().rank() > 1 {
        let victim = if current_axis == 0 { 1 } else { 0 };
        current = current.reduce_axis(victim, ReduceKind::Sum)?;
        if victim < current_axis {
            current_axis -= 1;
        }
    }
    Ok(current)
}

/// Max-pool gradient routes to the window argmax; avg-pool distributes
/// equally.
fn pool2d_grad(out_grad: &Tensor, data: &Tensor, p: PoolParams) -> Result<Tensor> {
    let (b, c, _h, _w) = (
        data.shape().dim(0),
        data.shape().dim(1),
        data.shape().dim(2),
        data.shape().dim(3),
    );
    let (oh, ow) = (out_grad.shape().dim(2), out_grad.shape().dim(3));
    let mut grad = Tensor::zeros(data.shape().clone());
    for ib in 0..b {
        for ic in 0..c {
            for iy in 0..oh {
                for ix in 0..ow {
                    let g = out_grad.at(&[ib, ic, iy, ix]);
                    match p.kind {
                        PoolKind::Max => {
                            let (mut best, mut best_idx) = (f32::NEG_INFINITY, (0, 0));
                            for dy in 0..p.window {
                                for dx in 0..p.window {
                                    let v = data
                                        .at(&[ib, ic, iy * p.stride + dy, ix * p.stride + dx]);
                                    if v > best {
                                        best = v;
                                        best_idx = (iy * p.stride + dy, ix * p.stride + dx);
                                    }
                                }
                            }
                            let idx = [ib, ic, best_idx.0, best_idx.1];
                            let v = grad.at(&idx) + g;
                            grad.set(&idx, v);
                        }
                        PoolKind::Avg => {
                            let share = g / (p.window * p.window) as f32;
                            for dy in 0..p.window {
                                for dx in 0..p.window {
                                    let idx =
                                        [ib, ic, iy * p.stride + dy, ix * p.stride + dx];
                                    let v = grad.at(&idx) + share;
                                    grad.set(&idx, v);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(grad)
}

/// Batched lower-triangular Cholesky factorization.
fn batch_cholesky(t: &Tensor) -> Result<Tensor> {
    let (b, n) = (t.shape().dim(0), t.shape().dim(1));
    let mut out = Tensor::zeros(t.shape().clone());
    for ib in 0..b {
        for i in 0..n {
            for j in 0..=i {
                let mut sum = t.at(&[ib, i, j]);
                for k in 0..j {
                    sum -= out.at(&[ib, i, k]) * out.at(&[ib, j, k]);
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(GraphError::Exec(format!(
                            "matrix {ib} is not positive definite (pivot {sum})"
                        )));
                    }
                    out.set(&[ib, i, j], sum.sqrt());
                } else {
                    out.set(&[ib, i, j], sum / out.at(&[ib, j, j]));
                }
            }
        }
    }
    Ok(out)
}

/// Batched Gauss-Jordan matrix inverse.
fn batch_inverse(t: &Tensor) -> Result<Tensor> {
    let (b, n) = (t.shape().dim(0), t.shape().dim(1));
    let mut out = Tensor::zeros(t.shape().clone());
    for ib in 0..b {
        // Augmented [A | I] elimination.
        let mut a = vec![vec![0.0f32; 2 * n]; n];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().take(n).enumerate() {
                *v = t.at(&[ib, i, j]);
            }
            row[n + i] = 1.0;
        }
        for col in 0..n {
            // Partial pivot.
            let pivot_row = (col..n)
                .max_by(|&r1, &r2| a[r1][col].abs().partial_cmp(&a[r2][col].abs()).unwrap())
                .unwrap();
            if a[pivot_row][col].abs() < 1e-12 {
                return Err(GraphError::Exec(format!("matrix {ib} is singular")));
            }
            a.swap(col, pivot_row);
            let pivot = a[col][col];
            for v in a[col].iter_mut() {
                *v /= pivot;
            }
            let col_vals = a[col].clone();
            for (row, r) in a.iter_mut().enumerate() {
                if row != col {
                    let factor = r[col];
                    if factor != 0.0 {
                        for (v, cv) in r.iter_mut().zip(&col_vals) {
                            *v -= factor * cv;
                        }
                    }
                }
            }
        }
        for (i, row) in a.iter().enumerate() {
            for j in 0..n {
                out.set(&[ib, i, j], row[n + j]);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

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
    fn conv1d_bwd_matches_finite_difference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let dshape = Shape::new(vec![2, 2, 6]);
        let fshape = Shape::new(vec![2, 3, 2]);
        let mk = |shape: &Shape, rng: &mut StdRng| {
            Tensor::from_vec(
                shape.clone(),
                (0..shape.volume()).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            )
            .unwrap()
        };
        let data = mk(&dshape, &mut rng);
        let filt = mk(&fshape, &mut rng);
        let fwd = data.conv1d(&filt, Conv1dParams::default()).unwrap();
        let og = Tensor::full(fwd.shape().clone(), 1.0);

        let gd = run_single(
            "conv1d_bwd_data",
            &[og.shape().clone(), fshape.clone()],
            vec![og.clone(), filt.clone()],
            Attrs::new().with_int("in_x", 6),
        )
        .unwrap();
        let gf = run_single(
            "conv1d_bwd_filter",
            &[og.shape().clone(), dshape.clone()],
            vec![og, data.clone()],
            Attrs::new().with_int("dx", 2),
        )
        .unwrap();

        let eps = 1e-2f32;
        for probe in [0usize, 5, 11] {
            let mut dp = data.clone();
            dp.data_mut()[probe] += eps;
            let mut dm = data.clone();
            dm.data_mut()[probe] -= eps;
            let fd = (dp.conv1d(&filt, Conv1dParams::default()).unwrap().sum_all()
                - dm.conv1d(&filt, Conv1dParams::default()).unwrap().sum_all())
                / (2.0 * eps);
            assert!((fd - gd.data()[probe]).abs() < 1e-2);

            let mut fp = filt.clone();
            fp.data_mut()[probe] += eps;
            let mut fm = filt.clone();
            fm.data_mut()[probe] -= eps;
            let fd = (data.conv1d(&fp, Conv1dParams::default()).unwrap().sum_all()
                - data.conv1d(&fm, Conv1dParams::default()).unwrap().sum_all())
                / (2.0 * eps);
            assert!((fd - gf.data()[probe]).abs() < 1e-2);
        }
    }

    #[test]
    fn pool_max_grad_routes_to_argmax() {
        let data =
            Tensor::from_vec(Shape::new(vec![1, 1, 2, 2]), vec![1., 5., 3., 2.]).unwrap();
        let og = Tensor::from_vec(Shape::new(vec![1, 1, 1, 1]), vec![10.0]).unwrap();
        let g = pool2d_grad(&og, &data, PoolParams { kind: PoolKind::Max, window: 2, stride: 2 })
            .unwrap();
        assert_eq!(g.data(), &[0., 10., 0., 0.]);
    }

    #[test]
    fn pool_avg_grad_distributes() {
        let data = Tensor::full(Shape::new(vec![1, 1, 2, 2]), 1.0);
        let og = Tensor::from_vec(Shape::new(vec![1, 1, 1, 1]), vec![8.0]).unwrap();
        let g = pool2d_grad(&og, &data, PoolParams { kind: PoolKind::Avg, window: 2, stride: 2 })
            .unwrap();
        assert_eq!(g.data(), &[2.0; 4]);
    }

    #[test]
    fn cholesky_reconstructs_input() {
        // A = L·Lᵀ for a positive-definite A.
        let a = Tensor::from_vec(
            Shape::new(vec![1, 2, 2]),
            vec![4., 2., 2., 3.],
        )
        .unwrap();
        let l = batch_cholesky(&a).unwrap();
        // Reconstruct.
        let l0 = l.slice(0, 0, 1).unwrap().reshape(Shape::new(vec![2, 2])).unwrap();
        let rec = l0.matmul_nt(&l0).unwrap();
        assert!(rec.allclose(&a.reshape(Shape::new(vec![2, 2])).unwrap(), 1e-5));
    }

    #[test]
    fn cholesky_rejects_non_positive_definite() {
        let a = Tensor::from_vec(Shape::new(vec![1, 2, 2]), vec![0., 0., 0., 0.]).unwrap();
        assert!(batch_cholesky(&a).is_err());
    }

    #[test]
    fn inverse_times_input_is_identity() {
        let a = Tensor::from_vec(
            Shape::new(vec![1, 2, 2]),
            vec![4., 7., 2., 6.],
        )
        .unwrap();
        let inv = batch_inverse(&a).unwrap();
        let a0 = a.reshape(Shape::new(vec![2, 2])).unwrap();
        let i0 = inv.reshape(Shape::new(vec![2, 2])).unwrap();
        let prod = a0.matmul(&i0).unwrap();
        let eye = Tensor::from_vec(Shape::new(vec![2, 2]), vec![1., 0., 0., 1.]).unwrap();
        assert!(prod.allclose(&eye, 1e-4));
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = Tensor::from_vec(Shape::new(vec![1, 2, 2]), vec![1., 2., 2., 4.]).unwrap();
        assert!(batch_inverse(&a).is_err());
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
        // `sparse_dot` is registered but shape inference rejects it; call
        // dispatch directly to exercise the kernel-missing path.
        let x = Tensor::arange(2);
        let err = dispatch("sparse_dot", &[&x], &Attrs::new(), x.shape()).unwrap_err();
        assert!(err.to_string().contains("no CPU kernel"));
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
