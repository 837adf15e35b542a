//! The operator registry: one [`OpDef`] per operator name.
//!
//! This plays the role of NNVM's operator registry in the paper's prototype,
//! where Tofu's TDL description sits on the operator's registry entry beside
//! the framework's kernel (§4.1). Each definition bundles shape inference,
//! the TDL description, the gradient builder used by autodiff, a flop
//! estimate for the simulator's compute model, the CPU [`Kernel`] the
//! executor runs, and a category used by coarsening, the memory planner and
//! the §4.1 coverage statistics. An operator is its entry: the executor
//! reaches every kernel through [`lookup`] and matches no names.
//!
//! A few places outside the registry still match on operator names, each
//! for a fact the entry does not carry:
//! - partitioned-graph generation (`tofu-core`'s `genplan`): TDL says which
//!   regions an operator reads, not which attributes encode a worker's
//!   extents, so `adjust_attrs` rewrites those of the backward convolutions,
//!   `slice_axis` and `pad`, `materializes_padding` names the convolutions
//!   whose gathers zero-fill their padding, and `sensitive_vars` names the
//!   splits of strided backward convolutions and pooling whose sharded
//!   kernels are inexact;
//! - `multi_fetch`, the generator's own gather and spread reduction and the
//!   one operator that reads remote tensors: the memory planner does not
//!   count its inputs as resident and the runtime assembles it from
//!   transfers, copying or folding each piece as its attributes say;
//! - the simulator's non-in-place aggregation ablation (`tofu-sim`'s
//!   `baselines`) charges every `add_n`;
//! - tests (e.g. `coarsen`'s) and the `paper` bench find nodes by
//!   operator name.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use tofu_tdl::TdlDesc;
use tofu_tensor::{Shape, Tensor};

use crate::attrs::Attrs;
use crate::graph::{Graph, NodeTags, TensorId};
use crate::Result;

pub use crate::error::GraphError;

/// Broad operator classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpCategory {
    /// One output element depends on the same-coordinate input elements.
    Elementwise,
    /// Dense linear algebra (matrix multiplication family).
    Linalg,
    /// Convolutions and pooling.
    Convolution,
    /// Axis reductions, broadcasts and normalization pieces.
    Reduction,
    /// Loss functions.
    Loss,
    /// Optimizer update rules.
    Optimizer,
    /// Contains an opaque TDL function (e.g. batched Cholesky).
    Opaque,
    /// Data-movement primitives used by partitioned graphs (§6).
    Data,
    /// Sparse-tensor operators — not describable in TDL (§4.1).
    Sparse,
}

impl OpCategory {
    /// True for the element-wise family, optimizer updates included ("almost
    /// all gradient-based optimizers are composed of only element-wise
    /// operators", §5.1): the operators coarsening coalesces, MXNet runs in
    /// place, and §4.1 counts as element-wise.
    pub fn is_elementwise(self) -> bool {
        matches!(self, OpCategory::Elementwise | OpCategory::Optimizer)
    }
}

/// Shape inference: input shapes + attrs to output shape (or a detail string).
pub type ShapeFn = fn(&[Shape], &Attrs) -> std::result::Result<Shape, String>;

/// TDL description builder; `None` when the operator cannot be described for
/// the given concrete shapes/attrs.
pub type TdlFn = fn(&[Shape], &Attrs) -> Option<TdlDesc>;

/// Flop estimate used by the simulator's compute model.
pub type FlopsFn = fn(&[Shape], &Shape, &Attrs) -> f64;

/// Gradient builder: appends backward nodes through [`GradCtx`] and returns
/// one optional gradient tensor per forward input.
pub type GradFn = fn(&mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>>;

/// A general CPU kernel: input values, node attributes and the inferred
/// output shape to the output value.
pub type KernelFn = fn(&[&Tensor], &Attrs, &Shape) -> Result<Tensor>;

/// An operator's CPU kernel: three element-wise shapes that the executor maps
/// over the operands, and one general form.
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    /// `y = f(x)` per element.
    Unary(fn(f32) -> f32),
    /// `y = f(a, b)` per element of two same-shape operands.
    Binary(fn(f32, f32) -> f32),
    /// `y = f(x, k)` per element, `k` the `"scalar"` attribute (default 0).
    Scalar(fn(f32, f32) -> f32),
    /// Any other kernel.
    General(KernelFn),
}

/// Context handed to a [`GradFn`].
pub struct GradCtx<'a> {
    graph: &'a mut Graph,
    /// Forward node inputs.
    pub inputs: Vec<TensorId>,
    /// Forward node output.
    pub output: TensorId,
    /// Gradient of the forward output.
    pub out_grad: TensorId,
    /// Forward node attributes.
    pub attrs: Attrs,
    prefix: String,
    tags: NodeTags,
    counter: usize,
}

impl<'a> GradCtx<'a> {
    /// Creates a context; used by the autodiff pass.
    pub(crate) fn new(
        graph: &'a mut Graph,
        inputs: Vec<TensorId>,
        output: TensorId,
        out_grad: TensorId,
        attrs: Attrs,
        prefix: String,
        tags: NodeTags,
    ) -> GradCtx<'a> {
        GradCtx { graph, inputs, output, out_grad, attrs, prefix, tags, counter: 0 }
    }

    /// Appends a backward node with fresh naming and backward tags.
    pub fn op(&mut self, op: &str, inputs: &[TensorId], attrs: Attrs) -> Result<TensorId> {
        let name = format!("{}/{}_{}", self.prefix, op, self.counter);
        self.counter += 1;
        self.graph.add_op_tagged(op, &name, inputs, attrs, self.tags.clone())
    }

    /// Shape of a tensor in the graph under construction.
    pub fn shape(&self, t: TensorId) -> Shape {
        self.graph.tensor(t).shape.clone()
    }
}

/// A registered operator definition.
#[derive(Clone)]
pub struct OpDef {
    /// Operator name (registry key).
    pub name: &'static str,
    /// Category for coarsening and coverage statistics.
    pub category: OpCategory,
    /// Shape inference.
    pub infer_shape: ShapeFn,
    /// TDL description, when the operator is describable.
    pub tdl: Option<TdlFn>,
    /// Gradient builder, when the operator is differentiable.
    pub gradient: Option<GradFn>,
    /// Flop estimate.
    pub flops: FlopsFn,
    /// CPU kernel; `None` only for the sparse operators, which the dense
    /// executor cannot run.
    pub kernel: Option<Kernel>,
}

impl OpDef {
    /// Runs the kernel on already-resolved input values.
    pub(crate) fn run(&self, ins: &[&Tensor], attrs: &Attrs, out_shape: &Shape) -> Result<Tensor> {
        match self.kernel {
            Some(Kernel::Unary(f)) => Ok(ins[0].map(f)),
            Some(Kernel::Binary(f)) => Ok(ins[0].zip(ins[1], f)?),
            Some(Kernel::Scalar(f)) => {
                let k = attrs.float("scalar").unwrap_or(0.0) as f32;
                Ok(ins[0].map(|x| f(x, k)))
            }
            Some(Kernel::General(f)) => f(ins, attrs, out_shape),
            None => Err(GraphError::Exec(format!("no CPU kernel for operator {:?}", self.name))),
        }
    }
}

impl std::fmt::Debug for OpDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpDef")
            .field("name", &self.name)
            .field("category", &self.category)
            .field("describable", &self.tdl.is_some())
            .field("differentiable", &self.gradient.is_some())
            .field("executable", &self.kernel.is_some())
            .finish()
    }
}

/// The built-in operators, keyed by name. Built once from the `ops` families,
/// each of which defines its operators' every facet in one place.
fn registry() -> &'static BTreeMap<&'static str, OpDef> {
    static REGISTRY: OnceLock<BTreeMap<&'static str, OpDef>> = OnceLock::new();
    REGISTRY.get_or_init(|| crate::ops::builtins().into_iter().map(|def| (def.name, def)).collect())
}

/// Looks up an operator definition by name.
pub fn lookup(op: &str) -> Result<&'static OpDef> {
    registry().get(op).ok_or_else(|| GraphError::UnknownOp(op.to_string()))
}

/// Returns every registered definition, sorted by name.
pub fn all_ops() -> Vec<&'static OpDef> {
    registry().values().collect()
}

/// Coverage statistics over the registry, reproducing the §4.1 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// Total registered operators.
    pub total: usize,
    /// Operators with a TDL description.
    pub describable: usize,
    /// Element-wise operators.
    pub elementwise: usize,
    /// Describable operators using the opaque-function primitive.
    pub opaque: usize,
    /// Describable non-element-wise operators with ≥1 reduction dimension.
    pub with_reduction: usize,
}

/// Computes [`Coverage`] by instantiating each operator's TDL description at
/// a representative shape.
pub fn coverage() -> Coverage {
    let ops = all_ops();
    let mut cov = Coverage {
        total: ops.len(),
        describable: 0,
        elementwise: 0,
        opaque: 0,
        with_reduction: 0,
    };
    for def in &ops {
        if def.tdl.is_some() {
            cov.describable += 1;
        }
        if def.category.is_elementwise() {
            cov.elementwise += 1;
        } else if def.category == OpCategory::Opaque {
            cov.opaque += 1;
        }
        if let Some(tdl) = def.tdl {
            if let Some(desc) = probe_desc(def, tdl) {
                if desc.reduce_vars().next().is_some() && !desc.is_elementwise() {
                    cov.with_reduction += 1;
                }
            }
        }
    }
    cov
}

/// Instantiates an operator's TDL description at a small representative shape
/// so that rank-generic descriptions can be inspected.
fn probe_desc(def: &OpDef, tdl: TdlFn) -> Option<TdlDesc> {
    // Try a few generic shape sets; each op accepts at least one.
    let candidates: Vec<Vec<Shape>> = vec![
        vec![Shape::new(vec![4, 4]); 4],
        vec![Shape::new(vec![4, 4]); 2],
        vec![Shape::new(vec![4, 4]); 1],
        vec![Shape::new(vec![2, 4, 8]), Shape::new(vec![4, 4, 3])],
        vec![Shape::new(vec![2, 4, 8, 8]), Shape::new(vec![4, 4, 3, 3])],
        vec![Shape::new(vec![2, 4, 8, 8])],
        vec![Shape::new(vec![2, 4, 4])],
        vec![Shape::new(vec![4, 4]), Shape::new(vec![4]), Shape::new(vec![4])],
        vec![Shape::new(vec![4, 4]), Shape::new(vec![4])],
        vec![Shape::new(vec![4, 4]), Shape::new(vec![4, 4]), Shape::new(vec![4, 4]), Shape::new(vec![4, 4])],
    ];
    for shapes in candidates {
        if (def.infer_shape)(&shapes, &Attrs::new()).is_ok() {
            if let Some(desc) = tdl(&shapes, &Attrs::new()) {
                return Some(desc);
            }
        }
    }
    // Fall back to calling the TDL builder directly with a plausible shape.
    tdl(&[Shape::new(vec![4, 4]), Shape::new(vec![4, 4])], &Attrs::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_known_and_unknown() {
        assert!(lookup("matmul").is_ok());
        assert!(lookup("definitely_not_an_op").is_err());
    }

    #[test]
    fn registry_is_well_populated() {
        let ops = all_ops();
        assert!(ops.len() >= 100, "registry has {} ops", ops.len());
        // Sorted by name.
        for pair in ops.windows(2) {
            assert!(pair[0].name <= pair[1].name);
        }
    }

    #[test]
    fn every_dense_operator_has_a_kernel() {
        for def in all_ops() {
            let sparse = def.category == OpCategory::Sparse;
            assert_eq!(def.kernel.is_none(), sparse, "{def:?}");
        }
    }

    #[test]
    fn elementwise_predicate_covers_aggregation_and_optimizer_updates() {
        let ops = ["add_n", "sgd_update", "sgd_momentum_update", "adam_update", "adagrad_update"];
        for op in ops.into_iter().chain(["relu", "add", "mul_scalar", "identity"]) {
            assert!(lookup(op).unwrap().category.is_elementwise(), "{op}");
        }
        for op in ["copy", "matmul", "softmax", "bias_add", "multi_fetch", "sparse_dot"] {
            assert!(!lookup(op).unwrap().category.is_elementwise(), "{op}");
        }
    }

    #[test]
    fn coverage_mirrors_paper_structure() {
        let cov = coverage();
        // The paper's MXNet v0.11 numbers: 139 total, 134 describable, 77
        // element-wise, 2 opaque, 11 with output reductions. Our registry is
        // calibrated to the same structure.
        assert!(cov.total >= 100);
        assert!(cov.describable >= cov.total - 10);
        assert!(cov.elementwise >= 60, "elementwise {}", cov.elementwise);
        assert_eq!(cov.opaque, 2);
        assert!(cov.with_reduction >= 11, "with_reduction {}", cov.with_reduction);
    }
}
