//! The operator registry: one [`OpDef`] per operator name.
//!
//! This plays the role of NNVM's operator registry in the paper's prototype.
//! Each definition bundles shape inference, the TDL description (§4.1), the
//! gradient builder used by autodiff, a flop estimate for the simulator's
//! compute model, and a category used by coarsening and by the §4.1 coverage
//! statistics.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use tofu_tdl::TdlDesc;
use tofu_tensor::Shape;

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
}

impl std::fmt::Debug for OpDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpDef")
            .field("name", &self.name)
            .field("category", &self.category)
            .field("describable", &self.tdl.is_some())
            .field("differentiable", &self.gradient.is_some())
            .finish()
    }
}

/// The built-in operators, keyed by name. Built once; the set is fixed,
/// because the executor matches kernels by operator name.
fn registry() -> &'static BTreeMap<&'static str, OpDef> {
    static REGISTRY: OnceLock<BTreeMap<&'static str, OpDef>> = OnceLock::new();
    REGISTRY.get_or_init(|| crate::ops::builtins().into_iter().map(|def| (def.name, def)).collect())
}

/// Looks up an operator definition by name.
pub fn lookup(op: &str) -> Result<OpDef> {
    registry().get(op).cloned().ok_or_else(|| GraphError::UnknownOp(op.to_string()))
}

/// Returns every registered definition, sorted by name.
pub fn all_ops() -> Vec<OpDef> {
    registry().values().cloned().collect()
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
        match def.category {
            OpCategory::Elementwise | OpCategory::Optimizer => cov.elementwise += 1,
            OpCategory::Opaque => cov.opaque += 1,
            _ => {}
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
pub fn probe_desc(def: &OpDef, tdl: TdlFn) -> Option<TdlDesc> {
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
