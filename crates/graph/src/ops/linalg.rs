//! Dense linear algebra operators: the twelve products and `transpose`.
//!
//! Every product is one row of `PRODUCTS`: an index form such as
//! `"ik,kj->ij"` from which one generic body each derives the operator's
//! shape inference, TDL description and gradient. `matmul` is the workhorse
//! of the RNN benchmarks; its description yields the three classic
//! strategies — row split, column split, and the inner-product split with
//! output reduction that the paper shows ICML18 misses (§7.3).
//!
//! Multi-head attention moves between the token layout `(N, D)` and the
//! head layout `(H, N, K)` with `D = H·K`. There is no reshape operator in
//! the catalogue (reshape is not expressible in TDL's one-variable-per-
//! dimension access language), so the projections themselves are head-
//! indexed: `proj_heads` contracts a token matrix against a rank-3 weight
//! `(H, D, K)` and produces the head layout directly, and `unproj_heads`
//! contracts the head layout back down to tokens. Both are clean TDL
//! reductions, so interval analysis discovers the megatron-style splits
//! without any special cases: splitting `h` of `proj_heads` splits only the
//! weight (column-parallel QKV), and the `reduce:h` strategy of
//! `unproj_heads` is exactly the row-parallel output projection with output
//! reduction.

use tofu_tdl::{builder::Idx, DescBuilder, Reducer, TdlDesc, Var};
use tofu_tensor::Transpose::{self, NN, NT, TN};
use tofu_tensor::{Shape, Tensor};

use crate::attrs::Attrs;
use crate::graph::TensorId;
use crate::ops::flops_per_elem;
use crate::registry::{FlopsFn, GradCtx, GraphError, Kernel, OpCategory, OpDef};
use crate::Result;

/// One product operator, `out = Σ A·B` over the index form `spec`: each
/// letter names one dimension, the output's letters follow `->`, and every
/// letter the output lacks is summed over.
struct Product {
    name: &'static str,
    spec: &'static str,
    /// The operator and operand order (`0`, `1` the forward operands, `2`
    /// the output's gradient) of each operand's gradient; `None` for the
    /// products that are themselves gradients.
    grads: Option<[(&'static str, [usize; 2]); 2]>,
    flops: FlopsFn,
    kernel: fn(&Tensor, &Tensor) -> Result<Tensor>,
}

/// The products. All run the one tiled GEMM, whose per-element
/// ascending-k order makes batched, sliced and sharded forms of a product
/// bit-identical.
const PRODUCTS: [Product; 12] = [
    Product {
        name: "matmul",
        spec: "ik,kj->ij",
        grads: Some([("matmul_nt", [2, 1]), ("matmul_tn", [0, 2])]),
        flops: flops_matmul,
        kernel: |a, b| Ok(a.matmul(b, NN)?),
    },
    Product {
        name: "matmul_tn",
        spec: "ki,kj->ij",
        grads: Some([("matmul_nt", [1, 2]), ("matmul", [0, 2])]),
        flops: flops_matmul,
        kernel: |a, b| Ok(a.matmul(b, TN)?),
    },
    Product {
        name: "matmul_nt",
        spec: "ik,jk->ij",
        grads: Some([("matmul", [2, 1]), ("matmul_tn", [2, 0])]),
        flops: flops_matmul,
        kernel: |a, b| Ok(a.matmul(b, NT)?),
    },
    Product {
        name: "batch_matmul",
        spec: "bik,bkj->bij",
        grads: Some([("batch_matmul_nt", [2, 1]), ("batch_matmul_tn", [0, 2])]),
        flops: |ins, out, _| 2.0 * out.volume() as f64 * ins[0].dim(2) as f64,
        kernel: |a, b| Ok(a.matmul(b, NN)?),
    },
    Product {
        name: "batch_matmul_tn",
        spec: "bki,bkj->bij",
        grads: Some([("batch_matmul_nt", [1, 2]), ("batch_matmul", [0, 2])]),
        flops: |ins, out, _| 2.0 * out.volume() as f64 * ins[0].dim(1) as f64,
        kernel: |a, b| Ok(a.matmul(b, TN)?),
    },
    Product {
        name: "batch_matmul_nt",
        spec: "bik,bjk->bij",
        grads: Some([("batch_matmul", [2, 1]), ("batch_matmul_tn", [2, 0])]),
        flops: |ins, out, _| 2.0 * out.volume() as f64 * ins[0].dim(2) as f64,
        kernel: |a, b| Ok(a.matmul(b, NT)?),
    },
    Product {
        name: "proj_heads",
        spec: "nd,hdk->hnk",
        grads: Some([("proj_heads_grad_x", [2, 1]), ("proj_heads_grad_w", [0, 2])]),
        flops: flops_proj,
        // out[h] = X · W[h]: a batched product with the rank-2 operand shared
        // by every head (packed once), so every TDL split (h, n, k, reduce:d)
        // runs unchanged.
        kernel: |x, w| Ok(x.matmul(w, NN)?),
    },
    Product {
        name: "unproj_heads",
        spec: "hnk,hkd->nd",
        grads: Some([("unproj_heads_grad_c", [2, 1]), ("unproj_heads_grad_w", [0, 2])]),
        flops: flops_proj,
        kernel: |c, w| head_sum(c, w, NN),
    },
    Product {
        name: "proj_heads_grad_x",
        spec: "hnk,hdk->nd",
        grads: None,
        flops: flops_proj,
        kernel: |d, w| head_sum(d, w, NT),
    },
    Product {
        name: "proj_heads_grad_w",
        spec: "nd,hnk->hdk",
        grads: None,
        flops: flops_proj,
        kernel: |x, d| Ok(x.matmul(d, TN)?),
    },
    Product {
        name: "unproj_heads_grad_c",
        spec: "nd,hkd->hnk",
        grads: None,
        flops: flops_proj,
        kernel: |d, w| Ok(d.matmul(w, NT)?),
    },
    Product {
        name: "unproj_heads_grad_w",
        spec: "hnk,nd->hkd",
        grads: None,
        flops: flops_proj,
        kernel: |c, d| Ok(c.matmul(d, TN)?),
    },
];

/// A spec's two operand forms and its output form.
fn forms(spec: &str) -> ([&str; 2], &str) {
    let (ins, out) = spec.split_once("->").expect("a product spec has `->`");
    let (a, b) = ins.split_once(',').expect("a product spec has two operands");
    ([a, b], out)
}

/// Where `letter` first appears among `operands`: `(operand, dim)`.
fn find(operands: [&str; 2], letter: u8) -> Option<(usize, usize)> {
    (0..2).find_map(|o| Some((o, operands[o].bytes().position(|c| c == letter)?)))
}

fn shape_product<const P: usize>(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    let Product { name, spec, .. } = PRODUCTS[P];
    let (operands, out) = forms(spec);
    if ins.len() != 2 || ins.iter().zip(operands).any(|(s, f)| s.rank() != f.len()) {
        let (r0, r1) = (operands[0].len(), operands[1].len());
        return Err(format!("{name} expects (rank-{r0}, rank-{r1}) inputs"));
    }
    for (d, letter) in operands[1].bytes().enumerate() {
        if let Some(d0) = operands[0].bytes().position(|c| c == letter) {
            if ins[0].dim(d0) != ins[1].dim(d) {
                return Err(format!(
                    "{name}: extents of `{}` differ in {} and {}",
                    letter as char, ins[0], ins[1]
                ));
            }
        }
    }
    let dims = out.bytes().map(|letter| {
        let (o, d) = find(operands, letter).expect("every output letter names an operand dim");
        ins[o].dim(d)
    });
    Ok(Shape::new(dims.collect()))
}

/// `out[output vars] = Σ_{reduce vars} A[..] · B[..]`: output vars in the
/// output's order, reduce vars in order of first appearance across the
/// operands, each named by its letter.
fn tdl_product<const P: usize>(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    let Product { name, spec, .. } = PRODUCTS[P];
    let (operands, out) = forms(spec);
    let mut b = DescBuilder::new(name, &[operands[0].len(), operands[1].len()]);
    let mut vars: [Option<Var>; 26] = [None; 26];
    for (d, letter) in out.bytes().enumerate() {
        vars[(letter - b'a') as usize] = Some(b.output_var(&out[d..=d]));
    }
    for form in operands {
        for (d, letter) in form.bytes().enumerate() {
            let var = &mut vars[(letter - b'a') as usize];
            if var.is_none() {
                *var = Some(b.reduce_var(&form[d..=d]));
            }
        }
    }
    let access = |input: usize| {
        let form = operands[input];
        let mut coords: [Idx; 3] = std::array::from_fn(|_| Idx::full());
        for (coord, letter) in coords.iter_mut().zip(form.bytes()) {
            *coord = vars[(letter - b'a') as usize].expect("every letter is declared").at();
        }
        b.input(input, &coords[..form.len()])
    };
    let body = access(0) * access(1);
    b.build_reduce(Reducer::Sum, body).ok()
}

fn grad_product<const P: usize>(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let grads = PRODUCTS[P].grads.expect("only a product with gradients registers one");
    let args = [ctx.inputs[0], ctx.inputs[1], ctx.out_grad];
    grads
        .iter()
        .map(|&(op, [x, y])| Ok(Some(ctx.op(op, &[args[x], args[y]], Attrs::new())?)))
        .collect()
}

fn kernel_product<const P: usize>(ins: &[&Tensor], _: &Attrs, _: &Shape) -> Result<Tensor> {
    (PRODUCTS[P].kernel)(ins[0], ins[1])
}

/// Product `P`'s definition, every facet from its row.
fn product_def<const P: usize>() -> OpDef {
    OpDef {
        name: PRODUCTS[P].name,
        category: OpCategory::Linalg,
        infer_shape: shape_product::<P>,
        tdl: Some(tdl_product::<P>),
        gradient: PRODUCTS[P].grads.map(|_| grad_product::<P> as _),
        flops: PRODUCTS[P].flops,
        kernel: Some(Kernel::General(kernel_product::<P>)),
    }
}

/// Slice head `h` of a rank-3 tensor down to its rank-2 matrix.
fn head2(t: &Tensor, h: usize) -> Result<Tensor> {
    let s = t.slice(0, h, h + 1)?;
    let dims = s.shape().dims()[1..].to_vec();
    Ok(s.reshape(Shape::new(dims))?)
}

/// `Σ_h A[h]·B[h]` (`t` as in the product): a per-head product, then `add`
/// in head order — accumulating heads inside the GEMM tile would change the
/// rounding.
fn head_sum(a3: &Tensor, b3: &Tensor, t: Transpose) -> Result<Tensor> {
    let heads = a3.shape().dim(0);
    let mut acc: Option<Tensor> = None;
    for h in 0..heads {
        let term = head2(a3, h)?.matmul(&head2(b3, h)?, t)?;
        acc = Some(match acc {
            None => term,
            Some(prev) => prev.add(&term)?,
        });
    }
    acc.ok_or_else(|| GraphError::Exec("head contraction over zero heads".into()))
}

// ---- transpose ---------------------------------------------------------------

fn shape_transpose(ins: &[Shape], _: &Attrs) -> std::result::Result<Shape, String> {
    if ins.len() != 1 || ins[0].rank() != 2 {
        return Err("transpose expects one rank-2 input".into());
    }
    Ok(Shape::new(vec![ins[0].dim(1), ins[0].dim(0)]))
}

fn tdl_transpose(_: &[Shape], _: &Attrs) -> Option<TdlDesc> {
    let mut b = DescBuilder::new("transpose", &[2]);
    let (i, j) = (b.output_var("i"), b.output_var("j"));
    let body = b.input(0, &[j.at(), i.at()]);
    b.build(body).ok()
}

fn grad_transpose(ctx: &mut GradCtx<'_>) -> Result<Vec<Option<TensorId>>> {
    let dx = ctx.op("transpose", &[ctx.out_grad], Attrs::new())?;
    Ok(vec![Some(dx)])
}

// ---- Flops -------------------------------------------------------------------

fn flops_matmul(ins: &[Shape], out: &Shape, _: &Attrs) -> f64 {
    // 2·M·N·K; K is whichever input dimension is not in the output.
    let k = (ins[0].volume() / out.dim(0).max(1)).max(ins[1].volume() / out.dim(1).max(1));
    2.0 * out.volume() as f64 * k as f64
}

fn flops_proj(ins: &[Shape], out: &Shape, _: &Attrs) -> f64 {
    // 2 flops per multiply-accumulate; the contracted volume is whatever the
    // inputs hold beyond the output.
    let macs = (ins[0].volume().max(1) as f64 / out.volume().max(1) as f64).max(1.0)
        * ins[1].volume() as f64;
    2.0 * macs.max(out.volume() as f64)
}

/// Returns the linear-algebra operator definitions.
pub(crate) fn defs() -> Vec<OpDef> {
    let products: [fn() -> OpDef; PRODUCTS.len()] = [
        product_def::<0>,
        product_def::<1>,
        product_def::<2>,
        product_def::<3>,
        product_def::<4>,
        product_def::<5>,
        product_def::<6>,
        product_def::<7>,
        product_def::<8>,
        product_def::<9>,
        product_def::<10>,
        product_def::<11>,
    ];
    let mut defs: Vec<OpDef> = products.iter().map(|def| def()).collect();
    defs.push(OpDef {
        name: "transpose",
        category: OpCategory::Data,
        infer_shape: shape_transpose,
        tdl: Some(tdl_transpose),
        gradient: Some(grad_transpose),
        flops: flops_per_elem,
        kernel: Some(Kernel::General(|ins, _, _| Ok(ins[0].transpose()?))),
    });
    defs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::lookup;
    use tofu_tdl::{discover_strategies, InputRequirement, OutputPartition};

    fn shape(op: &str, ins: &[&[usize]]) -> std::result::Result<Shape, String> {
        let ins: Vec<Shape> = ins.iter().map(|d| Shape::new(d.to_vec())).collect();
        (lookup(op).unwrap().infer_shape)(&ins, &Attrs::new())
    }

    fn strategies(op: &str) -> Vec<tofu_tdl::BasicStrategy> {
        let desc = (lookup(op).unwrap().tdl.unwrap())(&[], &Attrs::new()).unwrap();
        discover_strategies(&desc).unwrap()
    }

    /// Whether `a` and `b` are the same spec up to a one-to-one renaming of
    /// letters.
    fn same_up_to_renaming(a: &str, b: &str) -> bool {
        let mut map = [None::<u8>; 26];
        let mut inverse = [None::<u8>; 26];
        a.len() == b.len()
            && a.bytes().zip(b.bytes()).all(|(x, y)| {
                if !x.is_ascii_lowercase() || !y.is_ascii_lowercase() {
                    return x == y;
                }
                let (i, j) = ((x - b'a') as usize, (y - b'a') as usize);
                *map[i].get_or_insert(y) == y && *inverse[j].get_or_insert(x) == x
            })
    }

    #[test]
    fn specs_are_well_formed() {
        for p in &PRODUCTS {
            let (operands, out) = forms(p.spec);
            for form in operands.iter().chain([&out]) {
                assert!(form.bytes().all(|c| c.is_ascii_lowercase()), "{}", p.name);
                assert!(form.len() <= 3, "{}: operands have rank ≤ 3", p.name);
                for (d, c) in form.bytes().enumerate() {
                    assert!(!form[d + 1..].contains(c as char), "{}: a letter twice", p.name);
                }
            }
            for c in out.bytes() {
                assert!(find(operands, c).is_some(), "{}: an output letter unread", p.name);
            }
        }
    }

    /// For `C = Σ A·B`, `dA[a] = Σ dC[c]·B[b]` over the letters `a` lacks —
    /// the spec `"c,b->a"` — provided no letter of `A` is in neither `B` nor
    /// `C`. Each named gradient op must be that product, operands in the
    /// named order, up to a renaming of letters.
    #[test]
    fn each_gradient_is_the_product_its_spec_derives() {
        for p in PRODUCTS.iter().filter(|p| p.grads.is_some()) {
            let (operands, out) = forms(p.spec);
            let specs = [operands[0], operands[1], out];
            for (wrt, &(op, [x, y])) in p.grads.unwrap().iter().enumerate() {
                let other = 1 - wrt;
                assert!(
                    (x, y) == (other, 2) || (x, y) == (2, other),
                    "{}: d{wrt} reads the other operand and the output's gradient",
                    p.name
                );
                for c in specs[wrt].bytes() {
                    let c = c as char;
                    assert!(specs[other].contains(c) || out.contains(c), "{}: `{c}`", p.name);
                }
                let derived = format!("{},{}->{}", specs[x], specs[y], specs[wrt]);
                let named = PRODUCTS.iter().find(|q| q.name == op).unwrap().spec;
                assert!(
                    same_up_to_renaming(&derived, named),
                    "{}: d{wrt} = {derived}, but {op} is {named}",
                    p.name
                );
            }
        }
    }

    #[test]
    fn matmul_shapes() {
        assert_eq!(shape("matmul", &[&[3, 4], &[4, 5]]).unwrap(), Shape::new(vec![3, 5]));
        assert!(shape("matmul", &[&[4, 5], &[4, 5]]).is_err());
        // Aᵀ·B: (4,3)ᵀ·(4,5) = (3,5).
        assert_eq!(shape("matmul_tn", &[&[4, 3], &[4, 5]]).unwrap(), Shape::new(vec![3, 5]));
        // A·Bᵀ: (3,4)·(5,4)ᵀ = (3,5).
        assert_eq!(shape("matmul_nt", &[&[3, 4], &[5, 4]]).unwrap(), Shape::new(vec![3, 5]));
        assert!(shape("matmul", &[&[3, 4]]).is_err());
        assert!(shape("matmul", &[&[2, 3, 4], &[4, 5]]).is_err());
    }

    #[test]
    fn matmul_tdl_has_reduction_strategy() {
        let s = strategies("matmul");
        assert_eq!(s.len(), 3);
        assert!(s.iter().any(|st| matches!(st.output, OutputPartition::Reduce { .. })));
    }

    #[test]
    fn transposed_variants_have_three_strategies_each() {
        for op in ["matmul_tn", "matmul_nt"] {
            assert_eq!(strategies(op).len(), 3);
        }
    }

    #[test]
    fn batch_matmul_has_four_strategies() {
        assert_eq!(strategies("batch_matmul").len(), 4); // b, i, j, and reduce-k.
    }

    #[test]
    fn batch_matmul_transposed_variants_have_four_strategies() {
        for op in ["batch_matmul_tn", "batch_matmul_nt"] {
            let s = strategies(op);
            assert_eq!(s.len(), 4);
            assert!(s.iter().any(|st| matches!(st.output, OutputPartition::Reduce { .. })));
            assert!(s.iter().any(|st| st.id == "split:b"), "batch dim splits");
        }
    }

    #[test]
    fn batch_matmul_transposed_shapes() {
        let a: &[usize] = &[2, 4, 3];
        assert_eq!(shape("batch_matmul_tn", &[a, &[2, 4, 5]]).unwrap(), Shape::new(vec![2, 3, 5]));
        assert_eq!(shape("batch_matmul_nt", &[a, &[2, 6, 3]]).unwrap(), Shape::new(vec![2, 4, 6]));
        assert!(shape("batch_matmul_nt", &[a, &[2, 6, 4]]).is_err());
        assert!(shape("batch_matmul_tn", &[a, &[3, 4, 5]]).is_err());
    }

    #[test]
    fn head_projection_shapes_mirror_forward_operands() {
        let (n, d, h, k) = (16, 32, 4, 8);
        let (x, wq, dout): (&[usize], &[usize], &[usize]) = (&[n, d], &[h, d, k], &[h, n, k]);
        assert_eq!(shape("proj_heads", &[x, wq]).unwrap().dims(), dout);
        assert!(shape("proj_heads", &[x, &[h, d - 1, k]]).is_err());
        assert_eq!(shape("proj_heads_grad_x", &[dout, wq]).unwrap().dims(), x);
        assert_eq!(shape("proj_heads_grad_w", &[x, dout]).unwrap().dims(), wq);
        let wo: &[usize] = &[h, k, d];
        assert_eq!(shape("unproj_heads", &[dout, wo]).unwrap().dims(), x);
        assert_eq!(shape("unproj_heads_grad_c", &[x, wo]).unwrap().dims(), dout);
        assert_eq!(shape("unproj_heads_grad_w", &[dout, x]).unwrap().dims(), wo);
    }

    #[test]
    fn proj_heads_head_split_splits_only_the_weight() {
        let s = strategies("proj_heads");
        // h, n, k output splits plus reduce:d.
        assert_eq!(s.len(), 4);
        let head = s.iter().find(|st| st.id == "split:h").unwrap();
        assert_eq!(head.inputs[0], InputRequirement::Replicated, "X is replicated");
        assert!(matches!(head.inputs[1], InputRequirement::Split { dim: 0, .. }));
    }

    #[test]
    fn unproj_heads_has_row_parallel_reduction_over_heads() {
        let s = strategies("unproj_heads");
        // n, d splits plus reduce:h and reduce:k.
        assert_eq!(s.len(), 4);
        let red_h = s.iter().find(|st| st.id == "reduce:h").unwrap();
        assert!(matches!(red_h.output, OutputPartition::Reduce { .. }));
        assert!(matches!(red_h.inputs[0], InputRequirement::Split { dim: 0, .. }));
        assert!(matches!(red_h.inputs[1], InputRequirement::Split { dim: 0, .. }));
    }

    #[test]
    fn flops_counts_macs_twice() {
        let ins = [Shape::new(vec![3, 4]), Shape::new(vec![4, 5])];
        let out = Shape::new(vec![3, 5]);
        assert_eq!(flops_matmul(&ins, &out, &Attrs::new()), 2.0 * 3.0 * 4.0 * 5.0);
    }
}
