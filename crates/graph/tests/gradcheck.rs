//! Finite-difference gradient-check oracle over the operator registry.
//!
//! For every differentiable builtin op this builds the graph
//! `loss = sum_all(op(inputs) ⊙ r)` with a fixed random cotangent `r`,
//! differentiates it with `autodiff::backward`, and compares the analytic
//! gradient of every input element against a central finite difference
//! `(loss(x+ε) − loss(x−ε)) / 2ε`. The final test asserts *coverage*: any op
//! registered with a gradient and no probe here fails the suite, so a future
//! differentiable op cannot land unchecked.
//!
//! Numerics: ε = 1e-2 balances f32 round-off (∝ 1/ε) against truncation
//! (∝ ε²); kinked ops (relu, max-like) get inputs bounded away from the kink
//! by more than ε, and log/div get denominators bounded away from zero. The
//! acceptance bound `|fd − an| ≤ 1e-3 + 2e-2·max(|fd|,|an|)` leaves an order
//! of magnitude of headroom over the observed worst case.

use std::collections::BTreeSet;

use proptest::prelude::*;
use tofu_graph::{autodiff, registry, Attrs, Executor, Graph, TensorId};
use tofu_tensor::{Shape, Tensor};

const EPS: f32 = 1e-2;

/// How to synthesize one input tensor.
#[derive(Clone, Copy, Debug)]
enum Feed {
    /// Uniform in ±0.4: fine for smooth ops.
    Smooth,
    /// |x| ≥ 0.15 > ε: keeps relu (and any max) away from its kink.
    AwayFromZero,
    /// x ≥ 0.5: keeps log arguments and divisors well-conditioned.
    Positive,
    /// Integer class labels `i % 3` (never differentiated).
    Labels,
    /// Values spread ≥0.15 apart (distinct residues mod 13, small jitter):
    /// keeps every layer-norm row's standard deviation well away from zero,
    /// where the op's higher derivatives blow up and finite differences
    /// leave the linear regime.
    Spread,
}

fn feed_tensor(style: Feed, shape: &Shape, seed: u64) -> Tensor {
    let base = Tensor::random(shape.clone(), seed, 0.4);
    let data: Vec<f32> = match style {
        Feed::Smooth => return base,
        Feed::AwayFromZero => {
            base.data().iter().map(|&x| if x >= 0.0 { x + 0.15 } else { x - 0.15 }).collect()
        }
        Feed::Positive => base.data().iter().map(|&x| x.abs() + 0.5).collect(),
        Feed::Labels => (0..shape.volume()).map(|i| (i % 3) as f32).collect(),
        Feed::Spread => base
            .data()
            .iter()
            .enumerate()
            .map(|(i, &x)| ((i * 7) % 13) as f32 * 0.25 - 1.5 + x * 0.125)
            .collect(),
    };
    Tensor::from_vec(shape.clone(), data).unwrap()
}

/// One gradient-check case: an op, concrete input shapes, attributes, a feed
/// style per input and the subset of inputs whose gradient is verified.
struct Probe {
    op: &'static str,
    shapes: Vec<Vec<usize>>,
    attrs: Attrs,
    feeds: Vec<Feed>,
    diff: Vec<usize>,
    seed: u64,
    eps: f32,
}

fn probe(op: &'static str, shapes: &[&[usize]], attrs: Attrs, feeds: &[Feed], diff: &[usize]) -> Probe {
    Probe {
        op,
        shapes: shapes.iter().map(|s| s.to_vec()).collect(),
        attrs,
        feeds: feeds.to_vec(),
        diff: diff.to_vec(),
        seed: 0,
        eps: EPS,
    }
}

/// All smooth inputs, all differentiated.
fn smooth(op: &'static str, shapes: &[&[usize]]) -> Probe {
    let feeds = vec![Feed::Smooth; shapes.len()];
    let diff: Vec<usize> = (0..shapes.len()).collect();
    probe(op, shapes, Attrs::new(), &feeds, &diff)
}

/// Layer norm divides by the per-row standard deviation, so its higher
/// derivatives grow as rows flatten: a spread feed keeps σ bounded below and
/// a smaller ε keeps the central difference in the linear regime.
fn layer_norm_probe(dims: &[usize], axis: i64, seed: u64) -> Probe {
    let param = vec![dims[axis as usize]];
    let mut p = probe(
        "layer_norm",
        &[dims, &param, &param],
        Attrs::new().with_int("axis", axis),
        &[Feed::Spread, Feed::Smooth, Feed::Smooth],
        &[0, 1, 2],
    );
    p.seed = seed;
    p.eps = 1e-3;
    p
}

fn close(fd: f32, an: f32) -> bool {
    (fd - an).abs() <= 1e-3 + 2e-2 * fd.abs().max(an.abs())
}

fn eval_loss(g: &Graph, feeds: &[(TensorId, Tensor)], loss: TensorId) -> f32 {
    let mut ex = Executor::new();
    for (t, v) in feeds {
        ex.feed(*t, v.clone());
    }
    ex.run(g).unwrap()[&loss].data()[0]
}

/// Builds `loss = sum_all(op(inputs) ⊙ r)`, differentiates, and checks every
/// element of every `diff` input against a central difference.
fn check_probe(p: &Probe) {
    let mut g = Graph::new();
    let ins: Vec<TensorId> = p
        .shapes
        .iter()
        .enumerate()
        .map(|(i, s)| g.add_input(&format!("in{i}"), Shape::new(s.clone())))
        .collect();
    let y = g
        .add_op(p.op, "y", &ins, p.attrs.clone())
        .unwrap_or_else(|e| panic!("{}: failed to build: {e}", p.op));
    let r = g.add_input("r", g.tensor(y).shape.clone());
    let yr = g.add_op("mul", "yr", &[y, r], Attrs::new()).unwrap();
    let loss = g.add_op("sum_all", "loss", &[yr], Attrs::new()).unwrap();
    let wrt: Vec<TensorId> = p.diff.iter().map(|&i| ins[i]).collect();
    let info = autodiff::backward(&mut g, loss, &wrt)
        .unwrap_or_else(|e| panic!("{}: backward failed: {e}", p.op));

    let mut feeds: Vec<(TensorId, Tensor)> = ins
        .iter()
        .zip(&p.feeds)
        .enumerate()
        .map(|(i, (&t, &style))| {
            (t, feed_tensor(style, &g.tensor(t).shape, p.seed * 131 + i as u64 + 1))
        })
        .collect();
    feeds.push((r, feed_tensor(Feed::Smooth, &g.tensor(r).shape, p.seed * 131 + 77)));

    // One full run yields every analytic gradient.
    let mut ex = Executor::new();
    for (t, v) in &feeds {
        ex.feed(*t, v.clone());
    }
    let vals = ex.run(&g).unwrap_or_else(|e| panic!("{}: forward failed: {e}", p.op));

    for &i in &p.diff {
        let gt = info
            .grad(ins[i])
            .unwrap_or_else(|| panic!("{}: no gradient for input {i}", p.op));
        let analytic = vals[&gt].clone();
        let volume = p.shapes[i].iter().product::<usize>().max(1);
        for e in 0..volume {
            let fd = {
                let mut plus = feeds.clone();
                let mut minus = feeds.clone();
                for (variant, delta) in [(&mut plus, p.eps), (&mut minus, -p.eps)] {
                    let (_, v) = &mut variant[i];
                    let mut data = v.data().to_vec();
                    data[e] += delta;
                    *v = Tensor::from_vec(v.shape().clone(), data).unwrap();
                }
                (eval_loss(&g, &plus, loss) - eval_loss(&g, &minus, loss)) / (2.0 * p.eps)
            };
            let an = analytic.data()[e];
            assert!(
                close(fd, an),
                "{}: input {i} element {e}: finite difference {fd} vs analytic {an}",
                p.op
            );
        }
    }
}

/// The probe table: one (or more) concrete case per differentiable op.
fn probes() -> Vec<Probe> {
    use Feed::{AwayFromZero, Labels, Positive, Smooth};
    let ax1 = || Attrs::new().with_int("axis", 1);
    vec![
        // Elementwise, unary.
        smooth("identity", &[&[3, 4]]),
        smooth("copy", &[&[3, 4]]),
        smooth("negative", &[&[3, 4]]),
        smooth("square", &[&[3, 4]]),
        smooth("exp", &[&[3, 4]]),
        smooth("sigmoid", &[&[3, 4]]),
        smooth("logistic", &[&[3, 4]]),
        smooth("tanh", &[&[3, 4]]),
        probe("relu", &[&[3, 4]], Attrs::new(), &[AwayFromZero], &[0]),
        probe("log", &[&[3, 4]], Attrs::new(), &[Positive], &[0]),
        // Elementwise, binary / n-ary.
        smooth("add", &[&[3, 4], &[3, 4]]),
        smooth("sub", &[&[3, 4], &[3, 4]]),
        smooth("mul", &[&[3, 4], &[3, 4]]),
        probe("div", &[&[3, 4], &[3, 4]], Attrs::new(), &[Smooth, Positive], &[0, 1]),
        smooth("add_n", &[&[3, 4], &[3, 4], &[3, 4]]),
        // Scalar-attr elementwise.
        probe("add_scalar", &[&[3, 4]], Attrs::new().with_float("scalar", 0.7), &[Smooth], &[0]),
        probe("sub_scalar", &[&[3, 4]], Attrs::new().with_float("scalar", 0.7), &[Smooth], &[0]),
        probe("mul_scalar", &[&[3, 4]], Attrs::new().with_float("scalar", 0.7), &[Smooth], &[0]),
        probe("div_scalar", &[&[3, 4]], Attrs::new().with_float("scalar", 1.7), &[Smooth], &[0]),
        // Linear algebra.
        smooth("matmul", &[&[3, 4], &[4, 2]]),
        smooth("matmul_tn", &[&[4, 3], &[4, 2]]),
        smooth("matmul_nt", &[&[3, 4], &[2, 4]]),
        smooth("transpose", &[&[3, 4]]),
        smooth("batch_matmul", &[&[2, 3, 4], &[2, 4, 2]]),
        smooth("batch_matmul_tn", &[&[2, 4, 3], &[2, 4, 2]]),
        smooth("batch_matmul_nt", &[&[2, 3, 4], &[2, 2, 4]]),
        // Attention family.
        smooth("proj_heads", &[&[4, 6], &[2, 6, 3]]),
        smooth("unproj_heads", &[&[2, 4, 3], &[2, 3, 6]]),
        // Normalization and reductions.
        probe("softmax", &[&[3, 5]], Attrs::new(), &[Smooth], &[0]),
        probe("softmax", &[&[2, 3, 4]], Attrs::new().with_int("axis", 2), &[Smooth], &[0]),
        layer_norm_probe(&[3, 8], 1, 0),
        layer_norm_probe(&[2, 3, 4], 2, 0),
        probe("bias_add", &[&[3, 4], &[4]], ax1(), &[Smooth, Smooth], &[0, 1]),
        probe(
            "scale_shift",
            &[&[3, 4], &[4], &[4]],
            ax1(),
            &[Smooth, Smooth, Smooth],
            &[0, 1, 2],
        ),
        probe("softmax_ce", &[&[6, 4], &[6]], Attrs::new(), &[Smooth, Labels], &[0]),
        smooth("sum_all", &[&[3, 4]]),
        // Convolution family (NC[H]W data, IO[H]W filters).
        probe(
            "conv1d",
            &[&[2, 2, 6], &[2, 3, 3]],
            Attrs::new(),
            &[Smooth, Smooth],
            &[0, 1],
        ),
        probe(
            "conv1d",
            &[&[2, 2, 6], &[2, 3, 3]],
            Attrs::new().with_int("stride", 2).with_int("pad", 1),
            &[Smooth, Smooth],
            &[0, 1],
        ),
        probe(
            "conv2d",
            &[&[1, 2, 5, 5], &[2, 2, 3, 3]],
            Attrs::new(),
            &[Smooth, Smooth],
            &[0, 1],
        ),
        probe(
            "conv2d",
            &[&[1, 2, 5, 5], &[2, 2, 3, 3]],
            Attrs::new().with_int("stride", 2).with_int("pad", 1),
            &[Smooth, Smooth],
            &[0, 1],
        ),
        probe(
            "pool2d",
            &[&[1, 2, 4, 4]],
            Attrs::new().with_str("mode", "avg"),
            &[Smooth],
            &[0],
        ),
        smooth("global_avg_pool", &[&[2, 3, 4, 4]]),
        // Data movement.
        probe(
            "slice_axis",
            &[&[4, 3]],
            Attrs::new().with_int("axis", 0).with_int("begin", 1).with_int("end", 3),
            &[Smooth],
            &[0],
        ),
    ]
}

#[test]
fn finite_differences_validate_every_probe() {
    for p in probes() {
        check_probe(&p);
    }
}

/// Coverage gate: every op registered with a gradient must have a probe.
/// Adding a differentiable op without extending the table fails this test.
#[test]
fn every_differentiable_op_has_a_probe() {
    let covered: BTreeSet<&str> = probes().iter().map(|p| p.op).collect();
    let mut missing = Vec::new();
    for def in registry::all_ops() {
        if def.gradient.is_some() && !covered.contains(def.name) {
            missing.push(def.name);
        }
    }
    assert!(
        missing.is_empty(),
        "differentiable ops without a gradient-check probe: {missing:?} — \
         add a probe to probes() in this file"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Fuzzed shapes for the dense kernels: matmul over random (m, k, n).
    #[test]
    fn matmul_gradchecks_on_random_shapes(
        m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in 0u64..1000,
    ) {
        let mut p = smooth("matmul", &[&[m, k], &[k, n]]);
        p.seed = seed;
        check_probe(&p);
    }

    /// Fuzzed shapes for the batched kernel, all three transposition layouts.
    #[test]
    fn batch_matmul_gradchecks_on_random_shapes(
        b in 1usize..4, m in 1usize..4, k in 1usize..4, n in 1usize..4, seed in 0u64..1000,
    ) {
        for (op, s0, s1) in [
            ("batch_matmul", vec![b, m, k], vec![b, k, n]),
            ("batch_matmul_tn", vec![b, k, m], vec![b, k, n]),
            ("batch_matmul_nt", vec![b, m, k], vec![b, n, k]),
        ] {
            let mut p = smooth(op, &[&s0, &s1]);
            p.seed = seed;
            check_probe(&p);
        }
    }

    /// Softmax over every axis of a random rank-3 shape.
    #[test]
    fn softmax_gradchecks_on_random_axes(
        d0 in 1usize..4, d1 in 1usize..4, d2 in 1usize..4, axis in 0i64..3, seed in 0u64..1000,
    ) {
        let mut p = probe(
            "softmax",
            &[&[d0, d1, d2]],
            Attrs::new().with_int("axis", axis),
            &[Feed::Smooth],
            &[0],
        );
        p.seed = seed;
        check_probe(&p);
    }

    /// Layer norm over a random axis, gamma/beta sized to match.
    #[test]
    fn layer_norm_gradchecks_on_random_axes(
        d0 in 2usize..4, d1 in 2usize..4, d2 in 2usize..5, axis in 0i64..3, seed in 0u64..1000,
    ) {
        check_probe(&layer_norm_probe(&[d0, d1, d2], axis, seed));
    }

    /// Head-indexed projections over random (heads, tokens, widths).
    #[test]
    fn head_projection_gradchecks_on_random_shapes(
        h in 1usize..4, n in 1usize..5, d in 1usize..5, k in 1usize..4, seed in 0u64..1000,
    ) {
        let mut p = smooth("proj_heads", &[&[n, d], &[h, d, k]]);
        p.seed = seed;
        check_probe(&p);
        let mut q = smooth("unproj_heads", &[&[h, n, k], &[h, k, d]]);
        q.seed = seed;
        check_probe(&q);
    }
}
