//! The paper's §3/§4 walkthrough: describe `conv1d` in TDL, discover its
//! partition strategies automatically, and verify numerically that both
//! Fig. 2 parallelizations compute the unpartitioned result.
//!
//! Run with: `cargo run --release --example operator_strategies`

use tofu::tdl::{discover_strategies, DescBuilder, InputRequirement, Reducer};
use tofu::tensor::{Conv2dParams, Shape, Tensor};

fn main() {
    // Fig. 3 of the paper:
    //   def conv1d(data, filters):
    //       return lambda b, co, x:
    //           Sum(lambda ci, dx: data[b, ci, x+dx] * filters[ci, co, dx])
    let mut b = DescBuilder::new("conv1d", &[3, 3]);
    let (bb, co, x) = (b.output_var("b"), b.output_var("co"), b.output_var("x"));
    let (ci, dx) = (b.reduce_var("ci"), b.reduce_var("dx"));
    let body = b.input(0, &[bb.at(), ci.at(), x.at() + dx.at()])
        * b.input(1, &[ci.at(), co.at(), dx.at()]);
    let desc = b.build_reduce(Reducer::Sum, body).expect("valid description");

    println!("conv1d strategies discovered by symbolic interval analysis:\n");
    for s in discover_strategies(&desc).expect("analysis succeeds") {
        let inputs: Vec<String> = s
            .inputs
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let name = if i == 0 { "data" } else { "filters" };
                match r {
                    InputRequirement::Unused => format!("{name}: unused"),
                    InputRequirement::Replicated => format!("{name}: replicated"),
                    InputRequirement::Split { dim, halo } if halo.is_zero() => {
                        format!("{name}: split dim {dim}")
                    }
                    InputRequirement::Split { dim, halo } => {
                        format!("{name}: split dim {dim} + halo {halo}")
                    }
                }
            })
            .collect();
        println!("  {:<10} -> {}", s.id, inputs.join(", "));
    }

    // Numeric check of Fig. 2(a): batch split, outputs concatenated. On
    // rank-3 operands the convolution kernel is conv1d.
    let data = Tensor::random(Shape::new(vec![4, 3, 10]), 1, 1.0);
    let filters = Tensor::random(Shape::new(vec![3, 8, 3]), 2, 0.5);
    let p = Conv2dParams::default();
    let whole = data.conv2d(&filters, p).unwrap();

    let halves = data.split(0, 2).unwrap();
    let out = Tensor::concat(
        &[halves[0].conv2d(&filters, p).unwrap(), halves[1].conv2d(&filters, p).unwrap()],
        0,
    )
    .unwrap();
    assert!(out.allclose(&whole, 1e-5));
    println!("\nFig. 2(a) check: batch-split workers concatenate to the exact result");

    // Numeric check of Fig. 2(b): channel split, outputs reduced.
    let d = data.split(1, 3).unwrap();
    let f = filters.split(0, 3).unwrap();
    let mut partial = d[0].conv2d(&f[0], p).unwrap();
    for i in 1..3 {
        partial = partial.add(&d[i].conv2d(&f[i], p).unwrap()).unwrap();
    }
    assert!(partial.allclose(&whole, 1e-5));
    println!("Fig. 2(b) check: channel-split partial outputs sum to the exact result");
    println!(
        "\nThe reduce:ci strategy is the one the paper shows prior work missing\n\
         (§7.3) — it is what keeps weight-gradient computation memory-friendly."
    );
}
