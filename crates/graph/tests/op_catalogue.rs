//! Catalogue pin of the two operator families that are written as tables:
//! the twelve products (`matmul{,_tn,_nt}`, `batch_matmul{,_tn,_nt}` and the
//! six head projections) and the six convolutions (`conv{1,2}d` with their
//! `_bwd_data` and `_bwd_filter`).
//!
//! For each operator this builds one canonical text over fixed probes and
//! pins its `fnv1a64`:
//! - every probe's `infer_shape` result (an invalid probe pins only that it
//!   fails: the message is free to change);
//! - on every valid probe, the TDL description's `Debug` text, the
//!   discovered strategies (ids, output partition, input requirements) and
//!   the flop estimate's bits;
//! - for a differentiable operator, every node `autodiff::backward` appends
//!   to `loss = sum_all(op(in0, in1))`: op, name, attributes, operands, output shape.
//!
//! A change here is a change to what the partitioner, the simulator or the
//! backward pass sees, not a refactor. On a mismatch the test prints the
//! operator's text. `conv1d_bwd_{data,filter}` leave their flops out: they
//! share conv2d's backward rule, `max(fwd, 2·|ins[0]|)`.

use std::fmt::Write;

use tofu_graph::{autodiff, registry, Attrs, Graph};
use tofu_tdl::discover_strategies;
use tofu_tensor::Shape;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// One call of an operator: operand shapes and attributes.
struct Probe {
    ins: Vec<Vec<usize>>,
    attrs: Attrs,
}

fn probe(ins: &[&[usize]], attrs: Attrs) -> Probe {
    Probe { ins: ins.iter().map(|d| d.to_vec()).collect(), attrs }
}

fn shapes(p: &Probe) -> Vec<Shape> {
    p.ins.iter().map(|d| Shape::new(d.clone())).collect()
}

/// Appends one operator's text: shapes of every probe, then description,
/// strategies, flops and backward nodes of the valid ones (`invalid` last).
fn describe(op: &str, valid: &[Probe], invalid: &[Probe], with_flops: bool) -> String {
    let def = registry::lookup(op).unwrap();
    let mut text = format!("{op} {:?} differentiable={}\n", def.category, def.gradient.is_some());
    for p in invalid {
        let got = (def.infer_shape)(&shapes(p), &p.attrs);
        assert!(got.is_err(), "{op} accepted invalid probe {:?}", p.ins);
        writeln!(text, "invalid {:?} {:?}: err", p.ins, p.attrs).unwrap();
    }
    for p in valid {
        let ins = shapes(p);
        let out = (def.infer_shape)(&ins, &p.attrs).unwrap();
        writeln!(text, "probe {:?} {:?} -> {out:?}", p.ins, p.attrs).unwrap();
        let desc = (def.tdl.unwrap())(&ins, &p.attrs).unwrap();
        writeln!(text, "tdl {desc:?}").unwrap();
        for s in discover_strategies(&desc).unwrap() {
            writeln!(text, "strategy {} {:?} {:?} {:?}", s.id, s.var, s.output, s.inputs).unwrap();
        }
        if with_flops {
            writeln!(text, "flops {:#x}", (def.flops)(&ins, &out, &p.attrs).to_bits()).unwrap();
        }
        if def.gradient.is_some() {
            let mut g = Graph::new();
            let ids: Vec<_> =
                ins.iter().enumerate().map(|(i, s)| g.add_input(&format!("in{i}"), s.clone())).collect();
            let y = g.add_op(op, "node", &ids, p.attrs.clone()).unwrap();
            let loss = g.add_op("sum_all", "loss", &[y], Attrs::new()).unwrap();
            let forward = g.num_nodes();
            autodiff::backward(&mut g, loss, &ids).unwrap();
            for n in g.node_ids().skip(forward) {
                let n = g.node(n);
                let out = &g.tensor(n.output).shape;
                writeln!(text, "grad {} {} {:?} {:?} -> {out:?}", n.op, n.name, n.attrs, n.inputs).unwrap();
            }
        }
    }
    text
}

/// The product probes of `op`, valid then invalid.
fn product(op: &str) -> (Vec<Probe>, Vec<Probe>) {
    let (good, bad): (&[&[usize]], &[&[usize]]) = match op {
        "matmul" => (&[&[3, 4], &[4, 5]], &[&[3, 4], &[5, 4]]),
        "matmul_tn" => (&[&[4, 3], &[4, 5]], &[&[3, 4], &[4, 5]]),
        "matmul_nt" => (&[&[3, 4], &[5, 4]], &[&[3, 4], &[4, 5]]),
        "batch_matmul" => (&[&[2, 3, 4], &[2, 4, 5]], &[&[2, 3, 4], &[3, 4, 5]]),
        "batch_matmul_tn" => (&[&[2, 4, 3], &[2, 4, 5]], &[&[2, 4, 3], &[2, 5, 5]]),
        "batch_matmul_nt" => (&[&[2, 3, 4], &[2, 5, 4]], &[&[2, 3, 4], &[2, 5, 3]]),
        "proj_heads" => (&[&[6, 8], &[2, 8, 3]], &[&[6, 8], &[2, 7, 3]]),
        "unproj_heads" => (&[&[2, 6, 3], &[2, 3, 8]], &[&[2, 6, 3], &[3, 3, 8]]),
        "proj_heads_grad_x" => (&[&[2, 6, 3], &[2, 8, 3]], &[&[2, 6, 3], &[2, 8, 4]]),
        "proj_heads_grad_w" => (&[&[6, 8], &[2, 6, 3]], &[&[6, 8], &[2, 5, 3]]),
        "unproj_heads_grad_c" => (&[&[6, 8], &[2, 3, 8]], &[&[6, 8], &[2, 3, 7]]),
        "unproj_heads_grad_w" => (&[&[2, 6, 3], &[6, 8]], &[&[2, 6, 3], &[5, 8]]),
        other => panic!("{other} is not a product"),
    };
    // A second valid probe with every extent distinct from the first's.
    let wide: Vec<Vec<usize>> = good.iter().map(|d| d.iter().map(|&e| e + 5).collect()).collect();
    let wide: Vec<&[usize]> = wide.iter().map(|d| d.as_slice()).collect();
    let valid = vec![probe(good, Attrs::new()), probe(&wide, Attrs::new())];
    (valid, vec![probe(bad, Attrs::new()), probe(&good[..1], Attrs::new())])
}

/// The convolution probes of `op`, stride 1 / pad 0 and stride 2 / pad 1,
/// valid then invalid.
fn convolution(op: &str) -> (Vec<Probe>, Vec<Probe>) {
    let rank = if op.starts_with("conv1d") { 1 } else { 2 };
    let (data, filt): (Vec<usize>, Vec<usize>) =
        if rank == 1 { (vec![2, 3, 9], vec![3, 4, 3]) } else { (vec![2, 3, 7, 6], vec![3, 4, 3, 3]) };
    let fwd = if rank == 1 { "conv1d" } else { "conv2d" };
    let mut valid = Vec::new();
    let mut invalid = Vec::new();
    for (s, p) in [(1, 0), (2, 1)] {
        let sp = Attrs::new().with_int("stride", s).with_int("pad", p);
        let out = (registry::lookup(fwd).unwrap().infer_shape)(
            &[Shape::new(data.clone()), Shape::new(filt.clone())],
            &sp,
        )
        .unwrap()
        .dims()
        .to_vec();
        let spatial = |attrs: Attrs, names: [&str; 2], dims: &[usize]| {
            if rank == 1 {
                attrs.with_int(names[1], dims[dims.len() - 1] as i64)
            } else {
                attrs.with_int(names[0], dims[2] as i64).with_int(names[1], dims[3] as i64)
            }
        };
        match op {
            "conv1d" | "conv2d" => {
                valid.push(probe(&[&data, &filt], sp.clone()));
                let mut bad = filt.clone();
                bad[0] += 1;
                invalid.push(probe(&[&data, &bad], sp));
            }
            "conv1d_bwd_data" | "conv2d_bwd_data" => {
                let names = if rank == 1 { ["", "in_x"] } else { ["in_h", "in_w"] };
                valid.push(probe(&[&out, &filt], spatial(sp.clone(), names, &data)));
                invalid.push(probe(&[&out, &filt], sp));
            }
            "conv1d_bwd_filter" | "conv2d_bwd_filter" => {
                let names = if rank == 1 { ["", "dx"] } else { ["kh", "kw"] };
                valid.push(probe(&[&out, &data], spatial(sp.clone(), names, &filt)));
                invalid.push(probe(&[&out, &data], sp));
            }
            other => panic!("{other} is not a convolution"),
        }
    }
    invalid.push(probe(&[&data], Attrs::new()));
    (valid, invalid)
}

/// `fnv1a64` of each operator's text, recorded before the two families
/// became tables.
const PINS: [(&str, u64); 18] = [
    ("matmul", 0x243e206b7dbef42f),
    ("matmul_tn", 0x13de16d9c213ffb0),
    ("matmul_nt", 0x6e828e7c2fc2f546),
    ("batch_matmul", 0x7f4c39b7f808a115),
    ("batch_matmul_tn", 0x68c7c536201e91d8),
    ("batch_matmul_nt", 0xba1ae944d4f40b26),
    ("proj_heads", 0x570e40f224343abc),
    ("unproj_heads", 0xf6a55e1fd569317a),
    ("proj_heads_grad_x", 0x2e2818210cc4762c),
    ("proj_heads_grad_w", 0xe74269a76e460b91),
    ("unproj_heads_grad_c", 0x3922061f630b69f5),
    ("unproj_heads_grad_w", 0xca3a8a4edee93d47),
    ("conv1d", 0xc1daa2eda1b31bda),
    ("conv1d_bwd_data", 0xf6c5c4cd617975e3),
    ("conv1d_bwd_filter", 0x80ca693fb5861b74),
    ("conv2d", 0x03142740a02f1d9d),
    ("conv2d_bwd_data", 0xfa3676697de6f0cb),
    ("conv2d_bwd_filter", 0x2c7d0a670ade28f7),
];

#[test]
fn every_family_operator_matches_its_pin() {
    let mut moved = Vec::new();
    for (op, pin) in PINS {
        let is_conv = op.starts_with("conv");
        let (valid, invalid) = if is_conv { convolution(op) } else { product(op) };
        let with_flops = !matches!(op, "conv1d_bwd_data" | "conv1d_bwd_filter");
        let text = describe(op, &valid, &invalid, with_flops);
        let got = fnv1a64(text.as_bytes());
        if got != pin {
            println!("---- {op}: got {got:#018x}, pinned {pin:#018x}\n{text}");
            moved.push(op);
        }
    }
    assert!(moved.is_empty(), "operators moved: {moved:?}");
}
