//! The `serve` binary: run a plan service, or demo it end to end.
//!
//! ```text
//! serve listen [--addr 127.0.0.1:7070] [--solvers N] [--queue-cap N]
//! serve demo
//! ```
//!
//! `listen` runs until killed. `demo` starts an ephemeral server on a free
//! port, partitions a small MLP through it twice (cold then cached) and
//! prints the stats document — a smoke test and a quickstart in one.

use tofu_core::recursive::PartitionOptions;
use tofu_graph::{autodiff, Attrs, Graph};
use tofu_serve::client::PlanClient;
use tofu_serve::server::{PlanServer, ServeConfig};
use tofu_tensor::Shape;

fn usage() -> ! {
    eprintln!("usage: serve listen [--addr A] [--solvers N] [--queue-cap N]");
    eprintln!("       serve demo");
    std::process::exit(2);
}

fn demo_model() -> Graph {
    let mut g = Graph::new();
    let mut t = g.add_input("x", Shape::new(vec![64, 256]));
    let dims = [256usize, 256, 64];
    let mut weights = Vec::new();
    for (i, w) in dims.windows(2).enumerate() {
        let wt = g.add_weight(&format!("w{i}"), Shape::new(vec![w[0], w[1]]));
        weights.push(wt);
        t = g.add_op("matmul", &format!("fc{i}"), &[t, wt], Attrs::new()).expect("matmul");
        t = g.add_op("relu", &format!("act{i}"), &[t], Attrs::new()).expect("relu");
    }
    let labels = g.add_input("labels", Shape::new(vec![64]));
    let loss = g.add_op("softmax_ce", "loss", &[t, labels], Attrs::new()).expect("loss");
    let info = autodiff::backward(&mut g, loss, &weights).expect("autodiff");
    for (i, &w) in weights.iter().enumerate() {
        let gw = info.grad(w).expect("grad");
        g.add_op("sgd_update", &format!("upd{i}"), &[w, gw], Attrs::new()).expect("sgd");
    }
    g
}

fn run_demo() {
    let server =
        PlanServer::bind("127.0.0.1:0", ServeConfig::default()).expect("bind demo server");
    let addr = server.addr();
    println!("demo server on {addr}");

    let mut client = PlanClient::connect(addr).expect("connect");
    client.ping().expect("ping");

    let g = demo_model();
    let opts = PartitionOptions { workers: 8, ..Default::default() };

    let cold = client.partition("demo-tenant", &g, &opts, None).expect("cold partition");
    println!("cold:   cached={} fingerprint={:032x}", cold.cached, cold.fingerprint);
    let warm = client.partition("demo-tenant", &g, &opts, None).expect("warm partition");
    println!("warm:   cached={} fingerprint={:032x}", warm.cached, warm.fingerprint);
    assert!(!cold.cached && warm.cached, "second identical request must hit the cache");
    assert_eq!(
        cold.plan.to_json(),
        warm.plan.to_json(),
        "cached plan must be byte-identical"
    );

    let stats = client.stats().expect("stats");
    println!("stats:  {}", stats.to_json_pretty());
    server.shutdown();
}

fn run_listen(args: &[String]) {
    let mut addr = "127.0.0.1:7070".to_string();
    let mut cfg = ServeConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            }).clone()
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr"),
            "--solvers" => {
                cfg.solver_threads = value("--solvers").parse().unwrap_or_else(|_| usage())
            }
            "--queue-cap" => {
                cfg.queue_cap = value("--queue-cap").parse().unwrap_or_else(|_| usage())
            }
            _ => usage(),
        }
    }
    let server = PlanServer::bind(addr.as_str(), cfg).expect("bind");
    println!("tofu plan service listening on {}", server.addr());
    // Run until killed.
    loop {
        std::thread::park();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("demo") => run_demo(),
        Some("listen") => run_listen(&args[1..]),
        _ => usage(),
    }
}
