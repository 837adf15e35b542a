//! Fig. 10: quality of the partition algorithms — per-batch execution time
//! split into computation and communication, for RNN-4-8K (batch 512) and
//! WResNet-152-10 (batch 8) on 8 simulated GPUs.

use tofu_bench::{bench_report, paper_json, write_report, Json};
use tofu_core::baselines::{run, Algorithm};
use tofu_models::{rnn, wresnet, RnnConfig, WResNetConfig};
use tofu_sim::{run_partitioned, Machine, Outcome, TofuSimOptions};

/// Paper Fig. 10 per-batch times in seconds; `None` = OOM.
const PAPER_RNN: [Option<f64>; 5] = [Some(24.5), Some(21.1), Some(13.8), Some(13.2), Some(6.4)];
const PAPER_WRESNET: [Option<f64>; 5] = [None, Some(33.8), Some(35.2), None, Some(21.9)];

/// One algorithm's simulated iteration on one workload.
struct Point {
    alg: Algorithm,
    /// Per-batch seconds and bytes moved, when the plan ran.
    ran: Option<(f64, f64)>,
    /// Peak GB per GPU, ran or OOM (`None` when search or generation failed).
    peak_gb: Option<f64>,
}

/// Whether Tofu's value is the lowest among the algorithms that ran (false
/// when Tofu did not run).
fn tofu_lowest(points: &[Point], value: impl Fn(&(f64, f64)) -> f64) -> bool {
    let of = |alg| points.iter().find(|p| p.alg == alg).and_then(|p| p.ran.as_ref()).map(&value);
    let best = points.iter().filter_map(|p| p.ran.as_ref()).map(&value).fold(f64::INFINITY, f64::min);
    of(Algorithm::Tofu).is_some_and(|v| v <= best)
}

/// The paper's shape claims for one workload, evaluated on its rows.
fn shape_checks(name: &str, points: &[Point], oom_expected: bool) -> Vec<String> {
    let mut checks = vec![
        format!("{name}: Tofu lowest per-batch time: {}", tofu_lowest(points, |r| r.0)),
        format!("{name}: Tofu moves fewest bytes: {}", tofu_lowest(points, |r| r.1)),
    ];
    if oom_expected {
        // AllRow-Greedy fetches too much and ICML18 lacks output reduction
        // for the weight gradients (§7.3): both should OOM, or need the most
        // memory of the five.
        let (worst, others): (Vec<&Point>, Vec<&Point>) = points
            .iter()
            .partition(|p| matches!(p.alg, Algorithm::AllRowGreedy | Algorithm::Icml18));
        let peak = |p: &&Point| p.peak_gb.unwrap_or(f64::NEG_INFINITY);
        let lowest_worst = worst.iter().map(peak).fold(f64::INFINITY, f64::min);
        let holds = others.iter().map(peak).all(|other| other <= lowest_worst);
        checks.push(format!(
            "{name}: AllRow-Greedy and ICML18 OOM or need the most memory: {holds}"
        ));
    }
    checks
}

fn main() {
    let machine = Machine::p2_8xlarge();

    let rnn_model = rnn(&RnnConfig {
        layers: 4,
        hidden: 8192,
        batch: 512,
        steps: 20,
        embed: 1024,
        vocab: 4096,
        with_updates: true,
    })
    .expect("rnn builds");
    let wres_model = wresnet(&WResNetConfig {
        layers: 152,
        width: 10,
        batch: 8,
        ..Default::default()
    })
    .expect("wresnet builds");

    let mut results: Vec<Json> = Vec::new();
    let mut checks: Vec<String> = Vec::new();
    for (name, model, batch, paper, oom_expected) in [
        ("RNN-4-8K (batch 512)", &rnn_model, 512usize, &PAPER_RNN, false),
        ("WResNet-152-10 (batch 8)", &wres_model, 8, &PAPER_WRESNET, true),
    ] {
        let mut points: Vec<Point> = Vec::new();
        println!("\nFig. 10: {name} — running time per batch (s)");
        println!(
            "{:<14} {:>10} {:>10} {:>8} {:>10}",
            "algorithm", "total (s)", "comm (%)", "paper(s)", "comm GB"
        );
        println!("{}", "-".repeat(58));
        for (ai, alg) in Algorithm::all().into_iter().enumerate() {
            let mut row = vec![
                ("workload", Json::from(name)),
                ("algorithm", Json::from(alg.label())),
                ("paper_seconds", paper_json(paper[ai])),
            ];
            let line = match run(&model.graph, alg, machine.gpus) {
                Ok(plan) => {
                    match run_partitioned(
                        &model.graph,
                        &plan,
                        batch,
                        &machine,
                        &TofuSimOptions::default(),
                    ) {
                        Ok(result) => match result.outcome {
                            Outcome::Ran(p) => {
                                let ran = Some((p.iter_seconds, result.comm_bytes));
                                points.push(Point { alg, ran, peak_gb: Some(p.peak_gb) });
                                row.push(("iter_seconds", Json::from(p.iter_seconds)));
                                row.push(("comm_fraction", Json::from(p.comm_fraction)));
                                row.push(("comm_gb", Json::from(result.comm_bytes / 1e9)));
                                format!(
                                    "{:<14} {:>10.2} {:>9.0}% {:>8} {:>10.2}",
                                    alg.label(),
                                    p.iter_seconds,
                                    p.comm_fraction * 100.0,
                                    paper[ai]
                                        .map(|v| format!("{v:.1}"))
                                        .unwrap_or_else(|| "OOM".into()),
                                    result.comm_bytes / 1e9,
                                )
                            }
                            Outcome::Oom { peak_gb } => {
                                points.push(Point { alg, ran: None, peak_gb: Some(peak_gb) });
                                row.push(("oom_peak_gb", Json::from(peak_gb)));
                                format!(
                                    "{:<14} {:>10} {:>10} {:>8} (needs {peak_gb:.1} GB/GPU)",
                                    alg.label(),
                                    "OOM",
                                    "-",
                                    paper[ai]
                                        .map(|v| format!("{v:.1}"))
                                        .unwrap_or_else(|| "OOM".into()),
                                )
                            }
                        },
                        Err(e) => {
                            points.push(Point { alg, ran: None, peak_gb: None });
                            row.push(("error", Json::from(format!("generation failed: {e}"))));
                            format!("{:<14} generation failed: {e}", alg.label())
                        }
                    }
                }
                Err(e) => {
                    points.push(Point { alg, ran: None, peak_gb: None });
                    row.push(("error", Json::from(format!("search failed: {e}"))));
                    format!("{:<14} search failed: {e}", alg.label())
                }
            };
            println!("{line}");
            results.push(Json::obj(row));
        }
        checks.extend(shape_checks(name, &points, oom_expected));
    }
    write_report("BENCH_fig10.json", &bench_report("fig10", vec![], results));
    println!("\nShape checks (the paper's claims, evaluated on the rows above):");
    for c in &checks {
        println!("  {c}");
    }
}
