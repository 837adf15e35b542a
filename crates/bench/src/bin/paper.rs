//! The paper's evaluation (§7) in one run: Tables 1–3, Figs. 8–11, the §4.1
//! coverage statistics and the design ablations, each printed beside the
//! paper's numbers and written to the exact `BENCH_paper.json` ledger.
//!
//! Usage: `cargo run --release -p tofu-bench --bin paper` (no arguments).
//!
//! Every simulation runs once: [`Memo`] keys each partitioner's plan and its
//! simulated iteration by (model, algorithm, batch), so WResNet-152-10 at
//! batch 8 is searched once for Table 1 and Figs. 8, 10 and 11, and Table 3
//! reads Fig. 9's cells. Absolute values come from the simulator, not the
//! authors' testbed, so the comparison targets the *shape* of each result:
//! every sentence of the paper's shape claims is a named `reproduced` flag,
//! computed from the rows with the threshold the sentence states, and a claim
//! that does not hold here is recorded `false`. The ledger holds simulated
//! seconds, throughputs, GB, OOM cells, plan deltas, tilings, configuration
//! counts and strategy inventories; search times are printed, never recorded.

use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

use tofu_bench::{bench_report, write_report, Json};
use tofu_core::baselines::{self, Algorithm};
use tofu_core::recursive::{partition, PartitionOptions, PartitionPlan};
use tofu_core::{coarsen, flat, generate, GenOptions, ShapeView};
use tofu_graph::{registry, Attrs, Graph, TensorId};
use tofu_models::{rnn, wresnet, BuiltModel, RnnConfig, WResNetConfig};
use tofu_sim::{ideal, op_placement, per_device_memory, run_partitioned, small_batch, swap};
use tofu_sim::{Machine, Outcome, Perf};
use tofu_tensor::Shape;

/// The global batch sizes the throughput sweeps try, largest first.
const BATCHES: [usize; 7] = [512, 256, 128, 64, 32, 16, 8];

/// The model Table 1 and Figs. 8, 10 and 11 all partition at batch 8.
const WRESNET_152_10: Model = Model::WResNet { layers: 152, width: 10 };

/// A §7 benchmark model: a Wide ResNet (layers × widening factor) or an LSTM
/// (layers × hidden size), with the fixed fields every table shares.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Model {
    WResNet { layers: usize, width: usize },
    Rnn { layers: usize, hidden: usize },
}

impl Model {
    /// The model at `batch`: the training graph, or with `train == false`
    /// the smallest graph with the same weights (Table 2's sizes).
    fn build(self, batch: usize, train: bool) -> Option<BuiltModel> {
        let with_updates = train;
        match self {
            Model::WResNet { layers, width } => {
                wresnet(&WResNetConfig { layers, width, batch, with_updates, ..Default::default() })
                    .ok()
            }
            Model::Rnn { layers, hidden } => {
                let (steps, embed, vocab) = (if train { 20 } else { 1 }, 1024, 4096);
                rnn(&RnnConfig { layers, hidden, batch, steps, embed, vocab, with_updates }).ok()
            }
        }
    }

    fn graph(self, batch: usize) -> Option<Graph> {
        self.build(batch, true).map(|m| m.graph)
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(&match *self {
            Model::WResNet { layers, width } => format!("WResNet-{layers}-{width}"),
            Model::Rnn { layers, hidden } => format!("RNN-{layers}-{}K", hidden / 1024),
        })
    }
}

/// One simulated configuration.
#[derive(Clone, Debug)]
enum Cell {
    Ran(Perf),
    /// Over device memory: the peak per-device demand (GB).
    Oom(f64),
    /// No simulation was produced: the search or plan generation failed.
    Failed(String),
}

impl From<Outcome> for Cell {
    fn from(o: Outcome) -> Cell {
        match o {
            Outcome::Ran(p) => Cell::Ran(p),
            Outcome::Oom { peak_gb } => Cell::Oom(peak_gb),
        }
    }
}

impl Cell {
    fn ran(&self) -> Option<&Perf> {
        match self {
            Cell::Ran(p) => Some(p),
            _ => None,
        }
    }

    fn throughput(&self) -> Option<f64> {
        self.ran().map(|p| p.throughput)
    }

    fn peak_gb(&self) -> Option<f64> {
        match self {
            Cell::Ran(Perf { peak_gb, .. }) | Cell::Oom(peak_gb) => Some(*peak_gb),
            Cell::Failed(_) => None,
        }
    }

    fn json(&self) -> Json {
        Json::obj(match self {
            Cell::Ran(p) => vec![
                ("cell", "ran".into()),
                ("throughput", p.throughput.into()),
                ("iter_seconds", p.iter_seconds.into()),
                ("batch", p.batch.into()),
                ("peak_gb", p.peak_gb.into()),
                ("comm_fraction", p.comm_fraction.into()),
            ],
            Cell::Oom(peak_gb) => vec![("cell", "oom".into()), ("peak_gb", (*peak_gb).into())],
            Cell::Failed(e) => vec![("cell", "failed".into()), ("error", e.as_str().into())],
        })
    }

    /// The figures' bar label: throughput, `OOM` or `failed`.
    fn show(&self) -> String {
        match self {
            Cell::Ran(p) => format!("{:.1}", p.throughput),
            Cell::Oom(_) => "OOM".into(),
            Cell::Failed(_) => "failed".into(),
        }
    }
}

/// How the paper tables below write an OOM bar.
const OOM: f64 = f64::NAN;

/// A paper number: `None` where the paper reports OOM.
fn paper(v: f64) -> Option<f64> {
    (!v.is_nan()).then_some(v)
}

fn opt_json(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::from)
}

fn opt_show(v: Option<f64>, precision: usize) -> String {
    v.map_or("OOM".into(), |v| format!("{v:.precision$}"))
}

/// The first of `batches` whose cell ran; else an OOM, whose peak is the
/// worst one seen when `worst` and the last one otherwise; else the last
/// failure. `at` is `None` for a batch the model does not build.
fn sweep(batches: &[usize], worst: bool, mut at: impl FnMut(usize) -> Option<Cell>) -> Cell {
    let (mut oom, mut failed): (Option<f64>, _) =
        (None, Cell::Failed("no candidate batch builds a graph".into()));
    for &batch in batches {
        match at(batch) {
            Some(Cell::Ran(p)) => return Cell::Ran(p),
            Some(Cell::Oom(p)) => oom = Some(oom.filter(|_| worst).map_or(p, |w| w.max(p))),
            Some(failure) => failed = failure,
            None => {}
        }
    }
    oom.map_or(failed, Cell::Oom)
}

/// A partitioner's plan for one configuration and its simulated iteration.
struct Sim {
    cell: Cell,
    /// `None` when the search failed.
    plan: Option<PartitionPlan>,
    /// Wall time of the search (printed, never recorded).
    search: Duration,
    /// GB the simulated iteration moves between GPUs, when it was generated.
    comm_gb: Option<f64>,
}

fn simulate(g: &Graph, alg: Algorithm, batch: usize, machine: &Machine) -> Sim {
    let started = Instant::now();
    let plan = baselines::run(g, alg, machine.gpus).map_err(|e| format!("search failed: {e}"));
    let search = started.elapsed();
    let run = plan.as_ref().map_err(String::clone).and_then(|plan| {
        let run = run_partitioned(g, plan, batch, machine, &GenOptions::default());
        run.map_err(|e| format!("generation failed: {e}"))
    });
    let (cell, comm_gb) = match run {
        Ok(run) => (run.outcome.into(), Some(run.comm_bytes / 1e9)),
        Err(e) => (Cell::Failed(e), None),
    };
    Sim { cell, plan: plan.ok(), search, comm_gb }
}

/// Every partitioned simulation of the run, each computed once.
struct Memo {
    machine: Machine,
    sims: BTreeMap<(Model, &'static str, usize), Sim>,
}

impl Memo {
    /// `alg`'s plan for `model` at `batch`, simulated; `None` when the model
    /// does not build at that batch.
    fn sim(&mut self, model: Model, alg: Algorithm, batch: usize) -> Option<&Sim> {
        let key = (model, alg.label(), batch);
        if !self.sims.contains_key(&key) {
            let g = model.graph(batch)?;
            self.sims.insert(key, simulate(&g, alg, batch, &self.machine));
        }
        self.sims.get(&key)
    }

    /// `alg`'s plan for `model` at `batch` and the wall time its search took.
    fn searched(
        &mut self,
        model: Model,
        alg: Algorithm,
        batch: usize,
    ) -> (&PartitionPlan, Duration) {
        let sim = self.sim(model, alg, batch).expect("model builds");
        let plan = sim.plan.as_ref();
        (plan.unwrap_or_else(|| panic!("{} on {model}: {:?}", alg.label(), sim.cell)), sim.search)
    }

    fn plan(&mut self, model: Model, alg: Algorithm, batch: usize) -> &PartitionPlan {
        self.searched(model, alg, batch).0
    }
}

/// Operator placement (MXNet flavour with in-place gradient aggregation, TF
/// flavour without) at the largest batch whose layer-wise split fits.
fn placement(model: Model, mx: bool, machine: &Machine) -> Cell {
    sweep(&BATCHES, false, |b| model.graph(b).map(|g| op_placement(&g, b, machine, mx).into()))
}

/// A shape claim: its name in the ledger and whether it holds.
type Claims = Vec<(&'static str, bool)>;

/// One experiment's ledger entry; prints its claims.
fn experiment(name: &str, mut fields: Vec<(&str, Json)>, claims: Claims) -> Json {
    let mut pairs = vec![("experiment", Json::from(name))];
    pairs.append(&mut fields);
    if !claims.is_empty() {
        println!("\nShape checks ({name}: the paper's claims, evaluated on the rows above):");
        claims.iter().for_each(|(claim, holds)| println!("  {claim}: {holds}"));
        pairs.push(("reproduced", Json::obj(claims.iter().map(|&(c, h)| (c, h.into())).collect())));
    }
    Json::obj(pairs)
}

fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
    Json::Arr(items.into_iter().map(Into::into).collect())
}

/// One configuration of a throughput table: each method's cell beside the
/// paper's number.
struct Row {
    model: Model,
    cells: Vec<(&'static str, Cell, Option<f64>)>,
}

impl Row {
    fn cell(&self, method: &str) -> &Cell {
        &self.cells.iter().find(|c| c.0 == method).expect("method in row").1
    }

    fn tp(&self, method: &str) -> Option<f64> {
        self.cell(method).throughput()
    }

    /// The row keyed by its model, for a ledger object of rows.
    fn json(&self) -> (String, Json) {
        let mut pairs: Vec<_> = self.cells.iter().map(|(m, cell, _)| (*m, cell.json())).collect();
        let paper = self.cells.iter().map(|&(m, _, p)| (m, opt_json(p))).collect();
        pairs.push(("paper", Json::obj(paper)));
        (self.model.to_string(), Json::obj(pairs))
    }
}

/// Prints `rows` side by side with the paper and returns their ledger entry.
fn throughput(name: &str, title: &str, rows: &[Row], claims: fn(&[Row]) -> Claims) -> Json {
    println!("\n{title} (samples/sec), ours | paper");
    let methods = rows.first().map_or(&[][..], |r| &r.cells[..]).iter();
    let head: String = methods.map(|(m, ..)| format!(" | {m:>15} (paper)")).collect();
    println!("{:<16}{head}", "");
    for row in rows {
        let cells =
            row.cells.iter().map(|(_, c, p)| format!(" | {:>15} {:>7}", c.show(), opt_show(*p, 1)));
        println!("{:<16}{}", row.model, cells.collect::<String>());
    }
    experiment(name, vec![("rows", Json::Obj(rows.iter().map(Row::json).collect()))], claims(rows))
}

/// Fig. 8 (WResNets) or Fig. 9 (RNNs, with operator placement): each
/// training method's cell for each model at its best batch, beside `papers`.
/// Ideal runs at the largest batch, where it saturates: 128 for a WResNet.
fn method_rows<const N: usize>(memo: &mut Memo, models: &[Model], papers: &[[f64; N]]) -> Vec<Row> {
    let machine = memo.machine.clone();
    let mut rows = Vec::new();
    for (&model, paper_row) in models.iter().zip(papers) {
        let (build, rnn) = (|batch| model.graph(batch), matches!(model, Model::Rnn { .. }));
        let batches = if rnn { &BATCHES[..] } else { &BATCHES[2..] };
        let mut cells: Vec<(&'static str, Cell)> = vec![
            ("ideal", ideal(&build, batches[0], &machine).into()),
            ("small_batch", small_batch(&build, batches, &machine).into()),
            ("swap", swap(&build, batches, &machine).into()),
        ];
        if rnn {
            cells.push(("op_placement", placement(model, true, &machine)));
        }
        let tofu = |b| memo.sim(model, Algorithm::Tofu, b).map(|s| s.cell.clone());
        cells.push(("tofu", sweep(batches, true, tofu)));
        let cells = cells.into_iter().zip(paper_row).map(|((m, c), &p)| (m, c, paper(p)));
        rows.push(Row { model, cells: cells.collect() });
    }
    rows
}

/// `a` ran and beat `b`, or `b` did not run.
fn beats(a: Option<f64>, b: Option<f64>) -> bool {
    a.is_some_and(|a| b.is_none_or(|b| a > b))
}

/// `part / whole` lies in `range`; false when either did not run.
fn share_in(part: Option<f64>, whole: Option<f64>, range: std::ops::RangeInclusive<f64>) -> bool {
    part.zip(whole).is_some_and(|(p, w)| range.contains(&(p / w)))
}

/// Table 1: the flat DP's configuration count against the recursion (whose
/// search time is printed, not recorded).
fn table1(memo: &mut Memo) -> Json {
    println!("\nTable 1: partition search for 8 workers");
    println!("  (paper: DP with coarsening 8 hours / >24 hours; recursion 8.3 s / 66.6 s)");
    let mut rows = Vec::new();
    for (model, batch) in [(WRESNET_152_10, 8), (Model::Rnn { layers: 10, hidden: 4096 }, 256)] {
        let g = model.graph(batch).expect("model builds");
        let configs = flat::total_configs(&g, &coarsen(&g), &ShapeView::from_graph(&g), 8);
        let (_, search) = memo.searched(model, Algorithm::Tofu, batch);
        println!("  {model:<16} flat DP 10^{configs:.2} configurations; recursion {search:.1?}");
        let row = Json::obj(vec![("batch", batch.into()), ("log10_flat_configs", configs.into())]);
        rows.push((model.to_string(), row));
    }
    experiment("table1", vec![("rows", Json::Obj(rows))], vec![])
}

/// Table 2's paper sizes (GB), in Fig. 9's and then Fig. 8's model order:
/// RNN L = 6, 8, 10 by H = 4K, 6K, 8K, then WResNet L = 50, 101, 152 by
/// W = 4, 6, 8, 10.
#[rustfmt::skip]
const TABLE2: [f64; 21] = [
    8.4, 18.6, 33.0, 11.4, 28.5, 45.3, 14.4, 32.1, 57.0,
    4.2, 9.6, 17.1, 26.7, 7.8, 17.1, 30.6, 47.7, 10.5, 23.4, 41.7, 65.1,
];

/// "Within ~10% across all configurations": `sizes` is (ours, paper).
fn table2_claims(sizes: &[(f64, f64)]) -> Claims {
    vec![("within_10_pct", sizes.iter().all(|&(ours, paper)| (ours / paper - 1.0).abs() <= 0.10))]
}

/// Table 2: total weight-tensor sizes, `3W` bytes (weight, gradient and
/// optimizer history, §7.1).
fn table2(models: &[Model]) -> Json {
    println!("\nTable 2: total weight tensor sizes (GB), ours vs paper");
    let (mut rows, mut sizes) = (Vec::new(), Vec::new());
    for (model, paper) in models.iter().zip(TABLE2) {
        let ours = model.build(1, false).expect("model builds").training_state_gb();
        println!("  {model:<16} {ours:>6.2} {paper:>6.1}  ({:+.1}%)", (ours / paper - 1.0) * 100.0);
        let row = Json::obj(vec![("gb", ours.into()), ("paper_gb", paper.into())]);
        rows.push((model.to_string(), row));
        sizes.push((ours, paper));
    }
    experiment("table2", vec![("rows", Json::Obj(rows))], table2_claims(&sizes))
}

/// Table 3's paper throughputs: RNN-6, -8, -10 at H = 4K for [Tofu, MX, TF].
const TABLE3: [[f64; 3]; 3] = [[210.0, 107.0, 50.0], [154.0, 95.0, 36.0], [122.0, 59.0, 30.0]];

/// Table 3 reads its Tofu and MX columns from Fig. 9's H = 4K rows; only the
/// TF flavour of operator placement (`tf`) is new.
fn table3_rows(fig9: &[Row], tf: impl Fn(Model) -> Cell) -> Vec<Row> {
    let rows = fig9.iter().filter(|r| matches!(r.model, Model::Rnn { hidden: 4096, .. }));
    let rows = rows.zip(TABLE3).map(|(r, [tofu, mx, tf_paper])| {
        let cells = vec![
            ("tofu", r.cell("tofu").clone(), Some(tofu)),
            ("mx_op_placement", r.cell("op_placement").clone(), Some(mx)),
            ("tf_op_placement", tf(r.model), Some(tf_paper)),
        ];
        Row { model: r.model, cells }
    });
    rows.collect()
}

/// "Tofu ~2x over MX operator placement" (read as at least 1.5x, which each
/// of the paper's rows meets at 1.62–2.07x); "the TF flavor trails MX".
fn table3_claims(rows: &[Row]) -> Claims {
    let mx = |r: &Row| r.tp("mx_op_placement");
    let twice = |r: &Row| beats(r.tp("tofu"), mx(r).map(|v| 1.5 * v));
    let trails = |r: &Row| r.tp("tf_op_placement").zip(mx(r)).is_some_and(|(tf, mx)| tf < mx);
    vec![
        ("tofu_about_2x_mx_op_placement", rows.iter().all(twice)),
        ("tf_op_placement_trails_mx", rows.iter().all(trails)),
    ]
}

/// Fig. 8's paper throughputs: L = 50, 101, 152 by W = 4, 6, 8, 10, each
/// [Ideal, SmallBatch, Swap, Tofu].
#[rustfmt::skip]
const FIG8: [[f64; 4]; 12] = [
    [47.0, 46.0, 28.0, 41.0], [18.0, 16.0, 12.0, 17.0], [10.0, OOM, 5.9, 9.3], [6.4, OOM, 4.0, 6.0],
    [27.0, 23.0, 11.0, 20.0], [9.4, OOM, 5.4, 8.7], [5.3, OOM, 3.2, 4.8], [3.3, OOM, 2.1, 3.1],
    [19.0, OOM, 7.7, 11.0], [6.5, OOM, 3.4, 5.4], [3.6, OOM, 2.2, 2.7], [2.3, OOM, 1.6, 1.9],
];

/// "Tofu should be within 60-98% of Ideal, beat Swap everywhere, and lose
/// only to SmallBatch on WResNet-50-4/101-4; SmallBatch must OOM on the
/// larger configs" — the configurations where the paper's SmallBatch OOMs.
fn fig8_claims(rows: &[Row]) -> Claims {
    let small_wins =
        [Model::WResNet { layers: 50, width: 4 }, Model::WResNet { layers: 101, width: 4 }];
    let near_ideal = |r: &Row| share_in(r.tp("tofu"), r.tp("ideal"), 0.60..=0.98);
    let ranks = |r: &Row| {
        let small_beats_tofu = beats(r.tp("small_batch"), r.tp("tofu"));
        beats(r.tp("tofu"), r.tp("swap")) && small_beats_tofu == small_wins.contains(&r.model)
    };
    let paper_ooms = |r: &Row| r.cells.iter().any(|c| c.0 == "small_batch" && c.2.is_none());
    let small_ooms = |r: &Row| !paper_ooms(r) || matches!(r.cell("small_batch"), Cell::Oom(_));
    vec![
        ("tofu_60_to_98_pct_of_ideal", rows.iter().all(near_ideal)),
        ("tofu_beats_swap_and_loses_only_to_small_batch_on_50_4_and_101_4", rows.iter().all(ranks)),
        ("small_batch_ooms_on_the_larger_configs", rows.iter().all(small_ooms)),
    ]
}

/// Fig. 9's paper throughputs: L = 6, 8, 10 by H = 4K, 6K, 8K, each [Ideal,
/// SmallBatch, Swap, Op-Placement, Tofu].
#[rustfmt::skip]
const FIG9: [[f64; 5]; 9] = [
    [233.0, 130.0, 183.0, 107.0, 210.0], [108.0, OOM, 32.0, 44.0, 102.0],
    [58.0, OOM, 13.0, 24.0, 57.0], [172.0, OOM, 120.0, 95.0, 154.0], [78.0, OOM, 18.0, 40.0, 75.0],
    [45.0, OOM, 9.3, 22.0, 41.0], [136.0, OOM, 58.0, 59.0, 122.0], [60.0, OOM, 13.0, 21.0, 55.0],
    [33.0, OOM, 7.2, OOM, 23.0],
];

/// "Tofu wins every configuration; Swap collapses as weights grow" (at every
/// depth, Swap's share of Tofu's throughput is lower at the largest hidden
/// size than at the smallest; `rows` are depth-major with H growing);
/// "Op-Placement reaches 38-61% of Tofu" wherever it runs.
fn fig9_claims(rows: &[Row]) -> Claims {
    let wins = |r: &Row| {
        ["small_batch", "swap", "op_placement"].iter().all(|m| beats(r.tp("tofu"), r.tp(m)))
    };
    let swap_share = |r: &Row| r.tp("swap").unwrap_or(0.0) / r.tp("tofu").unwrap_or(f64::NAN);
    let collapses = |d: &[Row]| swap_share(&d[d.len() - 1]) < swap_share(&d[0]);
    let depth = |r: &Row| if let Model::Rnn { layers, .. } = r.model { layers } else { 0 };
    let op_share = |r: &Row| {
        r.tp("op_placement").is_none() || share_in(r.tp("op_placement"), r.tp("tofu"), 0.38..=0.61)
    };
    let collapsed = rows.chunk_by(|a, b| depth(a) == depth(b)).all(collapses);
    vec![
        ("tofu_wins_every_configuration", rows.iter().all(wins)),
        ("swap_collapses_as_weights_grow", collapsed),
        ("op_placement_38_to_61_pct_of_tofu", rows.iter().all(op_share)),
    ]
}

/// Fig. 10's workloads, the paper's per-batch seconds in
/// [`Algorithm::all`]'s order, and the names of their claims.
#[rustfmt::skip]
const FIG10: [(Model, usize, [f64; 5], &[&str]); 2] = [
    (Model::Rnn { layers: 4, hidden: 8192 }, 512, [24.5, 21.1, 13.8, 13.2, 6.4],
     &["rnn_4_8k_tofu_lowest_time", "rnn_4_8k_tofu_fewest_bytes"]),
    (WRESNET_152_10, 8, [OOM, 33.8, 35.2, OOM, 21.9],
     &["wresnet_152_10_tofu_lowest_time", "wresnet_152_10_tofu_fewest_bytes",
       "wresnet_152_10_allrow_greedy_and_icml18_oom_or_need_most_memory"]),
];

/// One partitioner's Fig. 10 result: its cell and the GB it moves.
type Point = (Algorithm, Cell, Option<f64>);

/// Fig. 10's claims on one workload: Tofu has the lowest per-batch time and
/// moves the fewest bytes among the algorithms that ran, and AllRow-Greedy
/// and ICML18 (too much fetching / no output reduction for the weight
/// gradients, §7.3) OOM or need the most memory of the five.
fn fig10_claims(points: &[Point]) -> [bool; 3] {
    let tofu_lowest = |value: &dyn Fn(&Point) -> Option<f64>| {
        let best = points.iter().filter_map(value).fold(f64::INFINITY, f64::min);
        points.iter().any(|p| p.0 == Algorithm::Tofu && value(p).is_some_and(|v| v <= best))
    };
    let peak = |p: &&Point| p.1.peak_gb().unwrap_or(f64::NEG_INFINITY);
    let (worst, others): (Vec<&Point>, Vec<&Point>) =
        points.iter().partition(|p| matches!(p.0, Algorithm::AllRowGreedy | Algorithm::Icml18));
    let lowest_worst = worst.iter().map(peak).fold(f64::INFINITY, f64::min);
    [
        tofu_lowest(&|p| p.1.ran().map(|r| r.iter_seconds)),
        tofu_lowest(&|p| p.1.ran().and(p.2)),
        others.iter().map(peak).all(|other| other <= lowest_worst),
    ]
}

/// Fig. 10: per-batch time and communication of the five partitioners.
/// `planned_gb` is the plan's Eq. 3 cost, `comm_gb` what the simulated
/// iteration moves.
fn fig10(memo: &mut Memo) -> Json {
    let (mut workloads, mut claims) = (Vec::new(), Vec::new());
    for (model, batch, paper_row, names) in FIG10 {
        println!("\nFig. 10: {model} (batch {batch}): running time per batch (s)");
        println!("algorithm       total (s)  comm (%)    paper  comm GB  plan GB");
        let (mut rows, mut points) = (Vec::new(), Vec::new());
        for (alg, paper_s) in Algorithm::all().into_iter().zip(paper_row.map(paper)) {
            let sim = memo.sim(model, alg, batch).expect("model builds");
            let planned_gb = sim.plan.as_ref().map(|p| p.total_comm_bytes() / 1e9);
            let time = match &sim.cell {
                Cell::Ran(p) => format!("{:>10.2} {:>8.0}%", p.iter_seconds, p.comm_fraction * 1e2),
                Cell::Oom(peak) => format!("{:>10} {:>9}", "OOM", format!("({peak:.1} GB)")),
                Cell::Failed(e) => e.clone(),
            };
            let gb = [opt_show(paper_s, 1), opt_show(sim.comm_gb, 2), opt_show(planned_gb, 2)];
            println!("{:<14} {time} {:>8} {:>8} {:>8}", alg.label(), gb[0], gb[1], gb[2]);
            rows.push(Json::obj(vec![
                ("algorithm", alg.label().into()),
                ("cell", sim.cell.json()),
                ("comm_gb", opt_json(sim.comm_gb)),
                ("planned_gb", opt_json(planned_gb)),
                ("paper_seconds", opt_json(paper_s)),
            ]));
            points.push((alg, sim.cell.clone(), sim.comm_gb));
        }
        claims.extend(names.iter().copied().zip(fig10_claims(&points)));
        let workload = Json::obj(vec![("batch", batch.into()), ("rows", Json::Arr(rows))]);
        workloads.push((model.to_string(), workload));
    }
    experiment("fig10", vec![("workloads", Json::Obj(workloads))], claims)
}

/// Renders a tensor's tiling as `axis/parts …`, e.g. `b/4 c/2`.
fn tiling_string(plan: &PartitionPlan, t: TensorId, axes: &[&str]) -> String {
    let mut parts = vec![1; axes.len()];
    for (step, spec) in plan.tiling[t.0].iter().enumerate() {
        if let Some(d) = spec {
            parts[*d] *= plan.steps[step].ways;
        }
    }
    let split: Vec<String> =
        axes.iter().zip(&parts).filter(|(_, p)| **p > 1).map(|(a, p)| format!("{a}/{p}")).collect();
    Some(split.join(" ")).filter(|s| !s.is_empty()).unwrap_or_else(|| "replicated".into())
}

/// §7.4: "per-step deltas are non-decreasing" (Theorem 2) and "the plan
/// mixes batch and channel partitioning".
fn fig11_claims(deltas: &[f64], batch_split: usize, channel_split: usize) -> Claims {
    vec![
        ("step_deltas_non_decreasing", deltas.windows(2).all(|w| w[0] <= w[1])),
        ("mixes_batch_and_channel", batch_split > 0 && channel_split > 0),
    ]
}

/// Fig. 11: the partition Tofu finds for WResNet-152-10 on 8 GPUs, as each
/// forward convolution's weight and data tilings. The stem and each stage's
/// first block are printed; every layer is recorded.
fn fig11(memo: &mut Memo) -> Json {
    let g = WRESNET_152_10.graph(8).expect("model builds");
    let (plan, search) = memo.searched(WRESNET_152_10, Algorithm::Tofu, 8);
    println!("\nFig. 11: Tofu's partition of WResNet-152-10 on 8 GPUs ({search:.1?})");
    println!("conv layer     weight tiling (ci co kh kw)  data tiling (b c h w)");
    let (mut batch_split, mut channel_split, mut layers) = (0, 0, Vec::new());
    let convs = g.node_ids().map(|id| g.node(id)).filter(|n| n.op == "conv2d");
    for node in convs.filter(|n| !n.tags.is_backward) {
        let wt = tiling_string(plan, node.inputs[1], &["ci", "co", "kh", "kw"]);
        let dt = tiling_string(plan, node.inputs[0], &["b", "c", "h", "w"]);
        batch_split += usize::from(dt.contains("b/"));
        channel_split += usize::from(dt.contains("c/") || wt.contains("co/") || wt.contains("ci/"));
        if node.name == "stem" || node.name.get(2..4) == Some("b0") {
            println!("{:<14} {wt:<26} {dt}", node.name);
        }
        let tiling = Json::obj(vec![("weight_tiling", wt.into()), ("data_tiling", dt.into())]);
        layers.push((node.name.clone(), tiling));
    }
    let (deltas, total) = (plan.step_costs(), layers.len());
    let deltas_gb: Vec<f64> = deltas.iter().map(|d| d / 1e9).collect();
    let total_gb = plan.total_comm_bytes() / 1e9;
    println!("  {batch_split}/{total} convolutions split the batch, {channel_split} a channel");
    println!("  step deltas {deltas_gb:.2?} GB, total {total_gb:.2} GB");
    let fields = vec![
        ("conv_layers", total.into()),
        ("batch_split_layers", batch_split.into()),
        ("channel_split_layers", channel_split.into()),
        ("total_comm_gb", total_gb.into()),
        ("step_comm_gb", arr(deltas_gb)),
        ("layers", Json::Obj(layers)),
    ];
    experiment("fig11", fields, fig11_claims(&deltas, batch_split, channel_split))
}

/// The §5/§6 design ablations: output reduction (Tofu vs ICML18), Fig. 7
/// control dependencies, Fig. 6 fetch buffers, the DP beam width and
/// whole-graph buffer reuse, each against the memo's default Tofu plan.
fn ablation(memo: &mut Memo) -> Json {
    let machine = memo.machine.clone();
    let (rnn, wres) =
        (Model::Rnn { layers: 4, hidden: 2048 }, Model::WResNet { layers: 50, width: 6 });
    let (rnn_g, wres_g) = (rnn.graph(256).expect("builds"), wres.graph(32).expect("builds"));
    let gb = |plan: &PartitionPlan| plan.total_comm_bytes() / 1e9;
    let peak = |memo: &mut Memo, model, batch| {
        memo.sim(model, Algorithm::Tofu, batch).and_then(|s| s.cell.peak_gb()).expect("simulated")
    };
    let on_off = |what: String, on: f64, off: f64| {
        println!("  {what}: peak per-GPU {on:.2} GB on, {off:.2} GB off");
        Json::obj(vec![("on_peak_gb", on.into()), ("off_peak_gb", off.into())])
    };
    println!("\nAblations (§5, §6)");

    let mut reduction = Vec::new();
    for (model, batch) in [(rnn, 256), (wres, 32)] {
        let with = gb(memo.plan(model, Algorithm::Tofu, batch));
        let without = gb(memo.plan(model, Algorithm::Icml18, batch));
        println!("  output reduction, {model}: comm {with:.2} GB with, {without:.2} GB without");
        let row = Json::obj(vec![("with_gb", with.into()), ("without_gb", without.into())]);
        reduction.push((model.to_string(), row));
    }

    let rnn_plan = memo.plan(rnn, Algorithm::Tofu, 256).clone();
    let no_deps =
        run_partitioned(&rnn_g, &rnn_plan, 256, &machine, &GenOptions { control_deps: false });
    let off = no_deps.expect("generates").per_device_gb.into_iter().fold(0.0, f64::max);
    let deps = on_off(format!("Fig. 7 control dependencies, {rnn}"), peak(memo, rnn, 256), off);

    let untracked = PartitionOptions { fetch_buffer_floor: u64::MAX, ..Default::default() };
    let mut fetch = Vec::new();
    let ignored = partition(&rnn_g, &untracked).expect("plan");
    for (name, plan) in [("tracked", rnn_plan), ("ignored", ignored)] {
        let deltas: Vec<f64> = plan.step_costs().iter().map(|d| d / 1e9).collect();
        let comm = gb(&plan);
        println!("  Fig. 6 fetch buffers {name}, {rnn}: comm {comm:.2} GB (deltas {deltas:.2?})");
        fetch.push((name, Json::obj(vec![("comm_gb", comm.into()), ("deltas_gb", arr(deltas))])));
    }

    let mut beams = Vec::new();
    for beam in [8, 64, 512] {
        let (plan, search) = if beam == PartitionOptions::default().beam {
            let (plan, search) = memo.searched(wres, Algorithm::Tofu, 32);
            (plan.clone(), search)
        } else {
            let started = Instant::now();
            let plan = partition(&wres_g, &PartitionOptions { beam, ..Default::default() });
            (plan.expect("plan"), started.elapsed())
        };
        let comm = gb(&plan);
        println!("  DP beam {beam}, {wres}: comm {comm:.2} GB, search {search:.1?}");
        beams.push(Json::obj(vec![("beam", beam.into()), ("comm_gb", comm.into())]));
    }

    let sharded = generate(&wres_g, memo.plan(wres, Algorithm::Tofu, 32), &GenOptions::default());
    let sharded = sharded.expect("generates");
    let mems = per_device_memory(&sharded.graph, &sharded.device_of_node, machine.gpus, false, 1.0);
    let off = mems.iter().map(|m| m.peak_gb()).fold(0.0, f64::max);
    let reuse = on_off(format!("planner buffer reuse, {wres}"), peak(memo, wres, 32), off);

    let fields = vec![
        ("output_reduction", Json::Obj(reduction)),
        ("control_deps", deps),
        ("fetch_buffers", Json::obj(fetch)),
        ("beam", Json::Arr(beams)),
        ("buffer_reuse", reuse),
    ];
    experiment("ablation", fields, vec![])
}

/// §4.1: how much of the operator registry TDL describes, beside the paper's
/// MXNet v0.11 counts, and the strategies discovered for key operators.
fn coverage() -> Json {
    let cov = registry::coverage();
    println!("\n§4.1 TDL coverage of the operator registry: ours | paper (MXNet)");
    let (mut counts, paper) = (Vec::new(), [139usize, 134, 77, 2, 11]);
    let ours = [cov.total, cov.describable, cov.elementwise, cov.opaque, cov.with_reduction];
    let names = ["total", "describable", "elementwise", "opaque", "with_reduction"];
    for ((name, ours), paper) in names.into_iter().zip(ours).zip(paper) {
        println!("  {name:<16} {ours:>5} {paper:>5}");
        counts.push((name, Json::obj(vec![("ours", ours.into()), ("paper", paper.into())])));
    }
    let ops = registry::all_ops().into_iter().filter(|d| d.tdl.is_none());
    let opaque: Vec<String> = ops.map(|d| format!("{} ({:?})", d.name, d.category)).collect();
    println!("  not describable: {}", opaque.join(", "));
    let mut strategies = Vec::new();
    for (op, shapes) in [
        ("matmul", vec![vec![64, 64], vec![64, 64]]),
        ("conv1d", vec![vec![8, 4, 16], vec![4, 8, 3]]),
        ("conv2d", vec![vec![8, 4, 16, 16], vec![4, 8, 3, 3]]),
        ("conv2d_bwd_filter", vec![vec![8, 8, 16, 16], vec![8, 4, 18, 18]]),
        ("batch_cholesky", vec![vec![8, 4, 4]]),
        ("softmax", vec![vec![8, 16]]),
    ] {
        let shapes: Vec<Shape> = shapes.into_iter().map(Shape::new).collect();
        let tdl = registry::lookup(op).ok().and_then(|def| def.tdl).expect("describable");
        let desc = tdl(&shapes, &Attrs::new().with_int("kh", 3).with_int("kw", 3)).expect("probed");
        let found = tofu_tdl::discover_strategies(&desc).unwrap_or_default();
        let ids: Vec<String> = found.into_iter().map(|s| s.id).collect();
        println!("  {op:<18} {} strategies: {}", ids.len(), ids.join(", "));
        strategies.push((op, arr(ids)));
    }
    let fields = vec![
        ("counts", Json::obj(counts)),
        ("not_describable", arr(opaque)),
        ("strategies", Json::obj(strategies)),
    ];
    experiment("coverage", fields, vec![])
}

fn main() {
    let mut memo = Memo { machine: Machine::p2_8xlarge(), sims: BTreeMap::new() };
    let machine = memo.machine.clone();
    let wres =
        [50, 101, 152].map(|layers| [4, 6, 8, 10].map(|width| Model::WResNet { layers, width }));
    let rnns =
        [6, 8, 10].map(|layers| [4096, 6144, 8192].map(|hidden| Model::Rnn { layers, hidden }));
    let table1 = table1(&mut memo);
    let fig8 = method_rows(&mut memo, wres.as_flattened(), &FIG8);
    let fig9 = method_rows(&mut memo, rnns.as_flattened(), &FIG9);
    let table3 = table3_rows(&fig9, |model| placement(model, false, &machine));
    let results = vec![
        table1,
        table2(&[rnns.as_flattened(), wres.as_flattened()].concat()),
        throughput("table3", "Table 3: RNN throughput at hidden size 4096", &table3, table3_claims),
        throughput("fig8", "Fig. 8: WResNet throughput", &fig8, fig8_claims),
        throughput("fig9", "Fig. 9: RNN throughput", &fig9, fig9_claims),
        fig10(&mut memo),
        fig11(&mut memo),
        ablation(&mut memo),
        coverage(),
    ];
    println!("\n{} partitioned simulations, each run once", memo.sims.len());
    write_report("BENCH_paper.json", &bench_report("paper", vec![], results));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ran(throughput: f64) -> Cell {
        let (iter_seconds, batch, peak_gb, comm_fraction) = (1.0, 8, 1.0, 0.0);
        Cell::Ran(Perf { iter_seconds, throughput, batch, peak_gb, comm_fraction })
    }

    /// A row whose paper numbers all ran.
    fn row(model: Model, cells: &[(&'static str, Cell)]) -> Row {
        Row { model, cells: cells.iter().map(|(m, c)| (*m, c.clone(), Some(1.0))).collect() }
    }

    fn holds(claims: Claims) -> Vec<bool> {
        claims.into_iter().map(|c| c.1).collect()
    }

    #[test]
    fn fig8_claims_hold_and_fail() {
        let grid = |tofu: f64, small_50_4: Cell, small_152_4: Cell| {
            let r = |layers, small| {
                let cells = [("ideal", ran(10.0)), ("small_batch", small), ("swap", ran(5.0))];
                let last = [("tofu", ran(tofu))];
                row(Model::WResNet { layers, width: 4 }, &[&cells[..], &last].concat())
            };
            let mut rows = [r(50, small_50_4), r(101, ran(9.5)), r(152, small_152_4)];
            rows[2].cells[1].2 = None; // the paper's SmallBatch OOMs here
            holds(fig8_claims(&rows))
        };
        assert_eq!(grid(9.0, ran(9.5), Cell::Oom(20.0)), [true, true, true]);
        assert_eq!(grid(9.9, ran(9.5), ran(1.0)), [false, false, false]);
        assert_eq!(grid(9.0, Cell::Oom(13.0), Cell::Oom(20.0)), [true, false, true]);
    }

    #[test]
    fn fig9_claims_hold_and_fail() {
        let r = |layers, hidden, swap: f64, op: Cell| {
            let cells = [("swap", ran(swap)), ("op_placement", op), ("tofu", ran(80.0))];
            let first = [("small_batch", Cell::Oom(20.0))];
            row(Model::Rnn { layers, hidden }, &[&first[..], &cells].concat())
        };
        let (a, b) = (r(6, 4096, 60.0, ran(40.0)), r(6, 8192, 10.0, Cell::Oom(14.0)));
        let (c, d) = (r(8, 4096, 50.0, ran(48.0)), r(8, 8192, 5.0, ran(31.0)));
        assert_eq!(holds(fig9_claims(&[a, b, c, d])), [true, true, true]);
        let rows = [r(6, 4096, 60.0, ran(90.0)), r(6, 8192, 70.0, ran(20.0))];
        assert_eq!(holds(fig9_claims(&rows)), [false, false, false]);
    }

    #[test]
    fn table3_claims_hold_and_fail() {
        let r = |tofu, mx, tf| {
            let cells = [("tofu", ran(tofu)), ("mx_op_placement", mx), ("tf_op_placement", tf)];
            row(Model::Rnn { layers: 6, hidden: 4096 }, &cells)
        };
        let rows = [r(100.0, ran(60.0), ran(30.0)), r(100.0, Cell::Oom(13.0), Cell::Oom(14.0))];
        assert_eq!(holds(table3_claims(&rows)), [true, false]);
        assert_eq!(holds(table3_claims(&[r(100.0, ran(70.0), ran(30.0))])), [false, true]);
        // On the paper's own rows both claims hold.
        let paper: Vec<Row> = TABLE3.iter().map(|p| r(p[0], ran(p[1]), ran(p[2]))).collect();
        assert_eq!(holds(table3_claims(&paper)), [true, true]);
    }

    #[test]
    fn fig10_claims_hold_and_fail() {
        let ran_in = |iter_seconds| Cell::Ran(Perf { iter_seconds, ..*ran(1.0).ran().unwrap() });
        let mut points = vec![
            (Algorithm::AllRowGreedy, Cell::Oom(15.0), Some(80.0)),
            (Algorithm::Spartan, ran_in(3.5), Some(55.0)),
            (Algorithm::EqualChop, ran_in(3.6), Some(48.0)),
            (Algorithm::Icml18, Cell::Oom(14.0), Some(70.0)),
            (Algorithm::Tofu, ran_in(3.4), Some(40.0)),
        ];
        assert_eq!(fig10_claims(&points), [true, true, true]);
        points[1] = (Algorithm::Spartan, ran_in(3.3), Some(30.0));
        points[3] = (Algorithm::Icml18, Cell::Failed("search failed".into()), None);
        assert_eq!(fig10_claims(&points), [false, false, false]);
    }

    #[test]
    fn fig11_and_table2_claims_hold_and_fail() {
        assert_eq!(holds(fig11_claims(&[1.0, 2.0, 2.0], 3, 5)), [true, true]);
        assert_eq!(holds(fig11_claims(&[2.0, 1.0], 0, 5)), [false, false]);
        assert_eq!(holds(table2_claims(&[(9.1, 10.0), (10.9, 10.0)])), [true]);
        assert_eq!(holds(table2_claims(&[(9.0, 10.0), (11.2, 10.0)])), [false]);
    }

    /// A sweep that never produced a simulation is `failed` with the last
    /// error, not an OOM: here the search rejects every graph (`concat` has
    /// no TDL description).
    #[test]
    fn a_sweep_the_search_rejects_is_failed_not_oom() {
        let machine = Machine::p2_8xlarge();
        let rejected = |batch: usize| {
            let mut g = Graph::new();
            let p = g.add_input("p", Shape::new(vec![batch, 8]));
            let q = g.add_input("q", Shape::new(vec![batch, 8]));
            g.add_op("concat", "cat", &[p, q], Attrs::new().with_int("axis", 0)).unwrap();
            Some(simulate(&g, Algorithm::Tofu, batch, &machine).cell)
        };
        let Cell::Failed(e) = sweep(&[16, 8], true, rejected) else { panic!("not failed") };
        assert!(e.starts_with("search failed") && e.contains("\"cat\""), "{e}");
        // An OOM wins over a failure: the partitioned sweep keeps the worst
        // peak, the placement sweep the last.
        let cells = [Cell::Oom(2.0), Cell::Failed("x".into()), Cell::Oom(3.0)];
        let at = |b: usize| Some(cells[b].clone());
        assert!(matches!(sweep(&[2, 1, 0], true, at), Cell::Oom(p) if p == 3.0));
        assert!(matches!(sweep(&[2, 1, 0], false, at), Cell::Oom(p) if p == 2.0));
    }

    #[test]
    fn the_memo_simulates_each_key_once() {
        let mut memo = Memo { machine: Machine::p2_8xlarge(), sims: BTreeMap::new() };
        let model = Model::Rnn { layers: 1, hidden: 64 };
        let mut cell =
            || memo.sim(model, Algorithm::Tofu, 8).expect("builds").cell.json().to_json();
        let (first, again) = (cell(), cell());
        assert_eq!((again, memo.sims.len()), (first, 1));
    }

    /// Table 3's Tofu and MX columns are Fig. 9's cells: it takes no memo,
    /// so it cannot re-simulate them.
    #[test]
    fn table3_reads_fig9s_cells() {
        let cells = [("op_placement", ran(0.5)), ("tofu", ran(0.25))];
        let fig9 = [4096, 8192].map(|hidden| row(Model::Rnn { layers: 6, hidden }, &cells));
        let rows = table3_rows(&fig9, |_| Cell::Oom(1.0));
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].tp("tofu"), rows[0].tp("mx_op_placement")), (Some(0.25), Some(0.5)));
        assert!(matches!(rows[0].cell("tf_op_placement"), Cell::Oom(_)));
    }
}
