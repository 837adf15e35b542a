//! The repo benchmark (see README.md beside this package).
//!
//! `tofu-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! An untraced run (`--trace 0`) sets the workload up from fresh state
//! several times, then runs verified operations back to back for
//! `--seconds` and prints the five end-to-end metrics. A traced run
//! (`--trace 1`) sets up once, walks the workload's graph through every
//! layer, alternates untraced and traced operations, prints the per-layer
//! ledger and writes a Chrome trace under `out/`. Either way the last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod inputs;
mod schema;
mod stats;
mod tour;
mod workloads;

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use inputs::{Kind, Spec, SPECS};
use stats::{floor, percentile, sorted};
use tofu_obs::chrome::chrome_trace_json;
use tofu_obs::Phase;
use tour::Rows;
use workloads::{secs, setup, Oracle, Tracer, Workload};

/// Default length of the timed phase; `BENCHMARK.json`'s `run_seconds`.
const RUN_SECONDS: f64 = 18.0;

struct Args {
    workloads: Vec<Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    eprintln!(
        "usage: tofu-benchmark --workload <{}|all> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = SPECS.to_vec(),
            "--workload" => match SPECS.iter().find(|s| s.name == value) {
                Some(s) => args.workloads = vec![*s],
                None => usage(),
            },
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 600.0 => args.seconds = s,
                _ => usage(),
            },
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => usage(),
            },
            _ => usage(),
        }
    }
    if args.workloads.is_empty() {
        usage();
    }
    args
}

/// The host-drift probe: a fixed integer spin (about 50 ms on this host)
/// timed before and after the timed phase. It tells a moved host from a
/// moved program; no metric is ever rescaled by it.
fn calibrate() -> f64 {
    let t0 = Instant::now();
    // Xorshift: a dependent chain the compiler cannot fold into a closed form.
    let mut x = black_box(0x2545_f491_4f6c_dd1du64);
    for _ in 0..24_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    secs(t0)
}

/// What one run of one workload found.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The metrics `BENCHMARK.json` lists for this kind of run, in order.
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// Diagnostics printed beside them but not part of the contract.
    extra: Vec<(&'static str, &'static str, f64)>,
}

/// Runs operations `first_k..` back to back until `seconds` have passed and
/// at least `min_ops` ran. Returns the time samples of the untraced and of
/// the traced operations, and how many operations failed their check.
fn timed_ops(
    w: &mut dyn Workload,
    first_k: u64,
    seconds: f64,
    min_ops: u64,
    tracer: Option<&Tracer>,
) -> (Vec<f64>, Vec<f64>, u64) {
    let (mut plain, mut traced, mut failed) = (Vec::new(), Vec::new(), 0);
    let started = Instant::now();
    let mut k = first_k;
    while secs(started) < seconds || k - first_k < min_ops {
        // With a tracer, every other operation records spans, so host drift
        // falls on both floors alike.
        let t = tracer.filter(|_| (k - first_k) % 2 == 1);
        match w.op(k, t) {
            Ok(dt) if t.is_some() => traced.push(dt),
            Ok(dt) => plain.push(dt),
            Err(e) => {
                failed += 1;
                eprintln!("op {k} failed: {e}");
            }
        }
        k += 1;
    }
    (plain, traced, failed)
}

/// Checks a serve workload's counters over `ops` timed operations that
/// started at counter snapshot `before`.
fn check_serve(kind: Kind, before: [u64; 5], after: [u64; 5], ops: u64) -> Result<(), String> {
    let [requests, hits, misses, joined, rejected] = after;
    if hits + misses + joined + rejected != requests {
        return Err(format!("serve counters do not add up: {after:?}"));
    }
    let (d_hits, d_misses) = (hits - before[1], misses - before[2]);
    match kind {
        Kind::ServeHit if d_hits != ops || d_misses != 0 => {
            Err(format!("{ops} ops but {d_hits} hits and {d_misses} misses"))
        }
        Kind::ServeMiss if d_misses != ops || d_hits != 0 => {
            Err(format!("{ops} ops but {d_misses} misses and {d_hits} hits"))
        }
        _ => Ok(()),
    }
}

fn untraced_run(spec: Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let calib_before = calibrate();
    let oracle = Oracle::build(spec, seed)?;
    let mut problems: Vec<String> = Vec::new();
    let (mut setup_times, mut samples, mut failed) = (Vec::new(), Vec::new(), 0);
    let mut comm_bytes = 0;
    let mut next_k = 1;
    // One round per set-up: a complete set-up from fresh state, then an equal
    // share of the timed operations on it. Spreading the set-ups over the run
    // lets them see as many states of the host as the operations do.
    for _ in 0..spec.setups {
        let t0 = Instant::now();
        let mut state = setup(&oracle, next_k, None)?;
        setup_times.push(secs(t0));
        next_k += spec.warmup;
        state.check_first()?;

        let before = state.serve_counters();
        let (plain, _, bad) = timed_ops(&mut *state, next_k, seconds / spec.setups as f64, 1, None);
        let ops = plain.len() as u64 + bad;
        next_k += ops;
        samples.extend(plain);
        failed += bad;

        if let (Some(before), Some(after)) = (before, state.serve_counters()) {
            problems.extend(check_serve(spec.kind, before, after, ops).err());
        }
        comm_bytes = state.comm_bytes();
        if comm_bytes as f64 != oracle.sim.comm_bytes {
            problems.push(format!(
                "comm_bytes {comm_bytes} != simulated {}",
                oracle.sim.comm_bytes
            ));
        }
        // The state (a server, its threads) ends here, outside every timer.
    }
    let calib_after = calibrate();
    for p in &problems {
        eprintln!("{}: {p}", spec.name);
    }
    if std::env::var_os("BENCH_DEBUG").is_some() {
        eprintln!("setups {setup_times:?}\nplain {samples:?}");
    }

    let asc = sorted(&samples);
    let total: f64 = samples.iter().sum();
    Ok(Outcome {
        correct: failed == 0 && problems.is_empty() && !samples.is_empty(),
        attempted: samples.len() as u64 + failed,
        failed,
        metrics: schema::END_TO_END
            .iter()
            .zip([
                floor(&setup_times),
                floor(&samples),
                comm_bytes as f64,
                oracle.peak_device_bytes as f64,
                oracle.sim.makespan * 1e9,
            ])
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect(),
        extra: vec![
            ("e2e.op_p50_s", "s", percentile(&asc, 0.5)),
            ("e2e.op_p90_s", "s", percentile(&asc, 0.9)),
            ("e2e.ops_per_s", "1/s", samples.len() as f64 / total),
            (
                "e2e.setup_p50_s",
                "s",
                percentile(&sorted(&setup_times), 0.5),
            ),
            ("host.calib_s", "s", calib_before),
            (
                "host.calib_drift",
                "share",
                calib_after / calib_before - 1.0,
            ),
        ],
    })
}

/// The share of an operation's floor that the ledger rows on its blocking
/// path do not account for.
fn unattributed_share(kind: Kind, r: &Rows, op_floor: f64) -> f64 {
    let codec = r["serve.encode_request_s"]
        + r["serve.decode_request_s"]
        + r["core.fingerprint_s"]
        + r["serve.encode_response_s"]
        + r["serve.decode_response_s"]
        + r["serve.ping_s"];
    let path = match kind {
        // `run_partitioned` generates, simulates twice and sizes memory.
        Kind::PlanCold => {
            r["core.partition_s"]
                + r["core.generate_s"]
                + 2.0 * r["sim.simulate_s"]
                + r["sim.memory_s"]
        }
        // Within the ledger's own floor step: what the busiest worker's ops
        // leave of its wall is spawn, routing and join.
        Kind::Step => return 1.0 - r["runtime.busy_s"] / r["runtime.step_s"],
        Kind::ServeHit => codec,
        Kind::ServeMiss => codec + r["serve.solve_s"],
    };
    1.0 - path / op_floor
}

fn traced_run(spec: Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let started = Instant::now();
    let calib_before = calibrate();
    let tracer = Tracer::new();
    let oracle = Oracle::build(spec, seed)?;
    let mut state = setup(&oracle, 1, Some(&tracer))?;
    state.check_first()?;
    let mut rows = tour::tour(&oracle, &tracer)?;

    // Whatever of the run's length the tour left, and never less than a
    // quarter of it, goes to operations alternating untraced and traced.
    let left = (seconds - secs(started)).max(seconds / 4.0);
    let before = state.serve_counters();
    let (plain, traced, failed) = timed_ops(&mut *state, 1 + spec.warmup, left, 8, Some(&tracer));
    let attempted = (plain.len() + traced.len()) as u64 + failed;
    let calib_after = calibrate();

    let mut problems: Vec<String> = Vec::new();
    if let (Some(before), Some(after)) = (before, state.serve_counters()) {
        problems.extend(check_serve(spec.kind, before, after, attempted).err());
        // On a serve workload the counters are the workload's own server's,
        // over the operations above; elsewhere the tour's server's.
        for (i, name) in [
            "serve.hits",
            "serve.misses",
            "serve.joined",
            "serve.rejected",
        ]
        .iter()
        .enumerate()
        {
            rows.insert(name, (after[i + 1] - before[i + 1]) as f64);
        }
    }
    if spec.kind == Kind::ServeMiss {
        // Likewise the solve floor: the workload's server recorded one span
        // per miss, hundreds against the tour's handful.
        let solves = tracer
            .main
            .events()
            .into_iter()
            .filter_map(|e| match (e.cat, e.phase) {
                ("serve", Phase::Complete { dur_us }) => Some(dur_us * 1e-6),
                _ => None,
            });
        rows.insert(
            "serve.solve_s",
            solves.fold(rows["serve.solve_s"], f64::min),
        );
    }
    for p in &problems {
        eprintln!("{}: {p}", spec.name);
    }

    let asc = sorted(&plain);
    rows.insert("e2e.op_p50_s", percentile(&asc, 0.5));
    rows.insert("e2e.op_p90_s", percentile(&asc, 0.9));
    rows.insert(
        "e2e.ops_per_s",
        plain.len() as f64 / plain.iter().sum::<f64>(),
    );
    rows.insert(
        "e2e.trace_overhead_share",
        floor(&traced) / floor(&plain) - 1.0,
    );
    rows.insert(
        "e2e.unattributed_share",
        unattributed_share(spec.kind, &rows, floor(&plain)),
    );
    rows.insert("host.calib_s", calib_before);
    rows.insert("host.calib_drift", calib_after / calib_before - 1.0);

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = out.join(format!("{}.trace.json", spec.name));
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&path, chrome_trace_json(&tracer.main.events()) + "\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    let pick = |list: &[(&'static str, &'static str)]| -> Vec<(&'static str, &'static str, f64)> {
        list.iter()
            .filter_map(|&(n, u)| rows.get(n).map(|&v| (n, u, v)))
            .collect()
    };
    let metrics = pick(&schema::PER_LAYER);
    Ok(Outcome {
        correct: failed == 0 && problems.is_empty() && metrics.len() == schema::PER_LAYER.len(),
        attempted,
        failed,
        metrics,
        extra: pick(&schema::STEP_ONLY),
    })
}

/// A JSON number: integers without a fraction, everything else with every
/// digit the measurement has; a non-finite value becomes `null` (and the
/// run is reported incorrect).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    let finite = o.metrics.iter().all(|(_, _, v)| v.is_finite());
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct && finite,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = parse_args();
    for spec in &args.workloads {
        let run = if args.trace { traced_run } else { untraced_run };
        let outcome = match run(*spec, args.seed, args.seconds) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: {e}", spec.name);
                std::process::exit(1);
            }
        };
        println!(
            "# {} seed={} trace={} cpus={}: {} ops, {} failed ({})",
            spec.name,
            args.seed,
            u8::from(args.trace),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            outcome.attempted,
            outcome.failed,
            spec.why
        );
        for (name, unit, value) in outcome.metrics.iter().chain(&outcome.extra) {
            println!("{name:<32} {:>22} {unit}", json_number(*value));
        }
        // Failed operations are a reported result, not a crash: exit 0.
        println!("{}", result_line(&outcome));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_obs::json::{parse, Json};

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let o = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![("setup_s", "s", 0.25), ("comm_bytes", "B", 78_781_920.0)],
            extra: vec![("e2e.op_p50_s", "s", 1.0)],
        };
        let line = result_line(&o);
        assert!(!line.contains('\n'));
        let doc = parse(&line).unwrap();
        let Json::Obj(pairs) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(0.25)
        );
        assert_eq!(
            m.get("comm_bytes")
                .and_then(|v| v.get("unit"))
                .and_then(Json::as_str),
            Some("B")
        );
        assert!(
            m.get("e2e.op_p50_s").is_none(),
            "diagnostics stay out of the contract line"
        );
        assert!(
            line.contains("\"value\": 78781920,"),
            "counts print as integers: {line}"
        );
    }

    #[test]
    fn a_non_finite_metric_makes_the_run_incorrect() {
        let o = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![("op_s", "s", f64::NAN)],
            extra: Vec::new(),
        };
        let doc = parse(&result_line(&o)).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn serve_counter_check_wants_every_op_a_hit_or_a_miss() {
        let before = [3, 2, 1, 0, 0];
        assert!(check_serve(Kind::ServeHit, before, [13, 12, 1, 0, 0], 10).is_ok());
        assert!(check_serve(Kind::ServeHit, before, [13, 11, 2, 0, 0], 10).is_err());
        assert!(check_serve(Kind::ServeMiss, before, [13, 2, 11, 0, 0], 10).is_ok());
        assert!(check_serve(Kind::ServeMiss, before, [13, 2, 10, 0, 0], 10).is_err());
    }
}
