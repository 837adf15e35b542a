//! Shared harness for the bins that write the exact ledgers.
//!
//! `src/bin/paper.rs` regenerates the paper's whole evaluation (every table
//! and figure of §7, see DESIGN.md's per-experiment index), prints it beside
//! the numbers the paper reports and records it, with one `reproduced` flag
//! per shape claim, in `BENCH_paper.json`. The other binaries are
//! correctness gates. Each bin writes a committed `BENCH_*.json` **ledger**.
//! A ledger holds only values that repeat exactly on any host — bytes,
//! messages, states, nodes, simulated seconds, cache hits, width ladders,
//! `exact` / `recovered_exact` / `reproduced` — so its diff is empty until
//! the program's behaviour changes; `scripts/check.sh` fails on a non-empty
//! diff. Nothing here is a timing harness: wall-clock lives in `benchmark/`
//! (see `benchmark/README.md`), and a latency that has no row there is at
//! most a printed column, never a ledger field or a gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::time::Duration;

use tofu_core::ShardedGraph;
use tofu_graph::{Graph, TensorId, TensorKind, TransferIndex};
use tofu_obs::{Collector, Phase, Track};
use tofu_runtime::{resume_from_snapshot, run_with_options, FullSnapshot, RunOptions};
use tofu_tensor::Tensor;

pub use tofu_obs::json::Json;

/// What a sharded graph's `comm_edges()` move, counted both ways: once per
/// transfer (what crosses the links) and once per remote read (what every
/// reader would pull if no block were shared).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfers {
    /// Distinct transfers: one message each.
    pub count: u64,
    /// Bytes over all transfers.
    pub bytes: u64,
    /// Remote reads the transfers serve.
    pub reads: u64,
    /// Bytes summed over remote reads.
    pub read_bytes: u64,
}

/// Counts `sharded`'s transfers and the reads they serve. Fails when two
/// transfers move the same block to the same device: a block crosses to a
/// device once.
pub fn transfers(sharded: &ShardedGraph) -> Result<Transfers, String> {
    let mut seen = TransferIndex::default();
    let mut out = Transfers { count: 0, bytes: 0, reads: 0, read_bytes: 0 };
    for e in sharded.comm_edges() {
        if !seen.read(&sharded.graph, e.tensor, e.dst, Some(e.piece)).1 {
            return Err(format!(
                "two transfers move block {:?}+{:?} of {:?} to device {}",
                e.piece.src_begin, e.piece.len, e.tensor, e.dst
            ));
        }
        let reads = e.readers.len() as u64;
        out.count += 1;
        out.bytes += e.bytes();
        out.reads += reads;
        out.read_bytes += reads * e.bytes();
    }
    Ok(out)
}

/// Deterministic input/weight feeds for running a graph on the real runtime:
/// small random weights (fan-in scaled) and cyclic integer labels.
pub fn feeds(g: &Graph) -> Vec<(TensorId, Tensor)> {
    let mut out = Vec::new();
    for t in g.tensor_ids() {
        let meta = g.tensor(t);
        if meta.kind == TensorKind::Intermediate {
            continue;
        }
        let v = if meta.name.starts_with("labels") {
            let b = meta.shape.dim(0);
            Tensor::from_vec(meta.shape.clone(), (0..b).map(|i| (i % 3) as f32).collect())
                .unwrap()
        } else {
            let fan_in = (meta.shape.volume() / meta.shape.dim(0).max(1)).max(1);
            let scale = (3.0f32 / fan_in as f32).sqrt().min(0.5);
            Tensor::random(meta.shape.clone(), t.0 as u64 + 1, scale)
        };
        out.push((t, v));
    }
    out
}

/// Splits full-shape feeds into `sharded`'s per-worker shard feeds.
pub fn scatter_feeds(
    sharded: &ShardedGraph,
    full_feeds: &[(TensorId, Tensor)],
) -> Vec<(TensorId, Tensor)> {
    full_feeds.iter().flat_map(|(t, v)| sharded.scatter(*t, v).expect("scatter")).collect()
}

/// Whether two value maps hold the same tensors with the same **bit
/// patterns** — stricter than `==` on floats, which equates `0.0` with
/// `-0.0` and never equates a NaN with itself.
pub fn bit_identical(a: &BTreeMap<TensorId, Tensor>, b: &BTreeMap<TensorId, Tensor>) -> bool {
    a.len() == b.len()
        && a.iter().all(|(t, va)| {
            b.get(t).is_some_and(|vb| {
                va.shape() == vb.shape()
                    && va.data().iter().map(|x| x.to_bits()).eq(vb.data().iter().map(|x| x.to_bits()))
            })
        })
}

/// The recovery bins' bit-identity baseline: an undisturbed run of `sharded`
/// resumed from the snapshot the recovered run last carried, or from scratch
/// when it carried none.
pub fn undisturbed_values(
    sharded: &ShardedGraph,
    snapshot: Option<&FullSnapshot>,
    full_feeds: &[(TensorId, Tensor)],
) -> BTreeMap<TensorId, Tensor> {
    let clean = RunOptions::default();
    match snapshot {
        Some(snap) => {
            resume_from_snapshot(sharded, &clean, snap).expect("baseline resume").values
        }
        None => run_with_options(sharded, &scatter_feeds(sharded, full_feeds), &clean)
            .expect("baseline run")
            .values,
    }
}

/// Lengths of the complete spans on `track` whose name starts with
/// `prefix`, in record order. The recovery bins print their replan, reshard
/// and attempt latencies from these: the runtime measures each interval
/// once, as a span.
pub fn span_durations(collector: &Collector, track: Track, prefix: &str) -> Vec<Duration> {
    collector
        .events()
        .into_iter()
        .filter(|e| e.track == track && e.name.starts_with(prefix))
        .filter_map(|e| match e.phase {
            Phase::Complete { dur_us } => Some(Duration::from_secs_f64(dur_us / 1e6)),
            _ => None,
        })
        .collect()
}

/// Builds the standard bench-report envelope every `BENCH_*.json` file uses:
/// a `bench` name, caller-specific metadata fields, and a `results` array.
pub fn bench_report(bench: &str, fields: Vec<(&str, Json)>, results: Vec<Json>) -> Json {
    let mut pairs = vec![("bench", Json::from(bench))];
    pairs.extend(fields);
    pairs.push(("results", Json::Arr(results)));
    Json::obj(pairs)
}

/// Writes a report pretty-printed to `path` and announces it on stdout.
///
/// All bench binaries funnel their JSON output through this so the on-disk
/// format (and its escaping rules) lives in exactly one place.
pub fn write_report(path: &str, doc: &Json) {
    std::fs::write(path, doc.to_json_pretty() + "\n")
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The comparison the recovery gates rest on is on bit patterns: it
    /// tells `0.0` from `-0.0` and one NaN payload from another, and accepts
    /// a NaN against itself — none of which `f32 ==` does.
    #[test]
    fn bit_identical_compares_bit_patterns() {
        let map = |vals: &[f32]| {
            let t = Tensor::from_vec(tofu_tensor::Shape::new(vec![vals.len()]), vals.to_vec());
            BTreeMap::from([(TensorId(0), t.unwrap())])
        };
        let quiet = f32::from_bits(0x7fc0_0000);
        let payload = f32::from_bits(0x7fc0_0001);
        assert!(bit_identical(&map(&[1.0, quiet, -0.0]), &map(&[1.0, quiet, -0.0])));
        assert!(!bit_identical(&map(&[0.0]), &map(&[-0.0])));
        assert!(!bit_identical(&map(&[quiet]), &map(&[payload])));
        assert!(!bit_identical(&map(&[1.0]), &map(&[1.0, 1.0])));
        assert!(!bit_identical(&map(&[1.0]), &BTreeMap::new()));
        let mut other_id = map(&[1.0]);
        let v = other_id.remove(&TensorId(0)).unwrap();
        other_id.insert(TensorId(1), v);
        assert!(!bit_identical(&map(&[1.0]), &other_id));
    }

    #[test]
    fn bench_report_round_trips() {
        let doc = bench_report(
            "unit",
            vec![("workers", Json::from(4u64))],
            vec![Json::obj(vec![("ok", Json::Bool(true))])],
        );
        let back = tofu_obs::json::parse(&doc.to_json_pretty()).unwrap();
        assert_eq!(back.get("bench").and_then(Json::as_str), Some("unit"));
        assert_eq!(back.get("workers").and_then(Json::as_f64), Some(4.0));
        assert_eq!(back.get("results").and_then(Json::as_array).map(|a| a.len()), Some(1));
    }
}
