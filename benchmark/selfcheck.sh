#!/usr/bin/env bash
# Does the benchmark repeat on this host? Runs the full untraced set as two
# interleaved sets, A and B, of N runs each (default 3, every run with its
# own seed), and prints per workload x metric the two set medians and their
# relative difference. Exits non-zero when a timing pair differs by more than
# the metric's bound in BENCHMARK.json, when a count differs between any two
# runs (so also between two seeds), or when a run reports a failed operation.
#
# usage: benchmark/selfcheck.sh [N]      (about 4 minutes per N)
set -euo pipefail
cd "$(dirname "$0")/.."
runs="${1:-3}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/tofu-benchmark"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
results="$(mktemp)"
trap 'rm -f "$results"' EXIT
seed=1
for ((i = 0; i < runs; i++)); do
  for set in A B; do
    echo "set $set run $((i + 1))/$runs (seed $seed)" >&2
    "$bin" --workload all --seed "$seed" --seconds "$seconds" --trace 0 |
      awk -v set="$set" '/^# /{w=$2} /^\{/{print set "\t" w "\t" $0}' >>"$results"
    seed=$((seed + 1))
  done
done
python3 - "$results" <<'EOF'
import json, statistics, sys

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
values, bad = {}, []
for line in open(sys.argv[1]):
    which, workload, doc = line.rstrip("\n").split("\t", 2)
    doc = json.loads(doc)
    if not doc["correct"] or doc["failed"]:
        bad.append(f"{workload}: a run of set {which} was incorrect ({doc['failed']} failed ops)")
    for name, m in doc["metrics"].items():
        values.setdefault((workload, name), {"A": [], "B": []})[which].append(m["value"])

print(f"{'workload':<14}{'metric':<24}{'median A':>16}{'median B':>16}{'B/A-1':>9}{'bound':>7}")
for (workload, name), sets in values.items():
    a, b = statistics.median(sets["A"]), statistics.median(sets["B"])
    diff = abs(b / a - 1)
    print(f"{workload:<14}{name:<24}{a:>16.9g}{b:>16.9g}{b / a - 1:>+9.3f}{bounds[name]:>7}")
    if bounds[name] == 0:
        if len(set(sets["A"] + sets["B"])) != 1:
            bad.append(f"{workload} {name}: a count differs between runs: {sorted(set(sets['A'] + sets['B']))}")
    elif diff > bounds[name]:
        bad.append(f"{workload} {name}: set medians differ by {diff:.3f}, bound {bounds[name]}")
for b in bad:
    print("FAIL", b)
sys.exit(1 if bad else 0)
EOF
