#!/usr/bin/env bash
# The repo's CI gate: lint with warnings-as-errors, then the full test suite.
# Usage: scripts/check.sh  (optionally TOFU_SEED=n for a shifted random stream)
set -euo pipefail
cd "$(dirname "$0")/.."

# The gate is itself a layer worth measuring: print its total wall time on
# every exit, pass or fail, against the 198 s it took at PR 15.
trap 'echo "scripts/check.sh: total wall time ${SECONDS}s, was 198s (exit $?)"' EXIT

# API and size ratchets: each library crate's public-function count and
# code-line count (neither blank nor a `//` line) may not exceed its two
# budgets in scripts/api_budget.txt. Lowering a budget is free; raising one
# must happen in the diff that adds the function or the lines, where a
# reviewer sees it. A crate without a row fails here, so a new crate starts
# budgeted. `bench` is exempt: it holds the ledger bins and their shared
# harness, which no other crate links, not a library.
for dir in crates/*/; do
    crate=$(basename "$dir")
    if [ "$crate" != bench ] && ! grep -q "^$crate " scripts/api_budget.txt; then
        echo "scripts/check.sh: crates/$crate has no row in scripts/api_budget.txt" >&2
        exit 1
    fi
done
while read -r crate budget lines_budget; do
    count=$(grep -r "pub fn" "crates/$crate/src" | wc -l)
    lines=$(grep -rvE '^\s*(//|$)' "crates/$crate/src" | wc -l)
    echo "pub fn in crates/$crate/src: $count (budget $budget), code lines $lines (budget $lines_budget)"
    if [ "$count" -gt "$budget" ]; then
        echo "scripts/check.sh: crates/$crate/src exceeds its pub fn budget" >&2
        exit 1
    fi
    if [ "$lines" -gt "$lines_budget" ]; then
        echo "scripts/check.sh: crates/$crate/src exceeds its code-line budget" >&2
        exit 1
    fi
done < scripts/api_budget.txt
# The library surface is what other crates call: a library `pub fn` whose
# name, as an identifier in code, appears in no `.rs` file outside its
# crate's `src/` (other crates, the root crate, tests/, examples/,
# benchmark/src and the crate's own tests/) is `pub(crate)` or private.
# String literals and comments are not code: an op name like `"relu"` or a
# doc line naming a method calls nothing. (A method name shared with another
# type's method, `x.exp()` on an `f32`, still counts.) `bench` and
# `src/bin/` are not library code.
code_words() {
    python3 - "$@" <<'EOF'
import re, sys
token = re.compile(r'''
    //[^\n]*                                        # line or doc comment
  | /\*(?:[^*]|\*(?!/))*\*/                         # block comment
  | b?r(\#*)".*?"\1                                 # raw string
  | b?"(?:\\.|[^"\\])*"                             # string
  | b?'(?:\\u\{[0-9a-fA-F]+\}|\\.|[^'\\])'          # char
  | ([A-Za-z_][A-Za-z0-9_]*)                        # identifier
''', re.S | re.X)
for path in sys.argv[1:]:
    for m in token.finditer(open(path, encoding="utf-8").read()):
        if m.group(2):
            print(m.group(2))
EOF
}
for dir in crates/*/; do
    crate=$(basename "$dir")
    [ "$crate" = bench ] && continue
    mapfile -d '' corpus < <(find crates src tests examples benchmark/src -name '*.rs' \
        -not -path "crates/$crate/src/*" -print0)
    named=$(code_words "${corpus[@]}" | LC_ALL=C sort -u)
    unnamed=$(grep -rhoE --exclude-dir=bin "pub fn [A-Za-z0-9_]+" "crates/$crate/src" \
        | cut -d' ' -f3 | LC_ALL=C sort -u | LC_ALL=C comm -23 - <(echo "$named"))
    if [ -n "$unnamed" ]; then
        echo "scripts/check.sh: crates/$crate/src has pub fns named nowhere outside it;" \
            "make them pub(crate):" $unnamed >&2
        exit 1
    fi
done
# One clock per interval: library code measures an interval with the
# tofu-obs span that records it, not a `Duration` field beside the span.
# The 10 reads left are the collector's and an attempt's epochs, the abort
# timestamps, the receive and serve deadlines, the serve uptime, durable
# commit time (`benchmark/` reads it) and one unit test (DESIGN.md
# "Observability"). The budget only goes down.
clocks=$(grep -rn "Instant::now" crates/*/src | grep -v /bin/ || true)
if [ "$(echo "$clocks" | grep -c .)" -gt 10 ]; then
    echo "scripts/check.sh: more than 10 Instant::now reads in library code; time the" \
        "interval with a tofu-obs span:" >&2
    echo "$clocks" >&2
    exit 1
fi
# The data plane is std: the channel and lock stubs stay deleted.
if grep -ln "crossbeam\|parking_lot" Cargo.toml crates/*/Cargo.toml; then exit 1; fi
# One exemption from safe Rust in the workspace: the GEMM dispatcher's call
# into its AVX2 instantiation. Outside the `forbid` attributes, the word may
# appear on exactly three lines, all in crates/tensor/src (the crate's
# `deny`, the dispatcher's `allow`, the block), and every other crate root
# still forbids it. The kernel's three banned shortcuts stay out of crates/.
unsafe_lines=$(grep -rn "unsafe" crates/*/src src | grep -v "forbid(unsafe_code)" || true)
if [ "$(echo "$unsafe_lines" | grep -c "^crates/tensor/src/")" -ne 3 ] \
    || [ "$(echo "$unsafe_lines" | wc -l)" -ne 3 ] \
    || [ "$(grep -l "forbid(unsafe_code)" crates/*/src/lib.rs src/lib.rs | wc -l)" -ne 11 ]; then
    echo "scripts/check.sh: unsafe code outside the one GEMM dispatcher block:" >&2
    echo "$unsafe_lines" >&2
    exit 1
fi
if grep -rn 'mul_add\|"fma"\|"avx512' crates/*/src; then exit 1; fi
# An operator is its registry entry (`OpDef`, kernel included): the executor
# reaches every kernel through one `lookup` and matches no operator names.
if grep -nE '^\s*"[a-z0-9_]+"(\s*\|\s*"[a-z0-9_]+")*\s*=>' crates/graph/src/exec.rs; then
    echo "scripts/check.sh: crates/graph/src/exec.rs matches on an operator name" >&2
    exit 1
fi

# The runtime is a leaf of the crate graph: the planner-side crates (the
# simulator and the plan service) neither link the threaded executor nor,
# through it, the durable checkpoint store. Only tofu-bench, the root crate
# and dev-dependencies reach it.
leaf=$(cargo tree --offline -e normal -p tofu-sim -p tofu-serve | grep -E "tofu-(runtime|durable) " || true)
if [ -n "$leaf" ]; then
    echo "scripts/check.sh: tofu-sim or tofu-serve links the runtime:" >&2
    echo "$leaf" >&2
    exit 1
fi

# A training step only executes: the runtime reads the graph's cached
# `ExecPlan` (schedules, buffer plans, transfers) and plans none of it per
# attempt.
if grep -rnE "plan_buffers\(|TransferIndex" crates/runtime/src; then
    echo "scripts/check.sh: crates/runtime/src plans per attempt; read ShardedGraph::exec_plan" >&2
    exit 1
fi

# One cost rule: what a chosen strategy needs from each input, and the bytes
# that moves, are written once in crates/core/src/dp.rs, in
# `NodeChoice::req` and `node_cost`; the DP, the Fig. 6 buffers and the
# Fig. 10 baselines all call them. Outside those two bodies no line of
# crates/core/src calls the byte functions or `ewise_req`, except in a
# file's unit tests (from its `#[cfg(test)]` on).
python3 - <<'EOF'
import glob, re, sys
owners = {
    "node_cost": ["input_fetch_bytes", "output_bytes", "respec_bytes"],
    "req": ["ewise_req"],
}
def body(lines, name):
    for i, line in enumerate(lines):
        m = re.match(r"(\s*)(pub(\(crate\))? )?fn " + name + r"\b", line)
        if m:
            return range(i, lines.index(m.group(1) + "}", i) + 1)
    sys.exit(f"scripts/check.sh: crates/core/src/dp.rs has no fn {name}")
stray = []
for path in sorted(glob.glob("crates/core/src/**/*.rs", recursive=True)):
    lines = open(path, encoding="utf-8").read().split("\n")
    if "#[cfg(test)]" in lines:
        lines = lines[:lines.index("#[cfg(test)]")]
    for owner, callees in owners.items():
        allowed = body(lines, owner) if path.endswith("/dp.rs") else range(0)
        call = re.compile(r"(?<!fn )\b(" + "|".join(callees) + r")\s*\(")
        for n, line in enumerate(lines):
            if call.search(line) and not line.lstrip().startswith("//") and n not in allowed:
                stray.append(f"{path}:{n + 1}: {line.strip()}")
if stray:
    print("scripts/check.sh: the cost rule is called outside NodeChoice::req and node_cost:",
          *stray, sep="\n", file=sys.stderr)
    sys.exit(1)
EOF

# A recovered run has one report: every recovery entry point returns the
# supervisor's `RecoveryReport`, and no second report type grows beside it.
reports=$(grep -rhoE "pub struct [A-Za-z0-9_]*Report\b" crates/runtime/src || true)
if [ "$(echo "$reports" | grep -c .)" -ne 1 ]; then
    echo "scripts/check.sh: crates/runtime/src must declare exactly one pub struct …Report:" >&2
    echo "$reports" >&2
    exit 1
fi

cargo clippy --workspace --all-targets -- -D warnings
# Public docs resolve: no broken or ambiguous intra-doc link, and none to
# an item the narrowing above made private.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --exclude tofu-bench
cargo build --release
# `benchmark/` is its own workspace, so nothing above or below compiles it:
# build and test it here, or a renamed public function breaks the repo
# benchmark (BENCHMARK.json) unseen.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline --manifest-path benchmark/Cargo.toml
# The fault suite must abort runs in milliseconds; a hang here means the
# fail-fast path regressed, so cap it hard rather than stalling CI. The
# fault suites run at IntegrityLevel::Full (the default) — lowering the
# level disables the checks the injected message faults rely on, and the
# runtime rejects such plans outright.
timeout 300 cargo test -q -p tofu-runtime --test faults
# Elastic degraded-mode recovery, fleet churn (leave/rejoin scale-up) and
# checkpoint resharding: permanent device loss must end in success or a
# typed Unrecoverable, and a pending join must never park workers at a
# yield barrier forever — so these get the same hard cap.
timeout 300 cargo test -q -p tofu-runtime --test elastic --test reshard --test churn
# Durable checkpoints: codec/store/commit units + proptests in tofu-durable,
# then the whole-process crash-restart suite (simulated crash, disk-fault
# injection, restart at a different width). Recovery must be bit-identical
# and every injected corruption detected via a typed rejection.
timeout 300 cargo test -q -p tofu-durable
timeout 300 cargo test -q -p tofu-runtime --test durable
# The search-optimality suites (brute-force oracle + differential fuzzing
# against the reference engine — bounds widened past use and bounds tight
# enough to bind — incl. the residual towers and the fractional-cost tie
# case) are exhaustive by design; cap them so a search-space blowup fails CI
# instead of stalling it. The default-options plan hashes of both engines
# (tests/golden_plans.rs) run with the workspace tests below.
timeout 600 cargo test -q -p tofu-core --test oracle --test differential
# The gradient-check oracle finite-differences every differentiable op (and
# proptests the dense kernels over random shapes); the strategy-discovery
# suite proves the DP rediscovers megatron-style transformer splits; the
# transformer runtime suite diffs a sharded decoder training step against
# the single-device executor. All bounded, so cap them.
timeout 600 cargo test -q -p tofu-graph --test gradcheck
# Golden value hashes of whole training steps: any kernel changing its f32
# operation order fails here. The two full-size models are ignored in debug
# builds (33 s and 79 s unoptimised), so run the file optimised as well.
timeout 300 cargo test -q --release --test golden_numerics
# The checked-text JSON path (`RawJson`, `parse_with_raw`) against `parse`
# on every bench model's plan response and its mutations; ignored in debug
# builds (≈100 s unoptimised).
timeout 300 cargo test -q --release -p tofu-obs --test json_differential
# The tiled GEMM against its scalar reference as the compiler vectorises it
# (the workspace run below is unoptimised).
timeout 300 cargo test -q --release -p tofu-tensor
timeout 300 cargo test -q -p tofu-core --test transformer_strategies
timeout 300 cargo test -q -p tofu-runtime --test transformer
# The plan service's protocol/e2e suites involve cross-thread blocking; a
# deadlock must fail CI rather than stall it.
timeout 300 cargo test -q -p tofu-serve
cargo test --workspace -q
# The ledger bins. Each is a correctness gate that also rewrites its
# committed BENCH_*.json, which holds only counts that repeat exactly on any
# host; the `git diff` after the last one is the single baseline gate.
# Timings are not read here at all — they live in benchmark/ (see
# benchmark/README.md).
#
# Runtime counts per width (exits non-zero if the transport copied a payload
# byte — the zero-copy data plane must stay zero-copy).
timeout 600 cargo run --release -q -p tofu-bench --bin runtime_scaling
# Fault matrix (exits non-zero unless every injected fault is detected and
# recovers bit-identically, including the two whole-process crash-restart
# rows).
timeout 300 cargo run --release -q -p tofu-bench --bin fault_matrix
# Durability matrix: whole-process crashes at early/mid/late durable commits
# × every disk-fault family, restarting at alternating widths (exits
# non-zero on any non-exact recovery, any checksum-undetected corruption, or
# any spurious rejection on a clean row).
timeout 300 cargo run --release -q -p tofu-bench --bin durability_matrix
# Elastic-recovery ladders (exits non-zero unless every degraded run is
# bit-identical to its surviving-width baseline and every repeated replan is
# a request-memo hit).
timeout 300 cargo run --release -q -p tofu-bench --bin elastic_recovery
# Fleet churn (exits non-zero unless every churned run ends bit-identical to
# an undisturbed run at its final width resumed from the same snapshot cut,
# at least one grow event fired, and every warm-pass replan was a cache hit).
timeout 300 cargo run --release -q -p tofu-bench --bin fleet_churn
# Search-engine counts (exits non-zero if the optimized DP's plan, cold or
# warm, differs from the reference engine's at default options in any step's
# ways, cost bits, tensor specs or node choices, or if its group-cost
# evaluations plus relaxations reach the reference's states × combos on a
# nontrivial search). Capped like its neighbours, so a search blow-up fails
# CI instead of stalling it.
timeout 300 cargo run --release -q -p tofu-bench --bin search_scaling
# Transformer decoder scaling curves (exits non-zero unless the search finds
# multi-axis strategies at every multi-worker point — exact megatron
# structure at seq=512).
timeout 300 cargo run --release -q -p tofu-bench --bin transformer_scaling
# Plan service (exits non-zero if any served plan differs byte-for-byte from
# a local partition_cached run, the warm hit-rate is zero, the single-flight
# counters don't add up, or a warm hit costs more than 256 request bytes).
timeout 300 cargo run --release -q -p tofu-bench --bin plan_serve
# The paper's evaluation (Tables 1-3, Figs. 8-11, §4.1 coverage, ablations):
# rewrites BENCH_paper.json, whose simulated numbers and `reproduced` shape
# flags the diff below holds fixed, so a flipped claim or a moved OOM cell
# fails here. Every simulation runs once; the full grids take about 2.5 min.
timeout 600 cargo run --release -q -p tofu-bench --bin paper
# The one baseline gate: a ledger that differs from the committed copy fails
# until the new file is staged next to the code that changed it.
git diff --exit-code -- 'BENCH_*.json' \
    || { echo "scripts/check.sh: ledger changed: review and stage it" >&2; exit 1; }
# Emit a unified Chrome trace for a 2-worker MLP; trace_dump re-parses its
# own output and exits non-zero unless the JSON is valid, non-empty, and has
# a measured + predicted lane per device (plus the DP-search counters).
cargo run --release -q -p tofu-bench --bin trace_dump -- --model mlp --workers 2
python3 - <<'EOF'
import json
d = json.load(open("TRACE_mlp.json"))
evs = d["traceEvents"]
assert evs, "TRACE_mlp.json has no events"
pids = {e["pid"] for e in evs}
for pid in (1, 100, 101, 200, 201):
    assert pid in pids, f"TRACE_mlp.json missing lane pid={pid}"
print(f"TRACE_mlp.json ok: {len(evs)} events, lanes {sorted(pids)}")
EOF
