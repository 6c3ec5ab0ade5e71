#!/usr/bin/env bash
# Offline verification gate: formatting, lints, docs, release build, tests.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings: no dead or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo build --release"
cargo build --release

# A debug build: the heb_core::invariants conservation checks run
# inside every simulation of every test.
echo "== cargo test (debug: runtime invariant checks on)"
cargo test --workspace -q

# perfbench is its own Cargo workspace over the layer crates: building
# and testing it here makes a layer API change that breaks the
# benchmark fail this gate.
echo "== perfbench build and tests"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== heb-analyze (static analysis gate: cold run, then warm incremental run)"
BENCH_ANALYZE="$(mktemp -d)"
rm -rf results/analyze-cache
cargo run -q --release -p heb-analyze -- --strict-suppressions --jobs 4 \
  --sarif results/heb-analyze.sarif --stats-json "$BENCH_ANALYZE/cold.json"
cargo run -q --release -p heb-analyze -- --strict-suppressions --jobs 4 \
  --stats-json "$BENCH_ANALYZE/warm.json"
python3 - "$BENCH_ANALYZE" <<'EOF'
import json, sys, os
d = sys.argv[1]
cold = json.load(open(os.path.join(d, "cold.json")))
warm = json.load(open(os.path.join(d, "warm.json")))
if warm["analyzed"] != 0:
    raise SystemExit(
        f"heb-analyze: warm run re-analyzed {warm['analyzed']} file(s); "
        "the incremental cache must serve every unchanged file")
bench = {
    "files": cold["files"],
    "cold": {"analyzed": cold["analyzed"], "wall_ms": cold["wall_ms"]},
    "warm": {"analyzed": warm["analyzed"], "cached": warm["cached"],
             "wall_ms": warm["wall_ms"]},
}
json.dump(bench, open("BENCH_analyze.json", "w"), indent=2)
open("BENCH_analyze.json", "a").write("\n")
print(f"heb-analyze: cold {cold['wall_ms']} ms ({cold['analyzed']} analyzed), "
      f"warm {warm['wall_ms']} ms (all {warm['cached']} cached) "
      "-> BENCH_analyze.json")
EOF
rm -rf "$BENCH_ANALYZE"

# heb-analyze is lexical (scans every line regardless of cfg), so the
# single run above already vets the failpoint-gated code paths.
echo "== failpoints chaos suite (deterministic fault injection)"
cargo test -p heb-fleet --features failpoints -q
cargo clippy -q -p heb-fleet --all-targets --features failpoints -- -D warnings

echo "== kill-and-resume smoke (emulated mid-run kill, resume, diff vs clean; warm-cache resume)"
cargo build -q --release -p heb-fleet --features failpoints
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"' EXIT
FLEET=target/release/heb_fleet
FLAGS=(--hours 0.2 --filter outage --jobs 2 --no-cache --verbose)
if "$FLEET" "${FLAGS[@]}" --runs-dir "$SMOKE/runs" --run-id smoke \
    --inject run.abort=3 > "$SMOKE/killed.out"; then
  echo "kill-and-resume smoke: the injected kill must exit non-zero" >&2
  exit 1
fi
"$FLEET" "${FLAGS[@]}" --runs-dir "$SMOKE/runs" --resume smoke > "$SMOKE/resumed.out"
"$FLEET" "${FLAGS[@]}" --runs-dir "$SMOKE/clean" --no-journal > "$SMOKE/clean.out"
grep ' eff ' "$SMOKE/resumed.out" > "$SMOKE/resumed.eff"
grep ' eff ' "$SMOKE/clean.out" > "$SMOKE/clean.eff"
diff -u "$SMOKE/clean.eff" "$SMOKE/resumed.eff"
grep -q 'settled from the prior' "$SMOKE/resumed.out"
echo "kill-and-resume smoke: resumed run bit-identical to clean run"
# Warm-cache resume: a journaled all-hits run mirrors every hit into its
# run store (by hard link), so deleting the shared cache afterwards
# must not stop a resume settling every scenario from that store.
WARM=(--filter schemes --hours 0.05 --jobs 2 --verbose)
"$FLEET" "${WARM[@]}" --cache-dir "$SMOKE/warm-cache" --no-journal > "$SMOKE/warm-cold.out"
"$FLEET" "${WARM[@]}" --cache-dir "$SMOKE/warm-cache" --runs-dir "$SMOKE/warm-runs" \
  --run-id warm > "$SMOKE/warm-hits.out"
rm -rf "$SMOKE/warm-cache"
"$FLEET" "${WARM[@]}" --cache-dir "$SMOKE/warm-cache" --runs-dir "$SMOKE/warm-runs" \
  --resume warm --metrics > "$SMOKE/warm-resumed.out"
grep -q 'settled from the prior' "$SMOKE/warm-resumed.out"
diff -u <(grep ' eff ' "$SMOKE/warm-cold.out") <(grep ' eff ' "$SMOKE/warm-resumed.out")
WARM_SIMULATED="$(awk '$1 == "counter" && $2 == "fleet.simulated" {print $3}' "$SMOKE/warm-resumed.out")"
if [ "$WARM_SIMULATED" != 0 ]; then
  echo "warm-cache resume smoke: resume simulated '$WARM_SIMULATED' scenario(s), expected 0" >&2
  exit 1
fi
echo "warm-cache resume smoke: cache deleted, resume settled every hit from the run store"
# --metrics renders the engine's registry: its fleet.simulated counter
# must equal the count on the total: line.
"$FLEET" --hours 0.05 --filter outage --jobs 2 --no-cache --no-journal --metrics \
  > "$SMOKE/metrics.out"
TOTAL_SIMULATED="$(sed -n 's/^total: .*, \([0-9][0-9]*\) simulated .*/\1/p' "$SMOKE/metrics.out")"
REGISTRY_SIMULATED="$(awk '$1 == "counter" && $2 == "fleet.simulated" {print $3}' "$SMOKE/metrics.out")"
if [ -z "$TOTAL_SIMULATED" ] || [ "$TOTAL_SIMULATED" != "$REGISTRY_SIMULATED" ]; then
  echo "heb_fleet --metrics smoke: total: says '$TOTAL_SIMULATED' simulated," \
    "the registry's fleet.simulated says '$REGISTRY_SIMULATED'" >&2
  exit 1
fi
echo "heb_fleet --metrics smoke: registry fleet.simulated = total: line ($TOTAL_SIMULATED)"

echo "== heb_serve smoke (cold query, warm replay byte-identical, graceful drain, restart on the warm cache)"
cargo build -q --release -p heb-serve
SERVE=target/release/heb_serve
# Starts heb_serve on the smoke cache, logging to $1; sets SERVE_PID and ADDR.
start_serve() {
  "$SERVE" --addr 127.0.0.1:0 --cache-dir "$SMOKE/serve-cache" > "$1" &
  SERVE_PID=$!
  ADDR=""
  for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^listening on //p' "$1")"
    [ -n "$ADDR" ] && break
    sleep 0.1
  done
  if [ -z "$ADDR" ]; then
    echo "heb_serve smoke: server never reported its address" >&2
    exit 1
  fi
}
start_serve "$SMOKE/serve.out"
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$SMOKE"' EXIT
QUERY='{"workloads":["WS","TS"],"hours":0.05,"seed":7}'
"$SERVE" --addr "$ADDR" --post /query --body "$QUERY" > "$SMOKE/cold.json"
"$SERVE" --addr "$ADDR" --post /query --body "$QUERY" > "$SMOKE/warm.json"
diff -u "$SMOKE/cold.json" "$SMOKE/warm.json"
grep -q '"mppu"' "$SMOKE/cold.json"
grep -q '"total_usd"' "$SMOKE/cold.json"
"$SERVE" --addr "$ADDR" --post /healthz | grep -q '"status":"ok"'
"$SERVE" --addr "$ADDR" --post /metrics > "$SMOKE/metrics.json"
grep -q 'serve.query.hit_ratio' "$SMOKE/metrics.json"
# The cold + warm pair synthesises MPPU once; the warm answer reads the memo.
grep -q '"serve.mppu.synthesized":1[,}]' "$SMOKE/metrics.json"
"$SERVE" --addr "$ADDR" --post /shutdown | grep -q '"draining":true'
wait "$SERVE_PID"
grep -q 'drained, shutting down' "$SMOKE/serve.out"
# A restarted server has an empty MPPU memo but a warm result cache:
# its answer (memo miss, cache hit) must still match the cold body.
start_serve "$SMOKE/serve-restart.out"
"$SERVE" --addr "$ADDR" --post /query --body "$QUERY" > "$SMOKE/restart.json"
diff -u "$SMOKE/cold.json" "$SMOKE/restart.json"
"$SERVE" --addr "$ADDR" --post /metrics | grep -q '"serve.query.cache_hits":1[,}]'
"$SERVE" --addr "$ADDR" --post /shutdown | grep -q '"draining":true'
wait "$SERVE_PID"
grep -q 'drained, shutting down' "$SMOKE/serve-restart.out"
echo "heb_serve smoke: warm replay and warm-cache restart byte-identical, drained cleanly"

echo "== figure-binary smoke (every fig*/exp_* binary, --jobs 1 vs --jobs 2 byte-identical)"
# `cargo build --release` above builds only the root package.
cargo build -q --release -p heb-bench
mkdir "$SMOKE/figs"
for src in crates/bench/src/bin/*.rs; do
  bin="$(basename "$src" .rs)"
  for jobs in 1 2; do
    "target/release/$bin" --hours 0.05 --no-cache --jobs "$jobs" > "$SMOKE/figs/$bin.j$jobs.out"
  done
  # exp_megafleet prints wall-clock timings: only its exit status counts.
  if [ "$bin" != exp_megafleet ]; then
    diff -u "$SMOKE/figs/$bin.j1.out" "$SMOKE/figs/$bin.j2.out"
  fi
done
echo "figure-binary smoke: $(ls crates/bench/src/bin/*.rs | wc -l) binaries ran, output independent of --jobs"

# One process, one verdict per guard; exits 1 if any guard failed:
# telemetry overhead (median pair ratio <= 1.05), engine throughput,
# megafleet scale and dense (each >= 0.25 of its recorded rate; scale
# builds within build_secs / 0.25 and its largest day under 10 s) and
# sparse speedup (event driver >= 5x the tick driver on a valley).
echo "== microbench guards (against BENCH_engine_throughput.json)"
cargo bench -q -p heb-bench --bench microbench -- --guard "$PWD/BENCH_engine_throughput.json"

echo "verify: all checks passed"
