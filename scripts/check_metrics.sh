#!/usr/bin/env sh
# Validate the metrics & profiling layer end to end: one CLI fit with every
# export flag attached must produce (1) a Chrome trace that the CLI's own
# `trace-check --format chrome` validator accepts, (2) a non-empty
# Prometheus exposition with histogram TYPE metadata and the mandatory
# +Inf bucket, (3) non-empty folded flamegraph stacks — the counting
# allocator (`alloc-metrics`) must build into safe-cli and pass safe-obs's
# tests, and the bench regression gate must pass a self-compare of
# BENCH_pipeline.json and fail an injected regression with exit code 8.
#
# Usage: scripts/check_metrics.sh

set -eu

cd "$(dirname "$0")/.."

WORK="${TMPDIR:-/tmp}/safe_check_metrics_$$"
mkdir -p "$WORK"
trap 'rm -rf "$WORK"' EXIT

echo "check_metrics: building safe-cli"
cargo build --quiet --release -p safe-cli
CLI=target/release/safe-cli

# A tiny training set whose label depends on a*b.
awk 'BEGIN {
    print "a,b,noise,label"
    for (i = 0; i < 300; i++) {
        a = ((i * 37) % 100) / 50.0 - 1.0
        b = ((i * 61) % 100) / 50.0 - 1.0
        print a "," b "," ((i * 17) % 100) "," ((a * b > 0) ? 1 : 0)
    }
}' > "$WORK/train.csv"

echo "check_metrics: fitting with --trace-chrome/--metrics-prom/--flame-folded"
"$CLI" fit --input "$WORK/train.csv" --plan "$WORK/plan.safeplan" --seed 3 \
    --trace-chrome "$WORK/trace.json" \
    --metrics-prom "$WORK/metrics.prom" \
    --flame-folded "$WORK/stacks.folded" 2>/dev/null

# 1. Chrome trace validates under the CLI's own checker.
"$CLI" trace-check --input "$WORK/trace.json" --format chrome

# 2. Prometheus exposition is non-empty and structurally sound.
for needle in "# TYPE safe_stage_us histogram" "safe_stage_us_bucket{" \
              'le="+Inf"' "safe_stage_us_count" "safe_iteration_us_count" \
              "safe_gbm_round_us"; do
    if ! grep -qF "$needle" "$WORK/metrics.prom"; then
        echo "check_metrics: FAILED — prometheus output missing '$needle'" >&2
        exit 1
    fi
done

# 3. Folded stacks nest stages under the iteration frame.
if ! grep -q "^iteration;" "$WORK/stacks.folded"; then
    echo "check_metrics: FAILED — folded stacks have no nested frames" >&2
    exit 1
fi

# 4. The alloc-metrics feature builds and its instrumentation tests pass.
echo "check_metrics: building and testing the alloc-metrics feature"
cargo test --quiet -p safe-obs --features alloc-metrics
cargo build --quiet -p safe-cli --features alloc-metrics

# 5. bench-diff: self-compare of the checked-in document exits 0...
"$CLI" bench-diff BENCH_pipeline.json BENCH_pipeline.json >/dev/null

# ...and an injected across-the-board 10x slowdown trips the gate (exit 8).
sed -e 's/"millis":\([0-9]*\)\./"millis":\19./g' \
    -e 's/"secs":\([0-9]*\)\./"secs":\19./g' \
    BENCH_pipeline.json > "$WORK/regressed.json"
set +e
"$CLI" bench-diff BENCH_pipeline.json "$WORK/regressed.json" >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 8 ]; then
    echo "check_metrics: FAILED — injected regression exited $code, want 8" >&2
    exit 1
fi

echo "check_metrics: OK — chrome trace valid, prom output sound, alloc-metrics builds, bench-diff gates"
