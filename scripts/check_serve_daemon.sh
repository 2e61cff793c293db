#!/usr/bin/env sh
# Verify the scoring-daemon contract (DESIGN.md, "The serving daemon"):
#   1. The queue and service unit suites (MPMC delivery, coalescing,
#      backpressure, close-and-drain, swap version stamping).
#   2. The daemon differential: streamed scores are bit-identical to the
#      offline ScorerHandle at worker counts {1,2,4}, under ragged
#      submission patterns, and across mid-stream artifact hot-swaps —
#      every response's (version, score_bits) pair matches a
#      single-artifact offline replay.
#   3. The CLI surface: serve's JSONL loop (including a hot-swap) and
#      bench-serve's serving_daemon section of BENCH_pipeline.json.
#   4. The bench gate: a bench-serve run self-compares clean through
#      bench-diff (exit 0), and an injected regression trips exit 8.
#
# Usage: scripts/check_serve_daemon.sh

set -eu

cd "$(dirname "$0")/.."
. scripts/test_filter.sh

echo "check_serve_daemon: queue + service unit suites"
cargo_test_some --quiet -p safe-serve queue::
cargo_test_some --quiet -p safe-serve service::

echo "check_serve_daemon: streamed-vs-offline differential (workers x chunking x swaps)"
cargo test --quiet --test serve_daemon_differential

echo "check_serve_daemon: CLI serve/bench-serve end-to-end"
cargo_test_some --quiet -p safe-cli daemon_commands_reject_nonpositive_tuning_flags
cargo_test_some --quiet -p safe-cli serve_daemon_scores_jsonl_and_hot_swaps_mid_stream
cargo_test_some --quiet -p safe-cli bench_serve_writes_daemon_section_preserving_others

echo "check_serve_daemon: bench-serve -> bench-diff exit-code contract"
cargo build --quiet --release -p safe-cli
CLI=target/release/safe-cli
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Enough requests that wall secs is comfortably nonzero at 4 decimals
# (a 0.0000 baseline would make any growth read as 0% and skip the gate).
"$CLI" bench-serve --requests 10000 --workers 1,2 \
    --pipeline-out "$WORK/baseline.json" >/dev/null

# Self-compare: identical documents never regress.
"$CLI" bench-diff "$WORK/baseline.json" "$WORK/baseline.json" >/dev/null

# Inject a 10x wall-time regression into the serving_daemon rows; the
# (clearly above the 0.05s noise floor) candidate must trip exit 8.
sed 's/"secs":\([0-9]*\)\./"secs":\19./g' "$WORK/baseline.json" > "$WORK/regressed.json"
if "$CLI" bench-diff "$WORK/baseline.json" "$WORK/regressed.json" >/dev/null 2>&1; then
    echo "check_serve_daemon: FAIL — injected serving_daemon regression passed the gate"
    exit 1
else
    code=$?
    if [ "$code" -ne 8 ]; then
        echo "check_serve_daemon: FAIL — expected exit 8 from bench-diff, got $code"
        exit 1
    fi
fi

echo "check_serve_daemon: OK — daemon scores are bit-stable across workers, coalescing, and hot swaps"
