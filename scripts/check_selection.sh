#!/usr/bin/env sh
# Validate the selection-mode surface end to end: (1) a CLI fit with
# `--selection exact` must produce byte-identical plan output to a fit
# that never mentions the flag (exact is the default and is pinned to the
# seed pipeline), (2) `--selection staged` must fit successfully and
# produce a non-empty plan, (3) an invalid mode must be rejected as a
# usage error (exit 2), (4) the bench regression gate must cover the
# `selection` section of BENCH_pipeline.json — self-compare passes, an
# injected slowdown of the staged row trips exit code 8 — and (5) the
# three suites that pin selection pass: the exact-vs-staged differential,
# the staged pruner's properties, and the redundancy scan's naive
# reference.
#
# Usage: scripts/check_selection.sh

set -eu

cd "$(dirname "$0")/.."

WORK="${TMPDIR:-/tmp}/safe_check_selection_$$"
mkdir -p "$WORK"
trap 'rm -rf "$WORK"' EXIT

echo "check_selection: building safe-cli"
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

# 1. Exact mode is the default: explicit flag and no flag agree byte-wise.
echo "check_selection: exact mode is byte-identical to the default"
"$CLI" fit --input "$WORK/train.csv" --plan "$WORK/default.safeplan" --seed 3 \
    >/dev/null 2>&1
"$CLI" fit --input "$WORK/train.csv" --plan "$WORK/exact.safeplan" --seed 3 \
    --selection exact >/dev/null 2>&1
if ! cmp -s "$WORK/default.safeplan" "$WORK/exact.safeplan"; then
    echo "check_selection: FAILED — --selection exact diverged from the default plan" >&2
    exit 1
fi

# 2. Staged mode fits and writes a non-empty plan.
echo "check_selection: staged mode fits"
"$CLI" fit --input "$WORK/train.csv" --plan "$WORK/staged.safeplan" --seed 3 \
    --selection staged >/dev/null 2>&1
if ! [ -s "$WORK/staged.safeplan" ]; then
    echo "check_selection: FAILED — staged fit produced an empty plan" >&2
    exit 1
fi

# 3. An unknown mode is a usage error (exit 2), not a crash.
set +e
"$CLI" fit --input "$WORK/train.csv" --plan "$WORK/bad.safeplan" --seed 3 \
    --selection sloppy >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 2 ]; then
    echo "check_selection: FAILED — invalid --selection exited $code, want 2" >&2
    exit 1
fi

# 4. bench-diff gates the selection section: self-compare exits 0...
"$CLI" bench-diff BENCH_pipeline.json BENCH_pipeline.json >/dev/null

# ...and a 10x regression injected into combined_millis trips exit 8.
sed -e 's/"combined_millis":\([0-9]*\)\./"combined_millis":\19./g' \
    BENCH_pipeline.json > "$WORK/regressed.json"
set +e
"$CLI" bench-diff BENCH_pipeline.json "$WORK/regressed.json" >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 8 ]; then
    echo "check_selection: FAILED — injected selection regression exited $code, want 8" >&2
    exit 1
fi

# 5. The selection suites.
echo "check_selection: selection suites"
cargo test --quiet --test selection_differential
cargo test --quiet -p safe-core --test proptest_staged --test redundancy_reference

echo "check_selection: OK — exact pinned, staged fits, flag validated, bench-diff gates, suites pass"
