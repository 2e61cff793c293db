#!/usr/bin/env sh
# Verify the cross-iteration cache contract (DESIGN.md section 12): cached
# runs (bin cache + histogram subtraction) must be
# bit-identical to cold `cache: false` runs on every dataset shape and
# thread budget the differential suite covers, the incremental
# `BinnedDataset::extend_with` path must equal a fresh fit of the
# concatenated matrix, and warm iterations must actually reuse cached
# columns (telemetry hit counters).
#
# Usage: scripts/check_cache.sh

set -eu

cd "$(dirname "$0")/.."
. scripts/test_filter.sh

echo "check_cache: cached-vs-cold differential suite"
cargo test --quiet --test cache_differential

echo "check_cache: binner + booster cache unit suites"
cargo_test_some --quiet -p safe-gbm binner
cargo_test_some --quiet -p safe-gbm booster::tests::cached_fit_is_bit_identical_to_fit

echo "check_cache: OK — cached runs are bit-identical and warm iterations reuse work"
