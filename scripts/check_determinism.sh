#!/usr/bin/env sh
# Verify the parallel determinism contract (DESIGN.md, "Parallel execution
# & determinism contract"): the worker pool's unit tests must pass, the
# serial-vs-parallel differential suite must show bit-identical outcomes
# for threads in {1,2,4,7} with and without failpoints compiled in, and an
# injected worker panic under threads=4 must degrade the iteration instead
# of hanging or unwinding (failpoints build).
#
# Usage: scripts/check_determinism.sh

set -eu

cd "$(dirname "$0")/.."
. scripts/test_filter.sh

echo "check_determinism: worker pool unit tests"
cargo_test_some --quiet -p safe-stats par::

echo "check_determinism: serial-vs-parallel differential suite"
cargo test --quiet --test parallel_differential

echo "check_determinism: the same suite as a whole file under failpoints"
cargo test --quiet --features failpoints --test parallel_differential

echo "check_determinism: worker-panic smoke under threads=4 (failpoints)"
cargo_test_some --quiet --features failpoints --test parallel_differential \
    failpoint_differential

echo "check_determinism: OK — parallel runs are bit-identical and panic-safe"
