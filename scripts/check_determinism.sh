#!/usr/bin/env sh
# Verify the parallel determinism contract (DESIGN.md, "Parallel execution
# & determinism contract"): the worker pool's unit tests must pass, the
# booster must grow the recorded golden bytes at threads {1,2,4}, agree
# with the exact-greedy split oracle, and recycle its histogram sets
# across trees, the serial-vs-parallel differential suite must show
# bit-identical outcomes for threads in {1,2,4,7} with and without
# failpoints compiled in, and an injected worker panic under threads=4
# must degrade the iteration instead of hanging or unwinding (failpoints
# build). The column kernels must reproduce what their earlier versions
# computed: plans, IVs, kept lists and bin thresholds recorded before the
# kernels changed (plan_golden), equal-frequency cuts against the
# sort-based reference, the four-column Pearson sweep against `pearson`,
# and batch operator application against row-by-row application.
#
# Usage: scripts/check_determinism.sh

set -eu

cd "$(dirname "$0")/.."
. scripts/test_filter.sh

echo "check_determinism: worker pool unit tests"
cargo_test_some --quiet -p safe-stats par::

echo "check_determinism: booster golden bytes and exact-greedy split oracle"
cargo test --quiet -p safe-gbm --test grow_golden --test split_oracle

echo "check_determinism: booster histogram sets are recycled across trees"
cargo_test_some --quiet -p safe-gbm grow::tests::histogram_sets_are_recycled_across_trees

echo "check_determinism: recorded plans, IVs, kept lists and bin thresholds"
cargo test --quiet -p safe-core --test plan_golden

echo "check_determinism: column kernels against their reference computations"
cargo_test_some --quiet -p safe-data --test proptest_data \
    equal_frequency_cuts_match_the_sorted_reference
cargo_test_some --quiet -p safe-stats --test proptest_stats \
    four_column_sweep_is_bitwise_pearson
cargo test --quiet -p safe-ops --test apply_rows

echo "check_determinism: serial-vs-parallel differential suite"
cargo test --quiet --test parallel_differential

echo "check_determinism: the same suite as a whole file under failpoints"
cargo test --quiet --features failpoints --test parallel_differential

echo "check_determinism: worker-panic smoke under threads=4 (failpoints)"
cargo_test_some --quiet --features failpoints --test parallel_differential \
    failpoint_differential

echo "check_determinism: OK — parallel runs are bit-identical and panic-safe, the booster grows its recorded bytes and the oracle's splits, and the column kernels reproduce their recorded plans and reference computations"
