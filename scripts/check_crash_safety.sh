#!/usr/bin/env sh
# Verify the crash-safety contract (DESIGN.md section 13): killing a run at
# any checkpoint failpoint and resuming must reproduce the uninterrupted
# run bit-for-bit (plans, funnel history, structural reports, downstream
# AUC bits) at every thread budget the chaos suite covers; torn or corrupt
# snapshots must be quarantined with fallback to the previous good one; the
# SAFECKPT codec must round-trip hostile inputs and turn mutated, resealed
# snapshots into typed errors or fixed points; and the failpoint roster,
# its call sites, its fault suites, and the DESIGN.md table must agree.
#
# Usage: scripts/check_crash_safety.sh

set -eu

cd "$(dirname "$0")/.."
. scripts/test_filter.sh

echo "check_crash_safety: I/O fault chaos suite (kill + resume differentials)"
cargo test --quiet --features failpoints --test crash_differential

echo "check_crash_safety: failpoint registry drift"
cargo test --quiet --test failpoint_registry_drift

echo "check_crash_safety: SAFECKPT codec property suite + store unit suite"
cargo test --quiet -p safe-core --test proptest_checkpoint
cargo_test_some --quiet -p safe-core --test proptest_checkpoint checkpoint_mutations_fail_typed
cargo_test_some --quiet -p safe-core checkpoint

echo "check_crash_safety: OK — kill/resume is bit-identical and corruption is quarantined"
