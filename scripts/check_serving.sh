#!/usr/bin/env sh
# Verify the serving determinism contract (DESIGN.md, "Serving: artifacts
# & the batch scorer"):
#   1. SafeArtifact text/disk round trips preserve score bits (including
#      property tests over arbitrary plans with NaN params and unicode
#      feature names).
#   2. The batch Scorer is bit-identical to the in-process column path for
#      threads in {1,2,4,7} and across batch sizes.
#   3. The CLI end-to-end path (fit -> save-artifact -> score) reproduces
#      the validation AUC recorded inside the artifact bit-for-bit, and a
#      tampered artifact is rejected by its checksum.
#   4. The decoders a server reads untrusted bytes with are total: the
#      shared record reader, the named codec probes (huge declared counts,
#      a booster tree that loops, deeply nested JSON), and the mutation
#      properties over the plan, booster and artifact codecs return typed
#      errors, never a panic or a hang.
#
# Usage: scripts/check_serving.sh

set -eu

cd "$(dirname "$0")/.."
. scripts/test_filter.sh

echo "check_serving: artifact + scorer unit and property suites"
cargo test --quiet -p safe-serve

echo "check_serving: serial-vs-parallel scorer differential on a real fit"
cargo test --quiet --test serving_differential

echo "check_serving: CLI end-to-end (fit -> save-artifact -> score)"
cargo_test_some --quiet -p safe-cli save_artifact_then_score_reproduces_validation_auc_bitwise
cargo_test_some --quiet -p safe-cli serving_commands_classify_errors

echo "check_serving: decoders are total (record reader, codec probes, mutations, deep JSON)"
cargo_test_some --quiet -p safe-data --lib record
cargo_test_some --quiet -p safe-gbm --lib bad_text_rejected_with_line_numbers
cargo_test_some --quiet -p safe-gbm --lib corrupt_indices_rejected
cargo_test_some --quiet -p safe-core --lib bad_text_is_rejected_with_line_numbers
cargo_test_some --quiet -p safe-serve --lib looping_booster_is_rejected_under_a_valid_checksum
cargo_test_some --quiet -p safe-serve --test proptest_serve mutations_fail_typed
cargo_test_some --quiet --test property_tests plan_mutations_fail_typed
cargo_test_some --quiet -p safe-obs --lib rejects_malformed_input
cargo_test_some --quiet -p safe-cli parse_request_rejects_garbage_with_reasons

echo "check_serving: OK — artifacts round-trip and scoring is bit-stable"
