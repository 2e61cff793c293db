#!/usr/bin/env sh
# Run every repository gate in sequence: determinism, telemetry, metrics &
# profiling exports, serving, caching, crash safety, the out-of-core
# backend, the no-panic clippy gate, and the intra-doc-link gate for
# safe-core, safe-gbm, safe-obs, safe-data and safe-stats. This is the one
# entry point CI (or a pre-merge human) needs; each sub-script prints its
# own `OK` line and any failure aborts the aggregate immediately.
#
# Usage: scripts/check_all.sh

set -eu

cd "$(dirname "$0")/.."

for check in \
    check_determinism \
    check_telemetry \
    check_metrics \
    check_selection \
    check_serving \
    check_serve_daemon \
    check_cache \
    check_crash_safety \
    check_oocore \
    check_panics; do
    echo "==> scripts/${check}.sh"
    sh "scripts/${check}.sh"
done

echo "==> rustdoc: no broken intra-doc links in safe-core, safe-gbm, safe-obs, safe-data, safe-stats"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
    cargo doc --offline --no-deps --quiet \
    -p safe-core -p safe-gbm -p safe-obs -p safe-data -p safe-stats

echo "check_all: OK — all gates passed"
