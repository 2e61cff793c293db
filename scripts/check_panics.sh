#!/usr/bin/env sh
# Fail if any hardened crate's non-test code reintroduces unwrap()/expect().
#
# The hardened crates (the libraries safe-data, safe-gbm, safe-ops,
# safe-core, safe-obs, safe-serve, safe-stats, and the safe-cli binary,
# which reads untrusted files and daemon requests) carry
# `#![warn(clippy::unwrap_used, clippy::expect_used)]`; this script promotes
# those warnings to errors so CI can gate on them. Tests are exempt — each
# crate allows the lints under #[cfg(test)]. safe-cli has no library
# target, so it is checked with --bins.
#
# Usage: scripts/check_panics.sh

set -eu

cd "$(dirname "$0")/.."

if ! cargo clippy --version >/dev/null 2>&1; then
    echo "check_panics: cargo clippy is not installed; skipping" >&2
    exit 0
fi

cargo clippy \
    -p safe-data -p safe-gbm -p safe-ops -p safe-core -p safe-obs \
    -p safe-serve -p safe-stats \
    --no-deps --lib --quiet -- \
    -D clippy::unwrap_used \
    -D clippy::expect_used

cargo clippy -p safe-cli --no-deps --bins --quiet -- \
    -D clippy::unwrap_used \
    -D clippy::expect_used

echo "check_panics: OK — no unwrap/expect in hardened library or CLI code"
