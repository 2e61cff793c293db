#!/usr/bin/env sh
# Fail if any hardened crate's non-test code reintroduces unwrap()/expect(),
# or if safe-core's non-test code reintroduces panic!().
#
# The hardened crates (the libraries safe-data, safe-gbm, safe-ops,
# safe-core, safe-obs, safe-serve, safe-stats, safe-models, safe-baselines,
# and the safe-cli binary, which reads untrusted files and daemon requests)
# carry `#![warn(clippy::unwrap_used, clippy::expect_used)]`; safe-core
# adds `clippy::panic`, because a failed column read is an error value,
# never a captured panic. Tests are exempt — each crate allows the lints
# under #[cfg(test)]. safe-cli has no library target, so it is checked
# with --bins. The two injected worker panics in safe-core
# (select/iv-worker-panic, select/staged-worker-panic) carry a local allow;
# the failpoints build of safe-core is checked too.
#
# An in-source `#![warn(...)]` outranks a command-line `-D clippy::<lint>`,
# so denying the lints by name would leave them warnings. Instead every
# step allows clippy's default groups and denies all remaining warnings:
# the crates' own restriction lints above (and any rustc warning).
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
    -p safe-serve -p safe-stats -p safe-models -p safe-baselines \
    --no-deps --lib --quiet -- \
    -A clippy::all -D warnings

cargo clippy -p safe-cli --no-deps --bins --quiet -- \
    -A clippy::all -D warnings

cargo clippy -p safe-core --features failpoints --no-deps --lib --quiet -- \
    -A clippy::all -D warnings

echo "check_panics: OK — no unwrap/expect in hardened library or CLI code, no panic! in safe-core"
