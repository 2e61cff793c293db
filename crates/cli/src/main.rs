//! # safe-cli — SAFE feature engineering from the command line
//!
//! ```text
//! safe-cli fit     --input train.csv [--valid valid.csv] --plan out.safeplan
//!                  [--label label] [--gamma 30] [--alpha 0.1] [--theta 0.8]
//!                  [--iterations 1] [--multiplier 2] [--seed 0] [--full-ops]
//! safe-cli resume  --checkpoint-dir DIR --input train.csv --plan out.safeplan
//! safe-cli apply   --plan plan.safeplan --input data.csv --output out.csv
//! safe-cli explain --plan plan.safeplan [--input data.csv]
//! safe-cli score   --input data.csv [--label label]     # per-feature IV table
//! safe-cli serve   --artifact model.safeartifact        # JSONL scoring daemon
//! safe-cli bench-serve                                  # daemon throughput bench
//! ```
//!
//! CSV convention: header row, numeric cells, label column named `label`
//! (override with `--label`), empty/NA cells are missing.

//! Exit codes: 0 success, 2 usage, 3 file i/o, 4 bad input data, 5 bad
//! plan, 6 pipeline rejection, 7 unrecoverable checkpoint state, 8 bench
//! regression found by `bench-diff` (the authoritative table is the `EXIT
//! CODES` section of `safe-cli help`). Errors print their full cause
//! chain, one `caused by:` line per nested source.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::process::ExitCode;

mod args;
mod benchdiff;
mod commands;
mod error;
mod serve;

// With the alloc-metrics feature the whole binary runs under the counting
// allocator, so --metrics-prom reports per-stage allocation counts/bytes
// and the peak high-water mark. Off by default: the count is a few atomic
// ops per allocation, but zero-overhead means zero-overhead.
#[cfg(feature = "alloc-metrics")]
#[global_allocator]
static ALLOCATOR: safe_obs::alloc::CountingAllocator = safe_obs::alloc::CountingAllocator;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}", e.render_chain());
            ExitCode::from(e.exit_code())
        }
    }
}
