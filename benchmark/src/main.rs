//! End-to-end and per-layer benchmark of the SAFE workspace.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]
//! ```
//!
//! With `--workload`, one workload runs in this process and the last line
//! of standard output is `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics, or with `--trace 1` the per-layer ones. Without
//! it, every workload runs in a child process of its own, so peak memory
//! and allocator state belong to one workload, and the last line holds all
//! of them as `<workload>.<metric>`. A table of every measured metric goes
//! to standard error. See README.md for the workloads and metrics.

mod fit;
mod inputs;
mod kernels;
mod layers;
mod metrics;
mod proc;
mod score;
mod serve;
mod summary;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use safe_obs::json::{self, Value};

use metrics::{detail_json, result_json, table, Results, END_TO_END, PER_LAYER};
use workload::{Ctx, Workload};

const USAGE: &str =
    "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 20.0,
        trace: false,
        trace_dir: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// A private directory under `.bench_tmp/` in the working directory,
/// removed with everything in it when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn create(workload: Workload) -> Result<Scratch, String> {
        let dir =
            Path::new(".bench_tmp").join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let scratch = Scratch::create(workload)?;
    let ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        trace: args.trace,
        trace_dir: args.trace_dir.clone(),
        nproc,
        scratch: scratch.0.clone(),
    };
    let mut r = Results::default();
    let ran = workload.run(&ctx, &mut r);
    drop(scratch);
    for p in &r.problems {
        eprintln!("benchmark: {}: check failed: {p}", workload.name());
    }
    ran?;
    r.push("peak_rss_mb", proc::peak_rss_mb()?);

    let e2e = r.collect(END_TO_END)?;
    let mut shown = e2e.clone();
    let layer = if args.trace {
        Some(r.collect(PER_LAYER)?)
    } else {
        None
    };
    shown.extend(layer.iter().flatten().copied());
    let title = format!(
        "{} (seed {}, nproc {}, {} ops, {} failed)",
        workload.name(),
        args.seed,
        nproc,
        r.attempted,
        r.failed
    );
    eprint!("{}", table(&title, &shown));
    println!("{}", detail_json(workload.name(), args.seed, nproc, &shown));
    println!("{}", result_json(&r, layer.as_deref().unwrap_or(&e2e)));
    Ok(r.correct())
}

/// Run every workload in a child process of its own and merge their
/// result lines.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut merged = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(dir) = &args.trace_dir {
            cmd.arg("--trace-dir").arg(dir);
        }
        let out = cmd.output().map_err(|e| format!("{}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        let result =
            json::parse(last).map_err(|e| format!("{}: no result line ({e})", w.name()))?;
        correct &= out.status.success() && result.get("correct") == Some(&Value::Bool(true));
        attempted += result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        for (name, v) in result
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap_or_default()
        {
            merged.push((format!("{}.{name}", w.name()), v.clone()));
        }
    }
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Number(attempted)),
        ("failed".into(), Value::Number(failed)),
        ("metrics".into(), Value::Object(merged)),
    ]);
    println!("{}", line.to_json());
    Ok(correct)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: correctness checks failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_command_line_parses() {
        let a = parse("--workload fit-tall --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Some(Workload::FitTall));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let d = parse("").expect("defaults");
        assert_eq!((d.workload, d.seed, d.trace), (None, 42, false));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--bogus 1",
            "--seed",
        ] {
            assert!(parse(bad).is_err(), "{bad} was accepted");
        }
    }
}
