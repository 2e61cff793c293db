//! Durable training checkpoints: the `SAFECKPT 1` codec and the atomic
//! on-disk store (see `DESIGN.md` §13, "Crash safety & resume").
//!
//! After every completed iteration the fit loop can snapshot everything a
//! future process needs to continue the run bit-identically:
//!
//! - the iteration history ([`crate::safe::IterationReport`]s),
//! - the per-iteration [`FeaturePlan`] snapshots (the last one is the
//!   "last-good plan" resume rebuilds the working feature set from),
//! - the seed position (the per-iteration RNG seed is a pure function of
//!   `config.seed` and the iteration index, so the index *is* the RNG
//!   position),
//! - bin-cache provenance ([`BinCache`](safe_gbm::binner::BinCache) keys —
//!   metadata only; cached columns are rebuilt bit-identically from data),
//! - the [`RunReport`] accumulated so far.
//!
//! ## Durability protocol
//!
//! [`CheckpointStore::save`] writes a temp file, fsyncs it, then renames it
//! into place — a crash at any point leaves either the previous complete
//! checkpoint set or a stray `.tmp` the loader ignores. On load,
//! [`CheckpointStore::load_latest`] walks checkpoints newest-first; a file
//! that fails the FNV-1a/64 checksum (or any parse step) is *quarantined*
//! (renamed to `<file>.corrupt`) and the loader falls back to the previous
//! good checkpoint. Only when checkpoint files exist but none loads does
//! resume become an error.
//!
//! The codec reuses the workspace's durable-text idioms from the
//! `SAFEARTIFACT` serving bundle: a version header, a `CHECKSUM` line
//! ([`safe_data::checksum::fnv1a64`] over the body), tab-separated records,
//! floats as 16-hex-digit IEEE-754 bit patterns. Unlike the artifact, no
//! `SAFEGBM` booster section is embedded: the miner/ranker boosters are
//! per-iteration ephemera, retrained from scratch each iteration, so a
//! resumed run rebuilds them bit-identically from the data.

use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use safe_data::checksum::fnv1a64;
use safe_obs::RunReport;

use crate::config::{GenerationStrategy, SafeConfig, SelectionMode};
use crate::plan::FeaturePlan;
use crate::safe::{IterationReport, IterationStatus};

/// Why the checkpointed run stopped (or didn't).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// More iterations remain; resume continues the loop.
    Running,
    /// The selected set stopped changing; the run is finished.
    Converged,
    /// A stage failure degraded the run; the loop stopped.
    Degraded,
    /// The time budget expired before the last iteration ran.
    Skipped,
    /// The configured `n_iterations` budget is exhausted.
    ItersExhausted,
}

impl Terminal {
    fn as_str(self) -> &'static str {
        match self {
            Terminal::Running => "running",
            Terminal::Converged => "converged",
            Terminal::Degraded => "degraded",
            Terminal::Skipped => "skipped",
            Terminal::ItersExhausted => "iters-exhausted",
        }
    }

    fn parse(s: &str) -> Option<Terminal> {
        match s {
            "running" => Some(Terminal::Running),
            "converged" => Some(Terminal::Converged),
            "degraded" => Some(Terminal::Degraded),
            "skipped" => Some(Terminal::Skipped),
            "iters-exhausted" => Some(Terminal::ItersExhausted),
            _ => None,
        }
    }

    /// Whether the checkpointed run is finished (resume reconstructs the
    /// outcome without running further iterations).
    pub fn is_final(self) -> bool {
        !matches!(self, Terminal::Running)
    }
}

/// The configuration values that determine a run's results. A checkpoint
/// may only be resumed under a config with the same fingerprint — anything
/// here differing would change what the remaining iterations compute.
#[derive(Debug, Clone)]
pub struct ConfigFingerprint {
    /// Base seed (per-iteration seeds derive from it).
    pub seed: u64,
    /// γ — combinations kept per iteration.
    pub gamma: usize,
    /// α — IV threshold.
    pub alpha: f64,
    /// β — IV bin count.
    pub beta: usize,
    /// θ — Pearson redundancy threshold.
    pub theta: f64,
    /// Output cap multiplier.
    pub output_multiplier: usize,
    /// Iteration budget.
    pub n_iterations: usize,
    /// Generation strategy.
    pub strategy: GenerationStrategy,
    /// Selection mode (exact vs staged successive halving). Result-
    /// determining: the modes keep different feature sets.
    pub selection: SelectionMode,
    /// Whether the cross-iteration caches were on (results are identical
    /// either way; recorded for provenance, not compared).
    pub cache: bool,
}

impl ConfigFingerprint {
    /// Extract the fingerprint of a configuration.
    pub fn of(config: &SafeConfig) -> ConfigFingerprint {
        ConfigFingerprint {
            seed: config.seed,
            gamma: config.gamma,
            alpha: config.alpha,
            beta: config.beta,
            theta: config.theta,
            output_multiplier: config.output_multiplier,
            n_iterations: config.n_iterations,
            strategy: config.strategy,
            selection: config.selection,
            cache: config.cache,
        }
    }

    /// Bit-exact equality over the result-determining fields (`cache` is
    /// excluded: cached and cold runs are bit-identical by construction).
    pub fn matches(&self, other: &ConfigFingerprint) -> bool {
        self.seed == other.seed
            && self.gamma == other.gamma
            && self.alpha.to_bits() == other.alpha.to_bits()
            && self.beta == other.beta
            && self.theta.to_bits() == other.theta.to_bits()
            && self.output_multiplier == other.output_multiplier
            && self.n_iterations == other.n_iterations
            && self.strategy == other.strategy
            && self.selection == other.selection
    }
}

fn strategy_str(s: GenerationStrategy) -> &'static str {
    match s {
        GenerationStrategy::Mined => "mined",
        GenerationStrategy::RandomSplitFeatures => "random-split",
        GenerationStrategy::RandomAllFeatures => "random-all",
    }
}

fn strategy_parse(s: &str) -> Option<GenerationStrategy> {
    match s {
        "mined" => Some(GenerationStrategy::Mined),
        "random-split" => Some(GenerationStrategy::RandomSplitFeatures),
        "random-all" => Some(GenerationStrategy::RandomAllFeatures),
        _ => None,
    }
}

fn selection_str(s: SelectionMode) -> &'static str {
    match s {
        SelectionMode::Exact => "exact",
        SelectionMode::Staged => "staged",
    }
}

fn selection_parse(s: &str) -> Option<SelectionMode> {
    match s {
        "exact" => Some(SelectionMode::Exact),
        "staged" => Some(SelectionMode::Staged),
        _ => None,
    }
}

/// One durable snapshot of an in-progress (or finished) fit.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Fingerprint of the configuration that produced this snapshot.
    pub fingerprint: ConfigFingerprint,
    /// Iterations recorded so far (`== history.len()`); resume continues
    /// the loop at this index.
    pub iterations_done: usize,
    /// How the run stood when the snapshot was taken.
    pub terminal: Terminal,
    /// Wall-clock spent in the run so far, in integer microseconds (resume
    /// charges this against the time budget).
    pub elapsed_us: u64,
    /// Full iteration history so far.
    pub history: Vec<IterationReport>,
    /// Plan snapshot after each iteration; the last is the last-good plan.
    pub plans: Vec<FeaturePlan>,
    /// The telemetry report accumulated so far.
    pub report: RunReport,
    /// `(column name, max_bins)` keys the bin cache held (provenance).
    pub bin_keys: Vec<(String, usize)>,
}

/// Errors from checkpoint serialization, parsing, or storage.
#[derive(Debug)]
pub enum CkptError {
    /// Filesystem failure (write, fsync, rename, read).
    Io(std::io::Error),
    /// The checksum line does not match the body — torn or corrupted file.
    Checksum {
        /// Checksum the header claims.
        expected: u64,
        /// Checksum of the body as read.
        actual: u64,
    },
    /// The body failed to parse.
    Parse {
        /// 1-based line number in the file.
        line: usize,
        /// Description.
        message: String,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CkptError::Checksum { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: header says {expected:016x}, body hashes to {actual:016x}"
            ),
            CkptError::Parse { line, message } => {
                write!(f, "checkpoint parse error, line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// Escape a free-form string (degradation reasons) for a tab-separated
/// record: `\` `\t` `\n` `\r` become two-character escapes.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Degraded stages are a closed vocabulary; parsing maps back to the
/// `&'static str` the loop uses so resumed and fresh histories compare `==`.
fn stage_static(s: &str) -> Option<&'static str> {
    ["mine", "generate", "staged-prune", "iv-filter", "redundancy", "rank", "select"]
        .into_iter()
        .find(|known| s == *known)
}

impl Checkpoint {
    /// Serialize to the versioned `SAFECKPT 1` text codec: a header line, a
    /// `CHECKSUM` line (FNV-1a/64 of everything after it), then the body.
    pub fn to_text(&self) -> String {
        let body = self.body();
        format!(
            "SAFECKPT\t1\nCHECKSUM\t{:016x}\n{}",
            fnv1a64(body.as_bytes()),
            body
        )
    }

    fn body(&self) -> String {
        let mut out = String::with_capacity(4096);
        let f = &self.fingerprint;
        let _ = writeln!(out, "CONFIG\tseed\t{}", f.seed);
        let _ = writeln!(out, "CONFIG\tgamma\t{}", f.gamma);
        let _ = writeln!(out, "CONFIG\talpha\t{:016x}", f.alpha.to_bits());
        let _ = writeln!(out, "CONFIG\tbeta\t{}", f.beta);
        let _ = writeln!(out, "CONFIG\ttheta\t{:016x}", f.theta.to_bits());
        let _ = writeln!(out, "CONFIG\tmultiplier\t{}", f.output_multiplier);
        let _ = writeln!(out, "CONFIG\tn_iterations\t{}", f.n_iterations);
        let _ = writeln!(out, "CONFIG\tstrategy\t{}", strategy_str(f.strategy));
        let _ = writeln!(out, "CONFIG\tselection\t{}", selection_str(f.selection));
        let _ = writeln!(out, "CONFIG\tcache\t{}", u8::from(f.cache));
        let _ = writeln!(out, "STATE\titerations_done\t{}", self.iterations_done);
        let _ = writeln!(out, "STATE\tterminal\t{}", self.terminal.as_str());
        let _ = writeln!(out, "STATE\telapsed_us\t{}", self.elapsed_us);
        for (r, plan) in self.history.iter().zip(&self.plans) {
            let _ = writeln!(
                out,
                "ITER\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                r.iteration,
                r.n_combinations,
                r.n_combinations_kept,
                r.n_generated,
                r.n_candidates,
                r.n_after_iv,
                r.n_after_redundancy,
                r.n_selected,
                r.elapsed_us,
            );
            match &r.status {
                IterationStatus::Completed => {
                    let _ = writeln!(out, "STATUS\t{}\tcompleted", r.iteration);
                }
                IterationStatus::Degraded { stage, reason } => {
                    let _ = writeln!(
                        out,
                        "STATUS\t{}\tdegraded\t{}\t{}",
                        r.iteration,
                        stage,
                        escape(reason)
                    );
                }
                IterationStatus::Skipped { reason } => {
                    let _ =
                        writeln!(out, "STATUS\t{}\tskipped\t{}", r.iteration, escape(reason));
                }
            }
            let _ = write!(out, "SELECTED\t{}\t{}", r.iteration, r.selected.len());
            for name in &r.selected {
                // Plan names are codec-safe (no tabs/newlines) by
                // `FeaturePlan::validate`; selected names come from plans.
                out.push('\t');
                out.push_str(name);
            }
            out.push('\n');
            let _ = writeln!(out, "PLAN_BEGIN\t{}", r.iteration);
            out.push_str(&plan.to_text());
            out.push_str("PLAN_END\n");
        }
        for (name, max_bins) in &self.bin_keys {
            let _ = writeln!(out, "BINKEY\t{max_bins}\t{name}");
        }
        out.push_str("REPORT_BEGIN\n");
        out.push_str(&self.report.to_json());
        out.push_str("REPORT_END\n");
        out
    }

    /// Parse the text codec. The checksum is verified before any record is
    /// interpreted, so a torn or bit-flipped file fails closed with
    /// [`CkptError::Checksum`].
    pub fn from_text(text: &str) -> Result<Checkpoint, CkptError> {
        let mut parts = text.splitn(3, '\n');
        let header = parts.next().unwrap_or("");
        if header != "SAFECKPT\t1" {
            return Err(CkptError::Parse {
                line: 1,
                message: "bad header (expected SAFECKPT v1)".into(),
            });
        }
        let checksum_line = parts.next().ok_or(CkptError::Parse {
            line: 2,
            message: "missing CHECKSUM line".into(),
        })?;
        let expected = checksum_line
            .strip_prefix("CHECKSUM\t")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or(CkptError::Parse {
                line: 2,
                message: "bad CHECKSUM line".into(),
            })?;
        let body = parts.next().unwrap_or("");
        let actual = fnv1a64(body.as_bytes());
        if actual != expected {
            return Err(CkptError::Checksum { expected, actual });
        }
        Self::parse_body(body)
    }

    fn parse_body(body: &str) -> Result<Checkpoint, CkptError> {
        // Line numbers are offset by the 2 header lines for error messages.
        let err = |line: usize, message: String| CkptError::Parse { line: line + 3, message };

        let mut fingerprint: Option<ConfigFingerprint> = None;
        let mut cfg: Vec<(String, String)> = Vec::new();
        let mut iterations_done: Option<usize> = None;
        let mut terminal: Option<Terminal> = None;
        let mut elapsed_us: Option<u64> = None;
        let mut history: Vec<IterationReport> = Vec::new();
        let mut plans: Vec<FeaturePlan> = Vec::new();
        let mut have_status: Vec<bool> = Vec::new();
        let mut have_selected: Vec<bool> = Vec::new();
        let mut report: Option<RunReport> = None;
        let mut bin_keys: Vec<(String, usize)> = Vec::new();

        // Section accumulation for the PLAN / REPORT blocks.
        let mut section: Option<(&str, usize, String)> = None;

        for (i, line) in body.lines().enumerate() {
            if let Some((kind, start, acc)) = section.as_mut() {
                match (*kind, line) {
                    ("plan", "PLAN_END") => {
                        let plan = FeaturePlan::from_text(acc)
                            .map_err(|e| err(*start, format!("embedded plan: {e}")))?;
                        plans.push(plan);
                        section = None;
                    }
                    ("report", "REPORT_END") => {
                        report = Some(
                            RunReport::from_json(acc)
                                .map_err(|e| err(*start, format!("embedded report: {e}")))?,
                        );
                        section = None;
                    }
                    _ => {
                        acc.push_str(line);
                        acc.push('\n');
                    }
                }
                continue;
            }
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            match fields[0] {
                "CONFIG" if fields.len() == 3 => {
                    cfg.push((fields[1].to_string(), fields[2].to_string()));
                }
                "STATE" if fields.len() == 3 => match fields[1] {
                    "iterations_done" => {
                        iterations_done =
                            Some(fields[2].parse().map_err(|_| {
                                err(i, "bad iterations_done".into())
                            })?);
                    }
                    "terminal" => {
                        terminal = Some(Terminal::parse(fields[2]).ok_or_else(|| {
                            err(i, format!("unknown terminal '{}'", fields[2]))
                        })?);
                    }
                    "elapsed_us" => {
                        elapsed_us = Some(
                            fields[2].parse().map_err(|_| err(i, "bad elapsed_us".into()))?,
                        );
                    }
                    other => return Err(err(i, format!("unknown STATE key '{other}'"))),
                },
                "ITER" if fields.len() == 10 => {
                    let nums: Vec<u64> = fields[1..]
                        .iter()
                        .map(|s| s.parse::<u64>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| err(i, "bad ITER counts".into()))?;
                    if nums[0] as usize != history.len() {
                        return Err(err(i, format!("ITER index {} out of order", nums[0])));
                    }
                    history.push(IterationReport {
                        iteration: nums[0] as usize,
                        n_combinations: nums[1] as usize,
                        n_combinations_kept: nums[2] as usize,
                        n_generated: nums[3] as usize,
                        n_candidates: nums[4] as usize,
                        n_after_iv: nums[5] as usize,
                        n_after_redundancy: nums[6] as usize,
                        n_selected: nums[7] as usize,
                        selected: Vec::new(),
                        elapsed_us: nums[8],
                        status: IterationStatus::Completed, // placeholder until STATUS
                    });
                    have_status.push(false);
                    have_selected.push(false);
                }
                "STATUS" if fields.len() >= 3 => {
                    let idx: usize =
                        fields[1].parse().map_err(|_| err(i, "bad STATUS index".into()))?;
                    let (r, seen) = history
                        .get_mut(idx)
                        .zip(have_status.get_mut(idx))
                        .ok_or_else(|| err(i, format!("STATUS for unknown iteration {idx}")))?;
                    r.status = match (fields[2], fields.len()) {
                        ("completed", 3) => IterationStatus::Completed,
                        ("degraded", 5) => IterationStatus::Degraded {
                            stage: stage_static(fields[3]).ok_or_else(|| {
                                err(i, format!("unknown degraded stage '{}'", fields[3]))
                            })?,
                            reason: unescape(fields[4]),
                        },
                        ("skipped", 4) => IterationStatus::Skipped {
                            reason: unescape(fields[3]),
                        },
                        _ => return Err(err(i, "malformed STATUS record".into())),
                    };
                    *seen = true;
                }
                "SELECTED" if fields.len() >= 3 => {
                    let idx: usize =
                        fields[1].parse().map_err(|_| err(i, "bad SELECTED index".into()))?;
                    let n: usize =
                        fields[2].parse().map_err(|_| err(i, "bad SELECTED count".into()))?;
                    if fields.len() != 3 + n {
                        return Err(err(i, "SELECTED count mismatch".into()));
                    }
                    let (r, seen) = history
                        .get_mut(idx)
                        .zip(have_selected.get_mut(idx))
                        .ok_or_else(|| err(i, format!("SELECTED for unknown iteration {idx}")))?;
                    r.selected = fields[3..].iter().map(|s| s.to_string()).collect();
                    *seen = true;
                }
                "PLAN_BEGIN" if fields.len() == 2 => {
                    section = Some(("plan", i, String::new()));
                }
                // Stats-cache entry counts, written by checkpoints that
                // predate the cache's removal: validated, then ignored.
                "CACHE" if fields.len() == 3 => {
                    if !matches!(fields[1], "iv" | "pearson") {
                        return Err(err(i, format!("unknown CACHE kind '{}'", fields[1])));
                    }
                    let _: usize =
                        fields[2].parse().map_err(|_| err(i, "bad CACHE count".into()))?;
                }
                "BINKEY" if fields.len() == 3 => {
                    let max_bins: usize =
                        fields[1].parse().map_err(|_| err(i, "bad BINKEY bins".into()))?;
                    bin_keys.push((fields[2].to_string(), max_bins));
                }
                "REPORT_BEGIN" => {
                    section = Some(("report", i, String::new()));
                }
                other => return Err(err(i, format!("unrecognized record '{other}'"))),
            }
            // Assemble the fingerprint once all CONFIG records are in; the
            // writer emits exactly ten, in a fixed order, but lookup by key
            // keeps the format order-insensitive.
            if fields[0] == "CONFIG" && cfg.len() == 10 && fingerprint.is_none() {
                fingerprint = Some(parse_fingerprint(&cfg).map_err(|m| err(i, m))?);
            }
        }
        if let Some((_, start, _)) = section {
            return Err(err(start, "unterminated section".into()));
        }
        let fingerprint =
            fingerprint.ok_or_else(|| err(0, "incomplete CONFIG records".into()))?;
        let iterations_done =
            iterations_done.ok_or_else(|| err(0, "missing STATE iterations_done".into()))?;
        let terminal = terminal.ok_or_else(|| err(0, "missing STATE terminal".into()))?;
        let elapsed_us = elapsed_us.ok_or_else(|| err(0, "missing STATE elapsed_us".into()))?;
        let report = report.ok_or_else(|| err(0, "missing REPORT section".into()))?;
        if history.len() != iterations_done || plans.len() != iterations_done {
            return Err(err(
                0,
                format!(
                    "iteration record mismatch: {} ITER, {} plans, iterations_done {}",
                    history.len(),
                    plans.len(),
                    iterations_done
                ),
            ));
        }
        if have_status.iter().any(|&b| !b) || have_selected.iter().any(|&b| !b) {
            return Err(err(0, "iteration missing STATUS or SELECTED record".into()));
        }
        Ok(Checkpoint {
            fingerprint,
            iterations_done,
            terminal,
            elapsed_us,
            history,
            plans,
            report,
            bin_keys,
        })
    }
}

fn parse_fingerprint(cfg: &[(String, String)]) -> Result<ConfigFingerprint, String> {
    let get = |key: &str| -> Result<&str, String> {
        cfg.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing CONFIG {key}"))
    };
    let uint = |key: &str| -> Result<usize, String> {
        get(key)?.parse().map_err(|_| format!("bad CONFIG {key}"))
    };
    let bits = |key: &str| -> Result<f64, String> {
        u64::from_str_radix(get(key)?, 16)
            .map(f64::from_bits)
            .map_err(|_| format!("bad CONFIG {key}"))
    };
    Ok(ConfigFingerprint {
        seed: get("seed")?.parse().map_err(|_| "bad CONFIG seed".to_string())?,
        gamma: uint("gamma")?,
        alpha: bits("alpha")?,
        beta: uint("beta")?,
        theta: bits("theta")?,
        output_multiplier: uint("multiplier")?,
        n_iterations: uint("n_iterations")?,
        strategy: strategy_parse(get("strategy")?)
            .ok_or_else(|| "bad CONFIG strategy".to_string())?,
        selection: selection_parse(get("selection")?)
            .ok_or_else(|| "bad CONFIG selection".to_string())?,
        cache: get("cache")? == "1",
    })
}

/// What [`CheckpointStore::load_latest`] found.
#[derive(Debug)]
pub struct LoadOutcome {
    /// The newest loadable checkpoint, if any.
    pub checkpoint: Option<Checkpoint>,
    /// Path the loaded checkpoint came from.
    pub loaded_from: Option<PathBuf>,
    /// Checkpoint files that existed when the scan started.
    pub candidates: usize,
    /// Files that failed to load, with the reason; each has been renamed
    /// to `<file>.corrupt` (best effort) so it is never retried.
    pub quarantined: Vec<(PathBuf, String)>,
}

/// Directory-backed checkpoint store with atomic writes and a newest-first
/// recovery ladder. Files are named `ckpt-<NNNNNN>.safeckpt`, numbered by
/// `iterations_done`; previous checkpoints are kept so a corrupted latest
/// file can fall back to the one before it.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// A store rooted at `dir` (created on first save).
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointStore {
        CheckpointStore { dir: dir.into() }
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the checkpoint numbered `iterations_done`.
    pub fn path_for(&self, iterations_done: usize) -> PathBuf {
        self.dir.join(format!("ckpt-{iterations_done:06}.safeckpt"))
    }

    /// Durably persist one checkpoint: serialize, write to a `.tmp`
    /// sibling, fsync, rename into place. Returns the byte size written.
    ///
    /// Failpoints (feature `failpoints`) model the I/O faults the chaos
    /// suite injects: `ckpt/write-fail`, `ckpt/fsync-fail`,
    /// `ckpt/rename-fail` error out at the corresponding step;
    /// `ckpt/torn-write` persists a truncated file *successfully* (the
    /// caller believes the save worked — only a later load notices);
    /// `ckpt/corrupt-byte` flips one byte after checksumming.
    pub fn save(&self, ckpt: &Checkpoint) -> Result<u64, CkptError> {
        fs::create_dir_all(&self.dir)?;
        let mut bytes = ckpt.to_text().into_bytes();
        safe_data::failpoint!("ckpt/corrupt-byte" => {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
        });
        let mut torn = false;
        safe_data::failpoint!("ckpt/torn-write" => torn = true);
        let final_path = self.path_for(ckpt.iterations_done);
        let tmp_path = final_path.with_extension("safeckpt.tmp");
        safe_data::failpoint!(
            "ckpt/write-fail",
            CkptError::Io(std::io::Error::other("injected: ckpt/write-fail"))
        );
        {
            let mut file = fs::File::create(&tmp_path)?;
            let n = if torn { bytes.len() * 2 / 3 } else { bytes.len() };
            file.write_all(&bytes[..n])?;
            if !torn {
                safe_data::failpoint!(
                    "ckpt/fsync-fail",
                    CkptError::Io(std::io::Error::other("injected: ckpt/fsync-fail"))
                );
                file.sync_all()?;
            }
        }
        safe_data::failpoint!(
            "ckpt/rename-fail",
            CkptError::Io(std::io::Error::other("injected: ckpt/rename-fail"))
        );
        fs::rename(&tmp_path, &final_path)?;
        Ok(bytes.len() as u64)
    }

    /// Checkpoint files currently in the directory, oldest first. Stray
    /// `.tmp` files (crashes mid-write) and `.corrupt` quarantine files are
    /// ignored. A missing directory is an empty store.
    pub fn list(&self) -> Result<Vec<PathBuf>, CkptError> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut files: Vec<PathBuf> = Vec::new();
        for entry in entries {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("ckpt-") && name.ends_with(".safeckpt") {
                files.push(path);
            }
        }
        files.sort();
        Ok(files)
    }

    /// Walk the recovery ladder: newest checkpoint first, quarantining any
    /// file that fails to read or parse (rename to `<file>.corrupt`, best
    /// effort) and falling back to the next. `Ok` with
    /// `checkpoint: None` means no *loadable* checkpoint — the
    /// `candidates` count tells the caller whether that is a cold start
    /// (zero) or unrecoverable corruption (nonzero).
    pub fn load_latest(&self) -> Result<LoadOutcome, CkptError> {
        let mut files = self.list()?;
        files.reverse();
        let candidates = files.len();
        let mut quarantined: Vec<(PathBuf, String)> = Vec::new();
        for path in files {
            let attempt = Self::read_one(&path);
            match attempt {
                Ok(ckpt) => {
                    return Ok(LoadOutcome {
                        checkpoint: Some(ckpt),
                        loaded_from: Some(path),
                        candidates,
                        quarantined,
                    });
                }
                Err(reason) => {
                    let mut corrupt = path.clone().into_os_string();
                    corrupt.push(".corrupt");
                    let _ = fs::rename(&path, PathBuf::from(corrupt));
                    quarantined.push((path, reason.to_string()));
                }
            }
        }
        Ok(LoadOutcome {
            checkpoint: None,
            loaded_from: None,
            candidates,
            quarantined,
        })
    }

    fn read_one(path: &Path) -> Result<Checkpoint, CkptError> {
        safe_data::failpoint!(
            "ckpt/load-fail",
            CkptError::Io(std::io::Error::other("injected: ckpt/load-fail"))
        );
        let text = fs::read_to_string(path)?;
        Checkpoint::from_text(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safe_obs::{IterationTelemetry, StageTelemetry, Waterfall};

    fn sample_report() -> RunReport {
        RunReport {
            total_us: 1234,
            setup: vec![StageTelemetry {
                stage: "audit".into(),
                micros: 10,
                features_in: 5,
                features_out: 5,
                counters: vec![("findings".into(), 0)],
            }],
            iterations: vec![IterationTelemetry {
                iteration: 0,
                status: "completed".into(),
                micros: 900,
                stages: vec![StageTelemetry {
                    stage: "iv-filter".into(),
                    micros: 20,
                    features_in: 9,
                    features_out: 7,
                    counters: vec![("dropped_alpha".into(), 2)],
                }],
                waterfall: Waterfall {
                    generated: 4,
                    candidates: 9,
                    post_iv: 7,
                    post_redundancy: 6,
                    selected: 6,
                },
            }],
            warnings: vec![],
            metrics: Default::default(),
        }
    }

    fn sample_checkpoint() -> Checkpoint {
        let plan = FeaturePlan {
            input_names: vec!["a".into(), "b".into()],
            steps: vec![crate::plan::PlanStep {
                name: "mul(a,b)".into(),
                op: "mul".into(),
                parents: vec!["a".into(), "b".into()],
                params: vec![],
            }],
            outputs: vec!["a".into(), "mul(a,b)".into()],
        };
        Checkpoint {
            fingerprint: ConfigFingerprint::of(&SafeConfig::paper()),
            iterations_done: 1,
            terminal: Terminal::Running,
            elapsed_us: 4242,
            history: vec![IterationReport {
                iteration: 0,
                n_combinations: 6,
                n_combinations_kept: 4,
                n_generated: 4,
                n_candidates: 9,
                n_after_iv: 7,
                n_after_redundancy: 6,
                n_selected: 2,
                selected: vec!["a".into(), "mul(a,b)".into()],
                elapsed_us: 900,
                status: IterationStatus::Completed,
            }],
            plans: vec![plan],
            report: sample_report(),
            bin_keys: vec![("a".into(), 255), ("mul(a,b)".into(), 255)],
        }
    }

    fn assert_ckpt_eq(a: &Checkpoint, b: &Checkpoint) {
        assert!(a.fingerprint.matches(&b.fingerprint));
        assert_eq!(a.iterations_done, b.iterations_done);
        assert_eq!(a.terminal, b.terminal);
        assert_eq!(a.elapsed_us, b.elapsed_us);
        assert_eq!(a.history.len(), b.history.len());
        for (x, y) in a.history.iter().zip(&b.history) {
            assert!(x.structural_eq(y), "{x:?}\nvs\n{y:?}");
            assert_eq!(x.elapsed_us, y.elapsed_us, "elapsed persists exactly");
        }
        assert_eq!(a.plans, b.plans);
        assert_eq!(a.report, b.report);
        assert_eq!(a.bin_keys, b.bin_keys);
    }

    #[test]
    fn round_trips_through_text() {
        let ckpt = sample_checkpoint();
        let text = ckpt.to_text();
        let parsed = Checkpoint::from_text(&text).unwrap();
        assert_ckpt_eq(&ckpt, &parsed);
        // And the re-serialization is byte-identical.
        assert_eq!(parsed.to_text(), text);
    }

    /// `text` with `records` spliced in before the first `BINKEY` line —
    /// where the format's earlier writer put its `CACHE` records — and the
    /// checksum recomputed.
    fn with_cache_records(text: &str, records: &str) -> String {
        let body = text.splitn(3, '\n').nth(2).unwrap();
        let at = body.find("BINKEY\t").unwrap();
        let body = format!("{}{records}{}", &body[..at], &body[at..]);
        let checksum = fnv1a64(body.as_bytes());
        format!("SAFECKPT\t1\nCHECKSUM\t{checksum:016x}\n{body}")
    }

    #[test]
    fn stats_cache_records_from_older_snapshots_are_ignored() {
        // Snapshots written while the stats cache existed carry its entry
        // counts; they must still load (else resume would quarantine them).
        let ckpt = sample_checkpoint();
        let text = ckpt.to_text();
        let older = with_cache_records(&text, "CACHE\tiv\t9\nCACHE\tpearson\t21\n");
        let parsed = Checkpoint::from_text(&older).unwrap();
        assert_ckpt_eq(&ckpt, &parsed);
        assert_eq!(parsed.to_text(), text, "the writer emits no CACHE records");
        // Unknown kinds and malformed counts are still parse errors.
        for bad in ["CACHE\tbins\t3\n", "CACHE\tiv\tmany\n"] {
            let doc = with_cache_records(&text, bad);
            let parsed = Checkpoint::from_text(&doc);
            assert!(matches!(parsed, Err(CkptError::Parse { .. })), "{bad}");
        }
    }

    #[test]
    fn round_trips_degraded_and_skipped_statuses() {
        let mut ckpt = sample_checkpoint();
        ckpt.history[0].status = IterationStatus::Degraded {
            stage: "rank",
            reason: "booster failed:\twith tab\nand newline \\ backslash".into(),
        };
        ckpt.terminal = Terminal::Degraded;
        let parsed = Checkpoint::from_text(&ckpt.to_text()).unwrap();
        assert_eq!(parsed.history[0].status, ckpt.history[0].status);

        ckpt.history[0].status = IterationStatus::Skipped {
            reason: "time budget exhausted".into(),
        };
        ckpt.terminal = Terminal::Skipped;
        let parsed = Checkpoint::from_text(&ckpt.to_text()).unwrap();
        assert_eq!(parsed.history[0].status, ckpt.history[0].status);
    }

    #[test]
    fn every_terminal_round_trips() {
        for t in [
            Terminal::Running,
            Terminal::Converged,
            Terminal::Degraded,
            Terminal::Skipped,
            Terminal::ItersExhausted,
        ] {
            assert_eq!(Terminal::parse(t.as_str()), Some(t));
            assert_eq!(t.is_final(), t != Terminal::Running);
        }
        assert_eq!(Terminal::parse("nonsense"), None);
    }

    #[test]
    fn corrupted_byte_fails_the_checksum() {
        let text = sample_checkpoint().to_text();
        // Flip one byte in the body (past the two header lines).
        let body_start = text
            .match_indices('\n')
            .nth(1)
            .map(|(i, _)| i + 1)
            .unwrap();
        let mut bytes = text.into_bytes();
        let mid = body_start + (bytes.len() - body_start) / 2;
        bytes[mid] ^= 0x01;
        let corrupted = String::from_utf8(bytes).unwrap();
        assert!(matches!(
            Checkpoint::from_text(&corrupted),
            Err(CkptError::Checksum { .. })
        ));
    }

    #[test]
    fn truncation_at_any_line_fails_closed() {
        let text = sample_checkpoint().to_text();
        // Torn writes truncate at arbitrary byte offsets; every prefix
        // must fail (checksum mismatch or parse error), never parse.
        for k in (0..text.len()).step_by(23) {
            let mut k = k;
            while !text.is_char_boundary(k) {
                k -= 1;
            }
            let torn = &text[..k];
            assert!(
                Checkpoint::from_text(torn).is_err(),
                "prefix of {k} bytes must not parse"
            );
        }
    }

    #[test]
    fn fingerprint_mismatch_is_detected() {
        let base = ConfigFingerprint::of(&SafeConfig::paper());
        let mut other = base.clone();
        assert!(base.matches(&other));
        other.seed = 99;
        assert!(!base.matches(&other));
        let mut other = base.clone();
        other.alpha += 0.01;
        assert!(!base.matches(&other));
        // `cache` is excluded: cached and cold runs are bit-identical.
        let mut other = base.clone();
        other.cache = !other.cache;
        assert!(base.matches(&other));
    }

    fn temp_store(name: &str) -> CheckpointStore {
        let dir = std::env::temp_dir()
            .join("safe_ckpt_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::new(dir)
    }

    #[test]
    fn store_saves_and_reloads() {
        let store = temp_store("roundtrip");
        let ckpt = sample_checkpoint();
        let bytes = store.save(&ckpt).unwrap();
        assert!(bytes > 0);
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.candidates, 1);
        assert!(loaded.quarantined.is_empty());
        assert_ckpt_eq(&ckpt, &loaded.checkpoint.unwrap());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn empty_store_is_a_cold_start() {
        let store = temp_store("empty");
        let loaded = store.load_latest().unwrap();
        assert!(loaded.checkpoint.is_none());
        assert_eq!(loaded.candidates, 0);
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous_good() {
        let store = temp_store("ladder");
        let mut ckpt = sample_checkpoint();
        store.save(&ckpt).unwrap();
        ckpt.iterations_done = 2;
        ckpt.history.push(ckpt.history[0].clone());
        ckpt.history[1].iteration = 1;
        ckpt.plans.push(ckpt.plans[0].clone());
        store.save(&ckpt).unwrap();
        // Corrupt the newest file in place.
        let latest = store.path_for(2);
        let mut bytes = fs::read(&latest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        fs::write(&latest, &bytes).unwrap();

        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.candidates, 2);
        assert_eq!(loaded.quarantined.len(), 1);
        assert!(loaded.quarantined[0].1.contains("checksum"), "{:?}", loaded.quarantined);
        let got = loaded.checkpoint.unwrap();
        assert_eq!(got.iterations_done, 1, "fell back to the previous good checkpoint");
        // The torn file is quarantined, not retried.
        assert!(!latest.exists());
        let corrupt: Vec<_> = fs::read_dir(store.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".corrupt"))
            .collect();
        assert_eq!(corrupt.len(), 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn stray_tmp_files_are_ignored() {
        let store = temp_store("straytmp");
        store.save(&sample_checkpoint()).unwrap();
        fs::write(store.dir().join("ckpt-000002.safeckpt.tmp"), b"partial").unwrap();
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.candidates, 1, ".tmp files are not candidates");
        assert_eq!(loaded.checkpoint.unwrap().iterations_done, 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn empty_history_round_trips() {
        let ckpt = Checkpoint {
            fingerprint: ConfigFingerprint::of(&SafeConfig::paper()),
            iterations_done: 0,
            terminal: Terminal::Running,
            elapsed_us: 0,
            history: vec![],
            plans: vec![],
            report: RunReport::default(),
            bin_keys: vec![],
        };
        let parsed = Checkpoint::from_text(&ckpt.to_text()).unwrap();
        assert_ckpt_eq(&ckpt, &parsed);
    }
}
