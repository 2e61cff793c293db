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
//! - the [`RunReport`] accumulated so far.
//!
//! The bin cache is not persisted: a resumed run starts with an empty
//! cache and rebuilds cached columns bit-identically from the data.
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
//! The codec is a schema over [`safe_data::record`], like the `SAFEARTIFACT`
//! serving bundle: a version header, a `CHECKSUM` line, tab-separated
//! records, hex `f64` bit patterns, and embedded plan and report sections.
//! Unlike the artifact, no `SAFEGBM` booster section is embedded: the
//! miner/ranker boosters are per-iteration ephemera, retrained from scratch
//! each iteration, so a resumed run rebuilds them bit-identically.

use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use safe_data::record::{hex, seal, Reader, Record, RecordError};
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

impl From<RecordError> for CkptError {
    fn from(e: RecordError) -> Self {
        match e {
            RecordError::Checksum { expected, actual } => CkptError::Checksum { expected, actual },
            RecordError::Parse { line, message } => CkptError::Parse { line, message },
        }
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
        seal("SAFECKPT\t1", &self.body())
    }

    fn body(&self) -> String {
        let mut out = String::with_capacity(4096);
        let f = &self.fingerprint;
        let _ = writeln!(out, "CONFIG\tseed\t{}", f.seed);
        let _ = writeln!(out, "CONFIG\tgamma\t{}", f.gamma);
        let _ = writeln!(out, "CONFIG\talpha\t{}", hex(f.alpha));
        let _ = writeln!(out, "CONFIG\tbeta\t{}", f.beta);
        let _ = writeln!(out, "CONFIG\ttheta\t{}", hex(f.theta));
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
        out.push_str("REPORT_BEGIN\n");
        out.push_str(&self.report.to_json());
        out.push_str("REPORT_END\n");
        out
    }

    /// Parse the text codec. The checksum is verified before any record is
    /// interpreted, so a torn or bit-flipped file fails closed with
    /// [`CkptError::Checksum`].
    pub fn from_text(text: &str) -> Result<Checkpoint, CkptError> {
        let mut r = Reader::open_checked(text, "SAFECKPT\t1")?;
        let mut cfg: Vec<(&str, Record)> = Vec::new();
        let (mut iterations_done, mut terminal, mut elapsed_us) = (None, None, None);
        let mut report = None;
        let (mut history, mut plans) = (Vec::new(), Vec::new());
        let (mut have_status, mut have_selected) = (Vec::new(), Vec::new());

        while let Some(mut rec) = r.next() {
            match rec.tag {
                // Read once all records are in: lookup by key keeps the
                // format order-insensitive.
                "CONFIG" => {
                    cfg.push((rec.field()?, rec.clone()));
                    rec.field()?;
                }
                "STATE" => match rec.field()? {
                    "iterations_done" => iterations_done = Some(rec.parse()?),
                    "terminal" => {
                        let t = rec.field()?;
                        terminal = Some(
                            Terminal::parse(t)
                                .ok_or_else(|| rec.err(format!("unknown terminal '{t}'")))?,
                        );
                    }
                    "elapsed_us" => elapsed_us = Some(rec.parse()?),
                    other => return Err(rec.err(format!("unknown STATE key '{other}'")).into()),
                },
                "ITER" => {
                    let iteration: usize = rec.parse()?;
                    if iteration != history.len() {
                        return Err(rec.err(format!("ITER index {iteration} out of order")).into());
                    }
                    history.push(IterationReport {
                        iteration,
                        n_combinations: rec.parse()?,
                        n_combinations_kept: rec.parse()?,
                        n_generated: rec.parse()?,
                        n_candidates: rec.parse()?,
                        n_after_iv: rec.parse()?,
                        n_after_redundancy: rec.parse()?,
                        n_selected: rec.parse()?,
                        selected: Vec::new(),
                        elapsed_us: rec.parse()?,
                        status: IterationStatus::Completed, // placeholder until STATUS
                    });
                    have_status.push(false);
                    have_selected.push(false);
                }
                "STATUS" => {
                    let idx: usize = rec.parse()?;
                    let (it, seen) = history
                        .get_mut(idx)
                        .zip(have_status.get_mut(idx))
                        .ok_or_else(|| rec.err(format!("STATUS for unknown iteration {idx}")))?;
                    it.status = match rec.field()? {
                        "completed" => IterationStatus::Completed,
                        "degraded" => {
                            let stage = rec.field()?;
                            IterationStatus::Degraded {
                                stage: stage_static(stage).ok_or_else(|| {
                                    rec.err(format!("unknown degraded stage '{stage}'"))
                                })?,
                                reason: unescape(rec.field()?),
                            }
                        }
                        "skipped" => IterationStatus::Skipped { reason: unescape(rec.field()?) },
                        other => return Err(rec.err(format!("unknown STATUS '{other}'")).into()),
                    };
                    *seen = true;
                }
                "SELECTED" => {
                    let idx: usize = rec.parse()?;
                    let names = rec.list(|f| f.field().map(String::from))?;
                    let (it, seen) = history
                        .get_mut(idx)
                        .zip(have_selected.get_mut(idx))
                        .ok_or_else(|| rec.err(format!("SELECTED for unknown iteration {idx}")))?;
                    it.selected = names;
                    *seen = true;
                }
                "PLAN_BEGIN" => {
                    rec.field()?;
                    let plan = FeaturePlan::from_text(r.section("PLAN_END")?)
                        .map_err(|e| rec.err(format!("embedded plan: {e}")))?;
                    plans.push(plan);
                }
                // Stats-cache entry counts, written by checkpoints that
                // predate the cache's removal: validated, then ignored.
                "CACHE" => {
                    let kind = rec.field()?;
                    if !matches!(kind, "iv" | "pearson") {
                        return Err(rec.err(format!("unknown CACHE kind '{kind}'")).into());
                    }
                    rec.parse::<usize>()?;
                }
                // Bin-cache keys, written by older checkpoints and never
                // read back (resume starts cold): validated, then ignored.
                "BINKEY" => {
                    rec.parse::<usize>()?;
                    rec.field()?;
                }
                "REPORT_BEGIN" => {
                    let json = RunReport::from_json(r.section("REPORT_END")?)
                        .map_err(|e| rec.err(format!("embedded report: {e}")))?;
                    report = Some(json);
                }
                other => return Err(rec.err(format!("unrecognized record '{other}'")).into()),
            }
            rec.end()?;
        }
        let fingerprint = parse_fingerprint(&cfg, &r)?;
        let iterations_done =
            iterations_done.ok_or_else(|| r.err("missing STATE iterations_done"))?;
        let terminal = terminal.ok_or_else(|| r.err("missing STATE terminal"))?;
        let elapsed_us = elapsed_us.ok_or_else(|| r.err("missing STATE elapsed_us"))?;
        let report = report.ok_or_else(|| r.err("missing REPORT section"))?;
        if history.len() != iterations_done || plans.len() != iterations_done {
            let (n_iter, n_plans) = (history.len(), plans.len());
            let counts = format!("{n_iter} ITER, {n_plans} plans, iterations_done {iterations_done}");
            return Err(r.err(format!("iteration record mismatch: {counts}")).into());
        }
        if have_status.iter().any(|&b| !b) || have_selected.iter().any(|&b| !b) {
            return Err(r.err("iteration missing STATUS or SELECTED record").into());
        }
        Ok(Checkpoint {
            fingerprint,
            iterations_done,
            terminal,
            elapsed_us,
            history,
            plans,
            report,
        })
    }
}

/// The fingerprint from the `CONFIG` records, each a key and one value.
fn parse_fingerprint(
    cfg: &[(&str, Record)],
    r: &Reader,
) -> Result<ConfigFingerprint, RecordError> {
    let value = |key: &str| {
        cfg.iter()
            .find(|(k, _)| *k == key)
            .map(|(_, rec)| rec.clone())
            .ok_or_else(|| r.err(format!("missing CONFIG {key}")))
    };
    let mut strategy = value("strategy")?;
    let mut selection = value("selection")?;
    Ok(ConfigFingerprint {
        seed: value("seed")?.parse()?,
        gamma: value("gamma")?.parse()?,
        alpha: value("alpha")?.hex()?,
        beta: value("beta")?.parse()?,
        theta: value("theta")?.hex()?,
        output_multiplier: value("multiplier")?.parse()?,
        n_iterations: value("n_iterations")?.parse()?,
        strategy: strategy_parse(strategy.field()?)
            .ok_or_else(|| strategy.err("bad CONFIG strategy"))?,
        selection: selection_parse(selection.field()?)
            .ok_or_else(|| selection.err("bad CONFIG selection"))?,
        cache: value("cache")?.field()? == "1",
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

    /// `text` with `records` spliced in before the `REPORT_BEGIN` line —
    /// where the format's earlier writers put their `CACHE` and `BINKEY`
    /// records — and the checksum recomputed.
    fn with_cache_records(text: &str, records: &str) -> String {
        let body = text.splitn(3, '\n').nth(2).unwrap();
        let at = body.find("REPORT_BEGIN\n").unwrap();
        let body = format!("{}{records}{}", &body[..at], &body[at..]);
        seal("SAFECKPT\t1", &body)
    }

    #[test]
    fn stats_cache_records_from_older_snapshots_are_ignored() {
        // Snapshots from older writers carry stats-cache entry counts and
        // bin-cache keys; they must still load (else resume would
        // quarantine them).
        let ckpt = sample_checkpoint();
        let text = ckpt.to_text();
        for records in [
            "CACHE\tiv\t9\nCACHE\tpearson\t21\n",
            "BINKEY\t255\ta\nBINKEY\t255\tmul(a,b)\n",
        ] {
            let older = with_cache_records(&text, records);
            let parsed = Checkpoint::from_text(&older).unwrap();
            assert_ckpt_eq(&ckpt, &parsed);
            assert_eq!(parsed.to_text(), text, "the writer emits neither record");
        }
        // Unknown kinds and malformed counts are still parse errors.
        for bad in ["CACHE\tbins\t3\n", "CACHE\tiv\tmany\n", "BINKEY\tmany\ta\n"] {
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
        };
        let parsed = Checkpoint::from_text(&ckpt.to_text()).unwrap();
        assert_ckpt_eq(&ckpt, &parsed);
    }
}
