//! SAFE hyper-parameters.
//!
//! Section IV-E1 (strong applicability): every knob either controls
//! complexity (γ, iteration budget, output cap, miner size) or is a
//! rule-of-thumb constant the paper fixes once for all datasets (α = 0.1
//! from Table I, θ = 0.8 from Table II, β equal-frequency bins).

use safe_data::audit::AuditConfig;
use safe_gbm::config::GbmConfig;
use safe_obs::SinkHandle;
use safe_ops::registry::OperatorRegistry;
use safe_stats::par::Parallelism;
use std::path::PathBuf;
use std::time::Duration;

/// How candidate feature combinations are produced — SAFE proper plus the
/// paper's two ablation baselines (Section V-A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenerationStrategy {
    /// SAFE: combinations mined from GBM tree paths, ranked by information
    /// gain ratio.
    Mined,
    /// IMP: γ random combinations drawn from the GBM's *split features*.
    RandomSplitFeatures,
    /// RAND: γ random combinations drawn from all features.
    RandomAllFeatures,
}

/// How the selection stage evaluates the candidate pool.
///
/// The mode is **result-determining**: it changes which features survive,
/// so it is part of the checkpoint fingerprint and a resume under a
/// different mode is rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionMode {
    /// The paper's flat pipeline: exact IV filter, exact f64 Pearson
    /// redundancy scan, and a full booster retrain for rank-topk — over
    /// every candidate. Bit-identical to the pre-staged pipeline; the
    /// default.
    Exact,
    /// OpenFE-style successive halving ([`crate::selection::staged`]):
    /// candidates are scored cheaply on small deterministic row
    /// subsamples, the pool is halved per rung on geometrically growing
    /// samples, and only the finalists get exact IV, a binned-Pearson
    /// redundancy scan (`safe_gbm::corr`), and the booster ranking.
    /// Non-finalists are eliminated by their staged scores — no full
    /// booster retrain over the whole pool. Deterministic at every thread
    /// count, but *not* bit-identical to [`SelectionMode::Exact`]; AUC
    /// parity within ±0.005 is pinned by `tests/selection_differential.rs`.
    Staged,
}

/// Configuration of the SAFE pipeline.
#[derive(Debug, Clone)]
pub struct SafeConfig {
    /// γ — number of top feature combinations kept per iteration
    /// (Algorithm 2).
    pub gamma: usize,
    /// α — Information Value threshold (Algorithm 3); features with
    /// IV ≤ α are dropped. Paper default 0.1.
    pub alpha: f64,
    /// β — equal-frequency bins for the IV computation. Paper default 10.
    pub beta: usize,
    /// θ — absolute Pearson threshold (Algorithm 4); of any pair above it,
    /// the lower-IV feature is dropped. Paper default 0.8.
    pub theta: f64,
    /// Final feature budget as a multiple of the original feature count
    /// (the experiments cap output at 2M).
    pub output_multiplier: usize,
    /// nIter — iteration budget (the benchmark experiments use 1).
    pub n_iterations: usize,
    /// tIter — optional wall-clock budget; the loop stops when exceeded.
    pub time_budget: Option<Duration>,
    /// Booster used for combination mining (small: complexity is
    /// O(N·K₁(K₁+K₂)), Eq. 13).
    pub miner: GbmConfig,
    /// Booster used for final feature ranking.
    pub ranker: GbmConfig,
    /// The operator set O.
    pub operators: OperatorRegistry,
    /// SAFE / RAND / IMP.
    pub strategy: GenerationStrategy,
    /// Candidate evaluation mode for the selection stage: the paper's
    /// exact pipeline (default) or staged successive halving. See
    /// [`SelectionMode`].
    pub selection: SelectionMode,
    /// Seed for the randomized strategies and subsampling.
    pub seed: u64,
    /// Pre-fit data audit policy (see
    /// [`safe_data::audit`](mod@safe_data::audit)). The default warns on
    /// degenerate columns without modifying the data; switch to
    /// [`safe_data::AuditPolicy::Repair`] to drop/impute them, or
    /// [`safe_data::AuditPolicy::Reject`] to fail fast.
    pub audit: AuditConfig,
    /// Telemetry sink every pipeline stage reports to (spans, counters,
    /// warnings). Defaults to the no-op [`safe_obs::NullSink`]; attach a
    /// [`safe_obs::JsonlSink`] or [`safe_obs::MemorySink`] via
    /// [`SinkHandle::new`] to observe the run. The sink never influences
    /// pipeline results.
    pub sink: SinkHandle,
    /// Worker-thread budget for the parallel stages (IV, Pearson, IG-ratio
    /// combination scoring, operator application). `threads = 0`
    /// auto-detects, `threads = 1` is the serial path. Every reduction
    /// merges in fixed chunk-index order, so any setting yields
    /// bit-identical results. The miner/ranker boosters carry their own
    /// knob in [`GbmConfig`]; use [`SafeConfig::with_threads`] to set all
    /// three at once.
    pub parallelism: Parallelism,
    /// Reuse binned `u16` columns for the miner/ranker boosters (and the
    /// staged redundancy scan) across iterations through a
    /// [`BinCache`](safe_gbm::binner::BinCache) keyed by stable column
    /// names. Results are **bit-identical** with the cache on or off
    /// (`tests/cache_differential.rs` pins this, with `false` as its cold
    /// side). Default `true`: DESIGN.md §12 has the measurements that
    /// keep the cache.
    pub cache: bool,
    /// Directory for durable iteration checkpoints (`SAFECKPT` files, see
    /// [`crate::checkpoint`]). `None` (the default) disables
    /// checkpointing; `Some(dir)` makes `fit` persist a snapshot after
    /// iterations (atomically: temp file → fsync → rename) and enables
    /// [`crate::safe::Safe::fit_resumed`] to continue a killed run
    /// bit-identically.
    pub checkpoint_dir: Option<PathBuf>,
    /// Write a durable checkpoint every N completed iterations (default 1
    /// — every iteration). Terminal snapshots (convergence, degradation,
    /// budget exhaustion) are always written regardless of cadence.
    /// Must be ≥ 1; ignored when `checkpoint_dir` is `None`.
    pub checkpoint_every: usize,
}

impl Default for SafeConfig {
    fn default() -> Self {
        SafeConfig {
            gamma: 30,
            alpha: 0.1,
            beta: 10,
            theta: 0.8,
            output_multiplier: 2,
            n_iterations: 1,
            time_budget: None,
            miner: GbmConfig::miner(),
            ranker: GbmConfig::miner(),
            operators: OperatorRegistry::arithmetic(),
            strategy: GenerationStrategy::Mined,
            selection: SelectionMode::Exact,
            seed: 0,
            audit: AuditConfig::default(),
            sink: SinkHandle::null(),
            parallelism: Parallelism::auto(),
            cache: true,
            checkpoint_dir: None,
            checkpoint_every: 1,
        }
    }
}

impl SafeConfig {
    /// Start a chainable [`SafeConfigBuilder`] seeded with the paper
    /// defaults. Struct-literal construction
    /// (`SafeConfig { gamma: 10, ..SafeConfig::default() }`) keeps working;
    /// the builder adds validation at the end of the chain.
    pub fn builder() -> SafeConfigBuilder {
        SafeConfigBuilder::new()
    }

    /// Paper-experiment configuration: four arithmetic operators, one
    /// iteration, 2M output cap.
    pub fn paper() -> Self {
        SafeConfig::default()
    }

    /// The RAND ablation baseline with otherwise identical settings.
    pub fn rand_baseline(seed: u64) -> Self {
        SafeConfig {
            strategy: GenerationStrategy::RandomAllFeatures,
            seed,
            ..SafeConfig::default()
        }
    }

    /// The IMP ablation baseline with otherwise identical settings.
    pub fn imp_baseline(seed: u64) -> Self {
        SafeConfig {
            strategy: GenerationStrategy::RandomSplitFeatures,
            seed,
            ..SafeConfig::default()
        }
    }

    /// Set the worker-thread budget on the pipeline *and* both internal
    /// boosters (`0` = auto-detect, `1` = serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        let par = Parallelism::new(threads);
        self.parallelism = par;
        self.miner.parallelism = par;
        self.ranker.parallelism = par;
        self
    }

    /// Validate ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.gamma == 0 {
            return Err("gamma must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.theta) {
            return Err(format!("theta {} not in [0, 1]", self.theta));
        }
        if self.alpha < 0.0 {
            return Err("alpha must be non-negative".into());
        }
        if self.beta < 2 {
            return Err("beta must be at least 2".into());
        }
        if self.output_multiplier == 0 {
            return Err("output_multiplier must be positive".into());
        }
        if self.n_iterations == 0 && self.time_budget.is_none() {
            return Err("need n_iterations > 0 or a time budget".into());
        }
        if self.operators.is_empty() {
            return Err("operator registry is empty".into());
        }
        if self.checkpoint_every == 0 {
            return Err("checkpoint_every must be at least 1".into());
        }
        self.parallelism.validate()?;
        self.miner.validate()?;
        self.ranker.validate()?;
        Ok(())
    }
}

/// Chainable constructor for [`SafeConfig`].
///
/// Starts from the paper defaults; [`SafeConfigBuilder::build`] runs
/// [`SafeConfig::validate`], so an impossible combination is caught at
/// construction instead of deep inside `Safe::fit`:
///
/// ```
/// use safe_core::SafeConfig;
///
/// let config = SafeConfig::builder()
///     .alpha(0.05)
///     .theta(0.9)
///     .gamma(20)
///     .threads(2)
///     .seed(7)
///     .build()
///     .expect("valid config");
/// assert_eq!(config.gamma, 20);
/// assert!(SafeConfig::builder().gamma(0).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SafeConfigBuilder {
    config: SafeConfig,
}

impl SafeConfigBuilder {
    /// Builder seeded with [`SafeConfig::default`].
    pub fn new() -> Self {
        SafeConfigBuilder {
            config: SafeConfig::default(),
        }
    }

    /// α — Information Value threshold (features with IV ≤ α are dropped).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.config.alpha = alpha;
        self
    }

    /// θ — absolute Pearson redundancy threshold.
    pub fn theta(mut self, theta: f64) -> Self {
        self.config.theta = theta;
        self
    }

    /// γ — top feature combinations kept per iteration.
    pub fn gamma(mut self, gamma: usize) -> Self {
        self.config.gamma = gamma;
        self
    }

    /// β — equal-frequency bins for the IV computation.
    pub fn beta(mut self, beta: usize) -> Self {
        self.config.beta = beta;
        self
    }

    /// Top-k output cap, expressed as a multiple of the original feature
    /// count (the paper's 2M budget is `output_multiplier(2)`).
    pub fn output_multiplier(mut self, multiplier: usize) -> Self {
        self.config.output_multiplier = multiplier;
        self
    }

    /// nIter — iteration budget.
    pub fn n_iterations(mut self, n: usize) -> Self {
        self.config.n_iterations = n;
        self
    }

    /// tIter — wall-clock budget.
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.config.time_budget = Some(budget);
        self
    }

    /// SAFE / RAND / IMP generation strategy.
    pub fn strategy(mut self, strategy: GenerationStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Selection mode: exact (paper semantics, default) or staged
    /// successive halving.
    pub fn selection(mut self, selection: SelectionMode) -> Self {
        self.config.selection = selection;
        self
    }

    /// The operator set O.
    pub fn operators(mut self, operators: OperatorRegistry) -> Self {
        self.config.operators = operators;
        self
    }

    /// Booster used for combination mining.
    pub fn miner(mut self, miner: GbmConfig) -> Self {
        self.config.miner = miner;
        self
    }

    /// Booster used for final feature ranking.
    pub fn ranker(mut self, ranker: GbmConfig) -> Self {
        self.config.ranker = ranker;
        self
    }

    /// Pre-fit data audit policy.
    pub fn audit(mut self, audit: AuditConfig) -> Self {
        self.config.audit = audit;
        self
    }

    /// Telemetry sink for all pipeline stages.
    pub fn sink(mut self, sink: SinkHandle) -> Self {
        self.config.sink = sink;
        self
    }

    /// Worker-thread budget on the pipeline and both internal boosters
    /// (`0` = auto-detect, `1` = serial) — same as
    /// [`SafeConfig::with_threads`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.config = self.config.with_threads(threads);
        self
    }

    /// Seed for the randomized strategies and subsampling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Toggle the cross-iteration bin cache for the boosters. On by
    /// default; results are bit-identical either way.
    pub fn cache(mut self, cache: bool) -> Self {
        self.config.cache = cache;
        self
    }

    /// Directory for durable iteration checkpoints (enables crash-safe
    /// training and [`crate::safe::Safe::fit_resumed`]).
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.checkpoint_dir = Some(dir.into());
        self
    }

    /// Checkpoint cadence: write a snapshot every N completed iterations
    /// (terminal snapshots are always written). Must be ≥ 1.
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.config.checkpoint_every = every;
        self
    }

    /// Validate and return the finished configuration.
    pub fn build(self) -> Result<SafeConfig, String> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let c = SafeConfig::paper();
        assert_eq!(c.alpha, 0.1, "Table I medium-predictor edge");
        assert_eq!(c.selection, SelectionMode::Exact, "exact selection is the pinned default");
        assert_eq!(c.theta, 0.8, "Table II extremely-strong edge");
        assert_eq!(c.output_multiplier, 2, "2M output cap");
        assert_eq!(c.n_iterations, 1, "benchmark experiments use one iteration");
        assert_eq!(c.operators.names(), vec!["add", "sub", "mul", "div"]);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn baselines_share_selection_settings() {
        let safe = SafeConfig::paper();
        let rand = SafeConfig::rand_baseline(1);
        let imp = SafeConfig::imp_baseline(1);
        assert_eq!(rand.alpha, safe.alpha);
        assert_eq!(imp.theta, safe.theta);
        assert_eq!(rand.strategy, GenerationStrategy::RandomAllFeatures);
        assert_eq!(imp.strategy, GenerationStrategy::RandomSplitFeatures);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = SafeConfig::default();
        c.gamma = 0;
        assert!(c.validate().is_err());

        let mut c = SafeConfig::default();
        c.theta = 1.5;
        assert!(c.validate().is_err());

        let mut c = SafeConfig::default();
        c.beta = 1;
        assert!(c.validate().is_err());

        let mut c = SafeConfig::default();
        c.n_iterations = 0;
        assert!(c.validate().is_err());
        c.time_budget = Some(Duration::from_secs(1));
        assert!(c.validate().is_ok(), "time budget alone is a valid stop rule");

        let mut c = SafeConfig::default();
        c.operators = OperatorRegistry::empty();
        assert!(c.validate().is_err());

        let c = SafeConfig::default().with_threads(100_000);
        assert!(c.validate().is_err(), "absurd thread counts are rejected");
    }

    #[test]
    fn builder_matches_struct_literal() {
        let built = SafeConfig::builder()
            .alpha(0.2)
            .theta(0.7)
            .gamma(12)
            .beta(8)
            .output_multiplier(3)
            .n_iterations(2)
            .seed(42)
            .threads(2)
            .build()
            .unwrap();
        let literal = SafeConfig {
            alpha: 0.2,
            theta: 0.7,
            gamma: 12,
            beta: 8,
            output_multiplier: 3,
            n_iterations: 2,
            seed: 42,
            ..SafeConfig::default()
        }
        .with_threads(2);
        assert_eq!(built.alpha, literal.alpha);
        assert_eq!(built.theta, literal.theta);
        assert_eq!(built.gamma, literal.gamma);
        assert_eq!(built.beta, literal.beta);
        assert_eq!(built.output_multiplier, literal.output_multiplier);
        assert_eq!(built.n_iterations, literal.n_iterations);
        assert_eq!(built.seed, literal.seed);
        assert_eq!(built.parallelism, literal.parallelism);
        assert_eq!(built.miner.parallelism, literal.miner.parallelism);
    }

    #[test]
    fn builder_build_runs_validation() {
        assert!(SafeConfig::builder().gamma(0).build().is_err());
        assert!(SafeConfig::builder().theta(1.5).build().is_err());
        assert!(SafeConfig::builder().beta(1).build().is_err());
        assert!(SafeConfig::builder().threads(100_000).build().is_err());
        assert!(SafeConfig::builder()
            .operators(OperatorRegistry::empty())
            .build()
            .is_err());
        assert!(SafeConfig::builder()
            .n_iterations(0)
            .time_budget(Duration::from_secs(1))
            .build()
            .is_ok());
    }

    #[test]
    fn checkpoint_settings_validate_and_build() {
        let c = SafeConfig::builder()
            .checkpoint_dir("/tmp/safe-ckpt")
            .checkpoint_every(3)
            .build()
            .unwrap();
        assert_eq!(c.checkpoint_dir.as_deref(), Some(std::path::Path::new("/tmp/safe-ckpt")));
        assert_eq!(c.checkpoint_every, 3);
        assert!(SafeConfig::builder().checkpoint_every(0).build().is_err());
        // Defaults: checkpointing off, cadence 1.
        let d = SafeConfig::paper();
        assert!(d.checkpoint_dir.is_none());
        assert_eq!(d.checkpoint_every, 1);
    }

    #[test]
    fn with_threads_sets_all_three_knobs() {
        let c = SafeConfig::default().with_threads(4);
        assert_eq!(c.parallelism, Parallelism::new(4));
        assert_eq!(c.miner.parallelism, Parallelism::new(4));
        assert_eq!(c.ranker.parallelism, Parallelism::new(4));
        assert!(c.validate().is_ok());

        let auto = SafeConfig::default().with_threads(0);
        assert_eq!(auto.parallelism, Parallelism::auto());
        assert!(auto.validate().is_ok());
    }
}
