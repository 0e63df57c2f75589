//! Shared experiment context: one generated suite + trained PURPLE models reused by
//! every table/figure reproduction.

use baselines::SharedModels;
use engine::ExecSession;
use eval::{build_suites, RunEnv, SuiteConfig, TestSuite};
use llm::CHATGPT;
use purple::{Purple, PurpleConfig};
use spidergen::{generate_suite, GenConfig, Suite};
use std::sync::Arc;

/// Experiment scale: trade wall-clock for statistical resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Unit-test scale (seconds).
    Tiny,
    /// Default harness scale (minutes) — the scale EXPERIMENTS.md records.
    Medium,
    /// Paper-size suite (Table 3 sizes).
    Full,
}

impl Scale {
    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "medium" => Some(Scale::Medium),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Stable lowercase name, recorded in run manifests.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Medium => "medium",
            Scale::Full => "full",
        }
    }

    /// The generation config for this scale.
    pub fn gen_config(self, seed: u64) -> GenConfig {
        match self {
            Scale::Tiny => GenConfig::tiny(seed),
            Scale::Medium => GenConfig::medium(seed),
            Scale::Full => GenConfig::full(seed),
        }
    }
}

/// Everything the experiments need, built once.
pub struct ReproContext {
    /// The generated benchmark suite.
    pub suite: Suite,
    /// Trained PURPLE (ChatGPT profile); ablations/model swaps derive from it.
    pub purple: Purple,
    /// Shared trained models for the baselines.
    pub models: SharedModels,
    /// Distilled test suites for the dev split (TS metric), built lazily.
    pub dev_suites: Option<Vec<TestSuite>>,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for example-level parallel evaluation
    /// ([`eval::evaluate`]); defaults to the machine's available parallelism.
    pub jobs: usize,
    /// Shared execution session: every experiment's adaption loop, vote, and
    /// scoring pass executes through its memoizing caches. Enabled by default;
    /// swap in [`ExecSession::disabled`] (`repro --no-exec-cache`) to force
    /// uncached execution — reports are byte-identical either way.
    pub session: Arc<ExecSession>,
}

impl ReproContext {
    /// Build the context at a scale.
    pub fn build(scale: Scale, seed: u64) -> Self {
        let suite = generate_suite(&scale.gen_config(seed));
        let purple = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
        let models = SharedModels::from_purple(&purple);
        let jobs = default_jobs();
        let session = ExecSession::shared();
        ReproContext { suite, purple, models, dev_suites: None, seed, jobs, session }
    }

    /// The run environment experiments attach to translators: the shared
    /// execution session, nothing else. Chain further components onto the
    /// returned value (`ctx.env().with_ledger(...)`).
    pub fn env(&self) -> RunEnv {
        RunEnv::default().with_session(self.session.clone())
    }

    /// Build (or get) the distilled dev test suites.
    pub fn dev_suites(&mut self) -> &[TestSuite] {
        if self.dev_suites.is_none() {
            let cfg = SuiteConfig { candidates: 40, max_kept: 8, probe_queries: 24 };
            self.dev_suites = Some(build_suites(&self.suite.dev, cfg, self.seed ^ 0x7e57));
        }
        self.dev_suites.as_ref().expect("just built")
    }
}

/// The machine's available parallelism, falling back to 1 when undetectable.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}
