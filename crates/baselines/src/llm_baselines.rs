//! LLM-based baseline systems: ChatGPT-SQL, C3, plain zero-shot / few-shot,
//! DIN-SQL and DAIL-SQL, each wired through the same simulated LLM service so
//! the comparison isolates *strategy*, exactly as in the paper's §V-A3.

use crate::common::fixed_demo_indices;
use engine::Database;
use eval::{Job, RunEnv, RunOutcome, Translation, Translator};
use llm::{Demonstration, GenerationRequest, LlmProfile, LlmService, Prompt, CONTEXT_LIMIT};
use nlmodel::{SchemaClassifier, SkeletonPredictor};
use obs::{Clock, EventValue, Gauge, Stage};
use purple::{PruneConfig, PrunedSchema, SchemaPruner};
use spidergen::types::Example;
use sqlkit::{Level, SkelTok};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// Models and demonstration pool shared by the baselines (trained once, usually by
/// borrowing them from a [`purple::Purple`] instance).
pub struct SharedModels {
    /// The trained schema classifier.
    pub classifier: Arc<SchemaClassifier>,
    /// The trained skeleton predictor.
    pub predictor: Arc<SkeletonPredictor>,
    /// The prompt-ready demonstration pool.
    pub pool: Arc<[Arc<Demonstration>]>,
}

impl SharedModels {
    /// Borrow the trained models from a PURPLE instance, sharing its pool.
    pub fn from_purple(p: &purple::Purple) -> Self {
        SharedModels {
            classifier: Arc::new(p.classifier().clone()),
            predictor: Arc::new(p.predictor().clone()),
            pool: p.pool().clone(),
        }
    }
}

/// Which baseline strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Liu et al.'s plain zero-shot probe ("ChatGPT-SQL").
    ChatGptSql,
    /// C3: engineered zero-shot instruction + calibrated schema hints + voting,
    /// with uncontrolled output length.
    C3,
    /// Plain zero-shot (the paper's "Zero-shot (GPT4)" row).
    ZeroShot,
    /// Plain few-shot with fixed random demonstrations.
    FewShot,
    /// DIN-SQL: decomposed chain-of-thought few-shot with self-correction; huge
    /// prompts, reasoning-sensitive.
    DinSql,
    /// DAIL-SQL: demonstration selection by order-insensitive keyword Jaccard
    /// similarity over masked questions and predicted SQL.
    DailSql,
}

/// One pool entry as DAIL-SQL's similarity sees it: the token set of its
/// question and the keyword set of its skeleton.
type DailEntry = (BTreeSet<String>, BTreeSet<SkelTok>);

/// A baseline translator.
pub struct LlmBaseline {
    strategy: Strategy,
    profile: LlmProfile,
    service: LlmService,
    models: SharedModels,
    seed: u64,
    /// Shared run environment (same convention as [`purple::Purple`]); the
    /// ledger lives inside `service`.
    env: RunEnv,
    clock: Clock,
    /// The pool as DAIL-SQL compares it, built on first use: both sets of an
    /// entry are fixed once the pool is.
    dail_pool: OnceLock<Vec<DailEntry>>,
}

impl LlmBaseline {
    /// Create a baseline with the given strategy and model tier.
    pub fn new(strategy: Strategy, profile: LlmProfile, models: SharedModels) -> Self {
        LlmBaseline {
            strategy,
            profile,
            service: LlmService::new(profile),
            models,
            seed: 0x51ec7e11,
            env: RunEnv::default(),
            clock: Clock::default(),
            dail_pool: OnceLock::new(),
        }
    }

    /// Attach a whole shared run environment, builder-style, replacing any
    /// previous one (same convention as [`purple::Purple::with_env`]):
    /// DIN-SQL's self-correction and the C3 / DAIL-SQL votes execute through
    /// the session, LLM calls are recorded into the ledger, per-run metric
    /// snapshots are absorbed into the registry (whose clock is adopted), and
    /// `env.events` is the default sink for jobs without their own.
    pub fn with_env(mut self, env: RunEnv) -> Self {
        if let Some(metrics) = &env.metrics {
            self.clock = metrics.clock();
        }
        self.service.set_ledger(env.ledger.clone());
        self.env = env;
        self
    }

    /// Jaccard similarity of two token sets (DAIL-SQL's similarity function; the
    /// order-insensitivity is exactly what §IV-C1 criticizes).
    fn jaccard<T: Ord>(a: &BTreeSet<T>, b: &BTreeSet<T>) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 0.0;
        }
        let inter = a.intersection(b).count();
        inter as f64 / (a.len() + b.len() - inter) as f64
    }

    /// DAIL-SQL's demonstration selection: the indices of the `k` pool entries
    /// most similar to `ex`, ties going to the earlier entry.
    pub fn dail_select(&self, ex: &Example, db: &Database, k: usize) -> Vec<usize> {
        let tokens = |nl: &str| nlmodel::features::tokenize_nl(nl).into_iter().collect();
        let pool = self.dail_pool.get_or_init(|| {
            let keywords = |d: &Demonstration| d.skeleton().at_level(Level::Keywords);
            self.models
                .pool
                .iter()
                .map(|d| (tokens(d.nl()), keywords(d).into_iter().collect()))
                .collect()
        });
        // Masked-question tokens.
        let q_tokens: BTreeSet<String> = tokens(&ex.nl);
        // Predicted-SQL keyword set (order-free, the DAIL shortcut).
        let pred = self.models.predictor.predict(&ex.nl, db, 1);
        let pred_kw: BTreeSet<SkelTok> = pred
            .first()
            .map(|p| p.skeleton.at_level(Level::Keywords).into_iter().collect())
            .unwrap_or_default();
        let mut scored: Vec<(usize, f64)> = pool
            .iter()
            .enumerate()
            .map(|(i, (d_tokens, d_kw))| {
                // DAIL leans on the predicted-SQL keyword set (order-free — the
                // §IV-C1 weakness) with masked-question similarity as secondary;
                // a wrong preliminary prediction poisons the retrieval.
                let sim =
                    0.3 * Self::jaccard(&q_tokens, d_tokens) + 0.7 * Self::jaccard(&pred_kw, d_kw);
                (i, sim)
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.truncate(k);
        scored.into_iter().map(|(i, _)| i).collect()
    }
}

impl Translator for LlmBaseline {
    fn name(&self) -> String {
        let s = match self.strategy {
            Strategy::ChatGptSql => "ChatGPT-SQL",
            Strategy::C3 => "C3",
            Strategy::ZeroShot => "Zero-shot",
            Strategy::FewShot => "Few-shot",
            Strategy::DinSql => "DIN-SQL",
            Strategy::DailSql => "DAIL-SQL",
        };
        format!("{s} ({})", self.profile.name)
    }

    fn run(&self, job: Job<'_>) -> RunOutcome {
        let (ex, db) = (job.example, job.db);
        let seed = job.seed(self.seed);
        let probe = self.env.probe(&job, self.clock);

        // Per-strategy prompt composition. DAIL-SQL's retrieval runs the
        // skeleton predictor internally, so the whole composition step counts
        // as demonstration selection.
        let stage = probe.stage(Stage::DemoSelection);
        probe.metrics().set_gauge(Gauge::PoolSize, self.models.pool.len() as u64);
        let (instruction, demos, instruction_quality, cot, n, extra_out, pruned) =
            match self.strategy {
                Strategy::ChatGptSql => (
                    "Translate the question into SQL.".to_string(),
                    Vec::new(),
                    0.0,
                    false,
                    1,
                    0,
                    false,
                ),
                Strategy::C3 => (
                    // C3's "clear prompting" instruction block.
                    "### Follow these rules: select only needed columns; use JOIN \
                     only when necessary; prefer simple SQL; output SQLite."
                        .to_string(),
                    Vec::new(),
                    1.0,
                    false,
                    20,
                    // C3 does not control output length (~7k tokens per query).
                    6000,
                    true,
                ),
                Strategy::ZeroShot => (
                    "Write a SQL query for the question.".to_string(),
                    Vec::new(),
                    0.0,
                    false,
                    1,
                    0,
                    false,
                ),
                Strategy::FewShot => {
                    let idx = fixed_demo_indices(self.models.pool.len(), 8, 7);
                    let demos = idx.into_iter().map(|i| self.models.pool[i].clone()).collect();
                    ("Answer like the examples.".to_string(), demos, 0.0, false, 1, 0, false)
                }
                Strategy::DinSql => {
                    // DIN-SQL ships a fixed, hand-curated CoT prompt (~10k tokens
                    // with GPT-4): fixed demos + huge reasoning output.
                    let idx = fixed_demo_indices(self.models.pool.len(), 16, 11);
                    let demos = idx.into_iter().map(|i| self.models.pool[i].clone()).collect();
                    (
                        "Decompose the question, classify its complexity, draft \
                         intermediate representation, then write the SQL."
                            .to_string(),
                        demos,
                        0.3,
                        true,
                        1,
                        5500,
                        false,
                    )
                }
                Strategy::DailSql => {
                    let idx = self.dail_select(ex, db, 16);
                    let demos = idx.into_iter().map(|i| self.models.pool[i].clone()).collect();
                    ("Answer like the examples.".to_string(), demos, 0.2, false, 8, 0, true)
                }
            };
        stage.finish_with(
            demos.len() as u64,
            "selected",
            &[
                ("selected", EventValue::U64(demos.len() as u64)),
                ("pool", EventValue::U64(self.models.pool.len() as u64)),
            ],
        );

        let stage = probe.stage(Stage::SchemaPruning);
        let (schema_text, prune_quality) = if pruned {
            let pruner = SchemaPruner::new(&self.models.classifier, PruneConfig::default());
            let p = pruner.prune(&ex.nl, db);
            (p.to_text(&db.schema), p.quality(&db.schema))
        } else {
            (PrunedSchema::full(&db.schema).to_text(&db.schema), 0.0)
        };
        let schema_cols: usize = db.schema.tables.iter().map(|t| t.columns.len()).sum();
        stage.finish_with(
            schema_cols as u64,
            "pruned",
            &[
                ("cols", EventValue::U64(schema_cols as u64)),
                ("quality", EventValue::F64(prune_quality)),
                ("pruned", EventValue::Bool(pruned)),
            ],
        );

        let stage = probe.stage(Stage::PromptAssembly);
        let mut prompt = Prompt {
            instruction,
            demonstrations: demos,
            full_schemas: false,
            schema_text,
            nl: ex.nl.clone(),
        };
        // Baselines fit to the raw context limit; DAIL-SQL controls to ~3k.
        let budget = match self.strategy {
            Strategy::DailSql => 3000,
            _ => CONTEXT_LIMIT,
        };
        let prompt_tokens = prompt.fit_to_budget(budget).tokens;
        probe.metrics().set_gauge(Gauge::DemosInPrompt, prompt.demonstrations.len() as u64);
        stage.finish_with(
            prompt_tokens,
            "assembled",
            &[
                ("demos_in_prompt", EventValue::U64(prompt.demonstrations.len() as u64)),
                ("prompt_tokens", EventValue::U64(prompt_tokens)),
            ],
        );

        let session = self.env.session_or_disabled();
        let untraced = session.bind(db);
        let request = GenerationRequest::for_prompt(&prompt, &ex.query, untraced)
            .linking_noise(ex.linking_noise)
            .prune_quality(prune_quality)
            .instruction_quality(instruction_quality)
            .cot(cot)
            .n(n)
            .seed(seed)
            .extra_output_tokens(extra_out);
        let response = self.service.complete(&request, &probe);

        // DIN-SQL self-corrects (its final module); C3/DAIL vote; the rest emit raw.
        let sdb = untraced.with_tracer(probe.tracer());
        let sql = match self.strategy {
            Strategy::DinSql => {
                let stage = probe.stage(Stage::Adaption);
                let mut rng = rand::SeedableRng::seed_from_u64(seed ^ 0xd1);
                let fixed = purple::adapt_sql(&sdb, &response.samples[0], &mut rng);
                purple::record_adaption(probe.metrics(), &fixed);
                stage.finish_with(
                    1,
                    "repair",
                    &[
                        ("fixes", EventValue::U64(fixed.fixes.len() as u64)),
                        ("executable", EventValue::Bool(fixed.executable)),
                    ],
                );
                fixed.sql
            }
            Strategy::C3 | Strategy::DailSql => purple::raw_vote(&response.samples, &sdb, &probe),
            _ => response.samples[0].clone(),
        };
        let translation = Translation {
            sql,
            prompt_tokens: response.prompt_tokens,
            output_tokens: response.output_tokens,
        };
        RunOutcome { translation, metrics: probe.publish() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::ExecSession;
    use eval::evaluate;
    use llm::{CHATGPT, GPT4};
    use purple::{Purple, PurpleConfig};
    use spidergen::{generate_suite, GenConfig};

    fn setup() -> (spidergen::Suite, SharedModels) {
        let mut cfg = GenConfig::tiny(55);
        cfg.dev_examples = 120;
        let suite = generate_suite(&cfg);
        let purple = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
        let models = SharedModels::from_purple(&purple);
        (suite, models)
    }

    fn run(strategy: Strategy, profile: LlmProfile) -> (f64, f64) {
        let (suite, models) = setup();
        let t = LlmBaseline::new(strategy, profile, models);
        let r = evaluate(&t, &suite.dev, None, 1, &ExecSession::disabled());
        (r.overall.em_pct(), r.overall.ex_pct())
    }

    #[test]
    fn zero_shot_has_low_em_but_higher_ex() {
        let (em, ex) = run(Strategy::ChatGptSql, CHATGPT);
        assert!(em < 70.0, "zero-shot EM should be weak: {em:.1}");
        assert!(ex > em, "EX {ex:.1} should exceed EM {em:.1} (equivalence rewrites)");
    }

    #[test]
    fn demonstration_quality_orders_strategies() {
        let (em_zero, _) = run(Strategy::ChatGptSql, CHATGPT);
        let (em_dail, _) = run(Strategy::DailSql, CHATGPT);
        assert!(em_dail > em_zero, "DAIL {em_dail:.1} should beat zero-shot {em_zero:.1}");
    }

    #[test]
    fn din_sql_collapses_on_weak_reasoner() {
        let (em_gpt4, _) = run(Strategy::DinSql, GPT4);
        let (em_chatgpt, _) = run(Strategy::DinSql, CHATGPT);
        assert!(
            em_gpt4 > em_chatgpt + 1.0,
            "DIN-SQL should be reasoning-sensitive: GPT4 {em_gpt4:.1} vs ChatGPT {em_chatgpt:.1}"
        );
    }

    #[test]
    fn c3_consumes_many_output_tokens() {
        let (suite, models) = setup();
        let c3 = LlmBaseline::new(Strategy::C3, CHATGPT, models);
        let r = evaluate(&c3, &suite.dev, None, 1, &ExecSession::disabled());
        assert!(r.avg_output_tokens > 5000.0, "C3 output {:.0}", r.avg_output_tokens);
        assert!(r.avg_prompt_tokens < 2000.0, "C3 prunes its input: {:.0}", r.avg_prompt_tokens);
    }

    #[test]
    fn each_system_emits_its_stage_sequence() {
        // Every LLM strategy composes its prompt in three stages and makes one
        // LLM call, then votes (C3, DAIL-SQL), repairs (DIN-SQL) or stops;
        // the PLMs only decode a skeleton.
        let (suite, models) = setup();
        let ex = &suite.dev.examples[0];
        let db = suite.dev.db_of(ex);
        let events = |t: &dyn Translator| {
            let sink = obs::EventSink::default();
            t.run(Job::new(0, ex, db).with_events(Some(&sink)));
            sink.drain().events.iter().map(|e| (e.stage, e.kind)).collect::<Vec<_>>()
        };
        let head = [
            ("demo-selection", "selected"),
            ("schema-pruning", "pruned"),
            ("prompt-assembly", "assembled"),
            ("llm-call", "completed"),
        ];
        for (strategy, tail) in [
            (Strategy::ChatGptSql, None),
            (Strategy::ZeroShot, None),
            (Strategy::FewShot, None),
            (Strategy::C3, Some(("consistency-vote", "voted"))),
            (Strategy::DailSql, Some(("consistency-vote", "voted"))),
            (Strategy::DinSql, Some(("adaption", "repair"))),
        ] {
            let models = SharedModels {
                classifier: models.classifier.clone(),
                predictor: models.predictor.clone(),
                pool: models.pool.clone(),
            };
            let expected: Vec<_> = head.into_iter().chain(tail).collect();
            assert_eq!(
                events(&LlmBaseline::new(strategy, CHATGPT, models)),
                expected,
                "{strategy:?}"
            );
        }
        for cfg in crate::ALL_PLM {
            let plm = crate::PlmTranslator::new(cfg, models.predictor.clone());
            assert_eq!(events(&plm), [("skeleton-prediction", "decoded")], "{}", cfg.name);
        }
    }

    #[test]
    fn names_include_model() {
        let (_, models) = setup();
        let t = LlmBaseline::new(Strategy::DailSql, GPT4, models);
        assert_eq!(t.name(), "DAIL-SQL (GPT4)");
    }
}
