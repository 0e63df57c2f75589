//! The end-to-end PURPLE pipeline (Fig. 3): Schema Pruning → Skeleton Prediction →
//! Demonstration Selection → LLM call → Database Adaption, wired as an
//! [`eval::Translator`] so every experiment runs through the same harness.
//!
//! The single entry point is [`Purple::run`], which takes an [`eval::Job`] and
//! returns a [`RunOutcome`]: the translation, an optional module-by-module
//! [`TranslationTrace`] (when the job asks for one), and a per-run
//! [`obs::StageMetrics`] snapshot covering every stage (DESIGN.md §8).

use crate::adaption::{adapt_sql, consistency_vote, raw_vote};
use crate::automaton::AutomatonSet;
use crate::generation::{synthesize_demonstration, DemoMode};
use crate::pruning::{PruneConfig, PrunedSchema, SchemaPruner};
use crate::selection::{random_fill, select_demonstrations, SelectionConfig};
use engine::{Database, SessionDb};
use eval::{Job, RunEnv, Translation, Translator};
use llm::{Demonstration, GenerationRequest, LlmProfile, LlmService, Prompt};
use nlmodel::{SchemaClassifier, SkeletonPrediction, SkeletonPredictor, TrainConfig};
use obs::{Clock, EventValue, Gauge, Stage, StageMetrics};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spidergen::types::{Benchmark, Example};
use sqlkit::Skeleton;
use std::sync::Arc;

/// PURPLE configuration, including every ablation/robustness knob of §V.
#[derive(Debug, Clone)]
pub struct PurpleConfig {
    /// LLM tier.
    pub profile: LlmProfile,
    /// Prompt token budget (`len` of Fig. 11; paper default 3072).
    pub len_budget: u64,
    /// Consistency sample count (`num` of Fig. 11; paper default 30).
    pub num_consistency: usize,
    /// Beam size for skeleton prediction (paper: top-3).
    pub top_k_skeletons: usize,
    /// Schema pruning on/off ("-Schema Pruning" ablation).
    pub use_pruning: bool,
    /// Pruning parameters (Steiner toggle inside: "-Steiner Tree" ablation).
    pub prune: PruneConfig,
    /// Automaton-based selection on/off ("-Demonstration Selection": random demos).
    pub use_selection: bool,
    /// Selection parameters (p0 / growth / Fig. 12 noise knobs).
    pub selection: SelectionConfig,
    /// Database adaption + consistency vote on/off ("-Database Adaption").
    pub use_adaption: bool,
    /// Use the gold skeleton instead of predictions ("+Oracle Skeleton").
    pub oracle_skeleton: bool,
    /// Demonstration sourcing: retrieval (the paper), generation (§VII future
    /// work), or hybrid.
    pub demo_mode: DemoMode,
    /// Number of demonstrations requested before budget fitting.
    pub demo_target: usize,
    /// Base seed for per-example determinism.
    pub seed: u64,
}

impl PurpleConfig {
    /// The paper's default configuration on a given model tier.
    pub fn default_with(profile: LlmProfile) -> Self {
        PurpleConfig {
            profile,
            len_budget: 3072,
            num_consistency: 30,
            top_k_skeletons: 3,
            use_pruning: true,
            prune: PruneConfig::default(),
            use_selection: true,
            selection: SelectionConfig::default(),
            use_adaption: true,
            oracle_skeleton: false,
            demo_mode: DemoMode::Retrieve,
            demo_target: 24,
            seed: 0x9e3779b9,
        }
    }
}

/// A structured trace of one translation: what each module saw and decided.
/// Captured by [`Purple::run`] when the job asks for it
/// ([`Job::with_trace`]`(true)`) — used for debugging, error analysis, blame
/// attribution ([`TranslationTrace::blame`]), and the trace example binary.
#[derive(Debug, Clone)]
pub struct TranslationTrace {
    /// The pruned schema used in the prompt.
    pub pruned: PrunedSchema,
    /// Fraction of columns pruned away (0 when pruning is off).
    pub prune_quality: f64,
    /// Whether the pruned schema covered every item the gold SQL needs.
    pub recall_covered: bool,
    /// Top-k skeleton predictions with probabilities.
    pub predictions: Vec<SkeletonPrediction>,
    /// Demonstration-pool indices selected (Algorithm 1 + random fill), in
    /// prompt order.
    pub selected: Vec<usize>,
    /// Demonstrations that survived budget fitting.
    pub demos_in_prompt: usize,
    /// Demonstrations dropped by the token budget.
    pub dropped_by_budget: usize,
    /// Finest abstraction level at which an in-context demonstration matched the
    /// required skeleton.
    pub support_level: Option<sqlkit::Level>,
    /// Raw LLM samples, pre-adaption, in generation order.
    pub samples: Vec<String>,
    /// The samples post-adaption, parallel to `samples` (identical to
    /// `samples` when adaption is off).
    pub adapted: Vec<String>,
    /// Adaption fixes applied across consistency samples.
    pub fixes: Vec<String>,
    /// The final SQL.
    pub sql: String,
    /// Billed prompt tokens.
    pub prompt_tokens: u64,
    /// Billed output tokens.
    pub output_tokens: u64,
}

impl TranslationTrace {
    /// Flatten this trace into the plain facts the blame analyzer consumes.
    pub fn summary(&self, gold: &sqlkit::Query) -> eval::TraceSummary {
        let required = Skeleton::from_query(gold);
        eval::TraceSummary {
            recall_covered: self.recall_covered,
            gold_in_topk: self.predictions.iter().any(|p| p.skeleton == required),
            support_level: self.support_level,
            dropped_by_budget: self.dropped_by_budget,
            samples: self.samples.clone(),
            adapted: self.adapted.clone(),
            fixes: self.fixes.clone(),
            final_sql: self.sql.clone(),
        }
    }

    /// Attribute this run's outcome to a pipeline module, executing on the
    /// bound database ([`eval::attribute`]). `None` means the final SQL was
    /// EX-correct — nothing to blame.
    pub fn blame(&self, gold: &sqlkit::Query, sdb: &SessionDb<'_, '_>) -> Option<eval::Verdict> {
        eval::attribute(&self.summary(gold), gold, sdb)
    }
}

/// Everything one [`Purple::run`] call produced.
///
/// Richer than [`eval::RunOutcome`] (which the [`Translator`] impl reduces to):
/// PURPLE can additionally capture a module-by-module [`TranslationTrace`].
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The predicted SQL and its token cost.
    pub translation: Translation,
    /// The module-by-module trace, present iff the job set [`Job::with_trace`].
    pub trace: Option<TranslationTrace>,
    /// Per-stage metrics recorded during this run (also absorbed into the
    /// shared registry when one is attached via [`Purple::with_env`]).
    pub metrics: StageMetrics,
}

/// The trained, pool-loaded PURPLE system.
pub struct Purple {
    cfg: PurpleConfig,
    classifier: SchemaClassifier,
    predictor: SkeletonPredictor,
    /// Prompt-ready demonstrations, aligned with `automata` indices; shared
    /// with every reconfigured copy and with the baselines.
    pool: Arc<[Arc<Demonstration>]>,
    automata: AutomatonSet,
    service: LlmService,
    /// Shared run environment: execution session, metrics registry (per-run
    /// snapshots are absorbed into it), and default event sink. The ledger
    /// lives inside `service`.
    env: RunEnv,
    /// Clock for per-run stage values (virtual work units by default, so
    /// metrics stay byte-identical across thread counts).
    clock: Clock,
}

impl Purple {
    /// Train the sub-models on the training split and precompute the demonstration
    /// pool (each demonstration's schema pruned by the same module, §III-A).
    /// Each entry is built, and its token counts made, once; the full schema
    /// text is rendered once per database and shared by its entries.
    pub fn new(train: &Benchmark, cfg: PurpleConfig) -> Self {
        let classifier = SchemaClassifier::train(train, TrainConfig::default());
        let predictor = SkeletonPredictor::train(train);
        let pruner = SchemaPruner::new(&classifier, cfg.prune);
        let full_texts: Vec<Arc<str>> =
            train.databases.iter().map(|db| db.schema.to_prompt_text(None).into()).collect();
        let pool: Arc<[Arc<Demonstration>]> = (train.examples.iter())
            .map(|ex| {
                let db = train.db_of(ex);
                Arc::new(Demonstration::new(
                    pruner.prune(&ex.nl, db).to_text(&db.schema),
                    full_texts[ex.db_index].clone(),
                    ex.nl.clone(),
                    ex.sql.clone(),
                    Skeleton::from_query(&ex.query),
                ))
            })
            .collect();
        let skeletons: Vec<Skeleton> = pool.iter().map(|d| d.skeleton().clone()).collect();
        let automata = AutomatonSet::build(&skeletons);
        let service = LlmService::new(cfg.profile);
        Purple {
            cfg,
            classifier,
            predictor,
            pool,
            automata,
            service,
            env: RunEnv::default(),
            clock: Clock::default(),
        }
    }

    /// The automaton set (for the §IV-C3 end-state statistics).
    pub fn automata(&self) -> &AutomatonSet {
        &self.automata
    }

    /// The trained classifier (shared with baselines).
    pub fn classifier(&self) -> &SchemaClassifier {
        &self.classifier
    }

    /// The trained skeleton predictor.
    pub fn predictor(&self) -> &SkeletonPredictor {
        &self.predictor
    }

    /// Demonstration pool size.
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    /// The prompt-ready demonstration pool (shared with baseline systems).
    pub fn pool(&self) -> &Arc<[Arc<Demonstration>]> {
        &self.pool
    }

    /// Attach a whole shared run environment, builder-style, replacing any
    /// previous one: the execution session backs the adaption repair loop and
    /// the consistency vote, the ledger records every LLM call, per-run
    /// metric snapshots are absorbed into the registry (whose clock is also
    /// adopted for stages), and the event sink is the default destination for
    /// jobs that don't carry their own ([`Job::with_events`] wins when both
    /// are present). Every component is optional — see [`RunEnv`].
    pub fn with_env(mut self, env: RunEnv) -> Self {
        if let Some(metrics) = &env.metrics {
            self.clock = metrics.clock();
        }
        self.service.set_ledger(env.ledger.clone());
        self.env = env;
        self
    }

    /// Choose the stage clock: [`Clock::Virtual`] (default, deterministic work
    /// units) or [`Clock::Wall`] (real elapsed nanoseconds).
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// The attached run environment (the serving layer reads the session out
    /// of it for cache/op telemetry).
    pub fn env(&self) -> &RunEnv {
        &self.env
    }

    /// Reconfigure (ablations / budget sweeps / model swaps) without retraining.
    /// Shares the demonstration pool. Keeps the stage clock but, like the
    /// fresh [`LlmService`], drops the attached [`RunEnv`] — re-attach with
    /// [`Purple::with_env`].
    pub fn with_config(&self, cfg: PurpleConfig) -> Purple {
        let service = LlmService::new(cfg.profile);
        Purple {
            cfg,
            classifier: self.classifier.clone(),
            predictor: self.predictor.clone(),
            pool: self.pool.clone(),
            automata: self.automata.clone(),
            service,
            env: RunEnv::default(),
            clock: self.clock,
        }
    }

    fn predictions(&self, ex: &Example, db: &Database) -> Vec<SkeletonPrediction> {
        if self.cfg.oracle_skeleton {
            vec![SkeletonPrediction { skeleton: Skeleton::from_query(&ex.query), probability: 1.0 }]
        } else {
            self.predictor.predict(&ex.nl, db, self.cfg.top_k_skeletons)
        }
    }

    /// Translate one job: the single entry point for the whole pipeline.
    ///
    /// All randomness derives from the config seed and [`Job::idx`] (or the
    /// job's seed override), so calls are order- and thread-independent. Every
    /// stage is opened and closed once on the run's [`obs::Probe`]; the
    /// returned [`RunOutcome::metrics`] is the complete per-run snapshot, and a
    /// trace is captured when [`Job::with_trace`] asks for one.
    pub fn run(&self, job: Job<'_>) -> RunOutcome {
        let (ex, db) = (job.example, job.db);
        let seed = job.seed(self.cfg.seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let probe = self.env.probe(&job, self.clock);

        // --- Step 1: schema pruning -----------------------------------------
        // Recall failures propagate (§III-B1: "It is important to keep high recall
        // to reduce the risk of error propagation"): when the pruned schema misses
        // items the gold SQL needs, the LLM cannot reference them and schema
        // linking degrades sharply.
        let stage = probe.stage(Stage::SchemaPruning);
        let mut recall_noise = 0.0;
        let mut recall_covered = true;
        let pruned = if self.cfg.use_pruning {
            let pruned = SchemaPruner::new(&self.classifier, self.cfg.prune).prune(&ex.nl, db);
            let used = nlmodel::used_items(&ex.query, &db.schema);
            if !pruned.covers(&used.tables, &used.columns) {
                recall_noise = 0.30;
                recall_covered = false;
            }
            pruned
        } else {
            PrunedSchema::full(&db.schema)
        };
        let schema_text = pruned.to_text(&db.schema);
        let prune_quality = pruned.quality(&db.schema);
        let schema_cols: usize = db.schema.tables.iter().map(|t| t.columns.len()).sum();
        stage.finish_with(
            schema_cols as u64,
            "pruned",
            &[
                ("cols", EventValue::U64(schema_cols as u64)),
                ("quality", EventValue::F64(prune_quality)),
                ("recall_covered", EventValue::Bool(recall_covered)),
            ],
        );

        // --- Step 2: skeleton prediction ------------------------------------
        let stage = probe.stage(Stage::SkeletonPrediction);
        let predictions = self.predictions(ex, db);
        stage.finish_with(
            predictions.len() as u64,
            "predicted",
            &[
                ("beam", EventValue::U64(predictions.len() as u64)),
                ("top_prob", EventValue::F64(predictions.first().map_or(0.0, |p| p.probability))),
            ],
        );

        // --- Step 3: demonstration selection --------------------------------
        let stage = probe.stage(Stage::DemoSelection);
        probe.metrics().set_gauge(Gauge::PoolSize, self.pool.len() as u64);
        let mut selected = if matches!(self.cfg.demo_mode, DemoMode::Generate) {
            Vec::new()
        } else if self.cfg.use_selection {
            select_demonstrations(
                &self.automata,
                &predictions,
                &self.cfg.selection,
                self.pool.len(),
                &mut rng,
            )
        } else {
            Vec::new()
        };
        if !matches!(self.cfg.demo_mode, DemoMode::Generate) {
            random_fill(&mut selected, self.pool.len(), self.cfg.demo_target, &mut rng);
        }
        stage.finish_with(
            self.pool.len() as u64,
            "selected",
            &[
                ("selected", EventValue::U64(selected.len() as u64)),
                ("pool", EventValue::U64(self.pool.len() as u64)),
            ],
        );

        // --- Step 4: prompt + LLM call ---------------------------------------
        // Without the pruning module, demonstrations ship their full schemas too
        // (§III-A prunes demo schemas with the same module), consuming budget that
        // would otherwise carry more composition knowledge.
        let stage = probe.stage(Stage::PromptAssembly);
        let mut demonstrations: Vec<Arc<Demonstration>> = Vec::new();
        if matches!(self.cfg.demo_mode, DemoMode::Generate | DemoMode::Hybrid) {
            // §VII future work: synthesize demonstrations exhibiting each predicted
            // skeleton directly on the current schema. Several samples per
            // prediction diversify values/columns.
            for pred in &predictions {
                for _ in 0..3 {
                    if let Some(d) = synthesize_demonstration(&pred.skeleton, db, &pruned, &mut rng)
                    {
                        demonstrations.push(Arc::new(d));
                    }
                }
            }
        }
        if !matches!(self.cfg.demo_mode, DemoMode::Generate) {
            demonstrations.extend(selected.iter().map(|i| self.pool[*i].clone()));
        }
        let mut prompt = Prompt {
            instruction: "You are a SQLite expert. Answer the question with one SQL query."
                .to_string(),
            demonstrations,
            // A synthesized demonstration's pruned text is the full one when
            // pruning is off, so the flag changes only the pool entries.
            full_schemas: !self.cfg.use_pruning,
            schema_text,
            nl: ex.nl.clone(),
        };
        let fit = prompt.fit_to_budget(self.cfg.len_budget);
        let demos_in_prompt = prompt.demonstrations.len();
        probe.metrics().set_gauge(Gauge::DemosInPrompt, demos_in_prompt as u64);
        stage.finish_with(
            fit.tokens,
            "assembled",
            &[
                ("demos_in_prompt", EventValue::U64(demos_in_prompt as u64)),
                ("dropped_by_budget", EventValue::U64(fit.dropped as u64)),
                ("prompt_tokens", EventValue::U64(fit.tokens)),
            ],
        );
        let session = self.env.session_or_disabled();
        let untraced = session.bind(db);
        let request = GenerationRequest::for_prompt(&prompt, &ex.query, untraced)
            .linking_noise(ex.linking_noise + recall_noise)
            .prune_quality(prune_quality)
            .instruction_quality(0.3)
            .n(self.cfg.num_consistency)
            .seed(seed);
        let response = self.service.complete(&request, &probe);

        // --- Step 5: database adaption + consistency -------------------------
        // The "-Database Adaption" ablation removes the repair loop but keeps the
        // plain execution-consistency vote (§IV-D2 is shared with C3/DAIL-SQL).
        let sdb = untraced.with_tracer(probe.tracer());
        let (sql, fixes, adapted) = if self.cfg.use_adaption {
            let v = consistency_vote(&response.samples, &sdb, &mut rng, &probe);
            (v.sql, v.fixes.iter().map(|f| f.to_string()).collect(), v.adapted)
        } else {
            let sql = raw_vote(&response.samples, &sdb, &probe);
            (sql, Vec::new(), response.samples.clone())
        };
        let translation = Translation {
            sql: sql.clone(),
            prompt_tokens: response.prompt_tokens,
            output_tokens: response.output_tokens,
        };
        let trace = job.trace.then(|| TranslationTrace {
            pruned,
            prune_quality,
            recall_covered,
            predictions,
            selected,
            demos_in_prompt,
            dropped_by_budget: fit.dropped,
            support_level: response.support_level,
            samples: response.samples.clone(),
            adapted,
            fixes,
            sql,
            prompt_tokens: response.prompt_tokens,
            output_tokens: response.output_tokens,
        });
        let metrics = probe.publish();
        RunOutcome { translation, trace, metrics }
    }

    /// Adapt a raw SQL string against a database (exposed for the Table-2 demo and
    /// the error-adaption example binary). Uses the attached session when present.
    pub fn adapt(&self, sql: &str, db: &Database, seed: u64) -> crate::adaption::AdaptResult {
        let session = self.env.session_or_disabled();
        adapt_sql(&session.bind(db), sql, &mut StdRng::seed_from_u64(seed))
    }
}

impl Translator for Purple {
    fn name(&self) -> String {
        format!("PURPLE ({})", self.cfg.profile.name)
    }

    fn run(&self, job: Job<'_>) -> eval::RunOutcome {
        let out = Purple::run(self, job);
        eval::RunOutcome { translation: out.translation, metrics: out.metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eval::evaluate;
    use llm::CHATGPT;
    use spidergen::{generate_suite, GenConfig};

    fn small_purple() -> (spidergen::Suite, Purple) {
        let suite = generate_suite(&GenConfig::tiny(77));
        let mut cfg = PurpleConfig::default_with(CHATGPT);
        cfg.num_consistency = 5;
        let p = Purple::new(&suite.train, cfg);
        (suite, p)
    }

    #[test]
    fn purple_beats_random_selection_on_em() {
        // With a small demo budget the automaton's targeting matters most: random
        // demos rarely contain the required composition, selected ones mostly do.
        let mut gen = GenConfig::tiny(77);
        gen.dev_examples = 80;
        let suite = generate_suite(&gen);
        let mut cfg = PurpleConfig::default_with(CHATGPT);
        cfg.num_consistency = 5;
        cfg.demo_target = 5;
        let purple = Purple::new(&suite.train, cfg.clone());
        let session = engine::ExecSession::disabled();
        let base = evaluate(&purple, &suite.dev, None, 1, &session);
        let mut ablated_cfg = cfg;
        ablated_cfg.use_selection = false;
        let ablated = purple.with_config(ablated_cfg);
        let rand_report = evaluate(&ablated, &suite.dev, None, 1, &session);
        assert!(
            base.overall.em_pct() > rand_report.overall.em_pct(),
            "selection {:.1} should beat random {:.1}",
            base.overall.em_pct(),
            rand_report.overall.em_pct()
        );
    }

    #[test]
    fn purple_produces_mostly_executable_sql() {
        let (suite, purple) = small_purple();
        let mut executable = 0;
        for (i, ex) in suite.dev.examples.iter().take(20).enumerate() {
            let db = suite.dev.db_of(ex);
            let t = purple.run(Job::new(i, ex, db)).translation;
            if sqlkit::parse(&t.sql).ok().map(|q| engine::execute(db, &q).is_ok()).unwrap_or(false)
            {
                executable += 1;
            }
            assert!(t.prompt_tokens > 0);
            assert!(t.prompt_tokens <= 3072);
        }
        assert!(executable >= 18, "only {executable}/20 executable");
    }

    #[test]
    fn translation_is_deterministic() {
        let (suite, p1) = small_purple();
        let (_, p2) = small_purple();
        for (i, ex) in suite.dev.examples.iter().take(5).enumerate() {
            let db = suite.dev.db_of(ex);
            let job = Job::new(i, ex, db);
            assert_eq!(p1.run(job).translation.sql, p2.run(job).translation.sql);
        }
    }

    #[test]
    fn automaton_ratio_is_monotone_like_the_paper() {
        let (_, purple) = small_purple();
        let ratio = purple.automata().end_state_ratio();
        assert!(ratio[0] >= ratio[1] && ratio[1] >= ratio[2] && ratio[2] >= ratio[3]);
        assert!(ratio[3] >= 1);
    }

    #[test]
    fn budget_caps_prompt_tokens() {
        let (suite, purple) = small_purple();
        let mut cfg = PurpleConfig::default_with(CHATGPT);
        cfg.num_consistency = 2;
        cfg.len_budget = 512;
        let tight = purple.with_config(cfg);
        let ex = &suite.dev.examples[0];
        let t = tight.run(Job::new(0, ex, suite.dev.db_of(ex))).translation;
        assert!(t.prompt_tokens <= 512, "prompt {} exceeds budget", t.prompt_tokens);
    }

    #[test]
    fn run_records_every_stage_and_respects_trace_flag() {
        let (suite, purple) = small_purple();
        let ex = &suite.dev.examples[0];
        let db = suite.dev.db_of(ex);

        let plain = purple.run(Job::new(0, ex, db));
        assert!(plain.trace.is_none(), "trace captured without being asked for");
        let traced = purple.run(Job::new(0, ex, db).with_trace(true));
        let trace = traced.trace.expect("trace requested but missing");
        assert_eq!(trace.sql, traced.translation.sql);
        assert_eq!(plain.translation.sql, traced.translation.sql);

        // Every read-pipeline stage fired exactly once per run (write-exec
        // only ticks on DML application, never in translation).
        let m = &plain.metrics;
        for stage in obs::Stage::REPORT {
            assert_eq!(m.stage(stage).calls, 1, "stage {} not spanned once", stage.name());
        }
        assert_eq!(m.counter(obs::Counter::LlmCalls), 1);
        assert_eq!(m.counter(obs::Counter::PromptTokens), plain.translation.prompt_tokens);
        assert_eq!(m.counter(obs::Counter::OutputTokens), plain.translation.output_tokens);
        // The consistency vote saw one Samples increment per generated sample.
        assert_eq!(m.counter(obs::Counter::Samples), 5);
        assert_eq!(m.gauge(obs::Gauge::PoolSize), Some(purple.pool_size() as u64));
        assert!(m.gauge(obs::Gauge::DemosInPrompt).is_some());
        // Virtual clock: latency equals declared work, identical across runs.
        assert_eq!(m.clock, Clock::Virtual);
        assert_eq!(traced.metrics, *m);

        // With a tracer and an event sink attached, each stage close writes
        // every view: per stage, one span per registry call, and the spans'
        // own virtual time (less their exec children) is the registry's sum.
        let tracer = obs::TraceRecorder::new(0);
        let sink = obs::EventSink::default();
        let job = Job::new(0, ex, db).with_tracer(Some(&tracer)).with_events(Some(&sink));
        let observed = purple.run(job);
        assert_eq!(observed.translation.sql, plain.translation.sql);
        assert_eq!(observed.metrics, *m, "observing a run changes what it records");
        assert!(!sink.drain().events.is_empty());
        let (_, spans, dropped) = tracer.into_spans();
        assert_eq!(dropped, 0);
        for stage in obs::Stage::REPORT {
            let of_stage: Vec<_> = spans.iter().filter(|s| s.name == stage.name()).collect();
            let own: u64 = of_stage
                .iter()
                .map(|s| {
                    let children = spans.iter().filter(|c| c.parent == Some(s.id));
                    s.virt() - children.map(|c| c.virt()).sum::<u64>()
                })
                .sum();
            let recorded = m.stage(stage);
            assert_eq!(of_stage.len() as u64, recorded.calls, "{} span count", stage.name());
            assert_eq!(own, recorded.latency.sum, "{} own virtual time", stage.name());
        }
    }

    #[test]
    fn run_emits_ordered_events_and_traces_carry_samples() {
        let (suite, purple) = small_purple();
        let sink = obs::EventSink::default();
        let mut traces = Vec::new();
        // Publish out of order to prove the drain sorts by example index.
        for &i in &[2usize, 0, 1] {
            let ex = &suite.dev.examples[i];
            let db = suite.dev.db_of(ex);
            let out = purple.run(Job::new(i, ex, db).with_trace(true).with_events(Some(&sink)));
            let trace = out.trace.expect("trace requested");
            assert_eq!(trace.samples.len(), 5);
            assert_eq!(trace.adapted.len(), trace.samples.len());
            traces.push((i, trace));
        }
        let drained = sink.drain();
        assert_eq!(drained.dropped_batches, 0);
        assert_eq!(drained.dropped_events, 0);
        let idxs: Vec<usize> = drained.events.iter().map(|e| e.example_idx).collect();
        let mut sorted = idxs.clone();
        sorted.sort_unstable();
        assert_eq!(idxs, sorted, "events not ordered by example index");
        // Each run emits one event per pipeline stage the recorder covers.
        for i in 0..3 {
            let stages: Vec<&str> =
                drained.events.iter().filter(|e| e.example_idx == i).map(|e| e.stage).collect();
            for stage in [
                Stage::SchemaPruning,
                Stage::SkeletonPrediction,
                Stage::DemoSelection,
                Stage::PromptAssembly,
                Stage::LlmCall,
                Stage::ConsistencyVote,
            ] {
                assert!(
                    stages.contains(&stage.name()),
                    "example {i} missing stage {}",
                    stage.name()
                );
            }
        }
        // Blame resolves on every trace and agrees with EX.
        let session = engine::ExecSession::disabled();
        for (i, trace) in &traces {
            let ex = &suite.dev.examples[*i];
            let sdb = session.bind(suite.dev.db_of(ex));
            let verdict = trace.blame(&ex.query, &sdb);
            let correct = eval::ex_match_str(&sdb, &trace.sql, &ex.query);
            assert_eq!(verdict.is_none(), correct, "blame disagrees with EX on example {i}");
        }
    }

    #[test]
    fn shared_registry_absorbs_per_run_snapshots() {
        let (suite, purple) = small_purple();
        let shared = obs::MetricsRegistry::shared(Clock::Virtual);
        let purple = purple
            .with_config(purple.cfg.clone())
            .with_env(RunEnv::default().with_metrics(shared.clone()));
        let mut merged = StageMetrics::default();
        for (i, ex) in suite.dev.examples.iter().take(3).enumerate() {
            let out = purple.run(Job::new(i, ex, suite.dev.db_of(ex)));
            merged.merge(&out.metrics);
        }
        assert_eq!(shared.snapshot(), merged);
        assert_eq!(shared.snapshot().counter(obs::Counter::LlmCalls), 3);
    }
}
