//! PLM-based baselines (PICARD / RASAT / RESDSQL / Graphix-T5 analogs).
//!
//! These systems fine-tune a seq2seq PLM end-to-end, which (per §IV-B) makes them
//! strong at operator composition but comparatively weak at intent/value fidelity —
//! the inverse signature of the LLM rows in Table 4 (high EM, moderate EX, low TS).
//!
//! Mechanics: the system decodes a skeleton beam from the trained predictor; the
//! composition is correct when the gold skeleton is recovered (top-1, or anywhere
//! in the beam for constrained re-ranking à la PICARD). Because the paper's T5-3B
//! is stronger than our naive-Bayes stand-in, each preset carries a calibrated
//! `fidelity` bonus — the probability that the real model would have decoded the
//! right composition even where our stand-in misses (documented in DESIGN.md §5).
//! Slot filling then introduces linking/value errors at PLM-typical rates.

use eval::{Job, RunEnv, RunOutcome, Translation, Translator};
use llm::writer::write_sample;
use llm::{count_tokens, LlmProfile, CHATGPT};
use nlmodel::SkeletonPredictor;
use obs::{Clock, Counter, EventValue, Stage};
use rand::prelude::*;
use rand::rngs::StdRng;
use sqlkit::Skeleton;
use std::sync::Arc;

/// Preset parameters for one published PLM system.
#[derive(Debug, Clone, Copy)]
pub struct PlmConfig {
    /// Display name.
    pub name: &'static str,
    /// Beam width.
    pub beam: usize,
    /// Whether the beam is re-ranked by executability (PICARD's constrained
    /// decoding / RESDSQL's ranking stage).
    pub constrained: bool,
    /// Calibrated probability of recovering the composition when the stand-in
    /// predictor misses (fine-tuning fidelity gap).
    pub fidelity: f64,
    /// Schema-linking slip rate.
    pub linking_error: f64,
    /// Wrong-constant rate (drives the large EX−TS gap of Table 4's PLM rows).
    pub value_error: f64,
}

/// PICARD (Scholak et al. 2021): constrained auto-regressive decoding.
pub const PICARD: PlmConfig = PlmConfig {
    name: "PICARD",
    beam: 1,
    constrained: true,
    fidelity: 0.32,
    linking_error: 0.065,
    value_error: 0.115,
};

/// RASAT (Qi et al. 2022): relation-aware self-attention.
pub const RASAT: PlmConfig = PlmConfig {
    name: "RASAT",
    beam: 1,
    constrained: false,
    fidelity: 0.30,
    linking_error: 0.055,
    value_error: 0.110,
};

/// RESDSQL (Li et al. 2023): decoupled schema linking + skeleton parsing.
pub const RESDSQL: PlmConfig = PlmConfig {
    name: "RESDSQL",
    beam: 1,
    constrained: true,
    fidelity: 0.50,
    linking_error: 0.040,
    value_error: 0.095,
};

/// Graphix-T5 (Li et al. 2023): graph-aware encoder layers.
pub const GRAPHIX: PlmConfig = PlmConfig {
    name: "Graphix-T5",
    beam: 1,
    constrained: false,
    fidelity: 0.40,
    linking_error: 0.050,
    value_error: 0.085,
};

/// All four presets in the Table-4 order.
pub const ALL_PLM: [PlmConfig; 4] = [PICARD, RASAT, RESDSQL, GRAPHIX];

/// A PLM-based translator.
pub struct PlmTranslator {
    cfg: PlmConfig,
    predictor: Arc<SkeletonPredictor>,
    profile: LlmProfile,
    /// Shared run environment (same convention as [`purple::Purple`]). PLMs
    /// run local inference, so only the metrics registry and default event
    /// sink apply — the session and ledger are accepted but unused.
    env: RunEnv,
    /// Stage clock, adopted from the attached registry.
    clock: Clock,
}

impl PlmTranslator {
    /// Build from a preset and a trained skeleton predictor.
    pub fn new(cfg: PlmConfig, predictor: Arc<SkeletonPredictor>) -> Self {
        // PLMs are grammar-constrained decoders: no hallucinated functions or
        // mangled identifiers, canonical SQL shapes (low equivalence bias), and the
        // preset's linking/value rates.
        let profile = LlmProfile {
            name: "PLM",
            linking_error: cfg.linking_error,
            value_error: cfg.value_error,
            halluc_rate: 0.0,
            equivalent_bias: 0.45,
            ..CHATGPT
        };
        PlmTranslator { cfg, predictor, profile, env: RunEnv::default(), clock: Clock::default() }
    }

    /// Attach a shared run environment, builder-style (same convention as
    /// [`purple::Purple::with_env`]): per-run metric snapshots are absorbed
    /// into `env.metrics` (whose clock is adopted), and `env.events` is the
    /// default sink for jobs without their own.
    pub fn with_env(mut self, env: RunEnv) -> Self {
        if let Some(metrics) = &env.metrics {
            self.clock = metrics.clock();
        }
        self.env = env;
        self
    }
}

impl Translator for PlmTranslator {
    fn name(&self) -> String {
        self.cfg.name.to_string()
    }

    fn run(&self, job: Job<'_>) -> RunOutcome {
        let (ex, db) = (job.example, job.db);
        // idx + 1 reproduces the historical 1-based call counter.
        let seed = job.seed.unwrap_or_else(|| {
            0x9d2c5680u64.wrapping_mul(job.idx as u64 + 1).wrapping_add(self.cfg.name.len() as u64)
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let probe = self.env.probe(&job, self.clock);

        let stage = probe.stage(Stage::SkeletonPrediction);
        let gold_skel = Skeleton::from_query(&ex.query);
        let beam = self.predictor.predict(&ex.nl, db, self.cfg.beam);
        let decoded_ok = if self.cfg.constrained {
            // Constrained decoding rescues the composition when it is anywhere in
            // the beam (invalid prefixes are pruned, so the right candidate
            // surfaces).
            beam.iter().any(|p| p.skeleton == gold_skel)
        } else {
            beam.first().map(|p| p.skeleton == gold_skel).unwrap_or(false)
        };
        let composition_ok = decoded_ok || rng.random_bool(self.cfg.fidelity);
        stage.finish_with(
            beam.len() as u64,
            "decoded",
            &[
                ("beam", EventValue::U64(beam.len() as u64)),
                ("constrained", EventValue::Bool(self.cfg.constrained)),
                ("composition_ok", EventValue::Bool(composition_ok)),
            ],
        );

        // Variants degrade PLM schema linking too (Fig. 10's premise): fine-tuned
        // linkers depend on lexical overlap even more than LLMs do.
        let sql = write_sample(
            &self.profile,
            &ex.query,
            db,
            ex.linking_noise * 1.5,
            true,
            composition_ok,
            &mut rng,
        );
        let translation = Translation {
            sql: sql.clone(),
            // Local inference: no API tokens; report raw text sizes for reference.
            prompt_tokens: count_tokens(&ex.nl),
            output_tokens: count_tokens(&sql),
        };
        let reg = probe.metrics();
        reg.count(Counter::Samples, 1);
        reg.count(Counter::PromptTokens, translation.prompt_tokens);
        reg.count(Counter::OutputTokens, translation.output_tokens);
        RunOutcome { translation, metrics: probe.publish() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::ExecSession;
    use eval::{build_suites, evaluate, SuiteConfig};
    use nlmodel::SkeletonPredictor;
    use spidergen::{generate_suite, GenConfig};

    #[test]
    fn plm_rows_have_high_em_and_ts_at_most_ex() {
        // On one tiny dev split (40 examples) the two presets' EM differ by
        // less than the sampling noise, so the claims pool the tiny seeds
        // 50..80: 1,200 examples, RESDSQL 806 EM hits and PICARD 748. Table 4
        // scores TS at or below EX for every row (pooled here: RESDSQL EX
        // 82.7%, TS 79.1%; PICARD 79.8%, 74.8%). The size of the EX-TS gap is
        // not claimed: ours is smaller for the PLM rows than for PURPLE.
        let (mut n, mut em, mut ex, mut ts) = (0usize, [0usize; 2], [0usize; 2], [0usize; 2]);
        for seed in 50..80 {
            let suite = generate_suite(&GenConfig::tiny(seed));
            let suites = build_suites(&suite.dev, SuiteConfig::default(), seed);
            let predictor = Arc::new(SkeletonPredictor::train(&suite.train));
            for (row, cfg) in [RESDSQL, PICARD].into_iter().enumerate() {
                let r = evaluate(
                    &PlmTranslator::new(cfg, predictor.clone()),
                    &suite.dev,
                    Some(&suites),
                    1,
                    &ExecSession::disabled(),
                );
                em[row] += r.overall.em;
                ex[row] += r.overall.ex;
                ts[row] += r.overall.ts;
            }
            n += suite.dev.examples.len();
        }
        let pct = |hits: usize| 100.0 * hits as f64 / n as f64;
        assert!(pct(em[0]) > 60.0, "RESDSQL EM too low: {:.1}", pct(em[0]));
        assert!(
            em[0] >= em[1],
            "RESDSQL {:.1} should be at least PICARD {:.1}",
            pct(em[0]),
            pct(em[1])
        );
        for (row, name) in ["RESDSQL", "PICARD"].iter().enumerate() {
            assert!(ts[row] <= ex[row], "{name}: TS {} above EX {}", pct(ts[row]), pct(ex[row]));
        }
    }

    #[test]
    fn runs_on_the_clock_of_the_attached_registry() {
        let suite = generate_suite(&GenConfig::tiny(68));
        let predictor = Arc::new(SkeletonPredictor::train(&suite.train));
        let ex = &suite.dev.examples[0];
        let job = Job::new(0, ex, suite.dev.db_of(ex));
        let plain = PlmTranslator::new(PICARD, predictor.clone());
        assert_eq!(plain.run(job).metrics.clock, Clock::Virtual);
        let registry = obs::MetricsRegistry::shared(Clock::Wall);
        let wall = PlmTranslator::new(PICARD, predictor)
            .with_env(RunEnv { metrics: Some(registry.clone()), ..RunEnv::default() });
        assert_eq!(wall.run(job).metrics.clock, Clock::Wall);
        assert_eq!(registry.snapshot().clock, Clock::Wall);
    }

    #[test]
    fn constrained_decoding_helps_composition() {
        let suite = generate_suite(&GenConfig::tiny(67));
        let predictor = Arc::new(SkeletonPredictor::train(&suite.train));
        let unconstrained = PlmConfig { constrained: false, fidelity: 0.0, beam: 4, ..PICARD };
        let constrained = PlmConfig { constrained: true, fidelity: 0.0, beam: 4, ..PICARD };
        let em = |cfg| {
            let t = PlmTranslator::new(cfg, predictor.clone());
            evaluate(&t, &suite.dev, None, 1, &ExecSession::disabled()).overall.em_pct()
        };
        assert!(em(constrained) > em(unconstrained));
    }
}
