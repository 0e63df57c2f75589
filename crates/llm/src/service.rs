//! The simulated LLM service: prompt in, n SQL samples out, with token and cost
//! accounting and the composition-prior mechanism of the paper.
//!
//! How the simulation works (see DESIGN.md, substitution table):
//!
//! 1. The service receives the prompt **and** the example's intent (the gold query
//!    plus the variant-induced linking noise). Intent understanding is simulated —
//!    that is the documented substitution for "LLMs have strong NL understanding".
//! 2. Composition knowledge is **mechanistic**: the probability of writing the
//!    correct operator composition starts from the model's prior (by hardness) and
//!    is boosted by the *finest abstraction level at which any in-context
//!    demonstration matches the required skeleton* (§IV-C1's hierarchy). This is
//!    the causal link every experiment in the paper measures.
//! 3. Errors are layered per sample (writer.rs); samples vary with temperature,
//!    enabling execution-consistency voting.

use crate::profile::LlmProfile;
use crate::prompt::Prompt;
use crate::rewrites::near_miss;
use crate::tokenizer::{count_tokens, CONTEXT_LIMIT};
use crate::writer::{inject_hallucination, inject_linking_slip, inject_value_error};
use engine::SessionDb;
use rand::prelude::*;
use rand::rngs::StdRng;
use sqlkit::{hardness, Level, Query, Skeleton};

/// One generation request.
///
/// Construct with the [`GenerationRequest::for_prompt`] builder and chain the
/// options that differ from the defaults; what the call records goes to the
/// run's [`obs::Probe`], passed to [`LlmService::complete`] beside the request:
///
/// ```ignore
/// let req = GenerationRequest::for_prompt(&prompt, &gold, session.bind(&db)).n(10).seed(job_seed);
/// let response = service.complete(&req, &probe);
/// ```
#[derive(Debug)]
pub struct GenerationRequest<'a> {
    /// The assembled prompt.
    pub prompt: &'a Prompt,
    /// The example's intent (gold query): the simulated NL-understanding channel.
    pub gold: &'a Query,
    /// The database the SQL must target, bound to the run's execution
    /// session: the near-miss choice executes the gold query and its
    /// rewrites through it. The service runs it untraced, so the llm-call
    /// stage records no exec spans.
    pub db: SessionDb<'a, 'a>,
    /// Extra schema-linking noise (variant splits; 0 for plain Spider).
    pub linking_noise: f64,
    /// How aggressively the prompt schema was pruned, in `[0, 1]`: 0 = full schema,
    /// 1 = hypothetical single-item schema. Smaller prompts mean fewer confusable
    /// items, reducing linking slips and hallucinations proportionally (§IV-A).
    pub prune_quality: f64,
    /// Instruction-engineering quality in `[0,1]` (C3-style zero-shot prompts).
    pub instruction_quality: f64,
    /// Chain-of-thought prompting (DIN-SQL style).
    pub cot: bool,
    /// Number of samples (execution-consistency n).
    pub n: usize,
    /// Per-request determinism seed.
    pub seed: u64,
    /// Additional output tokens the strategy emits beyond SQL (CoT reasoning
    /// text, C3's uncontrolled chatter); added once per call.
    pub extra_output_tokens: u64,
}

impl<'a> GenerationRequest<'a> {
    /// A request with the default knobs: no linking noise, unpruned schema, no
    /// instruction engineering, no CoT, one sample, seed 0, no extra output
    /// tokens.
    pub fn for_prompt(prompt: &'a Prompt, gold: &'a Query, db: SessionDb<'a, 'a>) -> Self {
        GenerationRequest {
            prompt,
            gold,
            db,
            linking_noise: 0.0,
            prune_quality: 0.0,
            instruction_quality: 0.0,
            cot: false,
            n: 1,
            seed: 0,
            extra_output_tokens: 0,
        }
    }

    /// Set the linking noise (variant splits).
    pub fn linking_noise(mut self, v: f64) -> Self {
        self.linking_noise = v;
        self
    }

    /// Set the schema-pruning quality.
    pub fn prune_quality(mut self, v: f64) -> Self {
        self.prune_quality = v;
        self
    }

    /// Set the instruction-engineering quality.
    pub fn instruction_quality(mut self, v: f64) -> Self {
        self.instruction_quality = v;
        self
    }

    /// Enable/disable chain-of-thought prompting.
    pub fn cot(mut self, on: bool) -> Self {
        self.cot = on;
        self
    }

    /// Set the number of samples.
    pub fn n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Set the determinism seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the extra (non-SQL) output tokens billed once per call.
    pub fn extra_output_tokens(mut self, tokens: u64) -> Self {
        self.extra_output_tokens = tokens;
        self
    }
}

/// The service's response.
#[derive(Debug, Clone)]
pub struct GenerationResponse {
    /// SQL samples, length `n`.
    pub samples: Vec<String>,
    /// Billed prompt tokens (clipped at the context limit).
    pub prompt_tokens: u64,
    /// Billed output tokens.
    pub output_tokens: u64,
    /// Finest abstraction level at which an in-context demonstration matched the
    /// required composition, if any (diagnostic).
    pub support_level: Option<Level>,
}

/// The simulated LLM.
#[derive(Debug, Clone)]
pub struct LlmService {
    profile: LlmProfile,
    ledger: Option<std::sync::Arc<crate::ledger::CostLedger>>,
}

impl LlmService {
    /// A service instance for a model tier.
    pub fn new(profile: LlmProfile) -> Self {
        LlmService { profile, ledger: None }
    }

    /// Attach a shared cost ledger, builder-style: every `complete` call records
    /// its billed prompt/output tokens (§V-D budget accounting).
    pub fn with_ledger(mut self, ledger: std::sync::Arc<crate::ledger::CostLedger>) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Replace (or detach) the shared cost ledger in place — the `&mut`
    /// counterpart of [`LlmService::with_ledger`], used by translators when a
    /// whole run environment is swapped via `with_env`.
    pub fn set_ledger(&mut self, ledger: Option<std::sync::Arc<crate::ledger::CostLedger>>) {
        self.ledger = ledger;
    }

    /// The model profile.
    pub fn profile(&self) -> &LlmProfile {
        &self.profile
    }

    /// Finest level at which any of `demo_skeletons` matches `required`
    /// (in-context composition support).
    pub fn support_level(required: &Skeleton, demo_skeletons: &[&Skeleton]) -> Option<Level> {
        for level in Level::ALL {
            let target = required.at_level(level);
            if demo_skeletons.iter().any(|d| d.at_level(level) == target) {
                return Some(level);
            }
        }
        None
    }

    /// Probability of writing the correct composition for this request.
    pub fn composition_probability(
        &self,
        required: &Skeleton,
        demos_in_context: &[&Skeleton],
        gold: &Query,
        instruction_quality: f64,
        cot: bool,
    ) -> (f64, Option<Level>) {
        let p = &self.profile;
        let h = hardness(gold) as usize;
        let mut prob = p.base_composition[h];
        let support = Self::support_level(required, demos_in_context);
        if let Some(level) = support {
            prob += p.boost_for_level(level);
        }
        prob += instruction_quality * p.instruction_boost;
        if cot {
            // CoT's composition gain is modest (most of its effect is on the
            // *form* of near-misses, handled at sampling time): scale by 0.3.
            prob += 0.3 * p.cot_gain * (p.reasoning - p.cot_floor);
        }
        (prob.clamp(0.02, 0.99), support)
    }

    /// Run a generation request as the run's llm-call stage: `probe` gets the
    /// stage (virtual work = billed prompt + output tokens), the call and
    /// token counters, and one `completed` event.
    pub fn complete(
        &self,
        req: &GenerationRequest<'_>,
        probe: &obs::Probe<'_>,
    ) -> GenerationResponse {
        let stage = probe.stage(obs::Stage::LlmCall);
        let mut rng = StdRng::seed_from_u64(req.seed);
        let full_tokens = req.prompt.token_len();
        let prompt_tokens = full_tokens.min(CONTEXT_LIMIT);

        // Demonstrations beyond the context limit are silently truncated by the
        // API and provide no composition support.
        let mut effective: Vec<&Skeleton> = Vec::new();
        let head = count_tokens(&req.prompt.instruction)
            + count_tokens(&req.prompt.schema_text)
            + count_tokens(&req.prompt.nl)
            + 8;
        let mut used = head;
        for d in &req.prompt.demonstrations {
            used += d.context_charge(req.prompt.full_schemas);
            if used > CONTEXT_LIMIT {
                break;
            }
            effective.push(d.skeleton());
        }

        let required = Skeleton::from_query(req.gold);
        let (mut prob, support_level) = self.composition_probability(
            &required,
            &effective,
            req.gold,
            req.instruction_quality,
            req.cot,
        );
        // §IV-C1's critique of set-based similarity, made mechanistic: an
        // in-context demonstration with the *same keyword set but a different
        // sequence* actively teaches the wrong operator ordering. Unless a
        // Detail-level match anchors the right composition, such confusers pull
        // the model toward the wrong structure.
        if support_level != Some(Level::Detail) {
            let req_kw_seq = required.at_level(Level::Keywords);
            let mut req_kw_set: Vec<_> = req_kw_seq.clone();
            req_kw_set.sort();
            let has_confuser = effective.iter().any(|d| {
                let seq = d.at_level(Level::Keywords);
                let mut set: Vec<_> = seq.clone();
                set.sort();
                set == req_kw_set && seq != req_kw_seq
            });
            if has_confuser {
                prob = (prob - 0.15).max(0.02);
            }
        }

        // --- Systematic (per-request) error draws --------------------------
        // An LLM's mistakes on one prompt are correlated across samples: the
        // misread of the question, the wrong constant, and the preferred (wrong)
        // composition repeat from sample to sample. Only decoding-time
        // hallucinations vary. This is what keeps execution-consistency voting
        // honest: it washes out hallucinations, not misunderstandings.
        let p = &self.profile;
        // Chain-of-thought mostly fixes *semantics*: strong reasoners convert
        // would-be corrupting mistakes into equivalence-preserving form differences
        // (DIN-SQL's high EX / mediocre EM); weak reasoners propagate errors and
        // corrupt more (the Table-5 ChatGPT collapse).
        let eq_bias = if req.cot {
            (p.equivalent_bias + 0.5 * (p.reasoning - p.cot_floor)).clamp(0.05, 0.95)
        } else {
            p.equivalent_bias
        };
        let sdb = req.db.with_tracer(None);
        let db = sdb.db();
        let wrong_template =
            near_miss(req.gold, &sdb, eq_bias, &mut rng).unwrap_or_else(|| req.gold.clone());
        let q = req.prune_quality.clamp(0.0, 1.0);
        let link_factor = 1.0 - (1.0 - p.pruned_linking_factor) * q;
        let p_link = ((p.linking_error + req.linking_noise) * link_factor).min(0.9);
        let slip = rng.random_bool(p_link);
        let value_err = rng.random_bool(p.value_error);
        let mut gold_tmpl = req.gold.clone();
        let mut wrong_tmpl = wrong_template;
        if slip {
            let mut slip_rng = StdRng::seed_from_u64(req.seed ^ 0x51a9);
            inject_linking_slip(&mut gold_tmpl, db, &mut slip_rng);
            let mut slip_rng = StdRng::seed_from_u64(req.seed ^ 0x51a9);
            inject_linking_slip(&mut wrong_tmpl, db, &mut slip_rng);
        }
        if value_err {
            let mut v_rng = StdRng::seed_from_u64(req.seed ^ 0x7a1e);
            inject_value_error(&mut gold_tmpl, db, &mut v_rng);
            let mut v_rng = StdRng::seed_from_u64(req.seed ^ 0x7a1e);
            inject_value_error(&mut wrong_tmpl, db, &mut v_rng);
        }
        let p_h = p.halluc_rate * (1.0 - (1.0 - p.pruned_halluc_factor) * q);
        // Part of the hallucination mass is *systematic* — the model consistently
        // reaches for CONCAT or the wrong qualifier on this prompt, in every
        // sample. Voting cannot remove it; only the Database Adaption repair loop
        // can (the Table-6 "-Database Adaption" deltas: EM -1.4, EX -3.0).
        if rng.random_bool(p_h * 0.28) {
            let mut h_rng = StdRng::seed_from_u64(req.seed ^ 0xa511);
            inject_hallucination(&mut gold_tmpl, db, &mut h_rng);
            let mut h_rng = StdRng::seed_from_u64(req.seed ^ 0xa511);
            inject_hallucination(&mut wrong_tmpl, db, &mut h_rng);
        }

        // The model *commits* to a composition for this prompt (its belief about
        // the right operator structure is a property of the prompt, not of the
        // sampling temperature); individual samples deviate from the commitment
        // with a small temperature-controlled flip. Consequently consistency
        // voting corrects decoding noise and hallucinations — a few points, as in
        // the paper's Fig. 11 — but cannot vote away a misunderstanding.
        let committed_ok = rng.random_bool(prob);
        let mut samples = Vec::with_capacity(req.n);
        let mut output_tokens = req.extra_output_tokens;
        // Each template is printed and counted at most once; only a sample
        // that a hallucination changed is printed on its own.
        let templates = [&gold_tmpl, &wrong_tmpl];
        let mut rendered: [Option<(String, u64)>; 2] = [None, None];
        let render = |q: &Query| {
            let sql = q.to_string();
            let tokens = count_tokens(&sql);
            (sql, tokens)
        };
        for _ in 0..req.n.max(1) {
            let flip = rng.random_bool(self.profile.temperature);
            let composition_ok = committed_ok ^ flip;
            let t = usize::from(!composition_ok);
            let mut hallucinated = None;
            if rng.random_bool(p_h * 0.65) {
                let mut q = templates[t].clone();
                inject_hallucination(&mut q, db, &mut rng);
                hallucinated = (q != *templates[t]).then_some(q);
            }
            let (sql, tokens) = match hallucinated {
                Some(q) => render(&q),
                None => rendered[t].get_or_insert_with(|| render(templates[t])).clone(),
            };
            output_tokens += tokens + 2;
            samples.push(sql);
        }
        if let Some(ledger) = &self.ledger {
            ledger.record(prompt_tokens, output_tokens);
        }
        let reg = probe.metrics();
        reg.count(obs::Counter::LlmCalls, 1);
        reg.count(obs::Counter::PromptTokens, prompt_tokens);
        reg.count(obs::Counter::OutputTokens, output_tokens);
        if full_tokens > CONTEXT_LIMIT {
            reg.count(obs::Counter::ContextOverflows, 1);
        }
        let support = match support_level {
            Some(Level::Detail) => "Detail",
            Some(Level::Keywords) => "Keywords",
            Some(Level::Structure) => "Structure",
            Some(Level::Clause) => "Clause",
            None => "none",
        };
        stage.finish_with(
            prompt_tokens + output_tokens,
            "completed",
            &[
                ("samples", obs::EventValue::U64(samples.len() as u64)),
                ("prompt_tokens", obs::EventValue::U64(prompt_tokens)),
                ("output_tokens", obs::EventValue::U64(output_tokens)),
                ("overflow", obs::EventValue::Bool(full_tokens > CONTEXT_LIMIT)),
                ("support", obs::EventValue::Str(support)),
            ],
        );
        GenerationResponse { samples, prompt_tokens, output_tokens, support_level }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{CHATGPT, GPT4};
    use crate::prompt::Demonstration;
    use engine::{Database, ExecSession};
    use sqlkit::parse;
    use std::sync::Arc;

    fn db() -> Database {
        let mut s = sqlkit::Schema::new("d");
        s.tables.push(sqlkit::Table {
            name: "t".into(),
            display: "t".into(),
            columns: vec![
                sqlkit::Column::new("id", sqlkit::ColumnType::Int),
                sqlkit::Column::new("name", sqlkit::ColumnType::Text),
            ],
            primary_key: Some(0),
        });
        Database::empty(s)
    }

    fn demo_with_skeleton(sk: &str) -> Arc<Demonstration> {
        Arc::new(Demonstration::new(
            "create table x (a int)\n".into(),
            "create table x (a int)\n".into(),
            "q?".into(),
            "SELECT a FROM x".into(),
            Skeleton::parse(sk),
        ))
    }

    #[test]
    fn support_level_finds_finest_match() {
        let required = Skeleton::from_query(&parse("SELECT name FROM t WHERE id = 1").unwrap());
        let exact = Skeleton::parse("SELECT _ FROM _ WHERE _ = _");
        let structural = Skeleton::parse("SELECT _ FROM _ WHERE _ >= _");
        let clauseish = Skeleton::parse("SELECT _ , _ FROM _ WHERE _ > _ AND _ = _");
        assert_eq!(LlmService::support_level(&required, &[&exact]), Some(Level::Detail));
        assert_eq!(LlmService::support_level(&required, &[&structural]), Some(Level::Structure));
        assert_eq!(LlmService::support_level(&required, &[&clauseish]), Some(Level::Clause));
        assert_eq!(LlmService::support_level(&required, &[]), None);
        // Best of several wins.
        assert_eq!(
            LlmService::support_level(&required, &[&clauseish, &exact]),
            Some(Level::Detail)
        );
    }

    #[test]
    fn composition_probability_orders_as_the_paper_requires() {
        let svc = LlmService::new(CHATGPT);
        let gold = parse("SELECT name FROM t WHERE id = 1").unwrap();
        let required = Skeleton::from_query(&gold);
        let exact = Skeleton::parse("SELECT _ FROM _ WHERE _ = _");
        let clauseish = Skeleton::parse("SELECT _ , _ FROM _ WHERE _ > _ AND _ = _");
        let (p_none, _) = svc.composition_probability(&required, &[], &gold, 0.0, false);
        let (p_clause, _) =
            svc.composition_probability(&required, &[&clauseish], &gold, 0.0, false);
        let (p_exact, _) = svc.composition_probability(&required, &[&exact], &gold, 0.0, false);
        let (p_instr, _) = svc.composition_probability(&required, &[], &gold, 1.0, false);
        assert!(p_none < p_clause && p_clause < p_exact);
        assert!(p_none < p_instr && p_instr < p_clause);
        // GPT-4 benefits from CoT, ChatGPT barely does.
        let svc4 = LlmService::new(GPT4);
        let (p4_cot, _) = svc4.composition_probability(&required, &[], &gold, 0.0, true);
        let (p4_plain, _) = svc4.composition_probability(&required, &[], &gold, 0.0, false);
        assert!(p4_cot > p4_plain + 0.04);
    }

    #[test]
    fn complete_is_deterministic_per_seed_and_counts_tokens() {
        let db = db();
        let gold = parse("SELECT name FROM t WHERE id = 1").unwrap();
        let prompt = Prompt {
            instruction: String::new(),
            demonstrations: vec![demo_with_skeleton("SELECT _ FROM _ WHERE _ = _")],
            schema_text: "create table t (id int, name text)\n".into(),
            nl: "what is the name of t with id 1?".into(),
            ..Default::default()
        };
        let svc = LlmService::new(CHATGPT);
        let session = ExecSession::new(0);
        let req = GenerationRequest::for_prompt(&prompt, &gold, session.bind(&db))
            .prune_quality(1.0)
            .n(5)
            .seed(99);
        let a = svc.complete(&req, &obs::Probe::detached());
        let b = svc.complete(&req, &obs::Probe::detached());
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.samples.len(), 5);
        assert!(a.prompt_tokens > 0);
        assert!(a.output_tokens > 0);
        assert_eq!(a.support_level, Some(Level::Detail));
    }

    #[test]
    fn context_overflow_drops_demo_support() {
        let db = db();
        let gold = parse("SELECT name FROM t WHERE id = 1").unwrap();
        // A gigantic instruction eats the context; the demo no longer helps.
        let prompt = Prompt {
            instruction: "x ".repeat(5000),
            demonstrations: vec![demo_with_skeleton("SELECT _ FROM _ WHERE _ = _")],
            schema_text: "create table t (id int, name text)\n".into(),
            nl: "q?".into(),
            ..Default::default()
        };
        let svc = LlmService::new(CHATGPT);
        let probe = obs::Probe::detached();
        let session = ExecSession::new(0);
        let req = GenerationRequest::for_prompt(&prompt, &gold, session.bind(&db)).seed(1);
        let resp = svc.complete(&req, &probe);
        assert_eq!(resp.support_level, None);
        assert_eq!(resp.prompt_tokens, CONTEXT_LIMIT);
        let snap = probe.publish();
        assert_eq!(snap.counter(obs::Counter::ContextOverflows), 1);
        assert_eq!(snap.counter(obs::Counter::LlmCalls), 1);
        assert_eq!(snap.counter(obs::Counter::PromptTokens), resp.prompt_tokens);
        assert_eq!(snap.counter(obs::Counter::OutputTokens), resp.output_tokens);
        assert_eq!(
            snap.stage(obs::Stage::LlmCall).latency.sum,
            resp.prompt_tokens + resp.output_tokens,
            "virtual llm-call span covers billed tokens"
        );
    }

    #[test]
    fn complete_emits_an_llm_call_event() {
        let db = db();
        let gold = parse("SELECT name FROM t WHERE id = 1").unwrap();
        let prompt = Prompt {
            instruction: String::new(),
            demonstrations: vec![demo_with_skeleton("SELECT _ FROM _ WHERE _ = _")],
            schema_text: "create table t (id int, name text)\n".into(),
            nl: "q?".into(),
            ..Default::default()
        };
        let svc = LlmService::new(CHATGPT);
        let sink = obs::EventSink::bounded(4, 16);
        let probe = obs::Probe::new(obs::Clock::Virtual, 3, None, Some(&sink), None);
        let session = ExecSession::new(0);
        let req = GenerationRequest::for_prompt(&prompt, &gold, session.bind(&db)).n(4).seed(7);
        let resp = svc.complete(&req, &probe);
        probe.publish();
        let drained = sink.drain();
        assert_eq!(drained.events.len(), 1);
        let e = &drained.events[0];
        assert_eq!((e.example_idx, e.stage, e.kind), (3, "llm-call", "completed"));
        assert!(e.fields.iter().any(|(k, v)| *k == "samples" && *v == obs::EventValue::U64(4)));
        assert!(e
            .fields
            .iter()
            .any(|(k, v)| *k == "prompt_tokens" && *v == obs::EventValue::U64(resp.prompt_tokens)));
        assert!(e
            .fields
            .iter()
            .any(|(k, v)| *k == "support" && *v == obs::EventValue::Str("Detail")));
    }

    #[test]
    fn more_samples_cost_more_output_tokens() {
        let db = db();
        let gold = parse("SELECT name FROM t").unwrap();
        let prompt = Prompt {
            instruction: String::new(),
            demonstrations: vec![],
            schema_text: "create table t (id int, name text)\n".into(),
            nl: "q?".into(),
            ..Default::default()
        };
        let svc = LlmService::new(CHATGPT);
        let session = ExecSession::new(0);
        let mk = |n: usize| {
            GenerationRequest::for_prompt(&prompt, &gold, session.bind(&db)).n(n).seed(5)
        };
        let one = svc.complete(&mk(1), &obs::Probe::detached());
        let ten = svc.complete(&mk(10), &obs::Probe::detached());
        assert!(ten.output_tokens > one.output_tokens * 5);
    }
}
