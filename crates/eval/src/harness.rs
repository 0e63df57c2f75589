//! Evaluation harness: run any NL2SQL translator over a benchmark split and report
//! EM / EX / TS accuracy, per-hardness breakdown (Fig. 9), and token consumption
//! (Fig. 11). [`evaluate`] scores a split on up to `jobs` worker threads through
//! one execution session, and [`evaluate_with`] does the same for a custom
//! per-job runner; the report is identical for any `jobs` count and with the
//! cache on or off, because translators are stateless (`&self`), seeded purely
//! by example position, and a cache hit returns what the engine would compute.
//!
//! # Borrowed vs. owned job types
//!
//! Translation work exists in two shapes with a fixed division of labor:
//!
//! - [`Job<'a>`] is the **borrowed view** — the single argument of
//!   [`Translator::run`]. It borrows its example and database from the caller,
//!   so it is copy-cheap, allocation-free, and pinned to the evaluation loop's
//!   stack frame. Every internal path (serial, parallel, diagnose) constructs
//!   `Job`s on the fly.
//! - [`JobSpec`] is the **owned form** — everything a `Job` carries except the
//!   database reference and the event sink. A spec can cross a thread-crossing
//!   queue, sit in a server's admission buffer, or round-trip through JSON
//!   ([`crate::wire::request_to_json`]); at the point of execution it is
//!   lowered back to the borrowed view with [`JobSpec::as_job`].
//! - [`Request`]/[`Response`] wrap specs for the service boundary
//!   (`purple-serve`): a request tags a spec with a client-chosen `id`, a
//!   response pairs that id with the translation, so responses can be returned
//!   out of order over a multiplexed connection.
//!
//! The contract: borrowed `Job` never outlives its evaluation call and is the
//! only type translators see; owned `JobSpec` is the only type that crosses
//! threads or wires. Databases are deliberately *not* owned by specs — they
//! are identified by `example.db_index` into the server-resident [`Benchmark`],
//! which is the unit that owns schemas and data.
//!
//! [`RunEnv`] is the companion bundle on the translator side: session, ledger,
//! metrics, and events in one cloneable value, attached via `with_env` instead
//! of four builder setters, so a worker pool can share one environment. It
//! also opens each run's [`obs::Probe`] ([`RunEnv::probe`]).

use crate::attribution::AttributionReport;
use crate::metrics::{em_match, ex_match};
use crate::testsuite::{build_suite, ts_match, SuiteConfig, TestSuite};
use engine::{Database, ExecSession};
use llm::CostLedger;
use obs::{Clock, EventSink, MetricsRegistry, Probe, StageMetrics};
use spidergen::types::{Benchmark, Example};
use sqlkit::Statement;
use std::sync::Arc;

/// One translation produced by a system, with its token cost.
#[derive(Debug, Clone, Default)]
pub struct Translation {
    /// Predicted SQL text.
    pub sql: String,
    /// Prompt (input) tokens consumed.
    pub prompt_tokens: u64,
    /// Completion (output) tokens consumed.
    pub output_tokens: u64,
}

/// One unit of translation work: which example to translate, against which
/// database, and how the run should be observed.
///
/// A `Job` is the single argument of [`Translator::run`]. Construct one with
/// [`Job::new`] and chain options:
///
/// ```ignore
/// let outcome = system.run(Job::new(idx, example, db).with_trace(true));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Job<'a> {
    /// Position of the example within its split. All per-run randomness must
    /// derive from this (via [`Job::seed`]) so evaluation is order- and
    /// thread-independent.
    pub idx: usize,
    /// The natural-language example to translate.
    pub example: &'a Example,
    /// The database the example targets.
    pub db: &'a Database,
    /// Request a step-by-step trace record where the translator supports one
    /// (e.g. `purple`'s `TranslationTrace`; ignored by translators without
    /// traces).
    pub trace: bool,
    /// Optional seed override; when `None`, [`Job::seed`] derives the seed
    /// from the translator's base seed and `idx` (the usual path).
    pub seed: Option<u64>,
    /// Optional structured-event sink: instrumented translators record the
    /// run's events through its [`obs::Probe`] and publish the finished batch
    /// here (ignored by translators without events).
    pub events: Option<&'a obs::EventSink>,
    /// Optional request-scoped span recorder: instrumented translators record
    /// one span per stage they run, plus one per statement execution, into
    /// it (DESIGN.md §14; ignored by translators without tracing).
    pub tracer: Option<&'a obs::TraceRecorder>,
}

impl<'a> Job<'a> {
    /// A job for the example at position `idx` of its split.
    pub fn new(idx: usize, example: &'a Example, db: &'a Database) -> Self {
        Job { idx, example, db, trace: false, seed: None, events: None, tracer: None }
    }

    /// Request (or suppress) trace capture.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Attach (or detach) a structured-event sink.
    pub fn with_events(mut self, events: Option<&'a obs::EventSink>) -> Self {
        self.events = events;
        self
    }

    /// Attach (or detach) a request-scoped span recorder.
    pub fn with_tracer(mut self, tracer: Option<&'a obs::TraceRecorder>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Pin the per-run RNG seed, overriding the [`seed_for`] derivation.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// The RNG seed for this job: the explicit override if set, else
    /// [`seed_for`]`(base, idx)`.
    pub fn seed(&self, base: u64) -> u64 {
        self.seed.unwrap_or_else(|| seed_for(base, self.idx))
    }
}

/// The shared environment a translator runs inside: execution session, cost
/// ledger, metrics registry, and structured-event sink, bundled into one
/// cloneable value.
///
/// `RunEnv` replaced the four per-translator builder setters
/// (`with_session`/`with_ledger`/`with_metrics`/`with_events`, removed):
/// translators accept the whole bundle via `with_env(env)`, and a server's
/// worker pool clones one env per worker so every component is shared. All
/// fields are optional — [`RunEnv::default`] is the fully detached
/// environment.
///
/// The `events` sink acts as the *default* sink: a job-level sink
/// ([`Job::with_events`]) takes precedence when both are present.
#[derive(Debug, Clone, Default)]
pub struct RunEnv {
    /// Shared execution session (parse, result, column and write-plan caches).
    pub session: Option<Arc<ExecSession>>,
    /// Shared API cost ledger for LLM calls.
    pub ledger: Option<Arc<CostLedger>>,
    /// Shared metrics registry; per-run snapshots are absorbed into it.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Default structured-event sink for jobs that don't carry their own.
    pub events: Option<Arc<EventSink>>,
}

impl RunEnv {
    /// Attach a shared execution session.
    pub fn with_session(mut self, session: Arc<ExecSession>) -> Self {
        self.session = Some(session);
        self
    }

    /// Attach a shared cost ledger.
    pub fn with_ledger(mut self, ledger: Arc<CostLedger>) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Attach a shared metrics registry.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attach a default structured-event sink.
    pub fn with_events(mut self, events: Arc<EventSink>) -> Self {
        self.events = Some(events);
        self
    }

    /// The session to execute on: the attached one, or a fresh disabled
    /// (pass-through) session.
    pub fn session_or_disabled(&self) -> Arc<ExecSession> {
        self.session.clone().unwrap_or_else(ExecSession::disabled)
    }

    /// Open the probe one run of `job` records into: a private registry on
    /// `clock` that [`Probe::publish`] absorbs into this environment's shared
    /// registry (if attached), an event recorder when the job or this
    /// environment has a sink (the job's wins), and the job's tracer.
    pub fn probe<'a>(&'a self, job: &Job<'a>, clock: Clock) -> Probe<'a> {
        let events = job.events.or(self.events.as_deref());
        Probe::new(clock, job.idx, self.metrics.as_deref(), events, job.tracer)
    }
}

/// Owned translation work: everything a [`Job`] carries except the database
/// reference and event sink, so the unit can cross a thread boundary or a
/// wire (see the module docs on borrowed vs. owned).
///
/// The example is addressed *by value* (a clone) plus `example.db_index` into
/// the benchmark that owns the databases; [`JobSpec::as_job`] lowers the spec
/// back to the borrowed view at the point of execution.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Position of the example within its split (drives seeding, exactly like
    /// [`Job::idx`]).
    pub idx: usize,
    /// The example to translate, owned.
    pub example: Example,
    /// Request a step-by-step trace record (see [`Job::trace`]).
    pub trace: bool,
    /// Optional seed override (see [`Job::seed`]).
    pub seed: Option<u64>,
}

impl JobSpec {
    /// A spec for the example at position `idx`, cloning it out of its split.
    pub fn of(idx: usize, example: &Example) -> Self {
        JobSpec { idx, example: example.clone(), trace: false, seed: None }
    }

    /// Request (or suppress) trace capture.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Pin the per-run RNG seed, overriding the [`seed_for`] derivation.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Lower to the borrowed view against a database. The returned job borrows
    /// both the spec and the database, so it cannot outlive either — the
    /// compile-time guarantee that owned specs are executed, never retained,
    /// by translators.
    pub fn as_job<'a>(&'a self, db: &'a Database) -> Job<'a> {
        Job {
            idx: self.idx,
            example: &self.example,
            db,
            trace: self.trace,
            seed: self.seed,
            events: None,
            tracer: None,
        }
    }
}

/// One service-boundary request: a client-chosen correlation id plus the work.
///
/// Ids are opaque to the server and echoed verbatim on the [`Response`], so a
/// client multiplexing many requests over one connection can match replies
/// arriving out of order.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// The translation work.
    pub spec: JobSpec,
}

impl Request {
    /// A request wrapping `spec` under correlation id `id`.
    pub fn new(id: u64, spec: JobSpec) -> Self {
        Request { id, spec }
    }
}

/// One service-boundary response: the translation for the request with the
/// matching `id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Correlation id copied from the request.
    pub id: u64,
    /// Example position copied from the request's spec.
    pub idx: usize,
    /// Predicted SQL text.
    pub sql: String,
    /// Prompt (input) tokens consumed.
    pub prompt_tokens: u64,
    /// Completion (output) tokens consumed.
    pub output_tokens: u64,
}

impl Response {
    /// Build the response for `req` from the translator's outcome.
    pub fn from_outcome(req: &Request, outcome: &RunOutcome) -> Self {
        let t = &outcome.translation;
        Response {
            id: req.id,
            idx: req.spec.idx,
            sql: t.sql.clone(),
            prompt_tokens: t.prompt_tokens,
            output_tokens: t.output_tokens,
        }
    }
}

/// What one [`Translator::run`] call produced: the translation plus the
/// per-run metrics snapshot (empty for uninstrumented translators).
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// The predicted SQL and its token cost.
    pub translation: Translation,
    /// Per-stage metrics recorded during this run.
    pub metrics: StageMetrics,
}

impl RunOutcome {
    /// An outcome with no metrics — the shape uninstrumented translators return.
    pub fn bare(translation: Translation) -> Self {
        RunOutcome { translation, metrics: StageMetrics::default() }
    }
}

/// An NL2SQL system under evaluation.
///
/// `run` takes `&self` so a single instance can serve many examples
/// concurrently; all per-call randomness must derive from the job (see
/// [`Job::seed`]). Two calls with the same job must return the same translation
/// regardless of order or thread interleaving — [`evaluate`] relies on this
/// contract, and it extends to metrics: a run's [`StageMetrics`] must be a pure
/// function of the job (guaranteed by the default [`obs::Clock::Virtual`]).
///
/// # Instrumentation convention
///
/// Translators that support shared observability accept a [`RunEnv`] via a
/// builder-style `with_env(env)` method (`Purple`, `LlmBaseline`, and
/// `PlmTranslator` all do). Each `run` opens one probe with
/// [`RunEnv::probe`], opens and closes each stage on it once (the probe
/// writes the registry, the event and the trace span together), and closes
/// it with [`obs::Probe::publish`], which publishes the finished snapshot and
/// event batch in one step each, so concurrent runs never interleave partial
/// metrics or events.
pub trait Translator {
    /// Display name ("PURPLE (ChatGPT)").
    fn name(&self) -> String;
    /// Translate one job, returning the translation and per-run metrics.
    fn run(&self, job: Job<'_>) -> RunOutcome;
}

/// Derive the per-example RNG seed from a system base seed and the example's
/// position within its split.
///
/// The `idx + 1` term reproduces the historical per-translator call counter
/// (which started at 1), so reports are bit-identical to those produced by the
/// earlier stateful harness while remaining order- and thread-independent.
pub fn seed_for(base: u64, idx: usize) -> u64 {
    base.wrapping_mul(0x100000001b3).wrapping_add(idx as u64 + 1)
}

/// One example's metric outcome, kept in example order inside
/// [`EvalReport::examples`] so two archived runs of the same split can be
/// diffed example-by-example (`eval::diff`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExampleOutcome {
    /// Exact-set match.
    pub em: bool,
    /// Execution match.
    pub ex: bool,
    /// Test-suite match (always `false` when the run had no suites).
    pub ts: bool,
    /// Hardness level, 0 (easy) ..= 3 (extra).
    pub hardness: u8,
}

impl ExampleOutcome {
    /// Pack into a small integer for the JSON codec: bit 0 = EM, bit 1 = EX,
    /// bit 2 = TS, bits 3.. = hardness.
    pub fn pack(self) -> u64 {
        (self.em as u64)
            | (self.ex as u64) << 1
            | (self.ts as u64) << 2
            | (self.hardness as u64) << 3
    }

    /// Inverse of [`ExampleOutcome::pack`]; rejects out-of-range hardness.
    pub fn unpack(v: u64) -> Result<Self, String> {
        let hardness = v >> 3;
        if hardness > 3 {
            return Err(format!("packed example outcome {v} has hardness {hardness} > 3"));
        }
        Ok(ExampleOutcome {
            em: v & 1 != 0,
            ex: v & 2 != 0,
            ts: v & 4 != 0,
            hardness: hardness as u8,
        })
    }
}

/// Accuracy within one hardness bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bucket {
    /// Examples in the bucket.
    pub n: usize,
    /// EM hits.
    pub em: usize,
    /// EX hits.
    pub ex: usize,
    /// TS hits.
    pub ts: usize,
}

impl Bucket {
    /// EM accuracy in percent.
    pub fn em_pct(&self) -> f64 {
        pct(self.em, self.n)
    }
    /// EX accuracy in percent.
    pub fn ex_pct(&self) -> f64 {
        pct(self.ex, self.n)
    }
    /// TS accuracy in percent.
    pub fn ts_pct(&self) -> f64 {
        pct(self.ts, self.n)
    }
}

fn pct(hits: usize, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        100.0 * hits as f64 / n as f64
    }
}

/// Full evaluation report for one system on one split.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// System name.
    pub system: String,
    /// Split name.
    pub split: String,
    /// Overall bucket.
    pub overall: Bucket,
    /// Per-hardness buckets, indexed easy..extra.
    pub by_hardness: [Bucket; 4],
    /// Average prompt tokens per query.
    pub avg_prompt_tokens: f64,
    /// Average output tokens per query.
    pub avg_output_tokens: f64,
    /// Whether TS was computed.
    pub has_ts: bool,
    /// Aggregated per-stage metrics, folded from per-example snapshots in
    /// example order (identical for any worker count).
    pub metrics: StageMetrics,
    /// Per-module failure attribution, when the evaluation ran with blame
    /// analysis (`repro --diagnose`); `None` for plain evaluations.
    pub attribution: Option<AttributionReport>,
    /// Per-example EM/EX/TS outcomes in example order. Empty only for reports
    /// decoded from schema-v1 archives, which predate per-example capture.
    pub examples: Vec<ExampleOutcome>,
}

impl EvalReport {
    /// One-line summary like the paper's tables.
    pub fn summary(&self) -> String {
        if self.has_ts {
            format!(
                "{:<28} EM {:5.1}%  EX {:5.1}%  TS {:5.1}%",
                self.system,
                self.overall.em_pct(),
                self.overall.ex_pct(),
                self.overall.ts_pct()
            )
        } else {
            format!(
                "{:<28} EM {:5.1}%  EX {:5.1}%",
                self.system,
                self.overall.em_pct(),
                self.overall.ex_pct()
            )
        }
    }
}

/// Build distilled test suites for every database of a benchmark, using the
/// split's own gold queries as distillation probes.
pub fn build_suites(bench: &Benchmark, cfg: SuiteConfig, seed: u64) -> Vec<TestSuite> {
    bench
        .databases
        .iter()
        .enumerate()
        .map(|(di, db)| {
            let probes: Vec<&sqlkit::Query> =
                bench.examples.iter().filter(|e| e.db_index == di).map(|e| &e.query).collect();
            build_suite(db, &probes, cfg, seed.wrapping_add(di as u64))
        })
        .collect()
}

/// Metric outcome of a single example; merged in example order by `assemble` so
/// serial and parallel evaluation fold to identical reports. Shared with the
/// state-scored DML harness (`crate::dml`), which produces the same shape from
/// post-write database state instead of result sets.
pub(crate) struct ExampleScore {
    pub(crate) prompt_tokens: u64,
    pub(crate) output_tokens: u64,
    pub(crate) em: bool,
    pub(crate) ex: bool,
    pub(crate) ts: bool,
    pub(crate) hardness: usize,
    pub(crate) metrics: StageMetrics,
}

fn score_outcome(
    outcome: RunOutcome,
    ex: &Example,
    db: &Database,
    suites: Option<&[TestSuite]>,
    session: &ExecSession,
) -> ExampleScore {
    let t = &outcome.translation;
    // One parse serves all three metrics; a prediction that is not a query
    // matches none of them.
    let (em, ex_hit, ts) = match session.parse_statement(&t.sql).as_deref() {
        Some(Statement::Select(pred)) => (
            em_match(pred, &ex.query, &db.schema),
            ex_match(&session.bind(db), pred, &ex.query),
            suites.is_some_and(|s| ts_match(session, pred, &ex.query, &s[ex.db_index])),
        ),
        _ => (false, false, false),
    };
    ExampleScore {
        prompt_tokens: t.prompt_tokens,
        output_tokens: t.output_tokens,
        em,
        ex: ex_hit,
        ts,
        hardness: ex.hardness as usize,
        metrics: outcome.metrics,
    }
}

pub(crate) fn assemble(
    system: String,
    split: String,
    scores: impl Iterator<Item = ExampleScore>,
    n: usize,
    has_ts: bool,
) -> EvalReport {
    let mut overall = Bucket::default();
    let mut by_hardness = [Bucket::default(); 4];
    let mut prompt_tokens = 0u64;
    let mut output_tokens = 0u64;
    let mut metrics = StageMetrics::default();
    let mut examples = Vec::with_capacity(n);
    for s in scores {
        prompt_tokens += s.prompt_tokens;
        output_tokens += s.output_tokens;
        metrics.merge(&s.metrics);
        examples.push(ExampleOutcome { em: s.em, ex: s.ex, ts: s.ts, hardness: s.hardness as u8 });
        for b in [&mut overall, &mut by_hardness[s.hardness]] {
            b.n += 1;
            b.em += s.em as usize;
            b.ex += s.ex as usize;
            b.ts += s.ts as usize;
        }
    }
    let denom = n.max(1) as f64;
    EvalReport {
        system,
        split,
        overall,
        by_hardness,
        avg_prompt_tokens: prompt_tokens as f64 / denom,
        avg_output_tokens: output_tokens as f64 / denom,
        has_ts,
        metrics,
        attribution: None,
        examples,
    }
}

/// Evaluate a translator over a split on up to `jobs` worker threads. `suites`
/// enables the TS metric.
///
/// Scoring executes through `session`: gold-query runs (EX and each TS
/// instance) are memoized across examples and across systems sharing the
/// session. Pass [`ExecSession::disabled`] to run uncached. The session's
/// caches are thread-safe and memoize values that are pure functions of
/// (database, SQL), so neither the cache nor worker interleaving can change
/// the report — only which executions are recomputed. Examples are scored in
/// contiguous chunks and folded in example order, so the [`EvalReport`] is
/// identical for any `jobs` (clamped to `1..=examples`), including the
/// floating-point token averages (the summation order is fixed).
pub fn evaluate(
    translator: &(dyn Translator + Sync),
    bench: &Benchmark,
    suites: Option<&[TestSuite]>,
    jobs: usize,
    session: &ExecSession,
) -> EvalReport {
    evaluate_with(translator.name(), bench, suites, jobs, session, |job| (translator.run(job), ()))
        .0
}

/// [`evaluate`] with a custom per-job runner that yields an extra per-example
/// value alongside the run outcome (e.g. a blame verdict derived from the
/// run's trace).
///
/// The runner receives a bare [`Job`] and may decorate it
/// (`job.with_trace(true).with_events(...)`) before running the system.
/// Scores fold exactly like [`evaluate`]'s — in example order — and the
/// extras come back as a `Vec` in example order, so both the report and the
/// extras are identical for any `jobs` count and either cache mode.
pub fn evaluate_with<T, F>(
    system: String,
    bench: &Benchmark,
    suites: Option<&[TestSuite]>,
    jobs: usize,
    session: &ExecSession,
    run: F,
) -> (EvalReport, Vec<T>)
where
    T: Send,
    F: Fn(Job<'_>) -> (RunOutcome, T) + Sync,
{
    let n = bench.examples.len();
    let scored = par_map(n, jobs, |idx| {
        let ex = &bench.examples[idx];
        let db = bench.db_of(ex);
        let (outcome, extra) = run(Job::new(idx, ex, db));
        (score_outcome(outcome, ex, db, suites, session), extra)
    });
    // The extras are split off while the scores stream into the fold, so the
    // scores are never held twice.
    let mut extras = Vec::with_capacity(n);
    let scores = scored.into_iter().map(|(score, extra)| {
        extras.push(extra);
        score
    });
    let report = assemble(system, bench.name.clone(), scores, n, suites.is_some());
    (report, extras)
}

/// Map `f` over the indices `0..n` on up to `jobs` scoped worker threads and
/// return the results in index order.
///
/// `jobs` is clamped to `1..=n`. The indices split into contiguous chunks of
/// `n.div_ceil(jobs)`, one chunk per thread, so per-thread load (and the chunk
/// imbalance a benchmark measures) follows example order. With one job, or
/// fewer than two items, `f` runs inline on the calling thread.
///
/// Workers write straight into one preallocated slot per index, so the
/// results are held once, not once per worker and again when merged.
pub(crate) fn par_map<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.clamp(1, n.max(1));
    if jobs == 1 || n < 2 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(jobs);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let f = &f;
    std::thread::scope(|scope| {
        for (ci, out) in slots.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                for (off, slot) in out.iter_mut().enumerate() {
                    *slot = Some(f(ci * chunk + off));
                }
            });
        }
    });
    slots.into_iter().map(|s| s.expect("every index is mapped")).collect()
}

/// A trivial translator that echoes the gold SQL — the harness's upper bound and a
/// self-check that metrics report 100% on perfect output.
pub struct OracleTranslator;

impl Translator for OracleTranslator {
    fn name(&self) -> String {
        "Oracle (gold echo)".into()
    }
    fn run(&self, job: Job<'_>) -> RunOutcome {
        RunOutcome::bare(Translation {
            sql: job.example.sql.clone(),
            prompt_tokens: 0,
            output_tokens: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidergen::{generate_suite, GenConfig};

    #[test]
    fn oracle_scores_100_on_all_metrics() {
        let suite = generate_suite(&GenConfig::tiny(21));
        let suites = build_suites(&suite.dev, SuiteConfig::default(), 5);
        let report =
            evaluate(&OracleTranslator, &suite.dev, Some(&suites), 1, &ExecSession::disabled());
        assert_eq!(report.overall.em_pct(), 100.0, "EM");
        assert_eq!(report.overall.ex_pct(), 100.0, "EX");
        assert_eq!(report.overall.ts_pct(), 100.0, "TS");
        assert!(report.has_ts);
        let total: usize = report.by_hardness.iter().map(|b| b.n).sum();
        assert_eq!(total, report.overall.n);
    }

    #[test]
    fn garbage_translator_scores_zero() {
        struct Garbage;
        impl Translator for Garbage {
            fn name(&self) -> String {
                "garbage".into()
            }
            fn run(&self, _job: Job<'_>) -> RunOutcome {
                RunOutcome::bare(Translation {
                    sql: "SELECT".into(),
                    prompt_tokens: 10,
                    output_tokens: 2,
                })
            }
        }
        let suite = generate_suite(&GenConfig::tiny(22));
        let report = evaluate(&Garbage, &suite.dev, None, 1, &ExecSession::disabled());
        assert_eq!(report.overall.em_pct(), 0.0);
        assert_eq!(report.overall.ex_pct(), 0.0);
        assert!(!report.has_ts);
        assert_eq!(report.avg_prompt_tokens, 10.0);
    }

    #[test]
    fn summary_formats() {
        let suite = generate_suite(&GenConfig::tiny(23));
        let report = evaluate(&OracleTranslator, &suite.dev, None, 1, &ExecSession::disabled());
        assert!(report.summary().contains("EM 100.0%"));
    }

    /// A translator whose output depends on `idx` in a way that would expose
    /// any misrouting of example positions across worker chunks.
    struct IdxSensitive;
    impl Translator for IdxSensitive {
        fn name(&self) -> String {
            "idx-sensitive".into()
        }
        fn run(&self, job: Job<'_>) -> RunOutcome {
            let seed = job.seed(0xabcd);
            let mut metrics = StageMetrics::default();
            metrics.observe(obs::Stage::LlmCall, seed % 41);
            metrics.count(obs::Counter::PromptTokens, seed % 97);
            RunOutcome {
                translation: Translation {
                    // Echo gold only on even-seeded positions: metrics then
                    // encode exactly which idx each example was scored with.
                    sql: if seed.is_multiple_of(2) {
                        job.example.sql.clone()
                    } else {
                        "SELECT".into()
                    },
                    prompt_tokens: seed % 97,
                    output_tokens: seed % 13,
                },
                metrics,
            }
        }
    }

    #[test]
    fn parallel_evaluation_matches_serial_for_any_job_count() {
        let suite = generate_suite(&GenConfig::tiny(24));
        let suites = build_suites(&suite.dev, SuiteConfig::default(), 7);
        let session = ExecSession::disabled();
        let serial = evaluate(&IdxSensitive, &suite.dev, Some(&suites), 1, &session);
        for jobs in [1, 2, 4, 33] {
            let par = evaluate(&IdxSensitive, &suite.dev, Some(&suites), jobs, &session);
            assert_eq!(serial, par, "jobs={jobs}");
        }
    }

    #[test]
    fn evaluate_with_matches_serial_and_orders_extras() {
        let suite = generate_suite(&GenConfig::tiny(24));
        let run = |job: Job<'_>| (IdxSensitive.run(job), job.idx);
        let session = ExecSession::disabled();
        let (serial, base_extras) =
            evaluate_with("with-par".into(), &suite.dev, None, 1, &session, run);
        assert_eq!(base_extras, (0..suite.dev.examples.len()).collect::<Vec<_>>());
        for jobs in [2, 4, 33] {
            let (par, extras) =
                evaluate_with("with-par".into(), &suite.dev, None, jobs, &session, run);
            assert_eq!(serial, par, "jobs={jobs}");
            assert_eq!(extras, base_extras, "jobs={jobs}");
        }
        // The plain harness produces the same report for the same runner.
        let mut plain = evaluate(&IdxSensitive, &suite.dev, None, 1, &session);
        plain.system = "with-par".into();
        assert_eq!(plain, serial);
    }

    #[test]
    fn session_scoring_matches_uncached_for_any_job_count() {
        let suite = generate_suite(&GenConfig::tiny(24));
        let suites = build_suites(&suite.dev, SuiteConfig::default(), 7);
        let uncached =
            evaluate(&IdxSensitive, &suite.dev, Some(&suites), 1, &ExecSession::disabled());
        let session = ExecSession::shared();
        for jobs in [1, 4] {
            let cached = evaluate(&IdxSensitive, &suite.dev, Some(&suites), jobs, &session);
            assert_eq!(uncached, cached, "jobs={jobs}");
        }
        let stats = session.stats();
        assert!(stats.result.hits > 0, "shared session saw no cache hits: {stats:?}");
    }

    #[test]
    fn parallel_evaluation_handles_degenerate_inputs() {
        let mut suite = generate_suite(&GenConfig::tiny(25));
        // jobs=0 clamps to 1; an empty split must not panic.
        let session = ExecSession::disabled();
        let report = evaluate(&OracleTranslator, &suite.dev, None, 0, &session);
        assert_eq!(report.overall.em_pct(), 100.0);
        suite.dev.examples.clear();
        let empty = evaluate(&OracleTranslator, &suite.dev, None, 8, &session);
        assert_eq!(empty.overall.n, 0);
        assert_eq!(empty.avg_prompt_tokens, 0.0);
    }

    #[test]
    fn seed_for_matches_historical_counter_sequence() {
        // The stateful harness seeded call k (1-based) with
        // base * 0x100000001b3 + k; position idx is call idx+1.
        let base = 41u64;
        let mut counter = 0u64;
        for idx in 0..10 {
            counter += 1;
            let old = base.wrapping_mul(0x100000001b3).wrapping_add(counter);
            assert_eq!(seed_for(base, idx), old);
        }
    }
}
