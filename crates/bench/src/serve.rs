//! The NL2SQL serving front-end (DESIGN.md §13): a long-running [`Server`]
//! that multiplexes concurrent [`Request`]s across a pool of worker threads
//! sharing one trained [`Purple`], one [`ExecSession`] and one
//! [`MetricsRegistry`].
//!
//! The service boundary speaks owned types only: clients submit
//! [`Request`]s (an id plus an owned [`eval::JobSpec`]) and receive
//! id-tagged [`Response`]s, possibly out of order. Borrowed [`eval::Job`]s
//! exist only inside a worker, for the duration of one translation.
//!
//! Each worker pops one request, translates it with [`Purple::run`] and sends
//! its completion at once: PURPLE translates each question on its own, so
//! requests against the same database share no work. Two mechanisms shape
//! the pipeline around that loop:
//!
//! * **Admission control** — the request queue is bounded
//!   ([`ServeConfig::queue_capacity`]); [`SubmitHandle::submit`] blocks until
//!   a slot frees, so a fast client cannot grow memory without bound.
//! * **Observability** — queue depth and in-flight counts are published to
//!   the shared registry's [`Gauge::QueueDepth`] / [`Gauge::InFlight`] gauges;
//!   per-run stage metrics flow through the [`Purple`]'s attached environment
//!   ([`eval::RunEnv`]) exactly as in batch evaluation. With
//!   [`ServeConfig::trace`] set, sampled requests additionally record a
//!   request-scoped span tree ([`obs::TraceRecorder`], DESIGN.md §14):
//!   admission opens a `queue-wait` span, the dequeuing worker closes it,
//!   the pipeline stages nest under the `request` root, and the finished tree
//!   is published to the server's
//!   [`obs::SpanSink`] *before* the completion is sent, so a client that has
//!   seen its response can already observe its trace.
//!
//! Two line-delimited JSON frontends sit on top: [`serve_connection`] (one
//! request per line in, one response per line out — used for stdin/stdout)
//! and [`serve_tcp`] (the same protocol, one connection per client). The
//! [`run_load`] driver plus [`replay_report`] back the `purple-serve
//! --load-gen` benchmark: wall-clock throughput/latency percentiles, and an
//! [`EvalReport`] rebuilt from the served outcomes that is byte-identical to
//! a sequential (one-job) [`eval::evaluate`] pass.

use engine::ExecSession;
use eval::{
    command_from_json, request_from_json, response_to_json, EvalReport, Request, Response,
    ServeCommand, TestSuite,
};
use obs::trace::{splitmix64, QUEUE_WAIT_SPAN};
use obs::{
    Counter, EventSink, Gauge, MetricsRegistry, SinkLoss, SlidingWindow, SloSpec, SloStatus,
    SloTracker, SloVerdict, SpanSink, SpanToken, TraceRecorder, TraceSampler, WindowStats,
};
use purple::Purple;
use spidergen::Benchmark;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, Write};
use std::net::TcpListener;
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Request-tracing knobs (DESIGN.md §14). `sample`/`seed` feed an
/// [`obs::TraceSampler`], so the traced subset is a pure function of request
/// ids; `wall` opts wall-clock timestamps into the Chrome export (virtual
/// work units are always exported and are the deterministic contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Trace one request in `sample` (0 and 1 both mean "trace all").
    pub sample: u64,
    /// Sampler mixing seed.
    pub seed: u64,
    /// Export wall-clock timestamps instead of virtual work units.
    pub wall: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { sample: 1, seed: 0, wall: false }
    }
}

/// Windowed-telemetry and SLO knobs (DESIGN.md §16). The windows slide over
/// the *telemetry clock*: cumulative completed virtual work, so window
/// contents depend only on what completed, not on wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Telemetry-clock units per window bucket.
    pub bucket_width: u64,
    /// Live buckets per window (retained span = `bucket_width * buckets`).
    pub buckets: usize,
    /// Latency SLO: per-request virtual work target (observations above it
    /// are violations).
    pub latency_target: u64,
    /// Latency SLO: tolerated violation fraction over the window.
    pub latency_budget: f64,
    /// Admission SLO: tolerated shed fraction over the window.
    pub admission_budget: f64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            bucket_width: 1 << 14,
            buckets: 16,
            latency_target: 8192,
            latency_budget: 0.10,
            admission_budget: 0.01,
        }
    }
}

/// Serving knobs; [`Default`] is a reasonable interactive configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Worker threads translating requests (min 1).
    pub workers: usize,
    /// Bound on queued (admitted, not yet started) requests; submitters block
    /// when the queue is full.
    pub queue_capacity: usize,
    /// Record request-scoped span trees for sampled requests; `None` disables
    /// tracing entirely (zero overhead on the hot path).
    pub trace: Option<TraceConfig>,
    /// Sliding-window and SLO configuration backing the `health` verb.
    pub telemetry: TelemetryConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            trace: None,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The server has shut down (or is shutting down) and admits no new work.
    Closed,
    /// The request names a database index outside the server's benchmark.
    UnknownDatabase {
        /// The offending index.
        db_index: usize,
        /// How many databases the server holds.
        databases: usize,
    },
    /// The queue was at capacity and the submission was non-blocking
    /// ([`SubmitHandle::try_submit`]): the request was shed, not queued.
    QueueFull,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Closed => write!(f, "server is closed"),
            SubmitError::UnknownDatabase { db_index, databases } => {
                write!(f, "unknown database index {db_index} (server holds {databases})")
            }
            SubmitError::QueueFull => write!(f, "queue full, request shed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A served translation: the wire-level [`Response`] plus the full run
/// outcome, kept so callers can rebuild an [`EvalReport`] from served traffic
/// (see [`replay_report`]).
#[derive(Debug, Clone)]
pub struct Completion {
    /// The id-tagged response for the client.
    pub response: Response,
    /// The translation plus per-run stage metrics.
    pub outcome: eval::RunOutcome,
}

/// One queued unit of work: the request plus the channel its completion
/// routes back on (per-connection, so responses reach the right client).
struct Item {
    req: Request,
    tx: Sender<Completion>,
    /// Recorder for sampled requests plus the open `queue-wait` span token,
    /// redeemed by whichever worker dequeues the item.
    trace: Option<(TraceRecorder, SpanToken)>,
}

struct QueueState {
    items: VecDeque<Item>,
    in_flight: usize,
    closed: bool,
}

/// Mutable core of the server's windowed telemetry (DESIGN.md §16), guarded
/// by one mutex so every observation lands at a consistent clock position.
struct TelState {
    /// Virtual telemetry-clock position: cumulative completed report-stage
    /// work ([`obs::StageMetrics::report_work`]).
    virt_now: u64,
    /// Per-completion report-stage work (the serving notion of latency).
    latency: SlidingWindow,
    /// Queue-depth readings sampled at every queue transition.
    queue_depth: SlidingWindow,
    /// In-flight readings sampled at every queue transition.
    in_flight: SlidingWindow,
    latency_slo: SloTracker,
    admission_slo: SloTracker,
    /// All-time completions.
    completed: u64,
    /// All-time sheds ([`SubmitHandle::try_submit`] against a full queue).
    shed: u64,
}

/// Sliding windows and SLO trackers behind the `health` verb, clocked by
/// completed virtual work (deterministic per workload).
struct Telemetry {
    state: Mutex<TelState>,
}

impl Telemetry {
    fn new(cfg: TelemetryConfig) -> Telemetry {
        let cfg = TelemetryConfig {
            bucket_width: cfg.bucket_width.max(1),
            buckets: cfg.buckets.max(1),
            ..cfg
        };
        let window = || SlidingWindow::with_buckets(cfg.bucket_width, cfg.buckets);
        Telemetry {
            state: Mutex::new(TelState {
                virt_now: 0,
                latency: window(),
                queue_depth: window(),
                in_flight: window(),
                latency_slo: SloTracker::new(
                    SloSpec::new("translate_latency", cfg.latency_target, cfg.latency_budget),
                    cfg.bucket_width,
                    cfg.buckets,
                ),
                admission_slo: SloTracker::new(
                    SloSpec::new("admission", 0, cfg.admission_budget),
                    cfg.bucket_width,
                    cfg.buckets,
                ),
                completed: 0,
                shed: 0,
            }),
        }
    }

    /// One completion: advance the virtual clock by the request's
    /// report-stage work, then feed the latency window and SLO.
    fn on_complete(&self, work: u64) {
        let mut st = self.state.lock().expect("telemetry poisoned");
        st.virt_now = st.virt_now.saturating_add(work);
        st.completed += 1;
        let now = st.virt_now;
        st.latency.observe(now, work);
        st.latency_slo.observe(now, work);
    }

    /// One admitted submission: the admission SLO observes a pass.
    fn on_admit(&self) {
        let mut st = self.state.lock().expect("telemetry poisoned");
        let now = st.virt_now;
        st.admission_slo.observe(now, 0);
    }

    /// One shed submission: the admission SLO observes a violation.
    fn on_shed(&self) {
        let mut st = self.state.lock().expect("telemetry poisoned");
        st.shed += 1;
        let now = st.virt_now;
        st.admission_slo.observe(now, 1);
    }

    /// Sample the queue gauges into their windows (called on every queue
    /// transition, with the queue lock held — the lock order is queue lock,
    /// then telemetry lock, everywhere).
    fn on_queue_sample(&self, depth: u64, in_flight: u64) {
        let mut st = self.state.lock().expect("telemetry poisoned");
        let now = st.virt_now;
        st.queue_depth.observe(now, depth);
        st.in_flight.observe(now, in_flight);
    }
}

/// Point-in-time health report: the structured body of the `health` wire verb
/// (and the soak driver's per-tick probe). Window statistics are over the
/// telemetry window only; `completed`/`shed` and the `*_hwm` gauges are
/// all-time.
#[derive(Debug, Clone)]
pub struct HealthSnapshot {
    /// Telemetry-clock position (completed virtual work) the windows were
    /// reduced at.
    pub now: u64,
    /// All-time completions.
    pub completed: u64,
    /// All-time shed submissions.
    pub shed: u64,
    /// Current queue depth.
    pub queue_depth: u64,
    /// Current in-flight count.
    pub in_flight: u64,
    /// All-time queue-depth high-watermark ([`Gauge::QueueDepthHwm`]).
    pub queue_depth_hwm: u64,
    /// All-time in-flight high-watermark ([`Gauge::InFlightHwm`]).
    pub in_flight_hwm: u64,
    /// Windowed queue-depth readings (`max` is the windowed high-watermark).
    pub queue_window: WindowStats,
    /// Windowed in-flight readings.
    pub in_flight_window: WindowStats,
    /// Windowed per-completion latency (report-stage work units).
    pub latency: WindowStats,
    /// Per-objective status, in declaration order (latency, admission).
    pub slos: Vec<SloStatus>,
    /// All-time transitions of any objective into Degraded/Breached.
    pub episodes: u64,
    /// Service verdict: the worst over all objectives.
    pub verdict: SloVerdict,
}

struct Shared {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    cfg: ServeConfig,
    databases: usize,
    metrics: Arc<MetricsRegistry>,
    sampler: Option<TraceSampler>,
    trace_sink: Arc<SpanSink>,
    /// The translator's execution session, if it has one — backs the cache and
    /// exec-operator sections of the `metrics` verb's exposition.
    session: Option<Arc<ExecSession>>,
    /// The translator's event sink, if it has one — its loss counters join
    /// the `metrics` exposition.
    events: Option<Arc<EventSink>>,
    telemetry: Telemetry,
}

impl Shared {
    /// Publish queue gauges. Callers hold the state lock, so the two sets are
    /// atomic with respect to each other. Raises the all-time high-watermark
    /// gauges and samples the telemetry windows on the way.
    fn publish_gauges(&self, st: &QueueState) {
        let depth = st.items.len() as u64;
        let in_flight = st.in_flight as u64;
        self.metrics.set_gauge(Gauge::QueueDepth, depth);
        self.metrics.set_gauge(Gauge::InFlight, in_flight);
        self.metrics.raise_gauge(Gauge::QueueDepthHwm, depth);
        self.metrics.raise_gauge(Gauge::InFlightHwm, in_flight);
        self.telemetry.on_queue_sample(depth, in_flight);
    }
}

/// A cloneable submission endpoint for a running [`Server`].
#[derive(Clone)]
pub struct SubmitHandle {
    shared: Arc<Shared>,
}

impl SubmitHandle {
    /// Enqueue a request; its completion will be sent on `tx`.
    ///
    /// Blocks while the queue is at capacity (admission control). Returns
    /// [`SubmitError::Closed`] once the server shuts down and
    /// [`SubmitError::UnknownDatabase`] for an out-of-range
    /// `spec.example.db_index` (checked here so workers never see one).
    pub fn submit(&self, req: Request, tx: Sender<Completion>) -> Result<(), SubmitError> {
        self.admit(req, tx, true)
    }

    /// Non-blocking admission: like [`SubmitHandle::submit`], but a full
    /// queue *sheds* the request with [`SubmitError::QueueFull`] instead of
    /// blocking — the open-loop discipline the soak driver uses, where
    /// arrivals are paced by an external clock and must not be slowed by the
    /// server's own backpressure. Sheds count into
    /// [`Counter::RequestsShed`] and burn the admission SLO's error budget.
    pub fn try_submit(&self, req: Request, tx: Sender<Completion>) -> Result<(), SubmitError> {
        self.admit(req, tx, false)
    }

    /// The one admission path behind [`SubmitHandle::submit`] and
    /// [`SubmitHandle::try_submit`]; `block` says whether a full queue waits
    /// for a slot or sheds the request.
    fn admit(&self, req: Request, tx: Sender<Completion>, block: bool) -> Result<(), SubmitError> {
        let shared = &*self.shared;
        let db_index = req.spec.example.db_index;
        if db_index >= shared.databases {
            return Err(SubmitError::UnknownDatabase { db_index, databases: shared.databases });
        }
        // Open the trace before admission: the `queue-wait` span then covers
        // any time blocked on a full queue as well as the queued wait itself.
        let trace = shared.sampler.filter(|s| s.admits(req.id)).map(|_| {
            let rec = TraceRecorder::new(req.id);
            let token = rec.start(QUEUE_WAIT_SPAN);
            (rec, token)
        });
        let mut st = shared.state.lock().expect("serve queue poisoned");
        loop {
            if st.closed {
                return Err(SubmitError::Closed);
            }
            if st.items.len() < shared.cfg.queue_capacity {
                break;
            }
            if !block {
                drop(st);
                shared.metrics.count(Counter::RequestsShed, 1);
                shared.telemetry.on_shed();
                return Err(SubmitError::QueueFull);
            }
            st = shared.not_full.wait(st).expect("serve queue poisoned");
        }
        st.items.push_back(Item { req, tx, trace });
        shared.publish_gauges(&st);
        shared.not_empty.notify_one();
        drop(st);
        shared.telemetry.on_admit();
        Ok(())
    }

    /// Render the server's current observability state as Prometheus text
    /// exposition (stage counters and latency histograms, run counters,
    /// gauges, fixer tallies, cache and exec-operator sections when the
    /// translator runs through a shared [`ExecSession`], and trace/event
    /// sink loss counters). This is the body of the `{"cmd":"metrics"}` wire
    /// verb.
    fn metrics_exposition(&self) -> String {
        let snap = self.shared.metrics.snapshot();
        let (cache, ops) = match &self.shared.session {
            Some(s) => (Some(s.stats()), Some(s.op_stats())),
            None => (None, None),
        };
        let (dropped_traces, dropped_spans) = self.shared.trace_sink.loss();
        let (dropped_event_batches, dropped_events) =
            self.shared.events.as_ref().map_or((0, 0), |e| e.loss());
        let loss =
            SinkLoss { dropped_traces, dropped_spans, dropped_event_batches, dropped_events };
        obs::render_prometheus(&snap, cache.as_ref(), ops.as_ref(), Some(&loss))
    }

    /// Reduce the telemetry windows and SLO trackers to a point-in-time
    /// [`HealthSnapshot`] — the structured body of the `{"cmd":"health"}`
    /// wire verb. The snapshot is *operational* state: unlike translations
    /// and reports it depends on scheduling, so it carries no determinism
    /// contract (the soak timeline's virtual columns do; see
    /// [`crate::soak`]).
    pub fn health(&self) -> HealthSnapshot {
        // Lock order: queue state, then telemetry (same as publish_gauges).
        let (queue_depth, in_flight) = {
            let st = self.shared.state.lock().expect("serve queue poisoned");
            (st.items.len() as u64, st.in_flight as u64)
        };
        let snap = self.shared.metrics.snapshot();
        let tel = &self.shared.telemetry;
        let mut st = tel.state.lock().expect("telemetry poisoned");
        let now = st.virt_now;
        let latency = st.latency.snapshot(now);
        let queue_window = st.queue_depth.snapshot(now);
        let in_flight_window = st.in_flight.snapshot(now);
        let latency_slo = st.latency_slo.status(now);
        let admission_slo = st.admission_slo.status(now);
        let episodes = st.latency_slo.episodes() + st.admission_slo.episodes();
        let verdict = latency_slo.verdict.worst(admission_slo.verdict);
        HealthSnapshot {
            now,
            completed: st.completed,
            shed: st.shed,
            queue_depth,
            in_flight,
            queue_depth_hwm: snap.gauge(Gauge::QueueDepthHwm).unwrap_or(0),
            in_flight_hwm: snap.gauge(Gauge::InFlightHwm).unwrap_or(0),
            queue_window,
            in_flight_window,
            latency,
            slos: vec![latency_slo, admission_slo],
            episodes,
            verdict,
        }
    }

    /// [`SubmitHandle::health`] rendered as one JSON object — the
    /// `{"cmd":"health"}` wire verb's answer.
    pub fn health_json(&self) -> String {
        health_to_json(&self.health())
    }
}

fn window_stats_json(w: &WindowStats) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
        w.count, w.sum, w.max, w.p50, w.p95, w.p99
    )
}

fn slo_status_json(s: &SloStatus) -> String {
    format!(
        "{{\"name\":{},\"target\":{},\"budget\":{:.4},\"observed\":{},\"violations\":{},\
         \"burn_rate\":{:.4},\"verdict\":{}}}",
        json_escape(&s.name),
        s.target,
        s.budget,
        s.observed,
        s.violations,
        s.burn_rate,
        json_escape(s.verdict.name())
    )
}

/// Render a [`HealthSnapshot`] as the `health` verb's JSON body.
fn health_to_json(h: &HealthSnapshot) -> String {
    let slos: Vec<String> = h.slos.iter().map(slo_status_json).collect();
    format!(
        "{{\"now\":{},\"completed\":{},\"shed\":{},\
         \"queue\":{{\"depth\":{},\"in_flight\":{},\"depth_hwm\":{},\"in_flight_hwm\":{},\
         \"window_depth_hwm\":{},\"window_in_flight_hwm\":{}}},\
         \"latency\":{},\"slos\":[{}],\"episodes\":{},\"verdict\":{}}}",
        h.now,
        h.completed,
        h.shed,
        h.queue_depth,
        h.in_flight,
        h.queue_depth_hwm,
        h.in_flight_hwm,
        h.queue_window.max,
        h.in_flight_window.max,
        window_stats_json(&h.latency),
        slos.join(","),
        h.episodes,
        json_escape(h.verdict.name())
    )
}

/// The running server: a bounded request queue drained by worker threads.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Start `cfg.workers` worker threads over a shared translator and
    /// benchmark. `metrics` receives the queue gauges; attach the same
    /// registry (and the shared [`ExecSession`]) to `purple` via
    /// [`Purple::with_env`] so per-run stage metrics land there too.
    pub fn start(
        purple: Arc<Purple>,
        bench: Arc<Benchmark>,
        metrics: Arc<MetricsRegistry>,
        cfg: ServeConfig,
    ) -> Server {
        let cfg = ServeConfig {
            workers: cfg.workers.max(1),
            queue_capacity: cfg.queue_capacity.max(1),
            ..cfg
        };
        let sampler = cfg.trace.map(|t| TraceSampler { sample: t.sample.max(1), seed: t.seed });
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState { items: VecDeque::new(), in_flight: 0, closed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cfg,
            databases: bench.databases.len(),
            metrics,
            sampler,
            trace_sink: SpanSink::shared(),
            session: purple.env().session.clone(),
            events: purple.env().events.clone(),
            telemetry: Telemetry::new(cfg.telemetry),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let shared = shared.clone();
                let purple = purple.clone();
                let bench = bench.clone();
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &purple, &bench))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// A submission endpoint; clone freely across client threads.
    pub fn handle(&self) -> SubmitHandle {
        SubmitHandle { shared: self.shared.clone() }
    }

    /// The sink collecting finished span trees (empty unless
    /// [`ServeConfig::trace`] is set). Survives [`Server::shutdown`] if the
    /// caller clones the `Arc` first; drain it for export.
    pub fn trace_sink(&self) -> Arc<SpanSink> {
        self.shared.trace_sink.clone()
    }

    /// Stop admitting work, drain the queue, and join the workers. Requests
    /// already admitted are completed; blocked submitters get
    /// [`SubmitError::Closed`].
    pub fn shutdown(self) {
        {
            let mut st = self.shared.state.lock().expect("serve queue poisoned");
            st.closed = true;
            self.shared.not_empty.notify_all();
            self.shared.not_full.notify_all();
        }
        for w in self.workers {
            w.join().expect("serve worker panicked");
        }
    }
}

/// One worker: dequeue one request, translate it with [`Purple::run`] (through
/// its [`eval::Translator`] impl), and send its completion at once.
fn worker_loop(shared: &Shared, purple: &Purple, bench: &Benchmark) {
    loop {
        let item = {
            let mut st = shared.state.lock().expect("serve queue poisoned");
            let item = loop {
                if let Some(item) = st.items.pop_front() {
                    break item;
                }
                if st.closed {
                    return;
                }
                st = shared.not_empty.wait(st).expect("serve queue poisoned");
            };
            st.in_flight += 1;
            shared.publish_gauges(&st);
            shared.not_full.notify_one();
            item
        };
        // Dequeue closes a traced item's `queue-wait` span. It declares zero
        // virtual work, so the virtual timeline (and the exported trace) is
        // identical whatever the interleaving; only its wall-clock columns
        // show the real scheduling.
        let tracer = item.trace.as_ref().map(|(rec, token)| {
            rec.finish(*token, 0);
            rec
        });
        let db = &bench.databases[item.req.spec.example.db_index];
        let outcome = eval::Translator::run(purple, item.req.spec.as_job(db).with_tracer(tracer));
        let response = Response::from_outcome(&item.req, &outcome);
        // Publish the finished span tree before the completion: a client
        // that has seen its response can already observe its trace.
        if let Some((rec, _)) = item.trace {
            shared.trace_sink.publish(rec);
        }
        // Feed telemetry before the completion too, so a client that has
        // seen its response finds it reflected in the `health` verb.
        shared.telemetry.on_complete(outcome.metrics.report_work());
        // A client that hung up just discards its completion.
        let _ = item.tx.send(Completion { response, outcome });
        let mut st = shared.state.lock().expect("serve queue poisoned");
        st.in_flight -= 1;
        shared.publish_gauges(&st);
    }
}

/// Minimal JSON string escape for error lines (the full codec lives in
/// [`eval::wire`](eval::request_to_json)).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Line counts for one served connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Requests admitted to the queue.
    pub accepted: usize,
    /// Lines refused (parse failure or [`SubmitError`]); each got an error line.
    pub rejected: usize,
}

/// Serve one line-delimited JSON connection: each input line is a request
/// (see [`eval::request_from_json`]), each output line a response — written
/// as translations complete, so out of order; clients correlate by `id`.
/// Malformed or refused lines get `{"error":...}` / `{"id":N,"error":...}`.
/// Command lines (see [`eval::command_from_json`]) are answered inline —
/// `{"cmd":"metrics"}` with `{"metrics":"<Prometheus text exposition>"}`,
/// `{"cmd":"health"}` with `{"health":{...}}` — and count toward neither
/// [`ConnStats`] field. Returns when the input reaches EOF and every admitted
/// request has been answered.
pub fn serve_connection<R, W>(
    handle: &SubmitHandle,
    reader: R,
    writer: &mut W,
) -> io::Result<ConnStats>
where
    R: BufRead,
    W: Write + Send,
{
    let (tx, rx) = mpsc::channel::<Completion>();
    let out = Mutex::new(writer);
    let mut stats = ConnStats::default();
    let mut read_err = None;
    thread::scope(|s| -> io::Result<()> {
        let responder = s.spawn(|| -> io::Result<()> {
            for completion in rx {
                let mut w = out.lock().expect("serve writer poisoned");
                writeln!(w, "{}", response_to_json(&completion.response))?;
                w.flush()?;
            }
            Ok(())
        });
        for line in reader.lines() {
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    read_err = Some(e);
                    break;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            match command_from_json(&line) {
                Ok(Some(ServeCommand::Metrics)) => {
                    let body = handle.metrics_exposition();
                    let mut w = out.lock().expect("serve writer poisoned");
                    writeln!(w, "{{\"metrics\":{}}}", json_escape(&body))?;
                    w.flush()?;
                    continue;
                }
                Ok(Some(ServeCommand::Health)) => {
                    let body = handle.health_json();
                    let mut w = out.lock().expect("serve writer poisoned");
                    writeln!(w, "{{\"health\":{body}}}")?;
                    w.flush()?;
                    continue;
                }
                Ok(None) => {}
                Err(e) => {
                    stats.rejected += 1;
                    let mut w = out.lock().expect("serve writer poisoned");
                    writeln!(w, "{{\"error\":{}}}", json_escape(&e))?;
                    w.flush()?;
                    continue;
                }
            }
            let refusal = match request_from_json(&line) {
                Ok(req) => {
                    let id = req.id;
                    match handle.submit(req, tx.clone()) {
                        Ok(()) => {
                            stats.accepted += 1;
                            continue;
                        }
                        Err(e) => {
                            format!("{{\"id\":{id},\"error\":{}}}", json_escape(&e.to_string()))
                        }
                    }
                }
                Err(e) => format!("{{\"error\":{}}}", json_escape(&e)),
            };
            stats.rejected += 1;
            let mut w = out.lock().expect("serve writer poisoned");
            writeln!(w, "{refusal}")?;
            w.flush()?;
        }
        // EOF: no more submissions from this connection. Once the workers
        // finish its admitted requests every sender clone is gone and the
        // responder drains out.
        drop(tx);
        responder.join().expect("serve responder panicked")
    })?;
    match read_err {
        Some(e) => Err(e),
        None => Ok(stats),
    }
}

/// Accept TCP connections forever, serving each with [`serve_connection`] on
/// its own thread. Returns only if the listener fails.
pub fn serve_tcp(handle: SubmitHandle, listener: TcpListener) -> io::Result<()> {
    for stream in listener.incoming() {
        let stream = stream?;
        let handle = handle.clone();
        thread::Builder::new().name("serve-conn".into()).spawn(move || {
            let Ok(read_half) = stream.try_clone() else { return };
            let mut writer = stream;
            let _ = serve_connection(&handle, io::BufReader::new(read_half), &mut writer);
        })?;
    }
    Ok(())
}

/// Seeded Fisher–Yates shuffle. Its `k`-th draw is
/// `splitmix64(seed + (k - 1) * 0x9e37_79b9_7f4a_7c15)`: the stream a stateful
/// splitmix64 generator seeded with `seed` yields.
pub(crate) fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(state) % (i as u64 + 1)) as usize;
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        items.swap(i, j);
    }
}

/// Build a seeded request stream: `count` requests cycling the split's
/// examples in order (every example covered when `count >= examples`), with
/// the *submission order* shuffled by `arrival_seed`. Ids number the
/// unshuffled cycle, so each request — and therefore each response body — is
/// invariant to the arrival order.
pub fn synth_requests(bench: &Benchmark, count: usize, arrival_seed: u64) -> Vec<Request> {
    let n = bench.examples.len();
    assert!(n > 0, "cannot synthesize requests over an empty split");
    let mut reqs: Vec<Request> = (0..count)
        .map(|i| {
            let idx = i % n;
            Request::new(i as u64, eval::JobSpec::of(idx, &bench.examples[idx]))
        })
        .collect();
    shuffle(&mut reqs, arrival_seed);
    reqs
}

/// Wall-clock statistics from one [`run_load`] drive.
#[derive(Debug, Clone, Copy)]
pub struct LoadStats {
    /// Requests driven.
    pub requests: usize,
    /// Submission start to last completion.
    pub wall: Duration,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Median submit-to-completion latency (includes admission wait).
    pub p50: Duration,
    /// 95th-percentile latency.
    pub p95: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
}

fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let pos = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[pos.min(sorted.len() - 1)]
}

/// Drive a request set through a server, measuring per-request latency from
/// submission (before any admission wait) to completion. Requests must carry
/// unique ids. Completions come back in completion order.
pub fn run_load(
    handle: &SubmitHandle,
    requests: Vec<Request>,
) -> Result<(Vec<Completion>, LoadStats), SubmitError> {
    let n = requests.len();
    let (tx, rx) = mpsc::channel::<Completion>();
    let t0 = Instant::now();
    let mut starts: HashMap<u64, Instant> = HashMap::with_capacity(n);
    let mut submit_err = None;
    let ends = thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut ends = Vec::with_capacity(n);
            while ends.len() < n {
                match rx.recv() {
                    Ok(c) => ends.push((Instant::now(), c)),
                    Err(_) => break,
                }
            }
            ends
        });
        for req in requests {
            starts.insert(req.id, Instant::now());
            if let Err(e) = handle.submit(req, tx.clone()) {
                submit_err = Some(e);
                break;
            }
        }
        drop(tx);
        collector.join().expect("load collector panicked")
    });
    if let Some(e) = submit_err {
        return Err(e);
    }
    let wall = t0.elapsed();
    let mut latencies: Vec<Duration> =
        ends.iter().map(|(end, c)| end.duration_since(starts[&c.response.id])).collect();
    latencies.sort_unstable();
    let stats = LoadStats {
        requests: n,
        wall,
        throughput_rps: n as f64 / wall.as_secs_f64().max(1e-9),
        p50: percentile(&latencies, 0.50),
        p95: percentile(&latencies, 0.95),
        p99: percentile(&latencies, 0.99),
    };
    Ok((ends.into_iter().map(|(_, c)| c).collect(), stats))
}

/// A translator replaying captured outcomes by example index — how served
/// traffic becomes an archivable [`EvalReport`].
struct Replay<'a> {
    system: String,
    outcomes: &'a [eval::RunOutcome],
}

impl eval::Translator for Replay<'_> {
    fn name(&self) -> String {
        self.system.clone()
    }
    fn run(&self, job: eval::Job<'_>) -> eval::RunOutcome {
        self.outcomes[job.idx].clone()
    }
}

/// Rebuild the evaluation report for `bench` from served completions:
/// the first completion per example index is replayed through
/// [`eval::evaluate`] on one job, so the report — metrics included — is
/// byte-identical to a sequential evaluation of the same translator
/// (serving changes scheduling, never results). Errors if the completions do
/// not cover every example of the split.
pub fn replay_report(
    system: &str,
    bench: &Benchmark,
    suites: Option<&[TestSuite]>,
    session: &ExecSession,
    completions: &[Completion],
) -> Result<EvalReport, String> {
    let n = bench.examples.len();
    let mut outcomes: Vec<Option<eval::RunOutcome>> = vec![None; n];
    for c in completions {
        let idx = c.response.idx;
        if idx >= n {
            return Err(format!("completion for example {idx} outside split of {n}"));
        }
        outcomes[idx].get_or_insert_with(|| c.outcome.clone());
    }
    let missing = outcomes.iter().filter(|o| o.is_none()).count();
    if missing > 0 {
        return Err(format!("served traffic covered {}/{n} examples", n - missing));
    }
    let outcomes: Vec<eval::RunOutcome> =
        outcomes.into_iter().map(|o| o.expect("checked above")).collect();
    let replay = Replay { system: system.to_string(), outcomes: &outcomes };
    Ok(eval::evaluate(&replay, bench, suites, 1, session))
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::SessionConfig;
    use eval::{response_from_json, RunEnv};
    use llm::CHATGPT;
    use obs::Clock;
    use purple::PurpleConfig;
    use spidergen::{generate_suite, GenConfig};

    struct Fixture {
        bench: Arc<Benchmark>,
        purple: Arc<Purple>,
        session: Arc<ExecSession>,
        metrics: Arc<MetricsRegistry>,
    }

    fn fixture() -> Fixture {
        let mut cfg = GenConfig::tiny(4242);
        cfg.dev_examples = 24;
        let suite = generate_suite(&cfg);
        let metrics = MetricsRegistry::shared(Clock::Virtual);
        let session = ExecSession::shared_with(SessionConfig::for_workers(4));
        let purple = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT)).with_env(
            RunEnv::default().with_session(session.clone()).with_metrics(metrics.clone()),
        );
        Fixture { bench: Arc::new(suite.dev.clone()), purple: Arc::new(purple), session, metrics }
    }

    fn start(fx: &Fixture, cfg: ServeConfig) -> Server {
        Server::start(fx.purple.clone(), fx.bench.clone(), fx.metrics.clone(), cfg)
    }

    #[test]
    fn served_translations_match_direct_runs() {
        let fx = fixture();
        let server = start(&fx, ServeConfig { workers: 3, ..ServeConfig::default() });
        let reqs = synth_requests(&fx.bench, fx.bench.examples.len(), 7);
        let (completions, stats) = run_load(&server.handle(), reqs).expect("load drives clean");
        server.shutdown();
        assert_eq!(completions.len(), fx.bench.examples.len());
        assert!(stats.throughput_rps > 0.0);
        assert!(stats.p50 <= stats.p99);
        for c in &completions {
            let ex = &fx.bench.examples[c.response.idx];
            let direct = fx.purple.run(eval::Job::new(c.response.idx, ex, fx.bench.db_of(ex)));
            assert_eq!(c.response.sql, direct.translation.sql, "idx {}", c.response.idx);
        }
    }

    #[test]
    fn submit_validates_database_and_shutdown_closes() {
        let fx = fixture();
        let server = start(&fx, ServeConfig::default());
        let handle = server.handle();
        let (tx, _rx) = mpsc::channel();
        let mut bad = synth_requests(&fx.bench, 1, 0).remove(0);
        bad.spec.example.db_index = 999;
        assert!(matches!(
            handle.submit(bad, tx.clone()),
            Err(SubmitError::UnknownDatabase { db_index: 999, .. })
        ));
        server.shutdown();
        let req = synth_requests(&fx.bench, 1, 0).remove(0);
        assert_eq!(handle.submit(req, tx), Err(SubmitError::Closed));
    }

    #[test]
    fn connection_speaks_ldjson_and_reports_errors() {
        let fx = fixture();
        let server = start(&fx, ServeConfig::default());
        let reqs = synth_requests(&fx.bench, 3, 1);
        let mut input = String::new();
        for r in &reqs {
            input.push_str(&eval::request_to_json(r));
            input.push('\n');
        }
        input.push_str("this is not json\n");
        let mut out = Vec::new();
        let stats =
            serve_connection(&server.handle(), io::Cursor::new(input), &mut out).expect("serves");
        server.shutdown();
        assert_eq!(stats, ConnStats { accepted: 3, rejected: 1 });
        let text = String::from_utf8(out).expect("utf8 output");
        let mut ids = Vec::new();
        let mut errors = 0;
        for line in text.lines() {
            match response_from_json(line) {
                Ok(resp) => ids.push(resp.id),
                Err(_) => {
                    assert!(line.contains("\"error\":"), "unexpected line {line}");
                    errors += 1;
                }
            }
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(errors, 1);
    }

    #[test]
    fn tcp_round_trips_one_connection() {
        use std::net::TcpStream;
        let fx = fixture();
        let server = start(&fx, ServeConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = server.handle();
        thread::spawn(move || {
            let _ = serve_tcp(handle, listener);
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        let req = synth_requests(&fx.bench, 1, 0).remove(0);
        writeln!(stream, "{}", eval::request_to_json(&req)).expect("send");
        stream.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut line = String::new();
        io::BufReader::new(stream).read_line(&mut line).expect("response line");
        let resp = response_from_json(line.trim()).expect("valid response");
        assert_eq!(resp.id, req.id);
        assert!(!resp.sql.is_empty());
        server.shutdown();
    }

    #[test]
    fn replayed_report_matches_sequential_evaluation() {
        let fx = fixture();
        let server = start(&fx, ServeConfig { workers: 4, ..ServeConfig::default() });
        let reqs = synth_requests(&fx.bench, fx.bench.examples.len() + 10, 99);
        let (completions, _) = run_load(&server.handle(), reqs).expect("load drives clean");
        server.shutdown();
        let system = eval::Translator::name(fx.purple.as_ref());
        let served = replay_report(&system, &fx.bench, None, &fx.session, &completions)
            .expect("full coverage");
        let direct = eval::evaluate(fx.purple.as_ref(), &fx.bench, None, 1, &fx.session);
        assert_eq!(
            eval::report_to_json(&served),
            eval::report_to_json(&direct),
            "served report must be byte-identical to the sequential pass"
        );
    }

    #[test]
    fn metrics_verb_answers_inline_with_prometheus_exposition() {
        let fx = fixture();
        let server = start(&fx, ServeConfig::default());
        let req = synth_requests(&fx.bench, 1, 0).remove(0);
        let input = format!(
            "{}\n{{\"cmd\":\"metrics\"}}\n{{\"cmd\":\"selfdestruct\"}}\n",
            eval::request_to_json(&req)
        );
        let mut out = Vec::new();
        let stats =
            serve_connection(&server.handle(), io::Cursor::new(input), &mut out).expect("serves");
        server.shutdown();
        // The command lines count toward neither accepted (not translations)
        // nor — for the well-formed one — rejected.
        assert_eq!(stats, ConnStats { accepted: 1, rejected: 1 });
        let text = String::from_utf8(out).expect("utf8 output");
        let metrics_line = text
            .lines()
            .find(|l| l.starts_with("{\"metrics\":"))
            .expect("metrics verb answered inline");
        assert!(metrics_line.contains("purple_stage_calls_total"));
        assert!(metrics_line.contains("purple_cache_hits_total"), "session stats included");
        assert!(metrics_line.contains("purple_exec_batches_total"), "op stats included");
        assert!(text.lines().any(|l| l.contains("unknown command verb")));
    }

    #[test]
    fn sampler_keeps_exactly_the_admitted_requests() {
        let fx = fixture();
        let trace = TraceConfig { sample: 3, seed: 0x5A17, wall: false };
        let server = start(&fx, ServeConfig { trace: Some(trace), ..ServeConfig::default() });
        let sink = server.trace_sink();
        let reqs = synth_requests(&fx.bench, fx.bench.examples.len(), 11);
        let sampler = TraceSampler { sample: trace.sample, seed: trace.seed };
        let expected: Vec<u64> =
            (0..fx.bench.examples.len() as u64).filter(|&id| sampler.admits(id)).collect();
        let (_, _) = run_load(&server.handle(), reqs).expect("load drives clean");
        server.shutdown();
        let drained = sink.drain();
        let traced: Vec<u64> = drained.traces.iter().map(|t| t.trace_id).collect();
        assert_eq!(traced, expected, "traced set must be the sampler's, ascending");
        assert!(!traced.is_empty() && traced.len() < fx.bench.examples.len());
    }

    #[test]
    fn one_worker_runs_one_request_at_a_time_and_gauges_settle() {
        let fx = fixture();
        let server = start(&fx, ServeConfig { workers: 1, ..ServeConfig::default() });
        let reqs = synth_requests(&fx.bench, fx.bench.examples.len(), 3);
        let (completions, _) = run_load(&server.handle(), reqs).expect("load drives clean");
        server.shutdown();
        assert_eq!(completions.len(), fx.bench.examples.len());
        let snap = fx.metrics.snapshot();
        assert!(snap.gauge(Gauge::QueueDepthHwm).unwrap_or(0) > 1, "requests queued up");
        assert_eq!(snap.gauge(Gauge::InFlightHwm), Some(1), "one request per worker");
        assert_eq!(snap.gauge(Gauge::QueueDepth).unwrap_or(0), 0, "queue drains by shutdown");
        assert_eq!(snap.gauge(Gauge::InFlight).unwrap_or(0), 0, "no work left in flight");
    }

    #[test]
    fn synthesized_arrival_order_is_pinned() {
        let bench = generate_suite(&GenConfig::tiny(4242)).dev;
        let ids: Vec<u64> = synth_requests(&bench, 40, 9).iter().map(|r| r.id).collect();
        assert_eq!(ids[..12], [39, 32, 6, 14, 0, 19, 1, 12, 20, 33, 16, 29]);
    }
}
