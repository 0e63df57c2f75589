//! `purple-serve` — the long-running NL2SQL service front-end (DESIGN.md §13).
//!
//! ```text
//! purple-serve (--stdio | --tcp ADDR | --load-gen N | --soak SECS)
//!              [--scale tiny|medium|full] [--seed N] [--profile chatgpt|gpt4]
//!              [--workers N] [--queue-capacity N]
//!              [--trace-out PATH] [--trace-sample N] [--trace-wall]
//!              [--slo-target N]
//!              load-gen/soak only:
//!              [--arrival-seed N] [--bench-out PATH]
//!              [--archive DIR [--baseline RUN [--gate] [--gate-ex N] [--gate-ts N]
//!                              [--gate-blame F] [--diff-out P] [--diff-json P]]]
//!              soak only:
//!              [--rate RPS] [--tick-ms N] [--timeline PATH]
//! ```
//!
//! The server trains PURPLE on the generated suite's train split at startup,
//! then answers line-delimited JSON requests against the dev split's
//! databases (see `eval::wire` for the request/response line shapes; the
//! `{"cmd":"metrics"}` line answers with a Prometheus text exposition of the
//! live registry, cache, and exec-operator state, and `{"cmd":"health"}`
//! with the sliding-window SLO snapshot as one JSON object). `--load-gen N`
//! instead drives N seeded synthetic requests through the server, prints
//! throughput and latency percentiles plus a per-stage span rollup, writes
//! them to `BENCH_serve.json` (schema v4, per-stage breakdown included), and
//! can archive the replayed evaluation report in the PR-5 run registry so
//! the regression gate covers served translations.
//!
//! `--soak SECS --rate RPS` runs the sustained-soak mode (DESIGN.md §16):
//! after the closed-loop load-gen pass (implied if `--load-gen` is absent),
//! the driver offers open-loop seeded arrivals at the given rate for SECS
//! seconds, sheds on overload, appends one timeline row per tick to the
//! `--timeline` LDJSON file, prints a markdown rendering, and fills the
//! `soak` section of `BENCH_serve.json`. The timeline's `virt_*` columns are
//! byte-identical for any `--workers` and `--arrival-seed` (offered-load
//! statistics over a sequentially-primed cost table); the measured columns
//! are operational.
//!
//! Request tracing (DESIGN.md §14) is always on under `--load-gen` and
//! enabled elsewhere by `--trace-out`. The exported Chrome trace JSON uses
//! virtual work units, byte-identical for any `--workers` and
//! `--arrival-seed`; `--trace-wall` switches the export to wall-clock
//! microseconds (machine-dependent, opt-in).

use bench_harness::{serve, soak, Scale};
use engine::{ExecSession, SessionConfig};
use eval::{RunEnv, SuiteConfig};
use obs::json::quote;
use obs::{Clock, MetricsRegistry};
use purple::{Purple, PurpleConfig};
use spidergen::generate_suite;
use std::io;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Stdio,
    Tcp,
    LoadGen,
}

struct Args {
    mode: Mode,
    tcp_addr: String,
    requests: usize,
    scale: Scale,
    seed: u64,
    profile: &'static str,
    workers: usize,
    queue_capacity: usize,
    trace_out: Option<String>,
    trace_sample: u64,
    trace_wall: bool,
    slo_target: u64,
    soak_secs: Option<f64>,
    rate: f64,
    tick_ms: u64,
    timeline: String,
    arrival_seed: u64,
    bench_out: String,
    archive: Option<String>,
    baseline: Option<String>,
    gate: bool,
    gate_ex: usize,
    gate_ts: usize,
    gate_blame: f64,
    diff_out: Option<String>,
    diff_json: Option<String>,
}

const USAGE: &str = "purple-serve (--stdio | --tcp ADDR | --load-gen N | --soak SECS) \
    [--scale tiny|medium|full] [--seed N] [--profile chatgpt|gpt4] [--workers N] \
    [--queue-capacity N] [--trace-out PATH] \
    [--trace-sample N] [--trace-wall] [--slo-target N] [--rate RPS] [--tick-ms N] \
    [--timeline PATH] [--arrival-seed N] \
    [--bench-out PATH] [--archive DIR [--baseline RUN [--gate] [--gate-ex N] \
    [--gate-ts N] [--gate-blame F] [--diff-out P] [--diff-json P]]]";

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        mode: Mode::Stdio,
        tcp_addr: String::new(),
        requests: 0,
        scale: Scale::Tiny,
        seed: 42,
        profile: "chatgpt",
        workers: bench_harness::context::default_jobs(),
        queue_capacity: 64,
        trace_out: None,
        trace_sample: 1,
        trace_wall: false,
        slo_target: serve::TelemetryConfig::default().latency_target,
        soak_secs: None,
        rate: 16.0,
        tick_ms: 1000,
        timeline: "SOAK_timeline.ldjson".into(),
        arrival_seed: 1,
        bench_out: "BENCH_serve.json".into(),
        archive: None,
        baseline: None,
        gate: false,
        gate_ex: 0,
        gate_ts: 0,
        gate_blame: 10.0,
        diff_out: None,
        diff_json: None,
    };
    let mut mode = None;
    let mut it = std::env::args().skip(1);
    let next = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next().unwrap_or_else(|| die(&format!("{flag} needs a value")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stdio" => mode = Some(Mode::Stdio),
            "--tcp" => {
                args.tcp_addr = next(&mut it, "--tcp");
                mode = Some(Mode::Tcp);
            }
            "--load-gen" => {
                args.requests = next(&mut it, "--load-gen")
                    .parse()
                    .unwrap_or_else(|_| die("--load-gen needs a request count"));
                mode = Some(Mode::LoadGen);
            }
            "--scale" => {
                let v = next(&mut it, "--scale");
                args.scale = Scale::parse(&v)
                    .unwrap_or_else(|| die(&format!("unknown scale `{v}` (tiny|medium|full)")));
            }
            "--seed" => {
                args.seed = next(&mut it, "--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs an integer"));
            }
            "--profile" => {
                args.profile = match next(&mut it, "--profile").as_str() {
                    "chatgpt" => "chatgpt",
                    "gpt4" => "gpt4",
                    p => die(&format!("unknown profile `{p}` (chatgpt|gpt4)")),
                };
            }
            "--workers" => {
                args.workers = next(&mut it, "--workers")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--workers needs a positive integer"));
            }
            "--queue-capacity" => {
                args.queue_capacity = next(&mut it, "--queue-capacity")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--queue-capacity needs a positive integer"));
            }
            "--soak" => {
                args.soak_secs = Some(
                    next(&mut it, "--soak")
                        .parse()
                        .ok()
                        .filter(|&s: &f64| s > 0.0)
                        .unwrap_or_else(|| die("--soak needs a positive duration in seconds")),
                );
            }
            "--rate" => {
                args.rate =
                    next(&mut it, "--rate").parse().ok().filter(|&r: &f64| r > 0.0).unwrap_or_else(
                        || die("--rate needs a positive requests-per-second value"),
                    );
            }
            "--tick-ms" => {
                args.tick_ms = next(&mut it, "--tick-ms")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--tick-ms needs a positive integer"));
            }
            "--timeline" => args.timeline = next(&mut it, "--timeline"),
            "--slo-target" => {
                args.slo_target = next(&mut it, "--slo-target")
                    .parse()
                    .unwrap_or_else(|_| die("--slo-target needs a work-unit threshold"));
            }
            "--trace-out" => args.trace_out = Some(next(&mut it, "--trace-out")),
            "--trace-sample" => {
                args.trace_sample = next(&mut it, "--trace-sample")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--trace-sample needs a positive integer"));
            }
            "--trace-wall" => args.trace_wall = true,
            "--arrival-seed" => {
                args.arrival_seed = next(&mut it, "--arrival-seed")
                    .parse()
                    .unwrap_or_else(|_| die("--arrival-seed needs an integer"));
            }
            "--bench-out" => args.bench_out = next(&mut it, "--bench-out"),
            "--archive" => args.archive = Some(next(&mut it, "--archive")),
            "--baseline" => args.baseline = Some(next(&mut it, "--baseline")),
            "--gate" => args.gate = true,
            "--gate-ex" => {
                args.gate_ex = next(&mut it, "--gate-ex")
                    .parse()
                    .unwrap_or_else(|_| die("--gate-ex needs an integer threshold"));
            }
            "--gate-ts" => {
                args.gate_ts = next(&mut it, "--gate-ts")
                    .parse()
                    .unwrap_or_else(|_| die("--gate-ts needs an integer threshold"));
            }
            "--gate-blame" => {
                args.gate_blame = next(&mut it, "--gate-blame")
                    .parse()
                    .unwrap_or_else(|_| die("--gate-blame needs a percentage-point threshold"));
            }
            "--diff-out" => args.diff_out = Some(next(&mut it, "--diff-out")),
            "--diff-json" => args.diff_json = Some(next(&mut it, "--diff-json")),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => die(&format!("unknown argument `{other}` (try --help)")),
        }
    }
    if mode.is_none() && args.soak_secs.is_some() {
        // `--soak SECS` alone implies the load-gen pass (request count 0 is
        // bumped to cover the dev split), then the soak phase.
        mode = Some(Mode::LoadGen);
    }
    args.mode = mode.unwrap_or_else(|| die(&format!("pick a mode\n{USAGE}")));
    if args.soak_secs.is_some() && args.mode != Mode::LoadGen {
        die("--soak runs with --load-gen (or alone, which implies it)");
    }
    if args.mode != Mode::LoadGen
        && (args.archive.is_some() || args.baseline.is_some() || args.gate)
    {
        die("--archive/--baseline/--gate require --load-gen");
    }
    if args.baseline.is_some() && args.archive.is_none() {
        die("--baseline requires --archive (the registry holding the baseline run)");
    }
    if (args.gate || args.diff_out.is_some() || args.diff_json.is_some()) && args.baseline.is_none()
    {
        die("--gate/--diff-out/--diff-json require --baseline");
    }
    if args.trace_out.is_some() && args.mode == Mode::Tcp {
        die("--trace-out requires --stdio or --load-gen (a TCP listener never exits to export)");
    }
    args
}

fn main() {
    let args = parse_args();
    let profile = if args.profile == "gpt4" { llm::GPT4 } else { llm::CHATGPT };
    let t0 = Instant::now();
    eprintln!(
        "[serve] building context (scale {}, seed {}, {} worker(s))...",
        args.scale.name(),
        args.seed,
        args.workers
    );
    let suite = generate_suite(&args.scale.gen_config(args.seed));
    let metrics = MetricsRegistry::shared(Clock::Virtual);
    let session = ExecSession::shared_with(SessionConfig::for_workers(args.workers));
    let purple =
        Arc::new(Purple::new(&suite.train, PurpleConfig::default_with(profile)).with_env(
            RunEnv::default().with_session(session.clone()).with_metrics(metrics.clone()),
        ));
    let bench = Arc::new(suite.dev.clone());
    // Tracing is always on under --load-gen (the per-stage breakdown in
    // BENCH_serve.json depends on it) and opt-in via --trace-out elsewhere.
    let trace_on = args.trace_out.is_some() || args.mode == Mode::LoadGen;
    let cfg = serve::ServeConfig {
        workers: args.workers,
        queue_capacity: args.queue_capacity,
        trace: trace_on.then_some(serve::TraceConfig {
            sample: args.trace_sample,
            seed: args.seed,
            wall: args.trace_wall,
        }),
        telemetry: serve::TelemetryConfig {
            latency_target: args.slo_target,
            ..serve::TelemetryConfig::default()
        },
    };
    let server = serve::Server::start(purple.clone(), bench.clone(), metrics.clone(), cfg);
    // The soak cost table must be primed before any concurrent traffic: a
    // sequential pass warms the session caches in a fixed order, which is
    // what makes the timeline's virt_* columns worker-count-independent.
    let costs = args.soak_secs.map(|_| {
        eprintln!("[serve] priming soak cost table ({:.1}s)...", t0.elapsed().as_secs_f64());
        soak::warmup_costs(&purple, &bench)
    });
    eprintln!(
        "[serve] ready: {} dev examples over {} databases ({:.1}s startup)",
        bench.examples.len(),
        bench.databases.len(),
        t0.elapsed().as_secs_f64()
    );
    match args.mode {
        Mode::Stdio => {
            let mut out = io::stdout();
            let stats = serve::serve_connection(&server.handle(), io::stdin().lock(), &mut out)
                .unwrap_or_else(|e| {
                    eprintln!("[serve] stdio connection failed: {e}");
                    std::process::exit(1);
                });
            let sink = server.trace_sink();
            server.shutdown();
            eprintln!(
                "[serve] stdin closed: {} request(s) answered, {} refused",
                stats.accepted, stats.rejected
            );
            let drained = sink.drain();
            if !drained.traces.is_empty() {
                // Stdout is the protocol channel here; the rollup goes to
                // stderr and the Chrome export to --trace-out.
                eprint!("{}", obs::trace::render_rollup(&obs::trace::rollup(&drained)));
            }
            export_traces(&drained, &args);
        }
        Mode::Tcp => {
            let listener = std::net::TcpListener::bind(&args.tcp_addr).unwrap_or_else(|e| {
                eprintln!("[serve] cannot bind {}: {e}", args.tcp_addr);
                std::process::exit(1);
            });
            let addr = listener.local_addr().map(|a| a.to_string()).unwrap_or_default();
            eprintln!("[serve] listening on {addr}");
            if let Err(e) = serve::serve_tcp(server.handle(), listener) {
                eprintln!("[serve] listener failed: {e}");
                std::process::exit(1);
            }
        }
        Mode::LoadGen => {
            load_gen(&args, profile, &server, &suite, &bench, &session, costs.as_deref(), &t0)
        }
    }
    eprintln!("[serve] done in {:.1}s", t0.elapsed().as_secs_f64());
}

/// `--load-gen`: drive seeded synthetic traffic, report throughput/latency,
/// optionally run the soak phase, write `BENCH_serve.json`, and optionally
/// archive/diff/gate the replayed evaluation report (mirroring
/// `repro --archive`).
#[allow(clippy::too_many_arguments)]
fn load_gen(
    args: &Args,
    profile: llm::LlmProfile,
    server: &serve::Server,
    suite: &spidergen::Suite,
    bench: &Arc<spidergen::Benchmark>,
    session: &Arc<ExecSession>,
    costs: Option<&[u64]>,
    t0: &Instant,
) {
    let n = bench.examples.len();
    let requests = args.requests.max(n);
    if requests > args.requests {
        eprintln!(
            "[serve] bumping --load-gen {} to {requests} so every dev example is served \
             (the replayed report must cover the split)",
            args.requests
        );
    }
    // Resolve the baseline before recording the candidate — same rationale as
    // `repro --archive` (PR 5): `--baseline latest` must never self-resolve.
    let registry_and_base = args.archive.as_ref().map(|root| {
        let registry = eval::RunRegistry::open(root).unwrap_or_else(|e| {
            eprintln!("cannot open run registry at {root}: {e}");
            std::process::exit(1);
        });
        let base_id = args.baseline.as_ref().map(|reference| {
            registry.resolve(reference).unwrap_or_else(|e| {
                eprintln!("cannot resolve baseline `{reference}`: {e}");
                std::process::exit(2);
            })
        });
        (registry, base_id)
    });
    eprintln!("[serve] driving {requests} request(s) ({:.1}s)...", t0.elapsed().as_secs_f64());
    let reqs = serve::synth_requests(bench, requests, args.arrival_seed);
    let (completions, stats) = serve::run_load(&server.handle(), reqs).unwrap_or_else(|e| {
        eprintln!("[serve] load generation failed: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "[serve] {} completion(s) in {:.1}ms: {:.1} req/s, p50 {:.3}ms p95 {:.3}ms p99 {:.3}ms",
        stats.requests,
        stats.wall.as_secs_f64() * 1e3,
        stats.throughput_rps,
        stats.p50.as_secs_f64() * 1e3,
        stats.p95.as_secs_f64() * 1e3,
        stats.p99.as_secs_f64() * 1e3
    );
    let drained = server.trace_sink().drain();
    let stage_rows = obs::trace::rollup(&drained);
    if !stage_rows.is_empty() {
        print!("{}", obs::trace::render_rollup(&stage_rows));
    }
    export_traces(&drained, args);
    let soak_outcome = args.soak_secs.map(|secs| {
        let costs = costs.expect("cost table primed in main when --soak is set");
        let scfg = soak::SoakConfig {
            duration: std::time::Duration::from_secs_f64(secs),
            rate: args.rate,
            arrival_seed: args.arrival_seed,
            tick: std::time::Duration::from_millis(args.tick_ms),
        };
        eprintln!(
            "[serve] soaking {secs:.1}s at {:.1} req/s, tick {}ms ({:.1}s)...",
            args.rate,
            args.tick_ms,
            t0.elapsed().as_secs_f64()
        );
        let outcome = soak::run_soak(&server.handle(), bench, costs, &scfg).unwrap_or_else(|e| {
            eprintln!("[serve] soak failed: {e}");
            std::process::exit(1);
        });
        if let Err(e) = std::fs::write(&args.timeline, soak::timeline_to_ldjson(&outcome)) {
            eprintln!("cannot write {}: {e}", args.timeline);
            std::process::exit(1);
        }
        eprintln!(
            "[serve] soak done: {}/{} completed, {} shed, verdict {}; timeline in {}",
            outcome.completed,
            outcome.offered,
            outcome.shed,
            outcome.verdict.name(),
            args.timeline
        );
        print!("{}", soak::render_markdown(&outcome));
        outcome
    });
    eprintln!("[serve] scoring served traffic ({:.1}s)...", t0.elapsed().as_secs_f64());
    let suites_cfg = SuiteConfig { candidates: 40, max_kept: 8, probe_queries: 24 };
    let suites = eval::build_suites(bench, suites_cfg, args.seed ^ 0x7e57);
    let system =
        eval::Translator::name(&Purple::new(&suite.train, PurpleConfig::default_with(profile)));
    let report = serve::replay_report(&system, bench, Some(&suites), session, &completions)
        .unwrap_or_else(|e| {
            eprintln!("[serve] cannot rebuild report from served traffic: {e}");
            std::process::exit(1);
        });
    println!("{}", report.summary());
    // The run id is a pure function of the manifest's identity fields, so it
    // is known — and lands in BENCH_serve.json — whether or not the run is
    // archived; archiving just persists the report under it.
    let manifest = eval::RunManifest {
        system: report.system.clone(),
        split: report.split.clone(),
        scale: args.scale.name().to_string(),
        seed: args.seed,
        jobs: args.workers,
        profile: profile.name.to_string(),
        config_fingerprint: eval::fingerprint(&format!(
            "{:?} serve workers={} queue={}",
            PurpleConfig::default_with(profile),
            args.workers,
            args.queue_capacity
        )),
        git_rev: eval::git_rev(std::path::Path::new(".")).unwrap_or_else(|| "unknown".into()),
        schema_version: eval::REPORT_SCHEMA_VERSION,
        examples: report.overall.n,
    };
    let run_id = match registry_and_base.as_ref() {
        Some((registry, _)) => {
            let run_id = registry.record(&manifest, &report).unwrap_or_else(|e| {
                eprintln!("cannot archive run: {e}");
                std::process::exit(1);
            });
            println!("run_id={run_id}");
            run_id
        }
        None => manifest.run_id(),
    };
    let json =
        bench_json(args, requests, n, &stats, &report, &run_id, &stage_rows, soak_outcome.as_ref());
    if let Err(e) = std::fs::write(&args.bench_out, &json) {
        eprintln!("cannot write {}: {e}", args.bench_out);
        std::process::exit(1);
    }
    eprintln!("[serve] bench summary written to {}", args.bench_out);
    let Some((registry, Some(base_id))) = registry_and_base else {
        return;
    };
    let (_, base_report) = registry.load(&base_id).unwrap_or_else(|e| {
        eprintln!("cannot load baseline {base_id}: {e}");
        std::process::exit(2);
    });
    let diff = eval::diff_reports(&base_id, &base_report, &run_id, &report).unwrap_or_else(|e| {
        eprintln!("cannot diff {run_id} against {base_id}: {e}");
        std::process::exit(2);
    });
    print!("{}", diff.render_markdown());
    if let Some(path) = &args.diff_out {
        if let Err(e) = std::fs::write(path, diff.render_markdown()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = &args.diff_json {
        if let Err(e) = std::fs::write(path, eval::diff_to_json(&diff)) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    if args.gate {
        let cfg = eval::GateConfig {
            max_ex_regressions: args.gate_ex,
            max_ts_regressions: args.gate_ts,
            max_blame_share_increase: args.gate_blame,
        };
        let outcome = eval::gate(&diff, &cfg);
        if outcome.passed {
            eprintln!("[serve] gate passed: {run_id} vs baseline {base_id}");
        } else {
            eprintln!("[serve] gate FAILED: {run_id} vs baseline {base_id}");
            for v in &outcome.violations {
                eprintln!("  - {v}");
            }
            std::process::exit(1);
        }
    }
}

/// Export drained traces as Chrome trace-event JSON when `--trace-out` is set.
fn export_traces(drained: &obs::DrainedTraces, args: &Args) {
    let Some(path) = &args.trace_out else { return };
    let json = obs::trace::to_chrome_trace(drained, args.trace_wall);
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "[serve] {} trace(s) written to {path} ({} clock)",
        drained.traces.len(),
        if args.trace_wall { "wall" } else { "virtual" }
    );
}

/// Render `BENCH_serve.json`, every string through [`obs::json::quote`].
///
/// Schema v2 added the per-stage `"stages"` array (one row per span path
/// with virtual-work and wall-microsecond p50/p95/p99, queue wait included).
/// Schema v3 makes `run_id` always a string (the deterministic registry id,
/// archived or not) and appends the `"soak"` section — `null` unless the run
/// had a `--soak` phase. Readers of the v1/v2 shapes stay compatible: every
/// earlier field is still present with its old name and type.
#[allow(clippy::too_many_arguments)]
fn bench_json(
    args: &Args,
    requests: usize,
    examples: usize,
    stats: &serve::LoadStats,
    report: &eval::EvalReport,
    run_id: &str,
    stages: &[obs::trace::RollupRow],
    soaked: Option<&soak::SoakOutcome>,
) -> String {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let stage_rows: Vec<String> = stages
        .iter()
        .map(|row| {
            format!(
                "    {{\"path\": {}, \"count\": {}, \"virt_p50\": {}, \"virt_p95\": {}, \
                 \"virt_p99\": {}, \"wall_us_p50\": {}, \"wall_us_p95\": {}, \"wall_us_p99\": \
                 {}}}",
                quote(&row.path),
                row.count,
                row.virt[0],
                row.virt[1],
                row.virt[2],
                row.wall_us[0],
                row.wall_us[1],
                row.wall_us[2]
            )
        })
        .collect();
    let soak_section = match soaked {
        None => "null".to_string(),
        Some(s) => format!(
            "{{\n    \"duration_s\": {:.1},\n    \"rate_rps\": {:.1},\n    \"tick_ms\": {},\n    \
             \"ticks\": {},\n    \"offered\": {},\n    \"completed\": {},\n    \"shed\": {},\n    \
             \"sustained_rps\": {:.1},\n    \"virt_work_offered\": {},\n    \
             \"latency_p95_peak\": {},\n    \"latency_p99_peak\": {},\n    \
             \"overload_episodes\": {},\n    \"verdict\": {},\n    \"timeline\": {}\n  }}",
            args.soak_secs.unwrap_or(0.0),
            args.rate,
            args.tick_ms,
            s.ticks.len(),
            s.offered,
            s.completed,
            s.shed,
            s.sustained_rps,
            s.virt_work_offered,
            s.peak_p95,
            s.peak_p99,
            s.episodes,
            quote(s.verdict.name()),
            quote(&args.timeline)
        ),
    };
    let soak_flags = match args.soak_secs {
        None => String::new(),
        Some(secs) => format!(" --soak {secs} --rate {} --tick-ms {}", args.rate, args.tick_ms),
    };
    format!(
        "{{\n  \"schema_version\": 4,\n  \"bench\": \"serve\",\n  \"description\": \"purple-serve \
         load generator: seeded synthetic requests cycling the dev split, driven through the \
         concurrent serving front-end (bounded queue, one request per worker, a shared \
         ExecSession). Latency is submit-to-completion wall time including admission wait. \
         Reproduce with: cargo run -p purple-bench --bin purple-serve -- --load-gen \
         {requests}{soak_flags} --scale {} --seed {} --workers {}\",\n  \
         \"scale\": {},\n  \"seed\": {},\n  \"profile\": {},\n  \"workers\": {},\n  \
         \"queue_capacity\": {},\n  \
         \"requests\": {requests},\n  \"examples\": {examples},\n  \"arrival_seed\": {},\n  \
         \"wall_ms\": {:.3},\n  \"throughput_rps\": {:.1},\n  \"p50_ms\": {:.3},\n  \
         \"p95_ms\": {:.3},\n  \"p99_ms\": {:.3},\n  \"em_pct\": {:.1},\n  \"ex_pct\": {:.1},\n  \
         \"ts_pct\": {:.1},\n  \"run_id\": {},\n  \"stages\": [\n{}\n  ],\n  \
         \"soak\": {},\n  \
         \"note\": \"wall-clock timings (wall_ms, *_ms, wall_us_*, sustained_rps, soak latency \
         peaks) vary by machine; the EvalReport under run_id, the virt_* stage columns, the soak \
         virt_work_offered total, and the exported trace JSON are deterministic — byte-identical \
         for any --workers and --arrival-seed. They follow the stream of the repository's \
         seeded generator (perfbench/stubs/rand), which every build of the repository uses. \
         Schema v3 made run_id always the deterministic registry id and appended `soak` (null \
         without --soak); v4 drops `batching` and `batch_max`, since every worker translates \
         one request at a time.\"\n}}\n",
        args.scale.name(),
        args.seed,
        args.workers,
        quote(args.scale.name()),
        args.seed,
        quote(args.profile),
        args.workers,
        args.queue_capacity,
        args.arrival_seed,
        ms(stats.wall),
        stats.throughput_rps,
        ms(stats.p50),
        ms(stats.p95),
        ms(stats.p99),
        report.overall.em_pct(),
        report.overall.ex_pct(),
        report.overall.ts_pct(),
        quote(run_id),
        stage_rows.join(",\n"),
        soak_section
    )
}
