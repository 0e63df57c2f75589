//! Soak and health contracts (DESIGN.md §16): a saturated queue sheds and
//! the `health` verb reports it as a non-Healthy verdict with nonzero
//! queue-depth high-watermarks, and the soak timeline's virtual columns are
//! byte-identical across worker counts and arrival seeds.

use bench_harness::serve::TelemetryConfig;
use bench_harness::serve::{serve_connection, synth_requests, ServeConfig, Server, SubmitError};
use bench_harness::soak::{run_soak, tick_to_json, virt_prefix, warmup_costs, SoakConfig};
use obs::{Counter, SloVerdict};
use purple_repro::prelude::*;
use std::io;
use std::sync::{mpsc, Arc};
use std::time::Duration;

struct Fixture {
    bench: Arc<spidergen::Benchmark>,
    purple: Arc<Purple>,
    metrics: Arc<MetricsRegistry>,
}

fn fixture(gen_seed: u64) -> Fixture {
    let mut cfg = GenConfig::tiny(gen_seed);
    cfg.dev_examples = 24;
    let suite = generate_suite(&cfg);
    let metrics = MetricsRegistry::shared(Clock::Virtual);
    let session = ExecSession::shared_with(SessionConfig::for_workers(8));
    let purple = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT))
        .with_env(RunEnv::default().with_session(session).with_metrics(metrics.clone()));
    Fixture { bench: Arc::new(suite.dev.clone()), purple: Arc::new(purple), metrics }
}

fn start(fx: &Fixture, cfg: ServeConfig) -> Server {
    Server::start(fx.purple.clone(), fx.bench.clone(), fx.metrics.clone(), cfg)
}

#[test]
fn saturated_queue_sheds_and_health_degrades() {
    let fx = fixture(3344);
    let server = start(
        &fx,
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            telemetry: TelemetryConfig { bucket_width: 1 << 12, ..TelemetryConfig::default() },
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    let (tx, rx) = mpsc::channel();
    let mut admitted = 0u64;
    let mut shed = 0u64;
    // Burst 200 non-blocking submissions against a capacity-1 queue drained
    // by one worker: the vast majority must hit a full queue and shed.
    for req in synth_requests(&fx.bench, 200, 0) {
        match handle.try_submit(req, tx.clone()) {
            Ok(()) => admitted += 1,
            Err(SubmitError::QueueFull) => shed += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(shed > 0, "a burst of 200 against a capacity-1 queue must shed");
    assert!(admitted > 0, "an empty queue admits at least the first request");
    // Probe health while the shed burst is still inside the window: the
    // admission SLO (target 0, tight budget) must be burning.
    let h = handle.health();
    assert_eq!(h.shed, shed);
    assert!(h.queue_depth_hwm >= 1, "hwm gauge saw the queue fill");
    assert_ne!(h.verdict, SloVerdict::Healthy, "overload must not read as healthy");
    let admission = h.slos.iter().find(|s| s.name == "admission").expect("admission slo");
    assert!(admission.violations > 0);
    assert!(admission.burn_rate > 1.0);
    assert!(h.episodes >= 1, "the overload transition is an episode");
    // The verb body is one JSON object carrying the same verdict.
    let json = handle.health_json();
    assert!(json.starts_with("{\"now\":"), "health json shape: {json}");
    assert!(json.contains("\"slos\":[{\"name\":\"translate_latency\""), "slo order: {json}");
    // Drain the admitted requests, then check the all-time shed accounting.
    drop(tx);
    let completions: Vec<_> = rx.iter().collect();
    assert_eq!(completions.len() as u64, admitted, "every admitted request completes");
    server.shutdown();
    let snap = fx.metrics.snapshot();
    assert_eq!(snap.counter(Counter::RequestsShed), shed, "shed counter matches refusals");
    let final_health = handle.health();
    assert_eq!(final_health.completed, admitted);
    assert_eq!(final_health.queue_depth, 0);
    assert_eq!(final_health.in_flight, 0);
}

#[test]
fn health_verb_answers_inline_over_stdio() {
    let fx = fixture(9182);
    let server = start(&fx, ServeConfig::default());
    let req = synth_requests(&fx.bench, 1, 0).remove(0);
    let input = format!("{}\n{{\"cmd\":\"health\"}}\n", eval::request_to_json(&req));
    let mut out = Vec::new();
    let stats =
        serve_connection(&server.handle(), io::Cursor::new(input), &mut out).expect("serves");
    server.shutdown();
    assert_eq!((stats.accepted, stats.rejected), (1, 0), "the verb counts toward neither");
    let text = String::from_utf8(out).expect("utf8 output");
    let health_line =
        text.lines().find(|l| l.starts_with("{\"health\":{")).expect("health verb answered inline");
    assert!(health_line.contains("\"slos\":["), "slo array present: {health_line}");
    assert!(health_line.contains("\"verdict\":"), "verdict present: {health_line}");
}

/// One full soak against a fresh fixture: prime the cost table sequentially,
/// run the open-loop driver, return the cost table and the timeline lines.
fn soak_once(gen_seed: u64, workers: usize, arrival_seed: u64) -> (Vec<u64>, Vec<String>) {
    let fx = fixture(gen_seed);
    let costs = warmup_costs(&fx.purple, &fx.bench);
    let server = start(&fx, ServeConfig { workers, ..ServeConfig::default() });
    let cfg = SoakConfig {
        duration: Duration::from_millis(200),
        rate: 100.0,
        arrival_seed,
        tick: Duration::from_millis(40),
    };
    let outcome = run_soak(&server.handle(), &fx.bench, &costs, &cfg).expect("soak runs clean");
    server.shutdown();
    assert_eq!(outcome.ticks.len(), 5, "200ms at 40ms ticks");
    assert!(outcome.completed > 0, "some offered requests complete");
    assert_eq!(
        outcome.completed + outcome.shed,
        outcome.offered,
        "every offered request is admitted or shed"
    );
    (costs, outcome.ticks.iter().map(tick_to_json).collect())
}

#[test]
fn soak_virt_columns_are_byte_identical_across_workers_and_seeds() {
    let (ref_costs, ref_lines) = soak_once(777, 1, 11);
    let ref_virt: Vec<String> = ref_lines.iter().map(|l| virt_prefix(l).to_string()).collect();
    assert!(ref_virt[0].starts_with("{\"tick\":0,\"id_lo\":0,\"id_hi\":4,"), "{}", ref_virt[0]);
    assert!(ref_virt[0].contains("\"virt_p50\":"), "{}", ref_virt[0]);
    for (workers, arrival_seed) in [(1, 99), (4, 11), (4, 99), (8, 11), (8, 99)] {
        let (costs, lines) = soak_once(777, workers, arrival_seed);
        assert_eq!(ref_costs, costs, "cost table diverged at workers={workers}");
        let virt: Vec<String> = lines.iter().map(|l| virt_prefix(l).to_string()).collect();
        assert_eq!(
            ref_virt, virt,
            "virt timeline columns diverged at workers={workers} seed={arrival_seed}"
        );
    }
}
