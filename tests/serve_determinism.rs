//! Serving-layer determinism contract: the same request set pushed through
//! the concurrent front-end at any worker count and in any arrival order
//! yields byte-identical response bodies — and the report replayed from
//! served traffic is byte-identical to a sequential (one-job) [`evaluate`]
//! pass over the same translator.

use bench_harness::serve::{replay_report, run_load, synth_requests, ServeConfig, Server};
use purple_repro::prelude::*;
use std::sync::Arc;

struct Fixture {
    bench: Arc<spidergen::Benchmark>,
    purple: Arc<Purple>,
    session: Arc<ExecSession>,
    metrics: Arc<MetricsRegistry>,
}

fn fixture() -> Fixture {
    let mut cfg = GenConfig::tiny(2026);
    cfg.dev_examples = 24;
    let suite = generate_suite(&cfg);
    let metrics = MetricsRegistry::shared(Clock::Virtual);
    let session = ExecSession::shared_with(SessionConfig::for_workers(8));
    let purple = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT))
        .with_env(RunEnv::default().with_session(session.clone()).with_metrics(metrics.clone()));
    Fixture { bench: Arc::new(suite.dev.clone()), purple: Arc::new(purple), session, metrics }
}

/// Drive the same id-stable request set (cycling every dev example, arrival
/// order shuffled by `arrival_seed`) through one server configuration and
/// return (response bodies sorted by id, replayed report JSON).
fn serve_once(fx: &Fixture, workers: usize, arrival_seed: u64) -> (String, String) {
    let cfg = ServeConfig { workers, queue_capacity: 8, trace: None, ..ServeConfig::default() };
    let server = Server::start(fx.purple.clone(), fx.bench.clone(), fx.metrics.clone(), cfg);
    let requests = synth_requests(&fx.bench, fx.bench.examples.len() + 8, arrival_seed);
    let (mut completions, stats) = run_load(&server.handle(), requests).expect("load drives clean");
    server.shutdown();
    assert_eq!(stats.requests, fx.bench.examples.len() + 8);
    completions.sort_by_key(|c| c.response.id);
    let bodies = completions
        .iter()
        .map(|c| eval::response_to_json(&c.response))
        .collect::<Vec<_>>()
        .join("\n");
    let system = eval::Translator::name(fx.purple.as_ref());
    let report = replay_report(&system, &fx.bench, None, &fx.session, &completions)
        .expect("traffic covers the split");
    (bodies, eval::report_to_json(&report))
}

#[test]
fn any_worker_count_and_arrival_order_is_byte_identical() {
    let fx = fixture();
    let (ref_bodies, ref_report) = serve_once(&fx, 1, 0xA11);
    for (workers, arrival_seed) in [(4, 0xB22), (8, 0xC33), (4, 0xD44)] {
        let (bodies, report) = serve_once(&fx, workers, arrival_seed);
        assert_eq!(ref_bodies, bodies, "response bodies diverged at workers={workers}");
        assert_eq!(ref_report, report, "replayed report diverged at workers={workers}");
    }
    // And the served report is the sequential evaluation, byte for byte.
    let direct = evaluate(fx.purple.as_ref(), &fx.bench, None, 1, &fx.session);
    assert_eq!(ref_report, eval::report_to_json(&direct));
}
