//! Trace-determinism contract (DESIGN.md §14): under the virtual work-unit
//! clock, the Chrome trace JSON exported from served traffic is
//! byte-identical for any worker count and any arrival order — and every
//! served request's span tree covers queue wait plus
//! every executed pipeline stage with consistent parent/child edges.

use bench_harness::serve::{run_load, synth_requests, ServeConfig, Server, TraceConfig};
use purple_repro::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

struct Fixture {
    bench: Arc<spidergen::Benchmark>,
    purple: Arc<Purple>,
    metrics: Arc<MetricsRegistry>,
}

fn fixture() -> Fixture {
    let mut cfg = GenConfig::tiny(2026);
    cfg.dev_examples = 24;
    let suite = generate_suite(&cfg);
    let metrics = MetricsRegistry::shared(Clock::Virtual);
    let session = ExecSession::shared_with(SessionConfig::for_workers(8));
    let purple = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT))
        .with_env(RunEnv::default().with_session(session).with_metrics(metrics.clone()));
    Fixture { bench: Arc::new(suite.dev.clone()), purple: Arc::new(purple), metrics }
}

/// Serve every dev example (plus a few repeats) through one configuration
/// with tracing on, and return the drained traces plus their Chrome export.
fn trace_once(fx: &Fixture, workers: usize, arrival_seed: u64) -> (obs::DrainedTraces, String) {
    let cfg = ServeConfig {
        workers,
        queue_capacity: 8,
        trace: Some(TraceConfig::default()),
        ..ServeConfig::default()
    };
    let server = Server::start(fx.purple.clone(), fx.bench.clone(), fx.metrics.clone(), cfg);
    let requests = synth_requests(&fx.bench, fx.bench.examples.len() + 8, arrival_seed);
    let expected = requests.len();
    let (completions, _) = run_load(&server.handle(), requests).expect("load drives clean");
    let sink = server.trace_sink();
    server.shutdown();
    assert_eq!(completions.len(), expected);
    let drained = sink.drain();
    let json = obs::trace::to_chrome_trace(&drained, false);
    (drained, json)
}

#[test]
fn chrome_export_is_byte_identical_across_schedules() {
    let fx = fixture();
    let (ref_drained, ref_json) = trace_once(&fx, 1, 0xA11);
    assert_eq!(ref_drained.traces.len(), fx.bench.examples.len() + 8, "sample=1 keeps all");
    for (workers, arrival_seed) in [(4, 0xB22), (8, 0xC33), (4, 0xD44)] {
        let (_, json) = trace_once(&fx, workers, arrival_seed);
        assert_eq!(ref_json, json, "trace export diverged at workers={workers}");
    }
}

#[test]
fn every_span_tree_covers_queue_wait_and_all_stages() {
    let fx = fixture();
    let (drained, _) = trace_once(&fx, 4, 0x5EED);
    assert_eq!(drained.dropped_traces, 0);
    assert_eq!(drained.dropped_spans, 0);
    for trace in &drained.traces {
        let by_id: BTreeMap<u32, &obs::SpanRecord> =
            trace.spans.iter().map(|s| (s.id, s)).collect();
        // Exactly one root, named "request", and every other span reaches it
        // through parent edges that point at earlier spans.
        let roots: Vec<_> = trace.spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), 1, "trace {} must have one root", trace.trace_id);
        assert_eq!(roots[0].name, "request");
        for span in &trace.spans {
            assert!(span.end >= span.start, "span {} closed before it opened", span.name);
            if let Some(parent) = span.parent {
                let p = by_id[&parent];
                assert!(p.id < span.id, "parent must start before child");
                assert!(
                    p.start <= span.start && p.end >= span.end,
                    "span {} must nest inside its parent {} (trace {})",
                    span.name,
                    p.name,
                    trace.trace_id
                );
            }
        }
        // Queue wait and every pipeline stage appear;
        // the stage spans hang off the root, and exec leaves nest under the
        // adaption/vote spans that issued them.
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        for required in [
            "queue-wait",
            obs::Stage::SchemaPruning.name(),
            obs::Stage::SkeletonPrediction.name(),
            obs::Stage::DemoSelection.name(),
            obs::Stage::PromptAssembly.name(),
            obs::Stage::LlmCall.name(),
            obs::Stage::Adaption.name(),
            obs::Stage::ConsistencyVote.name(),
        ] {
            assert!(
                names.contains(&required),
                "trace {} is missing span `{required}` (has {names:?})",
                trace.trace_id
            );
        }
        for span in &trace.spans {
            match span.name {
                "queue-wait" => {
                    assert_eq!(span.parent, Some(roots[0].id), "queue-wait parents to root");
                    assert_eq!(span.virt(), 0, "queue-wait declares no virtual work");
                }
                "exec" => {
                    let p = by_id[&span.parent.expect("exec spans are never roots")];
                    assert!(
                        p.name == obs::Stage::Adaption.name()
                            || p.name == obs::Stage::ConsistencyVote.name(),
                        "exec span parented to `{}` in trace {}",
                        p.name,
                        trace.trace_id
                    );
                }
                _ => {}
            }
        }
    }
}
