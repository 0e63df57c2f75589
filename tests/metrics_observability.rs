//! Observability-layer contract tests: aggregated pipeline metrics are
//! byte-identical between serial and parallel evaluation (virtual clock +
//! example-order fold), survive the hand-rolled JSON codec, and shared
//! registries absorb per-run snapshots without losing events.

use purple_repro::eval::{metrics_from_json, metrics_to_json};
use purple_repro::obs;
use purple_repro::prelude::*;

fn suite() -> Suite {
    let mut cfg = GenConfig::tiny(777);
    cfg.dev_examples = 60;
    generate_suite(&cfg)
}

#[test]
fn aggregated_metrics_json_is_byte_identical_across_job_counts() {
    let suite = suite();
    let system = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
    let serial = evaluate(&system, &suite.dev, None, 1, &ExecSession::disabled());
    let serial_json = metrics_to_json(&serial.metrics);
    for jobs in [1usize, 4] {
        let par = evaluate(&system, &suite.dev, None, jobs, &ExecSession::shared());
        assert_eq!(
            serial_json,
            metrics_to_json(&par.metrics),
            "metrics JSON diverged at jobs={jobs}"
        );
    }
    // The aggregate is real: one span per pipeline stage per example, token
    // totals live. The write path stays silent on a read-only evaluation.
    let n = suite.dev.examples.len() as u64;
    for stage in obs::Stage::REPORT {
        assert_eq!(serial.metrics.stage(stage).calls, n, "stage {}", stage.name());
    }
    assert_eq!(serial.metrics.stage(obs::Stage::WriteExec).calls, 0, "reads opened write spans");
    assert_eq!(serial.metrics.counter(obs::Counter::LlmCalls), n);
    assert!(serial.metrics.counter(obs::Counter::PromptTokens) > 0);
    assert!(serial.metrics.counter(obs::Counter::Samples) >= n);
}

#[test]
fn aggregated_metrics_round_trip_through_json() {
    let suite = suite();
    let system = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
    let report = evaluate(&system, &suite.dev, None, 1, &ExecSession::disabled());
    let json = metrics_to_json(&report.metrics);
    let back = metrics_from_json(&json).expect("serialized metrics must parse");
    assert_eq!(report.metrics, back);
    assert_eq!(json, metrics_to_json(&back), "re-serialization must be byte-identical");
}

#[test]
fn shared_registry_absorbs_all_events_under_parallel_evaluation() {
    let suite = suite();
    let shared = MetricsRegistry::shared(Clock::Virtual);
    let base = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
    let system = base
        .with_config(PurpleConfig::default_with(CHATGPT))
        .with_env(RunEnv::default().with_metrics(shared.clone()));
    let report = evaluate(&system, &suite.dev, None, 4, &ExecSession::shared());
    let absorbed = shared.snapshot();
    // Absorption order across workers is nondeterministic, but counters, span
    // histograms, and fixer stats are all commutative merges — only gauges
    // (last-set-wins) may differ from the example-order fold in the report.
    assert_eq!(absorbed.counters, report.metrics.counters);
    assert_eq!(absorbed.stages, report.metrics.stages);
    assert_eq!(absorbed.fixers, report.metrics.fixers);
    // Draining takes everything and resets atomically.
    let drained = shared.drain();
    assert_eq!(drained.counters, absorbed.counters);
    assert!(shared.snapshot().is_empty());
}

#[test]
fn wall_clock_metrics_record_real_time_but_same_event_counts() {
    let suite = suite();
    let base = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
    let virt = base.with_config(PurpleConfig::default_with(CHATGPT));
    let wall = base.with_config(PurpleConfig::default_with(CHATGPT)).with_clock(Clock::Wall);
    let ex = &suite.dev.examples[0];
    let db = suite.dev.db_of(ex);
    let v = virt.run(Job::new(0, ex, db));
    let w = wall.run(Job::new(0, ex, db));
    assert_eq!(v.translation.sql, w.translation.sql, "clock choice must not affect results");
    assert_eq!(w.metrics.clock, Clock::Wall);
    for stage in obs::Stage::ALL {
        assert_eq!(v.metrics.stage(stage).calls, w.metrics.stage(stage).calls);
    }
    assert_eq!(v.metrics.counters, w.metrics.counters);
}
