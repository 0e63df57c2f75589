//! Every JSON document the workspace writes, fuzzed through the one parser,
//! `obs::json::parse`, and through its typed decoder where one exists. Every
//! truncation, and every single-byte corruption at seeded positions, must
//! return `Ok` or `Err`, never panic; so must a line nested far deeper than
//! any document. `purple-serve` parses whatever a client sends on a 2 MiB
//! connection thread, and the run registry parses whatever is on disk, so a
//! panic or a stack overflow here would take down a server or a gate run.

use bench_harness::serve::HealthSnapshot;
use bench_harness::soak::{tick_to_json, SoakTick};
use eval::{
    AttributionReport, Blame, Bucket, EvalReport, ExampleOutcome, JobSpec, Request, Response,
    RunManifest,
};
use obs::trace::splitmix64;
use obs::{
    json, Counter, Event, EventValue, Fixer, Gauge, SloSpec, SloTracker, SloVerdict, SpanSink,
    Stage, StageMetrics, TraceRecorder, WindowStats,
};
use spidergen::{generate_suite, GenConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A typed decoder, reduced to whether it accepted the text.
type Decoder = fn(&str) -> Result<(), String>;

/// Corrupted positions per document: every position of a shorter one.
const POSITIONS: usize = 96;

/// Replacement bytes: structure, digits, number and keyword letters, quotes,
/// escapes, NUL, DEL and a byte that is never valid UTF-8.
const ALPHABET: &[u8] = b"\0\"\\{}[]:,0927eE+-.xntu ~\x7f\xff";

fn report(system: &str, outcomes: &[(bool, bool, bool)]) -> EvalReport {
    let mut metrics = StageMetrics::default();
    metrics.observe(Stage::SchemaPruning, 12);
    metrics.observe(Stage::LlmCall, u64::MAX);
    metrics.count(Counter::LlmCalls, 2);
    metrics.record_fix(Fixer::MissingTable, true);
    metrics.set_gauge(Gauge::DemosInPrompt, 4);
    let mut attribution = AttributionReport { total: 3, ex_correct: 1, ..Default::default() };
    attribution.counts[Blame::LlmHallucination.index()] = 2;
    attribution.llm_by_category[Fixer::MissingTable.index()] = 1;
    let examples: Vec<ExampleOutcome> = outcomes
        .iter()
        .enumerate()
        .map(|(i, &(em, ex, ts))| ExampleOutcome { em, ex, ts, hardness: (i % 4) as u8 })
        .collect();
    EvalReport {
        system: system.into(),
        split: "dev".into(),
        overall: Bucket { n: 3, em: 1, ex: 2, ts: 1 },
        by_hardness: [Bucket { n: 1, em: 1, ex: 1, ts: 1 }; 4],
        avg_prompt_tokens: 5990.333333333333,
        avg_output_tokens: 27.49,
        has_ts: true,
        metrics,
        attribution: Some(attribution),
        examples,
    }
}

/// One document of each kind, with its typed decoder where one exists.
fn documents() -> Vec<(&'static str, String, Option<Decoder>)> {
    // The control character makes `quote` write a `\u` escape.
    let base = report("PURPLE (\"ChatGPT\")\t\u{1}", &[(true, true, true), (false, true, false)]);
    let cand = report("PURPLE (GPT4)", &[(false, true, true), (true, false, false)]);
    let diff = eval::diff_reports("run-a", &base, "run-b", &cand).expect("same split");
    let manifest = RunManifest {
        system: base.system.clone(),
        split: "dev".into(),
        scale: "tiny".into(),
        seed: 42,
        jobs: 4,
        profile: "ChatGPT".into(),
        config_fingerprint: "deadbeefdeadbeef".into(),
        git_rev: "0123abc".into(),
        schema_version: eval::REPORT_SCHEMA_VERSION,
        examples: 2,
    };
    let event = Event {
        example_idx: 3,
        seq: 1,
        stage: "adaption",
        kind: "fix",
        fields: vec![
            ("category", EventValue::Str("missing-table")),
            ("quality", EventValue::F64(0.25)),
            ("repaired", EventValue::Bool(true)),
            ("samples", EventValue::U64(5)),
        ],
    };
    let sink = SpanSink::bounded(4);
    let recorder = TraceRecorder::new(7);
    recorder.leaf("queue-wait", 0);
    let stage = recorder.start("adaption");
    recorder.leaf("exec", 3);
    recorder.finish(stage, 5);
    sink.publish(recorder);
    let window =
        WindowStats { count: 10, sum: 900, max: 200, p50: 80, p95: 190, p99: 200, sampled: 10 };
    let tick = SoakTick {
        tick: 2,
        id_lo: 20,
        id_hi: 30,
        offered: 10,
        virt: window,
        completed: 9,
        shed: 1,
        wall_ms: 500.25,
        queue_depth_hwm: 4,
        in_flight_hwm: 2,
        verdict: SloVerdict::Degraded,
    };
    let mut slo = SloTracker::new(SloSpec::new("translate_latency", 8192, 0.1), 1 << 14, 16);
    slo.observe(0, 9000);
    let health = HealthSnapshot {
        now: 900,
        completed: 9,
        shed: 1,
        queue_depth: 2,
        in_flight: 1,
        queue_depth_hwm: 4,
        in_flight_hwm: 2,
        queue_window: window,
        in_flight_window: window,
        latency: window,
        slos: vec![slo.status(900)],
        episodes: 1,
        verdict: SloVerdict::Breached,
    };
    let suite = generate_suite(&GenConfig::tiny(7));
    let mut spec = JobSpec::of(0, &suite.dev.examples[0]).with_seed(11);
    spec.example.nl = "how many \"pets\"\tare there 😀\u{1f}".into();
    let request = Request::new(5, spec);
    let response = Response {
        id: 5,
        idx: 0,
        sql: "SELECT count(*) FROM pets WHERE name = \"a\\b\"".into(),
        prompt_tokens: 120,
        output_tokens: 11,
    };
    let line: Decoder = |t| eval::line_from_json(t).map(drop);
    vec![
        ("report", eval::report_to_json(&base), Some(|t| eval::report_from_json(t).map(drop))),
        (
            "metrics",
            eval::metrics_to_json(&base.metrics),
            Some(|t| eval::metrics_from_json(t).map(drop)),
        ),
        ("events line", event.to_json(), None),
        ("chrome trace", obs::trace::to_chrome_trace(&sink.drain(), false), None),
        ("soak tick", tick_to_json(&tick), None),
        ("manifest", manifest.to_json(), Some(|t| RunManifest::from_json(t).map(drop))),
        ("diff", eval::diff_to_json(&diff), Some(|t| eval::diff_from_json(t).map(drop))),
        ("health", health.to_json(), None),
        ("request", eval::request_to_json(&request), Some(line)),
        (
            "response",
            eval::response_to_json(&response),
            Some(|t| eval::response_from_json(t).map(drop)),
        ),
        ("metrics command", "{\"cmd\":\"metrics\"}".into(), Some(line)),
        ("health command", "{\"cmd\":\"health\"}".into(), Some(line)),
    ]
}

/// Run `text` through the parser and the typed decoder, failing the test on
/// a panic. Returns whether each accepted it.
fn decode(what: &str, text: &str, typed: Option<Decoder>) -> (bool, Option<bool>) {
    let run = |f: &dyn Fn(&str) -> bool| {
        catch_unwind(AssertUnwindSafe(|| f(text)))
            .unwrap_or_else(|_| panic!("decoding panicked on {what}: {text:?}"))
    };
    (run(&|t| json::parse(t).is_ok()), typed.map(|decoder| run(&|t| decoder(t).is_ok())))
}

/// The fuzz loop, on a thread with the stack `purple-serve` gives a TCP
/// connection.
fn on_connection_stack(f: fn()) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("the fuzz loop failed");
}

#[test]
fn every_truncation_is_an_error_not_a_panic() {
    on_connection_stack(|| {
        for (name, doc, typed) in documents() {
            assert_eq!(decode(name, &doc, typed), (true, typed.map(|_| true)), "{name}: {doc}");
            for len in (0..doc.len()).filter(|&len| doc.is_char_boundary(len)) {
                // Only a cut in trailing whitespace leaves a whole document.
                let whole = doc[len..].trim().is_empty();
                let (parsed, typed_ok) = decode(name, &doc[..len], typed);
                assert_eq!(parsed, whole, "{name} truncated to {len} bytes");
                assert_ne!(typed_ok, Some(!whole), "{name} truncated to {len} bytes");
            }
        }
    });
}

#[test]
fn single_byte_corruptions_never_panic() {
    on_connection_stack(|| {
        for (k, (name, doc, typed)) in documents().into_iter().enumerate() {
            let positions: Vec<usize> = if doc.len() <= POSITIONS {
                (0..doc.len()).collect()
            } else {
                (0..POSITIONS as u64)
                    .map(|i| (splitmix64((k as u64) << 32 | i) % doc.len() as u64) as usize)
                    .collect()
            };
            for pos in positions {
                for &byte in ALPHABET {
                    let mut bytes = doc.clone().into_bytes();
                    bytes[pos] = byte;
                    decode(name, &String::from_utf8_lossy(&bytes), typed);
                }
            }
        }
    });
}

#[test]
fn hostile_lines_are_errors_not_panics() {
    on_connection_stack(|| {
        let line: Decoder = |t| eval::line_from_json(t).map(drop);
        for hostile in [
            "[".repeat(100_000),
            "{\"a\":".repeat(100_000),
            format!("{{\"cmd\":{}", "[".repeat(100_000)),
            "\"\\ud83d".into(),
            "\"\\ud83d\\u".into(),
            "\"\\ude00\\ud83d\"".into(),
            "\"\\u12".into(),
            "\"\\".into(),
            "\u{feff}{}".into(),
        ] {
            assert_eq!(decode("a hostile line", &hostile, Some(line)), (false, Some(false)));
        }
    });
}
