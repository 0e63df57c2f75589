//! The failure-attribution contract (`repro --diagnose`): every EX-loss gets
//! exactly one blame verdict, the blame table and the structured event stream
//! are byte-identical for any worker count and with the execution cache on or
//! off, and the attribution report
//! round-trips through the hand-rolled JSON codec both standalone and embedded
//! in a full [`eval::EvalReport`].

use bench_harness::{experiments as exp, ReproContext, Scale};
use engine::ExecSession;
use std::sync::Arc;

fn diagnose_at(jobs: usize, session: Arc<ExecSession>) -> exp::DiagnoseOutput {
    let mut ctx = ReproContext::build(Scale::Tiny, 42);
    ctx.jobs = jobs;
    ctx.session = session;
    exp::diagnose(&ctx)
}

#[test]
fn blame_counts_sum_to_ex_losses_and_outputs_are_jobs_invariant() {
    let serial = diagnose_at(1, ExecSession::shared());
    let parallel = diagnose_at(4, ExecSession::shared());
    assert_eq!(serial.markdown, parallel.markdown, "blame table depends on --jobs");
    assert_eq!(serial.events_jsonl, parallel.events_jsonl, "event stream depends on --jobs");
    assert_eq!(serial.report, parallel.report, "report depends on --jobs");
    // Attribution, the vote and scoring all execute through the context's
    // session; with nothing cached the outputs stay the same.
    let uncached = diagnose_at(4, ExecSession::disabled());
    assert_eq!(serial.markdown, uncached.markdown, "blame table depends on the cache");
    assert_eq!(serial.events_jsonl, uncached.events_jsonl, "event stream depends on the cache");
    assert_eq!(serial.report, uncached.report, "report depends on the cache");

    let attribution = serial.report.attribution.as_ref().expect("diagnose fills attribution");
    let losses = attribution.total - attribution.ex_correct;
    assert_eq!(attribution.blamed(), losses, "every EX-loss needs exactly one verdict");
    assert_eq!(attribution.counts.iter().sum::<usize>(), losses);
    assert!(attribution.ex_correct > 0, "tiny scale should get some examples right");
    assert!(losses > 0, "tiny scale should also miss some (else the test is vacuous)");

    // The markdown carries a row for every blame class and every fixer category.
    for blame in eval::Blame::ALL {
        assert!(
            serial.markdown.contains(&format!("| {} |", blame.name())),
            "markdown missing blame row {}",
            blame.name()
        );
    }
    for fixer in obs::Fixer::ALL {
        assert!(
            serial.markdown.contains(&format!("| {} |", fixer.name())),
            "markdown missing category row {}",
            fixer.name()
        );
    }
}

#[test]
fn event_stream_is_ordered_and_covers_every_example() {
    let out = diagnose_at(3, ExecSession::shared());
    let mut last_example = 0usize;
    let mut examples = std::collections::BTreeSet::new();
    for line in out.events_jsonl.lines() {
        assert!(line.starts_with("{\"example\":"), "unexpected JSONL line: {line}");
        let idx: usize = line["{\"example\":".len()..]
            .split(',')
            .next()
            .and_then(|s| s.parse().ok())
            .expect("example index parses");
        assert!(idx >= last_example, "events not sorted by example index");
        last_example = idx;
        examples.insert(idx);
    }
    assert_eq!(
        examples.len(),
        out.report.attribution.as_ref().expect("attribution").total,
        "every evaluated example should contribute events"
    );
}

#[test]
fn attribution_round_trips_inside_the_report_codec() {
    let out = diagnose_at(2, ExecSession::shared());
    let attribution = out.report.attribution.clone().expect("attribution");
    let json = eval::attribution_to_json(&attribution);
    assert_eq!(eval::attribution_from_json(&json).expect("parses"), attribution);
    let report_json = eval::report_to_json(&out.report);
    let parsed = eval::report_from_json(&report_json).expect("report parses");
    assert_eq!(parsed, out.report);
}
