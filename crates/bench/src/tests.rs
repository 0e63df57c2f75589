//! Harness self-tests: rendering, experiment wiring, and tiny-scale smoke checks of
//! the qualitative claims every experiment is expected to exhibit.

use crate::context::{ReproContext, Scale};
use crate::experiments as exp;
use crate::report;

fn ctx() -> ReproContext {
    ReproContext::build(Scale::Tiny, 7)
}

#[test]
fn scale_parsing() {
    assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
    assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
    assert_eq!(Scale::parse("full"), Some(Scale::Full));
    assert_eq!(Scale::parse("huge"), None);
    assert_eq!(Scale::Tiny.gen_config(3).seed, 3);
}

#[test]
fn table2_demonstrates_all_six_categories() {
    let context = ctx();
    let demos = exp::table2(&context);
    let categories: Vec<&str> = demos.iter().map(|d| d.category.as_str()).collect();
    for expected in [
        "table-column-mismatch",
        "column-ambiguity",
        "missing-table",
        "function-hallucination",
        "schema-hallucination",
        "aggregation-hallucination",
    ] {
        assert!(categories.contains(&expected), "missing {expected}, got {categories:?}");
    }
    // Rendering mentions every category and at least one repair.
    let text = report::render_table2(&demos);
    assert!(text.contains("missing-table"));
    assert!(text.contains("executes"));
}

#[test]
fn table3_covers_all_five_splits() {
    let context = ctx();
    let stats = exp::table3(&context);
    let names: Vec<&str> = stats.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, vec!["train", "dev", "dk", "realistic", "syn"]);
    let text = report::render_table3(&stats);
    assert!(text.contains("8659"), "paper sizes shown in brackets");
}

#[test]
fn automaton_ratio_is_monotone() {
    let context = ctx();
    let r = exp::automaton_stats(&context);
    assert!(r[0] >= r[1] && r[1] >= r[2] && r[2] >= r[3]);
    assert!(report::render_automaton(r).contains("912:708:363:59"));
}

#[test]
fn fig11_marks_the_overflow_cell_na() {
    let context = ctx();
    let cells = exp::fig11(&context);
    assert_eq!(cells.len(), 20);
    let na: Vec<_> = cells.iter().filter(|c| !c.available).collect();
    assert!(!na.is_empty(), "at least one N/A cell expected");
    assert!(na.iter().all(|c| c.len == 3072 && c.num == 40));
    // Tokens grow with the budget among available cells at fixed num.
    let t =
        |len: u64, num: usize| cells.iter().find(|c| c.len == len && c.num == num).unwrap().tokens;
    assert!(t(3072, 10) > t(512, 10));
    let text = report::render_fig11(&cells);
    assert!(text.contains("N/A"));
}

#[test]
fn fig12_left_is_stable_and_right_degrades_with_drop() {
    let context = ctx();
    let left = exp::fig12_left(&context);
    assert_eq!(left.len(), 6);
    let em: Vec<f64> = left.iter().map(|r| r.em).collect();
    let spread =
        em.iter().cloned().fold(f64::MIN, f64::max) - em.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread <= 10.0, "hyper-parameter spread too large: {spread:.1}");

    let right = exp::fig12_right(&context);
    assert_eq!(right.len(), 12);
    let base = right.iter().find(|r| r.label == "mask=0 Drop-0").unwrap().em;
    let worst = right.iter().find(|r| r.label == "mask=3 Drop-1").unwrap().em;
    assert!(worst <= base + 3.0, "noise should not improve EM: {worst:.1} vs {base:.1}");
}

#[test]
fn table6_ablations_have_paper_signs() {
    let context = ctx();
    let rows = exp::table6(&context);
    assert_eq!(rows.len(), 6);
    let em = |name: &str| rows.iter().find(|r| r.system == name).unwrap().em;
    let base = em("PURPLE (ChatGPT)");
    assert!(em("-Demonstration Selection") < base, "selection ablation must hurt");
    assert!(em("+Oracle Skeleton") + 3.0 >= base, "oracle must not hurt");
}

#[test]
fn render_rows_formats_both_modes() {
    let rows = vec![exp::Row {
        system: "X".into(),
        em: 50.0,
        ex: 60.0,
        ts: 55.0,
        paper: (51.0, 61.0, 56.0),
    }];
    let with_ts = report::render_rows("t", &rows, true);
    assert!(with_ts.contains("TS%"));
    let without = report::render_rows("t", &rows, false);
    assert!(!without.contains("TS%"));
    assert!(without.contains("50.0"));
}

#[test]
fn extension_generation_modes_are_all_viable() {
    let context = ctx();
    let rows = exp::extension_generation(&context);
    assert_eq!(rows.len(), 3);
    for r in &rows {
        assert!(r.em > 30.0, "{} collapsed: {:.1}", r.label, r.em);
    }
}

#[test]
fn dml_eval_is_identical_across_jobs_and_caches() {
    let base = exp::dml_eval(Scale::Tiny, 11, 1, &engine::ExecSession::disabled());
    assert!(base.overall.n > 0);
    assert!(base.has_ts);
    // The simulated translator misses sometimes but not always.
    assert!(base.overall.ex > 0, "some writes must land");
    assert!(base.overall.ex < base.overall.n, "noise must cause some misses");
    for (jobs, session) in [
        (4, engine::ExecSession::shared()),
        (1, engine::ExecSession::shared()),
        (4, engine::ExecSession::disabled()),
    ] {
        let r = exp::dml_eval(Scale::Tiny, 11, jobs, &session);
        assert_eq!(base, r, "jobs={jobs} cached={}", session.is_enabled());
        assert_eq!(eval::report_to_json(&base), eval::report_to_json(&r));
    }
}

#[test]
fn dml_eval_votes_and_scores_through_the_run_session() {
    // Each example parses its three vote candidates and its scored
    // prediction through the run's session: a vote on a session of its own
    // would leave only the scoring parse.
    let session = engine::ExecSession::shared();
    let report = exp::dml_eval(Scale::Tiny, 11, 1, &session);
    let parse = session.stats().parse;
    assert_eq!(parse.hits + parse.misses, 4 * report.overall.n as u64, "{parse:?}");
}

#[test]
fn dml_split_covers_every_statement_kind() {
    let bench = exp::dml_bench(Scale::Tiny, 11);
    for kind in spidergen::StatementKind::ALL {
        assert!(
            bench.examples.iter().any(|e| e.kind == kind),
            "kind {} absent from the tiny dml split",
            kind.name()
        );
    }
}
