//! Property tests of the LLM substrate: tokenizer monotonicity, prompt budget
//! fitting, profile-mechanism monotonicity, and service determinism. Each
//! property runs [`CASES`] seeded cases and names the seed and the case when it
//! fails.

use llm::{
    count_tokens, Demonstration, GenerationRequest, LlmService, Prompt, CHATGPT, CONTEXT_LIMIT,
};
use rand::prelude::*;
use rand::rngs::StdRng;
use sqlkit::Skeleton;
use std::sync::Arc;

const CASES: u64 = 64;

fn demo(ix: usize, schema_cols: usize) -> Arc<Demonstration> {
    let cols: Vec<String> = (0..schema_cols).map(|i| format!("c{i} int")).collect();
    let schema = format!("create table t{ix} ({})\n", cols.join(", "));
    Arc::new(Demonstration::new(
        schema.clone(),
        schema.into(),
        format!("question {ix} about table t{ix}?"),
        format!("SELECT c0 FROM t{ix} WHERE c1 = {ix}"),
        Skeleton::parse("SELECT _ FROM _ WHERE _ = _"),
    ))
}

/// Up to `max` characters, none of them a newline: spaces, printable ASCII and
/// arbitrary Unicode scalars.
fn random_line(rng: &mut StdRng, max: usize) -> String {
    (0..rng.random_range(0..=max))
        .map(|_| match rng.random_range(0..4) {
            0 => ' ',
            1 => char::from(rng.random_range(0x21u8..0x7f)),
            _ => {
                char::from_u32(rng.random_range(0..0x11_0000)).filter(|&c| c != '\n').unwrap_or('?')
            }
        })
        .collect()
}

#[test]
fn tokenizer_is_monotone_under_concatenation() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = (random_line(&mut rng, 200), random_line(&mut rng, 200));
        let joined = format!("{a}{b}");
        for part in [&a, &b] {
            assert!(
                count_tokens(&joined) + 1 >= count_tokens(part),
                "seed {seed}, case {a:?} + {b:?}"
            );
        }
    }
}

#[test]
fn prompt_fits_any_budget_above_core() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_demos = rng.random_range(0usize..30);
        let budget = rng.random_range(60u64..5000);
        let case = format!("seed {seed}, case {n_demos} demos, budget {budget}");
        let mut p = Prompt {
            instruction: "Write SQL.".into(),
            demonstrations: (0..n_demos).map(|i| demo(i, 4)).collect(),
            schema_text: "create table u (a int, b text)\n".into(),
            nl: "how many u are there?".into(),
            ..Default::default()
        };
        let core_len = Prompt { demonstrations: vec![], ..p.clone() }.token_len();
        p.fit_to_budget(budget);
        if budget >= core_len {
            assert!(p.token_len() <= budget, "{case}: {} > {budget}", p.token_len());
        } else {
            // Cannot fit: every demo must at least be gone.
            assert!(p.demonstrations.is_empty(), "{case}");
        }
    }
}

#[test]
fn composition_probability_is_monotone_in_support() {
    // More (or finer) support never lowers the probability.
    let svc = LlmService::new(CHATGPT);
    let sqls = [
        "SELECT a FROM t WHERE b = 1",
        "SELECT COUNT(*) FROM t GROUP BY a",
        "SELECT a FROM t ORDER BY b DESC LIMIT 1",
        "SELECT a FROM t WHERE b IN (SELECT c FROM u)",
    ];
    for seed in 0..CASES {
        let ix = StdRng::seed_from_u64(seed).random_range(0usize..100);
        let sql = sqls[ix % sqls.len()];
        let gold = sqlkit::parse(sql).unwrap();
        let required = Skeleton::from_query(&gold);
        let exact = required.clone();
        let (p_none, _) = svc.composition_probability(&required, &[], &gold, 0.0, false);
        let (p_exact, _) = svc.composition_probability(&required, &[&exact], &gold, 0.0, false);
        assert!(p_exact >= p_none, "seed {seed}, case `{sql}`");
        // Instruction quality is monotone too.
        let (p_instr, _) = svc.composition_probability(&required, &[], &gold, 1.0, false);
        assert!(p_instr >= p_none, "seed {seed}, case `{sql}`");
    }
}

#[test]
fn service_is_deterministic_and_respects_n() {
    let mut schema = sqlkit::Schema::new("d");
    schema.tables.push(sqlkit::Table {
        name: "t".into(),
        display: "t".into(),
        columns: vec![
            sqlkit::Column::new("a", sqlkit::ColumnType::Int),
            sqlkit::Column::new("b", sqlkit::ColumnType::Text),
        ],
        primary_key: Some(0),
    });
    let db = engine::Database::empty(schema);
    let gold = sqlkit::parse("SELECT b FROM t WHERE a = 1").unwrap();
    let prompt = Prompt {
        instruction: String::new(),
        demonstrations: vec![demo(0, 3)],
        schema_text: "create table t (a int, b text)\n".into(),
        nl: "what is the b of t with a 1?".into(),
        ..Default::default()
    };
    let svc = LlmService::new(CHATGPT);
    let session = engine::ExecSession::shared();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let req_seed = rng.random_range(0u64..500);
        let n = rng.random_range(1usize..8);
        let case = format!("seed {seed}, case request seed {req_seed}, n {n}");
        let req = GenerationRequest::for_prompt(&prompt, &gold, session.bind(&db))
            .prune_quality(0.5)
            .n(n)
            .seed(req_seed);
        let a = svc.complete(&req, &obs::Probe::detached());
        let b = svc.complete(&req, &obs::Probe::detached());
        assert_eq!(a.samples, b.samples, "{case}");
        assert_eq!(a.samples.len(), n, "{case}");
        assert!(a.prompt_tokens <= CONTEXT_LIMIT, "{case}");
        // Every sample parses.
        for s in &a.samples {
            assert!(sqlkit::parse(s).is_ok(), "{case}: unparseable sample `{s}`");
        }
    }
}
