//! Property-based integration tests of the hallucination-injection / database-
//! adaption loop: for gold queries drawn from the generator, every injected
//! Table-2 error must be diagnosed with the right category, and the adaption
//! module must restore executability — usually to the exact gold semantics.
//! Each property runs [`CASES`] seeded cases and names the seed and the case
//! when it fails.

use purple_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const CASES: u64 = 64;

fn fixtures() -> &'static (Suite, Vec<(usize, Query)>) {
    static FIX: std::sync::OnceLock<(Suite, Vec<(usize, Query)>)> = std::sync::OnceLock::new();
    FIX.get_or_init(|| {
        let suite = generate_suite(&GenConfig::tiny(555));
        let goldens: Vec<(usize, Query)> =
            suite.dev.examples.iter().map(|e| (e.db_index, e.query.clone())).collect();
        (suite, goldens)
    })
}

/// The input of case `seed`: a value drawn from `0..end`.
fn case_input(seed: u64, end: u64) -> u64 {
    StdRng::seed_from_u64(seed).random_range(0..end)
}

#[test]
fn injected_hallucinations_are_diagnosed_and_repaired() {
    let (suite, goldens) = fixtures();
    for seed in 0..CASES {
        let input = case_input(seed, 10_000);
        let mut rng = StdRng::seed_from_u64(input);
        let (db_index, gold) = &goldens[(input as usize) % goldens.len()];
        let db = &suite.dev.databases[*db_index];
        let mut q = gold.clone();
        let Some(category) = llm::writer::inject_hallucination(&mut q, db, &mut rng) else {
            // Query shape admits no injection — that is fine.
            continue;
        };
        let broken_sql = q.to_string();
        let case = format!("seed {seed}, case {input}: injected {category} into `{gold}`");
        // The engine must fail with exactly the injected category.
        match engine::execute(db, &q) {
            Ok(_) => panic!("{case}, but `{broken_sql}` executed"),
            Err(e) => assert_eq!(e.category(), category, "{case}"),
        }
        // Adaption restores executability.
        let fixed = purple::adapt_sql(&broken_sql, db, &mut rng);
        assert!(fixed.executable, "{case}: adaption failed: `{broken_sql}` -> `{}`", fixed.sql);
        assert!(fixed.fixes.contains(&category), "{case}: fix log {:?}", fixed.fixes);
    }
}

#[test]
fn adaption_leaves_valid_gold_sql_untouched() {
    let (suite, goldens) = fixtures();
    for seed in 0..CASES {
        let ix = case_input(seed, 1000);
        let (db_index, gold) = &goldens[ix as usize % goldens.len()];
        let db = &suite.dev.databases[*db_index];
        let sql = gold.to_string();
        let case = format!("seed {seed}, case {ix}: `{sql}`");
        let r = purple::adapt_sql(&sql, db, &mut StdRng::seed_from_u64(ix));
        assert!(r.executable, "{case}");
        assert!(r.fixes.is_empty(), "{case}: gold SQL should need no fixes, got {:?}", r.fixes);
        assert_eq!(r.sql, sql, "{case}");
    }
}

#[test]
fn near_miss_rewrites_always_parse_and_usually_execute() {
    let (suite, goldens) = fixtures();
    let uncached = ExecSession::disabled();
    for seed in 0..CASES {
        let input = case_input(seed, 10_000);
        let mut rng = StdRng::seed_from_u64(input);
        let (db_index, gold) = &goldens[(input as usize) % goldens.len()];
        let db = &uncached.bind(&suite.dev.databases[*db_index]);
        if let Some(m) = llm::rewrites::near_miss(gold, db, 0.7, &mut rng) {
            let text = m.to_string();
            let case = format!("seed {seed}, case {input}: near-miss `{text}` of `{gold}`");
            let reparsed = parse(&text).unwrap_or_else(|e| panic!("{case} does not parse: {e}"));
            assert_eq!(reparsed, m, "{case}");
        }
    }
}

#[test]
fn near_miss_through_a_shared_session_matches_the_uncached_path() {
    let (suite, goldens) = fixtures();
    let (shared, uncached) = (ExecSession::shared(), ExecSession::disabled());
    // The second pass finds the gold queries and their rewrites cached.
    for pass in 0..2 {
        for seed in 0..CASES {
            let input = case_input(seed, 10_000);
            let (db_index, gold) = &goldens[(input as usize) % goldens.len()];
            let db = &suite.dev.databases[*db_index];
            for bias in [0.5, 0.95] {
                let case = format!("pass {pass}, seed {seed}, case {input}, bias {bias}: `{gold}`");
                let (mut a, mut b) = (StdRng::seed_from_u64(input), StdRng::seed_from_u64(input));
                let via_shared = llm::rewrites::near_miss(gold, &shared.bind(db), bias, &mut a);
                let via_uncached = llm::rewrites::near_miss(gold, &uncached.bind(db), bias, &mut b);
                assert_eq!(via_shared, via_uncached, "{case}");
                assert_eq!(a.next_u64(), b.next_u64(), "{case}: the RNG states differ");
            }
        }
    }
    let stats = shared.stats();
    assert!(stats.result.hits > 0 && stats.result.misses > 0, "{stats:?}");
}

#[test]
fn consistency_vote_is_order_insensitive_for_clean_samples() {
    let (suite, goldens) = fixtures();
    for seed in 0..CASES {
        let input = case_input(seed, 1000);
        let (db_index, gold) = &goldens[(input as usize) % goldens.len()];
        let db = &suite.dev.databases[*db_index];
        let sql = gold.to_string();
        // Identical clean samples in any order vote to the same SQL.
        let samples = vec![sql.clone(), sql.clone(), sql.clone()];
        let mut rng = StdRng::seed_from_u64(input);
        let v = purple::consistency_vote(&samples, db, &mut rng, &obs::Probe::detached());
        let case = format!("seed {seed}, case {input}: `{sql}`");
        assert!(v.executable, "{case}");
        assert_eq!(v.sql, sql, "{case}");
    }
}

#[test]
fn every_category_is_injectable_somewhere_on_dev() {
    let (suite, goldens) = fixtures();
    let mut seen: std::collections::HashSet<&'static str> = std::collections::HashSet::new();
    let mut rng = StdRng::seed_from_u64(1);
    // Dev goldens plus crafted COUNT(DISTINCT <col>) probes per database, so the
    // aggregation injector always has an applicable shape regardless of which
    // patterns the sampled dev split happens to contain.
    let mut probes: Vec<(usize, Query)> = goldens.clone();
    for (di, db) in suite.dev.databases.iter().enumerate() {
        if let Some(t) = db.schema.tables.first() {
            if let Some(c) = t
                .columns
                .iter()
                .find(|c| Some(&c.name) != t.primary_key.map(|pk| &t.columns[pk].name))
            {
                let sql = format!("SELECT COUNT(DISTINCT {}) FROM {}", c.name, t.name);
                if let Ok(q) = parse(&sql) {
                    probes.push((di, q));
                }
            }
        }
    }
    for (db_index, gold) in &probes {
        let db = &suite.dev.databases[*db_index];
        for _ in 0..4 {
            let mut q = gold.clone();
            if let Some(c) = llm::writer::inject_hallucination(&mut q, db, &mut rng) {
                seen.insert(c);
            }
        }
    }
    for expected in [
        "function-hallucination",
        "aggregation-hallucination",
        "schema-hallucination",
        "table-column-mismatch",
        "column-ambiguity",
        "missing-table",
    ] {
        assert!(seen.contains(expected), "category {expected} never injectable; saw {seen:?}");
    }
}
