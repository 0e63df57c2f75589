//! Property-based tests of the execution engine's SQL semantics, driven by the
//! benchmark generator's (query, database) pairs — every invariant here must hold
//! for arbitrary generated workloads. Each property runs [`CASES`] seeded cases
//! and names the seed and the case when it fails.

use purple_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlkit::ast::{Condition, OrderDir};

const CASES: u64 = 128;

fn fixtures() -> &'static Suite {
    static SUITE: std::sync::OnceLock<Suite> = std::sync::OnceLock::new();
    SUITE.get_or_init(|| generate_suite(&GenConfig::tiny(777)))
}

/// The dev example of case `seed`, drawn by index from `0..10_000`, with the
/// case's own generator for any further input.
fn pick(suite: &Suite, seed: u64) -> (&engine::Database, &Query, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ix = rng.random_range(0usize..10_000);
    let ex = &suite.dev.examples[ix % suite.dev.examples.len()];
    (suite.dev.db_of(ex), &ex.query, rng)
}

#[test]
fn where_filter_never_grows_the_result() {
    let suite = fixtures();
    for seed in 0..CASES {
        let (db, q, _) = pick(suite, seed);
        if q.compound.is_some() || q.core.where_clause.is_none() || q.core.limit.is_some() {
            continue;
        }
        let filtered = execute(db, q).expect("gold executes");
        let mut unfiltered = q.clone();
        unfiltered.core.where_clause = None;
        if let Ok(all) = execute(db, &unfiltered) {
            assert!(
                filtered.rows.len() <= all.rows.len(),
                "seed {seed}, case `{q}`: WHERE grew rows: {} > {}",
                filtered.rows.len(),
                all.rows.len()
            );
        }
    }
}

#[test]
fn distinct_never_grows_the_result() {
    let suite = fixtures();
    for seed in 0..CASES {
        let (db, q, _) = pick(suite, seed);
        if q.compound.is_some() || q.core.limit.is_some() {
            continue;
        }
        let base = execute(db, q).expect("gold executes");
        let mut d = q.clone();
        d.core.distinct = true;
        let dd = execute(db, &d).expect("distinct executes");
        assert!(dd.rows.len() <= base.rows.len(), "seed {seed}, case `{q}`");
        // Idempotence: DISTINCT twice equals once.
        let ddd = execute(db, &d).expect("distinct re-executes");
        assert!(dd.same_result(&ddd, false), "seed {seed}, case `{q}`");
    }
}

#[test]
fn limit_caps_row_count() {
    let suite = fixtures();
    for seed in 0..CASES {
        let (db, q, mut rng) = pick(suite, seed);
        let n = rng.random_range(0u64..5);
        if q.compound.is_some() {
            continue;
        }
        let mut lq = q.clone();
        lq.core.limit = Some(n);
        let rs = execute(db, &lq).expect("limited query executes");
        assert!(rs.rows.len() as u64 <= n, "seed {seed}, case `{lq}`");
    }
}

#[test]
fn set_operation_cardinalities() {
    let suite = fixtures();
    for seed in 0..CASES {
        let (db, q, _) = pick(suite, seed);
        if q.compound.is_some() || !q.core.order_by.is_empty() || q.core.limit.is_some() {
            continue;
        }
        let base = execute(db, q).expect("executes");
        for op in [sqlkit::SetOp::Union, sqlkit::SetOp::Intersect, sqlkit::SetOp::Except] {
            let compound =
                Query { core: q.core.clone(), compound: Some((op, Box::new(q.clone()))) };
            let rs = execute(db, &compound).expect("set op executes");
            let case = format!("seed {seed}, case `{compound}`");
            if op == sqlkit::SetOp::Except {
                assert!(rs.rows.is_empty(), "{case}: q EXCEPT q must be empty");
            } else {
                // q UNION q and q INTERSECT q both equal the de-duplicated base.
                assert!(rs.rows.len() <= base.rows.len(), "{case}");
                let mut dq = q.clone();
                dq.core.distinct = true;
                let dedup = execute(db, &dq).expect("distinct executes");
                assert!(rs.same_result(&dedup, false), "{case}: must equal DISTINCT base");
            }
        }
    }
}

#[test]
fn order_by_direction_reversal_reverses_extremes() {
    let suite = fixtures();
    for seed in 0..CASES {
        let (db, q, _) = pick(suite, seed);
        if q.compound.is_some() || q.core.order_by.len() != 1 || q.core.limit.is_some() {
            continue;
        }
        let run_in = |dir| {
            let mut o = q.clone();
            o.core.order_by[0].dir = dir;
            execute(db, &o).expect("ordered query executes")
        };
        // Same multiset, reversed-or-equal first/last rows under a total ordering.
        assert!(
            run_in(OrderDir::Asc).same_result(&run_in(OrderDir::Desc), false),
            "seed {seed}, case `{q}`"
        );
    }
}

#[test]
fn conjunction_is_commutative() {
    let suite = fixtures();
    for seed in 0..CASES {
        let (db, q, _) = pick(suite, seed);
        let Some(Condition::And(l, r)) = q.core.where_clause.clone() else { continue };
        let mut swapped = q.clone();
        swapped.core.where_clause = Some(Condition::And(r, l));
        let a = execute(db, q).expect("executes");
        let b = execute(db, &swapped).expect("swapped executes");
        assert!(a.same_result(&b, engine::order_matters(q)), "seed {seed}, case `{q}`");
    }
}

#[test]
fn execution_is_deterministic() {
    let suite = fixtures();
    for seed in 0..CASES {
        let (db, q, _) = pick(suite, seed);
        let a = execute(db, q).expect("executes");
        let b = execute(db, q).expect("re-executes");
        assert_eq!(a.rows, b.rows, "seed {seed}, case `{q}`");
    }
}

#[test]
fn em_is_reflexive_and_ex_matches_self() {
    let suite = fixtures();
    let session = ExecSession::disabled();
    for seed in 0..CASES {
        let (db, q, _) = pick(suite, seed);
        assert!(eval::em_match(q, q, &db.schema), "seed {seed}, case `{q}`");
        assert!(eval::ex_match(&session.bind(db), q, q), "seed {seed}, case `{q}`");
    }
}
