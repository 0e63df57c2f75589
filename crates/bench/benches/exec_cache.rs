//! Execution-layer benchmark; a plain run prints the `BENCH_exec.json`
//! payload.
//!
//! * `consistency_vote` — the consistency vote through a warm shared
//!   [`ExecSession`] (cached) vs a disabled session (uncached), on a
//!   duplicate-heavy sample mix (30 samples, 8 distinct strings — the shape
//!   LLM sampling actually produces) and a distinct-heavy mix (30 distinct
//!   strings).
//! * `cold_exec` — the distinct-heavy mix against a 2000-row table through a
//!   fresh session per run (empty caches, so the result cache can't help) vs
//!   the row-at-a-time reference interpreter (`engine::reference`): raw
//!   execution speed of the vectorized pipeline against the row driver it
//!   replaced. Debug-identical results are asserted before any timing.
//!
//! `cargo bench -p purple-bench --bench exec_cache` prints the payload.
//! `EXEC_BENCH_SMOKE=1` runs the equivalence assertion plus a few cold
//! iterations and exits — the `ci/smoke.sh exec-bench` fast path.

use engine::{Database, ExecSession, Value};
use purple::consistency_vote;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlkit::{Column, ColumnType, Schema, Table};
use std::hint::black_box;
use std::time::Instant;

const DESCRIPTION: &str = "Two comparisons. consistency_vote: purple::consistency_vote \
    over 30 LLM samples on a 200-row database, warm shared ExecSession (cached) vs \
    ExecSession::disabled() (uncached); duplicate_heavy = 8 distinct strings among the 30 \
    samples, distinct_heavy = 30 distinct strings. cold_exec: the distinct-heavy mix against a \
    2000-row table through a FRESH session per run (empty caches, first-encounter cost) vs the \
    row-at-a-time reference interpreter engine::reference::execute; Debug-identical result sets \
    are asserted before timing. Reproduce with: cargo bench -p purple-bench --bench exec_cache";

const NOTE: &str = "manual Instant timing, bench (release) profile, plain build (the workspace \
    names no registry crate; timings are engine-dominated). Smoke form: EXEC_BENCH_SMOKE=1 cargo \
    bench -p purple-bench --bench exec_cache";

fn db() -> Database {
    let mut s = Schema::new("bench");
    s.tables.push(Table {
        name: "t".into(),
        display: "t".into(),
        columns: vec![
            Column::new("id", ColumnType::Int),
            Column::new("name", ColumnType::Text),
            Column::new("grp", ColumnType::Text),
        ],
        primary_key: Some(0),
    });
    let mut db = Database::empty(s);
    for i in 0..200i64 {
        db.insert(
            0,
            vec![
                Value::Int(i + 1),
                Value::Text(format!("n{}", i % 37)),
                Value::Text(format!("g{}", i % 5)),
            ],
        );
    }
    db
}

/// A 2000-row variant of the bench table for the cold-execution arms: large
/// enough that per-row engine work dominates parse/plan overheads.
fn cold_db() -> Database {
    let mut s = Schema::new("bench");
    s.tables.push(Table {
        name: "t".into(),
        display: "t".into(),
        columns: vec![
            Column::new("id", ColumnType::Int),
            Column::new("name", ColumnType::Text),
            Column::new("grp", ColumnType::Text),
        ],
        primary_key: Some(0),
    });
    let mut db = Database::empty(s);
    for i in 0..2000i64 {
        db.insert(
            0,
            vec![
                Value::Int(i + 1),
                Value::Text(format!("n{}", i % 37)),
                Value::Text(format!("g{}", i % 5)),
            ],
        );
    }
    db
}

/// 30 samples over 8 distinct strings: the duplicate-heavy vote shape.
fn duplicate_heavy() -> Vec<String> {
    let distinct: Vec<String> =
        (0..8).map(|k| format!("SELECT name FROM t WHERE grp = 'g{k}'")).collect();
    (0..30).map(|i| distinct[i % distinct.len()].clone()).collect()
}

/// 30 distinct samples: every string must be adapted and executed.
fn distinct_heavy() -> Vec<String> {
    (0..30).map(|i| format!("SELECT name FROM t WHERE id = {}", i + 1)).collect()
}

fn vote(samples: &[String], db: &Database, session: &ExecSession) -> purple::VoteOutcome {
    let mut rng = StdRng::seed_from_u64(11);
    consistency_vote(samples, &session.bind(db), &mut rng, &obs::Probe::detached())
}

/// One cold run on the engine: a fresh session (empty caches) executes every
/// sample once — the first-encounter cost structure of a real evaluation,
/// where the result cache cannot help.
fn cold_session(db: &Database, samples: &[String]) {
    let session = ExecSession::new(engine::DEFAULT_CACHE_CAPACITY);
    let bound = session.bind(db);
    for sql in samples {
        black_box(bound.execute_sql(sql).unwrap().unwrap());
    }
}

/// The same run on the reference interpreter: parse, prepare and run every
/// sample row at a time.
fn cold_reference(db: &Database, samples: &[String]) {
    for sql in samples {
        let q = sqlkit::parse(sql).unwrap();
        black_box(engine::reference::execute(db, &q).unwrap());
    }
}

/// The engine must produce Debug-identical result sets to the reference on the
/// bench mix before any cold timing is trusted.
fn assert_engine_matches_reference(db: &Database, samples: &[String]) {
    let session = ExecSession::shared();
    for sql in samples {
        let got = session.bind(db).execute_sql(sql).unwrap().unwrap();
        let want = engine::reference::execute(db, &sqlkit::parse(sql).unwrap()).unwrap();
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "engine diverged on `{sql}`");
    }
}

/// Microseconds per iteration after warmup.
fn time_us<F: FnMut()>(mut f: F, iters: u32) -> f64 {
    for _ in 0..5 {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

fn emit_json() {
    let db = db();
    let iters = 400;
    let mut cells = Vec::new();
    for (mix, samples) in
        [("duplicate_heavy", duplicate_heavy()), ("distinct_heavy", distinct_heavy())]
    {
        let warm = ExecSession::shared();
        vote(&samples, &db, &warm);
        let cached = time_us(|| void(vote(&samples, &db, &warm)), iters);
        let uncached = time_us(|| void(vote(&samples, &db, &ExecSession::disabled())), iters);
        cells.push((mix, cached, uncached));
    }
    let cdb = cold_db();
    let dis = distinct_heavy();
    assert_engine_matches_reference(&cdb, &dis);
    let cold_ref = time_us(|| cold_reference(&cdb, &dis), iters);
    let cold_vec = time_us(|| cold_session(&cdb, &dis), iters);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("{{");
    println!("  \"schema_version\": 3,");
    println!("  \"bench\": \"exec_cache\",");
    println!("  \"description\": \"{DESCRIPTION}\",");
    println!("  \"host_threads\": {threads},");
    println!("  \"samples_per_vote\": 30,");
    println!("  \"iterations\": {iters},");
    println!("  \"consistency_vote\": {{");
    let last = cells.len() - 1;
    for (i, (mix, cached, uncached)) in cells.iter().enumerate() {
        println!(
            "    \"{mix}\": {{ \"cached_us\": {cached:.1}, \"uncached_us\": {uncached:.1}, \
             \"speedup\": {:.2} }}{}",
            uncached / cached,
            if i == last { "" } else { "," }
        );
    }
    println!("  }},");
    println!("  \"cold_exec\": {{");
    println!(
        "    \"distinct_heavy\": {{ \"cold_reference_us\": {cold_ref:.1}, \
         \"cold_vectorized_us\": {cold_vec:.1}, \"speedup\": {:.2} }}",
        cold_ref / cold_vec
    );
    println!("  }},");
    println!("  \"note\": \"{NOTE}\"");
    println!("}}");
}

/// The `ci/smoke.sh exec-bench` fast path: assert the engine matches the
/// reference on the cold mix and time a handful of cold runs of each. Exits
/// nonzero (panics) on any divergence.
fn smoke() {
    let db = cold_db();
    let dis = distinct_heavy();
    assert_engine_matches_reference(&db, &dis);
    let iters = 10;
    let reference = time_us(|| cold_reference(&db, &dis), iters);
    let vectorized = time_us(|| cold_session(&db, &dis), iters);
    println!(
        "exec-bench smoke ok: engine matches the reference on {} samples; cold reference \
         {reference:.0}us, cold vectorized {vectorized:.0}us",
        dis.len()
    );
}

fn void<T>(t: T) {
    black_box(t);
}

fn main() {
    if std::env::var_os("EXEC_BENCH_SMOKE").is_some() {
        smoke();
    } else {
        emit_json();
    }
}
