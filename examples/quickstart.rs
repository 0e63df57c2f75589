//! Quickstart: generate a benchmark, train PURPLE, translate one question, and
//! score a split.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use purple_repro::obs;
use purple_repro::prelude::*;

fn main() {
    // 1. A small cross-domain benchmark suite (Spider analog): training split
    //    (demonstration pool) over one set of domains, validation over unseen ones.
    let suite = generate_suite(&GenConfig::tiny(42));
    println!(
        "suite: {} train examples over {} databases, {} dev examples over {} databases",
        suite.train.examples.len(),
        suite.train.databases.len(),
        suite.dev.examples.len(),
        suite.dev.databases.len()
    );

    // 2. Train PURPLE: schema classifier (focal loss), skeleton predictor,
    //    demonstration pool with pruned schemas, and the four-level automaton.
    let system = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
    let ratio = system.automata().end_state_ratio();
    println!(
        "automaton end states (Detail:Keywords:Structure:Clause) = {}:{}:{}:{}",
        ratio[0], ratio[1], ratio[2], ratio[3]
    );

    // 3. Translate one validation question end-to-end. The outcome carries the
    //    translation plus per-stage metrics from the observability layer.
    let ex = &suite.dev.examples[0];
    let db = suite.dev.db_of(ex);
    let outcome = system.run(Job::new(0, ex, db));
    let t = &outcome.translation;
    println!("\nNL:        {}", ex.nl);
    println!("gold SQL:  {}", ex.sql);
    println!("predicted: {}", t.sql);
    println!("tokens:    {} prompt + {} output", t.prompt_tokens, t.output_tokens);
    println!(
        "metrics:   {} LLM call(s), {} consistency samples",
        outcome.metrics.counter(obs::Counter::LlmCalls),
        outcome.metrics.counter(obs::Counter::Samples)
    );

    // 4. Execute the prediction against the database.
    match parse(&t.sql).map(|q| execute(db, &q)) {
        Ok(Ok(rs)) => println!("result:    {} rows x {} cols", rs.rows.len(), rs.columns.len()),
        Ok(Err(e)) => println!("execution error: {e}"),
        Err(e) => println!("parse error: {e}"),
    }

    // 5. Score the whole validation split (EM = exact-set match, EX = execution).
    let report = evaluate(&system, &suite.dev, None, 1, &ExecSession::shared());
    println!("\n{}", report.summary());
}
