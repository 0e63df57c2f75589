//! Trace a PURPLE translation module by module: pruned schema, skeleton beam,
//! selected demonstrations and their abstraction-level support, budget effects,
//! adaption fixes, and the final vote.
//!
//! ```sh
//! cargo run --release --example trace_translation
//! ```

use purple_repro::prelude::*;

fn main() {
    let suite = generate_suite(&GenConfig::tiny(2025));
    let system = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));

    // Pick the hardest example for an interesting trace.
    let ex = suite.dev.examples.iter().max_by_key(|e| e.hardness).expect("non-empty dev split");
    let db = suite.dev.db_of(ex);

    println!("NL:       {}", ex.nl);
    println!("gold SQL: {}", ex.sql);
    println!("hardness: {}\n", ex.hardness);

    let outcome = system.run(Job::new(0, ex, db).with_trace(true));
    let trace = outcome.trace.expect("trace requested");

    println!("== Step 1: schema pruning ==");
    println!(
        "kept {} of {} tables ({}% of columns pruned away); gold coverage: {}",
        trace.pruned.keep.len(),
        db.schema.tables.len(),
        (trace.prune_quality * 100.0).round(),
        if trace.recall_covered { "complete" } else { "MISSED ITEMS (error propagation!)" }
    );
    println!("{}", trace.pruned.to_text(&db.schema));

    println!("== Step 2: skeleton prediction (top-{}) ==", trace.predictions.len());
    for p in &trace.predictions {
        println!("  p={:.2}  {}", p.probability, p.skeleton);
    }

    println!("\n== Step 3: demonstration selection ==");
    println!(
        "selected {} demonstrations ({} in prompt after the {}-token budget, {} dropped)",
        trace.selected.len(),
        trace.demos_in_prompt,
        3072,
        trace.dropped_by_budget
    );
    println!("composition support in context: {:?}", trace.support_level);

    println!("\n== Step 4+5: LLM call, adaption, consistency ==");
    println!("tokens: {} prompt + {} output", trace.prompt_tokens, trace.output_tokens);
    if trace.fixes.is_empty() {
        println!("no repairs needed across samples");
    } else {
        println!("repairs applied: {:?}", trace.fixes);
    }
    println!("\nfinal SQL: {}", trace.sql);
    let session = ExecSession::shared();
    let sdb = session.bind(db);
    let pred = session.parse(&trace.sql);
    let em = pred.is_some_and(|p| eval::em_match(&p, &ex.query, &db.schema));
    let exm = eval::ex_match_str(&sdb, &trace.sql, &ex.query);
    println!("exact-set match: {em}, execution match: {exm}");

    println!("\n== Blame ==");
    match trace.blame(&ex.query, &sdb) {
        None => println!("EX-correct: nothing to blame"),
        Some(v) => {
            println!("blamed module: {}", v.blame.name());
            println!("failure mode:  {}", v.mode.label());
            if let Some(cat) = v.category {
                println!("fix category:  {}", cat.name());
            }
        }
    }
}
