//! Cost-vs-performance tuning (the paper's Fig. 11, §V-D): sweep the prompt-length
//! budget and the consistency number, printing accuracy and token spend for each.
//!
//! ```sh
//! cargo run --release --example budget_tuning
//! ```

use purple_repro::prelude::*;

fn main() {
    let mut cfg = GenConfig::tiny(42);
    cfg.dev_examples = 80;
    let suite = generate_suite(&cfg);
    let base = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
    // One session for the whole sweep: every configuration reuses the gold
    // executions the first one cached.
    let session = ExecSession::shared();

    println!(
        "{:>6} {:>5} {:>8} {:>7} {:>7} {:>11}",
        "len", "num", "status", "EM%", "EX%", "avg tokens"
    );
    for len in [512u64, 1024, 2048, 3072] {
        for num in [1usize, 10, 30, 40] {
            // A single API call must fit the prompt plus all sampled completions
            // in the 4,096-token context (the paper marks overflows N/A).
            if len + num as u64 * 26 > llm::CONTEXT_LIMIT {
                println!("{len:>6} {num:>5} {:>8} {:>7} {:>7} {:>11}", "N/A", "-", "-", "-");
                continue;
            }
            let mut pc = PurpleConfig::default_with(CHATGPT);
            pc.len_budget = len;
            pc.num_consistency = num;
            let system = base.with_config(pc);
            let r = evaluate(&system, &suite.dev, None, 1, &session);
            println!(
                "{len:>6} {num:>5} {:>8} {:>7.1} {:>7.1} {:>11.0}",
                "ok",
                r.overall.em_pct(),
                r.overall.ex_pct(),
                r.avg_prompt_tokens + r.avg_output_tokens
            );
        }
    }
    println!("\nExpect: gains saturate past len=2048 and num=10 — spend where it helps.");
}
