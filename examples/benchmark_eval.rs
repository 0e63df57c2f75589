//! Head-to-head evaluation: PURPLE against the zero-shot / few-shot / DAIL-SQL
//! baselines on a generated validation split, with the per-hardness breakdown of
//! the paper's Fig. 9 and the TS metric from distilled test suites.
//!
//! ```sh
//! cargo run --release --example benchmark_eval
//! ```

use purple_repro::prelude::*;

fn main() {
    let mut cfg = GenConfig::tiny(4242);
    cfg.dev_examples = 100;
    let suite = generate_suite(&cfg);
    let purple_sys = Purple::new(&suite.train, PurpleConfig::default_with(CHATGPT));
    let models = SharedModels::from_purple(&purple_sys);

    // Distilled test suites give the TS metric (EX minus coincidences).
    let ts = build_suites(&suite.dev, SuiteConfig::default(), 9);

    let systems: Vec<Box<dyn Translator + Sync>> = vec![
        Box::new(LlmBaseline::new(
            Strategy::ChatGptSql,
            CHATGPT,
            SharedModels {
                classifier: models.classifier.clone(),
                predictor: models.predictor.clone(),
                pool: models.pool.clone(),
            },
        )),
        Box::new(LlmBaseline::new(
            Strategy::FewShot,
            GPT4,
            SharedModels {
                classifier: models.classifier.clone(),
                predictor: models.predictor.clone(),
                pool: models.pool.clone(),
            },
        )),
        Box::new(LlmBaseline::new(Strategy::DailSql, GPT4, models)),
        Box::new(purple_sys.with_config(PurpleConfig::default_with(CHATGPT))),
        Box::new(purple_sys.with_config(PurpleConfig::default_with(GPT4))),
    ];

    println!(
        "{:<24} {:>6} {:>6} {:>6}   {:>9} {:>9} {:>9} {:>9}",
        "system", "EM%", "EX%", "TS%", "easy", "medium", "hard", "extra"
    );
    let session = ExecSession::shared();
    for sys in systems.iter() {
        let r = evaluate(sys.as_ref(), &suite.dev, Some(&ts), 4, &session);
        let cell =
            |i: usize| format!("{:.0}/{:.0}", r.by_hardness[i].em_pct(), r.by_hardness[i].ex_pct());
        println!(
            "{:<24} {:>6.1} {:>6.1} {:>6.1}   {:>9} {:>9} {:>9} {:>9}",
            r.system,
            r.overall.em_pct(),
            r.overall.ex_pct(),
            r.overall.ts_pct(),
            cell(0),
            cell(1),
            cell(2),
            cell(3)
        );
    }
    println!("\n(hardness cells are EM/EX %; buckets follow Spider's official classifier)");
}
